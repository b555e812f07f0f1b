//! Per-layer metrics of a traced run, and the ingest-path budget that
//! splits the mean ack latency into layer self times.

use std::collections::HashMap;

use ms_core::WireFrame;
use ms_service::{Response, RESPONSE_TAG};

use crate::phase::{Phase, Workload};
use crate::report::{self, counter_delta, hist_delta, hist_quantile, mean, ratio, Outcome};
use crate::trace::{Class, ServerRecord, TIMED};

/// Standalone measurements made after the traced phase.
pub struct Standalone {
    pub route_us: f64,
    pub cube_us: f64,
    pub store_us: f64,
    pub codec_us: f64,
    pub update_ns_per_item: f64,
    pub merge_fused_us: f64,
    pub merge_seq_us: f64,
    /// Telemetry overhead per on/off pair, percent.
    pub telemetry_pct: Vec<f64>,
}

fn span_mean(records: &[&ServerRecord], name: &str) -> f64 {
    mean(records.iter().filter_map(|r| r.child(name)).map(|s| s.us()))
}

/// Percentile of `values` as a per-layer metric, with its sample count
/// (and a flag when fewer than ten samples lie beyond it) as a fact.
fn pct_metric(o: &mut Outcome, name: &str, values: &[f64], q: f64) {
    let p = report::percentile(values, q);
    o.metric(name, p.value, "us");
    let flag = if p.beyond < 10 {
        " (fewer than 10 beyond)"
    } else {
        ""
    };
    o.fact(&format!("{name}.n"), format!("{}{flag}", p.n));
}

fn hist_metric(o: &mut Outcome, name: &str, phase: &Phase, prefix: &str, q: f64) {
    let h = hist_delta(&phase.engine.before, &phase.engine.after, prefix);
    o.metric(name, hist_quantile(&h, q), "us");
    o.fact(&format!("{name}.n"), h.count);
}

/// Process CPU seconds per unit of the workload's own closed-loop work
/// (queries on range-read, updates otherwise), which the tracing overhead
/// is measured on: unlike wall time, it does not move with what the host
/// steals.
fn cpu_per_unit(w: Workload, p: &Phase) -> f64 {
    let units = match w {
        Workload::RangeRead => p.out.timed_queries,
        _ => p.out.timed_items,
    };
    ratio(p.cpu_s, units as f64)
}

pub fn per_layer(w: Workload, plain: &Phase, traced: &Phase, alone: &Standalone, o: &mut Outcome) {
    let timed: Vec<&ServerRecord> = traced
        .records
        .iter()
        .filter(|r| r.trace & TIMED != 0)
        .collect();
    let of = |class: Class| -> Vec<&ServerRecord> {
        timed.iter().copied().filter(|r| r.class == class).collect()
    };
    let (ingests, queries) = (of(Class::Ingest), of(Class::Query));
    let client: HashMap<u64, f64> = traced
        .out
        .spans
        .iter()
        .map(|c| (c.trace, c.span.us()))
        .collect();
    let handle = |rs: &[&ServerRecord]| -> Vec<f64> { rs.iter().map(|r| r.handle.us()).collect() };
    let wire = |rs: &[&ServerRecord]| {
        mean(
            rs.iter()
                .filter_map(|r| client.get(&r.trace).map(|c| c - r.handle.us())),
        )
    };
    let ack_mean = mean(ingests.iter().filter_map(|r| client.get(&r.trace).copied()));
    let (before, after) = (&traced.engine.before, &traced.engine.after);

    // server: frame codec, connection loop, dispatch.
    pct_metric(o, "server.request_us.ingest.p50", &handle(&ingests), 0.50);
    pct_metric(o, "server.request_us.ingest.p99", &handle(&ingests), 0.99);
    pct_metric(o, "server.request_us.query.p50", &handle(&queries), 0.50);
    pct_metric(o, "server.request_us.query.p99", &handle(&queries), 0.99);
    o.metric("server.wire_overhead_us.ingest", wire(&ingests), "us");
    o.metric("server.wire_overhead_us.query", wire(&queries), "us");
    let handle_mean = mean(handle(&ingests));
    let engine_ingest = span_mean(&ingests, "engine.ingest");
    let dispatch = handle_mean - engine_ingest;
    o.metric("server.rtt_us", traced.ping_us, "us");
    o.metric("server.codec_us", alone.codec_us, "us");
    o.metric("server.dispatch_us", dispatch, "us");
    let bytes_in = counter_delta(before, after, "server_bytes_in_total") as f64;
    let bytes_out = counter_delta(before, after, "server_bytes_out_total") as f64;
    let ack_len = WireFrame::from_value(RESPONSE_TAG, &Response::Ok)
        .to_bytes()
        .len() as f64;
    let acks = traced.out.ingest_us.len() as f64;
    o.metric(
        "server.bytes_in_per_update",
        ratio(bytes_in, traced.out.timed_items as f64),
        "B/update",
    );
    o.metric(
        "server.bytes_out_per_query",
        ratio(bytes_out - acks * ack_len, traced.out.timed_queries as f64),
        "B/query",
    );

    // overload: admission and sheds.
    o.metric("overload.admitted", traced.engine.admitted as f64, "count");
    o.metric("overload.shed", traced.engine.shed as f64, "count");

    // engine: routing, shard rings, workers, compactor, pools.
    hist_metric(
        o,
        "engine.queue_wait_us.p99",
        traced,
        "queue_wait_micros",
        0.99,
    );
    hist_metric(
        o,
        "engine.absorb_us.p50",
        traced,
        "ingest_batch_micros",
        0.50,
    );
    hist_metric(
        o,
        "engine.compact_merge_us.p99",
        traced,
        "compact_merge_micros",
        0.99,
    );
    let pool = &traced.engine;
    o.metric(
        "engine.pool_reuse_pct",
        100.0
            * ratio(
                pool.pool_reuses as f64,
                (pool.pool_reuses + pool.pool_misses) as f64,
            ),
        "%",
    );
    o.metric("engine.ingest_us", engine_ingest, "us");
    o.metric(
        "engine.snapshot_query_us",
        span_mean(&queries, "engine.snapshot_query"),
        "us",
    );
    o.metric(
        "engine.range_query_us",
        span_mean(&queries, "engine.range_query"),
        "us",
    );
    let flushes: Vec<&ServerRecord> = traced
        .records
        .iter()
        .filter(|r| r.class == Class::Flush)
        .collect();
    o.metric("engine.flush_us", span_mean(&flushes, "engine.flush"), "us");
    o.metric("engine.route_us", alone.route_us, "us");

    // store: WAL group commit and segment files.
    let records = counter_delta(before, after, "wal_records_total") as f64;
    let groups = counter_delta(before, after, "wal_group_commits_total") as f64;
    let fsyncs = counter_delta(before, after, "wal_fsyncs_total") as f64;
    let wal_bytes = counter_delta(before, after, "wal_bytes_total") as f64;
    o.metric(
        "store.records_per_group",
        ratio(records, groups),
        "records/group",
    );
    o.metric(
        "store.fsyncs_per_batch",
        ratio(fsyncs, records),
        "fsyncs/batch",
    );
    o.metric(
        "store.bytes_per_user_byte",
        ratio(wal_bytes, traced.out.timed_items as f64 * 8.0),
        "B/B",
    );
    o.metric("store.append_us", alone.store_us, "us");

    // cube: segment fold, seal, range merge.
    o.metric(
        "cube.segments_per_query",
        mean(
            traced
                .out
                .ranges
                .iter()
                .map(|(_, a)| a.meta.segments_merged as f64),
        ),
        "count",
    );
    o.metric("cube.sealed", traced.engine.sealed as f64, "count");
    o.metric("cube.record_us", alone.cube_us, "us");

    // summary: update, merge, query, encode, accuracy.
    o.metric(
        "summary.update_batch_ns_per_item",
        alone.update_ns_per_item,
        "ns",
    );
    o.metric("summary.encode_us", traced.encode_us, "us");
    o.metric(
        "summary.query_us",
        span_mean(&queries, "summary.query"),
        "us",
    );
    o.metric("summary.merge_fused_us", alone.merge_fused_us, "us");
    o.metric("summary.merge_seq_us", alone.merge_seq_us, "us");
    o.metric(
        "summary.err_ratio",
        plain.check.worst.max(traced.check.worst),
        "ratio",
    );

    // obs: telemetry and tracing overhead.
    let (q1, med, q3) = report::quartiles(&alone.telemetry_pct);
    o.metric("obs.telemetry_overhead_pct", med, "%");
    o.metric("obs.telemetry_overhead_pct.q1", q1, "%");
    o.metric("obs.telemetry_overhead_pct.q3", q3, "%");
    o.fact(
        "obs.telemetry_overhead_pct.pairs",
        format!("{:?}", alone.telemetry_pct),
    );
    let (c0, c1) = (cpu_per_unit(w, plain), cpu_per_unit(w, traced));
    o.metric("trace.overhead_pct", 100.0 * ratio(c1 - c0, c0), "%");

    // Allocations: the connection thread's count is charged to the
    // request it served; allocations on the engine's own threads (workers,
    // compactor, checkpointer) are charged to ingest, which drives them.
    let on_conns: u64 = timed.iter().map(|r| r.allocs).sum();
    let background = traced
        .allocs_total
        .saturating_sub(traced.allocs_main + traced.out.allocs + on_conns);
    let sum = |rs: &[&ServerRecord]| rs.iter().map(|r| r.allocs).sum::<u64>() as f64;
    o.metric(
        "alloc.per_ingest_request",
        ratio(sum(&ingests) + background as f64, ingests.len() as f64),
        "count",
    );
    o.metric(
        "alloc.per_query_request",
        ratio(sum(&queries), queries.len() as f64),
        "count",
    );

    // The ingest-path budget: mean ack latency = wire round trip + codec +
    // dispatch + routing + cube fold + WAL append + what none of these
    // explains (lock and queue waits, CPU contention).
    let parts = traced.ping_us
        + alone.codec_us
        + dispatch
        + alone.route_us
        + alone.cube_us
        + alone.store_us;
    o.metric("budget.ack_mean_us", ack_mean, "us");
    o.metric("budget.unattributed_us", ack_mean - parts, "us");
    o.metric(
        "budget.unattributed_pct",
        100.0 * ratio(ack_mean - parts, ack_mean),
        "%",
    );
}
