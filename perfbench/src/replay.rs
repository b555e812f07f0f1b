//! Standalone replays that split a traced request's time into layers, the
//! compactor merge comparison, and the telemetry on/off pairs.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ms_core::wire::{encode_frame_into, encode_u64_slice_into};
use ms_core::{Wire, WireFrame};
use ms_service::{
    decode_traced_request, Engine, Request, Response, SegmentConfig, SegmentCube, ServiceConfig,
    ShardSummary, SummaryKind, REQUEST_TAG, RESPONSE_TAG,
};
use ms_store::{GroupCommit, Store, StoreConfig};

use crate::load::{self, Conn};
use crate::phase::{self, Inputs, SetupOpts, Sizes, Workload, EPS};

fn mean_us(total: Duration, n: usize) -> f64 {
    total.as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Mean `Engine::ingest` time per batch on an in-memory, cube-free engine
/// of the workload's kind, flushed every 32 batches so the shard queues
/// never fill: routing and enqueue without backpressure.
pub fn route_us(w: Workload, batches: &[Vec<u64>]) -> Result<f64, String> {
    let cfg = ServiceConfig::new(w.kind(), EPS).shards(2);
    let engine = Engine::start(cfg).map_err(|e| format!("replay engine: {e}"))?;
    let mut total = Duration::ZERO;
    for chunk in batches.chunks(32) {
        for b in chunk {
            let batch = b.clone();
            let t = Instant::now();
            engine
                .ingest(batch)
                .map_err(|e| format!("replay ingest: {e}"))?;
            total += t.elapsed();
        }
        engine.flush().map_err(|e| format!("replay flush: {e}"))?;
    }
    engine.shutdown();
    Ok(mean_us(total, batches.len()))
}

/// Mean `SegmentCube::record_with` time per batch with a no-op append,
/// sealing at the workload's segment size.
pub fn cube_us(w: Workload, batches: &[Vec<u64>]) -> f64 {
    let Some(seal) = w.seal_batches() else {
        return 0.0;
    };
    let seed = ServiceConfig::new(w.kind(), EPS).seed;
    let cube = SegmentCube::new(EPS, seed, SegmentConfig::new().seal_batches(seal));
    let mut total = Duration::ZERO;
    for b in batches {
        let t = Instant::now();
        let out = cube.record_with(b, || Ok::<(), ()>(()));
        total += t.elapsed();
        std::hint::black_box(out.ok());
    }
    mean_us(total, batches.len())
}

/// Mean `GroupCommit::append` time per batch (fsync always) into a fresh
/// store under `dir`, from one writer: the cube lock serialises the
/// engine's appends the same way.
pub fn store_us(w: Workload, batches: &[Vec<u64>], dir: &Path) -> Result<f64, String> {
    if !w.durable() {
        return Ok(0.0);
    }
    let cfg = StoreConfig::new(dir)
        .fsync(ms_store::FsyncPolicy::Always)
        .cube_segments(w.seal_batches().is_some());
    let (store, _) = Store::open(&cfg).map_err(|e| format!("replay store: {e}"))?;
    let store = Mutex::new(store);
    let group = GroupCommit::new();
    let mut total = Duration::ZERO;
    for b in batches {
        let mut payload = Vec::new();
        encode_u64_slice_into(&mut payload, b);
        let t = Instant::now();
        group
            .append(&store, payload)
            .map_err(|e| format!("replay append: {e}"))?;
        total += t.elapsed();
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(mean_us(total, batches.len()))
}

/// Mean wire codec time per ingest request: the client's frame encode,
/// the server's frame read and decode, and the `Ok` response's encode and
/// decode, all in memory.
pub fn codec_us(batches: &[Vec<u64>]) -> Result<f64, String> {
    let opcode = Request::Ingest(Vec::new()).opcode();
    let mut frame = Vec::new();
    let mut resp = Vec::new();
    let t = Instant::now();
    for b in batches {
        frame.clear();
        encode_frame_into(&mut frame, REQUEST_TAG, |out| {
            out.push(opcode);
            encode_u64_slice_into(out, b);
        });
        let read = WireFrame::read_from(&mut frame.as_slice())
            .map_err(|e| format!("codec read: {e}"))?
            .ok_or("codec: empty frame")?;
        let (request, _) = decode_traced_request(&read).map_err(|e| format!("codec: {e}"))?;
        std::hint::black_box(request);
        let reply = WireFrame::from_value(RESPONSE_TAG, &Response::Ok).to_bytes();
        WireFrame::read_from_into(&mut reply.as_slice(), &mut resp)
            .map_err(|e| format!("codec reply: {e}"))?;
        std::hint::black_box(Response::decode(&resp).map_err(|e| format!("codec reply: {e}"))?);
    }
    Ok(mean_us(t.elapsed(), batches.len()))
}

/// `ShardSummary::update_batch` cost per item for the workload's kind.
pub fn update_ns_per_item(w: Workload, batches: &[Vec<u64>]) -> f64 {
    let cfg = ServiceConfig::new(w.kind(), EPS);
    let mut s = ShardSummary::new(&cfg, 0);
    let items: usize = batches.iter().map(Vec::len).sum();
    let t = Instant::now();
    for b in batches {
        s.update_batch(b);
    }
    std::hint::black_box(&s);
    t.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64
}

/// Median times of the compactor's fold of 16 worker deltas.
pub struct MergeTimes {
    /// Summed over the four families.
    pub fused_us: f64,
    pub seq_us: f64,
    /// Per family: (family, fused, sequential).
    pub per_family: Vec<(SummaryKind, f64, f64)>,
}

/// The compactor's fold of 16 worker deltas, per family: fused
/// `merge_in_place_many` against a loop of `merge_in_place`.
pub fn merge_comparison(stream: &[u64], reps: usize) -> Result<MergeTimes, String> {
    const DELTAS: usize = 16;
    let mut detail = Vec::new();
    for kind in SummaryKind::all() {
        let cfg = ServiceConfig::new(kind, EPS);
        let chunk = cfg.delta_updates;
        let part = |i: usize| -> Vec<u64> {
            (0..chunk)
                .map(|j| stream[(i * chunk + j) % stream.len()])
                .collect()
        };
        let mut base = ShardSummary::new(&cfg, 0);
        base.update_batch(&part(0));
        let deltas: Vec<ShardSummary> = (0..DELTAS)
            .map(|i| {
                let mut d = ShardSummary::new(&cfg, i % cfg.shards);
                d.update_batch(&part(i + 1));
                d
            })
            .collect();
        let (mut fused, mut seq) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let (mut dst, ds) = (base.clone(), deltas.clone());
            let t = Instant::now();
            let results = dst.merge_in_place_many(ds);
            fused.push(t.elapsed().as_secs_f64() * 1e6);
            if results.iter().any(|r| r.is_err()) {
                return Err(format!("fused merge of {} deltas failed", kind.label()));
            }
            let (mut dst, ds) = (base.clone(), deltas.clone());
            let t = Instant::now();
            for d in ds {
                dst.merge_in_place(d)
                    .map_err(|e| format!("merge of {} deltas: {e}", kind.label()))?;
            }
            seq.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let (f, s) = (
            crate::report::median(&mut fused),
            crate::report::median(&mut seq),
        );
        detail.push((kind, f, s));
    }
    Ok(MergeTimes {
        fused_us: detail.iter().map(|d| d.1).sum(),
        seq_us: detail.iter().map(|d| d.2).sum(),
        per_family: detail,
    })
}

/// Telemetry overhead: alternating pairs of fresh engines of the
/// workload's configuration with telemetry on and off, each driven by one
/// closed-loop ingest connection for `pair_secs` after a quarter of that
/// to warm up. The overhead is the extra process CPU time per update, as
/// a percentage of the telemetry-off cost; CPU time, unlike wall time,
/// does not move with what the host steals. Returns one value per pair.
pub fn telemetry_pairs(
    w: Workload,
    inputs: &Inputs,
    sizes: &Sizes,
    scratch: &Path,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for p in 0..sizes.pairs {
        let order = if p % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        let mut cpu_per_item = [0.0f64; 2];
        for on in order {
            let opts = SetupOpts {
                traced: false,
                telemetry: on,
                conns: 1,
                preload: false,
                scratch,
            };
            let mut env = phase::setup(w, inputs, &opts)?;
            let mut d = Conn::new(&mut env.clients[0], None);
            let window = |secs: f64, timed: bool| {
                let start = Instant::now();
                let end = start + Duration::from_secs_f64(secs);
                load::Window {
                    start,
                    from: if timed { start } else { end },
                    end,
                }
            };
            let warm = load::closed_ingest(
                &mut d,
                &inputs.pools[0],
                window(sizes.pair_secs / 4.0, false),
                None,
            );
            let cpu0 = phase::cpu_and_steal().0;
            let run = load::closed_ingest(
                &mut d,
                &inputs.pools[0],
                window(sizes.pair_secs, true),
                None,
            );
            let cpu = phase::cpu_and_steal().0 - cpu0;
            phase::teardown(env);
            if warm.failed + run.failed > 0 {
                return Err(format!("telemetry pair ingest failed: {:?}", run.errors));
            }
            cpu_per_item[on as usize] = cpu / run.timed_items.max(1) as f64;
        }
        out.push((cpu_per_item[1] - cpu_per_item[0]) / cpu_per_item[0] * 100.0);
    }
    Ok(out)
}
