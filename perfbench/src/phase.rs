//! Workloads, server set-up and the timed phase with its answer checks.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ms_core::{Rng64, Wire};
use ms_obs::RegistrySnapshot;
use ms_service::{
    Client, ClientOptions, DurabilityConfig, Engine, FsyncPolicy, Request, Response, SegmentConfig,
    SegmentReport, Server, ServiceConfig, SummaryKind,
};

use crate::alloc;
use crate::input::{self, Check, Counts, SeqIndex};
use crate::load::{self, Conn, LoopOut, Tick};
use crate::trace::{ServerRecord, TracedService};

/// ε of every engine and of every check.
pub const EPS: f64 = 0.01;
/// φ of every heavy-hitter query.
pub const PHI: f64 = 0.01;
const SHARDS: usize = 2;
/// Open-loop rates: ingest-mem's queries and range-read's ingest trickle.
const QUERY_RATE: f64 = 500.0;
const TRICKLE_RATE: f64 = 100.0;
/// durable-cube: every 4th request on each connection is a query.
const QUERY_EVERY: u64 = 4;
/// Wall-clock sealing never fires within a run; segments seal by count.
const SEAL_MICROS: u64 = 3_600_000_000;
/// 256, so that a window's index bit-reversed as a `u8` gives its length.
const RANGE_WINDOWS: usize = 256;
/// The timed window is cut into slices of this length, each with the
/// CPU time the machine gave to anything but this process.
const SLICE: Duration = Duration::from_millis(200);
const QUANTILE_PHIS: [f64; 7] = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestMem,
    DurableCube,
    RangeRead,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestMem,
        Workload::DurableCube,
        Workload::RangeRead,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestMem => "ingest-mem",
            Workload::DurableCube => "durable-cube",
            Workload::RangeRead => "range-read",
        }
    }

    pub fn kind(self) -> SummaryKind {
        match self {
            Workload::RangeRead => SummaryKind::HybridQuantile,
            _ => SummaryKind::Mg,
        }
    }

    pub fn batch_len(self) -> usize {
        match self {
            Workload::IngestMem => 4096,
            _ => 1024,
        }
    }

    pub fn seal_batches(self) -> Option<u64> {
        match self {
            Workload::IngestMem => None,
            Workload::DurableCube => Some(64),
            Workload::RangeRead => Some(16),
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::DurableCube
    }

    /// Whether ingest (range-read) or queries (ingest-mem) are sent by an
    /// open loop, at a set rate rather than as fast as they are answered.
    pub fn open_ingest(self) -> bool {
        self == Workload::RangeRead
    }

    pub fn open_queries(self) -> bool {
        self == Workload::IngestMem
    }

    /// The workload's parameters, for the run record.
    pub fn describe(self) -> String {
        let loads = match self {
            Workload::IngestMem => format!(
                "closed-loop ingest x1 conn; open-loop Point/HeavyHitters({PHI}) at {QUERY_RATE}/s"
            ),
            Workload::DurableCube => format!(
                "closed-loop ingest x2 conns, every {QUERY_EVERY}th request Point/HeavyHitters({PHI})"
            ),
            Workload::RangeRead => format!(
                "closed-loop per window RangeQuantile(0.5), RangeQuantile(0.99), then \
                 RangeHeavyHitters({PHI}) or Quantile(0.5) in turn; \
                 open-loop ingest at {TRICKLE_RATE} batches/s"
            ),
        };
        format!(
            "kind={} eps={EPS} shards={SHARDS} batch={} zipf_s={} universe=2^20 durability={} \
             segment_batches={} load=[{loads}]",
            self.kind().label(),
            self.batch_len(),
            input::ZIPF_S,
            if self.durable() {
                "fsync=always"
            } else {
                "none"
            },
            self.seal_batches()
                .map_or("none".to_string(), |b| b.to_string()),
        )
    }
}

/// Input sizes and repeat counts; `Sizes::smoke` shrinks everything.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Batches in each cycled ingest pool.
    pub pool_batches: usize,
    /// range-read's preload, in batches.
    pub preload_batches: usize,
    /// `--trace 0` splits the timed phase into rounds, each on a freshly
    /// set-up server: this many for range-read (whose set-up preloads 4M
    /// items), `rounds` for the others.
    pub rounds: usize,
    pub range_rounds: usize,
    /// Untimed load before each timed window.
    pub warm_secs: f64,
    /// Extra set-ups (timed, then torn down) for the workloads without a
    /// preload, whose set-up takes under a millisecond.
    pub extra_setups: usize,
    /// Telemetry on/off pairs and the length of each side.
    pub pairs: usize,
    pub pair_secs: f64,
    /// Batches replayed through each standalone layer.
    pub replay_batches: usize,
    pub pings: usize,
    pub merge_reps: usize,
    /// Require ≥ 10 samples beyond every reported percentile.
    pub strict_tails: bool,
}

impl Sizes {
    pub fn rounds(&self, w: Workload) -> usize {
        if w == Workload::RangeRead {
            self.range_rounds
        } else {
            self.rounds
        }
    }

    pub fn full() -> Sizes {
        Sizes {
            pool_batches: 1024,
            // 3906 x 1024 ≈ 4M items: 244 sealed 16-batch segments.
            preload_batches: 3906,
            rounds: 8,
            range_rounds: 10,
            warm_secs: 0.4,
            extra_setups: 24,
            pairs: 7,
            pair_secs: 1.0,
            replay_batches: 256,
            pings: 200,
            merge_reps: 15,
            strict_tails: true,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            pool_batches: 16,
            preload_batches: 200,
            rounds: 2,
            range_rounds: 2,
            warm_secs: 0.1,
            extra_setups: 2,
            pairs: 2,
            pair_secs: 0.2,
            replay_batches: 16,
            pings: 10,
            merge_reps: 2,
            strict_tails: false,
        }
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// One cycled pool per ingest connection (range-read: the trickle,
    /// sent once in order).
    pub pools: Vec<Vec<Vec<u64>>>,
    pub preload: Vec<Vec<u64>>,
    /// Keys of Point / Rank queries (Zipf, so heavy and light keys mix).
    pub keys: Vec<u64>,
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64, secs: f64, sizes: &Sizes) -> Inputs {
        let len = w.batch_len();
        let (pools, preload) = match w {
            Workload::IngestMem => (
                vec![input::zipf_batches(seed, 1, sizes.pool_batches, len)],
                Vec::new(),
            ),
            Workload::DurableCube => (
                vec![
                    input::zipf_batches(seed, 1, sizes.pool_batches / 2, len),
                    input::zipf_batches(seed, 2, sizes.pool_batches / 2, len),
                ],
                Vec::new(),
            ),
            Workload::RangeRead => {
                let trickle = ((secs + sizes.warm_secs) * TRICKLE_RATE).ceil() as usize + 1;
                (
                    vec![input::zipf_batches(seed, 2, trickle, len)],
                    input::zipf_batches(seed, 1, sizes.preload_batches, len),
                )
            }
        };
        let keys = input::zipf_batches(seed, 3, 1, 4096).remove(0);
        Inputs {
            pools,
            preload,
            keys,
        }
    }
}

pub fn config(w: Workload, telemetry: bool, data_dir: Option<&Path>) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(w.kind(), EPS)
        .shards(SHARDS)
        .telemetry(telemetry);
    if let Some(batches) = w.seal_batches() {
        cfg = cfg.segments(
            SegmentConfig::new()
                .seal_batches(batches)
                .seal_micros(SEAL_MICROS),
        );
    }
    if let Some(dir) = data_dir {
        cfg = cfg.durability(DurabilityConfig::new(dir).fsync(FsyncPolicy::Always));
    }
    cfg
}

/// A running server with its client connections.
pub struct Env {
    pub engine: Arc<Engine>,
    server: Server,
    pub traced: Option<Arc<TracedService>>,
    pub clients: Vec<Client>,
    data_dir: Option<PathBuf>,
    /// range-read: the cube index after the preload.
    pub segments: Option<SegmentReport>,
}

pub struct SetupOpts<'a> {
    pub traced: bool,
    pub telemetry: bool,
    pub conns: usize,
    pub preload: bool,
    /// Parent of the durable data directory (a fresh one per set-up).
    pub scratch: &'a Path,
}

fn client_opts() -> ClientOptions {
    ClientOptions {
        // A failure is counted, not retried away.
        retries: 0,
        read_timeout: Duration::from_secs(60),
        ..ClientOptions::default()
    }
}

/// Start the engine and server, connect the clients and run any preload.
pub fn setup(w: Workload, inputs: &Inputs, opts: &SetupOpts) -> Result<Env, String> {
    static NEXT_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let data_dir = w.durable().then(|| {
        let n = NEXT_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        opts.scratch.join(format!("data-{n}"))
    });
    let engine = Engine::start(config(w, opts.telemetry, data_dir.as_deref()))
        .map_err(|e| format!("engine start: {e}"))?;
    let (server, traced) = if opts.traced {
        let svc = Arc::new(TracedService::new(Arc::clone(&engine)));
        let server = Server::bind_service(Arc::clone(&svc) as _, "127.0.0.1:0");
        (server, Some(svc))
    } else {
        (Server::bind(Arc::clone(&engine), "127.0.0.1:0"), None)
    };
    let server = server.map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut env = Env {
        engine,
        server,
        traced,
        clients: Vec::new(),
        data_dir,
        segments: None,
    };
    for _ in 0..opts.conns {
        let client =
            Client::connect_with(addr, client_opts()).map_err(|e| format!("connect: {e}"))?;
        env.clients.push(client);
    }
    if opts.preload && !inputs.preload.is_empty() {
        let c = &mut env.clients[0];
        for b in &inputs.preload {
            c.ingest_slice(b).map_err(|e| format!("preload: {e}"))?;
        }
        c.flush().map_err(|e| format!("preload flush: {e}"))?;
        env.segments = Some(c.segments().map_err(|e| format!("segment info: {e}"))?);
    }
    Ok(env)
}

pub fn teardown(env: Env) {
    let Env {
        server,
        clients,
        data_dir,
        ..
    } = env;
    drop(clients);
    server.stop();
    if let Some(dir) = data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// The first line of a `/proc` file as numbers, after `skip` fields.
fn proc_fields(path: &str, skip: usize) -> Vec<f64> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(skip)
        .map(|f| f.parse().unwrap_or(0.0))
        .collect()
}

/// CPU seconds, from clock ticks of 10 ms, of: this process (utime and
/// stime, fields 14 and 15 of `/proc/self/stat`; the command name in
/// field 2 has no spaces here), its user time alone, and the machine's
/// user, nice and steal time (fields 1, 2 and 8 of the `cpu` line of
/// `/proc/stat`).
struct CpuTimes {
    own: f64,
    own_user: f64,
    user: f64,
    steal: f64,
}

fn cpu_times() -> CpuTimes {
    let own = proc_fields("/proc/self/stat", 13);
    let all = proc_fields("/proc/stat", 1);
    let at = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0) / 100.0;
    CpuTimes {
        own: at(&own, 0) + at(&own, 1),
        own_user: at(&own, 0),
        user: at(&all, 0) + at(&all, 1),
        steal: at(&all, 7),
    }
}

/// CPU seconds this process has used, and CPU seconds the host has
/// stolen from this machine.
pub fn cpu_and_steal() -> (f64, f64) {
    let t = cpu_times();
    (t.own, t.steal)
}

/// CPU seconds this machine gave to anything but this process: stolen by
/// the host, or spent in other processes' user code.
fn interference_s() -> f64 {
    let t = cpu_times();
    t.steal + t.user - t.own_user
}

/// One slice of a timed window: its bounds in seconds after the window
/// opened, and the share of the machine's CPU time in it that went to
/// anything but this process.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub start: f64,
    pub end: f64,
    pub interference: f64,
}

/// Cut the timed window into `SLICE`s until `end`, reading the
/// interference at each cut.
fn slices(from: Instant, end: Instant) -> Vec<Slice> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut out = Vec::new();
    let (mut t0, mut i0) = (Instant::now(), interference_s());
    let mut cut = from + SLICE;
    while cut <= end {
        load::sleep_until(cut);
        let (t1, i1) = (Instant::now(), interference_s());
        let dur = (t1 - t0).as_secs_f64();
        out.push(Slice {
            start: (t0 - from).as_secs_f64(),
            end: (t1 - from).as_secs_f64(),
            interference: ((i1 - i0) / (dur * cpus)).max(0.0),
        });
        (t0, i0) = (t1, i1);
        cut += SLICE;
    }
    out
}

/// Counter and histogram deltas over the timed phase, plus the engine
/// state the per-layer metrics read.
pub struct EngineDelta {
    pub before: RegistrySnapshot,
    pub after: RegistrySnapshot,
    pub admitted: u64,
    pub shed: u64,
    pub pool_reuses: u64,
    pub pool_misses: u64,
    pub sealed: u64,
}

/// Everything one timed phase produced.
pub struct Phase {
    pub wall_s: f64,
    pub out: LoopOut,
    pub check: Check,
    pub rss_end: u64,
    /// Process CPU seconds and host-stolen CPU seconds in the timed window.
    pub cpu_s: f64,
    pub steal_s: f64,
    pub slices: Vec<Slice>,
    pub engine: EngineDelta,
    /// Traced phases only.
    pub records: Vec<ServerRecord>,
    pub allocs_total: u64,
    pub allocs_main: u64,
    pub ping_us: f64,
    pub encode_us: f64,
}

/// Windows over the sealed segments, mapped to the times the cube stamped
/// on them. Their lengths are spread evenly over 1..=all segments, in
/// bit-reversed order so that every run of consecutive windows mixes
/// short and long ones alike: the work a window costs, and that of any
/// stretch of the cycle, is the same for every seed. The seed places them.
fn windows(report: &SegmentReport, seed: u64) -> Vec<(u64, u64)> {
    let sealed: Vec<_> = report.segments.iter().filter(|s| s.sealed).collect();
    let n = sealed.len() as u64;
    if n == 0 {
        return Vec::new();
    }
    let mut rng = Rng64::new(seed ^ 0x57_1D_0C_5E);
    (0..RANGE_WINDOWS)
        .map(|i| {
            let len = 1 + (i as u8).reverse_bits() as u64 * n / RANGE_WINDOWS as u64;
            let first = rng.below(n - len + 1);
            let last = first + len - 1;
            (
                sealed[first as usize].start_micros,
                sealed[last as usize].end_micros,
            )
        })
        .collect()
}

/// Query `k`: each window in turn gets a `RangeQuantile` at φ = 0.5 and
/// at φ = 0.99, then alternately a `RangeHeavyHitters` or a global
/// `Quantile`. A range quantile merges the window's summaries and costs
/// about ten times a range heavy-hitter query; with two of every three
/// queries a range quantile, the median latency lies among them rather
/// than in the gap between the cheap and the dear kinds.
fn range_query(k: u64, windows: &[(u64, u64)]) -> Request {
    let (start_micros, end_micros) = windows[(k / 3) as usize % windows.len()];
    match k % 3 {
        0 => Request::RangeQuantile {
            start_micros,
            end_micros,
            phi: 0.5,
        },
        1 => Request::RangeQuantile {
            start_micros,
            end_micros,
            phi: 0.99,
        },
        _ if (k / 3).is_multiple_of(2) => Request::RangeHeavyHitters {
            start_micros,
            end_micros,
            phi: PHI,
        },
        _ => Request::Quantile(0.5),
    }
}

fn point_or_hh(k: u64, keys: &[u64]) -> Request {
    if k.is_multiple_of(2) {
        Request::Point(keys[(k / 2) as usize % keys.len()])
    } else {
        Request::HeavyHitters(PHI)
    }
}

/// Run the load for `warm` seconds untimed and `secs` timed, then check
/// every answer.
pub fn run_phase(
    w: Workload,
    inputs: &Inputs,
    env: &mut Env,
    warm: f64,
    secs: f64,
    seed: u64,
    sizes: &Sizes,
) -> Phase {
    let engine = Arc::clone(&env.engine);
    let traced = env.traced.clone();
    let conn = |i: u64| traced.as_ref().map(|_| i);
    let windows = env
        .segments
        .as_ref()
        .map(|r| windows(r, seed))
        .unwrap_or_default();

    let start = Instant::now() + Duration::from_millis(20);
    let from = start + Duration::from_secs_f64(warm);
    let win = load::Window {
        start,
        from,
        end: from + Duration::from_secs_f64(secs),
    };
    let keys = &inputs.keys;
    let make_q = |k: u64| point_or_hh(k, keys);
    let make_q2 = |k: u64| point_or_hh(k + 1_000_003, keys);
    let make_r = |k: u64| range_query(k, &windows);
    let mut out = LoopOut::default();
    let mut marks = None;
    let mut cut = Vec::new();
    std::thread::scope(|s| {
        let (c0, rest) = env.clients.split_first_mut().expect("a client");
        let c1 = rest.first_mut().expect("two clients");
        let (mut d0, mut d1) = (Conn::new(c0, conn(0)), Conn::new(c1, conn(1)));
        let pools = &inputs.pools;
        let handles = match w {
            Workload::IngestMem => [
                s.spawn(move || load::closed_ingest(&mut d0, &pools[0], win, None)),
                s.spawn(move || load::open_loop(d1, QUERY_RATE, win, Tick::Query(&make_q))),
            ],
            Workload::DurableCube => [
                s.spawn(move || {
                    load::closed_ingest(&mut d0, &pools[0], win, Some((QUERY_EVERY, &make_q)))
                }),
                s.spawn(move || {
                    load::closed_ingest(&mut d1, &pools[1], win, Some((QUERY_EVERY, &make_q2)))
                }),
            ],
            Workload::RangeRead => [
                s.spawn(move || load::closed_queries(d0, win, &make_r)),
                s.spawn(move || load::open_loop(d1, TRICKLE_RATE, win, Tick::Ingest(&pools[0]))),
            ],
        };
        // The timed window opens: mark the engine's counters and start
        // recording spans and allocations.
        load::sleep_until(from);
        let before = engine.telemetry_snapshot();
        let admission = (engine.admission().admits(), engine.admission().sheds());
        let pool = engine.pool_stats();
        if let Some(t) = &traced {
            t.set_recording(true);
            alloc::set_counting(true);
        }
        let allocs0 = (alloc::total(), alloc::on_this_thread());
        marks = Some((before, admission, pool, allocs0, cpu_and_steal()));
        cut = slices(from, win.end);
        for h in handles {
            out.merge(h.join().expect("client thread panicked"));
        }
    });
    let (before, (admitted0, shed0), (reuse0, miss0, _), allocs0, (cpu0, steal0)) =
        marks.expect("marks taken inside the scope");
    let (cpu1, steal1) = cpu_and_steal();
    let wall_s = out.end.map_or(secs, |e| (e - from).as_secs_f64());
    let rss_end = rss_bytes();
    let allocs_total = alloc::total() - allocs0.0;
    let allocs_main = alloc::on_this_thread() - allocs0.1;
    alloc::set_counting(false);
    let after = engine.telemetry_snapshot();
    let (reuse1, miss1, _) = engine.pool_stats();
    let delta = EngineDelta {
        before,
        after,
        admitted: engine.admission().admits() - admitted0,
        shed: engine.admission().sheds() - shed0,
        pool_reuses: reuse1 - reuse0,
        pool_misses: miss1 - miss0,
        sealed: engine
            .segment_report()
            .map_or(0, |r| r.segments.iter().filter(|s| s.sealed).count() as u64),
    };

    let c0 = &mut env.clients[0];
    let mut ping_us = 0.0;
    if traced.is_some() {
        let t = Instant::now();
        for _ in 0..sizes.pings {
            let _ = c0.call(&Request::Ping);
        }
        ping_us = t.elapsed().as_secs_f64() * 1e6 / sizes.pings as f64;
    }
    let mut check = Check::default();
    if let Err(e) = c0.flush() {
        check.fail(format!("final flush: {e}"));
    }
    let mut records = Vec::new();
    let mut encode_us = 0.0;
    if let Some(t) = &traced {
        t.set_recording(false);
        records = t.take_records();
        let snap = engine.snapshot();
        let mut times: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(snap.summary.encode());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        encode_us = crate::report::median(&mut times);
    }
    final_checks(w, inputs, c0, &out, &mut check);
    Phase {
        wall_s,
        out,
        check,
        rss_end,
        cpu_s: cpu1 - cpu0,
        steal_s: steal1 - steal0,
        slices: cut,
        engine: delta,
        records,
        allocs_total,
        allocs_main,
        ping_us,
        encode_us,
    }
}

/// The oracle checks after a phase: the flushed weight equals the acked
/// items, the final answers are within ε·n, and every range answer is
/// within ε·(covered weight) of the exact answer on its seq span.
fn final_checks(w: Workload, inputs: &Inputs, c: &mut Client, out: &LoopOut, check: &mut Check) {
    let preload: u64 = inputs.preload.iter().map(|b| b.len() as u64).sum();
    let expected = preload + out.acked_items;
    match c.metrics() {
        Ok(m) if m.snapshot_weight == expected => {}
        Ok(m) => check.fail(format!(
            "flushed snapshot weight {} != acked items {expected}",
            m.snapshot_weight
        )),
        Err(e) => check.fail(format!("metrics: {e}")),
    }
    let n = expected;
    if w.kind() == SummaryKind::Mg {
        let mut counts = Counts::new();
        for (pool, acked) in inputs.pools.iter().zip(out_pools(out, inputs)) {
            for (b, &times) in pool.iter().zip(&acked) {
                counts.add(b, times);
            }
        }
        let keys = inputs.keys.iter().take(200).copied().chain(1..=20);
        for x in keys {
            match c.call(&Request::Point(x)) {
                Ok(Response::Count(est)) => check.point(x, est, counts.get(x), EPS, n),
                other => check.fail(format!("final point({x}): {other:?}")),
            }
        }
        match c.call(&Request::HeavyHitters(PHI)) {
            Ok(Response::Items(items)) => {
                let candidates = counts.above(PHI * n as f64);
                check.heavy_hitters(&items, &candidates, |x| counts.get(x), PHI, EPS, n);
            }
            other => check.fail(format!("final heavy hitters: {other:?}")),
        }
        return;
    }
    // range-read: the stream is the preload, then the trickle in order;
    // batch i carries cube seq i + 1.
    let trickle = &inputs.pools[0];
    let sent = out.acked.iter().take_while(|&&a| a == 1).count();
    if out.ingest_failed > 0 {
        check.fail("a trickle ingest failed: seqs no longer map to batches".to_string());
        return;
    }
    let stream: Vec<Vec<u64>> = inputs
        .preload
        .iter()
        .chain(&trickle[..sent])
        .cloned()
        .collect();
    let index = SeqIndex::new(&stream, PHI);
    let last = index.batches();
    for phi in QUANTILE_PHIS {
        match c.call(&Request::Quantile(phi)) {
            Ok(Response::Value(Some(v))) => check.quantile(
                phi,
                v,
                index.rank(v, 1, last, true),
                index.rank(v, 1, last, false),
                EPS,
                n,
            ),
            other => check.fail(format!("final quantile({phi}): {other:?}")),
        }
    }
    for &x in inputs.keys.iter().take(50) {
        match c.call(&Request::Rank(x)) {
            Ok(Response::Count(est)) => {
                let exact = index.rank(x, 1, last, true);
                check.note(est.abs_diff(exact) as f64 / (EPS * n as f64), || {
                    format!("final rank({x}) = {est}, exact {exact} of n {n}")
                });
            }
            other => check.fail(format!("final rank({x}): {other:?}")),
        }
    }
    for (request, answer) in &out.ranges {
        let meta = &answer.meta;
        let (a, b) = (meta.start_seq, meta.end_seq);
        if meta.segments_merged == 0 || a == 0 || b > last || a > b {
            check.fail(format!(
                "range {request:?} covered seqs {a}..={b} of {last}"
            ));
            continue;
        }
        let covered = index.weight(a, b);
        if meta.covered_weight != covered {
            check.fail(format!(
                "range {request:?} covered weight {} != exact {covered}",
                meta.covered_weight
            ));
            continue;
        }
        match request {
            Request::RangeQuantile { phi, .. } => match answer.value {
                Some(v) => check.quantile(
                    *phi,
                    v,
                    index.rank(v, a, b, true),
                    index.rank(v, a, b, false),
                    EPS,
                    covered,
                ),
                None => check.fail(format!("range {request:?} has no value")),
            },
            Request::RangeHeavyHitters { phi, .. } => check.heavy_hitters(
                &answer.items,
                &index.candidates,
                |x| index.count(x, a, b),
                *phi,
                EPS,
                covered,
            ),
            _ => {}
        }
    }
}

/// Times each batch of each pool was acknowledged.
fn out_pools(out: &LoopOut, inputs: &Inputs) -> Vec<Vec<u64>> {
    // Each connection's loop recorded its own pool; merged outputs keep
    // them in connection order.
    let mut rest = out.acked.as_slice();
    inputs
        .pools
        .iter()
        .map(|p| {
            let (mine, tail) = rest.split_at(p.len());
            rest = tail;
            mine.to_vec()
        })
        .collect()
}
