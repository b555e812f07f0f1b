//! Loopback end-to-end benchmark of the mergeable-summaries service.
//!
//! One command starts a real `Server` on 127.0.0.1 inside this process,
//! drives it from two client connections, checks every answer against
//! exact oracles, and prints each metric with its unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest-mem --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload once untraced and once traced, for half of `--seconds` each,
//! and reports the per-layer metrics. `--smoke` runs every workload in both modes at tiny sizes and
//! checks that every metric `BENCHMARK.json` names is emitted with its
//! unit and that the answer checks pass. The last line of standard output
//! is the result as one JSON object; the full record (with run metadata
//! and sample counts) goes to `.bench_out/`.

mod alloc;
mod input;
mod json;
mod layers;
mod load;
mod phase;
mod replay;
mod report;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use phase::{Inputs, Phase, SetupOpts, Sizes, Workload};
use report::{median, ratio, Outcome};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const OUT_DIR: &str = ".bench_out";
const TMP_DIR: &str = ".bench_tmp";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got '{v}'")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload is required (ingest-mem, durable-cube, range-read)".to_string());
    }
    Ok(args)
}

/// A per-run scratch directory (durable data directories, replay
/// stores), removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = Path::new(TMP_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(TMP_DIR);
    }
}

/// The commit the checkout was made from, read from `.git` when there is
/// one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("unknown")
        .to_string()
}

fn metadata(o: &mut Outcome, w: Workload, seed: u64, secs: f64, trace: bool) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    o.fact("workload", w.name());
    o.fact("seed", seed);
    o.fact("seconds", secs);
    o.fact("trace", trace as u8);
    o.fact("host_cpus", cpus);
    o.fact("isa", ms_core::simd::active_isa().label());
    o.fact("git_commit", git_commit());
    o.fact("params", w.describe());
}

/// A latency percentile and its sample count: with fewer than ten samples
/// beyond it the run fails instead of reporting it.
fn pct(o: &mut Outcome, name: &str, values: &[f64], q: f64, strict: bool) -> Result<f64, String> {
    let p = report::percentile(values, q);
    if p.beyond < 10 && strict {
        return Err(format!(
            "{name}: only {} samples beyond the percentile ({} in all); need at least 10",
            p.beyond, p.n
        ));
    }
    o.fact(&format!("{name}.n"), p.n);
    Ok(p.value)
}

fn account(o: &mut Outcome, p: &Phase) {
    o.attempted += p.out.attempted;
    o.failed += p.out.failed;
    o.violations.extend(p.check.violations.iter().cloned());
    o.violations.extend(p.out.errors.iter().cloned());
}

/// `--trace 0`: the timed phase runs in rounds, each on a freshly set-up
/// server. `setup_s` is the median over all set-ups. Every metric except
/// it and `rss_growth_mb` is taken over the 200 ms slices of the timed
/// windows in which the machine gave the least CPU time to anything but
/// this process (host steal from `/proc/stat`, other processes): on a
/// shared host that time otherwise moves every number far more than any
/// code change under test. What interference is left in a kept slice is
/// taken out of its length and of the latency of every request answered
/// in it, as a share (a slice that lost 10% of the CPU time counts 90% of
/// its length). Rates are what was answered in the kept slices over
/// their length, latencies the percentile over the requests answered in
/// them; the run record also holds both as measured.
fn run_e2e(
    w: Workload,
    seed: u64,
    secs: f64,
    sizes: &Sizes,
    scratch: &Path,
) -> Result<Outcome, String> {
    let inputs = Inputs::generate(w, seed, secs, sizes);
    let opts = SetupOpts {
        traced: false,
        telemetry: true,
        conns: 2,
        preload: true,
        scratch,
    };
    let rounds = sizes.rounds(w);
    let round_secs = secs / rounds as f64;
    let mut o = Outcome::default();
    metadata(&mut o, w, seed, secs, false);
    o.correct = true;
    let mut setups = Vec::new();
    if inputs.preload.is_empty() {
        for _ in 0..sizes.extra_setups {
            let t = Instant::now();
            let env = phase::setup(w, &inputs, &opts)?;
            setups.push(t.elapsed().as_secs_f64());
            phase::teardown(env);
        }
    }
    // RSS growth is that of the first engine this process starts, from
    // after the inputs were generated to the end of its timed window:
    // later rounds reuse what the allocator kept from earlier ones.
    let rss0 = phase::rss_bytes();
    let mut rss_growth_mb = 0.0;
    let mut phases = Vec::new();
    for r in 0..rounds {
        let t = Instant::now();
        let mut env = phase::setup(w, &inputs, &opts)?;
        setups.push(t.elapsed().as_secs_f64());
        let p = phase::run_phase(
            w,
            &inputs,
            &mut env,
            sizes.warm_secs,
            round_secs,
            seed,
            sizes,
        );
        phase::teardown(env);
        o.correct &= p.check.ok();
        account(&mut o, &p);
        facts(&mut o, &format!("round{r}"), &p);
        o.fact(
            &format!("round{r}.all_slices"),
            format!(
                "updates/s {:.0} ingest p50 {:.1} us query p50 {:.1} us queries/s {:.1}",
                p.out.timed_items as f64 / p.wall_s,
                report::percentile(&p.out.ingest_us, 0.5).value,
                report::percentile(&p.out.query_us, 0.5).value,
                p.out.timed_queries as f64 / p.wall_s,
            ),
        );
        if r == 0 {
            rss_growth_mb = (p.rss_end as f64 - rss0 as f64) / 1e6;
        }
        phases.push(p);
    }
    o.fact("setup_s.n", setups.len());
    o.metric("setup_s", median(&mut setups), "s");

    let levels: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.slices.iter().map(|s| s.interference))
        .collect();
    let limit = quiet_limit(&levels);
    let mut kept = Kept::default();
    for p in &phases {
        kept.add(p, limit);
    }
    o.fact("slices", levels.len());
    o.fact("slices.kept", kept.slices);
    o.fact("interference.limit", limit);
    o.fact("interference.mean", report::mean(levels.iter().copied()));
    o.fact(
        "interference.kept_mean",
        kept.interference / kept.slices.max(1) as f64,
    );
    let items = kept.ingest.len() as f64 * w.batch_len() as f64;
    let queries = kept.query.len() as f64;
    let strict = sizes.strict_tails;
    // An open loop's rate is the one it was set to send at, whatever the
    // interference: it is reported as measured.
    let secs = |open: bool| if open { kept.secs } else { kept.own_secs };
    o.fact("ingest_updates_per_s.measured", ratio(items, kept.secs));
    o.metric(
        "ingest_updates_per_s",
        ratio(items, secs(w.open_ingest())),
        "1/s",
    );
    for (name, samples) in [
        ("ingest_batch_p50_us", &kept.ingest),
        ("query_p50_us", &kept.query),
    ] {
        let measured: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let own: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let p50 = report::percentile(&measured, 0.5).value;
        o.fact(&format!("{name}.measured"), p50);
        let p50 = pct(&mut o, name, &own, 0.5, strict)?;
        o.metric(name, p50, "us");
    }
    o.fact("query_per_s.measured", ratio(queries, kept.secs));
    o.metric("query_per_s", ratio(queries, secs(w.open_queries())), "1/s");
    o.metric("rss_growth_mb", rss_growth_mb, "MB");
    Ok(o)
}

/// Slices with at most this share of CPU time going elsewhere are always
/// kept.
const QUIET: f64 = 0.05;

/// The most interference a kept slice may have: that of the quietest
/// third of `levels`, or `QUIET` if more are below it.
fn quiet_limit(levels: &[f64]) -> f64 {
    report::percentile(levels, 1.0 / 3.0).value.max(QUIET)
}

/// What the kept slices of the timed windows saw.
#[derive(Default)]
struct Kept {
    slices: usize,
    interference: f64,
    /// Their length as measured, and less the interference in each.
    secs: f64,
    own_secs: f64,
    /// The latency of each request answered in them, as measured and less
    /// the interference in the slice it was answered in.
    ingest: Vec<(f64, f64)>,
    query: Vec<(f64, f64)>,
}

impl Kept {
    /// Add the slices of `p` that, like the slice before them, had at
    /// most `limit` interference: requests held up by it are answered
    /// late in the next slice too.
    fn add(&mut self, p: &Phase, limit: f64) {
        let quiet: Vec<bool> = p.slices.iter().map(|s| s.interference <= limit).collect();
        let keep: Vec<bool> = (0..quiet.len())
            .map(|i| quiet[i] && (i == 0 || quiet[i - 1]))
            .collect();
        // The share of CPU time left to this process in the kept slice an
        // answer arrived in, if it arrived in one.
        let own = |t: f64| {
            let i = p.slices.partition_point(|s| s.end <= t);
            (i < p.slices.len() && p.slices[i].start <= t && keep[i])
                .then(|| 1.0 - p.slices[i].interference)
        };
        let timed = |done: &[f64], us: &[f64]| -> Vec<(f64, f64)> {
            done.iter()
                .zip(us)
                .filter_map(|(&t, &us)| own(t).map(|share| (us, us * share)))
                .collect()
        };
        self.ingest
            .extend(timed(&p.out.ingest_done, &p.out.ingest_us));
        self.query.extend(timed(&p.out.query_done, &p.out.query_us));
        for (s, _) in p.slices.iter().zip(&keep).filter(|(_, &k)| k) {
            self.slices += 1;
            self.secs += s.end - s.start;
            self.own_secs += (s.end - s.start) * (1.0 - s.interference);
            self.interference += s.interference;
        }
    }
}

/// Per-phase facts for the run record.
fn facts(o: &mut Outcome, label: &str, p: &Phase) {
    o.fact(&format!("{label}.wall_s"), p.wall_s);
    o.fact(
        &format!("{label}.failed_frac"),
        ratio(p.out.failed as f64, p.out.attempted as f64),
    );
    o.fact(&format!("{label}.open_loop_max_late_us"), p.out.max_late_us);
    o.fact(&format!("{label}.checked_answers"), p.check.checked);
    o.fact(&format!("{label}.err_ratio"), p.check.worst);
    o.fact(&format!("{label}.cpu_s"), p.cpu_s);
    o.fact(&format!("{label}.steal_s"), p.steal_s);
    o.fact(
        &format!("{label}.interference"),
        format!(
            "{:.3?}",
            p.slices.iter().map(|s| s.interference).collect::<Vec<_>>()
        ),
    );
}

/// `--trace 1`: an untraced and a traced run of the same workload, half
/// of `secs` each, the standalone layer replays, the merge comparison and
/// the telemetry pairs; reports the per-layer metrics.
fn run_traced(
    w: Workload,
    seed: u64,
    secs: f64,
    sizes: &Sizes,
    scratch: &Path,
) -> Result<Outcome, String> {
    let inputs = Inputs::generate(w, seed, secs, sizes);
    let phase_of = |traced: bool| -> Result<Phase, String> {
        let opts = SetupOpts {
            traced,
            telemetry: true,
            conns: 2,
            preload: true,
            scratch,
        };
        let mut env = phase::setup(w, &inputs, &opts)?;
        let p = phase::run_phase(
            w,
            &inputs,
            &mut env,
            sizes.warm_secs,
            secs / 2.0,
            seed,
            sizes,
        );
        phase::teardown(env);
        Ok(p)
    };
    let plain = phase_of(false)?;
    let traced = phase_of(true)?;
    let spans = Path::new(OUT_DIR).join(format!("spans-{}-seed{seed}.tsv", w.name()));
    trace::write_spans(&spans, &traced.out.spans, &traced.records)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;

    let pool = &inputs.pools[0];
    let replay = &pool[..sizes.replay_batches.min(pool.len())];
    let stream: Vec<u64> = pool.iter().flatten().copied().collect();
    let merge = replay::merge_comparison(&stream, sizes.merge_reps)?;
    let alone = layers::Standalone {
        route_us: replay::route_us(w, replay)?,
        cube_us: replay::cube_us(w, replay),
        store_us: replay::store_us(w, replay, &scratch.join("replay-store"))?,
        codec_us: replay::codec_us(replay)?,
        update_ns_per_item: replay::update_ns_per_item(w, replay),
        merge_fused_us: merge.fused_us,
        merge_seq_us: merge.seq_us,
        telemetry_pct: replay::telemetry_pairs(w, &inputs, sizes, scratch)?,
    };

    let mut o = Outcome::default();
    metadata(&mut o, w, seed, secs, true);
    o.correct = plain.check.ok() && traced.check.ok();
    account(&mut o, &plain);
    account(&mut o, &traced);
    layers::per_layer(w, &plain, &traced, &alone, &mut o);
    // End-to-end tails of the untraced run: on a shared 2-CPU host they
    // swing with scheduling far more than any bound allows, so they are
    // reported here, without a bound, rather than as end-to-end metrics.
    for (name, values) in [
        ("tail.ingest_batch_p99_us", &plain.out.ingest_us),
        ("tail.query_p99_us", &plain.out.query_us),
    ] {
        let v = pct(&mut o, name, values, 0.99, sizes.strict_tails)?;
        o.metric(name, v, "us");
    }
    facts(&mut o, "untraced", &plain);
    facts(&mut o, "traced", &traced);
    for (kind, fused, seq) in merge.per_family {
        o.fact(
            &format!("summary.merge_us.{}", kind.label()),
            format!("fused {fused:.2} seq {seq:.2}"),
        );
    }
    o.fact("spans_file", spans.display());
    o.fact("spans", traced.records.len());
    Ok(o)
}

fn run(w: Workload, seed: u64, secs: f64, trace: bool, sizes: &Sizes) -> Result<Outcome, String> {
    let scratch = Scratch::new()?;
    if trace {
        run_traced(w, seed, secs, sizes, &scratch.0)
    } else {
        run_e2e(w, seed, secs, sizes, &scratch.0)
    }
}

fn print_outcome(o: &Outcome) {
    for (k, v) in &o.facts {
        println!("# {k} = {v}");
    }
    for m in &o.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for v in &o.violations {
        println!("! {v}");
    }
}

fn write_record(o: &Outcome, w: Workload, seed: u64, trace: bool) {
    let path =
        Path::new(OUT_DIR).join(format!("{}-seed{seed}-trace{}.json", w.name(), trace as u8));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, o.record_json()));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// The metric names and units `BENCHMARK.json` declares for one mode.
fn declared(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(|v| v.as_arr())
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
            Ok((
                field("name").ok_or("metric without name")?,
                field("unit").ok_or("metric without unit")?,
            ))
        })
        .collect()
}

/// `--smoke`: every workload in both modes at tiny sizes.
fn smoke(seed: u64) -> bool {
    let sizes = Sizes::smoke();
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            let label = format!("{} trace={}", w.name(), trace as u8);
            let result = run(w, seed, 1.0, trace, &sizes).and_then(|o| {
                let want = declared(trace)?;
                let got: Vec<(String, String)> =
                    o.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
                let missing: Vec<_> = want.iter().filter(|m| !got.contains(m)).collect();
                let extra: Vec<_> = got.iter().filter(|m| !want.contains(m)).collect();
                if !missing.is_empty() || !extra.is_empty() {
                    return Err(format!("metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"));
                }
                if !o.correct {
                    return Err(format!("answer checks failed: {:?}", o.violations));
                }
                if o.failed > 0 {
                    return Err(format!("{} of {} operations failed: {:?}", o.failed, o.attempted, o.violations));
                }
                Ok(o.metrics.len())
            });
            match result {
                Ok(n) => println!("smoke {label}: ok ({n} metrics)"),
                Err(e) => {
                    println!("smoke {label}: FAILED: {e}");
                    ok = false;
                }
            }
        }
    }
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.smoke {
        std::process::exit(if smoke(args.seed) { 0 } else { 1 });
    }
    let w = args.workload.expect("checked by parse_args");
    match run(w, args.seed, args.seconds, args.trace, &Sizes::full()) {
        Ok(o) => {
            print_outcome(&o);
            write_record(&o, w, args.seed, args.trace);
            println!("{}", o.result_line());
            if !o.correct {
                eprintln!("error: answer checks failed");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
