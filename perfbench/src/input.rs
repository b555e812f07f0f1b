//! Seeded inputs and the exact oracles the answers are checked against.
//!
//! Every stream is Zipf(s = 1.1) over the universe `1..=2^20`, drawn from
//! `Rng64` seeded by the run's `--seed` and a per-stream tag, so the same
//! seed always yields the same batches. The server only ever sees these
//! batches.

use ms_core::Rng64;
use ms_workloads::Zipf;

/// Items are drawn from `1..=UNIVERSE`.
pub const UNIVERSE: u64 = 1 << 20;
/// Zipf exponent of every stream.
pub const ZIPF_S: f64 = 1.1;

fn rng(seed: u64, stream: u64) -> Rng64 {
    Rng64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` batches of `len` Zipf items from stream `stream` of `seed`.
pub fn zipf_batches(seed: u64, stream: u64, count: usize, len: usize) -> Vec<Vec<u64>> {
    let zipf = Zipf::new(UNIVERSE, ZIPF_S);
    let mut rng = rng(seed, stream);
    (0..count)
        .map(|_| (0..len).map(|_| zipf.sample(&mut rng)).collect())
        .collect()
}

/// Exact item counts over the dense universe.
pub struct Counts(Vec<u64>);

impl Counts {
    pub fn new() -> Counts {
        Counts(vec![0; UNIVERSE as usize + 1])
    }

    /// Add `times` copies of `batch`.
    pub fn add(&mut self, batch: &[u64], times: u64) {
        if times == 0 {
            return;
        }
        for &x in batch {
            self.0[x as usize] += times;
        }
    }

    pub fn get(&self, x: u64) -> u64 {
        self.0.get(x as usize).copied().unwrap_or(0)
    }

    /// Items whose count exceeds `threshold`.
    pub fn above(&self, threshold: f64) -> Vec<u64> {
        (0..self.0.len() as u64)
            .filter(|&x| self.0[x as usize] as f64 > threshold)
            .collect()
    }
}

/// Exact answers over any contiguous run of batches of one stream, where
/// batch `i` (0-based) carries the cube seq `i + 1`. Built once after the
/// timed phase; the engine never sees it.
pub struct SeqIndex {
    /// `weight_prefix[s]` = items in seqs `1..=s`.
    weight_prefix: Vec<u64>,
    /// Each batch sorted, for rank queries.
    sorted: Vec<Vec<u64>>,
    /// CSR inverted index: the seqs holding item `x` (one entry per
    /// occurrence, ascending) are `seqs[offsets[x]..offsets[x + 1]]`.
    offsets: Vec<u32>,
    seqs: Vec<u32>,
    /// Items above the `phi` share of at least one batch. An item above
    /// `phi` of a union of batches is above it in one of them, so these
    /// are the only possible heavy hitters of any seq range.
    pub candidates: Vec<u64>,
}

impl SeqIndex {
    pub fn new(batches: &[Vec<u64>], phi: f64) -> SeqIndex {
        let mut weight_prefix = Vec::with_capacity(batches.len() + 1);
        weight_prefix.push(0);
        let mut offsets = vec![0u32; UNIVERSE as usize + 2];
        for b in batches {
            weight_prefix.push(weight_prefix.last().unwrap() + b.len() as u64);
            for &x in b {
                offsets[x as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut fill = offsets.clone();
        let mut seqs = vec![0u32; *offsets.last().unwrap() as usize];
        let mut sorted = Vec::with_capacity(batches.len());
        let mut candidates = Vec::new();
        for (i, b) in batches.iter().enumerate() {
            for &x in b {
                seqs[fill[x as usize] as usize] = i as u32 + 1;
                fill[x as usize] += 1;
            }
            let mut s = b.clone();
            s.sort_unstable();
            let threshold = phi * s.len() as f64;
            for run in s.chunk_by(|a, b| a == b) {
                if run.len() as f64 > threshold {
                    candidates.push(run[0]);
                }
            }
            sorted.push(s);
        }
        candidates.sort_unstable();
        candidates.dedup();
        SeqIndex {
            weight_prefix,
            sorted,
            offsets,
            seqs,
            candidates,
        }
    }

    pub fn batches(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Items in seqs `a..=b`.
    pub fn weight(&self, a: u64, b: u64) -> u64 {
        self.weight_prefix[b as usize] - self.weight_prefix[a as usize - 1]
    }

    /// Occurrences of `x` in seqs `a..=b`.
    pub fn count(&self, x: u64, a: u64, b: u64) -> u64 {
        if x > UNIVERSE {
            return 0;
        }
        let run =
            &self.seqs[self.offsets[x as usize] as usize..self.offsets[x as usize + 1] as usize];
        let lo = run.partition_point(|&s| (s as u64) < a);
        let hi = run.partition_point(|&s| (s as u64) <= b);
        (hi - lo) as u64
    }

    /// Items in seqs `a..=b` strictly below `x` (`strict`) or at most `x`.
    pub fn rank(&self, x: u64, a: u64, b: u64, strict: bool) -> u64 {
        self.sorted[a as usize - 1..b as usize]
            .iter()
            .map(|s| {
                if strict {
                    s.partition_point(|&v| v < x)
                } else {
                    s.partition_point(|&v| v <= x)
                }
            })
            .sum::<usize>() as u64
    }
}

/// Worst error ratio seen over a set of answers, as a share of the ε·n
/// bound each answer carries (≤ 1 means within bound).
#[derive(Debug, Default)]
pub struct Check {
    pub worst: f64,
    pub checked: u64,
    pub violations: Vec<String>,
}

impl Check {
    pub fn note(&mut self, ratio: f64, what: impl FnOnce() -> String) {
        self.checked += 1;
        let ratio = if ratio.is_nan() { f64::MAX } else { ratio };
        self.worst = self.worst.max(ratio);
        if ratio > 1.0 && self.violations.len() < 8 {
            self.violations
                .push(format!("{} (ratio {ratio:.3})", what()));
        }
    }

    /// A hard failure that has no ratio (a wrong total, a missing answer).
    pub fn fail(&mut self, what: String) {
        self.checked += 1;
        self.worst = f64::MAX;
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    pub fn ok(&self) -> bool {
        self.worst <= 1.0
    }

    /// Point estimate `est` of an item with exact count `f` over `n` items.
    pub fn point(&mut self, x: u64, est: u64, f: u64, eps: f64, n: u64) {
        let ratio = est.abs_diff(f) as f64 / (eps * n as f64);
        self.note(ratio, || format!("point({x}) = {est}, exact {f}, n {n}"));
    }

    /// Heavy hitters at threshold `phi`: every reported estimate is within
    /// ε·n of the exact count (the ratio), and, as pass/fail checks, no
    /// reported item is below (φ − ε)·n and every candidate above φ·n is
    /// reported.
    pub fn heavy_hitters(
        &mut self,
        reported: &[(u64, u64)],
        candidates: &[u64],
        exact: impl Fn(u64) -> u64,
        phi: f64,
        eps: f64,
        n: u64,
    ) {
        let (eps_n, phi_n) = (eps * n as f64, phi * n as f64);
        for &(x, est) in reported {
            let f = exact(x);
            self.point(x, est, f, eps, n);
            if (f as f64) < phi_n - eps_n {
                self.fail(format!("reported heavy hitter {x} has exact {f} of n {n}"));
            }
        }
        for &x in candidates {
            let f = exact(x);
            if f as f64 > phi_n && !reported.iter().any(|&(y, _)| y == x) {
                self.fail(format!(
                    "heavy hitter {x} (exact {f} of n {n}) not reported"
                ));
            }
        }
    }

    /// Quantile `v` for `phi` given the exact ranks of `v` (strict and
    /// inclusive): φ·n must lie within ε·n of `[rank_lt, rank_le]`.
    pub fn quantile(&mut self, phi: f64, v: u64, rank_lt: u64, rank_le: u64, eps: f64, n: u64) {
        let target = phi * n as f64;
        let off = (rank_lt as f64 - target)
            .max(target - rank_le as f64)
            .max(0.0);
        self.note(off / (eps * n as f64), || {
            format!("quantile({phi}) = {v}, exact ranks [{rank_lt}, {rank_le}] of n {n}")
        });
    }
}
