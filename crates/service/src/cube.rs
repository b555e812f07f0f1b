//! The segment cube: time-segmented ingest answering range queries.
//!
//! The paper's mergeability guarantee (Definition 1) says a summary of a
//! union can be built from summaries of the parts at the same eps·n
//! bound. The cube exploits that in the time dimension: ingest is
//! partitioned into *segments* (sealed on a batch-count or wall-clock
//! boundary), each sealed segment carries one precomputed summary per
//! family, and an arbitrary time window is answered by one-shot merging
//! the covering segments — error stays eps·(window weight), not
//! eps·(total stream).
//!
//! Concurrency contract: a durable engine appends each batch to the WAL
//! first, through group commit and outside the cube lock, so concurrent
//! writers share one fsync. It then hands the batch to
//! [`SegmentCube::record_at`] with the WAL seq it got back — the same
//! entry point WAL replay uses. Under the cube lock that call waits on a
//! turnstile (a condvar) until every lower seq is recorded, so batches
//! fold in WAL order: segments keep contiguous seq spans, recovery aligns
//! them against WAL records by seq alone, and a batch is visible to range
//! queries before its writer acks. A writer advances the turnstile
//! before it folds, so a fold that panics never wedges later seqs.
//! Engines without a WAL take seqs from the cube ([`SegmentCube::record`]).
//!
//! Crash safety: sealed segments reach [`ms_store::SegmentStore`] in seal
//! order through [`SegmentCube::persist`]; the WAL is never pruned past
//! the last segment that is durable along with every segment sealed
//! before it ([`SegmentCube::persisted_floor`]), so any segment lost
//! between seal and fsync is rebuilt by replaying the WAL tail through
//! [`SegmentCube::record_at`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use ms_core::{Wire, WireError};
use ms_store::SegmentRecord;

use crate::config::{SegmentConfig, ServiceConfig, SummaryKind};
use crate::protocol::{RangeMeta, SegmentMeta, SegmentReport};
use crate::summary::ShardSummary;

/// Lock that survives a poisoned mutex (a panicking summary must not
/// wedge every later query).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Index of `kind`'s summary in a segment's family array
/// (`SummaryKind::all()` order, also the on-disk order).
fn family_index(kind: SummaryKind) -> usize {
    match kind {
        SummaryKind::Mg => 0,
        SummaryKind::SpaceSaving => 1,
        SummaryKind::HybridQuantile => 2,
        SummaryKind::CountMin => 3,
    }
}

/// What recording one batch did to the cube.
#[derive(Debug, Default)]
pub struct CubeOutcome {
    /// Seq assigned to the batch (equals the WAL seq; see module doc).
    pub seq: u64,
    /// Segments sealed or re-coarsened by this batch. The caller
    /// persists these (a coarsened segment re-persists under its
    /// surviving id, atomically replacing the finer record).
    pub sealed: Vec<SegmentRecord>,
    /// Segment ids whose files can go: evicted past `max_sealed`, or
    /// absorbed into a coarser neighbor.
    pub evicted: Vec<u64>,
    /// Pairwise coarsening merges performed while sealing (pressure
    /// crossed `coarsen_watermark`).
    pub coarsened: u64,
    /// Position of this outcome in seal order (1-based; 0 when it has
    /// nothing to persist). Outcomes must reach disk in ticket order: a
    /// later one may rewrite a segment id an earlier one wrote.
    pub ticket: u64,
    /// End seq of the newest sealed segment after this outcome: the
    /// persisted floor once this outcome and every earlier ticket are on
    /// disk ([`SegmentCube::persist`]).
    pub floor: u64,
}

/// What adopting recovered segment records did.
#[derive(Debug, Default)]
pub struct AdoptOutcome {
    /// Records reconstructed into queryable sealed segments.
    pub adopted: usize,
    /// Records dropped (undecodable summary — version skew; everything
    /// after the first bad one goes too, preserving contiguity).
    pub dropped: usize,
    /// Segment ids evicted past `max_sealed` during adoption.
    pub evicted: Vec<u64>,
    /// Human-readable notes about drops.
    pub notes: Vec<String>,
}

/// Point-in-time cube health gauges, rendered into the Prometheus
/// exposition by [`crate::Engine::telemetry_snapshot`]: how much sealed
/// precomputation exists, and how stale/heavy the open segment is. A
/// fast-growing `open_age_micros` under a wall-clock seal policy means
/// sealing has stalled; `open_weight` bounds how much of a range answer
/// comes from the unsealed (still-moving) segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CubeHealth {
    /// Sealed segments currently queryable.
    pub sealed: u64,
    /// Age of the open segment (micros since it opened; 0 when none).
    pub open_age_micros: u64,
    /// Item weight accumulated in the open segment (0 when none).
    pub open_weight: u64,
    /// Deepest coarsening tier among resident sealed segments (0 when
    /// pressure never forced a merge).
    pub max_tier: u64,
}

/// One segment: its coordinates plus a live summary per family.
struct Segment {
    id: u64,
    start_seq: u64,
    end_seq: u64,
    start_micros: u64,
    end_micros: u64,
    weight: u64,
    batches: u64,
    /// Coarsening tier: 0 as sealed, `max(a,b)+1` after a pressure merge.
    tier: u64,
    fams: [ShardSummary; 4],
}

impl Segment {
    fn meta(&self, sealed: bool) -> SegmentMeta {
        SegmentMeta {
            id: self.id,
            start_seq: self.start_seq,
            end_seq: self.end_seq,
            start_micros: self.start_micros,
            end_micros: self.end_micros,
            weight: self.weight,
            batches: self.batches,
            sealed,
            tier: self.tier,
        }
    }

    fn to_record(&self) -> SegmentRecord {
        SegmentRecord {
            id: self.id,
            start_seq: self.start_seq,
            end_seq: self.end_seq,
            start_micros: self.start_micros,
            end_micros: self.end_micros,
            weight: self.weight,
            batches: self.batches,
            tier: self.tier,
            summaries: self.fams.iter().map(|f| f.encode()).collect(),
        }
    }

    /// Drop the families' scratch buffers and derived state once the
    /// segment stops taking updates (see [`ShardSummary::compact`]).
    fn compact(&mut self) {
        for fam in self.fams.iter_mut() {
            fam.compact();
        }
    }

    /// Absorb the adjacent *later* segment `next` into this one: spans
    /// and weights union, families one-shot merge (Definition 1 — the
    /// merged summary covers the union at the same eps·n bound), tier
    /// deepens.
    fn absorb(&mut self, next: Segment) {
        debug_assert_eq!(next.start_seq, self.end_seq + 1, "coarsen only adjacent");
        self.end_seq = next.end_seq;
        self.end_micros = next.end_micros;
        self.weight += next.weight;
        self.batches += next.batches;
        self.tier = self.tier.max(next.tier) + 1;
        for (mine, theirs) in self.fams.iter_mut().zip(next.fams) {
            mine.merge_in_place(theirs)
                .expect("same-family segment summaries always merge");
        }
    }

    fn from_record(rec: &SegmentRecord) -> Result<Segment, WireError> {
        if rec.summaries.len() != SummaryKind::all().len() {
            return Err(WireError::Malformed("segment record family count"));
        }
        let mut fams = Vec::with_capacity(rec.summaries.len());
        for (bytes, kind) in rec.summaries.iter().zip(SummaryKind::all()) {
            let fam = ShardSummary::decode(bytes)?;
            if fam.kind() != kind {
                return Err(WireError::Malformed("segment family out of order"));
            }
            fams.push(fam);
        }
        let fams: [ShardSummary; 4] = fams
            .try_into()
            .map_err(|_| WireError::Malformed("segment record family count"))?;
        Ok(Segment {
            id: rec.id,
            start_seq: rec.start_seq,
            end_seq: rec.end_seq,
            start_micros: rec.start_micros,
            end_micros: rec.end_micros,
            weight: rec.weight,
            batches: rec.batches,
            tier: rec.tier,
            fams,
        })
    }
}

struct CubeState {
    /// Highest batch seq recorded (== WAL last seq while running).
    last_seq: u64,
    /// Monotone clamp over the injected clock: segment times never
    /// regress even if the clock does.
    last_micros: u64,
    /// Id the next opened segment gets.
    next_id: u64,
    open: Option<Segment>,
    sealed: VecDeque<Segment>,
    /// Tickets handed to outcomes that sealed something.
    tickets: u64,
}

/// Sealing outcomes on their way to disk, in ticket order.
struct PersistQueue {
    /// Ticket of the next outcome to write.
    next: u64,
    /// Outcomes handed in ahead of `next`.
    ready: BTreeMap<u64, CubeOutcome>,
}

/// The engine's segment cube. All methods are `&self`; internal state
/// is one mutex with its turnstile condvar, plus the persist queue behind
/// the persisted-floor atomic.
pub struct SegmentCube {
    epsilon: f64,
    seed: u64,
    cfg: SegmentConfig,
    state: Mutex<CubeState>,
    /// Signalled whenever `last_seq` advances; writers holding a later
    /// seq wait on it for their turn.
    turn: Condvar,
    persist: Mutex<PersistQueue>,
    /// End seq of the newest segment durable on disk together with every
    /// segment sealed before it; the WAL must never be pruned past it
    /// (0 = no segment persisted, keep everything).
    persisted_floor: AtomicU64,
}

impl SegmentCube {
    /// An empty cube. `epsilon`/`seed` size the per-segment families —
    /// they must match the engine's so per-segment linear sketches stay
    /// mergeable across nodes.
    pub fn new(epsilon: f64, seed: u64, cfg: SegmentConfig) -> SegmentCube {
        SegmentCube {
            epsilon,
            seed,
            cfg,
            state: Mutex::new(CubeState {
                last_seq: 0,
                last_micros: 0,
                next_id: 0,
                open: None,
                sealed: VecDeque::new(),
                tickets: 0,
            }),
            turn: Condvar::new(),
            persist: Mutex::new(PersistQueue {
                next: 1,
                ready: BTreeMap::new(),
            }),
            persisted_floor: AtomicU64::new(0),
        }
    }

    fn fresh_fams(&self) -> [ShardSummary; 4] {
        SummaryKind::all().map(|kind| {
            ShardSummary::new(&ServiceConfig::new(kind, self.epsilon).seed(self.seed), 0)
        })
    }

    /// Read the clock, clamped monotone against everything recorded.
    fn now(&self, s: &mut CubeState) -> u64 {
        let now = self.cfg.clock.now_micros().max(s.last_micros);
        s.last_micros = now;
        now
    }

    fn seal(&self, s: &mut CubeState, out: &mut CubeOutcome) {
        if let Some(mut seg) = s.open.take() {
            out.sealed.push(seg.to_record());
            out.floor = seg.end_seq;
            seg.compact();
            s.sealed.push_back(seg);
            self.coarsen(s, out);
            while s.sealed.len() > self.cfg.max_sealed {
                let old = s.sealed.pop_front().expect("non-empty past cap");
                out.evicted.push(old.id);
            }
        }
    }

    /// Pressure-driven coarsening: while the sealed count exceeds the
    /// watermark, merge one adjacent pair into a coarser tier. The pair
    /// chosen is the one whose coarser member has the *lowest* tier
    /// (oldest such pair on ties) — the binary-counter shape LSM trees
    /// use, which keeps the deepest tier logarithmic in the number of
    /// seals instead of linear. Each merge is a Definition-1 one-shot
    /// merge, so range answers over the coarser segment keep the eps·n
    /// bound on its (admitted) weight — the window just snaps outward to
    /// coarser boundaries.
    fn coarsen(&self, s: &mut CubeState, out: &mut CubeOutcome) {
        if self.cfg.coarsen_watermark == 0 {
            return;
        }
        while s.sealed.len() > self.cfg.coarsen_watermark && s.sealed.len() >= 2 {
            let i = (0..s.sealed.len() - 1)
                .min_by_key(|&i| s.sealed[i].tier.max(s.sealed[i + 1].tier))
                .expect("at least one adjacent pair");
            let next = s.sealed.remove(i + 1).expect("index in bounds");
            out.evicted.push(next.id);
            let survivor = &mut s.sealed[i];
            survivor.absorb(next);
            out.sealed.push(survivor.to_record());
            survivor.compact();
            out.coarsened += 1;
        }
        // A record both written and absorbed this call need not be
        // written at all, and only the last version per id matters.
        let evicted = &out.evicted;
        out.sealed.retain(|r| !evicted.contains(&r.id));
        let mut i = 0;
        while i < out.sealed.len() {
            if out.sealed[i + 1..].iter().any(|r| r.id == out.sealed[i].id) {
                out.sealed.remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn fold(&self, s: &mut CubeState, seq: u64, now: u64, batch: &[u64]) -> CubeOutcome {
        let mut out = CubeOutcome {
            seq,
            ..CubeOutcome::default()
        };
        // Wall-clock boundary first: an aged open segment seals *before*
        // this batch, which then opens the next segment.
        if s.open
            .as_ref()
            .is_some_and(|o| now.saturating_sub(o.start_micros) >= self.cfg.seal_micros)
        {
            self.seal(s, &mut out);
        }
        if s.open.is_none() {
            let seg = Segment {
                id: s.next_id,
                start_seq: seq,
                end_seq: seq,
                start_micros: now,
                end_micros: now,
                weight: 0,
                batches: 0,
                tier: 0,
                fams: self.fresh_fams(),
            };
            s.next_id += 1;
            s.open = Some(seg);
        }
        let open = s.open.as_mut().expect("open segment just ensured");
        open.end_seq = seq;
        open.end_micros = now;
        open.batches += 1;
        open.weight += batch.len() as u64;
        // Family-major: each family's state depends only on its own item
        // order, so this matches an item-by-item fold byte for byte.
        for fam in open.fams.iter_mut() {
            fam.update_batch(batch);
        }
        if open.batches >= self.cfg.seal_batches {
            self.seal(s, &mut out);
        }
        if !out.sealed.is_empty() || !out.evicted.is_empty() {
            s.tickets += 1;
            out.ticket = s.tickets;
        }
        out
    }

    /// Fold `batch` at `seq`, which must be the next seq. The turnstile
    /// advances before the fold runs, so a panicking fold still lets
    /// later seqs through.
    fn apply(&self, mut s: MutexGuard<'_, CubeState>, seq: u64, batch: &[u64]) -> CubeOutcome {
        s.last_seq = seq;
        self.turn.notify_all();
        let now = self.now(&mut s);
        self.fold(&mut s, seq, now, batch)
    }

    /// Record one batch at its WAL seq: live ingest (after the WAL
    /// append) and recovery replay both come through here. Waits until
    /// every lower seq is recorded, so batches fold in seq order; seqs
    /// at or below the cube's last seq are already covered and ignored.
    /// Seqs that will never be recorded (records recovery skipped) must
    /// be stepped over with [`SegmentCube::skip_to`] or this waits
    /// forever.
    pub fn record_at(&self, seq: u64, batch: &[u64]) -> CubeOutcome {
        let mut s = lock(&self.state);
        while seq > s.last_seq + 1 {
            s = self.turn.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        if seq <= s.last_seq {
            return CubeOutcome::default();
        }
        self.apply(s, seq, batch)
    }

    /// Record one batch at the cube's own next seq: engines without a
    /// WAL, where nothing else numbers batches.
    pub fn record(&self, batch: &[u64]) -> CubeOutcome {
        let s = lock(&self.state);
        let seq = s.last_seq + 1;
        self.apply(s, seq, batch)
    }

    /// Run `append`, then [`SegmentCube::record`] the batch; nothing is
    /// recorded when `append` fails. `append` runs outside the cube lock
    /// and the seq is the cube's own, so this only suits callers without
    /// a WAL (the standalone perfbench replay of the cube fold). Durable
    /// engines use [`SegmentCube::record_at`].
    pub fn record_with<E>(
        &self,
        batch: &[u64],
        append: impl FnOnce() -> Result<(), E>,
    ) -> Result<CubeOutcome, E> {
        append()?;
        Ok(self.record(batch))
    }

    /// Mark every seq up to `seq` as recorded without folding anything:
    /// recovery steps over WAL records it skipped, and aligns the cube
    /// with the WAL's last seq before live ingest resumes. A no-op at or
    /// below the cube's last seq.
    pub fn skip_to(&self, seq: u64) {
        let mut s = lock(&self.state);
        if seq > s.last_seq {
            s.last_seq = seq;
            self.turn.notify_all();
        }
    }

    /// Adopt sealed segments recovered from disk (called once at
    /// startup, before any replay). Stops at the first record whose
    /// summaries do not decode, preserving contiguity; the rest is
    /// rebuilt from the WAL.
    pub fn adopt(&self, records: &[SegmentRecord]) -> AdoptOutcome {
        let mut s = lock(&self.state);
        let mut out = AdoptOutcome::default();
        for rec in records {
            match Segment::from_record(rec) {
                Ok(seg) => {
                    s.last_seq = seg.end_seq;
                    s.last_micros = s.last_micros.max(seg.end_micros);
                    s.next_id = seg.id + 1;
                    s.sealed.push_back(seg);
                    out.adopted += 1;
                }
                Err(why) => {
                    out.dropped = records.len() - out.adopted;
                    out.notes.push(format!(
                        "segment {}: summaries undecodable ({why}); it and {} later \
                         segment(s) rebuilt from the WAL",
                        rec.id,
                        out.dropped - 1
                    ));
                    break;
                }
            }
        }
        while s.sealed.len() > self.cfg.max_sealed {
            let old = s.sealed.pop_front().expect("non-empty past cap");
            out.evicted.push(old.id);
        }
        self.persisted_floor.store(s.last_seq, Ordering::Release);
        out
    }

    /// Persist a sealing outcome: `write` puts its sealed records on disk
    /// and deletes its evicted ids. Outcomes are written strictly in
    /// ticket order — a later one may rewrite a segment id an earlier one
    /// wrote — so one handed in ahead of its predecessor waits here and is
    /// written by the predecessor's caller. The persisted floor advances
    /// after each write, so only across contiguous tickets: a later
    /// segment on disk never vouches for an earlier one still in flight.
    /// A failed write stays first in line for the next caller to retry.
    pub fn persist<E>(
        &self,
        out: CubeOutcome,
        mut write: impl FnMut(&CubeOutcome) -> Result<(), E>,
    ) -> Result<(), E> {
        if out.ticket == 0 {
            return Ok(());
        }
        let mut guard = lock(&self.persist);
        let queue = &mut *guard;
        queue.ready.insert(out.ticket, out);
        while let Some(out) = queue.ready.remove(&queue.next) {
            if let Err(e) = write(&out) {
                queue.ready.insert(out.ticket, out);
                return Err(e);
            }
            queue.next += 1;
            self.persisted_floor.fetch_max(out.floor, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Highest batch seq covered by segments known durable on disk with
    /// no gap below them. WAL pruning must stay at or below this.
    pub fn persisted_floor(&self) -> u64 {
        self.persisted_floor.load(Ordering::Acquire)
    }

    /// Highest batch seq the cube has recorded.
    pub fn last_seq(&self) -> u64 {
        lock(&self.state).last_seq
    }

    /// Answer a time-window query from `kind`'s family: merge the
    /// summaries of every segment intersecting `[start, end]` micros
    /// (inclusive; the open segment included live). Returns `None` when
    /// no segment intersects. Segment times are monotone, so the
    /// covering set is the minimal contiguous run of segments whose
    /// spans intersect the window — exactly the segments whose batches
    /// a per-range oracle must replay.
    pub fn query(
        &self,
        start_micros: u64,
        end_micros: u64,
        kind: SummaryKind,
    ) -> (RangeMeta, Option<ShardSummary>) {
        let idx = family_index(kind);
        let s = lock(&self.state);
        let mut meta = RangeMeta {
            start_micros,
            end_micros,
            segments_merged: 0,
            open_included: false,
            covered_weight: 0,
            start_seq: 0,
            end_seq: 0,
        };
        let mut merged: Option<ShardSummary> = None;
        let all = s
            .sealed
            .iter()
            .map(|seg| (seg, false))
            .chain(s.open.iter().map(|seg| (seg, true)));
        for (seg, open) in all {
            if seg.batches == 0 || seg.start_micros > end_micros || seg.end_micros < start_micros {
                continue;
            }
            meta.segments_merged += 1;
            meta.open_included |= open;
            meta.covered_weight += seg.weight;
            if meta.segments_merged == 1 {
                meta.start_seq = seg.start_seq;
            }
            meta.end_seq = seg.end_seq;
            let part = seg.fams[idx].clone();
            merged = Some(match merged.take() {
                None => part,
                Some(mut acc) => {
                    acc.merge_in_place(part)
                        .expect("same-family segment summaries always merge");
                    acc
                }
            });
        }
        (meta, merged)
    }

    /// Current health gauges (sealed count, open-segment age/weight),
    /// read against the same monotone-clamped clock that stamps
    /// segments.
    pub fn health(&self) -> CubeHealth {
        let mut s = lock(&self.state);
        let now = self.now(&mut s);
        let (open_age_micros, open_weight) = match &s.open {
            Some(seg) => (now.saturating_sub(seg.start_micros), seg.weight),
            None => (0, 0),
        };
        CubeHealth {
            sealed: s.sealed.len() as u64,
            open_age_micros,
            open_weight,
            max_tier: s.sealed.iter().map(|seg| seg.tier).max().unwrap_or(0),
        }
    }

    /// The cube's index: sealed segments in id order, then the open one.
    pub fn report(&self) -> SegmentReport {
        let mut s = lock(&self.state);
        let now = self.now(&mut s);
        let mut segments: Vec<SegmentMeta> = s.sealed.iter().map(|seg| seg.meta(true)).collect();
        segments.extend(s.open.iter().map(|seg| seg.meta(false)));
        SegmentReport {
            now_micros: now,
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ManualClock;
    use ms_core::Summary;
    use std::sync::Arc;

    const EPS: f64 = 0.02;

    fn cube(cfg: SegmentConfig) -> SegmentCube {
        SegmentCube::new(EPS, 42, cfg)
    }

    fn ok(cube: &SegmentCube, batch: &[u64]) -> CubeOutcome {
        cube.record(batch)
    }

    #[test]
    fn count_boundary_seals_and_seqs_are_dense() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(2)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut sealed = Vec::new();
        for i in 0..5u64 {
            let out = ok(&c, &[i, i, i]);
            assert_eq!(out.seq, i + 1);
            sealed.extend(out.sealed);
        }
        // 5 batches at 2/segment: segments [1,2] and [3,4] sealed, batch 5 open.
        assert_eq!(sealed.len(), 2);
        assert_eq!((sealed[0].start_seq, sealed[0].end_seq), (1, 2));
        assert_eq!((sealed[1].start_seq, sealed[1].end_seq), (3, 4));
        assert_eq!(sealed[1].id, 1);
        assert_eq!(sealed[0].weight, 6);
        let report = c.report();
        assert_eq!(report.segments.len(), 3);
        assert!(!report.segments[2].sealed);
        assert_eq!(report.segments[2].start_seq, 5);
    }

    #[test]
    fn wall_clock_boundary_seals_via_injected_clock() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(
            SegmentConfig::new()
                .seal_batches(u64::MAX)
                .seal_micros(1_000)
                .clock(clock.clone()),
        );
        assert!(ok(&c, &[1]).sealed.is_empty());
        clock.advance(999);
        assert!(ok(&c, &[2]).sealed.is_empty(), "window not yet spanned");
        clock.advance(1);
        let out = ok(&c, &[3]);
        // The aged segment seals *before* batch 3, which opens segment 1.
        assert_eq!(out.sealed.len(), 1);
        assert_eq!((out.sealed[0].start_seq, out.sealed[0].end_seq), (1, 2));
        let report = c.report();
        assert_eq!(report.segments.last().unwrap().start_seq, 3);
    }

    #[test]
    fn clock_regression_is_clamped() {
        let clock = Arc::new(ManualClock::new(500));
        let c = cube(SegmentConfig::new().clock(clock.clone()));
        ok(&c, &[1]);
        clock.set(100);
        ok(&c, &[2]);
        let report = c.report();
        assert_eq!(report.segments[0].start_micros, 500);
        assert_eq!(report.segments[0].end_micros, 500, "never regresses");
        assert!(report.now_micros >= 500);
    }

    #[test]
    fn eviction_past_cap_reports_ids() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .max_sealed(2)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut evicted = Vec::new();
        for i in 0..5u64 {
            evicted.extend(ok(&c, &[i]).evicted);
        }
        assert_eq!(evicted, vec![0, 1, 2]);
        assert_eq!(c.report().segments.len(), 2);
    }

    #[test]
    fn query_merges_covering_segments_with_exact_weight() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(SegmentConfig::new().seal_batches(2).clock(clock.clone()));
        // Segment 0 at t=[0,10], segment 1 at t=[20,30], open at t=40.
        ok(&c, &[1, 1]);
        clock.set(10);
        ok(&c, &[2, 2]);
        clock.set(20);
        ok(&c, &[3, 3]);
        clock.set(30);
        ok(&c, &[4, 4]);
        clock.set(40);
        ok(&c, &[5, 5]);

        let (meta, merged) = c.query(15, 35, SummaryKind::Mg);
        assert_eq!(meta.segments_merged, 1);
        assert!(!meta.open_included);
        assert_eq!(meta.covered_weight, 4);
        assert_eq!((meta.start_seq, meta.end_seq), (3, 4));
        let hh = merged.unwrap().heavy_hitters(0.3).unwrap();
        assert!(hh.iter().any(|&(item, _)| item == 3));

        let (meta, merged) = c.query(5, u64::MAX, SummaryKind::HybridQuantile);
        assert_eq!(meta.segments_merged, 3);
        assert!(meta.open_included);
        assert_eq!(meta.covered_weight, 10);
        assert!(merged.unwrap().quantile(0.5).unwrap().is_some());

        let (meta, merged) = c.query(100, 200, SummaryKind::Mg);
        assert_eq!(meta.segments_merged, 0);
        assert!(merged.is_none());
        assert_eq!(meta.covered_weight, 0);
    }

    #[test]
    fn replay_reproduces_the_same_segments() {
        let live = cube(
            SegmentConfig::new()
                .seal_batches(3)
                .clock(Arc::new(ManualClock::new(7))),
        );
        let replayed = cube(
            SegmentConfig::new()
                .seal_batches(3)
                .clock(Arc::new(ManualClock::new(7))),
        );
        let batches: Vec<Vec<u64>> = (0..10u64).map(|i| vec![i % 4; 5]).collect();
        for (i, b) in batches.iter().enumerate() {
            ok(&live, b);
            replayed.record_at(i as u64 + 1, b);
        }
        let (a, b) = (live.report(), replayed.report());
        assert_eq!(a.segments, b.segments);
        assert_eq!(live.last_seq(), replayed.last_seq());
    }

    #[test]
    fn adopt_restores_counters_and_floor() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(SegmentConfig::new().seal_batches(2).clock(clock.clone()));
        let mut sealed = Vec::new();
        for i in 0..6u64 {
            clock.advance(5);
            sealed.extend(ok(&c, &[i; 4]).sealed);
        }
        assert_eq!(sealed.len(), 3);

        let fresh = cube(SegmentConfig::new().seal_batches(2).clock(clock.clone()));
        let out = fresh.adopt(&sealed);
        assert_eq!(out.adopted, 3);
        assert_eq!(out.dropped, 0);
        assert_eq!(fresh.last_seq(), 6);
        assert_eq!(fresh.persisted_floor(), 6);
        // Continue ingesting: the next segment gets the next dense id.
        let out = ok(&fresh, &[9]);
        assert_eq!(out.seq, 7);
        assert_eq!(fresh.report().segments.last().unwrap().id, 3);
        // And a full-range query sees everything.
        let (meta, _) = fresh.query(0, u64::MAX, SummaryKind::CountMin);
        assert_eq!(meta.covered_weight, 25);
    }

    #[test]
    fn adopt_stops_at_undecodable_summaries() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut sealed = Vec::new();
        for i in 0..3u64 {
            sealed.extend(ok(&c, &[i]).sealed);
        }
        sealed[1].summaries[2] = vec![0xFF; 3];
        let fresh = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let out = fresh.adopt(&sealed);
        assert_eq!(out.adopted, 1);
        assert_eq!(out.dropped, 2);
        assert_eq!(fresh.last_seq(), 1, "floor stops at the last good record");
        assert!(out.notes[0].contains("rebuilt from the WAL"));
    }

    #[test]
    fn coarsening_holds_sealed_count_at_the_watermark() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .coarsen_watermark(4)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut coarsened = 0;
        for i in 0..32u64 {
            let out = ok(&c, &[i % 7; 10]);
            coarsened += out.coarsened;
            assert!(
                c.health().sealed <= 4,
                "sealed count must never exceed the watermark after a seal"
            );
            // Bookkeeping: nothing asks the engine to both write and
            // delete the same id, and each id is written at most once.
            for rec in &out.sealed {
                assert!(!out.evicted.contains(&rec.id));
            }
            let mut ids: Vec<u64> = out.sealed.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), out.sealed.len());
        }
        assert!(coarsened >= 27, "28 seals over watermark 4: {coarsened}");

        // Lossless w.r.t. admitted weight: the full range still covers
        // every batch, contiguously.
        let (meta, merged) = c.query(0, u64::MAX, SummaryKind::Mg);
        assert_eq!(meta.covered_weight, 320);
        assert_eq!((meta.start_seq, meta.end_seq), (1, 32));
        // And the merged answer still finds the heavy item at eps·n:
        // item 0 fills 50/320 of the stream, well above phi - eps.
        let hh = merged.unwrap().heavy_hitters(0.1).unwrap();
        assert!(hh.iter().any(|&(item, _)| item == 0), "{hh:?}");
        assert!(c.health().max_tier >= 1, "tiers must be recorded");
    }

    #[test]
    fn equal_tier_pairing_keeps_merge_trees_shallow() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .coarsen_watermark(2)
                .clock(Arc::new(ManualClock::new(0))),
        );
        for i in 0..16u64 {
            ok(&c, &[i]);
        }
        // 15 sealed segments squeezed into 2: balanced pairing keeps the
        // deepest tier logarithmic, not linear.
        let report = c.report();
        let max_tier = report.segments.iter().map(|m| m.tier).max().unwrap();
        assert!(
            (1..=5).contains(&max_tier),
            "expected log-ish tiers, got {max_tier}"
        );
        // Tier rides the wire in SegmentInfo.
        assert!(report.segments.iter().any(|m| m.tier > 0 && m.sealed));
    }

    #[test]
    fn coarsened_cube_adopts_and_replays_consistently() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .coarsen_watermark(2)
                .clock(clock.clone()),
        );
        // Keep only the newest record per id — what the segment store
        // would hold after the engine applied every outcome in order.
        let mut disk: std::collections::BTreeMap<u64, SegmentRecord> =
            std::collections::BTreeMap::new();
        for i in 0..9u64 {
            let out = ok(&c, &[i; 3]);
            for rec in out.sealed {
                disk.insert(rec.id, rec);
            }
            for id in out.evicted {
                disk.remove(&id);
            }
        }
        let records: Vec<SegmentRecord> = disk.into_values().collect();
        let fresh = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .coarsen_watermark(2)
                .clock(clock),
        );
        let adopted = fresh.adopt(&records);
        assert_eq!(adopted.adopted, records.len());
        assert_eq!(adopted.dropped, 0);
        let (a, b) = (c.report(), fresh.report());
        // The adopted cube sees the same sealed index, tiers included
        // (seal_batches(1) leaves no open segment to rebuild).
        let sealed_a: Vec<_> = a.segments.iter().filter(|m| m.sealed).collect();
        let sealed_b: Vec<_> = b.segments.iter().filter(|m| m.sealed).collect();
        assert_eq!(sealed_a, sealed_b);
        assert_eq!(fresh.persisted_floor(), 9);
    }

    /// Zipf(1.1) batches of varying size over a universe wide enough to
    /// saturate every counter map and force MG/SpaceSaving evictions.
    fn zipf_batches(seed: u64, batches: usize) -> Vec<Vec<u64>> {
        let zipf = ms_workloads::Zipf::new(1 << 16, 1.1);
        let mut rng = ms_core::Rng64::new(seed);
        (0..batches)
            .map(|_| {
                let len = 1 + rng.below_usize(700);
                (0..len).map(|_| zipf.sample(&mut rng)).collect()
            })
            .collect()
    }

    fn fresh(kind: SummaryKind) -> ShardSummary {
        ShardSummary::new(&ServiceConfig::new(kind, EPS).seed(42), 0)
    }

    #[test]
    fn family_major_fold_encodes_like_the_item_major_fold() {
        const SEAL: usize = 5;
        let c = cube(
            SegmentConfig::new()
                .seal_batches(SEAL as u64)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let batches = zipf_batches(7, 4 * SEAL);
        let sealed: Vec<SegmentRecord> = batches.iter().flat_map(|b| ok(&c, b).sealed).collect();
        assert_eq!(sealed.len(), 4);
        for (rec, seg) in sealed.iter().zip(batches.chunks(SEAL)) {
            // The reference: every item through every family in turn.
            let mut fams = SummaryKind::all().map(fresh);
            for &item in seg.iter().flatten() {
                for fam in fams.iter_mut() {
                    fam.update(item);
                }
            }
            for (bytes, fam) in rec.summaries.iter().zip(&fams) {
                assert_eq!(bytes, &fam.encode(), "{:?} segment {}", fam.kind(), rec.id);
            }
        }
    }

    /// Heavy hitters sorted by (count desc, item): the answer as a set,
    /// whatever order a counter map lists equal counts in.
    fn sorted_hh(s: &ShardSummary, phi: f64) -> Option<Vec<(u64, u64)>> {
        let mut hh = s.heavy_hitters(phi)?;
        hh.sort_unstable_by_key(|&(item, count)| (std::cmp::Reverse(count), item));
        Some(hh)
    }

    #[test]
    fn compact_on_seal_keeps_content_and_answers() {
        let probes: Vec<u64> = (1..200).chain([1 << 15, 60_000]).collect();
        for (seed, batches) in [(1, 1), (2, 6), (3, 40)] {
            let items: Vec<u64> = zipf_batches(seed, batches).concat();
            // A merge leaves scratch behind for compact to free; without
            // one, SpaceSaving keeps its streaming eviction index.
            for (kind, merged) in SummaryKind::all()
                .into_iter()
                .flat_map(|k| [(k, false), (k, true)])
            {
                let mut before = fresh(kind);
                before.update_batch(&items);
                if merged {
                    before
                        .merge_in_place(fresh(kind))
                        .expect("same-family merge");
                }
                let mut after = before.clone();
                after.compact();
                let (b, a) = (before.encode(), after.encode());
                match kind {
                    // No hash table: the encoding itself is unchanged.
                    SummaryKind::HybridQuantile | SummaryKind::CountMin => {
                        assert_eq!(b, a, "{kind:?} seed {seed}")
                    }
                    // The rehashed counter map may list counters in another
                    // order; phi = 0 lists every stored counter.
                    SummaryKind::Mg | SummaryKind::SpaceSaving => {
                        assert_eq!(b.len(), a.len(), "{kind:?} seed {seed}");
                        assert_eq!(sorted_hh(&before, 0.0), sorted_hh(&after, 0.0));
                    }
                }
                assert_eq!(before.total_weight(), after.total_weight());
                for &x in &probes {
                    assert_eq!(before.point(x), after.point(x), "{kind:?} point({x})");
                    assert_eq!(before.rank(x), after.rank(x), "{kind:?} rank({x})");
                }
                for phi in [0.001, 0.01, 0.1, 0.5, 0.99] {
                    assert_eq!(before.quantile(phi), after.quantile(phi), "{kind:?}");
                    assert_eq!(
                        sorted_hh(&before, phi),
                        sorted_hh(&after, phi),
                        "{kind:?} heavy_hitters({phi})"
                    );
                }
            }
        }
    }

    #[test]
    fn persist_writes_in_seal_order_and_floor_stays_contiguous() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut outs: Vec<CubeOutcome> = (0..3u64).map(|i| ok(&c, &[i])).collect();
        let tickets: Vec<(u64, u64)> = outs.iter().map(|o| (o.ticket, o.floor)).collect();
        assert_eq!(tickets, vec![(1, 1), (2, 2), (3, 3)]);
        let (third, second, first) = (
            outs.pop().unwrap(),
            outs.pop().unwrap(),
            outs.pop().unwrap(),
        );
        let mut written = Vec::new();
        let mut write = |out: &CubeOutcome| -> Result<(), ()> {
            written.push(out.ticket);
            Ok(())
        };
        // The two later outcomes arrive first: segment 0 is still in
        // flight, so nothing is written and nothing may be pruned yet.
        c.persist(third, &mut write).unwrap();
        c.persist(second, &mut write).unwrap();
        assert_eq!(c.persisted_floor(), 0);
        c.persist(first, &mut write).unwrap();
        assert_eq!(written, vec![1, 2, 3], "written in seal order");
        assert_eq!(c.persisted_floor(), 3);

        // A failed write holds the floor and is retried by the next caller.
        let (a, b) = (ok(&c, &[7]), ok(&c, &[8]));
        assert_eq!(c.persist(a, |_| Err("disk full")), Err("disk full"));
        assert_eq!(c.persisted_floor(), 3);
        let mut retried = Vec::new();
        c.persist(b, |out| {
            retried.push(out.ticket);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(retried, vec![4, 5]);
        assert_eq!(c.persisted_floor(), 5);
        // A batch that seals nothing has nothing to persist.
        let quiet = cube(SegmentConfig::new().seal_batches(2));
        assert_eq!(quiet.record(&[1]).ticket, 0);
    }

    #[test]
    fn turnstile_folds_concurrent_writers_in_seq_order() {
        const BATCHES: u64 = 48;
        let cfg = || {
            SegmentConfig::new()
                .seal_batches(4)
                .clock(Arc::new(ManualClock::new(0)))
        };
        let batch = |seq: u64| vec![seq % 5; 1 + (seq % 7) as usize];
        let reference = cube(cfg());
        for seq in 1..=BATCHES {
            reference.record_at(seq, &batch(seq));
        }
        // One writer per seq, started newest first, so almost every call
        // arrives before its turn (a writer holds one seq at a time, as
        // an ingest caller does).
        let c = Arc::new(cube(cfg()));
        let writers: Vec<_> = (1..=BATCHES)
            .rev()
            .map(|seq| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.record_at(seq, &batch(seq)).seq)
            })
            .collect();
        for (w, seq) in writers.into_iter().zip((1..=BATCHES).rev()) {
            assert_eq!(w.join().unwrap(), seq);
        }
        assert_eq!(c.last_seq(), BATCHES);
        assert_eq!(c.report().segments, reference.report().segments);
        let (meta, _) = c.query(0, u64::MAX, SummaryKind::Mg);
        let weight: u64 = (1..=BATCHES).map(|s| batch(s).len() as u64).sum();
        assert_eq!(meta.covered_weight, weight);
    }

    #[test]
    fn skip_to_steps_over_seqs_that_never_arrive() {
        let c = cube(SegmentConfig::new().clock(Arc::new(ManualClock::new(0))));
        c.skip_to(10);
        assert_eq!(c.last_seq(), 10);
        assert_eq!(c.record_at(11, &[1, 2]).seq, 11);
        c.skip_to(5);
        assert_eq!(c.last_seq(), 11, "skipping backwards is a no-op");
        assert_eq!(c.record_at(11, &[3]).seq, 0, "a covered seq is ignored");
        assert_eq!(c.report().segments[0].start_seq, 11);
    }

    #[test]
    fn health_tracks_sealed_count_and_open_segment_age() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(SegmentConfig::new().seal_batches(2).clock(clock.clone()));
        assert_eq!(c.health(), CubeHealth::default(), "empty cube is all-zero");

        ok(&c, &[1, 2, 3]);
        clock.advance(40);
        let h = c.health();
        assert_eq!(h.sealed, 0);
        assert_eq!(h.open_age_micros, 40, "age reads the injected clock");
        assert_eq!(h.open_weight, 3);

        // Second batch hits the count boundary: the segment seals, the
        // open gauges reset to zero until the next batch arrives.
        ok(&c, &[4]);
        let h = c.health();
        assert_eq!(h.sealed, 1);
        assert_eq!(h.open_age_micros, 0);
        assert_eq!(h.open_weight, 0);
    }
}
