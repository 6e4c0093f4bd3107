//! Runtime coherence checking.
//!
//! The simulator tracks data functionally as [`Version`]s: every store
//! publishes a fresh version, every load reports the version it observed.
//! For timestamp-ordering protocols (G-TSC) the checker verifies the core
//! invariant of Section III-C — *the values returned by loads are
//! consistent with the timestamp assignment*:
//!
//! > a load with logical time `t` (in reset epoch `e`) must return the
//! > version written by the latest store with `(epoch, wts) ≤ (e, t)`
//! > on that block (or the initial contents if there is none).
//!
//! For physical-time and plain protocols (TC, baselines) timestamps carry
//! no meaning, so the checker falls back to a functional sanity property:
//! every loaded version must be the initial value or something actually
//! stored to that block. (TC-specific ordering is exercised by the litmus
//! integration tests instead.)

use std::collections::BTreeMap;

use gtsc_protocol::msg::Epoch;
use gtsc_protocol::{AccessKind, Completion};
use gtsc_types::{BlockAddr, Cycle, FxHashMap, FxHashSet, Timestamp, Version};

/// One detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One observed load, exposed for litmus-style assertions in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadObservation {
    /// Logical `(epoch, timestamp)` of the load, when the protocol has one.
    pub key: Option<(Epoch, Timestamp)>,
    /// Version the load returned.
    pub version: Version,
    /// Physical completion time.
    pub at: Cycle,
    /// Observing SM.
    pub sm: usize,
    /// This is the read half of an atomic: it observes the latest store
    /// *strictly before* its own key (its own write lives at the key).
    pub exclusive: bool,
}

type LoadEv = LoadObservation;

/// Collects load/store completions during a run and validates them at the
/// end (validation is deferred because a load's producing store may
/// complete — from the checker's viewpoint — after the load).
#[derive(Debug, Default)]
pub struct Checker {
    /// Committed stores per block, keyed by `(epoch, wts)`. The per-block
    /// maps are hashed — every completion looks one or two of them up,
    /// none walks them — and whatever does walk (`finish`, `compact`, a
    /// snapshot) goes in block order, so violation reports come out in a
    /// deterministic order (the fault-injection tests compare reports byte
    /// for byte). The inner map stays ordered: it serves range queries.
    stores: FxHashMap<BlockAddr, BTreeMap<(Epoch, Timestamp), Version>>,
    /// All versions ever stored per block (functional fallback).
    written: FxHashMap<BlockAddr, FxHashSet<Version>>,
    loads: FxHashMap<BlockAddr, Vec<LoadEv>>,
    n_events: u64,
    /// Highest completion key observed per SM (drives [`Checker::compact`]).
    frontier: FxHashMap<usize, (Epoch, Timestamp)>,
    /// Per block: the store key history was pruned up to. Loads arriving
    /// below it can no longer be validated exactly.
    horizon: BTreeMap<BlockAddr, (Epoch, Timestamp)>,
    /// Violations found by eager validation during [`Checker::compact`].
    early: Vec<Violation>,
    /// Keyed loads accepted without exact validation because their key
    /// fell below a compaction horizon (counted in `finish`, which is
    /// `&self` — hence the `Cell`).
    horizon_accepts: std::cell::Cell<u64>,
}

impl Checker {
    /// Creates an empty checker.
    #[must_use]
    pub fn new() -> Self {
        Checker::default()
    }

    /// Number of completions observed.
    #[must_use]
    pub fn n_events(&self) -> u64 {
        self.n_events
    }

    /// Feeds one completed access from SM `sm` at cycle `now`.
    pub fn on_completion(&mut self, sm: usize, c: &Completion, now: Cycle) {
        self.n_events += 1;
        if let Some(ts) = c.ts {
            let f = self.frontier.entry(sm).or_insert((c.epoch, ts));
            *f = (*f).max((c.epoch, ts));
        }
        match c.kind {
            AccessKind::Store => {
                self.written.entry(c.block).or_default().insert(c.version);
                if let Some(wts) = c.ts {
                    self.stores
                        .entry(c.block)
                        .or_default()
                        .insert((c.epoch, wts), c.version);
                }
            }
            AccessKind::Atomic => {
                // The write half is a store at the assigned wts; the read
                // half observed `prev` immediately before it.
                self.written.entry(c.block).or_default().insert(c.version);
                if let Some(wts) = c.ts {
                    self.stores
                        .entry(c.block)
                        .or_default()
                        .insert((c.epoch, wts), c.version);
                }
                if let Some(prev) = c.prev {
                    self.loads
                        .entry(c.block)
                        .or_default()
                        .push(LoadObservation {
                            key: c.ts.map(|t| (c.epoch, t)),
                            version: prev,
                            at: now,
                            sm,
                            exclusive: true,
                        });
                }
            }
            AccessKind::Load => {
                self.loads
                    .entry(c.block)
                    .or_default()
                    .push(LoadObservation {
                        key: c.ts.map(|t| (c.epoch, t)),
                        version: c.version,
                        at: now,
                        sm,
                        exclusive: false,
                    });
            }
        }
    }

    /// Loads observed on `block`, in completion order (litmus assertions).
    #[must_use]
    pub fn load_observations(&self, block: BlockAddr) -> Vec<LoadObservation> {
        let mut v = self.loads.get(&block).cloned().unwrap_or_default();
        v.sort_by_key(|l| l.at);
        v
    }

    /// Versions stored to `block`, in `(epoch, wts)` order (timestamp
    /// protocols only).
    #[must_use]
    pub fn store_order(&self, block: BlockAddr) -> Vec<Version> {
        self.stores
            .get(&block)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default()
    }

    /// Validates all collected events; returns every violation found.
    #[must_use]
    pub fn finish(&self) -> Vec<Violation> {
        let mut out = self.early.clone();
        let blocks = sorted_blocks(&self.loads);
        for block in &blocks {
            let observed = &self.loads[block];
            let stores = self.stores.get(block);
            let written = self.written.get(block);
            let horizon = self.horizon.get(block).copied();
            for ld in observed {
                match ld.key {
                    Some(key) => {
                        if horizon.is_some_and(|h| key < h) {
                            // The stores this load could legally observe
                            // were pruned by `compact`: accept leniently
                            // and count the imprecision.
                            self.horizon_accepts.set(self.horizon_accepts.get() + 1);
                            continue;
                        }
                        out.extend(keyed_violation(*block, ld, key, stores));
                    }
                    None => {
                        // Functional fallback: the version must exist.
                        let known = ld.version == Version::ZERO
                            || written.is_some_and(|w| w.contains(&ld.version));
                        if !known {
                            out.push(Violation(format!(
                                "phantom value at {block}: load by sm{} at {} observed {} which \
                                 no store produced",
                                ld.sm, ld.at, ld.version
                            )));
                        }
                    }
                }
            }
        }
        out
    }

    /// Like [`Checker::finish`], but first collapses *identical*
    /// violation lines (a fault-injected replay can make the same faulty
    /// message produce the same violation several times) into one line
    /// with a multiplicity, then truncates to at most `cap` distinct
    /// violations, replacing the overflow with a one-line summary. A
    /// stuck protocol can emit a violation per access; the cap keeps
    /// reports (and test logs) readable without hiding that more exist.
    #[must_use]
    pub fn finish_capped(&self, cap: usize) -> Vec<Violation> {
        let mut out: Vec<Violation> = Vec::new();
        let mut index: FxHashMap<String, usize> = FxHashMap::default();
        let mut counts: Vec<usize> = Vec::new();
        for v in self.finish() {
            if let Some(&i) = index.get(&v.0) {
                counts[i] += 1;
            } else {
                index.insert(v.0.clone(), out.len());
                counts.push(1);
                out.push(v);
            }
        }
        for (v, &n) in out.iter_mut().zip(&counts) {
            if n > 1 {
                v.0.push_str(&format!(" (×{n} identical)"));
            }
        }
        if cap > 0 && out.len() > cap {
            let extra = out.len() - cap;
            out.truncate(cap);
            out.push(Violation(format!(
                "…and {extra} more violation(s) suppressed (cap {cap}; raise \
                 GpuConfig::max_violations_reported to see all)"
            )));
        }
        out
    }

    /// Number of retained store and load records (the checker's memory
    /// footprint, which [`Checker::compact`] bounds on long soaks).
    #[must_use]
    pub fn retained_events(&self) -> usize {
        // lint: allow(hash-iter): a sum (of both) does not depend on the order.
        self.stores.values().map(BTreeMap::len).sum::<usize>()
            + self.loads.values().map(Vec::len).sum::<usize>()
    }

    /// Keyed loads accepted without exact validation because a
    /// [`Checker::compact`] horizon had pruned their candidate stores
    /// (0 unless `compact` ran; populated by `finish`).
    #[must_use]
    pub fn horizon_accepts(&self) -> u64 {
        self.horizon_accepts.get()
    }

    /// Bounds the checker's memory on long runs by pruning history that
    /// is globally visible.
    ///
    /// For each SM the checker tracks the highest completion key it has
    /// produced; the minimum over those frontiers is taken as *globally
    /// visible*: every SM has logically advanced past it. Per block, the
    /// latest store at or below that frontier becomes the new base:
    /// loads strictly below the base are validated eagerly (their
    /// candidate stores are all still present) and drained, and stores
    /// strictly below the base are pruned. The base key is remembered as
    /// the block's *horizon*; a keyed load that later arrives below it
    /// (possible — per-SM frontiers are maxima over warps, and a lagging
    /// warp can complete out of order) is accepted without exact
    /// validation and counted in [`Checker::horizon_accepts`]. This is
    /// the documented incompleteness that buys bounded memory; `finish`
    /// on an uncompacted checker is exact.
    ///
    /// Blocks are visited in address order, so a compacted run remains
    /// byte-for-byte reproducible for a given seed.
    pub fn compact(&mut self) {
        // lint: allow(hash-iter): a minimum does not depend on the order.
        let Some(visible) = self.frontier.values().min().copied() else {
            return;
        };
        let blocks = sorted_blocks(&self.stores);
        for block in &blocks {
            let history = self.stores.get_mut(block).expect("listed above");
            let Some((&base, _)) = history.range(..=visible).next_back() else {
                continue;
            };
            if let Some(observed) = self.loads.get_mut(block) {
                let mut kept = Vec::with_capacity(observed.len());
                for ld in observed.drain(..) {
                    match ld.key {
                        Some(key) if key < base => {
                            self.early
                                .extend(keyed_violation(*block, &ld, key, Some(&*history)));
                        }
                        _ => kept.push(ld),
                    }
                }
                *observed = kept;
            }
            // Retain the base store itself: it is the expected value for
            // every remaining load at or above the horizon.
            let keep = history.split_off(&base);
            if let Some(w) = self.written.get_mut(block) {
                for v in history.values() {
                    w.remove(v);
                }
            }
            *history = keep;
            self.horizon.insert(*block, base);
        }
    }
}

/// The keys of a per-block map in address order: the only order in which
/// anything walks one.
fn sorted_blocks<V>(map: &FxHashMap<BlockAddr, V>) -> Vec<BlockAddr> {
    // lint: allow(hash-iter): sorted before anything observes the order.
    let mut blocks: Vec<BlockAddr> = map.keys().copied().collect();
    blocks.sort_unstable();
    blocks
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

impl Snap for Violation {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Violation(Snap::load(r)?))
    }
}

gtsc_types::snap_fields!(LoadObservation {
    key,
    version,
    at,
    sm,
    exclusive,
});

// Manual rather than `snap_fields!` because `horizon_accepts` lives in a
// `Cell` (saved/restored by value).
impl Snap for Checker {
    fn save(&self, w: &mut SnapWriter) {
        self.stores.save(w);
        self.written.save(w);
        self.loads.save(w);
        self.n_events.save(w);
        self.frontier.save(w);
        self.horizon.save(w);
        self.early.save(w);
        self.horizon_accepts.get().save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Checker {
            stores: Snap::load(r)?,
            written: Snap::load(r)?,
            loads: Snap::load(r)?,
            n_events: Snap::load(r)?,
            frontier: Snap::load(r)?,
            horizon: Snap::load(r)?,
            early: Snap::load(r)?,
            horizon_accepts: std::cell::Cell::new(Snap::load(r)?),
        })
    }
}

/// The timestamp-ordering check for one keyed load: the expected version
/// is the latest store at or before the load's logical time (strictly
/// before, for an atomic's read half).
fn keyed_violation(
    block: BlockAddr,
    ld: &LoadObservation,
    key: (Epoch, Timestamp),
    stores: Option<&BTreeMap<(Epoch, Timestamp), Version>>,
) -> Option<Violation> {
    let expected = if ld.exclusive {
        stores
            .and_then(|m| m.range(..key).next_back())
            .map_or(Version::ZERO, |(_, v)| *v)
    } else {
        stores
            .and_then(|m| m.range(..=key).next_back())
            .map_or(Version::ZERO, |(_, v)| *v)
    };
    (ld.version != expected).then(|| {
        Violation(format!(
            "timestamp-order violation at {block}: load by sm{} at {} \
             with key (e{}, {}) observed {} but the latest store ≤ key wrote {}",
            ld.sm, ld.at, key.0, key.1, ld.version, expected
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_protocol::AccessId;
    use gtsc_types::WarpId;

    fn store(block: u64, wts: u64, version: u64, epoch: Epoch) -> Completion {
        Completion {
            id: AccessId(0),
            warp: WarpId(0),
            kind: AccessKind::Store,
            block: BlockAddr(block),
            version: Version(version),
            ts: Some(Timestamp(wts)),
            epoch,
            prev: None,
        }
    }

    fn load(block: u64, ts: u64, version: u64, epoch: Epoch) -> Completion {
        Completion {
            id: AccessId(0),
            warp: WarpId(0),
            kind: AccessKind::Load,
            block: BlockAddr(block),
            version: Version(version),
            ts: Some(Timestamp(ts)),
            epoch,
            prev: None,
        }
    }

    #[test]
    fn consistent_history_passes() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 12, 100, 0), Cycle(10));
        ch.on_completion(1, &load(5, 5, 0, 0), Cycle(20)); // before the store: initial value
        ch.on_completion(1, &load(5, 12, 100, 0), Cycle(5)); // at the store's wts
        ch.on_completion(1, &load(5, 30, 100, 0), Cycle(30));
        assert!(ch.finish().is_empty());
        assert_eq!(ch.n_events(), 4);
    }

    #[test]
    fn reading_future_value_is_flagged() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 12, 100, 0), Cycle(10));
        // Load at logical time 6 observes the value written at 12: the
        // Figure 10 violation.
        ch.on_completion(1, &load(5, 6, 100, 0), Cycle(3));
        let v = ch.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].0.contains("timestamp-order violation"));
    }

    #[test]
    fn reading_stale_value_is_flagged() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 12, 100, 0), Cycle(10));
        ch.on_completion(0, &store(5, 25, 200, 0), Cycle(20));
        // Load at ts 30 must see version 200, not 100.
        ch.on_completion(1, &load(5, 30, 100, 0), Cycle(40));
        assert_eq!(ch.finish().len(), 1);
    }

    #[test]
    fn epochs_order_lexicographically() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 60_000, 100, 0), Cycle(10));
        // After a rollover the same block is rewritten at a tiny wts in
        // epoch 1; loads in epoch 1 must see the newer store.
        ch.on_completion(0, &store(5, 5, 200, 1), Cycle(100));
        ch.on_completion(1, &load(5, 2, 100, 1), Cycle(150)); // (1,2) < (1,5): still v100
        ch.on_completion(1, &load(5, 9, 200, 1), Cycle(160));
        assert!(ch.finish().is_empty());
    }

    fn atomic(block: u64, wts: u64, version: u64, prev: u64) -> Completion {
        Completion {
            id: AccessId(0),
            warp: WarpId(0),
            kind: AccessKind::Atomic,
            block: BlockAddr(block),
            version: Version(version),
            ts: Some(Timestamp(wts)),
            epoch: 0,
            prev: Some(Version(prev)),
        }
    }

    #[test]
    fn atomic_read_half_is_exclusive_of_its_own_write() {
        let mut ch = Checker::new();
        // An atomic at wts 10 observing the initial value: its own store
        // (at the same key) must not satisfy its read half.
        ch.on_completion(0, &atomic(5, 10, 100, 0), Cycle(1));
        assert!(ch.finish().is_empty());
        // A second atomic at wts 20 must observe the first's version.
        ch.on_completion(1, &atomic(5, 20, 200, 100), Cycle(2));
        assert!(ch.finish().is_empty());
        // A later load at ts 25 sees the second atomic's write half.
        ch.on_completion(2, &load(5, 25, 200, 0), Cycle(3));
        assert!(ch.finish().is_empty());
    }

    #[test]
    fn atomic_observing_wrong_predecessor_is_flagged() {
        let mut ch = Checker::new();
        ch.on_completion(0, &atomic(5, 10, 100, 0), Cycle(1));
        // Claims to have observed the initial value although version 100
        // was written at wts 10 < 20: a lost update.
        ch.on_completion(1, &atomic(5, 20, 200, 0), Cycle(2));
        let v = ch.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].0.contains("timestamp-order violation"));
    }

    #[test]
    fn functional_fallback_flags_phantom_versions() {
        let mut ch = Checker::new();
        let mut c = load(5, 0, 12345, 0);
        c.ts = None;
        ch.on_completion(0, &c, Cycle(5));
        let v = ch.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].0.contains("phantom"));
    }

    #[test]
    fn finish_capped_truncates_with_summary() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 12, 100, 0), Cycle(10));
        for i in 0..10 {
            // Ten future-reads: ten violations.
            ch.on_completion(1, &load(5, 6, 100, 0), Cycle(3 + i));
        }
        assert_eq!(ch.finish().len(), 10);
        let capped = ch.finish_capped(3);
        assert_eq!(capped.len(), 4);
        assert!(capped[3].0.contains("7 more"), "{:?}", capped[3]);
        // A cap of 0 means unlimited.
        assert_eq!(ch.finish_capped(0).len(), 10);
        // Under the cap: untouched.
        assert_eq!(ch.finish_capped(100).len(), 10);
    }

    #[test]
    fn finish_capped_collapses_identical_violations() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 12, 100, 0), Cycle(10));
        // Three byte-identical future-reads (same cycle, same key) plus
        // one distinct: the report shows two lines, not four.
        for _ in 0..3 {
            ch.on_completion(1, &load(5, 6, 100, 0), Cycle(3));
        }
        ch.on_completion(1, &load(5, 7, 100, 0), Cycle(3));
        assert_eq!(ch.finish().len(), 4);
        let capped = ch.finish_capped(64);
        assert_eq!(capped.len(), 2);
        assert!(capped[0].0.contains("(×3 identical)"), "{:?}", capped[0]);
        assert!(!capped[1].0.contains("identical"), "{:?}", capped[1]);
    }

    #[test]
    fn compact_prunes_history_and_keeps_exactness_above_base() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 10, 100, 0), Cycle(1));
        ch.on_completion(0, &store(5, 20, 200, 0), Cycle(2));
        ch.on_completion(0, &store(5, 30, 300, 0), Cycle(3));
        ch.on_completion(1, &load(5, 15, 100, 0), Cycle(4));
        // Frontiers: sm0 = (0,30), sm1 = (0,25) ⇒ visible = (0,25),
        // base = the store at (0,20).
        ch.on_completion(1, &load(5, 25, 200, 0), Cycle(5));
        let before = ch.retained_events();
        ch.compact();
        assert!(ch.retained_events() < before);
        // The store at wts 10 and the validated load at ts 15 are gone;
        // the base store (wts 20) and everything above it remain.
        assert_eq!(
            ch.store_order(BlockAddr(5)),
            vec![Version(200), Version(300)]
        );
        // Validation above the base stays exact.
        ch.on_completion(1, &load(5, 35, 200, 0), Cycle(6)); // stale: must see 300
        assert_eq!(ch.finish().len(), 1);
        assert_eq!(ch.horizon_accepts(), 0);
    }

    #[test]
    fn compact_validates_drained_loads_eagerly() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 10, 100, 0), Cycle(1));
        ch.on_completion(0, &store(5, 20, 200, 0), Cycle(2));
        // Future-read below the eventual base: flagged at compact time.
        ch.on_completion(1, &load(5, 5, 100, 0), Cycle(3));
        ch.on_completion(1, &load(5, 25, 200, 0), Cycle(4));
        ch.compact();
        let v = ch.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].0.contains("timestamp-order violation"), "{:?}", v[0]);
    }

    #[test]
    fn late_load_below_horizon_is_accepted_and_counted() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 10, 100, 0), Cycle(1));
        ch.on_completion(0, &store(5, 20, 200, 0), Cycle(2));
        ch.on_completion(1, &load(5, 25, 200, 0), Cycle(3));
        ch.compact();
        // A lagging warp completes a load below the horizon with a value
        // the pruned history can no longer validate: accepted leniently.
        ch.on_completion(1, &load(5, 5, 100, 0), Cycle(4));
        assert!(ch.finish().is_empty());
        assert_eq!(ch.horizon_accepts(), 1);
    }

    #[test]
    fn compact_is_idempotent_on_clean_history() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 10, 100, 0), Cycle(1));
        ch.on_completion(1, &load(5, 15, 100, 0), Cycle(2));
        ch.compact();
        ch.compact();
        assert!(ch.finish().is_empty());
        // An empty checker compacts without panicking.
        Checker::new().compact();
    }

    #[test]
    fn functional_fallback_accepts_known_versions() {
        let mut ch = Checker::new();
        let mut st = store(5, 0, 77, 0);
        st.ts = None;
        ch.on_completion(0, &st, Cycle(1));
        let mut ld = load(5, 0, 77, 0);
        ld.ts = None;
        ch.on_completion(1, &ld, Cycle(2));
        let mut ld0 = load(5, 0, 0, 0);
        ld0.ts = None;
        ch.on_completion(1, &ld0, Cycle(3));
        assert!(ch.finish().is_empty());
    }
}
