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
use gtsc_types::{BlockAddr, Cycle, FxHashMap, Timestamp, Version};

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

/// One block's observed loads in completion order, each coded against the
/// one before it (DESIGN.md §15.6). A load is a header byte — the keyed
/// and exclusive flags and "same SM / same epoch / same version" bits —
/// then varints: the SM and the epoch when they changed, zigzag deltas of
/// the completion cycle and the timestamp, and a zigzag delta of the
/// version when it changed. Deltas wrap, so every `u64` round-trips; an
/// unkeyed load carries no epoch or timestamp and leaves both as they
/// were. Every read decodes to [`LoadObservation`], so what the checker
/// reports, and the bytes it snapshots, are the observation's.
#[derive(Debug, Default)]
struct LoadLog {
    bytes: Vec<u8>,
    len: usize,
    /// The last load's fields: what the next one is coded against.
    last: Coded,
}

/// The fields a load is coded against, as the encoder leaves them after
/// a load and the decoder finds them before the next.
#[derive(Debug, Default, Clone, Copy)]
struct Coded {
    sm: usize,
    epoch: Epoch,
    ts: u64,
    version: u64,
    at: u64,
}

const KEYED: u8 = 1;
const EXCLUSIVE: u8 = 1 << 1;
const SAME_SM: u8 = 1 << 2;
const SAME_EPOCH: u8 = 1 << 3;
const SAME_VERSION: u8 = 1 << 4;

impl LoadLog {
    fn push(&mut self, ld: &LoadObservation) {
        let last = self.last;
        let mut head = 0;
        if ld.exclusive {
            head |= EXCLUSIVE;
        }
        if ld.sm == last.sm {
            head |= SAME_SM;
        }
        if ld.version.0 == last.version {
            head |= SAME_VERSION;
        }
        if let Some((epoch, _)) = ld.key {
            head |= KEYED;
            if epoch == last.epoch {
                head |= SAME_EPOCH;
            }
        }
        let out = &mut self.bytes;
        out.push(head);
        if head & SAME_SM == 0 {
            put_varint(out, ld.sm as u64);
        }
        if let Some((epoch, ts)) = ld.key {
            if head & SAME_EPOCH == 0 {
                put_varint(out, epoch);
            }
            put_varint(out, zigzag(ts.0.wrapping_sub(last.ts)));
            self.last.epoch = epoch;
            self.last.ts = ts.0;
        }
        put_varint(out, zigzag(ld.at.0.wrapping_sub(last.at)));
        if head & SAME_VERSION == 0 {
            put_varint(out, zigzag(ld.version.0.wrapping_sub(last.version)));
        }
        self.last.sm = ld.sm;
        self.last.version = ld.version.0;
        self.last.at = ld.at.0;
        self.len += 1;
    }

    fn iter(&self) -> LoadLogIter<'_> {
        LoadLogIter {
            bytes: &self.bytes,
            last: Coded::default(),
        }
    }
}

/// Decodes a [`LoadLog`] front to back.
struct LoadLogIter<'a> {
    bytes: &'a [u8],
    last: Coded,
}

impl LoadLogIter<'_> {
    /// The LEB128 varint at the front of the rest of the log. The bytes
    /// are the log's own, so the varint is whole.
    fn varint(&mut self) -> u64 {
        let mut v = 0;
        for (i, &b) in self.bytes.iter().enumerate() {
            v |= u64::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                self.bytes = &self.bytes[i + 1..];
                return v;
            }
        }
        unreachable!("a load log ends on a whole varint")
    }
}

impl Iterator for LoadLogIter<'_> {
    type Item = LoadObservation;

    fn next(&mut self) -> Option<LoadObservation> {
        let (&head, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        if head & SAME_SM == 0 {
            self.last.sm = self.varint() as usize;
        }
        let key = (head & KEYED != 0).then(|| {
            if head & SAME_EPOCH == 0 {
                self.last.epoch = self.varint();
            }
            self.last.ts = self.last.ts.wrapping_add(unzigzag(self.varint()));
            (self.last.epoch, Timestamp(self.last.ts))
        });
        self.last.at = self.last.at.wrapping_add(unzigzag(self.varint()));
        if head & SAME_VERSION == 0 {
            self.last.version = self.last.version.wrapping_add(unzigzag(self.varint()));
        }
        Some(LoadObservation {
            key,
            version: Version(self.last.version),
            at: Cycle(self.last.at),
            sm: self.last.sm,
            exclusive: head & EXCLUSIVE != 0,
        })
    }
}

/// Appends `v` as a LEB128 varint: seven bits a byte, low bits first.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A wrapped difference as a small unsigned number either way round.
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// One block's committed stores, sorted by `(epoch, wts)`. Keys arrive
/// nearly in order, so an insert is nearly always a push; reads are
/// binary searches.
#[derive(Debug, Default)]
struct History(Vec<((Epoch, Timestamp), Version)>);

impl History {
    /// Stores `version` at `key`, replacing the version at an equal key;
    /// whether the key is new.
    fn insert(&mut self, key: (Epoch, Timestamp), version: Version) -> bool {
        let i = self.0.partition_point(|&(k, _)| k < key);
        match self.0.get_mut(i) {
            Some(entry) if entry.0 == key => {
                entry.1 = version;
                false
            }
            _ => {
                self.0.insert(i, (key, version));
                true
            }
        }
    }

    /// The latest store strictly below `key`, or at or below it when
    /// `inclusive`.
    fn latest(
        &self,
        key: (Epoch, Timestamp),
        inclusive: bool,
    ) -> Option<&((Epoch, Timestamp), Version)> {
        let i = self
            .0
            .partition_point(|&(k, _)| k < key || (inclusive && k == key));
        self.0[..i].last()
    }

    /// The version a load at `key` must return: the latest store at or
    /// before its logical time (strictly before, for an atomic's read
    /// half), or the initial contents.
    fn expected(&self, key: (Epoch, Timestamp), exclusive: bool) -> Version {
        self.latest(key, !exclusive)
            .map_or(Version::ZERO, |&(_, v)| v)
    }
}

/// Every version stored to one block, sorted and deduplicated.
#[derive(Debug, Default)]
struct VersionSet(Vec<Version>);

impl VersionSet {
    fn insert(&mut self, v: Version) {
        if let Err(i) = self.0.binary_search(&v) {
            self.0.insert(i, v);
        }
    }

    fn remove(&mut self, v: Version) {
        if let Ok(i) = self.0.binary_search(&v) {
            self.0.remove(i);
        }
    }

    fn contains(&self, v: Version) -> bool {
        self.0.binary_search(&v).is_ok()
    }
}

/// What a [`Checker`] holds, as [`Checker::footprint`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerFootprint {
    /// Observed loads retained.
    pub loads: usize,
    /// Committed stores retained.
    pub stores: usize,
    /// Bytes the per-block coded load logs take on the heap, spare
    /// capacity included (DESIGN.md §15.6).
    pub load_bytes: usize,
}

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
    /// for byte). The inner list stays ordered: it serves range queries.
    stores: FxHashMap<BlockAddr, History>,
    /// All versions ever stored per block (functional fallback).
    written: FxHashMap<BlockAddr, VersionSet>,
    loads: FxHashMap<BlockAddr, LoadLog>,
    /// Records in `loads` and in `stores`, kept as they change so that
    /// [`Checker::retained_events`] does not walk them (not saved: a
    /// restore recounts).
    n_loads: usize,
    n_stores: usize,
    n_events: u64,
    /// Highest completion key observed per SM (drives [`Checker::compact`]).
    frontier: FxHashMap<usize, (Epoch, Timestamp)>,
    /// Per block: the store key history was pruned up to. Loads arriving
    /// below it can no longer be validated exactly.
    horizon: BTreeMap<BlockAddr, (Epoch, Timestamp)>,
    /// Violations found by eager validation during [`Checker::compact`].
    early: Vec<Violation>,
    /// Keyed loads accepted without exact validation because their key
    /// fell below a compaction horizon (counted once, on arrival).
    horizon_accepts: u64,
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
        if c.kind != AccessKind::Load {
            // A store, or an atomic's write half: a store at the assigned wts.
            self.written.entry(c.block).or_default().insert(c.version);
            if let Some(wts) = c.ts {
                let history = self.stores.entry(c.block).or_default();
                self.n_stores += usize::from(history.insert((c.epoch, wts), c.version));
            }
        }
        let observed = match c.kind {
            AccessKind::Store => None,
            // The read half observed `prev` immediately before the write.
            AccessKind::Atomic => c.prev.map(|prev| (prev, true)),
            AccessKind::Load => Some((c.version, false)),
        };
        if let Some((version, exclusive)) = observed {
            let key = c.ts.map(|t| (c.epoch, t));
            if key.is_some_and(|k| self.horizon.get(&c.block).is_some_and(|&h| k < h)) {
                // The stores this load could legally observe were pruned
                // by `compact`: `finish` accepts it leniently.
                self.horizon_accepts += 1;
            }
            self.loads
                .entry(c.block)
                .or_default()
                .push(&LoadObservation {
                    key,
                    version,
                    at: now,
                    sm,
                    exclusive,
                });
            self.n_loads += 1;
        }
    }

    /// Loads observed on `block`, in completion order (litmus assertions).
    #[must_use]
    pub fn load_observations(&self, block: BlockAddr) -> Vec<LoadObservation> {
        let mut v: Vec<LoadObservation> = self
            .loads
            .get(&block)
            .map(|log| log.iter().collect())
            .unwrap_or_default();
        v.sort_by_key(|l| l.at);
        v
    }

    /// Versions stored to `block`, in `(epoch, wts)` order (timestamp
    /// protocols only).
    #[must_use]
    pub fn store_order(&self, block: BlockAddr) -> Vec<Version> {
        self.stores
            .get(&block)
            .map(|h| h.0.iter().map(|&(_, v)| v).collect())
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
            for ld in observed.iter() {
                match ld.key {
                    Some(key) => {
                        if horizon.is_some_and(|h| key < h) {
                            // Pruned by `compact`: accepted leniently,
                            // counted on arrival.
                            continue;
                        }
                        let expected =
                            stores.map_or(Version::ZERO, |h| h.expected(key, ld.exclusive));
                        out.extend(keyed_violation(*block, &ld, key, expected));
                    }
                    None => {
                        // Functional fallback: the version must exist.
                        let known = ld.version == Version::ZERO
                            || written.is_some_and(|w| w.contains(ld.version));
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
        debug_assert_eq!(
            (self.n_loads, self.n_stores),
            {
                let walked = self.footprint();
                (walked.loads, walked.stores)
            },
            "retained counts drifted from the logs"
        );
        self.n_loads + self.n_stores
    }

    /// The retained loads and stores, and the heap bytes of the load logs
    /// (`profile_report`'s `checker:` line). Walks every log, where
    /// [`Checker::retained_events`] reads running counts.
    #[must_use]
    pub fn footprint(&self) -> CheckerFootprint {
        #[expect(clippy::disallowed_methods, reason = "sums do not depend on the order")]
        let (loads, load_bytes) = self.loads.values().fold((0, 0), |(n, bytes), log| {
            (n + log.len, bytes + log.bytes.capacity())
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "a sum does not depend on the order"
        )]
        let stores = self.stores.values().map(|h| h.0.len()).sum();
        CheckerFootprint {
            loads,
            stores,
            load_bytes,
        }
    }

    /// Keyed loads accepted without exact validation because a
    /// [`Checker::compact`] horizon had pruned their candidate stores
    /// (0 unless `compact` ran; each counted once, when it arrives).
    #[must_use]
    pub fn horizon_accepts(&self) -> u64 {
        self.horizon_accepts
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
        #[expect(
            clippy::disallowed_methods,
            reason = "a minimum does not depend on the order"
        )]
        let Some(visible) = self.frontier.values().min().copied() else {
            return;
        };
        let blocks = sorted_blocks(&self.stores);
        for block in &blocks {
            let history = self.stores.get_mut(block).expect("listed above");
            let Some(&(base, _)) = history.latest(visible, true) else {
                continue;
            };
            if let Some(observed) = self.loads.get_mut(block) {
                let mut kept = LoadLog::default();
                for ld in observed.iter() {
                    match ld.key {
                        Some(key) if key < base => {
                            let expected = history.expected(key, ld.exclusive);
                            self.early
                                .extend(keyed_violation(*block, &ld, key, expected));
                            self.n_loads -= 1;
                        }
                        _ => kept.push(&ld),
                    }
                }
                *observed = kept;
            }
            // Retain the base store itself: it is the expected value for
            // every remaining load at or above the horizon.
            let below = history.0.partition_point(|&(k, _)| k < base);
            self.n_stores -= below;
            let pruned = history.0.drain(..below);
            if let Some(w) = self.written.get_mut(block) {
                for (_, v) in pruned {
                    w.remove(v);
                }
            }
            self.horizon.insert(*block, base);
        }
    }
}

/// The keys of a per-block map in address order: the only order in which
/// anything walks one.
fn sorted_blocks<V>(map: &FxHashMap<BlockAddr, V>) -> Vec<BlockAddr> {
    #[expect(
        clippy::disallowed_methods,
        reason = "sorted before anything observes the order"
    )]
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

// The three per-block containers are written as the `Vec<LoadObservation>`,
// the `BTreeMap` and the hash set they replace, so a checker's bytes do not
// depend on how it keeps its history (DESIGN.md §15.6).
impl Snap for LoadLog {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len);
        for ld in self.iter() {
            ld.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len(1)?;
        let mut log = LoadLog::default();
        for _ in 0..n {
            log.push(&LoadObservation::load(r)?);
        }
        Ok(log)
    }
}

impl Snap for History {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut history = History::default();
        for (key, version) in Vec::load(r)? {
            history.insert(key, version);
        }
        Ok(history)
    }
}

impl Snap for VersionSet {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut versions: Vec<Version> = Snap::load(r)?;
        versions.sort_unstable();
        versions.dedup();
        Ok(VersionSet(versions))
    }
}

// Manual rather than `snap_fields!` because the running record counts are
// not saved: a restore recounts them.
impl Snap for Checker {
    fn save(&self, w: &mut SnapWriter) {
        self.stores.save(w);
        self.written.save(w);
        self.loads.save(w);
        self.n_events.save(w);
        self.frontier.save(w);
        self.horizon.save(w);
        self.early.save(w);
        self.horizon_accepts.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut checker = Checker {
            stores: Snap::load(r)?,
            written: Snap::load(r)?,
            loads: Snap::load(r)?,
            n_loads: 0,
            n_stores: 0,
            n_events: Snap::load(r)?,
            frontier: Snap::load(r)?,
            horizon: Snap::load(r)?,
            early: Snap::load(r)?,
            horizon_accepts: Snap::load(r)?,
        };
        let walked = checker.footprint();
        (checker.n_loads, checker.n_stores) = (walked.loads, walked.stores);
        Ok(checker)
    }
}

/// The timestamp-ordering check for one keyed load, given the version
/// [`History::expected`] says it must return.
fn keyed_violation(
    block: BlockAddr,
    ld: &LoadObservation,
    key: (Epoch, Timestamp),
    expected: Version,
) -> Option<Violation> {
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
    use gtsc_types::FxHashSet;
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

    /// Reading the verdict does not change it: a late load is counted
    /// once however often the run is reported on.
    #[test]
    fn a_late_load_is_counted_once_across_reports() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 10, 100, 0), Cycle(1));
        ch.on_completion(0, &store(5, 20, 200, 0), Cycle(2));
        ch.on_completion(1, &load(5, 25, 200, 0), Cycle(3));
        ch.compact();
        ch.on_completion(1, &load(5, 5, 100, 0), Cycle(4));
        assert!(ch.finish().is_empty());
        assert!(ch.finish_capped(8).is_empty());
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

    fn bytes<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    /// Loads at the extremes the coding must carry: SMs and epochs past
    /// any narrower width, `u64::MAX` timestamps, versions and cycles,
    /// cycles and timestamps going backwards, unkeyed loads between keyed
    /// ones, and runs of unchanged fields.
    #[test]
    fn load_log_round_trips_at_the_extremes() {
        let ld = |key, version, at, sm, exclusive| LoadObservation {
            key,
            version: Version(version),
            at: Cycle(at),
            sm,
            exclusive,
        };
        let (wide_sm, wide_epoch) = (usize::from(u16::MAX) + 1, Epoch::from(u32::MAX) + 1);
        let loads = vec![
            ld(Some((0, Timestamp(0))), 0, 0, 0, false),
            ld(
                Some((wide_epoch, Timestamp(u64::MAX))),
                u64::MAX,
                u64::MAX,
                wide_sm,
                true,
            ),
            ld(None, u64::MAX, 3, wide_sm, false),
            ld(Some((wide_epoch, Timestamp(1))), 1, 2, usize::MAX, false),
            ld(
                Some((Epoch::MAX, Timestamp(u64::MAX))),
                0,
                u64::MAX,
                0,
                true,
            ),
            ld(Some((0, Timestamp(0))), u64::MAX, 0, usize::MAX, false),
            ld(None, 7, 5, 1, true),
            ld(Some((0, Timestamp(0))), 7, 5, 1, false),
            ld(Some((0, Timestamp(0))), 7, 5, 1, false),
            ld(Some((1, Timestamp(40))), 9, 4, 1, false),
        ];
        let mut log = LoadLog::default();
        for ld in &loads {
            log.push(ld);
        }
        assert_eq!(log.len, loads.len());
        assert_eq!(log.iter().collect::<Vec<_>>(), loads);
        // The log saves as the observations it codes, and restores to them.
        let image = bytes(&log);
        assert_eq!(image, bytes(&loads));
        let restored = LoadLog::load(&mut SnapReader::new(&image)).expect("restores");
        assert_eq!(restored.iter().collect::<Vec<_>>(), loads);
        // A load repeating its predecessor a cycle later is three bytes
        // (the header and two one-byte deltas) where a record was 32.
        let before = log.bytes.len();
        log.push(&LoadObservation {
            at: Cycle(6),
            ..loads[loads.len() - 1]
        });
        assert_eq!(log.bytes.len() - before, 3);
    }

    #[test]
    fn loads_from_any_sm_and_epoch_are_checked() {
        let mut ch = Checker::new();
        let (sm, epoch) = (usize::from(u16::MAX) + 1, Epoch::from(u32::MAX) + 1);
        ch.on_completion(sm, &store(5, u64::MAX, 100, epoch), Cycle(u64::MAX));
        ch.on_completion(sm, &load(5, u64::MAX, 100, epoch), Cycle(0));
        ch.on_completion(usize::MAX, &load(5, 0, 0, epoch), Cycle(1));
        assert!(ch.finish().is_empty());
        let seen = ch.load_observations(BlockAddr(5));
        assert_eq!(
            seen.iter().map(|l| (l.sm, l.key)).collect::<Vec<_>>(),
            [
                (sm, Some((epoch, Timestamp(u64::MAX)))),
                (usize::MAX, Some((epoch, Timestamp(0))))
            ]
        );
        // A stale read at the far end of both widths is still caught.
        ch.on_completion(sm, &load(5, u64::MAX, 0, epoch), Cycle(2));
        assert_eq!(ch.finish().len(), 1);
    }

    #[test]
    fn history_sorts_out_of_order_keys_and_replaces_equal_ones() {
        let keys: [(Epoch, u64, u64); 8] = [
            (0, 30, 1),
            (0, 10, 2),
            (1, 5, 3),
            (0, 20, 4),
            (0, 10, 5), // replaces version 2
            (Epoch::MAX, u64::MAX, 6),
            (0, 0, 7),
            (1, 5, 8), // replaces version 3
        ];
        let (mut history, mut map) = (History::default(), BTreeMap::new());
        for (epoch, wts, v) in keys {
            let key = (epoch, Timestamp(wts));
            assert_eq!(
                history.insert(key, Version(v)),
                map.insert(key, Version(v)).is_none()
            );
        }
        let entries: Vec<_> = map.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(history.0, entries);
        assert_eq!(bytes(&history), bytes(&map));
        for epoch in [0, 1, Epoch::MAX] {
            for ts in [0, 5, 10, 15, 20, 30, 31, u64::MAX] {
                let key = (epoch, Timestamp(ts));
                let inclusive = map.range(..=key).next_back().map(|(&k, &v)| (k, v));
                let strict = map.range(..key).next_back().map(|(&k, &v)| (k, v));
                assert_eq!(history.latest(key, true).copied(), inclusive, "{key:?}");
                assert_eq!(history.latest(key, false).copied(), strict, "{key:?}");
            }
        }
        // An image holding the keys as they arrived restores as the map
        // would: sorted, the later of two equal keys kept.
        let arrived: Vec<_> = keys
            .iter()
            .map(|&(epoch, wts, v)| ((epoch, Timestamp(wts)), Version(v)))
            .collect();
        let restored = History::load(&mut SnapReader::new(&bytes(&arrived))).expect("restores");
        assert_eq!(restored.0, entries);
    }

    #[test]
    fn version_set_restores_as_the_hash_set_did() {
        let arrived: Vec<Version> = [9, 3, u64::MAX, 3, 0, 7].map(Version).into();
        let set: FxHashSet<Version> = arrived.iter().copied().collect();
        let restored = VersionSet::load(&mut SnapReader::new(&bytes(&arrived))).expect("restores");
        assert_eq!(bytes(&restored), bytes(&set));
        assert!(restored.contains(Version(u64::MAX)) && !restored.contains(Version(8)));
    }

    #[test]
    fn retained_count_matches_the_walk_after_compact_and_restore() {
        let mut ch = Checker::new();
        for i in 0..40u64 {
            ch.on_completion(0, &store(i % 4, 10 + i, 100 + i, 0), Cycle(i));
            // The same key twice replaces a store, it does not add one.
            ch.on_completion(0, &store(i % 4, 10 + i, 100 + i, 0), Cycle(i));
            ch.on_completion(1, &load(i % 4, 5 + i, 100 + i, 0), Cycle(i));
            ch.on_completion(2, &atomic(7, 10 + i, 300 + i, 299 + i), Cycle(i));
        }
        let walk = |ch: &Checker| {
            let walked = ch.footprint();
            walked.loads + walked.stores
        };
        assert_eq!(ch.retained_events(), walk(&ch));
        assert_eq!(ch.retained_events(), 40 + 40 + 40 + 40);
        ch.compact();
        assert!(ch.retained_events() < 160);
        assert_eq!(ch.retained_events(), walk(&ch));
        let image = bytes(&ch);
        let restored = Checker::load(&mut SnapReader::new(&image)).expect("restores");
        assert_eq!(restored.retained_events(), walk(&restored));
        assert_eq!(restored.retained_events(), ch.retained_events());
        // A restored log is coded afresh: only the counts match.
        let (a, b) = (restored.footprint(), ch.footprint());
        assert_eq!((a.loads, a.stores), (b.loads, b.stores));
    }

    /// The checker as it was before its history was coded: every
    /// observation kept verbatim per block, the stores in a `BTreeMap` and
    /// the versions in a hash set. The violation text is shared; what
    /// differs is how the history is kept and searched.
    #[derive(Default)]
    struct Reference {
        stores: FxHashMap<BlockAddr, BTreeMap<(Epoch, Timestamp), Version>>,
        written: FxHashMap<BlockAddr, FxHashSet<Version>>,
        loads: FxHashMap<BlockAddr, Vec<LoadObservation>>,
        n_events: u64,
        frontier: FxHashMap<usize, (Epoch, Timestamp)>,
        horizon: BTreeMap<BlockAddr, (Epoch, Timestamp)>,
        early: Vec<Violation>,
        horizon_accepts: u64,
    }

    impl Reference {
        fn on_completion(&mut self, sm: usize, c: &Completion, now: Cycle) {
            self.n_events += 1;
            if let Some(ts) = c.ts {
                let f = self.frontier.entry(sm).or_insert((c.epoch, ts));
                *f = (*f).max((c.epoch, ts));
            }
            if c.kind != AccessKind::Load {
                self.written.entry(c.block).or_default().insert(c.version);
                if let Some(wts) = c.ts {
                    let history = self.stores.entry(c.block).or_default();
                    history.insert((c.epoch, wts), c.version);
                }
            }
            let (version, exclusive) = match c.kind {
                AccessKind::Store => return,
                AccessKind::Atomic => match c.prev {
                    Some(prev) => (prev, true),
                    None => return,
                },
                AccessKind::Load => (c.version, false),
            };
            let key = c.ts.map(|t| (c.epoch, t));
            if key.is_some_and(|k| self.horizon.get(&c.block).is_some_and(|&h| k < h)) {
                self.horizon_accepts += 1;
            }
            self.loads
                .entry(c.block)
                .or_default()
                .push(LoadObservation {
                    key,
                    version,
                    at: now,
                    sm,
                    exclusive,
                });
        }

        fn load_observations(&self, block: BlockAddr) -> Vec<LoadObservation> {
            let mut v = self.loads.get(&block).cloned().unwrap_or_default();
            v.sort_by_key(|l| l.at);
            v
        }

        fn finish(&self) -> Vec<Violation> {
            let mut out = self.early.clone();
            for block in &sorted_blocks(&self.loads) {
                let stores = self.stores.get(block);
                let horizon = self.horizon.get(block).copied();
                for ld in &self.loads[block] {
                    match ld.key {
                        Some(key) if horizon.is_some_and(|h| key < h) => {}
                        Some(key) => out.extend(keyed_violation(
                            *block,
                            ld,
                            key,
                            reference_expected(stores, key, ld.exclusive),
                        )),
                        None => {
                            let known = ld.version == Version::ZERO
                                || self
                                    .written
                                    .get(block)
                                    .is_some_and(|w| w.contains(&ld.version));
                            if !known {
                                out.push(Violation(format!(
                                    "phantom value at {block}: load by sm{} at {} observed {} \
                                     which no store produced",
                                    ld.sm, ld.at, ld.version
                                )));
                            }
                        }
                    }
                }
            }
            out
        }

        fn compact(&mut self) {
            #[expect(
                clippy::disallowed_methods,
                reason = "a minimum does not depend on the order"
            )]
            let Some(visible) = self.frontier.values().min().copied() else {
                return;
            };
            for block in &sorted_blocks(&self.stores) {
                let history = self.stores.get_mut(block).expect("listed above");
                let Some((&base, _)) = history.range(..=visible).next_back() else {
                    continue;
                };
                if let Some(observed) = self.loads.get_mut(block) {
                    let mut kept = Vec::new();
                    for ld in observed.drain(..) {
                        match ld.key {
                            Some(key) if key < base => self.early.extend(keyed_violation(
                                *block,
                                &ld,
                                key,
                                reference_expected(Some(&*history), key, ld.exclusive),
                            )),
                            _ => kept.push(ld),
                        }
                    }
                    *observed = kept;
                }
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

        #[expect(clippy::disallowed_methods, reason = "sums do not depend on the order")]
        fn retained_events(&self) -> usize {
            self.stores.values().map(BTreeMap::len).sum::<usize>()
                + self.loads.values().map(Vec::len).sum::<usize>()
        }

        /// The bytes `Snap for Checker` writes, from verbatim observations.
        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.stores.save(&mut w);
            self.written.save(&mut w);
            self.loads.save(&mut w);
            self.n_events.save(&mut w);
            self.frontier.save(&mut w);
            self.horizon.save(&mut w);
            self.early.save(&mut w);
            self.horizon_accepts.save(&mut w);
            w.into_bytes()
        }
    }

    /// The latest store at or before `key` (strictly before, for an
    /// atomic's read half), by the ordered map's own range queries.
    fn reference_expected(
        stores: Option<&BTreeMap<(Epoch, Timestamp), Version>>,
        key: (Epoch, Timestamp),
        exclusive: bool,
    ) -> Version {
        let latest = stores.and_then(|m| {
            if exclusive {
                m.range(..key).next_back()
            } else {
                m.range(..=key).next_back()
            }
        });
        latest.map_or(Version::ZERO, |(_, v)| *v)
    }

    /// A seeded SplitMix64 stream.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            gtsc_trace::span::mix64(self.0) % n
        }

        fn pick<T: Copy>(&mut self, of: &[T]) -> T {
            of[self.below(of.len() as u64) as usize]
        }

        /// Below `n`, or one time in four within `n` of `u64::MAX`.
        fn wide(&mut self, n: u64) -> u64 {
            let base = if self.below(4) == 0 { u64::MAX - n } else { 0 };
            base + self.below(n)
        }
    }

    /// One random completion: loads, stores and atomics, keyed and not,
    /// over a few blocks, epochs and SMs, with versions that are mostly
    /// right and sometimes stale, future or phantom. SMs, epochs,
    /// timestamps, versions and cycles reach past 16 and 32 bits to the
    /// top of their types, so deltas wrap both ways.
    fn random_completion(rng: &mut Stream) -> (usize, Completion, Cycle) {
        const EPOCHS: [Epoch; 6] = [0, 1, 2, u32::MAX as Epoch, 1 << 32, Epoch::MAX];
        let sm = rng.pick(&[0, 1, 2, 3, usize::from(u16::MAX) + 1, usize::MAX]);
        let kind = rng.pick(&[
            AccessKind::Load,
            AccessKind::Load,
            AccessKind::Load,
            AccessKind::Store,
            AccessKind::Atomic,
        ]);
        let c = Completion {
            id: AccessId(0),
            warp: WarpId(0),
            kind,
            block: BlockAddr(rng.below(6)),
            version: Version(rng.wide(24)),
            ts: (rng.below(8) != 0).then(|| Timestamp(rng.wide(40))),
            epoch: rng.pick(&EPOCHS),
            prev: (kind == AccessKind::Atomic && rng.below(8) != 0).then(|| Version(rng.wide(24))),
        };
        (sm, c, Cycle(rng.wide(10_000)))
    }

    fn assert_agree(ch: &Checker, reference: &mut Reference, seed: u64) -> usize {
        assert_eq!(ch.n_events(), reference.n_events, "seed {seed}");
        assert_eq!(
            ch.retained_events(),
            reference.retained_events(),
            "seed {seed}"
        );
        for b in 0..6 {
            assert_eq!(
                ch.load_observations(BlockAddr(b)),
                reference.load_observations(BlockAddr(b)),
                "seed {seed}, block {b}"
            );
        }
        assert_eq!(bytes(ch), reference.snapshot(), "seed {seed}: snapshot");
        let want = reference.finish();
        assert_eq!(ch.finish(), want, "seed {seed}: finish");
        assert_eq!(ch.finish_capped(3), capped(&reference.finish(), 3));
        assert_eq!(ch.finish_capped(0), capped(&reference.finish(), usize::MAX));
        assert_eq!(
            ch.horizon_accepts(),
            reference.horizon_accepts,
            "seed {seed}"
        );
        want.len()
    }

    /// `finish_capped` from `finish`'s output: identical lines merged,
    /// then the cap; checks the record changed nothing the cap reads.
    fn capped(all: &[Violation], cap: usize) -> Vec<Violation> {
        let mut distinct: Vec<(Violation, usize)> = Vec::new();
        for v in all {
            match distinct.iter_mut().find(|(d, _)| d == v) {
                Some((_, n)) => *n += 1,
                None => distinct.push((v.clone(), 1)),
            }
        }
        let mut out: Vec<Violation> = distinct
            .into_iter()
            .map(|(mut v, n)| {
                if n > 1 {
                    v.0.push_str(&format!(" (×{n} identical)"));
                }
                v
            })
            .collect();
        if out.len() > cap {
            let extra = out.len() - cap;
            out.truncate(cap);
            out.push(Violation(format!(
                "…and {extra} more violation(s) suppressed (cap {cap}; raise \
                 GpuConfig::max_violations_reported to see all)"
            )));
        }
        out
    }

    #[test]
    fn coded_history_agrees_with_verbatim_observations() {
        let (mut accepted, mut violations) = (0, 0);
        for seed in 0..48u64 {
            let mut rng = Stream(seed);
            let (mut ch, mut reference) = (Checker::new(), Reference::default());
            for step in 0..400 {
                let (sm, c, now) = random_completion(&mut rng);
                ch.on_completion(sm, &c, now);
                reference.on_completion(sm, &c, now);
                if rng.below(40) == 0 {
                    ch.compact();
                    reference.compact();
                }
                if step % 100 == 99 {
                    assert_agree(&ch, &mut reference, seed);
                }
            }
            let image = bytes(&ch);
            let restored = Checker::load(&mut SnapReader::new(&image)).expect("restores");
            assert_eq!(bytes(&restored), image, "seed {seed}: re-save");
            violations += assert_agree(&restored, &mut reference, seed);
            accepted += ch.horizon_accepts();
        }
        assert!(accepted > 0, "no stream reached a compaction horizon");
        assert!(violations > 0, "no stream produced a violation");
    }
}
