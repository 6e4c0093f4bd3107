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
use gtsc_types::varint::{self, unzigzag, zigzag};
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

/// A store's or a load's logical `(epoch, timestamp)`.
type Key = (Epoch, Timestamp);

/// One block's history: every completion on it — loads and stores, keyed
/// or not — in one byte stream, each entry coded against the one before
/// it (DESIGN.md §15.6). An entry is a header byte — the keyed, store and
/// exclusive flags and "same SM / same epoch / same version" bits — then
/// varints: a load's SM when it changed, the epoch when it changed, zigzag
/// deltas of the timestamp and of a load's completion cycle, and a zigzag
/// delta of the version when it changed. A store carries no SM or cycle.
/// Deltas wrap, so every `u64` round-trips; an unkeyed entry leaves the
/// epoch and timestamp as they were. A compacted log starts with its
/// horizon. Every read decodes into the [`Views`] the checks use, so what
/// the checker reports, and the bytes it snapshots, are the views'.
#[derive(Debug, Default)]
struct BlockLog {
    bytes: Vec<u8>,
    /// The last entry's fields: what the next one is coded against.
    last: Coded,
    /// At or above the key of every store in the log: a store above it
    /// is new to the history without a look at the log.
    top: Key,
    /// Which snapshot sections list the block: [`IN_STORES`],
    /// [`IN_WRITTEN`], [`IN_LOADS`].
    flags: u8,
}

/// The fields an entry is coded against, as the encoder leaves them after
/// an entry and the decoder finds them before the next.
#[derive(Debug, Default, Clone, Copy)]
struct Coded {
    sm: usize,
    epoch: Epoch,
    ts: u64,
    version: u64,
    at: u64,
}

const KEYED: u8 = 1;
/// On a load: the read half of an atomic.
const EXCLUSIVE: u8 = 1 << 1;
/// On a store (the same bit): its version is not in the block's written
/// set — `compact` pruned an equal version, or a restore lists the set
/// apart.
const UNWRITTEN: u8 = EXCLUSIVE;
const SAME_SM: u8 = 1 << 2;
const SAME_EPOCH: u8 = 1 << 3;
const SAME_VERSION: u8 = 1 << 4;
const STORE: u8 = 1 << 5;
/// The compaction horizon, its epoch and timestamp whole: only ever the
/// first entry, and nothing is coded against it.
const HORIZON: u8 = 1 << 6;

/// The block had a keyed store: the snapshot's `stores` section lists it.
const IN_STORES: u8 = 1;
/// The block had a store: the `written` section lists it.
const IN_WRITTEN: u8 = 1 << 1;
/// The block had a load: the `loads` section lists it.
const IN_LOADS: u8 = 1 << 2;

/// One decoded entry of a [`BlockLog`].
enum Entry {
    Load(LoadObservation),
    /// A committed store: into the history at its key, if it has one, and
    /// into the written set if `written`.
    Store {
        key: Option<Key>,
        version: Version,
        written: bool,
    },
    Horizon(Key),
}

impl BlockLog {
    fn push_load(&mut self, ld: &LoadObservation) {
        let head = if ld.exclusive { EXCLUSIVE } else { 0 };
        self.put(head, ld.key, ld.version, Some((ld.sm, ld.at)));
        self.flags |= IN_LOADS;
    }

    /// Appends a store; whether its key is new to the history. A store at
    /// a key the history has replaces that key's version when the log is
    /// read, and is not a second store.
    fn push_store(&mut self, key: Option<Key>, version: Version, written: bool) -> bool {
        let new = key.is_some_and(|k| !self.has_store_at(k));
        let head = if written { STORE } else { STORE | UNWRITTEN };
        self.put(head, key, version, None);
        if let Some(key) = key {
            self.top = self.top.max(key);
            self.flags |= IN_STORES;
        }
        if written {
            self.flags |= IN_WRITTEN;
        }
        new
    }

    /// Whether the history has a store at `key`: only a key at or below
    /// the top one reads the log.
    fn has_store_at(&self, key: Key) -> bool {
        key <= self.top
            && self
                .entries()
                .any(|e| matches!(e, Entry::Store { key: Some(k), .. } if k == key))
    }

    /// Codes one entry. `load` is a load's SM and completion cycle.
    fn put(
        &mut self,
        mut head: u8,
        key: Option<Key>,
        version: Version,
        load: Option<(usize, Cycle)>,
    ) {
        let last = self.last;
        if load.is_some_and(|(sm, _)| sm == last.sm) {
            head |= SAME_SM;
        }
        if let Some((epoch, _)) = key {
            head |= KEYED;
            if epoch == last.epoch {
                head |= SAME_EPOCH;
            }
        }
        if version.0 == last.version {
            head |= SAME_VERSION;
        }
        let out = &mut self.bytes;
        out.push(head);
        if let Some((sm, _)) = load.filter(|_| head & SAME_SM == 0) {
            varint::put(out, sm as u64);
        }
        if let Some((epoch, ts)) = key {
            if head & SAME_EPOCH == 0 {
                varint::put(out, epoch);
            }
            varint::put(out, zigzag(ts.0.wrapping_sub(last.ts)));
            self.last.epoch = epoch;
            self.last.ts = ts.0;
        }
        if let Some((sm, at)) = load {
            varint::put(out, zigzag(at.0.wrapping_sub(last.at)));
            self.last.sm = sm;
            self.last.at = at.0;
        }
        if head & SAME_VERSION == 0 {
            varint::put(out, zigzag(version.0.wrapping_sub(last.version)));
        }
        self.last.version = version.0;
    }

    /// Puts `horizon` in front of the log, in place of none.
    fn put_horizon(&mut self, (epoch, ts): Key) {
        let len = self.bytes.len();
        self.bytes.push(HORIZON);
        varint::put(&mut self.bytes, epoch);
        varint::put(&mut self.bytes, ts.0);
        let n = self.bytes.len() - len;
        self.bytes.rotate_right(n);
    }

    /// The key `compact` pruned the block's stores up to: keyed loads
    /// below it can no longer be validated exactly.
    fn horizon(&self) -> Option<Key> {
        if self.bytes.first()? & HORIZON == 0 {
            return None;
        }
        match self.entries().next() {
            Some(Entry::Horizon(h)) => Some(h),
            _ => None,
        }
    }

    fn entries(&self) -> Entries<'_> {
        Entries {
            bytes: &self.bytes,
            at: 0,
            last: Coded::default(),
        }
    }

    /// Decodes the log: its horizon, history and written set into `views`,
    /// and each load, in order, to `load`.
    fn decode(&self, views: &mut Views, mut load: impl FnMut(LoadObservation)) {
        views.horizon = None;
        views.history.0.clear();
        views.written.0.clear();
        for entry in self.entries() {
            match entry {
                Entry::Load(ld) => load(ld),
                Entry::Store {
                    key,
                    version,
                    written,
                } => {
                    if let Some(key) = key {
                        views.history.insert(key, version);
                    }
                    if written {
                        views.written.insert(version);
                    }
                }
                Entry::Horizon(h) => views.horizon = Some(h),
            }
        }
    }

    /// Decodes the whole log into `views`.
    fn read(&self, views: &mut Views) {
        let mut loads = std::mem::take(&mut views.loads);
        loads.clear();
        self.decode(views, |ld| loads.push(ld));
        views.loads = loads;
    }

    /// A log that reads as `views`, listed in the sections `flags` lists:
    /// the horizon, the history as stores that leave the written set
    /// alone, the written set as unkeyed stores, then the loads.
    fn recode(views: &Views, flags: u8) -> BlockLog {
        let mut log = BlockLog::default();
        if let Some(horizon) = views.horizon {
            log.put_horizon(horizon);
        }
        for &(key, version) in &views.history.0 {
            log.push_store(Some(key), version, false);
        }
        for &version in &views.written.0 {
            log.push_store(None, version, true);
        }
        for ld in &views.loads {
            log.push_load(ld);
        }
        log.flags |= flags;
        log
    }
}

/// Decodes a [`BlockLog`] front to back.
struct Entries<'a> {
    bytes: &'a [u8],
    at: usize,
    last: Coded,
}

impl Entries<'_> {
    /// The LEB128 varint at `at`. The bytes are the log's own, so the
    /// varint is whole.
    #[inline]
    fn varint(&mut self) -> u64 {
        varint::get(self.bytes, &mut self.at)
    }
}

impl Iterator for Entries<'_> {
    type Item = Entry;

    #[inline]
    fn next(&mut self) -> Option<Entry> {
        let head = *self.bytes.get(self.at)?;
        self.at += 1;
        if head & HORIZON != 0 {
            let epoch = self.varint();
            return Some(Entry::Horizon((epoch, Timestamp(self.varint()))));
        }
        let load = head & STORE == 0;
        if load && head & SAME_SM == 0 {
            self.last.sm = self.varint() as usize;
        }
        let key = (head & KEYED != 0).then(|| {
            if head & SAME_EPOCH == 0 {
                self.last.epoch = self.varint();
            }
            self.last.ts = self.last.ts.wrapping_add(unzigzag(self.varint()));
            (self.last.epoch, Timestamp(self.last.ts))
        });
        if load {
            self.last.at = self.last.at.wrapping_add(unzigzag(self.varint()));
        }
        if head & SAME_VERSION == 0 {
            self.last.version = self.last.version.wrapping_add(unzigzag(self.varint()));
        }
        let version = Version(self.last.version);
        Some(if load {
            Entry::Load(LoadObservation {
                key,
                version,
                at: Cycle(self.last.at),
                sm: self.last.sm,
                exclusive: head & EXCLUSIVE != 0,
            })
        } else {
            Entry::Store {
                key,
                version,
                written: head & UNWRITTEN == 0,
            }
        })
    }
}

/// One block's history as the checks read it, decoded from its
/// [`BlockLog`] into buffers reused from block to block.
#[derive(Debug, Default)]
struct Views {
    horizon: Option<Key>,
    history: History,
    written: VersionSet,
    /// The observed loads, in completion order.
    loads: Vec<LoadObservation>,
}

/// One block's committed stores, sorted by `(epoch, wts)`. Keys arrive
/// nearly in order, so an insert is nearly always a push; reads are
/// binary searches.
#[derive(Debug, Default)]
struct History(Vec<(Key, Version)>);

impl History {
    /// Stores `version` at `key`, replacing the version at an equal key.
    fn insert(&mut self, key: Key, version: Version) {
        let i = self.0.partition_point(|&(k, _)| k < key);
        match self.0.get_mut(i) {
            Some(entry) if entry.0 == key => entry.1 = version,
            _ => self.0.insert(i, (key, version)),
        }
    }

    /// The latest store strictly below `key`, or at or below it when
    /// `inclusive`.
    fn latest(&self, key: Key, inclusive: bool) -> Option<&(Key, Version)> {
        let i = self
            .0
            .partition_point(|&(k, _)| k < key || (inclusive && k == key));
        self.0[..i].last()
    }

    /// The version a load at `key` must return: the latest store at or
    /// before its logical time (strictly before, for an atomic's read
    /// half), or the initial contents.
    fn expected(&self, key: Key, exclusive: bool) -> Version {
        self.latest(key, !exclusive)
            .map_or(Version::ZERO, |&(_, v)| v)
    }

    /// Reads the `BTreeMap` image a snapshot holds, as the map restored
    /// it: sorted, the later of two equal keys kept.
    fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.0.clear();
        for _ in 0..r.seq_len(1)? {
            let key = Snap::load(r)?;
            self.insert(key, Snap::load(r)?);
        }
        Ok(())
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

    /// Reads the hash-set image a snapshot holds, as the set restored it.
    fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.0.clear();
        for _ in 0..r.seq_len(1)? {
            self.0.push(Snap::load(r)?);
        }
        self.0.sort_unstable();
        self.0.dedup();
        Ok(())
    }
}

/// What a [`Checker`] holds, as [`Checker::footprint`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerFootprint {
    /// Blocks with a record.
    pub blocks: usize,
    /// Observed loads retained.
    pub loads: usize,
    /// Committed stores retained.
    pub stores: usize,
    /// Bytes the records take: the table's capacity times its entry size,
    /// plus every coded log's heap capacity (DESIGN.md §15.6).
    pub bytes: usize,
}

/// Collects load/store completions during a run and validates them at the
/// end (validation is deferred because a load's producing store may
/// complete — from the checker's viewpoint — after the load).
#[derive(Debug, Default)]
pub struct Checker {
    /// Each block's history, one record a block. Hashed — every completion
    /// probes it once, nothing walks it per completion — and whatever does
    /// walk it (`finish`, `compact`, a snapshot) goes in block order, so
    /// violation reports come out in a deterministic order (the
    /// fault-injection tests compare reports byte for byte).
    blocks: FxHashMap<BlockAddr, BlockLog>,
    /// Loads and stores retained in `blocks`, kept as they change so that
    /// [`Checker::retained_events`] does not walk them (not saved: a
    /// restore recounts).
    n_loads: usize,
    n_stores: usize,
    n_events: u64,
    /// Highest completion key observed per SM (drives [`Checker::compact`]).
    frontier: FxHashMap<usize, Key>,
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
        let key = c.ts.map(|ts| (c.epoch, ts));
        if let Some(key) = key {
            let f = self.frontier.entry(sm).or_insert(key);
            *f = (*f).max(key);
        }
        let log = self.blocks.entry(c.block).or_default();
        if c.kind != AccessKind::Load {
            // A store, or an atomic's write half: a store at the assigned wts.
            self.n_stores += usize::from(log.push_store(key, c.version, true));
        }
        let observed = match c.kind {
            AccessKind::Store => None,
            // The read half observed `prev` immediately before the write.
            AccessKind::Atomic => c.prev.map(|prev| (prev, true)),
            AccessKind::Load => Some((c.version, false)),
        };
        if let Some((version, exclusive)) = observed {
            if key.is_some_and(|k| log.horizon().is_some_and(|h| k < h)) {
                // The stores this load could legally observe were pruned
                // by `compact`: `finish` accepts it leniently.
                self.horizon_accepts += 1;
            }
            log.push_load(&LoadObservation {
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
        let mut views = Views::default();
        if let Some(log) = self.blocks.get(&block) {
            log.read(&mut views);
        }
        views.loads.sort_by_key(|l| l.at);
        views.loads
    }

    /// Versions stored to `block`, in `(epoch, wts)` order (timestamp
    /// protocols only).
    #[must_use]
    pub fn store_order(&self, block: BlockAddr) -> Vec<Version> {
        let mut views = Views::default();
        if let Some(log) = self.blocks.get(&block) {
            log.read(&mut views);
        }
        views.history.0.iter().map(|&(_, v)| v).collect()
    }

    /// Validates all collected events; returns every violation found.
    #[must_use]
    pub fn finish(&self) -> Vec<Violation> {
        let mut out = self.early.clone();
        let mut views = Views::default();
        for (block, log) in sorted_logs(&self.blocks) {
            if log.flags & IN_LOADS == 0 {
                continue;
            }
            log.read(&mut views);
            for ld in &views.loads {
                match ld.key {
                    Some(key) => {
                        if views.horizon.is_some_and(|h| key < h) {
                            // Pruned by `compact`: accepted leniently,
                            // counted on arrival.
                            continue;
                        }
                        let expected = views.history.expected(key, ld.exclusive);
                        out.extend(keyed_violation(block, ld, key, expected));
                    }
                    None => {
                        // Functional fallback: the version must exist.
                        let known =
                            ld.version == Version::ZERO || views.written.contains(ld.version);
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

    /// The blocks, retained loads and stores, and the bytes of the records
    /// (`profile_report`'s `checker:` line). Decodes every log, where
    /// [`Checker::retained_events`] reads running counts.
    #[must_use]
    pub fn footprint(&self) -> CheckerFootprint {
        let mut views = Views::default();
        #[expect(clippy::disallowed_methods, reason = "sums do not depend on the order")]
        let (loads, stores, logs) = self.blocks.values().fold((0, 0, 0), |(n, m, bytes), log| {
            log.read(&mut views);
            (
                n + views.loads.len(),
                m + views.history.0.len(),
                bytes + log.bytes.capacity(),
            )
        });
        let table = self.blocks.capacity() * std::mem::size_of::<(BlockAddr, BlockLog)>();
        CheckerFootprint {
            blocks: self.blocks.len(),
            loads,
            stores,
            bytes: table + logs,
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
    /// strictly below the base are pruned, their versions with them. The
    /// base key is remembered as the block's *horizon*; a keyed load that
    /// later arrives below it
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
        let mut views = Views::default();
        for block in sorted_blocks(&self.blocks) {
            let log = self.blocks.get_mut(&block).expect("listed above");
            if log.flags & IN_STORES == 0 {
                continue;
            }
            log.read(&mut views);
            let Some(&(base, _)) = views.history.latest(visible, true) else {
                continue;
            };
            let (history, early) = (&views.history, &mut self.early);
            let before = views.loads.len();
            views.loads.retain(|ld| match ld.key {
                Some(key) if key < base => {
                    let expected = history.expected(key, ld.exclusive);
                    early.extend(keyed_violation(block, ld, key, expected));
                    false
                }
                _ => true,
            });
            self.n_loads -= before - views.loads.len();
            // Retain the base store itself: it is the expected value for
            // every remaining load at or above the horizon. A pruned
            // store's version leaves the written set even when a kept
            // store wrote it too.
            let below = views.history.0.partition_point(|&(k, _)| k < base);
            self.n_stores -= below;
            for (_, v) in views.history.0.drain(..below) {
                views.written.remove(v);
            }
            views.horizon = Some(base);
            *log = BlockLog::recode(&views, log.flags);
        }
    }
}

/// The records in address order: the only order in which anything walks
/// them.
fn sorted_logs(blocks: &FxHashMap<BlockAddr, BlockLog>) -> Vec<(BlockAddr, &BlockLog)> {
    #[expect(
        clippy::disallowed_methods,
        reason = "sorted before anything observes the order"
    )]
    let mut logs: Vec<(BlockAddr, &BlockLog)> = blocks.iter().map(|(&b, log)| (b, log)).collect();
    logs.sort_unstable_by_key(|&(b, _)| b);
    logs
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

/// The record of `block` for a snapshot section that lists it under
/// `flag`; a block a section lists twice is malformed.
fn listed<'a>(
    blocks: &'a mut FxHashMap<BlockAddr, BlockLog>,
    r: &mut SnapReader<'_>,
    flag: u8,
) -> Result<&'a mut BlockLog, SnapshotError> {
    let block = BlockAddr::load(r)?;
    let log = blocks.entry(block).or_default();
    if log.flags & flag != 0 {
        return Err(SnapshotError::Malformed {
            context: format!("checker lists {block} twice"),
        });
    }
    log.flags |= flag;
    Ok(log)
}

// A checker is written as the maps it once kept — `stores` (a `BTreeMap`
// per block), `written` (a hash set per block), `loads` (the observations
// per block), then `horizon` — so its bytes do not depend on how it keeps
// its history (DESIGN.md §15.6). Each section is written from the records
// in block order, a block decoded at a time, and a restore codes each
// section back into the records. The running counts are not saved: a
// restore recounts them.
impl Snap for Checker {
    fn save(&self, w: &mut SnapWriter) {
        let logs = sorted_logs(&self.blocks);
        let count = |flag: u8| logs.iter().filter(|(_, log)| log.flags & flag != 0).count();
        // One decode of each block feeds all three sections. The loads,
        // the bulk of them, go straight into `w`; the stores and written
        // sections, a few words a store, are gathered beside it and put
        // in front of the loads once every block is written.
        let (mut stores, mut written) = (SnapWriter::new(), SnapWriter::new());
        stores.usize(count(IN_STORES));
        written.usize(count(IN_WRITTEN));
        let at = w.len();
        w.usize(count(IN_LOADS));
        let mut horizons = BTreeMap::new();
        let mut views = Views::default();
        for &(block, log) in &logs {
            if log.flags & IN_LOADS != 0 {
                // The count goes in once the block's loads are written.
                block.save(w);
                let n_at = w.len();
                w.usize(0);
                let mut n = 0;
                log.decode(&mut views, |ld| {
                    ld.save(w);
                    n += 1;
                });
                w.set_u64(n_at, n);
            } else {
                log.decode(&mut views, drop);
            }
            if log.flags & IN_STORES != 0 {
                block.save(&mut stores);
                views.history.0.save(&mut stores);
            }
            if log.flags & IN_WRITTEN != 0 {
                block.save(&mut written);
                views.written.0.save(&mut written);
            }
            if let Some(horizon) = views.horizon {
                horizons.insert(block, horizon);
            }
        }
        stores.bytes(&written.into_bytes());
        w.insert(at, &stores.into_bytes());
        self.n_events.save(w);
        self.frontier.save(w);
        horizons.save(w);
        self.early.save(w);
        self.horizon_accepts.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut checker = Checker::default();
        let blocks = &mut checker.blocks;
        let mut views = Views::default();
        for _ in 0..r.seq_len(2)? {
            let log = listed(blocks, r, IN_STORES)?;
            views.history.load_into(r)?;
            for &(key, version) in &views.history.0 {
                log.push_store(Some(key), version, false);
            }
            checker.n_stores += views.history.0.len();
        }
        for _ in 0..r.seq_len(2)? {
            let log = listed(blocks, r, IN_WRITTEN)?;
            views.written.load_into(r)?;
            for &version in &views.written.0 {
                log.push_store(None, version, true);
            }
        }
        for _ in 0..r.seq_len(2)? {
            let log = listed(blocks, r, IN_LOADS)?;
            let n = r.seq_len(1)?;
            for _ in 0..n {
                log.push_load(&LoadObservation::load(r)?);
            }
            checker.n_loads += n;
        }
        checker.n_events = Snap::load(r)?;
        checker.frontier = Snap::load(r)?;
        for _ in 0..r.seq_len(2)? {
            let block = BlockAddr::load(r)?;
            let horizon = Key::load(r)?;
            let log = blocks.entry(block).or_default();
            if log.horizon().is_some() {
                return Err(SnapshotError::Malformed {
                    context: format!("checker lists the horizon of {block} twice"),
                });
            }
            log.put_horizon(horizon);
        }
        checker.early = Snap::load(r)?;
        checker.horizon_accepts = Snap::load(r)?;
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

    /// Entries at the extremes the coding must carry: SMs and epochs past
    /// any narrower width, `u64::MAX` timestamps, versions and cycles,
    /// cycles and timestamps going backwards, unkeyed entries between
    /// keyed ones, stores between loads, and runs of unchanged fields.
    #[test]
    fn block_log_round_trips_at_the_extremes() {
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
        // A store after every load but the last: keyed at the extremes,
        // unkeyed, and one outside the written set.
        // (key, version, into the written set)
        type Stored = (Option<(Epoch, u64)>, u64, bool);
        let stores: [Stored; 9] = [
            (Some((Epoch::MAX, u64::MAX)), u64::MAX, true),
            (None, 0, true),
            (Some((0, 0)), 0, false),
            (Some((wide_epoch, 1)), 1, true),
            (None, u64::MAX, true),
            (Some((1, 40)), 9, true),
            (Some((0, 3)), 3, true),
            (None, 3, true),
            (Some((0, 0)), 8, true),
        ];
        let (mut log, mut map, mut written) = (BlockLog::default(), BTreeMap::new(), Vec::new());
        for (i, ld) in loads.iter().enumerate() {
            log.push_load(ld);
            let Some(&(key, version, into_written)) = stores.get(i) else {
                continue;
            };
            let key = key.map(|(epoch, ts)| (epoch, Timestamp(ts)));
            let new = log.push_store(key, Version(version), into_written);
            if let Some(key) = key {
                assert_eq!(new, map.insert(key, Version(version)).is_none(), "{key:?}");
            }
            if into_written {
                written.push(Version(version));
            }
        }
        written.sort_unstable();
        written.dedup();
        let mut views = Views::default();
        log.read(&mut views);
        assert_eq!(views.loads, loads);
        let entries: Vec<_> = map.into_iter().collect();
        assert_eq!(views.history.0, entries);
        assert_eq!(views.written.0, written);
        assert_eq!(views.horizon, None);
        // A horizon put in front leaves every entry after it as it was.
        log.put_horizon((Epoch::MAX, Timestamp(u64::MAX)));
        assert_eq!(log.horizon(), Some((Epoch::MAX, Timestamp(u64::MAX))));
        log.read(&mut views);
        assert_eq!(
            (views.loads.len(), views.history.0.len()),
            (loads.len(), entries.len())
        );
        // A load repeating its predecessor a cycle later is three bytes
        // (the header and two one-byte deltas) where a record was 32.
        let before = log.bytes.len();
        log.push_load(&LoadObservation {
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
            history.insert(key, Version(v));
            map.insert(key, Version(v));
        }
        let entries: Vec<_> = map.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(history.0, entries);
        assert_eq!(bytes(&history.0), bytes(&map));
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
        let mut restored = History::default();
        restored
            .load_into(&mut SnapReader::new(&bytes(&arrived)))
            .expect("restores");
        assert_eq!(restored.0, entries);
    }

    #[test]
    fn version_set_restores_as_the_hash_set_did() {
        let arrived: Vec<Version> = [9, 3, u64::MAX, 3, 0, 7].map(Version).into();
        let set: FxHashSet<Version> = arrived.iter().copied().collect();
        let mut restored = VersionSet::default();
        restored
            .load_into(&mut SnapReader::new(&bytes(&arrived)))
            .expect("restores");
        assert_eq!(bytes(&restored.0), bytes(&set));
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

    /// A keyed store at a key the block's history already has replaces
    /// that store's version and is not a second store; the version it
    /// replaced stays written. The key lies below the block's top one, so
    /// the log is read to find it.
    #[test]
    fn a_store_at_a_key_the_block_has_replaces_it_and_is_not_counted_again() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 10, 100, 0), Cycle(1));
        ch.on_completion(0, &store(5, 20, 200, 0), Cycle(2));
        assert_eq!(ch.retained_events(), 2);
        ch.on_completion(0, &store(5, 10, 150, 0), Cycle(3));
        assert_eq!(ch.retained_events(), 2);
        assert_eq!(ch.footprint().stores, 2);
        assert_eq!(
            ch.store_order(BlockAddr(5)),
            vec![Version(150), Version(200)]
        );
        // A new key below the top one is a store of its own.
        ch.on_completion(0, &store(5, 15, 175, 0), Cycle(4));
        assert_eq!(ch.retained_events(), 3);
        ch.on_completion(1, &load(5, 12, 150, 0), Cycle(5));
        let mut unkeyed = load(5, 0, 100, 0);
        unkeyed.ts = None;
        ch.on_completion(1, &unkeyed, Cycle(6));
        assert!(ch.finish().is_empty(), "{:?}", ch.finish());
    }

    /// `compact` removes a pruned store's version from the written set
    /// even when a kept store wrote the same version: the recoded log
    /// keeps the kept store in the history and out of the set.
    #[test]
    fn compact_drops_a_pruned_version_a_kept_store_also_wrote() {
        let mut ch = Checker::new();
        ch.on_completion(0, &store(5, 10, 100, 0), Cycle(1));
        ch.on_completion(0, &store(5, 20, 100, 0), Cycle(2));
        ch.on_completion(0, &store(5, 30, 300, 0), Cycle(3));
        // Frontiers: sm0 = (0,30), sm1 = (0,25) ⇒ base = the store at 20.
        ch.on_completion(1, &load(5, 25, 100, 0), Cycle(4));
        ch.compact();
        assert_eq!(
            ch.store_order(BlockAddr(5)),
            vec![Version(100), Version(300)]
        );
        let mut unkeyed = load(5, 0, 100, 0);
        unkeyed.ts = None;
        ch.on_completion(1, &unkeyed, Cycle(5));
        let v = ch.finish();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].0.contains("phantom"), "{:?}", v[0]);
        // The snapshot lists the block's written set without the version,
        // and a restore reads it back that way.
        let restored = Checker::load(&mut SnapReader::new(&bytes(&ch))).expect("restores");
        assert_eq!(restored.finish(), v);
        assert_eq!(bytes(&restored), bytes(&ch));
        // A later store writes the version again.
        ch.on_completion(0, &store(5, 40, 100, 0), Cycle(6));
        assert!(ch.finish().is_empty());
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
