//! Set-associative tag array with true-LRU replacement and pluggable
//! per-line metadata.

use gtsc_types::{BlockAddr, CacheGeometry};

/// One resident cache line: the block it holds plus protocol metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line<M> {
    /// Which block this line caches.
    pub block: BlockAddr,
    /// Protocol-specific state (timestamps, lease expiry, lock bits...).
    pub meta: M,
    last_use: u64,
}

/// A line that [`TagArray::fill`] displaced to make room.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine<M> {
    /// The displaced block.
    pub block: BlockAddr,
    /// Its metadata at eviction time (needed e.g. to fold `rts` into
    /// `mem_ts` per Figure 6 of the paper).
    pub meta: M,
}

/// A set-associative tag array with true-LRU replacement.
///
/// The array stores no data payload — the simulator tracks data as
/// [`gtsc_types::Version`]s inside the metadata. Replacement is true LRU
/// via a monotone use counter.
///
/// # Examples
///
/// ```
/// use gtsc_mem::TagArray;
/// use gtsc_types::{BlockAddr, CacheGeometry};
///
/// // Direct-mapped, 2 sets.
/// let mut t: TagArray<&str> = TagArray::new(CacheGeometry::new(256, 1, 128));
/// t.fill(BlockAddr(0), "a");
/// let evicted = t.fill(BlockAddr(2), "b").expect("same set, way conflict");
/// assert_eq!(evicted.meta, "a");
/// ```
#[derive(Debug, Clone)]
pub struct TagArray<M> {
    geom: CacheGeometry,
    sets: Vec<Vec<Option<Line<M>>>>,
    use_counter: u64,
}

impl<M> TagArray<M> {
    /// Creates an empty tag array with the given geometry.
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = (0..geom.n_sets())
            .map(|_| (0..geom.ways()).map(|_| None).collect())
            .collect();
        TagArray {
            geom,
            sets,
            use_counter: 0,
        }
    }

    /// The geometry this array was built with.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        self.geom.set_of(block)
    }

    /// Looks up `block` without updating LRU state.
    #[must_use]
    pub fn peek(&self, block: BlockAddr) -> Option<&Line<M>> {
        self.sets[self.set_of(block)]
            .iter()
            .flatten()
            .find(|l| l.block == block)
    }

    /// Looks up `block` and, on a hit, marks the line most-recently used.
    pub fn probe(&mut self, block: BlockAddr) -> Option<&Line<M>> {
        self.probe_mut(block).map(|l| &*l)
    }

    /// Mutable lookup; on a hit marks the line most-recently used.
    pub fn probe_mut(&mut self, block: BlockAddr) -> Option<&mut Line<M>> {
        let set = self.set_of(block);
        self.use_counter += 1;
        let stamp = self.use_counter;
        let found = self.sets[set]
            .iter_mut()
            .flatten()
            .find(|l| l.block == block);
        if let Some(l) = found {
            l.last_use = stamp;
            Some(l)
        } else {
            None
        }
    }

    /// Mutable access to a resident line *without* touching LRU state
    /// (for response handling that should not perturb replacement).
    pub fn peek_mut(&mut self, block: BlockAddr) -> Option<&mut Line<M>> {
        let set = self.set_of(block);
        self.sets[set]
            .iter_mut()
            .flatten()
            .find(|l| l.block == block)
    }

    /// Inserts `block` with `meta`, evicting the LRU line of the set if the
    /// set is full. If `block` is already resident its metadata is replaced
    /// in place (no eviction). Returns the displaced line, if any.
    pub fn fill(&mut self, block: BlockAddr, meta: M) -> Option<EvictedLine<M>> {
        match self.fill_if(block, meta, |_| true) {
            Ok(evicted) => evicted,
            Err(_) => unreachable!("unconditional fill cannot be refused"),
        }
    }

    /// Like [`TagArray::fill`] but only lines for which `evictable` returns
    /// `true` may be displaced. Returns `Err(meta)` (handing the metadata
    /// back) if the set is full of unevictable lines — the TC inclusive-L2
    /// replacement stall of Section II-D3.
    ///
    /// # Errors
    ///
    /// Returns the rejected metadata when no victim is evictable.
    pub fn fill_if(
        &mut self,
        block: BlockAddr,
        meta: M,
        evictable: impl Fn(&Line<M>) -> bool,
    ) -> Result<Option<EvictedLine<M>>, M> {
        let set = self.set_of(block);
        self.use_counter += 1;
        let stamp = self.use_counter;
        let ways = &mut self.sets[set];

        if let Some(slot) = ways.iter_mut().flatten().find(|l| l.block == block) {
            slot.meta = meta;
            slot.last_use = stamp;
            return Ok(None);
        }
        if let Some(empty) = ways.iter_mut().find(|w| w.is_none()) {
            *empty = Some(Line {
                block,
                meta,
                last_use: stamp,
            });
            return Ok(None);
        }
        // Choose the LRU line among evictable candidates.
        let victim_way = ways
            .iter()
            .enumerate()
            .filter(|(_, w)| w.as_ref().is_some_and(&evictable))
            .min_by_key(|(_, w)| w.as_ref().map(|l| l.last_use))
            .map(|(i, _)| i);
        match victim_way {
            Some(i) => {
                let old = ways[i].replace(Line {
                    block,
                    meta,
                    last_use: stamp,
                });
                Ok(old.map(|l| EvictedLine {
                    block: l.block,
                    meta: l.meta,
                }))
            }
            None => Err(meta),
        }
    }

    /// Removes `block` if resident, returning its line.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Line<M>> {
        let set = self.set_of(block);
        self.sets[set]
            .iter_mut()
            .find(|w| w.as_ref().is_some_and(|l| l.block == block))
            .and_then(Option::take)
    }

    /// Empties the whole array (kernel-boundary flush), handing each
    /// resident line to `each`; a caller that drops the lines passes
    /// `drop`, and nothing is allocated.
    pub fn flush(&mut self, each: impl FnMut(Line<M>)) {
        self.sets
            .iter_mut()
            .flatten()
            .filter_map(Option::take)
            .for_each(each);
    }

    /// Iterates over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &Line<M>> {
        self.sets.iter().flat_map(|s| s.iter().flatten())
    }

    /// Mutable iteration over all resident lines (used by the timestamp
    /// rollover reset of Section V-D).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Line<M>> {
        self.sets.iter_mut().flat_map(|s| s.iter_mut().flatten())
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.iter().flatten().count()).sum()
    }

    /// Whether no line is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

impl<M: Snap> Snap for Line<M> {
    fn save(&self, w: &mut SnapWriter) {
        self.block.save(w);
        self.meta.save(w);
        w.u64(self.last_use);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Line {
            block: Snap::load(r)?,
            meta: Snap::load(r)?,
            last_use: r.u64()?,
        })
    }
}

impl<M: Snap> TagArray<M> {
    /// Serializes the dynamic state (resident lines + LRU counter). The
    /// geometry is config-derived and must be re-supplied on restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.use_counter);
        self.sets.save(w);
    }

    /// Restores the dynamic state into an array of matching geometry.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] if the saved set/way shape differs
    /// from this array's geometry; any decoding error on corrupt input.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let use_counter = r.u64()?;
        let sets: Vec<Vec<Option<Line<M>>>> = Snap::load(r)?;
        if sets.len() != self.sets.len()
            || sets
                .iter()
                .zip(self.sets.iter())
                .any(|(a, b)| a.len() != b.len())
        {
            return Err(SnapshotError::Mismatch {
                what: "tag array geometry".to_owned(),
            });
        }
        self.use_counter = use_counter;
        self.sets = sets;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> TagArray<u32> {
        // 2 sets, 2 ways.
        TagArray::new(CacheGeometry::new(512, 2, 128))
    }

    #[test]
    fn fill_probe_roundtrip() {
        let mut t = tiny();
        assert!(t.fill(BlockAddr(4), 1).is_none());
        assert_eq!(t.probe(BlockAddr(4)).unwrap().meta, 1);
        assert!(t.probe(BlockAddr(6)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn refill_replaces_in_place() {
        let mut t = tiny();
        t.fill(BlockAddr(4), 1);
        assert!(t.fill(BlockAddr(4), 2).is_none());
        assert_eq!(t.probe(BlockAddr(4)).unwrap().meta, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = tiny();
        // Set 0 holds even blocks: 0, 2, 4 conflict (2 ways).
        t.fill(BlockAddr(0), 10);
        t.fill(BlockAddr(2), 20);
        t.probe(BlockAddr(0)); // 2 becomes LRU
        let ev = t.fill(BlockAddr(4), 30).expect("eviction");
        assert_eq!(ev.block, BlockAddr(2));
        assert!(t.peek(BlockAddr(0)).is_some());
        assert!(t.peek(BlockAddr(4)).is_some());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut t = tiny();
        t.fill(BlockAddr(0), 10);
        t.fill(BlockAddr(2), 20);
        let _ = t.peek(BlockAddr(0)); // not an LRU touch: 0 stays LRU
        let ev = t.fill(BlockAddr(4), 30).unwrap();
        assert_eq!(ev.block, BlockAddr(0));
    }

    #[test]
    fn fill_if_respects_filter() {
        let mut t = tiny();
        t.fill(BlockAddr(0), 10);
        t.fill(BlockAddr(2), 20);
        // Nothing evictable -> refused, metadata handed back.
        let refused = t.fill_if(BlockAddr(4), 30, |_| false);
        assert_eq!(refused.unwrap_err(), 30);
        // Only meta==20 evictable.
        let ok = t.fill_if(BlockAddr(4), 30, |l| l.meta == 20).unwrap();
        assert_eq!(ok.unwrap().block, BlockAddr(2));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = tiny();
        t.fill(BlockAddr(0), 1);
        t.fill(BlockAddr(1), 2);
        assert_eq!(t.invalidate(BlockAddr(0)).unwrap().meta, 1);
        assert!(t.invalidate(BlockAddr(0)).is_none());
        let mut flushed = Vec::new();
        t.flush(|line| flushed.push(line));
        assert_eq!(flushed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn set_stride_spreads_banked_blocks() {
        // Blocks of one bank (stride 8): 0, 8, 16, ... With stride-aware
        // indexing they fill distinct sets; with naive modulo they would
        // alias into set 0.
        let g = CacheGeometry::new(1024, 1, 128).with_set_stride(8); // 8 sets
        let mut t: TagArray<u32> = TagArray::new(g);
        for i in 0..8u64 {
            assert!(
                t.fill(BlockAddr(i * 8), i as u32).is_none(),
                "block {i} evicted early"
            );
        }
        assert_eq!(t.len(), 8, "all eight bank-local blocks resident");
    }

    #[test]
    fn peek_mut_edits_without_lru_touch() {
        let mut t = tiny();
        t.fill(BlockAddr(0), 1);
        t.fill(BlockAddr(2), 2);
        t.peek_mut(BlockAddr(0)).unwrap().meta = 99; // no LRU touch
        assert_eq!(t.peek(BlockAddr(0)).unwrap().meta, 99);
        let ev = t.fill(BlockAddr(4), 3).unwrap();
        assert_eq!(ev.block, BlockAddr(0), "peek_mut must not refresh LRU");
    }

    #[test]
    fn iter_mut_allows_global_rewrites() {
        let mut t = tiny();
        t.fill(BlockAddr(0), 1);
        t.fill(BlockAddr(1), 2);
        for line in t.iter_mut() {
            line.meta *= 10;
        }
        let metas: Vec<u32> = t.iter().map(|l| l.meta).collect();
        assert!(metas.contains(&10) && metas.contains(&20));
    }

    proptest! {
        /// Residency never exceeds capacity and a just-filled block is
        /// always resident afterwards.
        #[test]
        fn capacity_invariant(blocks in proptest::collection::vec(0u64..64, 1..200)) {
            let mut t = tiny();
            let capacity = t.geometry().n_sets() * t.geometry().ways();
            for b in blocks {
                let b = BlockAddr(b);
                t.fill(b, 0u32);
                prop_assert!(t.peek(b).is_some());
                prop_assert!(t.len() <= capacity);
            }
        }

        /// A line is only ever resident in the set its address maps to,
        /// and at most one copy exists.
        #[test]
        fn single_copy_invariant(blocks in proptest::collection::vec(0u64..32, 1..100)) {
            let mut t = tiny();
            for b in &blocks {
                t.fill(BlockAddr(*b), 0u32);
            }
            for b in 0u64..32 {
                let copies = t.iter().filter(|l| l.block == BlockAddr(b)).count();
                prop_assert!(copies <= 1);
            }
        }
    }
}
