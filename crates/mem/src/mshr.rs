//! Miss-status holding registers.
//!
//! GPGPU-Sim's MSHR table (Section II-A of the paper) allows a single
//! outstanding read request per cache block: the first miss to a block
//! allocates an entry and sends one request to the next level; later
//! misses to the same block *merge* into the entry and are serviced
//! together when the response returns. This is also where G-TSC's
//! request-combining policy (Section V-B) lives: merged waiters whose
//! `warp_ts` falls outside the returned lease re-issue a renewal.

use gtsc_types::{BlockAddr, FxHashMap};

/// Result of attempting to register a miss in the MSHR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAlloc {
    /// A fresh entry was allocated — the caller must send the request to
    /// the next cache level.
    AllocatedNew,
    /// Merged into an existing entry — a request is already in flight.
    Merged,
    /// The table (or the entry's merge capacity) is full: structural stall.
    Full,
}

/// A bounded MSHR table mapping blocks to lists of waiting requests.
///
/// `W` is the waiter payload (which warp is waiting, with which `warp_ts`,
/// load or store, ...). The table enforces both an entry limit and a
/// per-entry merge limit, matching GPGPU-Sim.
///
/// # Examples
///
/// ```
/// use gtsc_mem::{Mshr, MshrAlloc};
/// use gtsc_types::BlockAddr;
///
/// let mut m: Mshr<&str> = Mshr::new(2, 2);
/// assert_eq!(m.register(BlockAddr(1), "w0"), MshrAlloc::AllocatedNew);
/// assert_eq!(m.register(BlockAddr(1), "w1"), MshrAlloc::Merged);
/// assert_eq!(m.register(BlockAddr(1), "w2"), MshrAlloc::Full); // merge cap
/// let waiters = m.take(BlockAddr(1));
/// assert_eq!(waiters, vec!["w0", "w1"]);
/// m.recycle(waiters); // the next entry reuses the list's storage
/// ```
#[derive(Debug, Clone)]
pub struct Mshr<W> {
    entries: FxHashMap<BlockAddr, Vec<W>>,
    /// Emptied waiter lists of retired entries, handed back through
    /// [`Mshr::recycle`]: a fixed-size table reuses its registers, so a
    /// new entry takes one of these instead of allocating. At most
    /// `max_entries` are kept. Volatile, never snapshotted.
    spare: Vec<Vec<W>>,
    max_entries: usize,
    max_merges: usize,
}

impl<W> Mshr<W> {
    /// Creates a table with `max_entries` blocks tracked and up to
    /// `max_merges` waiters per block (the first requester counts).
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    #[must_use]
    pub fn new(max_entries: usize, max_merges: usize) -> Self {
        assert!(
            max_entries > 0 && max_merges > 0,
            "MSHR limits must be nonzero"
        );
        Mshr {
            entries: FxHashMap::default(),
            spare: Vec::new(),
            max_entries,
            max_merges,
        }
    }

    /// Registers a miss on `block` carrying `waiter`.
    pub fn register(&mut self, block: BlockAddr, waiter: W) -> MshrAlloc {
        if let Some(list) = self.entries.get_mut(&block) {
            if list.len() >= self.max_merges {
                return MshrAlloc::Full;
            }
            list.push(waiter);
            return MshrAlloc::Merged;
        }
        if self.entries.len() >= self.max_entries {
            return MshrAlloc::Full;
        }
        let mut list = self.spare.pop().unwrap_or_default();
        list.push(waiter);
        self.entries.insert(block, list);
        MshrAlloc::AllocatedNew
    }

    /// Whether [`Mshr::register`] would take a miss on `block` (merge it
    /// or allocate for it) rather than answer [`MshrAlloc::Full`].
    #[must_use]
    pub fn can_register(&self, block: BlockAddr) -> bool {
        match self.entries.get(&block) {
            Some(list) => list.len() < self.max_merges,
            None => self.entries.len() < self.max_entries,
        }
    }

    /// Whether an entry for `block` is outstanding.
    #[must_use]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.entries.contains_key(&block)
    }

    /// Removes the entry for `block` and returns its waiters in arrival
    /// order (empty if no entry existed). The list is the entry's own:
    /// hand it back through [`Mshr::recycle`] or [`Mshr::requeue`] once
    /// served, and the table stops allocating.
    pub fn take(&mut self, block: BlockAddr) -> Vec<W> {
        self.entries.remove(&block).unwrap_or_default()
    }

    /// Takes back a list [`Mshr::take`] handed out (whatever is still in
    /// it is dropped) for the next entry to reuse.
    pub fn recycle(&mut self, mut list: Vec<W>) {
        list.clear();
        if list.capacity() > 0 && self.spare.len() < self.max_entries {
            self.spare.push(list);
        }
    }

    /// Re-registers waiters on an *existing or new* entry without the
    /// "send request" contract — used when a returned lease did not cover
    /// every merged waiter and a renewal must be re-issued for the rest.
    /// Returns `true` if a new entry had to be allocated (caller sends the
    /// renewal request), `false` if merged into a live entry.
    ///
    /// Unlike [`Mshr::register`], this never refuses: re-queued waiters
    /// were already admitted once and dropping them would lose requests.
    pub fn requeue(&mut self, block: BlockAddr, mut waiters: Vec<W>) -> bool {
        match self.entries.get_mut(&block) {
            Some(list) => {
                list.append(&mut waiters);
                self.recycle(waiters);
                false
            }
            None => {
                self.entries.insert(block, waiters);
                true
            }
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether no further entry can be allocated.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.max_entries
    }

    /// Outstanding blocks, sorted: the table is hash-keyed, and callers
    /// walk this list on result-affecting paths (crash recovery drains
    /// waiters in this order), so raw map-iteration order must never
    /// leak out.
    #[must_use]
    pub fn blocks(&self) -> Vec<BlockAddr> {
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted before anything observes the order"
        )]
        let mut blocks: Vec<BlockAddr> = self.entries.keys().copied().collect();
        blocks.sort_unstable();
        blocks
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

impl<W: Snap> Mshr<W> {
    /// Serializes the outstanding entries (sorted by block for byte
    /// stability). The entry/merge limits are config-derived and come
    /// from the table being restored into.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.entries.save(w);
    }

    /// Restores outstanding entries into this table.
    ///
    /// # Errors
    ///
    /// Any decoding error on corrupt input.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.entries = Snap::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_merge_full_cycle() {
        let mut m: Mshr<u32> = Mshr::new(1, 8);
        assert!(m.can_register(BlockAddr(1)));
        assert_eq!(m.register(BlockAddr(1), 0), MshrAlloc::AllocatedNew);
        assert!(!m.can_register(BlockAddr(2)));
        assert_eq!(m.register(BlockAddr(2), 1), MshrAlloc::Full); // entry cap
        assert!(m.can_register(BlockAddr(1)));
        assert_eq!(m.register(BlockAddr(1), 2), MshrAlloc::Merged);
        assert_eq!(m.take(BlockAddr(1)), vec![0, 2]);
        assert!(m.is_empty());
        assert!(!m.contains(BlockAddr(1)));
    }

    #[test]
    fn take_missing_is_empty() {
        let mut m: Mshr<u32> = Mshr::new(4, 4);
        assert!(m.take(BlockAddr(9)).is_empty());
    }

    #[test]
    fn requeue_allocates_or_merges() {
        let mut m: Mshr<u32> = Mshr::new(2, 2);
        assert!(m.requeue(BlockAddr(3), vec![7, 8]));
        assert!(!m.requeue(BlockAddr(3), vec![9]));
        assert_eq!(m.take(BlockAddr(3)), vec![7, 8, 9]);
    }

    #[test]
    fn recycled_lists_are_reused_and_never_leak_waiters() {
        let mut m: Mshr<u32> = Mshr::new(2, 4);
        m.register(BlockAddr(1), 10);
        m.register(BlockAddr(1), 11);
        let mut list = m.take(BlockAddr(1));
        let storage = list.as_ptr();
        list.truncate(1); // served half-way: the rest must not resurface
        m.recycle(list);
        assert_eq!(m.register(BlockAddr(2), 20), MshrAlloc::AllocatedNew);
        let list = m.take(BlockAddr(2));
        assert_eq!(list, vec![20]);
        assert_eq!(
            list.as_ptr(),
            storage,
            "the retired entry's list is the new entry's"
        );
        // Bounded like the table: it never holds more lists than entries.
        for _ in 0..5 {
            m.recycle(Vec::with_capacity(4));
        }
        assert_eq!(m.spare.len(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_limits_rejected() {
        let _: Mshr<u32> = Mshr::new(0, 1);
    }

    proptest! {
        /// No waiter is ever lost or duplicated: everything successfully
        /// registered comes back from `take` exactly once.
        #[test]
        fn conservation(ops in proptest::collection::vec((0u64..8, 0u32..1000), 1..200)) {
            let mut m: Mshr<u32> = Mshr::new(4, 4);
            let mut admitted: Vec<u32> = Vec::new();
            let mut returned: Vec<u32> = Vec::new();
            for (i, (b, w)) in ops.iter().enumerate() {
                match m.register(BlockAddr(*b), *w) {
                    MshrAlloc::Full => {}
                    _ => admitted.push(*w),
                }
                if i % 5 == 4 {
                    returned.extend(m.take(BlockAddr(*b)));
                }
            }
            for b in m.blocks() {
                returned.extend(m.take(b));
            }
            admitted.sort_unstable();
            returned.sort_unstable();
            prop_assert_eq!(admitted, returned);
        }
    }
}
