//! What every private cache's store path shares.
//!
//! The L1 of every protocol in the paper's Figure 12 is write-through: a
//! store goes to the L2 carrying the version it publishes and completes
//! when a `BusWrAck` — or an atomic's ack — carrying that version comes
//! back (Section IV, Figures 3 and 7b). Protocols differ in what a load
//! may hit and in what the ack installs, not in how a store's version is
//! named or how its ack finds it. Those two are stated here once
//! (DESIGN.md §4.4):
//!
//! * [`VersionMint`] names each store's version: the one place its bit
//!   layout is written, with [`VersionMint::decode`] its one inverse;
//! * [`StoreBook`] holds the stores awaiting their ack, a FIFO per
//!   block, and [`StoreBook::take`] matches an ack to its store.
//!
//! Framing a store as a request and decoding its ack are
//! [`L1ToL2::store`](crate::L1ToL2::store) and
//! [`L2ToL1::as_store_ack`](crate::L2ToL1::as_store_ack). An L1 composes
//! these next to its tags and its load path; a protocol's own per-store
//! state rides in [`PendingStore::state`].

use std::collections::VecDeque;

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
use gtsc_types::{BlockAddr, FxHashMap, Version, WarpId};

use crate::api::{AccessId, AccessKind, Completion, MemAccess};

/// Where the SM field of a minted version starts.
const SM_SHIFT: u32 = 40;
/// Where the warp field starts; the per-warp store index sits below it.
const WARP_SHIFT: u32 = 28;

/// Names the versions one SM's stores publish:
/// `((sm + 1) << 40) | (warp << 28) | per-warp store index`.
///
/// The name depends on who stored and in which order, not on when the
/// store reached the L2, so a data-race-free workload leaves the same
/// memory image under every protocol and every timing. The SM field
/// starts at 1: no minted version is [`Version::ZERO`], the initial
/// contents of memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionMint {
    /// `sm_index + 1`, the version's top field.
    sm: u64,
    /// Stores minted so far, per warp slot.
    minted: Vec<u64>,
}

impl VersionMint {
    /// A mint for SM `sm_index` with `n_warps` counters; a warp beyond
    /// them gets its counter when it first stores.
    #[must_use]
    pub fn new(sm_index: usize, n_warps: usize) -> Self {
        VersionMint {
            sm: sm_index as u64 + 1,
            minted: vec![0; n_warps],
        }
    }

    /// The version `warp`'s next store publishes.
    #[inline]
    pub fn mint(&mut self, warp: WarpId) -> Version {
        let w = usize::from(warp.0);
        if w >= self.minted.len() {
            self.minted.resize(w + 1, 0);
        }
        self.minted[w] += 1;
        Version((self.sm << SM_SHIFT) | (u64::from(warp.0) << WARP_SHIFT) | self.minted[w])
    }

    /// Who minted `v`: `(sm_index, warp, n)` for that warp's `n`-th store,
    /// counting from 1. `None` for a version no mint names, such as the
    /// initial [`Version::ZERO`].
    #[must_use]
    pub fn decode(v: Version) -> Option<(usize, WarpId, u64)> {
        let sm = (v.0 >> SM_SHIFT).checked_sub(1)?;
        let warp = (v.0 >> WARP_SHIFT) & ((1 << (SM_SHIFT - WARP_SHIFT)) - 1);
        let nth = v.0 & ((1 << WARP_SHIFT) - 1);
        Some((
            usize::try_from(sm).ok()?,
            WarpId(u16::try_from(warp).ok()?),
            nth,
        ))
    }

    /// Writes the counters, as the `Vec<u64>` they are (DESIGN.md §14.1).
    /// The SM index is configuration, not state: the restoring L1 was
    /// built with it.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.minted.save(w);
    }

    /// Restores what [`save_state`](VersionMint::save_state) wrote into a
    /// mint built for the same SM and warp count.
    ///
    /// # Errors
    ///
    /// Any decoding error on corrupt input; [`SnapshotError::Mismatch`]
    /// if the image holds another number of counters.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let minted: Vec<u64> = Snap::load(r)?;
        if minted.len() != self.minted.len() {
            return Err(SnapshotError::Mismatch {
                what: "L1 version-counter table size".into(),
            });
        }
        self.minted = minted;
        Ok(())
    }
}

/// A load waiting inside an L1, in an MSHR entry or a per-block FIFO:
/// the SM's token and the issuing warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// Token of the waiting access.
    pub id: AccessId,
    /// Issuing warp.
    pub warp: WarpId,
}

impl Waiter {
    /// The waiter for `acc`.
    #[inline]
    #[must_use]
    pub fn of(acc: &MemAccess) -> Waiter {
        Waiter {
            id: acc.id,
            warp: acc.warp,
        }
    }

    /// The completion of this load, which read `version` of `block`. It
    /// carries no logical time and epoch 0; a timestamp protocol sets
    /// both.
    #[inline]
    #[must_use]
    pub fn loaded(self, block: BlockAddr, version: Version) -> Completion {
        Completion {
            id: self.id,
            warp: self.warp,
            kind: AccessKind::Load,
            block,
            version,
            ts: None,
            epoch: 0,
            prev: None,
        }
    }
}

gtsc_types::snap_fields!(Waiter { id, warp });

/// A store or atomic awaiting its ack. `state` is what the protocol
/// keeps per store beyond that (`()` where it keeps nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingStore<X> {
    /// Token of the store.
    pub id: AccessId,
    /// Issuing warp.
    pub warp: WarpId,
    /// [`AccessKind::Store`] or [`AccessKind::Atomic`].
    pub kind: AccessKind,
    /// The version the store publishes; its ack carries it back.
    pub version: Version,
    /// The protocol's own per-store state.
    pub state: X,
}

impl<X> PendingStore<X> {
    /// The store `acc`, publishing `version`.
    #[inline]
    #[must_use]
    pub fn new(acc: &MemAccess, version: Version, state: X) -> Self {
        PendingStore {
            id: acc.id,
            warp: acc.warp,
            kind: acc.kind,
            version,
            state,
        }
    }

    /// The completion of this store, acked for `block`; `prev` is what an
    /// atomic's read half observed. It carries no logical time and epoch
    /// 0; a timestamp protocol sets both.
    #[inline]
    #[must_use]
    pub fn acked(&self, block: BlockAddr, prev: Option<Version>) -> Completion {
        Completion {
            id: self.id,
            warp: self.warp,
            kind: self.kind,
            block,
            version: self.version,
            ts: None,
            epoch: 0,
            prev,
        }
    }
}

impl<X: Snap> Snap for PendingStore<X> {
    fn save(&self, w: &mut SnapWriter) {
        self.id.save(w);
        self.warp.save(w);
        self.kind.save(w);
        self.version.save(w);
        self.state.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(PendingStore {
            id: Snap::load(r)?,
            warp: Snap::load(r)?,
            kind: Snap::load(r)?,
            version: Snap::load(r)?,
            state: Snap::load(r)?,
        })
    }
}

/// The stores an L1 has sent and not yet seen acked: a FIFO per block,
/// in issue order. Acks may come back in any order (two banks' answers,
/// a retry's duplicate), so [`take`](StoreBook::take) matches by version.
///
/// A map of per-block queues, hashed — entries come and go with every
/// store — with the emptied queues kept for the next block. Walks whose
/// order could show go through [`blocks`](StoreBook::blocks), which
/// sorts; the rest are folds that cannot see the order.
#[derive(Debug)]
pub struct StoreBook<X> {
    by_block: FxHashMap<BlockAddr, VecDeque<PendingStore<X>>>,
    /// Emptied queues, reused by the next block with a store in flight.
    /// Volatile, never snapshotted.
    spare: Vec<VecDeque<PendingStore<X>>>,
}

impl<X> Default for StoreBook<X> {
    fn default() -> Self {
        StoreBook {
            by_block: FxHashMap::default(),
            spare: Vec::new(),
        }
    }
}

impl<X> StoreBook<X> {
    /// Books `store`, sent for `block`, behind the block's earlier ones.
    #[inline]
    pub fn push(&mut self, block: BlockAddr, store: PendingStore<X>) {
        let spare = &mut self.spare;
        self.by_block
            .entry(block)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back(store);
    }

    /// Removes and returns the store of `block` an ack for `version`
    /// completes. `None` if none is booked: the ack was delivered twice,
    /// or its store was already acked.
    #[inline]
    pub fn take(&mut self, block: BlockAddr, version: Version) -> Option<PendingStore<X>> {
        let q = self.by_block.get_mut(&block)?;
        let pos = q.iter().position(|s| s.version == version)?;
        let store = q.remove(pos);
        if q.is_empty() {
            self.spare.extend(self.by_block.remove(&block));
        }
        store
    }

    /// Whether no store awaits its ack.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_block.is_empty()
    }

    /// How many stores await their ack.
    #[must_use]
    pub fn len(&self) -> usize {
        // lint: allow(hash-iter): a sum does not depend on the order.
        self.by_block.values().map(VecDeque::len).sum()
    }

    /// The stores of `block`, oldest first.
    pub fn block_mut(&mut self, block: BlockAddr) -> impl Iterator<Item = &mut PendingStore<X>> {
        self.by_block.get_mut(&block).into_iter().flatten()
    }

    /// Every block with a store awaiting its ack, in address order.
    #[must_use]
    pub fn blocks(&self) -> Vec<BlockAddr> {
        // lint: allow(hash-iter): sorted below, before anyone sees the order.
        let mut blocks: Vec<BlockAddr> = self.by_block.keys().copied().collect();
        blocks.sort_unstable();
        blocks
    }

    /// The least `key` of any booked store; `None` with none booked.
    pub fn min_of<K: Ord>(&self, key: impl Fn(&PendingStore<X>) -> K) -> Option<K> {
        // lint: allow(hash-iter): a minimum does not depend on the order.
        self.by_block.values().flatten().map(key).min()
    }

    /// Applies `f` to every booked store. `f` is a `Fn`: it sees one store
    /// at a time and carries nothing from one to the next, so the order
    /// it is applied in cannot show.
    pub fn for_each_mut(&mut self, f: impl Fn(&mut PendingStore<X>)) {
        // lint: allow(hash-iter): each store is changed alone, in any order.
        self.by_block.values_mut().flatten().for_each(f);
    }
}

/// Written as the `FxHashMap<BlockAddr, VecDeque<PendingStore<X>>>` it
/// holds: blocks in sorted order, each queue oldest first.
impl<X: Snap> Snap for StoreBook<X> {
    fn save(&self, w: &mut SnapWriter) {
        self.by_block.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(StoreBook {
            by_block: Snap::load(r)?,
            spare: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use gtsc_types::SpanId;

    use super::*;

    fn store(id: u64, warp: u16, block: u64) -> MemAccess {
        MemAccess {
            id: AccessId(id),
            warp: WarpId(warp),
            kind: AccessKind::Store,
            block: BlockAddr(block),
            span: SpanId::NONE,
        }
    }

    fn bytes(save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn mint_counts_per_warp_and_decodes() {
        let mut m = VersionMint::new(3, 2);
        let a = m.mint(WarpId(1));
        let b = m.mint(WarpId(0));
        let c = m.mint(WarpId(1));
        assert_eq!(a, Version((4 << 40) | (1 << 28) | 1));
        assert_eq!(VersionMint::decode(a), Some((3, WarpId(1), 1)));
        assert_eq!(VersionMint::decode(b), Some((3, WarpId(0), 1)));
        assert_eq!(VersionMint::decode(c), Some((3, WarpId(1), 2)));
        assert_eq!(VersionMint::decode(Version::ZERO), None);
        // A warp beyond the table gets its counter on first use.
        let far = m.mint(WarpId(4095));
        assert_eq!(VersionMint::decode(far), Some((3, WarpId(4095), 1)));
        assert!([a, b, c, far].iter().all(|&v| v != Version::ZERO));
    }

    proptest::proptest! {
        /// `decode` inverts `mint` over the whole field ranges.
        #[test]
        fn decode_inverts_mint(sm in 0usize..1 << 20, warp in 0u16..4096, n in 1u64..200) {
            let mut m = VersionMint::new(sm, 0);
            let v = (0..n).map(|_| m.mint(WarpId(warp))).last().expect("n >= 1");
            proptest::prop_assert_eq!(VersionMint::decode(v), Some((sm, WarpId(warp), n)));
        }
    }

    #[test]
    fn take_matches_by_version_not_position() {
        let mut book = StoreBook::default();
        let block = BlockAddr(7);
        let (a, b) = (Version(10), Version(20));
        book.push(block, PendingStore::new(&store(1, 0, 7), a, ()));
        book.push(block, PendingStore::new(&store(2, 1, 7), b, ()));
        assert_eq!(book.len(), 2);
        // The younger store's ack comes back first.
        let got = book.take(block, b).expect("b booked");
        assert_eq!((got.id, got.warp), (AccessId(2), WarpId(1)));
        assert_eq!(book.take(block, a).map(|s| s.id), Some(AccessId(1)));
        assert!(book.is_empty());
    }

    #[test]
    fn unknown_or_repeated_acks_take_nothing() {
        let mut book = StoreBook::default();
        let block = BlockAddr(3);
        book.push(block, PendingStore::new(&store(1, 0, 3), Version(5), ()));
        assert!(book.take(block, Version(6)).is_none(), "unknown version");
        assert!(book.take(BlockAddr(4), Version(5)).is_none(), "other block");
        assert!(book.take(block, Version(5)).is_some());
        // The duplicate a lossy NoC delivers after a retry.
        assert!(book.take(block, Version(5)).is_none(), "already taken");
        assert!(book.is_empty());
    }

    #[test]
    fn emptied_queues_are_reused() {
        let mut book = StoreBook::default();
        book.push(
            BlockAddr(1),
            PendingStore::new(&store(1, 0, 1), Version(1), ()),
        );
        book.take(BlockAddr(1), Version(1));
        assert_eq!(book.spare.len(), 1, "the emptied queue is kept");
        let kept = book.spare[0].capacity();
        book.push(
            BlockAddr(2),
            PendingStore::new(&store(2, 0, 2), Version(2), ()),
        );
        assert!(book.spare.is_empty(), "and handed to the next block");
        assert_eq!(book.by_block[&BlockAddr(2)].capacity(), kept);
    }

    /// The book and the mint encode exactly as the map and the counter
    /// table they stand for, so an L1's checkpoint bytes do not move.
    #[test]
    fn snapshots_match_the_containers_they_replace() {
        let mut book = StoreBook::default();
        let mut map: FxHashMap<BlockAddr, VecDeque<PendingStore<(bool, u64)>>> =
            FxHashMap::default();
        let mut mint = VersionMint::new(1, 4);
        for (i, block) in [9u64, 2, 9, 5, 2, 9].into_iter().enumerate() {
            let acc = store(i as u64, (i % 3) as u16, block);
            let s = PendingStore::new(&acc, mint.mint(acc.warp), (i % 2 == 0, 7 * i as u64));
            book.push(acc.block, s);
            map.entry(acc.block).or_default().push_back(s);
        }
        assert_eq!(bytes(|w| book.save(w)), bytes(|w| map.save(w)));
        assert_eq!(
            bytes(|w| mint.save_state(w)),
            bytes(|w| vec![2u64, 2, 2, 0].save(w))
        );

        let image = bytes(|w| book.save(w));
        let back: StoreBook<(bool, u64)> =
            Snap::load(&mut SnapReader::new(&image)).expect("round trip");
        assert_eq!(bytes(|w| back.save(w)), image);
        let image = bytes(|w| mint.save_state(w));
        let mut twin = VersionMint::new(1, 4);
        twin.load_state(&mut SnapReader::new(&image))
            .expect("same size");
        assert_eq!(twin, mint);
        let mut other = VersionMint::new(1, 3);
        assert!(matches!(
            other.load_state(&mut SnapReader::new(&image)),
            Err(SnapshotError::Mismatch { .. })
        ));
    }
}
