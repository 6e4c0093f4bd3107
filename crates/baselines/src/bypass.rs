//! The no-L1 baseline ("BL"): the private cache is disabled and every
//! global access is performed at the shared L2 — how current GPUs provide
//! coherence (Section I). There are no tags and no MSHRs on the SM side;
//! each access crosses the NoC individually.

use std::collections::VecDeque;

use gtsc_protocol::msg::{L1ToL2, L2ToL1, ReadReq, WriteReq};
use gtsc_protocol::{
    AccessKind, Completion, L1Controller, L1Outcome, MemAccess, PendingStore, StoreBook,
    VersionMint, Waiter,
};
use gtsc_types::{BlockAddr, CacheStats, Cycle, FxHashMap, Timestamp};

/// A pass-through "L1" that forwards every access to the L2.
///
/// # Examples
///
/// ```
/// use gtsc_baselines::BypassL1;
/// use gtsc_protocol::{AccessId, AccessKind, L1Controller, L1Outcome, MemAccess};
/// use gtsc_types::{BlockAddr, Cycle, WarpId};
///
/// let mut l1 = BypassL1::new(0);
/// let acc = MemAccess {
///     id: AccessId(1),
///     warp: WarpId(0),
///     kind: AccessKind::Load,
///     block: BlockAddr(3),
///     span: gtsc_types::SpanId::NONE,
/// };
/// assert!(matches!(l1.access(acc, Cycle(0)), L1Outcome::Queued));
/// assert!(l1.take_request().is_some(), "every access crosses the NoC");
/// ```
#[derive(Debug)]
pub struct BypassL1 {
    /// FIFO of outstanding loads per block (each `BusRd` yields one fill).
    read_waiters: FxHashMap<BlockAddr, VecDeque<Waiter>>,
    stores: StoreBook<()>,
    out: VecDeque<L1ToL2>,
    /// What the latest `on_response` completed: emptied on entry, lent
    /// out until the next call (see `L1Outcome::Reject`).
    done: Vec<Completion>,
    mint: VersionMint,
    stats: CacheStats,
}

impl BypassL1 {
    /// Creates a pass-through controller for SM `sm_index`.
    #[must_use]
    pub fn new(sm_index: usize) -> Self {
        BypassL1 {
            read_waiters: FxHashMap::default(),
            stores: StoreBook::default(),
            out: VecDeque::new(),
            done: Vec::new(),
            mint: VersionMint::new(sm_index, 0),
            stats: CacheStats::default(),
        }
    }
}

impl L1Controller for BypassL1 {
    fn access(&mut self, acc: MemAccess, _now: Cycle) -> L1Outcome {
        self.stats.accesses += 1;
        self.stats.cold_misses += 1; // every access goes below
        match acc.kind {
            AccessKind::Load => {
                self.read_waiters
                    .entry(acc.block)
                    .or_default()
                    .push_back(Waiter::of(&acc));
                self.out.push_back(L1ToL2::Read(ReadReq {
                    block: acc.block,
                    wts: Timestamp(0),
                    warp_ts: Timestamp(0),
                    epoch: 0,
                    span: acc.span,
                }));
            }
            AccessKind::Store | AccessKind::Atomic => {
                self.stats.stores += 1;
                let version = self.mint.mint(acc.warp);
                self.stores
                    .push(acc.block, PendingStore::new(&acc, version, ()));
                let req = WriteReq {
                    block: acc.block,
                    warp_ts: Timestamp(0),
                    version,
                    epoch: 0,
                    span: acc.span,
                };
                self.out.push_back(L1ToL2::store(acc.kind, req));
            }
        }
        L1Outcome::Queued
    }

    fn on_response(&mut self, msg: L2ToL1, _now: Cycle) -> &[Completion] {
        self.done.clear();
        if let Some((a, prev)) = msg.as_store_ack() {
            let acked = self.stores.take(a.block, a.version);
            self.done.extend(acked.map(|s| s.acked(a.block, prev)));
        } else if let L2ToL1::Fill(f) = msg {
            if let Some(q) = self.read_waiters.get_mut(&f.block) {
                let served = q.pop_front();
                self.done
                    .extend(served.map(|w| w.loaded(f.block, f.version)));
                if q.is_empty() {
                    self.read_waiters.remove(&f.block);
                }
            }
        }
        &self.done
    }

    fn take_request(&mut self) -> Option<L1ToL2> {
        self.out.pop_front()
    }

    fn tick(&mut self, _now: Cycle) -> &[Completion] {
        &[]
    }

    /// Nothing here is timed: only a request waiting to be taken is due.
    fn next_event_at(&self) -> Cycle {
        Cycle(if self.out.is_empty() { u64::MAX } else { 0 })
    }

    fn flush(&mut self) {}

    fn is_idle(&self) -> bool {
        self.read_waiters.is_empty() && self.stores.is_empty() && self.out.is_empty()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_protocol::msg::{FillResp, LeaseInfo, WriteAckResp};
    use gtsc_protocol::AccessId;
    use gtsc_types::{BlockAddr, Version, WarpId};

    fn load(id: u64, block: u64) -> MemAccess {
        MemAccess {
            id: AccessId(id),
            warp: WarpId(0),
            kind: AccessKind::Load,
            block: BlockAddr(block),
            span: gtsc_types::SpanId::NONE,
        }
    }

    #[test]
    fn every_load_crosses_the_noc() {
        let mut c = BypassL1::new(0);
        c.access(load(1, 5), Cycle(0));
        c.access(load(2, 5), Cycle(0));
        assert!(c.take_request().is_some());
        assert!(c.take_request().is_some(), "no merging without an MSHR");
    }

    #[test]
    fn fills_complete_waiters_in_fifo_order() {
        let mut c = BypassL1::new(0);
        c.access(load(1, 5), Cycle(0));
        c.access(load(2, 5), Cycle(0));
        while c.take_request().is_some() {}
        let f = L2ToL1::Fill(FillResp {
            block: BlockAddr(5),
            lease: LeaseInfo::None,
            version: Version(9),
            epoch: 0,
            span: gtsc_types::SpanId::NONE,
        });
        let d1 = c.on_response(f, Cycle(10));
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].id, AccessId(1));
        let d2 = c.on_response(f, Cycle(11));
        assert_eq!(d2[0].id, AccessId(2));
        assert!(c.is_idle());
    }

    #[test]
    fn atomic_roundtrip_delivers_prev() {
        let mut c = BypassL1::new(0);
        let acc = MemAccess {
            id: AccessId(5),
            warp: WarpId(2),
            kind: AccessKind::Atomic,
            block: BlockAddr(7),
            span: gtsc_types::SpanId::NONE,
        };
        c.access(acc, Cycle(0));
        let L1ToL2::Atomic(w) = c.take_request().unwrap() else {
            panic!("expected Atomic")
        };
        let done = c.on_response(
            L2ToL1::AtomicAck {
                ack: WriteAckResp {
                    block: BlockAddr(7),
                    lease: LeaseInfo::None,
                    version: w.version,
                    epoch: 0,
                    span: gtsc_types::SpanId::NONE,
                },
                prev: Version(3),
            },
            Cycle(30),
        );
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, AccessKind::Atomic);
        assert_eq!(done[0].prev, Some(Version(3)));
        assert!(c.is_idle());
    }

    #[test]
    fn store_roundtrip() {
        let mut c = BypassL1::new(0);
        let acc = MemAccess {
            id: AccessId(3),
            warp: WarpId(1),
            kind: AccessKind::Store,
            block: BlockAddr(7),
            span: gtsc_types::SpanId::NONE,
        };
        c.access(acc, Cycle(0));
        let L1ToL2::Write(w) = c.take_request().unwrap() else {
            panic!()
        };
        let done = c.on_response(
            L2ToL1::WriteAck(WriteAckResp {
                block: BlockAddr(7),
                lease: LeaseInfo::None,
                version: w.version,
                epoch: 0,
                span: gtsc_types::SpanId::NONE,
            }),
            Cycle(30),
        );
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, AccessKind::Store);
        assert_eq!(done[0].warp, WarpId(1));
    }
}
