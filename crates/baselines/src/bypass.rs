//! The no-L1 baseline ("BL"): the private cache is disabled and every
//! global access is performed at the shared L2 — how current GPUs provide
//! coherence (Section I). There are no tags and no MSHRs on the SM side;
//! each access crosses the NoC individually.

use std::collections::VecDeque;

use gtsc_protocol::msg::{L1ToL2, L2ToL1, ReadReq, WriteReq};
use gtsc_protocol::{AccessId, AccessKind, Completion, L1Controller, L1Outcome, MemAccess};
use gtsc_types::{BlockAddr, CacheStats, Cycle, FxHashMap, Timestamp, Version, WarpId};

#[derive(Debug, Clone, Copy)]
struct Waiter {
    id: AccessId,
    warp: WarpId,
}

#[derive(Debug, Clone, Copy)]
struct StoreWaiter {
    id: AccessId,
    warp: WarpId,
    kind: AccessKind,
    version: Version,
}

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
    sm_index: usize,
    /// FIFO of outstanding loads per block (each `BusRd` yields one fill).
    read_waiters: FxHashMap<BlockAddr, VecDeque<Waiter>>,
    store_acks: FxHashMap<BlockAddr, VecDeque<StoreWaiter>>,
    out: VecDeque<L1ToL2>,
    /// What the latest `on_response` completed: emptied on entry, lent
    /// out until the next call (see `L1Outcome::Reject`).
    done: Vec<Completion>,
    version_ctr: Vec<u64>,
    stats: CacheStats,
}

impl BypassL1 {
    /// Creates a pass-through controller for SM `sm_index`.
    #[must_use]
    pub fn new(sm_index: usize) -> Self {
        BypassL1 {
            sm_index,
            read_waiters: FxHashMap::default(),
            store_acks: FxHashMap::default(),
            out: VecDeque::new(),
            done: Vec::new(),
            version_ctr: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn mint_version(&mut self, warp: WarpId) -> Version {
        let w = warp.0 as usize;
        if self.version_ctr.len() <= w {
            self.version_ctr.resize(w + 1, 0);
        }
        self.version_ctr[w] += 1;
        Version(((self.sm_index as u64 + 1) << 40) | ((w as u64) << 28) | self.version_ctr[w])
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
                    .push_back(Waiter {
                        id: acc.id,
                        warp: acc.warp,
                    });
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
                let version = self.mint_version(acc.warp);
                self.store_acks
                    .entry(acc.block)
                    .or_default()
                    .push_back(StoreWaiter {
                        id: acc.id,
                        warp: acc.warp,
                        kind: acc.kind,
                        version,
                    });
                let req = WriteReq {
                    block: acc.block,
                    warp_ts: Timestamp(0),
                    version,
                    epoch: 0,
                    span: acc.span,
                };
                self.out.push_back(if acc.kind == AccessKind::Atomic {
                    L1ToL2::Atomic(req)
                } else {
                    L1ToL2::Write(req)
                });
            }
        }
        L1Outcome::Queued
    }

    fn on_response(&mut self, msg: L2ToL1, _now: Cycle) -> &[Completion] {
        self.done.clear();
        match msg {
            L2ToL1::Fill(f) => {
                if let Some(q) = self.read_waiters.get_mut(&f.block) {
                    if let Some(w) = q.pop_front() {
                        self.done.push(Completion {
                            id: w.id,
                            warp: w.warp,
                            kind: AccessKind::Load,
                            block: f.block,
                            version: f.version,
                            ts: None,
                            epoch: 0,
                            prev: None,
                        });
                    }
                    if q.is_empty() {
                        self.read_waiters.remove(&f.block);
                    }
                }
            }
            L2ToL1::WriteAck(a) | L2ToL1::AtomicAck { ack: a, .. } => {
                let prev = if let L2ToL1::AtomicAck { prev, .. } = msg {
                    Some(prev)
                } else {
                    None
                };
                if let Some(q) = self.store_acks.get_mut(&a.block) {
                    if let Some(pos) = q.iter().position(|s| s.version == a.version) {
                        let sw = q.remove(pos).expect("position valid");
                        if q.is_empty() {
                            self.store_acks.remove(&a.block);
                        }
                        self.done.push(Completion {
                            id: sw.id,
                            warp: sw.warp,
                            kind: sw.kind,
                            block: a.block,
                            version: a.version,
                            ts: None,
                            epoch: 0,
                            prev,
                        });
                    }
                }
            }
            L2ToL1::Renew { .. } | L2ToL1::Invalidate { .. } => {}
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
        self.read_waiters.is_empty() && self.store_acks.is_empty() && self.out.is_empty()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_protocol::msg::LeaseInfo;
    use gtsc_protocol::msg::{FillResp, WriteAckResp};

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
