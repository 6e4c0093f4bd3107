//! "Baseline W/L1": a plain write-through private cache with **no
//! coherence at all** — lines stay valid until evicted or flushed,
//! regardless of remote writes. The paper reports this baseline only for
//! workloads that do not need coherence (the right cluster of Figure 12);
//! the simulator's checker will rightly flag it on sharing workloads.

use std::collections::VecDeque;

use gtsc_mem::{Mshr, MshrAlloc, TagArray};
use gtsc_protocol::msg::{L1ToL2, L2ToL1, LeaseInfo, ReadReq, WriteReq};
use gtsc_protocol::{
    AccessKind, Completion, L1Controller, L1Outcome, MemAccess, PendingStore, StoreBook,
    VersionMint, Waiter,
};
use gtsc_types::{CacheGeometry, CacheStats, Cycle, Timestamp, Version};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlainMeta {
    version: Version,
}

/// A non-coherent write-through private cache.
#[derive(Debug)]
pub struct NonCoherentL1 {
    tags: TagArray<PlainMeta>,
    mshr: Mshr<Waiter>,
    stores: StoreBook<()>,
    /// What the latest `on_response` completed: emptied on entry, lent
    /// out until the next call (see `L1Outcome::Reject`).
    done: Vec<Completion>,
    out: VecDeque<L1ToL2>,
    mint: VersionMint,
    stats: CacheStats,
}

impl NonCoherentL1 {
    /// Creates an empty cache for SM `sm_index`.
    #[must_use]
    pub fn new(
        geometry: CacheGeometry,
        sm_index: usize,
        mshr_entries: usize,
        mshr_merges: usize,
    ) -> Self {
        NonCoherentL1 {
            tags: TagArray::new(geometry),
            mshr: Mshr::new(mshr_entries, mshr_merges),
            stores: StoreBook::default(),
            done: Vec::new(),
            out: VecDeque::new(),
            mint: VersionMint::new(sm_index, 0),
            stats: CacheStats::default(),
        }
    }
}

impl L1Controller for NonCoherentL1 {
    fn access(&mut self, acc: MemAccess, _now: Cycle) -> L1Outcome {
        match acc.kind {
            AccessKind::Load => {
                if let Some(line) = self.tags.probe(acc.block) {
                    self.stats.accesses += 1;
                    self.stats.hits += 1;
                    let version = line.meta.version;
                    return L1Outcome::Hit(Waiter::of(&acc).loaded(acc.block, version));
                }
                let outcome = match self.mshr.register(acc.block, Waiter::of(&acc)) {
                    MshrAlloc::Full => return L1Outcome::Reject,
                    MshrAlloc::AllocatedNew => {
                        self.out.push_back(L1ToL2::Read(ReadReq {
                            block: acc.block,
                            wts: Timestamp(0),
                            warp_ts: Timestamp(0),
                            epoch: 0,
                            span: acc.span,
                        }));
                        L1Outcome::Queued
                    }
                    MshrAlloc::Merged => {
                        self.stats.mshr_merges += 1;
                        L1Outcome::Queued
                    }
                };
                self.stats.accesses += 1;
                self.stats.cold_misses += 1;
                outcome
            }
            AccessKind::Store | AccessKind::Atomic => {
                self.stats.accesses += 1;
                self.stats.stores += 1;
                let version = self.mint.mint(acc.warp);
                if let Some(line) = self.tags.probe_mut(acc.block) {
                    line.meta.version = version;
                }
                let req = WriteReq {
                    block: acc.block,
                    warp_ts: Timestamp(0),
                    version,
                    epoch: 0,
                    span: acc.span,
                };
                self.out.push_back(L1ToL2::store(acc.kind, req));
                self.stores
                    .push(acc.block, PendingStore::new(&acc, version, ()));
                L1Outcome::Queued
            }
        }
    }

    fn on_response(&mut self, msg: L2ToL1, _now: Cycle) -> &[Completion] {
        self.done.clear();
        if let Some((a, prev)) = msg.as_store_ack() {
            let acked = self.stores.take(a.block, a.version);
            self.done.extend(acked.map(|s| s.acked(a.block, prev)));
        } else if let L2ToL1::Fill(f) = msg {
            debug_assert_eq!(f.lease, LeaseInfo::None, "plain L2 grants no leases");
            if self
                .tags
                .fill(f.block, PlainMeta { version: f.version })
                .is_some()
            {
                self.stats.evictions += 1;
            }
            let mut waiters = self.mshr.take(f.block);
            let loaded = waiters.drain(..).map(|w| w.loaded(f.block, f.version));
            self.done.extend(loaded);
            self.mshr.recycle(waiters);
        } else if let L2ToL1::Invalidate { block, .. } = msg {
            self.tags.invalidate(block);
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

    fn flush(&mut self) {
        self.tags.flush(drop);
    }

    fn is_idle(&self) -> bool {
        self.mshr.is_empty() && self.stores.is_empty() && self.out.is_empty()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_protocol::msg::FillResp;
    use gtsc_protocol::AccessId;
    use gtsc_types::{BlockAddr, WarpId};

    fn cache() -> NonCoherentL1 {
        NonCoherentL1::new(CacheGeometry::new(2 * 1024, 2, 128), 0, 8, 4)
    }

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
    fn lines_never_expire() {
        let mut c = cache();
        c.access(load(1, 5), Cycle(0));
        c.take_request();
        c.on_response(
            L2ToL1::Fill(FillResp {
                block: BlockAddr(5),
                lease: LeaseInfo::None,
                version: Version(9),
                epoch: 0,
                span: gtsc_types::SpanId::NONE,
            }),
            Cycle(10),
        );
        // Arbitrarily far in the future: still a hit (that is the point —
        // and the incoherence).
        assert!(matches!(
            c.access(load(2, 5), Cycle(1_000_000)),
            L1Outcome::Hit(_)
        ));
        assert_eq!(c.stats().expired_misses, 0);
    }

    #[test]
    fn store_updates_local_copy_in_place() {
        let mut c = cache();
        c.access(load(1, 5), Cycle(0));
        c.take_request();
        c.on_response(
            L2ToL1::Fill(FillResp {
                block: BlockAddr(5),
                lease: LeaseInfo::None,
                version: Version(9),
                epoch: 0,
                span: gtsc_types::SpanId::NONE,
            }),
            Cycle(10),
        );
        let st = MemAccess {
            id: AccessId(2),
            warp: WarpId(1),
            kind: AccessKind::Store,
            block: BlockAddr(5),
            span: gtsc_types::SpanId::NONE,
        };
        c.access(st, Cycle(20));
        let L1ToL2::Write(w) = c.take_request().unwrap() else {
            panic!()
        };
        match c.access(load(3, 5), Cycle(21)) {
            L1Outcome::Hit(comp) => assert_eq!(comp.version, w.version),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn merges_loads_in_mshr() {
        let mut c = cache();
        c.access(load(1, 5), Cycle(0));
        c.access(load(2, 5), Cycle(0));
        assert!(c.take_request().is_some());
        assert!(c.take_request().is_none());
        assert_eq!(c.stats().mshr_merges, 1);
    }
}
