//! Temporal-Coherence private cache (one per SM).
//!
//! Each line carries an absolute expiry time in *physical cycles*; the
//! globally synchronized counter (the simulation clock) self-invalidates
//! it — a tag match with `now >= expires` is a coherence miss
//! (Section II-D). Stores are write-through:
//!
//! * **TC-Strong**: the local copy is invalidated at issue (the new value
//!   may only be observed once globally performed) and the ack arrives
//!   after the L2 write-stall completes.
//! * **TC-Weak**: the local copy is updated in place (no write
//!   atomicity); the ack carries the GWCT, accumulated per warp and
//!   consumed by fences.

use std::collections::VecDeque;

use gtsc_mem::{Mshr, MshrAlloc, TagArray};
use gtsc_protocol::msg::{L1ToL2, L2ToL1, LeaseInfo, ReadReq, WriteReq};
use gtsc_protocol::{
    AccessKind, Completion, L1Controller, L1Outcome, MemAccess, PendingStore, StoreBook,
    VersionMint, Waiter,
};
use gtsc_trace::{EventKind, LeaseOp, Probe};
use gtsc_types::{CacheGeometry, CacheStats, Cycle, Timestamp, Version, WarpId};

use crate::TcMode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TcMeta {
    expires: Cycle,
    version: Version,
}

/// Construction parameters for [`TcL1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcL1Params {
    /// Cache geometry.
    pub geometry: CacheGeometry,
    /// Warp slots in the owning SM.
    pub n_warps: usize,
    /// Index of the owning SM (namespaces minted versions).
    pub sm_index: usize,
    /// MSHR entry count.
    pub mshr_entries: usize,
    /// Maximum merged waiters per entry.
    pub mshr_merges: usize,
    /// Strong or weak variant.
    pub mode: TcMode,
}

impl Default for TcL1Params {
    fn default() -> Self {
        TcL1Params {
            geometry: CacheGeometry::new(2 * 1024, 2, 128),
            n_warps: 4,
            sm_index: 0,
            mshr_entries: 8,
            mshr_merges: 4,
            mode: TcMode::Strong,
        }
    }
}

/// The Temporal-Coherence private cache of one SM.
#[derive(Debug)]
pub struct TcL1 {
    p: TcL1Params,
    tags: TagArray<TcMeta>,
    mshr: Mshr<Waiter>,
    stores: StoreBook<()>,
    /// What the latest `on_response` completed: emptied on entry, lent
    /// out until the next call (see `L1Outcome::Reject`).
    done: Vec<Completion>,
    /// Global Write Completion Time per warp (TC-Weak fences).
    gwct: Vec<Cycle>,
    out: VecDeque<L1ToL2>,
    mint: VersionMint,
    stats: CacheStats,
    probe: Probe,
}

impl TcL1 {
    /// Creates an empty controller.
    #[must_use]
    pub fn new(p: TcL1Params) -> Self {
        TcL1 {
            tags: TagArray::new(p.geometry),
            mshr: Mshr::new(p.mshr_entries, p.mshr_merges),
            stores: StoreBook::default(),
            done: Vec::new(),
            gwct: vec![Cycle(0); p.n_warps],
            out: VecDeque::new(),
            mint: VersionMint::new(p.sm_index, p.n_warps),
            stats: CacheStats::default(),
            probe: Probe::disabled(),
            p,
        }
    }

    /// The warp's current Global Write Completion Time.
    ///
    /// # Panics
    ///
    /// Panics if `warp` is out of range.
    #[must_use]
    pub fn gwct(&self, warp: WarpId) -> Cycle {
        self.gwct[warp.0 as usize]
    }
}

impl L1Controller for TcL1 {
    fn access(&mut self, acc: MemAccess, now: Cycle) -> L1Outcome {
        match acc.kind {
            AccessKind::Load => {
                let mut expired_lease = None;
                if let Some(line) = self.tags.probe(acc.block) {
                    if now < line.meta.expires {
                        self.stats.accesses += 1;
                        self.stats.hits += 1;
                        let version = line.meta.version;
                        let expires = line.meta.expires;
                        self.probe.emit(now, || EventKind::Hit {
                            block: acc.block,
                            warp: acc.warp.0,
                            warp_ts: now.0,
                            rts: expires.0,
                        });
                        return L1Outcome::Hit(Waiter::of(&acc).loaded(acc.block, version));
                    }
                    // Tag match, expired lease: self-invalidated
                    // (coherence miss).
                    expired_lease = Some(line.meta.expires);
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
                if let Some(expires) = expired_lease {
                    self.stats.expired_misses += 1;
                    // TC leases are physical: `now` and the expiry time play
                    // the roles G-TSC gives `warp_ts` and `rts`.
                    self.probe.emit(now, || EventKind::ExpiredMiss {
                        block: acc.block,
                        warp_ts: now.0,
                        rts: expires.0,
                    });
                } else {
                    self.stats.cold_misses += 1;
                    self.probe.emit(now, || EventKind::ColdMiss {
                        block: acc.block,
                        warp: acc.warp.0,
                    });
                }
                outcome
            }
            AccessKind::Store | AccessKind::Atomic => {
                self.stats.accesses += 1;
                self.stats.stores += 1;
                let version = self.mint.mint(acc.warp);
                match self.p.mode {
                    TcMode::Strong => {
                        // The new value must not be observable locally
                        // before it is globally performed.
                        self.tags.invalidate(acc.block);
                    }
                    TcMode::Weak if acc.kind == AccessKind::Atomic => {
                        // Atomics are performed at the L2; the stale local
                        // copy must not satisfy later reads of the result.
                        self.tags.invalidate(acc.block);
                    }
                    TcMode::Weak => {
                        if let Some(line) = self.tags.probe_mut(acc.block) {
                            line.meta.version = version;
                        }
                    }
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

    fn on_response(&mut self, msg: L2ToL1, now: Cycle) -> &[Completion] {
        self.done.clear();
        if let Some((a, prev)) = msg.as_store_ack() {
            if let Some(sw) = self.stores.take(a.block, a.version) {
                if let LeaseInfo::Physical { expires } = a.lease {
                    // TC-Weak: the ack carries the GWCT.
                    let g = &mut self.gwct[sw.warp.0 as usize];
                    *g = (*g).max(expires);
                }
                self.probe
                    .emit(now, || EventKind::WriteAck { block: a.block });
                self.done.push(sw.acked(a.block, prev));
            }
            return &self.done;
        }
        match msg {
            L2ToL1::Fill(f) => {
                let LeaseInfo::Physical { expires } = f.lease else {
                    unreachable!("TC fills carry physical leases");
                };
                let meta = TcMeta {
                    expires,
                    version: f.version,
                };
                if let Some(ev) = self.tags.fill(f.block, meta) {
                    self.stats.evictions += 1;
                    self.probe.emit(now, || EventKind::Eviction {
                        block: ev.block,
                        rts: ev.meta.expires.0,
                        mem_ts: None,
                    });
                }
                // A physical lease: `[0, expiry]` in the logical slots.
                self.probe.emit(now, || EventKind::Lease {
                    op: LeaseOp::Install,
                    block: f.block,
                    wts: 0,
                    rts: expires.0,
                    epoch: 0,
                });
                let mut waiters = self.mshr.take(f.block);
                for w in waiters.drain(..) {
                    self.done.push(w.loaded(f.block, f.version));
                }
                self.mshr.recycle(waiters);
            }
            L2ToL1::Renew { .. } => unreachable!("TC has no renewal responses"),
            L2ToL1::WriteAck(_) | L2ToL1::AtomicAck { .. } => {
                unreachable!("store acks are decoded before the match")
            }
            L2ToL1::Invalidate { block, .. } => {
                self.tags.invalidate(block);
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

    fn fence_ready_at(&self, warp: WarpId) -> Cycle {
        match self.p.mode {
            TcMode::Strong => Cycle(0),
            // The TC-Weak fence rule: stall until every prior write by the
            // warp is globally visible. The GWCT moves only on a write
            // ack (`on_response`) and in `flush`.
            TcMode::Weak => self.gwct[warp.0 as usize],
        }
    }

    fn flush(&mut self) {
        self.tags.flush(drop);
        for g in &mut self.gwct {
            *g = Cycle(0);
        }
    }

    fn is_idle(&self) -> bool {
        self.mshr.is_empty() && self.stores.is_empty() && self.out.is_empty()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    fn probe(&self) -> Option<&Probe> {
        Some(&self.probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_protocol::msg::{FillResp, WriteAckResp};
    use gtsc_protocol::AccessId;
    use gtsc_types::BlockAddr;

    fn load(id: u64, warp: u16, block: u64) -> MemAccess {
        MemAccess {
            id: AccessId(id),
            warp: WarpId(warp),
            kind: AccessKind::Load,
            block: BlockAddr(block),
            span: gtsc_types::SpanId::NONE,
        }
    }

    fn store(id: u64, warp: u16, block: u64) -> MemAccess {
        MemAccess {
            id: AccessId(id),
            warp: WarpId(warp),
            kind: AccessKind::Store,
            block: BlockAddr(block),
            span: gtsc_types::SpanId::NONE,
        }
    }

    fn fill(block: u64, expires: u64, version: Version) -> L2ToL1 {
        L2ToL1::Fill(FillResp {
            block: BlockAddr(block),
            lease: LeaseInfo::Physical {
                expires: Cycle(expires),
            },
            version,
            epoch: 0,
            span: gtsc_types::SpanId::NONE,
        })
    }

    #[test]
    fn lease_expiry_self_invalidates() {
        let mut c = TcL1::new(TcL1Params::default());
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        let done = c.on_response(fill(5, 100, Version(9)), Cycle(30));
        assert_eq!(done.len(), 1);
        // Before expiry: hit.
        assert!(matches!(
            c.access(load(2, 0, 5), Cycle(99)),
            L1Outcome::Hit(_)
        ));
        // At expiry: coherence miss.
        assert!(matches!(
            c.access(load(3, 0, 5), Cycle(100)),
            L1Outcome::Queued
        ));
        assert_eq!(c.stats().expired_misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn strong_store_invalidates_local_copy() {
        let mut c = TcL1::new(TcL1Params {
            mode: TcMode::Strong,
            ..TcL1Params::default()
        });
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 1000, Version(9)), Cycle(30));
        c.access(store(2, 0, 5), Cycle(40));
        // Local copy gone: a read now misses even though the lease was live.
        assert!(matches!(
            c.access(load(3, 1, 5), Cycle(41)),
            L1Outcome::Queued
        ));
    }

    #[test]
    fn weak_store_updates_in_place_and_tracks_gwct() {
        let mut c = TcL1::new(TcL1Params {
            mode: TcMode::Weak,
            ..TcL1Params::default()
        });
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 1000, Version(9)), Cycle(30));
        c.access(store(2, 0, 5), Cycle(40));
        let L1ToL2::Write(w) = c.take_request().unwrap() else {
            panic!()
        };
        // Local read sees the new value immediately (no write atomicity).
        match c.access(load(3, 1, 5), Cycle(41)) {
            L1Outcome::Hit(comp) => assert_eq!(comp.version, w.version),
            other => panic!("expected hit, got {other:?}"),
        }
        // Ack carries GWCT=500: the fence is not ready until then.
        c.on_response(
            L2ToL1::WriteAck(WriteAckResp {
                block: BlockAddr(5),
                lease: LeaseInfo::Physical {
                    expires: Cycle(500),
                },
                version: w.version,
                epoch: 0,
                span: gtsc_types::SpanId::NONE,
            }),
            Cycle(60),
        );
        assert_eq!(c.gwct(WarpId(0)), Cycle(500));
        assert_eq!(c.fence_ready_at(WarpId(0)), Cycle(500));
        // Other warps' fences are unaffected.
        assert_eq!(c.fence_ready_at(WarpId(1)), Cycle(0));
    }

    #[test]
    fn strong_fence_is_always_ready() {
        let c = TcL1::new(TcL1Params {
            mode: TcMode::Strong,
            ..TcL1Params::default()
        });
        assert_eq!(c.fence_ready_at(WarpId(0)), Cycle(0));
    }

    #[test]
    fn merged_loads_complete_on_one_fill() {
        let mut c = TcL1::new(TcL1Params::default());
        c.access(load(1, 0, 5), Cycle(0));
        c.access(load(2, 1, 5), Cycle(0));
        assert!(c.take_request().is_some());
        assert!(c.take_request().is_none());
        let done = c.on_response(fill(5, 100, Version(9)), Cycle(30));
        assert_eq!(done.len(), 2);
        assert!(c.is_idle());
    }

    #[test]
    fn flush_resets_gwct() {
        let mut c = TcL1::new(TcL1Params {
            mode: TcMode::Weak,
            ..TcL1Params::default()
        });
        c.access(store(1, 0, 5), Cycle(0));
        let L1ToL2::Write(w) = c.take_request().unwrap() else {
            panic!()
        };
        c.on_response(
            L2ToL1::WriteAck(WriteAckResp {
                block: BlockAddr(5),
                lease: LeaseInfo::Physical {
                    expires: Cycle(900),
                },
                version: w.version,
                epoch: 0,
                span: gtsc_types::SpanId::NONE,
            }),
            Cycle(10),
        );
        c.flush();
        assert_eq!(c.fence_ready_at(WarpId(0)), Cycle(0));
    }
}
