//! The G-TSC shared-cache (L2) bank controller.
//!
//! The L2 is the serialization point of the protocol: it owns the master
//! copy of every lease, assigns store timestamps (Figure 5), serves fills
//! and renewals (Figure 4), folds evicted leases into the per-bank memory
//! timestamp `mem_ts` (Figure 6, enabling the non-inclusive hierarchy of
//! Section V-C), and runs the timestamp-rollover reset of Section V-D.

use std::collections::VecDeque;

use gtsc_mem::TagArray;
use gtsc_protocol::msg::{Epoch, FillResp, L1ToL2, L2ToL1, LeaseInfo, WriteAckResp};
use gtsc_protocol::{BankShell, ControllerPressure, L2Controller};
use gtsc_trace::{EventKind, HopKind, LeaseOp, Probe, ServeClass};
use gtsc_types::{
    BlockAddr, CacheGeometry, CacheStats, Cycle, FxHashMap, InclusionPolicy, Lease, SpanId,
    Timestamp, Version,
};

use crate::mutation::ProtocolMutation;
use crate::rules::{extend_rts, fold_mem_ts, grant_rts, store_wts};

/// Per-line L2 coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L2Meta {
    wts: Timestamp,
    rts: Timestamp,
    version: Version,
    dirty: bool,
    /// Consecutive renewals since the last store — drives the adaptive
    /// lease extension (see [`L2Params::adaptive_lease`]).
    renew_streak: u8,
}

/// Construction parameters for [`GtscL2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Params {
    /// Bank geometry.
    pub geometry: CacheGeometry,
    /// Lease length granted on fills and renewals.
    pub lease: Lease,
    /// Hardware timestamp width; reaching `2^ts_bits` triggers the
    /// rollover reset.
    pub ts_bits: u32,
    /// Bank access latency in cycles.
    pub latency: u64,
    /// Requests processed per cycle.
    pub ports: usize,
    /// Non-inclusive (default, Section V-C) or the inclusive ablation
    /// (evictions broadcast recalls to all L1s).
    pub inclusion: InclusionPolicy,
    /// Number of SMs (recall broadcast fan-out for the inclusive ablation).
    pub n_sms: usize,
    /// Outstanding DRAM fetches tracked.
    pub mshr_entries: usize,
    /// Requests merged per outstanding fetch.
    pub mshr_merges: usize,
    /// Tardis-2.0-style lease prediction (an extension beyond the paper):
    /// blocks that keep getting renewed without intervening stores earn
    /// exponentially longer leases (up to `lease << 4`), cutting renewal
    /// traffic for read-mostly data; any store resets the prediction.
    /// Off by default — the paper's protocol uses a fixed lease.
    pub adaptive_lease: bool,
}

impl Default for L2Params {
    /// A small single-bank configuration suitable for unit tests and doc
    /// examples (the full simulator builds params from `GpuConfig`).
    fn default() -> Self {
        L2Params {
            geometry: CacheGeometry::new(4 * 1024, 4, 128),
            lease: Lease::default(),
            ts_bits: 16,
            latency: 10,
            ports: 1,
            inclusion: InclusionPolicy::NonInclusive,
            n_sms: 2,
            mshr_entries: 16,
            mshr_merges: 64,
            adaptive_lease: false,
        }
    }
}

/// One G-TSC shared-cache bank.
///
/// See the crate-level example for end-to-end usage; the
/// [`L2Controller`] trait documents the per-cycle driving contract.
#[derive(Debug)]
pub struct GtscL2 {
    p: L2Params,
    tags: TagArray<L2Meta>,
    mem_ts: Timestamp,
    epoch: Epoch,
    overflow: bool,
    /// Queues, MSHR, DRAM handshake and the written-back image.
    shell: BankShell,
    /// Replay filter: the most recently applied store versions per block.
    ///
    /// A lossy-but-reliable interconnect may deliver a write request
    /// twice (at-least-once delivery). Re-applying the replay is *not*
    /// harmless: if another SM's store was interposed, the replay would
    /// revert the line to stale data at a fresh `wts`. Store versions are
    /// globally unique (the L1 stamps each store once), so remembering
    /// the last few applied per block makes the write path idempotent —
    /// the duplicate is recognized and dropped, and the original ack
    /// (which is never dropped, only delayed) satisfies the L1.
    applied_stores: FxHashMap<BlockAddr, VecDeque<Version>>,
    stats: CacheStats,
    /// Events, rule checks, and sampled spans' serve class and DRAM-wait
    /// overlay. Excluded from snapshots (the rule machine is saved once,
    /// by the simulator).
    probe: Probe,
    /// Test-only protocol mutant (see [`crate::mutation`]); `None` in
    /// production.
    mutation: ProtocolMutation,
}

impl GtscL2 {
    /// Creates an empty bank.
    #[must_use]
    pub fn new(p: L2Params) -> Self {
        GtscL2 {
            tags: TagArray::new(p.geometry),
            mem_ts: Timestamp::INIT,
            epoch: 0,
            overflow: false,
            shell: BankShell::new(p.latency, p.ports, p.mshr_entries, p.mshr_merges),
            applied_stores: FxHashMap::default(),
            stats: CacheStats::default(),
            probe: Probe::disabled(),
            mutation: ProtocolMutation::None,
            p,
        }
    }

    /// Arms a seeded protocol mutant (oracle validation only; see
    /// [`crate::mutation`]).
    #[doc(hidden)]
    pub fn set_mutation(&mut self, mutation: ProtocolMutation) {
        self.mutation = mutation;
    }

    /// The bank's current memory timestamp (exposed for tests and stats).
    #[must_use]
    pub fn mem_ts(&self) -> Timestamp {
        self.mem_ts
    }

    /// The bank's current reset epoch.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    fn note_ts(&mut self, ts: Timestamp) {
        if ts.overflows(self.p.ts_bits) {
            self.overflow = true;
        }
    }

    fn lease_of(&self, m: &L2Meta) -> LeaseInfo {
        LeaseInfo::Logical {
            wts: m.wts,
            rts: m.rts,
        }
    }

    /// The lease to grant a line: the base lease, scaled up for proven
    /// read-mostly blocks when adaptive leases are on.
    fn effective_lease(&self, meta: &L2Meta) -> Lease {
        if self.p.adaptive_lease {
            Lease(self.p.lease.0 << meta.renew_streak.min(4))
        } else {
            self.p.lease
        }
    }

    /// Records a store about to be applied to `block`; returns `true` if
    /// this exact store was already applied (a fault-injected replay that
    /// must be dropped, not re-executed). Per-flow FIFO delivery
    /// guarantees the replay reaches the bank after the original, so the
    /// original is always recorded first. The per-block history is
    /// bounded: far deeper than the duplicate-delivery lag, so an entry
    /// cannot age out before its replay arrives.
    fn store_is_replay(&mut self, block: BlockAddr, version: Version) -> bool {
        const HISTORY: usize = 64;
        let seen = self.applied_stores.entry(block).or_default();
        if seen.contains(&version) {
            return true;
        }
        if seen.len() == HISTORY {
            seen.pop_front();
        }
        seen.push_back(version);
        false
    }

    /// Serves a request whose block is resident. Returns the response.
    fn serve_hit(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        let block = msg.block();
        if let L1ToL2::Write(w) | L1ToL2::Atomic(w) = &msg {
            if self.store_is_replay(block, w.version) {
                self.stats.replayed_stores += 1;
                self.probe.emit(now, || EventKind::ReplayDrop { block });
                return;
            }
        }
        let lease = self.p.lease;
        let adaptive = self.p.adaptive_lease;
        let eff = self
            .tags
            .peek(block)
            .map(|l| self.effective_lease(&l.meta))
            .unwrap_or(lease);
        let line = self
            .tags
            .probe_mut(block)
            .expect("caller checked residency");
        match msg {
            L1ToL2::Read(r) => {
                if adaptive && r.wts == line.meta.wts {
                    line.meta.renew_streak = line.meta.renew_streak.saturating_add(1);
                }
                line.meta.rts = extend_rts(line.meta.rts, r.warp_ts, eff);
                let new_rts = line.meta.rts;
                let grant_wts = line.meta.wts;
                let epoch = self.epoch;
                let resp = if r.wts == line.meta.wts {
                    // The L1 already holds this version: renewal, no data
                    // (the Section VI-C traffic saving).
                    self.stats.renewals += 1;
                    self.probe
                        .spans(|s| s.note_serve(r.span, ServeClass::Renewal));
                    self.probe.emit(now, || EventKind::Lease {
                        op: LeaseOp::Renew,
                        block,
                        wts: grant_wts.0,
                        rts: new_rts.0,
                        epoch,
                    });
                    L2ToL1::Renew {
                        block,
                        lease: LeaseInfo::Logical {
                            wts: r.wts,
                            rts: new_rts,
                        },
                        epoch: self.epoch,
                        span: r.span,
                    }
                } else {
                    self.probe
                        .spans(|s| s.note_serve(r.span, ServeClass::Grant));
                    let meta = self.tags.peek(block).map(|l| l.meta).expect("resident");
                    self.probe.emit(now, || EventKind::Lease {
                        op: LeaseOp::Grant,
                        block,
                        wts: meta.wts.0,
                        rts: meta.rts.0,
                        epoch,
                    });
                    L2ToL1::Fill(FillResp {
                        block,
                        lease: self.lease_of(&meta),
                        version: meta.version,
                        epoch: self.epoch,
                        span: r.span,
                    })
                };
                self.note_ts(new_rts);
                self.shell.respond(src, resp);
            }
            L1ToL2::Write(w) | L1ToL2::Atomic(w) => {
                // Figure 5 — and the reason G-TSC never stalls on writes:
                // the store (or the write half of an atomic) is simply
                // scheduled after every outstanding lease.
                let prev = line.meta.version;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the SkipLeaseExpiryOnStore mutant: a deliberately broken store_wts"
                )]
                let wts = if self.mutation == ProtocolMutation::SkipLeaseExpiryOnStore {
                    // Mutant: ignore outstanding read leases; keep only
                    // per-block monotonicity so the write-order rules
                    // stay silent and only the lease-expiry ones fire.
                    line.meta.wts.succ().max(w.warp_ts)
                } else {
                    store_wts(line.meta.rts, w.warp_ts)
                };
                line.meta.wts = wts;
                line.meta.rts = grant_rts(wts, lease);
                line.meta.renew_streak = 0;
                line.meta.version = w.version;
                line.meta.dirty = true;
                let ack_lease = LeaseInfo::Logical {
                    wts,
                    rts: line.meta.rts,
                };
                let rts = line.meta.rts;
                self.stats.stores += 1;
                self.note_ts(rts);
                let epoch = self.epoch;
                self.probe.emit(now, || EventKind::Lease {
                    op: LeaseOp::Commit,
                    block,
                    wts: wts.0,
                    rts: rts.0,
                    epoch,
                });
                let ack = WriteAckResp {
                    block,
                    lease: ack_lease,
                    version: w.version,
                    epoch: self.epoch,
                    span: w.span,
                };
                let atomic = matches!(msg, L1ToL2::Atomic(_));
                self.shell
                    .respond(src, L2ToL1::store_ack(atomic, ack, prev));
            }
        }
    }

    fn handle(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        // Section V-D: a stale-epoch request is answered as a fresh one.
        let msg = msg.rebased(self.epoch);
        self.stats.accesses += 1;
        if self.tags.peek(msg.block()).is_some() {
            self.stats.hits += 1;
            self.serve_hit(src, msg, now);
            return;
        }
        // Miss: both loads and stores fetch the block from DRAM first
        // (write-allocate; Figure 5's miss path).
        self.stats.cold_misses += 1;
        (self.probe).spans(|s| s.overlay_enter(msg.span(), HopKind::DramWait, now));
        if self.shell.miss(src, msg) {
            self.stats.mshr_merges += 1;
        }
    }

    fn evict(&mut self, evicted: gtsc_mem::EvictedLine<L2Meta>, now: Cycle) {
        // Figure 6: the evicted lease folds into the single per-bank
        // memory timestamp — this is what makes non-inclusion sound.
        self.mem_ts = fold_mem_ts(self.mem_ts, evicted.meta.rts);
        self.stats.evictions += 1;
        let mem_ts = self.mem_ts;
        self.probe.emit(now, || EventKind::Eviction {
            block: evicted.block,
            rts: evicted.meta.rts.0,
            mem_ts: Some(mem_ts.0),
        });
        if evicted.meta.dirty {
            self.shell.write_back(evicted.block, evicted.meta.version);
        }
        if self.p.inclusion == InclusionPolicy::Inclusive {
            // Ablation of Section V-C: an inclusive L2 must recall every
            // private copy on eviction (broadcast — there is no sharer
            // tracking), costing NoC traffic G-TSC avoids.
            for sm in 0..self.p.n_sms {
                let recall = L2ToL1::Invalidate {
                    block: evicted.block,
                    epoch: self.epoch,
                    span: SpanId::NONE,
                };
                self.shell.respond(sm, recall);
            }
        }
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

gtsc_types::snap_fields!(L2Meta {
    wts,
    rts,
    version,
    dirty,
    renew_streak,
});

impl L2Controller for GtscL2 {
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        self.tags.save_state(w);
        self.mem_ts.save(w);
        self.epoch.save(w);
        self.overflow.save(w);
        self.shell.save_memory(w);
        self.applied_stores.save(w);
        self.shell.save_queues(w);
        self.stats.save(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.tags.load_state(r)?;
        self.mem_ts = Snap::load(r)?;
        self.epoch = Snap::load(r)?;
        self.overflow = Snap::load(r)?;
        self.shell.load_memory(r)?;
        self.applied_stores = Snap::load(r)?;
        self.shell.load_queues(r)?;
        self.stats = Snap::load(r)?;
        Ok(())
    }

    fn on_request(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        self.shell.arrive(src, msg, now);
    }

    fn take_response(&mut self) -> Option<(usize, L2ToL1)> {
        self.shell.take_response()
    }

    fn take_dram_request(&mut self) -> Option<(BlockAddr, bool)> {
        self.shell.take_dram_request()
    }

    fn dram_ready(&mut self, ready: bool) {
        self.shell.dram_ready(ready);
    }

    fn on_dram_response(&mut self, block: BlockAddr, is_write: bool, now: Cycle) {
        if is_write {
            return; // write-back completion needs no action
        }
        // Install the fill with the mem_ts lease of Figure 6.
        let meta = L2Meta {
            wts: self.mem_ts,
            rts: grant_rts(self.mem_ts, self.p.lease),
            version: self.shell.fetched(block),
            dirty: false,
            renew_streak: 0,
        };
        self.note_ts(meta.rts);
        let epoch = self.epoch;
        self.probe.emit(now, || EventKind::Lease {
            op: LeaseOp::Install,
            block,
            wts: meta.wts.0,
            rts: meta.rts.0,
            epoch,
        });
        match self.tags.fill_if(block, meta, |_| true) {
            Ok(Some(ev)) => self.evict(ev, now),
            Ok(None) => {}
            Err(_) => unreachable!("G-TSC L2 never refuses eviction"),
        }
        // Serve the requests that were waiting on this fetch, in order.
        let mut waiters = self.shell.installed(block);
        for (src, msg) in waiters.drain(..) {
            // They were already counted on arrival; serve directly. The
            // epoch may have moved while they waited.
            let msg = msg.rebased(self.epoch);
            (self.probe).spans(|s| s.overlay_exit(msg.span(), HopKind::DramWait, now));
            self.serve_hit(src, msg, now);
        }
        self.shell.recycle(waiters);
    }

    fn next_event_at(&self) -> Cycle {
        self.shell.next_event_at()
    }

    fn tick(&mut self, now: Cycle) {
        for _ in 0..self.shell.ports() {
            let resident = |m: &L1ToL2| self.tags.peek(m.block()).is_some();
            let Some((src, msg)) = self.shell.pop_ready(now, resident) else {
                break;
            };
            self.handle(src, msg, now);
        }
    }

    fn needs_reset(&self) -> bool {
        self.overflow
    }

    fn apply_reset(&mut self, epoch: Epoch, now: Cycle) {
        // Section V-D: wts ← 1, rts ← lease, mem_ts ← 1; data is intact so
        // nothing is flushed. Subsequent responses carry the new epoch,
        // telling L1s to flush and reset their warp timestamps.
        let epoch = if self.mutation == ProtocolMutation::SkipEpochBumpOnRecovery {
            // Mutant: rebase every timestamp but stay in the old epoch, so
            // L1s never learn their leases died with the reset.
            self.epoch
        } else {
            epoch
        };
        let lease = self.p.lease;
        for line in self.tags.iter_mut() {
            line.meta.wts = Timestamp::INIT;
            line.meta.rts = Timestamp(lease.0);
        }
        self.mem_ts = Timestamp::INIT;
        self.epoch = epoch;
        self.overflow = false;
        self.stats.ts_rollovers += 1;
        self.probe.emit(now, || EventKind::Rollover { epoch });
    }

    fn crash(&mut self, now: Cycle) -> bool {
        // Models a coherence-state upset: the tag array and every
        // in-flight transaction vanish, but the functional data image
        // survives (as if line data were ECC-protected and recoverable
        // from DRAM). Resident versions fold into the backing store so
        // post-recovery fetches observe them.
        self.tags
            .flush(|line| self.shell.store_back(line.block, line.meta.version));
        // Every in-flight transaction dies with the bank, its sampled
        // spans closed so none leaks open across the reset.
        self.shell.crash(&self.probe, now);
        // The replay filter dies with the bank. Safe only because the
        // transport resets the bank's flows in the same cycle: a store
        // duplicate from before the crash can no longer be delivered
        // (stale generation), so nothing needs replay filtering. The
        // end-to-end atomic caveat is documented in DESIGN.md §13.
        self.applied_stores.clear();
        let epoch = self.epoch;
        self.probe.emit(now, || EventKind::BankReset { epoch });
        // Recovery rides the Section V-D machinery: forcing the
        // overflow flag makes the simulator bump the *global* epoch and
        // apply_reset() every bank. L1-held leases stay safe because
        // logical time only moves forward across the bump — stale-epoch
        // requests degrade to fresh fills, stale-epoch responses are
        // discarded.
        self.overflow = true;
        true
    }

    fn is_idle(&self) -> bool {
        self.shell.is_idle()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn pressure(&self) -> ControllerPressure {
        self.shell.pressure()
    }

    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    fn probe(&self) -> Option<&Probe> {
        Some(&self.probe)
    }

    fn memory_image(&self) -> Vec<(BlockAddr, Version)> {
        let resident = self.tags.iter().map(|l| (l.block, l.meta.version));
        self.shell.memory_image(resident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_protocol::msg::{ReadReq, WriteReq};

    fn read(block: u64, wts: u64, warp_ts: u64) -> L1ToL2 {
        L1ToL2::Read(ReadReq {
            block: BlockAddr(block),
            wts: Timestamp(wts),
            warp_ts: Timestamp(warp_ts),
            epoch: 0,
            span: SpanId::NONE,
        })
    }

    fn write(block: u64, warp_ts: u64, version: u64) -> L1ToL2 {
        L1ToL2::Write(WriteReq {
            block: BlockAddr(block),
            warp_ts: Timestamp(warp_ts),
            version: Version(version),
            epoch: 0,
            span: SpanId::NONE,
        })
    }

    /// Runs the bank until it is idle, resolving DRAM requests instantly.
    #[allow(clippy::explicit_counter_loop)] // `now` is simulated time, not a counter
    fn settle(l2: &mut GtscL2, start: Cycle) -> Vec<(usize, L2ToL1)> {
        let mut out = Vec::new();
        let mut now = start;
        for _ in 0..10_000 {
            l2.tick(now);
            while let Some((b, w)) = l2.take_dram_request() {
                l2.on_dram_response(b, w, now);
            }
            while let Some(r) = l2.take_response() {
                out.push(r);
            }
            if l2.is_idle() {
                break;
            }
            now += 1;
        }
        out
    }

    #[test]
    fn miss_fetches_and_fills_with_mem_ts_lease() {
        let mut l2 = GtscL2::new(L2Params::default());
        l2.on_request(3, read(5, 0, 1), Cycle(0));
        let resps = settle(&mut l2, Cycle(0));
        assert_eq!(resps.len(), 1);
        let (dst, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("expected fill")
        };
        assert_eq!(*dst, 3);
        assert_eq!(f.version, Version::ZERO);
        // Fresh from DRAM: [mem_ts, mem_ts + lease] = [1, 11], then
        // extended for warp_ts=1 (1+10=11).
        assert_eq!(
            f.lease,
            LeaseInfo::Logical {
                wts: Timestamp(1),
                rts: Timestamp(11)
            }
        );
    }

    #[test]
    fn matching_wts_gets_renewal_without_data() {
        let mut l2 = GtscL2::new(L2Params::default());
        l2.on_request(0, read(5, 0, 1), Cycle(0));
        settle(&mut l2, Cycle(0));
        // Same version (wts=1), expired warp: renewal.
        l2.on_request(0, read(5, 1, 30), Cycle(100));
        let resps = settle(&mut l2, Cycle(100));
        assert_eq!(resps.len(), 1);
        let (_, L2ToL1::Renew { lease, .. }) = &resps[0] else {
            panic!("expected renewal")
        };
        assert_eq!(
            *lease,
            LeaseInfo::Logical {
                wts: Timestamp(1),
                rts: Timestamp(40)
            }
        );
        assert_eq!(l2.stats().renewals, 1);
    }

    #[test]
    fn stale_wts_gets_full_fill() {
        let mut l2 = GtscL2::new(L2Params::default());
        l2.on_request(0, read(5, 0, 1), Cycle(0));
        settle(&mut l2, Cycle(0));
        l2.on_request(1, write(5, 1, 77), Cycle(50));
        settle(&mut l2, Cycle(50));
        // SM0 still holds wts=1; the block is now wts=12.
        l2.on_request(0, read(5, 1, 12), Cycle(100));
        let resps = settle(&mut l2, Cycle(100));
        let (_, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("expected fill")
        };
        assert_eq!(f.version, Version(77));
    }

    #[test]
    fn store_is_scheduled_after_outstanding_lease() {
        let mut l2 = GtscL2::new(L2Params::default());
        // Figure 9: fill leaves rts=11 (warp_ts 1 + lease 10).
        l2.on_request(1, read(5, 0, 1), Cycle(0));
        settle(&mut l2, Cycle(0));
        l2.on_request(0, write(5, 1, 42), Cycle(50));
        let resps = settle(&mut l2, Cycle(50));
        let (_, L2ToL1::WriteAck(a)) = &resps[0] else {
            panic!("expected ack")
        };
        // wts = max(11+1, 1) = 12; rts = 22 — exactly Figure 9 step 8.
        assert_eq!(
            a.lease,
            LeaseInfo::Logical {
                wts: Timestamp(12),
                rts: Timestamp(22)
            }
        );
        assert_eq!(a.version, Version(42));
    }

    #[test]
    fn write_miss_allocates_then_commits() {
        let mut l2 = GtscL2::new(L2Params::default());
        l2.on_request(0, write(9, 5, 11), Cycle(0));
        let resps = settle(&mut l2, Cycle(0));
        let (_, L2ToL1::WriteAck(a)) = &resps[0] else {
            panic!("expected ack")
        };
        // Fill gives [1,11]; store lands at max(12, 5) = 12.
        assert_eq!(
            a.lease,
            LeaseInfo::Logical {
                wts: Timestamp(12),
                rts: Timestamp(22)
            }
        );
        // Re-read sees the new version.
        l2.on_request(1, read(9, 0, 1), Cycle(100));
        let resps = settle(&mut l2, Cycle(100));
        let (_, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("expected fill")
        };
        assert_eq!(f.version, Version(11));
    }

    #[test]
    fn eviction_folds_lease_into_mem_ts_and_writes_back() {
        let geometry = CacheGeometry::new(256, 1, 128); // 2 sets, direct-mapped
        let mut l2 = GtscL2::new(L2Params {
            geometry,
            ..L2Params::default()
        });
        l2.on_request(0, write(0, 50, 7), Cycle(0)); // rts becomes 61+10? fill[1,11] -> wts=max(12,50)=50, rts=60
        settle(&mut l2, Cycle(0));
        assert_eq!(l2.mem_ts(), Timestamp(1));
        // Block 2 maps to the same set; fetching it evicts dirty block 0.
        l2.on_request(0, read(2, 0, 1), Cycle(100));
        settle(&mut l2, Cycle(100));
        assert_eq!(l2.mem_ts(), Timestamp(60));
        assert_eq!(l2.stats().evictions, 1);
        // Fetch block 0 back: version must survive via the backing store,
        // and its new lease starts at mem_ts (Figure 6).
        l2.on_request(0, read(0, 0, 1), Cycle(200));
        let resps = settle(&mut l2, Cycle(200));
        let fills: Vec<_> = resps
            .iter()
            .filter_map(|(_, m)| {
                if let L2ToL1::Fill(f) = m {
                    Some(f)
                } else {
                    None
                }
            })
            .collect();
        let f = fills
            .iter()
            .find(|f| f.block == BlockAddr(0))
            .expect("refetch fill");
        assert_eq!(f.version, Version(7));
        assert_eq!(
            f.lease,
            LeaseInfo::Logical {
                wts: Timestamp(60),
                rts: Timestamp(70)
            }
        );
    }

    #[test]
    fn merged_requests_all_get_responses() {
        let mut l2 = GtscL2::new(L2Params::default());
        l2.on_request(0, read(5, 0, 1), Cycle(0));
        l2.on_request(1, read(5, 0, 3), Cycle(0));
        l2.on_request(2, read(5, 0, 9), Cycle(0));
        // Let the bank process all three requests while the DRAM fetch is
        // still outstanding — they must merge into one entry.
        let mut dram = Vec::new();
        for c in 0..50 {
            l2.tick(Cycle(c));
            while let Some(d) = l2.take_dram_request() {
                dram.push(d);
            }
        }
        assert_eq!(
            dram,
            vec![(BlockAddr(5), false)],
            "single outstanding fetch per block"
        );
        assert_eq!(l2.stats().mshr_merges, 2);
        l2.on_dram_response(BlockAddr(5), false, Cycle(50));
        let resps = settle(&mut l2, Cycle(50));
        assert_eq!(resps.len(), 3);
        let dsts: Vec<usize> = resps.iter().map(|(d, _)| *d).collect();
        assert_eq!(dsts, vec![0, 1, 2]);
        assert_eq!(l2.stats().cold_misses, 3);
    }

    #[test]
    fn overflow_requests_reset_and_reset_rebases_leases() {
        let mut l2 = GtscL2::new(L2Params {
            ts_bits: 6,
            ..L2Params::default()
        }); // cap 64
        l2.on_request(0, read(5, 0, 1), Cycle(0));
        settle(&mut l2, Cycle(0));
        assert!(!l2.needs_reset());
        l2.on_request(0, read(5, 1, 60), Cycle(50)); // rts -> 70 > 63
        settle(&mut l2, Cycle(50));
        assert!(l2.needs_reset());
        l2.apply_reset(1, Cycle(90));
        assert_eq!(l2.epoch(), 1);
        assert!(!l2.needs_reset());
        assert_eq!(l2.mem_ts(), Timestamp::INIT);
        // Old-epoch renewal request now degrades to a fill in epoch 1.
        l2.on_request(0, read(5, 1, 60), Cycle(100));
        let resps = settle(&mut l2, Cycle(100));
        let (_, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("stale request must fill")
        };
        assert_eq!(f.epoch, 1);
        assert_eq!(
            f.lease,
            LeaseInfo::Logical {
                wts: Timestamp(1),
                rts: Timestamp(11)
            }
        );
        assert_eq!(l2.stats().ts_rollovers, 1);
    }

    #[test]
    fn crash_preserves_data_and_forces_global_reset() {
        let mut l2 = GtscL2::new(L2Params::default());
        // Write some data, leave the line resident and dirty.
        l2.on_request(0, write(5, 1, 42), Cycle(0));
        settle(&mut l2, Cycle(0));
        // Leave a request in flight so the crash has state to wipe.
        l2.on_request(1, read(9, 0, 1), Cycle(50));
        l2.tick(Cycle(60));
        assert!(!l2.is_idle(), "a DRAM fetch is outstanding");
        assert!(l2.crash(Cycle(70)), "G-TSC supports crash/recovery");
        // The crash wiped all transaction state and requests the global
        // Section V-D reset.
        assert!(l2.needs_reset(), "recovery must force the epoch bump");
        l2.apply_reset(1, Cycle(90));
        assert_eq!(l2.epoch(), 1);
        assert!(l2.is_idle(), "no transaction survives the crash");
        // The written version survives "via DRAM": a post-recovery read
        // refetches it with a fresh epoch-1 lease.
        l2.on_request(0, read(5, 0, 1), Cycle(100));
        let resps = settle(&mut l2, Cycle(100));
        let (_, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("expected fill")
        };
        assert_eq!(f.version, Version(42), "data must survive the crash");
        assert_eq!(f.epoch, 1);
        assert_eq!(
            f.lease,
            LeaseInfo::Logical {
                wts: Timestamp(1),
                rts: Timestamp(11)
            }
        );
    }

    #[test]
    fn crash_recovery_passes_the_sanitizer() {
        use gtsc_trace::{Sanitizer, Scope, SpanTracker};
        let mut l2 = GtscL2::new(L2Params::default());
        let root = Sanitizer::enabled(Scope::Sm(0));
        let (off, spans) = (gtsc_types::TraceConfig::default(), SpanTracker::disabled());
        l2.set_probe(Probe::new(Scope::L2Bank(0), &off, &root, &spans));
        l2.on_request(0, write(5, 1, 42), Cycle(0));
        settle(&mut l2, Cycle(0));
        l2.crash(Cycle(50));
        l2.apply_reset(1, Cycle(90));
        // Post-recovery activity is all epoch 1: no pre-crash lease may
        // reappear.
        l2.on_request(0, read(5, 0, 1), Cycle(100));
        l2.on_request(1, write(5, 2, 43), Cycle(120));
        settle(&mut l2, Cycle(100));
        assert!(root.violations().is_empty(), "{:?}", root.violations());
        assert!(root.checked() > 0);
    }

    #[test]
    fn inclusive_ablation_broadcasts_recalls() {
        let geometry = CacheGeometry::new(256, 1, 128);
        let mut l2 = GtscL2::new(L2Params {
            geometry,
            inclusion: InclusionPolicy::Inclusive,
            n_sms: 4,
            ..L2Params::default()
        });
        l2.on_request(0, read(0, 0, 1), Cycle(0));
        settle(&mut l2, Cycle(0));
        l2.on_request(0, read(2, 0, 1), Cycle(100)); // evicts block 0
        let resps = settle(&mut l2, Cycle(100));
        let recalls: Vec<_> = resps
            .iter()
            .filter(|(_, m)| matches!(m, L2ToL1::Invalidate { .. }))
            .collect();
        assert_eq!(recalls.len(), 4);
    }

    #[test]
    fn latency_delays_service() {
        let mut l2 = GtscL2::new(L2Params {
            latency: 10,
            ..L2Params::default()
        });
        l2.on_request(0, read(5, 0, 1), Cycle(0));
        l2.tick(Cycle(5));
        assert!(l2.take_response().is_none());
        assert!(l2.take_dram_request().is_none());
        l2.tick(Cycle(10));
        assert!(l2.take_dram_request().is_some());
    }

    #[test]
    fn atomic_rmw_returns_previous_version_and_never_stalls() {
        let mut l2 = GtscL2::new(L2Params::default());
        // Reader takes a long lease on the block.
        l2.on_request(1, read(5, 0, 40), Cycle(0));
        settle(&mut l2, Cycle(0));
        // An atomic arrives while the lease is live: G-TSC performs it
        // immediately, scheduled after the lease in logical time.
        l2.on_request(
            0,
            L1ToL2::Atomic(WriteReq {
                block: BlockAddr(5),
                warp_ts: Timestamp(1),
                version: Version(77),
                epoch: 0,
                span: SpanId::NONE,
            }),
            Cycle(10),
        );
        let resps = settle(&mut l2, Cycle(10));
        let (_, L2ToL1::AtomicAck { ack, prev }) = &resps[0] else {
            panic!("expected atomic ack")
        };
        assert_eq!(*prev, Version::ZERO, "read half observes the old value");
        assert_eq!(ack.version, Version(77));
        // Lease [1, 50] was outstanding: the RMW lands at 51.
        assert_eq!(
            ack.lease,
            LeaseInfo::Logical {
                wts: Timestamp(51),
                rts: Timestamp(61)
            }
        );
        assert_eq!(l2.stats().write_stall_cycles, 0);
    }

    #[test]
    fn atomic_chain_at_l2_observes_each_predecessor() {
        let mut l2 = GtscL2::new(L2Params::default());
        for i in 0..4u64 {
            l2.on_request(
                0,
                L1ToL2::Atomic(WriteReq {
                    block: BlockAddr(5),
                    warp_ts: Timestamp(1),
                    version: Version(100 + i),
                    epoch: 0,
                    span: SpanId::NONE,
                }),
                Cycle(i * 100),
            );
        }
        let resps = settle(&mut l2, Cycle(0));
        let prevs: Vec<Version> = resps
            .iter()
            .filter_map(|(_, m)| {
                if let L2ToL1::AtomicAck { prev, .. } = m {
                    Some(*prev)
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(
            prevs,
            vec![Version::ZERO, Version(100), Version(101), Version(102)]
        );
    }

    #[test]
    fn ports_bound_throughput() {
        // (see below for the property-based suite)
        let mut l2 = GtscL2::new(L2Params {
            ports: 1,
            latency: 0,
            ..L2Params::default()
        });
        l2.on_request(0, read(1, 0, 1), Cycle(0));
        l2.on_request(0, read(3, 0, 1), Cycle(0));
        l2.tick(Cycle(0));
        assert_eq!(l2.take_dram_request(), Some((BlockAddr(1), false)));
        assert_eq!(l2.take_dram_request(), None); // second waits a cycle
        l2.tick(Cycle(1));
        assert_eq!(l2.take_dram_request(), Some((BlockAddr(3), false)));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use gtsc_protocol::msg::{ReadReq, WriteReq};
    use proptest::prelude::*;

    /// Drives one bank with an arbitrary request stream (instant DRAM) and
    /// checks the protocol invariants on every response.
    fn drive(ops: &[(bool, u64, u64, u64)]) -> Result<(), TestCaseError> {
        let mut l2 = GtscL2::new(L2Params {
            ts_bits: 48,
            ..L2Params::default()
        });
        let mut now = Cycle(0);
        let mut last_wts: FxHashMap<BlockAddr, Timestamp> = FxHashMap::default();
        let mut version = 0u64;
        for (is_write, block, warp_ts, gap) in ops {
            now += gap + 1;
            let block = BlockAddr(*block);
            if *is_write {
                version += 1;
                l2.on_request(
                    0,
                    L1ToL2::Write(WriteReq {
                        block,
                        warp_ts: Timestamp(*warp_ts),
                        version: Version(version),
                        epoch: 0,
                        span: SpanId::NONE,
                    }),
                    now,
                );
            } else {
                // Renewal-style read: claim the block's last known wts
                // (or 0 for a cold read).
                let wts = last_wts.get(&block).copied().unwrap_or(Timestamp(0));
                l2.on_request(
                    0,
                    L1ToL2::Read(ReadReq {
                        block,
                        wts,
                        warp_ts: Timestamp(*warp_ts),
                        epoch: 0,
                        span: SpanId::NONE,
                    }),
                    now,
                );
            }
            // Settle fully before the next request (serial driving keeps
            // the invariants easy to state).
            for _ in 0..64 {
                now += 1;
                l2.tick(now);
                while let Some((b, w)) = l2.take_dram_request() {
                    l2.on_dram_response(b, w, now);
                }
                let mut any = false;
                while let Some((_, resp)) = l2.take_response() {
                    any = true;
                    match resp {
                        L2ToL1::Fill(f) => {
                            let LeaseInfo::Logical { wts, rts } = f.lease else {
                                return Err(TestCaseError::fail("fill without logical lease"));
                            };
                            prop_assert!(wts <= rts, "lease inverted: {wts} > {rts}");
                            prop_assert!(rts.0 >= *warp_ts, "lease does not cover the requester");
                            last_wts.insert(f.block, wts);
                        }
                        L2ToL1::Renew { block, lease, .. } => {
                            let LeaseInfo::Logical { wts, rts } = lease else {
                                return Err(TestCaseError::fail("renewal without lease"));
                            };
                            prop_assert!(wts <= rts);
                            // A renewal must confirm the version we hold.
                            prop_assert_eq!(Some(&wts), last_wts.get(&block));
                        }
                        L2ToL1::WriteAck(a) | L2ToL1::AtomicAck { ack: a, .. } => {
                            let LeaseInfo::Logical { wts, rts } = a.lease else {
                                return Err(TestCaseError::fail("ack without lease"));
                            };
                            prop_assert!(wts <= rts);
                            // Per-block write timestamps strictly increase.
                            if let Some(prev) = last_wts.get(&a.block) {
                                prop_assert!(
                                    wts > *prev,
                                    "store wts {wts} not after previous {prev}"
                                );
                            }
                            last_wts.insert(a.block, wts);
                        }
                        L2ToL1::Invalidate { .. } => {}
                    }
                }
                if !any && l2.is_idle() {
                    break;
                }
            }
            prop_assert!(l2.is_idle(), "bank failed to settle");
        }
        Ok(())
    }

    proptest! {
        /// Protocol invariants hold for arbitrary serialized request
        /// streams: leases are well-formed and cover their requester,
        /// renewals only confirm the held version, and per-block store
        /// timestamps strictly increase.
        #[test]
        fn invariants_under_random_streams(
            ops in proptest::collection::vec(
                (proptest::bool::ANY, 0u64..12, 0u64..500, 0u64..5),
                1..60,
            )
        ) {
            drive(&ops)?;
        }
    }
}
