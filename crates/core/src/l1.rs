//! The G-TSC private-cache (L1) controller — one per SM.
//!
//! Implements Figures 2, 3, 7 and 8 of the paper plus the GPU-specific
//! mechanisms of Section V:
//!
//! * **Update visibility** (§V-A): after a store, the line is locked until
//!   the L2's acknowledgment assigns the new version its lease. Reads
//!   arriving meanwhile wait in the MSHR (option 1, the paper's choice) or
//!   are served from a retained old copy (option 2, modelled for the
//!   ablation). Without this, a warp could observe a value at a logical
//!   time *before* the value is produced — the Figure 10 violation.
//! * **Request combining** (§V-B): replicated reads from different warps
//!   merge into one MSHR entry and one `BusRd`; waiters whose `warp_ts`
//!   the returned lease does not cover trigger a renewal. The
//!   `ForwardAll` policy sends every request instead (ablation).
//! * **Write-through, write-no-allocate** L1, as in GPGPU-Sim.

use std::collections::VecDeque;

use gtsc_mem::{Mshr, MshrAlloc, TagArray};
use gtsc_protocol::msg::{Epoch, L1ToL2, L2ToL1, LeaseInfo, ReadReq, WriteAckResp, WriteReq};
use gtsc_protocol::{
    AccessKind, Completion, ControllerPressure, L1Controller, L1Outcome, MemAccess, PendingStore,
    StoreBook, VersionMint, WaitHint, Waiter,
};
use gtsc_trace::span::ServeClass;
use gtsc_trace::{EventKind, LeaseOp, Probe};
use gtsc_types::{
    BlockAddr, CacheGeometry, CacheStats, CombinePolicy, Cycle, FxHashMap, SpanId, Timestamp,
    Version, VisibilityPolicy, WarpId,
};

use crate::mutation::ProtocolMutation;
use crate::rules::{lease_covers, load_ts, merge_rts};

/// A retained pre-store copy (the `DualCopy` visibility policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OldCopy {
    wts: Timestamp,
    rts: Timestamp,
    version: Version,
}

/// Per-line L1 coherence state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct L1Meta {
    wts: Timestamp,
    rts: Timestamp,
    version: Version,
    /// Stores awaiting their `BusWrAck`; while nonzero the line is locked
    /// (update visibility, Section V-A).
    pending_stores: u32,
    /// Old data kept readable under the `DualCopy` policy.
    old: Option<OldCopy>,
    /// Warps with stores pending on this line (they may not read even the
    /// old copy — they must observe their own store).
    writers: Vec<WarpId>,
}

impl L1Meta {
    fn locked(&self) -> bool {
        self.pending_stores > 0
    }
}

/// G-TSC's own state of a store or atomic waiting for its
/// `BusWrAck`/`AtomicAck`. Packed: padded, the flag would round it up
/// to 16 bytes and a booked store from 32 to 40, which shows in peak
/// memory. Its fields are read and written by value, never borrowed.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct StoreState {
    /// Whether this store found the block resident and locked the line
    /// (update visibility). Only such stores may unlock it again: a store
    /// issued while the block was absent must not decrement the lock
    /// count of a line installed in between, or a newer pending store's
    /// data would become readable under a stale lease.
    locked_line: bool,
    /// Cycle the request (or its latest retry) went out, for the
    /// end-to-end retry timer.
    sent: Cycle,
}

/// Construction parameters for [`GtscL1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Params {
    /// Cache geometry.
    pub geometry: CacheGeometry,
    /// Warp slots in the owning SM.
    pub n_warps: usize,
    /// Index of the owning SM (namespaces the versions this L1 mints).
    pub sm_index: usize,
    /// MSHR entry count.
    pub mshr_entries: usize,
    /// Maximum merged waiters per MSHR entry.
    pub mshr_merges: usize,
    /// Request-combining policy (Section V-B).
    pub combine: CombinePolicy,
    /// Update-visibility policy (Section V-A).
    pub visibility: VisibilityPolicy,
}

impl Default for L1Params {
    /// A small configuration for unit tests and doc examples.
    fn default() -> Self {
        L1Params {
            geometry: CacheGeometry::new(2 * 1024, 2, 128),
            n_warps: 4,
            sm_index: 0,
            mshr_entries: 8,
            mshr_merges: 4,
            combine: CombinePolicy::MergeInMshr,
            visibility: VisibilityPolicy::BlockLine,
        }
    }
}

/// The G-TSC private cache of one SM.
///
/// See the crate-level example for usage; the [`L1Controller`] trait
/// documents the driving contract.
#[derive(Debug)]
pub struct GtscL1 {
    p: L1Params,
    tags: TagArray<L1Meta>,
    /// The warp timestamp table of Section III-B.
    warp_ts: Vec<Timestamp>,
    mshr: Mshr<Waiter>,
    /// Blocks with a `BusRd` currently in flight, with the cycle it (or
    /// its latest retry) was sent and whether it was a renewal / expired
    /// refetch (`wts != 0` — feeds the lease-expired wait hint; an MSHR
    /// entry without one is waiting on a store ack instead). Hashed like
    /// the MSHR it shadows — entries come and go with every miss, and an
    /// ordered map pays a node for each; the one walk whose order shows
    /// (the retry scan in [`GtscL1::tick`]) sorts first.
    rd_inflight: FxHashMap<BlockAddr, (Cycle, bool)>,
    /// How many `rd_inflight` entries are renewals — kept in lockstep by
    /// [`GtscL1::rd_insert`]/[`GtscL1::rd_remove`] so the per-cycle
    /// [`GtscL1::wait_hint`] never scans the map.
    renewals_inflight: u32,
    stores: StoreBook<StoreState>,
    /// The (empty) `writers` lists of evicted lines, reused by the next
    /// line that is stored to: at most one per line of the cache.
    /// Volatile, never snapshotted.
    spare_writers: Vec<Vec<WarpId>>,
    /// End-to-end retry timer: requests unanswered this many cycles are
    /// re-sent. `None` (the default) disables retry — only enabled when
    /// the run injects loss faults, where a request can vanish with its
    /// transport flow (an L2-bank crash wipes undelivered segments).
    /// Idempotency makes the re-send safe: duplicate reads are
    /// natural renewals, duplicate stores hit the L2 replay filter.
    retry_timeout: Option<u64>,
    /// No request is overdue before this cycle: a lower bound on
    /// `min(sent) + retry_timeout` over `rd_inflight` and `stores`,
    /// lowered wherever a `sent` stamp is set and made exact by the retry
    /// scan that gets past it (`u64::MAX` with retry off). Derived state,
    /// never snapshotted: `load_state` recomputes it.
    retry_due: Cycle,
    out: VecDeque<L1ToL2>,
    /// What the latest `on_response` / `tick` completed: emptied on entry
    /// to either, lent out until the next call (see `L1Outcome::Reject`).
    /// Volatile, never snapshotted.
    done: Vec<Completion>,
    epoch: Epoch,
    mint: VersionMint,
    stats: CacheStats,
    probe: Probe,
    /// Test-only protocol mutant (see [`crate::mutation`]); `None` in
    /// production.
    mutation: ProtocolMutation,
}

impl GtscL1 {
    /// Creates an empty controller.
    #[must_use]
    pub fn new(p: L1Params) -> Self {
        GtscL1 {
            tags: TagArray::new(p.geometry),
            warp_ts: vec![Timestamp::INIT; p.n_warps],
            mshr: Mshr::new(p.mshr_entries, p.mshr_merges),
            rd_inflight: FxHashMap::default(),
            renewals_inflight: 0,
            stores: StoreBook::default(),
            spare_writers: Vec::new(),
            retry_timeout: None,
            retry_due: Cycle(u64::MAX),
            out: VecDeque::new(),
            done: Vec::new(),
            epoch: 0,
            mint: VersionMint::new(p.sm_index, p.n_warps),
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

    /// Current timestamp of `warp` (exposed for tests and the checker).
    ///
    /// # Panics
    ///
    /// Panics if `warp` is out of range.
    #[must_use]
    pub fn warp_ts(&self, warp: WarpId) -> Timestamp {
        self.warp_ts[warp.0 as usize]
    }

    /// The controller's current reset epoch.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Turns on the end-to-end retry timer: any read or store
    /// unanswered for `timeout` cycles is re-sent from [`GtscL1::tick`].
    /// The simulator enables this only when loss faults are active —
    /// an L2-bank crash discards undelivered request segments, and only
    /// this retry closes that gap (the transport cannot: its flow state
    /// died with the bank). Must stay off otherwise, or a run that is
    /// *supposed* to stall (e.g. a starved DRAM) would mask the stall
    /// with an endless retry stream.
    pub fn enable_retry(&mut self, timeout: u64) {
        self.retry_timeout = Some(timeout.max(1));
        self.retry_due = self.earliest_retry();
    }

    /// A request stamped `sent` is in flight: its timer may be the next.
    fn note_sent(&mut self, sent: Cycle) {
        if let Some(timeout) = self.retry_timeout {
            self.retry_due = self.retry_due.min(sent + timeout);
        }
    }

    /// The cycle the oldest unanswered request becomes overdue, computed
    /// from scratch; `u64::MAX` with nothing in flight or retry off.
    fn earliest_retry(&self) -> Cycle {
        let Some(timeout) = self.retry_timeout else {
            return Cycle(u64::MAX);
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "a minimum does not depend on the order"
        )]
        let reads = self.rd_inflight.values().map(|&(sent, _)| sent);
        let stores = self.stores.min_of(|s| s.state.sent);
        (reads.chain(stores).min()).map_or(Cycle(u64::MAX), |sent| sent + timeout)
    }

    fn complete_load(
        &mut self,
        w: Waiter,
        block: BlockAddr,
        wts: Timestamp,
        version: Version,
        now: Cycle,
    ) -> Completion {
        let slot = &mut self.warp_ts[w.warp.0 as usize];
        *slot = load_ts(*slot, wts);
        let ts = *slot;
        self.probe
            .emit(now, || EventKind::WarpTs { warp: w.warp.0, ts });
        Completion {
            ts: Some(ts),
            epoch: self.epoch,
            ..w.loaded(block, version)
        }
    }

    fn send_read(
        &mut self,
        block: BlockAddr,
        wts: Timestamp,
        warp: WarpId,
        span: SpanId,
        now: Cycle,
    ) {
        if wts != Timestamp(0) {
            self.stats.renewals += 1;
        }
        self.rd_insert(block, now, wts != Timestamp(0));
        self.out.push_back(L1ToL2::Read(ReadReq {
            block,
            wts,
            warp_ts: self.warp_ts[warp.0 as usize],
            epoch: self.epoch,
            span,
        }));
    }

    /// Registers a missing/expired/locked load in the MSHR.
    /// `request_wts` is `Some(wts)` when a `BusRd` should go out
    /// (`None` for loads parked on a locked line, which the store ack will
    /// serve).
    fn queue_load(
        &mut self,
        acc: MemAccess,
        request_wts: Option<Timestamp>,
        now: Cycle,
    ) -> L1Outcome {
        match self.mshr.register(acc.block, Waiter::of(&acc)) {
            MshrAlloc::Full => L1Outcome::Reject,
            MshrAlloc::AllocatedNew => {
                if let Some(wts) = request_wts {
                    self.send_read(acc.block, wts, acc.warp, acc.span, now);
                }
                L1Outcome::Queued
            }
            MshrAlloc::Merged => {
                self.stats.mshr_merges += 1;
                self.probe.spans(|s| s.note_merged(acc.span));
                if self.p.combine == CombinePolicy::ForwardAll {
                    if let Some(wts) = request_wts {
                        self.send_read(acc.block, wts, acc.warp, acc.span, now);
                    }
                }
                L1Outcome::Queued
            }
        }
    }

    /// Serves the MSHR waiters of `block` against lease `[wts, rts]`
    /// supplying `version`. Waiters the lease does not cover are
    /// re-queued — the entry's own list, partitioned in place — and,
    /// unless a read is already in flight, a renewal is sent on behalf of
    /// one of them (Section V-B).
    fn serve_waiters(
        &mut self,
        block: BlockAddr,
        wts: Timestamp,
        rts: Timestamp,
        version: Version,
        now: Cycle,
    ) {
        let mut waiters = self.mshr.take(block);
        waiters.retain(|&w| {
            let covered = lease_covers(rts, self.warp_ts[w.warp.0 as usize]);
            if covered {
                let c = self.complete_load(w, block, wts, version, now);
                self.done.push(c);
            }
            !covered
        });
        // Renew on behalf of the waiter with the *largest* warp
        // timestamp: the L2 extends the lease to cover it (Figure 4),
        // which covers every other uncovered waiter in one trip.
        let furthest = (waiters.iter().copied()).max_by_key(|w| self.warp_ts[w.warp.0 as usize]);
        let Some(furthest) = furthest else {
            self.mshr.recycle(waiters);
            return;
        };
        self.mshr.requeue(block, waiters);
        if !self.rd_inflight.contains_key(&block) {
            self.send_read(block, wts, furthest.warp, SpanId::NONE, now);
        }
    }

    /// Section V-D: a response from a newer epoch flushes the L1 and
    /// resets every warp timestamp before it is consumed.
    fn enter_epoch(&mut self, epoch: Epoch, now: Cycle) {
        self.tags.flush(drop);
        // The flush destroyed every line's pending-store lock state. Acks
        // still owed to the surviving waiters must not decrement (or
        // install a lease into) whatever line is re-installed in the new
        // epoch — a stale `locked_line` would steal a *post*-flush
        // store's lock and expose its uncommitted data to parked loads.
        self.stores.for_each_mut(|s| s.state.locked_line = false);
        for ts in &mut self.warp_ts {
            *ts = Timestamp::INIT;
        }
        self.epoch = epoch;
        self.stats.ts_rollovers += 1;
        self.probe.emit(now, || EventKind::Rollover { epoch });
        // Parked loads (no BusRd in flight) will be re-driven by the store
        // acks that still owe them service; in-flight reads will be
        // answered in the new epoch by the (already reset) L2.
    }

    /// A response from an older epoch: its lease is in dead coordinates
    /// *for this L1* (whose lines and warp timestamps were reset), but a
    /// store ack still certifies a commit at `(old epoch, wts)` — that
    /// key must reach the checker, or loads that observed the version
    /// would be flagged. Loads are retried from scratch.
    fn on_stale_response(&mut self, msg: L2ToL1, now: Cycle) {
        if let Some((a, prev)) = msg.as_store_ack() {
            let stale_lease = match a.lease {
                LeaseInfo::Logical { wts, rts } => Some((wts, rts)),
                _ => None,
            };
            if let Some(c) =
                self.finish_store(a.block, a.version, stale_lease, a.epoch, prev, false, now)
            {
                self.done.push(c);
            }
        } else if matches!(msg, L2ToL1::Invalidate { .. }) {
            return;
        }
        self.retry_reads_fresh(msg.block(), now);
    }

    /// A store ack of the current epoch: completes its store, installs
    /// the lease it assigns (Figure 7b) and, if that unlocks the line,
    /// serves the loads parked on it.
    fn on_store_ack(&mut self, a: WriteAckResp, prev: Option<Version>, now: Cycle) {
        let LeaseInfo::Logical { wts, rts } = a.lease else {
            unreachable!("G-TSC write acks carry logical leases");
        };
        let lease = Some((wts, rts));
        if let Some(c) = self.finish_store(a.block, a.version, lease, a.epoch, prev, true, now) {
            self.probe
                .emit(now, || EventKind::WriteAck { block: a.block });
            self.done.push(c);
        }
        // The ack may unlock the line: serve parked readers.
        let line_state = self
            .tags
            .peek(a.block)
            .map(|l| (l.meta.locked(), l.meta.wts, l.meta.rts, l.meta.version));
        match line_state {
            Some((false, lwts, lrts, lver)) => {
                self.serve_waiters(a.block, lwts, lrts, lver, now);
            }
            Some((true, ..)) => {} // still locked by another store
            None => {
                // Not resident (write-no-allocate / recalled):
                // parked readers must refetch.
                if self.mshr.contains(a.block) && !self.rd_inflight.contains_key(&a.block) {
                    self.send_read(a.block, Timestamp(0), WarpId(0), SpanId::NONE, now);
                }
            }
        }
    }

    /// Tracks an in-flight read, keeping the renewal census exact even
    /// when a retry overwrites an entry that was a renewal.
    fn rd_insert(&mut self, block: BlockAddr, now: Cycle, renewal: bool) {
        self.note_sent(now);
        if let Some((_, was_renewal)) = self.rd_inflight.insert(block, (now, renewal)) {
            if was_renewal {
                self.renewals_inflight -= 1;
            }
        }
        if renewal {
            self.renewals_inflight += 1;
        }
    }

    /// Retires an in-flight read (no-op when none is tracked).
    fn rd_remove(&mut self, block: BlockAddr) {
        if let Some((_, was_renewal)) = self.rd_inflight.remove(&block) {
            if was_renewal {
                self.renewals_inflight -= 1;
            }
        }
    }

    fn retry_reads_fresh(&mut self, block: BlockAddr, now: Cycle) {
        self.rd_remove(block);
        if self.mshr.contains(block) {
            let warp = WarpId(0);
            self.send_read(block, Timestamp(0), warp, SpanId::NONE, now);
        }
    }

    /// Completes the matching pending store or atomic; `lease` installs
    /// the acked version's lease when this was the line's newest store.
    /// `prev` carries the read half of an atomic. `apply` controls whether
    /// the warp-timestamp bump and line updates happen (they must not for
    /// a stale-epoch ack, whose lease coordinates predate this L1's reset
    /// — the lease still stamps the returned [`Completion`]).
    #[allow(clippy::too_many_arguments)]
    fn finish_store(
        &mut self,
        block: BlockAddr,
        version: Version,
        lease: Option<(Timestamp, Timestamp)>,
        epoch: Epoch,
        prev: Option<Version>,
        apply: bool,
        now: Cycle,
    ) -> Option<Completion> {
        let sw = self.stores.take(block, version)?;
        let mut completion_ts = None;
        if let Some((wts, _)) = lease {
            if apply {
                let slot = &mut self.warp_ts[sw.warp.0 as usize];
                // Same advance rule as a load: the warp observes its own
                // store's commit timestamp.
                *slot = load_ts(*slot, wts);
                let ts = *slot;
                self.probe.emit(now, || EventKind::WarpTs {
                    warp: sw.warp.0,
                    ts,
                });
            }
            completion_ts = Some(wts);
        }
        let mut installed = None;
        if let Some(line) = self.tags.peek_mut(block).filter(|_| apply) {
            if sw.state.locked_line {
                line.meta.pending_stores = line.meta.pending_stores.saturating_sub(1);
                if let Some(i) = line.meta.writers.iter().position(|w| *w == sw.warp) {
                    line.meta.writers.swap_remove(i);
                }
            }
            if let Some((wts, rts)) = lease {
                if sw.state.locked_line && line.meta.version == version {
                    // Newest local store: install its lease (Figure 7b).
                    // (A non-locking store's data is not on the line — a
                    // fill may have installed the same version with an
                    // already-extended lease, which must not shrink.)
                    line.meta.wts = wts;
                    line.meta.rts = rts;
                    installed = Some((wts, rts));
                }
            }
            if !line.meta.locked() {
                line.meta.old = None;
            }
        }
        if let Some((wts, rts)) = installed {
            let epoch = self.epoch;
            self.probe.emit(now, || EventKind::Lease {
                op: LeaseOp::Install,
                block,
                wts: wts.0,
                rts: rts.0,
                epoch,
            });
        }
        Some(Completion {
            ts: completion_ts,
            epoch,
            ..sw.acked(block, prev)
        })
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

gtsc_types::snap_fields!(OldCopy { wts, rts, version });

gtsc_types::snap_fields!(L1Meta {
    wts,
    rts,
    version,
    pending_stores,
    old,
    writers,
});

impl Snap for StoreState {
    fn save(&self, w: &mut SnapWriter) {
        { self.locked_line }.save(w);
        { self.sent }.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(StoreState {
            locked_line: Snap::load(r)?,
            sent: Snap::load(r)?,
        })
    }
}

impl L1Controller for GtscL1 {
    fn enable_retry(&mut self, timeout: u64) {
        GtscL1::enable_retry(self, timeout);
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        self.tags.save_state(w);
        self.warp_ts.save(w);
        self.mshr.save_state(w);
        self.rd_inflight.save(w);
        self.stores.save(w);
        self.retry_timeout.save(w);
        self.out.save(w);
        self.epoch.save(w);
        self.mint.save_state(w);
        self.stats.save(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.tags.load_state(r)?;
        let warp_ts: Vec<Timestamp> = Snap::load(r)?;
        if warp_ts.len() != self.warp_ts.len() {
            return Err(SnapshotError::Mismatch {
                what: "L1 warp-timestamp table size".into(),
            });
        }
        self.warp_ts = warp_ts;
        self.mshr.load_state(r)?;
        self.rd_inflight = Snap::load(r)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "a count does not depend on the order"
        )]
        let renewals = self.rd_inflight.values().filter(|&&(_, r)| r).count();
        self.renewals_inflight = u32::try_from(renewals).unwrap_or(0);
        self.stores = Snap::load(r)?;
        self.retry_timeout = Snap::load(r)?;
        self.retry_due = self.earliest_retry();
        self.out = Snap::load(r)?;
        self.epoch = Snap::load(r)?;
        self.mint.load_state(r)?;
        self.stats = Snap::load(r)?;
        Ok(())
    }

    fn access(&mut self, acc: MemAccess, now: Cycle) -> L1Outcome {
        // Counters are bumped only for *accepted* accesses: a rejected
        // access is retried by the SM and would otherwise be counted on
        // every retry cycle.
        match acc.kind {
            AccessKind::Load => {
                let warp_now = self.warp_ts[acc.warp.0 as usize];
                let Some(line) = self.tags.probe_mut(acc.block) else {
                    // Tag miss (Figure 2): BusRd with wts = 0.
                    let outcome = self.queue_load(acc, Some(Timestamp(0)), now);
                    if !matches!(outcome, L1Outcome::Reject) {
                        self.stats.accesses += 1;
                        self.stats.cold_misses += 1;
                        self.probe.emit(now, || EventKind::ColdMiss {
                            block: acc.block,
                            warp: acc.warp.0,
                        });
                    }
                    return outcome;
                };
                if line.meta.locked() {
                    // Update visibility (Section V-A).
                    // The pre-store copy, unless the warp is one of the
                    // writers (it must observe its own store).
                    let old = (line.meta.old).filter(|_| !line.meta.writers.contains(&acc.warp));
                    if self.p.visibility == VisibilityPolicy::DualCopy {
                        if let Some(old) = old {
                            if lease_covers(old.rts, warp_now) {
                                self.stats.accesses += 1;
                                self.stats.hits += 1;
                                self.probe.emit(now, || EventKind::Hit {
                                    block: acc.block,
                                    warp: acc.warp.0,
                                    warp_ts: warp_now.0,
                                    rts: old.rts.0,
                                });
                                let w = Waiter::of(&acc);
                                let c = self.complete_load(w, acc.block, old.wts, old.version, now);
                                return L1Outcome::Hit(c);
                            }
                        }
                    }
                    // Park in the MSHR; the store ack will serve it.
                    let outcome = self.queue_load(acc, None, now);
                    if !matches!(outcome, L1Outcome::Reject) {
                        self.stats.accesses += 1;
                        self.stats.blocked_on_pending_write += 1;
                        self.probe
                            .emit(now, || EventKind::BlockedOnWrite { block: acc.block });
                    }
                    return outcome;
                }
                if lease_covers(line.meta.rts, warp_now)
                    || self.mutation == ProtocolMutation::ServeReadPastRts
                {
                    self.stats.accesses += 1;
                    self.stats.hits += 1;
                    let line_rts = line.meta.rts;
                    self.probe.emit(now, || EventKind::Hit {
                        block: acc.block,
                        warp: acc.warp.0,
                        warp_ts: warp_now.0,
                        rts: line_rts.0,
                    });
                    let (wts, version) = (line.meta.wts, line.meta.version);
                    let w = Waiter::of(&acc);
                    return L1Outcome::Hit(self.complete_load(w, acc.block, wts, version, now));
                }
                // Expired relative to this warp: coherence miss → renewal.
                let wts = line.meta.wts;
                let rts = line.meta.rts;
                let outcome = self.queue_load(acc, Some(wts), now);
                if !matches!(outcome, L1Outcome::Reject) {
                    self.stats.accesses += 1;
                    self.stats.expired_misses += 1;
                    // First serve-class report wins; an expired miss is a
                    // refetch regardless of how the L2 answers it.
                    (self.probe).spans(|s| s.note_serve(acc.span, ServeClass::ExpiredRefetch));
                    self.probe.emit(now, || EventKind::ExpiredMiss {
                        block: acc.block,
                        warp_ts: warp_now.0,
                        rts: rts.0,
                    });
                }
                outcome
            }
            AccessKind::Store | AccessKind::Atomic => {
                self.stats.accesses += 1;
                self.stats.stores += 1;
                let version = self.mint.mint(acc.warp);
                let mut locked_line = false;
                if let Some(line) = self.tags.probe_mut(acc.block) {
                    // Figure 3: update data, lock the line until the ack.
                    if self.p.visibility == VisibilityPolicy::DualCopy && line.meta.old.is_none() {
                        line.meta.old = Some(OldCopy {
                            wts: line.meta.wts,
                            rts: line.meta.rts,
                            version: line.meta.version,
                        });
                    }
                    line.meta.pending_stores += 1;
                    line.meta.version = version;
                    if line.meta.writers.capacity() == 0 {
                        line.meta.writers = self.spare_writers.pop().unwrap_or_default();
                    }
                    line.meta.writers.push(acc.warp);
                    locked_line = true;
                }
                let req = WriteReq {
                    block: acc.block,
                    warp_ts: self.warp_ts[acc.warp.0 as usize],
                    version,
                    epoch: self.epoch,
                    span: acc.span,
                };
                self.note_sent(now);
                self.out.push_back(L1ToL2::store(acc.kind, req));
                let state = StoreState {
                    locked_line,
                    sent: now,
                };
                let store = PendingStore::new(&acc, version, state);
                self.stores.push(acc.block, store);
                L1Outcome::Queued
            }
        }
    }

    fn on_response(&mut self, msg: L2ToL1, now: Cycle) -> &[Completion] {
        self.done.clear();
        let e = msg.epoch();
        if e > self.epoch {
            self.enter_epoch(e, now);
        } else if e < self.epoch {
            self.on_stale_response(msg, now);
            return &self.done;
        }
        if let Some((a, prev)) = msg.as_store_ack() {
            self.on_store_ack(a, prev, now);
            return &self.done;
        }
        match msg {
            L2ToL1::Fill(f) => {
                self.rd_remove(f.block);
                let LeaseInfo::Logical { wts, rts } = f.lease else {
                    unreachable!("G-TSC fills carry logical leases");
                };
                let locked = self.tags.peek(f.block).is_some_and(|l| l.meta.locked());
                if !locked {
                    // Install (Figure 8); locked lines keep their pending
                    // store data and waiters are served from the message.
                    // The new line starts with no writers, in the list
                    // (emptied) of the resident copy it replaces; an
                    // evicted line's goes to the next line stored to.
                    let mut writers = (self.tags.peek_mut(f.block))
                        .map_or_else(Vec::new, |l| std::mem::take(&mut l.meta.writers));
                    writers.clear();
                    let meta = L1Meta {
                        wts,
                        rts,
                        version: f.version,
                        pending_stores: 0,
                        old: None,
                        writers,
                    };
                    match self.tags.fill_if(f.block, meta, |l| !l.meta.locked()) {
                        Ok(Some(mut evicted)) => {
                            let mut writers = std::mem::take(&mut evicted.meta.writers);
                            writers.clear();
                            if writers.capacity() > 0 {
                                self.spare_writers.push(writers);
                            }
                            self.stats.evictions += 1;
                            self.probe.emit(now, || EventKind::Eviction {
                                block: evicted.block,
                                rts: evicted.meta.rts.0,
                                mem_ts: None,
                            });
                        }
                        Ok(None) => {}
                        Err(_) => { /* every victim locked: serve from message only */ }
                    }
                    self.probe.emit(now, || EventKind::Lease {
                        op: LeaseOp::Install,
                        block: f.block,
                        wts: wts.0,
                        rts: rts.0,
                        epoch: f.epoch,
                    });
                }
                self.serve_waiters(f.block, wts, rts, f.version, now);
            }
            L2ToL1::Renew { block, lease, .. } => {
                self.rd_remove(block);
                let LeaseInfo::Logical { wts, rts } = lease else {
                    unreachable!("G-TSC renewals carry logical leases");
                };
                // Extend the resident lease (Figure 7a), then serve
                // waiters. A locked line keeps its pending-store data and
                // lets the store ack serve the parked waiters instead; an
                // evicted line needs a full refetch (renewals carry no
                // data).
                let epoch = self.epoch;
                self.probe.emit(now, || EventKind::Lease {
                    op: LeaseOp::Renew,
                    block,
                    wts: wts.0,
                    rts: rts.0,
                    epoch,
                });
                let state = self.tags.peek_mut(block).map(|line| {
                    if !line.meta.locked() {
                        line.meta.rts = merge_rts(line.meta.rts, rts);
                    }
                    (
                        line.meta.locked(),
                        line.meta.wts,
                        line.meta.rts,
                        line.meta.version,
                    )
                });
                match state {
                    Some((false, wts, new_rts, version)) => {
                        self.serve_waiters(block, wts, new_rts, version, now);
                    }
                    Some((true, ..)) => {}
                    None => {
                        if self.mshr.contains(block) {
                            self.send_read(block, Timestamp(0), WarpId(0), SpanId::NONE, now);
                        }
                    }
                }
            }
            L2ToL1::WriteAck(_) | L2ToL1::AtomicAck { .. } => {
                unreachable!("store acks are decoded before the match")
            }
            L2ToL1::Invalidate { block, .. } => {
                self.tags.invalidate(block);
                // Same rule as the epoch flush: the invalidated line's
                // lock state is gone, so its pending stores must not
                // unlock a future re-install of the block.
                for s in self.stores.block_mut(block) {
                    s.state.locked_line = false;
                }
                if self.mshr.contains(block) && !self.rd_inflight.contains_key(&block) {
                    self.send_read(block, Timestamp(0), WarpId(0), SpanId::NONE, now);
                }
            }
        }
        &self.done
    }

    fn take_request(&mut self) -> Option<L1ToL2> {
        self.out.pop_front()
    }

    fn next_event_at(&self) -> Cycle {
        if self.out.is_empty() {
            self.retry_due
        } else {
            Cycle(0)
        }
    }

    fn tick(&mut self, now: Cycle) -> &[Completion] {
        self.done.clear();
        if now < self.retry_due {
            debug_assert!(
                now < self.earliest_retry(),
                "L1 retry horizon {} is late: a request is overdue at {now}",
                self.retry_due
            );
            return &self.done;
        }
        let Some(timeout) = self.retry_timeout else {
            return &self.done;
        };
        // End-to-end retry: requests unanswered past the timeout are
        // re-sent. Overdue reads restart from scratch (wts = 0 — the
        // lease situation may have changed arbitrarily since); the fill
        // they fetch serves the parked MSHR waiters, with renewals
        // covering any the lease misses.
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted below, before anything is emitted"
        )]
        let mut overdue: Vec<BlockAddr> = self
            .rd_inflight
            .iter()
            .filter(|&(_, &(sent, _))| now.0.saturating_sub(sent.0) >= timeout)
            .map(|(&b, _)| b)
            .collect();
        overdue.sort_unstable();
        for block in overdue {
            self.stats.retries += 1;
            self.rd_insert(block, now, false);
            self.out.push_back(L1ToL2::Read(ReadReq {
                block,
                wts: Timestamp(0),
                warp_ts: Timestamp::INIT,
                epoch: self.epoch,
                span: SpanId::NONE,
            }));
        }
        // Overdue stores re-send the identical (block, version) request:
        // the L2 replay filter makes the duplicate harmless if the
        // original did land, and the ack satisfies this waiter either
        // way. The warp timestamp is re-read (>= the original; the L2
        // takes the max anyway) and the epoch is current — a request
        // from a pre-crash epoch would only be degraded by the L2.
        for block in self.stores.blocks() {
            for sw in self.stores.block_mut(block) {
                if now.0.saturating_sub(sw.state.sent.0) < timeout {
                    continue;
                }
                sw.state.sent = now;
                self.stats.retries += 1;
                let req = WriteReq {
                    block,
                    warp_ts: self.warp_ts[sw.warp.0 as usize],
                    version: sw.version,
                    epoch: self.epoch,
                    span: SpanId::NONE,
                };
                self.out.push_back(L1ToL2::store(sw.kind, req));
            }
        }
        self.retry_due = self.earliest_retry();
        &self.done
    }

    fn flush(&mut self) {
        self.tags.flush(drop);
        for ts in &mut self.warp_ts {
            *ts = Timestamp::INIT;
        }
    }

    fn is_idle(&self) -> bool {
        self.mshr.is_empty() && self.stores.is_empty() && self.out.is_empty()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn pressure(&self) -> ControllerPressure {
        ControllerPressure {
            mshr: self.mshr.len(),
            out_queue: self.out.len(),
            waiting: self.stores.len(),
        }
    }

    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    fn probe(&self) -> Option<&Probe> {
        Some(&self.probe)
    }

    fn wait_hint(&self) -> WaitHint {
        if self.mshr.is_full() {
            WaitHint::MshrFull
        } else if !self.out.is_empty() {
            WaitHint::NocBackpressure
        } else if self.renewals_inflight > 0 {
            WaitHint::LeaseExpired
        } else if !self.mshr.is_empty() || !self.stores.is_empty() {
            WaitHint::Downstream
        } else {
            WaitHint::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_protocol::msg::FillResp;
    use gtsc_protocol::AccessId;

    fn l1() -> GtscL1 {
        GtscL1::new(L1Params::default())
    }

    fn load(id: u64, warp: u16, block: u64) -> MemAccess {
        MemAccess {
            id: AccessId(id),
            warp: WarpId(warp),
            kind: AccessKind::Load,
            block: BlockAddr(block),
            span: SpanId::NONE,
        }
    }

    fn store(id: u64, warp: u16, block: u64) -> MemAccess {
        MemAccess {
            id: AccessId(id),
            warp: WarpId(warp),
            kind: AccessKind::Store,
            block: BlockAddr(block),
            span: SpanId::NONE,
        }
    }

    fn fill(block: u64, wts: u64, rts: u64, version: Version) -> L2ToL1 {
        L2ToL1::Fill(FillResp {
            block: BlockAddr(block),
            lease: LeaseInfo::Logical {
                wts: Timestamp(wts),
                rts: Timestamp(rts),
            },
            version,
            epoch: 0,
            span: SpanId::NONE,
        })
    }

    #[test]
    fn a_booked_store_is_32_bytes() {
        assert_eq!(std::mem::size_of::<PendingStore<StoreState>>(), 32);
    }

    #[test]
    fn cold_miss_sends_busrd_with_zero_wts() {
        let mut c = l1();
        assert!(matches!(
            c.access(load(1, 0, 5), Cycle(0)),
            L1Outcome::Queued
        ));
        let L1ToL2::Read(r) = c.take_request().unwrap() else {
            panic!()
        };
        assert_eq!(r.wts, Timestamp(0));
        assert_eq!(r.warp_ts, Timestamp::INIT);
        assert_eq!(c.stats().cold_misses, 1);
        assert!(!c.is_idle());
    }

    #[test]
    fn fill_completes_waiter_and_bumps_warp_ts() {
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        let done = c.on_response(fill(5, 4, 14, Version(9)), Cycle(30));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].version, Version(9));
        assert_eq!(done[0].ts, Some(Timestamp(4))); // max(1, wts=4)
        assert_eq!(c.warp_ts(WarpId(0)), Timestamp(4));
        assert!(c.is_idle());
    }

    #[test]
    fn subsequent_covered_load_hits_in_l1() {
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 1, 11, Version(9)), Cycle(30));
        match c.access(load(2, 1, 5), Cycle(40)) {
            L1Outcome::Hit(comp) => {
                assert_eq!(comp.version, Version(9));
                assert_eq!(comp.ts, Some(Timestamp(1)));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn warp_beyond_lease_is_expired_miss_with_renewal() {
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 1, 6, Version(9)), Cycle(30));
        // Advance warp 1 logically past the lease via another block.
        c.access(load(2, 1, 7), Cycle(40));
        c.take_request();
        c.on_response(fill(7, 20, 30, Version(3)), Cycle(70));
        assert_eq!(c.warp_ts(WarpId(1)), Timestamp(20));
        // Now warp 1 reads block 5: tag hit but warp_ts 20 > rts 6.
        assert!(matches!(
            c.access(load(3, 1, 5), Cycle(80)),
            L1Outcome::Queued
        ));
        let L1ToL2::Read(r) = c.take_request().unwrap() else {
            panic!()
        };
        assert_eq!(r.wts, Timestamp(1)); // renewal carries the held wts
        assert_eq!(r.warp_ts, Timestamp(20));
        assert_eq!(c.stats().expired_misses, 1);
        assert_eq!(c.stats().renewals, 1);
    }

    #[test]
    fn renewal_response_extends_lease_and_serves_waiter() {
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 1, 6, Version(9)), Cycle(30));
        c.access(load(2, 1, 7), Cycle(40));
        c.take_request();
        c.on_response(fill(7, 20, 30, Version(3)), Cycle(70));
        c.access(load(3, 1, 5), Cycle(80));
        c.take_request();
        let done = c.on_response(
            L2ToL1::Renew {
                block: BlockAddr(5),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(1),
                    rts: Timestamp(30),
                },
                epoch: 0,
                span: SpanId::NONE,
            },
            Cycle(110),
        );
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].version, Version(9));
        // Lease on the line extended: next read by warp 1 hits.
        assert!(matches!(
            c.access(load(4, 1, 5), Cycle(120)),
            L1Outcome::Hit(_)
        ));
    }

    #[test]
    fn store_locks_line_and_ack_unlocks() {
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 1, 11, Version(9)), Cycle(30));
        // Store by warp 0.
        assert!(matches!(
            c.access(store(2, 0, 5), Cycle(40)),
            L1Outcome::Queued
        ));
        let L1ToL2::Write(w) = c.take_request().unwrap() else {
            panic!()
        };
        // Figure 10 scenario: read by warp 1 while the store is pending
        // must NOT hit (BlockLine policy).
        assert!(matches!(
            c.access(load(3, 1, 5), Cycle(41)),
            L1Outcome::Queued
        ));
        assert_eq!(c.stats().blocked_on_pending_write, 1);
        assert!(c.take_request().is_none(), "parked reader sends no BusRd");
        // Ack arrives with the assigned lease [12, 22].
        let done = c.on_response(
            L2ToL1::WriteAck(WriteAckResp {
                block: BlockAddr(5),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(12),
                    rts: Timestamp(22),
                },
                version: w.version,
                epoch: 0,
                span: SpanId::NONE,
            }),
            Cycle(80),
        );
        // Both the store and the parked reader complete.
        assert_eq!(done.len(), 2);
        let st = done.iter().find(|d| d.kind == AccessKind::Store).unwrap();
        assert_eq!(st.ts, Some(Timestamp(12)));
        let ld = done.iter().find(|d| d.kind == AccessKind::Load).unwrap();
        assert_eq!(ld.version, w.version);
        assert!(
            ld.ts.unwrap() >= Timestamp(12),
            "reader sees the new version no earlier than its wts"
        );
        assert_eq!(c.warp_ts(WarpId(0)), Timestamp(12));
        assert!(c.is_idle());
    }

    #[test]
    fn dual_copy_serves_old_version_to_other_warps() {
        let mut c = GtscL1::new(L1Params {
            visibility: VisibilityPolicy::DualCopy,
            ..L1Params::default()
        });
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 1, 11, Version(9)), Cycle(30));
        c.access(store(2, 0, 5), Cycle(40));
        c.take_request();
        // Warp 1 reads during the pending store: old copy served.
        match c.access(load(3, 1, 5), Cycle(41)) {
            L1Outcome::Hit(comp) => {
                assert_eq!(comp.version, Version(9));
                assert!(comp.ts.unwrap() <= Timestamp(11));
            }
            other => panic!("expected old-copy hit, got {other:?}"),
        }
        // The writing warp itself must wait.
        assert!(matches!(
            c.access(load(4, 0, 5), Cycle(42)),
            L1Outcome::Queued
        ));
    }

    #[test]
    fn merged_waiters_without_coverage_trigger_renewal() {
        let mut c = l1();
        // Advance warp 2 far ahead.
        c.access(load(1, 2, 7), Cycle(0));
        c.take_request();
        c.on_response(fill(7, 50, 60, Version(3)), Cycle(30));
        // Warps 0 and 2 both miss on block 5; they merge (one BusRd).
        c.access(load(2, 0, 5), Cycle(40));
        c.access(load(3, 2, 5), Cycle(40));
        assert!(c.take_request().is_some());
        assert!(c.take_request().is_none(), "merged: single request");
        assert_eq!(c.stats().mshr_merges, 1);
        // Fill covers warp 0 (ts 1) but not warp 2 (ts 50).
        let done = c.on_response(fill(5, 1, 11, Version(9)), Cycle(70));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].warp, WarpId(0));
        // A renewal goes out for warp 2.
        let L1ToL2::Read(r) = c.take_request().unwrap() else {
            panic!()
        };
        assert_eq!(r.warp_ts, Timestamp(50));
        assert_eq!(r.wts, Timestamp(1));
        // Renewal response completes warp 2.
        let done = c.on_response(
            L2ToL1::Renew {
                block: BlockAddr(5),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(1),
                    rts: Timestamp(60),
                },
                epoch: 0,
                span: SpanId::NONE,
            },
            Cycle(100),
        );
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].warp, WarpId(2));
    }

    #[test]
    fn forward_all_sends_one_request_per_waiter() {
        let mut c = GtscL1::new(L1Params {
            combine: CombinePolicy::ForwardAll,
            ..L1Params::default()
        });
        c.access(load(1, 0, 5), Cycle(0));
        c.access(load(2, 1, 5), Cycle(0));
        c.access(load(3, 2, 5), Cycle(0));
        let mut n = 0;
        while c.take_request().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn mshr_full_rejects() {
        let mut c = GtscL1::new(L1Params {
            mshr_entries: 1,
            ..L1Params::default()
        });
        assert!(matches!(
            c.access(load(1, 0, 5), Cycle(0)),
            L1Outcome::Queued
        ));
        assert!(matches!(
            c.access(load(2, 0, 7), Cycle(0)),
            L1Outcome::Reject
        ));
    }

    #[test]
    fn epoch_bump_flushes_and_resets_warp_ts() {
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 40, 50, Version(9)), Cycle(30));
        assert_eq!(c.warp_ts(WarpId(0)), Timestamp(40));
        // A response arrives from epoch 1: reset protocol.
        c.access(load(2, 1, 7), Cycle(40));
        c.take_request();
        let done = c.on_response(
            L2ToL1::Fill(FillResp {
                block: BlockAddr(7),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(1),
                    rts: Timestamp(11),
                },
                version: Version(3),
                epoch: 1,
                span: SpanId::NONE,
            }),
            Cycle(70),
        );
        assert_eq!(done.len(), 1);
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.warp_ts(WarpId(0)), Timestamp::INIT);
        // Block 5 was flushed.
        assert!(matches!(
            c.access(load(3, 0, 5), Cycle(80)),
            L1Outcome::Queued
        ));
        assert_eq!(c.stats().ts_rollovers, 1);
    }

    #[test]
    fn store_to_missing_block_is_write_no_allocate() {
        let mut c = l1();
        c.access(store(1, 0, 5), Cycle(0));
        let L1ToL2::Write(w) = c.take_request().unwrap() else {
            panic!()
        };
        let done = c.on_response(
            L2ToL1::WriteAck(WriteAckResp {
                block: BlockAddr(5),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(12),
                    rts: Timestamp(22),
                },
                version: w.version,
                epoch: 0,
                span: SpanId::NONE,
            }),
            Cycle(40),
        );
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, AccessKind::Store);
        // Line was not allocated.
        assert!(matches!(
            c.access(load(2, 0, 5), Cycle(50)),
            L1Outcome::Queued
        ));
        assert_eq!(c.stats().cold_misses, 1);
    }

    #[test]
    fn flush_clears_lines_and_warp_ts() {
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 30, 40, Version(9)), Cycle(30));
        c.flush();
        assert_eq!(c.warp_ts(WarpId(0)), Timestamp::INIT);
        assert!(matches!(
            c.access(load(2, 0, 5), Cycle(50)),
            L1Outcome::Queued
        ));
    }

    #[test]
    fn atomic_locks_line_and_ack_delivers_prev() {
        use gtsc_protocol::msg::WriteAckResp;
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 1, 11, Version(9)), Cycle(30));
        // Atomic by warp 0: line locks, request goes out as Atomic.
        let at = MemAccess {
            id: AccessId(2),
            warp: WarpId(0),
            kind: AccessKind::Atomic,
            block: BlockAddr(5),
            span: SpanId::NONE,
        };
        assert!(matches!(c.access(at, Cycle(40)), L1Outcome::Queued));
        let L1ToL2::Atomic(w) = c.take_request().unwrap() else {
            panic!("expected Atomic")
        };
        // A read meanwhile is parked (update visibility applies to RMWs).
        assert!(matches!(
            c.access(load(3, 1, 5), Cycle(41)),
            L1Outcome::Queued
        ));
        let done = c.on_response(
            L2ToL1::AtomicAck {
                ack: WriteAckResp {
                    block: BlockAddr(5),
                    lease: LeaseInfo::Logical {
                        wts: Timestamp(12),
                        rts: Timestamp(22),
                    },
                    version: w.version,
                    epoch: 0,
                    span: SpanId::NONE,
                },
                prev: Version(9),
            },
            Cycle(80),
        );
        let at_done = done.iter().find(|d| d.kind == AccessKind::Atomic).unwrap();
        assert_eq!(
            at_done.prev,
            Some(Version(9)),
            "read half observes the old value"
        );
        assert_eq!(at_done.ts, Some(Timestamp(12)));
        let ld = done.iter().find(|d| d.kind == AccessKind::Load).unwrap();
        assert_eq!(ld.version, w.version, "parked reader sees the RMW result");
        assert!(c.is_idle());
    }

    #[test]
    fn retry_resends_overdue_reads_and_stores_only_when_enabled() {
        // Disabled (the default): a lost request stays lost.
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        assert!(c.take_request().is_some());
        assert!(c.tick(Cycle(100_000)).is_empty());
        assert!(c.take_request().is_none(), "no retry unless enabled");
        assert_eq!(c.stats().retries, 0);

        // Enabled: both reads and stores are re-sent after the timeout.
        let mut c = l1();
        c.enable_retry(100);
        c.access(load(1, 0, 5), Cycle(0));
        c.access(store(2, 1, 9), Cycle(0));
        let first_read = c.take_request().unwrap();
        let L1ToL2::Write(first_store) = c.take_request().unwrap() else {
            panic!("expected store");
        };
        c.tick(Cycle(50));
        assert!(c.take_request().is_none(), "not overdue yet");
        c.tick(Cycle(120));
        let mut retried = Vec::new();
        while let Some(r) = c.take_request() {
            retried.push(r);
        }
        assert_eq!(retried.len(), 2, "one read + one store retried");
        assert_eq!(c.stats().retries, 2);
        let read_retry = retried
            .iter()
            .find_map(|r| {
                if let L1ToL2::Read(rd) = r {
                    Some(*rd)
                } else {
                    None
                }
            })
            .expect("read retried");
        assert_eq!(read_retry.block, first_read.block());
        assert_eq!(read_retry.wts, Timestamp(0), "retried read starts fresh");
        let store_retry = retried
            .iter()
            .find_map(|r| {
                if let L1ToL2::Write(w) = r {
                    Some(*w)
                } else {
                    None
                }
            })
            .expect("store retried");
        assert_eq!(
            store_retry.version, first_store.version,
            "store retry carries the same version for the replay filter"
        );
        // The (possibly duplicate) responses complete the accesses once.
        let done = c.on_response(fill(5, 1, 11, Version(7)), Cycle(130));
        assert_eq!(done.len(), 1);
        let done = c.on_response(
            L2ToL1::WriteAck(WriteAckResp {
                block: BlockAddr(9),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(12),
                    rts: Timestamp(22),
                },
                version: first_store.version,
                epoch: 0,
                span: SpanId::NONE,
            }),
            Cycle(140),
        );
        assert_eq!(done.len(), 1);
        // A duplicate ack (the retried copy) is a no-op.
        let done = c.on_response(
            L2ToL1::WriteAck(WriteAckResp {
                block: BlockAddr(9),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(12),
                    rts: Timestamp(22),
                },
                version: first_store.version,
                epoch: 0,
                span: SpanId::NONE,
            }),
            Cycle(150),
        );
        assert!(done.is_empty(), "duplicate ack completes nothing");
        assert!(c.is_idle());
        // Nothing pending: ticks stay quiet.
        c.tick(Cycle(10_000));
        assert!(c.take_request().is_none());
    }

    #[test]
    fn versions_are_namespaced_by_sm() {
        let mut a = GtscL1::new(L1Params {
            sm_index: 0,
            ..L1Params::default()
        });
        let mut b = GtscL1::new(L1Params {
            sm_index: 1,
            ..L1Params::default()
        });
        a.access(store(1, 0, 5), Cycle(0));
        b.access(store(1, 0, 5), Cycle(0));
        let L1ToL2::Write(wa) = a.take_request().unwrap() else {
            panic!()
        };
        let L1ToL2::Write(wb) = b.take_request().unwrap() else {
            panic!()
        };
        assert_ne!(wa.version, wb.version);
        assert_ne!(wa.version, Version::ZERO);
    }

    #[test]
    fn pre_rollover_store_ack_does_not_unlock_reinstalled_line() {
        let mut c = l1();
        c.access(load(1, 0, 5), Cycle(0));
        c.take_request();
        c.on_response(fill(5, 1, 11, Version(9)), Cycle(10));
        // Warp 0 store locks the line; its request is in flight when the
        // epoch rolls over and the flush destroys the line (and its lock).
        assert!(matches!(
            c.access(store(2, 0, 5), Cycle(20)),
            L1Outcome::Queued
        ));
        let L1ToL2::Write(wa) = c.take_request().unwrap() else {
            panic!("expected Write");
        };
        c.on_response(
            L2ToL1::Fill(FillResp {
                block: BlockAddr(6),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(1),
                    rts: Timestamp(11),
                },
                version: Version(30),
                epoch: 1,
                span: SpanId::NONE,
            }),
            Cycle(30),
        );
        // The block is re-fetched and re-installed in the new epoch, and a
        // warp-1 store locks the *new* line.
        c.access(load(3, 1, 5), Cycle(40));
        c.take_request();
        c.on_response(
            L2ToL1::Fill(FillResp {
                block: BlockAddr(5),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(2),
                    rts: Timestamp(12),
                },
                version: Version(40),
                epoch: 1,
                span: SpanId::NONE,
            }),
            Cycle(50),
        );
        assert!(matches!(
            c.access(store(4, 1, 5), Cycle(60)),
            L1Outcome::Queued
        ));
        let L1ToL2::Write(wb) = c.take_request().unwrap() else {
            panic!("expected Write");
        };
        // A load parks on the locked line.
        assert!(matches!(
            c.access(load(5, 0, 5), Cycle(61)),
            L1Outcome::Queued
        ));
        // The pre-rollover store's ack arrives, degraded into the current
        // epoch by the home. It must not steal the new store's lock: the
        // parked load would otherwise be served wb's uncommitted data.
        let done = c.on_response(
            L2ToL1::WriteAck(WriteAckResp {
                block: BlockAddr(5),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(3),
                    rts: Timestamp(13),
                },
                version: wa.version,
                epoch: 1,
                span: SpanId::NONE,
            }),
            Cycle(70),
        );
        assert!(
            done.iter().all(|d| d.kind != AccessKind::Load),
            "parked load must stay parked while wb is pending"
        );
        assert!(
            matches!(c.access(load(6, 0, 5), Cycle(71)), L1Outcome::Queued),
            "line must still be locked by the pending store"
        );
        // Only wb's own ack unlocks the line and serves the parked loads.
        let done = c.on_response(
            L2ToL1::WriteAck(WriteAckResp {
                block: BlockAddr(5),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(4),
                    rts: Timestamp(14),
                },
                version: wb.version,
                epoch: 1,
                span: SpanId::NONE,
            }),
            Cycle(80),
        );
        let loads: Vec<_> = done.iter().filter(|d| d.kind == AccessKind::Load).collect();
        assert!(!loads.is_empty(), "wb's ack serves the parked loads");
        assert!(loads.iter().all(|l| l.version == wb.version));
    }
    /// One cycle of the engine's L1 housekeeping: the tick, then every
    /// request it or an earlier input queued.
    fn pump(c: &mut GtscL1, now: Cycle) -> (Vec<Completion>, Vec<L1ToL2>) {
        let done = c.tick(now).to_vec();
        (done, std::iter::from_fn(|| c.take_request()).collect())
    }

    proptest::proptest! {
        /// The retry horizon is invisible: an L1 with end-to-end retry
        /// armed, ticked only from `next_event_at()` on, re-sends what one
        /// ticked every cycle does, in the same cycles, and is byte for
        /// byte the same controller whenever it is ticked — while a
        /// scripted L2 answers late, twice or never, through a restore
        /// into a twin that has already idled, and when a caller ticks
        /// ahead of time and then comes back. A third twin drops every
        /// other `on_response` result unread: what it reads is still
        /// exactly that response's completions, so the reused buffer never
        /// replays one.
        #[test]
        fn horizon_ticks_match_a_tick_every_cycle(
            script in proptest::collection::vec((0u64..40, 0u8..12, 0u64..6, 0u16..4), 1..80),
            timeout in 20u64..120,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let build = || {
                let mut c = l1();
                c.enable_retry(timeout);
                c
            };
            let image = |c: &GtscL1| {
                let mut w = SnapWriter::new();
                c.save_state(&mut w).expect("GtscL1 checkpoints");
                w.into_bytes()
            };
            let (mut eager, mut lazy, mut sloppy) = (build(), build(), build());
            // Requests on their way to the scripted L2, oldest first.
            let mut wire: VecDeque<L1ToL2> = VecDeque::new();
            let mut now = 0u64;
            let idle_tail = [(600, u8::MAX, 0, 0)];
            for (i, &(gap, what, block, warp)) in script.iter().chain(&idle_tail).enumerate() {
                for c in now..=now + gap {
                    let at = Cycle(c);
                    let ts = Timestamp(1 + c / 7);
                    let lease = LeaseInfo::Logical { wts: ts, rts: Timestamp(ts.0 + 15) };
                    match what {
                        _ if c < now + gap => {}
                        0 => {
                            // Crash here: a twin that sat idle takes the image over.
                            for twin in [&mut lazy, &mut sloppy] {
                                let bytes = image(twin);
                                *twin = build();
                                twin.tick(Cycle(0));
                                twin.load_state(&mut SnapReader::new(&bytes)).expect("same geometry");
                            }
                        }
                        1 => {
                            let want = pump(&mut eager, Cycle(c + 15));
                            prop_assert_eq!(pump(&mut lazy, Cycle(c + 15)), want.clone());
                            prop_assert_eq!(pump(&mut sloppy, Cycle(c + 15)), want.clone());
                            wire.extend(want.1);
                        }
                        2..=6 => {
                            let acc = if what < 5 { load(i as u64, warp, block) } else { store(i as u64, warp, block) };
                            prop_assert_eq!(lazy.access(acc, at), eager.access(acc, at));
                            sloppy.access(acc, at);
                        }
                        u8::MAX => {}
                        // The scripted L2 answers the oldest request on the wire.
                        _ => if let Some(req) = wire.pop_front() {
                            let resp = match req {
                                L1ToL2::Read(r) if r.wts == ts => L2ToL1::Renew { block: r.block, lease, epoch: 0, span: SpanId::NONE },
                                L1ToL2::Read(r) => fill(r.block.0, ts.0, ts.0 + 15, Version(c)),
                                L1ToL2::Write(w) | L1ToL2::Atomic(w) => L2ToL1::WriteAck(WriteAckResp {
                                    block: w.block, lease, version: w.version, epoch: 0, span: SpanId::NONE,
                                }),
                            };
                            prop_assert_eq!(lazy.on_response(resp, at), eager.on_response(resp, at));
                            let got = sloppy.on_response(resp, at);
                            prop_assert!(i.is_multiple_of(2) || got == eager.done, "cycle {}: replayed a completion", c);
                        },
                    }
                    let want = pump(&mut eager, at);
                    if at < lazy.next_event_at() {
                        prop_assert!(want.0.is_empty() && want.1.is_empty(), "cycle {}: slept through {:?}", c, want);
                    } else {
                        prop_assert_eq!(pump(&mut lazy, at), want.clone(), "cycle {}", c);
                        prop_assert!(image(&lazy) == image(&eager), "cycle {}", c);
                    }
                    prop_assert_eq!(pump(&mut sloppy, at), want.clone(), "cycle {}", c);
                    prop_assert!(image(&sloppy) == image(&eager), "cycle {}", c);
                    wire.extend(want.1);
                }
                now += gap + 1;
            }
            prop_assert_eq!(lazy.stats(), eager.stats());
        }
    }
}
