//! The Streaming Multiprocessor model: warp slots, a round-robin warp
//! scheduler, the LDST path into the private cache, CTA barriers, and the
//! consistency-model issue rules.

use std::collections::{HashMap, VecDeque};

use gtsc_protocol::msg::{L1ToL2, L2ToL1};
use gtsc_protocol::{AccessId, AccessKind, Completion, L1Controller, L1Outcome, MemAccess};
use gtsc_trace::{CloseReason, EventKind, SpanTracker, Tracer};
use gtsc_types::{
    BlockAddr, ConsistencyModel, CtaId, Cycle, CycleReason, SmId, SmStats, SpanId, StallKind,
    WarpId, WarpScheduler,
};

use crate::coalesce::coalesce;
use crate::kernel::{WarpOp, WarpProgram};

/// Construction parameters for [`Sm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmParams {
    /// This SM's identifier.
    pub id: SmId,
    /// Warp slots (paper: 48).
    pub n_warp_slots: usize,
    /// `log2(block size)` used by the coalescer.
    pub block_shift: u32,
    /// SC or RC issue rules.
    pub consistency: ConsistencyModel,
    /// Outstanding-access window per warp under RC.
    pub max_outstanding_per_warp: usize,
    /// Maximum resident CTAs.
    pub max_ctas: usize,
    /// Scheduler issue slots per cycle.
    pub issue_width: usize,
    /// Warp scheduling policy.
    pub scheduler: WarpScheduler,
}

impl Default for SmParams {
    fn default() -> Self {
        SmParams {
            id: SmId(0),
            n_warp_slots: 4,
            block_shift: 7,
            consistency: ConsistencyModel::Rc,
            max_outstanding_per_warp: 8,
            max_ctas: 4,
            issue_width: 1,
            scheduler: WarpScheduler::RoundRobin,
        }
    }
}

#[derive(Debug)]
struct WarpSlot {
    active: bool,
    cta_slot: usize,
    ops: VecDeque<WarpOp>,
    /// Remaining coalesced accesses of the in-flight memory instruction.
    mem_blocks: VecDeque<BlockAddr>,
    mem_kind: AccessKind,
    outstanding: u32,
    /// Outstanding stores + atomics (release-fence gate).
    outstanding_writes: u32,
    /// Outstanding loads + atomics (acquire-fence gate).
    outstanding_reads: u32,
    compute_until: Cycle,
    at_barrier: bool,
    /// An atomic instruction is in flight: the warp blocks until its old
    /// value returns (its result feeds dependent instructions).
    atomic_pending: bool,
    issued_at: Cycle,
    /// Dispatch order (lower = older), used by the GTO scheduler.
    age: u64,
}

impl WarpSlot {
    fn empty() -> Self {
        WarpSlot {
            active: false,
            cta_slot: 0,
            ops: VecDeque::new(),
            mem_blocks: VecDeque::new(),
            mem_kind: AccessKind::Load,
            outstanding: 0,
            outstanding_writes: 0,
            outstanding_reads: 0,
            compute_until: Cycle(0),
            at_barrier: false,
            atomic_pending: false,
            issued_at: Cycle(u64::MAX),
            age: u64::MAX,
        }
    }
}

/// What a warp slot is waiting on: the one classification behind the
/// issue guards, the stall accounting and the dormancy decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitOn {
    /// Nothing: it can issue (or release its CTA's barrier) now.
    Nothing,
    /// A compute burst that ends at this cycle.
    Compute(Cycle),
    /// Something the SM is told about: a completion, a barrier arrival or
    /// retirement (both side effects of a scan), a dispatch into the slot.
    Event,
    /// The L1's verdict on the head of `mem_blocks`.
    L1,
    /// Something only a retry observes: the protocol's fence clock
    /// (TC-Weak's GWCT is a function of `now`), or retirement itself.
    Poll,
}

/// What each skipped cycle of a dormant SM books, and when the skipping
/// ends: per-cycle `[memory, fence, barrier, structural]` stall counts —
/// the last is also the number of rejected L1 attempts, each of which
/// consumes an access ordinal.
#[derive(Debug, Clone, Copy)]
struct Dormant {
    until: Cycle,
    stalls: [u64; 4],
}

#[derive(Debug, Clone, Copy)]
struct CtaSlot {
    warps_total: usize,
    warps_done: usize,
    at_barrier: usize,
    occupied: bool,
}

/// One Streaming Multiprocessor driving a pluggable L1 controller.
///
/// Per cycle the owning simulator calls [`Sm::cycle`] (issue), then
/// [`Sm::tick_l1`], drains [`Sm::take_request`] into the request network
/// and delivers arriving responses through [`Sm::on_response`]. CTAs are
/// dispatched with [`Sm::assign_cta`] when [`Sm::can_accept_cta`] allows.
pub struct Sm {
    p: SmParams,
    warps: Vec<WarpSlot>,
    ctas: Vec<CtaSlot>,
    l1: Box<dyn L1Controller>,
    rr_cursor: usize,
    /// Warp the GTO scheduler is currently greedy on.
    greedy_warp: Option<usize>,
    next_age: u64,
    /// The active warp slots, oldest first — GTO's fallback order. Ages
    /// are minted monotonically, so dispatch appends and retirement
    /// removes; its length is the resident-warp census.
    by_age: Vec<usize>,
    /// Set while no warp can issue before `until` unless the SM is told
    /// something first (DESIGN.md §15.2). Derived state, never
    /// snapshotted: the first cycle after a restore scans.
    dormant: Option<Dormant>,
    /// Debug builds only: the warps whose access was rejected when the SM
    /// went dormant, kept across a wake-up by the horizon alone to check
    /// the `L1Outcome::Reject` stability contract.
    still_rejected: Vec<usize>,
    next_access: u64,
    /// Issue time of each in-flight access (latency accounting).
    issue_time: HashMap<AccessId, Cycle>,
    stats: SmStats,
    tracer: Tracer,
    /// Causal-span sampling: every `1/span_rate`-th minted access (a pure
    /// function of `span_seed` and the snapshotted access ordinal, so the
    /// sampled set is identical across a snapshot/restore boundary) gets a
    /// [`SpanId`] and an open span in `spans`. Volatile observability
    /// state — like the tracer, none of this is snapshotted.
    span_rate: u64,
    span_seed: u64,
    spans: SpanTracker,
    /// Span of each in-flight sampled access (close-on-completion).
    span_of: HashMap<AccessId, SpanId>,
    /// Whether the most recent [`Sm::cycle`] call issued anything
    /// (consumed by the simulator's cycle-reason accounting).
    issued_last_cycle: bool,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.p.id)
            .field("resident_warps", &self.resident_warps())
            .finish_non_exhaustive()
    }
}

impl Sm {
    /// Creates an SM with an empty pipeline in front of `l1`.
    #[must_use]
    pub fn new(p: SmParams, l1: Box<dyn L1Controller>) -> Self {
        Sm {
            warps: (0..p.n_warp_slots).map(|_| WarpSlot::empty()).collect(),
            ctas: vec![
                CtaSlot {
                    warps_total: 0,
                    warps_done: 0,
                    at_barrier: 0,
                    occupied: false
                };
                p.max_ctas
            ],
            l1,
            rr_cursor: 0,
            greedy_warp: None,
            next_age: 0,
            by_age: Vec::new(),
            dormant: None,
            still_rejected: Vec::new(),
            next_access: 0,
            issue_time: HashMap::new(),
            stats: SmStats::default(),
            tracer: Tracer::disabled(),
            span_rate: 0,
            span_seed: 0,
            spans: SpanTracker::disabled(),
            span_of: HashMap::new(),
            issued_last_cycle: false,
            p,
        }
    }

    /// Installs the shared span tracker and the sampling parameters
    /// (`rate` of 0 disables sampling; otherwise every access whose
    /// seeded hash lands on `0 mod rate` is traced end-to-end).
    pub fn set_span_sampling(&mut self, rate: u64, seed: u64, spans: SpanTracker) {
        self.span_rate = rate;
        self.span_seed = seed;
        self.spans = spans;
    }

    /// Whether the most recent [`Sm::cycle`] call issued at least one
    /// micro-op (feeds the simulator's per-cycle reason accounting).
    #[must_use]
    pub fn issued_last_cycle(&self) -> bool {
        self.issued_last_cycle
    }

    /// Attributes one elapsed cycle to `reason` in this SM's stats.
    pub fn account_cycle(&mut self, reason: CycleReason) {
        self.stats.cycle_buckets.record(reason);
    }

    /// Installs a configured tracer (the pipeline's warp-issue and
    /// warp-stall events; the L1 carries its own).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.dormant = None; // a traced SM scans every cycle
        self.tracer = tracer;
    }

    /// The SM pipeline's tracer (disabled unless the simulator installed
    /// one).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This SM's identifier.
    #[must_use]
    pub fn id(&self) -> SmId {
        self.p.id
    }

    /// Shared access to the private cache controller.
    #[must_use]
    pub fn l1(&self) -> &dyn L1Controller {
        self.l1.as_ref()
    }

    /// Exclusive access to the private cache controller, for wiring and
    /// kernel-boundary flushes. Whatever the caller does may change what
    /// the L1 accepts, so this wakes a dormant SM; per-cycle traffic goes
    /// through [`Sm::tick_l1`], [`Sm::take_request`] and
    /// [`Sm::on_response`] instead.
    pub fn l1_mut(&mut self) -> &mut dyn L1Controller {
        self.dormant = None;
        self.l1.as_mut()
    }

    /// The L1's per-cycle housekeeping; anything it completes is applied
    /// to the issuing warps before being returned.
    pub fn tick_l1(&mut self, now: Cycle) -> Vec<Completion> {
        let done = self.l1.tick(now);
        for c in &done {
            self.on_completion_at(c, Some(now));
        }
        done
    }

    /// Removes the L1's next request destined for the L2, if any.
    pub fn take_request(&mut self) -> Option<L1ToL2> {
        self.l1.take_request()
    }

    /// Delivers a response from the L2 to the L1 and applies what it
    /// completed. Even a response that completes nothing can free an MSHR
    /// entry or move the epoch, so it always wakes a dormant SM.
    pub fn on_response(&mut self, msg: L2ToL1, now: Cycle) -> Vec<Completion> {
        self.dormant = None;
        let done = self.l1.on_response(msg, now);
        for c in &done {
            self.on_completion_at(c, Some(now));
        }
        done
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Number of currently resident (unretired) warps.
    #[must_use]
    pub fn resident_warps(&self) -> usize {
        self.by_age.len()
    }

    /// Whether any warp is resident.
    #[must_use]
    pub fn has_resident_warps(&self) -> bool {
        !self.by_age.is_empty()
    }

    /// Whether a CTA of `warps` warps can be dispatched here now.
    #[must_use]
    pub fn can_accept_cta(&self, warps: usize) -> bool {
        self.warps.len() - self.by_age.len() >= warps && self.ctas.iter().any(|c| !c.occupied)
    }

    /// Dispatches a CTA onto this SM.
    ///
    /// # Panics
    ///
    /// Panics if capacity is insufficient (check
    /// [`Sm::can_accept_cta`] first).
    pub fn assign_cta(&mut self, cta: CtaId, programs: Vec<WarpProgram>) {
        assert!(
            self.can_accept_cta(programs.len()),
            "SM lacks capacity for CTA {cta}"
        );
        let cta_slot = self
            .ctas
            .iter()
            .position(|c| !c.occupied)
            .expect("capacity checked");
        let _ = cta; // identity is only needed for the capacity panic message
        self.ctas[cta_slot] = CtaSlot {
            warps_total: programs.len(),
            warps_done: 0,
            at_barrier: 0,
            occupied: true,
        };
        self.dormant = None;
        let mut programs = programs.into_iter();
        for (i, slot) in self.warps.iter_mut().enumerate() {
            if !slot.active {
                let Some(prog) = programs.next() else { break };
                self.next_age += 1;
                *slot = WarpSlot {
                    active: true,
                    cta_slot,
                    ops: prog.0.into(),
                    age: self.next_age,
                    ..WarpSlot::empty()
                };
                self.by_age.push(i);
            }
        }
        assert!(programs.next().is_none(), "capacity checked");
    }

    /// Whether every dispatched warp has retired and the L1 is drained.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.by_age.is_empty() && self.l1.is_idle()
    }

    /// Delivers a completed access (decrements the issuing warp's
    /// outstanding count).
    pub fn on_completion(&mut self, c: &Completion) {
        self.on_completion_at(c, None);
    }

    /// Like [`Sm::on_completion`], additionally recording the access's
    /// issue→completion latency in the stats histogram.
    pub fn on_completion_at(&mut self, c: &Completion, now: Option<Cycle>) {
        self.dormant = None;
        let t0 = self.issue_time.remove(&c.id);
        if let (Some(t0), Some(now)) = (t0, now) {
            self.stats.mem_latency.record(now - t0);
        }
        // The emptiness check keeps the spans-off hot path free of a
        // per-completion hash lookup.
        if !self.span_of.is_empty() {
            if let Some(span) = self.span_of.remove(&c.id) {
                // `now` is always present when driven by the simulator;
                // fall back to the issue cycle so the span still closes
                // in direct-drive unit tests.
                if let Some(at) = now.or(t0) {
                    self.spans.close(span, CloseReason::Completed, at);
                }
            }
        }
        let slot = &mut self.warps[c.warp.0 as usize];
        slot.outstanding = slot.outstanding.saturating_sub(1);
        match c.kind {
            AccessKind::Load => slot.outstanding_reads = slot.outstanding_reads.saturating_sub(1),
            AccessKind::Store => {
                slot.outstanding_writes = slot.outstanding_writes.saturating_sub(1);
            }
            AccessKind::Atomic => {
                slot.outstanding_reads = slot.outstanding_reads.saturating_sub(1);
                slot.outstanding_writes = slot.outstanding_writes.saturating_sub(1);
            }
        }
        if slot.outstanding == 0 {
            slot.atomic_pending = false;
        }
    }

    /// Runs one scheduler cycle; returns completions produced by L1 hits.
    ///
    /// While the SM is dormant this replays what the scan would have
    /// booked and returns: every skipped scan would find the same warps in
    /// the same states. The rejected accesses' tag probes are not replayed
    /// — they would re-stamp the same resident lines in the same order
    /// every cycle, and nothing else touches the tag array without waking
    /// the SM first, so only the absolute LRU counter differs, never the
    /// relative order that picks victims.
    pub fn cycle(&mut self, now: Cycle) -> Vec<Completion> {
        match self.dormant {
            Some(d) if now < d.until => {
                let [memory, fence, barrier, structural] = d.stalls;
                self.stats.memory_stall_cycles += memory;
                self.stats.fence_stall_cycles += fence;
                self.stats.barrier_stall_cycles += barrier;
                self.stats.structural_stall_cycles += structural;
                self.next_access += structural;
                self.stats.idle_cycles += u64::from(!self.by_age.is_empty());
                self.issued_last_cycle = false;
                return Vec::new();
            }
            // Woken by the horizon alone: the L1 heard nothing since, and
            // the warps still waiting on its verdict are those it rejected
            // (a warp with blocks left to present is never mid-burst).
            Some(_) if cfg!(debug_assertions) => {
                let rejected = |&i: &usize| self.wait_of(i, now).0 == WaitOn::L1;
                self.still_rejected = (0..self.warps.len()).filter(rejected).collect();
            }
            _ => {}
        }
        self.scan(now)
    }

    /// The full per-cycle pass: retire, issue, classify stalls — and
    /// decide whether the next cycles can skip it.
    fn scan(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        let before = self.stall_counters();
        self.retire_finished();
        let mut any_issued = false;
        for _ in 0..self.p.issue_width {
            if !self.issue_one(now, &mut done) {
                break;
            }
            any_issued = true;
        }
        let horizon = self.account_stalls(now);
        self.still_rejected.clear();
        self.issued_last_cycle = any_issued;
        if any_issued {
            self.stats.active_cycles += 1;
        } else if !self.by_age.is_empty() {
            self.stats.idle_cycles += 1;
        }
        // A scan that issued nothing changed no warp, so until the
        // horizon every cycle books exactly what this one did. With the
        // tracer on the per-warp stall events must keep appearing.
        self.dormant = horizon
            .filter(|_| !any_issued && !self.tracer.is_enabled())
            .map(|until| {
                let after = self.stall_counters();
                Dormant {
                    until,
                    stalls: std::array::from_fn(|k| after[k] - before[k]),
                }
            });
        done
    }

    fn stall_counters(&self) -> [u64; 4] {
        let s = &self.stats;
        [
            s.memory_stall_cycles,
            s.fence_stall_cycles,
            s.barrier_stall_cycles,
            s.structural_stall_cycles,
        ]
    }

    fn retire_finished(&mut self) {
        let (warps, ctas) = (&mut self.warps, &mut self.ctas);
        self.by_age.retain(|&i| {
            let w = &mut warps[i];
            if !(w.ops.is_empty() && w.mem_blocks.is_empty() && w.outstanding == 0) {
                return true;
            }
            w.active = false;
            let cta = &mut ctas[w.cta_slot];
            cta.warps_done += 1;
            if cta.warps_done == cta.warps_total {
                cta.occupied = false;
            }
            false
        });
    }

    /// Finds one issuable warp per the scheduling policy and issues a
    /// micro-op. Returns whether anything issued.
    fn issue_one(&mut self, now: Cycle, done: &mut Vec<Completion>) -> bool {
        match self.p.scheduler {
            WarpScheduler::RoundRobin => {
                let n = self.warps.len();
                for k in 0..n {
                    let i = (self.rr_cursor + k) % n;
                    if self.try_issue_warp(i, now, done) {
                        self.rr_cursor = (i + 1) % n;
                        return true;
                    }
                }
                false
            }
            WarpScheduler::Gto => {
                // Greedy: stick with the current warp while it issues.
                if let Some(i) = self.greedy_warp {
                    if self.try_issue_warp(i, now, done) {
                        return true;
                    }
                }
                // Then-oldest: fall back to the oldest ready warp.
                for k in 0..self.by_age.len() {
                    let i = self.by_age[k];
                    if Some(i) != self.greedy_warp && self.try_issue_warp(i, now, done) {
                        self.greedy_warp = Some(i);
                        return true;
                    }
                }
                false
            }
        }
    }

    /// What warp slot `i` is waiting on at `now`, and the stall kind a
    /// cycle spent in that state books against it.
    fn wait_of(&self, i: usize, now: Cycle) -> (WaitOn, Option<StallKind>) {
        use StallKind::{Barrier, Fence, Memory};
        use WaitOn::{Compute, Event, Nothing, Poll, L1};
        let w = &self.warps[i];
        let event_if = |blocked: bool| if blocked { Event } else { Nothing };
        if !w.active {
            return (Event, None);
        }
        if w.compute_until > now {
            return (Compute(w.compute_until), None);
        }
        if w.at_barrier {
            let cta = &self.ctas[w.cta_slot];
            let live = cta.warps_total - cta.warps_done;
            return (event_if(cta.at_barrier < live), Some(Barrier));
        }
        // SC: memory instructions are blocking. RC: a bounded window.
        let sc = self.p.consistency == ConsistencyModel::Sc;
        let sc_blocked = sc && w.outstanding > 0;
        let window_full = !sc && w.outstanding as usize >= self.p.max_outstanding_per_warp;
        if !w.mem_blocks.is_empty() {
            // Continue a partially issued memory instruction.
            return (if window_full { Event } else { L1 }, Some(Memory));
        }
        if w.atomic_pending {
            // An in-flight atomic blocks the warp: its result is needed.
            return (Event, Some(Memory));
        }
        // Behind the warp's own accesses a fence waits for completions;
        // after them, on the protocol (TC-Weak: globally visible per GWCT).
        let fence = |pending: u32| match pending {
            0 if self.l1.fence_ready(WarpId(i as u16), now) => Nothing,
            0 => Poll,
            _ => Event,
        };
        match w.ops.front() {
            None if w.outstanding > 0 => (Event, Some(Memory)),
            None => (Poll, None), // retires at the next scan
            Some(WarpOp::Compute(_)) => (event_if(sc_blocked), sc_blocked.then_some(Memory)),
            Some(WarpOp::Load(_) | WarpOp::Store(_) | WarpOp::Atomic(_)) => {
                let closed = sc_blocked || window_full;
                (event_if(closed), closed.then_some(Memory))
            }
            Some(WarpOp::Fence) => (fence(w.outstanding), Some(Fence)),
            // Only prior stores/atomics must be performed.
            Some(WarpOp::ReleaseFence) => (fence(w.outstanding_writes), Some(Fence)),
            // Only prior loads/atomics must have returned.
            Some(WarpOp::AcquireFence) => (event_if(w.outstanding_reads > 0), Some(Fence)),
            // A barrier implies memory visibility.
            Some(WarpOp::Barrier) => (event_if(w.outstanding > 0), None),
        }
    }

    /// Counts one issued instruction from warp slot `i` and traces it.
    fn note_issue(&mut self, i: usize, now: Cycle) {
        self.warps[i].issued_at = now;
        self.stats.issued += 1;
        self.tracer
            .record_with(now, || EventKind::WarpIssue { warp: i as u16 });
    }

    fn try_issue_warp(&mut self, i: usize, now: Cycle, done: &mut Vec<Completion>) -> bool {
        match self.wait_of(i, now).0 {
            WaitOn::Nothing => {}
            WaitOn::L1 => return self.issue_mem_access(i, now, done),
            _ => return false,
        }
        let cta_slot = self.warps[i].cta_slot;
        if self.warps[i].at_barrier {
            self.release_barrier(cta_slot);
            return true;
        }
        if self.warps[i].ops.front() == Some(&WarpOp::Barrier) {
            // The op stays at the front until the whole CTA is released.
            self.warps[i].at_barrier = true;
            self.ctas[cta_slot].at_barrier += 1;
            self.note_issue(i, now);
            if self.wait_of(i, now).0 == WaitOn::Nothing {
                self.release_barrier(cta_slot);
            }
            return true;
        }
        let op = self.warps[i].ops.pop_front();
        self.note_issue(i, now);
        let (kind, addrs) = match op.expect("an issuable warp has a next instruction") {
            WarpOp::Compute(c) => {
                self.warps[i].compute_until = now + u64::from(c);
                return true;
            }
            WarpOp::Load(a) => (AccessKind::Load, a),
            WarpOp::Store(a) => (AccessKind::Store, a),
            WarpOp::Atomic(a) => (AccessKind::Atomic, a),
            _ => return true, // a fence whose condition held
        };
        self.warps[i].atomic_pending |= kind == AccessKind::Atomic;
        self.warps[i].mem_kind = kind;
        self.warps[i].mem_blocks = coalesce(&addrs, self.p.block_shift).into();
        self.stats.mem_issued += 1;
        if !self.warps[i].mem_blocks.is_empty() {
            self.issue_mem_access(i, now, done);
        }
        true
    }

    /// Releases the CTA barrier every live warp of the CTA has reached.
    fn release_barrier(&mut self, cta_slot: usize) {
        for w in self.warps.iter_mut() {
            if w.active && w.cta_slot == cta_slot && w.at_barrier {
                w.at_barrier = false;
                w.ops.pop_front(); // consume the Barrier op
            }
        }
        self.ctas[cta_slot].at_barrier = 0;
    }

    /// Presents the head of warp `i`'s coalesced blocks to the L1.
    fn issue_mem_access(&mut self, i: usize, now: Cycle, done: &mut Vec<Completion>) -> bool {
        let block = self.warps[i].mem_blocks[0];
        self.next_access += 1;
        // Sampling decides at mint time from the snapshotted ordinal, so
        // the sampled set is deterministic per seed and restore-safe.
        // `next_access` was pre-incremented: the ordinal is never zero,
        // so a sampled SpanId can never collide with `SpanId::NONE`.
        let span_material = SpanId::new(self.p.id, self.next_access);
        let span = if SpanTracker::sampled(self.span_rate, self.span_seed, span_material.0) {
            span_material
        } else {
            SpanId::NONE
        };
        let acc = MemAccess {
            id: AccessId(self.next_access),
            warp: WarpId(i as u16),
            kind: self.warps[i].mem_kind,
            block,
            span,
        };
        let outcome = self.l1.access(acc, now);
        if outcome == L1Outcome::Reject {
            self.stats.record_stall(StallKind::Structural);
            return false;
        }
        debug_assert!(
            !self.still_rejected.contains(&i),
            "L1 accepted warp {i}'s rejected access although nothing reached it in between: \
             L1Outcome::Reject must stay Reject until on_response, flush or a completing tick"
        );
        // An accepted access may legitimately change what the L1 accepts.
        self.still_rejected.clear();
        self.warps[i].mem_blocks.pop_front();
        self.warps[i].issued_at = now;
        if let L1Outcome::Hit(c) = outcome {
            self.stats.mem_latency.record(1); // L1 hit latency
            self.spans.open(span, now);
            self.spans.close(span, CloseReason::Completed, now);
            done.push(c);
            return true;
        }
        self.issue_time.insert(acc.id, now);
        if !span.is_none() {
            self.spans.open(span, now);
            self.span_of.insert(acc.id, span);
        }
        let w = &mut self.warps[i];
        w.outstanding += 1;
        w.outstanding_reads += u32::from(acc.kind != AccessKind::Store);
        w.outstanding_writes += u32::from(acc.kind != AccessKind::Load);
        true
    }

    /// Why warp slot `i` cannot issue at `now`, or `None` if it is idle,
    /// freshly issued, or still computing.
    fn stall_reason(&self, i: usize, now: Cycle) -> Option<StallKind> {
        let stall = self.wait_of(i, now).1;
        stall.filter(|_| self.warps[i].issued_at != now)
    }

    /// Per-cycle warp-stall classification (the Figure 13 metric counts
    /// `Memory` warp-cycles). Returns the earliest end of a compute burst
    /// (`Cycle(u64::MAX)` with none running) when every slot is waiting on
    /// that, on an event, or on the L1 — which in a scan that issued
    /// nothing means it was just rejected — and `None` if any must be
    /// retried next cycle.
    fn account_stalls(&mut self, now: Cycle) -> Option<Cycle> {
        let mut horizon = Some(Cycle(u64::MAX));
        for i in 0..self.warps.len() {
            let (on, stall) = self.wait_of(i, now);
            if let Some(k) = stall.filter(|_| self.warps[i].issued_at != now) {
                self.stats.record_stall(k);
                self.tracer.record_with(now, || EventKind::WarpStall {
                    warp: i as u16,
                    kind: k,
                });
            }
            horizon = match on {
                WaitOn::Compute(until) => horizon.map(|h| h.min(until)),
                WaitOn::Event | WaitOn::L1 => horizon,
                WaitOn::Nothing | WaitOn::Poll => None,
            };
        }
        horizon
    }

    /// Instructions issued so far (the watchdog's cheap progress signal).
    #[must_use]
    pub fn issued_count(&self) -> u64 {
        self.stats.issued
    }

    /// Snapshot of every resident warp that cannot issue at `now`, with
    /// its stall classification and outstanding-access state. Used by the
    /// simulator's forward-progress watchdog to explain a hang.
    #[must_use]
    pub fn stalled_warps(&self, now: Cycle) -> Vec<WarpStallInfo> {
        (0..self.warps.len())
            .filter_map(|i| {
                let stall = self.stall_reason(i, now)?;
                let w = &self.warps[i];
                Some(WarpStallInfo {
                    warp: WarpId(i as u16),
                    stall,
                    outstanding: w.outstanding,
                    mem_blocks_pending: w.mem_blocks.len(),
                    ops_remaining: w.ops.len(),
                })
            })
            .collect()
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

gtsc_types::snap_fields!(WarpSlot {
    active,
    cta_slot,
    ops,
    mem_blocks,
    mem_kind,
    outstanding,
    outstanding_writes,
    outstanding_reads,
    compute_until,
    at_barrier,
    atomic_pending,
    issued_at,
    age,
});

gtsc_types::snap_fields!(CtaSlot {
    warps_total,
    warps_done,
    at_barrier,
    occupied,
});

impl Sm {
    /// Serializes the pipeline's dynamic state — warp and CTA slots,
    /// scheduler cursors, access-id counter, latency bookkeeping, and
    /// counters — followed by the L1 controller's state via its trait
    /// hook. `SmParams` and the tracer are config-derived and come from
    /// the SM being restored into.
    ///
    /// # Errors
    ///
    /// [`gtsc_types::SnapshotError::Unsupported`] if the installed L1
    /// controller does not implement checkpointing.
    pub fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        self.warps.save(w);
        self.ctas.save(w);
        self.rr_cursor.save(w);
        self.greedy_warp.save(w);
        self.next_age.save(w);
        self.next_access.save(w);
        self.issue_time.save(w);
        self.stats.save(w);
        self.l1.save_state(w)
    }

    /// Restores state saved by [`Sm::save_state`].
    ///
    /// # Errors
    ///
    /// [`gtsc_types::SnapshotError::Mismatch`] if the slot geometry
    /// differs; `Unsupported` if the L1 cannot checkpoint; any decoding
    /// error on corrupt input.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let warps: Vec<WarpSlot> = Snap::load(r)?;
        let ctas: Vec<CtaSlot> = Snap::load(r)?;
        if warps.len() != self.warps.len() || ctas.len() != self.ctas.len() {
            return Err(SnapshotError::Mismatch {
                what: "SM warp/CTA slot geometry".into(),
            });
        }
        self.warps = warps;
        self.by_age = (0..self.warps.len())
            .filter(|&i| self.warps[i].active)
            .collect();
        self.by_age.sort_by_key(|&i| self.warps[i].age);
        self.dormant = None;
        self.ctas = ctas;
        self.rr_cursor = Snap::load(r)?;
        self.greedy_warp = Snap::load(r)?;
        self.next_age = Snap::load(r)?;
        self.next_access = Snap::load(r)?;
        self.issue_time = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        self.l1.load_state(r)
    }
}

/// One stalled warp in a forward-progress diagnosis (see
/// [`Sm::stalled_warps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpStallInfo {
    /// Warp slot within its SM.
    pub warp: WarpId,
    /// Why the warp cannot issue.
    pub stall: StallKind,
    /// Accesses in flight for this warp.
    pub outstanding: u32,
    /// Coalesced blocks of the current memory instruction not yet issued.
    pub mem_blocks_pending: usize,
    /// Instructions left in the warp's program.
    pub ops_remaining: usize,
}

impl std::fmt::Display for WarpStallInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "warp {} stalled on {:?} (outstanding={}, blocks_pending={}, ops_left={})",
            self.warp.0, self.stall, self.outstanding, self.mem_blocks_pending, self.ops_remaining
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_types::{Addr, CacheStats, Version};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::VecDeque as Dq;
    use std::rc::Rc;

    /// A scripted L1: queues every access; the test completes them by
    /// calling `pump`.
    struct TestL1 {
        queued: Rc<RefCell<Dq<MemAccess>>>,
        fence_ready_at: Cycle,
    }

    impl TestL1 {
        fn new() -> (Self, Rc<RefCell<Dq<MemAccess>>>) {
            let q = Rc::new(RefCell::new(Dq::new()));
            (
                TestL1 {
                    queued: q.clone(),
                    fence_ready_at: Cycle(0),
                },
                q,
            )
        }
    }

    impl L1Controller for TestL1 {
        fn access(&mut self, acc: MemAccess, _now: Cycle) -> L1Outcome {
            self.queued.borrow_mut().push_back(acc);
            L1Outcome::Queued
        }
        fn on_response(&mut self, _msg: L2ToL1, _now: Cycle) -> Vec<Completion> {
            Vec::new()
        }
        fn take_request(&mut self) -> Option<L1ToL2> {
            None
        }
        fn tick(&mut self, _now: Cycle) -> Vec<Completion> {
            Vec::new()
        }
        fn fence_ready(&self, _warp: WarpId, now: Cycle) -> bool {
            now >= self.fence_ready_at
        }
        fn flush(&mut self) {}
        fn is_idle(&self) -> bool {
            true
        }
        fn stats(&self) -> CacheStats {
            CacheStats::default()
        }
    }

    fn completion_for(acc: &MemAccess) -> Completion {
        Completion {
            id: acc.id,
            warp: acc.warp,
            kind: acc.kind,
            block: acc.block,
            version: Version(1),
            ts: None,
            epoch: 0,
            prev: None,
        }
    }

    fn one_warp_kernel(ops: Vec<WarpOp>) -> Vec<WarpProgram> {
        vec![WarpProgram(ops)]
    }

    #[test]
    fn cta_dispatch_and_retirement() {
        let (l1, _q) = TestL1::new();
        let mut sm = Sm::new(SmParams::default(), Box::new(l1));
        assert!(sm.can_accept_cta(2));
        sm.assign_cta(
            CtaId(0),
            vec![
                WarpProgram(vec![WarpOp::Compute(1)]),
                WarpProgram(vec![WarpOp::Compute(1)]),
            ],
        );
        assert_eq!(sm.resident_warps(), 2);
        for c in 0..10 {
            sm.cycle(Cycle(c));
        }
        assert_eq!(sm.resident_warps(), 0);
        assert!(sm.is_idle());
        assert_eq!(sm.stats().issued, 2);
    }

    #[test]
    fn sc_blocks_next_instruction_until_completion() {
        let (l1, q) = TestL1::new();
        let p = SmParams {
            consistency: ConsistencyModel::Sc,
            ..SmParams::default()
        };
        let mut sm = Sm::new(p, Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            one_warp_kernel(vec![
                WarpOp::load_coalesced(Addr(0), 32),
                WarpOp::Compute(1),
            ]),
        );
        sm.cycle(Cycle(0)); // issues the load
        assert_eq!(q.borrow().len(), 1);
        sm.cycle(Cycle(1)); // compute must NOT issue (outstanding load)
        assert_eq!(sm.stats().issued, 1);
        assert!(sm.stats().memory_stall_cycles > 0);
        // Complete the load; compute proceeds.
        let acc = q.borrow_mut().pop_front().unwrap();
        sm.on_completion(&completion_for(&acc));
        sm.cycle(Cycle(2));
        assert_eq!(sm.stats().issued, 2);
    }

    #[test]
    fn rc_overlaps_memory_and_compute() {
        let (l1, q) = TestL1::new();
        let p = SmParams {
            consistency: ConsistencyModel::Rc,
            ..SmParams::default()
        };
        let mut sm = Sm::new(p, Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            one_warp_kernel(vec![
                WarpOp::load_coalesced(Addr(0), 32),
                WarpOp::Compute(1),
            ]),
        );
        sm.cycle(Cycle(0)); // load
        sm.cycle(Cycle(1)); // compute issues despite outstanding load
        assert_eq!(sm.stats().issued, 2);
        assert_eq!(q.borrow().len(), 1);
    }

    #[test]
    fn rc_window_limits_outstanding() {
        let (l1, q) = TestL1::new();
        let p = SmParams {
            consistency: ConsistencyModel::Rc,
            max_outstanding_per_warp: 2,
            ..SmParams::default()
        };
        let mut sm = Sm::new(p, Box::new(l1));
        let loads: Vec<WarpOp> = (0..4)
            .map(|i| WarpOp::load_coalesced(Addr(i * 128), 32))
            .collect();
        sm.assign_cta(CtaId(0), one_warp_kernel(loads));
        for c in 0..10 {
            sm.cycle(Cycle(c));
        }
        assert_eq!(q.borrow().len(), 2, "window of 2 outstanding accesses");
    }

    #[test]
    fn fence_waits_for_outstanding_and_protocol() {
        let (mut l1, q) = TestL1::new();
        l1.fence_ready_at = Cycle(100); // protocol rule (e.g. GWCT)
        let mut sm = Sm::new(SmParams::default(), Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            one_warp_kernel(vec![
                WarpOp::store_coalesced(Addr(0), 32),
                WarpOp::Fence,
                WarpOp::Compute(1),
            ]),
        );
        sm.cycle(Cycle(0)); // store
        sm.cycle(Cycle(1)); // fence blocked: outstanding store
        assert_eq!(sm.stats().issued, 1);
        let acc = q.borrow_mut().pop_front().unwrap();
        sm.on_completion(&completion_for(&acc));
        sm.cycle(Cycle(2)); // fence still blocked: protocol says not ready
        assert_eq!(sm.stats().issued, 1);
        assert!(sm.stats().fence_stall_cycles >= 2);
        sm.cycle(Cycle(100)); // ready now
        assert_eq!(sm.stats().issued, 2);
    }

    #[test]
    fn barrier_synchronizes_cta() {
        let (l1, _q) = TestL1::new();
        let mut sm = Sm::new(SmParams::default(), Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            vec![
                WarpProgram(vec![WarpOp::Barrier, WarpOp::Compute(1)]),
                WarpProgram(vec![
                    WarpOp::Compute(3),
                    WarpOp::Barrier,
                    WarpOp::Compute(1),
                ]),
            ],
        );
        // Warp 0 reaches the barrier immediately; warp 1 is computing.
        sm.cycle(Cycle(0));
        sm.cycle(Cycle(1));
        assert!(sm.stats().barrier_stall_cycles > 0 || sm.resident_warps() == 2);
        // Run forward: both pass the barrier and retire.
        for c in 2..20 {
            sm.cycle(Cycle(c));
        }
        assert_eq!(sm.resident_warps(), 0);
    }

    #[test]
    fn multi_block_instruction_issues_over_cycles() {
        let (l1, q) = TestL1::new();
        let mut sm = Sm::new(SmParams::default(), Box::new(l1));
        // 4 lanes strided by 128B: 4 blocks.
        let addrs: Vec<Addr> = (0..4).map(|i| Addr(i * 128)).collect();
        sm.assign_cta(CtaId(0), one_warp_kernel(vec![WarpOp::Load(addrs)]));
        sm.cycle(Cycle(0));
        assert_eq!(q.borrow().len(), 1, "one access per issue slot");
        sm.cycle(Cycle(1));
        sm.cycle(Cycle(2));
        sm.cycle(Cycle(3));
        assert_eq!(q.borrow().len(), 4);
        assert_eq!(sm.stats().mem_issued, 1, "one instruction");
    }

    #[test]
    fn atomic_blocks_warp_until_completion() {
        let (l1, q) = TestL1::new();
        let p = SmParams {
            consistency: ConsistencyModel::Rc,
            ..SmParams::default()
        };
        let mut sm = Sm::new(p, Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            one_warp_kernel(vec![
                WarpOp::atomic_coalesced(Addr(0), 32),
                WarpOp::Compute(1),
            ]),
        );
        sm.cycle(Cycle(0)); // atomic issues
        assert_eq!(q.borrow().len(), 1);
        assert_eq!(q.borrow()[0].kind, AccessKind::Atomic);
        // Even under RC, the compute may NOT issue: the atomic's result
        // is pending.
        sm.cycle(Cycle(1));
        sm.cycle(Cycle(2));
        assert_eq!(sm.stats().issued, 1);
        assert!(sm.stats().memory_stall_cycles >= 2);
        let acc = q.borrow_mut().pop_front().unwrap();
        sm.on_completion(&completion_for(&acc));
        sm.cycle(Cycle(3));
        assert_eq!(sm.stats().issued, 2);
    }

    #[test]
    fn gto_sticks_with_the_greedy_warp() {
        let (l1, _q) = TestL1::new();
        let p = SmParams {
            scheduler: gtsc_types::WarpScheduler::Gto,
            ..SmParams::default()
        };
        let mut sm = Sm::new(p, Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            vec![
                WarpProgram(vec![
                    WarpOp::Compute(1),
                    WarpOp::Compute(1),
                    WarpOp::Compute(1),
                ]),
                WarpProgram(vec![
                    WarpOp::Compute(1),
                    WarpOp::Compute(1),
                    WarpOp::Compute(1),
                ]),
            ],
        );
        // With compute(1) ops a warp is ready again next cycle, so GTO
        // should retire warp 0 completely before touching warp 1.
        for c in 0..3 {
            sm.cycle(Cycle(c));
        }
        // After 3 cycles, exactly 3 instructions issued — all from the
        // greedy warp, which has now finished its program.
        assert_eq!(sm.stats().issued, 3);
        sm.cycle(Cycle(3));
        assert_eq!(sm.resident_warps(), 1, "warp 0 retired first under GTO");
    }

    #[test]
    fn round_robin_interleaves_warps() {
        let (l1, _q) = TestL1::new();
        let p = SmParams {
            scheduler: gtsc_types::WarpScheduler::RoundRobin,
            ..SmParams::default()
        };
        let mut sm = Sm::new(p, Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            vec![
                WarpProgram(vec![WarpOp::Compute(1), WarpOp::Compute(1)]),
                WarpProgram(vec![WarpOp::Compute(1), WarpOp::Compute(1)]),
            ],
        );
        for c in 0..4 {
            sm.cycle(Cycle(c));
        }
        // Both warps retire at (nearly) the same time under RR.
        sm.cycle(Cycle(4));
        assert_eq!(sm.resident_warps(), 0);
    }

    #[test]
    fn release_fence_waits_only_for_stores() {
        let (l1, q) = TestL1::new();
        let p = SmParams {
            consistency: ConsistencyModel::Rc,
            ..SmParams::default()
        };
        let mut sm = Sm::new(p, Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            one_warp_kernel(vec![
                WarpOp::load_coalesced(Addr(0), 32),
                WarpOp::store_coalesced(Addr(128), 32),
                WarpOp::ReleaseFence,
                WarpOp::Compute(1),
            ]),
        );
        sm.cycle(Cycle(0)); // load
        sm.cycle(Cycle(1)); // store
        sm.cycle(Cycle(2)); // fence blocked: store outstanding
        assert_eq!(sm.stats().issued, 2);
        // Complete only the STORE; the load stays outstanding.
        let store_acc = {
            let mut qq = q.borrow_mut();
            let pos = qq.iter().position(|a| a.kind == AccessKind::Store).unwrap();
            qq.remove(pos).unwrap()
        };
        sm.on_completion(&completion_for(&store_acc));
        sm.cycle(Cycle(3)); // release fence passes despite pending load
        sm.cycle(Cycle(4)); // compute issues
        assert_eq!(sm.stats().issued, 4);
    }

    #[test]
    fn acquire_fence_waits_only_for_loads() {
        let (l1, q) = TestL1::new();
        let p = SmParams {
            consistency: ConsistencyModel::Rc,
            ..SmParams::default()
        };
        let mut sm = Sm::new(p, Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            one_warp_kernel(vec![
                WarpOp::store_coalesced(Addr(0), 32),
                WarpOp::load_coalesced(Addr(128), 32),
                WarpOp::AcquireFence,
                WarpOp::Compute(1),
            ]),
        );
        sm.cycle(Cycle(0));
        sm.cycle(Cycle(1));
        sm.cycle(Cycle(2)); // fence blocked: load outstanding
        assert_eq!(sm.stats().issued, 2);
        let load_acc = {
            let mut qq = q.borrow_mut();
            let pos = qq.iter().position(|a| a.kind == AccessKind::Load).unwrap();
            qq.remove(pos).unwrap()
        };
        sm.on_completion(&completion_for(&load_acc));
        sm.cycle(Cycle(3)); // acquire fence passes despite pending store
        sm.cycle(Cycle(4));
        assert_eq!(sm.stats().issued, 4);
    }

    #[test]
    fn stall_classification_counts_memory_waits() {
        let (l1, _q) = TestL1::new();
        let p = SmParams {
            consistency: ConsistencyModel::Sc,
            ..SmParams::default()
        };
        let mut sm = Sm::new(p, Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            one_warp_kernel(vec![WarpOp::load_coalesced(Addr(0), 32)]),
        );
        sm.cycle(Cycle(0));
        for c in 1..11 {
            sm.cycle(Cycle(c)); // waiting on the never-completing load
        }
        assert_eq!(sm.stats().memory_stall_cycles, 10);
        assert_eq!(sm.stats().idle_cycles, 10);
    }
    /// An L1 model for the dormancy differential below: blocks whose
    /// number is `≡ hit_class (mod 3)` hit, every other access needs one
    /// of `capacity` MSHR entries or is rejected. Entries free only when
    /// the script completes an access (a `Renew` response, or a `tick`
    /// with `tick_due` set), and `hit_class` moves only on an
    /// `Invalidate` response — so a `Reject` is stable in the sense of
    /// the `L1Outcome::Reject` contract. Fences open on a clock.
    struct ScriptedL1 {
        capacity: usize,
        hit_class: u64,
        pending: Dq<MemAccess>,
        tick_due: Rc<RefCell<u32>>,
        accepted: Rc<RefCell<Vec<(MemAccess, Cycle)>>>,
    }

    impl ScriptedL1 {
        fn complete_oldest(&mut self) -> Vec<Completion> {
            self.pending
                .pop_front()
                .iter()
                .map(completion_for)
                .collect()
        }
    }

    impl L1Controller for ScriptedL1 {
        fn access(&mut self, acc: MemAccess, now: Cycle) -> L1Outcome {
            let hit = acc.kind == AccessKind::Load && acc.block.0 % 3 == self.hit_class;
            if !hit && self.pending.len() >= self.capacity {
                return L1Outcome::Reject;
            }
            self.accepted.borrow_mut().push((acc, now));
            if hit {
                return L1Outcome::Hit(completion_for(&acc));
            }
            self.pending.push_back(acc);
            L1Outcome::Queued
        }
        fn on_response(&mut self, msg: L2ToL1, _now: Cycle) -> Vec<Completion> {
            match msg {
                L2ToL1::Invalidate { .. } => {
                    self.hit_class = (self.hit_class + 1) % 3;
                    Vec::new()
                }
                _ => self.complete_oldest(),
            }
        }
        fn take_request(&mut self) -> Option<L1ToL2> {
            None
        }
        fn tick(&mut self, _now: Cycle) -> Vec<Completion> {
            let due = std::mem::take(&mut *self.tick_due.borrow_mut());
            (0..due).flat_map(|_| self.complete_oldest()).collect()
        }
        fn fence_ready(&self, _warp: WarpId, now: Cycle) -> bool {
            now.0 % 16 >= 5
        }
        fn flush(&mut self) {}
        fn is_idle(&self) -> bool {
            self.pending.is_empty()
        }
        fn stats(&self) -> CacheStats {
            CacheStats::default()
        }
    }

    /// The contract guard itself: an L1 whose rejection lapses with time
    /// alone is caught when the SM's horizon wakes it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must stay Reject")]
    fn unstable_reject_trips_the_contract_guard() {
        struct FlakyL1(TestL1);
        impl L1Controller for FlakyL1 {
            fn access(&mut self, acc: MemAccess, now: Cycle) -> L1Outcome {
                if now < Cycle(5) {
                    return L1Outcome::Reject;
                }
                self.0.access(acc, now)
            }
            fn on_response(&mut self, msg: L2ToL1, now: Cycle) -> Vec<Completion> {
                self.0.on_response(msg, now)
            }
            fn take_request(&mut self) -> Option<L1ToL2> {
                None
            }
            fn tick(&mut self, now: Cycle) -> Vec<Completion> {
                self.0.tick(now)
            }
            fn flush(&mut self) {}
            fn is_idle(&self) -> bool {
                true
            }
            fn stats(&self) -> CacheStats {
                CacheStats::default()
            }
        }
        let mut sm = Sm::new(SmParams::default(), Box::new(FlakyL1(TestL1::new().0)));
        sm.assign_cta(
            CtaId(0),
            vec![
                WarpProgram(vec![WarpOp::load_coalesced(Addr(0), 32)]),
                WarpProgram(vec![WarpOp::Compute(5), WarpOp::Compute(1)]),
            ],
        );
        for c in 0..8 {
            sm.cycle(Cycle(c));
        }
    }

    fn decode_op((sel, block, extra): (u8, u64, u8)) -> WarpOp {
        let addr = Addr(block * 128);
        match sel {
            0..=2 => WarpOp::load_coalesced(addr, 32),
            3 => WarpOp::store_coalesced(addr, 32),
            4 => WarpOp::atomic_coalesced(addr, 32),
            5 => WarpOp::Compute(u32::from(extra) + 1),
            6 => WarpOp::Compute(u32::from(extra) * 9 + 1),
            7 => WarpOp::Fence,
            8 => WarpOp::ReleaseFence,
            9 => WarpOp::AcquireFence,
            10 => WarpOp::Barrier,
            _ => WarpOp::Load((0..3).map(|k| Addr((block + k * 5) * 128)).collect()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Dormancy is invisible: an SM stepped through `cycle()` and one
        /// that runs the full scan every cycle book the same stats,
        /// consume the same access ordinals and present the same accesses
        /// to the L1 in the same cycles, whatever the program and whenever
        /// responses arrive. In this (debug) build the first SM also
        /// checks the `Reject` stability contract on every horizon wake.
        #[test]
        fn dormant_cycles_match_a_scan_every_cycle(
            ops in proptest::collection::vec((0u8..12, 0u64..9, 0u8..6), 24..120),
            script in proptest::collection::vec(0u8..10, 32..64),
            sc in proptest::bool::ANY,
            gto in proptest::bool::ANY,
            capacity in 1usize..4,
            issue_width in 1usize..3,
        ) {
            let p = SmParams {
                n_warp_slots: 6,
                max_ctas: 3,
                max_outstanding_per_warp: 2,
                issue_width,
                consistency: if sc { ConsistencyModel::Sc } else { ConsistencyModel::Rc },
                scheduler: if gto { WarpScheduler::Gto } else { WarpScheduler::RoundRobin },
                ..SmParams::default()
            };
            let build = || {
                let tick_due = Rc::new(RefCell::new(0));
                let accepted = Rc::new(RefCell::new(Vec::new()));
                let l1 = ScriptedL1 {
                    capacity,
                    hit_class: 0,
                    pending: Dq::new(),
                    tick_due: tick_due.clone(),
                    accepted: accepted.clone(),
                };
                (Sm::new(p, Box::new(l1)), tick_due, accepted)
            };
            let (mut dormant, dormant_due, dormant_log) = build();
            let (mut scanned, scanned_due, scanned_log) = build();
            let mut programs = ops.chunks(6).map(|c| WarpProgram(c.iter().copied().map(decode_op).collect()));
            for now in 0..600u64 {
                let now = Cycle(now);
                let step = script[now.0 as usize % script.len()];
                if (step == 0 || now.0 == 0) && dormant.can_accept_cta(2) {
                    let cta: Vec<WarpProgram> = programs.by_ref().take(2).collect();
                    if cta.len() == 2 {
                        dormant.assign_cta(CtaId(0), cta.clone());
                        scanned.assign_cta(CtaId(0), cta);
                    }
                }
                prop_assert_eq!(dormant.cycle(now), scanned.scan(now), "L1 hits at {}", now);
                if step == 1 {
                    *dormant_due.borrow_mut() = 1;
                    *scanned_due.borrow_mut() = 1;
                }
                prop_assert_eq!(dormant.tick_l1(now), scanned.tick_l1(now));
                let response = match step {
                    2 | 3 => Some(L2ToL1::Renew {
                        block: BlockAddr(0),
                        lease: gtsc_protocol::msg::LeaseInfo::Physical { expires: now },
                        epoch: 0,
                        span: SpanId::NONE,
                    }),
                    4 => Some(L2ToL1::Invalidate { block: BlockAddr(0), epoch: 0, span: SpanId::NONE }),
                    _ => None,
                };
                if let Some(msg) = response {
                    prop_assert_eq!(dormant.on_response(msg, now), scanned.on_response(msg, now));
                }
                prop_assert_eq!(dormant.stats(), scanned.stats(), "stats at {}", now);
                prop_assert_eq!(dormant.next_access, scanned.next_access, "ordinal at {}", now);
                prop_assert_eq!(dormant.issued_last_cycle(), scanned.issued_last_cycle());
                prop_assert_eq!(dormant.resident_warps(), scanned.resident_warps());
            }
            prop_assert_eq!(&*dormant_log.borrow(), &*scanned_log.borrow());
            prop_assert!(dormant.stats().issued > 0);
        }
    }
}
