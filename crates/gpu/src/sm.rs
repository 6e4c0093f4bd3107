//! The Streaming Multiprocessor model: warp slots, the warp scheduler
//! (round-robin or greedy-then-oldest, fed by an incrementally kept
//! census of what each warp waits on), the LDST path into the private
//! cache, CTA barriers, and the consistency-model issue rules.

use std::collections::VecDeque;

use gtsc_protocol::msg::{L1ToL2, L2ToL1};
use gtsc_protocol::{AccessId, AccessKind, Completion, L1Controller, L1Outcome, MemAccess};
use gtsc_trace::{CloseReason, EventKind, Probe, SpanTracker};
use gtsc_types::{
    Addr, BlockAddr, ConsistencyModel, CtaId, Cycle, CycleReason, FxHashMap, SmId, SmStats, SpanId,
    StallKind, WarpId, WarpScheduler,
};

use crate::kernel::{CodedProgram, Instr, ProgramCursor};

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
    ops: ProgramCursor,
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
            ops: ProgramCursor::default(),
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
    /// A known cycle: the end of a compute burst, or the cycle at which
    /// the protocol opens a fence whose own accesses have drained.
    Until(Cycle),
    /// Something the SM is told about: a completion, a barrier arrival or
    /// retirement (both side effects of a scan), a dispatch into the slot.
    Event,
    /// The L1's verdict on the head of `mem_blocks`.
    L1,
    /// The next scan: the warp has finished and retires there.
    Retire,
}

/// [`Sm::classify`]'s answer for one slot: what it waits on, and the
/// stall kind a cycle spent in that state books against it.
type Verdict = (WaitOn, Option<StallKind>);

/// The kept verdicts of all slots, summed: what a cycle in which no warp
/// changes books, whom the scheduler needs to visit, and until when a
/// scan that issued nothing stays true (DESIGN.md §15.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Census {
    /// Warps whose verdict books a stall, indexed by `StallKind`
    /// (`Memory`, `Fence`, `Barrier`).
    stalled: [u64; 3],
    /// Warps waiting on nothing: one of them issues at the next scan.
    ready: u64,
    /// Warps waiting on the L1. After a scan that issued nothing, each
    /// was just rejected — a structural stall and an access ordinal apiece.
    at_l1: u64,
    /// Finished warps the next scan retires.
    retiring: u64,
    /// No `Until` verdict ends before this cycle (a lower bound: exact
    /// after `refresh`, and it only moves down in between).
    horizon: Cycle,
}

impl Census {
    const EMPTY: Census = Census {
        stalled: [0; 3],
        ready: 0,
        at_l1: 0,
        retiring: 0,
        horizon: Cycle(u64::MAX),
    };

    /// Counts a slot's verdict in (`entering`) or out.
    fn tally(&mut self, (on, stall): Verdict, entering: bool) {
        let step = |n: &mut u64| *n = if entering { *n + 1 } else { *n - 1 };
        if let Some(kind) = stall {
            step(&mut self.stalled[kind as usize]);
        }
        match on {
            WaitOn::Nothing => step(&mut self.ready),
            WaitOn::L1 => step(&mut self.at_l1),
            WaitOn::Retire => step(&mut self.retiring),
            WaitOn::Until(until) if entering => self.horizon = self.horizon.min(until),
            WaitOn::Until(_) | WaitOn::Event => {}
        }
    }
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
/// The three that return completions lend out one buffer the SM keeps:
/// a slice holds what that call completed and is valid until the next.
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
    /// Each slot's kept [`Sm::classify`] verdict as of `clock`, re-derived
    /// only where something that feeds it changes, and `census`, their
    /// sum. Derived state like `by_age`: rebuilt by `load_state`.
    waits: Vec<Verdict>,
    census: Census,
    /// The cycle of the latest scan.
    clock: Cycle,
    /// The L1 heard something since the last scan, so the horizons it
    /// gave drained fences may have moved (see `L1Outcome::Reject`).
    fences_stale: bool,
    /// The warps that issued in the current scan: their verdict's stall
    /// is not booked for this cycle.
    issued_now: Vec<usize>,
    /// The cycle before which no warp can issue unless the SM is told
    /// something first (DESIGN.md §15.2): until then each cycle books the
    /// census and returns. Derived state, never snapshotted: the first
    /// cycle after a restore scans.
    dormant: Option<Cycle>,
    /// Debug builds only: the warps whose access was rejected when the SM
    /// went dormant, kept across a wake-up by the horizon alone to check
    /// the `L1Outcome::Reject` stability contract.
    still_rejected: Vec<usize>,
    next_access: u64,
    /// Issue time of each in-flight access (latency accounting).
    issue_time: FxHashMap<AccessId, Cycle>,
    stats: SmStats,
    /// The pipeline's warp-issue and warp-stall events (the L1 carries
    /// its own probe) and the span tracker sampled accesses open in.
    probe: Probe,
    /// Causal-span sampling: every `1/span_rate`-th minted access (a pure
    /// function of `span_seed` and the snapshotted access ordinal, so the
    /// sampled set is identical across a snapshot/restore boundary) gets a
    /// [`SpanId`] and an open span. Volatile observability state — like
    /// the probe, none of this is snapshotted.
    span_rate: u64,
    span_seed: u64,
    /// Span of each in-flight sampled access (close-on-completion).
    span_of: FxHashMap<AccessId, SpanId>,
    /// The lanes of the gather issuing now, read from its program: kept
    /// so that issuing one allocates nothing. Volatile, never
    /// snapshotted.
    gather: Vec<Addr>,
    /// What the latest `cycle` / `tick_l1` / `on_response` completed:
    /// emptied on entry to each, lent out until the next call
    /// (DESIGN.md §15.4). Volatile, never snapshotted.
    done: Vec<Completion>,
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
            waits: vec![(WaitOn::Event, None); p.n_warp_slots],
            census: Census::EMPTY,
            clock: Cycle(0),
            fences_stale: false,
            issued_now: Vec::new(),
            dormant: None,
            still_rejected: Vec::new(),
            next_access: 0,
            issue_time: FxHashMap::default(),
            stats: SmStats::default(),
            probe: Probe::disabled(),
            span_rate: 0,
            span_seed: 0,
            span_of: FxHashMap::default(),
            gather: Vec::new(),
            done: Vec::new(),
            issued_last_cycle: false,
            p,
        }
    }

    /// Sets the span sampling parameters (`rate` of 0 disables sampling;
    /// otherwise every access whose seeded hash lands on `0 mod rate` is
    /// traced end-to-end, in the probe's span tracker).
    pub fn set_span_sampling(&mut self, rate: u64, seed: u64) {
        self.span_rate = rate;
        self.span_seed = seed;
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

    /// The earliest cycle at which [`Sm::cycle`] or [`Sm::tick_l1`] could
    /// do more than replay the census, provided the SM is told nothing
    /// first: its dormancy horizon, or the L1's own horizon if that comes
    /// sooner. `Cycle(0)` — always due — while the SM is awake.
    #[must_use]
    pub fn next_event_at(&self) -> Cycle {
        match self.dormant {
            Some(until) => until.min(self.l1.next_event_at()),
            None => Cycle(0),
        }
    }

    /// Books `k` cycles the engine does not step, all before
    /// [`Sm::next_event_at`]: what [`Sm::cycle`] books for each while
    /// dormant, and `reason` for each as [`Sm::account_cycle`] would.
    pub fn skip(&mut self, k: u64, reason: CycleReason) {
        debug_assert!(self.dormant.is_some(), "only a dormant SM skips");
        self.book_dormant(k);
        self.stats.cycle_buckets.record_n(reason, k);
    }

    /// Installs the pipeline's probe (warp-issue and warp-stall events,
    /// sampled spans; the L1 carries its own).
    pub fn set_probe(&mut self, probe: Probe) {
        if probe.is_recording() {
            self.dormant = None; // a recording SM scans every cycle
        }
        self.probe = probe;
    }

    /// The SM pipeline's probe (disabled unless the simulator installed
    /// one).
    #[must_use]
    pub fn probe(&self) -> &Probe {
        &self.probe
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
        self.l1_heard();
        self.l1.as_mut()
    }

    /// The L1 was told something that may lapse a rejection or move a
    /// fence horizon: wake, and re-ask about fences at the next scan.
    fn l1_heard(&mut self) {
        self.dormant = None;
        self.fences_stale = true;
    }

    /// The L1's per-cycle housekeeping; anything it completes is applied
    /// to the issuing warps before being returned.
    pub fn tick_l1(&mut self, now: Cycle) -> &[Completion] {
        self.done.clear();
        self.done.extend_from_slice(self.l1.tick(now));
        if !self.done.is_empty() {
            self.l1_heard();
        }
        self.apply_done(now)
    }

    /// Applies the completions gathered in `done` to their warps.
    fn apply_done(&mut self, now: Cycle) -> &[Completion] {
        for k in 0..self.done.len() {
            let c = self.done[k];
            self.on_completion_at(&c, Some(now));
        }
        &self.done
    }

    /// Removes the L1's next request destined for the L2, if any.
    pub fn take_request(&mut self) -> Option<L1ToL2> {
        self.l1.take_request()
    }

    /// Delivers a response from the L2 to the L1 and applies what it
    /// completed. Even a response that completes nothing can free an MSHR
    /// entry or move the epoch, so it always wakes a dormant SM.
    pub fn on_response(&mut self, msg: L2ToL1, now: Cycle) -> &[Completion] {
        self.l1_heard();
        self.done.clear();
        self.done.extend_from_slice(self.l1.on_response(msg, now));
        self.apply_done(now)
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
    pub fn assign_cta<P: Into<CodedProgram>>(&mut self, cta: CtaId, programs: Vec<P>) {
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
                    ops: ProgramCursor::new(prog.into()),
                    // Retired empty: the buffer is reused, not reallocated.
                    mem_blocks: std::mem::take(&mut slot.mem_blocks),
                    age: self.next_age,
                    ..WarpSlot::empty()
                };
                self.by_age.push(i);
            }
        }
        assert!(programs.next().is_none(), "capacity checked");
        self.rederive_cta(cta_slot);
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
                    (self.probe).spans(|s| s.close(span, CloseReason::Completed, at));
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
        self.rederive(c.warp.0 as usize);
    }

    /// Runs one scheduler cycle; returns completions produced by L1 hits.
    ///
    /// While the SM is dormant this books what the scan would have and
    /// returns: every skipped scan would find the same warps in the same
    /// states, which is the census. The rejected accesses' tag probes are
    /// not replayed — they would re-stamp the same resident lines in the
    /// same order every cycle, and nothing else touches the tag array
    /// without waking the SM first, so only the absolute LRU counter
    /// differs, never the relative order that picks victims.
    pub fn cycle(&mut self, now: Cycle) -> &[Completion] {
        self.done.clear();
        match self.dormant {
            Some(until) if now < until => {
                self.book_dormant(1);
                return &self.done;
            }
            // Woken by the horizon alone: the L1 heard nothing since, and
            // the warps still waiting on its verdict are those it rejected.
            Some(_) if cfg!(debug_assertions) => {
                let rejected = |&i: &usize| self.waits[i].0 == WaitOn::L1;
                self.still_rejected = (0..self.warps.len()).filter(rejected).collect();
            }
            _ => {}
        }
        self.scan(now)
    }

    /// The per-cycle pass: bring the kept verdicts up to `now`, retire,
    /// issue, book the census — and decide whether the next cycles can
    /// skip all of it.
    fn scan(&mut self, now: Cycle) -> &[Completion] {
        self.refresh(now);
        if self.census.retiring > 0 {
            self.retire_finished();
        }
        self.issued_now.clear();
        let mut any_issued = false;
        for _ in 0..self.p.issue_width {
            if !self.issue_one(now) {
                break;
            }
            any_issued = true;
        }
        self.account_stalls(now);
        self.still_rejected.clear();
        self.issued_last_cycle = any_issued;
        if any_issued {
            self.stats.active_cycles += 1;
        } else if !self.by_age.is_empty() {
            self.stats.idle_cycles += 1;
        }
        debug_assert!(
            self.census_is_current(now),
            "SM {}: kept verdicts {:?} / {:?} are not what classify says at {now}",
            self.p.id,
            self.waits,
            self.census
        );
        // A scan that issued nothing changed no warp, and each is then
        // waiting on a horizon, an event or an access the L1 just rejected
        // (a ready warp always issues, a finished one was retired above):
        // until the earliest horizon every cycle books exactly what this
        // one did. With the recorder on the per-warp stall events must keep
        // appearing.
        let quiet = !any_issued && !self.probe.is_recording();
        self.dormant = quiet.then_some(self.census.horizon);
        &self.done
    }

    /// Books `k` dormant cycles: each is the scan that found every warp
    /// where the census has it. Every warp at the L1 was rejected by the
    /// last scan and would be again: a structural stall and an ordinal
    /// each, per cycle.
    fn book_dormant(&mut self, k: u64) {
        let stalled = self.census.stalled.map(|warps| warps * k);
        self.book_stalls(stalled, self.census.at_l1 * k);
        self.stats.idle_cycles += k * u64::from(!self.by_age.is_empty());
        self.issued_last_cycle = false;
    }

    /// Adds `[memory, fence, barrier]` warp-cycle stalls and `rejected`
    /// structural ones, each a consumed access ordinal.
    fn book_stalls(&mut self, [memory, fence, barrier]: [u64; 3], rejected: u64) {
        self.stats.memory_stall_cycles += memory;
        self.stats.fence_stall_cycles += fence;
        self.stats.barrier_stall_cycles += barrier;
        self.stats.structural_stall_cycles += rejected;
        self.next_access += rejected;
    }

    /// Replaces slot `i`'s kept verdict with what [`Sm::classify`] says
    /// now. Everything that changes an input of `classify` for a slot
    /// ends here: an issue or an accepted access by that warp, a
    /// completion for it, a barrier release or a retirement in its CTA,
    /// its dispatch, `load_state`, and — through [`Sm::refresh`] — a
    /// horizon that passed or that the L1 may have moved.
    fn rederive(&mut self, i: usize) {
        let verdict = self.classify(i, self.clock);
        self.census.tally(self.waits[i], false);
        self.census.tally(verdict, true);
        self.waits[i] = verdict;
    }

    /// Re-derives every slot holding a warp of the CTA in `cta_slot`:
    /// barrier verdicts depend on how many CTA-mates arrived and retired.
    fn rederive_cta(&mut self, cta_slot: usize) {
        for i in 0..self.warps.len() {
            if self.warps[i].active && self.warps[i].cta_slot == cta_slot {
                self.rederive(i);
            }
        }
    }

    /// Brings the kept verdicts up to `now`: `Until` verdicts whose cycle
    /// has come are re-derived, and fence verdicts too if the L1 heard
    /// something since they were. Both are rare, and the common call
    /// returns on two compares.
    fn refresh(&mut self, now: Cycle) {
        self.clock = now;
        let fence = StallKind::Fence;
        let fences =
            std::mem::take(&mut self.fences_stale) && self.census.stalled[fence as usize] > 0;
        if !fences && now < self.census.horizon {
            return;
        }
        self.census.horizon = Cycle(u64::MAX);
        for i in 0..self.warps.len() {
            let (on, stall) = self.waits[i];
            let expired = matches!(on, WaitOn::Until(until) if until <= now);
            if expired || (fences && stall == Some(fence)) {
                self.rederive(i);
            } else if let WaitOn::Until(until) = on {
                self.census.horizon = self.census.horizon.min(until);
            }
        }
    }

    /// Whether every kept verdict is what `classify` says at `now`, and
    /// the census their sum: the oracle behind the debug assertion in
    /// `scan` and the differential test.
    fn census_is_current(&self, now: Cycle) -> bool {
        let mut recount = Census::EMPTY;
        for i in 0..self.warps.len() {
            if self.waits[i] != self.classify(i, now) {
                return false;
            }
            recount.tally(self.waits[i], true);
        }
        let exact = recount.horizon;
        recount.horizon = self.census.horizon;
        recount == self.census && self.census.horizon <= exact
    }

    fn retire_finished(&mut self) {
        let mut by_age = std::mem::take(&mut self.by_age);
        by_age.retain(|&i| {
            if self.waits[i].0 != WaitOn::Retire {
                return true;
            }
            let w = &mut self.warps[i];
            w.active = false;
            let cta_slot = w.cta_slot;
            let cta = &mut self.ctas[cta_slot];
            cta.warps_done += 1;
            if cta.warps_done == cta.warps_total {
                cta.occupied = false;
            }
            // The barrier its CTA-mates wait at now needs one arrival fewer.
            self.rederive(i);
            self.rederive_cta(cta_slot);
            false
        });
        self.by_age = by_age;
    }

    /// Finds one issuable warp per the scheduling policy and issues a
    /// micro-op. Returns whether anything issued. Only slots whose kept
    /// verdict makes them candidates are tried, in the policy's order.
    fn issue_one(&mut self, now: Cycle) -> bool {
        if self.census.ready + self.census.at_l1 == 0 {
            return false;
        }
        match self.p.scheduler {
            WarpScheduler::RoundRobin => {
                let n = self.warps.len();
                for k in 0..n {
                    let i = (self.rr_cursor + k) % n;
                    if self.try_issue_warp(i, now) {
                        self.rr_cursor = (i + 1) % n;
                        return true;
                    }
                }
                false
            }
            WarpScheduler::Gto => {
                // Greedy: stick with the current warp while it issues.
                if let Some(i) = self.greedy_warp {
                    if self.try_issue_warp(i, now) {
                        return true;
                    }
                }
                // Then-oldest: fall back to the oldest ready warp.
                for k in 0..self.by_age.len() {
                    let i = self.by_age[k];
                    if Some(i) != self.greedy_warp && self.try_issue_warp(i, now) {
                        self.greedy_warp = Some(i);
                        return true;
                    }
                }
                false
            }
        }
    }

    /// What warp slot `i` is waiting on at `now`, and the stall kind a
    /// cycle spent in that state books against it. A pure function of the
    /// slot, its CTA's barrier counts and the L1's fence horizon.
    fn classify(&self, i: usize, now: Cycle) -> Verdict {
        use StallKind::{Barrier, Fence, Memory};
        use WaitOn::{Event, Nothing, Retire, Until, L1};
        let w = &self.warps[i];
        let event_if = |blocked: bool| if blocked { Event } else { Nothing };
        if !w.active {
            return (Event, None);
        }
        if w.ops.is_empty() && w.mem_blocks.is_empty() && w.outstanding == 0 {
            return (Retire, None); // even mid-burst: nothing follows it
        }
        if w.compute_until > now {
            return (Until(w.compute_until), None);
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
        // after them, for the cycle the protocol names (TC-Weak: the GWCT,
        // when every prior write is globally visible).
        let fence = |pending: u32| match pending {
            0 => match self.l1.fence_ready_at(WarpId(i as u16)) {
                at if at > now => Until(at),
                _ => Nothing,
            },
            _ => Event,
        };
        match w.ops.first() {
            None => (Event, Some(Memory)), // its last accesses are in flight
            Some(Instr::Compute(_)) => (event_if(sc_blocked), sc_blocked.then_some(Memory)),
            Some(Instr::Load(_) | Instr::Store(_) | Instr::Atomic(_)) => {
                let closed = sc_blocked || window_full;
                (event_if(closed), closed.then_some(Memory))
            }
            Some(Instr::Fence) => (fence(w.outstanding), Some(Fence)),
            // Only prior stores/atomics must be performed.
            Some(Instr::ReleaseFence) => (fence(w.outstanding_writes), Some(Fence)),
            // Only prior loads/atomics must have returned.
            Some(Instr::AcquireFence) => (event_if(w.outstanding_reads > 0), Some(Fence)),
            // A barrier implies memory visibility.
            Some(Instr::Barrier) => (event_if(w.outstanding > 0), None),
        }
    }

    /// Marks warp slot `i` as having issued at `now`.
    fn mark_issued(&mut self, i: usize, now: Cycle) {
        if self.warps[i].issued_at != now {
            self.warps[i].issued_at = now;
            self.issued_now.push(i);
        }
    }

    /// Counts one issued instruction from warp slot `i` and traces it.
    fn note_issue(&mut self, i: usize, now: Cycle) {
        self.mark_issued(i, now);
        self.stats.issued += 1;
        self.probe
            .emit(now, || EventKind::WarpIssue { warp: i as u16 });
    }

    fn try_issue_warp(&mut self, i: usize, now: Cycle) -> bool {
        match self.waits[i].0 {
            WaitOn::Nothing => {}
            WaitOn::L1 => {
                let accepted = self.issue_mem_access(i, now);
                if accepted {
                    self.rederive(i);
                }
                return accepted;
            }
            _ => return false,
        }
        let cta_slot = self.warps[i].cta_slot;
        if self.warps[i].at_barrier {
            self.release_barrier(cta_slot);
            return true;
        }
        if self.warps[i].ops.first() == Some(&Instr::Barrier) {
            // The op stays at the front until the whole CTA is released.
            self.warps[i].at_barrier = true;
            self.ctas[cta_slot].at_barrier += 1;
            self.note_issue(i, now);
            self.rederive(i);
            if self.waits[i].0 == WaitOn::Nothing {
                self.release_barrier(cta_slot);
            }
            return true;
        }
        self.note_issue(i, now);
        let w = &mut self.warps[i];
        let op = *(w.ops.first()).expect("an issuable warp has a next instruction");
        let mem = match op {
            Instr::Compute(c) => {
                w.compute_until = now + u64::from(c);
                None
            }
            Instr::Load(a) => Some((AccessKind::Load, a)),
            Instr::Store(a) => Some((AccessKind::Store, a)),
            Instr::Atomic(a) => Some((AccessKind::Atomic, a)),
            _ => None, // a fence whose condition held
        };
        if let Some((kind, lanes)) = mem {
            w.atomic_pending |= kind == AccessKind::Atomic;
            w.mem_kind = kind;
            let shift = self.p.block_shift;
            w.ops
                .coalesce_into(lanes, shift, &mut self.gather, &mut w.mem_blocks);
            self.stats.mem_issued += 1;
        }
        w.ops.advance();
        // Empty unless a memory instruction was just coalesced into it.
        if !w.mem_blocks.is_empty() {
            self.issue_mem_access(i, now);
        }
        self.rederive(i);
        true
    }

    /// Releases the CTA barrier every live warp of the CTA has reached.
    fn release_barrier(&mut self, cta_slot: usize) {
        for w in self.warps.iter_mut() {
            if w.active && w.cta_slot == cta_slot && w.at_barrier {
                w.at_barrier = false;
                w.ops.advance(); // consume the Barrier op
            }
        }
        self.ctas[cta_slot].at_barrier = 0;
        self.rederive_cta(cta_slot);
    }

    /// Presents the head of warp `i`'s coalesced blocks to the L1.
    fn issue_mem_access(&mut self, i: usize, now: Cycle) -> bool {
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
        self.mark_issued(i, now);
        if let L1Outcome::Hit(c) = outcome {
            self.stats.mem_latency.record(1); // L1 hit latency
            self.probe.spans(|s| {
                s.open(span, now);
                s.close(span, CloseReason::Completed, now);
            });
            self.done.push(c);
            return true;
        }
        self.issue_time.insert(acc.id, now);
        if !span.is_none() {
            self.probe.spans(|s| s.open(span, now));
            self.span_of.insert(acc.id, span);
        }
        let w = &mut self.warps[i];
        w.outstanding += 1;
        w.outstanding_reads += u32::from(acc.kind != AccessKind::Store);
        w.outstanding_writes += u32::from(acc.kind != AccessKind::Load);
        true
    }

    /// Per-cycle warp-stall accounting (the Figure 13 metric counts
    /// `Memory` warp-cycles): every warp books its verdict's stall, except
    /// those that issued this cycle — the census minus `issued_now`. With
    /// the recorder on, the same verdicts also appear as per-warp events.
    fn account_stalls(&mut self, now: Cycle) {
        let mut stalled = self.census.stalled;
        for &i in &self.issued_now {
            if let Some(kind) = self.waits[i].1 {
                stalled[kind as usize] -= 1;
            }
        }
        self.book_stalls(stalled, 0);
        if self.probe.is_recording() {
            for (i, w) in self.warps.iter().enumerate() {
                if let Some(kind) = self.waits[i].1.filter(|_| w.issued_at != now) {
                    self.probe.emit(now, || EventKind::WarpStall {
                        warp: i as u16,
                        kind,
                    });
                }
            }
        }
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
                let w = &self.warps[i];
                // Not a stall for a warp that issued this very cycle.
                let stall = self.classify(i, now).1.filter(|_| w.issued_at != now)?;
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
    /// hook. `SmParams` and the probe are config-derived and come from
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
        let l1_loaded = self.l1.load_state(r);
        // The verdicts are kept "as of" a cycle no later than the next
        // scan's, which then catches up; the image may predate `clock`.
        self.clock = Cycle(0);
        self.census = Census::EMPTY;
        for i in 0..self.warps.len() {
            self.waits[i] = self.classify(i, self.clock);
            self.census.tally(self.waits[i], true);
        }
        l1_loaded
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
    use crate::kernel::{WarpOp, WarpProgram};
    use gtsc_types::{CacheStats, Version};
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
        fn on_response(&mut self, _msg: L2ToL1, _now: Cycle) -> &[Completion] {
            &[]
        }
        fn take_request(&mut self) -> Option<L1ToL2> {
            None
        }
        fn tick(&mut self, _now: Cycle) -> &[Completion] {
            &[]
        }
        fn fence_ready_at(&self, _warp: WarpId) -> Cycle {
            self.fence_ready_at
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
        let lanes = (0..4).map(|i| Addr(i * 128)).collect();
        sm.assign_cta(CtaId(0), one_warp_kernel(vec![WarpOp::Load(lanes)]));
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
    /// A traced SM reports every stalled warp every cycle, in slot order,
    /// from the verdicts the census sums — and never goes dormant, or the
    /// events would stop.
    #[test]
    fn traced_sm_emits_warp_stalls_every_cycle_in_slot_order() {
        use gtsc_trace::Scope;
        use gtsc_types::TraceConfig;
        let (l1, _q) = TestL1::new();
        let mut sm = Sm::new(SmParams::default(), Box::new(l1));
        sm.set_probe(Probe::recording(Scope::Sm(0), &TraceConfig::full()));
        let cta = vec![
            WarpProgram(vec![
                WarpOp::atomic_coalesced(Addr(0), 32),
                WarpOp::Compute(1),
            ]),
            WarpProgram(vec![WarpOp::Compute(40)]),
            WarpProgram(vec![WarpOp::store_coalesced(Addr(128), 32), WarpOp::Fence]),
        ];
        sm.assign_cta(CtaId(0), cta);
        for c in 0..12 {
            sm.cycle(Cycle(c));
            assert_eq!(sm.dormant, None);
        }
        let stalls_at = |c: u64| -> Vec<(u16, StallKind)> {
            let stall = |e: &gtsc_trace::TraceEvent| match e.kind {
                EventKind::WarpStall { warp, kind } if e.cycle == Cycle(c) => Some((warp, kind)),
                _ => None,
            };
            sm.probe().events().iter().filter_map(stall).collect()
        };
        // Round-robin issues one warp a cycle: 0, 1, 2. Warp 1 computes;
        // warp 2 reaches its fence at cycle 2 but issued there.
        assert_eq!(stalls_at(0), vec![]);
        assert_eq!(stalls_at(1), vec![(0, StallKind::Memory)]);
        assert_eq!(stalls_at(2), vec![(0, StallKind::Memory)]);
        for c in 3..12 {
            let expected = vec![(0, StallKind::Memory), (2, StallKind::Fence)];
            assert_eq!(stalls_at(c), expected, "cycle {c}");
        }
        let stats = sm.stats();
        assert_eq!(
            (stats.memory_stall_cycles, stats.fence_stall_cycles),
            (11, 9)
        );
    }

    /// TC-Weak's fence rule is a horizon, not a poll: a warp whose store
    /// was acknowledged with a GWCT 400 cycles away sleeps through them,
    /// books each as a fence stall, and issues on the first cycle
    /// `now >= GWCT` holds.
    #[test]
    fn tc_weak_fence_sleeps_until_the_gwct() {
        use gtsc_baselines::{TcL1, TcL1Params, TcMode};
        use gtsc_protocol::msg::{LeaseInfo, WriteAckResp};
        let l1 = TcL1::new(TcL1Params {
            mode: TcMode::Weak,
            ..TcL1Params::default()
        });
        let mut sm = Sm::new(SmParams::default(), Box::new(l1));
        sm.assign_cta(
            CtaId(0),
            one_warp_kernel(vec![
                WarpOp::store_coalesced(Addr(0), 32),
                WarpOp::Fence,
                WarpOp::Compute(1),
            ]),
        );
        for c in 0..10 {
            sm.cycle(Cycle(c)); // the store, then the fence behind it
        }
        let Some(L1ToL2::Write(w)) = sm.take_request() else {
            panic!("the store is written through")
        };
        let ack = L2ToL1::WriteAck(WriteAckResp {
            block: w.block,
            lease: LeaseInfo::Physical {
                expires: Cycle(410),
            },
            version: w.version,
            epoch: 0,
            span: SpanId::NONE,
        });
        assert_eq!(sm.on_response(ack, Cycle(9)).len(), 1);
        let parked = sm.stats();
        assert_eq!((parked.issued, parked.fence_stall_cycles), (1, 9));
        for c in 10..410 {
            assert!(c == 10 || sm.dormant == Some(Cycle(410)), "asleep at {c}");
            sm.cycle(Cycle(c));
        }
        let woke = sm.stats().diff(&parked);
        assert_eq!((woke.issued, woke.fence_stall_cycles), (0, 400));
        assert_eq!(woke.idle_cycles, 400);
        sm.cycle(Cycle(410));
        assert_eq!(
            sm.stats().diff(&parked).issued,
            1,
            "the fence issues at its GWCT"
        );
        assert_eq!(sm.stats().fence_stall_cycles, 409);
    }

    /// An L1 model for the dormancy differential below: blocks whose
    /// number is `≡ hit_class (mod 3)` hit, every other access needs one
    /// of `capacity` MSHR entries or is rejected. Entries free only when
    /// the script completes an access (a `Renew` response, or a `tick`
    /// with `tick_due` set), and `hit_class` moves only on an
    /// `Invalidate` response — so a `Reject` is stable in the sense of
    /// the `L1Outcome::Reject` contract. Fences open at a per-warp cycle
    /// that moves at the same two points only: a completed store or
    /// atomic pushes its warp's out GWCT-style, an `Invalidate` pushes
    /// every warp's without completing anything.
    struct ScriptedL1 {
        capacity: usize,
        hit_class: u64,
        pending: Dq<MemAccess>,
        fence_at: Vec<Cycle>,
        tick_due: Rc<RefCell<u32>>,
        accepted: Rc<RefCell<Vec<(MemAccess, Cycle)>>>,
        done: Vec<Completion>,
    }

    impl ScriptedL1 {
        fn complete_oldest(&mut self, now: Cycle) {
            let oldest = self.pending.pop_front();
            if let Some(acc) = oldest.filter(|acc| acc.kind != AccessKind::Load) {
                let at = &mut self.fence_at[acc.warp.0 as usize];
                *at = (*at).max(now + 5 + 9 * (acc.block.0 % 4));
            }
            self.done.extend(oldest.iter().map(completion_for));
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
        fn on_response(&mut self, msg: L2ToL1, now: Cycle) -> &[Completion] {
            self.done.clear();
            match msg {
                L2ToL1::Invalidate { .. } => {
                    self.hit_class = (self.hit_class + 1) % 3;
                    for at in &mut self.fence_at {
                        *at = (*at).max(now + 12);
                    }
                }
                _ => self.complete_oldest(now),
            }
            &self.done
        }
        fn take_request(&mut self) -> Option<L1ToL2> {
            None
        }
        fn tick(&mut self, now: Cycle) -> &[Completion] {
            self.done.clear();
            let due = std::mem::take(&mut *self.tick_due.borrow_mut());
            (0..due).for_each(|_| self.complete_oldest(now));
            &self.done
        }
        fn fence_ready_at(&self, warp: WarpId) -> Cycle {
            self.fence_at[warp.0 as usize]
        }
        fn flush(&mut self) {}
        fn is_idle(&self) -> bool {
            self.pending.is_empty()
        }
        fn stats(&self) -> CacheStats {
            CacheStats::default()
        }
        fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
            self.hit_class.save(w);
            self.pending.save(w);
            self.fence_at.save(w);
            Ok(())
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
            self.hit_class = Snap::load(r)?;
            self.pending = Snap::load(r)?;
            self.fence_at = Snap::load(r)?;
            Ok(())
        }
    }

    /// The stall accounting the census replaces, verbatim: walk every
    /// slot, classify it, and skip the warps that issued this cycle.
    fn stalls_by_walk(sm: &Sm, now: Cycle) -> [u64; 3] {
        let mut stalled = [0; 3];
        for (i, w) in sm.warps.iter().enumerate() {
            if let Some(kind) = sm.classify(i, now).1.filter(|_| w.issued_at != now) {
                stalled[kind as usize] += 1;
            }
        }
        stalled
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
            fn on_response(&mut self, msg: L2ToL1, now: Cycle) -> &[Completion] {
                self.0.on_response(msg, now)
            }
            fn take_request(&mut self) -> Option<L1ToL2> {
                None
            }
            fn tick(&mut self, now: Cycle) -> &[Completion] {
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
        /// that runs the scan every cycle book the same stats, consume the
        /// same access ordinals and present the same accesses to the L1 in
        /// the same cycles, whatever the program and whenever responses
        /// arrive. So is the census: after every cycle each kept verdict
        /// is what a fresh `classify` says and the counters are their sum,
        /// the stalls a scan books are what a walk over all slots would,
        /// and an SM rebuilt from a mid-run snapshot carries on
        /// indistinguishably. In this (debug) build the first SM also
        /// checks the `Reject` stability contract on every horizon wake.
        /// A third SM drops every other result unread: what it reads is
        /// still exactly that call's completions, so the reused buffer
        /// never replays one.
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
                    fence_at: vec![Cycle(0); p.n_warp_slots],
                    tick_due: tick_due.clone(),
                    accepted: accepted.clone(),
                    done: Vec::new(),
                };
                (Sm::new(p, Box::new(l1)), tick_due, accepted)
            };
            let (mut dormant, mut dormant_due, mut dormant_log) = build();
            let (mut scanned, scanned_due, scanned_log) = build();
            let (mut sloppy, mut sloppy_due, _) = build();
            let mut programs = ops.chunks(6).map(|c| WarpProgram(c.iter().copied().map(decode_op).collect()));
            for now in 0..600u64 {
                let now = Cycle(now);
                let step = script[now.0 as usize % script.len()];
                if (step == 0 || now.0 == 0) && dormant.can_accept_cta(2) {
                    let cta: Vec<WarpProgram> = programs.by_ref().take(2).collect();
                    if cta.len() == 2 {
                        dormant.assign_cta(CtaId(0), cta.clone());
                        sloppy.assign_cta(CtaId(0), cta.clone());
                        scanned.assign_cta(CtaId(0), cta);
                    }
                }
                let before = scanned.stats();
                // Fences the L1 holds closed, by what is left behind them.
                let closed = |&i: &usize| {
                    let held = scanned.l1().fence_ready_at(WarpId(i as u16)) > now;
                    let front = scanned.warps[i].ops.first();
                    held && matches!(front, Some(Instr::Fence | Instr::ReleaseFence))
                };
                let closed: Vec<(usize, usize)> = (0..p.n_warp_slots)
                    .filter(closed)
                    .map(|i| (i, scanned.warps[i].ops.len()))
                    .collect();
                let reads = now.0.is_multiple_of(2);
                scanned.dormant = None; // awake: `cycle` is the scan
                let hits = scanned.cycle(now).to_vec();
                prop_assert_eq!(dormant.cycle(now), &hits[..], "L1 hits at {}", now);
                prop_assert!(sloppy.cycle(now) == hits || !reads, "replayed L1 hits at {}", now);
                for (i, left) in closed {
                    prop_assert_eq!(scanned.warps[i].ops.len(), left, "warp {} passed a closed fence at {}", i, now);
                }
                prop_assert!(dormant.census_is_current(now), "census at {}: {:?}", now, dormant.waits);
                prop_assert!(scanned.census_is_current(now), "census at {}: {:?}", now, scanned.waits);
                let booked = scanned.stats().diff(&before);
                prop_assert_eq!(
                    [booked.memory_stall_cycles, booked.fence_stall_cycles, booked.barrier_stall_cycles],
                    stalls_by_walk(&scanned, now),
                    "stalls booked at {}", now
                );
                if step == 1 {
                    *dormant_due.borrow_mut() = 1;
                    *scanned_due.borrow_mut() = 1;
                    *sloppy_due.borrow_mut() = 1;
                }
                prop_assert_eq!(dormant.tick_l1(now), scanned.tick_l1(now));
                prop_assert!(sloppy.tick_l1(now) == scanned.done || !reads, "replayed at {}", now);
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
                    prop_assert!(sloppy.on_response(msg, now) == scanned.done || !reads, "replayed at {}", now);
                }
                prop_assert_eq!(dormant.stats(), scanned.stats(), "stats at {}", now);
                prop_assert_eq!(sloppy.stats(), scanned.stats(), "stats at {}", now);
                prop_assert_eq!(dormant.next_access, scanned.next_access, "ordinal at {}", now);
                prop_assert_eq!(dormant.issued_last_cycle(), scanned.issued_last_cycle());
                prop_assert_eq!(dormant.resident_warps(), scanned.resident_warps());
                prop_assert_eq!(dormant_log.take(), scanned_log.take(), "accesses at {}", now);
                if step == 5 {
                    // Crash here: a fresh SM restored from the image carries on.
                    let mut image = SnapWriter::new();
                    dormant.save_state(&mut image).expect("the scripted L1 checkpoints");
                    (dormant, dormant_due, dormant_log) = build();
                    (sloppy, sloppy_due, _) = build();
                    let image = image.into_bytes();
                    dormant.load_state(&mut SnapReader::new(&image)).expect("same geometry");
                    sloppy.load_state(&mut SnapReader::new(&image)).expect("same geometry");
                }
            }
            prop_assert!(dormant.stats().issued > 0);
        }
    }
}
