//! The cycle engine: one machine, one loop (DESIGN.md §17).
//!
//! The paper's machine is one pipeline — SM → L1 → request crossbar →
//! banked L2 → memory side → response crossbar → L1 — plus the Section
//! V-D global epoch bump. A [`Device`] owns the on-die part of that
//! pipeline; a [`Sim`] steps one or more devices against a
//! [`MemorySide`], the single point where the two topologies differ:
//! local DRAM partitions ([`GpuSim`](crate::GpuSim), the paper's
//! machine) or a fabric to a home directory
//! ([`MultiGpuSim`](crate::MultiGpuSim)). Everything else — dispatch,
//! the watchdog, reports, stall diagnosis, snapshots — exists once.
//!
//! `now` is the machine's only clock: every component call that can
//! emit an event through its probe is handed it, so a component
//! that slept through cycles dates what it does as one that was visited.
//!
//! One cycle, in order (the checker, the shared sanitizer and the fault
//! streams all observe this order, so it is part of the contract). Each
//! phase visits the *due* components of its class, in index order: the
//! active set ([`Wake`], DESIGN.md §15.2) keeps a never-late lower bound
//! of every component's `next_event_at`, and one that is not due is not
//! touched — below its horizon its tick would do nothing.
//!
//! 1. per device, front half: due SMs issue, their L1s — those with
//!    something queued or timed — keep house and feed the request
//!    network, request deliveries → banks, then the memory side's
//!    service of the due banks ([`MemorySide::serve`]);
//! 2. one cross-device exchange ([`MemorySide::exchange`]);
//! 3. scheduled crashes ([`MemorySide::crash`]);
//! 4. the global reset at `now`: memory side first, then every bank (the
//!    one cycle that touches everything: sleeping SMs book a freeze);
//! 5. per device, back half: due banks → response network → L1s (a
//!    response wakes a sleeping SM), then the cycle-reason accounting of
//!    the SMs this cycle touched;
//! 6. fold and jump (between steps, in `advance_kernel`): the minimum
//!    over the wake entries — SMs with their L1s, both crossbars, the
//!    banks, the memory side's own — is the first cycle at which any
//!    component could do anything unprompted; the engine adds its own
//!    timers — the next scheduled crash, the interval sampler, the
//!    checker's compaction poll when it is over its threshold, the
//!    watchdog deadline, `max_cycles`, the end of the slice, and a parked
//!    grid tail an SM can now take — and the cycles before the minimum
//!    are not stepped: only `now` moves. An SM books the cycles it slept
//!    through, stepped or jumped, in O(1) when something next touches it
//!    — at the latest on the way out of `advance_kernel` — so a stepped
//!    empty cycle, a jumped one and a slept-through one leave the same
//!    machine behind, which is why slicing stays invisible.

use std::collections::BTreeMap;
use std::sync::Arc;

use gtsc_faults::{BankFaults, FaultPlan, FaultStats};
use gtsc_gpu::{Kernel, Sm, SmParams, WarpProgram};
use gtsc_noc::ReliableNet;
use gtsc_protocol::msg::{Epoch, L1ToL2, L2ToL1, MsgSizes};
use gtsc_protocol::{L1Controller, L2Controller, WaitHint};
use gtsc_trace::{
    merge_tails, HopKind, IntervalSample, IntervalSampler, Probe, Sanitizer, Scope, SpanRecord,
    SpanTracker, TraceEvent,
};
use gtsc_types::snap::{
    crc32, Snap, SnapReader, SnapWriter, SnapshotBuilder, SnapshotError, SnapshotFile,
};
use gtsc_types::{
    BlockAddr, CtaId, Cycle, CycleReason, FaultConfig, GpuConfig, SimStats, SmId, Version,
};

use crate::check::{Checker, Violation};
use crate::report::{KernelProgress, RunReport, SimError, StallDiagnosis};

/// Retained checker events above which [`Checker::compact`] runs (large
/// enough that short litmus runs — whose tests read exact
/// `load_observations` — are never compacted).
const COMPACT_RETAINED_THRESHOLD: usize = 1 << 20;
/// How often (in cycles) the run loop polls the checker's footprint.
const COMPACT_POLL_CYCLES: u64 = 4096;
/// Per-device stride of the on-die fault seed: decorrelates the devices'
/// streams while keeping the whole system a pure function of the seeds
/// (device 0 draws from the configured seed itself).
const DEVICE_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which view of a component's recorder to gather.
#[derive(Clone, Copy)]
pub enum TraceView {
    /// Every retained event ([`gtsc_types::TraceMode::Full`]).
    Full,
    /// The bounded flight-recorder tail.
    Tail,
}

impl TraceView {
    /// The events `probe` recorded, under this view.
    pub fn of(self, probe: &Probe) -> Vec<TraceEvent> {
        match self {
            TraceView::Full => probe.events().to_vec(),
            TraceView::Tail => probe.flight_tail(),
        }
    }

    /// `net`'s events under this view.
    pub fn of_net<T: Clone>(self, net: &ReliableNet<T>) -> Vec<TraceEvent> {
        match self {
            TraceView::Full => net.events(),
            TraceView::Tail => net.flight_tail(),
        }
    }
}

/// The memory side of the banked L2: where a bank's misses go, and what
/// else lives beyond the response crossbar. Sealed — exactly two
/// implementations exist (`LocalDram` in `gpu.rs`, `FabricToHome` in
/// `multi.rs`), and the trait is unnameable outside this crate.
pub trait MemorySide {
    /// The bank controller a device's L2 slots hold.
    type Bank: L2Controller + ?Sized;

    /// Probe scope of bank `b` on device `d`.
    fn bank_scope(d: usize, b: usize) -> Scope;

    /// Front half, per device, after request delivery: tick device
    /// `d`'s due banks, move their memory-side traffic and refresh their
    /// wake entries. Returns whether a bank it visited wants the Section
    /// V-D reset (`needs_reset` turns true only inside a visit or a crash).
    fn serve(&mut self, d: usize, dev: &mut Device<Self::Bank>, now: Cycle) -> bool;

    /// Once per cycle, after every device's front half: whatever crosses
    /// between devices.
    fn exchange(&mut self, _devices: &mut [Device<Self::Bank>], _now: Cycle) {}

    /// Crashes unit `unit` of this topology's crash domain (a bank, or a
    /// whole device) — its scheduler, kept by the engine, fired at `now`.
    /// Returns whether a recovery started.
    fn crash(&mut self, unit: usize, devices: &mut [Device<Self::Bank>], now: Cycle) -> bool;

    /// Whether the memory side itself wants the Section V-D reset.
    fn needs_reset(&self) -> bool {
        false
    }

    /// Enters `epoch` at `now` (called before the banks').
    fn apply_reset(&mut self, _epoch: Epoch, _now: Cycle) {}

    /// Whether nothing is pending beyond the banks.
    fn is_idle(&self) -> bool;

    /// The memory side's part of the active set: one entry per component
    /// it owns beyond the banks (the engine folds these into the horizon
    /// like the devices' own).
    fn wake(&self) -> &Wake;

    /// Mutable access to [`MemorySide::wake`] (a restore clears it).
    fn wake_mut(&mut self) -> &mut Wake;

    /// Transport progress beyond the on-die networks (watchdog input).
    fn progress_mark(&self) -> u64 {
        0
    }

    /// Adds the memory side's counters to `stats`, after the devices'.
    fn add_stats(&self, stats: &mut SimStats);

    /// Appends the memory side's recorders under `view`.
    fn trace(&self, view: TraceView, out: &mut Vec<Vec<TraceEvent>>);

    /// Fault-injection counters of every armed injector out here.
    fn fault_stats(&self) -> Vec<FaultStats>;

    /// The functional image held beyond the banks (empty when the banks
    /// hold it themselves).
    fn memory_image(&self) -> Vec<(BlockAddr, Version)> {
        Vec::new()
    }

    /// Completes a diagnosis already filled from the devices.
    fn diagnose(&self, devices: &[Device<Self::Bank>], now: Cycle, diag: &mut StallDiagnosis);

    /// Fingerprint of the configuration this topology was built from;
    /// `gpu` is the per-device config.
    fn config_fingerprint(&self, gpu: &GpuConfig) -> u64;

    /// Writes the memory side's snapshot sections, with the cycle the
    /// machine last settled at after each DRAM partition's or the home
    /// node's state (DESIGN.md §14.1).
    fn save(&self, b: &mut SnapshotBuilder, settled: Cycle);

    /// Restores the sections written by [`MemorySide::save`], the settled
    /// cycle into `settled`.
    fn restore(
        &mut self,
        file: &SnapshotFile<'_>,
        settled: &mut Cycle,
    ) -> Result<(), SnapshotError>;
}

/// The fingerprint both topologies store in snapshots: derived `Debug`
/// output is deterministic for identical configs across processes, which
/// is all a mismatch check needs.
pub fn fingerprint_of(cfg: &dyn std::fmt::Debug, label: &str) -> u64 {
    let repr = format!("{cfg:?}");
    (u64::from(crc32(repr.as_bytes())) << 32) | u64::from(crc32(label.as_bytes()))
}

/// Decodes snapshot section `name` through `read`, which must consume
/// the whole payload.
pub fn get<'a, T>(
    file: &SnapshotFile<'a>,
    name: &'static str,
    read: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut r = file.section(name)?;
    let value = read(&mut r)?;
    r.expect_end(name)?;
    Ok(value)
}

/// Rejects a snapshot whose next count differs from the freshly built
/// machine's `built`.
pub fn expect_count(r: &mut SnapReader<'_>, built: usize, what: &str) -> Result<(), SnapshotError> {
    if r.usize()? == built {
        Ok(())
    } else {
        Err(SnapshotError::Mismatch { what: what.into() })
    }
}

/// One class of components' part of the active set (DESIGN.md §15.2):
/// per component a lower bound — early allowed, late never — on its
/// `next_event_at()`, refreshed when the component is visited and zeroed
/// where one of its input methods is called. A stepped cycle scans these
/// few contiguous words and touches only the components that are due.
pub struct Wake {
    at: Vec<Cycle>,
    /// Every entry counts as due whatever it holds: the machine that
    /// visits everything, which the tests hold the active set to
    /// (`Sim::saturate`).
    saturated: bool,
    /// Visits counted so far — host-side, like [`Sim::stepped_cycles`].
    visits: u64,
}

impl Wake {
    /// `n` components, all due.
    pub(crate) fn new(n: usize) -> Self {
        Wake {
            at: vec![Cycle(0); n],
            saturated: false,
            visits: 0,
        }
    }

    /// Whether component `i` has to be visited at `now`.
    #[inline]
    pub(crate) fn due(&self, i: usize, now: Cycle) -> bool {
        self.at[i] <= now || self.saturated
    }

    /// An input of component `i` was called: it is due.
    #[inline]
    pub(crate) fn touch(&mut self, i: usize) {
        self.at[i] = Cycle(0);
    }

    /// The due components at `now`, in index order, into `out` (emptied
    /// first). Counted as their visit: a phase that loops more than once
    /// over its class collects once, so the loops carry no per-entry
    /// compare — or the branch it would take unpredictably.
    pub(crate) fn due_into(&mut self, now: Cycle, out: &mut Vec<usize>) {
        let limit = if self.saturated { Cycle(u64::MAX) } else { now };
        // Branch-free: every index is written, the due ones are kept.
        out.clear();
        out.resize(self.at.len(), 0);
        let mut n = 0;
        for (i, &at) in self.at.iter().enumerate() {
            out[n] = i;
            n += usize::from(at <= limit);
        }
        out.truncate(n);
        self.visits += n as u64;
    }

    /// Component `i` was visited and is next due at `next`.
    #[inline]
    pub(crate) fn visited(&mut self, i: usize, next: Cycle) {
        self.at[i] = next;
        self.visits += 1;
    }

    /// Component `i` is next due at `next` (its visit is counted already).
    #[inline]
    pub(crate) fn refresh(&mut self, i: usize, next: Cycle) {
        self.at[i] = next;
    }

    /// The earliest entry.
    #[inline]
    pub(crate) fn earliest(&self) -> Cycle {
        Cycle(
            self.at
                .iter()
                .fold(u64::MAX, |earliest, at| earliest.min(at.0)),
        )
    }

    /// Everything is due (after a restore: horizons are derived state).
    pub(crate) fn clear(&mut self) {
        self.at.fill(Cycle(0));
    }

    /// `(visits so far, components)`.
    fn tally(&self) -> (u64, usize) {
        (self.visits, self.at.len())
    }
}

/// Indices of a device's two crossbars in [`Device::net_wake`].
const REQ: usize = 0;
const RESP: usize = 1;

/// One GPU die: its SMs (each with a private-cache controller), its
/// request/response crossbars, and its L2 banks.
pub struct Device<B: ?Sized> {
    pub(crate) sms: Vec<Sm>,
    pub(crate) l2: Vec<Box<B>>,
    pub(crate) req_net: ReliableNet<(usize, L1ToL2)>,
    pub(crate) resp_net: ReliableNet<L2ToL1>,
    /// Global index of this device's SM 0 (SM ids — and with them
    /// version minting — are unique across devices).
    sm_base: usize,
    /// The active set: an entry per SM (with its L1), per bank, and for
    /// the two crossbars (`REQ`, `RESP`).
    sm_wake: Wake,
    pub(crate) bank_wake: Wake,
    net_wake: Wake,
    /// How many of the machine's accounted cycles each SM has booked. An
    /// SM that is not due is not touched: it books the stretch through
    /// [`Sm::skip`] when it is next opened ([`Device::book`]).
    booked: Vec<u64>,
    /// The SMs the cycle being stepped touches, in the order it came to
    /// them: the due ones, then those a response or a reset roused. Kept
    /// between cycles for its storage only.
    awake: Vec<usize>,
    /// `issued_count` and `resident_warps` summed over the SMs — the
    /// watchdog fingerprint's two terms, kept where a visit moves them.
    issued: u64,
    resident: usize,
    /// Whether an SM may have room for another CTA: set when a visit
    /// retires warps, cleared when dispatch finds no taker.
    room: bool,
}

impl<B: L2Controller + ?Sized> Device<B> {
    /// Builds device `d`: request network = NoC fault streams 0 (data)
    /// and 2 (transport control), response network = streams 1 and 3,
    /// drawn from the device's decorrelated seed. `l1_retry` arms the
    /// L1s' end-to-end retry (something between L1 and memory can lose
    /// traffic).
    fn build(
        d: usize,
        cfg: &GpuConfig,
        l1_retry: bool,
        l1: &dyn Fn(&GpuConfig, usize) -> Box<dyn L1Controller>,
        bank: &dyn Fn(&GpuConfig) -> Box<B>,
    ) -> Self {
        let faults = FaultConfig {
            seed: cfg
                .faults
                .seed
                .wrapping_add((d as u64).wrapping_mul(DEVICE_SEED_STRIDE)),
            ..cfg.faults
        };
        let plan = FaultPlan::new(faults);
        let sm_base = d * cfg.n_sms;
        let mut sms: Vec<Sm> = (0..cfg.n_sms)
            .map(|i| {
                Sm::new(
                    SmParams {
                        id: SmId((sm_base + i) as u16),
                        n_warp_slots: cfg.warps_per_sm,
                        block_shift: cfg.l1.block_shift(),
                        consistency: cfg.consistency,
                        max_outstanding_per_warp: cfg.max_outstanding_per_warp,
                        max_ctas: cfg.max_ctas_per_sm,
                        issue_width: 1,
                        scheduler: cfg.scheduler,
                    },
                    l1(cfg, sm_base + i),
                )
            })
            .collect();
        let l2 = (0..cfg.l2_banks).map(|_| bank(cfg)).collect();
        let mut req_net = ReliableNet::new(cfg.n_sms, cfg.l2_banks, cfg.noc, cfg.transport);
        let mut resp_net = ReliableNet::new(cfg.l2_banks, cfg.n_sms, cfg.noc, cfg.transport);
        req_net.set_faults(plan.noc(0), plan.noc(2));
        resp_net.set_faults(plan.noc(1), plan.noc(3));
        if faults.lossy_active() {
            // Loss faults make the raw NoC unreliable: arm the transport
            // layer (ack/retransmit/dedup). It stays off otherwise so the
            // lossless hot path — and the watchdog's ability to catch
            // genuine protocol stalls — are untouched.
            req_net.enable(faults.seed ^ 0x5245_515F);
            resp_net.enable(faults.seed ^ 0x5245_5350);
        }
        if l1_retry {
            for sm in &mut sms {
                sm.l1_mut().enable_retry(cfg.transport.retry_timeout);
            }
        }
        Device {
            sm_wake: Wake::new(cfg.n_sms),
            bank_wake: Wake::new(cfg.l2_banks),
            net_wake: Wake::new(2),
            booked: vec![0; cfg.n_sms],
            awake: Vec::with_capacity(cfg.n_sms),
            issued: 0,
            resident: 0,
            room: true,
            sms,
            l2,
            req_net,
            resp_net,
            sm_base,
        }
    }

    /// Hands every component its probe: a recorder per `cfg.trace`, the
    /// shared span tracker, and — for the protocol controllers, whose
    /// events the live rules read — the shared rule machine behind
    /// `sanitizer` (each only when enabled). The pipeline and the
    /// crossbars emit no fact a live rule reads, so a sanitized run leaves
    /// their probes as cheap as a plain one. Device `d`'s crossbars are
    /// `Noc(2d)` / `Noc(2d + 1)`; its banks are scoped by `bank_scope(d, b)`.
    fn instrument(
        &mut self,
        d: usize,
        cfg: &GpuConfig,
        bank_scope: fn(usize, usize) -> Scope,
        sanitizer: &Sanitizer,
        spans: &SpanTracker,
    ) {
        let no_rules = Sanitizer::disabled();
        let probe = |scope, rules| Probe::new(scope, &cfg.trace, rules, spans);
        for (i, sm) in self.sms.iter_mut().enumerate() {
            let scope = Scope::Sm((self.sm_base + i) as u16);
            sm.set_probe(probe(scope, &no_rules));
            sm.set_span_sampling(cfg.trace.span_rate, cfg.trace.span_seed);
            sm.l1_mut().set_probe(probe(scope, sanitizer));
        }
        for (b, bank) in self.l2.iter_mut().enumerate() {
            bank.set_probe(probe(bank_scope(d, b), sanitizer));
        }
        let noc = 2 * d as u16;
        let (req, resp) = (
            probe(Scope::Noc(noc), &no_rules),
            probe(Scope::Noc(noc + 1), &no_rules),
        );
        (self.req_net).set_probe(req, |p: &(usize, L1ToL2)| p.1.span());
        (self.resp_net).set_probe(resp, L2ToL1::span);
    }

    /// Crashes bank `b`; if the controller supports crash/recovery, its
    /// transport flows are reset on both networks in the same cycle
    /// (stale generations are discarded, so pre-crash sequence state can
    /// never collide with the rebuilt bank). The crash forces
    /// `needs_reset`, so the Section V-D broadcast rebuilds coherence
    /// behind a global epoch bump; requests the bank had consumed are
    /// recovered by the L1s' end-to-end retry.
    pub fn crash_bank(&mut self, b: usize, now: Cycle) -> bool {
        let crashed = self.l2[b].crash(now);
        self.bank_wake.touch(b);
        if crashed {
            self.req_net.reset_flows_to_dst(b, now);
            self.resp_net.reset_flows_from_src(b, now);
            self.net_wake.touch(REQ);
            self.net_wake.touch(RESP);
        }
        crashed
    }

    /// Dispatches `cta` onto SM `i` (which [`Device::find_room`] picked).
    fn assign_cta(&mut self, i: usize, cta: CtaId, programs: Vec<Arc<WarpProgram>>, steps: u64) {
        book(&mut self.sms[i], &mut self.booked[i], steps);
        self.resident += programs.len();
        self.sms[i].assign_cta(cta, programs);
        self.sm_wake.touch(i);
    }

    /// The first SM from `cursor` on, round-robin, that can take a CTA
    /// of `warps` warps. Walks the SMs only while one may have room.
    fn find_room(&mut self, cursor: usize, warps: usize) -> Option<usize> {
        if !self.room {
            return None;
        }
        let n_sms = self.sms.len();
        let taker = (0..n_sms)
            .map(|k| (cursor + k) % n_sms)
            .find(|&i| self.sms[i].can_accept_cta(warps));
        self.room = taker.is_some();
        taker
    }

    /// Due SMs issue (L1 hits complete immediately); those of their L1s
    /// that are due themselves keep house (end-to-end retry scans may
    /// re-queue overdue requests and complete long-parked waiters) and
    /// feed the request network; request deliveries → banks.
    fn front_half(
        &mut self,
        now: Cycle,
        steps: u64,
        sizes: &MsgSizes,
        spans: &SpanTracker,
        checker: &mut Checker,
    ) {
        let n_banks = self.l2.len();
        self.sm_wake.due_into(now, &mut self.awake);
        let (mut issued, mut resident) = (0, 0);
        for &i in &self.awake {
            let sm = &mut self.sms[i];
            book(sm, &mut self.booked[i], steps);
            // Only a scan issues or retires: the sums move here.
            let before = (sm.issued_count(), sm.resident_warps());
            for c in sm.cycle(now) {
                checker.on_completion(self.sm_base + i, c, now);
            }
            issued += sm.issued_count() - before.0;
            resident += before.1 - sm.resident_warps();
        }
        self.issued += issued;
        self.resident -= resident;
        self.room |= resident > 0;
        for &i in &self.awake {
            let sm = &mut self.sms[i];
            // The SM's entry covers its L1; an SM that is up for its own
            // sake still leaves an L1 with nothing queued or timed alone.
            if sm.l1().next_event_at() > now && !self.sm_wake.saturated {
                continue;
            }
            for c in sm.tick_l1(now) {
                checker.on_completion(self.sm_base + i, c, now);
            }
            while let Some(req) = sm.take_request() {
                let bank = req.block().bank(n_banks);
                let bytes = sizes.request_bytes(&req);
                spans.hop_enter(req.span(), HopKind::NocReq, now);
                self.req_net.send(i, bank, bytes, (i, req), now);
                self.net_wake.touch(REQ);
            }
        }
        if self.net_wake.due(REQ, now) {
            for (bank, (src, msg)) in self.req_net.tick(now) {
                spans.hop_enter(msg.span(), HopKind::L2Serve, now);
                self.l2[bank].on_request(src, msg, now);
                self.bank_wake.touch(bank);
            }
            self.net_wake.visited(REQ, self.req_net.next_event_at());
        }
    }

    /// Due banks → response network → L1s (completions retire warp
    /// accesses; a response wakes a sleeping SM), then the cycle-reason
    /// accounting: this cycle is attributed, for every SM it touched, to
    /// exactly one bucket — an SM it did not touch books the same bucket
    /// when it is next opened. The buckets therefore tile elapsed time —
    /// `sum(buckets) == steps` per SM, the invariant the report and the
    /// profile both assert. Returns whether any SM issued (such an SM is
    /// awake, so the next cycle is stepped).
    fn back_half(
        &mut self,
        now: Cycle,
        steps: u64,
        rollover: bool,
        sizes: &MsgSizes,
        spans: &SpanTracker,
        checker: &mut Checker,
    ) -> bool {
        for b in 0..self.l2.len() {
            if !self.bank_wake.due(b, now) {
                continue;
            }
            let bank = &mut self.l2[b];
            while let Some((dst, msg)) = bank.take_response() {
                let bytes = sizes.response_bytes(&msg);
                spans.hop_enter(msg.span(), HopKind::NocResp, now);
                self.resp_net.send(b, dst, bytes, msg, now);
                self.net_wake.touch(RESP);
            }
            self.bank_wake.refresh(b, bank.next_event_at());
        }
        if self.net_wake.due(RESP, now) {
            for (dst, msg) in self.resp_net.tick(now) {
                spans.hop_enter(msg.span(), HopKind::L1Fill, now);
                let sm = &mut self.sms[dst];
                if !self.sm_wake.due(dst, now) {
                    rouse(sm, &mut self.booked[dst], now, steps);
                    self.sm_wake.visited(dst, Cycle(0));
                    self.awake.push(dst);
                }
                for c in sm.on_response(msg, now) {
                    checker.on_completion(self.sm_base + dst, c, now);
                }
            }
            self.net_wake.visited(RESP, self.resp_net.next_event_at());
        }
        if rollover {
            // The freeze is every SM's bucket for this cycle.
            for i in 0..self.sms.len() {
                if !self.sm_wake.due(i, now) {
                    rouse(&mut self.sms[i], &mut self.booked[i], now, steps);
                    self.sm_wake.visited(i, Cycle(0));
                    self.awake.push(i);
                }
            }
        }
        let mut issued = false;
        for &i in &self.awake {
            let sm = &mut self.sms[i];
            // An SM that issued is awake: due next cycle, nothing to ask.
            let (reason, next) = if sm.issued_last_cycle() {
                issued = true;
                (CycleReason::Issue, Cycle(0))
            } else if rollover {
                (CycleReason::RolloverFreeze, sm.next_event_at())
            } else {
                (waiting_reason(sm), sm.next_event_at())
            };
            sm.account_cycle(reason);
            self.booked[i] = steps + 1;
            self.sm_wake.refresh(i, next);
        }
        issued
    }

    /// Books every SM up to `steps` accounted cycles: what the report,
    /// the sampler and a snapshot read.
    fn book_all(&mut self, steps: u64) {
        for (sm, booked) in self.sms.iter_mut().zip(&mut self.booked) {
            book(sm, booked, steps);
        }
    }

    /// The earliest wake entry on the die.
    fn next_event_at(&self) -> Cycle {
        (self.sm_wake.earliest())
            .min(self.bank_wake.earliest())
            .min(self.net_wake.earliest())
    }

    fn is_idle(&self) -> bool {
        self.resident == 0
            && self.sms.iter().all(Sm::is_idle)
            && self.l2.iter().all(|b| b.is_idle())
            && self.req_net.is_idle()
            && self.resp_net.is_idle()
    }

    fn trace(&self, view: TraceView, out: &mut Vec<Vec<TraceEvent>>) {
        for sm in &self.sms {
            out.push(view.of(sm.probe()));
            out.extend(sm.l1().probe().map(|p| view.of(p)));
        }
        out.extend(self.l2.iter().filter_map(|b| b.probe()).map(|p| view.of(p)));
        out.push(view.of_net(&self.req_net));
        out.push(view.of_net(&self.resp_net));
    }

    /// Writes the device, with `settled` after each bank's state.
    fn save(&self, w: &mut SnapWriter, settled: Cycle) -> Result<(), SnapshotError> {
        w.usize(self.sms.len());
        for sm in &self.sms {
            sm.save_state(w)?;
        }
        w.usize(self.l2.len());
        for bank in &self.l2 {
            bank.save_state(w)?;
            settled.save(w);
        }
        self.req_net.save_state(w);
        self.resp_net.save_state(w);
        Ok(())
    }

    /// Restores the image of a machine that had accounted `steps` cycles
    /// (and booked them all: every way out of `advance_kernel` settles).
    /// The active set is derived state: everything is due. The settled
    /// cycle after each bank's state goes to `settled`.
    fn restore(
        &mut self,
        r: &mut SnapReader<'_>,
        steps: u64,
        settled: &mut Cycle,
    ) -> Result<(), SnapshotError> {
        expect_count(r, self.sms.len(), "SM count")?;
        for sm in &mut self.sms {
            sm.load_state(r)?;
        }
        expect_count(r, self.l2.len(), "L2 bank count")?;
        for bank in &mut self.l2 {
            bank.load_state(r)?;
            *settled = Snap::load(r)?;
        }
        self.req_net.load_state(r)?;
        self.resp_net.load_state(r)?;
        for wake in [&mut self.sm_wake, &mut self.bank_wake, &mut self.net_wake] {
            wake.clear();
        }
        self.booked.fill(steps);
        self.issued = self.sms.iter().map(Sm::issued_count).sum();
        self.resident = self.sms.iter().map(Sm::resident_warps).sum();
        self.room = true;
        Ok(())
    }
}

/// Books the accounted cycles `sm` slept through: `booked` of the
/// machine's `steps` are on its books already. Nobody touched the SM or
/// its L1 in that stretch, so every cycle of it is the dormant one, in the
/// bucket [`waiting_reason`] names *now* — call this before handing the
/// SM anything.
fn book(sm: &mut Sm, booked: &mut u64, steps: u64) {
    if *booked != steps {
        let reason = waiting_reason(sm);
        sm.skip(steps - *booked, reason);
        *booked = steps;
    }
}

/// Brings a sleeping SM into the cycle being stepped (the `steps`-th
/// accounted) from the back half: the stretch it slept through, then this
/// cycle's front half — the dormant one, it was not due. The caller marks
/// it due, and the back half accounts it with the SMs that were.
fn rouse(sm: &mut Sm, booked: &mut u64, now: Cycle, steps: u64) {
    book(sm, booked, steps);
    let hits = sm.cycle(now);
    debug_assert!(hits.is_empty(), "an SM slept past its horizon");
}

/// The bucket of a cycle in which `sm` issued nothing and no rollover
/// froze it: a function of what the SM holds and what its L1 waits on,
/// so it is the same for every cycle of a stretch nobody touched either.
#[inline]
fn waiting_reason(sm: &Sm) -> CycleReason {
    if !sm.has_resident_warps() {
        return CycleReason::Idle;
    }
    match sm.l1().wait_hint() {
        WaitHint::LeaseExpired => CycleReason::LeaseExpiredWait,
        WaitHint::MshrFull => CycleReason::MshrFull,
        WaitHint::NocBackpressure => CycleReason::NocBackpressure,
        WaitHint::Downstream => CycleReason::DramWait,
        WaitHint::None => CycleReason::Idle,
    }
}

/// The assembled machine: one or more devices (SMs, crossbars, L2
/// banks) stepped by one loop against a memory side `M`. Named through
/// its two instantiations, [`GpuSim`](crate::GpuSim) (local DRAM) and
/// [`MultiGpuSim`](crate::MultiGpuSim) (fabric to a home directory);
/// the memory side is sealed, so there is no third.
pub struct Sim<M: MemorySide> {
    /// Per-device configuration (timestamp width already narrowed by the
    /// rollover-storm knob).
    pub(crate) cfg: GpuConfig,
    pub(crate) devices: Vec<Device<M::Bank>>,
    pub(crate) mem: M,
    /// Crash schedulers (loss-fault injection), one per unit of the
    /// memory side's crash domain — a bank, or a whole device; `None`
    /// where crashes are disabled.
    crash_faults: Vec<Option<BankFaults>>,
    /// Units crash-recovered so far; surfaces as
    /// [`gtsc_types::TransportStats::bank_recoveries`].
    pub(crate) recoveries: u64,
    sizes: MsgSizes,
    now: Cycle,
    /// The last cycle stepped as of the last `settle` — behind `now - 1`
    /// when a slice ended inside a jump. Snapshotted after each bank's,
    /// DRAM partition's and home node's state (DESIGN.md §14.1).
    settled: Cycle,
    epoch: Epoch,
    checker: Checker,
    sampler: IntervalSampler,
    /// Root handle on the shared transition sanitizer (disabled unless
    /// `cfg.sanitize`); the L1s and banks hold scoped clones.
    sanitizer: Sanitizer,
    /// Root handle on the shared causal-span tracker (disabled unless
    /// `cfg.trace.spans_enabled()`); every layer holds a clone. Volatile
    /// observability state — excluded from snapshots like the tracer.
    spans: SpanTracker,
    /// Cycles accounted by this machine, stepped or jumped (the
    /// denominator of the cycle-reason accounting invariant: every per-SM
    /// bucket set sums to exactly this). Snapshotted, unlike the span
    /// state, because the accounting lives in `SmStats` which is
    /// snapshotted too.
    steps: u64,
    /// Cycles this machine ran [`Sim::step`] for, and stretches it jumped
    /// instead. Host-side: they depend on how the run was sliced, so they
    /// are neither statistics nor snapshotted.
    stepped: u64,
    jumps: u64,
}

impl<M: MemorySide> std::fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("config", &self.cfg.label())
            .field("devices", &self.devices.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<M: MemorySide> Sim<M> {
    /// Assembles `n_devices` devices per `cfg` around the memory side
    /// `mem` builds (handed the root sanitizer to scope its own
    /// components) together with its crash schedulers. `cfg.ts_bits` must
    /// already be the effective width.
    pub(crate) fn assemble(
        cfg: GpuConfig,
        n_devices: usize,
        l1_retry: bool,
        l1: &dyn Fn(&GpuConfig, usize) -> Box<dyn L1Controller>,
        bank: &dyn Fn(&GpuConfig) -> Box<M::Bank>,
        mem: impl FnOnce(&Sanitizer) -> (M, Vec<Option<BankFaults>>),
    ) -> Self {
        let sanitizer = if cfg.sanitize {
            Sanitizer::enabled(Scope::Sm(0))
        } else {
            Sanitizer::disabled()
        };
        let spans = if cfg.trace.spans_enabled() {
            SpanTracker::new(cfg.trace.span_cap)
        } else {
            SpanTracker::disabled()
        };
        let devices = (0..n_devices)
            .map(|d| {
                let mut dev = Device::build(d, &cfg, l1_retry, l1, bank);
                dev.instrument(d, &cfg, M::bank_scope, &sanitizer, &spans);
                dev
            })
            .collect();
        let (mem, crash_faults) = mem(&sanitizer);
        let sampler = IntervalSampler::new(if cfg.trace.is_enabled() {
            cfg.trace.sample_interval
        } else {
            0
        });
        let sizes = MsgSizes::new(cfg.noc.control_bytes, cfg.ts_bits, cfg.l1.block_size());
        Sim {
            cfg,
            devices,
            mem,
            crash_faults,
            recoveries: 0,
            sizes,
            now: Cycle(0),
            settled: Cycle(0),
            epoch: 0,
            checker: Checker::new(),
            sampler,
            sanitizer,
            spans,
            steps: 0,
            stepped: 0,
            jumps: 0,
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The current global reset epoch (Section V-D, shared by every bank
    /// and the memory side).
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Cycles this machine object actually stepped; the rest of
    /// [`Sim::now`] it jumped over (DESIGN.md §15.2). A host-side count of
    /// how the run was executed, not a simulated result: it depends on
    /// slicing and restarts from zero after a restore.
    #[must_use]
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped
    }

    /// Stretches of cycles jumped over so far (see
    /// [`Sim::stepped_cycles`]).
    #[must_use]
    pub fn jumps(&self) -> u64 {
        self.jumps
    }

    /// `(visits, component-cycles)`: how many components the stepped
    /// cycles visited, of how many a loop that ticks everything in every
    /// stepped cycle would have — SMs with their L1s, banks, crossbars and
    /// what the memory side owns, each at most once a cycle. Host-side like
    /// [`Sim::stepped_cycles`]: a count of how the run was executed, so an
    /// always-due component on the hot path shows here, not in a result.
    #[must_use]
    pub fn component_visits(&self) -> (u64, u64) {
        let devices = self.devices.iter();
        let sets = devices.flat_map(|d| [&d.sm_wake, &d.bank_wake, &d.net_wake]);
        let (visits, components) = sets
            .chain([self.mem.wake()])
            .map(Wake::tally)
            .fold((0, 0), |(v, n), (visits, len)| (v + visits, n + len as u64));
        (visits, components * self.stepped)
    }

    fn sms(&self) -> impl Iterator<Item = &Sm> {
        self.devices.iter().flat_map(|d| d.sms.iter())
    }

    fn banks(&self) -> impl Iterator<Item = &M::Bank> {
        self.devices.iter().flat_map(|d| d.l2.iter().map(|b| &**b))
    }

    /// Runs `kernel` to completion (dispatching CTAs as SMs free up),
    /// then flushes the private caches (kernel boundary, Section V-D).
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidKernel`] if a CTA is wider than an SM.
    /// * [`SimError::Stalled`] if `cfg.watchdog_cycles` pass without any
    ///   completion, instruction issue, or CTA dispatch — with a
    ///   [`StallDiagnosis`] explaining where work is stuck.
    /// * [`SimError::CycleLimit`] if `cfg.max_cycles` elapses first.
    pub fn run_kernel(&mut self, kernel: &dyn Kernel) -> Result<RunReport, SimError> {
        let mut progress = KernelProgress::new(kernel);
        let report = self.advance_kernel(kernel, &mut progress, 0)?;
        // A zero budget is unbounded: advance_kernel only parks (None) on
        // an exhausted budget, so the report is always present here.
        report.ok_or_else(|| {
            SimError::InvalidConfig("unbounded advance_kernel yielded no report".to_owned())
        })
    }

    /// Advances `kernel` by at most `max_cycles` cycles (`0` =
    /// unbounded), carrying dispatch and watchdog state in `progress` so
    /// a run can be executed in slices — and checkpointed between them
    /// via [`Sim::save_snapshot`]. Slicing is *invisible* to the
    /// simulation: any sequence of budgets produces the machine state,
    /// stats, and report of one uninterrupted run.
    ///
    /// Returns `Ok(Some(report))` when the kernel drained (private caches
    /// flushed, kernel boundary of Section V-D), or `Ok(None)` when the
    /// budget elapsed with work still pending.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidKernel`] if a CTA is wider than an SM, or if
    ///   `progress` belongs to a different kernel.
    /// * [`SimError::Stalled`] / [`SimError::CycleLimit`] as for
    ///   [`Sim::run_kernel`].
    pub fn advance_kernel(
        &mut self,
        kernel: &dyn Kernel,
        progress: &mut KernelProgress,
        max_cycles: u64,
    ) -> Result<Option<RunReport>, SimError> {
        if kernel.warps_per_cta() > self.cfg.warps_per_sm {
            return Err(SimError::InvalidKernel(format!(
                "CTA wider than an SM: kernel '{}' needs {} warps per CTA but SMs have {} slots",
                kernel.name(),
                kernel.warps_per_cta(),
                self.cfg.warps_per_sm
            )));
        }
        if !progress.matches(kernel) {
            return Err(SimError::InvalidKernel(format!(
                "progress for kernel '{}' ({} CTAs × {} warps) cannot resume kernel '{}' \
                 ({} CTAs × {} warps)",
                progress.kernel_name,
                progress.n_ctas,
                progress.warps_per_cta,
                kernel.name(),
                kernel.n_ctas(),
                kernel.warps_per_cta()
            )));
        }
        let n_ctas = kernel.n_ctas();
        let n_devices = self.devices.len();
        let mut budget = max_cycles;
        // This kernel's CTAs may fit where the last one's did not.
        for dev in &mut self.devices {
            dev.room = true;
        }
        loop {
            // CTA dispatch: CTA c is pinned to device c % n_devices (a
            // deterministic spread that puts true sharing on the memory
            // side), round-robin across that device's SMs (as GPGPU-Sim
            // does, so the grid spreads over the whole chip instead of
            // packing the first SMs). One cursor serves every device.
            // Dispatch is in-order: a full device parks the grid tail
            // until it drains.
            'dispatch: while progress.next_cta < n_ctas {
                let cta = CtaId(progress.next_cta as u32);
                let dev = &mut self.devices[progress.next_cta % n_devices];
                let warps = kernel.warps_per_cta();
                let Some(picked) = dev.find_room(progress.sm_cursor, warps) else {
                    break 'dispatch;
                };
                progress.sm_cursor = (picked + 1) % dev.sms.len();
                let programs = (0..warps).map(|w| kernel.shared_program(cta, w));
                dev.assign_cta(picked, cta, programs.collect(), self.steps);
                progress.next_cta += 1;
            }

            let issued = self.step();

            if self.sampler.due(self.now) {
                for dev in &mut self.devices {
                    dev.book_all(self.steps);
                }
                let cumulative = self.cumulative_stats();
                self.sampler.sample(self.now, &cumulative);
            }

            // Bound the checker's memory on soaks: prune globally visible
            // history once the retained set is large (never on the short
            // litmus runs whose tests read exact observations).
            if self.now.0.is_multiple_of(COMPACT_POLL_CYCLES)
                && self.checker.retained_events() >= COMPACT_RETAINED_THRESHOLD
            {
                self.checker.compact();
            }

            if progress.next_cta == n_ctas && self.all_idle() {
                break;
            }
            // Forward-progress watchdog: a fingerprint that moves whenever
            // the machine does useful work. Completions and issues cover
            // draining; dispatch covers the ramp-up; resident covers
            // retirement; the transport mark (deliveries + acks + flow
            // resets — deliberately not retransmits, which can spin
            // forever) keeps lossy runs alive while recovery is genuinely
            // advancing.
            let fingerprint = (
                self.checker.n_events(),
                self.devices.iter().map(|d| d.issued).sum::<u64>(),
                progress.next_cta,
                self.resident_warps(),
                self.devices
                    .iter()
                    .map(|d| d.req_net.progress_mark() + d.resp_net.progress_mark())
                    .sum::<u64>()
                    + self.mem.progress_mark(),
            );
            if fingerprint != progress.last_fingerprint {
                progress.last_fingerprint = fingerprint;
                progress.last_progress = self.now;
            } else if self.cfg.watchdog_cycles > 0
                && self.now - progress.last_progress >= self.cfg.watchdog_cycles
            {
                self.settle(self.now);
                return Err(SimError::Stalled {
                    at: self.now,
                    diagnosis: Box::new(self.diagnose_stall(self.now - progress.last_progress)),
                });
            }
            // Fold and jump: the cycles before anything can happen are
            // booked, not stepped. A slice ends where its budget does. An
            // SM that issued is awake, which the fold would find out only
            // after asking every sleeper in front of it.
            let slice_end = match max_cycles {
                0 => Cycle(u64::MAX),
                _ => Cycle(self.now.0.saturating_add(budget)),
            };
            let stepped_at = self.now;
            let skipped = if issued {
                0
            } else {
                self.jump_to(self.next_step_at(progress, kernel).min(slice_end))
            };
            self.now += 1;
            if self.cfg.max_cycles > 0 && self.now.0 > self.cfg.max_cycles {
                self.settle(stepped_at);
                return Err(SimError::CycleLimit {
                    at: self.now,
                    resident_warps: self.resident_warps(),
                });
            }
            if max_cycles > 0 {
                budget -= 1 + skipped;
                if budget == 0 {
                    self.settle(stepped_at);
                    return Ok(None);
                }
            }
        }
        self.settle(self.now);
        for dev in &mut self.devices {
            for sm in &mut dev.sms {
                sm.l1_mut().flush();
            }
            dev.sm_wake.clear();
        }
        let cumulative = self.cumulative_stats();
        self.sampler.finish(self.now, &cumulative);
        Ok(Some(self.report()))
    }

    /// Runs several kernels back to back (private caches flushed between).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] encountered.
    pub fn run_kernels(&mut self, kernels: &[&dyn Kernel]) -> Result<RunReport, SimError> {
        let mut last = None;
        for k in kernels {
            last = Some(self.run_kernel(*k)?);
        }
        Ok(last.unwrap_or_else(|| self.report()))
    }

    /// The current aggregated statistics and violations. When tracing is
    /// enabled and the checker found violations, the flight-recorder tail
    /// rides along for the post-mortem.
    #[must_use]
    pub fn report(&self) -> RunReport {
        let mut violations = self.checker.finish_capped(self.cfg.max_violations_reported);
        // Sanitizer findings (transition-level invariant breaks) ride in
        // the same report, after the end-to-end checker's.
        violations.extend(self.sanitizer.violations().into_iter().map(Violation));
        let stats = self.cumulative_stats();
        // The cycle-accounting invariant rides in the same report: every
        // SM's reason buckets must tile the stepped cycles exactly — a
        // mismatch means a step classified a cycle twice or not at all.
        for (i, sm) in stats.per_sm.iter().enumerate() {
            let sum = sm.cycle_buckets.sum();
            if sum != stats.accounted_cycles {
                violations.push(Violation(format!(
                    "cycle accounting broken on sm{i}: reason buckets sum to {sum} \
                     but {} cycles were stepped",
                    stats.accounted_cycles
                )));
            }
        }
        let trace_tail = if violations.is_empty() || !self.cfg.trace.is_enabled() {
            Vec::new()
        } else {
            self.flight_tail()
        };
        RunReport {
            stats,
            violations,
            trace_tail,
        }
    }

    /// Cumulative counters at `now`: merged totals plus the per-component
    /// breakdowns ([`SimStats::per_sm`] and friends, indexed by SM / bank
    /// / partition; device banks first, the memory side's last).
    fn cumulative_stats(&self) -> SimStats {
        let mut stats = SimStats {
            cycles: self.now,
            accounted_cycles: self.steps,
            ..SimStats::default()
        };
        for dev in &self.devices {
            for sm in &dev.sms {
                let s = sm.stats();
                let l1 = sm.l1().stats();
                stats.sm.merge(&s);
                stats.l1.merge(&l1);
                stats.per_sm.push(s);
                stats.per_l1.push(l1);
            }
            for bank in &dev.l2 {
                let s = bank.stats();
                stats.l2.merge(&s);
                stats.per_l2.push(s);
            }
            stats.noc.merge(&dev.req_net.stats());
            stats.noc.merge(&dev.resp_net.stats());
            stats.transport.merge(&dev.req_net.transport_stats());
            stats.transport.merge(&dev.resp_net.transport_stats());
        }
        self.mem.add_stats(&mut stats);
        stats.transport.bank_recoveries = self.recoveries;
        stats
    }

    /// Every component's recorder under `view`, devices first.
    fn trace(&self, view: TraceView) -> Vec<Vec<TraceEvent>> {
        let mut out = Vec::new();
        for dev in &self.devices {
            dev.trace(view, &mut out);
        }
        self.mem.trace(view, &mut out);
        out
    }

    /// Every retained trace event across all components, cycle-ordered
    /// (empty unless [`gtsc_types::TraceMode::Full`]).
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut all = self.trace(TraceView::Full).concat();
        all.sort_by_key(|e| e.cycle);
        all
    }

    /// The merged flight-recorder tail across all components, oldest
    /// first — the post-mortem view dumped into [`StallDiagnosis`] and
    /// violation-carrying [`RunReport`]s.
    #[must_use]
    pub fn flight_tail(&self) -> Vec<TraceEvent> {
        merge_tails(&self.trace(TraceView::Tail))
    }

    /// The retained causal-span records (empty unless
    /// [`gtsc_types::TraceConfig::spans_enabled`]). Hits open and close
    /// in the same cycle; in-flight spans are not included.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.spans()
    }

    /// Sampled spans dropped by the retention cap (deterministic
    /// first-N retention keeps the kept set stable across runs).
    #[must_use]
    pub fn spans_suppressed(&self) -> u64 {
        self.spans.suppressed()
    }

    /// The interval sampler's time-series (empty unless
    /// [`gtsc_types::TraceConfig::sample_interval`] is set and tracing is
    /// enabled).
    #[must_use]
    pub fn samples(&self) -> &[IntervalSample] {
        self.sampler.samples()
    }

    /// The full event log and time-series as Chrome `trace_event` JSON
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        gtsc_trace::to_chrome_trace(&self.trace_events(), self.samples())
    }

    fn resident_warps(&self) -> usize {
        self.devices.iter().map(|d| d.resident).sum()
    }

    /// Snapshot of every stalled warp, queue, and MSHR, taken when the
    /// watchdog fires.
    fn diagnose_stall(&self, stalled_for: u64) -> StallDiagnosis {
        let now = self.now;
        let nets = |f: fn(&Device<M::Bank>) -> usize| self.devices.iter().map(f).sum::<usize>();
        let mut diag = StallDiagnosis {
            stalled_for,
            resident_warps: self.resident_warps(),
            warps: self
                .sms()
                .enumerate()
                .flat_map(|(i, sm)| sm.stalled_warps(now).into_iter().map(move |w| (i, w)))
                .collect(),
            l1: self.sms().map(|sm| sm.l1().pressure()).collect(),
            l2: self.banks().map(L2Controller::pressure).collect(),
            req_net_in_flight: nets(|d| d.req_net.in_flight()),
            req_net_queued: nets(|d| d.req_net.queued()),
            resp_net_in_flight: nets(|d| d.resp_net.in_flight()),
            resp_net_queued: nets(|d| d.resp_net.queued()),
            transport_unacked: nets(|d| d.req_net.unacked() + d.resp_net.unacked()),
            req_transport_flows: self
                .devices
                .iter()
                .flat_map(|d| d.req_net.flow_diagnostics(now))
                .collect(),
            resp_transport_flows: self
                .devices
                .iter()
                .flat_map(|d| d.resp_net.flow_diagnostics(now))
                .collect(),
            retransmits: self
                .devices
                .iter()
                .map(|d| {
                    d.req_net.transport_stats().retransmits
                        + d.resp_net.transport_stats().retransmits
                })
                .sum(),
            epoch: self.epoch,
            ts_rollovers: self.banks().map(|b| b.stats().ts_rollovers).sum(),
            recent_events: self.flight_tail(),
            ..StallDiagnosis::default()
        };
        self.mem.diagnose(&self.devices, now, &mut diag);
        diag
    }

    /// Aggregated fault-injection counters across every network and the
    /// memory side's injectors and crash schedulers; `None` when the run
    /// is fault-free.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        let mut any = false;
        let mut total = FaultStats::default();
        for s in self
            .devices
            .iter()
            .flat_map(|d| [d.req_net.fault_stats(), d.resp_net.fault_stats()])
            .flatten()
            .chain(self.mem.fault_stats())
            .chain(self.crash_faults.iter().flatten().map(BankFaults::stats))
        {
            total.merge(&s);
            any = true;
        }
        any.then_some(total)
    }

    /// Read-only access to the coherence checker (litmus assertions in
    /// tests use its load observations).
    #[must_use]
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// The root handle on the transition sanitizer (disabled unless the
    /// config set [`gtsc_types::GpuConfig::sanitize`]).
    #[must_use]
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// The functional memory image (for cross-protocol equivalence tests
    /// on data-race-free workloads): the banks' on a single GPU, the
    /// home node's — always authoritative under write-through — behind a
    /// fabric.
    #[must_use]
    pub fn memory_image(&self) -> BTreeMap<BlockAddr, Version> {
        self.banks()
            .flat_map(L2Controller::memory_image)
            .chain(self.mem.memory_image())
            .collect()
    }

    /// Serializes the complete dynamic state of the machine — SMs and
    /// warp slots, L1/L2 tag arrays and leases, MSHRs, queues, transport
    /// flows, the memory side (DRAM, or fabric and home directory),
    /// fault-injector RNG streams, checker, sampler, and cumulative
    /// counters — into a versioned, per-section-CRC'd snapshot
    /// (DESIGN.md §14). Pass the in-flight [`KernelProgress`] to
    /// checkpoint mid-kernel; `None` snapshots a machine at a kernel
    /// boundary.
    ///
    /// Structure that is derivable from the configuration (geometries,
    /// timing parameters, tracer and sanitizer wiring, fault arming) is
    /// *not* serialized: [`Sim::restore_snapshot`] requires a target
    /// freshly built from the same config. Flight-recorder rings restart
    /// empty after a restore — they only feed post-mortem displays, never
    /// results.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if a cache controller in this build
    /// does not implement checkpointing (the non-G-TSC baselines).
    pub fn save_snapshot(
        &self,
        progress: Option<&KernelProgress>,
    ) -> Result<Vec<u8>, SnapshotError> {
        let mut b = SnapshotBuilder::new();
        b.section("meta", |w| {
            self.mem.config_fingerprint(&self.cfg).save(w);
        });
        b.section("sim", |w| {
            self.now.save(w);
            self.epoch.save(w);
            self.recoveries.save(w);
            self.crash_faults.save(w);
            self.sanitizer.save_state(w);
            self.steps.save(w);
        });
        b.section("devices", |w| {
            w.usize(self.devices.len());
            (self.devices.iter()).try_for_each(|dev| dev.save(w, self.settled))
        })?;
        self.mem.save(&mut b, self.settled);
        b.section("checker", |w| self.checker.save(w));
        b.section("sampler", |w| self.sampler.save(w));
        if let Some(p) = progress {
            b.section("progress", |w| p.save(w));
        }
        Ok(b.finish())
    }

    /// Restores a snapshot produced by [`Sim::save_snapshot`] into this
    /// machine, which must have been freshly built from the same
    /// configuration (checked via a config fingerprint). Returns the
    /// [`KernelProgress`] embedded in mid-kernel checkpoints, to be
    /// passed back to [`Sim::advance_kernel`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on a damaged, truncated, or mismatched
    /// snapshot — always an error, never a panic. On error the target may
    /// be partially overwritten: discard it and rebuild from config
    /// (falling back to an older checkpoint if one exists).
    pub fn restore_snapshot(
        &mut self,
        bytes: &[u8],
    ) -> Result<Option<KernelProgress>, SnapshotError> {
        let file = SnapshotFile::parse(bytes)?;
        let fingerprint: u64 = get(&file, "meta", Snap::load)?;
        if fingerprint != self.mem.config_fingerprint(&self.cfg) {
            return Err(SnapshotError::Mismatch {
                what: "config fingerprint".into(),
            });
        }
        get(&file, "sim", |r| {
            self.now = Snap::load(r)?;
            self.epoch = Snap::load(r)?;
            self.recoveries = Snap::load(r)?;
            let crash_faults: Vec<Option<BankFaults>> = Snap::load(r)?;
            if crash_faults.len() != self.crash_faults.len() {
                return Err(SnapshotError::Mismatch {
                    what: "crash scheduler count".into(),
                });
            }
            self.crash_faults = crash_faults;
            self.sanitizer.load_state(r)?;
            self.steps = Snap::load(r)?;
            Ok(())
        })?;
        get(&file, "devices", |r| {
            expect_count(r, self.devices.len(), "device count")?;
            let (steps, settled) = (self.steps, &mut self.settled);
            (self.devices.iter_mut()).try_for_each(|dev| dev.restore(r, steps, settled))
        })?;
        self.mem.restore(&file, &mut self.settled)?;
        self.mem.wake_mut().clear();
        self.checker = get(&file, "checker", Snap::load)?;
        self.sampler = get(&file, "sampler", Snap::load)?;
        file.section_names()
            .contains(&"progress")
            .then(|| get(&file, "progress", KernelProgress::load))
            .transpose()
    }

    fn all_idle(&self) -> bool {
        self.devices.iter().all(Device::is_idle) && self.mem.is_idle()
    }

    /// The first cycle after `now` that has to be stepped: the earliest
    /// wake entry — no component is asked, the set holds their answers —
    /// or an engine timer if one comes sooner.
    fn next_step_at(&self, progress: &KernelProgress, kernel: &dyn Kernel) -> Cycle {
        let next = self.now + 1;
        let devices = self.devices.iter().map(Device::next_event_at);
        let mut horizon = devices.fold(self.mem.wake().earliest(), Cycle::min);
        if horizon <= next {
            return next;
        }
        // The engine's own timers. Each names the cycle whose step does
        // something no component announces: a crash, a sample, the
        // watchdog firing (the fingerprint cannot move before a component
        // does), and the first cycle past `max_cycles`, which errors out.
        let crashes = self.crash_faults.iter().flatten();
        for at in crashes.filter_map(BankFaults::next_due) {
            horizon = horizon.min(Cycle(at));
        }
        if let Some(at) = self.sampler.next_due() {
            horizon = horizon.min(at);
        }
        if self.cfg.watchdog_cycles > 0 {
            horizon = horizon.min(progress.last_progress + self.cfg.watchdog_cycles);
        }
        if self.cfg.max_cycles > 0 {
            horizon = horizon.min(Cycle(self.cfg.max_cycles + 1));
        }
        // A parked grid tail dispatches at the top of the next cycle if
        // this one's step freed a slot on the device it is pinned to.
        if progress.next_cta < kernel.n_ctas() {
            let dev = &self.devices[progress.next_cta % self.devices.len()];
            let takes = |sm: &Sm| sm.can_accept_cta(kernel.warps_per_cta());
            if dev.room && dev.sms.iter().any(takes) {
                return next;
            }
        }
        // The compaction poll runs on multiples of `COMPACT_POLL_CYCLES`,
        // and does something only while the checker is over its threshold;
        // its footprint is counted only if the jump would cross one.
        let poll = Cycle((self.now.0 / COMPACT_POLL_CYCLES + 1) * COMPACT_POLL_CYCLES);
        if poll < horizon && self.checker.retained_events() >= COMPACT_RETAINED_THRESHOLD {
            horizon = poll;
        }
        horizon.max(next)
    }

    /// Moves `now` to the cycle before `next_step`: the cycles in between
    /// are accounted, and every SM is asleep — no SM issues in them, no
    /// rollover freezes them, nobody touches what `waiting_reason` reads
    /// — so each books them with the rest of its sleep when it is next
    /// opened ([`book`]). Returns how many.
    fn jump_to(&mut self, next_step: Cycle) -> u64 {
        let skipped = next_step - self.now - 1;
        if skipped > 0 {
            self.steps += skipped;
            self.now += skipped;
            self.jumps += 1;
        }
        skipped
    }

    /// One global clock cycle (phase list in the module docs). Returns
    /// whether any SM issued.
    fn step(&mut self) -> bool {
        let (now, steps) = (self.now, self.steps);
        let mut rollover = false;
        for (d, dev) in self.devices.iter_mut().enumerate() {
            dev.front_half(now, steps, &self.sizes, &self.spans, &mut self.checker);
            rollover |= self.mem.serve(d, dev, now);
        }
        self.mem.exchange(&mut self.devices, now);
        for (unit, faults) in self.crash_faults.iter_mut().enumerate() {
            let due = faults.as_mut().is_some_and(|f| f.due(now.0));
            if due && self.mem.crash(unit, &mut self.devices, now) {
                self.recoveries += 1;
                rollover = true;
            }
        }

        // Timestamp rollover: an overflowing bank, a crashed one, or the
        // memory side triggers the global reset broadcast of Section V-D.
        rollover |= self.mem.needs_reset();
        if rollover {
            self.epoch += 1;
            self.mem.apply_reset(self.epoch, now);
            for dev in &mut self.devices {
                for bank in &mut dev.l2 {
                    bank.apply_reset(self.epoch, now);
                }
                dev.bank_wake.clear();
            }
        }

        let mut issued = false;
        for dev in &mut self.devices {
            issued |= dev.back_half(
                now,
                steps,
                rollover,
                &self.sizes,
                &self.spans,
                &mut self.checker,
            );
        }
        self.steps += 1;
        self.stepped += 1;
        issued
    }

    /// Leaves the machine as one that touched everything in every cycle
    /// would be, `at` being the last cycle stepped: every SM has booked
    /// every accounted cycle, and `settled` stands at `at`. Run on every
    /// way out of `advance_kernel`, so `report`, `save_snapshot` and the
    /// next slice never see a sleeper's unbooked stretch.
    fn settle(&mut self, at: Cycle) {
        self.settled = at;
        for dev in &mut self.devices {
            dev.book_all(self.steps);
        }
    }
}

#[cfg(test)]
impl<M: MemorySide> Sim<M> {
    /// Marks every component always due: the same loop over a full set,
    /// which is the machine that ticks everything in every stepped cycle
    /// — the reference the active set is held to. The entries keep being
    /// refreshed, so the fold jumps exactly where the live set does.
    fn saturate(&mut self) {
        for dev in &mut self.devices {
            for wake in [&mut dev.sm_wake, &mut dev.bank_wake, &mut dev.net_wake] {
                wake.saturated = true;
            }
        }
        self.mem.wake_mut().saturated = true;
    }
}

/// Engine behaviour that does not depend on the memory side, stated once
/// and run over both topologies.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuSim, MultiGpuSim};
    use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
    use gtsc_types::{Addr, FaultConfig, MultiGpuConfig, ProtocolKind, TraceConfig};

    /// Data-race-free traffic: each CTA stores to its own blocks then
    /// reads them back, enough cycles to slice and checkpoint.
    fn drf_traffic_kernel(name: &str, n_ctas: usize) -> VecKernel {
        let ctas = (0..n_ctas)
            .map(|c| {
                let base = (c as u64) * 1024;
                vec![WarpProgram(
                    (0..6)
                        .flat_map(|i| {
                            [
                                WarpOp::store_coalesced(Addr(base + i * 128), 32),
                                WarpOp::Fence,
                                WarpOp::load_coalesced(Addr(base + i * 128), 32),
                            ]
                        })
                        .collect(),
                )]
            })
            .collect();
        VecKernel::new(name, 1, ctas)
    }

    /// Adjusts the per-device config before a build.
    type Tweak = fn(&mut GpuConfig);
    const AS_IS: Tweak = |_| {};

    fn single(tweak: Tweak) -> GpuSim {
        let mut cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        tweak(&mut cfg);
        GpuSim::new(cfg)
    }

    fn multi(tweak: Tweak) -> MultiGpuSim {
        let mut cfg = MultiGpuConfig::test_small(2);
        tweak(&mut cfg.gpu);
        if cfg.gpu.faults.lossy_active() {
            cfg.fabric = cfg.fabric.with_device_crashes(2, 2_000);
        }
        if cfg.gpu.faults.noc_drop_permille > 0 {
            cfg.fabric = cfg.fabric.lossy(42, 60);
        }
        MultiGpuSim::new(cfg)
    }

    /// A lossy NoC with bank crashes; behind a fabric, a lossy fabric with
    /// device crashes on top.
    const LOSSY_CRASHY: Tweak =
        |cfg| cfg.faults = FaultConfig::lossy(42, 80).with_bank_crashes(2, 400);

    /// DRAM that is slow and one request deep, so banks hold requests back
    /// and the machine waits in long jumps — with the crashes landing
    /// inside them.
    const STARVED_CRASHY: Tweak = |cfg| {
        cfg.dram.queue_depth = 1;
        cfg.dram.row_hit = 150;
        cfg.dram.row_miss = 300;
        cfg.faults = FaultConfig::default().with_bank_crashes(3, 900);
    };

    /// Slicing the run loop must be invisible: any budget sequence yields
    /// the stats, memory image and final snapshot of one uninterrupted
    /// run — although the uninterrupted run jumps over its empty cycles,
    /// the slice ends fall inside those jumps, and at budget 1 nothing is
    /// jumped at all, which makes that row the step-every-cycle reference.
    /// At one budget the machine is also thrown away at every slice end
    /// and rebuilt from its snapshot. More CTAs than the machine holds, so
    /// the grid tail parks and dispatches into slots that free up.
    fn slices_match_one_run<M: MemorySide>(build: fn(Tweak) -> Sim<M>) {
        let kernel = drf_traffic_kernel("drf-traffic", 20);
        for tweak in [AS_IS, LOSSY_CRASHY, STARVED_CRASHY] {
            let mut whole = build(tweak);
            let want = whole.run_kernel(&kernel).expect("whole run");
            let want_snap = whole.save_snapshot(None).expect("snapshot");
            assert!(whole.jumps() > 0, "the uninterrupted run never jumped");
            for budget in [1, 7, 37, 500, 4001] {
                let mut sliced = build(tweak);
                let mut progress = KernelProgress::new(&kernel);
                let (mut slices, mut rewind) = (0, Vec::new());
                let got = loop {
                    let slice = sliced.advance_kernel(&kernel, &mut progress, budget);
                    if let Some(report) = slice.expect("slice") {
                        break report;
                    }
                    if budget == 37 {
                        let snap = sliced.save_snapshot(Some(&progress)).expect("snapshot");
                        sliced = build(tweak);
                        let restored = sliced.restore_snapshot(&snap).expect("restore");
                        progress = restored.expect("a mid-kernel snapshot carries progress");
                        let again = sliced.save_snapshot(Some(&progress)).expect("snapshot");
                        assert!(again == snap, "save, restore, save moved a byte");
                    }
                    // And once the machine is wound back into itself: every
                    // piece of derived state (dormancy, horizons, the active
                    // set) has to fall back with the image.
                    slices += 1;
                    if budget == 500 && slices == 1 {
                        rewind = sliced.save_snapshot(Some(&progress)).expect("snapshot");
                    } else if budget == 500 && slices == 4 {
                        let restored = sliced.restore_snapshot(&rewind).expect("restore");
                        progress = restored.expect("a mid-kernel snapshot carries progress");
                    }
                };
                assert_eq!(got.stats, want.stats, "budget {budget}");
                assert_eq!(sliced.memory_image(), whole.memory_image());
                let snap = sliced.save_snapshot(None).expect("snapshot");
                assert!(snap == want_snap, "budget {budget}: final snapshot differs");
                if budget == 1 {
                    assert_eq!((sliced.jumps(), sliced.stepped_cycles()), (0, sliced.steps));
                }
            }
        }
    }

    #[test]
    fn advance_kernel_in_slices_matches_run_kernel() {
        slices_match_one_run(single);
        slices_match_one_run(multi);
    }

    /// Ten 1 000-cycle compute bursts on one warp: the machine holds
    /// nothing else, so all but the cycles that issue are jumped.
    fn idle_machine_is_jumped_not_stepped<M: MemorySide>(build: fn(Tweak) -> Sim<M>) -> u64 {
        let bursts = WarpProgram(vec![WarpOp::Compute(1000); 10]);
        let kernel = VecKernel::new("bursts", 1, vec![vec![bursts]]);
        let mut sim = build(AS_IS);
        let report = sim.run_kernel(&kernel).expect("completes");
        assert_eq!(report.stats.cycles, Cycle(9001));
        assert_eq!((sim.stepped_cycles(), sim.jumps()), (20, 9));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // One SM has the warp; everything else sleeps from its first
        // visit on: at most two visits per stepped cycle.
        let (visits, of) = sim.component_visits();
        assert!(visits <= 2 * sim.stepped_cycles(), "{visits} of {of}");
        visits
    }

    /// The guard against the skip silently turning off: these are exact
    /// counts of a deterministic run, so a component that starts reporting
    /// the always-due default horizon moves them — here, not in a
    /// benchmark. The bounds they sit under are the contract: fewer than
    /// 50 stepped cycles for the bursts, fewer than 60 % for CCP Small —
    /// and, of the cycles that are stepped, at most two component visits
    /// each for the bursts and a tenth of all component-cycles for CCP.
    #[test]
    fn horizon_jumps_leave_few_cycles_to_step() {
        let idle = [
            idle_machine_is_jumped_not_stepped(single),
            idle_machine_is_jumped_not_stepped(multi),
        ];
        assert_eq!(idle, [27, 34]);
        let cfg = GpuConfig::paper_default().with_protocol(ProtocolKind::Gtsc);
        let mut sim = GpuSim::new(cfg);
        let kernel = gtsc_workloads::Benchmark::Ccp.build(gtsc_workloads::Scale::Small);
        let report = sim.run_kernel(kernel.as_ref()).expect("completes");
        let (cycles, stepped) = (report.stats.accounted_cycles, sim.stepped_cycles());
        assert_eq!((cycles, stepped, sim.jumps()), (5865, 2328, 778));
        assert!(stepped * 100 < cycles * 60, "stepped {stepped} of {cycles}");
        // 16 SMs, 8 banks, 8 partitions, 2 crossbars: 34 component-cycles
        // a stepped cycle, of which CCP visits fewer than a tenth. One
        // always-due component adds a visit per stepped cycle — 2 328, to
        // 10.8 % — so it moves the count and breaks the bound.
        let (visits, of) = sim.component_visits();
        assert_eq!((visits, of), (6213, 34 * stepped));
        assert!(
            visits * 10 < of,
            "visited {visits} of {of} component-cycles"
        );
    }

    /// Crashes that land among transition checks: the sanitizer sees every
    /// reset, also those of banks that slept through the cycle.
    const SANITIZED_CRASHY: Tweak = |cfg| {
        cfg.sanitize = true;
        cfg.faults = FaultConfig::default().with_bank_crashes(3, 900);
    };

    /// Every event recorded, on the lossy and crashing machine: each reset
    /// is dated in the trace by every bank and the home node, asleep or not.
    const TRACED_CRASHY: Tweak = |cfg| {
        cfg.trace = TraceConfig::full();
        cfg.faults = FaultConfig::lossy(42, 80).with_bank_crashes(2, 400);
    };

    /// Everything a run leaves behind that a caller can get at.
    struct Seen {
        stats: SimStats,
        violations: Vec<Violation>,
        /// `save_snapshot` at slice ends (every `every`-th), then the
        /// final image: SM, L1, bank, network, memory-side, checker and
        /// sanitizer state, byte for byte.
        images: Vec<Vec<u8>>,
        loads: Vec<crate::LoadObservation>,
        trace: Vec<TraceEvent>,
        sanitizer: gtsc_trace::Report,
    }

    /// Runs `kernel` in slices of `budget` cycles (0: in one piece).
    fn watch<M: MemorySide>(sim: &mut Sim<M>, kernel: &VecKernel, budget: u64) -> Seen {
        let every = if budget == 1 { 101 } else { 1 };
        let mut progress = KernelProgress::new(kernel);
        let mut images = Vec::new();
        let mut slices = 0;
        let report = loop {
            let slice = sim.advance_kernel(kernel, &mut progress, budget);
            if let Some(report) = slice.expect("slice") {
                break report;
            }
            slices += 1;
            if slices % every == 0 {
                images.push(sim.save_snapshot(Some(&progress)).expect("snapshot"));
            }
        };
        images.push(sim.save_snapshot(None).expect("snapshot"));
        let blocks = sim.memory_image().into_keys();
        Seen {
            stats: report.stats,
            violations: report.violations,
            images,
            loads: blocks
                .flat_map(|b| sim.checker().load_observations(b))
                .collect(),
            trace: sim.trace_events(),
            sanitizer: sim.sanitizer().report(),
        }
    }

    /// Names the first difference (the images alone run to megabytes).
    fn assert_same(live: &Seen, full: &Seen, what: &str) {
        assert_eq!(live.stats, full.stats, "{what}: stats");
        assert_eq!(live.violations, full.violations, "{what}: violations");
        assert_eq!(live.images.len(), full.images.len(), "{what}: slices");
        for (i, (a, b)) in live.images.iter().zip(&full.images).enumerate() {
            assert!(a == b, "{what}: snapshot {i} of {}", live.images.len());
        }
        assert!(live.loads == full.loads, "{what}: load observations");
        assert!(live.trace == full.trace, "{what}: trace events");
        assert_eq!(live.sanitizer, full.sanitizer, "{what}: sanitizer report");
    }

    /// The machine with the active set live against the same machine with
    /// every component always due (`Sim::saturate`), side by side.
    fn live_matches_saturated<M: MemorySide>(
        build: fn(Tweak) -> Sim<M>,
        tweak: Tweak,
        kernel: &VecKernel,
        budget: u64,
    ) -> Seen {
        let (mut live, mut full) = (build(tweak), build(tweak));
        full.saturate();
        let (seen, want) = (
            watch(&mut live, kernel, budget),
            watch(&mut full, kernel, budget),
        );
        assert_same(&seen, &want, &format!("budget {budget}"));
        let ((visits, of), (all, _)) = (live.component_visits(), full.component_visits());
        assert_eq!(all, of, "a saturated cycle visits every component");
        assert!(visits < all, "the live set visited {visits} of {all}");
        seen
    }

    fn saturated_set_differential<M: MemorySide>(build: fn(Tweak) -> Sim<M>) {
        let kernel = drf_traffic_kernel("drf-traffic", 20);
        let tweaks = [
            AS_IS,
            LOSSY_CRASHY,
            STARVED_CRASHY,
            SANITIZED_CRASHY,
            TRACED_CRASHY,
        ];
        let reset = |e: &TraceEvent| matches!(e.kind, gtsc_trace::EventKind::Rollover { .. });
        for tweak in tweaks {
            for budget in [0, 1, 37] {
                let seen = live_matches_saturated(build, tweak, &kernel, budget);
                assert!(seen.violations.is_empty(), "{:?}", seen.violations);
                // Traced, the trace dates the crashes' resets.
                assert!(seen.trace.is_empty() || seen.trace.iter().any(reset));
            }
        }
    }

    /// The active set is invisible: visiting only the due components
    /// leaves the statistics, every snapshot byte mid-run and final, the
    /// checker's observations, the trace and the sanitizer's report of a
    /// machine that visits everything — plain, lossy with crashes, starved
    /// of DRAM, sanitized, traced; in one piece, cycle by cycle and in
    /// slices that end inside jumps.
    #[test]
    fn active_set_matches_the_saturated_set() {
        saturated_set_differential(single);
        saturated_set_differential(multi);
    }

    /// One warp, one miss: the SM sleeps on the event, and only the
    /// response's `touch` brings it back.
    fn one_miss() -> VecKernel {
        let ops = vec![
            WarpOp::load_coalesced(Addr(0), 32),
            WarpOp::store_coalesced(Addr(4096), 32),
        ];
        VecKernel::new("one-miss", 1, vec![vec![WarpProgram(ops)]])
    }

    /// Wake point: `Sm::on_response` (`sm_wake.touch` in the back half). A
    /// forgotten wake leaves the SM asleep with its answer delivered.
    #[test]
    fn active_set_wakes_an_sm_on_a_response() {
        live_matches_saturated(single, AS_IS, &one_miss(), 0);
        live_matches_saturated(multi, AS_IS, &one_miss(), 0);
    }

    /// Wake point: `Sm::assign_cta` (`Device::assign_cta`). Five waves of
    /// CTAs over two SMs: all but the first land on SMs that went to sleep
    /// empty, and only dispatch wakes those.
    #[test]
    fn active_set_wakes_an_sm_on_dispatch() {
        let kernel = drf_traffic_kernel("waves", 40);
        live_matches_saturated(single, AS_IS, &kernel, 0);
        live_matches_saturated(multi, AS_IS, &kernel, 0);
    }

    /// Wake point: `L2Controller::on_request` (`bank_wake.touch` in the
    /// front half). Compute first, so both banks have been visited idle
    /// and sleep without a horizon when the first request lands.
    #[test]
    fn active_set_wakes_a_bank_on_a_request() {
        let mut ops = vec![WarpOp::Compute(300)];
        ops.extend(one_miss().program(CtaId(0), 0).0);
        let kernel = VecKernel::new("late-miss", 1, vec![vec![WarpProgram(ops)]]);
        live_matches_saturated(single, AS_IS, &kernel, 0);
        live_matches_saturated(multi, AS_IS, &kernel, 0);
    }

    /// Wake point: `DeviceL2::on_fabric_response` (`bank_wake.touch` in
    /// `exchange`). The grant lands long after the bank forwarded the
    /// miss and went to sleep; its waiters are answered from there.
    #[test]
    fn active_set_wakes_a_bank_on_a_fabric_response() {
        live_matches_saturated(multi, AS_IS, &one_miss(), 0);
        live_matches_saturated(multi, AS_IS, &drf_traffic_kernel("drf-traffic", 6), 1);
    }

    /// Wake point: `L2Controller::dram_ready` (the bank's entry is
    /// refreshed after it in `LocalDram::serve`). Streams of stores
    /// through a small L2 into two slow DRAM banks behind a one-deep
    /// queue: banks hold fetches back, and it is often a write-back that
    /// makes room — no fill, no response, nothing else that would bring
    /// the bank up the next cycle to hand a fetch to the bank that is free.
    #[test]
    fn active_set_wakes_a_bank_when_dram_makes_room() {
        let starved: Tweak = |cfg| {
            cfg.dram.banks = 2;
            cfg.dram.queue_depth = 1;
            cfg.dram.row_hit = 150;
            cfg.dram.row_miss = 300;
        };
        let stream = |c: u64| (0..32).map(move |i| Addr((c * 1000 + i * 3) * 128));
        let stores = |c| stream(c).map(|a| WarpOp::store_coalesced(a, 32));
        let ctas = (0..8).map(|c| vec![WarpProgram(stores(c).collect())]);
        let kernel = VecKernel::new("store-streams", 1, ctas.collect());
        let seen = live_matches_saturated(single, starved, &kernel, 0);
        assert!(seen.stats.dram.writes > 0, "nothing was written back");
    }

    /// Wake point: `Sm::l1_mut` (the kernel-boundary flush). The second
    /// kernel leaves an SM without work: it is awake after the flush all
    /// the same, and scans before it sleeps again.
    #[test]
    fn active_set_wakes_every_sm_at_a_kernel_boundary() {
        fn back_to_back<M: MemorySide>(build: fn(Tweak) -> Sim<M>) {
            let kernels = [drf_traffic_kernel("first", 6), one_miss()];
            let run = |saturate: bool| {
                let mut sim = build(AS_IS);
                if saturate {
                    sim.saturate();
                }
                let kernels: Vec<&dyn Kernel> = kernels.iter().map(|k| k as &dyn Kernel).collect();
                let report = sim.run_kernels(&kernels).expect("completes");
                (report.stats, sim.save_snapshot(None).expect("snapshot"))
            };
            assert!(run(false) == run(true));
        }
        back_to_back(single);
        back_to_back(multi);
    }

    /// Settle point: dispatch. The stretch an SM slept through is booked
    /// *before* `assign_cta` changes what `waiting_reason` and the census
    /// say about it.
    #[test]
    fn active_set_books_a_sleeper_before_dispatch() {
        // Long CTAs, so an emptied SM sleeps a good while before the
        // parked tail reaches it.
        let ctas = (0..12u32).map(|c| {
            let base = Addr(u64::from(c) * 1024);
            let ops = [
                WarpOp::load_coalesced(base, 32),
                WarpOp::Compute(40 + 90 * (c % 3)),
            ];
            vec![WarpProgram(ops.to_vec()); 4]
        });
        let kernel = VecKernel::new("uneven", 4, ctas.collect());
        for budget in [0, 37] {
            live_matches_saturated(single, AS_IS, &kernel, budget);
            live_matches_saturated(multi, AS_IS, &kernel, budget);
        }
    }

    /// Settle point: a reset cycle. Every SM books it as a freeze, the
    /// ones the cycle did not visit included.
    #[test]
    fn active_set_books_a_freeze_for_sleepers() {
        let kernel = drf_traffic_kernel("drf-traffic", 6);
        for build_and_run in [
            |k: &VecKernel| live_matches_saturated(single, LOSSY_CRASHY, k, 0).stats,
            |k: &VecKernel| live_matches_saturated(multi, LOSSY_CRASHY, k, 0).stats,
        ] {
            let stats = build_and_run(&kernel);
            let freeze =
                |sm: &gtsc_types::SmStats| sm.cycle_buckets.get(CycleReason::RolloverFreeze);
            let frozen = stats.per_sm.iter().map(freeze);
            let frozen: Vec<u64> = frozen.collect();
            assert!(
                frozen[0] > 0 && frozen.iter().all(|&n| n == frozen[0]),
                "{frozen:?}"
            );
        }
    }

    /// `report()`'s own check: every SM's buckets tile the accounted
    /// cycles.
    fn accounting_is_whole<M: MemorySide>(sim: &Sim<M>) {
        let report = sim.report();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.stats.accounted_cycles > 0);
    }

    /// Settle points: the four ways out of `advance_kernel`. One CTA on a
    /// two-SM machine, so an SM sleeps from the first cycle to the last
    /// and nothing but the exit books it.
    fn every_exit_settles<M: MemorySide>(build: fn(Tweak) -> Sim<M>) {
        let burst = WarpProgram(vec![
            WarpOp::Compute(1000),
            WarpOp::load_coalesced(Addr(0), 32),
        ]);
        let kernel = VecKernel::new("burst", 1, vec![vec![burst]]);
        // Drained, and the budget running out (inside the jump).
        for budget in [0, 300] {
            let seen = live_matches_saturated(build, AS_IS, &kernel, budget);
            assert!(seen.violations.is_empty(), "{:?}", seen.violations);
        }
        let mut sim = build(AS_IS);
        let mut progress = KernelProgress::new(&kernel);
        let parked = sim.advance_kernel(&kernel, &mut progress, 300);
        assert!(matches!(parked, Ok(None)));
        accounting_is_whole(&sim);
        // The watchdog, and the cycle limit.
        let mut sim = build(|cfg| cfg.watchdog_cycles = 200);
        assert!(matches!(
            sim.run_kernel(&kernel),
            Err(SimError::Stalled { .. })
        ));
        accounting_is_whole(&sim);
        let mut sim = build(|cfg| cfg.max_cycles = 400);
        assert!(matches!(
            sim.run_kernel(&kernel),
            Err(SimError::CycleLimit { .. })
        ));
        accounting_is_whole(&sim);
    }

    #[test]
    fn active_set_settles_on_every_way_out() {
        every_exit_settles(single);
        every_exit_settles(multi);
    }

    fn foreign_progress_is_rejected<M: MemorySide>(build: fn(Tweak) -> Sim<M>) {
        let mut sim = build(AS_IS);
        let mut progress = KernelProgress::new(&drf_traffic_kernel("first", 4));
        let other = drf_traffic_kernel("second", 2);
        match sim.advance_kernel(&other, &mut progress, 10) {
            Err(SimError::InvalidKernel(msg)) => {
                assert!(msg.contains("cannot resume"), "{msg}");
            }
            other => panic!("expected InvalidKernel, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn advance_kernel_rejects_foreign_progress() {
        foreign_progress_is_rejected(single);
        foreign_progress_is_rejected(multi);
    }

    /// Truncation at every eighth boundary and a bit flip in every 97th
    /// byte: all must fail cleanly.
    fn corruption_is_an_error<M: MemorySide>(build: fn(Tweak) -> Sim<M>) {
        let mut sim = build(AS_IS);
        sim.run_kernel(&drf_traffic_kernel("drf-traffic", 2))
            .expect("completes");
        let snap = sim.save_snapshot(None).expect("snapshot");
        for cut in (0..8).map(|i| snap.len() * i / 8) {
            assert!(build(AS_IS).restore_snapshot(&snap[..cut]).is_err());
        }
        for i in (0..snap.len()).step_by(97) {
            let mut bad = snap.clone();
            bad[i] ^= 0x40;
            assert!(
                build(AS_IS).restore_snapshot(&bad).is_err(),
                "bit flip at byte {i} must be detected"
            );
        }
        assert!(build(AS_IS).restore_snapshot(&snap).is_ok());
    }

    #[test]
    fn snapshot_corruption_is_an_error_never_a_panic() {
        corruption_is_an_error(single);
        corruption_is_an_error(multi);
    }

    fn config_mismatch_is_rejected<M: MemorySide>(build: fn(Tweak) -> Sim<M>) {
        let mut sim = build(AS_IS);
        sim.run_kernel(&drf_traffic_kernel("drf-traffic", 2))
            .expect("completes");
        let snap = sim.save_snapshot(None).expect("snapshot");
        match build(|cfg| cfg.warps_per_sm += 1).restore_snapshot(&snap) {
            Err(SnapshotError::Mismatch { what }) => {
                assert!(what.contains("fingerprint"), "{what}");
            }
            other => panic!("expected Mismatch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn snapshot_config_mismatch_is_rejected() {
        config_mismatch_is_rejected(single);
        config_mismatch_is_rejected(multi);
    }

    fn sampler_covers_the_run<M: MemorySide>(build: fn(Tweak) -> Sim<M>) {
        let mut sim = build(|cfg| cfg.trace = TraceConfig::full().with_interval(64));
        let report = sim
            .run_kernel(&drf_traffic_kernel("drf-traffic", 4))
            .expect("completes");
        let samples = sim.samples();
        assert!(!samples.is_empty());
        // Contiguous coverage from 0 to the final cycle...
        assert_eq!(samples[0].start, Cycle(0));
        assert!(samples.windows(2).all(|w| w[0].end == w[1].start));
        // ...whose deltas sum back to the cumulative totals.
        let issued: u64 = samples.iter().map(|s| s.delta.sm.issued).sum();
        assert_eq!(issued, report.stats.sm.issued);
        let flits: u64 = samples.iter().map(|s| s.delta.noc.flits).sum();
        assert_eq!(flits, report.stats.noc.flits);
    }

    #[test]
    fn interval_sampler_covers_the_whole_run() {
        sampler_covers_the_run(single);
        sampler_covers_the_run(multi);
    }

    /// A checkpoint is tied to its topology, and a format-version-1
    /// image (the pre-unification layouts) is refused by its header.
    #[test]
    fn snapshots_do_not_cross_topologies_or_format_versions() {
        let snap = single(AS_IS).save_snapshot(None).expect("snapshot");
        assert!(matches!(
            multi(AS_IS).restore_snapshot(&snap),
            Err(SnapshotError::Mismatch { .. })
        ));
        // The version is the little-endian u32 after the 8-byte magic.
        let mut v1 = snap.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            single(AS_IS).restore_snapshot(&v1).map(|_| ()),
            Err(SnapshotError::BadVersion { found: 1 })
        );
    }
}
