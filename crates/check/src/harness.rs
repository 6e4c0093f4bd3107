//! A model-checking harness around the real G-TSC controllers.
//!
//! [`MicroGtsc`] runs one tiny program per thread (one single-warp SM
//! and private `GtscL1` each) against one of two memory sides, chosen by
//! [`Topology`] and shaped like the cycle engine's (DESIGN.md §17.1):
//! a single `GtscL2` bank over instant DRAM, or one
//! [`gtsc_fabric::DeviceL2`] per device under a shared
//! [`gtsc_fabric::HomeNode`] directory, every thread pinned to a device.
//! Scheduler nondeterminism is exposed through [`crate::Schedulable`] so
//! [`crate::explore_all`] can enumerate every interleaving.
//!
//! The key soundness reduction: with one outstanding access per thread,
//! the *content* of a thread's next request depends only on that
//! thread's own architectural state — so the only scheduling decision
//! that can change an outcome is the order in which outstanding requests
//! are **served**: by the bank on die; across the fabric, by the home
//! for cross-device traffic and by the local device for reads its grant
//! covers. The harness therefore issues eagerly (each thread always has
//! its next access queued) and makes "serve thread `t`'s pending request
//! to completion" the one scheduler choice, pumping the memory side
//! (with unit latencies and the simulator's rollover protocol) until the
//! response lands back in the requesting L1. This collapses the schedule
//! space from every per-cycle interleaving to the serialization order —
//! exactly the nondeterminism the protocol's timestamp rules must
//! tolerate.
//!
//! Every run executes with an enabled [`Sanitizer`] shared across all
//! components; its violations are part of the run's outcome, so a
//! transition-invariant breach on *any* schedule fails the litmus test.
//! Independently, every message handed over and every retired access is
//! fed to a [`RaceOracle`], whose findings are also part of the outcome
//! — the oracle derives ordering from message causality alone, so it
//! cross-examines the timestamps rather than trusting them.
//!
//! What the fabric adds is hierarchy: a device is simultaneously a lease
//! *consumer* (it installs inter-GPU grants from the home) and a lease
//! *producer* (it hands nested leases to L1s). The sanitizer checks the
//! nesting online (`DeviceServe`), and the oracle checks it from the
//! message stream (`lease-outside-grant`), observing the device as both
//! an installing SM-like actor and a granting bank-like actor.
//!
//! Crashes are first-class on both sides: [`HarnessCfg`] can wipe one
//! unit — the bank, or a device — just before the Nth serve. Committed
//! data survives beyond it (DRAM; the home, which stores are written
//! through to), so recovery is a global epoch bump after which the unit
//! rebuilds from scratch — the oracle's `missing-epoch-bump` and
//! cleared-grant rules police exactly that.

use std::collections::BTreeMap;
use std::fmt::Debug;

use gtsc_core::{GtscL1, GtscL2, L1Params, L2Params, ProtocolMutation};
use gtsc_fabric::{DeviceL2, DeviceParams, HomeNode, HomeParams};
use gtsc_protocol::msg::{Epoch, L1ToL2, L2ToL1, LeaseInfo};
use gtsc_protocol::{
    AccessId, AccessKind, Completion, L1Controller, L1Outcome, L2Controller, MemAccess, VersionMint,
};
use gtsc_trace::{Finding, Report, Sanitizer, Scope};
use gtsc_types::{BlockAddr, Cycle, Lease, Version, WarpId};

use crate::explore::Schedulable;
use crate::litmus::Op;
use crate::races::{RaceEventKind, RaceOracle, RespMeta};

/// Iteration guard for one serve pump; generously above the bank, device
/// and home latencies plus a rollover or grant-refetch round.
const PUMP_CAP: u32 = 10_000;

/// The memory side a [`MicroGtsc`] run is built over. A setting only one
/// topology can honour lives on that topology's variant, so it cannot be
/// set and silently ignored on the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `GtscL2` bank over instant DRAM; every thread runs on
    /// device 0.
    OnDie {
        /// Deliver every served request to the bank twice — an
        /// end-to-end retry racing its original. The protocol must stay
        /// idempotent under duplicated reads, stores, and their doubled
        /// responses.
        duplicate_serves: bool,
    },
    /// One `DeviceL2` per device under a shared `HomeNode`.
    Fabric {
        /// Lease length of the inter-GPU grants the home hands to
        /// devices.
        grant_lease: u64,
    },
}

/// Configuration of a [`MicroGtsc`] run.
#[derive(Debug, Clone, Copy)]
pub struct HarnessCfg {
    /// Lease length handed to L1s: by the bank, or by a device (nested
    /// inside its inter-GPU grant).
    pub lease: u64,
    /// Hardware timestamp width at the bank or the home; small values
    /// force rollover resets mid-litmus (Section V-D).
    pub ts_bits: u32,
    /// Crash unit `.1` (the bank is unit 0; a device is its index) once,
    /// just before `.0` requests have been served: tags, MSHRs, grants,
    /// and queues are wiped (committed data survives in DRAM or at the
    /// home) and recovery runs the global epoch bump. `None` never
    /// crashes.
    pub crash_after_serves: Option<(u32, u16)>,
    /// Seeded protocol mutant to run the controllers with (test-only;
    /// used to validate that the checkers actually detect bugs).
    pub mutation: ProtocolMutation,
    /// Which memory side serves the L1s.
    pub topology: Topology,
}

impl Default for HarnessCfg {
    fn default() -> Self {
        HarnessCfg {
            lease: Lease::default().0,
            ts_bits: 16,
            crash_after_serves: None,
            mutation: ProtocolMutation::None,
            topology: Topology::OnDie {
                duplicate_serves: false,
            },
        }
    }
}

impl HarnessCfg {
    /// The default configuration of the fabric topology.
    #[must_use]
    pub fn fabric() -> Self {
        HarnessCfg {
            topology: Topology::Fabric { grant_lease: 64 },
            ..HarnessCfg::default()
        }
    }

    /// The lease the flat [`crate::SpecMachine`] must run with to bound
    /// this configuration: the widest interval any copy can hold.
    #[must_use]
    pub fn spec_lease(&self) -> u64 {
        match self.topology {
            Topology::OnDie { .. } => self.lease,
            Topology::Fabric { grant_lease } => grant_lease.max(self.lease),
        }
    }
}

fn sm_scope(t: usize) -> Scope {
    Scope::Sm(u16::try_from(t).expect("SM index fits"))
}

fn device_scope(d: usize) -> Scope {
    Scope::Device(u16::try_from(d).expect("device index fits"))
}

/// The race oracle and the id source for its send/receive causality
/// edges. The machine owns it; the memory side writes to it too, because
/// the fabric has hops of its own between device and home.
#[derive(Debug)]
struct Wire {
    oracle: RaceOracle,
    next_msg: u64,
}

impl Wire {
    /// One message crossing from `src` to `dst`: a send and its receive
    /// joined by a fresh id, which is returned.
    fn hop(&mut self, now: Cycle, src: Scope, dst: Scope) -> u64 {
        let msg = self.next_msg;
        self.next_msg += 1;
        self.oracle
            .observe(now, src, RaceEventKind::Send { dst, msg });
        self.oracle
            .observe(now, dst, RaceEventKind::Recv { src, msg });
        msg
    }

    /// Feeds one response travelling down from `from` to `to`: a grant
    /// at the producer, the causality edge, and an install at the
    /// consumer. A response stamped before the producer's `live` epoch
    /// is no grant: it certifies a commit without installing anything.
    /// The oracle applies the consumer's epoch-gating itself, so
    /// stale-epoch responses the consumer drops are dropped there too.
    fn response(&mut self, now: Cycle, from: Scope, to: Scope, resp: L2ToL1, live: Epoch) {
        let Some(meta) = resp_meta(resp) else { return };
        if meta.epoch() >= live {
            self.oracle.observe(now, from, RaceEventKind::Grant(meta));
        }
        self.hop(now, from, to);
        self.oracle.observe(now, to, RaceEventKind::Install(meta));
    }
}

/// What serves the L1s. Exactly two implementations exist, shaped like
/// the cycle engine's: [`LocalDram`] and [`FabricToHome`]. A *unit* is
/// what a thread's L1 talks to and what a crash wipes — the bank (always
/// unit 0), or a device.
trait MemorySide: Debug {
    /// Oracle and sanitizer scope of `unit`.
    fn scope(&self, unit: usize) -> Scope;

    /// Wipes `unit`'s tags, queues and parked requests.
    fn crash(&mut self, unit: usize, now: Cycle);

    /// Hands thread `t`'s request to `unit`.
    fn on_request(&mut self, unit: usize, t: usize, req: L1ToL2, now: Cycle, wire: &mut Wire);

    /// One cycle of `unit` and of everything its misses reach.
    fn tick(&mut self, unit: usize, now: Cycle, wire: &mut Wire);

    /// Whether any component asks for the Section V-D reset.
    fn needs_reset(&self) -> bool;

    /// Moves every component to `epoch` in the same step, at `now`.
    fn apply_reset(&mut self, epoch: Epoch, now: Cycle);

    /// The next response `unit` has for an L1 (after anything bound for
    /// a unit from further away has been delivered to it), already
    /// shown to the oracle.
    fn take_response(
        &mut self,
        unit: usize,
        now: Cycle,
        wire: &mut Wire,
    ) -> Option<(usize, L2ToL1)>;

    /// Whether a serve may end once a response has reached an L1.
    fn drained(&self) -> bool {
        true
    }
}

const BANK: Scope = Scope::L2Bank(0);
const HOME: Scope = Scope::Home(0);

/// One `GtscL2` bank whose DRAM answers within the cycle.
#[derive(Debug)]
struct LocalDram {
    l2: GtscL2,
    /// [`Topology::OnDie::duplicate_serves`].
    duplicate: bool,
}

impl LocalDram {
    fn new(n_sms: usize, cfg: &HarnessCfg, duplicate: bool, sanitizer: &Sanitizer) -> Self {
        let mut l2 = GtscL2::new(L2Params {
            lease: Lease(cfg.lease),
            ts_bits: cfg.ts_bits,
            n_sms,
            ..L2Params::default()
        });
        l2.set_sanitizer(sanitizer.for_scope(BANK));
        l2.set_mutation(cfg.mutation);
        LocalDram { l2, duplicate }
    }
}

impl MemorySide for LocalDram {
    fn scope(&self, _unit: usize) -> Scope {
        BANK
    }

    fn crash(&mut self, _unit: usize, now: Cycle) {
        self.l2.crash(now);
    }

    fn on_request(&mut self, _unit: usize, t: usize, req: L1ToL2, now: Cycle, wire: &mut Wire) {
        let src = sm_scope(t);
        let msg = wire.hop(now, src, BANK);
        self.l2.on_request(t, req, now);
        if self.duplicate {
            // An end-to-end retry racing its original: the bank sees the
            // byte-identical request twice and must stay idempotent.
            wire.oracle
                .observe(now, BANK, RaceEventKind::Recv { src, msg });
            self.l2.on_request(t, req, now);
        }
    }

    fn tick(&mut self, _unit: usize, now: Cycle, _wire: &mut Wire) {
        self.l2.tick(now);
        while let Some((block, is_write)) = self.l2.take_dram_request() {
            self.l2.on_dram_response(block, is_write, now);
        }
    }

    fn needs_reset(&self) -> bool {
        self.l2.needs_reset()
    }

    fn apply_reset(&mut self, epoch: Epoch, now: Cycle) {
        self.l2.apply_reset(epoch, now);
    }

    fn take_response(
        &mut self,
        _unit: usize,
        now: Cycle,
        wire: &mut Wire,
    ) -> Option<(usize, L2ToL1)> {
        let (dst, resp) = self.l2.take_response()?;
        // The bank is authoritative: whatever it sends is a grant.
        wire.response(now, BANK, sm_scope(dst), resp, 0);
        Some((dst, resp))
    }

    /// Under duplication the serve also drains the duplicate's response:
    /// the doubled fill or ack must be a no-op at the L1 (the first one
    /// already completed the access).
    fn drained(&self) -> bool {
        !self.duplicate || self.l2.is_idle()
    }
}

/// Per-device `DeviceL2`s under one authoritative `HomeNode`, joined by
/// a fabric that delivers within the cycle.
#[derive(Debug)]
struct FabricToHome {
    devices: Vec<DeviceL2>,
    home: HomeNode,
}

impl FabricToHome {
    fn new(n_devices: usize, cfg: &HarnessCfg, grant_lease: u64, sanitizer: &Sanitizer) -> Self {
        let devices = (0..n_devices)
            .map(|d| {
                let mut dev = DeviceL2::new(DeviceParams {
                    lease: Lease(cfg.lease),
                    latency: 1,
                    ports: 4,
                });
                dev.set_sanitizer(sanitizer.for_scope(device_scope(d)));
                dev.set_mutation(cfg.mutation);
                dev
            })
            .collect();
        let mut home = HomeNode::new(HomeParams {
            lease: Lease(grant_lease),
            ts_bits: cfg.ts_bits,
            latency: 1,
        });
        home.set_sanitizer(sanitizer.for_scope(HOME));
        FabricToHome { devices, home }
    }
}

impl MemorySide for FabricToHome {
    fn scope(&self, unit: usize) -> Scope {
        device_scope(unit)
    }

    fn crash(&mut self, unit: usize, now: Cycle) {
        self.devices[unit].crash(now);
    }

    fn on_request(&mut self, unit: usize, t: usize, req: L1ToL2, now: Cycle, wire: &mut Wire) {
        wire.hop(now, sm_scope(t), self.scope(unit));
        self.devices[unit].on_request(t, req, now);
    }

    fn tick(&mut self, unit: usize, now: Cycle, wire: &mut Wire) {
        self.devices[unit].tick(now);
        while let Some(up) = self.devices[unit].take_fabric_request() {
            wire.hop(now, self.scope(unit), HOME);
            self.home.on_request(unit, up, now);
        }
        self.home.tick(now);
    }

    /// A home overflow or a crashed device moves *every* component to
    /// the next epoch.
    fn needs_reset(&self) -> bool {
        self.home.needs_reset() || self.devices.iter().any(DeviceL2::needs_reset)
    }

    fn apply_reset(&mut self, epoch: Epoch, now: Cycle) {
        self.home.apply_reset(epoch, now);
        for dev in &mut self.devices {
            dev.apply_reset(epoch, now);
        }
    }

    fn take_response(
        &mut self,
        unit: usize,
        now: Cycle,
        wire: &mut Wire,
    ) -> Option<(usize, L2ToL1)> {
        // Home → device: a grant at the home (the authoritative bank)
        // and an install at the consuming device.
        while let Some((dst, grant)) = self.home.take_response() {
            wire.response(now, HOME, self.scope(dst), grant, 0);
            self.devices[dst].on_fabric_response(grant, now);
        }
        // Device → L1: a grant at the device (checked for nesting inside
        // its installed inter-GPU grant) and an install at the SM. A
        // stale-epoch ack forwarded after a reset is not a device grant
        // (the L1's epoch gate drops its lease too).
        let (dst, resp) = self.devices[unit].take_response()?;
        let live = self.devices[unit].epoch();
        wire.response(now, self.scope(unit), sm_scope(dst), resp, live);
        Some((dst, resp))
    }
}

/// The micro-simulator: one single-warp `GtscL1` per thread, a memory
/// side, and an explicit serve order.
#[derive(Debug)]
pub struct MicroGtsc {
    l1s: Vec<GtscL1>,
    /// Thread → the unit of `mem` its L1 talks to.
    unit_of: Vec<usize>,
    mem: Box<dyn MemorySide>,
    now: Cycle,
    epoch: Epoch,
    programs: Vec<Vec<Op>>,
    pc: Vec<usize>,
    /// Whether thread `t` has an access in flight (issued, ack not yet
    /// delivered).
    outstanding: Vec<bool>,
    /// Load id → observed store label.
    observed: BTreeMap<u32, u32>,
    /// Per thread: labels of its stores in issue order, aligned with the
    /// L1's per-warp version counter (see [`MicroGtsc::decode_label`]).
    store_labels: Vec<Vec<u32>>,
    sanitizer: Sanitizer,
    /// Serves performed so far (the crash trigger counts these).
    serves: u32,
    /// Remaining crash trigger, from [`HarnessCfg::crash_after_serves`].
    crash_after: Option<(u32, usize)>,
    /// Independent ordering checker fed from the message stream.
    wire: Wire,
}

impl MicroGtsc {
    /// Builds the machine from `(device, program)` pairs and eagerly
    /// issues each thread's first access.
    ///
    /// # Panics
    ///
    /// If `cfg` asks for something its topology cannot honour: a thread
    /// off device 0 on die, or a crash of a unit that does not exist.
    #[must_use]
    pub fn new(threads: &[(u16, Vec<Op>)], cfg: HarnessCfg) -> Self {
        let n = threads.len();
        assert!(n > 0, "need at least one thread");
        let n_units = usize::from(threads.iter().map(|(d, _)| *d).max().unwrap_or(0)) + 1;
        if let Some((_, unit)) = cfg.crash_after_serves {
            assert!(
                usize::from(unit) < n_units,
                "crash of unit {unit}, but the shape has {n_units}"
            );
        }
        let sanitizer = Sanitizer::enabled(Scope::Sm(0));
        let l1s: Vec<GtscL1> = (0..n)
            .map(|t| {
                let mut l1 = GtscL1::new(L1Params {
                    n_warps: 1,
                    sm_index: t,
                    ..L1Params::default()
                });
                l1.set_sanitizer(sanitizer.for_scope(sm_scope(t)));
                l1.set_mutation(cfg.mutation);
                l1
            })
            .collect();
        let mem: Box<dyn MemorySide> = match cfg.topology {
            Topology::OnDie { duplicate_serves } => {
                assert!(n_units == 1, "on die every thread runs on device 0");
                Box::new(LocalDram::new(n, &cfg, duplicate_serves, &sanitizer))
            }
            Topology::Fabric { grant_lease } => {
                Box::new(FabricToHome::new(n_units, &cfg, grant_lease, &sanitizer))
            }
        };
        let mut m = MicroGtsc {
            l1s,
            unit_of: threads.iter().map(|(d, _)| usize::from(*d)).collect(),
            mem,
            now: Cycle(0),
            epoch: 0,
            programs: threads.iter().map(|(_, p)| p.clone()).collect(),
            pc: vec![0; n],
            outstanding: vec![false; n],
            observed: BTreeMap::new(),
            store_labels: vec![Vec::new(); n],
            sanitizer,
            serves: 0,
            crash_after: cfg.crash_after_serves.map(|(n, u)| (n, usize::from(u))),
            wire: Wire {
                oracle: RaceOracle::new(),
                next_msg: 0,
            },
        };
        m.auto_issue();
        m
    }

    /// Threads whose pending request is waiting to be served, in thread
    /// order (the scheduler's enabled choices).
    #[must_use]
    pub fn enabled(&self) -> Vec<usize> {
        (0..self.l1s.len())
            .filter(|&t| self.outstanding[t])
            .collect()
    }

    /// The race oracle's verdict over everything observed so far.
    #[must_use]
    pub fn race_report(&self) -> Report {
        self.wire.oracle.report()
    }

    /// Load observations recorded so far (load id → label).
    #[must_use]
    pub fn observations(&self) -> &BTreeMap<u32, u32> {
        &self.observed
    }

    /// Issues ops for every thread until it either has an access in
    /// flight or its program is exhausted. L1 hits (and fences, which
    /// are trivially ready with one outstanding access per thread)
    /// complete inline without touching shared state, so they are not
    /// scheduler choices.
    fn auto_issue(&mut self) {
        for t in 0..self.l1s.len() {
            while !self.outstanding[t] && self.pc[t] < self.programs[t].len() {
                let op = self.programs[t][self.pc[t]];
                self.pc[t] += 1;
                let (kind, block, id) = match op {
                    Op::Fence => continue,
                    Op::Load { id, block } => (AccessKind::Load, block, u64::from(id)),
                    Op::Store { block, label } => {
                        self.store_labels[t].push(label);
                        // Stores have no load id; give them a token out
                        // of the label space (never recorded).
                        (
                            AccessKind::Store,
                            block,
                            u64::from(u32::MAX) + u64::from(label),
                        )
                    }
                };
                self.now.0 += 1;
                let acc = MemAccess {
                    id: AccessId(id),
                    warp: WarpId(0),
                    kind,
                    block: BlockAddr(block),
                    span: gtsc_types::SpanId::NONE,
                };
                match self.l1s[t].access(acc, self.now) {
                    L1Outcome::Hit(c) => self.record(t, &c),
                    L1Outcome::Queued => self.outstanding[t] = true,
                    L1Outcome::Reject => {
                        unreachable!("litmus configs never fill the MSHR")
                    }
                }
            }
        }
    }

    /// The simulator's rollover protocol: any component requesting a
    /// reset moves the whole memory side to the next epoch. L1s learn of
    /// the epoch from response metadata.
    fn maybe_reset(&mut self) {
        if self.mem.needs_reset() {
            self.epoch += 1;
            self.mem.apply_reset(self.epoch, self.now);
        }
    }

    /// Serves thread `t`'s pending request: hands it to the thread's
    /// unit, then pumps the memory side — advancing time, moving its
    /// traffic, and applying the rollover protocol — until a response is
    /// delivered back to an L1. One serve is one round trip; a
    /// stale-epoch retry leaves the thread outstanding with a fresh
    /// request, to be served by a later choice.
    fn serve(&mut self, t: usize) {
        assert!(self.outstanding[t], "serve of an idle thread");
        self.serves += 1;
        if let Some((after, unit)) = self.crash_after {
            if after == self.serves {
                // The unit dies between serves: its tags, grants, MSHRs
                // and queues are wiped (committed data survives in DRAM
                // or at the home) and the global rollover protocol
                // rebuilds coherence behind an epoch bump. The L1s keep
                // their (now orphaned) leases — logical time only moves
                // forward, so they stay safe until renewal.
                self.crash_after = None;
                self.now.0 += 1;
                self.mem.crash(unit, self.now);
                let at = self.mem.scope(unit);
                self.wire.oracle.observe(self.now, at, RaceEventKind::Crash);
                self.maybe_reset();
            }
        }
        let unit = self.unit_of[t];
        let req = self.l1s[t]
            .take_request()
            .expect("outstanding thread has a queued request");
        self.now.0 += 1;
        self.mem.on_request(unit, t, req, self.now, &mut self.wire);
        let mut delivered = false;
        let mut pumped = 0u32;
        while !(delivered && self.mem.drained()) {
            pumped += 1;
            assert!(pumped < PUMP_CAP, "pump diverged serving thread {t}");
            self.now.0 += 1;
            self.mem.tick(unit, self.now, &mut self.wire);
            self.maybe_reset();
            while let Some((dst, resp)) = self.mem.take_response(unit, self.now, &mut self.wire) {
                delivered = true;
                for c in self.l1s[dst].on_response(resp, self.now).to_vec() {
                    self.record(dst, &c);
                }
            }
        }
        self.auto_issue();
    }

    /// Records a completion: loads store their decoded label; any
    /// completion clears the thread's in-flight marker. The retired
    /// operation (with its logical serialization point) is fed to the
    /// race oracle.
    fn record(&mut self, t: usize, c: &Completion) {
        if let Some(ts) = c.ts {
            let kind = if c.kind == AccessKind::Load {
                RaceEventKind::Read {
                    block: c.block,
                    version: c.version.0,
                    ts: ts.0,
                    epoch: c.epoch,
                }
            } else {
                RaceEventKind::StoreDone {
                    block: c.block,
                    version: c.version.0,
                    wts: ts.0,
                    epoch: c.epoch,
                }
            };
            self.wire.oracle.observe(self.now, sm_scope(t), kind);
        }
        if c.kind == AccessKind::Load {
            let label = self.decode_label(c.version);
            let id = u32::try_from(c.id.0).expect("load ids fit in u32");
            self.observed.insert(id, label);
        }
        self.outstanding[t] = false;
    }

    /// Maps an observed [`Version`] back to the litmus store label that
    /// minted it. [`VersionMint::decode`] names the SM and the per-warp
    /// store index, and the harness issues thread `t`'s stores through SM
    /// `t` warp 0 in program order, so the index selects from
    /// `store_labels[t]`.
    fn decode_label(&self, v: Version) -> u32 {
        if v == Version::ZERO {
            return 0;
        }
        let (sm, _, nth) = VersionMint::decode(v).expect("version encodes a valid SM");
        let nth = usize::try_from(nth).expect("store index fits");
        assert!(
            sm < self.store_labels.len() && nth >= 1 && nth <= self.store_labels[sm].len(),
            "observed version {v:?} does not decode to an issued store"
        );
        self.store_labels[sm][nth - 1]
    }
}

/// Extracts the race-oracle view of an L2→L1 (or home→device) response:
/// the logical lease interval it carries, or `None` for responses with
/// no timestamp content (physical-lease baselines, invalidations).
pub(crate) fn resp_meta(resp: L2ToL1) -> Option<RespMeta> {
    fn logical(lease: LeaseInfo) -> Option<(u64, u64)> {
        match lease {
            LeaseInfo::Logical { wts, rts } => Some((wts.0, rts.0)),
            LeaseInfo::Physical { .. } | LeaseInfo::None => None,
        }
    }
    match resp {
        L2ToL1::Fill(f) => logical(f.lease).map(|(wts, rts)| RespMeta::Fill {
            block: f.block,
            version: f.version.0,
            wts,
            rts,
            epoch: f.epoch,
        }),
        L2ToL1::Renew {
            block,
            lease,
            epoch,
            ..
        } => logical(lease).map(|(wts, rts)| RespMeta::Renew {
            block,
            wts,
            rts,
            epoch,
        }),
        L2ToL1::WriteAck(a) | L2ToL1::AtomicAck { ack: a, .. } => {
            logical(a.lease).map(|(wts, rts)| RespMeta::WriteAck {
                block: a.block,
                version: a.version.0,
                wts,
                rts,
                epoch: a.epoch,
            })
        }
        L2ToL1::Invalidate { .. } => None,
    }
}

impl Schedulable for MicroGtsc {
    /// Load observations, sanitizer findings, and race-oracle
    /// findings — the two checkers' verdicts are part of the outcome so
    /// a breach on any schedule surfaces in the explored set.
    type Outcome = (BTreeMap<u32, u32>, Vec<Finding>, Vec<Finding>);

    fn fanout(&self) -> usize {
        self.enabled().len()
    }

    fn choose(&mut self, idx: usize) {
        let t = self.enabled()[idx];
        self.serve(t);
    }

    fn outcome(&self) -> Self::Outcome {
        // A finished run must have retired every op.
        for (t, p) in self.programs.iter().enumerate() {
            assert!(
                self.pc[t] == p.len() && !self.outstanding[t],
                "run ended with thread {t} blocked at pc {}",
                self.pc[t]
            );
        }
        (
            self.observed.clone(),
            self.sanitizer.report().findings,
            self.wire.oracle.report().findings,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_all;
    use crate::litmus::on_die;

    fn ld(id: u32, block: u64) -> Op {
        Op::Load { id, block }
    }
    fn st(block: u64, label: u32) -> Op {
        Op::Store { block, label }
    }

    /// Runs `threads` with choice 0 at every step.
    fn run_first_schedule(
        threads: &[(u16, Vec<Op>)],
        cfg: HarnessCfg,
    ) -> <MicroGtsc as Schedulable>::Outcome {
        let mut m = MicroGtsc::new(threads, cfg);
        while m.fanout() > 0 {
            m.choose(0);
        }
        m.outcome()
    }

    #[test]
    fn single_thread_runs_to_completion_and_reads_back() {
        let threads = on_die([vec![st(0, 3), ld(1, 0), ld(2, 0)]]);
        let (obs, violations, races) = run_first_schedule(&threads, HarnessCfg::default());
        assert_eq!(obs.get(&1), Some(&3));
        assert_eq!(obs.get(&2), Some(&3));
        assert!(violations.is_empty(), "{violations:?}");
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn cross_device_store_then_load_completes() {
        let threads = vec![(0u16, vec![st(0, 3)]), (1u16, vec![ld(1, 0)])];
        let (obs, violations, races) = run_first_schedule(&threads, HarnessCfg::fabric());
        assert_eq!(obs.get(&1), Some(&3), "serve order store-first reads 3");
        assert!(violations.is_empty(), "{violations:?}");
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn serve_order_nondeterminism_is_exposed_on_both_memory_sides() {
        // T0 stores, T1 loads: depending on which the bank (on die) or
        // the home (T1 on a second device) serializes first, the load
        // sees 0 or 9 — exactly two outcomes, all clean.
        for (reader_device, cfg) in [(0, HarnessCfg::default()), (1, HarnessCfg::fabric())] {
            let threads = vec![(0u16, vec![st(0, 9)]), (reader_device, vec![ld(1, 0)])];
            let r = explore_all(|| MicroGtsc::new(&threads, cfg), 1_000);
            assert!(!r.truncated);
            assert_eq!(r.schedules, 2, "one store serve × one load serve");
            let labels: Vec<u32> = r.outcomes.iter().map(|(o, _, _)| o[&1]).collect();
            assert_eq!(labels, vec![0, 9]);
            assert!(r.outcomes.iter().all(|(_, v, _)| v.is_empty()));
            assert!(r.outcomes.iter().all(|(_, _, races)| races.is_empty()));
        }
    }

    #[test]
    fn same_device_threads_share_the_device_l2() {
        // Both threads on device 0: the second read is served from the
        // device's held grant on some schedules; all stay clean.
        let threads = vec![(0u16, vec![st(0, 5)]), (0u16, vec![ld(1, 0), ld(2, 0)])];
        let r = explore_all(|| MicroGtsc::new(&threads, HarnessCfg::fabric()), 10_000);
        assert!(!r.truncated);
        for (o, violations, races) in &r.outcomes {
            assert!(violations.is_empty(), "{violations:?}");
            assert!(races.is_empty(), "{races:?}");
            assert!(
                !(o[&1] == 5 && o[&2] == 0),
                "coherence went backwards: {o:?}"
            );
        }
    }

    #[test]
    fn tiny_ts_bits_force_rollover_and_stay_clean() {
        // On die, lease 10 pushes rts past 2^4 = 16 on the first store,
        // forcing the Section V-D reset mid-run on every schedule; over
        // the fabric the home's 6-bit space rolls over globally.
        let on_die_cfg = HarnessCfg {
            lease: 10,
            ts_bits: 4,
            ..HarnessCfg::default()
        };
        let fabric_cfg = HarnessCfg {
            lease: 10,
            ts_bits: 6,
            topology: Topology::Fabric { grant_lease: 16 },
            ..HarnessCfg::default()
        };
        for (reader_device, cfg) in [(0, on_die_cfg), (1, fabric_cfg)] {
            let threads = vec![
                (0u16, vec![st(0, 1), st(1, 2)]),
                (reader_device, vec![ld(10, 1), ld(11, 0)]),
            ];
            let r = explore_all(|| MicroGtsc::new(&threads, cfg), 100_000);
            assert!(!r.truncated);
            for (o, violations, races) in &r.outcomes {
                assert!(violations.is_empty(), "{violations:?}");
                assert!(races.is_empty(), "{races:?}");
                assert!(
                    !(o[&10] == 2 && o[&11] == 0),
                    "rollover leaked the forbidden MP outcome: {o:?}"
                );
            }
        }
    }

    #[test]
    fn unit_crash_mid_run_recovers_and_stays_clean() {
        // T0 stores then re-reads its own block; T1 reads it cold. The
        // crash of T0's unit (the bank; device 0) lands before the second
        // serve on every schedule; the rebuilt unit must still serve
        // T0's committed store from DRAM or the home.
        for (reader_device, base) in [(0, HarnessCfg::default()), (1, HarnessCfg::fabric())] {
            let threads = vec![
                (0u16, vec![st(0, 3), ld(1, 0)]),
                (reader_device, vec![ld(2, 0)]),
            ];
            let cfg = HarnessCfg {
                crash_after_serves: Some((2, 0)),
                ..base
            };
            let r = explore_all(|| MicroGtsc::new(&threads, cfg), 10_000);
            assert!(!r.truncated);
            assert!(r.schedules >= 2);
            for (o, violations, races) in &r.outcomes {
                assert!(violations.is_empty(), "{violations:?}");
                assert!(races.is_empty(), "{races:?}");
                assert_eq!(o[&1], 3, "own store must survive the crash: {o:?}");
                assert!(o[&2] == 0 || o[&2] == 3, "{o:?}");
            }
        }
    }

    #[test]
    fn duplicate_serves_are_idempotent() {
        // Every request (reads, stores) reaches the L2 twice, so every
        // response comes back doubled: the replay filter and the L1s'
        // waiter bookkeeping must absorb the copies.
        let threads = on_die([vec![st(0, 3), ld(1, 0)], vec![ld(2, 0), st(0, 4)]]);
        let cfg = HarnessCfg {
            topology: Topology::OnDie {
                duplicate_serves: true,
            },
            ..HarnessCfg::default()
        };
        let r = explore_all(|| MicroGtsc::new(&threads, cfg), 10_000);
        assert!(!r.truncated);
        for (o, violations, races) in &r.outcomes {
            assert!(violations.is_empty(), "{violations:?}");
            assert!(races.is_empty(), "{races:?}");
            // T0 reads its own store back — or T1's later one — but can
            // never slide back to the initial value.
            assert!(o[&1] == 3 || o[&1] == 4, "{o:?}");
        }
    }

    #[test]
    #[should_panic(expected = "on die every thread runs on device 0")]
    fn on_die_rejects_a_thread_on_a_second_device() {
        let threads = vec![(0u16, vec![st(0, 1)]), (1u16, vec![ld(1, 0)])];
        let _ = MicroGtsc::new(&threads, HarnessCfg::default());
    }

    #[test]
    #[should_panic(expected = "crash of unit 2")]
    fn crash_of_a_missing_unit_is_rejected() {
        let threads = vec![(0u16, vec![st(0, 1)]), (1u16, vec![ld(1, 0)])];
        let cfg = HarnessCfg {
            crash_after_serves: Some((1, 2)),
            ..HarnessCfg::fabric()
        };
        let _ = MicroGtsc::new(&threads, cfg);
    }
}
