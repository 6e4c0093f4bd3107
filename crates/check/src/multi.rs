//! A model-checking harness for the hierarchical multi-GPU protocol.
//!
//! [`MicroMultiGtsc`] extends the single-bank [`crate::MicroGtsc`]
//! reduction to the fabric topology: every thread (one single-warp SM
//! with a private `GtscL1`) is pinned to a **device**, each device owns
//! one [`gtsc_fabric::DeviceL2`], and all devices share one
//! [`gtsc_fabric::HomeNode`] directory. A serve pumps the full chain —
//! L1 → device → home → device → L1 — to completion with unit
//! latencies, so the one scheduler choice is still the order in which
//! outstanding requests are serialized, now by the *home* for
//! cross-device traffic and by the local device for covered reads.
//!
//! The soundness reduction carries over unchanged: with one outstanding
//! access per thread, the content of a thread's next request depends
//! only on its own architectural state, so enumerating serve orders
//! covers every outcome the timestamp rules admit. What is new is the
//! hierarchy: the device is simultaneously a lease *consumer* (it
//! installs inter-GPU grants from the home) and a lease *producer* (it
//! hands nested leases to L1s). The shared [`Sanitizer`] checks the
//! nesting online (`DeviceServe`), and the [`RaceOracle`] checks it
//! independently from the message stream (`lease-outside-grant`),
//! observing the device as both an installing SM-like actor and a
//! granting bank-like actor.
//!
//! Device crashes are first-class: [`MultiHarnessCfg`] can wipe one
//! device just before the Nth serve. The home is authoritative (stores
//! are written through end-to-end), so recovery is a global epoch bump
//! after which the device reacquires grants from scratch — the oracle's
//! `missing-epoch-bump` and cleared-grant rules police exactly that.

use std::collections::BTreeMap;

use gtsc_core::{GtscL1, L1Params, ProtocolMutation};
use gtsc_fabric::{DeviceL2, DeviceParams, HomeNode, HomeParams};
use gtsc_protocol::msg::{Epoch, L2ToL1};
use gtsc_protocol::{
    AccessId, AccessKind, Completion, L1Controller, L1Outcome, L2Controller, MemAccess,
};
use gtsc_trace::{Sanitizer, Scope};
use gtsc_types::{BlockAddr, Cycle, Lease, Version, WarpId};

use crate::explore::Schedulable;
use crate::harness::resp_meta;
use crate::litmus::Op;
use crate::races::{RaceEventKind, RaceOracle, RaceReport};

/// Iteration guard for one serve pump; generously above the device and
/// home latencies plus a grant-refetch round.
const PUMP_CAP: u32 = 10_000;

/// Configuration of a [`MicroMultiGtsc`] run.
#[derive(Debug, Clone, Copy)]
pub struct MultiHarnessCfg {
    /// Lease length the device hands to local L1s (nested inside the
    /// inter-GPU grant).
    pub lease: u64,
    /// Lease length of the inter-GPU grants the home hands to devices.
    pub grant_lease: u64,
    /// Hardware timestamp width at the home; small values force global
    /// rollover resets mid-litmus (Section V-D).
    pub ts_bits: u32,
    /// Crash device `.1` once, just before `.0` serves have been
    /// performed: its tags, grants, and queues are wiped (committed
    /// data survives at the home) and recovery runs the global epoch
    /// bump. `None` never crashes.
    pub crash_device_after_serves: Option<(u32, u16)>,
    /// Seeded protocol mutant to run the controllers with (test-only;
    /// used to validate that the checkers actually detect bugs).
    pub mutation: ProtocolMutation,
}

impl Default for MultiHarnessCfg {
    fn default() -> Self {
        MultiHarnessCfg {
            lease: Lease::default().0,
            grant_lease: 64,
            ts_bits: 16,
            crash_device_after_serves: None,
            mutation: ProtocolMutation::None,
        }
    }
}

/// The multi-GPU micro-simulator: one single-warp `GtscL1` per thread,
/// one `DeviceL2` per device, one shared `HomeNode`, and an explicit
/// serve order.
#[derive(Debug)]
pub struct MicroMultiGtsc {
    l1s: Vec<GtscL1>,
    /// Thread → owning device.
    device_of: Vec<u16>,
    devices: Vec<DeviceL2>,
    home: HomeNode,
    now: Cycle,
    epoch: Epoch,
    programs: Vec<Vec<Op>>,
    pc: Vec<usize>,
    /// Whether thread `t` has an access in flight.
    outstanding: Vec<bool>,
    /// Load id → observed store label.
    observed: BTreeMap<u32, u32>,
    /// Per thread: labels of its stores in issue order (see
    /// [`MicroMultiGtsc::decode_label`]).
    store_labels: Vec<Vec<u32>>,
    sanitizer: Sanitizer,
    serves: u32,
    crash_after: Option<(u32, u16)>,
    oracle: RaceOracle,
    next_msg: u64,
}

impl MicroMultiGtsc {
    /// Builds the machine from `(device, program)` pairs and eagerly
    /// issues each thread's first access.
    #[must_use]
    pub fn new(threads: &[(u16, Vec<Op>)], cfg: MultiHarnessCfg) -> Self {
        let n = threads.len();
        assert!(n > 0, "need at least one thread");
        let n_devices = usize::from(threads.iter().map(|(d, _)| *d).max().unwrap_or(0)) + 1;
        let sanitizer = Sanitizer::enabled(Scope::Sm(0));
        let l1s: Vec<GtscL1> = (0..n)
            .map(|t| {
                let mut l1 = GtscL1::new(L1Params {
                    n_warps: 1,
                    sm_index: t,
                    ..L1Params::default()
                });
                l1.set_sanitizer(sanitizer.for_scope(Scope::Sm(t as u16)));
                l1.set_mutation(cfg.mutation);
                l1
            })
            .collect();
        let devices: Vec<DeviceL2> = (0..n_devices)
            .map(|d| {
                let mut dev = DeviceL2::new(DeviceParams {
                    lease: Lease(cfg.lease),
                    latency: 1,
                    ports: 4,
                });
                dev.set_sanitizer(sanitizer.for_scope(Scope::Device(d as u16)));
                dev.set_mutation(cfg.mutation);
                dev
            })
            .collect();
        let mut home = HomeNode::new(HomeParams {
            lease: Lease(cfg.grant_lease),
            ts_bits: cfg.ts_bits,
            latency: 1,
        });
        home.set_sanitizer(sanitizer.for_scope(Scope::Home(0)));
        let mut m = MicroMultiGtsc {
            l1s,
            device_of: threads.iter().map(|(d, _)| *d).collect(),
            devices,
            home,
            now: Cycle(0),
            epoch: 0,
            programs: threads.iter().map(|(_, p)| p.clone()).collect(),
            pc: vec![0; n],
            outstanding: vec![false; n],
            observed: BTreeMap::new(),
            store_labels: vec![Vec::new(); n],
            sanitizer,
            serves: 0,
            crash_after: cfg.crash_device_after_serves,
            oracle: RaceOracle::new(),
            next_msg: 0,
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

    /// Sanitizer violations recorded so far across all components.
    #[must_use]
    pub fn sanitizer_violations(&self) -> Vec<String> {
        self.sanitizer.violations()
    }

    /// The race oracle's verdict over everything observed so far.
    #[must_use]
    pub fn race_report(&self) -> RaceReport {
        self.oracle.report()
    }

    /// Load observations recorded so far (load id → label).
    #[must_use]
    pub fn observations(&self) -> &BTreeMap<u32, u32> {
        &self.observed
    }

    fn fresh_msg(&mut self) -> u64 {
        let m = self.next_msg;
        self.next_msg += 1;
        m
    }

    /// Issues ops for every thread until it either has an access in
    /// flight or its program is exhausted (L1 hits and fences complete
    /// inline and are not scheduler choices).
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

    /// The simulator's global rollover protocol: a home overflow or a
    /// crashed device moves *every* component to the next epoch in the
    /// same step.
    fn maybe_reset(&mut self) {
        if self.home.needs_reset() || self.devices.iter().any(DeviceL2::needs_reset) {
            self.epoch += 1;
            self.home.apply_reset(self.epoch);
            for dev in &mut self.devices {
                dev.apply_reset(self.epoch);
            }
        }
    }

    /// Serves thread `t`'s pending request: hands it to the thread's
    /// device, then pumps device and home — forwarding fabric requests,
    /// delivering grants, and applying the global rollover protocol —
    /// until a response lands back at an L1. A stale-epoch retry leaves
    /// the thread outstanding with a fresh request, to be served by a
    /// later choice.
    fn serve(&mut self, t: usize) {
        assert!(self.outstanding[t], "serve of an idle thread");
        self.serves += 1;
        if let Some((after, dev)) = self.crash_after {
            if after == self.serves {
                // The device dies between serves: tags, grants, and
                // queues are wiped (committed data survives at the
                // home) and recovery runs the global epoch bump. The
                // L1s keep their (now orphaned) leases — logical time
                // only moves forward, so they stay safe until renewal.
                self.crash_after = None;
                self.now.0 += 1;
                self.devices[usize::from(dev)].crash(self.now);
                self.oracle
                    .observe(self.now, Scope::Device(dev), RaceEventKind::Crash);
                self.maybe_reset();
            }
        }
        let d = usize::from(self.device_of[t]);
        let req = self.l1s[t]
            .take_request()
            .expect("outstanding thread has a queued request");
        self.now.0 += 1;
        let sm = Scope::Sm(t as u16);
        let dev_scope = Scope::Device(self.device_of[t]);
        let msg = self.fresh_msg();
        self.oracle.observe(
            self.now,
            sm,
            RaceEventKind::Send {
                dst: dev_scope,
                msg,
            },
        );
        self.oracle
            .observe(self.now, dev_scope, RaceEventKind::Recv { src: sm, msg });
        self.devices[d].on_request(t, req, self.now);
        let mut pumped = 0u32;
        loop {
            pumped += 1;
            assert!(pumped < PUMP_CAP, "fabric pump diverged serving thread {t}");
            self.now.0 += 1;
            self.devices[d].tick(self.now);
            while let Some(up) = self.devices[d].take_fabric_request() {
                let msg = self.fresh_msg();
                self.oracle.observe(
                    self.now,
                    dev_scope,
                    RaceEventKind::Send {
                        dst: Scope::Home(0),
                        msg,
                    },
                );
                self.oracle.observe(
                    self.now,
                    Scope::Home(0),
                    RaceEventKind::Recv {
                        src: dev_scope,
                        msg,
                    },
                );
                self.home.on_request(d, up, self.now);
            }
            self.home.tick(self.now);
            self.maybe_reset();
            while let Some((dst, resp)) = self.home.take_response() {
                self.observe_home_response(dst, resp);
                self.devices[dst].on_fabric_response(resp, self.now);
            }
            let mut delivered = false;
            while let Some((dst, resp)) = self.devices[d].take_response() {
                delivered = true;
                self.observe_device_response(d, dst, resp);
                let done = self.l1s[dst].on_response(resp, self.now);
                for c in done {
                    self.record(dst, &c);
                }
            }
            if delivered {
                break;
            }
        }
        self.auto_issue();
    }

    /// Feeds one home→device grant to the oracle: a grant at the home
    /// (the authoritative bank) and an install at the consuming device.
    fn observe_home_response(&mut self, dst: usize, resp: L2ToL1) {
        let Some(meta) = resp_meta(resp) else { return };
        let home = Scope::Home(0);
        let dev = Scope::Device(u16::try_from(dst).expect("device index fits"));
        let msg = self.fresh_msg();
        self.oracle
            .observe(self.now, home, RaceEventKind::Grant(meta));
        self.oracle
            .observe(self.now, home, RaceEventKind::Send { dst: dev, msg });
        self.oracle
            .observe(self.now, dev, RaceEventKind::Recv { src: home, msg });
        self.oracle
            .observe(self.now, dev, RaceEventKind::Install(meta));
    }

    /// Feeds one device→L1 response to the oracle: a grant at the
    /// device (checked for nesting inside its installed inter-GPU
    /// grant) and an install at the consuming SM.
    fn observe_device_response(&mut self, d: usize, dst: usize, resp: L2ToL1) {
        let Some(meta) = resp_meta(resp) else { return };
        let dev = Scope::Device(u16::try_from(d).expect("device index fits"));
        let sm = Scope::Sm(u16::try_from(dst).expect("SM index fits"));
        let msg = self.fresh_msg();
        // A stale-epoch ack forwarded after a reset certifies the
        // commit at the L1 without installing anything; it is not a
        // device grant (the L1's epoch gate drops its lease too).
        if meta.epoch() >= self.devices[d].epoch() {
            self.oracle
                .observe(self.now, dev, RaceEventKind::Grant(meta));
        }
        self.oracle
            .observe(self.now, dev, RaceEventKind::Send { dst: sm, msg });
        self.oracle
            .observe(self.now, sm, RaceEventKind::Recv { src: dev, msg });
        self.oracle
            .observe(self.now, sm, RaceEventKind::Install(meta));
    }

    /// Records a completion: loads store their decoded label; any
    /// completion clears the thread's in-flight marker. The retired
    /// operation is fed to the race oracle with its serialization point.
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
            let sm = Scope::Sm(u16::try_from(t).expect("SM index fits"));
            self.oracle.observe(self.now, sm, kind);
        }
        if c.kind == AccessKind::Load {
            let label = self.decode_label(c.version);
            let id = u32::try_from(c.id.0).expect("load ids fit in u32");
            self.observed.insert(id, label);
        }
        self.outstanding[t] = false;
    }

    /// Maps an observed [`Version`] back to the litmus store label that
    /// minted it (same encoding as [`crate::MicroGtsc`]: thread `t`
    /// issues through SM `t` warp 0 in program order).
    fn decode_label(&self, v: Version) -> u32 {
        if v == Version::ZERO {
            return 0;
        }
        let sm = usize::try_from((v.0 >> 40) - 1).expect("version encodes a valid SM");
        let nth = usize::try_from(v.0 & ((1 << 28) - 1)).expect("store index fits");
        assert!(
            sm < self.store_labels.len() && nth >= 1 && nth <= self.store_labels[sm].len(),
            "observed version {v:?} does not decode to an issued store"
        );
        self.store_labels[sm][nth - 1]
    }
}

impl Schedulable for MicroMultiGtsc {
    /// Load observations, sanitizer violations, and race-oracle
    /// findings — the checkers' verdicts are part of the outcome so a
    /// breach on any schedule surfaces in the explored set.
    type Outcome = (BTreeMap<u32, u32>, Vec<String>, Vec<String>);

    fn fanout(&self) -> usize {
        self.enabled().len()
    }

    fn choose(&mut self, idx: usize) {
        let t = self.enabled()[idx];
        self.serve(t);
    }

    fn outcome(&self) -> Self::Outcome {
        for (t, p) in self.programs.iter().enumerate() {
            assert!(
                self.pc[t] == p.len() && !self.outstanding[t],
                "run ended with thread {t} blocked at pc {}",
                self.pc[t]
            );
        }
        (
            self.observed.clone(),
            self.sanitizer.violations(),
            self.oracle.report().lines(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_all;

    fn ld(id: u32, block: u64) -> Op {
        Op::Load { id, block }
    }
    fn st(block: u64, label: u32) -> Op {
        Op::Store { block, label }
    }

    #[test]
    fn cross_device_store_then_load_completes() {
        let threads = vec![(0u16, vec![st(0, 3)]), (1u16, vec![ld(1, 0)])];
        let mut m = MicroMultiGtsc::new(&threads, MultiHarnessCfg::default());
        while m.fanout() > 0 {
            m.choose(0);
        }
        let (obs, violations, races) = m.outcome();
        assert_eq!(obs.get(&1), Some(&3), "serve order store-first reads 3");
        assert!(violations.is_empty(), "{violations:?}");
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn two_devices_expose_home_serialization_nondeterminism() {
        let threads = vec![(0u16, vec![st(0, 9)]), (1u16, vec![ld(1, 0)])];
        let r = explore_all(
            || MicroMultiGtsc::new(&threads, MultiHarnessCfg::default()),
            1_000,
        );
        assert!(!r.truncated);
        assert_eq!(r.schedules, 2, "one store serve × one load serve");
        let labels: Vec<u32> = r.outcomes.iter().map(|(o, _, _)| o[&1]).collect();
        assert_eq!(labels, vec![0, 9]);
        assert!(r.outcomes.iter().all(|(_, v, _)| v.is_empty()));
        assert!(r.outcomes.iter().all(|(_, _, races)| races.is_empty()));
    }

    #[test]
    fn same_device_threads_share_the_device_l2() {
        // Both threads on device 0: the second read is served from the
        // device's held grant on some schedules; all stay clean.
        let threads = vec![(0u16, vec![st(0, 5)]), (0u16, vec![ld(1, 0), ld(2, 0)])];
        let r = explore_all(
            || MicroMultiGtsc::new(&threads, MultiHarnessCfg::default()),
            10_000,
        );
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
    fn device_crash_mid_run_recovers_and_stays_clean() {
        // T0 (device 0) stores then re-reads; T1 (device 1) reads cold.
        // Device 0 crashes before the second serve on every schedule;
        // the home's committed copy must survive.
        let threads = vec![(0u16, vec![st(0, 3), ld(1, 0)]), (1u16, vec![ld(2, 0)])];
        let cfg = MultiHarnessCfg {
            crash_device_after_serves: Some((2, 0)),
            ..MultiHarnessCfg::default()
        };
        let r = explore_all(|| MicroMultiGtsc::new(&threads, cfg), 10_000);
        assert!(!r.truncated);
        assert!(r.schedules >= 2);
        for (o, violations, races) in &r.outcomes {
            assert!(violations.is_empty(), "{violations:?}");
            assert!(races.is_empty(), "{races:?}");
            assert_eq!(o[&1], 3, "own store must survive the device crash: {o:?}");
            assert!(o[&2] == 0 || o[&2] == 3, "{o:?}");
        }
    }

    #[test]
    fn tiny_ts_bits_force_global_rollover_and_stay_clean() {
        let threads = vec![
            (0u16, vec![st(0, 1), st(1, 2)]),
            (1u16, vec![ld(10, 1), ld(11, 0)]),
        ];
        let cfg = MultiHarnessCfg {
            lease: 10,
            grant_lease: 16,
            ts_bits: 6,
            ..MultiHarnessCfg::default()
        };
        let r = explore_all(|| MicroMultiGtsc::new(&threads, cfg), 100_000);
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
