//! The multi-GPU machine: the engine's N-device topology, whose memory
//! side is an inter-GPU fabric to a home-node directory (DESIGN.md §17).
//!
//! Each device is the same on-die hierarchy the single-GPU machine
//! steps — SMs with G-TSC L1s, two crossbars, banked L2 — except that
//! its banks are [`DeviceL2`]s, which own no timestamps of their own:
//! they serve local L1s out of inter-GPU grants delegated by the
//! [`HomeNode`], and every L1 lease they hand out is `nest_rts`-clamped
//! inside a live grant. The fabric reuses [`ReliableNet`] as the link
//! layer, configured lossier and longer-latency than the on-die NoC
//! (`FabricConfig`), with scheduled link-down windows (partitions) and
//! whole-device crash/rejoin events on top.
//!
//! Robustness composes the existing machinery rather than adding new
//! protocol states: a device crash folds into the Section V-D global
//! epoch bump exactly like an on-die bank crash (with same-cycle fabric
//! flow teardown so pre-crash sequence state never collides with the
//! rejoined device); partitions are ridden out by transport
//! retransmit/backoff plus the L1s' end-to-end retry; and the home's
//! store-replay filter re-acks duplicates with the original
//! acknowledgement so retried stores stay idempotent.

use gtsc_fabric::{DeviceL2, DeviceParams, HomeNode, HomeParams};
use gtsc_faults::{BankFaults, FaultPlan, FaultStats};
use gtsc_noc::ReliableNet;
use gtsc_protocol::msg::{Epoch, L1ToL2, L2ToL1, MsgSizes};
use gtsc_protocol::L2Controller;
use gtsc_trace::{Probe, Sanitizer, Scope, SpanTracker, TraceEvent};
use gtsc_types::snap::{Snap, SnapshotBuilder, SnapshotError, SnapshotFile};
use gtsc_types::{BlockAddr, Cycle, GpuConfig, MultiGpuConfig, ProtocolKind, SimStats, Version};

use crate::build::build_l1;
use crate::engine::{fingerprint_of, get, Device, MemorySide, Sim, TraceView, Wake};
use crate::report::{DeviceStall, SimError, StallDiagnosis};

/// The assembled multi-GPU system: the N-device instantiation of the
/// [`Sim`] engine, whose device L2s miss into a fabric to the home node.
pub type MultiGpuSim = Sim<FabricToHome>;

/// Memory side of the multi-GPU machine: the inter-GPU fabric and the
/// home directory behind it. Its crash domain is the whole device.
pub struct FabricToHome {
    cfg: MultiGpuConfig,
    home: HomeNode,
    /// Fabric, device → home. Payloads are `(device, request)`; the
    /// single destination is the home node.
    up_net: ReliableNet<(usize, L1ToL2)>,
    /// Fabric, home → device.
    down_net: ReliableNet<L2ToL1>,
    /// Fabric message sizes (inter-GPU links).
    sizes: MsgSizes,
    /// The fabric's part of the active set: `UP`, `HOME`, `DOWN`.
    wake: Wake,
}

/// Indices into [`FabricToHome::wake`].
const UP: usize = 0;
const HOME: usize = 1;
const DOWN: usize = 2;

impl FabricToHome {
    /// Arms the fabric plan (loss, partitions, device crashes) from
    /// `cfg.fabric.faults`; `cfg.gpu.ts_bits` is the effective width.
    fn new(cfg: MultiGpuConfig, sanitizer: &Sanitizer) -> (Self, Vec<Option<BankFaults>>) {
        let n_devices = cfg.n_devices;
        let fabric = cfg.fabric;
        let mut home = HomeNode::new(HomeParams {
            lease: fabric.grant_lease,
            ts_bits: cfg.gpu.ts_bits,
            latency: fabric.home_latency,
        });
        let mut up_net = ReliableNet::new(n_devices, 1, fabric.noc, fabric.transport);
        let mut down_net = ReliableNet::new(1, n_devices, fabric.noc, fabric.transport);
        let plan = FaultPlan::new(fabric.faults);
        up_net.set_faults(plan.fabric(0), plan.fabric(2));
        down_net.set_faults(plan.fabric(1), plan.fabric(3));
        if fabric.partitions_active() {
            // A partition takes the whole cable down: the same window
            // schedule severs the device's up and down links together.
            for d in 0..n_devices {
                let lf = plan.link_down(
                    d as u64,
                    fabric.partition_count,
                    fabric.partition_window,
                    fabric.partition_len,
                );
                up_net.set_link_faults(d, 0, lf.clone());
                down_net.set_link_faults(0, d, lf);
            }
        }
        if fabric.lossy_active() {
            up_net.enable(fabric.faults.seed ^ 0x4641_5550);
            down_net.enable(fabric.faults.seed ^ 0x4641_444E);
        }
        let device_faults = (0..n_devices)
            .map(|d| {
                plan.device_crashes(
                    d as u64,
                    n_devices as u64,
                    fabric.device_crash_count,
                    fabric.device_crash_window,
                )
            })
            .collect();
        // The fabric feeds no span: its probes record and (the home's)
        // check.
        let trace = &cfg.gpu.trace;
        home.set_probe(Probe::new(
            Scope::Home(0),
            trace,
            sanitizer,
            &SpanTracker::disabled(),
        ));
        let fabric_scope = 2 * n_devices as u16;
        let up = Probe::recording(Scope::Noc(fabric_scope), trace);
        up_net.set_probe(up, |p: &(usize, L1ToL2)| p.1.span());
        down_net.set_probe(
            Probe::recording(Scope::Noc(fabric_scope + 1), trace),
            L2ToL1::span,
        );
        let sizes = MsgSizes::new(
            fabric.noc.control_bytes,
            cfg.gpu.ts_bits,
            cfg.gpu.l1.block_size(),
        );
        let fabric = FabricToHome {
            wake: Wake::new(3),
            cfg,
            home,
            up_net,
            down_net,
            sizes,
        };
        (fabric, device_faults)
    }

    /// Device-scoped stall attribution of `devices` at `now`.
    fn device_stalls(&self, devices: &[Device<DeviceL2>], now: Cycle) -> Vec<DeviceStall> {
        let up_flows = self.up_net.flow_diagnostics(now);
        let down_flows = self.down_net.flow_diagnostics(now);
        devices
            .iter()
            .enumerate()
            .map(|(d, dev)| {
                let (mut expired, mut cold, mut stores) = (0, 0, 0);
                let mut grants = Vec::new();
                for bank in &dev.l2 {
                    let (e, c, s) = bank.stall_attribution();
                    expired += e;
                    cold += c;
                    stores += s;
                    grants.extend(bank.expired_grant_blocks());
                }
                grants.sort_unstable();
                let fabric_flows = up_flows
                    .iter()
                    .filter(|f| f.src == d)
                    .chain(down_flows.iter().filter(|f| f.dst == d))
                    .cloned()
                    .collect();
                DeviceStall {
                    device: d,
                    expired_grant_waits: expired,
                    cold_grant_waits: cold,
                    stores_awaiting_home: stores,
                    expired_grants: grants,
                    fabric_flows,
                }
            })
            .collect()
    }
}

impl MemorySide for FabricToHome {
    type Bank = DeviceL2;

    fn bank_scope(d: usize, _b: usize) -> Scope {
        Scope::Device(d as u16)
    }

    fn serve(&mut self, d: usize, dev: &mut Device<DeviceL2>, now: Cycle) -> bool {
        let mut reset = false;
        for (b, bank) in dev.l2.iter_mut().enumerate() {
            if !dev.bank_wake.due(b, now) {
                continue;
            }
            bank.tick(now);
            while let Some(req) = bank.take_fabric_request() {
                let bytes = self.sizes.request_bytes(&req);
                self.up_net.send(d, 0, bytes, (d, req), now);
                self.wake.touch(UP);
            }
            dev.bank_wake.visited(b, bank.next_event_at());
            reset |= bank.needs_reset();
        }
        reset
    }

    /// Fabric deliveries → home directory → fabric → device banks, each
    /// stage only if it is due.
    fn exchange(&mut self, devices: &mut [Device<DeviceL2>], now: Cycle) {
        if self.wake.due(UP, now) {
            for (_, (d, msg)) in self.up_net.tick(now) {
                self.home.on_request(d, msg, now);
                self.wake.touch(HOME);
            }
            self.wake.visited(UP, self.up_net.next_event_at());
        }
        if self.wake.due(HOME, now) {
            self.home.tick(now);
            while let Some((d, resp)) = self.home.take_response() {
                let bytes = self.sizes.response_bytes(&resp);
                self.down_net.send(0, d, bytes, resp, now);
                self.wake.touch(DOWN);
            }
            self.wake.visited(HOME, self.home.next_event_at());
        }
        if self.wake.due(DOWN, now) {
            for (d, msg) in self.down_net.tick(now) {
                let dev = &mut devices[d];
                let bank = msg.block().bank(dev.l2.len());
                dev.l2[bank].on_fabric_response(msg, now);
                dev.bank_wake.touch(bank);
            }
            self.wake.visited(DOWN, self.down_net.next_event_at());
        }
    }

    /// A whole-device crash: every bank's grants and in-flight
    /// transactions vanish, and all transport flows touching the device
    /// — fabric *and* on-die — are generation-reset in the same cycle,
    /// so pre-crash sequence state can never collide with the rejoined
    /// device. The crash sets `needs_reset` on every bank, folding
    /// recovery into the Section V-D global epoch bump.
    fn crash(&mut self, d: usize, devices: &mut [Device<DeviceL2>], now: Cycle) -> bool {
        for b in 0..devices[d].l2.len() {
            devices[d].crash_bank(b, now);
        }
        self.up_net.reset_flows_from_src(d, now);
        self.down_net.reset_flows_to_dst(d, now);
        self.wake.touch(UP);
        self.wake.touch(DOWN);
        true
    }

    fn needs_reset(&self) -> bool {
        self.home.needs_reset()
    }

    fn apply_reset(&mut self, epoch: Epoch, now: Cycle) {
        self.home.apply_reset(epoch, now);
        self.wake.touch(HOME);
    }

    fn is_idle(&self) -> bool {
        self.home.is_idle() && self.up_net.is_idle() && self.down_net.is_idle()
    }

    fn wake(&self) -> &Wake {
        &self.wake
    }

    fn wake_mut(&mut self) -> &mut Wake {
        &mut self.wake
    }

    fn progress_mark(&self) -> u64 {
        self.up_net.progress_mark() + self.down_net.progress_mark()
    }

    /// The home directory reports in the L2 column too — it is the
    /// system's outermost shared cache level.
    fn add_stats(&self, stats: &mut SimStats) {
        let home = self.home.stats();
        stats.l2.merge(&home);
        stats.per_l2.push(home);
        stats.noc.merge(&self.up_net.stats());
        stats.noc.merge(&self.down_net.stats());
        stats.transport.merge(&self.up_net.transport_stats());
        stats.transport.merge(&self.down_net.transport_stats());
    }

    fn trace(&self, view: TraceView, out: &mut Vec<Vec<TraceEvent>>) {
        out.push(view.of(self.home.probe()));
        out.push(view.of_net(&self.up_net));
        out.push(view.of_net(&self.down_net));
    }

    fn fault_stats(&self) -> Vec<FaultStats> {
        [self.up_net.fault_stats(), self.down_net.fault_stats()]
            .into_iter()
            .flatten()
            .collect()
    }

    fn memory_image(&self) -> Vec<(BlockAddr, Version)> {
        self.home.memory_image()
    }

    /// Folds the fabric into the request/response columns and reports
    /// the fabric flows — where a multi-GPU stall is decided — in place
    /// of the on-die ones.
    fn diagnose(&self, devices: &[Device<DeviceL2>], now: Cycle, diag: &mut StallDiagnosis) {
        diag.req_net_in_flight += self.up_net.in_flight();
        diag.req_net_queued += self.up_net.queued();
        diag.resp_net_in_flight += self.down_net.in_flight();
        diag.resp_net_queued += self.down_net.queued();
        diag.transport_unacked += self.up_net.unacked() + self.down_net.unacked();
        diag.req_transport_flows = self.up_net.flow_diagnostics(now);
        diag.resp_transport_flows = self.down_net.flow_diagnostics(now);
        diag.retransmits +=
            self.up_net.transport_stats().retransmits + self.down_net.transport_stats().retransmits;
        diag.ts_rollovers = self.home.stats().ts_rollovers;
        diag.devices = self.device_stalls(devices, now);
    }

    fn config_fingerprint(&self, _gpu: &GpuConfig) -> u64 {
        fingerprint_of(&self.cfg, &self.cfg.label())
    }

    fn save(&self, b: &mut SnapshotBuilder, settled: Cycle) {
        b.section("fabric", |w| {
            self.up_net.save_state(w);
            self.down_net.save_state(w);
        });
        b.section("home", |w| {
            self.home.save_state(w);
            settled.save(w);
        });
    }

    fn restore(
        &mut self,
        file: &SnapshotFile<'_>,
        settled: &mut Cycle,
    ) -> Result<(), SnapshotError> {
        get(file, "fabric", |r| {
            self.up_net.load_state(r)?;
            self.down_net.load_state(r)
        })?;
        get(file, "home", |r| {
            self.home.load_state(r)?;
            *settled = Snap::load(r)?;
            Ok(())
        })
    }
}

impl MultiGpuSim {
    /// Assembles the system per `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is degenerate; use [`MultiGpuSim::try_build`] for
    /// a structured error.
    #[must_use]
    #[expect(clippy::panic, reason = "the documented infallible shorthand")]
    pub fn new(cfg: MultiGpuConfig) -> Self {
        Self::try_build(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assembles the system, validating the configuration and arming the
    /// fault plans: per-device on-die plans draw from device-decorrelated
    /// seeds, the fabric plan (loss, partitions, device crashes) from
    /// `cfg.fabric.faults`. Whenever the fabric can lose traffic
    /// (`FabricConfig::lossy_active`) the fabric transport and every
    /// L1's end-to-end retry are armed. CTA `c` runs on device
    /// `c % n_devices`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config is degenerate
    /// or selects a non-G-TSC protocol (the fabric speaks timestamps).
    pub fn try_build(cfg: MultiGpuConfig) -> Result<Self, SimError> {
        let mut cfg = cfg;
        if cfg.n_devices == 0 || cfg.gpu.n_sms == 0 || cfg.gpu.l2_banks == 0 {
            return Err(SimError::InvalidConfig(format!(
                "multi-GPU config must have devices, SMs, and banks \
                 (n_devices={}, n_sms={}, l2_banks={})",
                cfg.n_devices, cfg.gpu.n_sms, cfg.gpu.l2_banks
            )));
        }
        if cfg.gpu.protocol != ProtocolKind::Gtsc {
            return Err(SimError::InvalidConfig(format!(
                "the inter-GPU fabric delegates timestamp grants and only \
                 speaks G-TSC (got {:?})",
                cfg.gpu.protocol
            )));
        }
        cfg.gpu.ts_bits = FaultPlan::new(cfg.gpu.faults).effective_ts_bits(cfg.gpu.ts_bits);
        // A Section V-D reset rebases every home grant to `[INIT,
        // grant_lease]`; if that already consumes most of the timestamp
        // budget, the next extension overflows again and the system
        // livelocks in perpetual resets. Demand at least 2× headroom.
        if cfg.gpu.ts_bits < 64
            && cfg.fabric.grant_lease.0.saturating_mul(2) >= 1u64 << cfg.gpu.ts_bits
        {
            return Err(SimError::InvalidConfig(format!(
                "inter-GPU grant lease {} cannot roll over inside {} timestamp bits \
                 (a reset rebases grants to the full lease; shrink the lease or widen ts_bits)",
                cfg.fabric.grant_lease.0, cfg.gpu.ts_bits
            )));
        }
        let l1_retry = cfg.gpu.faults.lossy_active() || cfg.fabric.lossy_active();
        Ok(Sim::assemble(
            cfg.gpu.clone(),
            cfg.n_devices,
            l1_retry,
            &|gpu, sm| build_l1(gpu, sm),
            &|gpu| {
                Box::new(DeviceL2::new(DeviceParams {
                    lease: gpu.lease,
                    latency: gpu.l2_latency,
                    ports: 2,
                }))
            },
            |sanitizer| FabricToHome::new(cfg, sanitizer),
        ))
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &MultiGpuConfig {
        &self.mem.cfg
    }

    /// Devices crash-recovered so far.
    #[must_use]
    pub fn device_recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Device-scoped stall attribution, always available (not only when
    /// the watchdog fires) — `stress_faults` mines it on failures.
    #[must_use]
    pub fn device_stalls(&self) -> Vec<DeviceStall> {
        self.mem.device_stalls(&self.devices, self.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelProgress;
    use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
    use gtsc_types::{Addr, FabricConfig};

    fn sharing_kernel(n_ctas: usize) -> VecKernel {
        // Every CTA stores to its own line then reads lines owned by
        // other CTAs — true cross-device sharing through the fabric.
        let ctas = (0..n_ctas)
            .map(|c| {
                let own = Addr((c as u64) * 128);
                let other = Addr(((c as u64 + 1) % n_ctas as u64) * 128);
                vec![WarpProgram(vec![
                    WarpOp::store_coalesced(own, 32),
                    WarpOp::Fence,
                    WarpOp::load_coalesced(other, 32),
                    WarpOp::load_coalesced(own, 32),
                ])]
            })
            .collect();
        VecKernel::new("xshare", 1, ctas)
    }

    fn small(n: usize) -> MultiGpuConfig {
        let mut cfg = MultiGpuConfig::test_small(n);
        cfg.gpu.sanitize = true;
        cfg
    }

    #[test]
    fn cross_device_sharing_completes_coherently() {
        let mut sim = MultiGpuSim::new(small(2));
        let report = sim.run_kernel(&sharing_kernel(4)).expect("completes");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.stats.cycles.0 > 0);
        // Both devices did work and the home served fabric traffic.
        assert!(report.stats.l2.accesses > 0);
        assert!(sim.sanitizer().checked() > 0);
    }

    #[test]
    fn memory_image_is_deterministic_across_runs_and_topologies() {
        // Two identical 2-device runs agree exactly; a 1-device run
        // covers the same blocks (versions encode the minting SM, which
        // legitimately differs between topologies).
        let mut a = MultiGpuSim::new(small(2));
        a.run_kernel(&sharing_kernel(4)).expect("completes");
        let mut b = MultiGpuSim::new(small(2));
        b.run_kernel(&sharing_kernel(4)).expect("completes");
        assert_eq!(a.memory_image(), b.memory_image());
        let mut one = MultiGpuSim::new(small(1));
        one.run_kernel(&sharing_kernel(4)).expect("completes");
        assert_eq!(
            one.memory_image().keys().collect::<Vec<_>>(),
            a.memory_image().keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn fabric_loss_is_transparent_to_results() {
        let mut clean = MultiGpuSim::new(small(2));
        let r = clean.run_kernel(&sharing_kernel(6)).expect("completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let mut cfg = small(2);
        cfg.fabric = FabricConfig::default().lossy(7, 100);
        let mut lossy = MultiGpuSim::new(cfg);
        let r = lossy.run_kernel(&sharing_kernel(6)).expect("completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(clean.memory_image(), lossy.memory_image());
        assert!(
            lossy.fault_stats().is_some_and(|s| s.dropped > 0),
            "faults must actually have fired"
        );
    }

    #[test]
    fn device_crash_recovers_behind_epoch_bump() {
        let mut clean = MultiGpuSim::new(small(2));
        clean.run_kernel(&sharing_kernel(6)).expect("completes");
        let mut cfg = small(2);
        cfg.fabric = FabricConfig::default().with_device_crashes(2, 2_000);
        let mut crashy = MultiGpuSim::new(cfg);
        let r = crashy.run_kernel(&sharing_kernel(6)).expect("completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(crashy.device_recoveries() > 0, "a crash must have fired");
        assert!(crashy.epoch() > 0, "crash recovery bumps the global epoch");
        assert_eq!(clean.memory_image(), crashy.memory_image());
    }

    #[test]
    fn partition_windows_are_survived() {
        let mut clean = MultiGpuSim::new(small(2));
        clean.run_kernel(&sharing_kernel(4)).expect("completes");
        let mut cfg = small(2);
        cfg.fabric = FabricConfig::default().with_partitions(2, 3_000, 1_500);
        let mut part = MultiGpuSim::new(cfg);
        let r = part.run_kernel(&sharing_kernel(4)).expect("completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(clean.memory_image(), part.memory_image());
    }

    #[test]
    fn snapshot_mid_kernel_resumes_identically() {
        let kernel = sharing_kernel(4);
        let cfg = small(2);
        let mut a = MultiGpuSim::new(cfg.clone());
        let mut pa = KernelProgress::new(&kernel);
        // Run a slice, checkpoint, keep running A to the end.
        assert!(a
            .advance_kernel(&kernel, &mut pa, 300)
            .expect("slice ok")
            .is_none());
        let snap = a.save_snapshot(Some(&pa)).expect("snapshot");
        let ra = a
            .advance_kernel(&kernel, &mut pa, 0)
            .expect("finishes")
            .expect("report");
        // Restore into a fresh machine and finish from the checkpoint.
        let mut b = MultiGpuSim::new(cfg);
        let mut pb = b
            .restore_snapshot(&snap)
            .expect("restore")
            .expect("mid-kernel progress");
        let rb = b
            .advance_kernel(&kernel, &mut pb, 0)
            .expect("finishes")
            .expect("report");
        assert_eq!(ra.stats.cycles, rb.stats.cycles);
        assert_eq!(a.memory_image(), b.memory_image());
        assert_eq!(
            ra.stats.l1.accesses, rb.stats.l1.accesses,
            "restored run must be cycle-identical"
        );
    }

    #[test]
    fn non_gtsc_protocol_is_rejected() {
        let mut cfg = small(2);
        cfg.gpu.protocol = gtsc_types::ProtocolKind::Tc;
        assert!(matches!(
            MultiGpuSim::try_build(cfg),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rollover_starved_grant_lease_is_rejected() {
        // A grant lease consuming the whole timestamp budget livelocks
        // in perpetual Section V-D resets; the build must refuse it.
        let mut cfg = small(2);
        cfg.gpu.ts_bits = 6;
        assert_eq!(
            cfg.fabric.grant_lease.0, 64,
            "default lease moved — retune this test"
        );
        assert!(matches!(
            MultiGpuSim::try_build(cfg.clone()),
            Err(SimError::InvalidConfig(_))
        ));
        cfg.fabric.grant_lease = gtsc_types::Lease(16);
        assert!(MultiGpuSim::try_build(cfg).is_ok());
    }

    /// The headline robustness soak: 100 seeded storms mixing fabric
    /// packet loss, link partitions, and whole-device crash/rejoin, each
    /// ending byte-identical to the fault-free run of the same kernel.
    /// Faults may cost cycles but can never change what memory says.
    #[test]
    fn hundred_seed_fault_soak_is_byte_identical_to_fault_free() {
        let kernel = sharing_kernel(4);
        let mut clean = MultiGpuSim::new(small(2));
        let r = clean.run_kernel(&kernel).expect("fault-free run completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let truth = clean.memory_image();
        for seed in 0u64..100 {
            let mut cfg = small(2);
            cfg.fabric = match seed % 4 {
                0 => FabricConfig::default().lossy(seed, 80),
                1 => FabricConfig::default().with_partitions(2, 3_000, 1_500),
                2 => FabricConfig::default()
                    .lossy(seed, 60)
                    .with_device_crashes(2, 2_000),
                _ => FabricConfig::default()
                    .lossy(seed, 40)
                    .with_partitions(1, 2_000, 800)
                    .with_device_crashes(1, 1_500),
            };
            // Partition/crash schedules are drawn from the fault seed
            // even when the loss layer is off.
            cfg.fabric.faults.seed = seed;
            let mut sim = MultiGpuSim::new(cfg);
            let r = sim
                .run_kernel(&kernel)
                .unwrap_or_else(|e| panic!("seed {seed}: did not complete: {e}"));
            assert!(r.violations.is_empty(), "seed {seed}: {:?}", r.violations);
            assert_eq!(
                truth,
                sim.memory_image(),
                "seed {seed}: faults changed the memory image"
            );
        }
    }

    #[test]
    fn snapshot_restore_under_fabric_loss_matches_uninterrupted() {
        // Satellite of DESIGN.md §14: a mid-kernel checkpoint taken
        // while the fabric is dropping packets (retransmit state, parked
        // grants, home directory all live) restores to a run
        // indistinguishable from the uninterrupted one.
        let kernel = sharing_kernel(4);
        let mut cfg = small(2);
        cfg.fabric = FabricConfig::default().lossy(11, 80);
        let mut a = MultiGpuSim::new(cfg.clone());
        let mut pa = KernelProgress::new(&kernel);
        assert!(a
            .advance_kernel(&kernel, &mut pa, 500)
            .expect("slice ok")
            .is_none());
        let snap = a.save_snapshot(Some(&pa)).expect("snapshot");
        let ra = a
            .advance_kernel(&kernel, &mut pa, 0)
            .expect("finishes")
            .expect("report");
        let mut b = MultiGpuSim::new(cfg);
        let mut pb = b
            .restore_snapshot(&snap)
            .expect("restore")
            .expect("mid-kernel progress");
        let rb = b
            .advance_kernel(&kernel, &mut pb, 0)
            .expect("finishes")
            .expect("report");
        assert_eq!(ra.stats.cycles, rb.stats.cycles);
        assert_eq!(a.memory_image(), b.memory_image());
        assert_eq!(
            ra.stats.transport.retransmits, rb.stats.transport.retransmits,
            "restored run must replay the same fabric recovery"
        );
    }
}
