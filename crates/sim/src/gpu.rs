//! The single-GPU machine: the engine's one-device topology over local
//! DRAM — the paper's evaluation vehicle.
//!
//! `n_sms` SMs (each with its private-cache controller) reach `l2_banks`
//! shared-cache banks through two crossbar networks, and each bank owns
//! a DRAM partition. The cycle loop, reports, stall diagnosis and
//! snapshots are the shared [`Sim`] engine's; this module adds the DRAM
//! memory side and the [`SimBuilder`] that lets callers plug their own
//! cache controllers into the unchanged substrate.

use gtsc_faults::{BankFaults, FaultPlan, FaultStats};
use gtsc_mem::{Dram, DramRequest};
use gtsc_protocol::L2Controller;
use gtsc_trace::{Probe, Scope, TraceEvent};
use gtsc_types::snap::{Snap, SnapshotBuilder, SnapshotError, SnapshotFile};
use gtsc_types::{Cycle, GpuConfig, SimStats};

use crate::build::{build_l1, build_l2};
use crate::engine::{expect_count, fingerprint_of, get, Device, MemorySide, Sim, TraceView, Wake};
use crate::report::{SimError, StallDiagnosis};

/// The assembled GPU: the one-device instantiation of the [`Sim`]
/// engine, whose L2 banks miss into local DRAM partitions.
pub type GpuSim = Sim<LocalDram>;

/// Memory side of the paper's machine: one DRAM partition per L2 bank.
/// Its crash domain is the bank.
pub struct LocalDram {
    drams: Vec<Dram<()>>,
    /// The partitions' part of the active set. A due partition brings its
    /// bank up with it (the fills go there); a due bank only the partition
    /// it hands a request to.
    wake: Wake,
}

impl LocalDram {
    /// One DRAM fault stream per partition, and the per-bank crash
    /// schedules, all drawn from `cfg.faults`.
    fn new(cfg: &GpuConfig) -> (Self, Vec<Option<BankFaults>>) {
        let plan = FaultPlan::new(cfg.faults);
        let n = cfg.l2_banks;
        let mut drams: Vec<Dram<()>> = (0..n).map(|_| Dram::new(cfg.dram)).collect();
        for (i, d) in drams.iter_mut().enumerate() {
            d.set_faults(plan.dram(i as u64));
            d.set_probe(Probe::recording(Scope::Dram(i as u16), &cfg.trace));
        }
        let bank_faults = (0..n).map(|b| plan.bank(b as u64, n as u64)).collect();
        let wake = Wake::new(n);
        (LocalDram { drams, wake }, bank_faults)
    }
}

impl MemorySide for LocalDram {
    type Bank = dyn L2Controller;

    fn bank_scope(_d: usize, b: usize) -> Scope {
        Scope::L2Bank(b as u16)
    }

    fn serve(&mut self, _d: usize, dev: &mut Device<dyn L2Controller>, now: Cycle) -> bool {
        let mut reset = false;
        for (b, (bank, dram)) in dev.l2.iter_mut().zip(&mut self.drams).enumerate() {
            if !dev.bank_wake.due(b, now) && !self.wake.due(b, now) {
                continue;
            }
            bank.tick(now);
            while dram.can_accept() {
                let Some((block, is_write)) = bank.take_dram_request() else {
                    break;
                };
                let accepted = dram.enqueue(DramRequest {
                    block,
                    is_write,
                    payload: (),
                });
                debug_assert!(accepted, "can_accept checked");
                self.wake.touch(b);
            }
            // The partition is its own component: a bank that came up
            // for a request and handed nothing over leaves it asleep.
            if self.wake.due(b, now) {
                for resp in dram.tick(now) {
                    bank.on_dram_response(resp.block, resp.is_write, now);
                }
                // Only the tick above opens room in the partition: a bank
                // holding DRAM requests back is due next cycle exactly if
                // it did, and what it was told last still holds otherwise.
                bank.dram_ready(dram.can_accept());
                self.wake.visited(b, dram.next_event_at());
            }
            dev.bank_wake.visited(b, bank.next_event_at());
            reset |= bank.needs_reset();
        }
        reset
    }

    /// A bank crash: its tags, MSHRs, and queues vanish mid-cycle and
    /// coherence is rebuilt from DRAM behind the epoch bump (see
    /// [`Device::crash_bank`]).
    fn crash(&mut self, bank: usize, devices: &mut [Device<dyn L2Controller>], now: Cycle) -> bool {
        devices[0].crash_bank(bank, now)
    }

    fn is_idle(&self) -> bool {
        self.drams.iter().all(Dram::is_idle)
    }

    fn wake(&self) -> &Wake {
        &self.wake
    }

    fn wake_mut(&mut self) -> &mut Wake {
        &mut self.wake
    }

    fn add_stats(&self, stats: &mut SimStats) {
        for d in &self.drams {
            let s = d.stats();
            stats.dram.merge(&s);
            stats.per_dram.push(s);
        }
    }

    fn trace(&self, view: TraceView, out: &mut Vec<Vec<TraceEvent>>) {
        out.extend(self.drams.iter().map(|d| view.of(d.probe())));
    }

    fn fault_stats(&self) -> Vec<FaultStats> {
        self.drams.iter().filter_map(Dram::fault_stats).collect()
    }

    fn diagnose(
        &self,
        _devices: &[Device<dyn L2Controller>],
        _now: Cycle,
        diag: &mut StallDiagnosis,
    ) {
        diag.dram_queued = self.drams.iter().map(Dram::queued).sum();
        diag.dram_in_flight = self.drams.iter().map(Dram::in_flight).sum();
    }

    fn config_fingerprint(&self, gpu: &GpuConfig) -> u64 {
        fingerprint_of(gpu, &gpu.label())
    }

    fn save(&self, b: &mut SnapshotBuilder, settled: Cycle) {
        b.section("dram", |w| {
            w.usize(self.drams.len());
            for d in &self.drams {
                d.save_state(w);
                settled.save(w);
            }
        });
    }

    fn restore(
        &mut self,
        file: &SnapshotFile<'_>,
        settled: &mut Cycle,
    ) -> Result<(), SnapshotError> {
        get(file, "dram", |r| {
            expect_count(r, self.drams.len(), "DRAM partition count")?;
            for d in &mut self.drams {
                d.load_state(r)?;
                *settled = Snap::load(r)?;
            }
            Ok(())
        })
    }
}

/// Assembles a [`GpuSim`] with optionally overridden cache controllers —
/// the extension point for plugging a *new* coherence protocol into the
/// unchanged GPU/NoC/DRAM substrate (see `examples/custom_protocol.rs`).
///
/// # Examples
///
/// ```
/// use gtsc_sim::SimBuilder;
/// use gtsc_types::GpuConfig;
///
/// // Defaults reproduce GpuSim::new(cfg).
/// let sim = SimBuilder::new(GpuConfig::test_small()).build();
/// assert_eq!(sim.now().0, 0);
/// ```
pub struct SimBuilder {
    cfg: GpuConfig,
    l1_factory: L1Factory,
    l2_factory: L2Factory,
}

/// Factory producing one private-cache controller per SM.
type L1Factory = Box<dyn Fn(&GpuConfig, usize) -> Box<dyn gtsc_protocol::L1Controller>>;
/// Factory producing one shared-cache bank controller.
type L2Factory = Box<dyn Fn(&GpuConfig) -> Box<dyn L2Controller>>;

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("config", &self.cfg.label())
            .finish_non_exhaustive()
    }
}

impl SimBuilder {
    /// Starts from `cfg` with the protocol selected by `cfg.protocol`.
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        SimBuilder {
            cfg,
            l1_factory: Box::new(|cfg, i| build_l1(cfg, i)),
            l2_factory: Box::new(build_l2),
        }
    }

    /// Overrides the private-cache controller (called once per SM with
    /// the SM index).
    #[must_use]
    pub fn with_l1(
        mut self,
        factory: impl Fn(&GpuConfig, usize) -> Box<dyn gtsc_protocol::L1Controller> + 'static,
    ) -> Self {
        self.l1_factory = Box::new(factory);
        self
    }

    /// Overrides the shared-cache bank controller (called once per bank).
    #[must_use]
    pub fn with_l2(
        mut self,
        factory: impl Fn(&GpuConfig) -> Box<dyn L2Controller> + 'static,
    ) -> Self {
        self.l2_factory = Box::new(factory);
        self
    }

    /// Assembles the GPU.
    ///
    /// # Panics
    ///
    /// Panics if the config is degenerate (zero SMs or banks); use
    /// [`SimBuilder::try_build`] for a structured error instead.
    #[must_use]
    #[expect(clippy::panic, reason = "the documented infallible shorthand")]
    pub fn build(self) -> GpuSim {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assembles the GPU, validating the configuration. Also installs the
    /// fault plan derived from `cfg.faults`: request network = NoC
    /// streams 0 (data) and 2 (transport control), response network =
    /// streams 1 and 3, one DRAM stream per partition, per-bank crash
    /// schedules, and the timestamp-width cap applied before the L2
    /// banks are built. When any loss fault is enabled
    /// ([`gtsc_types::FaultConfig::lossy_active`]) the networks' reliable
    /// transport and the L1s' end-to-end retry are armed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config is degenerate
    /// (zero SMs or banks).
    pub fn try_build(self) -> Result<GpuSim, SimError> {
        let mut cfg = self.cfg;
        if cfg.n_sms == 0 || cfg.l2_banks == 0 {
            return Err(SimError::InvalidConfig(format!(
                "config must have SMs and banks (n_sms={}, l2_banks={})",
                cfg.n_sms, cfg.l2_banks
            )));
        }
        // The rollover-storm knob narrows the timestamp width before the
        // banks (and message sizes) are derived from it.
        cfg.ts_bits = FaultPlan::new(cfg.faults).effective_ts_bits(cfg.ts_bits);
        let l1_retry = cfg.faults.lossy_active();
        let mem = LocalDram::new(&cfg);
        Ok(Sim::assemble(
            cfg,
            1,
            l1_retry,
            &*self.l1_factory,
            &*self.l2_factory,
            |_| mem,
        ))
    }
}

impl GpuSim {
    /// Assembles a GPU per `cfg` (shorthand for
    /// [`SimBuilder::new`]`(cfg).build()`).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is degenerate (zero SMs or banks).
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        SimBuilder::new(cfg).build()
    }

    /// The configuration this GPU was built with.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelProgress;
    use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
    use gtsc_types::{Addr, BlockAddr, ConsistencyModel, ProtocolKind, Version};

    fn store_load_kernel() -> VecKernel {
        VecKernel::new(
            "roundtrip",
            1,
            vec![vec![WarpProgram(vec![
                WarpOp::store_coalesced(Addr(0), 32),
                WarpOp::Fence,
                WarpOp::load_coalesced(Addr(0), 32),
                WarpOp::load_coalesced(Addr(4096), 32),
            ])]],
        )
    }

    #[test]
    fn roundtrip_completes_on_every_protocol_and_model() {
        for p in [
            ProtocolKind::Gtsc,
            ProtocolKind::Tc,
            ProtocolKind::TcWeak,
            ProtocolKind::NoL1,
            ProtocolKind::L1NoCoherence,
        ] {
            for m in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
                let cfg = GpuConfig::test_small().with_protocol(p).with_consistency(m);
                let mut sim = GpuSim::new(cfg);
                let report = sim
                    .run_kernel(&store_load_kernel())
                    .unwrap_or_else(|e| panic!("{p:?}/{m:?}: {e}"));
                assert!(report.stats.cycles.0 > 0);
                assert!(
                    report.violations.is_empty(),
                    "{p:?}/{m:?}: {:?}",
                    report.violations
                );
                assert!(report.stats.sm.issued >= 3);
            }
        }
    }

    #[test]
    fn producer_consumer_across_ctas_is_coherent_under_gtsc() {
        // CTA0 stores DATA then FLAG; CTA1 spins.. simplified: loads FLAG
        // then DATA (no spin — timing may read early values, but never
        // incoherent ones; the checker validates timestamp ordering).
        let kernel = VecKernel::new(
            "prodcons",
            1,
            vec![
                vec![WarpProgram(vec![
                    WarpOp::store_coalesced(Addr(0), 32),
                    WarpOp::Fence,
                    WarpOp::store_coalesced(Addr(128), 32),
                ])],
                vec![WarpProgram(vec![
                    WarpOp::load_coalesced(Addr(128), 32),
                    WarpOp::Fence,
                    WarpOp::load_coalesced(Addr(0), 32),
                    WarpOp::Compute(5),
                    WarpOp::load_coalesced(Addr(128), 32),
                    WarpOp::Fence,
                    WarpOp::load_coalesced(Addr(0), 32),
                ])],
            ],
        );
        for m in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
            let cfg = GpuConfig::test_small()
                .with_protocol(ProtocolKind::Gtsc)
                .with_consistency(m);
            let mut sim = GpuSim::new(cfg);
            let report = sim.run_kernel(&kernel).expect("completes");
            assert!(
                report.violations.is_empty(),
                "{m:?}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn contended_block_many_warps() {
        // 4 warps in 2 CTAs hammer the same block with stores and loads;
        // the checker must stay satisfied (G-TSC serializes via wts).
        let prog = |seed: u64| {
            WarpProgram(
                (0..10)
                    .flat_map(|i| {
                        let op = if (i + seed).is_multiple_of(3) {
                            WarpOp::store_coalesced(Addr(0), 32)
                        } else {
                            WarpOp::load_coalesced(Addr(0), 32)
                        };
                        [op, WarpOp::Compute(1 + (seed as u32) % 3)]
                    })
                    .collect(),
            )
        };
        let kernel = VecKernel::new(
            "contend",
            2,
            vec![vec![prog(0), prog(1)], vec![prog(2), prog(3)]],
        );
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("completes");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.stats.l2.stores > 0);
    }

    #[test]
    fn more_ctas_than_slots_drain_in_waves() {
        let prog = WarpProgram(vec![
            WarpOp::load_coalesced(Addr(0), 32),
            WarpOp::Compute(2),
        ]);
        let ctas = (0..16).map(|_| vec![prog.clone()]).collect();
        let kernel = VecKernel::new("waves", 1, ctas);
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("completes");
        // 16 CTAs × 2 instructions each.
        assert_eq!(report.stats.sm.issued, 32);
    }

    #[test]
    fn multi_kernel_flushes_between() {
        let k = store_load_kernel();
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        let r1 = sim.run_kernel(&k).expect("k1");
        let cold_after_one = r1.stats.l1.cold_misses;
        let r2 = sim.run_kernel(&k).expect("k2");
        // The second kernel misses cold again (flush between kernels).
        assert!(r2.stats.l1.cold_misses >= 2 * cold_after_one);
        assert!(r2.violations.is_empty());
    }

    #[test]
    fn memory_image_reflects_final_stores() {
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&store_load_kernel()).expect("completes");
        let img = sim.memory_image();
        assert!(img.contains_key(&BlockAddr(0)));
        assert_ne!(img[&BlockAddr(0)], Version::ZERO);
    }

    #[test]
    fn sim_builder_injects_custom_controllers() {
        // A "counting" L1 factory around the real builder, proving the
        // factory is consulted once per SM.
        use std::cell::Cell;
        use std::rc::Rc;
        let calls = Rc::new(Cell::new(0usize));
        let calls2 = calls.clone();
        let cfg = GpuConfig::test_small();
        let _sim = crate::SimBuilder::new(cfg)
            .with_l1(move |cfg, i| {
                calls2.set(calls2.get() + 1);
                crate::build_l1(cfg, i)
            })
            .build();
        assert_eq!(calls.get(), GpuConfig::test_small().n_sms);
    }

    #[test]
    fn cta_dispatch_spreads_over_sms() {
        // 2 single-warp CTAs on a 2-SM GPU: both SMs issue work.
        let prog = WarpProgram(vec![
            WarpOp::Compute(3),
            WarpOp::load_coalesced(Addr(0), 32),
        ]);
        let kernel = VecKernel::new("spread", 1, vec![vec![prog.clone()], vec![prog]]);
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&kernel).expect("completes");
        for sm in &sim.devices[0].sms {
            assert!(sm.stats().issued > 0, "both SMs should have issued");
        }
    }

    #[test]
    fn latency_histogram_is_populated() {
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&store_load_kernel()).expect("completes");
        assert!(report.stats.sm.mem_latency.count() > 0);
        // A queued miss must take at least the NoC round trip.
        assert!(report.stats.sm.mem_latency.percentile(0.99) >= 32.0);
    }

    /// The rendering of the starved-DRAM wedge below, as the engine
    /// printed it when it stepped every cycle up to the watchdog.
    const STARVED_DRAM_DIAGNOSIS: &str = "\
1 warps resident, no progress for 2000 cycles (epoch 0, 0 rollovers)
  sm0: warp 0 stalled on Memory (outstanding=1, blocks_pending=0, ops_left=0)
  l1[0]: mshr=1 out_queue=0 waiting=0
  l2[0]: mshr=1 out_queue=0 waiting=0
  noc: req 0 in flight / 0 queued, resp 0 in flight / 0 queued
  dram: 0 queued, 1 in service";

    #[test]
    fn watchdog_fires_with_diagnosis_on_starved_dram() {
        use gtsc_types::StallKind;
        // DRAM that effectively never answers: the lone load wedges the
        // whole machine. The watchdog must abort far before max_cycles
        // and name the stuck warp and the queues holding its request.
        let mut cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        cfg.dram.row_hit = 50_000_000;
        cfg.dram.row_miss = 50_000_000;
        cfg.watchdog_cycles = 2_000;
        let kernel = VecKernel::new(
            "starved",
            1,
            vec![vec![WarpProgram(vec![WarpOp::load_coalesced(Addr(0), 32)])]],
        );
        let mut sim = GpuSim::new(cfg);
        match sim.run_kernel(&kernel) {
            Err(SimError::Stalled { at, diagnosis }) => {
                // Where and what the engine that stepped all 2 000 cycles
                // reported; this one lands there in a handful of jumps.
                assert_eq!((at, diagnosis.stalled_for), (Cycle(2_000), 2_000));
                assert_eq!(diagnosis.to_string(), STARVED_DRAM_DIAGNOSIS);
                assert!(sim.stepped_cycles() < 100, "{}", sim.stepped_cycles());
                assert_eq!(diagnosis.resident_warps, 1);
                assert!(
                    diagnosis
                        .warps
                        .iter()
                        .any(|(_, w)| w.stall == StallKind::Memory),
                    "{diagnosis}"
                );
                assert!(diagnosis.l1.iter().any(|p| p.mshr > 0), "{diagnosis}");
                assert!(diagnosis.l2.iter().any(|p| p.mshr > 0), "{diagnosis}");
                assert!(
                    diagnosis.dram_queued + diagnosis.dram_in_flight > 0,
                    "{diagnosis}"
                );
                let text = diagnosis.to_string();
                assert!(text.contains("stalled on Memory"), "{text}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_disabled_falls_through_to_cycle_limit() {
        let mut cfg = GpuConfig::test_small();
        cfg.dram.row_hit = 50_000_000;
        cfg.dram.row_miss = 50_000_000;
        cfg.watchdog_cycles = 0;
        cfg.max_cycles = 3_000;
        let kernel = VecKernel::new(
            "starved",
            1,
            vec![vec![WarpProgram(vec![WarpOp::load_coalesced(Addr(0), 32)])]],
        );
        let mut sim = GpuSim::new(cfg);
        match sim.run_kernel(&kernel) {
            // The first cycle past the limit, reached by jumping.
            Err(SimError::CycleLimit { at, resident_warps }) => {
                assert_eq!((at, resident_warps), (Cycle(3_001), 1));
                assert!(sim.stepped_cycles() < 100, "{}", sim.stepped_cycles());
            }
            other => panic!("expected CycleLimit, got {other:?}"),
        }
    }

    #[test]
    fn try_build_rejects_degenerate_config() {
        let mut cfg = GpuConfig::test_small();
        cfg.n_sms = 0;
        match SimBuilder::new(cfg).try_build() {
            Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("n_sms=0"), "{msg}"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn oversized_cta_is_a_structured_error() {
        let cfg = GpuConfig::test_small();
        let warps = cfg.warps_per_sm + 1;
        let kernel = VecKernel::new(
            "wide",
            warps,
            vec![(0..warps)
                .map(|_| WarpProgram(vec![WarpOp::Compute(1)]))
                .collect()],
        );
        let mut sim = GpuSim::new(cfg);
        match sim.run_kernel(&kernel) {
            Err(SimError::InvalidKernel(msg)) => assert!(msg.contains("wide"), "{msg}"),
            other => panic!("expected InvalidKernel, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn traced_stall_diagnosis_carries_flight_recorder_tail() {
        use gtsc_types::TraceConfig;
        // Same starved-DRAM wedge as above, but with the flight recorder
        // on: the diagnosis must carry (and render) the event tail that
        // led up to the stall.
        let mut cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_trace(TraceConfig::flight());
        cfg.dram.row_hit = 50_000_000;
        cfg.dram.row_miss = 50_000_000;
        cfg.watchdog_cycles = 2_000;
        let kernel = VecKernel::new(
            "starved",
            1,
            vec![vec![WarpProgram(vec![WarpOp::load_coalesced(Addr(0), 32)])]],
        );
        let mut sim = GpuSim::new(cfg);
        match sim.run_kernel(&kernel) {
            Err(SimError::Stalled { diagnosis, .. }) => {
                assert!(!diagnosis.recent_events.is_empty());
                // The wedged load's trail is visible: cold miss at the L1,
                // packet into the request net, enqueue at DRAM.
                let kinds: Vec<_> = diagnosis
                    .recent_events
                    .iter()
                    .map(|e| e.kind.name())
                    .collect();
                assert!(kinds.contains(&"cold_miss"), "{kinds:?}");
                assert!(kinds.contains(&"dram_enqueue"), "{kinds:?}");
                let text = diagnosis.to_string();
                assert!(text.contains("last 16 trace events:"), "{text}");
                // The rendered tail is the most recent activity: the
                // wedged warp's stall, cycle after cycle.
                assert!(text.contains("stall"), "{text}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn untraced_stall_diagnosis_has_no_event_tail() {
        let mut cfg = GpuConfig::test_small();
        cfg.dram.row_hit = 50_000_000;
        cfg.dram.row_miss = 50_000_000;
        cfg.watchdog_cycles = 2_000;
        let kernel = VecKernel::new(
            "starved",
            1,
            vec![vec![WarpProgram(vec![WarpOp::load_coalesced(Addr(0), 32)])]],
        );
        let mut sim = GpuSim::new(cfg);
        match sim.run_kernel(&kernel) {
            Err(SimError::Stalled { diagnosis, .. }) => {
                assert!(diagnosis.recent_events.is_empty());
                assert!(!diagnosis.to_string().contains("trace events"));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn full_trace_records_protocol_lifecycle_and_exports_chrome_json() {
        use gtsc_types::TraceConfig;
        let cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_trace(TraceConfig::full());
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&store_load_kernel()).expect("completes");
        let events = sim.trace_events();
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        let kinds: Vec<_> = events.iter().map(|e| e.kind.name()).collect();
        for needed in [
            "warp_issue",
            "cold_miss",
            "lease_grant",
            "store_commit",
            "lease_install",
            "warp_ts",
            "packet_send",
            "packet_deliver",
            "dram_service",
        ] {
            assert!(kinds.contains(&needed), "missing {needed} in {kinds:?}");
        }
        let json = sim.chrome_trace();
        assert!(json.starts_with('{'), "{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.ends_with('}'), "{json}");
    }

    #[test]
    fn report_exposes_per_component_stats_summing_to_totals() {
        let cfg = GpuConfig::test_small();
        let n_sms = cfg.n_sms;
        let banks = cfg.l2_banks;
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&store_load_kernel()).expect("completes");
        let s = &report.stats;
        assert_eq!(s.per_sm.len(), n_sms);
        assert_eq!(s.per_l1.len(), n_sms);
        assert_eq!(s.per_l2.len(), banks);
        assert_eq!(s.per_dram.len(), banks);
        assert_eq!(s.per_sm.iter().map(|x| x.issued).sum::<u64>(), s.sm.issued);
        assert_eq!(
            s.per_l1.iter().map(|x| x.accesses).sum::<u64>(),
            s.l1.accesses
        );
        assert_eq!(s.per_l2.iter().map(|x| x.stores).sum::<u64>(), s.l2.stores);
        assert_eq!(
            s.per_dram.iter().map(|x| x.reads).sum::<u64>(),
            s.dram.reads
        );
    }

    #[test]
    fn sanitized_run_is_clean_and_checks_transitions() {
        for p in [ProtocolKind::Gtsc, ProtocolKind::Tc] {
            for m in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
                let cfg = GpuConfig::test_small()
                    .with_protocol(p)
                    .with_consistency(m)
                    .with_sanitize(true);
                let mut sim = GpuSim::new(cfg);
                let report = sim
                    .run_kernel(&store_load_kernel())
                    .unwrap_or_else(|e| panic!("{p:?}/{m:?}: {e}"));
                assert!(
                    report.violations.is_empty(),
                    "{p:?}/{m:?}: {:?}",
                    report.violations
                );
                assert!(
                    sim.sanitizer().checked() > 0,
                    "{p:?}/{m:?}: sanitizer saw no transitions"
                );
            }
        }
    }

    #[test]
    fn unsanitized_run_keeps_sanitizer_disabled() {
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&store_load_kernel()).expect("completes");
        assert!(!sim.sanitizer().is_enabled());
        assert_eq!(sim.sanitizer().checked(), 0);
    }

    /// Data-race-free traffic generator: each CTA stores to its own
    /// blocks then reads them back, with enough packets on the wire that
    /// a seeded loss plan reliably bites.
    fn drf_traffic_kernel(n_ctas: usize) -> VecKernel {
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
        VecKernel::new("drf-traffic", 1, ctas)
    }

    #[test]
    fn fault_free_run_keeps_transport_dark() {
        use gtsc_types::TransportStats;
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&store_load_kernel()).expect("completes");
        assert_eq!(report.stats.transport, TransportStats::default());
        assert!(sim.fault_stats().is_none());
    }

    #[test]
    fn lossy_noc_preserves_coherence_and_memory_image() {
        use gtsc_types::FaultConfig;
        let kernel = drf_traffic_kernel(6);
        let mut clean = GpuSim::new(GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc));
        clean.run_kernel(&kernel).expect("clean run");
        let want = clean.memory_image();

        let mut cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_sanitize(true);
        cfg.faults = FaultConfig::lossy(7, 100);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("lossy run completes");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(sim.memory_image(), want, "image must match fault-free run");
        let t = &report.stats.transport;
        assert!(t.delivered > 0, "{t:?}");
        let f = sim.fault_stats().expect("faults active");
        assert!(
            f.dropped + f.corrupted > 0,
            "10% loss over this much traffic must bite: {f:?}"
        );
        assert!(
            t.retransmits > 0 && t.acks > 0,
            "every loss must be repaired by a retransmit: {t:?}"
        );
    }

    #[test]
    fn bank_crash_recovers_behind_epoch_bump() {
        use gtsc_types::FaultConfig;
        let kernel = drf_traffic_kernel(8);
        let mut clean = GpuSim::new(GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc));
        clean.run_kernel(&kernel).expect("clean run");
        let want = clean.memory_image();

        let mut cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_sanitize(true);
        cfg.faults = FaultConfig::default().with_bank_crashes(3, 250);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("crashed run recovers");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let t = &report.stats.transport;
        assert!(t.bank_recoveries >= 1, "{t:?}");
        assert!(
            report.stats.l2.ts_rollovers >= 1,
            "a crash must force the global Section V-D reset"
        );
        assert_eq!(sim.memory_image(), want, "data survives the crash via DRAM");
        let f = sim.fault_stats().expect("bank faults active");
        assert!(f.bank_resets >= 1, "{f:?}");
    }

    #[test]
    fn mid_kernel_snapshot_resumes_byte_identically_under_faults() {
        use gtsc_types::FaultConfig;
        // The flagship determinism property: checkpoint at cycle N,
        // restore into a fresh build, continue — and get the SimStats
        // and memory image of the uninterrupted run, with a lossy NoC
        // and bank crashes active across the checkpoint.
        let kernel = drf_traffic_kernel(8);
        let mut cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        cfg.faults = FaultConfig::lossy(42, 80).with_bank_crashes(2, 400);

        let mut whole = GpuSim::new(cfg.clone());
        let want = whole.run_kernel(&kernel).expect("uninterrupted run");

        // Run half-interrupted: slice, snapshot mid-flight, abandon the
        // original machine, restore, finish.
        let mut first = GpuSim::new(cfg.clone());
        let mut progress = KernelProgress::new(&kernel);
        let parked = first
            .advance_kernel(&kernel, &mut progress, 300)
            .expect("first slice");
        assert!(parked.is_none(), "300 cycles must not drain this kernel");
        let snap = first.save_snapshot(Some(&progress)).expect("snapshot");
        drop(first);

        let mut resumed = SimBuilder::new(cfg).try_build().expect("rebuild");
        let mut progress2 = resumed
            .restore_snapshot(&snap)
            .expect("restore")
            .expect("mid-kernel snapshot carries progress");
        assert_eq!(progress2, progress);
        // A snapshot of the restored machine is byte-identical to the
        // original snapshot (save → restore → save stability).
        let snap2 = resumed
            .save_snapshot(Some(&progress2))
            .expect("re-snapshot");
        assert_eq!(snap, snap2, "restored state must re-serialize identically");
        let mut report = None;
        for _ in 0..100_000 {
            if let Some(r) = resumed
                .advance_kernel(&kernel, &mut progress2, 111)
                .expect("resumed slice")
            {
                report = Some(r);
                break;
            }
        }
        let got = report.expect("resumed run completes");
        assert_eq!(got.stats, want.stats);
        assert!(got.violations.is_empty(), "{:?}", got.violations);
        assert_eq!(resumed.memory_image(), whole.memory_image());
    }

    #[test]
    fn baseline_protocols_report_unsupported_snapshot() {
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Tc);
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&store_load_kernel()).expect("completes");
        match sim.save_snapshot(None) {
            Err(gtsc_types::snap::SnapshotError::Unsupported { .. }) => {}
            other => panic!("expected Unsupported, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn rollover_under_tiny_timestamps_stays_coherent() {
        // 6-bit timestamps force frequent rollovers; the Section V-D
        // protocol must keep the run coherent — with the transition
        // sanitizer watching every epoch entry and lease grant.
        let mut cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_sanitize(true);
        cfg.ts_bits = 6;
        let prog = |s: u64| {
            WarpProgram(
                (0..30)
                    .map(|i| {
                        if (i + s).is_multiple_of(4) {
                            WarpOp::store_coalesced(Addr((i % 3) * 128), 32)
                        } else {
                            WarpOp::load_coalesced(Addr((i % 3) * 128), 32)
                        }
                    })
                    .collect(),
            )
        };
        let kernel = VecKernel::new("rollover", 1, vec![vec![prog(0)], vec![prog(1)]]);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("completes");
        assert!(
            report.stats.l2.ts_rollovers > 0,
            "rollover should have fired"
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(sim.sanitizer().checked() > 0);
    }
}
