//! End-to-end check of the invariant catalog's two sinks against the
//! full simulator: a traced run under G-TSC must come back clean from
//! both the online transition sanitizer and the offline lint of its
//! event log — under 6-bit timestamps, where Section V-D rollovers
//! exercise the epoch rules on a real stream; across bank crashes; and
//! on the 2-device fabric, where the banks of a device share a scope.
//! And a recovery that fails to bump the epoch must *not* come back
//! clean from its own recording.

use gtsc_check::lint::lint_events;
use gtsc_core::{GtscL2, L2Params, ProtocolMutation};
use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
use gtsc_protocol::msg::{L1ToL2, ReadReq};
use gtsc_protocol::L2Controller;
use gtsc_sim::{GpuSim, MultiGpuSim};
use gtsc_trace::{EventKind, Probe, Scope};
use gtsc_types::{
    Addr, BlockAddr, ConsistencyModel, Cycle, FabricConfig, FaultConfig, GpuConfig, MultiGpuConfig,
    ProtocolKind, SpanId, Timestamp, TraceConfig,
};
use gtsc_workloads::{micro, Benchmark, Scale};

#[test]
fn traced_gtsc_run_passes_sanitizer_and_lints() {
    for m in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
        let cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_consistency(m)
            .with_trace(TraceConfig::full())
            .with_sanitize(true);
        let mut sim = GpuSim::new(cfg);
        let report = sim
            .run_kernel(&micro::message_passing(3))
            .unwrap_or_else(|e| panic!("{m:?}: {e}"));
        assert!(
            report.violations.is_empty(),
            "{m:?}: {:?}",
            report.violations
        );
        assert!(sim.sanitizer().checked() > 0, "{m:?}: sanitizer idle");

        let events = sim.trace_events();
        assert!(!events.is_empty(), "{m:?}: tracing produced no events");
        let lint = lint_events(&events);
        assert!(
            lint.errors() == 0,
            "{m:?}: trace lints fired:\n{}",
            lint.findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(lint.scanned > 0);
    }
}

#[test]
fn traced_rollover_run_passes_lints() {
    // 6-bit timestamps roll the L2 banks over repeatedly; the Rollover
    // events land in the trace and the per-scope epoch-monotonicity lint
    // (plus all timestamp lints across the resets) must stay quiet.
    let mut cfg = GpuConfig::test_small()
        .with_protocol(ProtocolKind::Gtsc)
        .with_trace(TraceConfig::full())
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
    assert!(report.stats.l2.ts_rollovers > 0, "rollover never fired");
    assert!(report.violations.is_empty(), "{:?}", report.violations);

    let events = sim.trace_events();
    let saw_rollover = events
        .iter()
        .any(|e| matches!(e.kind, gtsc_trace::EventKind::Rollover { .. }));
    assert!(saw_rollover, "no Rollover event reached the trace");
    let lint = lint_events(&events);
    assert!(
        lint.errors() == 0,
        "trace lints fired across rollover:\n{}",
        lint.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A bank records the epoch it crashed *in*; its recovery's rollover
/// into the next follows. Read the other way round (as the epoch the
/// recovery entered), every healthy crash looks like a missing bump.
#[test]
fn traced_bank_crash_runs_pass_both_drivers() {
    for seed in 0..6 {
        let cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_consistency(ConsistencyModel::Rc)
            .with_faults(FaultConfig::lossy(seed, 10).with_bank_crashes(2, 400))
            .with_trace(TraceConfig::full())
            .with_sanitize(true);
        let mut sim = GpuSim::new(cfg);
        let report = sim
            .run_kernel(&micro::message_passing(3))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:?}",
            report.violations
        );
        let events = sim.trace_events();
        let crashes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BankReset { .. }))
            .count();
        assert_eq!(crashes, 2, "seed {seed}: both scheduled crashes recorded");
        let lint = lint_events(&events);
        assert!(lint.findings.is_empty(), "seed {seed}: {lint}");
        assert!(lint.scanned > 0);
    }
}

/// The soak-shaped 2-device run: lossy on die and on the fabric, link
/// partitions, the fabric's rollovers reported by every bank of a
/// device under one `Scope::Device`. Both sinks see the devices'
/// epochs, and neither mistakes two banks entering one epoch for a
/// regression.
#[test]
fn traced_two_device_run_passes_both_drivers() {
    let benches = [Benchmark::Bfs, Benchmark::Cc, Benchmark::Stn];
    for (bench, fs) in benches.into_iter().flat_map(|b| [(b, 1), (b, 2)]) {
        let cfg = MultiGpuConfig {
            n_devices: 2,
            gpu: GpuConfig::test_small()
                .with_protocol(ProtocolKind::Gtsc)
                .with_consistency(ConsistencyModel::Rc)
                .with_faults(FaultConfig::lossy(fs, 10))
                .with_trace(TraceConfig::full())
                .with_sanitize(true),
            fabric: FabricConfig::default()
                .lossy(fs, 10)
                .with_partitions(2, 3000, 1500),
        };
        let mut sim = MultiGpuSim::new(cfg);
        let report = sim
            .run_kernel(&*bench.build(Scale::Small))
            .unwrap_or_else(|e| panic!("{bench:?}/{fs}: {e}"));
        assert!(
            report.violations.is_empty(),
            "{bench:?}/{fs}: {:?}",
            report.violations
        );
        let events = sim.trace_events();
        let device_rollovers = events
            .iter()
            .filter(|e| {
                matches!(
                    (e.scope, e.kind),
                    (Scope::Device(_), EventKind::Rollover { .. })
                )
            })
            .count();
        assert!(
            device_rollovers > 2,
            "{bench:?}/{fs}: the run must roll devices over to mean anything"
        );
        let lint = lint_events(&events);
        assert_eq!(lint.errors(), 0, "{bench:?}/{fs}: {lint}");
    }
}

/// The recording of a bank whose recovery keeps its epoch
/// (`SkipEpochBumpOnRecovery`) convicts it offline; the same steps on a
/// healthy bank are clean.
#[test]
fn a_recorded_recovery_without_an_epoch_bump_is_flagged_offline() {
    let read = |warp_ts: u64| {
        L1ToL2::Read(ReadReq {
            block: BlockAddr(5),
            wts: Timestamp(0),
            warp_ts: Timestamp(warp_ts),
            epoch: 0,
            span: SpanId::NONE,
        })
    };
    let record = |mutation: ProtocolMutation| {
        let mut l2 = GtscL2::new(L2Params::default());
        l2.set_probe(Probe::recording(Scope::L2Bank(0), &TraceConfig::full()));
        l2.set_mutation(mutation);
        let serve = |l2: &mut GtscL2, req: L1ToL2, at: u64| {
            l2.on_request(0, req, Cycle(at));
            for now in at..at + 100 {
                l2.tick(Cycle(now));
                while let Some((b, w)) = l2.take_dram_request() {
                    l2.on_dram_response(b, w, Cycle(now));
                }
                if l2.take_response().is_some() {
                    return;
                }
            }
            panic!("the bank never answered");
        };
        serve(&mut l2, read(1), 0);
        l2.crash(Cycle(200));
        assert!(l2.needs_reset());
        l2.apply_reset(1, Cycle(200));
        serve(&mut l2, read(1), 300);
        l2.probe().expect("installed").events().to_vec()
    };

    let healthy = lint_events(&record(ProtocolMutation::None));
    assert!(healthy.findings.is_empty(), "{healthy}");
    assert!(
        healthy.scanned >= 4,
        "grant, crash, rollover, grant: {healthy}"
    );

    let mutant = lint_events(&record(ProtocolMutation::SkipEpochBumpOnRecovery));
    let rules: Vec<_> = mutant.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["crash-epoch-reuse"], "{mutant}");
}
