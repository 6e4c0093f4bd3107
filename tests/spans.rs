//! Latency-observatory acceptance tests: causal span lifecycle, the
//! cycle-accounting invariant, and profile-report snapshot determinism.
//!
//! The span contract under test (see DESIGN.md §15):
//!
//! * every sampled span **closes exactly once**, even when its request
//!   is dropped by a lossy NoC or orphaned by an L2 bank crash — or, on
//!   the multi-GPU topology, by a lossy fabric or a whole-device crash;
//! * chain hops tile `[opened, closed]`, so the sum of per-hop
//!   durations equals the end-to-end latency — always, for every close
//!   reason;
//! * sampling is a pure function of (rate, seed, access ordinal), so
//!   two identical runs sample identical spans with identical records;
//! * the per-SM cycle-reason buckets sum exactly to the stepped cycles
//!   on every run, faults included;
//! * the default `profile_report` output derives solely from snapshotted
//!   stats, so a mid-kernel restore reproduces it byte-identically.

use gtsc::sim::{
    render_folded, render_profile, GpuSim, KernelProgress, MultiGpuSim, RunReport, SimBuilder,
};
use gtsc::types::{
    ConsistencyModel, FabricConfig, FaultConfig, GpuConfig, MultiGpuConfig, ProtocolKind,
};
use gtsc::workloads::{Benchmark, Scale};
use gtsc_trace::{CloseReason, SpanRecord};
use proptest::prelude::*;

/// Sample 1-in-4 accesses: dense enough that every tiny kernel run
/// sends sampled spans through misses, merges, and DRAM round trips.
const SPAN_RATE: u64 = 4;

fn spanned_config(seed: u64, lossy_permille: u16, bank_crashes: u16) -> GpuConfig {
    let mut faults = if lossy_permille > 0 {
        FaultConfig::lossy(seed, lossy_permille)
    } else {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    };
    if bank_crashes > 0 {
        faults = faults.with_bank_crashes(bank_crashes, 400);
    }
    let mut cfg = GpuConfig::test_small()
        .with_protocol(ProtocolKind::Gtsc)
        .with_consistency(ConsistencyModel::Rc)
        .with_faults(faults);
    cfg.trace = cfg.trace.with_spans(SPAN_RATE, seed);
    cfg
}

fn run_spanned(cfg: &GpuConfig, bench: Benchmark) -> (RunReport, Vec<SpanRecord>) {
    let kernel = bench.build(Scale::Tiny);
    let mut sim = SimBuilder::new(cfg.clone()).build();
    let report = sim.run_kernel(kernel.as_ref()).expect("kernel runs");
    let spans = sim.spans();
    (report, spans)
}

/// The same run on two devices behind the fabric: `lossy_permille` also
/// drops fabric packets, and the crash budget becomes whole-device
/// crashes (the on-die bank schedulers belong to the single-GPU memory
/// side).
fn run_spanned_multi(
    seed: u64,
    lossy_permille: u16,
    device_crashes: u16,
    bench: Benchmark,
) -> (RunReport, Vec<SpanRecord>) {
    let mut fabric = FabricConfig::default();
    if lossy_permille > 0 {
        fabric = fabric.lossy(seed, lossy_permille);
    }
    if device_crashes > 0 {
        fabric = fabric.with_device_crashes(device_crashes, 2_000);
    }
    // Crash schedules are drawn from the fault seed even when the loss
    // layer is off.
    fabric.faults.seed = seed;
    let cfg = MultiGpuConfig {
        n_devices: 2,
        gpu: spanned_config(seed, lossy_permille, 0),
        fabric,
    };
    let kernel = bench.build(Scale::Tiny);
    let mut sim = MultiGpuSim::new(cfg);
    let report = sim.run_kernel(kernel.as_ref()).expect("kernel runs");
    let spans = sim.spans();
    (report, spans)
}

/// The two invariants that must hold for *every* span in *every* run:
/// it closed (exactly once — the store holds one record per id), and
/// its chain hops tile the whole `[opened, closed]` interval.
fn assert_span_contract(spans: &[SpanRecord], ctx: &str) {
    assert!(!spans.is_empty(), "{ctx}: sampling produced no spans");
    let mut seen = std::collections::HashSet::new();
    for s in spans {
        assert!(
            seen.insert(s.id),
            "{ctx}: span {:?} recorded more than once",
            s.id
        );
        let (closed_at, reason) = s
            .closed
            .unwrap_or_else(|| panic!("{ctx}: span {:?} never closed", s.id));
        assert!(
            closed_at >= s.opened,
            "{ctx}: span {:?} closed before it opened",
            s.id
        );
        let e2e = s.end_to_end().expect("closed span has a latency");
        assert_eq!(
            s.hop_total(),
            e2e,
            "{ctx}: span {:?} ({reason:?}) hops sum to {} but end-to-end is {e2e}",
            s.id,
            s.hop_total()
        );
    }
}

fn assert_cycle_accounting(report: &RunReport, ctx: &str) {
    for (i, sm) in report.stats.per_sm.iter().enumerate() {
        assert_eq!(
            sm.cycle_buckets.sum(),
            report.stats.accounted_cycles,
            "{ctx}: sm{i} cycle buckets do not sum to the stepped cycles"
        );
    }
    for v in &report.violations {
        assert!(
            !v.0.contains("cycle accounting"),
            "{ctx}: report flags broken cycle accounting: {}",
            v.0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 100, ..ProptestConfig::default() })]

    /// 100 randomized (seed, faults, benchmark) runs: every sampled
    /// span closes exactly once with tiling hops, and every SM's cycle
    /// buckets sum to the stepped cycles — reliable, lossy, and
    /// crashing machines alike, on one GPU (bank crashes) and on two
    /// behind the fabric (device crashes).
    #[test]
    fn every_span_closes_once_with_tiling_hops(
        seed in 0u64..10_000,
        lossy_ix in 0usize..3,
        crashes in 0u16..3,
        bench_ix in 0usize..3,
        n_devices in 1usize..3,
    ) {
        let lossy = [0u16, 30, 60][lossy_ix];
        let bench = [Benchmark::Km, Benchmark::Hs, Benchmark::Bh][bench_ix];
        let (report, spans) = if n_devices == 1 {
            run_spanned(&spanned_config(seed, lossy, crashes), bench)
        } else {
            run_spanned_multi(seed, lossy, crashes, bench)
        };
        let ctx = format!(
            "seed={seed} lossy={lossy} crashes={crashes} devices={n_devices} {}",
            bench.name()
        );
        assert_span_contract(&spans, &ctx);
        assert_cycle_accounting(&report, &ctx);
        // Close reasons stay within the machine's fault envelope: a
        // reliable, crash-free run completes everything.
        for s in &spans {
            let (_, reason) = s.closed.expect("checked above");
            if crashes == 0 {
                prop_assert_eq!(
                    reason, CloseReason::Completed,
                    "{}: span {:?} closed {:?} with no crashes",
                    &ctx, s.id, reason
                );
            }
        }
    }
}

/// Bank crashes — and, behind the fabric, whole-device crashes — must
/// close orphaned spans with `BankReset` (at the L2) or `Dropped`
/// (in-flight NoC payloads abandoned by the flow reset) — and some seed
/// in each sweep must actually exercise those paths.
#[test]
fn bank_crashes_close_spans_with_fault_reasons() {
    for multi in [false, true] {
        let mut fault_closes = 0u64;
        for seed in 0..30u64 {
            let (report, spans) = if multi {
                run_spanned_multi(seed, 0, 2, Benchmark::Km)
            } else {
                run_spanned(&spanned_config(seed, 0, 2), Benchmark::Km)
            };
            let ctx = format!("crash seed={seed} multi={multi}");
            assert_span_contract(&spans, &ctx);
            assert_cycle_accounting(&report, &ctx);
            for s in &spans {
                match s.closed.expect("checked").1 {
                    CloseReason::Completed => {}
                    CloseReason::BankReset | CloseReason::Dropped => fault_closes += 1,
                }
            }
        }
        assert!(
            fault_closes > 0,
            "multi={multi}: 30 crash seeds never closed a span via BankReset/Dropped — \
             the fault paths are not wired"
        );
    }
}

/// Sampling is deterministic: the same (config, seed) twice produces
/// identical span records, field for field.
#[test]
fn identical_runs_sample_identical_spans() {
    for seed in [1u64, 7, 42] {
        let cfg = spanned_config(seed, 25, 1);
        let (_, a) = run_spanned(&cfg, Benchmark::Hs);
        let (_, b) = run_spanned(&cfg, Benchmark::Hs);
        assert_eq!(a, b, "seed {seed}: span records diverged between runs");
    }
}

/// The acceptance criterion for the observatory's snapshot story: a
/// run restored from a mid-kernel checkpoint produces **byte-identical**
/// `profile_report` output (table and folded dump) to the uninterrupted
/// run, because both derive solely from snapshotted stats.
#[test]
fn restored_run_reproduces_profile_report_byte_identically() {
    for seed in 0..8u64 {
        let cfg = spanned_config(seed, 40, 1);
        let kernel = Benchmark::Km.build(Scale::Tiny);

        let mut straight = SimBuilder::new(cfg.clone()).build();
        let reference = straight.run_kernel(&*kernel).expect("uninterrupted run");

        let mut first = SimBuilder::new(cfg.clone()).build();
        let mut progress = KernelProgress::new(&*kernel);
        while first.now().0 < 150 {
            let done = first
                .advance_kernel(&*kernel, &mut progress, 97)
                .expect("advance");
            assert!(done.is_none(), "seed {seed}: drained before checkpoint");
        }
        let snapshot = first.save_snapshot(Some(&progress)).expect("snapshot");
        drop(first);

        let mut second = SimBuilder::new(cfg.clone()).build();
        let mut progress = second
            .restore_snapshot(&snapshot)
            .expect("restore")
            .expect("snapshot carries kernel progress");
        let resumed = loop {
            if let Some(r) = second
                .advance_kernel(&*kernel, &mut progress, 997)
                .expect("advance")
            {
                break r;
            }
        };

        assert_eq!(
            render_profile(&resumed.stats),
            render_profile(&reference.stats),
            "seed {seed}: profile table diverged after restore"
        );
        assert_eq!(
            render_folded(&resumed.stats),
            render_folded(&reference.stats),
            "seed {seed}: folded dump diverged after restore"
        );
        assert_cycle_accounting(&resumed, &format!("restored seed={seed}"));
    }
}

/// Spans off (the default config) leaves the tracker disabled: no span
/// is ever recorded, so the hot path carries no observatory work — on
/// either topology.
#[test]
fn spans_off_records_nothing() {
    let mut multi = MultiGpuSim::new(MultiGpuConfig::test_small(2));
    let kernel = Benchmark::Km.build(Scale::Tiny);
    let report = multi.run_kernel(&*kernel).expect("kernel runs");
    assert!(multi.spans().is_empty(), "spans recorded with sampling off");
    assert_cycle_accounting(&report, "spans-off multi");

    let cfg = GpuConfig::test_small()
        .with_protocol(ProtocolKind::Gtsc)
        .with_consistency(ConsistencyModel::Rc);
    let kernel = Benchmark::Km.build(Scale::Tiny);
    let mut sim = GpuSim::new(cfg);
    let report = sim.run_kernel(&*kernel).expect("kernel runs");
    assert!(sim.spans().is_empty(), "spans recorded with sampling off");
    assert_eq!(sim.spans_suppressed(), 0);
    assert_cycle_accounting(&report, "spans-off");
}
