//! Random-schedule fallback for shapes too large to explore
//! exhaustively: proptest drives [`gtsc_check::explore::run_schedule`]
//! with arbitrary choice vectors and checks that every outcome the real
//! controllers produce is one the reference model can also produce, and
//! that no schedule trips the transition sanitizer.
//!
//! The shape here (3 threads × 3 ops, two contended blocks) is larger
//! than anything in the exhaustive catalog; its *reference* exploration
//! is still cheap (atomic steps), so the spec outcome set is computed
//! exhaustively once and the implementation is sampled against it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use gtsc_check::explore::{explore_all, run_schedule};
use gtsc_check::harness::{HarnessCfg, MicroGtsc, Topology};
use gtsc_check::litmus::{on_die, Op};
use gtsc_check::spec::SpecMachine;
use proptest::prelude::*;

type Threads = Vec<(u16, Vec<Op>)>;
type Outcomes = std::collections::BTreeSet<BTreeMap<u32, u32>>;

fn ld(id: u32, block: u64) -> Op {
    Op::Load { id, block }
}
fn st(block: u64, label: u32) -> Op {
    Op::Store { block, label }
}

/// Three threads hammering blocks 0 and 1: a writer, a reader, and a
/// mixed thread that reads then overwrites. 1680 serve orders — beyond
/// what the exhaustive suite runs per shape, ideal for sampling.
fn shape() -> Threads {
    on_die([
        vec![st(0, 1), st(1, 2), st(0, 3)],
        vec![ld(10, 0), ld(11, 1), ld(12, 0)],
        vec![ld(20, 1), st(1, 4), ld(21, 0)],
    ])
}

/// The multi-GPU twin of [`shape`]: the same three threads spread over
/// two devices, contending on blocks 0 and 1 through the shared home
/// node.
fn multi_shape() -> Threads {
    let mut threads = shape();
    threads[1].0 = 1;
    threads[2].0 = 1;
    threads
}

/// All outcomes the flat reference model allows for the shape under
/// `cfg`'s effective lease (over the fabric, grant and L1 leases both
/// bound read visibility). Placement does not reach the flat model.
fn spec_outcomes(cfg: HarnessCfg) -> Outcomes {
    let flat: Vec<Vec<Op>> = shape().into_iter().map(|(_, p)| p).collect();
    let r = explore_all(|| SpecMachine::new(&flat, cfg.spec_lease()), 1_000_000);
    assert!(!r.truncated, "reference exploration must be exhaustive");
    r.outcomes
}

/// Computed once per topology.
fn spec_default() -> &'static Outcomes {
    static SPEC: OnceLock<Outcomes> = OnceLock::new();
    SPEC.get_or_init(|| spec_outcomes(HarnessCfg::default()))
}

fn multi_spec_default() -> &'static Outcomes {
    static SPEC: OnceLock<Outcomes> = OnceLock::new();
    SPEC.get_or_init(|| spec_outcomes(HarnessCfg::fabric()))
}

/// One serve order of the real controllers lands inside the reference
/// model's outcome set with a clean sanitizer and oracle; across the
/// fabric that includes every L2 lease handed to an L1 nesting inside a
/// live inter-GPU grant (the oracle's `lease-outside-grant` rule fires
/// otherwise).
fn check_within_spec(
    threads: &Threads,
    cfg: HarnessCfg,
    spec: &Outcomes,
    choices: &[usize],
) -> TestCaseResult {
    let mut m = MicroGtsc::new(threads, cfg);
    let (observations, violations, races) = run_schedule(&mut m, choices);
    prop_assert!(
        violations.is_empty(),
        "sanitizer violations: {violations:?}"
    );
    prop_assert!(
        !races.iter().any(|f| f.rule == "lease-outside-grant"),
        "an L2 lease escaped its inter-GPU grant: {races:?}"
    );
    prop_assert!(races.is_empty(), "race-oracle findings: {races:?}");
    prop_assert!(
        spec.contains(&observations),
        "outcome not producible by the reference model: {observations:?}"
    );
    Ok(())
}

/// Replay determinism at the harness level: the same choice vector must
/// yield the same outcome (the explorer's core assumption; its
/// resume/caching machinery depends on it).
fn check_replay_is_deterministic(
    threads: &Threads,
    cfg: HarnessCfg,
    choices: &[usize],
) -> TestCaseResult {
    let mut a = MicroGtsc::new(threads, cfg);
    let mut b = MicroGtsc::new(threads, cfg);
    prop_assert_eq!(run_schedule(&mut a, choices), run_schedule(&mut b, choices));
    Ok(())
}

proptest! {
    #[test]
    fn random_impl_schedule_is_within_spec(choices in proptest::collection::vec(0usize..4, 0..24)) {
        check_within_spec(&shape(), HarnessCfg::default(), spec_default(), &choices)?;
    }

    #[test]
    fn same_choices_same_outcome(choices in proptest::collection::vec(0usize..4, 0..24)) {
        check_replay_is_deterministic(&shape(), HarnessCfg::default(), &choices)?;
    }

    #[test]
    fn random_multi_gpu_schedule_nests_leases_and_stays_within_spec(
        choices in proptest::collection::vec(0usize..4, 0..24),
    ) {
        check_within_spec(&multi_shape(), HarnessCfg::fabric(), multi_spec_default(), &choices)?;
    }

    #[test]
    fn same_choices_same_multi_gpu_outcome(
        choices in proptest::collection::vec(0usize..4, 0..24),
    ) {
        check_replay_is_deterministic(&multi_shape(), HarnessCfg::fabric(), &choices)?;
    }
}

/// Lease nesting holds under stress configurations as well: a short
/// inter-GPU grant with a long L1 lease (the clamp is load-bearing on
/// every serve), a tiny timestamp width forcing global rollovers, and a
/// mid-run device crash. Deterministic pseudo-schedules keep failures
/// byte-for-byte reproducible.
#[test]
fn multi_gpu_lease_nesting_holds_under_stress_configs() {
    let cfgs = [
        HarnessCfg {
            lease: 64,
            topology: Topology::Fabric { grant_lease: 16 },
            ..HarnessCfg::default()
        },
        HarnessCfg {
            lease: 10,
            ts_bits: 6,
            topology: Topology::Fabric { grant_lease: 16 },
            ..HarnessCfg::default()
        },
        HarnessCfg {
            crash_after_serves: Some((3, 0)),
            ..HarnessCfg::fabric()
        },
    ];
    for seed in 0u64..60 {
        let cfg = cfgs[(seed % 3) as usize];
        let choices: Vec<usize> = (0u64..24)
            .map(|i| {
                ((seed.wrapping_mul(2_654_435_761).wrapping_add(i * 97_453)) >> 11) as usize % 4
            })
            .collect();
        let mut m = MicroGtsc::new(&multi_shape(), cfg);
        let (_, violations, races) = run_schedule(&mut m, &choices);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        assert!(races.is_empty(), "seed {seed}: {races:?}");
    }
}

/// The rollover configuration holds under random schedules too: 4-bit
/// timestamps force a Section V-D reset in essentially every run, and
/// the outcome must still be explainable by the never-rolling reference.
#[test]
fn random_rollover_schedules_stay_within_spec() {
    let cfg = HarnessCfg {
        lease: 10,
        ts_bits: 4,
        ..HarnessCfg::default()
    };
    let spec = spec_outcomes(cfg);
    // A fixed spread of deterministic pseudo-schedules (no wall-clock or
    // RNG dependence keeps failures reproducible byte-for-byte).
    for seed in 0u64..64 {
        let choices: Vec<usize> = (0u64..24)
            .map(|i| {
                ((seed.wrapping_mul(2_654_435_761).wrapping_add(i * 40_503)) >> 7) as usize % 4
            })
            .collect();
        let mut m = MicroGtsc::new(&shape(), cfg);
        let (observations, violations, races) = run_schedule(&mut m, &choices);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        assert!(races.is_empty(), "seed {seed}: {races:?}");
        assert!(
            spec.contains(&observations),
            "seed {seed}: rollover manufactured outcome {observations:?}"
        );
    }
}

/// The race oracle stays silent across 100 seeded random schedules of
/// the large shape, under the default, rollover, crash, and duplicate
/// configurations — no false positives outside the exhaustive catalog.
#[test]
fn race_oracle_clean_on_100_random_schedules() {
    let cfgs = [
        HarnessCfg::default(),
        HarnessCfg {
            lease: 10,
            ts_bits: 4,
            ..HarnessCfg::default()
        },
        HarnessCfg {
            crash_after_serves: Some((3, 0)),
            ..HarnessCfg::default()
        },
        HarnessCfg {
            topology: Topology::OnDie {
                duplicate_serves: true,
            },
            ..HarnessCfg::default()
        },
    ];
    for seed in 0u64..100 {
        let cfg = cfgs[(seed % 4) as usize];
        let choices: Vec<usize> = (0u64..24)
            .map(|i| {
                ((seed.wrapping_mul(2_246_822_519).wrapping_add(i * 68_041)) >> 9) as usize % 4
            })
            .collect();
        let mut m = MicroGtsc::new(&shape(), cfg);
        let (_, violations, races) = run_schedule(&mut m, &choices);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        assert!(races.is_empty(), "seed {seed}: {races:?}");
    }
}
