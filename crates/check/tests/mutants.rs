//! The mutant kill matrix: which layer's rules kill which seeded bug.
//!
//! Each [`ProtocolMutation`] disables exactly one protocol guard in the
//! real controllers (behind a test-only hook; production code never
//! sets it). [`witness`] names, for every mutant, the litmus shape that
//! kills it and the exact rules it must raise there — per-event rules
//! (the invariant catalog, through the online sanitizer) and race-oracle
//! rules — over every exhaustively explored schedule. One loop asserts
//! the table both ways: every listed rule fires on some schedule, no
//! unlisted rule fires on any, and the healthy control of each shape is
//! clean, so a flag can never be a false positive of the shape itself.
//!
//! The rendered table is `results/kill_matrix.txt`; the test compares a
//! fresh rendering with the committed file, so a rule that starts or
//! stops killing a mutant shows up as a diff to review, not as silence.
//!
//! The same shapes also show the two sinks of the catalog agree on the
//! real controllers: judged offline, each run's full recording raises
//! exactly the [`Fed::Both`] part of what the live sink raised.

use std::collections::BTreeSet;

use gtsc_check::explore::{explore_all, Schedulable};
use gtsc_check::harness::{HarnessCfg, MicroGtsc, Topology};
use gtsc_check::lint_events;
use gtsc_check::litmus::{on_die, Op};
use gtsc_core::ProtocolMutation;
use gtsc_trace::{Fed, RULES};

fn ld(id: u32, block: u64) -> Op {
    Op::Load { id, block }
}
fn st(block: u64, label: u32) -> Op {
    Op::Store { block, label }
}

/// Every seeded mutant. [`witness`] is exhaustive over the enum, so a
/// new variant does not compile until it has a killing shape there —
/// add it here in the same edit.
const MUTANTS: [ProtocolMutation; 4] = [
    ProtocolMutation::ServeReadPastRts,
    ProtocolMutation::SkipLeaseExpiryOnStore,
    ProtocolMutation::SkipEpochBumpOnRecovery,
    ProtocolMutation::ServePastGrantRts,
];

/// Threads, healthy configuration, and the exact per-event and oracle
/// rules the mutant raises over every schedule of the shape.
type Witness = (
    Vec<(u16, Vec<Op>)>,
    HarnessCfg,
    &'static [&'static str],
    &'static [&'static str],
);

/// The shape that kills mutant `m`.
fn witness(m: ProtocolMutation) -> Witness {
    match m {
        ProtocolMutation::None => unreachable!("the control, not a mutant"),
        // The L1 serves hits past the lease's `rts`. The reader's third
        // load hits a resident-but-expired line: T1 re-reads block 0
        // after its warp timestamp was dragged past the original lease
        // by T0's stores. The hit itself breaks Figure 2's condition
        // (`load-past-rts`, a purely local check); the oracle, which
        // models the lease from the message stream, sees the read
        // serialized outside its granted interval.
        ProtocolMutation::ServeReadPastRts => (
            on_die([
                vec![st(0, 1), st(1, 2)],
                vec![ld(10, 0), ld(11, 1), ld(12, 0)],
            ]),
            HarnessCfg::default(),
            &["load-past-rts"],
            &["read-overlaps-write", "read-past-lease"],
        ),
        // The L2 stamps stores with `max(wts+1, warp_ts)` instead of
        // `max(rts+1, warp_ts)`, landing commits inside outstanding read
        // leases: a reader leases a block, then a writer stores to it.
        // Per-block `wts` stays strictly increasing, so the write-order
        // rules stay silent; both layers compare the commit against the
        // granted-`rts` high-water mark instead.
        ProtocolMutation::SkipLeaseExpiryOnStore => (
            on_die([vec![st(0, 9)], vec![ld(10, 0), ld(11, 0)]]),
            HarnessCfg::default(),
            &["store-before-lease-expiry"],
            &["store-inside-lease"],
        ),
        // Bank recovery keeps the old epoch, so orphaned L1 leases are
        // never invalidated. Message passing across a bank crash (it
        // lands before the second serve on every schedule): anything
        // the bank hands out after the crash still carries the epoch it
        // crashed in.
        ProtocolMutation::SkipEpochBumpOnRecovery => (
            on_die([vec![st(0, 1), st(1, 2)], vec![ld(10, 1), ld(11, 0)]]),
            HarnessCfg {
                crash_after_serves: Some((2, 0)),
                ..HarnessCfg::default()
            },
            &[
                "crash-epoch-reuse",
                "grant-rts-regression",
                "grant-wts-regression",
            ],
            &["missing-epoch-bump"],
        ),
        // The device serves local reads with the uncapped lease
        // extension instead of nesting it inside its inter-GPU grant.
        // With L1 leases longer than the grant, a healthy device must
        // clamp every lease it hands out (`nest_rts`) while the mutant's
        // escapes the grant on the very first forwarded read; the
        // oracle's `lease-outside-grant` rule models the device's held
        // grants from its own install stream, the catalog's from the
        // device's reports.
        ProtocolMutation::ServePastGrantRts => (
            vec![(0, vec![st(0, 1)]), (1, vec![ld(10, 0), ld(11, 0)])],
            HarnessCfg {
                lease: 64,
                topology: Topology::Fabric { grant_lease: 16 },
                ..HarnessCfg::default()
            },
            &["lease-beyond-grant", "serve-outside-device-grant"],
            &["lease-outside-grant"],
        ),
    }
}

/// The matrix as aligned text: one row per mutant, one column per
/// layer, each cell the rules that layer raised (`-` for none).
fn render(rows: &[(ProtocolMutation, BTreeSet<&str>, BTreeSet<&str>)]) -> String {
    let cell = |rules: &BTreeSet<&str>| match rules.len() {
        0 => "-".to_owned(),
        _ => rules.iter().copied().collect::<Vec<_>>().join(", "),
    };
    let mut table = vec![[
        "mutant".to_owned(),
        "per-event rules (invariant catalog)".to_owned(),
        "race-oracle rules".to_owned(),
    ]];
    for (m, per_event, oracle) in rows {
        table.push([format!("{m:?}"), cell(per_event), cell(oracle)]);
    }
    let width = |col: usize| table.iter().map(|r| r[col].len()).max().unwrap_or(0) + 2;
    let (w0, w1) = (width(0), width(1));
    table
        .iter()
        .map(|[m, per_event, oracle]| format!("{m:<w0$}{per_event:<w1$}{oracle}\n"))
        .collect()
}

#[test]
fn the_kill_matrix_is_exact_and_every_control_is_clean() {
    let mut matrix = Vec::new();
    for m in MUTANTS {
        let (threads, healthy, per_event, oracle) = witness(m);

        let control = explore_all(|| MicroGtsc::new(&threads, healthy), 200_000);
        assert!(!control.truncated);
        for (_, violations, races) in &control.outcomes {
            assert!(violations.is_empty(), "{m:?} control: {violations:?}");
            assert!(races.is_empty(), "{m:?} control: {races:?}");
        }

        let cfg = HarnessCfg {
            mutation: m,
            ..healthy
        };
        let r = explore_all(|| MicroGtsc::new(&threads, cfg), 200_000);
        assert!(!r.truncated, "mutant exploration must stay exhaustive");
        let raised_by_catalog: BTreeSet<&str> = (r.outcomes.iter())
            .flat_map(|(_, v, _)| v.iter().map(|f| f.rule))
            .collect();
        let raised_by_oracle: BTreeSet<&str> = (r.outcomes.iter())
            .flat_map(|(_, _, races)| races.iter().map(|f| f.rule))
            .collect();
        assert_eq!(
            raised_by_catalog,
            per_event.iter().copied().collect(),
            "{m:?}: per-event rules raised over every schedule"
        );
        assert_eq!(
            raised_by_oracle,
            oracle.iter().copied().collect(),
            "{m:?}: oracle rules raised over every schedule"
        );
        assert!(
            !raised_by_oracle.is_empty(),
            "{m:?}: every mutant must be killed by the oracle"
        );
        for rule in &raised_by_catalog {
            assert!(
                gtsc_trace::RULES.iter().any(|r| r.name == *rule),
                "`{rule}` is not a catalog rule"
            );
        }
        matrix.push((m, raised_by_catalog, raised_by_oracle));
    }
    let fresh = render(&matrix);
    assert_eq!(
        fresh,
        include_str!("../../../results/kill_matrix.txt"),
        "results/kill_matrix.txt is stale; the fresh table is:\n{fresh}"
    );
}

/// A run judged by both sinks: live, and offline over its recording.
struct Recorded(MicroGtsc);

impl Schedulable for Recorded {
    /// The rules the live sink raised, and those the recording raised.
    type Outcome = (BTreeSet<&'static str>, BTreeSet<&'static str>);

    fn fanout(&self) -> usize {
        self.0.fanout()
    }

    fn choose(&mut self, idx: usize) {
        self.0.choose(idx);
    }

    fn outcome(&self) -> Self::Outcome {
        let (_, live, _) = self.0.outcome();
        let recorded = lint_events(&self.0.recording()).findings;
        let rules = |f: &[gtsc_check::Finding]| f.iter().map(|f| f.rule).collect();
        (rules(&live), rules(&recorded))
    }
}

#[test]
fn every_recording_raises_the_both_fed_part_of_the_live_findings() {
    let both: BTreeSet<&str> = (RULES.iter())
        .filter(|r| r.fed == Fed::Both)
        .map(|r| r.name)
        .collect();
    for m in MUTANTS {
        let (threads, healthy, per_event, _) = witness(m);
        for mutation in [ProtocolMutation::None, m] {
            let cfg = HarnessCfg {
                mutation,
                ..healthy
            };
            let r = explore_all(|| Recorded(MicroGtsc::new(&threads, cfg)), 200_000);
            assert!(!r.truncated);
            let mut recorded_any = BTreeSet::new();
            for (live, recorded) in &r.outcomes {
                let expected: BTreeSet<_> = live.intersection(&both).copied().collect();
                assert_eq!(recorded, &expected, "{mutation:?} on {m:?}'s shape");
                recorded_any.extend(recorded);
            }
            let want: BTreeSet<_> = match mutation {
                ProtocolMutation::None => BTreeSet::new(),
                _ => (per_event.iter().copied())
                    .filter(|r| both.contains(r))
                    .collect(),
            };
            assert_eq!(recorded_any, want, "{mutation:?}: raised offline");
        }
    }
}
