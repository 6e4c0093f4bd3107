//! Oracle validation against seeded protocol mutants.
//!
//! Each [`ProtocolMutation`] disables exactly one protocol guard in the
//! real controllers (behind a test-only hook; production code never
//! sets it). [`witness`] names, for every mutant, the litmus shape that
//! kills it, and one loop asserts the contract the race oracle claims:
//!
//! * every mutant is flagged on at least one exhaustively-explored
//!   schedule of its shape, and
//! * some mutants are invisible to the online transition sanitizer on
//!   *every* schedule — the oracle catches bugs the sanitizer
//!   structurally cannot see, because the sanitizer checks local
//!   transition invariants while the oracle checks global ordering
//!   against message causality.
//!
//! The healthy control of each shape runs in the same loop, so a flag
//! can never be a false positive of the shape itself.

use gtsc_check::explore::explore_all;
use gtsc_check::harness::{HarnessCfg, MicroGtsc, Topology};
use gtsc_check::litmus::{on_die, Op};
use gtsc_core::ProtocolMutation;

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

/// Threads, healthy configuration, the oracle rule that must fire, and
/// whether the sanitizer must stay silent on every schedule.
type Witness = (Vec<(u16, Vec<Op>)>, HarnessCfg, &'static str, bool);

/// The shape that kills mutant `m`.
fn witness(m: ProtocolMutation) -> Witness {
    match m {
        ProtocolMutation::None => unreachable!("the control, not a mutant"),
        // The L1 serves hits past the lease's `rts`. The reader's third
        // load hits a resident-but-expired line: T1 re-reads block 0
        // after its warp timestamp was dragged past the original lease
        // by T0's stores. The sanitizer (which only checks
        // warp-timestamp monotonicity and per-line invariants) stays
        // silent; the oracle flags the read serialized outside its
        // granted interval.
        ProtocolMutation::ServeReadPastRts => (
            on_die([
                vec![st(0, 1), st(1, 2)],
                vec![ld(10, 0), ld(11, 1), ld(12, 0)],
            ]),
            HarnessCfg::default(),
            "read-past-lease",
            true,
        ),
        // The L2 stamps stores with `max(wts+1, warp_ts)` instead of
        // `max(rts+1, warp_ts)`, landing commits inside outstanding read
        // leases: a reader leases a block, then a writer stores to it.
        // Per-block `wts` stays strictly increasing, so the sanitizer's
        // monotonicity checks pass; the oracle compares the commit
        // against the granted-lease high-water mark and flags it.
        ProtocolMutation::SkipLeaseExpiryOnStore => (
            on_die([vec![st(0, 9)], vec![ld(10, 0), ld(11, 0)]]),
            HarnessCfg::default(),
            "store-inside-lease",
            true,
        ),
        // Bank recovery keeps the old epoch, so orphaned L1 leases are
        // never invalidated. Message passing across a bank crash (it
        // lands before the second serve on every schedule): the oracle's
        // crash rule demands a strictly newer epoch on the bank's first
        // post-crash grant.
        ProtocolMutation::SkipEpochBumpOnRecovery => (
            on_die([vec![st(0, 1), st(1, 2)], vec![ld(10, 1), ld(11, 0)]]),
            HarnessCfg {
                crash_after_serves: Some((2, 0)),
                ..HarnessCfg::default()
            },
            "missing-epoch-bump",
            false,
        ),
        // The device serves local reads with the uncapped lease
        // extension instead of nesting it inside its inter-GPU grant.
        // With L1 leases longer than the grant, a healthy device must
        // clamp every lease it hands out (`nest_rts`) while the mutant's
        // escapes the grant on the very first forwarded read; the
        // oracle's `lease-outside-grant` rule — which models the
        // device's held grants from its own install stream — flags it.
        ProtocolMutation::ServePastGrantRts => (
            vec![(0, vec![st(0, 1)]), (1, vec![ld(10, 0), ld(11, 0)])],
            HarnessCfg {
                lease: 64,
                topology: Topology::Fabric { grant_lease: 16 },
                ..HarnessCfg::default()
            },
            "lease-outside-grant",
            false,
        ),
    }
}

#[test]
fn every_mutant_is_killed_by_the_oracle_and_every_control_is_clean() {
    for m in MUTANTS {
        let (threads, healthy, rule, sanitizer_must_stay_silent) = witness(m);

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
        let flagged = r
            .outcomes
            .iter()
            .any(|(_, _, races)| races.iter().any(|f| f.contains(rule)));
        assert!(flagged, "{m:?}: the oracle must raise `{rule}`");
        if sanitizer_must_stay_silent {
            let sanitizer_fired = r.outcomes.iter().any(|(_, v, _)| !v.is_empty());
            assert!(
                !sanitizer_fired,
                "{m:?} must be invisible to the sanitizer — if it became \
                 visible, the 'oracle catches what the sanitizer misses' \
                 claim needs a new witness"
            );
        }
    }
}
