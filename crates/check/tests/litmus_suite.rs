//! Exhaustive model checking of the full litmus catalog — the test-suite
//! twin of the `model_check` binary. Every schedule of every shape, on
//! die and across devices, runs through the real controllers and the
//! operational reference model; a failure prints every field of the run
//! so the offending outcome, sanitizer violation or oracle finding is
//! visible in CI logs.

use gtsc_check::litmus::{all_litmus, run_litmus, Mode};
use gtsc_check::Topology;

/// Plenty for the current catalog (the largest shapes, iriw-sc and
/// xiriw-sc, explore 180 schedules); a new shape that blows past this
/// should raise the cap deliberately, not silently truncate.
const MAX_SCHEDULES: u64 = 1_000_000;

#[test]
fn every_litmus_shape_passes_exhaustively() {
    let mut failures = Vec::new();
    for litmus in all_litmus() {
        let r = run_litmus(&litmus, MAX_SCHEDULES);
        assert!(
            !r.truncated,
            "{}: truncated at {} schedules — raise MAX_SCHEDULES deliberately",
            r.name, r.schedules
        );
        if !r.ok() {
            failures.push(format!(
                "{}\n  impl outcomes: {:?}\n  spec outcomes: {:?}\n  unexplained: {:?}\n  \
                 forbidden hits: {:?}\n  missing required: {:?}\n  sanitizer: {:?}\n  races: {:?}",
                r.summary(),
                r.impl_outcomes,
                r.spec_outcomes,
                r.unexplained,
                r.forbidden_hits,
                r.missing_required,
                r.sanitizer_violations,
                r.race_findings
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "litmus failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn catalog_covers_both_modes_rollover_and_the_fabric() {
    // Guard the catalog's breadth: dropping the RC shapes, the tiny
    // timestamp-width shapes, or any of MP across devices, IRIW across
    // four devices and the device-crash variant would quietly shrink
    // what CI proves.
    let (fabric, on_die): (Vec<_>, Vec<_>) = all_litmus()
        .into_iter()
        .partition(|l| matches!(l.cfg.topology, Topology::Fabric { .. }));

    assert!(
        on_die.len() >= 10,
        "on-die catalog shrank to {}",
        on_die.len()
    );
    assert!(on_die.iter().any(|l| l.mode == Mode::Rc));
    assert!(
        on_die.iter().any(|l| l.cfg.ts_bits <= 5),
        "no shape forces Section V-D rollover any more"
    );

    assert!(
        fabric.len() >= 3,
        "cross-GPU catalog shrank to {}",
        fabric.len()
    );
    assert!(fabric.iter().any(|l| l.name == "xmp-sc"));
    assert!(
        fabric
            .iter()
            .any(|l| l.threads.iter().map(|(d, _)| *d).max().unwrap_or(0) >= 3),
        "no shape spans four devices any more"
    );
    assert!(
        fabric.iter().any(|l| l.cfg.crash_after_serves.is_some()),
        "no shape crashes a device mid-litmus any more"
    );
}
