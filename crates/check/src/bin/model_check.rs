//! Exhaustive litmus model checking of the G-TSC controllers.
//!
//! Runs every schedule of every catalog shape through the real
//! controllers and the operational reference model: the on-die shapes
//! (including IRIW) over one `GtscL2` bank, the cross-GPU ones (threads
//! pinned to devices under a shared home node, including
//! IRIW-across-devices and a device-crash variant) over the fabric
//! memory side of the same harness. Prints per-shape schedule counts
//! and outcome sets. Exits nonzero if any shape fails
//! soundness (`impl ⊆ spec`), shows a forbidden outcome, misses a
//! required outcome, trips the transition sanitizer, or is flagged by
//! the happens-before race oracle on any schedule. `--races` prints the
//! oracle's verdict per shape even when clean.
//!
//! ```text
//! model_check [--verbose] [--races] [--max-schedules N]
//! ```

use gtsc_check::litmus::{all_litmus, run_litmus, LitmusRun};

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Prints one run's report; returns whether it failed.
fn report(r: &LitmusRun, verbose: bool, races: bool) -> bool {
    println!("{}", r.summary());
    if verbose || !r.ok() {
        for o in &r.impl_outcomes {
            let tag = if r.spec_outcomes.contains(o) {
                "ok  "
            } else {
                "UNEXPLAINED"
            };
            println!("    {tag} {o:?}");
        }
    }
    if races {
        if r.race_findings.is_empty() {
            println!("    race oracle: clean on every schedule");
        } else {
            println!(
                "    race oracle: {} distinct finding(s)",
                r.race_findings.len()
            );
        }
    }
    if r.ok() {
        return false;
    }
    if r.truncated {
        println!(
            "    FAIL: exploration truncated at {} schedules",
            r.schedules
        );
    }
    for o in &r.unexplained {
        println!("    FAIL: outcome not producible by the reference model: {o:?}");
    }
    for (name, o) in &r.forbidden_hits {
        println!("    FAIL: forbidden outcome `{name}` observed: {o:?}");
    }
    for name in &r.missing_required {
        println!("    FAIL: required outcome `{name}` never observed");
    }
    for v in &r.sanitizer_violations {
        println!("    FAIL: {v}");
    }
    for f in &r.race_findings {
        println!("    FAIL: race oracle: {f}");
    }
    true
}

fn main() {
    let verbose = std::env::args().any(|a| a == "--verbose");
    let races = std::env::args().any(|a| a == "--races");
    let max_schedules = arg_value("--max-schedules").map_or(1_000_000, |v| {
        v.parse().expect("--max-schedules takes a number")
    });

    let mut failed = 0usize;
    println!("G-TSC litmus model check (every schedule, real controllers vs reference model)");
    println!();
    for litmus in all_litmus() {
        let r = run_litmus(&litmus, max_schedules);
        failed += usize::from(report(&r, verbose, races));
    }
    println!();
    if failed > 0 {
        println!("model check FAILED for {failed} litmus shape(s)");
        std::process::exit(1);
    }
    println!("model check passed");
}
