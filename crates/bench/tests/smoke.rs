//! End-to-end smoke: every benchmark completes under every evaluated
//! system, coherence holds wherever it must, the experiment catalog
//! simulates each of its runs once, and a figure refuses a run that did
//! not end clean.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use gtsc_bench::{catalog, config_for, paper_configs, End, Experiment, Plan, RunKey};
use gtsc_bench::{RunOutcome, Runs, Workload};
use gtsc_types::{ConsistencyModel, ProtocolKind};
use gtsc_workloads::{Benchmark, Scale};

#[test]
fn all_benchmarks_all_systems_small() {
    for b in Benchmark::all() {
        for pc in paper_configs() {
            if pc.protocol == ProtocolKind::L1NoCoherence && b.requires_coherence() {
                continue; // the paper does not run the incoherent baseline on group A
            }
            let out = RunKey::new(Workload::Bench(b), pc.cfg()).run(Scale::Small);
            assert!(out.stats.cycles.0 > 0, "{} {}", b.name(), pc.label);
            assert_eq!(out.end, End::Clean, "{} under {}", b.name(), pc.label);
        }
        // And the BL divisor.
        let bl = config_for(ProtocolKind::NoL1, ConsistencyModel::Rc);
        let out = RunKey::new(Workload::Bench(b), bl).run(Scale::Small);
        assert_eq!(out.end, End::Clean, "{} under BL", b.name());
    }
}

/// The rows whose runs are fault runs: in a debug build the scan takes
/// ~10 s and the smoke ~50 s, so the tests here count their keys through
/// the hook instead of simulating them (release CI simulates them).
const STORM_ROWS: [&str; 2] = ["bank_crash_scan", "multi_soak_smoke"];

/// `repro all`'s plan: the rows read 1412 runs, of which 1058 are
/// distinct (checked without running them; 194 of them the paper rows',
/// 96 the scan's, 768 the smoke's); every distinct run is simulated
/// exactly once; and what the rows print does not depend on the number
/// of workers.
#[test]
fn the_catalog_simulates_each_distinct_run_once() {
    let rows = catalog();
    let all: Vec<&Experiment> = rows.iter().collect();
    assert_eq!(rows.iter().map(|r| r.runs.len()).sum::<usize>(), 1412);
    assert_eq!(Plan::new(&all, Scale::Full).keys.len(), 1058);

    let plan = Plan::new(&all, Scale::Tiny);
    let storm_rows = rows.iter().filter(|r| STORM_ROWS.contains(&r.name));
    let storms: Vec<&RunKey> = storm_rows.flat_map(|r| &r.runs).collect();
    assert_eq!(storms.len(), 96 + 768);
    let simulate = |key: &RunKey, scale| {
        if storms.contains(&key) {
            RunOutcome::default()
        } else {
            key.run(scale)
        }
    };
    let simulated = Mutex::new(Vec::new());
    let on_two = plan.run(2, |key, scale| {
        simulated.lock().unwrap().push(key.clone());
        simulate(key, scale)
    });
    let simulated = simulated.into_inner().unwrap();
    assert_eq!(simulated.len(), plan.keys.len());
    for key in &plan.keys {
        assert_eq!(simulated.iter().filter(|k| *k == key).count(), 1, "{key:?}");
    }

    let print = |runs: &Runs| -> String { rows.iter().map(|r| (r.render)(runs).text).collect() };
    assert_eq!(print(&on_two), print(&plan.run(1, simulate)));
}

/// The clean-run guarantee needs no per-row flag: a figure row's
/// `Runs::get` panics on a run that ended with a violation or an error,
/// while the scan, which reads the verdict, prints each as its line.
#[test]
fn figure_rows_refuse_the_runs_the_scan_reports() {
    let rows = catalog();
    let row = |name| rows.iter().find(|r| r.name == name).expect("a catalog row");
    let (fig12, scan) = (row("fig12"), row("bank_crash_scan"));
    let plan = Plan::new(&[fig12, scan], Scale::Tiny);
    let lost = "timestamp-order violation at B0x1: load by sm0 at cyc9 with key (e0, ts1) \
                observed v0 but the latest store ≤ key wrote v5";
    let ends = [
        (End::Violated(lost.into()), format!("lost store: {lost}")),
        (End::Error("stalled".into()), "error: stalled".into()),
    ];
    for (end, verdict) in ends {
        let runs = plan.run(2, |_, _| RunOutcome {
            end: end.clone(),
            ..RunOutcome::default()
        });
        let text = (scan.render)(&runs).text;
        assert!(
            text.starts_with(&format!("lossy STN seed 1: {verdict}\n")),
            "{text}"
        );
        let last = format!("chaos VPR seed 16: {verdict}\n96 of 96\n");
        assert!(text.ends_with(&last), "{text}");
        let figure = catch_unwind(AssertUnwindSafe(|| (fig12.render)(&runs)));
        assert!(figure.is_err(), "fig12 rendered from runs ending {end:?}");
    }
}
