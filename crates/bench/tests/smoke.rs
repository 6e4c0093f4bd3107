//! End-to-end smoke: every benchmark completes under every evaluated
//! system, coherence holds wherever it must, and the experiment catalog
//! simulates each of its runs once.

use std::sync::Mutex;

use gtsc_bench::{catalog, paper_configs, run_benchmark, Experiment, Plan, RunKey, Runs};
use gtsc_types::{ConsistencyModel, ProtocolKind};
use gtsc_workloads::{Benchmark, Scale};

#[test]
fn all_benchmarks_all_systems_small() {
    for b in Benchmark::all() {
        for pc in paper_configs() {
            if pc.protocol == ProtocolKind::L1NoCoherence && b.requires_coherence() {
                continue; // the paper does not run the incoherent baseline on group A
            }
            let out = run_benchmark(b, pc.protocol, pc.consistency, Scale::Small);
            assert!(out.stats.cycles.0 > 0, "{} {}", b.name(), pc.label);
            assert_eq!(
                out.violations,
                0,
                "{} under {} violated coherence",
                b.name(),
                pc.label
            );
        }
        // And the BL divisor.
        let out = run_benchmark(b, ProtocolKind::NoL1, ConsistencyModel::Rc, Scale::Small);
        assert_eq!(out.violations, 0, "{} under BL", b.name());
    }
}

/// `repro all`'s plan: the rows read 548 runs at full scale, of which 194
/// are distinct (checked without running them); every distinct run is
/// simulated exactly once; and what the rows print does not depend on the
/// number of workers.
#[test]
fn the_catalog_simulates_each_distinct_run_once() {
    let rows = catalog();
    let all: Vec<&Experiment> = rows.iter().collect();
    assert_eq!(rows.iter().map(|r| r.runs.len()).sum::<usize>(), 548);
    assert_eq!(Plan::new(&all, Scale::Full).keys.len(), 194);

    let plan = Plan::new(&all, Scale::Tiny);
    let simulated = Mutex::new(Vec::new());
    let on_two = plan.run(2, |key| {
        simulated.lock().unwrap().push(key.clone());
        key.run()
    });
    let simulated = simulated.into_inner().unwrap();
    assert_eq!(simulated.len(), plan.keys.len());
    for key in &plan.keys {
        assert_eq!(simulated.iter().filter(|k| *k == key).count(), 1, "{key:?}");
    }

    let print = |runs: &Runs| -> String { rows.iter().map(|r| (r.render)(runs).text).collect() };
    assert_eq!(print(&on_two), print(&plan.run(1, RunKey::run)));
}
