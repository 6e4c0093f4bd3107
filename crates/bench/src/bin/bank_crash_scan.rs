//! The bank-crash scan: how many runs of a fixed 96-run matrix end with
//! a coherence violation when L2 banks crash mid-kernel (ROADMAP item 1).
//!
//! Matrix: `GpuConfig::paper_default()` under G-TSC-RC; STN, BH and VPR
//! at `Scale::Small`; seeds 1–16; two fault plans, `FaultConfig::lossy
//! (seed, 20)` and `FaultConfig::chaos(seed)`, each with
//! `.with_bank_crashes(2, 400)` (two crash/recovery events in cycles
//! `[1, 400]`).
//!
//! Prints one line per failing run — plan, benchmark, seed, the shape of
//! its first violation and the violation itself — then `N of 96`. The
//! checker's text tells the two known shapes apart: a *lost store*
//! observed `v0` where a store had written `vN`, a *read from the future*
//! observed `vN` where the latest store at or below its key wrote `v0`.
//! A run that errors (stall, cycle limit) is listed with its error.
//!
//! Run: `cargo run --release -p gtsc-bench --bin bank_crash_scan`
//! (about a second); `results/bank_crash_scan.txt` is its output.

use gtsc_sim::GpuSim;
use gtsc_types::{ConsistencyModel, FaultConfig, GpuConfig, ProtocolKind};
use gtsc_workloads::{Benchmark, Scale};

/// The shape of a violation line, from the checker's own wording.
fn shape(violation: &str) -> &'static str {
    let observed_v0 = violation.contains("observed v0 ");
    let wrote_v0 = violation.ends_with("wrote v0");
    match (observed_v0, wrote_v0) {
        (true, false) => "lost store",
        (false, true) => "read from future",
        _ => "other",
    }
}

fn main() {
    type Plan = fn(u64) -> FaultConfig;
    let plans: [(&str, Plan); 2] = [
        ("lossy", |seed| FaultConfig::lossy(seed, 20)),
        ("chaos", FaultConfig::chaos),
    ];
    let benchmarks = [Benchmark::Stn, Benchmark::Bh, Benchmark::Vpr];
    let (mut runs, mut failing) = (0, 0);
    for (plan, faults) in plans {
        for benchmark in benchmarks {
            let kernel = benchmark.build(Scale::Small);
            for seed in 1..=16 {
                let cfg = GpuConfig::paper_default()
                    .with_protocol(ProtocolKind::Gtsc)
                    .with_consistency(ConsistencyModel::Rc)
                    .with_faults(faults(seed).with_bank_crashes(2, 400));
                runs += 1;
                let verdict = match GpuSim::new(cfg).run_kernel(kernel.as_ref()) {
                    Ok(report) => report.violations.first().map(|v| {
                        let text = v.to_string();
                        format!("{}: {text}", shape(&text))
                    }),
                    Err(e) => Some(format!("error: {e}")),
                };
                if let Some(verdict) = verdict {
                    failing += 1;
                    println!("{plan} {} seed {seed}: {verdict}", benchmark.name());
                }
            }
        }
    }
    println!("{failing} of {runs}");
}
