//! Fault storms: seeded chaos or lossy storms over micro kernels, on one
//! GPU or across several behind the fabric. Each storm is one [`RunKey`],
//! a pure function of its seed and the [`Soak`]'s knobs; a soak (seeds ×
//! scenarios) runs through [`Plan::run`](crate::Plan::run) like any
//! catalog row's runs. `stress_faults` runs the soak its flags describe,
//! the catalog's `multi_soak_smoke` row two.
//!
//! Storms run with the flight recorder on and the sanitizer off (they
//! measure the protocol, not the checker). A failing storm prints the
//! post-mortem of its [`RunOutcome`](crate::RunOutcome), the event tail
//! that led up to it included; a passing one has its tail audited by the
//! invariant catalog's offline driver (`gtsc_check::lint_events`).

use gtsc_faults::FaultStats;
use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
use gtsc_types::ConsistencyModel::{self, Rc, Sc};
use gtsc_types::{Addr, FabricConfig, FaultConfig, GpuConfig, Lease, ProtocolKind, TraceConfig};

use crate::harness::End;
use crate::matrix::{Fabric, RunKey, Runs, Workload};

/// Two CTAs of two warps hammering one block with atomics, stores, and
/// loads — the maximal-sharing workload from the fault test sweep.
#[must_use]
pub fn contended_atomics() -> VecKernel {
    let prog = |s: u64| {
        WarpProgram(
            (0..12)
                .map(|i| match (i + s) % 3 {
                    0 => WarpOp::atomic_coalesced(Addr(0), 32),
                    1 => WarpOp::store_coalesced(Addr(0), 32),
                    _ => WarpOp::load_coalesced(Addr(0), 32),
                })
                .collect(),
        )
    };
    VecKernel::new(
        "contend-atomic",
        2,
        vec![vec![prog(0), prog(1)], vec![prog(2), prog(3)]],
    )
}

/// One storm shape of a sweep: its name, consistency model and kernel, an
/// epoch budget shrunk to this many timestamp bits (a rollover storm),
/// and whether whole devices crash and rejoin (multi-GPU sweeps only).
#[derive(Debug, Clone, Copy)]
pub struct Scenario(
    pub &'static str,
    ConsistencyModel,
    Workload,
    Option<u32>,
    bool,
);

/// Message passing and contended atomics under SC and RC, and a 6-bit
/// rollover storm; the multi-GPU sweep spreads their CTAs across devices
/// (so the sharing lands on the fabric) and adds the last, a whole-device
/// crash/rejoin storm.
const SCENARIOS: [Scenario; 6] = {
    use Workload::{ContendedAtomics, MessagePassing};
    [
        Scenario("mp-sc", Sc, MessagePassing, None, false),
        Scenario("mp-rc", Rc, MessagePassing, None, false),
        Scenario("contend-sc", Sc, ContendedAtomics, None, false),
        Scenario("contend-rc", Rc, ContendedAtomics, None, false),
        Scenario("rollover-storm", Sc, ContendedAtomics, Some(6), false),
        Scenario("device-crash", Sc, ContendedAtomics, None, true),
    ]
};

/// A fault soak: every scenario at every seed, under `stress_faults`'
/// flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Soak {
    /// `--start` / `--seeds` (or `FAULT_SEED`): the seeds, in print order.
    pub seeds: Vec<u64>,
    /// `--drop-rate`: lossy storms, flits dropped per mille (corrupted at
    /// half of it) on top of the chaos, which arms the transport.
    pub drop_rate: Option<u16>,
    /// `--gpus`: this many devices (at least 2) under one home node.
    pub gpus: Option<usize>,
    /// `--fabric-drop-rate`: packet loss per mille on the fabric.
    pub fabric_drop: Option<u16>,
    /// `--partition`: link-down windows severing devices from the home.
    pub partition: bool,
}

impl Soak {
    /// The storm shapes this soak runs.
    #[must_use]
    pub fn scenarios(&self) -> &'static [Scenario] {
        let n = if self.gpus.is_some() { 6 } else { 5 };
        &SCENARIOS[..n]
    }

    /// The machine of one (seed, scenario) storm. The fabric gets its own
    /// seed-pure fault stream (loss, partitions, device crashes) from the
    /// multi knobs.
    #[must_use]
    pub fn key(&self, seed: u64, sc: &Scenario) -> RunKey {
        let Scenario(_, model, workload, ts_bits_cap, device_crashes) = *sc;
        let mut faults = match self.drop_rate {
            Some(p) => FaultConfig::lossy(seed, p),
            None => FaultConfig::chaos(seed),
        };
        let mut fabric = FabricConfig::default();
        if let Some(bits) = ts_bits_cap {
            faults.ts_bits_cap = bits;
            // The rebased grant must leave rollover headroom in the shrunken
            // timestamp budget (`MultiGpuSim::try_build` rejects it
            // otherwise): quarter of the range, mirroring the exhaustive
            // rollover litmus configuration.
            fabric.grant_lease = Lease(((1u64 << bits) / 4).min(fabric.grant_lease.0));
        }
        if let Some(p) = self.fabric_drop {
            fabric = fabric.lossy(seed, p);
        } else {
            // Partition and crash schedules still derive from the seed even
            // when the loss layer is off.
            fabric.faults.seed = seed;
        }
        if self.partition {
            fabric = fabric.with_partitions(2, 3_000, 1_500);
        }
        if device_crashes {
            fabric = fabric.with_device_crashes(2, 2_000);
        }
        let cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_consistency(model)
            .with_faults(faults)
            // Flight recorder on: a failing storm prints the event tail that
            // led up to it, not just counters (stall diagnoses carry theirs),
            // and a passing one has its tail audited.
            .with_trace(TraceConfig::flight());
        RunKey {
            workload,
            cfg,
            fabric: self.gpus.map(|devices| Fabric {
                devices,
                config: fabric,
            }),
        }
    }

    /// What the soak runs, as its header line names it.
    fn kind(&self) -> String {
        let storms = match self.drop_rate {
            Some(p) => format!("lossy storms ({p} permille drop)"),
            None => "chaos storms".to_string(),
        };
        let multi = [
            self.gpus.map(|n| format!(" across {n} GPUs")),
            self.fabric_drop
                .map(|p| format!(", fabric loss {p} permille")),
            self.partition.then(|| ", partitions scheduled".to_string()),
        ];
        storms + &multi.into_iter().flatten().collect::<String>()
    }

    /// The arguments a repro command needs to replay this soak.
    fn repro_args(&self) -> String {
        let flags = [
            self.drop_rate.map(|p| format!(" --drop-rate {p}")),
            self.gpus.map(|n| format!(" --gpus {n}")),
            self.fabric_drop.map(|p| format!(" --fabric-drop-rate {p}")),
            self.partition.then(|| " --partition".to_string()),
        ];
        let flags: String = flags.into_iter().flatten().collect();
        if flags.is_empty() {
            flags
        } else {
            format!(" --{flags}")
        }
    }

    /// How many storms the soak runs.
    #[must_use]
    pub fn storms(&self) -> usize {
        self.seeds.len() * self.scenarios().len()
    }

    /// One key per storm, seed-major.
    #[must_use]
    pub fn keys(&self) -> Vec<RunKey> {
        let scenarios = self.scenarios();
        let storm = |seed| scenarios.iter().map(move |sc| self.key(seed, sc));
        self.seeds.iter().flat_map(|&seed| storm(seed)).collect()
    }

    /// What `stress_faults` prints — the header, a failure and a repro
    /// line per storm that did not end clean, the fault totals and the
    /// verdict — and how many storms failed, from `runs` (a plan that
    /// includes the soak's keys).
    #[must_use]
    pub fn report(&self, runs: &Runs) -> (String, usize) {
        let scenarios = self.scenarios();
        let storms = self.storms();
        let mut text = format!(
            "== fault soak: {} seeds x {} scenarios = {storms} {} ==\n",
            self.seeds.len(),
            scenarios.len(),
            self.kind()
        );
        let mut totals = FaultStats::default();
        let mut failures = Vec::new();
        for &seed in &self.seeds {
            for sc in scenarios {
                let out = runs.outcome(&self.key(seed, sc));
                if let Some(s) = out.faults {
                    totals.merge(&s);
                }
                if out.end != End::Clean {
                    text += &format!("FAIL seed {seed} [{}]: {}\n", sc.0, out.post_mortem);
                    text += &format!(
                        "  repro: FAULT_SEED={seed} cargo run --release -p gtsc-bench --bin stress_faults{}\n",
                        self.repro_args()
                    );
                    failures.push((seed, sc.0));
                }
            }
        }
        text += &format!(
            "{storms} storms: {} packets jittered (+{} cycles), {} reordered, {} duplicated\n",
            totals.jittered, totals.extra_cycles, totals.reordered, totals.duplicated
        );
        if self.drop_rate.is_some() {
            text += &format!(
                "loss layer: {} dropped, {} corrupted, {} bank reset(s)\n",
                totals.dropped, totals.corrupted, totals.bank_resets
            );
            if totals.dropped == 0 && totals.corrupted == 0 {
                text += "WARN: lossy sweep never lost a packet — rate too low for this workload\n";
            }
        }
        if failures.is_empty() {
            text += "OK: zero coherence violations, zero stalls\n";
        } else {
            text += &format!("{} FAILING storm(s): {failures:?}\n", failures.len());
        }
        (text, failures.len())
    }
}
