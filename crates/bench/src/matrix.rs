//! The experiment matrix: the union of the [catalog](mod@crate::catalog)
//! rows' runs, deduplicated by `==` (a `with_lease(Lease(10))` or
//! `ts_bits = 16` variant *is* the default config and runs once),
//! simulated once each over a fixed number of threads. Rows render
//! afterwards from [`Runs`], so what they print does not depend on the
//! thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use gtsc_gpu::{Kernel, VecKernel, WarpOp, WarpProgram};
use gtsc_sim::{GpuSim, MultiGpuSim};
use gtsc_types::{Addr, FabricConfig, GpuConfig, MultiGpuConfig};
use gtsc_workloads::{micro, Benchmark, Scale};

use crate::catalog::Experiment;
use crate::harness::{device_fabric_hotspots, End, RunOutcome};
use crate::storm;

/// What a run simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One of the paper's twelve benchmarks, at the plan's scale.
    Bench(Benchmark),
    /// One of them at a scale the row fixes, whatever the plan's.
    BenchAt(Benchmark, Scale),
    /// §VI-E's load-dominated sharing kernel ([`load_dominated`]).
    LoadDominated,
    /// The fault storms' message-passing litmus, three rounds.
    MessagePassing,
    /// The fault storms' contended atomics ([`storm::contended_atomics`]).
    ContendedAtomics,
}

impl Workload {
    /// The kernel, a benchmark of [`Workload::Bench`] at `scale`; the
    /// other kernels have a size of their own.
    fn kernel(self, scale: Scale) -> Box<dyn Kernel> {
        match self {
            Workload::Bench(b) => b.build(scale),
            Workload::BenchAt(b, scale) => b.build(scale),
            Workload::LoadDominated => Box::new(load_dominated()),
            Workload::MessagePassing => Box::new(micro::message_passing(3)),
            Workload::ContendedAtomics => Box::new(storm::contended_atomics()),
        }
    }
}

/// A multi-GPU machine: `devices` GPUs behind one fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fabric {
    /// Devices the kernel's CTAs spread over.
    pub devices: usize,
    /// The fabric and its home node.
    pub config: FabricConfig,
}

/// One simulation of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunKey {
    /// The kernel.
    pub workload: Workload,
    /// The GPU it runs on (each device, on a multi-GPU machine).
    pub cfg: GpuConfig,
    /// `Some`: the GPUs are several devices behind a fabric
    /// (`MultiGpuSim`); `None`: one (`GpuSim`).
    pub fabric: Option<Fabric>,
}

impl RunKey {
    /// `workload` on one GPU under `cfg`.
    #[must_use]
    pub fn new(workload: Workload, cfg: GpuConfig) -> Self {
        RunKey {
            workload,
            cfg,
            fabric: None,
        }
    }

    /// Simulates the key, a [`Workload::Bench`] at `scale`, and estimates
    /// its energy. A violation or an error does not panic: the outcome's
    /// [`End`] records it.
    #[must_use]
    pub fn run(&self, scale: Scale) -> RunOutcome {
        let (kernel, gpu) = (self.workload.kernel(scale), self.cfg.clone());
        let Some(Fabric { devices, config }) = self.fabric else {
            let mut sim = GpuSim::new(gpu);
            let run = sim.run_kernel(kernel.as_ref());
            return RunOutcome::new(run, sim.fault_stats(), || sim.flight_tail());
        };
        let mut sim = MultiGpuSim::new(MultiGpuConfig {
            n_devices: devices,
            gpu,
            fabric: config,
        });
        let run = sim.run_kernel(kernel.as_ref());
        let mut out = RunOutcome::new(run, sim.fault_stats(), || sim.flight_tail());
        // A failing multi-GPU run gets the device-scoped post-mortem: which
        // link was hot in the tail, and what each device was stalled on.
        if out.end != End::Clean {
            let hot = device_fabric_hotspots(&sim.flight_tail(), devices);
            let stalls = sim.device_stalls().into_iter().map(|d| d.to_string());
            for line in hot.into_iter().chain(stalls) {
                out.post_mortem += &format!("\n  {line}");
            }
        }
        out
    }
}

/// The distinct runs a set of rows needs, in first-use order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The scale a [`Workload::Bench`] runs at.
    pub scale: Scale,
    /// Distinct keys.
    pub keys: Vec<RunKey>,
}

impl Plan {
    /// The union of `rows`' runs, each once, benchmarks at `scale`.
    #[must_use]
    pub fn new(rows: &[&Experiment], scale: Scale) -> Self {
        let mut keys: Vec<RunKey> = Vec::new();
        for key in rows.iter().flat_map(|r| &r.runs) {
            if !keys.contains(key) {
                keys.push(key.clone());
            }
        }
        Plan { scale, keys }
    }

    /// Simulates every key on `workers` threads with `simulate`
    /// ([`RunKey::run`] but in tests): threads claim keys from a shared
    /// next-index, so each is simulated once.
    #[must_use]
    pub fn run(
        &self,
        workers: usize,
        simulate: impl Fn(&RunKey, Scale) -> RunOutcome + Sync,
    ) -> Runs {
        // `Relaxed`: the index publishes nothing; each outcome is published
        // by its `OnceLock` and read after the scope joins every thread.
        let next = AtomicUsize::new(0);
        let done: Vec<OnceLock<RunOutcome>> = self.keys.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers.clamp(1, self.keys.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(key) = self.keys.get(i) else { break };
                    let _ = done[i].set(simulate(key, self.scale));
                });
            }
        });
        let outcomes = done
            .into_iter()
            .map(|d| d.into_inner().expect("every key ran"))
            .collect();
        Runs {
            scale: self.scale,
            keys: self.keys.clone(),
            outcomes,
        }
    }
}

/// The outcomes of a [`Plan`], looked up by key.
#[derive(Debug, Clone)]
pub struct Runs {
    /// The scale a [`Workload::Bench`] ran at.
    pub scale: Scale,
    keys: Vec<RunKey>,
    outcomes: Vec<RunOutcome>,
}

impl Runs {
    /// The outcome of `key`, however the run ended: what the bank-crash
    /// scan and the fault soaks read. Panics if the plan did not include
    /// it: a row read a run it does not declare.
    #[must_use]
    pub fn outcome(&self, key: &RunKey) -> &RunOutcome {
        // The fault seed first: it tells a soak's storms apart at one compare.
        let same = |k: &RunKey| k.cfg.faults.seed == key.cfg.faults.seed && k == key;
        let i = self.keys.iter().position(same);
        &self.outcomes[i.unwrap_or_else(|| panic!("{key:?} is not in the plan"))]
    }

    /// The outcome of `workload` on one GPU under `cfg`. Panics if the
    /// plan did not include that run, or if it did not end clean: a
    /// figure reads only coherent, completed runs (no run of one is the
    /// non-coherent baseline on a workload that needs coherence).
    #[must_use]
    pub fn get(&self, workload: Workload, cfg: &GpuConfig) -> &RunOutcome {
        let out = self.outcome(&RunKey::new(workload, cfg.clone()));
        if out.end != End::Clean {
            panic!(
                "{workload:?} under {cfg:?} did not end clean: {}",
                out.post_mortem
            );
        }
        out
    }

    /// The outcome of benchmark `b` under `cfg` (see [`Runs::get`]).
    #[must_use]
    pub fn bench(&self, b: Benchmark, cfg: &GpuConfig) -> &RunOutcome {
        self.get(Workload::Bench(b), cfg)
    }
}

/// A load-dominated sharing kernel: the regime §VI-E describes ("kernels
/// that have more load instructions than store instructions do not incur
/// cache misses due to lease expiration since their timestamps roll
/// slower"). 32 CTAs of readers sweep a shared table for many rounds;
/// one writer CTA updates it rarely.
#[must_use]
pub fn load_dominated() -> VecKernel {
    let table = |i: u64| Addr((i % 24) * 128);
    // Each reader sweeps the shared table, computes for longer than TC's
    // physical lease, and sweeps again: the re-read distance exceeds the
    // lease, so TC self-invalidates every sweep while G-TSC's logical
    // leases survive (logical time only moves on the writer's rare
    // stores).
    let reader = |seed: u64| {
        let sweep = move |round: u32| {
            let loads = (0..24).map(move |i| WarpOp::load_coalesced(table(i + seed), 32));
            loads.chain([WarpOp::Compute(1500 + round * 7)])
        };
        WarpProgram((0..8).flat_map(sweep).collect())
    };
    let store = |i: u64| WarpOp::store_coalesced(table(i * 3), 32);
    let write = |i| [WarpOp::Compute(200), store(i), WarpOp::Fence];
    let writer = WarpProgram((0..8u64).flat_map(write).collect());
    let mut ctas: Vec<Vec<WarpProgram>> =
        (0..32u64).map(|c| vec![reader(c), reader(c + 7)]).collect();
    ctas.push(vec![writer.clone(), writer]);
    VecKernel::new("load-dom", 2, ctas)
}
