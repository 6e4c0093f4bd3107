//! The experiment matrix: the union of the [catalog](mod@crate::catalog)
//! rows' runs at one [`Scale`], deduplicated by `==` (a
//! `with_lease(Lease(10))` or `ts_bits = 16` variant *is* the default
//! config and runs once), simulated once each over a fixed number of
//! threads. Rows render afterwards from [`Runs`], so what they print does
//! not depend on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
use gtsc_types::{Addr, GpuConfig};
use gtsc_workloads::{Benchmark, Scale};

use crate::catalog::Experiment;
use crate::harness::{run_kernel, RunOutcome};

/// What a run simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One of the paper's twelve benchmarks.
    Bench(Benchmark),
    /// §VI-E's load-dominated sharing kernel ([`load_dominated`]).
    LoadDominated,
}

/// One simulation of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunKey {
    /// The kernel.
    pub workload: Workload,
    /// The machine it runs on.
    pub cfg: GpuConfig,
    /// The kernel's size.
    pub scale: Scale,
}

impl RunKey {
    /// Simulates the key. Panics if the run deadlocks or ends with a
    /// coherence violation: no run in the matrix is the non-coherent
    /// baseline on a workload that needs coherence.
    #[must_use]
    pub fn run(&self) -> RunOutcome {
        let kernel = match self.workload {
            Workload::Bench(b) => b.build(self.scale),
            Workload::LoadDominated => Box::new(load_dominated()),
        };
        let out = run_kernel(kernel.as_ref(), self.cfg.clone());
        assert_eq!(out.violations, 0, "{self:?} violated coherence");
        out
    }
}

/// The distinct runs a set of rows needs at one scale, in first-use order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The scale every key runs at.
    pub scale: Scale,
    /// Distinct keys.
    pub keys: Vec<RunKey>,
}

impl Plan {
    /// The union of `rows`' runs at `scale`, each once.
    #[must_use]
    pub fn new(rows: &[&Experiment], scale: Scale) -> Self {
        let mut keys: Vec<RunKey> = Vec::new();
        for (workload, cfg) in rows.iter().flat_map(|r| &r.runs) {
            let key = RunKey {
                workload: *workload,
                cfg: cfg.clone(),
                scale,
            };
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        Plan { scale, keys }
    }

    /// Simulates every key on `workers` threads with `simulate`
    /// ([`RunKey::run`] but in tests): threads claim keys from a shared
    /// next-index, so each is simulated once.
    #[must_use]
    pub fn run(&self, workers: usize, simulate: impl Fn(&RunKey) -> RunOutcome + Sync) -> Runs {
        // `Relaxed`: the index publishes nothing; each outcome is published
        // by its `OnceLock` and read after the scope joins every thread.
        let next = AtomicUsize::new(0);
        let done: Vec<OnceLock<RunOutcome>> = self.keys.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers.clamp(1, self.keys.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(key) = self.keys.get(i) else { break };
                    let _ = done[i].set(simulate(key));
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
    /// The scale every run ran at.
    pub scale: Scale,
    keys: Vec<RunKey>,
    outcomes: Vec<RunOutcome>,
}

impl Runs {
    /// The outcome of `workload` under `cfg`. Panics if the plan did not
    /// include that run: a row read a run it does not declare.
    #[must_use]
    pub fn get(&self, workload: Workload, cfg: &GpuConfig) -> &RunOutcome {
        let i = self
            .keys
            .iter()
            .position(|k| k.workload == workload && k.cfg == *cfg)
            .unwrap_or_else(|| panic!("{workload:?} under {cfg:?} is not in the plan"));
        &self.outcomes[i]
    }

    /// The outcome of benchmark `b` under `cfg`.
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
