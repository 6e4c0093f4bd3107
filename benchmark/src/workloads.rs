//! The six named workloads: what one pass of each executes, and the
//! code that executes it. The simulator only ever receives a generated
//! kernel and a configuration, never a workload name.

use std::path::Path;
use std::time::Instant;

use gtsc::faults::{FaultStats, SplitMix64};
use gtsc::gpu::VecKernel;
use gtsc::sim::{GpuSim, KernelProgress, MultiGpuSim, RunReport, SimBuilder};
use gtsc::types::{
    crc32, ConsistencyModel, FabricConfig, FaultConfig, GpuConfig, MultiGpuConfig, ProtocolKind,
    SimStats, Snap, SnapWriter,
};
use gtsc::workloads::{graph, grid, pipeline, stream, tree, Benchmark, Scale};
use gtsc_sweep::{run_sweep, scale_name, JobOutcome, JobSpec, SweepConfig, TransientFaultPlan};
use gtsc_trace::span::SpanRecord;

use crate::spans::Spans;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Figure 12's coherence comparison: group A under G-TSC-RC and TC-RC.
    Fig12Coh,
    /// Coherence-heavy G-TSC runs: the protocol hot path.
    CohGtsc,
    /// Compute/streaming G-TSC runs: the idle per-cycle loop.
    StreamGtsc,
    /// Lossy NoC + fabric, partitions, sanitizer on: the cost of robustness.
    SoakFaults,
    /// `MultiGpuSim` at 2 and 4 devices.
    MultiGpu,
    /// The crash-safe sweep service with checkpointing.
    SweepBatch,
}

impl Workload {
    /// Every workload, in the order `all` interleaves them.
    pub const ALL: [Workload; 6] = [
        Workload::Fig12Coh,
        Workload::CohGtsc,
        Workload::StreamGtsc,
        Workload::SoakFaults,
        Workload::MultiGpu,
        Workload::SweepBatch,
    ];

    /// The name used on the command line, in output and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig12Coh => "fig12_coh",
            Workload::CohGtsc => "coh_gtsc",
            Workload::StreamGtsc => "stream_gtsc",
            Workload::SoakFaults => "soak_faults",
            Workload::MultiGpu => "multi_gpu",
            Workload::SweepBatch => "sweep_batch",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed passes `all` collects before it stops.
    #[must_use]
    pub fn min_passes(self) -> usize {
        match self {
            Workload::Fig12Coh => 7,
            _ => 9,
        }
    }
}

/// The seed `Benchmark::build` passes to each generator; `--seed 0`
/// reproduces exactly the kernels the figure binaries run.
#[must_use]
pub fn canonical_seed(b: Benchmark) -> u64 {
    match b {
        Benchmark::Bh => 0xB4,
        Benchmark::Cc => 0xCC,
        Benchmark::Dlp => 0xD1,
        Benchmark::Vpr => 0x7B,
        Benchmark::Stn => 0x57,
        Benchmark::Bfs => 0xBF,
        Benchmark::Ccp => 0xC9,
        Benchmark::Ge => 0x6E,
        Benchmark::Hs => 0x45,
        Benchmark::Km => 0x4B,
        Benchmark::Bp => 0xB9,
        Benchmark::Sgm => 0x56,
    }
}

/// Generator seed for `b` under benchmark seed `seed`.
#[must_use]
pub fn kernel_seed(b: Benchmark, seed: u64) -> u64 {
    if seed == 0 {
        canonical_seed(b)
    } else {
        // One SplitMix64 step decorrelates consecutive `--seed` values.
        canonical_seed(b) ^ SplitMix64::new(seed).next_u64()
    }
}

/// The `i`-th fault seed (1-based) under benchmark seed `seed`.
#[must_use]
pub fn fault_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

/// Calls the public generator of `b`.
#[must_use]
pub fn generate(b: Benchmark, scale: Scale, seed: u64) -> VecKernel {
    match b {
        Benchmark::Bh => tree::barnes_hut(scale, seed),
        Benchmark::Cc => graph::connected_components(scale, seed),
        Benchmark::Dlp => pipeline::producer_consumer(scale, seed),
        Benchmark::Vpr => grid::place_route(scale, seed),
        Benchmark::Stn => grid::shared_stencil(scale, seed),
        Benchmark::Bfs => graph::bfs(scale, seed),
        Benchmark::Ccp => stream::compute_heavy(scale, seed),
        Benchmark::Ge => stream::gaussian_elim(scale, seed),
        Benchmark::Hs => grid::private_stencil(scale, seed),
        Benchmark::Km => stream::kmeans(scale, seed),
        Benchmark::Bp => stream::backprop(scale, seed),
        Benchmark::Sgm => stream::sgm(scale, seed),
    }
}

/// The machine an item runs on.
#[derive(Debug, Clone)]
pub enum Machine {
    /// One GPU (`GpuSim`).
    Single(Box<GpuConfig>),
    /// Several GPUs behind the fabric (`MultiGpuSim`).
    Multi(Box<MultiGpuConfig>),
}

/// One simulation of a pass: a generated kernel on a configured machine.
#[derive(Debug, Clone)]
pub struct Item {
    /// Stable key (also the key in `golden.json`).
    pub label: String,
    /// Which generator.
    pub bench: Benchmark,
    /// Problem size.
    pub scale: Scale,
    /// Generator seed.
    pub kernel_seed: u64,
    /// The configured machine.
    pub machine: Machine,
}

impl Item {
    /// The machine properties the per-layer derivations depend on.
    #[must_use]
    pub fn kind(&self) -> ItemKind {
        let (tc, n_devices) = match &self.machine {
            Machine::Single(c) => (c.protocol == ProtocolKind::TcWeak, 1),
            Machine::Multi(m) => (false, m.n_devices),
        };
        ItemKind {
            tc,
            n_devices,
            paper: self.scale == Scale::Full,
        }
    }
}

fn platform(scale: Scale) -> GpuConfig {
    match scale {
        Scale::Full => GpuConfig::paper_default(),
        _ => GpuConfig::test_small(),
    }
}

fn single(b: Benchmark, scale: Scale, seed: u64, protocol: ProtocolKind, tag: &str) -> Item {
    let cfg = platform(scale)
        .with_protocol(protocol)
        .with_consistency(ConsistencyModel::Rc);
    // The figures plot TC-Weak under RC as `TC-RC`.
    let system = match protocol {
        ProtocolKind::TcWeak => "TC-RC".to_owned(),
        _ => cfg.label(),
    };
    Item {
        label: format!("{}/{}/{system}{tag}", b.name(), scale_name(scale)),
        bench: b,
        scale,
        kernel_seed: kernel_seed(b, seed),
        machine: Machine::Single(Box::new(cfg)),
    }
}

fn multi(b: Benchmark, scale: Scale, seed: u64, n_devices: usize, tag: &str) -> Item {
    let gpu = platform(scale)
        .with_protocol(ProtocolKind::Gtsc)
        .with_consistency(ConsistencyModel::Rc);
    let cfg = MultiGpuConfig {
        n_devices,
        gpu,
        fabric: FabricConfig::default(),
    };
    Item {
        label: format!("{}/{}/{}{tag}", b.name(), scale_name(scale), cfg.label()),
        bench: b,
        scale,
        kernel_seed: kernel_seed(b, seed),
        machine: Machine::Multi(Box::new(cfg)),
    }
}

/// Fault seeds one `soak_faults` pass covers.
pub const SOAK_SEEDS: u64 = 4;
/// Drop rate of every lossy plan, in permille.
pub const LOSS_PERMILLE: u16 = 10;

/// The single-GPU half of `soak_faults` (lossy NoC, `sanitize` as given):
/// also what the sanitizer- and span-overhead measurements re-run.
#[must_use]
pub fn soak_single_items(scale: Scale, seed: u64, sanitize: bool) -> Vec<Item> {
    let mut items = Vec::new();
    for i in 1..=SOAK_SEEDS {
        let fs = fault_seed(seed, i);
        for b in Benchmark::group_a() {
            let mut it = single(b, scale, seed, ProtocolKind::Gtsc, &format!("/lossy{fs}"));
            if let Machine::Single(cfg) = &mut it.machine {
                **cfg = cfg
                    .clone()
                    .with_faults(FaultConfig::lossy(fs, LOSS_PERMILLE))
                    .with_sanitize(sanitize);
            }
            items.push(it);
        }
    }
    items
}

fn soak_multi_items(scale: Scale, seed: u64) -> Vec<Item> {
    let mut items = Vec::new();
    for i in 1..=SOAK_SEEDS {
        let fs = fault_seed(seed, i);
        for b in [Benchmark::Bfs, Benchmark::Cc, Benchmark::Stn] {
            let mut it = multi(b, scale, seed, 2, &format!("/lossy{fs}+partitions"));
            if let Machine::Multi(cfg) = &mut it.machine {
                cfg.gpu = cfg
                    .gpu
                    .clone()
                    .with_faults(FaultConfig::lossy(fs, LOSS_PERMILLE));
                cfg.fabric = FabricConfig::default()
                    .lossy(fs, LOSS_PERMILLE)
                    .with_partitions(2, 3000, 1500);
            }
            items.push(it);
        }
    }
    items
}

/// Sizes of a pass. `Sizes::CANONICAL` is the benchmark; the unit tests
/// shrink it so they finish in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Scale of the paper-platform items.
    pub full: Scale,
    /// Scale of the fault-soak and sweep items.
    pub small: Scale,
    /// Fault seeds per benchmark in the sweep batch.
    pub sweep_seeds: u64,
}

impl Sizes {
    /// What the issue specifies.
    pub const CANONICAL: Sizes = Sizes {
        full: Scale::Full,
        small: Scale::Small,
        sweep_seeds: 8,
    };
}

/// The in-memory simulations of one pass of `w` (empty for
/// `sweep_batch`, whose pass is [`sweep_specs`]).
#[must_use]
pub fn items(w: Workload, seed: u64, sizes: Sizes) -> Vec<Item> {
    use Benchmark::{Bh, Bp, Cc, Ccp, Dlp, Km, Stn};
    let full = sizes.full;
    match w {
        Workload::Fig12Coh => Benchmark::group_a()
            .into_iter()
            .flat_map(|b| {
                [ProtocolKind::Gtsc, ProtocolKind::TcWeak].map(|p| single(b, full, seed, p, ""))
            })
            .collect(),
        Workload::CohGtsc => [Bh, Cc, Dlp, Stn]
            .into_iter()
            .map(|b| single(b, full, seed, ProtocolKind::Gtsc, ""))
            .collect(),
        Workload::StreamGtsc => [Ccp, Bp]
            .into_iter()
            .map(|b| single(b, full, seed, ProtocolKind::Gtsc, ""))
            .collect(),
        Workload::SoakFaults => {
            let mut v = soak_single_items(sizes.small, seed, true);
            v.extend(soak_multi_items(sizes.small, seed));
            v
        }
        Workload::MultiGpu => [2usize, 4]
            .into_iter()
            .flat_map(|n| [Stn, Km].map(|b| multi(b, full, seed, n, "")))
            .collect(),
        Workload::SweepBatch => Vec::new(),
    }
}

/// The `sweep_batch` job list: every benchmark × `sweep_seeds` fault seeds.
#[must_use]
pub fn sweep_specs(seed: u64, sizes: Sizes) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for b in Benchmark::all() {
        for i in 1..=sizes.sweep_seeds {
            specs.push(JobSpec {
                id: specs.len() as u32,
                benchmark: b,
                scale: sizes.small,
                protocol: ProtocolKind::Gtsc,
                consistency: ConsistencyModel::Rc,
                seed: fault_seed(seed, i),
                lossy_permille: LOSS_PERMILLE,
                bank_crashes: 0,
                cycle_budget: 0,
            });
        }
    }
    specs
}

/// A sweep job as an in-memory item: its public `config()`, and the
/// kernel `JobSpec::kernel` builds (the benchmark's canonical one).
#[must_use]
pub fn job_item(spec: &JobSpec) -> Item {
    Item {
        label: job_label(spec),
        bench: spec.benchmark,
        scale: spec.scale,
        kernel_seed: canonical_seed(spec.benchmark),
        machine: Machine::Single(Box::new(spec.config())),
    }
}

/// Stable label of a sweep job (its key in `golden.json`).
#[must_use]
pub fn job_label(spec: &JobSpec) -> String {
    format!("job{:03}/{}", spec.id, spec.describe())
}

/// How `run_sweep` is configured for `sweep_batch`.
#[must_use]
pub fn sweep_config(dir: &Path) -> SweepConfig {
    SweepConfig {
        workers: 2,
        slice_cycles: 1000,
        checkpoint_every: 4000,
        ..SweepConfig::new(dir)
    }
}

/// The simulated result of one operation: what `golden.json` pins and
/// what repeated passes must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triple {
    /// Simulated cycles.
    pub cycles: u64,
    /// Warp instructions issued.
    pub issued: u64,
    /// CRC32 of the snap-encoded memory image.
    pub image_crc: u32,
}

/// The machine properties the per-layer derivations depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemKind {
    /// A Temporal Coherence baseline rather than G-TSC.
    pub tc: bool,
    /// Devices simulated (1 for `GpuSim`).
    pub n_devices: usize,
    /// The paper's 16-SM platform rather than the 2-SM test platform.
    pub paper: bool,
}

/// Extra observations a traced pass keeps from a simulation.
#[derive(Debug, Default)]
pub struct Observed {
    /// `fault_stats()` of the run, when a fault plan was armed.
    pub faults: Option<FaultStats>,
    /// The program's own sampled request spans (single-GPU only).
    pub spans: Vec<SpanRecord>,
}

/// One operation of a pass.
#[derive(Debug)]
pub struct ItemResult {
    /// The item's stable label.
    pub label: String,
    /// What it computed (`None` if it never finished).
    pub triple: Option<Triple>,
    /// Host seconds simulating the kernel: the sum of `slices` (0 for
    /// sweep jobs: the batch is timed as a whole).
    pub wall_s: f64,
    /// Host seconds of each [`SLICE_CYCLES`]-cycle slice of the kernel, in
    /// order (empty for sweep jobs). The simulation is deterministic, so
    /// slice `i` is the same work in every pass at one seed.
    pub slices: Vec<f64>,
    /// Why the operation failed, if it did.
    pub failure: Option<String>,
    /// What kind of machine ran it.
    pub kind: ItemKind,
    /// Full statistics (`None` for sweep jobs: `JobResult` has no stats).
    pub stats: Option<SimStats>,
    /// Traced-pass extras.
    pub observed: Observed,
}

/// One pass of a workload.
#[derive(Debug)]
pub struct PassResult {
    /// Host seconds in the timed section: simulating the kernels, or the
    /// `run_sweep` call, only.
    pub wall_s: f64,
    /// Host seconds before the timed sections: kernel generation, machine
    /// construction, job list and sweep directory.
    pub setup_s: f64,
    /// Every operation.
    pub items: Vec<ItemResult>,
}

impl PassResult {
    /// Σ simulated cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.items
            .iter()
            .filter_map(|i| i.triple)
            .map(|t| t.cycles)
            .sum()
    }

    /// Σ warp instructions issued.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.items
            .iter()
            .filter_map(|i| i.triple)
            .map(|t| t.issued)
            .sum()
    }

    /// The timed section in its finest separately timed pieces, in order:
    /// every slice of every item, or the one `run_sweep` call. They sum
    /// to `wall_s`.
    #[must_use]
    pub fn pieces(&self) -> Vec<f64> {
        let slices: Vec<f64> = self
            .items
            .iter()
            .flat_map(|i| i.slices.iter().copied())
            .collect();
        if slices.is_empty() {
            vec![self.wall_s]
        } else {
            slices
        }
    }
}

/// What a traced pass switches on inside the program through public
/// configuration; `None` in every end-to-end pass.
#[derive(Debug, Clone, Copy)]
pub struct ProgramSpans {
    /// Sample one access in `rate`.
    pub rate: u64,
    /// Sampling seed.
    pub seed: u64,
}

impl ProgramSpans {
    /// The benchmark's sampling: one access in 64.
    #[must_use]
    pub fn at(seed: u64) -> Self {
        ProgramSpans { rate: 64, seed }
    }
}

/// CRC32 of the snap-encoded memory image: the fingerprint `JobResult`
/// carries, so in-memory items and sweep jobs compare like for like.
fn image_crc(image: &impl Snap) -> u32 {
    let mut w = SnapWriter::new();
    image.save(&mut w);
    crc32(&w.into_bytes())
}

/// Simulated cycles per timed slice: 5–12 ms of host time on the paper
/// platform. On a shared host the same code runs up to a third slower in
/// bursts; the shorter the piece that is timed, the likelier some pass
/// caught it between two bursts (README, "What the contract form
/// reports").
pub const SLICE_CYCLES: u64 = 500;

/// A machine built for an item.
enum Built {
    Single(Box<GpuSim>),
    Multi(Box<MultiGpuSim>),
}

impl Built {
    /// Runs `kernel` to completion as `run_kernel` does — through
    /// `advance_kernel`, to which slicing is invisible — but
    /// [`SLICE_CYCLES`] at a time, timing each slice into `slices`.
    fn run_kernel(
        &mut self,
        kernel: &VecKernel,
        slices: &mut Vec<f64>,
    ) -> Result<RunReport, String> {
        let mut progress = KernelProgress::new(kernel);
        loop {
            let t = Instant::now();
            let step = match self {
                Built::Single(sim) => sim.advance_kernel(kernel, &mut progress, SLICE_CYCLES),
                Built::Multi(sim) => sim.advance_kernel(kernel, &mut progress, SLICE_CYCLES),
            };
            slices.push(t.elapsed().as_secs_f64());
            match step {
                Ok(Some(report)) => return Ok(report),
                Ok(None) => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    fn image_crc(&self) -> u32 {
        match self {
            Built::Single(sim) => image_crc(&sim.memory_image()),
            Built::Multi(sim) => image_crc(&sim.memory_image()),
        }
    }

    fn observed(&self) -> Observed {
        match self {
            Built::Single(sim) => Observed {
                faults: sim.fault_stats(),
                spans: sim.spans(),
            },
            // `MultiGpuSim` carries no span tracker.
            Built::Multi(sim) => Observed {
                faults: sim.fault_stats(),
                spans: Vec::new(),
            },
        }
    }
}

/// An item's set-up: generate its kernel, build its machine.
fn set_up(
    item: &Item,
    program: Option<ProgramSpans>,
    spans: &mut Spans,
) -> (VecKernel, Result<Built, String>) {
    let kernel = spans.scope("generate_kernel", |_| {
        generate(item.bench, item.scale, item.kernel_seed)
    });
    let built = spans.scope("build_sim", |_| match &item.machine {
        Machine::Single(cfg) => {
            let mut cfg = (**cfg).clone();
            if let Some(p) = program {
                cfg.trace = cfg.trace.with_spans(p.rate, p.seed);
            }
            SimBuilder::new(cfg)
                .try_build()
                .map(|sim| Built::Single(Box::new(sim)))
        }
        Machine::Multi(cfg) => {
            MultiGpuSim::try_build((**cfg).clone()).map(|sim| Built::Multi(Box::new(sim)))
        }
    });
    (kernel, built.map_err(|e| e.to_string()))
}

/// Runs one in-memory item and returns its result and set-up seconds.
fn run_item(item: &Item, program: Option<ProgramSpans>, spans: &mut Spans) -> (ItemResult, f64) {
    spans.item_scope(&format!("item:{}", item.label), |spans| {
        let t0 = Instant::now();
        let (kernel, built) = set_up(item, program, spans);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut out = ItemResult {
            label: item.label.clone(),
            triple: None,
            wall_s: 0.0,
            slices: Vec::new(),
            failure: None,
            kind: item.kind(),
            stats: None,
            observed: Observed::default(),
        };
        let mut sim = match built {
            Ok(sim) => sim,
            Err(e) => {
                out.failure = Some(e);
                return (out, setup_s);
            }
        };
        let run = spans.scope("run_kernel", |_| {
            let r = sim.run_kernel(&kernel, &mut out.slices);
            out.wall_s = out.slices.iter().sum();
            r
        });
        match run {
            Err(e) => out.failure = Some(e),
            Ok(report) => {
                let crc = spans.scope("memory_image+crc", |_| sim.image_crc());
                spans.scope("report", |_| out.observed = sim.observed());
                spans.scope("verify", |_| {
                    // Sanitizer findings ride in `violations` too.
                    if let Some(v) = report.violations.first() {
                        out.failure = Some(format!(
                            "{} violation(s), first: {}",
                            report.violations.len(),
                            v.0
                        ));
                    }
                    out.triple = Some(Triple {
                        cycles: report.stats.cycles.0,
                        issued: report.stats.sm.issued,
                        image_crc: crc,
                    });
                });
                out.stats = Some(report.stats);
            }
        }
        (out, setup_s)
    })
}

fn collect(results: Vec<(ItemResult, f64)>) -> PassResult {
    let mut pass = PassResult {
        wall_s: 0.0,
        setup_s: 0.0,
        items: Vec::with_capacity(results.len()),
    };
    for (r, setup_s) in results {
        pass.wall_s += r.wall_s;
        pass.setup_s += setup_s;
        pass.items.push(r);
    }
    pass
}

/// Runs `items` back to back: one pass of an in-memory workload.
pub fn run_items(items: &[Item], program: Option<ProgramSpans>, spans: &mut Spans) -> PassResult {
    collect(
        items
            .iter()
            .map(|item| run_item(item, program, spans))
            .collect(),
    )
}

/// One operation per job of a finished sweep.
fn job_results(specs: &[JobSpec], results: &[gtsc_sweep::JobResult]) -> Vec<ItemResult> {
    specs
        .iter()
        .map(|spec| {
            let r = results.iter().find(|r| r.id == spec.id);
            let failure = match r {
                None => Some("job has no result".to_owned()),
                Some(r) if r.outcome != JobOutcome::Completed => {
                    Some(format!("outcome {}: {}", r.outcome.label(), r.detail))
                }
                Some(r) if r.violations > 0 => Some(format!("{} violation(s)", r.violations)),
                Some(_) => None,
            };
            ItemResult {
                label: job_label(spec),
                triple: r
                    .filter(|r| r.outcome == JobOutcome::Completed)
                    .map(|r| Triple {
                        cycles: r.cycles,
                        issued: r.issued,
                        image_crc: r.image_crc,
                    }),
                wall_s: 0.0,
                slices: Vec::new(),
                failure,
                kind: ItemKind {
                    tc: false,
                    n_devices: 1,
                    paper: spec.scale == Scale::Full,
                },
                stats: None,
                observed: Observed::default(),
            }
        })
        .collect()
}

/// Removes and recreates `dir`, so a pass starts from an empty journal.
///
/// # Errors
///
/// The filesystem's error.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// The sweep's set-up: the job list, an empty directory, and every
/// job's own set-up. `run_sweep` generates each job's kernel and builds
/// its machine inside its workers, where the benchmark cannot time them
/// apart from the simulation; the same public calls are replayed here so
/// that work moved into construction shows in `setup_s` on this workload
/// too (the list and the directory alone take tens of microseconds).
fn set_up_batch(seed: u64, sizes: Sizes, dir: &Path) -> (Vec<JobSpec>, std::io::Result<()>) {
    let specs = sweep_specs(seed, sizes);
    for spec in &specs {
        std::hint::black_box((
            spec.kernel(),
            SimBuilder::new(spec.config()).try_build().is_ok(),
        ));
    }
    (specs, fresh_dir(dir))
}

/// One pass of `sweep_batch`: a fresh directory, the job list, then
/// `run_sweep` under [`sweep_config`].
fn run_sweep_pass(seed: u64, sizes: Sizes, dir: &Path, spans: &mut Spans) -> PassResult {
    let t0 = Instant::now();
    let (specs, ready) = spans.scope("build_batch", |_| set_up_batch(seed, sizes, dir));
    let cfg = sweep_config(dir);
    let setup_s = t0.elapsed().as_secs_f64();
    if let Err(e) = ready {
        return failed_batch(&specs, setup_s, &format!("sweep directory: {e}"));
    }
    let (outcome, wall_s) = spans.scope("run_sweep", |_| {
        let t = Instant::now();
        let r = run_sweep(&specs, &cfg, &TransientFaultPlan::default());
        (r, t.elapsed().as_secs_f64())
    });
    let pass = match outcome {
        Err(e) => failed_batch(&specs, setup_s, &e.to_string()),
        Ok(o) => spans.scope("verify", |_| PassResult {
            wall_s,
            setup_s,
            items: job_results(&specs, &o.results),
        }),
    };
    // The directory is inside the checkout; leave nothing behind.
    let _ = std::fs::remove_dir_all(dir);
    pass
}

fn failed_batch(specs: &[JobSpec], setup_s: f64, why: &str) -> PassResult {
    let mut items = job_results(specs, &[]);
    for i in &mut items {
        i.failure = Some(why.to_owned());
    }
    PassResult {
        wall_s: 0.0,
        setup_s,
        items,
    }
}

/// One end-to-end pass of `w` at `seed`: nothing traced. `scratch` is
/// where `sweep_batch` keeps its journal and checkpoints meanwhile.
pub fn run_pass(w: Workload, seed: u64, sizes: Sizes, scratch: &Path) -> PassResult {
    let spans = &mut Spans::disabled();
    match w {
        Workload::SweepBatch => run_sweep_pass(seed, sizes, scratch, spans),
        _ => run_items(&items(w, seed, sizes), None, spans),
    }
}

/// An untraced and a traced pass of `w`, operation by operation side by
/// side, so that the host's drift over tens of seconds falls on both
/// alike and their difference is the tracing overhead. The traced side
/// records benchmark spans into `spans` and switches the program's own
/// span sampling on as `program` says.
pub fn run_pass_paired(
    w: Workload,
    seed: u64,
    sizes: Sizes,
    scratch: &Path,
    program: ProgramSpans,
    spans: &mut Spans,
) -> (PassResult, PassResult) {
    let off = &mut Spans::disabled();
    spans.scope("pass", |spans| match w {
        Workload::SweepBatch => (
            run_sweep_pass(seed, sizes, scratch, off),
            run_sweep_pass(seed, sizes, scratch, spans),
        ),
        _ => {
            let items = items(w, seed, sizes);
            let mut untraced = Vec::new();
            let mut traced = Vec::new();
            for item in &items {
                untraced.push(run_item(item, None, off));
                traced.push(run_item(item, Some(program), spans));
            }
            (collect(untraced), collect(traced))
        }
    })
}

/// The set-up work of one pass of `w`, alone: what `setup_s` times.
pub fn set_up_pass(w: Workload, seed: u64, sizes: Sizes, scratch: &Path) -> f64 {
    let t = Instant::now();
    if w == Workload::SweepBatch {
        let (specs, ready) = set_up_batch(seed, sizes, scratch);
        std::hint::black_box((specs, ready.is_ok(), sweep_config(scratch)));
    } else {
        for item in items(w, seed, sizes) {
            std::hint::black_box(set_up(&item, None, &mut Spans::disabled()).1.is_ok());
        }
    }
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc::gpu::Kernel;
    use gtsc::types::CtaId;

    #[test]
    fn seed_zero_reproduces_the_figure_kernels() {
        for b in Benchmark::all() {
            let ours = generate(b, Scale::Tiny, kernel_seed(b, 0));
            let theirs = b.build(Scale::Tiny);
            assert_eq!(ours.n_ctas(), theirs.n_ctas(), "{}", b.name());
            for cta in 0..ours.n_ctas() {
                for w in 0..ours.warps_per_cta() {
                    let id = CtaId(cta as u32);
                    assert_eq!(ours.program(id, w), theirs.program(id, w), "{}", b.name());
                }
            }
        }
    }

    #[test]
    fn other_seeds_give_other_kernels_and_the_same_seed_the_same() {
        let b = Benchmark::Cc;
        assert_ne!(kernel_seed(b, 1), kernel_seed(b, 0));
        assert_ne!(kernel_seed(b, 1), kernel_seed(b, 2));
        let a = generate(b, Scale::Tiny, kernel_seed(b, 7));
        let a2 = generate(b, Scale::Tiny, kernel_seed(b, 7));
        let c = generate(b, Scale::Tiny, kernel_seed(b, 8));
        assert_eq!(a.program(CtaId(0), 0), a2.program(CtaId(0), 0));
        assert_ne!(a.program(CtaId(0), 0), c.program(CtaId(0), 0));
        assert_eq!(fault_seed(0, 1), 1);
        assert_eq!(fault_seed(7, 3), 7003);
    }

    #[test]
    fn workload_shapes_match_the_issue() {
        let s = Sizes::CANONICAL;
        assert_eq!(items(Workload::Fig12Coh, 0, s).len(), 12);
        assert_eq!(
            items(Workload::Fig12Coh, 0, s)
                .iter()
                .filter(|i| i.kind().tc)
                .count(),
            6
        );
        assert_eq!(items(Workload::CohGtsc, 0, s).len(), 4);
        assert_eq!(items(Workload::StreamGtsc, 0, s).len(), 2);
        assert_eq!(items(Workload::SoakFaults, 0, s).len(), 4 * (6 + 3));
        let multi = items(Workload::MultiGpu, 0, s);
        assert_eq!(
            multi.iter().map(|i| i.kind().n_devices).collect::<Vec<_>>(),
            vec![2, 2, 4, 4]
        );
        assert_eq!(sweep_specs(0, s).len(), 96);
        // Labels are the golden keys: unique across the whole benchmark.
        let mut labels: Vec<String> = Workload::ALL
            .into_iter()
            .flat_map(|w| items(w, 0, s))
            .map(|i| i.label)
            .collect();
        labels.extend(sweep_specs(0, s).iter().map(job_label));
        let n = labels.len();
        labels.sort();
        labels.dedup();
        // fig12_coh and coh_gtsc share four G-TSC items by design.
        assert_eq!(n - labels.len(), 4);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
