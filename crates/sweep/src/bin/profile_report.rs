//! `profile_report` — the latency observatory's offline reporter.
//!
//! Runs one benchmark kernel under the simulator and prints where every
//! SM cycle went (the per-SM cycle-reason table whose rows sum exactly
//! to the stepped cycles). Optional outputs: the flamegraph "folded"
//! dump (`--folded`), the Chrome-trace view (`--chrome`, spans included
//! when sampling is on), and the sampled-span summary (`--spans N`).
//!
//! The default report derives solely from [`gtsc_types::SimStats`] —
//! state that rides in snapshots — so a run restored from a mid-kernel
//! checkpoint reproduces it byte-identically (proved in
//! `tests/spans.rs`). The two lines above it say what the kernel costs to
//! hold (`kernel: …`) and what the coherence checker holds when the run
//! ends (`checker: …`); the three host-side lines under it (`stepped …`,
//! `visited …`, `host allocations: …`) describe how this process executed
//! the run. `--gpus N` runs the kernel on N devices behind the inter-GPU
//! fabric (`MultiGpuSim`, DESIGN.md §17) and prints the same report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use gtsc_gpu::Kernel;
use gtsc_sim::{render_folded, render_profile, spans_to_chrome_trace, MultiGpuSim, SimBuilder};
use gtsc_sweep::{
    benchmark_from_name, consistency_from_name, protocol_from_name, scale_from_name, JobSpec,
};
use gtsc_types::{ConsistencyModel, CtaId, FabricConfig, GpuConfig, MultiGpuConfig};

const USAGE: &str = "\
profile_report: run one kernel and report per-SM cycle attribution

usage: profile_report [flags]

    --benchmark NAME    workload to run (default: bh)
    --scale NAME        tiny | small | full (default: tiny)
    --protocol NAME     gtsc | mesi | ... (default: gtsc)
    --consistency NAME  sc | rc (default: rc)
    --seed N            fault/sampling seed (default: 1)
    --lossy-permille N  NoC flit drop rate (default: 0 = reliable)
    --bank-crashes N    injected L2 bank crashes (default: 0)
    --cycle-budget N    simulated-cycle timeout, 0 = unbounded (default: 0)
    --spans N           sample 1-in-N accesses as causal spans (default: off)
    --gpus N            run on N devices behind the inter-GPU fabric (default: 1)
    --folded PATH       write flamegraph-folded cycle buckets to PATH
    --chrome PATH       write a Chrome trace of the sampled spans to PATH
    --quiet             suppress the table (exports only)
    --help              this text
";

/// `alloc` + `realloc` calls so far: the count `tests/alloc.rs` bounds
/// (DESIGN.md §15.4), readable here for any kernel and configuration.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed atomic statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

struct Cli {
    spec: JobSpec,
    span_rate: u64,
    gpus: usize,
    folded: Option<PathBuf>,
    chrome: Option<PathBuf>,
    quiet: bool,
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        spec: JobSpec {
            id: 0,
            benchmark: benchmark_from_name("bh").expect("bh is a known benchmark"),
            scale: scale_from_name("tiny").expect("tiny is a known scale"),
            protocol: protocol_from_name("gtsc").expect("gtsc is a known protocol"),
            consistency: ConsistencyModel::Rc,
            seed: 1,
            lossy_permille: 0,
            bank_crashes: 0,
            cycle_budget: 0,
        },
        span_rate: 0,
        gpus: 1,
        folded: None,
        chrome: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--benchmark" => {
                let v = value("--benchmark")?;
                cli.spec.benchmark =
                    benchmark_from_name(v).ok_or_else(|| format!("unknown benchmark: {v}"))?;
            }
            "--scale" => {
                let v = value("--scale")?;
                cli.spec.scale = scale_from_name(v).ok_or_else(|| format!("unknown scale: {v}"))?;
            }
            "--protocol" => {
                let v = value("--protocol")?;
                cli.spec.protocol =
                    protocol_from_name(v).ok_or_else(|| format!("unknown protocol: {v}"))?;
            }
            "--consistency" => {
                let v = value("--consistency")?;
                cli.spec.consistency =
                    consistency_from_name(v).ok_or_else(|| format!("unknown consistency: {v}"))?;
            }
            "--seed" => cli.spec.seed = parse_num("--seed", value("--seed")?)?,
            "--lossy-permille" => {
                cli.spec.lossy_permille =
                    parse_num("--lossy-permille", value("--lossy-permille")?)?;
            }
            "--bank-crashes" => {
                cli.spec.bank_crashes = parse_num("--bank-crashes", value("--bank-crashes")?)?;
            }
            "--cycle-budget" => {
                cli.spec.cycle_budget = parse_num("--cycle-budget", value("--cycle-budget")?)?;
            }
            "--spans" => cli.span_rate = parse_num("--spans", value("--spans")?)?,
            "--gpus" => {
                cli.gpus = parse_num("--gpus", value("--gpus")?)?;
                if cli.gpus == 0 {
                    return Err("--gpus needs at least one device".to_string());
                }
            }
            "--folded" => cli.folded = Some(value("--folded")?.into()),
            "--chrome" => cli.chrome = Some(value("--chrome")?.into()),
            "--quiet" => cli.quiet = true,
            "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag: {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn gpu_config(cli: &Cli) -> GpuConfig {
    let mut cfg = cli.spec.config();
    if cli.span_rate > 0 {
        cfg.trace = cfg.trace.with_spans(cli.span_rate, cli.spec.seed);
    }
    cfg
}

/// Runs `$kernel` on `$sim`, prints the report and writes the exports,
/// and evaluates to the `RunReport`. A macro, not a function: `GpuSim` and
/// `MultiGpuSim` are one `Sim` over a memory side that cannot be named
/// outside `gtsc-sim`.
macro_rules! run_and_report {
    ($sim:ident, $cli:expr, $kernel:expr) => {{
        let cli: &Cli = $cli;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = $sim.run_kernel($kernel).map_err(|e| e.to_string())?;
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if !cli.quiet {
            // What the run's coherence checker holds at the end: the
            // largest thing a long run keeps (DESIGN.md §15.6). The bytes
            // are its table of per-block records and the capacity of
            // their delta-coded logs, a few bytes a load or a store.
            let checker = $sim.checker().footprint();
            println!(
                "checker: {} loads, {} stores retained, {} bytes of block records",
                checker.loads, checker.stores, checker.bytes
            );
            print!("{}", render_profile(&report.stats));
            // How the cycles above were executed, not what they were
            // (DESIGN.md §15.2): N near M on an idle-heavy kernel means
            // some component reports the always-due default horizon.
            println!(
                "stepped {} of {} cycles ({} jumps)",
                $sim.stepped_cycles(),
                report.stats.accounted_cycles,
                $sim.jumps()
            );
            // And what the stepped cycles touched: N near M means
            // components that are due every cycle — the always-due default
            // again, or a wake entry that is zeroed and never refreshed.
            let (visits, of) = $sim.component_visits();
            println!("visited {visits} of {of} component-cycles");
            // What `run_kernel` asked of the allocator (DESIGN.md §15.4):
            // dispatch, first touch and growth — a per-cycle figure near
            // the accesses per cycle means a hot path allocates again.
            println!(
                "host allocations: {allocations} ({:.2} per simulated cycle)",
                allocations as f64 / report.stats.cycles.0.max(1) as f64
            );
        }
        if let Some(path) = &cli.folded {
            write_file(path, &render_folded(&report.stats))?;
        }
        if let Some(path) = &cli.chrome {
            write_file(path, &spans_to_chrome_trace(&$sim.spans()))?;
        }
        if cli.span_rate > 0 && !cli.quiet {
            let spans = $sim.spans();
            let closed = spans.iter().filter(|s| s.closed.is_some()).count();
            println!(
                "spans: {} sampled, {} closed, {} suppressed by cap",
                spans.len(),
                closed,
                $sim.spans_suppressed()
            );
        }
        report
    }};
}

/// What `kernel` costs to hold: its instructions, the memory instructions
/// among them, and the bytes its coded programs hold (DESIGN.md §15.5).
fn kernel_footprint(kernel: &dyn Kernel) -> (usize, usize, usize) {
    let (mut ops, mut mem, mut bytes) = (0, 0, 0);
    for cta in 0..kernel.n_ctas() {
        for warp in 0..kernel.warps_per_cta() {
            let program = kernel.program(CtaId(cta as u32), warp);
            ops += program.len();
            mem += program.0.iter().filter(|op| op.is_memory()).count();
            bytes += kernel.shared_program(CtaId(cta as u32), warp).bytes();
        }
    }
    (ops, mem, bytes)
}

fn run(args: &[String]) -> Result<(), String> {
    let cli = parse_args(args)?;
    let kernel = cli.spec.kernel();
    if !cli.quiet {
        let (ops, mem, bytes) = kernel_footprint(kernel.as_ref());
        println!(
            "kernel: {ops} ops, {mem} memory instructions, {bytes} bytes of programs ({:.2} per op)",
            bytes as f64 / ops.max(1) as f64
        );
    }
    let report = if cli.gpus == 1 {
        let mut sim = SimBuilder::new(gpu_config(&cli))
            .try_build()
            .map_err(|e| e.to_string())?;
        run_and_report!(sim, &cli, kernel.as_ref())
    } else {
        let mut sim = MultiGpuSim::try_build(MultiGpuConfig {
            n_devices: cli.gpus,
            gpu: gpu_config(&cli),
            fabric: FabricConfig::default(),
        })
        .map_err(|e| e.to_string())?;
        run_and_report!(sim, &cli, kernel.as_ref())
    };
    for v in &report.violations {
        eprintln!("violation: {}", v.0);
    }
    if report.violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{} invariant violations", report.violations.len()))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
