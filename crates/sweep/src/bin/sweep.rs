//! `sweep` — run a resumable batch of G-TSC simulations.
//!
//! ```text
//! sweep --dir out/sweep1 --benchmarks KM,HS --seeds 4 --lossy 40
//! ```
//!
//! The batch is defined by the flags (benchmarks × seeds, one job
//! each); `--dir` holds the crash-safe journal, per-job checkpoints,
//! and the final `aggregates.txt`. Re-running the same command after a
//! crash (even `kill -9`) resumes: journaled shards are skipped,
//! checkpointed jobs continue mid-kernel, and `aggregates.txt` comes
//! out byte-identical to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gtsc_sim::sync_parent_dir;
use gtsc_sweep::{
    benchmark_from_name, consistency_from_name, protocol_from_name, run_sweep_with_metrics,
    scale_from_name, JobSpec, SweepConfig, SweepMetrics, TransientFaultPlan,
};
use gtsc_types::{ConsistencyModel, ProtocolKind};
use gtsc_workloads::{Benchmark, Scale};

const USAGE: &str = "\
sweep — resumable parameter sweeps over the G-TSC simulator

USAGE:
    sweep --dir DIR [OPTIONS]

OPTIONS:
    --dir DIR               output directory (journal, checkpoints, aggregates.txt) [required]
    --benchmarks A,B        comma-separated paper benchmarks (BH,CC,...) [default: KM,HS]
    --seeds N               fault seeds 1..=N per benchmark [default: 2]
    --scale S               tiny | small | full [default: tiny]
    --protocol P            gtsc | tc | tcweak | nol1 | nocoh [default: gtsc]
    --consistency C         sc | rc [default: rc]
    --lossy PERMILLE        NoC drop rate in permille [default: 0]
    --bank-crashes N        injected L2 bank crashes per job [default: 0]
    --cycle-budget N        deterministic per-job timeout in simulated cycles [default: 2000000]
    --workers N             worker threads [default: 2]
    --slice N               cycles per advance slice [default: 1000]
    --checkpoint-every N    simulated cycles between job checkpoints (0 = off) [default: 4000]
    --max-attempts N        bound on transient-failure retries [default: 3]
    --backoff-ms N          base retry backoff in milliseconds [default: 10]
    --disk-budget BYTES     checkpoint disk budget (0 = unlimited) [default: 0]
    --mem-budget BYTES      concurrency memory budget (0 = unlimited) [default: 0]
    --fail-first J:N,...    test hook: job J's first N attempts fail transiently
    --metrics-file PATH     write Prometheus-format service metrics to PATH after the
                            run and on SIGUSR1 mid-run
    --quiet                 only print errors
    --help                  this text
";

struct Cli {
    cfg: SweepConfig,
    benchmarks: Vec<Benchmark>,
    seeds: u64,
    scale: Scale,
    protocol: ProtocolKind,
    consistency: ConsistencyModel,
    lossy_permille: u16,
    bank_crashes: u16,
    cycle_budget: u64,
    plan: TransientFaultPlan,
    metrics_file: Option<PathBuf>,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut dir = None;
    let mut cli = Cli {
        cfg: SweepConfig::new("."),
        benchmarks: vec![Benchmark::Km, Benchmark::Hs],
        seeds: 2,
        scale: Scale::Tiny,
        protocol: ProtocolKind::Gtsc,
        consistency: ConsistencyModel::Rc,
        lossy_permille: 0,
        bank_crashes: 0,
        cycle_budget: 2_000_000,
        plan: TransientFaultPlan::default(),
        metrics_file: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--dir" => dir = Some(value("--dir")?.clone()),
            "--benchmarks" => {
                cli.benchmarks = value("--benchmarks")?
                    .split(',')
                    .map(|n| benchmark_from_name(n).ok_or_else(|| format!("unknown benchmark {n}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => cli.seeds = parse_num(value("--seeds")?)?,
            "--scale" => {
                let v = value("--scale")?;
                cli.scale = scale_from_name(v).ok_or_else(|| format!("unknown scale {v}"))?;
            }
            "--protocol" => {
                let v = value("--protocol")?;
                cli.protocol =
                    protocol_from_name(v).ok_or_else(|| format!("unknown protocol {v}"))?;
            }
            "--consistency" => {
                let v = value("--consistency")?;
                cli.consistency =
                    consistency_from_name(v).ok_or_else(|| format!("unknown consistency {v}"))?;
            }
            "--lossy" => cli.lossy_permille = parse_num(value("--lossy")?)?,
            "--bank-crashes" => cli.bank_crashes = parse_num(value("--bank-crashes")?)?,
            "--cycle-budget" => cli.cycle_budget = parse_num(value("--cycle-budget")?)?,
            "--workers" => cli.cfg.workers = parse_num(value("--workers")?)?,
            "--slice" => cli.cfg.slice_cycles = parse_num(value("--slice")?)?,
            "--checkpoint-every" => {
                cli.cfg.checkpoint_every = parse_num(value("--checkpoint-every")?)?
            }
            "--max-attempts" => cli.cfg.max_attempts = parse_num(value("--max-attempts")?)?,
            "--backoff-ms" => cli.cfg.backoff_ms = parse_num(value("--backoff-ms")?)?,
            "--disk-budget" => cli.cfg.disk_budget_bytes = parse_num(value("--disk-budget")?)?,
            "--mem-budget" => cli.cfg.memory_budget_bytes = parse_num(value("--mem-budget")?)?,
            "--fail-first" => {
                let v = value("--fail-first")?;
                cli.plan = TransientFaultPlan::parse(v)
                    .ok_or_else(|| format!("bad --fail-first spec {v}"))?;
            }
            "--metrics-file" => cli.metrics_file = Some(value("--metrics-file")?.into()),
            "--quiet" => cli.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    let dir = dir.ok_or_else(|| format!("--dir is required\n\n{USAGE}"))?;
    cli.cfg.dir = dir.into();
    if cli.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    Ok(cli)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number: {s}"))
}

fn build_specs(cli: &Cli) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    let mut id = 0u32;
    for &benchmark in &cli.benchmarks {
        for seed in 1..=cli.seeds {
            specs.push(JobSpec {
                id,
                benchmark,
                scale: cli.scale,
                protocol: cli.protocol,
                consistency: cli.consistency,
                seed,
                lossy_permille: cli.lossy_permille,
                bank_crashes: cli.bank_crashes,
                cycle_budget: cli.cycle_budget,
            });
            id += 1;
        }
    }
    specs
}

/// Writes `aggregates.txt` atomically (tmp + fsync + rename + directory
/// sync) so a crash during the final write cannot leave a torn report,
/// and a power cut after it cannot undo the rename.
fn write_aggregates(dir: &Path, text: &str) -> std::io::Result<()> {
    let tmp = dir.join("aggregates.txt.tmp");
    let path = dir.join("aggregates.txt");
    {
        let mut f = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut f, text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    sync_parent_dir(&path)
}

/// Writes the Prometheus metrics text atomically (same tmp + fsync +
/// rename + directory sync discipline as the aggregates: a scraper never
/// sees a torn file).
fn write_metrics(path: &Path, metrics: &SweepMetrics) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut f, metrics.render_prometheus().as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Set by the raw SIGUSR1 handler; drained by the watcher thread.
#[cfg(unix)]
static SIGUSR1_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigusr1(_sig: i32) {
    // Async-signal-safe: a single relaxed store, nothing else.
    SIGUSR1_SEEN.store(true, Ordering::Relaxed);
}

/// Installs a SIGUSR1 handler plus a watcher thread that re-dumps the
/// metrics file whenever the signal arrives (the Unix idiom for "show
/// me your counters *now*" on a long-running service). No-op off Unix.
fn spawn_metrics_dumper(path: &Path, metrics: &Arc<SweepMetrics>, stop: &Arc<AtomicBool>) {
    #[cfg(unix)]
    {
        // Raw libc-free signal(2) registration: the workspace is
        // offline and vendors no libc crate, and the handler is a
        // single atomic store, so the thin FFI declaration is safe.
        const SIGUSR1: i32 = 10;
        unsafe extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGUSR1, on_sigusr1);
        }
        let path = path.to_path_buf();
        let metrics = Arc::clone(metrics);
        let stop = Arc::clone(stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if SIGUSR1_SEEN.swap(false, Ordering::Relaxed) {
                    if let Err(e) = write_metrics(&path, &metrics) {
                        eprintln!("metrics dump failed: {e}");
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
    }
    #[cfg(not(unix))]
    {
        let _ = (path, metrics, stop);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cli = parse_args(args)?;
    let specs = build_specs(&cli);
    let metrics = Arc::new(SweepMetrics::new());
    let stop = Arc::new(AtomicBool::new(false));
    if let Some(path) = &cli.metrics_file {
        spawn_metrics_dumper(path, &metrics, &stop);
    }
    let outcome = run_sweep_with_metrics(&specs, &cli.cfg, &cli.plan, Some(&metrics))
        .map_err(|e| e.to_string())?;
    stop.store(true, Ordering::Relaxed);
    if let Some(path) = &cli.metrics_file {
        write_metrics(path, &metrics).map_err(|e| e.to_string())?;
    }
    let aggregates = outcome.render_aggregates(&specs);
    write_aggregates(&cli.cfg.dir, &aggregates).map_err(|e| e.to_string())?;
    if !cli.quiet {
        print!("{aggregates}");
        println!(
            "run: workers={} skipped-done={} resumed-from-checkpoint={} abandoned={}",
            outcome.workers_used,
            outcome.skipped_done,
            outcome.resumed_from_checkpoint,
            outcome.abandoned
        );
        for s in &outcome.shed {
            println!("shed: {s}");
        }
    }
    if outcome.abandoned > 0 {
        return Err(format!(
            "{} job(s) abandoned after retries; re-run to retry them",
            outcome.abandoned
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
