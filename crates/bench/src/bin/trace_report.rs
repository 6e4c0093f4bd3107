//! Traced run of the message-passing microbenchmark — a worked example
//! of the observability stack: full event log, interval time-series,
//! flight-recorder tail, and Chrome `trace_event` export.
//!
//! The Chrome JSON loads in `chrome://tracing` or
//! <https://ui.perfetto.dev>: SMs, L2 banks, networks, and DRAM
//! partitions appear as processes, protocol events as instants, and the
//! sampled IPC / expired-miss-rate series as counter tracks.
//!
//! The run executes with the online transition sanitizer armed;
//! `--lint` additionally replays the collected event log through the
//! invariant catalog's offline driver ([`gtsc_check::lint_events`] —
//! every per-event rule recorded events can feed) and exits nonzero on
//! any sanitizer violation or error-severity finding, making this the
//! CI sanitize-smoke as well as the worked tracing example.
//!
//! Run: `cargo run --release -p gtsc-bench --bin trace_report
//!       [-- --chrome trace.json] [-- --lines trace.txt] [-- --lint]`
//!
//! An unknown flag, or `--chrome` / `--lines` without a path, exits 2
//! with the usage line before anything runs, so a typo cannot skip the
//! lints and pass.

use std::collections::BTreeMap;

use gtsc_check::lint_events;
use gtsc_sim::GpuSim;
use gtsc_trace::to_lines;
use gtsc_types::{ConsistencyModel, GpuConfig, ProtocolKind, TraceConfig};
use gtsc_workloads::micro;

const USAGE: &str = "usage: trace_report [--chrome PATH] [--lines PATH] [--lint]";

/// What the command line asks for besides the report itself.
#[derive(Default)]
struct Cli {
    chrome: Option<String>,
    lines: Option<String>,
    lint: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--chrome" => cli.chrome = Some(args.next().ok_or("--chrome needs a path")?),
            "--lines" => cli.lines = Some(args.next().ok_or("--lines needs a path")?),
            "--lint" => cli.lint = true,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let trace = TraceConfig::full().with_interval(128);
    let cfg = GpuConfig::test_small()
        .with_protocol(ProtocolKind::Gtsc)
        .with_consistency(ConsistencyModel::Sc)
        .with_trace(trace)
        .with_sanitize(true);
    let kernel = micro::message_passing(3);
    let mut sim = GpuSim::new(cfg);
    let report = match sim.run_kernel(&kernel) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    let events = sim.trace_events();

    println!("== trace_report: message-passing microbenchmark under G-TSC-SC ==");
    println!(
        "{} cycles, {} instructions (IPC {:.3}), {} violation(s)",
        report.stats.cycles.0,
        report.stats.sm.issued,
        report.stats.ipc(),
        report.violations.len()
    );

    let mut by_class: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &events {
        *by_class.entry(e.kind.class().name()).or_default() += 1;
    }
    println!("\n{} events by class:", events.len());
    for (class, n) in &by_class {
        println!("  {class:<10}{n:>8}");
    }

    println!("\ninterval time-series (128-cycle samples):");
    println!(
        "  {:<14}{:>8}{:>14}{:>12}",
        "cycles", "ipc", "expired-rate", "noc-flits"
    );
    for s in sim.samples() {
        println!(
            "  {:<14}{:>8.3}{:>14.3}{:>12}",
            format!("{}..{}", s.start.0, s.end.0),
            s.ipc(),
            s.expired_miss_rate(),
            s.delta.noc.flits
        );
    }

    let tail = sim.flight_tail();
    let shown = tail.len().min(12);
    println!("\nflight-recorder tail (what a post-mortem would see):");
    for e in &tail[tail.len() - shown..] {
        println!("  {e}");
    }

    if let Some(path) = &cli.chrome {
        match std::fs::write(path, sim.chrome_trace()) {
            Ok(()) => println!("\nwrote Chrome trace to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &cli.lines {
        match std::fs::write(path, to_lines(&events)) {
            Ok(()) => println!("wrote line dump to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if cli.lint {
        if !report.violations.is_empty() {
            for v in &report.violations {
                println!("  {v}");
            }
            std::process::exit(1);
        }
        let lint = lint_events(&events);
        println!(
            "\ntrace lints: {} fact(s) checked in {} event(s), {} error(s), {} warning(s)",
            lint.scanned,
            events.len(),
            lint.errors(),
            lint.findings.len() - lint.errors()
        );
        for l in lint.lines() {
            println!("  {l}");
        }
        if !lint.is_clean() {
            std::process::exit(1);
        }
    }
}
