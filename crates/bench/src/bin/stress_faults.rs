//! Fault-injection soak: hammers G-TSC with seeded chaos storms far past
//! the checked-in test sweep (`tests/faults.rs` covers ~100 seeds; this
//! binary defaults to 256 and CI's nightly job widens it further).
//!
//! Every storm is a pure function of its `u64` seed, so any failure this
//! soak finds is a one-command repro:
//!
//! ```text
//! FAULT_SEED=<seed> cargo run --release -p gtsc-bench --bin stress_faults
//! ```
//!
//! Run: `cargo run --release -p gtsc-bench --bin stress_faults
//!       [-- --seeds N] [-- --start S] [-- --drop-rate PERMILLE]
//!       [-- --gpus N] [-- --fabric-drop-rate PERMILLE] [-- --partition]`
//!
//! `--drop-rate` switches the storm from `FaultConfig::chaos` to
//! `FaultConfig::lossy`: flits are dropped at the given rate (and
//! corrupted at half of it) on top of the chaos perturbations, which
//! arms the reliable-transport layer. `FAULT_SEED` repros compose with
//! it — the failure line prints the exact flag combination to replay.
//!
//! `--gpus N` (N ≥ 2) moves the sweep to the multi-GPU system: the same
//! scenario kernels run with CTAs spread across `N` devices under a
//! shared home node, plus a device-crash/rejoin scenario.
//! `--fabric-drop-rate` injects seeded packet loss on the inter-GPU
//! fabric (independent stream from the on-die `--drop-rate`), and
//! `--partition` schedules link-down windows that sever devices from
//! the home mid-kernel. A failing multi-GPU storm additionally mines
//! per-device fabric hotspots from the flight-recorder tail and prints
//! each device's stall attribution.
//!
//! The soak runs with the sanitizer off (it measures the protocol, not
//! the checker), so every storm that ends violation-free has its
//! flight-recorder tail replayed through the invariant catalog's
//! offline driver ([`gtsc_check::lint_events`]): the per-event rules
//! still get a look at what each component last did, crashes and
//! rollovers included.
//!
//! Exits nonzero if any run produced a checker violation, a trace-rule
//! finding, stalled, or hit the cycle limit.

use gtsc_check::lint_events;
use gtsc_faults::FaultStats;
use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
use gtsc_sim::{GpuSim, MultiGpuSim};
use gtsc_trace::{EventKind, Scope, TraceEvent};
use gtsc_types::{
    Addr, ConsistencyModel, FabricConfig, FaultConfig, GpuConfig, Lease, MultiGpuConfig,
    ProtocolKind, SimStats, TraceConfig,
};
use gtsc_workloads::micro;

/// Two CTAs of two warps hammering one block with atomics, stores, and
/// loads — the maximal-sharing workload from the fault test sweep.
fn contended_atomics() -> VecKernel {
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

struct Scenario {
    name: &'static str,
    model: ConsistencyModel,
    kernel: VecKernel,
    /// Some(bits) shrinks the epoch budget to force rollover storms.
    ts_bits_cap: Option<u32>,
    /// Multi-GPU sweeps only: schedule whole-device crash/rejoin events.
    device_crashes: bool,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "mp-sc",
            model: ConsistencyModel::Sc,
            kernel: micro::message_passing(3),
            ts_bits_cap: None,
            device_crashes: false,
        },
        Scenario {
            name: "mp-rc",
            model: ConsistencyModel::Rc,
            kernel: micro::message_passing(3),
            ts_bits_cap: None,
            device_crashes: false,
        },
        Scenario {
            name: "contend-sc",
            model: ConsistencyModel::Sc,
            kernel: contended_atomics(),
            ts_bits_cap: None,
            device_crashes: false,
        },
        Scenario {
            name: "contend-rc",
            model: ConsistencyModel::Rc,
            kernel: contended_atomics(),
            ts_bits_cap: None,
            device_crashes: false,
        },
        Scenario {
            name: "rollover-storm",
            model: ConsistencyModel::Sc,
            kernel: contended_atomics(),
            ts_bits_cap: Some(6),
            device_crashes: false,
        },
    ]
}

/// The multi-GPU sweep: the single-GPU scenarios (CTAs spread across
/// devices, so the sharing lands on the fabric) plus a whole-device
/// crash/rejoin storm.
fn multi_scenarios() -> Vec<Scenario> {
    let mut all = scenarios();
    all.push(Scenario {
        name: "device-crash",
        model: ConsistencyModel::Sc,
        kernel: contended_atomics(),
        ts_bits_cap: None,
        device_crashes: true,
    });
    all
}

/// One-line per-component hotspot summary: which SM / bank saw the
/// traffic a failing storm implicates.
fn hotspots(stats: &SimStats) -> String {
    let l1: Vec<String> = stats
        .per_l1
        .iter()
        .enumerate()
        .map(|(i, c)| format!("sm{i}={}h/{}e", c.hits, c.expired_misses))
        .collect();
    let l2: Vec<String> = stats
        .per_l2
        .iter()
        .enumerate()
        .map(|(b, c)| format!("bank{b}={}st", c.stores))
        .collect();
    let t = &stats.transport;
    format!(
        "hotspots: l1 [{}], l2 [{}], transport [{}rtx {}nack {}dup {}reset {}rec]",
        l1.join(" "),
        l2.join(" "),
        t.retransmits,
        t.nacks,
        t.dup_dropped,
        t.flows_reset,
        t.bank_recoveries,
    )
}

/// Transport hotspots from the flight-recorder tail: which flows were
/// dropping, NACKing, and retransmitting when the run went wrong. The
/// counter totals say *how much* the transport worked; this says *where*.
fn transport_hotspots(tail: &[TraceEvent]) -> Option<String> {
    use std::collections::BTreeMap;
    // (retransmits, nacks, drops+corruptions) per (src, dst) flow.
    let mut flows: BTreeMap<(u16, u16), (u64, u64, u64)> = BTreeMap::new();
    let mut resets = 0u64;
    for e in tail {
        match e.kind {
            EventKind::Retransmit { src, dst, .. } => flows.entry((src, dst)).or_default().0 += 1,
            EventKind::Nack { src, dst, .. } => flows.entry((src, dst)).or_default().1 += 1,
            EventKind::PacketDrop { src, dst } | EventKind::PacketCorrupt { src, dst } => {
                flows.entry((src, dst)).or_default().2 += 1;
            }
            EventKind::BankReset { .. } => resets += 1,
            _ => {}
        }
    }
    if flows.is_empty() && resets == 0 {
        return None;
    }
    let mut items: Vec<_> = flows.into_iter().collect();
    items.sort_by_key(|&(_, (r, n, d))| std::cmp::Reverse(r + n + d));
    let shown: Vec<String> = items
        .iter()
        .take(6)
        .map(|((s, d), (r, n, d2))| format!("{s}->{d}:{r}rtx/{n}nack/{d2}drop"))
        .collect();
    let reset_note = if resets > 0 {
        format!(", {resets} bank reset(s) in tail")
    } else {
        String::new()
    };
    Some(format!(
        "transport tail hotspots: [{}]{reset_note}",
        shown.join(" ")
    ))
}

/// Replays a finished storm's flight-recorder tail through the offline
/// rule driver. `Ok` carries the number of facts the rules examined (a
/// zero would mean the audit looked at nothing); `Err` says what fired.
fn audit_tail(tail: &[TraceEvent]) -> Result<u64, String> {
    let lint = lint_events(tail);
    if lint.is_clean() {
        return Ok(lint.scanned);
    }
    let mut why = format!(
        "trace rules flagged {} distinct finding(s) in the flight-recorder tail:",
        lint.findings.len()
    );
    for l in lint.lines() {
        why.push_str(&format!("\n    {l}"));
    }
    Err(why)
}

/// The single-GPU machine of one (seed, scenario) storm.
fn single_sim(seed: u64, sc: &Scenario, drop_permille: Option<u16>) -> GpuSim {
    let mut faults = match drop_permille {
        Some(p) => FaultConfig::lossy(seed, p),
        None => FaultConfig::chaos(seed),
    };
    if let Some(bits) = sc.ts_bits_cap {
        faults.ts_bits_cap = bits;
    }
    let cfg = GpuConfig::test_small()
        .with_protocol(ProtocolKind::Gtsc)
        .with_consistency(sc.model)
        .with_faults(faults)
        // Flight recorder on: a failing storm prints the event tail that
        // led up to it, not just counters (stall diagnoses carry theirs),
        // and a passing one has its tail audited.
        .with_trace(TraceConfig::flight());
    GpuSim::new(cfg)
}

/// Runs one (seed, scenario) storm; returns an error description if the
/// run violated coherence or failed to complete. `drop_permille` swaps
/// the chaos storm for a lossy one (drops + corruption + transport).
fn run_one(
    seed: u64,
    sc: &Scenario,
    drop_permille: Option<u16>,
) -> (Option<String>, Option<FaultStats>) {
    let mut sim = single_sim(seed, sc, drop_permille);
    let failure = match sim.run_kernel(&sc.kernel) {
        Ok(report) if report.violations.is_empty() => audit_tail(&sim.flight_tail())
            .err()
            .map(|why| format!("{why}\n  {}", hotspots(&report.stats))),
        Ok(report) => {
            let mut why = format!(
                "{} violation(s): {:?}",
                report.violations.len(),
                report.violations
            );
            let tail = &report.trace_tail;
            if !tail.is_empty() {
                let shown = tail.len().min(16);
                why.push_str(&format!("\n  last {shown} trace events:"));
                for e in &tail[tail.len() - shown..] {
                    why.push_str(&format!("\n    {e}"));
                }
            }
            why.push_str(&format!("\n  {}", hotspots(&report.stats)));
            if let Some(t) = transport_hotspots(tail) {
                why.push_str(&format!("\n  {t}"));
            }
            Some(why)
        }
        Err(e) => Some(format!("did not complete: {e}")),
    };
    (failure, sim.fault_stats())
}

/// Multi-GPU sweep knobs (`--gpus`, `--fabric-drop-rate`,
/// `--partition`), carried into every storm and the repro line.
#[derive(Clone, Copy)]
struct MultiOpts {
    gpus: usize,
    fabric_drop: Option<u16>,
    partition: bool,
}

impl MultiOpts {
    /// The flag tokens a repro command needs to replay this sweep.
    fn repro_flags(&self) -> String {
        let mut s = format!(" --gpus {}", self.gpus);
        if let Some(p) = self.fabric_drop {
            s.push_str(&format!(" --fabric-drop-rate {p}"));
        }
        if self.partition {
            s.push_str(" --partition");
        }
        s
    }
}

/// Per-device fabric hotspots from the flight-recorder tail: the up/down
/// fabric nets trace under `Scope::Noc(2N)` / `Scope::Noc(2N + 1)`, with
/// the device index as the up-net source and down-net destination. This
/// answers *which device's link* was dropping and retransmitting when
/// the storm went wrong — the transport totals only say how much.
fn device_fabric_hotspots(tail: &[TraceEvent], n_devices: usize) -> Option<String> {
    let up = Scope::Noc(2 * n_devices as u16);
    let down = Scope::Noc(2 * n_devices as u16 + 1);
    // (retransmits, nacks, drops+corruptions) per device.
    let mut devs = vec![(0u64, 0u64, 0u64); n_devices];
    for e in tail {
        let dev = match (e.scope, e.kind) {
            (s, EventKind::Retransmit { src, dst, .. })
            | (s, EventKind::Nack { src, dst, .. })
            | (s, EventKind::PacketDrop { src, dst })
            | (s, EventKind::PacketCorrupt { src, dst })
                if s == up || s == down =>
            {
                usize::from(if s == up { src } else { dst })
            }
            _ => continue,
        };
        let Some(slot) = devs.get_mut(dev) else {
            continue;
        };
        match e.kind {
            EventKind::Retransmit { .. } => slot.0 += 1,
            EventKind::Nack { .. } => slot.1 += 1,
            _ => slot.2 += 1,
        }
    }
    if devs.iter().all(|&(r, n, d)| r + n + d == 0) {
        return None;
    }
    let shown: Vec<String> = devs
        .iter()
        .enumerate()
        .map(|(i, (r, n, d))| format!("dev{i}={r}rtx/{n}nack/{d}drop"))
        .collect();
    Some(format!("fabric hotspots by device: [{}]", shown.join(" ")))
}

/// The multi-GPU machine of one (seed, scenario) storm. On-die faults
/// mirror the single-GPU sweep; the fabric gets its own seed-pure fault
/// stream (loss, partitions, device crashes) from the multi knobs.
fn multi_sim(seed: u64, sc: &Scenario, opts: MultiOpts, drop_permille: Option<u16>) -> MultiGpuSim {
    let mut faults = match drop_permille {
        Some(p) => FaultConfig::lossy(seed, p),
        None => FaultConfig::chaos(seed),
    };
    let mut fabric = FabricConfig::default();
    if let Some(bits) = sc.ts_bits_cap {
        faults.ts_bits_cap = bits;
        // The rebased grant must leave rollover headroom in the shrunken
        // timestamp budget (`MultiGpuSim::try_build` rejects it
        // otherwise): quarter of the range, mirroring the exhaustive
        // rollover litmus configuration.
        fabric.grant_lease = Lease(((1u64 << bits) / 4).min(fabric.grant_lease.0));
    }
    if let Some(p) = opts.fabric_drop {
        fabric = fabric.lossy(seed, p);
    } else {
        // Partition and crash schedules still derive from the seed even
        // when the loss layer is off.
        fabric.faults.seed = seed;
    }
    if opts.partition {
        fabric = fabric.with_partitions(2, 3_000, 1_500);
    }
    if sc.device_crashes {
        fabric = fabric.with_device_crashes(2, 2_000);
    }
    MultiGpuSim::new(MultiGpuConfig {
        n_devices: opts.gpus,
        gpu: GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_consistency(sc.model)
            .with_faults(faults)
            .with_trace(TraceConfig::flight()),
        fabric,
    })
}

/// Runs one (seed, scenario) multi-GPU storm.
fn run_one_multi(
    seed: u64,
    sc: &Scenario,
    opts: MultiOpts,
    drop_permille: Option<u16>,
) -> (Option<String>, Option<FaultStats>) {
    let mut sim = multi_sim(seed, sc, opts, drop_permille);
    let failure = match sim.run_kernel(&sc.kernel) {
        Ok(report) if report.violations.is_empty() => audit_tail(&sim.flight_tail()).err(),
        Ok(report) => {
            let mut why = format!(
                "{} violation(s): {:?}",
                report.violations.len(),
                report.violations
            );
            let tail = &report.trace_tail;
            if !tail.is_empty() {
                let shown = tail.len().min(16);
                why.push_str(&format!("\n  last {shown} trace events:"));
                for e in &tail[tail.len() - shown..] {
                    why.push_str(&format!("\n    {e}"));
                }
            }
            why.push_str(&format!("\n  {}", hotspots(&report.stats)));
            if let Some(t) = transport_hotspots(tail) {
                why.push_str(&format!("\n  {t}"));
            }
            Some(why)
        }
        Err(e) => Some(format!("did not complete: {e}")),
    };
    // A failing multi-GPU storm gets the device-scoped post-mortem: which
    // link was hot in the tail, and what each device was stalled on.
    let failure = failure.map(|mut why| {
        if let Some(h) = device_fabric_hotspots(&sim.flight_tail(), opts.gpus) {
            why.push_str(&format!("\n  {h}"));
        }
        for d in sim.device_stalls() {
            why.push_str(&format!("\n  {d}"));
        }
        why
    });
    (failure, sim.fault_stats())
}

fn arg_value(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    // FAULT_SEED pins a single seed (the repro path printed on failure);
    // otherwise sweep [start, start + seeds).
    let seeds: Vec<u64> = match std::env::var("FAULT_SEED").ok() {
        Some(raw) => match raw.parse() {
            Ok(seed) => vec![seed],
            Err(_) => {
                eprintln!("error: FAULT_SEED={raw:?} is not a u64");
                std::process::exit(2);
            }
        },
        None => {
            let start = arg_value("--start").unwrap_or(0);
            let n = arg_value("--seeds").unwrap_or(256);
            (start..start + n).collect()
        }
    };
    if seeds.is_empty() {
        eprintln!("error: empty seed sweep (--seeds 0) would vacuously pass");
        std::process::exit(2);
    }
    let permille = |name: &str| {
        arg_value(name).map(|p| {
            u16::try_from(p).unwrap_or_else(|_| {
                eprintln!("error: {name} {p} does not fit in permille (u16)");
                std::process::exit(2);
            })
        })
    };
    let drop_rate = permille("--drop-rate");
    let multi = arg_value("--gpus").map(|n| {
        if n < 2 {
            eprintln!("error: --gpus {n} — the multi-GPU sweep needs at least 2 devices");
            std::process::exit(2);
        }
        MultiOpts {
            gpus: n as usize,
            fabric_drop: permille("--fabric-drop-rate"),
            partition: std::env::args().any(|a| a == "--partition"),
        }
    });
    if multi.is_none()
        && (std::env::args().any(|a| a == "--partition")
            || permille("--fabric-drop-rate").is_some())
    {
        eprintln!("error: --fabric-drop-rate/--partition need --gpus N (they are fabric knobs)");
        std::process::exit(2);
    }
    let scenarios = match multi {
        Some(_) => multi_scenarios(),
        None => scenarios(),
    };
    let mut storm_kind = match drop_rate {
        Some(p) => format!("lossy storms ({p} permille drop)"),
        None => "chaos storms".to_string(),
    };
    if let Some(m) = multi {
        storm_kind.push_str(&format!(" across {} GPUs", m.gpus));
        if let Some(p) = m.fabric_drop {
            storm_kind.push_str(&format!(", fabric loss {p} permille"));
        }
        if m.partition {
            storm_kind.push_str(", partitions scheduled");
        }
    }
    println!(
        "== fault soak: {} seeds x {} scenarios = {} {storm_kind} ==",
        seeds.len(),
        scenarios.len(),
        seeds.len() * scenarios.len()
    );

    let mut total = FaultStats::default();
    let mut runs = 0u64;
    let mut failures = Vec::new();
    for &seed in &seeds {
        for sc in &scenarios {
            let (failure, stats) = match multi {
                Some(opts) => run_one_multi(seed, sc, opts, drop_rate),
                None => run_one(seed, sc, drop_rate),
            };
            runs += 1;
            if let Some(s) = stats {
                total.merge(&s);
            }
            if let Some(why) = failure {
                println!("FAIL seed {seed} [{}]: {why}", sc.name);
                let mut flags = drop_rate
                    .map(|p| format!(" --drop-rate {p}"))
                    .unwrap_or_default();
                if let Some(m) = multi {
                    flags.push_str(&m.repro_flags());
                }
                if !flags.is_empty() {
                    flags = format!(" --{flags}");
                }
                println!(
                    "  repro: FAULT_SEED={seed} cargo run --release -p gtsc-bench --bin stress_faults{flags}"
                );
                failures.push((seed, sc.name));
            }
        }
    }

    println!(
        "{runs} storms: {} packets jittered (+{} cycles), {} reordered, {} duplicated",
        total.jittered, total.extra_cycles, total.reordered, total.duplicated
    );
    if drop_rate.is_some() {
        println!(
            "loss layer: {} dropped, {} corrupted, {} bank reset(s)",
            total.dropped, total.corrupted, total.bank_resets
        );
        if total.dropped == 0 && total.corrupted == 0 {
            println!("WARN: lossy sweep never lost a packet — rate too low for this workload");
        }
    }
    if failures.is_empty() {
        println!("OK: zero coherence violations, zero stalls");
    } else {
        println!("{} FAILING storm(s): {failures:?}", failures.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The audit is not vacuous: a clean storm's tail yields facts.
    #[test]
    fn audit_of_a_clean_storm_examines_facts() {
        let sc = &scenarios()[0];
        let mut sim = single_sim(1, sc, Some(10));
        let report = sim.run_kernel(&sc.kernel).expect("completes");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report.trace_tail.is_empty(),
            "a clean report carries no tail — the audit must read the sim's"
        );
        let examined = audit_tail(&sim.flight_tail()).expect("clean");
        assert!(examined > 0, "the audit looked at nothing");
    }

    /// Healthy crash recovery comes back clean: a bank records the epoch
    /// it crashed in, then the rollover into the next.
    #[test]
    fn audit_passes_healthy_bank_and_device_crash_storms() {
        for seed in 0..6 {
            let cfg = GpuConfig::test_small()
                .with_protocol(ProtocolKind::Gtsc)
                .with_consistency(ConsistencyModel::Rc)
                .with_faults(FaultConfig::lossy(seed, 10).with_bank_crashes(2, 400))
                .with_trace(TraceConfig::flight());
            let mut sim = GpuSim::new(cfg);
            let report = sim
                .run_kernel(&micro::message_passing(3))
                .expect("completes");
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            let tail = sim.flight_tail();
            assert!(
                tail.iter()
                    .any(|e| matches!(e.kind, EventKind::BankReset { .. })),
                "seed {seed}: no crash reached the tail"
            );
            let examined = audit_tail(&tail).unwrap_or_else(|why| panic!("seed {seed}: {why}"));
            assert!(examined > 0);
        }

        let scenarios = multi_scenarios();
        let sc = scenarios.iter().find(|s| s.device_crashes).expect("listed");
        let opts = MultiOpts {
            gpus: 2,
            fabric_drop: None,
            partition: false,
        };
        for seed in 0..6 {
            let mut sim = multi_sim(seed, sc, opts, None);
            let report = sim.run_kernel(&sc.kernel).expect("completes");
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            let tail = sim.flight_tail();
            assert!(
                tail.iter().any(|e| matches!(
                    (e.scope, e.kind),
                    (Scope::Device(_), EventKind::BankReset { .. })
                )),
                "seed {seed}: no device crash reached the tail"
            );
            let examined = audit_tail(&tail).unwrap_or_else(|why| panic!("seed {seed}: {why}"));
            assert!(examined > 0);
        }
    }
}
