//! Fault-injection soak: hammers G-TSC with seeded chaos storms far past
//! the checked-in test sweep (`tests/faults.rs` covers ~100 seeds; this
//! binary defaults to 256 and CI's nightly job widens it further).
//!
//! Run: `cargo run --release -p gtsc-bench --bin stress_faults -- [--seeds
//! N] [--start S] [--drop-rate PERMILLE] [--gpus N [--fabric-drop-rate
//! PERMILLE] [--partition]]` — [`gtsc_bench::storm::Soak`]'s knobs.
//! Every storm is a pure function of its seed, so a failure line prints a
//! one-command repro: `FAULT_SEED=<seed>` pins one seed, with the flags
//! that replay it.
//!
//! The storms run over all host cores through the experiment matrix's
//! `Plan`, as the `multi_soak_smoke` row's do, and print in seed order.
//! Exits 2 on a malformed or missing value or an unknown flag, 1 if any
//! storm produced a checker violation or trace-rule finding, stalled, or
//! hit the cycle limit.

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;

use gtsc_bench::storm::Soak;
use gtsc_bench::{Plan, RunKey};
use gtsc_workloads::Scale;

const USAGE: &str = "usage: stress_faults [--seeds N] [--start S] [--drop-rate PERMILLE] \
                     [--gpus N [--fabric-drop-rate PERMILLE] [--partition]]";

/// `flag`'s value, parsed.
fn value<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} {v:?} is not a {}", std::any::type_name::<T>()))
}

/// The soak `args` and `FAULT_SEED` (which pins a single seed — the
/// repro path printed on failure) ask for; otherwise the sweep is
/// `[start, start + seeds)`.
fn parse(
    mut args: impl Iterator<Item = String>,
    fault_seed: Option<String>,
) -> Result<Soak, String> {
    let (mut start, mut n, mut soak) = (0u64, 256u64, Soak::default());
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seeds" => n = value(&flag, args.next())?,
            "--start" => start = value(&flag, args.next())?,
            "--drop-rate" => soak.drop_rate = Some(value(&flag, args.next())?),
            "--gpus" => soak.gpus = Some(value(&flag, args.next())?),
            "--fabric-drop-rate" => soak.fabric_drop = Some(value(&flag, args.next())?),
            "--partition" => soak.partition = true,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if let Some(n @ 0..=1) = soak.gpus {
        return Err(format!(
            "--gpus {n} — the multi-GPU sweep needs at least 2 devices"
        ));
    }
    if soak.gpus.is_none() && (soak.partition || soak.fabric_drop.is_some()) {
        return Err("--fabric-drop-rate/--partition need --gpus N (they are fabric knobs)".into());
    }
    let end = start
        .checked_add(n)
        .ok_or("--start + --seeds overflows a u64")?;
    soak.seeds = match fault_seed {
        Some(raw) => vec![raw
            .parse()
            .map_err(|_| format!("FAULT_SEED={raw:?} is not a u64"))?],
        None => (start..end).collect(),
    };
    if soak.seeds.is_empty() {
        return Err("empty seed sweep (--seeds 0) would vacuously pass".into());
    }
    Ok(soak)
}

fn main() -> ExitCode {
    let soak = match parse(std::env::args().skip(1), std::env::var("FAULT_SEED").ok()) {
        Ok(soak) => soak,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    // The storm kernels have a size of their own: the plan's scale is moot.
    let plan = Plan {
        scale: Scale::Small,
        keys: soak.keys(),
    };
    let (text, failing) = soak.report(&plan.run(workers, RunKey::run));
    print!("{text}");
    if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
