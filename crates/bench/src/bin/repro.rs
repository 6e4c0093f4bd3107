//! Regenerates the paper's tables, figures and ablations, the bank-crash
//! scan and the multi-GPU fault smoke: the rows of `gtsc_bench::catalog`.
//!
//! The selected rows' runs are simulated once each, over as many threads
//! as the host has cores; the rows then print in catalog order, each
//! exactly what `results/<row>.txt` holds at full scale. `--out DIR` also
//! writes each row's output to `DIR/<row>.txt` and its table to
//! `DIR/<row>.{csv,json}`. Exits 2 on bad usage, 1 if a file could not be
//! written.

use std::num::NonZeroUsize;
use std::path::Path;
use std::process::ExitCode;

use gtsc_bench::{catalog, Experiment, Plan, RunKey};
use gtsc_workloads::Scale;

const USAGE: &str = "usage: repro <row>…|all [--scale tiny|small|full] [--out DIR]";

fn main() -> ExitCode {
    let rows = catalog();
    let usage = |error: &str| {
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        eprintln!("{error}\n{USAGE}\nrows: {}", names.join(" "));
        ExitCode::from(2)
    };
    let (mut names, mut scale, mut out_dir) = (Vec::new(), Scale::Full, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            names.push(arg);
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{arg} needs a value"));
        };
        match (arg.as_str(), value.as_str()) {
            ("--scale", "tiny") => scale = Scale::Tiny,
            ("--scale", "small") => scale = Scale::Small,
            ("--scale", "full") => scale = Scale::Full,
            ("--out", _) => out_dir = Some(value),
            _ => return usage(&format!("bad option {arg} {value}")),
        }
    }
    let known = |n: &String| n == "all" || rows.iter().any(|r| r.name == n);
    if let Some(bad) = names.iter().find(|n| !known(n)) {
        return usage(&format!("unknown row {bad}"));
    }
    if names.is_empty() {
        return usage("name at least one row, or `all`");
    }
    let wanted = |r: &&Experiment| names.iter().any(|n| n == "all" || n == r.name);
    let selected: Vec<&Experiment> = rows.iter().filter(wanted).collect();

    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let runs = Plan::new(&selected, scale).run(workers, RunKey::run);

    let mut status = ExitCode::SUCCESS;
    for row in selected {
        let out = (row.render)(&runs);
        print!("{}", out.text);
        let Some(dir) = &out_dir else { continue };
        let files = [
            ("txt", out.text),
            ("csv", out.table.to_csv()),
            ("json", out.table.to_json()),
        ];
        for (ext, body) in files {
            let path = Path::new(dir).join(format!("{}.{ext}", row.name));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body))
            {
                eprintln!("could not write {}: {e}", path.display());
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}
