//! Regenerates the paper's tables, figures and ablations: the rows of
//! `gtsc_bench::catalog`.
//!
//! The selected rows' runs are simulated once each, over as many threads
//! as the host has cores; the rows then print in catalog order, each
//! exactly what `results/<row>.txt` holds at full scale. `--csv DIR` and
//! `--json DIR` also write each row's table to `DIR/<row>.{csv,json}`.
//! Exits 2 on bad usage, 1 if a table could not be written.

use std::num::NonZeroUsize;
use std::path::Path;
use std::process::ExitCode;

use gtsc_bench::{catalog, Experiment, Plan, RunKey, Table};
use gtsc_workloads::Scale;

/// Where to write each row's table, and how to render it.
type Output = (String, &'static str, fn(&Table) -> String);

const USAGE: &str = "usage: repro <row>…|all [--scale tiny|small|full] [--csv DIR] [--json DIR]";

fn main() -> ExitCode {
    let rows = catalog();
    let usage = |error: &str| {
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        eprintln!("{error}\n{USAGE}\nrows: {}", names.join(" "));
        ExitCode::from(2)
    };
    let (mut names, mut scale) = (Vec::new(), Scale::Full);
    let mut outputs: Vec<Output> = Vec::new();
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
            ("--csv", _) => outputs.push((value, "csv", Table::to_csv)),
            ("--json", _) => outputs.push((value, "json", Table::to_json)),
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
        for (dir, ext, render) in &outputs {
            let path = Path::new(dir).join(format!("{}.{ext}", row.name));
            match std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, render(&out.table)))
            {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("could not write {}: {e}", path.display());
                    status = ExitCode::FAILURE;
                }
            }
        }
    }
    status
}
