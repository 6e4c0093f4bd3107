//! Source lints for the protocol crates: the token-level linter in
//! [`gtsc_lint`] (span-accurate, string/comment aware; review
//! invariants plus the determinism rules `hash-iter` / `std-time` /
//! `unseeded-rng` / `thread-id`). Prints one `file:line: [rule] snippet`
//! line per finding, then a one-line summary; exit 1 when anything
//! fires, 2 when a whitelisted directory cannot be scanned. `--spans`
//! adds the column and rationale to each finding.
//!
//! ```text
//! src_lint [--spans] [repo-root]   # default root: current directory
//! ```

use std::path::PathBuf;

use gtsc_lint::lint_tree;

fn main() {
    let mut spans = false;
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--spans" => spans = true,
            _ => root = PathBuf::from(arg),
        }
    }

    match lint_tree(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("src_lint: clean");
        }
        Ok(findings) => {
            for d in &findings {
                println!("{}", if spans { d.spanned() } else { d.to_string() });
            }
            println!("src_lint: {} finding(s)", findings.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("src_lint: cannot scan {}: {e}", root.display());
            std::process::exit(2);
        }
    }
}
