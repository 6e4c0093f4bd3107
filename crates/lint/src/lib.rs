//! Token-level source lints for the G-TSC workspace.
//!
//! Every file is tokenized by a real lexer (see [`lexer`]), so rules
//! match code tokens — never the inside of a string literal, doc
//! comment, or `/* */` block — and every diagnostic carries an exact
//! line *and column*.
//!
//! # Rules
//!
//! Review-invariant rules, each scanned over its own directory
//! whitelist:
//!
//! * `raw-ts-arith` — logical-timestamp arithmetic (`.succ()`,
//!   `+ lease`, `max` over `wts`/`rts`/`warp_ts`/`mem_ts`) outside
//!   `gtsc_core::rules`. Scanned: `crates/core/src` minus `rules.rs`.
//! * `unwrap` / `panic` — ad-hoc panics in the protocol, simulator,
//!   NoC, inter-GPU fabric, sweep, and types crates.
//! * `noc-inject` — direct pushes onto NoC injection queues inside
//!   `crates/noc/src`, bypassing reliable-transport sequencing.
//! * `raw-network` — the raw lossy `Network` type inside
//!   `crates/sim/src` (the simulator must use `ReliableNet`).
//!
//! Determinism rules, scanned over every simulation-state crate
//! (`crates/{core,baselines,protocol,sim,noc,fabric,mem,gpu}/src`) —
//! each bans a nondeterminism source that would break bit-identical
//! replay, the property the model checker, snapshot/restore, and the
//! race oracle all stand on:
//!
//! * `hash-iter` — iterating a hash-container binding (`HashMap`,
//!   `HashSet`, or the fixed-hasher `FxHashMap`/`FxHashSet` aliases
//!   simulation state uses): the order is no simulated result. Sort
//!   first, or key the state with a BTree collection.
//! * `std-hasher` — `HashMap::new()` / `HashSet::new()` /
//!   `RandomState`: std's hasher is seeded per process, so an order
//!   that leaked would not even repeat. Simulation state declares its
//!   maps through `gtsc_types::{FxHashMap, FxHashSet}`.
//! * `std-time` — `std::time` / `Instant` / `SystemTime`: sim time is
//!   `Cycle`, never the wall clock.
//! * `unseeded-rng` — `thread_rng` / `from_entropy` / `OsRng` /
//!   `rand::random`: all randomness flows from seeds in configs.
//! * `thread-id` — `thread::current`: results must not depend on
//!   thread identity.
//!
//! Suppression and test handling: a `// lint: allow(<rule>)` comment on
//! the offending line or one of the two lines above it, and scanning
//! stops at the file's first `#[cfg(test)]` marker.

pub mod lexer;
mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which rule families a scan pass applies (directory whitelists give
/// each family its own pass, so findings stay attributable).
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// `raw-ts-arith`.
    pub ts_arith: bool,
    /// `unwrap` and `panic`.
    pub no_panic: bool,
    /// `noc-inject`.
    pub noc_inject: bool,
    /// `raw-network`.
    pub raw_network: bool,
    /// `hash-iter`, `std-hasher`, `std-time`, `unseeded-rng`,
    /// `thread-id`.
    pub determinism: bool,
}

impl RuleSet {
    /// Every rule family at once (fixture tests; single-file scans).
    #[must_use]
    pub fn all() -> Self {
        Self {
            ts_arith: true,
            no_panic: true,
            noc_inject: true,
            raw_network: true,
            determinism: true,
        }
    }
}

/// One lint finding with an exact source span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// File containing the offending token.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Rule name.
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Why the rule exists / what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// The span-accurate long form:
    /// `file:line:col: [rule] message` plus the snippet.
    #[must_use]
    pub fn spanned(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}\n    {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule,
            self.message,
            self.snippet
        )
    }
}

/// Renders in the `src_lint` output format
/// (`file:line: [rule] snippet`) that CI greps.
impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.snippet
        )
    }
}

/// Directory whitelists, relative to the repo root. The determinism
/// list covers every crate that holds simulation state.
const TS_ARITH_DIRS: &[&str] = &["crates/core/src"];
const TS_ARITH_ALLOWED_FILES: &[&str] = &["rules.rs"];
const NO_PANIC_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/sim/src",
    "crates/noc/src",
    "crates/fabric/src",
    "crates/sweep/src",
    "crates/types/src",
];
const NOC_INJECT_DIRS: &[&str] = &["crates/noc/src"];
const RAW_NETWORK_DIRS: &[&str] = &["crates/sim/src"];
const DETERMINISM_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/baselines/src",
    "crates/protocol/src",
    "crates/sim/src",
    "crates/noc/src",
    "crates/fabric/src",
    "crates/mem/src",
    "crates/gpu/src",
];

/// Lints one file's text under the given rules. `path` is only
/// recorded into the diagnostics, not read.
#[must_use]
pub fn lint_text(path: &Path, text: &str, rules: RuleSet) -> Vec<Diagnostic> {
    let toks = lexer::lex(text);
    let lines: Vec<&str> = text.lines().collect();
    rules::scan(&toks, rules)
        .into_iter()
        .map(|f| Diagnostic {
            file: path.to_path_buf(),
            line: f.line,
            col: f.col,
            rule: f.rule,
            snippet: lines.get(f.line - 1).map_or("", |l| l.trim()).to_string(),
            message: f.message,
        })
        .collect()
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root` with every directory pass.
/// Findings are sorted by file, then line, then column.
///
/// # Errors
///
/// Propagates directory-walk failures; a whitelisted directory that
/// does not exist is an error (the whitelists must track the layout).
pub fn lint_tree(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let passes: &[(&[&str], RuleSet)] = &[
        (
            TS_ARITH_DIRS,
            RuleSet {
                ts_arith: true,
                ..RuleSet::default()
            },
        ),
        (
            NO_PANIC_DIRS,
            RuleSet {
                no_panic: true,
                ..RuleSet::default()
            },
        ),
        (
            NOC_INJECT_DIRS,
            RuleSet {
                noc_inject: true,
                ..RuleSet::default()
            },
        ),
        (
            RAW_NETWORK_DIRS,
            RuleSet {
                raw_network: true,
                ..RuleSet::default()
            },
        ),
        (
            DETERMINISM_DIRS,
            RuleSet {
                determinism: true,
                ..RuleSet::default()
            },
        ),
    ];
    let mut findings = Vec::new();
    for (dirs, rules) in passes {
        for dir in *dirs {
            let mut files = Vec::new();
            rs_files(&root.join(dir), &mut files)?;
            files.sort();
            for f in files {
                if rules.ts_arith
                    && TS_ARITH_ALLOWED_FILES
                        .iter()
                        .any(|a| f.file_name().is_some_and(|n| n == *a))
                {
                    continue;
                }
                let Ok(text) = fs::read_to_string(&f) else {
                    continue;
                };
                findings.extend(lint_text(&f, &text, *rules));
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(text: &str) -> Vec<Diagnostic> {
        lint_text(Path::new("x.rs"), text, RuleSet::all())
    }

    fn rules_of(text: &str) -> Vec<&'static str> {
        diags(text).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn string_and_comment_contents_never_fire() {
        assert!(diags("let s = \"call .unwrap() and panic!(now)\";").is_empty());
        assert!(diags("// panic!(\"doc example\") and x.unwrap()").is_empty());
        assert!(diags("/* wts = wts.max(rts) + 1 */ let ok = 0;").is_empty());
    }

    #[test]
    fn spans_point_at_the_offending_token() {
        let d = diags("let v = opt.unwrap();");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line, d[0].col), ("unwrap", 1, 13));
        assert_eq!(d[0].snippet, "let v = opt.unwrap();");
        assert_eq!(d[0].to_string(), "x.rs:1: [unwrap] let v = opt.unwrap();");
        assert!(d[0].spanned().starts_with("x.rs:1:13: [unwrap]"));
    }

    #[test]
    fn cfg_test_marker_stops_the_scan() {
        let text = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(diags(text).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_on_line_or_two_above() {
        assert!(diags("x.unwrap(); // lint: allow(unwrap): checked above").is_empty());
        assert!(
            diags("// lint: allow(panic): documented invariant\n\npanic!(\"boom\");").is_empty()
        );
        // Three lines above is out of the window; wrong rule never matches.
        assert_eq!(
            rules_of("// lint: allow(panic)\n\n\npanic!(\"boom\");"),
            vec!["panic"]
        );
        assert_eq!(
            rules_of("x.unwrap(); // lint: allow(panic)"),
            vec!["unwrap"]
        );
    }

    #[test]
    fn multiline_chains_are_caught_where_line_rules_are_not() {
        // The determinism rules walk the token stream, so a wrapped
        // method chain still resolves its receiver.
        let text =
            "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) { s.m\n    .keys()\n    .count(); }\n";
        let d = diags(text);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("hash-iter", 3));
    }
}
