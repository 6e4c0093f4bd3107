//! Rule evaluation over the token stream of one file.
//!
//! Two families:
//!
//! * **Per-line review rules** (`raw-ts-arith`, `unwrap`, `panic`,
//!   `noc-inject`, `raw-network`). These are evaluated a line at a time,
//!   but over token patterns instead of substrings — a `panic!(` inside
//!   a string literal or comment cannot fire.
//! * **Stream determinism rules** (`hash-iter`, `std-hasher`,
//!   `std-time`, `unseeded-rng`, `thread-id`) that walk the whole token
//!   stream, so a method chain split across lines
//!   (`self.entries\n.keys()`) is still caught.
//!
//! Shared conventions:
//!
//! * scanning stops at the file's first `#[cfg(test)]` marker (this
//!   workspace keeps test modules at the bottom of each file);
//! * a `// lint: allow(<rule>)` comment on the offending line or one of
//!   the two lines above it suppresses that rule there.

use crate::lexer::{Tok, TokKind};
use crate::RuleSet;

/// A finding before it is joined with file path and snippet.
#[derive(Debug, Clone)]
pub(crate) struct RawFinding {
    pub line: usize,
    pub col: usize,
    pub rule: &'static str,
    pub message: String,
}

/// Hash-container methods whose visit order is the container's
/// (randomized) iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// The hash containers `hash-iter` tracks: std's, and the fixed-hasher
/// aliases of `gtsc_types::hash` simulation state declares them through
/// (a fixed seed makes a leaked order reproducible, not meaningful).
const HASH_CONTAINERS: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Timestamp-bearing identifiers whose combination with arithmetic
/// marks a line as timestamp math.
const TS_WORDS: &[&str] = &["wts", "rts", "warp_ts", "mem_ts"];

/// Scans one file's token stream. `toks` must come from
/// [`crate::lexer::lex`] on the full file text.
pub(crate) fn scan(toks: &[Tok<'_>], rules: RuleSet) -> Vec<RawFinding> {
    let code: Vec<Tok<'_>> = toks
        .iter()
        .copied()
        .filter(|t| matches!(t.kind, TokKind::Ident | TokKind::Lit | TokKind::Punct))
        .collect();
    let comments: Vec<Tok<'_>> = toks
        .iter()
        .copied()
        .filter(|t| t.kind == TokKind::Comment)
        .collect();
    let cutoff = cfg_test_line(&code);
    let code: Vec<Tok<'_>> = code.into_iter().filter(|t| t.line < cutoff).collect();

    let mut out = Vec::new();
    per_line_rules(&code, rules, &mut out);
    if rules.determinism {
        hash_iter(&code, &mut out);
        path_rules(&code, &mut out);
    }
    out.retain(|f| !allowed(&comments, f.line, f.rule));
    out.sort_by_key(|f| (f.line, f.col));
    out.dedup_by(|a, b| (a.line, a.col, a.rule) == (b.line, b.col, b.rule));
    out
}

/// Line of the file's first `#[cfg(test)]` attribute, or `usize::MAX`.
fn cfg_test_line(code: &[Tok<'_>]) -> usize {
    code.windows(7)
        .find(|w| {
            w[0].is_punct("#")
                && w[1].is_punct("[")
                && w[2].is_ident("cfg")
                && w[3].is_punct("(")
                && w[4].is_ident("test")
                && w[5].is_punct(")")
                && w[6].is_punct("]")
        })
        .map_or(usize::MAX, |w| w[0].line)
}

/// Whether a `lint: allow(<rule>)` comment covers `line` (the line
/// itself or the two above).
fn allowed(comments: &[Tok<'_>], line: usize, rule: &str) -> bool {
    let lo = line.saturating_sub(2);
    comments
        .iter()
        .filter(|c| (lo..=line).contains(&c.line))
        .any(|c| {
            c.text.find("lint: allow(").is_some_and(|start| {
                let rest = &c.text[start + "lint: allow(".len()..];
                rest.split(')').next() == Some(rule)
            })
        })
}

/// `.name(` at `i` — method-call pattern.
fn dot_call(toks: &[Tok<'_>], i: usize, name: &str) -> bool {
    toks[i].is_punct(".")
        && toks.get(i + 1).is_some_and(|t| t.is_ident(name))
        && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
}

fn per_line_rules(code: &[Tok<'_>], rules: RuleSet, out: &mut Vec<RawFinding>) {
    let mut start = 0usize;
    while start < code.len() {
        let line = code[start].line;
        let mut end = start;
        while end < code.len() && code[end].line == line {
            end += 1;
        }
        line_rules(&code[start..end], rules, out);
        start = end;
    }
}

/// The per-line rules, evaluated over one line's code tokens.
fn line_rules(l: &[Tok<'_>], rules: RuleSet, out: &mut Vec<RawFinding>) {
    let mut push = |t: &Tok<'_>, rule: &'static str, message: String| {
        out.push(RawFinding {
            line: t.line,
            col: t.col,
            rule,
            message,
        });
    };
    if rules.ts_arith {
        if let Some(t) = ts_arith(l) {
            push(
                t,
                "raw-ts-arith",
                "logical-timestamp arithmetic belongs in gtsc_core::rules, where each \
                 rule cites its figure and carries property tests"
                    .into(),
            );
        }
    }
    if rules.no_panic {
        for i in 0..l.len() {
            if dot_call(l, i, "unwrap") && l.get(i + 3).is_some_and(|t| t.is_punct(")")) {
                push(
                    &l[i + 1],
                    "unwrap",
                    "protocol and simulator crates surface errors through results or \
                     documented invariants, not ad-hoc panics"
                        .into(),
                );
            }
            if l[i].is_ident("panic")
                && l.get(i + 1).is_some_and(|t| t.is_punct("!"))
                && l.get(i + 2).is_some_and(|t| t.is_punct("("))
            {
                push(
                    &l[i],
                    "panic",
                    "protocol and simulator crates surface errors through results or \
                     documented invariants, not ad-hoc panics"
                        .into(),
                );
            }
        }
    }
    if rules.noc_inject {
        let queues = l
            .windows(2)
            .any(|w| w[0].is_ident("queues") && w[1].is_punct("["));
        let push_call = l.iter().enumerate().find(|(i, t)| {
            t.is_punct(".")
                && l.get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident && n.text.starts_with("push"))
        });
        if queues {
            if let Some((i, _)) = push_call {
                push(
                    &l[i + 1],
                    "noc-inject",
                    "direct pushes onto NoC injection queues bypass the reliable-transport \
                     layer's sequencing; route through Network::send"
                        .into(),
                );
            }
        }
    }
    if rules.raw_network {
        for (i, t) in l.iter().enumerate() {
            let after = |p| l.get(i + 1).is_some_and(|n: &Tok<'_>| n.is_punct(p));
            let before_path = i > 0 && l[i - 1].is_punct("::");
            if t.is_ident("Network") && (after("<") || after("::") || before_path) {
                push(
                    t,
                    "raw-network",
                    "the simulator must talk to the interconnect through ReliableNet, \
                     never the raw lossy Network"
                        .into(),
                );
            }
        }
    }
}

/// The timestamp-arithmetic heuristic over one line's tokens:
/// `.succ()`, `+ lease`/`+ Lease…`, or a timestamp word combined with
/// `.max(` or a literal `+ 1`. Returns the anchoring token.
fn ts_arith<'t, 'a>(l: &'t [Tok<'a>]) -> Option<&'t Tok<'a>> {
    for i in 0..l.len() {
        if dot_call(l, i, "succ") && l.get(i + 3).is_some_and(|t| t.is_punct(")")) {
            return Some(&l[i + 1]);
        }
        if l[i].is_punct("+")
            && l.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident
                    && (t.text.starts_with("lease") || t.text.starts_with("Lease"))
            })
        {
            return Some(&l[i]);
        }
    }
    let mentions_ts = l
        .iter()
        .any(|t| t.kind == TokKind::Ident && TS_WORDS.iter().any(|w| t.text.contains(w)));
    if !mentions_ts {
        return None;
    }
    for i in 0..l.len() {
        if dot_call(l, i, "max") {
            return Some(&l[i + 1]);
        }
        if l[i].is_punct("+")
            && l.get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Lit && t.text == "1")
        {
            return Some(&l[i]);
        }
    }
    None
}

/// Path-shaped determinism rules: wall-clock time, ambient entropy, and
/// thread identity are all nondeterminism sources the simulator crates
/// must not touch (sim time is `Cycle`; randomness comes from seeded
/// generators threaded through configs).
fn path_rules(code: &[Tok<'_>], out: &mut Vec<RawFinding>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |p: &str| code.get(i + 1).is_some_and(|n| n.is_punct(p));
        let path_next =
            |name: &str| next_is("::") && code.get(i + 2).is_some_and(|n| n.is_ident(name));
        let (rule, message): (&'static str, &str) = if (t.is_ident("std") && path_next("time"))
            || ((t.is_ident("Instant") || t.is_ident("SystemTime")) && next_is("::"))
        {
            (
                "std-time",
                "wall-clock time in simulator code; sim time is Cycle",
            )
        } else if t.is_ident("thread_rng")
            || t.is_ident("from_entropy")
            || t.is_ident("OsRng")
            || (t.is_ident("rand") && path_next("random"))
        {
            (
                "unseeded-rng",
                "ambient entropy breaks replay; use a seeded generator threaded through the config",
            )
        } else if t.is_ident("thread") && path_next("current") {
            (
                "thread-id",
                "thread identity varies across runs; results must not depend on it",
            )
        } else if t.is_ident("RandomState")
            || ((t.is_ident("HashMap") || t.is_ident("HashSet"))
                && (path_next("new") || path_next("with_capacity")))
        {
            (
                "std-hasher",
                "std's hasher is seeded per process; simulation state uses \
                 gtsc_types::{FxHashMap, FxHashSet} (`default()`)",
            )
        } else {
            continue;
        };
        out.push(RawFinding {
            line: t.line,
            col: t.col,
            rule,
            message: message.into(),
        });
    }
}

/// Flags iteration over hash-container bindings ([`HASH_CONTAINERS`]):
/// their order is no property of the simulated machine, so any
/// result-affecting walk makes runs irreproducible or layout-dependent.
/// Bindings are collected from type ascriptions and initializers
/// (`name: FxHashMap<..>`, `let name = HashMap::new()`), then every
/// `recv.iter()`-family call and `for … in` expression is checked
/// against that set.
fn hash_iter(code: &[Tok<'_>], out: &mut Vec<RawFinding>) {
    let mut bindings: Vec<&str> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !HASH_CONTAINERS.iter().any(|name| t.is_ident(name)) {
            continue;
        }
        // Walk back over the `path::to::` prefix, if any.
        let mut k = i;
        while k >= 2 && code[k - 1].is_punct("::") && code[k - 2].kind == TokKind::Ident {
            k -= 2;
        }
        // …and over the `&` / `&mut` of a borrowed parameter.
        while k >= 1 && (code[k - 1].is_punct("&") || code[k - 1].is_ident("mut")) {
            k -= 1;
        }
        if k < 2 {
            continue;
        }
        // `name: HashMap<..>` (field, let, or param) or `name = HashMap::new()`.
        if (code[k - 1].is_punct(":") || code[k - 1].is_punct("="))
            && code[k - 2].kind == TokKind::Ident
        {
            bindings.push(code[k - 2].text);
        }
    }
    if bindings.is_empty() {
        return;
    }
    let is_bound = |t: &Tok<'_>| t.kind == TokKind::Ident && bindings.contains(&t.text);
    let mut flag = |t: &Tok<'_>, recv: &str| {
        out.push(RawFinding {
            line: t.line,
            col: t.col,
            rule: "hash-iter",
            message: format!(
                "iteration order of the hash-keyed `{recv}` is not a simulated result; \
                 sort first or key the state with a BTree collection"
            ),
        });
    };
    for (i, t) in code.iter().enumerate() {
        // recv.iter() — the receiver must be a bound name, not a call result.
        if t.is_punct(".")
            && code
                .get(i + 1)
                .is_some_and(|m| m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text))
            && code.get(i + 2).is_some_and(|p| p.is_punct("("))
            && i > 0
            && is_bound(&code[i - 1])
        {
            flag(&code[i + 1], code[i - 1].text);
        }
        // for pat in <expr containing a bound name> { … }
        if t.is_ident("for") {
            let stop = |x: &Tok<'_>| x.is_punct("{") || x.is_punct(";");
            let Some(j) = (i + 1..code.len().min(i + 33))
                .take_while(|&j| !stop(&code[j]))
                .find(|&j| code[j].is_ident("in"))
            else {
                continue;
            };
            if let Some(b) = (j + 1..code.len().min(j + 33))
                .take_while(|&j| !stop(&code[j]))
                .find(|&j| is_bound(&code[j]))
            {
                // `for x in map.keys()` is already flagged above; only
                // flag direct walks (`for x in &map`).
                let called = code
                    .get(b + 1)
                    .is_some_and(|n| n.is_punct(".") || n.is_punct("::"));
                if !called {
                    flag(&code[b], code[b].text);
                }
            }
        }
    }
}
