//! The source linter against the real workspace: the tree must be
//! clean, and the determinism rules must be demonstrably live on the
//! real sources — the sanctioned hash-iteration sites fire the moment
//! their `lint: allow(hash-iter)` annotations are stripped, also where
//! the container is declared through the fixed-hasher aliases.

use std::path::Path;

use gtsc_lint::{lint_text, lint_tree, RuleSet};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Zero findings on the real tree; per-rule behaviour is pinned by the
/// fixture suite in `gtsc-lint`.
#[test]
fn tree_is_clean() {
    let findings = lint_tree(workspace_root()).expect("scan");
    assert!(
        findings.is_empty(),
        "src_lint fired:\n{}",
        findings
            .iter()
            .map(|d| d.spanned())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The clean tree is not vacuous: every `lint: allow(hash-iter)`
/// annotation in the simulation-state crates marks a site the rule
/// really catches. Strip the annotations and the rule must fire once
/// per site.
#[test]
fn hash_iter_rule_is_live_on_the_real_sources() {
    let dirs_with_sanctioned_sites = [
        ("crates/mem/src/mshr.rs", 1),
        // `memory_image`'s walk over `backing`, for all three banks.
        ("crates/protocol/src/shell.rs", 1),
        // `StoreBook`, for all four L1s: `blocks`, which sorts (the G-TSC
        // retry scan's walk), and order-free folds — a sum, a minimum,
        // the same change applied to every store.
        ("crates/protocol/src/front.rs", 4),
        // Order-independent folds (min, count) over `rd_inflight`, and
        // the retry scan's sorted walk.
        ("crates/core/src/l1.rs", 3),
        // `sorted_blocks` (every walk of `finish` and `compact` goes
        // through it), the frontier minimum, and `footprint`'s fold over
        // the load logs and sum over the store maps.
        ("crates/sim/src/check.rs", 4),
        // `expired_grant_blocks`, which sorts; order-free folds — two
        // counts, "all empty", a sum, the reset's rebase, the crash's
        // span closes (two maps).
        ("crates/fabric/src/device.rs", 7),
        // `memory_image`, which sorts; the reset's rebase.
        ("crates/fabric/src/home.rs", 2),
    ];
    for (rel, sites) in dirs_with_sanctioned_sites {
        let path = workspace_root().join(rel);
        let text = std::fs::read_to_string(&path).expect("source file");
        assert!(
            text.contains("lint: allow(hash-iter)"),
            "{rel}: expected a sanctioned hash-iter site"
        );
        let stripped = text.replace("lint: allow(hash-iter)", "lint: annotation-stripped");
        let findings: Vec<_> = lint_text(
            &path,
            &stripped,
            RuleSet {
                determinism: true,
                ..RuleSet::default()
            },
        )
        .into_iter()
        .filter(|d| d.rule == "hash-iter")
        .collect();
        assert_eq!(
            findings.len(),
            sites,
            "{rel}: hash-iter must fire on the de-annotated site(s): {findings:?}"
        );
    }
}
