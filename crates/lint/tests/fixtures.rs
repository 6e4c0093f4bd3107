//! One positive and one negative fixture per lint rule: the positive
//! must fire exactly that rule, the negative must stay silent. This is
//! the acceptance gate for the token engine — a rule that cannot catch
//! its own fixture is dead code, and one that fires on the negative
//! would poison the clean-tree guarantee CI depends on.

use std::path::Path;

use gtsc_lint::{lint_text, RuleSet};

fn rules_fired(src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_text(Path::new("fixture.rs"), src, RuleSet::all())
        .into_iter()
        .map(|d| d.rule)
        .collect();
    rules.dedup();
    rules
}

#[track_caller]
fn assert_fires(rule: &str, src: &str) {
    assert_eq!(rules_fired(src), vec![rule], "fixture: {src}");
}

#[track_caller]
fn assert_clean(src: &str) {
    assert_eq!(rules_fired(src), Vec::<&str>::new(), "fixture: {src}");
}

#[test]
fn raw_ts_arith() {
    assert_fires("raw-ts-arith", "let wts = line.meta.rts.succ();");
    assert_fires("raw-ts-arith", "line.meta.rts = wts + lease;");
    assert_fires("raw-ts-arith", "self.mem_ts = self.mem_ts.max(evicted);");
    assert_fires("raw-ts-arith", "let w = wts + 1;");
    assert_clean("let count = count + 1;");
    assert_clean("self.clock = self.clock.max(now);");
}

#[test]
fn unwrap() {
    assert_fires("unwrap", "let v = opt.unwrap();");
    assert_clean("let v = opt.unwrap_or(0);");
}

#[test]
fn panic() {
    assert_fires("panic", "panic!(\"unreachable: {x}\");");
    assert_clean("assert!(x < y, \"bounds\");");
}

#[test]
fn noc_inject() {
    assert_fires("noc-inject", "self.queues[src].push_back(pkt);");
    assert_clean("self.queues[src].pop_front();");
    assert_clean("out.push((dst, payload));");
}

#[test]
fn raw_network() {
    assert_fires("raw-network", "req_net: Network<(usize, u32)>,");
    assert_fires("raw-network", "let net = Network::new(4, 8, cfg);");
    assert_fires("raw-network", "use gtsc_noc::Network;");
    assert_clean("req_net: ReliableNet<(usize, u32)>,");
    assert_clean("let net = ReliableNet::new(4, 8, cfg, tp);");
}

#[test]
fn hash_iter() {
    assert_fires(
        "hash-iter",
        "struct S { waiters: HashMap<u64, u32> }\n\
         fn f(s: &S) -> u32 { s.waiters.values().sum() }",
    );
    assert_fires(
        "hash-iter",
        "fn f(seen: HashSet<u64>) { for b in &seen { use_block(b); } }",
    );
    // The fixed-hasher aliases are hash containers all the same.
    assert_fires(
        "hash-iter",
        "struct S { entries: FxHashMap<u64, u32> }\n\
         fn f(s: &S) -> Vec<u64> { s.entries.keys().copied().collect() }",
    );
    assert_fires(
        "hash-iter",
        "fn keys(map: &mut FxHashMap<u64, u32>) -> Vec<u64> { map.keys().copied().collect() }",
    );
    // BTree collections iterate in key order: deterministic, allowed.
    assert_clean(
        "struct S { waiters: BTreeMap<u64, u32> }\n\
         fn f(s: &S) -> u32 { s.waiters.values().sum() }",
    );
    // Non-iterating hash-map use is fine.
    assert_clean(
        "struct S { waiters: HashMap<u64, u32> }\n\
         fn f(s: &mut S) { s.waiters.insert(1, 2); s.waiters.remove(&1); }",
    );
}

#[test]
fn std_hasher() {
    assert_fires("std-hasher", "let mut seen = HashSet::new();");
    assert_fires(
        "std-hasher",
        "let m: HashMap<u64, u32, RandomState> = Default::default();",
    );
    assert_fires(
        "std-hasher",
        "let m = std::collections::HashMap::with_capacity(8);",
    );
    // The fixed-seed aliases are what simulation state is built from.
    assert_clean("let mut issue_time: FxHashMap<u64, u64> = FxHashMap::default();");
    assert_clean("struct S { backing: FxHashMap<u64, u64> }");
}

#[test]
fn std_time() {
    assert_fires("std-time", "let t0 = Instant::now();");
    assert_fires("std-time", "use std::time::SystemTime;");
    assert_clean("let dt = now - issued;");
}

#[test]
fn unseeded_rng() {
    assert_fires("unseeded-rng", "let mut rng = thread_rng();");
    assert_fires("unseeded-rng", "let x: u64 = rand::random();");
    assert_clean("let mut rng = StdRng::seed_from_u64(cfg.seed);");
}

#[test]
fn thread_id() {
    assert_fires("thread-id", "let who = thread::current();");
    assert_clean("let h = thread::spawn(move || run(cfg));");
}

#[test]
fn suppression_and_test_modules() {
    assert_clean("let t0 = Instant::now(); // lint: allow(std-time): startup banner only");
    assert_clean("#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}");
    // Suppressing one rule must not blanket others on the same line.
    assert_fires(
        "unwrap",
        "let v = opt.unwrap(); // lint: allow(std-time): wrong rule",
    );
}
