//! One row per catalog rule, through the sink that judges it.
//!
//! Every [`RULES`] entry gets a clean event sequence and a dirty one,
//! written in the one vocabulary the components emit ([`EventKind`]).
//! Each row runs through the live sink ([`Sanitizer`]) unless the rule is
//! [`Fed::Offline`], and through the recorded-stream sink
//! ([`lint_events`]) unless it is [`Fed::Online`] — the same events, no
//! translation. Either sink must raise exactly the row's rule on the
//! dirty sequence and nothing on the clean one, and every name a sink can
//! print is a catalog name.

use std::collections::BTreeSet;

use gtsc_check::lint_events;
use gtsc_trace::{EventKind, Fed, Finding, LeaseOp, Sanitizer, Scope, Severity, TraceEvent, RULES};
use gtsc_types::{BlockAddr, Cycle, Timestamp};

const SM: Scope = Scope::Sm(0);
const BANK: Scope = Scope::L2Bank(0);
const HOME: Scope = Scope::Home(0);
const DEV: Scope = Scope::Device(0);
const NOC: Scope = Scope::Noc(0);

type Facts = Vec<TraceEvent>;

struct Row {
    rule: &'static str,
    /// Rules the dirty sequence cannot avoid raising as well, because
    /// this rule's breach implies theirs.
    implies: &'static [&'static str],
    clean: Facts,
    dirty: Facts,
}

fn b(n: u64) -> BlockAddr {
    BlockAddr(n)
}
/// `(scope, kind)` pairs at cycles 0, 1, 2…
fn seq(facts: Vec<(Scope, EventKind)>) -> Facts {
    let at = |(i, (scope, kind)): (usize, (Scope, EventKind))| TraceEvent {
        cycle: Cycle(i as u64),
        scope,
        kind,
    };
    facts.into_iter().enumerate().map(at).collect()
}
fn on(scope: Scope, kinds: Vec<EventKind>) -> Facts {
    seq(kinds.into_iter().map(|k| (scope, k)).collect())
}
fn at(cycle: u64, scope: Scope, kind: EventKind) -> TraceEvent {
    TraceEvent {
        cycle: Cycle(cycle),
        scope,
        kind,
    }
}
/// An install: an L1's lease under [`SM`], a device's grant under
/// [`DEV`], a DRAM fill under [`BANK`].
fn install(block: u64, wts: u64, rts: u64, epoch: u64) -> EventKind {
    EventKind::Lease {
        op: LeaseOp::Install,
        block: b(block),
        wts,
        rts,
        epoch,
    }
}
fn l1_hit(block: u64, warp_ts: u64, rts: u64) -> EventKind {
    EventKind::Hit {
        block: b(block),
        warp: 0,
        warp_ts,
        rts,
    }
}
fn warp_ts(warp: u16, t: u64) -> EventKind {
    EventKind::WarpTs {
        warp,
        ts: Timestamp(t),
    }
}
fn enter(epoch: u64) -> EventKind {
    EventKind::Rollover { epoch }
}
fn crash(epoch: u64) -> EventKind {
    EventKind::BankReset { epoch }
}
/// A grant served with data: a bank's or the home's, or under [`DEV`] a
/// device's serve from its installed grant.
fn grant(block: u64, wts: u64, rts: u64, epoch: u64) -> EventKind {
    EventKind::Lease {
        op: LeaseOp::Grant,
        block: b(block),
        wts,
        rts,
        epoch,
    }
}
fn renew(block: u64, wts: u64, rts: u64, epoch: u64) -> EventKind {
    EventKind::Lease {
        op: LeaseOp::Renew,
        block: b(block),
        wts,
        rts,
        epoch,
    }
}
fn store(block: u64, wts: u64, rts: u64, epoch: u64) -> EventKind {
    EventKind::Lease {
        op: LeaseOp::Commit,
        block: b(block),
        wts,
        rts,
        epoch,
    }
}
fn evict(block: u64, rts: u64, mem_ts: Option<u64>) -> EventKind {
    EventKind::Eviction {
        block: b(block),
        rts,
        mem_ts,
    }
}
fn tc_write(block: u64, expires: u64, strong: bool) -> EventKind {
    EventKind::TcWrite {
        block: b(block),
        expires,
        strong,
    }
}
fn retransmit(src: u16, age: u64, timeout: u64, nack: bool) -> EventKind {
    EventKind::Retransmit {
        src,
        dst: 1,
        seq: 4,
        age,
        timeout,
        nack,
    }
}

#[allow(clippy::too_many_lines)]
fn rows() -> Vec<Row> {
    vec![
        Row {
            rule: "load-past-rts",
            implies: &[],
            clean: on(SM, vec![l1_hit(2, 5, 10), l1_hit(2, 10, 10)]),
            dirty: on(SM, vec![l1_hit(2, 20, 10)]),
        },
        Row {
            rule: "wts-gt-rts",
            implies: &[],
            clean: on(BANK, vec![grant(1, 1, 11, 0), grant(1, 11, 11, 0)]),
            dirty: on(BANK, vec![grant(1, 12, 4, 0)]),
        },
        Row {
            rule: "store-before-lease-expiry",
            implies: &[],
            // A store safely past the high-water lease is fine...
            clean: on(BANK, vec![grant(3, 1, 15, 0), store(3, 16, 26, 0)]),
            // ...one inside a lease a renewal extended is not.
            dirty: on(
                BANK,
                vec![grant(3, 1, 15, 0), renew(3, 1, 25, 0), store(3, 20, 30, 0)],
            ),
        },
        Row {
            rule: "store-wts-order",
            // A store's own lease starts at its wts, so a store that
            // fails to pass the last store also lands inside its lease.
            implies: &["store-before-lease-expiry"],
            // A new epoch restarts the ladder.
            clean: on(BANK, vec![store(7, 5, 15, 0), enter(1), store(7, 2, 12, 1)]),
            dirty: on(BANK, vec![store(7, 5, 15, 0), store(7, 5, 15, 0)]),
        },
        Row {
            rule: "grant-rts-regression",
            implies: &[],
            clean: on(BANK, vec![grant(1, 1, 10, 0), grant(1, 1, 20, 0)]),
            dirty: on(BANK, vec![grant(1, 1, 20, 0), grant(1, 1, 10, 0)]),
        },
        Row {
            rule: "grant-wts-regression",
            implies: &[],
            clean: on(BANK, vec![store(1, 16, 26, 0), grant(1, 16, 30, 0)]),
            dirty: on(BANK, vec![store(1, 16, 26, 0), grant(1, 5, 30, 0)]),
        },
        Row {
            rule: "lease-beyond-grant",
            implies: &[],
            clean: seq(vec![
                (BANK, grant(3, 1, 11, 0)),
                (SM, install(3, 1, 11, 0)),
                (SM, warp_ts(0, 5)),
                (SM, warp_ts(0, 9)),
                // A grant from another epoch says nothing about this one.
                (SM, install(3, 1, 40, 1)),
            ]),
            dirty: seq(vec![
                (BANK, grant(2, 1, 10, 0)),
                (SM, install(2, 1, 20, 0)),
                (SM, renew(2, 1, 30, 0)),
            ]),
        },
        Row {
            rule: "warp-ts-backwards",
            implies: &[],
            // Epoch entry clears the frontier: the post-reset INIT value
            // is not a regression. Another warp's clock is its own.
            clean: on(
                SM,
                vec![warp_ts(2, 9), warp_ts(3, 1), enter(1), warp_ts(2, 1)],
            ),
            dirty: on(SM, vec![warp_ts(2, 9), warp_ts(2, 4)]),
        },
        Row {
            rule: "epoch-order",
            implies: &[],
            // Re-entering the epoch a scope is already in is legal: the
            // banks of one device share a scope and each reports.
            clean: on(BANK, vec![enter(1), enter(1), enter(2)]),
            dirty: on(BANK, vec![enter(3), enter(2)]),
        },
        Row {
            rule: "crash-epoch-reuse",
            implies: &[],
            clean: seq(vec![
                (BANK, grant(4, 1, 9, 0)),
                (BANK, crash(0)),
                (BANK, enter(1)),
                (BANK, grant(4, 0, 5, 1)),
                // A scope that never crashed is unaffected.
                (Scope::L2Bank(3), grant(6, 1, 9, 0)),
            ]),
            // The recovery re-entered the epoch it crashed in.
            dirty: on(
                BANK,
                vec![
                    grant(4, 1, 9, 0),
                    crash(0),
                    enter(0),
                    grant(4, 1, 9, 0),
                    store(5, 3, 9, 0),
                ],
            ),
        },
        Row {
            rule: "evict-unfolded-lease",
            implies: &[],
            // An L1 eviction folds nothing.
            clean: seq(vec![
                (BANK, evict(9, 40, Some(40))),
                (SM, evict(9, 40, None)),
            ]),
            dirty: on(BANK, vec![evict(9, 40, Some(12))]),
        },
        Row {
            rule: "grant-beyond-home",
            implies: &[],
            clean: seq(vec![
                (HOME, grant(8, 1, 20, 0)),
                (DEV, install(8, 1, 20, 0)),
            ]),
            dirty: seq(vec![
                (HOME, grant(8, 1, 20, 0)),
                (DEV, install(8, 1, 25, 0)),
            ]),
        },
        Row {
            rule: "serve-outside-device-grant",
            implies: &[],
            // Serving inside the grant is fine; at its edge is fine.
            clean: seq(vec![
                (HOME, grant(3, 1, 50, 0)),
                (DEV, install(3, 1, 50, 0)),
                (DEV, grant(3, 1, 30, 0)),
                (DEV, renew(3, 1, 50, 0)),
            ]),
            // Past the grant (the serve-past-grant-rts bug); and a
            // device that holds no grant for the block at all.
            dirty: seq(vec![
                (DEV, install(3, 1, 50, 0)),
                (DEV, grant(3, 1, 51, 0)),
                (Scope::Device(1), grant(3, 1, 10, 0)),
            ]),
        },
        Row {
            rule: "tc-lease-born-expired",
            implies: &[],
            clean: vec![at(
                5,
                BANK,
                EventKind::TcLease {
                    block: b(1),
                    expires: 100,
                },
            )],
            dirty: vec![at(
                50,
                BANK,
                EventKind::TcLease {
                    block: b(1),
                    expires: 10,
                },
            )],
        },
        Row {
            rule: "tc-write-inside-lease",
            implies: &[],
            // TC-Weak writes inside a lease by design.
            clean: vec![
                at(100, BANK, tc_write(1, 100, true)),
                at(50, BANK, tc_write(2, 100, false)),
            ],
            dirty: vec![at(50, BANK, tc_write(1, 100, true))],
        },
        Row {
            rule: "evict-live-lease",
            implies: &[],
            // A lease every observed warp has already outrun is dead
            // weight; an SM that showed no hit says nothing either way.
            clean: seq(vec![
                (SM, l1_hit(1, 60, 70)),
                (SM, evict(1, 50, None)),
                (Scope::Sm(1), evict(1, 50, None)),
            ]),
            dirty: on(SM, vec![l1_hit(1, 3, 50), evict(1, 50, None)]),
        },
        Row {
            rule: "retransmit-without-timeout",
            implies: &[],
            // Legitimate: a timer-driven retransmit past its deadline.
            // Not judged: a NACK-driven one, whose Nack a truncated tail
            // may no longer show — absence convicts nothing.
            clean: on(
                NOC,
                vec![retransmit(0, 280, 256, false), retransmit(2, 20, 0, true)],
            ),
            // Spurious: fired before the deadline.
            dirty: on(NOC, vec![retransmit(0, 100, 256, false)]),
        },
    ]
}

/// What the live sink raises over `events`, each reported by its scope.
fn online(events: &[TraceEvent]) -> Vec<Finding> {
    let root = Sanitizer::enabled(SM);
    for e in events {
        root.for_scope(e.scope).check_with(e.cycle, || e.kind);
    }
    root.report().findings
}

fn raised(findings: &[Finding]) -> BTreeSet<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn every_rule_means_the_same_thing_to_every_sink_that_judges_it() {
    let rows = rows();
    assert_eq!(
        rows.iter().map(|r| r.rule).collect::<Vec<_>>(),
        RULES.iter().map(|r| r.name).collect::<Vec<_>>(),
        "one row per catalog entry, in catalog order"
    );
    let names: BTreeSet<_> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(names.len(), RULES.len(), "rule names must be unique");

    for (row, spec) in rows.iter().zip(RULES) {
        let expected: BTreeSet<_> = std::iter::once(row.rule)
            .chain(row.implies.iter().copied())
            .collect();
        let mut verdicts = Vec::new();
        if spec.fed != Fed::Offline {
            verdicts.push(("online", online(&row.clean), online(&row.dirty)));
        }
        if spec.fed != Fed::Online {
            let lint = |e: &Facts| lint_events(e).findings;
            verdicts.push(("offline", lint(&row.clean), lint(&row.dirty)));
        }
        for (sink, clean, dirty) in verdicts {
            assert!(
                clean.is_empty(),
                "{} ({sink}): clean row raised {clean:?}",
                row.rule
            );
            assert_eq!(
                raised(&dirty),
                expected,
                "{} ({sink}): dirty row raised {dirty:?}",
                row.rule
            );
            for f in &dirty {
                let cat = RULES
                    .iter()
                    .find(|r| r.name == f.rule)
                    .unwrap_or_else(|| panic!("`{}` is not a catalog rule", f.rule));
                assert_eq!(f.severity, cat.severity, "{f}");
            }
        }
        // A sink that does not judge the rule stays silent on its row.
        let silent = match spec.fed {
            Fed::Both => None,
            Fed::Online => Some(lint_events(&row.dirty).findings),
            Fed::Offline => Some(online(&row.dirty)),
        };
        if let Some(f) = silent {
            assert!(!raised(&f).contains(row.rule), "{}: {f:?}", row.rule);
        }
    }
    // The one warning in the catalog does not dirty a report.
    let live = rows.iter().find(|r| r.rule == "evict-live-lease").unwrap();
    let r = lint_events(&live.dirty);
    assert_eq!((r.errors(), r.findings.len()), (0, 1));
    assert!(r.is_clean());
    assert_eq!(r.findings[0].severity, Severity::Warning);
}

/// `wts ≤ rts` guards every event that carries a lease, not only the
/// bank grant the table row uses.
#[test]
fn every_lease_carrying_fact_is_interval_checked() {
    let inverted = [
        (SM, install(1, 12, 4, 0)),
        (BANK, grant(2, 12, 4, 0)),
        (BANK, renew(2, 12, 4, 0)),
        (BANK, install(2, 12, 4, 0)),
        (BANK, store(3, 12, 4, 0)),
        (DEV, install(4, 12, 4, 0)),
    ];
    for (scope, kind) in inverted {
        let f = online(&seq(vec![(scope, kind)]));
        assert_eq!(
            raised(&f),
            BTreeSet::from(["wts-gt-rts"]),
            "{kind:?}: {f:?}"
        );
    }
    // A serve is also judged against the device's grant, which an
    // inverted lease cannot nest in either.
    let f = online(&seq(vec![
        (DEV, install(5, 1, 20, 0)),
        (DEV, grant(5, 12, 4, 0)),
    ]));
    assert_eq!(raised(&f), BTreeSet::from(["wts-gt-rts"]), "{f:?}");
}

/// A device crash loses every grant the device held: serving from the
/// pre-crash grant afterwards breaks two rules at once, and a fresh
/// grant in the bumped epoch serves cleanly.
#[test]
fn device_crash_wipes_grants_and_blocks_pre_crash_serves() {
    let mut facts = vec![
        (DEV, install(4, 1, 40, 0)),
        (DEV, crash(0)),
        (DEV, grant(4, 1, 30, 0)),
    ];
    assert_eq!(
        raised(&online(&seq(facts.clone()))),
        BTreeSet::from(["crash-epoch-reuse", "serve-outside-device-grant"])
    );
    facts.truncate(2);
    facts.extend([
        (DEV, enter(1)),
        (DEV, install(4, 0, 8, 1)),
        (DEV, renew(4, 0, 8, 1)),
    ]);
    assert!(online(&seq(facts)).is_empty());
}
