//! One row per catalog rule, both drivers.
//!
//! Every [`RULES`] entry gets a clean fact sequence and a dirty one.
//! Each row runs through the online driver ([`Sanitizer::check_with`])
//! and — where the catalog says recorded events carry the rule's facts —
//! is rendered as the [`TraceEvent`]s a controller would have recorded
//! and run through the offline driver ([`lint_events`]). Either driver
//! must raise exactly the row's rule on the dirty sequence and nothing
//! on the clean one: a rule means the same thing whichever stream it was
//! read from, and every name a driver can print is a catalog name.

use std::collections::{BTreeMap, BTreeSet};

use gtsc_check::lint_events;
use gtsc_trace::{
    EventKind, Fed, Finding, Sanitizer, Scope, Severity, TraceEvent, Transition, RULES,
};
use gtsc_types::{BlockAddr, Cycle, Timestamp};

const SM: Scope = Scope::Sm(0);
const BANK: Scope = Scope::L2Bank(0);
const HOME: Scope = Scope::Home(0);
const DEV: Scope = Scope::Device(0);
const NOC: Scope = Scope::Noc(0);

type Facts = Vec<(Scope, Transition)>;

struct Row {
    rule: &'static str,
    /// Rules the dirty sequence cannot avoid raising as well, because
    /// this rule's breach implies theirs.
    implies: &'static [&'static str],
    clean: Facts,
    dirty: Facts,
}

fn ts(n: u64) -> Timestamp {
    Timestamp(n)
}
fn b(n: u64) -> BlockAddr {
    BlockAddr(n)
}
fn l1_lease(block: u64, wts: u64, rts: u64, epoch: u64) -> Transition {
    Transition::L1Lease {
        block: b(block),
        wts: ts(wts),
        rts: ts(rts),
        epoch,
    }
}
fn l1_hit(block: u64, warp_ts: u64, rts: u64) -> Transition {
    Transition::L1Hit {
        block: b(block),
        warp: 0,
        warp_ts: ts(warp_ts),
        rts: ts(rts),
    }
}
fn warp_ts(warp: u16, t: u64) -> Transition {
    Transition::WarpTs { warp, ts: ts(t) }
}
fn enter(epoch: u64) -> Transition {
    Transition::EpochEnter { epoch }
}
fn grant(block: u64, wts: u64, rts: u64, epoch: u64) -> Transition {
    Transition::L2Grant {
        block: b(block),
        wts: ts(wts),
        rts: ts(rts),
        epoch,
    }
}
fn renew(block: u64, rts: u64, epoch: u64) -> Transition {
    Transition::L2Renew {
        block: b(block),
        rts: ts(rts),
        epoch,
    }
}
fn store(block: u64, wts: u64, rts: u64, epoch: u64) -> Transition {
    Transition::L2Store {
        block: b(block),
        wts: ts(wts),
        rts: ts(rts),
        epoch,
    }
}
fn install(block: u64, wts: u64, rts: u64, epoch: u64) -> Transition {
    Transition::GrantInstall {
        block: b(block),
        wts: ts(wts),
        rts: ts(rts),
        epoch,
    }
}
fn serve(block: u64, wts: u64, rts: u64, epoch: u64) -> Transition {
    Transition::DeviceServe {
        block: b(block),
        wts: ts(wts),
        rts: ts(rts),
        epoch,
    }
}
fn evict(block: u64, rts: u64) -> Transition {
    Transition::Recorded(EventKind::Eviction {
        block: b(block),
        rts,
    })
}
fn retransmit(src: u16, age: u64, timeout: u64, nack: bool) -> Transition {
    Transition::Recorded(EventKind::Retransmit {
        src,
        dst: 1,
        seq: 4,
        age,
        timeout,
        nack,
    })
}

#[allow(clippy::too_many_lines)]
fn rows() -> Vec<Row> {
    let on = |scope: Scope, facts: Vec<Transition>| -> Facts {
        facts.into_iter().map(|t| (scope, t)).collect()
    };
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
                vec![grant(3, 1, 15, 0), renew(3, 25, 0), store(3, 20, 30, 0)],
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
            clean: vec![
                (BANK, grant(3, 1, 11, 0)),
                (SM, l1_lease(3, 1, 11, 0)),
                (SM, warp_ts(0, 5)),
                (SM, warp_ts(0, 9)),
                // A grant from another epoch says nothing about this one.
                (SM, l1_lease(3, 1, 40, 1)),
            ],
            dirty: vec![
                (BANK, grant(2, 1, 10, 0)),
                (SM, l1_lease(2, 1, 20, 0)),
                (
                    SM,
                    Transition::L1Renew {
                        block: b(2),
                        rts: ts(30),
                        epoch: 0,
                    },
                ),
            ],
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
            clean: vec![
                (BANK, grant(4, 1, 9, 0)),
                (BANK, Transition::BankReset { epoch: 0 }),
                (BANK, enter(1)),
                (BANK, grant(4, 0, 5, 1)),
                // A scope that never crashed is unaffected.
                (Scope::L2Bank(3), grant(6, 1, 9, 0)),
            ],
            // The recovery re-entered the epoch it crashed in.
            dirty: on(
                BANK,
                vec![
                    grant(4, 1, 9, 0),
                    Transition::BankReset { epoch: 0 },
                    enter(0),
                    grant(4, 1, 9, 0),
                    store(5, 3, 9, 0),
                ],
            ),
        },
        Row {
            rule: "evict-unfolded-lease",
            implies: &[],
            clean: on(
                BANK,
                vec![Transition::L2Evict {
                    block: b(9),
                    rts: ts(40),
                    mem_ts: ts(40),
                }],
            ),
            dirty: on(
                BANK,
                vec![Transition::L2Evict {
                    block: b(9),
                    rts: ts(40),
                    mem_ts: ts(12),
                }],
            ),
        },
        Row {
            rule: "grant-beyond-home",
            implies: &[],
            clean: vec![(HOME, grant(8, 1, 20, 0)), (DEV, install(8, 1, 20, 0))],
            dirty: vec![(HOME, grant(8, 1, 20, 0)), (DEV, install(8, 1, 25, 0))],
        },
        Row {
            rule: "serve-outside-device-grant",
            implies: &[],
            // Serving inside the grant is fine; at its edge is fine.
            clean: vec![
                (HOME, grant(3, 1, 50, 0)),
                (DEV, install(3, 1, 50, 0)),
                (DEV, serve(3, 1, 30, 0)),
                (DEV, serve(3, 1, 50, 0)),
            ],
            // Past the grant (the serve-past-grant-rts bug); and a
            // device that holds no grant for the block at all.
            dirty: vec![
                (DEV, install(3, 1, 50, 0)),
                (DEV, serve(3, 1, 51, 0)),
                (Scope::Device(1), serve(3, 1, 10, 0)),
            ],
        },
        Row {
            rule: "tc-lease-born-expired",
            implies: &[],
            clean: on(
                BANK,
                vec![Transition::TcLease {
                    block: b(1),
                    now: Cycle(5),
                    expires: Cycle(100),
                }],
            ),
            dirty: on(
                BANK,
                vec![Transition::TcLease {
                    block: b(1),
                    now: Cycle(50),
                    expires: Cycle(10),
                }],
            ),
        },
        Row {
            rule: "tc-write-inside-lease",
            implies: &[],
            clean: on(
                BANK,
                vec![Transition::TcWrite {
                    block: b(1),
                    now: Cycle(100),
                    expires: Cycle(100),
                }],
            ),
            dirty: on(
                BANK,
                vec![Transition::TcWrite {
                    block: b(1),
                    now: Cycle(50),
                    expires: Cycle(100),
                }],
            ),
        },
        Row {
            rule: "evict-live-lease",
            implies: &[],
            // A lease every observed warp has already outrun is dead
            // weight; an SM that showed no hit says nothing either way.
            clean: vec![
                (SM, l1_hit(1, 60, 70)),
                (SM, evict(1, 50)),
                (Scope::Sm(1), evict(1, 50)),
            ],
            dirty: on(SM, vec![l1_hit(1, 3, 50), evict(1, 50)]),
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

fn online(facts: &Facts) -> Vec<Finding> {
    let root = Sanitizer::enabled(SM);
    for (i, &(scope, t)) in facts.iter().enumerate() {
        root.for_scope(scope).check_with(Cycle(i as u64), || t);
    }
    assert_eq!(root.checked(), facts.len() as u64);
    root.report().findings
}

/// The events a controller reporting `facts` would have recorded — the
/// inverse of the offline driver's translation. Events carry no epoch,
/// so a fact's must be the one its scope last entered.
fn recorded(rule: &str, facts: &Facts) -> Vec<TraceEvent> {
    let mut epochs: BTreeMap<Scope, u64> = BTreeMap::new();
    facts
        .iter()
        .enumerate()
        .map(|(i, &(scope, t))| {
            let in_epoch = |epoch: u64| {
                assert_eq!(
                    epochs.get(&scope).copied().unwrap_or(0),
                    epoch,
                    "{rule}: {t:?} is not in the epoch {scope} last entered"
                );
            };
            let kind = match t {
                Transition::L1Hit {
                    block,
                    warp,
                    warp_ts,
                    rts,
                } => EventKind::Hit {
                    block,
                    warp,
                    warp_ts: warp_ts.0,
                    rts: rts.0,
                },
                Transition::L2Grant {
                    block,
                    wts,
                    rts,
                    epoch,
                } => {
                    in_epoch(epoch);
                    EventKind::LeaseGrant {
                        block,
                        wts: wts.0,
                        rts: rts.0,
                    }
                }
                Transition::L2Renew { block, rts, epoch } => {
                    in_epoch(epoch);
                    EventKind::Renewal { block, rts: rts.0 }
                }
                Transition::L2Store {
                    block, wts, epoch, ..
                } => {
                    in_epoch(epoch);
                    EventKind::StoreCommit { block, wts: wts.0 }
                }
                Transition::EpochEnter { epoch } => {
                    epochs.insert(scope, epoch);
                    EventKind::Rollover { epoch }
                }
                Transition::BankReset { epoch } => EventKind::BankReset { bank: 0, epoch },
                Transition::Recorded(kind) => kind,
                other => panic!(
                    "{rule}: {other:?} is recorded by no event, so the catalog \
                     must mark the rule Fed::Online"
                ),
            };
            TraceEvent {
                cycle: Cycle(i as u64),
                scope,
                kind,
            }
        })
        .collect()
}

fn raised(findings: &[Finding]) -> BTreeSet<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn every_rule_means_the_same_thing_to_both_drivers() {
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
        let mut verdicts = vec![("online", online(&row.clean), online(&row.dirty))];
        if spec.fed != Fed::Online {
            verdicts.push((
                "offline",
                lint_events(&recorded(row.rule, &row.clean)).findings,
                lint_events(&recorded(row.rule, &row.dirty)).findings,
            ));
        }
        for (driver, clean, dirty) in verdicts {
            assert!(
                clean.is_empty(),
                "{} ({driver}): clean row raised {clean:?}",
                row.rule
            );
            assert_eq!(
                raised(&dirty),
                expected,
                "{} ({driver}): dirty row raised {dirty:?}",
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
    }
    // The one warning in the catalog does not dirty a report.
    let live = rows.iter().find(|r| r.rule == "evict-live-lease").unwrap();
    let r = lint_events(&recorded(live.rule, &live.dirty));
    assert_eq!((r.errors(), r.findings.len()), (0, 1));
    assert!(r.is_clean());
    assert_eq!(r.findings[0].severity, Severity::Warning);
}

/// `wts ≤ rts` guards every fact that carries a lease, not only the
/// L2's grant the table row uses.
#[test]
fn every_lease_carrying_fact_is_interval_checked() {
    let inverted: Facts = vec![
        (SM, l1_lease(1, 12, 4, 0)),
        (BANK, grant(2, 12, 4, 0)),
        (BANK, store(3, 12, 4, 0)),
        (DEV, install(4, 12, 4, 0)),
    ];
    for (scope, t) in inverted {
        let f = online(&vec![(scope, t)]);
        assert_eq!(raised(&f), BTreeSet::from(["wts-gt-rts"]), "{t:?}: {f:?}");
    }
    // A serve is also judged against the device's grant, which an
    // inverted lease cannot nest in either.
    let f = online(&vec![
        (DEV, install(5, 1, 20, 0)),
        (DEV, serve(5, 12, 4, 0)),
    ]);
    assert_eq!(raised(&f), BTreeSet::from(["wts-gt-rts"]), "{f:?}");
}

/// A device crash loses every grant the device held: serving from the
/// pre-crash grant afterwards breaks two rules at once, and a fresh
/// grant in the bumped epoch serves cleanly.
#[test]
fn device_crash_wipes_grants_and_blocks_pre_crash_serves() {
    let mut facts: Facts = vec![
        (DEV, install(4, 1, 40, 0)),
        (DEV, Transition::BankReset { epoch: 0 }),
        (DEV, serve(4, 1, 30, 0)),
    ];
    assert_eq!(
        raised(&online(&facts)),
        BTreeSet::from(["crash-epoch-reuse", "serve-outside-device-grant"])
    );
    facts.truncate(2);
    facts.extend([
        (DEV, enter(1)),
        (DEV, install(4, 0, 8, 1)),
        (DEV, serve(4, 0, 8, 1)),
    ]);
    assert!(online(&facts).is_empty());
}
