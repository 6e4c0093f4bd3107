//! The offline sink of the invariant catalog.
//!
//! The online sanitizer judges events as they happen, but it must be
//! enabled *before* the run. This pass closes the other half: any event
//! stream captured by `gtsc-trace` (full logs, flight-recorder tails,
//! merged multi-component dumps) can be judged after the fact with
//! [`lint_events`] — including traces from runs where nobody anticipated
//! a problem. `trace_report --lint`, the `stress_faults` soak and the
//! crate's integration tests all go through it.
//!
//! It holds no rule and translates nothing: the recorded events are the
//! ones the components emitted, epochs included, and a
//! [`RuleMachine::offline`] — the machine the sanitizer feeds — judges
//! them ([`gtsc_trace::RULES`]; [`gtsc_trace::Rule::fed`] says which
//! rules a recording can judge).

use gtsc_trace::{Report, RuleMachine, TraceEvent};

/// Runs every rule a recording can judge over `events` (one pass, event
/// order). [`Report::scanned`] counts the facts the stream yielded, so a
/// stream the rules could read nothing from shows as zero, not as clean.
/// The stream may interleave scopes (e.g. [`gtsc_trace::merge_tails`]
/// output) and may be a truncated tail.
#[must_use]
pub fn lint_events(events: &[TraceEvent]) -> Report {
    let mut machine = RuleMachine::offline();
    for e in events {
        machine.check(e.cycle, e.scope, e.kind);
    }
    machine.report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_trace::{EventKind, LeaseOp, Scope};
    use gtsc_types::{BlockAddr, Cycle};

    fn ev(cycle: u64, scope: Scope, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycle: Cycle(cycle),
            scope,
            kind,
        }
    }
    fn b(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    /// Each event carries its epoch: a store in the epoch a bank rolled
    /// into is not judged against the lease it granted before the reset,
    /// while a bank that did not roll over still holds its lease.
    #[test]
    fn events_are_judged_in_the_epoch_they_carry() {
        let (rolled, other) = (Scope::L2Bank(0), Scope::L2Bank(1));
        let grant = |block, epoch| EventKind::Lease {
            op: LeaseOp::Grant,
            block: b(block),
            wts: 1,
            rts: 30,
            epoch,
        };
        let commit = |block, epoch| EventKind::Lease {
            op: LeaseOp::Commit,
            block: b(block),
            wts: 11,
            rts: 21,
            epoch,
        };
        let events = vec![
            ev(1, rolled, grant(1, 0)),
            ev(1, other, grant(2, 0)),
            ev(2, rolled, EventKind::Rollover { epoch: 1 }),
            ev(3, rolled, commit(1, 1)),
            ev(4, other, commit(2, 0)),
        ];
        let r = lint_events(&events);
        assert_eq!(r.errors(), 1, "{r}");
        assert_eq!(
            (r.findings[0].rule, r.findings[0].scope),
            ("store-before-lease-expiry", other)
        );
        assert_eq!(r.scanned, 5);
    }

    /// What no rule a recording judges reads is no fact: an L1 renewal
    /// (judged only against its bank's grants, online), a warp timestamp
    /// (online), an unknown (`0`) L1 eviction rts, and kinds no rule
    /// reads at all.
    #[test]
    fn events_no_offline_rule_reads_yield_no_fact() {
        let silent = [
            ev(
                1,
                Scope::Sm(0),
                EventKind::Eviction {
                    block: b(2),
                    rts: 0,
                    mem_ts: None,
                },
            ),
            ev(
                2,
                Scope::Sm(0),
                EventKind::Lease {
                    op: LeaseOp::Renew,
                    block: b(1),
                    wts: 1,
                    rts: 40,
                    epoch: 0,
                },
            ),
            ev(
                3,
                Scope::Sm(0),
                EventKind::WarpTs {
                    warp: 0,
                    ts: gtsc_types::Timestamp(4),
                },
            ),
            ev(4, Scope::Sm(0), EventKind::WarpIssue { warp: 0 }),
            ev(5, Scope::Noc(0), EventKind::PacketDrop { src: 0, dst: 1 }),
        ];
        assert_eq!(lint_events(&silent).scanned, 0);
    }
}
