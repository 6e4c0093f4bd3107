//! The offline driver of the invariant catalog.
//!
//! The online sanitizer checks transitions as they happen, but it must
//! be enabled *before* the run. This driver closes the other half: any
//! event stream captured by `gtsc-trace` (full logs, flight-recorder
//! tails, merged multi-component dumps) can be checked after the fact
//! with [`lint_events`] — including traces from runs where nobody
//! anticipated a problem. `trace_report --lint`, the `stress_faults`
//! soak and the crate's integration tests all go through this pass.
//!
//! It holds no rule: [`fact`] translates each recorded event into the
//! [`Transition`] it witnesses and a [`RuleMachine`] — the one the
//! sanitizer feeds — judges it ([`gtsc_trace::RULES`]). Events record
//! less than transitions do; a rule whose facts the stream cannot supply
//! stays silent rather than guess. Assumes a G-TSC trace.

use std::collections::HashMap;

use gtsc_trace::{EventKind, Report, RuleMachine, Scope, TraceEvent, Transition};
use gtsc_types::Timestamp;

/// Runs every offline-fed rule over `events` (one pass, event order).
/// [`Report::scanned`] counts the facts the stream yielded, so a stream
/// the rules could read nothing from shows as zero, not as clean.
///
/// The stream may interleave scopes (e.g. [`gtsc_trace::merge_tails`]
/// output). Events carry no epoch, so each scope's is reconstructed
/// from its own `Rollover` events (epoch 0 until the first one — a
/// truncated tail may start later, which only shifts that scope's
/// epochs by a constant: the offline-fed rules compare epochs within
/// one scope, never across two).
#[must_use]
pub fn lint_events(events: &[TraceEvent]) -> Report {
    let mut machine = RuleMachine::default();
    let mut epochs: HashMap<Scope, u64> = HashMap::new();
    for e in events {
        if let EventKind::Rollover { epoch } = e.kind {
            epochs.insert(e.scope, epoch);
        }
        let epoch = epochs.get(&e.scope).copied().unwrap_or(0);
        if let Some(t) = fact(e, epoch) {
            machine.check(e.cycle, e.scope, t);
        }
    }
    machine.report
}

/// The fact `e` witnesses, given the epoch its scope is in — `None`
/// when the event carries nothing a rule reads. Total over
/// [`EventKind`]: a new event kind must decide here what it proves.
fn fact(e: &TraceEvent, epoch: u64) -> Option<Transition> {
    // The side that serves leases for a block on its own authority: its
    // bank on die, the home across the fabric. A device's grants and
    // serves are judged against the home's, and two independently
    // truncated rings cannot be aligned epoch for epoch — its lease
    // events are left to the online driver.
    let serves = matches!(e.scope, Scope::L2Bank(_) | Scope::Home(_));
    let l1 = matches!(e.scope, Scope::Sm(_));
    match e.kind {
        EventKind::Hit {
            block,
            warp,
            warp_ts,
            rts,
        } if l1 => Some(Transition::L1Hit {
            block,
            warp,
            warp_ts: Timestamp(warp_ts),
            rts: Timestamp(rts),
        }),
        EventKind::LeaseGrant { block, wts, rts } if serves => Some(Transition::L2Grant {
            block,
            wts: Timestamp(wts),
            rts: Timestamp(rts),
            epoch,
        }),
        EventKind::Renewal { block, rts } if serves => Some(Transition::L2Renew {
            block,
            rts: Timestamp(rts),
            epoch,
        }),
        // The event records the commit `wts` only: `[wts, wts]` is the
        // part of the new version's lease it proves.
        EventKind::StoreCommit { block, wts } if serves => Some(Transition::L2Store {
            block,
            wts: Timestamp(wts),
            rts: Timestamp(wts),
            epoch,
        }),
        // L1 scopes only (an L2 eviction folding a live lease into
        // mem_ts is the designed non-inclusion mechanism, and its event
        // lacks the mem_ts the fold rule reads); rts 0 means unknown.
        EventKind::Eviction { rts, .. } if l1 && rts > 0 => Some(Transition::Recorded(e.kind)),
        EventKind::Rollover { epoch } => Some(Transition::EpochEnter { epoch }),
        EventKind::BankReset { epoch, .. } => Some(Transition::BankReset { epoch }),
        EventKind::Retransmit { .. } => Some(Transition::Recorded(e.kind)),
        EventKind::Hit { .. }
        | EventKind::LeaseGrant { .. }
        | EventKind::Renewal { .. }
        | EventKind::StoreCommit { .. }
        | EventKind::Eviction { .. }
        | EventKind::ColdMiss { .. }
        | EventKind::ExpiredMiss { .. }
        | EventKind::BlockedOnWrite { .. }
        | EventKind::FillApplied { .. }
        | EventKind::WriteAck { .. }
        | EventKind::ReplayDrop { .. }
        | EventKind::WarpIssue { .. }
        | EventKind::WarpStall { .. }
        | EventKind::PacketSend { .. }
        | EventKind::PacketDeliver { .. }
        | EventKind::PacketDrop { .. }
        | EventKind::PacketCorrupt { .. }
        | EventKind::Nack { .. }
        | EventKind::DramEnqueue { .. }
        | EventKind::DramService { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn grant(block: u64, wts: u64, rts: u64) -> EventKind {
        EventKind::LeaseGrant {
            block: b(block),
            wts,
            rts,
        }
    }
    fn commit(block: u64, wts: u64) -> EventKind {
        EventKind::StoreCommit {
            block: b(block),
            wts,
        }
    }

    /// Each scope's epoch is reconstructed from its own rollovers: the
    /// bank that reset restarts its timestamps small without a finding,
    /// the bank that did not still holds its lease.
    #[test]
    fn epochs_are_reconstructed_per_scope_from_rollovers() {
        let (rolled, other) = (Scope::L2Bank(0), Scope::L2Bank(1));
        let events = vec![
            ev(1, rolled, grant(1, 1, 30)),
            ev(1, other, grant(2, 1, 30)),
            ev(2, rolled, EventKind::Rollover { epoch: 1 }),
            ev(3, rolled, commit(1, 11)),
            ev(4, other, commit(2, 11)),
        ];
        let r = lint_events(&events);
        assert_eq!(r.errors(), 1, "{r}");
        assert_eq!(
            (r.findings[0].rule, r.findings[0].scope),
            ("store-before-lease-expiry", other)
        );
        assert_eq!(r.scanned, 5);
    }

    /// A tail that starts after its scope's last rollover labels that
    /// scope epoch 0 throughout — consistently, so nothing fires; and a
    /// rollover seen later still restarts the scope's marks.
    #[test]
    fn a_truncated_tail_is_judged_only_on_what_it_shows() {
        let bank = Scope::L2Bank(0);
        let events = vec![
            // Really epoch 3; the tail cannot know.
            ev(100, bank, grant(1, 40, 60)),
            ev(101, bank, commit(1, 61)),
            ev(102, bank, EventKind::Rollover { epoch: 4 }),
            ev(103, bank, commit(1, 11)),
        ];
        let r = lint_events(&events);
        assert!(r.findings.is_empty(), "{r}");
    }

    /// What an event does *not* prove is not a fact: an unknown (`0`) or
    /// L2-side eviction rts, a hit outside an L1, a device's lease
    /// events (judged against the home's grants, online), and event
    /// kinds no rule reads.
    #[test]
    fn events_that_prove_nothing_yield_no_fact() {
        let silent = [
            ev(
                1,
                Scope::Sm(0),
                EventKind::Eviction {
                    block: b(2),
                    rts: 0,
                },
            ),
            ev(
                2,
                Scope::L2Bank(0),
                EventKind::Eviction {
                    block: b(1),
                    rts: 50,
                },
            ),
            ev(3, Scope::Device(0), grant(1, 1, 30)),
            ev(
                4,
                Scope::Device(0),
                EventKind::Renewal {
                    block: b(1),
                    rts: 40,
                },
            ),
            ev(
                5,
                Scope::Sm(0),
                EventKind::Renewal {
                    block: b(1),
                    rts: 40,
                },
            ),
            ev(6, Scope::Sm(0), EventKind::FillApplied { block: b(1) }),
            ev(7, Scope::Noc(0), EventKind::PacketDrop { src: 0, dst: 1 }),
        ];
        for e in &silent {
            assert_eq!(fact(e, 0), None, "{e}");
        }
        assert_eq!(lint_events(&silent).scanned, 0);
    }
}
