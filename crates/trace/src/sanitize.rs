//! The online rule sink: the shared [`RuleMachine`] on the live stream.
//!
//! The checker in `gtsc-sim` validates *end-of-run load values*; a
//! transition that briefly violates a timestamp invariant and
//! self-heals is invisible to it. The [`Sanitizer`] closes that gap: it
//! is the rule sink of every component's [`crate::Probe`], so each
//! [`EventKind`] a GtscL1/GtscL2 (TC baseline, device L2, home node)
//! emits reaches the shared machine as it happens — the same machine,
//! judging the same events, that `gtsc_check::lint_events` runs over a
//! recorded stream ([`crate::rules`]).
//!
//! Enabled sanitizers share one machine (the containment rules span
//! components), so the simulator clones one root handle per component
//! via [`Sanitizer::for_scope`].

use std::cell::RefCell;
use std::rc::Rc;

use gtsc_types::Cycle;

use crate::rules::{Report, RuleMachine};
use crate::{EventKind, Scope};

/// The sanitizer's old name for its input. Facts and events are one
/// vocabulary now; the alias stays only because the benchmark crate,
/// which moves in its own change, still spells a warp-timestamp fact
/// `Transition::WarpTs`.
pub type Transition = EventKind;

/// One component's handle on the shared invariant state machine.
///
/// The default sanitizer is disabled and checks nothing; the simulator
/// creates one enabled root per run and installs per-component clones
/// (sharing the core) when `GpuConfig::sanitize` is set.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    shared: Option<Rc<RefCell<RuleMachine>>>,
    scope: Scope,
}

impl Default for Sanitizer {
    fn default() -> Self {
        Sanitizer::disabled()
    }
}

impl Sanitizer {
    /// A sanitizer that checks nothing (the hot-path default).
    #[must_use]
    pub fn disabled() -> Self {
        Sanitizer {
            shared: None,
            scope: Scope::Sm(0),
        }
    }

    /// A fresh enabled sanitizer rooted at `scope`.
    #[must_use]
    pub fn enabled(scope: Scope) -> Self {
        Sanitizer {
            shared: Some(Rc::new(RefCell::new(RuleMachine::default()))),
            scope,
        }
    }

    /// A handle on the same shared machine, reporting as `scope`.
    #[must_use]
    pub fn for_scope(&self, scope: Scope) -> Self {
        Sanitizer {
            shared: self.shared.clone(),
            scope,
        }
    }

    /// Whether any checking is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Checks the event built by `t`, which only runs when the sanitizer
    /// is enabled: a disabled sanitizer pays one predicted-not-taken
    /// branch and never materialises the payload (the benchmark's
    /// `trace.sanitize_check_{disabled,enabled}_ns` rungs time it).
    /// Components reach it through [`crate::Probe::emit`].
    #[inline]
    pub fn check_with(&self, cycle: Cycle, t: impl FnOnce() -> EventKind) {
        if self.shared.is_none() {
            return;
        }
        self.check_slow(cycle, t());
    }

    /// The checking path, kept out of line (and cold) so the disabled
    /// fast path stays a bare branch.
    #[cold]
    #[inline(never)]
    fn check_slow(&self, cycle: Cycle, t: EventKind) {
        if let Some(shared) = self.shared.as_ref() {
            shared.borrow_mut().check(cycle, self.scope, t);
        }
    }

    /// The verdict so far (findings deduplicated by `(rule, scope,
    /// block)` and capped, facts checked); empty when disabled.
    #[must_use]
    pub fn report(&self) -> Report {
        let shared = self.shared.as_ref();
        shared.map_or_else(Report::default, |s| s.borrow().report.clone())
    }

    /// [`Sanitizer::report`] rendered one finding per line (plus the
    /// cap's suppression note) — the form it takes on
    /// `RunReport::violations`.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let lines = self.report().lines();
        lines.iter().map(|l| format!("sanitizer: {l}")).collect()
    }

    /// Number of facts checked: emitted events some online-judged rule
    /// reads (the rest never reach the machine's state).
    #[must_use]
    pub fn checked(&self) -> u64 {
        let shared = self.shared.as_ref();
        shared.map_or(0, |s| s.borrow().report.scanned)
    }

    /// Serializes the shared rule machine (checkpointing). Saving
    /// through any handle captures the state seen by every scoped clone,
    /// since they all share one machine.
    pub fn save_state(&self, w: &mut gtsc_types::snap::SnapWriter) {
        match self.shared.as_ref() {
            Some(s) => {
                w.bool(true);
                gtsc_types::snap::Snap::save(&*s.borrow(), w);
            }
            None => w.bool(false),
        }
    }

    /// Restores the shared machine in place; every scoped clone observes the
    /// restored state. The target's enablement (decided by config at
    /// build time) must match the snapshot's.
    ///
    /// # Errors
    ///
    /// [`gtsc_types::snap::SnapshotError::Mismatch`] when one side is
    /// enabled and the other is not, or any decode error from a damaged
    /// payload.
    pub fn load_state(
        &mut self,
        r: &mut gtsc_types::snap::SnapReader<'_>,
    ) -> Result<(), gtsc_types::snap::SnapshotError> {
        let enabled = r.bool()?;
        match (enabled, self.shared.as_ref()) {
            (true, Some(s)) => {
                *s.borrow_mut() = gtsc_types::snap::Snap::load(r)?;
                Ok(())
            }
            (false, None) => Ok(()),
            _ => Err(gtsc_types::snap::SnapshotError::Mismatch {
                what: "sanitizer enablement".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LeaseOp;
    use gtsc_types::{BlockAddr, Timestamp};

    #[test]
    fn disabled_sanitizer_checks_nothing() {
        let s = Sanitizer::disabled();
        assert!(!s.is_enabled());
        s.check_with(Cycle(0), || EventKind::WarpTs {
            warp: 0,
            ts: Timestamp(5),
        });
        assert_eq!(s.checked(), 0);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn disabled_check_with_never_builds_the_payload() {
        let s = Sanitizer::disabled();
        s.check_with(Cycle(0), || unreachable!("payload built while disabled"));
    }

    /// Scoped handles share one machine: a containment rule sees the
    /// L2's grant and the L1's lease through two different handles, and
    /// the finding names the handle that reported the breach.
    #[test]
    fn scoped_handles_share_one_machine() {
        let root = Sanitizer::enabled(Scope::Sm(0));
        let l2 = root.for_scope(Scope::L2Bank(0));
        let l1 = root.for_scope(Scope::Sm(1));
        l2.check_with(Cycle(1), || EventKind::Lease {
            op: LeaseOp::Grant,
            block: BlockAddr(2),
            wts: 1,
            rts: 10,
            epoch: 0,
        });
        l1.check_with(Cycle(2), || EventKind::Lease {
            op: LeaseOp::Install,
            block: BlockAddr(2),
            wts: 1,
            rts: 20,
            epoch: 0,
        });
        assert_eq!(root.checked(), 2);
        let f = root.report().findings;
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            (f[0].rule, f[0].scope),
            ("lease-beyond-grant", Scope::Sm(1))
        );
        let v = root.violations();
        assert!(
            v[0].starts_with("sanitizer: error: [cyc2] sm1: lease-beyond-grant block B0x2:"),
            "{v:?}"
        );
    }

    /// Findings, dedup counts and rule state all survive a checkpoint.
    #[test]
    fn state_round_trips_through_a_snapshot() {
        use gtsc_types::snap::{SnapReader, SnapWriter};
        let store = |wts: u64| EventKind::Lease {
            op: LeaseOp::Commit,
            block: BlockAddr(7),
            wts,
            rts: wts + 10,
            epoch: 0,
        };
        let s = Sanitizer::enabled(Scope::L2Bank(0));
        s.check_with(Cycle(1), || store(5));
        s.check_with(Cycle(2), || store(5));
        s.check_with(Cycle(3), || store(5));
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Sanitizer::enabled(Scope::L2Bank(0));
        restored
            .load_state(&mut SnapReader::new(&bytes))
            .expect("loads");
        assert_eq!(restored.report(), s.report());
        assert_eq!(restored.checked(), 3);
        // The restored machine still remembers wts 5 and keeps folding
        // repeats into the same finding.
        restored.check_with(Cycle(4), || store(5));
        let order: Vec<_> = (restored.report().findings)
            .into_iter()
            .filter(|f| f.rule == "store-wts-order")
            .collect();
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].count, 3);

        // Enablement must match.
        let mut off = Sanitizer::disabled();
        assert!(off.load_state(&mut SnapReader::new(&bytes)).is_err());
    }
}
