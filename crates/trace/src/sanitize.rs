//! The fact vocabulary of the invariant catalog, and its online driver.
//!
//! The checker in `gtsc-sim` validates *end-of-run load values*; a
//! transition that briefly violates a timestamp invariant and
//! self-heals is invisible to it. The [`Sanitizer`] closes that gap: a
//! handle hooked into every GtscL1/GtscL2 (and TC baseline, device L2,
//! home node) state transition, reporting each as a [`Transition`] to
//! the shared [`RuleMachine`] — the one place the per-event rules are
//! written ([`crate::rules`]; `gtsc_check::lint_events` feeds the same
//! machine from recorded events).
//!
//! Like [`crate::Tracer::record_with`], the hook costs one
//! predicted-not-taken branch when disabled and never materialises the
//! [`Transition`] payload. Enabled sanitizers share one machine (the
//! containment rules span components), so the simulator clones one
//! root handle per component via [`Sanitizer::for_scope`].

use std::cell::RefCell;
use std::rc::Rc;

use gtsc_types::{BlockAddr, Cycle, Timestamp};

use crate::rules::{Report, RuleMachine};
use crate::{EventKind, Scope};

/// One protocol fact, as reported by a component (online, built lazily
/// by the [`Sanitizer::check_with`] closure — never constructed when the
/// sanitizer is disabled) or as translated from a recorded event
/// (offline). Variants marked *offline only* have no controller hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// L1 installed a logical lease `[wts, rts]` (fill or store ack).
    L1Lease {
        /// Leased block.
        block: BlockAddr,
        /// Write timestamp of the installed line.
        wts: Timestamp,
        /// Read-timestamp upper bound of the installed line.
        rts: Timestamp,
        /// Epoch the lease belongs to.
        epoch: u64,
    },
    /// L1 applied a data-less renewal extending a held lease to `rts`.
    L1Renew {
        /// Renewed block.
        block: BlockAddr,
        /// Extended read-timestamp upper bound.
        rts: Timestamp,
        /// Epoch the renewal belongs to.
        epoch: u64,
    },
    /// L1 served a hit on a line with read-timestamp bound `rts` to a
    /// warp at `warp_ts` (Figure 2 requires `warp_ts <= rts`).
    L1Hit {
        /// Block looked up.
        block: BlockAddr,
        /// Accessing warp slot.
        warp: u16,
        /// The warp's logical timestamp at lookup.
        warp_ts: Timestamp,
        /// The hit line's read-timestamp upper bound.
        rts: Timestamp,
    },
    /// A warp's logical timestamp advanced to `ts`.
    WarpTs {
        /// Warp slot within the reporting SM.
        warp: u16,
        /// The new warp timestamp.
        ts: Timestamp,
    },
    /// The component entered `epoch` (Section V-D rollover reset).
    EpochEnter {
        /// The new epoch.
        epoch: u64,
    },
    /// L2 granted or extended a lease `[wts, rts]` (fill, renewal, or
    /// read-side `extend_rts`).
    L2Grant {
        /// Granted block.
        block: BlockAddr,
        /// Write timestamp of the granted version.
        wts: Timestamp,
        /// Read-timestamp upper bound granted.
        rts: Timestamp,
        /// Epoch the grant belongs to.
        epoch: u64,
    },
    /// *Offline only*: L2 extended a lease to `rts` without data. Online
    /// a renewal is an [`Transition::L2Grant`], which knows the line's
    /// `wts`; the recorded renewal event does not.
    L2Renew {
        /// Renewed block.
        block: BlockAddr,
        /// Extended read-timestamp upper bound.
        rts: Timestamp,
        /// Epoch the renewal belongs to.
        epoch: u64,
    },
    /// L2 committed a store: the block's new version lives at `wts`
    /// with lease `[wts, rts]`.
    L2Store {
        /// Written block.
        block: BlockAddr,
        /// Commit write-timestamp.
        wts: Timestamp,
        /// Read-timestamp upper bound after the store.
        rts: Timestamp,
        /// Epoch the store belongs to.
        epoch: u64,
    },
    /// L2 evicted a line, folding its lease into the bank's `mem_ts`
    /// (non-inclusion, Section V-C).
    L2Evict {
        /// Evicted block.
        block: BlockAddr,
        /// The evicted line's read-timestamp upper bound.
        rts: Timestamp,
        /// The bank's `mem_ts` after folding the eviction in.
        mem_ts: Timestamp,
    },
    /// An L2 bank — or, reported under a [`Scope::Device`], a whole
    /// device with its installed grants — crashed while at `epoch`,
    /// losing its tags and transport state. Recovery rebuilds coherence
    /// behind a global epoch bump (DESIGN.md §13, §17.4).
    BankReset {
        /// The epoch the unit was in when it crashed.
        epoch: u64,
    },
    /// Multi-GPU: a device L2 installed an inter-GPU grant `[wts, rts]`
    /// received from the home node (fill or write ack over the fabric) —
    /// its delegated slice of logical time (DESIGN.md §17).
    GrantInstall {
        /// Granted block.
        block: BlockAddr,
        /// Write timestamp of the granted version.
        wts: Timestamp,
        /// Read-timestamp upper bound of the grant.
        rts: Timestamp,
        /// Epoch the grant belongs to.
        epoch: u64,
    },
    /// Multi-GPU: a device L2 served an L1 lease `[wts, rts]` from its
    /// local tags on its own authority (rule `serve-outside-device-grant`).
    DeviceServe {
        /// Served block.
        block: BlockAddr,
        /// Write timestamp of the served version.
        wts: Timestamp,
        /// Read-timestamp upper bound served to the L1.
        rts: Timestamp,
        /// Epoch the lease belongs to.
        epoch: u64,
    },
    /// TC baseline: a physical lease was granted, expiring at
    /// `expires`.
    TcLease {
        /// Leased block.
        block: BlockAddr,
        /// Current cycle at grant time.
        now: Cycle,
        /// Expiry cycle of the lease.
        expires: Cycle,
    },
    /// TC baseline, strong variant: a write proceeded at `now` on a
    /// line whose last granted lease expires at `expires` (write
    /// atomicity requires the lease to have run out).
    TcWrite {
        /// Written block.
        block: BlockAddr,
        /// Current cycle at write time.
        now: Cycle,
        /// Expiry cycle of the last lease on the block.
        expires: Cycle,
    },
    /// *Offline only*: a recorded event that is its own fact — an L1
    /// [`EventKind::Eviction`] (reported online it would turn a tuning
    /// hint into a violation) or a transport [`EventKind::Retransmit`]
    /// (the transport has no sanitizer hook). No other event kind is a
    /// fact by itself.
    Recorded(EventKind),
}

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

    /// Checks the transition built by `t`, which only runs when the
    /// sanitizer is enabled. This is the per-transition hot-path hook:
    /// a disabled sanitizer pays one predicted-not-taken branch and
    /// never materialises the payload (the benchmark's
    /// `trace.sanitize_check_{disabled,enabled}_ns` rungs time it, inside
    /// the same <2% budget as tracing).
    #[inline]
    pub fn check_with(&self, cycle: Cycle, t: impl FnOnce() -> Transition) {
        if self.shared.is_none() {
            return;
        }
        self.check_slow(cycle, t());
    }

    /// The checking path, kept out of line (and cold) so the disabled
    /// fast path stays a bare branch.
    #[cold]
    #[inline(never)]
    fn check_slow(&self, cycle: Cycle, t: Transition) {
        if let Some(shared) = self.shared.as_ref() {
            shared.borrow_mut().check(cycle, self.scope, t);
        }
    }

    /// The verdict so far (findings deduplicated by `(rule, scope,
    /// block)` and capped, transitions checked); empty when disabled.
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

    /// Number of transitions checked.
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

    #[test]
    fn disabled_sanitizer_checks_nothing() {
        let s = Sanitizer::disabled();
        assert!(!s.is_enabled());
        s.check_with(Cycle(0), || Transition::WarpTs {
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
        l2.check_with(Cycle(1), || Transition::L2Grant {
            block: BlockAddr(2),
            wts: Timestamp(1),
            rts: Timestamp(10),
            epoch: 0,
        });
        l1.check_with(Cycle(2), || Transition::L1Lease {
            block: BlockAddr(2),
            wts: Timestamp(1),
            rts: Timestamp(20),
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
        let store = |wts: u64| Transition::L2Store {
            block: BlockAddr(7),
            wts: Timestamp(wts),
            rts: Timestamp(wts + 10),
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
