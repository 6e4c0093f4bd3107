//! Online transition sanitizer for the logical-time invariants.
//!
//! The checker in `gtsc-sim` validates *end-of-run load values*; a
//! transition that briefly violates a timestamp invariant and
//! self-heals is invisible to it. The [`Sanitizer`] closes that gap: a
//! shared invariant state machine hooked into every GtscL1/GtscL2 (and
//! TC baseline) state transition, asserting per-transition:
//!
//! * `wts ≤ rts` on every lease a component installs or grants;
//! * per-block L2 `wts`/`rts` monotonicity within an epoch (stores
//!   strictly advance `wts`; grants never regress `rts`);
//! * every L1 lease ⊆ the high-water L2 lease granted for that block in
//!   the same epoch;
//! * per-warp `warp_ts` monotonicity (reset only at an epoch rollover);
//! * epoch-rollover ordering (epochs never move backwards, and evicted
//!   leases fold into a `mem_ts` at least as large);
//! * multi-GPU hierarchical delegation: every lease a device L2 serves
//!   on-die nests inside the inter-GPU grant it installed from the home
//!   node (`L2-lease ⊆ device-grant`, DESIGN.md §17), and a crashed
//!   device never serves from a pre-crash grant.
//!
//! Like [`crate::Tracer::record_with`], the hook costs one
//! predicted-not-taken branch when disabled and never materialises the
//! [`Transition`] payload. Enabled sanitizers share one core (the L1/L2
//! containment invariants span components), so the simulator clones one
//! root handle per component via [`Sanitizer::for_scope`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use gtsc_types::{BlockAddr, Cycle, Timestamp};

use crate::Scope;

/// Cap on individually retained violation strings; the rest are counted
/// in [`Sanitizer::suppressed`] so a pathological run stays bounded.
const VIOLATION_CAP: usize = 256;

/// One protocol state transition, as reported by a component. Built
/// lazily by the [`Sanitizer::check_with`] closure — never constructed
/// when the sanitizer is disabled.
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
    /// An L2 bank crashed and reset its tag array and transport state
    /// while at `epoch`. Recovery rebuilds coherence from DRAM behind a
    /// global epoch bump, so no grant or store may ever be observed at
    /// this scope in `epoch` (or older) again — logical time only moves
    /// forward across a reset, which is exactly why L1-held leases stay
    /// safe (DESIGN.md §13).
    BankReset {
        /// The epoch the bank was in when it crashed.
        epoch: u64,
    },
    /// Multi-GPU: a device L2 installed an inter-GPU grant `[wts, rts]`
    /// received from the home node (fill or write ack over the fabric).
    /// The grant is the device's delegated slice of logical time; every
    /// lease the device serves on-die must nest inside it (DESIGN.md
    /// §17).
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
    /// local tags on its own authority. Checked against the installed
    /// device grant: the `L2-lease ⊆ device-grant` invariant.
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
    /// Multi-GPU: a whole device crashed while at `epoch`, losing its
    /// installed grants and local tags. Recovery re-acquires grants from
    /// the home behind a global epoch bump, so no grant install or
    /// device serve may be observed at this scope in `epoch` (or older)
    /// again.
    DeviceCrash {
        /// The epoch the device was in when it crashed.
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
}

#[derive(Debug, Default)]
struct SanitizerCore {
    /// High-water L2 grant per block: epoch and max granted `rts`.
    l2_rts: HashMap<BlockAddr, (u64, Timestamp)>,
    /// Last L2 `wts` observed per block (stores advance it strictly).
    l2_wts: HashMap<BlockAddr, (u64, Timestamp)>,
    /// TC: last granted expiry per block.
    tc_expires: HashMap<BlockAddr, Cycle>,
    /// Last observed warp timestamp per (SM scope, warp slot).
    warp_ts: HashMap<(Scope, u16), Timestamp>,
    /// Last observed epoch per component scope.
    epochs: HashMap<Scope, u64>,
    /// Highest epoch at which each scope crashed ([`Transition::
    /// BankReset`]): grants/stores at or below it are violations.
    crashed_at_epoch: HashMap<Scope, u64>,
    /// Live inter-GPU grant per (device scope, block): epoch and grant
    /// `rts` high-water. Device-served leases must nest inside these.
    device_grants: HashMap<(Scope, BlockAddr), (u64, Timestamp)>,
    violations: Vec<String>,
    suppressed: u64,
    checked: u64,
}

impl SanitizerCore {
    fn violate(&mut self, cycle: Cycle, scope: Scope, msg: &str) {
        if self.violations.len() < VIOLATION_CAP {
            self.violations
                .push(format!("sanitizer: [{cycle}] {scope}: {msg}"));
        } else {
            self.suppressed += 1;
        }
    }

    /// The no-lease-regression-across-a-reset rule: once a scope has
    /// reported [`Transition::BankReset`] at epoch `E`, any grant or
    /// store it performs at an epoch `<= E` would hand out logical time
    /// the pre-crash world already used — flagged as a violation.
    fn check_not_pre_crash(
        &mut self,
        cycle: Cycle,
        scope: Scope,
        what: &str,
        block: BlockAddr,
        epoch: u64,
    ) {
        if let Some(&crashed) = self.crashed_at_epoch.get(&scope) {
            if epoch <= crashed {
                let m = format!(
                    "L2 {what} on block {block} at epoch {epoch}, at or before \
                     this bank's reset epoch {crashed}: leases must not regress \
                     across a reset"
                );
                self.violate(cycle, scope, &m);
            }
        }
    }

    fn check(&mut self, cycle: Cycle, scope: Scope, t: Transition) {
        self.checked += 1;
        match t {
            Transition::L1Lease {
                block,
                wts,
                rts,
                epoch,
            } => {
                if wts > rts {
                    let m = format!(
                        "L1 lease on block {block} has wts {} > rts {}",
                        wts.0, rts.0
                    );
                    self.violate(cycle, scope, &m);
                }
                if let Some(&(e, hwm)) = self.l2_rts.get(&block) {
                    if e == epoch && rts > hwm {
                        let m = format!(
                            "L1 lease on block {block} reaches rts {} beyond any \
                             L2 grant (high-water {}) in epoch {epoch}",
                            rts.0, hwm.0
                        );
                        self.violate(cycle, scope, &m);
                    }
                }
            }
            Transition::L1Renew { block, rts, epoch } => {
                if let Some(&(e, hwm)) = self.l2_rts.get(&block) {
                    if e == epoch && rts > hwm {
                        let m = format!(
                            "L1 renewal on block {block} to rts {} beyond any \
                             L2 grant (high-water {}) in epoch {epoch}",
                            rts.0, hwm.0
                        );
                        self.violate(cycle, scope, &m);
                    }
                }
            }
            Transition::WarpTs { warp, ts } => {
                let prev = self.warp_ts.get(&(scope, warp)).copied().unwrap_or(ts);
                if ts < prev {
                    let m = format!(
                        "warp {warp} timestamp went backwards: {} -> {}",
                        prev.0, ts.0
                    );
                    self.violate(cycle, scope, &m);
                }
                self.warp_ts.insert((scope, warp), prev.max(ts));
            }
            Transition::EpochEnter { epoch } => {
                let prev = self.epochs.get(&scope).copied().unwrap_or(epoch);
                if epoch < prev {
                    let m = format!("epoch went backwards: {prev} -> {epoch}");
                    self.violate(cycle, scope, &m);
                }
                self.epochs.insert(scope, prev.max(epoch));
                // Rollover resets this component's warp timestamps to
                // INIT; forget the old frontier so the reset does not
                // read as a monotonicity violation.
                self.warp_ts.retain(|(s, _), _| *s != scope);
            }
            Transition::L2Grant {
                block,
                wts,
                rts,
                epoch,
            } => {
                if wts > rts {
                    let m = format!(
                        "L2 grant on block {block} has wts {} > rts {}",
                        wts.0, rts.0
                    );
                    self.violate(cycle, scope, &m);
                }
                self.check_not_pre_crash(cycle, scope, "grant", block, epoch);
                let hwm = self.l2_rts.get(&block).copied().unwrap_or((epoch, rts));
                if hwm.0 == epoch {
                    if rts < hwm.1 {
                        let m = format!(
                            "L2 rts regressed on block {block}: {} -> {} in epoch {epoch}",
                            hwm.1 .0, rts.0
                        );
                        self.violate(cycle, scope, &m);
                    }
                    self.l2_rts.insert(block, (epoch, hwm.1.max(rts)));
                } else if epoch > hwm.0 {
                    self.l2_rts.insert(block, (epoch, rts));
                }
                let last = self.l2_wts.get(&block).copied().unwrap_or((epoch, wts));
                if last.0 == epoch {
                    if wts < last.1 {
                        let m = format!(
                            "L2 wts regressed on block {block}: {} -> {} in epoch {epoch}",
                            last.1 .0, wts.0
                        );
                        self.violate(cycle, scope, &m);
                    }
                    self.l2_wts.insert(block, (epoch, last.1.max(wts)));
                } else if epoch > last.0 {
                    self.l2_wts.insert(block, (epoch, wts));
                }
            }
            Transition::L2Store {
                block,
                wts,
                rts,
                epoch,
            } => {
                if wts > rts {
                    let m = format!(
                        "L2 store on block {block} has wts {} > rts {}",
                        wts.0, rts.0
                    );
                    self.violate(cycle, scope, &m);
                }
                self.check_not_pre_crash(cycle, scope, "store", block, epoch);
                if let Some(&(e, last)) = self.l2_wts.get(&block) {
                    if e == epoch && wts <= last {
                        let m = format!(
                            "store wts not strictly monotone on block {block}: \
                             {} after {} in epoch {epoch}",
                            wts.0, last.0
                        );
                        self.violate(cycle, scope, &m);
                    }
                }
                self.l2_wts.insert(block, (epoch, wts));
                let hwm = self.l2_rts.entry(block).or_insert((epoch, rts));
                if hwm.0 == epoch {
                    hwm.1 = hwm.1.max(rts);
                } else if epoch > hwm.0 {
                    *hwm = (epoch, rts);
                }
            }
            Transition::L2Evict { block, rts, mem_ts } => {
                if mem_ts < rts {
                    let m = format!(
                        "eviction of block {block} folded rts {} into a smaller \
                         mem_ts {}",
                        rts.0, mem_ts.0
                    );
                    self.violate(cycle, scope, &m);
                }
            }
            Transition::BankReset { epoch } => {
                let prev = self.crashed_at_epoch.get(&scope).copied().unwrap_or(0);
                self.crashed_at_epoch.insert(scope, prev.max(epoch));
            }
            Transition::GrantInstall {
                block,
                wts,
                rts,
                epoch,
            } => {
                if wts > rts {
                    let m = format!(
                        "device grant on block {block} has wts {} > rts {}",
                        wts.0, rts.0
                    );
                    self.violate(cycle, scope, &m);
                }
                self.check_not_pre_crash(cycle, scope, "grant install", block, epoch);
                // A device grant is itself a lease the home handed down:
                // it must nest inside the home's high-water grant.
                if let Some(&(e, hwm)) = self.l2_rts.get(&block) {
                    if e == epoch && rts > hwm {
                        let m = format!(
                            "device grant on block {block} reaches rts {} beyond \
                             any home grant (high-water {}) in epoch {epoch}",
                            rts.0, hwm.0
                        );
                        self.violate(cycle, scope, &m);
                    }
                }
                let g = self
                    .device_grants
                    .entry((scope, block))
                    .or_insert((epoch, rts));
                if g.0 == epoch {
                    g.1 = g.1.max(rts);
                } else if epoch > g.0 {
                    *g = (epoch, rts);
                }
            }
            Transition::DeviceServe {
                block,
                wts,
                rts,
                epoch,
            } => {
                if wts > rts {
                    let m = format!(
                        "device-served lease on block {block} has wts {} > rts {}",
                        wts.0, rts.0
                    );
                    self.violate(cycle, scope, &m);
                }
                self.check_not_pre_crash(cycle, scope, "serve", block, epoch);
                match self.device_grants.get(&(scope, block)) {
                    Some(&(e, grant_rts)) if e == epoch => {
                        if rts > grant_rts {
                            let m = format!(
                                "L2-lease ⊄ device-grant: lease on block {block} \
                                 reaches rts {} beyond the installed grant's rts \
                                 {} in epoch {epoch}",
                                rts.0, grant_rts.0
                            );
                            self.violate(cycle, scope, &m);
                        }
                    }
                    _ => {
                        let m = format!(
                            "L2-lease ⊄ device-grant: lease on block {block} \
                             served with no live device grant in epoch {epoch}"
                        );
                        self.violate(cycle, scope, &m);
                    }
                }
            }
            Transition::DeviceCrash { epoch } => {
                let prev = self.crashed_at_epoch.get(&scope).copied().unwrap_or(0);
                self.crashed_at_epoch.insert(scope, prev.max(epoch));
                // The crash loses every grant the device held; serving
                // from a pre-crash grant after recovery must be flagged.
                self.device_grants.retain(|(s, _), _| *s != scope);
            }
            Transition::TcLease {
                block,
                now,
                expires,
            } => {
                if expires < now {
                    let m = format!(
                        "TC lease on block {block} granted already expired \
                         ({expires} < {now})"
                    );
                    self.violate(cycle, scope, &m);
                }
                self.tc_expires.insert(block, expires);
            }
            Transition::TcWrite {
                block,
                now,
                expires,
            } => {
                if now < expires {
                    let m = format!(
                        "TC strong write on block {block} at {now} before its \
                         lease expires at {expires}"
                    );
                    self.violate(cycle, scope, &m);
                }
            }
        }
    }
}

/// One component's handle on the shared invariant state machine.
///
/// The default sanitizer is disabled and checks nothing; the simulator
/// creates one enabled root per run and installs per-component clones
/// (sharing the core) when `GpuConfig::sanitize` is set.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    shared: Option<Rc<RefCell<SanitizerCore>>>,
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
            shared: Some(Rc::new(RefCell::new(SanitizerCore::default()))),
            scope,
        }
    }

    /// A handle on the same shared core, reporting as `scope`.
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

    /// The component this handle reports as ([`Scope::Sm`]`(0)` when
    /// disabled).
    #[must_use]
    pub fn scope(&self) -> Scope {
        self.scope
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

    /// Violations recorded so far (capped; see
    /// [`Sanitizer::suppressed`]).
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        self.shared
            .as_ref()
            .map_or_else(Vec::new, |s| s.borrow().violations.clone())
    }

    /// Number of transitions checked.
    #[must_use]
    pub fn checked(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.borrow().checked)
    }

    /// Violations beyond the retention cap (counted, not formatted).
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.borrow().suppressed)
    }

    /// Serializes the shared invariant core (checkpointing). Saving
    /// through any handle captures the state seen by every scoped clone,
    /// since they all share one core.
    pub fn save_state(&self, w: &mut gtsc_types::snap::SnapWriter) {
        match self.shared.as_ref() {
            Some(s) => {
                w.bool(true);
                gtsc_types::snap::Snap::save(&*s.borrow(), w);
            }
            None => w.bool(false),
        }
    }

    /// Restores the shared core in place; every scoped clone observes the
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

gtsc_types::snap_fields!(SanitizerCore {
    l2_rts,
    l2_wts,
    tc_expires,
    warp_ts,
    epochs,
    crashed_at_epoch,
    device_grants,
    violations,
    suppressed,
    checked,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

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

    #[test]
    fn clean_lease_flow_passes() {
        let root = Sanitizer::enabled(Scope::Sm(0));
        let l2 = root.for_scope(Scope::L2Bank(0));
        let l1 = root.for_scope(Scope::Sm(1));
        l2.check_with(Cycle(1), || Transition::L2Grant {
            block: b(3),
            wts: Timestamp(1),
            rts: Timestamp(11),
            epoch: 0,
        });
        l1.check_with(Cycle(2), || Transition::L1Lease {
            block: b(3),
            wts: Timestamp(1),
            rts: Timestamp(11),
            epoch: 0,
        });
        l1.check_with(Cycle(3), || Transition::WarpTs {
            warp: 0,
            ts: Timestamp(5),
        });
        l1.check_with(Cycle(4), || Transition::WarpTs {
            warp: 0,
            ts: Timestamp(9),
        });
        assert_eq!(root.checked(), 4);
        assert!(root.violations().is_empty(), "{:?}", root.violations());
    }

    #[test]
    fn wts_above_rts_is_flagged() {
        let s = Sanitizer::enabled(Scope::L2Bank(0));
        s.check_with(Cycle(1), || Transition::L2Grant {
            block: b(1),
            wts: Timestamp(12),
            rts: Timestamp(4),
            epoch: 0,
        });
        let v = s.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("wts 12 > rts 4"), "{v:?}");
    }

    #[test]
    fn l1_lease_outside_l2_grant_is_flagged() {
        let root = Sanitizer::enabled(Scope::Sm(0));
        let l2 = root.for_scope(Scope::L2Bank(0));
        l2.check_with(Cycle(1), || Transition::L2Grant {
            block: b(2),
            wts: Timestamp(1),
            rts: Timestamp(10),
            epoch: 0,
        });
        root.check_with(Cycle(2), || Transition::L1Lease {
            block: b(2),
            wts: Timestamp(1),
            rts: Timestamp(20),
            epoch: 0,
        });
        let v = root.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("beyond any L2 grant"), "{v:?}");
    }

    #[test]
    fn warp_ts_regression_is_flagged_but_rollover_reset_is_not() {
        let s = Sanitizer::enabled(Scope::Sm(0));
        s.check_with(Cycle(1), || Transition::WarpTs {
            warp: 2,
            ts: Timestamp(9),
        });
        s.check_with(Cycle(2), || Transition::WarpTs {
            warp: 2,
            ts: Timestamp(4),
        });
        assert_eq!(s.violations().len(), 1);
        // Epoch entry clears the frontier: the post-reset INIT value is
        // not a regression.
        s.check_with(Cycle(3), || Transition::EpochEnter { epoch: 1 });
        s.check_with(Cycle(4), || Transition::WarpTs {
            warp: 2,
            ts: Timestamp(1),
        });
        assert_eq!(s.violations().len(), 1, "{:?}", s.violations());
    }

    #[test]
    fn store_wts_must_strictly_advance_within_epoch() {
        let s = Sanitizer::enabled(Scope::L2Bank(0));
        let store = |wts: u64, epoch: u64| Transition::L2Store {
            block: b(7),
            wts: Timestamp(wts),
            rts: Timestamp(wts + 10),
            epoch,
        };
        s.check_with(Cycle(1), || store(5, 0));
        s.check_with(Cycle(2), || store(5, 0));
        assert_eq!(s.violations().len(), 1);
        assert!(s.violations()[0].contains("not strictly monotone"));
        // A new epoch restarts the ladder.
        s.check_with(Cycle(3), || store(2, 1));
        assert_eq!(s.violations().len(), 1, "{:?}", s.violations());
    }

    #[test]
    fn epoch_regression_and_evict_folding_are_flagged() {
        let s = Sanitizer::enabled(Scope::L2Bank(1));
        s.check_with(Cycle(1), || Transition::EpochEnter { epoch: 3 });
        s.check_with(Cycle(2), || Transition::EpochEnter { epoch: 2 });
        assert_eq!(s.violations().len(), 1);
        s.check_with(Cycle(3), || Transition::L2Evict {
            block: b(9),
            rts: Timestamp(40),
            mem_ts: Timestamp(12),
        });
        assert_eq!(s.violations().len(), 2);
        assert!(s.violations()[1].contains("smaller mem_ts"));
    }

    #[test]
    fn grants_must_not_regress_across_a_bank_reset() {
        let root = Sanitizer::enabled(Scope::Sm(0));
        let bank = root.for_scope(Scope::L2Bank(2));
        let other = root.for_scope(Scope::L2Bank(3));
        bank.check_with(Cycle(1), || Transition::L2Grant {
            block: b(4),
            wts: Timestamp(1),
            rts: Timestamp(9),
            epoch: 0,
        });
        bank.check_with(Cycle(5), || Transition::BankReset { epoch: 0 });
        bank.check_with(Cycle(6), || Transition::EpochEnter { epoch: 1 });
        // Post-recovery grants in the bumped epoch are fine.
        bank.check_with(Cycle(7), || Transition::L2Grant {
            block: b(4),
            wts: Timestamp(0),
            rts: Timestamp(5),
            epoch: 1,
        });
        assert!(root.violations().is_empty(), "{:?}", root.violations());
        // A grant or store at the crash epoch (or older) regresses.
        bank.check_with(Cycle(8), || Transition::L2Grant {
            block: b(4),
            wts: Timestamp(1),
            rts: Timestamp(9),
            epoch: 0,
        });
        bank.check_with(Cycle(9), || Transition::L2Store {
            block: b(5),
            wts: Timestamp(3),
            rts: Timestamp(9),
            epoch: 0,
        });
        let v = root.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("must not regress across a reset"), "{v:?}");
        // Scopes that never crashed are unaffected.
        other.check_with(Cycle(10), || Transition::L2Grant {
            block: b(6),
            wts: Timestamp(1),
            rts: Timestamp(9),
            epoch: 0,
        });
        assert_eq!(root.violations().len(), 2);
    }

    #[test]
    fn device_served_lease_must_nest_inside_grant() {
        let root = Sanitizer::enabled(Scope::Home(0));
        let dev = root.for_scope(Scope::Device(0));
        let other = root.for_scope(Scope::Device(1));
        // Home grants [1, 50] to device 0.
        root.check_with(Cycle(1), || Transition::L2Grant {
            block: b(3),
            wts: Timestamp(1),
            rts: Timestamp(50),
            epoch: 0,
        });
        dev.check_with(Cycle(2), || Transition::GrantInstall {
            block: b(3),
            wts: Timestamp(1),
            rts: Timestamp(50),
            epoch: 0,
        });
        // Serving inside the grant is fine; at the edge is fine.
        dev.check_with(Cycle(3), || Transition::DeviceServe {
            block: b(3),
            wts: Timestamp(1),
            rts: Timestamp(30),
            epoch: 0,
        });
        dev.check_with(Cycle(4), || Transition::DeviceServe {
            block: b(3),
            wts: Timestamp(1),
            rts: Timestamp(50),
            epoch: 0,
        });
        assert!(root.violations().is_empty(), "{:?}", root.violations());
        // Past the grant: the serve-past-grant-rts bug.
        dev.check_with(Cycle(5), || Transition::DeviceServe {
            block: b(3),
            wts: Timestamp(1),
            rts: Timestamp(51),
            epoch: 0,
        });
        let v = root.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("L2-lease ⊄ device-grant"), "{v:?}");
        // A different device holds no grant for the block at all.
        other.check_with(Cycle(6), || Transition::DeviceServe {
            block: b(3),
            wts: Timestamp(1),
            rts: Timestamp(10),
            epoch: 0,
        });
        let v = root.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[1].contains("no live device grant"), "{v:?}");
    }

    #[test]
    fn device_grant_beyond_home_grant_is_flagged() {
        let root = Sanitizer::enabled(Scope::Home(0));
        let dev = root.for_scope(Scope::Device(0));
        root.check_with(Cycle(1), || Transition::L2Grant {
            block: b(8),
            wts: Timestamp(1),
            rts: Timestamp(20),
            epoch: 0,
        });
        dev.check_with(Cycle(2), || Transition::GrantInstall {
            block: b(8),
            wts: Timestamp(1),
            rts: Timestamp(25),
            epoch: 0,
        });
        let v = root.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("beyond any home grant"), "{v:?}");
    }

    #[test]
    fn device_crash_wipes_grants_and_blocks_pre_crash_serves() {
        let root = Sanitizer::enabled(Scope::Home(0));
        let dev = root.for_scope(Scope::Device(2));
        dev.check_with(Cycle(1), || Transition::GrantInstall {
            block: b(4),
            wts: Timestamp(1),
            rts: Timestamp(40),
            epoch: 0,
        });
        dev.check_with(Cycle(2), || Transition::DeviceCrash { epoch: 0 });
        // Serving from the (lost) grant after the crash: two findings —
        // the serve is pre-crash-epoch AND the grant is gone.
        dev.check_with(Cycle(3), || Transition::DeviceServe {
            block: b(4),
            wts: Timestamp(1),
            rts: Timestamp(30),
            epoch: 0,
        });
        let v = root.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("must not regress across a reset"), "{v:?}");
        assert!(v[1].contains("no live device grant"), "{v:?}");
        // Recovery: fresh grant in the bumped epoch serves cleanly.
        dev.check_with(Cycle(4), || Transition::GrantInstall {
            block: b(4),
            wts: Timestamp(0),
            rts: Timestamp(8),
            epoch: 1,
        });
        dev.check_with(Cycle(5), || Transition::DeviceServe {
            block: b(4),
            wts: Timestamp(0),
            rts: Timestamp(8),
            epoch: 1,
        });
        assert_eq!(root.violations().len(), 2, "{:?}", root.violations());
    }

    #[test]
    fn tc_strong_write_inside_lease_is_flagged() {
        let s = Sanitizer::enabled(Scope::L2Bank(0));
        s.check_with(Cycle(5), || Transition::TcLease {
            block: b(1),
            now: Cycle(5),
            expires: Cycle(100),
        });
        s.check_with(Cycle(50), || Transition::TcWrite {
            block: b(1),
            now: Cycle(50),
            expires: Cycle(100),
        });
        let v = s.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("before its lease expires"), "{v:?}");
    }

    #[test]
    fn violation_cap_counts_suppressed() {
        let s = Sanitizer::enabled(Scope::Sm(0));
        for i in 0..(VIOLATION_CAP as u64 + 10) {
            s.check_with(Cycle(i), || Transition::L2Evict {
                block: b(i),
                rts: Timestamp(10),
                mem_ts: Timestamp(0),
            });
        }
        assert_eq!(s.violations().len(), VIOLATION_CAP);
        assert_eq!(s.suppressed(), 10);
    }
}
