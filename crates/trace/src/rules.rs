//! The invariant catalog: every per-event protocol rule, stated once.
//!
//! [`RULES`] names each rule, [`RuleMachine`] is the one state machine
//! that evaluates them over a stream of [`Transition`] facts, and
//! [`Report`] is the one accumulator findings land in. Two drivers feed
//! the machine: *online*, [`crate::Sanitizer::check_with`], hooked into
//! every controller state change; *offline*, `gtsc_check::lint_events`,
//! which translates a recorded [`crate::TraceEvent`] stream (a full log
//! or a merged flight-recorder tail) into the same facts.
//!
//! A rule fires from whichever stream carries its facts and is silent
//! where a stream cannot supply them: no rule fires on the *absence* of
//! a fact, so a truncated tail or an event that records less than its
//! transition only makes the machine see less.
//!
//! State is keyed by block for the lease-serving side (a block has one
//! serving bank on die, one home across the fabric) and by [`Scope`]
//! for everything a component owns; every timestamp mark carries the
//! epoch it was taken in and restarts when a newer epoch reports, which
//! is the Section V-D reset seen from the checker.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
use gtsc_types::{BlockAddr, Cycle, Timestamp};

use crate::{EventKind, Scope, Transition};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but potentially benign (e.g. wasted work).
    Warning,
    /// A protocol invariant was violated.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which driver's stream carries the facts a rule reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fed {
    /// Controllers report the fact and recorded events carry it too.
    Both,
    /// No event records the fields, or the rule compares two components
    /// whose truncated rings cannot be aligned epoch for epoch.
    Online,
    /// No controller reports it (see [`Transition::Recorded`]).
    Offline,
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case name; the key findings, tests and the mutant
    /// kill matrix use.
    pub name: &'static str,
    /// Fixed severity of its findings.
    pub severity: Severity,
    /// The paper figure or section (or DESIGN.md section, for the
    /// transport and multi-GPU extensions) whose rule it guards.
    pub guards: &'static str,
    /// Which driver feeds it.
    pub fed: Fed,
    /// One-line meaning.
    pub meaning: &'static str,
}

/// The catalog. DESIGN.md §12 renders this table.
pub const RULES: &[Rule] = &[
    Rule {
        name: "load-past-rts",
        severity: Severity::Error,
        guards: "Fig. 2",
        fed: Fed::Both,
        meaning: "a hit was served to a warp whose timestamp exceeds the line's rts",
    },
    Rule {
        name: "wts-gt-rts",
        severity: Severity::Error,
        guards: "Fig. 2",
        fed: Fed::Both,
        meaning: "a lease was installed, granted or served with wts > rts (inverted interval)",
    },
    Rule {
        name: "store-before-lease-expiry",
        severity: Severity::Error,
        guards: "Fig. 5",
        fed: Fed::Both,
        meaning: "a store committed at a wts at or below an rts already granted for the block",
    },
    Rule {
        name: "store-wts-order",
        severity: Severity::Error,
        guards: "Fig. 5",
        fed: Fed::Both,
        meaning: "a block's store wts did not strictly increase within an epoch",
    },
    Rule {
        name: "grant-rts-regression",
        severity: Severity::Error,
        guards: "Fig. 4",
        fed: Fed::Both,
        meaning: "a grant carried an rts below the block's granted high-water (extension is a max)",
    },
    Rule {
        name: "grant-wts-regression",
        severity: Severity::Error,
        guards: "Fig. 5",
        fed: Fed::Both,
        meaning: "a grant carried a wts older than the block's last granted or committed version",
    },
    Rule {
        name: "lease-beyond-grant",
        severity: Severity::Error,
        guards: "Figs. 7, 8",
        fed: Fed::Online,
        meaning:
            "an L1 installed or renewed a lease past every rts its L2 granted (L1 lease ⊆ L2 grant)",
    },
    Rule {
        name: "warp-ts-backwards",
        severity: Severity::Error,
        guards: "§III-C",
        fed: Fed::Online,
        meaning: "a warp's timestamp decreased without an epoch reset in between",
    },
    Rule {
        name: "epoch-order",
        severity: Severity::Error,
        guards: "§V-D",
        fed: Fed::Both,
        meaning: "within a scope, a reset entered an epoch older than one already reached",
    },
    Rule {
        name: "crash-epoch-reuse",
        severity: Severity::Error,
        guards: "§V-D, DESIGN §13",
        fed: Fed::Both,
        meaning: "a grant, store, install or serve at or below the epoch its scope crashed in",
    },
    Rule {
        name: "evict-unfolded-lease",
        severity: Severity::Error,
        guards: "Fig. 6, §V-C",
        fed: Fed::Online,
        meaning: "an L2 eviction left mem_ts below the evicted line's rts",
    },
    Rule {
        name: "grant-beyond-home",
        severity: Severity::Error,
        guards: "DESIGN §17.2",
        fed: Fed::Online,
        meaning: "a device installed an inter-GPU grant past every rts the home granted",
    },
    Rule {
        name: "serve-outside-device-grant",
        severity: Severity::Error,
        guards: "DESIGN §17.2",
        fed: Fed::Online,
        meaning: "a device served an L1 lease with no live grant, or past its grant's rts",
    },
    Rule {
        name: "tc-lease-born-expired",
        severity: Severity::Error,
        guards: "§II-D (TC)",
        fed: Fed::Online,
        meaning: "a TC physical lease was granted with its expiry already in the past",
    },
    Rule {
        name: "tc-write-inside-lease",
        severity: Severity::Error,
        guards: "§II-D (TC-Strong)",
        fed: Fed::Online,
        meaning: "a TC-Strong write performed before the block's last lease expired",
    },
    Rule {
        name: "evict-live-lease",
        severity: Severity::Warning,
        guards: "§VI-C",
        fed: Fed::Offline,
        meaning: "an L1 evicted a line whose lease still covered every local warp (renewal churn)",
    },
    Rule {
        name: "retransmit-without-timeout",
        severity: Severity::Error,
        guards: "DESIGN §13",
        fed: Fed::Offline,
        meaning: "the transport re-sent a segment on a timer that had not yet run out",
    },
];

/// Cap on *distinct* findings a [`Report`] keeps. Repeats of a `(rule,
/// scope, block)` already kept only bump its count and never use a
/// slot, so a stuck run repeating one violation per access cannot crowd
/// distinct failure modes out of the report.
pub const MAX_FINDINGS: usize = 256;

/// One deduplicated finding, with the context a post-mortem needs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Stable rule name (a [`RULES`] entry for per-event rules; the race
    /// oracle names its own).
    pub rule: &'static str,
    /// The rule's severity.
    pub severity: Severity,
    /// Cycle of the first occurrence.
    pub cycle: Cycle,
    /// Component the first occurrence happened at.
    pub scope: Scope,
    /// Block involved, when the rule is block-scoped.
    pub block: Option<BlockAddr>,
    /// Occurrences folded into this entry.
    pub count: u64,
    /// Human-readable detail of the first occurrence.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.severity, self.cycle, self.scope, self.rule
        )?;
        if let Some(b) = self.block {
            write!(f, " block {b}")?;
        }
        write!(f, ": {}", self.message)?;
        if self.count > 1 {
            write!(f, " (x{})", self.count)?;
        }
        Ok(())
    }
}

/// Only the sanitizer's findings are ever snapshotted, so a rule name
/// that is not a [`RULES`] entry is a damaged payload.
impl Snap for Finding {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self.rule);
        (self.cycle, self.scope, self.block, self.count).save(w);
        w.str(&self.message);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let name = r.str()?;
        let rule = RULES.iter().find(|rule| rule.name == name);
        let rule = rule.ok_or_else(|| SnapshotError::Malformed {
            context: format!("finding of unknown rule {name:?}"),
        })?;
        let (cycle, scope, block, count) = Snap::load(r)?;
        Ok(Finding {
            rule: rule.name,
            severity: rule.severity,
            cycle,
            scope,
            block,
            count,
            message: r.str()?,
        })
    }
}

/// The accumulator every checker writes through, and the verdict read
/// back from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Distinct findings, deduplicated by `(rule, scope, block)`, in
    /// first-occurrence order.
    pub findings: Vec<Finding>,
    /// Occurrences dropped after [`MAX_FINDINGS`] distinct findings.
    pub suppressed: u64,
    /// Facts (for the oracle, observations) examined.
    pub scanned: u64,
}

impl Report {
    /// Records one occurrence of `rule` at `(scope, block)`. Severity is
    /// the catalog's; a name [`RULES`] does not list (the race oracle's
    /// own rules) is an error — an unknown name must never downgrade a
    /// violation.
    pub fn push(
        &mut self,
        rule: &'static str,
        cycle: Cycle,
        scope: Scope,
        block: Option<BlockAddr>,
        message: String,
    ) {
        let mut kept = self.findings.iter_mut();
        if let Some(f) = kept.find(|f| (f.rule, f.scope, f.block) == (rule, scope, block)) {
            f.count += 1;
        } else if self.findings.len() >= MAX_FINDINGS {
            self.suppressed += 1;
        } else {
            let spec = RULES.iter().find(|r| r.name == rule);
            self.findings.push(Finding {
                rule,
                severity: spec.map_or(Severity::Error, |r| r.severity),
                cycle,
                scope,
                block,
                count: 1,
                message,
            });
        }
    }

    /// Number of distinct error-severity findings (the rest are
    /// warnings).
    #[must_use]
    pub fn errors(&self) -> usize {
        let errors = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error);
        errors.count()
    }

    /// Whether no invariant was violated (warnings allowed). A report
    /// that overflowed its cap is not clean: a dropped finding may have
    /// been an error.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.suppressed == 0
    }

    /// The findings rendered one per line, plus a suppression note.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.findings.iter().map(ToString::to_string).collect();
        if self.suppressed > 0 {
            out.push(format!(
                "... {} further finding(s) suppressed past the {MAX_FINDINGS}-entry cap",
                self.suppressed
            ));
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.findings.len();
        write!(f, "{n} finding(s) over {} scanned", self.scanned)?;
        self.lines().iter().try_for_each(|l| write!(f, "\n  {l}"))
    }
}

gtsc_types::snap_fields!(Report {
    findings,
    suppressed,
    scanned,
});

/// A per-epoch timestamp mark: the epoch it was taken in and the value.
type Mark = (u64, Timestamp);

/// The mark under `key`, if it was taken in `epoch`.
fn mark_in<K: Eq + Hash>(marks: &HashMap<K, Mark>, key: &K, epoch: u64) -> Option<Timestamp> {
    marks
        .get(key)
        .and_then(|&(e, ts)| (e == epoch).then_some(ts))
}

/// Raises the mark under `key` to at least `ts`. A newer epoch restarts
/// the mark (the reset rebased every timestamp), a fact from an older
/// epoch leaves it alone. Returns the mark that already stood in the
/// same epoch, if any — what a regression check compares against.
fn raise<K: Eq + Hash>(
    marks: &mut HashMap<K, Mark>,
    key: K,
    epoch: u64,
    ts: Timestamp,
) -> Option<Timestamp> {
    let stood = mark_in(marks, &key, epoch);
    if stood.is_some() || marks.get(&key).is_none_or(|&(e, _)| e < epoch) {
        marks.insert(key, (epoch, stood.map_or(ts, |mark| mark.max(ts))));
    }
    stood
}

/// Where a fact happened.
type At = (Cycle, Scope);

/// The rule state machine. Feed it facts with [`RuleMachine::check`];
/// read the verdict from [`RuleMachine::report`].
#[derive(Debug, Default)]
pub struct RuleMachine {
    /// High-water `rts` granted per block by its serving bank or home.
    l2_rts: HashMap<BlockAddr, Mark>,
    /// Last `wts` granted or committed per block.
    l2_wts: HashMap<BlockAddr, Mark>,
    /// Last observed warp timestamp per (SM scope, warp slot).
    warp_ts: HashMap<(Scope, u16), Timestamp>,
    /// Largest warp timestamp a hit was served at, per SM scope, since
    /// that SM's last epoch reset — a lower bound on how far its warps
    /// have advanced.
    hit_ts: HashMap<Scope, Timestamp>,
    /// Last observed epoch per component scope.
    epochs: HashMap<Scope, u64>,
    /// Highest epoch each scope crashed in.
    crashed_at_epoch: HashMap<Scope, u64>,
    /// Live inter-GPU grant per (device scope, block): grant `rts`
    /// high-water. Device-served leases must nest inside these.
    device_grants: HashMap<(Scope, BlockAddr), Mark>,
    /// The verdict over every fact checked so far.
    pub report: Report,
}

impl RuleMachine {
    fn flag(&mut self, at: At, rule: &'static str, block: Option<BlockAddr>, message: String) {
        self.report.push(rule, at.0, at.1, block, message);
    }

    /// `wts ≤ rts` on a lease a component installs, grants or serves.
    fn interval(&mut self, at: At, what: &str, block: BlockAddr, wts: Timestamp, rts: Timestamp) {
        if wts > rts {
            let m = format!("{what} has wts {} > rts {}", wts.0, rts.0);
            self.flag(at, "wts-gt-rts", Some(block), m);
        }
    }

    /// Once a scope has crashed in epoch `E`, anything it hands out at
    /// an epoch `<= E` reuses logical time the pre-crash world already
    /// spent: recovery must have bumped the epoch first. (A reset that
    /// re-enters the same epoch is legal on its own — banks of one
    /// device share a scope — so this, not the epoch-order rule, is what
    /// catches a recovery that fails to bump.)
    fn after_crash(&mut self, at: At, what: &str, block: BlockAddr, epoch: u64) {
        if let Some(&crashed) = self.crashed_at_epoch.get(&at.1) {
            if epoch <= crashed {
                let m = format!(
                    "{what} at epoch {epoch}, at or before this scope's crash epoch {crashed}"
                );
                self.flag(at, "crash-epoch-reuse", Some(block), m);
            }
        }
    }

    /// A lease handed down a level (`rule` says which: an L1's from its
    /// L2, a device's from the home) must lie inside what the block's
    /// serving side granted in the same epoch.
    fn inside_grant(
        &mut self,
        at: At,
        rule: &'static str,
        block: BlockAddr,
        rts: Timestamp,
        epoch: u64,
    ) {
        if let Some(hwm) = mark_in(&self.l2_rts, &block, epoch) {
            if rts > hwm {
                let m = format!(
                    "lease reaches rts {} beyond every rts granted above it (high-water {}) \
                     in epoch {epoch}",
                    rts.0, hwm.0
                );
                self.flag(at, rule, Some(block), m);
            }
        }
    }

    /// The serving side extended the block's lease to `rts`.
    fn extend_lease(&mut self, at: At, block: BlockAddr, rts: Timestamp, epoch: u64) {
        if let Some(hwm) = raise(&mut self.l2_rts, block, epoch, rts) {
            if rts < hwm {
                let m = format!("rts regressed {} -> {} in epoch {epoch}", hwm.0, rts.0);
                self.flag(at, "grant-rts-regression", Some(block), m);
            }
        }
    }

    /// Checks one fact reported by `scope` at `cycle`.
    #[allow(clippy::too_many_lines)]
    pub fn check(&mut self, cycle: Cycle, scope: Scope, t: Transition) {
        self.report.scanned += 1;
        let at = (cycle, scope);
        match t {
            Transition::L1Lease {
                block,
                wts,
                rts,
                epoch,
            } => {
                self.interval(at, "L1 lease", block, wts, rts);
                self.inside_grant(at, "lease-beyond-grant", block, rts, epoch);
            }
            Transition::L1Renew { block, rts, epoch } => {
                self.inside_grant(at, "lease-beyond-grant", block, rts, epoch);
            }
            Transition::L1Hit {
                block,
                warp,
                warp_ts,
                rts,
            } => {
                if warp_ts > rts {
                    let m = format!(
                        "hit served to warp {warp} at warp_ts {} past the line's rts {}",
                        warp_ts.0, rts.0
                    );
                    self.flag(at, "load-past-rts", Some(block), m);
                }
                let seen = self.hit_ts.entry(scope).or_insert(warp_ts);
                *seen = (*seen).max(warp_ts);
            }
            Transition::WarpTs { warp, ts } => {
                let prev = self.warp_ts.get(&(scope, warp)).copied().unwrap_or(ts);
                if ts < prev {
                    let m = format!("warp {warp} timestamp went {} -> {}", prev.0, ts.0);
                    self.flag(at, "warp-ts-backwards", None, m);
                }
                self.warp_ts.insert((scope, warp), prev.max(ts));
            }
            Transition::EpochEnter { epoch } => {
                let prev = self.epochs.get(&scope).copied().unwrap_or(epoch);
                if epoch < prev {
                    let m = format!("entered epoch {epoch} after reaching epoch {prev}");
                    self.flag(at, "epoch-order", None, m);
                }
                self.epochs.insert(scope, prev.max(epoch));
                // The reset returns this component's warp timestamps to
                // INIT; forget the old frontier so the reset does not
                // read as a regression.
                self.warp_ts.retain(|(s, _), _| *s != scope);
                self.hit_ts.remove(&scope);
            }
            Transition::L2Grant {
                block,
                wts,
                rts,
                epoch,
            } => {
                self.interval(at, "L2 grant", block, wts, rts);
                self.after_crash(at, "L2 grant", block, epoch);
                self.extend_lease(at, block, rts, epoch);
                if let Some(last) = raise(&mut self.l2_wts, block, epoch, wts) {
                    if wts < last {
                        let m = format!("wts regressed {} -> {} in epoch {epoch}", last.0, wts.0);
                        self.flag(at, "grant-wts-regression", Some(block), m);
                    }
                }
            }
            Transition::L2Renew { block, rts, epoch } => {
                self.after_crash(at, "L2 renewal", block, epoch);
                self.extend_lease(at, block, rts, epoch);
            }
            Transition::L2Store {
                block,
                wts,
                rts,
                epoch,
            } => {
                self.interval(at, "L2 store", block, wts, rts);
                self.after_crash(at, "L2 store", block, epoch);
                if let Some(hwm) = mark_in(&self.l2_rts, &block, epoch) {
                    if wts <= hwm {
                        let m = format!(
                            "store committed at wts {} inside a granted read lease \
                             (rts high-water {}) in epoch {epoch}",
                            wts.0, hwm.0
                        );
                        self.flag(at, "store-before-lease-expiry", Some(block), m);
                    }
                }
                if let Some(last) = raise(&mut self.l2_wts, block, epoch, wts) {
                    if wts <= last {
                        let m = format!(
                            "store wts {} not after the block's wts {} in epoch {epoch}",
                            wts.0, last.0
                        );
                        self.flag(at, "store-wts-order", Some(block), m);
                    }
                }
                raise(&mut self.l2_rts, block, epoch, rts);
            }
            Transition::L2Evict { block, rts, mem_ts } => {
                if mem_ts < rts {
                    let m = format!(
                        "eviction folded rts {} into a smaller mem_ts {}",
                        rts.0, mem_ts.0
                    );
                    self.flag(at, "evict-unfolded-lease", Some(block), m);
                }
            }
            Transition::BankReset { epoch } => {
                let crashed = self.crashed_at_epoch.entry(scope).or_insert(epoch);
                *crashed = (*crashed).max(epoch);
                // A crashed device loses every grant it held; serving
                // from a pre-crash grant after recovery must be flagged.
                // (A bank scope holds none, so this is a no-op there.)
                self.device_grants.retain(|(s, _), _| *s != scope);
            }
            Transition::GrantInstall {
                block,
                wts,
                rts,
                epoch,
            } => {
                self.interval(at, "device grant", block, wts, rts);
                self.after_crash(at, "grant install", block, epoch);
                // A device grant is itself a lease the home handed down.
                self.inside_grant(at, "grant-beyond-home", block, rts, epoch);
                raise(&mut self.device_grants, (scope, block), epoch, rts);
            }
            Transition::DeviceServe {
                block,
                wts,
                rts,
                epoch,
            } => {
                self.interval(at, "device-served lease", block, wts, rts);
                self.after_crash(at, "device serve", block, epoch);
                let m = match mark_in(&self.device_grants, &(scope, block), epoch) {
                    Some(grant) if rts > grant => format!(
                        "lease reaches rts {} beyond the installed grant's rts {} \
                         in epoch {epoch}",
                        rts.0, grant.0
                    ),
                    Some(_) => return,
                    None => format!("lease served with no live device grant in epoch {epoch}"),
                };
                self.flag(at, "serve-outside-device-grant", Some(block), m);
            }
            Transition::TcLease {
                block,
                now,
                expires,
            } => {
                if expires < now {
                    let m = format!("TC lease granted already expired ({expires} < {now})");
                    self.flag(at, "tc-lease-born-expired", Some(block), m);
                }
            }
            Transition::TcWrite {
                block,
                now,
                expires,
            } => {
                if now < expires {
                    let m =
                        format!("TC strong write at {now} before its lease expires at {expires}");
                    self.flag(at, "tc-write-inside-lease", Some(block), m);
                }
            }
            Transition::Recorded(EventKind::Eviction { block, rts }) => {
                // Judged only against hits this stream has shown: an SM
                // with no recorded hit says nothing about its warps.
                if let Some(&seen) = self.hit_ts.get(&scope) {
                    if Timestamp(rts) > seen {
                        let m = format!(
                            "evicted with rts {rts} still covering every local warp \
                             (max observed warp_ts {})",
                            seen.0
                        );
                        self.flag(at, "evict-live-lease", Some(block), m);
                    }
                }
            }
            Transition::Recorded(EventKind::Retransmit {
                src,
                dst,
                seq,
                age,
                timeout,
                nack,
            }) => {
                // Timer-driven: the (backed-off) deadline must really
                // have elapsed. A NACK-driven one is legitimate only
                // after the receiver asked — but "no Nack earlier in the
                // stream" is an absence, and in a flight tail the Nack
                // has often fallen off the ring: not judged.
                if !nack && (timeout == 0 || age < timeout) {
                    let m = format!(
                        "retransmit of {src} -> {dst} seq {seq} at age {age}, before its \
                         timeout {timeout} elapsed"
                    );
                    self.flag(at, "retransmit-without-timeout", None, m);
                }
            }
            Transition::Recorded(_) => {}
        }
    }
}

gtsc_types::snap_fields!(RuleMachine {
    l2_rts,
    l2_wts,
    warp_ts,
    hit_ts,
    epochs,
    crashed_at_epoch,
    device_grants,
    report,
});

#[cfg(test)]
mod tests {
    use super::*;

    /// One repeated finding (same rule/scope/block, cap+10 times) plus
    /// cap+4 distinct ones: the repeats collapse to a single counted
    /// entry *before* the cap, so distinct findings survive and only the
    /// true overflow is suppressed — and says so in the rendered report.
    #[test]
    fn findings_dedup_before_the_cap_and_overflow_is_counted() {
        let cap = MAX_FINDINGS as u64;
        let mut r = Report::default();
        let mut push = |cycle: u64, scope: Scope, block: u64| {
            r.push(
                "load-past-rts",
                Cycle(cycle),
                scope,
                Some(BlockAddr(block)),
                "m".into(),
            );
        };
        for i in 0..cap + 10 {
            push(i, Scope::Sm(0), 7);
        }
        for i in 0..cap + 4 {
            push(1000 + i, Scope::Sm(1), i);
        }
        assert_eq!(r.findings.len(), MAX_FINDINGS);
        assert_eq!(r.findings[0].count, cap + 10);
        assert_eq!(r.suppressed, 5);
        assert!(!r.is_clean());
        let lines = r.lines();
        assert_eq!(lines.len(), MAX_FINDINGS + 1, "cap plus summary");
        assert!(
            lines[0].ends_with(&format!("(x{})", cap + 10)),
            "{}",
            lines[0]
        );
        assert!(
            lines.last().expect("has lines").contains("5 further"),
            "{lines:?}"
        );
    }

    #[test]
    fn warnings_do_not_dirty_a_report() {
        let mut r = Report::default();
        r.push(
            "evict-live-lease",
            Cycle(3),
            Scope::Sm(0),
            Some(BlockAddr(1)),
            "early".into(),
        );
        assert!(r.is_clean());
        assert_eq!(
            r.findings[0].to_string(),
            "warning: [cyc3] sm0: evict-live-lease block B0x1: early"
        );
        r.push(
            "wts-gt-rts",
            Cycle(9),
            Scope::L2Bank(0),
            None,
            "late".into(),
        );
        assert_eq!((r.errors(), r.findings.len()), (1, 2));
        assert!(!r.is_clean());
        assert_eq!(
            r.to_string().lines().next(),
            Some("2 finding(s) over 0 scanned")
        );
    }
}
