//! Independent happens-before race oracle.
//!
//! The online [`gtsc_trace::Sanitizer`] checks *local* transition
//! invariants (per-line monotonicity, `wts <= rts`, epoch freshness).
//! This module checks the *global* ordering claims of the protocol, and
//! it does so independently: happens-before is derived from **message
//! causality only** — program order within an actor plus send/receive
//! edges between actors — never from the protocol's own timestamp
//! values. The timestamps under test therefore cannot vouch for
//! themselves.
//!
//! Two families of checks:
//!
//! * **Conflicting-access coverage.** Every load must be covered by a
//!   lease interval the bank actually granted (`read-unleased`,
//!   `read-past-lease`, `read-before-write`), and its logical
//!   serialization point must not overlap a later commit to the same
//!   block (`read-overlaps-write`). A store must land logically after
//!   every outstanding read lease (`store-inside-lease`).
//! * **Timestamp order extends happens-before.** Commits to one block
//!   are serialized by the bank, so their `wts` must strictly increase
//!   in bank order (`write-write-order`); per-warp operation timestamps
//!   must extend program order (`warp-ts-regression`); and a read may
//!   never causally precede the commit that produced its data
//!   (`read-from-future`, checked with vector clocks). Epoch resets
//!   must move forward (`epoch-regression`), and a bank crash must be
//!   followed by a bumped epoch before the bank speaks again
//!   (`missing-epoch-bump`). In hierarchical (multi-GPU) runs a device
//!   acts as both lease consumer and lease producer: every lease it
//!   hands an L1 must nest inside an inter-GPU grant it actually holds
//!   (`lease-outside-grant`), with the held grants modelled from the
//!   device's own install stream.
//!
//! # Why the obvious check would be wrong
//!
//! In a Tardis-style protocol, causality does **not** imply observation
//! freshness: a read that is physically after a write may legally
//! return the old version, because it *serializes logically earlier*
//! inside a granted lease. A naive "commit happens-before read, so the
//! read must see it" rule would flag correct executions. The sound
//! formulation used here is interval-based: a read of version `v`
//! serializes at its post-load warp timestamp `ts_R ∈ [wts_v, rts_v]`,
//! and a violation exists iff some commit `C` to the same block has
//! `wts_v < wts_C <= ts_R` — i.e. the lease the read relied on was not
//! actually exclusive up to its serialization point.
//!
//! Findings go through the accumulator every checker shares
//! ([`gtsc_trace::Report`]): deduplicated by `(rule, actor, block)`
//! with an occurrence count *before* the [`gtsc_trace::MAX_FINDINGS`]
//! cap, so a pathological run cannot crowd distinct failure modes out
//! of the report.

use std::collections::BTreeMap;

use gtsc_trace::{Report, Scope};
use gtsc_types::{BlockAddr, Cycle};

/// A vector clock over protocol actors.
pub type VClock = BTreeMap<Scope, u64>;

/// Whether `a` happens-before-or-equals `b` (componentwise `<=`).
#[must_use]
pub fn clock_leq(a: &VClock, b: &VClock) -> bool {
    a.iter().all(|(s, &v)| b.get(s).copied().unwrap_or(0) >= v)
}

fn clock_join(into: &mut VClock, other: &VClock) {
    for (s, &v) in other {
        let e = into.entry(*s).or_insert(0);
        if *e < v {
            *e = v;
        }
    }
}

/// Timestamp content of an L2→L1 response, in raw logical-time values.
///
/// The oracle models the receiving L1's lease table from these, so it
/// never has to trust the L1's own bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespMeta {
    /// Data fill carrying a lease `[wts, rts]` for `version`.
    Fill {
        /// Filled block.
        block: BlockAddr,
        /// Data version supplied.
        version: u64,
        /// Write timestamp of the version.
        wts: u64,
        /// Lease upper bound.
        rts: u64,
        /// Producing bank's epoch.
        epoch: u64,
    },
    /// Lease extension without data; applies to the copy whose `wts`
    /// matches.
    Renew {
        /// Renewed block.
        block: BlockAddr,
        /// `wts` of the copy being renewed.
        wts: u64,
        /// New lease upper bound.
        rts: u64,
        /// Producing bank's epoch.
        epoch: u64,
    },
    /// Store acknowledgment: `version` committed at `wts` with read
    /// lease up to `rts`.
    WriteAck {
        /// Written block.
        block: BlockAddr,
        /// Committed version.
        version: u64,
        /// Assigned write timestamp.
        wts: u64,
        /// Lease upper bound granted to the new version.
        rts: u64,
        /// Producing bank's epoch.
        epoch: u64,
    },
}

impl RespMeta {
    /// Block the response concerns.
    #[must_use]
    pub fn block(self) -> BlockAddr {
        match self {
            RespMeta::Fill { block, .. }
            | RespMeta::Renew { block, .. }
            | RespMeta::WriteAck { block, .. } => block,
        }
    }

    /// Epoch the producing component stamped on the response.
    #[must_use]
    pub fn epoch(self) -> u64 {
        match self {
            RespMeta::Fill { epoch, .. }
            | RespMeta::Renew { epoch, .. }
            | RespMeta::WriteAck { epoch, .. } => epoch,
        }
    }

    fn rts(self) -> u64 {
        match self {
            RespMeta::Fill { rts, .. }
            | RespMeta::Renew { rts, .. }
            | RespMeta::WriteAck { rts, .. } => rts,
        }
    }
}

/// One observation fed to the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceEventKind {
    /// A message with unique id `msg` left the acting component for
    /// `dst`. The sender's clock is snapshotted here.
    Send {
        /// Destination actor.
        dst: Scope,
        /// Unique message id.
        msg: u64,
    },
    /// Message `msg` arrived at the acting component from `src`. Joins
    /// the sender's snapshotted clock into the receiver's.
    Recv {
        /// Source actor.
        src: Scope,
        /// Unique message id.
        msg: u64,
    },
    /// The acting bank produced a response (lease grant or store
    /// commit). Drives the bank-side interval and ordering checks.
    Grant(RespMeta),
    /// The acting SM consumed a response. Drives the oracle's model of
    /// that SM's lease table (with the L1's epoch-gating semantics:
    /// newer epochs flush, older epochs are dropped).
    Install(RespMeta),
    /// A load retired at the acting SM: it read `version` of `block`,
    /// serializing at logical time `ts` (the post-load warp timestamp).
    Read {
        /// Block read.
        block: BlockAddr,
        /// Observed data version.
        version: u64,
        /// Logical serialization point of the read.
        ts: u64,
        /// Epoch the load retired in.
        epoch: u64,
    },
    /// A store retired at the acting SM with assigned `wts`.
    StoreDone {
        /// Block written.
        block: BlockAddr,
        /// Version published.
        version: u64,
        /// Assigned write timestamp.
        wts: u64,
        /// Epoch the store retired in.
        epoch: u64,
    },
    /// The acting bank crashed and lost its coherence state; its next
    /// response must carry a strictly newer epoch.
    Crash,
}

/// A committed store as the bank serialized it.
#[derive(Debug, Clone)]
struct Commit {
    version: u64,
    wts: u64,
    cycle: Cycle,
    clock: VClock,
}

/// Per-`(epoch, block)` bank-side state.
#[derive(Debug, Clone, Default)]
struct BankBlock {
    /// Commits in bank serialization order.
    commits: Vec<Commit>,
    /// version → committed `wts` (replay detection).
    by_version: BTreeMap<u64, u64>,
    /// High-water mark of every `rts` the bank granted for this block.
    granted_rts: u64,
}

#[derive(Debug, Clone, Default)]
struct BankState {
    epoch: u64,
    /// Epoch at crash time, until the bank's next grant proves the bump.
    pending_crash: Option<u64>,
    blocks: BTreeMap<(u64, BlockAddr), BankBlock>,
}

#[derive(Debug, Clone, Default)]
struct SmState {
    epoch: u64,
    /// Per-epoch warp-timestamp frontier (program order must extend
    /// timestamp order).
    frontier: u64,
    /// `(block, version)` → granted `[wts, rts]`. A lenient superset of
    /// the L1's real residency (evictions are invisible), which can
    /// only hide bugs, never invent them.
    leases: BTreeMap<(BlockAddr, u64), (u64, u64)>,
}

/// A retired load, queued for the batch interval checks.
#[derive(Debug, Clone)]
struct ReadRec {
    version: u64,
    ts: u64,
    actor: Scope,
    cycle: Cycle,
    clock: VClock,
}

/// The happens-before race oracle. Feed it [`RaceEventKind`]s via
/// [`RaceOracle::observe`]; collect the verdict with
/// [`RaceOracle::report`].
#[derive(Debug, Clone, Default)]
pub struct RaceOracle {
    clocks: BTreeMap<Scope, VClock>,
    in_flight: BTreeMap<u64, VClock>,
    sms: BTreeMap<Scope, SmState>,
    banks: BTreeMap<Scope, BankState>,
    reads: BTreeMap<(u64, BlockAddr), Vec<ReadRec>>,
    findings: Report,
    events: u64,
}

impl RaceOracle {
    /// A fresh oracle with no history.
    #[must_use]
    pub fn new() -> Self {
        RaceOracle::default()
    }

    /// Feeds one observation. Online rules fire immediately; interval
    /// rules are evaluated in [`RaceOracle::report`].
    pub fn observe(&mut self, cycle: Cycle, actor: Scope, kind: RaceEventKind) {
        self.events += 1;
        // Program order: every local event ticks the actor's own
        // component.
        *self
            .clocks
            .entry(actor)
            .or_default()
            .entry(actor)
            .or_insert(0) += 1;
        match kind {
            RaceEventKind::Send { msg, .. } => {
                let snapshot = self.clocks.get(&actor).cloned().unwrap_or_default();
                self.in_flight.insert(msg, snapshot);
            }
            RaceEventKind::Recv { src, msg } => {
                if let Some(snapshot) = self.in_flight.get(&msg).cloned() {
                    clock_join(self.clocks.entry(actor).or_default(), &snapshot);
                } else {
                    self.findings.push(
                        "unmatched-recv",
                        cycle,
                        actor,
                        None,
                        format!("received message {msg} from {src} that was never sent"),
                    );
                }
            }
            RaceEventKind::Grant(meta) => self.on_grant(cycle, actor, meta),
            RaceEventKind::Install(meta) => self.on_install(actor, meta),
            RaceEventKind::Read {
                block,
                version,
                ts,
                epoch,
            } => self.on_read(cycle, actor, block, version, ts, epoch),
            RaceEventKind::StoreDone {
                block, wts, epoch, ..
            } => self.on_op_ts(cycle, actor, block, wts, epoch),
            RaceEventKind::Crash => {
                let bank = self.banks.entry(actor).or_default();
                bank.pending_crash = Some(bank.epoch);
                // A crashed device also loses every inter-GPU grant it
                // held; anything it serves before reacquiring one is a
                // `lease-outside-grant` violation.
                if let Some(sm) = self.sms.get_mut(&actor) {
                    sm.leases.clear();
                }
            }
        }
    }

    fn on_grant(&mut self, cycle: Cycle, actor: Scope, meta: RespMeta) {
        let block = meta.block();
        let epoch = meta.epoch();
        // Hierarchical delegation (multi-GPU): a device may only hand
        // out a lease that nests inside an inter-GPU grant it actually
        // holds. Held grants are modelled from the device's own Install
        // stream (what the home delivered to it), so the device's
        // internal bookkeeping cannot vouch for itself.
        if matches!(actor, Scope::Device(_)) {
            let held = self
                .sms
                .get(&actor)
                .into_iter()
                .flat_map(|sm| sm.leases.iter())
                .filter(|((b, _), _)| *b == block)
                .map(|(_, &(_, grts))| grts)
                .max();
            let rts = meta.rts();
            match held {
                None => self.findings.push(
                    "lease-outside-grant",
                    cycle,
                    actor,
                    Some(block),
                    format!(
                        "device granted a lease with rts {rts} without holding any \
                         inter-GPU grant for the block"
                    ),
                ),
                Some(grts) if rts > grts => self.findings.push(
                    "lease-outside-grant",
                    cycle,
                    actor,
                    Some(block),
                    format!(
                        "device granted a lease with rts {rts}, outside its inter-GPU \
                         grant (rts high-water {grts}) — L2-lease ⊄ device-grant"
                    ),
                ),
                Some(_) => {}
            }
        }
        let bank = self.banks.entry(actor).or_default();
        if epoch < bank.epoch {
            self.findings.push(
                "epoch-regression",
                cycle,
                actor,
                Some(block),
                format!(
                    "bank granted in epoch {epoch} after reaching epoch {}",
                    bank.epoch
                ),
            );
        } else {
            bank.epoch = epoch;
        }
        if let Some(at) = bank.pending_crash.take() {
            if epoch <= at {
                self.findings.push(
                    "missing-epoch-bump",
                    cycle,
                    actor,
                    Some(block),
                    format!(
                        "first grant after a crash in epoch {at} still carries epoch {epoch}; \
                         orphaned leases were never invalidated"
                    ),
                );
            }
        }
        let bb = bank.blocks.entry((epoch, block)).or_default();
        match meta {
            RespMeta::Fill { rts, .. } | RespMeta::Renew { rts, .. } => {
                bb.granted_rts = bb.granted_rts.max(rts);
            }
            RespMeta::WriteAck {
                version, wts, rts, ..
            } => {
                if let Some(&w0) = bb.by_version.get(&version) {
                    if w0 != wts {
                        self.findings.push(
                            "write-write-order",
                            cycle,
                            actor,
                            Some(block),
                            format!(
                                "replayed commit of version {version} re-stamped wts {w0} as {wts}"
                            ),
                        );
                    }
                } else {
                    if let Some(last) = bb.commits.last() {
                        if wts <= last.wts {
                            self.findings.push(
                                "write-write-order",
                                cycle,
                                actor,
                                Some(block),
                                format!(
                                    "commit wts {wts} (version {version}) not after the \
                                     previous commit wts {} (version {})",
                                    last.wts, last.version
                                ),
                            );
                        }
                    }
                    if wts <= bb.granted_rts {
                        self.findings.push(
                            "store-inside-lease",
                            cycle,
                            actor,
                            Some(block),
                            format!(
                                "commit wts {wts} is inside a granted read lease \
                                 (rts high-water {})",
                                bb.granted_rts
                            ),
                        );
                    }
                    let clock = self.clocks.get(&actor).cloned().unwrap_or_default();
                    bank.blocks
                        .entry((epoch, block))
                        .or_default()
                        .commits
                        .push(Commit {
                            version,
                            wts,
                            cycle,
                            clock,
                        });
                    bank.blocks
                        .entry((epoch, block))
                        .or_default()
                        .by_version
                        .insert(version, wts);
                }
                let bb = bank.blocks.entry((epoch, block)).or_default();
                bb.granted_rts = bb.granted_rts.max(rts);
            }
        }
    }

    fn on_install(&mut self, actor: Scope, meta: RespMeta) {
        let epoch = meta.epoch();
        let sm = self.sms.entry(actor).or_default();
        if epoch > sm.epoch {
            // The L1 flushes and rebases on first contact with a newer
            // epoch; mirror that.
            sm.epoch = epoch;
            sm.frontier = 0;
            sm.leases.clear();
        } else if epoch < sm.epoch {
            // Stale-epoch responses are dropped by the L1.
            return;
        }
        match meta {
            RespMeta::Fill {
                block,
                version,
                wts,
                rts,
                ..
            }
            | RespMeta::WriteAck {
                block,
                version,
                wts,
                rts,
                ..
            } => {
                sm.leases.insert((block, version), (wts, rts));
            }
            RespMeta::Renew {
                block, wts, rts, ..
            } => {
                for ((b, _), lease) in &mut sm.leases {
                    if *b == block && lease.0 == wts {
                        lease.1 = lease.1.max(rts);
                    }
                }
            }
        }
    }

    fn on_read(
        &mut self,
        cycle: Cycle,
        actor: Scope,
        block: BlockAddr,
        version: u64,
        ts: u64,
        epoch: u64,
    ) {
        self.on_op_ts(cycle, actor, block, ts, epoch);
        let sm = self.sms.entry(actor).or_default();
        match sm.leases.get(&(block, version)) {
            None => self.findings.push(
                "read-unleased",
                cycle,
                actor,
                Some(block),
                format!("load observed version {version} without any granted lease for it"),
            ),
            Some(&(wts, rts)) => {
                if ts > rts {
                    self.findings.push(
                        "read-past-lease",
                        cycle,
                        actor,
                        Some(block),
                        format!(
                            "load serialized at ts {ts}, past the granted lease \
                             [{wts}, {rts}] of version {version}"
                        ),
                    );
                }
                if ts < wts {
                    self.findings.push(
                        "read-before-write",
                        cycle,
                        actor,
                        Some(block),
                        format!(
                            "load serialized at ts {ts}, before version {version} \
                             was written at wts {wts}"
                        ),
                    );
                }
            }
        }
        let clock = self.clocks.get(&actor).cloned().unwrap_or_default();
        self.reads.entry((epoch, block)).or_default().push(ReadRec {
            version,
            ts,
            actor,
            cycle,
            clock,
        });
    }

    /// Shared Read/StoreDone bookkeeping: epoch sanity and the per-warp
    /// timestamp frontier.
    fn on_op_ts(&mut self, cycle: Cycle, actor: Scope, block: BlockAddr, ts: u64, epoch: u64) {
        let sm = self.sms.entry(actor).or_default();
        if epoch < sm.epoch {
            self.findings.push(
                "epoch-regression",
                cycle,
                actor,
                Some(block),
                format!(
                    "operation retired in epoch {epoch} after the SM reached {}",
                    sm.epoch
                ),
            );
            return;
        }
        if epoch > sm.epoch {
            sm.epoch = epoch;
            sm.frontier = 0;
            sm.leases.clear();
        }
        let sm = self.sms.entry(actor).or_default();
        if ts < sm.frontier {
            self.findings.push(
                "warp-ts-regression",
                cycle,
                actor,
                Some(block),
                format!(
                    "operation timestamp {ts} moved backwards from the warp frontier {}",
                    sm.frontier
                ),
            );
        } else {
            sm.frontier = ts;
        }
    }

    /// Runs the batch interval checks over everything observed and
    /// returns the full verdict. Callable mid-run; the oracle keeps
    /// accumulating afterwards.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut f = self.findings.clone();
        for ((epoch, block), reads) in &self.reads {
            // In a flat run a block is owned by exactly one bank; in a
            // multi-GPU run the home node *and* the forwarding device
            // both record the same commits. Merge every bank's history
            // for this (epoch, block), deduplicating by version and
            // keeping the causally earliest copy (the authoritative
            // home-side serialization — a forwarder's clock strictly
            // contains it), so reads are checked against the full
            // commit order and never against one component's partial
            // view, and `read-from-future` measures the path from the
            // true commit point rather than from a forwarder.
            let mut by_version: BTreeMap<u64, u64> = BTreeMap::new();
            let mut merged: BTreeMap<u64, &Commit> = BTreeMap::new();
            for b in self.banks.values() {
                if let Some(bb) = b.blocks.get(&(*epoch, *block)) {
                    for (&v, &w) in &bb.by_version {
                        by_version.entry(v).or_insert(w);
                    }
                    for c in &bb.commits {
                        merged
                            .entry(c.version)
                            .and_modify(|e| {
                                if clock_leq(&c.clock, &e.clock) {
                                    *e = c;
                                }
                            })
                            .or_insert(c);
                    }
                }
            }
            if by_version.is_empty() && merged.is_empty() {
                continue;
            }
            let mut commits: Vec<&Commit> = merged.into_values().collect();
            commits.sort_by_key(|c| (c.wts, c.cycle));
            for r in reads {
                // Versions never committed in this epoch are the
                // epoch's base data (initial contents or rollover
                // carry-over): they serialize from logical time 0.
                let wts_v = by_version.get(&r.version).copied().unwrap_or(0);
                if let Some(c) = commits.iter().find(|c| c.wts > wts_v && c.wts <= r.ts) {
                    f.push(
                        "read-overlaps-write",
                        r.cycle,
                        r.actor,
                        Some(*block),
                        format!(
                            "load of version {} serialized at ts {}, at or after the \
                             commit of version {} (wts {}, cycle {}) — the lease was \
                             not exclusive",
                            r.version, r.ts, c.version, c.wts, c.cycle
                        ),
                    );
                }
                if let Some(c) = commits.iter().find(|c| c.version == r.version) {
                    if !clock_leq(&c.clock, &r.clock) {
                        f.push(
                            "read-from-future",
                            r.cycle,
                            r.actor,
                            Some(*block),
                            format!(
                                "load observed version {} without a causal path from \
                                 its commit",
                                r.version
                            ),
                        );
                    }
                }
            }
        }
        f.findings
            .sort_by(|a, b| a.cycle.cmp(&b.cycle).then(a.rule.cmp(b.rule)));
        f.scanned = self.events;
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SM0: Scope = Scope::Sm(0);
    const SM1: Scope = Scope::Sm(1);
    const BANK: Scope = Scope::L2Bank(0);
    const B: BlockAddr = BlockAddr(7);

    fn fill(version: u64, wts: u64, rts: u64, epoch: u64) -> RespMeta {
        RespMeta::Fill {
            block: B,
            version,
            wts,
            rts,
            epoch,
        }
    }

    fn ack(version: u64, wts: u64, rts: u64, epoch: u64) -> RespMeta {
        RespMeta::WriteAck {
            block: B,
            version,
            wts,
            rts,
            epoch,
        }
    }

    /// Grants a response at the bank and installs it at `sm`, with the
    /// send/recv causality edge in between.
    fn deliver(o: &mut RaceOracle, c: u64, sm: Scope, meta: RespMeta, msg: u64) {
        o.observe(Cycle(c), BANK, RaceEventKind::Grant(meta));
        o.observe(Cycle(c), BANK, RaceEventKind::Send { dst: sm, msg });
        o.observe(Cycle(c + 1), sm, RaceEventKind::Recv { src: BANK, msg });
        o.observe(Cycle(c + 1), sm, RaceEventKind::Install(meta));
    }

    fn rules(r: &Report) -> Vec<&'static str> {
        r.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clock_join_and_leq() {
        let mut a = VClock::new();
        a.insert(SM0, 3);
        let mut b = VClock::new();
        b.insert(SM0, 2);
        b.insert(BANK, 5);
        assert!(!clock_leq(&a, &b));
        clock_join(&mut b, &a);
        assert_eq!(b[&SM0], 3);
        assert_eq!(b[&BANK], 5);
        assert!(clock_leq(&a, &b));
    }

    #[test]
    fn clean_lease_read_is_clean() {
        let mut o = RaceOracle::new();
        deliver(&mut o, 0, SM0, fill(0, 0, 10, 0), 1);
        o.observe(
            Cycle(2),
            SM0,
            RaceEventKind::Read {
                block: B,
                version: 0,
                ts: 4,
                epoch: 0,
            },
        );
        // A later store lands past the lease, as the protocol requires.
        deliver(&mut o, 3, SM1, ack(9, 11, 21, 0), 2);
        let r = o.report();
        assert!(r.is_clean(), "{r}");
        assert!(r.scanned > 0);
    }

    #[test]
    fn read_past_lease_and_unleased_fire() {
        let mut o = RaceOracle::new();
        deliver(&mut o, 0, SM0, fill(0, 0, 10, 0), 1);
        o.observe(
            Cycle(2),
            SM0,
            RaceEventKind::Read {
                block: B,
                version: 0,
                ts: 11,
                epoch: 0,
            },
        );
        o.observe(
            Cycle(3),
            SM0,
            RaceEventKind::Read {
                block: B,
                version: 42,
                ts: 12,
                epoch: 0,
            },
        );
        let r = o.report();
        assert!(rules(&r).contains(&"read-past-lease"), "{r}");
        assert!(rules(&r).contains(&"read-unleased"), "{r}");
    }

    #[test]
    fn store_inside_lease_fires() {
        let mut o = RaceOracle::new();
        deliver(&mut o, 0, SM0, fill(0, 0, 10, 0), 1);
        // Commit wts 5 lands inside the granted [0, 10] read lease.
        deliver(&mut o, 1, SM1, ack(9, 5, 15, 0), 2);
        let r = o.report();
        assert!(rules(&r).contains(&"store-inside-lease"), "{r}");
    }

    #[test]
    fn write_write_order_fires_on_non_monotone_commits() {
        let mut o = RaceOracle::new();
        deliver(&mut o, 0, SM0, ack(1, 5, 15, 0), 1);
        deliver(&mut o, 1, SM1, ack(2, 16, 26, 0), 2);
        deliver(&mut o, 2, SM0, ack(3, 16, 26, 0), 3);
        let r = o.report();
        assert!(rules(&r).contains(&"write-write-order"), "{r}");
    }

    #[test]
    fn read_overlaps_write_fires_via_batch_check() {
        let mut o = RaceOracle::new();
        // Reader leased [0, 10] for the base version...
        deliver(&mut o, 0, SM0, fill(0, 0, 10, 0), 1);
        // ...but a commit lands at wts 5 (already inside the lease), and
        // the reader then serializes at ts 8 >= 5 while observing the
        // base version.
        deliver(&mut o, 1, SM1, ack(9, 5, 15, 0), 2);
        o.observe(
            Cycle(3),
            SM0,
            RaceEventKind::Read {
                block: B,
                version: 0,
                ts: 8,
                epoch: 0,
            },
        );
        let r = o.report();
        assert!(rules(&r).contains(&"read-overlaps-write"), "{r}");
    }

    #[test]
    fn read_from_future_fires_without_causal_path() {
        let mut o = RaceOracle::new();
        // SM1's store commits at the bank, but SM0 claims to read the
        // version with no message ever delivered to it.
        deliver(&mut o, 0, SM1, ack(9, 11, 21, 0), 1);
        o.observe(Cycle(1), SM0, RaceEventKind::Install(fill(9, 11, 21, 0)));
        o.observe(
            Cycle(2),
            SM0,
            RaceEventKind::Read {
                block: B,
                version: 9,
                ts: 12,
                epoch: 0,
            },
        );
        let r = o.report();
        assert!(rules(&r).contains(&"read-from-future"), "{r}");
    }

    #[test]
    fn unmatched_recv_fires() {
        let mut o = RaceOracle::new();
        o.observe(Cycle(0), SM0, RaceEventKind::Recv { src: BANK, msg: 99 });
        let r = o.report();
        assert_eq!(rules(&r), vec!["unmatched-recv"]);
    }

    #[test]
    fn warp_ts_regression_fires() {
        let mut o = RaceOracle::new();
        deliver(&mut o, 0, SM0, fill(0, 0, 10, 0), 1);
        for (c, ts) in [(2, 8), (3, 4)] {
            o.observe(
                Cycle(c),
                SM0,
                RaceEventKind::Read {
                    block: B,
                    version: 0,
                    ts,
                    epoch: 0,
                },
            );
        }
        let r = o.report();
        assert!(rules(&r).contains(&"warp-ts-regression"), "{r}");
    }

    #[test]
    fn crash_without_epoch_bump_fires() {
        let mut o = RaceOracle::new();
        deliver(&mut o, 0, SM0, fill(0, 0, 10, 0), 1);
        o.observe(Cycle(1), BANK, RaceEventKind::Crash);
        deliver(&mut o, 2, SM0, fill(0, 0, 10, 0), 2);
        let r = o.report();
        assert!(rules(&r).contains(&"missing-epoch-bump"), "{r}");

        // With a proper bump the same shape is clean.
        let mut o = RaceOracle::new();
        deliver(&mut o, 0, SM0, fill(0, 0, 10, 0), 1);
        o.observe(Cycle(1), BANK, RaceEventKind::Crash);
        deliver(&mut o, 2, SM0, fill(0, 0, 10, 1), 2);
        assert!(o.report().is_clean());
    }

    #[test]
    fn epoch_reset_clears_sm_leases_and_frontier() {
        let mut o = RaceOracle::new();
        deliver(&mut o, 0, SM0, fill(0, 0, 10, 0), 1);
        o.observe(
            Cycle(1),
            SM0,
            RaceEventKind::Read {
                block: B,
                version: 0,
                ts: 9,
                epoch: 0,
            },
        );
        // Epoch 1: timestamps rebase; the old lease is gone, a fresh
        // one is granted, and a smaller ts is fine again.
        deliver(&mut o, 2, SM0, fill(0, 0, 10, 1), 2);
        o.observe(
            Cycle(3),
            SM0,
            RaceEventKind::Read {
                block: B,
                version: 0,
                ts: 2,
                epoch: 1,
            },
        );
        let r = o.report();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn findings_dedup_before_cap() {
        let mut o = RaceOracle::new();
        deliver(&mut o, 0, SM0, fill(0, 0, 10, 0), 1);
        for c in 0..300u64 {
            o.observe(
                Cycle(10 + c),
                SM0,
                RaceEventKind::Read {
                    block: B,
                    version: 0,
                    ts: 11 + c,
                    epoch: 0,
                },
            );
        }
        let r = o.report();
        // 300 violating reads at one (rule, actor, block) fold into a
        // single entry with a count, far below the cap.
        let past: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == "read-past-lease")
            .collect();
        assert_eq!(past.len(), 1);
        assert_eq!(past[0].count, 300);
        assert_eq!(r.suppressed, 0);
        assert!(past[0].to_string().contains("(x300)"), "{}", past[0]);
    }

    const DEV: Scope = Scope::Device(0);
    const HOME: Scope = Scope::Home(0);

    #[test]
    fn device_lease_inside_grant_is_clean_and_escape_is_flagged() {
        // The device installs an inter-GPU grant [1, 17] for the block,
        // then hands an L1 a lease capped at the grant: clean.
        let mut o = RaceOracle::new();
        o.observe(Cycle(0), DEV, RaceEventKind::Install(fill(0, 1, 17, 0)));
        o.observe(Cycle(1), DEV, RaceEventKind::Grant(fill(0, 1, 17, 0)));
        assert!(o.report().is_clean(), "{}", o.report());

        // The same grant, but the handed lease overshoots the grant's
        // rts — the ServePastGrantRts failure mode.
        let mut o = RaceOracle::new();
        o.observe(Cycle(0), DEV, RaceEventKind::Install(fill(0, 1, 17, 0)));
        o.observe(Cycle(1), DEV, RaceEventKind::Grant(fill(0, 1, 65, 0)));
        let r = o.report();
        assert!(rules(&r).contains(&"lease-outside-grant"), "{r}");
    }

    #[test]
    fn device_grant_without_any_held_grant_is_flagged() {
        let mut o = RaceOracle::new();
        o.observe(Cycle(0), DEV, RaceEventKind::Grant(fill(0, 1, 10, 0)));
        let r = o.report();
        assert!(rules(&r).contains(&"lease-outside-grant"), "{r}");
    }

    #[test]
    fn device_crash_clears_held_grants() {
        let mut o = RaceOracle::new();
        o.observe(Cycle(0), DEV, RaceEventKind::Install(fill(0, 1, 17, 0)));
        o.observe(Cycle(1), DEV, RaceEventKind::Crash);
        // Serving from the (lost) grant after the crash is a violation
        // even though the lease would have nested before.
        o.observe(Cycle(2), DEV, RaceEventKind::Grant(fill(0, 1, 17, 1)));
        let r = o.report();
        assert!(rules(&r).contains(&"lease-outside-grant"), "{r}");

        // Reacquiring the grant first makes the same serve clean.
        let mut o = RaceOracle::new();
        o.observe(Cycle(0), DEV, RaceEventKind::Install(fill(0, 1, 17, 0)));
        o.observe(Cycle(1), DEV, RaceEventKind::Crash);
        o.observe(Cycle(2), DEV, RaceEventKind::Install(fill(0, 1, 17, 1)));
        o.observe(Cycle(3), DEV, RaceEventKind::Grant(fill(0, 1, 17, 1)));
        assert!(o.report().is_clean(), "{}", o.report());
    }

    #[test]
    fn report_merges_commit_history_across_banks() {
        // Multi-GPU shape: the home records the commit, the device only
        // records the fill it forwarded (no commit history). The read
        // overlapping the commit must still be found even though the
        // device's BankBlock for the key has an empty commit list — the
        // old single-bank lookup could land on the device and miss it.
        let mut o = RaceOracle::new();
        // Home grants the reader's fill (via the device) and commits a
        // later store inside that lease.
        o.observe(Cycle(0), HOME, RaceEventKind::Grant(fill(0, 0, 10, 0)));
        o.observe(Cycle(1), DEV, RaceEventKind::Install(fill(0, 0, 10, 0)));
        o.observe(Cycle(1), DEV, RaceEventKind::Grant(fill(0, 0, 10, 0)));
        o.observe(Cycle(2), SM0, RaceEventKind::Install(fill(0, 0, 10, 0)));
        o.observe(Cycle(3), HOME, RaceEventKind::Grant(ack(9, 5, 15, 0)));
        o.observe(
            Cycle(4),
            SM0,
            RaceEventKind::Read {
                block: B,
                version: 0,
                ts: 8,
                epoch: 0,
            },
        );
        let r = o.report();
        assert!(rules(&r).contains(&"read-overlaps-write"), "{r}");
        // The clean variant — read serialized before the commit — stays
        // clean under the merged view.
        let mut o = RaceOracle::new();
        o.observe(Cycle(0), HOME, RaceEventKind::Grant(fill(0, 0, 10, 0)));
        o.observe(Cycle(1), DEV, RaceEventKind::Install(fill(0, 0, 10, 0)));
        o.observe(Cycle(1), DEV, RaceEventKind::Grant(fill(0, 0, 10, 0)));
        o.observe(Cycle(2), SM0, RaceEventKind::Install(fill(0, 0, 10, 0)));
        o.observe(Cycle(3), HOME, RaceEventKind::Grant(ack(9, 11, 21, 0)));
        o.observe(
            Cycle(4),
            SM0,
            RaceEventKind::Read {
                block: B,
                version: 0,
                ts: 8,
                epoch: 0,
            },
        );
        assert!(o.report().is_clean(), "{}", o.report());
    }
}
