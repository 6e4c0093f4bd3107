//! The protocol event taxonomy: the one fact vocabulary.
//!
//! Tardis-style protocols are debugged in terms of their timestamp
//! transitions (lease grants, renewals, expiries, future-scheduled
//! writes, rollovers), so every event carries the logical-time facts a
//! post-mortem needs, not just a name — and every fact a rule of the
//! invariant catalog ([`crate::rules`]) reads, epochs included. A
//! component reports each transition once, through its
//! [`crate::Probe`]; the recorder, the rule machine and the span tracker
//! all read that one event. Events are small `Copy` values — cheap to
//! push into a ring buffer on the protocol paths.

use gtsc_types::{BlockAddr, Cycle, StallKind, Timestamp};

/// Coarse event category; each class owns one bit of
/// [`gtsc_types::TraceConfig::class_mask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum EventClass {
    /// Cache lookups: hits, cold misses, expired (coherence) misses,
    /// accesses blocked on a pending write.
    Access = 0,
    /// Logical-lease machinery: grants, renewals, installs.
    Lease = 1,
    /// Store lifecycle: commit at L2, ack at L1, replay drops.
    Store = 2,
    /// Line evictions (L1 or L2).
    Eviction = 3,
    /// Timestamp rollover epochs (Section V-D).
    Rollover = 4,
    /// Warps: issue, stall, and logical-timestamp advances.
    Warp = 5,
    /// Interconnect packet send/deliver.
    Noc = 6,
    /// DRAM enqueue/service.
    Dram = 7,
    /// Reliable transport: drops, corruption, retransmits, NACKs, and
    /// bank crash/recovery.
    Transport = 8,
}

impl EventClass {
    /// All classes enabled.
    pub const ALL: u16 = 0x1FF;

    /// This class's bit in a [`gtsc_types::TraceConfig::class_mask`].
    #[must_use]
    pub fn bit(self) -> u16 {
        1 << (self as u16)
    }

    /// Short lowercase label (`access`, `lease`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Access => "access",
            EventClass::Lease => "lease",
            EventClass::Store => "store",
            EventClass::Eviction => "eviction",
            EventClass::Rollover => "rollover",
            EventClass::Warp => "warp",
            EventClass::Noc => "noc",
            EventClass::Dram => "dram",
            EventClass::Transport => "transport",
        }
    }
}

/// Which component recorded an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope {
    /// An SM and its private L1 (index = SM id).
    Sm(u16),
    /// A shared-cache bank.
    L2Bank(u16),
    /// A network: `0` = request net, `1` = response net.
    Noc(u16),
    /// A DRAM partition.
    Dram(u16),
    /// A multi-GPU device's L2 shard (fabric endpoint); the index is
    /// the device id.
    Device(u16),
    /// The home-node directory joining the devices (index reserved for
    /// future multi-home topologies; today always 0). Sorts after every
    /// device so per-scope reports read devices-then-home.
    Home(u16),
}

impl Scope {
    /// The SM index, when this scope is SM-local.
    #[must_use]
    pub fn sm(self) -> Option<u16> {
        match self {
            Scope::Sm(i) => Some(i),
            _ => None,
        }
    }
}

impl gtsc_types::snap::Snap for Scope {
    fn save(&self, w: &mut gtsc_types::snap::SnapWriter) {
        let (tag, i) = match self {
            Scope::Sm(i) => (0u8, *i),
            Scope::L2Bank(i) => (1, *i),
            Scope::Noc(i) => (2, *i),
            Scope::Dram(i) => (3, *i),
            Scope::Device(i) => (4, *i),
            Scope::Home(i) => (5, *i),
        };
        w.u8(tag);
        w.u16(i);
    }

    fn load(
        r: &mut gtsc_types::snap::SnapReader<'_>,
    ) -> Result<Self, gtsc_types::snap::SnapshotError> {
        let tag = r.u8()?;
        let i = r.u16()?;
        match tag {
            0 => Ok(Scope::Sm(i)),
            1 => Ok(Scope::L2Bank(i)),
            2 => Ok(Scope::Noc(i)),
            3 => Ok(Scope::Dram(i)),
            4 => Ok(Scope::Device(i)),
            5 => Ok(Scope::Home(i)),
            other => Err(gtsc_types::snap::SnapshotError::Malformed {
                context: format!("Scope tag {other}"),
            }),
        }
    }
}

impl std::fmt::Display for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scope::Sm(i) => write!(f, "sm{i}"),
            Scope::L2Bank(i) => write!(f, "l2[{i}]"),
            Scope::Noc(0) => write!(f, "noc.req"),
            Scope::Noc(_) => write!(f, "noc.resp"),
            Scope::Dram(i) => write!(f, "dram[{i}]"),
            Scope::Device(i) => write!(f, "dev{i}"),
            Scope::Home(i) => write!(f, "home{i}"),
        }
    }
}

/// One protocol event. Timestamps are raw logical-time values
/// ([`gtsc_types::Timestamp`]`.0`) so the enum stays `Copy` and free of
/// protocol-crate dependencies; the one exception, [`EventKind::WarpTs`],
/// keeps the typed [`Timestamp`] its benchmark rung names. Which
/// component reported an event ([`TraceEvent::scope`]) says which rules
/// read it: a lease event from an SM is its L1's, from a bank or the home
/// the serving side's, from a device its fabric shard's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// L1/L2 lookup hit with a live (unexpired) lease.
    Hit {
        /// Block looked up.
        block: BlockAddr,
        /// Accessing warp slot.
        warp: u16,
        /// The accessor's logical timestamp at lookup (physical `now`
        /// for the TC baselines).
        warp_ts: u64,
        /// The hit line's read-timestamp upper bound (lease expiry
        /// cycle for the TC baselines). A live hit requires
        /// `warp_ts <= rts` (the `load-past-rts` rule).
        rts: u64,
    },
    /// Lookup missed: tag absent.
    ColdMiss {
        /// Block looked up.
        block: BlockAddr,
        /// Accessing warp slot.
        warp: u16,
    },
    /// Tag matched but the lease had expired — a coherence miss
    /// (Section II-D).
    ExpiredMiss {
        /// Block looked up.
        block: BlockAddr,
        /// The accessing warp's logical timestamp.
        warp_ts: u64,
        /// The line's (expired) read-timestamp upper bound.
        rts: u64,
    },
    /// Access blocked on a line awaiting its write ack (update
    /// visibility, Section V-A).
    BlockedOnWrite {
        /// Locked block.
        block: BlockAddr,
    },
    /// A lease `[wts, rts]` was granted, renewed, installed or committed
    /// (`op`), in `epoch`.
    Lease {
        /// What happened to the lease.
        op: LeaseOp,
        /// Leased block.
        block: BlockAddr,
        /// Write timestamp of the version the lease covers (`0` for a TC
        /// physical lease).
        wts: u64,
        /// Read-timestamp upper bound (the expiry cycle of a TC physical
        /// lease).
        rts: u64,
        /// Epoch the lease belongs to.
        epoch: u64,
    },
    /// L1 received the global-performance ack for a store.
    WriteAck {
        /// Acked block.
        block: BlockAddr,
    },
    /// L2 dropped a duplicate store/atomic via the replay filter.
    ReplayDrop {
        /// Affected block.
        block: BlockAddr,
    },
    /// A line was evicted.
    Eviction {
        /// Evicted block.
        block: BlockAddr,
        /// The evicted line's read-timestamp upper bound (lease expiry
        /// cycle for the TC baselines); `0` when unknown. Lets the
        /// `evict-live-lease` rule spot L1 evictions that dropped an
        /// unexpired lease.
        rts: u64,
        /// A G-TSC bank's `mem_ts` after folding the eviction in (Fig. 6,
        /// the `evict-unfolded-lease` rule); `None` where nothing folds.
        mem_ts: Option<u64>,
    },
    /// Timestamp rollover: the component entered reset epoch `epoch`
    /// (Section V-D).
    Rollover {
        /// New epoch.
        epoch: u64,
    },
    /// A warp issued an instruction.
    WarpIssue {
        /// Issuing warp slot.
        warp: u16,
    },
    /// A warp spent this cycle stalled.
    WarpStall {
        /// Stalled warp slot.
        warp: u16,
        /// Why it could not issue.
        kind: StallKind,
    },
    /// A warp's logical timestamp advanced to `ts` (a load or a store
    /// ack observed a newer version, §III-C).
    WarpTs {
        /// Warp slot within the reporting SM.
        warp: u16,
        /// The new warp timestamp.
        ts: Timestamp,
    },
    /// A packet entered a network.
    PacketSend {
        /// Source port.
        src: u16,
        /// Destination port.
        dst: u16,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// A packet left a network.
    PacketDeliver {
        /// Source port.
        src: u16,
        /// Destination port.
        dst: u16,
    },
    /// A packet vanished on the wire (loss fault).
    PacketDrop {
        /// Source port.
        src: u16,
        /// Destination port.
        dst: u16,
    },
    /// A packet arrived with an unusable payload (loss fault); only the
    /// header survived.
    PacketCorrupt {
        /// Source port.
        src: u16,
        /// Destination port.
        dst: u16,
    },
    /// The transport re-sent an unacked segment.
    Retransmit {
        /// Source port of the flow.
        src: u16,
        /// Destination port of the flow.
        dst: u16,
        /// Sequence number re-sent.
        seq: u64,
        /// Cycles since the segment was last sent.
        age: u64,
        /// The (backed-off) timeout that expired; `0` for NACK-driven
        /// retransmits, which do not wait for a timeout.
        timeout: u64,
        /// Whether a NACK (rather than a timeout) triggered it.
        nack: bool,
    },
    /// A receiver asked for a missing/corrupted segment.
    Nack {
        /// Source port of the flow being NACKed (the sender).
        src: u16,
        /// Destination port of the flow (the NACKing receiver).
        dst: u16,
        /// The sequence number the receiver expects next.
        expected: u64,
    },
    /// The reporting L2 bank (or, under a [`Scope::Device`], the whole
    /// device with its installed grants) crashed while in `epoch`; the
    /// recovery's epoch bump follows as a [`EventKind::Rollover`].
    BankReset {
        /// The epoch the unit was in when it crashed — recovery must
        /// leave it behind.
        epoch: u64,
    },
    /// A request entered a DRAM partition queue.
    DramEnqueue {
        /// Requested block.
        block: BlockAddr,
        /// Whether it is a write burst.
        write: bool,
    },
    /// A DRAM bank started servicing a request.
    DramService {
        /// Serviced block.
        block: BlockAddr,
        /// Whether it is a write burst.
        write: bool,
    },
    /// TC baseline: a physical lease was granted at the event's cycle,
    /// expiring at cycle `expires` (§II-D).
    TcLease {
        /// Leased block.
        block: BlockAddr,
        /// Expiry cycle of the lease.
        expires: u64,
    },
    /// TC baseline: a write performed at the event's cycle on a line
    /// whose last granted lease expires at cycle `expires`. Under
    /// TC-Strong (`strong`) write atomicity requires that lease to have
    /// run out; TC-Weak writes inside it by design.
    TcWrite {
        /// Written block.
        block: BlockAddr,
        /// Expiry cycle of the last lease on the block.
        expires: u64,
        /// Whether the L2 runs TC-Strong.
        strong: bool,
    },
}

/// What an [`EventKind::Lease`] event did with its lease. The reporting
/// component ([`TraceEvent::scope`]) says whose lease it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseOp {
    /// Served with data: a bank's or the home's fresh grant (Fig. 4), or
    /// a device's serve from its installed grant.
    Grant,
    /// Extended without data (renewal, Section VI-C): served by a bank,
    /// the home or a device, or applied by an L1.
    Renew,
    /// Installed from the level above: an L1 fill or store ack (Fig. 7),
    /// a bank's DRAM fill under `mem_ts` (Fig. 6), or a device's
    /// inter-GPU grant from the home (DESIGN.md §17).
    Install,
    /// Committed by a store at the L2: the block's new version lives at
    /// `wts` (future-scheduled write, Fig. 5).
    Commit,
}

impl LeaseOp {
    /// Stable event name, used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LeaseOp::Grant => "lease_grant",
            LeaseOp::Renew => "renewal",
            LeaseOp::Install => "lease_install",
            LeaseOp::Commit => "store_commit",
        }
    }
}

impl EventKind {
    /// The filter class this event belongs to.
    #[must_use]
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::Hit { .. }
            | EventKind::ColdMiss { .. }
            | EventKind::ExpiredMiss { .. }
            | EventKind::BlockedOnWrite { .. } => EventClass::Access,
            EventKind::Lease {
                op: LeaseOp::Commit,
                ..
            }
            | EventKind::WriteAck { .. }
            | EventKind::ReplayDrop { .. }
            | EventKind::TcWrite { .. } => EventClass::Store,
            EventKind::Lease { .. } | EventKind::TcLease { .. } => EventClass::Lease,
            EventKind::Eviction { .. } => EventClass::Eviction,
            EventKind::Rollover { .. } => EventClass::Rollover,
            EventKind::WarpIssue { .. }
            | EventKind::WarpStall { .. }
            | EventKind::WarpTs { .. } => EventClass::Warp,
            EventKind::PacketSend { .. } | EventKind::PacketDeliver { .. } => EventClass::Noc,
            EventKind::PacketDrop { .. }
            | EventKind::PacketCorrupt { .. }
            | EventKind::Retransmit { .. }
            | EventKind::Nack { .. }
            | EventKind::BankReset { .. } => EventClass::Transport,
            EventKind::DramEnqueue { .. } | EventKind::DramService { .. } => EventClass::Dram,
        }
    }

    /// The block this event touches, when it has one (address-range
    /// filtering).
    #[must_use]
    pub fn block(&self) -> Option<BlockAddr> {
        match *self {
            EventKind::Hit { block, .. }
            | EventKind::ColdMiss { block, .. }
            | EventKind::ExpiredMiss { block, .. }
            | EventKind::BlockedOnWrite { block }
            | EventKind::Lease { block, .. }
            | EventKind::WriteAck { block }
            | EventKind::ReplayDrop { block }
            | EventKind::Eviction { block, .. }
            | EventKind::DramEnqueue { block, .. }
            | EventKind::DramService { block, .. }
            | EventKind::TcLease { block, .. }
            | EventKind::TcWrite { block, .. } => Some(block),
            EventKind::Rollover { .. }
            | EventKind::WarpIssue { .. }
            | EventKind::WarpStall { .. }
            | EventKind::WarpTs { .. }
            | EventKind::PacketSend { .. }
            | EventKind::PacketDeliver { .. }
            | EventKind::PacketDrop { .. }
            | EventKind::PacketCorrupt { .. }
            | EventKind::Retransmit { .. }
            | EventKind::Nack { .. }
            | EventKind::BankReset { .. } => None,
        }
    }

    /// Short stable name (`hit`, `lease_grant`, ...), used by the
    /// exporters.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Hit { .. } => "hit",
            EventKind::ColdMiss { .. } => "cold_miss",
            EventKind::ExpiredMiss { .. } => "expired_miss",
            EventKind::BlockedOnWrite { .. } => "blocked_on_write",
            EventKind::Lease { op, .. } => op.name(),
            EventKind::WriteAck { .. } => "write_ack",
            EventKind::ReplayDrop { .. } => "replay_drop",
            EventKind::Eviction { .. } => "eviction",
            EventKind::Rollover { .. } => "rollover",
            EventKind::WarpIssue { .. } => "warp_issue",
            EventKind::WarpStall { .. } => "warp_stall",
            EventKind::WarpTs { .. } => "warp_ts",
            EventKind::PacketSend { .. } => "packet_send",
            EventKind::PacketDeliver { .. } => "packet_deliver",
            EventKind::PacketDrop { .. } => "packet_drop",
            EventKind::PacketCorrupt { .. } => "packet_corrupt",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::Nack { .. } => "nack",
            EventKind::BankReset { .. } => "bank_reset",
            EventKind::DramEnqueue { .. } => "dram_enqueue",
            EventKind::DramService { .. } => "dram_service",
            EventKind::TcLease { .. } => "tc_lease",
            EventKind::TcWrite { .. } => "tc_write",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EventKind::Hit {
                block,
                warp,
                warp_ts,
                rts,
            } => write!(
                f,
                "hit block {block} (warp {warp}, warp_ts {warp_ts} <= rts {rts})"
            ),
            EventKind::ColdMiss { block, warp } => {
                write!(f, "cold miss block {block} (warp {warp})")
            }
            EventKind::ExpiredMiss {
                block,
                warp_ts,
                rts,
            } => write!(
                f,
                "expired miss block {block} (warp_ts {warp_ts} > rts {rts})"
            ),
            EventKind::BlockedOnWrite { block } => {
                write!(f, "blocked on pending write, block {block}")
            }
            EventKind::Lease {
                op,
                block,
                wts,
                rts,
                epoch,
            } => {
                let what = op.name().replace('_', " ");
                write!(f, "{what} block {block} [{wts}, {rts}] e{epoch}")
            }
            EventKind::WriteAck { block } => write!(f, "write ack block {block}"),
            EventKind::ReplayDrop { block } => write!(f, "replay drop block {block}"),
            EventKind::Eviction {
                block,
                rts,
                mem_ts: None,
            } => write!(f, "evict block {block} (rts {rts})"),
            EventKind::Eviction {
                block,
                rts,
                mem_ts: Some(mem_ts),
            } => write!(f, "evict block {block} (rts {rts}, mem_ts -> {mem_ts})"),
            EventKind::Rollover { epoch } => write!(f, "rollover to epoch {epoch}"),
            EventKind::WarpIssue { warp } => write!(f, "warp {warp} issue"),
            EventKind::WarpStall { warp, kind } => write!(f, "warp {warp} stall ({kind:?})"),
            EventKind::WarpTs { warp, ts } => write!(f, "warp {warp} ts -> {}", ts.0),
            EventKind::PacketSend { src, dst, bytes } => {
                write!(f, "packet {src} -> {dst} ({bytes} B)")
            }
            EventKind::PacketDeliver { src, dst } => write!(f, "deliver {src} -> {dst}"),
            EventKind::PacketDrop { src, dst } => write!(f, "DROP {src} -> {dst}"),
            EventKind::PacketCorrupt { src, dst } => write!(f, "CORRUPT {src} -> {dst}"),
            EventKind::Retransmit {
                src,
                dst,
                seq,
                age,
                timeout,
                nack,
            } => write!(
                f,
                "retransmit {src} -> {dst} seq {seq} (age {age}{})",
                if nack {
                    ", nack-driven".to_string()
                } else {
                    format!(" >= timeout {timeout}")
                }
            ),
            EventKind::Nack { src, dst, expected } => {
                write!(f, "nack flow {src} -> {dst}, expected seq {expected}")
            }
            EventKind::BankReset { epoch } => write!(f, "crash/reset in epoch {epoch}"),
            EventKind::DramEnqueue { block, write } => write!(
                f,
                "dram enqueue {} block {block}",
                if write { "write" } else { "read" }
            ),
            EventKind::DramService { block, write } => write!(
                f,
                "dram service {} block {block}",
                if write { "write" } else { "read" }
            ),
            EventKind::TcLease { block, expires } => {
                write!(f, "tc lease block {block} expires {expires}")
            }
            EventKind::TcWrite {
                block,
                expires,
                strong,
            } => write!(
                f,
                "tc {} write block {block} (lease expires {expires})",
                if strong { "strong" } else { "weak" }
            ),
        }
    }
}

/// One recorded event: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the event happened.
    pub cycle: Cycle,
    /// Component that recorded it.
    pub scope: Scope,
    /// What happened.
    pub kind: EventKind,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.cycle, self.scope, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_have_distinct_bits() {
        let classes = [
            EventClass::Access,
            EventClass::Lease,
            EventClass::Store,
            EventClass::Eviction,
            EventClass::Rollover,
            EventClass::Warp,
            EventClass::Noc,
            EventClass::Dram,
            EventClass::Transport,
        ];
        let mut seen = 0u16;
        for c in classes {
            assert_eq!(seen & c.bit(), 0, "{c:?} bit collides");
            seen |= c.bit();
        }
        assert_eq!(seen, EventClass::ALL);
    }

    #[test]
    fn kind_class_and_block_are_consistent() {
        let b = BlockAddr(42);
        assert_eq!(
            EventKind::Lease {
                op: LeaseOp::Grant,
                block: b,
                wts: 1,
                rts: 11,
                epoch: 0,
            }
            .class(),
            EventClass::Lease
        );
        let commit = EventKind::Lease {
            op: LeaseOp::Commit,
            block: b,
            wts: 12,
            rts: 22,
            epoch: 3,
        };
        assert_eq!(
            (commit.class(), commit.name()),
            (EventClass::Store, "store_commit")
        );
        assert_eq!(commit.to_string(), "store commit block B0x2a [12, 22] e3");
        let evict = EventKind::Eviction {
            block: b,
            rts: 9,
            mem_ts: Some(9),
        };
        assert_eq!(evict.block(), Some(b));
        assert!(evict.to_string().contains("mem_ts -> 9"), "{evict}");
        assert_eq!(
            EventKind::Hit {
                block: b,
                warp: 1,
                warp_ts: 4,
                rts: 10
            }
            .block(),
            Some(b)
        );
        assert_eq!(EventKind::WarpIssue { warp: 3 }.block(), None);
        assert_eq!(
            EventKind::Rollover { epoch: 2 }.class(),
            EventClass::Rollover
        );
    }

    #[test]
    fn transport_events_class_and_render() {
        let retx = EventKind::Retransmit {
            src: 1,
            dst: 0,
            seq: 7,
            age: 300,
            timeout: 256,
            nack: false,
        };
        assert_eq!(retx.class(), EventClass::Transport);
        assert_eq!(retx.block(), None);
        assert_eq!(retx.name(), "retransmit");
        assert!(retx.to_string().contains("seq 7"), "{retx}");
        assert!(retx.to_string().contains("timeout 256"), "{retx}");
        let nacked = EventKind::Retransmit {
            src: 1,
            dst: 0,
            seq: 7,
            age: 300,
            timeout: 0,
            nack: true,
        };
        assert!(nacked.to_string().contains("nack-driven"), "{nacked}");
        for k in [
            EventKind::PacketDrop { src: 0, dst: 1 },
            EventKind::PacketCorrupt { src: 0, dst: 1 },
            EventKind::Nack {
                src: 0,
                dst: 1,
                expected: 3,
            },
            EventKind::BankReset { epoch: 2 },
        ] {
            assert_eq!(k.class(), EventClass::Transport, "{k:?}");
        }
        assert_eq!(EventClass::Transport.name(), "transport");
        assert_eq!(EventClass::Transport.bit(), 1 << 8);
    }

    #[test]
    fn event_renders_scope_and_kind() {
        let e = TraceEvent {
            cycle: Cycle(7),
            scope: Scope::Sm(1),
            kind: EventKind::ExpiredMiss {
                block: BlockAddr(3),
                warp_ts: 9,
                rts: 5,
            },
        };
        let s = e.to_string();
        assert!(s.contains("sm1"), "{s}");
        assert!(s.contains("expired miss"), "{s}");
        assert!(s.contains("warp_ts 9 > rts 5"), "{s}");
        assert_eq!(Scope::Noc(0).to_string(), "noc.req");
        assert_eq!(Scope::Noc(1).to_string(), "noc.resp");
        assert_eq!(Scope::Dram(2).to_string(), "dram[2]");
    }

    #[test]
    fn device_and_home_scopes_render_order_and_round_trip() {
        use gtsc_types::snap::{Snap, SnapReader, SnapWriter};
        assert_eq!(Scope::Device(3).to_string(), "dev3");
        assert_eq!(Scope::Home(0).to_string(), "home0");
        assert!(Scope::Device(3).sm().is_none());
        // Devices sort before the home node in per-scope reports.
        assert!(Scope::Device(u16::MAX) < Scope::Home(0));
        for s in [Scope::Device(7), Scope::Home(0)] {
            let mut w = SnapWriter::new();
            s.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(Scope::load(&mut r).unwrap(), s);
        }
    }
}
