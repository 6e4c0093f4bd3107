//! Coherence messages exchanged between private L1 caches and shared L2
//! banks, matching Table I of the paper.
//!
//! | Message                     | rts | wts | warp_ts | data |
//! |-----------------------------|-----|-----|---------|------|
//! | Read/Renewal request (BusRd)|     |  ✓  |    ✓    |      |
//! | Write request (BusWr)       |     |     |    ✓    |  ✓   |
//! | Fill response (BusFill)     |  ✓  |  ✓  |         |  ✓   |
//! | Renewal response (BusRnw)   |  ✓  |     |         |      |
//! | Write ack (BusWrAck)        |  ✓  |  ✓  |         |      |
//!
//! The same wire format carries the Temporal-Coherence baselines: TC's
//! physical-time leases ride in [`LeaseInfo::Physical`] and its GWCT in
//! the write ack, and the timestamp fields simply contribute no bytes for
//! the no-coherence baselines ([`LeaseInfo::None`]).

use gtsc_types::{BlockAddr, Cycle, SpanId, Timestamp, Version};

use crate::api::AccessKind;

/// A timestamp-reset epoch (Section V-D).
///
/// Every G-TSC message carries the sending bank's epoch; an L1 receiving a
/// response from a newer epoch flushes itself and resets its warp
/// timestamps before consuming the response.
pub type Epoch = u64;

/// Lease information attached to a response, in the coordinate system of
/// the protocol that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseInfo {
    /// G-TSC: a logical-time window `[wts, rts]`.
    Logical {
        /// Write timestamp of the data version supplied.
        wts: Timestamp,
        /// Last logical instant at which the version may be read.
        rts: Timestamp,
    },
    /// Temporal Coherence: an absolute physical expiry time.
    Physical {
        /// Cycle at which the lease expires (self-invalidation point).
        expires: Cycle,
    },
    /// No lease (plain caches / no-L1 baseline).
    None,
}

/// Read or renewal request (`BusRd`), L1 → L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReq {
    /// Requested block.
    pub block: BlockAddr,
    /// `wts` of the copy the L1 already holds; [`Timestamp`] `0` when the
    /// tag check failed (no copy). Lets the L2 distinguish a renewal from
    /// a stale copy (Figure 4).
    pub wts: Timestamp,
    /// Timestamp of the requesting warp.
    pub warp_ts: Timestamp,
    /// Requester's epoch.
    pub epoch: Epoch,
    /// Causal-span identity of the sampled access that produced this
    /// request; [`SpanId::NONE`] on the unsampled fast path. Pure
    /// instrumentation metadata — contributes zero bytes to
    /// [`MsgSizes`] accounting (DESIGN.md §15).
    pub span: SpanId,
}

impl ReadReq {
    /// The request as a bank in `epoch` must read it (see
    /// [`L1ToL2::rebased`]): from an older epoch it also forgets the copy
    /// it holds, `wts` 0, so the answer is a full fill.
    #[must_use]
    pub fn rebased(self, epoch: Epoch) -> ReadReq {
        if self.epoch >= epoch {
            return self;
        }
        ReadReq {
            wts: Timestamp(0),
            warp_ts: Timestamp::INIT,
            epoch,
            ..self
        }
    }
}

/// Write request (`BusWr`), L1 → L2. L1 is write-through, so every store
/// reaches the L2 (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReq {
    /// Block being written.
    pub block: BlockAddr,
    /// Timestamp of the writing warp.
    pub warp_ts: Timestamp,
    /// The data version this store will publish.
    pub version: Version,
    /// Requester's epoch.
    pub epoch: Epoch,
    /// Causal-span identity ([`SpanId::NONE`] when unsampled); zero
    /// wire bytes.
    pub span: SpanId,
}

impl WriteReq {
    /// The request as a bank in `epoch` must read it (see
    /// [`L1ToL2::rebased`]).
    #[must_use]
    pub fn rebased(self, epoch: Epoch) -> WriteReq {
        if self.epoch >= epoch {
            return self;
        }
        WriteReq {
            warp_ts: Timestamp::INIT,
            epoch,
            ..self
        }
    }
}

/// Fill response (`BusFill`), L2 → L1: data plus its lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillResp {
    /// Filled block.
    pub block: BlockAddr,
    /// Lease granted for the data.
    pub lease: LeaseInfo,
    /// The data version supplied.
    pub version: Version,
    /// Producing bank's epoch (reset signal when it advances).
    pub epoch: Epoch,
    /// Echo of the request's causal span ([`SpanId::NONE`] when
    /// unsampled); zero wire bytes.
    pub span: SpanId,
}

/// Write acknowledgment (`BusWrAck`), L2 → L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAckResp {
    /// Block whose store completed.
    pub block: BlockAddr,
    /// Lease assigned to the newly written version (G-TSC) — or, for
    /// TC-Weak, [`LeaseInfo::Physical`] carrying the Global Write
    /// Completion Time.
    pub lease: LeaseInfo,
    /// The version that was committed.
    pub version: Version,
    /// Producing bank's epoch.
    pub epoch: Epoch,
    /// Echo of the request's causal span ([`SpanId::NONE`] when
    /// unsampled); zero wire bytes.
    pub span: SpanId,
}

/// Requests travelling the SM→L2 network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1ToL2 {
    /// Read or renewal request.
    Read(ReadReq),
    /// Write-through store.
    Write(WriteReq),
    /// Read-modify-write performed at the L2 (GPU atomics). Reuses the
    /// write-request fields; the response additionally returns the value
    /// the RMW observed.
    Atomic(WriteReq),
}

impl L1ToL2 {
    /// The request a store of `kind` sends: a `BusWr`, or for an atomic
    /// the read-modify-write the L2 performs.
    #[inline]
    #[must_use]
    pub fn store(kind: AccessKind, req: WriteReq) -> L1ToL2 {
        debug_assert_ne!(kind, AccessKind::Load, "a load sends a ReadReq");
        if kind == AccessKind::Atomic {
            L1ToL2::Atomic(req)
        } else {
            L1ToL2::Write(req)
        }
    }

    /// Block the request addresses (used for bank routing).
    #[must_use]
    pub fn block(&self) -> BlockAddr {
        match self {
            L1ToL2::Read(r) => r.block,
            L1ToL2::Write(w) | L1ToL2::Atomic(w) => w.block,
        }
    }

    /// Causal span carried by the request ([`SpanId::NONE`] when
    /// unsampled).
    #[must_use]
    pub fn span(&self) -> SpanId {
        match self {
            L1ToL2::Read(r) => r.span,
            L1ToL2::Write(w) | L1ToL2::Atomic(w) => w.span,
        }
    }

    /// The request as a bank in `epoch` must read it (Section V-D). The
    /// timestamps of a request from an older epoch are in coordinates
    /// the reset discarded, so it degrades to a fresh-warp request of
    /// `epoch` — `warp_ts` [`Timestamp::INIT`], and for a read `wts` 0 —
    /// which the bank answers with a full fill. A request of `epoch`
    /// itself is untouched.
    #[must_use]
    pub fn rebased(self, epoch: Epoch) -> L1ToL2 {
        match self {
            L1ToL2::Read(r) => L1ToL2::Read(r.rebased(epoch)),
            L1ToL2::Write(w) => L1ToL2::Write(w.rebased(epoch)),
            L1ToL2::Atomic(w) => L1ToL2::Atomic(w.rebased(epoch)),
        }
    }
}

/// Responses travelling the L2→SM network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2ToL1 {
    /// Data fill.
    Fill(FillResp),
    /// Renewal: extends the lease of a copy the L1 already holds —
    /// crucially, carries **no data** (the G-TSC traffic saving of
    /// Section VI-C).
    Renew {
        /// Renewed block.
        block: BlockAddr,
        /// New lease for the existing copy.
        lease: LeaseInfo,
        /// Producing bank's epoch.
        epoch: Epoch,
        /// Echo of the request's causal span; zero wire bytes.
        span: SpanId,
    },
    /// Store acknowledgment.
    WriteAck(WriteAckResp),
    /// Atomic completion: the store acknowledgment plus the version the
    /// read half observed.
    AtomicAck {
        /// The acknowledgment for the write half.
        ack: WriteAckResp,
        /// What the read half observed (the previous version).
        prev: Version,
    },
    /// Recall: invalidate any private copy of `block`. Never sent by
    /// baseline G-TSC (non-inclusive, Section V-C); used only by the
    /// inclusive-L2 ablation to model the recall traffic inclusion costs.
    Invalidate {
        /// Block to drop.
        block: BlockAddr,
        /// Producing bank's epoch.
        epoch: Epoch,
        /// Causal span, when a sampled request triggered the recall;
        /// zero wire bytes.
        span: SpanId,
    },
}

impl L2ToL1 {
    /// The acknowledgment of a store, or — if `atomic` — of an atomic
    /// whose read half observed `prev`.
    #[inline]
    #[must_use]
    pub fn store_ack(atomic: bool, ack: WriteAckResp, prev: Version) -> L2ToL1 {
        if atomic {
            L2ToL1::AtomicAck { ack, prev }
        } else {
            L2ToL1::WriteAck(ack)
        }
    }

    /// The store acknowledgment this response is, with what an atomic's
    /// read half observed (`None` for a plain store); `None` for every
    /// other response.
    #[inline]
    #[must_use]
    pub fn as_store_ack(&self) -> Option<(WriteAckResp, Option<Version>)> {
        match *self {
            L2ToL1::WriteAck(ack) => Some((ack, None)),
            L2ToL1::AtomicAck { ack, prev } => Some((ack, Some(prev))),
            _ => None,
        }
    }

    /// Block the response addresses.
    #[must_use]
    pub fn block(&self) -> BlockAddr {
        match self {
            L2ToL1::Fill(f) => f.block,
            L2ToL1::Renew { block, .. } => *block,
            L2ToL1::WriteAck(a) | L2ToL1::AtomicAck { ack: a, .. } => a.block,
            L2ToL1::Invalidate { block, .. } => *block,
        }
    }

    /// The epoch stamped on the response.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        match self {
            L2ToL1::Fill(f) => f.epoch,
            L2ToL1::Renew { epoch, .. } => *epoch,
            L2ToL1::WriteAck(a) | L2ToL1::AtomicAck { ack: a, .. } => a.epoch,
            L2ToL1::Invalidate { epoch, .. } => *epoch,
        }
    }

    /// Causal span echoed on the response ([`SpanId::NONE`] when
    /// unsampled).
    #[must_use]
    pub fn span(&self) -> SpanId {
        match self {
            L2ToL1::Fill(f) => f.span,
            L2ToL1::Renew { span, .. } => *span,
            L2ToL1::WriteAck(a) | L2ToL1::AtomicAck { ack: a, .. } => a.span,
            L2ToL1::Invalidate { span, .. } => *span,
        }
    }
}

/// On-wire size calculator for NoC traffic accounting.
///
/// # Examples
///
/// ```
/// use gtsc_protocol::msg::MsgSizes;
/// let s = MsgSizes::new(8, 16, 128);
/// assert_eq!(s.ts_bytes, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSizes {
    /// Header bytes on every packet (address, opcode, routing).
    pub header: usize,
    /// Bytes per timestamp field (`ts_bits / 8`, rounded up).
    pub ts_bytes: usize,
    /// Data block size in bytes.
    pub block_bytes: usize,
}

impl MsgSizes {
    /// Builds sizes from a timestamp width in bits and block size in bytes.
    #[must_use]
    pub fn new(header: usize, ts_bits: u32, block_bytes: usize) -> Self {
        MsgSizes {
            header,
            ts_bytes: (ts_bits as usize).div_ceil(8),
            block_bytes,
        }
    }

    fn lease_bytes(&self, lease: &LeaseInfo, fields: usize) -> usize {
        match lease {
            LeaseInfo::Logical { .. } | LeaseInfo::Physical { .. } => fields * self.ts_bytes,
            LeaseInfo::None => 0,
        }
    }

    /// Size of a request per Table I.
    #[must_use]
    pub fn request_bytes(&self, msg: &L1ToL2) -> usize {
        match msg {
            // BusRd: wts + warp_ts.
            L1ToL2::Read(_) => self.header + 2 * self.ts_bytes,
            // BusWr: warp_ts + data.
            L1ToL2::Write(_) => self.header + self.ts_bytes + self.block_bytes,
            // Atomic: warp_ts + a word-sized operand (16 B budget).
            L1ToL2::Atomic(_) => self.header + self.ts_bytes + 16,
        }
    }

    /// Size of a response per Table I.
    #[must_use]
    pub fn response_bytes(&self, msg: &L2ToL1) -> usize {
        match msg {
            // BusFill: rts + wts + data.
            L2ToL1::Fill(f) => self.header + self.lease_bytes(&f.lease, 2) + self.block_bytes,
            // BusRnw: rts only — no data.
            L2ToL1::Renew { lease, .. } => self.header + self.lease_bytes(lease, 1),
            // BusWrAck: rts + wts.
            L2ToL1::WriteAck(a) => self.header + self.lease_bytes(&a.lease, 2),
            // Atomic ack: rts + wts + the old word (16 B budget).
            L2ToL1::AtomicAck { ack, .. } => self.header + self.lease_bytes(&ack.lease, 2) + 16,
            // Recall: header only.
            L2ToL1::Invalidate { .. } => self.header,
        }
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

// Snapshot encodings (DESIGN.md §14): messages sit inside checkpointed
// queues (L1 out-queues, NoC in-flight sets, transport retransmit
// buffers), so the whole wire vocabulary must round-trip.
impl Snap for LeaseInfo {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            LeaseInfo::Logical { wts, rts } => {
                w.u8(0);
                wts.save(w);
                rts.save(w);
            }
            LeaseInfo::Physical { expires } => {
                w.u8(1);
                expires.save(w);
            }
            LeaseInfo::None => w.u8(2),
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(LeaseInfo::Logical {
                wts: Snap::load(r)?,
                rts: Snap::load(r)?,
            }),
            1 => Ok(LeaseInfo::Physical {
                expires: Snap::load(r)?,
            }),
            2 => Ok(LeaseInfo::None),
            other => Err(SnapshotError::Malformed {
                context: format!("LeaseInfo tag {other}"),
            }),
        }
    }
}

gtsc_types::snap_fields!(ReadReq {
    block,
    wts,
    warp_ts,
    epoch,
    span
});
gtsc_types::snap_fields!(WriteReq {
    block,
    warp_ts,
    version,
    epoch,
    span
});
gtsc_types::snap_fields!(FillResp {
    block,
    lease,
    version,
    epoch,
    span
});
gtsc_types::snap_fields!(WriteAckResp {
    block,
    lease,
    version,
    epoch,
    span
});

impl Snap for L1ToL2 {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            L1ToL2::Read(m) => {
                w.u8(0);
                m.save(w);
            }
            L1ToL2::Write(m) => {
                w.u8(1);
                m.save(w);
            }
            L1ToL2::Atomic(m) => {
                w.u8(2);
                m.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(L1ToL2::Read(Snap::load(r)?)),
            1 => Ok(L1ToL2::Write(Snap::load(r)?)),
            2 => Ok(L1ToL2::Atomic(Snap::load(r)?)),
            other => Err(SnapshotError::Malformed {
                context: format!("L1ToL2 tag {other}"),
            }),
        }
    }
}

impl Snap for L2ToL1 {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            L2ToL1::Fill(m) => {
                w.u8(0);
                m.save(w);
            }
            L2ToL1::Renew {
                block,
                lease,
                epoch,
                span,
            } => {
                w.u8(1);
                block.save(w);
                lease.save(w);
                epoch.save(w);
                span.save(w);
            }
            L2ToL1::WriteAck(m) => {
                w.u8(2);
                m.save(w);
            }
            L2ToL1::AtomicAck { ack, prev } => {
                w.u8(3);
                ack.save(w);
                prev.save(w);
            }
            L2ToL1::Invalidate { block, epoch, span } => {
                w.u8(4);
                block.save(w);
                epoch.save(w);
                span.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(L2ToL1::Fill(Snap::load(r)?)),
            1 => Ok(L2ToL1::Renew {
                block: Snap::load(r)?,
                lease: Snap::load(r)?,
                epoch: Snap::load(r)?,
                span: Snap::load(r)?,
            }),
            2 => Ok(L2ToL1::WriteAck(Snap::load(r)?)),
            3 => Ok(L2ToL1::AtomicAck {
                ack: Snap::load(r)?,
                prev: Snap::load(r)?,
            }),
            4 => Ok(L2ToL1::Invalidate {
                block: Snap::load(r)?,
                epoch: Snap::load(r)?,
                span: Snap::load(r)?,
            }),
            other => Err(SnapshotError::Malformed {
                context: format!("L2ToL1 tag {other}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes() -> MsgSizes {
        MsgSizes::new(8, 16, 128)
    }

    fn logical() -> LeaseInfo {
        LeaseInfo::Logical {
            wts: Timestamp(1),
            rts: Timestamp(11),
        }
    }

    /// Table I check: which fields each message carries (encoded as size).
    #[test]
    fn table1_message_fields() {
        let s = sizes();
        let rd = L1ToL2::Read(ReadReq {
            block: BlockAddr(1),
            wts: Timestamp(0),
            warp_ts: Timestamp(1),
            epoch: 0,
            span: SpanId::NONE,
        });
        assert_eq!(s.request_bytes(&rd), 8 + 2 + 2); // wts + warp_ts

        let wr = L1ToL2::Write(WriteReq {
            block: BlockAddr(1),
            warp_ts: Timestamp(1),
            version: Version(1),
            epoch: 0,
            span: SpanId::NONE,
        });
        assert_eq!(s.request_bytes(&wr), 8 + 2 + 128); // warp_ts + data

        let fill = L2ToL1::Fill(FillResp {
            block: BlockAddr(1),
            lease: logical(),
            version: Version(1),
            epoch: 0,
            span: SpanId::NONE,
        });
        assert_eq!(s.response_bytes(&fill), 8 + 4 + 128); // rts + wts + data

        let rnw = L2ToL1::Renew {
            block: BlockAddr(1),
            lease: logical(),
            epoch: 0,
            span: SpanId::NONE,
        };
        assert_eq!(s.response_bytes(&rnw), 8 + 2); // rts only, NO data

        let ack = L2ToL1::WriteAck(WriteAckResp {
            block: BlockAddr(1),
            lease: logical(),
            version: Version(1),
            epoch: 0,
            span: SpanId::NONE,
        });
        assert_eq!(s.response_bytes(&ack), 8 + 4); // rts + wts
    }

    #[test]
    fn renewal_is_much_smaller_than_fill() {
        let s = sizes();
        let rnw = L2ToL1::Renew {
            block: BlockAddr(1),
            lease: logical(),
            epoch: 0,
            span: SpanId::NONE,
        };
        let fill = L2ToL1::Fill(FillResp {
            block: BlockAddr(1),
            lease: logical(),
            version: Version(1),
            epoch: 0,
            span: SpanId::NONE,
        });
        assert!(s.response_bytes(&fill) > 10 * s.response_bytes(&rnw));
    }

    #[test]
    fn plain_protocol_messages_carry_no_timestamps() {
        let s = sizes();
        let fill = L2ToL1::Fill(FillResp {
            block: BlockAddr(1),
            lease: LeaseInfo::None,
            version: Version(1),
            epoch: 0,
            span: SpanId::NONE,
        });
        assert_eq!(s.response_bytes(&fill), 8 + 128);
    }

    #[test]
    fn block_and_epoch_accessors() {
        let rnw = L2ToL1::Renew {
            block: BlockAddr(9),
            lease: LeaseInfo::None,
            epoch: 3,
            span: SpanId::NONE,
        };
        assert_eq!(rnw.block(), BlockAddr(9));
        assert_eq!(rnw.epoch(), 3);
        let rd = L1ToL2::Read(ReadReq {
            block: BlockAddr(4),
            wts: Timestamp(0),
            warp_ts: Timestamp(1),
            epoch: 0,
            span: SpanId::NONE,
        });
        assert_eq!(rd.block(), BlockAddr(4));
    }

    /// Section V-D, per variant: an older epoch's timestamps are dropped
    /// and the request enters the bank's epoch; nothing else moves, and a
    /// request of the bank's own epoch is untouched.
    #[test]
    fn stale_epoch_requests_rebase_per_variant() {
        let r = ReadReq {
            block: BlockAddr(4),
            wts: Timestamp(7),
            warp_ts: Timestamp(9),
            epoch: 1,
            span: SpanId(3),
        };
        let w = WriteReq {
            block: BlockAddr(4),
            warp_ts: Timestamp(9),
            version: Version(5),
            epoch: 1,
            span: SpanId(3),
        };
        let fresh_r = ReadReq {
            wts: Timestamp(0),
            warp_ts: Timestamp::INIT,
            epoch: 2,
            ..r
        };
        let fresh_w = WriteReq {
            warp_ts: Timestamp::INIT,
            epoch: 2,
            ..w
        };
        assert_eq!(r.rebased(2), fresh_r);
        assert_eq!(L1ToL2::Read(r).rebased(2), L1ToL2::Read(fresh_r));
        assert_eq!(L1ToL2::Write(w).rebased(2), L1ToL2::Write(fresh_w));
        assert_eq!(L1ToL2::Atomic(w).rebased(2), L1ToL2::Atomic(fresh_w));
        for msg in [L1ToL2::Read(r), L1ToL2::Write(w), L1ToL2::Atomic(w)] {
            assert_eq!(msg.rebased(1), msg, "same epoch");
            assert_eq!(
                msg.rebased(0),
                msg,
                "a newer request is not the bank's to rewrite"
            );
        }
    }

    /// A store is framed by its kind; the framing is the only difference.
    #[test]
    fn stores_frame_per_kind() {
        let w = WriteReq {
            block: BlockAddr(4),
            warp_ts: Timestamp(9),
            version: Version(5),
            epoch: 1,
            span: SpanId(3),
        };
        assert_eq!(L1ToL2::store(AccessKind::Store, w), L1ToL2::Write(w));
        assert_eq!(L1ToL2::store(AccessKind::Atomic, w), L1ToL2::Atomic(w));
    }

    /// A store ack is built per variant and decodes back into the same
    /// `(ack, prev)`; no other response decodes as one.
    #[test]
    fn store_acks_build_and_decode_per_variant() {
        let ack = WriteAckResp {
            block: BlockAddr(4),
            lease: logical(),
            version: Version(5),
            epoch: 1,
            span: SpanId(3),
        };
        let write = L2ToL1::store_ack(false, ack, Version(2));
        let atomic = L2ToL1::store_ack(true, ack, Version(2));
        assert_eq!(write, L2ToL1::WriteAck(ack));
        assert_eq!(
            atomic,
            L2ToL1::AtomicAck {
                ack,
                prev: Version(2)
            }
        );
        assert_eq!(write.as_store_ack(), Some((ack, None)));
        assert_eq!(atomic.as_store_ack(), Some((ack, Some(Version(2)))));
        let others = [
            L2ToL1::Fill(FillResp {
                block: BlockAddr(4),
                lease: logical(),
                version: Version(5),
                epoch: 1,
                span: SpanId(3),
            }),
            L2ToL1::Renew {
                block: BlockAddr(4),
                lease: logical(),
                epoch: 1,
                span: SpanId(3),
            },
            L2ToL1::Invalidate {
                block: BlockAddr(4),
                epoch: 1,
                span: SpanId(3),
            },
        ];
        for other in others {
            assert_eq!(other.as_store_ack(), None, "{other:?}");
        }
    }

    #[test]
    fn ts_bytes_rounds_up() {
        assert_eq!(MsgSizes::new(8, 12, 128).ts_bytes, 2);
        assert_eq!(MsgSizes::new(8, 32, 128).ts_bytes, 4);
    }
}
