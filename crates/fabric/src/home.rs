//! The home-node directory: serialization point of inter-GPU coherence.
//!
//! The home node plays, over the fabric, the role `GtscL2` plays over
//! the on-die NoC: it owns the master `[wts, rts]` of every block,
//! assigns store timestamps (`store_wts`), extends read grants
//! (`extend_rts`), serves data-less renewals when a device already holds
//! the current version, and runs the Section V-D rollover reset. It is
//! memory-backed (every block is always "resident"), so there is no
//! eviction path and no DRAM below it — the home's image *is* the
//! authoritative multi-GPU memory image.
//!
//! Fault-tolerance specifics beyond `GtscL2`:
//!
//! * **Store replays re-ack.** The on-die bank drops a replayed store
//!   silently because the original ack is never lost, only delayed. Over
//!   the fabric the original ack *can* die — a device crash resets the
//!   home→device flows — and only the L1's end-to-end retry recovers
//!   the store. The home therefore remembers the acknowledgement it sent
//!   for each applied store and re-emits it verbatim when the retry
//!   arrives, keeping the write path idempotent without wedging the
//!   retrying L1. (The re-ack carries its original epoch: a stale-epoch
//!   write ack still certifies commit at the L1, it just installs no
//!   lease.)

use std::collections::VecDeque;

use gtsc_core::rules::{extend_rts, grant_rts, store_wts};
use gtsc_protocol::msg::{Epoch, FillResp, L1ToL2, L2ToL1, LeaseInfo, WriteAckResp};
use gtsc_trace::{EventKind, LeaseOp, Probe};
use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
use gtsc_types::{BlockAddr, CacheStats, Cycle, FxHashMap, Lease, Timestamp, Version};

/// Construction parameters for [`HomeNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeParams {
    /// Lease length of the inter-GPU grants handed to devices. Longer
    /// than the on-die L1 lease: a grant must amortize a fabric round
    /// trip and leave headroom for the device to nest L1 leases inside.
    pub lease: Lease,
    /// Hardware timestamp width; reaching `2^ts_bits` triggers the
    /// global rollover reset.
    pub ts_bits: u32,
    /// Directory access latency in cycles (on top of fabric latency).
    pub latency: u64,
}

impl Default for HomeParams {
    fn default() -> Self {
        HomeParams {
            lease: Lease(64),
            ts_bits: 48,
            latency: 20,
        }
    }
}

/// Master per-block coherence state at the home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HomeMeta {
    wts: Timestamp,
    rts: Timestamp,
    version: Version,
}

gtsc_types::snap_fields!(HomeMeta { wts, rts, version });

/// The acknowledgement recorded for an applied store, replayed verbatim
/// when the L1's end-to-end retry re-delivers the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AppliedStore {
    version: Version,
    wts: Timestamp,
    rts: Timestamp,
    /// What the read half of an atomic observed (meaningless for plain
    /// stores, never read for them).
    prev: Version,
    epoch: Epoch,
}

gtsc_types::snap_fields!(AppliedStore {
    version,
    wts,
    rts,
    prev,
    epoch,
});

/// The home-node directory. Driven like an `L2Controller` but over
/// device ports instead of SM ports; see the crate docs for the protocol
/// it implements.
#[derive(Debug)]
pub struct HomeNode {
    p: HomeParams,
    /// Master lease state. Hashed like all simulation state (DESIGN.md
    /// §15.4): a snapshot writes it sorted, `memory_image` sorts, and the
    /// reset's walk is order-free.
    blocks: FxHashMap<BlockAddr, HomeMeta>,
    epoch: Epoch,
    overflow: bool,
    /// Store-replay filter (see module docs): recent acks per block.
    applied: FxHashMap<BlockAddr, VecDeque<AppliedStore>>,
    /// Requests become serviceable `latency` cycles after arrival.
    in_queue: VecDeque<(Cycle, usize, L1ToL2)>,
    out: VecDeque<(usize, L2ToL1)>,
    stats: CacheStats,
    probe: Probe,
}

impl HomeNode {
    /// Creates an empty directory.
    #[must_use]
    pub fn new(p: HomeParams) -> Self {
        HomeNode {
            p,
            blocks: FxHashMap::default(),
            epoch: 0,
            overflow: false,
            applied: FxHashMap::default(),
            in_queue: VecDeque::new(),
            out: VecDeque::new(),
            stats: CacheStats::default(),
            probe: Probe::disabled(),
        }
    }

    /// The home's current reset epoch.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Installs the directory's probe (scoped `Scope::Home`).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The installed probe (disabled by default).
    #[must_use]
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether no request is queued and no response is waiting.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_queue.is_empty() && self.out.is_empty()
    }

    /// Queued + waiting entries, for stall diagnosis.
    #[must_use]
    pub fn pressure(&self) -> (usize, usize) {
        (self.in_queue.len(), self.out.len())
    }

    /// Accepts a fabric request from device `dev`.
    pub fn on_request(&mut self, dev: usize, msg: L1ToL2, now: Cycle) {
        self.in_queue.push_back((now + self.p.latency, dev, msg));
    }

    /// Next fabric response to inject: `(device, msg)`.
    pub fn take_response(&mut self) -> Option<(usize, L2ToL1)> {
        self.out.pop_front()
    }

    /// The earliest cycle at which [`HomeNode::tick`] could serve
    /// anything, provided no request arrives first: the `ready` of the
    /// queue's head (the directory never stalls); a response waiting to
    /// be taken is due now. May be early, never late.
    #[must_use]
    pub fn next_event_at(&self) -> Cycle {
        if !self.out.is_empty() {
            return Cycle(0);
        }
        (self.in_queue.front()).map_or(Cycle(u64::MAX), |&(ready, ..)| ready)
    }

    /// Serves every request whose latency has elapsed.
    pub fn tick(&mut self, now: Cycle) {
        while let Some((ready, _, _)) = self.in_queue.front() {
            if *ready > now {
                break;
            }
            let (_, dev, msg) = self.in_queue.pop_front().expect("front exists");
            self.serve(dev, msg, now);
        }
    }

    /// Whether the directory wants the global Section V-D reset.
    #[must_use]
    pub fn needs_reset(&self) -> bool {
        self.overflow
    }

    /// Performs the Section V-D timestamp reset, entering `epoch` at cycle
    /// `now`: every grant rebases to `[INIT, lease]`, versions (the data)
    /// survive.
    pub fn apply_reset(&mut self, epoch: Epoch, now: Cycle) {
        let lease = self.p.lease;
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "every grant is rebased alike, in any order"
        )]
        for meta in self.blocks.values_mut() {
            meta.wts = Timestamp::INIT;
            meta.rts = Timestamp(lease.0);
        }
        self.epoch = epoch;
        self.overflow = false;
        self.stats.ts_rollovers += 1;
        self.probe.emit(now, || EventKind::Rollover { epoch });
    }

    /// The authoritative multi-GPU memory image, sorted by block.
    #[must_use]
    pub fn memory_image(&self) -> Vec<(BlockAddr, Version)> {
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted below, before anything reads it"
        )]
        let mut image: Vec<(BlockAddr, Version)> =
            self.blocks.iter().map(|(b, m)| (*b, m.version)).collect();
        image.sort_unstable_by_key(|&(block, _)| block);
        image
    }

    fn note_ts(&mut self, ts: Timestamp) {
        if ts.overflows(self.p.ts_bits) {
            self.overflow = true;
        }
    }

    /// The replay filter: if a store of this version was already applied
    /// to `block`, returns its recorded ack for re-emission; otherwise
    /// records `store`, the ack about to be applied. Bounded far deeper
    /// than any retry lag. (A function of the filter alone, so `serve`
    /// can hold the block's entry across it.)
    fn replay_or_record(
        applied: &mut FxHashMap<BlockAddr, VecDeque<AppliedStore>>,
        block: BlockAddr,
        store: AppliedStore,
    ) -> Option<AppliedStore> {
        const HISTORY: usize = 64;
        let seen = applied.entry(block).or_default();
        if let Some(prior) = seen.iter().find(|a| a.version == store.version) {
            return Some(*prior);
        }
        if seen.len() == HISTORY {
            seen.pop_front();
        }
        seen.push_back(store);
        None
    }

    fn serve(&mut self, dev: usize, msg: L1ToL2, now: Cycle) {
        // Section V-D: a stale-epoch request is answered as a fresh one.
        let msg = msg.rebased(self.epoch);
        let block = msg.block();
        self.stats.accesses += 1;
        let (lease, epoch) = (self.p.lease, self.epoch);
        // Memory-backed: an untouched block materializes with the
        // fresh-from-memory grant `[INIT, INIT + lease]`. The one probe of
        // `blocks` per request.
        let meta = self.blocks.entry(block).or_insert(HomeMeta {
            wts: Timestamp::INIT,
            rts: grant_rts(Timestamp::INIT, lease),
            version: Version::ZERO,
        });
        match msg {
            L1ToL2::Read(r) => {
                meta.rts = extend_rts(meta.rts, r.warp_ts, lease);
                let HomeMeta {
                    wts: grant_wts,
                    rts: new_rts,
                    version,
                } = *meta;
                self.note_ts(new_rts);
                let resp = if r.wts == grant_wts {
                    // The device already holds this version: extend the
                    // grant data-lessly (the Section VI-C saving, now
                    // worth a whole fabric data transfer).
                    self.stats.renewals += 1;
                    self.probe.emit(now, || EventKind::Lease {
                        op: LeaseOp::Renew,
                        block,
                        wts: grant_wts.0,
                        rts: new_rts.0,
                        epoch,
                    });
                    L2ToL1::Renew {
                        block,
                        lease: LeaseInfo::Logical {
                            wts: r.wts,
                            rts: new_rts,
                        },
                        epoch,
                        span: r.span,
                    }
                } else {
                    self.stats.hits += 1;
                    self.probe.emit(now, || EventKind::Lease {
                        op: LeaseOp::Grant,
                        block,
                        wts: grant_wts.0,
                        rts: new_rts.0,
                        epoch,
                    });
                    L2ToL1::Fill(FillResp {
                        block,
                        lease: LeaseInfo::Logical {
                            wts: grant_wts,
                            rts: new_rts,
                        },
                        version,
                        epoch,
                        span: r.span,
                    })
                };
                self.out.push_back((dev, resp));
            }
            L1ToL2::Write(w) | L1ToL2::Atomic(w) => {
                let atomic = matches!(msg, L1ToL2::Atomic(_));
                // Figure 5 over the fabric: the store is scheduled after
                // every outstanding inter-GPU grant; writes never stall.
                let prev = meta.version;
                let wts = store_wts(meta.rts, w.warp_ts);
                let rts = grant_rts(wts, lease);
                let store = AppliedStore {
                    version: w.version,
                    wts,
                    rts,
                    prev,
                    epoch,
                };
                if let Some(prior) = Self::replay_or_record(&mut self.applied, block, store) {
                    // A retried store the home already applied: re-emit
                    // the original acknowledgement (see module docs).
                    self.stats.replayed_stores += 1;
                    self.probe.emit(now, || EventKind::ReplayDrop { block });
                    let ack = WriteAckResp {
                        block,
                        lease: LeaseInfo::Logical {
                            wts: prior.wts,
                            rts: prior.rts,
                        },
                        version: prior.version,
                        epoch: prior.epoch,
                        span: w.span,
                    };
                    let resp = L2ToL1::store_ack(atomic, ack, prior.prev);
                    self.out.push_back((dev, resp));
                    return;
                }
                *meta = HomeMeta {
                    wts,
                    rts,
                    version: w.version,
                };
                self.stats.stores += 1;
                self.note_ts(rts);
                self.probe.emit(now, || EventKind::Lease {
                    op: LeaseOp::Commit,
                    block,
                    wts: wts.0,
                    rts: rts.0,
                    epoch,
                });
                let ack = WriteAckResp {
                    block,
                    lease: LeaseInfo::Logical { wts, rts },
                    version: w.version,
                    epoch,
                    span: w.span,
                };
                let resp = L2ToL1::store_ack(atomic, ack, prev);
                self.out.push_back((dev, resp));
            }
        }
    }

    /// Serializes the directory's dynamic state (DESIGN.md §14).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.blocks.save(w);
        self.epoch.save(w);
        self.overflow.save(w);
        self.applied.save(w);
        self.in_queue.save(w);
        self.out.save(w);
        self.stats.save(w);
    }

    /// Restores state saved by [`HomeNode::save_state`].
    ///
    /// # Errors
    ///
    /// Any decoding error on corrupt input.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.blocks = Snap::load(r)?;
        self.epoch = Snap::load(r)?;
        self.overflow = Snap::load(r)?;
        self.applied = Snap::load(r)?;
        self.in_queue = Snap::load(r)?;
        self.out = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_protocol::msg::{ReadReq, WriteReq};
    use gtsc_types::SpanId;

    fn read(block: u64, wts: u64, warp_ts: u64) -> L1ToL2 {
        L1ToL2::Read(ReadReq {
            block: BlockAddr(block),
            wts: Timestamp(wts),
            warp_ts: Timestamp(warp_ts),
            epoch: 0,
            span: SpanId::NONE,
        })
    }

    fn write(block: u64, warp_ts: u64, version: u64) -> L1ToL2 {
        L1ToL2::Write(WriteReq {
            block: BlockAddr(block),
            warp_ts: Timestamp(warp_ts),
            version: Version(version),
            epoch: 0,
            span: SpanId::NONE,
        })
    }

    fn settle(home: &mut HomeNode, start: Cycle) -> Vec<(usize, L2ToL1)> {
        let mut out = Vec::new();
        for c in start.0..start.0 + 1000 {
            home.tick(Cycle(c));
            while let Some(r) = home.take_response() {
                out.push(r);
            }
            if home.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn cold_read_gets_memory_grant() {
        let mut home = HomeNode::new(HomeParams::default());
        home.on_request(2, read(5, 0, 1), Cycle(0));
        let resps = settle(&mut home, Cycle(0));
        assert_eq!(resps.len(), 1);
        let (dev, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("expected fill")
        };
        assert_eq!(*dev, 2);
        assert_eq!(f.version, Version::ZERO);
        // [INIT, INIT + 64], extended for warp_ts 1 (no-op here).
        assert_eq!(
            f.lease,
            LeaseInfo::Logical {
                wts: Timestamp(1),
                rts: Timestamp(65)
            }
        );
    }

    #[test]
    fn matching_wts_renews_without_data() {
        let mut home = HomeNode::new(HomeParams::default());
        home.on_request(0, read(5, 0, 1), Cycle(0));
        settle(&mut home, Cycle(0));
        home.on_request(0, read(5, 1, 200), Cycle(100));
        let resps = settle(&mut home, Cycle(100));
        let (_, L2ToL1::Renew { lease, .. }) = &resps[0] else {
            panic!("expected renewal")
        };
        assert_eq!(
            *lease,
            LeaseInfo::Logical {
                wts: Timestamp(1),
                rts: Timestamp(264)
            }
        );
        assert_eq!(home.stats().renewals, 1);
    }

    #[test]
    fn store_lands_after_outstanding_grant_and_image_updates() {
        let mut home = HomeNode::new(HomeParams::default());
        home.on_request(1, read(5, 0, 1), Cycle(0)); // grant rts = 65
        settle(&mut home, Cycle(0));
        home.on_request(0, write(5, 1, 42), Cycle(50));
        let resps = settle(&mut home, Cycle(50));
        let (_, L2ToL1::WriteAck(a)) = &resps[0] else {
            panic!("expected ack")
        };
        assert_eq!(
            a.lease,
            LeaseInfo::Logical {
                wts: Timestamp(66),
                rts: Timestamp(130)
            }
        );
        assert_eq!(home.memory_image(), vec![(BlockAddr(5), Version(42))]);
    }

    #[test]
    fn replayed_store_re_acks_the_original() {
        let mut home = HomeNode::new(HomeParams::default());
        home.on_request(0, write(5, 1, 42), Cycle(0));
        let first = settle(&mut home, Cycle(0));
        // Another device stores after; then the first store is retried.
        home.on_request(1, write(5, 1, 43), Cycle(100));
        settle(&mut home, Cycle(100));
        home.on_request(0, write(5, 1, 42), Cycle(200));
        let resps = settle(&mut home, Cycle(200));
        let (_, L2ToL1::WriteAck(a)) = &resps[0] else {
            panic!("expected re-ack")
        };
        let (_, L2ToL1::WriteAck(orig)) = &first[0] else {
            panic!("expected original ack")
        };
        assert_eq!(a, orig, "re-ack is the original ack, verbatim");
        // The replay was NOT re-applied: the image still holds v43.
        assert_eq!(home.memory_image(), vec![(BlockAddr(5), Version(43))]);
        assert_eq!(home.stats().replayed_stores, 1);
    }

    #[test]
    fn atomic_re_ack_preserves_observed_prev() {
        let mut home = HomeNode::new(HomeParams::default());
        let atomic = |v: u64| {
            L1ToL2::Atomic(WriteReq {
                block: BlockAddr(9),
                warp_ts: Timestamp(1),
                version: Version(v),
                epoch: 0,
                span: SpanId::NONE,
            })
        };
        home.on_request(0, atomic(10), Cycle(0));
        home.on_request(1, atomic(11), Cycle(0));
        settle(&mut home, Cycle(0));
        // Retry of the first atomic must observe the ORIGINAL prev
        // (ZERO), not the current version.
        home.on_request(0, atomic(10), Cycle(500));
        let resps = settle(&mut home, Cycle(500));
        let (_, L2ToL1::AtomicAck { ack, prev }) = &resps[0] else {
            panic!("expected atomic re-ack")
        };
        assert_eq!(*prev, Version::ZERO);
        assert_eq!(ack.version, Version(10));
    }

    #[test]
    fn rollover_resets_grants_and_stale_requests_degrade() {
        let mut home = HomeNode::new(HomeParams {
            ts_bits: 8, // cap 256
            ..HomeParams::default()
        });
        home.on_request(0, read(5, 0, 1), Cycle(0));
        settle(&mut home, Cycle(0));
        assert!(!home.needs_reset());
        home.on_request(0, read(5, 1, 250), Cycle(50)); // rts -> 314 > 255
        settle(&mut home, Cycle(50));
        assert!(home.needs_reset());
        home.apply_reset(1, Cycle(90));
        assert_eq!(home.epoch(), 1);
        assert!(!home.needs_reset());
        // Stale-epoch renewal degrades to a fresh fill in epoch 1.
        home.on_request(0, read(5, 1, 250), Cycle(100));
        let resps = settle(&mut home, Cycle(100));
        let (_, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("stale request must fill")
        };
        assert_eq!(f.epoch, 1);
        assert_eq!(
            f.lease,
            LeaseInfo::Logical {
                wts: Timestamp(1),
                rts: Timestamp(65)
            }
        );
    }

    #[test]
    fn latency_delays_service_and_snapshot_round_trips() {
        let mut home = HomeNode::new(HomeParams {
            latency: 10,
            ..HomeParams::default()
        });
        home.on_request(0, read(5, 0, 1), Cycle(0));
        home.tick(Cycle(5));
        assert!(home.take_response().is_none());
        assert!(!home.is_idle());
        // Snapshot mid-flight, restore, and both copies serve alike.
        let mut w = SnapWriter::new();
        home.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut copy = HomeNode::new(HomeParams {
            latency: 10,
            ..HomeParams::default()
        });
        let mut r = SnapReader::new(&bytes);
        copy.load_state(&mut r).expect("restore");
        r.expect_end("home snapshot").expect("fully consumed");
        let a = settle(&mut home, Cycle(10));
        let b = settle(&mut copy, Cycle(10));
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn sanitizer_sees_home_grants_and_stores() {
        use gtsc_trace::{Sanitizer, Scope, SpanTracker};
        let root = Sanitizer::enabled(Scope::Sm(0));
        let mut home = HomeNode::new(HomeParams::default());
        let (off, spans) = (gtsc_types::TraceConfig::default(), SpanTracker::disabled());
        home.set_probe(Probe::new(Scope::Home(0), &off, &root, &spans));
        home.on_request(0, read(5, 0, 1), Cycle(0));
        home.on_request(1, write(5, 1, 7), Cycle(10));
        settle(&mut home, Cycle(0));
        assert!(root.violations().is_empty(), "{:?}", root.violations());
        assert!(root.checked() >= 2);
    }
}
