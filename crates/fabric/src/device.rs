//! The per-device L2: serves local L1s out of delegated inter-GPU grants.
//!
//! A [`DeviceL2`] holds, per block, the grant `[Gwts, Grts]` it received
//! from the home node, and serves its local L1s *on its own authority*
//! as long as the requesting warp's timestamp is covered (`warp_ts ≤
//! Grts`). The lease it hands the L1 is clamped by `nest_rts` so it can
//! never escape the grant — the `L2-lease ⊆ device-grant` invariant the
//! sanitizer and race oracle check. A warp past the grant forces a
//! fabric round trip that extends the grant (a data-less `Renew` when
//! the device already holds the current version).
//!
//! Stores are write-through to the home: the device keeps no dirty
//! state, so a whole-device crash loses nothing that was acknowledged.
//! Crash recovery reuses the Section V-D machinery — the crash wipes
//! every installed grant and in-flight transaction, then forces the
//! global epoch bump (exactly like `GtscL2::crash`); the device rejoins
//! empty and re-acquires grants on demand.

use std::collections::VecDeque;

use gtsc_core::rules::{extend_rts, lease_covers, merge_rts, nest_rts};
use gtsc_core::ProtocolMutation;
use gtsc_protocol::msg::{Epoch, FillResp, L1ToL2, L2ToL1, LeaseInfo, ReadReq};
use gtsc_protocol::{ControllerPressure, L2Controller};
use gtsc_trace::{CloseReason, EventKind, LeaseOp, Probe};
use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
use gtsc_types::{BlockAddr, CacheStats, Cycle, FxHashMap, Lease, SpanId, Timestamp, Version};

/// Construction parameters for [`DeviceL2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceParams {
    /// Lease length handed to local L1s (nested inside the grant; the
    /// grant lease itself is the home's, longer).
    pub lease: Lease,
    /// Bank access latency in cycles.
    pub latency: u64,
    /// Requests processed per cycle.
    pub ports: usize,
}

impl Default for DeviceParams {
    fn default() -> Self {
        DeviceParams {
            lease: Lease::default(),
            latency: 10,
            ports: 1,
        }
    }
}

/// One installed inter-GPU grant plus the local serve high-water.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DevMeta {
    /// Write timestamp of the granted version.
    wts: Timestamp,
    /// Grant upper bound: no L1 lease may reach past this.
    rts: Timestamp,
    /// Highest `rts` served to a local L1 so far (starts at `wts`).
    served_rts: Timestamp,
    /// Version of the granted data.
    version: Version,
}

gtsc_types::snap_fields!(DevMeta {
    wts,
    rts,
    served_rts,
    version,
});

impl DevMeta {
    /// Serves a read this grant covers: nests the L1 lease for `warp_ts`
    /// inside the grant, raises the serve high-water to it, and returns
    /// `(wts, rts, version)` for the response.
    fn serve(
        &mut self,
        warp_ts: Timestamp,
        lease: Lease,
        mutation: ProtocolMutation,
    ) -> (Timestamp, Timestamp, Version) {
        self.served_rts = if mutation == ProtocolMutation::ServePastGrantRts {
            // Mutant: drop the nest_rts clamp — the lease may escape the
            // grant, the bug the `L2-lease ⊆ device-grant` checkers catch.
            extend_rts(self.served_rts, warp_ts, lease)
        } else {
            nest_rts(self.served_rts, warp_ts, lease, self.rts)
        };
        (self.wts, self.served_rts, self.version)
    }
}

/// The device-side L2 of one GPU in a multi-GPU system. Driven by the
/// simulator like an `L2Controller` toward its local L1s, plus a fabric
/// side: [`DeviceL2::take_fabric_request`] drains requests toward the
/// home node and [`DeviceL2::on_fabric_response`] delivers its answers.
#[derive(Debug)]
pub struct DeviceL2 {
    p: DeviceParams,
    /// Installed grants (the device's only coherence state). Hashed like
    /// all simulation state (DESIGN.md §15.4): a snapshot writes the three
    /// maps sorted, and every walk over them is an order-free fold or
    /// sorts before anything reads it.
    tags: FxHashMap<BlockAddr, DevMeta>,
    epoch: Epoch,
    needs_reset: bool,
    /// L1 requests become serviceable `latency` cycles after arrival.
    in_queue: VecDeque<(Cycle, usize, L1ToL2)>,
    /// Requests waiting to cross the fabric.
    fabric_out: VecDeque<L1ToL2>,
    /// Responses waiting to return to local L1s.
    out_resp: VecDeque<(usize, L2ToL1)>,
    /// Reads parked until a grant covering them is installed.
    read_waiters: FxHashMap<BlockAddr, Vec<(usize, ReadReq)>>,
    /// Stores forwarded to the home, keyed by their globally-unique
    /// version: `(local SM, span)`.
    write_waiters: FxHashMap<Version, (usize, SpanId)>,
    stats: CacheStats,
    probe: Probe,
    mutation: ProtocolMutation,
}

impl DeviceL2 {
    /// Creates an empty device L2 (no grants installed).
    #[must_use]
    pub fn new(p: DeviceParams) -> Self {
        DeviceL2 {
            p,
            tags: FxHashMap::default(),
            epoch: 0,
            needs_reset: false,
            in_queue: VecDeque::new(),
            fabric_out: VecDeque::new(),
            out_resp: VecDeque::new(),
            read_waiters: FxHashMap::default(),
            write_waiters: FxHashMap::default(),
            stats: CacheStats::default(),
            probe: Probe::disabled(),
            mutation: ProtocolMutation::None,
        }
    }

    /// Arms a seeded protocol mutant (oracle validation only).
    #[doc(hidden)]
    pub fn set_mutation(&mut self, mutation: ProtocolMutation) {
        self.mutation = mutation;
    }

    /// The device's current reset epoch.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The installed grant for `block`, as `(wts, rts)` — test/diagnosis
    /// accessor.
    #[must_use]
    pub fn installed_grant(&self, block: BlockAddr) -> Option<(Timestamp, Timestamp)> {
        self.tags.get(&block).map(|m| (m.wts, m.rts))
    }

    /// Device-scoped stall attribution for the watchdog's diagnosis:
    /// `(expired_grant_waits, cold_grant_waits, stores_awaiting_home)`.
    /// A parked read whose block still has an installed grant is stalled
    /// *because the inter-GPU grant expired* (the warp outran it) — a
    /// different failure mode than a cold first acquisition.
    #[must_use]
    pub fn stall_attribution(&self) -> (usize, usize, usize) {
        let (mut expired, mut cold) = (0usize, 0usize);
        #[expect(
            clippy::iter_over_hash_type,
            reason = "two counts do not depend on the order"
        )]
        for (block, parked) in &self.read_waiters {
            if self.tags.contains_key(block) {
                expired += parked.len();
            } else {
                cold += parked.len();
            }
        }
        (expired, cold, self.write_waiters.len())
    }

    /// Blocks whose parked readers outran a still-installed grant, as
    /// `(block, grant rts)` in block order — named in the stall diagnosis
    /// so an expired inter-GPU grant is reported as such, not as a generic
    /// MSHR stall.
    #[must_use]
    pub fn expired_grant_blocks(&self) -> Vec<(BlockAddr, u64)> {
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted below, before anything reads it"
        )]
        let mut blocks: Vec<(BlockAddr, u64)> = self
            .read_waiters
            .iter()
            .filter(|(_, parked)| !parked.is_empty())
            .filter_map(|(block, _)| self.tags.get(block).map(|m| (*block, m.rts.0)))
            .collect();
        blocks.sort_unstable_by_key(|&(block, _)| block);
        blocks
    }

    /// Next request to inject into the fabric toward the home node.
    pub fn take_fabric_request(&mut self) -> Option<L1ToL2> {
        self.fabric_out.pop_front()
    }

    /// Installs a grant received from the home and reports it to the
    /// sanitizer.
    fn install_grant(
        &mut self,
        block: BlockAddr,
        wts: Timestamp,
        rts: Timestamp,
        version: Version,
        now: Cycle,
    ) {
        let meta = DevMeta {
            wts,
            rts,
            served_rts: wts,
            version,
        };
        let m = self.tags.entry(block).or_insert(meta);
        // Same version: pure grant extension, keep the serve high-water.
        if m.wts == wts {
            m.rts = merge_rts(m.rts, rts);
        } else {
            *m = meta;
        }
        let epoch = self.epoch;
        self.probe.emit(now, || EventKind::Lease {
            op: LeaseOp::Install,
            block,
            wts: wts.0,
            rts: rts.0,
            epoch,
        });
    }

    /// Serves a read locally if the installed grant covers its warp (one
    /// probe of `tags`): the L1 lease is `nest_rts`-clamped inside the
    /// grant. False, and nothing done, if the read must wait for one.
    fn serve_if_covered(&mut self, src: usize, r: ReadReq, now: Cycle) -> bool {
        let (lease, mutation) = (self.p.lease, self.mutation);
        let covering = self.tags.get_mut(&r.block);
        let Some(meta) = covering.filter(|m| lease_covers(m.rts, r.warp_ts)) else {
            return false;
        };
        let (wts, new_rts, version) = meta.serve(r.warp_ts, lease, mutation);
        let epoch = self.epoch;
        self.stats.hits += 1;
        let resp = if r.wts == wts {
            self.stats.renewals += 1;
            self.probe.emit(now, || EventKind::Lease {
                op: LeaseOp::Renew,
                block: r.block,
                wts: wts.0,
                rts: new_rts.0,
                epoch,
            });
            L2ToL1::Renew {
                block: r.block,
                lease: LeaseInfo::Logical { wts, rts: new_rts },
                epoch,
                span: r.span,
            }
        } else {
            self.probe.emit(now, || EventKind::Lease {
                op: LeaseOp::Grant,
                block: r.block,
                wts: wts.0,
                rts: new_rts.0,
                epoch,
            });
            L2ToL1::Fill(FillResp {
                block: r.block,
                lease: LeaseInfo::Logical { wts, rts: new_rts },
                version,
                epoch,
                span: r.span,
            })
        };
        self.out_resp.push_back((src, resp));
        true
    }

    /// Sends a read toward the home for `block`, renewing data-lessly
    /// when a (too-short) grant is already installed.
    fn forward_read(&mut self, block: BlockAddr, warp_ts: Timestamp, span: SpanId) {
        let wts = self.tags.get(&block).map_or(Timestamp(0), |m| m.wts);
        self.fabric_out.push_back(L1ToL2::Read(ReadReq {
            block,
            wts,
            warp_ts,
            epoch: self.epoch,
            span,
        }));
    }

    fn serve(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        self.stats.accesses += 1;
        match msg {
            L1ToL2::Read(r) => {
                if self.serve_if_covered(src, r, now) {
                    return;
                }
                if self.tags.contains_key(&r.block) {
                    self.stats.expired_misses += 1;
                } else {
                    self.stats.cold_misses += 1;
                    self.probe.emit(now, || EventKind::ColdMiss {
                        block: r.block,
                        warp: 0,
                    });
                }
                let parked = self.read_waiters.entry(r.block).or_default();
                let first = parked.is_empty();
                parked.push((src, r));
                if first {
                    self.forward_read(r.block, r.warp_ts, r.span);
                } else {
                    self.stats.mshr_merges += 1;
                }
            }
            L1ToL2::Write(w) | L1ToL2::Atomic(w) => {
                // Write-through: every store crosses the fabric; the
                // home serializes and assigns its timestamp.
                self.stats.stores += 1;
                self.write_waiters.insert(w.version, (src, w.span));
                self.fabric_out.push_back(msg);
            }
        }
    }

    /// Serves every parked read now covered by the installed grant; if
    /// any remain uncovered, sends one follow-up read extending the
    /// grant to the farthest waiter.
    fn drain_waiters(&mut self, block: BlockAddr, now: Cycle) {
        let Some(mut still) = self.read_waiters.remove(&block) else {
            return;
        };
        still.retain(|&(src, r)| !self.serve_if_covered(src, r, now));
        if let Some(&(_, far)) = still.iter().max_by_key(|(_, r)| r.warp_ts) {
            self.forward_read(block, far.warp_ts, far.span);
        }
        if !still.is_empty() {
            self.read_waiters.insert(block, still);
        }
    }

    /// Delivers a response that crossed the fabric from the home node.
    pub fn on_fabric_response(&mut self, msg: L2ToL1, now: Cycle) {
        let e = msg.epoch();
        if e > self.epoch {
            // The home is already in a newer epoch (the simulator's
            // global bump lands this cycle): adopt it — old grants are
            // in dead coordinates.
            self.apply_reset(e, now);
            // apply_reset counts a rollover the simulator also counts;
            // adoption is the same event seen from the fabric side.
            self.stats.ts_rollovers -= 1;
        }
        if e < self.epoch {
            match msg {
                // A stale write ack still certifies that the store
                // committed (the L1 has the same rule); it just installs
                // no lease in the new coordinate system.
                L2ToL1::WriteAck(a) | L2ToL1::AtomicAck { ack: a, .. } => {
                    if let Some((src, _)) = self.write_waiters.remove(&a.version) {
                        self.out_resp.push_back((src, msg));
                    }
                }
                // Stale grants are unusable; if readers still wait,
                // re-ask in the current epoch.
                L2ToL1::Fill(f) => self.refetch_if_waiting(f.block),
                L2ToL1::Renew { block, .. } => self.refetch_if_waiting(block),
                L2ToL1::Invalidate { .. } => {}
            }
            return;
        }
        match msg {
            L2ToL1::Fill(f) => {
                if let LeaseInfo::Logical { wts, rts } = f.lease {
                    self.install_grant(f.block, wts, rts, f.version, now);
                    self.drain_waiters(f.block, now);
                }
            }
            L2ToL1::Renew { block, lease, .. } => {
                match (self.tags.contains_key(&block), lease) {
                    (true, LeaseInfo::Logical { wts, rts }) => {
                        self.install_grant(block, wts, rts, Version::ZERO, now);
                        self.drain_waiters(block, now);
                    }
                    // Renewed a grant the device no longer holds (lost
                    // to a rollover in between): the data is gone, so a
                    // full refetch is needed.
                    _ => self.refetch_if_waiting(block),
                }
            }
            L2ToL1::WriteAck(a) | L2ToL1::AtomicAck { ack: a, .. } => {
                if let LeaseInfo::Logical { wts, rts } = a.lease {
                    // The ack carries the fresh grant for the version
                    // just written — install it so local readers of the
                    // store's result need no extra fabric trip.
                    self.install_grant(a.block, wts, rts, a.version, now);
                }
                if let Some((src, _)) = self.write_waiters.remove(&a.version) {
                    self.out_resp.push_back((src, msg));
                }
                self.drain_waiters(a.block, now);
            }
            L2ToL1::Invalidate { block, .. } => {
                self.tags.remove(&block);
            }
        }
    }

    fn refetch_if_waiting(&mut self, block: BlockAddr) {
        if let Some((_, far)) = self
            .read_waiters
            .get(&block)
            .and_then(|w| w.iter().max_by_key(|(_, r)| r.warp_ts))
        {
            let (warp_ts, span) = (far.warp_ts, far.span);
            self.forward_read(block, warp_ts, span);
        }
    }
}

/// The local-L1 side of a device L2 is an ordinary bank controller, so a
/// simulator's bank slot holds it like any other; it has no DRAM port —
/// its memory side is the fabric ([`DeviceL2::take_fabric_request`],
/// [`DeviceL2::on_fabric_response`]).
impl L2Controller for DeviceL2 {
    /// Installs the device's probe (scoped `Scope::Device`).
    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    fn probe(&self) -> Option<&Probe> {
        Some(&self.probe)
    }

    /// Counters accumulated so far.
    fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether no transaction is pending inside the device L2.
    #[expect(
        clippy::disallowed_methods,
        reason = "whether all are empty does not depend on the order"
    )]
    fn is_idle(&self) -> bool {
        self.in_queue.is_empty()
            && self.fabric_out.is_empty()
            && self.out_resp.is_empty()
            && self.read_waiters.values().all(Vec::is_empty)
            && self.write_waiters.is_empty()
    }

    /// Occupancy snapshot for stall diagnosis.
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum does not depend on the order"
    )]
    fn pressure(&self) -> ControllerPressure {
        ControllerPressure {
            mshr: self.read_waiters.values().map(Vec::len).sum::<usize>()
                + self.write_waiters.len(),
            out_queue: self.in_queue.len() + self.fabric_out.len(),
            waiting: self.out_resp.len(),
        }
    }

    /// Accepts a request from local SM `src`.
    fn on_request(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        self.in_queue.push_back((now + self.p.latency, src, msg));
    }

    /// Next response to inject into the local response network.
    fn take_response(&mut self) -> Option<(usize, L2ToL1)> {
        self.out_resp.pop_front()
    }

    fn take_dram_request(&mut self) -> Option<(BlockAddr, bool)> {
        None
    }

    fn on_dram_response(&mut self, _block: BlockAddr, _is_write: bool, _now: Cycle) {}

    /// The device never stalls head-of-line: the head of `in_queue` is
    /// served the cycle it becomes ready, and anything queued toward the
    /// L1s or the fabric is due now.
    fn next_event_at(&self) -> Cycle {
        if !self.out_resp.is_empty() || !self.fabric_out.is_empty() {
            return Cycle(0);
        }
        (self.in_queue.front()).map_or(Cycle(u64::MAX), |&(ready, ..)| ready)
    }

    /// Serves ready L1 requests (up to `ports` per cycle).
    fn tick(&mut self, now: Cycle) {
        for _ in 0..self.p.ports {
            match self.in_queue.front() {
                Some((ready, _, _)) if *ready <= now => {
                    let (_, src, msg) = self.in_queue.pop_front().expect("front exists");
                    self.serve(src, msg, now);
                }
                _ => break,
            }
        }
    }

    /// Whether the device wants the global Section V-D reset (set by
    /// `crash`; the simulator then bumps the global epoch).
    fn needs_reset(&self) -> bool {
        self.needs_reset
    }

    /// Enters `epoch`: every installed grant belongs to the old logical
    /// time coordinate system and is discarded (re-acquired on demand).
    /// Parked requests survive — their fabric round trips are answered
    /// in the new epoch — but their timestamps are in dead coordinates,
    /// so they degrade to fresh-warp requests (Section V-D,
    /// `ReadReq::rebased`). Without the degrade, a refetch would
    /// replay a near-overflow `warp_ts` at the *new* epoch, the home
    /// would overflow again, and the reset would livelock.
    fn apply_reset(&mut self, epoch: Epoch, now: Cycle) {
        self.tags.clear();
        self.epoch = epoch;
        self.needs_reset = false;
        self.stats.ts_rollovers += 1;
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "every parked read is rebased alike, in any order"
        )]
        for parked in self.read_waiters.values_mut() {
            for (_, r) in parked.iter_mut() {
                *r = r.rebased(epoch);
            }
        }
        self.probe.emit(now, || EventKind::Rollover { epoch });
    }

    /// Crashes the whole device: every grant, parked request, and queued
    /// message vanishes. Committed data is safe at the home (stores are
    /// write-through); in-flight L1 requests are recovered by the L1's
    /// end-to-end retry. Recovery rides the Section V-D machinery: the
    /// simulator sees `needs_reset` and bumps the global epoch, exactly
    /// as for an on-die bank crash.
    fn crash(&mut self, now: Cycle) -> bool {
        self.tags.clear();
        // Every in-flight transaction dies with the device: close their
        // sampled spans so no span leaks open across the reset. The order
        // is not observable: a close only stamps its own record, and every
        // close here carries the same cycle and reason.
        #[expect(
            clippy::disallowed_methods,
            reason = "order-free, see above (both maps)"
        )]
        let dead = (self.in_queue.drain(..).map(|(_, _, m)| m.span()))
            .chain(self.fabric_out.drain(..).map(|m| m.span()))
            .chain(self.out_resp.drain(..).map(|(_, m)| m.span()))
            .chain(self.read_waiters.values().flatten().map(|(_, r)| r.span))
            .chain(self.write_waiters.values().map(|&(_, span)| span));
        let probe = &self.probe;
        for span in dead {
            probe.spans(|s| s.close(span, CloseReason::BankReset, now));
        }
        self.read_waiters.clear();
        self.write_waiters.clear();
        let epoch = self.epoch;
        self.probe.emit(now, || EventKind::BankReset { epoch });
        self.needs_reset = true;
        true
    }

    /// Serializes the device's dynamic state (DESIGN.md §14).
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        self.tags.save(w);
        self.epoch.save(w);
        self.needs_reset.save(w);
        self.in_queue.save(w);
        self.fabric_out.save(w);
        self.out_resp.save(w);
        self.read_waiters.save(w);
        self.write_waiters.save(w);
        self.stats.save(w);
        Ok(())
    }

    /// Restores state saved by `save_state`; any decoding error on
    /// corrupt input.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.tags = Snap::load(r)?;
        self.epoch = Snap::load(r)?;
        self.needs_reset = Snap::load(r)?;
        self.in_queue = Snap::load(r)?;
        self.fabric_out = Snap::load(r)?;
        self.out_resp = Snap::load(r)?;
        self.read_waiters = Snap::load(r)?;
        self.write_waiters = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::{HomeNode, HomeParams};
    use gtsc_protocol::msg::WriteReq;
    use gtsc_trace::{Sanitizer, Scope, SpanRecord, SpanTracker};
    use gtsc_types::TraceConfig;

    /// A probe whose one sink is `root`'s rule machine.
    fn checked(root: &Sanitizer, scope: Scope) -> Probe {
        Probe::new(
            scope,
            &TraceConfig::default(),
            root,
            &SpanTracker::disabled(),
        )
    }

    /// A device probe whose one sink is `spans`.
    fn spanned(spans: &SpanTracker) -> Probe {
        let off = Sanitizer::disabled();
        Probe::new(Scope::Device(0), &TraceConfig::default(), &off, spans)
    }

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

    fn with_span(msg: L1ToL2, span: SpanId) -> L1ToL2 {
        match msg {
            L1ToL2::Read(r) => L1ToL2::Read(ReadReq { span, ..r }),
            L1ToL2::Write(w) => L1ToL2::Write(WriteReq { span, ..w }),
            L1ToL2::Atomic(w) => L1ToL2::Atomic(WriteReq { span, ..w }),
        }
    }

    /// A seeded Fisher–Yates shuffle (xorshift64): "any other order" for
    /// the order-independence tests.
    fn shuffled(mut v: Vec<u64>, seed: u64) -> Vec<u64> {
        let mut x = seed.max(1);
        for i in (1..v.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.swap(i, (x % (i as u64 + 1)) as usize);
        }
        v
    }

    /// Pumps device ↔ home with zero fabric latency until both idle.
    fn settle(dev: &mut DeviceL2, home: &mut HomeNode, start: Cycle) -> Vec<(usize, L2ToL1)> {
        let mut out = Vec::new();
        for c in start.0..start.0 + 2000 {
            dev.tick(Cycle(c));
            while let Some(req) = dev.take_fabric_request() {
                home.on_request(0, req, Cycle(c));
            }
            home.tick(Cycle(c));
            while let Some((_, resp)) = home.take_response() {
                dev.on_fabric_response(resp, Cycle(c));
            }
            while let Some(r) = dev.take_response() {
                out.push(r);
            }
            if dev.is_idle() && home.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn cold_read_acquires_grant_then_serves_locally() {
        let mut dev = DeviceL2::new(DeviceParams::default());
        let mut home = HomeNode::new(HomeParams::default());
        dev.on_request(0, read(5, 0, 1), Cycle(0));
        let resps = settle(&mut dev, &mut home, Cycle(0));
        assert_eq!(resps.len(), 1);
        let (_, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("expected fill")
        };
        // The L1 lease nests inside the installed grant.
        let (gwts, grts) = dev.installed_grant(BlockAddr(5)).expect("grant installed");
        let LeaseInfo::Logical { wts, rts } = f.lease else {
            panic!("logical lease")
        };
        assert_eq!(wts, gwts);
        assert!(rts <= grts, "lease rts {rts} escapes grant rts {grts}");
        assert_eq!(dev.stats().cold_misses, 1);
        // A second covered read is a pure local hit: no fabric traffic.
        let fabric_before = home.stats().accesses;
        dev.on_request(1, read(5, wts.0, 2), Cycle(500));
        let resps = settle(&mut dev, &mut home, Cycle(500));
        assert_eq!(resps.len(), 1);
        assert!(matches!(resps[0].1, L2ToL1::Renew { .. }));
        assert_eq!(home.stats().accesses, fabric_before, "served on-device");
    }

    #[test]
    fn warp_past_grant_forces_fabric_renewal() {
        let mut dev = DeviceL2::new(DeviceParams::default());
        let mut home = HomeNode::new(HomeParams::default());
        dev.on_request(0, read(5, 0, 1), Cycle(0));
        settle(&mut dev, &mut home, Cycle(0));
        let (_, grts) = dev.installed_grant(BlockAddr(5)).unwrap();
        // A warp beyond the grant cannot be served on-device.
        dev.on_request(0, read(5, 1, grts.0 + 10), Cycle(500));
        let resps = settle(&mut dev, &mut home, Cycle(500));
        assert_eq!(resps.len(), 1);
        let (_, new_grts) = dev.installed_grant(BlockAddr(5)).unwrap();
        assert!(new_grts > grts, "grant must have been extended");
        assert_eq!(dev.stats().expired_misses, 1);
        // The home renewed data-lessly (device already held the version).
        assert_eq!(home.stats().renewals, 1);
    }

    #[test]
    fn every_served_lease_nests_inside_live_grant() {
        // The tentpole invariant, end to end through the sanitizer.
        let root = Sanitizer::enabled(Scope::Sm(0));
        let mut dev = DeviceL2::new(DeviceParams::default());
        let mut home = HomeNode::new(HomeParams::default());
        dev.set_probe(checked(&root, Scope::Device(0)));
        home.set_probe(checked(&root, Scope::Home(0)));
        for i in 0..20u64 {
            dev.on_request(0, read(i % 3, 0, 1 + i * 7), Cycle(i * 100));
            if i % 4 == 3 {
                dev.on_request(1, write(i % 3, 1 + i * 7, 100 + i), Cycle(i * 100 + 50));
            }
        }
        settle(&mut dev, &mut home, Cycle(0));
        assert!(root.violations().is_empty(), "{:?}", root.violations());
        assert!(root.checked() > 20);
    }

    #[test]
    fn device_epochs_are_reported_to_the_sanitizer() {
        let root = Sanitizer::enabled(Scope::Sm(0));
        let mut dev = DeviceL2::new(DeviceParams::default());
        dev.set_probe(checked(&root, Scope::Device(0)));
        // Two banks of one device report under one scope, so entering
        // the same epoch twice is legal...
        dev.apply_reset(2, Cycle(0));
        dev.apply_reset(2, Cycle(0));
        assert!(root.violations().is_empty(), "{:?}", root.violations());
        // ...moving backwards is not.
        dev.apply_reset(1, Cycle(150));
        let f = root.report().findings;
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].scope), ("epoch-order", Scope::Device(0)));
    }

    #[test]
    fn serve_past_grant_mutant_is_flagged_by_sanitizer() {
        let root = Sanitizer::enabled(Scope::Sm(0));
        let mut dev = DeviceL2::new(DeviceParams {
            // L1 lease as long as the home grant: extend_rts overshoots
            // the grant edge immediately without the nest_rts clamp.
            lease: Lease(64),
            ..DeviceParams::default()
        });
        let mut home = HomeNode::new(HomeParams::default());
        dev.set_probe(checked(&root, Scope::Device(0)));
        home.set_probe(checked(&root, Scope::Home(0)));
        dev.set_mutation(ProtocolMutation::ServePastGrantRts);
        dev.on_request(0, read(5, 0, 30), Cycle(0));
        settle(&mut dev, &mut home, Cycle(0));
        // A covered warp near the grant edge: the unclamped extend_rts
        // hands the L1 a lease reaching past the grant.
        let (_, grts) = dev.installed_grant(BlockAddr(5)).unwrap();
        dev.on_request(1, read(5, 1, grts.0 - 1), Cycle(500));
        settle(&mut dev, &mut home, Cycle(500));
        let v = root.violations();
        assert!(
            v.iter().any(|m| m.contains("serve-outside-device-grant")),
            "mutant must be caught: {v:?}"
        );
    }

    #[test]
    fn store_writes_through_and_ack_installs_grant() {
        let mut dev = DeviceL2::new(DeviceParams::default());
        let mut home = HomeNode::new(HomeParams::default());
        dev.on_request(0, write(5, 1, 42), Cycle(0));
        let resps = settle(&mut dev, &mut home, Cycle(0));
        assert_eq!(resps.len(), 1);
        let (_, L2ToL1::WriteAck(a)) = &resps[0] else {
            panic!("expected ack")
        };
        assert_eq!(a.version, Version(42));
        // Home is authoritative immediately.
        assert_eq!(home.memory_image(), vec![(BlockAddr(5), Version(42))]);
        // The ack installed the fresh grant: a local read of the stored
        // version needs no fabric trip.
        let before = home.stats().accesses;
        dev.on_request(0, read(5, 0, 2), Cycle(500));
        let resps = settle(&mut dev, &mut home, Cycle(500));
        let (_, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("expected fill")
        };
        assert_eq!(f.version, Version(42));
        assert_eq!(home.stats().accesses, before, "served from the grant");
    }

    #[test]
    fn crash_wipes_grants_and_rejoin_reacquires() {
        let root = Sanitizer::enabled(Scope::Sm(0));
        let mut dev = DeviceL2::new(DeviceParams::default());
        let mut home = HomeNode::new(HomeParams::default());
        dev.set_probe(checked(&root, Scope::Device(0)));
        home.set_probe(checked(&root, Scope::Home(0)));
        dev.on_request(0, write(5, 1, 42), Cycle(0));
        settle(&mut dev, &mut home, Cycle(0));
        dev.crash(Cycle(100));
        assert!(dev.needs_reset(), "crash must force the global bump");
        assert!(dev.is_idle(), "no transaction survives the crash");
        assert!(dev.installed_grant(BlockAddr(5)).is_none());
        // The simulator bumps the global epoch on home and all devices.
        home.apply_reset(1, Cycle(150));
        dev.apply_reset(1, Cycle(150));
        // Rejoin: the committed store survives at the home.
        dev.on_request(0, read(5, 0, 1), Cycle(200));
        let resps = settle(&mut dev, &mut home, Cycle(200));
        let (_, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("expected fill")
        };
        assert_eq!(f.version, Version(42), "committed data survives");
        assert_eq!(f.epoch, 1);
        assert!(root.violations().is_empty(), "{:?}", root.violations());
    }

    #[test]
    fn crash_closes_every_dropped_span_as_bank_reset() {
        // One span per place a message can be when the device dies: still
        // queued, parked on a grant in flight, and a store awaiting its
        // home ack.
        let spans = SpanTracker::new(16);
        let mut dev = DeviceL2::new(DeviceParams::default());
        dev.set_probe(spanned(&spans));
        let ids = [SpanId(1), SpanId(2), SpanId(3)];
        for id in ids {
            spans.open(id, Cycle(0));
        }
        dev.on_request(0, with_span(read(5, 0, 1), ids[0]), Cycle(0));
        dev.on_request(1, with_span(write(7, 1, 42), ids[1]), Cycle(0));
        for c in 0..40 {
            dev.tick(Cycle(c));
        }
        while dev.take_fabric_request().is_some() {} // both now cross the fabric
        dev.on_request(0, with_span(read(9, 0, 1), ids[2]), Cycle(40));
        dev.crash(Cycle(50));
        let records = spans.spans();
        assert_eq!(records.len(), 3);
        for r in records {
            assert_eq!(
                r.closed,
                Some((Cycle(50), CloseReason::BankReset)),
                "{:?}",
                r.id
            );
        }
    }

    #[test]
    fn merged_readers_all_complete() {
        let mut dev = DeviceL2::new(DeviceParams::default());
        let mut home = HomeNode::new(HomeParams::default());
        dev.on_request(0, read(5, 0, 1), Cycle(0));
        dev.on_request(1, read(5, 0, 3), Cycle(0));
        dev.on_request(2, read(5, 0, 9), Cycle(0));
        let resps = settle(&mut dev, &mut home, Cycle(0));
        assert_eq!(resps.len(), 3);
        let mut dsts: Vec<usize> = resps.iter().map(|(d, _)| *d).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![0, 1, 2]);
        assert!(dev.stats().mshr_merges >= 1, "readers share one grant trip");
        assert_eq!(home.stats().accesses, 1, "one fabric round trip");
    }

    #[test]
    fn far_waiter_forces_follow_up_grant_extension() {
        let mut dev = DeviceL2::new(DeviceParams::default());
        let mut home = HomeNode::new(HomeParams::default());
        // First waiter near, second far beyond the first grant: the
        // device must keep extending until everyone is covered.
        dev.on_request(0, read(5, 0, 1), Cycle(0));
        dev.on_request(1, read(5, 0, 500), Cycle(0));
        let resps = settle(&mut dev, &mut home, Cycle(0));
        assert_eq!(resps.len(), 2, "both readers complete");
        let (_, grts) = dev.installed_grant(BlockAddr(5)).unwrap();
        assert!(grts.0 >= 500, "grant covers the far waiter");
    }

    #[test]
    fn snapshot_round_trips_mid_transaction() {
        let mut dev = DeviceL2::new(DeviceParams::default());
        let mut home = HomeNode::new(HomeParams::default());
        dev.on_request(0, read(5, 0, 1), Cycle(0));
        settle(&mut dev, &mut home, Cycle(0));
        // Leave parked waiters and queued traffic in place.
        dev.on_request(1, read(9, 0, 4), Cycle(100));
        dev.on_request(0, write(7, 2, 77), Cycle(100));
        dev.tick(Cycle(200));
        dev.tick(Cycle(201));
        assert!(!dev.is_idle());
        let mut w = SnapWriter::new();
        dev.save_state(&mut w).expect("checkpoints");
        let bytes = w.into_bytes();
        let mut copy = DeviceL2::new(DeviceParams::default());
        let mut r = SnapReader::new(&bytes);
        copy.load_state(&mut r).expect("restore");
        r.expect_end("device snapshot").expect("fully consumed");
        let mut w2 = SnapWriter::new();
        copy.save_state(&mut w2).expect("checkpoints");
        assert_eq!(bytes, w2.into_bytes(), "save -> load -> save is stable");
        // Both replay the identical future against identical homes.
        let mut home2 = HomeNode::new(HomeParams::default());
        let mut wh = SnapWriter::new();
        home.save_state(&mut wh);
        let hb = wh.into_bytes();
        let mut rh = SnapReader::new(&hb);
        home2.load_state(&mut rh).expect("restore home");
        let a = settle(&mut dev, &mut home, Cycle(300));
        let b = settle(&mut copy, &mut home2, Cycle(300));
        assert_eq!(a, b);
    }

    /// What a device's hashed state shows, built with its grants, parked
    /// reads and stores arriving in `order`: snapshot bytes, the expired
    /// grants, the stall attribution — and, after a crash, the span records.
    type DeviceView = (
        Vec<u8>,
        Vec<(BlockAddr, u64)>,
        (usize, usize, usize),
        Vec<SpanRecord>,
    );

    fn device_built_in(order: impl Fn(Vec<u64>) -> Vec<u64>) -> DeviceView {
        // Blocks 0..12 hold grants up to rts 40; reads park past them on
        // 0..6 and on the ungranted 12..18; stores to 18..24 await their
        // home acks. Every access is sampled: span `b + 1` rides block `b`.
        let spans = SpanTracker::new(64);
        let mut dev = DeviceL2::new(DeviceParams::default());
        dev.set_probe(spanned(&spans));
        let requested: Vec<u64> = (0..6).chain(12..24).collect();
        for &b in &requested {
            spans.open(SpanId(b + 1), Cycle(0));
        }
        for b in order((0..12).collect()) {
            let grant = FillResp {
                block: BlockAddr(b),
                lease: LeaseInfo::Logical {
                    wts: Timestamp(1),
                    rts: Timestamp(40),
                },
                version: Version(b),
                epoch: 0,
                span: SpanId::NONE,
            };
            dev.on_fabric_response(L2ToL1::Fill(grant), Cycle(0));
        }
        for b in order(requested) {
            let req = if b < 18 {
                read(b, 0, 100)
            } else {
                write(b, 1, 1000 + b)
            };
            dev.on_request(b as usize % 4, with_span(req, SpanId(b + 1)), Cycle(0));
        }
        for c in 0..100 {
            dev.tick(Cycle(c));
        }
        while dev.take_fabric_request().is_some() {}
        let mut w = SnapWriter::new();
        dev.save_state(&mut w).expect("checkpoints");
        let (bytes, expired, stalls) = (
            w.into_bytes(),
            dev.expired_grant_blocks(),
            dev.stall_attribution(),
        );
        dev.crash(Cycle(200));
        (bytes, expired, stalls, spans.spans())
    }

    #[test]
    fn device_state_is_independent_of_arrival_order() {
        let ascending = device_built_in(|v| v);
        let (_, expired, stalls, spans) = &ascending;
        assert_eq!(expired.len(), 6);
        assert!(
            expired.windows(2).all(|w| w[0].0 < w[1].0),
            "expired grants in block order: {expired:?}"
        );
        assert_eq!(*stalls, (6, 6, 6));
        assert_eq!(spans.len(), 18);
        assert!(spans
            .iter()
            .all(|s| s.closed == Some((Cycle(200), CloseReason::BankReset))));
        for seed in [7, 13, 0x9E37_79B9] {
            let other = device_built_in(|v| shuffled(v, seed));
            assert!(
                ascending.0 == other.0,
                "snapshot bytes differ at seed {seed}"
            );
            assert_eq!(ascending.1, other.1, "seed {seed}");
            assert_eq!(ascending.2, other.2, "seed {seed}");
            assert_eq!(ascending.3, other.3, "seed {seed}");
        }
    }

    /// The home's side: stores and reads to 32 blocks, in ascending and in
    /// shuffled block order, leave the same snapshot and the same image.
    fn home_built_in(order: impl Fn(Vec<u64>) -> Vec<u64>) -> (Vec<u8>, Vec<(BlockAddr, Version)>) {
        let mut home = HomeNode::new(HomeParams::default());
        for b in order((0..32).collect()) {
            home.on_request(0, write(b, 3, 500 + b), Cycle(0));
            home.on_request(1, read(b, 0, 70), Cycle(0));
        }
        home.tick(Cycle(100));
        while home.take_response().is_some() {}
        let mut w = SnapWriter::new();
        home.save_state(&mut w);
        (w.into_bytes(), home.memory_image())
    }

    #[test]
    fn home_state_is_independent_of_arrival_order() {
        let (bytes, image) = home_built_in(|v| v);
        assert_eq!(image.len(), 32);
        assert!(
            image.windows(2).all(|w| w[0].0 < w[1].0),
            "memory image in block order: {image:?}"
        );
        for seed in [7, 13, 0x9E37_79B9] {
            let (other_bytes, other_image) = home_built_in(|v| shuffled(v, seed));
            assert!(bytes == other_bytes, "snapshot bytes differ at seed {seed}");
            assert_eq!(image, other_image, "seed {seed}");
        }
    }
}
