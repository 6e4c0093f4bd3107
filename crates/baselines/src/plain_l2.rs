//! A plain (coherence-free) shared-cache bank, backing the "BL" (no-L1)
//! and "Baseline W/L1" configurations of the paper's evaluation.
//!
//! Reads return data, writes update in place and acknowledge; there are no
//! leases, no stalls, no recalls. With the L1 disabled this *is* coherent
//! (the L2 is the single point of truth); with a non-coherent L1 in front
//! it reproduces the incoherent baseline the paper only runs on workloads
//! that need no coherence.

use std::collections::{BTreeMap, VecDeque};

use gtsc_mem::{Mshr, MshrAlloc, TagArray};
use gtsc_protocol::msg::{FillResp, L1ToL2, L2ToL1, LeaseInfo, WriteAckResp};
use gtsc_protocol::L2Controller;
use gtsc_types::{BlockAddr, CacheGeometry, CacheStats, Cycle, FxHashMap, Version};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlainMeta {
    version: Version,
    dirty: bool,
}

/// Construction parameters for [`PlainL2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlainL2Params {
    /// Bank geometry.
    pub geometry: CacheGeometry,
    /// Bank access latency in cycles.
    pub latency: u64,
    /// Requests processed per cycle.
    pub ports: usize,
    /// Outstanding DRAM fetches tracked.
    pub mshr_entries: usize,
    /// Requests merged per outstanding fetch.
    pub mshr_merges: usize,
}

impl Default for PlainL2Params {
    fn default() -> Self {
        PlainL2Params {
            geometry: CacheGeometry::new(4 * 1024, 4, 128),
            latency: 10,
            ports: 1,
            mshr_entries: 16,
            mshr_merges: 64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingReq {
    src: usize,
    msg: L1ToL2,
}

/// One coherence-free shared-cache bank.
#[derive(Debug)]
pub struct PlainL2 {
    p: PlainL2Params,
    tags: TagArray<PlainMeta>,
    backing: FxHashMap<BlockAddr, Version>,
    pending: Mshr<PendingReq>,
    in_queue: VecDeque<(Cycle, usize, L1ToL2)>,
    /// The head of `in_queue` is a miss that found no MSHR slot; only a
    /// DRAM fill frees one, so until then `tick` has nothing to ask again.
    head_stalled: bool,
    out_resp: VecDeque<(usize, L2ToL1)>,
    dram_out: VecDeque<(BlockAddr, bool)>,
    /// What `dram_ready` last said: while DRAM cannot accept, a waiting
    /// `dram_out` is not due.
    dram_ready: bool,
    stats: CacheStats,
}

impl PlainL2 {
    /// Creates an empty bank.
    #[must_use]
    pub fn new(p: PlainL2Params) -> Self {
        PlainL2 {
            tags: TagArray::new(p.geometry),
            backing: FxHashMap::default(),
            pending: Mshr::new(p.mshr_entries, p.mshr_merges),
            in_queue: VecDeque::new(),
            head_stalled: false,
            out_resp: VecDeque::new(),
            dram_out: VecDeque::new(),
            dram_ready: true,
            stats: CacheStats::default(),
            p,
        }
    }

    fn serve_hit(&mut self, src: usize, msg: L1ToL2) {
        let block = msg.block();
        let line = self
            .tags
            .probe_mut(block)
            .expect("caller checked residency");
        match msg {
            L1ToL2::Read(r) => {
                let version = line.meta.version;
                self.out_resp.push_back((
                    src,
                    L2ToL1::Fill(FillResp {
                        block,
                        lease: LeaseInfo::None,
                        version,
                        epoch: 0,
                        span: r.span,
                    }),
                ));
            }
            L1ToL2::Write(w) | L1ToL2::Atomic(w) => {
                let prev = line.meta.version;
                line.meta.version = w.version;
                line.meta.dirty = true;
                self.stats.stores += 1;
                let ack = WriteAckResp {
                    block,
                    lease: LeaseInfo::None,
                    version: w.version,
                    epoch: 0,
                    span: w.span,
                };
                let resp = if matches!(msg, L1ToL2::Atomic(_)) {
                    L2ToL1::AtomicAck { ack, prev }
                } else {
                    L2ToL1::WriteAck(ack)
                };
                self.out_resp.push_back((src, resp));
            }
        }
    }

    fn handle(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        let block = msg.block();
        self.stats.accesses += 1;
        if self.tags.peek(block).is_some() {
            self.stats.hits += 1;
            self.serve_hit(src, msg);
            return;
        }
        self.stats.cold_misses += 1;
        match self.pending.register(block, PendingReq { src, msg }) {
            MshrAlloc::AllocatedNew => self.dram_out.push_back((block, false)),
            MshrAlloc::Merged => self.stats.mshr_merges += 1,
            MshrAlloc::Full => {
                unreachable!("tick() admits requests only when the MSHR can take them")
            }
        }
        let _ = now;
    }

    /// Head-of-line admission check: a miss that cannot get an MSHR slot
    /// stalls the queue (younger same-block requests must not overtake).
    fn can_handle(&self, msg: &L1ToL2) -> bool {
        let block = msg.block();
        if self.tags.peek(block).is_some() {
            return true;
        }
        if self.pending.contains(block) {
            return self.pending.waiters(block) < 256;
        }
        !self.pending.is_full()
    }
}

impl L2Controller for PlainL2 {
    fn on_request(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        self.in_queue.push_back((now + self.p.latency, src, msg));
    }

    fn take_response(&mut self) -> Option<(usize, L2ToL1)> {
        self.out_resp.pop_front()
    }

    fn take_dram_request(&mut self) -> Option<(BlockAddr, bool)> {
        self.dram_out.pop_front()
    }

    fn dram_ready(&mut self, ready: bool) {
        self.dram_ready = ready;
    }

    fn on_dram_response(&mut self, block: BlockAddr, is_write: bool, _now: Cycle) {
        if is_write {
            return;
        }
        self.head_stalled = false;
        let version = self.backing.get(&block).copied().unwrap_or(Version::ZERO);
        if let Some(ev) = self.tags.fill(
            block,
            PlainMeta {
                version,
                dirty: false,
            },
        ) {
            self.stats.evictions += 1;
            if ev.meta.dirty {
                self.backing.insert(ev.block, ev.meta.version);
                self.dram_out.push_back((ev.block, true));
            }
        }
        let mut waiters = self.pending.take(block);
        for w in waiters.drain(..) {
            self.serve_hit(w.src, w.msg);
        }
        self.pending.recycle(waiters);
    }

    fn next_event_at(&self) -> Cycle {
        if !self.out_resp.is_empty() || (self.dram_ready && !self.dram_out.is_empty()) {
            return Cycle(0);
        }
        match self.in_queue.front() {
            Some(&(ready, ..)) if !self.head_stalled => ready,
            _ => Cycle(u64::MAX),
        }
    }

    fn tick(&mut self, now: Cycle) {
        if self.head_stalled {
            debug_assert!(
                (self.in_queue.front()).is_some_and(|(_, _, msg)| !self.can_handle(msg)),
                "L2 head-of-line stall lapsed without a fill"
            );
            return;
        }
        for _ in 0..self.p.ports {
            match self.in_queue.front() {
                Some((ready, _, msg)) if *ready <= now => {
                    if !self.can_handle(msg) {
                        // Head-of-line stall until an MSHR frees.
                        self.head_stalled = true;
                        break;
                    }
                    let (_, src, msg) = self.in_queue.pop_front().expect("front exists");
                    self.handle(src, msg, now);
                }
                _ => break,
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.in_queue.is_empty()
            && self.pending.is_empty()
            && self.out_resp.is_empty()
            && self.dram_out.is_empty()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn memory_image(&self) -> Vec<(BlockAddr, Version)> {
        // BTreeMap so the returned image is sorted by block address and
        // never leaks the hash-keyed backing store's iteration order.
        let mut img: BTreeMap<BlockAddr, Version> = self
            .backing
            .iter() // lint: allow(hash-iter): re-keyed into a BTreeMap before anything observes the order.
            .map(|(b, v)| (*b, *v))
            .collect();
        for line in self.tags.iter() {
            img.insert(line.block, line.meta.version);
        }
        img.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_protocol::msg::{ReadReq, WriteReq};
    use gtsc_types::Timestamp;

    fn read(block: u64) -> L1ToL2 {
        L1ToL2::Read(ReadReq {
            block: BlockAddr(block),
            wts: Timestamp(0),
            warp_ts: Timestamp(0),
            epoch: 0,
            span: gtsc_types::SpanId::NONE,
        })
    }

    fn write(block: u64, version: u64) -> L1ToL2 {
        L1ToL2::Write(WriteReq {
            block: BlockAddr(block),
            warp_ts: Timestamp(0),
            version: Version(version),
            epoch: 0,
            span: gtsc_types::SpanId::NONE,
        })
    }

    fn settle(l2: &mut PlainL2, start: Cycle) -> Vec<(usize, L2ToL1)> {
        let mut out = Vec::new();
        for c in start.0..start.0 + 10_000 {
            l2.tick(Cycle(c));
            while let Some((b, w)) = l2.take_dram_request() {
                l2.on_dram_response(b, w, Cycle(c));
            }
            while let Some(r) = l2.take_response() {
                out.push(r);
            }
            if l2.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut l2 = PlainL2::new(PlainL2Params::default());
        l2.on_request(0, write(5, 42), Cycle(0));
        let resps = settle(&mut l2, Cycle(0));
        assert!(matches!(resps[0].1, L2ToL1::WriteAck(_)));
        l2.on_request(1, read(5), Cycle(100));
        let resps = settle(&mut l2, Cycle(100));
        let (_, L2ToL1::Fill(f)) = &resps[0] else {
            panic!()
        };
        assert_eq!(f.version, Version(42));
        assert_eq!(f.lease, LeaseInfo::None);
    }

    #[test]
    fn eviction_and_refetch_preserves_data() {
        let geometry = CacheGeometry::new(256, 1, 128);
        let mut l2 = PlainL2::new(PlainL2Params {
            geometry,
            ..PlainL2Params::default()
        });
        l2.on_request(0, write(0, 7), Cycle(0));
        settle(&mut l2, Cycle(0));
        l2.on_request(0, read(2), Cycle(100)); // evicts dirty block 0
        settle(&mut l2, Cycle(100));
        assert_eq!(l2.stats().evictions, 1);
        l2.on_request(0, read(0), Cycle(200));
        let resps = settle(&mut l2, Cycle(200));
        let version = resps
            .iter()
            .find_map(|(_, m)| match m {
                L2ToL1::Fill(f) if f.block == BlockAddr(0) => Some(f.version),
                _ => None,
            })
            .unwrap();
        assert_eq!(version, Version(7));
    }

    #[test]
    fn full_mshr_stalls_head_of_line_without_reordering() {
        let mut l2 = PlainL2::new(PlainL2Params {
            mshr_entries: 1,
            latency: 0,
            ..PlainL2Params::default()
        });
        // Two misses to different blocks: the second must wait for the
        // first's fetch, not overtake it.
        l2.on_request(0, read(1), Cycle(0));
        l2.on_request(0, write(3, 9), Cycle(0));
        l2.tick(Cycle(0));
        l2.tick(Cycle(1));
        assert_eq!(l2.take_dram_request(), Some((BlockAddr(1), false)));
        assert_eq!(
            l2.take_dram_request(),
            None,
            "second miss held at head of line"
        );
        l2.on_dram_response(BlockAddr(1), false, Cycle(2));
        l2.tick(Cycle(2));
        assert_eq!(l2.take_dram_request(), Some((BlockAddr(3), false)));
    }

    #[test]
    fn no_write_stalls_ever() {
        let mut l2 = PlainL2::new(PlainL2Params::default());
        l2.on_request(0, read(5), Cycle(0));
        settle(&mut l2, Cycle(0));
        l2.on_request(1, write(5, 9), Cycle(20));
        settle(&mut l2, Cycle(20));
        assert_eq!(l2.stats().write_stall_cycles, 0);
        assert_eq!(l2.stats().eviction_stall_cycles, 0);
    }
}
