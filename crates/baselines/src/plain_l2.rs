//! A plain (coherence-free) shared-cache bank, backing the "BL" (no-L1)
//! and "Baseline W/L1" configurations of the paper's evaluation.
//!
//! Reads return data, writes update in place and acknowledge; there are no
//! leases, no stalls, no recalls. With the L1 disabled this *is* coherent
//! (the L2 is the single point of truth); with a non-coherent L1 in front
//! it reproduces the incoherent baseline the paper only runs on workloads
//! that need no coherence.

use gtsc_mem::TagArray;
use gtsc_protocol::msg::{FillResp, L1ToL2, L2ToL1, LeaseInfo, WriteAckResp};
use gtsc_protocol::{BankShell, ControllerPressure, L2Controller};
use gtsc_types::{BlockAddr, CacheGeometry, CacheStats, Cycle, Version};

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

/// One coherence-free shared-cache bank.
#[derive(Debug)]
pub struct PlainL2 {
    tags: TagArray<PlainMeta>,
    /// Queues, MSHR, DRAM handshake and the written-back image.
    shell: BankShell,
    stats: CacheStats,
}

impl PlainL2 {
    /// Creates an empty bank.
    #[must_use]
    pub fn new(p: PlainL2Params) -> Self {
        PlainL2 {
            tags: TagArray::new(p.geometry),
            shell: BankShell::new(p.latency, p.ports, p.mshr_entries, p.mshr_merges),
            stats: CacheStats::default(),
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
                let fill = FillResp {
                    block,
                    lease: LeaseInfo::None,
                    version: line.meta.version,
                    epoch: 0,
                    span: r.span,
                };
                self.shell.respond(src, L2ToL1::Fill(fill));
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
                let atomic = matches!(msg, L1ToL2::Atomic(_));
                self.shell
                    .respond(src, L2ToL1::store_ack(atomic, ack, prev));
            }
        }
    }

    fn handle(&mut self, src: usize, msg: L1ToL2) {
        self.stats.accesses += 1;
        if self.tags.peek(msg.block()).is_some() {
            self.stats.hits += 1;
            self.serve_hit(src, msg);
            return;
        }
        self.stats.cold_misses += 1;
        if self.shell.miss(src, msg) {
            self.stats.mshr_merges += 1;
        }
    }
}

impl L2Controller for PlainL2 {
    fn on_request(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        self.shell.arrive(src, msg, now);
    }

    fn take_response(&mut self) -> Option<(usize, L2ToL1)> {
        self.shell.take_response()
    }

    fn take_dram_request(&mut self) -> Option<(BlockAddr, bool)> {
        self.shell.take_dram_request()
    }

    fn dram_ready(&mut self, ready: bool) {
        self.shell.dram_ready(ready);
    }

    fn on_dram_response(&mut self, block: BlockAddr, is_write: bool, _now: Cycle) {
        if is_write {
            return;
        }
        let meta = PlainMeta {
            version: self.shell.fetched(block),
            dirty: false,
        };
        if let Some(ev) = self.tags.fill(block, meta) {
            self.stats.evictions += 1;
            if ev.meta.dirty {
                self.shell.write_back(ev.block, ev.meta.version);
            }
        }
        let mut waiters = self.shell.installed(block);
        for (src, msg) in waiters.drain(..) {
            self.serve_hit(src, msg);
        }
        self.shell.recycle(waiters);
    }

    fn next_event_at(&self) -> Cycle {
        self.shell.next_event_at()
    }

    fn tick(&mut self, now: Cycle) {
        for _ in 0..self.shell.ports() {
            let resident = |m: &L1ToL2| self.tags.peek(m.block()).is_some();
            let Some((src, msg)) = self.shell.pop_ready(now, resident) else {
                break;
            };
            self.handle(src, msg);
        }
    }

    fn is_idle(&self) -> bool {
        self.shell.is_idle()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn pressure(&self) -> ControllerPressure {
        self.shell.pressure()
    }

    fn memory_image(&self) -> Vec<(BlockAddr, Version)> {
        let resident = self.tags.iter().map(|l| (l.block, l.meta.version));
        self.shell.memory_image(resident)
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
