//! Temporal-Coherence shared-cache bank.
//!
//! The L2 tracks, per block, the latest expiry time of any lease it has
//! granted (using the globally synchronized counter — the simulation
//! clock). Reads extend the lease and return data; writes:
//!
//! * **TC-Strong**: may only be performed once `now >= expires`. A
//!   pending write *blocks the block*: every later request to the same
//!   block queues behind it (Section II-D3's lease-induced stalls).
//! * **TC-Weak**: performed immediately; the ack returns the old expiry
//!   as the Global Write Completion Time.
//!
//! TC forces an **inclusive** L2 (Section II-D2): a victim whose lease is
//! still live cannot be evicted, stalling the fill until it expires.

use std::collections::{BTreeMap, VecDeque};

use gtsc_mem::TagArray;
use gtsc_protocol::msg::{FillResp, L1ToL2, L2ToL1, LeaseInfo, ReadReq, WriteAckResp, WriteReq};
use gtsc_protocol::{BankShell, ControllerPressure, L2Controller};
use gtsc_trace::{EventKind, Probe};
use gtsc_types::{BlockAddr, CacheGeometry, CacheStats, Cycle, Version};

use crate::TcMode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TcL2Meta {
    expires: Cycle,
    version: Version,
    dirty: bool,
}

/// Construction parameters for [`TcL2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcL2Params {
    /// Bank geometry.
    pub geometry: CacheGeometry,
    /// Lease length in physical cycles.
    pub lease_cycles: u64,
    /// Bank access latency in cycles.
    pub latency: u64,
    /// Requests processed per cycle.
    pub ports: usize,
    /// Outstanding DRAM fetches tracked.
    pub mshr_entries: usize,
    /// Requests merged per outstanding fetch.
    pub mshr_merges: usize,
    /// Strong or weak variant.
    pub mode: TcMode,
}

impl Default for TcL2Params {
    fn default() -> Self {
        TcL2Params {
            geometry: CacheGeometry::new(4 * 1024, 4, 128),
            lease_cycles: 100,
            latency: 10,
            ports: 1,
            mshr_entries: 16,
            mshr_merges: 64,
            mode: TcMode::Strong,
        }
    }
}

/// One Temporal-Coherence shared-cache bank.
#[derive(Debug)]
pub struct TcL2 {
    p: TcL2Params,
    tags: TagArray<TcL2Meta>,
    /// Queues, MSHR, DRAM handshake and the written-back image.
    shell: BankShell,
    /// Per-block queues headed by a stalled (strong) write; later requests
    /// to the block wait behind it. BTreeMap: `drain_blocked` walks the
    /// keys, and that order decides which block's queue is served first.
    blocked: BTreeMap<BlockAddr, VecDeque<(usize, L1ToL2)>>,
    /// Fills that could not install because every victim's lease is live
    /// (the inclusive-L2 replacement stall).
    install_wait: Vec<BlockAddr>,
    /// What a tick retries: `install_wait` swapped out, emptied and kept,
    /// so a replacement stall allocates nothing per cycle.
    install_retry: Vec<BlockAddr>,
    /// `blocked`'s keys as `drain_blocked` walks them, kept likewise.
    blocked_keys: Vec<BlockAddr>,
    stats: CacheStats,
    probe: Probe,
}

impl TcL2 {
    /// Creates an empty bank.
    #[must_use]
    pub fn new(p: TcL2Params) -> Self {
        TcL2 {
            tags: TagArray::new(p.geometry),
            shell: BankShell::new(p.latency, p.ports, p.mshr_entries, p.mshr_merges),
            blocked: BTreeMap::new(),
            install_wait: Vec::new(),
            install_retry: Vec::new(),
            blocked_keys: Vec::new(),
            stats: CacheStats::default(),
            probe: Probe::disabled(),
            p,
        }
    }

    fn perform_read(&mut self, src: usize, r: ReadReq, now: Cycle) {
        let block = r.block;
        let lease = self.p.lease_cycles;
        let line = self
            .tags
            .probe_mut(block)
            .expect("caller checked residency");
        line.meta.expires = line.meta.expires.max(now + lease);
        let (expires, version) = (line.meta.expires, line.meta.version);
        self.probe.emit(now, || EventKind::TcLease {
            block,
            expires: expires.0,
        });
        let fill = FillResp {
            block,
            lease: LeaseInfo::Physical { expires },
            version,
            epoch: 0,
            span: r.span,
        };
        self.shell.respond(src, L2ToL1::Fill(fill));
    }

    fn perform_write(&mut self, src: usize, w: WriteReq, is_atomic: bool, now: Cycle) {
        let block = w.block;
        let line = self
            .tags
            .probe_mut(block)
            .expect("caller checked residency");
        let prev = line.meta.version;
        let pre_expires = line.meta.expires;
        let gwct = pre_expires.max(now);
        line.meta.version = w.version;
        line.meta.dirty = true;
        self.stats.stores += 1;
        // Under TC-Strong, write atomicity: a strong write performs only
        // once every outstanding lease has run out.
        let strong = self.p.mode == TcMode::Strong;
        self.probe.emit(now, || EventKind::TcWrite {
            block,
            expires: pre_expires.0,
            strong,
        });
        let lease = match self.p.mode {
            // Strong: the ack certifies global performance; nothing to carry.
            TcMode::Strong => LeaseInfo::None,
            // Weak: the ack carries the GWCT.
            TcMode::Weak => LeaseInfo::Physical { expires: gwct },
        };
        let ack = WriteAckResp {
            block,
            lease,
            version: w.version,
            epoch: 0,
            span: w.span,
        };
        self.shell
            .respond(src, L2ToL1::store_ack(is_atomic, ack, prev));
    }

    /// Whether `msg`, to a resident block, can be performed now: a read
    /// always, a weak write too, a strong write or atomic only once no
    /// lease on the block is live — the RMW cannot be performed while
    /// private copies may still be read.
    fn performable(&self, msg: &L1ToL2, now: Cycle) -> bool {
        matches!(msg, L1ToL2::Read(_))
            || self.p.mode == TcMode::Weak
            || (self.tags.peek(msg.block())).is_none_or(|line| now >= line.meta.expires)
    }

    fn perform(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        match msg {
            L1ToL2::Read(r) => self.perform_read(src, r, now),
            L1ToL2::Write(w) => self.perform_write(src, w, false, now),
            L1ToL2::Atomic(w) => self.perform_write(src, w, true, now),
        }
    }

    /// Queues `msg` behind the stalled write that owns its block, or as
    /// that write. `drain_blocked` counts it in `accesses` when it leaves.
    fn park(&mut self, src: usize, msg: L1ToL2) {
        let queue = self.blocked.entry(msg.block()).or_default();
        queue.push_back((src, msg));
    }

    /// Serves a request to a resident block: performed at once unless a
    /// stalled write owns the block, or it is itself a write that must
    /// wait out a lease (the lease-induced write stall) — then it parks,
    /// blocking the block.
    fn perform_or_park(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        let block = msg.block();
        if self.blocked.contains_key(&block) {
            self.park(src, msg);
        } else if self.performable(&msg, now) {
            self.perform(src, msg, now);
        } else {
            self.probe.emit(now, || EventKind::BlockedOnWrite { block });
            self.park(src, msg);
        }
    }

    fn handle(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        let block = msg.block();
        // A stalled write owns the block: queue behind it in order,
        // resident or not.
        if self.blocked.contains_key(&block) {
            self.park(src, msg);
            return;
        }
        self.stats.accesses += 1;
        if self.tags.peek(block).is_some() {
            self.stats.hits += 1;
            self.perform_or_park(src, msg, now);
        } else {
            self.stats.cold_misses += 1;
            if self.shell.miss(src, msg) {
                self.stats.mshr_merges += 1;
            }
        }
    }

    /// Tries to install a DRAM fill; under inclusion, only expired victims
    /// may be evicted.
    fn try_install(&mut self, block: BlockAddr, now: Cycle) -> bool {
        let meta = TcL2Meta {
            expires: Cycle(0),
            version: self.shell.fetched(block),
            dirty: false,
        };
        match self.tags.fill_if(block, meta, |l| now >= l.meta.expires) {
            Ok(evicted) => {
                if let Some(ev) = evicted {
                    self.stats.evictions += 1;
                    self.probe.emit(now, || EventKind::Eviction {
                        block: ev.block,
                        rts: ev.meta.expires.0,
                        mem_ts: None,
                    });
                    if ev.meta.dirty {
                        self.shell.write_back(ev.block, ev.meta.version);
                    }
                }
                // Serve everything that waited for the fetch (counted on
                // arrival).
                let mut waiters = self.shell.installed(block);
                for (src, msg) in waiters.drain(..) {
                    self.perform_or_park(src, msg, now);
                }
                self.shell.recycle(waiters);
                true
            }
            Err(_) => {
                self.stats.eviction_stall_cycles += 1;
                false
            }
        }
    }

    /// Drains per-block stall queues whose head write has become
    /// performable.
    fn drain_blocked(&mut self, now: Cycle) {
        let mut blocks = std::mem::take(&mut self.blocked_keys);
        blocks.extend(self.blocked.keys().copied());
        for block in blocks.drain(..) {
            // If the line was evicted while its queue waited (possible
            // once the lease expired — which also satisfies the parked
            // write's wait condition), re-handle the whole queue through
            // the normal miss path, preserving order.
            if self.tags.peek(block).is_none() {
                for (src, msg) in self.blocked.remove(&block).unwrap_or_default() {
                    self.shell.requeue(src, msg, now);
                }
                continue;
            }
            while let Some(&(src, msg)) = self.blocked.get(&block).and_then(VecDeque::front) {
                if !self.performable(&msg, now) {
                    self.stats.write_stall_cycles += 1;
                    break;
                }
                let queue = self.blocked.get_mut(&block).expect("queue exists");
                queue.pop_front();
                self.stats.accesses += 1;
                self.perform(src, msg, now);
            }
            if self.blocked.get(&block).is_some_and(VecDeque::is_empty) {
                self.blocked.remove(&block);
            }
        }
        self.blocked_keys = blocks;
    }
}

impl L2Controller for TcL2 {
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

    fn on_dram_response(&mut self, block: BlockAddr, is_write: bool, now: Cycle) {
        if is_write {
            return;
        }
        if !self.try_install(block, now) {
            self.install_wait.push(block);
        }
    }

    /// While a write waits out a lease or a fill waits for a victim, every
    /// tick books a `write_stall_cycles` / `eviction_stall_cycles` count:
    /// the bank is then due every cycle, and the stretch is stepped, not
    /// booked in one go (DESIGN.md §15.2).
    fn next_event_at(&self) -> Cycle {
        if !self.blocked.is_empty() || !self.install_wait.is_empty() {
            return Cycle(0);
        }
        self.shell.next_event_at()
    }

    fn tick(&mut self, now: Cycle) {
        // Retry fills stalled on inclusive replacement.
        if !self.install_wait.is_empty() {
            let mut waiting = std::mem::take(&mut self.install_retry);
            std::mem::swap(&mut waiting, &mut self.install_wait);
            for block in waiting.drain(..) {
                if !self.try_install(block, now) {
                    self.install_wait.push(block);
                }
            }
            self.install_retry = waiting;
        }
        self.drain_blocked(now);
        for _ in 0..self.shell.ports() {
            // A request for a parked queue needs no MSHR either.
            let resident = |m: &L1ToL2| {
                self.blocked.contains_key(&m.block()) || self.tags.peek(m.block()).is_some()
            };
            let Some((src, msg)) = self.shell.pop_ready(now, resident) else {
                break;
            };
            self.handle(src, msg, now);
        }
    }

    fn is_idle(&self) -> bool {
        self.shell.is_idle() && self.blocked.is_empty() && self.install_wait.is_empty()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn pressure(&self) -> ControllerPressure {
        self.shell.pressure()
    }

    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    fn probe(&self) -> Option<&Probe> {
        Some(&self.probe)
    }

    fn memory_image(&self) -> Vec<(BlockAddr, Version)> {
        let resident = self.tags.iter().map(|l| (l.block, l.meta.version));
        self.shell.memory_image(resident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_types::{SpanId, Timestamp};

    fn read(block: u64) -> L1ToL2 {
        L1ToL2::Read(ReadReq {
            block: BlockAddr(block),
            wts: Timestamp(0),
            warp_ts: Timestamp(0),
            epoch: 0,
            span: SpanId::NONE,
        })
    }

    fn write(block: u64, version: u64) -> L1ToL2 {
        L1ToL2::Write(WriteReq {
            block: BlockAddr(block),
            warp_ts: Timestamp(0),
            version: Version(version),
            epoch: 0,
            span: SpanId::NONE,
        })
    }

    /// Advances the bank, resolving DRAM instantly, until idle or horizon.
    fn settle(l2: &mut TcL2, start: Cycle, horizon: u64) -> Vec<(u64, usize, L2ToL1)> {
        let mut out = Vec::new();
        for c in start.0..start.0 + horizon {
            l2.tick(Cycle(c));
            while let Some((b, w)) = l2.take_dram_request() {
                l2.on_dram_response(b, w, Cycle(c));
            }
            while let Some((d, m)) = l2.take_response() {
                out.push((c, d, m));
            }
            if l2.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn read_grants_physical_lease() {
        let mut l2 = TcL2::new(TcL2Params::default());
        l2.on_request(0, read(5), Cycle(0));
        let resps = settle(&mut l2, Cycle(0), 100);
        let (c, _, L2ToL1::Fill(f)) = &resps[0] else {
            panic!("expected fill")
        };
        assert_eq!(
            f.lease,
            LeaseInfo::Physical {
                expires: Cycle(c + 100)
            }
        );
    }

    #[test]
    fn strong_write_stalls_until_lease_expiry() {
        let mut l2 = TcL2::new(TcL2Params {
            latency: 0,
            ..TcL2Params::default()
        });
        l2.on_request(0, read(5), Cycle(0));
        let resps = settle(&mut l2, Cycle(0), 10);
        let (granted_at, _, _) = resps[0];
        let expiry = granted_at + 100;
        // Write arrives at cycle 10: must wait until the lease expires.
        l2.on_request(1, write(5, 77), Cycle(10));
        let resps = settle(&mut l2, Cycle(10), 500);
        let acks: Vec<_> = resps
            .iter()
            .filter(|(_, _, m)| matches!(m, L2ToL1::WriteAck(_)))
            .collect();
        assert_eq!(acks.len(), 1);
        assert!(
            acks[0].0 >= expiry,
            "ack at {} before lease expiry {expiry}",
            acks[0].0
        );
        assert!(l2.stats().write_stall_cycles > 0);
    }

    #[test]
    fn reads_behind_stalled_write_wait_and_see_new_data() {
        let mut l2 = TcL2::new(TcL2Params {
            latency: 0,
            ..TcL2Params::default()
        });
        l2.on_request(0, read(5), Cycle(0));
        settle(&mut l2, Cycle(0), 5);
        l2.on_request(1, write(5, 77), Cycle(10));
        l2.tick(Cycle(10));
        // A read arriving behind the stalled write queues behind it.
        l2.on_request(2, read(5), Cycle(11));
        let resps = settle(&mut l2, Cycle(11), 500);
        let fill_after = resps
            .iter()
            .find_map(|(c, d, m)| match m {
                L2ToL1::Fill(f) if *d == 2 => Some((*c, f.version)),
                _ => None,
            })
            .expect("queued read eventually served");
        let ack_at = resps
            .iter()
            .find_map(|(c, _, m)| matches!(m, L2ToL1::WriteAck(_)).then_some(*c))
            .expect("write acked");
        assert!(
            fill_after.0 >= ack_at,
            "read served only after the write performs"
        );
        assert_eq!(fill_after.1, Version(77), "read observes the new value");
    }

    #[test]
    fn weak_write_completes_immediately_with_gwct() {
        let mut l2 = TcL2::new(TcL2Params {
            mode: TcMode::Weak,
            latency: 0,
            ..TcL2Params::default()
        });
        l2.on_request(0, read(5), Cycle(0));
        let resps = settle(&mut l2, Cycle(0), 10);
        let (granted_at, _, _) = resps[0];
        l2.on_request(1, write(5, 77), Cycle(10));
        let resps = settle(&mut l2, Cycle(10), 50);
        let (c, _, L2ToL1::WriteAck(a)) = &resps[0] else {
            panic!("expected ack")
        };
        assert!(*c < granted_at + 100, "no stall in weak mode");
        assert_eq!(
            a.lease,
            LeaseInfo::Physical {
                expires: Cycle(granted_at + 100)
            }
        );
        assert_eq!(l2.stats().write_stall_cycles, 0);
    }

    #[test]
    fn inclusive_replacement_stalls_on_live_victims() {
        // Direct-mapped, 2 sets: blocks 0 and 2 conflict.
        let geometry = CacheGeometry::new(256, 1, 128);
        let mut l2 = TcL2::new(TcL2Params {
            geometry,
            latency: 0,
            ..TcL2Params::default()
        });
        l2.on_request(0, read(0), Cycle(0));
        let resps = settle(&mut l2, Cycle(0), 5);
        let lease_until = resps[0].0 + 100;
        // Fetch block 2: its install must wait for block 0's lease.
        l2.on_request(0, read(2), Cycle(5));
        let resps = settle(&mut l2, Cycle(5), 500);
        let fill2 = resps
            .iter()
            .find_map(|(c, _, m)| match m {
                L2ToL1::Fill(f) if f.block == BlockAddr(2) => Some(*c),
                _ => None,
            })
            .expect("block 2 eventually fills");
        assert!(
            fill2 >= lease_until,
            "fill at {fill2} before victim lease expiry {lease_until}"
        );
        assert!(l2.stats().eviction_stall_cycles > 0);
    }

    #[test]
    fn strong_atomic_stalls_until_lease_expiry() {
        let mut l2 = TcL2::new(TcL2Params {
            latency: 0,
            ..TcL2Params::default()
        });
        l2.on_request(0, read(5), Cycle(0));
        let resps = settle(&mut l2, Cycle(0), 10);
        let expiry = resps[0].0 + 100;
        // The RMW cannot be performed while a private copy may be read:
        // this is the per-atomic penalty TC pays on graph workloads.
        l2.on_request(
            1,
            L1ToL2::Atomic(gtsc_protocol::msg::WriteReq {
                block: BlockAddr(5),
                warp_ts: Timestamp(0),
                version: Version(9),
                epoch: 0,
                span: SpanId::NONE,
            }),
            Cycle(10),
        );
        let resps = settle(&mut l2, Cycle(10), 500);
        let ack_at = resps
            .iter()
            .find_map(|(c, _, m)| matches!(m, L2ToL1::AtomicAck { .. }).then_some(*c))
            .expect("atomic acked");
        assert!(
            ack_at >= expiry,
            "atomic acked at {ack_at} before lease expiry {expiry}"
        );
    }

    #[test]
    fn weak_atomic_returns_prev_immediately() {
        let mut l2 = TcL2::new(TcL2Params {
            latency: 0,
            mode: TcMode::Weak,
            ..TcL2Params::default()
        });
        l2.on_request(0, write(5, 42), Cycle(0));
        settle(&mut l2, Cycle(0), 50);
        l2.on_request(
            1,
            L1ToL2::Atomic(gtsc_protocol::msg::WriteReq {
                block: BlockAddr(5),
                warp_ts: Timestamp(0),
                version: Version(9),
                epoch: 0,
                span: SpanId::NONE,
            }),
            Cycle(60),
        );
        let resps = settle(&mut l2, Cycle(60), 50);
        let (_, _, L2ToL1::AtomicAck { prev, .. }) = &resps[0] else {
            panic!("expected atomic ack")
        };
        assert_eq!(*prev, Version(42));
    }

    #[test]
    fn dirty_eviction_survives_via_backing_store() {
        let geometry = CacheGeometry::new(256, 1, 128);
        let mut l2 = TcL2::new(TcL2Params {
            geometry,
            latency: 0,
            mode: TcMode::Weak,
            ..TcL2Params::default()
        });
        l2.on_request(0, write(0, 42), Cycle(0));
        settle(&mut l2, Cycle(0), 200);
        l2.on_request(0, read(2), Cycle(300)); // evicts block 0 (expired by then)
        settle(&mut l2, Cycle(300), 200);
        l2.on_request(0, read(0), Cycle(600));
        let resps = settle(&mut l2, Cycle(600), 200);
        let version = resps
            .iter()
            .find_map(|(_, _, m)| match m {
                L2ToL1::Fill(f) if f.block == BlockAddr(0) => Some(f.version),
                _ => None,
            })
            .expect("refetch");
        assert_eq!(version, Version(42));
    }
}
