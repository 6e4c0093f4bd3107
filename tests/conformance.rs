//! Protocol conformance suite: drives each protocol's L1/L2 controller
//! pair directly (no SMs, no NoC — just an in-order message channel with
//! configurable delay) through scripted coherence scenarios, the way a
//! hardware verification sequence would.

use std::collections::VecDeque;

use gtsc::protocol::msg::{L1ToL2, L2ToL1};
use gtsc::protocol::{
    AccessId, AccessKind, Completion, L1Controller, L1Outcome, L2Controller, MemAccess,
};
use gtsc::sim::{build_l1, build_l2};
use gtsc::types::{
    BlockAddr, ConsistencyModel, Cycle, GpuConfig, ProtocolKind, SpanId, Version, WarpId,
};

/// One L1 wired to one L2 bank through delayed in-order channels, with
/// DRAM resolved after a fixed latency.
struct Pair {
    l1: Box<dyn L1Controller>,
    l2: Box<dyn L2Controller>,
    now: Cycle,
    delay: u64,
    req_ch: VecDeque<(Cycle, L1ToL2)>,
    resp_ch: VecDeque<(Cycle, L2ToL1)>,
    dram_ch: VecDeque<(Cycle, BlockAddr, bool)>,
    next_id: u64,
    completions: Vec<Completion>,
}

impl Pair {
    fn new(protocol: ProtocolKind, delay: u64) -> Pair {
        let cfg = GpuConfig::test_small()
            .with_protocol(protocol)
            .with_consistency(ConsistencyModel::Rc);
        Pair {
            l1: build_l1(&cfg, 0),
            l2: build_l2(&cfg),
            now: Cycle(0),
            delay,
            req_ch: VecDeque::new(),
            resp_ch: VecDeque::new(),
            dram_ch: VecDeque::new(),
            next_id: 0,
            completions: Vec::new(),
        }
    }

    fn access(&mut self, warp: u16, kind: AccessKind, block: u64) -> (AccessId, L1Outcome) {
        self.next_id += 1;
        let id = AccessId(self.next_id);
        let acc = MemAccess {
            id,
            warp: WarpId(warp),
            kind,
            block: BlockAddr(block),
            span: SpanId::NONE,
        };
        let outcome = self.l1.access(acc, self.now);
        if let L1Outcome::Hit(c) = outcome {
            self.completions.push(c);
        }
        (id, outcome)
    }

    /// Advances one cycle, moving messages across the channels.
    fn step(&mut self) {
        let now = self.now;
        self.completions.extend_from_slice(self.l1.tick(now));
        while let Some(req) = self.l1.take_request() {
            self.req_ch.push_back((now + self.delay, req));
        }
        while self.req_ch.front().is_some_and(|(t, _)| *t <= now) {
            let (_, req) = self.req_ch.pop_front().expect("front checked");
            self.l2.on_request(0, req, now);
        }
        self.l2.tick(now);
        while let Some((b, w)) = self.l2.take_dram_request() {
            self.dram_ch.push_back((now + 50, b, w));
        }
        while self.dram_ch.front().is_some_and(|(t, _, _)| *t <= now) {
            let (_, b, w) = self.dram_ch.pop_front().expect("front checked");
            self.l2.on_dram_response(b, w, now);
        }
        while let Some((_, resp)) = self.l2.take_response() {
            self.resp_ch.push_back((now + self.delay, resp));
        }
        while self.resp_ch.front().is_some_and(|(t, _)| *t <= now) {
            let (_, resp) = self.resp_ch.pop_front().expect("front checked");
            self.completions
                .extend_from_slice(self.l1.on_response(resp, now));
        }
        self.now += 1;
    }

    /// Runs until `id` completes (panics after `limit` cycles).
    fn run_until_complete(&mut self, id: AccessId, limit: u64) -> Completion {
        for _ in 0..limit {
            if let Some(c) = self.completions.iter().find(|c| c.id == id) {
                return *c;
            }
            self.step();
        }
        panic!("access {id:?} did not complete within {limit} cycles");
    }

    fn drain(&mut self, limit: u64) {
        for _ in 0..limit {
            if self.l1.is_idle()
                && self.l2.is_idle()
                && self.req_ch.is_empty()
                && self.resp_ch.is_empty()
                && self.dram_ch.is_empty()
            {
                return;
            }
            self.step();
        }
        panic!("pair did not drain");
    }
}

const COHERENT: [ProtocolKind; 4] = [
    ProtocolKind::Gtsc,
    ProtocolKind::Tc,
    ProtocolKind::TcWeak,
    ProtocolKind::NoL1,
];

const ALL: [ProtocolKind; 5] = [
    ProtocolKind::Gtsc,
    ProtocolKind::Tc,
    ProtocolKind::TcWeak,
    ProtocolKind::NoL1,
    ProtocolKind::L1NoCoherence,
];

/// Scenario: a cold load completes and returns the initial contents.
#[test]
fn cold_load_returns_initial_value() {
    for p in ALL {
        for delay in [1u64, 7, 23] {
            let mut pair = Pair::new(p, delay);
            let (id, out) = pair.access(0, AccessKind::Load, 5);
            assert!(!matches!(out, L1Outcome::Reject), "{p:?}");
            let c = pair.run_until_complete(id, 500);
            assert_eq!(c.version, Version::ZERO, "{p:?} d{delay}");
            assert_eq!(c.kind, AccessKind::Load);
            pair.drain(500);
        }
    }
}

/// Scenario: store then load (same warp, after the ack) observes the
/// stored version — basic write-read coherence through the hierarchy.
#[test]
fn store_then_load_observes_store() {
    for p in ALL {
        let mut pair = Pair::new(p, 5);
        let (sid, _) = pair.access(0, AccessKind::Store, 9);
        let sc = pair.run_until_complete(sid, 2000);
        assert_eq!(sc.kind, AccessKind::Store, "{p:?}");
        let (lid, _) = pair.access(0, AccessKind::Load, 9);
        let lc = pair.run_until_complete(lid, 2000);
        assert_eq!(lc.version, sc.version, "{p:?}: load missed the store");
        pair.drain(2000);
    }
}

/// Scenario: two loads from different warps to the same missing block
/// both complete from a single fetch (MSHR merging), except on the
/// MSHR-less no-L1 baseline.
#[test]
fn concurrent_loads_merge() {
    for p in [
        ProtocolKind::Gtsc,
        ProtocolKind::Tc,
        ProtocolKind::L1NoCoherence,
    ] {
        let mut pair = Pair::new(p, 5);
        let (a, _) = pair.access(0, AccessKind::Load, 4);
        let (b, _) = pair.access(1, AccessKind::Load, 4);
        pair.run_until_complete(a, 1000);
        pair.run_until_complete(b, 1000);
        assert_eq!(
            pair.l1.stats().mshr_merges,
            1,
            "{p:?}: second load should merge"
        );
        pair.drain(500);
    }
}

/// Scenario: atomics to one block from two warps form a chain — the
/// second observes the first.
#[test]
fn atomic_pair_chains() {
    for p in COHERENT {
        let mut pair = Pair::new(p, 5);
        let (a, _) = pair.access(0, AccessKind::Atomic, 7);
        let ca = pair.run_until_complete(a, 3000);
        let (b, _) = pair.access(1, AccessKind::Atomic, 7);
        let cb = pair.run_until_complete(b, 3000);
        assert_eq!(ca.prev, Some(Version::ZERO), "{p:?}");
        assert_eq!(cb.prev, Some(ca.version), "{p:?}: chain broken");
        pair.drain(3000);
    }
}

/// Scenario (G-TSC, Figure 10): a read racing a pending store on the same
/// line must not observe the new version at a logical time before its
/// assigned `wts`.
#[test]
fn gtsc_update_visibility_blocks_racing_reader() {
    let mut pair = Pair::new(ProtocolKind::Gtsc, 20);
    // Warm the line.
    let (w, _) = pair.access(0, AccessKind::Load, 3);
    pair.run_until_complete(w, 1000);
    // Store by warp 0; read by warp 1 one cycle later.
    let (sid, _) = pair.access(0, AccessKind::Store, 3);
    pair.step();
    let (lid, out) = pair.access(1, AccessKind::Load, 3);
    assert!(
        matches!(out, L1Outcome::Queued),
        "racing reader must be parked, got {out:?}"
    );
    let sc = pair.run_until_complete(sid, 2000);
    let lc = pair.run_until_complete(lid, 2000);
    assert_eq!(lc.version, sc.version, "parked reader sees the new version");
    assert!(
        lc.ts.expect("logical ts") >= sc.ts.expect("wts"),
        "reader ts {:?} precedes the store's wts {:?} — the Figure 10 violation",
        lc.ts,
        sc.ts
    );
    pair.drain(2000);
}

/// Scenario (G-TSC): a logically-expired reader triggers a renewal, which
/// returns without data and still completes the read with the same
/// version.
#[test]
fn gtsc_renewal_completes_expired_reader() {
    let mut pair = Pair::new(ProtocolKind::Gtsc, 5);
    let (a, _) = pair.access(0, AccessKind::Load, 3);
    let ca = pair.run_until_complete(a, 1000);
    // Advance warp 1's logical clock far ahead via a store elsewhere.
    let (s, _) = pair.access(1, AccessKind::Store, 64); // different bank-set block
    pair.run_until_complete(s, 1000);
    let (s2, _) = pair.access(1, AccessKind::Store, 64);
    pair.run_until_complete(s2, 1000);
    // Warp 1 now reads block 3: tag-hit but logically expired -> renewal.
    let before = pair.l1.stats().renewals;
    let (b, _) = pair.access(1, AccessKind::Load, 3);
    let cb = pair.run_until_complete(b, 1000);
    assert_eq!(cb.version, ca.version, "renewal serves the same version");
    assert!(
        pair.l1.stats().renewals > before,
        "a renewal request was sent"
    );
    pair.drain(1000);
}

/// Scenario (TC-Strong): a store to a freshly-read block is delayed by the
/// outstanding physical lease; the ack only arrives after expiry.
#[test]
fn tc_strong_store_waits_for_lease() {
    let mut pair = Pair::new(ProtocolKind::Tc, 2);
    let (a, _) = pair.access(0, AccessKind::Load, 3);
    pair.run_until_complete(a, 1000);
    let read_done = pair.now;
    let (s, _) = pair.access(1, AccessKind::Store, 3);
    let sc = pair.run_until_complete(s, 5000);
    let _ = sc;
    let lease = GpuConfig::test_small().tc_lease_cycles;
    assert!(
        pair.now.0 >= read_done.0 + lease / 2,
        "store acked at {} — too early for a lease of {lease} granted near {read_done}",
        pair.now
    );
    pair.drain(2000);
}

/// Scenario: kernel-boundary flush empties the L1 — the next load misses
/// again (all protocols with an L1).
#[test]
fn flush_forces_cold_misses() {
    for p in [
        ProtocolKind::Gtsc,
        ProtocolKind::Tc,
        ProtocolKind::L1NoCoherence,
    ] {
        let mut pair = Pair::new(p, 3);
        let (a, _) = pair.access(0, AccessKind::Load, 3);
        pair.run_until_complete(a, 1000);
        pair.drain(1000);
        let cold_before = pair.l1.stats().cold_misses;
        pair.l1.flush();
        let (b, out) = pair.access(0, AccessKind::Load, 3);
        assert!(
            matches!(out, L1Outcome::Queued),
            "{p:?}: must miss after flush"
        );
        pair.run_until_complete(b, 1000);
        assert!(pair.l1.stats().cold_misses > cold_before, "{p:?}");
        pair.drain(1000);
    }
}

/// Scenario: interleaved stores from two warps to one block serialize at
/// the L2 — the final memory image holds the later ack's version, and
/// both stores complete.
#[test]
fn store_serialization_is_consistent() {
    for p in COHERENT {
        let mut pair = Pair::new(p, 4);
        let (a, _) = pair.access(0, AccessKind::Store, 11);
        let (b, _) = pair.access(1, AccessKind::Store, 11);
        let ca = pair.run_until_complete(a, 3000);
        let cb = pair.run_until_complete(b, 3000);
        pair.drain(3000);
        let img = pair.l2.memory_image();
        let final_v = img
            .iter()
            .find(|(blk, _)| *blk == BlockAddr(11))
            .map(|(_, v)| *v)
            .expect("block present");
        assert!(
            final_v == ca.version || final_v == cb.version,
            "{p:?}: final version is neither store's"
        );
        // Under G-TSC the wts order must agree with the final image.
        if p == ProtocolKind::Gtsc {
            let last = if ca.ts.unwrap() > cb.ts.unwrap() {
                ca.version
            } else {
                cb.version
            };
            assert_eq!(
                final_v, last,
                "G-TSC: image must hold the logically-later store"
            );
        }
    }
}

/// Scenario: two warps store to one block and the real bank acks both,
/// but the acks reach the L1 in reverse order, and the first one twice —
/// as a retry racing its original can deliver them. Each ack completes
/// exactly its own store, matched by version rather than by queue
/// position, and the duplicate completes nothing.
#[test]
fn store_acks_out_of_order_complete_their_own_stores() {
    for p in ALL {
        let mut pair = Pair::new(p, 1);
        let (a, _) = pair.access(0, AccessKind::Store, 11);
        let (b, _) = pair.access(1, AccessKind::Store, 11);
        let reqs: Vec<L1ToL2> = std::iter::from_fn(|| pair.l1.take_request()).collect();
        let [L1ToL2::Write(wa), L1ToL2::Write(wb)] = reqs[..] else {
            panic!("{p:?}: expected two BusWr, got {reqs:?}");
        };
        assert_ne!(wa.version, wb.version, "{p:?}");
        for req in reqs {
            pair.l2.on_request(0, req, pair.now);
        }
        let mut acks = Vec::new();
        for c in 0..5000 {
            let now = Cycle(c);
            pair.l2.tick(now);
            while let Some((b, w)) = pair.l2.take_dram_request() {
                pair.l2.on_dram_response(b, w, now);
            }
            acks.extend(std::iter::from_fn(|| pair.l2.take_response()).map(|(_, r)| r));
            if acks.len() == 2 {
                break;
            }
        }
        let [ack_a, ack_b] = acks[..] else {
            panic!("{p:?}: the bank acked {acks:?}");
        };
        let now = Cycle(6000);
        let first = pair.l1.on_response(ack_b, now).to_vec();
        assert_eq!(first.len(), 1, "{p:?}: {first:?}");
        assert_eq!((first[0].id, first[0].version), (b, wb.version), "{p:?}");
        let second = pair.l1.on_response(ack_a, now).to_vec();
        assert_eq!(second.len(), 1, "{p:?}: {second:?}");
        assert_eq!((second[0].id, second[0].version), (a, wa.version), "{p:?}");
        assert!(
            pair.l1.on_response(ack_b, now).is_empty(),
            "{p:?}: a duplicated ack completed something"
        );
        assert!(pair.l1.is_idle(), "{p:?}");
    }
}

/// Scenario: a burst larger than the L1 MSHR leads to rejects, never to
/// lost accesses.
#[test]
fn mshr_overflow_rejects_cleanly() {
    for p in [ProtocolKind::Gtsc, ProtocolKind::Tc] {
        let mut pair = Pair::new(p, 10);
        let mut pending = Vec::new();
        let mut rejected = 0;
        for i in 0..32u64 {
            let (id, out) = pair.access((i % 4) as u16, AccessKind::Load, i * 2);
            match out {
                L1Outcome::Reject => rejected += 1,
                _ => pending.push(id),
            }
        }
        assert!(
            rejected > 0,
            "{p:?}: 32 distinct blocks must overflow an 8-entry MSHR"
        );
        for id in pending {
            pair.run_until_complete(id, 5000);
        }
        pair.drain(5000);
    }
}

/// Scenario: more misses to one block than its fetch can merge. The bank
/// must hold the rest at the head of its queue — behind exactly one DRAM
/// request, asleep until the fill — and then answer everyone in arrival
/// order. Every bank at its `::default()` merge cap (64).
#[test]
fn l2_merge_cap_holds_the_queue_until_the_fill() {
    use gtsc::baselines::{PlainL2, PlainL2Params, TcL2, TcL2Params};
    use gtsc::core::{GtscL2, L2Params};
    use gtsc::protocol::msg::ReadReq;
    use gtsc::types::Timestamp;

    let (latency, ports) = (0, 4);
    let banks: [(&str, Box<dyn L2Controller>); 3] = [
        (
            "G-TSC",
            Box::new(GtscL2::new(L2Params {
                latency,
                ports,
                ..L2Params::default()
            })),
        ),
        (
            "plain",
            Box::new(PlainL2::new(PlainL2Params {
                latency,
                ports,
                ..PlainL2Params::default()
            })),
        ),
        (
            "TC",
            Box::new(TcL2::new(TcL2Params {
                latency,
                ports,
                ..TcL2Params::default()
            })),
        ),
    ];
    let block = BlockAddr(9);
    for (name, mut l2) in banks {
        for src in 0..70 {
            let read = ReadReq {
                block,
                wts: Timestamp(0),
                warp_ts: Timestamp(1),
                epoch: 0,
                span: SpanId::NONE,
            };
            l2.on_request(src, L1ToL2::Read(read), Cycle(0));
        }
        for c in 0..20 {
            l2.tick(Cycle(c));
        }
        assert_eq!(l2.take_dram_request(), Some((block, false)), "{name}");
        assert_eq!(l2.take_dram_request(), None, "{name}: one fetch");
        assert_eq!(l2.stats().mshr_merges, 63, "{name}: 64 waiters");
        let p = l2.pressure();
        assert_eq!((p.mshr, p.out_queue, p.waiting), (1, 6, 0), "{name}");
        assert_eq!(
            l2.next_event_at(),
            Cycle(u64::MAX),
            "{name}: only the fill wakes it"
        );

        l2.on_dram_response(block, false, Cycle(20));
        let mut answered = Vec::new();
        for c in 20..30 {
            l2.tick(Cycle(c));
            answered.extend(std::iter::from_fn(|| l2.take_response()).map(|(dst, _)| dst));
        }
        assert_eq!(answered, (0..70).collect::<Vec<_>>(), "{name}");
        assert!(l2.is_idle(), "{name}");
    }
}
