//! The event horizon of every shared-cache controller is invisible
//! (DESIGN.md §15.2): a bank ticked only on the cycles it is told
//! something and from `next_event_at()` on does what one ticked every
//! cycle does, in the same cycles. The DRAM, crossbar, transport and L1
//! twins of these tests live beside their components; the banks share
//! one harness here, where all of them are in reach.

use std::collections::VecDeque;

use gtsc_baselines::{PlainL2, PlainL2Params, TcL2, TcL2Params, TcMode};
use gtsc_core::{GtscL2, L2Params};
use gtsc_fabric::{DeviceL2, DeviceParams, HomeNode, HomeParams};
use gtsc_protocol::msg::{L1ToL2, L2ToL1, ReadReq, WriteReq};
use gtsc_protocol::L2Controller;
use gtsc_types::snap::{Snap, SnapReader, SnapWriter};
use gtsc_types::{BlockAddr, CacheGeometry, Cycle, Lease, SpanId, Timestamp, Version};
use proptest::prelude::*;

/// One scripted step: idle cycles before it, what happens, and to which
/// block on behalf of which SM.
type Step = (u64, u8, u64, usize);

fn request(i: usize, write: bool, block: u64, now: u64) -> L1ToL2 {
    let (block, warp_ts) = (BlockAddr(block), Timestamp(1 + now / 5));
    if write {
        L1ToL2::Write(WriteReq {
            block,
            warp_ts,
            version: Version(i as u64 + 1),
            epoch: 0,
            span: SpanId::NONE,
        })
    } else {
        L1ToL2::Read(ReadReq {
            block,
            wts: Timestamp(now % 3),
            warp_ts,
            epoch: 0,
            span: SpanId::NONE,
        })
    }
}

/// Everything observable about a bank: its snapshot where it has one,
/// its counters, occupancy and memory image otherwise.
fn image(bank: &dyn L2Controller) -> Vec<u8> {
    let mut w = SnapWriter::new();
    if bank.save_state(&mut w).is_err() {
        w = SnapWriter::new();
        bank.stats().save(&mut w);
        let p = bank.pressure();
        for n in [p.mshr, p.out_queue, p.waiting] {
            w.usize(n);
        }
        bank.memory_image().save(&mut w);
    }
    w.u8(u8::from(bank.is_idle()));
    w.into_bytes()
}

/// What one cycle of the engine takes out of a bank: DRAM requests while
/// the partition has room, then the responses.
type Pumped = (Vec<(BlockAddr, bool)>, Vec<(usize, L2ToL1)>);

/// The engine's cycle around one bank, with the tick left to the caller
/// of the sleeping twin. `fills` are the DRAM completions of this cycle,
/// delivered after the tick as `LocalDram::serve` does.
fn pump(
    bank: &mut dyn L2Controller,
    tick: bool,
    open: bool,
    fills: &[(BlockAddr, bool)],
    now: Cycle,
) -> Pumped {
    if tick {
        bank.tick(now);
    }
    let to_dram: Vec<_> = if open {
        std::iter::from_fn(|| bank.take_dram_request()).collect()
    } else {
        Vec::new()
    };
    for &(block, is_write) in fills {
        bank.on_dram_response(block, is_write, now);
    }
    (
        to_dram,
        std::iter::from_fn(|| bank.take_response()).collect(),
    )
}

/// Drives `script` through two banks from `build`. One is pumped every
/// cycle. The other is left alone — not even drained — unless the cycle
/// brings an input or its horizon has come, which is when the engine
/// would step; and even then it is ticked only from its horizon on. DRAM
/// answers after `dram_delay` cycles and is sometimes full; banks that
/// can crash do, banks that checkpoint are restored into a twin that
/// already idled. In every cycle, ticked or asleep, the two are the same
/// bank. Everything drains in the end.
fn banks_agree(
    build: &dyn Fn() -> Box<dyn L2Controller>,
    script: &[Step],
    dram_delay: u64,
) -> Result<(), TestCaseError> {
    let (mut eager, mut lazy) = (build(), build());
    // DRAM completions on their way back: (cycle, block, is_write).
    let mut dram: VecDeque<(u64, BlockAddr, bool)> = VecDeque::new();
    let (mut open, mut epoch, mut now) = (true, 0, 0u64);
    let idle_tail = [(0, 2, 0, 0), (3000, u8::MAX, 0, 0)];
    for (i, &(gap, what, block, src)) in script.iter().chain(&idle_tail).enumerate() {
        let input_at = now + gap;
        while now <= input_at {
            let at = Cycle(now);
            let mut told = now == input_at;
            match what {
                _ if now < input_at => {}
                0 => {
                    let mut w = SnapWriter::new();
                    if lazy.save_state(&mut w).is_ok() {
                        // Crash here: a twin that sat idle takes over.
                        lazy = build();
                        lazy.tick(Cycle(0));
                        let bytes = w.into_bytes();
                        let loaded = lazy.load_state(&mut SnapReader::new(&bytes));
                        loaded.expect("same geometry");
                    }
                }
                1 => {
                    let ahead = Cycle(now + 15);
                    let want = pump(eager.as_mut(), true, open, &[], ahead);
                    prop_assert_eq!(pump(lazy.as_mut(), true, open, &[], ahead), want.clone());
                    dram.extend(want.0.iter().map(|&(b, w)| (now + 15 + dram_delay, b, w)));
                }
                2 => {
                    // DRAM fills up, or has room again; at the tail, for good.
                    open = !open || i >= script.len();
                    eager.dram_ready(open);
                    lazy.dram_ready(open);
                }
                3 => {
                    prop_assert_eq!(lazy.crash(at), eager.crash(at));
                    if eager.needs_reset() {
                        epoch += 1;
                        eager.apply_reset(epoch, at);
                        lazy.apply_reset(epoch, at);
                    }
                }
                u8::MAX => {}
                _ => {
                    let msg = request(i, what % 3 == 0, block, now);
                    eager.on_request(src, msg, at);
                    lazy.on_request(src, msg, at);
                }
            }
            let mut fills = Vec::new();
            while dram.front().is_some_and(|&(due, ..)| due <= now) {
                fills.extend(dram.pop_front().map(|(_, b, w)| (b, w)));
            }
            told |= !fills.is_empty();
            let want = pump(eager.as_mut(), true, open, &fills, at);
            let due = at >= lazy.next_event_at();
            if told || due {
                let got = pump(lazy.as_mut(), due, open, &fills, at);
                prop_assert_eq!(got, want.clone(), "cycle {}, ticked: {}", now, due);
            } else {
                let quiet = want.0.is_empty() && want.1.is_empty();
                prop_assert!(quiet, "cycle {}: slept through {:?}", now, want);
            }
            prop_assert!(
                image(lazy.as_ref()) == image(eager.as_ref()),
                "cycle {}",
                now
            );
            dram.extend(want.0.iter().map(|&(b, w)| (now + dram_delay, b, w)));
            now += 1;
        }
    }
    prop_assert!(eager.is_idle() && lazy.is_idle(), "a request is stuck");
    Ok(())
}

/// Eight lines: evictions, victim stalls and MSHR stalls all happen.
fn small() -> CacheGeometry {
    CacheGeometry::new(1024, 2, 128)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn gtsc_l2_horizon_ticks_match_a_tick_every_cycle(
        script in proptest::collection::vec((0u64..40, 0u8..16, 0u64..24, 0usize..2), 1..80),
        dram_delay in 1u64..60,
    ) {
        let params = L2Params { geometry: small(), mshr_entries: 2, latency: 6, ports: 2, ..L2Params::default() };
        banks_agree(&|| Box::new(GtscL2::new(params)), &script, dram_delay)?;
    }

    /// TC-Strong counts a stall per tick while a write waits out a lease
    /// or a fill waits for a victim: it is due every cycle then, so the
    /// counters agree too.
    #[test]
    fn tc_l2_horizon_ticks_match_a_tick_every_cycle(
        script in proptest::collection::vec((0u64..40, 0u8..16, 0u64..24, 0usize..2), 1..80),
        dram_delay in 1u64..60,
        strong in proptest::bool::ANY,
    ) {
        let params = TcL2Params {
            geometry: small(),
            lease_cycles: 50,
            mshr_entries: 2,
            latency: 6,
            ports: 2,
            mode: if strong { TcMode::Strong } else { TcMode::Weak },
            ..TcL2Params::default()
        };
        banks_agree(&|| Box::new(TcL2::new(params)), &script, dram_delay)?;
    }

    #[test]
    fn plain_l2_horizon_ticks_match_a_tick_every_cycle(
        script in proptest::collection::vec((0u64..40, 0u8..16, 0u64..24, 0usize..2), 1..80),
        dram_delay in 1u64..60,
    ) {
        let params = PlainL2Params { geometry: small(), mshr_entries: 2, latency: 6, ports: 2, ..PlainL2Params::default() };
        banks_agree(&|| Box::new(PlainL2::new(params)), &script, dram_delay)?;
    }

    /// A device L2 and the home directory behind a fabric of fixed
    /// latency, each ticked by its own horizon: the grants, renewals and
    /// acks that cross are the same, in the same cycles, as between a
    /// pair ticked every cycle — through device crashes, the epoch bump
    /// that follows, and a restore of both into twins that already idled.
    #[test]
    fn device_and_home_horizon_ticks_match_a_tick_every_cycle(
        script in proptest::collection::vec((0u64..40, 0u8..16, 0u64..8, 0usize..2), 1..80),
        wire in 1u64..40,
    ) {
        let build = || {
            let device = DeviceL2::new(DeviceParams { lease: Lease(10), latency: 6, ports: 2 });
            (device, HomeNode::new(HomeParams { latency: 9, ..HomeParams::default() }))
        };
        let image = |(device, home): &(DeviceL2, HomeNode)| {
            let mut w = SnapWriter::new();
            device.save_state(&mut w).expect("DeviceL2 checkpoints");
            home.save_state(&mut w);
            w.into_bytes()
        };
        let (mut eager, mut lazy) = (build(), build());
        // Fabric traffic in flight, by arrival cycle.
        let mut up: VecDeque<(u64, L1ToL2)> = VecDeque::new();
        let mut down: VecDeque<(u64, L2ToL1)> = VecDeque::new();
        let (mut epoch, mut now) = (0, 0u64);
        let idle_tail = [(2000, u8::MAX, 0, 0)];
        for (i, &(gap, what, block, src)) in script.iter().chain(&idle_tail).enumerate() {
            let input_at = now + gap;
            while now <= input_at {
                let at = Cycle(now);
                match what {
                    _ if now < input_at => {}
                    0 => {
                        // Crash here: twins that sat idle take over.
                        let bytes = image(&lazy);
                        lazy = build();
                        lazy.0.tick(Cycle(0));
                        lazy.1.tick(Cycle(0));
                        let mut r = SnapReader::new(&bytes);
                        lazy.0.load_state(&mut r).expect("device image");
                        lazy.1.load_state(&mut r).expect("home image");
                    }
                    1 => {
                        for pair in [&mut eager, &mut lazy] {
                            pair.0.tick(Cycle(now + 15));
                            pair.1.tick(Cycle(now + 30));
                        }
                    }
                    2 => {
                        // A device crash, and the global reset it forces.
                        epoch += 1;
                        for pair in [&mut eager, &mut lazy] {
                            pair.0.crash(at);
                            pair.1.apply_reset(epoch, at);
                            pair.0.apply_reset(epoch, at);
                        }
                    }
                    u8::MAX => {}
                    _ => {
                        let msg = request(i, what % 3 == 0, block, now);
                        eager.0.on_request(src, msg, at);
                        lazy.0.on_request(src, msg, at);
                    }
                }
                // The engine steps this cycle if something arrives or a
                // horizon has come, and then in this order: the device's
                // tick and what it sends up; the exchange (arrivals at
                // the home, its tick, what it sends down, arrivals at the
                // device); then the device's responses to its L1s. The
                // sleeping pair is otherwise left alone, and even in a
                // stepped cycle each half is ticked only from its own
                // horizon on.
                let arrives = |due: Option<u64>| due.is_some_and(|due| due <= now);
                let arrival = arrives(up.front().map(|m| m.0)) || arrives(down.front().map(|m| m.0));
                let (device_due, home_due) = (at >= lazy.0.next_event_at(), at >= lazy.1.next_event_at());
                let stepped = now == input_at || arrival || device_due || home_due;
                let cycle = |pair: &mut (DeviceL2, HomeNode), tick: (bool, bool)| {
                    let (device, home) = pair;
                    if tick.0 {
                        device.tick(at);
                    }
                    let sent: Vec<L1ToL2> = std::iter::from_fn(|| device.take_fabric_request()).collect();
                    for (_, msg) in up.iter().filter(|m| m.0 <= now) {
                        home.on_request(0, *msg, at);
                    }
                    if tick.1 {
                        home.tick(at);
                    }
                    let granted: Vec<_> = std::iter::from_fn(|| home.take_response()).collect();
                    for (_, msg) in down.iter().filter(|m| m.0 <= now) {
                        device.on_fabric_response(*msg, at);
                    }
                    (sent, granted, std::iter::from_fn(|| device.take_response()).collect::<Vec<_>>())
                };
                let want = cycle(&mut eager, (true, true));
                if stepped {
                    let got = cycle(&mut lazy, (device_due, home_due));
                    prop_assert_eq!(got, want.clone(), "cycle {}", now);
                } else {
                    let quiet = want.0.is_empty() && want.1.is_empty() && want.2.is_empty();
                    prop_assert!(quiet, "cycle {}: slept through {:?}", now, want);
                }
                up.retain(|m| m.0 > now);
                down.retain(|m| m.0 > now);
                up.extend(want.0.into_iter().map(|msg| (now + wire, msg)));
                down.extend(want.1.into_iter().map(|(_, msg)| (now + wire, msg)));
                // Ticked or asleep, each of the two is the same component.
                prop_assert!(image(&lazy) == image(&eager), "cycle {}", now);
                now += 1;
            }
        }
        prop_assert!(eager.0.is_idle() && eager.1.is_idle() && lazy.0.is_idle() && lazy.1.is_idle());
    }
}
