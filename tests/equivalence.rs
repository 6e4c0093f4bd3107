//! Cross-protocol functional equivalence: on data-race-free workloads
//! (the paper's group B), the final memory image must be identical under
//! every protocol and consistency model — timing may differ, values may
//! not. Version ids encode (SM, warp, per-warp store index), so this is a
//! meaningful bit-for-bit comparison.

use std::collections::BTreeMap;

use gtsc::sim::{GpuSim, MultiGpuSim};
use gtsc::types::snap::{crc32, Snap, SnapWriter};
use gtsc::types::{
    BlockAddr, ConsistencyModel, FabricConfig, FaultConfig, GpuConfig, MultiGpuConfig,
    ProtocolKind, SimStats, TraceConfig, Version, WarpScheduler,
};
use gtsc::workloads::{Benchmark, Scale};

fn image_for(b: Benchmark, p: ProtocolKind, m: ConsistencyModel) -> BTreeMap<BlockAddr, Version> {
    let cfg = GpuConfig::test_small().with_protocol(p).with_consistency(m);
    let kernel = b.build(Scale::Tiny);
    let label = cfg.label();
    let mut sim = GpuSim::new(cfg);
    let report = sim.run_kernel(kernel.as_ref()).expect("completes");
    assert!(report.violations.is_empty(), "{} {label}", b.name());
    // Only written blocks matter (clean blocks may or may not be resident).
    sim.memory_image()
        .into_iter()
        .filter(|(_, v)| *v != Version::ZERO)
        .collect()
}

#[test]
fn group_b_final_images_agree_across_protocols() {
    let systems = [
        (ProtocolKind::NoL1, ConsistencyModel::Rc),
        (ProtocolKind::Gtsc, ConsistencyModel::Rc),
        (ProtocolKind::Gtsc, ConsistencyModel::Sc),
        (ProtocolKind::Tc, ConsistencyModel::Sc),
        (ProtocolKind::TcWeak, ConsistencyModel::Rc),
        (ProtocolKind::L1NoCoherence, ConsistencyModel::Rc),
    ];
    for b in Benchmark::group_b() {
        let reference = image_for(b, systems[0].0, systems[0].1);
        assert!(!reference.is_empty(), "{} writes something", b.name());
        for (p, m) in &systems[1..] {
            let img = image_for(b, *p, *m);
            assert_eq!(
                img,
                reference,
                "{} final image diverged under {:?}/{:?}",
                b.name(),
                p,
                m
            );
        }
    }
}

/// The same holds for G-TSC across lease values and timestamp widths:
/// protocol parameters change timing, never results.
#[test]
fn gtsc_parameters_do_not_change_results() {
    let b = Benchmark::Ge;
    let reference = image_for(b, ProtocolKind::Gtsc, ConsistencyModel::Rc);
    for (lease, ts_bits) in [(8u64, 16u32), (20, 16), (10, 8), (10, 10)] {
        let mut cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_lease(gtsc::types::Lease(lease));
        cfg.ts_bits = ts_bits;
        let kernel = b.build(Scale::Tiny);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(kernel.as_ref()).expect("completes");
        assert!(
            report.violations.is_empty(),
            "lease={lease} ts_bits={ts_bits}"
        );
        let img: BTreeMap<BlockAddr, Version> = sim
            .memory_image()
            .into_iter()
            .filter(|(_, v)| *v != Version::ZERO)
            .collect();
        assert_eq!(img, reference, "lease={lease} ts_bits={ts_bits}");
    }
}

/// TC-Strong parks requests behind stalled writes in per-block queues
/// and drains them by walking the queue map; that walk must not depend
/// on a per-process hash seed. It only shows once several blocks of one
/// bank stall at once, which takes the paper's 16-SM machine at full
/// scale: there, two runs of a sharing kernel disagreed on cycles until
/// the queue map became ordered.
#[test]
fn tc_strong_is_run_to_run_deterministic() {
    let run = || {
        let cfg = GpuConfig::paper_default()
            .with_protocol(ProtocolKind::Tc)
            .with_consistency(ConsistencyModel::Sc);
        let kernel = Benchmark::Dlp.build(Scale::Full);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(kernel.as_ref()).expect("completes");
        (
            report.stats.cycles,
            report.stats.sm.issued,
            sim.memory_image(),
        )
    };
    assert_eq!(run(), run(), "TC-Strong runs diverged");
}

/// CRC32 over the snap encoding of the full `SimStats` — every counter,
/// histogram bucket and cycle-reason bucket, not just the golden triple.
fn stats_crc(stats: &SimStats) -> u32 {
    let mut w = SnapWriter::new();
    stats.save(&mut w);
    crc32(&w.into_bytes())
}

const PINNED_BENCHES: [Benchmark; 4] =
    [Benchmark::Ccp, Benchmark::Bp, Benchmark::Bh, Benchmark::Stn];

/// The paper platform with a 4-entry L1 MSHR: Small kernels then spend
/// most cycles re-presenting rejected accesses, as the Full ones do.
fn tight_mshr(mut cfg: GpuConfig) -> GpuConfig {
    cfg.l1_mshr_entries = 4;
    cfg
}

/// A dormant SM (DESIGN.md §15.2) replays what its skipped scans would
/// have booked, so no simulated statistic may move. These CRCs were
/// computed by the per-cycle-scan implementation that preceded dormancy;
/// they cover the issue rules (RC window, SC blocking), fences held to
/// TC-Weak's GWCT — polled every cycle then, a horizon the SM sleeps to
/// now (BH, STN under TC-RC, which must keep stalling on it) — a lossy
/// NoC with the sanitizer armed, and MSHR rejection storms under both
/// schedulers and under physical-time leases.
#[test]
fn full_stats_match_the_per_cycle_scan_pins() {
    use ConsistencyModel::{Rc, Sc};
    use ProtocolKind::{Gtsc, Tc, TcWeak};
    type Tweak = fn(GpuConfig) -> GpuConfig;
    let systems: [(&str, Tweak, [u32; 4]); 8] = [
        (
            "G-TSC-RC",
            |c| c,
            [0xff0534c4, 0x4c420248, 0x1454a5a4, 0x92db10c0],
        ),
        (
            "G-TSC-SC",
            |c| c.with_consistency(Sc),
            [0x112e1843, 0x99006a05, 0x64e39244, 0x8b45af01],
        ),
        (
            "TC-RC",
            |c| c.with_protocol(TcWeak).with_consistency(Rc),
            [0x336f7f65, 0x2e3bc457, 0xa45cb291, 0xb81a62a0],
        ),
        (
            "TC-SC",
            |c| c.with_protocol(Tc).with_consistency(Sc),
            [0xbb976c68, 0x6638ec19, 0xdd8badd2, 0x534b95a9],
        ),
        (
            "G-TSC-RC lossy",
            |c| c.with_faults(FaultConfig::lossy(1, 10)).with_sanitize(true),
            [0x74a90ef2, 0x28a81f53, 0xf77c0d5a, 0x24a80a10],
        ),
        (
            "G-TSC-RC tight MSHR",
            tight_mshr,
            [0x9b0687ca, 0x333859a9, 0xcaca1f11, 0x8578240c],
        ),
        (
            "G-TSC-RC tight MSHR round-robin",
            |c| {
                let mut c = tight_mshr(c);
                c.scheduler = WarpScheduler::RoundRobin;
                c
            },
            [0xc42e742d, 0x3c0e59d6, 0xe48c5c3f, 0x4a3591b1],
        ),
        (
            "TC-RC tight MSHR",
            |c| tight_mshr(c.with_protocol(TcWeak).with_consistency(Rc)),
            [0xf43264ef, 0xe8a9bc14, 0x0077dc16, 0x85d55e3c],
        ),
    ];
    for (label, tweak, pins) in systems {
        for (b, pin) in PINNED_BENCHES.into_iter().zip(pins) {
            let cfg = tweak(GpuConfig::paper_default().with_protocol(Gtsc));
            let mut sim = GpuSim::new(cfg);
            let report = sim
                .run_kernel(b.build(Scale::Small).as_ref())
                .expect("completes");
            assert!(report.violations.is_empty(), "{} {label}", b.name());
            assert_eq!(
                stats_crc(&report.stats),
                pin,
                "{} under {label}: full SimStats moved ({:#010x})",
                b.name(),
                stats_crc(&report.stats)
            );
            if label == "TC-RC" && matches!(b, Benchmark::Bh | Benchmark::Stn) {
                let fence_stalls = report.stats.sm.fence_stall_cycles;
                assert!(fence_stalls > 0, "{} no longer waits on a GWCT", b.name());
            }
        }
    }
}

/// DLP is the fence-heaviest generator: under TC-RC its warps spend more
/// cycles parked at a fence behind their GWCT than the kernel has cycles
/// per SM. Pinned at the last commit that polled those fences.
#[test]
fn tc_weak_fence_horizons_match_the_polled_pin() {
    let cfg = GpuConfig::paper_default()
        .with_protocol(ProtocolKind::TcWeak)
        .with_consistency(ConsistencyModel::Rc);
    let mut sim = GpuSim::new(cfg);
    let report = sim
        .run_kernel(Benchmark::Dlp.build(Scale::Small).as_ref())
        .expect("completes");
    assert!(report.violations.is_empty());
    assert!(report.stats.sm.fence_stall_cycles > report.stats.cycles.0);
    assert_eq!(
        stats_crc(&report.stats),
        0x8414_c3d4,
        "DLP under TC-RC: full SimStats moved ({:#010x})",
        stats_crc(&report.stats)
    );
}

/// The same pin on the two-device fabric topology, where most SMs of
/// the second device sit without warps.
#[test]
fn multi_gpu_full_stats_match_the_per_cycle_scan_pins() {
    for (b, pin) in PINNED_BENCHES
        .into_iter()
        .zip([0x84fcc7d1, 0x0a24cc6e, 0x7e5dad86, 0xee00f0ba])
    {
        let cfg = MultiGpuConfig {
            n_devices: 2,
            gpu: GpuConfig::paper_default(),
            fabric: FabricConfig::default(),
        };
        let mut sim = MultiGpuSim::new(cfg);
        let report = sim
            .run_kernel(b.build(Scale::Small).as_ref())
            .expect("completes");
        assert!(report.violations.is_empty(), "{}", b.name());
        assert_eq!(
            stats_crc(&report.stats),
            pin,
            "{} on 2 devices: full SimStats moved ({:#010x})",
            b.name(),
            stats_crc(&report.stats)
        );
    }
}

/// Span sampling hashes the access ordinal, and every rejected attempt
/// consumes one: a dormant SM that did not advance `next_access` by its
/// rejected count would sample a different set of accesses.
#[test]
fn sampled_span_ids_match_the_per_cycle_scan_pin() {
    let mut cfg = tight_mshr(GpuConfig::paper_default());
    cfg.trace = cfg.trace.with_spans(4, 3);
    let mut sim = GpuSim::new(cfg);
    sim.run_kernel(Benchmark::Ccp.build(Scale::Small).as_ref())
        .expect("completes");
    let mut ids: Vec<u64> = sim.spans().iter().map(|s| s.id.0).collect();
    ids.sort_unstable();
    let mut w = SnapWriter::new();
    ids.save(&mut w);
    let crc = crc32(&w.into_bytes());
    assert_eq!(
        (ids.len(), crc),
        (87, 0xad57_e49b),
        "sampled span set moved ({}, {crc:#010x})",
        ids.len()
    );
}

/// A fully traced run emits every per-cycle event through the same path
/// as before the engine learnt to jump (a traced SM never sleeps, so its
/// horizon is always the next cycle), and every event carries the cycle
/// the engine handed its component — also those of a reset, an eviction
/// or a DRAM enqueue in a component the cycle otherwise left alone. A
/// lossy NoC, 8-bit timestamps rolling over, and two bank crashes. Pinned
/// at the last commit that ticked everything every cycle, but for its 321
/// `dram_enqueue` events: that engine dated them at the partition's
/// previous tick, one cycle before the enqueue; they now read its cycle.
#[test]
fn full_trace_matches_the_tick_every_cycle_pin() {
    let cfg = GpuConfig::paper_default()
        .with_protocol(ProtocolKind::Gtsc)
        .with_faults(FaultConfig::lossy(1, 10).with_bank_crashes(2, 400))
        .with_trace(TraceConfig::full());
    let mut sim = GpuSim::new(cfg);
    sim.run_kernel(Benchmark::Ccp.build(Scale::Small).as_ref())
        .expect("completes");
    let events = sim.trace_events();
    let text: String = events.iter().map(|e| format!("{e}\n")).collect();
    let crc = crc32(text.as_bytes());
    assert_eq!(
        (events.len(), crc),
        (194_475, 0xa9f8_93c4),
        "trace moved ({}, {crc:#010x})",
        events.len()
    );
}
