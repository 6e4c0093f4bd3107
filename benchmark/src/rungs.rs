//! Rungs: each layer's public entry points timed in a tight loop, in
//! isolation, so a change to one layer has a number of its own. The
//! loops follow `crates/bench/benches/*` (whose vendored criterion stub
//! prints and forgets), plus the idle/lossy/fabric/whole-step cases
//! those benches lack.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use gtsc::baselines::{TcL1, TcL1Params, TcL2, TcL2Params};
use gtsc::core::rules::{extend_rts, lease_covers, load_ts, store_wts};
use gtsc::core::{GtscL1, GtscL2, L1Params, L2Params};
use gtsc::energy::{EnergyModel, EnergyParams};
use gtsc::fabric::{DeviceL2, DeviceParams, HomeNode, HomeParams};
use gtsc::faults::FaultPlan;
use gtsc::gpu::{coalesce, Sm, SmParams, VecKernel, WarpOp, WarpProgram};
use gtsc::mem::{Dram, DramRequest, Mshr, TagArray};
use gtsc::noc::{Network, ReliableNet};
use gtsc::protocol::msg::{FillResp, L1ToL2, L2ToL1, LeaseInfo, ReadReq, WriteReq};
use gtsc::protocol::{AccessId, AccessKind, L1Controller, L2Controller, MemAccess};
use gtsc::sim::{GpuSim, KernelProgress, MultiGpuSim, SimBuilder};
use gtsc::types::{
    Addr, BlockAddr, CacheGeometry, ConsistencyModel, CtaId, Cycle, DramConfig, FabricConfig,
    FaultConfig, GpuConfig, Lease, MultiGpuConfig, NocConfig, ProtocolKind, SmId, SpanId,
    Timestamp, TransportConfig, Version, WarpId,
};
use gtsc::workloads::{Benchmark, Scale};
use gtsc_sweep::{JobOutcome, JobResult, Journal, Record};
use gtsc_trace::{EventKind, Sanitizer, Scope, Tracer, Transition};

use crate::spans::Spans;
use crate::stats;
use crate::workloads::{fresh_dir, generate, kernel_seed, LOSS_PERMILLE};

/// Timed samples per rung.
pub const SAMPLES: usize = 5;

/// One measured rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Metric name.
    pub name: &'static str,
    /// Unit of `median` and `best`.
    pub unit: &'static str,
    /// Median of the samples: the metric's value.
    pub median: f64,
    /// Smallest sample.
    pub best: f64,
    /// Samples taken.
    pub samples: usize,
    /// Operations per sample.
    pub ops: u64,
    /// An auxiliary rung: printed by `trace` and used by the written
    /// ladder, but not one of `BENCHMARK.json`'s per-layer metrics.
    pub aux: bool,
}

/// How long the rungs of one run may take.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Target host seconds per sample (`SAMPLES` samples per rung).
    pub sample_s: f64,
}

impl Effort {
    /// What the issue asks for: at least 0.2 s per rung.
    pub const FULL: Effort = Effort { sample_s: 0.04 };
    /// For unit tests: just enough to produce a number.
    pub const SMOKE: Effort = Effort { sample_s: 0.000_2 };
}

/// Seconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Collects rungs; each is a span of the traced run.
struct Ladder<'a> {
    effort: Effort,
    spans: &'a mut Spans,
    rungs: Vec<Rung>,
}

impl Ladder<'_> {
    /// Times `run(n)`, which performs about `n` units of work and returns
    /// the host seconds they took and the operations they amounted to.
    /// `n` is grown until a sample lasts `sample_s`; the value is
    /// `scale` × seconds per operation (`1e9` for ns).
    fn rung(
        &mut self,
        name: &'static str,
        unit: &'static str,
        scale: f64,
        mut run: impl FnMut(u64) -> (f64, u64),
    ) {
        let effort = self.effort;
        let rung = self.spans.scope(&format!("rung:{name}"), |_| {
            let mut n = 1u64;
            let mut probe = run(n);
            while probe.0 < effort.sample_s / 8.0 && n < 1 << 40 {
                n *= 4;
                probe = run(n);
            }
            let n = ((n as f64 * effort.sample_s / probe.0.max(1e-9)).ceil() as u64).max(1);
            let mut ops = 0;
            let samples: Vec<f64> = (0..SAMPLES)
                .map(|_| {
                    let (s, done) = run(n);
                    ops = done;
                    scale * s / done.max(1) as f64
                })
                .collect();
            Rung {
                name,
                unit,
                median: stats::median(&samples),
                best: stats::min(&samples),
                samples: SAMPLES,
                ops,
                aux: !crate::metrics::PER_LAYER.iter().any(|m| m.0 == name),
            }
        });
        self.rungs.push(rung);
    }

    /// A rung whose unit of work is one call of `op`, in nanoseconds.
    fn ns(&mut self, name: &'static str, mut op: impl FnMut()) {
        self.rung(name, "ns", 1e9, |n| {
            let s = timed(|| {
                for _ in 0..n {
                    op();
                }
            });
            (s, n)
        });
    }
}

fn load(id: u64, block: u64) -> MemAccess {
    MemAccess {
        id: AccessId(id),
        warp: WarpId((id % 4) as u16),
        kind: AccessKind::Load,
        block: BlockAddr(block),
        span: SpanId::NONE,
    }
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

fn fill(block: u64, lease: LeaseInfo) -> L2ToL1 {
    L2ToL1::Fill(FillResp {
        block: BlockAddr(block),
        lease,
        version: Version(9),
        epoch: 0,
        span: SpanId::NONE,
    })
}

const FOREVER: LeaseInfo = LeaseInfo::Logical {
    wts: Timestamp(1),
    rts: Timestamp(u32::MAX as u64),
};

/// Serves the L2's DRAM requests instantly until block 3 is resident.
fn warm_l2(l2: &mut dyn L2Controller) {
    l2.on_request(0, read(3, 0, 1), Cycle(0));
    for cyc in 0..64 {
        l2.tick(Cycle(cyc));
        while let Some((block, is_write)) = l2.take_dram_request() {
            l2.on_dram_response(block, is_write, Cycle(cyc));
        }
        while l2.take_response().is_some() {}
    }
}

fn rules(l: &mut Ladder) {
    l.ns("rules.ts_ops_ns", || {
        let wts = store_wts(black_box(Timestamp(1000)), black_box(Timestamp(37)));
        let rts = extend_rts(wts + Lease(10), Timestamp(40), Lease(10));
        let lt = load_ts(Timestamp(12), wts);
        black_box((wts, rts, lt, lease_covers(rts, lt)));
    });
}

fn core(l: &mut Ladder) {
    let mut l1 = GtscL1::new(L1Params::default());
    l1.access(load(0, 5), Cycle(0));
    l1.take_request();
    l1.on_response(fill(5, FOREVER), Cycle(1));
    let mut id = 1u64;
    l.ns("core.l1_hit_ns", || {
        id += 1;
        black_box(l1.access(load(id, 5), Cycle(id)));
    });

    let mut l1 = GtscL1::new(L1Params::default());
    let mut id = 0u64;
    l.ns("core.l1_miss_roundtrip_ns", || {
        id += 1;
        let block = id % 64;
        l1.access(load(id, block), Cycle(id));
        while l1.take_request().is_some() {}
        black_box(l1.on_response(fill(block, FOREVER), Cycle(id)).len());
    });

    let wide = L2Params {
        ts_bits: 48,
        ..L2Params::default()
    };
    let mut l2 = GtscL2::new(wide);
    warm_l2(&mut l2);
    let mut cyc = 100u64;
    l.ns("core.l2_renewal_serve_ns", || {
        cyc += 20;
        l2.on_request(0, read(3, 1, cyc % 50_000), Cycle(cyc));
        l2.tick(Cycle(cyc + 15));
        black_box(l2.take_response());
    });

    let mut l2 = GtscL2::new(wide);
    warm_l2(&mut l2);
    let mut cyc = 100u64;
    l.ns("core.l2_store_serve_ns", || {
        cyc += 20;
        let w = WriteReq {
            block: BlockAddr(3),
            warp_ts: Timestamp(1),
            version: Version(cyc),
            epoch: 0,
            span: SpanId::NONE,
        };
        l2.on_request(0, L1ToL2::Write(w), Cycle(cyc));
        l2.tick(Cycle(cyc + 15));
        black_box(l2.take_response());
        // Write-through traffic would otherwise pile up in the queue.
        while l2.take_dram_request().is_some() {}
    });
}

fn baselines(l: &mut Ladder) {
    let mut l1 = TcL1::new(TcL1Params::default());
    l1.access(load(0, 5), Cycle(0));
    l1.take_request();
    let forever = LeaseInfo::Physical {
        expires: Cycle(u64::MAX),
    };
    l1.on_response(fill(5, forever), Cycle(1));
    let mut id = 1u64;
    l.ns("baselines.tc_l1_hit_ns", || {
        id += 1;
        black_box(l1.access(load(id, 5), Cycle(id)));
    });

    let mut l2 = TcL2::new(TcL2Params::default());
    warm_l2(&mut l2);
    let mut cyc = 100u64;
    l.ns("baselines.tc_l2_serve_ns", || {
        cyc += 20;
        l2.on_request(0, read(3, 0, 0), Cycle(cyc));
        l2.tick(Cycle(cyc + 15));
        black_box(l2.take_response());
    });
}

fn mem(l: &mut Ladder) {
    let mut tags: TagArray<u64> = TagArray::new(CacheGeometry::new(16 * 1024, 4, 128));
    for b in 0..128 {
        tags.fill(BlockAddr(b), b);
    }
    let mut i = 0u64;
    l.ns("mem.tag_probe_hit_ns", || {
        i += 1;
        black_box(tags.probe(BlockAddr(i % 128)).is_some());
    });
    l.ns("mem.tag_fill_evict_ns", || {
        i += 1;
        black_box(tags.fill(BlockAddr(i % 4096), i));
    });

    let mut mshr: Mshr<u64> = Mshr::new(32, 8);
    let mut i = 0u64;
    l.ns("mem.mshr_register_take_ns", || {
        i += 1;
        let block = BlockAddr(i % 16);
        mshr.register(block, i);
        if i.is_multiple_of(4) {
            black_box(mshr.take(block).len());
        }
    });

    let mut dram: Dram<u64> = Dram::new(DramConfig::default());
    let mut cyc = 0u64;
    l.ns("mem.dram_enqueue_tick_ns", || {
        cyc += 1;
        dram.enqueue(DramRequest {
            block: BlockAddr(cyc % 512),
            is_write: cyc.is_multiple_of(5),
            payload: cyc,
        });
        black_box(dram.tick(Cycle(cyc)).len());
    });

    let mut dram: Dram<u64> = Dram::new(DramConfig::default());
    let mut cyc = 0u64;
    l.ns("mem.dram_idle_tick_ns", || {
        cyc += 1;
        black_box(dram.tick(Cycle(cyc)).len());
    });
}

/// One send plus one tick of a 16×8 transport, as the simulator's
/// request network sees them.
fn reliable_send_tick(net: &mut ReliableNet<u64>, cyc: &mut u64) {
    *cyc += 1;
    net.send(
        (*cyc % 16) as usize,
        (*cyc % 8) as usize,
        136,
        *cyc,
        Cycle(*cyc),
    );
    black_box(net.tick(Cycle(*cyc)).len());
}

fn noc(l: &mut Ladder) {
    let mut net: Network<u64> = Network::new(16, 8, NocConfig::default());
    let mut cyc = 0u64;
    l.ns("noc.send_tick_ns", || {
        cyc += 1;
        net.send(
            (cyc % 16) as usize,
            (cyc % 8) as usize,
            136,
            cyc,
            Cycle(cyc),
        );
        black_box(net.tick(Cycle(cyc)).len());
    });

    let mut net: Network<u64> = Network::new(16, 8, NocConfig::default());
    let mut cyc = 0u64;
    l.ns("noc.idle_tick_ns", || {
        cyc += 1;
        black_box(net.tick(Cycle(cyc)).len());
    });

    let mut net: ReliableNet<u64> =
        ReliableNet::new(16, 8, NocConfig::default(), TransportConfig::default());
    let mut cyc = 0u64;
    l.ns("noc.reliable_passthrough_tick_ns", || {
        reliable_send_tick(&mut net, &mut cyc);
    });

    // Armed exactly as `SimBuilder` arms the request network under
    // `FaultConfig::lossy`: data and control fault streams, then enable.
    let faults = FaultConfig::lossy(1, LOSS_PERMILLE);
    let plan = FaultPlan::new(faults);
    let mut net: ReliableNet<u64> =
        ReliableNet::new(16, 8, NocConfig::default(), TransportConfig::default());
    net.set_faults(plan.noc(0), plan.noc(2));
    net.enable(faults.seed);
    let mut cyc = 0u64;
    l.ns("noc.reliable_lossy_tick_ns", || {
        reliable_send_tick(&mut net, &mut cyc);
    });
}

/// An SM as `SimBuilder` builds it for `cfg`, in front of a G-TSC L1.
fn sm_of(cfg: &GpuConfig) -> Sm {
    let params = SmParams {
        id: SmId(0),
        n_warp_slots: cfg.warps_per_sm,
        block_shift: 7,
        consistency: cfg.consistency,
        max_outstanding_per_warp: cfg.max_outstanding_per_warp,
        max_ctas: cfg.max_ctas_per_sm,
        issue_width: 1,
        scheduler: cfg.scheduler,
    };
    Sm::new(params, Box::new(GtscL1::new(L1Params::default())))
}

/// Times SM cycles while `ctas` CTAs of `warps` warps are resident, each
/// warp running `Compute(burst)` instructions; one unit is one cycle.
fn sm_busy_cycles(sm: &mut Sm, ctas: u32, warps: usize, burst: u32, n: u64) -> (f64, u64) {
    let resident = u64::from(ctas) * warps as u64;
    let (mut secs, mut cycles, mut now) = (0.0, 0u64, 0u64);
    while cycles < n {
        // One instruction issues per cycle, so this chunk lasts about
        // `per_warp × resident` cycles.
        let per_warp = ((n - cycles) / resident).clamp(1, 2000) as usize;
        for cta in 0..ctas {
            let programs = vec![WarpProgram(vec![WarpOp::Compute(burst); per_warp]); warps];
            sm.assign_cta(CtaId(cta), programs);
        }
        secs += timed(|| {
            while sm.has_resident_warps() {
                now += 1;
                cycles += 1;
                black_box(sm.cycle(Cycle(now)).len());
            }
        });
    }
    (secs, cycles)
}

fn gpu(l: &mut Ladder) {
    let paper = gtsc_rc(GpuConfig::paper_default());
    let small = gtsc_rc(GpuConfig::test_small());
    for (name, cfg) in [
        ("gpu.sm_cycle_idle_ns", &paper),
        ("gpu.sm_cycle_idle_small_ns", &small),
    ] {
        let mut sm = sm_of(cfg);
        let mut cyc = 0u64;
        l.ns(name, || {
            cyc += 1;
            black_box(sm.cycle(Cycle(cyc)).len());
        });
    }

    // The paper platform's SM fully occupied (6 CTAs × 8 warps, as the
    // Full kernels fill it): one warp issues per cycle while the others
    // wait out short compute bursts, so the scheduler searches every
    // cycle, as it does in a loaded run.
    let mut sm = sm_of(&paper);
    l.rung("gpu.sm_cycle_issue_ns", "ns", 1e9, |n| {
        sm_busy_cycles(&mut sm, 6, 8, 8, n)
    });
    // The test platform's SM with the one resident warp of the L1-hit
    // soak, for the written ladder.
    let mut sm = sm_of(&small);
    l.rung("gpu.sm_cycle_issue_small_ns", "ns", 1e9, |n| {
        sm_busy_cycles(&mut sm, 1, 1, 1, n)
    });

    let addrs: Vec<Addr> = (0..32).map(|i| Addr(0x4000 + i * 4)).collect();
    l.ns("gpu.coalesce_ns", || {
        black_box(coalesce(black_box(&addrs), 7));
    });
}

fn trace(l: &mut Ladder) {
    let mut off = Tracer::disabled();
    let mut cyc = 0u64;
    l.ns("trace.record_disabled_ns", || {
        cyc += 1;
        off.record_with(Cycle(cyc), || EventKind::Hit {
            block: BlockAddr(cyc % 64),
            warp: (cyc % 4) as u16,
            warp_ts: cyc,
            rts: cyc + 10,
        });
        black_box(off.is_enabled());
    });

    let off = Sanitizer::disabled();
    let mut cyc = 0u64;
    l.ns("trace.sanitize_check_disabled_ns", || {
        cyc += 1;
        off.check_with(Cycle(cyc), || Transition::WarpTs {
            warp: (cyc % 4) as u16,
            ts: Timestamp(cyc),
        });
        black_box(off.is_enabled());
    });

    let on = Sanitizer::enabled(Scope::Sm(0));
    let mut cyc = 0u64;
    l.ns("trace.sanitize_check_enabled_ns", || {
        cyc += 1;
        on.check_with(Cycle(cyc), || Transition::WarpTs {
            warp: (cyc % 4) as u16,
            ts: Timestamp(cyc),
        });
        black_box(on.checked());
    });
}

fn gtsc_rc(cfg: GpuConfig) -> GpuConfig {
    cfg.with_protocol(ProtocolKind::Gtsc)
        .with_consistency(ConsistencyModel::Rc)
}

/// Cycles per unit of the idle-step rungs.
const IDLE_BURST: u32 = 1000;

/// One warp waiting out `bursts` compute bursts, each short enough that
/// the forward-progress watchdog stays quiet: every other SM, bank, DRAM
/// partition and both networks are ticked idle. The warp retires as it
/// issues its last instruction, hence one more burst than asked for.
fn idle_kernel(bursts: u64) -> VecKernel {
    let ops = vec![WarpOp::Compute(IDLE_BURST); bursts as usize + 1];
    VecKernel::new("idle-step", 1, vec![vec![WarpProgram(ops)]])
}

/// `perf_baseline`'s single-warp soak with ten times the loads: store
/// four blocks once, then load them over and over.
fn hit_soak_kernel() -> VecKernel {
    let blocks = 4u64;
    let mut ops: Vec<WarpOp> = (0..blocks)
        .map(|b| WarpOp::store_coalesced(Addr(b * 128), 32))
        .collect();
    ops.extend((0..40_000u64).map(|i| WarpOp::load_coalesced(Addr((i % blocks) * 128), 32)));
    VecKernel::new("l1-hit-soak", 1, vec![vec![WarpProgram(ops)]])
}

/// What one run of the L1-hit soak did, for the written ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoakShape {
    /// L1 hits.
    pub hits: u64,
    /// L1 accesses.
    pub accesses: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Warp instructions issued.
    pub issued: u64,
}

fn sim(l: &mut Ladder) -> SoakShape {
    for (name, cfg) in [
        ("sim.step_idle_ns", GpuConfig::paper_default()),
        ("sim.step_idle_small_ns", GpuConfig::test_small()),
    ] {
        let cfg = gtsc_rc(cfg);
        l.rung(name, "ns", 1e9, |n| {
            let kernel = idle_kernel(n);
            let mut sim = GpuSim::new(cfg.clone());
            let mut cycles = 0;
            let s = timed(|| {
                if let Ok(r) = sim.run_kernel(&kernel) {
                    cycles = r.stats.cycles.0;
                }
            });
            (s, cycles)
        });
    }

    let soak = hit_soak_kernel();
    let small = gtsc_rc(GpuConfig::test_small());
    let mut shape = SoakShape::default();
    l.rung("sim.l1_hit_soak_ns", "ns", 1e9, |n| {
        let mut secs = 0.0;
        let mut hits = 0;
        for _ in 0..n {
            let mut sim = GpuSim::new(small.clone());
            secs += timed(|| {
                if let Ok(r) = sim.run_kernel(&soak) {
                    hits += r.stats.l1.hits;
                    shape = SoakShape {
                        hits: r.stats.l1.hits,
                        accesses: r.stats.l1.accesses,
                        cycles: r.stats.cycles.0,
                        issued: r.stats.sm.issued,
                    };
                }
            });
        }
        (secs, hits)
    });

    let paper = gtsc_rc(GpuConfig::paper_default());
    l.rung("sim.build_ms", "ms", 1e3, |n| {
        let s = timed(|| {
            for _ in 0..n {
                black_box(GpuSim::new(paper.clone()));
            }
        });
        (s, n)
    });

    // A finished coherence-heavy run on the paper platform: what
    // `report()` and `memory_image()` cost when a user asks for them.
    let mut done = GpuSim::new(paper.clone());
    let stn = generate(Benchmark::Stn, Scale::Full, kernel_seed(Benchmark::Stn, 0));
    let ran = done.run_kernel(&stn).is_ok();
    l.rung("sim.report_ms", "ms", 1e3, |n| {
        let s = timed(|| {
            for _ in 0..n {
                black_box(done.report().stats.cycles);
            }
        });
        (s, if ran { n } else { 0 })
    });
    l.rung("sim.memory_image_ms", "ms", 1e3, |n| {
        let s = timed(|| {
            for _ in 0..n {
                black_box(done.memory_image().len());
            }
        });
        (s, if ran { n } else { 0 })
    });

    // A lossy test-platform machine 4000 cycles into CC: the state the
    // sweep service checkpoints first.
    let lossy = small
        .clone()
        .with_faults(FaultConfig::lossy(1, LOSS_PERMILLE));
    let cc = generate(Benchmark::Cc, Scale::Small, kernel_seed(Benchmark::Cc, 0));
    let mut mid = GpuSim::new(lossy.clone());
    let mut progress = KernelProgress::new(&cc);
    let parked = matches!(mid.advance_kernel(&cc, &mut progress, 4000), Ok(None));
    let bytes = mid.save_snapshot(Some(&progress)).unwrap_or_default();
    let usable = parked && !bytes.is_empty();
    l.rung("sim.snapshot_save_ms", "ms", 1e3, |n| {
        let s = timed(|| {
            for _ in 0..n {
                black_box(mid.save_snapshot(Some(&progress)).map(|b| b.len()).ok());
            }
        });
        (s, if usable { n } else { 0 })
    });
    l.rung("sim.snapshot_restore_ms", "ms", 1e3, |n| {
        let mut secs = 0.0;
        let mut ok = 0;
        for _ in 0..n {
            let mut target = SimBuilder::new(lossy.clone()).build();
            secs += timed(|| {
                if target.restore_snapshot(&bytes).is_ok() {
                    ok += 1;
                }
            });
        }
        (secs, ok)
    });
    l.rungs.push(Rung {
        name: "sim.snapshot_bytes",
        unit: "bytes",
        median: bytes.len() as f64,
        best: bytes.len() as f64,
        samples: 1,
        ops: 1,
        aux: false,
    });
    shape
}

/// Pumps `dev` against `home` with no fabric latency until block 5's
/// grant is installed; returns the granted write timestamp.
fn warm_device(dev: &mut DeviceL2, home: &mut HomeNode) -> u64 {
    dev.on_request(0, read(5, 0, 1), Cycle(0));
    for c in 0..2000 {
        dev.tick(Cycle(c));
        while let Some(req) = dev.take_fabric_request() {
            home.on_request(0, req, Cycle(c));
        }
        home.tick(Cycle(c));
        while let Some((_, resp)) = home.take_response() {
            dev.on_fabric_response(resp, Cycle(c));
        }
        while dev.take_response().is_some() {}
        if dev.is_idle() && home.is_idle() {
            break;
        }
    }
    dev.installed_grant(BlockAddr(5))
        .map_or(0, |(wts, _)| wts.0)
}

fn fabric(l: &mut Ladder) {
    let mut dev = DeviceL2::new(DeviceParams::default());
    let mut home = HomeNode::new(HomeParams::default());
    let wts = warm_device(&mut dev, &mut home);
    let mut cyc = 3000u64;
    // A covered read: served on-device, no fabric traffic.
    l.ns("fabric.device_l2_serve_ns", || {
        cyc += 20;
        dev.on_request(1, read(5, wts, 2), Cycle(cyc));
        dev.tick(Cycle(cyc + 15));
        black_box(dev.take_response());
    });
    // A device renewing a grant it already holds: served by the directory.
    l.ns("fabric.home_serve_ns", || {
        cyc += 40;
        home.on_request(0, read(5, wts, 2), Cycle(cyc));
        home.tick(Cycle(cyc + 30));
        black_box(home.take_response());
    });

    for (name, n_devices) in [
        ("multi.step_idle_ns_2dev", 2),
        ("multi.step_idle_ns_4dev", 4),
    ] {
        let cfg = MultiGpuConfig {
            n_devices,
            gpu: gtsc_rc(GpuConfig::paper_default()),
            fabric: FabricConfig::default(),
        };
        l.rung(name, "ns", 1e9, |n| {
            let kernel = idle_kernel(n);
            let mut cycles = 0;
            let mut secs = 0.0;
            if let Ok(mut sim) = MultiGpuSim::try_build(cfg.clone()) {
                secs = timed(|| {
                    if let Ok(r) = sim.run_kernel(&kernel) {
                        cycles = r.stats.cycles.0;
                    }
                });
            }
            (secs, cycles)
        });
    }
}

fn workloads_energy(l: &mut Ladder) {
    l.rung("workloads.build_full_ms", "ms", 1e3, |n| {
        let s = timed(|| {
            for _ in 0..n {
                for b in Benchmark::all() {
                    black_box(generate(b, Scale::Full, kernel_seed(b, 0)));
                }
            }
        });
        (s, n)
    });

    let mut sim = GpuSim::new(gtsc_rc(GpuConfig::test_small()));
    let km = generate(Benchmark::Km, Scale::Small, kernel_seed(Benchmark::Km, 0));
    let stats = sim.run_kernel(&km).map(|r| r.stats).unwrap_or_default();
    let model = EnergyModel::new(EnergyParams::default());
    l.rung("energy.estimate_us", "us", 1e6, |n| {
        let s = timed(|| {
            for _ in 0..n {
                black_box(model.estimate(black_box(&stats)).total_nj());
            }
        });
        (s, n)
    });
}

/// One journal append including its fsync, on the filesystem the sweep
/// passes write to.
fn journal(l: &mut Ladder, scratch: &Path) {
    let dir = scratch.join("journal-rung");
    let record = Record::Done {
        result: JobResult {
            id: 0,
            outcome: JobOutcome::Completed,
            cycles: 36_597,
            issued: 2_096,
            l1_accesses: 4_000,
            l1_hits: 1_000,
            violations: 0,
            stats_crc: 0x1234_5678,
            image_crc: 0x9ABC_DEF0,
            detail: String::new(),
        },
    };
    let mut journal = fresh_dir(&dir)
        .and_then(|()| Journal::open(dir.join("journal.bin")))
        .map(|(j, _)| j)
        .ok();
    l.rung("sweep.journal_append_us", "us", 1e6, |n| {
        let mut ok = 0;
        let s = timed(|| {
            if let Some(j) = journal.as_mut() {
                for _ in 0..n {
                    ok += u64::from(j.append(&record).is_ok());
                }
            }
        });
        (s, ok)
    });
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every rung, plus the shape of the L1-hit soak the ladder decomposes.
pub fn run_all(effort: Effort, scratch: &Path, spans: &mut Spans) -> (Vec<Rung>, SoakShape) {
    spans.scope("rungs", |spans| {
        let mut l = Ladder {
            effort,
            spans,
            rungs: Vec::new(),
        };
        rules(&mut l);
        core(&mut l);
        baselines(&mut l);
        mem(&mut l);
        noc(&mut l);
        gpu(&mut l);
        trace(&mut l);
        let shape = sim(&mut l);
        fabric(&mut l);
        workloads_energy(&mut l);
        journal(&mut l, scratch);
        (l.rungs, shape)
    })
}
