//! Plugging a *custom* coherence protocol into the simulator: a toy
//! "epoch-flush" L1 that caches blocks without leases and simply flushes
//! itself every N cycles — a software-style coherence scheme. The point
//! is the mechanism: implement `L1Controller`, hand it to `SimBuilder`,
//! and the unchanged GPU/NoC/DRAM substrate plus the coherence checker do
//! the rest.
//!
//! Run: `cargo run --release --example custom_protocol`

use std::collections::VecDeque;

use gtsc::mem::{Mshr, MshrAlloc, TagArray};
use gtsc::protocol::msg::{L1ToL2, L2ToL1, LeaseInfo, ReadReq, WriteReq};
use gtsc::protocol::{
    AccessKind, Completion, L1Controller, L1Outcome, MemAccess, PendingStore, StoreBook,
    VersionMint, Waiter,
};
use gtsc::sim::SimBuilder;
use gtsc::types::{
    CacheStats, ConsistencyModel, Cycle, GpuConfig, ProtocolKind, Timestamp, Version,
};
use gtsc::workloads::{Benchmark, Scale};

/// A non-coherent L1 that self-flushes every `period` cycles: the crudest
/// "eventual coherence". (It is *not* coherent between flushes — expect
/// the checker to object on sharing workloads; that contrast is the demo.)
struct EpochFlushL1 {
    period: u64,
    last_flush: Cycle,
    tags: TagArray<Version>,
    mshr: Mshr<Waiter>,
    /// Stores awaiting their ack. Every built-in L1 keeps its stores in a
    /// `StoreBook` and names them with a `VersionMint`, so a data-race-free
    /// kernel leaves the same memory image under any of them.
    stores: StoreBook<()>,
    mint: VersionMint,
    out: VecDeque<L1ToL2>,
    /// The completions of the latest `on_response`: the controller keeps
    /// the buffer and lends it out, so a response allocates nothing (see
    /// the validity rule on `L1Outcome::Reject`).
    done: Vec<Completion>,
    stats: CacheStats,
}

impl EpochFlushL1 {
    fn new(cfg: &GpuConfig, sm_index: usize, period: u64) -> Self {
        EpochFlushL1 {
            period,
            last_flush: Cycle(0),
            tags: TagArray::new(cfg.l1),
            mshr: Mshr::new(cfg.l1_mshr_entries, cfg.l1_mshr_merges),
            stores: StoreBook::default(),
            mint: VersionMint::new(sm_index, cfg.warps_per_sm),
            out: VecDeque::new(),
            done: Vec::new(),
            stats: CacheStats::default(),
        }
    }
}

impl L1Controller for EpochFlushL1 {
    fn access(&mut self, acc: MemAccess, _now: Cycle) -> L1Outcome {
        self.stats.accesses += 1;
        match acc.kind {
            AccessKind::Load => {
                if let Some(line) = self.tags.probe(acc.block) {
                    self.stats.hits += 1;
                    return L1Outcome::Hit(Waiter::of(&acc).loaded(acc.block, line.meta));
                }
                self.stats.cold_misses += 1;
                match self.mshr.register(acc.block, Waiter::of(&acc)) {
                    MshrAlloc::Full => L1Outcome::Reject,
                    MshrAlloc::AllocatedNew => {
                        self.out.push_back(L1ToL2::Read(ReadReq {
                            block: acc.block,
                            wts: Timestamp(0),
                            warp_ts: Timestamp(0),
                            epoch: 0,
                            span: acc.span,
                        }));
                        L1Outcome::Queued
                    }
                    MshrAlloc::Merged => L1Outcome::Queued,
                }
            }
            AccessKind::Store | AccessKind::Atomic => {
                self.stats.stores += 1;
                let version = self.mint.mint(acc.warp);
                if let Some(line) = self.tags.probe_mut(acc.block) {
                    line.meta = version;
                }
                let req = WriteReq {
                    block: acc.block,
                    warp_ts: Timestamp(0),
                    version,
                    epoch: 0,
                    span: acc.span,
                };
                self.out.push_back(L1ToL2::store(acc.kind, req));
                self.stores
                    .push(acc.block, PendingStore::new(&acc, version, ()));
                L1Outcome::Queued
            }
        }
    }

    fn on_response(&mut self, msg: L2ToL1, _now: Cycle) -> &[Completion] {
        // Emptied on entry: the slice handed out holds this call's
        // completions and nothing older.
        self.done.clear();
        if let Some((a, prev)) = msg.as_store_ack() {
            // An ack finds its store by version; a duplicate finds none.
            let acked = self.stores.take(a.block, a.version);
            self.done.extend(acked.map(|s| s.acked(a.block, prev)));
        } else if let L2ToL1::Fill(f) = msg {
            debug_assert_eq!(f.lease, LeaseInfo::None);
            self.tags.fill(f.block, f.version);
            let mut waiters = self.mshr.take(f.block);
            let loaded = waiters.drain(..).map(|w| w.loaded(f.block, f.version));
            self.done.extend(loaded);
            // The entry's list goes back for the next miss to reuse.
            self.mshr.recycle(waiters);
        }
        &self.done
    }

    fn take_request(&mut self) -> Option<L1ToL2> {
        self.out.pop_front()
    }

    fn tick(&mut self, now: Cycle) -> &[Completion] {
        // The whole point: periodic self-flush.
        if now - self.last_flush >= self.period {
            self.tags.flush(drop);
            self.last_flush = now;
        }
        &[] // a flush completes nothing
    }

    /// When `tick` next does something unprompted: the next flush, or now
    /// if a request waits to be taken. Optional — the default, `Cycle(0)`,
    /// says "always due" and is correct for any controller, but then the
    /// engine steps every cycle for as long as this L1 is installed
    /// instead of jumping to the cycle something happens in (on HS below:
    /// all 1 718 cycles instead of under three quarters of them). Late is the
    /// one thing the answer must never be: a flush the engine jumped over
    /// is a flush that did not happen on time.
    fn next_event_at(&self) -> Cycle {
        if self.out.is_empty() {
            self.last_flush + self.period
        } else {
            Cycle(0)
        }
    }

    fn flush(&mut self) {
        self.tags.flush(drop);
    }

    fn is_idle(&self) -> bool {
        self.mshr.is_empty() && self.stores.is_empty() && self.out.is_empty()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

fn main() {
    // The custom L1 rides on the plain (no-lease) L2 of the no-L1
    // baseline config.
    let base = GpuConfig::paper_default()
        .with_protocol(ProtocolKind::NoL1)
        .with_consistency(ConsistencyModel::Rc);

    println!("epoch-flush L1 (a software-coherence strawman) vs the built-in systems on HS:\n");
    for period in [100u64, 1000, 10_000] {
        let mut sim = SimBuilder::new(base.clone())
            .with_l1(move |cfg, i| Box::new(EpochFlushL1::new(cfg, i, period)))
            .build();
        let kernel = Benchmark::Hs.build(Scale::Small);
        let report = sim.run_kernel(kernel.as_ref()).expect("completes");
        println!(
            "flush every {period:>6} cycles: {:>6} cycles ({} stepped), L1 hit {:>5.1}%, checker violations {}",
            report.stats.cycles.0,
            sim.stepped_cycles(),
            100.0 * report.stats.l1.hit_rate(),
            report.violations.len()
        );
    }
    let mut bl = SimBuilder::new(base).build();
    let kernel = Benchmark::Hs.build(Scale::Small);
    let report = bl.run_kernel(kernel.as_ref()).expect("completes");
    println!(
        "no-L1 baseline            : {:>6} cycles",
        report.stats.cycles.0
    );

    // On a *publication* pattern the strawman serves stale data between
    // flushes: the reader observes the writer's new FLAG but the old DATA
    // from its own cache — the forbidden message-passing outcome.
    println!("\nmessage-passing under epoch-flush (flush period 5000):");
    let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::NoL1);
    let mut sim = SimBuilder::new(cfg)
        .with_l1(|cfg, i| Box::new(EpochFlushL1::new(cfg, i, 5_000)))
        .build();
    let kernel = stale_mp_kernel();
    sim.run_kernel(&kernel).expect("completes");
    let geom = gtsc::types::CacheGeometry::new(1024, 2, 128);
    let flags = sim
        .checker()
        .load_observations(geom.block_of(gtsc::types::Addr(128)));
    let datas = sim
        .checker()
        .load_observations(geom.block_of(gtsc::types::Addr(0)));
    let forbidden = flags
        .iter()
        .zip(datas.iter())
        .filter(|(f, d)| f.version != Version::ZERO && d.version == Version::ZERO)
        .count();
    println!(
        "forbidden outcomes observed: {forbidden} (new FLAG with stale DATA) — \
         G-TSC produces 0 on the same kernel by construction"
    );
}

/// Writer publishes DATA then FLAG; the reader caches DATA early, later
/// sees the FLAG, and re-reads DATA — which an incoherent L1 serves stale.
fn stale_mp_kernel() -> gtsc::gpu::VecKernel {
    use gtsc::gpu::{VecKernel, WarpOp, WarpProgram};
    use gtsc::types::Addr;
    let writer = WarpProgram(vec![
        WarpOp::Compute(40),
        WarpOp::store_coalesced(Addr(0), 32),
        WarpOp::Fence,
        WarpOp::store_coalesced(Addr(128), 32),
    ]);
    let reader = WarpProgram(vec![
        WarpOp::load_coalesced(Addr(0), 32),
        WarpOp::Compute(400),
        WarpOp::load_coalesced(Addr(128), 32),
        WarpOp::Fence,
        WarpOp::load_coalesced(Addr(0), 32),
    ]);
    VecKernel::new("stale-mp", 1, vec![vec![writer], vec![reader]])
}
