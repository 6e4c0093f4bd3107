//! Host allocation guard (DESIGN.md §15.4): a stepped cycle keeps what
//! it produces and tracks in storage that outlives the cycle, so the
//! allocator is called for dispatch, for the first touch of a block and
//! for amortised growth — not per access. The same allocator also keeps
//! the bytes still live, which bounds what a finished run holds per
//! checker event (DESIGN.md §15.6). Counted, not timed: the counts
//! repeat exactly, so a regression fails here instead of in a benchmark.
//!
//! Release-only: debug builds allocate inside `cfg!(debug_assertions)`
//! checks (`Sm::still_rejected`, the horizon assertions).
#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gtsc::gpu::{VecKernel, WarpOp, WarpProgram};
use gtsc::sim::{CheckpointSource, CheckpointStore, GpuSim, KernelProgress, MultiGpuSim};
use gtsc::types::{
    Addr, ConsistencyModel, CtaId, FabricConfig, GpuConfig, MultiGpuConfig, ProtocolKind,
    SnapshotError,
};
use gtsc::workloads::{Benchmark, Scale};

thread_local! {
    /// `alloc` + `realloc` calls made by this thread (the harness runs
    /// tests on threads of their own, so counts do not mix).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed: `alloc` minus
    /// `dealloc`, plus what each `realloc` grew or shrank.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has been since [`peak_bytes`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live bytes.
fn book(delta: i64) {
    let _ = LIVE.try_with(|c| {
        let live = c.get() + delta;
        c.set(live);
        let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

fn size(n: usize) -> i64 {
    i64::try_from(n).expect("a `Layout` size is at most `isize::MAX`")
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s with no destructor, so touching them neither
// allocates nor outlives its thread (`try_with` covers teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        book(size(layout.size()));
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(-size(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        book(size(new_size) - size(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// Bytes `f` leaves allocated on this thread: what it built and kept,
/// including what its result holds.
fn kept_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

/// The most bytes `f` held allocated on this thread at any one time,
/// above what was live when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

fn gtsc_rc() -> GpuConfig {
    GpuConfig::paper_default()
        .with_protocol(ProtocolKind::Gtsc)
        .with_consistency(ConsistencyModel::Rc)
}

/// `coh_gtsc`'s pass: at the parent of the change that introduced this
/// guard the four kernels made 1 012 300 allocator calls inside
/// `run_kernel` (15–23 per simulated cycle, 3.2–3.6 per L1 access);
/// that change left 60 605, of which the checker's growing record of
/// every completion is half and the first touch of a block (the L2's
/// replay windows, MSHR lists and queues reaching their high-water mark)
/// most of the rest. The budget leaves room for neither a per-access nor
/// a per-cycle allocation: one of either is 300 000 or 60 000 more.
#[test]
fn run_kernel_allocations_stay_bounded() {
    let mut total = 0;
    for b in [Benchmark::Bh, Benchmark::Cc, Benchmark::Dlp, Benchmark::Stn] {
        let kernel = b.build(Scale::Full);
        let mut sim = GpuSim::new(gtsc_rc());
        let (report, n) = allocations(|| sim.run_kernel(kernel.as_ref()).expect("completes"));
        assert!(report.violations.is_empty(), "{}", b.name());
        let (cycles, accesses) = (report.stats.cycles.0, report.stats.l1.accesses);
        println!(
            "{:<4} {n:>8} allocations  {:>6.2} per simulated cycle  {:>5.2} per L1 access",
            b.name(),
            n as f64 / cycles as f64,
            n as f64 / accesses as f64,
        );
        total += n;
    }
    println!("sum  {total:>8} allocations (budget 150000)");
    assert!(
        total <= 150_000,
        "{total} allocator calls inside run_kernel over BH, CC, DLP, STN at Full"
    );

    let kernel = Benchmark::Stn.build(Scale::Small);
    let mut sim = MultiGpuSim::new(MultiGpuConfig {
        n_devices: 2,
        gpu: gtsc_rc(),
        fabric: FabricConfig::default(),
    });
    let (report, n) = allocations(|| sim.run_kernel(kernel.as_ref()).expect("completes"));
    assert!(report.violations.is_empty());
    println!(
        "STN small on 2 devices: {n} allocations, {:.2} per simulated cycle",
        n as f64 / report.stats.cycles.0 as f64
    );
    // 1 411: the fabric path shares every buffer above (10 481 before it
    // did); 1 372 while the device and the home kept ordered maps.
    assert!(n <= 3_000, "{n} allocator calls on the 2-device machine");
}

/// The TC banks keep their stall buffers too: a fill waiting for a victim
/// and a write waiting out a lease are retried every tick from kept lists.
/// BH Small made 55 050 allocator calls inside `run_kernel` under
/// TC-Strong and 21 807 under TC-Weak while each stalled tick rebuilt
/// them; kept, 996 and 892 (G-TSC-RC: 1 321). One allocation per stalled
/// tick is thousands more.
#[test]
fn tc_banks_allocate_nothing_per_stalled_tick() {
    for protocol in [ProtocolKind::Tc, ProtocolKind::TcWeak] {
        let kernel = Benchmark::Bh.build(Scale::Small);
        let cfg = GpuConfig::test_small()
            .with_protocol(protocol)
            .with_consistency(ConsistencyModel::Rc);
        let mut sim = GpuSim::new(cfg);
        let (report, n) = allocations(|| sim.run_kernel(kernel.as_ref()).expect("completes"));
        assert!(report.violations.is_empty(), "{}", protocol.label());
        println!(
            "BH small {:<7} {n:>6} allocations over {} cycles",
            protocol.label(),
            report.stats.cycles.0
        );
        assert!(
            n <= 2_000,
            "{n} allocator calls inside run_kernel under {}",
            protocol.label()
        );
    }
}

/// Generation holds lane addresses without allocating for them
/// (DESIGN.md §15.5): every memory instruction of BH is an affine line, so
/// building the Full kernel allocates per program — its coded stream — and
/// for the kernel's tables and the encoder's reused buffer, not per
/// instruction. With a `Vec` of addresses per instruction the build made
/// at least 76 458 more.
#[test]
fn kernel_generation_allocates_per_program_not_per_instruction() {
    let (kernel, n) = allocations(|| Benchmark::Bh.build(Scale::Full));
    let programs = kernel.n_ctas() * kernel.warps_per_cta();
    println!("BH full: {n} allocations building {programs} programs");
    assert!(
        n <= GENERATION_ALLOCATIONS,
        "{n} allocator calls building BH at Full"
    );
}

/// Building BH Full: 384 programs of about 400 instructions each. The
/// count sits far below the 76 458 memory instructions a per-instruction
/// allocation would add.
const GENERATION_ALLOCATIONS: u64 = 5_000;

/// What a Full kernel keeps is its coded programs (DESIGN.md §15.5): BH
/// kept 6.02 MiB over 131 754 instructions (47.8 bytes each) and CC 52.9
/// bytes each while each instruction was a 32-byte `WarpOp` in a `Vec`
/// grown to 1.5× its length, CC's gathers beside them on the heap. Coded,
/// a line is a few bytes and a gather one or two a lane.
#[test]
fn a_full_kernel_keeps_few_bytes_per_instruction() {
    for (b, bound) in [(Benchmark::Bh, 8.0), (Benchmark::Cc, 16.0)] {
        let (kernel, kept) = kept_bytes(|| b.build(Scale::Full));
        let instructions: usize = (0..kernel.n_ctas())
            .flat_map(|c| (0..kernel.warps_per_cta()).map(move |w| (c, w)))
            .map(|(c, w)| kernel.shared_program(CtaId(c as u32), w).len())
            .sum();
        let per_instruction = kept as f64 / instructions as f64;
        println!(
            "{:<4} full: {kept} bytes kept over {instructions} instructions, {per_instruction:.2} each",
            b.name()
        );
        assert!(
            per_instruction <= bound,
            "{} Full keeps {per_instruction:.2} bytes per instruction (bound {bound})",
            b.name()
        );
    }
}

/// Steady state: once every CTA is dispatched and a kernel re-touches a
/// fixed working set, the machine itself allocates nothing. What is left
/// is the checker's record of each completion, which only ever grows.
#[test]
fn steady_state_slices_allocate_only_for_the_checker() {
    const BLOCKS: u64 = 8;
    let program = |warp: u64| {
        let ops = (0..2_000u64).map(|i| {
            let base = Addr(((warp + i) % BLOCKS) * 128);
            match i % 8 {
                0 => WarpOp::store_coalesced(base, 32),
                3 => WarpOp::Compute(4),
                _ => WarpOp::load_coalesced(base, 32),
            }
        });
        WarpProgram(ops.collect())
    };
    let ctas = (0..16)
        .map(|c| (0..4).map(|w| program(c * 4 + w)).collect())
        .collect();
    let kernel = VecKernel::new("fixed-working-set", 4, ctas);
    let mut sim = GpuSim::new(gtsc_rc());
    let mut progress = KernelProgress::new(&kernel);
    // Warm up: dispatch everything, touch every block, fill every queue.
    while !progress.fully_dispatched() || sim.now().0 < 2_000 {
        let done = sim
            .advance_kernel(&kernel, &mut progress, 500)
            .expect("runs");
        assert!(done.is_none(), "the warm-up must not drain the kernel");
    }
    let events = sim.checker().n_events();
    let (_, n) = allocations(|| {
        for _ in 0..8 {
            let done = sim
                .advance_kernel(&kernel, &mut progress, 500)
                .expect("runs");
            assert!(
                done.is_none(),
                "the measured slices must not drain the kernel"
            );
        }
    });
    let completions = sim.checker().n_events() - events;
    println!("steady state: {n} allocations over 4000 cycles, {completions} completions");
    assert!(
        completions > 4_000,
        "the slices must be busy: {completions}"
    );
    assert_eq!(n, STEADY_STATE_ALLOCATIONS);
}

/// Exact, because the simulation is deterministic (a toolchain whose
/// `Vec` grows differently may move it: re-pin after checking the
/// sites). Over the 4 000 measured cycles and 26 046 completions, every
/// one a doubling: for each of the 8 blocks, two of its coded log
/// (`BlockLog::put`, 8 → 32 KiB: loads, stores and versions in one
/// stream), and 6 of completion buffers (`GtscL1::done` from
/// `serve_waiters`, `Sm::done`) still reaching their high-water mark.
/// Anything else is a regression. This was 54 while each block's loads,
/// stores and versions grew three buffers (two doublings each), and 653
/// while the stores sat in per-block `BTreeMap`s and the versions in
/// hash sets, 623 of them map nodes.
const STEADY_STATE_ALLOCATIONS: u64 = 22;

/// What a finished run keeps grows with the checker's record of every
/// completion — each observed load until `finish` (DESIGN.md §15.6). CC
/// Small under G-TSC-RC, whose checker keeps more loads than stores: its
/// `run_kernel` leaves 859 184 bytes live over 5 083 checker events (169
/// per event) while each load is kept as a 56-byte `LoadObservation`,
/// 671 120 (132 per event) as a 32-byte record, and 438 808 (86.3 per
/// event) delta-coded, with the stores and versions in flat lists —
/// 439 320 (86.4) once each SM kept a buffer for the gather it issues,
/// and 393 672 (77.4) with one record per block — loads, stores and
/// versions in one coded log, one table. The rest is the checker's table
/// and the queues the run grew.
#[test]
fn a_finished_run_keeps_few_bytes_per_checker_event() {
    let kernel = Benchmark::Cc.build(Scale::Small);
    let mut sim = GpuSim::new(gtsc_rc());
    let (report, kept) = kept_bytes(|| sim.run_kernel(kernel.as_ref()).expect("completes"));
    assert!(report.violations.is_empty());
    let events = sim.checker().n_events();
    let per_event = kept as f64 / events as f64;
    println!("CC small: {kept} bytes kept over {events} checker events, {per_event:.1} per event");
    assert!(
        per_event <= KEPT_BYTES_PER_EVENT,
        "{per_event:.1} bytes kept per checker event (bound {KEPT_BYTES_PER_EVENT})"
    );
}

/// Just above the last reading: a load kept as a 32-byte record, or a
/// block's stores and versions in tables of their own again, fails.
const KEPT_BYTES_PER_EVENT: f64 = 80.0;

/// BP touches thousands of blocks once — one store and two loads each —
/// so what its finished run keeps is set by the checker's per-block
/// cost, not its per-event one (DESIGN.md §15.6). BP Small under
/// G-TSC-RC: its `run_kernel` left 275 936 bytes live over 330 checker
/// blocks (836 per block) while each block sat in three hash tables, a
/// `History` and a `VersionSet` allocation beside its load log; one
/// record per block, in one table, leaves 211 904 (642 per block). The
/// rest is the machine's queues and windows at their high-water marks.
#[test]
fn a_finished_run_keeps_few_bytes_per_checker_block() {
    let kernel = Benchmark::Bp.build(Scale::Small);
    let mut sim = GpuSim::new(gtsc_rc());
    let (report, kept) = kept_bytes(|| sim.run_kernel(kernel.as_ref()).expect("completes"));
    assert!(report.violations.is_empty());
    let blocks = sim.checker().footprint().blocks;
    let per_block = kept as f64 / blocks as f64;
    println!("BP small: {kept} bytes kept over {blocks} checker blocks, {per_block:.1} per block");
    assert!(
        per_block <= KEPT_BYTES_PER_BLOCK,
        "{per_block:.1} bytes kept per checker block (bound {KEPT_BYTES_PER_BLOCK})"
    );
}

/// Between the two readings above: the block's history back in three
/// tables fails.
const KEPT_BYTES_PER_BLOCK: f64 = 700.0;

/// A checkpoint image as large as a Full-scale one, and what either
/// direction of the store may hold beside it.
const IMAGE_BYTES: usize = 1 << 20;
const STORE_SLACK: i64 = 64 * 1024;

fn checkpoint_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gtsc-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `CheckpointStore::save` writes the image from the caller's slice
/// (DESIGN.md §14.3): a frame assembled in a buffer of its own would
/// hold a second copy of every image.
#[test]
fn a_checkpoint_save_does_not_copy_the_image() {
    let dir = checkpoint_dir("save");
    let image = vec![0xAB; IMAGE_BYTES];
    let store = CheckpointStore::new(dir.join("job.ck"));
    // Two saves create the two slots, the third overwrites one.
    for what in ["first", "second", "third"] {
        let (saved, peak) = peak_bytes(|| store.save(&image));
        saved.unwrap();
        println!("{what} save of {IMAGE_BYTES} bytes: peak {peak} bytes allocated");
        assert!(peak < STORE_SLACK, "{what} save: {peak} bytes allocated");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `CheckpointStore::load_latest` holds one image at a time: it reads
/// the older slot only after it has dropped the newer one's buffer.
#[test]
fn a_checkpoint_load_holds_one_image_at_a_time() {
    let dir = checkpoint_dir("load");
    let store = CheckpointStore::new(dir.join("job.ck"));
    let parse = |bytes: &[u8]| {
        if bytes[0] == 0xAB {
            Ok(bytes.len())
        } else {
            Err(SnapshotError::BadMagic)
        }
    };
    store.save(&vec![0xAB; IMAGE_BYTES]).unwrap();
    store.save(&vec![0xAB; IMAGE_BYTES]).unwrap();
    let bound = IMAGE_BYTES as i64 + STORE_SLACK;
    let (loaded, peak) = peak_bytes(|| store.load_latest(parse));
    assert_eq!(
        loaded.unwrap().unwrap(),
        (IMAGE_BYTES, CheckpointSource::Primary)
    );
    println!("load of the newest image: peak {peak} bytes allocated");
    assert!(peak <= bound, "{peak} bytes allocated loading one image");
    // A newest image `parse` rejects: the load falls back to the other.
    store.save(&vec![0xCD; IMAGE_BYTES]).unwrap();
    let (loaded, peak) = peak_bytes(|| store.load_latest(parse));
    assert_eq!(
        loaded.unwrap().unwrap(),
        (IMAGE_BYTES, CheckpointSource::Previous)
    );
    println!("load falling back to the older image: peak {peak} bytes allocated");
    assert!(peak <= bound, "{peak} bytes allocated falling back");
    let _ = std::fs::remove_dir_all(dir);
}
