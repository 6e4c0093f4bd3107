//! Whole-machine snapshot determinism, end to end: checkpoint a GPU
//! mid-kernel under active fault injection (lossy NoC + L2 bank
//! crashes), restore it into a freshly built machine, and prove the
//! continuation is indistinguishable — byte for byte — from a run that
//! was never interrupted. Plus corruption handling: damaged images
//! must produce structured [`SnapshotError`]s (never a panic) and the
//! [`CheckpointStore`] must fall back to its previous good image.

use proptest::prelude::*;

use gtsc::gpu::Kernel;
use gtsc::sim::{
    CheckpointError, CheckpointSource, CheckpointStore, GpuSim, KernelProgress, MultiGpuSim,
    SimBuilder,
};
use gtsc::types::snap::{crc32, Snap, SnapWriter, SnapshotError};
use gtsc::types::{
    ConsistencyModel, FabricConfig, FaultConfig, GpuConfig, MultiGpuConfig, ProtocolKind,
};
use gtsc::workloads::{Benchmark, Scale};

fn faulty_config(seed: u64, drop_permille: u16) -> GpuConfig {
    GpuConfig::test_small()
        .with_protocol(ProtocolKind::Gtsc)
        .with_consistency(ConsistencyModel::Rc)
        .with_faults(FaultConfig::lossy(seed, drop_permille).with_bank_crashes(2, 400))
}

fn build(cfg: &GpuConfig) -> GpuSim {
    SimBuilder::new(cfg.clone())
        .try_build()
        .expect("test config builds")
}

/// Advances in fixed slices until at least `min_cycles` have elapsed.
/// Returns true if the kernel drained before reaching that point.
fn advance_past(
    sim: &mut GpuSim,
    kernel: &dyn Kernel,
    progress: &mut KernelProgress,
    slice: u64,
    min_cycles: u64,
) -> bool {
    while sim.now().0 < min_cycles {
        if sim
            .advance_kernel(kernel, progress, slice)
            .expect("advance")
            .is_some()
        {
            return true;
        }
    }
    false
}

fn finish(
    sim: &mut GpuSim,
    kernel: &dyn Kernel,
    progress: &mut KernelProgress,
) -> gtsc::sim::RunReport {
    loop {
        if let Some(report) = sim.advance_kernel(kernel, progress, 997).expect("advance") {
            return report;
        }
    }
}

/// The acceptance-criteria determinism proof: for 20 seeds, a run that
/// is checkpointed mid-kernel under active faults and continued in a
/// *different* simulator instance matches the uninterrupted run's
/// stats, violations, and memory image exactly.
#[test]
fn twenty_seeds_mid_kernel_restore_matches_uninterrupted() {
    for seed in 0..20u64 {
        let bench = if seed % 2 == 0 {
            Benchmark::Km
        } else {
            Benchmark::Hs
        };
        let kernel = bench.build(Scale::Tiny);
        let cfg = faulty_config(seed, 50 + (seed as u16 % 4) * 10);

        let mut straight = build(&cfg);
        let reference = straight.run_kernel(&*kernel).expect("uninterrupted run");

        let mut first = build(&cfg);
        let mut progress = KernelProgress::new(&*kernel);
        let drained = advance_past(&mut first, &*kernel, &mut progress, 97, 150);
        assert!(
            !drained,
            "seed {seed}: kernel drained before the checkpoint"
        );
        let snapshot = first.save_snapshot(Some(&progress)).expect("snapshot");
        drop(first); // the original machine is gone — like a killed process

        let mut second = build(&cfg);
        let restored = second
            .restore_snapshot(&snapshot)
            .expect("restore")
            .expect("snapshot carried kernel progress");
        assert_eq!(restored.dispatched(), progress.dispatched(), "seed {seed}");
        let mut progress = restored;
        let resumed = finish(&mut second, &*kernel, &mut progress);

        assert_eq!(
            resumed.stats, reference.stats,
            "seed {seed}: stats diverged"
        );
        assert_eq!(
            resumed.violations.len(),
            reference.violations.len(),
            "seed {seed}: violations diverged"
        );
        assert_eq!(
            second.memory_image(),
            straight.memory_image(),
            "seed {seed}: memory image diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 100, ..ProptestConfig::default() })]

    /// snapshot → restore → snapshot is byte-identical across random
    /// seeds, loss rates, and checkpoint instants, with the lossy NoC
    /// and bank-crash machinery active.
    #[test]
    fn snapshot_restore_snapshot_is_byte_identical(
        seed in 0u64..1_000_000,
        drop_permille in 0u16..120,
        checkpoint_at in 60u64..400,
        slice in 31u64..257,
    ) {
        let kernel = Benchmark::Km.build(Scale::Tiny);
        let cfg = faulty_config(seed, drop_permille);
        let mut sim = build(&cfg);
        let mut progress = KernelProgress::new(&*kernel);
        advance_past(&mut sim, &*kernel, &mut progress, slice, checkpoint_at);
        let first = sim.save_snapshot(Some(&progress)).expect("snapshot");

        let mut rebuilt = build(&cfg);
        let restored = rebuilt.restore_snapshot(&first).expect("restore");
        let second = rebuilt.save_snapshot(restored.as_ref()).expect("re-snapshot");
        prop_assert_eq!(first, second);
    }

    /// Corrupting a snapshot anywhere — truncation or bit flips — must
    /// yield a structured error, never a panic, and never a sim that
    /// silently half-restored.
    #[test]
    fn corrupted_snapshots_error_cleanly(
        seed in 0u64..10_000,
        cut_permille in 1u32..999,
        flip_at in 0usize..4096,
    ) {
        let kernel = Benchmark::Hs.build(Scale::Tiny);
        let cfg = faulty_config(seed, 40);
        let mut sim = build(&cfg);
        let mut progress = KernelProgress::new(&*kernel);
        advance_past(&mut sim, &*kernel, &mut progress, 101, 120);
        let good = sim.save_snapshot(Some(&progress)).expect("snapshot");

        // Truncation at a proportional point.
        let cut = (good.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let mut fresh = build(&cfg);
        prop_assert!(fresh.restore_snapshot(&good[..cut]).is_err());

        // Single bit flip.
        let mut flipped = good.clone();
        let i = flip_at % flipped.len();
        flipped[i] ^= 1 << (flip_at % 8);
        let mut fresh = build(&cfg);
        prop_assert!(fresh.restore_snapshot(&flipped).is_err());

        // The pristine bytes still restore after all that.
        let mut fresh = build(&cfg);
        prop_assert!(fresh.restore_snapshot(&good).is_ok());
    }
}

/// A damaged newest checkpoint image falls back to the previous good
/// image; only when both are damaged does the loader report (not
/// panic) `AllCorrupt`.
#[test]
fn checkpoint_store_falls_back_to_previous_good_image() {
    let dir = std::env::temp_dir().join(format!("gtsc-snapshot-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::new(dir.join("sim.ck"));

    let kernel = Benchmark::Km.build(Scale::Tiny);
    let cfg = faulty_config(7, 60);
    let mut sim = build(&cfg);
    let mut progress = KernelProgress::new(&*kernel);

    advance_past(&mut sim, &*kernel, &mut progress, 97, 120);
    store
        .save(&sim.save_snapshot(Some(&progress)).unwrap())
        .unwrap();
    // The slot the second save overwrites holds the newest image; the
    // other keeps the first. Neither name says which is which.
    let slots = [dir.join("sim.ck"), dir.join("sim.ck.prev")];
    let read_slots = || slots.clone().map(|p| std::fs::read(p).ok());
    let before = read_slots();
    advance_past(&mut sim, &*kernel, &mut progress, 97, 240);
    store
        .save(&sim.save_snapshot(Some(&progress)).unwrap())
        .unwrap();
    let after = read_slots();
    let newest = usize::from(before[0] == after[0]);
    assert_ne!(before[newest], after[newest], "the save wrote neither slot");
    assert!(after[1 - newest].is_some(), "the first image was not kept");

    let parse = |bytes: &[u8]| -> Result<KernelProgress, SnapshotError> {
        let mut fresh = build(&cfg);
        fresh
            .restore_snapshot(bytes)?
            .ok_or(SnapshotError::MissingSection {
                name: "progress".into(),
            })
    };

    // Both images good: primary wins and reflects the later cycle.
    let (latest, src) = store.load_latest(parse).unwrap().unwrap();
    assert_eq!(src, CheckpointSource::Primary);
    assert_eq!(latest.dispatched(), progress.dispatched());

    // Scribble the newest image: the previous image must load instead.
    let mut bytes = after[newest].clone().unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&slots[newest], &bytes).unwrap();
    let (_, src) = store.load_latest(parse).unwrap().unwrap();
    assert_eq!(
        src,
        CheckpointSource::Previous,
        "fallback to the previous image expected"
    );

    // Destroy the fallback too: structured error, not a panic.
    std::fs::write(&slots[1 - newest], b"not a snapshot").unwrap();
    match store.load_latest(parse) {
        Err(CheckpointError::AllCorrupt { primary, fallback }) => {
            assert!(primary.is_some() && fallback.is_some());
        }
        other => panic!("expected AllCorrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn snap_crc(v: &impl Snap) -> u32 {
    let mut w = SnapWriter::new();
    v.save(&mut w);
    crc32(&w.into_bytes())
}

/// Restores a fixture image into `$sim`, re-saves it, runs the kernel
/// out and returns `(cycles, stats CRC, memory-image CRC, final
/// snapshot CRC)` — what the build that wrote the image recorded.
macro_rules! land_fixture {
    ($file:literal, $sim:expr, $bench:expr) => {{
        let image: &[u8] = include_bytes!(concat!("fixtures/", $file));
        let kernel = $bench.build(Scale::Small);
        let mut sim = $sim;
        let mut progress = sim
            .restore_snapshot(image)
            .expect("a SNAP_VERSION 3 image still loads")
            .expect("the fixture is a mid-kernel checkpoint");
        let resaved = sim.save_snapshot(Some(&progress)).expect("re-save");
        assert!(resaved == image, "{}: restore -> save changed bytes", $file);
        let report = loop {
            let slice = sim.advance_kernel(&*kernel, &mut progress, 997);
            if let Some(report) = slice.expect("advance") {
                break report;
            }
        };
        assert!(report.violations.is_empty(), "{}", $file);
        let last = sim.save_snapshot(None).expect("final snapshot");
        (
            report.stats.cycles.0,
            snap_crc(&report.stats),
            snap_crc(&sim.memory_image()),
            crc32(&last),
        )
    }};
}

/// Runs `$bench` Small on `$sim` in 37-cycle slices and returns `(now,
/// save_snapshot CRC)` at the first three slice ends of a slice that
/// stepped one cycle and jumped the other 36: the cycle the machine last
/// settled at, written after each bank's, DRAM partition's and home
/// node's state (DESIGN.md §14.1), is 36 cycles behind `now` there.
macro_rules! mid_jump_crcs {
    ($sim:expr, $bench:expr) => {{
        let kernel = $bench.build(Scale::Small);
        let mut sim = $sim;
        let mut progress = KernelProgress::new(&*kernel);
        let mut crcs = Vec::new();
        while crcs.len() < 3 {
            let stepped = sim.stepped_cycles();
            let slice = sim.advance_kernel(&*kernel, &mut progress, 37);
            assert!(slice.expect("advance").is_none(), "drained first");
            if sim.stepped_cycles() == stepped + 1 {
                let image = sim.save_snapshot(Some(&progress)).expect("snapshot");
                crcs.push((sim.now().0, crc32(&image)));
            }
        }
        crcs
    }};
}

/// The images no fixture covers: those of a slice that ends inside a jump,
/// where the settled cycle is not `now - 1`. Pinned at the build whose
/// banks, partitions and home node each kept that cycle as a `clock` of
/// their own, on one device and on two.
#[test]
fn mid_jump_images_match_the_pins() {
    let gtsc = GpuConfig::paper_default().with_protocol(ProtocolKind::Gtsc);
    assert_eq!(
        mid_jump_crcs!(GpuSim::new(gtsc.clone()), Benchmark::Ccp),
        [
            (4_921, 0xb7e8_6613),
            (5_106, 0x1c42_77f9),
            (5_735, 0xf527_aef9)
        ],
        "CCP Small on one device"
    );
    let two = MultiGpuConfig {
        n_devices: 2,
        gpu: gtsc,
        fabric: FabricConfig::default(),
    };
    assert_eq!(
        mid_jump_crcs!(MultiGpuSim::new(two), Benchmark::Stn),
        [
            (555, 0x26c1_400b),
            (3_626, 0x7354_7cb1),
            (3_774, 0x580f_8d24)
        ],
        "STN Small on two devices"
    );
}

/// Snapshots **written by the parent build** of the change that shared
/// warp programs, swapped the hasher of simulation-state maps and hashed
/// the checker's outer maps (commit 91d45cf; `tests/fixtures/README.md`
/// has the recipe) restore, re-save byte for byte, and land on the four
/// numbers that build landed on when it restored them itself: the
/// `pc`-relative program encoding, the hasher and the checker's
/// representation are invisible on disk.
#[test]
fn parent_written_snapshots_restore_resave_and_land_where_the_parent_did() {
    // The whole configuration is fingerprinted: `max_cycles` is what
    // `test_small()` said when the images were written.
    let gtsc_rc = GpuConfig {
        max_cycles: 5_000_000,
        ..GpuConfig::test_small()
    }
    .with_protocol(ProtocolKind::Gtsc)
    .with_consistency(ConsistencyModel::Rc);
    assert_eq!(
        land_fixture!(
            "ccp_small_lossy.snap",
            GpuSim::new(gtsc_rc.clone().with_faults(FaultConfig::lossy(3, 10))),
            Benchmark::Ccp
        ),
        (23_926, 0x1d4a_1064, 0xc1a9_a6ea, 0xe0f3_1310),
        "CCP Small, lossy(3, 10), checkpointed at cycle 1500"
    );
    assert_eq!(
        land_fixture!(
            "stn_small_2dev_fabric_loss.snap",
            MultiGpuSim::new(MultiGpuConfig {
                n_devices: 2,
                gpu: gtsc_rc,
                fabric: FabricConfig::default().lossy(5, 10),
            }),
            Benchmark::Stn
        ),
        (12_634, 0x24f8_3848, 0xd26b_c31d, 0x4a1f_bfb3),
        "STN Small on 2 devices, fabric lossy(5, 10), checkpointed at cycle 1500"
    );
}
