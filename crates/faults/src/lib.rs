//! Seeded, deterministic fault injection for the G-TSC simulator.
//!
//! A coherence protocol's correctness argument must hold under *any*
//! message timing — G-TSC inherits Tardis's proof obligation that leases
//! and timestamps order accesses regardless of physical delays. This
//! crate turns that obligation into an executable test surface: a
//! [`FaultPlan`] derived from a [`FaultConfig`](gtsc_types::FaultConfig)
//! hands each perturbable component (NoC direction, DRAM partition, L2
//! bank) its own [`NocFaults`] / [`DramFaults`] / [`BankFaults`]
//! injector. The classic NoC faults *delay*, *reorder within a bounded
//! window*, or *duplicate* — eventual delivery is preserved, so a
//! correct protocol must stay violation-free under every seed on the
//! raw NoC. The *loss* faults go further: packets may be **dropped** or
//! their payload **corrupted**, and a whole L2 bank may **crash**
//! (losing its tag array and transport state). Those are only
//! survivable with the reliable-transport layer in `gtsc-noc`, which
//! the simulator enables automatically whenever a loss fault is
//! configured.
//!
//! Determinism is the load-bearing property: every decision comes from a
//! [`SplitMix64`] stream seeded from the plan's master seed and the
//! component's index, and the simulator consults injectors in a fixed
//! order. Replaying a failing seed reproduces the run byte-for-byte.
//!
//! # Examples
//!
//! ```
//! use gtsc_faults::FaultPlan;
//! use gtsc_types::FaultConfig;
//!
//! let plan = FaultPlan::new(FaultConfig::chaos(42));
//! let mut a = plan.noc(0).expect("chaos enables NoC faults");
//! let mut b = plan.noc(0).expect("same stream again");
//! for _ in 0..100 {
//!     assert_eq!(a.perturb(), b.perturb()); // bitwise-identical streams
//! }
//! assert!(plan.noc(1).is_some());
//! assert_eq!(plan.effective_ts_bits(16), 8); // chaos caps ts_bits at 8
//! ```

use gtsc_types::FaultConfig;

/// SplitMix64: a tiny, statistically solid, trivially seedable generator.
/// Chosen over a `rand` dependency so fault streams are stable across
/// toolchains and the crate stays dependency-light.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream fully determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `0` when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// `true` with probability `permille / 1000`.
    pub fn chance(&mut self, permille: u16) -> bool {
        self.below(1000) < u64::from(permille.min(1000))
    }
}

/// Counters an injector accumulates, for post-run diagnostics and the
/// `stress_faults` soak summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets/requests that received latency jitter.
    pub jittered: u64,
    /// Packets held back a reorder window.
    pub reordered: u64,
    /// Packets delivered twice.
    pub duplicated: u64,
    /// Packets dropped at injection (loss fault).
    pub dropped: u64,
    /// Packets whose payload was corrupted in flight (loss fault).
    pub corrupted: u64,
    /// L2-bank crash/recovery events fired.
    pub bank_resets: u64,
    /// Total extra cycles injected across all perturbations.
    pub extra_cycles: u64,
}

impl FaultStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.jittered += other.jittered;
        self.reordered += other.reordered;
        self.duplicated += other.duplicated;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.bank_resets += other.bank_resets;
        self.extra_cycles += other.extra_cycles;
    }
}

/// The fate the injector assigns one NoC packet at injection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketFate {
    /// Extra cycles added to the packet's wire latency.
    pub extra_delay: u64,
    /// When `Some(lag)`, deliver a second copy `lag` cycles after the
    /// (already delayed) original.
    pub duplicate: Option<u64>,
    /// The packet vanishes at injection (loss fault; overrides the
    /// other fields — nothing is delivered, not even a duplicate).
    pub dropped: bool,
    /// The payload arrives unusable; the header survives, so the
    /// receiver still learns `(src, dst)` and can NACK the flow.
    pub corrupted: bool,
}

/// Per-network fault injector (jitter, bounded reorder, duplication).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocFaults {
    cfg: FaultConfig,
    rng: SplitMix64,
    stats: FaultStats,
}

impl NocFaults {
    /// Decides the fate of the next injected packet. Consumes a fixed
    /// number of RNG draws per call so streams stay aligned across runs.
    pub fn perturb(&mut self) -> PacketFate {
        let mut extra = 0u64;
        if self.rng.chance(self.cfg.noc_jitter_permille) && self.cfg.noc_jitter_max > 0 {
            let j = 1 + self.rng.below(self.cfg.noc_jitter_max);
            extra += j;
            self.stats.jittered += 1;
        } else {
            let _ = self.rng.next_u64(); // keep draw count constant
        }
        if self.rng.chance(self.cfg.noc_reorder_permille) {
            extra += self.cfg.noc_reorder_window;
            self.stats.reordered += 1;
        }
        let duplicate = if self.rng.chance(self.cfg.noc_duplicate_permille) {
            self.stats.duplicated += 1;
            Some(self.cfg.noc_duplicate_lag)
        } else {
            None
        };
        // Loss-fault draws are appended after the classic ones so the
        // classic sub-streams keep their alignment; both draws happen
        // unconditionally to keep the per-call draw count fixed.
        let dropped = self.rng.chance(self.cfg.noc_drop_permille);
        let corrupted = self.rng.chance(self.cfg.noc_corrupt_permille) && !dropped;
        if dropped {
            self.stats.dropped += 1;
        } else if corrupted {
            self.stats.corrupted += 1;
        }
        self.stats.extra_cycles += extra + duplicate.unwrap_or(0);
        PacketFate {
            extra_delay: extra,
            duplicate,
            dropped,
            corrupted,
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// Per-partition DRAM fault injector (variable service latency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramFaults {
    cfg: FaultConfig,
    rng: SplitMix64,
    stats: FaultStats,
}

impl DramFaults {
    /// Extra service cycles for the next issued DRAM request.
    pub fn extra_latency(&mut self) -> u64 {
        let extra =
            if self.rng.chance(self.cfg.dram_jitter_permille) && self.cfg.dram_jitter_max > 0 {
                let j = 1 + self.rng.below(self.cfg.dram_jitter_max);
                self.stats.jittered += 1;
                j
            } else {
                let _ = self.rng.next_u64();
                0
            };
        self.stats.extra_cycles += extra;
        extra
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// Per-L2-bank crash scheduler: `l2_crash_count` crash cycles drawn
/// uniformly in `[1, l2_crash_window]` from the bank's stream, sorted,
/// and popped as simulated time passes them. Crashes are distributed
/// round-robin across banks so a multi-bank config sees every bank
/// exercised before any bank crashes twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankFaults {
    /// Pending crash cycles, ascending.
    schedule: Vec<u64>,
    stats: FaultStats,
}

impl BankFaults {
    /// Whether a crash is due at or before `now`; consumes the event.
    /// At most one event fires per call (back-to-back crashes surface
    /// on consecutive calls).
    pub fn due(&mut self, now: u64) -> bool {
        if self.schedule.first().is_some_and(|&c| c <= now) {
            self.schedule.remove(0);
            self.stats.bank_resets += 1;
            return true;
        }
        false
    }

    /// The cycle of the next crash [`BankFaults::due`] will fire, if any
    /// is left (the engine does not step past it).
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        self.schedule.first().copied()
    }

    /// Crash events not yet fired.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.schedule.len()
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// Scheduled link-down windows for one inter-GPU fabric link: during
/// `[starts[i], ends[i])` every packet injected on the link vanishes at
/// the wire, modelling a fabric partition. The schedule is pure data —
/// [`LinkFaults::down`] does not mutate, so the same injector can be
/// consulted for the data and control directions of a flow without
/// draw-count coupling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Window start cycles (parallel to `ends`), ascending.
    starts: Vec<u64>,
    /// Window end cycles (exclusive), parallel to `starts`.
    ends: Vec<u64>,
}

impl LinkFaults {
    /// Builds a schedule from explicit `(start, end)` windows (tests
    /// and hand-crafted scenarios; seeded runs draw their windows via
    /// [`FaultPlan::link_down`]).
    #[must_use]
    pub fn from_windows(windows: &[(u64, u64)]) -> Self {
        LinkFaults {
            starts: windows.iter().map(|&(s, _)| s).collect(),
            ends: windows.iter().map(|&(_, e)| e).collect(),
        }
    }

    /// Whether the link is inside a scheduled down window at `now`.
    #[must_use]
    pub fn down(&self, now: u64) -> bool {
        self.starts
            .iter()
            .zip(&self.ends)
            .any(|(&s, &e)| s <= now && now < e)
    }

    /// Number of scheduled windows.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.starts.len()
    }

    /// The last cycle at which any window is still down, or `None` when
    /// nothing is scheduled. Lets callers size timeouts past the longest
    /// outage.
    #[must_use]
    pub fn last_end(&self) -> Option<u64> {
        self.ends.iter().copied().max()
    }
}

/// Factory deriving independent, reproducible injector streams from one
/// master seed. Stream indices are caller-chosen (the simulator uses
/// `noc(0)`/`noc(1)` for request/response data, `noc(2)`/`noc(3)` for
/// the matching transport control channels, `dram(i)` per partition,
/// and `bank(i)` per L2 bank; the multi-GPU layer uses `fabric(i)` per
/// fabric direction, `link_down(i)` per device link, and
/// `device_crashes(i, …)` per device) so adding components never shifts
/// existing streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Wraps `cfg` (which may be inert — see [`FaultPlan::is_active`]).
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// Whether any injector will perturb anything.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// The plan's configuration.
    #[must_use]
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    fn stream_seed(&self, domain: u64, index: u64) -> u64 {
        // Decorrelate streams by running the (seed, domain, index) triple
        // through one SplitMix64 step each.
        let mut s = SplitMix64::new(self.cfg.seed ^ domain.rotate_left(17));
        let a = s.next_u64();
        let mut s2 = SplitMix64::new(a ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        s2.next_u64()
    }

    /// Injector for NoC direction `index`, or `None` when no NoC fault
    /// is enabled.
    #[must_use]
    pub fn noc(&self, index: u64) -> Option<NocFaults> {
        let active = self.cfg.noc_jitter_permille > 0
            || self.cfg.noc_reorder_permille > 0
            || self.cfg.noc_duplicate_permille > 0
            || self.cfg.noc_drop_permille > 0
            || self.cfg.noc_corrupt_permille > 0;
        active.then(|| NocFaults {
            cfg: self.cfg,
            rng: SplitMix64::new(self.stream_seed(0x004E_4F43, index)),
            stats: FaultStats::default(),
        })
    }

    /// Crash scheduler for L2 bank `index` of `n_banks`, or `None` when
    /// bank crashes are disabled. The configured crash budget is split
    /// round-robin across banks (bank `i` takes crashes `i, i+n, …`).
    #[must_use]
    pub fn bank(&self, index: u64, n_banks: u64) -> Option<BankFaults> {
        let count = u64::from(self.cfg.l2_crash_count);
        if count == 0 || self.cfg.l2_crash_window == 0 || n_banks == 0 {
            return None;
        }
        let mut rng = SplitMix64::new(self.stream_seed(0x4C32_424B, 0));
        let mut schedule = Vec::new();
        for i in 0..count {
            let cycle = 1 + rng.below(self.cfg.l2_crash_window);
            if i % n_banks == index {
                schedule.push(cycle);
            }
        }
        schedule.sort_unstable();
        Some(BankFaults {
            schedule,
            stats: FaultStats::default(),
        })
    }

    /// Injector for DRAM partition `index`, or `None` when DRAM jitter
    /// is disabled.
    #[must_use]
    pub fn dram(&self, index: u64) -> Option<DramFaults> {
        (self.cfg.dram_jitter_permille > 0).then(|| DramFaults {
            cfg: self.cfg,
            rng: SplitMix64::new(self.stream_seed(0x4452_414D, index)),
            stats: FaultStats::default(),
        })
    }

    /// Injector for inter-GPU fabric direction `index`, or `None` when
    /// no NoC-style fault is enabled in the plan's config. A distinct
    /// domain keeps fabric streams decorrelated from the on-die NoC
    /// even when both plans share one master seed.
    #[must_use]
    pub fn fabric(&self, index: u64) -> Option<NocFaults> {
        let active = self.cfg.noc_jitter_permille > 0
            || self.cfg.noc_reorder_permille > 0
            || self.cfg.noc_duplicate_permille > 0
            || self.cfg.noc_drop_permille > 0
            || self.cfg.noc_corrupt_permille > 0;
        active.then(|| NocFaults {
            cfg: self.cfg,
            rng: SplitMix64::new(self.stream_seed(0x4641_4252, index)),
            stats: FaultStats::default(),
        })
    }

    /// Partition schedule for fabric link `index`: `count` link-down
    /// windows of `len` cycles, starting uniformly in `[1, window]`.
    /// Returns `None` when any knob is zero. Each link draws from its
    /// own stream, so different links partition at different times.
    #[must_use]
    pub fn link_down(&self, index: u64, count: u16, window: u64, len: u64) -> Option<LinkFaults> {
        let count = u64::from(count);
        if count == 0 || window == 0 || len == 0 {
            return None;
        }
        let mut rng = SplitMix64::new(self.stream_seed(0x4C4E_4B44, index));
        let mut starts: Vec<u64> = (0..count).map(|_| 1 + rng.below(window)).collect();
        starts.sort_unstable();
        let ends = starts.iter().map(|&s| s + len).collect();
        Some(LinkFaults { starts, ends })
    }

    /// Crash scheduler for device `index` of `n_devices`, or `None`
    /// when device crashes are disabled. Reuses the [`BankFaults`]
    /// schedule shape; the crash budget is split round-robin across
    /// devices exactly like bank crashes are split across banks.
    #[must_use]
    pub fn device_crashes(
        &self,
        index: u64,
        n_devices: u64,
        count: u16,
        window: u64,
    ) -> Option<BankFaults> {
        let count = u64::from(count);
        if count == 0 || window == 0 || n_devices == 0 {
            return None;
        }
        let mut rng = SplitMix64::new(self.stream_seed(0x4445_5643, 0));
        let mut schedule = Vec::new();
        for i in 0..count {
            let cycle = 1 + rng.below(window);
            if i % n_devices == index {
                schedule.push(cycle);
            }
        }
        schedule.sort_unstable();
        Some(BankFaults {
            schedule,
            stats: FaultStats::default(),
        })
    }

    /// `ts_bits` after applying the plan's rollover-storm cap.
    #[must_use]
    pub fn effective_ts_bits(&self, ts_bits: u32) -> u32 {
        if self.cfg.ts_bits_cap == 0 {
            ts_bits
        } else {
            ts_bits.min(self.cfg.ts_bits_cap)
        }
    }
}

// Snapshot encodings (DESIGN.md §14): an armed injector is pure data —
// its config, its RNG position, and its counters — so checkpointing it
// mid-run and restoring reproduces the exact same future fault stream.
gtsc_types::snap_fields!(SplitMix64 { state });
gtsc_types::snap_fields!(FaultStats {
    jittered,
    reordered,
    duplicated,
    dropped,
    corrupted,
    bank_resets,
    extra_cycles,
});
gtsc_types::snap_fields!(NocFaults { cfg, rng, stats });
gtsc_types::snap_fields!(DramFaults { cfg, rng, stats });
gtsc_types::snap_fields!(BankFaults { schedule, stats });
gtsc_types::snap_fields!(LinkFaults { starts, ends });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(2);
        for _ in 0..1000 {
            assert!(c.below(17) < 17);
        }
        assert_eq!(SplitMix64::new(3).below(0), 0);
        assert!(!SplitMix64::new(4).chance(0));
        assert!(SplitMix64::new(4).chance(1000));
    }

    #[test]
    fn inert_config_yields_no_injectors() {
        let plan = FaultPlan::new(FaultConfig::default());
        assert!(!plan.is_active());
        assert!(plan.noc(0).is_none());
        assert!(plan.dram(0).is_none());
        assert_eq!(plan.effective_ts_bits(16), 16);
    }

    #[test]
    fn streams_are_reproducible_and_decorrelated() {
        let plan = FaultPlan::new(FaultConfig::chaos(99));
        let mut x = plan.noc(0).unwrap();
        let mut y = plan.noc(0).unwrap();
        let mut z = plan.noc(1).unwrap();
        let mut diverged = false;
        for _ in 0..200 {
            let fx = x.perturb();
            assert_eq!(fx, y.perturb(), "same index replays identically");
            diverged |= fx != z.perturb();
        }
        assert!(diverged, "different indices should see different streams");
        // Different master seeds diverge too.
        let other = FaultPlan::new(FaultConfig::chaos(100));
        let mut w = other.noc(0).unwrap();
        let mut x2 = plan.noc(0).unwrap();
        assert!((0..200).any(|_| w.perturb() != x2.perturb()));
    }

    #[test]
    fn noc_perturbations_respect_config_bounds() {
        let cfg = FaultConfig::chaos(5);
        let plan = FaultPlan::new(cfg);
        let mut f = plan.noc(0).unwrap();
        let mut saw_jitter = false;
        let mut saw_reorder = false;
        let mut saw_dup = false;
        for _ in 0..2000 {
            let fate = f.perturb();
            assert!(
                fate.extra_delay <= cfg.noc_jitter_max + cfg.noc_reorder_window,
                "delay bounded by jitter + reorder window"
            );
            if let Some(lag) = fate.duplicate {
                assert_eq!(lag, cfg.noc_duplicate_lag);
                saw_dup = true;
            }
            saw_jitter |= fate.extra_delay > 0 && fate.extra_delay <= cfg.noc_jitter_max;
            saw_reorder |= fate.extra_delay >= cfg.noc_reorder_window;
        }
        assert!(
            saw_jitter && saw_reorder && saw_dup,
            "chaos exercises every fault class"
        );
        let s = f.stats();
        assert!(s.jittered > 0 && s.reordered > 0 && s.duplicated > 0 && s.extra_cycles > 0);
    }

    #[test]
    fn dram_jitter_is_bounded_and_counted() {
        let cfg = FaultConfig::chaos(6);
        let plan = FaultPlan::new(cfg);
        let mut f = plan.dram(0).unwrap();
        let mut nonzero = 0;
        for _ in 0..2000 {
            let e = f.extra_latency();
            assert!(e <= cfg.dram_jitter_max);
            nonzero += u64::from(e > 0);
        }
        assert!(nonzero > 0);
        assert_eq!(f.stats().jittered, nonzero);
    }

    #[test]
    fn ts_bits_cap_only_shrinks() {
        let plan = FaultPlan::new(FaultConfig {
            ts_bits_cap: 8,
            ..FaultConfig::default()
        });
        assert_eq!(plan.effective_ts_bits(16), 8);
        assert_eq!(plan.effective_ts_bits(6), 6, "cap never widens");
        assert!(plan.is_active(), "rollover storms alone count as active");
    }

    #[test]
    fn fault_stats_merge_adds_fields() {
        let mut a = FaultStats {
            jittered: 1,
            reordered: 2,
            duplicated: 3,
            dropped: 4,
            corrupted: 5,
            bank_resets: 6,
            extra_cycles: 7,
        };
        let b = FaultStats {
            jittered: 10,
            reordered: 20,
            duplicated: 30,
            dropped: 40,
            corrupted: 50,
            bank_resets: 60,
            extra_cycles: 70,
        };
        a.merge(&b);
        assert_eq!(
            a,
            FaultStats {
                jittered: 11,
                reordered: 22,
                duplicated: 33,
                dropped: 44,
                corrupted: 55,
                bank_resets: 66,
                extra_cycles: 77,
            }
        );
    }

    #[test]
    fn chaos_never_drops_lossy_does() {
        let plan = FaultPlan::new(FaultConfig::chaos(8));
        let mut f = plan.noc(0).unwrap();
        for _ in 0..2000 {
            let fate = f.perturb();
            assert!(!fate.dropped && !fate.corrupted, "chaos must not lose");
        }
        assert_eq!(f.stats().dropped, 0);
        assert_eq!(f.stats().corrupted, 0);

        let lossy = FaultPlan::new(FaultConfig::lossy(8, 100));
        let mut f = lossy.noc(0).unwrap();
        let mut both = 0u64;
        for _ in 0..2000 {
            let fate = f.perturb();
            both += u64::from(fate.dropped && fate.corrupted);
        }
        assert_eq!(both, 0, "drop and corrupt are mutually exclusive");
        let s = f.stats();
        assert!(s.dropped > 0, "10% drop rate must fire in 2000 draws");
        assert!(s.corrupted > 0, "5% corrupt rate must fire in 2000 draws");
        assert!(s.jittered > 0, "chaos layer stays active underneath");
    }

    #[test]
    fn drop_only_config_enables_noc_injector() {
        let cfg = FaultConfig {
            seed: 1,
            noc_drop_permille: 50,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(cfg);
        assert!(plan.is_active());
        assert!(plan.noc(0).is_some(), "drops alone need an injector");
        assert!(plan.dram(0).is_none());
    }

    #[test]
    fn bank_crashes_are_scheduled_deterministically_and_split() {
        let cfg = FaultConfig::default().with_bank_crashes(4, 10_000);
        let plan = FaultPlan::new(FaultConfig { seed: 9, ..cfg });
        assert!(plan.is_active());
        let mut a = plan.bank(0, 2).unwrap();
        let b = plan.bank(0, 2).unwrap();
        assert_eq!(a, b, "same stream replays identically");
        let c = plan.bank(1, 2).unwrap();
        assert_eq!(a.pending() + c.pending(), 4, "budget split across banks");
        assert_eq!(a.pending(), 2, "round-robin split");
        // Walking time past the window fires every scheduled crash.
        let mut fired = 0;
        for now in 0..=10_000u64 {
            fired += u64::from(a.due(now));
        }
        assert_eq!(fired, 2);
        assert_eq!(a.stats().bank_resets, 2);
        assert_eq!(a.pending(), 0);
        assert!(!a.due(u64::MAX), "exhausted schedule stays quiet");
        // Disabled configs yield no scheduler.
        assert!(FaultPlan::new(FaultConfig::default()).bank(0, 2).is_none());
        let no_window = FaultConfig::default().with_bank_crashes(3, 0);
        assert!(FaultPlan::new(no_window).bank(0, 2).is_none());
    }

    #[test]
    fn injector_snapshots_resume_the_exact_stream() {
        use gtsc_types::{Snap, SnapReader, SnapWriter};
        let plan = FaultPlan::new(FaultConfig::lossy(33, 150));
        let mut f = plan.noc(0).unwrap();
        for _ in 0..137 {
            f.perturb();
        }
        let mut w = SnapWriter::new();
        f.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut g = NocFaults::load(&mut r).unwrap();
        assert_eq!(f.stats(), g.stats(), "counters survive the round trip");
        for _ in 0..200 {
            assert_eq!(f.perturb(), g.perturb(), "future stream is identical");
        }

        let crash_plan = FaultPlan::new(FaultConfig::default().with_bank_crashes(4, 10_000));
        let mut b = crash_plan.bank(0, 1).unwrap();
        let _ = b.due(2_500); // consume any early crash before snapshotting
        let mut w = SnapWriter::new();
        b.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let restored = BankFaults::load(&mut r).unwrap();
        assert_eq!(b, restored);
    }

    #[test]
    fn fabric_streams_are_decorrelated_from_noc() {
        let plan = FaultPlan::new(FaultConfig::lossy(11, 100));
        let mut fab = plan.fabric(0).unwrap();
        let mut fab2 = plan.fabric(0).unwrap();
        let mut noc = plan.noc(0).unwrap();
        let mut diverged = false;
        for _ in 0..200 {
            let f = fab.perturb();
            assert_eq!(f, fab2.perturb(), "fabric stream replays identically");
            diverged |= f != noc.perturb();
        }
        assert!(diverged, "fabric and NoC streams must differ on one seed");
        assert!(FaultPlan::new(FaultConfig::default()).fabric(0).is_none());
    }

    #[test]
    fn link_down_windows_cover_exactly_the_schedule() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 13,
            ..FaultConfig::default()
        });
        let lf = plan.link_down(0, 3, 10_000, 250).unwrap();
        assert_eq!(lf.windows(), 3);
        let same = plan.link_down(0, 3, 10_000, 250).unwrap();
        assert_eq!(lf, same, "schedule replays identically");
        let other = plan.link_down(1, 3, 10_000, 250).unwrap();
        assert_ne!(lf, other, "different links partition at different times");
        // Down for exactly `count * len` cycles (windows may overlap,
        // so at most that many).
        let down_cycles = (0..=lf.last_end().unwrap()).filter(|&c| lf.down(c)).count();
        assert!(down_cycles > 0 && down_cycles <= 3 * 250);
        assert!(!lf.down(lf.last_end().unwrap()), "end is exclusive");
        assert!(plan.link_down(0, 0, 10_000, 250).is_none());
        assert!(plan.link_down(0, 3, 0, 250).is_none());
        assert!(plan.link_down(0, 3, 10_000, 0).is_none());
        assert!(LinkFaults::default().last_end().is_none());
    }

    #[test]
    fn device_crashes_split_round_robin() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 17,
            ..FaultConfig::default()
        });
        let a = plan.device_crashes(0, 2, 4, 10_000).unwrap();
        let b = plan.device_crashes(1, 2, 4, 10_000).unwrap();
        assert_eq!(a.pending(), 2);
        assert_eq!(a.pending() + b.pending(), 4);
        assert_eq!(a, plan.device_crashes(0, 2, 4, 10_000).unwrap());
        assert!(plan.device_crashes(0, 2, 0, 10_000).is_none());
        assert!(plan.device_crashes(0, 2, 4, 0).is_none());
        assert!(plan.device_crashes(0, 0, 4, 10_000).is_none());
    }

    #[test]
    fn link_faults_snapshot_round_trips() {
        use gtsc_types::{Snap, SnapReader, SnapWriter};
        let plan = FaultPlan::new(FaultConfig {
            seed: 29,
            ..FaultConfig::default()
        });
        let lf = plan.link_down(2, 5, 50_000, 1_000).unwrap();
        let mut w = SnapWriter::new();
        lf.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = LinkFaults::load(&mut r).unwrap();
        assert_eq!(lf, back);
    }

    #[test]
    fn loss_draws_do_not_shift_classic_substreams() {
        // The appended drop/corrupt draws must leave the per-call draw
        // count fixed: two NocFaults over configs differing only in
        // loss rates decide jitter/reorder/duplicate identically.
        let chaos = FaultPlan::new(FaultConfig::chaos(21));
        let lossy = FaultPlan::new(FaultConfig::lossy(21, 200));
        let mut a = chaos.noc(0).unwrap();
        let mut b = lossy.noc(0).unwrap();
        for _ in 0..500 {
            let fa = a.perturb();
            let fb = b.perturb();
            assert_eq!(fa.extra_delay, fb.extra_delay);
            assert_eq!(fa.duplicate, fb.duplicate);
        }
    }
}
