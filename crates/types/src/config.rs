//! Simulation configuration.
//!
//! [`GpuConfig`] gathers every knob of the modelled GPU: core counts, cache
//! geometries, protocol selection, consistency model, NoC and DRAM timing.
//! [`GpuConfig::paper_default`] reproduces the evaluation platform of
//! Section VI-A (16 SMs, 48 warps/SM, 16 KiB L1, 8 × 128 KiB L2 banks).

use crate::addr::CacheGeometry;
use crate::time::Lease;

/// Which coherence mechanism the GPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// G-TSC: timestamp-ordering coherence (the paper's contribution).
    Gtsc,
    /// Temporal Coherence, strong variant (write atomicity preserved by
    /// stalling writes until all leases expire).
    Tc,
    /// TC-Weak: writes complete immediately; fences stall on per-warp
    /// Global Write Completion Times.
    TcWeak,
    /// Coherent baseline with the private L1 disabled: every global access
    /// goes to the shared L2 ("BL" in the paper).
    NoL1,
    /// Non-coherent private L1 ("Baseline W/L1"); only sound for workloads
    /// that do not require coherence.
    L1NoCoherence,
}

impl ProtocolKind {
    /// Short label used in experiment output, matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Gtsc => "G-TSC",
            ProtocolKind::Tc => "TC",
            ProtocolKind::TcWeak => "TC-Weak",
            ProtocolKind::NoL1 => "BL",
            ProtocolKind::L1NoCoherence => "BL-W/L1",
        }
    }
}

/// Memory consistency model enforced by the SM issue logic (Section II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyModel {
    /// Sequential consistency: at most one outstanding memory operation per
    /// warp, issued in program order.
    Sc,
    /// Release consistency: multiple outstanding operations, reordering
    /// allowed, ordering only at explicit fences.
    Rc,
}

impl ConsistencyModel {
    /// Short label ("SC"/"RC") used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ConsistencyModel::Sc => "SC",
            ConsistencyModel::Rc => "RC",
        }
    }
}

/// Warp scheduling policy of the SM issue stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarpScheduler {
    /// Loose round-robin (fair interleaving of ready warps).
    RoundRobin,
    /// Greedy-then-oldest, GPGPU-Sim's default: keep issuing from the
    /// current warp until it stalls, then fall back to the oldest ready
    /// warp. Improves intra-warp locality in the L1.
    Gto,
}

/// How an L1 handles replicated read requests from different warps to the
/// same missing block (Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombinePolicy {
    /// Keep later requests in the MSHR; send renewals if the returned lease
    /// does not cover their `warp_ts` (the paper's choice).
    MergeInMshr,
    /// Forward every request to L2, trading NoC traffic for latency.
    ForwardAll,
}

/// How an L1 keeps an updated block inaccessible until the store is
/// globally performed (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VisibilityPolicy {
    /// Option 1: block all accesses to the line until the write ack arrives
    /// (the paper's choice — negligible overhead, no extra storage).
    BlockLine,
    /// Option 2: keep the old copy readable alongside the pending new one;
    /// models the extra hardware buffer.
    DualCopy,
}

/// Whether L2 must contain every block cached in some L1 (Section V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InclusionPolicy {
    /// GPUs are normally non-inclusive; G-TSC supports this via `mem_ts`.
    NonInclusive,
    /// TC requires inclusion: L2 victims with live L1 leases stall
    /// replacement.
    Inclusive,
}

/// Interconnect topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NocTopology {
    /// Full crossbar: every packet pays the same pipeline latency.
    Crossbar,
    /// Unidirectional ring around all endpoints (SM ports first, then L2
    /// ports): a packet additionally pays `hop_latency` per hop from its
    /// source ring stop to its destination ring stop. Cheaper to build,
    /// distance-dependent — lets NoC-sensitivity studies vary topology
    /// without touching the protocols.
    Ring {
        /// Cycles per ring hop.
        hop_latency: u64,
    },
}

/// Interconnect parameters (SM ⇄ L2 network).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Topology (crossbar by default).
    pub topology: NocTopology,
    /// Zero-load latency of a packet, in cycles, each direction.
    pub latency: u64,
    /// Flit payload size in bytes (packets are split into flits).
    pub flit_bytes: usize,
    /// Flits per cycle each port can inject/eject.
    pub flits_per_cycle: usize,
    /// Size of a control-only packet header, in bytes.
    pub control_bytes: usize,
}

impl crate::snap::Snap for NocTopology {
    fn save(&self, w: &mut crate::snap::SnapWriter) {
        match self {
            NocTopology::Crossbar => w.u8(0),
            NocTopology::Ring { hop_latency } => {
                w.u8(1);
                w.u64(*hop_latency);
            }
        }
    }
    fn load(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapshotError> {
        match r.u8()? {
            0 => Ok(NocTopology::Crossbar),
            1 => Ok(NocTopology::Ring {
                hop_latency: r.u64()?,
            }),
            t => Err(crate::snap::SnapshotError::Malformed {
                context: format!("NocTopology tag {t}"),
            }),
        }
    }
}

// The fabric config embeds link and transport parameters, so both must
// round-trip through the snapshot codec.
crate::snap_fields!(NocConfig {
    topology,
    latency,
    flit_bytes,
    flits_per_cycle,
    control_bytes,
});

impl Default for NocConfig {
    fn default() -> Self {
        // 32-byte flits at 4 flits/cycle per port ≈ 128 GB/s per port at
        // 1 GHz — in line with the Fermi-class crossbar GPGPU-Sim models.
        NocConfig {
            topology: NocTopology::Crossbar,
            latency: 20,
            flit_bytes: 32,
            flits_per_cycle: 4,
            control_bytes: 8,
        }
    }
}

/// DRAM row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Keep the row open after an access (exploits row locality; pays the
    /// full activate penalty on a conflict). GPGPU-Sim's default.
    Open,
    /// Precharge after every access: every access pays a fixed
    /// activate-and-access latency between hit and miss cost, but row
    /// conflicts never stack.
    Closed,
}

/// DRAM timing parameters (per memory partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Banks per partition.
    pub banks: usize,
    /// Row-buffer hit latency (cycles).
    pub row_hit: u64,
    /// Row-buffer miss (activate + access) latency.
    pub row_miss: u64,
    /// Number of consecutive blocks mapping to one DRAM row.
    pub blocks_per_row: u64,
    /// Maximum requests queued per partition before back-pressure.
    pub queue_depth: usize,
    /// Minimum cycles between data bursts on the partition's pins
    /// (bandwidth model).
    pub burst_gap: u64,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            row_hit: 100,
            row_miss: 200,
            blocks_per_row: 16,
            queue_depth: 32,
            burst_gap: 4,
            page_policy: PagePolicy::Open,
        }
    }
}

/// Seeded fault-injection plan (robustness testing, not part of the
/// paper's evaluation platform).
///
/// The classic perturbations are *delays or duplications*: G-TSC's
/// correctness argument (Section III) assumes eventual delivery, and
/// those injectors honour that so a coherent protocol must stay
/// violation-free under any seed with the raw NoC alone. The *loss*
/// faults — packet drop, payload corruption, and L2-bank crash — break
/// that assumption on purpose: they are only survivable with the
/// reliable-transport layer (`gtsc_noc::ReliableNet`), which the
/// simulator enables automatically whenever a loss fault is configured.
/// Probabilities are in permille (0–1000) so the struct stays
/// `Copy + Eq`. The default is fully inert; [`FaultConfig::chaos`] is
/// the delay-only preset and [`FaultConfig::lossy`] layers drops and
/// corruption on top. Every random decision derives from `seed` alone,
/// so a given `(config, kernel, seed)` triple replays byte-for-byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Master seed; every injector stream is derived from it.
    pub seed: u64,
    /// Permille chance a NoC packet receives extra latency jitter.
    pub noc_jitter_permille: u16,
    /// Maximum extra cycles of NoC jitter (uniform in `1..=max`).
    pub noc_jitter_max: u64,
    /// Permille chance a NoC packet is held back a full reorder window,
    /// letting younger packets from the same source overtake it.
    pub noc_reorder_permille: u16,
    /// Extra cycles a reordered packet is held back.
    pub noc_reorder_window: u64,
    /// Permille chance a delivered NoC packet is delivered *again* later
    /// (exercises idempotence of the receive paths).
    pub noc_duplicate_permille: u16,
    /// Cycles after the original at which the duplicate arrives.
    pub noc_duplicate_lag: u64,
    /// Permille chance a DRAM request takes extra service latency.
    pub dram_jitter_permille: u16,
    /// Maximum extra DRAM service cycles (uniform in `1..=max`).
    pub dram_jitter_max: u64,
    /// When nonzero, caps `GpuConfig::ts_bits` at this width, shrinking
    /// the timestamp epoch budget to force frequent Section V-D rollover
    /// storms. `0` leaves `ts_bits` untouched.
    pub ts_bits_cap: u32,
    /// Permille chance a NoC packet is *dropped* at injection (loss
    /// fault: requires the reliable-transport layer for liveness).
    pub noc_drop_permille: u16,
    /// Permille chance a NoC packet's payload is *corrupted* in flight
    /// (the header survives, so the receiver can NACK the flow).
    pub noc_corrupt_permille: u16,
    /// Number of L2-bank crash/recovery events injected over the run
    /// (each resets one bank's tag array and transport state mid-run).
    pub l2_crash_count: u16,
    /// Cycle window `[1, window]` within which the bank crashes are
    /// scheduled (uniformly, from the seed). `0` disables crashes even
    /// when `l2_crash_count` is nonzero.
    pub l2_crash_window: u64,
}

// Fault injectors embed their `FaultConfig`, so checkpointing an armed
// injector (DESIGN.md §14) needs the config itself to round-trip.
crate::snap_fields!(FaultConfig {
    seed,
    noc_jitter_permille,
    noc_jitter_max,
    noc_reorder_permille,
    noc_reorder_window,
    noc_duplicate_permille,
    noc_duplicate_lag,
    dram_jitter_permille,
    dram_jitter_max,
    ts_bits_cap,
    noc_drop_permille,
    noc_corrupt_permille,
    l2_crash_count,
    l2_crash_window,
});

impl FaultConfig {
    /// The all-faults-on preset used by the fault-sweep tests: moderate
    /// NoC jitter, bounded reordering, duplicate delivery, DRAM service
    /// jitter, and 8-bit timestamps (rollover storms).
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            noc_jitter_permille: 300,
            noc_jitter_max: 40,
            noc_reorder_permille: 150,
            noc_reorder_window: 100,
            noc_duplicate_permille: 100,
            noc_duplicate_lag: 25,
            dram_jitter_permille: 250,
            dram_jitter_max: 300,
            ts_bits_cap: 8,
            ..FaultConfig::default()
        }
    }

    /// The loss preset: the full [`FaultConfig::chaos`] storm *plus*
    /// packet drops at `drop_permille` and payload corruption at half
    /// that rate. Any nonzero drop rate makes the simulator switch the
    /// NoC to reliable transport (ack/retransmit), so these runs must
    /// still complete with zero violations.
    #[must_use]
    pub fn lossy(seed: u64, drop_permille: u16) -> Self {
        FaultConfig {
            noc_drop_permille: drop_permille,
            noc_corrupt_permille: drop_permille / 2,
            ..FaultConfig::chaos(seed)
        }
    }

    /// Returns the config with `count` L2-bank crash/recovery events
    /// scheduled uniformly in cycles `[1, window]`.
    #[must_use]
    pub fn with_bank_crashes(mut self, count: u16, window: u64) -> Self {
        self.l2_crash_count = count;
        self.l2_crash_window = window;
        self
    }

    /// Whether any perturbation is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.noc_jitter_permille > 0
            || self.noc_reorder_permille > 0
            || self.noc_duplicate_permille > 0
            || self.dram_jitter_permille > 0
            || self.ts_bits_cap > 0
            || self.lossy_active()
    }

    /// Whether any *loss* fault (drop, corruption, bank crash) is
    /// enabled — exactly the condition under which the simulator runs
    /// the NoC through the reliable-transport layer.
    #[must_use]
    pub fn lossy_active(&self) -> bool {
        self.noc_drop_permille > 0
            || self.noc_corrupt_permille > 0
            || (self.l2_crash_count > 0 && self.l2_crash_window > 0)
    }
}

/// Parameters of the reliable-transport layer (`gtsc_noc::ReliableNet`):
/// retransmit timing, backoff, NACK pacing, and the end-to-end L1 retry
/// timeout. Only consulted when a loss fault is active; see DESIGN.md
/// §13 for how the constants were sized against `ts_bits` and the NoC
/// round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransportConfig {
    /// Base retransmit timeout in cycles (before backoff). Must exceed
    /// one NoC round-trip including injection serialization; the default
    /// is ~6× the default 20-cycle pipeline latency each way.
    pub retransmit_timeout: u64,
    /// Exponential-backoff cap: the timeout doubles per retry up to
    /// `base << max_backoff_exp`.
    pub max_backoff_exp: u32,
    /// Minimum cycles between NACKs for one flow (paces NACK storms
    /// when a gap persists).
    pub nack_min_gap: u64,
    /// End-to-end L1 retry timeout: an un-answered read or store is
    /// re-issued after this many cycles. Covers losses the transport
    /// cannot see (a bank crash wiping an already-delivered request);
    /// must comfortably exceed the worst-case transport backoff.
    pub retry_timeout: u64,
}

crate::snap_fields!(TransportConfig {
    retransmit_timeout,
    max_backoff_exp,
    nack_min_gap,
    retry_timeout,
});

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            retransmit_timeout: 256,
            max_backoff_exp: 6,
            nack_min_gap: 64,
            retry_timeout: 4096,
        }
    }
}

/// What the protocol event-tracing subsystem records.
///
/// The hot-path hooks compile to a single branch on this enum when
/// tracing is [`TraceMode::Off`], so the default costs nothing on the
/// protocol fast paths (the benchmark's `trace.record_disabled_ns` rung).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TraceMode {
    /// No events recorded (the default).
    #[default]
    Off,
    /// Bounded per-component ring buffers only: the last
    /// [`TraceConfig::flight_capacity`] events per SM / L2 bank / network
    /// / DRAM partition are retained for post-mortems (stall diagnoses,
    /// checker violation reports).
    Flight,
    /// Flight recorder *plus* an unbounded in-order event log, suitable
    /// for Chrome-trace export. Memory grows with run length — use on
    /// small kernels or with filters.
    Full,
}

/// Configuration of the protocol event tracer (see the `gtsc-trace`
/// crate). Inert by default; probabilistically free when off.
///
/// Filters compose conjunctively: an event is kept only if its class bit
/// is set in `class_mask`, its source SM passes `sm_filter` (events from
/// non-SM scopes always pass), and its block — when it has one — falls in
/// `block_range`.
///
/// # Examples
///
/// ```
/// use gtsc_types::TraceConfig;
/// assert!(!TraceConfig::default().is_enabled());
/// let t = TraceConfig::flight().with_sm(3).with_blocks(0, 64);
/// assert!(t.is_enabled());
/// assert_eq!(t.sm_filter, Some(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceConfig {
    /// What to record.
    pub mode: TraceMode,
    /// Ring-buffer capacity per traced component (flight recorder).
    pub flight_capacity: usize,
    /// Snapshot [`crate::SimStats`] deltas every this many cycles into a
    /// time-series; `0` disables the interval sampler.
    pub sample_interval: u64,
    /// Bitmask over `gtsc_trace::EventClass` bits; `u16::MAX` keeps all.
    pub class_mask: u16,
    /// When `Some(i)`, keep only events from SM `i` (and from non-SM
    /// scopes: L2 banks, NoC, DRAM).
    pub sm_filter: Option<u16>,
    /// When `Some((lo, hi))`, keep only events touching a block address
    /// in `lo..=hi` (events without a block always pass).
    pub block_range: Option<(u64, u64)>,
    /// Causal-span sampling rate: sample roughly 1-in-`span_rate`
    /// memory accesses (seeded hash, deterministic per seed); `0`
    /// disables spans entirely (the default, zero-cost fast path).
    /// Spans are orthogonal to `mode` — they work even with
    /// `TraceMode::Off`.
    pub span_rate: u64,
    /// Seed mixed into span-sampling decisions so different seeds pick
    /// different (but reproducible) access subsets.
    pub span_seed: u64,
    /// Retain at most this many completed spans (deterministic
    /// first-opened-first-retained; later spans are counted but not
    /// stored). Bounds observatory memory on long runs.
    pub span_cap: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mode: TraceMode::Off,
            flight_capacity: 64,
            sample_interval: 0,
            class_mask: u16::MAX,
            sm_filter: None,
            block_range: None,
            span_rate: 0,
            span_seed: 0,
            span_cap: 4096,
        }
    }
}

impl TraceConfig {
    /// Flight recorder only: bounded memory, post-mortem tails.
    #[must_use]
    pub fn flight() -> Self {
        TraceConfig {
            mode: TraceMode::Flight,
            ..TraceConfig::default()
        }
    }

    /// Full event log (plus flight recorder) with a default 1024-cycle
    /// stats sampling interval — what the exporters consume.
    #[must_use]
    pub fn full() -> Self {
        TraceConfig {
            mode: TraceMode::Full,
            sample_interval: 1024,
            ..TraceConfig::default()
        }
    }

    /// Whether any recording is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// Returns the config with the stats-sampling interval set.
    #[must_use]
    pub fn with_interval(mut self, cycles: u64) -> Self {
        self.sample_interval = cycles;
        self
    }

    /// Returns the config keeping only the event classes in `mask`.
    #[must_use]
    pub fn with_class_mask(mut self, mask: u16) -> Self {
        self.class_mask = mask;
        self
    }

    /// Returns the config keeping only events from SM `sm`.
    #[must_use]
    pub fn with_sm(mut self, sm: u16) -> Self {
        self.sm_filter = Some(sm);
        self
    }

    /// Returns the config keeping only events on blocks in `lo..=hi`.
    #[must_use]
    pub fn with_blocks(mut self, lo: u64, hi: u64) -> Self {
        self.block_range = Some((lo, hi));
        self
    }

    /// Returns the config with the per-component ring capacity set.
    #[must_use]
    pub fn with_flight_capacity(mut self, events: usize) -> Self {
        self.flight_capacity = events;
        self
    }

    /// Returns the config with causal-span sampling enabled: roughly
    /// 1-in-`rate` memory accesses (deterministic per `seed`) carry a
    /// [`crate::SpanId`] end-to-end. `rate = 0` disables spans.
    #[must_use]
    pub fn with_spans(mut self, rate: u64, seed: u64) -> Self {
        self.span_rate = rate;
        self.span_seed = seed;
        self
    }

    /// Whether causal-span sampling is on.
    #[must_use]
    pub fn spans_enabled(&self) -> bool {
        self.span_rate > 0
    }
}

/// Inter-GPU fabric parameters (device L2 ⇄ home node network).
///
/// The fabric reuses the on-die NoC machinery (`gtsc_noc::ReliableNet`)
/// but is a different physical medium: NVLink-class links are an order
/// of magnitude slower than an on-die crossbar and — unlike the on-die
/// NoC — lossy in the fault envelopes we model (link-level CRC drops,
/// scheduled partitions, whole-device crashes). Timeouts therefore
/// scale up with latency, and partition/device-crash schedules live
/// here rather than in the per-device [`FaultConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Link parameters of the inter-GPU network. Defaults to the on-die
    /// shape with 5× the pipeline latency (~100 cycles each way).
    pub noc: NocConfig,
    /// Reliable-transport parameters for the fabric. Defaults scale the
    /// on-die timeouts by the latency ratio.
    pub transport: TransportConfig,
    /// Logical lease length of inter-GPU grants handed from the home
    /// node to a device L2. Device-local L2 leases are clamped inside
    /// the grant, so this should comfortably exceed `GpuConfig::lease`.
    pub grant_lease: Lease,
    /// Home-node directory service latency in cycles per request.
    pub home_latency: u64,
    /// Fault plan applied to the fabric links (seed-pure; independent
    /// streams from the per-device on-die plan).
    pub faults: FaultConfig,
    /// Number of scheduled fabric-partition events (link-down windows)
    /// per device link over the run.
    pub partition_count: u16,
    /// Cycle window `[1, window]` within which partitions start
    /// (uniformly, from the fault seed). `0` disables partitions.
    pub partition_window: u64,
    /// Length of each link-down window in cycles.
    pub partition_len: u64,
    /// Number of whole-device crash/rejoin events injected over the run.
    pub device_crash_count: u16,
    /// Cycle window `[1, window]` within which device crashes are
    /// scheduled. `0` disables crashes even when the count is nonzero.
    pub device_crash_window: u64,
}

// Multi-GPU snapshots embed the armed fabric plan (DESIGN.md §14), so
// the config must round-trip exactly like `FaultConfig` does.
crate::snap_fields!(FabricConfig {
    noc,
    transport,
    grant_lease,
    home_latency,
    faults,
    partition_count,
    partition_window,
    partition_len,
    device_crash_count,
    device_crash_window,
});

impl Default for FabricConfig {
    fn default() -> Self {
        let noc = NocConfig {
            latency: 100,
            ..NocConfig::default()
        };
        FabricConfig {
            noc,
            // Timeouts scale with the 5× slower medium; the end-to-end
            // retry must still outlast the worst-case backoff *plus* a
            // partition window, which `MultiGpuSim` checks at build.
            transport: TransportConfig {
                retransmit_timeout: 1024,
                max_backoff_exp: 6,
                nack_min_gap: 256,
                retry_timeout: 16_384,
            },
            grant_lease: Lease(64),
            home_latency: 20,
            faults: FaultConfig::default(),
            partition_count: 0,
            partition_window: 0,
            partition_len: 0,
            device_crash_count: 0,
            device_crash_window: 0,
        }
    }
}

impl FabricConfig {
    /// Returns the config with fabric packet loss at `drop_permille`
    /// (plus corruption at half that rate), seeded by `seed`. Any
    /// nonzero rate arms the fabric's reliable transport.
    #[must_use]
    pub fn lossy(mut self, seed: u64, drop_permille: u16) -> Self {
        self.faults = FaultConfig {
            seed,
            noc_drop_permille: drop_permille,
            noc_corrupt_permille: drop_permille / 2,
            ..self.faults
        };
        self
    }

    /// Returns the config with `count` link-down windows of `len` cycles
    /// scheduled uniformly in `[1, window]` per device link.
    #[must_use]
    pub fn with_partitions(mut self, count: u16, window: u64, len: u64) -> Self {
        self.partition_count = count;
        self.partition_window = window;
        self.partition_len = len;
        self
    }

    /// Returns the config with `count` whole-device crash/rejoin events
    /// scheduled uniformly in `[1, window]`.
    #[must_use]
    pub fn with_device_crashes(mut self, count: u16, window: u64) -> Self {
        self.device_crash_count = count;
        self.device_crash_window = window;
        self
    }

    /// Whether partitions are scheduled.
    #[must_use]
    pub fn partitions_active(&self) -> bool {
        self.partition_count > 0 && self.partition_window > 0 && self.partition_len > 0
    }

    /// Whether device crashes are scheduled.
    #[must_use]
    pub fn device_crashes_active(&self) -> bool {
        self.device_crash_count > 0 && self.device_crash_window > 0
    }

    /// Whether the fabric needs its reliable-transport layer: packet
    /// loss, a scheduled partition, or a device crash all lose traffic
    /// that only ack/retransmit (plus L1 end-to-end retry) recovers.
    #[must_use]
    pub fn lossy_active(&self) -> bool {
        self.faults.lossy_active() || self.partitions_active() || self.device_crashes_active()
    }
}

/// Complete configuration of a multi-GPU system: `n_devices` identical
/// GPUs (each a full [`GpuConfig`]) joined by an inter-GPU fabric to a
/// home-node directory (HALCONE-style hierarchical timestamp coherence;
/// see DESIGN.md §17).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiGpuConfig {
    /// Number of GPU devices.
    pub n_devices: usize,
    /// Per-device configuration (shared by all devices).
    pub gpu: GpuConfig,
    /// Inter-GPU fabric and home-node parameters.
    pub fabric: FabricConfig,
}

impl MultiGpuConfig {
    /// A scaled-down `n`-device system for unit and property tests,
    /// built on [`GpuConfig::test_small`].
    #[must_use]
    pub fn test_small(n_devices: usize) -> Self {
        MultiGpuConfig {
            n_devices,
            gpu: GpuConfig::test_small(),
            fabric: FabricConfig::default(),
        }
    }

    /// Returns the config with the given fabric parameters.
    #[must_use]
    pub fn with_fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = fabric;
        self
    }

    /// Label like `G-TSC-RC x4` used in experiment output.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} x{}", self.gpu.label(), self.n_devices)
    }
}

/// Complete configuration of the simulated GPU.
///
/// # Examples
///
/// ```
/// use gtsc_types::{ConsistencyModel, GpuConfig, ProtocolKind};
/// let cfg = GpuConfig::paper_default()
///     .with_protocol(ProtocolKind::Gtsc)
///     .with_consistency(ConsistencyModel::Rc);
/// assert_eq!(cfg.l2_banks, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub n_sms: usize,
    /// Warp slots per SM (paper: 48).
    pub warps_per_sm: usize,
    /// Threads per warp (paper: 32).
    pub threads_per_warp: usize,
    /// Per-SM private L1 data cache geometry (paper: 16 KiB).
    pub l1: CacheGeometry,
    /// Shared L2 geometry *per bank* (paper: 128 KiB × 8 banks = 1 MiB).
    pub l2: CacheGeometry,
    /// Number of L2 banks / memory partitions.
    pub l2_banks: usize,
    /// L1 MSHR entries.
    pub l1_mshr_entries: usize,
    /// Maximum merged requests per L1 MSHR entry.
    pub l1_mshr_merges: usize,
    /// L2 MSHR entries per bank.
    pub l2_mshr_entries: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 bank access latency in cycles.
    pub l2_latency: u64,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Consistency model.
    pub consistency: ConsistencyModel,
    /// G-TSC logical lease length (Figure 14 sweeps 8–20).
    pub lease: Lease,
    /// Temporal-Coherence lease length in *physical cycles*. The TC paper
    /// (HPCA'13) found 800 core cycles the best *fixed* lease across its
    /// workloads; Section II-D3 of the G-TSC paper stresses that a
    /// suitable lease is hard to pick — sweep this to see why (e.g. STN
    /// prefers 50, CC prefers 800 in our workloads).
    pub tc_lease_cycles: u64,
    /// Hardware timestamp width in bits (paper: 16).
    pub ts_bits: u32,
    /// Request-combining policy (Section V-B).
    pub combine: CombinePolicy,
    /// Update-visibility policy (Section V-A).
    pub visibility: VisibilityPolicy,
    /// L2 inclusion policy (Section V-C). TC forces `Inclusive`.
    pub inclusion: InclusionPolicy,
    /// Tardis-2.0-style adaptive lease prediction in the G-TSC L2
    /// (extension beyond the paper; off by default).
    pub adaptive_lease: bool,
    /// Maximum outstanding memory instructions per warp under RC.
    pub max_outstanding_per_warp: usize,
    /// Warp scheduling policy.
    pub scheduler: WarpScheduler,
    /// NoC parameters.
    pub noc: NocConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Maximum CTAs resident per SM.
    pub max_ctas_per_sm: usize,
    /// Safety cap on simulated cycles (deadlock guard); `0` disables.
    pub max_cycles: u64,
    /// Forward-progress watchdog: abort with a structured stall diagnosis
    /// when no instruction issues, access completes, or CTA dispatches
    /// for this many consecutive cycles. Trips far earlier than
    /// `max_cycles` on a wedged run; `0` disables.
    pub watchdog_cycles: u64,
    /// Cap on individually formatted violations in a run report; any
    /// excess is folded into one trailing summary entry (a pathological
    /// run can detect millions).
    pub max_violations_reported: usize,
    /// Fault-injection plan (inert by default).
    pub faults: FaultConfig,
    /// Reliable-transport parameters; only consulted when a loss fault
    /// (`FaultConfig::lossy_active`) makes the NoC unreliable.
    pub transport: TransportConfig,
    /// Protocol event tracing (off by default).
    pub trace: TraceConfig,
    /// Online transition sanitizer (off by default): every protocol
    /// state transition is checked against the logical-time invariant
    /// catalog (DESIGN.md §12) and violations are appended to the run
    /// report. Costs one predicted-not-taken branch per transition when
    /// off, same as tracing.
    pub sanitize: bool,
}

impl GpuConfig {
    /// The evaluation platform of Section VI-A: 16 SMs with 16 KiB L1 each,
    /// 48 warps/SM × 32 threads, 8 × 128 KiB L2 banks, G-TSC with a lease
    /// of 10 and 16-bit timestamps, release consistency.
    #[must_use]
    pub fn paper_default() -> Self {
        GpuConfig {
            n_sms: 16,
            warps_per_sm: 48,
            threads_per_warp: 32,
            l1: CacheGeometry::new(16 * 1024, 4, 128),
            l2: CacheGeometry::new(128 * 1024, 8, 128),
            l2_banks: 8,
            l1_mshr_entries: 32,
            l1_mshr_merges: 8,
            l2_mshr_entries: 32,
            l1_latency: 1,
            l2_latency: 10,
            protocol: ProtocolKind::Gtsc,
            consistency: ConsistencyModel::Rc,
            lease: Lease::default(),
            tc_lease_cycles: 800,
            ts_bits: 16,
            combine: CombinePolicy::MergeInMshr,
            visibility: VisibilityPolicy::BlockLine,
            inclusion: InclusionPolicy::NonInclusive,
            adaptive_lease: false,
            max_outstanding_per_warp: 8,
            scheduler: WarpScheduler::Gto,
            noc: NocConfig::default(),
            dram: DramConfig::default(),
            max_ctas_per_sm: 8,
            max_cycles: 200_000_000,
            watchdog_cycles: 1_000_000,
            max_violations_reported: 64,
            faults: FaultConfig::default(),
            transport: TransportConfig::default(),
            trace: TraceConfig::default(),
            sanitize: false,
        }
    }

    /// A scaled-down configuration for unit and property tests: 2 SMs,
    /// 4 warps/SM, tiny caches, 2 L2 banks. Protocol behaviour is identical;
    /// only capacities shrink (and the watchdog fires sooner; `max_cycles`
    /// is the paper platform's).
    #[must_use]
    pub fn test_small() -> Self {
        GpuConfig {
            n_sms: 2,
            warps_per_sm: 4,
            threads_per_warp: 32,
            l1: CacheGeometry::new(2 * 1024, 2, 128),
            l2: CacheGeometry::new(4 * 1024, 4, 128),
            l2_banks: 2,
            l1_mshr_entries: 8,
            l1_mshr_merges: 4,
            l2_mshr_entries: 8,
            max_ctas_per_sm: 4,
            watchdog_cycles: 200_000,
            ..GpuConfig::paper_default()
        }
    }

    /// Returns the config with `protocol` selected. TC implies an inclusive
    /// L2 (Section II-D2), which this setter enforces.
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        if matches!(protocol, ProtocolKind::Tc | ProtocolKind::TcWeak) {
            self.inclusion = InclusionPolicy::Inclusive;
        }
        self
    }

    /// Returns the config with `consistency` selected.
    #[must_use]
    pub fn with_consistency(mut self, consistency: ConsistencyModel) -> Self {
        self.consistency = consistency;
        self
    }

    /// Returns the config with the given lease length.
    #[must_use]
    pub fn with_lease(mut self, lease: Lease) -> Self {
        self.lease = lease;
        self
    }

    /// Returns the config with the given fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Returns the config with the given event-tracing plan.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Returns the config with the given reliable-transport parameters.
    #[must_use]
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Returns the config with the online transition sanitizer toggled.
    #[must_use]
    pub fn with_sanitize(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// Total number of warp slots on the GPU.
    #[must_use]
    pub fn total_warps(&self) -> usize {
        self.n_sms * self.warps_per_sm
    }

    /// Label like `G-TSC-RC` used in figures.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}-{}", self.protocol.label(), self.consistency.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::Snap;

    #[test]
    fn paper_default_matches_section_vi() {
        let c = GpuConfig::paper_default();
        assert_eq!(c.n_sms, 16);
        assert_eq!(c.warps_per_sm, 48);
        assert_eq!(c.threads_per_warp, 32);
        assert_eq!(c.l1.total_bytes(), 16 * 1024);
        assert_eq!(c.l2.total_bytes() * c.l2_banks, 1024 * 1024);
        assert_eq!(c.ts_bits, 16);
    }

    #[test]
    fn tc_forces_inclusion() {
        let c = GpuConfig::paper_default().with_protocol(ProtocolKind::Tc);
        assert_eq!(c.inclusion, InclusionPolicy::Inclusive);
        let c = GpuConfig::paper_default().with_protocol(ProtocolKind::Gtsc);
        assert_eq!(c.inclusion, InclusionPolicy::NonInclusive);
    }

    #[test]
    fn labels_match_figures() {
        let c = GpuConfig::paper_default()
            .with_protocol(ProtocolKind::Gtsc)
            .with_consistency(ConsistencyModel::Sc);
        assert_eq!(c.label(), "G-TSC-SC");
        assert_eq!(ProtocolKind::NoL1.label(), "BL");
        assert_eq!(ProtocolKind::TcWeak.label(), "TC-Weak");
        assert_eq!(ProtocolKind::L1NoCoherence.label(), "BL-W/L1");
    }

    #[test]
    fn test_small_is_consistent() {
        let c = GpuConfig::test_small();
        assert_eq!(c.total_warps(), 8);
        assert!(c.l1.total_bytes() < GpuConfig::paper_default().l1.total_bytes());
    }

    #[test]
    fn faults_default_inert_chaos_active() {
        assert!(!FaultConfig::default().is_active());
        assert!(!GpuConfig::paper_default().faults.is_active());
        let chaos = FaultConfig::chaos(7);
        assert!(chaos.is_active());
        assert_eq!(chaos.seed, 7);
        // Probabilities are permille values.
        assert!(chaos.noc_jitter_permille <= 1000);
        assert!(chaos.dram_jitter_permille <= 1000);
        let cfg = GpuConfig::test_small().with_faults(chaos);
        assert_eq!(cfg.faults, chaos);
    }

    #[test]
    fn trace_default_inert_presets_active() {
        assert!(!TraceConfig::default().is_enabled());
        assert!(!GpuConfig::paper_default().trace.is_enabled());
        assert!(TraceConfig::flight().is_enabled());
        let full = TraceConfig::full();
        assert!(full.is_enabled());
        assert_eq!(full.sample_interval, 1024);
        let t = TraceConfig::flight()
            .with_interval(256)
            .with_class_mask(0b11)
            .with_blocks(8, 16)
            .with_flight_capacity(32);
        assert_eq!(t.sample_interval, 256);
        assert_eq!(t.class_mask, 0b11);
        assert_eq!(t.block_range, Some((8, 16)));
        assert_eq!(t.flight_capacity, 32);
        let cfg = GpuConfig::test_small().with_trace(t);
        assert_eq!(cfg.trace, t);
    }

    #[test]
    fn loss_faults_are_off_in_chaos_and_on_in_lossy() {
        let chaos = FaultConfig::chaos(3);
        assert!(!chaos.lossy_active(), "chaos never drops");
        assert_eq!(chaos.noc_drop_permille, 0);
        assert_eq!(chaos.l2_crash_count, 0);
        let lossy = FaultConfig::lossy(3, 50);
        assert!(lossy.lossy_active() && lossy.is_active());
        assert_eq!(lossy.noc_drop_permille, 50);
        assert_eq!(lossy.noc_corrupt_permille, 25);
        // Everything chaos perturbs stays on underneath.
        assert_eq!(lossy.noc_jitter_permille, chaos.noc_jitter_permille);
        let crashy = FaultConfig::default().with_bank_crashes(2, 10_000);
        assert!(crashy.lossy_active() && crashy.is_active());
        assert!(
            !FaultConfig::default()
                .with_bank_crashes(2, 0)
                .lossy_active(),
            "a zero window schedules nothing"
        );
    }

    #[test]
    fn transport_defaults_are_sane() {
        let t = TransportConfig::default();
        assert!(t.retransmit_timeout > 2 * NocConfig::default().latency);
        assert!(
            t.retry_timeout >= t.retransmit_timeout << t.max_backoff_exp.min(4),
            "end-to-end retry must outlast several transport backoffs"
        );
        assert_eq!(GpuConfig::paper_default().transport, t);
        let custom = TransportConfig {
            retransmit_timeout: 128,
            ..t
        };
        let cfg = GpuConfig::test_small().with_transport(custom);
        assert_eq!(cfg.transport.retransmit_timeout, 128);
    }

    #[test]
    fn sanitizer_defaults_off() {
        assert!(!GpuConfig::paper_default().sanitize);
        assert!(!GpuConfig::test_small().sanitize);
        assert!(GpuConfig::test_small().with_sanitize(true).sanitize);
    }

    #[test]
    fn fabric_default_inert_knobs_arm_transport() {
        let f = FabricConfig::default();
        assert!(!f.lossy_active());
        assert!(f.noc.latency > NocConfig::default().latency);
        assert!(f.transport.retransmit_timeout > TransportConfig::default().retransmit_timeout);
        assert!(f.grant_lease.0 > Lease::default().0);
        let lossy = FabricConfig::default().lossy(9, 40);
        assert!(lossy.lossy_active());
        assert_eq!(lossy.faults.noc_drop_permille, 40);
        assert_eq!(lossy.faults.noc_corrupt_permille, 20);
        assert_eq!(lossy.faults.seed, 9);
        let part = FabricConfig::default().with_partitions(2, 10_000, 500);
        assert!(part.partitions_active() && part.lossy_active());
        assert!(
            !FabricConfig::default()
                .with_partitions(2, 0, 500)
                .partitions_active(),
            "a zero window schedules nothing"
        );
        let crashy = FabricConfig::default().with_device_crashes(1, 5_000);
        assert!(crashy.device_crashes_active() && crashy.lossy_active());
    }

    #[test]
    fn multi_gpu_config_labels_and_round_trip() {
        let m = MultiGpuConfig::test_small(4);
        assert_eq!(m.n_devices, 4);
        assert_eq!(m.label(), "G-TSC-RC x4");
        let f = FabricConfig::default().with_partitions(1, 1000, 100);
        let m = m.with_fabric(f);
        assert_eq!(m.fabric, f);
        // The fabric config must round-trip through the snapshot codec.
        let mut w = crate::snap::SnapWriter::new();
        f.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::snap::SnapReader::new(&bytes);
        let back = FabricConfig::load(&mut r).expect("decode");
        assert_eq!(back, f);
    }

    #[test]
    fn watchdog_defaults_on_but_below_cycle_limit() {
        let c = GpuConfig::paper_default();
        assert!(c.watchdog_cycles > 0 && c.watchdog_cycles < c.max_cycles);
        let t = GpuConfig::test_small();
        assert!(t.watchdog_cycles > 0 && t.watchdog_cycles < t.max_cycles);
        assert_eq!(t.max_violations_reported, 64);
    }
}
