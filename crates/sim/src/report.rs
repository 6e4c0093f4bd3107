//! What a run hands back: the [`RunReport`], the structured
//! [`SimError`]s with their [`StallDiagnosis`], and the resumable
//! [`KernelProgress`] cursor. Plain data shared by both topologies.

use gtsc_gpu::{Kernel, WarpStallInfo};
use gtsc_noc::FlowDiag;
use gtsc_protocol::msg::Epoch;
use gtsc_protocol::ControllerPressure;
use gtsc_trace::TraceEvent;
use gtsc_types::{BlockAddr, Cycle, SimStats};

use crate::check::Violation;

/// Result of running one or more kernels.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Aggregated hardware counters.
    pub stats: SimStats,
    /// Coherence violations detected so far (empty on a correct run —
    /// except under [`gtsc_types::ProtocolKind::L1NoCoherence`] on
    /// sharing workloads, where violations are the expected evidence of
    /// incoherence).
    pub violations: Vec<Violation>,
    /// Merged flight-recorder tail captured alongside the violations,
    /// cycle-ordered (empty when tracing is off or the run was clean).
    pub trace_tail: Vec<TraceEvent>,
}

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configured cycle limit elapsed with work still pending
    /// (deadlock guard of last resort; the watchdog usually fires first).
    CycleLimit {
        /// Cycle at which the run aborted.
        at: Cycle,
        /// Warps still resident across all SMs.
        resident_warps: usize,
    },
    /// The forward-progress watchdog saw no completion, no instruction
    /// issue, and no CTA dispatch for `cfg.watchdog_cycles` consecutive
    /// cycles. The diagnosis pinpoints where work is stuck.
    Stalled {
        /// Cycle at which the watchdog fired.
        at: Cycle,
        /// Snapshot of every stalled warp, queue, and MSHR.
        diagnosis: Box<StallDiagnosis>,
    },
    /// The kernel cannot run on this configuration (e.g. a CTA wider
    /// than an SM's warp slots).
    InvalidKernel(String),
    /// The configuration itself is degenerate (e.g. zero SMs or banks).
    InvalidConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit { at, resident_warps } => write!(
                f,
                "cycle limit reached at {at} with {resident_warps} warps still resident"
            ),
            SimError::Stalled { at, diagnosis } => {
                write!(f, "no forward progress detected at {at}: {diagnosis}")
            }
            SimError::InvalidKernel(msg) => write!(f, "invalid kernel: {msg}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Device-scoped slice of a [`StallDiagnosis`] in a multi-GPU run: where
/// one device's work is stuck relative to the inter-GPU fabric. The key
/// distinction it preserves is *expired inter-GPU grant* (a parked read
/// whose warp outran a grant the device still holds — coherence is
/// waiting on the home node, not on a cache resource) versus a cold
/// first acquisition or a store awaiting its home acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeviceStall {
    /// Device index.
    pub device: usize,
    /// Parked reads whose warp outran a still-installed inter-GPU grant.
    pub expired_grant_waits: usize,
    /// Parked reads on a block with no grant installed at all.
    pub cold_grant_waits: usize,
    /// Stores forwarded to the home node and not yet acknowledged.
    pub stores_awaiting_home: usize,
    /// The outrun grants, as `(block, grant rts)`.
    pub expired_grants: Vec<(BlockAddr, u64)>,
    /// Transport pressure on this device's fabric flows (both
    /// directions), worst first.
    pub fabric_flows: Vec<FlowDiag>,
}

impl std::fmt::Display for DeviceStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dev{}: {} read(s) stalled on expired inter-GPU grant, {} on cold grant \
             acquisition, {} store(s) awaiting home ack",
            self.device, self.expired_grant_waits, self.cold_grant_waits, self.stores_awaiting_home
        )?;
        for (block, rts) in self.expired_grants.iter().take(4) {
            write!(f, "\n    grant expired: {block} rts {rts}")?;
        }
        for d in self.fabric_flows.iter().take(4) {
            write!(f, "\n    fabric {d}")?;
        }
        Ok(())
    }
}

/// Structured explanation of a loss of forward progress, produced by the
/// watchdog when it aborts a run via [`SimError::Stalled`]. Everything is
/// a point-in-time snapshot taken at the abort cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StallDiagnosis {
    /// Consecutive cycles without any completion, issue, or dispatch.
    pub stalled_for: u64,
    /// Warps still resident across all SMs.
    pub resident_warps: usize,
    /// Every stalled warp, tagged with its SM index.
    pub warps: Vec<(usize, WarpStallInfo)>,
    /// Per-SM private-cache occupancy (MSHRs, outgoing queue, acks).
    pub l1: Vec<ControllerPressure>,
    /// Per-bank shared-cache occupancy.
    pub l2: Vec<ControllerPressure>,
    /// Packets on the request network's wires.
    pub req_net_in_flight: usize,
    /// Flits waiting at request-network injection ports.
    pub req_net_queued: usize,
    /// Packets on the response network's wires.
    pub resp_net_in_flight: usize,
    /// Flits waiting at response-network injection ports.
    pub resp_net_queued: usize,
    /// Data segments sent but not yet cumulatively acked, across both
    /// networks (zero unless the reliable-transport layer is armed).
    pub transport_unacked: usize,
    /// Per-flow transport pressure on the request network (SM → bank):
    /// pending-retransmit queue depth and oldest-unacked age, worst
    /// (oldest) first.
    pub req_transport_flows: Vec<FlowDiag>,
    /// Same for the response network (bank → SM).
    pub resp_transport_flows: Vec<FlowDiag>,
    /// Retransmissions performed so far (timeout- plus NACK-driven).
    pub retransmits: u64,
    /// Requests waiting in DRAM controller queues (all partitions).
    pub dram_queued: usize,
    /// Requests being serviced by DRAM banks (all partitions).
    pub dram_in_flight: usize,
    /// Timestamp-reset epoch at the abort cycle (Section V-D).
    pub epoch: Epoch,
    /// Global rollovers performed so far.
    pub ts_rollovers: u64,
    /// Per-device fabric-facing stall attribution (empty on a
    /// single-GPU machine, one entry per device under `MultiGpuSim`).
    pub devices: Vec<DeviceStall>,
    /// Merged flight-recorder tail across every component, oldest first
    /// (empty unless tracing was enabled — see
    /// [`gtsc_types::TraceConfig`]).
    pub recent_events: Vec<TraceEvent>,
}

impl std::fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} warps resident, no progress for {} cycles (epoch {}, {} rollovers)",
            self.resident_warps, self.stalled_for, self.epoch, self.ts_rollovers
        )?;
        for (sm, w) in &self.warps {
            writeln!(f, "  sm{sm}: {w}")?;
        }
        for (i, p) in self.l1.iter().enumerate() {
            if !p.is_empty() {
                writeln!(f, "  l1[{i}]: {p}")?;
            }
        }
        for (i, p) in self.l2.iter().enumerate() {
            if !p.is_empty() {
                writeln!(f, "  l2[{i}]: {p}")?;
            }
        }
        writeln!(
            f,
            "  noc: req {} in flight / {} queued, resp {} in flight / {} queued",
            self.req_net_in_flight,
            self.req_net_queued,
            self.resp_net_in_flight,
            self.resp_net_queued
        )?;
        if self.transport_unacked > 0 || self.retransmits > 0 {
            writeln!(
                f,
                "  transport: {} unacked, {} retransmits so far",
                self.transport_unacked, self.retransmits
            )?;
            for d in self.req_transport_flows.iter().take(4) {
                writeln!(f, "    req {d}")?;
            }
            for d in self.resp_transport_flows.iter().take(4) {
                writeln!(f, "    resp {d}")?;
            }
        }
        write!(
            f,
            "  dram: {} queued, {} in service",
            self.dram_queued, self.dram_in_flight
        )?;
        for d in &self.devices {
            write!(f, "\n  {d}")?;
        }
        if !self.recent_events.is_empty() {
            let shown = self.recent_events.len().min(16);
            let tail = &self.recent_events[self.recent_events.len() - shown..];
            write!(f, "\n  last {shown} trace events:")?;
            for e in tail {
                write!(f, "\n    {e}")?;
            }
        }
        Ok(())
    }
}

/// Resumable dispatch state of one in-flight kernel: everything
/// [`advance_kernel`](crate::Sim::advance_kernel) needs between slices
/// that is not part of the machine itself — the CTA dispatch cursor, the
/// round-robin SM cursor, and the forward-progress watchdog's
/// fingerprint. Snapshot it alongside the machine (via
/// [`save_snapshot`](crate::Sim::save_snapshot)) to checkpoint a run
/// mid-kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProgress {
    /// Identity of the kernel this progress belongs to; resuming with a
    /// different kernel is rejected.
    pub(crate) kernel_name: String,
    pub(crate) n_ctas: usize,
    pub(crate) warps_per_cta: usize,
    /// Next CTA to dispatch.
    pub(crate) next_cta: usize,
    /// Round-robin dispatch cursor across SMs.
    pub(crate) sm_cursor: usize,
    /// Forward-progress watchdog fingerprint: moves whenever the machine
    /// does useful work (completions, issues, dispatch, retirement,
    /// transport progress). Seeded with sentinels so the first cycle of
    /// a fresh run always registers progress.
    pub(crate) last_fingerprint: (u64, u64, usize, usize, u64),
    /// Cycle at which the fingerprint last moved.
    pub(crate) last_progress: Cycle,
}

impl KernelProgress {
    /// Fresh progress for `kernel` (nothing dispatched yet).
    #[must_use]
    pub fn new(kernel: &dyn Kernel) -> Self {
        KernelProgress {
            kernel_name: kernel.name().to_owned(),
            n_ctas: kernel.n_ctas(),
            warps_per_cta: kernel.warps_per_cta(),
            next_cta: 0,
            sm_cursor: 0,
            last_fingerprint: (0, 0, usize::MAX, usize::MAX, u64::MAX),
            last_progress: Cycle(0),
        }
    }

    /// CTAs dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> usize {
        self.next_cta
    }

    /// Whether every CTA of the grid has been dispatched (warps may
    /// still be resident).
    #[must_use]
    pub fn fully_dispatched(&self) -> bool {
        self.next_cta == self.n_ctas
    }

    /// Whether `kernel` is the kernel this progress was created for.
    #[must_use]
    pub fn matches(&self, kernel: &dyn Kernel) -> bool {
        self.kernel_name == kernel.name()
            && self.n_ctas == kernel.n_ctas()
            && self.warps_per_cta == kernel.warps_per_cta()
    }
}

gtsc_types::snap_fields!(KernelProgress {
    kernel_name,
    n_ctas,
    warps_per_cta,
    next_cta,
    sm_cursor,
    last_fingerprint,
    last_progress,
});
