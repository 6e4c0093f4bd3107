//! Statistics counters gathered by the simulator.
//!
//! These are passive, public-field data structures in the C spirit: every
//! component owns one, increments it inline, and the simulator merges them
//! into a [`SimStats`] at the end of a run. The counters map one-to-one to
//! the quantities plotted in the paper's evaluation (execution cycles,
//! pipeline stalls from memory delays, NoC traffic, cache miss classes).

use crate::time::Cycle;

/// Why a warp could not issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Waiting on an outstanding load/store (memory delay — Figure 13).
    Memory,
    /// Waiting at an explicit fence.
    Fence,
    /// Waiting at a CTA barrier.
    Barrier,
    /// Structural: LDST queue or MSHR full.
    Structural,
}

/// Top-down attribution of one simulated SM-cycle (DESIGN.md §15).
///
/// Every cycle of every SM lands in exactly one bucket, so the per-SM
/// [`CycleBuckets`] sum exactly to the elapsed cycle count — the
/// invariant the sanitizer and `tests/spans.rs` assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleReason {
    /// The SM issued at least one instruction this cycle.
    Issue,
    /// All issuable warps were blocked behind a lease-expired refetch
    /// (a G-TSC coherence miss in flight).
    LeaseExpiredWait,
    /// The L1 MSHR file was full, rejecting new misses.
    MshrFull,
    /// Requests were queued awaiting NoC injection bandwidth.
    NocBackpressure,
    /// Waiting on the memory system below the NoC (L2 miss / DRAM).
    DramWait,
    /// Stalled by a §V-D timestamp-rollover epoch freeze.
    RolloverFreeze,
    /// No resident warps (or nothing to do).
    Idle,
}

impl CycleReason {
    /// All reasons, in bucket-index order.
    pub const ALL: [CycleReason; 7] = [
        CycleReason::Issue,
        CycleReason::LeaseExpiredWait,
        CycleReason::MshrFull,
        CycleReason::NocBackpressure,
        CycleReason::DramWait,
        CycleReason::RolloverFreeze,
        CycleReason::Idle,
    ];

    /// Stable short name, used in folded-flamegraph and Prometheus output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CycleReason::Issue => "issue",
            CycleReason::LeaseExpiredWait => "lease_expired_wait",
            CycleReason::MshrFull => "mshr_full",
            CycleReason::NocBackpressure => "noc_backpressure",
            CycleReason::DramWait => "dram_wait",
            CycleReason::RolloverFreeze => "rollover_freeze",
            CycleReason::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        match self {
            CycleReason::Issue => 0,
            CycleReason::LeaseExpiredWait => 1,
            CycleReason::MshrFull => 2,
            CycleReason::NocBackpressure => 3,
            CycleReason::DramWait => 4,
            CycleReason::RolloverFreeze => 5,
            CycleReason::Idle => 6,
        }
    }
}

/// Per-[`CycleReason`] cycle counts for one SM.
///
/// # Examples
///
/// ```
/// use gtsc_types::{CycleBuckets, CycleReason};
/// let mut b = CycleBuckets::default();
/// b.record(CycleReason::Issue);
/// b.record(CycleReason::DramWait);
/// assert_eq!(b.get(CycleReason::Issue), 1);
/// assert_eq!(b.sum(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBuckets {
    counts: [u64; 7],
}

impl CycleBuckets {
    /// Attributes one cycle to `reason`.
    pub fn record(&mut self, reason: CycleReason) {
        self.record_n(reason, 1);
    }

    /// Attributes a stretch of `cycles` cycles to `reason`.
    pub fn record_n(&mut self, reason: CycleReason, cycles: u64) {
        self.counts[reason.index()] += cycles;
    }

    /// Cycles attributed to `reason`.
    #[must_use]
    pub fn get(&self, reason: CycleReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total cycles attributed — must equal elapsed cycles.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds `rhs` into `self`.
    pub fn merge(&mut self, rhs: &CycleBuckets) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts.iter()) {
            *a += b;
        }
    }

    /// Bucket-wise `self - rhs` (saturating), for interval deltas.
    #[must_use]
    pub fn diff(&self, rhs: &CycleBuckets) -> CycleBuckets {
        let mut out = *self;
        for (a, b) in out.counts.iter_mut().zip(rhs.counts.iter()) {
            *a = a.saturating_sub(*b);
        }
        out
    }
}

/// A log2-bucketed latency histogram (bucket *i* counts samples in
/// `[2^i, 2^(i+1))` cycles, except bucket 0 = `[0, 2)` and the last
/// bucket absorbs everything larger).
///
/// # Examples
///
/// ```
/// use gtsc_types::LatencyHist;
/// let mut h = LatencyHist::default();
/// for l in [1, 3, 100, 300, 10_000] {
///     h.record(l);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.5) >= 4.0);
/// // The mean is exact (summed samples), not a bucket-edge estimate.
/// assert_eq!(h.mean(), (1.0 + 3.0 + 100.0 + 300.0 + 10_000.0) / 5.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: [u64; 20],
    /// Exact sum of all recorded samples (for [`LatencyHist::mean`]).
    sum: u64,
}

impl LatencyHist {
    /// Records one latency sample, in cycles.
    pub fn record(&mut self, latency: u64) {
        let b = (64 - latency.max(1).leading_zeros()) as usize - 1;
        self.buckets[b.min(self.buckets.len() - 1)] += 1;
        self.sum = self.sum.saturating_add(latency);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact arithmetic mean of all recorded samples (not a bucket-edge
    /// estimate); `0` with no samples.
    ///
    /// # Examples
    ///
    /// ```
    /// use gtsc_types::LatencyHist;
    /// let mut h = LatencyHist::default();
    /// assert_eq!(h.mean(), 0.0);
    /// h.record(10);
    /// h.record(20);
    /// assert_eq!(h.mean(), 15.0);
    /// ```
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper edge of bucket `i`: bucket 0 covers `[0, 2)`, bucket `i > 0`
    /// covers `[2^i, 2^(i+1))`.
    fn upper_edge(i: usize) -> f64 {
        (1u64 << (i + 1)) as f64
    }

    /// An upper-bound estimate of the `p`-quantile (`p` in `[0, 1]`):
    /// the upper edge of the *non-empty* bucket containing the target
    /// sample. `0` with no samples — in particular, `2.0` (bucket 0's
    /// edge) is reported only when samples were actually recorded in
    /// `[0, 2)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gtsc_types::LatencyHist;
    /// let mut h = LatencyHist::default();
    /// h.record(100); // bucket [64, 128)
    /// // No samples in [0, 2): even p = 0 resolves to the first
    /// // non-empty bucket, never to bucket 0's edge.
    /// assert_eq!(h.percentile(0.0), 128.0);
    /// h.record(1); // now [0, 2) is populated
    /// assert_eq!(h.percentile(0.0), 2.0);
    /// ```
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                // An empty bucket cannot contain the target sample, so it
                // can never contribute its upper edge.
                continue;
            }
            seen += b;
            if seen >= target {
                return Self::upper_edge(i);
            }
        }
        Self::upper_edge(self.buckets.len() - 1)
    }

    /// Adds `rhs` into `self`.
    pub fn merge(&mut self, rhs: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(rhs.sum);
    }

    /// Bucket-wise `self - rhs` (saturating), for interval deltas where
    /// `rhs` is an earlier snapshot of the same histogram.
    #[must_use]
    pub fn diff(&self, rhs: &LatencyHist) -> LatencyHist {
        let mut out = *self;
        for (a, b) in out.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *a = a.saturating_sub(*b);
        }
        out.sum = self.sum.saturating_sub(rhs.sum);
        out
    }

    /// Raw bucket counts (bucket *i* covers `[2^i, 2^(i+1))`, bucket 0
    /// covers `[0, 2)`), for exposition formats that need the shape.
    #[must_use]
    pub fn buckets(&self) -> &[u64; 20] {
        &self.buckets
    }

    /// Exact sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper edge of bucket `i` as a plain integer (`2^(i+1)`), the
    /// `le=` boundary used when rendering Prometheus histograms.
    #[must_use]
    pub fn bucket_upper_edge(i: usize) -> u64 {
        1u64 << (i + 1).min(63)
    }
}

/// What a counter field does for its struct's `merge` and `diff`.
trait Counter {
    fn add(&mut self, rhs: &Self);
    fn delta(&self, rhs: &Self) -> Self;
}

impl Counter for u64 {
    fn add(&mut self, rhs: &u64) {
        *self += rhs;
    }
    fn delta(&self, rhs: &u64) -> u64 {
        self.saturating_sub(*rhs)
    }
}

impl Counter for LatencyHist {
    fn add(&mut self, rhs: &LatencyHist) {
        self.merge(rhs);
    }
    fn delta(&self, rhs: &LatencyHist) -> LatencyHist {
        self.diff(rhs)
    }
}

impl Counter for CycleBuckets {
    fn add(&mut self, rhs: &CycleBuckets) {
        self.merge(rhs);
    }
    fn delta(&self, rhs: &CycleBuckets) -> CycleBuckets {
        self.diff(rhs)
    }
}

/// Declares a counter struct once: the public fields as listed, `merge`,
/// `diff` and the snapshot encoding (DESIGN.md §14), each over every
/// field in declaration order — a counter cannot be merged but not
/// diffed, or counted but not checkpointed.
macro_rules! counters {
    ($(#[$meta:meta])* $name:ident { $($(#[$fmeta:meta])* $field:ident: $ty:ty,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)+
        }

        impl $name {
            /// Adds `rhs` into `self`.
            pub fn merge(&mut self, rhs: &$name) {
                $(Counter::add(&mut self.$field, &rhs.$field);)+
            }

            /// Field-wise `self - rhs` (saturating), for interval deltas
            /// where `rhs` is an earlier snapshot of the same counters.
            #[must_use]
            pub fn diff(&self, rhs: &$name) -> $name {
                $name {
                    $($field: Counter::delta(&self.$field, &rhs.$field),)+
                }
            }
        }

        crate::snap_fields!($name { $($field),+ });
    };
}

counters! {
    /// Per-SM pipeline counters.
    SmStats {
        /// Instructions issued (all classes).
        issued: u64,
        /// Memory instructions issued.
        mem_issued: u64,
        /// Warp-cycles stalled on memory delays (the Figure 13 metric).
        memory_stall_cycles: u64,
        /// Warp-cycles stalled at fences.
        fence_stall_cycles: u64,
        /// Warp-cycles stalled at barriers.
        barrier_stall_cycles: u64,
        /// Warp-cycles stalled for structural hazards.
        structural_stall_cycles: u64,
        /// Cycles in which the SM issued nothing although warps were resident.
        idle_cycles: u64,
        /// Cycles in which the SM issued at least one instruction.
        active_cycles: u64,
        /// Histogram of memory-access latencies (issue → completion).
        mem_latency: LatencyHist,
        /// Top-down attribution of every simulated cycle (DESIGN.md §15);
        /// sums exactly to the elapsed cycle count.
        cycle_buckets: CycleBuckets,
    }
}

impl SmStats {
    /// Records one stalled warp-cycle of the given kind.
    pub fn record_stall(&mut self, kind: StallKind) {
        match kind {
            StallKind::Memory => self.memory_stall_cycles += 1,
            StallKind::Fence => self.fence_stall_cycles += 1,
            StallKind::Barrier => self.barrier_stall_cycles += 1,
            StallKind::Structural => self.structural_stall_cycles += 1,
        }
    }

    /// All stall cycles combined.
    #[must_use]
    pub fn total_stall_cycles(&self) -> u64 {
        self.memory_stall_cycles
            + self.fence_stall_cycles
            + self.barrier_stall_cycles
            + self.structural_stall_cycles
    }
}

counters! {
    /// Counters for one cache (an L1 or an L2 bank).
    CacheStats {
        /// Total lookups (loads + stores).
        accesses: u64,
        /// Lookups that hit with a valid (unexpired) line.
        hits: u64,
        /// Lookups that missed because the tag was absent.
        cold_misses: u64,
        /// Tag matched but the lease had expired / `warp_ts` exceeded `rts`
        /// (a *coherence miss*, Section II-D).
        expired_misses: u64,
        /// Lookups blocked on a line awaiting a write ack (update visibility,
        /// Section V-A).
        blocked_on_pending_write: u64,
        /// Renewal requests sent (L1) or served (L2).
        renewals: u64,
        /// Store operations processed.
        stores: u64,
        /// Lines evicted.
        evictions: u64,
        /// Cycles a write sat stalled waiting for leases to expire (TC only).
        write_stall_cycles: u64,
        /// Cycles replacement stalled because every victim had a live lease
        /// (TC inclusive-L2 only).
        eviction_stall_cycles: u64,
        /// Timestamp rollover events handled (G-TSC, Section V-D).
        ts_rollovers: u64,
        /// Requests merged into an existing MSHR entry.
        mshr_merges: u64,
        /// Duplicate store/atomic requests dropped by the L2 replay filter
        /// (nonzero only under fault injection's at-least-once delivery).
        replayed_stores: u64,
        /// End-to-end retries: requests re-issued by the L1 after the
        /// `TransportConfig::retry_timeout` elapsed without an answer
        /// (nonzero only under loss-fault injection).
        retries: u64,
    }
}

impl CacheStats {
    /// All misses (cold + expired).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.cold_misses + self.expired_misses
    }

    /// Hit rate in `[0, 1]`; `0` when there were no accesses.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

counters! {
    /// Reliable-transport counters (`gtsc_noc::ReliableNet`), all zero on
    /// the fault-free fast path where the transport runs in passthrough
    /// mode. `bank_recoveries` is filled in by the simulator (crash events
    /// are injected above the NoC).
    TransportStats {
        /// Payloads delivered to the protocol exactly once, in per-flow
        /// FIFO order (the transport's contract).
        delivered: u64,
        /// Data segments re-sent (timeout- or NACK-driven).
        retransmits: u64,
        /// Retransmits triggered by a timeout expiry specifically.
        timeouts: u64,
        /// NACKs sent by receivers (gap observed or payload corrupted).
        nacks: u64,
        /// Unacked segments retired by cumulative ACKs.
        acks: u64,
        /// Duplicate or stale segments discarded by the receive window.
        dup_dropped: u64,
        /// Retransmits that hit the exponential-backoff cap.
        max_backoff_hits: u64,
        /// Per-flow transport resets (both ends), e.g. around a bank crash.
        flows_reset: u64,
        /// L2-bank crash/recovery events completed.
        bank_recoveries: u64,
    }
}

counters! {
    /// Interconnect counters (the Figure 15 metric).
    NocStats {
        /// Packets injected (both networks).
        packets: u64,
        /// Flits transferred — the paper's "NoC traffic".
        flits: u64,
        /// Control-only packets (requests, renewals, acks without data).
        control_packets: u64,
        /// Packets carrying a data block.
        data_packets: u64,
        /// Sum of per-packet latencies, for averaging.
        total_packet_latency: u64,
        /// Cycles packets spent queued awaiting injection bandwidth.
        queue_cycles: u64,
    }
}

impl NocStats {
    /// Mean end-to-end packet latency; `0` with no packets.
    #[must_use]
    pub fn avg_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_packet_latency as f64 / self.packets as f64
        }
    }
}

counters! {
    /// DRAM counters (per partition, merged).
    DramStats {
        /// Read bursts serviced.
        reads: u64,
        /// Write bursts serviced.
        writes: u64,
        /// Row-buffer hits.
        row_hits: u64,
        /// Row-buffer misses (activations).
        row_misses: u64,
        /// Requests rejected for a full queue (back-pressure events).
        queue_full_events: u64,
    }
}

/// Aggregated results of one simulation run.
///
/// The `sm`/`l1`/`l2`/`dram` fields are merged across all components;
/// the `per_*` vectors preserve the per-component structure (one entry
/// per SM, L1, L2 bank, DRAM partition) for imbalance analyses and the
/// interval sampler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total execution time.
    pub cycles: Cycle,
    /// Simulated steps covered by cycle accounting; every entry of
    /// `per_sm[i].cycle_buckets` sums to exactly this value. Zero for
    /// producers that predate cycle accounting.
    pub accounted_cycles: u64,
    /// Merged SM pipeline counters.
    pub sm: SmStats,
    /// Merged private-L1 counters.
    pub l1: CacheStats,
    /// Merged shared-L2 counters.
    pub l2: CacheStats,
    /// Interconnect counters.
    pub noc: NocStats,
    /// Reliable-transport counters (all zero without loss faults).
    pub transport: TransportStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Per-SM pipeline counters (index = SM id); empty when the producer
    /// only had merged totals.
    pub per_sm: Vec<SmStats>,
    /// Per-SM private-L1 counters (index = SM id).
    pub per_l1: Vec<CacheStats>,
    /// Per-bank shared-L2 counters (index = bank id).
    pub per_l2: Vec<CacheStats>,
    /// Per-partition DRAM counters (index = partition id).
    pub per_dram: Vec<DramStats>,
}

impl SimStats {
    /// Instructions per cycle over the whole GPU; `0` for an empty run.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles.0 == 0 {
            0.0
        } else {
            self.sm.issued as f64 / self.cycles.0 as f64
        }
    }

    /// Field-wise `self - rhs` (saturating), for interval deltas where
    /// `rhs` is an earlier snapshot of the same run. Per-component
    /// vectors are diffed element-wise over the common prefix.
    #[must_use]
    pub fn diff(&self, rhs: &SimStats) -> SimStats {
        fn diff_vec<T: Default + Clone>(a: &[T], b: &[T], f: impl Fn(&T, &T) -> T) -> Vec<T> {
            a.iter()
                .enumerate()
                .map(|(i, x)| b.get(i).map_or_else(|| x.clone(), |y| f(x, y)))
                .collect()
        }
        SimStats {
            cycles: Cycle(self.cycles.0.saturating_sub(rhs.cycles.0)),
            accounted_cycles: self.accounted_cycles.saturating_sub(rhs.accounted_cycles),
            sm: self.sm.diff(&rhs.sm),
            l1: self.l1.diff(&rhs.l1),
            l2: self.l2.diff(&rhs.l2),
            noc: self.noc.diff(&rhs.noc),
            transport: self.transport.diff(&rhs.transport),
            dram: self.dram.diff(&rhs.dram),
            per_sm: diff_vec(&self.per_sm, &rhs.per_sm, |a, b| a.diff(b)),
            per_l1: diff_vec(&self.per_l1, &rhs.per_l1, |a, b| a.diff(b)),
            per_l2: diff_vec(&self.per_l2, &rhs.per_l2, |a, b| a.diff(b)),
            per_dram: diff_vec(&self.per_dram, &rhs.per_dram, |a, b| a.diff(b)),
        }
    }
}

// Snapshot encodings (DESIGN.md §14). `LatencyHist`'s impl must live in
// this module because its fields are private; the plain counter structs
// get theirs from `counters!`.
impl crate::snap::Snap for LatencyHist {
    fn save(&self, w: &mut crate::snap::SnapWriter) {
        crate::snap::Snap::save(&self.buckets, w);
        w.u64(self.sum);
    }
    fn load(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapshotError> {
        Ok(LatencyHist {
            buckets: crate::snap::Snap::load(r)?,
            sum: r.u64()?,
        })
    }
}

impl crate::snap::Snap for CycleBuckets {
    fn save(&self, w: &mut crate::snap::SnapWriter) {
        crate::snap::Snap::save(&self.counts, w);
    }
    fn load(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapshotError> {
        Ok(CycleBuckets {
            counts: crate::snap::Snap::load(r)?,
        })
    }
}

crate::snap_fields!(SimStats {
    cycles,
    accounted_cycles,
    sm,
    l1,
    l2,
    noc,
    transport,
    dram,
    per_sm,
    per_l1,
    per_l2,
    per_dram,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_merge_and_rates() {
        let mut a = CacheStats {
            accesses: 10,
            hits: 6,
            cold_misses: 3,
            expired_misses: 1,
            ..Default::default()
        };
        let b = CacheStats {
            accesses: 10,
            hits: 10,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.accesses, 20);
        assert_eq!(a.hits, 16);
        assert_eq!(a.misses(), 4);
        assert!((a.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(NocStats::default().avg_latency(), 0.0);
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn stall_recording() {
        let mut s = SmStats::default();
        s.record_stall(StallKind::Memory);
        s.record_stall(StallKind::Memory);
        s.record_stall(StallKind::Fence);
        s.record_stall(StallKind::Barrier);
        s.record_stall(StallKind::Structural);
        assert_eq!(s.memory_stall_cycles, 2);
        assert_eq!(s.total_stall_cycles(), 5);
    }

    #[test]
    fn latency_hist_buckets_and_percentiles() {
        let mut h = LatencyHist::default();
        assert_eq!(h.percentile(0.5), 0.0);
        for _ in 0..90 {
            h.record(10); // bucket [8,16)
        }
        for _ in 0..10 {
            h.record(5000); // bucket [4096,8192)
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.5), 16.0);
        assert_eq!(h.percentile(0.99), 8192.0);
        // Merge doubles the counts.
        let mut h2 = h;
        h2.merge(&h);
        assert_eq!(h2.count(), 200);
    }

    #[test]
    fn latency_hist_mean_is_exact() {
        let mut h = LatencyHist::default();
        assert_eq!(h.mean(), 0.0);
        for l in [7, 9, 14] {
            h.record(l);
        }
        assert!((h.mean() - 10.0).abs() < 1e-12);
        let mut doubled = h;
        doubled.merge(&h);
        assert!((doubled.mean() - 10.0).abs() < 1e-12, "merge keeps sums");
        // diff against an earlier snapshot recovers the interval mean.
        let snapshot = h;
        h.record(100);
        let delta = h.diff(&snapshot);
        assert_eq!(delta.count(), 1);
        assert!((delta.mean() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn latency_hist_bucket0_edge_needs_samples_below_two() {
        let mut h = LatencyHist::default();
        h.record(50); // bucket [32, 64)
                      // No sample in [0,2): no percentile may report bucket 0's edge.
        assert_eq!(h.percentile(0.0), 64.0);
        assert_eq!(h.percentile(0.5), 64.0);
        h.record(1);
        assert_eq!(h.percentile(0.0), 2.0);
        assert_eq!(h.percentile(1.0), 64.0);
    }

    #[test]
    fn stats_diff_is_field_wise_and_saturating() {
        let mut later = SmStats {
            issued: 10,
            idle_cycles: 5,
            ..Default::default()
        };
        later.record_stall(StallKind::Memory);
        let earlier = SmStats {
            issued: 4,
            idle_cycles: 7, // larger than `later`: diff saturates to 0
            ..Default::default()
        };
        let d = later.diff(&earlier);
        assert_eq!(d.issued, 6);
        assert_eq!(d.idle_cycles, 0);
        assert_eq!(d.memory_stall_cycles, 1);

        let a = CacheStats {
            accesses: 9,
            hits: 6,
            ..Default::default()
        };
        let b = CacheStats {
            accesses: 4,
            hits: 1,
            ..Default::default()
        };
        assert_eq!(a.diff(&b).accesses, 5);
        assert_eq!(a.diff(&b).hits, 5);

        let sim_a = SimStats {
            cycles: Cycle(100),
            per_sm: vec![SmStats {
                issued: 8,
                ..Default::default()
            }],
            ..Default::default()
        };
        let sim_b = SimStats {
            cycles: Cycle(60),
            per_sm: vec![SmStats {
                issued: 3,
                ..Default::default()
            }],
            ..Default::default()
        };
        let d = sim_a.diff(&sim_b);
        assert_eq!(d.cycles.0, 40);
        assert_eq!(d.per_sm[0].issued, 5);
    }

    #[test]
    fn transport_stats_merge_and_diff() {
        let mut a = TransportStats {
            delivered: 10,
            retransmits: 3,
            timeouts: 2,
            nacks: 1,
            acks: 9,
            dup_dropped: 4,
            max_backoff_hits: 1,
            flows_reset: 2,
            bank_recoveries: 1,
        };
        let snapshot = a;
        a.merge(&snapshot);
        assert_eq!(a.delivered, 20);
        assert_eq!(a.retransmits, 6);
        assert_eq!(a.bank_recoveries, 2);
        let d = a.diff(&snapshot);
        assert_eq!(d, snapshot, "diff recovers the interval");
        // Saturating on reversed order.
        assert_eq!(snapshot.diff(&a).delivered, 0);
    }

    #[test]
    fn latency_hist_extremes() {
        let mut h = LatencyHist::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert!(h.percentile(1.0) >= h.percentile(0.01));
    }

    #[test]
    fn cycle_buckets_record_merge_diff() {
        let mut b = CycleBuckets::default();
        for r in CycleReason::ALL {
            b.record(r);
        }
        b.record(CycleReason::Issue);
        assert_eq!(b.get(CycleReason::Issue), 2);
        assert_eq!(b.sum(), 8);
        let snapshot = b;
        b.merge(&snapshot);
        assert_eq!(b.sum(), 16);
        let d = b.diff(&snapshot);
        assert_eq!(d, snapshot, "diff recovers the interval");
        assert_eq!(snapshot.diff(&b).sum(), 0, "diff saturates");
        // Names are distinct and stable (they appear in output formats).
        let names: std::collections::BTreeSet<_> =
            CycleReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), CycleReason::ALL.len());
    }

    #[test]
    fn latency_hist_exposes_buckets() {
        let mut h = LatencyHist::default();
        h.record(3); // bucket 1: [2, 4)
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.sum(), 3);
        assert_eq!(LatencyHist::bucket_upper_edge(0), 2);
        assert_eq!(LatencyHist::bucket_upper_edge(3), 16);
    }

    #[test]
    fn noc_avg_latency() {
        let n = NocStats {
            packets: 4,
            total_packet_latency: 40,
            ..Default::default()
        };
        assert!((n.avg_latency() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sim_ipc() {
        let s = SimStats {
            cycles: Cycle(100),
            sm: SmStats {
                issued: 250,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }
}
