//! The interval sampler: a time-series of [`SimStats`] deltas.
//!
//! Aggregate counters say *what* a run did; the sampler says *when*.
//! Every `interval` cycles it diffs the current cumulative stats against
//! the previous snapshot, yielding per-interval IPC, stall breakdown,
//! expired-miss rate, and NoC flits — with per-SM / per-bank resolution
//! when the producer fills [`SimStats::per_sm`] and friends.

use gtsc_types::{Cycle, SimStats};

/// One sampling interval's delta.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// First cycle covered (inclusive).
    pub start: Cycle,
    /// Last cycle covered (exclusive).
    pub end: Cycle,
    /// Counter deltas over `[start, end)`; `delta.cycles` is the
    /// interval length.
    pub delta: SimStats,
}

impl IntervalSample {
    /// Instructions per cycle over this interval.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.delta.ipc()
    }

    /// Expired misses / accesses in this interval's L1 traffic
    /// (the coherence-miss rate the paper's Figure 13 stalls trace back
    /// to); `0` with no accesses.
    #[must_use]
    pub fn expired_miss_rate(&self) -> f64 {
        if self.delta.l1.accesses == 0 {
            0.0
        } else {
            self.delta.l1.expired_misses as f64 / self.delta.l1.accesses as f64
        }
    }
}

/// Snapshots cumulative [`SimStats`] every `interval` cycles.
///
/// # Examples
///
/// ```
/// use gtsc_trace::IntervalSampler;
/// use gtsc_types::{Cycle, SimStats};
///
/// let mut s = IntervalSampler::new(100);
/// let mut stats = SimStats::default();
/// stats.sm.issued = 50;
/// stats.cycles = Cycle(100);
/// assert!(s.due(Cycle(100)));
/// s.sample(Cycle(100), &stats);
/// stats.sm.issued = 80;
/// stats.cycles = Cycle(200);
/// s.sample(Cycle(200), &stats);
/// let samples = s.samples();
/// assert_eq!(samples.len(), 2);
/// assert_eq!(samples[1].delta.sm.issued, 30);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IntervalSampler {
    interval: u64,
    last: Cycle,
    prev: SimStats,
    samples: Vec<IntervalSample>,
}

impl IntervalSampler {
    /// A sampler firing every `interval` cycles; `0` never fires.
    #[must_use]
    pub fn new(interval: u64) -> Self {
        IntervalSampler {
            interval,
            ..IntervalSampler::default()
        }
    }

    /// Whether a sample is due at `now`.
    #[must_use]
    pub fn due(&self, now: Cycle) -> bool {
        self.interval > 0 && now.0 - self.last.0 >= self.interval
    }

    /// The first cycle at which [`IntervalSampler::due`] holds, if the
    /// sampler fires at all (the engine does not step past it).
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        (self.interval > 0).then(|| self.last + self.interval)
    }

    /// Records the delta since the previous snapshot. `current` must be
    /// the *cumulative* stats at `now`.
    pub fn sample(&mut self, now: Cycle, current: &SimStats) {
        let mut delta = current.diff(&self.prev);
        delta.cycles = Cycle(now.0 - self.last.0);
        self.samples.push(IntervalSample {
            start: self.last,
            end: now,
            delta,
        });
        self.prev = current.clone();
        self.last = now;
    }

    /// Records the final partial interval, if any cycles elapsed since
    /// the last sample.
    pub fn finish(&mut self, now: Cycle, current: &SimStats) {
        if self.interval > 0 && now.0 > self.last.0 {
            self.sample(now, current);
        }
    }

    /// The recorded time-series, oldest first.
    #[must_use]
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }

    /// The configured interval in cycles (`0` = disabled).
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }
}

gtsc_types::snap_fields!(IntervalSample { start, end, delta });
gtsc_types::snap_fields!(IntervalSampler {
    interval,
    last,
    prev,
    samples,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_at(cycles: u64, issued: u64, expired: u64) -> SimStats {
        let mut s = SimStats {
            cycles: Cycle(cycles),
            ..SimStats::default()
        };
        s.sm.issued = issued;
        s.l1.accesses = issued;
        s.l1.expired_misses = expired;
        s
    }

    #[test]
    fn deltas_are_per_interval_not_cumulative() {
        let mut s = IntervalSampler::new(10);
        assert!(!s.due(Cycle(5)));
        assert!(s.due(Cycle(10)));
        s.sample(Cycle(10), &stats_at(10, 20, 2));
        s.sample(Cycle(20), &stats_at(20, 50, 2));
        let v = s.samples();
        assert_eq!(v[0].delta.sm.issued, 20);
        assert_eq!(v[1].delta.sm.issued, 30);
        assert!((v[0].ipc() - 2.0).abs() < 1e-12);
        assert!((v[1].ipc() - 3.0).abs() < 1e-12);
        assert!((v[0].expired_miss_rate() - 0.1).abs() < 1e-12);
        assert_eq!(v[1].expired_miss_rate(), 0.0);
    }

    #[test]
    fn finish_captures_the_partial_tail() {
        let mut s = IntervalSampler::new(100);
        s.sample(Cycle(100), &stats_at(100, 10, 0));
        s.finish(Cycle(130), &stats_at(130, 16, 0));
        let v = s.samples();
        assert_eq!(v.len(), 2);
        assert_eq!(v[1].start, Cycle(100));
        assert_eq!(v[1].end, Cycle(130));
        assert_eq!(v[1].delta.cycles.0, 30);
        assert_eq!(v[1].delta.sm.issued, 6);
        // Nothing elapsed since: finish is idempotent.
        let mut again = s.clone();
        again.finish(Cycle(130), &stats_at(130, 16, 0));
        assert_eq!(again.samples().len(), 2);
    }

    #[test]
    fn disabled_sampler_never_fires() {
        let s = IntervalSampler::new(0);
        assert!(!s.due(Cycle(1_000_000)));
        let mut s2 = s.clone();
        s2.finish(Cycle(500), &stats_at(500, 1, 0));
        assert!(s2.samples().is_empty());
    }
}
