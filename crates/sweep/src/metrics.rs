//! The sweep service's metrics registry.
//!
//! Counters and log-bucketed histograms for the service-level health
//! signals (job wall time, checkpoint encodes and writes, journal fsyncs,
//! retries, sheds), rendered in the Prometheus text exposition format — the
//! `sweep` binary writes it to `--metrics-file` after the run and on
//! `SIGUSR1` mid-run.
//!
//! Everything here is execution bookkeeping: metrics never influence
//! results (which stay deterministic and journal-replayable), so the
//! registry is all relaxed atomics plus mutexed histograms, shared
//! freely across worker threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use gtsc_types::LatencyHist;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared counters + histograms for one sweep run.
#[derive(Debug, Default)]
pub struct SweepMetrics {
    /// Jobs that reached a journaled `Done` record this run.
    jobs_completed: AtomicU64,
    /// Transient-failure retry attempts (not jobs: a job retried twice
    /// counts 2).
    jobs_retried: AtomicU64,
    /// Jobs abandoned after exhausting the retry budget.
    jobs_abandoned: AtomicU64,
    /// Budget sheds reported (checkpoint frequency/disable, workers).
    sheds: AtomicU64,
    /// Checkpoints persisted to disk.
    checkpoints_written: AtomicU64,
    /// Wall time of one job execution, in milliseconds.
    job_wall_ms: Mutex<LatencyHist>,
    /// Wall time of one checkpoint write (encode excluded), in
    /// microseconds.
    checkpoint_write_us: Mutex<LatencyHist>,
    /// Wall time of one snapshot encode, in microseconds.
    checkpoint_encode_us: Mutex<LatencyHist>,
    /// Wall time of one journal append incl. its fsync, in microseconds.
    journal_fsync_us: Mutex<LatencyHist>,
}

impl SweepMetrics {
    /// Fresh, all-zero registry.
    #[must_use]
    pub fn new() -> Self {
        SweepMetrics::default()
    }

    /// Counts one journaled job completion.
    pub fn job_completed(&self, wall_ms: u64) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        lock(&self.job_wall_ms).record(wall_ms);
    }

    /// Counts one transient-failure retry attempt.
    pub fn job_retried(&self) {
        self.jobs_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one job abandoned after exhausting retries.
    pub fn job_abandoned(&self) {
        self.jobs_abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one budget shed.
    pub fn shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one persisted checkpoint and its write latency.
    pub fn checkpoint_written(&self, write_us: u64) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
        lock(&self.checkpoint_write_us).record(write_us);
    }

    /// Records one snapshot encode latency.
    pub fn checkpoint_encoded(&self, encode_us: u64) {
        lock(&self.checkpoint_encode_us).record(encode_us);
    }

    /// Records one journal append (incl. fsync) latency.
    pub fn journal_fsync(&self, us: u64) {
        lock(&self.journal_fsync_us).record(us);
    }

    /// Jobs completed so far (for progress displays and tests).
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed.load(Ordering::Relaxed)
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (one `# TYPE` header per family; histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, v) in [
            (
                "gtsc_sweep_jobs_completed_total",
                "Jobs that reached a journaled Done record",
                self.jobs_completed.load(Ordering::Relaxed),
            ),
            (
                "gtsc_sweep_job_retries_total",
                "Transient-failure retry attempts",
                self.jobs_retried.load(Ordering::Relaxed),
            ),
            (
                "gtsc_sweep_jobs_abandoned_total",
                "Jobs abandoned after exhausting retries",
                self.jobs_abandoned.load(Ordering::Relaxed),
            ),
            (
                "gtsc_sweep_sheds_total",
                "Budget sheds (checkpoint frequency, checkpointing, workers)",
                self.sheds.load(Ordering::Relaxed),
            ),
            (
                "gtsc_sweep_checkpoints_written_total",
                "Checkpoints persisted to disk",
                self.checkpoints_written.load(Ordering::Relaxed),
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        }
        for (name, help, hist) in [
            (
                "gtsc_sweep_job_wall_milliseconds",
                "Wall time of one job execution",
                &self.job_wall_ms,
            ),
            (
                "gtsc_sweep_checkpoint_write_microseconds",
                "Wall time of one checkpoint write",
                &self.checkpoint_write_us,
            ),
            (
                "gtsc_sweep_checkpoint_encode_microseconds",
                "Wall time of one snapshot encode",
                &self.checkpoint_encode_us,
            ),
            (
                "gtsc_sweep_journal_fsync_microseconds",
                "Wall time of one journal append including its fsync",
                &self.journal_fsync_us,
            ),
        ] {
            let h = lock(hist);
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets().iter().enumerate() {
                cumulative += n;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    LatencyHist::bucket_upper_edge(i)
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {cumulative}\n{name}_sum {}\n{name}_count {}\n",
                h.sum(),
                h.count()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_render_as_prometheus_text() {
        let m = SweepMetrics::new();
        m.job_completed(12);
        m.job_completed(900);
        m.job_retried();
        m.shed();
        m.checkpoint_written(45);
        m.checkpoint_encoded(150);
        m.journal_fsync(3);
        let text = m.render_prometheus();
        assert!(text.contains("gtsc_sweep_jobs_completed_total 2"), "{text}");
        assert!(text.contains("gtsc_sweep_job_retries_total 1"), "{text}");
        assert!(text.contains("gtsc_sweep_sheds_total 1"), "{text}");
        assert!(
            text.contains("# TYPE gtsc_sweep_job_wall_milliseconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("gtsc_sweep_job_wall_milliseconds_count 2"),
            "{text}"
        );
        assert!(
            text.contains("gtsc_sweep_job_wall_milliseconds_sum 912"),
            "{text}"
        );
        assert!(text.contains("_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(
            text.contains("gtsc_sweep_checkpoint_encode_microseconds_count 1"),
            "{text}"
        );
        // Buckets are cumulative: every bucket count is <= the next.
        let mut last = 0u64;
        for line in text.lines().filter(|l| {
            l.starts_with("gtsc_sweep_job_wall_milliseconds_bucket") && !l.contains("+Inf")
        }) {
            let n: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("count parses");
            assert!(n >= last, "non-monotonic: {line}");
            last = n;
        }
        assert_eq!(last, 2);
    }

    #[test]
    fn empty_registry_renders_all_families() {
        let text = SweepMetrics::new().render_prometheus();
        for family in [
            "gtsc_sweep_jobs_completed_total",
            "gtsc_sweep_job_retries_total",
            "gtsc_sweep_jobs_abandoned_total",
            "gtsc_sweep_sheds_total",
            "gtsc_sweep_checkpoints_written_total",
            "gtsc_sweep_job_wall_milliseconds",
            "gtsc_sweep_checkpoint_write_microseconds",
            "gtsc_sweep_checkpoint_encode_microseconds",
            "gtsc_sweep_journal_fsync_microseconds",
        ] {
            assert!(text.contains(family), "missing {family}:\n{text}");
        }
    }
}
