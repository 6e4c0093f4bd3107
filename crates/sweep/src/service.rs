//! The resumable, self-healing sweep service.
//!
//! [`run_sweep`] executes a batch of [`JobSpec`]s across a pool of
//! work-stealing worker threads. Its crash-safety contract:
//!
//! * Every completed shard is journaled (append-only, fsync'd) before
//!   it counts. A `kill -9` at any instant loses at most the shards
//!   that were still in flight.
//! * On restart with the same batch, journaled shards are **skipped**
//!   (never re-run) and in-flight jobs resume from their newest
//!   on-disk checkpoint; the final aggregate is byte-identical to an
//!   uninterrupted run because [`JobResult`]s are deterministic and
//!   exclude all execution bookkeeping (attempts, wall-clock, who ran
//!   what where).
//! * Transient failures (injected via [`TransientFaultPlan`] in tests;
//!   the analogue of a flaky executor in production) are retried with
//!   exponential backoff up to a bound; retries never change results.
//! * Under a disk budget the service sheds checkpoint work — first
//!   doubling the checkpoint interval at 50% consumption, then
//!   disabling checkpointing entirely at 100% — and under a memory
//!   budget it sheds parallelism. Every shed is reported in the
//!   outcome *and* journaled as a [`Record::Shed`].
//!
//! The simulator is deliberately **not** `Send` (its protocol
//! controllers and sanitizer share non-atomic state), so each worker
//! constructs and runs sims entirely on its own thread; only plain
//! data ([`JobSpec`], [`JobResult`]) crosses threads.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gtsc_sim::CheckpointStore;
use gtsc_types::snap::{crc32, Snap, SnapWriter};

use crate::job::{run_job, JobResult, JobSpec};
use crate::journal::{Journal, Record};
use crate::metrics::SweepMetrics;

/// Rough peak memory of one concurrently-executing job (sim + snapshot
/// encode buffer), used to translate a memory budget into a worker
/// count. Deliberately generous; shedding parallelism too eagerly is
/// safe, shedding it too late is not.
pub const EST_JOB_BYTES: u64 = 8 << 20;

/// Upper bound on one retry backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Service-level tuning. Everything that could change *results* lives
/// in [`JobSpec`] instead; these knobs only change how execution is
/// scheduled, checkpointed, and retried.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Directory holding the journal, per-job checkpoints, and output.
    pub dir: PathBuf,
    /// Requested worker threads (may be shed under a memory budget).
    pub workers: usize,
    /// Cycles per [`gtsc_sim::GpuSim::advance_kernel`] slice (0 = run
    /// each job in one unbounded shot; disables checkpointing).
    pub slice_cycles: u64,
    /// Simulated cycles between checkpoints of a long job (0 = off).
    pub checkpoint_every: u64,
    /// Maximum attempts per job when transient failures strike.
    pub max_attempts: u32,
    /// Base backoff before the second attempt; doubles per retry.
    pub backoff_ms: u64,
    /// Disk budget for checkpoint bytes written this run (0 = unlimited).
    pub disk_budget_bytes: u64,
    /// Memory budget for concurrent jobs (0 = unlimited).
    pub memory_budget_bytes: u64,
}

impl SweepConfig {
    /// Defaults tuned for test-scale jobs.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SweepConfig {
            dir: dir.into(),
            workers: 2,
            slice_cycles: 1_000,
            checkpoint_every: 4_000,
            max_attempts: 3,
            backoff_ms: 10,
            disk_budget_bytes: 0,
            memory_budget_bytes: 0,
        }
    }
}

/// Deterministic transient-failure injection: job id → number of
/// initial attempts that fail "for transient reasons" (the stand-in
/// for a flaky executor, OOM kill, or preempted node). Used by the
/// retry tests to prove retries never leak into results.
#[derive(Debug, Clone, Default)]
pub struct TransientFaultPlan {
    /// Job id → how many leading attempts fail.
    pub fail_first: BTreeMap<u32, u32>,
}

impl TransientFaultPlan {
    /// Parses `"0:2,3:1"` (job 0 fails twice, job 3 once).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let mut plan = TransientFaultPlan::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (job, count) = part.split_once(':')?;
            plan.fail_first
                .insert(job.parse().ok()?, count.parse().ok()?);
        }
        Some(plan)
    }

    fn fails(&self, job: u32, attempt: u32) -> bool {
        self.fail_first.get(&job).is_some_and(|n| attempt <= *n)
    }
}

/// Why a sweep could not run.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem failure (journal, checkpoint dir, …).
    Io(io::Error),
    /// The journal in `dir` belongs to a different batch.
    BatchMismatch {
        /// Fingerprint of the requested batch.
        expected: u64,
        /// Fingerprint pinned in the journal header.
        found: u64,
    },
    /// The journal exists but does not start with a header record.
    MissingHeader,
    /// The spec list is unusable (empty, or duplicate ids).
    InvalidBatch(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep I/O error: {e}"),
            SweepError::BatchMismatch { expected, found } => write!(
                f,
                "journal belongs to a different batch (journal 0x{found:016x}, requested 0x{expected:016x}); use a fresh --dir"
            ),
            SweepError::MissingHeader => {
                write!(f, "journal has records but no batch header; refusing to guess")
            }
            SweepError::InvalidBatch(msg) => write!(f, "invalid batch: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// What a sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One deterministic result per job, sorted by id (journaled ones
    /// from earlier runs included).
    pub results: Vec<JobResult>,
    /// Human-readable shed reports (also journaled as [`Record::Shed`]).
    pub shed: Vec<String>,
    /// Jobs skipped because the journal already had their result.
    pub skipped_done: usize,
    /// Jobs that resumed from an on-disk checkpoint this run.
    pub resumed_from_checkpoint: usize,
    /// Jobs abandoned after exhausting transient-failure retries.
    pub abandoned: usize,
    /// Worker threads actually used after memory shedding.
    pub workers_used: usize,
}

impl SweepOutcome {
    /// Renders the byte-stable aggregate report: one line per result in
    /// id order plus totals. Everything non-deterministic (sheds, skip
    /// counts, worker counts) is deliberately excluded so this text is
    /// identical whether the batch ran uninterrupted or crashed and
    /// resumed any number of times.
    #[must_use]
    pub fn render_aggregates(&self, specs: &[JobSpec]) -> String {
        let by_id: BTreeMap<u32, &JobSpec> = specs.iter().map(|s| (s.id, s)).collect();
        let mut out = String::from("# gtsc sweep aggregates v1\n");
        let mut totals = (0u64, 0u64, 0u64);
        let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
        for r in &self.results {
            out.push_str(&r.render(by_id.get(&r.id).copied()));
            out.push('\n');
            totals.0 += r.cycles;
            totals.1 += r.issued;
            totals.2 += r.violations;
            *outcomes.entry(r.outcome.label()).or_default() += 1;
        }
        out.push_str(&format!(
            "totals jobs={} cycles={} issued={} violations={}\n",
            self.results.len(),
            totals.0,
            totals.1,
            totals.2
        ));
        for (label, n) in outcomes {
            out.push_str(&format!("outcome {label}={n}\n"));
        }
        out
    }
}

/// Fingerprint pinning a batch: CRC of the snap-encoded spec list,
/// salted with its length.
#[must_use]
pub fn batch_fingerprint(specs: &[JobSpec]) -> u64 {
    let mut w = SnapWriter::new();
    w.u64(specs.len() as u64);
    for s in specs {
        s.save(&mut w);
    }
    let bytes = w.into_bytes();
    (u64::from(crc32(&bytes)) << 32) | (bytes.len() as u64 & 0xFFFF_FFFF)
}

/// Shared cross-worker state. All interior mutability; workers hold
/// only `&Shared`.
struct Shared<'a> {
    specs: &'a [JobSpec],
    cfg: &'a SweepConfig,
    plan: &'a TransientFaultPlan,
    queues: Vec<Mutex<VecDeque<usize>>>,
    journal: Mutex<Journal>,
    results: Mutex<Vec<JobResult>>,
    shed: Mutex<Vec<String>>,
    io_error: Mutex<Option<io::Error>>,
    disk_spent: AtomicU64,
    checkpoint_every: AtomicU64,
    checkpoints_disabled: AtomicBool,
    interval_doubled: AtomicBool,
    resumed: AtomicUsize,
    abandoned: AtomicUsize,
    /// Optional metrics registry (counters + latency histograms);
    /// metrics never influence results.
    metrics: Option<&'a SweepMetrics>,
}

/// A poisoned lock only means another worker panicked mid-update of a
/// Vec push or counter; the data is still structurally sound, so keep
/// going rather than cascading the panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared<'_> {
    /// Journals a record; on I/O failure latches the error (first one
    /// wins) and returns false so the worker can stop.
    fn journal_append(&self, record: &Record) -> bool {
        let t0 = Instant::now();
        match lock(&self.journal).append(record) {
            Ok(()) => {
                if let Some(m) = self.metrics {
                    m.journal_fsync(t0.elapsed().as_micros() as u64);
                }
                true
            }
            Err(e) => {
                let mut slot = lock(&self.io_error);
                if slot.is_none() {
                    *slot = Some(e);
                }
                false
            }
        }
    }

    fn report_shed(&self, what: String) {
        if let Some(m) = self.metrics {
            m.shed();
        }
        self.journal_append(&Record::Shed { what: what.clone() });
        lock(&self.shed).push(what);
    }

    /// Disk-budget gate for one checkpoint of `size` bytes. Sheds
    /// checkpoint *frequency* at 50% consumption and checkpointing
    /// entirely at 100%, reporting each shed exactly once.
    fn allow_checkpoint(&self, size: usize) -> bool {
        let budget = self.cfg.disk_budget_bytes;
        if budget == 0 {
            return true;
        }
        if self.checkpoints_disabled.load(Ordering::Relaxed) {
            return false;
        }
        let spent = self.disk_spent.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        if spent > budget {
            if !self.checkpoints_disabled.swap(true, Ordering::Relaxed) {
                self.report_shed(
                    "disk budget exhausted: checkpointing disabled (crash recovery will re-run in-flight jobs from cycle 0)"
                        .into(),
                );
            }
            return false;
        }
        if spent * 2 > budget && !self.interval_doubled.swap(true, Ordering::Relaxed) {
            let doubled = self
                .checkpoint_every
                .load(Ordering::Relaxed)
                .saturating_mul(2);
            self.checkpoint_every.store(doubled, Ordering::Relaxed);
            self.report_shed(format!(
                "disk budget half consumed: checkpoint interval doubled to {doubled} cycles"
            ));
        }
        true
    }

    /// Pops work: own queue front first, then steals from the back of
    /// the busiest sibling.
    fn next_job(&self, me: usize) -> Option<usize> {
        if let Some(job) = lock(&self.queues[me]).pop_front() {
            return Some(job);
        }
        for off in 1..self.queues.len() {
            let victim = (me + off) % self.queues.len();
            if let Some(job) = lock(&self.queues[victim]).pop_back() {
                return Some(job);
            }
        }
        None
    }

    /// Runs one job to a journaled result, retrying transient failures
    /// with exponential backoff. Returns false when the worker should
    /// stop (journal I/O failure).
    fn execute(&self, job_index: usize) -> bool {
        let spec = &self.specs[job_index];
        let store = CheckpointStore::new(self.cfg.dir.join(format!("job-{:04}.ck", spec.id)));
        let mut attempt = 1u32;
        loop {
            if !self.journal_append(&Record::Begin {
                job: spec.id,
                attempt,
            }) {
                return false;
            }
            if !self.plan.fails(spec.id, attempt) {
                // Once the budget is spent a job encodes nothing at all.
                let every = if self.checkpoints_disabled.load(Ordering::Relaxed) {
                    0
                } else {
                    self.checkpoint_every.load(Ordering::Relaxed)
                };
                let t0 = Instant::now();
                let run = run_job(spec, Some(&store), self.cfg.slice_cycles, every, |size| {
                    self.allow_checkpoint(size)
                });
                if run.resumed_from_checkpoint {
                    self.resumed.fetch_add(1, Ordering::Relaxed);
                }
                if !self.journal_append(&Record::Done {
                    result: run.result.clone(),
                }) {
                    return false;
                }
                if let Some(m) = self.metrics {
                    m.job_completed(t0.elapsed().as_millis() as u64);
                    for ns in &run.checkpoint_write_ns {
                        m.checkpoint_written(ns / 1_000);
                    }
                    for ns in &run.checkpoint_encode_ns {
                        m.checkpoint_encoded(ns / 1_000);
                    }
                }
                lock(&self.results).push(run.result);
                return true;
            }
            // Transient failure: back off and retry, bounded.
            if attempt >= self.cfg.max_attempts {
                self.abandoned.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = self.metrics {
                    m.job_abandoned();
                }
                self.report_shed(format!(
                    "job {:04} abandoned after {attempt} transient failures (will retry on next sweep run)",
                    spec.id
                ));
                return true;
            }
            let backoff = Duration::from_millis(
                self.cfg
                    .backoff_ms
                    .saturating_mul(1u64 << (attempt - 1).min(16)),
            )
            .min(MAX_BACKOFF);
            std::thread::sleep(backoff);
            if let Some(m) = self.metrics {
                m.job_retried();
            }
            attempt += 1;
        }
    }
}

/// Runs (or resumes) a batch. See the module docs for the contract.
///
/// # Errors
///
/// * [`SweepError::InvalidBatch`] — empty batch or duplicate job ids.
/// * [`SweepError::BatchMismatch`] / [`SweepError::MissingHeader`] —
///   `cfg.dir` holds a journal for a different batch.
/// * [`SweepError::Io`] — filesystem failure.
pub fn run_sweep(
    specs: &[JobSpec],
    cfg: &SweepConfig,
    plan: &TransientFaultPlan,
) -> Result<SweepOutcome, SweepError> {
    run_sweep_with_metrics(specs, cfg, plan, None)
}

/// [`run_sweep`] with a [`SweepMetrics`] registry attached: workers
/// record job wall time, checkpoint/journal latencies, retries, and
/// sheds as they happen (so a mid-run `SIGUSR1` dump sees live values).
///
/// # Errors
///
/// Same contract as [`run_sweep`].
pub fn run_sweep_with_metrics(
    specs: &[JobSpec],
    cfg: &SweepConfig,
    plan: &TransientFaultPlan,
    metrics: Option<&SweepMetrics>,
) -> Result<SweepOutcome, SweepError> {
    if specs.is_empty() {
        return Err(SweepError::InvalidBatch("no jobs".into()));
    }
    let mut ids = BTreeSet::new();
    for s in specs {
        if !ids.insert(s.id) {
            return Err(SweepError::InvalidBatch(format!(
                "duplicate job id {}",
                s.id
            )));
        }
    }
    std::fs::create_dir_all(&cfg.dir)?;

    let fingerprint = batch_fingerprint(specs);
    let (mut journal, records) = Journal::open(cfg.dir.join("journal.bin"))?;
    let mut done: BTreeMap<u32, JobResult> = BTreeMap::new();
    match records.first() {
        None => {
            journal.append(&Record::Header {
                fingerprint,
                n_jobs: specs.len() as u32,
            })?;
        }
        Some(Record::Header {
            fingerprint: found, ..
        }) if *found == fingerprint => {
            for r in &records {
                if let Record::Done { result } = r {
                    done.insert(result.id, result.clone());
                }
            }
        }
        Some(Record::Header {
            fingerprint: found, ..
        }) => {
            return Err(SweepError::BatchMismatch {
                expected: fingerprint,
                found: *found,
            });
        }
        Some(_) => return Err(SweepError::MissingHeader),
    }

    let pending: Vec<usize> = specs
        .iter()
        .enumerate()
        .filter(|(_, s)| !done.contains_key(&s.id))
        .map(|(i, _)| i)
        .collect();
    let skipped_done = specs.len() - pending.len();

    // Memory budget → parallelism shedding.
    let mut workers_used = cfg.workers.max(1).min(pending.len().max(1));
    let mut mem_shed = None;
    if cfg.memory_budget_bytes > 0 {
        let affordable = (cfg.memory_budget_bytes / EST_JOB_BYTES).max(1) as usize;
        if affordable < workers_used {
            mem_shed = Some(format!(
                "memory budget {} B affords {affordable} concurrent jobs (~{} B each): workers reduced from {workers_used}",
                cfg.memory_budget_bytes, EST_JOB_BYTES
            ));
            workers_used = affordable;
        }
    }

    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers_used)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    for (i, job) in pending.iter().enumerate() {
        lock(&queues[i % workers_used]).push_back(*job);
    }

    let shared = Shared {
        specs,
        cfg,
        plan,
        queues,
        journal: Mutex::new(journal),
        results: Mutex::new(done.into_values().collect()),
        shed: Mutex::new(Vec::new()),
        io_error: Mutex::new(None),
        disk_spent: AtomicU64::new(0),
        checkpoint_every: AtomicU64::new(cfg.checkpoint_every),
        checkpoints_disabled: AtomicBool::new(false),
        interval_doubled: AtomicBool::new(false),
        resumed: AtomicUsize::new(0),
        abandoned: AtomicUsize::new(0),
        metrics,
    };
    if let Some(msg) = mem_shed {
        shared.report_shed(msg);
    }

    if !pending.is_empty() {
        std::thread::scope(|scope| {
            for w in 0..workers_used {
                let shared = &shared;
                scope.spawn(move || {
                    while let Some(job) = shared.next_job(w) {
                        if !shared.execute(job) {
                            break;
                        }
                    }
                });
            }
        });
    }

    if let Some(e) = lock(&shared.io_error).take() {
        return Err(SweepError::Io(e));
    }
    let mut results = lock(&shared.results).drain(..).collect::<Vec<_>>();
    results.sort_by_key(|r| r.id);
    let shed = lock(&shared.shed).drain(..).collect();
    Ok(SweepOutcome {
        results,
        shed,
        skipped_done,
        resumed_from_checkpoint: shared.resumed.load(Ordering::Relaxed),
        abandoned: shared.abandoned.load(Ordering::Relaxed),
        workers_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_types::{ConsistencyModel, ProtocolKind};
    use gtsc_workloads::{Benchmark, Scale};
    use std::path::Path;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gtsc-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn batch(n_seeds: u64) -> Vec<JobSpec> {
        let mut specs = Vec::new();
        for (b, bench) in [Benchmark::Km, Benchmark::Hs].into_iter().enumerate() {
            for seed in 1..=n_seeds {
                specs.push(JobSpec {
                    id: (b as u64 * n_seeds + seed - 1) as u32,
                    benchmark: bench,
                    scale: Scale::Tiny,
                    protocol: ProtocolKind::Gtsc,
                    consistency: ConsistencyModel::Rc,
                    seed,
                    lossy_permille: 30,
                    bank_crashes: 0,
                    cycle_budget: 2_000_000,
                });
            }
        }
        specs
    }

    fn journal_records(dir: &Path) -> Vec<Record> {
        let bytes = std::fs::read(dir.join("journal.bin")).unwrap();
        crate::journal::replay(&bytes).0
    }

    #[test]
    fn sweep_completes_all_jobs_and_aggregates_are_reproducible() {
        let specs = batch(2);
        let a = run_sweep(
            &specs,
            &SweepConfig::new(tmp("repro-a")),
            &TransientFaultPlan::default(),
        )
        .unwrap();
        let b = {
            let mut cfg = SweepConfig::new(tmp("repro-b"));
            cfg.workers = 4; // different parallelism, same bytes
            cfg.slice_cycles = 311;
            run_sweep(&specs, &cfg, &TransientFaultPlan::default()).unwrap()
        };
        assert_eq!(a.results.len(), specs.len());
        assert_eq!(
            a.render_aggregates(&specs),
            b.render_aggregates(&specs),
            "aggregates must not depend on workers or slicing"
        );
    }

    #[test]
    fn finished_batch_reruns_as_a_noop() {
        let specs = batch(1);
        let dir = tmp("noop");
        let cfg = SweepConfig::new(&dir);
        let first = run_sweep(&specs, &cfg, &TransientFaultPlan::default()).unwrap();
        let n_records = journal_records(&dir).len();
        let second = run_sweep(&specs, &cfg, &TransientFaultPlan::default()).unwrap();
        assert_eq!(second.skipped_done, specs.len());
        assert_eq!(
            journal_records(&dir).len(),
            n_records,
            "no new records on a no-op rerun"
        );
        assert_eq!(
            first.render_aggregates(&specs),
            second.render_aggregates(&specs)
        );
    }

    #[test]
    fn transient_failures_retry_without_changing_aggregates() {
        let specs = batch(1);
        let clean = run_sweep(
            &specs,
            &SweepConfig::new(tmp("retry-clean")),
            &TransientFaultPlan::default(),
        )
        .unwrap();
        let mut cfg = SweepConfig::new(tmp("retry-flaky"));
        cfg.backoff_ms = 1;
        let plan = TransientFaultPlan::parse("0:2,1:1").unwrap();
        let flaky = run_sweep(&specs, &cfg, &plan).unwrap();
        assert_eq!(flaky.abandoned, 0);
        assert_eq!(
            clean.render_aggregates(&specs),
            flaky.render_aggregates(&specs),
            "retries must be invisible in aggregates"
        );
        // The journal shows the extra attempts.
        let begins = journal_records(&cfg.dir)
            .iter()
            .filter(|r| matches!(r, Record::Begin { job: 0, .. }))
            .count();
        assert_eq!(begins, 3, "job 0 failed twice then succeeded");
    }

    #[test]
    fn exhausted_retries_abandon_the_job_but_keep_the_batch_alive() {
        let specs = batch(1);
        let mut cfg = SweepConfig::new(tmp("abandon"));
        cfg.backoff_ms = 1;
        cfg.max_attempts = 2;
        let plan = TransientFaultPlan::parse("0:99").unwrap();
        let out = run_sweep(&specs, &cfg, &plan).unwrap();
        assert_eq!(out.abandoned, 1);
        assert_eq!(out.results.len(), specs.len() - 1, "other jobs still ran");
        assert!(out.shed.iter().any(|s| s.contains("abandoned")));
        // A rerun without the fault plan finishes the abandoned job.
        let again = run_sweep(&specs, &cfg, &TransientFaultPlan::default()).unwrap();
        assert_eq!(again.results.len(), specs.len());
    }

    #[test]
    fn disk_budget_sheds_checkpoint_work_without_changing_results() {
        let specs = batch(1);
        let clean = run_sweep(
            &specs,
            &SweepConfig::new(tmp("disk-clean")),
            &TransientFaultPlan::default(),
        )
        .unwrap();
        let mut cfg = SweepConfig::new(tmp("disk-tight"));
        cfg.slice_cycles = 200;
        cfg.checkpoint_every = 400; // checkpoint eagerly to hit the budget
        cfg.disk_budget_bytes = 24 * 1024;
        cfg.workers = 1;
        let metrics = SweepMetrics::new();
        let tight =
            run_sweep_with_metrics(&specs, &cfg, &TransientFaultPlan::default(), Some(&metrics))
                .unwrap();
        assert_eq!(
            clean.render_aggregates(&specs),
            tight.render_aggregates(&specs),
            "shedding checkpoints must not change results"
        );
        assert!(
            tight.shed.iter().any(|s| s.contains("disk budget")),
            "shed report expected, got {:?}",
            tight.shed
        );
        // One worker: the budget refuses one image, after which the
        // running job and every later one encode nothing.
        let text = metrics.render_prometheus();
        let count = |family: &str| -> u64 {
            let prefix = format!("{family}_count ");
            text.lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()))
                .and_then(|v| v.parse().ok())
                .expect("count line")
        };
        let encoded = count("gtsc_sweep_checkpoint_encode_microseconds");
        let written = count("gtsc_sweep_checkpoint_write_microseconds");
        assert_eq!(encoded, written + 1, "encodes vs writes");
    }

    #[test]
    fn memory_budget_sheds_parallelism() {
        let specs = batch(1);
        let mut cfg = SweepConfig::new(tmp("mem"));
        cfg.workers = 4;
        cfg.memory_budget_bytes = EST_JOB_BYTES; // affords exactly one
        let out = run_sweep(&specs, &cfg, &TransientFaultPlan::default()).unwrap();
        assert_eq!(out.workers_used, 1);
        assert!(out.shed.iter().any(|s| s.contains("memory budget")));
        assert_eq!(out.results.len(), specs.len());
    }

    #[test]
    fn different_batch_in_same_dir_is_rejected() {
        let dir = tmp("mismatch");
        let cfg = SweepConfig::new(&dir);
        let specs = batch(1);
        run_sweep(&specs, &cfg, &TransientFaultPlan::default()).unwrap();
        let other = batch(2);
        match run_sweep(&other, &cfg, &TransientFaultPlan::default()) {
            Err(SweepError::BatchMismatch { .. }) => {}
            other => panic!("expected BatchMismatch, got {other:?}"),
        }
    }
}
