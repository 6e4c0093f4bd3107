//! The unit of sweep work: one (benchmark, config, seed) simulation.
//!
//! A [`JobSpec`] pins *everything* that determines a job's outcome — the
//! benchmark, scale, protocol, consistency model, fault plan seed, and a
//! deterministic cycle budget — so a job re-run on any machine, any
//! number of times, after any number of crashes, produces the same
//! [`JobResult`] byte for byte. Wall-clock time never appears in a
//! result; timeouts are expressed in simulated cycles
//! ([`JobSpec::cycle_budget`] maps to `GpuConfig::max_cycles`), which
//! makes even "this job timed out" a deterministic, reproducible fact.
//!
//! [`run_job`] executes one job in bounded slices via
//! [`GpuSim::advance_kernel`], periodically persisting a
//! [`gtsc_sim::CheckpointStore`] snapshot so a killed process resumes
//! mid-kernel instead of restarting; slicing and checkpointing are
//! invisible in the result (see the `resume` integration tests).

use gtsc_gpu::Kernel;
use gtsc_sim::{CheckpointStore, GpuSim, KernelProgress, SimBuilder, SimError};
use gtsc_types::snap::{crc32, Snap, SnapReader, SnapWriter, SnapshotError};
use gtsc_types::{BlockAddr, ConsistencyModel, FaultConfig, GpuConfig, ProtocolKind, Version};
use gtsc_workloads::{Benchmark, Scale};

/// Cycle window over which injected bank crashes are scheduled when a
/// [`JobSpec`] asks for them (`bank_crashes > 0`).
const BANK_CRASH_WINDOW: u64 = 400;

/// Cap on the free-text `detail` carried in a [`JobResult`], so one
/// pathological stall diagnosis cannot bloat the journal.
const DETAIL_MAX_CHARS: usize = 240;

/// Everything that determines a job's outcome. Two equal specs produce
/// byte-identical [`JobResult`]s regardless of retries, checkpointing,
/// slicing, or process crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Batch-unique id; results are aggregated in id order.
    pub id: u32,
    /// Which paper benchmark to run.
    pub benchmark: Benchmark,
    /// Problem size (`Tiny`/`Small`/`Full`; `Custom` is not sweepable).
    pub scale: Scale,
    /// Coherence protocol under test.
    pub protocol: ProtocolKind,
    /// Consistency model.
    pub consistency: ConsistencyModel,
    /// Seed for the fault-injection RNG streams.
    pub seed: u64,
    /// NoC drop rate in permille; `0` keeps the NoC reliable.
    pub lossy_permille: u16,
    /// Number of L2 bank crash/recovery events to inject.
    pub bank_crashes: u16,
    /// Deterministic timeout in *simulated* cycles (`0` = unbounded);
    /// becomes `GpuConfig::max_cycles`, so exceeding it is a
    /// reproducible [`JobOutcome::CycleBudget`], not a wall-clock race.
    pub cycle_budget: u64,
}

impl JobSpec {
    /// The full simulator configuration this spec pins down.
    #[must_use]
    pub fn config(&self) -> GpuConfig {
        let mut faults = if self.lossy_permille > 0 {
            FaultConfig::lossy(self.seed, self.lossy_permille)
        } else {
            FaultConfig {
                seed: self.seed,
                ..FaultConfig::default()
            }
        };
        if self.bank_crashes > 0 {
            faults = faults.with_bank_crashes(self.bank_crashes, BANK_CRASH_WINDOW);
        }
        // Tiny/Small instances fit the scaled-down test machine; Full
        // instances need the paper's 16-SM platform (their CTAs are
        // wider than the small machine's SMs).
        let base = match self.scale {
            Scale::Full => GpuConfig::paper_default(),
            _ => GpuConfig::test_small(),
        };
        let mut cfg = base
            .with_protocol(self.protocol)
            .with_consistency(self.consistency)
            .with_faults(faults);
        cfg.max_cycles = self.cycle_budget;
        cfg
    }

    /// Builds the kernel this spec runs.
    #[must_use]
    pub fn kernel(&self) -> Box<dyn Kernel> {
        self.benchmark.build(self.scale)
    }

    /// One-line human description (`BH tiny G-TSC/RC seed=3`).
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} {} {}/{} seed={}",
            self.benchmark.name(),
            scale_name(self.scale),
            self.protocol.label(),
            self.consistency.label(),
            self.seed
        )
    }
}

impl Snap for JobSpec {
    fn save(&self, w: &mut SnapWriter) {
        self.id.save(w);
        w.u8(benchmark_tag(self.benchmark));
        w.u8(scale_tag(self.scale));
        w.u8(protocol_tag(self.protocol));
        w.u8(consistency_tag(self.consistency));
        self.seed.save(w);
        self.lossy_permille.save(w);
        self.bank_crashes.save(w);
        self.cycle_budget.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(JobSpec {
            id: Snap::load(r)?,
            benchmark: benchmark_from_tag(r.u8()?)?,
            scale: scale_from_tag(r.u8()?)?,
            protocol: protocol_from_tag(r.u8()?)?,
            consistency: consistency_from_tag(r.u8()?)?,
            seed: Snap::load(r)?,
            lossy_permille: Snap::load(r)?,
            bank_crashes: Snap::load(r)?,
            cycle_budget: Snap::load(r)?,
        })
    }
}

/// How a job ended. Every variant is deterministic: transient,
/// wall-clock-driven failures are retried by the service and never
/// appear in a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The kernel drained; counters and memory image are final.
    Completed,
    /// The deterministic cycle budget elapsed with work pending.
    CycleBudget,
    /// The forward-progress watchdog fired (wedged protocol state).
    Stalled,
    /// The spec cannot run at all (bad kernel/config combination).
    Rejected,
}

impl JobOutcome {
    /// Stable lower-case label used in aggregate output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::CycleBudget => "cycle-budget",
            JobOutcome::Stalled => "stalled",
            JobOutcome::Rejected => "rejected",
        }
    }
}

impl Snap for JobOutcome {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            JobOutcome::Completed => 0,
            JobOutcome::CycleBudget => 1,
            JobOutcome::Stalled => 2,
            JobOutcome::Rejected => 3,
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(JobOutcome::Completed),
            1 => Ok(JobOutcome::CycleBudget),
            2 => Ok(JobOutcome::Stalled),
            3 => Ok(JobOutcome::Rejected),
            other => Err(SnapshotError::Malformed {
                context: format!("JobOutcome tag {other}"),
            }),
        }
    }
}

/// The deterministic product of one job. Deliberately excludes attempt
/// counts, wall-clock durations, and checkpoint bookkeeping so that a
/// batch's aggregate is byte-identical whether it ran uninterrupted or
/// survived crashes and retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The spec's id.
    pub id: u32,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Simulated cycles executed (abort cycle for non-completed runs).
    pub cycles: u64,
    /// Instructions issued across all SMs.
    pub issued: u64,
    /// Private-L1 accesses.
    pub l1_accesses: u64,
    /// Private-L1 hits.
    pub l1_hits: u64,
    /// Coherence violations detected by the checker.
    pub violations: u64,
    /// CRC32 of the snap-encoded final [`gtsc_types::SimStats`] — a
    /// compact fingerprint of *every* counter, not just the headline ones.
    pub stats_crc: u32,
    /// CRC32 of the snap-encoded final memory image.
    pub image_crc: u32,
    /// Short diagnostic for `Stalled`/`Rejected` (deterministic text).
    pub detail: String,
}

gtsc_types::snap_fields!(JobResult {
    id,
    outcome,
    cycles,
    issued,
    l1_accesses,
    l1_hits,
    violations,
    stats_crc,
    image_crc,
    detail
});

impl JobResult {
    /// One stable aggregate line (fixed-width, byte-reproducible).
    #[must_use]
    pub fn render(&self, spec: Option<&JobSpec>) -> String {
        let what = spec.map_or_else(String::new, |s| format!(" {}", s.describe()));
        let detail = if self.detail.is_empty() {
            String::new()
        } else {
            format!(" detail={:?}", self.detail)
        };
        format!(
            "job {:04}{} outcome={} cycles={} issued={} l1={}/{} violations={} stats=0x{:08x} image=0x{:08x}{}",
            self.id,
            what,
            self.outcome.label(),
            self.cycles,
            self.issued,
            self.l1_accesses,
            self.l1_hits,
            self.violations,
            self.stats_crc,
            self.image_crc,
            detail
        )
    }
}

/// What [`run_job`] hands back to the service: the deterministic result
/// plus (non-deterministic, report-only) execution bookkeeping.
#[derive(Debug)]
pub struct JobRun {
    /// The deterministic result (journaled, aggregated).
    pub result: JobResult,
    /// Whether the job resumed from an on-disk checkpoint.
    pub resumed_from_checkpoint: bool,
    /// Checkpoints persisted during this execution.
    pub checkpoints_written: u32,
    /// Wall time of each persisted checkpoint write, in nanoseconds
    /// (encode excluded) — metrics fodder, never journaled.
    pub checkpoint_write_ns: Vec<u64>,
    /// Wall time of each snapshot encode (`save_snapshot`), in
    /// nanoseconds, whether or not the image was then written.
    pub checkpoint_encode_ns: Vec<u64>,
}

/// Runs one job to a deterministic outcome.
///
/// The kernel advances in `slice_cycles` slices (0 = one unbounded
/// shot). Every `checkpoint_every` simulated cycles a whole-machine
/// snapshot is offered to `allow_checkpoint(size_bytes)`; if the budget
/// callback approves, it is persisted to `store` (synced before the
/// next slice runs), and its first refusal ends checkpointing for the
/// job. On entry, the newest loadable checkpoint (the store's newer slot,
/// then the other) is restored — a corrupt pair silently restarts the
/// job from cycle zero, which is slower but produces the identical
/// result. Terminal paths clear the store so finished jobs reclaim their
/// disk.
///
/// Simulation failures (budget, stall, rejection) are *outcomes*, not
/// errors — they are deterministic facts about the spec.
pub fn run_job(
    spec: &JobSpec,
    store: Option<&CheckpointStore>,
    slice_cycles: u64,
    checkpoint_every: u64,
    mut allow_checkpoint: impl FnMut(usize) -> bool,
) -> JobRun {
    let cfg = spec.config();
    let kernel = spec.kernel();
    let mut sim = match SimBuilder::new(cfg.clone()).try_build() {
        Ok(sim) => sim,
        Err(e) => return rejected(spec, &e),
    };
    let mut progress = KernelProgress::new(&*kernel);
    let mut resumed = false;

    if let Some(store) = store {
        let loaded = store.load_latest(|bytes| {
            let mut candidate =
                SimBuilder::new(cfg.clone())
                    .try_build()
                    .map_err(|e| SnapshotError::Mismatch {
                        what: format!("rebuild for restore: {e}"),
                    })?;
            match candidate.restore_snapshot(bytes)? {
                Some(p) if p.matches(&*kernel) => Ok((candidate, p)),
                Some(_) => Err(SnapshotError::Mismatch {
                    what: "checkpoint is for a different kernel".into(),
                }),
                None => Err(SnapshotError::MissingSection {
                    name: "progress".into(),
                }),
            }
        });
        if let Ok(Some(((restored, p), _source))) = loaded {
            sim = restored;
            progress = p;
            resumed = true;
        }
        // Ok(None): never checkpointed. Err: every image damaged —
        // restart from cycle zero; the result is unchanged, only slower.
    }

    let mut since_checkpoint = 0u64;
    let mut checkpointing = store.is_some() && checkpoint_every > 0 && slice_cycles > 0;
    let mut checkpoints_written = 0u32;
    let mut checkpoint_write_ns: Vec<u64> = Vec::new();
    let mut checkpoint_encode_ns: Vec<u64> = Vec::new();
    loop {
        match sim.advance_kernel(&*kernel, &mut progress, slice_cycles) {
            Ok(Some(report)) => {
                clear_store(store);
                return JobRun {
                    result: finished(spec, JobOutcome::Completed, &report, &sim, String::new()),
                    resumed_from_checkpoint: resumed,
                    checkpoints_written,
                    checkpoint_write_ns,
                    checkpoint_encode_ns,
                };
            }
            Ok(None) => {
                since_checkpoint += slice_cycles;
                if checkpointing && since_checkpoint >= checkpoint_every {
                    since_checkpoint = 0;
                    let t0 = std::time::Instant::now();
                    let encoded = sim.save_snapshot(Some(&progress));
                    checkpoint_encode_ns.push(t0.elapsed().as_nanos() as u64);
                    match encoded {
                        Ok(bytes) if allow_checkpoint(bytes.len()) => {
                            if let Some(store) = store {
                                let t0 = std::time::Instant::now();
                                if store.save(&bytes).is_ok() {
                                    checkpoints_written += 1;
                                    checkpoint_write_ns.push(t0.elapsed().as_nanos() as u64);
                                }
                            }
                        }
                        // The budget refuses from here on, or the protocol
                        // cannot snapshot: stop encoding images.
                        _ => checkpointing = false,
                    }
                }
            }
            Err(SimError::CycleLimit { .. }) => {
                let report = sim.report();
                clear_store(store);
                return JobRun {
                    result: finished(spec, JobOutcome::CycleBudget, &report, &sim, String::new()),
                    resumed_from_checkpoint: resumed,
                    checkpoints_written,
                    checkpoint_write_ns,
                    checkpoint_encode_ns,
                };
            }
            Err(e @ SimError::Stalled { .. }) => {
                let report = sim.report();
                clear_store(store);
                return JobRun {
                    result: finished(
                        spec,
                        JobOutcome::Stalled,
                        &report,
                        &sim,
                        truncate(&e.to_string()),
                    ),
                    resumed_from_checkpoint: resumed,
                    checkpoints_written,
                    checkpoint_write_ns,
                    checkpoint_encode_ns,
                };
            }
            Err(e) => {
                clear_store(store);
                return rejected(spec, &e);
            }
        }
    }
}

fn clear_store(store: Option<&CheckpointStore>) {
    if let Some(store) = store {
        // Best-effort: a leftover checkpoint is skipped on replay anyway
        // (the job will already have a journaled result).
        let _ = store.clear();
    }
}

fn finished(
    spec: &JobSpec,
    outcome: JobOutcome,
    report: &gtsc_sim::RunReport,
    sim: &GpuSim,
    detail: String,
) -> JobResult {
    let image = sim.memory_image();
    JobResult {
        id: spec.id,
        outcome,
        cycles: report.stats.cycles.0,
        issued: report.stats.sm.issued,
        l1_accesses: report.stats.l1.accesses,
        l1_hits: report.stats.l1.hits,
        violations: report.violations.len() as u64,
        stats_crc: snap_crc(&report.stats),
        image_crc: image_crc(&image),
        detail,
    }
}

fn rejected(spec: &JobSpec, err: &SimError) -> JobRun {
    JobRun {
        checkpoint_write_ns: Vec::new(),
        checkpoint_encode_ns: Vec::new(),
        result: JobResult {
            id: spec.id,
            outcome: JobOutcome::Rejected,
            cycles: 0,
            issued: 0,
            l1_accesses: 0,
            l1_hits: 0,
            violations: 0,
            stats_crc: 0,
            image_crc: 0,
            detail: truncate(&err.to_string()),
        },
        resumed_from_checkpoint: false,
        checkpoints_written: 0,
    }
}

/// CRC32 over the snap encoding of any snapshot-able value.
fn snap_crc(value: &impl Snap) -> u32 {
    let mut w = SnapWriter::new();
    value.save(&mut w);
    crc32(&w.into_bytes())
}

fn image_crc(image: &std::collections::BTreeMap<BlockAddr, Version>) -> u32 {
    snap_crc(image)
}

fn truncate(s: &str) -> String {
    s.chars().take(DETAIL_MAX_CHARS).collect()
}

/// Stable lower-case name for a sweepable scale.
#[must_use]
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
        Scale::Custom { .. } => "custom",
    }
}

/// Parses a scale name (`tiny`/`small`/`full`).
#[must_use]
pub fn scale_from_name(name: &str) -> Option<Scale> {
    match name {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// Parses a benchmark by its paper name (`BH`, `KM`, …), case-insensitive.
#[must_use]
pub fn benchmark_from_name(name: &str) -> Option<Benchmark> {
    Benchmark::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
}

fn benchmark_tag(b: Benchmark) -> u8 {
    match b {
        Benchmark::Bh => 0,
        Benchmark::Cc => 1,
        Benchmark::Dlp => 2,
        Benchmark::Vpr => 3,
        Benchmark::Stn => 4,
        Benchmark::Bfs => 5,
        Benchmark::Ccp => 6,
        Benchmark::Ge => 7,
        Benchmark::Hs => 8,
        Benchmark::Km => 9,
        Benchmark::Bp => 10,
        Benchmark::Sgm => 11,
    }
}

fn benchmark_from_tag(tag: u8) -> Result<Benchmark, SnapshotError> {
    Benchmark::all()
        .into_iter()
        .find(|b| benchmark_tag(*b) == tag)
        .ok_or(SnapshotError::Malformed {
            context: format!("Benchmark tag {tag}"),
        })
}

fn scale_tag(s: Scale) -> u8 {
    match s {
        Scale::Tiny => 0,
        Scale::Small => 1,
        Scale::Full => 2,
        Scale::Custom { .. } => 3,
    }
}

fn scale_from_tag(tag: u8) -> Result<Scale, SnapshotError> {
    match tag {
        0 => Ok(Scale::Tiny),
        1 => Ok(Scale::Small),
        2 => Ok(Scale::Full),
        other => Err(SnapshotError::Malformed {
            context: format!("Scale tag {other}"),
        }),
    }
}

fn protocol_tag(p: ProtocolKind) -> u8 {
    match p {
        ProtocolKind::Gtsc => 0,
        ProtocolKind::Tc => 1,
        ProtocolKind::TcWeak => 2,
        ProtocolKind::NoL1 => 3,
        ProtocolKind::L1NoCoherence => 4,
    }
}

fn protocol_from_tag(tag: u8) -> Result<ProtocolKind, SnapshotError> {
    match tag {
        0 => Ok(ProtocolKind::Gtsc),
        1 => Ok(ProtocolKind::Tc),
        2 => Ok(ProtocolKind::TcWeak),
        3 => Ok(ProtocolKind::NoL1),
        4 => Ok(ProtocolKind::L1NoCoherence),
        other => Err(SnapshotError::Malformed {
            context: format!("ProtocolKind tag {other}"),
        }),
    }
}

/// Parses a protocol name for the CLI (`gtsc`, `tc`, `tcweak`, `nol1`,
/// `nocoh`).
#[must_use]
pub fn protocol_from_name(name: &str) -> Option<ProtocolKind> {
    match name.to_ascii_lowercase().as_str() {
        "gtsc" => Some(ProtocolKind::Gtsc),
        "tc" => Some(ProtocolKind::Tc),
        "tcweak" => Some(ProtocolKind::TcWeak),
        "nol1" => Some(ProtocolKind::NoL1),
        "nocoh" => Some(ProtocolKind::L1NoCoherence),
        _ => None,
    }
}

fn consistency_tag(c: ConsistencyModel) -> u8 {
    match c {
        ConsistencyModel::Sc => 0,
        ConsistencyModel::Rc => 1,
    }
}

fn consistency_from_tag(tag: u8) -> Result<ConsistencyModel, SnapshotError> {
    match tag {
        0 => Ok(ConsistencyModel::Sc),
        1 => Ok(ConsistencyModel::Rc),
        other => Err(SnapshotError::Malformed {
            context: format!("ConsistencyModel tag {other}"),
        }),
    }
}

/// Parses a consistency name (`sc`/`rc`).
#[must_use]
pub fn consistency_from_name(name: &str) -> Option<ConsistencyModel> {
    match name.to_ascii_lowercase().as_str() {
        "sc" => Some(ConsistencyModel::Sc),
        "rc" => Some(ConsistencyModel::Rc),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32) -> JobSpec {
        JobSpec {
            id,
            benchmark: Benchmark::Km,
            scale: Scale::Tiny,
            protocol: ProtocolKind::Gtsc,
            consistency: ConsistencyModel::Rc,
            seed: 7,
            lossy_permille: 40,
            bank_crashes: 1,
            cycle_budget: 2_000_000,
        }
    }

    #[test]
    fn job_spec_snap_round_trips() {
        let s = spec(42);
        let mut w = SnapWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = JobSpec::load(&mut r).unwrap();
        assert_eq!(back, s);
        r.expect_end("spec").unwrap();
    }

    #[test]
    fn job_result_is_independent_of_slicing_and_checkpointing() {
        let s = spec(1);
        let whole = run_job(&s, None, 0, 0, |_| true);
        let sliced = run_job(&s, None, 333, 0, |_| true);
        assert_eq!(whole.result, sliced.result);
        assert_eq!(whole.result.outcome, JobOutcome::Completed);
        assert!(whole.result.cycles > 0);
    }

    #[test]
    fn checkpointed_job_resumes_to_the_same_result() {
        let dir = std::env::temp_dir().join(format!("gtsc-sweep-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let s = spec(2);
        let reference = run_job(&s, None, 0, 0, |_| true);

        // First execution: abandon after the first checkpoint lands by
        // only allowing one checkpoint, then cutting the run short via a
        // tiny cycle budget on a *clone* — instead, simply run with
        // checkpoints and verify a second run resumes from them.
        let store = CheckpointStore::new(dir.join("job.ck"));
        // Run a partial execution by hand: advance a few slices and
        // checkpoint, mimicking a crash before completion.
        let cfg = s.config();
        let kernel = s.kernel();
        let mut sim = SimBuilder::new(cfg).try_build().unwrap();
        let mut progress = gtsc_sim::KernelProgress::new(&*kernel);
        for _ in 0..4 {
            let done = sim.advance_kernel(&*kernel, &mut progress, 200).unwrap();
            assert!(done.is_none(), "partial run must not drain");
        }
        store
            .save(&sim.save_snapshot(Some(&progress)).unwrap())
            .unwrap();
        drop(sim);

        // "Restarted process": run_job finds the checkpoint and resumes.
        let resumed = run_job(&s, Some(&store), 250, 1_000, |_| true);
        assert!(resumed.resumed_from_checkpoint, "checkpoint was on disk");
        assert_eq!(resumed.result, reference.result);
        // Terminal path clears the store.
        assert!(store
            .load_latest(|_| Ok::<_, SnapshotError>(()))
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cycle_budget_is_a_deterministic_outcome() {
        let mut s = spec(3);
        s.cycle_budget = 500;
        let a = run_job(&s, None, 0, 0, |_| true);
        let b = run_job(&s, None, 128, 0, |_| true);
        assert_eq!(a.result.outcome, JobOutcome::CycleBudget);
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn name_parsers_cover_the_paper_set() {
        for b in Benchmark::all() {
            assert_eq!(benchmark_from_name(b.name()), Some(b));
        }
        assert_eq!(scale_from_name("tiny"), Some(Scale::Tiny));
        assert_eq!(protocol_from_name("gtsc"), Some(ProtocolKind::Gtsc));
        assert_eq!(consistency_from_name("rc"), Some(ConsistencyModel::Rc));
        assert!(benchmark_from_name("nope").is_none());
    }
}
