//! Crash/resume soak for the sweep service, driving the real `sweep`
//! binary: `kill -9` mid-batch, restart, and prove the final aggregate
//! report is byte-identical to an uninterrupted run with zero re-runs
//! of journaled shards.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use gtsc_sweep::{replay, Record};

const BIN: &str = env!("CARGO_BIN_EXE_sweep");

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gtsc-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A batch sized to run for a couple of seconds in debug builds:
/// 2 benchmarks × 6 lossy seeds at small scale, checkpointing often.
fn batch_args(dir: &Path) -> Vec<String> {
    [
        "--dir",
        &dir.display().to_string(),
        "--benchmarks",
        "KM,HS",
        "--seeds",
        "6",
        "--scale",
        "small",
        "--lossy",
        "40",
        "--workers",
        "2",
        "--slice",
        "500",
        "--checkpoint-every",
        "1500",
        "--quiet",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

fn run_to_completion(args: &[String]) {
    let out = Command::new(BIN).args(args).output().expect("spawn sweep");
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn aggregates(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("aggregates.txt")).expect("aggregates.txt written")
}

fn journal(dir: &Path) -> Vec<Record> {
    let bytes = std::fs::read(dir.join("journal.bin")).expect("journal exists");
    replay(&bytes).0
}

/// Asserts the journal's shard discipline: exactly one `Done` per job,
/// and no `Begin` for a job after its `Done` (a journaled shard is
/// never re-run, across any number of process restarts).
fn assert_no_shard_reruns(records: &[Record], n_jobs: u32) {
    use std::collections::BTreeMap;
    let mut done_at: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if let Record::Done { result } = r {
            assert!(
                done_at.insert(result.id, i).is_none(),
                "job {} journaled Done twice",
                result.id
            );
        }
    }
    assert_eq!(
        done_at.len() as u32,
        n_jobs,
        "every job journaled exactly once"
    );
    for (i, r) in records.iter().enumerate() {
        if let Record::Begin { job, .. } = r {
            if let Some(&d) = done_at.get(job) {
                assert!(
                    i < d,
                    "job {job} has a Begin at record {i} after its Done at {d}: journaled shard was re-run"
                );
            }
        }
    }
}

#[test]
fn kill_dash_nine_mid_batch_then_restart_is_byte_identical() {
    let n_jobs = 12u32;

    // Reference: one uninterrupted run, timed.
    let ref_dir = tmp("reference");
    let t0 = Instant::now();
    run_to_completion(&batch_args(&ref_dir));
    let batch_time = t0.elapsed();
    let reference = aggregates(&ref_dir);

    // Victim: SIGKILL the service mid-batch several times, at fixed
    // fractions of the reference run's time — so a kill lands mid-batch
    // however fast the build and the host are — then let a final run
    // finish the batch.
    let victim_dir = tmp("victim");
    let args = batch_args(&victim_dir);
    let mut interrupted = 0;
    for (round, percent) in [10u32, 25, 50, 80].into_iter().enumerate() {
        let mut child = Command::new(BIN).args(&args).spawn().expect("spawn sweep");
        std::thread::sleep(batch_time * percent / 100);
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                // Finished before the kill (earlier rounds left little
                // to do): later rounds become no-op resumes.
                assert!(status.success(), "round {round}: sweep failed");
            }
            None => {
                child.kill().expect("SIGKILL");
                let _ = child.wait();
                interrupted += 1;
            }
        }
    }
    assert!(
        interrupted > 0,
        "batch finished before every kill; grow the batch so the soak exercises crash recovery"
    );

    // Restart after the carnage: must complete, skip journaled shards,
    // resume checkpointed jobs, and reproduce the reference bytes.
    run_to_completion(&args);
    assert_eq!(
        aggregates(&victim_dir),
        reference,
        "aggregates after kill -9 + resume differ from the uninterrupted run"
    );
    assert_no_shard_reruns(&journal(&victim_dir), n_jobs);

    // And the reference journal obeys the same discipline trivially.
    assert_no_shard_reruns(&journal(&ref_dir), n_jobs);

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&victim_dir);
}

#[test]
fn completed_batch_restart_is_a_noop() {
    let dir = tmp("noop");
    let args = batch_args(&dir);
    run_to_completion(&args);
    let first = aggregates(&dir);
    let journal_bytes = std::fs::read(dir.join("journal.bin")).unwrap();

    run_to_completion(&args);
    assert_eq!(aggregates(&dir), first);
    assert_eq!(
        std::fs::read(dir.join("journal.bin")).unwrap(),
        journal_bytes,
        "a no-op resume must not append journal records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_failures_and_budget_shedding_do_not_change_the_bytes() {
    let clean_dir = tmp("shed-clean");
    run_to_completion(&batch_args(&clean_dir));
    let reference = aggregates(&clean_dir);

    // Same batch under a tight disk budget, flaky first attempts, and
    // a memory budget that sheds a worker.
    let dir = tmp("shed-hostile");
    let mut args = batch_args(&dir);
    args.extend(
        [
            "--fail-first",
            "0:2,5:1,11:1",
            "--backoff-ms",
            "1",
            "--disk-budget",
            "131072",
            "--mem-budget",
            "8388608",
        ]
        .iter()
        .map(|s| (*s).to_owned()),
    );
    run_to_completion(&args);
    assert_eq!(
        aggregates(&dir),
        reference,
        "retries and shedding must be invisible in the aggregate bytes"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
