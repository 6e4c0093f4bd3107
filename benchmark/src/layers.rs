//! Per-layer metrics of a workload: counts read from the public
//! statistics of its traced pass, shares derived from counts × rungs,
//! and the few comparisons (sanitizer, spans, checkpointing, workers)
//! that need a second run.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use gtsc::faults::FaultStats;
use gtsc::sim::CheckpointStore;
use gtsc::types::{
    CacheStats, CycleBuckets, CycleReason, DramStats, NocStats, SimStats, SmStats, TransportStats,
};
use gtsc_sweep::{run_job, run_sweep, SweepConfig, TransientFaultPlan};
use gtsc_trace::span::{HopKind, SpanRecord};

use crate::metrics::Values;
use crate::rungs::{Rung, SoakShape};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{
    fresh_dir, job_item, run_items, soak_single_items, sweep_config, sweep_specs, Item, ItemKind,
    ItemResult, PassResult, ProgramSpans, Sizes, Triple,
};

/// The speed-up of G-TSC-RC over TC-RC on group A that the paper reports.
pub const PAPER_SPEEDUP: f64 = 1.38;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Statistics of every operation of a pass, merged.
#[derive(Debug, Default)]
struct Merged {
    cycles: u64,
    sm: SmStats,
    l1: CacheStats,
    l2: CacheStats,
    noc: NocStats,
    transport: TransportStats,
    dram: DramStats,
    buckets: CycleBuckets,
    faults: FaultStats,
}

impl Merged {
    fn of<'a>(stats: impl Iterator<Item = (&'a SimStats, Option<&'a FaultStats>)>) -> Merged {
        let mut m = Merged::default();
        for (s, f) in stats {
            m.cycles += s.cycles.0;
            m.sm.merge(&s.sm);
            m.l1.merge(&s.l1);
            m.l2.merge(&s.l2);
            m.noc.merge(&s.noc);
            m.transport.merge(&s.transport);
            m.dram.merge(&s.dram);
            m.buckets.merge(&s.sm.cycle_buckets);
            if let Some(f) = f {
                m.faults.merge(f);
            }
        }
        m
    }
}

/// The counts and ratios every workload has: read from `RunReport.stats`
/// and `fault_stats()`, so they repeat exactly.
fn counts(m: &Merged, out: &mut Values) {
    out.set("l1.accesses", m.l1.accesses as f64);
    out.set("l1.hit_ratio", ratio(m.l1.hits, m.l1.accesses));
    out.set(
        "l1.expired_miss_ratio",
        ratio(m.l1.expired_misses, m.l1.accesses),
    );
    out.set("l1.renewals", m.l1.renewals as f64);
    out.set("l1.mshr_merges", m.l1.mshr_merges as f64);
    out.set("l1.retries", m.l1.retries as f64);
    out.set("l2.accesses", m.l2.accesses as f64);
    out.set("l2.hit_ratio", ratio(m.l2.hits, m.l2.accesses));
    out.set("l2.evictions", m.l2.evictions as f64);
    out.set("l2.replayed_stores", m.l2.replayed_stores as f64);
    out.set("dram.reads", m.dram.reads as f64);
    out.set("dram.writes", m.dram.writes as f64);
    out.set(
        "dram.row_hit_ratio",
        ratio(m.dram.row_hits, m.dram.row_hits + m.dram.row_misses),
    );
    out.set("dram.queue_full_events", m.dram.queue_full_events as f64);
    out.set("noc.packets", m.noc.packets as f64);
    out.set("noc.flits", m.noc.flits as f64);
    out.set(
        "noc.mean_packet_latency_cyc",
        ratio(m.noc.total_packet_latency, m.noc.packets),
    );
    out.set("noc.queue_cycles", m.noc.queue_cycles as f64);
    out.set("transport.delivered", m.transport.delivered as f64);
    out.set("transport.retransmits", m.transport.retransmits as f64);
    out.set("transport.timeouts", m.transport.timeouts as f64);
    out.set("transport.nacks", m.transport.nacks as f64);
    out.set("transport.dup_dropped", m.transport.dup_dropped as f64);
    out.set(
        "transport.retransmit_ratio",
        ratio(m.transport.retransmits, m.transport.delivered),
    );
    out.set("gpu.instr_issued", m.sm.issued as f64);
    out.set("gpu.mem_instr", m.sm.mem_issued as f64);
    out.set("gpu.ipc", ratio(m.sm.issued, m.cycles));
    let total = m.buckets.sum();
    for reason in CycleReason::ALL {
        out.set(
            &format!("gpu.cyc_share_{}", reason.name()),
            ratio(m.buckets.get(reason), total),
        );
    }
    out.set("faults.dropped", m.faults.dropped as f64);
    out.set("faults.corrupted", m.faults.corrupted as f64);
}

/// Simulated-time breakdown of the program's own sampled request spans.
fn span_metrics(spans: &[&SpanRecord], out: &mut Values) {
    let closed: Vec<&SpanRecord> = spans
        .iter()
        .copied()
        .filter(|s| s.closed.is_some())
        .collect();
    out.set("span.sampled", closed.len() as f64);
    let e2e: Vec<f64> = closed
        .iter()
        .filter_map(|s| s.end_to_end())
        .map(|c| c as f64)
        .collect();
    let (p50, p99) = if e2e.is_empty() {
        (0.0, 0.0)
    } else {
        (stats::percentile(&e2e, 50.0), stats::percentile(&e2e, 99.0))
    };
    out.set("span.e2e_cyc_p50", p50);
    out.set("span.e2e_cyc_p99", p99);
    // Means over every closed span, so the five chain hops add up to the
    // mean end-to-end latency; DRAM wait is an overlay inside `l2_serve`.
    let mean = |kind: HopKind| {
        let total: u64 = closed
            .iter()
            .flat_map(|s| s.hops.iter().chain(s.overlays.iter()))
            .filter(|h| h.kind == kind)
            .map(|h| h.duration())
            .sum();
        ratio(total, closed.len() as u64)
    };
    out.set("span.l1_cyc_mean", mean(HopKind::L1));
    out.set("span.noc_req_cyc_mean", mean(HopKind::NocReq));
    out.set("span.l2_serve_cyc_mean", mean(HopKind::L2Serve));
    out.set("span.noc_resp_cyc_mean", mean(HopKind::NocResp));
    out.set("span.l1_fill_cyc_mean", mean(HopKind::L1Fill));
    out.set("span.dram_wait_cyc_mean", mean(HopKind::DramWait));
}

/// Rung values by name.
#[derive(Debug)]
pub struct RungTable<'a>(BTreeMap<&'a str, f64>);

impl<'a> RungTable<'a> {
    /// Indexes `rungs` by name.
    #[must_use]
    pub fn new(rungs: &'a [Rung]) -> Self {
        RungTable(rungs.iter().map(|r| (r.name, r.median)).collect())
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `a − b`, floored at zero: the cost of the loaded case over the
    /// idle one, which the idle step already accounts for.
    fn over(&self, a: &str, b: &str) -> f64 {
        (self.get(a) - self.get(b)).max(0.0)
    }
}

/// Host nanoseconds the rungs predict for one simulation, by layer.
#[derive(Debug, Default, Clone, Copy)]
struct Predicted {
    core: f64,
    noc: f64,
    mem: f64,
    gpu: f64,
    idle: f64,
}

/// count × rung for one operation's statistics.
fn predict(kind: ItemKind, s: &SimStats, r: &RungTable) -> Predicted {
    let l1_misses = s.l1.accesses.saturating_sub(s.l1.hits) as f64;
    let l2_reads = s.l2.accesses.saturating_sub(s.l2.stores) as f64;
    let core = if kind.tc {
        // The TC controllers have two rungs: every L1 access at the hit
        // cost, every L2 access at the serve cost.
        s.l1.accesses as f64 * r.get("baselines.tc_l1_hit_ns")
            + s.l2.accesses as f64 * r.get("baselines.tc_l2_serve_ns")
    } else {
        s.l1.hits as f64 * r.get("core.l1_hit_ns")
            + l1_misses * r.get("core.l1_miss_roundtrip_ns")
            + l2_reads * r.get("core.l2_renewal_serve_ns")
            + s.l2.stores as f64 * r.get("core.l2_store_serve_ns")
    };
    // The simulator always sends through `ReliableNet`; which branch it
    // takes shows in whether the transport delivered anything.
    let per_packet = if s.transport.delivered > 0 {
        r.over("noc.reliable_lossy_tick_ns", "noc.idle_tick_ns")
    } else {
        r.over("noc.reliable_passthrough_tick_ns", "noc.idle_tick_ns")
    };
    let l2_misses = s.l2.accesses.saturating_sub(s.l2.hits) as f64;
    let step = match (kind.n_devices, kind.paper) {
        (1, true) => r.get("sim.step_idle_ns"),
        (1, false) => r.get("sim.step_idle_small_ns"),
        (2, true) => r.get("multi.step_idle_ns_2dev"),
        (4, true) => r.get("multi.step_idle_ns_4dev"),
        // No rung for a test-platform fabric: N idle test-platform steps.
        (n, _) => n as f64 * r.get("sim.step_idle_small_ns"),
    };
    Predicted {
        core,
        noc: s.noc.packets as f64 * per_packet,
        mem: (s.dram.reads + s.dram.writes) as f64
            * r.over("mem.dram_enqueue_tick_ns", "mem.dram_idle_tick_ns")
            + l2_misses * (r.get("mem.tag_fill_evict_ns") + r.get("mem.mshr_register_take_ns")),
        // An SM cycle with warps resident costs the occupied-SM rung, not
        // the idle one the idle step already counted.
        gpu: (s.sm.active_cycles + s.sm.idle_cycles) as f64
            * if kind.paper {
                r.over("gpu.sm_cycle_issue_ns", "gpu.sm_cycle_idle_ns")
            } else {
                r.over("gpu.sm_cycle_issue_small_ns", "gpu.sm_cycle_idle_small_ns")
            }
            + s.sm.mem_issued as f64 * r.get("gpu.coalesce_ns"),
        idle: s.cycles.0 as f64 * step,
    }
}

/// The ladder of a pass: each layer's predicted share of the measured
/// wall time, and what the rungs leave unexplained.
fn ladder(items: &[(ItemKind, &SimStats)], wall_s: f64, r: &RungTable, out: &mut Values) {
    let mut sum = Predicted::default();
    for (kind, stats) in items {
        let p = predict(*kind, stats, r);
        sum.core += p.core;
        sum.noc += p.noc;
        sum.mem += p.mem;
        sum.gpu += p.gpu;
        sum.idle += p.idle;
    }
    let wall_ns = wall_s * 1e9;
    let share = |ns: f64| if wall_ns > 0.0 { ns / wall_ns } else { 0.0 };
    let shares = [
        ("ladder.core_share", share(sum.core)),
        ("ladder.noc_share", share(sum.noc)),
        ("ladder.mem_share", share(sum.mem)),
        ("ladder.gpu_share", share(sum.gpu)),
        ("ladder.idle_step_share", share(sum.idle)),
    ];
    let mut attributed = 0.0;
    for (name, v) in shares {
        out.set(name, v);
        attributed += v;
    }
    // Reported as it is: negative means the isolated rungs over-predict.
    out.set("ladder.unattributed_share", 1.0 - attributed);
}

/// What the statistics of `stats_of` (operations with full `SimStats`)
/// say about every layer, against `wall_s` of untraced host time.
fn from_stats(stats_of: &[&ItemResult], wall_s: f64, rungs: &RungTable, out: &mut Values) {
    let with_stats: Vec<(&ItemResult, &SimStats)> = stats_of
        .iter()
        .filter_map(|i| i.stats.as_ref().map(|s| (*i, s)))
        .collect();
    let merged = Merged::of(
        with_stats
            .iter()
            .map(|(i, s)| (*s, i.observed.faults.as_ref())),
    );
    counts(&merged, out);
    let spans: Vec<&SpanRecord> = stats_of.iter().flat_map(|i| &i.observed.spans).collect();
    span_metrics(&spans, out);
    let wall_ns = wall_s * 1e9;
    let per = |n: u64| if n == 0 { 0.0 } else { wall_ns / n as f64 };
    out.set("sim.host_ns_per_cycle", per(merged.cycles));
    out.set("sim.host_ns_per_instr", per(merged.sm.issued));
    out.set("sim.host_ns_per_l1_access", per(merged.l1.accesses));
    let kinds: Vec<(ItemKind, &SimStats)> = with_stats.iter().map(|(i, s)| (i.kind, *s)).collect();
    ladder(&kinds, wall_s, rungs, out);
}

fn pct_over(with: f64, without: f64) -> f64 {
    if without > 0.0 {
        (with / without - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Per-layer metrics of an in-memory workload from its `traced` pass and
/// the `untraced` pass run beside it.
#[must_use]
pub fn in_memory(traced: &PassResult, untraced: &PassResult, rungs: &RungTable) -> Values {
    let mut out = Values::default();
    let items: Vec<&ItemResult> = traced.items.iter().collect();
    from_stats(&items, untraced.wall_s, rungs, &mut out);
    out.set(
        "bench.trace_overhead_pct",
        pct_over(traced.wall_s, untraced.wall_s),
    );

    // Shares and speed-ups that only some workloads have.
    let tc_wall: f64 = untraced
        .items
        .iter()
        .filter(|i| i.kind.tc)
        .map(|i| i.wall_s)
        .sum();
    if tc_wall > 0.0 {
        out.set("baselines.host_share", tc_wall / untraced.wall_s);
        // Pair each TC item with the G-TSC item of the same benchmark:
        // labels differ only in the protocol part.
        let cycles: BTreeMap<&str, u64> = traced
            .items
            .iter()
            .filter_map(|i| i.triple.map(|t| (i.label.as_str(), t.cycles)))
            .collect();
        let ratios: Vec<f64> = cycles
            .iter()
            .filter(|(l, _)| l.contains("TC-RC"))
            .filter_map(|(l, tc)| {
                let gtsc = cycles.get(l.replace("TC-RC", "G-TSC-RC").as_str())?;
                Some(*tc as f64 / *gtsc as f64)
            })
            .collect();
        if !ratios.is_empty() {
            let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
            out.set("model.gtsc_over_tc_speedup", geomean);
            out.set(
                "model.paper_err_pct",
                (geomean / PAPER_SPEEDUP - 1.0).abs() * 100.0,
            );
        }
    }
    for (n, name) in [
        (2, "multi.host_ns_per_cycle_2dev"),
        (4, "multi.host_ns_per_cycle_4dev"),
    ] {
        let of_n = || {
            untraced
                .items
                .iter()
                .filter(move |i| i.kind.n_devices == n && i.kind.paper)
        };
        let cycles: u64 = of_n().filter_map(|i| i.triple).map(|t| t.cycles).sum();
        if cycles > 0 {
            let wall: f64 = of_n().map(|i| i.wall_s).sum();
            out.set(name, wall * 1e9 / cycles as f64);
        }
    }
    out
}

/// `soak_faults` only: what the sanitizer and the program's span
/// sampling cost, from the single-GPU half of the workload run three
/// ways, `rounds` times, interleaved.
pub fn soak_overheads(seed: u64, sizes: Sizes, rounds: usize, spans: &mut Spans) -> Values {
    let plain = soak_single_items(sizes.small, seed, false);
    let sanitized = soak_single_items(sizes.small, seed, true);
    let sampled = Some(ProgramSpans::at(seed));
    let mut walls: [Vec<f64>; 3] = Default::default();
    spans.scope("soak_overheads", |spans| {
        for _ in 0..rounds {
            walls[0].push(run_items(&plain, None, spans).wall_s);
            walls[1].push(run_items(&sanitized, None, spans).wall_s);
            walls[2].push(run_items(&plain, sampled, spans).wall_s);
        }
    });
    let base = stats::median(&walls[0]);
    let mut out = Values::default();
    out.set(
        "trace.sanitize_on_overhead_pct",
        pct_over(stats::median(&walls[1]), base),
    );
    out.set(
        "trace.spans_on_overhead_pct",
        pct_over(stats::median(&walls[2]), base),
    );
    out
}

/// `sweep_batch` only. `run_sweep` returns no statistics, so the counts
/// come from running every job's public `config()` and `kernel()` in
/// memory, which must reproduce the journaled results exactly; the
/// service's own costs come from `run_job` and from three more batches
/// (no checkpoints, one worker, resume of a finished directory).
///
/// Returns the metrics and one failure message per job whose in-memory
/// run disagrees with `journaled`.
pub fn sweep(
    seed: u64,
    sizes: Sizes,
    scratch: &Path,
    traced: &PassResult,
    untraced: &PassResult,
    rungs: &RungTable,
    spans: &mut Spans,
) -> (Values, Vec<String>) {
    let specs = sweep_specs(seed, sizes);
    let mut out = Values::default();
    let mut failures = Vec::new();
    let journaled: BTreeMap<&str, Option<Triple>> = traced
        .items
        .iter()
        .map(|i| (i.label.as_str(), i.triple))
        .collect();

    // The same simulations, in memory, for their statistics.
    let in_memory = spans.scope("sweep_in_memory", |_| {
        let items: Vec<Item> = specs.iter().map(job_item).collect();
        run_items(&items, None, &mut Spans::disabled())
    });
    for i in &in_memory.items {
        let want = journaled.get(i.label.as_str()).copied().flatten();
        if let Some(f) = &i.failure {
            failures.push(format!("{}: {f}", i.label));
        } else if i.triple != want {
            failures.push(format!(
                "{}: in-memory run gave {:?}, journal {want:?}",
                i.label, i.triple
            ));
        }
    }
    let refs: Vec<&ItemResult> = in_memory.items.iter().collect();
    from_stats(&refs, in_memory.wall_s, rungs, &mut out);
    out.set(
        "bench.trace_overhead_pct",
        pct_over(traced.wall_s, untraced.wall_s),
    );

    // Each job on its own through `run_job`, checkpointing as the
    // service does: per-job and per-checkpoint host time.
    let dir = scratch.join("jobs");
    let mut job_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut written = 0u64;
    spans.scope("sweep_jobs", |_| {
        if fresh_dir(&dir).is_ok() {
            let cfg = sweep_config(&dir);
            for spec in &specs {
                let store = CheckpointStore::new(dir.join(format!("job-{:04}.ckpt", spec.id)));
                let t = Instant::now();
                let run = run_job(
                    spec,
                    Some(&store),
                    cfg.slice_cycles,
                    cfg.checkpoint_every,
                    |_| true,
                );
                job_ms.push(t.elapsed().as_secs_f64() * 1e3);
                written += u64::from(run.checkpoints_written);
                write_ms.extend(run.checkpoint_write_ns.iter().map(|ns| *ns as f64 / 1e6));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    out.set("sweep.jobs", specs.len() as f64);
    let pct = |xs: &[f64], p| {
        if xs.is_empty() {
            0.0
        } else {
            stats::percentile(xs, p)
        }
    };
    out.set("sweep.job_ms_p50", pct(&job_ms, 50.0));
    out.set("sweep.job_ms_p90", pct(&job_ms, 90.0));
    out.set("sweep.checkpoints_written", written as f64);
    out.set("sweep.checkpoint_write_ms_p50", pct(&write_ms, 50.0));

    // The same batch without checkpoints, with one worker, and resumed.
    let plan = TransientFaultPlan::default();
    let mut batch = |name: &str, cfg: SweepConfig, keep: bool| -> f64 {
        spans.scope(name, |_| {
            if !keep && fresh_dir(&cfg.dir).is_err() {
                return 0.0;
            }
            let t = Instant::now();
            let ok = run_sweep(&specs, &cfg, &plan).is_ok();
            if ok {
                t.elapsed().as_secs_f64()
            } else {
                0.0
            }
        })
    };
    let dir = scratch.join("variants");
    let no_ckpt = batch(
        "sweep_no_checkpoints",
        SweepConfig {
            checkpoint_every: 0,
            ..sweep_config(&dir)
        },
        false,
    );
    let one_worker = SweepConfig {
        workers: 1,
        ..sweep_config(&dir)
    };
    let one = batch("sweep_one_worker", one_worker.clone(), false);
    let replay = batch("sweep_resume_replay", one_worker, true);
    let _ = std::fs::remove_dir_all(&dir);
    out.set(
        "sweep.checkpoint_overhead_pct",
        pct_over(untraced.wall_s, no_ckpt),
    );
    out.set("sweep.resume_replay_ms", replay * 1e3);
    out.set(
        "sweep.worker_scaling",
        if untraced.wall_s > 0.0 {
            one / untraced.wall_s
        } else {
            0.0
        },
    );
    (out, failures)
}

/// The written ladder: `sim.l1_hit_soak_ns` taken apart into its rungs.
/// Generated, so the README's numbers are the run's numbers.
#[must_use]
pub fn ladder_markdown(rungs: &[Rung], shape: SoakShape) -> String {
    let r = RungTable::new(rungs);
    let total = r.get("sim.l1_hit_soak_ns");
    let hits = shape.hits.max(1) as f64;
    let cycles_per_hit = shape.cycles as f64 / hits;
    let issued_per_hit = shape.issued as f64 / hits;
    let rows = [
        (
            "L1 controller hit",
            "`core.l1_hit_ns`".to_owned(),
            r.get("core.l1_hit_ns") * shape.accesses as f64 / hits,
        ),
        (
            "SM issue over an idle SM cycle",
            format!(
                "(`gpu.sm_cycle_issue_small_ns` − `gpu.sm_cycle_idle_small_ns`) × \
                 {issued_per_hit:.3} instr/hit"
            ),
            r.over("gpu.sm_cycle_issue_small_ns", "gpu.sm_cycle_idle_small_ns") * issued_per_hit,
        ),
        (
            "coalescer",
            format!("`gpu.coalesce_ns` × {issued_per_hit:.3} instr/hit"),
            r.get("gpu.coalesce_ns") * issued_per_hit,
        ),
        (
            "idle machine step",
            format!("`sim.step_idle_small_ns` × {cycles_per_hit:.3} cycles/hit"),
            r.get("sim.step_idle_small_ns") * cycles_per_hit,
        ),
    ];
    let mut md = String::new();
    md.push_str(&format!(
        "One run of the soak: {} L1 accesses, {} hits, {} warp instructions, {} simulated cycles \
         on the 2-SM test platform.\n\n",
        shape.accesses, shape.hits, shape.issued, shape.cycles
    ));
    md.push_str("| rung | how it enters | ns per hit | share |\n|---|---|---:|---:|\n");
    let mut explained = 0.0;
    for (what, how, ns) in rows {
        explained += ns;
        md.push_str(&format!(
            "| {what} | {how} | {ns:.1} | {:.1} % |\n",
            100.0 * ns / total.max(1e-9)
        ));
    }
    md.push_str(&format!(
        "| **unattributed** | `sim.l1_hit_soak_ns` − the rows above | {:.1} | {:.1} % |\n",
        total - explained,
        100.0 * (total - explained) / total.max(1e-9)
    ));
    md.push_str(&format!(
        "| **`sim.l1_hit_soak_ns`** | measured end to end | {total:.1} | 100 % |\n"
    ));
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rungs::{self, Effort};
    use crate::workloads::{run_pass, run_pass_paired, Workload};
    use gtsc::workloads::Scale;

    const TINY: Sizes = Sizes {
        full: Scale::Tiny,
        small: Scale::Tiny,
        sweep_seeds: 1,
    };

    /// Scratch space under the package's own (ignored) output directory.
    fn scratch(test: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{test}-{}", std::process::id()))
    }

    fn share_sum(v: &Values, prefix: &str) -> f64 {
        v.iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.contains("share"))
            .map(|(_, x)| x)
            .sum()
    }

    #[test]
    fn cycle_shares_and_ladder_shares_each_sum_to_one() {
        let scratch = scratch("layers");
        let mut spans = Spans::disabled();
        let (rungs, _) = rungs::run_all(Effort::SMOKE, &scratch, &mut spans);
        let table = RungTable::new(&rungs);
        for w in [Workload::CohGtsc, Workload::Fig12Coh, Workload::SoakFaults] {
            let pass = run_pass(w, 0, TINY, &scratch);
            assert!(pass.items.iter().all(|i| i.failure.is_none()), "{w:?}");
            let v = in_memory(&pass, &pass, &table);
            assert!(
                (share_sum(&v, "gpu.cyc_share_") - 1.0).abs() < 1e-9,
                "{w:?}"
            );
            assert!((share_sum(&v, "ladder.") - 1.0).abs() < 1e-9, "{w:?}");
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn workload_specific_metrics_appear_only_where_they_apply() {
        let scratch = scratch("spec");
        let table = RungTable(BTreeMap::new());
        let fig12 = run_pass(Workload::Fig12Coh, 0, TINY, &scratch);
        let v = in_memory(&fig12, &fig12, &table);
        let share = v.get("baselines.host_share").expect("TC items ran");
        assert!(share > 0.0 && share < 1.0);
        assert!(v.get("model.gtsc_over_tc_speedup").expect("pairs found") > 0.0);
        assert!(v.get("multi.host_ns_per_cycle_2dev").is_none());
        let coh = run_pass(Workload::CohGtsc, 0, TINY, &scratch);
        let v = in_memory(&coh, &coh, &table);
        assert!(v.get("baselines.host_share").is_none());
        assert!(v.get("l1.accesses").expect("counted") > 0.0);
    }

    #[test]
    fn program_spans_feed_the_span_metrics() {
        let scratch = scratch("spans");
        let mut spans = Spans::disabled();
        let sampled = ProgramSpans { rate: 4, seed: 1 };
        let (untraced, traced) =
            run_pass_paired(Workload::CohGtsc, 0, TINY, &scratch, sampled, &mut spans);
        // Sampling spans inside the program does not change what it computes.
        for (a, b) in untraced.items.iter().zip(&traced.items) {
            assert_eq!(a.triple, b.triple, "{}", a.label);
        }
        let v = in_memory(&traced, &untraced, &RungTable(BTreeMap::new()));
        assert!(v.get("span.sampled").expect("set") > 0.0);
        let hops: f64 = [
            "span.l1_cyc_mean",
            "span.noc_req_cyc_mean",
            "span.l2_serve_cyc_mean",
            "span.noc_resp_cyc_mean",
            "span.l1_fill_cyc_mean",
        ]
        .iter()
        .map(|k| v.get(k).expect("set"))
        .sum();
        assert!(hops > 0.0);
        assert!(v.get("span.e2e_cyc_p99") >= v.get("span.e2e_cyc_p50"));
    }

    #[test]
    fn sweep_layers_agree_with_the_journal_and_fill_every_sweep_metric() {
        let scratch = scratch("sweep");
        let mut spans = Spans::disabled();
        let pass = run_pass(Workload::SweepBatch, 0, TINY, &scratch.join("pass"));
        assert_eq!(pass.items.len(), 12);
        assert!(pass.items.iter().all(|i| i.failure.is_none()));
        let (v, failures) = sweep(
            0,
            TINY,
            &scratch,
            &pass,
            &pass,
            &RungTable(BTreeMap::new()),
            &mut spans,
        );
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(v.get("sweep.jobs"), Some(12.0));
        for name in [
            "sweep.job_ms_p50",
            "sweep.job_ms_p90",
            "sweep.resume_replay_ms",
            "sweep.worker_scaling",
            "l1.accesses",
        ] {
            assert!(v.get(name).expect(name) > 0.0, "{name}");
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn written_ladder_rows_add_up_to_the_measured_total() {
        let rung = |name, median| Rung {
            name,
            unit: "ns",
            median,
            best: median,
            samples: 5,
            ops: 1,
            aux: false,
        };
        let rungs = [
            rung("sim.l1_hit_soak_ns", 400.0),
            rung("core.l1_hit_ns", 20.0),
            rung("gpu.sm_cycle_issue_small_ns", 50.0),
            rung("gpu.sm_cycle_idle_small_ns", 30.0),
            rung("gpu.coalesce_ns", 40.0),
            rung("sim.step_idle_small_ns", 100.0),
        ];
        let shape = SoakShape {
            hits: 1000,
            accesses: 1000,
            cycles: 2000,
            issued: 1000,
        };
        let md = ladder_markdown(&rungs, shape);
        // 20 + 20 + 40 + 200 = 280 explained, 120 left over.
        assert!(md.contains("| **unattributed** |"), "{md}");
        assert!(md.contains("| 120.0 | 30.0 % |"), "{md}");
        assert!(md.contains("| 200.0 | 50.0 % |"), "{md}");
    }
}
