//! The metric names the benchmark prints: one table, so every name
//! appears exactly once, with one unit, everywhere. `BENCHMARK.json` at
//! the repository root repeats these tables and a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

use crate::json::{escape, num};

/// A metric: name, unit, whether `lower` or `higher` is better.
pub type Metric = (&'static str, &'static str, &'static str);

/// What a user of the simulator sees. Host quantities say so; simulated
/// time is in cycles.
pub const END_TO_END: [Metric; 5] = [
    ("wall_s", "s", "lower"),
    ("sim_kinstr_per_s", "kinstr/s", "higher"),
    ("sim_cycles", "cyc", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Every per-layer metric, grouped by the module it measures. Host time
/// is `ns`/`us`/`ms`; simulated time is `cyc`.
pub const PER_LAYER: [Metric; 108] = [
    // rules
    ("rules.ts_ops_ns", "ns", "lower"),
    // core
    ("core.l1_hit_ns", "ns", "lower"),
    ("core.l1_miss_roundtrip_ns", "ns", "lower"),
    ("core.l2_renewal_serve_ns", "ns", "lower"),
    ("core.l2_store_serve_ns", "ns", "lower"),
    ("l1.accesses", "count", "lower"),
    ("l1.hit_ratio", "ratio", "higher"),
    ("l1.expired_miss_ratio", "ratio", "lower"),
    ("l1.renewals", "count", "lower"),
    ("l1.mshr_merges", "count", "higher"),
    ("l1.retries", "count", "lower"),
    ("l2.accesses", "count", "lower"),
    ("l2.hit_ratio", "ratio", "higher"),
    ("l2.evictions", "count", "lower"),
    ("l2.replayed_stores", "count", "lower"),
    // baselines
    ("baselines.tc_l1_hit_ns", "ns", "lower"),
    ("baselines.tc_l2_serve_ns", "ns", "lower"),
    ("baselines.host_share", "share", "lower"),
    // mem
    ("mem.tag_probe_hit_ns", "ns", "lower"),
    ("mem.tag_fill_evict_ns", "ns", "lower"),
    ("mem.mshr_register_take_ns", "ns", "lower"),
    ("mem.dram_enqueue_tick_ns", "ns", "lower"),
    ("mem.dram_idle_tick_ns", "ns", "lower"),
    ("dram.reads", "count", "lower"),
    ("dram.writes", "count", "lower"),
    ("dram.row_hit_ratio", "ratio", "higher"),
    ("dram.queue_full_events", "count", "lower"),
    // noc
    ("noc.send_tick_ns", "ns", "lower"),
    ("noc.idle_tick_ns", "ns", "lower"),
    ("noc.reliable_passthrough_tick_ns", "ns", "lower"),
    ("noc.reliable_lossy_tick_ns", "ns", "lower"),
    ("noc.packets", "count", "lower"),
    ("noc.flits", "count", "lower"),
    ("noc.mean_packet_latency_cyc", "cyc", "lower"),
    ("noc.queue_cycles", "cyc", "lower"),
    ("transport.delivered", "count", "lower"),
    ("transport.retransmits", "count", "lower"),
    ("transport.timeouts", "count", "lower"),
    ("transport.nacks", "count", "lower"),
    ("transport.dup_dropped", "count", "lower"),
    ("transport.retransmit_ratio", "ratio", "lower"),
    // gpu
    ("gpu.sm_cycle_idle_ns", "ns", "lower"),
    ("gpu.sm_cycle_issue_ns", "ns", "lower"),
    ("gpu.coalesce_ns", "ns", "lower"),
    ("gpu.instr_issued", "count", "lower"),
    ("gpu.mem_instr", "count", "lower"),
    ("gpu.ipc", "instr/cyc", "higher"),
    ("gpu.cyc_share_issue", "share", "higher"),
    ("gpu.cyc_share_lease_expired_wait", "share", "lower"),
    ("gpu.cyc_share_mshr_full", "share", "lower"),
    ("gpu.cyc_share_noc_backpressure", "share", "lower"),
    ("gpu.cyc_share_dram_wait", "share", "lower"),
    ("gpu.cyc_share_rollover_freeze", "share", "lower"),
    ("gpu.cyc_share_idle", "share", "lower"),
    // faults
    ("faults.dropped", "count", "lower"),
    ("faults.corrupted", "count", "lower"),
    // trace
    ("trace.record_disabled_ns", "ns", "lower"),
    ("trace.sanitize_check_disabled_ns", "ns", "lower"),
    ("trace.sanitize_check_enabled_ns", "ns", "lower"),
    ("trace.sanitize_on_overhead_pct", "%", "lower"),
    ("trace.spans_on_overhead_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    // span (simulated time)
    ("span.sampled", "count", "higher"),
    ("span.e2e_cyc_p50", "cyc", "lower"),
    ("span.e2e_cyc_p99", "cyc", "lower"),
    ("span.l1_cyc_mean", "cyc", "lower"),
    ("span.noc_req_cyc_mean", "cyc", "lower"),
    ("span.l2_serve_cyc_mean", "cyc", "lower"),
    ("span.noc_resp_cyc_mean", "cyc", "lower"),
    ("span.l1_fill_cyc_mean", "cyc", "lower"),
    ("span.dram_wait_cyc_mean", "cyc", "lower"),
    // sim
    ("sim.step_idle_ns", "ns", "lower"),
    ("sim.step_idle_small_ns", "ns", "lower"),
    ("sim.l1_hit_soak_ns", "ns", "lower"),
    ("sim.build_ms", "ms", "lower"),
    ("sim.report_ms", "ms", "lower"),
    ("sim.memory_image_ms", "ms", "lower"),
    ("sim.snapshot_save_ms", "ms", "lower"),
    ("sim.snapshot_restore_ms", "ms", "lower"),
    ("sim.snapshot_bytes", "bytes", "lower"),
    ("sim.host_ns_per_cycle", "ns", "lower"),
    ("sim.host_ns_per_instr", "ns", "lower"),
    ("sim.host_ns_per_l1_access", "ns", "lower"),
    ("ladder.core_share", "share", "lower"),
    ("ladder.noc_share", "share", "lower"),
    ("ladder.mem_share", "share", "lower"),
    ("ladder.gpu_share", "share", "lower"),
    ("ladder.idle_step_share", "share", "lower"),
    ("ladder.unattributed_share", "share", "lower"),
    // fabric / multi
    ("fabric.device_l2_serve_ns", "ns", "lower"),
    ("fabric.home_serve_ns", "ns", "lower"),
    ("multi.step_idle_ns_2dev", "ns", "lower"),
    ("multi.step_idle_ns_4dev", "ns", "lower"),
    ("multi.host_ns_per_cycle_2dev", "ns", "lower"),
    ("multi.host_ns_per_cycle_4dev", "ns", "lower"),
    // workloads, energy
    ("workloads.build_full_ms", "ms", "lower"),
    ("energy.estimate_us", "us", "lower"),
    // sweep
    ("sweep.jobs", "count", "higher"),
    ("sweep.job_ms_p50", "ms", "lower"),
    ("sweep.job_ms_p90", "ms", "lower"),
    ("sweep.checkpoints_written", "count", "lower"),
    ("sweep.checkpoint_write_ms_p50", "ms", "lower"),
    ("sweep.checkpoint_overhead_pct", "%", "lower"),
    ("sweep.journal_append_us", "us", "lower"),
    ("sweep.resume_replay_ms", "ms", "lower"),
    ("sweep.worker_scaling", "x", "higher"),
    // model (accuracy)
    ("model.gtsc_over_tc_speedup", "x", "higher"),
    ("model.paper_err_pct", "%", "lower"),
];

/// Named values collected during a run. Setting a name that the tables
/// do not know, or setting one twice, is a bug in the benchmark and
/// panics: a metric must appear exactly once.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records per-layer metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown or repeated name.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .map_or_else(|| panic!("{name} is not a per-layer metric"), |m| m.0);
        assert!(self.0.insert(key, value).is_none(), "{name} recorded twice");
    }

    /// The value recorded for `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names recorded, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        PER_LAYER
            .iter()
            .filter_map(|m| self.0.get(m.0).map(|v| (m.0, *v)))
    }

    /// Copies every value of `other` in.
    pub fn extend(&mut self, other: &Values) {
        for (k, v) in other.iter() {
            self.set(k, v);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` with every per-layer
    /// metric present: one that does not apply to the workload reads 0.
    #[must_use]
    pub fn to_json_complete(&self) -> String {
        let body: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, unit, _)| metric_json(name, self.get(name).unwrap_or(0.0), unit))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// As [`Values::to_json_complete`], but only what was recorded.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body: Vec<String> = PER_LAYER
            .iter()
            .filter_map(|(name, unit, _)| Some(metric_json(name, self.get(name)?, unit)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// `"name": {"value": v, "unit": "u"}`
#[must_use]
pub fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        escape(name),
        num(value),
        escape(unit)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_unique_well_formed_and_carry_units() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit:?}");
            assert!(matches!(*better, "lower" | "higher"), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in Workload::ALL {
            assert!(well_formed(w.name()));
            assert!(seen.insert(w.name()), "{} clashes with a metric", w.name());
        }
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries(v: &Value, key: &str) -> Vec<(String, Option<String>, Option<String>)> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Value::as_str).map(str::to_owned);
                (field("name").expect("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_names_the_program_prints() {
        let m = manifest();
        let want = |table: &[(&str, &str, &str)]| -> Vec<(String, Option<String>, Option<String>)> {
            table
                .iter()
                .map(|(n, u, b)| {
                    (
                        (*n).to_owned(),
                        Some((*u).to_owned()),
                        Some((*b).to_owned()),
                    )
                })
                .collect()
        };
        assert_eq!(entries(&m, "end_to_end"), want(&END_TO_END));
        assert_eq!(entries(&m, "per_layer"), want(&PER_LAYER));
        let workloads: Vec<String> = entries(&m, "workloads").into_iter().map(|e| e.0).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn complete_output_has_every_per_layer_name_once_with_its_unit() {
        let mut v = Values::default();
        v.set("core.l1_hit_ns", 12.5);
        v.set("l1.accesses", 7.0);
        let parsed = json::parse(&v.to_json_complete()).expect("parses");
        let obj = parsed.as_object().expect("object");
        // The parser rejects duplicate keys, so equal length means once each.
        assert_eq!(obj.len(), PER_LAYER.len());
        for (name, unit, _) in PER_LAYER {
            let m = obj.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
        }
        assert_eq!(
            obj["core.l1_hit_ns"].get("value").and_then(Value::as_f64),
            Some(12.5)
        );
        let partial = json::parse(&v.to_json()).expect("parses");
        assert_eq!(partial.as_object().map(BTreeMap::len), Some(2));
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn a_metric_cannot_be_recorded_twice() {
        let mut v = Values::default();
        v.set("l1.accesses", 1.0);
        v.set("l1.accesses", 2.0);
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn an_unknown_metric_cannot_be_recorded() {
        Values::default().set("l1.acesses", 1.0);
    }
}
