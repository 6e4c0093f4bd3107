//! Shared experiment plumbing: configuration presets matching the paper's
//! evaluated systems, the run loop, and text-table rendering.

use gtsc_energy::{EnergyBreakdown, EnergyModel, EnergyParams};
use gtsc_faults::FaultStats;
use gtsc_gpu::Kernel;
use gtsc_sim::GpuSim;
use gtsc_types::{ConsistencyModel, GpuConfig, ProtocolKind, SimStats};
use gtsc_workloads::{Benchmark, Scale};

/// One evaluated system of Figure 12: a protocol/consistency pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Consistency model.
    pub consistency: ConsistencyModel,
    /// Figure label, e.g. `G-TSC-RC`.
    pub label: &'static str,
}

/// The five systems the paper plots (plus the baseline divisor `BL`):
/// `BL W/L1`, `G-TSC-RC`, `G-TSC-SC`, `TC-RC`, `TC-SC`.
///
/// `TC-RC` is TC-Weak (GWCT fences) and `TC-SC` is write-atomic TC with
/// SC issue rules, as in the original TC paper's pairing.
#[must_use]
pub fn paper_configs() -> [PaperConfig; 5] {
    use ConsistencyModel::{Rc, Sc};
    use ProtocolKind::{Gtsc, L1NoCoherence, Tc, TcWeak};
    [
        (L1NoCoherence, Rc, "BL-W/L1"),
        (Gtsc, Rc, "G-TSC-RC"),
        (Gtsc, Sc, "G-TSC-SC"),
        (TcWeak, Rc, "TC-RC"),
        (Tc, Sc, "TC-SC"),
    ]
    .map(|(protocol, consistency, label)| PaperConfig {
        protocol,
        consistency,
        label,
    })
}

impl PaperConfig {
    /// The paper-platform [`GpuConfig`] of this system.
    #[must_use]
    pub fn cfg(self) -> GpuConfig {
        config_for(self.protocol, self.consistency)
    }
}

/// The paper-platform [`GpuConfig`] for a protocol/consistency pair.
#[must_use]
pub fn config_for(protocol: ProtocolKind, consistency: ConsistencyModel) -> GpuConfig {
    GpuConfig::paper_default()
        .with_protocol(protocol)
        .with_consistency(consistency)
}

/// Everything measured from one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Hardware counters.
    pub stats: SimStats,
    /// Energy estimate.
    pub energy: EnergyBreakdown,
    /// Coherence violations (expected nonzero only for the non-coherent
    /// baseline on group-A workloads).
    pub violations: usize,
    /// Aggregated fault-injection counters, when a fault plan was active
    /// (`None` for clean runs). Carries the NoC loss counters that pair
    /// with `stats.transport`.
    pub faults: Option<FaultStats>,
}

/// Runs `kernel` under `cfg` and estimates its energy.
///
/// # Panics
///
/// Panics if the simulation hits its cycle limit (a protocol deadlock —
/// should never happen).
#[must_use]
pub fn run_kernel(kernel: &dyn Kernel, cfg: GpuConfig) -> RunOutcome {
    let mut sim = GpuSim::new(cfg);
    let report = sim
        .run_kernel(kernel)
        .unwrap_or_else(|e| panic!("{} deadlocked: {e}", kernel.name()));
    let energy = EnergyModel::new(EnergyParams::default()).estimate(&report.stats);
    let faults = sim.fault_stats();
    RunOutcome {
        stats: report.stats,
        energy,
        violations: report.violations.len(),
        faults,
    }
}

/// Runs `benchmark` under a protocol/consistency pair on the paper
/// platform.
#[must_use]
pub fn run_benchmark(
    benchmark: Benchmark,
    protocol: ProtocolKind,
    consistency: ConsistencyModel,
    scale: Scale,
) -> RunOutcome {
    let kernel = benchmark.build(scale);
    run_kernel(kernel.as_ref(), config_for(protocol, consistency))
}

/// A simple fixed-width text table (benchmarks × configurations),
/// rendered like the paper's figure data.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    /// Named whole-run counters (insertion-ordered, accumulating), e.g.
    /// the transport/loss bins. Rendered as the JSON `counters` object.
    counters: Vec<(String, u64)>,
    precision: usize,
}

impl Table {
    /// Creates an empty table with the given column headers.
    #[must_use]
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            counters: Vec::new(),
            precision: 3,
        }
    }

    /// Adds `value` to the named whole-run counter (creating it at zero
    /// on first use). Counters keep their first-insertion order so the
    /// JSON schema stays byte-stable across runs.
    pub fn counter(&mut self, name: &str, value: u64) {
        if let Some((_, v)) = self.counters.iter_mut().find(|(n, _)| n == name) {
            *v += value;
        } else {
            self.counters.push((name.to_owned(), value));
        }
    }

    /// Accumulates the reliable-transport and NoC-loss bins of one run
    /// into the table's counters, under the stable `transport.*` names.
    /// Fault-free runs contribute zeros, so the schema is identical
    /// whether or not a storm was active.
    pub fn transport_counters(&mut self, out: &RunOutcome) {
        let f = out.faults.unwrap_or_default();
        self.counter("transport.dropped", f.dropped);
        self.counter("transport.corrupted", f.corrupted);
        let t = &out.stats.transport;
        self.counter("transport.delivered", t.delivered);
        self.counter("transport.retransmits", t.retransmits);
        self.counter("transport.timeouts", t.timeouts);
        self.counter("transport.nacks", t.nacks);
        self.counter("transport.acks", t.acks);
        self.counter("transport.dup_dropped", t.dup_dropped);
        self.counter("transport.max_backoff_hits", t.max_backoff_hits);
        self.counter("transport.flows_reset", t.flows_reset);
        self.counter("transport.bank_recoveries", t.bank_recoveries);
    }

    /// Sets the number of decimals (default 3).
    #[must_use]
    pub fn precision(mut self, p: usize) -> Self {
        self.precision = p;
        self
    }

    /// Appends a row.
    pub fn row(&mut self, name: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((name.to_owned(), values));
    }

    /// Appends a geometric-mean row over all current rows. A column's
    /// mean skips its NaN (not applicable) cells, and is NaN when every
    /// cell is.
    pub fn geomean_row(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        let means: Vec<f64> = (0..self.columns.len())
            .map(|c| {
                let (n, log_sum) = (self.rows.iter().map(|(_, v)| v[c]))
                    .filter(|x| !x.is_nan())
                    .fold((0u32, 0.0), |(n, sum), x| {
                        (n + 1, sum + x.max(f64::MIN_POSITIVE).ln())
                    });
                if n == 0 {
                    f64::NAN
                } else {
                    (log_sum / f64::from(n)).exp()
                }
            })
            .collect();
        self.rows.push(("GEOMEAN".to_owned(), means));
    }

    /// Renders the table as CSV (header row, then one line per benchmark).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bench");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (name, vals) in &self.rows {
            out.push_str(name);
            for v in vals {
                out.push(',');
                if v.is_nan() {
                    out.push_str("NA");
                } else {
                    out.push_str(&format!("{v:.6}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as JSON with a stable schema: `title`,
    /// `columns`, one object per benchmark row mapping each column
    /// label to its value (`null` for NaN/missing cells), and a
    /// `counters` object of whole-run integer bins (always present,
    /// possibly empty; see [`transport_counters`](Table::transport_counters)).
    #[must_use]
    pub fn to_json(&self) -> String {
        use gtsc_trace::json_escape;
        let mut out = String::from("{\"title\":\"");
        out.push_str(&json_escape(&self.title));
        out.push_str("\",\"columns\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(c));
            out.push('"');
        }
        out.push_str("],\"rows\":[");
        for (r, (name, vals)) in self.rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push_str("{\"bench\":\"");
            out.push_str(&json_escape(name));
            out.push('"');
            for (c, v) in self.columns.iter().zip(vals) {
                out.push_str(",\"");
                out.push_str(&json_escape(c));
                out.push_str("\":");
                if v.is_finite() {
                    out.push_str(&format!("{v:.6}"));
                } else {
                    out.push_str("null");
                }
            }
            out.push('}');
        }
        out.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(name));
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("}}\n");
        out
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        out.push_str(&format!("{:<10}", "bench"));
        for c in &self.columns {
            out.push_str(&format!("{c:>12}"));
        }
        out.push('\n');
        for (name, vals) in &self.rows {
            out.push_str(&format!("{name:<10}"));
            for v in vals {
                out.push_str(&format!("{v:>12.prec$}", prec = self.precision));
            }
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_the_figure_bars() {
        let labels: Vec<&str> = paper_configs().iter().map(|c| c.label).collect();
        assert_eq!(
            labels,
            vec!["BL-W/L1", "G-TSC-RC", "G-TSC-SC", "TC-RC", "TC-SC"]
        );
    }

    #[test]
    fn csv_round_trips_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row("x", vec![1.0, f64::NAN]);
        let csv = t.to_csv();
        assert!(csv.starts_with("bench,a,b\n"));
        assert!(csv.contains("x,1.000000,NA"));
    }

    #[test]
    fn json_has_stable_schema_and_null_for_non_finite() {
        let mut t = Table::new("demo \"quoted\"", &["a", "b"]);
        t.row("x", vec![1.0, f64::NAN]);
        let json = t.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains(r#""title":"demo \"quoted\"""#));
        assert!(json.contains(r#""columns":["a","b"]"#));
        assert!(json.contains(r#""bench":"x""#));
        assert!(json.contains(r#""a":1.000000"#));
        assert!(json.contains(r#""b":null"#));
        // `counters` is part of the stable schema even when nothing was
        // recorded, so downstream parsers need no feature detection.
        assert!(json.trim_end().ends_with(r#""counters":{}}"#));
    }

    /// The transport bins: stable names, accumulation across runs, and a
    /// schema that is identical with and without an active fault plan.
    #[test]
    fn transport_counters_have_a_stable_json_schema() {
        use gtsc_types::{FaultConfig, GpuConfig, ProtocolKind};

        let mut t = Table::new("demo", &["a"]);
        t.counter("transport.retransmits", 2);
        t.counter("transport.retransmits", 3);
        assert!(
            t.to_json()
                .contains(r#""counters":{"transport.retransmits":5}"#),
            "counters must accumulate: {}",
            t.to_json()
        );

        let cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_faults(FaultConfig::lossy(11, 50));
        let out = run_kernel(Benchmark::Hs.build(Scale::Tiny).as_ref(), cfg);
        let mut lossy = Table::new("demo", &["a"]);
        lossy.transport_counters(&out);
        let json = lossy.to_json();
        for key in [
            "transport.dropped",
            "transport.corrupted",
            "transport.delivered",
            "transport.retransmits",
            "transport.timeouts",
            "transport.nacks",
            "transport.acks",
            "transport.dup_dropped",
            "transport.max_backoff_hits",
            "transport.flows_reset",
            "transport.bank_recoveries",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":")),
                "missing {key}: {json}"
            );
        }
        assert!(
            out.stats.transport.delivered > 0,
            "lossy run should exercise the transport"
        );

        // A clean run emits the same bins (all zero), so the schema does
        // not depend on whether faults were configured.
        let clean = run_benchmark(
            Benchmark::Hs,
            ProtocolKind::Gtsc,
            ConsistencyModel::Rc,
            Scale::Tiny,
        );
        let mut zeroes = Table::new("demo", &["a"]);
        zeroes.transport_counters(&clean);
        assert!(zeroes.to_json().contains(r#""transport.dropped":0"#));
    }

    #[test]
    fn table_renders_geomean() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row("x", vec![1.0, 4.0]);
        t.row("y", vec![4.0, 1.0]);
        t.geomean_row();
        let s = t.render();
        assert!(s.contains("GEOMEAN"));
        assert!(s.contains("2.000"), "geomean of 1 and 4 is 2: {s}");
    }

    #[test]
    fn geomean_skips_nan_cells() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row("x", vec![f64::NAN, 1.0]);
        t.row("y", vec![1.0, f64::NAN]);
        t.row("z", vec![4.0, f64::NAN]);
        t.row("w", vec![f64::NAN, f64::NAN]);
        let mut all_nan = Table::new("demo", &["a"]);
        all_nan.row("x", vec![f64::NAN]);
        t.geomean_row();
        all_nan.geomean_row();
        let geo = |t: &Table| t.rows.last().unwrap().1.clone();
        assert_eq!(geo(&t), vec![2.0, 1.0], "only the non-NaN cells count");
        assert!(geo(&all_nan)[0].is_nan(), "no cell, no mean");
    }

    #[test]
    fn small_run_produces_stats() {
        let out = run_benchmark(
            Benchmark::Hs,
            ProtocolKind::Gtsc,
            ConsistencyModel::Rc,
            Scale::Tiny,
        );
        assert!(out.stats.cycles.0 > 0);
        assert_eq!(out.violations, 0);
        assert!(out.energy.total_nj() > 0.0);
    }
}
