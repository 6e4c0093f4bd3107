//! Shared experiment plumbing: configuration presets matching the paper's
//! evaluated systems, what a run measured and how it ended — with the
//! post-mortem a fault soak prints for a run that failed — and text-table
//! rendering.

use std::collections::BTreeMap;

use gtsc_check::lint_events;
use gtsc_energy::{EnergyBreakdown, EnergyModel, EnergyParams};
use gtsc_faults::FaultStats;
use gtsc_sim::{RunReport, SimError};
use gtsc_trace::{EventKind, Scope, TraceEvent};
use gtsc_types::{ConsistencyModel, GpuConfig, ProtocolKind, SimStats};

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

/// How a run ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum End {
    /// It completed, and neither the checker nor the trace rules over its
    /// flight-recorder tail found anything.
    #[default]
    Clean,
    /// It completed with a finding: the first checker violation's text,
    /// or else the trace rules' first.
    Violated(String),
    /// It did not complete (a stall, the cycle limit): the error's text.
    Error(String),
}

/// Everything measured from one run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Hardware counters (zero when the run did not complete).
    pub stats: SimStats,
    /// Energy estimate.
    pub energy: EnergyBreakdown,
    /// How the run ended.
    pub end: End,
    /// What a fault soak prints about a run that did not end clean: its
    /// violations or error, the flight-recorder tail and the hotspots.
    /// Empty when it ended clean.
    pub post_mortem: String,
    /// Aggregated fault-injection counters, when a fault plan was active
    /// (`None` for clean runs). Carries the NoC loss counters that pair
    /// with `stats.transport`.
    pub faults: Option<FaultStats>,
}

impl RunOutcome {
    /// The outcome of `run`, its energy estimated. A run that did not end
    /// clean gets its post-mortem: its checker violations, or else a
    /// flagged audit of its flight-recorder tail (read through
    /// `flight_tail`, only when the checker found nothing), with the
    /// hotspots; or the error that stopped it.
    pub(crate) fn new(
        run: Result<RunReport, SimError>,
        faults: Option<FaultStats>,
        flight_tail: impl FnOnce() -> Vec<TraceEvent>,
    ) -> Self {
        let (stats, end, post_mortem) = match run {
            Err(e) => {
                let why = format!("did not complete: {e}");
                (SimStats::default(), End::Error(e.to_string()), why)
            }
            Ok(report) => {
                let finding = match report.violations.first() {
                    None => audit_tail(&flight_tail()).err(),
                    Some(first) => {
                        let n = report.violations.len();
                        let why = format!("{n} violation(s): {:?}", report.violations);
                        Some((first.to_string(), why))
                    }
                };
                match finding {
                    None => (report.stats, End::Clean, String::new()),
                    Some((first, why)) => {
                        let why = why + &hotspots(&report);
                        (report.stats, End::Violated(first), why)
                    }
                }
            }
        };
        let energy = EnergyModel::new(EnergyParams::default()).estimate(&stats);
        RunOutcome {
            stats,
            energy,
            end,
            post_mortem,
            faults,
        }
    }
}

/// Replays a finished run's flight-recorder tail through the offline
/// rule driver. `Ok` carries the number of facts the rules examined (a
/// zero would mean the audit looked at nothing); `Err` says what fired:
/// the first finding, and all of them.
fn audit_tail(tail: &[TraceEvent]) -> Result<u64, (String, String)> {
    let lint = lint_events(tail);
    if lint.is_clean() {
        return Ok(lint.scanned);
    }
    let lines = lint.lines();
    let mut why = format!(
        "trace rules flagged {} distinct finding(s) in the flight-recorder tail:",
        lint.findings.len()
    );
    for l in &lines {
        why.push_str(&format!("\n    {l}"));
    }
    Err((lines.first().cloned().unwrap_or_default(), why))
}

/// What follows a failing run's findings: the last 16 events of its trace
/// tail (which a report carries only with violations), which SM / bank
/// saw the traffic it implicates, and which flows of the tail were hot.
fn hotspots(report: &RunReport) -> String {
    let (stats, tail) = (&report.stats, &report.trace_tail);
    let mut why = String::new();
    let shown = &tail[tail.len().saturating_sub(16)..];
    if !shown.is_empty() {
        why.push_str(&format!("\n  last {} trace events:", shown.len()));
        for e in shown {
            why.push_str(&format!("\n    {e}"));
        }
    }
    let l1: Vec<String> = stats
        .per_l1
        .iter()
        .enumerate()
        .map(|(i, c)| format!("sm{i}={}h/{}e", c.hits, c.expired_misses))
        .collect();
    let l2: Vec<String> = stats
        .per_l2
        .iter()
        .enumerate()
        .map(|(b, c)| format!("bank{b}={}st", c.stores))
        .collect();
    let t = &stats.transport;
    why.push_str(&format!(
        "\n  hotspots: l1 [{}], l2 [{}], transport [{}rtx {}nack {}dup {}reset {}rec]",
        l1.join(" "),
        l2.join(" "),
        t.retransmits,
        t.nacks,
        t.dup_dropped,
        t.flows_reset,
        t.bank_recoveries,
    ));
    if let Some(t) = transport_hotspots(tail) {
        why.push_str(&format!("\n  {t}"));
    }
    why
}

/// (retransmits, NACKs, drops + corruptions) in the flight-recorder tail,
/// per the key `key` gives an event's (scope, src, dst); `None` skips it.
fn tally<K: Ord>(
    tail: &[TraceEvent],
    key: impl Fn(Scope, u16, u16) -> Option<K>,
) -> BTreeMap<K, [u64; 3]> {
    let mut counts = BTreeMap::new();
    for e in tail {
        let (slot, src, dst) = match e.kind {
            EventKind::Retransmit { src, dst, .. } => (0, src, dst),
            EventKind::Nack { src, dst, .. } => (1, src, dst),
            EventKind::PacketDrop { src, dst } | EventKind::PacketCorrupt { src, dst } => {
                (2, src, dst)
            }
            _ => continue,
        };
        if let Some(k) = key(e.scope, src, dst) {
            counts.entry(k).or_insert([0; 3])[slot] += 1;
        }
    }
    counts
}

/// Transport hotspots from the flight-recorder tail: which flows were
/// dropping, NACKing, and retransmitting when the run went wrong. The
/// counter totals say *how much* the transport worked; this says *where*.
fn transport_hotspots(tail: &[TraceEvent]) -> Option<String> {
    let flows = tally(tail, |_, src, dst| Some((src, dst)));
    let is_reset = |e: &&TraceEvent| matches!(e.kind, EventKind::BankReset { .. });
    let resets = tail.iter().filter(is_reset).count();
    if flows.is_empty() && resets == 0 {
        return None;
    }
    let mut items: Vec<_> = flows.into_iter().collect();
    items.sort_by_key(|&(_, [r, n, d])| std::cmp::Reverse(r + n + d));
    let shown: Vec<String> = items
        .iter()
        .take(6)
        .map(|((s, d), [r, n, d2])| format!("{s}->{d}:{r}rtx/{n}nack/{d2}drop"))
        .collect();
    let reset_note = if resets > 0 {
        format!(", {resets} bank reset(s) in tail")
    } else {
        String::new()
    };
    Some(format!(
        "transport tail hotspots: [{}]{reset_note}",
        shown.join(" ")
    ))
}

/// Per-device fabric hotspots from the flight-recorder tail: the up/down
/// fabric nets trace under `Scope::Noc(2N)` / `Scope::Noc(2N + 1)`, with
/// the device index as the up-net source and down-net destination. This
/// answers *which device's link* was dropping and retransmitting when
/// the storm went wrong — the transport totals only say how much.
pub(crate) fn device_fabric_hotspots(tail: &[TraceEvent], n_devices: usize) -> Option<String> {
    let up = Scope::Noc(2 * n_devices as u16);
    let down = Scope::Noc(2 * n_devices as u16 + 1);
    let devs = tally(tail, |scope, src, dst| match scope {
        s if s == up => Some(usize::from(src)),
        s if s == down => Some(usize::from(dst)),
        _ => None,
    });
    let devs: Vec<[u64; 3]> = (0..n_devices)
        .map(|i| devs.get(&i).copied().unwrap_or_default())
        .collect();
    if devs.iter().flatten().all(|&c| c == 0) {
        return None;
    }
    let shown: Vec<String> = devs
        .iter()
        .enumerate()
        .map(|(i, [r, n, d])| format!("dev{i}={r}rtx/{n}nack/{d}drop"))
        .collect();
    Some(format!("fabric hotspots by device: [{}]", shown.join(" ")))
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
    use crate::storm::{contended_atomics, Soak};
    use crate::{RunKey, Workload};
    use gtsc_sim::{GpuSim, MultiGpuSim};
    use gtsc_types::{FaultConfig, MultiGpuConfig, TraceConfig};
    use gtsc_workloads::{micro, Benchmark, Scale};

    /// `b` under a protocol/consistency pair on the paper platform, Tiny.
    fn run_tiny(b: Benchmark, protocol: ProtocolKind, consistency: ConsistencyModel) -> RunOutcome {
        RunKey::new(Workload::Bench(b), config_for(protocol, consistency)).run(Scale::Tiny)
    }

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
        let out = RunKey::new(Workload::Bench(Benchmark::Hs), cfg).run(Scale::Tiny);
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
        let clean = run_tiny(Benchmark::Hs, ProtocolKind::Gtsc, ConsistencyModel::Rc);
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
        let out = run_tiny(Benchmark::Hs, ProtocolKind::Gtsc, ConsistencyModel::Rc);
        assert!(out.stats.cycles.0 > 0);
        assert_eq!(out.end, End::Clean);
        assert!(out.energy.total_nj() > 0.0);
    }

    /// The audit is not vacuous: a clean storm's tail yields facts.
    #[test]
    fn audit_of_a_clean_storm_examines_facts() {
        let soak = Soak {
            drop_rate: Some(10),
            ..Soak::default()
        };
        let key = soak.key(1, &soak.scenarios()[0]);
        let mut sim = GpuSim::new(key.cfg);
        let report = sim
            .run_kernel(&micro::message_passing(3))
            .expect("completes");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report.trace_tail.is_empty(),
            "a clean report carries no tail — the audit must read the sim's"
        );
        let examined = audit_tail(&sim.flight_tail()).expect("clean");
        assert!(examined > 0, "the audit looked at nothing");
    }

    /// Healthy crash recovery comes back clean: a bank records the epoch
    /// it crashed in, then the rollover into the next.
    #[test]
    fn audit_passes_healthy_bank_and_device_crash_storms() {
        for seed in 0..6 {
            let cfg = GpuConfig::test_small()
                .with_protocol(ProtocolKind::Gtsc)
                .with_consistency(ConsistencyModel::Rc)
                .with_faults(FaultConfig::lossy(seed, 10).with_bank_crashes(2, 400))
                .with_trace(TraceConfig::flight());
            let mut sim = GpuSim::new(cfg);
            let report = sim
                .run_kernel(&micro::message_passing(3))
                .expect("completes");
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            let tail = sim.flight_tail();
            assert!(
                tail.iter()
                    .any(|e| matches!(e.kind, EventKind::BankReset { .. })),
                "seed {seed}: no crash reached the tail"
            );
            let examined =
                audit_tail(&tail).unwrap_or_else(|(_, why)| panic!("seed {seed}: {why}"));
            assert!(examined > 0);
        }

        let soak = Soak {
            gpus: Some(2),
            ..Soak::default()
        };
        let sc = soak.scenarios().last().expect("the device-crash storm");
        for seed in 0..6 {
            let key = soak.key(seed, sc);
            let fabric = key.fabric.expect("multi-GPU");
            let mut sim = MultiGpuSim::new(MultiGpuConfig {
                n_devices: fabric.devices,
                gpu: key.cfg,
                fabric: fabric.config,
            });
            let report = sim.run_kernel(&contended_atomics()).expect("completes");
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            let tail = sim.flight_tail();
            assert!(
                tail.iter().any(|e| matches!(
                    (e.scope, e.kind),
                    (Scope::Device(_), EventKind::BankReset { .. })
                )),
                "seed {seed}: no device crash reached the tail"
            );
            let examined =
                audit_tail(&tail).unwrap_or_else(|(_, why)| panic!("seed {seed}: {why}"));
            assert!(examined > 0);
        }
    }
}
