//! The catalog: one row per table, figure, statistic and ablation of the
//! paper's evaluation (Section VI, and the §V design choices).
//!
//! A row names the runs it reads and renders its [`Table`], plus the
//! lines it prints around it, from their outcomes. The `repro` binary
//! runs the union of the selected rows' runs once each
//! ([`Plan`](crate::Plan)) and prints the rows in catalog order.

use gtsc_types::ConsistencyModel::{Rc, Sc};
use gtsc_types::ProtocolKind::{Gtsc, L1NoCoherence, NoL1, Tc, TcWeak};
use gtsc_types::{CombinePolicy, GpuConfig, InclusionPolicy, Lease, NocTopology};
use gtsc_types::{VisibilityPolicy, WarpScheduler};
use gtsc_workloads::Benchmark;

use crate::harness::{config_for, paper_configs, PaperConfig, RunOutcome, Table};
use crate::matrix::{Runs, Workload};

/// One row of the catalog.
pub struct Experiment {
    /// Row name: the `repro` argument and its `results/<name>.txt`.
    pub name: &'static str,
    /// The runs the row reads, at whatever scale the plan runs.
    pub runs: Vec<(Workload, GpuConfig)>,
    /// Renders the row from the plan's outcomes.
    pub render: Box<dyn Fn(&Runs) -> Rendered>,
}

/// What a row produces.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The row's numbers (`--csv` / `--json`).
    pub table: Table,
    /// Everything the row prints.
    pub text: String,
}

/// Every row, in the order `repro all` prints them.
#[must_use]
pub fn catalog() -> Vec<Experiment> {
    vec![
        table1(),
        table2(),
        fig12(),
        fig13(),
        fig14(),
        fig15(),
        fig16(),
        fig17(),
        stats_expiry(),
        ablation_visibility(),
        ablation_combining(),
        ablation_inclusion(),
        ablation_tsbits(),
        ablation_adaptive_lease(),
        ablation_noc(),
        ablation_scheduler(),
    ]
}

/// A row named `name` that reads `runs` and renders with `render`.
fn row(
    name: &'static str,
    runs: Vec<(Workload, GpuConfig)>,
    render: impl Fn(&Runs) -> Rendered + 'static,
) -> Experiment {
    let render = Box::new(render);
    Experiment { name, runs, render }
}

/// Every benchmark of `benches` under every config of `cfgs`.
fn grid(benches: &[Benchmark], cfgs: &[GpuConfig]) -> Vec<(Workload, GpuConfig)> {
    let pairs = |b| cfgs.iter().map(move |c| (Workload::Bench(b), c.clone()));
    benches.iter().flat_map(|&b| pairs(b)).collect()
}

/// G-TSC-RC with one setting changed.
fn gtsc_rc_with(set: impl FnOnce(&mut GpuConfig)) -> GpuConfig {
    let mut cfg = config_for(Gtsc, Rc);
    set(&mut cfg);
    cfg
}

/// Whether a figure plots `system` on `b`: the paper reports `BL-W/L1`
/// only for benchmarks that do not require coherence.
fn plotted(b: Benchmark, system: PaperConfig) -> bool {
    system.protocol != L1NoCoherence || !b.requires_coherence()
}

/// Every paper system each benchmark is plotted under.
fn plotted_runs() -> Vec<(Workload, GpuConfig)> {
    let mut runs = Vec::new();
    for b in Benchmark::all() {
        let systems = paper_configs().into_iter().filter(|&pc| plotted(b, pc));
        runs.extend(systems.map(|pc| (Workload::Bench(b), pc.cfg())));
    }
    runs
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Cycles in millions.
fn mcycles(out: &RunOutcome) -> f64 {
    out.stats.cycles.0 as f64 / 1e6
}

/// A table titled `title`, its `SCALE` replaced by the runs' scale, with
/// one line per benchmark of `benches`: `cells(b)`.
fn per_bench<const N: usize>(
    runs: &Runs,
    title: &str,
    columns: &[&str],
    benches: [Benchmark; N],
    cells: impl Fn(Benchmark) -> Vec<f64>,
) -> Table {
    let scale = format!("{:?}", runs.scale);
    let mut table = Table::new(&title.replace("SCALE", &scale), columns);
    for b in benches {
        table.row(b.name(), cells(b));
    }
    table
}

/// The row's text: its table, then `footer`.
fn rendered(table: Table, footer: &str) -> Rendered {
    let text = format!("{table}\n{footer}");
    Rendered { table, text }
}

/// Table I — contents of requests and responses: which timestamps and
/// whether data each message carries. The field sizes are asserted by
/// `gtsc-protocol`'s `table1_message_fields` test; the table's cells are
/// 1 where a message carries the field.
fn table1() -> Experiment {
    const MESSAGES: [(&str, [u8; 4]); 5] = [
        ("Read/Renewal Requests (BusRd)", [0, 1, 1, 0]),
        ("Write Request (BusWr)", [0, 0, 1, 1]),
        ("Fill Response (BusFill)", [1, 1, 0, 1]),
        ("Renewal Response (BusRnw)", [1, 0, 0, 0]),
        ("Write Acknowledgment (BusWrAck)", [1, 1, 0, 0]),
    ];
    row("table1", Vec::new(), |_| {
        let title = "Table I: contents of requests and responses";
        let mut table = Table::new(title, &["rts", "wts", "warp_ts", "data"]);
        let mut text = format!("\n== {title} ==\n{:<34}", "Message");
        text += &format!("{:>5}{:>5}{:>9}{:>6}\n", "rts", "wts", "warp_ts", "data");
        for (message, has) in MESSAGES {
            let [rts, wts, warp_ts, data] = has.map(|h| if h == 1 { "x" } else { "" });
            text += &format!("{message:<34}{rts:>5}{wts:>5}{warp_ts:>9}{data:>6}\n");
            table.row(message, has.map(f64::from).to_vec());
        }
        text += "(field sizes are asserted by gtsc-protocol's `table1_message_fields` test)\n";
        Rendered { table, text }
    })
}

/// Paper Table II values, in millions of cycles, in `Benchmark::all()`
/// order: (BL on G-TSC sim, BL on TC sim, TC on G-TSC sim, TC on TC sim).
const TABLE2_PAPER: [[f64; 4]; 12] = [
    [0.55, 1.26, 0.84, 1.03],     // BH
    [1.47, 2.99, 1.77, 1.75],     // CC
    [1.63, 5.53, 1.63, 1.44],     // DLP
    [0.85, 1.98, 0.90, 0.77],     // VPR
    [2.00, 4.66, 1.74, 1.62],     // STN
    [0.79, 1.95, 2.32, 1.87],     // BFS
    [13.50, 13.59, 13.50, 13.47], // CCP
    [2.22, 4.89, 2.49, 3.51],     // GE
    [0.22, 0.22, 0.23, 0.23],     // HS
    [28.74, 30.89, 30.78, 34.17], // KM
    [0.84, 1.61, 0.69, 0.58],     // BP
    [6.08, 5.74, 6.14, 5.91],     // SGM
];

/// Table II — absolute execution cycles (in millions) of the baseline
/// (BL = no L1) and TC on our simulator, alongside the paper's published
/// values for both its own simulator and the original TC simulator.
///
/// The paper's columns measured on *the authors' simulators* cannot be
/// regenerated without those artifacts; they are reproduced verbatim as
/// reference. Our columns regenerate the measurable part: BL and TC on
/// this workspace's simulator. Absolute magnitudes differ (our synthetic
/// kernels are smaller than the CUDA originals); the comparison of
/// interest is the BL↔TC relationship per benchmark. Table II's TC
/// column pairs with the paper's default (RC-ish) reporting: TC-Weak.
fn table2() -> Experiment {
    let all = Benchmark::all();
    let cfgs = [config_for(NoL1, Rc), config_for(TcWeak, Rc)];
    row("table2", grid(&all, &cfgs), move |runs| {
        let title = "Table II: absolute execution cycles, millions [SCALE]";
        let columns = [
            "BL(ours)",
            "TC(ours)",
            "BL(paper-G)",
            "BL(paper-T)",
            "TC(paper-G)",
            "TC(paper-T)",
        ];
        let table = per_bench(runs, title, &columns, all, |b| {
            let paper = TABLE2_PAPER[all.iter().position(|&a| a == b).expect("in all()")];
            let ours = cfgs.each_ref().map(|c| mcycles(runs.bench(b, c)));
            ours.into_iter().chain(paper).collect()
        });
        let footer =
            "\nNote: absolute magnitudes differ (synthetic kernels vs CUDA binaries); compare\n\
             the per-benchmark BL:TC ratio against the paper's.\n";
        rendered(table.precision(4), footer)
    })
}

/// Figure 12 — performance of GPU coherence protocols with different
/// memory models.
///
/// Bars: `BL-W/L1` (group B only), `G-TSC-RC`, `G-TSC-SC`, `TC-RC`,
/// `TC-SC`, each normalized to the coherent no-L1 baseline (`BL`):
/// `normalized performance = BL cycles / config cycles` — higher is
/// better, exactly as the paper plots it. The transport/loss bins ride
/// the stable `--json` schema (all zero here: figure runs are fault-free
/// by construction).
fn fig12() -> Experiment {
    let mut needs = grid(&Benchmark::all(), &[config_for(NoL1, Rc)]);
    needs.extend(plotted_runs());
    row("fig12", needs, |runs| {
        let systems = paper_configs();
        let labels = systems.map(|c| c.label);
        let cycles = |b, cfg| runs.bench(b, &cfg).stats.cycles.0 as f64;
        let title = "Figure 12: performance normalized to BL (no-L1), higher is better [SCALE]";
        let mut table = per_bench(runs, title, &labels, Benchmark::all(), |b| {
            let bl = cycles(b, config_for(NoL1, Rc));
            let ratio = |pc: PaperConfig| bl / cycles(b, pc.cfg());
            let cell = |pc| if plotted(b, pc) { ratio(pc) } else { f64::NAN };
            systems.map(cell).to_vec()
        });
        table.geomean_row();
        for (w, cfg) in plotted_runs() {
            table.transport_counters(runs.get(w, &cfg));
        }
        let speedup = Benchmark::group_a()
            .map(|b| cycles(b, config_for(TcWeak, Rc)) / cycles(b, config_for(Gtsc, Rc)));
        let footer = format!(
            "G-TSC-RC speedup over TC-RC on coherence benchmarks (geomean): {:.2}x \
             (paper reports ~1.38x)\n",
            geomean(&speedup)
        );
        rendered(table, &footer)
    })
}

/// BL and the four coherent paper systems (all but `BL-W/L1`) on every
/// benchmark.
fn over_bl_runs() -> Vec<(Workload, GpuConfig)> {
    let [_, coherent @ ..] = paper_configs();
    let mut cfgs = vec![config_for(NoL1, Rc)];
    cfgs.extend(coherent.map(PaperConfig::cfg));
    grid(&Benchmark::all(), &cfgs)
}

/// The four coherent paper systems against BL: one line per benchmark,
/// each cell `cell(run, BL's run)`.
fn over_bl(runs: &Runs, title: &str, cell: impl Fn(&RunOutcome, &RunOutcome) -> f64) -> Table {
    let [_, coherent @ ..] = paper_configs();
    let labels = coherent.map(|c| c.label);
    per_bench(runs, title, &labels, Benchmark::all(), |b| {
        let bl = runs.bench(b, &config_for(NoL1, Rc));
        let cell = |pc: PaperConfig| cell(runs.bench(b, &pc.cfg()), bl);
        coherent.map(cell).to_vec()
    })
}

/// Figure 13 — pipeline stalls due to memory delay, normalized to the
/// no-L1 baseline (lower is better).
///
/// "Stalls due to memory delay" counts warp-cycles waiting on
/// outstanding memory operations *including fences* (a fence waiting on
/// write acks or a GWCT is a memory-delay stall — it is where TC-Weak's
/// write latency surfaces). The paper reports TC incurring ~45% more
/// stalls than G-TSC on the coherence benchmarks. Some compute-bound
/// kernels stall the baseline (almost) never; a ratio against ~0 is
/// meaningless, so those cells are NaN.
fn fig13() -> Experiment {
    row("fig13", over_bl_runs(), |runs| {
        let stalls =
            |o: &RunOutcome| o.stats.sm.memory_stall_cycles + o.stats.sm.fence_stall_cycles;
        let title =
            "Figure 13: memory-delay pipeline stalls normalized to BL, lower is better [SCALE]";
        let table = over_bl(runs, title, |out, bl| {
            let base = stalls(bl) as f64;
            if base >= 1000.0 {
                stalls(out) as f64 / base
            } else {
                f64::NAN
            }
        });
        let stalls_under = |b, p| stalls(runs.bench(b, &config_for(p, Rc))).max(1) as f64;
        let tc_over_gtsc =
            Benchmark::all().map(|b| stalls_under(b, TcWeak) / stalls_under(b, Gtsc));
        let footer = format!(
            "(NaN rows: the baseline barely stalls there, so the ratio is undefined)\n\
             TC-RC memory stalls relative to G-TSC-RC (geomean): {:.2}x \
             (paper: TC has ~1.45x the stalls of G-TSC)\n",
            geomean(&tc_over_gtsc)
        );
        rendered(table, &footer)
    })
}

/// Figure 14 — performance of G-TSC-RC with different lease values.
///
/// The paper sweeps leases of 8–20 and finds performance unchanged,
/// because the lease is *logical*: our implementation is in fact exactly
/// scale-invariant in the lease (all timestamp updates are max/+lease
/// compositions), so the rows come out identical — a stronger version of
/// the paper's insensitivity claim. The sweep includes 32 and 64 to show
/// the flatness extends beyond the paper's range. A benchmark whose
/// cycles spread over 2 % across leases is noted above the table.
fn fig14() -> Experiment {
    let leases = [8, 10, 12, 16, 20, 32, 64];
    let cfgs = leases.map(|l| config_for(Gtsc, Rc).with_lease(Lease(l)));
    let needs = grid(&Benchmark::group_a(), &cfgs);
    row("fig14", needs, move |runs| {
        let labels = leases.map(|l| format!("lease={l}"));
        let labels = labels.each_ref().map(String::as_str);
        let cycles = |b| cfgs.each_ref().map(|c| mcycles(runs.bench(b, c)));
        let title = "Figure 14: G-TSC-RC cycles (millions) vs lease [SCALE]";
        let group_a = Benchmark::group_a();
        let table = per_bench(runs, title, &labels, group_a, |b| cycles(b).into());
        let mut text = String::new();
        for b in group_a {
            let row = cycles(b);
            let spread =
                row.into_iter().fold(f64::MIN, f64::max) / row.into_iter().fold(f64::MAX, f64::min);
            if spread > 1.02 {
                let pct = (spread - 1.0) * 100.0;
                text += &format!("note: {} varies {pct:.1}% across leases\n", b.name());
            }
        }
        let table = table.precision(4);
        text += &format!(
            "{table}\nG-TSC is insensitive to the lease value (paper: unchanged over 8-20).\n"
        );
        Rendered { table, text }
    })
}

/// Figure 15 — NoC traffic (flits) normalized to the no-L1 baseline
/// (lower is better).
///
/// The paper reports G-TSC reducing traffic by ~20% vs TC with RC (and
/// 15.7% with SC) on the coherence benchmarks, chiefly because renewal
/// responses carry no data.
fn fig15() -> Experiment {
    row("fig15", over_bl_runs(), |runs| {
        let flits = |o: &RunOutcome| o.stats.noc.flits as f64;
        let title = "Figure 15: NoC flits normalized to BL, lower is better [SCALE]";
        let mut table = over_bl(runs, title, |out, bl| flits(out) / flits(bl).max(1.0));
        table.geomean_row();
        let gtsc_over_tc = |model, tc| {
            let flits_under = |b, p| flits(runs.bench(b, &config_for(p, model)));
            let ratios = Benchmark::group_a().map(|b| flits_under(b, Gtsc) / flits_under(b, tc));
            (geomean(&ratios) - 1.0) * 100.0
        };
        let footer = format!(
            "G-TSC traffic relative to TC on coherence benchmarks: RC {:.0}% (paper: -20%), \
             SC {:.0}% (paper: -15.7%)\n",
            gtsc_over_tc(Rc, TcWeak),
            gtsc_over_tc(Sc, Tc),
        );
        rendered(table, &footer)
    })
}

/// Figure 16 — total energy consumption, normalized to the no-L1
/// baseline (lower is better).
///
/// The paper reports G-TSC consuming ~11% less energy than TC with RC on
/// the coherence benchmarks, and notes SC can consume *less* energy than
/// RC on some benchmarks despite (or because of) its serialization —
/// idle cores burn only static power.
fn fig16() -> Experiment {
    row("fig16", over_bl_runs(), |runs| {
        let energy = |o: &RunOutcome| o.energy.total_nj();
        let title = "Figure 16: total energy normalized to BL, lower is better [SCALE]";
        let mut table = over_bl(runs, title, |out, bl| energy(out) / energy(bl));
        table.geomean_row();
        let energy_under = |b, p| energy(runs.bench(b, &config_for(p, Rc)));
        let gtsc_over_tc =
            Benchmark::group_a().map(|b| energy_under(b, Gtsc) / energy_under(b, TcWeak));
        let footer = format!(
            "G-TSC-RC energy relative to TC-RC on coherence benchmarks: {:.0}% (paper: -11%)\n",
            (geomean(&gtsc_over_tc) - 1.0) * 100.0
        );
        rendered(table, &footer)
    })
}

/// Figure 17 — L1 cache energy, in (micro)joules, per benchmark and
/// configuration (absolute values; the paper plots joules).
///
/// The paper observes TC consumes slightly less L1 energy than G-TSC
/// (G-TSC probes the L1 on renewals and keeps more accesses on-chip).
fn fig17() -> Experiment {
    row("fig17", plotted_runs(), |runs| {
        let systems = paper_configs();
        let labels = systems.map(|c| c.label);
        let title = "Figure 17: L1 energy in microjoules [SCALE]";
        let table = per_bench(runs, title, &labels, Benchmark::all(), |b| {
            let l1_uj = |pc: PaperConfig| runs.bench(b, &pc.cfg()).energy.l1_nj * 1e-3;
            let cell = |pc| if plotted(b, pc) { l1_uj(pc) } else { f64::NAN };
            systems.map(cell).to_vec()
        });
        let footer = "(the no-L1 baseline has zero L1 energy by construction and is omitted)\n";
        rendered(table.precision(4), footer)
    })
}

/// Section VI-E statistic — L1 misses caused by lease expiration,
/// G-TSC vs TC.
///
/// The paper: "the number of misses due to lease expiration has dropped
/// by around 48%" (G-TSC relative to TC), because logical time rolls
/// slower than physical time for load-dominated kernels. The group-A
/// table is followed by that regime itself:
/// [`load_dominated`](crate::matrix::load_dominated).
fn stats_expiry() -> Experiment {
    let cfgs = [config_for(Gtsc, Rc), config_for(TcWeak, Rc)];
    let mut needs = grid(&Benchmark::group_a(), &cfgs);
    needs.extend(cfgs.clone().map(|c| (Workload::LoadDominated, c)));
    row("stats_expiry", needs, move |runs| {
        let misses = |o: &RunOutcome| o.stats.l1.expired_misses;
        let expired = |w| cfgs.each_ref().map(|c| misses(runs.get(w, c)));
        let title = "§VI-E: L1 lease-expiration (coherence) misses [SCALE]";
        let columns = ["G-TSC-RC", "TC-RC", "G-TSC/TC"];
        let mut table = per_bench(runs, title, &columns, Benchmark::group_a(), |b| {
            let [ge, te] = expired(Workload::Bench(b)).map(|e| e as f64);
            vec![ge, te.max(1.0), ge / te.max(1.0)]
        });
        table.geomean_row();
        let ratios = Benchmark::group_a().map(|b| {
            let [ge, te] = expired(Workload::Bench(b)).map(|e| e.max(1) as f64);
            ge / te
        });
        let [g, t] = expired(Workload::LoadDominated);
        let footer = format!(
            "G-TSC expiration misses vs TC across group A (geomean): {:+.0}%  (paper: about -48%)\n\
             NOTE: our group-A generators are more atomic-intensive than the CUDA\n\
             originals appear to be; every atomic advances logical time, which costs\n\
             G-TSC expirations. §VI-E's mechanism concerns *load-dominated* kernels —\n\
             demonstrated directly below.\n\
             \n\
             load-dominated sharing kernel: G-TSC expiry misses = {g}, TC = {t} ({:+.0}%)\n\
             — logical time barely advances between rare writes, so G-TSC's leases\n\
             effectively never expire, while TC self-invalidates every {} cycles.\n",
            (geomean(&ratios) - 1.0) * 100.0,
            (g as f64 / t.max(1) as f64 - 1.0) * 100.0,
            cfgs[1].tc_lease_cycles
        );
        rendered(table, &footer)
    })
}

/// Ablation of Section V-A — update-visibility policy.
///
/// Option 1 (**block the line** until the store ack arrives) versus
/// option 2 (**keep a dual copy** so other warps read the old data
/// meanwhile). The paper evaluated both and found option 1's overhead
/// negligible, avoiding option 2's hardware cost — this row checks that
/// conclusion holds in this reproduction.
fn ablation_visibility() -> Experiment {
    let policies = [VisibilityPolicy::BlockLine, VisibilityPolicy::DualCopy];
    let cfgs = policies.map(|v| gtsc_rc_with(|c| c.visibility = v));
    let needs = grid(&Benchmark::group_a(), &cfgs);
    row("ablation_visibility", needs, move |runs| {
        let title = "§V-A ablation: G-TSC-RC cycles (millions), block-line vs dual-copy [SCALE]";
        let columns = ["BlockLine", "DualCopy", "DualCopy/Block"];
        let table = per_bench(runs, title, &columns, Benchmark::group_a(), |b| {
            let cycles = |c| runs.bench(b, c).stats.cycles.0 as f64;
            let [block, dual] = cfgs.each_ref().map(cycles);
            vec![block / 1e6, dual / 1e6, dual / block]
        });
        let footer = "Paper conclusion: option 1 (block line) gives the better trade-off — the\n\
                      performance difference is negligible, so the dual-copy hardware is not \
                      worth it.\n";
        rendered(table.precision(4), footer)
    })
}

/// Ablation of Section V-B — request combining.
///
/// Keeping replicated reads merged in the MSHR (sending renewals when the
/// returned lease misses a waiter) versus forwarding every request to the
/// L2. The paper: forwarding all requests raises memory requests by
/// 12–35%; they chose merging. Requests are L2 accesses.
fn ablation_combining() -> Experiment {
    let policies = [CombinePolicy::MergeInMshr, CombinePolicy::ForwardAll];
    let cfgs = policies.map(|p| gtsc_rc_with(|c| c.combine = p));
    let needs = grid(&Benchmark::group_a(), &cfgs);
    row("ablation_combining", needs, move |runs| {
        let title = "§V-B ablation: G-TSC-RC, merge-in-MSHR vs forward-all [SCALE] \
                     (cycles in millions; requests = L2 accesses)";
        let columns = ["cyc merge", "cyc fwd", "req merge", "req fwd", "req ratio"];
        let outs = |b| cfgs.each_ref().map(|c| runs.bench(b, c));
        let requests = |b| outs(b).map(|o| o.stats.l2.accesses as f64);
        let table = per_bench(runs, title, &columns, Benchmark::group_a(), |b| {
            let (cycles, [merge, fwd]) = (outs(b).map(mcycles), requests(b));
            vec![cycles[0], cycles[1], merge, fwd, fwd / merge]
        });
        let increase = Benchmark::group_a().map(|b| requests(b)[1] / requests(b)[0]);
        let footer = format!(
            "Forward-all sends {:.0}% more memory requests (paper: +12%..+35%).\n",
            (geomean(&increase) - 1.0) * 100.0
        );
        rendered(table, &footer)
    })
}

/// Ablation of Section V-C — non-inclusive vs inclusive L2 under G-TSC.
///
/// G-TSC supports non-inclusion via the single `mem_ts` per bank
/// (evictions fold their lease into it). An inclusive hierarchy would
/// instead have to recall every private copy on eviction; this ablation
/// runs G-TSC with such recalls to expose the traffic inclusion would
/// cost. (TC has no choice: it must be inclusive, and additionally stalls
/// replacement on live victims — measured by TC-SC's column.)
fn ablation_inclusion() -> Experiment {
    let policies = [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive];
    let [non_inc, inc] = policies.map(|p| gtsc_rc_with(|c| c.inclusion = p));
    let cfgs = [non_inc, inc, config_for(Tc, Sc)];
    let needs = grid(&Benchmark::all(), &cfgs);
    row("ablation_inclusion", needs, move |runs| {
        let title = "§V-C ablation: G-TSC-RC non-inclusive vs inclusive (recalls) [SCALE] \
                     (cycles millions; flits thousands; TC eviction-stall cycles)";
        let columns = [
            "cyc non-inc",
            "cyc inc",
            "flits non-inc",
            "flits inc",
            "TC evict-stall",
        ];
        let table = per_bench(runs, title, &columns, Benchmark::all(), |b| {
            let [non_inc, inc, tc] = cfgs.each_ref().map(|c| runs.bench(b, c));
            let cycles = [non_inc, inc].map(mcycles);
            let flits = [non_inc, inc].map(|o| o.stats.noc.flits as f64 / 1e3);
            let tc_stall = tc.stats.l2.eviction_stall_cycles as f64;
            vec![cycles[0], cycles[1], flits[0], flits[1], tc_stall]
        });
        let footer = "Non-inclusion is free for G-TSC (mem_ts); inclusion adds recall traffic.\n\
                      TC's inclusive L2 additionally stalls replacement while victims hold live \
                      leases.\n";
        rendered(table, footer)
    })
}

/// Ablation of Section V-D — hardware timestamp width and rollover cost.
///
/// The paper uses 16-bit timestamps and argues wrap-around is rare enough
/// for the reset protocol (flush L1s, rebase L2 leases) to be cheap. This
/// ablation shrinks the width until rollovers become frequent, showing
/// the protocol stays *correct* (checker-clean) and measuring the cost.
fn ablation_tsbits() -> Experiment {
    let widths = [8, 10, 12, 16];
    let cfgs = widths.map(|w| gtsc_rc_with(|c| c.ts_bits = w));
    let needs = grid(&Benchmark::group_a(), &cfgs);
    row("ablation_tsbits", needs, move |runs| {
        let labels = widths.map(|w| [format!("cyc@{w}b"), format!("resets@{w}b")]);
        let labels: Vec<&str> = labels.iter().flatten().map(String::as_str).collect();
        let title = "§V-D ablation: G-TSC-RC vs timestamp width (cycles in millions) [SCALE]";
        let table = per_bench(runs, title, &labels, Benchmark::group_a(), |b| {
            let cells = |o: &RunOutcome| [mcycles(o), o.stats.l2.ts_rollovers as f64];
            cfgs.iter().flat_map(|c| cells(runs.bench(b, c))).collect()
        });
        let footer =
            "16-bit timestamps make rollover \"sufficiently rare\" (paper §V-D); the run\n\
             stays coherent even when narrow counters force frequent resets.\n";
        rendered(table.precision(4), footer)
    })
}

/// Extension ablation — Tardis-2.0-style adaptive lease prediction.
///
/// Read-mostly blocks that keep renewing earn exponentially longer leases
/// (`lease << streak`, capped at 16x); a store resets the prediction.
/// This should cut renewal traffic on read-heavy sharing workloads
/// without the write-stall penalty longer leases would cost TC.
fn ablation_adaptive_lease() -> Experiment {
    let cfgs = [false, true].map(|a| gtsc_rc_with(|c| c.adaptive_lease = a));
    let needs = grid(&Benchmark::all(), &cfgs);
    row("ablation_adaptive_lease", needs, move |runs| {
        let title = "adaptive-lease ablation: G-TSC-RC fixed vs predicted leases [SCALE] \
                     (cycles millions; renewals thousands)";
        let columns = [
            "cyc fixed",
            "cyc adaptive",
            "rnw fixed",
            "rnw adaptive",
            "rnw ratio",
        ];
        let table = per_bench(runs, title, &columns, Benchmark::all(), |b| {
            let [fixed, adaptive] = cfgs.each_ref().map(|c| runs.bench(b, c));
            let [rnw, rnw_adaptive] = [fixed, adaptive].map(|o| o.stats.l1.renewals as f64 / 1e3);
            let ratio = if rnw > 0.0 { rnw_adaptive / rnw } else { 1.0 };
            vec![mcycles(fixed), mcycles(adaptive), rnw, rnw_adaptive, ratio]
        });
        let footer = "Correctness is checker-verified in both modes; see also the\n\
                      `gtsc_parameters_do_not_change_results` equivalence test.\n";
        rendered(table, footer)
    })
}

/// Extension ablation — interconnect topology and bandwidth sensitivity.
///
/// The paper repeatedly notes the NoC is the GPU's performance bottleneck
/// (Sections II-A, V-B, VI-B). This ablation runs G-TSC-RC and TC-RC on
/// the sharing benchmarks over (a) a crossbar vs a unidirectional ring,
/// and (b) halved injection bandwidth — showing which protocol's traffic
/// pattern is more NoC-sensitive.
fn ablation_noc() -> Experiment {
    let variants = |p| {
        let crossbar = config_for(p, Rc);
        let (mut ring, mut half_bw) = (crossbar.clone(), crossbar.clone());
        ring.noc.topology = NocTopology::Ring { hop_latency: 2 };
        half_bw.noc.flits_per_cycle = 2;
        [crossbar, ring, half_bw]
    };
    let cfgs = [Gtsc, TcWeak].map(variants).concat();
    let needs = grid(&Benchmark::group_a(), &cfgs);
    row("ablation_noc", needs, move |runs| {
        let title =
            "NoC ablation: cycles (millions) under crossbar / ring / half-bandwidth [SCALE]";
        let columns = [
            "GTSC xbar",
            "GTSC ring",
            "GTSC half-bw",
            "TC xbar",
            "TC ring",
            "TC half-bw",
        ];
        let table = per_bench(runs, title, &columns, Benchmark::group_a(), |b| {
            cfgs.iter().map(|c| mcycles(runs.bench(b, c))).collect()
        });
        let footer =
            "Ring adds distance-dependent latency; half bandwidth stresses data traffic.\n\
             TC's full-data refetches suffer more from bandwidth, G-TSC's renewal round\n\
             trips more from latency.\n";
        rendered(table.precision(4), footer)
    })
}

/// Ablation — warp scheduling policy: greedy-then-oldest (GTO, the
/// GPGPU-Sim default) vs loose round-robin, under G-TSC-RC.
///
/// GTO improves intra-warp locality (a warp keeps its own lease-covered
/// lines hot); round-robin interleaves warps finely, spreading accesses.
fn ablation_scheduler() -> Experiment {
    let schedulers = [WarpScheduler::Gto, WarpScheduler::RoundRobin];
    let cfgs = schedulers.map(|s| gtsc_rc_with(|c| c.scheduler = s));
    let needs = grid(&Benchmark::all(), &cfgs);
    row("ablation_scheduler", needs, move |runs| {
        let title = "scheduler ablation: G-TSC-RC cycles (millions), GTO vs round-robin [SCALE]";
        let columns = ["GTO", "RR", "RR/GTO", "L1 hit% GTO", "L1 hit% RR"];
        let table = per_bench(runs, title, &columns, Benchmark::all(), |b| {
            let outs = cfgs.each_ref().map(|c| runs.bench(b, c));
            let [gto, rr] = outs.map(mcycles);
            let [gto_hit, rr_hit] = outs.map(|o| 100.0 * o.stats.l1.hit_rate());
            vec![gto, rr, rr / gto, gto_hit, rr_hit]
        });
        rendered(table, "")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Plan, RunKey};
    use gtsc_workloads::Scale;

    /// Every row's `--json` output has the stable schema, whatever the
    /// row renders: `title`, `columns`, one object per row, `counters`.
    #[test]
    fn every_row_has_the_stable_json_schema() {
        let rows = catalog();
        let runs = Plan::new(&rows.iter().collect::<Vec<_>>(), Scale::Tiny).run(2, RunKey::run);
        for row in &rows {
            let json = (row.render)(&runs).table.to_json();
            let at = |part: &str| {
                json.find(part)
                    .unwrap_or_else(|| panic!("{}: no {part} in {json}", row.name))
            };
            assert!(json.starts_with(r#"{"title":""#), "{}: {json}", row.name);
            assert!(
                at(r#"","columns":[""#) < at(r#"],"rows":[{"bench":""#)
                    && at(r#"],"rows":["#) < at(r#"}],"counters":{"#),
                "{}: {json}",
                row.name
            );
            assert!(json.ends_with("}}\n"), "{}: {json}", row.name);
        }
    }
}
