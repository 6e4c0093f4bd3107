//! Litmus shapes and the checker that runs them.
//!
//! Each [`Litmus`] is a tiny multi-threaded program (the classical
//! shapes: message passing, store buffering, load buffering, coherent
//! read-read, IRIW) plus the outcomes its consistency model forbids.
//! [`run_litmus`] explores **every** schedule of the shape through the
//! real controllers ([`crate::MicroGtsc`], over the memory side the
//! shape's configuration names) and through the reference model
//! ([`crate::SpecMachine`]), then checks:
//!
//! * **soundness** — every implementation outcome is producible by the
//!   reference model (`impl ⊆ spec`);
//! * **forbidden-outcome disjointness** — none of the shape's forbidden
//!   outcomes appears in any schedule;
//! * **required outcomes** — designated outcomes (e.g. the sequential
//!   execution) actually occur, guarding against vacuous passes;
//! * **sanitizer cleanliness** — the online transition sanitizer stayed
//!   silent on every schedule.
//!
//! # Consistency modes
//!
//! Under [`Mode::Sc`] each thread issues in program order (the
//! simulator's SC issue rule: one outstanding access per warp). Under
//! [`Mode::Rc`] relaxed issue is modelled by running every per-thread
//! reordering that respects fences and same-block program order — the
//! reorderings an RC core may perform — and taking the union of
//! outcomes on both the implementation and the reference model. A
//! fenced RC litmus therefore collapses back to its SC schedule set.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gtsc_trace::Finding;

use crate::explore::explore_all;
use crate::harness::{HarnessCfg, MicroGtsc, Topology};
use crate::spec::SpecMachine;

/// One thread operation in a litmus program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load from `block`; the observed store label is recorded under
    /// `id` (unique across the whole litmus).
    Load {
        /// Outcome key for this load.
        id: u32,
        /// Block read.
        block: u64,
    },
    /// Store `label` to `block` (labels are unique and nonzero; `0` is
    /// the initial contents of every block).
    Store {
        /// Block written.
        block: u64,
        /// The value, for outcome reporting.
        label: u32,
    },
    /// Ordering fence: under [`Mode::Rc`], ops never reorder across it.
    Fence,
}

/// An observed execution: load id → store label (0 = initial value).
pub type Outcome = BTreeMap<u32, u32>;

/// A named predicate over an [`Outcome`].
pub type OutcomePred = (&'static str, fn(&Outcome) -> bool);

/// Issue model to check a litmus under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Sequential consistency: program order, one outstanding access.
    Sc,
    /// Release consistency: fence-respecting per-thread reorderings.
    Rc,
}

/// A litmus shape.
///
/// Each thread is pinned to a device: device 0 everywhere for the
/// on-die shapes, and spread over the devices of the inter-GPU fabric
/// for the cross-device ones (`x…`), whose nondeterminism under test is
/// the home's serialization of cross-device traffic. The reference model
/// stays the *flat* [`SpecMachine`] either way — hierarchical delegation
/// must not admit any outcome the single-level timestamp rules forbid,
/// so `impl ⊆ spec` is checked against the flat model with
/// [`HarnessCfg::spec_lease`].
#[derive(Debug, Clone)]
pub struct Litmus {
    /// Shape name (e.g. `mp-sc`, `xmp-sc`).
    pub name: &'static str,
    /// One `(device, program)` pair per thread.
    pub threads: Vec<(u16, Vec<Op>)>,
    /// Issue model.
    pub mode: Mode,
    /// Harness configuration (topology, leases, timestamp width, crash).
    pub cfg: HarnessCfg,
    /// Outcomes that must never appear.
    pub forbidden: Vec<OutcomePred>,
    /// Outcomes that must appear in the implementation's explored set.
    pub required: Vec<OutcomePred>,
}

/// The result of checking one litmus.
#[derive(Debug, Clone)]
pub struct LitmusRun {
    /// Shape name.
    pub name: &'static str,
    /// Distinct implementation outcomes over all schedules.
    pub impl_outcomes: BTreeSet<Outcome>,
    /// Distinct reference-model outcomes over all schedules.
    pub spec_outcomes: BTreeSet<Outcome>,
    /// Implementation schedules executed.
    pub schedules: u64,
    /// Reference-model schedules executed.
    pub spec_schedules: u64,
    /// Whether either exploration hit the schedule cap.
    pub truncated: bool,
    /// Implementation outcomes the reference model cannot produce.
    pub unexplained: Vec<Outcome>,
    /// `(predicate name, outcome)` for forbidden outcomes that appeared.
    pub forbidden_hits: Vec<(&'static str, Outcome)>,
    /// Names of required outcomes that never appeared.
    pub missing_required: Vec<&'static str>,
    /// Sanitizer findings from any schedule (deduplicated).
    pub sanitizer_violations: Vec<Finding>,
    /// Race-oracle findings from any schedule (deduplicated).
    pub race_findings: Vec<Finding>,
}

impl LitmusRun {
    /// Whether every check passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        !self.truncated
            && self.unexplained.is_empty()
            && self.forbidden_hits.is_empty()
            && self.missing_required.is_empty()
            && self.sanitizer_violations.is_empty()
            && self.race_findings.is_empty()
    }

    /// A one-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{:18} {:4} impl schedules, {:4} spec, {:2} outcomes ⊆ {:2} … {}",
            self.name,
            self.schedules,
            self.spec_schedules,
            self.impl_outcomes.len(),
            self.spec_outcomes.len(),
            if self.ok() { "ok" } else { "FAIL" }
        )
    }
}

/// Every fence-respecting order of one segment that preserves the
/// relative order of same-block ops (per-block coherence is kept even
/// by relaxed GPU cores: accesses to one address from one thread stay
/// ordered).
fn segment_orders(seg: &[Op]) -> Vec<Vec<Op>> {
    // One FIFO per block, in first-touch order.
    let mut queues: Vec<VecDeque<Op>> = Vec::new();
    let mut block_of: Vec<u64> = Vec::new();
    for op in seg {
        let b = match op {
            Op::Load { block, .. } | Op::Store { block, .. } => *block,
            Op::Fence => unreachable!("segments are fence-free"),
        };
        if let Some(i) = block_of.iter().position(|&x| x == b) {
            queues[i].push_back(*op);
        } else {
            block_of.push(b);
            queues.push(VecDeque::from([*op]));
        }
    }
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(seg.len());
    fn rec(queues: &mut [VecDeque<Op>], cur: &mut Vec<Op>, out: &mut Vec<Vec<Op>>) {
        let mut advanced = false;
        for i in 0..queues.len() {
            if let Some(op) = queues[i].pop_front() {
                advanced = true;
                cur.push(op);
                rec(queues, cur, out);
                cur.pop();
                queues[i].push_front(op);
            }
        }
        if !advanced {
            out.push(cur.clone());
        }
    }
    rec(&mut queues, &mut cur, &mut out);
    out
}

/// All per-thread issue orders allowed by `mode`: the program itself
/// under SC; under RC, the cross product of each fence-delimited
/// segment's same-block-preserving permutations.
fn thread_orders(prog: &[Op], mode: Mode) -> Vec<Vec<Op>> {
    if mode == Mode::Sc {
        return vec![prog.to_vec()];
    }
    let mut segments: Vec<Vec<Op>> = vec![Vec::new()];
    for op in prog {
        if matches!(op, Op::Fence) {
            segments.push(Vec::new());
        } else if let Some(last) = segments.last_mut() {
            last.push(*op);
        }
    }
    let mut orders: Vec<Vec<Op>> = vec![Vec::new()];
    for seg in &segments {
        let seg_orders = segment_orders(seg);
        let mut next = Vec::with_capacity(orders.len() * seg_orders.len());
        for prefix in &orders {
            for so in &seg_orders {
                let mut p = prefix.clone();
                p.extend_from_slice(so);
                next.push(p);
            }
        }
        orders = next;
    }
    orders
}

/// Explores every schedule of every allowed issue order of `l`, on the
/// implementation and the reference model, and evaluates all checks.
/// `max_schedules` bounds each exploration (per issue-order combination).
#[must_use]
pub fn run_litmus(l: &Litmus, max_schedules: u64) -> LitmusRun {
    // Cross product of per-thread issue orders.
    let per_thread: Vec<Vec<Vec<Op>>> = l
        .threads
        .iter()
        .map(|(_, p)| thread_orders(p, l.mode))
        .collect();
    let mut combos: Vec<Vec<Vec<Op>>> = vec![Vec::new()];
    for orders in &per_thread {
        let mut next = Vec::with_capacity(combos.len() * orders.len());
        for prefix in &combos {
            for o in orders {
                let mut c = prefix.clone();
                c.push(o.clone());
                next.push(c);
            }
        }
        combos = next;
    }

    let mut impl_outcomes = BTreeSet::new();
    let mut spec_outcomes = BTreeSet::new();
    let mut sanitizer_violations = BTreeSet::new();
    let mut race_findings = BTreeSet::new();
    let mut schedules = 0;
    let mut spec_schedules = 0;
    let mut truncated = false;
    for programs in &combos {
        let placed: Vec<(u16, Vec<Op>)> = l
            .threads
            .iter()
            .zip(programs)
            .map(|((device, _), p)| (*device, p.clone()))
            .collect();
        let r = explore_all(|| MicroGtsc::new(&placed, l.cfg), max_schedules);
        truncated |= r.truncated;
        schedules += r.schedules;
        for (obs, violations, races) in r.outcomes {
            impl_outcomes.insert(obs);
            sanitizer_violations.extend(violations);
            race_findings.extend(races);
        }
        let s = explore_all(
            || SpecMachine::new(programs, l.cfg.spec_lease()),
            max_schedules,
        );
        truncated |= s.truncated;
        spec_schedules += s.schedules;
        spec_outcomes.extend(s.outcomes);
    }

    let unexplained: Vec<Outcome> = impl_outcomes.difference(&spec_outcomes).cloned().collect();
    let mut forbidden_hits = Vec::new();
    for (name, pred) in &l.forbidden {
        for o in &impl_outcomes {
            if pred(o) {
                forbidden_hits.push((*name, o.clone()));
            }
        }
    }
    let missing_required: Vec<&'static str> = l
        .required
        .iter()
        .filter(|(_, pred)| !impl_outcomes.iter().any(pred))
        .map(|(name, _)| *name)
        .collect();
    LitmusRun {
        name: l.name,
        impl_outcomes,
        spec_outcomes,
        schedules,
        spec_schedules,
        truncated,
        unexplained,
        forbidden_hits,
        missing_required,
        sanitizer_violations: sanitizer_violations.into_iter().collect(),
        race_findings: race_findings.into_iter().collect(),
    }
}

fn ld(id: u32, block: u64) -> Op {
    Op::Load { id, block }
}
fn st(block: u64, label: u32) -> Op {
    Op::Store { block, label }
}

/// Places every program on device 0 — the placement of every on-die
/// shape.
#[must_use]
pub fn on_die<const N: usize>(programs: [Vec<Op>; N]) -> Vec<(u16, Vec<Op>)> {
    programs.into_iter().map(|p| (0, p)).collect()
}

/// Message passing: T0 stores data (x=1) then flag (y=2); T1 loads flag
/// then data. Seeing the flag without the data is forbidden under SC.
#[must_use]
pub fn mp_sc() -> Litmus {
    Litmus {
        name: "mp-sc",
        threads: on_die([vec![st(0, 1), st(1, 2)], vec![ld(10, 1), ld(11, 0)]]),
        mode: Mode::Sc,
        cfg: HarnessCfg::default(),
        forbidden: vec![("flag-without-data", |o| o[&10] == 2 && o[&11] == 0)],
        required: vec![
            ("sequential", |o| o[&10] == 2 && o[&11] == 1),
            ("both-early", |o| o[&10] == 0 && o[&11] == 0),
        ],
    }
}

/// Message passing with fences under RC: the fence restores the SC
/// guarantee.
#[must_use]
pub fn mp_rc_fenced() -> Litmus {
    Litmus {
        name: "mp-rc-fenced",
        threads: on_die([
            vec![st(0, 1), Op::Fence, st(1, 2)],
            vec![ld(10, 1), Op::Fence, ld(11, 0)],
        ]),
        mode: Mode::Rc,
        cfg: HarnessCfg::default(),
        forbidden: vec![("flag-without-data", |o| o[&10] == 2 && o[&11] == 0)],
        required: vec![("sequential", |o| o[&10] == 2 && o[&11] == 1)],
    }
}

/// Message passing without fences under RC: the relaxed reordering must
/// actually be observable (otherwise the RC model is vacuously strong).
#[must_use]
pub fn mp_rc_relaxed() -> Litmus {
    Litmus {
        name: "mp-rc-relaxed",
        threads: on_die([vec![st(0, 1), st(1, 2)], vec![ld(10, 1), ld(11, 0)]]),
        mode: Mode::Rc,
        cfg: HarnessCfg::default(),
        forbidden: vec![],
        required: vec![
            ("sequential", |o| o[&10] == 2 && o[&11] == 1),
            ("relaxed-reorder", |o| o[&10] == 2 && o[&11] == 0),
        ],
    }
}

/// Store buffering: both threads store then load the other's block.
/// Both loads returning the initial value is forbidden under SC.
#[must_use]
pub fn sb_sc() -> Litmus {
    Litmus {
        name: "sb-sc",
        threads: on_die([vec![st(0, 1), ld(20, 1)], vec![st(1, 2), ld(21, 0)]]),
        mode: Mode::Sc,
        cfg: HarnessCfg::default(),
        forbidden: vec![("both-zero", |o| o[&20] == 0 && o[&21] == 0)],
        required: vec![("one-sided", |o| o[&20] == 2 || o[&21] == 1)],
    }
}

/// Store buffering under relaxed RC: both-zero becomes observable.
#[must_use]
pub fn sb_rc_relaxed() -> Litmus {
    Litmus {
        name: "sb-rc-relaxed",
        threads: on_die([vec![st(0, 1), ld(20, 1)], vec![st(1, 2), ld(21, 0)]]),
        mode: Mode::Rc,
        cfg: HarnessCfg::default(),
        forbidden: vec![],
        required: vec![("both-zero", |o| o[&20] == 0 && o[&21] == 0)],
    }
}

/// Load buffering: loads first, stores to the other block after. Both
/// loads seeing the other thread's (later) store is forbidden under SC.
#[must_use]
pub fn lb_sc() -> Litmus {
    Litmus {
        name: "lb-sc",
        threads: on_die([vec![ld(30, 0), st(1, 3)], vec![ld(31, 1), st(0, 4)]]),
        mode: Mode::Sc,
        cfg: HarnessCfg::default(),
        forbidden: vec![("both-late", |o| o[&30] == 4 && o[&31] == 3)],
        required: vec![("both-zero", |o| o[&30] == 0 && o[&31] == 0)],
    }
}

/// Coherent read-read: two stores to one block; a reader must never
/// observe them moving backwards, in any mode (same-block order is kept
/// even under RC).
#[must_use]
pub fn corr_rc() -> Litmus {
    fn rank(label: u32) -> u32 {
        match label {
            0 => 0,
            5 => 1,
            6 => 2,
            _ => unreachable!("corr labels are 0/5/6"),
        }
    }
    Litmus {
        name: "corr-rc",
        threads: on_die([vec![st(0, 5), st(0, 6)], vec![ld(40, 0), ld(41, 0)]]),
        mode: Mode::Rc,
        cfg: HarnessCfg::default(),
        forbidden: vec![("read-backwards", |o| rank(o[&41]) < rank(o[&40]))],
        required: vec![
            ("final", |o| o[&40] == 6 && o[&41] == 6),
            ("initial", |o| o[&40] == 0 && o[&41] == 0),
        ],
    }
}

/// IRIW: two writers to independent blocks, two readers observing them
/// in opposite orders. Disagreement on the store order is forbidden
/// under SC. The largest shape in the suite (multinomial(1,1,2,2) = 180
/// base schedules plus renewal-retry branching).
#[must_use]
pub fn iriw_sc() -> Litmus {
    Litmus {
        name: "iriw-sc",
        threads: on_die([
            vec![st(0, 7)],
            vec![st(1, 8)],
            vec![ld(50, 0), ld(51, 1)],
            vec![ld(52, 1), ld(53, 0)],
        ]),
        mode: Mode::Sc,
        cfg: HarnessCfg::default(),
        forbidden: vec![("readers-disagree", |o| {
            o[&50] == 7 && o[&51] == 0 && o[&52] == 8 && o[&53] == 0
        })],
        required: vec![("sequential", |o| {
            o[&50] == 7 && o[&51] == 8 && o[&52] == 8 && o[&53] == 7
        })],
    }
}

/// Message passing across timestamp rollover: a 4-bit timestamp space
/// with the default lease forces a Section V-D reset on the very first
/// store, on every schedule. The reference model never rolls over, so
/// `impl ⊆ spec` proves the reset cannot manufacture new outcomes.
#[must_use]
pub fn mp_rollover_sc() -> Litmus {
    Litmus {
        name: "mp-rollover-sc",
        threads: on_die([vec![st(0, 1), st(1, 2)], vec![ld(10, 1), ld(11, 0)]]),
        mode: Mode::Sc,
        cfg: HarnessCfg {
            lease: 10,
            ts_bits: 4,
            ..HarnessCfg::default()
        },
        forbidden: vec![("flag-without-data", |o| o[&10] == 2 && o[&11] == 0)],
        required: vec![("sequential", |o| o[&10] == 2 && o[&11] == 1)],
    }
}

/// Coherent read-read across repeated rollovers: four stores with a
/// 5-bit timestamp space reset the bank several times mid-run; reads
/// must still never move backwards.
#[must_use]
pub fn corr_rollover_sc() -> Litmus {
    fn rank(label: u32) -> u32 {
        match label {
            0 => 0,
            5 => 1,
            6 => 2,
            7 => 3,
            8 => 4,
            _ => unreachable!("corr-rollover labels are 0/5/6/7/8"),
        }
    }
    Litmus {
        name: "corr-rollover-sc",
        threads: on_die([
            vec![st(0, 5), st(0, 6), st(0, 7), st(0, 8)],
            vec![ld(40, 0), ld(41, 0), ld(42, 0)],
        ]),
        mode: Mode::Sc,
        cfg: HarnessCfg {
            lease: 10,
            ts_bits: 5,
            ..HarnessCfg::default()
        },
        forbidden: vec![("read-backwards", |o| {
            rank(o[&41]) < rank(o[&40]) || rank(o[&42]) < rank(o[&41])
        })],
        required: vec![("final", |o| o[&42] == 8)],
    }
}

/// Message passing across an L2 bank crash: just before the second
/// serve the bank loses its tag array and in-flight state mid-litmus.
/// Recovery (DRAM rebuild behind a global epoch bump) must neither let
/// the forbidden MP outcome through nor manufacture any outcome the
/// never-crashing reference model cannot produce (`impl ⊆ spec` across
/// the reset).
#[must_use]
pub fn mp_bank_crash_sc() -> Litmus {
    Litmus {
        name: "mp-crash-sc",
        threads: on_die([vec![st(0, 1), st(1, 2)], vec![ld(10, 1), ld(11, 0)]]),
        mode: Mode::Sc,
        cfg: HarnessCfg {
            crash_after_serves: Some((2, 0)),
            ..HarnessCfg::default()
        },
        forbidden: vec![("flag-without-data", |o| o[&10] == 2 && o[&11] == 0)],
        required: vec![("sequential", |o| o[&10] == 2 && o[&11] == 1)],
    }
}

/// Coherent read-read across an L2 bank crash: the reader's two loads
/// straddle the reset and must still never observe the two stores
/// moving backwards — the recovered bank serves only versions at least
/// as new as what DRAM durably holds.
#[must_use]
pub fn corr_bank_crash_sc() -> Litmus {
    fn rank(label: u32) -> u32 {
        match label {
            0 => 0,
            5 => 1,
            6 => 2,
            _ => unreachable!("corr-crash labels are 0/5/6"),
        }
    }
    Litmus {
        name: "corr-crash-sc",
        threads: on_die([vec![st(0, 5), st(0, 6)], vec![ld(40, 0), ld(41, 0)]]),
        mode: Mode::Sc,
        cfg: HarnessCfg {
            crash_after_serves: Some((2, 0)),
            ..HarnessCfg::default()
        },
        forbidden: vec![("read-backwards", |o| rank(o[&41]) < rank(o[&40]))],
        required: vec![("final", |o| o[&40] == 6 && o[&41] == 6)],
    }
}

/// Message passing under a retransmit storm: every request reaches the
/// bank twice (an end-to-end retry racing its original), so every ack
/// and fill comes back doubled. The replay filter and waiter
/// bookkeeping must keep the duplicates invisible — same outcome set as
/// plain `mp-sc`.
#[must_use]
pub fn mp_retransmit_storm_sc() -> Litmus {
    Litmus {
        name: "mp-dup-sc",
        threads: on_die([vec![st(0, 1), st(1, 2)], vec![ld(10, 1), ld(11, 0)]]),
        mode: Mode::Sc,
        cfg: HarnessCfg {
            topology: Topology::OnDie {
                duplicate_serves: true,
            },
            ..HarnessCfg::default()
        },
        forbidden: vec![("flag-without-data", |o| o[&10] == 2 && o[&11] == 0)],
        required: vec![
            ("sequential", |o| o[&10] == 2 && o[&11] == 1),
            ("both-early", |o| o[&10] == 0 && o[&11] == 0),
        ],
    }
}

/// Cross-device message passing: the writer's two stores commit at the
/// home via device 0, the reader observes through device 1's grants.
/// Seeing the flag without the data is forbidden — hierarchical leases
/// must keep the SC guarantee across the fabric.
#[must_use]
pub fn xmp_sc() -> Litmus {
    Litmus {
        name: "xmp-sc",
        threads: vec![
            (0, vec![st(0, 1), st(1, 2)]),
            (1, vec![ld(10, 1), ld(11, 0)]),
        ],
        mode: Mode::Sc,
        cfg: HarnessCfg::fabric(),
        forbidden: vec![("flag-without-data", |o| o[&10] == 2 && o[&11] == 0)],
        required: vec![
            ("sequential", |o| o[&10] == 2 && o[&11] == 1),
            ("both-early", |o| o[&10] == 0 && o[&11] == 0),
        ],
    }
}

/// Cross-device store buffering: both devices store their own block and
/// read the other's. Both loads returning the initial value is
/// forbidden under SC even with each thread's traffic flowing through a
/// different device.
#[must_use]
pub fn xsb_sc() -> Litmus {
    Litmus {
        name: "xsb-sc",
        threads: vec![
            (0, vec![st(0, 1), ld(20, 1)]),
            (1, vec![st(1, 2), ld(21, 0)]),
        ],
        mode: Mode::Sc,
        cfg: HarnessCfg::fabric(),
        forbidden: vec![("both-zero", |o| o[&20] == 0 && o[&21] == 0)],
        required: vec![("one-sided", |o| o[&20] == 2 || o[&21] == 1)],
    }
}

/// IRIW across four devices: two writers to independent blocks, two
/// readers observing them in opposite orders, every thread on its own
/// device. Disagreement on the store order is forbidden — the home's
/// timestamp serialization must look like one total order to every
/// device, however grants are delegated.
#[must_use]
pub fn xiriw_sc() -> Litmus {
    Litmus {
        name: "xiriw-sc",
        threads: vec![
            (0, vec![st(0, 7)]),
            (1, vec![st(1, 8)]),
            (2, vec![ld(50, 0), ld(51, 1)]),
            (3, vec![ld(52, 1), ld(53, 0)]),
        ],
        mode: Mode::Sc,
        cfg: HarnessCfg::fabric(),
        forbidden: vec![("readers-disagree", |o| {
            o[&50] == 7 && o[&51] == 0 && o[&52] == 8 && o[&53] == 0
        })],
        required: vec![("sequential", |o| {
            o[&50] == 7 && o[&51] == 8 && o[&52] == 8 && o[&53] == 7
        })],
    }
}

/// Cross-device message passing across a device crash: the writer's
/// device is wiped just before the second serve, so on many schedules
/// its committed stores exist only at the home when the reader arrives.
/// Recovery (global epoch bump + grant reacquisition) must neither let
/// the forbidden MP outcome through nor manufacture any outcome the
/// never-crashing flat model cannot produce.
#[must_use]
pub fn xmp_device_crash_sc() -> Litmus {
    Litmus {
        name: "xmp-crash-sc",
        threads: vec![
            (0, vec![st(0, 1), st(1, 2)]),
            (1, vec![ld(10, 1), ld(11, 0)]),
        ],
        mode: Mode::Sc,
        cfg: HarnessCfg {
            crash_after_serves: Some((2, 0)),
            ..HarnessCfg::fabric()
        },
        forbidden: vec![("flag-without-data", |o| o[&10] == 2 && o[&11] == 0)],
        required: vec![("sequential", |o| o[&10] == 2 && o[&11] == 1)],
    }
}

/// The full suite — the on-die shapes cheapest first, then the
/// cross-device ones likewise (the `model_check` binary and the
/// exhaustive tests both run it).
#[must_use]
pub fn all_litmus() -> Vec<Litmus> {
    vec![
        mp_sc(),
        sb_sc(),
        lb_sc(),
        corr_rc(),
        mp_rc_fenced(),
        mp_rc_relaxed(),
        sb_rc_relaxed(),
        mp_rollover_sc(),
        corr_rollover_sc(),
        mp_bank_crash_sc(),
        corr_bank_crash_sc(),
        mp_retransmit_storm_sc(),
        iriw_sc(),
        xmp_sc(),
        xsb_sc(),
        xmp_device_crash_sc(),
        xiriw_sc(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_orders_preserve_same_block_order() {
        // Two ops on block 0, one on block 1: 3 interleavings, never
        // swapping the block-0 pair.
        let seg = [st(0, 1), ld(2, 0), ld(3, 1)];
        let orders = segment_orders(&seg);
        assert_eq!(orders.len(), 3);
        for o in &orders {
            let i_st = o.iter().position(|x| *x == st(0, 1)).expect("store kept");
            let i_ld = o.iter().position(|x| *x == ld(2, 0)).expect("load kept");
            assert!(i_st < i_ld, "same-block order broken: {o:?}");
        }
    }

    #[test]
    fn fences_block_reordering() {
        let prog = vec![st(0, 1), Op::Fence, st(1, 2)];
        let orders = thread_orders(&prog, Mode::Rc);
        assert_eq!(orders, vec![vec![st(0, 1), st(1, 2)]]);
        // Without the fence, both orders exist.
        let free = thread_orders(&[st(0, 1), st(1, 2)], Mode::Rc);
        assert_eq!(free.len(), 2);
        // SC never reorders.
        assert_eq!(thread_orders(&[st(0, 1), st(1, 2)], Mode::Sc).len(), 1);
    }
}
