//! Correctness analyses for the G-TSC reproduction.
//!
//! Three layers, each catching bugs the others cannot:
//!
//! * **The invariant catalog, two drivers** — every per-event protocol
//!   rule is stated once, in [`gtsc_trace::rules`] ([`RULES`] names
//!   them; one [`gtsc_trace::RuleMachine`] evaluates them). The *online*
//!   driver is the transition [`Sanitizer`], hooked into every
//!   GtscL1/GtscL2 (and TC baseline, device, home) state change and
//!   enabled with `GpuConfig::sanitize`: it catches *transient*
//!   violations that self-heal before the end-of-run value checker
//!   looks. The *offline* driver is [`lint_events`] ([`lint`]), which
//!   replays any recorded [`gtsc_trace::TraceEvent`] stream through the
//!   same machine — including traces captured from full-scale runs
//!   where the sanitizer was off.
//! * **Exhaustive litmus model checking** ([`litmus`], [`harness`],
//!   [`spec`], [`explore`]) — every schedule of tiny two-to-four-thread
//!   programs driven through the real controllers and compared against
//!   an operational reference model of the paper's timestamp rules.
//!   Catches ordering bugs that need a particular interleaving the
//!   random-traffic tests never draw. One harness, two memory sides
//!   ([`Topology`]): a `GtscL2` bank over instant DRAM, or threads
//!   pinned to devices with one `DeviceL2` each under a shared
//!   `HomeNode`. The cross-GPU shapes (`xmp-sc`, `xiriw-sc`, a
//!   device-crash variant) sit in the same catalog and are checked
//!   against the same flat reference model — hierarchical lease
//!   delegation must not admit anything single-level G-TSC forbids.
//! * **Happens-before race oracle** ([`races`]) — an independent
//!   ordering checker that derives happens-before from message
//!   causality alone (vector clocks over send/receive edges, never the
//!   protocol's own timestamps) and verifies that every load is covered
//!   by a genuinely exclusive lease interval and that timestamp order
//!   extends happens-before. Runs inside every litmus exploration.
//!   `results/kill_matrix.txt` (asserted by the `mutants` test) records
//!   which seeded protocol mutant each layer's rules kill.
//!
//! The crate also ships two binaries: `model_check` (runs the litmus
//! catalog, including IRIW, with the race oracle attached) and
//! `src_lint` (the AST-driven source lint from `gtsc-lint`, keeping raw
//! timestamp arithmetic confined to `gtsc_core::rules` and simulator
//! state deterministic).

pub mod explore;
pub mod harness;
pub mod lint;
pub mod litmus;
pub mod races;
pub mod spec;

pub use explore::{explore_all, Explored, Schedulable};
pub use gtsc_trace::{Finding, Report, Sanitizer, Severity, Transition, RULES};
pub use harness::{HarnessCfg, MicroGtsc, Topology};
pub use lint::lint_events;
pub use litmus::{all_litmus, run_litmus, Litmus, LitmusRun, Mode, Op};
pub use races::{RaceEventKind, RaceOracle, RespMeta};
pub use spec::SpecMachine;
