//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section VI) and its design-choice ablations (Section V).
//!
//! Each row of the [catalog](catalog::catalog) reproduces one artifact:
//!
//! | Row | Paper artifact |
//! |---|---|
//! | `table1` | Table I — contents of requests and responses |
//! | `table2` | Table II — absolute execution cycles (BL, TC) |
//! | `fig12` | Figure 12 — performance of all protocol/model pairs |
//! | `fig13` | Figure 13 — memory-delay pipeline stalls |
//! | `fig14` | Figure 14 — G-TSC-RC lease sweep (8–20) |
//! | `fig15` | Figure 15 — NoC traffic |
//! | `fig16` | Figure 16 — total energy |
//! | `fig17` | Figure 17 — L1 energy (joules) |
//! | `stats_expiry` | §VI-E — lease-expiration misses, G-TSC vs TC |
//! | `ablation_visibility` | §V-A — block-line vs dual-copy |
//! | `ablation_combining` | §V-B — MSHR merging vs forward-all |
//! | `ablation_inclusion` | §V-C — non-inclusive vs inclusive L2 |
//! | `ablation_tsbits` | §V-D — timestamp width / rollover cost |
//! | `ablation_adaptive_lease` | extension — adaptive lease prediction |
//! | `ablation_noc` | extension — NoC topology and bandwidth |
//! | `ablation_scheduler` | extension — GTO vs round-robin warps |
//!
//! Run them with `cargo run --release -p gtsc-bench --bin repro -- <row>…|all
//! [--scale tiny|small|full] [--csv DIR] [--json DIR]`; a run two rows
//! share simulates once ([`Plan`]).

pub mod catalog;
pub mod harness;
pub mod matrix;

pub use catalog::{catalog, Experiment, Rendered};
pub use harness::{config_for, paper_configs, run_benchmark, PaperConfig, RunOutcome, Table};
pub use matrix::{Plan, RunKey, Runs, Workload};
