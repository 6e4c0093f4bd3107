//! The benchmark of the G-TSC simulator: six named workloads, five
//! end-to-end metrics, and a per-layer ladder. `README.md` beside this
//! package defines every name; `BENCHMARK.json` at the repository root
//! is the contract the acceptance driver runs it under.
//!
//! The benchmark reaches every layer only through the simulator's public
//! functions and changes no file outside its own directory.

pub mod golden;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod rungs;
pub mod spans;
pub mod stats;
pub mod workloads;
