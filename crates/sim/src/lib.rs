//! The full-GPU simulator: SMs + NoC + L2 banks + a memory side, wired
//! around any of the workspace's coherence protocols, with built-in
//! correctness checking.
//!
//! This is the reproduction of the paper's evaluation vehicle (GPGPU-Sim
//! 3.2.2 with the authors' protocol patches, Section VI-A). A
//! [`GpuSim`] is built from a [`gtsc_types::GpuConfig`] — which selects
//! the protocol ([`gtsc_types::ProtocolKind`]) and consistency model —
//! and runs [`gtsc_gpu::Kernel`]s to completion, producing
//! [`gtsc_types::SimStats`] plus any coherence violations found by the
//! [`check::Checker`].
//!
//! There is one cycle engine, [`Sim`], and two machines built on it
//! that differ only in what lies behind the L2 banks (DESIGN.md §17.1):
//! [`GpuSim`] is one device whose banks miss into local DRAM partitions
//! — the paper's machine — and [`MultiGpuSim`] is N devices whose banks
//! miss into an inter-GPU fabric to a home-node directory. Running,
//! slicing ([`Sim::advance_kernel`]), reporting, stall diagnosis, spans,
//! sampling and snapshots are the engine's, so both machines have all of
//! them; [`SimBuilder`] plugs custom cache controllers into the
//! single-GPU machine.
//!
//! # Examples
//!
//! ```
//! use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
//! use gtsc_sim::GpuSim;
//! use gtsc_types::{Addr, GpuConfig};
//!
//! let cfg = GpuConfig::test_small();
//! let kernel = VecKernel::new(
//!     "demo",
//!     1,
//!     vec![vec![WarpProgram(vec![
//!         WarpOp::store_coalesced(Addr(0), 32),
//!         WarpOp::load_coalesced(Addr(0), 32),
//!     ])]],
//! );
//! let mut sim = GpuSim::new(cfg);
//! let report = sim.run_kernel(&kernel).expect("kernel completes");
//! assert!(report.stats.cycles.0 > 0);
//! assert!(report.violations.is_empty());
//! ```

pub mod build;
pub mod check;
pub mod checkpoint;
mod engine;
mod gpu;
mod multi;
pub mod profile;
mod report;

pub use build::{build_l1, build_l2};
pub use check::{Checker, CheckerFootprint, LoadObservation, Violation};
pub use checkpoint::{sync_parent_dir, CheckpointError, CheckpointSource, CheckpointStore};
pub use engine::Sim;
pub use gpu::{GpuSim, SimBuilder};
pub use multi::MultiGpuSim;
pub use profile::{render_folded, render_profile, spans_to_chrome_trace};
pub use report::{DeviceStall, KernelProgress, RunReport, SimError, StallDiagnosis};
