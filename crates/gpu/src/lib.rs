//! The GPU core model: kernels, warps, the coalescing unit, and the SM
//! pipeline with pluggable consistency models.
//!
//! This crate rebuilds the GPGPU-Sim-like execution substrate the paper
//! runs on (Section II-A): a kernel is a grid of CTAs, each CTA a group of
//! warps, each warp a stream of [`WarpOp`]s (loads, stores, compute
//! bursts, fences, CTA barriers), kept coded as a [`CodedProgram`] of a
//! few bytes per instruction. An [`Sm`] schedules resident warps
//! (round-robin or greedy-then-oldest), coalesces each memory
//! instruction's per-lane addresses into block-granular accesses, and
//! drives them through any [`gtsc_protocol::L1Controller`].
//!
//! The consistency model of Section II-B is enforced here, not in the
//! protocol: under [`ConsistencyModel::Sc`] a warp's memory instructions
//! are blocking (at most one outstanding memory instruction per warp);
//! under [`ConsistencyModel::Rc`] a warp keeps a window of outstanding
//! accesses and only [`WarpOp::Fence`] orders them (with the protocol
//! consulted through `fence_ready_at`, where TC-Weak's GWCT rule lives).
//!
//! [`ConsistencyModel::Sc`]: gtsc_types::ConsistencyModel::Sc
//! [`ConsistencyModel::Rc`]: gtsc_types::ConsistencyModel::Rc
//! [`ConsistencyModel`]: gtsc_types::ConsistencyModel

pub mod coalesce;
pub mod kernel;
pub mod sm;

pub use coalesce::coalesce;
pub use kernel::{CodedProgram, Kernel, Lanes, ProgramEncoder, VecKernel, WarpOp, WarpProgram};
pub use sm::{Sm, SmParams, WarpStallInfo};
