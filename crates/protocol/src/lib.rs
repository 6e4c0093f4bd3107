//! Protocol-facing interfaces of the simulated memory hierarchy.
//!
//! This crate defines the *contract* between the GPU core model
//! (`gtsc-gpu`), the private-cache controllers, and the shared-cache
//! controllers, without committing to any particular coherence protocol:
//!
//! * [`msg`] — the coherence messages of Table I (`BusRd`, `BusWr`,
//!   `BusFill`, `BusRnw`, `BusWrAck`) with per-protocol lease payloads and
//!   exact on-wire sizes (used for NoC traffic accounting);
//! * [`api`] — the [`api::L1Controller`] and
//!   [`api::L2Controller`] traits implemented by G-TSC
//!   (`gtsc-core`), TC/TC-Weak and the baselines (`gtsc-baselines`);
//! * [`shell`] — the [`shell::BankShell`] every one of those L2 banks
//!   queues its requests, fetches and responses in;
//! * [`front`] — the [`front::VersionMint`] and [`front::StoreBook`]
//!   every one of those L1s names and tracks its stores with.
//!
//! The same SM pipeline, NoC, and DRAM models drive every protocol through
//! these traits, so measured differences are attributable to the protocol
//! alone — the property the paper's evaluation relies on.

pub mod api;
pub mod front;
pub mod msg;
pub mod shell;

pub use api::{
    AccessId, AccessKind, Completion, ControllerPressure, L1Controller, L1Outcome, L2Controller,
    MemAccess, WaitHint,
};
pub use front::{PendingStore, StoreBook, VersionMint, Waiter};
pub use msg::{
    Epoch, FillResp, L1ToL2, L2ToL1, LeaseInfo, MsgSizes, ReadReq, WriteAckResp, WriteReq,
};
pub use shell::BankShell;
