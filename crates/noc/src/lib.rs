//! Interconnection-network model for the G-TSC reproduction.
//!
//! GPUs connect SMs to L2 banks over a crossbar-like NoC whose bandwidth is
//! a first-order performance bottleneck (Section II-A of the paper; the
//! request-combining trade-off of Section V-B exists precisely because of
//! it). This crate models one direction of traffic as a [`Network`]: per
//! source port, packets are serialized into flits at a configurable
//! injection bandwidth, then fly for a fixed pipeline latency. The
//! simulator instantiates two networks — requests (SM→L2) and responses
//! (L2→SM) — mirroring GPGPU-Sim's separate virtual networks.
//!
//! The model deliberately omits intermediate-hop contention (a crossbar has
//! none) but does capture the quantities the paper reports: flit counts
//! (Figure 15's "NoC traffic"), queueing under bandwidth pressure, and
//! per-packet latency growth with load.
//!
//! # Examples
//!
//! ```
//! use gtsc_noc::Network;
//! use gtsc_types::{Cycle, NocConfig};
//!
//! let mut net: Network<&str> = Network::new(2, 4, NocConfig::default());
//! net.send(0, 3, 8, "hello", Cycle(0));
//! let mut arrived = Vec::new();
//! for c in 0..=30 {
//!     arrived.extend(net.tick(Cycle(c)));
//! }
//! assert_eq!(arrived, vec![(3, "hello")]);
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "the raw Network's own crate: it defines it, ReliableNet wraps it, the root re-exports it"
)]

mod network;
pub mod transport;

pub use network::Network;
pub use transport::{FlowDiag, ReliableNet};
