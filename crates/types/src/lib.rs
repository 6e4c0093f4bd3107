//! Common vocabulary types for the G-TSC reproduction.
//!
//! This crate defines the newtypes, configuration structures and statistics
//! counters shared by every other crate in the workspace: addresses and
//! cache-block addresses, logical [`Timestamp`]s (the heart of G-TSC),
//! physical [`Cycle`]s, hardware identifiers ([`SmId`], [`WarpId`], ...),
//! the top-level [`GpuConfig`], and the [`SimStats`] accumulator.
//!
//! # Examples
//!
//! ```
//! use gtsc_types::{Addr, CacheGeometry, GpuConfig};
//!
//! let cfg = GpuConfig::paper_default();
//! assert_eq!(cfg.n_sms, 16);
//! let geom = CacheGeometry::new(16 * 1024, 4, 128);
//! let a = Addr(0x1_0040);
//! assert_eq!(geom.block_of(a).byte_addr(7).0, 0x1_0000);
//! ```

pub mod addr;
pub mod config;
pub mod hash;
pub mod ids;
pub mod snap;
pub mod stats;
pub mod time;
pub mod value;
pub mod varint;

pub use addr::{Addr, BlockAddr, CacheGeometry};
pub use config::{
    CombinePolicy, ConsistencyModel, DramConfig, FabricConfig, FaultConfig, GpuConfig,
    InclusionPolicy, MultiGpuConfig, NocConfig, NocTopology, PagePolicy, ProtocolKind, TraceConfig,
    TraceMode, TransportConfig, VisibilityPolicy, WarpScheduler,
};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{BankId, CtaId, GlobalWarpId, KernelId, LaneId, SmId, SpanId, WarpId};
pub use snap::{
    crc32, Snap, SnapReader, SnapWriter, SnapshotBuilder, SnapshotError, SnapshotFile, SNAP_MAGIC,
    SNAP_VERSION,
};
pub use stats::{
    CacheStats, CycleBuckets, CycleReason, DramStats, LatencyHist, NocStats, SimStats, SmStats,
    StallKind, TransportStats,
};
pub use time::{Cycle, Lease, Timestamp};
pub use value::Version;
