//! Seeded protocol mutants for checker validation.
//!
//! A checking layer that has never caught anything proves nothing.
//! Each variant here disables exactly one protocol guard, and the
//! mutation test in `crates/check/tests/mutants.rs` asserts — over
//! every exhaustively-explored schedule of a killing shape — exactly
//! which per-event rules (the invariant catalog, through the sanitizer)
//! and which race-oracle rules each mutant raises; the table is
//! committed as `results/kill_matrix.txt`.
//!
//! The hooks are `#[doc(hidden)]` and default to [`ProtocolMutation::None`]:
//! production code never sets them, and the `None` arm compiles to the
//! unmutated protocol (a single enum compare on the affected paths).

/// Which single protocol guard to disable. Test-only; see the module
/// docs.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolMutation {
    /// The unmutated protocol.
    #[default]
    None,
    /// The L1 serves a resident line to a warp whose timestamp is past
    /// the line's `rts` (drops hit condition 2 of Figure 2). The warp
    /// reads data whose lease expired — a stale read the renewal
    /// machinery exists to prevent.
    ServeReadPastRts,
    /// The L2 stamps a store with `max(wts.succ(), warp_ts)` instead of
    /// `max(rts + 1, warp_ts)` (drops the Figure 5 lease-expiry guard).
    /// The store lands logically *inside* outstanding read leases, so a
    /// reader can observe old data at a logical time after the write.
    SkipLeaseExpiryOnStore,
    /// Bank recovery keeps the old epoch instead of entering the bumped
    /// one (drops the Section V-D epoch advance on reset). L1s never
    /// learn their leases died with the bank's coherence state.
    SkipEpochBumpOnRecovery,
    /// A multi-GPU device L2 grants an L1 lease *past* the `rts` of the
    /// inter-GPU grant it holds from the home node (drops the `nest_rts`
    /// clamp of DESIGN.md §17). An SM can then read locally at a logical
    /// time the home node believes free of readers — a store serialized
    /// at the home can land inside the escaped lease.
    ServePastGrantRts,
}
