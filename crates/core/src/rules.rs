//! The pure timestamp-assignment rules of G-TSC (Figures 4–6).
//!
//! These four functions are the algorithmic core of the protocol; the
//! controllers in [`crate::l1`] and [`crate::l2`] are plumbing around
//! them. Keeping them pure makes the protocol's safety arguments testable
//! in isolation (see the property tests at the bottom of this module).
//!
//! The one module allowed to do arithmetic on logical timestamps: the
//! rest of the workspace is denied `Timestamp::{succ, max}` (clippy.toml)
//! and, in this crate, operators on anything but plain integers.
#![expect(
    clippy::disallowed_methods,
    clippy::arithmetic_side_effects,
    reason = "the timestamp rules are stated here, once"
)]

use gtsc_types::{Lease, Timestamp};

/// Lease extension rule (Figure 4): when a `BusRd` with warp timestamp
/// `warp_ts` is served, the block's read timestamp becomes
/// `max(rts, warp_ts + lease)` — always covering the requester.
///
/// # Examples
///
/// ```
/// use gtsc_core::rules::extend_rts;
/// use gtsc_types::{Lease, Timestamp};
/// // The Figure 9 example, step 14: rts=11 extended for warp_ts=12.
/// assert_eq!(extend_rts(Timestamp(11), Timestamp(12), Lease(3)), Timestamp(15));
/// // Never shrinks.
/// assert_eq!(extend_rts(Timestamp(50), Timestamp(1), Lease(3)), Timestamp(50));
/// ```
#[must_use]
pub fn extend_rts(rts: Timestamp, warp_ts: Timestamp, lease: Lease) -> Timestamp {
    rts.max(warp_ts + lease)
}

/// Store timestamp rule (Figure 5): a store serialized at the L2 is
/// logically scheduled *after* every outstanding lease and after the
/// writing warp's own past: `wts = max(rts + 1, warp_ts)`.
///
/// This is why G-TSC writes never stall: instead of waiting for reader
/// leases to expire in physical time (TC), the write simply happens
/// later in logical time.
///
/// # Examples
///
/// ```
/// use gtsc_core::rules::store_wts;
/// use gtsc_types::Timestamp;
/// // Figure 9, step 8: block valid until ts 11, writing warp at ts 1.
/// assert_eq!(store_wts(Timestamp(11), Timestamp(1)), Timestamp(12));
/// // A warp that is already logically ahead drags the store with it.
/// assert_eq!(store_wts(Timestamp(11), Timestamp(40)), Timestamp(40));
/// ```
#[must_use]
pub fn store_wts(rts: Timestamp, warp_ts: Timestamp) -> Timestamp {
    rts.succ().max(warp_ts)
}

/// Whether a warp at `warp_ts` may read a copy with lease `[wts, rts]`
/// (L1 hit condition 2 of Figure 2). `wts` is not consulted: a warp whose
/// timestamp is below `wts` simply *moves up* to `wts` upon reading.
#[must_use]
pub fn lease_covers(rts: Timestamp, warp_ts: Timestamp) -> bool {
    warp_ts <= rts
}

/// The warp-timestamp advance on a successful load (Figure 2):
/// `warp_ts ← max(warp_ts, wts)` — the returned value is also the load's
/// effective logical timestamp.
#[must_use]
pub fn load_ts(warp_ts: Timestamp, wts: Timestamp) -> Timestamp {
    warp_ts.max(wts)
}

/// The lease a newly-created version is granted (Figure 5 / Section
/// V-C): readable for `lease` logical ticks past its write timestamp.
/// Used both for store commits and for DRAM fills (whose `wts` is the
/// bank's `mem_ts`).
#[must_use]
pub fn grant_rts(wts: Timestamp, lease: Lease) -> Timestamp {
    wts + lease
}

/// Renewal merge rule (Figure 7a): an L1 folding a data-less renewal
/// into a resident lease keeps the larger read timestamp — a racing
/// fill may already have extended the line beyond the renewal.
#[must_use]
pub fn merge_rts(resident_rts: Timestamp, renewed_rts: Timestamp) -> Timestamp {
    resident_rts.max(renewed_rts)
}

/// Non-inclusion rule (Section V-C): evicting an L2 line folds its
/// read lease into the bank's memory timestamp, so a later refetch can
/// never be stamped below a lease that may still be cached in an L1.
#[must_use]
pub fn fold_mem_ts(mem_ts: Timestamp, evicted_rts: Timestamp) -> Timestamp {
    mem_ts.max(evicted_rts)
}

/// Hierarchical nesting rule (HALCONE-style multi-GPU delegation; see
/// DESIGN.md §17): a device-local L2 may extend an L1 lease on its own
/// authority only *inside* the inter-GPU grant it holds from the home
/// node. The lease it would grant on-die (`extend_rts`) is therefore
/// clamped to the grant's `rts` — every L1 lease is nested strictly
/// inside a live device grant, so a crashed or partitioned device can
/// never have delegated logical time it does not own.
///
/// # Examples
///
/// ```
/// use gtsc_core::rules::nest_rts;
/// use gtsc_types::{Lease, Timestamp};
/// // Plenty of grant headroom: behaves exactly like extend_rts.
/// assert_eq!(
///     nest_rts(Timestamp(11), Timestamp(12), Lease(3), Timestamp(100)),
///     Timestamp(15)
/// );
/// // Near the grant edge: the lease is clamped to the grant's rts.
/// assert_eq!(
///     nest_rts(Timestamp(11), Timestamp(12), Lease(3), Timestamp(13)),
///     Timestamp(13)
/// );
/// ```
#[must_use]
pub fn nest_rts(
    rts: Timestamp,
    warp_ts: Timestamp,
    lease: Lease,
    grant_rts: Timestamp,
) -> Timestamp {
    extend_rts(rts, warp_ts, lease).min(grant_rts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn figure9_walkthrough() {
        // The worked example of Figure 9, SM0 writing X then re-reading it.
        let lease = Lease(10);
        // Initial fill of X: [wts=1, rts=1+? paper uses [1,6]].
        let x_wts = Timestamp(1);
        let x_rts_l2 = Timestamp(11); // lease held by SM1
                                      // Step 8: A2 stores X with warp_ts = 1.
        let st = store_wts(x_rts_l2, Timestamp(1));
        assert_eq!(st, Timestamp(12));
        let new_rts = st + lease;
        assert_eq!(new_rts, Timestamp(22));
        // Step 13: A3 reads X with warp_ts = 12, old lease [1,6] expired.
        assert!(!lease_covers(Timestamp(6), Timestamp(12)));
        // Step 14: renewal extends the *new* version's lease; in the paper
        // the L2 sets rts = 15 > warp_ts using lease 3 for exposition.
        assert_eq!(
            extend_rts(Timestamp(6), Timestamp(12), Lease(3)),
            Timestamp(15)
        );
        let _ = x_wts;
    }

    #[test]
    fn load_ts_moves_warp_forward_only() {
        assert_eq!(load_ts(Timestamp(4), Timestamp(9)), Timestamp(9));
        assert_eq!(load_ts(Timestamp(9), Timestamp(4)), Timestamp(9));
    }

    #[test]
    fn grant_merge_and_fold_helpers() {
        assert_eq!(grant_rts(Timestamp(12), Lease(10)), Timestamp(22));
        assert_eq!(merge_rts(Timestamp(9), Timestamp(4)), Timestamp(9));
        assert_eq!(merge_rts(Timestamp(4), Timestamp(9)), Timestamp(9));
        assert_eq!(fold_mem_ts(Timestamp(3), Timestamp(7)), Timestamp(7));
        // fold never shrinks mem_ts.
        assert_eq!(fold_mem_ts(Timestamp(7), Timestamp(3)), Timestamp(7));
    }

    proptest! {
        /// Safety: a store is always assigned a timestamp strictly greater
        /// than the block's current read lease, so no already-granted read
        /// can logically observe it.
        #[test]
        fn store_never_lands_inside_a_lease(rts in 0u64..1_000_000, warp in 0u64..1_000_000) {
            let wts = store_wts(Timestamp(rts), Timestamp(warp));
            prop_assert!(wts > Timestamp(rts));
            prop_assert!(wts >= Timestamp(warp));
        }

        /// Liveness: an extension always covers the requesting warp, so a
        /// renewal response always unblocks the requester.
        #[test]
        fn extension_covers_requester(
            rts in 0u64..1_000_000,
            warp in 0u64..1_000_000,
            lease in 1u64..100,
        ) {
            let new_rts = extend_rts(Timestamp(rts), Timestamp(warp), Lease(lease));
            prop_assert!(lease_covers(new_rts, Timestamp(warp)));
            prop_assert!(new_rts >= Timestamp(rts));
        }

        /// Containment: a nested lease never escapes the device grant,
        /// and whenever the grant has room for the requester the nested
        /// lease still covers it (delegation loses no liveness inside
        /// the grant).
        #[test]
        fn nested_lease_stays_inside_grant(
            rts in 0u64..1_000_000,
            warp in 0u64..1_000_000,
            lease in 1u64..100,
            grant in 0u64..1_000_000,
        ) {
            let nested = nest_rts(Timestamp(rts), Timestamp(warp), Lease(lease), Timestamp(grant));
            prop_assert!(nested <= Timestamp(grant), "L2 lease ⊆ device grant");
            if warp <= grant {
                prop_assert!(lease_covers(nested, Timestamp(warp)));
            }
            // With unlimited grant headroom, nesting is exactly extend_rts.
            let free = nest_rts(Timestamp(rts), Timestamp(warp), Lease(lease), Timestamp(u64::MAX));
            prop_assert_eq!(free, extend_rts(Timestamp(rts), Timestamp(warp), Lease(lease)));
        }

        /// Monotonicity: successive stores to the same block get strictly
        /// increasing write timestamps (the per-block serialization G-TSC
        /// relies on for the single-writer invariant).
        #[test]
        fn successive_stores_strictly_increase(
            start_rts in 0u64..10_000,
            warps in proptest::collection::vec(0u64..10_000, 1..50),
            lease in 1u64..100,
        ) {
            let mut rts = Timestamp(start_rts);
            let mut last_wts = Timestamp(0);
            for w in warps {
                let wts = store_wts(rts, Timestamp(w));
                prop_assert!(wts > last_wts);
                last_wts = wts;
                rts = wts + Lease(lease);
            }
        }
    }
}
