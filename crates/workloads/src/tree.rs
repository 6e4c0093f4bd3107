//! BH — Barnes-Hut n-body: irregular traversal of a shared tree with
//! read-write sharing on tree nodes (group A).
//!
//! Every warp repeatedly walks a root-to-leaf path of the shared tree
//! (dependent, poorly coalesced loads) and then updates the body it
//! reached (a store other CTAs may subsequently read — the inter-SM
//! sharing that demands coherence). Fences publish each update, as the
//! original CUDA code does between tree phases.

use gtsc_gpu::{VecKernel, WarpOp};
use rand::Rng;

use crate::layout::{assemble, skewed_index, Region, Scale};
use gtsc_types::Addr;

/// Builds the BH kernel.
#[must_use]
pub fn barnes_hut(scale: Scale, seed: u64) -> VecKernel {
    let tree = Region::new(Addr(0), 64 * scale.data_factor());
    let bodies = Region::new(tree.end(), 32 * scale.data_factor());
    let depth = 4;
    assemble("BH", scale, seed, |_cta, _w, rng, ops| {
        for _ in 0..scale.iters() {
            // Root-to-leaf walk: dependent node loads.
            let mut idx = 0u64;
            for level in 0..depth {
                ops.push(WarpOp::load_coalesced(tree.block(idx), 32));
                ops.push(WarpOp::Compute(2));
                idx = idx * 4 + 1 + rng.gen_range(0..4u64) + level;
            }
            // Update the reached body; occasionally also re-insert into an
            // upper tree node (the force-update / tree-build sharing).
            // Update the reached body: usually a leaf of one's own
            // subtree (cold), occasionally a contended hot body.
            let body = skewed_index(rng, &bodies, 16, 0.15);
            ops.push(WarpOp::store_coalesced(bodies.block(body), 32));
            if rng.gen_bool(0.3) {
                // Tree insertion claims the child pointer atomically
                // (atomicCAS in the CUDA original).
                ops.push(WarpOp::atomic_coalesced(tree.block(idx), 32));
            }
            ops.push(WarpOp::Fence);
            ops.push(WarpOp::Compute(6));
            // Read bodies other warps may have produced (hot set).
            for _ in 0..3 {
                let other = skewed_index(rng, &bodies, 16, 0.6);
                ops.push(WarpOp::load_coalesced(bodies.block(other), 32));
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_gpu::Kernel;
    use gtsc_types::CtaId;

    #[test]
    fn has_shared_stores_and_fences() {
        let k = barnes_hut(Scale::Tiny, 1);
        let p = k.program(CtaId(0), 0);
        assert!(p.0.iter().any(|op| matches!(op, WarpOp::Store(_))));
        assert!(p.0.iter().any(|op| matches!(op, WarpOp::Fence)));
        assert!(p.0.iter().filter(|op| op.is_memory()).count() >= 8);
    }

    #[test]
    fn different_warps_touch_overlapping_regions() {
        // Sharing requires some overlap in touched blocks across warps.
        let k = barnes_hut(Scale::Tiny, 1);
        let blocks = |cta: u32, w: usize| -> std::collections::HashSet<u64> {
            k.program(CtaId(cta), w)
                .0
                .iter()
                .filter_map(|op| match op {
                    WarpOp::Load(a) | WarpOp::Store(a) => Some(a.iter().next().unwrap().0 >> 7),
                    _ => None,
                })
                .collect()
        };
        let a = blocks(0, 0);
        let b = blocks(1, 0);
        assert!(!a.is_disjoint(&b), "BH warps must share tree/body blocks");
    }
}
