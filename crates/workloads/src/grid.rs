//! Grid workloads: VPR — randomized swaps on a shared cost grid and
//! STN — a stencil whose halo rows are written by neighbouring CTAs
//! (both group A), plus HS — the hotspot stencil on CTA-private tiles
//! (group B).

use gtsc_gpu::{VecKernel, WarpOp};
use gtsc_types::Addr;
use rand::Rng;

use crate::layout::{assemble, skewed_index, Region, Scale};

/// Builds the VPR (place & route) kernel: simulated-annealing-style swap
/// proposals touching random cells of a shared placement grid.
#[must_use]
pub fn place_route(scale: Scale, seed: u64) -> VecKernel {
    let grid = Region::new(Addr(0), 128 * scale.data_factor());
    assemble("VPR", scale, seed, |_cta, _w, rng, ops| {
        for i in 0..scale.iters() {
            // Congested placement regions are evaluated far more often
            // than they are modified: skewed reads, rare commits.
            let a = skewed_index(rng, &grid, 16, 0.6);
            let b = skewed_index(rng, &grid, 16, 0.4);
            // Evaluate the swap: read both cells and their neighbourhoods.
            ops.push(WarpOp::load_coalesced(grid.block(a), 32));
            ops.push(WarpOp::load_coalesced(grid.block(b), 32));
            ops.push(WarpOp::load_coalesced(grid.block(a + 1), 32));
            ops.push(WarpOp::load_coalesced(grid.block(b + 1), 32));
            ops.push(WarpOp::Compute(8));
            ops.push(WarpOp::load_coalesced(grid.block(a), 32));
            // Commit the swap with some probability; most accepted swaps
            // move cells *out of* congested regions (cold destinations).
            if rng.gen_bool(0.25) {
                let dst = rng.gen_range(0..grid.len());
                ops.push(WarpOp::store_coalesced(grid.block(dst), 32));
                ops.push(WarpOp::store_coalesced(grid.block(b), 32));
            }
            if i % 2 == 1 {
                ops.push(WarpOp::Fence);
            }
        }
    })
}

/// Builds the STN kernel: an iterative stencil where each CTA writes its
/// own rows and reads halo rows owned by the *neighbouring* CTAs — the
/// cross-CTA sharing that distinguishes it from HS.
#[must_use]
pub fn shared_stencil(scale: Scale, seed: u64) -> VecKernel {
    let n_ctas = scale.ctas() as u64;
    let row_blocks = 4u64;
    let grid = Region::new(Addr(0), n_ctas * row_blocks);
    assemble("STN", scale, seed, move |cta, w, rng, ops| {
        let my_row = cta;
        let up = (cta + n_ctas - 1) % n_ctas;
        let down = (cta + 1) % n_ctas;
        for _iter in 0..scale.iters() {
            let col = w % row_blocks;
            // Read own row and both halo rows (owned and written by the
            // neighbour CTAs).
            ops.push(WarpOp::load_coalesced(
                grid.block(my_row * row_blocks + col),
                32,
            ));
            ops.push(WarpOp::load_coalesced(
                grid.block(up * row_blocks + col),
                32,
            ));
            ops.push(WarpOp::load_coalesced(
                grid.block(down * row_blocks + col),
                32,
            ));
            ops.push(WarpOp::Compute(5 + rng.gen_range(0..3)));
            // Write own row, publish, synchronize the sweep.
            ops.push(WarpOp::store_coalesced(
                grid.block(my_row * row_blocks + col),
                32,
            ));
            ops.push(WarpOp::Fence);
            ops.push(WarpOp::Barrier);
        }
    })
}

/// Builds the HS (hotspot) kernel: the same stencil shape but on
/// CTA-private tiles — no inter-CTA sharing, hence no need for coherence.
#[must_use]
pub fn private_stencil(scale: Scale, seed: u64) -> VecKernel {
    let n_ctas = scale.ctas() as u64;
    let tile_blocks = 8u64;
    let grid = Region::new(Addr(0), n_ctas * tile_blocks);
    assemble("HS", scale, seed, move |cta, w, rng, ops| {
        let tile = grid.slice(cta, n_ctas);
        for iter in 0..scale.iters() as u64 {
            let col = (w + iter) % tile.len();
            ops.push(WarpOp::load_coalesced(tile.block(col), 32));
            ops.push(WarpOp::load_coalesced(tile.block(col + 1), 32));
            ops.push(WarpOp::Compute(10 + rng.gen_range(0..6)));
            ops.push(WarpOp::store_coalesced(tile.block(col), 32));
            ops.push(WarpOp::Barrier);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_gpu::Kernel;
    use gtsc_types::CtaId;

    fn touched_stores(k: &VecKernel, cta: u32) -> std::collections::HashSet<u64> {
        k.program(CtaId(cta), 0)
            .0
            .iter()
            .filter_map(|op| match op {
                WarpOp::Store(a) => Some(a.iter().next().unwrap().0 / 128),
                _ => None,
            })
            .collect()
    }

    fn touched_loads(k: &VecKernel, cta: u32) -> std::collections::HashSet<u64> {
        k.program(CtaId(cta), 0)
            .0
            .iter()
            .filter_map(|op| match op {
                WarpOp::Load(a) => Some(a.iter().next().unwrap().0 / 128),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stn_reads_neighbour_rows() {
        let k = shared_stencil(Scale::Tiny, 5);
        assert!(
            !touched_stores(&k, 0).is_disjoint(&touched_loads(&k, 1)),
            "STN halos must cross CTAs"
        );
    }

    #[test]
    fn hs_tiles_are_private() {
        let k = private_stencil(Scale::Tiny, 5);
        let w0 = touched_stores(&k, 0);
        let w1 = touched_stores(&k, 1);
        assert!(w0.is_disjoint(&w1), "HS tiles must not overlap");
        assert!(
            touched_loads(&k, 1).is_disjoint(&w0),
            "HS reads stay in-tile"
        );
    }

    #[test]
    fn vpr_swaps_write_shared_grid() {
        // All warps draw cells from one shared grid: the union of stores
        // of CTA0's warps must intersect the union of loads of CTA1's.
        let k = place_route(Scale::Small, 5);
        let mut st0 = std::collections::HashSet::new();
        let mut ld1 = std::collections::HashSet::new();
        for w in 0..k.warps_per_cta() {
            for op in &k.program(CtaId(0), w).0 {
                if let WarpOp::Store(a) = op {
                    st0.insert(a.iter().next().unwrap().0 / 128);
                }
            }
            for op in &k.program(CtaId(1), w).0 {
                if let WarpOp::Load(a) = op {
                    ld1.insert(a.iter().next().unwrap().0 / 128);
                }
            }
        }
        assert!(!st0.is_disjoint(&ld1), "VPR cells are shared");
    }
}
