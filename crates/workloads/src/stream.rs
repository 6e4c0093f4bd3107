//! Group-B streaming workloads — no inter-CTA read-write sharing, so no
//! coherence is required. The paper uses these to measure the *overhead*
//! a coherence protocol imposes when it is not needed (right cluster of
//! Figure 12): CCP (compute-bound), GE (row streaming, write-once),
//! KM (streaming against a read-only table), BP (layered streaming),
//! SGM (banded streaming with reuse).

use gtsc_gpu::{VecKernel, WarpOp};
use gtsc_types::Addr;
use rand::Rng;

use crate::layout::{assemble, Region, Scale};

fn total_warps(scale: Scale) -> u64 {
    (scale.ctas() * scale.warps_per_cta()) as u64
}

fn warp_index(scale: Scale, cta: u64, w: u64) -> u64 {
    cta * scale.warps_per_cta() as u64 + w
}

/// Builds the CCP kernel: long compute bursts with sparse private
/// streaming reads (compute-intensive; stalls hide behind execution).
#[must_use]
pub fn compute_heavy(scale: Scale, seed: u64) -> VecKernel {
    let data = Region::new(Addr(0), 64 * total_warps(scale));
    assemble("CCP", scale, seed, move |cta, w, rng, ops| {
        let mine = data.slice(warp_index(scale, cta, w), total_warps(scale));
        for i in 0..scale.iters() as u64 {
            ops.push(WarpOp::Compute(30 + rng.gen_range(0..20)));
            ops.push(WarpOp::load_coalesced(mine.block(i), 32));
            ops.push(WarpOp::Compute(25 + rng.gen_range(0..10)));
            if i % 4 == 3 {
                ops.push(WarpOp::store_coalesced(mine.block(i), 32));
            }
        }
    })
}

/// Builds the GE kernel: Gaussian-elimination-style row streaming where
/// each output block is written exactly once (the write-once pattern that
/// makes invalidation protocols waste refills, Section II-C).
#[must_use]
pub fn gaussian_elim(scale: Scale, seed: u64) -> VecKernel {
    let rows = Region::new(Addr(0), 16 * total_warps(scale));
    assemble("GE", scale, seed, move |cta, w, rng, ops| {
        let mine = rows.slice(warp_index(scale, cta, w), total_warps(scale));
        for i in 0..scale.iters() as u64 {
            // Read a moving window of three row blocks.
            for d in 0..3 {
                ops.push(WarpOp::load_coalesced(mine.block(i + d), 32));
            }
            ops.push(WarpOp::Compute(6 + rng.gen_range(0..4)));
            // Write each result block exactly once.
            ops.push(WarpOp::store_coalesced(mine.block(i), 32));
        }
    })
}

/// Builds the KM kernel: stream private points against a small read-only
/// centroid table shared by everyone (read-only sharing is coherence-free).
#[must_use]
pub fn kmeans(scale: Scale, seed: u64) -> VecKernel {
    let centroids = Region::new(Addr(0), 8);
    let points = Region::new(centroids.end(), 32 * total_warps(scale));
    let assign = Region::new(points.end(), 8 * total_warps(scale));
    assemble("KM", scale, seed, move |cta, w, rng, ops| {
        let my_points = points.slice(warp_index(scale, cta, w), total_warps(scale));
        let my_assign = assign.slice(warp_index(scale, cta, w), total_warps(scale));
        for i in 0..scale.iters() as u64 {
            ops.push(WarpOp::load_coalesced(my_points.block(i), 32));
            // Distance to a couple of centroids (shared, read-only).
            ops.push(WarpOp::load_coalesced(
                centroids.block(rng.gen_range(0..8)),
                32,
            ));
            ops.push(WarpOp::load_coalesced(
                centroids.block(rng.gen_range(0..8)),
                32,
            ));
            ops.push(WarpOp::Compute(12));
            ops.push(WarpOp::store_coalesced(my_assign.block(i), 32));
        }
    })
}

/// Builds the BP kernel: layered forward/backward streaming with private
/// weight updates and per-layer barriers.
#[must_use]
pub fn backprop(scale: Scale, seed: u64) -> VecKernel {
    let input = Region::new(Addr(0), 32); // shared, read-only
    let weights = Region::new(input.end(), 24 * total_warps(scale));
    assemble("BP", scale, seed, move |cta, w, rng, ops| {
        let mine = weights.slice(warp_index(scale, cta, w), total_warps(scale));
        for layer in 0..scale.iters() as u64 {
            ops.push(WarpOp::load_coalesced(input.block(layer), 32));
            ops.push(WarpOp::load_coalesced(mine.block(layer), 32));
            ops.push(WarpOp::Compute(8 + rng.gen_range(0..6)));
            ops.push(WarpOp::store_coalesced(mine.block(layer), 32));
            ops.push(WarpOp::Barrier);
        }
    })
}

/// Builds the SGM kernel: banded streaming with strong short-range reuse
/// (a cache-friendly group-B workload).
#[must_use]
pub fn sgm(scale: Scale, seed: u64) -> VecKernel {
    let bands = Region::new(Addr(0), 24 * total_warps(scale));
    let out = Region::new(bands.end(), 12 * total_warps(scale));
    assemble("SGM", scale, seed, move |cta, w, rng, ops| {
        let my_band = bands.slice(warp_index(scale, cta, w), total_warps(scale));
        let my_out = out.slice(warp_index(scale, cta, w), total_warps(scale));
        for i in 0..scale.iters() as u64 {
            // Sliding band with re-reads (reuse makes L1 matter).
            ops.push(WarpOp::load_coalesced(my_band.block(i), 32));
            ops.push(WarpOp::load_coalesced(my_band.block(i + 1), 32));
            ops.push(WarpOp::load_coalesced(my_band.block(i), 32));
            ops.push(WarpOp::Compute(4 + rng.gen_range(0..4)));
            ops.push(WarpOp::store_coalesced(my_out.block(i), 32));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_gpu::Kernel;
    use gtsc_types::CtaId;

    fn stores(k: &VecKernel, cta: u32, w: usize) -> std::collections::HashSet<u64> {
        k.program(CtaId(cta), w)
            .0
            .iter()
            .filter_map(|op| match op {
                WarpOp::Store(a) => Some(a.iter().next().unwrap().0 / 128),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn group_b_stores_never_overlap_across_warps() {
        for k in [
            compute_heavy(Scale::Tiny, 1),
            gaussian_elim(Scale::Tiny, 2),
            kmeans(Scale::Tiny, 3),
            backprop(Scale::Tiny, 4),
            sgm(Scale::Tiny, 5),
        ] {
            let a = stores(&k, 0, 0);
            let b = stores(&k, 0, 1);
            let c = stores(&k, 1, 0);
            assert!(a.is_disjoint(&b), "{}: warp stores overlap", k.name());
            assert!(a.is_disjoint(&c), "{}: CTA stores overlap", k.name());
        }
    }

    #[test]
    fn ccp_is_compute_dominated() {
        let k = compute_heavy(Scale::Tiny, 1);
        let p = k.program(CtaId(0), 0);
        let compute: u32 =
            p.0.iter()
                .map(|op| if let WarpOp::Compute(c) = op { *c } else { 0 })
                .sum();
        let mem = p.0.iter().filter(|op| op.is_memory()).count() as u32;
        assert!(compute > mem * 10, "compute {compute} vs mem ops {mem}");
    }

    #[test]
    fn ge_writes_each_block_once() {
        let k = gaussian_elim(Scale::Tiny, 2);
        let p = k.program(CtaId(0), 0);
        let mut counts = std::collections::HashMap::new();
        for op in &p.0 {
            if let WarpOp::Store(a) = op {
                *counts.entry(a.iter().next().unwrap().0 / 128).or_insert(0) += 1;
            }
        }
        assert!(counts.values().all(|&c| c == 1), "GE is write-once");
    }

    #[test]
    fn sgm_rereads_for_reuse() {
        let k = sgm(Scale::Tiny, 5);
        let p = k.program(CtaId(0), 0);
        let loads: Vec<u64> =
            p.0.iter()
                .filter_map(|op| match op {
                    WarpOp::Load(a) => Some(a.iter().next().unwrap().0 / 128),
                    _ => None,
                })
                .collect();
        let unique: std::collections::HashSet<u64> = loads.iter().copied().collect();
        assert!(loads.len() > unique.len(), "SGM must re-read blocks");
    }
}
