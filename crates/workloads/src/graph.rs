//! Graph workloads (group A): CC — connected components by label
//! propagation, and BFS — frontier expansion with a shared visited map.
//!
//! Both exhibit the irregular, data-dependent sharing the paper's
//! introduction motivates: labels/visited flags are read and written by
//! warps on *different* SMs, with poor coalescing (divergent gathers).

use gtsc_gpu::{VecKernel, WarpOp};
use gtsc_types::Addr;
use rand::Rng;

#[cfg(test)]
use crate::layout::BLOCK;
use crate::layout::{assemble, skewed_index, Region, Scale};

/// Builds the CC (connected components) kernel: label propagation over a
/// random edge list.
#[must_use]
pub fn connected_components(scale: Scale, seed: u64) -> VecKernel {
    let labels = Region::new(Addr(0), 96 * scale.data_factor());
    let edges = Region::new(labels.end(), 128 * scale.data_factor()); // read-only edge list
    assemble("CC", scale, seed, |_cta, _w, rng, ops| {
        for i in 0..scale.iters() {
            // Stream a chunk of the edge list (coalesced, read-only).
            ops.push(WarpOp::load_coalesced(
                edges.block(rng.gen_range(0..edges.len())),
                32,
            ));
            // Gather the endpoint labels (divergent, skewed towards the
            // hot high-degree nodes every real graph has).
            ops.push_lanes(
                WarpOp::Load,
                (0..8).map(|_| labels.block(skewed_index(rng, &labels, 16, 0.6))),
            );
            ops.push(WarpOp::Compute(3));
            // Re-read the hot labels (convergence check) before the
            // scatter: load-dominated, as label propagation is.
            ops.push_lanes(
                WarpOp::Load,
                (0..6).map(|_| labels.block(skewed_index(rng, &labels, 16, 0.7))),
            );
            // atomicMin the propagated label into the *updated* (mostly
            // fresh, non-hub) nodes — real label propagation rarely
            // rewrites converged hubs, and does it with atomics.
            ops.push_lanes(
                WarpOp::Atomic,
                (0..2).map(|_| labels.block(skewed_index(rng, &labels, 16, 0.02))),
            );
            if i % 3 == 2 {
                ops.push(WarpOp::Fence);
            }
        }
    })
}

/// Builds the BFS kernel: frontier loads, divergent adjacency gathers,
/// and stores into the shared visited bitmap.
#[must_use]
pub fn bfs(scale: Scale, seed: u64) -> VecKernel {
    let visited = Region::new(Addr(0), 64 * scale.data_factor());
    let adj = Region::new(visited.end(), 256 * scale.data_factor()); // read-only adjacency
    let frontier = Region::new(adj.end(), 16 * scale.data_factor());
    assemble("BFS", scale, seed, |_cta, w, rng, ops| {
        for level in 0..scale.iters() {
            // Read the current frontier (shared, rotates per level so
            // CTAs alternately produce and consume it).
            ops.push(WarpOp::load_coalesced(frontier.block(level as u64), 32));
            // Divergent adjacency gather (skewed: high-degree hubs).
            ops.push_lanes(
                WarpOp::Load,
                (0..6).map(|_| adj.block(skewed_index(rng, &adj, 32, 0.5))),
            );
            ops.push(WarpOp::Compute(2));
            // Check visited (hot shared bitmap, read-dominated) and mark
            // only the genuinely new nodes.
            let checks: [Addr; 4] =
                std::array::from_fn(|_| visited.block(skewed_index(rng, &visited, 12, 0.7)));
            ops.push_lanes(WarpOp::Load, checks);
            ops.push_lanes(WarpOp::Load, checks[..2].iter().copied());
            // atomicOr the genuinely new (cold) nodes into the visited
            // bitmap, as the CUDA kernels do.
            ops.push_lanes(
                WarpOp::Atomic,
                (0..2).map(|_| visited.block(skewed_index(rng, &visited, 12, 0.05))),
            );
            // One warp per CTA claims the next frontier slot with an
            // atomic tail-pointer update.
            if w == 0 {
                ops.push(WarpOp::atomic_coalesced(
                    frontier.block(level as u64 + 1),
                    32,
                ));
            }
            ops.push(WarpOp::Fence);
        }
    })
}

/// Builds one BFS *level* as its own kernel (real BFS launches one kernel
/// per frontier level, with an implicit device-wide sync — and an L1
/// flush — between launches). Used by
/// [`Benchmark::build_phases`](crate::Benchmark::build_phases).
#[must_use]
pub fn bfs_level(scale: Scale, seed: u64, level: usize) -> VecKernel {
    let visited = Region::new(Addr(0), 64 * scale.data_factor());
    let adj = Region::new(visited.end(), 256 * scale.data_factor());
    let frontier = Region::new(adj.end(), 16 * scale.data_factor());
    assemble(
        &format!("BFS-L{level}"),
        scale,
        seed ^ (level as u64) << 32,
        move |_cta, w, rng, ops| {
            ops.push(WarpOp::load_coalesced(frontier.block(level as u64), 32));
            for _ in 0..3 {
                ops.push_lanes(
                    WarpOp::Load,
                    (0..6).map(|_| adj.block(skewed_index(rng, &adj, 32, 0.5))),
                );
                ops.push(WarpOp::Compute(2));
                ops.push_lanes(
                    WarpOp::Load,
                    (0..4).map(|_| visited.block(skewed_index(rng, &visited, 12, 0.7))),
                );
                ops.push_lanes(
                    WarpOp::Atomic,
                    (0..2).map(|_| visited.block(skewed_index(rng, &visited, 12, 0.05))),
                );
            }
            if w == 0 {
                ops.push(WarpOp::atomic_coalesced(
                    frontier.block(level as u64 + 1),
                    32,
                ));
            }
            ops.push(WarpOp::Fence);
        },
    )
}

/// Shared helper for tests: the set of block indices a program touches.
#[cfg(test)]
fn touched(k: &VecKernel, cta: u32, w: usize) -> std::collections::HashSet<u64> {
    use gtsc_gpu::Kernel;
    k.program(gtsc_types::CtaId(cta), w)
        .0
        .iter()
        .filter_map(|op| match op {
            WarpOp::Load(a) | WarpOp::Store(a) => Some(a.iter().map(|x| x.0 / BLOCK)),
            _ => None,
        })
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_has_divergent_gathers() {
        use gtsc_gpu::Kernel;
        let k = connected_components(Scale::Tiny, 7);
        let p = k.program(gtsc_types::CtaId(0), 0);
        let has_divergent = p.0.iter().any(|op| {
            if let WarpOp::Load(a) = op {
                let blocks: std::collections::HashSet<u64> =
                    a.iter().map(|x| x.0 / BLOCK).collect();
                blocks.len() > 1
            } else {
                false
            }
        });
        assert!(has_divergent, "CC must gather across blocks");
    }

    #[test]
    fn graph_warps_share_state() {
        let cc = connected_components(Scale::Tiny, 7);
        assert!(!touched(&cc, 0, 0).is_disjoint(&touched(&cc, 1, 0)));
        let bfs = bfs(Scale::Tiny, 9);
        assert!(!touched(&bfs, 0, 0).is_disjoint(&touched(&bfs, 1, 0)));
    }

    #[test]
    fn bfs_has_fences_every_level() {
        use gtsc_gpu::Kernel;
        let k = bfs(Scale::Tiny, 9);
        let p = k.program(gtsc_types::CtaId(0), 0);
        let fences = p.0.iter().filter(|op| matches!(op, WarpOp::Fence)).count();
        assert_eq!(fences, Scale::Tiny.iters());
    }
}
