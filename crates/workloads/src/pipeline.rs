//! DLP — a cross-CTA producer/consumer pipeline (group A).
//!
//! CTA *i* produces a tile of blocks, fences, publishes a flag, then
//! consumes the tile produced by CTA *i − 1* (checking its flag first).
//! This is the classic inter-SM message-passing pattern: without
//! coherence the consumer can read a stale tile even after seeing the
//! flag.

use gtsc_gpu::{VecKernel, WarpOp};
use gtsc_types::Addr;
use rand::Rng;

use crate::layout::{assemble, Region, Scale};

/// Builds the DLP kernel.
#[must_use]
pub fn producer_consumer(scale: Scale, seed: u64) -> VecKernel {
    let n_ctas = scale.ctas() as u64;
    let tile_blocks = 6u64;
    let tiles = Region::new(Addr(0), n_ctas * tile_blocks * 2);
    let flags = Region::new(tiles.end(), n_ctas * 2);
    assemble("DLP", scale, seed, move |cta, w, rng, ops| {
        for round in 0..scale.iters() as u64 {
            let my_tile = cta + round * n_ctas;
            let prev_tile = (cta + n_ctas - 1) % n_ctas + round * n_ctas;
            // Produce my tile slice (warps split the tile).
            let blk = my_tile * tile_blocks + (w % tile_blocks);
            ops.push(WarpOp::Compute(4 + rng.gen_range(0..4)));
            ops.push(WarpOp::store_coalesced(tiles.block(blk), 32));
            ops.push(WarpOp::Fence);
            // Publish the flag (warp 0 of the CTA).
            if w == 0 {
                ops.push(WarpOp::store_coalesced(flags.block(my_tile), 32));
                ops.push(WarpOp::Fence);
            }
            ops.push(WarpOp::Barrier);
            // Consume the neighbour's tile: flag first, then data.
            ops.push(WarpOp::load_coalesced(flags.block(prev_tile), 32));
            ops.push(WarpOp::Fence);
            for b in 0..2 {
                ops.push(WarpOp::load_coalesced(
                    tiles.block(prev_tile * tile_blocks + (w + b) % tile_blocks),
                    32,
                ));
            }
            ops.push(WarpOp::Compute(3));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_gpu::Kernel;
    use gtsc_types::CtaId;

    #[test]
    fn producer_and_consumer_overlap_across_ctas() {
        let k = producer_consumer(Scale::Tiny, 3);
        let stores = |cta: u32| -> std::collections::HashSet<u64> {
            k.program(CtaId(cta), 0)
                .0
                .iter()
                .filter_map(|op| match op {
                    WarpOp::Store(a) => Some(a.iter().next().unwrap().0 / 128),
                    _ => None,
                })
                .collect()
        };
        let loads = |cta: u32| -> std::collections::HashSet<u64> {
            k.program(CtaId(cta), 0)
                .0
                .iter()
                .filter_map(|op| match op {
                    WarpOp::Load(a) => Some(a.iter().next().unwrap().0 / 128),
                    _ => None,
                })
                .collect()
        };
        // CTA 1 reads what CTA 0 writes.
        assert!(
            !stores(0).is_disjoint(&loads(1)),
            "cross-CTA RW sharing expected"
        );
    }

    #[test]
    fn flags_are_fenced_before_and_after() {
        let k = producer_consumer(Scale::Tiny, 3);
        let p = k.program(CtaId(0), 0);
        // Every store is eventually followed by a fence before the barrier.
        let mut saw_store = false;
        let mut fenced = false;
        for op in &p.0 {
            match op {
                WarpOp::Store(_) => {
                    saw_store = true;
                    fenced = false;
                }
                WarpOp::Fence => fenced = true,
                WarpOp::Barrier => {
                    assert!(
                        !saw_store || fenced,
                        "stores must be fenced before the barrier"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn has_barriers_each_round() {
        let k = producer_consumer(Scale::Tiny, 3);
        let p = k.program(CtaId(0), 1);
        let barriers =
            p.0.iter()
                .filter(|op| matches!(op, WarpOp::Barrier))
                .count();
        assert_eq!(barriers, Scale::Tiny.iters());
    }
}
