//! The memory-access coalescing unit.
//!
//! Accesses by the lanes of a warp are merged into the minimum number of
//! block-granular transactions (Section II-A): lanes touching the same
//! cache block produce a single access. Order follows first touch, which
//! keeps the generated traffic deterministic.

use std::collections::VecDeque;

use gtsc_types::{Addr, BlockAddr};

/// Coalesces per-lane byte addresses into unique cache blocks
/// (first-touch order). `block_shift` is `log2(block_size)`.
///
/// # Examples
///
/// ```
/// use gtsc_gpu::coalesce;
/// use gtsc_types::{Addr, BlockAddr};
///
/// // 32 consecutive words (128 B) in one 128-B block: one transaction.
/// let addrs: Vec<Addr> = (0..32).map(|i| Addr(i * 4)).collect();
/// assert_eq!(coalesce(&addrs, 7), vec![BlockAddr(0)]);
///
/// // Strided by 128 B: fully divergent, one transaction per lane.
/// let addrs: Vec<Addr> = (0..4).map(|i| Addr(i * 128)).collect();
/// assert_eq!(coalesce(&addrs, 7).len(), 4);
/// ```
#[must_use]
pub fn coalesce(addrs: &[Addr], block_shift: u32) -> Vec<BlockAddr> {
    let mut out = VecDeque::new();
    coalesce_into(addrs, block_shift, &mut out);
    out.into()
}

/// [`coalesce`] into a warp's own block queue (emptied first), which is
/// reused instead of allocating per memory instruction.
pub(crate) fn coalesce_into(addrs: &[Addr], block_shift: u32, out: &mut VecDeque<BlockAddr>) {
    out.clear();
    let mut previous = None;
    // One bit per low block address seen so far: a clear bit means a new
    // block without the search (a gather's 32 lanes in 32 blocks would
    // otherwise pay 32 × 32 compares), a set bit proves nothing.
    let mut seen = 0u64;
    for a in addrs {
        let b = BlockAddr(a.0 >> block_shift);
        // A lane almost always falls in the block of the lane before it,
        // which is in `out` already: only a change of block is looked up.
        if previous != Some(b) {
            let bit = 1u64 << (b.0 % 64);
            if seen & bit == 0 || !out.contains(&b) {
                out.push_back(b);
            }
            seen |= bit;
        }
        previous = Some(b);
    }
}

/// [`coalesce_into`] for the `n` lanes `base + i·stride`, none wrapping
/// `u64`, without reading an address. The lanes are monotone, so a block
/// once left is never re-entered: first touch is a change of block, and
/// each step jumps to the first lane past the current block's edge in the
/// direction of travel — O(blocks), not O(lanes).
pub(crate) fn coalesce_affine_into(
    base: u64,
    stride: i64,
    n: u32,
    block_shift: u32,
    out: &mut VecDeque<BlockAddr>,
) {
    out.clear();
    let size = 1u64 << block_shift;
    let step = stride.unsigned_abs();
    let mut lane = 0u64;
    while lane < u64::from(n) {
        // Modular arithmetic lands on the true address: none wraps.
        let a = base.wrapping_add((stride as u64).wrapping_mul(lane));
        out.push_back(BlockAddr(a >> block_shift));
        if step == 0 {
            break;
        }
        let offset = a & (size - 1);
        let to_edge = if stride > 0 {
            size - offset
        } else {
            offset + 1
        };
        lane += to_edge.div_ceil(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input_coalesces_to_nothing() {
        assert!(coalesce(&[], 7).is_empty());
    }

    #[test]
    fn unaligned_warp_spans_two_blocks() {
        // 32 words starting 64 bytes into a block: straddles two lines.
        let addrs: Vec<Addr> = (0..32).map(|i| Addr(64 + i * 4)).collect();
        let blocks = coalesce(&addrs, 7);
        assert_eq!(blocks, vec![BlockAddr(0), BlockAddr(1)]);
    }

    #[test]
    fn first_touch_order_is_preserved() {
        let addrs = [Addr(300), Addr(10), Addr(300), Addr(200)];
        assert_eq!(
            coalesce(&addrs, 7),
            vec![BlockAddr(2), BlockAddr(0), BlockAddr(1)]
        );
    }

    /// A gather: 32 lanes in 32 distinct blocks come out as they went in,
    /// whether their filter bits are all different or all the same.
    #[test]
    fn a_gather_keeps_lane_order() {
        for stride in [1, 3, 64, 128] {
            let blocks: Vec<u64> = (0..32).map(|lane| 5 + lane * stride).collect();
            let addrs: Vec<Addr> = blocks.iter().map(|b| Addr((b << 7) + 4)).collect();
            let want: Vec<BlockAddr> = blocks.into_iter().map(BlockAddr).collect();
            assert_eq!(coalesce(&addrs, 7), want, "stride {stride}");
        }
    }

    proptest! {
        /// Output blocks are unique and every input lane is covered.
        #[test]
        fn unique_and_covering(addrs in proptest::collection::vec(0u64..1_000_000, 0..64)) {
            let addrs: Vec<Addr> = addrs.into_iter().map(Addr).collect();
            let blocks = coalesce(&addrs, 7);
            // Unique.
            let mut sorted: Vec<_> = blocks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), blocks.len());
            // Covering.
            for a in &addrs {
                prop_assert!(blocks.contains(&BlockAddr(a.0 >> 7)));
            }
            // Never more transactions than lanes.
            prop_assert!(blocks.len() <= addrs.len().max(1));
        }

        /// Skipping the lookup for a lane in its predecessor's block, or
        /// in a block whose filter bit is clear, changes nothing:
        /// first-touch order is what the naive walk gives, on lane vectors
        /// with runs, revisits and strides — over a few blocks, over a
        /// gather's worth of distinct ones, and over blocks 64 apart, which
        /// share a filter bit.
        #[test]
        fn fast_path_equals_the_naive_walk(
            lanes in proptest::collection::vec((0u64..40, 0u64..3, 0u64..128), 0..64),
            spread in 0usize..3,
            shift in 5u32..9,
        ) {
            // (block, run length, offset): runs of lanes in one block, with
            // blocks coming back after other blocks were touched.
            let addrs: Vec<Addr> = lanes
                .iter()
                .flat_map(|&(block, run, offset)| {
                    let block = [block % 6, block, block % 4 * 64 + block % 2][spread];
                    (0..=run).map(move |k| Addr((block << shift) + (offset + k) % (1 << shift)))
                })
                .collect();
            let mut naive: Vec<BlockAddr> = Vec::new();
            for a in &addrs {
                let b = BlockAddr(a.0 >> shift);
                if !naive.contains(&b) {
                    naive.push(b);
                }
            }
            prop_assert_eq!(coalesce(&addrs, shift), naive);
        }
    }
}
