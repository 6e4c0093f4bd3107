//! Address-space layout helpers, workload scales, and the generator
//! assembly harness.

use gtsc_gpu::{ProgramEncoder, VecKernel};
use gtsc_types::Addr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a [`VecKernel`] by invoking `gen(cta, warp, rng, ops)` for every
/// warp with a deterministic per-warp RNG derived from `seed`. `gen`
/// pushes the warp's instructions into `ops`, which codes each as it
/// comes, in buffers reused across warps: no program is held expanded.
pub fn assemble(
    name: &str,
    scale: Scale,
    seed: u64,
    mut gen: impl FnMut(u64, u64, &mut StdRng, &mut ProgramEncoder),
) -> VecKernel {
    let mut ops = ProgramEncoder::default();
    let ctas = (0..scale.ctas() as u64)
        .map(|cta| {
            (0..scale.warps_per_cta() as u64)
                .map(|w| {
                    let mut rng = StdRng::seed_from_u64(
                        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (cta << 20) ^ w,
                    );
                    gen(cta, w, &mut rng, &mut ops);
                    ops.finish()
                })
                .collect()
        })
        .collect();
    VecKernel::from_coded(name, scale.warps_per_cta(), ctas)
}

/// Cache-block size assumed by the generators (matches the paper's 128 B
/// lines; the simulator coalesces at its own configured size, so this is
/// only a layout granularity).
pub const BLOCK: u64 = 128;

/// How big a benchmark instance to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// 2 CTAs × 2 warps, a handful of iterations — unit tests.
    Tiny,
    /// 8 CTAs × 4 warps — integration tests and quick benches.
    Small,
    /// 48 CTAs × 8 warps — the figure/table experiments (three dispatch
    /// waves on the paper's 16-SM GPU).
    Full,
    /// A fully custom instance (e.g. to stretch runs for lease-regime
    /// studies, or to match a different GPU configuration).
    Custom {
        /// CTAs in the grid.
        ctas: usize,
        /// Warps per CTA.
        warps_per_cta: usize,
        /// Outer iterations per warp.
        iters: usize,
        /// Size multiplier for shared data structures.
        data_factor: u64,
    },
}

impl Scale {
    /// CTAs in the grid.
    #[must_use]
    pub fn ctas(self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Small => 8,
            Scale::Full => 48,
            Scale::Custom { ctas, .. } => ctas,
        }
    }

    /// Warps per CTA.
    #[must_use]
    pub fn warps_per_cta(self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Small => 4,
            Scale::Full => 8,
            Scale::Custom { warps_per_cta, .. } => warps_per_cta,
        }
    }

    /// Outer iterations each warp performs.
    #[must_use]
    pub fn iters(self) -> usize {
        match self {
            Scale::Tiny => 4,
            Scale::Small => 10,
            Scale::Full => 24,
            Scale::Custom { iters, .. } => iters,
        }
    }

    /// Size multiplier for shared data structures.
    #[must_use]
    pub fn data_factor(self) -> u64 {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 4,
            Scale::Full => 16,
            Scale::Custom { data_factor, .. } => data_factor,
        }
    }
}

/// Picks a block index with hot-set skew: with probability `p_hot` the
/// index falls in the first `hot` blocks of the region (the hot working
/// set real irregular applications exhibit), otherwise anywhere.
///
/// Skew is what gives graph-style workloads their L1 reuse — and what
/// exposes the protocol differences: hot shared blocks keep live leases,
/// so TC writes stall on them while G-TSC reschedules logically.
pub fn skewed_index(rng: &mut impl rand::Rng, region: &Region, hot: u64, p_hot: f64) -> u64 {
    if rng.gen_bool(p_hot) {
        rng.gen_range(0..hot.min(region.len()))
    } else {
        rng.gen_range(0..region.len())
    }
}

/// A contiguous, block-aligned memory region.
///
/// # Examples
///
/// ```
/// use gtsc_workloads::Region;
/// use gtsc_types::Addr;
///
/// let r = Region::new(Addr(0x1000), 8);
/// assert_eq!(r.block(0), Addr(0x1000));
/// assert_eq!(r.block(9), Addr(0x1000 + 128)); // wraps modulo length
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: Addr,
    n_blocks: u64,
}

impl Region {
    /// A region of `n_blocks` cache blocks starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero.
    #[must_use]
    pub fn new(base: Addr, n_blocks: u64) -> Self {
        assert!(n_blocks > 0, "region must have at least one block");
        Region { base, n_blocks }
    }

    /// Number of blocks in the region.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n_blocks
    }

    /// Whether the region is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Address of block `i` (wrapping modulo the region length, so
    /// generators can index freely).
    #[must_use]
    pub fn block(&self, i: u64) -> Addr {
        self.base.offset((i % self.n_blocks) * BLOCK)
    }

    /// The first address past the region (for stacking regions).
    #[must_use]
    pub fn end(&self) -> Addr {
        self.base.offset(self.n_blocks * BLOCK)
    }

    /// Splits off a per-entity subregion: entity `i` of `n` gets an equal
    /// slice (at least one block).
    #[must_use]
    pub fn slice(&self, i: u64, n: u64) -> Region {
        let per = (self.n_blocks / n.max(1)).max(1);
        Region {
            base: self.base.offset((i % n.max(1)) * per * BLOCK),
            n_blocks: per,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_block_aligned_and_wrap() {
        let r = Region::new(Addr(0), 4);
        assert_eq!(r.block(3), Addr(3 * 128));
        assert_eq!(r.block(4), Addr(0));
        assert_eq!(r.end(), Addr(512));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn slices_partition() {
        let r = Region::new(Addr(0), 8);
        let a = r.slice(0, 4);
        let b = r.slice(1, 4);
        assert_eq!(a.len(), 2);
        assert_eq!(a.end(), b.block(0));
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Tiny.ctas() < Scale::Small.ctas());
        assert!(Scale::Small.ctas() < Scale::Full.ctas());
        assert!(Scale::Tiny.iters() < Scale::Full.iters());
    }

    #[test]
    fn custom_scale_passes_through() {
        let s = Scale::Custom {
            ctas: 5,
            warps_per_cta: 3,
            iters: 77,
            data_factor: 9,
        };
        assert_eq!(s.ctas(), 5);
        assert_eq!(s.warps_per_cta(), 3);
        assert_eq!(s.iters(), 77);
        assert_eq!(s.data_factor(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_region_rejected() {
        let _ = Region::new(Addr(0), 0);
    }
}
