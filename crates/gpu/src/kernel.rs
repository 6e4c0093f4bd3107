//! Kernel and warp-program representation.
//!
//! A workload is a [`Kernel`]: a grid of CTAs, each contributing a fixed
//! number of warps, each warp executing a [`WarpProgram`] — a straight
//! sequence of [`WarpOp`]s. This is a *memory-behaviour* representation
//! (the quantity that drives coherence studies), not a functional ISA:
//! arithmetic appears only as [`WarpOp::Compute`] delays.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use gtsc_types::{Addr, BlockAddr, CtaId};

use crate::coalesce::{coalesce_affine_into, coalesce_into};

/// The lane addresses of one memory instruction, in lane order.
///
/// An affine list — lane `i` at `base + i·stride` for one signed stride,
/// no address wrapping `u64` — is held as that triple; any other list is
/// held as its addresses (a gather). Every constructor picks the form from
/// the addresses alone, so equal lists are equal values, and a list reads,
/// coalesces and snapshots the same in either form.
///
/// # Examples
///
/// ```
/// use gtsc_gpu::Lanes;
/// use gtsc_types::Addr;
///
/// let words = Lanes::words(Addr(0x100), 32);
/// let listed: Lanes = (0..32).map(|i| Addr(0x100 + 4 * i)).collect();
/// assert_eq!(words, listed);
/// assert_eq!(words.heap_bytes(), 0);
///
/// let gather = Lanes::from(vec![Addr(0x80), Addr(0x300), Addr(0x100)]);
/// assert_eq!(gather.iter().collect::<Vec<_>>(), [Addr(0x80), Addr(0x300), Addr(0x100)]);
/// assert_eq!(gather.heap_bytes(), 24);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Lanes(Repr);

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// `n` lanes from `base` by `stride`; `stride` is 0 below two lanes
    /// and `base` 0 for none, so the triple is unique to its list.
    Affine {
        base: u64,
        stride: i64,
        n: u32,
    },
    Gather(Box<[Addr]>),
}

impl Lanes {
    /// `n` lanes reading consecutive 4-byte words from `base`: a fully
    /// coalesced access.
    #[must_use]
    pub fn words(base: Addr, n: usize) -> Lanes {
        match u32::try_from(n) {
            Ok(k) if k < 2 || base.0.checked_add(4 * u64::from(k - 1)).is_some() => {
                Lanes::line(base.0, 4, k)
            }
            _ => (0..n as u64).map(|i| base.offset(i * 4)).collect(),
        }
    }

    /// The canonical affine form of `n` lanes from `base` by `stride`.
    fn line(base: u64, stride: i64, n: u32) -> Lanes {
        let base = if n == 0 { 0 } else { base };
        let stride = if n < 2 { 0 } else { stride };
        Lanes(Repr::Affine { base, stride, n })
    }

    /// `addrs` as a line, if they step by one stride without wrapping.
    fn affine(addrs: &[Addr]) -> Option<Lanes> {
        let n = u32::try_from(addrs.len()).ok()?;
        let (base, stride) = match addrs {
            [] => (0, 0),
            [a] => (a.0, 0),
            [a, b, ..] => (a.0, i64::try_from(i128::from(b.0) - i128::from(a.0)).ok()?),
        };
        // Exact in `i128`: a list that would wrap `u64` is no line.
        let on_line = addrs
            .iter()
            .enumerate()
            .all(|(i, a)| i128::from(a.0) == i128::from(base) + i as i128 * i128::from(stride));
        on_line.then(|| Lanes::line(base, stride, n))
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Affine { n, .. } => *n as usize,
            Repr::Gather(addrs) => addrs.len(),
        }
    }

    /// Whether no lane takes part.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lane addresses, in lane order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Addr> + '_ {
        (0..self.len()).map(|i| match &self.0 {
            // Modular arithmetic lands on the true address: none wraps.
            Repr::Affine { base, stride, .. } => {
                Addr(base.wrapping_add((*stride as u64).wrapping_mul(i as u64)))
            }
            Repr::Gather(addrs) => addrs[i],
        })
    }

    /// Bytes of addresses held on the heap: a gather's, none for a line.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Affine { .. } => 0,
            Repr::Gather(addrs) => std::mem::size_of_val(&addrs[..]),
        }
    }

    /// Coalesces the lanes into `out` (emptied first), in first-touch
    /// order: a line arithmetically, a gather by [`coalesce_into`].
    pub(crate) fn coalesce_into(&self, block_shift: u32, out: &mut VecDeque<BlockAddr>) {
        match &self.0 {
            Repr::Affine { base, stride, n } => {
                coalesce_affine_into(*base, *stride, *n, block_shift, out);
            }
            Repr::Gather(addrs) => coalesce_into(addrs, block_shift, out),
        }
    }
}

impl From<Vec<Addr>> for Lanes {
    fn from(addrs: Vec<Addr>) -> Self {
        Lanes::affine(&addrs).unwrap_or_else(|| Lanes(Repr::Gather(addrs.into_boxed_slice())))
    }
}

impl FromIterator<Addr> for Lanes {
    fn from_iter<T: IntoIterator<Item = Addr>>(iter: T) -> Self {
        Lanes::from(iter.into_iter().collect::<Vec<_>>())
    }
}

/// Prints the list, whichever form holds it.
impl fmt::Debug for Lanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One warp-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarpOp {
    /// A global load; one address per participating lane (divergent lanes
    /// simply contribute no address).
    Load(Lanes),
    /// A global store; one address per participating lane.
    Store(Lanes),
    /// A global atomic read-modify-write (e.g. `atomicMin`/`atomicOr`);
    /// one address per participating lane. Performed at the L2; the warp
    /// blocks until the old value returns.
    Atomic(Lanes),
    /// A compute burst occupying the warp for the given number of cycles.
    Compute(u32),
    /// A full memory fence: orders all earlier memory operations of this
    /// warp before all later ones (release + acquire combined). Under SC
    /// it is a no-op by construction.
    Fence,
    /// A release fence: all earlier *stores and atomics* of this warp must
    /// be globally performed before any later operation issues. The
    /// cheaper half used to publish data before a flag write.
    ReleaseFence,
    /// An acquire fence: all earlier *loads and atomics* of this warp must
    /// have returned before any later operation issues. Pairs with a flag
    /// read before consuming published data.
    AcquireFence,
    /// CTA-wide barrier: the warp waits until every warp of its CTA
    /// arrives.
    Barrier,
}

impl WarpOp {
    /// Convenience constructor: a fully coalesced load where all 32 lanes
    /// read consecutive 4-byte words starting at `base`.
    #[must_use]
    pub fn load_coalesced(base: Addr, lanes: usize) -> WarpOp {
        WarpOp::Load(Lanes::words(base, lanes))
    }

    /// Convenience constructor: a fully coalesced store.
    #[must_use]
    pub fn store_coalesced(base: Addr, lanes: usize) -> WarpOp {
        WarpOp::Store(Lanes::words(base, lanes))
    }

    /// Convenience constructor: an atomic where all lanes hit consecutive
    /// words starting at `base` (coalescing into one RMW transaction).
    #[must_use]
    pub fn atomic_coalesced(base: Addr, lanes: usize) -> WarpOp {
        WarpOp::Atomic(Lanes::words(base, lanes))
    }

    /// Whether this op is a load, store, or atomic.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(self, WarpOp::Load(_) | WarpOp::Store(_) | WarpOp::Atomic(_))
    }
}

/// The instruction stream of one warp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpProgram(pub Vec<WarpOp>);

impl WarpProgram {
    /// An empty program (the warp retires immediately).
    #[must_use]
    pub fn new() -> Self {
        WarpProgram(Vec::new())
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the program has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<WarpOp> for WarpProgram {
    fn from_iter<T: IntoIterator<Item = WarpOp>>(iter: T) -> Self {
        WarpProgram(iter.into_iter().collect())
    }
}

/// A warp's place in its program: what a warp slot holds. The program is
/// shared with the kernel — dispatch copies a handle, issue advances `pc`
/// — so no instruction (nor a gather's addresses) is cloned or freed
/// while it runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProgramCursor {
    /// `None` in a slot that was never dispatched into.
    program: Option<Arc<WarpProgram>>,
    pc: usize,
}

impl ProgramCursor {
    pub(crate) fn new(program: Arc<WarpProgram>) -> Self {
        ProgramCursor {
            program: Some(program),
            pc: 0,
        }
    }

    /// Consumes the first remaining instruction (there must be one).
    pub(crate) fn advance(&mut self) {
        debug_assert!(!self.is_empty(), "advanced past the end of the program");
        self.pc += 1;
    }
}

/// The instructions not yet issued.
impl std::ops::Deref for ProgramCursor {
    type Target = [WarpOp];

    fn deref(&self) -> &[WarpOp] {
        self.program.as_deref().map_or(&[], |p| &p.0[self.pc..])
    }
}

/// A GPU kernel: a grid of CTAs, each of `warps_per_cta` warps.
///
/// Implementations must be deterministic: `shared_program(cta, w)` is
/// called once per warp when the CTA is dispatched to an SM.
pub trait Kernel {
    /// Human-readable kernel name (used in experiment output).
    fn name(&self) -> &str;

    /// CTAs in the grid.
    fn n_ctas(&self) -> usize;

    /// Warps per CTA.
    fn warps_per_cta(&self) -> usize;

    /// The instruction stream of warp `warp_in_cta` of CTA `cta`.
    fn program(&self, cta: CtaId, warp_in_cta: usize) -> WarpProgram;

    /// The same stream as a handle dispatch can give a warp slot. A
    /// kernel that keeps its programs overrides this to share them.
    fn shared_program(&self, cta: CtaId, warp_in_cta: usize) -> Arc<WarpProgram> {
        Arc::new(self.program(cta, warp_in_cta))
    }
}

/// A kernel described by an explicit table of programs — handy for tests
/// and litmus workloads.
///
/// # Examples
///
/// ```
/// use gtsc_gpu::{Kernel, VecKernel, WarpOp, WarpProgram};
/// use gtsc_types::{Addr, CtaId};
///
/// // Two CTAs of one warp each: a message-passing litmus pair.
/// let k = VecKernel::new(
///     "mp",
///     1,
///     vec![
///         vec![WarpProgram(vec![
///             WarpOp::store_coalesced(Addr(0), 32),
///             WarpOp::Fence,
///             WarpOp::store_coalesced(Addr(128), 32),
///         ])],
///         vec![WarpProgram(vec![
///             WarpOp::load_coalesced(Addr(128), 32),
///             WarpOp::Fence,
///             WarpOp::load_coalesced(Addr(0), 32),
///         ])],
///     ],
/// );
/// assert_eq!(k.n_ctas(), 2);
/// assert_eq!(k.program(CtaId(0), 0).len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct VecKernel {
    name: String,
    warps_per_cta: usize,
    /// Each program once, shared with every warp slot running it.
    ctas: Vec<Vec<Arc<WarpProgram>>>,
}

impl VecKernel {
    /// Builds a kernel from explicit per-CTA, per-warp programs.
    ///
    /// # Panics
    ///
    /// Panics if any CTA has a different number of warp programs than
    /// `warps_per_cta`.
    #[must_use]
    pub fn new(name: &str, warps_per_cta: usize, ctas: Vec<Vec<WarpProgram>>) -> Self {
        assert!(
            ctas.iter().all(|c| c.len() == warps_per_cta),
            "every CTA must have exactly warps_per_cta programs"
        );
        // Wraps each program where it is: no instruction is copied.
        let share = |cta: Vec<WarpProgram>| cta.into_iter().map(Arc::new).collect();
        VecKernel {
            name: name.to_owned(),
            warps_per_cta,
            ctas: ctas.into_iter().map(share).collect(),
        }
    }
}

impl Kernel for VecKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn n_ctas(&self) -> usize {
        self.ctas.len()
    }

    fn warps_per_cta(&self) -> usize {
        self.warps_per_cta
    }

    fn program(&self, cta: CtaId, warp_in_cta: usize) -> WarpProgram {
        WarpProgram::clone(&self.ctas[cta.0 as usize][warp_in_cta])
    }

    fn shared_program(&self, cta: CtaId, warp_in_cta: usize) -> Arc<WarpProgram> {
        Arc::clone(&self.ctas[cta.0 as usize][warp_in_cta])
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

/// A cursor is saved as the instructions it has left, `(len, items)` —
/// byte for byte what the `VecDeque<WarpOp>` it replaced wrote — and
/// restored as a program of its own that starts there.
impl Snap for ProgramCursor {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        self.iter().for_each(|op| op.save(w));
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ProgramCursor::new(Arc::new(WarpProgram(Snap::load(r)?))))
    }
}

/// Saved as the expanded list, `(len, addrs)` — byte for byte what a
/// `Vec<Addr>` writes — and loaded through `From<Vec<Addr>>`.
impl Snap for Lanes {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        self.iter().for_each(|a| a.save(w));
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Lanes::from(Vec::<Addr>::load(r)?))
    }
}

impl Snap for WarpOp {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            WarpOp::Load(a) => {
                w.u8(0);
                a.save(w);
            }
            WarpOp::Store(a) => {
                w.u8(1);
                a.save(w);
            }
            WarpOp::Atomic(a) => {
                w.u8(2);
                a.save(w);
            }
            WarpOp::Compute(c) => {
                w.u8(3);
                c.save(w);
            }
            WarpOp::Fence => w.u8(4),
            WarpOp::ReleaseFence => w.u8(5),
            WarpOp::AcquireFence => w.u8(6),
            WarpOp::Barrier => w.u8(7),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(WarpOp::Load(Snap::load(r)?)),
            1 => Ok(WarpOp::Store(Snap::load(r)?)),
            2 => Ok(WarpOp::Atomic(Snap::load(r)?)),
            3 => Ok(WarpOp::Compute(Snap::load(r)?)),
            4 => Ok(WarpOp::Fence),
            5 => Ok(WarpOp::ReleaseFence),
            6 => Ok(WarpOp::AcquireFence),
            7 => Ok(WarpOp::Barrier),
            other => Err(SnapshotError::Malformed {
                context: format!("WarpOp tag {other}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce;
    use proptest::prelude::*;

    fn snap_bytes(v: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    /// What the SM coalesces a list into, through its compact form.
    fn coalesced(lanes: &Lanes, shift: u32) -> Vec<BlockAddr> {
        let mut out = VecDeque::new();
        lanes.coalesce_into(shift, &mut out);
        out.into()
    }

    /// `addrs` through `Lanes` reads, coalesces, snapshots and restores
    /// exactly as the plain list does, and is the value any other
    /// constructor gives the same list.
    fn check_differential(addrs: &[Addr], shift: u32) -> Result<Lanes, TestCaseError> {
        let lanes = Lanes::from(addrs.to_vec());
        prop_assert_eq!(lanes.len(), addrs.len());
        prop_assert_eq!(lanes.is_empty(), addrs.is_empty());
        prop_assert_eq!(lanes.iter().collect::<Vec<_>>(), addrs.to_vec());
        prop_assert_eq!(coalesced(&lanes, shift), coalesce(addrs, shift));
        let bytes = snap_bytes(&lanes);
        prop_assert_eq!(&bytes, &snap_bytes(&addrs.to_vec()));
        let restored = Lanes::load(&mut SnapReader::new(&bytes)).expect("loads");
        prop_assert_eq!(&restored, &lanes);
        prop_assert_eq!(&addrs.iter().copied().collect::<Lanes>(), &lanes);
        Ok(lanes)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// Lines — positive, negative and zero strides, strides about a
        /// block wide and wider, starting on and beside a block edge, none
        /// to 70 lanes, from both ends of the address space so some would
        /// wrap `u64` — and gathers, some one lane off a line: `Lanes` is
        /// the list it was built from in every respect the simulator can
        /// observe, and a line is held without its addresses exactly when
        /// it does not wrap.
        #[test]
        fn lanes_are_their_list(
            shape in (0u64..5, 0u64..3, 0u64..1 << 40),
            line in (0u64..12, 0usize..71, 0u64..6),
            geometry in (5u32..9, 0u64..4096, 1u64..300),
        ) {
            let (kind, end, far) = shape;
            let (pick, n, edge) = line;
            let (shift, low, any) = geometry;
            let size = 1u64 << shift;
            let magnitude =
                [1, 3, 4, 8, size / 2, size - 4, size, size + 4, 2 * size, 3 * size + 8, any, any]
                    [pick as usize];
            let start = [low, far, u64::MAX - low][end as usize];
            let offset = [0, 1, size - 1, size - 2, start % size, start % size][edge as usize];
            let base = start - start % size + offset;
            let stride = match kind {
                0 | 4 => magnitude as i64,
                1 => -(magnitude as i64),
                _ => 0, // a gather (3) has none
            };
            let line = |i: usize| base.wrapping_add((stride as u64).wrapping_mul(i as u64));
            let addrs: Vec<Addr> = match kind {
                3 => (0..n)
                    .map(|i| Addr(base.wrapping_add((i as u64 * 2_654_435_761 + far) % 2048)))
                    .collect(),
                4 => (0..n)
                    .map(|i| Addr(line(i).wrapping_add(u64::from(i == n / 2 && n > 2))))
                    .collect(),
                _ => (0..n).map(|i| Addr(line(i))).collect(),
            };
            let lanes = check_differential(&addrs, shift)?;
            if kind <= 2 {
                let last = i128::from(base) + (n.max(1) as i128 - 1) * i128::from(stride);
                let wraps = last < 0 || last > i128::from(u64::MAX);
                prop_assert_eq!(lanes.heap_bytes() == 0, !wraps);
            }
            if kind == 4 && n > 2 {
                prop_assert_eq!(lanes.heap_bytes(), 8 * n);
            }
        }
    }

    #[test]
    fn edge_lists_match_their_plain_form() {
        let top = u64::MAX;
        let lists: [&[u64]; 8] = [
            &[],
            &[7],
            &[top],
            // One block, then a stride wider than a block.
            &[0, 4, 8, 12],
            &[0, 1000, 2000, 3000],
            // An affine extension that would wrap `u64`, either way.
            &[top - 4, top, 3],
            &[4, 0, top - 3],
            // A stride that does not fit `i64`.
            &[0, top],
        ];
        for list in lists {
            let addrs: Vec<Addr> = list.iter().copied().map(Addr).collect();
            for shift in [5, 7] {
                check_differential(&addrs, shift).expect("differential");
            }
        }
        assert_eq!(
            Lanes::from(vec![Addr(top - 4), Addr(top), Addr(3)]).heap_bytes(),
            24
        );
        assert_eq!(Lanes::from(vec![Addr(0), Addr(top)]).heap_bytes(), 16);
        assert_eq!(Lanes::from(vec![Addr(top), Addr(top - 8)]).heap_bytes(), 0);
        // The one descending line the i64 range admits end to end.
        let far = Lanes::from(vec![Addr(1 << 63), Addr(0)]);
        assert_eq!(far.heap_bytes(), 0);
        assert_eq!(coalesced(&far, 7), [BlockAddr(1 << 56), BlockAddr(0)]);
    }

    #[test]
    fn words_are_the_collected_list() {
        for (base, n) in [(0, 0), (256, 1), (64, 32), (4, 70), (u64::MAX - 12, 4)] {
            let listed: Lanes = (0..n).map(|i| Addr(base + 4 * i)).collect();
            assert_eq!(Lanes::words(Addr(base), n as usize), listed);
            assert_eq!(listed.heap_bytes(), 0);
        }
    }

    /// A program holds an instruction in four words, and a line keeps
    /// nothing beside them.
    #[test]
    fn a_memory_instruction_fits_in_four_words() {
        assert!(std::mem::size_of::<WarpOp>() <= 32);
        assert_eq!(Lanes::words(Addr(0), 32).heap_bytes(), 0);
    }

    #[test]
    fn coalesced_constructors_touch_consecutive_words() {
        let WarpOp::Load(lanes) = WarpOp::load_coalesced(Addr(256), 32) else {
            panic!()
        };
        let addrs: Vec<Addr> = lanes.iter().collect();
        assert_eq!(addrs.len(), 32);
        assert_eq!(addrs[0], Addr(256));
        assert_eq!(addrs[31], Addr(256 + 31 * 4));
        assert!(WarpOp::load_coalesced(Addr(0), 4).is_memory());
        assert!(!WarpOp::Compute(3).is_memory());
    }

    #[test]
    fn warp_program_collects() {
        let p: WarpProgram = (0..3).map(|_| WarpOp::Compute(1)).collect();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(WarpProgram::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "exactly warps_per_cta")]
    fn vec_kernel_validates_shape() {
        let _ = VecKernel::new("bad", 2, vec![vec![WarpProgram::new()]]);
    }
}
