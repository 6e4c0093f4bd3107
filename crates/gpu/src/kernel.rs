//! Kernel and warp-program representation.
//!
//! A workload is a [`Kernel`]: a grid of CTAs, each contributing a fixed
//! number of warps, each warp executing a [`WarpProgram`] — a straight
//! sequence of [`WarpOp`]s. This is a *memory-behaviour* representation
//! (the quantity that drives coherence studies), not a functional ISA:
//! arithmetic appears only as [`WarpOp::Compute`] delays.

use std::sync::Arc;

use gtsc_types::{Addr, CtaId};

/// One warp-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarpOp {
    /// A global load; one address per participating lane (divergent lanes
    /// simply contribute no address).
    Load(Vec<Addr>),
    /// A global store; one address per participating lane.
    Store(Vec<Addr>),
    /// A global atomic read-modify-write (e.g. `atomicMin`/`atomicOr`);
    /// one address per participating lane. Performed at the L2; the warp
    /// blocks until the old value returns.
    Atomic(Vec<Addr>),
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
        WarpOp::Load((0..lanes as u64).map(|i| base.offset(i * 4)).collect())
    }

    /// Convenience constructor: a fully coalesced store.
    #[must_use]
    pub fn store_coalesced(base: Addr, lanes: usize) -> WarpOp {
        WarpOp::Store((0..lanes as u64).map(|i| base.offset(i * 4)).collect())
    }

    /// Convenience constructor: an atomic where all lanes hit consecutive
    /// words starting at `base` (coalescing into one RMW transaction).
    #[must_use]
    pub fn atomic_coalesced(base: Addr, lanes: usize) -> WarpOp {
        WarpOp::Atomic((0..lanes as u64).map(|i| base.offset(i * 4)).collect())
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
/// — so no instruction (and no lane-address vector) is cloned or freed
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

    #[test]
    fn coalesced_constructors_touch_consecutive_words() {
        let WarpOp::Load(addrs) = WarpOp::load_coalesced(Addr(256), 32) else {
            panic!()
        };
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
