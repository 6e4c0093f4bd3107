//! Kernel and warp-program representation.
//!
//! A workload is a [`Kernel`]: a grid of CTAs, each contributing a fixed
//! number of warps, each warp executing a [`WarpProgram`] — a straight
//! sequence of [`WarpOp`]s. This is a *memory-behaviour* representation
//! (the quantity that drives coherence studies), not a functional ISA:
//! arithmetic appears only as [`WarpOp::Compute`] delays. A kernel
//! keeps each program as a [`CodedProgram`], a few bytes per
//! instruction, which a warp slot decodes one instruction at a time.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use gtsc_types::varint::{self, unzigzag, zigzag};
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

/// Tags of the coded stream: a [`WarpOp`]'s snapshot tag, with
/// [`GATHER`] set on a memory instruction whose lanes are no line.
const LOAD: u8 = 0;
const STORE: u8 = 1;
const ATOMIC: u8 = 2;
const COMPUTE: u8 = 3;
const FENCE: u8 = 4;
const RELEASE_FENCE: u8 = 5;
const ACQUIRE_FENCE: u8 = 6;
const BARRIER: u8 = 7;
const GATHER: u8 = 8;

impl WarpOp {
    /// The tag the stream and the snapshot both give this op.
    fn tag(&self) -> u8 {
        match self {
            WarpOp::Load(_) => LOAD,
            WarpOp::Store(_) => STORE,
            WarpOp::Atomic(_) => ATOMIC,
            WarpOp::Compute(_) => COMPUTE,
            WarpOp::Fence => FENCE,
            WarpOp::ReleaseFence => RELEASE_FENCE,
            WarpOp::AcquireFence => ACQUIRE_FENCE,
            WarpOp::Barrier => BARRIER,
        }
    }

    /// A memory instruction's lanes.
    fn lanes(&self) -> Option<&Lanes> {
        match self {
            WarpOp::Load(a) | WarpOp::Store(a) | WarpOp::Atomic(a) => Some(a),
            _ => None,
        }
    }
}

/// The most bytes a `u64`'s varint takes.
const MAX_VARINT: usize = 10;

/// Reads the `n` lanes of a gather whose deltas start at byte `at` into
/// `out` (emptied first).
fn read_gather(code: &[u8], mut at: usize, n: u32, out: &mut Vec<Addr>) {
    out.clear();
    let mut addr = 0u64;
    for _ in 0..n {
        addr = addr.wrapping_add(unzigzag(varint::get(code, &mut at)));
        out.push(Addr(addr));
    }
}

/// A warp program as a kernel keeps it and a warp slot runs it: one byte
/// stream in one exact-size allocation, shared by handle (DESIGN.md
/// §15.5). The stream is the instruction count, then each instruction on
/// its own: a tag byte, then `Compute`'s cycles, a line's base, zigzagged
/// stride and lane count, or a gather's lane count and zigzagged address
/// deltas — every number an LEB128 varint. 32 words read from a low
/// address take six bytes, where a [`WarpOp`] takes 32.
///
/// # Examples
///
/// ```
/// use gtsc_gpu::{CodedProgram, WarpOp, WarpProgram};
/// use gtsc_types::Addr;
///
/// let program = WarpProgram(vec![
///     WarpOp::load_coalesced(Addr(0x4000), 32),
///     WarpOp::Compute(2),
///     WarpOp::Fence,
/// ]);
/// let coded = CodedProgram::from(program.clone());
/// assert_eq!(coded.len(), 3);
/// assert_eq!(coded.bytes(), 1 + 6 + 2 + 1);
/// assert_eq!(coded.decode(), program);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodedProgram(Arc<[u8]>);

impl CodedProgram {
    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.start().0
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the stream: what the program holds beside its handle.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.0.len()
    }

    /// The instructions, expanded.
    #[must_use]
    pub fn decode(&self) -> WarpProgram {
        let (n, at) = self.start();
        WarpProgram(self.expand(at, n).collect())
    }

    /// The instruction count, and the byte the first instruction starts
    /// at. An empty stream (the default) has none.
    fn start(&self) -> (usize, usize) {
        let mut at = 0;
        if self.0.is_empty() {
            return (0, 0);
        }
        (varint::get(&self.0, &mut at) as usize, at)
    }

    /// The `n` instructions from byte `at` on, expanded.
    fn expand(&self, mut at: usize, n: usize) -> impl Iterator<Item = WarpOp> + '_ {
        (0..n).map(move |_| Instr::read(&self.0, &mut at).expand(&self.0))
    }
}

impl From<WarpProgram> for CodedProgram {
    fn from(program: WarpProgram) -> Self {
        ProgramEncoder::default().encode(&program)
    }
}

/// Builds [`CodedProgram`]s one instruction at a time, in a buffer kept
/// across programs: a generator pushes a warp's instructions and takes
/// its program, and never holds them expanded.
///
/// # Examples
///
/// ```
/// use gtsc_gpu::{ProgramEncoder, WarpOp, WarpProgram};
/// use gtsc_types::Addr;
///
/// let mut ops = ProgramEncoder::default();
/// ops.push(WarpOp::store_coalesced(Addr(0), 32));
/// ops.push(WarpOp::Barrier);
/// let first = ops.finish();
/// ops.push(WarpOp::Compute(9));
/// let second = ops.finish();
/// assert_eq!(
///     first.decode(),
///     WarpProgram(vec![WarpOp::store_coalesced(Addr(0), 32), WarpOp::Barrier])
/// );
/// assert_eq!(second.decode(), WarpProgram(vec![WarpOp::Compute(9)]));
/// ```
#[derive(Debug)]
pub struct ProgramEncoder {
    /// Room for the instruction count's varint, then the instructions
    /// pushed since the last `finish`, coded: `finish` writes the count
    /// right-aligned in the room, so the program is one contiguous copy.
    buf: Vec<u8>,
    n: u64,
    /// The lanes of the instruction [`ProgramEncoder::push_lanes`] codes.
    lanes: Vec<Addr>,
}

impl Default for ProgramEncoder {
    fn default() -> Self {
        ProgramEncoder {
            buf: vec![0; MAX_VARINT],
            n: 0,
            lanes: Vec::new(),
        }
    }
}

impl ProgramEncoder {
    /// Appends `op` to the program being built.
    pub fn push(&mut self, op: WarpOp) {
        self.put(&op);
    }

    /// Appends the memory instruction `op` makes of the lanes `addrs`,
    /// coded as `push(op(addrs.into_iter().collect()))` codes it — a line
    /// when the lanes step by one stride, a gather otherwise — without
    /// boxing a gather: the lanes pass through a buffer the encoder keeps.
    pub fn push_lanes(&mut self, op: fn(Lanes) -> WarpOp, addrs: impl IntoIterator<Item = Addr>) {
        // The tag of `op`'s kind, read off an instruction with no lanes.
        let tag = op(Lanes::line(0, 0, 0)).tag();
        self.lanes.clear();
        self.lanes.extend(addrs);
        self.n += 1;
        match Lanes::affine(&self.lanes) {
            Some(Lanes(Repr::Affine { base, stride, n })) => {
                put_line(&mut self.buf, tag, base, stride, n);
            }
            _ => put_gather(&mut self.buf, tag, &self.lanes),
        }
    }

    fn put(&mut self, op: &WarpOp) {
        self.n += 1;
        let out = &mut self.buf;
        match op.lanes().map(|lanes| &lanes.0) {
            None => {
                out.push(op.tag());
                if let WarpOp::Compute(c) = op {
                    varint::put(out, u64::from(*c));
                }
            }
            Some(&Repr::Affine { base, stride, n }) => put_line(out, op.tag(), base, stride, n),
            Some(Repr::Gather(addrs)) => put_gather(out, op.tag(), addrs),
        }
    }

    /// The program pushed since the last call, in an allocation of its
    /// exact size; the encoder starts the next one empty.
    pub fn finish(&mut self) -> CodedProgram {
        let bits = 64 - (self.n | 1).leading_zeros() as usize;
        let start = MAX_VARINT - bits.div_ceil(7);
        let mut v = self.n;
        for byte in &mut self.buf[start..MAX_VARINT] {
            *byte = v as u8 | 0x80;
            v >>= 7;
        }
        self.buf[MAX_VARINT - 1] &= 0x7F;
        let code = Arc::from(&self.buf[start..]);
        self.buf.truncate(MAX_VARINT);
        self.n = 0;
        CodedProgram(code)
    }

    /// `program`, coded.
    fn encode(&mut self, program: &WarpProgram) -> CodedProgram {
        program.0.iter().for_each(|op| self.put(op));
        self.finish()
    }
}

/// Codes a memory instruction whose lanes are the line `{ base, stride,
/// n }`.
#[inline]
fn put_line(out: &mut Vec<u8>, tag: u8, base: u64, stride: i64, n: u32) {
    out.push(tag);
    varint::put(out, base);
    varint::put(out, zigzag(stride as u64));
    varint::put(out, u64::from(n));
}

/// Codes a memory instruction whose lanes are the gather `addrs`.
#[inline]
fn put_gather(out: &mut Vec<u8>, tag: u8, addrs: &[Addr]) {
    out.push(tag | GATHER);
    varint::put(out, addrs.len() as u64);
    let mut previous = 0u64;
    for a in addrs {
        varint::put(out, zigzag(a.0.wrapping_sub(previous)));
        previous = a.0;
    }
}

/// Where a memory instruction's lanes are: a line, held as its triple,
/// or a gather's `n` deltas from byte `at` of the stream, read when the
/// instruction issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LanesAt {
    Line { base: u64, stride: i64, n: u32 },
    Gather { at: usize, n: u32 },
}

/// One instruction as a cursor keeps its head: a [`WarpOp`] whose lanes
/// are a [`LanesAt`], so decoding it allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Instr {
    Load(LanesAt),
    Store(LanesAt),
    Atomic(LanesAt),
    Compute(u32),
    Fence,
    ReleaseFence,
    AcquireFence,
    Barrier,
}

impl Instr {
    /// Reads the instruction at `*at`, leaving `*at` past it.
    fn read(code: &[u8], at: &mut usize) -> Instr {
        let tag = code[*at];
        *at += 1;
        let lanes = |at: &mut usize| {
            if tag & GATHER == 0 {
                let base = varint::get(code, at);
                let stride = unzigzag(varint::get(code, at)) as i64;
                let n = varint::get(code, at) as u32;
                return LanesAt::Line { base, stride, n };
            }
            let n = varint::get(code, at) as u32;
            let start = *at;
            for _ in 0..n {
                let _ = varint::get(code, at);
            }
            LanesAt::Gather { at: start, n }
        };
        match tag & !GATHER {
            LOAD => Instr::Load(lanes(at)),
            STORE => Instr::Store(lanes(at)),
            ATOMIC => Instr::Atomic(lanes(at)),
            COMPUTE => Instr::Compute(varint::get(code, at) as u32),
            FENCE => Instr::Fence,
            RELEASE_FENCE => Instr::ReleaseFence,
            ACQUIRE_FENCE => Instr::AcquireFence,
            _ => Instr::Barrier,
        }
    }

    /// The [`WarpOp`] this is, read from `code`.
    fn expand(self, code: &[u8]) -> WarpOp {
        let lanes = |at: LanesAt| match at {
            LanesAt::Line { base, stride, n } => Lanes(Repr::Affine { base, stride, n }),
            LanesAt::Gather { at, n } => {
                let mut addrs = Vec::with_capacity(n as usize);
                read_gather(code, at, n, &mut addrs);
                Lanes(Repr::Gather(addrs.into_boxed_slice()))
            }
        };
        match self {
            Instr::Load(at) => WarpOp::Load(lanes(at)),
            Instr::Store(at) => WarpOp::Store(lanes(at)),
            Instr::Atomic(at) => WarpOp::Atomic(lanes(at)),
            Instr::Compute(c) => WarpOp::Compute(c),
            Instr::Fence => WarpOp::Fence,
            Instr::ReleaseFence => WarpOp::ReleaseFence,
            Instr::AcquireFence => WarpOp::AcquireFence,
            Instr::Barrier => WarpOp::Barrier,
        }
    }
}

/// A warp's place in its program: what a warp slot holds. The stream is
/// shared with the kernel — dispatch copies a handle — and the next
/// instruction is kept decoded, so the scheduler reads a field and issue
/// decodes the one after it. Nothing is expanded, cloned or allocated
/// while the warp runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProgramCursor {
    code: CodedProgram,
    /// Instructions not yet issued, `head` included.
    left: usize,
    /// The first of them, decoded; `None` once none is left.
    head: Option<Instr>,
    /// The byte the instruction after `head` starts at.
    next: usize,
}

impl ProgramCursor {
    pub(crate) fn new(code: CodedProgram) -> Self {
        let (left, mut next) = code.start();
        let head = (left > 0).then(|| Instr::read(&code.0, &mut next));
        ProgramCursor {
            code,
            left,
            head,
            next,
        }
    }

    /// The next instruction, if any is left.
    pub(crate) fn first(&self) -> Option<&Instr> {
        self.head.as_ref()
    }

    /// Instructions left.
    pub(crate) fn len(&self) -> usize {
        self.left
    }

    /// Whether none is left.
    pub(crate) fn is_empty(&self) -> bool {
        self.left == 0
    }

    /// Consumes the first remaining instruction (there must be one).
    pub(crate) fn advance(&mut self) {
        debug_assert!(!self.is_empty(), "advanced past the end of the program");
        self.left -= 1;
        self.head = (self.left > 0).then(|| Instr::read(&self.code.0, &mut self.next));
    }

    /// Coalesces `lanes` — the head's — into `out` (emptied first), in
    /// first-touch order: a line arithmetically, a gather read into
    /// `scratch` and coalesced by [`coalesce_into`].
    pub(crate) fn coalesce_into(
        &self,
        lanes: LanesAt,
        block_shift: u32,
        scratch: &mut Vec<Addr>,
        out: &mut VecDeque<BlockAddr>,
    ) {
        match lanes {
            LanesAt::Line { base, stride, n } => {
                coalesce_affine_into(base, stride, n, block_shift, out);
            }
            LanesAt::Gather { at, n } => {
                read_gather(&self.code.0, at, n, scratch);
                coalesce_into(scratch, block_shift, out);
            }
        }
    }

    /// The instructions left, expanded.
    fn expanded(&self) -> impl Iterator<Item = WarpOp> + '_ {
        let head = self.head.map(|op| op.expand(&self.code.0));
        let rest = self.left.saturating_sub(1);
        head.into_iter().chain(self.code.expand(self.next, rest))
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

    /// The same stream, coded, as dispatch gives it a warp slot. A kernel
    /// that keeps its programs coded overrides this to share them.
    fn shared_program(&self, cta: CtaId, warp_in_cta: usize) -> CodedProgram {
        CodedProgram::from(self.program(cta, warp_in_cta))
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
    /// Each program once, coded, shared with every warp slot running it.
    ctas: Vec<Vec<CodedProgram>>,
}

impl VecKernel {
    /// Builds a kernel from explicit per-CTA, per-warp programs, coding
    /// each (none is kept expanded).
    ///
    /// # Panics
    ///
    /// Panics if any CTA has a different number of warp programs than
    /// `warps_per_cta`.
    #[must_use]
    pub fn new(name: &str, warps_per_cta: usize, ctas: Vec<Vec<WarpProgram>>) -> Self {
        let mut ops = ProgramEncoder::default();
        let ctas = ctas
            .iter()
            .map(|cta| cta.iter().map(|p| ops.encode(p)).collect())
            .collect();
        VecKernel::from_coded(name, warps_per_cta, ctas)
    }

    /// Builds a kernel from programs already coded.
    ///
    /// # Panics
    ///
    /// As [`VecKernel::new`].
    #[must_use]
    pub fn from_coded(name: &str, warps_per_cta: usize, ctas: Vec<Vec<CodedProgram>>) -> Self {
        assert!(
            ctas.iter().all(|c| c.len() == warps_per_cta),
            "every CTA must have exactly warps_per_cta programs"
        );
        VecKernel {
            name: name.to_owned(),
            warps_per_cta,
            ctas,
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
        self.ctas[cta.0 as usize][warp_in_cta].decode()
    }

    fn shared_program(&self, cta: CtaId, warp_in_cta: usize) -> CodedProgram {
        self.ctas[cta.0 as usize][warp_in_cta].clone()
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

/// A cursor is saved as the instructions it has left, `(len, items)` —
/// byte for byte what the `VecDeque<WarpOp>` it replaced wrote, however
/// the program is stored — and restored as a program of its own that
/// starts there.
impl Snap for ProgramCursor {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        self.expanded().for_each(|op| op.save(w));
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let left: Vec<WarpOp> = Snap::load(r)?;
        Ok(ProgramCursor::new(CodedProgram::from(WarpProgram(left))))
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
        w.u8(self.tag());
        match self {
            WarpOp::Compute(c) => c.save(w),
            op => op.lanes().into_iter().for_each(|a| a.save(w)),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            LOAD => Ok(WarpOp::Load(Snap::load(r)?)),
            STORE => Ok(WarpOp::Store(Snap::load(r)?)),
            ATOMIC => Ok(WarpOp::Atomic(Snap::load(r)?)),
            COMPUTE => Ok(WarpOp::Compute(Snap::load(r)?)),
            FENCE => Ok(WarpOp::Fence),
            RELEASE_FENCE => Ok(WarpOp::ReleaseFence),
            ACQUIRE_FENCE => Ok(WarpOp::AcquireFence),
            BARRIER => Ok(WarpOp::Barrier),
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

    /// What the SM coalesces a list into: a load of it, coded, at the
    /// head of a cursor.
    fn coalesced(lanes: &Lanes, shift: u32) -> Vec<BlockAddr> {
        let load = WarpProgram(vec![WarpOp::Load(lanes.clone())]);
        let cursor = ProgramCursor::new(CodedProgram::from(load));
        let Some(&Instr::Load(at)) = cursor.first() else {
            panic!("the head is the load")
        };
        let mut out = VecDeque::new();
        cursor.coalesce_into(at, shift, &mut Vec::new(), &mut out);
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

    /// A program holds a line of 32 words from a low address in six
    /// bytes, and nothing takes more than its varints.
    #[test]
    fn an_instruction_codes_in_a_few_bytes() {
        let bytes = |op: WarpOp| CodedProgram::from(WarpProgram(vec![op])).bytes() - 1;
        assert_eq!(bytes(WarpOp::load_coalesced(Addr(0x4000), 32)), 6);
        assert_eq!(bytes(WarpOp::Compute(2)), 2);
        assert_eq!(bytes(WarpOp::Compute(u32::MAX)), 6);
        assert_eq!(bytes(WarpOp::Barrier), 1);
        assert_eq!(bytes(WarpOp::store_coalesced(Addr(u64::MAX - 124), 32)), 13);
        // A gather: tag, count, then one delta a lane.
        let gather = Lanes::from(vec![Addr(0x80), Addr(0x300), Addr(0x100)]);
        assert_eq!(bytes(WarpOp::Atomic(gather)), 1 + 1 + 2 + 2 + 2);
        assert!(std::mem::size_of::<Instr>() <= 32);
    }

    /// The drawn instruction `sel`: every kind, `Compute` at both ends of
    /// `u32`, and lines of 0–70 lanes with positive, negative, zero and
    /// extreme strides from bases at both ends of `u64` — a line that
    /// would wrap `u64` becoming a gather — or one lane off a line.
    fn drawn_op((sel, pick, n, end, low): (u8, u8, usize, u8, u64)) -> WarpOp {
        let stride = [4, -4, 0, 128, -384, 1 << 40, i64::MAX, i64::MIN][usize::from(pick % 8)];
        let base = [low, u64::MAX - low, 1 << 63][usize::from(end)];
        let off = pick >= 8 && n > 2;
        let lanes: Lanes = (0..n)
            .map(|i| {
                let on_line = base.wrapping_add((stride as u64).wrapping_mul(i as u64));
                Addr(on_line.wrapping_add(u64::from(off && i == n / 2)))
            })
            .collect();
        match sel {
            0 => WarpOp::Load(lanes),
            1 => WarpOp::Store(lanes),
            2 => WarpOp::Atomic(lanes),
            3 => WarpOp::Compute(0),
            4 => WarpOp::Compute(u32::MAX),
            5 => WarpOp::Compute(low as u32),
            6 => WarpOp::Fence,
            7 => WarpOp::ReleaseFence,
            8 => WarpOp::AcquireFence,
            _ => WarpOp::Barrier,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// A coded program decodes to the instructions it was built from,
        /// pushed one by one — a memory instruction as an op or as its
        /// lanes — or all at once; a cursor advanced past any
        /// `k` of them snapshots to exactly the bytes the expanded
        /// remainder writes; and the cursor restored from those bytes
        /// holds the same instructions and writes the same bytes again.
        #[test]
        fn coded_programs_are_their_instructions(
            ops in proptest::collection::vec((0u8..10, 0u8..16, 0usize..71, 0u8..3, 0u64..1 << 12), 0..40),
            k in 0usize..41,
        ) {
            let program = WarpProgram(ops.into_iter().map(drawn_op).collect());
            let coded = CodedProgram::from(program.clone());
            prop_assert_eq!(coded.len(), program.len());
            prop_assert_eq!(&coded.decode(), &program);
            let mut pushed = ProgramEncoder::default();
            program.0.iter().cloned().for_each(|op| pushed.push(op));
            prop_assert_eq!(&pushed.finish(), &coded);
            for op in &program.0 {
                match op {
                    WarpOp::Load(lanes) => pushed.push_lanes(WarpOp::Load, lanes.iter()),
                    WarpOp::Store(lanes) => pushed.push_lanes(WarpOp::Store, lanes.iter()),
                    WarpOp::Atomic(lanes) => pushed.push_lanes(WarpOp::Atomic, lanes.iter()),
                    other => pushed.push(other.clone()),
                }
            }
            prop_assert_eq!(&pushed.finish(), &coded);

            let k = k.min(program.len());
            let mut cursor = ProgramCursor::new(coded);
            for _ in 0..k {
                cursor.advance();
            }
            let rest = &program.0[k..];
            prop_assert_eq!(cursor.len(), rest.len());
            prop_assert_eq!(cursor.is_empty(), rest.is_empty());
            prop_assert_eq!(cursor.expanded().collect::<Vec<_>>(), rest.to_vec());
            let bytes = snap_bytes(&cursor);
            prop_assert_eq!(&bytes, &snap_bytes(&rest.iter().cloned().collect::<VecDeque<_>>()));

            let restored = ProgramCursor::load(&mut SnapReader::new(&bytes)).expect("loads");
            prop_assert_eq!(restored.len(), cursor.len());
            prop_assert_eq!(restored.expanded().collect::<Vec<_>>(), rest.to_vec());
            prop_assert_eq!(snap_bytes(&restored), bytes);
        }
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
