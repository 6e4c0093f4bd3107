//! Hand-rolled versioned binary snapshot serialization.
//!
//! The checkpoint/restore layer (DESIGN.md §14) serializes the whole
//! simulator state to a byte image with no external dependencies:
//!
//! * a fixed little-endian encoding via [`SnapWriter`] / [`SnapReader`];
//! * the [`Snap`] trait, implemented by every stateful component
//!   (collections of hash-map kind are written in sorted key order so
//!   identical logical state always produces identical bytes);
//! * a sectioned container ([`SnapshotBuilder`] / [`SnapshotFile`]):
//!   magic + format version + one length- and CRC32-framed section per
//!   subsystem, so truncation and bit flips are *detected* — every
//!   failure surfaces as a [`SnapshotError`], never a panic — and a
//!   loader can fall back to the previous good checkpoint.
//!
//! Encoding rules: all integers little-endian fixed width; `usize` as
//! `u64`; `bool` as one byte (`0`/`1`, anything else is malformed);
//! `Option<T>` as a presence byte then the payload; sequences as a
//! `u64` length then the elements.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Leading magic of every snapshot produced by [`SnapshotBuilder`].
pub const SNAP_MAGIC: [u8; 8] = *b"GTSCSNAP";
/// Snapshot container format version. Bump on any incompatible change
/// to the section framing *or* to any component's [`Snap`] encoding.
pub const SNAP_VERSION: u32 = 3;

/// Why a snapshot could not be written, parsed, or applied.
///
/// Corruption (truncation, bit flips, wrong magic) is always reported
/// through this type — the snapshot layer never panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the value being decoded.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The leading magic bytes are not [`SNAP_MAGIC`].
    BadMagic,
    /// The container was written by an incompatible format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A section's CRC32 does not match its payload (bit flip or
    /// torn write).
    Corrupt {
        /// Name of the damaged section.
        section: String,
    },
    /// The bytes decoded but the value is impossible (bad enum tag,
    /// non-0/1 bool, length overflow).
    Malformed {
        /// What was being decoded.
        context: String,
    },
    /// The container parsed but a required section is absent.
    MissingSection {
        /// Name of the absent section.
        name: String,
    },
    /// The snapshot does not belong to the state being restored
    /// (different config, kernel, or component geometry).
    Mismatch {
        /// Human-readable description of the disagreement.
        what: String,
    },
    /// The component does not implement checkpointing (e.g. a baseline
    /// cache controller outside the G-TSC protocol).
    Unsupported {
        /// The operation that is not available.
        what: &'static str,
    },
    /// An I/O error while reading or writing a snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while decoding {context}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => {
                write!(f, "snapshot format version {found} is not {SNAP_VERSION}")
            }
            SnapshotError::Corrupt { section } => {
                write!(f, "snapshot section '{section}' failed its CRC32 check")
            }
            SnapshotError::Malformed { context } => {
                write!(f, "snapshot contains a malformed {context}")
            }
            SnapshotError::MissingSection { name } => {
                write!(f, "snapshot is missing required section '{name}'")
            }
            SnapshotError::Mismatch { what } => {
                write!(f, "snapshot does not match the restore target: {what}")
            }
            SnapshotError::Unsupported { what } => {
                write!(f, "snapshotting is not supported: {what}")
            }
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Slicing-by-16 tables: `t[0]` is the classic bytewise table, and
/// `t[k][i]` is the CRC register after byte `i` is followed by `k` zero
/// bytes, so one lookup per byte of a 16-byte block, all independent,
/// replaces sixteen dependent steps of the bytewise loop.
const fn crc32_tables() -> [[u32; 256]; 16] {
    // IEEE 802.3 reflected polynomial, the one used by zip/png/ethernet.
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

const CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC32 (IEEE) of `bytes`, as framed into every snapshot section.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut c = 0xFFFF_FFFFu32;
    for block in blocks {
        let mut b = *block;
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        b[..4].copy_from_slice(&head.to_le_bytes());
        c = 0;
        for (k, &byte) in b.iter().enumerate() {
            c ^= t[15 - k][usize::from(byte)];
        }
    }
    for &byte in tail {
        c = t[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The bytewise table walk: the reference [`crc32`]'s tests compare
/// against.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Byte-stream writer for the fixed snapshot encoding.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Puts `bytes` at offset `at` of what was written, ahead of the
    /// bytes written after it.
    ///
    /// # Panics
    ///
    /// If `at` is past the bytes written.
    pub fn insert(&mut self, at: usize, bytes: &[u8]) {
        let end = self.buf.len();
        self.buf.resize(end + bytes.len(), 0);
        self.buf.copy_within(at..end, at + bytes.len());
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Overwrites the `u64` written at offset `at` (a count known only
    /// after what it counts).
    ///
    /// # Panics
    ///
    /// If the eight bytes at `at` were not written.
    pub fn set_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.bytes(v.as_bytes());
    }
}

/// Byte-stream reader for the fixed snapshot encoding. Every accessor
/// returns [`SnapshotError::Truncated`] instead of panicking when the
/// input runs out.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapshotError::Truncated { context })?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated { context })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input;
    /// [`SnapshotError::Malformed`] if the value does not fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed {
            context: "usize out of range".to_owned(),
        })
    }

    /// Reads a `bool` (one byte, `0` or `1`).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input;
    /// [`SnapshotError::Malformed`] on any byte other than `0`/`1`.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed {
                context: format!("bool byte {other}"),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input;
    /// [`SnapshotError::Malformed`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.usize()?;
        let bytes = self.take(n, "str")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed {
            context: "utf-8 string".to_owned(),
        })
    }

    /// Reads a sequence length and sanity-checks it against the bytes
    /// actually remaining (each element needs at least `min_elem_bytes`),
    /// so a corrupted length can never trigger a huge allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the announced length cannot fit
    /// in the remaining input.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        let need = n.checked_mul(min_elem_bytes.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(SnapshotError::Malformed {
                context: format!("sequence length {n} exceeds remaining input"),
            }),
        }
    }

    /// Asserts that the reader consumed its entire input.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if bytes remain.
    pub fn expect_end(&self, context: &'static str) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed {
                context: format!("{} trailing bytes after {context}", self.remaining()),
            })
        }
    }
}

/// A value with a deterministic binary encoding. Saving the same logical
/// state twice must produce identical bytes (unordered containers are
/// written in sorted key order).
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on truncated or malformed input.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! snap_uint {
    ($($ty:ident),*) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$ty(*self);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$ty()
            }
        }
    )*};
}

snap_uint!(u8, u16, u32, u64, usize, bool);

impl Snap for () {
    fn save(&self, _w: &mut SnapWriter) {}
    fn load(_r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

impl Snap for i64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.u64()? as i64)
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            other => Err(SnapshotError::Malformed {
                context: format!("Option tag {other}"),
            }),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len(1)?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap + Default + Copy, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::load(r)?;
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len(2)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// Hash containers are written in sorted key order: the iteration order
// of a `HashMap` is randomized per process, and a snapshot must encode
// identical logical state as identical bytes. Keys are unique, so an
// unstable sort yields that one order.
impl<K: Snap + Ord + Hash + Eq, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len(2)?;
        let mut out = HashMap::with_capacity_and_hasher(n, S::default());
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap + Ord + Hash + Eq, S: BuildHasher + Default> Snap for HashSet<T, S> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        let mut entries: Vec<&T> = self.iter().collect();
        entries.sort_unstable();
        for v in entries {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len(1)?;
        let mut out = HashSet::with_capacity_and_hasher(n, S::default());
        for _ in 0..n {
            out.insert(T::load(r)?);
        }
        Ok(out)
    }
}

macro_rules! snap_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            fn save(&self, w: &mut SnapWriter) {
                $(self.$idx.save(w);)+
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($($name::load(r)?,)+))
            }
        }
    };
}

snap_tuple!(A: 0);
snap_tuple!(A: 0, B: 1);
snap_tuple!(A: 0, B: 1, C: 2);
snap_tuple!(A: 0, B: 1, C: 2, D: 3);
snap_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

macro_rules! snap_newtype_u64 {
    ($($ty:path),* $(,)?) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.u64(self.0);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                Ok(Self(r.u64()?))
            }
        }
    )*};
}

snap_newtype_u64!(
    crate::Cycle,
    crate::Timestamp,
    crate::Lease,
    crate::Addr,
    crate::BlockAddr,
    crate::Version,
    crate::SpanId,
);

macro_rules! snap_newtype_small {
    ($($ty:path => $inner:ident),* $(,)?) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$inner(self.0);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                Ok(Self(r.$inner()?))
            }
        }
    )*};
}

snap_newtype_small!(
    crate::SmId => u16,
    crate::WarpId => u16,
    crate::BankId => u16,
    crate::LaneId => u8,
    crate::CtaId => u32,
    crate::KernelId => u32,
);

/// Implements [`Snap`] for a struct by saving and loading the listed
/// fields in declaration order. Usable from any crate for any struct
/// whose listed fields are all `Snap` and visible at the call site.
///
/// ```
/// struct Counters {
///     hits: u64,
///     misses: u64,
/// }
/// gtsc_types::snap_fields!(Counters { hits, misses });
/// ```
#[macro_export]
macro_rules! snap_fields {
    ($ty:ty { $($f:ident),+ $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap::Snap::save(&self.$f, w);)+
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapshotError> {
                ::std::result::Result::Ok(Self {
                    $($f: $crate::snap::Snap::load(r)?,)+
                })
            }
        }
    };
}

/// Where the header's section count sits: after the magic and version.
const SECTION_COUNT_AT: usize = SNAP_MAGIC.len() + 4;

/// Assembles a sectioned snapshot in one buffer: magic, format version,
/// section count, then each section as `name | payload length | payload
/// CRC32 | payload`. Payloads are encoded in place and their frames
/// patched afterwards, so no payload is copied.
#[derive(Debug)]
pub struct SnapshotBuilder {
    w: SnapWriter,
    sections: u32,
}

impl Default for SnapshotBuilder {
    fn default() -> Self {
        let mut w = SnapWriter::new();
        w.bytes(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w.u32(0);
        SnapshotBuilder { w, sections: 0 }
    }
}

impl SnapshotBuilder {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        SnapshotBuilder::default()
    }

    /// Appends section `name`, whose payload `fill` encodes, and hands
    /// back what `fill` returns (a fallible encoder's error, say).
    pub fn section<T>(&mut self, name: &str, fill: impl FnOnce(&mut SnapWriter) -> T) -> T {
        self.w.str(name);
        let frame = self.w.len();
        self.w.u64(0);
        self.w.u32(0);
        let start = self.w.len();
        let out = fill(&mut self.w);
        let buf = &mut self.w.buf;
        let len = (buf.len() - start) as u64;
        let crc = crc32(&buf[start..]);
        buf[frame..frame + 8].copy_from_slice(&len.to_le_bytes());
        buf[frame + 8..start].copy_from_slice(&crc.to_le_bytes());
        self.sections += 1;
        out
    }

    /// The finished container.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let mut buf = self.w.into_bytes();
        buf[SECTION_COUNT_AT..SECTION_COUNT_AT + 4].copy_from_slice(&self.sections.to_le_bytes());
        buf
    }
}

/// A parsed snapshot container: section names mapped to their verified
/// payloads. Parsing validates the magic, the format version, and every
/// section's length framing and CRC32 up front, so corruption is caught
/// before any component starts decoding.
#[derive(Debug)]
pub struct SnapshotFile<'a> {
    sections: Vec<(String, &'a [u8])>,
}

impl<'a> SnapshotFile<'a> {
    /// Parses and verifies `bytes`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::BadVersion`],
    /// [`SnapshotError::Truncated`], or [`SnapshotError::Corrupt`] on a
    /// damaged container.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let magic = r.take(SNAP_MAGIC.len(), "magic")?;
        if magic != SNAP_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        let n_sections = r.u32()?;
        let mut sections = Vec::with_capacity(n_sections.min(1024) as usize);
        for _ in 0..n_sections {
            let name = r.str()?;
            let len = r.usize()?;
            let want_crc = r.u32()?;
            let payload = r.take(len, "section payload")?;
            if crc32(payload) != want_crc {
                return Err(SnapshotError::Corrupt { section: name });
            }
            sections.push((name, payload));
        }
        r.expect_end("snapshot container")?;
        Ok(SnapshotFile { sections })
    }

    /// A reader over the named section's verified payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] if absent.
    pub fn section(&self, name: &str) -> Result<SnapReader<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, payload)| SnapReader::new(payload))
            .ok_or_else(|| SnapshotError::MissingSection {
                name: name.to_owned(),
            })
    }

    /// The section names, in container order.
    #[must_use]
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // "123456789" → 0xCBF43926 is the canonical IEEE CRC32 check value.
        for f in [crc32, crc32_bytewise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
            assert_eq!(
                f(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    fn bytes_of(xs: &[u16]) -> Vec<u8> {
        xs.iter().map(|&x| x as u8).collect()
    }

    /// The container assembled in two passes — payloads encoded first,
    /// then copied behind their name, length and CRC: the reference the
    /// in-place builder must equal.
    fn two_pass_container(sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.bytes(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w.u32(sections.len() as u32);
        for (name, payload) in sections {
            w.str(name);
            w.usize(payload.len());
            w.u32(crc32_bytewise(payload));
            w.bytes(payload);
        }
        w.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Every length mod 16 and every alignment: the 16-byte blocks,
        /// the bytewise tail, and where the blocks start.
        #[test]
        fn crc32_equals_the_bytewise_loop(
            buf in proptest::collection::vec(0u16..256, 4112..4113),
            len in 0usize..4096,
        ) {
            let buf = bytes_of(&buf);
            for start in 0..16 {
                let s = &buf[start..start + len];
                prop_assert_eq!(crc32(s), crc32_bytewise(s), "len {} start {}", len, start);
            }
        }

        /// Empty payloads, odd lengths and repeated names: the builder's
        /// one buffer equals the two-pass assembly byte for byte.
        #[test]
        fn builder_equals_two_pass_assembly(
            sections in proptest::collection::vec(
                (0usize..4, proptest::collection::vec(0u16..256, 0..300)),
                0..8,
            ),
        ) {
            let names = ["devices", "", "a", "devices"];
            let sections: Vec<(&str, Vec<u8>)> =
                sections.iter().map(|(n, p)| (names[*n], bytes_of(p))).collect();
            let mut b = SnapshotBuilder::new();
            for (name, payload) in &sections {
                b.section(name, |w| payload.iter().for_each(|&x| w.u8(x)));
            }
            let bytes = b.finish();
            let want = two_pass_container(&sections);
            let first_diff = bytes.iter().zip(&want).position(|(a, b)| a != b);
            prop_assert!(
                bytes == want,
                "{} bytes vs {}, first difference at {:?}",
                bytes.len(),
                want.len(),
                first_diff
            );
            let parsed = SnapshotFile::parse(&bytes);
            prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        }
    }

    #[test]
    fn primitive_round_trips() {
        let mut w = SnapWriter::new();
        42u8.save(&mut w);
        0xBEEFu16.save(&mut w);
        0xDEAD_BEEFu32.save(&mut w);
        u64::MAX.save(&mut w);
        true.save(&mut w);
        (-5i64).save(&mut w);
        "héllo".to_owned().save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(u8::load(&mut r), Ok(42));
        assert_eq!(u16::load(&mut r), Ok(0xBEEF));
        assert_eq!(u32::load(&mut r), Ok(0xDEAD_BEEF));
        assert_eq!(u64::load(&mut r), Ok(u64::MAX));
        assert_eq!(bool::load(&mut r), Ok(true));
        assert_eq!(i64::load(&mut r), Ok(-5));
        assert_eq!(String::load(&mut r), Ok("héllo".to_owned()));
        assert!(r.expect_end("test").is_ok());
    }

    #[test]
    fn container_round_trips() {
        let mut v = Vec::new();
        for x in [3u64, 1, 2] {
            v.push(x);
        }
        let dq: VecDeque<u32> = [7u32, 8, 9].into_iter().collect();
        let mut bt = BTreeMap::new();
        bt.insert(crate::BlockAddr(9), crate::Version(1));
        bt.insert(crate::BlockAddr(2), crate::Version(5));
        let opt: Option<(u64, bool)> = Some((11, false));
        let arr: [u64; 4] = [5, 6, 7, 8];

        let mut w = SnapWriter::new();
        v.save(&mut w);
        dq.save(&mut w);
        bt.save(&mut w);
        opt.save(&mut w);
        arr.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<u64>::load(&mut r), Ok(v));
        assert_eq!(VecDeque::<u32>::load(&mut r), Ok(dq));
        assert_eq!(
            BTreeMap::<crate::BlockAddr, crate::Version>::load(&mut r),
            Ok(bt)
        );
        assert_eq!(Option::<(u64, bool)>::load(&mut r), Ok(opt));
        assert_eq!(<[u64; 4]>::load(&mut r), Ok(arr));
    }

    #[test]
    fn hashmap_encoding_is_key_sorted_and_stable() {
        let mut a: HashMap<u64, u64> = HashMap::new();
        let mut b: HashMap<u64, u64> = HashMap::new();
        // Insert in different orders; encodings must be identical.
        for k in 0..64u64 {
            a.insert(k, k * 2);
        }
        for k in (0..64u64).rev() {
            b.insert(k, k * 2);
        }
        let mut wa = SnapWriter::new();
        let mut wb = SnapWriter::new();
        a.save(&mut wa);
        b.save(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());

        let s: HashSet<u32> = [9u32, 1, 5].into_iter().collect();
        let mut w = SnapWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = HashSet::<u32>::load(&mut r).expect("loads");
        assert_eq!(back, s);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        12345u64.save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(matches!(
                u64::load(&mut r),
                Err(SnapshotError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn hostile_lengths_cannot_allocate() {
        // A sequence claiming u64::MAX elements with 8 bytes of input.
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Vec::<u64>::load(&mut r),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn bad_bool_and_option_tags_are_malformed() {
        let bytes = [7u8];
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            bool::load(&mut r),
            Err(SnapshotError::Malformed { .. })
        ));
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Option::<u8>::load(&mut r),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn snapshot_file_detects_all_damage_classes() {
        let mut b = SnapshotBuilder::new();
        b.section("alpha", |w| w.bytes(&[1, 2, 3, 4]));
        b.section("beta", |w| w.bytes(&[9, 9]));
        let good = b.finish();

        let parsed = SnapshotFile::parse(&good).expect("good parses");
        assert_eq!(parsed.section_names(), vec!["alpha", "beta"]);
        let mut r = parsed.section("alpha").expect("alpha present");
        assert_eq!(r.take(4, "alpha"), Ok(&[1u8, 2, 3, 4][..]));
        assert!(matches!(
            parsed.section("gamma"),
            Err(SnapshotError::MissingSection { .. })
        ));

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            SnapshotFile::parse(&bad),
            Err(SnapshotError::BadMagic)
        ));

        // Bad version.
        let mut bad = good.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            SnapshotFile::parse(&bad),
            Err(SnapshotError::BadVersion { .. })
        ));

        // Every possible truncation is detected.
        for cut in 0..good.len() {
            assert!(SnapshotFile::parse(&good[..cut]).is_err(), "cut at {cut}");
        }

        // Every possible single-bit flip in a payload is detected (the
        // last 2 bytes are beta's payload).
        let payload_start = good.len() - 2;
        for byte in payload_start..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(matches!(
                    SnapshotFile::parse(&bad),
                    Err(SnapshotError::Corrupt { section }) if section == "beta"
                ));
            }
        }
    }

    #[test]
    fn newtype_round_trips() {
        let mut w = SnapWriter::new();
        crate::Cycle(7).save(&mut w);
        crate::Timestamp(9).save(&mut w);
        crate::SmId(3).save(&mut w);
        crate::CtaId(12).save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(crate::Cycle::load(&mut r), Ok(crate::Cycle(7)));
        assert_eq!(crate::Timestamp::load(&mut r), Ok(crate::Timestamp(9)));
        assert_eq!(crate::SmId::load(&mut r), Ok(crate::SmId(3)));
        assert_eq!(crate::CtaId::load(&mut r), Ok(crate::CtaId(12)));
    }
}
