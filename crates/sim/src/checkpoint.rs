//! Crash-safe checkpoint files.
//!
//! A [`CheckpointStore`] persists snapshot images (from
//! [`crate::GpuSim::save_snapshot`]) so a killed process can resume. It
//! keeps two *slot* files, `<path>` and `<path>.prev`; the names are
//! only the two slots and say nothing about which image is newer. Each
//! slot holds one frame:
//!
//! ```text
//! [magic: 4] [seq: u64 LE] [len: u64 LE] [crc32(payload): u32 LE]
//! [crc32(the 24 bytes before): u32 LE] [payload: len bytes]
//! ```
//!
//! [`CheckpointStore::save`] overwrites, in place, the slot that does
//! not hold the newest image that verifies, with a higher sequence
//! number, and `sync_data`s it before returning. A crash during that
//! write leaves a torn slot, which fails its header or payload CRC, while
//! the other slot still holds the newest complete image: at every
//! instant at least one complete, CRC-verified checkpoint exists on
//! disk. [`CheckpointStore::load_latest`] tries the slot with the higher
//! sequence number first and falls back to the other one when it is
//! damaged or rejected; only when *both* images fail does it report an
//! error. An image written by an older build (a bare snapshot, no frame)
//! fails the frame check like any damaged slot.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use gtsc_types::snap::{crc32, SnapshotError};

/// Where a successfully loaded checkpoint came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointSource {
    /// The newest image on disk: the slot with the higher sequence number.
    Primary,
    /// The other slot's image: the newest was damaged or rejected. A slot
    /// whose header is damaged counts as the newest, since its age cannot
    /// be read.
    Previous,
}

/// Why no checkpoint could be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (not corruption — reading the bytes failed).
    Io(io::Error),
    /// Every on-disk image failed validation.
    AllCorrupt {
        /// Why the newest image was rejected (`None` if absent).
        primary: Option<SnapshotError>,
        /// Why the image before it was rejected (`None` if absent).
        fallback: Option<SnapshotError>,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::AllCorrupt { primary, fallback } => {
                write!(f, "no loadable checkpoint:")?;
                match primary {
                    Some(e) => write!(f, " primary rejected ({e});")?,
                    None => write!(f, " primary absent;")?,
                }
                match fallback {
                    Some(e) => write!(f, " fallback rejected ({e})"),
                    None => write!(f, " fallback absent"),
                }
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

const FRAME_MAGIC: [u8; 4] = *b"GCKF";
const HEADER_LEN: usize = 28;

/// A slot frame's header, once its own CRC has verified.
#[derive(Debug, Clone, Copy)]
struct Header {
    seq: u64,
    len: u64,
    crc: u32,
}

fn encode_header(seq: u64, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&FRAME_MAGIC);
    h[4..12].copy_from_slice(&seq.to_le_bytes());
    h[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
    let own = crc32(&h[..24]);
    h[24..].copy_from_slice(&own.to_le_bytes());
    h
}

fn decode_header(h: &[u8; HEADER_LEN]) -> Result<Header, SnapshotError> {
    let word = |at: usize| u32::from_le_bytes([h[at], h[at + 1], h[at + 2], h[at + 3]]);
    let dword = |at: usize| u64::from(word(at)) | u64::from(word(at + 4)) << 32;
    if h[..4] != FRAME_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if crc32(&h[..24]) != word(24) {
        return Err(corrupt("checkpoint header"));
    }
    Ok(Header {
        seq: dword(4),
        len: dword(12),
        crc: word(20),
    })
}

fn corrupt(section: &str) -> SnapshotError {
    SnapshotError::Corrupt {
        section: section.into(),
    }
}

/// What the store knows of its two slots from its own last
/// `load_latest` or `save`. Each update stores one whole value, so a
/// lock poisoned by a panic still holds a valid one.
#[derive(Debug, Clone, Copy, Default)]
struct Known {
    /// The slot holding the newest image that verifies, if any.
    newest: Option<usize>,
    /// Above every sequence number a slot header carries.
    next_seq: u64,
}

/// A checkpoint kept in two CRC-framed slot files: one complete image
/// plus the one before it.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    known: Mutex<Option<Known>>,
}

/// A clone shares the files but not what this store learned about
/// them: it verifies both slots again before its first save.
impl Clone for CheckpointStore {
    fn clone(&self) -> Self {
        CheckpointStore::new(self.path.clone())
    }
}

impl CheckpointStore {
    /// A store keeping its slots at `path` and `<path>.prev`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            path: path.into(),
            known: Mutex::new(None),
        }
    }

    /// The first slot's path (the second is `<path>.prev`); neither
    /// name says which image is newer.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn with_suffix(&self, suffix: &str) -> PathBuf {
        let mut p = self.path.as_os_str().to_owned();
        p.push(suffix);
        PathBuf::from(p)
    }

    fn slot_path(&self, slot: usize) -> PathBuf {
        if slot == 0 {
            self.path.clone()
        } else {
            self.with_suffix(".prev")
        }
    }

    fn known(&self) -> MutexGuard<'_, Option<Known>> {
        self.known.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes `bytes` as the newest image: overwrites, in place, the slot
    /// that does not hold the newest image that verifies, then
    /// `sync_data`s it (and its directory, when the slot file is new).
    /// The image is written from `bytes` as it is, after a 28-byte
    /// header. A store that has neither loaded nor saved yet first reads
    /// both slots, one at a time, to find the newest image that verifies.
    ///
    /// # Errors
    ///
    /// Any filesystem error; the newest image before the call survives a
    /// failed save.
    pub fn save(&self, bytes: &[u8]) -> io::Result<()> {
        // A binding, so the guard is released before the load takes it.
        let unknown = self.known().is_none();
        if unknown {
            if let Err(CheckpointError::Io(e)) = self.load_latest(|_| Ok(())) {
                return Err(e);
            }
        }
        let mut known = self.known();
        // `None` again only if a `clear` ran since: no slot is left.
        let mut k = known.unwrap_or_default();
        let target = k.newest.map_or(0, |s| 1 - s);
        let seq = k.next_seq;
        k.next_seq += 1;
        // Until the write is synced the newest image stays where it was.
        *known = Some(k);
        let path = self.slot_path(target);
        let (mut file, created) = match OpenOptions::new().write(true).open(&path) {
            Ok(f) => (f, false),
            Err(e) if e.kind() == io::ErrorKind::NotFound => (
                OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&path)?,
                true,
            ),
            Err(e) => return Err(e),
        };
        file.write_all(&encode_header(seq, bytes))?;
        file.write_all(bytes)?;
        file.sync_data()?;
        if created {
            sync_parent_dir(&path)?;
        }
        k.newest = Some(target);
        *known = Some(k);
        Ok(())
    }

    /// Loads the newest image `parse` accepts: the slot with the higher
    /// sequence number first, then the other. Only one image is held at a
    /// time; `parse` gets a slice of the read buffer and should fully
    /// validate it (e.g. build a sim and call
    /// [`crate::GpuSim::restore_snapshot`]). A slot whose frame fails its
    /// CRC is rejected without calling `parse`. The next
    /// [`CheckpointStore::save`] keeps the image returned here and
    /// overwrites the other slot.
    ///
    /// Returns `Ok(None)` when no checkpoint has ever been written.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::Io`] if reading an existing file failed.
    /// * [`CheckpointError::AllCorrupt`] if images exist but every one
    ///   was damaged or rejected by `parse`.
    pub fn load_latest<T>(
        &self,
        mut parse: impl FnMut(&[u8]) -> Result<T, SnapshotError>,
    ) -> Result<Option<(T, CheckpointSource)>, CheckpointError> {
        let mut slots = [
            open_slot(&self.slot_path(0))?,
            open_slot(&self.slot_path(1))?,
        ];
        let seq = |slot: &Option<Slot>| match slot {
            Some((_, Ok(h))) => Some(h.seq),
            _ => None,
        };
        let next_seq = slots.iter().filter_map(seq).max().map_or(0, |s| s + 1);
        // The higher sequence number goes first. A damaged header goes
        // before both: it may have been the newest, and only its loss
        // makes the other image `Previous`.
        let key = |slot: &Option<_>| seq(slot).unwrap_or(u64::MAX);
        let order = if key(&slots[1]) > key(&slots[0]) {
            [1, 0]
        } else {
            [0, 1]
        };
        let mut errors: [Option<SnapshotError>; 2] = [None, None];
        let mut tried = 0;
        for slot in order {
            let Some((mut file, header)) = slots[slot].take() else {
                continue;
            };
            let parsed = match header {
                Ok(h) => read_payload(&mut file, h)?.and_then(|payload| parse(&payload)),
                Err(e) => Err(e),
            };
            match parsed {
                Ok(t) => {
                    *self.known() = Some(Known {
                        newest: Some(slot),
                        next_seq,
                    });
                    let source = if tried == 0 {
                        CheckpointSource::Primary
                    } else {
                        CheckpointSource::Previous
                    };
                    return Ok(Some((t, source)));
                }
                Err(e) => errors[tried] = Some(e),
            }
            tried += 1;
        }
        *self.known() = Some(Known {
            newest: None,
            next_seq,
        });
        let [primary, fallback] = errors;
        if primary.is_none() {
            return Ok(None);
        }
        Err(CheckpointError::AllCorrupt { primary, fallback })
    }

    /// Removes every file this store manages (both slots, and the
    /// `<path>.tmp` an older build's writer could leave behind).
    ///
    /// # Errors
    ///
    /// Any filesystem error other than the files already being absent.
    pub fn clear(&self) -> io::Result<()> {
        *self.known() = None;
        for p in [
            self.slot_path(0),
            self.slot_path(1),
            self.with_suffix(".tmp"),
        ] {
            match fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// An open slot file and its header, or why the header was rejected.
type Slot = (File, Result<Header, SnapshotError>);

/// Opens a slot file and reads its header: `None` when the file is
/// absent, the header's error when it is damaged or short.
fn open_slot(path: &Path) -> io::Result<Option<Slot>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut h = [0u8; HEADER_LEN];
    let header = match file.read_exact(&mut h) {
        Ok(()) => decode_header(&h),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(SnapshotError::Truncated {
            context: "checkpoint header",
        }),
        Err(e) => return Err(e),
    };
    Ok(Some((file, header)))
}

/// Reads and verifies the payload after a verified header. A file too
/// short for the length the header names is torn, and nothing is
/// allocated for it.
fn read_payload(file: &mut File, h: Header) -> io::Result<Result<Vec<u8>, SnapshotError>> {
    let torn = Err(SnapshotError::Truncated {
        context: "checkpoint payload",
    });
    let on_disk = file.metadata()?.len().saturating_sub(HEADER_LEN as u64);
    let len = match usize::try_from(h.len) {
        Ok(len) if h.len <= on_disk => len,
        _ => return Ok(torn),
    };
    let mut payload = vec![0u8; len];
    match file.read_exact(&mut payload) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(torn),
        Err(e) => return Err(e),
    }
    if crc32(&payload) != h.crc {
        return Ok(Err(corrupt("checkpoint payload")));
    }
    Ok(Ok(payload))
}

/// Syncs the directory that holds `path`, so that a file created in it,
/// or renamed into it, survives a power cut: `fsync` on a file does not
/// persist its directory entry. A no-op off Unix, where a directory
/// cannot be opened as a file.
///
/// # Errors
///
/// Opening or syncing the directory failed.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if cfg!(unix) {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gtsc-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn parse_magic(bytes: &[u8]) -> Result<Vec<u8>, SnapshotError> {
        if bytes.first() == Some(&0xAB) {
            Ok(bytes.to_vec())
        } else {
            Err(SnapshotError::BadMagic)
        }
    }

    /// The payload of a slot's frame, if the frame verifies.
    fn slot_payload(store: &CheckpointStore, slot: usize) -> Option<Vec<u8>> {
        let (mut file, header) = open_slot(&store.slot_path(slot)).unwrap()?;
        read_payload(&mut file, header.ok()?).unwrap().ok()
    }

    /// Both slots' verified payloads, in slot order.
    fn slot_payloads(store: &CheckpointStore) -> [Option<Vec<u8>>; 2] {
        [slot_payload(store, 0), slot_payload(store, 1)]
    }

    /// The slot holding the highest verified sequence number.
    fn newest_slot(store: &CheckpointStore) -> usize {
        let seq = |slot| match open_slot(&store.slot_path(slot)).unwrap() {
            Some((_, Ok(h))) => h.seq,
            _ => 0,
        };
        usize::from(seq(1) > seq(0))
    }

    fn flip(path: &Path, at: usize) {
        let mut bytes = fs::read(path).unwrap();
        bytes[at] ^= 0x5A;
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn save_then_load_round_trips_and_keeps_history() {
        let dir = tmp_dir("roundtrip");
        let store = CheckpointStore::new(dir.join("ck.snap"));
        assert!(store.load_latest(parse_magic).unwrap().is_none());
        store.save(&[0xAB, 1]).unwrap();
        let (got, src) = store.load_latest(parse_magic).unwrap().unwrap();
        assert_eq!(
            (got.as_slice(), src),
            (&[0xAB, 1][..], CheckpointSource::Primary)
        );
        store.save(&[0xAB, 2]).unwrap();
        let (got, src) = store.load_latest(parse_magic).unwrap().unwrap();
        assert_eq!(
            (got.as_slice(), src),
            (&[0xAB, 2][..], CheckpointSource::Primary)
        );
        // History: the displaced image is retained in the other slot.
        let newest = newest_slot(&store);
        assert_eq!(slot_payload(&store, 1 - newest), Some(vec![0xAB, 1]));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_primary_falls_back_to_prev() {
        let dir = tmp_dir("fallback");
        let store = CheckpointStore::new(dir.join("ck.snap"));
        store.save(&[0xAB, 1]).unwrap();
        store.save(&[0xAB, 2]).unwrap();
        // Scribble the newest image's payload; the one before must load.
        let newest = newest_slot(&store);
        flip(&store.slot_path(newest), HEADER_LEN + 1);
        let (got, src) = store.load_latest(parse_magic).unwrap().unwrap();
        assert_eq!(
            (got.as_slice(), src),
            (&[0xAB, 1][..], CheckpointSource::Previous)
        );
        // Scribble the other slot too: structured error, not a panic.
        fs::write(store.slot_path(1 - newest), [0x00]).unwrap();
        match store.load_latest(parse_magic) {
            Err(CheckpointError::AllCorrupt { primary, fallback }) => {
                assert!(primary.is_some() && fallback.is_some());
            }
            other => panic!("expected AllCorrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn clear_removes_all_files() {
        let dir = tmp_dir("clear");
        let store = CheckpointStore::new(dir.join("ck.snap"));
        store.save(&[0xAB]).unwrap();
        store.save(&[0xAB, 9]).unwrap();
        // What an older build's writer could leave behind.
        fs::write(store.with_suffix(".tmp"), [0xAB]).unwrap();
        store.clear().unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        assert!(store.load_latest(parse_magic).unwrap().is_none());
        // Idempotent.
        store.clear().unwrap();
        let _ = fs::remove_dir_all(dir);
    }

    /// Image `i`: `len` bytes, every one different from image `j != i`.
    fn image(i: u8, len: usize) -> Vec<u8> {
        let mut v = vec![i; len];
        v[0] = 0xAB;
        v[1] = i;
        v
    }

    /// A crash during a save leaves its slot holding the first `k` bytes
    /// of the new frame over whatever was there. For every `k`, a fresh
    /// process loads the new image (all of it written) or the one before
    /// it — never an error, never an older image — and its next save
    /// keeps the image it loaded.
    #[test]
    fn a_torn_save_leaves_the_image_before_it() {
        let dir = tmp_dir("torn");
        let store = CheckpointStore::new(dir.join("ck.snap"));
        let len = 100;
        // After one save the target slot file does not exist yet; after
        // three it holds image 2, which the torn save overwrites.
        for saved in [1u8, 3] {
            store.clear().unwrap();
            for i in 1..=saved {
                store.save(&image(i, len)).unwrap();
            }
            let before = [0, 1].map(|s| fs::read(store.slot_path(s)).ok());
            let k = store.known().expect("the store saved");
            let target = 1 - k.newest.unwrap();
            let next = image(saved + 1, len);
            let mut frame = encode_header(k.next_seq, &next).to_vec();
            frame.extend_from_slice(&next);
            for cut in 0..=frame.len() {
                let mut torn = before[target].clone().unwrap_or_default();
                let keep = torn.len().max(cut);
                torn.resize(keep, 0);
                torn[..cut].copy_from_slice(&frame[..cut]);
                fs::write(store.slot_path(target), &torn).unwrap();
                let fresh = CheckpointStore::new(store.path());
                let (got, _) = fresh
                    .load_latest(parse_magic)
                    .unwrap_or_else(|e| panic!("cut {cut}: {e}"))
                    .unwrap();
                let want = if cut == frame.len() {
                    next.clone()
                } else {
                    image(saved, len)
                };
                assert_eq!(got, want, "cut {cut} of {}", frame.len());
                // The image just loaded stays; the next one takes the
                // other slot.
                fresh.save(&image(99, len)).unwrap();
                let kept = slot_payloads(&fresh);
                assert!(kept.contains(&Some(want)), "cut {cut}");
                assert!(kept.contains(&Some(image(99, len))), "cut {cut}");
                for (s, b) in before.iter().enumerate() {
                    match b {
                        Some(b) => fs::write(fresh.slot_path(s), b).unwrap(),
                        None => fs::remove_file(fresh.slot_path(s)).unwrap(),
                    }
                }
            }
        }
        let _ = fs::remove_dir_all(dir);
    }

    /// One flipped byte anywhere in either slot costs at most that slot's
    /// image: the load returns the newest image or the one before it.
    #[test]
    fn a_flipped_byte_costs_at_most_its_own_slot() {
        let dir = tmp_dir("flip");
        let store = CheckpointStore::new(dir.join("ck.snap"));
        for i in 1..=4 {
            store.save(&image(i, 40)).unwrap();
        }
        let newest = newest_slot(&store);
        for slot in 0..2 {
            let path = store.slot_path(slot);
            let good = fs::read(&path).unwrap();
            for at in 0..good.len() {
                flip(&path, at);
                let fresh = CheckpointStore::new(store.path());
                let (got, src) = fresh.load_latest(parse_magic).unwrap().unwrap();
                if slot == newest {
                    assert_eq!((got, src), (image(3, 40), CheckpointSource::Previous));
                } else if at < HEADER_LEN {
                    // A damaged header might have been the newest.
                    assert_eq!((got, src), (image(4, 40), CheckpointSource::Previous));
                } else {
                    assert_eq!((got, src), (image(4, 40), CheckpointSource::Primary));
                }
                fs::write(&path, &good).unwrap();
            }
        }
        let _ = fs::remove_dir_all(dir);
    }

    /// A `load_latest` whose `parse` rejected the newest image leaves the
    /// image it returned in place: the next save overwrites the rejected
    /// slot.
    #[test]
    fn a_save_after_a_rejected_newest_overwrites_the_rejected_slot() {
        let dir = tmp_dir("rejected");
        let store = CheckpointStore::new(dir.join("ck.snap"));
        store.save(&[0xAB, 1]).unwrap();
        store.save(&[0xCD, 2]).unwrap();
        let rejected = newest_slot(&store);
        let fresh = CheckpointStore::new(store.path());
        let (got, src) = fresh.load_latest(parse_magic).unwrap().unwrap();
        assert_eq!((got, src), (vec![0xAB, 1], CheckpointSource::Previous));
        fresh.save(&[0xAB, 3]).unwrap();
        assert_eq!(slot_payload(&fresh, rejected), Some(vec![0xAB, 3]));
        assert_eq!(slot_payload(&fresh, 1 - rejected), Some(vec![0xAB, 1]));
        let (got, src) = fresh.load_latest(parse_magic).unwrap().unwrap();
        assert_eq!((got, src), (vec![0xAB, 3], CheckpointSource::Primary));
        let _ = fs::remove_dir_all(dir);
    }

    /// A store that has neither loaded nor saved checks both frames
    /// before its first save: it never overwrites the newest image that
    /// verifies, whichever slot that is.
    #[test]
    fn a_first_save_keeps_the_newest_verified_image() {
        let dir = tmp_dir("first-save");
        let store = CheckpointStore::new(dir.join("ck.snap"));
        for i in 1..=3 {
            store.save(&image(i, 60)).unwrap();
        }
        let newest = newest_slot(&store);
        store.clone().save(&image(4, 60)).unwrap();
        assert_eq!(slot_payload(&store, newest), Some(image(3, 60)));
        // Damage image 4's payload: image 3 is now the newest that
        // verifies, and the torn slot takes the next image.
        flip(&store.slot_path(1 - newest), HEADER_LEN + 30);
        CheckpointStore::new(store.path())
            .save(&image(5, 60))
            .unwrap();
        let payloads = slot_payloads(&store);
        assert_eq!(payloads[newest], Some(image(3, 60)));
        assert_eq!(payloads[1 - newest], Some(image(5, 60)));
        let _ = fs::remove_dir_all(dir);
    }

    /// A bare image from a build before the slot frame is damaged, not
    /// loadable: its job restarts from cycle 0.
    #[test]
    fn an_old_format_image_is_rejected_as_damaged() {
        let dir = tmp_dir("old-format");
        let store = CheckpointStore::new(dir.join("ck.snap"));
        let mut old = gtsc_types::snap::SNAP_MAGIC.to_vec();
        old.extend_from_slice(&[0xAB; 64]);
        fs::write(store.path(), &old).unwrap();
        match store.load_latest(parse_magic) {
            Err(CheckpointError::AllCorrupt {
                primary: Some(SnapshotError::BadMagic),
                fallback: None,
            }) => {}
            other => panic!("expected AllCorrupt with BadMagic, got {other:?}"),
        }
        fs::write(store.with_suffix(".prev"), &old).unwrap();
        fs::write(store.with_suffix(".tmp"), &old).unwrap();
        assert!(matches!(
            store.load_latest(parse_magic),
            Err(CheckpointError::AllCorrupt {
                primary: Some(_),
                fallback: Some(_)
            })
        ));
        store.save(&[0xAB, 7]).unwrap();
        let (got, _) = store.load_latest(parse_magic).unwrap().unwrap();
        assert_eq!(got, vec![0xAB, 7]);
        store.clear().unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        store.clear().unwrap();
        let _ = fs::remove_dir_all(dir);
    }
}
