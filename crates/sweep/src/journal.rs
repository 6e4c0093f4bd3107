//! Append-only, fsync'd, crash-tolerant sweep journal.
//!
//! The journal is the sweep's source of truth for "which shards are
//! already done". Each record is framed as
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: snap encoding]
//! ```
//!
//! and every append is followed by `fdatasync`, so a record either
//! exists completely or not at all from the reader's point of view. A
//! `kill -9` (or power cut) can leave a *torn tail* — a partially
//! written final record; replay detects it (short frame or CRC
//! mismatch), drops it, and [`Journal::open`] truncates the file back
//! to the last intact record before appending resumes. Nothing is ever
//! rewritten in place.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use gtsc_sim::sync_parent_dir;
use gtsc_types::snap::{crc32, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::job::JobResult;

/// Largest record frame replay will accept; anything bigger is treated
/// as corruption (the length field itself may be garbage).
const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// First record of a batch: pins the job list so a restart with a
    /// different batch is rejected instead of silently mixed.
    Header {
        /// Fingerprint of the snap-encoded spec list.
        fingerprint: u64,
        /// Number of jobs in the batch.
        n_jobs: u32,
    },
    /// A worker is about to execute (or re-execute) a job.
    Begin {
        /// Job id.
        job: u32,
        /// 1-based attempt number within this process.
        attempt: u32,
    },
    /// A job finished with a deterministic result; it is never run again.
    Done {
        /// The journaled result.
        result: JobResult,
    },
    /// The service degraded itself under a resource budget.
    Shed {
        /// What was shed and why.
        what: String,
    },
}

impl Snap for Record {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Record::Header {
                fingerprint,
                n_jobs,
            } => {
                w.u8(0);
                fingerprint.save(w);
                n_jobs.save(w);
            }
            Record::Begin { job, attempt } => {
                w.u8(1);
                job.save(w);
                attempt.save(w);
            }
            Record::Done { result } => {
                w.u8(2);
                result.save(w);
            }
            Record::Shed { what } => {
                w.u8(3);
                what.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(Record::Header {
                fingerprint: Snap::load(r)?,
                n_jobs: Snap::load(r)?,
            }),
            1 => Ok(Record::Begin {
                job: Snap::load(r)?,
                attempt: Snap::load(r)?,
            }),
            2 => Ok(Record::Done {
                result: Snap::load(r)?,
            }),
            3 => Ok(Record::Shed {
                what: Snap::load(r)?,
            }),
            other => Err(SnapshotError::Malformed {
                context: format!("journal record tag {other}"),
            }),
        }
    }
}

/// Decodes `bytes` into records, stopping at the first torn or corrupt
/// frame. Returns the records and the byte offset of the end of the
/// last intact record (the safe truncation point).
#[must_use]
pub fn replay(bytes: &[u8]) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_BYTES || (len as usize) > rest.len() - 8 {
            break; // torn tail or garbage length
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            break;
        }
        let mut r = SnapReader::new(payload);
        let Ok(record) = Record::load(&mut r) else {
            break;
        };
        if r.expect_end("journal record").is_err() {
            break;
        }
        records.push(record);
        offset += 8 + len as usize;
    }
    (records, offset)
}

/// An open, append-only journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays every intact
    /// record, truncates any torn tail, and positions the write cursor
    /// for appending. Returns the journal and the replayed records.
    /// Creating the file syncs its directory too.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Journal, Vec<Record>)> {
        let path = path.into();
        let (bytes, created) = match fs::read(&path) {
            Ok(b) => (b, false),
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), true),
            Err(e) => return Err(e),
        };
        let (records, good) = replay(&bytes);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        if created {
            // Without this a power cut could lose the file, and with it
            // every record synced into it.
            sync_parent_dir(&path)?;
        }
        if good as u64 != file.metadata()?.len() {
            file.set_len(good as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((Journal { file, path }, records))
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and syncs it to disk before returning, so a
    /// crash immediately after cannot lose it.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn append(&mut self, record: &Record) -> io::Result<()> {
        let mut w = SnapWriter::new();
        record.save(&mut w);
        let payload = w.into_bytes();
        let len: u32 = payload
            .len()
            .try_into()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "journal record too large"))?;
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutcome;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gtsc-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d.join("journal.bin")
    }

    fn done(id: u32) -> Record {
        Record::Done {
            result: JobResult {
                id,
                outcome: JobOutcome::Completed,
                cycles: 100 + u64::from(id),
                issued: 7,
                l1_accesses: 5,
                l1_hits: 3,
                violations: 0,
                stats_crc: 0xDEAD_BEEF,
                image_crc: 0x1234_5678,
                detail: String::new(),
            },
        }
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let path = tmp("roundtrip");
        let (mut j, initial) = Journal::open(&path).unwrap();
        assert!(initial.is_empty());
        let records = vec![
            Record::Header {
                fingerprint: 0xABCD,
                n_jobs: 2,
            },
            Record::Begin { job: 0, attempt: 1 },
            done(0),
            Record::Shed {
                what: "checkpoint frequency halved".into(),
            },
            Record::Begin { job: 1, attempt: 2 },
            done(1),
        ];
        for r in &records {
            j.append(r).unwrap();
        }
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, records);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmp("torn");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&Record::Header {
            fingerprint: 1,
            n_jobs: 1,
        })
        .unwrap();
        j.append(&done(0)).unwrap();
        drop(j);
        let good_len = fs::metadata(&path).unwrap().len();

        // Simulate a crash mid-append: garbage half-frame at the end.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x55, 0x00, 0x00, 0x00, 0x99]);
        fs::write(&path, &bytes).unwrap();

        let (j, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        drop(j);
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            good_len,
            "tail truncated"
        );
    }

    #[test]
    fn corrupt_crc_stops_replay_cleanly() {
        let path = tmp("crc");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&done(0)).unwrap();
        j.append(&done(1)).unwrap();
        drop(j);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the *second* record's payload.
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (records, _) = replay(&bytes);
        assert_eq!(records.len(), 1, "only the intact prefix survives");
    }

    #[test]
    fn oversized_length_field_is_treated_as_corruption() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        let (records, good) = replay(&bytes);
        assert!(records.is_empty());
        assert_eq!(good, 0);
    }
}
