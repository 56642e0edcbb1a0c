//! Content-addressed on-disk record store.
//!
//! Each record is one file named by its 64-bit key. Writes build the
//! full record in memory, write it to a unique temp file in the same
//! directory, and `rename` it into place — readers therefore only ever
//! observe complete rename targets, a failed write removes its temp file,
//! and a crash mid-write leaves at worst a stale `.tmp` file that is
//! ignored. Reads are *tolerant*: a missing, torn, corrupt, or
//! version-mismatched record simply reads as absent (`None`), never as
//! bad state and never as a panic — callers fall back to recomputing and
//! overwriting. [`Store::get_checked`] additionally reports *why* a read
//! failed, so self-healing layers can distinguish a record that never
//! existed from one that rotted on disk and [`Store::quarantine`] it for
//! post-mortem inspection instead of silently leaving (or deleting) it.
//! [`Store::verify_all`] sweeps a whole store the same way.
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! magic  [8]  b"PGSSCKPT"
//! version u32 STORE_FORMAT_VERSION
//! key     u64 must equal the key the file is named by
//! len     u64 payload length in bytes
//! check   u64 FNV-1a of the payload
//! payload [len]
//! ```

use std::fs;
use std::io;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pgss_obs::{NoopRecorder, Recorder};

use crate::codec::{fnv1a64, Decoder, Encoder};

/// Version stamped into every record; bumped whenever the record layout
/// (not the payload semantics) changes. Records with any other version
/// read as absent.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Leading magic of every record file.
pub const MAGIC: &[u8; 8] = b"PGSSCKPT";

/// Name of the sidecar directory (inside the store) that quarantined
/// files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Why a record file failed validation (or, for [`Store::verify_all`],
/// why a file in the store directory is not a servable record at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFault {
    /// Shorter than the fixed header — a torn write or empty file.
    TooShort,
    /// Leading magic is not [`MAGIC`].
    BadMagic,
    /// Header version differs from [`STORE_FORMAT_VERSION`].
    BadVersion,
    /// Header key differs from the key the file is named by.
    KeyMismatch,
    /// Header payload length disagrees with the file size.
    LengthMismatch,
    /// Payload checksum does not match the header.
    ChecksumMismatch,
    /// `verify_all` only: file name is not `{key:016x}.rec`.
    ForeignFile,
    /// `verify_all` only: leftover `.tmp` file from an interrupted write.
    StaleTemp,
}

impl std::fmt::Display for RecordFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecordFault::TooShort => "record shorter than its header (torn write)",
            RecordFault::BadMagic => "bad record magic",
            RecordFault::BadVersion => "stale record-format version",
            RecordFault::KeyMismatch => "record key does not match its file name",
            RecordFault::LengthMismatch => "payload length disagrees with file size",
            RecordFault::ChecksumMismatch => "payload checksum mismatch",
            RecordFault::ForeignFile => "file is not named like a record",
            RecordFault::StaleTemp => "stale temporary file from an interrupted write",
        })
    }
}

/// Why a strict read ([`Store::get_checked`]) returned no payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// No file exists for the key.
    Missing,
    /// A file exists but is not a valid record — a candidate for
    /// [`Store::quarantine`].
    Invalid(RecordFault),
    /// The file could not be read at all.
    Io(io::ErrorKind, String),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Missing => f.write_str("record missing"),
            RecordError::Invalid(fault) => write!(f, "invalid record: {fault}"),
            RecordError::Io(kind, msg) => write!(f, "record read failed ({kind}): {msg}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// One file moved aside by [`Store::verify_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// The key parsed from the file name, when it was a record file.
    pub key: Option<u64>,
    /// Where the file now lives (inside the quarantine directory).
    pub path: PathBuf,
    /// What was wrong with it.
    pub fault: RecordFault,
}

/// What a [`Store::verify_all`] sweep found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Files examined (quarantine sidecar excluded).
    pub checked: usize,
    /// Valid records left in place.
    pub healthy: usize,
    /// Files moved into the quarantine sidecar, in file-name order.
    pub quarantined: Vec<Quarantined>,
}

impl VerifyReport {
    /// True when nothing had to be quarantined.
    pub fn is_healthy(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// What a [`Store::gc`] mark-and-sweep pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Record files examined (quarantine sidecar and foreign files excluded).
    pub checked: usize,
    /// Records the liveness predicate kept.
    pub live: usize,
    /// Garbage records deleted.
    pub swept: usize,
    /// Bytes those deletions freed.
    pub bytes_freed: u64,
}

/// Message prefix of the error a budgeted [`Store::put`] returns when the
/// write would exceed the store's byte budget. Test with
/// [`is_budget_error`].
pub const BUDGET_EXCEEDED: &str = "store byte budget exceeded";

/// True when `err` is a [`Store`] byte-budget rejection (as opposed to a
/// real I/O failure) — the caller's cue to GC and retry rather than
/// degrade.
pub fn is_budget_error(err: &io::Error) -> bool {
    err.to_string().starts_with(BUDGET_EXCEEDED)
}

/// A directory of content-addressed records. Cheap to clone paths from;
/// safe for concurrent writers (last complete write wins atomically).
///
/// A store opens with the no-op [`Recorder`]; attach a real one with
/// [`Store::with_recorder`] to count hits / misses / invalid records /
/// quarantines and bytes moved (`ckpt.store.*` counters).
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    recorder: Arc<dyn Recorder>,
    budget: Option<u64>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            recorder: Arc::new(NoopRecorder),
            budget: None,
        })
    }

    /// The same store, reporting `ckpt.store.*` metrics to `recorder`.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Store {
        self.recorder = recorder;
        self
    }

    /// The same store, refusing any [`Store::put`] that would push total
    /// record bytes past `bytes` (see [`is_budget_error`]). The budget
    /// covers record files only — quarantined evidence is never counted
    /// against it, so a sick store cannot starve a healthy one.
    pub fn with_budget(mut self, bytes: u64) -> Store {
        self.budget = Some(bytes);
        self
    }

    /// The byte budget, if one is set.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Total bytes currently held in record files (quarantine sidecar and
    /// foreign files excluded).
    pub fn usage_bytes(&self) -> io::Result<u64> {
        let mut total = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if record_key_of(&entry.file_name()).is_some() {
                total += entry.metadata()?.len();
            }
        }
        Ok(total)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a record with `key` lives at (whether or not it exists).
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.rec"))
    }

    /// Atomically writes `payload` under `key`, replacing any previous
    /// record. The temp file is fsynced before the rename and the parent
    /// directory after it, so a committed record survives power loss, not
    /// just process death. On failure — whether the temp-file write or the
    /// rename — the temp file is removed, so a failed `put` leaves neither
    /// a torn record nor a stray temp file behind. With a budget set (see
    /// [`Store::with_budget`]), a put that would exceed it is rejected
    /// up front with a [`is_budget_error`] error and touches nothing.
    pub fn put(&self, key: u64, payload: &[u8]) -> io::Result<()> {
        let mut e = Encoder::new();
        // Header fields are written manually (not length-prefixed) so the
        // record layout is exactly the documented fixed header + payload.
        let mut record = Vec::with_capacity(36 + payload.len());
        record.extend_from_slice(MAGIC);
        e.put_u32(STORE_FORMAT_VERSION);
        e.put_u64(key);
        e.put_u64(payload.len() as u64);
        e.put_u64(fnv1a64(payload));
        record.extend_from_slice(&e.into_bytes());
        record.extend_from_slice(payload);

        if let Some(budget) = self.budget {
            let used = self.usage_bytes()?;
            if used.saturating_add(record.len() as u64) > budget {
                self.recorder.add("ckpt.store.budget_rejected", 1);
                return Err(io::Error::other(format!(
                    "{BUDGET_EXCEEDED}: {used} bytes held + {} incoming > {budget} budget",
                    record.len()
                )));
            }
        }

        let tmp = self.dir.join(format!(
            ".{key:016x}.{}.{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        match self.commit(&tmp, key, &record) {
            Ok(()) => {
                self.recorder.add("ckpt.store.put", 1);
                self.recorder
                    .add("ckpt.store.bytes_written", record.len() as u64);
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                self.recorder.add("ckpt.store.put_error", 1);
                Err(e)
            }
        }
    }

    /// The write-then-rename commit path, with its `fault-inject` points:
    /// an injected put failure simulates a disk filling mid-write by
    /// leaving a torn temp file and returning an error (the caller's
    /// cleanup removes it); an injected torn rename reports success but
    /// leaves half a record at the destination, which the read path must
    /// detect and heal.
    fn commit(&self, tmp: &Path, key: u64, record: &[u8]) -> io::Result<()> {
        #[cfg(feature = "fault-inject")]
        match crate::faults::on_put() {
            Some(crate::faults::PutFault::Fail(err)) => {
                let _ = fs::write(tmp, &record[..record.len() / 2]);
                return Err(err);
            }
            Some(crate::faults::PutFault::TornRename) => {
                fs::write(tmp, record)?;
                fs::write(self.path_for(key), &record[..record.len() / 2])?;
                fs::remove_file(tmp)?;
                return Ok(());
            }
            None => {}
        }
        {
            let mut f = fs::File::create(tmp)?;
            f.write_all(record)?;
            self.fsync_file(&f)?;
        }
        fs::rename(tmp, self.path_for(key))?;
        self.fsync_dir()
    }

    /// Flushes a written temp file to stable storage (durability barrier
    /// one of two; see [`Store::fsync_dir`]).
    fn fsync_file(&self, f: &fs::File) -> io::Result<()> {
        #[cfg(feature = "fault-inject")]
        if crate::faults::on_fsync() {
            return Ok(());
        }
        f.sync_all()?;
        self.recorder.add("ckpt.store.fsync", 1);
        Ok(())
    }

    /// Flushes the store directory so the rename itself — not just the
    /// file contents — survives power loss (barrier two of two).
    fn fsync_dir(&self) -> io::Result<()> {
        #[cfg(feature = "fault-inject")]
        if crate::faults::on_fsync() {
            return Ok(());
        }
        fs::File::open(&self.dir)?.sync_all()?;
        self.recorder.add("ckpt.store.fsync", 1);
        Ok(())
    }

    /// Reads the payload stored under `key`. Returns `None` when the
    /// record is missing or fails any validation (magic, version, key,
    /// length, checksum) — corrupt records are never served.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.get_checked(key).ok()
    }

    /// Like [`Store::get`], but reporting *why* nothing was served:
    /// [`RecordError::Missing`] for a key that was never written,
    /// [`RecordError::Invalid`] for a file that exists but fails
    /// validation (self-healing callers quarantine and recompute those),
    /// [`RecordError::Io`] for an unreadable file.
    pub fn get_checked(&self, key: u64) -> Result<Vec<u8>, RecordError> {
        let result = self.get_checked_inner(key);
        self.recorder.add(
            match &result {
                Ok(_) => "ckpt.store.hit",
                Err(RecordError::Missing) => "ckpt.store.miss",
                Err(RecordError::Invalid(_)) => "ckpt.store.invalid",
                Err(RecordError::Io(..)) => "ckpt.store.io_error",
            },
            1,
        );
        if let Ok(payload) = &result {
            self.recorder
                .add("ckpt.store.bytes_read", payload.len() as u64);
        }
        result
    }

    fn get_checked_inner(&self, key: u64) -> Result<Vec<u8>, RecordError> {
        let path = self.path_for(key);
        #[allow(unused_mut)] // mutated only under `fault-inject`
        let mut bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(RecordError::Missing),
            Err(e) => return Err(RecordError::Io(e.kind(), e.to_string())),
        };
        #[cfg(feature = "fault-inject")]
        crate::faults::on_get(&mut bytes).map_err(|e| RecordError::Io(e.kind(), e.to_string()))?;
        parse_record(&bytes, key)
            .map(<[u8]>::to_vec)
            .map_err(RecordError::Invalid)
    }

    /// Removes the record under `key` if present.
    pub fn remove(&self, key: u64) -> io::Result<()> {
        match fs::remove_file(self.path_for(key)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    /// The sidecar directory quarantined files are moved into (not
    /// created until something is quarantined).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    /// Moves the file holding `key`'s record — however invalid — into the
    /// quarantine sidecar, preserving its name for post-mortem inspection.
    /// Returns the destination, or `Ok(None)` when no file exists. A
    /// later [`Store::put`] under the same key then re-creates a healthy
    /// record in the main directory.
    pub fn quarantine(&self, key: u64) -> io::Result<Option<PathBuf>> {
        let src = self.path_for(key);
        if !src.exists() {
            return Ok(None);
        }
        let dst = self.quarantine_dir().join(format!("{key:016x}.rec"));
        fs::create_dir_all(self.quarantine_dir())?;
        fs::rename(&src, &dst)?;
        self.recorder.add("ckpt.store.quarantined", 1);
        Ok(Some(dst))
    }

    /// Scans every file in the store directory (quarantine sidecar
    /// excluded), validating each record against the key its name claims,
    /// and moves everything unservable — corrupt, torn, stale-version,
    /// key-mismatched, or foreign files, plus leftover `.tmp` files —
    /// into the quarantine sidecar. Valid records are untouched. Files
    /// are visited in name order, so the report is deterministic.
    ///
    /// Intended as a maintenance sweep while no writers are active: a
    /// concurrent `put`'s in-flight temp file would be indistinguishable
    /// from a stale one.
    pub fn verify_all(&self) -> io::Result<VerifyReport> {
        let mut names: Vec<std::ffi::OsString> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                continue; // the quarantine sidecar (or anything foreign)
            }
            names.push(entry.file_name());
        }
        names.sort();
        let mut report = VerifyReport::default();
        for name in names {
            report.checked += 1;
            let path = self.dir.join(&name);
            let (key, fault) = match record_key_of(&name) {
                Some(key) => match fs::read(&path) {
                    Ok(bytes) => match parse_record(&bytes, key) {
                        Ok(_) => {
                            report.healthy += 1;
                            continue;
                        }
                        Err(fault) => (Some(key), fault),
                    },
                    // Unreadable on a healthy filesystem means torn badly
                    // enough that metadata survives but data does not.
                    Err(_) => (Some(key), RecordFault::TooShort),
                },
                None if name.to_string_lossy().ends_with(".tmp") => (None, RecordFault::StaleTemp),
                None => (None, RecordFault::ForeignFile),
            };
            fs::create_dir_all(self.quarantine_dir())?;
            let dst = self.quarantine_dir().join(&name);
            fs::rename(&path, &dst)?;
            report.quarantined.push(Quarantined {
                key,
                path: dst,
                fault,
            });
        }
        Ok(report)
    }

    /// Mark-and-sweep: deletes every record file whose key `is_live`
    /// rejects, in file-name order. The quarantine sidecar, stale temp
    /// files, and foreign files are never touched — GC reclaims only
    /// well-formed record names, and evidence is [`Store::verify_all`]'s
    /// business, not GC's. Each deletion is individually atomic, so a
    /// crash mid-sweep leaves a store that is merely less collected,
    /// never less correct.
    ///
    /// Callers own consistency: the liveness predicate must cover every
    /// record any concurrent writer could still need (over-approximating
    /// liveness is always safe; `pgss-serve` holds its scheduler lock
    /// across mark and sweep for exactly this reason).
    pub fn gc(&self, is_live: impl Fn(u64) -> bool) -> io::Result<GcReport> {
        let mut names: Vec<std::ffi::OsString> = fs::read_dir(&self.dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name();
                record_key_of(&name).map(|_| name)
            })
            .collect();
        names.sort();
        let mut report = GcReport::default();
        for name in names {
            let Some(key) = record_key_of(&name) else {
                continue;
            };
            report.checked += 1;
            if is_live(key) {
                report.live += 1;
                continue;
            }
            let path = self.dir.join(&name);
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            match fs::remove_file(&path) {
                Ok(()) => {
                    report.swept += 1;
                    report.bytes_freed += len;
                }
                // A concurrent quarantine or remove got there first.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        self.recorder.add("ckpt.gc.runs", 1);
        self.recorder.add("ckpt.gc.live", report.live as u64);
        self.recorder.add("ckpt.gc.swept", report.swept as u64);
        self.recorder.add("ckpt.gc.bytes_freed", report.bytes_freed);
        Ok(report)
    }
}

/// Parses `{key:016x}.rec` file names back to their key.
fn record_key_of(name: &std::ffi::OsStr) -> Option<u64> {
    let name = name.to_str()?;
    let hex = name.strip_suffix(".rec")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn parse_record(bytes: &[u8], key: u64) -> Result<&[u8], RecordFault> {
    if bytes.len() < 36 {
        return Err(RecordFault::TooShort);
    }
    if &bytes[..8] != MAGIC {
        return Err(RecordFault::BadMagic);
    }
    let mut d = Decoder::new(&bytes[8..]);
    let header = (|| {
        Ok::<_, crate::codec::CodecError>((d.get_u32()?, d.get_u64()?, d.get_u64()?, d.get_u64()?))
    })();
    let Ok((version, rec_key, len, check)) = header else {
        return Err(RecordFault::TooShort);
    };
    if version != STORE_FORMAT_VERSION {
        return Err(RecordFault::BadVersion);
    }
    if rec_key != key {
        return Err(RecordFault::KeyMismatch);
    }
    let payload = &bytes[36..];
    if payload.len() as u64 != len {
        return Err(RecordFault::LengthMismatch);
    }
    if fnv1a64(payload) != check {
        return Err(RecordFault::ChecksumMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault plans are process-wide and count every store's operations,
    /// so with `fault-inject` on, a fault-free test holds the fault-test
    /// lock as the fault tests do; otherwise the two interleave.
    fn fault_free() -> impl Sized {
        #[cfg(feature = "fault-inject")]
        return crate::faults::serialize();
        #[cfg(not(feature = "fault-inject"))]
        ()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pgss-ckpt-{name}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip_and_overwrite() {
        let _serial = fault_free();
        let dir = scratch("roundtrip");
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get(7), None);
        s.put(7, b"hello").unwrap();
        assert_eq!(s.get(7).as_deref(), Some(&b"hello"[..]));
        s.put(7, b"world").unwrap();
        assert_eq!(s.get(7).as_deref(), Some(&b"world"[..]));
        s.remove(7).unwrap();
        assert_eq!(s.get(7), None);
        s.remove(7).unwrap(); // idempotent
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_payload_is_a_valid_record() {
        let _serial = fault_free();
        let dir = scratch("empty");
        let s = Store::open(&dir).unwrap();
        s.put(1, b"").unwrap();
        assert_eq!(s.get(1).as_deref(), Some(&b""[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_records_read_as_absent() {
        let _serial = fault_free();
        let dir = scratch("torn");
        let s = Store::open(&dir).unwrap();
        s.put(9, b"some payload that matters").unwrap();
        let path = s.path_for(9);
        let full = fs::read(&path).unwrap();
        for cut in [0, 3, 8, 20, 35, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(s.get(9), None, "torn at {cut} bytes served data");
        }
        // Restoring the full record serves again.
        fs::write(&path, &full).unwrap();
        assert!(s.get(9).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_and_garbage_read_as_absent() {
        let _serial = fault_free();
        let dir = scratch("corrupt");
        let s = Store::open(&dir).unwrap();
        s.put(3, b"checksummed payload").unwrap();
        let path = s.path_for(3);
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40; // flip one payload bit
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.get(3), None);
        // Outright garbage in place of a record.
        fs::write(&path, b"not a checkpoint record at all").unwrap();
        assert_eq!(s.get(3), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_and_key_mismatches_read_as_absent() {
        let _serial = fault_free();
        let dir = scratch("version");
        let s = Store::open(&dir).unwrap();
        s.put(5, b"payload").unwrap();
        let path = s.path_for(5);
        let good = fs::read(&path).unwrap();

        let mut stale = good.clone();
        stale[8] = stale[8].wrapping_add(1); // bump the version field
        fs::write(&path, &stale).unwrap();
        assert_eq!(s.get(5), None, "stale-version record served");

        let mut wrong_key = good.clone();
        wrong_key[12] ^= 0xff; // record claims a different key
        fs::write(&path, &wrong_key).unwrap();
        assert_eq!(s.get(5), None, "key-mismatched record served");

        fs::write(&path, &good).unwrap();
        assert!(s.get(5).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_checked_distinguishes_missing_invalid_and_healthy() {
        let _serial = fault_free();
        let dir = scratch("checked");
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get_checked(4), Err(RecordError::Missing));
        s.put(4, b"payload").unwrap();
        assert_eq!(s.get_checked(4).as_deref(), Ok(&b"payload"[..]));
        let path = s.path_for(4);
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            s.get_checked(4),
            Err(RecordError::Invalid(RecordFault::ChecksumMismatch))
        );
        fs::write(&path, &bytes[..10]).unwrap();
        assert_eq!(
            s.get_checked(4),
            Err(RecordError::Invalid(RecordFault::TooShort))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_moves_the_bad_file_aside_and_heals_on_next_put() {
        let _serial = fault_free();
        let dir = scratch("quarantine");
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.quarantine(8).unwrap(), None, "nothing to quarantine");
        s.put(8, b"rotting payload").unwrap();
        fs::write(s.path_for(8), b"garbage").unwrap();
        let dst = s.quarantine(8).unwrap().expect("file moved");
        assert!(dst.starts_with(s.quarantine_dir()));
        assert_eq!(fs::read(&dst).unwrap(), b"garbage", "evidence preserved");
        assert_eq!(s.get_checked(8), Err(RecordError::Missing));
        // The key is usable again: a fresh put re-creates a healthy record.
        s.put(8, b"healed").unwrap();
        assert_eq!(s.get(8).as_deref(), Some(&b"healed"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_all_quarantines_every_fault_class_and_keeps_healthy_records() {
        let _serial = fault_free();
        let dir = scratch("verify");
        let s = Store::open(&dir).unwrap();
        s.put(1, b"healthy one").unwrap();
        s.put(2, b"healthy two").unwrap();
        // Corrupt payload.
        s.put(3, b"will rot").unwrap();
        let mut bytes = fs::read(s.path_for(3)).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        fs::write(s.path_for(3), &bytes).unwrap();
        // Stale version.
        s.put(4, b"stale").unwrap();
        let mut bytes = fs::read(s.path_for(4)).unwrap();
        bytes[8] = bytes[8].wrapping_add(1);
        fs::write(s.path_for(4), &bytes).unwrap();
        // Torn write, foreign file, stale temp.
        s.put(5, b"torn").unwrap();
        let bytes = fs::read(s.path_for(5)).unwrap();
        fs::write(s.path_for(5), &bytes[..20]).unwrap();
        fs::write(dir.join("notes.txt"), b"not a record").unwrap();
        fs::write(dir.join(".0000000000000007.99.0.tmp"), b"interrupted").unwrap();

        let report = s.verify_all().unwrap();
        assert_eq!(report.checked, 7);
        assert_eq!(report.healthy, 2);
        assert!(!report.is_healthy());
        let faults: Vec<(Option<u64>, RecordFault)> = report
            .quarantined
            .iter()
            .map(|q| (q.key, q.fault))
            .collect();
        assert!(faults.contains(&(Some(3), RecordFault::ChecksumMismatch)));
        assert!(faults.contains(&(Some(4), RecordFault::BadVersion)));
        assert!(faults.contains(&(Some(5), RecordFault::TooShort)));
        assert!(faults.contains(&(None, RecordFault::ForeignFile)));
        assert!(faults.contains(&(None, RecordFault::StaleTemp)));
        for q in &report.quarantined {
            assert!(q.path.exists(), "{:?} not preserved", q.path);
        }
        // Healthy records still served; quarantined keys read as missing.
        assert!(s.get(1).is_some() && s.get(2).is_some());
        assert_eq!(s.get_checked(3), Err(RecordError::Missing));
        // A second sweep (over the now-clean directory) finds no faults.
        let again = s.verify_all().unwrap();
        assert!(again.is_healthy());
        assert_eq!(again.healthy, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_put_leaves_no_torn_record_and_no_temp_file() {
        let _serial = fault_free();
        let dir = scratch("failed-put");
        let s = Store::open(&dir).unwrap();
        s.put(6, b"survivor").unwrap();
        // Force the rename to fail: make the destination path a directory.
        fs::create_dir_all(s.path_for(7)).unwrap();
        assert!(s.put(7, b"doomed").is_err());
        fs::remove_dir(s.path_for(7)).unwrap();
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| *n != format!("{:016x}.rec", 6))
            .collect();
        assert!(
            leftovers.is_empty(),
            "failed put left files behind: {leftovers:?}"
        );
        assert_eq!(s.get(6).as_deref(), Some(&b"survivor"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_put_failure_cleans_up_its_torn_temp_file() {
        let dir = scratch("inject-put");
        let s = Store::open(&dir).unwrap();
        let _guard = crate::faults::install(crate::faults::StoreFaultPlan {
            fail_puts: vec![0],
            ..crate::faults::StoreFaultPlan::default()
        });
        assert!(s.put(9, b"never lands").is_err());
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "injected put failure left a file behind"
        );
        // The next put (no longer sabotaged) succeeds normally.
        s.put(9, b"lands").unwrap();
        assert_eq!(s.get(9).as_deref(), Some(&b"lands"[..]));
        assert_eq!(crate::faults::injection_log().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_get_faults_surface_as_io_corrupt_and_torn() {
        let dir = scratch("inject-get");
        let s = Store::open(&dir).unwrap();
        s.put(10, b"pristine on disk").unwrap();
        let _guard = crate::faults::install(crate::faults::StoreFaultPlan {
            fail_gets: vec![0],
            corrupt_gets: vec![1],
            truncate_gets: vec![2],
            ..crate::faults::StoreFaultPlan::default()
        });
        assert!(matches!(s.get_checked(10), Err(RecordError::Io(..))));
        assert_eq!(
            s.get_checked(10),
            Err(RecordError::Invalid(RecordFault::ChecksumMismatch))
        );
        assert!(matches!(
            s.get_checked(10),
            Err(RecordError::Invalid(RecordFault::TooShort))
        ));
        // Past the plan, the untouched on-disk record serves again.
        assert_eq!(s.get(10).as_deref(), Some(&b"pristine on disk"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorder_counts_hits_misses_invalid_and_quarantines() {
        let _serial = fault_free();
        let dir = scratch("recorder");
        let rec = Arc::new(pgss_obs::MetricsRecorder::new());
        let s = Store::open(&dir)
            .unwrap()
            .with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        assert_eq!(s.get(1), None); // miss
        s.put(1, b"payload").unwrap();
        assert!(s.get(1).is_some()); // hit
        let mut bytes = fs::read(s.path_for(1)).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        fs::write(s.path_for(1), &bytes).unwrap();
        assert_eq!(s.get(1), None); // invalid
        s.quarantine(1).unwrap().expect("moved aside");

        let frame = rec.frame();
        assert_eq!(frame.counter("ckpt.store.miss"), 1);
        assert_eq!(frame.counter("ckpt.store.hit"), 1);
        assert_eq!(frame.counter("ckpt.store.invalid"), 1);
        assert_eq!(frame.counter("ckpt.store.quarantined"), 1);
        assert_eq!(frame.counter("ckpt.store.put"), 1);
        assert_eq!(frame.counter("ckpt.store.bytes_read"), 7);
        assert!(frame.counter("ckpt.store.bytes_written") > 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_sweeps_garbage_but_spares_live_records_and_quarantine() {
        let _serial = fault_free();
        let dir = scratch("gc");
        let s = Store::open(&dir).unwrap();
        s.put(1, b"live one").unwrap();
        s.put(2, b"garbage").unwrap();
        s.put(3, b"live two").unwrap();
        s.put(4, b"rotting").unwrap();
        fs::write(s.path_for(4), b"junk").unwrap();
        s.quarantine(4).unwrap().expect("moved aside");
        // A stale temp and a foreign file must survive a sweep untouched.
        fs::write(dir.join(".0000000000000009.1.0.tmp"), b"interrupted").unwrap();
        fs::write(dir.join("notes.txt"), b"not a record").unwrap();

        let garbage_len = fs::metadata(s.path_for(2)).unwrap().len();
        let report = s.gc(|k| k == 1 || k == 3).unwrap();
        assert_eq!(
            report,
            GcReport {
                checked: 3,
                live: 2,
                swept: 1,
                bytes_freed: garbage_len,
            }
        );
        assert!(s.get(1).is_some() && s.get(3).is_some());
        assert_eq!(s.get_checked(2), Err(RecordError::Missing));
        assert!(
            s.quarantine_dir().join(format!("{:016x}.rec", 4)).exists(),
            "gc touched the quarantine sidecar"
        );
        assert!(dir.join(".0000000000000009.1.0.tmp").exists());
        assert!(dir.join("notes.txt").exists());
        // A second sweep over the same live set is a no-op.
        let again = s.gc(|k| k == 1 || k == 3).unwrap();
        assert_eq!(again.swept, 0);
        assert_eq!(again.live, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_rejects_puts_until_gc_frees_garbage() {
        let _serial = fault_free();
        let dir = scratch("budget");
        // Records are 36 header bytes + payload; budget fits two of these
        // 44-byte records but not three.
        let s = Store::open(&dir).unwrap().with_budget(100);
        assert_eq!(s.budget(), Some(100));
        s.put(1, b"payload1").unwrap();
        s.put(2, b"payload2").unwrap();
        let used = s.usage_bytes().unwrap();
        assert_eq!(used, 88);
        let err = s.put(3, b"payload3").unwrap_err();
        assert!(is_budget_error(&err), "unexpected error: {err}");
        assert_eq!(s.get(3), None, "rejected put must touch nothing");
        // Freeing garbage re-admits the write.
        s.gc(|k| k == 1).unwrap();
        s.put(3, b"payload3").unwrap();
        assert_eq!(s.get(3).as_deref(), Some(&b"payload3"[..]));
        // Real I/O failures are not budget errors.
        assert!(!is_budget_error(&io::Error::other("disk on fire")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_fsyncs_file_and_directory() {
        let _serial = fault_free();
        let dir = scratch("fsync");
        let rec = Arc::new(pgss_obs::MetricsRecorder::new());
        let s = Store::open(&dir)
            .unwrap()
            .with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        s.put(1, b"durable").unwrap();
        assert_eq!(
            rec.frame().counter("ckpt.store.fsync"),
            2,
            "one barrier for the temp file, one for the rename"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn dropped_fsyncs_are_observable_through_the_counter() {
        let dir = scratch("drop-fsync");
        let rec = Arc::new(pgss_obs::MetricsRecorder::new());
        let s = Store::open(&dir)
            .unwrap()
            .with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        let _guard = crate::faults::install(crate::faults::StoreFaultPlan {
            drop_fsyncs: true,
            ..crate::faults::StoreFaultPlan::default()
        });
        s.put(1, b"undurable").unwrap();
        assert_eq!(
            rec.frame().counter("ckpt.store.fsync"),
            0,
            "the knob must drop both barriers"
        );
        assert_eq!(
            crate::faults::injection_log(),
            vec!["fsync: dropped".to_string(); 2]
        );
        // The record still reads back — only durability was sacrificed.
        assert_eq!(s.get(1).as_deref(), Some(&b"undurable"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn torn_rename_reports_success_but_reads_detect_the_tear() {
        let dir = scratch("torn-rename");
        let s = Store::open(&dir).unwrap();
        let _guard = crate::faults::install(crate::faults::StoreFaultPlan {
            torn_renames: vec![0],
            ..crate::faults::StoreFaultPlan::default()
        });
        s.put(5, b"a payload long enough to tear")
            .expect("torn rename lies about success");
        assert!(matches!(
            s.get_checked(5),
            Err(RecordError::Invalid(RecordFault::TooShort))
        ));
        // The standard healing path: quarantine the tear, rewrite.
        s.quarantine(5)
            .unwrap()
            .expect("tear preserved as evidence");
        s.put(5, b"a payload long enough to tear").unwrap();
        assert!(s.get(5).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn disk_full_rejects_every_put_from_the_named_op() {
        let dir = scratch("disk-full");
        let s = Store::open(&dir).unwrap();
        let _guard = crate::faults::install(crate::faults::StoreFaultPlan {
            full_after_puts: Some(1),
            ..crate::faults::StoreFaultPlan::default()
        });
        s.put(1, b"fits").unwrap();
        assert!(s.put(2, b"disk full").is_err());
        assert!(s.put(3, b"still full").is_err());
        assert_eq!(s.get(1).as_deref(), Some(&b"fits"[..]));
        assert_eq!(s.get(2), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_agree() {
        let _serial = fault_free();
        let dir = scratch("concurrent");
        let s = Store::open(&dir).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        s.put(11, b"identical payload").unwrap();
                        // Reads racing the writers must see either absence
                        // or the complete payload, never a torn one.
                        if let Some(p) = s.get(11) {
                            assert_eq!(p, b"identical payload");
                        }
                    }
                });
            }
        });
        assert_eq!(s.get(11).as_deref(), Some(&b"identical payload"[..]));
        let _ = fs::remove_dir_all(&dir);
    }
}
