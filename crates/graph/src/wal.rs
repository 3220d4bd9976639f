//! The write-ahead log behind `parcc serve --wal`: every committed batch
//! is appended as a checksummed record *before* it is acknowledged, so a
//! crash loses nothing a client was told succeeded.
//!
//! ## Layout (version 1, all multi-byte fields little-endian)
//!
//! | bytes | field |
//! |---|---|
//! | `0..8` | magic `PARCCWAL` |
//! | `8..12` | format version, `u32` (= 1) |
//! | `12..16` | reserved, `u32` (= 0) |
//! | then, per record: | |
//! | `+0..4` | payload length in bytes, `u32` (multiple of 8, ≤ 128 MiB) |
//! | `+4..8` | CRC-32 of the payload |
//! | `+8..8+len` | payload: packed edge words (`u << 32 \| v`), one batch |
//!
//! A record payload is capped at 128 MiB so replay can reject a torn or
//! corrupt length field without attempting a giant allocation; a batch
//! larger than the cap ([`MAX_RECORD_EDGES`] edges) is split across
//! consecutive records at append time, never rejected at replay time.
//!
//! ## Torn tails
//!
//! A crash mid-append leaves a **torn tail**: a final record whose header
//! or payload is incomplete, or whose checksum does not match.
//! [`Wal::open`] replays every valid record from the start, stops at the
//! first invalid one, and truncates the file back to the last valid
//! record boundary — the recovered state is exactly the acknowledged
//! prefix (an unacknowledged final append may also survive if its bytes
//! all made it down; absorbing it is safe because batch absorption is
//! idempotent for connectivity). A file whose *header* is unrecognizable
//! is an error, never truncated: the log will not clobber a file it did
//! not write.
//!
//! ## Sync policy
//!
//! [`SyncPolicy::Batch`] (`--wal-sync batch`, the default) fsyncs after
//! every append — an acknowledgment means bytes-on-platter durable.
//! [`SyncPolicy::Interval`] fsyncs at most once per interval (bounded
//! loss window, much cheaper on spinning disks), and
//! [`SyncPolicy::Off`] leaves write-back entirely to the OS.
//!
//! `save` in a serve session compacts: snapshot the forest (atomically —
//! see [`crate::mmap::save_binary`]), then [`Wal::compact`] truncates the
//! log, so restart cost stays `O(n + tail)` instead of replaying history.

use parcc_pram::edge::{edges_from_words, Edge};
use parcc_pram::failpoint;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"PARCCWAL";
/// Current (and only) WAL format version.
pub const WAL_VERSION: u32 = 1;
/// File header length: magic + version + reserved word.
pub const WAL_HEADER: u64 = 16;
/// Per-record header length: payload length + payload CRC.
pub const RECORD_HEADER: u64 = 8;
/// Sanity cap on a single record's payload (128 MiB of edges): a torn or
/// corrupt length field must not trigger a giant allocation.
const MAX_RECORD_BYTES: u32 = 128 << 20;
/// Most edges a single record can carry ([`Wal::append`] splits larger
/// batches across consecutive records, so nothing the log acknowledges
/// can ever trip the replay-side payload cap).
pub const MAX_RECORD_EDGES: usize = (MAX_RECORD_BYTES / 8) as usize;

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append: acknowledged ⇒ durable.
    Batch,
    /// fsync at most once per interval: bounded loss window.
    Interval(Duration),
    /// Never fsync; the OS writes back on its own schedule.
    Off,
}

impl SyncPolicy {
    /// Parse a `--wal-sync` value: `batch`, `interval` (100 ms), or `off`.
    ///
    /// # Errors
    /// Names the accepted values on anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "batch" => Ok(Self::Batch),
            "interval" => Ok(Self::Interval(Duration::from_millis(100))),
            "off" => Ok(Self::Off),
            other => Err(format!(
                "bad --wal-sync value '{other}' (expected batch, interval, or off)"
            )),
        }
    }

    /// The `--wal-sync` spelling of this policy.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Batch => "batch",
            Self::Interval(_) => "interval",
            Self::Off => "off",
        }
    }
}

/// What [`Wal::open`] recovered from an existing log.
#[derive(Debug, Default)]
pub struct Replay {
    /// The replayed batches, append order.
    pub batches: Vec<Vec<Edge>>,
    /// Total edges across `batches`.
    pub edges: u64,
    /// Bytes truncated from a torn tail (0 for a clean log).
    pub torn_bytes: u64,
}

impl Replay {
    /// Number of replayed batches.
    #[must_use]
    pub fn batch_count(&self) -> u64 {
        self.batches.len() as u64
    }
}

/// An open write-ahead log positioned for appending.
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    /// Records currently in the log (replayed + appended - compacted).
    records: u64,
    /// Current log length in bytes (header included).
    bytes: u64,
    /// fsyncs issued so far.
    syncs: u64,
    last_sync: Instant,
}

/// Scan the record stream after a valid header. Returns the replay and
/// the byte offset just past the last valid record.
fn scan_records(mut r: impl Read, file_len: u64) -> (Replay, u64) {
    let mut replay = Replay::default();
    let mut valid_end = WAL_HEADER;
    loop {
        let mut head = [0u8; RECORD_HEADER as usize];
        if r.read_exact(&mut head).is_err() {
            break; // clean EOF or torn record header
        }
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        if len % 8 != 0
            || len > MAX_RECORD_BYTES
            || u64::from(len) > file_len - valid_end - RECORD_HEADER
        {
            break; // nonsense length: torn or corrupt tail
        }
        let mut payload = vec![0u8; len as usize];
        if r.read_exact(&mut payload).is_err() {
            break; // torn payload
        }
        if crate::crc::crc32(&payload) != crc {
            break; // checksum mismatch: torn or corrupt tail
        }
        let words: Vec<u64> = payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        replay.edges += words.len() as u64;
        replay.batches.push(edges_from_words(&words).to_vec());
        valid_end += RECORD_HEADER + u64::from(len);
    }
    replay.torn_bytes = file_len - valid_end;
    (replay, valid_end)
}

impl Wal {
    /// Open (or create) the log at `path`: replay every valid record,
    /// truncate any torn tail back to the last valid record boundary, and
    /// position the file for appending.
    ///
    /// # Errors
    /// On I/O failure, or if `path` holds a file that is not a parcc WAL
    /// (wrong magic/version) — the log never truncates a file it cannot
    /// prove it wrote.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<(Self, Replay), String> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let file_len = file
            .metadata()
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        let err = |e: String| format!("{}: {e}", path.display());
        let (replay, end) = if file_len == 0 {
            // Fresh log: write the header and make the file itself durable.
            file.write_all(&WAL_MAGIC).map_err(|e| err(e.to_string()))?;
            file.write_all(&WAL_VERSION.to_le_bytes())
                .map_err(|e| err(e.to_string()))?;
            file.write_all(&0u32.to_le_bytes())
                .map_err(|e| err(e.to_string()))?;
            file.sync_all().map_err(|e| err(e.to_string()))?;
            crate::io::sync_parent_dir(path);
            (Replay::default(), WAL_HEADER)
        } else {
            let mut head = [0u8; WAL_HEADER as usize];
            file.read_exact(&mut head)
                .map_err(|_| err("truncated WAL header".into()))?;
            if head[..8] != WAL_MAGIC {
                return Err(err("bad magic: not a parcc WAL file".into()));
            }
            let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
            if version != WAL_VERSION {
                return Err(err(format!(
                    "unsupported WAL version {version} (expected {WAL_VERSION})"
                )));
            }
            let (replay, end) = scan_records(&mut file, file_len);
            if end < file_len {
                // Torn tail: truncate back to the last valid record so the
                // next append never interleaves with garbage bytes.
                file.set_len(end).map_err(|e| err(e.to_string()))?;
                file.sync_all().map_err(|e| err(e.to_string()))?;
            }
            (replay, end)
        };
        file.seek(SeekFrom::Start(end))
            .map_err(|e| err(e.to_string()))?;
        let records = replay.batch_count();
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                policy,
                records,
                bytes: end,
                syncs: 0,
                last_sync: Instant::now(),
            },
            replay,
        ))
    }

    /// Append one batch as checksummed records and apply the sync policy.
    /// A batch larger than [`MAX_RECORD_EDGES`] is split across
    /// consecutive records, so no acknowledged batch can ever exceed the
    /// replay-side payload cap and be mistaken for corruption. Only after
    /// this returns `Ok` may the batch be acknowledged.
    ///
    /// # Errors
    /// On I/O failure (including injected `wal-append` failpoints). Every
    /// record write starts at the last committed record boundary, so a
    /// same-process retry overwrites any torn bytes from the failed
    /// attempt in place; a crash instead truncates them on the next open.
    /// A failure partway through a split batch leaves the earlier chunks
    /// in the log — a retry re-appends the whole batch, which is safe
    /// because batch absorption is idempotent for connectivity.
    pub fn append(&mut self, edges: &[Edge]) -> std::io::Result<()> {
        self.append_chunked(edges, MAX_RECORD_EDGES)
    }

    /// [`Wal::append`] with an explicit per-record edge cap (tests shrink
    /// it to exercise splitting without gigabyte batches).
    fn append_chunked(&mut self, edges: &[Edge], cap: usize) -> std::io::Result<()> {
        if edges.len() <= cap {
            return self.append_record(edges);
        }
        for chunk in edges.chunks(cap) {
            self.append_record(chunk)?;
        }
        Ok(())
    }

    /// Write one record (at most [`MAX_RECORD_EDGES`] edges) at the
    /// committed tail and apply the sync policy.
    fn append_record(&mut self, edges: &[Edge]) -> std::io::Result<()> {
        debug_assert!(edges.len() <= MAX_RECORD_EDGES);
        // Always write from the last committed record boundary: a failed
        // earlier append (partial write, failed fsync, injected fault)
        // leaves the cursor past torn bytes, and appending after them
        // would strand this and every later record behind garbage that
        // replay cannot cross.
        self.file.seek(SeekFrom::Start(self.bytes))?;
        let mut record = Vec::with_capacity(RECORD_HEADER as usize + edges.len() * 8);
        record.extend_from_slice(&((edges.len() * 8) as u32).to_le_bytes());
        let mut crc = crate::crc::Crc32::new();
        for e in edges {
            crc.update(&e.0.to_le_bytes());
        }
        record.extend_from_slice(&crc.finish().to_le_bytes());
        for e in edges {
            record.extend_from_slice(&e.0.to_le_bytes());
        }
        if let Some(kind) = failpoint::check("wal-append") {
            if kind == failpoint::FailKind::TornWrite {
                // Simulate power loss mid-record: half the bytes reach the
                // disk, the append reports failure, the file stays torn
                // (the boundary seek above rewinds a same-process retry
                // over them).
                self.file.write_all(&record[..record.len() / 2])?;
                self.file.sync_all()?;
            }
            return Err(failpoint::as_io_error("wal-append", kind));
        }
        let result = self
            .file
            .write_all(&record)
            .and_then(|()| match self.policy {
                SyncPolicy::Batch => self.sync(),
                SyncPolicy::Interval(every) if self.last_sync.elapsed() >= every => self.sync(),
                SyncPolicy::Interval(_) | SyncPolicy::Off => Ok(()),
            });
        if let Err(e) = result {
            // The record is absent, torn, or not durable: drop whatever
            // made it past the committed boundary (best-effort — open()
            // truncates a leftover tail too) so the file and the
            // bytes/records accounting agree for the retry.
            let _ = self.file.set_len(self.bytes);
            return Err(e);
        }
        self.records += 1;
        self.bytes += record.len() as u64;
        Ok(())
    }

    /// fsync the log now, regardless of policy.
    ///
    /// # Errors
    /// Propagates the underlying `fsync` failure.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.syncs += 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Compact: drop every record (the caller just persisted a snapshot
    /// covering them) and shrink the log back to its header.
    ///
    /// # Errors
    /// Propagates truncation/sync failures.
    pub fn compact(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_HEADER)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER))?;
        self.file.sync_all()?;
        self.syncs += 1;
        self.records = 0;
        self.bytes = WAL_HEADER;
        Ok(())
    }

    /// Records currently in the log.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current log size in bytes (header included).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// fsyncs issued by this handle.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The configured sync policy.
    #[must_use]
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("policy", &self.policy.name())
            .field("records", &self.records)
            .field("bytes", &self.bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            Self(
                std::env::temp_dir()
                    .join(format!("parcc-wal-test-{}-{tag}.wal", std::process::id())),
            )
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Hold the failpoint test lock unarmed, so a `wal-append` rule armed
    /// by a concurrently running test cannot fire on this test's appends.
    fn serial() -> failpoint::Scoped {
        failpoint::scoped("")
    }

    fn batch(base: u32, len: u32) -> Vec<Edge> {
        (0..len)
            .map(|i| Edge::new(base + i, base + i + 1))
            .collect()
    }

    #[test]
    fn append_replay_roundtrip() {
        let _fp = serial();
        let tmp = TempPath::new("roundtrip");
        let batches = vec![batch(0, 3), batch(10, 1), Vec::new(), batch(20, 5)];
        {
            let (mut wal, replay) = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap();
            assert_eq!(replay.batch_count(), 0);
            for b in &batches {
                wal.append(b).unwrap();
            }
            assert_eq!(wal.records(), 4);
            assert!(wal.syncs() >= 4, "batch policy syncs every append");
        }
        let (wal, replay) = Wal::open(&tmp.0, SyncPolicy::Off).unwrap();
        assert_eq!(replay.batches, batches);
        assert_eq!(replay.edges, 9);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(wal.records(), 4);
    }

    #[test]
    fn compact_empties_the_log_and_appends_continue() {
        let _fp = serial();
        let tmp = TempPath::new("compact");
        let (mut wal, _) = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap();
        wal.append(&batch(0, 4)).unwrap();
        wal.compact().unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.bytes(), WAL_HEADER);
        wal.append(&batch(50, 2)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap();
        assert_eq!(replay.batches, vec![batch(50, 2)]);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_prefix_survives() {
        let _fp = serial();
        let tmp = TempPath::new("torn");
        let (mut wal, _) = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap();
        wal.append(&batch(0, 3)).unwrap();
        wal.append(&batch(10, 3)).unwrap();
        let full = wal.bytes();
        drop(wal);
        // Tear the final record at an arbitrary interior byte.
        let f = OpenOptions::new().write(true).open(&tmp.0).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let (wal, replay) = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap();
        assert_eq!(replay.batches, vec![batch(0, 3)]);
        assert!(replay.torn_bytes > 0);
        assert_eq!(wal.records(), 1);
        // The torn bytes are gone from disk, not just skipped.
        assert_eq!(std::fs::metadata(&tmp.0).unwrap().len(), wal.bytes());
    }

    #[test]
    fn corrupt_payload_byte_cuts_the_replay_at_that_record() {
        let _fp = serial();
        let tmp = TempPath::new("corrupt");
        let (mut wal, _) = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap();
        wal.append(&batch(0, 2)).unwrap();
        let second_start = wal.bytes();
        wal.append(&batch(10, 2)).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&tmp.0).unwrap();
        bytes[second_start as usize + RECORD_HEADER as usize] ^= 0xFF;
        std::fs::write(&tmp.0, &bytes).unwrap();
        let (_, replay) = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap();
        assert_eq!(replay.batches, vec![batch(0, 2)]);
        assert!(replay.torn_bytes > 0);
    }

    #[test]
    fn refuses_files_it_did_not_write() {
        let _fp = serial();
        let tmp = TempPath::new("foreign");
        std::fs::write(&tmp.0, b"definitely not a WAL file").unwrap();
        let err = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");

        let mut head = WAL_MAGIC.to_vec();
        head.extend_from_slice(&99u32.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&tmp.0, &head).unwrap();
        let err = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap_err();
        assert!(err.contains("unsupported WAL version"), "{err}");
    }

    #[test]
    fn interval_and_off_policies_defer_syncs() {
        let _fp = serial();
        let tmp = TempPath::new("policies");
        let (mut wal, _) = Wal::open(&tmp.0, SyncPolicy::Off).unwrap();
        for i in 0..10 {
            wal.append(&batch(i * 10, 2)).unwrap();
        }
        assert_eq!(wal.syncs(), 0, "off policy never syncs on append");
        wal.sync().unwrap();
        assert_eq!(wal.syncs(), 1);
        drop(wal);
        let (wal, replay) =
            Wal::open(&tmp.0, SyncPolicy::Interval(Duration::from_millis(0))).unwrap();
        assert_eq!(replay.batch_count(), 10);
        let mut wal = wal;
        wal.append(&batch(0, 1)).unwrap();
        assert!(wal.syncs() >= 1, "zero interval syncs immediately");
    }

    #[test]
    fn oversized_batches_split_into_replayable_records() {
        let _fp = serial();
        // The real cap implies gigabyte batches; shrink it to prove the
        // splitting logic, and check the cap arithmetic separately.
        assert_eq!(MAX_RECORD_EDGES * 8, MAX_RECORD_BYTES as usize);
        let tmp = TempPath::new("split");
        let big = batch(0, 10);
        {
            let (mut wal, _) = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap();
            wal.append_chunked(&big, 3).unwrap();
            assert_eq!(wal.records(), 4, "10 edges at cap 3 → 3+3+3+1");
        }
        let (_, replay) = Wal::open(&tmp.0, SyncPolicy::Off).unwrap();
        assert_eq!(replay.edges, 10);
        assert_eq!(replay.torn_bytes, 0);
        let restored: Vec<Edge> = replay.batches.concat();
        assert_eq!(restored, big, "chunks concatenate back to the batch");
        for b in &replay.batches {
            assert!(b.len() <= 3, "no replayed record exceeds the cap");
        }
    }

    #[test]
    fn failed_append_rewinds_so_a_shorter_retry_replays_clean() {
        use parcc_pram::failpoint;
        let tmp = TempPath::new("rewind");
        {
            let _fp = failpoint::scoped("wal-append:1:torn-write");
            let (mut wal, _) = Wal::open(&tmp.0, SyncPolicy::Batch).unwrap();
            let before = wal.bytes();
            wal.append(&batch(0, 6)).unwrap_err();
            assert_eq!(wal.bytes(), before, "failed append must not advance");
            // The caller abandons the big batch and commits a smaller one:
            // it must land at the committed boundary, overwriting the torn
            // bytes, not after them.
            wal.append(&batch(40, 1)).unwrap();
        }
        let (_, replay) = Wal::open(&tmp.0, SyncPolicy::Off).unwrap();
        assert_eq!(replay.batches, vec![batch(40, 1)]);
    }

    #[test]
    fn sync_policy_parsing() {
        assert_eq!(SyncPolicy::parse("batch").unwrap(), SyncPolicy::Batch);
        assert_eq!(SyncPolicy::parse("off").unwrap(), SyncPolicy::Off);
        assert!(matches!(
            SyncPolicy::parse("interval").unwrap(),
            SyncPolicy::Interval(_)
        ));
        assert!(SyncPolicy::parse("always").is_err());
        for p in [SyncPolicy::Batch, SyncPolicy::Off] {
            assert_eq!(SyncPolicy::parse(p.name()).unwrap(), p);
        }
    }
}
