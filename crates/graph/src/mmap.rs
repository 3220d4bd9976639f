//! The memory-mapped binary graph store: the `parcc` on-disk binary
//! format (**PGB**) and the third [`GraphStore`] backend, [`MappedGraph`],
//! which serves shard slices **zero-copy** straight off an `mmap`'d file.
//!
//! ## Why a binary format
//!
//! Text parsing dominates the load path: every byte of a multi-hundred-MB
//! edge list is scanned, split, and integer-parsed before a single solver
//! instruction runs. Edges are already packed 8-byte words in memory
//! ([`parcc_pram::edge::Edge`] is `repr(transparent)` over `u64`), so the
//! natural at-rest form is the in-memory form: map the file and the edge
//! slices *are* the solver input — load cost collapses to an `open` + a
//! handful of page faults, and `serve` restarts become instant.
//!
//! ## Layout (version 2, all multi-byte fields little-endian)
//!
//! | bytes | field |
//! |---|---|
//! | `0..8` | magic `PARCCPGB` |
//! | `8..12` | format version, `u32` (= 2) |
//! | `12..16` | endian tag, `u32` (= `0x1A2B3C4D`) |
//! | `16..24` | vertex count `n`, `u64` |
//! | `24..32` | edge count `m`, `u64` |
//! | `32..40` | shard count `k`, `u64` |
//! | `40..44` | header CRC-32, over bytes `0..40` plus the shard table |
//! | `44..48` | reserved, `u32` (= 0) |
//! | `48..48+24k` | shard table: (byte offset `u64`, edge count `u64`, shard-data CRC-32 `u32`, reserved `u32`) × k |
//! | — | zero padding to the next 4096-byte boundary |
//! | `off_i..` | shard `i`: `len_i` packed edge words (`u << 32 \| v`) |
//!
//! Version-1 files (a 40-byte fixed header, 16-byte table entries, no
//! checksums) stay fully readable; [`write_binary_v1`] still produces
//! them for compatibility tests. Writers emit v2 only, and
//! [`save_binary`] is **atomic**: stream to `PATH.tmp`, fsync, rename
//! over `PATH`, fsync the directory — a crash mid-save never leaves a
//! truncated file at the destination (see
//! [`crate::io::write_file_atomic`]).
//!
//! Every shard offset is 4096-aligned (page-aligned on mainstream
//! configurations), so each shard can be mapped, advised, and released as
//! an independent page range — the unit of the out-of-core driver.
//!
//! ## Validation contract
//!
//! [`MappedGraph::open`] performs **structural** validation only — magic,
//! version, endian tag, header checksum, table bounds, alignment,
//! edge-count consistency — all `O(k)`, touching no data pages (that is
//! the point of the zero-copy load). The `O(m)` data scan is separate:
//! [`MappedGraph::validate`] (whole file, parallel) or
//! [`MappedGraph::validate_shard`] (the out-of-core driver checks each
//! shard as it streams through) verify each shard's CRC-32 against the
//! table (v2 files) and range-check every endpoint. Out-of-range
//! endpoints in an unvalidated file cause safe panics downstream, never
//! undefined behaviour — every `u64` bit pattern is a valid [`Edge`].
//!
//! On non-unix or big-endian hosts the same format is readable through a
//! decode-to-heap fallback ([`MappedGraph::open_heap`]); `open` picks the
//! zero-copy mapping whenever the platform supports it.

use crate::crc::{crc32, Crc32};
use crate::repr::{Csr, Graph};
use crate::store::{par_map_shards, GraphStore};
use parcc_pram::edge::{edges_from_words, Edge};
use std::borrow::Cow;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Magic bytes opening every PGB file.
pub const MAGIC: [u8; 8] = *b"PARCCPGB";
/// Current format version (checksummed header + per-shard CRCs).
pub const VERSION: u32 = 2;
/// The legacy checksum-free version, still readable.
pub const VERSION_V1: u32 = 1;
/// Endian tag: asymmetric bytes, so a byte-swapped file cannot pass.
pub const ENDIAN_TAG: u32 = 0x1A2B_3C4D;
/// Shard data alignment: every shard offset is a multiple of this.
pub const SHARD_ALIGN: u64 = 4096;
/// v1 fixed header length (magic through shard count), before the table.
const FIXED_HEADER_V1: u64 = 40;
/// v2 fixed header length (v1 fields + header CRC + reserved word).
const FIXED_HEADER_V2: u64 = 48;
/// v1 shard-table entry length: offset + edge count.
const ENTRY_V1: u64 = 16;
/// v2 shard-table entry length: offset + edge count + CRC + reserved.
const ENTRY_V2: u64 = 24;

/// One shard's location inside the backing words.
#[derive(Debug, Clone, Copy)]
struct ShardMeta {
    /// Index of the shard's first word in the backing word view.
    word_off: usize,
    /// Edge (= word) count.
    len: usize,
    /// Byte offset in the file — the `madvise`/`fadvise` range base.
    byte_off: u64,
    /// Stored CRC-32 of the shard's data bytes (`None` for v1 files).
    crc: Option<u32>,
}

/// One parsed shard-table entry.
#[derive(Debug, Clone, Copy)]
struct ShardEntry {
    off: u64,
    len: u64,
    crc: Option<u32>,
}

/// Round `x` up to the next multiple of [`SHARD_ALIGN`].
fn align_up(x: u64) -> u64 {
    x.div_ceil(SHARD_ALIGN) * SHARD_ALIGN
}

/// The deterministic file layout for shard lengths `lens` in the current
/// (v2) format: per-shard byte offsets and the total file size.
fn layout(lens: &[usize]) -> (Vec<u64>, u64) {
    layout_for(lens, FIXED_HEADER_V2, ENTRY_V2)
}

/// [`layout`] for the legacy v1 header and table geometry.
fn layout_v1(lens: &[usize]) -> (Vec<u64>, u64) {
    layout_for(lens, FIXED_HEADER_V1, ENTRY_V1)
}

/// The layout shared by both versions, parameterized on header geometry.
fn layout_for(lens: &[usize], fixed: u64, entry: u64) -> (Vec<u64>, u64) {
    let table_end = fixed + entry * lens.len() as u64;
    let mut cursor = align_up(table_end);
    let mut offsets = Vec::with_capacity(lens.len());
    for &len in lens {
        offsets.push(cursor);
        cursor = align_up(cursor + 8 * len as u64);
    }
    // The file ends right after the last shard's words (no trailing pad);
    // an edgeless file is exactly the padded header.
    let total = offsets.last().map_or_else(
        || align_up(table_end),
        |&off| off + 8 * lens[lens.len() - 1] as u64,
    );
    (offsets, total)
}

/// CRC-32 of a shard's on-disk bytes — the packed little-endian edge
/// words. This is the per-shard sum stored in the v2 table, exposed so
/// tests and tools can recompute it.
#[must_use]
pub fn shard_checksum(edges: &[Edge]) -> u32 {
    if cfg!(target_endian = "little") {
        // SAFETY: Edge is repr(transparent) over u64; on a little-endian
        // host its in-memory bytes are exactly the on-disk LE encoding.
        // The slice covers edges.len() * 8 initialized bytes.
        let bytes =
            unsafe { std::slice::from_raw_parts(edges.as_ptr().cast::<u8>(), edges.len() * 8) };
        crc32(bytes)
    } else {
        let mut h = Crc32::new();
        for e in edges {
            h.update(&e.0.to_le_bytes());
        }
        h.finish()
    }
}

/// Serialize any [`GraphStore`] backend in the PGB v2 binary format.
/// Streams through a sized [`std::io::BufWriter`]; returns the total
/// bytes written. Shard boundaries are preserved exactly (like the
/// sharded text writer, the on-disk round trip is structure-identical);
/// the shard table carries one CRC-32 per shard and the header CRC covers
/// the fixed fields plus the whole table.
///
/// # Errors
/// Propagates I/O errors from the underlying writer.
pub fn write_binary<W: Write>(store: &dyn GraphStore, writer: W) -> std::io::Result<u64> {
    let k = store.shard_count();
    let lens: Vec<usize> = (0..k).map(|i| store.shard(i).len()).collect();
    let (offsets, total) = layout(&lens);
    // Assemble the fixed header and shard table in memory first: the
    // header CRC covers both, so they must exist before the first write.
    let mut fixed = Vec::with_capacity(FIXED_HEADER_V1 as usize);
    fixed.extend_from_slice(&MAGIC);
    fixed.extend_from_slice(&VERSION.to_le_bytes());
    fixed.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
    fixed.extend_from_slice(&(store.n() as u64).to_le_bytes());
    fixed.extend_from_slice(&(store.m() as u64).to_le_bytes());
    fixed.extend_from_slice(&(k as u64).to_le_bytes());
    let mut table = Vec::with_capacity(k * ENTRY_V2 as usize);
    for (i, (&off, &len)) in offsets.iter().zip(&lens).enumerate() {
        table.extend_from_slice(&off.to_le_bytes());
        table.extend_from_slice(&(len as u64).to_le_bytes());
        table.extend_from_slice(&shard_checksum(store.shard(i)).to_le_bytes());
        table.extend_from_slice(&0u32.to_le_bytes());
    }
    let mut h = Crc32::new();
    h.update(&fixed);
    h.update(&table);
    let header_crc = h.finish();
    let mut w = std::io::BufWriter::with_capacity(1 << 20, writer);
    w.write_all(&fixed)?;
    w.write_all(&header_crc.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?; // reserved
    w.write_all(&table)?;
    let mut cursor = FIXED_HEADER_V2 + table.len() as u64;
    for (i, (&off, &len)) in offsets.iter().zip(&lens).enumerate() {
        write_padding(&mut w, off - cursor)?;
        cursor = off;
        write_edge_words(&mut w, store.shard(i))?;
        cursor += 8 * len as u64;
    }
    if offsets.is_empty() {
        write_padding(&mut w, total - cursor)?;
        cursor = total;
    }
    debug_assert_eq!(cursor, total);
    w.flush()?;
    Ok(total)
}

/// Serialize in the **legacy v1** layout — 40-byte fixed header, 16-byte
/// table entries, no checksums. Kept so compatibility tests can mint v1
/// files and prove they stay readable; production writers emit v2 only.
///
/// # Errors
/// Propagates I/O errors from the underlying writer.
pub fn write_binary_v1<W: Write>(store: &dyn GraphStore, writer: W) -> std::io::Result<u64> {
    let k = store.shard_count();
    let lens: Vec<usize> = (0..k).map(|i| store.shard(i).len()).collect();
    let (offsets, total) = layout_v1(&lens);
    let mut w = std::io::BufWriter::with_capacity(1 << 20, writer);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION_V1.to_le_bytes())?;
    w.write_all(&ENDIAN_TAG.to_le_bytes())?;
    w.write_all(&(store.n() as u64).to_le_bytes())?;
    w.write_all(&(store.m() as u64).to_le_bytes())?;
    w.write_all(&(k as u64).to_le_bytes())?;
    let mut cursor = FIXED_HEADER_V1;
    for (&off, &len) in offsets.iter().zip(&lens) {
        w.write_all(&off.to_le_bytes())?;
        w.write_all(&(len as u64).to_le_bytes())?;
        cursor += ENTRY_V1;
    }
    for (i, (&off, &len)) in offsets.iter().zip(&lens).enumerate() {
        write_padding(&mut w, off - cursor)?;
        cursor = off;
        write_edge_words(&mut w, store.shard(i))?;
        cursor += 8 * len as u64;
    }
    if offsets.is_empty() {
        write_padding(&mut w, total - cursor)?;
        cursor = total;
    }
    debug_assert_eq!(cursor, total);
    w.flush()?;
    Ok(total)
}

/// [`write_binary`] to a filesystem path, **atomically**: stream into
/// `PATH.tmp`, fsync, rename over `PATH`, fsync the directory. A crash
/// mid-save leaves the previous file (or nothing) at the destination,
/// never a truncated PGB.
///
/// # Errors
/// Propagates file-creation, write, and rename errors (including
/// failures injected at the `pgb-save` failpoint).
pub fn save_binary(store: &dyn GraphStore, path: impl AsRef<Path>) -> std::io::Result<u64> {
    crate::io::write_file_atomic(path.as_ref(), |f| write_binary(store, f))
}

/// Zero-fill `count` padding bytes.
fn write_padding<W: Write>(w: &mut W, count: u64) -> std::io::Result<()> {
    const ZEROS: [u8; 4096] = [0; 4096];
    let mut left = count;
    while left > 0 {
        let step = (left as usize).min(ZEROS.len());
        w.write_all(&ZEROS[..step])?;
        left -= step as u64;
    }
    Ok(())
}

/// Write a shard's packed edge words little-endian. On little-endian hosts
/// this is one bulk byte copy of the in-memory representation.
fn write_edge_words<W: Write>(w: &mut W, edges: &[Edge]) -> std::io::Result<()> {
    if cfg!(target_endian = "little") {
        // SAFETY: Edge is repr(transparent) over u64; on a little-endian
        // host its in-memory bytes are exactly the on-disk LE encoding.
        // The slice covers edges.len() * 8 initialized bytes.
        let bytes =
            unsafe { std::slice::from_raw_parts(edges.as_ptr().cast::<u8>(), edges.len() * 8) };
        w.write_all(bytes)
    } else {
        for e in edges {
            w.write_all(&e.0.to_le_bytes())?;
        }
        Ok(())
    }
}

/// The bytes backing a [`MappedGraph`]: a kernel mapping when the platform
/// supports zero-copy reads of the LE words, a decoded heap copy otherwise.
enum Backing {
    /// Zero-copy: the file's pages, mapped read-only.
    #[cfg(all(unix, target_endian = "little"))]
    Mapped(sys::Mmap),
    /// Portable fallback: shard words decoded into one contiguous vector.
    Heap(Vec<u64>),
}

/// A PGB file opened as a [`GraphStore`] backend.
///
/// Shard slices come straight out of the backing words (no parse, no
/// copy); the degree histogram is folded per shard in parallel and merged
/// lazily, exactly like [`crate::store::ShardedGraph`]. The paging-advice
/// methods ([`advise_sequential`](Self::advise_sequential),
/// [`release_shard`](Self::release_shard),
/// [`resident_bytes`](Self::resident_bytes)) are the hooks the out-of-core
/// driver uses to keep the working set near one shard.
pub struct MappedGraph {
    backing: Backing,
    /// Kept open for `posix_fadvise` on the mapped path.
    #[cfg_attr(not(all(unix, target_endian = "little")), allow(dead_code))]
    file: std::fs::File,
    path: PathBuf,
    file_len: u64,
    n: usize,
    m: usize,
    shards: Vec<ShardMeta>,
    degrees: OnceLock<Vec<u32>>,
}

/// Structural header data: `(n, m, shard table)`.
type Header = (usize, usize, Vec<ShardEntry>);

/// Parse and structurally validate the header + shard table from a reader
/// positioned at byte 0. Accepts v2 (checksummed) and legacy v1 files;
/// for v2 the header CRC is verified over the fixed fields and the raw
/// table before any entry is trusted. `O(k)`; touches no shard data.
fn read_header<R: Read>(r: &mut R, file_len: u64) -> Result<Header, String> {
    let mut fixed = [0u8; FIXED_HEADER_V1 as usize];
    r.read_exact(&mut fixed)
        .map_err(|_| "truncated header (shorter than the 40-byte fixed header)".to_string())?;
    if fixed[..8] != MAGIC {
        return Err("bad magic: not a parcc binary graph (PGB) file".into());
    }
    let word32 = |off: usize| u32::from_le_bytes(fixed[off..off + 4].try_into().expect("4 bytes"));
    let word64 = |off: usize| u64::from_le_bytes(fixed[off..off + 8].try_into().expect("8 bytes"));
    let version = word32(8);
    if version != VERSION && version != VERSION_V1 {
        return Err(format!(
            "unsupported PGB version {version} (expected {VERSION_V1} or {VERSION})"
        ));
    }
    let endian = word32(12);
    if endian != ENDIAN_TAG {
        return Err(format!(
            "endian tag mismatch (read 0x{endian:08X}, expected 0x{ENDIAN_TAG:08X}): corrupt or byte-swapped file"
        ));
    }
    let n = word64(16);
    let m = word64(24);
    let k = word64(32);
    if n > u64::from(u32::MAX) {
        return Err(format!("node count {n} exceeds the u32 vertex-id space"));
    }
    let (fixed_len, entry_len) = if version == VERSION {
        (FIXED_HEADER_V2, ENTRY_V2)
    } else {
        (FIXED_HEADER_V1, ENTRY_V1)
    };
    let stored_header_crc = if version == VERSION {
        let mut extra = [0u8; 8];
        r.read_exact(&mut extra)
            .map_err(|_| "truncated header (missing the v2 checksum fields)".to_string())?;
        Some(u32::from_le_bytes(extra[..4].try_into().expect("4 bytes")))
    } else {
        None
    };
    let table_bytes = k
        .checked_mul(entry_len)
        .and_then(|t| t.checked_add(fixed_len))
        .filter(|&end| end <= file_len)
        .ok_or_else(|| format!("truncated shard table: {k} shards do not fit in the file"))?;
    let raw_len = usize::try_from(k * entry_len)
        .map_err(|_| format!("shard table of {k} entries exceeds this platform"))?;
    let mut raw_table = vec![0u8; raw_len];
    r.read_exact(&mut raw_table)
        .map_err(|_| "truncated shard table".to_string())?;
    if let Some(stored) = stored_header_crc {
        let mut h = Crc32::new();
        h.update(&fixed);
        h.update(&raw_table);
        let computed = h.finish();
        if computed != stored {
            return Err(format!(
                "header checksum mismatch (stored 0x{stored:08X}, computed 0x{computed:08X}): corrupt header or shard table"
            ));
        }
    }
    let mut table = Vec::with_capacity(k as usize);
    let mut sum: u64 = 0;
    for (i, entry) in raw_table.chunks_exact(entry_len as usize).enumerate() {
        let off = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
        let crc = if version == VERSION {
            Some(u32::from_le_bytes(
                entry[16..20].try_into().expect("4 bytes"),
            ))
        } else {
            None
        };
        if off % SHARD_ALIGN != 0 {
            return Err(format!(
                "shard {i}: misaligned offset {off} (must be {SHARD_ALIGN}-aligned)"
            ));
        }
        if off < table_bytes {
            return Err(format!("shard {i}: offset {off} overlaps the header"));
        }
        let bytes = len
            .checked_mul(8)
            .ok_or_else(|| format!("shard {i}: edge count {len} overflows"))?;
        let end = off
            .checked_add(bytes)
            .filter(|&e| e <= file_len)
            .ok_or_else(|| {
                format!("shard {i}: {len} edges at offset {off} run past end of file")
            })?;
        sum = sum
            .checked_add(len)
            .ok_or_else(|| format!("shard {i}: total edge count overflows"))?;
        let _ = end;
        table.push(ShardEntry { off, len, crc });
    }
    if sum != m {
        return Err(format!(
            "edge count mismatch: header declares m={m} but shards hold {sum}"
        ));
    }
    let n = usize::try_from(n).map_err(|_| format!("node count {n} exceeds this platform"))?;
    let m = usize::try_from(m).map_err(|_| format!("edge count {m} exceeds this platform"))?;
    Ok((n, m, table))
}

impl MappedGraph {
    /// Open a PGB file, zero-copy when the platform allows (unix,
    /// little-endian), decoded to heap otherwise. Structural validation
    /// only — see the module docs and [`validate`](Self::validate).
    ///
    /// # Errors
    /// On I/O failure or a structurally malformed file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        #[cfg(all(unix, target_endian = "little"))]
        {
            Self::open_mapped(path.as_ref())
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        {
            Self::open_heap(path.as_ref())
        }
    }

    #[cfg(all(unix, target_endian = "little"))]
    fn open_mapped(path: &Path) -> Result<Self, String> {
        let mut file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file_len = file
            .metadata()
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        let (n, m, table) =
            read_header(&mut file, file_len).map_err(|e| format!("{}: {e}", path.display()))?;
        let map_len =
            usize::try_from(file_len).map_err(|_| format!("{}: file too large", path.display()))?;
        let map = sys::Mmap::map(&file, map_len).map_err(|e| format!("{}: {e}", path.display()))?;
        let shards = table
            .iter()
            .map(|&ShardEntry { off, len, crc }| ShardMeta {
                word_off: (off / 8) as usize,
                len: len as usize,
                byte_off: off,
                crc,
            })
            .collect();
        Ok(Self {
            backing: Backing::Mapped(map),
            file,
            path: path.to_path_buf(),
            file_len,
            n,
            m,
            shards,
            degrees: OnceLock::new(),
        })
    }

    /// Open a PGB file by decoding every shard into heap words — the
    /// portable path (also what `open` does on big-endian or non-unix
    /// hosts). Same structural validation, no paging-advice support.
    ///
    /// # Errors
    /// On I/O failure or a structurally malformed file.
    pub fn open_heap(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file_len = bytes.len() as u64;
        let (n, m, table) = read_header(&mut &bytes[..], file_len)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut words = Vec::with_capacity(m);
        let mut shards = Vec::with_capacity(table.len());
        for &ShardEntry { off, len, crc } in &table {
            let start = off as usize;
            let end = start + 8 * len as usize;
            shards.push(ShardMeta {
                word_off: words.len(),
                len: len as usize,
                byte_off: off,
                crc,
            });
            words.extend(
                bytes[start..end]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
            );
        }
        Ok(Self {
            backing: Backing::Heap(words),
            file,
            path: path.to_path_buf(),
            file_len,
            n,
            m,
            shards,
            degrees: OnceLock::new(),
        })
    }

    /// The backing word view all shard slices index into.
    fn words(&self) -> &[u64] {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped(map) => map.words(),
            Backing::Heap(words) => words,
        }
    }

    /// Is this instance serving zero-copy off a kernel mapping (as opposed
    /// to the decoded-heap fallback)?
    #[must_use]
    pub fn is_zero_copy(&self) -> bool {
        match self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped(_) => true,
            Backing::Heap(_) => false,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges across all shards.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The `i`-th shard's edges, straight off the backing words.
    #[must_use]
    pub fn shard(&self, i: usize) -> &[Edge] {
        let s = self.shards[i];
        edges_from_words(&self.words()[s.word_off..s.word_off + s.len])
    }

    /// Per-shard edge counts, shard order.
    #[must_use]
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len).collect()
    }

    /// The file this store is backed by.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// On-disk size in bytes (header + padding + shard words).
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        self.file_len
    }

    /// The `O(m)` data scan `open` deliberately skips: verify each
    /// shard's CRC-32 against the stored table entry (v2 files), then
    /// check every edge's endpoints against `n`, in parallel across
    /// shards. Call once after opening an untrusted file (the CLI does) —
    /// afterwards the store satisfies the same invariants as a parsed
    /// text graph.
    ///
    /// # Errors
    /// Names the first checksum-mismatched shard or out-of-range edge.
    pub fn validate(&self) -> Result<(), String> {
        par_map_shards(self, |i, edges| self.scan_shard(i, edges))
            .into_iter()
            .find(Result::is_err)
            .unwrap_or(Ok(()))
    }

    /// Checksum- and endpoint-validate a single shard — the out-of-core
    /// driver's per-shard check, so streaming never trusts unscanned
    /// bytes.
    ///
    /// # Errors
    /// Names the checksum mismatch or the first out-of-range edge.
    pub fn validate_shard(&self, i: usize) -> Result<(), String> {
        self.scan_shard(i, self.shard(i))
    }

    fn scan_shard(&self, i: usize, edges: &[Edge]) -> Result<(), String> {
        // CRC first: corruption detection precedes interpretation (an
        // in-range bit flip would otherwise be silently solved over).
        if let Some(stored) = self.shards[i].crc {
            let computed = shard_checksum(edges);
            if computed != stored {
                return Err(format!(
                    "shard {i}: data checksum mismatch (stored 0x{stored:08X}, computed 0x{computed:08X})"
                ));
            }
        }
        let n = self.n;
        match edges
            .iter()
            .position(|e| e.u() as usize >= n || e.v() as usize >= n)
        {
            None => Ok(()),
            Some(p) => Err(format!(
                "shard {i} edge {p}: endpoints {:?} out of range for n={n}",
                edges[p].ends()
            )),
        }
    }

    /// Advise the kernel that the whole mapping will be read sequentially
    /// (`MADV_SEQUENTIAL`): aggressive readahead, early reclaim behind the
    /// cursor. No-op on the heap fallback; advice failures are ignored
    /// (advice is never load-bearing).
    pub fn advise_sequential(&self) {
        #[cfg(all(unix, target_endian = "little"))]
        if let Backing::Mapped(map) = &self.backing {
            map.advise(0, self.file_len as usize, libc::MADV_SEQUENTIAL);
        }
    }

    /// Tell the kernel shard `i` is consumed: drop its resident pages
    /// (`MADV_DONTNEED`) and its page-cache entries (`posix_fadvise
    /// DONTNEED`), so out-of-core residency stays near one shard. No-op on
    /// the heap fallback; failures are ignored.
    pub fn release_shard(&self, i: usize) {
        #[cfg(all(unix, target_endian = "little"))]
        if let Backing::Mapped(map) = &self.backing {
            let s = self.shards[i];
            map.advise(s.byte_off as usize, s.len * 8, libc::MADV_DONTNEED);
            sys::fadvise_dontneed(&self.file, s.byte_off, (s.len * 8) as u64);
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        let _ = i;
    }

    /// Bytes of the mapping currently resident in physical memory
    /// (`mincore`), or `None` when unmeasurable (heap fallback). The
    /// out-of-core driver samples this to verify bounded residency.
    #[must_use]
    pub fn resident_bytes(&self) -> Option<u64> {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped(map) => map.resident_bytes(),
            Backing::Heap(_) => None,
        }
    }
}

impl std::fmt::Debug for MappedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedGraph")
            .field("path", &self.path)
            .field("n", &self.n)
            .field("m", &self.m)
            .field("shards", &self.shards.len())
            .field("zero_copy", &self.is_zero_copy())
            .finish()
    }
}

impl GraphStore for MappedGraph {
    fn n(&self) -> usize {
        MappedGraph::n(self)
    }
    fn m(&self) -> usize {
        MappedGraph::m(self)
    }
    fn shard_count(&self) -> usize {
        MappedGraph::shard_count(self)
    }
    fn shard(&self, i: usize) -> &[Edge] {
        MappedGraph::shard(self, i)
    }

    /// Per-shard private histograms, built in parallel and summed in shard
    /// order — the same lazily-merged scheme as `ShardedGraph`, so the
    /// result is identical to the flat graph's at any thread count. Cached.
    fn degrees(&self) -> &[u32] {
        self.degrees.get_or_init(|| {
            crate::store::merge_degree_histograms(
                self.n,
                par_map_shards(self, crate::store::shard_histogram(self.n)),
            )
        })
    }

    /// Parallel per-shard CSR assembly, identical to the sharded backend's
    /// (the shards are the chunks; packing is a pure function of the edge
    /// multiset).
    fn csr(&self) -> Csr {
        Csr::from_degrees_and_halves(
            GraphStore::degrees(self),
            crate::store::concat_half_words(par_map_shards(self, crate::store::shard_half_words)),
        )
    }

    /// An owned flat merge (the map itself stays untouched on disk). The
    /// constructor re-validates endpoints, so flattening an unvalidated
    /// corrupt file panics cleanly instead of corrupting solver state.
    fn to_flat(&self) -> Cow<'_, Graph> {
        Cow::Owned(Graph::new(self.n, crate::store::concat_edges(self)))
    }
}

/// The raw-mapping layer: a thin RAII wrapper over `mmap`/`munmap` plus
/// the paging-advice calls, confined to little-endian unix.
#[cfg(all(unix, target_endian = "little"))]
mod sys {
    use std::os::unix::io::AsRawFd;

    /// VM page size (cached); 4096 when `sysconf` is unhelpful.
    pub fn page_size() -> usize {
        use std::sync::OnceLock;
        static PAGE: OnceLock<usize> = OnceLock::new();
        *PAGE.get_or_init(|| {
            // SAFETY: sysconf is always safe to call with a valid name.
            let raw = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
            usize::try_from(raw).ok().filter(|&p| p > 0).unwrap_or(4096)
        })
    }

    /// Drop the page-cache entries for a byte range of `file`.
    pub fn fadvise_dontneed(file: &std::fs::File, offset: u64, len: u64) {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: the fd is open for the duration of the call; fadvise
            // reads nothing through our pointers and any failure is advisory.
            let _ = unsafe {
                libc::posix_fadvise(
                    file.as_raw_fd(),
                    offset as libc::off_t,
                    len as libc::off_t,
                    libc::POSIX_FADV_DONTNEED,
                )
            };
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (file, offset, len);
        }
    }

    /// An owned read-only shared file mapping, unmapped on drop.
    pub struct Mmap {
        ptr: *mut libc::c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ for its whole lifetime and owned
    // exclusively by this struct; concurrent reads from any thread are
    // data-race-free. (External truncation/mutation of the underlying file
    // is outside the supported model, as for any mmap consumer.)
    unsafe impl Send for Mmap {}
    // SAFETY: as above — the mapping is immutable through this handle.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Map the first `len` bytes of `file` read-only.
        pub fn map(file: &std::fs::File, len: usize) -> Result<Self, String> {
            if len == 0 {
                return Err("cannot map an empty file".into());
            }
            // SAFETY: fd is a valid open file for the duration of the
            // call; we pass null for the hint address, a positive length,
            // and request a fresh read-only shared mapping — no existing
            // memory is affected.
            let ptr = unsafe {
                libc::mmap(
                    std::ptr::null_mut(),
                    len,
                    libc::PROT_READ,
                    libc::MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if std::ptr::eq(ptr, libc::MAP_FAILED) {
                return Err(format!("mmap failed: {}", std::io::Error::last_os_error()));
            }
            Ok(Self { ptr, len })
        }

        /// The mapping as whole `u64` words (trailing partial word, if the
        /// file length is not a multiple of 8, is excluded — shard table
        /// validation already guaranteed every shard lies in whole words).
        pub fn words(&self) -> &[u64] {
            // SAFETY: ptr is page-aligned (mmap contract), hence u64-
            // aligned; len/8 whole words are readable for the lifetime of
            // &self; every u64 bit pattern is valid; the mapping is
            // read-only so no aliasing writes exist in this process.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u64>(), self.len / 8) }
        }

        /// `madvise` a byte range (rounded outward to page boundaries,
        /// clamped to the mapping). Failures are ignored — advice only.
        pub fn advise(&self, byte_off: usize, byte_len: usize, advice: libc::c_int) {
            let page = page_size();
            let start = byte_off / page * page;
            let end = byte_off.saturating_add(byte_len).min(self.len);
            if end <= start {
                return;
            }
            // SAFETY: start is page-aligned and start..end lies within our
            // owned mapping; madvise does not invalidate the mapping for
            // the advice values we use (SEQUENTIAL/DONTNEED re-faults
            // file-backed pages transparently on next access).
            let _ = unsafe {
                libc::madvise(
                    self.ptr.cast::<u8>().add(start).cast::<libc::c_void>(),
                    end - start,
                    advice,
                )
            };
        }

        /// Resident bytes per `mincore`, `None` if the probe fails.
        pub fn resident_bytes(&self) -> Option<u64> {
            let page = page_size();
            let pages = self.len.div_ceil(page);
            let mut vec = vec![0u8; pages];
            // SAFETY: ptr/len describe our owned mapping (page-aligned
            // base) and vec holds one status byte per page as mincore
            // requires.
            let rc = unsafe { libc::mincore(self.ptr, self.len, vec.as_mut_ptr()) };
            if rc != 0 {
                return None;
            }
            let resident = vec.iter().filter(|&&b| b & 1 != 0).count() as u64;
            Some(resident * page as u64)
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: ptr/len are exactly what mmap returned and the
            // mapping has not been unmapped elsewhere; no borrows of the
            // mapped slice can outlive self (they are tied to &self).
            unsafe {
                let _ = libc::munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators as gen;
    use crate::store::ShardedGraph;

    /// RAII temp file under `std::env::temp_dir()`.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            Self(
                std::env::temp_dir()
                    .join(format!("parcc-mmap-test-{}-{tag}.pgb", std::process::id())),
            )
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn write_temp(store: &dyn GraphStore, tag: &str) -> (TempPath, u64) {
        let tmp = TempPath::new(tag);
        let bytes = save_binary(store, &tmp.0).unwrap();
        (tmp, bytes)
    }

    #[test]
    fn roundtrip_preserves_structure_and_bytes_are_tight() {
        let g = gen::with_isolated(&gen::gnp(300, 0.03, 9), 7);
        let sg = ShardedGraph::from_graph(&g, 5);
        let (tmp, bytes) = write_temp(&sg, "roundtrip");
        assert_eq!(bytes, std::fs::metadata(&tmp.0).unwrap().len());
        let mg = MappedGraph::open(&tmp.0).unwrap();
        assert_eq!((mg.n(), mg.m(), mg.shard_count()), (sg.n(), sg.m(), 5));
        assert_eq!(mg.shard_sizes(), sg.shard_sizes());
        for i in 0..5 {
            assert_eq!(mg.shard(i), sg.shard(i), "shard {i}");
        }
        mg.validate().unwrap();
        // Overhead is the padded header plus < 1 page per shard.
        assert!(bytes <= 8 * sg.m() as u64 + SHARD_ALIGN * (5 + 1));
        // Flat view equals the text pipeline's graph.
        assert_eq!(*mg.to_flat(), g);
    }

    #[test]
    fn heap_fallback_matches_mapped_backend() {
        let sg = ShardedGraph::from_graph(&gen::mixture(11), 3);
        let (tmp, _) = write_temp(&sg, "heap");
        let mapped = MappedGraph::open(&tmp.0).unwrap();
        let heap = MappedGraph::open_heap(&tmp.0).unwrap();
        assert!(!heap.is_zero_copy());
        assert_eq!(heap.n(), mapped.n());
        assert_eq!(heap.shard_sizes(), mapped.shard_sizes());
        for i in 0..heap.shard_count() {
            assert_eq!(heap.shard(i), mapped.shard(i));
        }
        assert!(heap.resident_bytes().is_none());
        heap.advise_sequential(); // no-ops must not panic
        heap.release_shard(0);
    }

    #[test]
    fn degrees_and_csr_match_sharded_backend() {
        let g = gen::mixture(5);
        let sg = ShardedGraph::from_graph(&g, 4);
        let (tmp, _) = write_temp(&sg, "degrees");
        let mg = MappedGraph::open(&tmp.0).unwrap();
        assert_eq!(GraphStore::degrees(&mg), g.degrees());
        let a = GraphStore::csr(&mg);
        let b = Csr::build(&g);
        assert_eq!(a.total_adjacency(), b.total_adjacency());
        for v in 0..g.n() as u32 {
            let mut x: Vec<u32> = a.neighbors(v).to_vec();
            let mut y: Vec<u32> = b.neighbors(v).to_vec();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y, "neighbour multiset of {v}");
        }
    }

    #[test]
    fn empty_and_edgeless_graphs_roundtrip() {
        let (tmp, bytes) = write_temp(&ShardedGraph::new(0, vec![]), "empty");
        assert_eq!(bytes, SHARD_ALIGN, "padded header only");
        let mg = MappedGraph::open(&tmp.0).unwrap();
        assert_eq!((mg.n(), mg.m(), mg.shard_count()), (0, 0, 0));
        mg.validate().unwrap();

        let sg = ShardedGraph::new(4, vec![vec![], vec![Edge::new(0, 3)], vec![]]);
        let (tmp, _) = write_temp(&sg, "sparse");
        let mg = MappedGraph::open(&tmp.0).unwrap();
        assert_eq!(mg.shard_sizes(), vec![0, 1, 0]);
        assert_eq!(GraphStore::degrees(&mg), &[1, 0, 0, 1]);
    }

    #[test]
    fn advice_and_residency_on_the_mapped_path() {
        let sg = ShardedGraph::from_graph(&gen::gnp(2000, 0.01, 3), 4);
        let (tmp, _) = write_temp(&sg, "advice");
        let mg = MappedGraph::open(&tmp.0).unwrap();
        if !mg.is_zero_copy() {
            return; // platform without mapping support
        }
        mg.advise_sequential();
        let mut sum = 0u64;
        for i in 0..mg.shard_count() {
            sum += mg.shard(i).iter().map(|e| u64::from(e.u())).sum::<u64>();
        }
        assert!(sum > 0);
        let resident = mg.resident_bytes().expect("mincore works on linux");
        assert!(resident > 0, "touched pages should be resident");
        assert!(resident <= mg.file_bytes() + SHARD_ALIGN);
        for i in 0..mg.shard_count() {
            mg.release_shard(i);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let tmp = TempPath::new("badmagic");
        let mut bytes = valid_bytes();
        bytes[..8].copy_from_slice(b"NOTPARCC");
        std::fs::write(&tmp.0, &bytes).unwrap();
        let err = MappedGraph::open(&tmp.0).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
    }

    #[test]
    fn rejects_truncated_header_and_table() {
        let tmp = TempPath::new("trunc");
        std::fs::write(&tmp.0, &MAGIC[..6]).unwrap();
        let err = MappedGraph::open(&tmp.0).unwrap_err();
        assert!(err.contains("truncated header"), "{err}");

        // Valid fixed header claiming one shard, but no table bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes()); // n
        bytes.extend_from_slice(&1u64.to_le_bytes()); // m
        bytes.extend_from_slice(&1u64.to_le_bytes()); // k
        bytes.extend_from_slice(&[0u8; 8]); // header crc + reserved
        std::fs::write(&tmp.0, &bytes).unwrap();
        let err = MappedGraph::open(&tmp.0).unwrap_err();
        assert!(err.contains("truncated shard table"), "{err}");
    }

    /// A structurally valid single-shard file we can then corrupt.
    fn valid_bytes() -> Vec<u8> {
        let sg = ShardedGraph::new(3, vec![vec![Edge::new(0, 1), Edge::new(1, 2)]]);
        let mut buf = Vec::new();
        write_binary(&sg, &mut buf).unwrap();
        buf
    }

    /// Recompute the v2 header CRC over the (possibly poked) fixed header
    /// and table, so tests of the structural checks exercise the layer
    /// they target instead of tripping the checksum first.
    fn fix_header_crc(bytes: &mut [u8]) {
        let k = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
        let table_end = 48 + 24 * k;
        let mut h = Crc32::new();
        h.update(&bytes[..40]);
        h.update(&bytes[48..table_end]);
        let crc = h.finish();
        bytes[40..44].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn rejects_version_and_endian_mismatches() {
        let tmp = TempPath::new("version");
        let mut bytes = valid_bytes();
        bytes[8] = 99;
        std::fs::write(&tmp.0, &bytes).unwrap();
        let err = MappedGraph::open(&tmp.0).unwrap_err();
        assert!(err.contains("unsupported PGB version"), "{err}");

        let mut bytes = valid_bytes();
        bytes[12..16].copy_from_slice(&ENDIAN_TAG.to_be_bytes());
        std::fs::write(&tmp.0, &bytes).unwrap();
        let err = MappedGraph::open(&tmp.0).unwrap_err();
        assert!(err.contains("endian tag mismatch"), "{err}");
    }

    #[test]
    fn rejects_misaligned_shard_offset() {
        let tmp = TempPath::new("misaligned");
        let mut bytes = valid_bytes();
        // Shard 0's offset lives at byte 48; knock it off alignment.
        let off = u64::from_le_bytes(bytes[48..56].try_into().unwrap());
        bytes[48..56].copy_from_slice(&(off + 8).to_le_bytes());
        fix_header_crc(&mut bytes);
        std::fs::write(&tmp.0, &bytes).unwrap();
        let err = MappedGraph::open(&tmp.0).unwrap_err();
        assert!(err.contains("misaligned offset"), "{err}");
    }

    #[test]
    fn rejects_edge_count_overflow_and_mismatch() {
        // Header m disagrees with the shard table sum.
        let tmp = TempPath::new("mismatch");
        let mut bytes = valid_bytes();
        bytes[24..32].copy_from_slice(&7u64.to_le_bytes());
        fix_header_crc(&mut bytes);
        std::fs::write(&tmp.0, &bytes).unwrap();
        let err = MappedGraph::open(&tmp.0).unwrap_err();
        assert!(err.contains("edge count mismatch"), "{err}");

        // Shard length runs past end of file.
        let mut bytes = valid_bytes();
        bytes[56..64].copy_from_slice(&u64::MAX.to_le_bytes()); // shard 0 len
        fix_header_crc(&mut bytes);
        std::fs::write(&tmp.0, &bytes).unwrap();
        let err = MappedGraph::open(&tmp.0).unwrap_err();
        assert!(
            err.contains("overflows") || err.contains("past end of file"),
            "{err}"
        );

        // m huge but consistent: still must fail the bounds check.
        let mut bytes = valid_bytes();
        bytes[24..32].copy_from_slice(&(1u64 << 60).to_le_bytes());
        bytes[56..64].copy_from_slice(&(1u64 << 60).to_le_bytes());
        fix_header_crc(&mut bytes);
        std::fs::write(&tmp.0, &bytes).unwrap();
        assert!(MappedGraph::open(&tmp.0).is_err());
    }

    /// Recompute shard 0's table CRC (entry bytes `64..68`) from its
    /// current data, then re-seal the header CRC — yields a
    /// checksum-consistent file whose *content* was poked.
    fn fix_shard0_crc(bytes: &mut [u8]) {
        let off = u64::from_le_bytes(bytes[48..56].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[56..64].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[off..off + 8 * len]);
        bytes[64..68].copy_from_slice(&crc.to_le_bytes());
        fix_header_crc(bytes);
    }

    #[test]
    fn validate_catches_out_of_range_endpoints() {
        let tmp = TempPath::new("endpoints");
        let mut bytes = valid_bytes();
        // Overwrite the first edge word with endpoints far beyond n=3,
        // then re-seal both CRCs: a checksum-consistent file whose data
        // is semantically bad isolates the endpoint-scan layer.
        let data_off = u64::from_le_bytes(bytes[48..56].try_into().unwrap()) as usize;
        bytes[data_off..data_off + 8].copy_from_slice(&Edge::new(900, 901).0.to_le_bytes());
        fix_shard0_crc(&mut bytes);
        std::fs::write(&tmp.0, &bytes).unwrap();
        // Structurally fine — opens; semantically bad — validate rejects.
        let mg = MappedGraph::open(&tmp.0).unwrap();
        let err = mg.validate().unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert!(mg.validate_shard(0).is_err());
    }

    #[test]
    fn header_checksum_catches_fixed_field_corruption() {
        // Bump n from 3 to 4: structurally plausible, semantically wrong —
        // only the header CRC can notice.
        let tmp = TempPath::new("headercrc");
        let mut bytes = valid_bytes();
        bytes[16] = 4;
        std::fs::write(&tmp.0, &bytes).unwrap();
        let err = MappedGraph::open(&tmp.0).unwrap_err();
        assert!(err.contains("header checksum mismatch"), "{err}");
    }

    #[test]
    fn shard_checksum_catches_data_corruption() {
        // Flip one low bit in the first edge word: the endpoints stay in
        // range, so only the shard CRC can catch it.
        let tmp = TempPath::new("shardcrc");
        let mut bytes = valid_bytes();
        let data_off = u64::from_le_bytes(bytes[48..56].try_into().unwrap()) as usize;
        bytes[data_off] ^= 1;
        std::fs::write(&tmp.0, &bytes).unwrap();
        let mg = MappedGraph::open(&tmp.0).unwrap();
        let err = mg.validate().unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        let err = mg.validate_shard(0).unwrap_err();
        assert!(err.contains("shard 0"), "{err}");
    }

    #[test]
    fn v1_files_remain_readable() {
        let g = gen::with_isolated(&gen::gnp(200, 0.04, 13), 5);
        let sg = ShardedGraph::from_graph(&g, 4);
        let tmp = TempPath::new("v1compat");
        let mut buf = Vec::new();
        let total = write_binary_v1(&sg, &mut buf).unwrap();
        assert_eq!(total, buf.len() as u64);
        assert_eq!(
            u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            VERSION_V1
        );
        std::fs::write(&tmp.0, &buf).unwrap();
        let mg = MappedGraph::open(&tmp.0).unwrap();
        assert_eq!((mg.n(), mg.m(), mg.shard_count()), (sg.n(), sg.m(), 4));
        for i in 0..4 {
            assert_eq!(mg.shard(i), sg.shard(i), "shard {i}");
        }
        // No stored CRCs to check, but the endpoint scan still runs.
        mg.validate().unwrap();
        assert_eq!(*mg.to_flat(), g);
    }

    #[test]
    fn save_binary_is_atomic_and_leaves_no_tmp() {
        let sg = ShardedGraph::from_graph(&gen::mixture(3), 2);
        let tmp = TempPath::new("atomic");
        // Pre-populate the destination with garbage: the rename replaces it.
        std::fs::write(&tmp.0, b"old garbage").unwrap();
        let bytes = save_binary(&sg, &tmp.0).unwrap();
        assert_eq!(bytes, std::fs::metadata(&tmp.0).unwrap().len());
        let mut tmp_side = tmp.0.clone().into_os_string();
        tmp_side.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp_side).exists(),
            "tmp file left behind"
        );
        MappedGraph::open(&tmp.0).unwrap().validate().unwrap();
    }

    #[test]
    fn layout_is_page_aligned_and_dense() {
        let (offsets, total) = layout(&[10, 0, 600]);
        assert!(offsets.iter().all(|o| o % SHARD_ALIGN == 0));
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(total, offsets[2] + 8 * 600);
        let (offsets, total) = layout(&[]);
        assert!(offsets.is_empty());
        assert_eq!(total, SHARD_ALIGN);
    }
}
