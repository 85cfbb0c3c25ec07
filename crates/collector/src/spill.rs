//! Out-of-core segment storage for the collector's record tables.
//!
//! When a study runs with a spill budget (see [`SpillConfig`]), every
//! collector shard that outgrows its slice of the budget *seals* its 13
//! record tables (of the collector's 15) into one segment file on disk —
//! a compact little-endian framing of the existing column representation
//! (delta-coded times, narrow counters, interned domains, whole rows) —
//! and keeps simulating into fresh in-memory columns. At each drain a
//! table's one merge concatenates every router's parts in seal order,
//! then its resident columns, and stably re-sorts only a router whose
//! rows arrived out of key order, writing the spilled routers to one
//! merged file per table, created only when some router spilled. A router
//! that never spilled stays resident, so the record stream is the
//! unbounded run's and reports are byte-identical to it at every scale
//! and thread count.
//!
//! Layout and lifetime:
//!
//! * A `SegmentStore` owns one freshly created directory (under the
//!   configured `--spill-dir`, or the OS temp dir) and removes it when the
//!   last reference drops. Segments never outlive the process, so files
//!   carry no self-describing table of contents — each seal leaves every
//!   record table an in-memory `SpilledPart` mapping its routers to
//!   `BlockRef`s in the segment.
//! * Every block is the encoding of one router's column group for one
//!   table. Blocks are written in ascending router order within a
//!   segment, and the merge reads them back in ascending router order, so
//!   reads are sequential per file.
//! * Every block read goes through its part's `SegmentFile`, which opens
//!   the file on its first read and keeps it open for every later one.
//!   The parts one seal leaves its tables share one `SegmentFile`, so a
//!   segment is opened once however many tables read from it. Creating a
//!   part opens nothing, so a shard may seal thousands of segments; a
//!   shard's segment parts are read only by the drain's merge, chunk by
//!   chunk, and close with their chunk, and a drained table holds at most
//!   one part, its merged file.
//! * All segment I/O returns `Result` — a failed seal degrades the shard
//!   back to resident (in-memory) operation with the error surfaced via
//!   [`crate::Collector::spill_stats`], never a panic on the ingest path.

use firmware::records::RouterId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First bytes of every segment and merged-column file, for debuggability
/// when poking at a spill directory (readers address blocks by offset and
/// do not re-validate it).
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"BSMKSPL1";

/// Out-of-core configuration for a study or a collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Total resident-column budget in bytes, split evenly across the
    /// collector's shards. `0` means spill-everything: every batch that
    /// lands columnar records is sealed to disk immediately.
    pub budget_bytes: u64,
    /// Directory to create the spill store under. `None` uses the OS
    /// temp dir. The store creates (and on drop removes) its own
    /// uniquely named subdirectory either way.
    pub dir: Option<PathBuf>,
}

/// Why a spill operation failed. `Io` wraps the OS error from segment
/// file creation/read/write; `Corrupt` means a segment block did not
/// decode back into a well-formed column group (truncation, bad length
/// prefix, or an invalid interned domain).
#[derive(Debug)]
pub enum SpillError {
    /// Segment file I/O failed.
    Io(io::Error),
    /// A segment block failed to decode.
    Corrupt(&'static str),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "segment I/O: {e}"),
            SpillError::Corrupt(what) => write!(f, "corrupt segment block: {what}"),
        }
    }
}

impl std::error::Error for SpillError {}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> SpillError {
        SpillError::Io(e)
    }
}

/// One encoded column-group block inside a segment or merged file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockRef {
    /// Byte offset of the block from the start of the file.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// Records the block decodes to.
    pub rows: u64,
}

/// Process-unique suffix for store directories (several collectors may
/// spill concurrently in one test process).
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// An owned on-disk directory of segment files. Dropping the last
/// reference removes the directory and everything in it, so spilled
/// studies leave nothing behind.
#[derive(Debug)]
pub(crate) struct SegmentStore {
    dir: PathBuf,
    /// The next merged file's id.
    merge_seq: AtomicU64,
}

impl SegmentStore {
    /// Create a fresh, uniquely named store directory under `base` (or
    /// the OS temp dir). Deliberately *not* named by wall-clock time —
    /// simulation code is clock-free — the process id plus a process-wide
    /// counter is unique enough for a directory we create ourselves.
    pub(crate) fn create(base: Option<&Path>) -> io::Result<SegmentStore> {
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("bismark-spill-{}-{seq}", std::process::id());
        let dir = match base {
            Some(base) => base.join(name),
            None => std::env::temp_dir().join(name),
        };
        fs::create_dir_all(&dir)?;
        Ok(SegmentStore { dir, merge_seq: AtomicU64::new(0) })
    }

    /// The store directory (diagnostics only).
    #[cfg(test)]
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file `name` in this store, for parts to read through. Opens
    /// nothing.
    pub(crate) fn file(self: &Arc<Self>, name: &str) -> Arc<SegmentFile> {
        Arc::new(SegmentFile {
            store: Arc::clone(self),
            name: name.to_string(),
            file: Mutex::new(None),
        })
    }

    /// Write a whole segment in one call (used by shard seals, which
    /// encode to a buffer first so a failed write loses nothing).
    pub(crate) fn write_file(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::create(self.dir.join(name))?;
        f.write_all(bytes)?;
        f.flush()
    }

    /// Delete a segment or merged file no longer referenced by any
    /// table — stream mode reclaims each window's merged delta file once
    /// its rows have been absorbed into the resident accumulator.
    pub(crate) fn remove_file(&self, name: &str) {
        // simlint: allow(error-swallow) — best-effort reclaim of an unreferenced temp file; the store's Drop removes the whole directory anyway, so a failed unlink only defers cleanup
        let _ = fs::remove_file(self.dir.join(name));
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        // simlint: allow(error-swallow) — best-effort temp-dir cleanup in Drop; a failure (e.g. the dir was already reaped) must not panic a drop and no ledger outlives the store
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// One segment or merged file in a store, opened on its first block read
/// and kept open for every later one. Every part over the file shares it;
/// a lock around each seek and read lets several threads read through it.
#[derive(Debug)]
pub(crate) struct SegmentFile {
    store: Arc<SegmentStore>,
    name: String,
    /// The open file, once a block has been read.
    file: Mutex<Option<File>>,
}

impl SegmentFile {
    /// Read one block into `buf` (cleared and resized), opening the file
    /// on its first read.
    fn read(&self, at: &BlockRef, buf: &mut Vec<u8>) -> Result<(), SpillError> {
        let mut held = self.file.lock();
        let file = match &mut *held {
            Some(file) => file,
            unopened => unopened.insert(File::open(self.store.dir.join(&self.name))?),
        };
        file.seek(SeekFrom::Start(at.offset))?;
        buf.clear();
        buf.resize(at.len as usize, 0);
        file.read_exact(buf)?;
        Ok(())
    }
}

/// A disk-backed portion of one record table: its per-router blocks in
/// one sealed segment or merged file.
#[derive(Debug, Clone)]
pub(crate) struct SpilledPart {
    file: Arc<SegmentFile>,
    /// Where each router's block lies in the file.
    pub(crate) blocks: BTreeMap<RouterId, BlockRef>,
}

impl SpilledPart {
    /// A part over `file`.
    pub(crate) fn new(
        file: &Arc<SegmentFile>,
        blocks: BTreeMap<RouterId, BlockRef>,
    ) -> SpilledPart {
        SpilledPart { file: Arc::clone(file), blocks }
    }

    /// The file's name in its store.
    pub(crate) fn name(&self) -> &str {
        &self.file.name
    }

    /// The store holding the file.
    pub(crate) fn store(&self) -> &Arc<SegmentStore> {
        &self.file.store
    }

    /// Read one block into `buf` (cleared and resized), opening the file
    /// if no part over it has read from it yet.
    pub(crate) fn read(&self, at: &BlockRef, buf: &mut Vec<u8>) -> Result<(), SpillError> {
        self.file.read(at, buf)
    }

    /// Total encoded bytes across all blocks.
    pub(crate) fn bytes(&self) -> u64 {
        self.blocks.values().map(|b| b.len).sum()
    }

    /// Delete the part's file from its store.
    pub(crate) fn remove(self) {
        self.file.store.remove_file(&self.file.name);
    }
}

/// Append-only block writer over one merged-column file.
#[derive(Debug)]
pub(crate) struct BlockWriter {
    store: Arc<SegmentStore>,
    name: String,
    out: BufWriter<File>,
    offset: u64,
}

impl BlockWriter {
    /// Start the merged-column file `merged-{id}-{tag}.col` in `store`,
    /// with an id no other merged file of the store has, so repeated
    /// drains of a live collector never collide on names. The magic is
    /// already written; offsets returned by [`BlockWriter::append`]
    /// account for it.
    pub(crate) fn create(store: &Arc<SegmentStore>, tag: &str) -> io::Result<BlockWriter> {
        let id = store.merge_seq.fetch_add(1, Ordering::Relaxed);
        let name = format!("merged-{id}-{tag}.col");
        let mut out = BufWriter::new(File::create(store.dir.join(&name))?);
        out.write_all(SEGMENT_MAGIC)?;
        Ok(BlockWriter { store: Arc::clone(store), name, out, offset: SEGMENT_MAGIC.len() as u64 })
    }

    /// Append one encoded block; returns its offset from file start.
    pub(crate) fn append(&mut self, block: &[u8]) -> io::Result<u64> {
        let at = self.offset;
        self.out.write_all(block)?;
        self.offset += block.len() as u64;
        Ok(at)
    }

    /// Flush and close the file, and hand it over as the part holding
    /// `blocks`.
    pub(crate) fn finish(
        mut self,
        blocks: BTreeMap<RouterId, BlockRef>,
    ) -> io::Result<SpilledPart> {
        self.out.flush()?;
        Ok(SpilledPart::new(&self.store.file(&self.name), blocks))
    }
}

// ---------------------------------------------------------------------------
// Little-endian framing primitives. The put_* functions are on the seal
// path (hot-path manifest: extend-only, no allocation); Cursor is the
// bounds-checked reader — every decode error is a typed `Corrupt`, never
// a slice-index panic.

/// Append one `u8`.
pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append one little-endian `u16`.
pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append one little-endian `u32`.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append one little-endian `u64`.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked reader over one encoded block.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Read from the start of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Consume `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SpillError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SpillError::Corrupt("length overflows the block"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SpillError::Corrupt("truncated block"))?;
        self.pos = end;
        Ok(slice)
    }

    /// Read a length prefix for `width`-byte elements, rejecting any
    /// count the remaining bytes cannot possibly hold (so a corrupt
    /// prefix fails fast instead of attempting a huge allocation).
    pub(crate) fn len_prefix(&mut self, width: usize) -> Result<usize, SpillError> {
        let n = self.u64()? as usize;
        if width > 0 && n > self.remaining() / width {
            return Err(SpillError::Corrupt("length prefix exceeds block size"));
        }
        Ok(n)
    }

    /// Read one `u8`.
    pub(crate) fn u8(&mut self) -> Result<u8, SpillError> {
        let b = self.take(1)?;
        b.first().copied().ok_or(SpillError::Corrupt("truncated u8"))
    }

    /// Read one little-endian `u16`.
    pub(crate) fn u16(&mut self) -> Result<u16, SpillError> {
        let b = self.take(2)?;
        let arr: [u8; 2] = b.try_into().map_err(|_| SpillError::Corrupt("truncated u16"))?;
        Ok(u16::from_le_bytes(arr))
    }

    /// Read one little-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, SpillError> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| SpillError::Corrupt("truncated u32"))?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Read one little-endian `u64`.
    pub(crate) fn u64(&mut self) -> Result<u64, SpillError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| SpillError::Corrupt("truncated u64"))?;
        Ok(u64::from_le_bytes(arr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_round_trips_and_rejects_truncation() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 300);
        put_u32(&mut buf, u32::MAX - 1);
        put_u64(&mut buf, u64::MAX);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u8().unwrap(), 7);
        assert_eq!(cur.u16().unwrap(), 300);
        assert_eq!(cur.u32().unwrap(), u32::MAX - 1);
        assert_eq!(cur.u64().unwrap(), u64::MAX);
        assert_eq!(cur.remaining(), 0);
        assert!(cur.u8().is_err(), "reading past the end is a typed error");

        let mut cur = Cursor::new(&buf[..3]);
        assert_eq!(cur.u8().unwrap(), 7);
        assert!(cur.u32().is_err());
    }

    #[test]
    fn len_prefix_rejects_counts_that_cannot_fit() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert!(Cursor::new(&buf).len_prefix(4).is_err());
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 2);
        assert_eq!(Cursor::new(&buf).len_prefix(4).unwrap(), 2);
    }

    #[test]
    fn store_removes_its_directory_on_drop() {
        let store = SegmentStore::create(None).expect("create store");
        let dir = store.dir().to_path_buf();
        store.write_file("seg0", b"hello").expect("write");
        assert!(dir.join("seg0").is_file());
        drop(store);
        assert!(!dir.exists(), "store directory must be removed on drop");
    }

    #[test]
    fn block_writer_offsets_account_for_the_magic() {
        let store = Arc::new(SegmentStore::create(None).expect("create store"));
        let mut w = BlockWriter::create(&store, "flows").expect("writer");
        let a = w.append(b"abc").expect("append");
        let b = w.append(b"defg").expect("append");
        let at = BlockRef { offset: b, len: 4, rows: 0 };
        let part = w.finish(BTreeMap::from([(RouterId(1), at)])).expect("finish");
        assert_eq!(part.name(), "merged-0-flows.col");
        assert_eq!(a, SEGMENT_MAGIC.len() as u64);
        assert_eq!(b, a + 3);
        let mut buf = Vec::new();
        part.read(&at, &mut buf).expect("read");
        assert_eq!(buf, b"defg");
        let next = BlockWriter::create(&store, "flows").expect("writer");
        assert_eq!(next.name, "merged-1-flows.col", "every merged file gets a fresh id");
    }

    #[test]
    fn a_part_opens_its_file_on_the_first_read_and_keeps_it() {
        let store = Arc::new(SegmentStore::create(None).expect("create store"));
        let at = BlockRef { offset: 2, len: 3, rows: 1 };
        let file = store.file("seg0");
        let part = SpilledPart::new(&file, BTreeMap::from([(RouterId(4), at)]));
        let clone = part.clone();
        let mut buf = Vec::new();
        assert!(part.read(&at, &mut buf).is_err(), "creating a part opened nothing");
        store.write_file("seg0", b"..xyz").expect("write");
        part.read(&at, &mut buf).expect("first read opens the file");
        assert_eq!(buf, b"xyz");
        // Unlinked, the file stays readable through the open handle, which
        // the clone shares: no later read opens it again.
        store.remove_file("seg0");
        assert!(!store.dir().join("seg0").exists());
        buf.clear();
        clone.read(&at, &mut buf).expect("the held handle still reads");
        assert_eq!(buf, b"xyz");
    }
}
