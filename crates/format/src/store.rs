//! Content-addressed on-disk artifact store for analysis sessions.
//!
//! One [`DiskStore`] manages the cache directory of one input trace. The
//! on-disk layout is flat and self-describing:
//!
//! ```text
//! <dir>/<stem>-<key:016x>.omicro   hi-res intermediate (see `hires_cache`)
//! <dir>/<stem>-<key:016x>.ocube    cube prefix sums    (see `cube_cache`)
//! <dir>/<stem>-<key:016x>.opart    partition table     (see `part_cache`)
//! ```
//!
//! where `stem` is the trace's file stem and `key` the session's
//! content-addressed hash: over (trace bytes, slicing params, metric) for
//! `.ocube` and `.opart`, over (trace bytes, metric) for `.omicro`, whose
//! one grid serves a whole family of slice counts. Lookups are doubly
//! guarded: the key is part of the file name *and* stored in the artifact
//! header (so a renamed or copied file can never be served under the
//! wrong key).
//!
//! **Stale-key invalidation** happens at two levels. Correctness is
//! guaranteed by content-addressing alone: a changed trace or changed
//! parameters produce a different key, so stale bytes can never be
//! *served*. On top of that, storing an artifact prunes same-stem
//! same-kind siblings down to the [`KEEP_PER_KIND`] most recently
//! touched — old keys are garbage-collected instead of accumulating
//! forever, while a handful of recent keys stay warm (two traces sharing
//! a file stem in one shared cache dir, or one trace analyzed at
//! alternating `--slices`, do not evict each other).
//!
//! Hashing is chunk-combined 64-bit FNV-1a (`ocelotl_core::fnv1a`): the
//! input is cut into [`HASH_CHUNK_BYTES`] chunks, each chunk hashed with
//! plain streamed FNV-1a, and the per-chunk digests folded — 8
//! little-endian bytes each, in chunk order — into an outer FNV-1a.
//! Inputs that fit in one chunk keep the plain FNV-1a value, so keys of
//! small traces are unchanged by the chunking.
//!
//! [`hash_trace_input`] is the one content fingerprint of a trace input
//! (files, plain `.octf` chunk indexes and directories); apart from the
//! `.octf` index fold it calls (`ColumnarPlan::fingerprint`), nothing else
//! computes one. An ingest does not hash: a session asks for the
//! fingerprint only where a key is used, to key its artifact store or to
//! answer a `stats` request.

use crate::cube_cache::{load_cube, save_cube};
use crate::error::{FormatError, Result};
use crate::hires_cache::{load_hi_res, save_hi_res};
use crate::part_cache::{load_partitions, save_partitions};
use ocelotl_core::{fnv1a, ArtifactStore, CubeCore, HiResModel, PartitionTable, FNV_SEED};
use ocelotl_trace::Trace;
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

/// Fingerprint chunk size: inputs are hashed in 4 MiB chunks whose raw
/// digests compose into the combined key (module docs). Everything at or
/// under one chunk keeps the plain streamed FNV-1a value.
pub const HASH_CHUNK_BYTES: u64 = 4 << 20;

/// Stream a reader through plain FNV-1a; returns the raw 64-bit hash.
///
/// This is the *uncombined* primitive: it equals the content fingerprint
/// only for inputs within a single [`HASH_CHUNK_BYTES`] chunk. Whole-input
/// fingerprints come from [`hash_file`], which chunk-combines (module
/// docs).
pub fn hash_reader<R: Read>(mut r: R) -> std::io::Result<u64> {
    let mut hash = FNV_SEED;
    let mut buf = [0u8; 1 << 16];
    loop {
        let n = r.read(&mut buf)?;
        if n == 0 {
            return Ok(hash);
        }
        hash = fnv1a(hash, &buf[..n]);
    }
}

/// Incremental chunk-combined FNV-1a (scheme in the module docs). Feed
/// bytes with [`ChunkedFnv::update`]; [`ChunkedFnv::finish`] yields the
/// fingerprint: the raw chunk digest when everything fit in one chunk,
/// the outer fold over per-chunk digests otherwise.
#[derive(Debug, Clone)]
struct ChunkedFnv {
    outer: u64,
    chunk: u64,
    in_chunk: u64,
    closed: u64,
}

impl ChunkedFnv {
    fn new() -> Self {
        Self {
            outer: FNV_SEED,
            chunk: FNV_SEED,
            in_chunk: 0,
            closed: 0,
        }
    }

    fn update(&mut self, mut buf: &[u8]) {
        while !buf.is_empty() {
            if self.in_chunk == HASH_CHUNK_BYTES {
                self.close_chunk();
            }
            let room = (HASH_CHUNK_BYTES - self.in_chunk) as usize;
            let take = room.min(buf.len());
            self.chunk = fnv1a(self.chunk, &buf[..take]);
            self.in_chunk += take as u64;
            buf = &buf[take..];
        }
    }

    /// Fold the completed chunk's digest into the outer hash. A chunk is
    /// closed lazily — only once a byte beyond its boundary arrives, or
    /// from `finish` when earlier chunks exist — so single-chunk inputs
    /// never touch the outer fold and keep their raw FNV-1a key.
    fn close_chunk(&mut self) {
        self.outer = fnv1a(self.outer, &self.chunk.to_le_bytes());
        self.closed += 1;
        self.chunk = FNV_SEED;
        self.in_chunk = 0;
    }

    fn finish(mut self) -> u64 {
        if self.closed == 0 {
            return self.chunk;
        }
        self.close_chunk();
        self.outer
    }
}

/// Content hash of a file (the trace fingerprint of file-backed
/// sessions): chunk-combined FNV-1a over the raw bytes.
pub fn hash_file(path: &Path) -> std::io::Result<u64> {
    let mut f = File::open(path)?;
    let mut acc = ChunkedFnv::new();
    let mut buf = [0u8; 1 << 16];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok(acc.finish());
        }
        acc.update(&buf[..n]);
    }
}

/// Raw FNV-1a digest of the byte range `[start, start + len)` of a file —
/// what [`crate::columnar::ColumnarPlan::fingerprint`] folds for a plain
/// `.octf`'s header and footer. Reads exactly `len` bytes; a short file is
/// an error (the caller planned the range from the same metadata).
pub fn hash_file_chunk(path: &Path, start: u64, len: u64) -> std::io::Result<u64> {
    use std::io::{Seek, SeekFrom};
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(start))?;
    let mut hash = FNV_SEED;
    let mut remaining = len;
    let mut buf = [0u8; 1 << 16];
    while remaining > 0 {
        let want = remaining.min(buf.len() as u64) as usize;
        let n = f.read(&mut buf[..want])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "file shrank under the chunk hasher",
            ));
        }
        hash = fnv1a(hash, &buf[..n]);
        remaining -= n as u64;
    }
    Ok(hash)
}

/// Combine per-file content hashes into a directory's fingerprint: an FNV
/// fold over the 8-byte little-endian hashes in sorted file order.
fn combine_file_hashes(hashes: &[u64]) -> u64 {
    hashes
        .iter()
        .fold(FNV_SEED, |acc, h| fnv1a(acc, &h.to_le_bytes()))
}

/// Content fingerprint of a trace input — the one function that computes
/// it (module docs). A plain `.octf` file folds its chunk index (header
/// and footer bytes only, so the key never depends on which chunks an
/// ingest reads); any other file, gzip-framed `.octf` included, is
/// [`hash_file`] of its on-disk bytes; a directory folds its files' hashes
/// in sorted file order.
pub fn hash_trace_input(path: &Path) -> std::io::Result<u64> {
    let invalid = |e: FormatError| std::io::Error::new(ErrorKind::InvalidData, e.to_string());
    if path.is_dir() {
        let files = crate::io::trace_files(path).map_err(invalid)?;
        let hashes: Vec<u64> = files
            .iter()
            .map(|f| hash_trace_input(f))
            .collect::<std::io::Result<_>>()?;
        return Ok(combine_file_hashes(&hashes));
    }
    let mut magic = [0u8; 4];
    if File::open(path)?.read_exact(&mut magic).is_ok() && &magic == crate::columnar::MAGIC {
        return crate::columnar::plan_columnar(path)
            .map_err(invalid)?
            .fingerprint(path);
    }
    hash_file(path)
}

/// A `Write` sink that hashes instead of storing.
struct HashWriter {
    acc: ChunkedFnv,
}

impl Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.acc.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Content hash of an in-memory trace: the chunk-combined FNV-1a hash of
/// its canonical BTF serialization, computed without materializing the
/// bytes. Equals [`hash_file`] of the same trace written with
/// `write_binary`.
pub fn hash_trace(trace: &Trace) -> Result<u64> {
    let mut w = HashWriter {
        acc: ChunkedFnv::new(),
    };
    crate::binary::write_binary(trace, &mut w)?;
    Ok(w.acc.finish())
}

/// The on-disk [`ArtifactStore`] (layout and invalidation in the module
/// docs). All operations are best-effort: I/O failures degrade to cache
/// misses / skipped writes, never to session errors.
#[derive(Debug, Clone)]
pub struct DiskStore {
    dir: PathBuf,
    stem: String,
    keep: usize,
}

impl DiskStore {
    /// A store rooted at `dir`, namespaced by `stem` (usually the trace's
    /// file stem). The directory is created on first write. Retention
    /// defaults to [`KEEP_PER_KIND`]; see [`DiskStore::with_keep`].
    pub fn new(dir: impl Into<PathBuf>, stem: impl Into<String>) -> Self {
        let mut stem = stem.into();
        // Keep the namespace filesystem-safe.
        stem.retain(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
        if stem.is_empty() {
            stem.push_str("trace");
        }
        Self {
            dir: dir.into(),
            stem,
            keep: KEEP_PER_KIND,
        }
    }

    /// Set the GC retention: how many artifacts of one kind this stem may
    /// keep (the just-stored key plus the most recent siblings). Clamped
    /// to at least 1 — the current key is never collected. The CLI wires
    /// `SessionConfig::cache_keep` / `OCELOTL_CACHE_KEEP` here.
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// The configured GC retention.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// A store for `input`, rooted at `dir` if given, else at an
    /// `.ocelotl/` directory next to the input file.
    pub fn for_input(input: &Path, dir: Option<&Path>) -> Self {
        let dir = dir.map(Path::to_path_buf).unwrap_or_else(|| {
            input
                .parent()
                .unwrap_or_else(|| Path::new("."))
                .join(".ocelotl")
        });
        let stem = input
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".into());
        Self::new(dir, stem)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: u64, ext: &str) -> PathBuf {
        self.dir.join(format!("{}-{key:016x}.{ext}", self.stem))
    }

    /// Garbage-collect same-stem artifacts of the given kind beyond the
    /// `self.keep` most recently modified (the invalidation pass; see
    /// module docs). The just-stored `key` is always kept.
    fn prune_stale(&self, key: u64, ext: &str) {
        let keep = self.path(key, ext);
        let prefix = format!("{}-", self.stem);
        let suffix = format!(".{ext}");
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        // GC recency ordering only: mtimes decide which *siblings* to
        // evict, never what any artifact or reply contains.
        // oclint: allow(det-clock)
        let mut siblings: Vec<(std::time::SystemTime, PathBuf)> = entries
            .flatten()
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with(&prefix) && name.ends_with(&suffix) && e.path() != keep
            })
            .map(|e| {
                let mtime = e
                    .metadata()
                    .and_then(|m| m.modified())
                    // oclint: allow(det-clock) — epoch fallback for unreadable mtimes
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                (mtime, e.path())
            })
            .collect();
        // Newest first; the current key occupies one slot.
        siblings.sort_by_key(|(mtime, _)| std::cmp::Reverse(*mtime));
        for (_, path) in siblings.into_iter().skip(self.keep - 1) {
            std::fs::remove_file(path).ok();
        }
    }
}

/// Default retention: how many artifacts of one kind a stem may keep (the
/// current key plus recent siblings, newest-first). Equals
/// `ocelotl_core::DEFAULT_CACHE_KEEP`; override per store with
/// [`DiskStore::with_keep`].
pub const KEEP_PER_KIND: usize = ocelotl_core::DEFAULT_CACHE_KEEP;

impl ArtifactStore for DiskStore {
    fn load_cube(&self, key: u64) -> Option<CubeCore> {
        let (stored_key, core) = load_cube(&self.path(key, "ocube")).ok()?;
        (stored_key == key).then_some(core)
    }

    fn store_cube(&self, key: u64, core: &CubeCore) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let ok = save_cube(key, core, &self.path(key, "ocube")).is_ok();
        if ok {
            self.prune_stale(key, "ocube");
        }
        ok
    }

    fn load_partitions(&self, key: u64) -> Option<PartitionTable> {
        let (stored_key, table) = load_partitions(&self.path(key, "opart")).ok()?;
        (stored_key == key).then_some(table)
    }

    fn store_partitions(&self, key: u64, table: &PartitionTable) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let ok = save_partitions(key, table, &self.path(key, "opart")).is_ok();
        if ok {
            self.prune_stale(key, "opart");
        }
        ok
    }

    fn load_hi_res(&self, key: u64) -> Option<HiResModel> {
        let (stored_key, hi) = load_hi_res(&self.path(key, "omicro")).ok()?;
        (stored_key == key).then_some(hi)
    }

    fn store_hi_res(&self, key: u64, hi: &HiResModel) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let ok = save_hi_res(key, hi, &self.path(key, "omicro")).is_ok();
        if ok {
            self.prune_stale(key, "omicro");
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelotl_core::{CubeCore, QualityCube};
    use ocelotl_trace::synthetic::random_model;

    fn scratch_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("ocelotl-store-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn artifact_files(dir: &Path, ext: &str) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut v: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn store_roundtrips_and_misses_on_other_keys() {
        let dir = scratch_dir("roundtrip");
        let store = DiskStore::new(&dir, "t");
        let core = CubeCore::build(&random_model(&[2, 3], 7, 2, 8));

        assert!(store.load_cube(1).is_none(), "empty store misses");
        assert!(store.store_cube(1, &core));
        let back = store.load_cube(1).expect("hit");
        assert_eq!(back.n_slices(), core.n_slices());
        assert!(store.load_cube(2).is_none(), "other keys miss");

        let table = PartitionTable::default();
        assert!(store.store_partitions(1, &table));
        assert_eq!(store.load_partitions(1), Some(table));
        assert!(store.load_partitions(9).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recent_keys_coexist_and_old_keys_are_pruned() {
        let dir = scratch_dir("invalidate");
        let store = DiskStore::new(&dir, "t");
        let core = CubeCore::build(&random_model(&[2, 2], 5, 2, 3));

        // Two recent keys coexist (alternating parameters stay warm)…
        store.store_cube(1, &core);
        store.store_cube(2, &core);
        assert!(store.load_cube(1).is_some(), "recent keys must stay warm");
        assert!(store.load_cube(2).is_some());

        // …but the population is bounded: storing more than KEEP_PER_KIND
        // keys garbage-collects the oldest.
        for key in 3..=10u64 {
            store.store_cube(key, &core);
            // Distinct mtimes even on coarse-granularity filesystems.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(
            artifact_files(&dir, "ocube").len(),
            KEEP_PER_KIND,
            "population must be pruned to KEEP_PER_KIND"
        );
        assert!(store.load_cube(10).is_some(), "newest key always kept");
        assert!(store.load_cube(1).is_none(), "oldest keys pruned");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn configured_keep_bounds_the_population() {
        let dir = scratch_dir("keep");
        let store = DiskStore::new(&dir, "t").with_keep(2);
        assert_eq!(store.keep(), 2);
        let core = CubeCore::build(&random_model(&[2, 2], 5, 2, 3));
        for key in 1..=5u64 {
            store.store_cube(key, &core);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(
            artifact_files(&dir, "ocube").len(),
            2,
            "population must be pruned to the configured keep"
        );
        assert!(store.load_cube(5).is_some(), "newest key kept");
        assert!(store.load_cube(4).is_some(), "second-newest key kept");
        assert!(store.load_cube(3).is_none(), "older keys evicted");

        // keep is clamped to 1: the just-stored key always survives.
        let tight = DiskStore::new(&dir, "u").with_keep(0);
        assert_eq!(tight.keep(), 1);
        tight.store_cube(1, &core);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tight.store_cube(2, &core);
        assert!(tight.load_cube(2).is_some());
        assert!(tight.load_cube(1).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_stems_do_not_invalidate_each_other() {
        let dir = scratch_dir("stems");
        let a = DiskStore::new(&dir, "alpha");
        let b = DiskStore::new(&dir, "beta");
        let core = CubeCore::build(&random_model(&[2], 4, 1, 1));
        a.store_cube(1, &core);
        b.store_cube(2, &core);
        assert!(a.load_cube(1).is_some());
        assert!(b.load_cube(2).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_key_guards_renamed_files() {
        let dir = scratch_dir("renamed");
        let store = DiskStore::new(&dir, "t");
        let core = CubeCore::build(&random_model(&[2], 4, 1, 2));
        store.store_cube(1, &core);
        // Rename the key-1 artifact to pose as key 3.
        std::fs::rename(store.path(1, "ocube"), store.path(3, "ocube")).unwrap();
        assert!(
            store.load_cube(3).is_none(),
            "header key mismatch must be rejected"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hash_trace_matches_hash_file_of_btf() {
        use ocelotl_trace::{Hierarchy, LeafId, TraceBuilder};
        let mut b = TraceBuilder::new(Hierarchy::balanced(&[2]));
        let s = b.state("Run");
        b.push_state(LeafId(0), s, 0.0, 1.0);
        b.push_state(LeafId(1), s, 0.0, 2.0);
        let trace = b.build();

        let path = std::env::temp_dir().join(format!("hash-test-{}.btf", std::process::id()));
        crate::io::write_trace(&trace, &path).unwrap();
        assert_eq!(hash_trace(&trace).unwrap(), hash_file(&path).unwrap());
        // And the hash is content-sensitive.
        let mut b2 = TraceBuilder::new(Hierarchy::balanced(&[2]));
        let s2 = b2.state("Run");
        b2.push_state(LeafId(0), s2, 0.0, 1.5);
        assert_ne!(
            hash_trace(&trace).unwrap(),
            hash_trace(&b2.build()).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    /// Combine per-chunk raw FNV-1a digests (in chunk order) into the
    /// input's fingerprint: the scheme of the module docs, written out
    /// directly as the reference [`hash_file`] must match.
    fn combine_chunk_hashes(chunks: &[u64]) -> u64 {
        match chunks {
            [] => FNV_SEED,
            [one] => *one,
            many => many
                .iter()
                .fold(FNV_SEED, |outer, c| fnv1a(outer, &c.to_le_bytes())),
        }
    }

    /// Reference chunked digest built the slow, obvious way: raw FNV per
    /// chunk, combined. Every incremental implementation must match it.
    fn reference_chunked(bytes: &[u8]) -> u64 {
        let digests: Vec<u64> = bytes
            .chunks(HASH_CHUNK_BYTES as usize)
            .map(|c| hash_reader(c).unwrap())
            .collect();
        combine_chunk_hashes(&digests)
    }

    #[test]
    fn single_chunk_inputs_keep_the_raw_fnv_key() {
        // Below, at, and just short of the chunk boundary: the historic
        // plain-FNV key must survive the chunked scheme.
        for len in [0usize, 1, 4096, HASH_CHUNK_BYTES as usize] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let path =
                std::env::temp_dir().join(format!("hash-single-{}-{len}.bin", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(
                hash_file(&path).unwrap(),
                hash_reader(bytes.as_slice()).unwrap(),
                "len {len}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn multi_chunk_hash_matches_reference_and_parallel_combine() {
        // 2.5 chunks: exercises a full chunk, a boundary-exact chunk and a
        // trailing partial one.
        let len = (HASH_CHUNK_BYTES * 5 / 2) as usize;
        let bytes: Vec<u8> = (0..len).map(|i| (i * 131 % 255) as u8).collect();
        let path = std::env::temp_dir().join(format!("hash-multi-{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();

        let expect = reference_chunked(&bytes);
        assert_eq!(hash_file(&path).unwrap(), expect, "streamed hash_file");
        assert_ne!(
            expect,
            hash_reader(bytes.as_slice()).unwrap(),
            "multi-chunk keys intentionally differ from the raw fold"
        );

        // The sharded path: per-chunk digests computed independently by
        // seeking, then combined.
        let n_chunks = len.div_ceil(HASH_CHUNK_BYTES as usize);
        let digests: Vec<u64> = (0..n_chunks)
            .map(|i| {
                let start = i as u64 * HASH_CHUNK_BYTES;
                let take = (len as u64 - start).min(HASH_CHUNK_BYTES);
                hash_file_chunk(&path, start, take).unwrap()
            })
            .collect();
        assert_eq!(combine_chunk_hashes(&digests), expect, "parallel combine");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn for_input_derives_dir_and_stem() {
        let s = DiskStore::for_input(Path::new("/data/traces/run42.btf"), None);
        assert_eq!(s.dir(), Path::new("/data/traces/.ocelotl"));
        assert_eq!(s.stem, "run42");
        let s = DiskStore::for_input(Path::new("x.btf"), Some(Path::new("/tmp/c")));
        assert_eq!(s.dir(), Path::new("/tmp/c"));
    }
}
