//! OCTF — the columnar, chunk-indexed native trace format (`.octf`).
//!
//! Every other ingest path pays a full pass over the trace even when the
//! request needs a sliver of the time axis. OCTF stores events in
//! column-encoded **chunks** and carries a footer **chunk index** — per
//! chunk: record count, time extent `[t_min, t_max]`, a folded resource
//! presence bitmask, a payload checksum and the byte offset — so a
//! windowed or resource-filtered ingest can *skip whole chunks* without
//! touching their bytes (predicate pushdown), and chunk boundaries double
//! as the shard boundaries of the parallel `PartialModel` merge.
//!
//! ```text
//! magic   "OCT1"
//! header  f64 t_min, f64 t_max          (patched by the writer at finish)
//!         u32 n_meta   { str, str }*
//!         u32 n_nodes  { u32 parent+1, str kind, str name }*  (pre-order)
//!         u32 n_states { str }*          — the BTF header block, shared
//! chunks  { u8 tag (1=intervals, 2=points)
//!           u64 n_records, f64 t_min, f64 t_max,
//!           u8 kind_mask, u64 resource_mask,
//!           u64 checksum (FNV-1a of payload), u64 payload_len,
//!           payload }*
//!         u8 0x00                        (end-of-chunks sentinel)
//! footer  "OCTI" u64 n_chunks { entry + u64 offset }*   (the chunk index)
//! trailer u64 footer_offset  "OCTE"
//! ```
//!
//! Chunk payloads are column-major with per-column encodings that reset at
//! every chunk boundary, so chunks decode independently:
//!
//! - interval chunks: begin timestamps as XOR-delta varints over the f64
//!   bit patterns, end timestamps XORed against their own record's begin
//!   (durations repeat, so the XOR is small), resource ids as
//!   zigzag-delta varints, state ids as plain varints;
//! - point chunks: timestamps XOR-delta, resources zigzag-delta, kinds as
//!   one raw byte each (BTF codes: 0 marker, 1 send, 2 recv), peers as
//!   plain varints.
//!
//! The content fingerprint of an OCTF file is **index-combined**: an
//! FNV-1a fold over the header-bytes hash, the stored per-chunk checksums
//! in chunk order, and the footer-bytes hash. It is computable from the
//! header and footer alone, so a pushdown ingest that skips chunks reports
//! the *same* fingerprint as a full pass — artifact keys are unchanged and
//! cache hits survive (see [`ColumnarPlan::fingerprint`]).
//!
//! Checksums are verified on every decode; a mismatch surfaces as the
//! typed [`FormatError::ChunkCorrupt`] naming the chunk (and, once the
//! `io` layer annotates it, the file). Other chunks of the same file stay
//! decodable through the planner.

use crate::binary::{
    byte_at, le_f64, le_u64, put_header_block, read_exact_buf, read_header_block, CountingReader,
    INTERVAL_RECORD_BYTES, POINT_RECORD_BYTES,
};
use crate::error::{FormatError, Result};
use ocelotl_core::{fnv1a, FNV_SEED};
use ocelotl_trace::{EventSink, LeafId, PointEvent, PointKind, StateId, StreamHeader, Trace};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The OCTF file magic.
pub const MAGIC: &[u8; 4] = b"OCT1";
const FOOTER_MAGIC: &[u8; 4] = b"OCTI";
const END_MAGIC: &[u8; 4] = b"OCTE";

/// Chunk tag: column-encoded interval records.
pub const TAG_INTERVALS: u8 = 1;
/// Chunk tag: column-encoded point records.
pub const TAG_POINTS: u8 = 2;
const TAG_END: u8 = 0;

/// `kind_mask` bit: the chunk carries `MsgSend` points.
pub const KIND_SEND: u8 = 1;
/// `kind_mask` bit: the chunk carries `MsgRecv` points.
pub const KIND_RECV: u8 = 2;
/// `kind_mask` bit: the chunk carries `Marker` points.
pub const KIND_MARKER: u8 = 4;

/// Records per chunk the writer targets by default: large enough that the
/// per-chunk index entry is noise, small enough that a windowed request
/// over a big trace skips most of the file.
pub const DEFAULT_CHUNK_RECORDS: usize = 1 << 16;

/// On-disk size of the local chunk header (tag + counts + extents + masks
/// + checksum + payload length).
const CHUNK_HEADER_BYTES: u64 = 1 + 8 + 8 + 8 + 1 + 8 + 8 + 8;
/// On-disk size of one footer index entry (the local header + the offset).
const FOOTER_ENTRY_BYTES: u64 = CHUNK_HEADER_BYTES + 8;
/// Trailer: `u64 footer_offset` + end magic.
const TRAILER_BYTES: u64 = 8 + 4;

// ---------------------------------------------------------------------------
// Varint / zigzag primitives
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(FormatError::parse(
                "truncated varint in chunk payload",
                None,
            ));
        };
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(FormatError::parse("varint overflows 64 bits", None));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(FormatError::parse("varint overflows 64 bits", None));
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Chunk index
// ---------------------------------------------------------------------------

/// One entry of the footer chunk index: everything the planner needs to
/// decide whether a chunk can contribute to a request — and to decode it —
/// without touching the chunk's bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkInfo {
    /// [`TAG_INTERVALS`] or [`TAG_POINTS`].
    pub tag: u8,
    /// Records in the chunk (≥ 1: empty chunks are never written).
    pub n_records: u64,
    /// Smallest event time in the chunk (interval begins / point times).
    pub t_min: f64,
    /// Largest event time in the chunk (interval ends / point times).
    pub t_max: f64,
    /// Union of [`KIND_SEND`]/[`KIND_RECV`]/[`KIND_MARKER`] bits for point
    /// chunks; 0 for interval chunks.
    pub kind_mask: u8,
    /// Folded resource presence: bit `leaf % 64` is set for every leaf
    /// with a record in the chunk (a conservative superset test).
    pub resource_mask: u64,
    /// Raw FNV-1a digest of the payload bytes, verified on every decode.
    pub checksum: u64,
    /// File offset of the chunk's tag byte.
    pub offset: u64,
    /// Payload size in bytes (excludes the local chunk header).
    pub payload_len: u64,
}

impl ChunkInfo {
    /// `true` for point chunks.
    pub fn is_points(&self) -> bool {
        self.tag == TAG_POINTS
    }

    /// Bytes this chunk occupies on disk (local header + payload).
    pub fn stored_bytes(&self) -> u64 {
        CHUNK_HEADER_BYTES + self.payload_len
    }

    /// Can any record of this chunk intersect the closed window
    /// `[lo, hi]`? (Extents are exact record min/max, so `false` means no
    /// record can contribute to any cell over that window.)
    pub fn overlaps(&self, lo: f64, hi: f64) -> bool {
        !(self.t_max < lo || self.t_min > hi)
    }
}

/// One decode group of [`ColumnarPlan::select`]: `(index, entry)` of each
/// chunk it reads, in index order.
pub(crate) type ChunkGroup = Vec<(u64, ChunkInfo)>;

/// Parsed OCTF layout: the frozen [`StreamHeader`] plus the footer chunk
/// index — everything predicate pushdown plans against, read from the
/// header and footer alone (no chunk bytes touched).
#[derive(Debug)]
pub struct ColumnarPlan {
    /// The stream header (range always declared, possibly `(0, 0)` for an
    /// empty trace — exactly like BTF).
    pub header: StreamHeader,
    /// Exact byte size of magic + header block (= offset of chunk 0).
    pub header_bytes: u64,
    /// The chunk index, in file (= write) order.
    pub chunks: Vec<ChunkInfo>,
    /// File offset of the footer magic.
    pub footer_offset: u64,
    /// Total file size in bytes.
    pub file_len: u64,
}

impl ColumnarPlan {
    /// Total payload bytes across all chunks — the "body" size that drives
    /// the shard-count heuristic, mirroring the PTF/BTF planners.
    pub fn total_payload(&self) -> u64 {
        self.chunks.iter().map(|c| c.payload_len).sum()
    }

    /// `(intervals, points)` record totals from the index.
    pub fn records(&self) -> (u64, u64) {
        let iv = self
            .chunks
            .iter()
            .filter(|c| !c.is_points())
            .map(|c| c.n_records)
            .sum();
        let pt = self
            .chunks
            .iter()
            .filter(|c| c.is_points())
            .map(|c| c.n_records)
            .sum();
        (iv, pt)
    }

    /// What the same records would occupy as fixed BTF records — the
    /// "raw" reference size `info` reports the encoded size against.
    pub fn raw_equivalent_bytes(&self) -> u64 {
        let (iv, pt) = self.records();
        iv * INTERVAL_RECORD_BYTES as u64 + pt * POINT_RECORD_BYTES as u64
    }

    /// Cut the chunks `keep` accepts into `n_groups` contiguous groups
    /// balanced by cumulative payload — a pure function of the index, so
    /// one group is the forward decode and any grouping merges
    /// deterministically. Returns each group's kept chunks as `(index,
    /// entry)`, then which point kinds (send, recv, marker) and how many
    /// stored bytes the chunks `keep` rejects carry.
    pub(crate) fn select(
        &self,
        n_groups: usize,
        keep: impl Fn(&ChunkInfo) -> bool,
    ) -> (Vec<ChunkGroup>, [bool; 3], u64) {
        let total = self.total_payload().max(1);
        let mut groups = vec![Vec::new(); n_groups.max(1)];
        let last = groups.len() - 1;
        let (mut cum, mut kinds, mut skipped) = (0u64, 0u8, 0u64);
        for (i, c) in self.chunks.iter().enumerate() {
            let g = (cum.saturating_mul(n_groups as u64) / total) as usize;
            cum += c.payload_len;
            if !keep(c) {
                skipped += c.stored_bytes();
                kinds |= if c.is_points() { c.kind_mask } else { 0 };
            } else if let Some(group) = groups.get_mut(g.min(last)) {
                group.push((i as u64, *c));
            }
        }
        let kinds = [KIND_SEND, KIND_RECV, KIND_MARKER].map(|k| kinds & k != 0);
        (groups, kinds, skipped)
    }

    /// Union of chunk time extents; `None` when the file has no chunks.
    pub fn time_extent(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in &self.chunks {
            lo = lo.min(c.t_min);
            hi = hi.max(c.t_max);
        }
        (lo <= hi).then_some((lo, hi))
    }

    /// The index-combined content fingerprint (module docs): an FNV-1a
    /// fold over the header-bytes hash, the stored per-chunk checksums in
    /// chunk order, and the footer-bytes hash. Reads only the header and
    /// footer byte ranges, so full and pushdown ingests report the same
    /// key — this *is* the artifact key of OCTF sources.
    pub fn fingerprint(&self, path: &Path) -> std::io::Result<u64> {
        let head = crate::store::hash_file_chunk(path, 0, self.header_bytes)?;
        let foot = crate::store::hash_file_chunk(
            path,
            self.footer_offset,
            self.file_len - self.footer_offset,
        )?;
        let mut outer = FNV_SEED;
        outer = fnv1a(outer, &head.to_le_bytes());
        for c in &self.chunks {
            outer = fnv1a(outer, &c.checksum.to_le_bytes());
        }
        outer = fnv1a(outer, &foot.to_le_bytes());
        Ok(outer)
    }
}

fn chunk_corrupt(chunk: u64) -> FormatError {
    FormatError::ChunkCorrupt {
        file: String::new(),
        chunk,
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming OCTF writer, driven through the [`EventSink`] protocol (so
/// any decoder — or `convert` — can produce `.octf` without materializing
/// a trace). Requires `Seek`: the header's time range is patched at
/// [`finish`](ColumnarWriter::finish), exactly like `BtfStreamWriter`.
///
/// `EventSink` methods are infallible; I/O errors are deferred and
/// surfaced by `finish` (a failing `begin` also declines the stream so
/// decoders stop early).
pub struct ColumnarWriter<W: Write + Seek> {
    w: W,
    pos: u64,
    chunk_records: usize,
    iv: Vec<(u32, u16, f64, f64)>,
    pt: Vec<(u32, f64, u8, u32)>,
    chunks: Vec<ChunkInfo>,
    declared: Option<(f64, f64)>,
    t_min: f64,
    t_max: f64,
    began: bool,
    err: Option<FormatError>,
}

impl<W: Write + Seek> ColumnarWriter<W> {
    /// A writer with the default chunk size.
    pub fn new(w: W) -> Self {
        Self::with_chunk_records(w, DEFAULT_CHUNK_RECORDS)
    }

    /// A writer flushing a chunk every `chunk_records` records (per record
    /// family). Chunk layout is a property of the produced *file* — its
    /// index, fingerprint and ingest stats are deterministic per file —
    /// so tests and CI use small values to get multi-chunk fixtures from
    /// small traces.
    pub fn with_chunk_records(w: W, chunk_records: usize) -> Self {
        assert!(chunk_records >= 1, "need at least one record per chunk");
        Self {
            w,
            pos: 0,
            chunk_records,
            iv: Vec::new(),
            pt: Vec::new(),
            chunks: Vec::new(),
            declared: None,
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
            began: false,
            err: None,
        }
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.w.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn flush_intervals(&mut self) -> Result<()> {
        if self.iv.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(self.iv.len() * 8);
        let mut prev = 0u64;
        for &(_, _, b, _) in &self.iv {
            let bits = b.to_bits();
            put_varint(&mut payload, bits ^ prev);
            prev = bits;
        }
        for &(_, _, b, e) in &self.iv {
            put_varint(&mut payload, e.to_bits() ^ b.to_bits());
        }
        let mut prev = 0i64;
        for &(r, ..) in &self.iv {
            put_varint(&mut payload, zigzag(i64::from(r) - prev));
            prev = i64::from(r);
        }
        for &(_, s, ..) in &self.iv {
            put_varint(&mut payload, u64::from(s));
        }
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        let mut mask = 0u64;
        for &(r, _, b, e) in &self.iv {
            t_min = t_min.min(b);
            t_max = t_max.max(e);
            mask |= 1 << (r % 64);
        }
        let n = self.iv.len() as u64;
        self.iv.clear();
        self.write_chunk(TAG_INTERVALS, n, t_min, t_max, 0, mask, payload)
    }

    fn flush_points(&mut self) -> Result<()> {
        if self.pt.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(self.pt.len() * 6);
        let mut prev = 0u64;
        for &(_, t, _, _) in &self.pt {
            let bits = t.to_bits();
            put_varint(&mut payload, bits ^ prev);
            prev = bits;
        }
        let mut prev = 0i64;
        for &(r, ..) in &self.pt {
            put_varint(&mut payload, zigzag(i64::from(r) - prev));
            prev = i64::from(r);
        }
        for &(_, _, k, _) in &self.pt {
            payload.push(k);
        }
        for &(_, _, _, p) in &self.pt {
            put_varint(&mut payload, u64::from(p));
        }
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        let mut mask = 0u64;
        let mut kinds = 0u8;
        for &(r, t, k, _) in &self.pt {
            t_min = t_min.min(t);
            t_max = t_max.max(t);
            mask |= 1 << (r % 64);
            kinds |= match k {
                1 => KIND_SEND,
                2 => KIND_RECV,
                _ => KIND_MARKER,
            };
        }
        let n = self.pt.len() as u64;
        self.pt.clear();
        self.write_chunk(TAG_POINTS, n, t_min, t_max, kinds, mask, payload)
    }

    #[allow(clippy::too_many_arguments)]
    fn write_chunk(
        &mut self,
        tag: u8,
        n_records: u64,
        t_min: f64,
        t_max: f64,
        kind_mask: u8,
        resource_mask: u64,
        payload: Vec<u8>,
    ) -> Result<()> {
        let info = ChunkInfo {
            tag,
            n_records,
            t_min,
            t_max,
            kind_mask,
            resource_mask,
            checksum: fnv1a(FNV_SEED, &payload),
            offset: self.pos,
            payload_len: payload.len() as u64,
        };
        let mut head = Vec::with_capacity(CHUNK_HEADER_BYTES as usize);
        put_chunk_entry(&mut head, &info, false);
        self.write_all(&head)?;
        self.write_all(&payload)?;
        self.chunks.push(info);
        Ok(())
    }

    fn try_finish(&mut self) -> Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        if !self.began {
            return Err(FormatError::parse(
                "stream ended before any declarations",
                None,
            ));
        }
        self.flush_intervals()?;
        self.flush_points()?;
        self.write_all(&[TAG_END])?;
        let footer_offset = self.pos;
        let mut foot = Vec::with_capacity(
            FOOTER_MAGIC.len() + 8 + self.chunks.len() * FOOTER_ENTRY_BYTES as usize,
        );
        foot.extend_from_slice(FOOTER_MAGIC);
        foot.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        for info in &self.chunks {
            put_chunk_entry(&mut foot, info, true);
        }
        foot.extend_from_slice(&footer_offset.to_le_bytes());
        foot.extend_from_slice(END_MAGIC);
        self.write_all(&foot)?;
        // Patch the header's time range: the declared range when the
        // stream carried one, else the observed event extent ((0, 0) for
        // an empty trace — BTF's convention).
        let observed = (self.t_min <= self.t_max).then_some((self.t_min, self.t_max));
        let (lo, hi) = self.declared.or(observed).unwrap_or((0.0, 0.0));
        self.w.flush()?;
        self.w.seek(SeekFrom::Start(MAGIC.len() as u64))?;
        self.w.write_all(&lo.to_le_bytes())?;
        self.w.write_all(&hi.to_le_bytes())?;
        self.w.flush()?;
        Ok(())
    }

    /// Flush pending chunks, write the index and trailer, patch the header
    /// range, and return the inner writer. Surfaces any I/O error deferred
    /// by the infallible `EventSink` methods.
    pub fn finish(mut self) -> Result<W> {
        self.try_finish()?;
        Ok(self.w)
    }
}

impl<W: Write + Seek> EventSink for ColumnarWriter<W> {
    fn begin(&mut self, header: &StreamHeader) -> bool {
        self.began = true;
        self.declared = header.range;
        let mut head = Vec::with_capacity(4096);
        head.extend_from_slice(MAGIC);
        put_header_block(
            &mut head,
            header.range.unwrap_or((0.0, 0.0)),
            &header.metadata,
            &header.hierarchy,
            &header.states,
        );
        if let Err(e) = self.write_all(&head) {
            self.err = Some(e);
            return false;
        }
        true
    }

    fn interval(&mut self, resource: LeafId, state: StateId, begin: f64, end: f64) {
        if self.err.is_some() {
            return;
        }
        self.t_min = self.t_min.min(begin);
        self.t_max = self.t_max.max(end);
        self.iv.push((resource.0, state.0, begin, end));
        if self.iv.len() >= self.chunk_records {
            if let Err(e) = self.flush_intervals() {
                self.err = Some(e);
            }
        }
    }

    fn point(&mut self, ev: &PointEvent) {
        if self.err.is_some() {
            return;
        }
        self.t_min = self.t_min.min(ev.time);
        self.t_max = self.t_max.max(ev.time);
        let (kind, peer) = match ev.kind {
            PointKind::Marker => (0u8, 0u32),
            PointKind::MsgSend { peer } => (1, peer.0),
            PointKind::MsgRecv { peer } => (2, peer.0),
        };
        self.pt.push((ev.resource.0, ev.time, kind, peer));
        if self.pt.len() >= self.chunk_records {
            if let Err(e) = self.flush_points() {
                self.err = Some(e);
            }
        }
    }
}

fn put_chunk_entry(buf: &mut Vec<u8>, info: &ChunkInfo, with_offset: bool) {
    buf.push(info.tag);
    buf.extend_from_slice(&info.n_records.to_le_bytes());
    buf.extend_from_slice(&info.t_min.to_le_bytes());
    buf.extend_from_slice(&info.t_max.to_le_bytes());
    buf.push(info.kind_mask);
    buf.extend_from_slice(&info.resource_mask.to_le_bytes());
    buf.extend_from_slice(&info.checksum.to_le_bytes());
    buf.extend_from_slice(&info.payload_len.to_le_bytes());
    if with_offset {
        buf.extend_from_slice(&info.offset.to_le_bytes());
    }
}

fn read_chunk_entry<R: Read>(r: &mut R, with_offset: bool) -> Result<ChunkInfo> {
    let want = if with_offset {
        FOOTER_ENTRY_BYTES
    } else {
        CHUNK_HEADER_BYTES
    } as usize;
    let b = read_exact_buf(r, want)?;
    let tag = byte_at(&b, 0)?;
    if tag != TAG_INTERVALS && tag != TAG_POINTS {
        return Err(FormatError::parse(format!("bad chunk tag {tag}"), None));
    }
    Ok(ChunkInfo {
        tag,
        n_records: le_u64(&b, 1)?,
        t_min: le_f64(&b, 9)?,
        t_max: le_f64(&b, 17)?,
        kind_mask: byte_at(&b, 25)?,
        resource_mask: le_u64(&b, 26)?,
        checksum: le_u64(&b, 34)?,
        payload_len: le_u64(&b, 42)?,
        offset: if with_offset { le_u64(&b, 50)? } else { 0 },
    })
}

/// Write a materialized trace as OCTF with the default chunk size.
pub fn write_columnar<W: Write + Seek>(trace: &Trace, w: W) -> Result<()> {
    write_columnar_chunked(trace, w, DEFAULT_CHUNK_RECORDS)
}

/// [`write_columnar`] with an explicit records-per-chunk target.
pub fn write_columnar_chunked<W: Write + Seek>(
    trace: &Trace,
    w: W,
    chunk_records: usize,
) -> Result<()> {
    let header = StreamHeader {
        hierarchy: trace.hierarchy.clone(),
        states: trace.states.clone(),
        metadata: trace.metadata.clone(),
        range: trace.time_range(),
    };
    let mut cw = ColumnarWriter::with_chunk_records(w, chunk_records);
    if cw.begin(&header) {
        for iv in &trace.intervals {
            cw.interval(iv.resource, iv.state, iv.begin, iv.end);
        }
        for p in &trace.points {
            cw.point(p);
        }
        cw.end();
    }
    cw.finish()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn read_magic<R: Read>(r: &mut R) -> Result<()> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(FormatError::UnsupportedVersion(
            String::from_utf8_lossy(&magic).into_owned(),
        ));
    }
    Ok(())
}

/// Verify a payload against its stored checksum.
fn verify_chunk(payload: &[u8], info: &ChunkInfo, index: u64) -> Result<()> {
    if fnv1a(FNV_SEED, payload) != info.checksum {
        return Err(chunk_corrupt(index));
    }
    Ok(())
}

/// Decode one chunk payload into `sink`, with the same record validation
/// as the BTF decoder (the checksum must already have been verified).
fn decode_payload<S: EventSink>(
    info: &ChunkInfo,
    payload: &[u8],
    n_leaves: usize,
    n_states: usize,
    sink: &mut S,
) -> Result<()> {
    let n = usize::try_from(info.n_records)
        .map_err(|_| FormatError::parse("chunk record count overflows", None))?;
    // Every record spends ≥ 1 byte per column (4 columns in both chunk
    // kinds), so an inconsistent count cannot force huge allocations.
    if (payload.len() as u64) < info.n_records.saturating_mul(4) {
        return Err(FormatError::parse(
            "chunk record count exceeds its payload",
            None,
        ));
    }
    let mut pos = 0usize;
    match info.tag {
        TAG_INTERVALS => {
            let mut begins = Vec::with_capacity(n);
            let mut prev = 0u64;
            for _ in 0..n {
                prev ^= read_varint(payload, &mut pos)?;
                begins.push(f64::from_bits(prev));
            }
            let mut ends = Vec::with_capacity(n);
            for &b in &begins {
                let bits = b.to_bits() ^ read_varint(payload, &mut pos)?;
                ends.push(f64::from_bits(bits));
            }
            let mut resources = Vec::with_capacity(n);
            let mut prev = 0i64;
            for _ in 0..n {
                prev += unzigzag(read_varint(payload, &mut pos)?);
                if prev < 0 || prev as usize >= n_leaves {
                    return Err(FormatError::parse("invalid interval record", None));
                }
                resources.push(prev as u32);
            }
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                let s = read_varint(payload, &mut pos)?;
                if s as usize >= n_states {
                    return Err(FormatError::parse("invalid interval record", None));
                }
                states.push(s as u16);
            }
            if pos != payload.len() {
                return Err(FormatError::parse("trailing bytes in chunk payload", None));
            }
            let rows = begins.iter().zip(&ends).zip(resources.iter().zip(&states));
            for ((&begin, &end), (&res, &st)) in rows {
                if !begin.is_finite() || !end.is_finite() || end < begin {
                    return Err(FormatError::parse("invalid interval record", None));
                }
                sink.interval(LeafId(res), StateId(st), begin, end);
            }
        }
        TAG_POINTS => {
            let mut times = Vec::with_capacity(n);
            let mut prev = 0u64;
            for _ in 0..n {
                prev ^= read_varint(payload, &mut pos)?;
                let t = f64::from_bits(prev);
                if !t.is_finite() {
                    return Err(FormatError::parse("invalid point record", None));
                }
                times.push(t);
            }
            let mut resources = Vec::with_capacity(n);
            let mut prev = 0i64;
            for _ in 0..n {
                prev += unzigzag(read_varint(payload, &mut pos)?);
                if prev < 0 || prev as usize >= n_leaves {
                    return Err(FormatError::parse("invalid point record", None));
                }
                resources.push(prev as u32);
            }
            let kinds = payload
                .get(pos..pos + n)
                .ok_or_else(|| FormatError::parse("truncated kind column", None))?;
            pos += n;
            let mut peers = Vec::with_capacity(n);
            for _ in 0..n {
                let p = read_varint(payload, &mut pos)?;
                let p = u32::try_from(p)
                    .map_err(|_| FormatError::parse("invalid point record", None))?;
                peers.push(p);
            }
            if pos != payload.len() {
                return Err(FormatError::parse("trailing bytes in chunk payload", None));
            }
            let rows = kinds.iter().zip(&peers).zip(resources.iter().zip(&times));
            for ((&kind, &peer), (&res, &time)) in rows {
                let kind = match kind {
                    0 => PointKind::Marker,
                    1 => PointKind::MsgSend { peer: LeafId(peer) },
                    2 => PointKind::MsgRecv { peer: LeafId(peer) },
                    k => return Err(FormatError::parse(format!("bad point kind {k}"), None)),
                };
                sink.point(&PointEvent {
                    resource: LeafId(res),
                    time,
                    kind,
                });
            }
        }
        t => return Err(FormatError::parse(format!("bad chunk tag {t}"), None)),
    }
    Ok(())
}

/// Decode an OCTF stream forward, driving `sink` through the
/// [`EventSink`] protocol — the sequential path `read_trace` and
/// gzip-framed ingestion use. Chunk checksums are verified; the footer is
/// left unread (callers that fingerprint drain to EOF anyway).
///
/// Returns `Ok(true)` when the stream was fully decoded, `Ok(false)` when
/// the sink declined at `begin`.
pub fn decode_columnar<R: BufRead, S: EventSink>(mut r: R, sink: &mut S) -> Result<bool> {
    read_magic(&mut r)?;
    let header = read_header_block(&mut r)?;
    let n_leaves = header.hierarchy.n_leaves();
    let n_states = header.states.len();
    if !sink.begin(&header) {
        return Ok(false);
    }
    let mut index = 0u64;
    loop {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        if tag[0] == TAG_END {
            break;
        }
        // Re-assemble the entry so the shared parser validates the tag.
        let mut entry = vec![tag[0]];
        entry.extend_from_slice(&read_exact_buf(&mut r, CHUNK_HEADER_BYTES as usize - 1)?);
        let info = read_chunk_entry(&mut entry.as_slice(), false)?;
        if info.payload_len > (1 << 31) {
            return Err(FormatError::parse("unreasonable chunk payload size", None));
        }
        let payload = read_exact_buf(&mut r, info.payload_len as usize)?;
        verify_chunk(&payload, &info, index)?;
        decode_payload(&info, &payload, n_leaves, n_states, sink)?;
        index += 1;
    }
    sink.end();
    Ok(true)
}

/// Parse the header and the footer chunk index of an OCTF file without
/// reading any chunk bytes — the planning half of predicate pushdown.
pub fn plan_columnar(path: &Path) -> Result<ColumnarPlan> {
    let f = File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut br = BufReader::with_capacity(1 << 20, f);
    if file_len < MAGIC.len() as u64 + 16 + TRAILER_BYTES {
        return Err(FormatError::parse("truncated columnar file", None));
    }
    // Trailer: locate the footer.
    br.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
    let trailer = read_exact_buf(&mut br, TRAILER_BYTES as usize)?;
    if &trailer[8..12] != END_MAGIC {
        return Err(FormatError::parse(
            "missing columnar trailer (truncated or not an .octf file)",
            None,
        ));
    }
    let footer_offset = le_u64(&trailer, 0)?;
    if footer_offset + TRAILER_BYTES > file_len {
        return Err(FormatError::parse("footer offset out of bounds", None));
    }
    // Header.
    br.seek(SeekFrom::Start(0))?;
    let mut cr = CountingReader {
        inner: &mut br,
        count: 0,
    };
    read_magic(&mut cr)?;
    let header = read_header_block(&mut cr)?;
    let header_bytes = cr.count;
    // Footer.
    br.seek(SeekFrom::Start(footer_offset))?;
    let mut magic = [0u8; 4];
    br.read_exact(&mut magic)?;
    if &magic != FOOTER_MAGIC {
        return Err(FormatError::parse("missing chunk index footer", None));
    }
    let mut count = [0u8; 8];
    br.read_exact(&mut count)?;
    let n_chunks = u64::from_le_bytes(count);
    if n_chunks.saturating_mul(FOOTER_ENTRY_BYTES) > file_len {
        return Err(FormatError::parse("chunk index larger than the file", None));
    }
    let mut chunks = Vec::with_capacity(n_chunks as usize);
    let mut min_offset = header_bytes;
    for i in 0..n_chunks {
        let c = read_chunk_entry(&mut br, true)?;
        let end = c
            .offset
            .checked_add(CHUNK_HEADER_BYTES + c.payload_len)
            .filter(|&e| c.offset >= min_offset && e < footer_offset);
        let Some(end) = end else {
            return Err(FormatError::parse(
                format!("chunk {i} index entry out of bounds"),
                None,
            ));
        };
        if c.n_records == 0 {
            return Err(FormatError::parse(
                format!("chunk {i} declares no records"),
                None,
            ));
        }
        min_offset = end;
        chunks.push(c);
    }
    Ok(ColumnarPlan {
        header,
        header_bytes,
        chunks,
        footer_offset,
        file_len,
    })
}

/// Seek to one indexed chunk, verify its checksum and decode it into
/// `sink` — the unit of work of pushdown and sharded OCTF ingestion.
/// `chunk_index` is the chunk's position in the index (for error
/// reporting).
pub fn decode_chunk_file<S: EventSink>(
    f: &mut File,
    info: &ChunkInfo,
    chunk_index: u64,
    n_leaves: usize,
    n_states: usize,
    sink: &mut S,
) -> Result<()> {
    f.seek(SeekFrom::Start(info.offset + CHUNK_HEADER_BYTES))?;
    let mut payload = vec![0u8; info.payload_len as usize];
    f.read_exact(&mut payload)?;
    verify_chunk(&payload, info, chunk_index)?;
    decode_payload(info, &payload, n_leaves, n_states, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelotl_trace::{Hierarchy, LeafId, TraceBuilder, TraceSink};

    fn sample(n: u32) -> Trace {
        let mut tb = TraceBuilder::new(Hierarchy::flat(4, "p"));
        let a = tb.state("A");
        let b = tb.state("B");
        tb.push_meta("case", "octf");
        for i in 0..n {
            let leaf = LeafId(i % 4);
            let begin = i as f64 * 0.31;
            tb.push_state(leaf, if i % 2 == 0 { a } else { b }, begin, begin + 1.2);
            tb.push_point(PointEvent {
                resource: leaf,
                time: begin + 0.1,
                kind: match i % 3 {
                    0 => PointKind::Marker,
                    1 => PointKind::MsgSend {
                        peer: LeafId((i + 1) % 4),
                    },
                    _ => PointKind::MsgRecv {
                        peer: LeafId((i + 2) % 4),
                    },
                },
            });
        }
        tb.build()
    }

    fn encode(t: &Trace, chunk_records: usize) -> Vec<u8> {
        let cur = std::io::Cursor::new(Vec::new());
        let mut cw = ColumnarWriter::with_chunk_records(cur, chunk_records);
        let header = StreamHeader {
            hierarchy: t.hierarchy.clone(),
            states: t.states.clone(),
            metadata: t.metadata.clone(),
            range: t.time_range(),
        };
        assert!(cw.begin(&header));
        for iv in &t.intervals {
            cw.interval(iv.resource, iv.state, iv.begin, iv.end);
        }
        for p in &t.points {
            cw.point(p);
        }
        cw.end();
        cw.finish().unwrap().into_inner()
    }

    fn decode_to_trace(bytes: &[u8]) -> Trace {
        let mut sink = TraceSink::new();
        assert!(decode_columnar(bytes, &mut sink).unwrap());
        sink.into_trace().unwrap()
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample(37);
        for chunk in [1, 7, 64, 4096] {
            let bytes = encode(&t, chunk);
            let t2 = decode_to_trace(&bytes);
            assert_eq!(t2.intervals, t.intervals, "chunk={chunk}");
            assert_eq!(t2.points, t.points, "chunk={chunk}");
            assert_eq!(t2.meta("case"), Some("octf"), "chunk={chunk}");
            assert_eq!(t2.time_range(), t.time_range(), "chunk={chunk}");
        }
    }

    #[test]
    fn plan_matches_written_index() {
        let t = sample(40);
        let bytes = encode(&t, 16);
        let p = std::env::temp_dir().join(format!("octf-plan-{}.octf", std::process::id()));
        std::fs::write(&p, &bytes).unwrap();
        let plan = plan_columnar(&p).unwrap();
        // 40 intervals in chunks of 16 → 3 chunks; same for points.
        assert_eq!(plan.chunks.len(), 6);
        assert_eq!(plan.records(), (40, 40));
        assert_eq!(plan.header.range, t.time_range());
        let extent = plan.time_extent().unwrap();
        assert_eq!(Some(extent), t.time_range());
        // Index-combined fingerprint is stable and nonzero.
        let f1 = plan.fingerprint(&p).unwrap();
        let f2 = plan.fingerprint(&p).unwrap();
        assert_eq!(f1, f2);
        // Point chunks carry kind masks, interval chunks do not.
        for c in &plan.chunks {
            if c.is_points() {
                assert_ne!(c.kind_mask, 0);
            } else {
                assert_eq!(c.kind_mask, 0);
            }
            assert_ne!(c.resource_mask, 0);
            assert!(c.t_min <= c.t_max);
        }
        // Encoded payload is smaller than fixed records for this trace.
        assert!(plan.total_payload() < plan.raw_equivalent_bytes());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn chunks_decode_independently_via_planner() {
        let t = sample(32);
        let bytes = encode(&t, 8);
        let p = std::env::temp_dir().join(format!("octf-chunks-{}.octf", std::process::id()));
        std::fs::write(&p, &bytes).unwrap();
        let plan = plan_columnar(&p).unwrap();
        let mut f = File::open(&p).unwrap();
        let mut sink = TraceSink::new();
        assert!(sink.begin(&plan.header));
        for (i, c) in plan.chunks.iter().enumerate() {
            decode_chunk_file(
                &mut f,
                c,
                i as u64,
                plan.header.hierarchy.n_leaves(),
                plan.header.states.len(),
                &mut sink,
            )
            .unwrap();
        }
        let t2 = sink.into_trace().unwrap();
        assert_eq!(t2.intervals, t.intervals);
        assert_eq!(t2.points, t.points);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn corrupt_chunk_fails_typed_and_others_survive() {
        let t = sample(32);
        let mut bytes = encode(&t, 8);
        let p = std::env::temp_dir().join(format!("octf-corrupt-{}.octf", std::process::id()));
        std::fs::write(&p, &bytes).unwrap();
        let plan = plan_columnar(&p).unwrap();
        // Flip a byte in the middle of chunk 2's payload.
        let victim = 2usize;
        let off = (plan.chunks[victim].offset + CHUNK_HEADER_BYTES + 3) as usize;
        bytes[off] ^= 0x55;
        std::fs::write(&p, &bytes).unwrap();
        let plan = plan_columnar(&p).unwrap();
        let mut f = File::open(&p).unwrap();
        let n_leaves = plan.header.hierarchy.n_leaves();
        let n_states = plan.header.states.len();
        for (i, c) in plan.chunks.iter().enumerate() {
            let mut sink = TraceSink::new();
            assert!(sink.begin(&plan.header));
            let r = decode_chunk_file(&mut f, c, i as u64, n_leaves, n_states, &mut sink);
            if i == victim {
                match r.unwrap_err() {
                    FormatError::ChunkCorrupt { chunk, .. } => assert_eq!(chunk, victim as u64),
                    e => panic!("expected ChunkCorrupt, got {e}"),
                }
            } else {
                r.unwrap();
            }
        }
        // The forward decoder reports the same typed error.
        let mut sink = TraceSink::new();
        match decode_columnar(bytes.as_slice(), &mut sink).unwrap_err() {
            FormatError::ChunkCorrupt { chunk, .. } => assert_eq!(chunk, victim as u64),
            e => panic!("expected ChunkCorrupt, got {e}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        let t = sample(10);
        let bytes = encode(&t, 4);
        let p = std::env::temp_dir().join(format!("octf-trunc-{}.octf", std::process::id()));
        for cut in [3, 20, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&p, &bytes[..cut]).unwrap();
            assert!(plan_columnar(&p).is_err(), "plan must fail at cut {cut}");
        }
        // The forward decoder stops at the end-of-chunks sentinel and never
        // needs the footer, so only cuts inside the chunk region fail it.
        for cut in [3, 20, bytes.len() / 2] {
            let mut sink = TraceSink::new();
            assert!(
                decode_columnar(&bytes[..cut], &mut sink).is_err(),
                "decode must fail at cut {cut}"
            );
        }
        std::fs::write(&p, b"OTF2 definitely not columnar").unwrap();
        assert!(plan_columnar(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_trace_roundtrips_with_zero_chunks() {
        let t = TraceBuilder::new(Hierarchy::flat(2, "p")).build();
        let bytes = encode(&t, 8);
        let t2 = decode_to_trace(&bytes);
        assert!(t2.intervals.is_empty() && t2.points.is_empty());
        let p = std::env::temp_dir().join(format!("octf-empty-{}.octf", std::process::id()));
        std::fs::write(&p, &bytes).unwrap();
        let plan = plan_columnar(&p).unwrap();
        assert!(plan.chunks.is_empty());
        assert_eq!(plan.time_extent(), None);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn batch_writer_equals_sink_driven_writer() {
        let t = sample(25);
        let sink_driven = encode(&t, 8);
        let mut via_batch = std::io::Cursor::new(Vec::<u8>::new());
        write_columnar_chunked(&t, &mut via_batch, 8).unwrap();
        assert_eq!(via_batch.into_inner(), sink_driven);
    }

    #[test]
    fn overlap_test_is_closed() {
        let c = ChunkInfo {
            tag: TAG_INTERVALS,
            n_records: 1,
            t_min: 1.0,
            t_max: 2.0,
            kind_mask: 0,
            resource_mask: 1,
            checksum: 0,
            offset: 0,
            payload_len: 4,
        };
        assert!(c.overlaps(2.0, 3.0), "touching at t_max counts");
        assert!(c.overlaps(0.0, 1.0), "touching at t_min counts");
        assert!(!c.overlaps(2.5, 3.0));
        assert!(!c.overlaps(0.0, 0.5));
    }
}
