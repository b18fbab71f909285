//! BTF — a compact little-endian binary trace format.
//!
//! Fixed 22-byte interval records make multi-hundred-million-event traces
//! (Table II reaches 218 M events / 8.3 GB with Score-P) practical to write
//! and re-read quickly. Layout:
//!
//! ```text
//! magic   "BTF1"
//! range   f64 t_min, f64 t_max
//! u32 n_meta   { str key, str value }*
//! u32 n_nodes  { u32 parent+1 (0 = root), str kind, str name }*   (pre-order)
//! u32 n_states { str name }*
//! u64 n_intervals { u32 resource, u16 state, f64 begin, f64 end }*
//! u64 n_points    { u32 resource, f64 time, u8 kind, u32 peer }*
//! ```
//!
//! Strings are `u32` length-prefixed UTF-8. All integers little-endian.

use crate::error::{FormatError, Result};
use bytes::BufMut;
use ocelotl_trace::{
    EventSink, Hierarchy, HierarchyBuilder, LeafId, PointEvent, PointKind, StateId, StateRegistry,
    StreamHeader, Trace, TraceSink,
};
use std::io::{BufRead, Read, Seek, SeekFrom, Write};

const MAGIC: &[u8; 4] = b"BTF1";
/// Size of one interval record in bytes.
pub const INTERVAL_RECORD_BYTES: usize = 4 + 2 + 8 + 8;

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Serialize the header block BTF and OCTF share after their magics:
/// time range, metadata pairs, pre-order hierarchy, declared states.
pub(crate) fn put_header_block(
    head: &mut Vec<u8>,
    range: (f64, f64),
    metadata: &[(String, String)],
    hierarchy: &Hierarchy,
    states: &StateRegistry,
) {
    head.put_f64_le(range.0);
    head.put_f64_le(range.1);

    head.put_u32_le(metadata.len() as u32);
    for (k, v) in metadata {
        put_str(head, k);
        put_str(head, v);
    }

    head.put_u32_le(hierarchy.len() as u32);
    for id in hierarchy.node_ids() {
        head.put_u32_le(hierarchy.parent(id).map(|p| p.0 + 1).unwrap_or(0));
        put_str(head, hierarchy.kind(id));
        put_str(head, hierarchy.name(id));
    }

    head.put_u32_le(states.len() as u32);
    for (_, name) in states.iter() {
        put_str(head, name);
    }
}

/// Write a trace in BTF binary format.
pub fn write_binary<W: Write>(trace: &Trace, mut w: W) -> Result<()> {
    // Header block is assembled in memory (small), records stream out.
    let mut head = Vec::with_capacity(4096);
    head.put_slice(MAGIC);
    put_header_block(
        &mut head,
        trace.time_range().unwrap_or((0.0, 0.0)),
        &trace.metadata,
        &trace.hierarchy,
        &trace.states,
    );
    w.write_all(&head)?;

    let mut rec = [0u8; INTERVAL_RECORD_BYTES];
    w.write_all(&(trace.intervals.len() as u64).to_le_bytes())?;
    for iv in &trace.intervals {
        rec[0..4].copy_from_slice(&iv.resource.0.to_le_bytes());
        rec[4..6].copy_from_slice(&iv.state.0.to_le_bytes());
        rec[6..14].copy_from_slice(&iv.begin.to_le_bytes());
        rec[14..22].copy_from_slice(&iv.end.to_le_bytes());
        w.write_all(&rec)?;
    }

    w.write_all(&(trace.points.len() as u64).to_le_bytes())?;
    for p in &trace.points {
        let (kind, peer) = match p.kind {
            PointKind::Marker => (0u8, 0u32),
            PointKind::MsgSend { peer } => (1, peer.0),
            PointKind::MsgRecv { peer } => (2, peer.0),
        };
        w.write_all(&p.resource.0.to_le_bytes())?;
        w.write_all(&p.time.to_le_bytes())?;
        w.write_all(&[kind])?;
        w.write_all(&peer.to_le_bytes())?;
    }
    Ok(())
}

/// Parsed BTF header: everything before the interval records.
struct Header {
    header: StreamHeader,
    n_intervals: u64,
}

pub(crate) fn read_exact_buf<R: Read>(r: &mut R, n: usize) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Fallible fixed-width field read: `N` little-endian bytes at `at`.
/// Decoders use these instead of slice indexing + `try_into().unwrap()`,
/// so a short or corrupt record surfaces as a typed parse error — the
/// whole decode surface stays panic-free by construction.
#[inline]
fn le_bytes<const N: usize>(b: &[u8], at: usize) -> Result<[u8; N]> {
    b.get(at..at + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or_else(|| FormatError::parse("truncated record field", None))
}

#[inline]
pub(crate) fn le_u16(b: &[u8], at: usize) -> Result<u16> {
    Ok(u16::from_le_bytes(le_bytes(b, at)?))
}

#[inline]
pub(crate) fn le_u32(b: &[u8], at: usize) -> Result<u32> {
    Ok(u32::from_le_bytes(le_bytes(b, at)?))
}

#[inline]
pub(crate) fn le_u64(b: &[u8], at: usize) -> Result<u64> {
    Ok(u64::from_le_bytes(le_bytes(b, at)?))
}

#[inline]
pub(crate) fn le_f64(b: &[u8], at: usize) -> Result<f64> {
    Ok(f64::from_le_bytes(le_bytes(b, at)?))
}

#[inline]
pub(crate) fn byte_at(b: &[u8], at: usize) -> Result<u8> {
    b.get(at)
        .copied()
        .ok_or_else(|| FormatError::parse("truncated record field", None))
}

/// Parse the header block BTF and OCTF share after their magics (the
/// counterpart of [`put_header_block`]), with full structural validation.
pub(crate) fn read_header_block<R: Read>(r: &mut R) -> Result<StreamHeader> {
    let mut fixed = [0u8; 16];
    r.read_exact(&mut fixed)?;
    let lo = le_f64(&fixed, 0)?;
    let hi = le_f64(&fixed, 8)?;

    let mut count = [0u8; 4];

    if !(lo.is_finite() && hi.is_finite()) {
        return Err(FormatError::parse("non-finite time range", None));
    }

    r.read_exact(&mut count)?;
    let n_meta = u32::from_le_bytes(count);
    // Counts are attacker-controlled until proven consistent with the byte
    // stream: cap the *pre*-allocation and let read failures cut off lies.
    let mut metadata = Vec::with_capacity((n_meta as usize).min(1024));
    for _ in 0..n_meta {
        let k = read_len_str(r)?;
        let v = read_len_str(r)?;
        metadata.push((k, v));
    }

    r.read_exact(&mut count)?;
    let n_nodes = u32::from_le_bytes(count);
    if n_nodes == 0 {
        return Err(FormatError::parse("trace has no hierarchy", None));
    }
    let mut builder: Option<HierarchyBuilder> = None;
    let mut node_map = Vec::with_capacity((n_nodes as usize).min(1 << 16));
    for i in 0..n_nodes {
        r.read_exact(&mut count)?;
        let parent = u32::from_le_bytes(count);
        let kind = read_len_str(r)?;
        let name = read_len_str(r)?;
        if parent == 0 {
            if builder.is_some() || i != 0 {
                return Err(FormatError::parse("multiple or misplaced roots", None));
            }
            let b = HierarchyBuilder::new(&name, &kind);
            node_map.push(b.root());
            builder = Some(b);
        } else {
            let b = builder
                .as_mut()
                .ok_or_else(|| FormatError::parse("node before root", None))?;
            let pid = (parent - 1) as usize;
            let pnode = *node_map
                .get(pid)
                .ok_or_else(|| FormatError::parse("parent id out of order", None))?;
            node_map.push(b.add_child(pnode, &name, &kind));
        }
    }
    let hierarchy = builder
        .ok_or_else(|| FormatError::parse("trace has no hierarchy root", None))?
        .build()
        .map_err(|e| FormatError::parse(format!("invalid hierarchy: {e}"), None))?;

    r.read_exact(&mut count)?;
    let n_states = u32::from_le_bytes(count);
    if n_states > 1 << 16 {
        return Err(FormatError::parse(
            "state count exceeds the u16 id space",
            None,
        ));
    }
    let mut states = StateRegistry::new();
    for _ in 0..n_states {
        let name = read_len_str(r)?;
        states.intern(&name);
    }
    if states.len() != n_states as usize {
        return Err(FormatError::parse("duplicate state names", None));
    }

    Ok(StreamHeader {
        hierarchy,
        states,
        metadata,
        range: Some((lo, hi)),
    })
}

fn read_header<R: Read>(r: &mut R) -> Result<Header> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(FormatError::UnsupportedVersion(
            String::from_utf8_lossy(&magic).into_owned(),
        ));
    }
    let header = read_header_block(r)?;
    let mut n_iv = [0u8; 8];
    r.read_exact(&mut n_iv)?;
    Ok(Header {
        header,
        n_intervals: u64::from_le_bytes(n_iv),
    })
}

pub(crate) fn read_len_str<R: Read>(r: &mut R) -> Result<String> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > (1 << 24) {
        return Err(FormatError::parse("unreasonable string length", None));
    }
    let bytes = read_exact_buf(r, len)?;
    String::from_utf8(bytes).map_err(|_| FormatError::parse("string is not UTF-8", None))
}

#[inline]
fn decode_interval(rec: &[u8]) -> Result<(u32, u16, f64, f64)> {
    Ok((
        le_u32(rec, 0)?,
        le_u16(rec, 4)?,
        le_f64(rec, 6)?,
        le_f64(rec, 14)?,
    ))
}

/// Size of one point record in bytes.
pub(crate) const POINT_RECORD_BYTES: usize = 4 + 8 + 1 + 4;

/// Read and validate one interval record — the single validation path for
/// both the sequential decoder and shard-range decoding.
#[inline]
fn read_interval_record<R: Read>(
    r: &mut R,
    n_leaves: usize,
    n_states: usize,
) -> Result<(LeafId, StateId, f64, f64)> {
    let mut rec = [0u8; INTERVAL_RECORD_BYTES];
    r.read_exact(&mut rec)?;
    let (res, st, begin, end) = decode_interval(&rec)?;
    if res as usize >= n_leaves
        || st as usize >= n_states
        || !begin.is_finite()
        || !end.is_finite()
        || end < begin
    {
        return Err(FormatError::parse("invalid interval record", None));
    }
    Ok((LeafId(res), StateId(st), begin, end))
}

/// Read and validate one point record.
#[inline]
fn read_point_record<R: Read>(r: &mut R, n_leaves: usize) -> Result<PointEvent> {
    let mut prec = [0u8; POINT_RECORD_BYTES];
    r.read_exact(&mut prec)?;
    let res = le_u32(&prec, 0)?;
    let time = le_f64(&prec, 4)?;
    let kind = byte_at(&prec, 12)?;
    let peer = le_u32(&prec, 13)?;
    let kind = match kind {
        0 => PointKind::Marker,
        1 => PointKind::MsgSend { peer: LeafId(peer) },
        2 => PointKind::MsgRecv { peer: LeafId(peer) },
        k => return Err(FormatError::parse(format!("bad point kind {k}"), None)),
    };
    if res as usize >= n_leaves || !time.is_finite() {
        return Err(FormatError::parse("invalid point record", None));
    }
    Ok(PointEvent {
        resource: LeafId(res),
        time,
        kind,
    })
}

/// Counts bytes the caller actually requests from the inner reader (place
/// it *above* any `BufReader` so read-ahead is not counted).
pub(crate) struct CountingReader<R> {
    pub(crate) inner: R,
    pub(crate) count: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count += n as u64;
        Ok(n)
    }
}

/// Parsed BTF layout for shard planning: the frozen [`StreamHeader`] plus
/// byte offsets of the fixed-record regions, so workers can seek straight
/// to disjoint record ranges.
pub(crate) struct BinaryPlan {
    pub(crate) header: StreamHeader,
    pub(crate) n_intervals: u64,
    pub(crate) n_points: u64,
    /// Offset of the first interval record (= exact header size).
    pub(crate) intervals_start: u64,
    /// Offset of the first point record (past the u64 point count).
    pub(crate) points_start: u64,
}

impl BinaryPlan {
    /// `true` when either record region holds a record.
    pub(crate) fn has_records(&self) -> bool {
        (self.n_intervals, self.n_points) != (0, 0)
    }

    /// Bytes of both record regions; an error when the record counts
    /// cannot fit in a `file_len`-byte file.
    pub(crate) fn body_bytes(&self, file_len: u64) -> Result<u64> {
        let iv = self.n_intervals.checked_mul(INTERVAL_RECORD_BYTES as u64);
        let pt = self.n_points.checked_mul(POINT_RECORD_BYTES as u64);
        let body = iv.zip(pt).and_then(|(iv, pt)| iv.checked_add(pt));
        let fits = body.filter(|&body| body <= file_len);
        fits.ok_or_else(|| FormatError::parse("record counts exceed the file size", None))
    }

    /// `(offset, count)` of shard `k` of `s` in the interval region and in
    /// the point region: both are cut at equal record fractions. Requires
    /// [`BinaryPlan::body_bytes`] to have accepted the counts.
    pub(crate) fn shard(&self, k: u64, s: u64) -> [(u64, u64); 2] {
        let cut = |n: u64, at: u64, width: usize| {
            let first = n * k / s;
            (at + first * width as u64, n * (k + 1) / s - first)
        };
        [
            cut(
                self.n_intervals,
                self.intervals_start,
                INTERVAL_RECORD_BYTES,
            ),
            cut(self.n_points, self.points_start, POINT_RECORD_BYTES),
        ]
    }
}

/// Parse the BTF header and locate both record regions. The reader is left
/// positioned at the first point record.
pub(crate) fn plan_binary<R: BufRead + Seek>(mut r: R) -> Result<BinaryPlan> {
    let mut cr = CountingReader {
        inner: &mut r,
        count: 0,
    };
    let header = read_header(&mut cr)?;
    let intervals_start = cr.count;
    let intervals_end = intervals_start + header.n_intervals * INTERVAL_RECORD_BYTES as u64;
    r.seek(SeekFrom::Start(intervals_end))?;
    let mut n_pts = [0u8; 8];
    r.read_exact(&mut n_pts)?;
    Ok(BinaryPlan {
        n_intervals: header.n_intervals,
        n_points: u64::from_le_bytes(n_pts),
        intervals_start,
        points_start: intervals_end + 8,
        header: header.header,
    })
}

/// Decode `count` interval records from the reader's current position,
/// with the same validation as [`decode_binary`].
pub(crate) fn decode_interval_range<R: Read, S: EventSink>(
    r: &mut R,
    count: u64,
    n_leaves: usize,
    n_states: usize,
    sink: &mut S,
) -> Result<()> {
    for _ in 0..count {
        let (res, st, begin, end) = read_interval_record(r, n_leaves, n_states)?;
        sink.interval(res, st, begin, end);
    }
    Ok(())
}

/// Decode `count` point records from the reader's current position, with
/// the same validation as [`decode_binary`].
pub(crate) fn decode_point_range<R: Read, S: EventSink>(
    r: &mut R,
    count: u64,
    n_leaves: usize,
    sink: &mut S,
) -> Result<()> {
    for _ in 0..count {
        let ev = read_point_record(r, n_leaves)?;
        sink.point(&ev);
    }
    Ok(())
}

/// Incremental BTF writer for traces too large to hold in memory
/// (the `--full` Table II scale: hundreds of millions of events).
///
/// The header is written upfront with placeholder range/counts, interval
/// records stream through a buffered writer, and `finish` seeks back to
/// patch the real values. Point events may be appended at the end.
pub struct BtfStreamWriter<W: Write + Seek> {
    w: W,
    range_offset: u64,
    count_offset: u64,
    n_intervals: u64,
    t_min: f64,
    t_max: f64,
    n_leaves: u32,
    n_states: u16,
    finished: bool,
}

impl BtfStreamWriter<std::io::BufWriter<std::fs::File>> {
    /// Create a stream writer over a new file.
    pub fn create(
        path: &std::path::Path,
        hierarchy: &Hierarchy,
        states: &StateRegistry,
        metadata: &[(String, String)],
    ) -> Result<Self> {
        let f = std::fs::File::create(path)?;
        Self::new(
            std::io::BufWriter::with_capacity(1 << 20, f),
            hierarchy,
            states,
            metadata,
        )
    }
}

impl<W: Write + Seek> BtfStreamWriter<W> {
    /// Start a stream over any seekable writer.
    pub fn new(
        mut w: W,
        hierarchy: &Hierarchy,
        states: &StateRegistry,
        metadata: &[(String, String)],
    ) -> Result<Self> {
        let mut head = Vec::with_capacity(4096);
        head.put_slice(MAGIC);
        let range_offset = head.len() as u64;
        head.put_f64_le(0.0); // patched in finish()
        head.put_f64_le(0.0);

        head.put_u32_le(metadata.len() as u32);
        for (k, v) in metadata {
            put_str(&mut head, k);
            put_str(&mut head, v);
        }
        head.put_u32_le(hierarchy.len() as u32);
        for id in hierarchy.node_ids() {
            head.put_u32_le(hierarchy.parent(id).map(|p| p.0 + 1).unwrap_or(0));
            put_str(&mut head, hierarchy.kind(id));
            put_str(&mut head, hierarchy.name(id));
        }
        head.put_u32_le(states.len() as u32);
        for (_, name) in states.iter() {
            put_str(&mut head, name);
        }
        let count_offset = head.len() as u64;
        head.put_u64_le(0); // n_intervals, patched in finish()
        w.write_all(&head)?;
        Ok(Self {
            w,
            range_offset,
            count_offset,
            n_intervals: 0,
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
            n_leaves: hierarchy.n_leaves() as u32,
            n_states: states.len() as u16,
            finished: false,
        })
    }

    /// Append one state interval.
    pub fn write_interval(
        &mut self,
        resource: LeafId,
        state: StateId,
        begin: f64,
        end: f64,
    ) -> Result<()> {
        debug_assert!(resource.0 < self.n_leaves && state.0 < self.n_states && end >= begin);
        let mut rec = [0u8; INTERVAL_RECORD_BYTES];
        rec[0..4].copy_from_slice(&resource.0.to_le_bytes());
        rec[4..6].copy_from_slice(&state.0.to_le_bytes());
        rec[6..14].copy_from_slice(&begin.to_le_bytes());
        rec[14..22].copy_from_slice(&end.to_le_bytes());
        self.w.write_all(&rec)?;
        self.n_intervals += 1;
        self.t_min = self.t_min.min(begin);
        self.t_max = self.t_max.max(end);
        Ok(())
    }

    /// Write the point-event section, patch the header, and flush.
    /// Returns the number of intervals written.
    pub fn finish(mut self, points: &[PointEvent]) -> Result<u64> {
        self.w.write_all(&(points.len() as u64).to_le_bytes())?;
        for p in points {
            let (kind, peer) = match p.kind {
                PointKind::Marker => (0u8, 0u32),
                PointKind::MsgSend { peer } => (1, peer.0),
                PointKind::MsgRecv { peer } => (2, peer.0),
            };
            self.w.write_all(&p.resource.0.to_le_bytes())?;
            self.w.write_all(&p.time.to_le_bytes())?;
            self.w.write_all(&[kind])?;
            self.w.write_all(&peer.to_le_bytes())?;
            self.t_min = self.t_min.min(p.time);
            self.t_max = self.t_max.max(p.time);
        }
        // Patch range + interval count.
        let (lo, hi) = if self.n_intervals == 0 && points.is_empty() {
            (0.0, 0.0)
        } else {
            (self.t_min, self.t_max)
        };
        self.w.seek(SeekFrom::Start(self.range_offset))?;
        self.w.write_all(&lo.to_le_bytes())?;
        self.w.write_all(&hi.to_le_bytes())?;
        self.w.seek(SeekFrom::Start(self.count_offset))?;
        self.w.write_all(&self.n_intervals.to_le_bytes())?;
        self.w.flush()?;
        self.finished = true;
        Ok(self.n_intervals)
    }
}

/// Decode a BTF stream, driving `sink` through the [`EventSink`] protocol.
/// The header always declares the time range, so single-pass streaming
/// model construction needs no scan pass for this format.
///
/// Returns `Ok(true)` when the stream was fully decoded, `Ok(false)` when
/// the sink declined the stream at `begin`. Records are validated before
/// the sink sees them.
pub fn decode_binary<R: BufRead, S: EventSink>(mut r: R, sink: &mut S) -> Result<bool> {
    let header = read_header(&mut r)?;
    let n_intervals = header.n_intervals;
    let stream_header = header.header;
    let n_leaves = stream_header.hierarchy.n_leaves();
    let n_states = stream_header.states.len();
    if !sink.begin(&stream_header) {
        return Ok(false);
    }

    decode_interval_range(&mut r, n_intervals, n_leaves, n_states, sink)?;

    let mut n_pts = [0u8; 8];
    r.read_exact(&mut n_pts)?;
    let n_pts = u64::from_le_bytes(n_pts);
    decode_point_range(&mut r, n_pts, n_leaves, sink)?;
    sink.end();
    Ok(true)
}

/// Read a full BTF trace into memory (the materializing path — analysis
/// pipelines should stream through [`decode_binary`] instead).
pub fn read_binary<R: BufRead>(r: R) -> Result<Trace> {
    let mut sink = TraceSink::new();
    decode_binary(r, &mut sink)?;
    sink.into_trace()
        .ok_or_else(|| FormatError::parse("trace has no hierarchy", None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelotl_trace::{Hierarchy, MicroModel, TraceBuilder};

    fn sample_trace() -> Trace {
        let mut b = HierarchyBuilder::new("site", "site");
        let c0 = b.add_child(b.root(), "c0", "cluster");
        b.add_child(c0, "m0", "machine");
        b.add_child(c0, "m1", "machine");
        let h = b.build().unwrap();
        let mut tb = TraceBuilder::new(h);
        let run = tb.state("Running");
        let wait = tb.state("MPI_Wait");
        tb.push_meta("case", "B");
        tb.push_state(LeafId(0), run, 0.0, 1.5);
        tb.push_state(LeafId(1), wait, 0.25, 2.0);
        tb.push_point(PointEvent {
            resource: LeafId(1),
            time: 0.5,
            kind: PointKind::MsgRecv { peer: LeafId(0) },
        });
        tb.build()
    }

    #[test]
    fn stream_writer_matches_batch_writer() {
        let t = sample_trace();
        // Batch encoding.
        let mut batch = Vec::new();
        write_binary(&t, &mut batch).unwrap();
        // Streamed encoding through a cursor.
        let cur = std::io::Cursor::new(Vec::new());
        let mut sw = BtfStreamWriter::new(cur, &t.hierarchy, &t.states, &t.metadata).unwrap();
        for iv in &t.intervals {
            sw.write_interval(iv.resource, iv.state, iv.begin, iv.end)
                .unwrap();
        }
        let n = {
            let points = t.points.clone();
            // finish consumes the writer; recover the buffer via a scope.
            // (Cursor is returned through the writer's inner access below.)
            sw.finish(&points).unwrap()
        };
        assert_eq!(n as usize, t.intervals.len());
        // Can't easily extract the cursor after finish (moved); re-stream to
        // a temp file instead and read it back.
        let path = std::env::temp_dir().join(format!("btf-stream-{}.btf", std::process::id()));
        let mut sw = BtfStreamWriter::create(&path, &t.hierarchy, &t.states, &t.metadata).unwrap();
        for iv in &t.intervals {
            sw.write_interval(iv.resource, iv.state, iv.begin, iv.end)
                .unwrap();
        }
        sw.finish(&t.points).unwrap();
        let back =
            read_binary(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        assert_eq!(back.intervals, t.intervals);
        assert_eq!(back.points, t.points);
        assert_eq!(back.time_range(), t.time_range());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_writer_empty_trace() {
        let h = Hierarchy::flat(2, "p");
        let states = ocelotl_trace::StateRegistry::from_names(["s"]);
        let path = std::env::temp_dir().join(format!("btf-empty-{}.btf", std::process::id()));
        let sw = BtfStreamWriter::create(&path, &h, &states, &[]).unwrap();
        sw.finish(&[]).unwrap();
        let back =
            read_binary(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        assert!(back.intervals.is_empty());
        assert_eq!(back.hierarchy.n_leaves(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let t2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(t2.intervals, t.intervals);
        assert_eq!(t2.points, t.points);
        assert_eq!(t2.meta("case"), Some("B"));
        assert_eq!(t2.hierarchy.len(), t.hierarchy.len());
        for id in t.hierarchy.node_ids() {
            assert_eq!(t.hierarchy.path(id), t2.hierarchy.path(id));
        }
        assert_eq!(t2.time_range(), t.time_range());
    }

    #[test]
    fn record_size_is_fixed() {
        // Scaling estimates in the bench harness rely on this.
        assert_eq!(INTERVAL_RECORD_BYTES, 22);
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let mut buf2 = Vec::new();
        let mut t2 = t.clone();
        t2.intervals.push(t.intervals[0]);
        write_binary(&t2, &mut buf2).unwrap();
        assert_eq!(buf2.len() - buf.len(), INTERVAL_RECORD_BYTES);
    }

    #[test]
    fn bad_magic_rejected() {
        let e = read_binary(&b"OTF2xxxxxxxxxxxxxxxxxxxx"[..]).unwrap_err();
        assert!(matches!(e, FormatError::UnsupportedVersion(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        for cut in [5, 20, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_binary(&buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupt_state_id_rejected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        // Find the first interval record and corrupt its state id: records
        // start right after the header; locate by searching for begin 0.0 /
        // end 1.5 pattern is fragile, so instead corrupt via re-encode.
        let mut t2 = t.clone();
        t2.intervals[0].state = StateId(999);
        let mut buf2 = Vec::new();
        write_binary(&t2, &mut buf2).unwrap();
        assert!(read_binary(buf2.as_slice()).is_err());
    }

    #[test]
    fn streaming_micro_matches_batch_bitwise() {
        use ocelotl_trace::{ModelKind, ModelSink};
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let mut sink = ModelSink::new(ModelKind::States, 5);
        assert!(decode_binary(buf.as_slice(), &mut sink).unwrap());
        let streamed = sink.finish().unwrap();
        let batch = MicroModel::from_trace(&t, 5).unwrap();
        for s in 0..2u32 {
            for x in 0..2u16 {
                for ti in 0..5 {
                    let a = streamed.duration(LeafId(s), StateId(x), ti);
                    let b = batch.duration(LeafId(s), StateId(x), ti);
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_declared_range_declines_streaming() {
        use ocelotl_trace::{ModelKind, ModelSink, ModelSinkError};
        // An empty trace's header declares range (0, 0): nothing to slice.
        let t = TraceBuilder::new(Hierarchy::flat(2, "p")).build();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let mut sink = ModelSink::new(ModelKind::States, 4);
        assert!(!decode_binary(buf.as_slice(), &mut sink).unwrap());
        assert_eq!(sink.finish().unwrap_err(), ModelSinkError::EmptyRange);
    }

    #[test]
    fn text_and_binary_agree() {
        let t = sample_trace();
        let mut tb = Vec::new();
        let mut bb = Vec::new();
        crate::text::write_text(&t, &mut tb).unwrap();
        write_binary(&t, &mut bb).unwrap();
        let t_text = crate::text::read_text(tb.as_slice()).unwrap();
        let t_bin = read_binary(bb.as_slice()).unwrap();
        assert_eq!(t_text.intervals, t_bin.intervals);
        assert_eq!(t_text.points, t_bin.points);
    }

    #[test]
    fn empty_hierarchy_only_trace() {
        let t = TraceBuilder::new(Hierarchy::flat(3, "p")).build();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let t2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(t2.hierarchy.n_leaves(), 3);
        assert!(t2.intervals.is_empty());
    }
}
