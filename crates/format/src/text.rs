//! PTF — a Paje-inspired plain-text trace format.
//!
//! Line-oriented, self-describing, diff-friendly. Layout:
//!
//! ```text
//! %PTF 1
//! %range <t_min> <t_max>
//! %meta <key> <value…>
//! %node <id> <parent-id|-> <kind> <name>     (pre-order; ids are dense)
//! %state <id> <name>
//! S <resource> <state> <begin> <end>          (state interval)
//! P <resource> <time> M                       (marker point event)
//! P <resource> <time> S <peer>                (message send)
//! P <resource> <time> R <peer>                (message recv)
//! ```
//!
//! Node records must appear in pre-order (parents before children), which is
//! exactly how the writer emits them; leaf numbering is then reproduced by
//! the `HierarchyBuilder`'s DFS renumbering, so resource indices round-trip.

use crate::error::{FormatError, Result};
use ocelotl_trace::{
    EventSink, Hierarchy, HierarchyBuilder, LeafId, NodeId, PointEvent, PointKind, StateId,
    StateRegistry, StreamHeader, Trace, TraceSink,
};
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &str = "%PTF 1";

/// Write a trace in PTF text format.
pub fn write_text<W: Write>(trace: &Trace, mut w: W) -> Result<()> {
    writeln!(w, "{MAGIC}")?;
    if let Some((lo, hi)) = trace.time_range() {
        writeln!(w, "%range {lo} {hi}")?;
    }
    for (k, v) in &trace.metadata {
        writeln!(w, "%meta {k} {v}")?;
    }
    write_hierarchy(&trace.hierarchy, &mut w)?;
    for (id, name) in trace.states.iter() {
        writeln!(w, "%state {} {}", id.index(), name)?;
    }
    for iv in &trace.intervals {
        writeln!(
            w,
            "S {} {} {} {}",
            iv.resource.0,
            iv.state.index(),
            iv.begin,
            iv.end
        )?;
    }
    for p in &trace.points {
        match p.kind {
            PointKind::Marker => writeln!(w, "P {} {} M", p.resource.0, p.time)?,
            PointKind::MsgSend { peer } => {
                writeln!(w, "P {} {} S {}", p.resource.0, p.time, peer.0)?
            }
            PointKind::MsgRecv { peer } => {
                writeln!(w, "P {} {} R {}", p.resource.0, p.time, peer.0)?
            }
        }
    }
    Ok(())
}

fn write_hierarchy<W: Write>(h: &Hierarchy, w: &mut W) -> Result<()> {
    for id in h.node_ids() {
        match h.parent(id) {
            None => writeln!(w, "%node {} - {} {}", id.0, h.kind(id), h.name(id))?,
            Some(p) => writeln!(w, "%node {} {} {} {}", id.0, p.0, h.kind(id), h.name(id))?,
        }
    }
    Ok(())
}

/// Incremental PTF header parser backing [`decode_text`].
struct TextParser {
    hierarchy_builder: Option<HierarchyBuilder>,
    node_map: Vec<NodeId>,
    states: StateRegistry,
    state_map: Vec<StateId>,
    metadata: Vec<(String, String)>,
    range: Option<(f64, f64)>,
    line_no: u64,
}

impl TextParser {
    fn new() -> Self {
        Self {
            hierarchy_builder: None,
            node_map: Vec::new(),
            states: StateRegistry::new(),
            state_map: Vec::new(),
            metadata: Vec::new(),
            range: None,
            line_no: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> FormatError {
        FormatError::parse(msg, Some(self.line_no))
    }

    /// Handle one header/metadata line; returns false if the line is an
    /// event record (to be handled by the caller).
    fn header_line(&mut self, line: &str) -> Result<bool> {
        if let Some(rest) = line.strip_prefix("%range ") {
            let mut it = rest.split_ascii_whitespace();
            let lo = self.parse_f64(it.next())?;
            let hi = self.parse_f64(it.next())?;
            self.range = Some((lo, hi));
            return Ok(true);
        }
        if let Some(rest) = line.strip_prefix("%meta ") {
            let mut it = rest.splitn(2, ' ');
            let k = it.next().unwrap_or_default().to_string();
            let v = it.next().unwrap_or_default().to_string();
            self.metadata.push((k, v));
            return Ok(true);
        }
        if let Some(rest) = line.strip_prefix("%node ") {
            self.node_line(rest)?;
            return Ok(true);
        }
        if let Some(rest) = line.strip_prefix("%state ") {
            let mut it = rest.splitn(2, ' ');
            let id: usize = self.parse_usize(it.next())?;
            let name = it.next().ok_or_else(|| self.err("missing state name"))?;
            if self.states.len() >= (1 << 16) && self.states.get(name).is_none() {
                return Err(self.err("state count exceeds the u16 id space"));
            }
            let sid = self.states.intern(name);
            if self.state_map.len() != id {
                return Err(self.err(format!(
                    "state ids must be dense and in order (got {id}, expected {})",
                    self.state_map.len()
                )));
            }
            self.state_map.push(sid);
            return Ok(true);
        }
        if line.starts_with('%') {
            // Unknown directive: tolerated for forward compatibility.
            return Ok(true);
        }
        Ok(false)
    }

    fn node_line(&mut self, rest: &str) -> Result<()> {
        let mut it = rest.splitn(4, ' ');
        let id = self.parse_usize(it.next())?;
        let parent = it.next().ok_or_else(|| self.err("missing parent"))?;
        let kind = it
            .next()
            .ok_or_else(|| self.err("missing node kind"))?
            .to_string();
        let name = it
            .next()
            .ok_or_else(|| self.err("missing node name"))?
            .to_string();
        if parent == "-" {
            if self.hierarchy_builder.is_some() {
                return Err(self.err("multiple root nodes"));
            }
            if id != 0 {
                return Err(self.err("root node must have id 0"));
            }
            let b = HierarchyBuilder::new(&name, &kind);
            self.node_map.push(b.root());
            self.hierarchy_builder = Some(b);
        } else {
            let pid: usize = parent
                .parse()
                .map_err(|_| self.err(format!("bad parent id {parent:?}")))?;
            let b = self
                .hierarchy_builder
                .as_mut()
                .ok_or_else(|| FormatError::parse("node before root", None))?;
            let pnode = *self
                .node_map
                .get(pid)
                .ok_or_else(|| FormatError::parse("parent id out of order", None))?;
            if id != self.node_map.len() {
                return Err(FormatError::parse(
                    format!("node ids must be dense pre-order (got {id})"),
                    None,
                ));
            }
            let nid = b.add_child(pnode, &name, &kind);
            self.node_map.push(nid);
        }
        Ok(())
    }

    fn parse_usize(&self, tok: Option<&str>) -> Result<usize> {
        parse_usize(tok, self.line_no)
    }

    fn parse_f64(&self, tok: Option<&str>) -> Result<f64> {
        parse_f64(tok, self.line_no)
    }

    fn finish_hierarchy(&mut self) -> Result<Hierarchy> {
        let b = self
            .hierarchy_builder
            .take()
            .ok_or_else(|| FormatError::parse("trace has no hierarchy", None))?;
        b.build()
            .map_err(|e| FormatError::parse(format!("invalid hierarchy: {e}"), None))
    }
}

fn perr(msg: impl Into<String>, line_no: u64) -> FormatError {
    FormatError::parse(msg, Some(line_no))
}

fn parse_usize(tok: Option<&str>, line_no: u64) -> Result<usize> {
    tok.ok_or_else(|| perr("missing integer field", line_no))?
        .parse()
        .map_err(|_| perr("bad integer field", line_no))
}

fn parse_u32(tok: Option<&str>, line_no: u64) -> Result<u32> {
    tok.ok_or_else(|| perr("missing integer field", line_no))?
        .parse()
        .map_err(|_| perr("bad integer field", line_no))
}

fn parse_f64(tok: Option<&str>, line_no: u64) -> Result<f64> {
    let v: f64 = tok
        .ok_or_else(|| perr("missing float field", line_no))?
        .parse()
        .map_err(|_| perr("bad float field", line_no))?;
    // `"NaN"`/`"inf"` parse successfully but poison every downstream
    // comparison (a NaN interval passes `end < begin` yet violates the
    // builder's `end >= begin` contract).
    if !v.is_finite() {
        return Err(perr("non-finite float field", line_no));
    }
    Ok(v)
}

fn parse_state_interval(
    rest: &str,
    state_map: &[StateId],
    line_no: u64,
) -> Result<(LeafId, StateId, f64, f64)> {
    let mut it = rest.split_ascii_whitespace();
    let resource = LeafId(parse_u32(it.next(), line_no)?);
    let sidx = parse_usize(it.next(), line_no)?;
    let state = *state_map
        .get(sidx)
        .ok_or_else(|| perr(format!("unknown state id {sidx}"), line_no))?;
    let begin = parse_f64(it.next(), line_no)?;
    let end = parse_f64(it.next(), line_no)?;
    if end < begin {
        return Err(perr("negative interval", line_no));
    }
    Ok((resource, state, begin, end))
}

fn parse_point(rest: &str, line_no: u64) -> Result<PointEvent> {
    let mut it = rest.split_ascii_whitespace();
    let resource = LeafId(parse_u32(it.next(), line_no)?);
    let time = parse_f64(it.next(), line_no)?;
    let kind = match it.next() {
        Some("M") => PointKind::Marker,
        Some("S") => PointKind::MsgSend {
            peer: LeafId(parse_u32(it.next(), line_no)?),
        },
        Some("R") => PointKind::MsgRecv {
            peer: LeafId(parse_u32(it.next(), line_no)?),
        },
        other => return Err(perr(format!("bad point kind {other:?}"), line_no)),
    };
    Ok(PointEvent {
        resource,
        time,
        kind,
    })
}

/// Handle one post-freeze line: event records, tolerated unknown `%`
/// directives, and the rejection of late declarations. Shared between the
/// sequential decoder and the shard-range decoder so both run exactly the
/// same validation.
fn apply_event_line<S: EventSink>(
    l: &str,
    state_map: &[StateId],
    n_leaves: usize,
    line_no: u64,
    sink: &mut S,
) -> Result<()> {
    if l.starts_with('%') {
        if ["%range ", "%meta ", "%node ", "%state "]
            .iter()
            .any(|d| l.starts_with(d))
        {
            return Err(perr("declarations must precede event records", line_no));
        }
        return Ok(()); // unknown directive: tolerated
    }
    if let Some(rest) = l.strip_prefix("S ") {
        let (resource, state, begin, end) = parse_state_interval(rest, state_map, line_no)?;
        if resource.index() >= n_leaves {
            return Err(perr(
                format!("resource {} out of range", resource.0),
                line_no,
            ));
        }
        sink.interval(resource, state, begin, end);
    } else if let Some(rest) = l.strip_prefix("P ") {
        let ev = parse_point(rest, line_no)?;
        if ev.resource.index() >= n_leaves {
            return Err(perr(
                format!("resource {} out of range", ev.resource.0),
                line_no,
            ));
        }
        sink.point(&ev);
    } else {
        return Err(perr(format!("unknown record {l:?}"), line_no));
    }
    Ok(())
}

/// Frozen PTF declaration section, produced by [`plan_text`]: the parsed
/// [`StreamHeader`], the file-local state id map event records index into,
/// and the byte offset at which the event section begins. Shard workers
/// decode disjoint, newline-aligned byte ranges of the event section
/// against this shared context via [`decode_text_range`].
pub(crate) struct TextPlan {
    pub(crate) header: StreamHeader,
    pub(crate) state_map: Vec<StateId>,
    /// Bytes from the start of the stream up to (excluding) the first
    /// event line — equivalently, the offset where shard ranges start.
    pub(crate) header_bytes: u64,
    /// False for an eventless stream (`header_bytes` then spans the file).
    pub(crate) has_events: bool,
}

impl TextPlan {
    /// Cut the event section of the `file_len`-byte file at `path` into
    /// `s` byte ranges at newline-aligned offsets near equal fractions.
    pub(crate) fn split(&self, path: &Path, file_len: u64, s: u64) -> Result<Vec<(u64, u64)>> {
        let start = self.header_bytes.min(file_len);
        let body = file_len - start;
        let mut f = File::open(path)?;
        let mut lo = start;
        let mut ranges = Vec::new();
        for k in 1..=s {
            let at = start + body * k / s;
            let hi = if k < s {
                align_to_line(&mut f, at, file_len)?.clamp(lo, file_len)
            } else {
                file_len
            };
            ranges.push((lo, hi));
            lo = hi;
        }
        Ok(ranges)
    }
}

/// Smallest offset `>= pos` that starts a line (scanning forward for the
/// newline that ends the line containing `pos`), capped at `file_len`.
pub(crate) fn align_to_line(f: &mut File, pos: u64, file_len: u64) -> Result<u64> {
    // Look one byte back: if it is a newline, `pos` already starts a line.
    let start = pos.saturating_sub(1);
    f.seek(SeekFrom::Start(start))?;
    let skipped = BufReader::new(f).skip_until(b'\n')?;
    Ok((start + skipped as u64).min(file_len))
}

/// Parse the PTF declaration section, counting consumed bytes, stopping at
/// the first event line. The reader is left mid-stream; callers re-open at
/// `header_bytes` to reach the event section.
pub(crate) fn plan_text<R: BufRead>(mut r: R) -> Result<TextPlan> {
    let mut first = String::new();
    let mut bytes = r.read_line(&mut first)? as u64;
    if first.trim_end() != MAGIC {
        return Err(FormatError::UnsupportedVersion(
            first.trim_end().to_string(),
        ));
    }
    let mut p = TextParser::new();
    p.line_no = 1;
    let mut line = String::new();
    loop {
        line.clear();
        let n = r.read_line(&mut line)? as u64;
        if n == 0 {
            // Eventless stream: the declarations span the whole file.
            let hierarchy = p.finish_hierarchy()?;
            return Ok(TextPlan {
                header: StreamHeader {
                    hierarchy,
                    states: p.states,
                    metadata: p.metadata,
                    range: p.range,
                },
                state_map: p.state_map,
                header_bytes: bytes,
                has_events: false,
            });
        }
        p.line_no += 1;
        let l = line.trim_end();
        if !l.is_empty() && !p.header_line(l)? {
            // First event record: the declaration section ends here.
            let hierarchy = p.finish_hierarchy()?;
            return Ok(TextPlan {
                header: StreamHeader {
                    hierarchy,
                    states: std::mem::take(&mut p.states),
                    metadata: std::mem::take(&mut p.metadata),
                    range: p.range,
                },
                state_map: p.state_map,
                header_bytes: bytes,
                has_events: true,
            });
        }
        bytes += n;
    }
}

/// Decode `limit` bytes of PTF event records from `r` (positioned at a
/// newline-aligned offset inside the event section), running the same
/// per-record validation as [`decode_text`]'s event phase. The caller has
/// already driven `sink.begin` with the planned header. Error line numbers
/// are relative to the range start.
pub(crate) fn decode_text_range<R: BufRead, S: EventSink>(
    mut r: R,
    limit: u64,
    plan: &TextPlan,
    sink: &mut S,
) -> Result<()> {
    let n_leaves = plan.header.hierarchy.n_leaves();
    let mut remaining = limit;
    let mut line = String::new();
    let mut line_no = 0u64;
    while remaining > 0 {
        line.clear();
        let n = r.read_line(&mut line)? as u64;
        if n == 0 {
            break;
        }
        remaining = remaining.saturating_sub(n);
        line_no += 1;
        let l = line.trim_end();
        if l.is_empty() {
            continue;
        }
        apply_event_line(l, &plan.state_map, n_leaves, line_no, sink)?;
    }
    Ok(())
}

fn check_magic<R: BufRead>(r: &mut R) -> Result<()> {
    let mut first = String::new();
    r.read_line(&mut first)?;
    if first.trim_end() != MAGIC {
        return Err(FormatError::UnsupportedVersion(
            first.trim_end().to_string(),
        ));
    }
    Ok(())
}

/// Decode a PTF stream, driving `sink` through the [`EventSink`] protocol.
///
/// Declarations (`%range`, `%meta`, `%node`, `%state`) must precede the
/// first event record — the writer emits them that way, and the freeze
/// point is what lets consumers allocate before the (unbounded) event
/// section streams through. Unknown `%` directives are tolerated anywhere
/// for forward compatibility. Records are validated (resources and states
/// in range, finite times, non-negative intervals) before the sink sees
/// them.
///
/// Returns `Ok(true)` when the stream was fully decoded, `Ok(false)` when
/// the sink declined the stream at `begin` (a clean early exit after the
/// header — see [`ModelSink`](ocelotl_trace::ModelSink)'s two-pass
/// protocol).
pub fn decode_text<R: BufRead, S: EventSink>(mut r: R, sink: &mut S) -> Result<bool> {
    check_magic(&mut r)?;
    let mut p = TextParser::new();
    p.line_no = 1;

    let mut n_leaves: Option<usize> = None;
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        p.line_no += 1;
        let l = line.trim_end();
        if l.is_empty() {
            continue;
        }
        let leaves = match n_leaves {
            None => {
                // Declaration phase.
                if p.header_line(l)? {
                    continue;
                }
                // First event record: freeze the header and hand it over.
                let hierarchy = p.finish_hierarchy()?;
                let leaves = hierarchy.n_leaves();
                let header = StreamHeader {
                    hierarchy,
                    states: std::mem::take(&mut p.states),
                    metadata: std::mem::take(&mut p.metadata),
                    range: p.range,
                };
                if !sink.begin(&header) {
                    return Ok(false);
                }
                n_leaves = Some(leaves);
                leaves
            }
            Some(leaves) => leaves,
        };
        apply_event_line(l, &p.state_map, leaves, p.line_no, sink)?;
    }

    if n_leaves.is_none() {
        // Eventless stream: freeze at EOF so the sink still sees the header.
        let hierarchy = p.finish_hierarchy()?;
        let header = StreamHeader {
            hierarchy,
            states: p.states,
            metadata: p.metadata,
            range: p.range,
        };
        if !sink.begin(&header) {
            return Ok(false);
        }
    }
    sink.end();
    Ok(true)
}

/// Read a full PTF trace into memory (the materializing path — analysis
/// pipelines should stream through [`decode_text`] instead).
pub fn read_text<R: BufRead>(r: R) -> Result<Trace> {
    let mut sink = TraceSink::new();
    decode_text(r, &mut sink)?;
    sink.into_trace()
        .ok_or_else(|| FormatError::parse("trace has no hierarchy", None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelotl_trace::{Hierarchy, MicroModel, ModelKind, ModelSink, TraceBuilder};

    fn sample_trace() -> Trace {
        let mut b = HierarchyBuilder::new("site", "site");
        let c0 = b.add_child(b.root(), "c0", "cluster");
        let c1 = b.add_child(b.root(), "c1", "cluster");
        b.add_child(c0, "m0", "machine");
        b.add_child(c0, "m1", "machine");
        b.add_child(c1, "m2", "machine");
        let h = b.build().unwrap();
        let mut tb = TraceBuilder::new(h);
        let run = tb.state("Running");
        let wait = tb.state("MPI_Wait");
        tb.push_meta("app", "unit test");
        tb.push_state(LeafId(0), run, 0.0, 1.5);
        tb.push_state(LeafId(1), wait, 0.25, 2.0);
        tb.push_state(LeafId(2), run, 1.0, 3.0);
        tb.push_point(PointEvent {
            resource: LeafId(0),
            time: 0.5,
            kind: PointKind::MsgSend { peer: LeafId(2) },
        });
        tb.push_point(PointEvent {
            resource: LeafId(2),
            time: 0.75,
            kind: PointKind::MsgRecv { peer: LeafId(0) },
        });
        tb.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let t2 = read_text(buf.as_slice()).unwrap();
        assert_eq!(t2.hierarchy.n_leaves(), 3);
        assert_eq!(t2.hierarchy.len(), t.hierarchy.len());
        assert_eq!(t2.states.len(), 2);
        assert_eq!(t2.intervals, t.intervals);
        assert_eq!(t2.points, t.points);
        assert_eq!(t2.meta("app"), Some("unit test"));
        assert_eq!(t2.time_range(), t.time_range());
        // Node names/paths survive.
        for id in t.hierarchy.node_ids() {
            assert_eq!(t.hierarchy.path(id), t2.hierarchy.path(id));
            assert_eq!(t.hierarchy.kind(id), t2.hierarchy.kind(id));
        }
    }

    #[test]
    fn float_precision_roundtrips_exactly() {
        let h = Hierarchy::flat(1, "p");
        let mut tb = TraceBuilder::new(h);
        let s = tb.state("x");
        let begin = 0.1 + 0.2; // 0.30000000000000004
        let end = std::f64::consts::PI * 1e9;
        tb.push_state(LeafId(0), s, begin, end);
        let t = tb.build();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let t2 = read_text(buf.as_slice()).unwrap();
        assert_eq!(t2.intervals[0].begin, begin);
        assert_eq!(t2.intervals[0].end, end);
    }

    #[test]
    fn bad_magic_rejected() {
        let e = read_text("%OTF 2\n".as_bytes()).unwrap_err();
        assert!(matches!(e, FormatError::UnsupportedVersion(_)));
    }

    #[test]
    fn unknown_record_rejected_with_line_number() {
        let src = "%PTF 1\n%node 0 - root r\nGARBAGE\n";
        let e = read_text(src.as_bytes()).unwrap_err();
        match e {
            FormatError::Parse { position, .. } => assert_eq!(position, Some(3)),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn out_of_range_resource_rejected() {
        let src = "%PTF 1\n%node 0 - root r\n%state 0 s\nS 7 0 0.0 1.0\n";
        assert!(read_text(src.as_bytes()).is_err());
    }

    #[test]
    fn unknown_state_rejected() {
        let src = "%PTF 1\n%node 0 - root r\n%state 0 s\nS 0 3 0.0 1.0\n";
        assert!(read_text(src.as_bytes()).is_err());
    }

    #[test]
    fn unknown_directives_tolerated() {
        let src = "%PTF 1\n%flavor vanilla\n%node 0 - root r\n%state 0 s\nS 0 0 0.0 1.0\n";
        let t = read_text(src.as_bytes()).unwrap();
        assert_eq!(t.intervals.len(), 1);
    }

    #[test]
    fn streaming_micro_matches_batch_bitwise() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let mut sink = ModelSink::new(ModelKind::States, 6);
        assert!(decode_text(buf.as_slice(), &mut sink).unwrap());
        let streamed = sink.finish().unwrap();
        let batch = MicroModel::from_trace(&t, 6).unwrap();
        assert_eq!(streamed.n_slices(), 6);
        for s in 0..3u32 {
            for x in 0..2u16 {
                for t in 0..6 {
                    let a = streamed.duration(LeafId(s), StateId(x), t);
                    let b = batch.duration(LeafId(s), StateId(x), t);
                    assert_eq!(a.to_bits(), b.to_bits(), "cell ({s},{x},{t}): {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn streaming_without_range_stops_cleanly_at_the_header() {
        let src = "%PTF 1\n%node 0 - root r\n%state 0 s\nS 0 0 0.0 1.0\n";
        let mut sink = ModelSink::new(ModelKind::States, 4);
        assert!(!decode_text(src.as_bytes(), &mut sink).unwrap());
        assert!(sink.needs_range(), "missing %range must request two-pass");
    }

    #[test]
    fn declarations_after_events_are_rejected() {
        let src = "%PTF 1\n%node 0 - root r\n%state 0 s\nS 0 0 0.0 1.0\n%state 1 late\n";
        let err = read_text(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("precede"), "{err}");
        // Unknown directives stay tolerated after events.
        let src = "%PTF 1\n%node 0 - root r\n%state 0 s\nS 0 0 0.0 1.0\n%flavor x\n";
        assert!(read_text(src.as_bytes()).is_ok());
    }

    #[test]
    fn planned_range_decode_matches_sequential_bitwise() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();

        let plan = plan_text(buf.as_slice()).unwrap();
        assert!(plan.has_events);
        let body = &buf[plan.header_bytes as usize..];
        assert!(body.starts_with(b"S ") || body.starts_with(b"P "));

        // Decode the event section in two newline-aligned pieces and check
        // the merged model against the sequential decoder, bit for bit.
        let cut = body
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap();
        let mut seq = ModelSink::new(ModelKind::States, 6);
        assert!(decode_text(buf.as_slice(), &mut seq).unwrap());
        let seq = seq.finish().unwrap();

        let mut merged: Option<ocelotl_trace::PartialModel> = None;
        for (lo, hi) in [(0usize, cut), (cut, body.len())] {
            let mut sink = ModelSink::new(ModelKind::States, 6);
            assert!(sink.begin(&plan.header));
            decode_text_range(&body[lo..hi], (hi - lo) as u64, &plan, &mut sink).unwrap();
            sink.end();
            let part = sink.finish_partial().unwrap();
            match merged.as_mut() {
                None => merged = Some(part),
                Some(m) => m.absorb(part),
            }
        }
        let sharded = merged.unwrap().into_model(false);
        for s in 0..3u32 {
            for x in 0..2u16 {
                for t in 0..6 {
                    let a = sharded.duration(LeafId(s), StateId(x), t);
                    let b = seq.duration(LeafId(s), StateId(x), t);
                    assert_eq!(a.to_bits(), b.to_bits(), "cell ({s},{x},{t})");
                }
            }
        }
    }

    #[test]
    fn plan_text_handles_eventless_streams() {
        let t = TraceBuilder::new(Hierarchy::flat(2, "p")).build();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let plan = plan_text(buf.as_slice()).unwrap();
        assert!(!plan.has_events);
        assert_eq!(plan.header_bytes, buf.len() as u64);
        assert_eq!(plan.header.hierarchy.n_leaves(), 2);
    }

    #[test]
    fn empty_trace_roundtrip() {
        let t = TraceBuilder::new(Hierarchy::flat(2, "p")).build();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let t2 = read_text(buf.as_slice()).unwrap();
        assert_eq!(t2.intervals.len(), 0);
        assert_eq!(t2.hierarchy.n_leaves(), 2);
    }
}
