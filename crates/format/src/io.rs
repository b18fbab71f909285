//! File-level convenience API: format detection, buffered I/O, and the one
//! ingest driver behind every model read.
//!
//! PTF text, BTF binary, Pajé and OCTF columnar are routed here, plus
//! gzip-compressed variants of each (`.ptf.gz`, `.btf.gz`, …).
//! [`read_trace`] materializes a full [`Trace`] (O(|events|) memory, for
//! conversion and round-trip use); [`read_model`] and its siblings stream
//! the input straight into a metric-aware [`MicroModel`] with O(model)
//! memory.
//!
//! # One ingest driver
//!
//! Every model read — a file or a directory, full, windowed or
//! resource-filtered — is planned into:
//!
//! - an ordered list of **decode units**: a whole stream (gzip, Pajé, a
//!   file too small to split, or one file of a directory), a
//!   newline-aligned PTF byte range, a BTF record range, or a group of
//!   OCTF chunks without the chunks the predicate rules out;
//! - one **grid range**: the predicate window, else the declared header
//!   range, else a scan of the units.
//!
//! One driver runs the scan and decode tasks on one `rayon` pool
//! capped at [`IngestOptions::max_workers`] and merges the units'
//! [`PartialModel`]s in unit order: `absorb` for the parts of one stream,
//! `mount` at its leaf offset for a directory file. A directory is one
//! logical trace: files mount under a super-root in sorted file order,
//! states unite by name, and a predicate's leaf ids are translated to each
//! file's own; every union cell has one contributing file, so the mount is
//! exact. The plan is a pure function of the input content (never of the
//! worker count), so every output bit is the same at any `--threads`.
//!
//! A merge costs what the merged-in part touched, not the grid: each part
//! records the span of slices its records folded into, and `absorb` and
//! `mount` add only that span of each row (a shard that covers the second
//! half of a trace adds the second half). The merged model is not
//! re-scanned, since its cells are finite by construction; what could
//! break that is refused as [`FormatError::Refused`] — a range too wide
//! for an `f64`, a grid over `ocelotl_trace::MODEL_LIMIT_BYTES`, or so
//! many intervals over so wide a range that a cell could overflow (checked
//! per part, and once more on the shards' sum).
//!
//! An ingest does not hash: the content fingerprint is
//! [`crate::store::hash_trace_input`], computed only where a key is used.
//!
//! Format detection sniffs the leading bytes (decompressing gzip heads)
//! and falls back to the file extension (a Pajé file may start with
//! comments); content wins over a contradicting extension. All errors are
//! annotated with the offending path.

use crate::binary::{self, INTERVAL_RECORD_BYTES, POINT_RECORD_BYTES};
use crate::columnar::{self, ColumnarPlan};
use crate::error::{FormatError, Result};
use crate::gzip::{is_gzip, GzipReader};
use crate::paje;
use crate::text;
use ocelotl_trace::{
    hi_res_slices, EventSink, Hierarchy, HierarchyBuilder, LeafId, MicroModel, ModelKind,
    ModelSink, ModelSinkError, NodeId, PartialModel, ScanSink, StateId, StateRegistry,
    StreamHeader, Time, TimeGrid, Trace, TraceSink,
};
use rayon::prelude::*;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// On-disk trace encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `.ptf` — Paje-inspired plain text.
    Text,
    /// `.btf` — compact little-endian binary.
    Binary,
    /// `.paje` / `.trace` — the Pajé subset of the paper's tool family.
    Paje,
    /// `.octf` — chunk-indexed columnar native format with predicate
    /// pushdown (see [`crate::columnar`]).
    Columnar,
}

impl Format {
    /// Choose a format from a file extension (`.ptf` / `.btf` /
    /// `.paje` / `.trace` / `.octf`, each optionally with a trailing
    /// `.gz`).
    pub fn from_path(path: &Path) -> Option<Format> {
        let ext = path.extension().and_then(|e| e.to_str())?;
        if ext.eq_ignore_ascii_case("gz") {
            return Self::from_path(Path::new(path.file_stem()?));
        }
        match ext {
            "ptf" => Some(Format::Text),
            "btf" => Some(Format::Binary),
            "paje" | "trace" => Some(Format::Paje),
            "octf" => Some(Format::Columnar),
            _ => None,
        }
    }

    /// Detect the format from the first bytes of the file.
    pub fn sniff(head: &[u8]) -> Option<Format> {
        if head.starts_with(b"%PTF") {
            Some(Format::Text)
        } else if head.starts_with(b"BTF1") {
            Some(Format::Binary)
        } else if head.starts_with(b"%EventDef") {
            Some(Format::Paje)
        } else if head.starts_with(columnar::MAGIC) {
            Some(Format::Columnar)
        } else {
            None
        }
    }

    /// Human-readable name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Format::Text => "PTF text",
            Format::Binary => "BTF binary",
            Format::Paje => "Pajé",
            Format::Columnar => "OCTF columnar",
        }
    }
}

/// Write a trace to `path`, picking the format from the extension
/// (defaults to binary for unknown extensions).
pub fn write_trace(trace: &Trace, path: &Path) -> Result<()> {
    let fmt = Format::from_path(path).unwrap_or(Format::Binary);
    let mut w = BufWriter::new(File::create(path)?);
    match fmt {
        Format::Text => text::write_text(trace, &mut w)?,
        Format::Binary => binary::write_binary(trace, &mut w)?,
        Format::Paje => paje::write_paje(trace, &mut w)?,
        Format::Columnar => columnar::write_columnar(trace, &mut w)?,
    }
    w.flush()?;
    Ok(())
}

/// What `detect` learned about an input file.
#[derive(Debug, Clone, Copy)]
struct Detected {
    fmt: Format,
    ext: Option<Format>,
    gzip: bool,
}

/// Up to the first 16 bytes `r` yields; when `lenient`, a read error
/// just ends the head early.
fn head<R: Read>(r: R, lenient: bool) -> std::io::Result<Vec<u8>> {
    let mut head = Vec::with_capacity(16);
    match r.take(16).read_to_end(&mut head) {
        Err(e) if !lenient => Err(e),
        _ => Ok(head),
    }
}

/// Sniff the format of `path`: content first (decompressing a gzip head to
/// sniff the inner format), extension as the fallback. Returns the chosen
/// format plus what the extension suggested (for contradiction
/// diagnostics).
fn detect(path: &Path) -> Result<Detected> {
    let raw = head(File::open(path)?, false)?;
    let (gzip, ext) = (is_gzip(&raw), Format::from_path(path));
    // A corrupt gzip stream fails loudly at read time, not here.
    let inner = if gzip {
        head(GzipReader::new(BufReader::new(File::open(path)?)), true)?
    } else {
        raw
    };
    let at = path.display();
    let unknown = || FormatError::parse(format!("unrecognized trace format: {at}"), None);
    let fmt = Format::sniff(&inner).or(ext).ok_or_else(unknown)?;
    Ok(Detected { fmt, ext, gzip })
}

/// Attach the offending path (and, when content and extension disagree,
/// the contradiction) to a reader error.
fn annotate(e: FormatError, path: &Path, chosen: Format, ext: Option<Format>) -> FormatError {
    let at = path.display();
    let why = match ext {
        Some(x) if x != chosen => format!(
            " (content sniffed as {}, contradicting the .{} extension)",
            chosen.name(),
            path.extension()
                .and_then(|e| e.to_str())
                .unwrap_or_default(),
        ),
        _ => String::new(),
    };
    match e {
        // Truncated files surface as UnexpectedEof: keep the variant and
        // kind, but the message must still name the file.
        FormatError::Io(io) => {
            FormatError::Io(std::io::Error::new(io.kind(), format!("{at}: {io}{why}")))
        }
        FormatError::Parse { message, position } => FormatError::Parse {
            message: format!("{at}: {message}{why}"),
            position,
        },
        FormatError::UnsupportedVersion(v) => {
            FormatError::parse(format!("{at}: unsupported format version {v:?}{why}"), None)
        }
        // The columnar decoders have no path; fill it in here so the
        // error names the file alongside the chunk index.
        FormatError::ChunkCorrupt { file, chunk } if file.is_empty() => FormatError::ChunkCorrupt {
            file: at.to_string(),
            chunk,
        },
        named @ (FormatError::ChunkCorrupt { .. } | FormatError::Refused { .. }) => named,
    }
}

/// Drive `sink` with the decoder for `fmt`.
pub fn decode<R: BufRead, S: EventSink>(fmt: Format, r: R, sink: &mut S) -> Result<bool> {
    match fmt {
        Format::Text => text::decode_text(r, sink),
        Format::Binary => binary::decode_binary(r, sink),
        Format::Paje => paje::decode_paje(r, sink),
        Format::Columnar => columnar::decode_columnar(r, sink),
    }
}

/// A 1 MiB-buffered reader over `path` from byte `offset` on.
fn buffered(path: &Path, offset: u64) -> Result<BufReader<File>> {
    let mut f = File::open(path)?;
    if offset > 0 {
        f.seek(SeekFrom::Start(offset))?;
    }
    Ok(BufReader::with_capacity(1 << 20, f))
}

/// A buffered reader over the (decompressed, when gzip) trace bytes.
fn open_plain(path: &Path, gz: bool) -> Result<Box<dyn BufRead>> {
    let raw = buffered(path, 0)?;
    Ok(match gz {
        true => Box::new(BufReader::with_capacity(1 << 20, GzipReader::new(raw))),
        false => Box::new(raw),
    })
}

/// Read a whole trace from `path` (format sniffed from content, extension
/// fallback; all formats — plus gzip variants — dispatch here).
pub fn read_trace(path: &Path) -> Result<Trace> {
    if path.is_dir() {
        return Err(FormatError::parse(
            format!(
                "{}: directory traces are ingested as models (read_model); \
                 materializing a merged Trace is not supported",
                path.display()
            ),
            None,
        ));
    }
    let det = detect(path)?;
    let mut sink = TraceSink::new();
    decode(det.fmt, open_plain(path, det.gzip)?, &mut sink)
        .map_err(|e| annotate(e, path, det.fmt, det.ext))?;
    sink.into_trace()
        .ok_or_else(|| FormatError::parse(format!("{}: empty trace stream", path.display()), None))
}

/// How [`read_model`] ingested the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// The grid range was known up front (the predicate window or the
    /// header's declared range): every unit was read once.
    SinglePass,
    /// No declared range: a scan of the units (extent only) preceded the
    /// fold.
    TwoPass,
    /// A columnar source answered the request from a subset of its chunks,
    /// skipping the rest via the chunk index (predicate pushdown).
    Pushdown,
}

impl IngestMode {
    /// Stable tag for logs and stats output.
    pub fn tag(self) -> &'static str {
        match self {
            IngestMode::SinglePass => "single-pass",
            IngestMode::TwoPass => "two-pass",
            IngestMode::Pushdown => "pushdown",
        }
    }
}

/// How many shards to decode a trace with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Derive the shard count from the trace content alone:
    /// `clamp(ceil(body_bytes / SHARD_TARGET_BYTES), 1, MAX_SHARDS)`.
    /// This keeps the plan — and therefore every output bit — independent
    /// of the machine and the worker budget.
    Auto,
    /// Force a specific shard count (clamped to `1..=MAX_SHARDS`). The
    /// plan is still content-only given the same forced count; tests use
    /// this to exercise merges on small fixtures.
    Fixed(usize),
}

/// Row restriction an ingest should honor. On columnar sources the
/// planner pushes this down to the chunk index and skips whole chunks
/// whose time extent or resource mask cannot match; on every other
/// format it is applied sink-side (same model, no I/O savings). The
/// artifact key never depends on the predicate: a plain `.octf`'s
/// fingerprint folds the stored checksums of every chunk, skipped or not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Predicate {
    /// Restrict the model grid to this time window `[t0, t1]`; also the
    /// chunk-skipping window on columnar sources. Replaces the two-pass
    /// extent scan (the window *is* the grid range).
    pub time_range: Option<(f64, f64)>,
    /// Keep only these leaf resources (events of other leaves are dropped
    /// uncounted). Chunks whose resource presence mask cannot contain any
    /// wanted leaf are skipped on columnar sources.
    pub resources: Option<Vec<u32>>,
}

impl Predicate {
    /// `true` when the predicate restricts anything.
    pub fn is_active(&self) -> bool {
        self.time_range.is_some() || self.resources.is_some()
    }
}

/// Knobs for [`read_model_with`] / [`read_hi_res_with`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Shard planning mode. The plan never depends on `max_workers`.
    pub shards: ShardMode,
    /// Thread cap of the ingest's pool; `0` means "all available cores".
    /// Changing this redistributes work but cannot change a bit of the
    /// output.
    pub max_workers: usize,
    /// Optional row restriction ([`Predicate`]); `None` ingests
    /// everything.
    pub predicate: Option<Predicate>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            shards: ShardMode::Auto,
            max_workers: 0,
            predicate: None,
        }
    }
}

/// Target shard payload under [`ShardMode::Auto`]: one shard per started
/// 32 MiB of event data.
pub const SHARD_TARGET_BYTES: u64 = 32 << 20;
/// Upper bound on the shard count of a single file — part of the content
/// contract: plans (and thus bits) never change when machines grow cores.
pub const MAX_SHARDS: usize = 16;

/// Wall-clock breakdown of the last ingest in this process. **Local
/// measurement only** — never put these in query replies or cached
/// artifacts; deterministic protocols must not carry clocks.
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// Time spent planning (detection, header parses, split points).
    pub plan_nanos: u64,
    /// Always 0: an ingest does not hash. Kept only because perfbench
    /// reads it, until the next change to the benchmark (or with
    /// `LAST_TIMING`, when ingest timing moves to explicit stage spans).
    pub hash_nanos: u64,
    /// Per-unit decode times (a unit's extent scan included), in unit
    /// order.
    pub shard_nanos: Vec<u64>,
    /// Time spent merging the partial models and assembling the result.
    pub merge_nanos: u64,
}

static LAST_TIMING: Mutex<Option<ShardTiming>> = Mutex::new(None);

/// Take (and clear) the timing of the last ingest in this process, if any.
pub fn take_last_ingest_timing() -> Option<ShardTiming> {
    LAST_TIMING
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
}

/// Everything one streaming ingestion produced: the model plus the
/// telemetry `ocelotl info --stats` and the session layer consume.
#[derive(Debug)]
pub struct IngestReport {
    /// The microscopic model.
    pub model: MicroModel,
    /// Bytes the ingest read from disk: split-plan headers, `.octf`
    /// chunk indexes, extent scans and unit decodes. A pure function of
    /// the input bytes and the request.
    pub bytes_read: u64,
    /// Interval records decoded.
    pub intervals: u64,
    /// Point records decoded.
    pub points: u64,
    /// Peak resident footprint of the streaming accumulators, in bytes —
    /// O(model · units), independent of the event count.
    pub peak_bytes: u64,
    /// Which ingestion strategy ran.
    pub mode: IngestMode,
    /// The detected trace format (for a directory: of the first file).
    pub format: Format,
    /// Whether the input was gzip-compressed (any file, for directories).
    pub gzip: bool,
    /// Input bytes per decode unit, in unit order: one entry per shard of
    /// a single file, or per file of a directory trace. The length is the
    /// shard count. Content-derived and deterministic.
    pub shards: Vec<u64>,
    /// Chunks in the columnar source's index (0 for non-columnar inputs).
    pub chunks_total: u64,
    /// Chunks actually decoded; `< chunks_total` when predicate pushdown
    /// skipped some.
    pub chunks_read: u64,
    /// On-disk bytes of the chunks pushdown skipped (0 without pushdown).
    pub bytes_skipped: u64,
}

impl IngestReport {
    /// Event count in the Table II convention (2 per interval + 1 per
    /// point).
    pub fn events(&self) -> u64 {
        self.intervals * 2 + self.points
    }
}

/// Stream a trace file straight into a metric-aware microscopic model
/// with `n_slices` periods — the paper's "trace reading + microscopic
/// description" pipeline fused into one pass, without materializing
/// events. See the module docs for the plan, the two-pass fallback and
/// directory traces. Uses default [`IngestOptions`].
pub fn read_model(path: &Path, n_slices: usize, kind: ModelKind) -> Result<IngestReport> {
    read_model_impl(path, n_slices, kind, false, &IngestOptions::default())
}

/// [`read_model`] with explicit sharding options.
pub fn read_model_with(
    path: &Path,
    n_slices: usize,
    kind: ModelKind,
    opts: &IngestOptions,
) -> Result<IngestReport> {
    read_model_impl(path, n_slices, kind, false, opts)
}

/// Stream a trace file into the **super-resolution raw intermediate**
/// behind incremental re-slicing: the grid refines to
/// `hi_res_slices(n_slices, |S|)` periods and the density metric stays
/// unnormalized, so `ocelotl_core::HiResModel` can derive this and any
/// compatible resolution by exact rebinning — no further disk passes.
/// Telemetry (bytes, counts, mode) is reported exactly like
/// [`read_model`]; `model` carries the raw hi-res array.
pub fn read_hi_res(path: &Path, n_slices: usize, kind: ModelKind) -> Result<IngestReport> {
    read_model_impl(path, n_slices, kind, true, &IngestOptions::default())
}

/// [`read_hi_res`] with explicit sharding options.
pub fn read_hi_res_with(
    path: &Path,
    n_slices: usize,
    kind: ModelKind,
    opts: &IngestOptions,
) -> Result<IngestReport> {
    read_model_impl(path, n_slices, kind, true, opts)
}

/// Windowed hi-res pushdown: build the **raw hi-res intermediate** (grid =
/// the full trace range at `hi_res_slices` resolution, exactly what
/// [`read_hi_res`] produces) while decoding only the chunks overlapping
/// hi-res slices `[first, first + count)`. Skipped chunks cannot touch any
/// slice in that window (their extents end strictly before it or start
/// strictly after it), so `HiResModel::derive_window` over the result is
/// bit-identical to deriving from a full ingest — at a fraction of the
/// I/O. Requires a plain (non-gzip) `.octf` source.
pub fn read_hi_res_window(
    path: &Path,
    n_slices: usize,
    kind: ModelKind,
    first: usize,
    count: usize,
    opts: &IngestOptions,
) -> Result<IngestReport> {
    let t_plan = Instant::now();
    let resources = opts.predicate.as_ref().and_then(|p| p.resources.clone());
    let input = Input::open(path.to_path_buf(), resources)?;
    let Layout::Columnar(plan) = &input.layout else {
        let (at, got) = (path.display(), input.det.fmt.name());
        let gz = if input.det.gzip { ", gzip-framed" } else { "" };
        let e = format!("{at}: windowed pushdown requires a plain .octf source (got {got}{gz})");
        return Err(FormatError::parse(e, None));
    };
    let (leaves, states) = (plan.header.hierarchy.n_leaves(), plan.header.states.len());
    let h = hi_res_slices(n_slices, leaves, states);
    if count == 0 || first.checked_add(count).is_none_or(|end| end > h) {
        let e = format!("window [{first}, {first}+{count}) exceeds the {h}-slice hi-res grid");
        return Err(FormatError::parse(e, None));
    }
    // NaN bounds count as "no events" too, hence not a plain `hi <= lo`.
    let valid = |&(lo, hi): &(f64, f64)| lo.is_finite() && hi.is_finite() && hi > lo;
    let (lo, hi) = plan
        .header
        .range
        .filter(valid)
        .ok_or_else(|| no_events(path))?;
    let grid = TimeGrid::new(lo, hi, h);
    let (w0, w1) = (
        grid.slice_bounds(first).0,
        grid.slice_bounds(first + count - 1).1,
    );
    let mut plan = Plan::file(input, n_slices, true, opts.shards, Some((w0, w1)))?;
    (plan.range, plan.pushdown) = (Some((lo, hi)), true);
    ingest(plan, kind, true, opts, t_plan)
}

/// The resource hierarchy of the trace at `path` — a file's, or a
/// directory's union — from the headers and indexes an ingest plans with;
/// no event is decoded. Lets a caller size a request before any ingest.
pub fn read_hierarchy(path: &Path) -> Result<Hierarchy> {
    if path.is_dir() {
        if let Some((hierarchy, _)) = Plan::dir(path, 1, false, None)?.union {
            return Ok(hierarchy);
        }
    }
    let input = Input::open(path.to_path_buf(), None)?;
    Ok(input.layout.header().hierarchy.clone())
}

/// Stream a trace file into a state-metric microscopic model with
/// `n_slices` periods (shorthand for [`read_model`]).
pub fn read_micro(path: &Path, n_slices: usize) -> Result<MicroModel> {
    Ok(read_model(path, n_slices, ModelKind::States)?.model)
}

fn read_model_impl(
    path: &Path,
    n_slices: usize,
    kind: ModelKind,
    hi_res: bool,
    opts: &IngestOptions,
) -> Result<IngestReport> {
    let t_plan = Instant::now();
    let predicate = opts.predicate.clone().unwrap_or_default();
    let (window, resources) = (predicate.time_range, predicate.resources.clone());
    let mut plan = if path.is_dir() {
        Plan::dir(path, n_slices, hi_res, resources)?
    } else {
        let input = Input::open(path.to_path_buf(), resources)?;
        let declared = input.layout.header().range;
        let columnar = matches!(input.layout, Layout::Columnar(_));
        let mut plan = Plan::file(input, n_slices, hi_res, opts.shards, window)?;
        (plan.range, plan.pushdown) = (declared, columnar && predicate.is_active());
        plan
    };
    // The window is the grid: it replaces the declared range and the scan.
    plan.range = window.or(plan.range);
    ingest(plan, kind, hi_res, opts, t_plan)
}

fn shard_count(body_bytes: u64, mode: ShardMode) -> usize {
    match mode {
        ShardMode::Auto => {
            let n = body_bytes.div_ceil(SHARD_TARGET_BYTES).max(1);
            (n as usize).min(MAX_SHARDS)
        }
        ShardMode::Fixed(n) => n.clamp(1, MAX_SHARDS),
    }
}

/// Model grid slices: the hi-res refinement of `n_slices` for this shape,
/// or `n_slices` itself.
fn grid_slices(n_slices: usize, hi_res: bool, leaves: usize, states: usize) -> usize {
    if hi_res {
        hi_res_slices(n_slices, leaves, states)
    } else {
        n_slices
    }
}

/// A sink refusal of the input at `path`.
fn refused(path: &Path) -> impl Fn(ModelSinkError) -> FormatError + '_ {
    move |refusal| FormatError::Refused {
        file: path.display().to_string(),
        refusal,
    }
}

fn no_events(path: &Path) -> FormatError {
    let at = path.display();
    FormatError::parse(format!("{at}: trace has no events to slice"), None)
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// The plan: inputs and their decode units
// ---------------------------------------------------------------------------

/// How an input's bytes are laid out, as far as its planner read them.
enum Layout {
    /// Gzip streams and Pajé decode sequentially only; the header comes
    /// from decoding the declarations.
    Stream(StreamHeader),
    Text(text::TextPlan),
    Binary(binary::BinaryPlan),
    Columnar(ColumnarPlan),
}

impl Layout {
    fn header(&self) -> &StreamHeader {
        match self {
            Layout::Stream(header) => header,
            Layout::Text(plan) => &plan.header,
            Layout::Binary(plan) => &plan.header,
            Layout::Columnar(plan) => &plan.header,
        }
    }

    /// The header and chunk-index bytes a plain `.octf` plan read before
    /// any unit; 0 for every other layout.
    fn index_bytes(&self) -> u64 {
        match self {
            Layout::Columnar(plan) => plan.header_bytes + (plan.file_len - plan.footer_offset),
            _ => 0,
        }
    }
}

/// One pool task's worth of decoding.
enum Unit {
    /// The whole stream, through the format's sequential decoder.
    Stream,
    /// PTF event bytes `[lo, hi)`, newline-aligned.
    Lines(u64, u64),
    /// BTF `(offset, count)` of an interval and of a point record range.
    Records { iv: (u64, u64), pt: (u64, u64) },
    /// The OCTF chunks (index, entry) of one group the predicate keeps,
    /// plus which point kinds (send, recv, marker) the chunks it skips
    /// carry: pseudo-state presence is trace-global.
    Chunks(columnar::ChunkGroup, [bool; 3]),
}

/// One input file and its units, in merge order.
struct Input {
    path: PathBuf,
    det: Detected,
    len: u64,
    layout: Layout,
    units: Vec<Unit>,
    /// First union leaf of this file (0 for a single file).
    leaf_offset: usize,
    /// The predicate's resource list, in this file's own leaf ids.
    filter: Option<Vec<u32>>,
}

/// Captures a stream's declarations and declines its events.
struct HeaderSink(Option<StreamHeader>);

impl EventSink for HeaderSink {
    fn begin(&mut self, header: &StreamHeader) -> bool {
        self.0 = Some(header.clone());
        false
    }
    fn interval(&mut self, _: LeafId, _: StateId, _: Time, _: Time) {}
}

impl Input {
    /// Detect `path` and read its layout (headers and indexes only); the
    /// file starts as one whole-stream unit.
    fn open(path: PathBuf, filter: Option<Vec<u32>>) -> Result<Self> {
        let det = detect(&path)?;
        let len = std::fs::metadata(&path)?.len();
        let layout = match (det.gzip, det.fmt) {
            (false, Format::Text) => text::plan_text(buffered(&path, 0)?).map(Layout::Text),
            (false, Format::Binary) => binary::plan_binary(buffered(&path, 0)?).map(Layout::Binary),
            (false, Format::Columnar) => columnar::plan_columnar(&path).map(Layout::Columnar),
            _ => {
                let mut sink = HeaderSink(None);
                decode(det.fmt, open_plain(&path, det.gzip)?, &mut sink).and_then(|_| {
                    let header = sink.0.map(Layout::Stream);
                    header.ok_or_else(|| FormatError::parse("empty trace stream", None))
                })
            }
        };
        Ok(Self {
            layout: layout.map_err(|e| annotate(e, &path, det.fmt, det.ext))?,
            path,
            det,
            len,
            units: vec![Unit::Stream],
            leaf_offset: 0,
            filter,
        })
    }

    fn annotate(&self, e: FormatError) -> FormatError {
        annotate(e, &self.path, self.det.fmt, self.det.ext)
    }

    /// Cut a single file into units: newline-aligned PTF ranges or BTF
    /// record ranges once it is big enough to shard, and for a plain
    /// `.octf` chunk groups keeping the chunks that can meet `select` and
    /// the resource filter. Returns the header bytes a split read beyond
    /// its units, and `(chunks_total, chunks_read, bytes_skipped)`.
    fn split(&mut self, mode: ShardMode, select: Option<(f64, f64)>) -> Result<(u64, [u64; 3])> {
        match &self.layout {
            Layout::Text(plan) if plan.has_events && plan.header_bytes < self.len => {
                let s = shard_count(self.len - plan.header_bytes, mode) as u64;
                if s > 1 {
                    let lines = plan.split(&self.path, self.len, s)?.into_iter();
                    self.units = lines.map(|(lo, hi)| Unit::Lines(lo, hi)).collect();
                    return Ok((plan.header_bytes, [0; 3]));
                }
            }
            Layout::Binary(plan) if plan.has_records() => {
                let s = shard_count(plan.body_bytes(self.len)?, mode) as u64;
                if s > 1 {
                    let shards = (0..s).map(|k| plan.shard(k, s));
                    self.units = shards.map(|[iv, pt]| Unit::Records { iv, pt }).collect();
                    return Ok((plan.intervals_start + 8, [0; 3]));
                }
            }
            Layout::Columnar(plan) => {
                // A chunk survives when its time extent can overlap the
                // window (closed test: boundary-touching chunks stay) and
                // its folded resource mask can hold a wanted leaf (false
                // positives decode harmlessly, false negatives cannot
                // happen).
                let fold = |rs: &[u32]| rs.iter().fold(0u64, |m, r| m | 1 << (r % 64));
                let mask = self.filter.as_deref().map(fold);
                let (groups, kinds, skipped_bytes) =
                    plan.select(shard_count(plan.total_payload(), mode), |c| {
                        select.is_none_or(|(lo, hi)| c.overlaps(lo, hi))
                            && mask.is_none_or(|m| c.resource_mask & m != 0)
                    });
                let read = groups.iter().map(|g| g.len() as u64).sum();
                let stats = [plan.chunks.len() as u64, read, skipped_bytes];
                let units = groups.into_iter().map(|g| Unit::Chunks(g, kinds));
                self.units = units.collect();
                return Ok((0, stats));
            }
            _ => {}
        }
        Ok((0, [0; 3]))
    }

    /// A directory file's event extent when its plan already knows it
    /// (`Some(None)`: no events), `None` when only a scan can tell.
    fn known_extent(&self) -> Option<Option<(f64, f64)>> {
        match &self.layout {
            Layout::Columnar(plan) => Some(plan.time_extent()),
            Layout::Binary(plan) => Some(plan.header.range.filter(|_| plan.has_records())),
            Layout::Text(plan) if !plan.has_events => Some(None),
            Layout::Text(plan) => plan.header.range.map(Some),
            Layout::Stream(_) => None,
        }
    }

    /// Drive `sink` through one unit. Range units begin the sink with the
    /// planned header; a `Stream` unit's decoder does that itself. Returns
    /// `false` when the sink declined the stream.
    fn decode<S: EventSink>(&self, unit: &Unit, sink: &mut S) -> Result<bool> {
        let (path, header) = (&self.path, self.layout.header());
        let (n_leaves, n_states) = (header.hierarchy.n_leaves(), header.states.len());
        if let Unit::Stream = unit {
            return decode(self.det.fmt, open_plain(path, self.det.gzip)?, sink);
        }
        if !sink.begin(header) {
            return Ok(false);
        }
        match (unit, &self.layout) {
            (Unit::Lines(lo, hi), Layout::Text(plan)) => {
                text::decode_text_range(buffered(path, *lo)?, hi - lo, plan, sink)?;
            }
            (Unit::Records { iv, pt }, _) => {
                if iv.1 > 0 {
                    let mut r = buffered(path, iv.0)?;
                    binary::decode_interval_range(&mut r, iv.1, n_leaves, n_states, sink)?;
                }
                if pt.1 > 0 {
                    binary::decode_point_range(&mut buffered(path, pt.0)?, pt.1, n_leaves, sink)?;
                }
            }
            (Unit::Chunks(chunks, _), _) => {
                let mut f = File::open(path)?;
                for (i, c) in chunks {
                    columnar::decode_chunk_file(&mut f, c, *i, n_leaves, n_states, sink)?;
                }
            }
            _ => return Err(FormatError::parse("unit does not fit its file", None)),
        }
        sink.end();
        Ok(true)
    }

    /// Input bytes `unit` covers.
    fn unit_bytes(&self, unit: &Unit) -> u64 {
        match unit {
            Unit::Stream => self.len,
            Unit::Lines(lo, hi) => hi - lo,
            Unit::Records { iv, pt } => {
                iv.1 * INTERVAL_RECORD_BYTES as u64 + pt.1 * POINT_RECORD_BYTES as u64
            }
            Unit::Chunks(chunks, _) => chunks.iter().map(|(_, c)| c.stored_bytes()).sum(),
        }
    }
}

/// Everything the driver needs to run one ingest of `path`.
struct Plan {
    path: PathBuf,
    inputs: Vec<Input>,
    /// A directory's union shape, which its files mount into; `None` for
    /// a single file, whose units absorb into the first.
    union: Option<(Hierarchy, StateRegistry)>,
    slices: usize,
    /// The grid range when known before decoding; `None` scans the units.
    range: Option<(f64, f64)>,
    /// A columnar source read under a predicate ([`IngestMode::Pushdown`]).
    pushdown: bool,
    /// Header bytes a split read beyond its units.
    plan_bytes: u64,
    /// `[chunks_total, chunks_read, bytes_skipped]` of a columnar source.
    chunks: [u64; 3],
}

impl Plan {
    /// One file, cut into units; the caller settles the range.
    fn file(
        mut input: Input,
        n_slices: usize,
        hi_res: bool,
        mode: ShardMode,
        select: Option<(f64, f64)>,
    ) -> Result<Self> {
        let (plan_bytes, chunks) = input.split(mode, select).map_err(|e| input.annotate(e))?;
        let h = input.layout.header();
        let slices = grid_slices(n_slices, hi_res, h.hierarchy.n_leaves(), h.states.len());
        Ok(Self {
            path: input.path.clone(),
            inputs: vec![input],
            union: None,
            slices,
            range: None,
            pushdown: false,
            plan_bytes,
            chunks,
        })
    }

    /// A directory: every trace file is one unit, grafted under a
    /// super-root named after the directory (each file's root renamed to
    /// its stem, leaves numbered in file order), states united by name in
    /// file order. `resources` are union leaf ids.
    fn dir(dir: &Path, n_slices: usize, hi_res: bool, resources: Option<Vec<u32>>) -> Result<Self> {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("trace");
        let mut b = HierarchyBuilder::new(name, "trace");
        let root = b.root();
        let mut states = StateRegistry::new();
        let mut inputs = Vec::new();
        let mut offset = 0usize;
        for path in trace_files(dir)? {
            let mut input = Input::open(path, None)?;
            let stem = input.path.file_stem().and_then(|s| s.to_str());
            let header = input.layout.header();
            graft(&mut b, root, &header.hierarchy, stem.unwrap_or("file"))?;
            for (_, name) in header.states.iter() {
                if states.len() >= (1 << 16) && states.get(name).is_none() {
                    let e = "union state count exceeds the u16 id space";
                    return Err(FormatError::parse(e, None));
                }
                states.intern(name);
            }
            let n = header.hierarchy.n_leaves();
            input.filter = resources.as_ref().map(|rs| {
                let local = rs.iter().filter_map(|&r| (r as usize).checked_sub(offset));
                local.filter(|&l| l < n).map(|l| l as u32).collect()
            });
            input.leaf_offset = offset;
            offset += n;
            inputs.push(input);
        }
        let hierarchy = b
            .build()
            .map_err(|e| FormatError::parse(format!("invalid union hierarchy: {e}"), None))?;
        Ok(Self {
            path: dir.to_path_buf(),
            inputs,
            slices: grid_slices(n_slices, hi_res, hierarchy.n_leaves(), states.len()),
            union: Some((hierarchy, states)),
            range: None,
            pushdown: false,
            plan_bytes: 0,
            chunks: [0; 3],
        })
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Run `f` over `items` on `pool`, keeping their order; the first error
/// (in item order) wins.
fn on_pool<T: Send, R: Send>(
    pool: &rayon::ThreadPool,
    items: Vec<T>,
    f: impl Fn(T) -> Result<R> + Sync + Send,
) -> Result<Vec<R>> {
    let done = pool.install(|| items.into_par_iter().map(f).collect::<Vec<_>>());
    done.into_iter().collect()
}

/// Run a plan: settle the grid range (scanning the units when nothing
/// declares it), decode the units on one pool, merge the partial models
/// in unit order and assemble the report.
fn ingest(
    plan: Plan,
    kind: ModelKind,
    hi_res: bool,
    opts: &IngestOptions,
    t_plan: Instant,
) -> Result<IngestReport> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(opts.max_workers)
        .build()
        .map_err(|e| FormatError::parse(e.to_string(), None))?;
    let units: Vec<(&Input, &Unit)> = plan
        .inputs
        .iter()
        .flat_map(|input| input.units.iter().map(move |unit| (input, unit)))
        .collect();
    let plan_nanos = nanos(t_plan);

    // The grid range, else the union of the units' extents: known from a
    // directory file's plan, or scanned (the first of two passes).
    let mounted = plan.union.is_some();
    let mut unit_nanos = vec![0u64; units.len()];
    let (mut scanned, mut scan_bytes) = (false, 0u64);
    let range = match plan.range {
        Some(range) => range,
        None => {
            let extents = on_pool(&pool, units.clone(), |(input, unit)| {
                if let Some(extent) = input.known_extent().filter(|_| mounted) {
                    return Ok((extent, None));
                }
                let (t, mut scan) = (Instant::now(), ScanSink::new());
                input
                    .decode(unit, &mut scan)
                    .map_err(|e| input.annotate(e))?;
                Ok((scan.observed_range(), Some(nanos(t))))
            })?;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            let owners = units.iter().zip(&mut unit_nanos);
            for ((extent, scan), (&(input, unit), spent)) in extents.into_iter().zip(owners) {
                if let Some((l, h)) = extent {
                    (lo, hi) = (lo.min(l), hi.max(h));
                }
                if let Some(t) = scan {
                    (*spent, scanned) = (t, true);
                    scan_bytes += input.unit_bytes(unit);
                }
            }
            if !(lo.is_finite() && hi.is_finite() && hi > lo) {
                return Err(no_events(&plan.path));
            }
            (lo, hi)
        }
    };

    // One pool task per unit.
    let slices = plan.slices;
    let decoded = on_pool(&pool, units.clone(), |(input, unit)| {
        let (t, mut sink) = (Instant::now(), ModelSink::with_range(kind, slices, range));
        if let Some(keep) = &input.filter {
            sink.set_resource_filter(keep);
        }
        input
            .decode(unit, &mut sink)
            .map_err(|e| input.annotate(e))?;
        if let Unit::Chunks(_, [send, recv, marker]) = *unit {
            sink.note_point_kinds(send, recv, marker);
        }
        let peak = sink.peak_bytes();
        let part = sink.finish_partial().map_err(refused(&input.path))?;
        Ok((part, peak, nanos(t)))
    })?;

    // Merge in unit order: the parts of one stream absorb left to right
    // (the canonical summation order); directory files mount at their
    // leaf offsets. Each merge adds only the slices its part touched.
    let t_merge = Instant::now();
    let grid = TimeGrid::new(range.0, range.1, slices);
    let seed = |(h, states)| PartialModel::empty(kind, h, states, grid);
    let mut merged = plan
        .union
        .map(seed)
        .transpose()
        .map_err(refused(&plan.path))?;
    let (owners, mut peak_bytes) = (units.iter().zip(&mut unit_nanos), 0);
    for ((part, peak, spent), (&(input, _), total)) in decoded.into_iter().zip(owners) {
        *total += spent;
        peak_bytes += peak;
        match merged.as_mut() {
            None => merged = Some(part),
            Some(union) if mounted => union.mount(part, input.leaf_offset),
            Some(first) => first.absorb(part),
        }
    }
    let merged = merged.ok_or_else(|| no_events(&plan.path))?;
    // Each part fit on its own; the shards of one stream sum their cells.
    if !merged.fits() {
        return Err(refused(&plan.path)(ModelSinkError::CellOverflow));
    }
    let (intervals, points) = merged.counts();
    let model = merged.into_model(!hi_res);
    let merge_nanos = nanos(t_merge);

    let shards: Vec<u64> = units.iter().map(|&(i, unit)| i.unit_bytes(unit)).collect();
    *LAST_TIMING.lock().unwrap_or_else(PoisonError::into_inner) = Some(ShardTiming {
        plan_nanos,
        hash_nanos: 0,
        shard_nanos: unit_nanos,
        merge_nanos,
    });
    let [chunks_total, chunks_read, bytes_skipped] = plan.chunks;
    // Every byte the ingest read: split headers, `.octf` indexes, extent
    // scans and the units themselves.
    let index_bytes: u64 = plan.inputs.iter().map(|i| i.layout.index_bytes()).sum();
    let bytes_read = plan.plan_bytes + index_bytes + scan_bytes + shards.iter().sum::<u64>();
    Ok(IngestReport {
        model,
        bytes_read,
        intervals,
        points,
        peak_bytes,
        mode: match (plan.pushdown, scanned) {
            (true, _) => IngestMode::Pushdown,
            (false, true) => IngestMode::TwoPass,
            (false, false) => IngestMode::SinglePass,
        },
        format: plan.inputs.first().map_or(Format::Binary, |i| i.det.fmt),
        gzip: plan.inputs.iter().any(|i| i.det.gzip),
        shards,
        chunks_total,
        chunks_read,
        bytes_skipped,
    })
}

// ---------------------------------------------------------------------------
// Multi-file (directory) traces
// ---------------------------------------------------------------------------

/// The trace files of a directory trace, sorted by file name — the
/// canonical file order that fixes leaf numbering, state interning and the
/// combined fingerprint. Hidden files and unrecognized extensions are
/// skipped; an empty result is an error.
pub fn trace_files(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let (entry, hidden) = (entry?, |n: &str| n.starts_with('.'));
        let p = entry.path();
        let name = p.file_name().and_then(|n| n.to_str());
        if entry.file_type()?.is_file()
            && !name.is_some_and(hidden)
            && Format::from_path(&p).is_some()
        {
            files.push(p);
        }
    }
    files.sort();
    if files.is_empty() {
        let at = dir.display();
        let e = format!("{at}: no trace files (.ptf/.btf/.paje/.trace/.octf, optionally .gz)");
        return Err(FormatError::parse(e, None));
    }
    Ok(files)
}

/// Graft `h` under `parent`, renaming the file's root to `name`. Node ids
/// are pre-order, so parents always precede children.
fn graft(b: &mut HierarchyBuilder, parent: NodeId, h: &Hierarchy, name: &str) -> Result<()> {
    let mut map: Vec<NodeId> = Vec::with_capacity(h.len());
    for id in h.node_ids() {
        let mapped = match h.parent(id).map(|p| map.get(p.0 as usize)) {
            None => b.add_child(parent, name, h.kind(id)),
            Some(Some(&p)) => b.add_child(p, h.name(id), h.kind(id)),
            Some(None) => return Err(FormatError::parse("hierarchy child precedes parent", None)),
        };
        map.push(mapped);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::hash_trace_input;
    use crate::text::align_to_line;
    use ocelotl_trace::{Hierarchy, LeafId, StateId, TraceBuilder};

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ocelotl-io-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> Trace {
        let mut tb = TraceBuilder::new(Hierarchy::flat(2, "p"));
        let s = tb.state("S");
        tb.push_state(LeafId(0), s, 0.0, 2.0);
        tb.push_state(LeafId(1), s, 1.0, 3.0);
        tb.build()
    }

    fn assert_bits_equal(a: &MicroModel, b: &MicroModel, tag: &str) {
        assert_eq!(a.grid(), b.grid(), "{tag}: grid");
        assert_eq!(a.n_states(), b.n_states(), "{tag}: states");
        for l in 0..a.n_leaves() as u32 {
            for x in 0..a.n_states() as u16 {
                for s in 0..a.n_slices() {
                    assert_eq!(
                        a.duration(LeafId(l), StateId(x), s).to_bits(),
                        b.duration(LeafId(l), StateId(x), s).to_bits(),
                        "{tag}: cell ({l},{x},{s})"
                    );
                }
            }
        }
    }

    #[test]
    fn file_roundtrip_all_formats() {
        let t = sample();
        for name in ["t.ptf", "t.btf", "t.paje"] {
            let p = tmpdir().join(name);
            write_trace(&t, &p).unwrap();
            let t2 = read_trace(&p).unwrap();
            assert_eq!(t2.intervals.len(), t.intervals.len(), "{name}");
            let m = read_micro(&p, 3).unwrap();
            assert_eq!(m.n_slices(), 3);
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn streaming_model_matches_materialized_bitwise() {
        let t = sample();
        for name in ["eq.ptf", "eq.btf", "eq.paje"] {
            let p = tmpdir().join(name);
            write_trace(&t, &p).unwrap();
            let report = read_model(&p, 4, ModelKind::States).unwrap();
            let back = read_trace(&p).unwrap();
            let batch = MicroModel::from_trace(&back, 4).unwrap();
            assert_bits_equal(&report.model, &batch, name);
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn fingerprint_matches_hash_file_in_both_modes() {
        let t = sample();
        for (name, mode) in [
            ("fp.btf", IngestMode::SinglePass),
            ("fp.ptf", IngestMode::SinglePass),
            ("fp.paje", IngestMode::TwoPass), // Pajé never declares a range
        ] {
            let p = tmpdir().join(name);
            write_trace(&t, &p).unwrap();
            let report = read_model(&p, 5, ModelKind::States).unwrap();
            assert_eq!(report.mode, mode, "{name}");
            assert!(report.bytes_read >= std::fs::metadata(&p).unwrap().len());
            assert_eq!(report.intervals, 2, "{name}");
            assert!(report.peak_bytes > 0);
            assert_eq!(report.shards.len(), 1, "{name}: small files get 1 shard");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn ptf_without_range_takes_two_passes() {
        let src = "%PTF 1\n%node 0 - root r\n%node 1 0 m a\n%state 0 s\nS 0 0 1.0 5.0\n";
        let p = tmpdir().join("norange.ptf");
        std::fs::write(&p, src).unwrap();
        let report = read_model(&p, 4, ModelKind::States).unwrap();
        assert_eq!(report.mode, IngestMode::TwoPass);
        assert_eq!(report.model.grid().start(), 1.0);
        assert_eq!(report.model.grid().end(), 5.0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn align_to_line_edge_cases() {
        let dir = tmpdir();
        let align = |name: &str, content: &[u8], pos: u64| -> u64 {
            let p = dir.join(name);
            std::fs::write(&p, content).unwrap();
            let mut f = File::open(&p).unwrap();
            let got = align_to_line(&mut f, pos, content.len() as u64).unwrap();
            std::fs::remove_file(&p).ok();
            got
        };
        // A boundary exactly on a line start stays put.
        assert_eq!(align("on-newline.txt", b"aaa\nbbb\nccc\n", 4), 4);
        // Mid-line boundaries advance to the next line start.
        assert_eq!(align("mid-line.txt", b"aaa\nbbb\nccc\n", 5), 8);
        // CRLF line endings: the cut lands after the LF, never between
        // the CR and LF.
        assert_eq!(align("crlf.txt", b"aaa\r\nbbb\r\nccc\r\n", 2), 5);
        assert_eq!(align("crlf-on.txt", b"aaa\r\nbbb\r\nccc\r\n", 5), 5);
        // No trailing newline: a boundary inside the last line clamps to
        // end of file (the previous shard owns the dangling line).
        assert_eq!(align("no-trail.txt", b"aaa\nbbb", 5), 7);
        // A boundary at end of file stays there.
        assert_eq!(align("at-eof.txt", b"aaa\n", 4), 4);
    }

    #[test]
    fn sniffing_beats_extension() {
        // Binary content under a .ptf name is still read as binary.
        let t = sample();
        let p = tmpdir().join("mislabeled.ptf");
        {
            let mut w = BufWriter::new(File::create(&p).unwrap());
            binary::write_binary(&t, &mut w).unwrap();
            w.flush().unwrap();
        }
        let t2 = read_trace(&p).unwrap();
        assert_eq!(t2.intervals, t.intervals);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn unknown_format_error_names_the_path() {
        let p = tmpdir().join("garbage.bin");
        std::fs::write(&p, b"not a trace").unwrap();
        let err = read_trace(&p).unwrap_err();
        assert!(err.to_string().contains("garbage.bin"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn contradicting_extension_error_names_path_and_formats() {
        // Garbage behind a recognized extension: sniffing fails, the
        // extension fallback reader fails — the error must name the path.
        let p = tmpdir().join("broken.btf");
        std::fs::write(&p, b"\x00\x01\x02\x03 definitely not BTF").unwrap();
        let err = read_trace(&p).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("broken.btf"), "{msg}");

        // PTF content mislabeled .paje parses by content; errors inside it
        // must surface the contradiction.
        let p = tmpdir().join("mislabeled.paje");
        std::fs::write(&p, "%PTF 1\n%node 0 - root r\nGARBAGE\n").unwrap();
        let err = read_trace(&p).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("mislabeled.paje"), "{msg}");
        assert!(msg.contains("contradicting"), "{msg}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_trace_has_nothing_to_slice() {
        let t = TraceBuilder::new(Hierarchy::flat(2, "p")).build();
        for name in ["empty.btf", "empty.ptf"] {
            let p = tmpdir().join(name);
            write_trace(&t, &p).unwrap();
            assert_eq!(read_trace(&p).unwrap().intervals.len(), 0, "{name}");
            assert!(read_model(&p, 4, ModelKind::States).is_err(), "{name}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn format_helpers() {
        assert_eq!(Format::from_path(Path::new("x.ptf")), Some(Format::Text));
        assert_eq!(Format::from_path(Path::new("x.btf")), Some(Format::Binary));
        assert_eq!(Format::from_path(Path::new("x.paje")), Some(Format::Paje));
        assert_eq!(Format::from_path(Path::new("x.trace")), Some(Format::Paje));
        assert_eq!(Format::from_path(Path::new("x.csv")), None);
        assert_eq!(
            Format::from_path(Path::new("x.octf")),
            Some(Format::Columnar)
        );
        assert_eq!(
            Format::from_path(Path::new("x.octf.gz")),
            Some(Format::Columnar)
        );
        assert_eq!(Format::from_path(Path::new("x.ptf.gz")), Some(Format::Text));
        assert_eq!(
            Format::from_path(Path::new("x.btf.gz")),
            Some(Format::Binary)
        );
        assert_eq!(Format::from_path(Path::new("x.gz")), None);
        assert_eq!(Format::sniff(b"%PTF 1"), Some(Format::Text));
        assert_eq!(Format::sniff(b"BTF1"), Some(Format::Binary));
        assert_eq!(Format::sniff(b"%EventDef PajeState"), Some(Format::Paje));
        assert_eq!(Format::sniff(b"OCT1"), Some(Format::Columnar));
        assert_eq!(Format::sniff(b"??"), None);
    }

    #[test]
    fn read_hi_res_refines_and_keeps_the_fingerprint() {
        let t = sample();
        for name in ["hi.btf", "hi.ptf", "hi.paje"] {
            let p = tmpdir().join(name);
            write_trace(&t, &p).unwrap();
            let report = read_hi_res(&p, 3, ModelKind::States).unwrap();
            assert_eq!(
                report.model.n_slices(),
                ocelotl_trace::hi_res_slices(3, 2, 1),
                "{name}"
            );
            assert_eq!(report.intervals, 2, "{name}");
            // Mass is conserved by the refinement.
            let direct = read_model(&p, 3, ModelKind::States).unwrap().model;
            assert!(
                (report.model.grand_total() - direct.grand_total()).abs() < 1e-9,
                "{name}"
            );
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn read_hierarchy_reads_no_event_and_matches_the_ingest() {
        let t = richer_sample();
        let d = multi_dir("hier");
        for name in ["h.ptf", "h.btf", "h.paje", "h.octf"] {
            write_trace(&t, &d.join(name)).unwrap();
        }
        let gz = gz_file("h.btf.gz", &t, Format::Binary);
        for path in ["h.ptf", "h.btf", "h.paje", "h.octf"]
            .map(|name| d.join(name))
            .into_iter()
            .chain([gz.clone(), d.clone()])
        {
            let hierarchy = read_hierarchy(&path).unwrap();
            let model = read_model(&path, 4, ModelKind::States).unwrap().model;
            assert_eq!(
                hierarchy.len(),
                model.hierarchy().len(),
                "{}",
                path.display()
            );
            assert_eq!(hierarchy.n_leaves(), model.n_leaves(), "{}", path.display());
        }
        assert_eq!(read_hierarchy(&d).unwrap().n_leaves(), 4 * 3, "the union");
        assert!(read_hierarchy(&d.join("missing.btf")).is_err());
        std::fs::remove_file(&gz).ok();
        std::fs::remove_dir_all(&d).ok();
    }

    /// A hi-res `.btf` ingest sharded in two, where no hi-res cell gets
    /// records from both shards: each shard's merge adds only its own
    /// span, and the result equals the sequential ingest bit for bit for
    /// both metrics (`x + 0.0 == x`).
    #[test]
    fn a_sharded_hi_res_ingest_with_one_shard_per_cell_is_bit_identical() {
        let mut tb = TraceBuilder::new(Hierarchy::flat(2, "p"));
        let s = tb.state("S");
        for i in 0..40u32 {
            let t0 = i as f64;
            tb.push_state(LeafId(i % 2), s, t0, t0 + 0.75);
        }
        let p = tmpdir().join("stretches.btf");
        write_trace(&tb.build(), &p).unwrap();
        for kind in [ModelKind::States, ModelKind::Density] {
            let seq = read_hi_res(&p, 4, kind).unwrap().model;
            let sharded = read_hi_res_with(&p, 4, kind, &opts(2, 2)).unwrap();
            assert_eq!(sharded.shards.len(), 2);
            assert_bits_equal(&seq, &sharded.model, &format!("{kind:?}"));
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn density_metric_streams_too() {
        let t = sample();
        let p = tmpdir().join("density.btf");
        write_trace(&t, &p).unwrap();
        let report = read_model(&p, 4, ModelKind::Density).unwrap();
        let back = read_trace(&p).unwrap();
        let batch = ocelotl_trace::event_density_auto(&back, 4).unwrap();
        assert_bits_equal(&report.model, &batch, "density");
        std::fs::remove_file(&p).ok();
    }

    // -- gzip ------------------------------------------------------------

    fn gz_file(name: &str, t: &Trace, inner: Format) -> std::path::PathBuf {
        let mut raw = Vec::new();
        match inner {
            Format::Text => text::write_text(t, &mut raw).unwrap(),
            Format::Binary => binary::write_binary(t, &mut raw).unwrap(),
            Format::Paje => paje::write_paje(t, &mut raw).unwrap(),
            Format::Columnar => {
                let mut cur = std::io::Cursor::new(Vec::new());
                columnar::write_columnar(t, &mut cur).unwrap();
                raw = cur.into_inner();
            }
        }
        let p = tmpdir().join(name);
        std::fs::write(&p, crate::gzip::gzip_stored(&raw)).unwrap();
        p
    }

    #[test]
    fn gzip_traces_read_like_plain_ones() {
        let t = sample();
        for (name, inner) in [
            ("z.ptf.gz", Format::Text),
            ("z.btf.gz", Format::Binary),
            ("z.paje.gz", Format::Paje),
        ] {
            let p = gz_file(name, &t, inner);
            let t2 = read_trace(&p).unwrap();
            assert_eq!(t2.intervals, t.intervals, "{name}");
            let report = read_model(&p, 4, ModelKind::States).unwrap();
            assert!(report.gzip, "{name}");
            assert_eq!(report.format, inner, "{name}");
            // Bit-identical to the uncompressed ingest.
            let plain = tmpdir().join(name.trim_end_matches(".gz"));
            write_trace(&t, &plain).unwrap();
            let base = read_model(&plain, 4, ModelKind::States).unwrap();
            assert_bits_equal(&report.model, &base.model, name);
            std::fs::remove_file(&p).ok();
            std::fs::remove_file(&plain).ok();
        }
    }

    #[test]
    fn gzip_content_beats_misleading_extension() {
        // A gzip stream named .ptf still decompresses and parses.
        let t = sample();
        let mut raw = Vec::new();
        binary::write_binary(&t, &mut raw).unwrap();
        let p = tmpdir().join("sneaky.ptf");
        std::fs::write(&p, crate::gzip::gzip_stored(&raw)).unwrap();
        let t2 = read_trace(&p).unwrap();
        assert_eq!(t2.intervals, t.intervals);
        std::fs::remove_file(&p).ok();
    }

    // -- sharding --------------------------------------------------------

    fn opts(shards: usize, workers: usize) -> IngestOptions {
        IngestOptions {
            shards: ShardMode::Fixed(shards),
            max_workers: workers,
            predicate: None,
        }
    }

    fn richer_sample() -> Trace {
        use ocelotl_trace::{PointEvent, PointKind};
        let mut tb = TraceBuilder::new(Hierarchy::flat(3, "p"));
        let a = tb.state("A");
        let b = tb.state("B");
        for i in 0..40u32 {
            let leaf = LeafId(i % 3);
            let st = if i % 2 == 0 { a } else { b };
            let begin = i as f64 * 0.37;
            tb.push_state(leaf, st, begin, begin + 1.1);
            tb.push_point(PointEvent {
                resource: leaf,
                time: begin + 0.2,
                kind: match i % 3 {
                    0 => PointKind::Marker,
                    1 => PointKind::MsgSend {
                        peer: LeafId((i + 1) % 3),
                    },
                    _ => PointKind::MsgRecv {
                        peer: LeafId((i + 2) % 3),
                    },
                },
            });
        }
        tb.build()
    }

    #[test]
    fn forced_shards_are_bit_identical_across_worker_counts() {
        let t = richer_sample();
        for (name, kind) in [
            ("ws.ptf", ModelKind::States),
            ("ws.btf", ModelKind::States),
            ("wd.ptf", ModelKind::Density),
            ("wd.btf", ModelKind::Density),
        ] {
            let p = tmpdir().join(name);
            write_trace(&t, &p).unwrap();
            for s in [2, 3, 5] {
                let one = read_model_with(&p, 6, kind, &opts(s, 1)).unwrap();
                let many = read_model_with(&p, 6, kind, &opts(s, 8)).unwrap();
                assert_eq!(one.shards.len(), s, "{name}/{s}");
                assert_eq!(one.shards, many.shards, "{name}/{s}");
                assert_eq!(
                    (one.intervals, one.points),
                    (many.intervals, many.points),
                    "{name}/{s}"
                );
                assert_bits_equal(&one.model, &many.model, &format!("{name}/{s}"));
            }
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn density_sharding_is_bit_identical_to_sequential() {
        // Density cells are raw event counts before one final
        // normalization: any grouping sums integers exactly, so every
        // forced shard count reproduces the sequential bits.
        let t = richer_sample();
        for name in ["dseq.ptf", "dseq.btf"] {
            let p = tmpdir().join(name);
            write_trace(&t, &p).unwrap();
            let seq = read_model(&p, 5, ModelKind::Density).unwrap();
            for s in 2..=8 {
                let sh = read_model_with(&p, 5, ModelKind::Density, &opts(s, 4)).unwrap();
                assert_bits_equal(&sh.model, &seq.model, &format!("{name}/{s}"));
            }
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn sharded_fingerprint_and_counts_match_sequential() {
        let t = richer_sample();
        for name in ["fps.ptf", "fps.btf"] {
            let p = tmpdir().join(name);
            write_trace(&t, &p).unwrap();
            let seq = read_model(&p, 5, ModelKind::States).unwrap();
            let sh = read_model_with(&p, 5, ModelKind::States, &opts(4, 4)).unwrap();
            assert_eq!((sh.intervals, sh.points), (seq.intervals, seq.points));
            assert_eq!(sh.model.grid(), seq.model.grid(), "{name}");
            assert!(sh.bytes_read >= std::fs::metadata(&p).unwrap().len());
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn sharded_hi_res_keeps_the_refined_grid() {
        let t = richer_sample();
        let p = tmpdir().join("shhi.btf");
        write_trace(&t, &p).unwrap();
        let seq = read_hi_res(&p, 4, ModelKind::States).unwrap();
        let sh = read_hi_res_with(&p, 4, ModelKind::States, &opts(3, 2)).unwrap();
        assert_eq!(sh.model.n_slices(), seq.model.n_slices());
        assert_eq!(sh.model.grid(), seq.model.grid());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn sharded_two_pass_ptf_scans_in_shards() {
        // A range-less PTF big enough to shard: the scan pass must find
        // the same extent the sequential scan does.
        let t = richer_sample();
        let mut buf = Vec::new();
        text::write_text(&t, &mut buf).unwrap();
        let src = String::from_utf8(buf).unwrap();
        let stripped: String = src
            .lines()
            .filter(|l| !l.starts_with("%range"))
            .map(|l| format!("{l}\n"))
            .collect();
        let p = tmpdir().join("norange-sharded.ptf");
        std::fs::write(&p, stripped).unwrap();
        let seq = read_model(&p, 5, ModelKind::States).unwrap();
        assert_eq!(seq.mode, IngestMode::TwoPass);
        let sh = read_model_with(&p, 5, ModelKind::States, &opts(3, 2)).unwrap();
        assert_eq!(sh.mode, IngestMode::TwoPass);
        assert_eq!(sh.model.grid(), seq.model.grid());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn shard_timing_is_recorded_locally_only() {
        let t = richer_sample();
        let p = tmpdir().join("timing.btf");
        write_trace(&t, &p).unwrap();
        let _ = take_last_ingest_timing(); // drain
        let _ = read_model_with(&p, 5, ModelKind::States, &opts(3, 2)).unwrap();
        let timing = take_last_ingest_timing().expect("sharded ingest records timing");
        assert_eq!(timing.shard_nanos.len(), 3);
        assert!(take_last_ingest_timing().is_none(), "take clears");
        std::fs::remove_file(&p).ok();
    }

    // -- multi-file ------------------------------------------------------

    fn rank_trace(leaves: usize, seed: u32) -> Trace {
        let mut tb = TraceBuilder::new(Hierarchy::flat(leaves, &format!("r{seed}-p")));
        let run = tb.state("Running");
        let wait = tb.state("Waiting");
        for i in 0..12u32 {
            let leaf = LeafId(i % leaves as u32);
            let st = if (i + seed).is_multiple_of(2) {
                run
            } else {
                wait
            };
            let begin = (i + seed) as f64 * 0.31;
            tb.push_state(leaf, st, begin, begin + 0.9);
        }
        tb.build()
    }

    fn multi_dir(name: &str) -> std::path::PathBuf {
        let d = tmpdir().join(name);
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn directory_trace_mounts_files_in_sorted_order() {
        let d = multi_dir("mf-basic");
        let t0 = rank_trace(2, 0);
        let t1 = rank_trace(3, 7);
        write_trace(&t0, &d.join("rank0.btf")).unwrap();
        write_trace(&t1, &d.join("rank1.ptf")).unwrap();
        std::fs::write(d.join("README"), "not a trace").unwrap();
        let report = read_model(&d, 4, ModelKind::States).unwrap();
        assert_eq!(report.model.n_leaves(), 5);
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.intervals, 24);
        // Leaves 0..2 belong to rank0, 2..5 to rank1; cells match per-file
        // ingests rebuilt over the union grid.
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn directory_trace_equals_concatenated_single_file_bitwise() {
        // The same events in one file (leaves renumbered to the union
        // layout) must produce the same model bits for both metrics.
        let d = multi_dir("mf-concat");
        let t0 = rank_trace(2, 0);
        let t1 = rank_trace(2, 5);
        write_trace(&t0, &d.join("a.btf")).unwrap();
        write_trace(&t1, &d.join("b.btf")).unwrap();

        for kind in [ModelKind::States, ModelKind::Density] {
            let union = read_model(&d, 4, kind).unwrap();
            // Build the concatenated reference: one trace, leaves 0-1 from
            // a, 2-3 from b, states interned in file order.
            let mut b = HierarchyBuilder::new("mf-concat", "trace");
            let root = b.root();
            graft(&mut b, root, &t0.hierarchy, "a").unwrap();
            graft(&mut b, root, &t1.hierarchy, "b").unwrap();
            let h = b.build().unwrap();
            let mut tb = TraceBuilder::new(h);
            let run = tb.state("Running");
            let wait = tb.state("Waiting");
            let remap = |s: StateId, t: &Trace| {
                if t.states.name(s) == "Running" {
                    run
                } else {
                    wait
                }
            };
            for iv in &t0.intervals {
                tb.push_state(iv.resource, remap(iv.state, &t0), iv.begin, iv.end);
            }
            for iv in &t1.intervals {
                tb.push_state(
                    LeafId(iv.resource.0 + 2),
                    remap(iv.state, &t1),
                    iv.begin,
                    iv.end,
                );
            }
            let combined = tb.build();
            let p = tmpdir().join("mf-concat.btf");
            write_trace(&combined, &p).unwrap();
            let single = read_model(&p, 4, kind).unwrap();
            assert_bits_equal(&union.model, &single.model, &format!("{kind:?}"));
            std::fs::remove_file(&p).ok();
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn directory_hi_res_uses_the_union_shape() {
        let d = multi_dir("mf-hires");
        write_trace(&rank_trace(2, 0), &d.join("a.btf")).unwrap();
        write_trace(&rank_trace(2, 3), &d.join("b.btf")).unwrap();
        let report = read_hi_res(&d, 3, ModelKind::States).unwrap();
        assert_eq!(
            report.model.n_slices(),
            ocelotl_trace::hi_res_slices(3, 4, 2),
            "H derives from union leaves and union declared states"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn empty_directory_is_an_error() {
        let d = multi_dir("mf-empty");
        let err = read_model(&d, 4, ModelKind::States).unwrap_err();
        assert!(err.to_string().contains("no trace files"), "{err}");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn directory_fingerprint_tracks_file_order_and_content() {
        let d = multi_dir("mf-fp");
        write_trace(&rank_trace(2, 0), &d.join("a.btf")).unwrap();
        write_trace(&rank_trace(2, 1), &d.join("b.btf")).unwrap();
        let f1 = hash_trace_input(&d).unwrap();
        // Renaming changes the sort order → the fingerprint changes.
        std::fs::rename(d.join("a.btf"), d.join("z.btf")).unwrap();
        let f2 = hash_trace_input(&d).unwrap();
        assert_ne!(f1, f2);
        std::fs::remove_dir_all(&d).ok();
    }
}
