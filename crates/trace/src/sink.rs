//! Push-based streaming ingestion: the [`EventSink`] trait and its sinks.
//!
//! The paper's pipeline starts with *trace reading* and *microscopic
//! description* — the two rows that dominate Table II. This module turns
//! that front half into a push architecture: a format decoder parses a
//! byte stream and **drives** a sink through three phases
//!
//! ```text
//!            declarations              events                end
//! decoder ──► begin(&StreamHeader) ──► interval()/point()* ──► end()
//! ```
//!
//! so the *reader* (one per format, in `ocelotl-format`) and the *consumer*
//! are decoupled. Consumers provided here:
//!
//! - [`TraceSink`] — full materialization into a [`Trace`] (the classic
//!   path, kept for conversion/round-trip use cases);
//! - [`ModelSink`] — direct metric-aware [`MicroModel`] construction
//!   (states **or** event density) with O(model) memory: events fold into
//!   the `d_x(s,t)` array through a bounded record buffer that is flushed
//!   with a chunked parallel fold over disjoint resource ranges;
//! - [`ScanSink`] — O(1) pass collecting the observed time range and event
//!   counts (the first pass of two-pass ingestion, and `info --stats`);
//! - [`TeeSink`] — drive two sinks from one decode pass.
//!
//! For sharded ingestion, [`ModelSink::finish_partial`] stops before final
//! assembly and yields a [`PartialModel`] — the mergeable raw accumulator.
//! Partials from shards of one stream combine with
//! [`PartialModel::absorb`] (fixed summation order), per-file partials of a
//! multi-file trace graft into a union with [`PartialModel::mount`], and
//! [`PartialModel::into_model`] then runs pseudo-state interning and peak
//! normalization exactly once on the merged result.
//!
//! ## Determinism
//!
//! [`ModelSink`] partitions work by *resource*, so every cell of the model
//! receives its contributions in file order regardless of worker count —
//! the result is bit-identical to a sequential fold over the same stream,
//! and therefore bit-identical to materializing a [`Trace`] first and
//! calling [`MicroModel::from_trace`] on it (sequential path).
//!
//! ## Flow control
//!
//! [`EventSink::begin`] returns `bool`: `false` tells the decoder to stop
//! after the declarations (a clean early exit, not an error). [`ModelSink`]
//! uses this when the header declares no time range — the caller then runs
//! a bounded two-pass scan ([`ScanSink`] first, then [`ModelSink`] with
//! [`ModelSink::with_range`]).

use crate::density::{MARKER_NAME, RECV_NAME, SEND_NAME};
use crate::event::{PointEvent, PointKind, Time};
use crate::hierarchy::{Hierarchy, LeafId};
use crate::micro::MicroModel;
use crate::slicing::TimeGrid;
use crate::state::{StateId, StateRegistry};
use crate::trace::{Trace, TraceBuilder};
use rayon::prelude::*;
use std::fmt;

/// Everything a decoder knows before the first event record.
#[derive(Debug, Clone)]
pub struct StreamHeader {
    /// The resource hierarchy (finalized: no declarations may follow).
    pub hierarchy: Hierarchy,
    /// The declared states.
    pub states: StateRegistry,
    /// Free-form metadata pairs.
    pub metadata: Vec<(String, String)>,
    /// The declared trace time range, if the format carries one
    /// (BTF header, PTF `%range`; Pajé has none).
    pub range: Option<(Time, Time)>,
}

/// A consumer of one decoded event stream. See the module docs for the
/// calling protocol; decoders validate records (resource/state in range,
/// finite times, `end ≥ begin`) *before* invoking the sink, so sink
/// implementations are infallible.
pub trait EventSink {
    /// Declarations are complete. Return `false` to stop the decode after
    /// the header (clean early exit — not an error).
    fn begin(&mut self, header: &StreamHeader) -> bool;

    /// One state interval `[begin, end)` on `resource`.
    fn interval(&mut self, resource: LeafId, state: StateId, begin: Time, end: Time);

    /// One point event (ignored by default: point events do not enter the
    /// state-time microscopic model).
    fn point(&mut self, ev: &PointEvent) {
        let _ = ev;
    }

    /// The stream ended cleanly.
    fn end(&mut self) {}
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

/// Full materialization: collects the stream into a [`Trace`]. This is the
/// memory-heavy O(|events|) path — analysis commands should prefer
/// [`ModelSink`]; the trace sink survives for conversion and round-trip
/// use cases that genuinely need every event.
#[derive(Default)]
pub struct TraceSink {
    builder: Option<TraceBuilder>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The materialized trace; `None` if the decoder never reached
    /// [`EventSink::begin`] (e.g. an empty stream).
    pub fn into_trace(self) -> Option<Trace> {
        self.builder.map(TraceBuilder::build)
    }
}

impl EventSink for TraceSink {
    fn begin(&mut self, header: &StreamHeader) -> bool {
        let mut b = TraceBuilder::new(header.hierarchy.clone()).with_states(header.states.clone());
        for (k, v) in &header.metadata {
            b.push_meta(k, v);
        }
        self.builder = Some(b);
        true
    }

    fn interval(&mut self, resource: LeafId, state: StateId, begin: Time, end: Time) {
        self.builder
            .as_mut()
            .expect("begin before events")
            .push_state(resource, state, begin, end);
    }

    fn point(&mut self, ev: &PointEvent) {
        self.builder
            .as_mut()
            .expect("begin before events")
            .push_point(*ev);
    }
}

// ---------------------------------------------------------------------------
// ScanSink
// ---------------------------------------------------------------------------

/// O(1)-memory scan: observed time extent plus record counts. The extent
/// uses exactly [`TraceBuilder`]'s semantics (intervals extend it by
/// `[begin, end]`, points by their timestamp), so a grid built from it is
/// bit-identical to the one [`MicroModel::from_trace`] would derive.
#[derive(Debug, Default)]
pub struct ScanSink {
    /// The captured header (cloned), once `begin` ran.
    pub header: Option<StreamHeader>,
    /// Number of interval records seen.
    pub intervals: u64,
    /// Number of point records seen.
    pub points: u64,
    t_min: f64,
    t_max: f64,
}

impl ScanSink {
    /// An empty scan.
    pub fn new() -> Self {
        Self {
            header: None,
            intervals: 0,
            points: 0,
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
        }
    }

    /// Observed `[min, max]` extent; `None` when the stream had no events.
    pub fn observed_range(&self) -> Option<(Time, Time)> {
        (self.intervals + self.points > 0).then_some((self.t_min, self.t_max))
    }

    /// Event count in the paper's Table II convention (2 per interval:
    /// enter + leave, plus 1 per point event).
    pub fn event_count(&self) -> u64 {
        self.intervals * 2 + self.points
    }
}

impl EventSink for ScanSink {
    fn begin(&mut self, header: &StreamHeader) -> bool {
        self.header = Some(header.clone());
        true
    }

    fn interval(&mut self, _resource: LeafId, _state: StateId, begin: Time, end: Time) {
        self.intervals += 1;
        self.t_min = self.t_min.min(begin);
        self.t_max = self.t_max.max(end);
    }

    fn point(&mut self, ev: &PointEvent) {
        self.points += 1;
        self.t_min = self.t_min.min(ev.time);
        self.t_max = self.t_max.max(ev.time);
    }
}

// ---------------------------------------------------------------------------
// ModelSink
// ---------------------------------------------------------------------------

/// Which microscopic metric a [`ModelSink`] accumulates. This generalizes
/// [`MicroBuilder`](crate::MicroBuilder) (states only) to every metric the
/// event stream can feed; the third family — variable traces — streams
/// through [`VariableBinner`](crate::variable::VariableBinner), since
/// samples are not part of the state-event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// State-time proportions `d_x(s,t)` (the paper's model).
    States,
    /// Peak-normalized event counts (the predecessor work's model),
    /// matching [`event_density`](crate::density::event_density) bit for
    /// bit: interval enter/leave events plus per-kind point pseudo-states.
    Density,
}

/// Why a [`ModelSink`] refused the stream at `begin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSinkError {
    /// The header declared no time range and none was injected — run a
    /// scan pass first and retry with [`ModelSink::with_range`].
    MissingRange,
    /// The time range has no extent (`hi ≤ lo`): nothing to slice.
    EmptyRange,
    /// The decoder never reached `begin` (empty stream).
    NoHeader,
    /// The model's byte count (`|S|·|X|·|T|` floats) overflows the address
    /// space; nothing was allocated.
    TooLarge,
}

impl fmt::Display for ModelSinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelSinkError::MissingRange => {
                write!(f, "header declares no time range (two-pass scan required)")
            }
            ModelSinkError::EmptyRange => write!(f, "trace has an empty time range"),
            ModelSinkError::NoHeader => write!(f, "stream ended before any declarations"),
            ModelSinkError::TooLarge => {
                write!(
                    f,
                    "the model's size overflows the address space (too many slices)"
                )
            }
        }
    }
}

impl std::error::Error for ModelSinkError {}

/// One buffered interval record awaiting the parallel flush.
#[derive(Clone, Copy)]
struct Rec {
    resource: u32,
    state: u16,
    begin: f64,
    end: f64,
}

/// Records buffered between flushes: bounds streaming memory to
/// O(model + chunk) while amortizing the parallel dispatch (16 Ki records
/// ≈ 384 KiB — small enough that the model dominates the footprint at any
/// real trace size, large enough that flushes stay rare).
const FLUSH_CHUNK: usize = 1 << 14;

struct Accum {
    hierarchy: Hierarchy,
    states: StateRegistry,
    grid: TimeGrid,
    /// `[leaf][state][slice]`, slice fastest — the `MicroModel` layout.
    durations: Vec<f64>,
    pending: Vec<Rec>,
    /// Per-kind point-event counts (`[leaf][slice]`), allocated lazily;
    /// density metric only. Order: send, recv, marker — the intern order
    /// of `event_counts`.
    pseudo: [Option<Vec<f64>>; 3],
    /// Kinds that occurred anywhere in the stream, even outside the grid:
    /// `event_counts` interns a pseudo-state for every kind *present in
    /// the trace* (the column stays all-zero when no event lands in a
    /// slice), and bit-identity requires matching that exactly.
    pseudo_seen: [bool; 3],
}

/// Streaming, metric-aware microscopic-model builder: the sink analysis
/// paths use. Memory is O(|S|·|X|·|T|) plus one bounded record buffer —
/// independent of the event count — and the flush is a chunked parallel
/// fold over disjoint resource ranges (bit-identical to sequential; see
/// the module docs).
pub struct ModelSink {
    kind: ModelKind,
    n_slices: usize,
    /// Refine the grid to [`hi_res_slices`] of the requested resolution
    /// (decided at `begin`, once the header reveals the leaf count).
    hi_res: bool,
    range_override: Option<(Time, Time)>,
    /// Sorted, deduplicated leaf ids to keep; `None` = keep everything.
    resource_filter: Option<Vec<u32>>,
    acc: Option<Accum>,
    refusal: Option<ModelSinkError>,
    intervals: u64,
    points: u64,
}

impl ModelSink {
    /// A sink slicing the declared time range into `n_slices` periods.
    pub fn new(kind: ModelKind, n_slices: usize) -> Self {
        assert!(n_slices >= 1, "need at least one slice");
        Self {
            kind,
            n_slices,
            hi_res: false,
            range_override: None,
            resource_filter: None,
            acc: None,
            refusal: None,
            intervals: 0,
            points: 0,
        }
    }

    /// A sink with an injected time range (the second pass of two-pass
    /// ingestion, or an explicit zoom window): the header's declared range
    /// is ignored.
    pub fn with_range(kind: ModelKind, n_slices: usize, range: (Time, Time)) -> Self {
        Self {
            range_override: Some(range),
            ..Self::new(kind, n_slices)
        }
    }

    /// A sink building the **super-resolution** intermediate for a
    /// requested resolution of `n_slices`: the grid is refined to
    /// [`hi_res_slices`]`(n_slices, n_leaves)` periods once the header is
    /// known, and the caller finishes with [`ModelSink::finish_raw`] (the
    /// density metric stays unnormalized so any coarser model can be
    /// derived later by exact rebinning).
    pub fn hi_res(kind: ModelKind, n_slices: usize) -> Self {
        Self {
            hi_res: true,
            ..Self::new(kind, n_slices)
        }
    }

    /// [`ModelSink::hi_res`] with an injected time range (two-pass
    /// ingestion of range-less formats).
    pub fn hi_res_with_range(kind: ModelKind, n_slices: usize, range: (Time, Time)) -> Self {
        Self {
            hi_res: true,
            range_override: Some(range),
            ..Self::new(kind, n_slices)
        }
    }

    /// `true` when `begin` refused the stream because no time range was
    /// available (the caller should run the two-pass scan).
    pub fn needs_range(&self) -> bool {
        self.refusal == Some(ModelSinkError::MissingRange)
    }

    /// Restrict the model to a set of leaf resources: events on any other
    /// resource contribute nothing to any cell and are not counted.
    /// Filtered point events still record their kind's presence — the
    /// density pseudo-state set is trace-global (see
    /// [`ModelSink::note_point_kinds`]), so a filtered model keeps the
    /// same state axis as an unfiltered one.
    pub fn set_resource_filter(&mut self, resources: &[u32]) {
        let mut keep = resources.to_vec();
        keep.sort_unstable();
        keep.dedup();
        self.resource_filter = Some(keep);
    }

    /// Record point-event kinds as present in the stream without counting
    /// any event. Index-backed readers that skip whole chunks by time
    /// range call this with the skipped chunks' kind masks: `event_counts`
    /// interns a pseudo-state for every kind present *anywhere* in the
    /// trace (even outside the grid), so matching a full decode bit for
    /// bit requires noting the kinds the skipped bytes carried.
    pub fn note_point_kinds(&mut self, send: bool, recv: bool, marker: bool) {
        if let Some(acc) = self.acc.as_mut() {
            acc.pseudo_seen[0] |= send;
            acc.pseudo_seen[1] |= recv;
            acc.pseudo_seen[2] |= marker;
        }
    }

    #[inline]
    fn filtered_out(&self, resource: LeafId) -> bool {
        match &self.resource_filter {
            Some(keep) => keep.binary_search(&resource.0).is_err(),
            None => false,
        }
    }

    /// Interval / point records consumed.
    pub fn counts(&self) -> (u64, u64) {
        (self.intervals, self.points)
    }

    /// Resident footprint of the accumulator in bytes (model array, pseudo
    /// layers, record buffer) — the "peak ingest memory" that replaces the
    /// O(|events|) trace materialization.
    pub fn peak_bytes(&self) -> u64 {
        let f = std::mem::size_of::<f64>() as u64;
        let r = std::mem::size_of::<Rec>() as u64;
        match &self.acc {
            None => 0,
            Some(acc) => {
                let pseudo: u64 = acc
                    .pseudo
                    .iter()
                    .flatten()
                    .map(|v| v.len() as u64 * f)
                    .sum();
                acc.durations.len() as u64 * f + pseudo + acc.pending.capacity() as u64 * r
            }
        }
    }

    /// Finalize: flush the buffer and assemble the model. For the density
    /// metric this merges the point pseudo-states and applies the peak
    /// normalization, reproducing `event_density` exactly.
    pub fn finish(self) -> Result<MicroModel, ModelSinkError> {
        self.finish_inner(true)
    }

    /// Finalize **without** the density peak normalization: the raw
    /// per-cell event counts (pseudo-states merged) for the hi-res
    /// intermediate, from which any coarser density model is derived by
    /// rebinning + normalizing at the target resolution. For the states
    /// metric this equals [`ModelSink::finish`] (durations carry no
    /// normalization).
    pub fn finish_raw(self) -> Result<MicroModel, ModelSinkError> {
        self.finish_inner(false)
    }

    fn finish_inner(self, normalize: bool) -> Result<MicroModel, ModelSinkError> {
        Ok(self.finish_partial()?.into_model(normalize))
    }

    /// Finalize into a **partial model**: the flushed raw accumulator with
    /// pseudo-state interning and peak normalization still pending. This is
    /// the per-shard half of sharded ingestion — partials from shards of
    /// the same stream combine with [`PartialModel::absorb`], and the
    /// finishing steps run exactly once on the merged result, so a merged
    /// model goes through the same final assembly as a sequential one.
    pub fn finish_partial(mut self) -> Result<PartialModel, ModelSinkError> {
        if let Some(reason) = self.refusal {
            return Err(reason);
        }
        let Some(mut acc) = self.acc.take() else {
            return Err(ModelSinkError::NoHeader);
        };
        flush(&mut acc, self.kind);
        Ok(PartialModel {
            kind: self.kind,
            hierarchy: acc.hierarchy,
            states: acc.states,
            grid: acc.grid,
            durations: acc.durations,
            pseudo: acc.pseudo,
            pseudo_seen: acc.pseudo_seen,
            intervals: self.intervals,
            points: self.points,
        })
    }
}

// ---------------------------------------------------------------------------
// PartialModel
// ---------------------------------------------------------------------------

/// A flushed, not-yet-finalized model: the mergeable unit of sharded
/// ingestion.
///
/// A partial holds the raw per-cell accumulations of one shard — durations
/// over the *declared* states, plus the density metric's pseudo-state
/// layers still unmerged and unnormalized. Two combination operations are
/// provided:
///
/// - [`absorb`](PartialModel::absorb) — shards of the **same stream**
///   (identical hierarchy, states, grid): cells sum elementwise. Callers
///   merge shard partials left-to-right in shard order; since the shard
///   plan is a pure function of the trace, that fixed summation order makes
///   the merged result bit-identical at any worker count.
/// - [`mount`](PartialModel::mount) — a **per-file** partial grafted into a
///   multi-file union at a leaf offset: every cell has exactly one
///   contributing file, so the union is exact and order-invariant.
///
/// [`into_model`](PartialModel::into_model) then performs final assembly
/// once — pseudo-state interning and (density) peak normalization — via the
/// same code path a sequential [`ModelSink::finish`] uses.
pub struct PartialModel {
    kind: ModelKind,
    hierarchy: Hierarchy,
    /// Declared states only; pseudo-states are interned at final assembly.
    states: StateRegistry,
    grid: TimeGrid,
    /// `[leaf][declared state][slice]`, slice fastest.
    durations: Vec<f64>,
    pseudo: [Option<Vec<f64>>; 3],
    pseudo_seen: [bool; 3],
    intervals: u64,
    points: u64,
}

impl PartialModel {
    /// An all-zero partial over the given shape — the seed of a multi-file
    /// union (the registry must already contain every state any mounted
    /// file declares, interned in the canonical file order).
    pub fn empty(
        kind: ModelKind,
        hierarchy: Hierarchy,
        states: StateRegistry,
        grid: TimeGrid,
    ) -> Self {
        let size = hierarchy.n_leaves() * states.len() * grid.n_slices();
        Self {
            kind,
            hierarchy,
            states,
            grid,
            durations: vec![0.0; size],
            pseudo: [None, None, None],
            pseudo_seen: [false; 3],
            intervals: 0,
            points: 0,
        }
    }

    /// The metric this partial accumulates.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The time grid (shared by every mergeable partial).
    pub fn grid(&self) -> TimeGrid {
        self.grid
    }

    /// Interval / point records consumed so far (summed across merges).
    pub fn counts(&self) -> (u64, u64) {
        (self.intervals, self.points)
    }

    /// Resident footprint in bytes (durations plus pseudo layers).
    pub fn memory_bytes(&self) -> u64 {
        let f = std::mem::size_of::<f64>() as u64;
        let pseudo: u64 = self
            .pseudo
            .iter()
            .flatten()
            .map(|v| v.len() as u64 * f)
            .sum();
        self.durations.len() as u64 * f + pseudo
    }

    /// Merge a shard of the **same stream**: `other` must have the same
    /// kind, grid and model shape (shards share one header, so a mismatch
    /// is a caller bug and panics). Cells sum elementwise in a fixed
    /// order; pseudo layers add slot-wise and the seen flags union.
    pub fn absorb(&mut self, other: PartialModel) {
        assert_eq!(self.kind, other.kind, "merge across metrics");
        assert_eq!(self.grid, other.grid, "merge across grids");
        assert_eq!(
            self.hierarchy.n_leaves(),
            other.hierarchy.n_leaves(),
            "merge across hierarchies"
        );
        assert_eq!(
            self.states.len(),
            other.states.len(),
            "merge across registries"
        );
        assert_eq!(self.durations.len(), other.durations.len());
        for (d, s) in self.durations.iter_mut().zip(other.durations) {
            *d += s;
        }
        for slot in 0..3 {
            self.pseudo_seen[slot] |= other.pseudo_seen[slot];
        }
        for (mine, theirs) in self.pseudo.iter_mut().zip(other.pseudo) {
            if let Some(layer) = theirs {
                match mine {
                    // `x + 0 = x` exactly (counts are never −0.0), so moving
                    // the layer equals adding it to a fresh zero layer.
                    None => *mine = Some(layer),
                    Some(m) => {
                        for (d, s) in m.iter_mut().zip(layer) {
                            *d += s;
                        }
                    }
                }
            }
        }
        self.intervals += other.intervals;
        self.points += other.points;
    }

    /// Graft a per-file partial into a multi-file union at `leaf_offset`:
    /// the file's leaves land on `leaf_offset..leaf_offset + n`, its
    /// declared states are remapped **by name** into the union registry,
    /// and pseudo layers land slot-wise at the same offset. Every union
    /// cell has exactly one contributing file, so the graft is exact and
    /// the mount order does not affect a single bit.
    pub fn mount(&mut self, other: PartialModel, leaf_offset: usize) {
        assert_eq!(self.kind, other.kind, "mount across metrics");
        assert_eq!(self.grid, other.grid, "mount across grids");
        let n_slices = self.grid.n_slices();
        let n_states = self.states.len();
        let o_states = other.states.len();
        let o_leaves = other.hierarchy.n_leaves();
        assert!(
            leaf_offset + o_leaves <= self.hierarchy.n_leaves(),
            "mounted file exceeds the union hierarchy"
        );
        let remap: Vec<usize> = other
            .states
            .iter()
            .map(|(_, name)| {
                self.states
                    .get(name)
                    .expect("mounted file declares a state missing from the union registry")
                    .index()
            })
            .collect();
        for leaf in 0..o_leaves {
            for (st, &mapped) in remap.iter().enumerate() {
                let src = (leaf * o_states + st) * n_slices;
                let dst = ((leaf_offset + leaf) * n_states + mapped) * n_slices;
                for k in 0..n_slices {
                    self.durations[dst + k] += other.durations[src + k];
                }
            }
        }
        for slot in 0..3 {
            self.pseudo_seen[slot] |= other.pseudo_seen[slot];
            if let Some(layer) = &other.pseudo[slot] {
                let mine = self.pseudo[slot]
                    .get_or_insert_with(|| vec![0.0; self.hierarchy.n_leaves() * n_slices]);
                for leaf in 0..o_leaves {
                    for k in 0..n_slices {
                        mine[(leaf_offset + leaf) * n_slices + k] += layer[leaf * n_slices + k];
                    }
                }
            }
        }
        self.intervals += other.intervals;
        self.points += other.points;
    }

    /// Final assembly, run exactly once on the fully merged partial: for
    /// the density metric, intern the pseudo-states and (when `normalize`)
    /// apply the peak normalization — the same steps, in the same code, a
    /// sequential [`ModelSink::finish`] performs.
    pub fn into_model(self, normalize: bool) -> MicroModel {
        let acc = Accum {
            hierarchy: self.hierarchy,
            states: self.states,
            grid: self.grid,
            durations: self.durations,
            pending: Vec::new(),
            pseudo: self.pseudo,
            pseudo_seen: self.pseudo_seen,
        };
        match self.kind {
            ModelKind::States => {
                MicroModel::from_dense(acc.hierarchy, acc.states, acc.grid, acc.durations)
            }
            ModelKind::Density => finish_density(acc, normalize),
        }
    }
}

impl EventSink for ModelSink {
    fn begin(&mut self, header: &StreamHeader) -> bool {
        let range = self.range_override.or(header.range);
        let Some((lo, hi)) = range else {
            self.refusal = Some(ModelSinkError::MissingRange);
            return false;
        };
        let valid = lo.is_finite() && hi.is_finite() && hi > lo;
        if !valid {
            self.refusal = Some(ModelSinkError::EmptyRange);
            return false;
        }
        let n_slices = if self.hi_res {
            crate::slicing::hi_res_slices(
                self.n_slices,
                header.hierarchy.n_leaves(),
                header.states.len(),
            )
        } else {
            self.n_slices
        };
        let size = header
            .hierarchy
            .n_leaves()
            .checked_mul(header.states.len())
            .and_then(|cells| cells.checked_mul(n_slices))
            .filter(|&cells| cells.checked_mul(std::mem::size_of::<f64>()).is_some());
        let Some(size) = size else {
            self.refusal = Some(ModelSinkError::TooLarge);
            return false;
        };
        let grid = TimeGrid::new(lo, hi, n_slices);
        self.acc = Some(Accum {
            hierarchy: header.hierarchy.clone(),
            states: header.states.clone(),
            grid,
            durations: vec![0.0; size],
            pending: Vec::with_capacity(FLUSH_CHUNK),
            pseudo: [None, None, None],
            pseudo_seen: [false; 3],
        });
        true
    }

    fn interval(&mut self, resource: LeafId, state: StateId, begin: Time, end: Time) {
        if self.filtered_out(resource) {
            return;
        }
        let Some(acc) = self.acc.as_mut() else {
            return;
        };
        self.intervals += 1;
        acc.pending.push(Rec {
            resource: resource.0,
            state: state.0,
            begin,
            end,
        });
        if acc.pending.len() >= FLUSH_CHUNK {
            flush(acc, self.kind);
        }
    }

    fn point(&mut self, ev: &PointEvent) {
        let slot = match ev.kind {
            PointKind::MsgSend { .. } => 0,
            PointKind::MsgRecv { .. } => 1,
            PointKind::Marker => 2,
        };
        if self.filtered_out(ev.resource) {
            // Kind presence is trace-global: keep the pseudo-state axis
            // even though the event itself is dropped uncounted.
            if self.kind == ModelKind::Density {
                if let Some(acc) = self.acc.as_mut() {
                    acc.pseudo_seen[slot] = true;
                }
            }
            return;
        }
        let Some(acc) = self.acc.as_mut() else {
            return;
        };
        self.points += 1;
        if self.kind != ModelKind::Density {
            return;
        }
        let grid = acc.grid;
        acc.pseudo_seen[slot] = true;
        if ev.time < grid.start() || ev.time > grid.end() {
            return;
        }
        let n_slices = grid.n_slices();
        let counts =
            acc.pseudo[slot].get_or_insert_with(|| vec![0.0; acc.hierarchy.n_leaves() * n_slices]);
        counts[ev.resource.index() * n_slices + grid.slice_of(ev.time)] += 1.0;
    }
}

/// Apply the buffered records: a chunked parallel fold over disjoint
/// contiguous resource ranges. Each worker owns one slab of the durations
/// array and scans the whole buffer for its leaves, so every cell receives
/// its contributions in stream order — the result is bit-identical to a
/// sequential fold for any worker count.
fn flush(acc: &mut Accum, kind: ModelKind) {
    if acc.pending.is_empty() {
        return;
    }
    let n_leaves = acc.hierarchy.n_leaves();
    let n_states = acc.states.len();
    let n_slices = acc.grid.n_slices();
    let row = n_states * n_slices;
    if row == 0 || n_leaves == 0 {
        // No (leaf, state) cells can exist; decoders validate records
        // against the header, so nothing could have been buffered.
        acc.pending.clear();
        return;
    }
    let workers = rayon::max_threads().clamp(1, n_leaves);
    let leaves_per = n_leaves.div_ceil(workers);
    let grid = acc.grid;
    let pending = &acc.pending;
    let slabs: Vec<(usize, &mut [f64])> = acc
        .durations
        .chunks_mut(leaves_per * row)
        .enumerate()
        .map(|(i, slab)| (i * leaves_per, slab))
        .collect();
    slabs.into_par_iter().for_each(|(first_leaf, slab)| {
        let leaf_end = first_leaf + slab.len() / row;
        for rec in pending {
            let leaf = rec.resource as usize;
            if leaf < first_leaf || leaf >= leaf_end {
                continue;
            }
            let base = ((leaf - first_leaf) * n_states + rec.state as usize) * n_slices;
            fold_interval(
                kind,
                &mut slab[base..base + n_slices],
                &grid,
                rec.begin,
                rec.end,
            );
        }
    });
    acc.pending.clear();
}

/// Fold one interval record into a single `(leaf, state)` time series over
/// `grid`. This is **the** per-record accumulation kernel: the streaming
/// flush above and the live append path (`HiResModel::append`) both call
/// it, so an incrementally grown model and a batch ingest of the same
/// stream are literally the same computation — the bit-identity argument
/// reduces to "same grid, same record order".
///
/// For [`ModelKind::States`] the interval's overlap with each slice is
/// prorated in; for [`ModelKind::Density`] the enter and leave boundary
/// events each count 1.0 in their slice (either may fall outside the
/// grid independently).
#[inline]
pub fn fold_interval(kind: ModelKind, row: &mut [f64], grid: &TimeGrid, begin: Time, end: Time) {
    match kind {
        ModelKind::States => {
            for (slice, overlap) in grid.prorate(begin, end) {
                row[slice] += overlap;
            }
        }
        ModelKind::Density => {
            for ts in [begin, end] {
                if ts >= grid.start() && ts <= grid.end() {
                    row[grid.slice_of(ts)] += 1.0;
                }
            }
        }
    }
}

/// Merge the pseudo-state layers and (when `normalize`) apply the peak
/// normalization — the streaming equivalent of `event_counts` +
/// `event_density`. `normalize: false` leaves the raw counts in place
/// for the hi-res intermediate.
fn finish_density(mut acc: Accum, normalize: bool) -> MicroModel {
    let n_leaves = acc.hierarchy.n_leaves();
    let n_slices = acc.grid.n_slices();
    // Intern pseudo-states for the kinds that occurred, in the same order
    // `event_counts` uses (send, recv, marker), then widen the array.
    let names = [SEND_NAME, RECV_NAME, MARKER_NAME];
    let mut columns: Vec<(StateId, Vec<f64>)> = Vec::new();
    for (slot, name) in names.into_iter().enumerate() {
        if acc.pseudo_seen[slot] {
            // An all-zero layer when every event of this kind fell outside
            // the grid — exactly what `event_counts` produces.
            let v = acc.pseudo[slot]
                .take()
                .unwrap_or_else(|| vec![0.0; n_leaves * n_slices]);
            columns.push((acc.states.intern(name), v));
        }
    }
    let n_old = acc.durations.len() / (n_leaves * n_slices).max(1);
    let n_states = acc.states.len();
    let mut counts = vec![0.0f64; n_leaves * n_states * n_slices];
    for leaf in 0..n_leaves {
        let src = leaf * n_old * n_slices;
        let dst = leaf * n_states * n_slices;
        counts[dst..dst + n_old * n_slices]
            .copy_from_slice(&acc.durations[src..src + n_old * n_slices]);
        for (sid, layer) in &columns {
            let dst = (leaf * n_states + sid.index()) * n_slices;
            for (t, &c) in layer[leaf * n_slices..(leaf + 1) * n_slices]
                .iter()
                .enumerate()
            {
                // `+=`: a declared state may share a pseudo-state's name,
                // in which case `event_counts` merges them too.
                counts[dst + t] += c;
            }
        }
    }
    // Peak normalization, exactly as `event_density` (one shared kernel).
    if normalize {
        crate::density::peak_normalize(&mut counts, acc.grid.slice_duration());
    }
    MicroModel::from_dense(acc.hierarchy, acc.states, acc.grid, counts)
}

// ---------------------------------------------------------------------------
// TeeSink
// ---------------------------------------------------------------------------

/// Drive two sinks from one decode pass (e.g. build the model *and*
/// count events, or materialize a trace while aggregating). Each side's
/// `begin` decision is honored independently; the decode continues while
/// at least one side wants the events.
pub struct TeeSink<A, B> {
    a: A,
    b: B,
    on_a: bool,
    on_b: bool,
}

impl<A: EventSink, B: EventSink> TeeSink<A, B> {
    /// Tee into `a` and `b`.
    pub fn new(a: A, b: B) -> Self {
        Self {
            a,
            b,
            on_a: false,
            on_b: false,
        }
    }

    /// The two sinks back.
    pub fn into_inner(self) -> (A, B) {
        (self.a, self.b)
    }
}

impl<A: EventSink, B: EventSink> EventSink for TeeSink<A, B> {
    fn begin(&mut self, header: &StreamHeader) -> bool {
        self.on_a = self.a.begin(header);
        self.on_b = self.b.begin(header);
        self.on_a || self.on_b
    }

    fn interval(&mut self, resource: LeafId, state: StateId, begin: Time, end: Time) {
        if self.on_a {
            self.a.interval(resource, state, begin, end);
        }
        if self.on_b {
            self.b.interval(resource, state, begin, end);
        }
    }

    fn point(&mut self, ev: &PointEvent) {
        if self.on_a {
            self.a.point(ev);
        }
        if self.on_b {
            self.b.point(ev);
        }
    }

    fn end(&mut self) {
        if self.on_a {
            self.a.end();
        }
        if self.on_b {
            self.b.end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::event_density;
    use crate::event::PointKind;

    fn header(n_leaves: usize, state_names: &[&str], range: Option<(f64, f64)>) -> StreamHeader {
        StreamHeader {
            hierarchy: Hierarchy::flat(n_leaves, "p"),
            states: StateRegistry::from_names(state_names.iter().copied()),
            metadata: vec![("app".into(), "sink test".into())],
            range,
        }
    }

    /// Replay a trace's events through a sink, as a decoder would.
    fn replay<S: EventSink>(trace: &Trace, range: Option<(f64, f64)>, sink: &mut S) -> bool {
        let h = StreamHeader {
            hierarchy: trace.hierarchy.clone(),
            states: trace.states.clone(),
            metadata: trace.metadata.clone(),
            range,
        };
        if !sink.begin(&h) {
            return false;
        }
        for iv in &trace.intervals {
            sink.interval(iv.resource, iv.state, iv.begin, iv.end);
        }
        for p in &trace.points {
            sink.point(p);
        }
        sink.end();
        true
    }

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new(Hierarchy::flat(3, "p"));
        let run = b.state("Run");
        let wait = b.state("Wait");
        b.push_state(LeafId(0), run, 0.0, 4.0);
        b.push_state(LeafId(0), wait, 4.0, 7.0);
        b.push_state(LeafId(1), run, 1.0, 9.5);
        b.push_state(LeafId(2), wait, 0.5, 3.25);
        b.push_point(PointEvent {
            resource: LeafId(1),
            time: 2.5,
            kind: PointKind::MsgSend { peer: LeafId(2) },
        });
        b.push_point(PointEvent {
            resource: LeafId(2),
            time: 2.75,
            kind: PointKind::MsgRecv { peer: LeafId(1) },
        });
        b.push_meta("app", "sink test");
        b.build()
    }

    fn assert_models_bit_identical(a: &MicroModel, b: &MicroModel) {
        assert_eq!(a.n_leaves(), b.n_leaves());
        assert_eq!(a.n_states(), b.n_states());
        assert_eq!(a.n_slices(), b.n_slices());
        assert_eq!(a.grid(), b.grid());
        for l in 0..a.n_leaves() {
            for x in 0..a.n_states() {
                for t in 0..a.n_slices() {
                    let (da, db) = (
                        a.duration(LeafId(l as u32), StateId(x as u16), t),
                        b.duration(LeafId(l as u32), StateId(x as u16), t),
                    );
                    assert_eq!(
                        da.to_bits(),
                        db.to_bits(),
                        "cell ({l},{x},{t}): {da} vs {db}"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_sink_materializes_everything() {
        let t = sample_trace();
        let mut sink = TraceSink::new();
        assert!(replay(&t, t.time_range(), &mut sink));
        let back = sink.into_trace().unwrap();
        assert_eq!(back.intervals, t.intervals);
        assert_eq!(back.points, t.points);
        assert_eq!(back.meta("app"), Some("sink test"));
        assert_eq!(back.time_range(), t.time_range());
    }

    #[test]
    fn model_sink_states_matches_from_trace_bitwise() {
        let t = sample_trace();
        let mut sink = ModelSink::new(ModelKind::States, 7);
        assert!(replay(&t, t.time_range(), &mut sink));
        let streamed = sink.finish().unwrap();
        let batch = MicroModel::from_trace(&t, 7).unwrap();
        assert_models_bit_identical(&streamed, &batch);
    }

    #[test]
    fn model_sink_density_matches_event_density_bitwise() {
        let t = sample_trace();
        let (lo, hi) = t.time_range().unwrap();
        let grid = TimeGrid::new(lo, hi, 9);
        let mut sink = ModelSink::new(ModelKind::Density, 9);
        assert!(replay(&t, Some((lo, hi)), &mut sink));
        let streamed = sink.finish().unwrap();
        let batch = event_density(&t, grid);
        assert_eq!(
            streamed.states().get("evt:send"),
            batch.states().get("evt:send")
        );
        assert_models_bit_identical(&streamed, &batch);
    }

    #[test]
    fn density_interns_pseudo_states_for_out_of_grid_points() {
        // `event_counts` interns a pseudo-state for every kind present in
        // the trace even when all its events fall outside the grid (the
        // column is all-zero); the sink must match that bit for bit.
        let mut b = TraceBuilder::new(Hierarchy::flat(2, "p"));
        let s = b.state("S");
        b.push_state(LeafId(0), s, 0.0, 4.0);
        b.push_point(PointEvent {
            resource: LeafId(1),
            time: 20.0, // outside the [0, 4] window below
            kind: PointKind::MsgSend { peer: LeafId(0) },
        });
        let t = b.build();
        let grid = TimeGrid::new(0.0, 4.0, 4);
        let mut sink = ModelSink::with_range(ModelKind::Density, 4, (0.0, 4.0));
        assert!(replay(&t, None, &mut sink));
        let streamed = sink.finish().unwrap();
        let batch = crate::density::event_density(&t, grid);
        assert!(streamed.states().get("evt:send").is_some());
        assert_models_bit_identical(&streamed, &batch);
    }

    #[test]
    fn model_sink_is_bit_stable_across_thread_counts() {
        // Enough records to cross the flush boundary at least twice.
        let mut b = TraceBuilder::new(Hierarchy::flat(5, "p"));
        let s = b.state("S");
        let n = 3 * FLUSH_CHUNK / 2;
        for i in 0..n {
            let t0 = i as f64 * 1e-3;
            b.push_state(LeafId((i % 5) as u32), s, t0, t0 + 0.37e-3);
        }
        let t = b.build();

        let run = |threads: usize| {
            rayon::set_max_threads(threads);
            let mut sink = ModelSink::new(ModelKind::States, 16);
            assert!(replay(&t, t.time_range(), &mut sink));
            sink.finish().unwrap()
        };
        let seq = run(1);
        let par = run(8);
        rayon::set_max_threads(8);
        assert_models_bit_identical(&seq, &par);
        // And both match the sequential batch builder.
        let batch = {
            let grid = *seq.grid();
            let mut mb = crate::MicroBuilder::new(t.hierarchy.clone(), t.states.clone(), grid);
            for iv in &t.intervals {
                mb.add(iv.resource, iv.state, iv.begin, iv.end);
            }
            mb.finish()
        };
        assert_models_bit_identical(&seq, &batch);
    }

    #[test]
    fn model_sink_without_range_asks_for_two_pass() {
        let mut sink = ModelSink::new(ModelKind::States, 4);
        assert!(!sink.begin(&header(2, &["S"], None)));
        assert!(sink.needs_range());
        assert_eq!(sink.finish().unwrap_err(), ModelSinkError::MissingRange);
    }

    #[test]
    fn model_sink_rejects_empty_range() {
        let mut sink = ModelSink::new(ModelKind::States, 4);
        assert!(!sink.begin(&header(2, &["S"], Some((3.0, 3.0)))));
        assert!(!sink.needs_range());
        assert_eq!(sink.finish().unwrap_err(), ModelSinkError::EmptyRange);
    }

    #[test]
    fn model_sink_range_override_wins() {
        let t = sample_trace();
        let mut sink = ModelSink::with_range(ModelKind::States, 5, (0.0, 10.0));
        assert!(replay(&t, None, &mut sink));
        let m = sink.finish().unwrap();
        assert_eq!(m.grid().start(), 0.0);
        assert_eq!(m.grid().end(), 10.0);
    }

    #[test]
    fn model_sink_reports_counts_and_footprint() {
        let t = sample_trace();
        let mut sink = ModelSink::new(ModelKind::States, 5);
        assert!(replay(&t, t.time_range(), &mut sink));
        assert_eq!(sink.counts(), (4, 2));
        // 3 leaves × 2 states × 5 slices × 8 bytes plus the record buffer.
        assert!(sink.peak_bytes() >= 3 * 2 * 5 * 8);
        let m = sink.finish().unwrap();
        assert_eq!(m.n_slices(), 5);
    }

    #[test]
    fn hi_res_sink_refines_the_grid_and_skips_normalization() {
        let t = sample_trace();
        let (lo, hi) = t.time_range().unwrap();

        // States: the grid refines to hi_res_slices(n, |S|) periods.
        let mut sink = ModelSink::hi_res(ModelKind::States, 7);
        assert!(replay(&t, Some((lo, hi)), &mut sink));
        let raw = sink.finish_raw().unwrap();
        assert_eq!(
            raw.n_slices(),
            crate::slicing::hi_res_slices(7, 3, 2),
            "hi-res grid"
        );
        assert_eq!(raw.grid().start(), lo);
        assert_eq!(raw.grid().end(), hi);
        // Total mass is conserved by refinement (same prorated intervals).
        let expected: f64 = t.intervals.iter().map(|iv| iv.duration()).sum();
        assert!((raw.grand_total() - expected).abs() < 1e-9);

        // Density raw: whole event counts, no peak normalization.
        let mut sink = ModelSink::hi_res(ModelKind::Density, 7);
        assert!(replay(&t, Some((lo, hi)), &mut sink));
        let raw = sink.finish_raw().unwrap();
        assert!(raw.states().get("evt:send").is_some());
        let total: f64 = (0..raw.n_leaves())
            .flat_map(|l| (0..raw.n_states()).map(move |x| (l, x)))
            .map(|(l, x)| {
                raw.series(LeafId(l as u32), StateId(x as u16))
                    .iter()
                    .sum::<f64>()
            })
            .sum();
        // 4 intervals × 2 boundary events + 2 point events = 10 counts.
        assert_eq!(total, 10.0, "raw density cells are unscaled counts");
    }

    /// Replay only a contiguous sub-range of the trace's records (intervals
    /// then points, file order) — one "shard" of the stream.
    fn replay_shard<S: EventSink>(
        trace: &Trace,
        range: Option<(f64, f64)>,
        lo: usize,
        hi: usize,
        sink: &mut S,
    ) {
        let h = StreamHeader {
            hierarchy: trace.hierarchy.clone(),
            states: trace.states.clone(),
            metadata: trace.metadata.clone(),
            range,
        };
        assert!(sink.begin(&h));
        for (i, iv) in trace.intervals.iter().enumerate() {
            if (lo..hi).contains(&i) {
                sink.interval(iv.resource, iv.state, iv.begin, iv.end);
            }
        }
        let n_iv = trace.intervals.len();
        for (i, p) in trace.points.iter().enumerate() {
            if (lo..hi).contains(&(n_iv + i)) {
                sink.point(p);
            }
        }
        sink.end();
    }

    #[test]
    fn density_absorb_matches_sequential_at_any_split() {
        // Density cells are integer event counts: f64 addition of integers
        // is exact, so a shard merge equals the sequential fold bitwise at
        // *every* split point.
        let t = sample_trace();
        let (lo, hi) = t.time_range().unwrap();
        let mut seq = ModelSink::new(ModelKind::Density, 9);
        assert!(replay(&t, Some((lo, hi)), &mut seq));
        let seq = seq.finish().unwrap();
        let total = t.intervals.len() + t.points.len();
        for cut in 0..=total {
            let mut a = ModelSink::new(ModelKind::Density, 9);
            let mut b = ModelSink::new(ModelKind::Density, 9);
            replay_shard(&t, Some((lo, hi)), 0, cut, &mut a);
            replay_shard(&t, Some((lo, hi)), cut, total, &mut b);
            let mut merged = a.finish_partial().unwrap();
            merged.absorb(b.finish_partial().unwrap());
            assert_eq!(merged.counts(), (4, 2));
            assert_models_bit_identical(&merged.into_model(true), &seq);
        }
    }

    #[test]
    fn states_absorb_matches_sequential_on_disjoint_resources() {
        // When shards touch disjoint resources every cell has exactly one
        // contributor (`x + 0 = x` exactly), so the merge is bit-identical
        // to the sequential fold even for the f64 duration sums.
        let t = sample_trace();
        let (lo, hi) = t.time_range().unwrap();
        let mut seq = ModelSink::new(ModelKind::States, 7);
        assert!(replay(&t, Some((lo, hi)), &mut seq));
        let seq = seq.finish().unwrap();

        let mut parts = Vec::new();
        for leaf in 0..3u32 {
            let mut sink = ModelSink::new(ModelKind::States, 7);
            let h = StreamHeader {
                hierarchy: t.hierarchy.clone(),
                states: t.states.clone(),
                metadata: t.metadata.clone(),
                range: Some((lo, hi)),
            };
            assert!(sink.begin(&h));
            for iv in t.intervals.iter().filter(|iv| iv.resource.0 == leaf) {
                sink.interval(iv.resource, iv.state, iv.begin, iv.end);
            }
            sink.end();
            parts.push(sink.finish_partial().unwrap());
        }
        // Merge in *reverse* order: disjoint contributions are order-free.
        let mut merged = parts.pop().unwrap();
        while let Some(p) = parts.pop() {
            merged.absorb(p);
        }
        assert_models_bit_identical(&merged.into_model(true), &seq);
    }

    #[test]
    fn absorb_is_a_left_fold_over_shard_order() {
        // merge(merge(A, B), C) must equal folding [A, B, C] — the fixed
        // summation order the sharded reader relies on.
        let t = sample_trace();
        let (lo, hi) = t.time_range().unwrap();
        let total = t.intervals.len() + t.points.len();
        let shard = |lo_i: usize, hi_i: usize| {
            let mut s = ModelSink::new(ModelKind::States, 7);
            replay_shard(&t, Some((lo, hi)), lo_i, hi_i, &mut s);
            s.finish_partial().unwrap()
        };
        let mut paired = shard(0, 2);
        paired.absorb(shard(2, 4));
        paired.absorb(shard(4, total));
        let mut folded = shard(0, 2);
        for (a, b) in [(2, 4), (4, total)] {
            folded.absorb(shard(a, b));
        }
        assert_models_bit_identical(&paired.into_model(true), &folded.into_model(true));
    }

    #[test]
    fn mount_grafts_files_into_a_union_bitwise() {
        // Two single-file traces mounted under a union hierarchy must equal
        // replaying the combined stream over that union — for both metrics,
        // and regardless of mount order.
        let mk_file = |state: &str, leaf_times: &[(u32, f64, f64)]| {
            let mut b = TraceBuilder::new(Hierarchy::flat(2, "p"));
            let s = b.state(state);
            for &(leaf, t0, t1) in leaf_times {
                b.push_state(LeafId(leaf), s, t0, t1);
            }
            b.push_point(PointEvent {
                resource: LeafId(0),
                time: leaf_times[0].1,
                kind: PointKind::Marker,
            });
            b.build()
        };
        let f0 = mk_file("Run", &[(0, 0.0, 3.0), (1, 1.0, 4.0)]);
        let f1 = mk_file("Wait", &[(0, 0.5, 2.5), (1, 2.0, 6.0)]);
        let range = (0.0, 6.0);
        let grid = TimeGrid::new(range.0, range.1, 8);

        // Union shape: 4 leaves, states interned in file order.
        let mut union_h = crate::hierarchy::HierarchyBuilder::new("traces", "trace");
        for (i, f) in [&f0, &f1].into_iter().enumerate() {
            let root = union_h.add_child(union_h.root(), &format!("file{i}"), "file");
            for leaf in 0..f.hierarchy.n_leaves() {
                union_h.add_child(root, &format!("p{leaf}"), "p");
            }
        }
        let union_h = union_h.build().unwrap();
        let mut union_states = StateRegistry::new();
        for f in [&f0, &f1] {
            for (_, name) in f.states.iter() {
                union_states.intern(name);
            }
        }

        for kind in [ModelKind::States, ModelKind::Density] {
            let part_of = |f: &Trace| {
                let mut sink = ModelSink::with_range(kind, 8, range);
                assert!(replay(f, None, &mut sink));
                sink.finish_partial().unwrap()
            };
            // Reference: one combined stream over the union hierarchy.
            let mut seq = ModelSink::with_range(kind, 8, range);
            let h = StreamHeader {
                hierarchy: union_h.clone(),
                states: union_states.clone(),
                metadata: Vec::new(),
                range: None,
            };
            assert!(seq.begin(&h));
            for (off, f) in [(0u32, &f0), (2u32, &f1)] {
                for iv in &f.intervals {
                    let sid = union_states.get(f.states.name(iv.state)).unwrap();
                    seq.interval(LeafId(iv.resource.0 + off), sid, iv.begin, iv.end);
                }
                for p in &f.points {
                    let mut p = *p;
                    p.resource = LeafId(p.resource.0 + off);
                    seq.point(&p);
                }
            }
            seq.end();
            let seq = seq.finish().unwrap();

            for order in [[0usize, 1], [1, 0]] {
                let mut union =
                    PartialModel::empty(kind, union_h.clone(), union_states.clone(), grid);
                for &i in &order {
                    let (f, off) = if i == 0 { (&f0, 0) } else { (&f1, 2) };
                    union.mount(part_of(f), off);
                }
                assert_models_bit_identical(&union.into_model(true), &seq);
            }
        }
    }

    #[test]
    fn scan_sink_tracks_range_and_counts() {
        let t = sample_trace();
        let mut scan = ScanSink::new();
        assert!(replay(&t, None, &mut scan));
        assert_eq!(scan.observed_range(), t.time_range());
        assert_eq!(scan.intervals, 4);
        assert_eq!(scan.points, 2);
        assert_eq!(scan.event_count() as usize, t.event_count());
        assert!(scan.header.is_some());
    }

    #[test]
    fn scan_sink_empty_stream_has_no_range() {
        let t = TraceBuilder::new(Hierarchy::flat(1, "p")).build();
        let mut scan = ScanSink::new();
        assert!(replay(&t, None, &mut scan));
        assert_eq!(scan.observed_range(), None);
    }

    #[test]
    fn tee_sink_feeds_both_sides() {
        let t = sample_trace();
        let mut tee = TeeSink::new(ScanSink::new(), ModelSink::new(ModelKind::States, 6));
        assert!(replay(&t, t.time_range(), &mut tee));
        let (scan, model) = tee.into_inner();
        assert_eq!(scan.intervals, 4);
        let m = model.finish().unwrap();
        assert_models_bit_identical(&m, &MicroModel::from_trace(&t, 6).unwrap());
    }

    #[test]
    fn tee_sink_continues_when_one_side_stops() {
        let t = sample_trace();
        // The model side has no range and stops; the scan side continues.
        let mut tee = TeeSink::new(ModelSink::new(ModelKind::States, 6), ScanSink::new());
        assert!(replay(&t, None, &mut tee));
        let (model, scan) = tee.into_inner();
        assert!(model.needs_range());
        assert_eq!(scan.observed_range(), t.time_range());
    }
}
