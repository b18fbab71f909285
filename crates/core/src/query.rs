//! The typed query protocol: one public surface for every analysis.
//!
//! The paper's workflow is interactive — an analyst repeatedly re-queries
//! partitions at different `p`, zooms, inspects and re-renders over one
//! trace — so the analysis surface is modeled as an explicit, serializable
//! request/reply protocol instead of ad-hoc function calls:
//!
//! * [`AnalysisRequest`] — every question a client can ask, one enum;
//! * [`AnalysisReply`] — every answer, fully self-contained (a reply can
//!   be printed, rendered or diffed without access to the trace, the model
//!   or the cube);
//! * [`QueryError`] — every way a request can fail;
//! * [`QueryEngine`] — executes any request against an
//!   [`AnalysisSession`], inheriting all of its memoization (warm sessions
//!   answer repeated queries with zero DP runs and zero trace reads).
//!
//! The CLI's analysis commands, the `ocelotl serve` server and the
//! `ocelotl query` client are all thin clients of this one protocol; the
//! JSON codec lives in `ocelotl-format::json`.
//!
//! **Determinism.** Every reply field is a pure function of the trace
//! bytes and the request parameters — no wall-clock timings, no
//! cold/warm provenance. That is what makes the cold CLI path, a warm
//! cached run and a long-lived server answer byte-identically.
//!
//! ```
//! use ocelotl_core::query::{AnalysisRequest, AnalysisReply, QueryEngine};
//! use ocelotl_core::{AnalysisSession, OwnedSource, SessionConfig};
//! use ocelotl_trace::synthetic::fig3_model;
//!
//! let model = fig3_model(); // 12 resources × 20 slices
//! let session = AnalysisSession::new(
//!     OwnedSource::new(model, 42),
//!     SessionConfig { n_slices: 20, ..SessionConfig::default() },
//! );
//! let mut engine = QueryEngine::new(session);
//!
//! let reply = engine
//!     .execute(&AnalysisRequest::Aggregate {
//!         p: 0.5,
//!         coarse: false,
//!         compare: false,
//!         diff_p: None,
//!     })
//!     .unwrap();
//! let AnalysisReply::Aggregate(agg) = reply else { unreachable!() };
//! assert!(agg.summary.n_areas < 240, "fewer aggregates than cells");
//! assert_eq!(agg.areas.len(), agg.summary.n_areas);
//! ```

use crate::analysis::compare_partitions;
use crate::cube::{backend_footprint, CubeCore, QualityCube};
use crate::inspect::{area_at, inspect_area};
use crate::onedim::product_aggregation;
use crate::partition::Partition;
use crate::pvalues::significant_ps;
use crate::quality::quality;
use crate::session::{validate_p, AnalysisSession, SessionError};
use crate::visual::{visually_aggregate, VisualMark};
use ocelotl_trace::{Hierarchy, LeafId, MicroModel, StateRegistry, TimeGrid};
use std::fmt;

/// Version of the request/reply protocol. Bumped on any incompatible
/// change; the JSON codec rejects envelopes carrying a different version.
pub const PROTOCOL_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Every question a client can ask about one analyzed trace.
///
/// Requests are deliberately *analysis-level*: presentation concerns
/// (column widths, SVG geometry, top-N truncation) stay client-side, so
/// one reply serves any front end.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisRequest {
    /// Shape of the analyzed model: dimensions, states, time extent.
    Describe,
    /// The optimal partition at trade-off `p` (Algorithm 1) with quality
    /// measures and one row per aggregate.
    Aggregate {
        /// Trade-off parameter in `[0, 1]`.
        p: f64,
        /// Prefer the coarsest partition among pIC ties.
        coarse: bool,
        /// Also score the §III.D baselines at the same `p`.
        compare: bool,
        /// Also quantify the overview change towards a second `p`.
        diff_p: Option<f64>,
    },
    /// The significant trade-off levels (the slider stops) with per-level
    /// quality columns.
    Significant {
        /// Dichotomy resolution on `p`, in `(0, 1)`.
        resolution: f64,
    },
    /// The §V.B interaction loop: significant levels plus re-aggregations
    /// across an even `p` grid.
    Sweep {
        /// Dichotomy resolution on `p`, in `(0, 1)`.
        resolution: f64,
        /// Grid points are `k / steps` for `k in 0..=steps` (0: skip).
        steps: usize,
    },
    /// Just the significant `p` boundary values.
    PValues {
        /// Dichotomy resolution on `p`, in `(0, 1)`.
        resolution: f64,
    },
    /// The aggregate of the optimal partition covering one microscopic
    /// cell (the paper's §VI "retrieve the data behind a rectangle").
    Inspect {
        /// Leaf resource index.
        leaf: usize,
        /// Time slice index.
        slice: usize,
        /// Trade-off parameter in `[0, 1]`.
        p: f64,
        /// Prefer the coarsest partition among pIC ties.
        coarse: bool,
    },
    /// A fully drawable overview at `p`: partition + visual aggregation +
    /// everything a renderer needs (states, clusters, leaf spans).
    RenderOverview {
        /// Trade-off parameter in `[0, 1]`.
        p: f64,
        /// Prefer the coarsest partition among pIC ties.
        coarse: bool,
        /// Visual-aggregation threshold in leaf rows (0: draw every data
        /// aggregate as-is). For a canvas of height `H` px and a pixel
        /// threshold `θ`, pass `θ / (H / |S|)`.
        min_rows: f64,
        /// `Some(resolution)`: draw the partition of the *significant
        /// level* whose stability interval contains `p` (computed at that
        /// dichotomy resolution) instead of running a point DP — how a
        /// report renders its levels with zero extra DP. Falls back to
        /// the point DP when `p` lies outside every interval.
        level_resolution: Option<f64>,
    },
    /// Ingestion telemetry of the trace (events, bytes, peak footprint,
    /// ingest mode, fingerprint) plus the model shape.
    Stats,
    /// Switch the session's slicing resolution — optionally zooming into
    /// a time window snapped to the hi-res grid — and report the new
    /// model shape. Served from the resident super-resolution model with
    /// **zero trace disk reads** whenever the target resolution lies in
    /// the hi-res grid's dyadic family (or a warm artifact covers it).
    ///
    /// In-process, [`QueryEngine::execute`] moves the engine to the new
    /// resolution/window, so subsequent requests answer there;
    /// [`QueryEngine::answer`] answers on a sibling snapshot and leaves
    /// the engine where it was. Over `ocelotl serve`, wire requests are
    /// self-contained: every request answers at its own config's
    /// (full-grid) resolution, so a remote `--slices` change takes effect
    /// through the config while a zoom window applies to the carrying
    /// `Reslice` request only (its reply describes the zoomed model).
    Reslice {
        /// The new `|T|`.
        n_slices: usize,
        /// Optional zoom window `[t0, t1]` (snapped to hi-res slice
        /// edges; the snapped span must divide into `n_slices` equal
        /// bins).
        range: Option<(f64, f64)>,
    },
    /// Stream refreshed answers to one carried request as a live session
    /// advances. Only `ocelotl serve` can answer it: the server re-runs
    /// the inner request after every append batch and writes one
    /// [`WatchReply`] line per refresh over the same connection, ordered
    /// by generation. In-process engines report it as `Unsupported` —
    /// there is no connection to stream over.
    Subscribe {
        /// The request to re-answer on every refresh. `Reslice` and
        /// nested `Subscribe` are rejected (a subscription answers at the
        /// published resolution, and must not recurse).
        inner: Box<AnalysisRequest>,
    },
}

impl AnalysisRequest {
    /// Stable protocol tag of this request kind.
    pub fn kind(&self) -> &'static str {
        match self {
            AnalysisRequest::Describe => "describe",
            AnalysisRequest::Aggregate { .. } => "aggregate",
            AnalysisRequest::Significant { .. } => "significant",
            AnalysisRequest::Sweep { .. } => "sweep",
            AnalysisRequest::PValues { .. } => "pvalues",
            AnalysisRequest::Inspect { .. } => "inspect",
            AnalysisRequest::RenderOverview { .. } => "render-overview",
            AnalysisRequest::Stats => "stats",
            AnalysisRequest::Reslice { .. } => "reslice",
            AnalysisRequest::Subscribe { .. } => "subscribe",
        }
    }

    /// All request kind tags, in protocol order.
    pub const KINDS: [&'static str; 10] = [
        "describe",
        "aggregate",
        "significant",
        "sweep",
        "pvalues",
        "inspect",
        "render-overview",
        "stats",
        "reslice",
        "subscribe",
    ];

    /// Validate a `Subscribe` payload: the inner request must be
    /// re-answerable on the published snapshot on every refresh, so
    /// `Reslice` (another resolution) and nested `Subscribe` (recursive
    /// stream) are rejected. Shared by the engine and the server.
    pub fn validate_subscribe_inner(inner: &AnalysisRequest) -> Result<(), QueryError> {
        match inner {
            AnalysisRequest::Reslice { .. } => Err(QueryError::InvalidRequest(
                "subscribe cannot carry a reslice request (it mutates the session)".into(),
            )),
            AnalysisRequest::Subscribe { .. } => Err(QueryError::InvalidRequest(
                "subscribe cannot nest another subscribe".into(),
            )),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Every way a request can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The request parameters are out of range or inconsistent.
    InvalidRequest(String),
    /// The trace/model source could not be read or derived.
    Source(String),
    /// The request is well-formed but this source cannot answer it
    /// (e.g. `Stats` on a source reporting no ingestion telemetry).
    Unsupported(String),
    /// The request could not be decoded (malformed envelope, unknown
    /// kind, protocol version mismatch) — produced by codecs and servers.
    Protocol(String),
    /// The server's admission budget is exhausted (every build worker is
    /// busy cold-building other sessions); the request was not queued and
    /// can simply be retried. Produced by servers, never by an in-process
    /// engine.
    Busy(String),
}

impl QueryError {
    /// Stable protocol tag of this error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            QueryError::InvalidRequest(_) => "invalid-request",
            QueryError::Source(_) => "source",
            QueryError::Unsupported(_) => "unsupported",
            QueryError::Protocol(_) => "protocol",
            QueryError::Busy(_) => "busy",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            QueryError::InvalidRequest(m)
            | QueryError::Source(m)
            | QueryError::Unsupported(m)
            | QueryError::Protocol(m)
            | QueryError::Busy(m) => m,
        }
    }

    /// Rebuild an error from its protocol tag and message (the codec's
    /// inverse of [`QueryError::kind`]); unknown tags map to `Protocol`.
    pub fn from_parts(kind: &str, message: String) -> Self {
        match kind {
            "invalid-request" => QueryError::InvalidRequest(message),
            "source" => QueryError::Source(message),
            "unsupported" => QueryError::Unsupported(message),
            "busy" => QueryError::Busy(message),
            _ => QueryError::Protocol(message),
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for QueryError {}

impl From<SessionError> for QueryError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::InvalidParam(m) => QueryError::InvalidRequest(m),
            SessionError::Source(m) => QueryError::Source(m),
        }
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// Every answer, one per request kind.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisReply {
    /// Answer to [`AnalysisRequest::Describe`].
    Describe(DescribeReply),
    /// Answer to [`AnalysisRequest::Aggregate`].
    Aggregate(AggregateReply),
    /// Answer to [`AnalysisRequest::Significant`].
    Significant(SignificantReply),
    /// Answer to [`AnalysisRequest::Sweep`].
    Sweep(SweepReply),
    /// Answer to [`AnalysisRequest::PValues`].
    PValues(PValuesReply),
    /// Answer to [`AnalysisRequest::Inspect`].
    Inspect(InspectReply),
    /// Answer to [`AnalysisRequest::RenderOverview`].
    Overview(OverviewReply),
    /// Answer to [`AnalysisRequest::Stats`].
    Stats(StatsReply),
    /// Answer to [`AnalysisRequest::Reslice`].
    Reslice(ResliceReply),
    /// One refresh of an [`AnalysisRequest::Subscribe`] stream.
    Watch(WatchReply),
}

impl AnalysisReply {
    /// Stable protocol tag, matching the request kind that produced it
    /// (`render-overview` answers carry the `overview` tag).
    pub fn kind(&self) -> &'static str {
        match self {
            AnalysisReply::Describe(_) => "describe",
            AnalysisReply::Aggregate(_) => "aggregate",
            AnalysisReply::Significant(_) => "significant",
            AnalysisReply::Sweep(_) => "sweep",
            AnalysisReply::PValues(_) => "pvalues",
            AnalysisReply::Inspect(_) => "inspect",
            AnalysisReply::Overview(_) => "overview",
            AnalysisReply::Stats(_) => "stats",
            AnalysisReply::Reslice(_) => "reslice",
            AnalysisReply::Watch(_) => "watch",
        }
    }
}

/// Shape of the analyzed model (shared header of several replies).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelShape {
    /// `|S|`: leaf resources.
    pub n_leaves: usize,
    /// `|T|`: time slices.
    pub n_slices: usize,
    /// `|X|`: states.
    pub n_states: usize,
    /// Metric tag (`states` / `density`).
    pub metric: String,
    /// Trace time extent covered by the grid.
    pub t_start: f64,
    /// Trace time extent covered by the grid.
    pub t_end: f64,
}

/// Answer to [`AnalysisRequest::Describe`].
#[derive(Debug, Clone, PartialEq)]
pub struct DescribeReply {
    /// Model dimensions and extent.
    pub shape: ModelShape,
    /// Total hierarchy nodes (internal + leaves).
    pub hierarchy_nodes: usize,
    /// Hierarchy depth.
    pub hierarchy_depth: u64,
    /// State names, in registry order.
    pub states: Vec<String>,
    /// The gain/loss backend this problem size calls for (`dense` /
    /// `lazy`, see [`backend_footprint`]). A tag, not a measurement —
    /// `Describe` never builds the cube.
    pub backend: String,
}

/// One aggregate of a partition, fully described.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaRow {
    /// Hierarchy path of the node (`root/cluster0/m3`).
    pub path: String,
    /// First slice (inclusive).
    pub first_slice: usize,
    /// Last slice (inclusive).
    pub last_slice: usize,
    /// Start time of the interval.
    pub t0: f64,
    /// End time of the interval.
    pub t1: f64,
    /// Leaf resources under the node.
    pub n_resources: usize,
    /// Mode state name (`None` when idle).
    pub mode: Option<String>,
    /// Mode confidence `α = ρ_max / Σρ`.
    pub confidence: f64,
    /// Information gain of the aggregate (bits).
    pub gain: f64,
    /// Information loss of the aggregate (bits).
    pub loss: f64,
}

impl AreaRow {
    /// Microscopic cells covered.
    pub fn n_cells(&self) -> usize {
        self.n_resources * (self.last_slice - self.first_slice + 1)
    }
}

/// Quality summary of one partition (the `quality` module's report plus
/// the partition's own pIC).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSummary {
    /// Aggregate count.
    pub n_areas: usize,
    /// Microscopic cell count `|S| × |T|`.
    pub n_cells: usize,
    /// `1 − n_areas / n_cells`.
    pub complexity_reduction: f64,
    /// Total information loss (bits).
    pub loss: f64,
    /// Total information gain (bits).
    pub gain: f64,
    /// Loss normalized by the microscopic partition's.
    pub loss_ratio: f64,
    /// Gain normalized by the full partition's.
    pub gain_ratio: f64,
    /// `pIC = p·gain − (1−p)·loss`.
    pub pic: f64,
}

/// One §III.D baseline scored at the query's `p`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Baseline name.
    pub name: String,
    /// Aggregate count of the baseline partition.
    pub n_areas: usize,
    /// Its total pIC at the query's `p`.
    pub pic: f64,
}

/// Similarity block of an `Aggregate { diff_p: Some(_) }` query.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReply {
    /// The second trade-off value.
    pub p_other: f64,
    /// Aggregate count at the second value.
    pub n_areas_other: usize,
    /// Variation of information (bits).
    pub variation_of_information: f64,
    /// Normalized mutual information.
    pub normalized_mutual_information: f64,
    /// Rand index.
    pub rand_index: f64,
}

/// Answer to [`AnalysisRequest::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateReply {
    /// The queried trade-off.
    pub p: f64,
    /// Tie-breaking used.
    pub coarse: bool,
    /// Model dimensions and extent.
    pub shape: ModelShape,
    /// Gain/loss cube backend tag (`dense` / `lazy`) for this problem
    /// size.
    pub backend: String,
    /// Bytes that backend occupies at this problem size (a pure function
    /// of the shape, see [`backend_footprint`]).
    pub backend_bytes: u64,
    /// Partition quality.
    pub summary: PartitionSummary,
    /// One row per aggregate, in canonical partition order.
    pub areas: Vec<AreaRow>,
    /// §III.D baselines (empty unless `compare` was set).
    pub baselines: Vec<BaselineRow>,
    /// Similarity towards `diff_p` (when requested).
    pub diff: Option<DiffReply>,
}

/// One significant level with its quality columns.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelReply {
    /// Stability interval of `p` (low end).
    pub p_low: f64,
    /// Stability interval of `p` (high end).
    pub p_high: f64,
    /// Aggregate count of the level's partition.
    pub n_areas: usize,
    /// Normalized information loss.
    pub loss_ratio: f64,
    /// Normalized information gain.
    pub gain_ratio: f64,
    /// Complexity reduction.
    pub complexity_reduction: f64,
}

/// Answer to [`AnalysisRequest::Significant`].
#[derive(Debug, Clone, PartialEq)]
pub struct SignificantReply {
    /// Dichotomy resolution queried.
    pub resolution: f64,
    /// One entry per stability interval, ascending in `p`.
    pub levels: Vec<LevelReply>,
}

/// One grid point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The grid `p` value.
    pub p: f64,
    /// Aggregate count of the optimal partition there.
    pub n_areas: usize,
    /// Its total pIC.
    pub pic: f64,
}

/// Answer to [`AnalysisRequest::Sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReply {
    /// Dichotomy resolution queried.
    pub resolution: f64,
    /// The significant levels (same as [`SignificantReply`]).
    pub levels: Vec<LevelReply>,
    /// Re-aggregations across the even grid (empty when `steps == 0`).
    pub points: Vec<SweepPoint>,
}

/// Answer to [`AnalysisRequest::PValues`].
#[derive(Debug, Clone, PartialEq)]
pub struct PValuesReply {
    /// Dichotomy resolution queried.
    pub resolution: f64,
    /// The significant boundary values of `p`, ascending.
    pub ps: Vec<f64>,
}

/// Answer to [`AnalysisRequest::Inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct InspectReply {
    /// The queried leaf.
    pub leaf: usize,
    /// The queried slice.
    pub slice: usize,
    /// The queried trade-off.
    pub p: f64,
    /// Tie-breaking used.
    pub coarse: bool,
    /// The covering aggregate.
    pub area: AreaRow,
    /// Slices spanned by the aggregate.
    pub n_slices_spanned: usize,
    /// Aggregated state proportions (Eq. 1), one per state.
    pub proportions: Vec<(String, f64)>,
}

/// One top-level cluster band (for y-axis labels and separators).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReply {
    /// Cluster name.
    pub name: String,
    /// First leaf row (inclusive).
    pub leaf_start: usize,
    /// One past the last leaf row.
    pub leaf_end: usize,
}

/// One drawable item of an overview reply — a data or visual aggregate
/// with its leaf span resolved, so renderers need no hierarchy access.
#[derive(Debug, Clone, PartialEq)]
pub struct OverviewItem {
    /// Hierarchy path of the node.
    pub path: String,
    /// First leaf row (inclusive).
    pub leaf_start: usize,
    /// One past the last leaf row.
    pub leaf_end: usize,
    /// First slice (inclusive).
    pub first_slice: usize,
    /// Last slice (inclusive).
    pub last_slice: usize,
    /// Mode state index into [`OverviewReply::states`] (`None`: idle).
    pub state: Option<usize>,
    /// Mode confidence `α`.
    pub alpha: f64,
    /// `None` for data aggregates, the G4 mark for visual aggregates.
    pub mark: Option<VisualMark>,
}

/// Answer to [`AnalysisRequest::RenderOverview`]: a complete drawable
/// scene.
#[derive(Debug, Clone, PartialEq)]
pub struct OverviewReply {
    /// The queried trade-off.
    pub p: f64,
    /// Aggregates in the underlying data partition.
    pub n_areas: usize,
    /// Data aggregates drawn as-is.
    pub n_data: usize,
    /// Visual aggregates produced by the G1/G4 pass.
    pub n_visual: usize,
    /// Leaf rows of the canvas.
    pub n_leaves: usize,
    /// Slice columns of the canvas.
    pub n_slices: usize,
    /// Time extent for axis labels.
    pub t_start: f64,
    /// Time extent for axis labels.
    pub t_end: f64,
    /// State names, in registry order (palette/legend input).
    pub states: Vec<String>,
    /// Top-level cluster bands, in leaf order.
    pub clusters: Vec<ClusterReply>,
    /// Drawable items.
    pub items: Vec<OverviewItem>,
}

impl OverviewReply {
    /// Build the drawable scene from a cube and a partition: runs the
    /// visual-aggregation pass at `min_rows` and resolves every leaf span,
    /// state name and cluster band. This is the one construction path —
    /// the engine and any in-process renderer share it, so they cannot
    /// drift.
    pub fn from_partition<C: QualityCube>(
        cube: &C,
        partition: &Partition,
        p: f64,
        min_rows: f64,
        time_range: (f64, f64),
    ) -> Self {
        let va = visually_aggregate(cube, partition, min_rows);
        Self::from_visual(cube, partition.len(), &va, p, time_range)
    }

    /// Build the scene from an already-computed visual aggregation (the
    /// legacy `Overview` path in `ocelotl-viz`). `time_range` fills the
    /// reply's `t_start`/`t_end` (the `QualityCube` trait carries no time
    /// grid; sessions read it from the cube core).
    pub fn from_visual<C: QualityCube>(
        cube: &C,
        n_areas: usize,
        va: &crate::visual::VisualAggregation,
        p: f64,
        time_range: (f64, f64),
    ) -> Self {
        let h = cube.hierarchy();
        let items = va
            .items
            .iter()
            .map(|item| {
                let leaves = h.leaf_range(item.node);
                OverviewItem {
                    path: h.path(item.node),
                    leaf_start: leaves.start,
                    leaf_end: leaves.end,
                    first_slice: item.first_slice,
                    last_slice: item.last_slice,
                    state: item.mode.state.map(|s| s.index()),
                    alpha: item.mode.alpha,
                    mark: item.mark,
                }
            })
            .collect();
        let clusters = h
            .top_level()
            .iter()
            .map(|&c| {
                let r = h.leaf_range(c);
                ClusterReply {
                    name: h.name(c).to_string(),
                    leaf_start: r.start,
                    leaf_end: r.end,
                }
            })
            .collect();
        OverviewReply {
            p,
            n_areas,
            n_data: va.n_data,
            n_visual: va.n_visual,
            n_leaves: h.n_leaves(),
            n_slices: cube.n_slices(),
            t_start: time_range.0,
            t_end: time_range.1,
            states: cube.states().iter().map(|(_, n)| n.to_string()).collect(),
            clusters,
            items,
        }
    }
}

/// Answer to [`AnalysisRequest::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// Model dimensions and extent.
    pub shape: ModelShape,
    /// Total hierarchy nodes.
    pub hierarchy_nodes: usize,
    /// Hierarchy depth.
    pub hierarchy_depth: u64,
    /// Events decoded (2 per interval + 1 per point).
    pub events: u64,
    /// Interval records decoded.
    pub intervals: u64,
    /// Point records decoded.
    pub points: u64,
    /// Bytes the ingest read from disk: its plan's headers and indexes,
    /// extent scans and decodes. Hashing the trace for `fingerprint` is
    /// not an ingest read and is not counted.
    pub bytes_read: u64,
    /// Peak resident footprint of the streaming accumulator (bytes).
    pub peak_bytes: u64,
    /// Ingestion strategy tag (`single-pass` / `two-pass`).
    pub mode: String,
    /// Trace format tag (`+gzip` suffix for compressed inputs).
    pub format: String,
    /// Content fingerprint of the trace input (the artifact store's key
    /// input, `hash_trace_input`), as 16 hex digits.
    pub fingerprint: String,
    /// Shard count of the ingest (1 for sequential).
    pub shard_count: u64,
    /// Input bytes per shard, in shard order — content-derived, never a
    /// function of the worker count.
    pub shard_bytes: Vec<u64>,
    /// Chunks in the columnar source's index (zero for non-chunked
    /// formats).
    pub chunks_total: u64,
    /// Chunks actually decoded (fewer than `chunks_total` when predicate
    /// pushdown skipped some).
    pub chunks_read: u64,
    /// Payload bytes predicate pushdown left unread on disk.
    pub bytes_skipped: u64,
}

/// Answer to [`AnalysisRequest::Reslice`]: the session's new active
/// resolution. Every field is deterministic — `hi_slices` is the
/// *resolved* super-resolution grid for this configuration (the sizing
/// formula applied to the reply's model shape), a tag like `Describe`'s
/// backend, not a measurement of what happens to be resident.
#[derive(Debug, Clone, PartialEq)]
pub struct ResliceReply {
    /// The new active `|T|`.
    pub n_slices: usize,
    /// The hi-res grid this configuration resolves to:
    /// [`crate::hires::hi_res_slices`] over the reply's shape. For the
    /// density metric the shape's state count includes merged
    /// pseudo-states, so in the (narrow) regime where the cell-budget
    /// clamp binds this can name a finer bound than the ingest grid —
    /// it is a deterministic sizing indicator, not the resident `H`.
    pub hi_slices: usize,
    /// The snapped zoom window, when one was requested.
    pub window: Option<(f64, f64)>,
    /// Shape of the newly active model.
    pub shape: ModelShape,
}

/// One refresh of an [`AnalysisRequest::Subscribe`] stream: the inner
/// request's reply wrapped with the live session's progress marker. Reply
/// lines on a subscription are strictly ordered by `seq`; each line is a
/// complete self-identifying answer (the stream can be cut anywhere and
/// every received line still stands alone).
///
/// The wrapped `reply` is deterministic per `(events, request)` — it is a
/// pure function of the event prefix folded so far, byte-identical to a
/// post-mortem session over the same prefix. The *pacing* (which prefixes
/// get a refresh line) is the server's batching choice, not part of the
/// data contract.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchReply {
    /// Refresh generation, strictly increasing per subscription starting
    /// at 1. Gaps are legal: a subscriber that lags simply skips to the
    /// newest generation instead of replaying stale ones.
    pub seq: u64,
    /// `true` on the final refresh: the feeder has finished and no
    /// further lines follow.
    pub done: bool,
    /// Events folded into the live model when this refresh was taken.
    pub events: u64,
    /// The inner request's answer over those events.
    pub reply: Box<AnalysisReply>,
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Executes any [`AnalysisRequest`] against an [`AnalysisSession`].
///
/// The engine holds a session snapshot, so all of the session's
/// memoization carries across requests: the first query pays the trace
/// read and cube build, every later query is served from memory (or from
/// `.omicro` / `.ocube` / `.opart` artifacts when the session has a
/// store). Cloning an engine clones the snapshot: two handles, no stage.
///
/// ## One query path
///
/// Each request kind has one reply builder, and it takes `&self`: the
/// session builds every stage a request needs on first use through a
/// shared reference. [`QueryEngine::answer`] answers any request from
/// `&self` — a `Reslice` on a sibling snapshot at the requested
/// resolution, leaving the engine where it was; [`QueryEngine::execute`]
/// (`&mut self`) first re-slices the engine's own snapshot for a `Reslice`
/// and otherwise runs the same builder. A reply is therefore the same
/// bytes whichever entry point served it and whatever ran before, and a
/// server shares one engine among its clients without a lock.
#[derive(Clone)]
pub struct QueryEngine {
    session: AnalysisSession,
}

/// The model's dimensions, read from the cube or the model.
struct Dims<'a> {
    hierarchy: &'a Hierarchy,
    states: &'a StateRegistry,
    grid: TimeGrid,
}

impl QueryEngine {
    /// Wrap a session.
    pub fn new(session: AnalysisSession) -> Self {
        Self { session }
    }

    /// The underlying session, read-only (pool introspection, warm
    /// checks).
    pub fn session(&self) -> &AnalysisSession {
        &self.session
    }

    /// The underlying session, mutably: to re-slice or advance the
    /// engine's snapshot in place.
    pub fn session_mut(&mut self) -> &mut AnalysisSession {
        &mut self.session
    }

    /// Unwrap the session.
    pub fn into_session(self) -> AnalysisSession {
        self.session
    }

    /// Build the session's cube, ingesting the trace unless a warm
    /// artifact serves it — what a server runs once under its build
    /// budget before publishing the engine to concurrent readers (every
    /// other stage still builds on first use).
    pub fn warm_up(&mut self) -> Result<(), QueryError> {
        self.session.cube()?;
        Ok(())
    }

    /// Execute one request; the reply variant always matches the request
    /// kind. A `Reslice` moves this engine to the new resolution first.
    pub fn execute(&mut self, request: &AnalysisRequest) -> Result<AnalysisReply, QueryError> {
        if let AnalysisRequest::Reslice { n_slices, range } = request {
            self.session.reslice(*n_slices, *range)?;
            return self.reslice_reply(*n_slices);
        }
        self.answer(request)
    }

    /// [`QueryEngine::answer`], always `Some`: kept only for perfbench,
    /// until the next change to the benchmark.
    pub fn execute_shared(
        &self,
        request: &AnalysisRequest,
    ) -> Option<Result<AnalysisReply, QueryError>> {
        Some(self.answer(request))
    }

    /// Answer one request through a shared reference, with one reply
    /// builder per request kind: byte-identical to what
    /// [`QueryEngine::execute`] returns, with concurrent callers sharing
    /// each stage's one build. A `Reslice` is answered on a sibling
    /// snapshot at the requested `(n_slices, range)`; this engine stays
    /// where it was.
    pub fn answer(&self, request: &AnalysisRequest) -> Result<AnalysisReply, QueryError> {
        match request {
            AnalysisRequest::Describe => self.describe().map(AnalysisReply::Describe),
            AnalysisRequest::Aggregate {
                p,
                coarse,
                compare,
                diff_p,
            } => self
                .aggregate(*p, *coarse, *compare, *diff_p)
                .map(AnalysisReply::Aggregate),
            AnalysisRequest::Significant { resolution } => {
                Ok(AnalysisReply::Significant(SignificantReply {
                    resolution: *resolution,
                    levels: self.levels(*resolution)?,
                }))
            }
            AnalysisRequest::Sweep { resolution, steps } => {
                self.sweep(*resolution, *steps).map(AnalysisReply::Sweep)
            }
            // Boundary values alone never need the cube when the table is
            // warm at this resolution.
            AnalysisRequest::PValues { resolution } => Ok(AnalysisReply::PValues(PValuesReply {
                resolution: *resolution,
                ps: significant_ps(&self.session.significant(*resolution)?),
            })),
            AnalysisRequest::Inspect {
                leaf,
                slice,
                p,
                coarse,
            } => self
                .inspect(*leaf, *slice, *p, *coarse)
                .map(AnalysisReply::Inspect),
            AnalysisRequest::RenderOverview {
                p,
                coarse,
                min_rows,
                level_resolution,
            } => self
                .overview(*p, *coarse, *min_rows, *level_resolution)
                .map(AnalysisReply::Overview),
            AnalysisRequest::Stats => self.stats().map(AnalysisReply::Stats),
            AnalysisRequest::Reslice { n_slices, range } => {
                Self::new(self.session.resliced(*n_slices, *range)?).reslice_reply(*n_slices)
            }
            // A subscription needs a connection to stream over; only
            // `ocelotl serve` (which intercepts the kind before execution)
            // can honor it.
            AnalysisRequest::Subscribe { inner } => {
                AnalysisRequest::validate_subscribe_inner(inner)?;
                Err(QueryError::Unsupported(
                    "subscribe streams refreshed replies over an `ocelotl serve` connection; \
                     it has no in-process answer"
                        .into(),
                ))
            }
        }
    }

    /// The `Reslice` reply of an engine the re-slice moved to `n_slices`.
    fn reslice_reply(&self, n_slices: usize) -> Result<AnalysisReply, QueryError> {
        let shape = self.shape(&self.dims()?);
        Ok(AnalysisReply::Reslice(ResliceReply {
            n_slices,
            hi_slices: crate::hires::hi_res_slices(n_slices, shape.n_leaves, shape.n_states),
            window: self.session.window(),
            shape,
        }))
    }

    /// The dimensions from the cube when it is built or warm in the store
    /// (no trace read), else from the model. Never builds a cube:
    /// dimension-only replies (`Describe`, `Reslice`) stay O(model).
    fn dims(&self) -> Result<Dims<'_>, QueryError> {
        Ok(match self.session.try_warm_cube()? {
            Some(cube) => Self::cube_dims(cube),
            None => Self::model_dims(self.session.model()?),
        })
    }

    fn cube_dims(cube: &CubeCore) -> Dims<'_> {
        Dims {
            hierarchy: cube.hierarchy(),
            states: cube.states(),
            grid: *cube.grid(),
        }
    }

    fn model_dims(model: &MicroModel) -> Dims<'_> {
        Dims {
            hierarchy: model.hierarchy(),
            states: model.states(),
            grid: *model.grid(),
        }
    }

    fn shape(&self, dims: &Dims) -> ModelShape {
        ModelShape {
            n_leaves: dims.hierarchy.n_leaves(),
            n_slices: dims.grid.n_slices(),
            n_states: dims.states.len(),
            metric: self.session.config().metric.tag().to_string(),
            t_start: dims.grid.start(),
            t_end: dims.grid.end(),
        }
    }

    fn describe(&self) -> Result<DescribeReply, QueryError> {
        let dims = self.dims()?;
        let shape = self.shape(&dims);
        // The backend is sized, not built: Describe must stay O(model)
        // (it is the `describe` preprocessing command's reply), and the
        // tag must not depend on what earlier queries happened to
        // materialize in this session.
        let backend = backend_footprint(dims.hierarchy.len(), shape.n_slices, shape.n_states)
            .0
            .to_string();
        Ok(DescribeReply {
            shape,
            hierarchy_nodes: dims.hierarchy.len(),
            hierarchy_depth: dims.hierarchy.max_depth() as u64,
            states: dims.states.iter().map(|(_, n)| n.to_string()).collect(),
            backend,
        })
    }

    fn area_row<C: QualityCube>(
        cube: &C,
        grid: &TimeGrid,
        area: &crate::partition::Area,
    ) -> AreaRow {
        let r = inspect_area(cube, area);
        let (t0, _) = grid.slice_bounds(area.first_slice);
        let (_, t1) = grid.slice_bounds(area.last_slice);
        AreaRow {
            path: r.path,
            first_slice: area.first_slice,
            last_slice: area.last_slice,
            t0,
            t1,
            n_resources: r.n_resources,
            mode: r.mode,
            confidence: r.confidence,
            gain: r.gain,
            loss: r.loss,
        }
    }

    fn aggregate(
        &self,
        p: f64,
        coarse: bool,
        compare: bool,
        diff_p: Option<f64>,
    ) -> Result<AggregateReply, QueryError> {
        validate_p(p)?;
        if let Some(p2) = diff_p {
            validate_p(p2)?;
        }
        let partition = self.session.partition_at(p, coarse)?;
        let diffed = match diff_p {
            Some(p2) => Some((p2, self.session.partition_at(p2, coarse)?)),
            None => None,
        };
        let cube = self.session.cube()?;
        let grid = cube.grid();

        // §III.D: spatial-and-temporal is not spatiotemporal — score the
        // unidimensional optima and their product against Algorithm 1.
        let baselines = if compare {
            let model = self.session.model()?;
            let h = model.hierarchy();
            let t = model.n_slices();
            let prod = product_aggregation(model, p);
            let spatial_2d = Partition::product(&prod.spatial.nodes, &[(0, t - 1)]);
            let temporal_2d = Partition::product(&[h.root()], &prod.temporal.intervals);
            [
                ("spatiotemporal (Algorithm 1)", &partition),
                ("product P(S) x P(T)", &prod.partition),
                ("spatial-only x full time", &spatial_2d),
                ("temporal-only x full space", &temporal_2d),
                ("microscopic", &Partition::microscopic(h, t)),
                ("full aggregation", &Partition::full(h, t)),
            ]
            .into_iter()
            .map(|(name, part)| BaselineRow {
                name: name.to_string(),
                n_areas: part.len(),
                pic: part.pic(cube, p),
            })
            .collect()
        } else {
            Vec::new()
        };

        let q = quality(cube, &partition);
        let (backend, backend_bytes) =
            backend_footprint(cube.hierarchy().len(), cube.n_slices(), cube.n_states());
        let diff = diffed.map(|(p2, other)| {
            let c = compare_partitions(cube.hierarchy(), cube.n_slices(), &partition, &other);
            DiffReply {
                p_other: p2,
                n_areas_other: other.len(),
                variation_of_information: c.variation_of_information,
                normalized_mutual_information: c.normalized_mutual_information,
                rand_index: c.rand_index,
            }
        });
        let areas = partition
            .areas()
            .iter()
            .map(|a| Self::area_row(cube, grid, a))
            .collect();
        Ok(AggregateReply {
            p,
            coarse,
            shape: self.shape(&Self::cube_dims(cube)),
            backend: backend.to_string(),
            backend_bytes,
            summary: PartitionSummary {
                n_areas: partition.len(),
                n_cells: q.n_cells,
                complexity_reduction: q.complexity_reduction,
                loss: q.loss,
                gain: q.gain,
                loss_ratio: q.loss_ratio,
                gain_ratio: q.gain_ratio,
                pic: partition.pic(cube, p),
            },
            areas,
            baselines,
            diff,
        })
    }

    fn levels(&self, resolution: f64) -> Result<Vec<LevelReply>, QueryError> {
        let entries = self.session.significant(resolution)?;
        let cube = self.session.cube()?;
        Ok(entries
            .iter()
            .map(|e| {
                let q = quality(cube, &e.partition);
                LevelReply {
                    p_low: e.p_low,
                    p_high: e.p_high,
                    n_areas: e.partition.len(),
                    loss_ratio: q.loss_ratio,
                    gain_ratio: q.gain_ratio,
                    complexity_reduction: q.complexity_reduction,
                }
            })
            .collect())
    }

    fn sweep(&self, resolution: f64, steps: usize) -> Result<SweepReply, QueryError> {
        let levels = self.levels(resolution)?;
        let cube = self.session.cube()?;
        let mut points = Vec::new();
        if steps > 0 {
            for k in 0..=steps {
                let p = k as f64 / steps as f64;
                let partition = self.session.partition_at(p, false)?;
                points.push(SweepPoint {
                    p,
                    n_areas: partition.len(),
                    pic: partition.pic(cube, p),
                });
            }
        }
        Ok(SweepReply {
            resolution,
            levels,
            points,
        })
    }

    fn inspect(
        &self,
        leaf: usize,
        slice: usize,
        p: f64,
        coarse: bool,
    ) -> Result<InspectReply, QueryError> {
        // Validate `p` and the cell against the cube's shape before paying
        // for the DP: an out-of-range request must fail fast.
        validate_p(p)?;
        let cube = self.session.cube()?;
        if leaf >= cube.hierarchy().n_leaves() {
            return Err(QueryError::InvalidRequest(format!(
                "leaf {leaf} out of range (trace has {})",
                cube.hierarchy().n_leaves()
            )));
        }
        if slice >= cube.n_slices() {
            return Err(QueryError::InvalidRequest(format!(
                "slice {slice} out of range (model has {})",
                cube.n_slices()
            )));
        }
        let partition = self.session.partition_at(p, coarse)?;
        let area = area_at(&partition, cube, LeafId(leaf as u32), slice).ok_or_else(|| {
            QueryError::Source("cell not covered by the partition (internal error)".into())
        })?;
        let report = inspect_area(cube, &area);
        Ok(InspectReply {
            leaf,
            slice,
            p,
            coarse,
            area: Self::area_row(cube, cube.grid(), &area),
            n_slices_spanned: report.n_slices,
            proportions: report.proportions,
        })
    }

    fn overview(
        &self,
        p: f64,
        coarse: bool,
        min_rows: f64,
        level_resolution: Option<f64>,
    ) -> Result<OverviewReply, QueryError> {
        validate_p(p)?;
        let partition = match level_resolution {
            // Render a significant level's stored partition — the report
            // path, zero extra DP runs (both cold and warm compute the
            // same significant set, so the answer is deterministic either
            // way).
            Some(res) => {
                let entries = self.session.significant(res)?;
                match entries.iter().find(|e| e.p_low <= p && p <= e.p_high) {
                    Some(e) => e.partition.clone(),
                    None => self.session.partition_at(p, coarse)?,
                }
            }
            None => self.session.partition_at(p, coarse)?,
        };
        let cube = self.session.cube()?;
        let grid = cube.grid();
        Ok(OverviewReply::from_partition(
            cube,
            &partition,
            p,
            min_rows,
            (grid.start(), grid.end()),
        ))
    }

    fn stats(&self) -> Result<StatsReply, QueryError> {
        let stats = self.session.ingest_stats()?.cloned().ok_or_else(|| {
            QueryError::Unsupported("this model source reports no ingestion telemetry".into())
        })?;
        // The stats built the model; the shape comes from it — a Stats
        // query never builds the quality cube (its whole point is
        // measuring the O(model) ingestion path).
        let dims = Self::model_dims(self.session.model()?);
        let fingerprint = self.session.fingerprint()?;
        Ok(StatsReply {
            shape: self.shape(&dims),
            hierarchy_nodes: dims.hierarchy.len(),
            hierarchy_depth: dims.hierarchy.max_depth() as u64,
            events: stats.events(),
            intervals: stats.intervals,
            points: stats.points,
            bytes_read: stats.bytes_read,
            peak_bytes: stats.peak_bytes,
            mode: stats.mode,
            format: stats.format,
            fingerprint: format!("{fingerprint:016x}"),
            shard_count: stats.shards.len() as u64,
            shard_bytes: stats.shards,
            chunks_total: stats.chunks_total,
            chunks_read: stats.chunks_read,
            bytes_skipped: stats.bytes_skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{IngestStats, Metric, ModelSource, OwnedSource, SessionConfig};
    use ocelotl_trace::synthetic::fig3_model;
    use ocelotl_trace::MicroModel;

    fn engine() -> QueryEngine {
        let model = fig3_model();
        let n_slices = model.n_slices();
        QueryEngine::new(AnalysisSession::new(
            OwnedSource::new(model, 7),
            SessionConfig {
                n_slices,
                ..SessionConfig::default()
            },
        ))
    }

    #[test]
    fn every_reply_matches_its_request_kind() {
        let mut e = engine();
        let requests = [
            AnalysisRequest::Describe,
            AnalysisRequest::Aggregate {
                p: 0.5,
                coarse: false,
                compare: true,
                diff_p: Some(0.2),
            },
            AnalysisRequest::Significant { resolution: 1e-2 },
            AnalysisRequest::Sweep {
                resolution: 1e-2,
                steps: 4,
            },
            AnalysisRequest::PValues { resolution: 1e-2 },
            AnalysisRequest::Inspect {
                leaf: 0,
                slice: 0,
                p: 0.5,
                coarse: false,
            },
            AnalysisRequest::RenderOverview {
                p: 0.5,
                coarse: false,
                min_rows: 0.0,
                level_resolution: None,
            },
            AnalysisRequest::Reslice {
                n_slices: 20,
                range: None,
            },
        ];
        for req in &requests {
            let reply = e.execute(req).unwrap();
            let want = match req.kind() {
                "render-overview" => "overview",
                k => k,
            };
            assert_eq!(reply.kind(), want, "{req:?}");
        }
    }

    #[test]
    fn aggregate_reply_is_self_consistent() {
        let mut e = engine();
        let AnalysisReply::Aggregate(a) = e
            .execute(&AnalysisRequest::Aggregate {
                p: 0.4,
                coarse: false,
                compare: true,
                diff_p: Some(0.4),
            })
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(a.areas.len(), a.summary.n_areas);
        assert_eq!(a.shape.n_leaves, 12);
        assert_eq!(a.shape.n_slices, 20);
        assert_eq!(a.summary.n_cells, 12 * 20);
        let cells: usize = a.areas.iter().map(|r| r.n_cells()).sum();
        assert_eq!(cells, a.summary.n_cells, "areas tile the grid");
        // Algorithm 1 tops the baseline table.
        let best = a.baselines[0].pic;
        for b in &a.baselines {
            assert!(best >= b.pic - 1e-9, "{} beats Algorithm 1", b.name);
        }
        // diff against itself is identity.
        let d = a.diff.unwrap();
        assert!((d.rand_index - 1.0).abs() < 1e-12);
        assert_eq!(d.n_areas_other, a.summary.n_areas);
    }

    #[test]
    fn memoization_carries_across_requests() {
        let mut e = engine();
        let _ = e
            .execute(&AnalysisRequest::Aggregate {
                p: 0.5,
                coarse: false,
                compare: false,
                diff_p: None,
            })
            .unwrap();
        let dp_after_first = e.session_mut().dp_runs();
        // Inspect and overview at the same p reuse the memoized partition.
        let _ = e
            .execute(&AnalysisRequest::Inspect {
                leaf: 0,
                slice: 0,
                p: 0.5,
                coarse: false,
            })
            .unwrap();
        let _ = e
            .execute(&AnalysisRequest::RenderOverview {
                p: 0.5,
                coarse: false,
                min_rows: 0.0,
                level_resolution: None,
            })
            .unwrap();
        assert_eq!(e.session_mut().dp_runs(), dp_after_first);
    }

    #[test]
    fn invalid_parameters_are_invalid_request() {
        let mut e = engine();
        for req in [
            AnalysisRequest::Aggregate {
                p: 1.5,
                coarse: false,
                compare: false,
                diff_p: None,
            },
            AnalysisRequest::Significant { resolution: 0.0 },
            AnalysisRequest::Inspect {
                leaf: 999,
                slice: 0,
                p: 0.5,
                coarse: false,
            },
            AnalysisRequest::Inspect {
                leaf: 0,
                slice: 999,
                p: 0.5,
                coarse: false,
            },
        ] {
            assert!(
                matches!(e.execute(&req), Err(QueryError::InvalidRequest(_))),
                "{req:?}"
            );
        }
    }

    #[test]
    fn subscribe_is_unsupported_in_process_and_validated() {
        let mut e = engine();
        let sub = AnalysisRequest::Subscribe {
            inner: Box::new(AnalysisRequest::Describe),
        };
        // Execution needs a serve connection to stream over.
        assert!(matches!(e.execute(&sub), Err(QueryError::Unsupported(_))));
        assert!(e.execute_shared(&sub).is_some_and(|r| r.is_err()));
        // Reslice and nested Subscribe payloads are rejected outright.
        for bad in [
            AnalysisRequest::Reslice {
                n_slices: 10,
                range: None,
            },
            sub.clone(),
        ] {
            let wrapped = AnalysisRequest::Subscribe {
                inner: Box::new(bad),
            };
            assert!(matches!(
                e.execute(&wrapped),
                Err(QueryError::InvalidRequest(_))
            ));
        }
    }

    #[test]
    fn stats_unsupported_without_telemetry() {
        let mut e = engine();
        assert!(matches!(
            e.execute(&AnalysisRequest::Stats),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn stats_surfaces_source_telemetry() {
        struct WithStats(MicroModel);
        impl ModelSource for WithStats {
            fn fingerprint(&self) -> Result<u64, SessionError> {
                Ok(0xabcd)
            }
            fn model(&self, _n: usize, _m: Metric) -> Result<MicroModel, SessionError> {
                Ok(self.0.clone())
            }
            fn model_with_stats(
                &self,
                n: usize,
                m: Metric,
            ) -> Result<(MicroModel, Option<IngestStats>), SessionError> {
                Ok((
                    self.model(n, m)?,
                    Some(IngestStats {
                        bytes_read: 100,
                        intervals: 40,
                        points: 3,
                        peak_bytes: 512,
                        mode: "single-pass".into(),
                        format: "btf".into(),
                        gzip: false,
                        shards: vec![60, 40],
                        chunks_total: 8,
                        chunks_read: 3,
                        bytes_skipped: 55,
                    }),
                ))
            }
        }
        let model = fig3_model();
        let n_slices = model.n_slices();
        let mut e = QueryEngine::new(AnalysisSession::new(
            WithStats(model),
            SessionConfig {
                n_slices,
                ..SessionConfig::default()
            },
        ));
        let AnalysisReply::Stats(s) = e.execute(&AnalysisRequest::Stats).unwrap() else {
            panic!()
        };
        assert_eq!(s.events, 83);
        assert_eq!(s.fingerprint, "000000000000abcd");
        assert_eq!(s.shape.n_leaves, 12);
        assert_eq!(s.shard_count, 2);
        assert_eq!(s.shard_bytes, vec![60, 40]);
        assert_eq!(s.chunks_total, 8);
        assert_eq!(s.chunks_read, 3);
        assert_eq!(s.bytes_skipped, 55);
    }

    #[test]
    fn overview_reply_is_drawable_standalone() {
        let mut e = engine();
        let AnalysisReply::Overview(ov) = e
            .execute(&AnalysisRequest::RenderOverview {
                p: 0.4,
                coarse: false,
                min_rows: 2.0,
                level_resolution: None,
            })
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(ov.n_leaves, 12);
        assert_eq!(ov.n_slices, 20);
        assert!(!ov.states.is_empty());
        assert!(!ov.clusters.is_empty());
        assert_eq!(ov.items.len(), ov.n_data + ov.n_visual);
        // Items tile the grid without any hierarchy access.
        let mut cover = vec![0u8; ov.n_leaves * ov.n_slices];
        for it in &ov.items {
            assert!(it.leaf_end <= ov.n_leaves);
            for leaf in it.leaf_start..it.leaf_end {
                for t in it.first_slice..=it.last_slice {
                    cover[leaf * ov.n_slices + t] += 1;
                }
            }
            if let Some(s) = it.state {
                assert!(s < ov.states.len());
            }
        }
        assert!(cover.iter().all(|&c| c == 1));
    }

    #[test]
    fn request_and_error_tags_are_stable() {
        assert_eq!(AnalysisRequest::Describe.kind(), "describe");
        assert_eq!(
            AnalysisRequest::RenderOverview {
                p: 0.5,
                coarse: false,
                min_rows: 0.0,
                level_resolution: None,
            }
            .kind(),
            "render-overview"
        );
        assert_eq!(AnalysisRequest::KINDS.len(), 10);
        assert_eq!(
            AnalysisRequest::Reslice {
                n_slices: 60,
                range: None
            }
            .kind(),
            "reslice"
        );
        assert_eq!(
            AnalysisRequest::Subscribe {
                inner: Box::new(AnalysisRequest::Describe)
            }
            .kind(),
            "subscribe"
        );
        let e = QueryError::InvalidRequest("x".into());
        assert_eq!(e.kind(), "invalid-request");
        assert_eq!(
            QueryError::from_parts("invalid-request", "x".into()),
            QueryError::InvalidRequest("x".into())
        );
        assert!(matches!(
            QueryError::from_parts("???", "y".into()),
            QueryError::Protocol(_)
        ));
        assert!(e.to_string().contains("invalid-request"));
    }
}
