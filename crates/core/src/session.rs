//! `AnalysisSession` — the memoized analysis pipeline.
//!
//! The paper's core economy (§V.B) is *"a long preprocessing pass buys
//! instantaneous interaction afterwards"*: trace reading and microscopic
//! description dominate (50 minutes at Table II scale), while re-running
//! Algorithm 1 at a new trade-off `p` on cached gain/loss inputs is
//! instantaneous. This module makes that economy an explicit object. An
//! [`AnalysisSession`] owns the staged pipeline
//!
//! ```text
//! trace ──► MicroModel ──► CubeCore ──► partition(p)      (Algorithm 1)
//!            (slice)       (prefix    ──► significant-p table
//!                           sums)
//! ```
//!
//! with two levels of memoization:
//!
//! 1. **in memory** — each stage is built at most once per session, on
//!    first use, by a `&self` accessor (so concurrent queries share one
//!    build), and every DP result (one per distinct `(p, tie-breaking)`
//!    query) is kept in a [`PartitionTable`];
//! 2. **on disk** — a pluggable [`ArtifactStore`] persists three
//!    artifacts across processes: the hi-res intermediate (`.omicro`),
//!    the cube's prefix sums (`.ocube`) and the partition table
//!    (`.opart`). A session that finds the last two never touches the
//!    trace at all.
//!
//! The prefix sums ([`CubeCore`]) answer every cell query; the first DP
//! on a pipeline materializes the paper's dense gain/loss matrices (when
//! they fit under [`DENSE_LIMIT_BYTES`]), so memoized answers never pay
//! for them. Of all the session's pipelines, only the one that last ran a
//! DP or was re-sliced to keeps its matrices.
//!
//! Artifacts are **content-addressed**: the session key is a 64-bit FNV-1a
//! hash over the trace fingerprint (a hash of the raw trace bytes) and the
//! pipeline parameters (slice count, metric). Changing any of them
//! changes the key, so stale artifacts can never be served — the disk
//! store additionally garbage-collects artifacts left behind under old
//! keys (see `ocelotl-format`'s `DiskStore`).
//!
//! Warm answers are **bit-identical** to cold ones: `.ocube` stores the
//! prefix sums as exact IEEE-754 bit patterns and both DP kernels evaluate
//! cells through the same [`CubeCore::eval_cell`], while `.opart` stores
//! partitions exactly; cached partitions are only served for *exactly* the
//! `(p, tie-breaking)` query that produced them.
//!
//! ## Snapshots
//!
//! An [`AnalysisSession`] is an immutable snapshot at one `(n_slices,
//! window)` resolution, cheap to clone. Everything that does not depend on
//! the resolution (the source, the store, the resident hi-res grid, the
//! counters and a cache of recent pipelines) is shared by every snapshot
//! of a session; [`AnalysisSession::resliced`] and
//! [`AnalysisSession::advanced`] build a sibling through `&self`. A reader
//! holding a snapshot therefore never waits for a writer, and a writer
//! never changes what a held snapshot answers at its own resolution.
//!
//! ## Live refresh
//!
//! A live session ([`AnalysisSession::live`]) grows by
//! [`AnalysisSession::advanced`], and every batch that lands yields the
//! next snapshot. A refresh costs what its batch touched, not what the
//! model holds: [`HiResModel::append`] reports the hi-res slices the batch
//! touched, which make a band of coarse slices at the publish resolution
//! (the one the session was opened at), and the replaced pipeline passes
//! two things on.
//!
//! - Its model. The next model re-derives only the band's coarse slices
//!   through the one rebin kernel; a coarse slice is the left-to-right sum
//!   of its own hi-res cells, so the others are already right. The next
//!   model is derived while the batch is appended, under the grid's lock,
//!   so it is exactly that batch's.
//! - The cut tree of each DP it ran, one per `(p, tie rule)`, shared, not
//!   copied. The next DP at that `(p, tie rule)` copies every cell that
//!   cannot have changed and solves the others on the prefix sums: a cell
//!   `(i, j)` is copied when `j < a` or `i > z`, where `a` is the first
//!   coarse slice touched since the tree was computed and `z` the last
//!   coarse slice any append of the session ever reported (see
//!   `dp::aggregate_reusing` for why this is exact).
//!
//! A pipeline that ran no DP passes on the trees it inherited. Nothing
//! passes on, and the refresh takes the full path, when the batch grew the
//! grid (that widens every coarse slice), on the density metric (its peak
//! normalization can rescale every cell), at any other resolution or
//! window, on the first refresh, and for a `(p, tie rule)` the previous
//! pipeline did not run. The replies are the same bytes either way.

use crate::cube::{
    dense_fits, dp_table_bytes, CubeCore, DenseCube, QualityCube, DENSE_LIMIT_BYTES, DP_LIMIT_BYTES,
};
use crate::dp::{aggregate, aggregate_reusing, CutTree, DpConfig, Reuse};
use crate::hires::{AppendOutcome, HiResModel, LiveEvent};
use crate::partition::Partition;
use crate::pvalues::{significant_partitions, PEntry};
use ocelotl_trace::{event_density_auto, MicroModel, TimeGrid, Trace};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, Weak};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors surfaced by the session pipeline.
#[derive(Debug)]
pub enum SessionError {
    /// The trace/model source could not be read or derived.
    Source(String),
    /// A query parameter is out of range.
    InvalidParam(String),
}

impl SessionError {
    /// Shorthand constructor for source failures.
    pub fn source(msg: impl Into<String>) -> Self {
        SessionError::Source(msg.into())
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Source(m) => write!(f, "{m}"),
            SessionError::InvalidParam(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Shared parameter check for the trade-off `p` — one message for every
/// caller (session, engine, server) so error replies stay byte-identical
/// wherever the check fires.
pub(crate) fn validate_p(p: f64) -> Result<(), SessionError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(SessionError::InvalidParam(format!(
            "--p must lie in [0, 1], got {p}"
        )));
    }
    Ok(())
}

/// Shared parameter check for the slice count.
fn validate_slices(n_slices: usize) -> Result<(), SessionError> {
    if n_slices < 1 {
        return Err(SessionError::InvalidParam(
            "--slices must be at least 1".into(),
        ));
    }
    Ok(())
}

/// Refuse a DP over `nodes` hierarchy nodes at `n` slices whose tables
/// would exceed [`DP_LIMIT_BYTES`], before it allocates them.
fn check_dp_size(nodes: usize, n: usize) -> Result<(), SessionError> {
    let bytes = dp_table_bytes(nodes, n);
    if bytes.is_some_and(|b| b <= DP_LIMIT_BYTES) {
        return Ok(());
    }
    let need = bytes.map_or("more than 2^64".to_string(), |b| b.to_string());
    Err(SessionError::InvalidParam(format!(
        "the DP's tables for {n} slices over {nodes} hierarchy nodes need {need} bytes, \
         over the {DP_LIMIT_BYTES}-byte bound; ask for fewer slices"
    )))
}

/// Shared parameter check for the dichotomy resolution.
pub(crate) fn validate_resolution(resolution: f64) -> Result<(), SessionError> {
    if !(resolution > 0.0 && resolution < 1.0) {
        return Err(SessionError::InvalidParam(format!(
            "--resolution must lie in (0, 1), got {resolution}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Metric
// ---------------------------------------------------------------------------

/// Which microscopic metric the pipeline aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// State-time proportions (the paper's model).
    #[default]
    States,
    /// Peak-normalized event counts (the predecessor work's model).
    Density,
}

impl Metric {
    /// Stable tag used in artifact keys.
    pub fn tag(self) -> &'static str {
        match self {
            Metric::States => "states",
            Metric::Density => "density",
        }
    }

    /// Build the microscopic model of a trace for this metric. `None` when
    /// the trace has no events to slice.
    pub fn build_model(self, trace: &Trace, n_slices: usize) -> Option<MicroModel> {
        match self {
            Metric::States => MicroModel::from_trace(trace, n_slices),
            Metric::Density => event_density_auto(trace, n_slices),
        }
    }

    /// The streaming-sink equivalent of this metric: feed a
    /// [`ModelSink`](ocelotl_trace::ModelSink) of this kind and the result
    /// is bit-identical to [`Metric::build_model`] over the materialized
    /// trace (sequential path).
    pub fn model_kind(self) -> ocelotl_trace::ModelKind {
        match self {
            Metric::States => ocelotl_trace::ModelKind::States,
            Metric::Density => ocelotl_trace::ModelKind::Density,
        }
    }
}

impl std::str::FromStr for Metric {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "states" => Ok(Metric::States),
            "density" => Ok(Metric::Density),
            other => Err(format!("unknown metric {other:?} (states|density)")),
        }
    }
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// FNV-1a offset basis (the seed of every artifact key).
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a running hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Default artifact-store retention: how many recent keys of one kind a
/// stem keeps before garbage collection (see `ocelotl-format`'s
/// `DiskStore`). Overridable per session via [`SessionConfig::cache_keep`]
/// or the `OCELOTL_CACHE_KEEP` environment variable (wired by the CLI).
pub const DEFAULT_CACHE_KEEP: usize = 4;

/// The pipeline parameters that participate in the artifact key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// `|T|`: time slices of the microscopic model.
    pub n_slices: usize,
    /// Which microscopic metric to aggregate.
    pub metric: Metric,
    /// Artifact-store GC retention (keys kept per stem and kind). This is
    /// operational policy, not content: it does **not** participate in
    /// [`SessionConfig::key`], so changing it never invalidates artifacts.
    pub cache_keep: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            n_slices: 30,
            metric: Metric::States,
            cache_keep: DEFAULT_CACHE_KEEP,
        }
    }
}

impl SessionConfig {
    /// Check the parameters where a config enters the system (the CLI's
    /// options, a wire request): the model needs at least one slice.
    pub fn validate(&self) -> Result<(), SessionError> {
        validate_slices(self.n_slices)
    }

    /// Artifact key: hash of (trace fingerprint, slicing params, metric).
    /// Any change to the inputs or parameters changes the key, which is
    /// what makes stale cache hits impossible. Retention
    /// (`cache_keep`) is deliberately excluded — it changes how many old
    /// keys survive, never which bytes a key resolves to.
    pub fn key(&self, trace_fingerprint: u64) -> u64 {
        let mut h = FNV_SEED;
        h = fnv1a(h, &trace_fingerprint.to_le_bytes());
        h = fnv1a(h, &(self.n_slices as u64).to_le_bytes());
        h = fnv1a(h, self.metric.tag().as_bytes());
        h
    }
}

// ---------------------------------------------------------------------------
// Model sources
// ---------------------------------------------------------------------------

/// Deterministic ingestion telemetry a [`ModelSource`] may report next to
/// the model it built — what the `Stats` query and `info --stats` surface.
/// Wall-clock timings are deliberately absent: every field is a pure
/// function of the trace bytes and the slicing parameters, so replies
/// carrying these stats are byte-identical across cold, warm and server
/// paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestStats {
    /// Bytes the ingest read from disk: its plan's headers and indexes,
    /// extent scans and decodes (a fingerprint's reads are not an
    /// ingest's).
    pub bytes_read: u64,
    /// Interval records decoded.
    pub intervals: u64,
    /// Point records decoded.
    pub points: u64,
    /// Peak resident footprint of the streaming accumulator, in bytes.
    pub peak_bytes: u64,
    /// Ingestion strategy tag (`single-pass` / `two-pass`).
    pub mode: String,
    /// Detected trace format tag (`btf` / `ptf` / `paje`, with a
    /// `+gzip` suffix for compressed inputs).
    pub format: String,
    /// Whether the input was gzip-compressed.
    pub gzip: bool,
    /// Input bytes per shard, in shard order (one entry per byte-range
    /// shard of a single file, or per file of a directory trace).
    /// Content-derived: the shard plan never depends on the worker
    /// count, so this stays deterministic.
    pub shards: Vec<u64>,
    /// Chunks in the columnar source's index (zero for non-chunked
    /// formats).
    pub chunks_total: u64,
    /// Chunks actually decoded — equals `chunks_total` for a full
    /// ingest, fewer when predicate pushdown skipped some.
    pub chunks_read: u64,
    /// Payload bytes predicate pushdown left unread on disk.
    pub bytes_skipped: u64,
}

impl IngestStats {
    /// Event count in the Table II convention (2 per interval + 1 per
    /// point).
    pub fn events(&self) -> u64 {
        self.intervals * 2 + self.points
    }
}

/// A hi-res grid reported by a [`ModelSource`] **without** ingesting the
/// trace — read from a columnar trace's header and chunk index alone. The
/// session snaps re-slice windows against it (via
/// [`snap_to_grid`](crate::hires::snap_to_grid)) so a windowed pushdown
/// ingest lands on exactly the edges a resident-grid snap would pick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushdownProbe {
    /// The trace's declared time range — the hi-res grid span.
    pub range: (f64, f64),
    /// `H`: the hi-res slice count a hi-res ingest at the requested
    /// resolution would use.
    pub hi_slices: usize,
}

/// Where the session gets its microscopic model from.
///
/// The session itself cannot read trace files (file formats live above this
/// crate), so the first pipeline stage is pluggable: the CLI supplies a
/// file-backed source, benchmarks and examples an in-memory one.
///
/// Sources must be [`Send`] + [`Sync`] so a long-lived server can host
/// sessions behind shared references and answer queries from any
/// connection thread concurrently (every [`AnalysisSession`] query takes
/// `&self`).
pub trait ModelSource: Send + Sync {
    /// Stable fingerprint of the underlying trace bytes. Two sources with
    /// the same fingerprint must describe the same trace. The session asks
    /// for it only where a key is used — to key its artifact store and to
    /// answer a `stats` request — and memoizes it
    /// ([`AnalysisSession::fingerprint`]).
    fn fingerprint(&self) -> Result<u64, SessionError>;

    /// Produce the microscopic model (the expensive cold-path stage).
    /// Sources wrapping an already-sliced model may ignore the parameters.
    fn model(&self, n_slices: usize, metric: Metric) -> Result<MicroModel, SessionError>;

    /// Produce the model plus ingestion telemetry, when the source can
    /// report it (file-backed sources measure the ingest that built the
    /// model). The default wraps [`ModelSource::model`] with no stats.
    fn model_with_stats(
        &self,
        n_slices: usize,
        metric: Metric,
    ) -> Result<(MicroModel, Option<IngestStats>), SessionError> {
        Ok((self.model(n_slices, metric)?, None))
    }

    /// The number of nodes of the trace's hierarchy, read without
    /// ingesting it (file-backed sources answer from the header), so the
    /// session can refuse a DP too large to run before any read. `None`
    /// (the default) when the source cannot tell cheaply; the bound is
    /// then checked on the model.
    fn hierarchy_size(&self) -> Option<usize> {
        None
    }

    /// Build the **super-resolution** intermediate for a requested
    /// resolution (see [`HiResModel`]): the trace sliced into
    /// `hi_res_slices(n_slices, |S|)` periods, from which the session
    /// derives this and any later compatible resolution by pure in-memory
    /// rebinning — no further trace reads.
    ///
    /// `Ok(None)` (the default) declares the source incapable of hi-res
    /// ingestion (e.g. it wraps an already-sliced model); the session then
    /// falls back to [`ModelSource::model_with_stats`] per resolution.
    fn hi_res_with_stats(
        &self,
        n_slices: usize,
        metric: Metric,
    ) -> Result<Option<(HiResModel, Option<IngestStats>)>, SessionError> {
        let _ = (n_slices, metric);
        Ok(None)
    }

    /// Report the hi-res grid a windowed ingest at `n_slices` would use,
    /// **without reading any events** — sources over chunk-indexed
    /// columnar traces answer from the header and footer alone. `Ok(None)`
    /// (the default) declares the source unable to probe; the session then
    /// materializes the full hi-res intermediate before snapping windows.
    fn pushdown_probe(
        &self,
        n_slices: usize,
        metric: Metric,
    ) -> Result<Option<PushdownProbe>, SessionError> {
        let _ = (n_slices, metric);
        Ok(None)
    }

    /// Build the hi-res intermediate restricted to the hi-res slice window
    /// `[first, first + count)`, decoding only the parts of the trace that
    /// overlap it (predicate pushdown). The returned model spans the
    /// **full** hi-res grid with zeroed cells outside the window — good
    /// for deriving windowed models, never for installing as the resident
    /// full-range intermediate. `Ok(None)` (the default) falls back to the
    /// full ingest.
    fn hi_res_window_with_stats(
        &self,
        n_slices: usize,
        metric: Metric,
        first: usize,
        count: usize,
    ) -> Result<Option<(HiResModel, Option<IngestStats>)>, SessionError> {
        let _ = (n_slices, metric, first, count);
        Ok(None)
    }
}

/// A source wrapping an already-built model (benchmarks, examples, tests).
/// The caller supplies the fingerprint — typically a hash of the trace
/// bytes the model was derived from.
pub struct OwnedSource {
    model: MicroModel,
    fingerprint: u64,
}

impl OwnedSource {
    /// Wrap a model under the given content fingerprint.
    pub fn new(model: MicroModel, fingerprint: u64) -> Self {
        Self { model, fingerprint }
    }
}

impl ModelSource for OwnedSource {
    fn fingerprint(&self) -> Result<u64, SessionError> {
        Ok(self.fingerprint)
    }

    fn model(&self, _n_slices: usize, _metric: Metric) -> Result<MicroModel, SessionError> {
        Ok(self.model.clone())
    }
}

/// The source behind a live session: there is no trace on disk yet, so
/// every model must come from the resident appendable [`HiResModel`] —
/// any attempt to fall back to a trace read is a hard, typed error.
struct LiveSource;

impl ModelSource for LiveSource {
    fn fingerprint(&self) -> Result<u64, SessionError> {
        Err(SessionError::source(
            "live sessions have no trace bytes to fingerprint",
        ))
    }

    fn model(&self, _n_slices: usize, _metric: Metric) -> Result<MicroModel, SessionError> {
        Err(SessionError::source(
            "live sessions derive every model from the resident grid",
        ))
    }
}

// ---------------------------------------------------------------------------
// Partition table
// ---------------------------------------------------------------------------

/// One memoized DP result: the optimal partition of an exact
/// `(p, tie-breaking)` query.
#[derive(Debug, Clone, PartialEq)]
pub struct PointEntry {
    /// The trade-off parameter the DP ran at.
    pub p: f64,
    /// Whether [`DpConfig::coarse_ties`] was used.
    pub coarse: bool,
    /// The optimal partition.
    pub partition: Partition,
}

/// A complete significant-levels enumeration (see
/// [`significant_partitions`]) at one dichotomy resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct SignificantSet {
    /// The dichotomy resolution the set was computed at.
    pub resolution: f64,
    /// One entry per stability interval of `p`.
    pub entries: Vec<PEntry>,
}

/// Every DP result the session knows about: exact point queries plus (at
/// most one) significant-levels enumeration. This is what `.opart`
/// artifacts serialize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartitionTable {
    /// The significant-levels enumeration, if one was computed.
    pub significant: Option<SignificantSet>,
    /// Memoized exact-point DP results.
    pub points: Vec<PointEntry>,
}

impl PartitionTable {
    /// Exact-match lookup: the stored partition of a `(p, coarse)` query.
    /// Matching is on the *bit pattern* of `p` — a cached partition is only
    /// served for exactly the query that produced it, which is what keeps
    /// warm answers bit-identical to cold ones even at stability-interval
    /// boundaries.
    pub fn lookup(&self, p: f64, coarse: bool) -> Option<&Partition> {
        self.points
            .iter()
            .find(|e| e.p.to_bits() == p.to_bits() && e.coarse == coarse)
            .map(|e| &e.partition)
    }

    /// Record a DP result (no-op if the exact query is already present).
    pub fn insert_point(&mut self, p: f64, coarse: bool, partition: Partition) {
        if self.lookup(p, coarse).is_none() {
            self.points.push(PointEntry {
                p,
                coarse,
                partition,
            });
        }
    }

    /// The significant set, if one was computed at exactly `resolution`.
    pub fn significant_at(&self, resolution: f64) -> Option<&[PEntry]> {
        self.significant
            .as_ref()
            .filter(|s| s.resolution.to_bits() == resolution.to_bits())
            .map(|s| s.entries.as_slice())
    }
}

// ---------------------------------------------------------------------------
// Artifact stores
// ---------------------------------------------------------------------------

/// Persistence hook for the on-disk artifacts. Implementations must be
/// best-effort: a `store_*` returning `false` (e.g. a read-only cache
/// directory) degrades the session to cold behavior, never to an error.
/// [`Send`] + [`Sync`] for the same reason as [`ModelSource`]:
/// server-hosted sessions are queried concurrently from many threads.
pub trait ArtifactStore: Send + Sync {
    /// Load the cube prefix sums stored under `key`, if present and valid.
    fn load_cube(&self, key: u64) -> Option<CubeCore>;
    /// Persist the cube prefix sums under `key`.
    fn store_cube(&self, key: u64, core: &CubeCore) -> bool;
    /// Load the partition table stored under `key`, if present and valid.
    fn load_partitions(&self, key: u64) -> Option<PartitionTable>;
    /// Persist the partition table under `key`.
    fn store_partitions(&self, key: u64, table: &PartitionTable) -> bool;
    /// Load the hi-res intermediate stored under `key` (the `.omicro`
    /// artifact: a warm session re-slices from the store without the
    /// trace). Default: always a miss, so existing stores keep compiling.
    fn load_hi_res(&self, key: u64) -> Option<HiResModel> {
        let _ = key;
        None
    }
    /// Persist the hi-res intermediate under `key`. Default: declined.
    fn store_hi_res(&self, key: u64, hi: &HiResModel) -> bool {
        let _ = (key, hi);
        false
    }
}

/// An in-process store (a keyed map). Useful for tests and for library
/// callers that want cross-session memoization without touching disk.
#[derive(Default)]
pub struct MemoryStore {
    cubes: Mutex<HashMap<u64, CubeCore>>,
    tables: Mutex<HashMap<u64, PartitionTable>>,
    hi_res: Mutex<HashMap<u64, HiResModel>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Lock a mutex, recovering from poisoning: the data behind the
/// session's mutexes (store maps, a stage's build token) stays whole when
/// a holder panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ArtifactStore for MemoryStore {
    fn load_cube(&self, key: u64) -> Option<CubeCore> {
        lock(&self.cubes).get(&key).cloned()
    }
    fn store_cube(&self, key: u64, core: &CubeCore) -> bool {
        lock(&self.cubes).insert(key, core.clone());
        true
    }
    fn load_partitions(&self, key: u64) -> Option<PartitionTable> {
        lock(&self.tables).get(&key).cloned()
    }
    fn store_partitions(&self, key: u64, table: &PartitionTable) -> bool {
        lock(&self.tables).insert(key, table.clone());
        true
    }
    fn load_hi_res(&self, key: u64) -> Option<HiResModel> {
        lock(&self.hi_res).get(&key).cloned()
    }
    fn store_hi_res(&self, key: u64, hi: &HiResModel) -> bool {
        lock(&self.hi_res).insert(key, hi.clone());
        true
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// How the session obtained its quality cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CubeSource {
    /// Built from the model (trace was read and sliced this session).
    Cold,
    /// Deserialized from an artifact store — the trace was never touched.
    Warm,
}

/// One zoomed re-slice window, pinned to the hi-res grid it was snapped
/// against: `[first, first + count)` hi-res slices covering the snapped
/// time range `[t0, t1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResliceWindow {
    /// First hi-res slice (inclusive).
    pub first: usize,
    /// Number of hi-res slices covered.
    pub count: usize,
    /// Snapped window start (a hi-res slice edge).
    pub t0: f64,
    /// Snapped window end (a hi-res slice edge).
    pub t1: f64,
}

/// One pipeline stage: a set-once cell built on first use through
/// `&self`. The first caller runs the build holding the stage's build
/// token and racing callers wait on the token for that one result; no
/// other lock is held across the build. Readers of a built stage take no
/// lock, and a failed build leaves the stage empty for the next caller.
struct Stage<T> {
    value: OnceLock<T>,
    build: Mutex<()>,
}

impl<T> Default for Stage<T> {
    fn default() -> Self {
        Self {
            value: OnceLock::new(),
            build: Mutex::new(()),
        }
    }
}

impl<T> Stage<T> {
    fn get(&self) -> Option<&T> {
        self.value.get()
    }

    /// The value, running `build` first when the stage is empty.
    fn get_or_build(
        &self,
        build: impl FnOnce() -> Result<T, SessionError>,
    ) -> Result<&T, SessionError> {
        if let Some(v) = self.value.get() {
            return Ok(v);
        }
        let _token = lock(&self.build);
        if let Some(v) = self.value.get() {
            return Ok(v);
        }
        let v = build()?;
        Ok(self.value.get_or_init(|| v))
    }

    /// The value, running `load` first when the stage is empty; a `load`
    /// that finds nothing (`Ok(None)`) leaves the stage empty.
    fn get_or_load(
        &self,
        load: impl FnOnce() -> Result<Option<T>, SessionError>,
    ) -> Result<Option<&T>, SessionError> {
        if let Some(v) = self.value.get() {
            return Ok(Some(v));
        }
        let _token = lock(&self.build);
        if let Some(v) = self.value.get() {
            return Ok(Some(v));
        }
        Ok(load()?.map(|v| self.value.get_or_init(|| v)))
    }
}

/// What the session knows of the source read behind a model or hi-res
/// intermediate — the answer to the `Stats` query.
#[derive(Clone)]
enum Telemetry {
    /// No source read produced it: a warm `.omicro` or a live feed.
    Unread,
    /// A source read, with the telemetry it reported (`None`: the source
    /// reports none).
    Read(Option<IngestStats>),
}

/// One derived pipeline: the stages downstream of the hi-res intermediate
/// for a single `(n_slices, window)` resolution, shared by the snapshots
/// at that resolution. The partition table is the one stage that grows
/// after its build: new DP results memoize into it under its lock.
#[derive(Default)]
struct Derived {
    model: Stage<(MicroModel, Telemetry)>,
    cube: Stage<(CubeCore, CubeSource)>,
    /// The dense matrices the first DP built over `cube`, while this is
    /// the session's dense holder (see [`AnalysisSession::dense`]). The
    /// mutex guards only the `Arc`: every DP runs on its own handle.
    dense: Mutex<Option<Arc<DenseCube>>>,
    table: Stage<RwLock<PartitionTable>>,
    stats: Stage<Option<IngestStats>>,
    /// The cut trees of the DPs run on this pipeline, one per `(p, tie
    /// rule)`: kept by live pipelines at the publish resolution only, for
    /// the next refresh.
    trees: Mutex<Vec<Arc<KeptTree>>>,
    /// The trees inherited from the pipeline a batch replaced (shared,
    /// never copied), and `a`: the first coarse slice any batch touched
    /// since they were computed.
    carry: (Vec<Arc<KeptTree>>, usize),
}

/// The cut tree of one `(p, tie rule)` DP.
struct KeptTree {
    p: f64,
    coarse: bool,
    tree: CutTree,
}

impl KeptTree {
    fn is(&self, p: f64, coarse: bool) -> bool {
        self.p.to_bits() == p.to_bits() && self.coarse == coarse
    }
}

/// Full-grid pipelines the session keeps cached (models, prefix sums and
/// partition tables; artifacts also persist in the store when one is
/// attached). Windowed pipelines are never cached.
const PIPELINES_KEPT: usize = 4;

/// The session's hi-res grid and, on a live session, the interval events
/// folded into it.
#[derive(Default)]
struct Grid {
    /// `None` until built; `Some(None)`: the source cannot build one.
    hi: Option<Option<(HiResModel, Telemetry)>>,
    folded: u64,
}

/// What a live snapshot reflects of its session's grid (zeros on a session
/// that is not live): events folded, batches that changed a cell or grew
/// the grid, the grid's periods `H`, and the last hi-res slice any append
/// reported or that held data when the session opened (every later slice
/// holds only zeros).
#[derive(Debug, Clone, Copy, Default)]
struct LiveMark {
    events: u64,
    generation: u64,
    h: usize,
    last_data: Option<usize>,
}

/// Everything the snapshots of one session share, whatever their
/// resolution.
struct Shared {
    source: Box<dyn ModelSource>,
    store: Option<Box<dyn ArtifactStore>>,
    fingerprint: OnceLock<u64>,
    /// The resident hi-res grid. Its lock is held to build it, to derive a
    /// model from it and to append to a live one.
    grid: Mutex<Grid>,
    /// A live session's publish resolution: appends grow the grid in
    /// multiples of it, so it keeps dividing the grid.
    live: Option<usize>,
    /// Recently used full-grid pipelines by `n_slices`, most recent first.
    /// A live batch that changes a cell empties it.
    pipelines: Mutex<Vec<(usize, Arc<Derived>)>>,
    /// The one pipeline allowed to keep its dense matrices (see
    /// [`AnalysisSession::hold_dense`]).
    dense_holder: Mutex<Weak<Derived>>,
    source_reads: AtomicUsize,
    dp_runs: AtomicUsize,
    /// Size bound for the dense matrices of every cube this session
    /// builds ([`DENSE_LIMIT_BYTES`]; tests lower it to force the
    /// prefix-sum DP).
    dense_limit: usize,
}

/// An immutable snapshot of the memoized pipeline at one `(n_slices,
/// window)` resolution, cheap to clone (see the module docs). Every stage
/// is computed at most once, on first use, by a `&self` accessor, and
/// expensive artifacts persist through an optional [`ArtifactStore`].
/// [`AnalysisSession::resliced`] and [`AnalysisSession::advanced`] build a
/// new snapshot through `&self`; [`AnalysisSession::reslice`] and
/// [`AnalysisSession::advance`] replace this one with it.
///
/// The first trace read slices into the [`HiResModel`] super-resolution
/// intermediate, which stays resident; the model at the snapshot's
/// `n_slices` is derived from it by pure rebinning. A re-slice to any
/// resolution the resident grid [`serves`](HiResModel::serves) — or any
/// resolution with a warm `.omicro`/`.ocube` artifact — therefore performs
/// **zero trace disk reads**, and is bit-identical to a fresh ingest at
/// that resolution (see the `hires` module docs for why). Of all the
/// session's pipelines, only the one that last ran a DP or was re-sliced
/// to keeps its dense matrices.
#[derive(Clone)]
pub struct AnalysisSession {
    shared: Arc<Shared>,
    derived: Arc<Derived>,
    config: SessionConfig,
    window: Option<ResliceWindow>,
    mark: LiveMark,
}

fn misaligned() -> SessionError {
    SessionError::InvalidParam(
        "re-slice window no longer aligns with the resident hi-res grid".into(),
    )
}

fn cannot_window() -> SessionError {
    SessionError::InvalidParam("this model source cannot re-slice into a time window".into())
}

fn undivided(n: usize, hi: &HiResModel) -> SessionError {
    SessionError::InvalidParam(format!(
        "--slices {n} does not divide the live grid's {} periods",
        hi.n_slices()
    ))
}

impl AnalysisSession {
    /// A session over `source` with the given pipeline parameters and no
    /// persistence (in-memory memoization only).
    pub fn new(source: impl ModelSource + 'static, config: SessionConfig) -> Self {
        let derived = Arc::new(Derived::default());
        let shared = Shared {
            source: Box::new(source),
            store: None,
            fingerprint: OnceLock::new(),
            grid: Mutex::default(),
            live: None,
            pipelines: Mutex::new(vec![(config.n_slices, Arc::clone(&derived))]),
            dense_holder: Mutex::default(),
            source_reads: AtomicUsize::new(0),
            dp_runs: AtomicUsize::new(0),
            dense_limit: DENSE_LIMIT_BYTES,
        };
        Self {
            shared: Arc::new(shared),
            derived,
            config,
            window: None,
            mark: LiveMark::default(),
        }
    }

    /// A **live** session over an appendable resident grid: `hi_res` is an
    /// (initially empty) [`HiResModel`] whose grid declares the expected
    /// horizon, and [`AnalysisSession::advanced`] feeds it interval events
    /// as they happen. `config.n_slices` is the publish resolution. Live
    /// sessions have no trace and no artifact store; every model is
    /// derived from the resident grid by [`HiResModel::derive_at`], so any
    /// `n_slices` dividing the (possibly grown) grid is servable — and on
    /// an ungrown grid the derived model is bit-identical to what a
    /// post-mortem ingest of the same events over the same declared range
    /// would produce.
    pub fn live(config: SessionConfig, hi_res: HiResModel) -> Result<Self, SessionError> {
        if hi_res.metric() != config.metric {
            return Err(SessionError::InvalidParam(
                "live grid metric does not match the session config".into(),
            ));
        }
        if !hi_res.n_slices().is_multiple_of(config.n_slices.max(1)) || config.n_slices < 1 {
            return Err(undivided(config.n_slices, &hi_res));
        }
        let mut live = Self::new(LiveSource, config);
        live.mark.h = hi_res.n_slices();
        live.mark.last_data = hi_res.last_data_slice();
        // A session just built shares its state with no sibling yet.
        if let Some(shared) = Arc::get_mut(&mut live.shared) {
            shared.live = Some(config.n_slices);
            shared.grid = Mutex::new(Grid {
                hi: Some(Some((hi_res, Telemetry::Unread))),
                folded: 0,
            });
        }
        Ok(live)
    }

    /// Attach an artifact store (builder style, before the session is
    /// cloned or re-sliced: a session whose state a sibling already shares
    /// keeps the store it has).
    pub fn with_store(mut self, store: impl ArtifactStore + 'static) -> Self {
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            shared.store = Some(Box::new(store));
        }
        self
    }

    /// The pipeline parameters (`n_slices` is this snapshot's resolution).
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The content-addressed artifact key of this snapshot's resolution
    /// (fingerprint computed once per session, shared across threads).
    pub fn key(&self) -> Result<u64, SessionError> {
        Ok(self.config.key(self.fingerprint()?))
    }

    /// The source's content fingerprint, memoized for the session and
    /// shared across threads.
    pub fn fingerprint(&self) -> Result<u64, SessionError> {
        if let Some(fp) = self.shared.fingerprint.get() {
            return Ok(*fp);
        }
        let fp = self.shared.source.fingerprint()?;
        Ok(*self.shared.fingerprint.get_or_init(|| fp))
    }

    /// Key of the `.omicro` hi-res artifact: hashes the trace fingerprint
    /// and the metric, **not** `n_slices` — one hi-res intermediate serves
    /// every resolution in its dyadic family, so all of them must find it.
    fn hi_key(&self) -> Result<u64, SessionError> {
        let fp = self.fingerprint()?;
        let mut h = FNV_SEED;
        h = fnv1a(h, &fp.to_le_bytes());
        h = fnv1a(h, b"omicro");
        h = fnv1a(h, self.config.metric.tag().as_bytes());
        Ok(h)
    }

    /// How the cube was obtained, once [`AnalysisSession::cube`] ran.
    pub fn cube_source(&self) -> Option<CubeSource> {
        self.derived.cube.get().map(|(_, source)| *source)
    }

    /// Number of DP (Algorithm 1 / dichotomy) invocations this session,
    /// across all its snapshots — zero for a fully warm session answering
    /// cached queries.
    pub fn dp_runs(&self) -> usize {
        self.shared.dp_runs.load(Ordering::Relaxed)
    }

    /// Number of times the session, across all its snapshots, asked its
    /// [`ModelSource`] to read the underlying trace (hi-res or direct).
    /// Stays put across any `--slices` change the resident hi-res model or
    /// a warm artifact can serve — the property the re-slice test suite
    /// pins.
    pub fn source_reads(&self) -> usize {
        self.shared.source_reads.load(Ordering::Relaxed)
    }

    /// The hi-res grid's slice count: the live grid's as this snapshot saw
    /// it, or the resident intermediate's when one was materialized.
    pub fn hi_res_slices(&self) -> Option<usize> {
        match self.shared.live {
            Some(_) => Some(self.mark.h),
            None => self.resident_slices(),
        }
    }

    fn resident_slices(&self) -> Option<usize> {
        let grid = self.grid().ok()?;
        grid.hi.as_ref()?.as_ref().map(|(h, _)| h.n_slices())
    }

    /// The hi-res grid, locked. A live grid that a panic left mid-append
    /// is refused from then on; any other grid is replaced whole or not at
    /// all, so it stays usable.
    fn grid(&self) -> Result<MutexGuard<'_, Grid>, SessionError> {
        match self.shared.grid.lock() {
            Err(_) if self.is_live() => Err(SessionError::source(
                "live grid poisoned by a panic during an append",
            )),
            locked => Ok(locked.unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// The snapshot's zoom window (snapped to the hi-res grid), if any.
    pub fn window(&self) -> Option<(f64, f64)> {
        self.window.map(|w| (w.t0, w.t1))
    }

    /// Whether this is a live (appendable) session.
    pub fn is_live(&self) -> bool {
        self.shared.live.is_some()
    }

    /// Interval events this snapshot reflects (live sessions only).
    pub fn live_events(&self) -> u64 {
        self.mark.events
    }

    /// Monotonic change counter: bumped by every batch that touched a cell
    /// or grew the grid.
    pub fn generation(&self) -> u64 {
        self.mark.generation
    }

    /// [`AnalysisSession::advanced`], replacing this snapshot with the
    /// next one.
    pub fn advance(&mut self, events: &[LiveEvent]) -> Result<AppendOutcome, SessionError> {
        self.advanced(events).map(|(next, outcome)| {
            *self = next;
            outcome
        })
    }

    /// Append a batch of interval events to the live grid and return the
    /// snapshot that reflects it; this one stays as it was. Only the
    /// session's latest snapshot can advance, so batches land in order.
    ///
    /// The next snapshot replaces exactly the pipeline the batch touches: a
    /// full-grid one whenever anything landed, a windowed one only when the
    /// batch's touched slice range intersects its window. Growth appends
    /// whole periods of the same slice width, in multiples of the publish
    /// resolution, which leaves every untouched window's time range — and
    /// therefore its derived cells — unchanged. At the publish resolution
    /// the next model is derived here, under the grid lock, so it is
    /// exactly this batch's (see the module docs for what it reuses). Any
    /// other replaced pipeline derives on first use from the grid as it
    /// then stands.
    pub fn advanced(&self, events: &[LiveEvent]) -> Result<(Self, AppendOutcome), SessionError> {
        let Some(quantum) = self.shared.live else {
            return Err(SessionError::InvalidParam(
                "advance is only valid on a live session".into(),
            ));
        };
        let mut grid = self.grid()?;
        let Grid {
            hi: Some(Some((hi, _))),
            folded,
        } = &mut *grid
        else {
            return Err(SessionError::source("live session lost its resident grid"));
        };
        if *folded != self.mark.events {
            return Err(SessionError::InvalidParam(
                "this live snapshot is stale: a later batch already advanced its session".into(),
            ));
        }
        let outcome = hi
            .append(events, quantum)
            .map_err(|e| SessionError::Source(format!("append refused: {e}")))?;
        *folded += events.len() as u64;
        let mut next = self.clone();
        next.mark.events = *folded;
        let Some((lo, last)) = outcome.touched else {
            return Ok((next, outcome));
        };
        next.mark.generation += 1;
        next.mark.last_data = self.mark.last_data.max(Some(last));
        next.mark.h = hi.n_slices();
        match self.window {
            None if self.config.n_slices == quantum => {
                next.derived = Arc::new(self.refreshed(hi, (lo, last), outcome.grown)?);
            }
            Some(w) if last < w.first || lo >= w.first + w.count => {}
            _ => next.derived = Arc::default(),
        }
        drop(grid);
        lock(&self.shared.pipelines).clear();
        Ok((next, outcome))
    }

    /// The pipeline at the publish resolution after a batch that touched
    /// the hi-res slices `(lo, last)` of `hi` and grew it by `grown`
    /// periods. Unless the grid grew (that widens every coarse slice) or
    /// the metric is density (its peak normalization can rescale every
    /// cell), it re-derives only the batch's band of coarse slices on a
    /// copy of this pipeline's model, and inherits the trees of the DPs
    /// this pipeline ran, stale from the band on — or, if it ran none, the
    /// trees it inherited, stale from the smaller first slice.
    fn refreshed(
        &self,
        hi: &HiResModel,
        (lo, last): (usize, usize),
        grown: usize,
    ) -> Result<Derived, SessionError> {
        let n = self.config.n_slices;
        let band = (lo / (hi.n_slices() / n), last / (hi.n_slices() / n));
        let old = &self.derived;
        let carries = grown == 0 && self.keeps_trees();
        let model = match old.model.get() {
            Some((model, _)) if carries => {
                let mut model = model.clone();
                hi.rederive_band(&mut model, band);
                model
            }
            _ => hi.derive_at(n).ok_or_else(|| undivided(n, hi))?,
        };
        let own = lock(&old.trees).clone();
        let carry = match (carries, own.is_empty()) {
            (false, _) => Default::default(),
            (true, false) => (own, band.0),
            (true, true) => (old.carry.0.clone(), old.carry.1.min(band.0)),
        };
        Ok(Derived {
            model: Stage {
                value: OnceLock::from((model, Telemetry::Unread)),
                build: Mutex::default(),
            },
            carry,
            ..Derived::default()
        })
    }

    /// The artifact store, when it applies to this snapshot's pipeline:
    /// zoomed windows are in-memory only (their grids are not addressed by
    /// the `(trace, n_slices)` key space).
    fn active_store(&self) -> Option<&dyn ArtifactStore> {
        self.shared
            .store
            .as_deref()
            .filter(|_| self.window.is_none())
    }

    /// A warm `.omicro` intermediate able to serve `n`, if the store holds
    /// one.
    fn stored_hi_res(&self, n: usize) -> Result<Option<HiResModel>, SessionError> {
        let Some(store) = self.shared.store.as_deref() else {
            return Ok(None);
        };
        Ok(store
            .load_hi_res(self.hi_key()?)
            .filter(|h| h.metric() == self.config.metric && h.serves(n)))
    }

    /// Run `f` on the hi-res grid under its lock, building the grid first
    /// for resolution `n` when none is resident: a warm `.omicro` first,
    /// else a hi-res ingest (persisted when it serves `n`). `f` sees `None`
    /// when the source cannot build one.
    fn with_grid<T>(
        &self,
        n: usize,
        f: impl FnOnce(Option<&(HiResModel, Telemetry)>) -> Result<T, SessionError>,
    ) -> Result<T, SessionError> {
        let mut grid = self.grid()?;
        if grid.hi.is_none() {
            grid.hi = Some(match self.stored_hi_res(n)? {
                Some(h) => Some((h, Telemetry::Unread)),
                None => self.ingest_hi_res(n)?,
            });
        }
        f(grid.hi.as_ref().and_then(Option::as_ref))
    }

    fn ingest_hi_res(&self, n: usize) -> Result<Option<(HiResModel, Telemetry)>, SessionError> {
        let metric = self.config.metric;
        let Some((h, stats)) = self.shared.source.hi_res_with_stats(n, metric)? else {
            return Ok(None);
        };
        self.shared.source_reads.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = self.shared.store.as_deref().filter(|_| h.serves(n)) {
            store.store_hi_res(self.hi_key()?, &h);
        }
        Ok(Some((h, Telemetry::Read(stats))))
    }

    /// Drop a resident grid that cannot serve resolution `n`, so the next
    /// hi-res build ingests `n`'s own grid. A live grid always stays: there
    /// is no trace to re-ingest, and any divisor of it derives.
    fn retarget(&self, n: usize) {
        if self.is_live() {
            return;
        }
        let mut grid = lock(&self.shared.grid);
        if grid
            .hi
            .as_ref()
            .and_then(Option::as_ref)
            .is_some_and(|(h, _)| !h.serves(n))
        {
            grid.hi = None;
        }
    }

    /// The microscopic model at this snapshot's resolution, built on first
    /// use: rebinned from the resident hi-res intermediate whenever it (or
    /// a warm `.omicro` artifact) serves the resolution, read from the
    /// trace otherwise. Commands should prefer [`AnalysisSession::cube`]
    /// whenever the query can be answered from the cube alone.
    pub fn model(&self) -> Result<&MicroModel, SessionError> {
        Ok(&self.built_model()?.0)
    }

    fn built_model(&self) -> Result<&(MicroModel, Telemetry), SessionError> {
        self.derived.model.get_or_build(|| self.build_model())
    }

    fn build_model(&self) -> Result<(MicroModel, Telemetry), SessionError> {
        let n = self.config.n_slices;
        let metric = self.config.metric;
        if let Some(w) = self.window {
            // Windowed pipelines: the resident grid serves for free; a
            // source that can push the window down to the trace format
            // (columnar chunk skipping) reads only the overlapping
            // chunks; otherwise the full hi-res ingest.
            if self.resident_slices().is_none() {
                if let Some((h, stats)) = self
                    .shared
                    .source
                    .hi_res_window_with_stats(n, metric, w.first, w.count)?
                {
                    self.shared.source_reads.fetch_add(1, Ordering::Relaxed);
                    // The pushdown model's cells outside the window are
                    // zeros, so it only ever backs this derivation —
                    // deliberately NOT installed as the resident grid.
                    let model = h
                        .derive_window(w.first, w.count, n)
                        .ok_or_else(misaligned)?;
                    return Ok((model, Telemetry::Read(stats)));
                }
            }
            return self.with_grid(n, |grid| {
                let (hi, telemetry) = grid.ok_or_else(cannot_window)?;
                let model = hi
                    .derive_window(w.first, w.count, n)
                    .ok_or_else(misaligned)?;
                Ok((model, telemetry.clone()))
            });
        }
        let derived = self.with_grid(n, |grid| match grid {
            // Live sessions own their grid: once it has grown past the
            // declared horizon, `H` leaves the dyadic fresh-ingest family,
            // but any divisor of the live grid is still the exact
            // left-to-right rebin — and there is no trace to fall back to.
            Some((hi, telemetry)) if self.is_live() => {
                let model = hi.derive_at(n).ok_or_else(|| undivided(n, hi))?;
                Ok(Some((model, telemetry.clone())))
            }
            Some((hi, telemetry)) => Ok(hi.derive(n).map(|m| (m, telemetry.clone()))),
            None => Ok(None),
        })?;
        if let Some(derived) = derived {
            return Ok(derived);
        }
        // Sources without a hi-res intermediate (already-sliced models,
        // `.omm` caches): the classic per-resolution direct build.
        let (model, stats) = self.shared.source.model_with_stats(n, metric)?;
        self.shared.source_reads.fetch_add(1, Ordering::Relaxed);
        Ok((model, Telemetry::Read(stats)))
    }

    /// Ingestion telemetry of this snapshot's pipeline, when the source
    /// reports it: what the source read behind the model reported. A model
    /// derived without a read (a warm `.omicro`, a live feed) runs the
    /// deterministic hi-res ingest once to measure it, so warm and cold
    /// sessions report identical stats. Memoized — including the "this
    /// source reports no telemetry" answer, so a stats-less source is
    /// never re-read.
    pub fn ingest_stats(&self) -> Result<Option<&IngestStats>, SessionError> {
        let stats = self
            .derived
            .stats
            .get_or_build(|| match &self.built_model()?.1 {
                Telemetry::Read(stats) => Ok(stats.clone()),
                Telemetry::Unread => Ok(self
                    .shared
                    .source
                    .hi_res_with_stats(self.config.n_slices, self.config.metric)?
                    .and_then(|(_, stats)| {
                        self.shared.source_reads.fetch_add(1, Ordering::Relaxed);
                        stats
                    })),
            })?;
        Ok(stats.as_ref())
    }

    /// [`AnalysisSession::resliced`], replacing this snapshot with the
    /// sibling.
    pub fn reslice(
        &mut self,
        n_slices: usize,
        window: Option<(f64, f64)>,
    ) -> Result<(), SessionError> {
        self.resliced(n_slices, window)
            .map(|sibling| *self = sibling)
    }

    /// A sibling snapshot at a new slicing resolution, optionally zoomed
    /// into a time window (snapped to the hi-res grid); this snapshot stays
    /// as it is.
    ///
    /// The session caches recent full-grid pipelines: going back to one
    /// re-serves cached partitions with zero DP runs, zero reads and no
    /// cube rebuild. The sibling's model is derived from the resident
    /// [`HiResModel`] with **zero trace reads** whenever the hi-res grid
    /// [`serves`](HiResModel::serves) it (or a warm `.omicro`/`.ocube`
    /// artifact covers it); otherwise the resident grid is dropped and the
    /// sibling's first query re-ingests at its own hi-res grid.
    ///
    /// Windowed siblings are eagerly materialized (pinning them to the
    /// hi-res grid they were snapped against), bypass the artifact store,
    /// and are not cached — revisiting a window re-snaps it against the
    /// *current* hi-res grid, so a replaced grid can never serve a stale
    /// time range.
    pub fn resliced(
        &self,
        n_slices: usize,
        window: Option<(f64, f64)>,
    ) -> Result<Self, SessionError> {
        let sibling = self.sibling(n_slices, window);
        if sibling.is_err() {
            // A failed re-slice may have ingested the target's grid: this
            // snapshot must still find a grid that serves it.
            self.retarget(self.config.n_slices);
        }
        sibling
    }

    fn sibling(&self, n_slices: usize, window: Option<(f64, f64)>) -> Result<Self, SessionError> {
        validate_slices(n_slices)?;
        let win = window
            .map(|(t0, t1)| self.snap_window(n_slices, t0, t1))
            .transpose()?;
        let span = |w: Option<ResliceWindow>| w.map(|w| (w.first, w.count));
        let mut next = self.clone();
        if (n_slices, span(win)) != (self.config.n_slices, span(self.window)) {
            next.config.n_slices = n_slices;
            next.window = win;
            next.derived = match win {
                Some(_) => Arc::default(),
                None => self.cached(n_slices),
            };
        }
        self.retarget(n_slices);
        next.hold_dense();
        if next.window.is_some() {
            // Pin the windowed model to the grid it was snapped against.
            next.model()?;
        }
        Ok(next)
    }

    /// The cached full-grid pipeline at `n_slices`, made the most recent,
    /// or a new one cached in its place.
    fn cached(&self, n_slices: usize) -> Arc<Derived> {
        let mut cached = lock(&self.shared.pipelines);
        let derived = match cached.iter().position(|(n, _)| *n == n_slices) {
            Some(i) => cached.remove(i).1,
            None => Arc::default(),
        };
        cached.insert(0, (n_slices, Arc::clone(&derived)));
        cached.truncate(PIPELINES_KEPT);
        derived
    }

    /// Snap the zoom window `[t0, t1]` to hi-res slice edges for a
    /// re-slice at `n_slices`.
    fn snap_window(
        &self,
        n_slices: usize,
        t0: f64,
        t1: f64,
    ) -> Result<ResliceWindow, SessionError> {
        if !(t0.is_finite() && t1.is_finite() && t1 > t0) {
            return Err(SessionError::InvalidParam(format!(
                "re-slice window must be a finite, non-empty range (got [{t0}, {t1}])"
            )));
        }
        // Pick the grid to snap against, cheapest first: a resident (or
        // warm `.omicro`) intermediate costs nothing; a pushdown-capable
        // source reports its grid from the chunk index without decoding a
        // single event; only a source with neither pays the full hi-res
        // ingest here. A resident grid from another resolution's family
        // is replaced by `n_slices`'s own, never probed around.
        let had_grid = self.resident_slices().is_some();
        self.retarget(n_slices);
        let mut probe = None;
        if !had_grid {
            match self.stored_hi_res(n_slices)? {
                Some(h) => lock(&self.shared.grid).hi = Some(Some((h, Telemetry::Unread))),
                None => {
                    probe = self
                        .shared
                        .source
                        .pushdown_probe(n_slices, self.config.metric)?
                }
            }
        }
        let (range, h) = match probe {
            Some(pb) => (pb.range, pb.hi_slices),
            None => self.with_grid(n_slices, |grid| {
                let (hi, _) = grid.ok_or_else(cannot_window)?;
                let grid = hi.raw().grid();
                Ok(((grid.start(), grid.end()), hi.n_slices()))
            })?,
        };
        let (first, count) = crate::hires::snap_to_grid(range, h, t0, t1).ok_or_else(|| {
            SessionError::InvalidParam(format!(
                "window [{t0}, {t1}] lies outside the trace or collapses on the hi-res grid"
            ))
        })?;
        if count % n_slices != 0 {
            return Err(SessionError::InvalidParam(format!(
                "window spans {count} hi-res slices, not divisible into {n_slices} equal bins \
                 (pick a divisor of {count})"
            )));
        }
        let grid = TimeGrid::new(range.0, range.1, h);
        let (w0, _) = grid.slice_bounds(first);
        let (_, w1) = grid.slice_bounds(first + count - 1);
        Ok(ResliceWindow {
            first,
            count,
            t0: w0,
            t1: w1,
        })
    }

    /// The gain/loss quality cube, built on first use: a warm `.ocube`
    /// from the store, else the prefix sums of the model. The dense
    /// matrices wait for the first DP.
    pub fn cube(&self) -> Result<&CubeCore, SessionError> {
        self.cube_admitting(|_| Ok(()))
    }

    /// The cube a DP runs on, refused when the DP's tables would exceed
    /// [`DP_LIMIT_BYTES`]: before any read from the source's hierarchy
    /// size when it reports one, else from the dimensions of the model
    /// (which the DP needs anyway) before the cube's prefix sums are
    /// built.
    ///
    /// A table size too large to count is left to the model build, as
    /// before: on a trace file those slices also pass the sink's bound
    /// (`ocelotl_trace::MODEL_LIMIT_BYTES`), which refuses the model as a
    /// source error before allocating it.
    fn dp_cube(&self) -> Result<&CubeCore, SessionError> {
        let n = self.config.n_slices;
        if self.derived.cube.get().is_none() {
            let nodes = self.shared.source.hierarchy_size();
            if let Some(nodes) = nodes.filter(|&nodes| dp_table_bytes(nodes, n).is_some()) {
                check_dp_size(nodes, n)?;
            }
        }
        let cube = self.cube_admitting(|m| check_dp_size(m.hierarchy().len(), m.n_slices()))?;
        check_dp_size(cube.hierarchy().len(), cube.n_slices())?;
        Ok(cube)
    }

    /// [`AnalysisSession::cube`], where `admit` may refuse the model before
    /// the prefix sums are built from it.
    fn cube_admitting(
        &self,
        admit: impl FnOnce(&MicroModel) -> Result<(), SessionError>,
    ) -> Result<&CubeCore, SessionError> {
        let (cube, _) = self.derived.cube.get_or_build(|| {
            if let Some(core) = self.stored_cube()? {
                return Ok((core, CubeSource::Warm));
            }
            let model = self.model()?;
            admit(model)?;
            let core = CubeCore::build(model);
            if let Some(store) = self.active_store() {
                store.store_cube(self.key()?, &core);
            }
            Ok((core, CubeSource::Cold))
        })?;
        Ok(cube)
    }

    /// The cube, only if a previous call already materialized it — never
    /// triggers a build or a store lookup. An observation peek for tests
    /// and benchmarks.
    pub fn cube_if_built(&self) -> Option<&CubeCore> {
        self.derived.cube.get().map(|(cube, _)| cube)
    }

    /// The model, only if a previous call already built it (an
    /// observation peek, like [`AnalysisSession::cube_if_built`]).
    pub fn model_if_built(&self) -> Option<&MicroModel> {
        self.derived.model.get().map(|(model, _)| model)
    }

    /// The cube if it is built or a warm `.ocube` exists in the store —
    /// never builds from the model. `None` on a store miss or a store-less
    /// session. Lets dimension-only queries (`Describe`) answer warm
    /// without a trace read and cold without paying for a cube they do
    /// not need.
    pub fn try_warm_cube(&self) -> Result<Option<&CubeCore>, SessionError> {
        let loaded = self
            .derived
            .cube
            .get_or_load(|| Ok(self.stored_cube()?.map(|core| (core, CubeSource::Warm))))?;
        Ok(loaded.map(|(cube, _)| cube))
    }

    /// This snapshot's `.ocube`, if the store holds one. The key hashes the
    /// trace bytes, so it is only computed when a store could actually
    /// serve the cube — a store-less session goes straight to the
    /// (single-pass) model build without a separate fingerprint read.
    fn stored_cube(&self) -> Result<Option<CubeCore>, SessionError> {
        match self.active_store() {
            Some(store) => Ok(store.load_cube(self.key()?)),
            None => Ok(None),
        }
    }

    /// The partition table, built on first use: the store's `.opart`, or
    /// empty.
    fn table(&self) -> Result<&RwLock<PartitionTable>, SessionError> {
        self.derived.table.get_or_build(|| {
            let loaded = match self.active_store() {
                Some(store) => store.load_partitions(self.key()?).unwrap_or_default(),
                None => PartitionTable::default(),
            };
            Ok(RwLock::new(loaded))
        })
    }

    /// Record a new DP result in the table, then persist the table.
    fn record(&self, update: impl FnOnce(&mut PartitionTable)) -> Result<(), SessionError> {
        let table = self.table()?;
        update(&mut table.write().unwrap_or_else(PoisonError::into_inner));
        if let Some(store) = self.active_store() {
            // Memoized key: re-fingerprinting here would re-hash the whole
            // trace on every newly recorded DP result.
            let key = self.key()?;
            store.store_partitions(key, &table.read().unwrap_or_else(PoisonError::into_inner));
        }
        Ok(())
    }

    /// Make this snapshot's pipeline the one that keeps its dense matrices
    /// (before a DP, or on a re-slice to it), releasing those of the
    /// pipeline that held them before; a DP still running on them keeps
    /// its own handle until it ends.
    fn hold_dense(&self) {
        let holder = Arc::downgrade(&self.derived);
        let previous = std::mem::replace(&mut *lock(&self.shared.dense_holder), holder);
        if let Some(previous) = previous
            .upgrade()
            .filter(|d| !Arc::ptr_eq(d, &self.derived))
        {
            let released = lock(&previous.dense).take();
            drop(released);
        }
    }

    /// The dense matrices a DP on `cube` runs on, `None` when it runs on
    /// the prefix sums. A DP that may `build` them does so while they fit
    /// under the session's size bound ([`DENSE_LIMIT_BYTES`]); racing
    /// first DPs block on the one build. A DP that may not (one reusing a
    /// tree reads each cell once, so building them would cost as much as
    /// the prefix sums it saves) reads them only once built. The matrices
    /// take their own copy of the prefix sums, `O(|S|·|T|·|X|)` next to
    /// their `O(|S|·|T|²)`.
    fn dense(&self, cube: &CubeCore, build: bool) -> Option<Arc<DenseCube>> {
        let mut slot = lock(&self.derived.dense);
        let (nodes, n) = (cube.hierarchy().len(), cube.n_slices());
        if slot.is_none() && build && dense_fits(nodes, n, self.shared.dense_limit) {
            *slot = Some(Arc::new(DenseCube::from_core(cube.clone())));
        }
        slot.clone()
    }

    /// The optimal partition at trade-off `p` (Algorithm 1), memoized.
    ///
    /// A cached result (same `p` bit pattern, same tie-breaking) is served
    /// without running the DP; otherwise the DP runs on the (possibly
    /// warm) cube and the result is recorded in the table and persisted.
    /// Concurrent callers racing on the same fresh query may each run the
    /// (deterministic) DP; the table keeps exactly one copy of the
    /// identical result.
    pub fn partition_at(&self, p: f64, coarse: bool) -> Result<Partition, SessionError> {
        validate_p(p)?;
        let table = self.table()?;
        if let Some(part) = table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(p, coarse)
        {
            return Ok(part.clone());
        }
        let cube = self.dp_cube()?;
        let config = if coarse {
            DpConfig::coarse_ties()
        } else {
            DpConfig::default()
        };
        self.hold_dense();
        let reuse = self.reuse(p, coarse);
        let tree = match self.dense(cube, reuse.is_none()) {
            Some(dense) => run_dp(&*dense, p, &config, reuse),
            None => run_dp(cube, p, &config, reuse),
        };
        let partition = tree.partition(cube);
        self.shared.dp_runs.fetch_add(1, Ordering::Relaxed);
        self.keep_tree(p, coarse, tree);
        self.record(|t| t.insert_point(p, coarse, partition.clone()))?;
        Ok(partition)
    }

    /// The inherited tree a DP at `(p, coarse)` may reuse, with the band
    /// it is stale in: from the first slice touched since it was computed
    /// to the last slice that ever held data (see
    /// [`AnalysisSession::advanced`]).
    fn reuse(&self, p: f64, coarse: bool) -> Option<Reuse<'_>> {
        let (trees, first_changed) = &self.derived.carry;
        let kept = trees.iter().find(|t| t.is(p, coarse))?;
        Some(Reuse {
            tree: &kept.tree,
            first_changed: *first_changed,
            last_data: self.mark.last_data? / (self.mark.h / self.config.n_slices),
        })
    }

    /// Whether this snapshot's pipeline keeps its cut trees and passes
    /// them on: live full-grid pipelines at the publish resolution only,
    /// and not on the density metric, whose peak normalization can rescale
    /// every cell.
    fn keeps_trees(&self) -> bool {
        self.window.is_none()
            && self.shared.live == Some(self.config.n_slices)
            && self.config.metric == Metric::States
    }

    /// Keep a live publish-resolution pipeline's cut tree for the next
    /// refresh, once per `(p, tie rule)`: a racing reader's identical tree
    /// is dropped.
    fn keep_tree(&self, p: f64, coarse: bool, tree: CutTree) {
        if !self.keeps_trees() {
            return;
        }
        let mut trees = lock(&self.derived.trees);
        if !trees.iter().any(|t| t.is(p, coarse)) {
            // The DP's worker threads allocated the tree in their own
            // malloc arenas, where a tree kept across refreshes pins freed
            // memory: on perfbench live-refresh it raised the peak RSS by
            // ~15 MB in about one run in six. The kept copy is made here.
            let tree = tree.clone();
            trees.push(Arc::new(KeptTree { p, coarse, tree }));
        }
    }

    /// Alias of [`AnalysisSession::partition_at`], kept only for
    /// perfbench, until the next change to the benchmark.
    pub fn partition_shared(&self, p: f64, coarse: bool) -> Result<Partition, SessionError> {
        self.partition_at(p, coarse)
    }

    /// All significant trade-off levels (the Ocelotl slider stops),
    /// memoized at the given dichotomy resolution. A table loaded from a
    /// `.opart` artifact answers this with **zero** DP runs and no cube.
    pub fn significant(&self, resolution: f64) -> Result<Vec<PEntry>, SessionError> {
        validate_resolution(resolution)?;
        let table = self.table()?;
        if let Some(entries) = table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .significant_at(resolution)
        {
            return Ok(entries.to_vec());
        }
        let cube = self.dp_cube()?;
        self.hold_dense();
        let config = DpConfig::default();
        let entries = match self.dense(cube, true) {
            Some(dense) => significant_partitions(&*dense, &config, resolution),
            None => significant_partitions(cube, &config, resolution),
        };
        self.shared.dp_runs.fetch_add(1, Ordering::Relaxed);
        self.record(|t| {
            t.significant = Some(SignificantSet {
                resolution,
                entries: entries.clone(),
            })
        })?;
        Ok(entries)
    }
}

/// Algorithm 1 at trade-off `p`, reusing an inherited tree when there is
/// one (see [`aggregate_reusing`]).
fn run_dp<C: QualityCube>(
    cube: &C,
    p: f64,
    config: &DpConfig,
    reuse: Option<Reuse<'_>>,
) -> CutTree {
    match reuse {
        Some(reuse) => aggregate_reusing(cube, p, config, reuse),
        None => aggregate(cube, p, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelotl_trace::synthetic::{fig3_model, random_model};

    fn session_over(model: MicroModel, fp: u64) -> AnalysisSession {
        let n_slices = model.n_slices();
        AnalysisSession::new(
            OwnedSource::new(model, fp),
            SessionConfig {
                n_slices,
                ..SessionConfig::default()
            },
        )
    }

    fn fresh_live(n_slices: usize) -> Result<AnalysisSession, SessionError> {
        use ocelotl_trace::{Hierarchy, StateRegistry, TimeGrid};
        let raw = MicroModel::from_dense(
            Hierarchy::flat(2, "p"),
            StateRegistry::from_names(["A", "B"]),
            TimeGrid::new(0.0, 8.0, 4096),
            vec![0.0; 2 * 2 * 4096],
        );
        AnalysisSession::live(
            SessionConfig {
                n_slices,
                ..SessionConfig::default()
            },
            crate::hires::HiResModel::new(Metric::States, raw),
        )
    }

    #[test]
    fn live_sessions_advance_and_grow_in_resolution_multiples() {
        use ocelotl_trace::{LeafId, StateId};
        let mut s = fresh_live(4).unwrap();
        assert!(s.is_live());
        assert_eq!((s.live_events(), s.generation()), (0, 0));

        s.advance(&[(LeafId(0), StateId(0), 0.0, 2.0)]).unwrap();
        assert_eq!((s.live_events(), s.generation()), (1, 1));
        // The derived model reflects the fold: slice width is 2.0, so the
        // interval fills slice 0 of leaf 0 exactly.
        assert_eq!(s.model().unwrap().duration(LeafId(0), StateId(0), 0), 2.0);

        // A later batch invalidates and re-derives the full-grid model.
        s.advance(&[(LeafId(1), StateId(1), 2.0, 4.0)]).unwrap();
        assert_eq!(s.model().unwrap().duration(LeafId(1), StateId(1), 1), 2.0);

        // An empty batch touches nothing.
        let g = s.generation();
        s.advance(&[]).unwrap();
        assert_eq!(s.generation(), g);

        // Growth: an event past the horizon appends whole periods in
        // multiples of the active resolution, so derive_at keeps working.
        s.advance(&[(LeafId(0), StateId(0), 9.0, 10.0)]).unwrap();
        let h = s.hi_res_slices().unwrap();
        assert!(h > 4096, "the grid must have grown");
        assert_eq!(h % 4, 0, "growth quantum preserves n | H");
        let m = s.model().unwrap();
        assert_eq!(m.n_slices(), 4);
        assert!(m.grid().end() > 10.0, "grown end strictly covers the event");
    }

    #[test]
    fn live_construction_and_advance_are_validated() {
        use ocelotl_trace::{Hierarchy, StateRegistry, TimeGrid};
        // A resolution that does not divide the grid is refused up front.
        assert!(fresh_live(3).is_err());
        assert!(fresh_live(0).is_err());
        // Metric mismatch between config and grid is refused.
        let raw = MicroModel::from_dense(
            Hierarchy::flat(2, "p"),
            StateRegistry::from_names(["A", "B"]),
            TimeGrid::new(0.0, 8.0, 4096),
            vec![0.0; 2 * 2 * 4096],
        );
        assert!(AnalysisSession::live(
            SessionConfig {
                n_slices: 4,
                metric: Metric::Density,
                ..SessionConfig::default()
            },
            crate::hires::HiResModel::new(Metric::States, raw),
        )
        .is_err());
        // advance is live-only.
        let mut plain = session_over(fig3_model(), 1);
        assert!(plain.advance(&[]).is_err());
        // A refused append leaves the session's counters untouched.
        let mut live = fresh_live(4).unwrap();
        use ocelotl_trace::{LeafId, StateId};
        assert!(live.advance(&[(LeafId(9), StateId(0), 0.0, 1.0)]).is_err());
        assert_eq!((live.live_events(), live.generation()), (0, 0));
    }

    #[test]
    fn advance_invalidates_only_windows_the_batch_touches() {
        use ocelotl_trace::{LeafId, StateId};
        let mut s = fresh_live(4).unwrap();
        s.advance(&[(LeafId(0), StateId(0), 0.0, 8.0)]).unwrap();
        // Zoom into the first half and derive its model.
        s.reslice(4, Some((0.0, 4.0))).unwrap();
        assert!(s.window().is_some());
        s.model().unwrap();
        assert!(s.model_if_built().is_some());
        // An append entirely in the second half leaves the window's
        // derived pipeline resident …
        s.advance(&[(LeafId(1), StateId(0), 5.0, 6.0)]).unwrap();
        assert!(
            s.model_if_built().is_some(),
            "untouched window must stay warm"
        );
        // … and an append into the window drops it.
        s.advance(&[(LeafId(1), StateId(0), 1.0, 2.0)]).unwrap();
        assert!(
            s.model_if_built().is_none(),
            "touched window must be invalidated"
        );
        // It re-derives on demand, reflecting the new event: [1.0, 2.0]
        // fills windowed slice 1 (width 1.0) exactly.
        assert_eq!(s.model().unwrap().duration(LeafId(1), StateId(0), 1), 1.0);
    }

    #[test]
    fn repeated_queries_run_one_dp() {
        let s = session_over(fig3_model(), 1);
        let a = s.partition_at(0.5, false).unwrap();
        let b = s.partition_at(0.5, false).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.dp_runs(), 1, "second query must come from the memo");
        // A different tie-breaking is a different query.
        let _ = s.partition_at(0.5, true).unwrap();
        assert_eq!(s.dp_runs(), 2);
    }

    #[test]
    fn key_changes_with_every_parameter() {
        let base = SessionConfig::default();
        let k0 = base.key(7);
        assert_ne!(k0, base.key(8), "fingerprint must change the key");
        assert_ne!(
            k0,
            SessionConfig {
                n_slices: 31,
                ..base
            }
            .key(7)
        );
        assert_ne!(
            k0,
            SessionConfig {
                metric: Metric::Density,
                ..base
            }
            .key(7)
        );
        // And it is deterministic.
        assert_eq!(k0, SessionConfig::default().key(7));
    }

    /// An `Arc<MemoryStore>` shared across sessions.
    struct Shared(std::sync::Arc<MemoryStore>);

    impl ArtifactStore for Shared {
        fn load_cube(&self, key: u64) -> Option<CubeCore> {
            self.0.load_cube(key)
        }
        fn store_cube(&self, key: u64, core: &CubeCore) -> bool {
            self.0.store_cube(key, core)
        }
        fn load_partitions(&self, key: u64) -> Option<PartitionTable> {
            self.0.load_partitions(key)
        }
        fn store_partitions(&self, key: u64, table: &PartitionTable) -> bool {
            self.0.store_partitions(key, table)
        }
    }

    #[test]
    fn memory_store_warms_a_second_session() {
        use std::sync::Arc;
        let store = Arc::new(MemoryStore::new());
        let model = random_model(&[3, 2, 2], 11, 3, 99);

        let cold = session_over(model.clone(), 42).with_store(Shared(store.clone()));
        let cold_part = cold.partition_at(0.4, false).unwrap();
        let cold_levels = cold.significant(1e-2).unwrap();
        assert_eq!(cold.cube_source(), Some(CubeSource::Cold));
        assert!(cold.dp_runs() >= 2);

        let warm = session_over(model, 42).with_store(Shared(store));
        let warm_part = warm.partition_at(0.4, false).unwrap();
        let warm_levels = warm.significant(1e-2).unwrap();
        // Cached queries never even built the cube; forcing it must hit
        // the store, not the model.
        assert_eq!(warm.cube_source(), None);
        warm.cube().unwrap();
        assert_eq!(warm.cube_source(), Some(CubeSource::Warm));
        assert_eq!(warm.dp_runs(), 0, "fully warm session runs no DP");
        assert_eq!(cold_part, warm_part);
        assert_eq!(cold_levels.len(), warm_levels.len());
        for (a, b) in cold_levels.iter().zip(&warm_levels) {
            assert_eq!(a.partition, b.partition);
            assert_eq!(a.p_low.to_bits(), b.p_low.to_bits());
            assert_eq!(a.p_high.to_bits(), b.p_high.to_bits());
        }
    }

    /// A hi-res-capable source that reports ingestion telemetry, so every
    /// query kind and both `--slices` values of the dyadic family have a
    /// warm path.
    struct HiResSource(HiResModel);

    impl ModelSource for HiResSource {
        fn fingerprint(&self) -> Result<u64, SessionError> {
            Ok(64)
        }
        fn model(&self, n_slices: usize, _metric: Metric) -> Result<MicroModel, SessionError> {
            self.0
                .derive(n_slices)
                .ok_or_else(|| SessionError::source("resolution outside the hi-res family"))
        }
        fn hi_res_with_stats(
            &self,
            _n_slices: usize,
            _metric: Metric,
        ) -> Result<Option<(HiResModel, Option<IngestStats>)>, SessionError> {
            let stats = IngestStats {
                bytes_read: 0,
                intervals: 0,
                points: 0,
                peak_bytes: 0,
                mode: "single-pass".into(),
                format: "btf".into(),
                gzip: false,
                shards: Vec::new(),
                chunks_total: 0,
                chunks_read: 0,
                bytes_skipped: 0,
            };
            Ok(Some((self.0.clone(), Some(stats))))
        }
    }

    #[test]
    fn only_a_dp_builds_the_dense_matrices() {
        use crate::query::{AnalysisRequest, QueryEngine};
        use std::sync::Arc;
        let hi = HiResModel::new(Metric::States, random_model(&[2, 3], 4096, 2, 17));
        let store = Arc::new(MemoryStore::new());
        let open = |n_slices| {
            AnalysisSession::new(
                HiResSource(hi.clone()),
                SessionConfig {
                    n_slices,
                    ..SessionConfig::default()
                },
            )
            .with_store(Shared(store.clone()))
        };

        // A cold pass memoizes every answer below into the store.
        let mut cold = open(64);
        let at_64 = cold.partition_at(0.5, false).unwrap();
        let levels = cold.significant(1e-2).unwrap();
        cold.reslice(128, None).unwrap();
        cold.partition_at(0.5, false).unwrap();

        // A warm engine answers all of them without a DP, so it never
        // builds the matrices — not even across a 64→128→64 reslice.
        let mut warm = QueryEngine::new(open(64));
        let no_dense = |e: &QueryEngine| dense(e.session()).is_none();
        let aggregate = AnalysisRequest::Aggregate {
            p: 0.5,
            coarse: false,
            compare: false,
            diff_p: None,
        };
        let level = levels.last().unwrap();
        for request in [
            aggregate.clone(),
            AnalysisRequest::Describe,
            AnalysisRequest::Stats,
            AnalysisRequest::RenderOverview {
                p: level.p_low,
                coarse: false,
                min_rows: 0.0,
                level_resolution: Some(1e-2),
            },
            AnalysisRequest::Reslice {
                n_slices: 128,
                range: None,
            },
            aggregate.clone(),
            AnalysisRequest::Reslice {
                n_slices: 64,
                range: None,
            },
            aggregate,
        ] {
            warm.execute(&request).unwrap();
            assert!(no_dense(&warm), "{} built dense matrices", request.kind());
        }
        assert_eq!(warm.session().dp_runs(), 0);

        // The first DP answers and builds the matrices; the next one
        // reuses them.
        let session = warm.into_session();
        let fresh = session.partition_at(0.3, false).unwrap();
        let built = dense(&session).unwrap();
        session.partition_at(0.7, false).unwrap();
        let again = dense(&session).unwrap();
        assert!(Arc::ptr_eq(&built, &again), "the matrices are built once");
        assert_eq!(session.dp_runs(), 2);

        // Above the size bound the DP runs on the prefix sums: same bits.
        let mut bounded = AnalysisSession::new(
            HiResSource(hi.clone()),
            SessionConfig {
                n_slices: 64,
                ..SessionConfig::default()
            },
        );
        Arc::get_mut(&mut bounded.shared).unwrap().dense_limit = 0;
        assert_eq!(bounded.partition_at(0.5, false).unwrap(), at_64);
        assert_eq!(bounded.partition_at(0.3, false).unwrap(), fresh);
        assert_eq!(bounded.significant(1e-2).unwrap(), levels);
        assert!(bounded.cube_if_built().is_some());
        assert!(dense(&bounded).is_none());
    }

    /// The dense matrices of a snapshot's pipeline, if a DP built them.
    fn dense(s: &AnalysisSession) -> Option<Arc<DenseCube>> {
        lock(&s.derived.dense).clone()
    }

    #[test]
    fn one_pipeline_at_a_time_holds_the_dense_matrices() {
        let hi = HiResModel::new(Metric::States, random_model(&[2, 3], 4096, 2, 17));
        let at_64 = AnalysisSession::new(
            HiResSource(hi),
            SessionConfig {
                n_slices: 64,
                ..SessionConfig::default()
            },
        );
        // A DP at 64 slices builds the matrices.
        at_64.partition_at(0.5, false).unwrap();
        assert!(dense(&at_64).is_some());
        // Re-slicing to 128 releases them for every snapshot at 64; a DP
        // there builds 128's.
        let at_128 = at_64.resliced(128, None).unwrap();
        assert!(dense(&at_64.clone()).is_none(), "64 must let go");
        at_128.partition_at(0.5, false).unwrap();
        let held = dense(&at_128).unwrap();
        assert_eq!(held.n_slices(), 128);
        // A handle taken before the release outlives it, alone.
        let back = at_128.resliced(64, None).unwrap();
        assert!(dense(&at_128).is_none(), "128 must let go");
        assert_eq!(Arc::strong_count(&held), 1);
        drop(held);
        // Back at 64 (the cached pipeline), a memoized p needs no
        // matrices; a new p rebuilds them.
        back.partition_at(0.5, false).unwrap();
        assert!(dense(&back).is_none());
        back.partition_at(0.3, false).unwrap();
        assert!(dense(&back).is_some());
        assert_eq!(back.dp_runs(), 3);
    }

    #[test]
    fn different_fingerprint_misses_the_store() {
        let store = MemoryStore::new();
        let model = random_model(&[2, 2], 6, 2, 5);
        let key_a = SessionConfig::default().key(1);
        store.store_cube(key_a, &CubeCore::build(&model));
        // A session over fingerprint 2 must not see fingerprint 1's cube.
        let s = AnalysisSession::new(
            OwnedSource::new(model, 2),
            SessionConfig {
                n_slices: 6,
                ..SessionConfig::default()
            },
        )
        .with_store(store);
        s.cube().unwrap();
        assert_eq!(s.cube_source(), Some(CubeSource::Cold));
    }

    /// A DP too large to run is refused from the source's hierarchy size
    /// before any read: at 10^6 slices the case-B hi-res model alone would
    /// be 32.8 GB. A source that cannot report the size still gets the
    /// refusal, from the model.
    #[test]
    fn a_dp_too_large_is_refused_before_any_read() {
        struct Counting(Option<usize>);
        impl ModelSource for Counting {
            fn fingerprint(&self) -> Result<u64, SessionError> {
                Ok(7)
            }
            fn model(&self, n_slices: usize, _metric: Metric) -> Result<MicroModel, SessionError> {
                use ocelotl_trace::{Hierarchy, StateRegistry, TimeGrid};
                let (h, states) = (Hierarchy::flat(2, "p"), StateRegistry::from_names(["S"]));
                let cells = vec![0.5; 2 * n_slices];
                Ok(MicroModel::from_dense(
                    h,
                    states,
                    TimeGrid::new(0.0, 1.0, n_slices),
                    cells,
                ))
            }
            fn hierarchy_size(&self) -> Option<usize> {
                self.0
            }
        }
        let at = |n_slices| SessionConfig {
            n_slices,
            ..SessionConfig::default()
        };
        let refused = |r: Result<_, SessionError>| matches!(r, Err(SessionError::InvalidParam(m)) if m.contains(&DP_LIMIT_BYTES.to_string()));
        // Flat(2): a root and two leaves.
        let probed = AnalysisSession::new(Counting(Some(3)), at(1_000_000));
        assert!(refused(probed.partition_at(0.5, false).map(|_| ())));
        assert!(refused(probed.significant(1e-2).map(|_| ())));
        assert_eq!(probed.source_reads(), 0);
        assert!(probed.model_if_built().is_none());

        let unprobed = AnalysisSession::new(Counting(None), at(100_000));
        assert!(refused(unprobed.partition_at(0.5, false).map(|_| ())));
        assert_eq!(unprobed.source_reads(), 1);
        assert!(unprobed.cube_if_built().is_none());

        // Within the bound the probe changes nothing.
        let small = AnalysisSession::new(Counting(Some(3)), at(8));
        small.partition_at(0.5, false).unwrap();
        assert_eq!(small.source_reads(), 1);
    }

    #[test]
    fn storeless_session_never_fingerprints() {
        // Without an artifact store there is no key to compute, so the
        // source must never be asked for its fingerprint — that is what
        // makes the default CLI cold path a single disk pass.
        struct NoFingerprint(MicroModel);
        impl ModelSource for NoFingerprint {
            fn fingerprint(&self) -> Result<u64, SessionError> {
                panic!("store-less sessions must not fingerprint");
            }
            fn model(&self, _n: usize, _m: Metric) -> Result<MicroModel, SessionError> {
                Ok(self.0.clone())
            }
        }
        let model = fig3_model();
        let n_slices = model.n_slices();
        let s = AnalysisSession::new(
            NoFingerprint(model),
            SessionConfig {
                n_slices,
                ..SessionConfig::default()
            },
        );
        let _ = s.partition_at(0.5, false).unwrap();
        let _ = s.significant(1e-2).unwrap();
        assert_eq!(s.cube_source(), Some(CubeSource::Cold));
    }

    #[test]
    fn metric_model_kind_maps_both_ways() {
        use ocelotl_trace::ModelKind;
        assert_eq!(Metric::States.model_kind(), ModelKind::States);
        assert_eq!(Metric::Density.model_kind(), ModelKind::Density);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let s = session_over(fig3_model(), 3);
        assert!(matches!(
            s.partition_at(1.5, false),
            Err(SessionError::InvalidParam(_))
        ));
        assert!(matches!(
            s.significant(0.0),
            Err(SessionError::InvalidParam(_))
        ));
    }

    #[test]
    fn metric_parses_and_tags() {
        assert_eq!("states".parse::<Metric>().unwrap(), Metric::States);
        assert_eq!("density".parse::<Metric>().unwrap(), Metric::Density);
        assert!("x".parse::<Metric>().is_err());
        assert_eq!(Metric::States.tag(), "states");
        assert_eq!(Metric::Density.tag(), "density");
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisSession>();
    }

    #[test]
    fn shared_read_path_matches_exclusive_path() {
        let hi = HiResModel::new(Metric::States, random_model(&[2, 3], 4096, 2, 17));
        let open = || {
            AnalysisSession::new(
                HiResSource(hi.clone()),
                SessionConfig {
                    n_slices: 64,
                    ..SessionConfig::default()
                },
            )
        };
        // The sequential answers…
        let seq = open();
        let exclusive = seq.partition_at(0.5, false).unwrap();
        let levels = seq.significant(1e-2).unwrap();
        let fresh_seq = seq.partition_at(0.25, false).unwrap();
        let stats = seq.ingest_stats().unwrap().cloned();
        assert!(stats.is_some());
        // …and four threads racing every stage of an unbuilt session
        // through `&self`.
        let s = open();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        // A point, the levels, a fresh point every thread
                        // races on, and the ingest stats.
                        start.wait();
                        let memo = s.partition_at(0.5, false).unwrap();
                        let lvls = s.significant(1e-2).unwrap();
                        let fresh = s.partition_at(0.25, false).unwrap();
                        let st = s.ingest_stats().unwrap().cloned();
                        (memo, lvls, fresh, st, s.cube_if_built().unwrap())
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for (memo, lvls, fresh, st, cube) in &results {
                assert_eq!(*memo, exclusive);
                assert_eq!(lvls.len(), levels.len());
                assert_eq!(*lvls, levels);
                assert_eq!(*fresh, results[0].2, "racing DPs agree");
                assert_eq!(*fresh, fresh_seq);
                assert_eq!(*st, stats);
                assert!(std::ptr::eq(*cube, results[0].4), "one cube");
            }
        });
        assert_eq!(s.source_reads(), 1, "racing builds read the source once");
        // The racing threads memoized p=0.25: asking again runs no DP.
        let before = s.dp_runs();
        let again = s.partition_at(0.25, false).unwrap();
        assert_eq!(s.dp_runs(), before, "racing results serve later queries");
        assert_eq!(again, fresh_seq);
    }

    #[test]
    fn table_lookup_is_exact() {
        let mut t = PartitionTable::default();
        let m = fig3_model();
        let cube = crate::cube::DenseCube::build(&m);
        let part = crate::dp::aggregate(&cube, 0.5, &DpConfig::default()).partition(&cube);
        t.insert_point(0.5, false, part.clone());
        assert_eq!(t.lookup(0.5, false), Some(&part));
        assert_eq!(t.lookup(0.5, true), None, "tie-breaking must match");
        assert_eq!(t.lookup(0.5 + 1e-12, false), None, "p match is exact");
        // Re-inserting the same query is a no-op.
        t.insert_point(0.5, false, part);
        assert_eq!(t.points.len(), 1);
    }

    /// A live session over `n_leaves` flat resources and two states: 1024
    /// hi-res periods over `[0, 8)`, a dyadic grid whose growth is exact.
    fn empty_live(metric: Metric, n_leaves: usize, n_slices: usize) -> AnalysisSession {
        use ocelotl_trace::{Hierarchy, StateRegistry, TimeGrid};
        let raw = MicroModel::from_dense(
            Hierarchy::flat(n_leaves, "p"),
            StateRegistry::from_names(["A", "B"]),
            TimeGrid::new(0.0, 8.0, 1024),
            vec![0.0; n_leaves * 2 * 1024],
        );
        let config = SessionConfig {
            n_slices,
            metric,
            ..SessionConfig::default()
        };
        AnalysisSession::live(config, HiResModel::new(metric, raw)).unwrap()
    }

    fn assert_same_trees(a: &CutTree, b: &CutTree, model: &MicroModel, what: &str) {
        let n = model.n_slices();
        for node in model.hierarchy().node_ids() {
            for i in 0..n {
                for j in i..n {
                    let cell = format!("{what}: node {node:?}, cell ({i}, {j})");
                    assert_eq!(a.cut(node, i, j), b.cut(node, i, j), "cut, {cell}");
                    assert_eq!(
                        a.pic(node, i, j).to_bits(),
                        b.pic(node, i, j).to_bits(),
                        "pIC, {cell}"
                    );
                    assert_eq!(
                        a.n_areas(node, i, j),
                        b.n_areas(node, i, j),
                        "count, {cell}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// After every batch of a locally shuffled live feed, the model and
        /// the cut tree of every DP asked equal, cell for cell, a fresh live
        /// session fed the same events in one batch: whether the refresh
        /// re-derived a band and reused a tree or fell back to the full
        /// path (growth, the density metric, a `(p, tie rule)` not asked
        /// on the previous refresh).
        #[test]
        fn a_refresh_equals_a_fresh_session_at_every_cell(
            n_leaves in 1usize..5,
            n_slices_log2 in 1u32..6,
            raw_events in proptest::collection::vec(
                (0u32..8, 0u16..2, 0.0f64..1.0, 0.0001f64..0.4), 1..120),
            batch_sizes in proptest::collection::vec(1usize..10, 1..8),
            asks in proptest::collection::vec(0usize..16, 1..8),
            grow in proptest::prelude::any::<bool>(),
            density in proptest::prelude::any::<bool>(),
        ) {
            use ocelotl_trace::{LeafId, StateId};
            let n_slices = 1usize << n_slices_log2;
            let metric = if density { Metric::Density } else { Metric::States };
            // Time-ordered, then reversed within runs of 8, so a batch often
            // ends before the last one did; past the 8.0 horizon only when
            // the grid should grow.
            let span = if grow { 11.0 } else { 7.9 };
            let mut events: Vec<LiveEvent> = raw_events
                .iter()
                .map(|&(leaf, state, b, d)| {
                    let b = b * span + 0.000_137;
                    (LeafId(leaf % n_leaves as u32), StateId(state), b, b + d)
                })
                .collect();
            events.sort_by(|x, y| x.2.total_cmp(&y.2));
            for run in events.chunks_mut(8) {
                run.reverse();
            }
            let questions = [(0.5, false), (0.5, true), (0.3, false), (0.3, true)];
            let mut live = empty_live(metric, n_leaves, n_slices);
            let (mut fed, mut round) = (0, 0);
            while fed < events.len() {
                let take = batch_sizes[round % batch_sizes.len()].min(events.len() - fed);
                live.advance(&events[fed..fed + take]).unwrap();
                fed += take;
                let mut fresh = empty_live(metric, n_leaves, n_slices);
                fresh.advance(&events[..fed]).unwrap();
                let what = format!("{} after {fed} events", metric.tag());
                let model = fresh.model().unwrap();
                let ask = asks[round % asks.len()];
                round += 1;
                if ask == 0 {
                    continue;
                }
                let bits = |m: &MicroModel, leaf: usize, x: usize| -> Vec<u64> {
                    let series = m.series(LeafId(leaf as u32), StateId(x as u16));
                    series.iter().map(|v| v.to_bits()).collect()
                };
                let refreshed = live.model().unwrap();
                for leaf in 0..n_leaves {
                    for x in 0..2 {
                        let (a, b) = (bits(refreshed, leaf, x), bits(model, leaf, x));
                        assert_eq!(a, b, "{what}: model series ({leaf}, {x})");
                    }
                }
                for (k, &(p, coarse)) in questions.iter().enumerate() {
                    if ask & (1 << k) == 0 {
                        continue;
                    }
                    let config = if coarse { DpConfig::coarse_ties() } else { DpConfig::default() };
                    let expected = aggregate(fresh.cube().unwrap(), p, &config);
                    let partition = live.partition_at(p, coarse).unwrap();
                    let what = format!("{what}, p {p}, coarse {coarse}");
                    assert_eq!(partition, expected.partition(fresh.cube().unwrap()), "{what}");
                    if let Some(kept) = lock(&live.derived.trees).iter().find(|t| t.is(p, coarse)) {
                        assert_same_trees(&kept.tree, &expected, model, &what);
                    }
                }
            }
        }
    }
}
