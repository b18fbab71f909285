//! Calls into the ocelotl layers, instrumented from the benchmark's side.
//!
//! The traced replay builds its sessions from the parts the CLI itself
//! uses, wrapped to record a span per call: [`TracedSource`] wraps the
//! CLI's `FileSource` (trace reads through `format::io`'s
//! `read_hi_res_with` / `read_hi_res_window`, fingerprints through
//! `format::store`'s `hash_trace_input`) and [`TracedStore`] the on-disk
//! `DiskStore`. [`replay_cli`] then drives a session stage by stage — model, cube,
//! DP, reply, print — so each stage's self time lands on its own layer,
//! and prints the reply exactly like the `ocelotl` command does.

use crate::spans::Recorder;
use ocelotl::core::query::{AnalysisReply, AnalysisRequest, QueryEngine};
use ocelotl::core::{
    AnalysisSession, ArtifactStore, CubeCore, CubeSource, DenseCube, HiResModel, IngestStats,
    ModelSource, PartitionTable, PushdownProbe, QualityCube, SessionConfig, SessionError,
};
use ocelotl::format::DiskStore;
use ocelotl::prelude::{DpConfig, NodeId, StateId};
use ocelotl::trace::{Hierarchy, MicroModel, StateRegistry};
use ocelotl_cli::helpers::FileSource;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

type HiRes = Option<(HiResModel, Option<IngestStats>)>;

/// The CLI's file-backed [`ModelSource`], recording a `format.io` span per
/// trace read, a `format.store` span per fingerprint, and the ingest
/// counters.
pub struct TracedSource {
    file: FileSource,
    rec: Arc<Recorder>,
}

impl TracedSource {
    /// A source reading `path`.
    pub fn new(path: &Path, rec: Arc<Recorder>) -> Self {
        Self {
            file: FileSource::new(path),
            rec,
        }
    }

    /// Read through `format::io` inside a span and record what the read
    /// did.
    fn read(
        &self,
        what: &'static str,
        read: impl FnOnce() -> Result<HiRes, SessionError>,
    ) -> Result<HiRes, SessionError> {
        // Drop a timing left behind by an untraced ingest.
        ocelotl::format::take_last_ingest_timing();
        let (read, read_ms) = self.rec.span("format.io", what, read);
        let rec = &self.rec;
        match ocelotl::format::take_last_ingest_timing() {
            Some(t) => {
                rec.add(
                    "io.decode_ms",
                    t.shard_nanos.iter().sum::<u64>() as f64 / 1e6,
                );
                rec.add("io.merge_ms", t.merge_nanos as f64 / 1e6);
                rec.add("store.hash_ms", t.hash_nanos as f64 / 1e6);
            }
            None => rec.add("io.decode_ms", read_ms),
        }
        if let Some((hi, stats)) = read.as_ref().ok().and_then(Option::as_ref) {
            rec.add("hires.bytes", hi.memory_bytes() as f64);
            if let Some(stats) = stats {
                rec.add("io.bytes_read", stats.bytes_read as f64);
                rec.add("io.events", stats.events() as f64);
                rec.add("io.shards", stats.shards.len() as f64);
                rec.add("io.chunks_read", stats.chunks_read as f64);
                rec.add("io.chunks_total", stats.chunks_total as f64);
            }
        }
        read
    }
}

impl ModelSource for TracedSource {
    fn fingerprint(&self) -> Result<u64, SessionError> {
        let (fp, ms) = self.rec.span("format.store", "hash_trace_input", || {
            self.file.fingerprint()
        });
        self.rec.add("store.hash_ms", ms);
        fp
    }

    fn model(
        &self,
        n_slices: usize,
        metric: ocelotl::core::Metric,
    ) -> Result<MicroModel, SessionError> {
        self.rec
            .span("format.io", "read_model_with", || {
                self.file.model(n_slices, metric)
            })
            .0
    }

    fn hi_res_with_stats(
        &self,
        n_slices: usize,
        metric: ocelotl::core::Metric,
    ) -> Result<HiRes, SessionError> {
        self.read("read_hi_res_with", || {
            self.file.hi_res_with_stats(n_slices, metric)
        })
    }

    fn pushdown_probe(
        &self,
        n_slices: usize,
        metric: ocelotl::core::Metric,
    ) -> Result<Option<PushdownProbe>, SessionError> {
        self.file.pushdown_probe(n_slices, metric)
    }

    fn hi_res_window_with_stats(
        &self,
        n_slices: usize,
        metric: ocelotl::core::Metric,
        first: usize,
        count: usize,
    ) -> Result<HiRes, SessionError> {
        self.read("read_hi_res_window", || {
            self.file
                .hi_res_window_with_stats(n_slices, metric, first, count)
        })
    }
}

/// The on-disk artifact store with a `format.store` span per call.
pub struct TracedStore {
    inner: DiskStore,
    rec: Arc<Recorder>,
}

impl TracedStore {
    /// Wrap `inner`.
    pub fn new(inner: DiskStore, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }

    fn load<T>(&self, what: &'static str, metric: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, ms) = self.rec.span("format.store", what, f);
        self.rec.add(metric, ms);
        value
    }
}

impl ArtifactStore for TracedStore {
    fn load_cube(&self, key: u64) -> Option<CubeCore> {
        self.load("load_cube", "store.load_ms.ocube", || {
            self.inner.load_cube(key)
        })
    }
    fn store_cube(&self, key: u64, core: &CubeCore) -> bool {
        self.rec
            .span("format.store", "store_cube", || {
                self.inner.store_cube(key, core)
            })
            .0
    }
    fn load_partitions(&self, key: u64) -> Option<PartitionTable> {
        self.load("load_partitions", "store.load_ms.opart", || {
            self.inner.load_partitions(key)
        })
    }
    fn store_partitions(&self, key: u64, table: &PartitionTable) -> bool {
        self.rec
            .span("format.store", "store_partitions", || {
                self.inner.store_partitions(key, table)
            })
            .0
    }
    fn load_hi_res(&self, key: u64) -> Option<HiResModel> {
        self.load("load_hi_res", "store.load_ms.omicro", || {
            self.inner.load_hi_res(key)
        })
    }
    fn store_hi_res(&self, key: u64, hi: &HiResModel) -> bool {
        self.rec
            .span("format.store", "store_hi_res", || {
                self.inner.store_hi_res(key, hi)
            })
            .0
    }
}

/// A cube that counts DP runs: every exact DP scores the whole-trace
/// aggregate (root node, all slices) exactly once per run.
pub struct CountingCube<'a, C: QualityCube> {
    inner: &'a C,
    root: NodeId,
    last: usize,
    runs: AtomicUsize,
}

impl<'a, C: QualityCube> CountingCube<'a, C> {
    /// Count DP runs over `inner`.
    pub fn new(inner: &'a C) -> Self {
        Self {
            inner,
            root: inner.hierarchy().root(),
            last: inner.n_slices().saturating_sub(1),
            runs: AtomicUsize::new(0),
        }
    }

    /// DP runs counted so far.
    pub fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }
}

impl<C: QualityCube> QualityCube for CountingCube<'_, C> {
    fn hierarchy(&self) -> &Hierarchy {
        self.inner.hierarchy()
    }
    fn states(&self) -> &StateRegistry {
        self.inner.states()
    }
    fn n_slices(&self) -> usize {
        self.inner.n_slices()
    }
    fn slice_duration(&self) -> f64 {
        self.inner.slice_duration()
    }
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.inner.gain(node, i, j)
    }
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.inner.loss(node, i, j)
    }
    fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        if node == self.root && i == 0 && j == self.last {
            self.runs.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.gain_loss(node, i, j)
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        self.inner.rho_aggregate(node, x, i, j)
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// One analysis command as a user types it.
#[derive(Debug, Clone)]
pub struct CliOp {
    /// Operation kind the latency is reported under.
    pub kind: &'static str,
    /// `Some(p)`: `aggregate --p p`; `None`: `pvalues`.
    pub p: Option<f64>,
    /// The trace file.
    pub trace: PathBuf,
    /// `--slices`.
    pub slices: usize,
    /// `--cache DIR`, or `--no-cache`.
    pub cache: Option<PathBuf>,
    /// `--t0 --t1`.
    pub window: Option<(f64, f64)>,
}

impl CliOp {
    /// The command line.
    pub fn argv(&self) -> Vec<String> {
        let mut argv = vec![
            if self.p.is_some() {
                "aggregate"
            } else {
                "pvalues"
            }
            .to_string(),
            self.trace.display().to_string(),
            "--slices".into(),
            self.slices.to_string(),
        ];
        if let Some(p) = self.p {
            argv.extend(["--p".to_string(), format!("{p}")]);
        }
        match &self.cache {
            Some(dir) => argv.extend(["--cache".to_string(), dir.display().to_string()]),
            None => argv.push("--no-cache".into()),
        }
        if let Some((t0, t1)) = self.window {
            argv.extend([
                "--t0".to_string(),
                format!("{t0}"),
                "--t1".to_string(),
                format!("{t1}"),
            ]);
        }
        argv
    }

    /// What the output depends on: everything but the cache directory.
    pub fn key(&self) -> String {
        format!(
            "{:?} {} {} {:?}",
            self.p,
            self.trace.display(),
            self.slices,
            self.window
        )
    }

    /// The request the command sends to its engine.
    pub fn request(&self) -> AnalysisRequest {
        match self.p {
            Some(p) => AnalysisRequest::Aggregate {
                p,
                coarse: false,
                compare: false,
                diff_p: None,
            },
            None => AnalysisRequest::Significant { resolution: 1e-3 },
        }
    }

    fn config(&self) -> SessionConfig {
        SessionConfig {
            n_slices: self.slices,
            ..SessionConfig::default()
        }
    }
}

/// Run one `ocelotl` command in process; its standard output.
pub fn run_cli(argv: &[String]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    ocelotl_cli::run(argv, &mut out).map_err(|e| format!("`ocelotl {}`: {e}", argv.join(" ")))?;
    Ok(out)
}

/// Per-layer metric of an engine execution of `kind`.
pub fn execute_metric(kind: &str) -> Option<&'static str> {
    match kind {
        "aggregate" => Some("query.execute_ms.aggregate"),
        "significant" => Some("query.execute_ms.significant"),
        "render_overview" => Some("query.execute_ms.render_overview"),
        "stats" => Some("query.execute_ms.stats"),
        _ => None,
    }
}

fn session_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replay one CLI command stage by stage through the layers, recording
/// spans; returns the printed output and the milliseconds spent in side
/// measurements (direct cube builds and the DP-run count), which are not
/// part of the command.
pub fn replay_cli(op: &CliOp, rec: &Arc<Recorder>) -> Result<(Vec<u8>, f64), String> {
    let config = op.config();
    let request = op.request();
    let command = if op.p.is_some() {
        "aggregate"
    } else {
        "pvalues"
    };
    let mut cold_cube = false;
    let mut levels = None;
    let (replayed, _) = rec.span(
        "cli",
        command,
        || -> Result<(Vec<u8>, QueryEngine), String> {
            let mut session =
                AnalysisSession::new(TracedSource::new(&op.trace, rec.clone()), config);
            if let Some(dir) = &op.cache {
                let disk = DiskStore::for_input(&op.trace, Some(dir)).with_keep(config.cache_keep);
                session = session.with_store(TracedStore::new(disk, rec.clone()));
            }
            let mut engine = QueryEngine::new(session);
            if let Some(range) = op.window {
                // Snap the window and ingest only what overlaps it.
                rec.span("core.hires", "derive", || {
                    engine.execute(&AnalysisRequest::Reslice {
                        n_slices: op.slices,
                        range: Some(range),
                    })
                })
                .0
                .map_err(session_err)?;
            }
            let session = engine.session_mut();
            let warm = rec
                .span("core.cube", "try_warm_cube", || {
                    session.try_warm_cube().map(|c| c.is_some())
                })
                .0
                .map_err(session_err)?;
            if !warm {
                rec.span("core.hires", "derive", || session.model().map(|_| ()))
                    .0
                    .map_err(session_err)?;
                rec.span("core.cube", "cube", || session.cube().map(|_| ()))
                    .0
                    .map_err(session_err)?;
                cold_cube = session.cube_source() == Some(CubeSource::Cold);
            }
            if let Some(cube) = session.cube_if_built() {
                rec.add("cube.bytes", cube.memory_bytes() as f64);
            }
            match request {
                AnalysisRequest::Aggregate { p, coarse, .. } => {
                    let before = session.dp_runs();
                    rec.span("core.dp", "partition_at", || {
                        session.partition_at(p, coarse)
                    })
                    .0
                    .map_err(session_err)?;
                    rec.add("dp.runs", (session.dp_runs() - before) as f64);
                }
                AnalysisRequest::Significant { resolution } => {
                    let found = rec
                        .span("core.pvalues", "significant", || {
                            session.significant(resolution)
                        })
                        .0
                        .map_err(session_err)?;
                    rec.add("pvalues.levels", found.len() as f64);
                    levels = Some((resolution, found));
                }
                _ => unreachable!("CliOp only builds aggregate and significant requests"),
            }
            let (reply, ms) = rec.span("core.query", request.kind(), || engine.execute(&request));
            if let Some(metric) = execute_metric(request.kind()) {
                rec.add(metric, ms);
            }
            let reply: AnalysisReply = reply.map_err(session_err)?;
            let mut out = Vec::new();
            rec.span("cli", "print_reply", || {
                ocelotl_cli::proto::print_reply(&reply, &mut out)
            })
            .0
            .map_err(|e| e.to_string())?;
            Ok((out, engine))
        },
    );
    let (out, engine) = replayed?;

    // Side measurements, outside every span: the cube stages timed
    // directly, and the DP runs of the significant-level enumeration
    // counted on the same cube.
    let t = Instant::now();
    let session = engine.session();
    if let (true, Some(model)) = (cold_cube, session.model_if_built()) {
        measure_cube(model, rec);
    }
    if let (Some((resolution, levels)), Some(cube)) = (levels, session.cube_if_built()) {
        let counting = CountingCube::new(cube);
        let again =
            ocelotl::core::significant_partitions(&counting, &DpConfig::default(), resolution);
        rec.add("pvalues.dp_runs", counting.runs() as f64);
        if again != levels {
            return Err("significant levels differ between the session and a direct call".into());
        }
    }
    Ok((out, t.elapsed().as_secs_f64() * 1e3))
}

/// Time the two cube stages directly on `model`: prefix sums
/// (`CubeCore::build`) and the dense materialization
/// (`DenseCube::from_core`).
pub fn measure_cube(model: &MicroModel, rec: &Recorder) {
    let t = Instant::now();
    let core = CubeCore::build(model);
    let prefix_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let dense = DenseCube::from_core(core);
    let dense_ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&dense);
    rec.add("cube.prefix_ms", prefix_ms);
    rec.add("cube.dense_ms", dense_ms);
}

/// Load-versus-recompute rows for the artifacts a cold `aggregate` at
/// `n_slices` left in `cache` (`.omicro`, `.ocube`, `.opart`): load time,
/// recompute time and bytes on disk. Returns the milliseconds spent.
pub fn artifact_rows(
    trace: &Path,
    cache: &Path,
    n_slices: usize,
    rec: &Recorder,
) -> Result<f64, String> {
    let started = Instant::now();
    let store = DiskStore::for_input(trace, Some(cache));
    let fingerprint = ocelotl::format::hash_trace_input(trace).map_err(|e| e.to_string())?;
    let config = SessionConfig {
        n_slices,
        ..SessionConfig::default()
    };
    let key = config.key(fingerprint);
    let stem = trace
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let size = |ext: &str, key: u64| {
        std::fs::metadata(cache.join(format!("{stem}-{key:016x}.{ext}")))
            .map(|m| m.len() as f64)
            .unwrap_or(0.0)
    };
    let timed = |f: &mut dyn FnMut() -> bool| {
        let t = Instant::now();
        let hit = f();
        (hit, t.elapsed().as_secs_f64() * 1e3)
    };

    // .omicro: the hi-res intermediate, recomputed by the trace ingest.
    let omicro_key = std::fs::read_dir(cache)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let hex = name
                .strip_suffix(".omicro")?
                .rsplit('-')
                .next()?
                .to_string();
            u64::from_str_radix(&hex, 16).ok()
        })
        .next()
        .ok_or("no .omicro artifact in the cache")?;
    let (hit, load_ms) = timed(&mut || store.load_hi_res(omicro_key).is_some());
    if !hit {
        return Err(".omicro artifact does not load".into());
    }
    let t = Instant::now();
    let (hi, _) = FileSource::new(trace)
        .hi_res_with_stats(n_slices, config.metric)
        .map_err(|e| e.to_string())?
        .ok_or("the trace has no hi-res ingest")?;
    rec.add(
        "artifact.omicro.recompute_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    rec.add("artifact.omicro.load_ms", load_ms);
    rec.add("artifact.omicro.bytes", size("omicro", omicro_key));

    // .ocube: the prefix sums, recomputed from the derived model.
    let model = hi
        .derive(n_slices)
        .ok_or("hi-res model does not serve the requested slices")?;
    let (hit, load_ms) = timed(&mut || store.load_cube(key).is_some());
    if !hit {
        return Err(".ocube artifact does not load".into());
    }
    let t = Instant::now();
    let core = CubeCore::build(&model);
    rec.add(
        "artifact.ocube.recompute_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    rec.add("artifact.ocube.load_ms", load_ms);
    rec.add("artifact.ocube.bytes", size("ocube", key));

    // .opart: the memoized DP results, recomputed by running the DPs.
    let t = Instant::now();
    let table = store
        .load_partitions(key)
        .ok_or(".opart artifact does not load")?;
    rec.add("artifact.opart.load_ms", t.elapsed().as_secs_f64() * 1e3);
    let cube = DenseCube::from_core(core);
    let t = Instant::now();
    for point in &table.points {
        let config = if point.coarse {
            DpConfig::coarse_ties()
        } else {
            DpConfig::default()
        };
        let partition = ocelotl::core::aggregate(&cube, point.p, &config).partition(&cube);
        if partition != point.partition {
            return Err(format!(
                "stored partition at p={} differs from a fresh DP",
                point.p
            ));
        }
    }
    if let Some(set) = &table.significant {
        std::hint::black_box(ocelotl::core::significant_partitions(
            &cube,
            &DpConfig::default(),
            set.resolution,
        ));
    }
    rec.add(
        "artifact.opart.recompute_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    rec.add("artifact.opart.bytes", size("opart", key));
    Ok(started.elapsed().as_secs_f64() * 1e3)
}
