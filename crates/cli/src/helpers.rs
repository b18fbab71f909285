//! Shared plumbing for the subcommands: the one streaming ingestion path
//! ([`obtain_report`], O(model) memory for every format) and the one
//! `AnalysisSession` construction path every analysis command
//! (`aggregate`, `pvalues`, `render`, `inspect`, `report`, `sweep`) goes
//! through.
//!
//! ## Session & caching workflow
//!
//! All analysis commands share the option set `--slices`, `--metric`,
//! `--cache DIR` and `--no-cache`, parsed here by
//! [`open_session`]. When a cache directory is configured (the flag, or
//! the `OCELOTL_CACHE_DIR` environment variable), the session persists its
//! expensive intermediates (`.omicro` hi-res intermediates, `.ocube` cube
//! prefix sums, `.opart` partition tables) keyed by a hash of the trace
//! bytes and the analysis parameters — so every command after the first
//! is warm, and repeated queries run zero DP. See `ocelotl::core::session` for the full economy.

use crate::args::Args;
use crate::CliError;
use ocelotl::core::{
    AnalysisSession, HiResModel, IngestStats, ModelSource, PushdownProbe, QueryEngine,
    SessionConfig, SessionError,
};
use ocelotl::format::DiskStore;
use ocelotl::trace::{MicroModel, Trace};
use std::path::{Path, PathBuf};

pub use ocelotl::core::Metric;

/// Materialize a full trace into memory. This is the O(|events|) path —
/// only the commands that genuinely need raw events use it (`convert`
/// round-trips, `render --gantt`, `info`'s state listing); analysis
/// pipelines stream through [`obtain_model`] / [`FileSource`] instead.
/// All three formats (`.btf`, `.ptf`, `.paje`/`.trace`) are sniffed and
/// dispatched by `ocelotl::format::read_trace`.
pub fn load_trace(path: &Path) -> Result<Trace, CliError> {
    if !path.exists() {
        return Err(CliError::Invalid(format!(
            "no such file: {}",
            path.display()
        )));
    }
    Ok(ocelotl::format::read_trace(path)?)
}

/// Write a trace, dispatching on the output extension (`.paje`/`.trace` →
/// Pajé, `.ptf` → text, anything else → binary).
pub fn save_trace(trace: &Trace, path: &Path) -> Result<(), CliError> {
    ocelotl::format::write_trace(trace, path)?;
    Ok(())
}

/// Build the microscopic model for the chosen metric.
pub fn build_model(trace: &Trace, n_slices: usize, metric: Metric) -> Result<MicroModel, CliError> {
    metric
        .build_model(trace, n_slices)
        .ok_or_else(|| CliError::Invalid("trace has no events to slice".into()))
}

/// True when the path names a cached microscopic model (`.omm`).
pub fn is_micro_cache(path: &Path) -> bool {
    matches!(path.extension().and_then(|e| e.to_str()), Some("omm"))
}

/// True when the file starts with the plain (uncompressed) columnar
/// magic — the only sources whose chunk index supports predicate
/// pushdown without a full decompression pass.
pub(crate) fn is_plain_columnar(path: &Path) -> bool {
    use std::io::Read;
    let mut head = [0u8; 4];
    match std::fs::File::open(path) {
        Ok(mut f) => f.read_exact(&mut head).is_ok() && &head == ocelotl::format::columnar::MAGIC,
        Err(_) => false,
    }
}

/// Obtain the microscopic model behind a path: `.omm` caches load directly
/// (their grid/metric were fixed at `describe` time; `n_slices`/`metric`
/// are ignored), anything else **streams** from the trace file into the
/// model without materializing events — peak memory is O(model), not
/// O(|events|), so traces larger than RAM aggregate end to end.
pub fn obtain_model(path: &Path, n_slices: usize, metric: Metric) -> Result<MicroModel, CliError> {
    Ok(obtain_report(path, n_slices, metric)?.model)
}

/// [`obtain_model`] plus the ingestion telemetry (bytes, counts, mode) —
/// the one streaming entry point every CLI command goes through. `.omm`
/// caches synthesize a report carrying only what a cache load can know
/// (the model and the file size; zero event counts) — that is enough for
/// the session path, and the commands that *display* telemetry
/// (`info --stats`, `describe`) reject `.omm` inputs.
pub fn obtain_report(
    path: &Path,
    n_slices: usize,
    metric: Metric,
) -> Result<ocelotl::format::IngestReport, CliError> {
    obtain_report_with(path, n_slices, metric, 0)
}

/// [`obtain_report`] with an explicit shard-worker cap (0 = the
/// process-wide `--threads` budget) — what a server uses to keep one cold
/// build from monopolizing the executor.
pub fn obtain_report_with(
    path: &Path,
    n_slices: usize,
    metric: Metric,
    workers: usize,
) -> Result<ocelotl::format::IngestReport, CliError> {
    if !path.exists() {
        return Err(CliError::Invalid(format!(
            "no such file: {}",
            path.display()
        )));
    }
    if is_micro_cache(path) {
        let model = ocelotl::format::load_micro(path)?;
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        return Ok(ocelotl::format::IngestReport {
            model,
            bytes_read: bytes,
            intervals: 0,
            points: 0,
            peak_bytes: 0,
            mode: ocelotl::format::IngestMode::SinglePass,
            format: ocelotl::format::Format::Binary,
            gzip: false,
            shards: vec![bytes],
            chunks_total: 0,
            chunks_read: 0,
            bytes_skipped: 0,
        });
    }
    Ok(ocelotl::format::read_model_with(
        path,
        n_slices,
        metric.model_kind(),
        &ingest_options(workers),
    )?)
}

/// Sharding options for a CLI ingest: content-derived auto plan, worker
/// pool capped at `workers` (0 = the process-wide `--threads` budget).
/// The worker cap redistributes work only — the shard plan, and therefore
/// every output bit, is a pure function of the trace content.
fn ingest_options(workers: usize) -> ocelotl::format::IngestOptions {
    ocelotl::format::IngestOptions {
        shards: ocelotl::format::ShardMode::Auto,
        max_workers: if workers > 0 {
            workers
        } else {
            rayon::max_threads()
        },
        predicate: None,
    }
}

/// The file-backed [`ModelSource`]: streams the model straight from the
/// file. An ingest does not hash; [`ModelSource::fingerprint`] is
/// `hash_trace_input` of the path, which the session asks for only where
/// a key is used (an attached artifact store, a `stats` reply) and
/// memoizes. A store-less session that answers no `stats` request reads
/// the trace once and never hashes it.
pub struct FileSource {
    path: PathBuf,
    /// Shard-worker cap for ingests through this source (0 = the
    /// process-wide `--threads` budget). Never affects output bits.
    workers: usize,
}

impl FileSource {
    /// A source reading from `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            workers: 0,
        }
    }

    /// Cap the shard-worker pool of ingests through this source — a
    /// server building several sessions concurrently divides its thread
    /// budget this way so one cold build cannot monopolize the executor.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// Turn an [`ocelotl::format::IngestReport`] into the session layer's
/// telemetry struct.
fn report_stats(report: &ocelotl::format::IngestReport) -> IngestStats {
    let format = match report.format {
        ocelotl::format::Format::Text => "ptf",
        ocelotl::format::Format::Binary => "btf",
        ocelotl::format::Format::Paje => "paje",
        ocelotl::format::Format::Columnar => "octf",
    };
    IngestStats {
        bytes_read: report.bytes_read,
        intervals: report.intervals,
        points: report.points,
        peak_bytes: report.peak_bytes,
        mode: report.mode.tag().to_string(),
        format: if report.gzip {
            format!("{format}+gzip")
        } else {
            format.to_string()
        },
        gzip: report.gzip,
        shards: report.shards.clone(),
        chunks_total: report.chunks_total,
        chunks_read: report.chunks_read,
        bytes_skipped: report.bytes_skipped,
    }
}

impl ModelSource for FileSource {
    fn fingerprint(&self) -> Result<u64, SessionError> {
        ocelotl::format::hash_trace_input(&self.path)
            .map_err(|e| SessionError::source(format!("cannot hash {}: {e}", self.path.display())))
    }

    fn model(&self, n_slices: usize, metric: Metric) -> Result<MicroModel, SessionError> {
        Ok(self.model_with_stats(n_slices, metric)?.0)
    }

    fn model_with_stats(
        &self,
        n_slices: usize,
        metric: Metric,
    ) -> Result<(MicroModel, Option<IngestStats>), SessionError> {
        let report = obtain_report_with(&self.path, n_slices, metric, self.workers)
            .map_err(|e| SessionError::source(e.to_string()))?;
        let stats = report_stats(&report);
        Ok((report.model, Some(stats)))
    }

    /// From the header the ingest plans with, for every trace format (a
    /// directory: its union). `None` for an `.omm` model cache, and when
    /// the header cannot be read: the ingest then reports why.
    fn hierarchy_size(&self) -> Option<usize> {
        if is_micro_cache(&self.path) {
            return None;
        }
        let hierarchy = ocelotl::format::read_hierarchy(&self.path).ok()?;
        Some(hierarchy.len())
    }

    fn hi_res_with_stats(
        &self,
        n_slices: usize,
        metric: Metric,
    ) -> Result<Option<(HiResModel, Option<IngestStats>)>, SessionError> {
        if is_micro_cache(&self.path) {
            // An `.omm` model cache has a fixed grid: no hi-res intermediate
            // to build — the session falls back to the direct load.
            return Ok(None);
        }
        let report = ocelotl::format::read_hi_res_with(
            &self.path,
            n_slices,
            metric.model_kind(),
            &ingest_options(self.workers),
        )
        .map_err(|e| SessionError::source(e.to_string()))?;
        let stats = report_stats(&report);
        Ok(Some((HiResModel::new(metric, report.model), Some(stats))))
    }

    fn pushdown_probe(
        &self,
        n_slices: usize,
        _metric: Metric,
    ) -> Result<Option<PushdownProbe>, SessionError> {
        if !is_plain_columnar(&self.path) {
            return Ok(None);
        }
        // The chunk index alone answers the probe: no event decode.
        let Ok(plan) = ocelotl::format::plan_columnar(&self.path) else {
            return Ok(None);
        };
        let Some(range) = plan.header.range else {
            return Ok(None);
        };
        if !(range.0.is_finite() && range.1.is_finite() && range.1 > range.0) {
            return Ok(None);
        }
        let hi_slices = ocelotl::trace::hi_res_slices(
            n_slices,
            plan.header.hierarchy.n_leaves(),
            plan.header.states.len(),
        );
        Ok(Some(PushdownProbe { range, hi_slices }))
    }

    fn hi_res_window_with_stats(
        &self,
        n_slices: usize,
        metric: Metric,
        first: usize,
        count: usize,
    ) -> Result<Option<(HiResModel, Option<IngestStats>)>, SessionError> {
        if !is_plain_columnar(&self.path) {
            return Ok(None);
        }
        let report = ocelotl::format::read_hi_res_window(
            &self.path,
            n_slices,
            metric.model_kind(),
            first,
            count,
            &ingest_options(self.workers),
        )
        .map_err(|e| SessionError::source(e.to_string()))?;
        let stats = report_stats(&report);
        Ok(Some((HiResModel::new(metric, report.model), Some(stats))))
    }
}

/// Option keys shared by every session-routed command; splice into each
/// command's `expect_known` list.
pub const SESSION_OPTS: [&str; 6] = [
    "slices",
    "metric",
    "cache",
    "no-cache",
    "cache-keep",
    "json",
];

/// Parse the `--t0 T --t1 T` window pair shared by the windowed commands
/// (`info --stats`, `aggregate`): both or neither, each a number.
pub fn parse_window(args: &Args) -> Result<Option<(f64, f64)>, CliError> {
    match (args.get("t0")?, args.get("t1")?) {
        (None, None) => Ok(None),
        (Some(a), Some(b)) => {
            let lo: f64 = a
                .parse()
                .map_err(|_| CliError::Usage(format!("--t0 expects a number, got {a:?}")))?;
            let hi: f64 = b
                .parse()
                .map_err(|_| CliError::Usage(format!("--t1 expects a number, got {b:?}")))?;
            Ok(Some((lo, hi)))
        }
        _ => Err(CliError::Usage(
            "--t0 and --t1 must be given together".into(),
        )),
    }
}

/// Parse the shared session options into a [`SessionConfig`]
/// (`--slices`, `--metric`, `--cache-keep` / `OCELOTL_CACHE_KEEP`).
pub fn session_config(args: &Args) -> Result<SessionConfig, CliError> {
    let mut config = SessionConfig {
        n_slices: args.get_or("slices", 30)?,
        metric: args.get_or("metric", Metric::States)?,
        ..SessionConfig::default()
    };
    config
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    config.cache_keep = match args.get("cache-keep")? {
        Some(s) => s
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| CliError::Usage("--cache-keep expects a count >= 1".into()))?,
        None => match std::env::var("OCELOTL_CACHE_KEEP") {
            Ok(v) if !v.is_empty() => {
                v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    CliError::Invalid(format!("invalid OCELOTL_CACHE_KEEP value {v:?}"))
                })?
            }
            _ => config.cache_keep,
        },
    };
    Ok(config)
}

/// Build the `AnalysisSession` every analysis command runs on, from the
/// shared options (`--slices`, `--metric`, `--cache DIR`, `--no-cache`,
/// `--cache-keep N`). Caching is enabled by `--cache DIR`
/// or the `OCELOTL_CACHE_DIR` environment variable; `--no-cache` wins
/// over both.
pub fn open_session(args: &Args, path: &Path) -> Result<AnalysisSession, CliError> {
    if !path.exists() {
        return Err(CliError::Invalid(format!(
            "no such file: {}",
            path.display()
        )));
    }
    let config = session_config(args)?;
    Ok(build_session(path, config, cache_dir(args)?.as_deref()))
}

/// Assemble a session over `path` with an optional artifact cache — the
/// one construction path the CLI and the server share.
pub fn build_session(path: &Path, config: SessionConfig, cache: Option<&Path>) -> AnalysisSession {
    build_session_with_workers(path, config, cache, 0)
}

/// [`build_session`] with a shard-worker cap for the ingest (0 = the
/// process-wide `--threads` budget). A server divides its thread budget
/// across concurrent cold builds this way; the cap never changes output
/// bits.
pub fn build_session_with_workers(
    path: &Path,
    config: SessionConfig,
    cache: Option<&Path>,
    workers: usize,
) -> AnalysisSession {
    let mut session = AnalysisSession::new(FileSource::new(path).with_workers(workers), config);
    if let Some(dir) = cache {
        session =
            session.with_store(DiskStore::for_input(path, Some(dir)).with_keep(config.cache_keep));
    }
    session
}

/// [`open_session`] wrapped as a [`QueryEngine`] — what every analysis
/// command talks to.
pub fn open_engine(args: &Args, path: &Path) -> Result<QueryEngine, CliError> {
    Ok(QueryEngine::new(open_session(args, path)?))
}

/// Resolve the cache directory from `--cache` / `OCELOTL_CACHE_DIR` /
/// `--no-cache`.
pub fn cache_dir(args: &Args) -> Result<Option<PathBuf>, CliError> {
    if args.has("no-cache") {
        return Ok(None);
    }
    if let Some(dir) = args.get("cache")? {
        return Ok(Some(PathBuf::from(dir)));
    }
    match std::env::var_os("OCELOTL_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => Ok(Some(PathBuf::from(dir))),
        _ => Ok(None),
    }
}

/// A small deterministic test trace written to a temp file; returns the
/// path (callers clean up). Only compiled for tests.
#[cfg(test)]
pub fn fixture_trace(name: &str) -> std::path::PathBuf {
    use ocelotl::prelude::*;
    let mut b = TraceBuilder::new(Hierarchy::balanced(&[2, 2]));
    let run = b.state("Run");
    let wait = b.state("MPI_Wait");
    for leaf in 0..4u32 {
        for k in 0..10 {
            let t = k as f64;
            let state = if leaf == 3 && (4..7).contains(&k) {
                wait
            } else {
                run
            };
            b.push_state(LeafId(leaf), state, t, t + 1.0);
        }
    }
    b.push_meta("app", "fixture");
    let trace = b.build();
    let path = std::env::temp_dir().join(format!(
        "ocelotl-cli-{}-{}-{name}.btf",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-"),
    ));
    ocelotl::format::write_trace(&trace, &path).unwrap();
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_parses() {
        assert_eq!("states".parse::<Metric>().unwrap(), Metric::States);
        assert_eq!("density".parse::<Metric>().unwrap(), Metric::Density);
        assert!("x".parse::<Metric>().is_err());
    }

    #[test]
    fn load_missing_file_is_invalid() {
        let err = load_trace(Path::new("/nonexistent/zzz.btf")).unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)));
    }

    #[test]
    fn open_session_missing_file_is_invalid() {
        let args = Args::parse(&[]).unwrap();
        let Err(err) = open_session(&args, Path::new("/nonexistent/zzz.btf")) else {
            panic!("missing file must fail");
        };
        assert!(matches!(err, CliError::Invalid(_)));
    }

    #[test]
    fn fixture_roundtrips_via_all_formats() {
        let src = fixture_trace("roundtrip");
        let t = load_trace(&src).unwrap();
        for ext in ["ptf", "paje"] {
            let dst = src.with_extension(ext);
            save_trace(&t, &dst).unwrap();
            let back = load_trace(&dst).unwrap();
            assert_eq!(back.intervals.len(), t.intervals.len(), "{ext}");
            std::fs::remove_file(&dst).ok();
        }
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn build_model_both_metrics() {
        let src = fixture_trace("metrics");
        let t = load_trace(&src).unwrap();
        let m1 = build_model(&t, 10, Metric::States).unwrap();
        let m2 = build_model(&t, 10, Metric::Density).unwrap();
        assert_eq!(m1.n_slices(), 10);
        assert_eq!(m2.n_slices(), 10);
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn session_rejects_bad_p() {
        let src = fixture_trace("badp");
        let args = Args::parse(&["--slices".into(), "5".into()]).unwrap();
        let session = open_session(&args, &src).unwrap();
        assert!(session.partition_at(1.5, false).is_err());
        assert!(session.partition_at(0.5, true).is_ok());
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn engine_reports_the_backend_its_size_calls_for() {
        use ocelotl::core::query::{AnalysisReply, AnalysisRequest};
        let src = fixture_trace("cube-backend");
        let args = Args::parse(&["--slices".into(), "8".into()]).unwrap();
        let mut engine = open_engine(&args, &src).unwrap();
        let AnalysisReply::Describe(d) = engine.execute(&AnalysisRequest::Describe).unwrap() else {
            panic!()
        };
        // Tiny model: the dense matrices fit the size bound.
        assert_eq!(d.backend, "dense");
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn cache_keep_flag_and_env_resolve() {
        let args = Args::parse(&["--cache-keep".into(), "2".into()]).unwrap();
        assert_eq!(session_config(&args).unwrap().cache_keep, 2);
        let args = Args::parse(&["--cache-keep".into(), "0".into()]).unwrap();
        assert!(matches!(session_config(&args), Err(CliError::Usage(_))));
        let args = Args::parse(&[]).unwrap();
        assert_eq!(
            session_config(&args).unwrap().cache_keep,
            ocelotl::core::DEFAULT_CACHE_KEEP
        );
    }

    #[test]
    fn cache_flag_round_trips_through_disk() {
        let src = fixture_trace("cache-flag");
        let cache = std::env::temp_dir().join(format!("ocelotl-cli-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&cache).ok();
        let args = Args::parse(&[
            "--slices".into(),
            "10".into(),
            "--cache".into(),
            cache.display().to_string(),
        ])
        .unwrap();

        let cold = open_session(&args, &src).unwrap();
        let p_cold = cold.partition_at(0.4, false).unwrap();
        cold.cube().unwrap();
        assert_eq!(cold.cube_source(), Some(ocelotl::core::CubeSource::Cold));

        let warm = open_session(&args, &src).unwrap();
        let p_warm = warm.partition_at(0.4, false).unwrap();
        assert_eq!(p_cold, p_warm);
        assert_eq!(warm.dp_runs(), 0, "warm session must serve from .opart");

        // --no-cache wins.
        let args = Args::parse(&[
            "--no-cache".into(),
            "--cache".into(),
            cache.display().to_string(),
        ])
        .unwrap();
        let off = open_session(&args, &src).unwrap();
        let _ = off.partition_at(0.4, false).unwrap();
        assert!(off.dp_runs() > 0, "--no-cache must not read artifacts");

        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&src).ok();
    }
}
