//! Columnar (`.octf`) equivalence: the chunk-indexed container is an
//! exact, cache-compatible stand-in for the row formats.
//!
//! The contracts pinned here:
//!
//! - **Format transparency** — a trace converted to `.octf` produces
//!   bit-identical models to the `.btf`/`.ptf` original, for both
//!   metrics, at any forced shard count and worker count, plain or
//!   gzip-framed.
//! - **Pushdown exactness** — a windowed hi-res ingest that skips
//!   non-overlapping chunks derives the same window bits as a full
//!   ingest followed by `derive_window`, and a predicate-restricted
//!   model equals the sink-side filtered model of a row format.
//! - **Cache-key invariance** — the index-combined fingerprint is the
//!   same on the full and every pushdown route (and equals
//!   `hash_trace_input`), so pushdown ingests hit the same artifacts a
//!   full ingest wrote; a warm `.omicro` store serves a windowed
//!   re-slice with zero source reads.
//! - **Deterministic telemetry** — `chunks_total`/`chunks_read`/
//!   `bytes_skipped` are pure functions of the index and the predicate.
//! - **Fault isolation** — a corrupted chunk fails with a typed error
//!   naming the chunk and the file, while predicates that skip it keep
//!   the rest of the file readable.

use ocelotl::core::{HiResModel, IngestStats, Metric, ModelSource, PushdownProbe, SessionError};
use ocelotl::format::{
    gzip_stored, hash_file, hash_trace_input, plan_columnar, read_hi_res, read_hi_res_window,
    read_model, read_model_with, write_columnar_chunked, write_trace, FormatError, IngestMode,
    IngestOptions, Predicate, ShardMode,
};
use ocelotl::prelude::*;
use ocelotl::trace::{hi_res_slices, ModelKind, PointEvent, PointKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(ext: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ocelotl-columnar-eq-{}-{n}.{ext}",
        std::process::id()
    ))
}

/// Deterministic 6-leaf trace with globally time-ordered intervals (so
/// chunks get distinct, nearly disjoint time extents) plus point events:
/// 240 intervals over [0, 12] and 20 points.
fn fixture_trace() -> Trace {
    let mut b = TraceBuilder::new(Hierarchy::balanced(&[2, 3]));
    let run = b.state("Run");
    let wait = b.state("Wait");
    for k in 0..240u32 {
        let t = f64::from(k) * 0.05;
        let s = if (80..140).contains(&k) { wait } else { run };
        b.push_state(LeafId(k % 6), s, t, t + 0.05);
    }
    for k in 0..20u32 {
        b.push_point(PointEvent {
            resource: LeafId(k % 6),
            time: f64::from(k) * 0.5,
            kind: match k % 3 {
                0 => PointKind::Marker,
                1 => PointKind::MsgSend { peer: LeafId(0) },
                _ => PointKind::MsgRecv { peer: LeafId(0) },
            },
        });
    }
    b.build()
}

/// Write `trace` as a multi-chunk `.octf` (32-record chunks: 8 interval
/// chunks + 1 point chunk for the fixture).
fn write_octf(trace: &Trace, path: &Path, chunk_records: usize) {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    write_columnar_chunked(trace, &mut w, chunk_records).unwrap();
    use std::io::Write as _;
    w.flush().unwrap();
}

fn assert_bit_identical(a: &MicroModel, b: &MicroModel, what: &str) {
    assert_eq!(a.n_leaves(), b.n_leaves(), "{what}: |S|");
    assert_eq!(a.n_states(), b.n_states(), "{what}: |X|");
    assert_eq!(a.n_slices(), b.n_slices(), "{what}: |T|");
    assert_eq!(a.grid(), b.grid(), "{what}: grid");
    for l in 0..a.n_leaves() {
        for x in 0..a.n_states() {
            for t in 0..a.n_slices() {
                let va = a.duration(LeafId(l as u32), StateId(x as u16), t);
                let vb = b.duration(LeafId(l as u32), StateId(x as u16), t);
                assert_eq!(va.to_bits(), vb.to_bits(), "{what}: cell ({l},{x},{t})");
            }
        }
    }
}

fn opts(shards: usize, workers: usize) -> IngestOptions {
    IngestOptions {
        shards: ShardMode::Fixed(shards),
        max_workers: workers,
        predicate: None,
    }
}

// ---------------------------------------------------------------------------
// Format transparency
// ---------------------------------------------------------------------------

#[test]
fn octf_models_match_row_formats_bitwise() {
    let trace = fixture_trace();
    let octf = scratch("octf");
    write_octf(&trace, &octf, 32);
    for kind in [ModelKind::States, ModelKind::Density] {
        for ext in ["btf", "ptf"] {
            let row = scratch(ext);
            write_trace(&trace, &row).unwrap();
            let want = read_model(&row, 12, kind).unwrap();
            let got = read_model(&octf, 12, kind).unwrap();
            assert_bit_identical(&got.model, &want.model, &format!("octf vs {ext}/{kind:?}"));
            assert_eq!(got.intervals, want.intervals);
            assert_eq!(got.points, want.points);
            std::fs::remove_file(&row).ok();
        }
    }
    std::fs::remove_file(&octf).ok();
}

#[test]
fn sharded_octf_equals_sequential_at_any_worker_count() {
    let trace = fixture_trace();
    let octf = scratch("octf");
    write_octf(&trace, &octf, 32);
    for kind in [ModelKind::States, ModelKind::Density] {
        let seq = read_model_with(&octf, 12, kind, &opts(1, 1)).unwrap();
        for shards in [2, 4, 7] {
            for workers in [1, 8] {
                let par = read_model_with(&octf, 12, kind, &opts(shards, workers)).unwrap();
                let tag = format!("{kind:?} shards={shards} workers={workers}");
                assert_bit_identical(&par.model, &seq.model, &tag);
                assert_eq!(par.fingerprint, seq.fingerprint, "{tag}: fingerprint");
                assert_eq!(par.chunks_total, 9, "{tag}: chunk count");
                assert_eq!(par.chunks_read, 9, "{tag}: full ingest reads all");
                assert_eq!(par.bytes_skipped, 0, "{tag}");
            }
        }
    }
    std::fs::remove_file(&octf).ok();
}

#[test]
fn gzip_framed_octf_matches_plain() {
    let trace = fixture_trace();
    let octf = scratch("octf");
    write_octf(&trace, &octf, 32);
    let gz = scratch("octf.gz");
    std::fs::write(&gz, gzip_stored(&std::fs::read(&octf).unwrap())).unwrap();

    let plain = read_model(&octf, 12, ModelKind::States).unwrap();
    let framed = read_model(&gz, 12, ModelKind::States).unwrap();
    assert_bit_identical(&framed.model, &plain.model, "gzip octf");
    assert!(framed.gzip && !plain.gzip);
    // Compressed fingerprints hash the on-disk bytes (no random access
    // into a DEFLATE stream), exactly like every other .gz input.
    assert_eq!(framed.fingerprint, hash_file(&gz).unwrap());
    std::fs::remove_file(&octf).ok();
    std::fs::remove_file(&gz).ok();
}

// ---------------------------------------------------------------------------
// Pushdown exactness
// ---------------------------------------------------------------------------

#[test]
fn windowed_pushdown_equals_full_ingest_then_derive_window() {
    let trace = fixture_trace();
    let octf = scratch("octf");
    write_octf(&trace, &octf, 32);
    let n = 12usize;
    for (kind, metric) in [
        (ModelKind::States, Metric::States),
        (ModelKind::Density, Metric::Density),
    ] {
        let full = read_hi_res(&octf, n, kind).unwrap();
        let full_key = full.fingerprint;
        let h = full.model.n_slices();
        assert_eq!(h, hi_res_slices(n, 6, trace.states.len()));
        let resident = HiResModel::new(metric, full.model);
        // A quarter-window at each end plus an interior one.
        for (first, count) in [(0, h / 4), (h / 2, h / 4), (3 * h / 4, h / 4)] {
            let want = resident.derive_window(first, count, n).unwrap();
            let push = read_hi_res_window(&octf, n, kind, first, count, &opts(1, 1)).unwrap();
            assert_eq!(push.mode, IngestMode::Pushdown);
            assert_eq!(push.chunks_total, 9);
            assert!(
                push.chunks_read < push.chunks_total,
                "window [{first}, {first}+{count}) must skip chunks \
                 (read {} of {})",
                push.chunks_read,
                push.chunks_total
            );
            assert!(push.bytes_skipped > 0);
            let windowed = HiResModel::new(metric, push.model);
            let got = windowed.derive_window(first, count, n).unwrap();
            assert_bit_identical(&got, &want, &format!("{metric:?} window {first}+{count}"));
            // Pushdown never changes the artifact key.
            assert_eq!(push.fingerprint, full_key);
        }
    }
    std::fs::remove_file(&octf).ok();
}

#[test]
fn time_predicate_matches_sink_side_filtering() {
    let trace = fixture_trace();
    let octf = scratch("octf");
    let btf = scratch("btf");
    write_octf(&trace, &octf, 32);
    write_trace(&trace, &btf).unwrap();
    let pred = IngestOptions {
        predicate: Some(Predicate {
            time_range: Some((0.0, 3.0)),
            resources: None,
        }),
        ..IngestOptions::default()
    };
    for kind in [ModelKind::States, ModelKind::Density] {
        // On .btf the predicate is applied sink-side (same model, no I/O
        // savings); on .octf whole chunks are skipped. Models must agree.
        let row = read_model_with(&btf, 12, kind, &pred).unwrap();
        let col = read_model_with(&octf, 12, kind, &pred).unwrap();
        assert_bit_identical(&col.model, &row.model, &format!("{kind:?} windowed"));
        assert_eq!(col.mode, IngestMode::Pushdown);
        assert!(col.chunks_read < col.chunks_total, "{kind:?}");
    }
    std::fs::remove_file(&octf).ok();
    std::fs::remove_file(&btf).ok();
}

#[test]
fn resource_predicate_prunes_chunks_and_matches_sink_side() {
    // Leaf-major pushes give most chunks a single-resource mask, so a
    // resource predicate can prune at the index level.
    let mut b = TraceBuilder::new(Hierarchy::flat(4, "p"));
    let run = b.state("Run");
    for leaf in 0..4u32 {
        for k in 0..64u32 {
            let t = f64::from(k) * 0.1;
            b.push_state(LeafId(leaf), run, t, t + 0.1);
        }
    }
    let trace = b.build();
    let octf = scratch("octf");
    let btf = scratch("btf");
    write_octf(&trace, &octf, 32);
    write_trace(&trace, &btf).unwrap();
    let pred = IngestOptions {
        predicate: Some(Predicate {
            time_range: None,
            resources: Some(vec![0]),
        }),
        ..IngestOptions::default()
    };
    let row = read_model_with(&btf, 8, ModelKind::States, &pred).unwrap();
    let col = read_model_with(&octf, 8, ModelKind::States, &pred).unwrap();
    assert_bit_identical(&col.model, &row.model, "resource-filtered");
    assert_eq!(col.chunks_total, 8);
    assert_eq!(col.chunks_read, 2, "leaf 0 lives in exactly 2 chunks");
    std::fs::remove_file(&octf).ok();
    std::fs::remove_file(&btf).ok();
}

// ---------------------------------------------------------------------------
// Cache-key invariance and deterministic telemetry
// ---------------------------------------------------------------------------

#[test]
fn pushdown_fingerprint_equals_full_ingest_key() {
    let trace = fixture_trace();
    let octf = scratch("octf");
    write_octf(&trace, &octf, 32);
    let full = read_model(&octf, 12, ModelKind::States).unwrap();
    // The index-combined fingerprint is computable without reading chunk
    // payloads and equals the canonical input hash.
    assert_eq!(full.fingerprint, hash_trace_input(&octf).unwrap());
    assert_eq!(
        full.fingerprint,
        plan_columnar(&octf).unwrap().fingerprint(&octf).unwrap()
    );
    let pred = IngestOptions {
        predicate: Some(Predicate {
            time_range: Some((9.0, 12.0)),
            resources: None,
        }),
        ..IngestOptions::default()
    };
    let a = read_model_with(&octf, 12, ModelKind::States, &pred).unwrap();
    let b = read_model_with(&octf, 12, ModelKind::States, &pred).unwrap();
    assert_eq!(a.fingerprint, full.fingerprint, "pushdown key == full key");
    // Telemetry is a pure function of index × predicate.
    assert_eq!(a.chunks_read, b.chunks_read);
    assert_eq!(a.bytes_skipped, b.bytes_skipped);
    assert_eq!(a.shards, b.shards);
    assert!(a.chunks_read < a.chunks_total);
    std::fs::remove_file(&octf).ok();
}

// ---------------------------------------------------------------------------
// Session level: pushdown re-slices through a fresh session
// ---------------------------------------------------------------------------

/// The facade-level twin of the CLI's `FileSource` over an `.octf` file,
/// counting every ingest that touches the trace.
struct OctfSource {
    path: PathBuf,
    reads: Arc<AtomicU64>,
}

impl OctfSource {
    fn stats(report: &ocelotl::format::IngestReport) -> IngestStats {
        IngestStats {
            fingerprint: report.fingerprint,
            bytes_read: report.bytes_read,
            intervals: report.intervals,
            points: report.points,
            peak_bytes: report.peak_bytes,
            mode: report.mode.tag().to_string(),
            format: "octf".to_string(),
            gzip: report.gzip,
            shards: report.shards.clone(),
            chunks_total: report.chunks_total,
            chunks_read: report.chunks_read,
            bytes_skipped: report.bytes_skipped,
        }
    }
}

impl ModelSource for OctfSource {
    fn fingerprint(&self) -> Result<u64, SessionError> {
        hash_trace_input(&self.path).map_err(|e| SessionError::source(format!("hash: {e}")))
    }
    fn model(&self, n_slices: usize, metric: Metric) -> Result<MicroModel, SessionError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(read_model(&self.path, n_slices, metric.model_kind())
            .map_err(|e| SessionError::source(e.to_string()))?
            .model)
    }
    fn hi_res_with_stats(
        &self,
        n_slices: usize,
        metric: Metric,
    ) -> Result<Option<(HiResModel, Option<IngestStats>)>, SessionError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let report = read_hi_res(&self.path, n_slices, metric.model_kind())
            .map_err(|e| SessionError::source(e.to_string()))?;
        let stats = Self::stats(&report);
        Ok(Some((HiResModel::new(metric, report.model), Some(stats))))
    }
    fn pushdown_probe(
        &self,
        n_slices: usize,
        _metric: Metric,
    ) -> Result<Option<PushdownProbe>, SessionError> {
        let plan = plan_columnar(&self.path).map_err(|e| SessionError::source(e.to_string()))?;
        let Some(range) = plan.header.range else {
            return Ok(None);
        };
        let hi_slices = hi_res_slices(
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
        self.reads.fetch_add(1, Ordering::Relaxed);
        let report = read_hi_res_window(
            &self.path,
            n_slices,
            metric.model_kind(),
            first,
            count,
            &IngestOptions::default(),
        )
        .map_err(|e| SessionError::source(e.to_string()))?;
        let stats = Self::stats(&report);
        Ok(Some((HiResModel::new(metric, report.model), Some(stats))))
    }
}

fn octf_session(path: &Path, n_slices: usize) -> (AnalysisSession, Arc<AtomicU64>) {
    let reads = Arc::new(AtomicU64::new(0));
    let session = AnalysisSession::new(
        OctfSource {
            path: path.to_path_buf(),
            reads: Arc::clone(&reads),
        },
        SessionConfig {
            n_slices,
            ..SessionConfig::default()
        },
    );
    (session, reads)
}

#[test]
fn fresh_session_windowed_reslice_uses_pushdown() {
    let trace = fixture_trace();
    let octf = scratch("octf");
    write_octf(&trace, &octf, 32);

    // Cold path: a windowed re-slice on a fresh session must go through
    // the probe + windowed ingest — one source read, chunks skipped.
    let (mut cold, cold_reads) = octf_session(&octf, 12);
    cold.reslice(12, Some((0.0, 3.0))).unwrap();
    let windowed = cold.model().unwrap().clone();
    assert_eq!(cold_reads.load(Ordering::Relaxed), 1, "one windowed ingest");
    let stats = cold
        .ingest_stats()
        .unwrap()
        .expect("pushdown reports stats");
    assert_eq!(stats.mode, "pushdown");
    assert_eq!(stats.chunks_total, 9);
    assert!(
        stats.chunks_read < stats.chunks_total,
        "read {} of {}",
        stats.chunks_read,
        stats.chunks_total
    );

    // Reference: full ingest first, then the same window from the
    // resident intermediate. The windowed models must agree bitwise.
    let (mut warm, _) = octf_session(&octf, 12);
    warm.model().unwrap();
    warm.reslice(12, Some((0.0, 3.0))).unwrap();
    assert_bit_identical(&windowed, warm.model().unwrap(), "pushdown vs resident");
    std::fs::remove_file(&octf).ok();
}

#[test]
fn warm_store_serves_windowed_reslice_with_zero_source_reads() {
    let trace = fixture_trace();
    let octf = scratch("octf");
    write_octf(&trace, &octf, 32);
    let dir = scratch("store");
    std::fs::create_dir_all(&dir).unwrap();
    let store = || ocelotl::format::DiskStore::for_input(&octf, Some(dir.as_path()));

    // Session 1 ingests fully and parks the hi-res intermediate.
    let (s1, _) = octf_session(&octf, 12);
    let s1 = s1.with_store(store());
    s1.model().unwrap();
    drop(s1);

    // Session 2 (same store): the windowed re-slice finds the artifact —
    // keyed by the same fingerprint a pushdown ingest reports — and never
    // touches the trace.
    let (s2, reads2) = octf_session(&octf, 12);
    let mut s2 = s2.with_store(store());
    s2.reslice(12, Some((0.0, 3.0))).unwrap();
    s2.model().unwrap();
    assert_eq!(
        reads2.load(Ordering::Relaxed),
        0,
        "warm window is read-free"
    );
    std::fs::remove_file(&octf).ok();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Fault isolation
// ---------------------------------------------------------------------------

#[test]
fn corrupt_chunk_fails_typed_and_predicates_route_around_it() {
    let trace = fixture_trace();
    let octf = scratch("octf");
    write_octf(&trace, &octf, 32);
    let plan = plan_columnar(&octf).unwrap();
    let victim = &plan.chunks[1];
    // Flip one byte in the middle of chunk 1's payload.
    let mut bytes = std::fs::read(&octf).unwrap();
    let payload_start = victim.offset + (victim.stored_bytes() - victim.payload_len);
    bytes[(payload_start + victim.payload_len / 2) as usize] ^= 0xff;
    std::fs::write(&octf, &bytes).unwrap();

    // The full ingest fails with the typed error naming chunk and file.
    let err = read_model(&octf, 12, ModelKind::States).unwrap_err();
    assert!(
        matches!(err, FormatError::ChunkCorrupt { chunk: 1, ref file } if !file.is_empty()),
        "{err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("chunk 1"), "{msg}");
    assert!(msg.contains(".octf"), "{msg}");

    // A window overlapping only healthy chunks still decodes: the planner
    // skips the corrupt one without touching its payload.
    let healthy = IngestOptions {
        predicate: Some(Predicate {
            time_range: Some((9.0, 12.0)),
            resources: None,
        }),
        ..IngestOptions::default()
    };
    let report = read_model_with(&octf, 12, ModelKind::States, &healthy).unwrap();
    assert!(report.chunks_read < report.chunks_total);
    std::fs::remove_file(&octf).ok();
}
