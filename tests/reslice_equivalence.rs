//! Incremental re-slicing equivalence: a `MicroModel` derived from the
//! resident `HiResModel` must be **bit-identical** to the one the fresh
//! ingest pipeline builds from the trace at the same resolution — for
//! random traces × all three formats × both metrics, at every servable
//! divisor `n_slices`, for zoom sub-ranges aligned with the hi-res grid,
//! and for the dense/lazy quality cube built on top. It also pins the
//! operational property the tentpole exists for: a warm session answers
//! any `--slices` change in the dyadic family with **zero trace disk
//! reads**.

use ocelotl::core::{DenseCube, HiResModel, LazyCube, QualityCube};
use ocelotl::format::{read_hi_res, read_model, write_trace};
use ocelotl::prelude::*;
use ocelotl::trace::{PointEvent, PointKind};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(ext: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ocelotl-reslice-eq-{}-{n}.{ext}",
        std::process::id()
    ))
}

/// Random trace in the subset every format round-trips exactly (see
/// `streaming_equivalence.rs`, whose generator this mirrors).
fn build_trace(
    shape: (usize, usize),
    n_states: usize,
    events: &[(u32, usize, f64, f64)],
    points: &[(u32, f64, u8)],
) -> Trace {
    let h = Hierarchy::balanced(&[shape.0, shape.1]);
    let n_leaves = h.n_leaves();
    let mut b = TraceBuilder::new(h);
    let states: Vec<StateId> = (0..n_states)
        .map(|i| b.state(&format!("state-{i}")))
        .collect();
    b.push_state(LeafId(0), states[0], 0.0, 1.0);
    let mut cursor = vec![1.0f64; n_leaves];
    for &(leaf_sel, state_sel, gap, dur) in events {
        let leaf = leaf_sel as usize % n_leaves;
        let begin = cursor[leaf] + gap;
        let end = begin + dur;
        cursor[leaf] = end;
        b.push_state(
            LeafId(leaf as u32),
            states[state_sel % n_states],
            begin,
            end,
        );
    }
    for &(leaf_sel, time, kind) in points {
        let resource = LeafId(leaf_sel % n_leaves as u32);
        let kind = match kind % 3 {
            0 => PointKind::Marker,
            1 => PointKind::MsgSend { peer: LeafId(0) },
            _ => PointKind::MsgRecv { peer: LeafId(0) },
        };
        b.push_point(PointEvent {
            resource,
            time,
            kind,
        });
    }
    b.build()
}

fn assert_bit_identical(a: &MicroModel, b: &MicroModel, what: &str) {
    assert_eq!(a.n_leaves(), b.n_leaves(), "{what}: |S|");
    assert_eq!(a.n_states(), b.n_states(), "{what}: |X|");
    assert_eq!(a.n_slices(), b.n_slices(), "{what}: |T|");
    assert_eq!(
        a.grid().start().to_bits(),
        b.grid().start().to_bits(),
        "{what}: grid start"
    );
    assert_eq!(
        a.grid().end().to_bits(),
        b.grid().end().to_bits(),
        "{what}: grid end"
    );
    for l in 0..a.n_leaves() {
        for x in 0..a.n_states() {
            for t in 0..a.n_slices() {
                let (va, vb) = (
                    a.duration(LeafId(l as u32), StateId(x as u16), t),
                    b.duration(LeafId(l as u32), StateId(x as u16), t),
                );
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "{what}: cell ({l},{x},{t}): {va} vs {vb}"
                );
            }
        }
    }
}

/// Every `n'` the resident grid serves, up to `limit`.
fn servable(hi: &HiResModel, limit: usize) -> Vec<usize> {
    (1..=limit).filter(|&n| hi.serves(n)).collect()
}

/// The full check for one written file and metric.
fn check_file(path: &Path, n0: usize, kind: ModelKind, metric: Metric, what: &str) {
    // The resident intermediate, as the session's first ingest builds it.
    let hi = HiResModel::new(metric, read_hi_res(path, n0, kind).unwrap().model);
    assert!(hi.serves(n0), "{what}: the requested resolution must serve");

    // Every servable divisor: warm derive == fresh ingest pipeline.
    let divisors = servable(&hi, 96);
    assert!(!divisors.is_empty(), "{what}: no servable divisors");
    for n in divisors {
        let fresh_raw = read_hi_res(path, n, kind).unwrap().model;
        assert_eq!(
            fresh_raw.n_slices(),
            hi.n_slices(),
            "{what}/{n}: fresh ingest must land on the same hi-res grid"
        );
        let fresh = HiResModel::new(metric, fresh_raw).derive(n).unwrap();
        let warm = hi.derive(n).unwrap();
        assert_bit_identical(&warm, &fresh, &format!("{what}/derive {n}"));

        // The classic direct build agrees numerically (same prorated
        // events, different summation order; density is skipped — its
        // per-resolution peak normalization is not mass-preserving).
        if kind == ModelKind::States {
            let direct = read_model(path, n, kind).unwrap().model;
            assert!(
                (warm.grand_total() - direct.grand_total()).abs()
                    <= 1e-9 * direct.grand_total().abs().max(1.0),
                "{what}/{n}: mass drift vs direct build"
            );
        }

        // The quality cube built on top: dense and lazy backends answer
        // bit-identically from warm and fresh models.
        let cube_w = DenseCube::build(&warm);
        let cube_f = LazyCube::build(&fresh);
        let h = warm.hierarchy();
        let t = warm.n_slices();
        for node in [h.root(), h.leaf_node(LeafId(0))] {
            for (i, j) in [(0, t - 1), (0, 0), (t / 2, t - 1)] {
                let (gw, lw) = cube_w.gain_loss(node, i, j);
                let (gf, lf) = cube_f.gain_loss(node, i, j);
                assert_eq!(gw.to_bits(), gf.to_bits(), "{what}/{n}: gain ({i},{j})");
                assert_eq!(lw.to_bits(), lf.to_bits(), "{what}/{n}: loss ({i},{j})");
            }
        }
    }

    // Zoom sub-range aligned with the hi-res grid: warm window == the
    // same window derived from a freshly ingested hi-res model.
    let h = hi.n_slices();
    let (first, count) = (h / 4, h / 2);
    let n_zoom = 8.min(count);
    if count % n_zoom == 0 {
        let warm = hi.derive_window(first, count, n_zoom).unwrap();
        let fresh_hi = HiResModel::new(metric, read_hi_res(path, n0, kind).unwrap().model);
        let fresh = fresh_hi.derive_window(first, count, n_zoom).unwrap();
        assert_bit_identical(&warm, &fresh, &format!("{what}/zoom"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random traces × three formats × both metrics: warm re-slices from
    /// one resident hi-res model are bit-identical to fresh ingests at
    /// every servable resolution, including zooms and the cube on top.
    #[test]
    fn reslice_equals_fresh_ingest(
        shape in (1usize..4, 1usize..4),
        n_states in 1usize..4,
        events in proptest::collection::vec(
            (0u32..16, 0usize..8, 0.01f64..1.5, 0.01f64..2.0), 1..24),
        points in proptest::collection::vec(
            (0u32..16, 0.0f64..8.0, 0u8..6), 0..5),
        n0 in 2usize..48,
    ) {
        let trace = build_trace(shape, n_states, &events, &points);
        for ext in ["btf", "ptf", "paje"] {
            let path = scratch(ext);
            write_trace(&trace, &path).unwrap();
            for (kind, metric) in [
                (ModelKind::States, Metric::States),
                (ModelKind::Density, Metric::Density),
            ] {
                check_file(&path, n0, kind, metric, &format!("{ext}/{metric:?}"));
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

// ---------------------------------------------------------------------------
// Session-level: zero trace reads across a --slices change
// ---------------------------------------------------------------------------

/// A file-backed, hi-res-capable `ModelSource` (the facade-level twin of
/// the CLI's `FileSource`) that counts every disk ingest it performs.
struct CountingFileSource {
    path: PathBuf,
    metric_kind: ModelKind,
}

impl ModelSource for CountingFileSource {
    fn fingerprint(&self) -> Result<u64, SessionError> {
        ocelotl::format::hash_file(&self.path)
            .map_err(|e| SessionError::source(format!("hash: {e}")))
    }
    fn model(&self, n_slices: usize, _metric: Metric) -> Result<MicroModel, SessionError> {
        Ok(read_model(&self.path, n_slices, self.metric_kind)
            .map_err(|e| SessionError::source(e.to_string()))?
            .model)
    }
    fn hi_res_with_stats(
        &self,
        n_slices: usize,
        metric: Metric,
    ) -> Result<Option<(HiResModel, Option<IngestStats>)>, SessionError> {
        let report = read_hi_res(&self.path, n_slices, self.metric_kind)
            .map_err(|e| SessionError::source(e.to_string()))?;
        let stats = IngestStats {
            bytes_read: report.bytes_read,
            intervals: report.intervals,
            points: report.points,
            peak_bytes: report.peak_bytes,
            mode: report.mode.tag().to_string(),
            format: "btf".to_string(),
            gzip: report.gzip,
            shards: report.shards.clone(),
            chunks_total: report.chunks_total,
            chunks_read: report.chunks_read,
            bytes_skipped: report.bytes_skipped,
        };
        Ok(Some((HiResModel::new(metric, report.model), Some(stats))))
    }
}

fn session_over_file(path: &Path, n_slices: usize) -> AnalysisSession {
    AnalysisSession::new(
        CountingFileSource {
            path: path.to_path_buf(),
            metric_kind: ModelKind::States,
        },
        SessionConfig {
            n_slices,
            ..SessionConfig::default()
        },
    )
}

fn fixture() -> PathBuf {
    let mut b = TraceBuilder::new(Hierarchy::balanced(&[2, 3]));
    let run = b.state("Run");
    let wait = b.state("Wait");
    for leaf in 0..6u32 {
        for k in 0..40 {
            let t = k as f64 * 0.25;
            let s = if leaf >= 4 && (10..20).contains(&k) {
                wait
            } else {
                run
            };
            b.push_state(LeafId(leaf), s, t, t + 0.25);
        }
    }
    let path = scratch("btf");
    write_trace(&b.build(), &path).unwrap();
    path
}

#[test]
fn warm_session_serves_slices_changes_with_zero_trace_reads() {
    let path = fixture();

    // One session: ingest once at 30, then re-slice across the dyadic
    // family — the acceptance criterion is zero further source reads.
    let mut s = session_over_file(&path, 30);
    let p30 = s.partition_at(0.4, false).unwrap();
    assert_eq!(s.source_reads(), 1, "cold ingest reads once");
    let stats_bytes = s.ingest_stats().unwrap().expect("telemetry").bytes_read;
    assert!(stats_bytes > 0);
    assert_eq!(s.source_reads(), 1, "stats piggyback on the hi-res ingest");

    for n in [60, 15, 120, 30] {
        s.reslice(n, None).unwrap();
        let part = s.partition_at(0.4, false).unwrap();
        assert_eq!(
            s.source_reads(),
            1,
            "--slices {n} must be served from the resident hi-res model"
        );
        assert_eq!(s.model().unwrap().n_slices(), n);
        if n == 30 {
            assert_eq!(part, p30, "switching back reuses the parked pipeline");
        }
    }

    // Each warm re-slice is bit-identical to a fresh session at that n.
    for n in [60, 15] {
        s.reslice(n, None).unwrap();
        let warm = s.model().unwrap().clone();
        let fresh = session_over_file(&path, n);
        let fresh_model = fresh.model().unwrap().clone();
        assert_bit_identical(&warm, &fresh_model, &format!("session reslice {n}"));
        assert_eq!(
            s.partition_at(0.4, false).unwrap(),
            fresh.partition_at(0.4, false).unwrap(),
            "partitions at {n}"
        );
    }

    // A resolution outside the dyadic family re-ingests (documented
    // fallback), still correct against a fresh session.
    let reads_before = s.source_reads();
    s.reslice(50, None).unwrap();
    let _ = s.model().unwrap();
    assert_eq!(
        s.source_reads(),
        reads_before + 1,
        "50 is a non-family grid"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn windowed_reslice_is_served_in_memory() {
    let path = fixture();
    let mut s = session_over_file(&path, 30);
    let _ = s.model().unwrap();
    assert_eq!(s.source_reads(), 1);

    // Half the trace, an aligned window: served with zero extra reads.
    let (t0, t1) = {
        let g = *s.model().unwrap().grid();
        (g.start(), g.start() + (g.end() - g.start()) / 2.0)
    };
    s.reslice(30, Some((t0, t1))).unwrap();
    assert_eq!(s.source_reads(), 1, "windowed re-slice reads nothing");
    let zoomed = s.model().unwrap();
    assert_eq!(zoomed.n_slices(), 30);
    let (w0, w1) = s.window().unwrap();
    assert!((w0 - t0).abs() < 1e-9 && (w1 - t1).abs() < 1e-9);
    // The zoomed pipeline supports the full analysis surface.
    let part = s.partition_at(0.5, false).unwrap();
    assert!(part.validate(s.cube().unwrap().hierarchy(), 30).is_ok());

    // A window whose hi-res span does not divide into the requested bins
    // is rejected with an invalid-param error (7680/3 = 2560 hi slices,
    // not divisible by 30) — and reads nothing.
    let third = t0 + (t1 - t0) * 2.0 / 3.0;
    let err = s.reslice(30, Some((t0, third))).unwrap_err();
    assert!(matches!(err, SessionError::InvalidParam(_)), "{err}");
    assert_eq!(s.source_reads(), 1);

    // A resolution outside the resident dyadic family re-ingests at its
    // own hi-res grid and then aligns the window against it.
    s.reslice(7, Some((t0, t1))).unwrap();
    assert_eq!(s.source_reads(), 2, "7-slice family needs one re-ingest");
    assert_eq!(s.model().unwrap().n_slices(), 7);
    std::fs::remove_file(&path).ok();
}

#[test]
fn windowed_pipelines_resnap_against_the_current_grid() {
    // Windowed pipelines must never be restored against a *replaced*
    // hi-res grid: after a non-family re-slice swaps the resident grid,
    // revisiting a window re-snaps and re-derives, so the served time
    // range always matches the reported one.
    let path = fixture();
    let mut s = session_over_file(&path, 30);
    let (t0, t1) = {
        let g = *s.model().unwrap().grid();
        (g.start(), g.start() + (g.end() - g.start()) / 2.0)
    };
    s.reslice(30, Some((t0, t1))).unwrap();
    let first_range = (
        s.model().unwrap().grid().start(),
        s.model().unwrap().grid().end(),
    );

    // Swap the resident grid (50 is outside the 30-family), then zoom
    // again: the window is snapped against the 50-family grid.
    s.reslice(50, None).unwrap();
    let _ = s.model().unwrap();
    s.reslice(25, Some((t0, t1))).unwrap();
    let g = *s.model().unwrap().grid();
    assert_eq!(s.model().unwrap().n_slices(), 25);
    let (w0, w1) = s.window().unwrap();
    assert_eq!(g.start().to_bits(), w0.to_bits(), "grid matches the window");
    assert_eq!(g.end().to_bits(), w1.to_bits());
    assert!((w0 - first_range.0).abs() < 1e-9 && (w1 - first_range.1).abs() < 1e-9);
    std::fs::remove_file(&path).ok();
}

#[test]
fn stats_less_sources_are_probed_once() {
    struct NoStats(PathBuf, std::sync::atomic::AtomicUsize);
    impl ModelSource for NoStats {
        fn fingerprint(&self) -> Result<u64, SessionError> {
            Ok(1)
        }
        fn model(&self, n: usize, _m: Metric) -> Result<MicroModel, SessionError> {
            Ok(read_model(&self.0, n, ModelKind::States)
                .map_err(|e| SessionError::source(e.to_string()))?
                .model)
        }
        fn hi_res_with_stats(
            &self,
            n: usize,
            metric: Metric,
        ) -> Result<Option<(HiResModel, Option<IngestStats>)>, SessionError> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let report = read_hi_res(&self.0, n, ModelKind::States)
                .map_err(|e| SessionError::source(e.to_string()))?;
            Ok(Some((HiResModel::new(metric, report.model), None)))
        }
    }
    let path = fixture();
    let counter = std::sync::atomic::AtomicUsize::new(0);
    let s = AnalysisSession::new(
        NoStats(path.clone(), counter),
        SessionConfig {
            n_slices: 30,
            ..SessionConfig::default()
        },
    );
    // The source reports no telemetry: repeated stats queries must not
    // keep re-reading the trace hoping for some.
    assert!(s.ingest_stats().unwrap().is_none());
    assert!(s.ingest_stats().unwrap().is_none());
    assert!(s.ingest_stats().unwrap().is_none());
    assert_eq!(s.source_reads(), 1, "one ingest, no repeated probes");
    std::fs::remove_file(&path).ok();
}
