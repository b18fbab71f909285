//! Streaming vs materialized ingestion equivalence.
//!
//! The contract of the push-based pipeline: for every format (BTF, PTF,
//! Pajé) and every metric (states, event density), streaming a trace file
//! straight into the `MicroModel` (`read_model`, O(model) memory) is
//! **bit-identical** to materializing the `Trace` first (`read_trace`,
//! O(events) memory) and slicing it — grids, state registries and every
//! `d_x(s,t)` cell. Since partitions and pIC are pure functions of the
//! model, bit-identical models imply identical analyses.

use ocelotl::format::{read_model, read_trace, write_trace};
use ocelotl::prelude::*;
use ocelotl::trace::{event_density_auto, ModelKind, PointEvent, PointKind};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(ext: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ocelotl-stream-eq-{}-{n}.{ext}",
        std::process::id()
    ))
}

/// Build a random trace whose per-resource intervals are sequential and
/// non-overlapping (the subset every format, including Pajé's set-state
/// model, round-trips exactly).
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
    // Anchor: guarantees a positive time extent in every case.
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

fn assert_bit_identical(streamed: &MicroModel, batch: &MicroModel, what: &str) {
    assert_eq!(streamed.n_leaves(), batch.n_leaves(), "{what}: |S|");
    assert_eq!(streamed.n_states(), batch.n_states(), "{what}: |X|");
    assert_eq!(streamed.n_slices(), batch.n_slices(), "{what}: |T|");
    assert_eq!(
        streamed.grid().start().to_bits(),
        batch.grid().start().to_bits(),
        "{what}: grid start"
    );
    assert_eq!(
        streamed.grid().end().to_bits(),
        batch.grid().end().to_bits(),
        "{what}: grid end"
    );
    let names =
        |m: &MicroModel| -> Vec<String> { m.states().iter().map(|(_, n)| n.to_string()).collect() };
    assert_eq!(names(streamed), names(batch), "{what}: state names/order");
    for l in 0..streamed.n_leaves() {
        for x in 0..streamed.n_states() {
            for t in 0..streamed.n_slices() {
                let a = streamed.duration(LeafId(l as u32), StateId(x as u16), t);
                let b = batch.duration(LeafId(l as u32), StateId(x as u16), t);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what}: cell ({l},{x},{t}): {a} vs {b}"
                );
            }
        }
    }
}

/// The full check for one written file: both metrics plus the zoom path.
fn check_file(path: &std::path::Path, n_slices: usize, what: &str) {
    let materialized = read_trace(path).expect("materialized read");

    // States metric.
    let report = read_model(path, n_slices, ModelKind::States).expect("streaming states");
    let batch = MicroModel::from_trace(&materialized, n_slices).expect("batch states");
    assert_bit_identical(&report.model, &batch, &format!("{what}/states"));

    // Density metric.
    let streamed = read_model(path, n_slices, ModelKind::Density)
        .expect("streaming density")
        .model;
    let batch_d = event_density_auto(&materialized, n_slices).expect("batch density");
    assert_bit_identical(&streamed, &batch_d, &format!("{what}/density"));

    // Zoom / sub-grid path: drill into the first top-level subtree over a
    // middle slice window — submodels of bit-identical models must stay
    // bit-identical.
    let h = batch.hierarchy();
    let node = h.top_level().first().copied().unwrap_or(h.root());
    let (lo, hi) = (n_slices / 4, (n_slices / 2).max(n_slices / 4));
    let sub_s = report.model.submodel(node, lo, hi);
    let sub_b = batch.submodel(node, lo, hi);
    assert_bit_identical(&sub_s, &sub_b, &format!("{what}/zoom"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random traces × three formats × two metrics × the zoom path:
    /// streaming must be bit-identical to materializing.
    #[test]
    fn streaming_equals_materialized(
        shape in (1usize..4, 1usize..4),
        n_states in 1usize..4,
        events in proptest::collection::vec(
            (0u32..16, 0usize..8, 0.01f64..1.5, 0.01f64..2.0), 1..32),
        points in proptest::collection::vec(
            (0u32..16, 0.0f64..8.0, 0u8..6), 0..5),
        n_slices in 2usize..16,
    ) {
        let trace = build_trace(shape, n_states, &events, &points);
        for ext in ["btf", "ptf", "paje"] {
            let path = scratch(ext);
            write_trace(&trace, &path).unwrap();
            check_file(&path, n_slices, ext);
            std::fs::remove_file(&path).ok();
        }
    }
}

// ---------------------------------------------------------------------------
// Live append equivalence: a model grown batch by batch must be bitwise
// the model a fresh ingest of the concatenated prefix would build —
// after *every* batch, not just at the end.
// ---------------------------------------------------------------------------

use ocelotl::core::{DenseCube, HiResModel, LazyCube, LiveEvent, Metric};
use ocelotl::trace::{EventSink, ModelSink, StreamHeader};

/// An all-zero appendable model: `n_leaves` flat resources, two states,
/// `h` hi-res periods over `range`.
fn live_empty(metric: Metric, n_leaves: usize, h: usize, range: (f64, f64)) -> HiResModel {
    let raw = MicroModel::from_dense(
        Hierarchy::flat(n_leaves, "p"),
        StateRegistry::from_names(["A", "B"]),
        TimeGrid::new(range.0, range.1, h),
        vec![0.0; n_leaves * 2 * h],
    );
    HiResModel::new(metric, raw)
}

/// The post-mortem reference: one fresh ingest of `events` through the
/// shared streaming sink, over an explicitly declared range.
fn fresh_raw(
    metric: Metric,
    n_leaves: usize,
    h: usize,
    range: (f64, f64),
    events: &[LiveEvent],
) -> MicroModel {
    let mut sink = ModelSink::with_range(metric.model_kind(), h, range);
    sink.begin(&StreamHeader {
        hierarchy: Hierarchy::flat(n_leaves, "p"),
        states: StateRegistry::from_names(["A", "B"]),
        metadata: Vec::new(),
        range: Some(range),
    });
    for &(leaf, state, b, e) in events {
        sink.interval(leaf, state, b, e);
    }
    sink.finish_raw().expect("fresh ingest")
}

fn assert_live_raw_identical(live: &HiResModel, fresh: &MicroModel, what: &str) {
    assert_eq!(live.raw().grid(), fresh.grid(), "{what}: grid");
    for leaf in 0..live.raw().n_leaves() {
        for x in 0..live.raw().n_states() {
            let a = live.raw().series(LeafId(leaf as u32), StateId(x as u16));
            let b = fresh.series(LeafId(leaf as u32), StateId(x as u16));
            for (t, (va, vb)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "{what}: cell ({leaf}, {x}, {t}): {va} vs {vb}"
                );
            }
        }
    }
}

/// Derived models and both cube backends must agree cell for cell once
/// the raw models do — checked at the target resolution, where the
/// analyses actually read.
fn assert_derived_and_cubes_identical(live: &HiResModel, fresh: &MicroModel, n_slices: usize) {
    let a = live.derive_at(n_slices).expect("live derive");
    let b = HiResModel::new(live.metric(), fresh.clone())
        .derive_at(n_slices)
        .expect("fresh derive");
    assert_bit_identical(&a, &b, "derived");
    let (da, db) = (DenseCube::build(&a), DenseCube::build(&b));
    let (la, lb) = (LazyCube::build(&a), LazyCube::build(&b));
    for node in a.hierarchy().node_ids() {
        for i in 0..n_slices {
            for j in i..n_slices {
                let cells = [
                    ("dense gain", da.gain(node, i, j), db.gain(node, i, j)),
                    ("dense loss", da.loss(node, i, j), db.loss(node, i, j)),
                    ("lazy gain", la.gain(node, i, j), lb.gain(node, i, j)),
                    ("lazy loss", la.loss(node, i, j), lb.loss(node, i, j)),
                ];
                for (what, x, y) in cells {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{what} ({node:?}, {i}, {j}): {x} vs {y}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Declared-horizon regime: the time extent is known up front (what
    /// `simulate --live` declares from its scan pass), bounds are
    /// arbitrary floats, and the grid never grows. Random batch sizes in
    /// 1..4096; after every batch the appended model must be bitwise the
    /// fresh ingest of everything fed so far, for both metrics; at the
    /// end, derived models and dense/lazy cubes must match too.
    #[test]
    fn live_append_equals_fresh_ingest_at_every_batch_boundary(
        n_leaves in 1usize..5,
        n_slices in 2usize..8,
        mult in 3usize..24,
        raw_events in proptest::collection::vec(
            (0u32..8, 0u16..2, 0.0f64..1.0, 0.0001f64..0.97), 1..180),
        batch_sizes in proptest::collection::vec(1usize..4096, 1..10),
    ) {
        let h = n_slices * mult;
        let range = (0.13, 9.71);
        let events: Vec<LiveEvent> = raw_events
            .iter()
            .map(|&(leaf, state, b_frac, d_frac)| {
                let b = range.0 + b_frac * (range.1 - range.0);
                let e = b + d_frac * (range.1 - b);
                (LeafId(leaf % n_leaves as u32), StateId(state), b, e)
            })
            .collect();
        for metric in [Metric::States, Metric::Density] {
            let mut live = live_empty(metric, n_leaves, h, range);
            let mut fed = 0usize;
            let mut batches = batch_sizes.iter().cycle();
            while fed < events.len() {
                let take = (*batches.next().unwrap()).min(events.len() - fed);
                live.append(&events[fed..fed + take], 1).unwrap();
                fed += take;
                let fresh = fresh_raw(metric, n_leaves, h, range, &events[..fed]);
                assert_live_raw_identical(
                    &live,
                    &fresh,
                    &format!("{}/horizon after {fed}", metric.tag()),
                );
            }
            let fresh = fresh_raw(metric, n_leaves, h, range, &events);
            assert_derived_and_cubes_identical(&live, &fresh, n_slices);
        }
    }

    /// Growth regime: dyadic grid (start 0, power-of-two span and period
    /// count), events running past the declared horizon so the grid must
    /// grow. After every batch, a fresh ingest *declared over the grown
    /// range* must be bitwise the appended model.
    #[test]
    fn live_append_with_growth_equals_fresh_ingest_over_the_grown_range(
        n_leaves in 1usize..4,
        n_slices_log2 in 1u32..4, // n_slices in {2, 4, 8}
        raw_events in proptest::collection::vec(
            (0u32..8, 0u16..2, 0.0f64..1.0, 0.0011f64..0.9973), 1..120),
        batch_sizes in proptest::collection::vec(1usize..4096, 1..8),
    ) {
        let n_slices = 1usize << n_slices_log2;
        let h = 1024usize;
        let span = 8.0f64;
        // Events spread past the horizon (up to 1.5x the declared span),
        // with irrational-ish offsets so no endpoint can land exactly on
        // a (dyadic) grid end.
        let events: Vec<LiveEvent> = raw_events
            .iter()
            .map(|&(leaf, state, b_frac, dur)| {
                let b = b_frac * span * 1.5 + 0.000_137;
                (LeafId(leaf % n_leaves as u32), StateId(state), b, b + dur)
            })
            .collect();
        for metric in [Metric::States, Metric::Density] {
            let mut live = live_empty(metric, n_leaves, h, (0.0, span));
            let mut fed = 0usize;
            let mut batches = batch_sizes.iter().cycle();
            while fed < events.len() {
                let take = (*batches.next().unwrap()).min(events.len() - fed);
                live.append(&events[fed..fed + take], n_slices).unwrap();
                fed += take;
                let h_now = live.raw().n_slices();
                let grid = live.raw().grid();
                let fresh = fresh_raw(
                    metric,
                    n_leaves,
                    h_now,
                    (grid.start(), grid.end()),
                    &events[..fed],
                );
                assert_live_raw_identical(
                    &live,
                    &fresh,
                    &format!("{}/growth after {fed} (h={h_now})", metric.tag()),
                );
            }
            prop_assert!(live.raw().n_slices() >= h, "grid only grows");
            let grid = live.raw().grid();
            let fresh = fresh_raw(
                metric,
                n_leaves,
                live.raw().n_slices(),
                (grid.start(), grid.end()),
                &events,
            );
            assert_derived_and_cubes_identical(&live, &fresh, n_slices);
        }
    }
}

#[test]
fn equivalence_holds_for_paper_shaped_workload() {
    // A deterministic mpisim trace (case A at tiny scale) through every
    // format: the shape real analyses see, with MPI state names and
    // thousands of intervals.
    let (trace, _) = ocelotl::mpisim::scenario(CaseId::A, 0.004).run(7);
    for ext in ["btf", "ptf"] {
        let path = scratch(ext);
        write_trace(&trace, &path).unwrap();
        check_file(&path, 30, ext);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn ptf_without_range_header_is_still_bit_identical() {
    // Strip the %range line: the streaming path must fall back to the
    // bounded two-pass scan and still match the materialized build bit
    // for bit (the scanned extent replays TraceBuilder's semantics).
    let trace = build_trace((2, 2), 2, &[(0, 0, 0.5, 1.0), (3, 1, 0.2, 2.0)], &[]);
    let path = scratch("ptf");
    write_trace(&trace, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let stripped: Vec<&str> = text.lines().filter(|l| !l.starts_with("%range")).collect();
    std::fs::write(&path, stripped.join("\n")).unwrap();
    check_file(&path, 8, "ptf-no-range");
    let report = read_model(&path, 8, ModelKind::States).unwrap();
    assert_eq!(report.mode, ocelotl::format::IngestMode::TwoPass);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Live refresh equivalence: a refresh re-derives only the slices its batch
// touched and reuses the previous refresh's cut trees, yet every reply must
// be the reply of a fresh live session fed the same prefix in one batch.
// ---------------------------------------------------------------------------

use ocelotl::core::{AnalysisSession, SessionConfig};
use ocelotl::format::encode_reply;

/// An empty live engine: `n_leaves` flat resources, two states, 1024
/// hi-res periods over the dyadic range `[0, 8)`.
fn live_engine(metric: Metric, n_leaves: usize, n_slices: usize) -> QueryEngine {
    let config = SessionConfig {
        n_slices,
        metric,
        ..SessionConfig::default()
    };
    let hi = live_empty(metric, n_leaves, 1024, (0.0, 8.0));
    QueryEngine::new(AnalysisSession::live(config, hi).expect("live session"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random batch sizes over a locally shuffled feed, both metrics, with
    /// and without grid growth. After each batch a random subset of
    /// `aggregate` at two `p` values × both tie rules and
    /// `render_overview` is asked; each reply equals, byte for byte, that
    /// of a fresh live session fed the same prefix in one batch.
    #[test]
    fn live_refresh_replies_equal_a_fresh_session_fed_the_prefix(
        n_leaves in 1usize..6,
        n_slices_log2 in 1u32..6,
        raw_events in proptest::collection::vec(
            (0u32..8, 0u16..2, 0.0f64..1.0, 0.0001f64..0.6), 1..160),
        batch_sizes in proptest::collection::vec(1usize..12, 1..8),
        asks in proptest::collection::vec(0usize..32, 1..8),
        grow in any::<bool>(),
        density in any::<bool>(),
    ) {
        let n_slices = 1usize << n_slices_log2;
        let metric = if density { Metric::Density } else { Metric::States };
        // Time-ordered, then reversed within runs of 8, so a batch often
        // ends before the last one did; past the 8.0 horizon only when the
        // grid should grow.
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
        let requests: Vec<AnalysisRequest> = [(0.5, false), (0.5, true), (0.25, false), (0.25, true)]
            .into_iter()
            .map(|(p, coarse)| AnalysisRequest::Aggregate { p, coarse, compare: false, diff_p: None })
            .chain([AnalysisRequest::RenderOverview {
                p: 0.5,
                coarse: false,
                min_rows: 0.0,
                level_resolution: None,
            }])
            .collect();
        let mut live = live_engine(metric, n_leaves, n_slices);
        let (mut fed, mut round) = (0, 0);
        while fed < events.len() {
            let take = batch_sizes[round % batch_sizes.len()].min(events.len() - fed);
            live.session_mut().advance(&events[fed..fed + take]).unwrap();
            fed += take;
            let ask = asks[round % asks.len()];
            round += 1;
            let mut fresh = live_engine(metric, n_leaves, n_slices);
            fresh.session_mut().advance(&events[..fed]).unwrap();
            for (k, request) in requests.iter().enumerate() {
                if ask & (1 << k) == 0 {
                    continue;
                }
                prop_assert_eq!(
                    encode_reply(&live.execute(request)),
                    encode_reply(&fresh.execute(request)),
                    "{} after {} events: {}", metric.tag(), fed, request.kind()
                );
            }
        }
    }
}
