//! Sharded-ingest equivalence: the shard plan is the canonical
//! computation.
//!
//! The contracts pinned here, for every format and metric:
//!
//! - **Worker invariance** — a fixed shard plan produces bit-identical
//!   models and telemetry at any worker count. The plan is a
//!   pure function of the trace content; `--threads` only redistributes
//!   work.
//! - **Density exactness** — density cells are raw event counts until one
//!   final normalization, and integer sums are exact in any grouping: every
//!   forced shard count reproduces the sequential bits, and partial-model
//!   folds are associative bit-for-bit.
//! - **Multi-file = concatenated** — a directory of per-rank files mounts
//!   each file on disjoint leaves (one contributor per cell, `x + 0 = x`
//!   exact), so the union model equals a single concatenated file holding
//!   the same events, bitwise, for both metrics.
//! - **Gzip transparency** — a `.gz` member decodes to the same bits as the
//!   plain file.

use ocelotl::format::{
    gzip_stored, read_model, read_model_with, read_trace, trace_files, write_binary,
    write_columnar_chunked, write_text, write_trace, IngestOptions, Predicate, ShardMode,
};
use ocelotl::prelude::*;
use ocelotl::trace::{ModelKind, ModelSink, PartialModel, PointEvent, PointKind};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ocelotl-shard-eq-{}-{n}-{tag}", std::process::id()))
}

fn opts(shards: usize, workers: usize) -> IngestOptions {
    IngestOptions {
        shards: ShardMode::Fixed(shards),
        max_workers: workers,
        predicate: None,
    }
}

/// Random trace with sequential, non-overlapping per-resource intervals
/// (the subset every format round-trips exactly) plus point events.
fn build_trace(
    n_leaves: usize,
    n_states: usize,
    events: &[(u32, usize, f64, f64)],
    points: &[(u32, f64, u8)],
) -> Trace {
    let mut b = TraceBuilder::new(Hierarchy::flat(n_leaves, "p"));
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
        b.push_point(PointEvent {
            resource: LeafId(leaf_sel % n_leaves as u32),
            time,
            kind: match kind % 3 {
                0 => PointKind::Marker,
                1 => PointKind::MsgSend { peer: LeafId(0) },
                _ => PointKind::MsgRecv { peer: LeafId(0) },
            },
        });
    }
    b.build()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fixed shard plans × {1,2,8} workers × both metrics × both seekable
    /// formats: every output bit and the decoded counts must be
    /// worker-invariant (the plan is content-only; workers just
    /// race through it).
    #[test]
    fn sharded_ingest_is_worker_invariant(
        n_leaves in 1usize..5,
        n_states in 1usize..4,
        events in proptest::collection::vec(
            (0u32..16, 0usize..8, 0.01f64..1.5, 0.01f64..2.0), 1..40),
        points in proptest::collection::vec(
            (0u32..16, 0.0f64..8.0, 0u8..6), 0..6),
        shards in 1usize..8,
        n_slices in 2usize..12,
    ) {
        let trace = build_trace(n_leaves, n_states, &events, &points);
        for ext in ["btf", "ptf"] {
            let path = scratch(&format!("wi.{ext}"));
            write_trace(&trace, &path).unwrap();
            for kind in [ModelKind::States, ModelKind::Density] {
                let base = read_model_with(&path, n_slices, kind, &opts(shards, 1)).unwrap();
                for workers in [2usize, 8] {
                    let other =
                        read_model_with(&path, n_slices, kind, &opts(shards, workers)).unwrap();
                    let what = format!("{ext}/{kind:?}/{shards}sh/{workers}w");
                    prop_assert_eq!(&base.shards, &other.shards, "{}", &what);
                    prop_assert_eq!(
                        (base.intervals, base.points),
                        (other.intervals, other.points),
                        "{}", &what
                    );
                    assert_bit_identical(&base.model, &other.model, &what);
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// Density: raw integer counts sum exactly in any grouping, so every
    /// forced shard count — however uneven the resulting byte splits —
    /// reproduces the sequential ingest bit for bit.
    #[test]
    fn density_sharding_matches_sequential_bitwise(
        n_leaves in 1usize..5,
        events in proptest::collection::vec(
            (0u32..16, 0usize..4, 0.01f64..1.0, 0.01f64..1.5), 1..40),
        n_slices in 2usize..12,
    ) {
        let trace = build_trace(n_leaves, 2, &events, &[]);
        for ext in ["btf", "ptf"] {
            let path = scratch(&format!("ds.{ext}"));
            write_trace(&trace, &path).unwrap();
            let seq = read_model(&path, n_slices, ModelKind::Density).unwrap();
            for shards in 2..=8usize {
                let sh =
                    read_model_with(&path, n_slices, ModelKind::Density, &opts(shards, 4)).unwrap();
                assert_bit_identical(&sh.model, &seq.model, &format!("{ext}/{shards}"));
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// Gzip members decode to the same bits as the plain file for every
    /// format and metric.
    #[test]
    fn gzip_ingest_matches_plain_bitwise(
        n_leaves in 1usize..4,
        events in proptest::collection::vec(
            (0u32..16, 0usize..4, 0.01f64..1.0, 0.01f64..1.5), 1..24),
        n_slices in 2usize..10,
    ) {
        let trace = build_trace(n_leaves, 2, &events, &[]);
        for ext in ["btf", "ptf", "paje"] {
            let plain = scratch(&format!("gz-src.{ext}"));
            write_trace(&trace, &plain).unwrap();
            let gz = scratch(&format!("gz.{ext}.gz"));
            std::fs::write(&gz, gzip_stored(&std::fs::read(&plain).unwrap())).unwrap();
            for kind in [ModelKind::States, ModelKind::Density] {
                let a = read_model(&plain, n_slices, kind).unwrap();
                let b = read_model(&gz, n_slices, kind).unwrap();
                prop_assert!(b.gzip, "{}: gzip flag", ext);
                assert_bit_identical(&a.model, &b.model, &format!("{ext}/{kind:?}"));
            }
            std::fs::remove_file(&plain).ok();
            std::fs::remove_file(&gz).ok();
        }
    }

    /// A directory of per-rank files vs one concatenated file carrying the
    /// same events on the union layout: bit-identical for both metrics.
    #[test]
    fn multi_file_matches_concatenated_single_file(
        ev_a in proptest::collection::vec(
            (0u32..8, 0usize..2, 0.01f64..1.0, 0.01f64..1.5), 1..16),
        ev_b in proptest::collection::vec(
            (0u32..8, 0usize..2, 0.01f64..1.0, 0.01f64..1.5), 1..16),
        n_slices in 2usize..10,
    ) {
        let ta = build_trace(2, 2, &ev_a, &[]);
        let tb = build_trace(3, 2, &ev_b, &[]);
        let dir = scratch("mf");
        std::fs::create_dir_all(&dir).unwrap();
        write_trace(&ta, &dir.join("rank0.btf")).unwrap();
        write_trace(&tb, &dir.join("rank1.btf")).unwrap();

        // The union layout the directory ingest builds: super-root named
        // after the directory, each file's root re-rooted as a child named
        // by the file stem, leaves numbered in file order.
        let dir_name = dir.file_name().unwrap().to_str().unwrap();
        let mut hb = HierarchyBuilder::new(dir_name, "trace");
        let root = hb.root();
        for (stem, t) in [("rank0", &ta), ("rank1", &tb)] {
            let h = &t.hierarchy;
            let mut map: Vec<NodeId> = Vec::with_capacity(h.len());
            for id in h.node_ids() {
                let mapped = match h.parent(id) {
                    None => hb.add_child(root, stem, h.kind(id)),
                    Some(p) => hb.add_child(map[p.0 as usize], h.name(id), h.kind(id)),
                };
                map.push(mapped);
            }
        }
        let mut cb = TraceBuilder::new(hb.build().unwrap());
        let s0 = cb.state("state-0");
        let s1 = cb.state("state-1");
        let remap = |t: &Trace, s: StateId| if t.states.name(s) == "state-0" { s0 } else { s1 };
        for iv in &ta.intervals {
            cb.push_state(iv.resource, remap(&ta, iv.state), iv.begin, iv.end);
        }
        for iv in &tb.intervals {
            cb.push_state(LeafId(iv.resource.0 + 2), remap(&tb, iv.state), iv.begin, iv.end);
        }
        let concat = cb.build();
        let single = scratch("mf-concat.btf");
        write_trace(&concat, &single).unwrap();

        for kind in [ModelKind::States, ModelKind::Density] {
            let union = read_model(&dir, n_slices, kind).unwrap();
            let fused = read_model(&single, n_slices, kind).unwrap();
            prop_assert_eq!(union.shards.len(), 2);
            assert_bit_identical(&union.model, &fused.model, &format!("mf/{kind:?}"));
        }
        std::fs::remove_file(&single).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Partial-model folds over density counts are exact in every grouping:
/// `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` finish to the same bits — the algebraic
/// core the shard merge relies on.
#[test]
fn density_partial_fold_is_associative_bitwise() {
    let trace = build_trace(
        3,
        2,
        &[
            (0, 0, 0.2, 1.0),
            (1, 1, 0.1, 0.7),
            (2, 0, 0.4, 1.3),
            (0, 1, 0.3, 0.5),
            (1, 0, 0.2, 1.1),
            (2, 1, 0.1, 0.9),
        ],
        &[(0, 1.5, 0), (1, 2.5, 1), (2, 3.5, 2)],
    );
    let path = scratch("assoc.btf");
    write_trace(&trace, &path).unwrap();

    // Three single-shard partials over thirds of the trace, folded twice
    // with different groupings; each third is driven through the
    // EventSink protocol directly — exactly what a shard decoder does.
    let parts = |groups: &[usize]| -> MicroModel {
        let full = ocelotl::format::read_trace(&path).unwrap();
        let range = full.time_range().unwrap();
        let header = ocelotl::trace::StreamHeader {
            hierarchy: full.hierarchy.clone(),
            states: full.states.clone(),
            metadata: vec![],
            range: Some(range),
        };
        let n = full.intervals.len();
        let cuts = [0, n / 3, 2 * n / 3, n];
        let npts = full.points.len();
        let pcuts = [0, npts / 3, 2 * npts / 3, npts];
        let mut thirds: Vec<PartialModel> = (0..3)
            .map(|k| {
                let mut sink = ModelSink::with_range(ModelKind::Density, 5, range);
                assert!(sink.begin(&header), "third {k} declined");
                for iv in &full.intervals[cuts[k]..cuts[k + 1]] {
                    sink.interval(iv.resource, iv.state, iv.begin, iv.end);
                }
                for p in &full.points[pcuts[k]..pcuts[k + 1]] {
                    sink.point(p);
                }
                sink.end();
                sink.finish_partial().unwrap()
            })
            .collect();
        let c = thirds.pop().unwrap();
        let b = thirds.pop().unwrap();
        let a = thirds.pop().unwrap();
        let merged = match groups {
            [0] => {
                // (a ⊕ b) ⊕ c
                let mut ab = a;
                ab.absorb(b);
                ab.absorb(c);
                ab
            }
            _ => {
                // a ⊕ (b ⊕ c)
                let mut bc = b;
                bc.absorb(c);
                let mut a = a;
                a.absorb(bc);
                a
            }
        };
        merged.into_model(true)
    };
    let left = parts(&[0]);
    let right = parts(&[1]);
    assert_bit_identical(&left, &right, "fold grouping");
    std::fs::remove_file(&path).ok();
}

/// Extremely uneven forced splits — more shards than events, shards
/// covering empty record ranges — still merge to the sequential density
/// bits and the sequential telemetry.
#[test]
fn degenerate_shard_plans_are_harmless() {
    let trace = build_trace(2, 1, &[(0, 0, 0.5, 1.0), (1, 0, 0.2, 0.8)], &[(0, 1.0, 0)]);
    for ext in ["btf", "ptf"] {
        let path = scratch(&format!("tiny.{ext}"));
        write_trace(&trace, &path).unwrap();
        let seq = read_model(&path, 4, ModelKind::Density).unwrap();
        // 3 intervals + 1 point across 8 requested shards: several shards
        // decode nothing at all.
        let sh = read_model_with(&path, 4, ModelKind::Density, &opts(8, 3)).unwrap();
        assert_eq!((sh.intervals, sh.points), (seq.intervals, seq.points));
        assert_bit_identical(&sh.model, &seq.model, ext);
        std::fs::remove_file(&path).ok();
    }
}

/// The auto plan is content-derived: ingesting the same file with any
/// worker budget yields the same shard layout and the same bits (small
/// fixtures plan a single shard — the sequential path — by construction).
#[test]
fn auto_plan_ignores_worker_budget() {
    let trace = build_trace(3, 2, &[(0, 0, 0.3, 1.0), (1, 1, 0.4, 0.9)], &[]);
    let path = scratch("auto.btf");
    write_trace(&trace, &path).unwrap();
    let auto = |workers| {
        read_model_with(
            &path,
            6,
            ModelKind::States,
            &IngestOptions {
                shards: ShardMode::Auto,
                max_workers: workers,
                predicate: None,
            },
        )
        .unwrap()
    };
    let a = auto(1);
    let b = auto(8);
    assert_eq!(a.shards, b.shards, "plan is content-only");
    assert_eq!(a.shards.len(), 1, "small file → sequential plan");
    assert_bit_identical(&a.model, &b.model, "auto");
    std::fs::remove_file(&path).ok();
}

/// Multi-file ingestion accepts mixed formats and gzip members.
#[test]
fn mixed_format_directory_ingests_and_fingerprints() {
    let dir = scratch("mixed");
    std::fs::create_dir_all(&dir).unwrap();
    let ta = build_trace(2, 2, &[(0, 0, 0.2, 1.0), (1, 1, 0.1, 0.6)], &[]);
    let tb = build_trace(2, 2, &[(0, 1, 0.3, 0.8)], &[]);
    write_trace(&ta, &dir.join("a.btf")).unwrap();
    // b as gzip-compressed PTF.
    let tmp = scratch("mixed-b.ptf");
    write_trace(&tb, &tmp).unwrap();
    let raw = std::fs::read(&tmp).unwrap();
    std::fs::remove_file(&tmp).ok();
    std::fs::write(dir.join("b.ptf.gz"), gzip_stored(&raw)).unwrap();

    let report = read_model(&dir, 5, ModelKind::States).unwrap();
    assert_eq!(report.model.n_leaves(), 4);
    assert!(report.gzip, "any gzip member flags the report");
    assert_eq!(report.shards.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// The single file a directory trace stands for: the members' decoded
/// events on the union layout (super-root named after the directory, each
/// member's root renamed to its file stem, leaves numbered in file order,
/// states interned by name in file order), written as one `.btf`.
fn concatenated(dir: &std::path::Path, out: &std::path::Path) {
    let members: Vec<Trace> = trace_files(dir)
        .unwrap()
        .iter()
        .map(|f| read_trace(f).unwrap())
        .collect();
    let stems: Vec<String> = trace_files(dir)
        .unwrap()
        .iter()
        .map(|f| f.file_stem().unwrap().to_str().unwrap().to_string())
        .collect();
    let mut hb = HierarchyBuilder::new(dir.file_name().unwrap().to_str().unwrap(), "trace");
    let root = hb.root();
    for (stem, t) in stems.iter().zip(&members) {
        let h = &t.hierarchy;
        let mut map: Vec<NodeId> = Vec::with_capacity(h.len());
        for id in h.node_ids() {
            let mapped = match h.parent(id) {
                None => hb.add_child(root, stem, h.kind(id)),
                Some(p) => hb.add_child(map[p.0 as usize], h.name(id), h.kind(id)),
            };
            map.push(mapped);
        }
    }
    let mut cb = TraceBuilder::new(hb.build().unwrap());
    let mut offset = 0u32;
    for t in &members {
        let states: Vec<StateId> = t.states.iter().map(|(_, name)| cb.state(name)).collect();
        for iv in &t.intervals {
            let leaf = LeafId(iv.resource.0 + offset);
            cb.push_state(leaf, states[iv.state.0 as usize], iv.begin, iv.end);
        }
        for p in &t.points {
            let shift = |l: LeafId| LeafId(l.0 + offset);
            cb.push_point(PointEvent {
                resource: shift(p.resource),
                time: p.time,
                kind: match p.kind {
                    PointKind::Marker => PointKind::Marker,
                    PointKind::MsgSend { peer } => PointKind::MsgSend { peer: shift(peer) },
                    PointKind::MsgRecv { peer } => PointKind::MsgRecv { peer: shift(peer) },
                },
            });
        }
        offset += t.hierarchy.n_leaves() as u32;
    }
    write_trace(&cb.build(), out).unwrap();
}

/// A predicate on a directory trace means what it means on the single
/// file the directory stands for: the window is the union grid, and the
/// resource list names union leaves (translated to each file's own ids).
#[test]
fn directory_predicates_match_the_concatenated_file() {
    let dir = scratch("mf-pred");
    std::fs::create_dir_all(&dir).unwrap();
    let events = |seed: u32| -> Vec<(u32, usize, f64, f64)> {
        (0..24)
            .map(|i| {
                (
                    i * 7 + seed,
                    (i + seed) as usize,
                    0.05 * (i % 4) as f64,
                    0.3,
                )
            })
            .collect()
    };
    let points = [(0, 1.5, 0), (1, 2.5, 1), (2, 4.0, 2)];
    write_trace(&build_trace(2, 2, &events(0), &points), &dir.join("a.btf")).unwrap();
    let tmp = scratch("mf-pred-b.ptf");
    write_trace(&build_trace(3, 2, &events(5), &points), &tmp).unwrap();
    std::fs::write(
        dir.join("b.ptf.gz"),
        gzip_stored(&std::fs::read(&tmp).unwrap()),
    )
    .unwrap();
    std::fs::remove_file(&tmp).ok();
    let single = scratch("mf-pred-concat.btf");
    concatenated(&dir, &single);

    let window = Predicate {
        time_range: Some((1.2, 4.8)),
        resources: None,
    };
    let leaves = Predicate {
        time_range: None,
        resources: Some(vec![1, 3]),
    };
    for (what, predicate) in [("window", window), ("resources", leaves)] {
        for kind in [ModelKind::States, ModelKind::Density] {
            let opts = IngestOptions {
                predicate: Some(predicate.clone()),
                ..IngestOptions::default()
            };
            let union = read_model_with(&dir, 6, kind, &opts).unwrap();
            let fused = read_model_with(&single, 6, kind, &opts).unwrap();
            assert_eq!(
                (union.intervals, union.points),
                (fused.intervals, fused.points),
                "{what}/{kind:?}: decoded counts"
            );
            assert_bit_identical(&union.model, &fused.model, &format!("{what}/{kind:?}"));
        }
    }
    std::fs::remove_file(&single).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every kind of unit in one directory: a plain `.octf` (chunk index
/// extent), a range-less `.ptf` (scanned), a `.paje` (scanned, no point
/// events) and a `.btf.gz` (gzip stream). The union is bit-identical to
/// the concatenated file at any worker count.
#[test]
fn every_unit_kind_in_one_directory_matches_the_concatenated_file() {
    let dir = scratch("mf-all");
    std::fs::create_dir_all(&dir).unwrap();
    let events = |seed: u32| -> Vec<(u32, usize, f64, f64)> {
        (0..40)
            .map(|i| {
                (
                    i * 3 + seed,
                    (i * seed) as usize,
                    0.02 * (i % 5) as f64,
                    0.17,
                )
            })
            .collect()
    };
    let points = [(0, 0.7, 0), (1, 1.9, 1), (1, 3.1, 2)];
    let mut octf = std::fs::File::create(dir.join("a.octf")).unwrap();
    write_columnar_chunked(&build_trace(2, 2, &events(1), &points), &mut octf, 8).unwrap();
    drop(octf);
    let mut ptf = Vec::new();
    write_text(&build_trace(3, 2, &events(2), &points), &mut ptf).unwrap();
    let ptf: String = String::from_utf8(ptf)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with("%range"))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(dir.join("b.ptf"), ptf).unwrap();
    write_trace(&build_trace(2, 2, &events(3), &[]), &dir.join("c.paje")).unwrap();
    let mut btf = Vec::new();
    write_binary(&build_trace(2, 3, &events(4), &points), &mut btf).unwrap();
    std::fs::write(dir.join("d.btf.gz"), gzip_stored(&btf)).unwrap();
    let single = scratch("mf-all-concat.btf");
    concatenated(&dir, &single);

    for kind in [ModelKind::States, ModelKind::Density] {
        let fused = read_model(&single, 7, kind).unwrap();
        for workers in [1, 4] {
            let opts = IngestOptions {
                max_workers: workers,
                ..IngestOptions::default()
            };
            let union = read_model_with(&dir, 7, kind, &opts).unwrap();
            let what = format!("{kind:?}/{workers}w");
            assert_eq!(union.shards.len(), 4, "{what}: one unit per file");
            assert_eq!(
                (union.intervals, union.points),
                (fused.intervals, fused.points),
                "{what}: decoded counts"
            );
            assert_bit_identical(&union.model, &fused.model, &what);
        }
    }
    std::fs::remove_file(&single).ok();
    std::fs::remove_dir_all(&dir).ok();
}
