//! Artifact-store correctness: `.ocube`/`.opart` roundtrips at a
//! non-trivial hierarchy, bit-identical partitions from warm vs. cold
//! sessions, stale-key invalidation, and the §V.B economy itself (warm
//! `aggregate` must be ≥ 5× faster than cold at the quickstart scenario's
//! |T| = 256).

use ocelotl::core::{
    quality, AnalysisSession, ArtifactStore, CubeCore, CubeSource, HiResModel, MemoryStore, Metric,
    OwnedSource, PartitionTable, SessionConfig, SignificantSet,
};
use ocelotl::format::{hash_trace, DiskStore};
use ocelotl::prelude::*;
use ocelotl::trace::synthetic::random_model;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ocelotl-session-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The quickstart scenario: 2 clusters × 4 machines, cluster 1 stalling in
/// MPI_Wait during [4 s, 6 s).
fn quickstart_trace() -> Trace {
    let mut b = HierarchyBuilder::new("site", "site");
    for c in 0..2 {
        let cluster = b.add_child(b.root(), &format!("cluster{c}"), "cluster");
        for m in 0..4 {
            b.add_child(cluster, &format!("m{c}{m}"), "machine");
        }
    }
    let hierarchy = b.build().unwrap();
    let mut tb = TraceBuilder::new(hierarchy);
    let compute = tb.state("Compute");
    let wait = tb.state("MPI_Wait");
    for leaf in 0..8u32 {
        let mut t = 0.0;
        while t < 10.0 {
            let stalled = leaf >= 4 && (4.0..6.0).contains(&t);
            let state = if stalled { wait } else { compute };
            let step = 0.05 + 0.01 * (leaf as f64 % 3.0);
            tb.push_state(LeafId(leaf), state, t, (t + step).min(10.0));
            t += step;
        }
    }
    tb.build()
}

fn session_for(
    model: MicroModel,
    fingerprint: u64,
    n_slices: usize,
    store: DiskStore,
) -> AnalysisSession {
    AnalysisSession::new(
        OwnedSource::new(model, fingerprint),
        SessionConfig {
            n_slices,
            metric: Metric::States,
            ..SessionConfig::default()
        },
    )
    .with_store(store)
}

#[test]
fn ocube_roundtrip_at_nontrivial_hierarchy() {
    // Three-level hierarchy, 12 leaves, 3 states: every prefix-sum row and
    // every evaluated cell must come back bit-identical.
    let model = random_model(&[3, 2, 2], 13, 3, 2718);
    let core = CubeCore::build(&model);
    let dir = scratch("ocube-roundtrip");
    let path = dir.join("t.ocube");
    std::fs::create_dir_all(&dir).unwrap();
    ocelotl::format::save_cube(77, &core, &path).unwrap();
    let (key, back) = ocelotl::format::load_cube(&path).unwrap();
    assert_eq!(key, 77);
    assert_eq!(back.grid(), core.grid());
    assert_eq!(back.hierarchy().len(), core.hierarchy().len());
    for node in core.hierarchy().node_ids() {
        assert_eq!(
            core.prefix_duration_row(node),
            back.prefix_duration_row(node)
        );
        assert_eq!(core.prefix_info_row(node), back.prefix_info_row(node));
        for i in 0..core.n_slices() {
            for j in i..core.n_slices() {
                let (g0, l0) = core.eval_cell(node, i, j);
                let (g1, l1) = back.eval_cell(node, i, j);
                assert_eq!(g0.to_bits(), g1.to_bits());
                assert_eq!(l0.to_bits(), l1.to_bits());
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn opart_roundtrip_at_nontrivial_hierarchy() {
    let model = random_model(&[3, 2, 2], 11, 3, 3141);
    let cube = DenseCube::build(&model);
    let entries = significant_partitions(&cube, &DpConfig::default(), 1e-2);
    let mut table = PartitionTable {
        significant: Some(SignificantSet {
            resolution: 1e-2,
            entries,
        }),
        points: Vec::new(),
    };
    for (p, coarse) in [(0.3, false), (0.3, true), (0.9, false)] {
        table.insert_point(
            p,
            coarse,
            aggregate(
                &cube,
                p,
                &if coarse {
                    DpConfig::coarse_ties()
                } else {
                    DpConfig::default()
                },
            )
            .partition(&cube),
        );
    }
    let dir = scratch("opart-roundtrip");
    let path = dir.join("t.opart");
    std::fs::create_dir_all(&dir).unwrap();
    ocelotl::format::save_partitions(88, &table, &path).unwrap();
    let (key, back) = ocelotl::format::load_partitions(&path).unwrap();
    assert_eq!(key, 88);
    assert_eq!(back, table);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_partitions_are_bit_identical_to_cold() {
    let trace = quickstart_trace();
    let fp = hash_trace(&trace).unwrap();
    let model = MicroModel::from_trace(&trace, 30).unwrap();
    let dir = scratch("warm-identical");

    let cold = session_for(model.clone(), fp, 30, DiskStore::new(&dir, "q"));
    let cold_parts: Vec<Partition> = [0.0, 0.3, 0.5, 0.9, 1.0]
        .iter()
        .map(|&p| cold.partition_at(p, false).unwrap())
        .collect();
    let cold_levels = cold.significant(1e-3).unwrap();
    cold.cube().unwrap();
    assert_eq!(cold.cube_source(), Some(CubeSource::Cold));
    let cold_quality: Vec<(u64, u64)> = cold_parts
        .iter()
        .map(|part| {
            let q = quality(cold.cube().unwrap(), part);
            (q.loss.to_bits(), q.gain.to_bits())
        })
        .collect();

    // A brand-new session over the same artifacts: identical everything,
    // zero DP runs, trace never resliced.
    let warm = session_for(model, fp, 30, DiskStore::new(&dir, "q"));
    for (i, &p) in [0.0, 0.3, 0.5, 0.9, 1.0].iter().enumerate() {
        let part = warm.partition_at(p, false).unwrap();
        assert_eq!(part, cold_parts[i], "p = {p}");
    }
    let warm_levels = warm.significant(1e-3).unwrap();
    assert_eq!(warm.dp_runs(), 0, "warm session must not run the DP");
    warm.cube().unwrap();
    assert_eq!(warm.cube_source(), Some(CubeSource::Warm));
    assert_eq!(cold_levels.len(), warm_levels.len());
    for (a, b) in cold_levels.iter().zip(&warm_levels) {
        assert_eq!(a.p_low.to_bits(), b.p_low.to_bits());
        assert_eq!(a.p_high.to_bits(), b.p_high.to_bits());
        assert_eq!(a.partition, b.partition);
    }
    // Quality numbers recomputed from the warm cube match to the bit.
    for (i, part) in cold_parts.iter().enumerate() {
        let q = quality(warm.cube().unwrap(), part);
        assert_eq!((q.loss.to_bits(), q.gain.to_bits()), cold_quality[i]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn changing_trace_or_params_invalidates_artifacts() {
    let trace = quickstart_trace();
    let fp = hash_trace(&trace).unwrap();
    let model = MicroModel::from_trace(&trace, 20).unwrap();
    let dir = scratch("invalidation");

    let first = session_for(model.clone(), fp, 20, DiskStore::new(&dir, "q"));
    first.partition_at(0.5, false).unwrap();

    // Same trace, same params → warm.
    let same = session_for(model.clone(), fp, 20, DiskStore::new(&dir, "q"));
    same.cube().unwrap();
    assert_eq!(same.cube_source(), Some(CubeSource::Warm));

    // A changed trace (different fingerprint) → different key → cold:
    // stale bytes can never be *served* (content-addressing), even though
    // recent sibling artifacts are allowed to coexist for warmth.
    let changed = session_for(model.clone(), fp ^ 1, 20, DiskStore::new(&dir, "q"));
    changed.partition_at(0.5, false).unwrap();
    changed.cube().unwrap();
    assert_eq!(changed.cube_source(), Some(CubeSource::Cold));

    // Different slicing params → different key → cold.
    let model36 = MicroModel::from_trace(&trace, 36).unwrap();
    let resliced = session_for(model36, fp, 36, DiskStore::new(&dir, "q"));
    resliced.cube().unwrap();
    assert_eq!(resliced.cube_source(), Some(CubeSource::Cold));

    // And the cache population is bounded: many distinct keys prune down
    // to the store's keep window instead of accumulating forever.
    for k in 0..8u64 {
        let s = session_for(model.clone(), fp ^ (100 + k), 20, DiskStore::new(&dir, "q"));
        s.cube().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let ocubes = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("ocube"))
        .count();
    assert_eq!(
        ocubes,
        ocelotl::format::KEEP_PER_KIND,
        "stale keys must be garbage-collected down to the keep window"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A file-backed, hi-res-capable source (the facade-level twin of the
/// CLI's `FileSource`) so the `.omicro` store paths are exercised end to
/// end from a real trace file.
struct FileBacked(PathBuf);

impl ModelSource for FileBacked {
    fn fingerprint(&self) -> Result<u64, SessionError> {
        ocelotl::format::hash_file(&self.0).map_err(|e| SessionError::source(format!("{e}")))
    }
    fn model(&self, n_slices: usize, metric: Metric) -> Result<MicroModel, SessionError> {
        Ok(
            ocelotl::format::read_model(&self.0, n_slices, metric.model_kind())
                .map_err(|e| SessionError::source(e.to_string()))?
                .model,
        )
    }
    fn hi_res_with_stats(
        &self,
        n_slices: usize,
        metric: Metric,
    ) -> Result<Option<(HiResModel, Option<IngestStats>)>, SessionError> {
        let report = ocelotl::format::read_hi_res(&self.0, n_slices, metric.model_kind())
            .map_err(|e| SessionError::source(e.to_string()))?;
        Ok(Some((HiResModel::new(metric, report.model), None)))
    }
}

fn file_session(path: &Path, n_slices: usize, store: Option<DiskStore>) -> AnalysisSession {
    let s = AnalysisSession::new(
        FileBacked(path.to_path_buf()),
        SessionConfig {
            n_slices,
            ..SessionConfig::default()
        },
    );
    match store {
        Some(store) => s.with_store(store),
        None => s,
    }
}

fn write_quickstart(dir: &Path, name: &str) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(name);
    ocelotl::format::write_trace(&quickstart_trace(), &path).unwrap();
    path
}

#[test]
fn omicro_roundtrips_through_the_disk_store() {
    let dir = scratch("omicro-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let store = DiskStore::new(&dir, "t");
    let hi = HiResModel::new(Metric::States, random_model(&[3, 2], 128, 3, 77));

    assert!(store.load_hi_res(9).is_none(), "empty store misses");
    assert!(store.store_hi_res(9, &hi));
    let back = store.load_hi_res(9).expect("hit");
    assert_eq!(back.metric(), Metric::States);
    assert_eq!(back.n_slices(), 128);
    for l in 0..hi.raw().n_leaves() {
        for x in 0..hi.raw().n_states() {
            let (l, x) = (LeafId(l as u32), StateId(x as u16));
            for t in 0..128 {
                assert_eq!(
                    back.raw().duration(l, x, t).to_bits(),
                    hi.raw().duration(l, x, t).to_bits()
                );
            }
        }
    }
    assert!(store.load_hi_res(10).is_none(), "other keys miss");

    // A renamed artifact must be rejected by the header key guard.
    let from = dir.join(format!("t-{:016x}.omicro", 9u64));
    let to = dir.join(format!("t-{:016x}.omicro", 10u64));
    std::fs::rename(&from, &to).unwrap();
    assert!(store.load_hi_res(10).is_none(), "header key mismatch");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn omicro_warms_a_slices_change_across_sessions() {
    let dir = scratch("omicro-warm");
    let trace_path = write_quickstart(&dir, "q.btf");

    // Session A ingests at 30 and persists the hi-res intermediate.
    let a = file_session(&trace_path, 30, Some(DiskStore::new(&dir, "q")));
    let a30 = a.partition_at(0.5, false).unwrap();
    assert_eq!(a.source_reads(), 1);

    // A brand-new session at 60 over the same store re-slices from the
    // `.omicro` artifact — ZERO trace reads — and is bit-identical to a
    // fresh, store-less ingest at 60.
    let mut b = file_session(&trace_path, 60, Some(DiskStore::new(&dir, "q")));
    let b60 = b.partition_at(0.5, false).unwrap();
    assert_eq!(
        b.source_reads(),
        0,
        "a --slices change on a warm store must not touch the trace"
    );
    let fresh = file_session(&trace_path, 60, None);
    assert_eq!(b60, fresh.partition_at(0.5, false).unwrap());

    // And back at 30 the answers match session A exactly.
    b.reslice(30, None).unwrap();
    assert_eq!(b.partition_at(0.5, false).unwrap(), a30);
    assert_eq!(b.source_reads(), 0, "30 is served warm too (.opart/.ocube)");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn omicro_stale_keys_and_foreign_families_invalidate() {
    let dir = scratch("omicro-stale");
    let trace_path = write_quickstart(&dir, "q.btf");

    let a = file_session(&trace_path, 30, Some(DiskStore::new(&dir, "q")));
    let _ = a.model().unwrap();
    assert_eq!(a.source_reads(), 1);

    // Changed trace bytes → changed fingerprint → changed `.omicro` key:
    // the stale intermediate can never be served.
    let mut tb = TraceBuilder::new(Hierarchy::balanced(&[2, 4]));
    let s = tb.state("Other");
    for leaf in 0..8u32 {
        tb.push_state(LeafId(leaf), s, 0.0, 4.0);
    }
    ocelotl::format::write_trace(&tb.build(), &trace_path).unwrap();
    let changed = file_session(&trace_path, 30, Some(DiskStore::new(&dir, "q")));
    let n_leaves = changed.model().unwrap().n_leaves();
    assert_eq!(changed.source_reads(), 1, "stale key misses, re-ingests");
    assert_eq!(n_leaves, 8, "the NEW trace is served");

    // A hi-res-resolution change (a slicing family the stored grid cannot
    // serve) also re-ingests — and overwrites the artifact, so its own
    // family is warm afterwards.
    let foreign = file_session(&trace_path, 50, Some(DiskStore::new(&dir, "q")));
    let _ = foreign.model().unwrap();
    assert_eq!(foreign.source_reads(), 1, "50 is outside the stored family");
    let warm50 = file_session(&trace_path, 50, Some(DiskStore::new(&dir, "q")));
    let _ = warm50.model().unwrap();
    assert_eq!(warm50.source_reads(), 0, "the 50-family is now stored");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn omicro_gc_respects_cache_keep() {
    let dir = scratch("omicro-gc");
    std::fs::create_dir_all(&dir).unwrap();
    let store = DiskStore::new(&dir, "t").with_keep(2);
    let hi = HiResModel::new(Metric::States, random_model(&[2], 64, 2, 5));
    for key in 1..=5u64 {
        assert!(store.store_hi_res(key, &hi));
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let omicros = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("omicro"))
        .count();
    assert_eq!(omicros, 2, "pruned to --cache-keep");
    assert!(store.load_hi_res(5).is_some(), "newest kept");
    assert!(store.load_hi_res(1).is_none(), "oldest collected");

    // Kinds do not prune each other: storing cubes leaves omicros alone.
    let core = CubeCore::build(&random_model(&[2], 8, 2, 6));
    for key in 10..=15u64 {
        store.store_cube(key, &core);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(store.load_hi_res(5).is_some(), ".ocube GC spares .omicro");
    std::fs::remove_dir_all(&dir).ok();
}

/// The warm-vs-cold guarantee, parameterized over a `--slices` change —
/// the memo-bug class the hi-res pipeline targets: a session that warmed
/// at one resolution must stay bit-identical to cold at *every* later
/// resolution, whether served from the resident model, from artifacts,
/// or by re-ingest.
#[test]
fn warm_vs_cold_bit_identity_survives_slices_changes() {
    let dir = scratch("warm-across-slices");
    let trace_path = write_quickstart(&dir, "q.btf");

    // Cold reference runs, one fresh store-less session per resolution.
    let mut reference = Vec::new();
    for n in [30usize, 60, 15] {
        let cold = file_session(&trace_path, n, None);
        reference.push((n, cold.partition_at(0.4, false).unwrap()));
    }

    // One warm session re-sliced across the same resolutions.
    let mut warm = file_session(&trace_path, 30, Some(DiskStore::new(&dir, "q")));
    for (n, cold_part) in &reference {
        warm.reslice(*n, None).unwrap();
        let part = warm.partition_at(0.4, false).unwrap();
        assert_eq!(&part, cold_part, "--slices {n}: warm must equal cold");
    }
    assert_eq!(warm.source_reads(), 1, "one ingest serves all resolutions");

    // And a second process (new session, same store) answers all three
    // with zero DP runs and zero trace reads.
    let mut replay = file_session(&trace_path, 30, Some(DiskStore::new(&dir, "q")));
    for (n, cold_part) in &reference {
        replay.reslice(*n, None).unwrap();
        assert_eq!(&replay.partition_at(0.4, false).unwrap(), cold_part);
    }
    assert_eq!(replay.dp_runs(), 0, "fully warm replay runs no DP");
    assert_eq!(replay.source_reads(), 0, "fully warm replay reads no trace");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_aggregate_is_at_least_5x_faster_at_t256() {
    use std::time::Instant;
    // The acceptance scenario: quickstart trace at |T| = 256. Cold pays
    // model slicing + prefix sums + dense matrices + the O(|S||T|³) DP;
    // warm replays the stored partition from `.opart` over a `.ocube`.
    let trace = quickstart_trace();
    let fp = hash_trace(&trace).unwrap();
    let model = MicroModel::from_trace(&trace, 256).unwrap();
    let dir = scratch("speedup");

    let t0 = Instant::now();
    let cold = session_for(model.clone(), fp, 256, DiskStore::new(&dir, "q"));
    let cold_part = cold.partition_at(0.5, false).unwrap();
    let cold_elapsed = t0.elapsed();

    let t1 = Instant::now();
    let warm = session_for(model, fp, 256, DiskStore::new(&dir, "q"));
    let warm_part = warm.partition_at(0.5, false).unwrap();
    let warm_elapsed = t1.elapsed();

    assert_eq!(cold_part, warm_part, "warm must be bit-identical");
    assert_eq!(warm.dp_runs(), 0);
    assert!(
        warm_elapsed * 5 <= cold_elapsed,
        "warm aggregate must be >= 5x faster: cold {cold_elapsed:?}, warm {warm_elapsed:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_store_gives_in_process_warmth() {
    // The ArtifactStore abstraction is not disk-bound: a MemoryStore
    // shared via Arc warms a second session in the same process.
    use std::sync::Arc;
    #[derive(Clone)]
    struct Shared(Arc<MemoryStore>);
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

    let model = random_model(&[2, 3], 16, 2, 99);
    let store = Shared(Arc::new(MemoryStore::new()));
    let config = SessionConfig {
        n_slices: 16,
        metric: Metric::States,
        ..SessionConfig::default()
    };
    let a =
        AnalysisSession::new(OwnedSource::new(model.clone(), 5), config).with_store(store.clone());
    let pa = a.partition_at(0.4, false).unwrap();
    let b = AnalysisSession::new(OwnedSource::new(model, 5), config).with_store(store);
    let pb = b.partition_at(0.4, false).unwrap();
    assert_eq!(pa, pb);
    assert_eq!(b.dp_runs(), 0);
}
