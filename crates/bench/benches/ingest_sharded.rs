//! Sharded-ingest scaling: wall time and estimated wall time vs shard
//! count for the cold `trace file → MicroModel` pipeline.
//!
//! For each target event count (default 10⁶ and 10⁷; override with
//! `OCELOTL_SHARD_EVENTS=1000000,10000000`) the bench
//!
//! 1. generates a Table II case-A trace with the streamed `mpisim` writer;
//! 2. ingests it with forced shard plans of 1, 2, 4 and 8 shards, once on
//!    a pool of `s` threads (wall time) and once on one thread (each
//!    task's own time, free of contention), draining the per-ingest
//!    timing channel;
//! 3. checks every configuration agrees with the 1-shard ingest
//!    (fingerprint and model mass — full bit-identity is pinned by
//!    `tests/shard_equivalence.rs`);
//! 4. emits one `BENCH {...}` line per (size, shards) point plus a
//!    machine-readable `BENCH_shard.json` (path override:
//!    `BENCH_SHARD_JSON`) for CI artifacts.
//!
//! Every ingest runs the same task list on one pool — the fingerprint's
//! `HASH_CHUNK_BYTES` chunk tasks, then one decode task per shard — so the
//! 1-shard baseline hashes exactly like the sharded runs. The **estimate**
//! replays the one-thread task times on `s` workers the way the pool hands
//! them out (each next task to the first idle worker) and adds planning
//! and merging: `plan + makespan + merge`. A schedule on `s` workers
//! cannot finish before total work / `s`, so the estimated speedup over
//! the 1-shard baseline stays within `s`× unless sharding shrinks the work
//! itself.
//!
//! Each row reports one speedup, labelled by how it was obtained: `wall`
//! (elapsed time vs the 1-shard ingest) when the machine has at least as
//! many cores as shards, `estimate` otherwise. Asserted: ≥2.5× at 4
//! shards on the largest size.

use criterion::{criterion_group, criterion_main, Criterion};
use ocelotl::format::{
    read_model_with, take_last_ingest_timing, IngestOptions, ShardMode, HASH_CHUNK_BYTES,
};
use ocelotl::mpisim::{scenario_with_events, CaseId};
use ocelotl::trace::ModelKind;
use ocelotl_bench::scratch;
use std::time::Instant;

const SLICES: usize = 30;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REQUIRED_SPEEDUP_AT_4: f64 = 2.5;

fn sizes() -> Vec<u64> {
    match std::env::var("OCELOTL_SHARD_EVENTS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1_000_000, 10_000_000],
    }
}

/// Finish time of `tasks`, in order, on `workers` workers that each take
/// the next task as soon as they are idle.
fn makespan(tasks: impl IntoIterator<Item = f64>, workers: usize) -> f64 {
    let mut idle_at = vec![0.0f64; workers.max(1)];
    for t in tasks {
        let first_idle = idle_at
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one worker");
        *first_idle += t;
    }
    idle_at.into_iter().fold(0.0, f64::max)
}

struct Point {
    target: u64,
    events: u64,
    file_bytes: u64,
    shards: usize,
    wall_ms: f64,
    estimate_ms: f64,
    plan_ms: f64,
    hash_ms: f64,
    hash_total_ms: f64,
    slowest_shard_ms: f64,
    merge_ms: f64,
    speedup: f64,
    speedup_kind: &'static str,
}

fn bench_sharded(_c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut points: Vec<Point> = Vec::new();
    println!("cores: {cores}");
    println!(
        "{:>12} {:>7} {:>12} {:>13} {:>10} {:>10} {:>9} {:>9}",
        "events", "shards", "wall", "estimate", "slowest", "merge", "speedup", "kind"
    );
    for target in sizes() {
        let path = scratch(&format!("shard_{target}.btf"));
        scenario_with_events(CaseId::A, target)
            .run_to_file(&path, 42)
            .expect("streamed generation");
        let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let ingest = |shards: usize, workers: usize| {
            let opts = IngestOptions {
                shards: ShardMode::Fixed(shards),
                max_workers: workers,
                predicate: None,
            };
            read_model_with(&path, SLICES, ModelKind::States, &opts).expect("sharded ingest")
        };

        // (wall, estimate, fingerprint, mass bits) of the 1-shard ingest.
        let mut baseline: Option<(f64, f64, u64, u64)> = None;
        for &s in &SHARD_COUNTS {
            // Pass 1 — a pool of `s` threads: this machine's wall time.
            let _ = take_last_ingest_timing(); // drain stale entries
            let t0 = Instant::now();
            let report = ingest(s, s);
            let wall = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(report.shards.len(), s, "plan honors Fixed({s})");

            // Pass 2 — the same plan on one thread: tasks run one after
            // another, so each task's clock is its own work.
            let _ = take_last_ingest_timing();
            let serial = ingest(s, 1);
            let timing = take_last_ingest_timing().expect("ingest records timing");
            assert_eq!(
                serial.fingerprint, report.fingerprint,
                "worker count must not change the output"
            );

            let ms = |nanos: u64| nanos as f64 / 1e6;
            let n_chunks = file_bytes.div_ceil(HASH_CHUNK_BYTES).max(1);
            let chunk_ms = ms(timing.hash_total_nanos) / n_chunks as f64;
            let tasks = (0..n_chunks)
                .map(|_| chunk_ms)
                .chain(timing.shard_nanos.iter().map(|&t| ms(t)));
            let (plan_ms, merge_ms) = (ms(timing.plan_nanos), ms(timing.merge_nanos));
            let estimate_ms = plan_ms + makespan(tasks, s) + merge_ms;
            let slowest_ms = ms(timing.shard_nanos.iter().copied().max().unwrap_or(0));

            let events = report.events();
            let mass = report.model.grand_total();
            let (base_wall, base_estimate) = match &baseline {
                None => {
                    baseline = Some((wall, estimate_ms, report.fingerprint, mass.to_bits()));
                    (wall, estimate_ms)
                }
                Some((w, e, fp, mass_bits)) => {
                    assert_eq!(
                        report.fingerprint, *fp,
                        "fingerprint invariant at {s} shards"
                    );
                    let base_mass = f64::from_bits(*mass_bits);
                    assert!(
                        (mass - base_mass).abs() <= 1e-9 * base_mass.abs().max(1.0),
                        "model mass must agree at {s} shards: {mass} vs {base_mass}"
                    );
                    (*w, *e)
                }
            };
            let (speedup, speedup_kind) = if cores >= s {
                (base_wall / wall.max(1e-9), "wall")
            } else {
                (base_estimate / estimate_ms.max(1e-9), "estimate")
            };
            println!(
                "{:>12} {:>7} {:>9.1} ms {:>10.1} ms {:>7.1} ms {:>7.1} ms {:>8.2}x {:>9}",
                events, s, wall, estimate_ms, slowest_ms, merge_ms, speedup, speedup_kind
            );
            points.push(Point {
                target,
                events,
                file_bytes,
                shards: s,
                wall_ms: wall,
                estimate_ms,
                plan_ms,
                hash_ms: ms(timing.hash_nanos),
                hash_total_ms: ms(timing.hash_total_nanos),
                slowest_shard_ms: slowest_ms,
                merge_ms,
                speedup,
                speedup_kind,
            });
        }
        std::fs::remove_file(&path).ok();
    }

    // Acceptance: >=2.5x at 4 shards for the largest size — measured wall
    // time where the cores to realize it exist, the estimate elsewhere.
    let largest = points.iter().map(|p| p.target).max().unwrap_or(0);
    let at4 = points
        .iter()
        .find(|p| p.target == largest && p.shards == 4)
        .expect("4-shard point");
    assert!(
        at4.speedup >= REQUIRED_SPEEDUP_AT_4,
        "{} speedup at 4 shards must be >= {REQUIRED_SPEEDUP_AT_4}x (got {:.2}x at {} events)",
        at4.speedup_kind,
        at4.speedup,
        at4.events
    );

    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"bench\":\"ingest_sharded\",\"target_events\":{},\"events\":{},\
                 \"file_bytes\":{},\"shards\":{},\"cores\":{},\"wall_ms\":{:.3},\
                 \"estimate_ms\":{:.3},\"plan_ms\":{:.3},\"hash_ms\":{:.3},\
                 \"hash_total_ms\":{:.3},\"slowest_shard_ms\":{:.3},\"merge_ms\":{:.3},\
                 \"speedup\":{:.3},\"speedup_kind\":\"{}\"}}",
                p.target,
                p.events,
                p.file_bytes,
                p.shards,
                cores,
                p.wall_ms,
                p.estimate_ms,
                p.plan_ms,
                p.hash_ms,
                p.hash_total_ms,
                p.slowest_shard_ms,
                p.merge_ms,
                p.speedup,
                p.speedup_kind,
            )
        })
        .collect();
    for e in &entries {
        println!("BENCH {e}");
    }
    let json_path = std::env::var("BENCH_SHARD_JSON").unwrap_or_else(|_| "BENCH_shard.json".into());
    let json = format!("[\n  {}\n]\n", entries.join(",\n  "));
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("could not write {json_path}: {e}");
    } else {
        println!("wrote {json_path}");
    }
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
