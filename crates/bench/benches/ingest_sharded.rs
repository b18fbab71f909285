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
//! 3. checks every configuration agrees with the 1-shard ingest (model
//!    mass — full bit-identity is pinned by `tests/shard_equivalence.rs`);
//! 4. emits one `BENCH {...}` line per (size, shards) point plus a
//!    machine-readable `BENCH_shard.json` (path override:
//!    `BENCH_SHARD_JSON`) for CI artifacts.
//!
//! Every ingest runs one decode task per shard on one pool (an ingest
//! does not hash). The **estimate** replays the one-thread task times on
//! `s` workers the way the pool hands them out (each next task to the
//! first idle worker) and adds planning and merging:
//! `plan + makespan(decode units) + merge`. A schedule on `s` workers
//! cannot finish before total work / `s`, so the estimated speedup over
//! the 1-shard baseline stays within `s`× unless sharding shrinks the work
//! itself.
//!
//! Each row reports one speedup, labelled by how it was obtained: `wall`
//! (elapsed time vs the 1-shard ingest) when the machine has at least as
//! many cores as shards, `estimate` otherwise. Asserted: ≥2.5× at 4
//! shards on the largest size.
//!
//! `read_model` is a path no session takes: a session ingests the hi-res
//! grid (`read_hi_res`) and rebins it. So each size also gets one
//! `"route":"read_hi_res"` row per shard count — wall time on a pool of
//! `s` threads (best of three), the slowest unit, the merge (which
//! includes assembling the model) and the core count.

use criterion::{criterion_group, criterion_main, Criterion};
use ocelotl::format::{
    read_hi_res_with, read_model_with, take_last_ingest_timing, IngestOptions, ShardMode,
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

/// One `read_hi_res` ingest at a forced shard count.
struct HiResPoint {
    target: u64,
    events: u64,
    shards: usize,
    hi_res_slices: usize,
    wall_ms: f64,
    slowest_shard_ms: f64,
    merge_ms: f64,
}

struct Point {
    target: u64,
    events: u64,
    file_bytes: u64,
    shards: usize,
    wall_ms: f64,
    estimate_ms: f64,
    plan_ms: f64,
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
    let mut hi_res_points: Vec<HiResPoint> = Vec::new();
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
        let opts = |shards: usize, workers: usize| IngestOptions {
            shards: ShardMode::Fixed(shards),
            max_workers: workers,
            predicate: None,
        };
        let ingest = |shards: usize, workers: usize| {
            read_model_with(&path, SLICES, ModelKind::States, &opts(shards, workers))
                .expect("sharded ingest")
        };

        // (wall, estimate, mass bits) of the 1-shard ingest.
        let mut baseline: Option<(f64, f64, u64)> = None;
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
                serial.model.grand_total().to_bits(),
                report.model.grand_total().to_bits(),
                "worker count must not change the output"
            );

            let ms = |nanos: u64| nanos as f64 / 1e6;
            let tasks = timing.shard_nanos.iter().map(|&t| ms(t));
            let (plan_ms, merge_ms) = (ms(timing.plan_nanos), ms(timing.merge_nanos));
            let estimate_ms = plan_ms + makespan(tasks, s) + merge_ms;
            let slowest_ms = ms(timing.shard_nanos.iter().copied().max().unwrap_or(0));

            let events = report.events();
            let mass = report.model.grand_total();
            let (base_wall, base_estimate) = match &baseline {
                None => {
                    baseline = Some((wall, estimate_ms, mass.to_bits()));
                    (wall, estimate_ms)
                }
                Some((w, e, mass_bits)) => {
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
                slowest_shard_ms: slowest_ms,
                merge_ms,
                speedup,
                speedup_kind,
            });
        }

        // The session's path: the hi-res grid, merged shard by shard.
        for &s in &SHARD_COUNTS {
            let mut best: Option<HiResPoint> = None;
            for _ in 0..3 {
                let _ = take_last_ingest_timing();
                let t0 = Instant::now();
                let report = read_hi_res_with(&path, SLICES, ModelKind::States, &opts(s, s))
                    .expect("hi-res ingest");
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                let timing = take_last_ingest_timing().expect("ingest records timing");
                let ms = |nanos: u64| nanos as f64 / 1e6;
                let point = HiResPoint {
                    target,
                    events: report.events(),
                    shards: s,
                    hi_res_slices: report.model.n_slices(),
                    wall_ms,
                    slowest_shard_ms: ms(timing.shard_nanos.iter().copied().max().unwrap_or(0)),
                    merge_ms: ms(timing.merge_nanos),
                };
                if best.as_ref().is_none_or(|b| point.wall_ms < b.wall_ms) {
                    best = Some(point);
                }
            }
            let p = best.expect("three runs");
            println!(
                "{:>12} {:>7} {:>9.1} ms {:>13} {:>7.1} ms {:>7.1} ms  read_hi_res (H = {})",
                p.events, s, p.wall_ms, "", p.slowest_shard_ms, p.merge_ms, p.hi_res_slices
            );
            hi_res_points.push(p);
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

    let hi_res_entries = hi_res_points.iter().map(|p| {
        format!(
            "{{\"bench\":\"ingest_sharded\",\"route\":\"read_hi_res\",\"target_events\":{},\
             \"events\":{},\"shards\":{},\"cores\":{},\"hi_res_slices\":{},\"wall_ms\":{:.3},\
             \"slowest_shard_ms\":{:.3},\"merge_ms\":{:.3}}}",
            p.target,
            p.events,
            p.shards,
            cores,
            p.hi_res_slices,
            p.wall_ms,
            p.slowest_shard_ms,
            p.merge_ms,
        )
    });
    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"bench\":\"ingest_sharded\",\"target_events\":{},\"events\":{},\
                 \"file_bytes\":{},\"shards\":{},\"cores\":{},\"wall_ms\":{:.3},\
                 \"estimate_ms\":{:.3},\"plan_ms\":{:.3},\"slowest_shard_ms\":{:.3},\
                 \"merge_ms\":{:.3},\
                 \"speedup\":{:.3},\"speedup_kind\":\"{}\"}}",
                p.target,
                p.events,
                p.file_bytes,
                p.shards,
                cores,
                p.wall_ms,
                p.estimate_ms,
                p.plan_ms,
                p.slowest_shard_ms,
                p.merge_ms,
                p.speedup,
                p.speedup_kind,
            )
        })
        .chain(hi_res_entries)
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
