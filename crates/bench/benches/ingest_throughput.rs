//! Materialized vs streaming ingestion at scale: events/s and peak ingest
//! bytes for the cold `trace file → MicroModel` path.
//!
//! For each target event count (default 10⁵ and 10⁶; set
//! `OCELOTL_INGEST_EVENTS=100000,1000000,10000000` to change, the 10⁷
//! point being the paper-scale regime) the bench
//!
//! 1. generates a Table II case-A trace of that size with the streamed
//!    `mpisim` writer (`run_to_file`, never holding the event list);
//! 2. ingests it **materialized**: `read_trace` (O(|events|) memory) then
//!    `MicroModel::from_trace`;
//! 3. ingests it **streaming**: `read_model` (O(model) memory, one pass);
//! 4. checks the two models agree and emits one `BENCH {...}` line per
//!    size, plus a machine-readable `BENCH_ingest.json` (path override:
//!    `BENCH_INGEST_JSON`) for CI artifacts.
//!
//! Peak ingest bytes are accounted analytically: the materialized path
//! holds every `StateInterval`/`PointEvent` plus the model; the streaming
//! path holds the model plus one bounded record buffer (the
//! `ModelSink::peak_bytes` figure). The acceptance bar is a ≥10× reduction
//! at ≥10⁶ events.

use criterion::{criterion_group, criterion_main, Criterion};
use ocelotl::format::{read_model, read_trace};
use ocelotl::mpisim::{scenario_with_events, CaseId};
use ocelotl::prelude::*;
use ocelotl::trace::{ModelKind, PointEvent, StateInterval};
use ocelotl_bench::scratch;
use std::time::Instant;

const SLICES: usize = 30;

fn sizes() -> Vec<u64> {
    match std::env::var("OCELOTL_INGEST_EVENTS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![100_000, 1_000_000],
    }
}

fn model_bytes(m: &MicroModel) -> u64 {
    (m.n_leaves() * m.n_states() * m.n_slices() * std::mem::size_of::<f64>()) as u64
}

struct Point {
    target: u64,
    events: u64,
    file_bytes: u64,
    materialized_ms: f64,
    materialized_peak: u64,
    streaming_ms: f64,
    streaming_peak: u64,
    mode: &'static str,
}

fn bench_ingest(_c: &mut Criterion) {
    let mut points = Vec::new();
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>12} {:>14} {:>14} {:>8}",
        "target",
        "events",
        "mat time",
        "mat peak",
        "stream time",
        "stream peak",
        "events/s",
        "mem x"
    );
    for target in sizes() {
        let sc = scenario_with_events(CaseId::A, target);
        let path = scratch(&format!("ingest_{target}.btf"));
        sc.run_to_file(&path, 42).expect("streamed generation");
        let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

        // Materialized: full Trace, then batch slicing.
        let t0 = Instant::now();
        let trace = read_trace(&path).expect("read trace");
        let mat_model = MicroModel::from_trace(&trace, SLICES).expect("model");
        let materialized = t0.elapsed();
        let events = trace.event_count() as u64;
        let materialized_peak = trace.intervals.len() as u64
            * std::mem::size_of::<StateInterval>() as u64
            + trace.points.len() as u64 * std::mem::size_of::<PointEvent>() as u64
            + model_bytes(&mat_model);

        // Streaming: the model in one pass, O(model) memory.
        let t0 = Instant::now();
        let report = read_model(&path, SLICES, ModelKind::States).expect("streaming ingest");
        let streaming = t0.elapsed();
        let streaming_peak = report.peak_bytes + model_bytes(&report.model);
        assert_eq!(report.events(), events, "streaming must see every event");

        // The two paths must agree (bit-identical below the batch
        // builder's parallel threshold, numerically tight above it).
        assert_eq!(report.model.n_states(), mat_model.n_states());
        let (a, b) = (report.model.grand_total(), mat_model.grand_total());
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "streaming {a} vs materialized {b}"
        );

        let ev_s = events as f64 / streaming.as_secs_f64();
        let mem_x = materialized_peak as f64 / streaming_peak.max(1) as f64;
        println!(
            "{:>12} {:>12} {:>11.1} ms {:>14} {:>9.1} ms {:>14} {:>14.0} {:>7.1}x",
            target,
            events,
            materialized.as_secs_f64() * 1e3,
            ocelotl_bench::fmt_bytes(materialized_peak),
            streaming.as_secs_f64() * 1e3,
            ocelotl_bench::fmt_bytes(streaming_peak),
            ev_s,
            mem_x,
        );
        points.push(Point {
            target,
            events,
            file_bytes,
            materialized_ms: materialized.as_secs_f64() * 1e3,
            materialized_peak,
            streaming_ms: streaming.as_secs_f64() * 1e3,
            streaming_peak,
            mode: report.mode.tag(),
        });
        if events >= 1_000_000 {
            assert!(
                mem_x >= 10.0,
                "peak ingest memory must drop ≥10x at ≥1e6 events (got {mem_x:.1}x)"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"bench\":\"ingest_throughput\",\"target_events\":{},\"events\":{},\
                 \"file_bytes\":{},\"materialized_ms\":{:.3},\"materialized_peak_bytes\":{},\
                 \"streaming_ms\":{:.3},\"streaming_peak_bytes\":{},\
                 \"streaming_events_per_s\":{:.0},\"peak_reduction\":{:.2},\"ingest_mode\":\"{}\"}}",
                p.target,
                p.events,
                p.file_bytes,
                p.materialized_ms,
                p.materialized_peak,
                p.streaming_ms,
                p.streaming_peak,
                p.events as f64 / (p.streaming_ms / 1e3),
                p.materialized_peak as f64 / p.streaming_peak.max(1) as f64,
                p.mode,
            )
        })
        .collect();
    for e in &entries {
        println!("BENCH {e}");
    }
    let json_path =
        std::env::var("BENCH_INGEST_JSON").unwrap_or_else(|_| "BENCH_ingest.json".into());
    let json = format!("[\n  {}\n]\n", entries.join(",\n  "));
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("could not write {json_path}: {e}");
    } else {
        println!("wrote {json_path}");
    }
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
