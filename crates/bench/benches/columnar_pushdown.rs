//! Columnar pushdown payoff: windowed ingest cost on a chunk-indexed
//! `.octf` trace vs the same query on a full-pass row format.
//!
//! For each target event count (default 10⁶ and 10⁷; override with
//! `OCELOTL_COLUMNAR_EVENTS=1000000,10000000`) the bench
//!
//! 1. generates a Table II case-A trace with the streamed `mpisim`
//!    writer and converts it to `.ptf` (the text baseline) and `.octf`
//!    (default chunking);
//! 2. ingests both fully, checking the models carry the same mass
//!    bit-for-bit (full equivalence is pinned by
//!    `tests/columnar_equivalence.rs`);
//! 3. re-ingests both restricted to the middle sixteenth of the time
//!    range: the row format scans everything and filters sink-side,
//!    the columnar file skips every non-overlapping chunk;
//! 4. emits one `BENCH {...}` line per (size, route) point plus a
//!    machine-readable `BENCH_columnar.json` (path override:
//!    `BENCH_COLUMNAR_JSON`) for CI artifacts.
//!
//! Acceptance, asserted at the 10⁷-event preset (sizes below that only
//! report): the windowed `.octf` ingest reads ≥5× fewer bytes (each
//! report's `bytes_read`: the ingest's own reads) and runs
//! ≥3× faster than the windowed full-pass `.ptf` ingest, and the
//! full-trace `.octf` ingest stays within 1.5× of the full `.ptf` one.

use criterion::{criterion_group, criterion_main, Criterion};
use ocelotl::format::{
    read_model, read_model_with, read_trace, write_columnar_chunked, write_trace, IngestMode,
    IngestOptions, IngestReport, Predicate,
};
use ocelotl::mpisim::{scenario_with_events, CaseId};
use ocelotl::trace::ModelKind;
use ocelotl_bench::scratch;
use std::path::Path;
use std::time::Instant;

const SLICES: usize = 30;
/// The window is this fraction of the trace's time range (its middle
/// sixteenth), matching the acceptance criterion.
const WINDOW_DENOM: u64 = 16;
const ASSERT_AT_EVENTS: u64 = 10_000_000;
const REQUIRED_BYTES_RATIO: f64 = 5.0;
const REQUIRED_WINDOW_SPEEDUP: f64 = 3.0;
const MAX_FULL_SLOWDOWN: f64 = 1.5;

fn sizes() -> Vec<u64> {
    match std::env::var("OCELOTL_COLUMNAR_EVENTS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1_000_000, 10_000_000],
    }
}

/// Best-of-2 timed ingest (single-shot clocks of millisecond work are
/// dominated by allocator and page-cache noise).
fn timed<F: Fn() -> IngestReport>(run: F) -> (f64, IngestReport) {
    let t0 = Instant::now();
    let first = run();
    let a = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let _second = run();
    let b = t0.elapsed().as_secs_f64() * 1e3;
    (a.min(b), first)
}

struct Point {
    target: u64,
    events: u64,
    ptf_bytes: u64,
    octf_bytes: u64,
    chunks_total: u64,
    chunks_read: u64,
    full_ptf_ms: f64,
    full_octf_ms: f64,
    win_ptf_ms: f64,
    win_octf_ms: f64,
    win_ptf_bytes: u64,
    win_octf_bytes: u64,
    bytes_ratio: f64,
    window_speedup: f64,
    full_ratio: f64,
    asserted: bool,
}

fn ingest_full(path: &Path) -> IngestReport {
    read_model(path, SLICES, ModelKind::States).expect("full ingest")
}

fn ingest_window(path: &Path, window: (f64, f64)) -> IngestReport {
    read_model_with(
        path,
        SLICES,
        ModelKind::States,
        &IngestOptions {
            predicate: Some(Predicate {
                time_range: Some(window),
                resources: None,
            }),
            ..IngestOptions::default()
        },
    )
    .expect("windowed ingest")
}

fn bench_pushdown(_c: &mut Criterion) {
    let mut points: Vec<Point> = Vec::new();
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9} {:>8}",
        "events", "full ptf", "full octf", "win ptf", "win octf", "bytes x", "win x", "chunks"
    );
    for target in sizes() {
        let btf = scratch(&format!("columnar_{target}.btf"));
        scenario_with_events(CaseId::A, target)
            .run_to_file(&btf, 42)
            .expect("streamed generation");
        let ptf = scratch(&format!("columnar_{target}.ptf"));
        let octf = scratch(&format!("columnar_{target}.octf"));
        let window = {
            let trace = read_trace(&btf).expect("materialize for conversion");
            write_trace(&trace, &ptf).expect("ptf baseline");
            let mut w = std::io::BufWriter::new(std::fs::File::create(&octf).expect("octf create"));
            write_columnar_chunked(&trace, &mut w, ocelotl::format::DEFAULT_CHUNK_RECORDS)
                .expect("octf conversion");
            use std::io::Write as _;
            w.flush().expect("octf flush");
            let (lo, hi) = trace.time_range().expect("non-empty trace");
            let w = (hi - lo) / WINDOW_DENOM as f64;
            let mid = lo + (hi - lo) / 2.0;
            (mid - w / 2.0, mid + w / 2.0)
        };
        std::fs::remove_file(&btf).ok();
        let ptf_bytes = std::fs::metadata(&ptf).map(|m| m.len()).unwrap_or(0);
        let octf_bytes = std::fs::metadata(&octf).map(|m| m.len()).unwrap_or(0);

        let (full_ptf_ms, full_ptf) = timed(|| ingest_full(&ptf));
        let (full_octf_ms, full_octf) = timed(|| ingest_full(&octf));
        assert_eq!(
            full_octf.model.grand_total().to_bits(),
            full_ptf.model.grand_total().to_bits(),
            "octf and ptf must build the same model"
        );
        let (win_ptf_ms, win_ptf) = timed(|| ingest_window(&ptf, window));
        let (win_octf_ms, win_octf) = timed(|| ingest_window(&octf, window));
        assert_eq!(win_octf.mode, IngestMode::Pushdown);
        assert_eq!(
            win_octf.model.grand_total().to_bits(),
            win_ptf.model.grand_total().to_bits(),
            "pushdown must not change the windowed model"
        );
        assert!(
            win_octf.chunks_read < win_octf.chunks_total,
            "the {WINDOW_DENOM}th-window must skip chunks (read {} of {})",
            win_octf.chunks_read,
            win_octf.chunks_total
        );

        let bytes_ratio = win_ptf.bytes_read as f64 / win_octf.bytes_read.max(1) as f64;
        let window_speedup = win_ptf_ms / win_octf_ms.max(1e-9);
        let full_ratio = full_octf_ms / full_ptf_ms.max(1e-9);
        let asserted = target >= ASSERT_AT_EVENTS;
        println!(
            "{:>12} {:>9.1} ms {:>9.1} ms {:>9.1} ms {:>9.1} ms {:>8.1}x {:>8.2}x {:>3}/{:<4}",
            full_ptf.events(),
            full_ptf_ms,
            full_octf_ms,
            win_ptf_ms,
            win_octf_ms,
            bytes_ratio,
            window_speedup,
            win_octf.chunks_read,
            win_octf.chunks_total,
        );
        if asserted {
            assert!(
                bytes_ratio >= REQUIRED_BYTES_RATIO,
                "pushdown must read >= {REQUIRED_BYTES_RATIO}x fewer bytes \
                 (got {bytes_ratio:.2}x at {target} events)"
            );
            assert!(
                window_speedup >= REQUIRED_WINDOW_SPEEDUP,
                "windowed pushdown must be >= {REQUIRED_WINDOW_SPEEDUP}x faster than a \
                 full-pass .ptf ingest (got {window_speedup:.2}x at {target} events)"
            );
            assert!(
                full_ratio <= MAX_FULL_SLOWDOWN,
                "full-trace .octf ingest must stay within {MAX_FULL_SLOWDOWN}x of .ptf \
                 (got {full_ratio:.2}x at {target} events)"
            );
        }
        points.push(Point {
            target,
            events: full_ptf.events(),
            ptf_bytes,
            octf_bytes,
            chunks_total: win_octf.chunks_total,
            chunks_read: win_octf.chunks_read,
            full_ptf_ms,
            full_octf_ms,
            win_ptf_ms,
            win_octf_ms,
            win_ptf_bytes: win_ptf.bytes_read,
            win_octf_bytes: win_octf.bytes_read,
            bytes_ratio,
            window_speedup,
            full_ratio,
            asserted,
        });
        std::fs::remove_file(&ptf).ok();
        std::fs::remove_file(&octf).ok();
    }

    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"bench\":\"columnar_pushdown\",\"target_events\":{},\"events\":{},\
                 \"ptf_bytes\":{},\"octf_bytes\":{},\"window_denom\":{},\
                 \"chunks_total\":{},\"chunks_read\":{},\"full_ptf_ms\":{:.3},\
                 \"full_octf_ms\":{:.3},\"win_ptf_ms\":{:.3},\"win_octf_ms\":{:.3},\
                 \"win_ptf_bytes\":{},\"win_octf_bytes\":{},\"bytes_ratio\":{:.3},\
                 \"window_speedup\":{:.3},\"full_ratio\":{:.3},\"asserted\":{}}}",
                p.target,
                p.events,
                p.ptf_bytes,
                p.octf_bytes,
                WINDOW_DENOM,
                p.chunks_total,
                p.chunks_read,
                p.full_ptf_ms,
                p.full_octf_ms,
                p.win_ptf_ms,
                p.win_octf_ms,
                p.win_ptf_bytes,
                p.win_octf_bytes,
                p.bytes_ratio,
                p.window_speedup,
                p.full_ratio,
                p.asserted,
            )
        })
        .collect();
    for e in &entries {
        println!("BENCH {e}");
    }
    let json_path =
        std::env::var("BENCH_COLUMNAR_JSON").unwrap_or_else(|_| "BENCH_columnar.json".into());
    let json = format!("[\n  {}\n]\n", entries.join(",\n  "));
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("could not write {json_path}: {e}");
    } else {
        println!("wrote {json_path}");
    }
}

criterion_group!(benches, bench_pushdown);
criterion_main!(benches);
