//! Subscribed refresh vs re-ingestion: the economy of live ingestion.
//!
//! A watcher following a running trace can be served two ways: append the
//! new batch into the resident live session and re-answer (what
//! `subscribe` does), or re-ingest everything seen so far and answer
//! fresh (what a client without the live path would script). Both yield
//! bit-identical replies — the bench pins how much cheaper the first is.
//!
//! For each target event count (default 10⁶; override with
//! `OCELOTL_LIVE_EVENTS=100000,1000000`) the bench
//!
//! 1. runs a Table II case-A simulation twice with one seed (the engine
//!    is deterministic): once streamed to a `.btf` file — the trace a
//!    non-live client would re-read — and once in memory, collecting
//!    the event stream and its extent (as `simulate --live`'s scan
//!    pass does);
//! 2. publishes an empty live session and feeds every batch through
//!    `LiveFeeder::feed`, answering an `aggregate` after each refresh —
//!    the steady-state subscription loop — and times every refresh;
//! 3. reports the **final refresh** (the median of the last five) and
//!    the median and p95 of **every refresh after the first**. The last
//!    batches touch only the last slice, the cheapest band for a refresh
//!    that recomputes what its batch touched, so the final figure alone
//!    would flatter it;
//! 4. times the **re-ingest**: one full disk pass (`read_hi_res`) over
//!    the written trace plus the same request on the fresh model,
//!    checking the two replies are equal.
//!
//! The acceptance bar: at ≥10⁶ events the final refresh is ≥10× cheaper
//! than the re-ingest. Each row records `available_parallelism`. Results
//! go to stdout (`BENCH {...}` lines) and to `BENCH_live.json` (path
//! override: `BENCH_LIVE_JSON`).

use criterion::{criterion_group, criterion_main, Criterion};
use ocelotl::core::query::{AnalysisRequest, QueryEngine};
use ocelotl::core::{hi_res_slices, AnalysisSession, HiResModel, LiveEvent, SessionConfig};
use ocelotl::format::read_hi_res;
use ocelotl::mpisim::{scenario_with_events, CaseId, Engine};
use ocelotl::prelude::*;
use ocelotl::trace::{MicroBuilder, TimeGrid};
use ocelotl_bench::scratch;
use ocelotl_cli::commands::serve::{ServeOptions, ServerState};
use std::time::Instant;

const N_SLICES: usize = 30;
const BATCH: usize = 4096;

fn sizes() -> Vec<u64> {
    match std::env::var("OCELOTL_LIVE_EVENTS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1_000_000],
    }
}

fn request() -> AnalysisRequest {
    AnalysisRequest::Aggregate {
        p: 0.5,
        coarse: false,
        compare: false,
        diff_p: None,
    }
}

/// The `q`-quantile of sorted durations, in milliseconds (nearest rank).
fn quantile_ms(sorted: &[std::time::Duration], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

fn bench_live_refresh(_c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("available_parallelism: {cores}");
    let mut entries = Vec::new();
    println!(
        "{:>12} {:>12} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "target",
        "events",
        "refreshes",
        "refresh",
        "steady p50",
        "steady p95",
        "re-ingest",
        "speedup"
    );
    for target in sizes() {
        let sc = scenario_with_events(CaseId::A, target);

        // The trace a non-live client would re-read, and the same event
        // stream in memory (same seed, identical sequence).
        let path = scratch(&format!("live_refresh_{target}.btf"));
        sc.run_to_file(&path, 42).expect("streamed generation");
        let mut events: Vec<LiveEvent> = Vec::new();
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        sc.run_with_emit(42, &mut |rank, sid, b, e| {
            t_min = t_min.min(b);
            t_max = t_max.max(e);
            events.push((LeafId(rank), sid, b, e));
        });
        assert!(t_max > t_min, "simulation emitted no intervals");

        // The live session, declared exactly as `simulate --live` does.
        let (registry, _) = Engine::standard_states();
        let hierarchy = sc.platform.hierarchy();
        let h = hi_res_slices(N_SLICES, hierarchy.n_leaves(), registry.len());
        let grid = TimeGrid::new(t_min, t_max, h);
        let config = SessionConfig {
            n_slices: N_SLICES,
            ..SessionConfig::default()
        };
        let empty = MicroBuilder::new(hierarchy.clone(), registry.clone(), grid).finish();
        let session = AnalysisSession::live(config, HiResModel::new(config.metric, empty))
            .expect("live session");
        let state = ServerState::new(ServeOptions::default());
        let feeder = state.publish_live("live", QueryEngine::new(session));

        // Steady state: feed batch, re-answer — exactly the subscription
        // loop, every refresh timed. The final figure is the median of
        // the last few, so one scheduler hiccup can't skew the bar.
        const TIMED: usize = 5;
        let batches: Vec<&[LiveEvent]> = events.chunks(BATCH).collect();
        let mut live_reply = None;
        let mut timings = Vec::with_capacity(batches.len());
        for chunk in &batches {
            let t0 = Instant::now();
            feeder.feed(chunk).expect("feed");
            let reply = feeder
                .with_engine(|e| e.execute_shared(&request()))
                .expect("engine lock")
                .expect("prepared")
                .expect("aggregate reply");
            timings.push(t0.elapsed());
            live_reply = Some(reply);
        }
        feeder.finish();
        let mut last = timings[timings.len().saturating_sub(TIMED)..].to_vec();
        last.sort();
        let refresh = last[last.len() / 2];
        let mut steady = timings[1.min(timings.len() - 1)..].to_vec();
        steady.sort();
        let (steady_p50_ms, steady_p95_ms) =
            (quantile_ms(&steady, 0.5), quantile_ms(&steady, 0.95));
        let live_reply = live_reply.expect("at least one refresh");

        // What the same answer costs without the live path: re-ingest
        // the trace written so far (a full disk pass) and answer fresh.
        let t1 = Instant::now();
        let report = read_hi_res(&path, N_SLICES, config.metric.model_kind()).expect("re-ingest");
        let n_events = report.events();
        let session = AnalysisSession::live(config, HiResModel::new(config.metric, report.model))
            .expect("fresh session");
        let fresh_reply = QueryEngine::new(session)
            .execute(&request())
            .expect("aggregate reply");
        let reingest = t1.elapsed();
        std::fs::remove_file(&path).ok();

        assert_eq!(
            live_reply, fresh_reply,
            "live refresh must answer identically to re-ingestion"
        );

        let refreshes = (events.len() as u64).div_ceil(BATCH as u64);
        let speedup = reingest.as_secs_f64() / refresh.as_secs_f64().max(1e-9);
        println!(
            "{:>12} {:>12} {:>10} {:>9.2} ms {:>9.2} ms {:>9.2} ms {:>9.1} ms {:>9.1}x",
            target,
            n_events,
            refreshes,
            refresh.as_secs_f64() * 1e3,
            steady_p50_ms,
            steady_p95_ms,
            reingest.as_secs_f64() * 1e3,
            speedup,
        );
        // The row is printed before the bar is checked, so a run that
        // misses it still reports its figures.
        let entry = format!(
            "{{\"bench\":\"live_refresh\",\"target_events\":{target},\"events\":{n_events},\
             \"refreshes\":{refreshes},\"batch\":{BATCH},\"available_parallelism\":{cores},\
             \"refresh_ms\":{:.3},\"steady_p50_ms\":{steady_p50_ms:.3},\
             \"steady_p95_ms\":{steady_p95_ms:.3},\"reingest_ms\":{:.3},\"speedup\":{speedup:.2}}}",
            refresh.as_secs_f64() * 1e3,
            reingest.as_secs_f64() * 1e3,
        );
        println!("BENCH {entry}");
        if target >= 1_000_000 {
            assert!(
                speedup >= 10.0,
                "a subscribed refresh must be >=10x cheaper than re-ingesting \
                 at >=1e6 events (got {speedup:.1}x)"
            );
        }
        entries.push(entry);
    }

    let json_path = std::env::var("BENCH_LIVE_JSON").unwrap_or_else(|_| "BENCH_live.json".into());
    let json = format!("[\n  {}\n]\n", entries.join(",\n  "));
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("could not write {json_path}: {e}");
    } else {
        println!("wrote {json_path}");
    }
}

criterion_group!(benches, bench_live_refresh);
criterion_main!(benches);
