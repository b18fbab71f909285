//! Cold vs. warm `AnalysisSession` latency over |T| ∈ {64, 256, 1024}:
//! the measured version of the §V.B economy. For each slice count the
//! bench runs, against one artifact directory,
//!
//! 1. `aggregate` cold — build prefix sums + backend + one DP, artifacts
//!    stored;
//! 2. `aggregate` warm — same query from a fresh session: `.ocube` +
//!    `.opart` hit, zero DP;
//! 3. `sweep` on the warm cube — the significant-levels dichotomy with
//!    only DP re-runs (trace/model/prefix stages all skipped);
//! 4. `sweep` fully warm — the `.opart` answers with zero DP.
//!
//! Each case emits one `BENCH {...}` json point for downstream tooling.
//! The heaviest stages (DP at |T| = 1024) are skipped above 256 slices,
//! mirroring `memory_backends`.

use criterion::{criterion_group, criterion_main, Criterion};
use ocelotl::core::{AnalysisSession, Metric, OwnedSource, SessionConfig};
use ocelotl::format::{hash_trace, DiskStore};
use ocelotl::mpisim::{scenario, CaseId};
use ocelotl::prelude::*;
use std::time::Instant;

const SLICE_COUNTS: [usize; 3] = [64, 256, 1024];

fn store_dir(slices: usize) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "ocelotl-bench-session-{}-{slices}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn session(model: &MicroModel, fp: u64, slices: usize, dir: &std::path::Path) -> AnalysisSession {
    AnalysisSession::new(
        OwnedSource::new(model.clone(), fp),
        SessionConfig {
            n_slices: slices,
            metric: Metric::States,
            ..SessionConfig::default()
        },
    )
    .with_store(DiskStore::new(dir, "case_a"))
}

fn bench_session_warm(_c: &mut Criterion) {
    // Table II case A (64 ranks) at laptop scale — the same workload the
    // memory_backends bench uses, so numbers compose.
    let (trace, _) = scenario(CaseId::A, 0.01).run(42);
    let fp = hash_trace(&trace).expect("fingerprint");

    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>14} {:>14}",
        "|T|", "cold agg", "warm agg", "speedup", "sweep (DP)", "sweep (warm)"
    );
    for slices in SLICE_COUNTS {
        let model = MicroModel::from_trace(&trace, slices).unwrap();
        let dir = store_dir(slices);

        // 1. Cold aggregate: full pipeline + artifact store.
        let t = Instant::now();
        let cold = session(&model, fp, slices, &dir);
        let cold_part = cold.partition_at(0.5, false).unwrap();
        let cold_agg = t.elapsed();

        // 2. Warm aggregate: fresh session over the stored artifacts.
        let t = Instant::now();
        let warm = session(&model, fp, slices, &dir);
        let warm_part = warm.partition_at(0.5, false).unwrap();
        let warm_agg = t.elapsed();
        assert_eq!(cold_part, warm_part, "warm must be bit-identical");
        assert_eq!(warm.dp_runs(), 0, "warm aggregate must run zero DP");

        // 3./4. The sweep: DP-only re-runs on a warm cube, then fully
        // warm from `.opart`. The dichotomy at |T| = 1024 is DP-bound
        // either way; skip it there to keep the bench laptop-runnable.
        let (sweep_dp, sweep_warm) = if slices <= 256 {
            let t = Instant::now();
            let s = session(&model, fp, slices, &dir);
            let levels = s.significant(1e-2).unwrap();
            let sweep_dp = t.elapsed();
            assert!(s.dp_runs() > 0, "cold sweep must run the dichotomy");

            let t = Instant::now();
            let s = session(&model, fp, slices, &dir);
            let warm_levels = s.significant(1e-2).unwrap();
            let sweep_warm = t.elapsed();
            assert_eq!(s.dp_runs(), 0, "warm sweep must run zero DP");
            assert_eq!(levels.len(), warm_levels.len());
            (Some(sweep_dp), Some(sweep_warm))
        } else {
            (None, None)
        };

        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let fmt_opt = |d: Option<std::time::Duration>| {
            d.map(|d| format!("{:.2} ms", ms(d)))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>8} {:>11.2} ms {:>11.2} ms {:>9.1}x {:>14} {:>14}",
            slices,
            ms(cold_agg),
            ms(warm_agg),
            ms(cold_agg) / ms(warm_agg).max(1e-9),
            fmt_opt(sweep_dp),
            fmt_opt(sweep_warm),
        );
        println!(
            "BENCH {{\"bench\":\"session_warm\",\"slices\":{slices},\
             \"cold_aggregate_ms\":{:.3},\"warm_aggregate_ms\":{:.3},\
             \"speedup\":{:.2},\"sweep_dp_ms\":{},\"sweep_warm_ms\":{}}}",
            ms(cold_agg),
            ms(warm_agg),
            ms(cold_agg) / ms(warm_agg).max(1e-9),
            sweep_dp
                .map(|d| format!("{:.3}", ms(d)))
                .unwrap_or_else(|| "null".into()),
            sweep_warm
                .map(|d| format!("{:.3}", ms(d)))
                .unwrap_or_else(|| "null".into()),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

criterion_group!(benches, bench_session_warm);
criterion_main!(benches);
