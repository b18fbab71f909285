//! Shared harness for the benchmarks and the `repro` binary: everything
//! needed to regenerate the paper's tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ocelotl::core::{aggregate_default, AggregationInput};
use ocelotl::format::{read_trace, write_trace, INTERVAL_RECORD_BYTES};
use ocelotl::mpisim::{scenario, CaseId, Scenario};
use ocelotl::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Number of time slices the paper uses for every scenario (§V).
pub const PAPER_SLICES: usize = 30;

/// Default scale factor for laptop-size reproduction runs.
pub const DEFAULT_SCALE: f64 = 0.01;

/// One measured row of the Table II reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Which case.
    pub case: CaseId,
    /// Scale factor used.
    pub scale: f64,
    /// Processes (equals the paper's).
    pub processes: usize,
    /// Events in the simulated trace.
    pub events: usize,
    /// Paper's event count (at scale 1).
    pub paper_events: u64,
    /// On-disk size of the generated binary trace.
    pub trace_bytes: u64,
    /// Paper's trace size (Score-P, scale 1).
    pub paper_bytes: u64,
    /// Time to parse the trace file back into memory ("Trace reading").
    pub t_reading: Duration,
    /// Time to reduce events into the 30-slice model ("Microscopic description").
    pub t_micro: Duration,
    /// Time to build gain/loss matrices + run Algorithm 1 ("Aggregation").
    pub t_aggregation: Duration,
    /// Time to re-run Algorithm 1 at a new p on cached inputs
    /// (the paper's "instantaneous interaction").
    pub t_interaction: Duration,
    /// Simulation wall time (not a paper column; for context).
    pub t_simulate: Duration,
}

/// Scratch path for generated traces.
pub fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ocelotl-bench-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("scratch dir");
    d.join(name)
}

/// Run the full Table II pipeline for one case.
pub fn table2_row(case: CaseId, scale: f64, seed: u64) -> Table2Row {
    let sc = scenario(case, scale);

    let t0 = Instant::now();
    let (trace, _stats) = sc.run(seed);
    let t_simulate = t0.elapsed();

    // Write the binary trace, then measure the paper's pipeline stages.
    let path = scratch(&format!("case_{}.btf", case.letter()));
    write_trace(&trace, &path).expect("write trace");
    let trace_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let t0 = Instant::now();
    let reread = read_trace(&path).expect("read trace");
    let t_reading = t0.elapsed();

    let t0 = Instant::now();
    let model = MicroModel::from_trace(&reread, PAPER_SLICES).expect("micro model");
    let t_micro = t0.elapsed();

    let t0 = Instant::now();
    let input = AggregationInput::build(&model);
    let _tree = aggregate_default(&input, 0.5);
    let t_aggregation = t0.elapsed();

    // Best of 5: single-shot timings of millisecond work are dominated by
    // thread-pool wake-up noise.
    let t_interaction = (0..5)
        .map(|i| {
            let t0 = Instant::now();
            let _tree = aggregate_default(&input, 0.3 + 0.1 * i as f64);
            t0.elapsed()
        })
        .min()
        .unwrap();

    std::fs::remove_file(&path).ok();
    Table2Row {
        case,
        scale,
        processes: sc.platform.n_ranks,
        events: trace.event_count(),
        paper_events: sc.paper_events,
        trace_bytes,
        paper_bytes: sc.paper_bytes,
        t_reading,
        t_micro,
        t_aggregation,
        t_interaction,
        t_simulate,
    }
}

impl Table2Row {
    /// Expected full-scale binary trace size from the fixed record layout.
    pub fn projected_full_scale_bytes(&self) -> u64 {
        (self.paper_events / 2) * INTERVAL_RECORD_BYTES as u64
    }
}

/// Build a ready-to-aggregate model for a case without the file round-trip
/// (used by the figure benches).
pub fn case_model(case: CaseId, scale: f64, seed: u64) -> (Scenario, MicroModel) {
    let sc = scenario(case, scale);
    let (trace, _) = sc.run(seed);
    let model = MicroModel::from_trace(&trace, PAPER_SLICES).expect("micro model");
    (sc, model)
}

/// Detection summary for the case A anomaly (Fig. 1).
#[derive(Debug, Clone)]
pub struct DetectionSummary {
    /// Processes whose in-window MPI_Send+MPI_Wait proportion at least
    /// doubles versus their baseline (paper reports 26).
    pub impacted: Vec<u32>,
    /// Temporal boundaries opened inside the window by the optimal
    /// partition at the probe p.
    pub window_boundaries: usize,
    /// First/last slice of the perturbation window.
    pub window_slices: (usize, usize),
}

/// Analyze a case-A style model for the perturbation in `[w0, w1]` seconds.
pub fn detect_window_anomaly(model: &MicroModel, w0: f64, w1: f64, p: f64) -> DetectionSummary {
    let grid = model.grid();
    let (s0, s1) = (grid.slice_of(w0), grid.slice_of(w1));
    let send = model.states().get("MPI_Send").expect("MPI_Send state");
    let wait = model.states().get("MPI_Wait").expect("MPI_Wait state");

    let mut impacted = Vec::new();
    for leaf in 0..model.n_leaves() {
        let l = LeafId(leaf as u32);
        let mut inw = 0.0;
        let mut out = 0.0;
        let mut outn = 0usize;
        for t in 0..model.n_slices() {
            let v = model.rho(l, send, t) + model.rho(l, wait, t);
            if (s0..=s1).contains(&t) {
                inw += v;
            } else if grid.slice_bounds(t).0 > w0 * 0.7 {
                out += v;
                outn += 1;
            }
        }
        let inw = inw / (s1 - s0 + 1) as f64;
        let out = out / outn.max(1) as f64;
        if inw > 2.0 * out && inw > 0.25 {
            impacted.push(leaf as u32);
        }
    }

    let input = AggregationInput::build(model);
    let part = aggregate_default(&input, p).partition(&input);
    let window_boundaries = part
        .areas()
        .iter()
        .filter(|a| a.first_slice > s0 && a.first_slice <= s1 + 1)
        .count();

    DetectionSummary {
        impacted,
        window_boundaries,
        window_slices: (s0, s1),
    }
}

/// One point of the perturbation-sensitivity ablation: how strongly a
/// switch-contention factor must slow messages before the aggregation
/// detects it.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// Transfer-time multiplier injected.
    pub factor: f64,
    /// Significantly impacted processes (detection metric of Fig. 1).
    pub impacted: usize,
    /// Temporal boundaries opened inside the window at the probe p.
    pub window_boundaries: usize,
}

/// Sweep the case-A perturbation factor and measure detection at each
/// point: an ablation of how strong an anomaly must be before the
/// aggregation detects it.
pub fn perturbation_sensitivity(factors: &[f64], scale: f64, seed: u64) -> Vec<SensitivityPoint> {
    use ocelotl::mpisim::{Network, Perturbation};
    factors
        .iter()
        .map(|&factor| {
            let mut sc = scenario(CaseId::A, scale);
            sc.network = Network::for_platform(&sc.platform).with_perturbation(Perturbation {
                t0: 3.0,
                t1: 3.45,
                factor,
                machines: vec![3],
            });
            let (trace, _) = sc.run(seed);
            let model = MicroModel::from_trace(&trace, PAPER_SLICES).expect("micro");
            let det = detect_window_anomaly(&model, 3.0, 3.45, 0.3);
            SensitivityPoint {
                factor,
                impacted: det.impacted.len(),
                window_boundaries: det.window_boundaries,
            }
        })
        .collect()
}

/// Human-readable duration.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_runs_at_tiny_scale() {
        let row = table2_row(CaseId::A, 0.004, 5);
        assert_eq!(row.processes, 64);
        assert!(row.events > 10_000);
        assert!(row.trace_bytes > 0);
        // The paper's headline performance claim — aggregation ≪ reading —
        // holds asymptotically (reading scales with events, aggregation
        // does not); at tiny scales we only check aggregation stays in the
        // interactive band and that cached-input interaction beats the
        // full aggregation stage.
        assert!(row.t_aggregation.as_secs_f64() < 2.0);
        assert!(row.t_interaction <= row.t_aggregation);
    }

    #[test]
    fn detection_summary_on_case_a() {
        let (_, model) = case_model(CaseId::A, 0.02, 42);
        let det = detect_window_anomaly(&model, 3.0, 3.45, 0.3);
        assert!(
            (16..=48).contains(&det.impacted.len()),
            "impacted = {} (paper: 26)",
            det.impacted.len()
        );
        assert!(det.window_boundaries > 0);
    }

    #[test]
    fn sensitivity_grows_with_factor() {
        let pts = perturbation_sensitivity(&[1.0, 30.0], 0.01, 9);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].impacted > pts[0].impacted,
            "stronger perturbation must impact more processes: {pts:?}"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(3 << 20).contains("MiB"));
        assert!(fmt_bytes(5 << 30).contains("GiB"));
        assert!(fmt_duration(Duration::from_millis(1500)).contains("s"));
        assert!(fmt_duration(Duration::from_micros(250)).contains("µs"));
    }

    #[test]
    fn projected_full_scale_size_matches_paper_magnitude() {
        let row = table2_row(CaseId::A, 0.004, 5);
        let projected = row.projected_full_scale_bytes();
        // Paper: 136.9 MB for case A; our 22-byte records give the same
        // order of magnitude (Score-P/OTF2 records are comparable).
        let ratio = projected as f64 / row.paper_bytes as f64;
        assert!((0.1..=10.0).contains(&ratio), "ratio {ratio}");
    }
}
