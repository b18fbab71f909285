//! §V.B claim: after preprocessing, changing the aggregation strength p is
//! "instantaneous". This bench times Algorithm 1 itself on cached dense
//! cubes, per run and counted, so a change to the DP kernel shows up as a
//! layer row of its own.
//!
//! Rows (each id is matched by the filter below):
//!
//! - `dp/A/T{30,60,120,240}/{sequential,parallel}`: median milliseconds of
//!   one DP at `p = 0.5` on Table II case A at scale 0.05 (64 ranks,
//!   ~198k events), with [`DpConfig::parallel`] off and on;
//! - `dp/A/T{30,60}/lazy`: one DP at `p = 0.5` on the prefix sums
//!   (`CubeCore`), what a live refresh and a cube over the dense bound run;
//! - `cube/A/T{60,240}/dense`: median milliseconds of
//!   `DenseCube::from_core`, the dense matrices built from prefix sums;
//! - `dichotomy/A/T60`: the significant-`p` dichotomy at resolution 1e-3
//!   on the same trace at 60 slices — what `pvalues --slices 60` runs —
//!   with its level count and its DP runs, counted by a cube wrapper that
//!   sees every run score the root's full interval once, and the most DP
//!   runs it saw in flight at once (`side_by_side`: a run starts when it
//!   scores the first leaf's last slice and ends at the root's full
//!   interval);
//! - `dp/C/T30/{sequential,parallel}`: one DP on a case-C-sized model
//!   (700 processes × 30 slices).
//!
//! Every row records `std::thread::available_parallelism`: a parallel row
//! is a wall-time speedup only where the box has the cores for it.
//!
//! Bare command-line words filter rows by substring, as criterion's filter
//! does: `cargo bench -p ocelotl-bench --bench interaction_latency -- T30`
//! runs the 30-slice rows only. Results go to stdout (`BENCH {...}` lines)
//! and to `BENCH_dp.json` (path override: `BENCH_DP_JSON`). The bench uses
//! only the public API, so the same file times any revision of the DP.

use criterion::{criterion_group, criterion_main, Criterion};
use ocelotl::core::{
    aggregate, significant_partitions, AggregationInput, CubeCore, DenseCube, DpConfig, QualityCube,
};
use ocelotl::mpisim::{scenario, CaseId};
use ocelotl::prelude::*;
use ocelotl::trace::{LeafId, NodeId, StateId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SEED: u64 = 1;
const P: f64 = 0.5;
const CASE_A_SCALE: f64 = 0.05;
const CASE_A_SLICES: [usize; 4] = [30, 60, 120, 240];
const CASE_C_SCALE: f64 = 0.004;
const CASE_C_SLICES: usize = 30;
const DICHOTOMY_SLICES: usize = 60;
const LAZY_SLICES: [usize; 2] = [30, 60];
const DENSE_SLICES: [usize; 2] = [60, 240];
const RESOLUTION: f64 = 1e-3;

/// A timed row takes at least this many runs, and keeps going (up to
/// `MAX_RUNS`) until `MIN_TOTAL` has passed.
const MIN_RUNS: usize = 5;
const MAX_RUNS: usize = 51;
const MIN_TOTAL: Duration = Duration::from_secs(1);
/// Timed runs of the dichotomy row (each is hundreds of DPs).
const DICHOTOMY_RUNS: usize = 3;

/// Bare command-line words (cargo passes `--bench`, which is skipped).
fn filters() -> Vec<String> {
    std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect()
}

fn wanted(filters: &[String], id: &str) -> bool {
    filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str()))
}

/// Median and minimum milliseconds of `f` over `min_runs` or more runs.
fn time_runs(min_runs: usize, mut f: impl FnMut()) -> (usize, f64, f64) {
    let started = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min_runs || (started.elapsed() < MIN_TOTAL && ms.len() < MAX_RUNS) {
        let t = Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ms.sort_by(f64::total_cmp);
    (ms.len(), ms[ms.len() / 2], ms[0])
}

/// A cube that counts DP runs: every run scores the whole-trace aggregate
/// (root node, all slices) exactly once.
struct CountingCube<'a> {
    inner: &'a AggregationInput,
    root: NodeId,
    first_leaf: NodeId,
    last: usize,
    runs: AtomicUsize,
    in_flight: AtomicUsize,
    most_in_flight: AtomicUsize,
}

impl QualityCube for CountingCube<'_> {
    fn hierarchy(&self) -> &Hierarchy {
        self.inner.hierarchy()
    }
    fn states(&self) -> &StateRegistry {
        self.inner.states()
    }
    fn n_slices(&self) -> usize {
        self.inner.n_slices()
    }
    fn slice_duration(&self) -> f64 {
        self.inner.slice_duration()
    }
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.inner.gain(node, i, j)
    }
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.inner.loss(node, i, j)
    }
    fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        if node == self.first_leaf && i == self.last && j == self.last {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.most_in_flight.fetch_max(now, Ordering::SeqCst);
        }
        if node == self.root && i == 0 && j == self.last {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        QualityCube::gain_loss(self.inner, node, i, j)
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        self.inner.rho_aggregate(node, x, i, j)
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// What every row shares: the case, the model and the box.
struct Workload {
    case: char,
    scale: f64,
    processes: usize,
    events: usize,
    slices: usize,
    cores: usize,
}

impl Workload {
    fn json_head(&self, id: &str) -> String {
        format!(
            "\"id\":\"{id}\",\"case\":\"{}\",\"scale\":{},\"processes\":{},\"events\":{},\
             \"slices\":{},\"available_parallelism\":{}",
            self.case, self.scale, self.processes, self.events, self.slices, self.cores
        )
    }
}

/// One row per DP mode: sequential, then parallel.
fn dp_rows(w: &Workload, input: &AggregationInput, filters: &[String], rows: &mut Vec<String>) {
    for (mode, parallel) in [("sequential", false), ("parallel", true)] {
        let id = format!("dp/{}/T{}/{mode}", w.case, w.slices);
        if !wanted(filters, &id) {
            continue;
        }
        let config = DpConfig {
            parallel,
            ..DpConfig::default()
        };
        let (runs, median, min) = time_runs(MIN_RUNS, || {
            std::hint::black_box(aggregate(input, P, &config));
        });
        println!("{id:<24} {median:>10.2} ms median {min:>10.2} ms min ({runs} runs)");
        rows.push(format!(
            "{{\"bench\":\"dp\",{},\"mode\":\"{mode}\",\"p\":{P},\"runs\":{runs},\
             \"median_ms\":{median:.3},\"min_ms\":{min:.3}}}",
            w.json_head(&id)
        ));
    }
}

fn dichotomy_row(
    w: &Workload,
    input: &AggregationInput,
    filters: &[String],
    rows: &mut Vec<String>,
) {
    let id = format!("dichotomy/{}/T{}", w.case, w.slices);
    if !wanted(filters, &id) {
        return;
    }
    let config = DpConfig::default();
    let counting = CountingCube {
        inner: input,
        root: input.hierarchy().root(),
        first_leaf: input.hierarchy().leaf_node(LeafId(0)),
        last: input.n_slices() - 1,
        runs: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(0),
        most_in_flight: AtomicUsize::new(0),
    };
    let levels = significant_partitions(&counting, &config, RESOLUTION).len();
    let dp_runs = counting.runs.load(Ordering::Relaxed);
    let side_by_side = counting.most_in_flight.load(Ordering::SeqCst);
    let (runs, median, min) = time_runs(DICHOTOMY_RUNS, || {
        std::hint::black_box(significant_partitions(input, &config, RESOLUTION));
    });
    println!(
        "{id:<24} {median:>10.2} ms median {min:>10.2} ms min ({runs} runs; \
         {levels} levels, {dp_runs} DP runs, {side_by_side} side by side)"
    );
    rows.push(format!(
        "{{\"bench\":\"dichotomy\",{},\"resolution\":{RESOLUTION},\"levels\":{levels},\
         \"dp_runs\":{dp_runs},\"side_by_side\":{side_by_side},\"runs\":{runs},\
         \"median_ms\":{median:.3},\"min_ms\":{min:.3}}}",
        w.json_head(&id)
    ));
}

/// One DP at `p` on the prefix sums (`T30`, `T60` only).
fn lazy_row(w: &Workload, model: &MicroModel, filters: &[String], rows: &mut Vec<String>) {
    let id = format!("dp/{}/T{}/lazy", w.case, w.slices);
    if !wanted(filters, &id) {
        return;
    }
    let core = CubeCore::build(model);
    let config = DpConfig::default();
    let (runs, median, min) = time_runs(MIN_RUNS, || {
        std::hint::black_box(aggregate(&core, P, &config));
    });
    println!("{id:<24} {median:>10.2} ms median {min:>10.2} ms min ({runs} runs)");
    rows.push(format!(
        "{{\"bench\":\"dp\",{},\"mode\":\"lazy\",\"p\":{P},\"runs\":{runs},\
         \"median_ms\":{median:.3},\"min_ms\":{min:.3}}}",
        w.json_head(&id)
    ));
}

/// `DenseCube::from_core` on a fresh copy of the prefix sums each run.
fn dense_row(w: &Workload, model: &MicroModel, filters: &[String], rows: &mut Vec<String>) {
    let id = format!("cube/{}/T{}/dense", w.case, w.slices);
    if !wanted(filters, &id) {
        return;
    }
    let core = CubeCore::build(model);
    let started = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < MIN_RUNS || (started.elapsed() < MIN_TOTAL && ms.len() < MAX_RUNS) {
        let fresh = core.clone();
        let t = Instant::now();
        std::hint::black_box(DenseCube::from_core(fresh));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ms.sort_by(f64::total_cmp);
    let (runs, median, min) = (ms.len(), ms[ms.len() / 2], ms[0]);
    println!("{id:<24} {median:>10.2} ms median {min:>10.2} ms min ({runs} runs)");
    rows.push(format!(
        "{{\"bench\":\"cube\",{},\"runs\":{runs},\"median_ms\":{median:.3},\"min_ms\":{min:.3}}}",
        w.json_head(&id)
    ));
}

fn bench_dp(_c: &mut Criterion) {
    let filters = filters();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("available_parallelism: {cores}");
    let mut rows = Vec::new();

    let case_a_ids = CASE_A_SLICES
        .iter()
        .flat_map(|t| {
            [
                format!("dp/A/T{t}/sequential"),
                format!("dp/A/T{t}/parallel"),
                format!("dp/A/T{t}/lazy"),
                format!("cube/A/T{t}/dense"),
            ]
        })
        .chain([format!("dichotomy/A/T{DICHOTOMY_SLICES}")]);
    if case_a_ids.into_iter().any(|id| wanted(&filters, &id)) {
        let sc = scenario(CaseId::A, CASE_A_SCALE);
        let (trace, _) = sc.run(SEED);
        for slices in CASE_A_SLICES {
            let model = MicroModel::from_trace(&trace, slices).expect("case A model");
            let input = AggregationInput::build(&model);
            let w = Workload {
                case: 'A',
                scale: CASE_A_SCALE,
                processes: model.n_leaves(),
                events: trace.event_count(),
                slices,
                cores,
            };
            dp_rows(&w, &input, &filters, &mut rows);
            if LAZY_SLICES.contains(&slices) {
                lazy_row(&w, &model, &filters, &mut rows);
            }
            if DENSE_SLICES.contains(&slices) {
                dense_row(&w, &model, &filters, &mut rows);
            }
            if slices == DICHOTOMY_SLICES {
                dichotomy_row(&w, &input, &filters, &mut rows);
            }
        }
    }

    let case_c_ids = [
        format!("dp/C/T{CASE_C_SLICES}/sequential"),
        format!("dp/C/T{CASE_C_SLICES}/parallel"),
    ];
    if case_c_ids.iter().any(|id| wanted(&filters, id)) {
        let sc = scenario(CaseId::C, CASE_C_SCALE);
        let (trace, _) = sc.run(SEED);
        let model = MicroModel::from_trace(&trace, CASE_C_SLICES).expect("case C model");
        let input = AggregationInput::build(&model);
        let w = Workload {
            case: 'C',
            scale: CASE_C_SCALE,
            processes: model.n_leaves(),
            events: trace.event_count(),
            slices: CASE_C_SLICES,
            cores,
        };
        dp_rows(&w, &input, &filters, &mut rows);
    }

    for row in &rows {
        println!("BENCH {row}");
    }
    let json_path = std::env::var("BENCH_DP_JSON").unwrap_or_else(|_| "BENCH_dp.json".into());
    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("could not write {json_path}: {e}");
    } else {
        println!("wrote {json_path}");
    }
}

criterion_group!(benches, bench_dp);
criterion_main!(benches);
