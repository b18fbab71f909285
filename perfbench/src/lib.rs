//! # perfbench — the ocelotl benchmark
//!
//! One command runs one workload for a fixed time, checks every reply,
//! and prints every metric by name with its unit; the last line of
//! standard output is one JSON object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analyst-cli --seed 1 --seconds 10 --trace 0
//! ```
//!
//! ## Workloads
//!
//! * `analyst-cli` — the paper's interaction loop as separate
//!   `ocelotl_cli::run` invocations sharing one fresh `--cache` directory
//!   (Table II case A at scale 0.05): cold `aggregate --slices 240`, the
//!   same again warm, a warm `aggregate` at an unseen `p`, a reslice to
//!   120 slices and `pvalues --slices 60`.
//! * `ingest-large` — `aggregate --slices 30 --no-cache` on case B at
//!   scale 0.1 (5.2 M events) read three ways: the sharded `.btf`, the same
//!   trace converted to a chunked `.octf`, and that `.octf` restricted to
//!   the middle 1/16 of its extent (predicate pushdown).
//! * `serve-mixed` — an in-process `ocelotl serve` over loopback TCP with
//!   two closed-loop connections: warm requests on one trace alternating
//!   64 and 128 slices, and cold `aggregate`s rotating over nine small
//!   traces (more than the eight-session pool keeps).
//! * `live-refresh` — a published live session fed 10⁶ case-A events in
//!   4096-event batches; each refresh is one `LiveFeeder::feed` plus the
//!   re-answered `aggregate`.
//!
//! The seed drives every generated trace and every unseen `p`.
//!
//! ## Metrics
//!
//! End to end (`--trace 0`, the same names on every workload): `setup_s`
//! (median of several set-ups), `round_s` (median wall time of one round
//! of the workload's fixed operation sequence), `step_geomean_ms`
//! (geometric mean over the workload's operation kinds of each kind's
//! median latency), `interactive_ms` (median latency of the steps a user
//! waits on once the trace has been read: the warm, unseen-`p` and
//! reslice commands on `analyst-cli`, the zoom window on `ingest-large`,
//! the warm requests on `serve-mixed`, the refreshes on `live-refresh`;
//! the slow steps would drown these in the two figures before) and
//! `peak_rss_mb` (`VmHWM` when the first round ends: the peak over the
//! set-ups and one round, a fixed amount of work). The
//! per-kind figures (`cold_s`, `warm_s`, `warm_p50_ms`, …), the tail
//! latencies (too noisy to gate on: on a shared two-core machine they move
//! by a fifth from run to run) and the run's context (cores, seed, trace
//! sizes, server workers) are printed as lines above the JSON and kept
//! with it in `perfbench/.work/out/`.
//!
//! Per layer (`--trace 1`): each round first runs untraced, then replays
//! the same operations by calling the layers' public functions in
//! pipeline order from this crate (see `layers.rs`), recording spans.
//! Every replayed reply must be byte-identical to the untraced one. Each
//! per-layer value is the median over traced rounds of its per-round
//! total; the spans go to `perfbench/.work/out/`.

#![forbid(unsafe_code)]

mod layers;
mod rss;
mod spans;
mod workloads;

use spans::Recorder;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["analyst-cli", "ingest-large", "serve-mixed", "live-refresh"];

/// End-to-end metrics and their units.
pub(crate) const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("round_s", "s"),
    ("step_geomean_ms", "ms"),
    ("interactive_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layers (span names) and the metric carrying each one's self time.
pub(crate) const LAYERS: [(&str, &str); 11] = [
    ("cli", "self_ms.cli"),
    ("cli.serve", "self_ms.cli.serve"),
    ("live", "self_ms.live"),
    ("format.io", "self_ms.format.io"),
    ("format.store", "self_ms.format.store"),
    ("format.json", "self_ms.format.json"),
    ("core.hires", "self_ms.core.hires"),
    ("core.cube", "self_ms.core.cube"),
    ("core.dp", "self_ms.core.dp"),
    ("core.pvalues", "self_ms.core.pvalues"),
    ("core.query", "self_ms.core.query"),
];

/// Per-layer metrics (besides the `self_ms.*` ones in [`LAYERS`]) and
/// their units.
pub(crate) const PER_LAYER: [(&str, &str); 42] = [
    ("io.decode_ms", "ms"),
    ("io.merge_ms", "ms"),
    ("io.bytes_read", "bytes"),
    ("io.events", "count"),
    ("io.shards", "count"),
    ("io.chunks_read", "count"),
    ("io.chunks_total", "count"),
    ("io.chunk_ratio", "ratio"),
    ("store.hash_ms", "ms"),
    ("store.load_ms.omicro", "ms"),
    ("store.load_ms.ocube", "ms"),
    ("store.load_ms.opart", "ms"),
    ("hires.derive_ms", "ms"),
    ("hires.bytes", "bytes"),
    ("cube.prefix_ms", "ms"),
    ("cube.dense_ms", "ms"),
    ("cube.bytes", "bytes"),
    ("dp.run_ms", "ms"),
    ("dp.runs", "count"),
    ("pvalues.dp_runs", "count"),
    ("pvalues.levels", "count"),
    ("query.execute_ms.aggregate", "ms"),
    ("query.execute_ms.significant", "ms"),
    ("query.execute_ms.render_overview", "ms"),
    ("query.execute_ms.stats", "ms"),
    ("json.encode_ms", "ms"),
    ("json.reply_bytes", "bytes"),
    ("serve.handle_ms", "ms"),
    ("serve.socket_ms", "ms"),
    ("serve.builds_started", "count"),
    ("serve.busy_rejections", "count"),
    ("live.feed_ms", "ms"),
    ("live.answer_ms", "ms"),
    ("artifact.omicro.load_ms", "ms"),
    ("artifact.omicro.recompute_ms", "ms"),
    ("artifact.omicro.bytes", "bytes"),
    ("artifact.ocube.load_ms", "ms"),
    ("artifact.ocube.recompute_ms", "ms"),
    ("artifact.ocube.bytes", "bytes"),
    ("artifact.opart.load_ms", "ms"),
    ("artifact.opart.recompute_ms", "ms"),
    ("artifact.opart.bytes", "bytes"),
];

/// Per-layer metrics carrying the self time of one call in one layer.
pub(crate) fn call_self_time_metric(layer: &str, what: &str) -> Option<&'static str> {
    match (layer, what) {
        ("core.hires", "derive") => Some("hires.derive_ms"),
        _ => None,
    }
}

/// Per-round ratios computed from a closed round's totals.
pub(crate) fn derive_round_metrics(round: &mut std::collections::BTreeMap<&'static str, f64>) {
    let get = |r: &std::collections::BTreeMap<&'static str, f64>, k: &str| {
        r.get(k).copied().unwrap_or(0.0)
    };
    let runs = get(round, "dp.runs");
    if runs > 0.0 {
        round.insert("dp.run_ms", get(round, "self_ms.core.dp") / runs);
    }
    let total = get(round, "io.chunks_total");
    if total > 0.0 {
        round.insert("io.chunk_ratio", get(round, "io.chunks_read") / total);
    }
}

/// Per-layer metrics set once per run rather than per round.
pub(crate) const PER_RUN: [(&str, &str); 2] =
    [("trace.overhead_ms", "ms"), ("failed_ratio", "ratio")];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time; rounds start until it has elapsed (at least one).
    pub seconds: f64,
    /// Replay each round through the layers and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for tests.
    pub smoke: bool,
    /// Corrupt one expected reply, so the checks must count a failure.
    pub inject_mismatch: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No operation failed and every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or replied wrong bytes.
    pub failed: u64,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: context and per-kind details.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Everything printed: context and detail lines, one line per
    /// metric, and the JSON result last.
    pub fn report(&self) -> String {
        let mut text = String::new();
        for line in &self.lines {
            text.push_str(line);
            text.push('\n');
        }
        for m in &self.metrics {
            text.push_str(&format!("metric {} {} {}\n", m.name, m.value, m.unit));
        }
        text.push_str(&self.json());
        text.push('\n');
        text
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// State shared by a workload's set-up, rounds and checks.
pub(crate) struct Bench {
    pub opts: Options,
    /// Scratch directory of this run (removed at the end).
    pub dir: PathBuf,
    /// Spans and counters of the traced replay.
    pub rec: Arc<Recorder>,
    /// Seconds per set-up.
    pub setups: Vec<f64>,
    /// Seconds per untraced round.
    pub rounds: Vec<f64>,
    /// Seconds per traced round, side measurements excluded.
    pub traced_rounds: Vec<f64>,
    /// Untraced operation latencies in seconds, by kind.
    pub ops: Vec<(&'static str, f64)>,
    /// Operation kinds whose median latency is `interactive_ms`.
    pub interactive_kinds: &'static [&'static str],
    pub attempted: u64,
    pub failed: u64,
    /// Per-kind figures to print.
    pub details: Vec<Detail>,
    /// Context lines (`key=value`).
    pub context: Vec<(String, String)>,
    /// Peak resident MB of the process when the first round ended.
    first_round_rss: Option<f64>,
    started: Option<Instant>,
}

/// One printed per-kind statistic.
pub(crate) struct Detail {
    pub name: &'static str,
    pub kinds: &'static [&'static str],
    /// `None` for the median, `Some(q)` for the nearest-rank percentile.
    pub percentile: Option<f64>,
    /// Reported in milliseconds (else seconds).
    pub millis: bool,
}

impl Detail {
    /// Median latency of `kinds`, in seconds.
    pub fn median_s(name: &'static str, kinds: &'static [&'static str]) -> Self {
        Self {
            name,
            kinds,
            percentile: None,
            millis: false,
        }
    }

    /// Percentile `q` (or the median for `None`) of `kinds`, in
    /// milliseconds.
    pub fn ms(name: &'static str, kinds: &'static [&'static str], q: Option<f64>) -> Self {
        Self {
            name,
            kinds,
            percentile: q,
            millis: true,
        }
    }
}

impl Bench {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: check failed: {what}");
        }
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Whether another of `reps` set-ups should run (their median is
    /// `setup_s`). A fixed count, so every run's process goes through the
    /// same allocations before its first round.
    pub fn more_setups(&self, reps: usize) -> bool {
        self.setups.len() < if self.opts.smoke { 1 } else { reps }
    }

    /// Whether another round should start.
    pub fn more_rounds(&mut self) -> bool {
        let started = *self.started.get_or_insert_with(Instant::now);
        self.rounds.is_empty() || started.elapsed().as_secs_f64() < self.opts.seconds
    }

    /// End an untraced round that took `secs`.
    pub fn end_round(&mut self, secs: f64) {
        self.rounds.push(secs);
        // The peak after a fixed amount of work: the set-ups and one round.
        self.first_round_rss.get_or_insert_with(rss::high_water_mb);
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {})",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    }
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let work = work_root();
    let dir = work.join(format!(
        "run-{}-{}-{}",
        opts.workload,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut b = Bench {
        opts: opts.clone(),
        dir: dir.clone(),
        rec: Arc::new(Recorder::new()),
        setups: Vec::new(),
        rounds: Vec::new(),
        traced_rounds: Vec::new(),
        ops: Vec::new(),
        interactive_kinds: &[],
        attempted: 0,
        failed: 0,
        details: Vec::new(),
        context: Vec::new(),
        first_round_rss: None,
        started: None,
    };
    let ran = workloads::run(&mut b);
    std::fs::remove_dir_all(&dir).ok();
    ran?;
    if b.rounds.is_empty() {
        return Err("no round completed".into());
    }
    let mut lines = context_lines(&b);
    lines.extend(detail_lines(&b));
    let out = work.join("out");
    std::fs::create_dir_all(&out).ok();
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let metrics = if opts.trace {
        let path = out.join(format!("spans-{stem}.jsonl"));
        match b.rec.write(&path) {
            Ok(()) => lines.push(format!("spans written to {}", path.display())),
            Err(e) => lines.push(format!("spans not written: {e}")),
        }
        per_layer_metrics(&b)
    } else {
        end_to_end_metrics(&b)
    };
    let outcome = Outcome {
        correct: b.failed == 0,
        attempted: b.attempted,
        failed: b.failed,
        metrics,
        lines,
    };
    std::fs::write(out.join(format!("result-{stem}.txt")), outcome.report()).ok();
    Ok(outcome)
}

/// Scratch and output root: `.work/` inside this package.
fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn end_to_end_metrics(b: &Bench) -> Vec<Metric> {
    let mut kinds: Vec<&str> = b.ops.iter().map(|(k, _)| *k).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let log_sum: f64 = kinds
        .iter()
        .map(|k| median(&kind_samples(b, &[k])).max(1e-9).ln())
        .sum();
    let geomean_ms = (log_sum / kinds.len().max(1) as f64).exp() * 1e3;
    let values = [
        median(&b.setups),
        median(&b.rounds),
        geomean_ms,
        median(&kind_samples(b, b.interactive_kinds)) * 1e3,
        b.first_round_rss.unwrap_or(0.0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        })
        .collect()
}

fn per_layer_metrics(b: &Bench) -> Vec<Metric> {
    let rec = &b.rec;
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| Metric {
            name: name.to_string(),
            value: rec.round_median(name),
            unit: unit.to_string(),
        })
        .collect();
    metrics.extend(LAYERS.iter().map(|(_, name)| Metric {
        name: name.to_string(),
        value: rec.round_median(name),
        unit: "ms".to_string(),
    }));
    let overhead_ms = (median(&b.traced_rounds) - median(&b.rounds)) * 1e3;
    let failed_ratio = b.failed as f64 / b.attempted.max(1) as f64;
    metrics.extend(
        PER_RUN
            .iter()
            .zip([overhead_ms, failed_ratio])
            .map(|((name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
            }),
    );
    metrics
}

fn kind_samples(b: &Bench, kinds: &[&str]) -> Vec<f64> {
    b.ops
        .iter()
        .filter(|(k, _)| kinds.contains(k))
        .map(|(_, s)| *s)
        .collect()
}

fn context_lines(b: &Bench) -> Vec<String> {
    let mut ctx = vec![
        ("workload".to_string(), b.opts.workload.clone()),
        ("seed".to_string(), b.opts.seed.to_string()),
        ("nproc".to_string(), rss::allowed_cpus().to_string()),
        (
            "available_parallelism".to_string(),
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        ),
        (
            "serve_workers".to_string(),
            ocelotl_cli::commands::serve::ServeOptions::default()
                .workers
                .to_string(),
        ),
        ("traced".to_string(), b.opts.trace.to_string()),
        ("rounds".to_string(), b.rounds.len().to_string()),
        ("setups".to_string(), b.setups.len().to_string()),
        ("timing".to_string(), "wall clock only".to_string()),
    ];
    ctx.extend(b.context.iter().cloned());
    let body: Vec<String> = ctx.iter().map(|(k, v)| format!("{k}={v}")).collect();
    vec![format!("context {}", body.join(" "))]
}

fn detail_lines(b: &Bench) -> Vec<String> {
    let row = |name: &str, unit: &str, v: &[f64], value: f64| {
        let (q1, _, q3) = quartiles(v);
        format!(
            "detail {name} {value:.4} {unit} (q1 {q1:.4}, q3 {q3:.4}, n {})",
            v.len()
        )
    };
    let mut lines: Vec<String> = b
        .details
        .iter()
        .map(|d| {
            let scale = if d.millis { 1e3 } else { 1.0 };
            let v: Vec<f64> = kind_samples(b, d.kinds).iter().map(|s| s * scale).collect();
            let value = match d.percentile {
                None => median(&v),
                Some(q) => percentile(&v, q),
            };
            row(d.name, if d.millis { "ms" } else { "s" }, &v, value)
        })
        .collect();
    lines.push(row("setup_s", "s", &b.setups, median(&b.setups)));
    lines.push(row("round_s", "s", &b.rounds, median(&b.rounds)));
    let op_ms: Vec<f64> = b.ops.iter().map(|(_, s)| s * 1e3).collect();
    lines.push(row("op_p95_ms", "ms", &op_ms, percentile(&op_ms, 0.95)));
    let failed_ratio = b.failed as f64 / b.attempted.max(1) as f64;
    lines.push(format!(
        "detail failed_ratio {failed_ratio:.6} ratio ({} of {} operations)",
        b.failed, b.attempted
    ));
    lines.push(format!(
        "detail peak_rss_mb {:.1} MB after the first round, {:.1} MB after the last",
        b.first_round_rss.unwrap_or(0.0),
        rss::high_water_mb()
    ));
    lines
}

/// Median (0 for no samples).
pub(crate) fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile, interpolated like Python's
/// `statistics.quantiles(v, n=4)` (exclusive method).
pub(crate) fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let at = |q: f64| {
                let pos = q * (n + 1) as f64;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let delta = (pos - j as f64).clamp(0.0, 1.0);
                s[j - 1] + delta * (s[j] - s[j - 1])
            };
            let mid = if n % 2 == 1 {
                s[n / 2]
            } else {
                0.5 * (s[n / 2 - 1] + s[n / 2])
            };
            (at(0.25), mid, at(0.75))
        }
    }
}

/// Nearest-rank percentile `q` in (0, 1] (0 for no samples).
pub(crate) fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
