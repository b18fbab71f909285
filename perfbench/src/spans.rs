//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer made from the benchmark's own code:
//! layer name, what was called, start, end and the enclosing span on the
//! same thread. Spans stay in memory until [`Recorder::write`] dumps them
//! as JSON lines at the end of the run. Next to the spans the recorder keeps
//! per-round counters (bytes, events, DP runs, …) keyed by per-layer metric
//! name; [`Recorder::end_round`] closes a round and adds each layer's self
//! time (span duration minus the time its child spans cover) as
//! `self_ms.<layer>`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

thread_local! {
    /// Spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Layer (module) the call went into, e.g. `format.io`.
    pub layer: &'static str,
    /// The function called, e.g. `read_hi_res_with`.
    pub what: &'static str,
    /// Traced round the span belongs to.
    pub round: usize,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

#[derive(Default)]
struct Counters {
    round: usize,
    current: BTreeMap<&'static str, f64>,
    closed: Vec<BTreeMap<&'static str, f64>>,
}

/// Spans and per-round counters of one traced run.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Counters>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("recorder lock poisoned by a panicking benchmark thread")
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Counters::default()),
        }
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span; returns its value and the span's duration in
    /// milliseconds.
    pub fn span<T>(
        &self,
        layer: &'static str,
        what: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = {
            let round = lock(&self.counters).round;
            let mut spans = lock(&self.spans);
            spans.push(Span {
                parent,
                layer,
                what,
                round,
                start_ns: self.since_origin(start),
                end_ns: 0,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let value = f();
        let end = Instant::now();
        OPEN.with(|o| o.borrow_mut().pop());
        lock(&self.spans)[id].end_ns = self.since_origin(end);
        (value, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Add `value` to the current round's counter `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        *lock(&self.counters).current.entry(name).or_insert(0.0) += value;
    }

    /// The current round's counter `name` so far.
    pub fn current(&self, name: &str) -> f64 {
        lock(&self.counters)
            .current
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Close the current round: fold each layer's self time into the
    /// round's counters and start the next round.
    pub fn end_round(&self) {
        let mut counters = lock(&self.counters);
        let round = counters.round;
        let spans = lock(&self.spans);
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| s.round == round) {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut closed = std::mem::take(&mut counters.current);
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.round == round) {
            let own_ms = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]) as f64
                / 1e6;
            *closed.entry(self_time_name(s.layer)).or_insert(0.0) += own_ms;
            if let Some(name) = crate::call_self_time_metric(s.layer, s.what) {
                *closed.entry(name).or_insert(0.0) += own_ms;
            }
        }
        drop(spans);
        crate::derive_round_metrics(&mut closed);
        counters.closed.push(closed);
        counters.round += 1;
    }

    /// Median over closed rounds of counter `name` (0 where a round never
    /// touched it).
    pub fn round_median(&self, name: &str) -> f64 {
        let counters = lock(&self.counters);
        let values: Vec<f64> = counters
            .closed
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        crate::median(&values)
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in lock(&self.spans).iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"what\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.what, s.round, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer self-time metric name of `layer`.
fn self_time_name(layer: &str) -> &'static str {
    crate::LAYERS
        .iter()
        .find(|(l, _)| *l == layer)
        .map(|(_, name)| *name)
        .unwrap_or("self_ms.other")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::new();
        let (inner_ms, total_ms) = rec.span("core.query", "outer", || {
            std::thread::sleep(std::time::Duration::from_millis(4));
            rec.span("core.dp", "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(6))
            })
            .1
        });
        rec.end_round();
        let outer = rec.round_median("self_ms.core.query");
        let inner = rec.round_median("self_ms.core.dp");
        assert!(inner >= 6.0, "{inner}");
        assert!(outer >= 4.0, "{outer}");
        assert!(
            (outer + inner - total_ms).abs() < 0.01,
            "{outer} + {inner} != {total_ms}"
        );
        assert!((inner - inner_ms).abs() < 0.01);
    }
}
