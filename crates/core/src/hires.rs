//! The super-resolution resident model behind incremental re-slicing.
//!
//! The paper's microscopic model fixes `|T|` before aggregation, so a
//! `--slices` change (the §V.B interactive refinement loop at varying
//! resolution) would re-stream the whole trace from disk. [`HiResModel`]
//! removes that disk pass: on first ingest the pipeline slices the trace
//! into a **super-resolution** grid of
//! [`hi_res_slices`]`(n_slices, n_leaves, n_states)` periods (a
//! power-of-two multiple of the requested resolution, at least
//! `max(4096, 4·n_slices)`, memory-bounded by
//! [`HI_RES_CELL_BUDGET`]) and keeps the raw array resident. Any
//! coarser [`MicroModel`] — including zoomed sub-ranges whose edges align
//! with the hi-res grid — is then derived by **pure in-memory rebinning**.
//!
//! ## Bit-exactness
//!
//! Re-slicing is provably bit-identical to a fresh ingest because both
//! are the *same computation*: the pipeline always folds events into the
//! hi-res grid and always derives the requested model with
//! [`HiResModel::derive`] (one fixed left-to-right summation order per
//! cell). [`HiResModel::serves`] gates warm answers to exactly the
//! resolutions whose fresh ingest lands on the same hi-res grid
//! (`n' | H` **and** `hi_res_slices(n') == H`), so a served re-slice and
//! a cold re-ingest can never diverge — not even in the last ulp. Other
//! resolutions (non-divisor grids, or divisors outside the dyadic family)
//! fall back to a fresh ingest at their own hi-res grid.
//!
//! For the density metric the resident array stores the **unnormalized**
//! per-cell event counts (whole numbers, so rebinned sums are exact);
//! the peak normalization of `event_density` is applied once per derived
//! model, at the target resolution — again the same arithmetic a fresh
//! ingest performs.
//!
//! ## Live appends
//!
//! [`HiResModel::append`] folds a live batch into the resident array and
//! reports the hi-res slices it touched. A live session turns them into a
//! band of coarse slices and re-derives only that band of its previous
//! model (`rederive_band`), through the same kernel as a full derive: a
//! coarse slice is the left-to-right sum of its own hi-res cells, so the
//! slices outside the band already hold the full derive's bits. The
//! density metric always re-derives in full, since its peak normalization
//! can rescale every cell.

use crate::session::Metric;
use ocelotl_trace::{fold_interval, LeafId, MicroModel, StateId, TimeGrid};
use std::fmt;
use std::ops::Range;

pub use ocelotl_trace::{hi_res_slices, HI_RES_CELL_BUDGET, HI_RES_FACTOR, HI_RES_MIN_SLICES};

/// One interval event of a live stream: `(leaf, state, begin, end)`.
/// This is the only record kind the live path carries — point events
/// would make the density pseudo-state axis depend on arrival order,
/// which the append-boundary bit-identity proof forbids.
pub type LiveEvent = (LeafId, StateId, f64, f64);

/// What one [`HiResModel::append`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Inclusive hi-res slice range `[lo, hi]` the batch contributed to;
    /// `None` when no event overlapped the grid.
    pub touched: Option<(usize, usize)>,
    /// Hi-res periods added to the time axis (0 when every event fit).
    pub grown: usize,
}

/// Why [`HiResModel::append`] refused a batch (the model is unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendError {
    /// An event carried a non-finite time or `end < begin`.
    BadTime,
    /// An event named a leaf or state outside the model's shape.
    BadShape,
    /// Growing the grid far enough to cover the batch would exceed
    /// [`HI_RES_CELL_BUDGET`] — declare a longer horizon up front.
    Overflow,
}

impl fmt::Display for AppendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppendError::BadTime => write!(f, "event has non-finite times or end < begin"),
            AppendError::BadShape => write!(f, "event names a leaf or state outside the model"),
            AppendError::Overflow => {
                write!(f, "grid growth would exceed the hi-res cell budget")
            }
        }
    }
}

impl std::error::Error for AppendError {}

/// One resident super-resolution model: the raw (unnormalized) microscopic
/// array at [`hi_res_slices`] periods, from which coarser models are
/// derived without touching the trace. See the module docs.
#[derive(Debug, Clone)]
pub struct HiResModel {
    metric: Metric,
    raw: MicroModel,
}

impl HiResModel {
    /// Wrap a raw hi-res array (durations for [`Metric::States`],
    /// unnormalized counts for [`Metric::Density`]) produced by a hi-res
    /// ingest (`ModelSink::hi_res` + `finish_raw`).
    pub fn new(metric: Metric, raw: MicroModel) -> Self {
        Self { metric, raw }
    }

    /// The metric the raw array carries.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The raw super-resolution array (unnormalized for density).
    pub fn raw(&self) -> &MicroModel {
        &self.raw
    }

    /// `H`: the super-resolution slice count.
    pub fn n_slices(&self) -> usize {
        self.raw.n_slices()
    }

    /// The last hi-res slice holding any cell other than `+0.0`; `None`
    /// when the array is all zeros.
    pub(crate) fn last_data_slice(&self) -> Option<usize> {
        let (n_leaves, n_states) = (self.raw.n_leaves(), self.raw.n_states());
        (0..n_leaves)
            .flat_map(|leaf| (0..n_states).map(move |x| (LeafId(leaf as u32), StateId(x as u16))))
            .filter_map(|(leaf, x)| {
                let series = self.raw.series(leaf, x);
                series.iter().rposition(|v| v.to_bits() != 0)
            })
            .max()
    }

    /// Resident footprint of the raw array in bytes.
    pub fn memory_bytes(&self) -> u64 {
        (self.raw.n_leaves() * self.raw.n_states() * self.raw.n_slices()) as u64
            * std::mem::size_of::<f64>() as u64
    }

    /// `true` when a model at `n_slices` can be served from this resident
    /// array **bit-identically to a fresh ingest**: `n_slices` divides `H`
    /// and a fresh ingest at `n_slices` would land on the same hi-res
    /// grid. (Divisors outside that set — e.g. `5` from a `7680`-slice
    /// grid whose fresh ingest would use `5120` — are declined so warm
    /// answers can never diverge from cold ones.)
    ///
    /// The check recomputes [`hi_res_slices`] from the raw array's own
    /// dimensions. For density models whose pseudo-states widened the
    /// state count *and* whose size hits the cell budget, this can be
    /// stricter than the grid the ingest actually chose — the session
    /// then falls back to the per-resolution direct build on both the
    /// warm and the cold path, so the mismatch costs a re-read, never
    /// correctness.
    pub fn serves(&self, n_slices: usize) -> bool {
        n_slices >= 1
            && self.raw.n_slices().is_multiple_of(n_slices)
            && hi_res_slices(n_slices, self.raw.n_leaves(), self.raw.n_states())
                == self.raw.n_slices()
    }

    /// Derive the full-range model at `n_slices` by rebinning; `None`
    /// when [`HiResModel::serves`] declines the resolution.
    pub fn derive(&self, n_slices: usize) -> Option<MicroModel> {
        self.serves(n_slices)
            .then(|| self.rebin(0, self.raw.n_slices(), n_slices))
    }

    /// Derive a zoomed model over the hi-res slice window
    /// `[first, first + count)` rebinned to `n_slices`; `None` when the
    /// window is empty, out of range, or not divisible into `n_slices`
    /// equal bins.
    pub fn derive_window(&self, first: usize, count: usize, n_slices: usize) -> Option<MicroModel> {
        (n_slices >= 1
            && count >= n_slices
            && count.is_multiple_of(n_slices)
            && first + count <= self.raw.n_slices())
        .then(|| self.rebin(first, count, n_slices))
    }

    /// Derive the full-range model at any `n_slices` that divides `H`,
    /// **without** the dyadic-family check of [`HiResModel::serves`].
    /// Live sessions use this: once the grid has grown past its original
    /// horizon, `H` is no longer the `hi_res_slices` value a fresh ingest
    /// would pick, but the rebinned model is still the exact left-to-right
    /// sum over the live grid — and on an ungrown grid `derive_at` is
    /// bit-identical to [`HiResModel::derive`] whenever `serves` holds
    /// (same kernel, same inputs).
    pub fn derive_at(&self, n_slices: usize) -> Option<MicroModel> {
        (n_slices >= 1 && self.raw.n_slices().is_multiple_of(n_slices))
            .then(|| self.rebin(0, self.raw.n_slices(), n_slices))
    }

    /// Append a batch of interval events to the resident array, growing the
    /// time axis by whole hi-res periods when an event ends past the grid.
    ///
    /// Each event folds through [`fold_interval`] — the **same** per-record
    /// kernel `ModelSink`'s flush uses — in batch order, so after any
    /// sequence of appends every cell holds its contributions in stream
    /// order: the array is bit-identical to a fresh
    /// `ModelSink::with_range(kind, H, range)` + `finish_raw()` ingest of
    /// the concatenated stream over the same grid. Growth appends
    /// zero-filled periods of the **same slice width** (existing slice
    /// bounds are unchanged on grids whose width is exactly
    /// representable — e.g. a power-of-two span over a power-of-two `H`);
    /// the added period count is rounded up to a multiple of
    /// `growth_quantum`, so a caller that passes its target resolution
    /// keeps `n | H` (and thereby [`HiResModel::derive_at`]) valid across
    /// growth. Events are validated up front: on `Err` the model is
    /// untouched.
    pub fn append(
        &mut self,
        events: &[LiveEvent],
        growth_quantum: usize,
    ) -> Result<AppendOutcome, AppendError> {
        let n_leaves = self.raw.n_leaves();
        let n_states = self.raw.n_states();
        let mut t_hi = f64::NEG_INFINITY;
        for &(leaf, state, begin, end) in events {
            if !begin.is_finite() || !end.is_finite() || end < begin {
                return Err(AppendError::BadTime);
            }
            if leaf.index() >= n_leaves || state.index() >= n_states {
                return Err(AppendError::BadShape);
            }
            t_hi = t_hi.max(end);
        }

        let grid = *self.raw.grid();
        let quantum = growth_quantum.max(1);
        let mut grown = 0usize;
        if !events.is_empty() && t_hi > grid.end() {
            let h = grid.n_slices();
            let w = grid.slice_duration();
            let start = grid.start();
            // Smallest whole-period extension leaving t_hi *strictly*
            // inside the grown grid, then round up to the growth quantum.
            // Strictness matters: an endpoint exactly on the grid end is
            // clamped into the last slice, and if the grid later grew
            // past it, a fresh ingest over the grown range would map it
            // to the next slice instead — growth must never create that
            // boundary case. The estimate from float division is
            // corrected by re-evaluating the actual new bound.
            let mut k = (((t_hi - grid.end()) / w).ceil() as usize).max(1);
            while start + w * ((h + k) as f64) <= t_hi {
                k += 1;
            }
            k = k.div_ceil(quantum) * quantum;
            let h_new = h + k;
            if n_leaves * n_states * h_new > HI_RES_CELL_BUDGET {
                return Err(AppendError::Overflow);
            }
            let end_new = start + w * (h_new as f64);
            self.raw.regrow(TimeGrid::new(start, end_new, h_new));
            grown = k;
        }

        let grid = *self.raw.grid();
        let kind = self.metric.model_kind();
        let mut touched: Option<(usize, usize)> = None;
        for &(leaf, state, begin, end) in events {
            fold_interval(kind, self.raw.series_mut(leaf, state), &grid, begin, end);
            // Conservative touched range: the clipped event extent.
            if end >= grid.start() && begin <= grid.end() {
                let lo = grid.slice_of(begin.max(grid.start()));
                let hi = grid.slice_of(end.min(grid.end()));
                touched = Some(match touched {
                    None => (lo, hi),
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                });
            }
        }
        Ok(AppendOutcome { touched, grown })
    }

    /// Re-derive coarse slices `lo..=hi` of `model` in place, through the
    /// same kernel as [`HiResModel::derive_at`]. `model` is a full-range
    /// states model derived from an earlier version of this grid, at a
    /// resolution dividing `H`, and the two versions differ only in hi-res
    /// slices inside the band. Each coarse slice is the left-to-right sum
    /// of its own hi-res cells, so the slices outside the band already
    /// hold what a full derive would give them, and the result is that
    /// derive bit for bit. Density models never take this path: their
    /// peak normalization can rescale every cell.
    pub(crate) fn rederive_band(&self, model: &mut MicroModel, (lo, hi): (usize, usize)) {
        let n_slices = model.n_slices();
        debug_assert!(self.metric == Metric::States && hi < n_slices && lo <= hi);
        debug_assert!(self.raw.n_slices().is_multiple_of(n_slices));
        let f = self.raw.n_slices() / n_slices;
        for leaf in 0..self.raw.n_leaves() {
            for x in 0..self.raw.n_states() {
                let (leaf, x) = (LeafId(leaf as u32), StateId(x as u16));
                let series = self.raw.series(leaf, x);
                rebin_series(series, 0, f, model.series_mut(leaf, x), lo..hi + 1);
            }
        }
    }

    /// Coarse cell `t` is the left-to-right sum of its `count / n_slices`
    /// hi-res cells. Density models are peak-normalized at the target
    /// resolution afterwards (exactly `event_density`'s arithmetic over
    /// the rebinned counts).
    fn rebin(&self, first: usize, count: usize, n_slices: usize) -> MicroModel {
        let f = count / n_slices;
        let hi_grid = self.raw.grid();
        let (w0, _) = hi_grid.slice_bounds(first);
        let (_, w1) = hi_grid.slice_bounds(first + count - 1);
        let grid = TimeGrid::new(w0, w1, n_slices);

        let n_leaves = self.raw.n_leaves();
        let n_states = self.raw.n_states();
        let mut data = vec![0.0f64; n_leaves * n_states * n_slices];
        for leaf in 0..n_leaves {
            for x in 0..n_states {
                let series = self.raw.series(LeafId(leaf as u32), StateId(x as u16));
                let dst = (leaf * n_states + x) * n_slices;
                let out = &mut data[dst..dst + n_slices];
                rebin_series(series, first, f, out, 0..n_slices);
            }
        }
        if self.metric == Metric::Density {
            ocelotl_trace::peak_normalize(&mut data, grid.slice_duration());
        }
        MicroModel::from_dense(
            self.raw.hierarchy().clone(),
            self.raw.states().clone(),
            grid,
            data,
        )
    }
}

/// The one rebinning kernel: for every coarse slice `t` in `slices`,
/// `out[t]` is the left-to-right sum of the `f` hi-res cells of `series`
/// from `first + t·f` on.
fn rebin_series(series: &[f64], first: usize, f: usize, out: &mut [f64], slices: Range<usize>) {
    for t in slices {
        let base = first + t * f;
        let mut sum = 0.0f64;
        for cell in &series[base..base + f] {
            sum += cell;
        }
        out[t] = sum;
    }
}

/// Snap a time window to the hi-res grid `range` split into `h` equal
/// slices: the nearest slice edges enclosing a non-empty window, as
/// `(first, count)` slice indices. `None` when the window collapses, lies
/// outside the grid, or the grid itself is degenerate.
///
/// This is the one snapping kernel: the session calls it over the
/// resident array's grid and over a grid probed from a columnar trace's
/// chunk index alike, so windowed pushdown ingests land on the edges a
/// resident-grid re-slice picks.
pub fn snap_to_grid(range: (f64, f64), h: usize, t0: f64, t1: f64) -> Option<(usize, usize)> {
    let (start, end) = range;
    let degenerate = h == 0 || !(start.is_finite() && end.is_finite() && end > start);
    if degenerate || !(t0.is_finite() && t1.is_finite() && t1 > t0) {
        return None;
    }
    let grid = TimeGrid::new(start, end, h);
    let w = grid.slice_duration();
    let snap = |t: f64| -> usize {
        let idx = ((t - grid.start()) / w).round();
        idx.clamp(0.0, h as f64) as usize
    };
    let (a, b) = (snap(t0), snap(t1));
    (b > a).then_some((a, b - a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelotl_trace::{Hierarchy, StateRegistry};

    fn hi_model(n_leaves: usize, h: usize) -> HiResModel {
        let hierarchy = Hierarchy::flat(n_leaves, "p");
        let states = StateRegistry::from_names(["A", "B"]);
        let grid = TimeGrid::new(0.0, 16.0, h);
        let mut data = vec![0.0f64; n_leaves * 2 * h];
        for (i, v) in data.iter_mut().enumerate() {
            *v = (i % 97) as f64 * 0.125;
        }
        HiResModel::new(
            Metric::States,
            MicroModel::from_dense(hierarchy, states, grid, data),
        )
    }

    #[test]
    fn serves_exactly_the_dyadic_family() {
        // H = 7680 = 30·2⁸ over a small hierarchy.
        let hi = hi_model(2, 7680);
        for n in [15, 30, 60, 120, 240, 480, 960, 1920] {
            assert!(hi.serves(n), "{n} should be servable");
        }
        // Divisors outside the dyadic family resolve to other grids —
        // including near-H requests (a fresh ingest at 3840 refines to
        // 4·3840 = 15360, not 7680).
        for n in [5, 10, 6, 64, 50, 7, 0, 3840, 7680] {
            assert!(!hi.serves(n), "{n} must be declined");
        }
    }

    #[test]
    fn rebinning_conserves_mass_and_grid() {
        let hi = hi_model(3, 7680);
        let m = hi.derive(30).unwrap();
        assert_eq!(m.n_slices(), 30);
        assert_eq!(m.grid().start(), 0.0);
        assert_eq!(m.grid().end(), 16.0);
        assert!((m.grand_total() - hi.raw().grand_total()).abs() < 1e-6);
        // Each coarse cell is the ordered sum of its 256 hi-res cells.
        let series = hi.raw().series(LeafId(1), StateId(1));
        let expected: f64 = series[256..512].iter().sum();
        assert_eq!(
            m.duration(LeafId(1), StateId(1), 1).to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    fn window_derivation_aligns_with_the_hi_grid() {
        let hi = hi_model(2, 7680);
        // A quarter of the grid, rebinned to 24 slices (1920 / 24 = 80).
        let m = hi.derive_window(1920, 1920, 24).unwrap();
        assert_eq!(m.n_slices(), 24);
        assert_eq!(m.grid().start(), 4.0);
        assert_eq!(m.grid().end(), 8.0);
        // Misaligned windows are declined.
        assert!(hi.derive_window(0, 1000, 24).is_none(), "1000 % 24 != 0");
        assert!(hi.derive_window(7000, 1920, 24).is_none(), "out of range");
        assert!(hi.derive_window(0, 0, 1).is_none(), "empty window");
    }

    #[test]
    fn snap_window_rounds_to_nearest_edges() {
        let snap = |t0, t1| snap_to_grid((0.0, 16.0), 1024, t0, t1); // w = 1/64
        assert_eq!(snap(4.0, 8.0), Some((256, 256)));
        // Slightly-off endpoints snap to the same edges.
        let eps = 1.0 / 512.0;
        assert_eq!(snap(4.0 + eps, 8.0 - eps), Some((256, 256)));
        assert_eq!(snap(5.0, 5.0), None, "empty window");
        assert_eq!(snap(f64::NAN, 8.0), None);
        // Windows beyond the grid clamp to it.
        assert_eq!(snap(-5.0, 100.0), Some((0, 1024)));
    }

    #[test]
    fn snap_to_grid_matches_the_resident_kernel() {
        assert_eq!(snap_to_grid((0.0, 0.0), 1024, 0.0, 1.0), None, "flat grid");
        assert_eq!(snap_to_grid((0.0, 16.0), 0, 0.0, 1.0), None, "no slices");
        assert_eq!(snap_to_grid((f64::NAN, 16.0), 8, 0.0, 1.0), None);
    }

    #[test]
    fn density_derivation_normalizes_at_the_target_resolution() {
        let hierarchy = Hierarchy::flat(2, "p");
        let states = StateRegistry::from_names(["evt:send"]);
        let grid = TimeGrid::new(0.0, 8.0, 4096);
        let mut counts = vec![0.0f64; 2 * 4096];
        counts[0] = 3.0; // leaf 0, hi slice 0
        counts[1] = 2.0; // leaf 0, hi slice 1 — same coarse bin as slice 0
        counts[4096 + 2048] = 4.0; // leaf 1, second half
        let hi = HiResModel::new(
            Metric::Density,
            MicroModel::from_dense(hierarchy, states, grid, counts),
        );
        let m = hi.derive(2).unwrap();
        // Rebinned counts: leaf 0 = [5, 0], leaf 1 = [0, 4]; peak 5;
        // slice duration 4.0 → scale 0.8.
        assert_eq!(m.duration(LeafId(0), StateId(0), 0), 4.0);
        assert_eq!(m.duration(LeafId(0), StateId(0), 1), 0.0);
        assert_eq!(m.duration(LeafId(1), StateId(0), 1), 3.2);
    }

    #[test]
    fn memory_bytes_counts_the_raw_array() {
        let hi = hi_model(2, 1024);
        assert_eq!(hi.memory_bytes(), 2 * 2 * 1024 * 8);
    }

    fn empty_live(metric: Metric, n_leaves: usize, h: usize, t0: f64, t1: f64) -> HiResModel {
        let hierarchy = Hierarchy::flat(n_leaves, "p");
        let states = StateRegistry::from_names(["A", "B"]);
        HiResModel::new(
            metric,
            MicroModel::from_dense(
                hierarchy,
                states,
                TimeGrid::new(t0, t1, h),
                vec![0.0; n_leaves * 2 * h],
            ),
        )
    }

    /// Fresh `ModelSink::with_range` ingest of `events` over `range` at
    /// `h` slices — the post-mortem reference the live array must match.
    fn fresh_raw(
        metric: Metric,
        n_leaves: usize,
        h: usize,
        range: (f64, f64),
        events: &[LiveEvent],
    ) -> MicroModel {
        use ocelotl_trace::{EventSink, ModelSink, StreamHeader};
        let mut sink = ModelSink::with_range(metric.model_kind(), h, range);
        sink.begin(&StreamHeader {
            hierarchy: Hierarchy::flat(n_leaves, "p"),
            states: StateRegistry::from_names(["A", "B"]),
            metadata: Vec::new(),
            range: Some(range),
        });
        for &(leaf, state, b, e) in events {
            sink.interval(leaf, state, b, e);
        }
        sink.finish_raw().unwrap()
    }

    fn assert_raw_identical(live: &HiResModel, fresh: &MicroModel, what: &str) {
        assert_eq!(live.raw().grid(), fresh.grid(), "{what}: grid");
        for leaf in 0..live.raw().n_leaves() {
            for x in 0..live.raw().n_states() {
                let a = live.raw().series(LeafId(leaf as u32), StateId(x as u16));
                let b = fresh.series(LeafId(leaf as u32), StateId(x as u16));
                for (t, (va, vb)) in a.iter().zip(b.iter()).enumerate() {
                    assert_eq!(
                        va.to_bits(),
                        vb.to_bits(),
                        "{what}: cell ({leaf}, {x}, {t}): {va} vs {vb}"
                    );
                }
            }
        }
    }

    #[test]
    fn append_matches_a_fresh_ingest_over_the_declared_horizon() {
        // Fixed horizon with arbitrary float bounds: no growth involved,
        // so the equivalence must hold on *any* grid.
        let range = (0.1, 9.7);
        let events: Vec<LiveEvent> = (0..200)
            .map(|i| {
                let b = 0.1 + (i % 37) as f64 * 0.21;
                (
                    LeafId((i % 3) as u32),
                    StateId((i % 2) as u16),
                    b,
                    b + 0.05 + (i % 11) as f64 * 0.02,
                )
            })
            .collect();
        for metric in [Metric::States, Metric::Density] {
            let mut live = empty_live(metric, 3, 4096, range.0, range.1);
            for chunk in events.chunks(17) {
                let out = live.append(chunk, 32).unwrap();
                assert_eq!(out.grown, 0, "nothing past the horizon");
                assert!(out.touched.is_some());
            }
            let fresh = fresh_raw(metric, 3, 4096, range, &events);
            assert_raw_identical(&live, &fresh, metric.tag());
        }
    }

    #[test]
    fn append_growth_matches_a_fresh_ingest_over_the_grown_range() {
        // Dyadic grid (start 0, power-of-two span and H): the grown end
        // bound is exactly representable, so a fresh ingest over the
        // grown range folds onto bit-identical slice boundaries.
        let h = 4096usize;
        let w = 8.0 / h as f64;
        let events: Vec<LiveEvent> = (0..300)
            .map(|i| {
                let b = (i as f64) * 0.05; // runs past 8.0 → growth
                (
                    LeafId((i % 2) as u32),
                    StateId(((i / 3) % 2) as u16),
                    b,
                    b + 0.125,
                )
            })
            .collect();
        for metric in [Metric::States, Metric::Density] {
            let mut live = empty_live(metric, 2, h, 0.0, 8.0);
            let quantum = 64usize;
            let mut fed = 0usize;
            for chunk in events.chunks(23) {
                let out = live.append(chunk, quantum).unwrap();
                fed += chunk.len();
                assert_eq!(out.grown % quantum, 0, "growth honors the quantum");
                assert!(
                    live.n_slices().is_multiple_of(quantum),
                    "quantum keeps dividing H"
                );
                // The invariant under test: at every append boundary the
                // grown live array equals a fresh ingest of the prefix
                // over the grown range.
                let h_now = live.n_slices();
                let end_now = 0.0 + w * h_now as f64;
                let fresh = fresh_raw(metric, 2, h_now, (0.0, end_now), &events[..fed]);
                assert_raw_identical(&live, &fresh, metric.tag());
            }
            assert!(live.n_slices() > h, "the stream must have forced growth");
        }
    }

    #[test]
    fn derive_at_equals_derive_on_an_ungrown_grid() {
        let hi = hi_model(2, 7680);
        for n in [15, 30, 60, 1920] {
            let a = hi.derive(n).unwrap();
            let b = hi.derive_at(n).unwrap();
            assert_eq!(a.grid(), b.grid());
            for leaf in 0..2u32 {
                for x in 0..2u16 {
                    let (sa, sb) = (
                        a.series(LeafId(leaf), StateId(x)),
                        b.series(LeafId(leaf), StateId(x)),
                    );
                    for (va, vb) in sa.iter().zip(sb.iter()) {
                        assert_eq!(va.to_bits(), vb.to_bits());
                    }
                }
            }
        }
        // derive_at accepts any divisor (no dyadic-family gate) …
        assert!(hi.derive_at(10).is_some());
        assert!(hi.derive(10).is_none());
        // … but still rejects non-divisors and zero.
        assert!(hi.derive_at(7).is_none());
        assert!(hi.derive_at(0).is_none());
    }

    #[test]
    fn append_validates_up_front_and_leaves_the_model_untouched() {
        let mut live = empty_live(Metric::States, 2, 1024, 0.0, 8.0);
        live.append(&[(LeafId(0), StateId(0), 1.0, 2.0)], 1)
            .unwrap();
        let before: Vec<u64> = live
            .raw()
            .series(LeafId(0), StateId(0))
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let bad_batches: Vec<(Vec<LiveEvent>, AppendError)> = vec![
            (
                vec![
                    (LeafId(0), StateId(0), 3.0, 4.0),
                    (LeafId(0), StateId(0), f64::NAN, 5.0),
                ],
                AppendError::BadTime,
            ),
            (
                vec![(LeafId(0), StateId(0), 5.0, 4.0)],
                AppendError::BadTime,
            ),
            (
                vec![(LeafId(9), StateId(0), 1.0, 2.0)],
                AppendError::BadShape,
            ),
            (
                vec![(LeafId(0), StateId(7), 1.0, 2.0)],
                AppendError::BadShape,
            ),
            (
                vec![(LeafId(0), StateId(0), 0.0, 1e9)],
                AppendError::Overflow,
            ),
        ];
        for (batch, expect) in bad_batches {
            assert_eq!(live.append(&batch, 1), Err(expect));
            let after: Vec<u64> = live
                .raw()
                .series(LeafId(0), StateId(0))
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(before, after, "model must be untouched after {expect:?}");
            assert_eq!(live.n_slices(), 1024, "no growth after {expect:?}");
        }
        // An empty batch is a no-op, not an error.
        let out = live.append(&[], 1).unwrap();
        assert_eq!(
            out,
            AppendOutcome {
                touched: None,
                grown: 0
            }
        );
    }

    #[test]
    fn append_reports_the_touched_slice_range() {
        let mut live = empty_live(Metric::States, 2, 1024, 0.0, 8.0);
        // w = 8/1024 = 1/128; [1.0, 2.0] spans slices 128..=256.
        let out = live
            .append(&[(LeafId(0), StateId(0), 1.0, 2.0)], 1)
            .unwrap();
        assert_eq!(out.touched, Some((128, 256)));
        let out = live
            .append(
                &[
                    (LeafId(1), StateId(1), 4.0, 4.5),
                    (LeafId(0), StateId(0), 0.0, 0.25),
                ],
                1,
            )
            .unwrap();
        assert_eq!(out.touched, Some((0, 576)));
    }
}
