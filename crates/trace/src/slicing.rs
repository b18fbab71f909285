//! Discretization of continuous trace time into regular slices.
//!
//! The paper divides the raw trace into `|T|` regular time periods and
//! associates events with the periods where they are active (§III.A(2)).
//! [`TimeGrid`] implements that division plus the proration of an interval
//! onto the slices it overlaps.

use crate::event::Time;

/// Minimum super-resolution slice count of a hi-res microscopic model
/// (see [`hi_res_slices`]).
pub const HI_RES_MIN_SLICES: usize = 4096;

/// Minimum refinement factor of the hi-res grid over the requested
/// resolution (see [`hi_res_slices`]).
pub const HI_RES_FACTOR: usize = 4;

/// Memory budget of the hi-res array, counted in `f64` cells
/// (`|S| · |X| · H ≤ budget`, i.e. the raw array stays ≤ 256 MiB). Wide
/// hierarchies or state-rich traces clamp the refinement instead of
/// blowing the footprint.
pub const HI_RES_CELL_BUDGET: usize = 1 << 25;

/// The super-resolution slice count the ingest pipeline uses for a
/// requested resolution of `n_slices` over `n_leaves` resources with
/// `n_states` metric layers: the smallest `n_slices · 2^k` that reaches
/// `max(`[`HI_RES_MIN_SLICES`]`, `[`HI_RES_FACTOR`]` · n_slices)`,
/// clamped so `n_leaves · n_states · H` stays within
/// [`HI_RES_CELL_BUDGET`] (never below `n_slices` itself — the floor
/// degrades the hi-res model to the requested grid, keeping huge
/// problems memory-safe).
///
/// This is a pure function of its arguments: a fresh ingest at any
/// resolution in the same dyadic family (`n`, `2n`, `4n`, …, and the
/// divisors `n/2ᵏ` that resolve to the same `H`) lands on the **same**
/// hi-res grid, which is what makes warm re-slices bit-identical to cold
/// re-ingests.
pub fn hi_res_slices(n_slices: usize, n_leaves: usize, n_states: usize) -> usize {
    let n = n_slices.max(1);
    // Saturating: a request too large for the address space must not wrap
    // to a small grid; the model build refuses its cell count instead.
    let target = HI_RES_MIN_SLICES.max(HI_RES_FACTOR.saturating_mul(n));
    let per_slice = n_leaves.saturating_mul(n_states.max(1)).max(1);
    let cap = (HI_RES_CELL_BUDGET / per_slice).max(n);
    let mut h = n;
    while h < target && h.checked_mul(2).is_some_and(|h2| h2 <= cap) {
        h *= 2;
    }
    h
}

/// A regular grid of `n_slices` time periods covering `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeGrid {
    start: Time,
    end: Time,
    n_slices: usize,
}

impl TimeGrid {
    /// Create a grid; requires `end > start` and `n_slices ≥ 1`.
    pub fn new(start: Time, end: Time, n_slices: usize) -> Self {
        assert!(n_slices >= 1, "need at least one slice");
        assert!(
            end > start,
            "grid must have positive extent (start={start}, end={end})"
        );
        Self {
            start,
            end,
            n_slices,
        }
    }

    /// Grid origin.
    #[inline]
    pub fn start(&self) -> Time {
        self.start
    }

    /// Grid end.
    #[inline]
    pub fn end(&self) -> Time {
        self.end
    }

    /// `|T|`: number of microscopic time periods.
    #[inline]
    pub fn n_slices(&self) -> usize {
        self.n_slices
    }

    /// `d(t)`: duration of every slice (regular grid).
    #[inline]
    pub fn slice_duration(&self) -> Time {
        (self.end - self.start) / self.n_slices as f64
    }

    /// Bounds `[lo, hi)` of slice `i`.
    #[inline]
    pub fn slice_bounds(&self, i: usize) -> (Time, Time) {
        let w = self.slice_duration();
        let lo = self.start + w * i as f64;
        let hi = if i + 1 == self.n_slices {
            self.end
        } else {
            self.start + w * (i + 1) as f64
        };
        (lo, hi)
    }

    /// Slice containing time `t` (clamped to the grid).
    #[inline]
    pub fn slice_of(&self, t: Time) -> usize {
        if t <= self.start {
            return 0;
        }
        if t >= self.end {
            return self.n_slices - 1;
        }
        let idx = ((t - self.start) / self.slice_duration()) as usize;
        idx.min(self.n_slices - 1)
    }

    /// Overlap duration between `[begin, end)` and slice `i`.
    #[inline]
    pub fn overlap(&self, begin: Time, end: Time, i: usize) -> Time {
        let (lo, hi) = self.slice_bounds(i);
        (end.min(hi) - begin.max(lo)).max(0.0)
    }

    /// Iterate `(slice_index, overlap_duration)` for every slice an interval
    /// touches, visiting only the overlapped slices (O(overlapped) not O(|T|)).
    pub fn prorate(&self, begin: Time, end: Time) -> ProrateIter<'_> {
        let b = begin.max(self.start);
        let e = end.min(self.end);
        let (first, last) = if e <= b {
            (1, 0) // empty
        } else {
            (
                self.slice_of(b),
                self.slice_of(e - 1e-300).max(self.slice_of(b)),
            )
        };
        ProrateIter {
            grid: self,
            begin: b,
            end: e,
            cur: first,
            last,
        }
    }
}

/// Iterator over `(slice, overlap)` pairs; see [`TimeGrid::prorate`].
pub struct ProrateIter<'a> {
    grid: &'a TimeGrid,
    begin: Time,
    end: Time,
    cur: usize,
    last: usize,
}

impl Iterator for ProrateIter<'_> {
    type Item = (usize, Time);

    fn next(&mut self) -> Option<Self::Item> {
        while self.cur <= self.last {
            let i = self.cur;
            self.cur += 1;
            let ov = self.grid.overlap(self.begin, self.end, i);
            if ov > 0.0 {
                return Some((i, ov));
            }
            // Zero-overlap slice at the boundary: skip it but keep scanning.
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_bounds_cover_grid_exactly() {
        let g = TimeGrid::new(0.0, 10.0, 4);
        assert_eq!(g.slice_bounds(0), (0.0, 2.5));
        assert_eq!(g.slice_bounds(3), (7.5, 10.0));
        assert!((g.slice_duration() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn slice_of_clamps() {
        let g = TimeGrid::new(1.0, 2.0, 10);
        assert_eq!(g.slice_of(0.0), 0);
        assert_eq!(g.slice_of(1.0), 0);
        assert_eq!(g.slice_of(1.95), 9);
        assert_eq!(g.slice_of(2.0), 9);
        assert_eq!(g.slice_of(99.0), 9);
    }

    #[test]
    fn prorate_splits_duration_exactly() {
        let g = TimeGrid::new(0.0, 10.0, 5);
        let parts: Vec<(usize, f64)> = g.prorate(1.0, 7.0).collect();
        let total: f64 = parts.iter().map(|&(_, d)| d).sum();
        assert!((total - 6.0).abs() < 1e-12);
        assert_eq!(parts.len(), 4); // slices 0..=3
        assert_eq!(parts[0].0, 0);
        assert!((parts[0].1 - 1.0).abs() < 1e-12);
        assert!((parts[1].1 - 2.0).abs() < 1e-12);
        assert!((parts[3].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prorate_clips_to_grid() {
        let g = TimeGrid::new(0.0, 4.0, 2);
        let parts: Vec<(usize, f64)> = g.prorate(-5.0, 100.0).collect();
        let total: f64 = parts.iter().map(|&(_, d)| d).sum();
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn prorate_empty_interval() {
        let g = TimeGrid::new(0.0, 4.0, 2);
        assert_eq!(g.prorate(3.0, 3.0).count(), 0);
        assert_eq!(g.prorate(5.0, 6.0).count(), 0);
        assert_eq!(g.prorate(3.0, 1.0).count(), 0);
    }

    #[test]
    fn prorate_interval_within_single_slice() {
        let g = TimeGrid::new(0.0, 30.0, 30);
        let parts: Vec<(usize, f64)> = g.prorate(5.25, 5.75).collect();
        assert_eq!(parts, vec![(5, 0.5)]);
    }

    #[test]
    fn prorate_interval_on_slice_boundary() {
        let g = TimeGrid::new(0.0, 10.0, 10);
        // [3.0, 4.0) is exactly slice 3.
        let parts: Vec<(usize, f64)> = g.prorate(3.0, 4.0).collect();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 3);
        assert!((parts[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive extent")]
    fn zero_extent_grid_panics() {
        TimeGrid::new(1.0, 1.0, 3);
    }

    #[test]
    fn hi_res_slices_is_a_dyadic_multiple_above_the_floor() {
        // Small problems: the familiar 30-slice default lands on 7680,
        // and the whole dyadic family {15, 30, 60, …} resolves there too.
        assert_eq!(hi_res_slices(30, 8, 4), 7680);
        assert_eq!(hi_res_slices(60, 8, 4), 7680);
        assert_eq!(hi_res_slices(15, 8, 4), 7680);
        assert_eq!(hi_res_slices(120, 8, 4), 7680);
        // A different base lands elsewhere (50·2⁷ = 6400).
        assert_eq!(hi_res_slices(50, 8, 4), 6400);
        // Above 1024 slices the 4× factor dominates the 4096 floor.
        assert_eq!(hi_res_slices(1500, 8, 4), 6000);
        // The result is always a power-of-two multiple of the request.
        for n in [1usize, 7, 30, 333, 2000] {
            let h = hi_res_slices(n, 4, 3);
            assert_eq!(h % n, 0, "{n}");
            assert!((h / n).is_power_of_two(), "{n} -> {h}");
        }
    }

    #[test]
    fn hi_res_slices_respects_the_cell_budget() {
        // A problem so wide that the budget floors the refinement.
        assert_eq!(hi_res_slices(30, HI_RES_CELL_BUDGET, 1), 30);
        // State-rich traces clamp too: 2000 leaves × 50 states leaves
        // room for ≤ 335 slices per (leaf, state) row.
        let h = hi_res_slices(30, 2000, 50);
        assert!(h * 2000 * 50 <= HI_RES_CELL_BUDGET, "{h}");
        assert!((30..7680).contains(&h) && h.is_multiple_of(30));
        // Partial budgets stop the doubling midway but never below n.
        let h = hi_res_slices(30, HI_RES_CELL_BUDGET / 100, 1);
        assert!((30..7680).contains(&h) && h.is_multiple_of(30));
    }
}
