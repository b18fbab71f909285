//! The trace microscopic model (§III.A).
//!
//! A [`MicroModel`] is the algebraically-structured tridimensional dataset
//! the aggregation algorithms consume: for every leaf resource `s`, time
//! slice `t` and state `x` it stores `d_x(s,t)`, the total time `s` spent in
//! `x` during `t`. Proportions `ρ_x(s,t) = d_x(s,t)/d(t)` are derived on the
//! fly.
//!
//! Storage layout is `[leaf][state][slice]` (slice fastest) so that the
//! aggregation input stage can build per-(node,state) prefix sums over time
//! with unit-stride reads.

use crate::event::Time;
use crate::hierarchy::{Hierarchy, HierarchyBuilder, LeafId, NodeId};
use crate::slicing::TimeGrid;
use crate::state::{StateId, StateRegistry};
use crate::trace::Trace;
use rayon::prelude::*;

/// Dense microscopic model: `d_x(s,t)` for all `(s, x, t)`.
#[derive(Debug, Clone)]
pub struct MicroModel {
    hierarchy: Hierarchy,
    states: StateRegistry,
    grid: TimeGrid,
    /// `durations[(leaf * n_states + state) * n_slices + slice]`
    durations: Vec<f64>,
}

impl MicroModel {
    /// Build from a trace, slicing its observed time range into `n_slices`
    /// regular periods (the paper uses 30).
    ///
    /// Returns `None` for traces without events (no time extent to slice).
    pub fn from_trace(trace: &Trace, n_slices: usize) -> Option<Self> {
        let (lo, hi) = trace.time_range()?;
        if hi <= lo {
            return None;
        }
        let grid = TimeGrid::new(lo, hi, n_slices);
        Some(Self::from_trace_with_grid(trace, grid))
    }

    /// Build from a trace with an explicit grid (events outside the grid are
    /// clipped). Parallelizes over chunks of intervals.
    pub fn from_trace_with_grid(trace: &Trace, grid: TimeGrid) -> Self {
        let n_leaves = trace.hierarchy.n_leaves();
        let n_states = trace.states.len();
        let n_slices = grid.n_slices();
        let size = n_leaves * n_states * n_slices;

        const CHUNK: usize = 1 << 16;
        let durations = if trace.intervals.len() > 2 * CHUNK {
            trace
                .intervals
                .par_chunks(CHUNK)
                .fold(
                    || vec![0.0f64; size],
                    |mut acc, chunk| {
                        for iv in chunk {
                            accumulate(
                                &mut acc,
                                n_states,
                                n_slices,
                                &grid,
                                iv.resource,
                                iv.state,
                                iv.begin,
                                iv.end,
                            );
                        }
                        acc
                    },
                )
                .reduce(
                    || vec![0.0f64; size],
                    |mut a, b| {
                        for (x, y) in a.iter_mut().zip(b) {
                            *x += y;
                        }
                        a
                    },
                )
        } else {
            let mut acc = vec![0.0f64; size];
            for iv in &trace.intervals {
                accumulate(
                    &mut acc,
                    n_states,
                    n_slices,
                    &grid,
                    iv.resource,
                    iv.state,
                    iv.begin,
                    iv.end,
                );
            }
            acc
        };

        Self {
            hierarchy: trace.hierarchy.clone(),
            states: trace.states.clone(),
            grid,
            durations,
        }
    }

    /// Build directly from a dense `[leaf][state][slice]` duration array.
    ///
    /// Used for artificial traces (Fig. 3) and tests.
    pub fn from_dense(
        hierarchy: Hierarchy,
        states: StateRegistry,
        grid: TimeGrid,
        durations: Vec<f64>,
    ) -> Self {
        let model = Self::from_sink(hierarchy, states, grid, durations);
        assert!(
            model.durations.iter().all(|&d| d >= 0.0 && d.is_finite()),
            "durations must be finite and non-negative"
        );
        model
    }

    /// [`MicroModel::from_dense`] without the per-cell check: the
    /// streaming sink's cells are finite and non-negative by construction
    /// (see `PartialModel::into_model`), so re-scanning the array it just
    /// filled would only cost a pass over the whole grid.
    pub(crate) fn from_sink(
        hierarchy: Hierarchy,
        states: StateRegistry,
        grid: TimeGrid,
        durations: Vec<f64>,
    ) -> Self {
        assert_eq!(
            durations.len(),
            hierarchy.n_leaves() * states.len() * grid.n_slices(),
            "dense data size mismatch"
        );
        Self {
            hierarchy,
            states,
            grid,
            durations,
        }
    }

    /// Build from per-cell proportions `ρ_x(s,t)` instead of durations
    /// (durations are `ρ · d(t)`). Convenient for paper-style examples where
    /// the figure specifies proportions directly.
    pub fn from_proportions(
        hierarchy: Hierarchy,
        states: StateRegistry,
        grid: TimeGrid,
        rho: Vec<f64>,
    ) -> Self {
        let w = grid.slice_duration();
        assert!(
            rho.iter().all(|&r| (0.0..=1.0 + 1e-9).contains(&r)),
            "proportions must lie in [0, 1]"
        );
        let durations = rho.into_iter().map(|r| r * w).collect();
        Self::from_dense(hierarchy, states, grid, durations)
    }

    /// The spatial hierarchy.
    #[inline]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The state registry.
    #[inline]
    pub fn states(&self) -> &StateRegistry {
        &self.states
    }

    /// The time grid.
    #[inline]
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// `|S|`: number of leaf resources.
    #[inline]
    pub fn n_leaves(&self) -> usize {
        self.hierarchy.n_leaves()
    }

    /// `|X|`: number of states.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// `|T|`: number of time slices.
    #[inline]
    pub fn n_slices(&self) -> usize {
        self.grid.n_slices()
    }

    #[inline]
    fn idx(&self, leaf: usize, state: usize, slice: usize) -> usize {
        (leaf * self.n_states() + state) * self.n_slices() + slice
    }

    /// `d_x(s,t)`: time `s` spent in `x` during slice `t`.
    #[inline]
    pub fn duration(&self, leaf: LeafId, state: StateId, slice: usize) -> f64 {
        self.durations[self.idx(leaf.index(), state.index(), slice)]
    }

    /// `ρ_x(s,t) = d_x(s,t)/d(t)`.
    #[inline]
    pub fn rho(&self, leaf: LeafId, state: StateId, slice: usize) -> f64 {
        self.duration(leaf, state, slice) / self.grid.slice_duration()
    }

    /// Time series `d_x(s, ·)` for one (leaf, state): a slice of length `|T|`.
    #[inline]
    pub fn series(&self, leaf: LeafId, state: StateId) -> &[f64] {
        let base = self.idx(leaf.index(), state.index(), 0);
        &self.durations[base..base + self.n_slices()]
    }

    /// Total recorded time of `s` during slice `t` (all states).
    pub fn total(&self, leaf: LeafId, slice: usize) -> f64 {
        (0..self.n_states())
            .map(|x| self.duration(leaf, StateId(x as u16), slice))
            .sum()
    }

    /// Sum of all recorded durations (diagnostic).
    pub fn grand_total(&self) -> f64 {
        self.durations.iter().sum()
    }

    /// Mutable time series `d_x(s, ·)` for one (leaf, state): the in-place
    /// accumulation target of the live append path.
    #[inline]
    pub fn series_mut(&mut self, leaf: LeafId, state: StateId) -> &mut [f64] {
        let base = self.idx(leaf.index(), state.index(), 0);
        let n = self.n_slices();
        &mut self.durations[base..base + n]
    }

    /// Rebuild this model over a longer grid of the **same slice width**:
    /// every existing `(leaf, state)` series keeps its cells at the same
    /// slice indices and the new tail slices start at zero. The caller
    /// guarantees `grid` extends the current one by whole slices; this
    /// only re-lays the storage (the slice stride changes).
    pub fn regrow(&mut self, grid: TimeGrid) {
        let old = self.n_slices();
        let new = grid.n_slices();
        assert!(new >= old, "regrow cannot shrink the grid");
        let rows = self.n_leaves() * self.n_states();
        let mut durations = vec![0.0f64; rows * new];
        for row in 0..rows {
            durations[row * new..row * new + old]
                .copy_from_slice(&self.durations[row * old..(row + 1) * old]);
        }
        self.grid = grid;
        self.durations = durations;
    }

    /// Drill down (Ocelotl's zoom): extract the sub-model of one hierarchy
    /// subtree over a slice window `[first_slice, last_slice]`.
    ///
    /// The result is a self-contained microscopic model whose hierarchy is
    /// the subtree re-rooted at `node` and whose grid covers exactly the
    /// window — suitable for re-running the aggregation at a finer
    /// resolution on the region an anomaly was detected in.
    pub fn submodel(&self, node: NodeId, first_slice: usize, last_slice: usize) -> MicroModel {
        assert!(first_slice <= last_slice && last_slice < self.n_slices());
        let h = self.hierarchy();

        // Re-rooted hierarchy preserving names/kinds and leaf order.
        let mut b = HierarchyBuilder::new(h.name(node), h.kind(node));
        let mut stack: Vec<(NodeId, NodeId)> = h
            .children(node)
            .iter()
            .rev()
            .map(|&c| (c, b.root()))
            .collect();
        // Depth-first copy: pop gives pre-order because children were
        // pushed reversed.
        let mut copies: Vec<(NodeId, NodeId)> = Vec::new();
        while let Some((orig, parent)) = stack.pop() {
            let copy = b.add_child(parent, h.name(orig), h.kind(orig));
            copies.push((orig, copy));
            for &c in h.children(orig).iter().rev() {
                stack.push((c, copy));
            }
        }
        let hierarchy = b.build().expect("subtree copy is valid");

        let (w0, _) = self.grid.slice_bounds(first_slice);
        let (_, w1) = self.grid.slice_bounds(last_slice);
        let n_slices = last_slice - first_slice + 1;
        let grid = TimeGrid::new(w0, w1, n_slices);

        let leaf_range = h.leaf_range(node);
        let n_leaves = leaf_range.len();
        let n_states = self.n_states();
        let mut durations = vec![0.0f64; n_leaves * n_states * n_slices];
        for (new_leaf, old_leaf) in leaf_range.enumerate() {
            for x in 0..n_states {
                let series = self.series(LeafId(old_leaf as u32), StateId(x as u16));
                let dst = (new_leaf * n_states + x) * n_slices;
                durations[dst..dst + n_slices].copy_from_slice(&series[first_slice..=last_slice]);
            }
        }
        debug_assert_eq!(hierarchy.n_leaves(), n_leaves);
        MicroModel {
            hierarchy,
            states: self.states.clone(),
            grid,
            durations,
        }
    }

    /// Stack two metric layers over the same space × time grid into one
    /// multi-metric model: the state dimensions are concatenated (`other`'s
    /// state names are prefixed with `prefix` to avoid collisions).
    ///
    /// The paper's information criterion is additive over the state
    /// dimension (§III.C), so aggregating a stacked model optimizes the
    /// *joint* trade-off: an area must be homogeneous in **every** layer to
    /// aggregate cheaply. This is how MPI states and a binned hardware
    /// counter can drive one overview together.
    ///
    /// Panics if the hierarchies or grids differ.
    ///
    /// ```
    /// use ocelotl_trace::{Hierarchy, MicroModel, StateRegistry, TimeGrid};
    ///
    /// let h = Hierarchy::flat(2, "p");
    /// let grid = TimeGrid::new(0.0, 4.0, 4);
    /// let states = MicroModel::from_proportions(
    ///     h.clone(), StateRegistry::from_names(["Run"]), grid, vec![1.0; 8]);
    /// let counter = MicroModel::from_proportions(
    ///     h, StateRegistry::from_names(["hot"]), grid, vec![0.25; 8]);
    /// let joint = states.stack(&counter, "hw:");
    /// assert_eq!(joint.n_states(), 2);
    /// assert!(joint.states().get("hw:hot").is_some());
    /// ```
    pub fn stack(&self, other: &MicroModel, prefix: &str) -> MicroModel {
        assert_eq!(
            self.n_leaves(),
            other.n_leaves(),
            "stacked models need identical hierarchies"
        );
        assert_eq!(self.grid, other.grid, "stacked models need identical grids");
        let mut states = self.states.clone();
        let mut other_ids = Vec::with_capacity(other.n_states());
        for (_, name) in other.states.iter() {
            other_ids.push(states.intern(&format!("{prefix}{name}")));
        }
        assert_eq!(
            states.len(),
            self.n_states() + other.n_states(),
            "prefixed state names must not collide"
        );
        let n_states = states.len();
        let n_slices = self.n_slices();
        let mut durations = vec![0.0f64; self.n_leaves() * n_states * n_slices];
        for leaf in 0..self.n_leaves() {
            for x in 0..self.n_states() {
                let dst = (leaf * n_states + x) * n_slices;
                durations[dst..dst + n_slices]
                    .copy_from_slice(self.series(LeafId(leaf as u32), StateId(x as u16)));
            }
            for (x, &sid) in other_ids.iter().enumerate() {
                let dst = (leaf * n_states + sid.index()) * n_slices;
                durations[dst..dst + n_slices]
                    .copy_from_slice(other.series(LeafId(leaf as u32), StateId(x as u16)));
            }
        }
        MicroModel {
            hierarchy: self.hierarchy.clone(),
            states,
            grid: self.grid,
            durations,
        }
    }

    /// Zoom with a finer grid: like [`MicroModel::submodel`] but the caller
    /// provides the original trace to re-slice the window into `n_slices`
    /// fresh periods (full microscopic precision inside the window).
    pub fn zoom_from_trace(
        trace: &Trace,
        node: NodeId,
        t0: Time,
        t1: Time,
        n_slices: usize,
    ) -> MicroModel {
        let h = &trace.hierarchy;
        let leaf_range = h.leaf_range(node);
        let grid = TimeGrid::new(t0, t1, n_slices);
        // Build a filtered trace restricted to the subtree's leaves.
        let full = Self::from_trace_with_grid(trace, grid);
        full.submodel_of_full(node, leaf_range)
    }

    /// Helper for [`MicroModel::zoom_from_trace`]: restrict an
    /// already-resliced model to a subtree (keeping its full grid).
    fn submodel_of_full(&self, node: NodeId, leaf_range: std::ops::Range<usize>) -> MicroModel {
        let sub = self.submodel(node, 0, self.n_slices() - 1);
        debug_assert_eq!(sub.n_leaves(), leaf_range.len());
        sub
    }
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn accumulate(
    acc: &mut [f64],
    n_states: usize,
    n_slices: usize,
    grid: &TimeGrid,
    resource: LeafId,
    state: StateId,
    begin: Time,
    end: Time,
) {
    let base = (resource.index() * n_states + state.index()) * n_slices;
    for (slice, overlap) in grid.prorate(begin, end) {
        acc[base + slice] += overlap;
    }
}

/// Streaming accumulator for building a [`MicroModel`] without materializing
/// the event list (used by the format readers: the paper's "microscopic
/// description" stage).
pub struct MicroBuilder {
    model: MicroModel,
}

impl MicroBuilder {
    /// Start a zeroed accumulator for the given dimensions.
    pub fn new(hierarchy: Hierarchy, states: StateRegistry, grid: TimeGrid) -> Self {
        let size = hierarchy.n_leaves() * states.len() * grid.n_slices();
        Self {
            model: MicroModel {
                hierarchy,
                states,
                grid,
                durations: vec![0.0; size],
            },
        }
    }

    /// Add one state interval.
    #[inline]
    pub fn add(&mut self, resource: LeafId, state: StateId, begin: Time, end: Time) {
        let n_states = self.model.n_states();
        let n_slices = self.model.n_slices();
        let grid = self.model.grid;
        accumulate(
            &mut self.model.durations,
            n_states,
            n_slices,
            &grid,
            resource,
            state,
            begin,
            end,
        );
    }

    /// Finish and return the accumulated model.
    pub fn finish(self) -> MicroModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn two_proc_trace() -> Trace {
        let h = Hierarchy::flat(2, "p");
        let mut b = TraceBuilder::new(h);
        let a = b.state("A");
        let c = b.state("B");
        // p0: A over [0,6), B over [6,10)
        b.push_state(LeafId(0), a, 0.0, 6.0);
        b.push_state(LeafId(0), c, 6.0, 10.0);
        // p1: B over [0,10)
        b.push_state(LeafId(1), c, 0.0, 10.0);
        b.build()
    }

    #[test]
    fn durations_prorated_onto_slices() {
        let t = two_proc_trace();
        let m = MicroModel::from_trace(&t, 5).unwrap();
        let a = t.states.get("A").unwrap();
        let bst = t.states.get("B").unwrap();
        // slice width 2.0; p0 in A fully covers slices 0..3
        assert!((m.duration(LeafId(0), a, 0) - 2.0).abs() < 1e-12);
        assert!((m.duration(LeafId(0), a, 2) - 2.0).abs() < 1e-12);
        assert!((m.duration(LeafId(0), a, 3) - 0.0).abs() < 1e-12);
        assert!((m.duration(LeafId(0), bst, 3) - 2.0).abs() < 1e-12);
        // rho
        assert!((m.rho(LeafId(0), a, 0) - 1.0).abs() < 1e-12);
        assert!((m.rho(LeafId(1), bst, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grand_total_matches_event_durations() {
        let t = two_proc_trace();
        let m = MicroModel::from_trace(&t, 7).unwrap();
        let expected: f64 = t.intervals.iter().map(|iv| iv.duration()).sum();
        assert!((m.grand_total() - expected).abs() < 1e-9);
    }

    #[test]
    fn interval_straddling_slice_boundary_splits() {
        let h = Hierarchy::flat(1, "p");
        let mut b = TraceBuilder::new(h);
        let s = b.state("S");
        b.push_state(LeafId(0), s, 0.0, 10.0); // extend range to [0,10]
        b.push_state(LeafId(0), s, 4.5, 5.5);
        let t = b.build();
        let m = MicroModel::from_trace(&t, 10).unwrap();
        // second interval contributes 0.5 to slices 4 and 5 (plus full cover from first)
        assert!((m.duration(LeafId(0), s, 4) - 1.5).abs() < 1e-12);
        assert!((m.duration(LeafId(0), s, 5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn streaming_builder_matches_batch() {
        let t = two_proc_trace();
        let m1 = MicroModel::from_trace(&t, 4).unwrap();
        let grid = *m1.grid();
        let mut mb = MicroBuilder::new(t.hierarchy.clone(), t.states.clone(), grid);
        for iv in &t.intervals {
            mb.add(iv.resource, iv.state, iv.begin, iv.end);
        }
        let m2 = mb.finish();
        for l in 0..2 {
            for x in 0..2 {
                for s in 0..4 {
                    let d1 = m1.duration(LeafId(l), StateId(x), s);
                    let d2 = m2.duration(LeafId(l), StateId(x), s);
                    assert!((d1 - d2).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn from_proportions_scales_by_slice_duration() {
        let h = Hierarchy::flat(1, "p");
        let states = StateRegistry::from_names(["X"]);
        let grid = TimeGrid::new(0.0, 20.0, 4); // d(t) = 5
        let m = MicroModel::from_proportions(h, states, grid, vec![0.5, 1.0, 0.0, 0.25]);
        assert!((m.duration(LeafId(0), StateId(0), 0) - 2.5).abs() < 1e-12);
        assert!((m.rho(LeafId(0), StateId(0), 1) - 1.0).abs() < 1e-12);
        assert!((m.rho(LeafId(0), StateId(0), 3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_gives_none() {
        let t = TraceBuilder::new(Hierarchy::flat(1, "p")).build();
        assert!(MicroModel::from_trace(&t, 10).is_none());
    }

    #[test]
    fn series_has_unit_stride_layout() {
        let t = two_proc_trace();
        let m = MicroModel::from_trace(&t, 5).unwrap();
        let a = t.states.get("A").unwrap();
        let s = m.series(LeafId(0), a);
        assert_eq!(s.len(), 5);
        assert!((s[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn submodel_extracts_subtree_window() {
        use crate::hierarchy::HierarchyBuilder;
        let mut b = HierarchyBuilder::new("root", "root");
        let c0 = b.add_child(b.root(), "c0", "cluster");
        let c1 = b.add_child(b.root(), "c1", "cluster");
        b.add_child(c0, "a", "m");
        b.add_child(c0, "b", "m");
        b.add_child(c1, "c", "m");
        let h = b.build().unwrap();
        let states = StateRegistry::from_names(["x", "y"]);
        let grid = TimeGrid::new(0.0, 10.0, 10);
        let mut data = vec![0.0; 3 * 2 * 10];
        // distinct value per (leaf, state, slice) for traceability
        for (i, v) in data.iter_mut().enumerate() {
            *v = i as f64;
        }
        let m = MicroModel::from_dense(h.clone(), states, grid, data);

        let c0 = m.hierarchy().find_path("c0").unwrap();
        let sub = m.submodel(c0, 3, 7);
        assert_eq!(sub.n_leaves(), 2);
        assert_eq!(sub.n_slices(), 5);
        assert_eq!(sub.n_states(), 2);
        assert_eq!(sub.hierarchy().name(sub.hierarchy().root()), "c0");
        assert_eq!(sub.grid().start(), 3.0);
        assert_eq!(sub.grid().end(), 8.0);
        // Values preserved: sub leaf 0 == original leaf 0 ("a").
        for x in 0..2u16 {
            for t in 0..5 {
                assert_eq!(
                    sub.duration(LeafId(0), StateId(x), t),
                    m.duration(LeafId(0), StateId(x), t + 3)
                );
                assert_eq!(
                    sub.duration(LeafId(1), StateId(x), t),
                    m.duration(LeafId(1), StateId(x), t + 3)
                );
            }
        }
        // Leaf names preserved in order.
        assert_eq!(
            sub.hierarchy().name(sub.hierarchy().leaf_node(LeafId(0))),
            "a"
        );
        assert_eq!(
            sub.hierarchy().name(sub.hierarchy().leaf_node(LeafId(1))),
            "b"
        );
    }

    #[test]
    fn submodel_of_leaf_node() {
        let m = crate::synthetic::fig3_model();
        let h = m.hierarchy();
        let leaf_node = h.leaf_node(LeafId(5));
        let sub = m.submodel(leaf_node, 0, 19);
        assert_eq!(sub.n_leaves(), 1);
        for t in 0..20 {
            assert!(
                (sub.rho(LeafId(0), StateId(0), t) - m.rho(LeafId(5), StateId(0), t)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn zoom_from_trace_reslices_window() {
        let t = two_proc_trace();
        let root = t.hierarchy.root();
        let z = MicroModel::zoom_from_trace(&t, root, 2.0, 8.0, 12);
        assert_eq!(z.n_slices(), 12);
        assert_eq!(z.grid().start(), 2.0);
        assert_eq!(z.grid().end(), 8.0);
        // total mass inside the window: p0 A over [2,6) = 4, B over [6,8) = 2,
        // p1 B over [2,8) = 6.
        assert!((z.grand_total() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn stack_concatenates_state_dimensions() {
        let t = two_proc_trace();
        let m = MicroModel::from_trace(&t, 5).unwrap();
        let grid = *m.grid();
        let states = StateRegistry::from_names(["load"]);
        let other = MicroModel::from_dense(m.hierarchy().clone(), states, grid, vec![0.5; 2 * 5]);
        let stacked = m.stack(&other, "hw:");
        assert_eq!(stacked.n_states(), 3);
        assert_eq!(stacked.n_leaves(), 2);
        // Original layers preserved.
        let a = stacked.states().get("A").unwrap();
        assert_eq!(
            stacked.duration(LeafId(0), a, 0),
            m.duration(LeafId(0), m.states().get("A").unwrap(), 0)
        );
        // New layer reachable under its prefixed name.
        let load = stacked.states().get("hw:load").unwrap();
        assert_eq!(stacked.duration(LeafId(1), load, 3), 0.5);
        // Totals add up.
        assert!((stacked.grand_total() - (m.grand_total() + other.grand_total())).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "identical grids")]
    fn stack_rejects_mismatched_grids() {
        let t = two_proc_trace();
        let m1 = MicroModel::from_trace(&t, 5).unwrap();
        let m2 = MicroModel::from_trace(&t, 7).unwrap();
        let _ = m1.stack(&m2, "x:");
    }

    #[test]
    #[should_panic(expected = "collide")]
    fn stack_rejects_name_collisions() {
        let t = two_proc_trace();
        let m = MicroModel::from_trace(&t, 5).unwrap();
        let _ = m.stack(&m, ""); // empty prefix: "A" collides with "A"
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Force the parallel path by synthesizing > 2*CHUNK intervals.
        let h = Hierarchy::flat(4, "p");
        let mut b = TraceBuilder::new(h);
        let s = b.state("S");
        let n = 1 << 18;
        for i in 0..n {
            let r = LeafId((i % 4) as u32);
            let t0 = (i as f64) / n as f64 * 100.0;
            b.push_state(r, s, t0, t0 + 0.001);
        }
        let t = b.build();
        let m = MicroModel::from_trace(&t, 16).unwrap();
        let expected: f64 = t.intervals.iter().map(|iv| iv.duration()).sum();
        // Clipping at the grid edge may drop a hair of the last interval.
        assert!((m.grand_total() - expected).abs() < 1e-6);
    }
}
