//! Variable (sampled-counter) metrics: CPU load, memory, hardware counters.
//!
//! The paper's introduction lists "CPU load, memory utilization or hardware
//! counters" among the event kinds a trace may carry, and the Ocelotl tool
//! family supports such *variables* alongside states. A variable is a
//! piecewise-constant (sample-and-hold) numeric signal per resource: a
//! sample `(t, v)` means the signal takes value `v` from `t` until the next
//! sample on the same `(resource, variable)` pair.
//!
//! Variables do not directly fit the state microscopic model, so they are
//! *binned*: a [`BinSpec`] partitions the value range into intervals, each
//! bin becomes a pseudo-state, and the time a resource's signal spends
//! inside a bin during a slice becomes `d_x(s,t)`. The output of
//! [`VariableTrace::micro_model`] is an ordinary
//! [`MicroModel`](crate::MicroModel), so Algorithm 1 and the whole
//! aggregation pipeline apply unchanged — a CPU-load anomaly shows up as
//! temporal/spatial cuts exactly like an MPI-state anomaly does.
//!
//! ```
//! use ocelotl_trace::{BinSpec, Hierarchy, LeafId, TimeGrid, VariableTraceBuilder};
//!
//! let mut b = VariableTraceBuilder::new(Hierarchy::flat(2, "core"));
//! let load = b.variable("cpu_load");
//! b.push_sample(LeafId(0), load, 0.0, 0.2);   // 20 % load from t = 0
//! b.push_sample(LeafId(0), load, 5.0, 0.9);   // jumps to 90 % at t = 5
//! b.push_sample(LeafId(1), load, 0.0, 0.2);
//! let trace = b.build();
//!
//! let grid = TimeGrid::new(0.0, 10.0, 10);
//! let model = trace.micro_model(load, grid, &BinSpec::uniform(0.0, 1.0, 4));
//! assert_eq!(model.n_states(), 4);            // one pseudo-state per bin
//! // Core 0 spends slice 7 entirely in the top-half bin:
//! let hot = model.states().get("cpu_load∈[0.750,1.000]").unwrap();
//! assert!((model.rho(LeafId(0), hot, 7) - 1.0).abs() < 1e-12);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::event::Time;
use crate::hierarchy::{Hierarchy, LeafId};
use crate::micro::{MicroBuilder, MicroModel};
use crate::slicing::TimeGrid;
use crate::state::StateRegistry;

/// Dense identifier of a variable within a [`VariableRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariableId(pub u16);

impl VariableId {
    /// Raw dense index for per-variable arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VariableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Interning table for variable names (mirrors
/// [`StateRegistry`](crate::StateRegistry)).
#[derive(Debug, Clone, Default)]
pub struct VariableRegistry {
    names: Vec<String>,
    index: BTreeMap<String, VariableId>,
}

impl VariableRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-insert a variable by name.
    pub fn intern(&mut self, name: &str) -> VariableId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = VariableId(
            u16::try_from(self.names.len()).expect("more than 65535 distinct variables"),
        );
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Look up a variable by name without inserting.
    pub fn get(&self, name: &str) -> Option<VariableId> {
        self.index.get(name).copied()
    }

    /// Name of a variable id.
    #[inline]
    pub fn name(&self, id: VariableId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct variables.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variables have been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VariableId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (VariableId(i as u16), n.as_str()))
    }
}

/// One sample of one variable on one resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarSample {
    /// The resource the sample belongs to.
    pub resource: LeafId,
    /// Which variable was sampled.
    pub variable: VariableId,
    /// Sample timestamp; the value holds from here to the next sample.
    pub time: Time,
    /// Sampled value (finite).
    pub value: f64,
}

/// A trace of sampled variables over a resource hierarchy.
///
/// Samples are stored grouped by `(resource, variable)` and sorted by time
/// within each group, so signal reconstruction is a linear scan.
#[derive(Debug, Clone)]
pub struct VariableTrace {
    /// The platform resource hierarchy (spatial dimension).
    pub hierarchy: Hierarchy,
    /// The interned variable names.
    pub variables: VariableRegistry,
    samples: Vec<VarSample>,
    /// `groups[resource * n_vars + var]` = range into `samples`.
    groups: Vec<std::ops::Range<usize>>,
    time_min: Time,
    time_max: Time,
}

impl VariableTrace {
    /// Observed time extent `[min, max]`; `None` without samples.
    pub fn time_range(&self) -> Option<(Time, Time)> {
        if self.samples.is_empty() {
            None
        } else {
            Some((self.time_min, self.time_max))
        }
    }

    /// Total number of samples.
    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }

    /// The time-sorted samples of `variable` on `resource`.
    pub fn series(&self, resource: LeafId, variable: VariableId) -> &[VarSample] {
        let idx = resource.index() * self.variables.len() + variable.index();
        &self.samples[self.groups[idx].clone()]
    }

    /// Minimum and maximum sampled value of `variable` across all
    /// resources; `None` if the variable has no samples.
    pub fn value_range(&self, variable: VariableId) -> Option<(f64, f64)> {
        let mut range: Option<(f64, f64)> = None;
        for s in &self.samples {
            if s.variable == variable {
                let (lo, hi) = range.get_or_insert((s.value, s.value));
                *lo = lo.min(s.value);
                *hi = hi.max(s.value);
            }
        }
        range
    }

    /// Reduce one variable to a state-shaped microscopic model.
    ///
    /// Each bin of `bins` becomes a pseudo-state named
    /// `"<variable>∈<bin label>"`; `d_x(s,t)` is the time the
    /// sample-and-hold signal of `s` spends inside bin `x` during slice `t`.
    /// Before a resource's first sample the signal is considered unrecorded
    /// (no mass — `Σ_x ρ_x < 1` there, which the measures handle); after the
    /// last sample the value holds until the grid end.
    pub fn micro_model(&self, variable: VariableId, grid: TimeGrid, bins: &BinSpec) -> MicroModel {
        let var_name = self.variables.name(variable);
        let mut binner = VariableBinner::new(self.hierarchy.clone(), var_name, grid, bins.clone());
        for leaf in 0..self.hierarchy.n_leaves() {
            let leaf = LeafId(leaf as u32);
            for s in self.series(leaf, variable) {
                binner.push(leaf, s.time, s.value);
            }
        }
        binner.finish()
    }

    /// Convenience: slice the observed time range into `n_slices` periods
    /// and bin `variable` into `n_bins` uniform bins over its observed value
    /// range. Returns `None` for empty traces or variables without samples.
    pub fn micro_model_auto(
        &self,
        variable: VariableId,
        n_slices: usize,
        n_bins: usize,
    ) -> Option<MicroModel> {
        let (t0, t1) = self.time_range()?;
        if t1 <= t0 {
            return None;
        }
        let (lo, hi) = self.value_range(variable)?;
        let bins = BinSpec::uniform(lo, hi, n_bins);
        let grid = TimeGrid::new(t0, t1, n_slices);
        Some(self.micro_model(variable, grid, &bins))
    }
}

/// Incremental construction of a [`VariableTrace`].
pub struct VariableTraceBuilder {
    hierarchy: Hierarchy,
    variables: VariableRegistry,
    samples: Vec<VarSample>,
    time_min: Time,
    time_max: Time,
}

impl VariableTraceBuilder {
    /// Start building over the given hierarchy.
    pub fn new(hierarchy: Hierarchy) -> Self {
        Self {
            hierarchy,
            variables: VariableRegistry::new(),
            samples: Vec::new(),
            time_min: f64::INFINITY,
            time_max: f64::NEG_INFINITY,
        }
    }

    /// The hierarchy this trace is being built over.
    #[inline]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Intern a variable name.
    pub fn variable(&mut self, name: &str) -> VariableId {
        self.variables.intern(name)
    }

    /// Record that `variable` on `resource` took `value` from `time` until
    /// the next sample on the same pair.
    pub fn push_sample(&mut self, resource: LeafId, variable: VariableId, time: Time, value: f64) {
        assert!(
            resource.index() < self.hierarchy.n_leaves(),
            "resource {resource:?} out of range"
        );
        assert!(value.is_finite(), "sample value must be finite");
        assert!(time.is_finite(), "sample time must be finite");
        self.time_min = self.time_min.min(time);
        self.time_max = self.time_max.max(time);
        self.samples.push(VarSample {
            resource,
            variable,
            time,
            value,
        });
    }

    /// Number of samples pushed so far.
    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }

    /// Finalize: group samples by `(resource, variable)` and sort each group
    /// by time (stable, so equal timestamps keep push order and the later
    /// push wins during reconstruction).
    pub fn build(self) -> VariableTrace {
        let n_vars = self.variables.len();
        let n_groups = self.hierarchy.n_leaves() * n_vars.max(1);
        let mut samples = self.samples;
        let key = |s: &VarSample| s.resource.index() * n_vars.max(1) + s.variable.index();
        samples.sort_by(|a, b| {
            key(a)
                .cmp(&key(b))
                .then(a.time.partial_cmp(&b.time).expect("finite times"))
        });
        let mut groups = vec![0..0; n_groups];
        let mut i = 0;
        while i < samples.len() {
            let k = key(&samples[i]);
            let start = i;
            while i < samples.len() && key(&samples[i]) == k {
                i += 1;
            }
            groups[k] = start..i;
        }
        VariableTrace {
            hierarchy: self.hierarchy,
            variables: self.variables,
            samples,
            groups,
            time_min: self.time_min,
            time_max: self.time_max,
        }
    }
}

/// Streaming sample-and-hold binner: the variable-metric member of the
/// metric-builder family ([`MicroBuilder`](crate::MicroBuilder) for
/// states, [`ModelSink`](crate::sink::ModelSink) for states/density over
/// an event stream). Samples are pushed one at a time — per resource in
/// non-decreasing time order — and held until the next sample on the same
/// resource (or the grid end at [`VariableBinner::finish`]), without ever
/// storing the sample list. Memory is O(model + |S|).
pub struct VariableBinner {
    builder: MicroBuilder,
    bins: BinSpec,
    grid_end: Time,
    /// Last sample per resource still awaiting its hold-until bound.
    pending: Vec<Option<(Time, f64)>>,
}

impl VariableBinner {
    /// A binner for one variable over `grid`, binning values with `bins`.
    /// Bin `i` becomes the pseudo-state `"<var_name>∈<bin label>"`.
    pub fn new(hierarchy: Hierarchy, var_name: &str, grid: TimeGrid, bins: BinSpec) -> Self {
        let states = StateRegistry::from_names(
            (0..bins.n_bins()).map(|b| format!("{var_name}∈{}", bins.label(b))),
        );
        let n_leaves = hierarchy.n_leaves();
        Self {
            builder: MicroBuilder::new(hierarchy, states, grid),
            bins,
            grid_end: grid.end(),
            pending: vec![None; n_leaves],
        }
    }

    /// Record that `resource` took `value` at `time`. Samples on one
    /// resource must arrive in non-decreasing time order; a duplicate
    /// timestamp replaces the previous sample (the later sample wins).
    pub fn push(&mut self, resource: LeafId, time: Time, value: f64) {
        assert!(time.is_finite() && value.is_finite(), "non-finite sample");
        let slot = &mut self.pending[resource.index()];
        if let Some((t0, v0)) = *slot {
            assert!(
                time >= t0,
                "samples must arrive in time order per resource ({time} after {t0})"
            );
            if time > t0 {
                let bin = self.bins.bin_of(v0);
                self.builder
                    .add(resource, crate::StateId(bin as u16), t0, time);
            }
        }
        *slot = Some((time, value));
    }

    /// Close every resource's trailing sample at the grid end and return
    /// the accumulated model.
    pub fn finish(mut self) -> MicroModel {
        for (leaf, slot) in self.pending.iter().enumerate() {
            if let Some((t0, v0)) = *slot {
                if self.grid_end > t0 {
                    let bin = self.bins.bin_of(v0);
                    self.builder.add(
                        LeafId(leaf as u32),
                        crate::StateId(bin as u16),
                        t0,
                        self.grid_end,
                    );
                }
            }
        }
        self.builder.finish()
    }
}

/// A partition of a value range into labeled bins.
///
/// Bin `i` covers `[edges[i], edges[i+1])`; the last bin is closed on the
/// right. Values outside the range clamp to the first/last bin, so every
/// finite value maps to exactly one bin.
#[derive(Debug, Clone, PartialEq)]
pub struct BinSpec {
    edges: Vec<f64>,
}

impl BinSpec {
    /// `n_bins` uniform bins over `[lo, hi]`; requires `hi > lo` unless
    /// there is exactly one bin (constant signals bin fine with one bin).
    pub fn uniform(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(n_bins >= 1, "need at least one bin");
        assert!(
            hi > lo || n_bins == 1,
            "degenerate value range needs a single bin"
        );
        let w = if n_bins == 1 {
            1.0
        } else {
            (hi - lo) / n_bins as f64
        };
        let edges = (0..=n_bins).map(|i| lo + w * i as f64).collect();
        Self { edges }
    }

    /// Bins from explicit edges (strictly increasing, at least two).
    pub fn from_edges(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        assert!(
            edges.windows(2).all(|w| w[1] > w[0]),
            "edges must be strictly increasing"
        );
        Self { edges }
    }

    /// Number of bins.
    #[inline]
    pub fn n_bins(&self) -> usize {
        self.edges.len() - 1
    }

    /// The bin containing `value` (clamped to the outermost bins).
    pub fn bin_of(&self, value: f64) -> usize {
        if value < self.edges[0] {
            return 0;
        }
        let last = self.n_bins() - 1;
        if value >= self.edges[last + 1] {
            return last;
        }
        // Binary search over the (few) edges.
        match self
            .edges
            .binary_search_by(|e| e.partial_cmp(&value).expect("finite edges"))
        {
            Ok(i) => i.min(last),
            Err(i) => i - 1,
        }
    }

    /// Bounds `[lo, hi)` of bin `i`.
    pub fn bounds(&self, i: usize) -> (f64, f64) {
        (self.edges[i], self.edges[i + 1])
    }

    /// Human-readable label of bin `i`, e.g. `"[0.25,0.50)"`.
    pub fn label(&self, i: usize) -> String {
        let (lo, hi) = self.bounds(i);
        let closing = if i + 1 == self.n_bins() { ']' } else { ')' };
        format!("[{lo:.3},{hi:.3}{closing}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateId;

    fn flat(n: usize) -> Hierarchy {
        Hierarchy::flat(n, "core")
    }

    #[test]
    fn registry_interning_mirrors_states() {
        let mut r = VariableRegistry::new();
        let a = r.intern("cpu_load");
        let b = r.intern("mem");
        assert_ne!(a, b);
        assert_eq!(r.intern("cpu_load"), a);
        assert_eq!(r.get("mem"), Some(b));
        assert_eq!(r.get("nope"), None);
        assert_eq!(r.name(a), "cpu_load");
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        let names: Vec<&str> = r.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["cpu_load", "mem"]);
    }

    #[test]
    fn builder_sorts_out_of_order_samples() {
        let mut b = VariableTraceBuilder::new(flat(1));
        let v = b.variable("load");
        b.push_sample(LeafId(0), v, 5.0, 2.0);
        b.push_sample(LeafId(0), v, 1.0, 1.0);
        b.push_sample(LeafId(0), v, 3.0, 3.0);
        let t = b.build();
        let times: Vec<f64> = t.series(LeafId(0), v).iter().map(|s| s.time).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
        assert_eq!(t.time_range(), Some((1.0, 5.0)));
        assert_eq!(t.n_samples(), 3);
    }

    #[test]
    fn series_are_grouped_per_resource_and_variable() {
        let mut b = VariableTraceBuilder::new(flat(2));
        let v0 = b.variable("a");
        let v1 = b.variable("b");
        b.push_sample(LeafId(1), v1, 0.0, 10.0);
        b.push_sample(LeafId(0), v0, 0.0, 20.0);
        b.push_sample(LeafId(1), v0, 0.0, 30.0);
        let t = b.build();
        assert_eq!(t.series(LeafId(0), v0).len(), 1);
        assert_eq!(t.series(LeafId(0), v1).len(), 0);
        assert_eq!(t.series(LeafId(1), v0)[0].value, 30.0);
        assert_eq!(t.series(LeafId(1), v1)[0].value, 10.0);
    }

    #[test]
    fn value_range_across_resources() {
        let mut b = VariableTraceBuilder::new(flat(2));
        let v = b.variable("load");
        let other = b.variable("other");
        b.push_sample(LeafId(0), v, 0.0, -1.5);
        b.push_sample(LeafId(1), v, 2.0, 7.0);
        b.push_sample(LeafId(1), other, 0.0, 1000.0);
        let t = b.build();
        assert_eq!(t.value_range(v), Some((-1.5, 7.0)));
        assert_eq!(t.value_range(other), Some((1000.0, 1000.0)));
        assert_eq!(t.value_range(VariableId(9)), None);
    }

    #[test]
    fn uniform_bins_and_clamping() {
        let b = BinSpec::uniform(0.0, 1.0, 4);
        assert_eq!(b.n_bins(), 4);
        assert_eq!(b.bin_of(0.0), 0);
        assert_eq!(b.bin_of(0.24), 0);
        assert_eq!(b.bin_of(0.25), 1);
        assert_eq!(b.bin_of(0.999), 3);
        assert_eq!(b.bin_of(1.0), 3); // right edge closed on last bin
        assert_eq!(b.bin_of(-5.0), 0); // clamp below
        assert_eq!(b.bin_of(42.0), 3); // clamp above
    }

    #[test]
    fn explicit_edges_and_labels() {
        let b = BinSpec::from_edges(vec![0.0, 0.5, 2.0]);
        assert_eq!(b.n_bins(), 2);
        assert_eq!(b.bounds(1), (0.5, 2.0));
        assert_eq!(b.label(0), "[0.000,0.500)");
        assert_eq!(b.label(1), "[0.500,2.000]");
        assert_eq!(b.bin_of(0.5), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_edges_panic() {
        BinSpec::from_edges(vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn single_bin_spec_for_constant_signal() {
        let b = BinSpec::uniform(3.0, 3.0, 1);
        assert_eq!(b.n_bins(), 1);
        assert_eq!(b.bin_of(3.0), 0);
        assert_eq!(b.bin_of(-1.0), 0);
    }

    #[test]
    fn micro_model_step_holds_between_samples() {
        // One resource: value 0.1 over [0,5), then 0.9 over [5,10).
        let mut b = VariableTraceBuilder::new(flat(1));
        let v = b.variable("load");
        b.push_sample(LeafId(0), v, 0.0, 0.1);
        b.push_sample(LeafId(0), v, 5.0, 0.9);
        let t = b.build();
        let grid = TimeGrid::new(0.0, 10.0, 10);
        let bins = BinSpec::uniform(0.0, 1.0, 2);
        let m = t.micro_model(v, grid, &bins);
        assert_eq!(m.n_states(), 2);
        assert_eq!(m.n_slices(), 10);
        // slices 0..5 entirely in bin 0; 5..10 in bin 1 (holds to grid end)
        for s in 0..5 {
            assert!((m.duration(LeafId(0), StateId(0), s) - 1.0).abs() < 1e-12);
            assert_eq!(m.duration(LeafId(0), StateId(1), s), 0.0);
        }
        for s in 5..10 {
            assert_eq!(m.duration(LeafId(0), StateId(0), s), 0.0);
            assert!((m.duration(LeafId(0), StateId(1), s) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn micro_model_no_mass_before_first_sample() {
        let mut b = VariableTraceBuilder::new(flat(1));
        let v = b.variable("load");
        b.push_sample(LeafId(0), v, 4.0, 0.5);
        let t = b.build();
        let grid = TimeGrid::new(0.0, 10.0, 10);
        let bins = BinSpec::uniform(0.0, 1.0, 1);
        let m = t.micro_model(v, grid, &bins);
        for s in 0..4 {
            assert_eq!(m.total(LeafId(0), s), 0.0);
        }
        for s in 4..10 {
            assert!((m.total(LeafId(0), s) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn micro_model_duplicate_timestamp_later_sample_wins() {
        let mut b = VariableTraceBuilder::new(flat(1));
        let v = b.variable("load");
        b.push_sample(LeafId(0), v, 0.0, 0.1);
        b.push_sample(LeafId(0), v, 0.0, 0.9); // overrides at the same instant
        let t = b.build();
        let grid = TimeGrid::new(0.0, 2.0, 2);
        let bins = BinSpec::uniform(0.0, 1.0, 2);
        let m = t.micro_model(v, grid, &bins);
        assert_eq!(m.duration(LeafId(0), StateId(0), 0), 0.0);
        assert!((m.duration(LeafId(0), StateId(1), 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn micro_model_state_names_embed_variable_and_bin() {
        let mut b = VariableTraceBuilder::new(flat(1));
        let v = b.variable("cpu");
        b.push_sample(LeafId(0), v, 0.0, 0.5);
        let t = b.build();
        let grid = TimeGrid::new(0.0, 1.0, 1);
        let m = t.micro_model(v, grid, &BinSpec::uniform(0.0, 1.0, 2));
        assert!(m.states().get("cpu∈[0.000,0.500)").is_some());
        assert!(m.states().get("cpu∈[0.500,1.000]").is_some());
    }

    #[test]
    fn micro_model_auto_covers_observed_extent() {
        let mut b = VariableTraceBuilder::new(flat(2));
        let v = b.variable("load");
        b.push_sample(LeafId(0), v, 0.0, 0.0);
        b.push_sample(LeafId(0), v, 8.0, 1.0);
        b.push_sample(LeafId(1), v, 2.0, 0.5);
        let t = b.build();
        let m = t.micro_model_auto(v, 8, 4).unwrap();
        assert_eq!(m.n_slices(), 8);
        assert_eq!(m.n_states(), 4);
        assert_eq!(m.grid().start(), 0.0);
        assert_eq!(m.grid().end(), 8.0);
    }

    #[test]
    fn micro_model_auto_empty_cases() {
        let b = VariableTraceBuilder::new(flat(1));
        let t = b.build();
        assert!(t.micro_model_auto(VariableId(0), 10, 4).is_none());

        // Samples at a single instant: zero extent.
        let mut b = VariableTraceBuilder::new(flat(1));
        let v = b.variable("x");
        b.push_sample(LeafId(0), v, 1.0, 0.5);
        let t = b.build();
        assert!(t.micro_model_auto(v, 10, 4).is_none());
    }

    #[test]
    fn mass_conservation_from_first_sample_to_grid_end() {
        let mut b = VariableTraceBuilder::new(flat(1));
        let v = b.variable("load");
        for (t, val) in [(1.0, 0.2), (3.5, 0.7), (4.25, 0.1), (9.0, 0.99)] {
            b.push_sample(LeafId(0), v, t, val);
        }
        let t = b.build();
        let grid = TimeGrid::new(0.0, 10.0, 7);
        let m = t.micro_model(v, grid, &BinSpec::uniform(0.0, 1.0, 5));
        // Total mass = grid.end - first sample time = 9.0
        assert!((m.grand_total() - 9.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_resource_panics() {
        let mut b = VariableTraceBuilder::new(flat(1));
        let v = b.variable("x");
        b.push_sample(LeafId(3), v, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_value_panics() {
        let mut b = VariableTraceBuilder::new(flat(1));
        let v = b.variable("x");
        b.push_sample(LeafId(0), v, 0.0, f64::NAN);
    }
}
