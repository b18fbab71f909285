//! Models and cube wrappers the property tests of `cube`, `dp` and
//! `pvalues` share.

use crate::cube::QualityCube;
use ocelotl_trace::synthetic::{block_model, random_model, Block};
use ocelotl_trace::{Hierarchy, MicroModel, NodeId, StateId, StateRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hierarchy shapes for the kernel property: flat, two levels, and
/// single-child chains (whose spatial cut ties with "keep").
pub(crate) const SHAPES: [&[usize]; 4] = [&[3], &[2, 3], &[2, 1, 2], &[1, 2, 2]];

/// `|T|` below, at and around the block width.
pub(crate) const SLICE_COUNTS: [usize; 8] = [1, 7, 8, 9, 16, 17, 33, 64];

/// A random trace: every leaf runs through random states (and idle
/// gaps) over `[0, 100)`.
pub(crate) fn random_trace(shape: &[usize], n_states: usize, seed: u64) -> ocelotl_trace::Trace {
    let h = Hierarchy::balanced(shape);
    let n_leaves = h.n_leaves();
    let mut b = ocelotl_trace::TraceBuilder::new(h);
    let states: Vec<_> = (0..n_states).map(|x| b.state(&format!("s{x}"))).collect();
    let mut rng = ocelotl_trace::synthetic::SplitMix64(seed);
    for leaf in 0..n_leaves {
        let mut t = 0.0;
        while t < 100.0 {
            let end = (t + rng.range(0.05, 6.0)).min(100.0);
            if rng.below(5) > 0 {
                let x = states[rng.below(n_states)];
                b.push_state(ocelotl_trace::LeafId(leaf as u32), x, t, end);
            }
            t = end;
        }
    }
    b.build()
}

/// A pure model: every leaf-slice cell is one-hot (or empty) and the
/// cells form a few homogeneous blocks, so every zero-loss partition
/// ties.
pub(crate) fn pure_random_blocks(
    shape: &[usize],
    n_slices: usize,
    n_states: usize,
    seed: u64,
) -> ocelotl_trace::MicroModel {
    let h = Hierarchy::balanced(shape);
    let n_leaves = h.n_leaves();
    let names: Vec<String> = (0..n_states).map(|x| format!("s{x}")).collect();
    let mut rng = ocelotl_trace::synthetic::SplitMix64(seed);
    let one_hot = |x: usize| (0..n_states).map(|y| f64::from(u8::from(x == y))).collect();
    let mut blocks = vec![Block {
        leaves: 0..n_leaves,
        slices: 0..n_slices,
        rho: one_hot(0),
    }];
    for _ in 0..rng.below(4) {
        let l0 = rng.below(n_leaves);
        let s0 = rng.below(n_slices);
        blocks.push(Block {
            leaves: l0..l0 + 1 + rng.below(n_leaves - l0),
            slices: s0..s0 + 1 + rng.below(n_slices - s0),
            // `n_states` selects the empty (all-zero) cell.
            rho: one_hot(rng.below(n_states + 1)),
        });
    }
    block_model(h, StateRegistry::from_names(names), n_slices, &blocks)
}

/// A model of one of four kinds over `shape` at `t` slices: `random_model`
/// (0), the States (1) or Density (2) model of a [`random_trace`], or pure
/// blocks with empty cells (3).
pub(crate) fn model_of_kind(
    kind: usize,
    shape: &[usize],
    t: usize,
    n_states: usize,
    seed: u64,
) -> MicroModel {
    let from_trace = |metric: crate::session::Metric| {
        metric
            .build_model(&random_trace(shape, n_states, seed), t)
            .expect("every random trace has intervals")
    };
    match kind {
        0 => random_model(shape, t, n_states, seed),
        1 => from_trace(crate::session::Metric::States),
        2 => from_trace(crate::session::Metric::Density),
        _ => pure_random_blocks(shape, t, n_states, seed),
    }
}

/// A cube that answers rows through the trait's cell-by-cell default and
/// counts DP runs: every run scores the root's full interval once.
pub(crate) struct CellByCell<'a, C: QualityCube> {
    pub inner: &'a C,
    runs: AtomicUsize,
}

impl<'a, C: QualityCube> CellByCell<'a, C> {
    pub fn new(inner: &'a C) -> Self {
        Self {
            inner,
            runs: AtomicUsize::new(0),
        }
    }

    /// DP runs counted so far.
    pub fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }
}

impl<C: QualityCube> QualityCube for CellByCell<'_, C> {
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
        if node == self.hierarchy().root() && i == 0 && j + 1 == self.n_slices() {
            self.runs.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.gain_loss(node, i, j)
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        self.inner.rho_aggregate(node, x, i, j)
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}
