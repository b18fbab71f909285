//! Quality cubes: memory-bounded access to `gain`/`loss` for every
//! `(node, interval)` pair.
//!
//! Algorithm 1 and every downstream consumer (the 1-D baselines, quality
//! reporting, p-value enumeration, the renderers) only ever ask one
//! question of the input stage: *what are `gain(S_k, T_(i,j))` and
//! `loss(S_k, T_(i,j))`?* The [`QualityCube`] trait is that question as an
//! abstraction boundary, answered by two cubes with opposite space/time
//! trade-offs:
//!
//! - [`CubeCore`] keeps only the per-node prefix sums, `O(|S|·|T|·|X|)`
//!   floats, and evaluates each cell on demand in `O(|X|)`. Memory is
//!   *linear* in `|T|`, which is what lets an aggregation run at
//!   `|T| = 2048+` on hierarchies where the dense matrices would need
//!   hundreds of gigabytes.
//! - [`DenseCube`] precomputes one upper-triangular matrix per hierarchy
//!   node per measure from those sums — `O(|S|·|T|²)` floats resident,
//!   `O(1)` per query. This is the paper's §III.E data structure and what
//!   makes re-running the optimizer at a new trade-off `p`
//!   "instantaneous" (§V.B).
//!
//! Every cell either cube serves is evaluated by [`CubeCore::eval_cell`],
//! the same arithmetic in the same order, so their answers are
//! **bit-identical** — a property the equivalence test-suite pins down.
//! The session never makes the user choose: an
//! [`AnalysisSession`](crate::AnalysisSession) keeps the prefix sums and
//! lets the first DP build the dense matrices when they fit under
//! [`DENSE_LIMIT_BYTES`].

use crate::measures::{xlog2x, AreaSums};
use crate::tri::TriMatrix;
use ocelotl_trace::{Hierarchy, LeafId, MicroModel, NodeId, StateId, StateRegistry, TimeGrid};
use rayon::prelude::*;

/// Uniform query interface over the aggregation inputs.
///
/// `Sync` is a supertrait because the optimizer forks over hierarchy
/// siblings and shares the cube across worker threads.
pub trait QualityCube: Sync {
    /// The spatial hierarchy.
    fn hierarchy(&self) -> &Hierarchy;

    /// The state registry.
    fn states(&self) -> &StateRegistry;

    /// `|T|`: number of time slices.
    fn n_slices(&self) -> usize;

    /// `d(t)`: duration of one slice.
    fn slice_duration(&self) -> f64;

    /// `gain(S_k, T_(i,j))` summed over states (Eq. 3).
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64;

    /// `loss(S_k, T_(i,j))` summed over states (Eq. 2).
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64;

    /// Both measures of one cell. Cubes that evaluate on demand answer
    /// this in a single pass over the states; prefer it in inner loops.
    fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        (self.gain(node, i, j), self.loss(node, i, j))
    }

    /// `|X|`: number of states.
    fn n_states(&self) -> usize {
        self.states().len()
    }

    /// Aggregated proportion `ρ_x(S_k, T_(i,j))` per Eq. 1.
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64;

    /// All aggregated proportions of an area, indexed by state.
    fn rho_aggregate_all(&self, node: NodeId, i: usize, j: usize) -> Vec<f64> {
        (0..self.n_states())
            .map(|x| self.rho_aggregate(node, StateId(x as u16), i, j))
            .collect()
    }

    /// Estimated resident size of the cube in bytes (diagnostic).
    fn memory_bytes(&self) -> usize;
}

/// Blanket impl so generic consumers accept `&DenseCube`, `&dyn
/// QualityCube`, boxed cubes, etc. without extra plumbing.
impl<C: QualityCube + ?Sized> QualityCube for &C {
    fn hierarchy(&self) -> &Hierarchy {
        (**self).hierarchy()
    }
    fn states(&self) -> &StateRegistry {
        (**self).states()
    }
    fn n_slices(&self) -> usize {
        (**self).n_slices()
    }
    fn slice_duration(&self) -> f64 {
        (**self).slice_duration()
    }
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        (**self).gain(node, i, j)
    }
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        (**self).loss(node, i, j)
    }
    fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        (**self).gain_loss(node, i, j)
    }
    fn n_states(&self) -> usize {
        (**self).n_states()
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        (**self).rho_aggregate(node, x, i, j)
    }
    fn rho_aggregate_all(&self, node: NodeId, i: usize, j: usize) -> Vec<f64> {
        (**self).rho_aggregate_all(node, i, j)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
}

// ---------------------------------------------------------------------------
// Prefix sums: the on-demand cube
// ---------------------------------------------------------------------------

/// The per-node prefix sums: for every hierarchy node and state, running
/// sums over time of `Σ_s d_x(s,t)` and `Σ_s ρ_x·log₂ρ_x` (leaves read the
/// microscopic model, internal nodes sum their children). Any cell
/// `(node, [i, j])` evaluates from these in `O(|X|)` — see
/// [`CubeCore::eval_cell`], which answers every [`QualityCube`] query of
/// this cube and builds every matrix of a [`DenseCube`].
#[derive(Debug, Clone)]
pub struct CubeCore {
    hierarchy: Hierarchy,
    states: StateRegistry,
    /// The time grid of the microscopic model the core was built from.
    /// Carrying the full grid (not just the slice duration) lets a core
    /// deserialized from an `.ocube` artifact serve every time-axis query
    /// (slice bounds, trace extent) without reloading the trace.
    grid: TimeGrid,
    /// Per node: prefix sums of `Σ_s d_x(s,t)`, laid out `[state × (|T|+1)]`.
    prefix_duration: Vec<Vec<f64>>,
    /// Per node: prefix sums of `Σ_s ρ_x·log₂ρ_x`, same layout.
    prefix_info: Vec<Vec<f64>>,
}

impl CubeCore {
    /// Build the prefix sums from a microscopic model (leaves in
    /// parallel, internal nodes summed in post-order).
    pub fn build(model: &MicroModel) -> Self {
        let hierarchy = model.hierarchy().clone();
        let states = model.states().clone();
        let grid = *model.grid();
        let n_slices = model.n_slices();
        let n_states = model.n_states();
        let n_nodes = hierarchy.len();
        let slice_duration = grid.slice_duration();
        assert!(n_states >= 1, "need at least one state");

        let stride = n_slices + 1;

        let mut prefix_duration: Vec<Vec<f64>> = vec![Vec::new(); n_nodes];
        let mut prefix_info: Vec<Vec<f64>> = vec![Vec::new(); n_nodes];

        // Leaves in parallel.
        let leaf_prefixes: Vec<(usize, Vec<f64>, Vec<f64>)> = (0..hierarchy.n_leaves())
            .into_par_iter()
            .map(|leaf| {
                let node = hierarchy.leaf_node(LeafId(leaf as u32));
                let mut pd = vec![0.0; n_states * stride];
                let mut pi = vec![0.0; n_states * stride];
                for x in 0..n_states {
                    let series = model.series(LeafId(leaf as u32), StateId(x as u16));
                    let (pd_row, pi_row) = (x * stride, x * stride);
                    let mut acc_d = 0.0;
                    let mut acc_i = 0.0;
                    for (t, &d) in series.iter().enumerate() {
                        acc_d += d;
                        acc_i += xlog2x(d / slice_duration);
                        pd[pd_row + t + 1] = acc_d;
                        pi[pi_row + t + 1] = acc_i;
                    }
                }
                (node.index(), pd, pi)
            })
            .collect();
        for (idx, pd, pi) in leaf_prefixes {
            prefix_duration[idx] = pd;
            prefix_info[idx] = pi;
        }

        // Internal nodes: sum of children, in post-order (children first).
        for &node in hierarchy.post_order() {
            if hierarchy.is_leaf(node) {
                continue;
            }
            let mut pd = vec![0.0; n_states * stride];
            let mut pi = vec![0.0; n_states * stride];
            for &c in hierarchy.children(node) {
                let (cpd, cpi) = (&prefix_duration[c.index()], &prefix_info[c.index()]);
                for (a, &b) in pd.iter_mut().zip(cpd) {
                    *a += b;
                }
                for (a, &b) in pi.iter_mut().zip(cpi) {
                    *a += b;
                }
            }
            prefix_duration[node.index()] = pd;
            prefix_info[node.index()] = pi;
        }

        Self {
            hierarchy,
            states,
            grid,
            prefix_duration,
            prefix_info,
        }
    }

    /// Reassemble a core from its serialized parts (the `.ocube` reader's
    /// entry point). Validates the shape invariants the builder guarantees:
    /// one row pair per hierarchy node, each `|X| × (|T|+1)` long.
    pub fn from_raw(
        hierarchy: Hierarchy,
        states: StateRegistry,
        grid: TimeGrid,
        prefix_duration: Vec<Vec<f64>>,
        prefix_info: Vec<Vec<f64>>,
    ) -> Result<Self, String> {
        if states.is_empty() {
            return Err("need at least one state".into());
        }
        let n_nodes = hierarchy.len();
        if prefix_duration.len() != n_nodes || prefix_info.len() != n_nodes {
            return Err(format!(
                "prefix rows ({} duration, {} info) do not match {n_nodes} nodes",
                prefix_duration.len(),
                prefix_info.len()
            ));
        }
        let row_len = states.len() * (grid.n_slices() + 1);
        for (idx, (pd, pi)) in prefix_duration.iter().zip(&prefix_info).enumerate() {
            if pd.len() != row_len || pi.len() != row_len {
                return Err(format!(
                    "node {idx}: row lengths ({}, {}) != |X|·(|T|+1) = {row_len}",
                    pd.len(),
                    pi.len()
                ));
            }
        }
        Ok(Self {
            hierarchy,
            states,
            grid,
            prefix_duration,
            prefix_info,
        })
    }

    /// The time grid of the underlying microscopic model.
    #[inline]
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// Raw duration prefix sums of one node, laid out `[state × (|T|+1)]`
    /// (serialization hook for the `.ocube` writer).
    #[inline]
    pub fn prefix_duration_row(&self, node: NodeId) -> &[f64] {
        &self.prefix_duration[node.index()]
    }

    /// Raw information prefix sums of one node, same layout.
    #[inline]
    pub fn prefix_info_row(&self, node: NodeId) -> &[f64] {
        &self.prefix_info[node.index()]
    }

    /// Evaluate `(gain, loss)` of one cell in `O(|X|)` from the prefix
    /// sums. Every cell either cube ever serves goes through this one
    /// function, which is what makes dense and on-demand answers
    /// bit-identical (same operations in the same order).
    #[inline]
    pub fn eval_cell(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        let idx = node.index();
        let n_res = self.hierarchy.n_leaves_under(node);
        let stride = self.grid.n_slices() + 1;
        let slice_duration = self.grid.slice_duration();
        let pd = &self.prefix_duration[idx];
        let pi = &self.prefix_info[idx];
        let period = (j - i + 1) as f64 * slice_duration;
        let mut g = 0.0;
        let mut l = 0.0;
        for x in 0..self.states.len() {
            let row = x * stride;
            let sums = AreaSums {
                sum_duration: pd[row + j + 1] - pd[row + i],
                sum_rho: (pd[row + j + 1] - pd[row + i]) / slice_duration,
                sum_rho_log_rho: pi[row + j + 1] - pi[row + i],
            };
            g += sums.gain(n_res, period);
            l += sums.loss(n_res, period);
        }
        (g, l)
    }
}

impl QualityCube for CubeCore {
    #[inline]
    fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
    #[inline]
    fn states(&self) -> &StateRegistry {
        &self.states
    }
    #[inline]
    fn n_slices(&self) -> usize {
        self.grid.n_slices()
    }
    #[inline]
    fn slice_duration(&self) -> f64 {
        self.grid.slice_duration()
    }
    #[inline]
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.eval_cell(node, i, j).0
    }
    #[inline]
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.eval_cell(node, i, j).1
    }
    #[inline]
    fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        self.eval_cell(node, i, j)
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        let stride = self.n_slices() + 1;
        let pd = &self.prefix_duration[node.index()];
        let row = x.index() * stride;
        let sum_d = pd[row + j + 1] - pd[row + i];
        let n_res = self.hierarchy.n_leaves_under(node) as f64;
        let period = (j - i + 1) as f64 * self.slice_duration();
        sum_d / (n_res * period)
    }
    /// Resident bytes of the prefix sums.
    fn memory_bytes(&self) -> usize {
        let cells = self.prefix_duration.iter().map(Vec::len).sum::<usize>()
            + self.prefix_info.iter().map(Vec::len).sum::<usize>();
        cells * std::mem::size_of::<f64>()
    }
}

/// Bytes the dense cube would allocate for its triangular matrices on a
/// `|S|`-node, `|T|`-slice problem (two `f64` per interval per node).
pub fn dense_matrix_bytes(n_nodes: usize, n_slices: usize) -> usize {
    n_nodes * (n_slices * (n_slices + 1) / 2) * 2 * std::mem::size_of::<f64>()
}

// ---------------------------------------------------------------------------
// Dense matrices
// ---------------------------------------------------------------------------

/// Precomputed cube: the paper's per-node triangular `gain`/`loss`
/// matrices (§III.E). `O(|S|·|T|²)` resident floats, `O(1)` per query —
/// the right choice whenever the matrices fit in memory, and the one that
/// preserves §V.B "instantaneous interaction" exactly.
#[derive(Debug, Clone)]
pub struct DenseCube {
    /// The prefix sums the matrices were built from, minus the information
    /// sums: the matrices replace them, and `rho_aggregate` reads only the
    /// duration sums, so keeping them would waste an on-demand cube's
    /// worth of memory.
    core: CubeCore,
    /// Per node: `gain(S_k, T_(i,j))` summed over states.
    gain: Vec<TriMatrix<f64>>,
    /// Per node: `loss(S_k, T_(i,j))` summed over states.
    loss: Vec<TriMatrix<f64>>,
}

impl DenseCube {
    /// Build prefix sums, then materialize all triangular matrices
    /// (parallel over nodes).
    pub fn build(model: &MicroModel) -> Self {
        Self::from_core(CubeCore::build(model))
    }

    /// Materialize the matrices over an existing core.
    pub fn from_core(mut core: CubeCore) -> Self {
        let n_nodes = core.hierarchy().len();
        let n_slices = core.n_slices();
        let matrices: Vec<(TriMatrix<f64>, TriMatrix<f64>)> = (0..n_nodes)
            .into_par_iter()
            .map(|idx| {
                let node = NodeId(idx as u32);
                let mut gain = TriMatrix::<f64>::new(n_slices);
                let mut loss = TriMatrix::<f64>::new(n_slices);
                for i in 0..n_slices {
                    for j in i..n_slices {
                        let (g, l) = core.eval_cell(node, i, j);
                        gain.set(i, j, g);
                        loss.set(i, j, l);
                    }
                }
                (gain, loss)
            })
            .collect();
        let (gain, loss) = matrices.into_iter().unzip();
        core.prefix_info = Vec::new();
        Self { core, gain, loss }
    }
}

impl QualityCube for DenseCube {
    fn hierarchy(&self) -> &Hierarchy {
        self.core.hierarchy()
    }
    fn states(&self) -> &StateRegistry {
        self.core.states()
    }
    fn n_slices(&self) -> usize {
        self.core.n_slices()
    }
    fn slice_duration(&self) -> f64 {
        self.core.slice_duration()
    }
    #[inline]
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.gain[node.index()].get(i, j)
    }
    #[inline]
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.loss[node.index()].get(i, j)
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        self.core.rho_aggregate(node, x, i, j)
    }
    /// Resident bytes: matrices plus the duration prefix sums.
    fn memory_bytes(&self) -> usize {
        let tri = self.gain.iter().map(TriMatrix::len).sum::<usize>()
            + self.loss.iter().map(TriMatrix::len).sum::<usize>();
        tri * std::mem::size_of::<f64>() + self.core.memory_bytes()
    }
}

// ---------------------------------------------------------------------------
// Size bounds
// ---------------------------------------------------------------------------

/// Ceiling on the dense matrices: while [`dense_matrix_bytes`] stays at or
/// under this many bytes, the first DP of a session pipeline materializes
/// them; above it the DP runs on the prefix sums.
pub const DENSE_LIMIT_BYTES: usize = 1 << 30; // 1 GiB

/// Ceiling on the DP's own tables (an `i32` cut, an `f64` pIC and a `u32`
/// area count per interval per node): a session refuses a DP that would
/// allocate more, before it runs. A constant rather than a probe of free
/// memory, so the refusal is a pure function of the problem.
pub const DP_LIMIT_BYTES: u64 = 16 << 30; // 16 GiB

/// Bytes the DP allocates for its tables on a `|S|`-node, `|T|`-slice
/// problem (see [`DP_LIMIT_BYTES`]); `None` when the count overflows a
/// `u64`.
pub(crate) fn dp_table_bytes(n_nodes: usize, n_slices: usize) -> Option<u64> {
    let n = n_slices as u64;
    let cells = n.checked_mul(n.checked_add(1)?)? / 2;
    cells.checked_mul(n_nodes as u64)?.checked_mul(16)
}

/// Whether the dense matrices of a `|S|`-node, `|T|`-slice problem fit
/// under `limit` bytes.
pub(crate) fn dense_fits(n_nodes: usize, n_slices: usize, limit: usize) -> bool {
    dense_matrix_bytes(n_nodes, n_slices) <= limit
}

/// The cube tag and byte footprint replies report for a problem size:
/// `("dense", triangular matrices + one prefix array)` while the matrices
/// fit under [`DENSE_LIMIT_BYTES`], `("lazy", two prefix arrays)` beyond.
/// A pure function of the problem, never a measurement of what happens to
/// be resident, so cold, warm, CLI and server replies agree byte for byte.
pub fn backend_footprint(n_nodes: usize, n_slices: usize, n_states: usize) -> (&'static str, u64) {
    let prefix = n_nodes * n_states * (n_slices + 1) * std::mem::size_of::<f64>();
    let (tag, bytes) = if dense_fits(n_nodes, n_slices, DENSE_LIMIT_BYTES) {
        ("dense", dense_matrix_bytes(n_nodes, n_slices) + prefix)
    } else {
        ("lazy", 2 * prefix)
    };
    (tag, bytes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelotl_trace::synthetic::{fig3_model, random_model};

    #[test]
    fn dense_and_lazy_are_bit_identical_on_fig3() {
        let m = fig3_model();
        let dense = DenseCube::build(&m);
        let lazy = CubeCore::build(&m);
        for node in m.hierarchy().node_ids() {
            for i in 0..m.n_slices() {
                for j in i..m.n_slices() {
                    // Exact equality on purpose: both backends must run the
                    // same arithmetic in the same order.
                    assert_eq!(dense.gain(node, i, j), lazy.gain(node, i, j));
                    assert_eq!(dense.loss(node, i, j), lazy.loss(node, i, j));
                    assert_eq!(
                        lazy.gain_loss(node, i, j),
                        (lazy.gain(node, i, j), lazy.loss(node, i, j))
                    );
                }
            }
        }
    }

    #[test]
    fn lazy_memory_is_linear_in_slices() {
        let m64 = random_model(&[4, 4], 64, 3, 7);
        let m128 = random_model(&[4, 4], 128, 3, 7);
        let l64 = CubeCore::build(&m64).memory_bytes();
        let l128 = CubeCore::build(&m128).memory_bytes();
        // Doubling |T| roughly doubles lazy memory…
        assert!(l128 < l64 * 3, "lazy grew superlinearly: {l64} -> {l128}");
        // …while the dense matrices grow ~4×.
        let d64 = DenseCube::build(&m64).memory_bytes();
        let d128 = DenseCube::build(&m128).memory_bytes();
        assert!(
            d128 > d64 * 3,
            "dense should grow quadratically: {d64} -> {d128}"
        );
        assert!(l128 < d128, "lazy must be smaller than dense");
    }

    #[test]
    fn backend_footprint_follows_the_size_bound() {
        // 7 nodes × 10 slices × 2 states: 2·7·55 matrix cells plus one
        // 7·2·11 prefix array, in f64s.
        assert_eq!(backend_footprint(7, 10, 2), ("dense", 7392));
        let (big_nodes, big_slices) = (2000, 4096);
        assert!(dense_matrix_bytes(big_nodes, big_slices) > DENSE_LIMIT_BYTES);
        let prefix = (big_nodes * 3 * (big_slices + 1) * 8) as u64;
        assert_eq!(
            backend_footprint(big_nodes, big_slices, 3),
            ("lazy", 2 * prefix)
        );
    }

    #[test]
    fn dp_bound_admits_case_a_at_2048_slices_and_refuses_a_million() {
        // 8 nodes × 10 slices: 16 bytes per node and interval.
        assert_eq!(dp_table_bytes(8, 10), Some(16 * 8 * 55));
        // Case A's 74 nodes: |T| = 2048 needs ~2.5 GB of tables,
        // |T| = 10^6 some 5.9·10^14 bytes; usize::MAX slices overflow.
        assert!(dp_table_bytes(74, 2048).is_some_and(|b| b <= DP_LIMIT_BYTES));
        assert!(dp_table_bytes(74, 1_000_000).is_some_and(|b| b > DP_LIMIT_BYTES));
        assert_eq!(dp_table_bytes(74, usize::MAX), None);
    }
}
