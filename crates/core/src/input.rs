//! Input stage of the aggregation algorithm (§III.E "Data Input").
//!
//! For every node `S_k` of the hierarchy and every interval `T_(i,j)`, the
//! algorithm needs `gain(S_k, T_(i,j))` and `loss(S_k, T_(i,j))`. Both
//! derive from three **additive** per-state quantities (sum of durations,
//! sum of proportions, sum of Shannon information), which are prefix-summed
//! over time per node; each triangular cell then evaluates in `O(1)` per
//! state. The machinery lives in [`crate::cube`]; this module keeps the
//! historical [`AggregationInput`] name as the *dense* backend.
//!
//! # Dense vs. lazy: the memory trade-off
//!
//! [`AggregationInput`] (= [`DenseCube`]) materializes
//! two `O(|T|²)` triangular matrices per hierarchy node — the paper's
//! §III.E data structure. That costs `O(|S|·|T|²)` resident floats but
//! makes every `gain`/`loss` query a single array read, so re-running the
//! optimizer when the analyst slides the trade-off `p` never touches the
//! microscopic data again: the paper's "instantaneous interaction"
//! property (§V.B). At |S| ≈ 1500 nodes and |T| = 4096 slices, however,
//! those matrices are ~200 GB — a hard wall.
//!
//! [`CubeCore`](crate::CubeCore) keeps only the `O(|S|·|T|·|X|)` prefix
//! sums and evaluates each queried cell on demand in `O(|X|)`: memory
//! drops from quadratic to **linear** in `|T|`, at the price of an
//! `O(|X|)` loop per query. Rule of thumb: stay dense while
//! [`dense_matrix_bytes`](crate::cube::dense_matrix_bytes) fits your RAM
//! budget, stay on the prefix sums beyond — an
//! [`AnalysisSession`](crate::AnalysisSession) applies exactly that rule
//! with a 1 GiB bound ([`DENSE_LIMIT_BYTES`](crate::DENSE_LIMIT_BYTES)).
//! Both cubes answer bit-identically — see the `backend_equivalence` test
//! suite.

pub use crate::cube::DenseCube;

/// Cached per-node aggregation inputs for a microscopic model.
///
/// Historical name for the dense quality-cube backend; `AggregationInput`
/// in existing code, docs, and the paper-facing API is exactly
/// [`DenseCube`]. Prefer writing new consumers against the
/// [`QualityCube`](crate::QualityCube) trait so they also accept the
/// on-demand [`CubeCore`](crate::CubeCore).
pub type AggregationInput = DenseCube;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::AreaSums;
    use crate::QualityCube;
    use ocelotl_trace::synthetic::{fig3_model, random_model};
    use ocelotl_trace::{Hierarchy, LeafId, MicroModel, NodeId, StateId, StateRegistry, TimeGrid};

    /// Direct (slow) evaluation of gain/loss for cross-checking.
    fn direct_gain_loss(model: &MicroModel, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        let h = model.hierarchy();
        let w = model.grid().slice_duration();
        let n_res = h.n_leaves_under(node);
        let period = (j - i + 1) as f64 * w;
        let mut g = 0.0;
        let mut l = 0.0;
        for x in 0..model.n_states() {
            let mut sums = AreaSums::default();
            for s in h.leaf_range(node) {
                for t in i..=j {
                    sums.add_cell(model.duration(LeafId(s as u32), StateId(x as u16), t), w);
                }
            }
            g += sums.gain(n_res, period);
            l += sums.loss(n_res, period);
        }
        (g, l)
    }

    #[test]
    fn matches_direct_evaluation_on_fig3() {
        let m = fig3_model();
        let input = AggregationInput::build(&m);
        let h = m.hierarchy();
        for node in [h.root(), h.top_level()[0], h.leaf_node(LeafId(5))] {
            for &(i, j) in &[(0, 0), (0, 19), (3, 11), (8, 19), (7, 7)] {
                let (g, l) = direct_gain_loss(&m, node, i, j);
                assert!(
                    (input.gain(node, i, j) - g).abs() < 1e-9,
                    "gain mismatch at {node} [{i},{j}]: {} vs {g}",
                    input.gain(node, i, j)
                );
                assert!(
                    (input.loss(node, i, j) - l).abs() < 1e-9,
                    "loss mismatch at {node} [{i},{j}]: {} vs {l}",
                    input.loss(node, i, j)
                );
            }
        }
    }

    #[test]
    fn matches_direct_evaluation_on_random() {
        let m = random_model(&[3, 2], 9, 3, 1234);
        let input = AggregationInput::build(&m);
        let h = m.hierarchy();
        for node in h.node_ids() {
            for i in 0..9 {
                for j in i..9 {
                    let (g, l) = direct_gain_loss(&m, node, i, j);
                    assert!((input.gain(node, i, j) - g).abs() < 1e-9);
                    assert!((input.loss(node, i, j) - l).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn loss_is_nonnegative_everywhere() {
        let m = random_model(&[4, 3], 12, 4, 99);
        let input = AggregationInput::build(&m);
        for node in m.hierarchy().node_ids() {
            for i in 0..12 {
                for j in i..12 {
                    assert!(input.loss(node, i, j) >= 0.0);
                }
            }
        }
    }

    #[test]
    fn single_cell_areas_are_neutral() {
        // A leaf over a single slice is a microscopic cell: gain = loss = 0.
        let m = random_model(&[5], 6, 2, 3);
        let input = AggregationInput::build(&m);
        let h = m.hierarchy();
        for leaf in 0..5 {
            let node = h.leaf_node(LeafId(leaf));
            for t in 0..6 {
                assert!(input.gain(node, t, t).abs() < 1e-12);
                assert!(input.loss(node, t, t).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rho_aggregate_is_mean_over_cells() {
        // Uniform model: every aggregate must report the same proportion.
        let h = Hierarchy::balanced(&[2, 2]);
        let states = StateRegistry::from_names(["a"]);
        let grid = TimeGrid::new(0.0, 8.0, 8);
        let rho = vec![0.25; 4 * 8];
        let m = MicroModel::from_proportions(h, states, grid, rho);
        let input = AggregationInput::build(&m);
        for node in m.hierarchy().node_ids() {
            for i in 0..8 {
                for j in i..8 {
                    let r = input.rho_aggregate(node, StateId(0), i, j);
                    assert!((r - 0.25).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn homogeneous_region_has_zero_loss_and_positive_gain() {
        let m = fig3_model();
        let input = AggregationInput::build(&m);
        let h = m.hierarchy();
        // Slice 7 is fully homogeneous (ρ = 0.5 everywhere).
        assert!(input.loss(h.root(), 7, 7).abs() < 1e-9);
        assert!(input.gain(h.root(), 7, 7) > 0.0);
    }
}
