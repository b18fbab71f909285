//! Algorithm 1: the spatiotemporal aggregation dynamic program (§III.E).
//!
//! For each node of the hierarchy (post-order) and each interval `[i, j]`
//! (outer loop `i` descending, inner loop `j` ascending), the algorithm
//! compares:
//!
//! 1. **no cut** — the pIC of keeping `(S_k, T_(i,j))` as one aggregate;
//! 2. **spatial cut** — the sum of the children's optimal pICs on `[i, j]`;
//! 3. **temporal cuts** — for every `k ∈ [i, j)`, the sum of the node's own
//!    optimal pICs on `[i, k]` and `[k+1, j]`.
//!
//! The best choice is recorded as a *cut value* (`j` = no cut, `−1` =
//! spatial, `k` = temporal after slice `k`); the sequence of cuts uniquely
//! determines a hierarchy-and-order-consistent partition maximizing the
//! criterion. Time `O(|S||T|³)`, space `O(|S||T|²)`.
//!
//! Deviations from the paper's pseudocode, both documented in DESIGN.md:
//! the pseudocode's inner comparison uses a strict `>`, which is kept, but a
//! small tolerance `epsilon` biases ties toward the coarser representation
//! under floating-point noise; and the pseudocode's `pIC[i, cut]` is read as
//! `pIC[i, cutt]` (obvious typo fix).

use crate::cube::QualityCube;
use crate::partition::{Area, Partition};
use crate::tri::TriMatrix;
use ocelotl_trace::NodeId;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Decoded cut decision for one spatiotemporal area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// `(S_k, T_(i,j))` is an aggregate of the partition.
    Keep,
    /// Partitioned into the children of `S_k` over the same interval.
    Spatial,
    /// Partitioned into `T_(i,k)` and `T_(k+1,j)` on the same node.
    Temporal(usize),
}

/// Raw cut encoding, exactly as in the paper.
#[inline]
fn decode(cut: i32, j: usize) -> Cut {
    if cut == -1 {
        Cut::Spatial
    } else if cut as usize == j {
        Cut::Keep
    } else {
        Cut::Temporal(cut as usize)
    }
}

/// Tunable knobs of the optimizer.
#[derive(Debug, Clone, Copy)]
pub struct DpConfig {
    /// Tie tolerance: a cut is adopted only if it improves the pIC by more
    /// than this amount (biases ties toward coarser aggregates).
    pub epsilon: f64,
    /// Process hierarchy siblings in parallel with rayon.
    pub parallel: bool,
    /// Among pIC-equal choices (within `epsilon`), prefer the cut whose
    /// optimal subpartition uses *fewer aggregates*.
    ///
    /// The paper's pseudocode adopts the first strictly-better cut, which on
    /// degenerate data (all `ρ_x ∈ {0, 1}`, hence zero gain everywhere)
    /// returns the *finest* zero-loss partition. Enabling this picks the
    /// coarsest optimum instead — the partition a human expects and the one
    /// that honors the entity-budget criterion G1. Off by default to stay
    /// faithful to Algorithm 1.
    pub prefer_coarse_ties: bool,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self {
            epsilon: 1e-9,
            parallel: true,
            prefer_coarse_ties: false,
        }
    }
}

impl DpConfig {
    /// Default configuration with [`DpConfig::prefer_coarse_ties`] enabled.
    pub fn coarse_ties() -> Self {
        Self {
            prefer_coarse_ties: true,
            ..Self::default()
        }
    }
}

/// Result of Algorithm 1 for one trade-off value `p`: per-node cut and pIC
/// matrices, from which optimal partitions of any area can be recovered.
#[derive(Debug, Clone)]
pub struct CutTree {
    p: f64,
    /// Per node (arena order): cut values.
    cuts: Vec<TriMatrix<i32>>,
    /// Per node: optimal-partition pIC values.
    pic: Vec<TriMatrix<f64>>,
    /// Per node: aggregate count of the optimal subpartition.
    counts: Vec<TriMatrix<u32>>,
    n_slices: usize,
}

impl CutTree {
    /// The trade-off parameter this tree was computed for.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Optimal pIC over the whole trace (root node, full interval).
    pub fn optimal_pic<C: QualityCube>(&self, input: &C) -> f64 {
        self.pic[input.hierarchy().root().index()].get(0, self.n_slices - 1)
    }

    /// Cut decision for an area.
    pub fn cut(&self, node: NodeId, i: usize, j: usize) -> Cut {
        decode(self.cuts[node.index()].get(i, j), j)
    }

    /// pIC of the optimal partition of an area.
    pub fn pic(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.pic[node.index()].get(i, j)
    }

    /// Number of aggregates in the optimal subpartition of an area (without
    /// extracting it).
    pub fn n_areas(&self, node: NodeId, i: usize, j: usize) -> usize {
        self.counts[node.index()].get(i, j) as usize
    }

    /// Number of aggregates in the optimal partition of the whole trace.
    pub fn optimal_n_areas<C: QualityCube>(&self, input: &C) -> usize {
        self.n_areas(input.hierarchy().root(), 0, self.n_slices - 1)
    }

    /// Recover the optimal partition of the whole trace by following the
    /// sequence of cuts from `(S_root, T_(0,|T|−1))`.
    pub fn partition<C: QualityCube>(&self, input: &C) -> Partition {
        let mut areas = Vec::new();
        let mut stack = vec![Area::new(input.hierarchy().root(), 0, self.n_slices - 1)];
        while let Some(area) = stack.pop() {
            let (i, j) = (area.first_slice, area.last_slice);
            match self.cut(area.node, i, j) {
                Cut::Keep => areas.push(area),
                Cut::Spatial => {
                    for &c in input.hierarchy().children(area.node) {
                        stack.push(Area::new(c, i, j));
                    }
                }
                Cut::Temporal(k) => {
                    stack.push(Area::new(area.node, i, k));
                    stack.push(Area::new(area.node, k + 1, j));
                }
            }
        }
        Partition::new(areas)
    }
}

/// One node's solved DP: cut, pIC and aggregate-count matrices.
type NodeResult = (TriMatrix<i32>, TriMatrix<f64>, TriMatrix<u32>);

/// Run Algorithm 1 on any quality cube for trade-off `p`.
pub fn aggregate<C: QualityCube>(input: &C, p: f64, config: &DpConfig) -> CutTree {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1], got {p}");
    let n_nodes = input.hierarchy().len();
    // Results land in per-node OnceLocks: each node is written exactly
    // once, after its children.
    let solved: Vec<OnceLock<NodeResult>> = (0..n_nodes).map(|_| OnceLock::new()).collect();
    solve(input.hierarchy().root(), input, p, config, &solved);

    let mut cuts = Vec::with_capacity(n_nodes);
    let mut pic = Vec::with_capacity(n_nodes);
    let mut counts = Vec::with_capacity(n_nodes);
    for cell in solved {
        let (c, q, n) = cell.into_inner().expect("every node solved");
        cuts.push(c);
        pic.push(q);
        counts.push(n);
    }
    CutTree {
        p,
        cuts,
        pic,
        counts,
        n_slices: input.n_slices(),
    }
}

/// Solve `node`'s subtree, children first. Children of a node are
/// independent subproblems: [`DpConfig::parallel`] forks them across the
/// pool, otherwise they run in order.
fn solve<C: QualityCube>(
    node: NodeId,
    input: &C,
    p: f64,
    config: &DpConfig,
    solved: &[OnceLock<NodeResult>],
) {
    let children = input.hierarchy().children(node);
    let visit = |&c: &NodeId| solve(c, input, p, config, solved);
    if config.parallel {
        children.par_iter().for_each(visit);
    } else {
        children.iter().for_each(visit);
    }
    let child_results: Vec<&NodeResult> = children
        .iter()
        .map(|c| solved[c.index()].get().expect("child solved"))
        .collect();
    let child_pics: Vec<&TriMatrix<f64>> = child_results.iter().map(|r| &r.1).collect();
    let child_counts: Vec<&TriMatrix<u32>> = child_results.iter().map(|r| &r.2).collect();
    let result = solve_node(input, node, p, config, &child_pics, &child_counts);
    solved[node.index()].set(result).expect("node solved once");
}

/// Convenience wrapper with default configuration.
pub fn aggregate_default<C: QualityCube>(input: &C, p: f64) -> CutTree {
    aggregate(input, p, &DpConfig::default())
}

/// The per-node DP (cell iteration of Algorithm 1).
///
/// Also tracks, per cell, the aggregate count of the chosen subpartition;
/// when [`DpConfig::prefer_coarse_ties`] is set, pIC-equal cuts (within
/// `epsilon`) with a lower count displace the current choice.
fn solve_node<C: QualityCube>(
    input: &C,
    node: NodeId,
    p: f64,
    config: &DpConfig,
    child_pics: &[&TriMatrix<f64>],
    child_counts: &[&TriMatrix<u32>],
) -> NodeResult {
    let n = input.n_slices();
    let eps = config.epsilon;
    let coarse = config.prefer_coarse_ties;
    let mut cut = TriMatrix::<i32>::new(n);
    let mut pic_m = TriMatrix::<f64>::new(n);
    let mut cnt_m = TriMatrix::<u32>::new(n);

    for i in (0..n).rev() {
        for j in i..n {
            // No cut: the area itself as one aggregate. `gain_loss` lets a
            // lazy cube evaluate the cell in a single pass over the states.
            let (g, l) = input.gain_loss(node, i, j);
            let mut best_cut = j as i32;
            let mut best = p * g - (1.0 - p) * l;
            let mut best_cnt = 1u32;

            // Spatial cut?
            if !child_pics.is_empty() {
                let pic_s: f64 = child_pics.iter().map(|m| m.get(i, j)).sum();
                let cnt_s: u32 = child_counts.iter().map(|m| m.get(i, j)).sum();
                let better = pic_s > best + eps;
                let coarser_tie = coarse && cnt_s < best_cnt && (pic_s - best).abs() <= eps;
                if better || coarser_tie {
                    best_cut = -1;
                    best = best.max(pic_s);
                    best_cnt = cnt_s;
                }
            }

            // Temporal cut?
            for k in i..j {
                let pic_t = pic_m.get(i, k) + pic_m.get(k + 1, j);
                let better = pic_t > best + eps;
                let coarser_tie = coarse
                    && pic_t > best - eps
                    && cnt_m.get(i, k) + cnt_m.get(k + 1, j) < best_cnt;
                if better || coarser_tie {
                    best_cut = k as i32;
                    best = best.max(pic_t);
                    best_cnt = cnt_m.get(i, k) + cnt_m.get(k + 1, j);
                }
            }

            cut.set(i, j, best_cut);
            pic_m.set(i, j, best);
            cnt_m.set(i, j, best_cnt);
        }
    }
    (cut, pic_m, cnt_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::AggregationInput;
    use ocelotl_trace::synthetic::{block_model, fig3_model, random_model, Block};
    use ocelotl_trace::{Hierarchy, StateRegistry};

    fn seq_and_par(input: &AggregationInput, p: f64) -> (CutTree, CutTree) {
        let seq = aggregate(
            input,
            p,
            &DpConfig {
                parallel: false,
                ..DpConfig::default()
            },
        );
        let par = aggregate(
            input,
            p,
            &DpConfig {
                parallel: true,
                ..DpConfig::default()
            },
        );
        (seq, par)
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = random_model(&[3, 4], 11, 3, 2024);
        let input = AggregationInput::build(&m);
        for &p in &[0.0, 0.2, 0.5, 0.8, 1.0] {
            let (seq, par) = seq_and_par(&input, p);
            assert_eq!(seq.partition(&input), par.partition(&input), "p = {p}");
            assert!((seq.optimal_pic(&input) - par.optimal_pic(&input)).abs() < 1e-12);
        }
    }

    #[test]
    fn partition_is_always_valid() {
        let m = random_model(&[2, 3, 2], 9, 2, 7);
        let input = AggregationInput::build(&m);
        for &p in &[0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let tree = aggregate_default(&input, p);
            let part = tree.partition(&input);
            part.validate(m.hierarchy(), 9)
                .unwrap_or_else(|e| panic!("invalid partition at p={p}: {e}"));
        }
    }

    #[test]
    fn dp_pic_matches_extracted_partition_pic() {
        let m = random_model(&[4, 2], 8, 3, 55);
        let input = AggregationInput::build(&m);
        for &p in &[0.0, 0.3, 0.6, 1.0] {
            let tree = aggregate_default(&input, p);
            let part = tree.partition(&input);
            let expected = tree.optimal_pic(&input);
            let actual = part.pic(&input, p);
            assert!(
                (expected - actual).abs() < 1e-9,
                "p={p}: DP pIC {expected} vs partition pIC {actual}"
            );
        }
    }

    #[test]
    fn dp_beats_reference_partitions() {
        let m = random_model(&[3, 3], 10, 2, 31);
        let input = AggregationInput::build(&m);
        let h = m.hierarchy();
        for &p in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let tree = aggregate_default(&input, p);
            let best = tree.optimal_pic(&input);
            for reference in [
                Partition::microscopic(h, 10),
                Partition::full(h, 10),
                Partition::product(h.top_level(), &[(0, 4), (5, 9)]),
            ] {
                let q = reference.pic(&input, p);
                assert!(
                    best >= q - 1e-9,
                    "p={p}: DP {best} worse than reference {q}"
                );
            }
        }
    }

    #[test]
    fn p_zero_yields_zero_loss_partition() {
        let m = fig3_model();
        let input = AggregationInput::build(&m);
        let tree = aggregate_default(&input, 0.0);
        let part = tree.partition(&input);
        assert!(part.loss(&input) < 1e-9, "p=0 partition must lose nothing");
        // And it should still aggregate the homogeneous cells (slice 7 is
        // globally homogeneous, so the partition is far from microscopic).
        assert!(part.len() < 12 * 20);
    }

    #[test]
    fn p_one_yields_full_aggregation_on_uniform_model() {
        // On a uniform model every partition has loss 0; at p=1 the DP must
        // find the gain-maximal partition, which for uniform data is the
        // full aggregation.
        let h = Hierarchy::balanced(&[2, 2]);
        let states = StateRegistry::from_names(["a", "b"]);
        let m = block_model(
            h,
            states,
            6,
            &[Block {
                leaves: 0..4,
                slices: 0..6,
                rho: vec![0.4, 0.6],
            }],
        );
        let input = AggregationInput::build(&m);
        let tree = aggregate_default(&input, 1.0);
        let part = tree.partition(&input);
        assert_eq!(part.len(), 1, "uniform data fully aggregates at p=1");
    }

    #[test]
    fn block_structure_recovered_at_intermediate_p() {
        // Two clusters with different behavior, switching at slice 5:
        // the optimal partition at moderate p should cut exactly there.
        let h = Hierarchy::balanced(&[2, 4]);
        let states = StateRegistry::from_names(["a", "b"]);
        let m = block_model(
            h,
            states,
            10,
            &[
                Block {
                    leaves: 0..4,
                    slices: 0..10,
                    rho: vec![0.9, 0.1],
                },
                Block {
                    leaves: 4..8,
                    slices: 0..5,
                    rho: vec![0.1, 0.9],
                },
                Block {
                    leaves: 4..8,
                    slices: 5..10,
                    rho: vec![0.8, 0.2],
                },
            ],
        );
        let input = AggregationInput::build(&m);
        let tree = aggregate_default(&input, 0.5);
        let part = tree.partition(&input);
        part.validate(m.hierarchy(), 10).unwrap();
        // Zero loss is achievable with 3 aggregates; the optimum cannot lose
        // information nor use more areas than the blocks require.
        assert!(part.loss(&input) < 1e-9);
        assert!(
            part.len() <= 4,
            "expected ≤4 aggregates, got {}",
            part.len()
        );
        // The second cluster must have a temporal cut at slice 4/5 boundary.
        let c2 = m.hierarchy().top_level()[1];
        let has_cut = part
            .areas()
            .iter()
            .any(|a| a.node == c2 && a.last_slice == 4);
        assert!(
            has_cut,
            "missing temporal cut at the block boundary: {part:?}"
        );
    }

    #[test]
    fn monotone_area_count_in_p_on_fig3() {
        let m = fig3_model();
        let input = AggregationInput::build(&m);
        let mut prev = usize::MAX;
        for &p in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let n = aggregate_default(&input, p).partition(&input).len();
            assert!(
                n <= prev,
                "area count should not increase with p (p={p}: {n} > {prev})"
            );
            prev = n;
        }
    }

    #[test]
    fn single_slice_trace_only_spatial_cuts() {
        let m = random_model(&[3, 2], 1, 2, 11);
        let input = AggregationInput::build(&m);
        let tree = aggregate_default(&input, 0.0);
        let part = tree.partition(&input);
        part.validate(m.hierarchy(), 1).unwrap();
        for a in part.areas() {
            assert_eq!(a.first_slice, 0);
            assert_eq!(a.last_slice, 0);
        }
    }

    #[test]
    fn single_child_chain_nodes_do_not_change_the_optimum() {
        // Inserting a chain of single-child intermediate nodes leaves the
        // achievable pIC unchanged: a chain node's aggregate carries exactly
        // its only child's data, so keep-vs-spatial-cut through it is a tie
        // and the optimum value is preserved.
        use ocelotl_trace::{HierarchyBuilder, MicroModel, StateRegistry, TimeGrid};
        let slices = 6;
        let states = StateRegistry::from_names(["a", "b"]);
        let grid = TimeGrid::new(0.0, slices as f64, slices);

        // Flat: root → 4 leaves.
        let flat = ocelotl_trace::Hierarchy::flat(4, "p");
        // Chained: root → chain → chain → {4 leaves}.
        let mut b = HierarchyBuilder::new("root", "root");
        let c1 = b.add_child(b.root(), "chain1", "x");
        let c2 = b.add_child(c1, "chain2", "x");
        for i in 0..4 {
            b.add_child(c2, &format!("p{i}"), "leaf");
        }
        let chained = b.build().unwrap();

        let mut rng = ocelotl_trace::synthetic::SplitMix64(77);
        let mut rho = vec![0.0f64; 4 * 2 * slices];
        for v in rho.iter_mut() {
            *v = 0.5 * rng.next_f64();
        }
        let m_flat = MicroModel::from_proportions(flat, states.clone(), grid, rho.clone());
        let m_chain = MicroModel::from_proportions(chained, states, grid, rho);
        let in_flat = AggregationInput::build(&m_flat);
        let in_chain = AggregationInput::build(&m_chain);
        for p in [0.0, 0.3, 0.7, 1.0] {
            let a = aggregate_default(&in_flat, p).optimal_pic(&in_flat);
            let b = aggregate_default(&in_chain, p).optimal_pic(&in_chain);
            assert!((a - b).abs() < 1e-9, "p={p}: flat {a} vs chained {b}");
        }
    }

    #[test]
    fn cut_decoding() {
        assert_eq!(decode(-1, 5), Cut::Spatial);
        assert_eq!(decode(5, 5), Cut::Keep);
        assert_eq!(decode(3, 5), Cut::Temporal(3));
    }

    /// A degenerate model where all proportions are exactly 0 or 1: every
    /// zero-loss partition has pIC = 0 (gain vanishes on pure cells), so
    /// everything ties and tie-breaking decides the output's shape.
    fn pure_block_model() -> ocelotl_trace::MicroModel {
        let h = Hierarchy::balanced(&[2, 4]);
        let states = StateRegistry::from_names(["a", "b"]);
        block_model(
            h,
            states,
            10,
            &[
                // Cluster 0: state a throughout.
                Block {
                    leaves: 0..4,
                    slices: 0..10,
                    rho: vec![1.0, 0.0],
                },
                // Cluster 1: state a, except leaves 4..6 flip to b in [4, 7).
                Block {
                    leaves: 4..8,
                    slices: 0..4,
                    rho: vec![1.0, 0.0],
                },
                Block {
                    leaves: 4..6,
                    slices: 4..7,
                    rho: vec![0.0, 1.0],
                },
                Block {
                    leaves: 6..8,
                    slices: 4..7,
                    rho: vec![1.0, 0.0],
                },
                Block {
                    leaves: 4..8,
                    slices: 7..10,
                    rho: vec![1.0, 0.0],
                },
            ],
        )
    }

    #[test]
    fn coarse_ties_find_minimal_zero_loss_partition() {
        let m = pure_block_model();
        let input = AggregationInput::build(&m);
        let cfg = DpConfig::coarse_ties();
        let tree = aggregate(&input, 0.35, &cfg);
        let part = tree.partition(&input);
        part.validate(m.hierarchy(), 10).unwrap();
        assert!(part.loss(&input) < 1e-9);
        // Minimal zero-loss partition: cluster0 whole-range; cluster1 splits
        // at slices 4 and 7, and within [4,7) splits into two 2-leaf halves
        // (machines are leaves here, so per-leaf areas): the best achievable
        // is well below the paper-faithful first-cut chain.
        let faithful = aggregate_default(&input, 0.35).partition(&input);
        assert!(
            part.len() < faithful.len(),
            "coarse ties ({}) must beat first-cut ties ({})",
            part.len(),
            faithful.len()
        );
        assert!(
            part.len() <= 8,
            "expected a handful of areas, got {}",
            part.len()
        );
        // Identical optimality.
        assert!(
            (tree.optimal_pic(&input) - aggregate_default(&input, 0.35).optimal_pic(&input)).abs()
                < 1e-9
        );
    }

    #[test]
    fn area_counts_match_extracted_partition() {
        for seed in [3u64, 17, 99] {
            let m = random_model(&[3, 3], 8, 2, seed);
            let input = AggregationInput::build(&m);
            for &p in &[0.0, 0.4, 0.8, 1.0] {
                for cfg in [DpConfig::default(), DpConfig::coarse_ties()] {
                    let tree = aggregate(&input, p, &cfg);
                    let part = tree.partition(&input);
                    assert_eq!(
                        tree.optimal_n_areas(&input),
                        part.len(),
                        "seed={seed} p={p} coarse={}",
                        cfg.prefer_coarse_ties
                    );
                }
            }
        }
    }

    #[test]
    fn coarse_ties_never_lose_pic() {
        for seed in [5u64, 6, 7] {
            let m = random_model(&[2, 2, 2], 7, 3, seed);
            let input = AggregationInput::build(&m);
            for &p in &[0.0, 0.3, 0.7, 1.0] {
                let plain = aggregate_default(&input, p).optimal_pic(&input);
                let coarse = aggregate(&input, p, &DpConfig::coarse_ties());
                assert!(
                    coarse.optimal_pic(&input) >= plain - 1e-6,
                    "seed={seed} p={p}"
                );
                assert!(
                    coarse.optimal_n_areas(&input)
                        <= aggregate_default(&input, p).optimal_n_areas(&input),
                    "coarse ties must not increase the area count (seed={seed} p={p})"
                );
            }
        }
    }
}
