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
//! Two deviations from the paper's pseudocode. Its inner comparison uses a
//! strict `>`, which is kept, but a cut must win by more than a small
//! tolerance `epsilon`, so floating-point noise cannot displace a coarser
//! choice. And its `pIC[i, cut]` is read as `pIC[i, cutt]` (a typo).
//!
//! # The temporal-cut kernel
//!
//! A cell has up to `|T|` temporal cuts, so they are where a DP spends its
//! time. Cell `(i, j)` compares `pIC[i, k] + pIC[k+1, j]` for `k = i, …,
//! j−1`. In the row-major triangles the left operands are a prefix of row
//! `i`, but the right operands run down column `j`. So while a node is
//! solved, two scratch buffers hold its pIC values a second time:
//!
//! - a column-major mirror of the triangle: column `j` holds rows `0..=j`
//!   contiguously, then `BLOCK − 1` cells of `−∞`. Each cell is written to
//!   it when it is finalized;
//! - row `i`, while it is solved, in a buffer `BLOCK − 1` cells longer than
//!   the row. It is copied into the triangle when the row is done.
//!
//! The candidates of cell `(i, j)` are then two contiguous slices, lanes
//! `0..j−i` of the row buffer and rows `i+1..=j` of mirror column `j`.
//! Both are read in whole blocks of `BLOCK` = 8 lanes; a lane past the
//! candidates has the mirror's `−∞` padding as its right operand, so its
//! sum is `−∞` (or NaN) whatever the row buffer holds there.
//!
//! Each block is first tested without a branch per lane: does any sum
//! exceed the lowest value the adoption rule could take? That floor is
//! `best + ε`, or `min(best + ε, best − ε)` when
//! [`DpConfig::prefer_coarse_ties`] is set. Only a block that passes runs
//! the rule itself, lane by lane in order of `k`, as the plain loop does.
//!
//! This is exact. Within a cell `best` never falls (an adoption keeps
//! `max(best, pIC)`), so neither does the floor: a sum at or below the
//! floor at a block's start cannot be adopted anywhere in that block. A
//! `−∞` or NaN sum exceeds no floor. So cuts, pIC bits and aggregate counts
//! equal the plain loop's for every cube, tie rule and thread count; a
//! property test pins the kernel to that loop.
//!
//! The price is scratch memory: per node being solved, the mirror's
//! `|T|(|T| + 15)/2` floats (~245 KB at `|T| = 240`), one padded row and
//! four row buffers (below), freed when the node returns. Parallel sibling
//! solves hold one set each.
//!
//! # Inputs read by rows
//!
//! Row `i`'s other inputs are read once, before its first cell is solved:
//! the keep gain and loss of columns `from..|T|` in one
//! [`QualityCube::gain_loss_row`] call (a matrix row copy for a dense cube,
//! the state-by-state row evaluator for the prefix sums), and the spatial
//! candidates, the children's pIC and count rows summed column by column in
//! child order. The pIC sums start from `−0.0`, as `f64: Sum` does, so each
//! has the bits of the per-cell sum it replaces (a keep pIC is `−0.0` where
//! `p = 0` meets a zero loss).
//!
//! # Reusing a tree
//!
//! A live refresh changes a few slices of a model the previous refresh
//! already solved. `aggregate_reusing` takes that tree, the first slice
//! `a` whose data may have changed, and the last slice `z` that holds data
//! in either version. Cell `(i, j)` reads only cells inside `[i, j]` of its
//! node's subtree, and those read the cube's prefix sums at `i` and `j + 1`
//! and between. So when `j < a` every input is a sum of unchanged slices,
//! and when `i > z` every slice it spans is zero before and after (a
//! difference of equal prefix sums is `+0.0`, and an empty area's gain and
//! loss are `0.0`). Either way the inputs are the same bits, so the cell is
//! copied; the others are solved as above. Which cells to solve is decided
//! once per row — columns `max(i, a)..|T|`, or none when `i > z` — and the
//! copy is compiled only into the reusing kernel (a const parameter), so a
//! full DP runs the same loop as before. A cell after the band whose
//! slices hold data must be solved: it reads prefix sums shifted by the
//! band's new values, and a difference of shifted sums can round
//! differently. A property test pins reused trees to the full DP at every
//! cell.

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
    /// Use the pool: Algorithm 1 solves hierarchy siblings in parallel, and
    /// [`significant_partitions`](crate::significant_partitions) probes the
    /// midpoints of one dichotomy level side by side, each DP then on one
    /// thread. Off, both stay on the caller's thread. Never changes a bit
    /// of the output.
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

/// A tree computed on an earlier version of the same model, and where the
/// two versions may differ: see [`aggregate_reusing`].
#[derive(Clone, Copy)]
pub(crate) struct Reuse<'a> {
    /// The earlier DP, at the same `p` and tie rule.
    pub tree: &'a CutTree,
    /// `a`: every slice before it holds the same data in both versions.
    pub first_changed: usize,
    /// `z`: every slice after it holds only zeros in both versions.
    pub last_data: usize,
}

/// Run Algorithm 1 on any quality cube for trade-off `p`.
pub fn aggregate<C: QualityCube>(input: &C, p: f64, config: &DpConfig) -> CutTree {
    aggregate_with(input, p, config, None)
}

/// Algorithm 1 on a model that differs from the one `reuse.tree` was
/// computed on only in slices `a..=z` (`reuse.first_changed`,
/// `reuse.last_data`); every slice after `z` is zero in both. Cells that
/// cannot have changed are copied from the old tree, the others are solved
/// as [`aggregate`] solves them, and the result equals [`aggregate`] on
/// the new model at every cell: cut, pIC bits and aggregate count. See
/// the module docs for why.
pub(crate) fn aggregate_reusing<C: QualityCube>(
    input: &C,
    p: f64,
    config: &DpConfig,
    reuse: Reuse<'_>,
) -> CutTree {
    let tree = reuse.tree;
    assert!(
        tree.p.to_bits() == p.to_bits()
            && tree.n_slices == input.n_slices()
            && tree.cuts.len() == input.hierarchy().len(),
        "a reused tree must come from the same problem at the same p"
    );
    aggregate_with(input, p, config, Some(reuse))
}

fn aggregate_with<C: QualityCube>(
    input: &C,
    p: f64,
    config: &DpConfig,
    reuse: Option<Reuse<'_>>,
) -> CutTree {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1], got {p}");
    let n_nodes = input.hierarchy().len();
    // Results land in per-node OnceLocks: each node is written exactly
    // once, after its children.
    let solved: Vec<OnceLock<NodeResult>> = (0..n_nodes).map(|_| OnceLock::new()).collect();
    solve(input.hierarchy().root(), input, p, config, reuse, &solved);

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
    reuse: Option<Reuse<'_>>,
    solved: &[OnceLock<NodeResult>],
) {
    let children = input.hierarchy().children(node);
    let visit = |&c: &NodeId| solve(c, input, p, config, reuse, solved);
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
    let eps = config.epsilon;
    let (pics, counts) = (&child_pics[..], &child_counts[..]);
    let result = match (config.prefer_coarse_ties, reuse.is_some()) {
        (true, true) => solve_node::<C, true, true>(input, node, p, eps, pics, counts, reuse),
        (true, false) => solve_node::<C, true, false>(input, node, p, eps, pics, counts, reuse),
        (false, true) => solve_node::<C, false, true>(input, node, p, eps, pics, counts, reuse),
        (false, false) => solve_node::<C, false, false>(input, node, p, eps, pics, counts, reuse),
    };
    solved[node.index()].set(result).expect("node solved once");
}

/// Convenience wrapper with default configuration.
pub fn aggregate_default<C: QualityCube>(input: &C, p: f64) -> CutTree {
    aggregate(input, p, &DpConfig::default())
}

/// Number of temporal-cut candidates the kernel tests at once.
const BLOCK: usize = 8;

/// Column-major copy of one node's pIC triangle, padded for whole blocks:
/// column `j` holds rows `0..=j` contiguously, then `BLOCK − 1` cells of
/// `−∞`.
struct ColumnMirror {
    data: Vec<f64>,
}

impl ColumnMirror {
    fn new(n: usize) -> Self {
        Self {
            data: vec![f64::NEG_INFINITY; Self::start(n)],
        }
    }

    /// Offset of column `j`: each column `c < j` takes `c + BLOCK` cells.
    #[inline]
    fn start(j: usize) -> usize {
        j * (j + 2 * BLOCK - 1) / 2
    }

    /// Column `j`, padding included: `[0, j], [1, j], …, [j, j], −∞, …`.
    #[inline]
    fn column(&self, j: usize) -> &[f64] {
        let start = Self::start(j);
        &self.data[start..start + j + BLOCK]
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[Self::start(j) + i] = v;
    }
}

/// Index of the first block where some `left[t] + right[t]` exceeds
/// `floor`, or `left.len()`. Each block is tested without a branch per
/// lane.
#[inline]
fn first_exceeding(left: &[[f64; BLOCK]], right: &[[f64; BLOCK]], floor: f64) -> usize {
    left.iter()
        .zip(right)
        .position(|(l, r)| {
            l.iter()
                .zip(r)
                .fold(false, |hit, (&a, &b)| hit | (a + b > floor))
        })
        .unwrap_or(left.len())
}

/// The per-node DP (cell iteration of Algorithm 1) with tie tolerance
/// `eps`.
///
/// Also tracks, per cell, the aggregate count of the chosen subpartition;
/// when `COARSE` ([`DpConfig::prefer_coarse_ties`]) is set, pIC-equal cuts
/// (within `eps`) with a lower count displace the current choice. The tie
/// rule is a const parameter so that each rule gets its own loop, free of
/// the other's tests.
///
/// The temporal cuts of cell `(i, j)` are scanned as two contiguous slices,
/// the row being solved and column `j` of the `−∞`-padded mirror, in blocks
/// of [`BLOCK`]; the adoption rule runs only in blocks that could adopt (see
/// the module docs). Row `i`'s keep values and spatial sums are read by
/// rows before its first cell is solved. With a reused tree (`REUSE`), row
/// `i` copies its cells before column `max(i, a)` from it, or the whole row
/// when `i > z`; like the tie rule, this is a const parameter, so a full DP
/// runs a loop free of the copy.
fn solve_node<C: QualityCube, const COARSE: bool, const REUSE: bool>(
    input: &C,
    node: NodeId,
    p: f64,
    eps: f64,
    child_pics: &[&TriMatrix<f64>],
    child_counts: &[&TriMatrix<u32>],
    reuse: Option<Reuse<'_>>,
) -> NodeResult {
    let n = input.n_slices();
    let coarse = COARSE;
    // No temporal pIC at or below `floor_of(best)` can be adopted over
    // `best` by the rule below.
    let floor_of = |best: f64| {
        if coarse {
            (best + eps).min(best - eps)
        } else {
            best + eps
        }
    };
    let mut cut = TriMatrix::<i32>::new(n);
    let mut pic_m = TriMatrix::<f64>::new(n);
    let mut cnt_m = TriMatrix::<u32>::new(n);
    let mut cols = ColumnMirror::new(n);
    // Row `i` while it is solved: `pIC[i, i..j]`, then stale cells.
    let mut row = vec![0.0; n + BLOCK - 1];
    // Row `i`'s inputs at columns `from..n`, cell `j` at `j − from`: the
    // keep gain and loss, and the children's summed pIC and count.
    let (mut keep_gain, mut keep_loss) = (vec![0.0; n], vec![0.0; n]);
    let (mut spatial_pic, mut spatial_cnt) = (vec![0.0; n], vec![0u32; n]);

    for i in (0..n).rev() {
        // Row `i` solves columns `from..n`; a reused tree supplies the rest.
        let mut from = i;
        if let (true, Some(old)) = (REUSE, reuse) {
            let (a, z) = (old.first_changed, old.last_data);
            from = if i > z { n } else { i.max(a) };
            let k = node.index();
            for j in i..from {
                let v = old.tree.pic[k].get(i, j);
                cut.set(i, j, old.tree.cuts[k].get(i, j));
                cnt_m.set(i, j, old.tree.counts[k].get(i, j));
                row[j - i] = v;
                cols.set(i, j, v);
            }
        }
        let width = n - from;
        // No cut: each cell of the row as one aggregate, read in one call
        // so a cube can evaluate the row state by state.
        input.gain_loss_row(
            node,
            i,
            from,
            &mut keep_gain[..width],
            &mut keep_loss[..width],
        );
        // Spatial cut: the children's optimal pICs and counts, summed
        // column by column in child order from `−0.0`, as `f64: Sum` does
        // (a keep pIC is `−0.0` where `p = 0` meets a zero loss).
        if !child_pics.is_empty() {
            spatial_pic[..width].fill(-0.0);
            spatial_cnt[..width].fill(0);
            for (m, c) in child_pics.iter().zip(child_counts) {
                let cells = spatial_pic[..width]
                    .iter_mut()
                    .zip(&mut spatial_cnt[..width]);
                let child = m.row(i)[from - i..].iter().zip(&c.row(i)[from - i..]);
                for ((s, n_s), (&v, &n_v)) in cells.zip(child) {
                    *s += v;
                    *n_s += n_v;
                }
            }
        }
        for j in from..n {
            let (g, l) = (keep_gain[j - from], keep_loss[j - from]);
            let mut best_cut = j as i32;
            let mut best = p * g - (1.0 - p) * l;
            let mut best_cnt = 1u32;

            // Spatial cut?
            if !child_pics.is_empty() {
                let (pic_s, cnt_s) = (spatial_pic[j - from], spatial_cnt[j - from]);
                let better = pic_s > best + eps;
                let coarser_tie = coarse && cnt_s < best_cnt && (pic_s - best).abs() <= eps;
                if better || coarser_tie {
                    best_cut = -1;
                    best = best.max(pic_s);
                    best_cnt = cnt_s;
                }
            }

            // Temporal cuts, in order of `k`: lane `t` of block `b` is
            // `k = i + b·BLOCK + t`, summing `pIC[i, k]` and `pIC[k+1, j]`.
            let n_blocks = (j - i).div_ceil(BLOCK);
            let (left, _) = row[..n_blocks * BLOCK].as_chunks::<BLOCK>();
            let (right, _) = cols.column(j)[i + 1..i + 1 + n_blocks * BLOCK].as_chunks::<BLOCK>();
            let mut b = 0;
            loop {
                b += first_exceeding(&left[b..], &right[b..], floor_of(best));
                let (Some(l), Some(r)) = (left.get(b), right.get(b)) else {
                    break;
                };
                for (k, (&a, &c)) in (i + b * BLOCK..).zip(l.iter().zip(r)) {
                    let pic_t = a + c;
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
                b += 1;
            }

            cut.set(i, j, best_cut);
            cnt_m.set(i, j, best_cnt);
            row[j - i] = best;
            cols.set(i, j, best);
        }
        pic_m.row_mut(i).copy_from_slice(&row[..n - i]);
    }
    (cut, pic_m, cnt_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::AggregationInput;
    use crate::test_models::{pure_random_blocks, random_trace, SHAPES, SLICE_COUNTS};
    use ocelotl_trace::synthetic::{block_model, fig3_model, random_model, Block};
    use ocelotl_trace::{Hierarchy, StateRegistry};

    /// The plain cell loop the kernel replaced: every candidate `k` in
    /// order, each read through the row-major triangles. The kernel must
    /// match it bit for bit.
    fn solve_node_oracle<C: QualityCube>(
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
                let (g, l) = input.gain_loss(node, i, j);
                let mut best_cut = j as i32;
                let mut best = p * g - (1.0 - p) * l;
                let mut best_cnt = 1u32;

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

    /// [`aggregate`] over the oracle: nodes in post-order, one thread.
    fn aggregate_oracle<C: QualityCube>(input: &C, p: f64, config: &DpConfig) -> CutTree {
        let h = input.hierarchy();
        let mut solved: Vec<Option<NodeResult>> = (0..h.len()).map(|_| None).collect();
        for &node in h.post_order() {
            let result = {
                let children: Vec<&NodeResult> = h
                    .children(node)
                    .iter()
                    .map(|c| solved[c.index()].as_ref().expect("children first"))
                    .collect();
                let pics: Vec<&TriMatrix<f64>> = children.iter().map(|r| &r.1).collect();
                let counts: Vec<&TriMatrix<u32>> = children.iter().map(|r| &r.2).collect();
                solve_node_oracle(input, node, p, config, &pics, &counts)
            };
            solved[node.index()] = Some(result);
        }
        let (mut cuts, mut pic, mut counts) = (Vec::new(), Vec::new(), Vec::new());
        for (c, q, n) in solved.into_iter().map(|r| r.expect("every node solved")) {
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

    /// Every cell of every node: the same cut, the same pIC bits and the
    /// same aggregate count.
    fn assert_same_cells(kernel: &CutTree, oracle: &CutTree, what: &str) {
        let pic_bits = |t: &CutTree| -> Vec<Vec<u64>> {
            t.pic
                .iter()
                .map(|m| m.iter().map(|(_, _, v)| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(kernel.cuts, oracle.cuts, "cuts differ: {what}");
        assert_eq!(pic_bits(kernel), pic_bits(oracle), "pIC differs: {what}");
        assert_eq!(kernel.counts, oracle.counts, "counts differ: {what}");
    }

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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// The kernel (column mirror, block skip) equals the plain cell
        /// loop on every cell of every node, for both cubes, both tie
        /// rules, sequential and parallel, at `p` = 0, 1, random values and
        /// the significant set's boundaries.
        #[test]
        fn kernel_matches_oracle_on_every_cell(
            shape in 0..SHAPES.len(),
            slices in 0..SLICE_COUNTS.len(),
            n_states in 1usize..5,
            kind in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
            random_p in (0.0f64..=1.0, 0.0f64..=1.0),
        ) {
            let (shape, t) = (SHAPES[shape], SLICE_COUNTS[slices]);
            let from_trace = |metric: crate::session::Metric| {
                metric
                    .build_model(&random_trace(shape, n_states, seed), t)
                    .expect("every random trace has intervals")
            };
            let model = match kind {
                0 => random_model(shape, t, n_states, seed),
                1 => from_trace(crate::session::Metric::States),
                2 => from_trace(crate::session::Metric::Density),
                _ => pure_random_blocks(shape, t, n_states, seed),
            };
            let dense = crate::cube::DenseCube::build(&model);
            let lazy = crate::cube::CubeCore::build(&model);

            let mut ps = vec![0.0, 1.0, random_p.0, random_p.1];
            let levels = crate::pvalues::significant_partitions(&dense, &DpConfig::default(), 0.05);
            ps.extend(levels.iter().skip(1).take(4).map(|e| e.p_low));

            for &p in &ps {
                for coarse in [false, true] {
                    let oracle_config = DpConfig { prefer_coarse_ties: coarse, ..DpConfig::default() };
                    let oracle = aggregate_oracle(&dense, p, &oracle_config);
                    for parallel in [false, true] {
                        let config = DpConfig { parallel, ..oracle_config };
                        let what = format!(
                            "shape {shape:?}, |T| {t}, {n_states} states, kind {kind}, \
                             seed {seed}, p {p}, coarse {coarse}, parallel {parallel}"
                        );
                        assert_same_cells(&aggregate(&dense, p, &config), &oracle, &format!("dense, {what}"));
                        assert_same_cells(&aggregate(&lazy, p, &config), &oracle, &format!("lazy, {what}"));
                    }
                }
            }
        }
    }

    /// A duration model over `shape` at `t` slices of length 1: every
    /// leaf-state cell of slices `0..=z` holds a random share of its slice
    /// (a fifth stay empty), every later slice is zero. `other`, when
    /// given, is the model to copy outside `band`: the cells of its slices
    /// inside `band` are drawn afresh.
    fn durations_up_to(
        shape: &[usize],
        t: usize,
        n_states: usize,
        z: usize,
        other: Option<(&ocelotl_trace::MicroModel, (usize, usize))>,
        rng: &mut ocelotl_trace::synthetic::SplitMix64,
    ) -> ocelotl_trace::MicroModel {
        let h = Hierarchy::balanced(shape);
        let n_leaves = h.n_leaves();
        let names: Vec<String> = (0..n_states).map(|x| format!("s{x}")).collect();
        let mut data = vec![0.0; n_leaves * n_states * t];
        for leaf in 0..n_leaves {
            for x in 0..n_states {
                let row = (leaf * n_states + x) * t;
                for slice in 0..=z {
                    data[row + slice] = match other {
                        Some((m, (a, b))) if slice < a || slice > b => m.duration(
                            ocelotl_trace::LeafId(leaf as u32),
                            ocelotl_trace::StateId(x as u16),
                            slice,
                        ),
                        _ if rng.below(5) == 0 => 0.0,
                        _ => rng.next_f64() / n_states as f64,
                    };
                }
            }
        }
        ocelotl_trace::MicroModel::from_dense(
            h,
            StateRegistry::from_names(names),
            ocelotl_trace::TimeGrid::new(0.0, t as f64, t),
            data,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// A DP that reuses the tree of an earlier model equals the full DP
        /// on the new model at every cell, when the two models differ only
        /// in slices `a..=b` and are zero after `z ≥ b`: for both cubes,
        /// both tie rules, sequential and parallel, with `a = 0` and
        /// `z = |T| − 1` among the cases.
        #[test]
        fn reuse_matches_full_dp_on_every_cell(
            shape in 0..SHAPES.len(),
            slices in 0..SLICE_COUNTS.len(),
            n_states in 1usize..5,
            seed in proptest::prelude::any::<u64>(),
            edges in 0usize..4,
            band in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            random_p in 0.0f64..=1.0,
        ) {
            let (shape, t) = (SHAPES[shape], SLICE_COUNTS[slices]);
            let pick = |u: f64, n: usize| ((u * n as f64) as usize).min(n - 1);
            let z = if edges & 1 == 1 { t - 1 } else { pick(band.2, t) };
            let b = pick(band.1, z + 1);
            let a = if edges & 2 == 2 { 0 } else { pick(band.0, b + 1) };
            let mut rng = ocelotl_trace::synthetic::SplitMix64(seed);
            let old_model = durations_up_to(shape, t, n_states, z, None, &mut rng);
            let new_model =
                durations_up_to(shape, t, n_states, z, Some((&old_model, (a, b))), &mut rng);
            let cubes = |m: &ocelotl_trace::MicroModel| {
                (crate::cube::DenseCube::build(m), crate::cube::CubeCore::build(m))
            };
            let (old_dense, old_lazy) = cubes(&old_model);
            let (new_dense, new_lazy) = cubes(&new_model);
            for p in [0.0, 1.0, random_p] {
                for coarse in [false, true] {
                    for parallel in [false, true] {
                        let config = DpConfig {
                            prefer_coarse_ties: coarse,
                            parallel,
                            ..DpConfig::default()
                        };
                        let what = format!(
                            "shape {shape:?}, |T| {t}, {n_states} states, seed {seed}, \
                             a {a}, b {b}, z {z}, p {p}, coarse {coarse}, parallel {parallel}"
                        );
                        let full = aggregate(&new_dense, p, &config);
                        let old = aggregate(&old_dense, p, &config);
                        let reuse = Reuse { tree: &old, first_changed: a, last_data: z };
                        assert_same_cells(
                            &aggregate_reusing(&new_dense, p, &config, reuse),
                            &full,
                            &format!("dense, {what}"),
                        );
                        let old = aggregate(&old_lazy, p, &config);
                        let reuse = Reuse { tree: &old, first_changed: a, last_data: z };
                        assert_same_cells(
                            &aggregate_reusing(&new_lazy, p, &config, reuse),
                            &full,
                            &format!("lazy, {what}"),
                        );
                    }
                }
            }
        }
    }
}
