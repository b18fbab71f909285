//! Backend equivalence: the dense (precomputed triangular matrices) and
//! lazy (on-demand from prefix sums) quality cubes must be
//! indistinguishable to every consumer.
//!
//! The contract is strict: because both backends evaluate cells through
//! the same `CubeCore::eval_cell` arithmetic, answers are required to be
//! **bit-identical**, not merely close — so the DP, the p-value
//! dichotomy, and every report produce exactly the same output under
//! either backend.

use ocelotl::core::{
    aggregate, aggregate_default, backend_footprint, dense_matrix_bytes, significant_partitions,
    CubeCore, DenseCube, DpConfig,
};
use ocelotl::mpisim::{scenario, CaseId};
use ocelotl::prelude::*;
use ocelotl::trace::synthetic::random_model;
use proptest::prelude::*;

/// Strategy: a random model shape (fanouts × slices × states) and seed.
fn arb_shape() -> impl Strategy<Value = (Vec<usize>, usize, usize, u64)> {
    (
        prop::collection::vec(2usize..5, 1..3), // hierarchy fanouts
        2usize..14,                             // slices
        1usize..4,                              // states
        any::<u64>(),                           // data seed
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every cell of the cube: gain and loss agree to the last bit.
    #[test]
    fn all_cells_bit_identical((fanouts, t, x, seed) in arb_shape()) {
        let m = random_model(&fanouts, t, x, seed);
        let dense = DenseCube::build(&m);
        let lazy = CubeCore::build(&m);
        for node in m.hierarchy().node_ids() {
            for i in 0..t {
                for j in i..t {
                    prop_assert_eq!(dense.gain(node, i, j), lazy.gain(node, i, j));
                    prop_assert_eq!(dense.loss(node, i, j), lazy.loss(node, i, j));
                    let (g, l) = lazy.gain_loss(node, i, j);
                    prop_assert_eq!(g, lazy.gain(node, i, j));
                    prop_assert_eq!(l, lazy.loss(node, i, j));
                    prop_assert_eq!(
                        dense.rho_aggregate_all(node, i, j),
                        lazy.rho_aggregate_all(node, i, j)
                    );
                }
            }
        }
    }

    /// Algorithm 1 returns the identical partition (and the identical
    /// optimal pIC, bit for bit) under both backends.
    #[test]
    fn aggregate_partitions_identical((fanouts, t, x, seed) in arb_shape(), p in 0.0f64..=1.0) {
        let m = random_model(&fanouts, t, x, seed);
        let dense = DenseCube::build(&m);
        let lazy = CubeCore::build(&m);
        for config in [DpConfig::default(), DpConfig::coarse_ties()] {
            let td = aggregate(&dense, p, &config);
            let tl = aggregate(&lazy, p, &config);
            prop_assert_eq!(td.partition(&dense), tl.partition(&lazy));
            prop_assert_eq!(td.optimal_pic(&dense), tl.optimal_pic(&lazy));
        }
    }

    /// The p-value dichotomy finds the identical significant levels.
    #[test]
    fn significant_partitions_identical((fanouts, t, x, seed) in arb_shape()) {
        let m = random_model(&fanouts, t, x, seed);
        let dense = DenseCube::build(&m);
        let lazy = CubeCore::build(&m);
        let ed = significant_partitions(&dense, &DpConfig::default(), 1e-2);
        let el = significant_partitions(&lazy, &DpConfig::default(), 1e-2);
        prop_assert_eq!(ed.len(), el.len());
        for (a, b) in ed.iter().zip(&el) {
            prop_assert_eq!(a.p_low, b.p_low);
            prop_assert_eq!(a.p_high, b.p_high);
            prop_assert_eq!(&a.partition, &b.partition);
        }
    }
}

/// A realistic trace (Table II case A, 64 ranks) at the paper's |T| = 30:
/// both backends give one partition.
#[test]
fn case_a_backends_agree_at_paper_scale() {
    let (trace, _) = scenario(CaseId::A, 0.005).run(42);
    let model = MicroModel::from_trace(&trace, 30).unwrap();
    let dense = DenseCube::build(&model);
    let lazy = CubeCore::build(&model);
    for p in [0.25, 0.5] {
        let pd = aggregate_default(&dense, p).partition(&dense);
        let pl = aggregate_default(&lazy, p).partition(&lazy);
        assert_eq!(pd, pl, "p = {p}");
        pd.validate(model.hierarchy(), 30).unwrap();
    }
    assert!(lazy.memory_bytes() < dense.memory_bytes());
}

/// The memory story the refactor exists for: at |T| = 2048 on a Table
/// II-scale scenario the lazy cube builds and aggregates while storing
/// only prefix sums — the dense gain/loss matrices it avoids would be
/// tens of gigabytes.
///
/// Ignored by default: the DP itself is `O(|S|·|T|³)`, so this takes
/// minutes of CPU. Run with
/// `cargo test --release -- --ignored lazy_aggregates_at_t2048`.
#[test]
#[ignore = "minutes of CPU: |T| = 2048 exercises the full O(|S||T|^3) DP"]
fn lazy_aggregates_at_t2048_without_dense_matrices() {
    let (trace, _) = scenario(CaseId::A, 0.01).run(42);
    let slices = 2048;
    let model = MicroModel::from_trace(&trace, slices).unwrap();
    let n_nodes = model.hierarchy().len();

    // The matrices the lazy backend refuses to materialize… (~2.3 GiB
    // for case A's ~74 nodes; the paper-motivated |S| ≈ 1500 would be
    // ~47 GiB at this |T|)
    let avoided = dense_matrix_bytes(n_nodes, slices);
    assert!(
        avoided > 2 * (1 << 30),
        "expected the avoided dense matrices to exceed 2 GiB, got {avoided}"
    );

    // …while its own footprint stays linear in |T|.
    let lazy = CubeCore::build(&model);
    assert!(
        lazy.memory_bytes() < avoided / 100,
        "lazy cube should be >100x smaller: {} vs {avoided}",
        lazy.memory_bytes()
    );

    // The session's size rule must reach the same decision on its own.
    assert_eq!(
        backend_footprint(n_nodes, slices, model.n_states()).0,
        "lazy"
    );

    // And the full pipeline completes: Algorithm 1 over the lazy cube.
    let tree = aggregate_default(&lazy, 0.5);
    let part = tree.partition(&lazy);
    part.validate(model.hierarchy(), slices).unwrap();
    assert!(part.len() > 1);
}
