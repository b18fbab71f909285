//! Ablation: the prefix-sum input stage (§III.E; README "Quality cube:
//! chosen by size") vs the naive direct evaluation of Eq. 2–3 per (node,
//! interval).
//!
//! The paper's input stage is `O(|S||T|²)` because the three per-state area
//! sums are *additive*: prefix sums over time make any interval O(1). The
//! naive alternative re-scans every microscopic cell of every interval,
//! `O(|S||T|³)` per hierarchy level — this bench shows what that costs,
//! justifying the design choice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocelotl::core::{AggregationInput, AreaSums, QualityCube, TriMatrix};
use ocelotl::trace::synthetic::random_model;
use ocelotl::trace::{LeafId, MicroModel, StateId};
use std::hint::black_box;

/// Naive input builder: per (node, interval, state), loop over all
/// underlying microscopic cells.
fn build_naive(model: &MicroModel) -> Vec<(TriMatrix<f64>, TriMatrix<f64>)> {
    let h = model.hierarchy();
    let n_slices = model.n_slices();
    let w = model.grid().slice_duration();
    let mut out = Vec::with_capacity(h.len());
    for node in h.node_ids() {
        let n_res = h.n_leaves_under(node);
        let mut gain = TriMatrix::<f64>::new(n_slices);
        let mut loss = TriMatrix::<f64>::new(n_slices);
        for i in 0..n_slices {
            for j in i..n_slices {
                let period = (j - i + 1) as f64 * w;
                let mut g = 0.0;
                let mut l = 0.0;
                for x in 0..model.n_states() {
                    let mut sums = AreaSums::default();
                    for s in h.leaf_range(node) {
                        for t in i..=j {
                            sums.add_cell(
                                model.duration(LeafId(s as u32), StateId(x as u16), t),
                                w,
                            );
                        }
                    }
                    g += sums.gain(n_res, period);
                    l += sums.loss(n_res, period);
                }
                gain.set(i, j, g);
                loss.set(i, j, l);
            }
        }
        out.push((gain, loss));
    }
    out
}

fn bench_prefix_vs_naive(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_input_prefix_vs_naive");
    g.sample_size(10);
    for slices in [15usize, 30, 60] {
        let m = random_model(&[4, 8], slices, 3, 77);
        g.bench_with_input(BenchmarkId::new("prefix_sum", slices), &m, |b, m| {
            b.iter(|| black_box(AggregationInput::build(m)))
        });
        g.bench_with_input(BenchmarkId::new("naive", slices), &m, |b, m| {
            b.iter(|| black_box(build_naive(m)))
        });
    }
    g.finish();
}

/// Sanity: both builders agree (run once under the bench harness so the
/// ablation can't silently compare different quantities).
fn bench_agreement(c: &mut Criterion) {
    let m = random_model(&[3, 3], 12, 2, 5);
    let input = AggregationInput::build(&m);
    let naive = build_naive(&m);
    for node in m.hierarchy().node_ids() {
        for i in 0..12 {
            for j in i..12 {
                let (ng, nl) = (
                    naive[node.index()].0.get(i, j),
                    naive[node.index()].1.get(i, j),
                );
                assert!((input.gain(node, i, j) - ng).abs() < 1e-9);
                assert!((input.loss(node, i, j) - nl).abs() < 1e-9);
            }
        }
    }
    // Register a trivial timing so criterion reports the check ran.
    c.bench_function("ablation_input_agreement_check", |b| {
        b.iter(|| black_box(input.gain(m.hierarchy().root(), 0, 11)))
    });
}

criterion_group!(benches, bench_prefix_vs_naive, bench_agreement);
criterion_main!(benches);
