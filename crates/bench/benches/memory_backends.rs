//! Dense vs. lazy quality cubes: build time, aggregate-at-p latency, and
//! resident memory, sweeping the slice count |T|.
//!
//! The dense cube precomputes `O(|S|·|T|²)` triangular matrices so a
//! `p`-slide re-runs the DP on cached cells (§V.B "instantaneous
//! interaction"); the lazy one (the `CubeCore` prefix sums) stores
//! `O(|S|·|T|·|X|)` floats and pays `O(|X|)` per cell query. This bench quantifies both sides of
//! that trade so the session's 1 GiB size rule has numbers behind it:
//! build time (where lazy wins by skipping |T|² work), aggregation
//! latency (where dense wins by a constant factor), and bytes resident
//! (where lazy's linear growth is the whole point).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocelotl::core::{aggregate_default, dense_matrix_bytes, CubeCore, DenseCube};
use ocelotl::mpisim::{scenario, CaseId};
use ocelotl::prelude::*;
use std::hint::black_box;

/// |T| values to sweep. 64 is paper-scale; 1024 is where dense matrices
/// start dwarfing the microscopic model itself.
const SLICE_COUNTS: [usize; 3] = [64, 256, 1024];

fn bench_memory_backends(c: &mut Criterion) {
    // Table II case A (64 ranks) at laptop scale: a realistic hierarchy
    // rather than a synthetic toy.
    let (trace, _) = scenario(CaseId::A, 0.01).run(42);

    let mut g = c.benchmark_group("memory_backends");
    g.sample_size(10);
    for slices in SLICE_COUNTS {
        let model = MicroModel::from_trace(&trace, slices).unwrap();

        // Build time: dense pays |S|·|T|²/2 cell evaluations up front,
        // lazy only the prefix sums.
        g.bench_with_input(BenchmarkId::new("build/dense", slices), &model, |b, m| {
            b.iter(|| black_box(DenseCube::build(m)))
        });
        g.bench_with_input(BenchmarkId::new("build/lazy", slices), &model, |b, m| {
            b.iter(|| black_box(CubeCore::build(m)))
        });

        // Aggregate-at-p latency (the analyst sliding the strength): for
        // the biggest sweep point the O(|S||T|³) DP dominates either way;
        // skip it there to keep the bench runnable on a laptop.
        if slices <= 256 {
            let dense = DenseCube::build(&model);
            let lazy = CubeCore::build(&model);
            g.bench_with_input(
                BenchmarkId::new("aggregate/dense", slices),
                &dense,
                |b, cube| b.iter(|| black_box(aggregate_default(cube, 0.5))),
            );
            g.bench_with_input(
                BenchmarkId::new("aggregate/lazy", slices),
                &lazy,
                |b, cube| b.iter(|| black_box(aggregate_default(cube, 0.5))),
            );
        }
    }
    g.finish();

    // Resident-memory table (printed, not timed): the asymptotic story.
    println!("\nresident bytes, dense vs lazy (case A, 64 ranks):");
    println!(
        "{:>8} {:>16} {:>16} {:>10}",
        "|T|", "dense", "lazy", "ratio"
    );
    for slices in SLICE_COUNTS {
        let model = MicroModel::from_trace(&trace, slices).unwrap();
        let dense = DenseCube::build(&model).memory_bytes();
        let lazy = CubeCore::build(&model).memory_bytes();
        println!(
            "{:>8} {:>16} {:>16} {:>9.1}x",
            slices,
            dense,
            lazy,
            dense as f64 / lazy as f64
        );
    }
    let n_nodes = MicroModel::from_trace(&trace, 64)
        .unwrap()
        .hierarchy()
        .len();
    println!(
        "\nprojected dense matrices at |T| = 4096: {:.1} GiB (lazy stays linear)",
        dense_matrix_bytes(n_nodes, 4096) as f64 / (1u64 << 30) as f64
    );
}

criterion_group!(benches, bench_memory_backends);
criterion_main!(benches);
