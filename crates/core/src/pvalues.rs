//! Enumeration of *significant* trade-off values (the Ocelotl slider).
//!
//! "The analyst can easily choose several levels of details by sliding the
//! aggregation strength among a set of significant values" (§I). The
//! optimal partition is piecewise-constant in `p`; this module locates the
//! boundaries by dichotomic search and returns one representative partition
//! per stability interval.
//!
//! # Probes by levels
//!
//! The dichotomy probes `p = 0` and `p = 1`, then halves every interval
//! whose ends have different optimal partitions, until the interval is no
//! wider than the resolution or no float lies strictly inside it. It runs
//! level by level: every midpoint of a level is known before any of them
//! is probed, so they are probed side by side on the pool, each DP on one
//! thread. Which midpoints a level holds depends only on the partitions at
//! the ends of the previous level's intervals, never on which probe
//! finishes first, so the probes, and with them the sorted and
//! deduplicated output, are exactly those a depth-first recursion visits.
//!
//! - A level is probed in batches of at most one probe per core, whose DP
//!   tables together stay under [`DENSE_LIMIT_BYTES`]: every core for
//!   case A at 60 slices (74 nodes, ~2 MB of tables per probe), one probe
//!   at a time at 2,048 slices (~2.5 GB). So a level in flight never holds
//!   more DP tables than it has cores to fill them.
//! - A lone probe, a batch or a level of one, runs with the DP's own
//!   sibling parallelism instead.
//! - With [`DpConfig::parallel`] off, the whole search stays on the
//!   caller's thread.
//! - Each probe's cut tree is dropped as soon as its partition is taken,
//!   so only the probes still running hold DP tables.

use crate::cube::{dp_table_bytes, QualityCube, DENSE_LIMIT_BYTES};
use crate::dp::{aggregate, DpConfig};
use crate::partition::Partition;
use rayon::prelude::*;
use std::rc::Rc;

/// One stability interval of the trade-off parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct PEntry {
    /// Left end of the interval where `partition` is optimal.
    pub p_low: f64,
    /// Right end (exclusive up to `resolution`).
    pub p_high: f64,
    /// The optimal partition across `[p_low, p_high]`.
    pub partition: Partition,
}

/// An interval of the dichotomy with the optimal partitions at its ends.
struct Interval {
    lo: f64,
    at_lo: Rc<Partition>,
    hi: f64,
    at_hi: Rc<Partition>,
}

/// All distinct optimal partitions over `p ∈ [0, 1]`, located by dichotomy
/// with the given resolution (boundaries are accurate to ±`resolution`).
///
/// The number of `aggregate` runs is `O(k·log(1/resolution))` for `k`
/// distinct partitions; each run touches only the cached gain/loss matrices
/// (the "instantaneous interaction" property of §V.B). The runs of one
/// level of the dichotomy go side by side; see the module docs.
pub fn significant_partitions<C: QualityCube>(
    input: &C,
    config: &DpConfig,
    resolution: f64,
) -> Vec<PEntry> {
    assert!(resolution > 0.0 && resolution < 1.0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batch = probes_per_batch(input.hierarchy().len(), input.n_slices(), cores);
    let probe = |ps: &[f64]| {
        probe_level(input, config, batch, ps)
            .into_iter()
            .map(Rc::new)
    };

    let mut ends = probe(&[0.0, 1.0]);
    let (at_0, at_1) = (ends.next().expect("p = 0"), ends.next().expect("p = 1"));
    // Collect (p, partition) change points: each entry is the smallest probed
    // p at which its partition was observed.
    let mut changes: Vec<(f64, Rc<Partition>)> = vec![(0.0, Rc::clone(&at_0))];
    let mut level = vec![Interval {
        lo: 0.0,
        at_lo: at_0,
        hi: 1.0,
        at_hi: at_1,
    }];
    while !level.is_empty() {
        let mut halved = Vec::new();
        for interval in level {
            if interval.at_lo == interval.at_hi {
                continue;
            }
            let (lo, hi) = (interval.lo, interval.hi);
            let mid = 0.5 * (lo + hi);
            // A resolution finer than the float spacing around `lo` is
            // reached once no float lies strictly between the ends.
            if hi - lo <= resolution || !(lo < mid && mid < hi) {
                changes.push((hi, interval.at_hi));
            } else {
                halved.push((interval, mid));
            }
        }
        let mids: Vec<f64> = halved.iter().map(|&(_, mid)| mid).collect();
        level = Vec::with_capacity(2 * halved.len());
        for ((interval, mid), at_mid) in halved.into_iter().zip(probe(&mids)) {
            level.push(Interval {
                lo: interval.lo,
                at_lo: interval.at_lo,
                hi: mid,
                at_hi: Rc::clone(&at_mid),
            });
            level.push(Interval {
                lo: mid,
                at_lo: at_mid,
                hi: interval.hi,
                at_hi: interval.at_hi,
            });
        }
    }
    changes.sort_by(|a, b| a.0.total_cmp(&b.0));
    changes.dedup_by(|b, a| a.1 == b.1);

    let mut entries = Vec::with_capacity(changes.len());
    for (idx, (p, part)) in changes.iter().enumerate() {
        let p_high = changes.get(idx + 1).map(|(q, _)| *q).unwrap_or(1.0);
        entries.push(PEntry {
            p_low: *p,
            p_high,
            partition: Partition::clone(part),
        });
    }
    entries
}

/// How many probes of one level may run side by side: one per core, and
/// no more than keep their DP tables together under
/// [`DENSE_LIMIT_BYTES`]; at least one.
fn probes_per_batch(n_nodes: usize, n_slices: usize, cores: usize) -> usize {
    dp_table_bytes(n_nodes, n_slices).map_or(1, |bytes| {
        let fit = DENSE_LIMIT_BYTES as u64 / bytes.max(1);
        usize::try_from(fit).unwrap_or(usize::MAX).min(cores).max(1)
    })
}

/// The optimal partitions at `ps`, in order: batches of `batch` probes
/// side by side, each DP on one thread, unless the configuration keeps
/// the search on the caller's thread; a batch of one keeps the DP's own
/// parallelism.
fn probe_level<C: QualityCube>(
    input: &C,
    config: &DpConfig,
    batch: usize,
    ps: &[f64],
) -> Vec<Partition> {
    let part_at = |p: f64, config: &DpConfig| aggregate(input, p, config).partition(input);
    let one_thread = DpConfig {
        parallel: false,
        ..*config
    };
    let mut parts = Vec::with_capacity(ps.len());
    for chunk in ps.chunks(batch) {
        if chunk.len() == 1 || !config.parallel {
            parts.extend(chunk.iter().map(|&p| part_at(p, config)));
        } else {
            let side_by_side = chunk.par_iter().map(|&p| part_at(p, &one_thread));
            parts.extend(side_by_side.collect::<Vec<_>>());
        }
    }
    parts
}

/// Convenience: the representative `p` values (midpoints of stability
/// intervals), suitable for a UI slider.
pub fn significant_ps(entries: &[PEntry]) -> Vec<f64> {
    entries.iter().map(|e| 0.5 * (e.p_low + e.p_high)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::AggregationInput;
    use crate::test_models::{model_of_kind, CellByCell, SHAPES};
    use ocelotl_trace::synthetic::{fig3_model, random_model};

    /// The recursive dichotomy the level loop replaced: probes one after
    /// another, depth first. The level loop must return the same entries
    /// from the same number of probes.
    fn significant_partitions_recursive<C: QualityCube>(
        input: &C,
        config: &DpConfig,
        resolution: f64,
    ) -> Vec<PEntry> {
        let part_at = |p: f64| aggregate(input, p, config).partition(input);
        let p0 = part_at(0.0);
        let p1 = part_at(1.0);
        let mut changes: Vec<(f64, Partition)> = vec![(0.0, p0.clone())];
        explore(&part_at, 0.0, &p0, 1.0, &p1, resolution, &mut changes);
        changes.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        changes.dedup_by(|b, a| a.1 == b.1);
        let mut entries = Vec::with_capacity(changes.len());
        for (idx, (p, part)) in changes.iter().enumerate() {
            let p_high = changes.get(idx + 1).map(|(q, _)| *q).unwrap_or(1.0);
            entries.push(PEntry {
                p_low: *p,
                p_high,
                partition: part.clone(),
            });
        }
        entries
    }

    fn explore(
        part_at: &impl Fn(f64) -> Partition,
        lo: f64,
        plo: &Partition,
        hi: f64,
        phi: &Partition,
        resolution: f64,
        out: &mut Vec<(f64, Partition)>,
    ) {
        if plo == phi {
            return;
        }
        let mid = 0.5 * (lo + hi);
        if hi - lo <= resolution || !(lo < mid && mid < hi) {
            out.push((hi, phi.clone()));
            return;
        }
        let pmid = part_at(mid);
        explore(part_at, lo, plo, mid, &pmid, resolution, out);
        explore(part_at, mid, &pmid, hi, phi, resolution, out);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// Probes by levels return the recursion's entries from the
        /// recursion's number of DP runs: with `parallel` on and off, and
        /// inside a one-thread pool, at a coarse, the default and a
        /// sub-float-spacing resolution.
        #[test]
        fn levels_match_the_recursive_dichotomy(
            shape in 0..SHAPES.len(),
            slices in 1usize..10,
            n_states in 1usize..4,
            kind in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let model = model_of_kind(kind, SHAPES[shape], slices, n_states, seed);
            let dense = AggregationInput::build(&model);
            let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            for resolution in [0.05, 1e-3, 5e-324] {
                let oracle_cube = CellByCell::new(&dense);
                let oracle = significant_partitions_recursive(&oracle_cube, &DpConfig::default(), resolution);
                for (parallel, pool) in [(true, false), (false, false), (true, true)] {
                    let config = DpConfig { parallel, ..DpConfig::default() };
                    let cube = CellByCell::new(&dense);
                    let run = || significant_partitions(&cube, &config, resolution);
                    let entries = if pool { one_thread.install(run) } else { run() };
                    let what = format!("resolution {resolution}, parallel {parallel}, one-thread pool {pool}");
                    assert_eq!(entries, oracle, "{what}");
                    assert_eq!(cube.runs(), oracle_cube.runs(), "DP runs, {what}");
                }
            }
        }
    }

    #[test]
    fn a_level_runs_on_every_core_unless_its_tables_outgrow_the_dense_bound() {
        // Case A's 74 nodes: ~2.2 MB of DP tables per probe at 60 slices,
        // so one probe per core, on any box; ~155 MB at 512 slices, so six
        // side by side at most; ~2.5 GB at 2,048 slices, so one at a time.
        for cores in [1, 2, 8, 64, 256] {
            assert_eq!(probes_per_batch(74, 60, cores), cores);
        }
        let tables = dp_table_bytes(74, 512).unwrap();
        let fit = probes_per_batch(74, 512, 64);
        assert!(fit as u64 * tables <= DENSE_LIMIT_BYTES as u64, "{fit}");
        assert!(
            (fit as u64 + 1) * tables > DENSE_LIMIT_BYTES as u64,
            "{fit}"
        );
        assert_eq!(probes_per_batch(74, 512, 2), 2);
        assert_eq!(probes_per_batch(74, 2048, 8), 1);
        assert_eq!(probes_per_batch(74, 60, 0), 1, "no core reported");
        assert_eq!(
            probes_per_batch(74, usize::MAX, 8),
            1,
            "an overflowing table size"
        );
    }

    #[test]
    fn fig3_has_multiple_levels_of_detail() {
        let m = fig3_model();
        let input = AggregationInput::build(&m);
        let entries = significant_partitions(&input, &DpConfig::default(), 1e-3);
        assert!(
            entries.len() >= 3,
            "fig3 should expose several levels, got {}",
            entries.len()
        );
        // Entries are ordered and contiguous in p.
        for w in entries.windows(2) {
            assert!(w[0].p_high <= w[1].p_low + 1e-12);
            assert!(w[0].p_low < w[0].p_high);
        }
        // Area counts decrease along the slider.
        let counts: Vec<usize> = entries.iter().map(|e| e.partition.len()).collect();
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "counts should be non-increasing: {counts:?}");
        }
    }

    #[test]
    fn partitions_differ_between_entries() {
        let m = random_model(&[3, 3], 8, 2, 6060);
        let input = AggregationInput::build(&m);
        let entries = significant_partitions(&input, &DpConfig::default(), 1e-3);
        for w in entries.windows(2) {
            assert_ne!(w[0].partition, w[1].partition);
        }
    }

    #[test]
    fn representative_ps_reproduce_their_partition() {
        let m = random_model(&[2, 2], 6, 2, 42);
        let input = AggregationInput::build(&m);
        let cfg = DpConfig::default();
        let entries = significant_partitions(&input, &cfg, 1e-4);
        for (e, p) in entries.iter().zip(significant_ps(&entries)) {
            let part = aggregate(&input, p, &cfg).partition(&input);
            assert_eq!(
                part, e.partition,
                "representative p={p} does not reproduce its interval's partition"
            );
        }
    }

    #[test]
    fn resolution_below_float_spacing_terminates() {
        // Around p = 0.5 adjacent floats are ~1.1e-16 apart, so these
        // resolutions stop only where no float lies between the ends.
        let cfg = DpConfig::default();
        for m in [fig3_model(), random_model(&[3, 2], 9, 3, 77)] {
            let input = AggregationInput::build(&m);
            let coarse = significant_partitions(&input, &cfg, 1e-3);
            for resolution in [1e-300, 5e-324] {
                let entries = significant_partitions(&input, &cfg, resolution);
                assert_eq!(entries[0].p_low, 0.0);
                assert_eq!(entries[entries.len() - 1].p_high, 1.0);
                for w in entries.windows(2) {
                    assert!(w[0].p_low < w[0].p_high);
                    assert_eq!(w[0].p_high, w[1].p_low);
                }
                for level in &coarse {
                    assert!(
                        entries.iter().any(|e| e.partition == level.partition),
                        "resolution {resolution} lost a level found at 1e-3"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_model_has_single_entry() {
        use ocelotl_trace::synthetic::{block_model, Block};
        use ocelotl_trace::{Hierarchy, StateRegistry};
        let m = block_model(
            Hierarchy::balanced(&[2, 2]),
            StateRegistry::from_names(["a"]),
            4,
            &[Block {
                leaves: 0..4,
                slices: 0..4,
                rho: vec![0.5],
            }],
        );
        let input = AggregationInput::build(&m);
        let entries = significant_partitions(&input, &DpConfig::default(), 1e-3);
        assert_eq!(entries.len(), 1, "uniform data has one optimal partition");
        assert_eq!(entries[0].partition.len(), 1);
    }
}
