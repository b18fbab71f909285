//! Enumeration of *significant* trade-off values (the Ocelotl slider).
//!
//! "The analyst can easily choose several levels of details by sliding the
//! aggregation strength among a set of significant values" (§I). The
//! optimal partition is piecewise-constant in `p`; this module locates the
//! boundaries by dichotomic search and returns one representative partition
//! per stability interval.

use crate::cube::QualityCube;
use crate::dp::{aggregate, DpConfig};
use crate::partition::Partition;

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

/// All distinct optimal partitions over `p ∈ [0, 1]`, located by dichotomy
/// with the given resolution (boundaries are accurate to ±`resolution`).
///
/// The number of `aggregate` runs is `O(k·log(1/resolution))` for `k`
/// distinct partitions; each run touches only the cached gain/loss matrices
/// (the "instantaneous interaction" property of §V.B).
pub fn significant_partitions<C: QualityCube>(
    input: &C,
    config: &DpConfig,
    resolution: f64,
) -> Vec<PEntry> {
    assert!(resolution > 0.0 && resolution < 1.0);
    let part_at = |p: f64| aggregate(input, p, config).partition(input);

    let p0 = part_at(0.0);
    let p1 = part_at(1.0);

    // Collect (p, partition) change points: each entry is the smallest probed
    // p at which its partition was observed.
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
    // A resolution finer than the float spacing around `lo` is reached once
    // no float lies strictly between the ends.
    if hi - lo <= resolution || !(lo < mid && mid < hi) {
        out.push((hi, phi.clone()));
        return;
    }
    let pmid = part_at(mid);
    explore(part_at, lo, plo, mid, &pmid, resolution, out);
    explore(part_at, mid, &pmid, hi, phi, resolution, out);
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
    use ocelotl_trace::synthetic::{fig3_model, random_model};

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
