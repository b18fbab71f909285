//! Information-theoretic measures of the aggregation trade-off (§III.C).
//!
//! For a macroscopic area `A = (S_k, T_(i,j))` and a state `x`:
//!
//! - **information loss** (Eq. 2, Kullback–Leibler form):
//!   `loss_x(A) = Σ_{(s,t)∈A} ρ_x(s,t) · log₂(ρ_x(s,t) / ρ_x(A))`
//! - **data-reduction gain** (Eq. 3, Shannon-entropy reduction):
//!   `gain_x(A) = ρ_x(A)·log₂ ρ_x(A) − Σ_{(s,t)∈A} ρ_x(s,t)·log₂ ρ_x(s,t)`
//! - **parametrized information criterion** (Eq. 4):
//!   `pIC_x = p·gain_x − (1−p)·loss_x`, `p ∈ [0,1]`.
//!
//! All measures are additive over the areas of a partition and over states,
//! which is what makes the dynamic programs of this crate correct.
//!
//! Numerical conventions: `0·log₂0 = 0`; `loss` is clamped to `≥ 0` (its
//! analytic value is non-negative by convexity of `x·log x`, so any negative
//! residue is floating-point noise).

/// `x·log₂(x)` with the continuous extension `0·log₂0 = 0`.
#[inline]
pub fn xlog2x(x: f64) -> f64 {
    if x > 0.0 {
        x * x.log2()
    } else {
        0.0
    }
}

/// Accumulated per-(area, state) sums needed by Eq. 1–3.
///
/// These are exactly the "data input" fields the paper lists in §III.E:
/// the sum of underlying durations, the sum of the state proportions, and
/// the sum of their Shannon information.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AreaSums {
    /// `Σ_{(s,t)∈A} d_x(s,t)` — total time spent in the state.
    pub sum_duration: f64,
    /// `Σ_{(s,t)∈A} ρ_x(s,t)`.
    pub sum_rho: f64,
    /// `Σ_{(s,t)∈A} ρ_x(s,t)·log₂ ρ_x(s,t)`.
    pub sum_rho_log_rho: f64,
}

impl AreaSums {
    /// Aggregated proportion `ρ_x(S_k, T_(i,j))` per Eq. 1:
    /// total state time divided by (`|S_k|` × total period duration).
    #[inline]
    pub fn rho_aggregate(&self, n_resources: usize, period_duration: f64) -> f64 {
        if period_duration <= 0.0 || n_resources == 0 {
            return 0.0;
        }
        self.sum_duration / (n_resources as f64 * period_duration)
    }

    /// Eq. 2 information loss for this state on this area.
    #[inline]
    pub fn loss(&self, n_resources: usize, period_duration: f64) -> f64 {
        self.gain_loss(n_resources, period_duration).1
    }

    /// Eq. 3 data-reduction gain for this state on this area.
    ///
    /// May be negative: replacing microscopic values by their average can
    /// *increase* Shannon information when the average falls closer to the
    /// entropy-maximizing proportion than the originals.
    #[inline]
    pub fn gain(&self, n_resources: usize, period_duration: f64) -> f64 {
        self.gain_loss(n_resources, period_duration).0
    }

    /// `(gain, loss)` together (Eq. 3 and Eq. 2), from one `ρ_x(A)` and
    /// one `log₂ ρ_x(A)`. Every cube cell is evaluated through this.
    #[inline]
    pub fn gain_loss(&self, n_resources: usize, period_duration: f64) -> (f64, f64) {
        let rho_agg = self.rho_aggregate(n_resources, period_duration);
        if rho_agg > 0.0 {
            let log = rho_agg.log2();
            let gain = rho_agg * log - self.sum_rho_log_rho;
            let loss = (self.sum_rho_log_rho - self.sum_rho * log).max(0.0);
            (gain, loss)
        } else {
            // `0·log₂0 = 0`, and all microscopic proportions are 0 too: no
            // information to lose.
            (0.0 - self.sum_rho_log_rho, 0.0)
        }
    }

    /// Merge with another accumulator (additivity over disjoint cell sets).
    #[inline]
    pub fn merge(&mut self, other: &AreaSums) {
        self.sum_duration += other.sum_duration;
        self.sum_rho += other.sum_rho;
        self.sum_rho_log_rho += other.sum_rho_log_rho;
    }

    /// Accumulate one microscopic cell with duration `d` inside a slice of
    /// duration `slice_duration`.
    #[inline]
    pub fn add_cell(&mut self, d: f64, slice_duration: f64) {
        let rho = d / slice_duration;
        self.sum_duration += d;
        self.sum_rho += rho;
        self.sum_rho_log_rho += xlog2x(rho);
    }
}

/// Eq. 4: the parametrized information criterion.
#[inline]
pub fn pic(p: f64, gain: f64, loss: f64) -> f64 {
    p * gain - (1.0 - p) * loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xlog2x_conventions() {
        assert_eq!(xlog2x(0.0), 0.0);
        assert_eq!(xlog2x(1.0), 0.0);
        assert!((xlog2x(0.5) + 0.5).abs() < 1e-12);
        assert!(xlog2x(0.25) < 0.0);
    }

    fn sums_from_rhos(rhos: &[f64], slice_duration: f64) -> AreaSums {
        let mut s = AreaSums::default();
        for &r in rhos {
            s.add_cell(r * slice_duration, slice_duration);
        }
        s
    }

    #[test]
    fn homogeneous_area_has_zero_loss() {
        // 4 cells, all ρ = 0.3, one resource × 4 slices of duration 2.
        let s = sums_from_rhos(&[0.3; 4], 2.0);
        let loss = s.loss(1, 8.0);
        assert!(
            loss.abs() < 1e-12,
            "homogeneous loss should be 0, got {loss}"
        );
        let rho = s.rho_aggregate(1, 8.0);
        assert!((rho - 0.3).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_area_has_positive_loss() {
        let s = sums_from_rhos(&[1.0, 0.0], 1.0);
        // 2 resources × 1 slice of duration 1.
        let loss = s.loss(2, 1.0);
        assert!((loss - 1.0).abs() < 1e-12, "loss = {loss}");
    }

    #[test]
    fn gain_matches_entropy_reduction() {
        // Two cells ρ = 0.5 each → micro info = 2·(0.5·log2 0.5) = −1,
        // aggregate ρ = 0.5 → macro info = −0.5; gain = −0.5 − (−1) = 0.5.
        let s = sums_from_rhos(&[0.5, 0.5], 1.0);
        let gain = s.gain(2, 1.0);
        assert!((gain - 0.5).abs() < 1e-12, "gain = {gain}");
    }

    #[test]
    fn gain_can_be_negative() {
        // ρ = {1, 0}: micro info 0, aggregate 0.5 → gain = −0.5.
        let s = sums_from_rhos(&[1.0, 0.0], 1.0);
        let gain = s.gain(2, 1.0);
        assert!((gain + 0.5).abs() < 1e-12, "gain = {gain}");
    }

    #[test]
    fn all_zero_area_is_neutral() {
        let s = sums_from_rhos(&[0.0, 0.0, 0.0], 1.0);
        assert_eq!(s.loss(3, 1.0), 0.0);
        assert_eq!(s.gain(3, 1.0), 0.0);
        assert_eq!(s.rho_aggregate(3, 1.0), 0.0);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = sums_from_rhos(&[0.2, 0.4], 1.0);
        let b = sums_from_rhos(&[0.6], 1.0);
        a.merge(&b);
        let whole = sums_from_rhos(&[0.2, 0.4, 0.6], 1.0);
        assert!((a.sum_duration - whole.sum_duration).abs() < 1e-12);
        assert!((a.sum_rho - whole.sum_rho).abs() < 1e-12);
        assert!((a.sum_rho_log_rho - whole.sum_rho_log_rho).abs() < 1e-12);
    }

    #[test]
    fn pic_endpoints() {
        assert_eq!(pic(0.0, 3.0, 2.0), -2.0);
        assert_eq!(pic(1.0, 3.0, 2.0), 3.0);
        assert!((pic(0.5, 3.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gain_loss_has_the_bits_of_eq_2_and_3() {
        let bits = |(g, l): (f64, f64)| (g.to_bits(), l.to_bits());
        // Eq. 3 and Eq. 2 as written, each from its own `ρ_x(A)` and
        // `log₂ ρ_x(A)`: the bodies `gain` and `loss` had before they
        // shared one.
        let apart = |s: &AreaSums, n: usize, period: f64| {
            let rho_agg = s.rho_aggregate(n, period);
            let gain = xlog2x(rho_agg) - s.sum_rho_log_rho;
            let loss = if rho_agg <= 0.0 {
                0.0
            } else {
                (s.sum_rho_log_rho - s.sum_rho * rho_agg.log2()).max(0.0)
            };
            bits((gain, loss))
        };
        // Zero duration (an empty cell, also with a `−0.0` information
        // sum), then a full cell: one resource busy for the whole period.
        let empty = AreaSums::default();
        let negative_zero = AreaSums {
            sum_rho_log_rho: -0.0,
            ..AreaSums::default()
        };
        let full = sums_from_rhos(&[1.0; 3], 2.0);
        for (s, n, period) in [(empty, 2, 3.0), (negative_zero, 1, 1.0), (full, 1, 6.0)] {
            assert_eq!(bits(s.gain_loss(n, period)), apart(&s, n, period), "{s:?}");
            assert_eq!(
                bits((s.gain(n, period), s.loss(n, period))),
                apart(&s, n, period)
            );
        }
        // Random sums, consistent or not with the cells they summarize.
        let mut rng = ocelotl_trace::synthetic::SplitMix64(2025);
        for _ in 0..10_000 {
            let s = AreaSums {
                sum_duration: 50.0 * rng.next_f64(),
                sum_rho: 20.0 * rng.next_f64(),
                sum_rho_log_rho: -10.0 * rng.next_f64(),
            };
            let (n, period) = (1 + rng.below(64), 0.5 + 30.0 * rng.next_f64());
            assert_eq!(bits(s.gain_loss(n, period)), apart(&s, n, period), "{s:?}");
        }
    }

    #[test]
    fn loss_decomposition_matches_direct_kl() {
        // Direct evaluation of Eq. 2 against the accumulator formula.
        let rhos = [0.1, 0.9, 0.4, 0.6];
        let s = sums_from_rhos(&rhos, 1.0);
        let rho_agg = s.rho_aggregate(4, 1.0);
        let direct: f64 = rhos
            .iter()
            .map(|&r| {
                if r > 0.0 {
                    r * (r / rho_agg).log2()
                } else {
                    0.0
                }
            })
            .sum();
        assert!((s.loss(4, 1.0) - direct).abs() < 1e-12);
        assert!(direct >= 0.0);
    }
}
