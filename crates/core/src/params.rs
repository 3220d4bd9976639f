//! Tunable parameters: the practical stand-ins for the paper's asymptotic
//! constants.
//!
//! The paper's constants — `b = (log n)^100`, hash tables of size `b^9`,
//! edge deletion w.p. `10^-4`, `10^6 log log n` rounds — exist to make union
//! bounds close at astronomically large `n`; the authors note "We did not
//! optimize the constants." Every such constant is a field here, with
//! defaults chosen so the asymptotic regime is visible at benchmarkable
//! sizes. The *structure* of every algorithm is untouched.

use parcc_pram::cost::ceil_log2;

/// Tuning knobs for the whole pipeline. Construct with [`Params::for_n`].
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    // ---- Stage 1 -------------------------------------------------------
    /// Per-round edge deletion probability in FILTER (paper: `10^-4`).
    pub filter_delete_prob: f64,
    /// `k` for EXTRACT's inner/outer loops (paper: `Θ(log log log n)`).
    pub extract_rounds: u32,
    /// `k` for REDUCE's FILTER/MATCHING loops (paper: `10^6 log log n`).
    pub reduce_rounds: u32,
    // ---- Stage 2 -------------------------------------------------------
    /// Initial degree target `b` (paper: `(log n)^100`, practical `~log n`).
    pub b0: u32,
    /// High-degree threshold as a multiple of `b` (paper: `b^8` occupancy).
    pub hi_threshold_factor: u32,
    /// Sampling probability for high–high skeleton edges and for `H', H''`
    /// (paper: `1/(log n)^3` and `1/(log n)^7`).
    pub sparsify_prob: f64,
    /// EXPAND-MAXLINK rounds in DENSIFY, as a multiple of `log2 b`
    /// (paper: `20 log b`).
    pub densify_rounds_per_log_b: u32,
    /// Round budget multiplier for the bounded Theorem-2 call inside
    /// DENSIFY/INTERWEAVE (paper: `104 log log n`).
    pub bounded_solve_rounds: u64,
    // ---- Stage 3 / full ------------------------------------------------
    /// Below this vertex count SAMPLESOLVE solves directly (paper: `n^0.1`).
    pub small_solve_threshold: usize,
    /// Per-phase growth of the gap guess: `b ← b^growth` (paper: `1.1`).
    pub b_growth: f64,
    /// Maximum number of INTERWEAVE phases (paper: `10 log log n`).
    pub max_phases: u32,
    /// Testing/ablation aid: treat the first `k` phases as failed regardless
    /// of the solve outcome, exercising the guess-fail → revert → E_filter
    /// shrink machinery (§7.1 Steps 5–10), which at benchmarkable scales
    /// never triggers organically (experiment E10). Default 0.
    pub force_phase_failures: u32,
}

impl Params {
    /// Defaults for an `n`-vertex input; each field's doc gives the paper's
    /// value.
    #[must_use]
    pub fn for_n(n: usize) -> Self {
        let log_n = ceil_log2(n.max(4) as u64) as u32;
        let loglog = ceil_log2(log_n.max(2) as u64) as u32;
        Params {
            seed: 0x5EED,
            filter_delete_prob: 0.02,
            extract_rounds: 2,
            reduce_rounds: 3 + loglog,
            b0: log_n.max(8),
            hi_threshold_factor: 8,
            sparsify_prob: 1.0 / (log_n.max(2) as f64),
            densify_rounds_per_log_b: 3,
            bounded_solve_rounds: 8 * (loglog as u64 + 2),
            small_solve_threshold: 64.max(n / 256),
            b_growth: 1.5,
            max_phases: 10,
            force_phase_failures: 0,
        }
    }

    /// Same parameters with a different master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The gap guess at phase `i`: `b_i = b0^(growth^i)`, saturating.
    #[must_use]
    pub fn b_at_phase(&self, i: u32) -> u64 {
        let exp = self.b_growth.powi(i as i32);
        let b = (self.b0 as f64).powf(exp);
        if !b.is_finite() || b > 1e18 {
            u64::MAX
        } else {
            b as u64
        }
    }

    /// DENSIFY's EXPAND-MAXLINK round budget for gap guess `b`.
    #[must_use]
    pub fn densify_rounds(&self, b: u64) -> u64 {
        self.densify_rounds_per_log_b as u64 * ceil_log2(b.max(2)) + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scale_with_n() {
        let small = Params::for_n(1_000);
        let large = Params::for_n(1_000_000);
        assert!(large.b0 >= small.b0);
        assert!(large.sparsify_prob <= small.sparsify_prob);
        assert!(large.reduce_rounds >= small.reduce_rounds);
    }

    #[test]
    fn b_grows_doubly_exponentially() {
        let p = Params::for_n(1 << 20);
        let b0 = p.b_at_phase(0);
        let b1 = p.b_at_phase(1);
        let b2 = p.b_at_phase(2);
        assert_eq!(b0, p.b0 as u64);
        assert!(b1 > b0);
        // growth of exponent: log b2 / log b1 ≈ growth
        let r = (b2 as f64).ln() / (b1 as f64).ln();
        assert!((r - p.b_growth).abs() < 0.35, "r={r}");
        // Saturation instead of overflow.
        assert_eq!(p.b_at_phase(60), u64::MAX);
    }

    #[test]
    fn densify_rounds_logarithmic_in_b() {
        let p = Params::for_n(4096);
        assert!(p.densify_rounds(16) < p.densify_rounds(1 << 16));
    }

    #[test]
    fn tiny_n_is_sane() {
        let p = Params::for_n(1);
        assert!(p.b0 >= 8);
        assert!(p.sparsify_prob > 0.0 && p.sparsify_prob <= 1.0);
    }
}
