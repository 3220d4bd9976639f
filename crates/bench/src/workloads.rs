//! Named workloads shared by the experiment tables, the Criterion benches,
//! and the integration tests. Each family is chosen to pin one point of the
//! `(n, m, λ, d)` parameter space.

use parcc_graph::generators as gen;
use parcc_graph::solver::SolverCaps;
use parcc_graph::Graph;

/// A named workload family at a target size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Random 8-regular graph: `λ ≈ const`, diameter `O(log n)`.
    Expander,
    /// Hypercube `Q_d`: `λ = 2/log2 n`, diameter `log2 n`.
    Hypercube,
    /// Square torus: `λ = Θ(1/n)`, diameter `Θ(√n)`.
    Grid,
    /// Cycle: `λ ≈ 2π²/n²`, diameter `n/2` — the hard regime.
    Cycle,
    /// Chung–Lu power law (γ = 2.5): the social-network motivation.
    PowerLaw,
    /// Union of 8 expanders plus tiny cliques: the mixed regime.
    Union,
}

impl Family {
    /// All families, table order.
    pub const ALL: [Family; 6] = [
        Family::Expander,
        Family::Hypercube,
        Family::Grid,
        Family::Cycle,
        Family::PowerLaw,
        Family::Union,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Expander => "expander",
            Family::Hypercube => "hypercube",
            Family::Grid => "grid",
            Family::Cycle => "cycle",
            Family::PowerLaw => "power-law",
            Family::Union => "union",
        }
    }

    /// Instantiate at roughly `n` vertices (exact size may round to the
    /// family's natural shape). Deterministic in `seed`.
    #[must_use]
    pub fn build(self, n: usize, seed: u64) -> Graph {
        match self {
            Family::Expander => gen::random_regular(n, 8, seed),
            Family::Hypercube => {
                let dim = usize::BITS - 1 - n.next_power_of_two().leading_zeros();
                gen::hypercube(dim.max(3))
            }
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(3.0) as usize;
                gen::grid2d(side, side, true)
            }
            Family::Cycle => gen::cycle(n.max(3)),
            Family::PowerLaw => gen::chung_lu(n, 2.5, 8.0, seed),
            Family::Union => {
                let part = (n / 10).max(20);
                let mut parts: Vec<Graph> = (0..8)
                    .map(|i| gen::random_regular(part, 8, seed ^ (i * 7 + 1)))
                    .collect();
                for i in 0..10 {
                    parts.push(gen::complete(3 + i % 4));
                }
                Graph::disjoint_union(&parts).permuted(seed)
            }
        }
    }

    /// Is a solver with these capabilities reasonable on this family?
    /// Diameter-bound solvers (no [`SolverCaps::polylog_rounds`]) need
    /// `Θ(d)` rounds, so the huge-diameter families would dominate every
    /// comparison run with one pathological row; the registry-driven
    /// harness skips those pairings.
    #[must_use]
    pub fn suits(self, caps: &SolverCaps) -> bool {
        caps.polylog_rounds || !matches!(self, Family::Cycle)
    }

    /// Closed-form (or rough) spectral gap label for the table, avoiding an
    /// expensive numeric solve at large `n`.
    #[must_use]
    pub fn gap_label(self, g: &Graph) -> f64 {
        match self {
            Family::Expander => 0.35, // measured once; d=8 random regular
            Family::Hypercube => {
                let dim = (usize::BITS - g.n().leading_zeros() - 1) as f64;
                2.0 / dim
            }
            Family::Grid => {
                let side = (g.n() as f64).sqrt();
                parcc_spectral::closed_form::cycle(side.max(3.0) as usize)
            }
            Family::Cycle => parcc_spectral::closed_form::cycle(g.n().max(3)),
            Family::PowerLaw => 0.05,
            Family::Union => 0.3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::traverse::component_count;

    #[test]
    fn families_build_and_connect() {
        for f in Family::ALL {
            let g = f.build(512, 3);
            assert!(g.n() >= 64, "{} too small: {}", f.name(), g.n());
            if matches!(
                f,
                Family::Expander | Family::Hypercube | Family::Grid | Family::Cycle
            ) {
                assert_eq!(component_count(&g), 1, "{} must be connected", f.name());
            }
        }
    }

    #[test]
    fn suits_skips_diameter_bound_solvers_on_cycles() {
        let label_prop = parcc_solver::find("label-prop").unwrap();
        assert!(!Family::Cycle.suits(&label_prop.caps()));
        assert!(Family::Expander.suits(&label_prop.caps()));
        for s in parcc_solver::registry() {
            if s.caps().polylog_rounds {
                assert!(
                    Family::Cycle.suits(&s.caps()),
                    "{} should suit cycles",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn gap_labels_in_range() {
        for f in Family::ALL {
            let g = f.build(256, 1);
            let l = f.gap_label(&g);
            assert!(l > 0.0 && l <= 2.0);
        }
    }
}
