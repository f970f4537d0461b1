//! The software Goemans–Williamson pipeline (§II.A).
//!
//! Two stages, matching the paper's description exactly:
//!
//! 1. **SDP**: solve the GW relaxation with the Burer–Monteiro low-rank
//!    factorization at fixed rank (4 in the paper, §IV.A) — the role
//!    PyManOpt plays in the paper's evaluation.
//! 2. **Sampling/rounding** (Bertsimas–Ye): draw `g ~ N(0, I_r)` and
//!    threshold `x = W g` by sign. Because `x` is Gaussian with covariance
//!    `W Wᵀ = (w_i · w_j)_{ij}`, this is distribution-identical to the
//!    random-hyperplane rounding.
//!
//! [`GwSampler`] is the software reference the circuits are compared
//! against (the paper's green ▲ curves); the LIF-GW circuit implements the
//! same sampling stage in "hardware".

use crate::sampling::CutSampler;
use snc_graph::{CutAssignment, CutGraph, Graph};
use snc_linalg::{sdp, DMatrix, GaussianSampler, LinalgError, SdpConfig};

/// Configuration for the software GW solver.
#[derive(Clone, Copy, Debug)]
#[derive(Default)]
pub struct GwConfig {
    /// Underlying SDP solver configuration (rank 4 by default, per §IV.A).
    pub sdp: SdpConfig,
}


/// The SDP stage's output.
#[derive(Clone, Debug)]
pub struct GwSolution {
    /// The `n × r` factor matrix; row `i` is vertex `i`'s unit vector.
    pub factors: DMatrix,
    /// The SDP objective `Σ w_ij (1 − v_i·v_j)/2` at the returned iterate
    /// (see [`sdp::SdpSolution::cut_upper_bound`]). It upper-bounds OPT
    /// only when that iterate is the SDP optimum; it is not certified, and
    /// a solve stopped by the iteration cap can report less than OPT.
    pub sdp_bound: f64,
}

/// Solves the GW SDP for a graph, unweighted or weighted: the couplings
/// are its [`CutGraph::weighted_edges`], and the bound is on the
/// (weighted) maximum cut.
///
/// # Errors
///
/// Propagates [`LinalgError`] from the SDP solver.
pub fn solve_gw<G: CutGraph>(graph: &G, cfg: &GwConfig) -> Result<GwSolution, LinalgError> {
    let couplings: Vec<sdp::Coupling> = graph
        .weighted_edges()
        .map(|(i, j, w)| sdp::Coupling { i, j, w })
        .collect();
    let sol = sdp::solve_weighted_sdp(graph.n(), &couplings, &cfg.sdp)?;
    let (factors, sdp_bound) = sol.into_factor_and_bound(graph.total_weight());
    Ok(GwSolution { factors, sdp_bound })
}

/// The Bertsimas–Ye sampling stage: cuts from sign-thresholded correlated
/// Gaussians.
#[derive(Clone, Debug)]
pub struct GwSampler {
    factors: DMatrix,
    gauss: GaussianSampler,
    g_buf: Vec<f64>,
    x_buf: Vec<f64>,
}

impl GwSampler {
    /// Creates a sampler from the SDP factor matrix.
    pub fn new(factors: DMatrix, seed: u64) -> Self {
        let r = factors.cols();
        let n = factors.rows();
        Self {
            factors,
            gauss: GaussianSampler::new(seed),
            g_buf: vec![0.0; r],
            x_buf: vec![0.0; n],
        }
    }

    /// The factor matrix.
    pub fn factors(&self) -> &DMatrix {
        &self.factors
    }
}

impl CutSampler for GwSampler {
    fn next_cut(&mut self) -> CutAssignment {
        self.gauss
            .correlated_from_factor_into(&self.factors, &mut self.g_buf, &mut self.x_buf);
        CutAssignment::from_signs(&self.x_buf)
    }
}

/// Convenience: solve the SDP and return a ready sampler.
///
/// # Errors
///
/// Propagates SDP solver errors.
pub fn gw_sampler(graph: &Graph, cfg: &GwConfig, seed: u64) -> Result<GwSampler, LinalgError> {
    let sol = solve_gw(graph, cfg)?;
    Ok(GwSampler::new(sol.factors, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force;
    use crate::sampling::{log2_checkpoints, sample_best_trace};
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::{complete_bipartite, cycle, petersen};

    #[test]
    fn sdp_bound_upper_bounds_opt() {
        for g in [petersen(), cycle(7), complete_bipartite(3, 5)] {
            let sol = solve_gw(&g, &GwConfig::default()).unwrap();
            let opt = brute_force(&g).1;
            assert!(
                sol.sdp_bound + 1e-4 >= opt as f64,
                "bound {} < opt {opt}",
                sol.sdp_bound
            );
        }
    }

    #[test]
    fn bipartite_sampling_finds_exact_cut() {
        // On bipartite graphs the SDP solution is integral (antipodal
        // vectors), so every sample is the optimal cut.
        let g = complete_bipartite(4, 4);
        let mut s = gw_sampler(&g, &GwConfig::default(), 1).unwrap();
        let cut = s.next_cut();
        assert_eq!(cut.cut_value(&g), 16);
    }

    #[test]
    fn beats_random_and_achieves_gw_ratio_on_small_graphs() {
        // Empirically the best-of-64 GW samples should be ≥ 0.878·OPT with
        // huge margin on small instances (usually exactly OPT).
        for seed in 0..4u64 {
            let g = gnp(12, 0.5, seed).unwrap();
            let opt = brute_force(&g).1;
            if opt == 0 {
                continue;
            }
            let mut s = gw_sampler(&g, &GwConfig::default(), seed).unwrap();
            let trace = sample_best_trace(&mut s, &g, &log2_checkpoints(64));
            let ratio = trace.final_best() as f64 / opt as f64;
            assert!(ratio >= 0.878, "seed={seed} ratio={ratio}");
        }
    }

    #[test]
    fn sampler_is_deterministic() {
        let g = petersen();
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let mut a = GwSampler::new(sol.factors.clone(), 9);
        let mut b = GwSampler::new(sol.factors, 9);
        for _ in 0..10 {
            assert_eq!(a.next_cut(), b.next_cut());
        }
    }

    #[test]
    fn expected_single_sample_ratio_is_gw_like() {
        // Mean single-sample cut / SDP bound should approach the GW
        // guarantee (0.878 in the worst case; higher in practice).
        let g = gnp(30, 0.3, 7).unwrap();
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let mut s = GwSampler::new(sol.factors, 11);
        let samples = 500;
        let total: u64 = (0..samples).map(|_| s.next_cut().cut_value(&g)).sum();
        let mean = total as f64 / samples as f64;
        assert!(
            mean / sol.sdp_bound > 0.8,
            "mean {mean} vs bound {}",
            sol.sdp_bound
        );
    }

    #[test]
    fn both_graph_kinds_keep_their_sdp_entry_points_bounds_bit_for_bit() {
        // Unweighted: the same factor and bound as `solve_maxcut_sdp` with
        // total weight `m`.
        let cfg = GwConfig::default();
        let g = gnp(16, 0.4, 5).unwrap();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let reference = sdp::solve_maxcut_sdp(g.n(), &edges, &cfg.sdp).unwrap();
        let (factors, bound) = reference.into_factor_and_bound(g.m() as f64);
        let sol = solve_gw(&g, &cfg).unwrap();
        assert_eq!(sol.factors, factors);
        assert_eq!(sol.sdp_bound.to_bits(), bound.to_bits());
        // Weighted: the bound charges `WeightedGraph::total_weight`.
        let w = snc_graph::WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 2.5), (1, 2, 0.1), (2, 3, 1.0 / 3.0), (3, 0, 0.7)],
        )
        .unwrap();
        let couplings: Vec<sdp::Coupling> =
            w.edges().map(|(i, j, w)| sdp::Coupling { i, j, w }).collect();
        let reference = sdp::solve_weighted_sdp(w.n(), &couplings, &cfg.sdp).unwrap();
        let sol = solve_gw(&w, &cfg).unwrap();
        assert_eq!(sol.factors, reference.factors);
        assert_eq!(
            sol.sdp_bound.to_bits(),
            reference.cut_upper_bound(w.total_weight()).to_bits()
        );
    }

    /// The SDP bits the server hands the circuits, pinned on two of the
    /// Figure-4 graphs: `solve_gw` at the default config with the slot-1
    /// seed the solve path derives from the request's master seed. Both
    /// solves stop at the 2000-iteration cap, so every iterate counts.
    #[test]
    fn served_sdp_matches_recorded_digests() {
        use snc_devices::SplitMix64;
        use snc_graph::EmpiricalDataset::{Dwt209, RoadChesapeake};
        // (graph, master seed, sdp_bound bits, FNV-1a of the factor bits)
        #[rustfmt::skip]
        let cases = [
            (RoadChesapeake, 1, 0x405e_167e_5d3a_6080, 0x62d1_ffda_d2f9_bbe4),
            (RoadChesapeake, 7, 0x405e_167e_5d3e_4798, 0x172c_beb8_5ed0_a618),
            (Dwt209, 1, 0x4080_f278_e319_f872, 0x634d_9abc_db99_761e),
        ];
        for (dataset, seed, bound, digest) in cases {
            let g = dataset.load().unwrap();
            let sdp = SdpConfig {
                seed: SplitMix64::derive(seed, 1),
                ..SdpConfig::default()
            };
            let sol = solve_gw(&g, &GwConfig { sdp }).unwrap();
            let factor_digest = sol
                .factors
                .as_slice()
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                });
            let case = format!("{} seed {seed}", dataset.name());
            let bits = sol.sdp_bound.to_bits();
            assert_eq!(bits, bound, "{case}: bound {}", sol.sdp_bound);
            assert_eq!(factor_digest, digest, "{case}");
        }
    }
}
