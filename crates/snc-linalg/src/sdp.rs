//! Low-rank (Burer–Monteiro) solver for the MAXCUT semidefinite program.
//!
//! The GW relaxation (§II.A of the paper) assigns a unit vector `w_i ∈ S^{r−1}`
//! to every vertex and maximizes `Σ_{ij∈E} A_ij (1 − w_i·w_j)/2`, which is
//! equivalent to *minimizing* the coupling energy `Σ_{ij∈E} w_ij ⟨v_i, v_j⟩`.
//! Burer–Monteiro replaces the PSD matrix variable with its rank-`r` factor
//! `V` (one row per vertex) and optimizes over the product of spheres — the
//! same "oblique manifold" formulation the paper hands to PyManOpt. We solve
//! it with Riemannian projected gradient descent plus Armijo backtracking.
//!
//! The paper fixes `r = 4` for all graphs (§IV.A); for rank-deficient optima
//! that is enough to get within a fraction of a percent of the true SDP
//! value on the instance sizes evaluated (n ≤ 700).
//!
//! The solver accepts arbitrary signed pairwise couplings so the MAX2SAT and
//! MAXDICUT extensions (§VI) reuse it unchanged.

use crate::dense::DMatrix;
use crate::error::LinalgError;
use crate::vector;
use snc_devices::{Rng64, SplitMix64, Xoshiro256pp};

/// One pairwise coupling term `w · ⟨v_i, v_j⟩` in the SDP energy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coupling {
    /// First vertex index.
    pub i: u32,
    /// Second vertex index.
    pub j: u32,
    /// Coupling weight (positive = wants antipodal, negative = aligned).
    pub w: f64,
}

/// The largest factorization rank [`solve_weighted_sdp`] accepts. The
/// kernel is compiled once per rank in `1..=MAX_RANK`, so each factor row
/// is a fixed-size array the gradient accumulates in registers.
pub const MAX_RANK: usize = 16;

/// Configuration for the Burer–Monteiro solver.
#[derive(Clone, Copy, Debug)]
pub struct SdpConfig {
    /// Factorization rank `r` (the paper uses 4), in `1..=`[`MAX_RANK`].
    pub rank: usize,
    /// Maximum gradient iterations per restart.
    pub max_iters: usize,
    /// Relative Riemannian-gradient tolerance for convergence.
    pub grad_tol: f64,
    /// Number of random restarts; the best energy wins.
    pub restarts: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for SdpConfig {
    fn default() -> Self {
        Self {
            rank: 4,
            max_iters: 2000,
            grad_tol: 1e-7,
            restarts: 1,
            seed: 0x5d9,
        }
    }
}

/// The result of a Burer–Monteiro solve.
#[derive(Clone, Debug)]
pub struct SdpSolution {
    /// The `n × r` factor matrix; row `i` is the unit vector of vertex `i`.
    pub factors: DMatrix,
    /// Final coupling energy `Σ w_ij ⟨v_i, v_j⟩` (minimized).
    pub energy: f64,
    /// Total gradient iterations across restarts.
    pub iterations: usize,
    /// Final Riemannian gradient norm (Frobenius).
    pub grad_norm: f64,
}

impl SdpSolution {
    /// The MAXCUT SDP objective `Σ w_ij (1 − v_i·v_j)/2` implied by this
    /// solution, given the total coupling weight `Σ w_ij`.
    ///
    /// For an unweighted graph pass `total_weight = m`. This is the primal
    /// objective at the returned iterate, not a certificate: it bounds the
    /// maximum cut only when the iterate is the SDP optimum, and a solve
    /// that stops at `max_iters` (or on an Armijo stall) can sit below the
    /// optimum, and so below the maximum cut.
    pub fn cut_upper_bound(&self, total_weight: f64) -> f64 {
        0.5 * (total_weight - self.energy)
    }

    /// The Gram matrix `V Vᵀ` of the factor rows (the covariance the LIF-GW
    /// circuit must realize).
    pub fn gram(&self) -> DMatrix {
        self.factors.gram_rows()
    }

    /// Consumes the solution and returns its factor matrix together with
    /// the implied MAXCUT upper bound (see [`SdpSolution::cut_upper_bound`]).
    ///
    /// This is the pair downstream caches retain — the factor is the
    /// expensive artifact of the offline stage, and moving it out avoids
    /// cloning an `n × r` matrix per cache insert.
    pub fn into_factor_and_bound(self, total_weight: f64) -> (DMatrix, f64) {
        let bound = self.cut_upper_bound(total_weight);
        (self.factors, bound)
    }
}

/// Solves `min Σ w ⟨v_i, v_j⟩` over unit vectors `v_i ∈ S^{r−1}`.
///
/// # Errors
///
/// * [`LinalgError::InvalidArgument`] for `n == 0`, a rank outside
///   `1..=`[`MAX_RANK`], or a coupling referencing an out-of-range vertex.
pub fn solve_weighted_sdp(
    n: usize,
    couplings: &[Coupling],
    cfg: &SdpConfig,
) -> Result<SdpSolution, LinalgError> {
    if n == 0 {
        return Err(LinalgError::InvalidArgument("sdp: n must be positive"));
    }
    let descend = match cfg.rank {
        1 => descend::<1>,
        2 => descend::<2>,
        3 => descend::<3>,
        4 => descend::<4>,
        5 => descend::<5>,
        6 => descend::<6>,
        7 => descend::<7>,
        8 => descend::<8>,
        9 => descend::<9>,
        10 => descend::<10>,
        11 => descend::<11>,
        12 => descend::<12>,
        13 => descend::<13>,
        14 => descend::<14>,
        15 => descend::<15>,
        16 => descend::<16>,
        _ => return Err(LinalgError::InvalidArgument("sdp: rank must be in 1..=MAX_RANK")),
    };
    for c in couplings {
        if c.i as usize >= n || c.j as usize >= n {
            return Err(LinalgError::InvalidArgument("sdp: coupling vertex out of range"));
        }
    }

    // Symmetric adjacency list: each undirected coupling appears from both
    // endpoints so the gradient is a single pass.
    let mut degree = vec![0usize; n];
    for c in couplings {
        degree[c.i as usize] += 1;
        degree[c.j as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    for d in &degree {
        offsets.push(offsets.last().unwrap() + d);
    }
    let mut neighbors: Vec<(u32, f64)> = vec![(0, 0.0); offsets[n]];
    let mut cursor = offsets.clone();
    for c in couplings {
        neighbors[cursor[c.i as usize]] = (c.j, c.w);
        cursor[c.i as usize] += 1;
        neighbors[cursor[c.j as usize]] = (c.i, c.w);
        cursor[c.j as usize] += 1;
    }

    let mut best: Option<SdpSolution> = None;
    let mut total_iters = 0usize;
    for restart in 0..cfg.restarts.max(1) {
        let seed = SplitMix64::derive(cfg.seed, restart as u64);
        let sol = descend(n, &offsets, &neighbors, cfg, seed);
        total_iters += sol.iterations;
        match &best {
            Some(b) if b.energy <= sol.energy => {}
            _ => best = Some(sol),
        }
    }
    let mut best = best.expect("at least one restart");
    best.iterations = total_iters;
    Ok(best)
}

/// Convenience wrapper for an unweighted MAXCUT instance.
///
/// # Errors
///
/// Same as [`solve_weighted_sdp`].
pub fn solve_maxcut_sdp(
    n: usize,
    edges: &[(u32, u32)],
    cfg: &SdpConfig,
) -> Result<SdpSolution, LinalgError> {
    let couplings: Vec<Coupling> = edges
        .iter()
        .map(|&(i, j)| Coupling { i, j, w: 1.0 })
        .collect();
    solve_weighted_sdp(n, &couplings, cfg)
}

/// Riemannian gradient descent with Armijo backtracking from one random
/// initialization, at compile-time rank `R`.
///
/// Rows are `[f64; R]`, so the per-row loops unroll and each gradient row
/// accumulates in registers; nothing is allocated per iteration. The
/// arithmetic goes through the same [`vector`] helpers in the same order as
/// a slice-based loop would, so the iterates do not depend on how the rank
/// was dispatched (the `iterates_match_recorded_digests` test pins them).
fn descend<const R: usize>(
    n: usize,
    offsets: &[usize],
    neighbors: &[(u32, f64)],
    cfg: &SdpConfig,
    seed: u64,
) -> SdpSolution {
    let mut rng = Xoshiro256pp::new(seed);
    let mut v: Vec<[f64; R]> = (0..n)
        .map(|_| {
            let mut row = [0.0; R];
            for x in &mut row {
                *x = rng.next_f64() - 0.5;
            }
            if vector::normalize(&mut row) == 0.0 {
                row[0] = 1.0;
            }
            row
        })
        .collect();

    let energy_of = |v: &[[f64; R]]| -> f64 {
        // f = 1/2 Σ_i Σ_{j∈adj(i)} w_ij ⟨v_i, v_j⟩ (each edge twice).
        let mut e = 0.0;
        for (i, vi) in v.iter().enumerate() {
            for &(j, w) in &neighbors[offsets[i]..offsets[i + 1]] {
                e += w * vector::dot(vi, &v[j as usize]);
            }
        }
        0.5 * e
    };

    let mut grad = vec![[0.0; R]; n];
    let mut trial = vec![[0.0; R]; n];
    let mut energy = energy_of(&v);
    let mut step = 0.5;
    let mut grad_norm = f64::INFINITY;
    let mut iters = 0usize;

    for _ in 0..cfg.max_iters {
        iters += 1;
        // Riemannian gradient: project Σ w v_j onto the tangent space of
        // each sphere.
        let mut gn2 = 0.0;
        for (i, (vi, gi)) in v.iter().zip(&mut grad).enumerate() {
            // Euclidean gradient for row i.
            let mut g = [0.0; R];
            for &(j, w) in &neighbors[offsets[i]..offsets[i + 1]] {
                vector::axpy(w, &v[j as usize], &mut g);
            }
            let c = vector::dot(&g, vi);
            vector::axpy(-c, vi, &mut g);
            gn2 += vector::norm_sq(&g);
            *gi = g;
        }
        grad_norm = gn2.sqrt();
        let scale = 1.0 + energy.abs();
        if grad_norm <= cfg.grad_tol * scale {
            break;
        }

        // Armijo backtracking on the retracted step.
        let mut eta = step;
        let mut accepted = false;
        for _ in 0..40 {
            for ((t, vi), gi) in trial.iter_mut().zip(&v).zip(&grad) {
                *t = *vi;
                vector::axpy(-eta, gi, t);
                if vector::normalize(t) == 0.0 {
                    *t = *vi;
                }
            }
            let e_new = energy_of(&trial);
            if e_new <= energy - 1e-4 * eta * gn2 {
                std::mem::swap(&mut v, &mut trial);
                energy = e_new;
                step = (eta * 1.3).min(10.0);
                accepted = true;
                break;
            }
            eta *= 0.5;
        }
        if !accepted {
            // Stalled below line-search resolution.
            break;
        }
    }

    SdpSolution {
        factors: DMatrix::from_vec(n, R, v.into_flattened()),
        energy,
        iterations: iters,
        grad_norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rank: usize) -> SdpConfig {
        SdpConfig {
            rank,
            max_iters: 3000,
            grad_tol: 1e-9,
            restarts: 2,
            seed: 17,
        }
    }

    #[test]
    fn single_edge_goes_antipodal() {
        let sol = solve_maxcut_sdp(2, &[(0, 1)], &cfg(2)).unwrap();
        assert!((sol.energy + 1.0).abs() < 1e-6, "energy={}", sol.energy);
        let dot = vector::dot(sol.factors.row(0), sol.factors.row(1));
        assert!((dot + 1.0).abs() < 1e-5);
        assert!((sol.cut_upper_bound(1.0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn triangle_reaches_sdp_value() {
        // K3: optimal vectors at 120°, energy = 3·(−1/2) = −1.5,
        // SDP cut bound = (3 + 1.5)/2 = 2.25.
        let sol = solve_maxcut_sdp(3, &[(0, 1), (1, 2), (0, 2)], &cfg(2)).unwrap();
        assert!((sol.energy + 1.5).abs() < 1e-4, "energy={}", sol.energy);
        assert!((sol.cut_upper_bound(3.0) - 2.25).abs() < 1e-4);
    }

    #[test]
    fn k4_needs_rank_3() {
        // K4: tetrahedral optimum, v_i·v_j = −1/3, energy = −2.
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let sol = solve_maxcut_sdp(4, &edges, &cfg(4)).unwrap();
        assert!((sol.energy + 2.0).abs() < 1e-3, "energy={}", sol.energy);
    }

    #[test]
    fn bipartite_square_is_tight() {
        // C4 is bipartite: SDP = OPT = 4 (energy −4).
        let sol = solve_maxcut_sdp(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], &cfg(4)).unwrap();
        assert!((sol.energy + 4.0).abs() < 1e-4, "energy={}", sol.energy);
        assert!((sol.cut_upper_bound(4.0) - 4.0).abs() < 1e-4);
    }

    #[test]
    fn rows_are_unit_norm() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)];
        let sol = solve_maxcut_sdp(5, &edges, &cfg(4)).unwrap();
        for i in 0..5 {
            assert!((vector::norm(sol.factors.row(i)) - 1.0).abs() < 1e-9);
        }
        assert!(sol.grad_norm < 1e-5);
    }

    #[test]
    fn negative_coupling_aligns() {
        let sol = solve_weighted_sdp(
            2,
            &[Coupling { i: 0, j: 1, w: -2.0 }],
            &cfg(3),
        )
        .unwrap();
        let dot = vector::dot(sol.factors.row(0), sol.factors.row(1));
        assert!((dot - 1.0).abs() < 1e-5);
        assert!((sol.energy + 2.0).abs() < 1e-5);
    }

    #[test]
    fn isolated_vertices_are_harmless() {
        let sol = solve_maxcut_sdp(4, &[(0, 1)], &cfg(2)).unwrap();
        assert!((sol.energy + 1.0).abs() < 1e-5);
        for i in 0..4 {
            assert!((vector::norm(sol.factors.row(i)) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3)];
        let a = solve_maxcut_sdp(4, &edges, &cfg(4)).unwrap();
        let b = solve_maxcut_sdp(4, &edges, &cfg(4)).unwrap();
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.factors, b.factors);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(solve_maxcut_sdp(0, &[], &cfg(2)).is_err());
        assert!(solve_maxcut_sdp(2, &[(0, 5)], &cfg(2)).is_err());
        let mut c = cfg(2);
        c.rank = 0;
        assert!(solve_maxcut_sdp(2, &[(0, 1)], &c).is_err());
    }

    #[test]
    fn rejects_rank_above_max() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        let mut c = cfg(MAX_RANK + 1);
        assert!(matches!(
            solve_maxcut_sdp(3, &edges, &c),
            Err(LinalgError::InvalidArgument(_))
        ));
        c.rank = MAX_RANK;
        let sol = solve_maxcut_sdp(3, &edges, &c).unwrap();
        assert_eq!(sol.factors.cols(), MAX_RANK);
        assert!((sol.energy + 1.5).abs() < 1e-4, "energy={}", sol.energy);
    }

    #[test]
    fn into_factor_and_bound_matches_the_accessors() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        let sol = solve_maxcut_sdp(3, &edges, &cfg(2)).unwrap();
        let bound = sol.cut_upper_bound(3.0);
        let factors = sol.factors.clone();
        let (extracted, extracted_bound) = sol.into_factor_and_bound(3.0);
        assert_eq!(extracted, factors);
        assert_eq!(extracted_bound, bound);
    }

    /// Signed couplings on `n` vertices, the last two isolated: a ring over
    /// the other `n − 2` plus random chords, weights drawn from [−1.5, 2.5)
    /// so some are negative.
    fn signed_couplings(n: u32, chords: usize, seed: u64) -> Vec<Coupling> {
        let mut rng = Xoshiro256pp::new(seed);
        let live = n - 2;
        let weight = |rng: &mut Xoshiro256pp| 4.0 * rng.next_f64() - 1.5;
        let mut out: Vec<Coupling> = (0..live)
            .map(|i| Coupling {
                i,
                j: (i + 1) % live,
                w: weight(&mut rng),
            })
            .collect();
        for _ in 0..chords {
            let i = (rng.next_u64() % u64::from(live)) as u32;
            let j = (rng.next_u64() % u64::from(live)) as u32;
            if i != j {
                out.push(Coupling {
                    i,
                    j,
                    w: weight(&mut rng),
                });
            }
        }
        out
    }

    /// FNV-1a over the little-endian bytes of every factor entry.
    fn factor_digest(m: &DMatrix) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in m.as_slice() {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Exit {
        Converged,
        Capped,
        Stalled,
    }

    /// How a solve stopped, as seen from its output: `Converged` when the
    /// returned gradient meets the tolerance, `Capped` when every restart
    /// spent all of `max_iters`, and `Stalled` otherwise (some restart's
    /// line search found no decrease).
    fn exit_of(sol: &SdpSolution, cfg: &SdpConfig) -> Exit {
        if sol.grad_norm <= cfg.grad_tol * (1.0 + sol.energy.abs()) {
            Exit::Converged
        } else if sol.iterations == cfg.max_iters * cfg.restarts.max(1) {
            Exit::Capped
        } else {
            Exit::Stalled
        }
    }

    /// One pinned solve: rank, restarts, max_iters, grad_tol, exit, energy
    /// bits, grad_norm bits, iterations, factor digest.
    type Pin = (usize, usize, usize, f64, Exit, u64, u64, usize, u64);

    /// Pins the solver's output bit for bit: energy, gradient norm,
    /// iteration count and a factor digest for every rank the workspace
    /// uses, one and two restarts, and stopping rules that reach all three
    /// exits (gradient tolerance, iteration cap, Armijo stall). Any change
    /// to the kernel's floating-point order moves a digest here.
    #[test]
    fn iterates_match_recorded_digests() {
        use Exit::{Capped, Converged, Stalled};
        #[rustfmt::skip]
        let cases: [Pin; 36] = [
            (1, 1, 5000, 1e-6, Converged, 0x402a_2cf4_aa8a_a737, 0x3cd1_e377_9b97_f4a8, 1, 0x1b94_f318_8c4c_f965),
            (1, 1, 25, 0.0, Converged, 0x402a_2cf4_aa8a_a737, 0x0000_0000_0000_0000, 2, 0xd2a0_55bd_bb9b_4aa5),
            (1, 1, 3000, 0.0, Converged, 0x402a_2cf4_aa8a_a737, 0x0000_0000_0000_0000, 2, 0xd2a0_55bd_bb9b_4aa5),
            (1, 2, 5000, 1e-6, Converged, 0xc00b_4df5_f15c_b42f, 0x3cd8_54bf_b363_dc39, 2, 0x8f53_e066_7158_88d0),
            (1, 2, 25, 0.0, Stalled, 0xc00b_4df5_f15c_b42f, 0x3cd8_54bf_b363_dc39, 3, 0x8f53_e066_7158_88d0),
            (1, 2, 3000, 0.0, Stalled, 0xc00b_4df5_f15c_b42f, 0x3cd8_54bf_b363_dc39, 3, 0x8f53_e066_7158_88d0),
            (2, 1, 5000, 1e-6, Converged, 0xc043_e90c_f6c2_3208, 0x3f03_de7a_34f4_2bbe, 301, 0x0aae_21aa_685c_42db),
            (2, 1, 25, 0.0, Capped, 0xc043_d8ef_ac85_f7a8, 0x3fcc_5ee8_dd4c_bdb3, 25, 0x7e53_e009_ca87_d58e),
            (2, 1, 3000, 0.0, Stalled, 0xc043_e90c_f6c7_e7c3, 0x3e8b_748d_0892_28a2, 456, 0x322b_04d7_2ab6_377b),
            (2, 2, 5000, 1e-6, Converged, 0xc043_e90c_f6c2_3208, 0x3f03_de7a_34f4_2bbe, 512, 0x0aae_21aa_685c_42db),
            (2, 2, 25, 0.0, Capped, 0xc043_d8ef_ac85_f7a8, 0x3fcc_5ee8_dd4c_bdb3, 50, 0x7e53_e009_ca87_d58e),
            (2, 2, 3000, 0.0, Stalled, 0xc043_e90c_f6c7_e7c3, 0x3e8b_748d_0892_28a2, 775, 0x322b_04d7_2ab6_377b),
            (3, 1, 5000, 1e-6, Converged, 0xc043_f6fa_c249_5dc3, 0x3f05_4851_4581_1cad, 318, 0x15a4_f8e8_6e26_e1a3),
            (3, 1, 25, 0.0, Capped, 0xc043_91be_64b5_5c34, 0x3fe3_3ee6_ef7d_0d99, 25, 0x1008_02db_0eda_2327),
            (3, 1, 3000, 0.0, Capped, 0xc043_f6fa_c254_d61d, 0x3e93_754b_acc7_01ad, 3000, 0x219a_c644_f0d8_9629),
            (3, 2, 5000, 1e-6, Converged, 0xc043_f6fa_c24f_0de0, 0x3efe_8487_7a88_f6c6, 745, 0xbc9a_93c0_bf70_dc2b),
            (3, 2, 25, 0.0, Capped, 0xc043_ba35_fe19_657e, 0x3fe4_bdd2_9e51_5226, 50, 0x74a7_f507_e303_c5b6),
            (3, 2, 3000, 0.0, Stalled, 0xc043_f6fa_c254_d636, 0x3e8c_a9b1_210c_179e, 3630, 0x3476_a70c_d6a3_414e),
            (4, 1, 5000, 1e-6, Converged, 0xc043_f6fa_c248_2bbd, 0x3f04_a1ac_2542_8f70, 418, 0xb22a_b073_1a9e_b677),
            (4, 1, 25, 0.0, Capped, 0xc043_bb36_1dd9_b458, 0x3fe8_9975_27da_844a, 25, 0xe40c_85ef_ddee_b864),
            (4, 1, 3000, 0.0, Stalled, 0xc043_f6fa_c254_d5dc, 0x3ea1_79a0_6497_5468, 673, 0xfcaf_a5c1_b727_4b19),
            (4, 2, 5000, 1e-6, Converged, 0xc043_f6fa_c248_2bbd, 0x3f04_a1ac_2542_8f70, 788, 0xb22a_b073_1a9e_b677),
            (4, 2, 25, 0.0, Capped, 0xc043_e3db_9e7b_7263, 0x3fe2_cacb_9d58_386f, 50, 0x8390_3c17_46fb_ffb2),
            (4, 2, 3000, 0.0, Stalled, 0xc043_f6fa_c254_d5fc, 0x3e94_d4c6_0a7a_8db9, 1313, 0x8d63_f32a_69fa_b91a),
            (8, 1, 5000, 1e-6, Converged, 0xc043_f6fa_c244_db4e, 0x3f03_b88c_382e_f7fd, 457, 0xcbd6_02dd_47cc_d769),
            (8, 1, 25, 0.0, Capped, 0xc043_e8ba_96e5_9fc9, 0x3fd1_a7c9_23da_f8e1, 25, 0xf742_05ab_711f_ec7f),
            (8, 1, 3000, 0.0, Stalled, 0xc043_f6fa_c254_d5b6, 0x3e9f_4bea_4758_fa0a, 711, 0x9dbe_e697_58e9_577f),
            (8, 2, 5000, 1e-6, Converged, 0xc043_f6fa_c244_db4e, 0x3f03_b88c_382e_f7fd, 943, 0xcbd6_02dd_47cc_d769),
            (8, 2, 25, 0.0, Capped, 0xc043_e8ba_96e5_9fc9, 0x3fd1_a7c9_23da_f8e1, 50, 0xf742_05ab_711f_ec7f),
            (8, 2, 3000, 0.0, Stalled, 0xc043_f6fa_c254_d5eb, 0x3ea0_b788_861b_426d, 1477, 0x02b4_072a_2376_1042),
            (16, 1, 5000, 1e-6, Converged, 0xc043_f6fa_c246_b174, 0x3f04_2cae_8991_cd4b, 501, 0xbac7_73d0_2dde_5341),
            (16, 1, 25, 0.0, Capped, 0xc043_e43f_e1f4_fb11, 0x3fd2_dda8_e403_60ca, 25, 0x8a4e_f5ef_c87a_6e5e),
            (16, 1, 3000, 0.0, Stalled, 0xc043_f6fa_c254_d60e, 0x3e92_06b5_a224_5362, 791, 0x1479_b433_c4cf_00cc),
            (16, 2, 5000, 1e-6, Converged, 0xc043_f6fa_c246_b174, 0x3f04_2cae_8991_cd4b, 966, 0xbac7_73d0_2dde_5341),
            (16, 2, 25, 0.0, Capped, 0xc043_e6bf_db4f_1ce0, 0x3fd1_2de3_3878_6afc, 50, 0xa382_d522_1bf4_f50f),
            (16, 2, 3000, 0.0, Stalled, 0xc043_f6fa_c254_d615, 0x3e91_62ed_436b_81a6, 1547, 0x35b5_68b2_280a_2c07),
        ];
        let couplings = signed_couplings(24, 40, 0xd1ce);
        assert!(couplings.iter().any(|c| c.w < 0.0));
        for (rank, restarts, max_iters, grad_tol, exit, energy, grad_norm, iterations, digest) in
            cases
        {
            let cfg = SdpConfig {
                rank,
                max_iters,
                grad_tol,
                restarts,
                seed: 0x5eed,
            };
            let sol = solve_weighted_sdp(24, &couplings, &cfg).unwrap();
            let case = format!("rank {rank}, restarts {restarts}, max_iters {max_iters}");
            assert_eq!(exit_of(&sol, &cfg), exit, "{case}");
            assert_eq!(
                sol.energy.to_bits(),
                energy,
                "{case}: energy {}",
                sol.energy
            );
            assert_eq!(
                sol.grad_norm.to_bits(),
                grad_norm,
                "{case}: grad_norm {}",
                sol.grad_norm
            );
            assert_eq!(sol.iterations, iterations, "{case}");
            assert_eq!(factor_digest(&sol.factors), digest, "{case}");
            for i in 22..24 {
                assert!(
                    (vector::norm(sol.factors.row(i)) - 1.0).abs() < 1e-12,
                    "{case}"
                );
            }
        }
        for exit in [Converged, Capped, Stalled] {
            assert!(
                cases.iter().any(|c| c.4 == exit),
                "no case reaches {exit:?}"
            );
        }
    }

    #[test]
    fn gram_diagonal_is_one() {
        let sol = solve_maxcut_sdp(3, &[(0, 1), (1, 2)], &cfg(4)).unwrap();
        let g = sol.gram();
        for i in 0..3 {
            assert!((g[(i, i)] - 1.0).abs() < 1e-9);
        }
        assert!(g.is_symmetric(1e-12));
    }
}
