//! The Hopfield–Tank relaxation circuit: the deterministic
//! continuous-descent baseline family.
//!
//! Anti-ferromagnetic couplings on the graph's edges make the Hopfield
//! energy's coupling term `½ Σ x_i x_j` over edges — minimized exactly
//! when adjacent units take opposite signs — so the sign-threshold
//! readout of the relaxation trajectory is a MAXCUT partition that
//! improves as the network descends. Unlike the stochastic families,
//! nothing is random after the seeded initial state: successive samples
//! read out successive stretches of one deterministic trajectory, and
//! replicas differ only in their seeded starting points (restarts, not
//! noise).

use crate::sampling::CutSampler;
use snc_graph::{CutAssignment, CutGraph};
use snc_neuro::hopfield::{HopfieldNetwork, HopfieldParams};

/// Configuration of the Hopfield circuit family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HopfieldConfig {
    /// Dynamics parameters (step size, gain, leak, init scale).
    pub params: HopfieldParams,
    /// Euler steps integrated between successive cut readouts.
    pub steps_per_sample: u64,
}

impl Default for HopfieldConfig {
    fn default() -> Self {
        Self {
            params: HopfieldParams::default(),
            steps_per_sample: 8,
        }
    }
}

/// One Hopfield–Tank relaxation with sign-threshold readout.
#[derive(Clone, Debug)]
pub struct HopfieldCircuit {
    net: HopfieldNetwork,
    steps_per_sample: u64,
}

impl HopfieldCircuit {
    /// Builds the circuit with one coupling per edge, of the edge's
    /// weight (unit on an unweighted graph). Negative edge weights become
    /// ferromagnetic couplings (the endpoints prefer the same side),
    /// matching the weighted cut objective.
    pub fn new<G: CutGraph>(graph: &G, seed: u64, cfg: &HopfieldConfig) -> Self {
        let couplings: Vec<(u32, u32, f64)> = graph.weighted_edges().collect();
        Self {
            net: HopfieldNetwork::new(graph.n(), &couplings, cfg.params, seed),
            steps_per_sample: cfg.steps_per_sample.max(1),
        }
    }

    /// Number of vertices / units.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// Euler steps integrated per sample.
    pub fn steps_per_sample(&self) -> u64 {
        self.steps_per_sample
    }

    /// The underlying relaxation network (for energy inspection).
    pub fn network(&self) -> &HopfieldNetwork {
        &self.net
    }
}

impl CutSampler for HopfieldCircuit {
    fn next_cut(&mut self) -> CutAssignment {
        self.net.step_many(self.steps_per_sample);
        CutAssignment::from_signs(self.net.activations())
    }
}

/// `R` Hopfield relaxations advanced in lock-step — independent seeded
/// restarts of the same deterministic descent. Replica `r`'s sample
/// stream is *definitionally* the sequential circuit's with seed
/// `seeds[r]` (the dynamics are deterministic and unshared), which the
/// equivalence test below pins anyway so the family keeps the same
/// batched-vs-sequential contract as the stochastic circuits.
#[derive(Clone, Debug)]
pub struct BatchedHopfieldCircuit {
    circuits: Vec<HopfieldCircuit>,
}

impl BatchedHopfieldCircuit {
    /// Builds one relaxation per seed.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new<G: CutGraph>(graph: &G, seeds: &[u64], cfg: &HopfieldConfig) -> Self {
        assert!(!seeds.is_empty(), "at least one replica seed");
        Self {
            circuits: seeds
                .iter()
                .map(|&s| HopfieldCircuit::new(graph, s, cfg))
                .collect(),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.circuits.len()
    }

    /// Number of vertices / units per replica.
    pub fn n(&self) -> usize {
        self.circuits[0].n()
    }

    /// Advances all replicas to the next sample and returns one cut per
    /// replica (index `r` corresponds to `seeds[r]`).
    pub fn next_cuts(&mut self) -> Vec<CutAssignment> {
        self.circuits.iter_mut().map(CutSampler::next_cut).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force;
    use crate::sampling::{log2_checkpoints, sample_best_trace};
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::complete_bipartite;
    use snc_graph::WeightedGraph;

    #[test]
    fn finds_the_bipartite_cut() {
        let g = complete_bipartite(4, 4);
        let mut circuit = HopfieldCircuit::new(&g, 3, &HopfieldConfig::default());
        let trace = sample_best_trace(&mut circuit, &g, &log2_checkpoints(64));
        assert_eq!(trace.final_best(), 16, "K(4,4) relaxes to the exact cut");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gnp(14, 0.4, 2).unwrap();
        let mut a = HopfieldCircuit::new(&g, 9, &HopfieldConfig::default());
        let mut b = HopfieldCircuit::new(&g, 9, &HopfieldConfig::default());
        for _ in 0..8 {
            assert_eq!(a.next_cut(), b.next_cut());
        }
    }

    #[test]
    fn batched_replicas_match_sequential_circuits() {
        let g = gnp(12, 0.5, 7).unwrap();
        let cfg = HopfieldConfig::default();
        let seeds = [10u64, 20, 30];
        let mut batch = BatchedHopfieldCircuit::new(&g, &seeds, &cfg);
        assert_eq!((batch.replicas(), batch.n()), (3, 12));
        let mut sequential: Vec<HopfieldCircuit> = seeds
            .iter()
            .map(|&s| HopfieldCircuit::new(&g, s, &cfg))
            .collect();
        for sample in 0..10 {
            let cuts = batch.next_cuts();
            for (r, circuit) in sequential.iter_mut().enumerate() {
                assert_eq!(cuts[r], circuit.next_cut(), "sample {sample} replica {r}");
            }
        }
    }

    #[test]
    fn restarts_reach_a_good_cut_on_random_graphs() {
        // Deterministic descent with a handful of restarts lands within
        // 80% of optimum on small ER graphs — a baseline, not a match
        // for the stochastic samplers, but far above random.
        for seed in 0..3u64 {
            let g = gnp(12, 0.5, seed).unwrap();
            let (_, opt) = brute_force(&g);
            if opt == 0 {
                continue;
            }
            let mut batch =
                BatchedHopfieldCircuit::new(&g, &[1, 2, 3, 4], &HopfieldConfig::default());
            let mut best = 0u64;
            for _ in 0..16 {
                for cut in batch.next_cuts() {
                    best = best.max(cut.cut_value(&g));
                }
            }
            let ratio = best as f64 / opt as f64;
            assert!(ratio >= 0.8, "seed={seed}: ratio {ratio}");
        }
    }

    #[test]
    fn weighted_construction_respects_signs() {
        // A strongly negative edge glues its endpoints to one side.
        let g = WeightedGraph::from_weighted_edges(
            3,
            &[(0, 1, -4.0), (1, 2, 1.0), (0, 2, 1.0)],
        )
        .unwrap();
        let mut circuit = HopfieldCircuit::new(&g, 1, &HopfieldConfig::default());
        let mut last = None;
        for _ in 0..40 {
            last = Some(circuit.next_cut());
        }
        let cut = last.unwrap();
        assert_eq!(cut.side(0), cut.side(1), "negative edge keeps 0,1 together");
        // And the achieved weighted value is the optimum (2.0: cut both
        // unit edges, keep the negative edge uncut).
        assert_eq!(g.cut_value(&cut), 2.0);
    }
}
