//! The LIF-Trevisan circuit (Fig. 2, §IV.B).
//!
//! One stochastic device per vertex drives the LIF population through
//! weights proportional to the Trevisan matrix `M = I + D^{-1/2}AD^{-1/2}`.
//! The membrane covariance is then `κ·M²`, whose minimum eigenvector equals
//! that of `M` (M is PSD). A single readout neuron's incoming weight vector
//! `w`, trained with Oja's anti-Hebbian rule on the population activity,
//! converges to that eigenvector; thresholding `w` by sign is the Trevisan
//! cut. *"This circuit solves the MAXCUT problem entirely within the
//! circuit, without requiring any external preprocessing."*
//!
//! Each call to [`CutSampler::next_cut`] advances the circuit by a fixed
//! number of plasticity updates and reads the current weight vector — so
//! the best-so-far curves *improve over time as learning proceeds*, the
//! characteristic shape of the orange curves in Figs. 3–4.

use crate::sampling::{BestTrace, CutSampler};
use snc_devices::{CommonCause, DeviceModel};
use snc_graph::{CutAssignment, CutGraph, Graph};
use snc_neuro::{BatchedTwoStageNetwork, TwoStageConfig, TwoStageNetwork};

/// Configuration of the LIF-Trevisan circuit sampler.
#[derive(Clone, Debug)]
pub struct LifTrevisanConfig {
    /// Two-stage network configuration (LIF params, learning rate, gain).
    pub network: TwoStageConfig,
    /// Plasticity updates applied per emitted cut sample.
    pub updates_per_sample: u64,
    /// Device model (fair coins in the paper's evaluation).
    pub device: DeviceModel,
    /// Optional cross-device correlation (robustness study).
    pub common_cause: Option<CommonCause>,
}

impl Default for LifTrevisanConfig {
    fn default() -> Self {
        Self {
            network: TwoStageConfig::default(),
            updates_per_sample: 1,
            device: DeviceModel::fair(),
            common_cause: None,
        }
    }
}

/// The LIF-Trevisan circuit.
#[derive(Clone, Debug)]
pub struct LifTrevisanCircuit {
    net: TwoStageNetwork,
    updates_per_sample: u64,
}

impl LifTrevisanCircuit {
    /// Builds the circuit for a graph (programmed with the weighted
    /// Trevisan matrix on a weighted graph).
    ///
    /// # Panics
    ///
    /// Panics if the graph has negative weights.
    pub fn new<G: CutGraph>(graph: &G, seed: u64, cfg: &LifTrevisanConfig) -> Self {
        let net = TwoStageNetwork::with_devices(
            graph,
            cfg.device.clone(),
            cfg.common_cause,
            seed,
            cfg.network,
        );
        Self {
            net,
            updates_per_sample: cfg.updates_per_sample.max(1),
        }
    }

    /// Number of vertices (= neurons = devices).
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// The current plastic weight vector.
    pub fn readout_weights(&self) -> &[f64] {
        self.net.readout_weights()
    }

    /// Total plasticity updates applied.
    pub fn updates(&self) -> u64 {
        self.net.updates()
    }

    /// The circuit's current cut hypothesis without advancing time.
    pub fn current_cut(&self) -> CutAssignment {
        CutAssignment::from_signs(self.net.readout_weights())
    }
}

impl CutSampler for LifTrevisanCircuit {
    fn next_cut(&mut self) -> CutAssignment {
        self.net.run_updates(self.updates_per_sample);
        self.current_cut()
    }
}

/// `R` LIF-Trevisan replicas advanced in lock-step, structure-of-arrays.
///
/// Each replica is an independent [`LifTrevisanCircuit`] (own device seed
/// and plastic readout vector, same graph and configuration), but all
/// replicas share one traversal of the sparse Trevisan weight matrix per
/// time step and one SoA Oja plasticity pass per update, via
/// [`BatchedTwoStageNetwork`]. Replica `r`'s sample stream is bit-for-bit
/// identical to `LifTrevisanCircuit::new(graph, seeds[r], cfg)` — batching
/// changes the schedule, never the samples — which the equivalence tests
/// pin for R ∈ {1, 8, 16}.
///
/// # Examples
///
/// ```
/// use snc_graph::generators::structured::cycle;
/// use snc_maxcut::{log2_checkpoints, BatchedLifTrevisanCircuit, LifTrevisanConfig};
///
/// let g = cycle(10);
/// let mut batch = BatchedLifTrevisanCircuit::new(&g, &[1, 2, 3, 4], &LifTrevisanConfig::default());
/// assert_eq!((batch.replicas(), batch.n()), (4, 10));
/// // One best-so-far learning curve per replica on a shared sample grid.
/// let traces = batch.best_traces(&g, &log2_checkpoints(8));
/// assert_eq!(traces.len(), 4);
/// assert!(traces.iter().all(|t| t.final_best() <= g.m() as u64));
/// ```
#[derive(Clone, Debug)]
pub struct BatchedLifTrevisanCircuit {
    net: BatchedTwoStageNetwork,
    updates_per_sample: u64,
}

impl BatchedLifTrevisanCircuit {
    /// Builds one replica per seed, mirroring [`LifTrevisanCircuit::new`].
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or the graph has negative weights.
    pub fn new<G: CutGraph>(graph: &G, seeds: &[u64], cfg: &LifTrevisanConfig) -> Self {
        let net = BatchedTwoStageNetwork::with_devices(
            graph,
            cfg.device.clone(),
            cfg.common_cause,
            seeds,
            cfg.network,
        );
        Self {
            net,
            updates_per_sample: cfg.updates_per_sample.max(1),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.net.replicas()
    }

    /// Number of vertices (= neurons = devices) per replica.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// Total plasticity updates applied to every replica.
    pub fn updates(&self) -> u64 {
        self.net.updates()
    }

    /// Replica `r`'s current plastic weight vector.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn readout_weights(&self, r: usize) -> &[f64] {
        self.net.readout_weights(r)
    }

    /// Replica `r`'s current cut hypothesis without advancing time.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn current_cut(&self, r: usize) -> CutAssignment {
        CutAssignment::from_signs(self.net.readout_weights(r))
    }

    /// Advances all replicas to the next sample and returns one cut per
    /// replica (index `r` corresponds to `seeds[r]`).
    pub fn next_cuts(&mut self) -> Vec<CutAssignment> {
        self.net.run_updates(self.updates_per_sample);
        (0..self.replicas()).map(|r| self.current_cut(r)).collect()
    }

    /// Runs every replica against the shared checkpoint grid and returns
    /// one best-so-far trace per replica — the batched, single-core
    /// equivalent of [`crate::sampling::parallel_best_traces`] over
    /// [`LifTrevisanCircuit`] factories with the same seeds, with
    /// identical output.
    ///
    /// Cut values are maintained per replica with an incremental
    /// [`snc_graph::CutTracker`], like the sequential sampling loop — a
    /// natural fit here because consecutive LIF-TR samples differ only
    /// where the slowly-learning readout vector changed sign.
    ///
    /// # Panics
    ///
    /// Panics if `graph.n()` differs from the circuit size or
    /// `checkpoints` is not strictly ascending.
    pub fn best_traces(&mut self, graph: &Graph, checkpoints: &[u64]) -> Vec<BestTrace> {
        assert_eq!(graph.n(), self.n(), "graph/circuit size mismatch");
        let replicas = self.replicas();
        crate::sampling::batched_best_traces(checkpoints, replicas, |trackers, values| {
            self.net.run_updates(self.updates_per_sample);
            for (r, (tracker, value)) in trackers.iter_mut().zip(values.iter_mut()).enumerate() {
                let cut = CutAssignment::from_signs(self.net.readout_weights(r));
                *value = crate::sampling::tracked_value(tracker, graph, &cut);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{log2_checkpoints, sample_best_trace};
    use crate::trevisan::{solve_trevisan, TrevisanConfig};
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::{complete_bipartite, cycle};
    use snc_linalg::vector;

    #[test]
    fn solves_bipartite_within_budget() {
        let g = complete_bipartite(3, 3);
        let mut circuit = LifTrevisanCircuit::new(&g, 5, &LifTrevisanConfig::default());
        let trace = sample_best_trace(&mut circuit, &g, &log2_checkpoints(20_000));
        assert_eq!(trace.final_best(), 9, "trace={:?}", trace.best);
        assert_eq!(circuit.n(), 6);
    }

    #[test]
    fn performance_improves_with_learning() {
        // The characteristic LIF-TR shape: early samples are near-random,
        // late samples approach the spectral solution.
        let g = gnp(24, 0.3, 3).unwrap();
        let mut circuit = LifTrevisanCircuit::new(&g, 7, &LifTrevisanConfig::default());
        let cp = log2_checkpoints(30_000);
        let trace = sample_best_trace(&mut circuit, &g, &cp);
        let early = trace.best[2] as f64; // after 4 samples
        let late = trace.final_best() as f64;
        assert!(
            late > early,
            "no improvement: early={early} late={late} trace={:?}",
            trace.best
        );
        // Final cut must beat the random-cut expectation m/2.
        assert!(late > g.m() as f64 / 2.0);
    }

    #[test]
    fn converges_toward_software_spectral_cut() {
        let g = cycle(12); // bipartite ring: spectral cut = 12
        let software = solve_trevisan(&g, &TrevisanConfig::default()).unwrap();
        let mut circuit = LifTrevisanCircuit::new(&g, 9, &LifTrevisanConfig::default());
        let trace = sample_best_trace(&mut circuit, &g, &log2_checkpoints(30_000));
        assert!(
            trace.final_best() >= software.value.saturating_sub(1),
            "circuit {} vs software {}",
            trace.final_best(),
            software.value
        );
        // The learned weight vector aligns with the software eigenvector.
        let align = vector::alignment(circuit.readout_weights(), &software.eigenvector);
        assert!(align > 0.9, "alignment={align}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = cycle(8);
        let mut a = LifTrevisanCircuit::new(&g, 11, &LifTrevisanConfig::default());
        let mut b = LifTrevisanCircuit::new(&g, 11, &LifTrevisanConfig::default());
        for _ in 0..50 {
            assert_eq!(a.next_cut(), b.next_cut());
        }
        assert_eq!(a.updates(), 50);
    }

    #[test]
    fn updates_per_sample_respected() {
        let g = cycle(6);
        let cfg = LifTrevisanConfig {
            updates_per_sample: 5,
            ..LifTrevisanConfig::default()
        };
        let mut circuit = LifTrevisanCircuit::new(&g, 1, &cfg);
        let _ = circuit.next_cut();
        let _ = circuit.next_cut();
        assert_eq!(circuit.updates(), 10);
    }

    /// Acceptance pin: batched traces are bit-for-bit the sequential
    /// `TwoStageNetwork`-driven circuit's for seeded R ∈ {1, 8, 16}.
    #[test]
    fn batched_replicas_match_sequential_circuits() {
        let g = gnp(18, 0.3, 21).unwrap();
        let cfg = LifTrevisanConfig {
            updates_per_sample: 3,
            ..LifTrevisanConfig::default()
        };
        for r in [1usize, 8, 16] {
            let seeds: Vec<u64> = (0..r as u64).map(|i| 0x7E71 + i * 131).collect();
            let mut batch = BatchedLifTrevisanCircuit::new(&g, &seeds, &cfg);
            assert_eq!(batch.replicas(), r);
            let mut sequential: Vec<LifTrevisanCircuit> = seeds
                .iter()
                .map(|&s| LifTrevisanCircuit::new(&g, s, &cfg))
                .collect();
            for sample in 0..10 {
                let cuts = batch.next_cuts();
                for (i, circuit) in sequential.iter_mut().enumerate() {
                    assert_eq!(
                        cuts[i],
                        circuit.next_cut(),
                        "R={r} sample {sample} replica {i}"
                    );
                    for (a, b) in batch
                        .readout_weights(i)
                        .iter()
                        .zip(circuit.readout_weights())
                    {
                        assert_eq!(a.to_bits(), b.to_bits(), "R={r} replica {i}");
                    }
                }
            }
            assert_eq!(batch.updates(), 30);
        }
    }

    #[test]
    fn batched_best_traces_match_parallel_best_traces() {
        use crate::sampling::parallel_best_traces;
        use snc_neuro::Reset;
        let g = gnp(14, 0.4, 8).unwrap();
        // Both reset modes: with Reset::ToValue the spike flags feed back
        // into the stage-1 dynamics, exercising the other batched path.
        for reset in [Reset::None, Reset::ToValue(0.0)] {
            let cfg = LifTrevisanConfig {
                network: snc_neuro::TwoStageConfig {
                    reset,
                    ..snc_neuro::TwoStageConfig::default()
                },
                ..LifTrevisanConfig::default()
            };
            let seeds: Vec<u64> = (0..6u64).map(|i| 500 + i).collect();
            let cp = log2_checkpoints(24);
            let mut batch = BatchedLifTrevisanCircuit::new(&g, &seeds, &cfg);
            let batched = batch.best_traces(&g, &cp);
            let reference = parallel_best_traces(
                |i| LifTrevisanCircuit::new(&g, seeds[i], &cfg),
                &g,
                &cp,
                seeds.len(),
                2,
            );
            assert_eq!(batched, reference, "reset={reset:?}");
        }
    }

    #[test]
    fn batched_learning_improves_like_sequential() {
        // The characteristic LIF-TR shape survives batching: the merged
        // best-so-far curve improves as learning proceeds.
        let g = gnp(20, 0.3, 5).unwrap();
        let seeds = [11u64, 12, 13, 14];
        let mut batch = BatchedLifTrevisanCircuit::new(&g, &seeds, &LifTrevisanConfig::default());
        let traces = batch.best_traces(&g, &log2_checkpoints(4000));
        let merged = crate::sampling::merge_traces(&traces);
        assert!(merged.final_best() as f64 > g.m() as f64 / 2.0);
        assert!(merged.best.windows(2).all(|w| w[0] <= w[1]));
    }
}
