//! The annealed-noise LIF-GW circuit: temperature-scheduled stochastic
//! relaxation on the LIF-GW substrate.
//!
//! The circuit keeps LIF-GW's entire stochastic machinery — SDP factors
//! programmed into the synapses, a stochastic device pool, the same
//! decorrelation free-run between samples, the same RNG streams — and
//! anneals the *readout*: sample `t` thresholds the mixed field
//!
//! ```text
//! f_i(t) = σ(t)·z_i  +  (σ(0) − σ(t))·gain·h_i
//! ```
//!
//! where `z_i` is the mean-centered membrane (the Gaussian LIF-GW
//! rounds) and `h_i = −(Σ_j w_ij s_j)/deg_i` is the deterministic local
//! field of the *previous* sample's partition `s` — the direction that
//! flips `i` to disagree with its neighbors. Early in the schedule
//! (`σ(t) ≈ σ(0)`) the readout is pure Gaussian exploration; as σ cools
//! the local field dominates and samples lock into greedy refinements
//! of their predecessors — the memristor-Hopfield annealing recipe of
//! Cai et al. (2020) transplanted onto the paper's circuit.
//!
//! Two exactness properties anchor the family:
//!
//! * **Constant schedule ⇒ LIF-GW bit for bit.** With `σ(t) = σ(0)` the
//!   feedback coefficient is exactly `0.0` and the readout reduces to
//!   `z_i > 0`, which equals the spike readout `V_i > θ_i` bit for bit
//!   (`θ_i` is the analytic mean that centering subtracts; IEEE
//!   subtraction preserves exact sign). The regression test pins this.
//! * **The σ-schedule consumes no RNG draws** — it only re-weighs the
//!   readout — so the device/membrane trajectories are bit-identical to
//!   LIF-GW's under any schedule.

use crate::anneal::CoolingSchedule;
use crate::circuits::lif_gw::LifGwConfig;
use crate::sampling::CutSampler;
use snc_devices::{DevicePool, PoolSpec};
use snc_graph::{CutAssignment, CutGraph};
use snc_linalg::DMatrix;
use snc_neuro::{DenseWeights, DeviceDrivenNetwork, ReplicaBatch};

/// Configuration of the annealed LIF-GW circuit.
#[derive(Clone, Debug)]
pub struct LifAnnealedConfig {
    /// The LIF-GW substrate configuration (devices, membranes, warmup,
    /// decorrelation).
    pub base: LifGwConfig,
    /// The σ cooling schedule over the per-replica sample horizon.
    pub schedule: CoolingSchedule,
    /// Gain on the local feedback field once σ departs from σ(0).
    pub feedback_gain: f64,
}

impl Default for LifAnnealedConfig {
    fn default() -> Self {
        Self {
            base: LifGwConfig::default(),
            schedule: CoolingSchedule::default(),
            feedback_gain: 1.0,
        }
    }
}

/// The graph-local feedback field `h_i = −(Σ_j w_ij s_j)/norm_i`, with
/// `norm_i = Σ_j |w_ij|` (degree on unweighted graphs; 1 for isolated
/// vertices so the division is always defined).
#[derive(Clone, Debug)]
struct FeedbackField {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    inv_norm: Vec<f64>,
}

impl FeedbackField {
    fn new<G: CutGraph>(graph: &G) -> Self {
        let n = graph.n();
        let pairs: Vec<(u32, u32, f64)> = graph.weighted_edges().collect();
        let mut degree = vec![0usize; n];
        for &(u, v, _) in &pairs {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut targets = vec![0u32; acc];
        let mut weights = vec![0.0; acc];
        for &(u, v, w) in &pairs {
            for (a, b) in [(u as usize, v), (v as usize, u)] {
                targets[cursor[a]] = b;
                weights[cursor[a]] = w;
                cursor[a] += 1;
            }
        }
        let inv_norm = (0..n)
            .map(|i| {
                let norm: f64 = weights[offsets[i]..offsets[i + 1]]
                    .iter()
                    .map(|w| w.abs())
                    .sum();
                if norm > 0.0 {
                    1.0 / norm
                } else {
                    1.0
                }
            })
            .collect();
        Self {
            offsets,
            targets,
            weights,
            inv_norm,
        }
    }

    fn n(&self) -> usize {
        self.inv_norm.len()
    }

    /// Writes `h` for the previous partition into `out`.
    fn compute(&self, prev: &CutAssignment, out: &mut [f64]) {
        for i in 0..self.n() {
            let mut drive = 0.0;
            for k in self.offsets[i]..self.offsets[i + 1] {
                drive += self.weights[k] * f64::from(prev.side(self.targets[k] as usize));
            }
            out[i] = -drive * self.inv_norm[i];
        }
    }
}

/// The annealed readout shared by the sequential and batched circuits:
/// threshold `σ·z + coeff·gain·h`, with the `coeff == 0` case reduced to
/// the exact LIF-GW spike readout `z > 0`.
fn annealed_cut(
    z: &[f64],
    sigma: f64,
    coeff: f64,
    gain: f64,
    field: &FeedbackField,
    prev: Option<&CutAssignment>,
    h: &mut [f64],
) -> CutAssignment {
    if coeff == 0.0 {
        return CutAssignment::from_signs(z);
    }
    match prev {
        None => CutAssignment::from_signs(z),
        Some(prev) => {
            field.compute(prev, h);
            let sides: Vec<i8> = z
                .iter()
                .zip(h.iter())
                .map(|(&zi, &hi)| {
                    if sigma * zi + coeff * gain * hi > 0.0 {
                        1
                    } else {
                        -1
                    }
                })
                .collect();
            CutAssignment::from_sides(sides)
        }
    }
}

/// σ values over a sample horizon, clamped at the final level for
/// samples drawn past it.
#[derive(Clone, Debug)]
struct SigmaTape {
    values: Vec<f64>,
}

impl SigmaTape {
    fn new(schedule: &CoolingSchedule, horizon: u64) -> Self {
        Self {
            values: schedule.values(horizon.max(1)),
        }
    }

    fn start(&self) -> f64 {
        self.values[0]
    }

    fn at(&self, t: u64) -> f64 {
        let idx = (t as usize).min(self.values.len() - 1);
        self.values[idx]
    }
}

/// The sequential annealed LIF-GW circuit (one replica).
#[derive(Clone, Debug)]
pub struct LifAnnealedCircuit {
    net: DeviceDrivenNetwork<DenseWeights>,
    decorrelate: u64,
    field: FeedbackField,
    sigma: SigmaTape,
    feedback_gain: f64,
    prev: Option<CutAssignment>,
    t: u64,
    z: Vec<f64>,
    h: Vec<f64>,
}

impl LifAnnealedCircuit {
    /// Builds the circuit from SDP factors (of the weighted SDP on a
    /// weighted graph) and the graph the feedback field reads, with
    /// `horizon` samples of schedule (the per-replica budget).
    pub fn new<G: CutGraph>(
        factors: &DMatrix,
        graph: &G,
        seed: u64,
        cfg: &LifAnnealedConfig,
        horizon: u64,
    ) -> Self {
        let field = FeedbackField::new(graph);
        let base = &cfg.base;
        let r = factors.cols();
        let weights = DenseWeights::from_matrix_scaled(factors, base.weight_scale);
        let mut spec = PoolSpec::uniform(base.device.clone(), r);
        if let Some(cc) = base.common_cause {
            spec = spec.with_common_cause(cc);
        }
        let pool = DevicePool::new(spec, seed);
        let mut net = DeviceDrivenNetwork::new(pool, weights, base.lif, base.reset);
        net.step_many(base.warmup_steps);
        let decorrelate = base
            .decorrelate_steps
            .unwrap_or_else(|| base.lif.decorrelation_steps())
            .max(1);
        let n = field.n();
        Self {
            net,
            decorrelate,
            field,
            sigma: SigmaTape::new(&cfg.schedule, horizon),
            feedback_gain: cfg.feedback_gain,
            prev: None,
            t: 0,
            z: vec![0.0; n],
            h: vec![0.0; n],
        }
    }

    /// Number of vertices / neurons.
    pub fn n(&self) -> usize {
        self.field.n()
    }

    /// Steps simulated between samples.
    pub fn decorrelate_steps(&self) -> u64 {
        self.decorrelate
    }
}

impl CutSampler for LifAnnealedCircuit {
    fn next_cut(&mut self) -> CutAssignment {
        self.net.step_many(self.decorrelate);
        self.net.centered_into(&mut self.z);
        let sigma = self.sigma.at(self.t);
        let coeff = self.sigma.start() - sigma;
        let cut = annealed_cut(
            &self.z,
            sigma,
            coeff,
            self.feedback_gain,
            &self.field,
            self.prev.as_ref(),
            &mut self.h,
        );
        self.prev = Some(cut.clone());
        self.t += 1;
        cut
    }
}

/// `R` annealed replicas advanced in lock-step on one [`ReplicaBatch`].
///
/// The membrane machinery is exactly [`super::lif_gw::BatchedLifGwCircuit`]'s
/// (same constructor pipeline, same warmup, same per-step RNG streams);
/// only the readout differs, so replica `r`'s sample stream is
/// bit-for-bit [`LifAnnealedCircuit`]'s with seed `seeds[r]` — and, under
/// a constant schedule, bit-for-bit LIF-GW's.
#[derive(Clone, Debug)]
pub struct BatchedLifAnnealedCircuit {
    batch: ReplicaBatch<DenseWeights>,
    decorrelate: u64,
    field: FeedbackField,
    sigma: SigmaTape,
    feedback_gain: f64,
    prev: Vec<Option<CutAssignment>>,
    t: u64,
    centered: Vec<f64>,
    h: Vec<f64>,
}

impl BatchedLifAnnealedCircuit {
    /// Builds one replica per seed, mirroring [`LifAnnealedCircuit::new`].
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new<G: CutGraph>(
        factors: &DMatrix,
        graph: &G,
        seeds: &[u64],
        cfg: &LifAnnealedConfig,
        horizon: u64,
    ) -> Self {
        let field = FeedbackField::new(graph);
        let base = &cfg.base;
        let r = factors.cols();
        let weights = DenseWeights::from_matrix_scaled(factors, base.weight_scale);
        let mut spec = PoolSpec::uniform(base.device.clone(), r);
        if let Some(cc) = base.common_cause {
            spec = spec.with_common_cause(cc);
        }
        let mut batch = ReplicaBatch::new(spec, seeds, weights, base.lif, base.reset);
        batch.step_many(base.warmup_steps);
        let decorrelate = base
            .decorrelate_steps
            .unwrap_or_else(|| base.lif.decorrelation_steps())
            .max(1);
        let n = field.n();
        let replicas = seeds.len();
        Self {
            batch,
            decorrelate,
            field,
            sigma: SigmaTape::new(&cfg.schedule, horizon),
            feedback_gain: cfg.feedback_gain,
            prev: vec![None; replicas],
            t: 0,
            centered: vec![0.0; n * replicas],
            h: vec![0.0; n],
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.batch.replicas()
    }

    /// Number of vertices / neurons per replica.
    pub fn n(&self) -> usize {
        self.batch.neurons()
    }

    /// Number of devices per replica (the SDP rank).
    pub fn devices(&self) -> usize {
        self.batch.devices()
    }

    /// Advances all replicas to the next sample and returns one cut per
    /// replica (index `r` corresponds to `seeds[r]`).
    pub fn next_cuts(&mut self) -> Vec<CutAssignment> {
        self.batch.step_many(self.decorrelate);
        self.batch.centered_into(&mut self.centered);
        let n = self.n();
        let sigma = self.sigma.at(self.t);
        let coeff = self.sigma.start() - sigma;
        let cuts: Vec<CutAssignment> = (0..self.replicas())
            .map(|r| {
                let z = &self.centered[r * n..(r + 1) * n];
                let cut = annealed_cut(
                    z,
                    sigma,
                    coeff,
                    self.feedback_gain,
                    &self.field,
                    self.prev[r].as_ref(),
                    &mut self.h,
                );
                self.prev[r] = Some(cut.clone());
                cut
            })
            .collect();
        self.t += 1;
        cuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::lif_gw::BatchedLifGwCircuit;
    use crate::gw::{solve_gw, GwConfig};
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::complete_bipartite;
    use snc_graph::{Graph, WeightedGraph};

    fn factors_for(g: &Graph) -> DMatrix {
        solve_gw(g, &GwConfig::default()).unwrap().factors
    }

    #[test]
    fn constant_schedule_reproduces_lif_gw_bit_for_bit() {
        // The satellite regression: with σ(t) ≡ σ(0) the annealed
        // readout is exactly the LIF-GW spike readout, sample by sample.
        let g = gnp(16, 0.4, 3).unwrap();
        let factors = factors_for(&g);
        let seeds = [5u64, 6, 7];
        let base = LifGwConfig::default();
        let cfg = LifAnnealedConfig {
            base: base.clone(),
            schedule: CoolingSchedule::constant(1.0).unwrap(),
            feedback_gain: 1.0,
        };
        let mut gw = BatchedLifGwCircuit::new(&factors, &seeds, &base);
        let mut annealed = BatchedLifAnnealedCircuit::new(&factors, &g, &seeds, &cfg, 16);
        for sample in 0..16 {
            assert_eq!(annealed.next_cuts(), gw.next_cuts(), "sample {sample}");
        }
    }

    #[test]
    fn batched_replicas_match_sequential_circuits() {
        let g = gnp(14, 0.4, 9).unwrap();
        let factors = factors_for(&g);
        let cfg = LifAnnealedConfig::default();
        let seeds = [100u64, 200, 300];
        let horizon = 12;
        let mut batch = BatchedLifAnnealedCircuit::new(&factors, &g, &seeds, &cfg, horizon);
        assert_eq!((batch.replicas(), batch.n(), batch.devices()), (3, 14, 4));
        let mut sequential: Vec<LifAnnealedCircuit> = seeds
            .iter()
            .map(|&s| LifAnnealedCircuit::new(&factors, &g, s, &cfg, horizon))
            .collect();
        for sample in 0..12 {
            let cuts = batch.next_cuts();
            for (r, circuit) in sequential.iter_mut().enumerate() {
                assert_eq!(cuts[r], circuit.next_cut(), "sample {sample} replica {r}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gnp(12, 0.5, 1).unwrap();
        let factors = factors_for(&g);
        let cfg = LifAnnealedConfig::default();
        let mut a = LifAnnealedCircuit::new(&factors, &g, 42, &cfg, 10);
        let mut b = LifAnnealedCircuit::new(&factors, &g, 42, &cfg, 10);
        for _ in 0..10 {
            assert_eq!(a.next_cut(), b.next_cut());
        }
    }

    #[test]
    fn cooling_locks_in_the_bipartite_cut() {
        // On K(4,4) the cooled feedback phase must preserve (or reach)
        // the exact cut: once a sample hits the bipartition, the local
        // field of every vertex points away from its neighbors and the
        // cold readout keeps it there.
        let g = complete_bipartite(4, 4);
        let factors = factors_for(&g);
        let cfg = LifAnnealedConfig::default();
        let mut circuit = LifAnnealedCircuit::new(&factors, &g, 2, &cfg, 64);
        let mut best = 0;
        let mut last = 0;
        for _ in 0..64 {
            last = circuit.next_cut().cut_value(&g);
            best = best.max(last);
        }
        assert_eq!(best, 16);
        assert_eq!(last, 16, "the cooled tail must hold the optimum");
    }

    #[test]
    fn schedule_consumes_no_rng_draws() {
        // Different schedules, same seed: the membrane trajectories stay
        // bit-identical, so the first sample (σ == σ(0) in both) agrees.
        let g = gnp(12, 0.5, 8).unwrap();
        let factors = factors_for(&g);
        let mut geo = LifAnnealedCircuit::new(
            &factors,
            &g,
            11,
            &LifAnnealedConfig::default(),
            32,
        );
        let linear_cfg = LifAnnealedConfig {
            schedule: CoolingSchedule::linear(1.0, 0.0).unwrap(),
            ..LifAnnealedConfig::default()
        };
        let mut lin = LifAnnealedCircuit::new(&factors, &g, 11, &linear_cfg, 32);
        assert_eq!(geo.next_cut(), lin.next_cut(), "t=0 readouts agree");
    }

    #[test]
    fn weighted_field_uses_weight_magnitudes() {
        let wg = WeightedGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, -1.0)]).unwrap();
        let field = FeedbackField::new(&wg);
        let prev = CutAssignment::from_sides(vec![1, 1, -1]);
        let mut h = vec![0.0; 3];
        field.compute(&prev, &mut h);
        // h_0 = −(2·(+1))/2 = −1; h_1 = −(2·1 + (−1)·(−1))/3 = −1;
        // h_2 = −((−1)·1)/1 = 1.
        assert!((h[0] + 1.0).abs() < 1e-15, "{h:?}");
        assert!((h[1] + 1.0).abs() < 1e-15, "{h:?}");
        assert!((h[2] - 1.0).abs() < 1e-15, "{h:?}");
    }
}
