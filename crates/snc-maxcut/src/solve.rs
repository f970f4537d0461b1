//! Request→circuit dispatch: one entry point that turns a *solve
//! request* — graph, circuit family, sample budget, replica width,
//! seed — into a finished MAXCUT answer with the best partition and its
//! best-so-far trace.
//!
//! This is the API a serving layer consumes (the `snc-server` crate
//! schedules [`solve`] calls onto a worker pool), and the experiment
//! harness shares its budget/seed arithmetic: [`replica_seeds`],
//! [`effective_replicas`], and [`replica_checkpoints`] are the exact
//! functions `snc_experiments::suite` splits figure budgets with, so a
//! service request reproduces the harness's traces bit for bit.
//!
//! ## Determinism contract
//!
//! [`solve`] is a pure function of `(graph, spec)`. The per-replica seed
//! ladder is rooted at `spec.seed` via `SplitMix64::derive` — the same
//! deterministic sub-stream derivation pinned throughout the workspace —
//! and the batched steppers guarantee replica `r`'s sample stream is
//! bit-for-bit the sequential circuit's with seed `seeds[r]`. Two calls
//! with identical inputs return identical outcomes, on any thread, at
//! any concurrency.

use crate::anneal::CoolingSchedule;
use crate::cache::SdpCache;
use crate::circuits::hopfield::{BatchedHopfieldCircuit, HopfieldConfig};
use crate::circuits::lif_annealed::{BatchedLifAnnealedCircuit, LifAnnealedConfig};
use crate::circuits::lif_gw::{BatchedLifGwCircuit, LifGwConfig};
use crate::circuits::lif_trevisan::{BatchedLifTrevisanCircuit, LifTrevisanConfig};
use crate::gw::{solve_gw, GwConfig, GwSolution};
use crate::sampling::{log2_checkpoints, tracked_value, BestTrace};
use crate::weighted::solve_gw_weighted;
use snc_devices::SplitMix64;
use snc_graph::{CutAssignment, CutGraph, CutTracker, CutValue, Graph, WeightedGraph};
use snc_linalg::{LinalgError, SdpConfig};
use snc_neuro::{LifParams, TwoStageConfig};
use std::sync::Arc;
use std::time::Instant;

/// The circuit families a request can name: the paper's two circuits
/// (§IV) plus the annealed-noise and Hopfield companions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitFamily {
    /// LIF-GW: SDP factors programmed into synapses, Gaussian sampling
    /// in the membrane covariance (Fig. 1).
    LifGw,
    /// LIF-Trevisan: fully online spectral circuit with a plastic
    /// readout (Fig. 2).
    LifTrevisan,
    /// Annealed LIF-GW: the same substrate with a σ cooling schedule on
    /// the readout — Gaussian exploration early, deterministic local
    /// refinement late.
    LifAnnealed,
    /// Hopfield–Tank: deterministic continuous relaxation with
    /// sign-threshold readout; replicas are seeded restarts.
    Hopfield,
}

impl CircuitFamily {
    /// Every family, the paper's two first.
    pub fn all() -> [CircuitFamily; 4] {
        [
            CircuitFamily::LifGw,
            CircuitFamily::LifTrevisan,
            CircuitFamily::LifAnnealed,
            CircuitFamily::Hopfield,
        ]
    }

    /// The wire/CLI name of the family.
    pub fn name(&self) -> &'static str {
        match self {
            CircuitFamily::LifGw => "lif-gw",
            CircuitFamily::LifTrevisan => "lif-trevisan",
            CircuitFamily::LifAnnealed => "lif-annealed",
            CircuitFamily::Hopfield => "hopfield",
        }
    }

    /// Parses a wire/CLI name (`"lif-gw"`, `"lif-trevisan"`,
    /// `"lif-annealed"`, `"hopfield"`).
    pub fn from_name(name: &str) -> Option<CircuitFamily> {
        CircuitFamily::all().into_iter().find(|f| f.name() == name)
    }

    /// Whether the family runs an offline SDP stage (and therefore
    /// reports an SDP upper bound).
    pub fn uses_sdp(&self) -> bool {
        matches!(self, CircuitFamily::LifGw | CircuitFamily::LifAnnealed)
    }
}

/// A fully specified solve request (everything [`solve`] depends on).
#[derive(Clone, Debug)]
pub struct SolveSpec {
    /// Which circuit family to sample.
    pub family: CircuitFamily,
    /// Total sample budget across replicas (≥ 1).
    pub budget: u64,
    /// Replica width: how many lock-stepped circuit copies share the
    /// budget (the `ReplicaBatch` width). Capped at the budget; see
    /// [`effective_replicas`].
    pub replicas: usize,
    /// Master seed; every RNG stream in the solve derives from it.
    pub seed: u64,
    /// SDP rank for LIF-GW's offline factor computation (4 in §IV.A).
    pub sdp_rank: usize,
    /// Membrane parameters for the circuit's LIF population.
    pub lif: LifParams,
    /// σ cooling schedule over each replica's sample horizon
    /// ([`CircuitFamily::LifAnnealed`] only; ignored elsewhere).
    pub schedule: CoolingSchedule,
    /// Euler steps per sample ([`CircuitFamily::Hopfield`] only;
    /// ignored elsewhere; clamped to ≥ 1).
    pub hopfield_steps: u64,
}

impl SolveSpec {
    /// A spec with the workspace defaults: one replica, SDP rank 4,
    /// default LIF parameters, the default geometric cooling schedule,
    /// and 8 Euler steps per Hopfield sample.
    pub fn new(family: CircuitFamily, budget: u64, seed: u64) -> Self {
        Self {
            family,
            budget,
            replicas: 1,
            seed,
            sdp_rank: 4,
            lif: LifParams::default(),
            schedule: CoolingSchedule::default(),
            hopfield_steps: 8,
        }
    }
}

/// Wall-clock microseconds spent in each stage of one solve call.
///
/// Purely observational: timings ride alongside the deterministic
/// answer (which remains a pure function of `(graph, spec)`) so a
/// serving layer can export per-stage latency histograms without
/// re-instrumenting the solver. Rendering layers must ignore these
/// fields — response bodies stay byte-identical across cache state.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Time in the offline SDP stage, `Some` only when an SDP was
    /// actually solved this call — `None` for families with no offline
    /// stage *and* for cache hits, so a histogram of these values is a
    /// census of real SDP solves.
    pub sdp_us: Option<u64>,
    /// Time driving the stochastic circuit (sampling + trace merging).
    pub sampling_us: u64,
}

/// Microseconds since `start`, saturating into `u64`.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The answer to a solve request, with `u64` cut values on unweighted
/// graphs and `f64` ones on weighted graphs.
#[derive(Clone, Debug)]
pub struct SolveOutcome<V = u64> {
    /// Merged best-so-far trace on the total-samples checkpoint grid
    /// (per-replica log2 checkpoints × effective width).
    pub trace: BestTrace<V>,
    /// The best cut value over every sample of every replica (equal to
    /// `trace.final_best()`).
    pub best_value: V,
    /// A partition achieving `best_value` — the earliest such sample,
    /// ties broken by lowest replica index, so the argmax is as
    /// deterministic as the value.
    pub best_cut: CutAssignment,
    /// The SDP upper bound (SDP-backed families only; LIF-Trevisan and
    /// Hopfield do no offline work).
    pub sdp_bound: Option<f64>,
    /// Effective replica width after capping at the budget.
    pub replicas: usize,
    /// Total samples actually drawn: `⌊budget/R⌋·R ≤ budget`.
    pub samples: u64,
    /// Wall-clock stage breakdown for this call (observational only —
    /// not part of the deterministic answer).
    pub stages: StageTimings,
}

/// Errors a solve request can fail with.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The sample budget was zero — there is nothing to sample and no
    /// partition to return.
    EmptyBudget,
    /// The graph has no vertices; the circuits have no population to
    /// build.
    EmptyGraph,
    /// The offline SDP stage failed (SDP-backed families only).
    Sdp(LinalgError),
    /// The requested family cannot run on a graph with negative edge
    /// weights (the LIF-Trevisan operator requires non-negative
    /// weights).
    NegativeWeights,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::EmptyBudget => f.write_str("sample budget must be ≥ 1"),
            SolveError::EmptyGraph => f.write_str("graph must have at least one vertex"),
            SolveError::Sdp(e) => write!(f, "SDP stage failed: {e}"),
            SolveError::NegativeWeights => {
                f.write_str("lif-trevisan requires non-negative edge weights")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<LinalgError> for SolveError {
    fn from(e: LinalgError) -> Self {
        SolveError::Sdp(e)
    }
}

/// Deterministic replica seed ladder rooted at `base`.
///
/// A single replica uses `base` itself, so `replicas == 1` consumes
/// exactly the seed stream a sequential single-circuit run does and
/// reproduces its traces bit-for-bit.
pub fn replica_seeds(base: u64, replicas: usize) -> Vec<u64> {
    if replicas <= 1 {
        vec![base]
    } else {
        (0..replicas as u64)
            .map(|r| SplitMix64::derive(base, r))
            .collect()
    }
}

/// The effective batch width for a total budget: never more replicas
/// than samples, so the merged trace cannot exceed the budget.
pub fn effective_replicas(budget: u64, replicas: usize) -> usize {
    replicas.max(1).min(budget.max(1) as usize)
}

/// The per-replica checkpoint grid for a total budget split `replicas`
/// ways. When the budget is not divisible by the batch width the merged
/// circuit trace ends at `⌊budget/R⌋·R ≤ budget`; [`effective_replicas`]
/// guarantees at least one sample per replica without overshooting. A
/// zero budget draws zero circuit samples (empty grid).
pub fn replica_checkpoints(budget: u64, replicas: usize) -> Vec<u64> {
    log2_checkpoints(budget / effective_replicas(budget, replicas) as u64)
}

/// The graph kinds [`solve`] runs on. Beyond the cut arithmetic of
/// [`CutGraph`], the two kinds differ only in their offline SDP stage.
pub trait SolveGraph: CutGraph {
    /// The GW SDP for the SDP-backed families, and whether it was solved
    /// by this call (`false` for a cache hit). Unweighted graphs consult
    /// `cache` when one is given; weighted graphs always solve inline, so
    /// the cache's counters stay a census of unweighted LIF-GW work.
    ///
    /// # Errors
    ///
    /// Propagates SDP solver errors.
    fn gw_sdp(
        &self,
        cfg: &SdpConfig,
        cache: Option<&SdpCache>,
    ) -> Result<(Arc<GwSolution>, bool), LinalgError>;
}

impl SolveGraph for Graph {
    fn gw_sdp(
        &self,
        cfg: &SdpConfig,
        cache: Option<&SdpCache>,
    ) -> Result<(Arc<GwSolution>, bool), LinalgError> {
        match cache {
            Some(cache) => cache.get_or_solve_traced(self, cfg.seed, cfg.rank),
            None => Ok((Arc::new(solve_gw(self, &GwConfig { sdp: *cfg })?), true)),
        }
    }
}

impl SolveGraph for WeightedGraph {
    fn gw_sdp(
        &self,
        cfg: &SdpConfig,
        _cache: Option<&SdpCache>,
    ) -> Result<(Arc<GwSolution>, bool), LinalgError> {
        Ok((Arc::new(solve_gw_weighted(self, cfg)?), true))
    }
}

/// Runs the requested circuit on `graph` and returns the best cut found
/// within the budget, its partition, and the merged best-so-far trace.
///
/// Seed ladder (shared with `snc_experiments::suite::run_suite`, so a
/// request with the harness's per-graph seed reproduces the harness's
/// circuit trace): slot 1 seeds the SDP (LIF-GW *and* LIF-annealed —
/// both program the same factors), slot 3 roots the LIF-GW replica
/// ladder, slot 4 LIF-Trevisan's, slot 6 LIF-annealed's, and slot 7
/// Hopfield's.
///
/// On a weighted graph every family runs on the weights: the weighted
/// SDP backs LIF-GW and LIF-annealed, Hopfield couples by weight, and
/// LIF-Trevisan is programmed with the weighted Trevisan matrix.
///
/// # Errors
///
/// Returns [`SolveError::EmptyBudget`] for a zero budget,
/// [`SolveError::EmptyGraph`] for a vertexless graph,
/// [`SolveError::NegativeWeights`] for LIF-Trevisan on a graph with
/// negative weights (the other three families accept signed weights),
/// and propagates SDP failures.
pub fn solve<G: SolveGraph>(
    graph: &G,
    spec: &SolveSpec,
) -> Result<SolveOutcome<G::Value>, SolveError> {
    solve_with_cache(graph, spec, None)
}

/// [`solve`] on a weighted graph.
///
/// Kept as a named entry point because the `ladderbench` benchmark
/// calls it.
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_weighted(
    graph: &WeightedGraph,
    spec: &SolveSpec,
) -> Result<SolveOutcome<f64>, SolveError> {
    solve(graph, spec)
}

/// [`solve`] with an optional [`SdpCache`] consulted for the LIF-GW
/// offline stage of unweighted graphs.
///
/// LIF-GW requests look up `(graph fingerprint, derived sdp seed, rank)`
/// in the cache and reuse the stored factor/bound on a hit, skipping the
/// SDP entirely; the other families, and weighted graphs, bypass the
/// cache untouched. Because the cached factor is bit-identical to a
/// fresh solve's (the SDP is deterministic in its seed) and the sampling
/// RNG streams derive from separate seed slots, a warm call returns
/// bit-for-bit the outcome of a cold [`solve`] — the cache can change
/// latency, never answers.
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_with_cache<G: SolveGraph>(
    graph: &G,
    spec: &SolveSpec,
    cache: Option<&SdpCache>,
) -> Result<SolveOutcome<G::Value>, SolveError> {
    if spec.budget == 0 {
        return Err(SolveError::EmptyBudget);
    }
    if graph.n() == 0 {
        return Err(SolveError::EmptyGraph);
    }
    if spec.family == CircuitFamily::LifTrevisan && !graph.is_nonnegative() {
        return Err(SolveError::NegativeWeights);
    }
    let replicas = effective_replicas(spec.budget, spec.replicas);
    let checkpoints = replica_checkpoints(spec.budget, spec.replicas);
    let seeds = |slot| replica_seeds(SplitMix64::derive(spec.seed, slot), replicas);

    let sdp_cfg = SdpConfig {
        rank: spec.sdp_rank,
        seed: SplitMix64::derive(spec.seed, 1),
        ..SdpConfig::default()
    };
    let sdp_started = Instant::now();
    let sdp = match spec.family {
        CircuitFamily::LifGw => Some(graph.gw_sdp(&sdp_cfg, cache)?),
        // Same slot-1 SDP seed as LIF-GW (identical factors for an
        // identical master seed) but computed inline, *never* through
        // the SdpCache: the cache's hit/miss gauges stay an exact census
        // of LIF-GW offline work, which the cache-equivalence suite pins.
        CircuitFamily::LifAnnealed => Some(graph.gw_sdp(&sdp_cfg, None)?),
        CircuitFamily::LifTrevisan | CircuitFamily::Hopfield => None,
    };
    // Cache hits report no SDP time: the histogram of `sdp_us` stays a
    // census of real SDP solves, not lookups.
    let sdp_us = match &sdp {
        Some((_, true)) => Some(elapsed_us(sdp_started)),
        _ => None,
    };
    let factors = || &sdp.as_ref().expect("SDP-backed family").0.factors;

    let gw_cfg = LifGwConfig {
        lif: spec.lif,
        ..LifGwConfig::default()
    };
    let mut next_cuts: Box<dyn FnMut() -> Vec<CutAssignment>> = match spec.family {
        CircuitFamily::LifGw => {
            let mut batch = BatchedLifGwCircuit::new(factors(), &seeds(3), &gw_cfg);
            Box::new(move || batch.next_cuts())
        }
        CircuitFamily::LifTrevisan => {
            let cfg = LifTrevisanConfig {
                network: TwoStageConfig {
                    lif: spec.lif,
                    ..TwoStageConfig::default()
                },
                ..LifTrevisanConfig::default()
            };
            let mut batch = BatchedLifTrevisanCircuit::new(graph, &seeds(4), &cfg);
            Box::new(move || batch.next_cuts())
        }
        CircuitFamily::LifAnnealed => {
            let cfg = LifAnnealedConfig {
                base: gw_cfg,
                schedule: spec.schedule,
                ..LifAnnealedConfig::default()
            };
            let horizon = spec.budget / replicas as u64;
            let mut batch =
                BatchedLifAnnealedCircuit::new(factors(), graph, &seeds(6), &cfg, horizon);
            Box::new(move || batch.next_cuts())
        }
        CircuitFamily::Hopfield => {
            let cfg = HopfieldConfig {
                steps_per_sample: spec.hopfield_steps,
                ..HopfieldConfig::default()
            };
            let mut batch = BatchedHopfieldCircuit::new(graph, &seeds(7), &cfg);
            Box::new(move || batch.next_cuts())
        }
    };
    let sampling_started = Instant::now();
    let (trace, best_value, best_cut) = drive(graph, &checkpoints, replicas, &mut next_cuts);
    let stages = StageTimings {
        sdp_us,
        sampling_us: elapsed_us(sampling_started),
    };
    Ok(SolveOutcome {
        samples: trace.checkpoints.last().copied().unwrap_or(0),
        trace,
        best_value,
        best_cut,
        sdp_bound: sdp.map(|(gw, _)| gw.sdp_bound),
        replicas,
        stages,
    })
}

/// The argmax-tracking variant of the batched checkpoint loop: advances
/// the batch one sample at a time, maintains per-replica best values
/// with incremental [`CutTracker`]s (values identical to the circuits'
/// `best_traces`), merges at each checkpoint (max over replicas, sample
/// counts summed — the `merge_traces` semantics), and keeps the earliest
/// partition achieving the global best. Returns the merged trace, the
/// best value, and its partition.
fn drive<G: CutGraph>(
    graph: &G,
    checkpoints: &[u64],
    replicas: usize,
    mut next_cuts: impl FnMut() -> Vec<CutAssignment>,
) -> (BestTrace<G::Value>, G::Value, CutAssignment) {
    assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly ascending"
    );
    assert!(!checkpoints.is_empty(), "budget ≥ 1 yields ≥ 1 checkpoint");
    let mut trackers: Vec<Option<CutTracker<'_, G>>> = (0..replicas).map(|_| None).collect();
    let mut per_replica_best = vec![G::Value::FLOOR; replicas];
    let mut merged_best = Vec::with_capacity(checkpoints.len());
    // Champion: strictly-greater updates ⇒ earliest sample wins, ties
    // within a sample broken by replica index.
    let mut champion: Option<(G::Value, CutAssignment)> = None;
    let mut drawn = 0u64;
    for &cp in checkpoints {
        while drawn < cp {
            let cuts = next_cuts();
            debug_assert_eq!(cuts.len(), replicas);
            for (r, cut) in cuts.into_iter().enumerate() {
                let value = tracked_value(&mut trackers[r], graph, &cut);
                per_replica_best[r] = per_replica_best[r].larger(value);
                if champion.as_ref().is_none_or(|(best, _)| value > *best) {
                    champion = Some((value, cut));
                }
            }
            drawn += 1;
        }
        merged_best.push(
            per_replica_best
                .iter()
                .fold(G::Value::FLOOR, |merged, &best| merged.larger(best)),
        );
    }
    let (best_value, best_cut) = champion.expect("≥ 1 sample was drawn");
    let trace = BestTrace {
        checkpoints: checkpoints.iter().map(|&c| c * replicas as u64).collect(),
        best: merged_best,
    };
    (trace, best_value, best_cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::merge_traces;
    use snc_graph::generators::erdos_renyi::gnp;

    fn spec(family: CircuitFamily) -> SolveSpec {
        SolveSpec {
            budget: 64,
            replicas: 4,
            ..SolveSpec::new(family, 64, 0xBEEF)
        }
    }

    #[test]
    fn family_names_roundtrip() {
        for f in CircuitFamily::all() {
            assert_eq!(CircuitFamily::from_name(f.name()), Some(f));
        }
        assert_eq!(CircuitFamily::all().len(), 4);
        assert_eq!(CircuitFamily::from_name("lif-annealed"), Some(CircuitFamily::LifAnnealed));
        assert_eq!(CircuitFamily::from_name("hopfield"), Some(CircuitFamily::Hopfield));
        assert_eq!(CircuitFamily::from_name("gw"), None);
        assert!(CircuitFamily::LifAnnealed.uses_sdp());
        assert!(!CircuitFamily::Hopfield.uses_sdp());
    }

    #[test]
    fn rejects_degenerate_requests() {
        let g = gnp(10, 0.5, 1).unwrap();
        let mut s = spec(CircuitFamily::LifGw);
        s.budget = 0;
        assert_eq!(solve(&g, &s).unwrap_err(), SolveError::EmptyBudget);
        let empty = Graph::empty(0);
        assert_eq!(
            solve(&empty, &spec(CircuitFamily::LifTrevisan)).unwrap_err(),
            SolveError::EmptyGraph
        );
    }

    #[test]
    fn outcome_is_internally_consistent() {
        let g = gnp(20, 0.4, 7).unwrap();
        for family in CircuitFamily::all() {
            let out = solve(&g, &spec(family)).unwrap();
            // The partition must achieve exactly the reported value …
            assert_eq!(out.best_cut.cut_value(&g), out.best_value, "{family:?}");
            // … which is the final trace value …
            assert_eq!(out.best_value, out.trace.final_best(), "{family:?}");
            // … and the merged grid covers the whole (divisible) budget.
            assert_eq!(out.samples, 64);
            assert_eq!(out.replicas, 4);
            assert_eq!(out.trace.checkpoints.last(), Some(&64));
            assert!(out.trace.best.windows(2).all(|w| w[0] <= w[1]));
            if family.uses_sdp() {
                let bound = out.sdp_bound.expect("SDP-backed families carry the bound");
                assert!(bound >= out.best_value as f64 - 1e-6, "{family:?}");
            } else {
                assert_eq!(out.sdp_bound, None, "{family:?}");
            }
        }
    }

    #[test]
    fn identical_requests_yield_identical_outcomes() {
        let g = gnp(18, 0.4, 3).unwrap();
        for family in CircuitFamily::all() {
            let a = solve(&g, &spec(family)).unwrap();
            let b = solve(&g, &spec(family)).unwrap();
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.best_value, b.best_value);
            assert_eq!(a.best_cut, b.best_cut);
            assert_eq!(a.sdp_bound, b.sdp_bound);
        }
    }

    #[test]
    fn cached_solves_are_bit_identical_to_cold_solves() {
        let cache = SdpCache::new(8);
        for seed in [0u64, 0xBEEF, 71] {
            let g = gnp(16, 0.4, seed).unwrap();
            for family in CircuitFamily::all() {
                let mut s = spec(family);
                s.seed = seed;
                let cold = solve(&g, &s).unwrap();
                let miss = solve_with_cache(&g, &s, Some(&cache)).unwrap();
                let hit = solve_with_cache(&g, &s, Some(&cache)).unwrap();
                for warm in [&miss, &hit] {
                    assert_eq!(cold.trace, warm.trace, "{family:?} seed {seed}");
                    assert_eq!(cold.best_value, warm.best_value);
                    assert_eq!(cold.best_cut, warm.best_cut);
                    assert_eq!(cold.sdp_bound, warm.sdp_bound, "bound must be bit-equal");
                }
            }
        }
        let stats = cache.stats();
        // Only LIF-GW touches the cache: 3 seeds × (1 miss + 1 hit).
        // LIF-Trevisan and Hopfield do no offline work; LIF-annealed
        // computes its SDP inline by design.
        assert_eq!((stats.hits, stats.misses), (3, 3), "other families bypass");
    }

    #[test]
    fn distinct_request_seeds_use_distinct_sdp_entries() {
        // The cache key uses the *derived* SDP seed (slot 1), so two
        // requests differing only in the master seed must not share a
        // factor.
        let cache = SdpCache::new(8);
        let g = gnp(14, 0.5, 4).unwrap();
        let mut a = spec(CircuitFamily::LifGw);
        a.seed = 1;
        let mut b = a.clone();
        b.seed = 2;
        solve_with_cache(&g, &a, Some(&cache)).unwrap();
        solve_with_cache(&g, &b, Some(&cache)).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn trace_matches_the_batched_steppers() {
        // solve() must report exactly the trace the batched circuits
        // produce with the same seed ladder — the argmax bookkeeping may
        // not perturb the numbers.
        let g = gnp(16, 0.5, 11).unwrap();
        let s = spec(CircuitFamily::LifTrevisan);
        let out = solve(&g, &s).unwrap();
        let replicas = effective_replicas(s.budget, s.replicas);
        let cp = replica_checkpoints(s.budget, s.replicas);
        let seeds = replica_seeds(SplitMix64::derive(s.seed, 4), replicas);
        let cfg = LifTrevisanConfig {
            network: TwoStageConfig {
                lif: s.lif,
                ..TwoStageConfig::default()
            },
            ..LifTrevisanConfig::default()
        };
        let mut batch = BatchedLifTrevisanCircuit::new(&g, &seeds, &cfg);
        let reference = merge_traces(&batch.best_traces(&g, &cp));
        assert_eq!(out.trace, reference);
    }

    #[test]
    fn replica_arithmetic_caps_and_splits() {
        assert_eq!(effective_replicas(1000, 16), 16);
        assert_eq!(replica_checkpoints(1000, 16).last(), Some(&62));
        assert_eq!(effective_replicas(4, 8), 4);
        assert_eq!(effective_replicas(0, 8), 1);
        assert_eq!(effective_replicas(64, 0), 1);
        assert!(replica_checkpoints(0, 8).is_empty());
        assert_eq!(replica_seeds(9, 1), vec![9]);
        let ladder = replica_seeds(9, 3);
        assert_eq!(ladder.len(), 3);
        assert_eq!(ladder[0], SplitMix64::derive(9, 0));
    }

    #[test]
    fn indivisible_budget_never_overshoots() {
        let g = gnp(12, 0.5, 2).unwrap();
        let mut s = spec(CircuitFamily::LifGw);
        s.budget = 10;
        s.replicas = 4;
        let out = solve(&g, &s).unwrap();
        assert_eq!(out.samples, 8); // 4 · ⌊10/4⌋
        assert_eq!(out.trace.checkpoints.last(), Some(&8));
        assert_eq!(out.best_cut.cut_value(&g), out.best_value);
    }

    #[test]
    fn annealed_never_consults_the_sdp_cache() {
        // The family computes its SDP inline (same slot-1 seed as
        // LIF-GW) but must leave the cache gauges untouched — the
        // serving layer's hit/miss census counts LIF-GW offline work
        // only.
        let cache = SdpCache::new(8);
        let g = gnp(14, 0.5, 6).unwrap();
        let s = spec(CircuitFamily::LifAnnealed);
        let cold = solve(&g, &s).unwrap();
        let warm = solve_with_cache(&g, &s, Some(&cache)).unwrap();
        assert_eq!(cold.trace, warm.trace);
        assert_eq!(cold.best_cut, warm.best_cut);
        assert_eq!(cold.sdp_bound, warm.sdp_bound);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn annealed_and_lif_gw_share_the_sdp_bound() {
        // Same master seed ⇒ same slot-1 SDP seed ⇒ bit-identical
        // factors and bound, even though the sampling ladders differ
        // (slot 6 vs slot 3).
        let g = gnp(16, 0.4, 12).unwrap();
        let gw = solve(&g, &spec(CircuitFamily::LifGw)).unwrap();
        let annealed = solve(&g, &spec(CircuitFamily::LifAnnealed)).unwrap();
        assert_eq!(
            gw.sdp_bound.unwrap().to_bits(),
            annealed.sdp_bound.unwrap().to_bits()
        );
    }

    #[test]
    fn cooling_schedule_changes_the_samples() {
        // A constant schedule keeps the readout pure LIF-GW; the default
        // geometric schedule departs from it once σ cools. Both are
        // deterministic, so inequality of the sample streams is a stable
        // fact of this seed, not a flake.
        let g = gnp(18, 0.4, 5).unwrap();
        let factors = solve_gw(&g, &GwConfig::default()).unwrap().factors;
        let cooled_cfg = LifAnnealedConfig::default();
        let constant_cfg = LifAnnealedConfig {
            schedule: CoolingSchedule::constant(1.0).unwrap(),
            ..LifAnnealedConfig::default()
        };
        let mut cooled = BatchedLifAnnealedCircuit::new(&factors, &g, &[9], &cooled_cfg, 32);
        let mut constant = BatchedLifAnnealedCircuit::new(&factors, &g, &[9], &constant_cfg, 32);
        let a: Vec<_> = (0..32).flat_map(|_| cooled.next_cuts()).collect();
        let b: Vec<_> = (0..32).flat_map(|_| constant.next_cuts()).collect();
        assert_ne!(a, b, "cooling must alter the sample stream");
    }

    #[test]
    fn weighted_outcome_is_internally_consistent() {
        let base = gnp(14, 0.5, 8).unwrap();
        let g = snc_graph::weighted::randomize_weights(
            &base,
            snc_graph::weighted::WeightDistribution::Uniform { lo: 0.5, hi: 2.0 },
            3,
        )
        .unwrap();
        for family in CircuitFamily::all() {
            let out = solve(&g, &spec(family)).unwrap();
            // The incremental tracker resyncs periodically, so the
            // reported value matches a scratch evaluation to rounding.
            let scratch = g.cut_value(&out.best_cut);
            assert!(
                (out.best_value - scratch).abs() <= 1e-9 * g.total_weight().max(1.0),
                "{family:?}: {} vs {scratch}",
                out.best_value
            );
            assert_eq!(out.best_value, out.trace.final_best(), "{family:?}");
            assert_eq!(out.samples, 64);
            assert_eq!(out.replicas, 4);
            assert!(out.trace.best.windows(2).all(|w| w[0] <= w[1]));
            if family.uses_sdp() {
                let bound = out.sdp_bound.expect("SDP-backed families carry the bound");
                assert!(bound >= out.best_value - 1e-6, "{family:?}");
            } else {
                assert_eq!(out.sdp_bound, None, "{family:?}");
            }
        }
    }

    #[test]
    fn weighted_solves_are_deterministic() {
        let base = gnp(12, 0.5, 9).unwrap();
        let g = snc_graph::weighted::randomize_weights(
            &base,
            snc_graph::weighted::WeightDistribution::Uniform { lo: 0.5, hi: 2.0 },
            7,
        )
        .unwrap();
        for family in CircuitFamily::all() {
            let a = solve(&g, &spec(family)).unwrap();
            let b = solve(&g, &spec(family)).unwrap();
            assert_eq!(a.trace, b.trace, "{family:?}");
            assert_eq!(a.best_cut, b.best_cut, "{family:?}");
            assert_eq!(a.best_value.to_bits(), b.best_value.to_bits(), "{family:?}");
        }
    }

    #[test]
    fn negative_weights_reject_trevisan_only() {
        let g = WeightedGraph::from_weighted_edges(4, &[(0, 1, 1.0), (1, 2, -0.5), (2, 3, 2.0)])
            .unwrap();
        assert_eq!(
            solve(&g, &spec(CircuitFamily::LifTrevisan)).unwrap_err(),
            SolveError::NegativeWeights
        );
        for family in [
            CircuitFamily::LifGw,
            CircuitFamily::LifAnnealed,
            CircuitFamily::Hopfield,
        ] {
            let out = solve(&g, &spec(family)).unwrap();
            assert!(out.best_value.is_finite(), "{family:?}");
        }
    }

    #[test]
    fn weighted_rejects_degenerate_requests() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 1.0)]).unwrap();
        let mut s = spec(CircuitFamily::Hopfield);
        s.budget = 0;
        assert_eq!(solve(&g, &s).unwrap_err(), SolveError::EmptyBudget);
        let empty = WeightedGraph::from_weighted_edges(0, &[]).unwrap();
        assert_eq!(
            solve(&empty, &spec(CircuitFamily::Hopfield)).unwrap_err(),
            SolveError::EmptyGraph
        );
    }

    #[test]
    fn unit_weighted_hopfield_matches_unweighted() {
        // Hopfield consumes only the coupling list, so unit weights via
        // the weighted path reproduce the unweighted solve exactly.
        let base = gnp(12, 0.5, 4).unwrap();
        let g = WeightedGraph::from_graph(&base);
        let s = spec(CircuitFamily::Hopfield);
        let unweighted = solve(&base, &s).unwrap();
        let weighted = solve(&g, &s).unwrap();
        assert_eq!(weighted.best_cut, unweighted.best_cut);
        assert_eq!(weighted.best_value, unweighted.best_value as f64);
        assert_eq!(
            weighted.trace.best,
            unweighted
                .trace
                .best
                .iter()
                .map(|&v| v as f64)
                .collect::<Vec<_>>()
        );
    }
}
