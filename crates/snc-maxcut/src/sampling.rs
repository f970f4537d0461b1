//! The sampling API shared by every stochastic solver.
//!
//! The paper's figures plot "maximum cut weight relative to solver as a
//! function of the number of samples" — i.e. best-so-far curves recorded at
//! (log-spaced) sample counts up to 2^20. [`sample_best_trace`] produces
//! exactly that curve for any [`CutSampler`]; [`parallel_best_traces`] runs
//! independent replicas across threads with deterministic per-replica
//! seeds.

use snc_graph::{CutAssignment, CutGraph, CutTracker, CutValue, Graph};
use snc_neuro::parallel::run_replicas;

/// A stochastic source of cut assignments for a fixed graph.
pub trait CutSampler {
    /// Draws the next cut sample.
    fn next_cut(&mut self) -> CutAssignment;
}

/// Best-so-far cut values recorded at increasing sample-count checkpoints
/// (`u64` edge counts, or `f64` weight sums on weighted graphs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BestTrace<V = u64> {
    /// Sample counts at which the best value was recorded (ascending).
    pub checkpoints: Vec<u64>,
    /// Best cut value seen within the first `checkpoints[k]` samples.
    pub best: Vec<V>,
}

impl<V: CutValue> BestTrace<V> {
    /// The final (overall best) cut value.
    pub fn final_best(&self) -> V {
        self.best.last().copied().unwrap_or_default()
    }
}

impl BestTrace {
    /// Best values as `f64` relative to a reference value (the paper
    /// normalizes by the software solver's best cut).
    pub fn relative_to(&self, reference: f64) -> Vec<f64> {
        self.best
            .iter()
            .map(|&b| {
                if reference > 0.0 {
                    b as f64 / reference
                } else {
                    1.0
                }
            })
            .collect()
    }
}

/// Folds one drawn cut into a lazily-initialized [`CutTracker`],
/// returning the cut's value. The first call seeds the tracker (one
/// scratch evaluation); later calls diff incrementally.
pub(crate) fn tracked_value<'g, G: CutGraph>(
    tracker: &mut Option<CutTracker<'g, G>>,
    graph: &'g G,
    cut: &CutAssignment,
) -> G::Value {
    match tracker.as_mut() {
        Some(t) => t.set_to(cut),
        None => {
            let t = CutTracker::new(graph, cut.clone());
            let v = t.value();
            *tracker = Some(t);
            v
        }
    }
}

/// Spike-pattern variant of [`tracked_value`] (avoids materializing a
/// [`CutAssignment`] per sample after the first).
pub(crate) fn tracked_value_from_spikes<'g>(
    tracker: &mut Option<CutTracker<'g>>,
    graph: &'g Graph,
    spiked: &[bool],
) -> u64 {
    match tracker.as_mut() {
        Some(t) => t.set_from_spikes(spiked),
        None => {
            let t = CutTracker::new(graph, CutAssignment::from_spikes(spiked));
            let v = t.value();
            *tracker = Some(t);
            v
        }
    }
}

/// The shared checkpoint loop of the batched multi-replica samplers
/// (`BatchedLifGwCircuit::best_traces`,
/// `BatchedLifTrevisanCircuit::best_traces`): draws samples up to the
/// last checkpoint, tracking a best-so-far value per replica, and
/// records the bests at every checkpoint.
///
/// `draw_values` advances the batch by one sample and writes each
/// replica's cut value into its slot (using the replica's lazily-seeded
/// [`CutTracker`] to evaluate incrementally). Keeping the loop here means
/// the circuits only supply the advance-and-read step, so the checkpoint
/// semantics cannot drift between circuit families.
///
/// # Panics
///
/// Panics if `checkpoints` is not strictly ascending.
pub(crate) fn batched_best_traces<'g>(
    checkpoints: &[u64],
    replicas: usize,
    mut draw_values: impl FnMut(&mut [Option<CutTracker<'g>>], &mut [u64]),
) -> Vec<BestTrace> {
    assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly ascending"
    );
    let mut trackers: Vec<Option<CutTracker<'g>>> = (0..replicas).map(|_| None).collect();
    let mut values = vec![0u64; replicas];
    let mut best = vec![0u64; replicas];
    let mut out: Vec<Vec<u64>> = vec![Vec::with_capacity(checkpoints.len()); replicas];
    let mut drawn = 0u64;
    for &cp in checkpoints {
        while drawn < cp {
            draw_values(&mut trackers, &mut values);
            for (b, &v) in best.iter_mut().zip(&values) {
                *b = (*b).max(v);
            }
            drawn += 1;
        }
        for (trace, &b) in out.iter_mut().zip(&best) {
            trace.push(b);
        }
    }
    out.into_iter()
        .map(|b| BestTrace {
            checkpoints: checkpoints.to_vec(),
            best: b,
        })
        .collect()
}

/// Logarithmically spaced checkpoints `1, 2, 4, …` up to and including
/// `budget` (deduplicated; empty for zero budget).
pub fn log2_checkpoints(budget: u64) -> Vec<u64> {
    let mut cp = Vec::new();
    let mut c = 1u64;
    while c < budget {
        cp.push(c);
        c = c.saturating_mul(2);
    }
    if budget > 0 {
        cp.push(budget);
    }
    cp.dedup();
    cp
}

/// Draws samples up to the last checkpoint, recording the best-so-far cut
/// value at every checkpoint.
///
/// Cut values are maintained incrementally with a [`CutTracker`]: each
/// sample is diffed against the previous one and updated flip-by-flip, so
/// samplers whose consecutive cuts differ in few vertices (LIF-Trevisan's
/// slowly-learning readout, annealing) pay O(changed · degree) per sample
/// instead of O(m). On an unweighted graph the tracker's integer
/// arithmetic is exact, so the recorded trace is identical to evaluating
/// every sample from scratch; on a weighted graph the `f64` value can
/// differ from a scratch evaluation by rounding between the tracker's
/// periodic resyncs ([`CutGraph::RESYNC_INTERVAL`]).
///
/// # Panics
///
/// Panics if `checkpoints` is not strictly ascending.
pub fn sample_best_trace<G: CutGraph>(
    sampler: &mut impl CutSampler,
    graph: &G,
    checkpoints: &[u64],
) -> BestTrace<G::Value> {
    assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly ascending"
    );
    let mut best = G::Value::FLOOR;
    let mut out = Vec::with_capacity(checkpoints.len());
    let mut drawn = 0u64;
    let mut tracker: Option<CutTracker<'_, G>> = None;
    for &cp in checkpoints {
        while drawn < cp {
            let cut = sampler.next_cut();
            // A cut and its complement are equivalent; both are covered by
            // the single evaluation.
            let value = tracked_value(&mut tracker, graph, &cut);
            best = best.larger(value);
            drawn += 1;
        }
        // A checkpoint before any sample records zero, not the floor.
        out.push(if drawn == 0 {
            G::Value::default()
        } else {
            best
        });
    }
    BestTrace {
        checkpoints: checkpoints.to_vec(),
        best: out,
    }
}

/// Runs `replicas` independent samplers (built by `factory`, which receives
/// the replica index for seeding) across `threads` threads; each replica
/// records the same checkpoint grid. Results are deterministic and
/// independent of `threads`.
pub fn parallel_best_traces<S, F>(
    factory: F,
    graph: &Graph,
    checkpoints: &[u64],
    replicas: usize,
    threads: usize,
) -> Vec<BestTrace>
where
    S: CutSampler,
    F: Fn(usize) -> S + Sync,
{
    run_replicas(replicas, threads, |i| {
        let mut sampler = factory(i);
        sample_best_trace(&mut sampler, graph, checkpoints)
    })
}

/// Summary statistics of a fixed-budget sampling run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleStats {
    /// Best cut value seen.
    pub best: u64,
    /// Mean cut value across all samples.
    pub mean: f64,
    /// Number of samples drawn.
    pub count: u64,
}

/// Draws `budget` samples and returns best and mean cut values.
///
/// The *mean* is the sensitive statistic for distribution quality: a
/// sampler with a distorted covariance can still luck into good best-of-N
/// cuts while its average sample degrades.
pub fn sample_stats(
    sampler: &mut impl CutSampler,
    graph: &Graph,
    budget: u64,
) -> SampleStats {
    let mut best = 0u64;
    let mut total = 0.0f64;
    let mut tracker: Option<CutTracker<'_>> = None;
    for _ in 0..budget {
        let cut = sampler.next_cut();
        let value = tracked_value(&mut tracker, graph, &cut);
        best = best.max(value);
        total += value as f64;
    }
    SampleStats {
        best,
        mean: if budget > 0 { total / budget as f64 } else { 0.0 },
        count: budget,
    }
}

/// Merges replica traces into a single "total samples" trace: at checkpoint
/// `k` the merged best is the max over replicas, and the merged sample
/// count is the sum.
///
/// # Panics
///
/// Panics if traces have mismatched checkpoint grids.
pub fn merge_traces(traces: &[BestTrace]) -> BestTrace {
    assert!(!traces.is_empty(), "cannot merge zero traces");
    let grid = &traces[0].checkpoints;
    for t in traces {
        assert_eq!(&t.checkpoints, grid, "checkpoint grids differ");
    }
    let checkpoints: Vec<u64> = grid.iter().map(|&c| c * traces.len() as u64).collect();
    let best: Vec<u64> = (0..grid.len())
        .map(|k| traces.iter().map(|t| t.best[k]).max().unwrap_or(0))
        .collect();
    BestTrace { checkpoints, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_devices::Xoshiro256pp;
    use snc_graph::generators::structured::cycle;

    struct CountingSampler {
        rng: Xoshiro256pp,
        n: usize,
        calls: u64,
    }

    impl CutSampler for CountingSampler {
        fn next_cut(&mut self) -> CutAssignment {
            self.calls += 1;
            CutAssignment::random(self.n, &mut self.rng)
        }
    }

    #[test]
    fn checkpoints_cover_budget() {
        assert_eq!(log2_checkpoints(8), vec![1, 2, 4, 8]);
        assert_eq!(log2_checkpoints(10), vec![1, 2, 4, 8, 10]);
        assert_eq!(log2_checkpoints(1), vec![1]);
        assert!(log2_checkpoints(0).is_empty());
    }

    #[test]
    fn trace_is_monotone_and_draws_exactly_budget() {
        let g = cycle(9);
        let mut s = CountingSampler {
            rng: Xoshiro256pp::new(1),
            n: 9,
            calls: 0,
        };
        let cp = log2_checkpoints(64);
        let trace = sample_best_trace(&mut s, &g, &cp);
        assert_eq!(s.calls, 64);
        assert!(trace.best.windows(2).all(|w| w[0] <= w[1]));
        assert!(trace.final_best() <= g.m() as u64);
        // C9 random cuts find at least something.
        assert!(trace.final_best() >= 6);
    }

    #[test]
    fn relative_normalization() {
        let t = BestTrace {
            checkpoints: vec![1, 2],
            best: vec![5, 10],
        };
        assert_eq!(t.relative_to(10.0), vec![0.5, 1.0]);
        assert_eq!(t.relative_to(0.0), vec![1.0, 1.0]);
    }

    #[test]
    fn parallel_traces_deterministic_across_thread_counts() {
        let g = cycle(11);
        let cp = log2_checkpoints(32);
        let factory = |i: usize| CountingSampler {
            rng: Xoshiro256pp::new(1000 + i as u64),
            n: 11,
            calls: 0,
        };
        let a = parallel_best_traces(factory, &g, &cp, 4, 1);
        let b = parallel_best_traces(factory, &g, &cp, 4, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_semantics() {
        let t1 = BestTrace {
            checkpoints: vec![1, 2],
            best: vec![3, 5],
        };
        let t2 = BestTrace {
            checkpoints: vec![1, 2],
            best: vec![4, 4],
        };
        let m = merge_traces(&[t1, t2]);
        assert_eq!(m.checkpoints, vec![2, 4]);
        assert_eq!(m.best, vec![4, 5]);
    }

    #[test]
    fn sample_stats_semantics() {
        let g = cycle(9);
        let mut s = CountingSampler {
            rng: Xoshiro256pp::new(2),
            n: 9,
            calls: 0,
        };
        let stats = sample_stats(&mut s, &g, 500);
        assert_eq!(stats.count, 500);
        assert!(stats.mean <= stats.best as f64);
        // Random cuts on C9 average m/2 = 4.5.
        assert!((stats.mean - 4.5).abs() < 0.5, "mean={}", stats.mean);
        let empty = sample_stats(&mut s, &g, 0);
        assert_eq!(empty.best, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bad_checkpoints_panic() {
        let g = cycle(5);
        let mut s = CountingSampler {
            rng: Xoshiro256pp::new(1),
            n: 5,
            calls: 0,
        };
        sample_best_trace(&mut s, &g, &[4, 2]);
    }
}
