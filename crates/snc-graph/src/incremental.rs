//! Incremental cut-value maintenance.
//!
//! Evaluating a cut from scratch walks every edge (O(m)). Samplers whose
//! consecutive samples differ in few vertices — the LIF-Trevisan circuit's
//! slowly-evolving weight vector, local search, annealing — pay far less by
//! *maintaining* the value: flipping vertex `i` changes the cut by
//! `flip_delta(i) = (same-side neighbor weight) − (cross-side neighbor
//! weight)`, an O(deg i) update. [`CutTracker`] packages that bookkeeping
//! behind a "set the assignment to this target" API for any [`CutGraph`],
//! diffing against the previous assignment and applying one flip per
//! changed vertex.
//!
//! Because a cut and its complement have equal value, the tracker flips
//! whichever side of the diff is smaller; the tracked assignment therefore
//! equals the target *up to global complementation* (see
//! [`CutTracker::assignment`]).

use crate::csr::Graph;
use crate::cut::{CutAssignment, CutGraph};

/// The complement-aware diff walk: counts the vertices whose side differs
/// from `target_side`, then flips whichever of the differing/agreeing sets
/// is smaller through `apply_flip`, leaving `assignment` equal to the
/// target or its complement (equal cut value either way). `target_side`
/// must not depend on `assignment` — flipping vertex `j` never changes
/// whether vertex `i ≠ j` differs, so the walk is order-independent.
fn flip_smaller_side(
    assignment: &mut CutAssignment,
    target_side: impl Fn(usize) -> i8,
    mut apply_flip: impl FnMut(&mut CutAssignment, usize),
) {
    let n = assignment.len();
    let differing = (0..n)
        .filter(|&i| assignment.side(i) != target_side(i))
        .count();
    let flip_agreeing = differing * 2 > n;
    for i in 0..n {
        if (assignment.side(i) != target_side(i)) != flip_agreeing {
            apply_flip(assignment, i);
        }
    }
}

/// Maintains the cut value of an evolving assignment.
///
/// On an unweighted [`Graph`] the updates are exact integer arithmetic:
/// every update path — single flips or whole-assignment diffs — produces
/// exactly the value [`CutAssignment::cut_value`] would compute from
/// scratch. On a weighted graph the updates accumulate in `f64`, so the
/// maintained value can drift from the scratch evaluation by rounding of
/// order `ε · Σ|w| · flips`; the tracker re-evaluates from scratch every
/// [`CutGraph::RESYNC_INTERVAL`] flips to keep the drift bounded, and
/// [`CutTracker::recompute`] gives an exact value on demand.
///
/// # Examples
///
/// ```
/// use snc_graph::{CutAssignment, CutTracker, Graph};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let start = CutAssignment::from_sides(vec![1, 1, -1, -1]);
/// let mut tracker = CutTracker::new(&g, start);
/// assert_eq!(tracker.value(), 1); // only edge (1,2) crosses
///
/// // O(deg) incremental flips instead of O(m) re-evaluations.
/// tracker.flip(2); // sides [1, 1, 1, -1]: only (2,3) crosses
/// assert_eq!(tracker.value(), 1);
/// tracker.flip(1); // sides [1, -1, 1, -1]: every edge crosses
/// assert_eq!(tracker.value(), 3);
///
/// // Whole-assignment updates diff against the previous sample.
/// let next = CutAssignment::from_sides(vec![1, -1, 1, 1]);
/// assert_eq!(tracker.set_to(&next), 2);
/// assert_eq!(tracker.value(), next.cut_value(&g));
/// ```
#[derive(Clone, Debug)]
pub struct CutTracker<'g, G: CutGraph = Graph> {
    graph: &'g G,
    assignment: CutAssignment,
    value: G::Value,
    flips_since_resync: u64,
}

impl<'g, G: CutGraph> CutTracker<'g, G> {
    /// Starts tracking `assignment`, computing its value once from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `graph.n()`.
    pub fn new(graph: &'g G, assignment: CutAssignment) -> Self {
        let value = graph.cut_value(&assignment);
        Self {
            graph,
            assignment,
            value,
            flips_since_resync: 0,
        }
    }

    /// The current (maintained) cut value.
    pub fn value(&self) -> G::Value {
        self.value
    }

    /// The tracked assignment.
    ///
    /// After [`CutTracker::set_to`] / [`CutTracker::set_from_spikes`] this
    /// equals the requested target *up to global complementation* (the
    /// tracker flips the smaller side of the diff; cut values are invariant
    /// under complementation).
    pub fn assignment(&self) -> &CutAssignment {
        &self.assignment
    }

    /// Recomputes the value from scratch (exact; resets drift).
    ///
    /// # Examples
    ///
    /// On a weighted graph the maintained value is an `f64` weight sum.
    ///
    /// ```
    /// use snc_graph::{CutAssignment, CutTracker, WeightedGraph};
    ///
    /// let g = WeightedGraph::from_weighted_edges(
    ///     3, &[(0, 1, 2.5), (1, 2, 4.0)]).unwrap();
    /// let mut tracker = CutTracker::new(
    ///     &g, CutAssignment::from_sides(vec![1, -1, -1]));
    /// assert_eq!(tracker.value(), 2.5);
    /// tracker.flip(2); // sides [1, -1, 1]: both edges cross
    /// assert_eq!(tracker.value(), 6.5);
    /// assert_eq!(tracker.recompute(), 6.5);
    /// ```
    pub fn recompute(&mut self) -> G::Value {
        self.value = self.graph.cut_value(&self.assignment);
        self.flips_since_resync = 0;
        self.value
    }

    /// Flips vertex `i`, updating the value in O(deg i). Returns the new
    /// value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> G::Value {
        Self::apply_flip(
            self.graph,
            &mut self.assignment,
            &mut self.value,
            &mut self.flips_since_resync,
            i,
        );
        self.value
    }

    #[inline]
    fn apply_flip(
        graph: &G,
        assignment: &mut CutAssignment,
        value: &mut G::Value,
        flips_since_resync: &mut u64,
        i: usize,
    ) {
        *value = graph.flipped_value(assignment, i, *value);
        assignment.flip(i);
        *flips_since_resync += 1;
        if *flips_since_resync >= G::RESYNC_INTERVAL {
            *value = graph.cut_value(assignment);
            *flips_since_resync = 0;
        }
    }

    /// Moves the tracked assignment to `target` (up to complementation)
    /// and returns `target`'s cut value.
    ///
    /// Cost is `Σ deg(i)` over the vertices whose side differs (or over
    /// their complement, whichever set is smaller) — at most one scratch
    /// evaluation, and far less when consecutive targets are similar.
    ///
    /// # Panics
    ///
    /// Panics if `target.len() != graph.n()`.
    pub fn set_to(&mut self, target: &CutAssignment) -> G::Value {
        assert_eq!(
            target.len(),
            self.graph.n(),
            "assignment/graph size mismatch"
        );
        self.advance(|i| target.side(i))
    }

    /// Like [`CutTracker::set_to`], but the target is given as a spike
    /// pattern (`true` ⇒ `+1` side), avoiding an intermediate
    /// [`CutAssignment`] allocation in sampling hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `spiked.len() != graph.n()`.
    pub fn set_from_spikes(&mut self, spiked: &[bool]) -> G::Value {
        assert_eq!(
            spiked.len(),
            self.graph.n(),
            "assignment/graph size mismatch"
        );
        self.advance(|i| if spiked[i] { 1 } else { -1 })
    }

    fn advance(&mut self, target_side: impl Fn(usize) -> i8) -> G::Value {
        let CutTracker {
            graph,
            assignment,
            value,
            flips_since_resync,
        } = self;
        flip_smaller_side(assignment, target_side, |a, i| {
            Self::apply_flip(graph, a, value, flips_since_resync, i);
        });
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::structured::{complete, cycle};
    use crate::WeightedGraph;
    use snc_devices::{Rng64, Xoshiro256pp};

    #[test]
    fn single_flips_match_scratch() {
        let g = complete(7);
        let mut rng = Xoshiro256pp::new(3);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(7, &mut rng));
        for k in 0..200 {
            let i = rng.next_index(7);
            let v = tracker.flip(i);
            assert_eq!(v, tracker.assignment().cut_value(&g), "flip {k}");
        }
    }

    #[test]
    fn set_to_matches_scratch_and_uses_complement() {
        let g = cycle(10);
        let mut rng = Xoshiro256pp::new(9);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(10, &mut rng));
        for _ in 0..100 {
            let target = CutAssignment::random(10, &mut rng);
            let v = tracker.set_to(&target);
            assert_eq!(v, target.cut_value(&g));
            // Tracked assignment equals target or its complement.
            let t = tracker.assignment();
            let eq = (0..10).all(|i| t.side(i) == target.side(i));
            let comp = (0..10).all(|i| t.side(i) == -target.side(i));
            assert!(eq || comp);
        }
        // Complement path: moving to the exact complement flips nothing
        // (zero work) and keeps the value.
        let before = tracker.value();
        let complement = tracker.assignment().complemented();
        assert_eq!(tracker.set_to(&complement), before);
    }

    #[test]
    fn set_from_spikes_matches_set_to() {
        let g = complete(6);
        let mut rng = Xoshiro256pp::new(17);
        let mut a = CutTracker::new(&g, CutAssignment::all_ones(6));
        let mut b = CutTracker::new(&g, CutAssignment::all_ones(6));
        for _ in 0..50 {
            let spikes: Vec<bool> = (0..6).map(|_| rng.next_bool(0.5)).collect();
            let target = CutAssignment::from_spikes(&spikes);
            assert_eq!(a.set_from_spikes(&spikes), b.set_to(&target));
        }
    }

    #[test]
    fn weighted_tracker_matches_scratch() {
        let g = WeightedGraph::from_weighted_edges(
            5,
            &[
                (0, 1, 1.5),
                (1, 2, -2.0),
                (2, 3, 0.25),
                (3, 4, 10.0),
                (0, 4, 3.0),
                (1, 3, 0.5),
            ],
        )
        .unwrap();
        let mut rng = Xoshiro256pp::new(5);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(5, &mut rng));
        for _ in 0..300 {
            let i = rng.next_index(5);
            let v = tracker.flip(i);
            let scratch = g.cut_value(tracker.assignment());
            assert!((v - scratch).abs() < 1e-9, "{v} vs {scratch}");
        }
        let exact = tracker.recompute();
        assert_eq!(exact, g.cut_value(tracker.assignment()));
    }

    #[test]
    fn weighted_set_to_matches_scratch() {
        let g = WeightedGraph::from_weighted_edges(
            8,
            &(0..8u32)
                .flat_map(|u| ((u + 1)..8).map(move |v| (u, v, ((u * 7 + v) % 5) as f64 - 1.0)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut rng = Xoshiro256pp::new(23);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(8, &mut rng));
        for _ in 0..100 {
            let target = CutAssignment::random(8, &mut rng);
            let v = tracker.set_to(&target);
            assert!((v - g.cut_value(&target)).abs() < 1e-9);
        }
    }
}
