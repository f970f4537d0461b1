//! Cut assignments and cut values.
//!
//! A cut partitions the vertex set into two classes, encoded as `±1` labels
//! exactly as in the paper's integer program (§II.A). The cut value of an
//! unweighted graph is the number of edges whose endpoints carry opposite
//! labels.
//!
//! [`CutGraph`] is what the solve path asks of a graph. It is implemented by
//! [`Graph`] (exact `u64` edge counts) and by
//! [`WeightedGraph`](crate::WeightedGraph) (`f64` weight sums), so trackers,
//! traces and circuits are written once for both.

use crate::csr::Graph;
use snc_devices::Rng64;

/// A cut value: an exact edge count (`u64`) or a weight sum (`f64`).
pub trait CutValue: Copy + Default + PartialOrd + std::fmt::Debug + Send + Sync + 'static {
    /// Below every cut value, so a best-so-far fold can start from it:
    /// `0` for counts, `−∞` for weight sums (signed weights can make
    /// every cut negative).
    const FLOOR: Self;

    /// The larger of two values (`f64::max` for weight sums).
    fn larger(self, other: Self) -> Self;
}

impl CutValue for u64 {
    const FLOOR: u64 = 0;

    fn larger(self, other: u64) -> u64 {
        self.max(other)
    }
}

impl CutValue for f64 {
    const FLOOR: f64 = f64::NEG_INFINITY;

    fn larger(self, other: f64) -> f64 {
        self.max(other)
    }
}

/// A graph MAXCUT runs on. Everything the solvers do differently for
/// unweighted and weighted graphs lives in the two implementations: the
/// value type and its arithmetic, edge weights (1 on [`Graph`]), and the
/// sign check that gates the spectral operators.
pub trait CutGraph {
    /// The type of a cut value.
    type Value: CutValue;

    /// Flips an incremental tracker applies before re-evaluating its
    /// value from scratch, bounding floating-point drift (`u64::MAX` when
    /// the arithmetic is exact).
    const RESYNC_INTERVAL: u64;

    /// Number of vertices.
    fn n(&self) -> usize;

    /// Number of edges.
    fn m(&self) -> usize;

    /// The value of a cut, evaluated from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `n()`.
    fn cut_value(&self, cut: &CutAssignment) -> Self::Value;

    /// The value `value` of `cut` becomes once vertex `i` flips, in
    /// O(deg i).
    fn flipped_value(&self, cut: &CutAssignment, i: usize, value: Self::Value) -> Self::Value;

    /// The sorted neighbours of vertex `i` with their edge weights.
    fn weighted_neighbors(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_;

    /// The weighted degree `Σ_j w_ij` of vertex `i`.
    fn weighted_degree(&self, i: usize) -> f64;

    /// Every edge once as `(u, v, w)` with `u < v`.
    fn weighted_edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_;

    /// Whether no edge weight is negative (the spectral operators and
    /// the LIF-Trevisan circuit need this).
    fn is_nonnegative(&self) -> bool;
}

impl CutGraph for Graph {
    type Value = u64;

    const RESYNC_INTERVAL: u64 = u64::MAX;

    fn n(&self) -> usize {
        Graph::n(self)
    }

    fn m(&self) -> usize {
        Graph::m(self)
    }

    fn cut_value(&self, cut: &CutAssignment) -> u64 {
        cut.cut_value(self)
    }

    #[inline]
    fn flipped_value(&self, cut: &CutAssignment, i: usize, value: u64) -> u64 {
        (value as i64 + cut.flip_delta(self, i)) as u64
    }

    fn weighted_neighbors(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.neighbors(i).iter().map(|&j| (j, 1.0))
    }

    fn weighted_degree(&self, i: usize) -> f64 {
        self.degree(i) as f64
    }

    fn weighted_edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.edges().map(|(u, v)| (u, v, 1.0))
    }

    fn is_nonnegative(&self) -> bool {
        true
    }
}

/// A two-coloring of the vertices; `+1` and `−1` are the two sides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutAssignment {
    sides: Vec<i8>,
}

impl CutAssignment {
    /// All vertices on the `+1` side.
    pub fn all_ones(n: usize) -> Self {
        Self { sides: vec![1; n] }
    }

    /// Builds an assignment from `±1` labels.
    ///
    /// # Panics
    ///
    /// Panics if any label is not `+1` or `−1`.
    pub fn from_sides(sides: Vec<i8>) -> Self {
        assert!(
            sides.iter().all(|&s| s == 1 || s == -1),
            "labels must be ±1"
        );
        Self { sides }
    }

    /// Thresholds real values by sign: positive ⇒ `+1`, else `−1`.
    ///
    /// This is the rounding used by both the Gaussian sampling step of GW
    /// (§II.A) and the spectral thresholding of Trevisan (§II.B); ties
    /// (zeros) land on the `−1` side, matching the paper's `u_i ≤ 0` rule.
    pub fn from_signs(values: &[f64]) -> Self {
        Self {
            sides: values.iter().map(|&v| if v > 0.0 { 1 } else { -1 }).collect(),
        }
    }

    /// Spiking readout: `true` (spiked) ⇒ `+1` side, silent ⇒ `−1` side.
    ///
    /// "Neurons that spike together on a given timestep map to vertices on
    /// one side of the cut" (§IV.A).
    pub fn from_spikes(spiked: &[bool]) -> Self {
        Self {
            sides: spiked.iter().map(|&b| if b { 1 } else { -1 }).collect(),
        }
    }

    /// A uniformly random assignment — the paper's "Random" baseline.
    pub fn random(n: usize, rng: &mut impl Rng64) -> Self {
        Self {
            sides: (0..n).map(|_| if rng.next_bool(0.5) { 1 } else { -1 }).collect(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.sides.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.sides.is_empty()
    }

    /// The side (`±1`) of vertex `i`.
    #[inline]
    pub fn side(&self, i: usize) -> i8 {
        self.sides[i]
    }

    /// The raw label slice.
    pub fn sides(&self) -> &[i8] {
        &self.sides
    }

    /// Flips vertex `i` to the other side.
    pub fn flip(&mut self, i: usize) {
        self.sides[i] = -self.sides[i];
    }

    /// The complementary assignment (all labels negated). Cut values are
    /// invariant under complementation.
    pub fn complemented(&self) -> Self {
        Self {
            sides: self.sides.iter().map(|&s| -s).collect(),
        }
    }

    /// Number of vertices on the `+1` side.
    pub fn count_positive(&self) -> usize {
        self.sides.iter().filter(|&&s| s == 1).count()
    }

    /// The cut value: number of edges crossing the partition.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `graph.n()`.
    pub fn cut_value(&self, graph: &Graph) -> u64 {
        assert_eq!(self.sides.len(), graph.n(), "assignment/graph size mismatch");
        let mut cut = 0u64;
        for (u, v) in graph.edges() {
            if self.sides[u as usize] != self.sides[v as usize] {
                cut += 1;
            }
        }
        cut
    }

    /// Change in cut value if vertex `i` were flipped (positive = improves).
    ///
    /// `Δ = (#same-side neighbors) − (#cross-side neighbors)` — the
    /// ingredient of 1-opt local search.
    pub fn flip_delta(&self, graph: &Graph, i: usize) -> i64 {
        let mut same = 0i64;
        let mut cross = 0i64;
        let si = self.sides[i];
        for &j in graph.neighbors(i) {
            if self.sides[j as usize] == si {
                same += 1;
            } else {
                cross += 1;
            }
        }
        same - cross
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_devices::Xoshiro256pp;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn trivial_cuts() {
        let g = path4();
        assert_eq!(CutAssignment::all_ones(4).cut_value(&g), 0);
        let alternating = CutAssignment::from_sides(vec![1, -1, 1, -1]);
        assert_eq!(alternating.cut_value(&g), 3); // bipartite max cut
    }

    #[test]
    fn complement_invariance() {
        let g = path4();
        let c = CutAssignment::from_sides(vec![1, 1, -1, 1]);
        assert_eq!(c.cut_value(&g), c.complemented().cut_value(&g));
    }

    #[test]
    fn sign_threshold_semantics() {
        let c = CutAssignment::from_signs(&[0.5, -0.1, 0.0, 2.0]);
        assert_eq!(c.sides(), &[1, -1, -1, 1]); // zero goes to −1 per paper
    }

    #[test]
    fn spike_readout() {
        let c = CutAssignment::from_spikes(&[true, false, true]);
        assert_eq!(c.sides(), &[1, -1, 1]);
        assert_eq!(c.count_positive(), 2);
    }

    #[test]
    fn flip_and_delta_consistent() {
        let g = path4();
        let mut c = CutAssignment::from_sides(vec![1, 1, -1, -1]);
        let before = c.cut_value(&g) as i64;
        for i in 0..4 {
            let delta = c.flip_delta(&g, i);
            let mut c2 = c.clone();
            c2.flip(i);
            assert_eq!(c2.cut_value(&g) as i64, before + delta, "vertex {i}");
        }
        c.flip(1);
        assert_eq!(c.side(1), -1);
    }

    #[test]
    fn cut_bounded_by_m() {
        let g = path4();
        let mut rng = Xoshiro256pp::new(5);
        for _ in 0..50 {
            let c = CutAssignment::random(4, &mut rng);
            assert!(c.cut_value(&g) <= g.m() as u64);
        }
    }

    #[test]
    fn random_cut_is_roughly_balanced() {
        let mut rng = Xoshiro256pp::new(6);
        let c = CutAssignment::random(10_000, &mut rng);
        let pos = c.count_positive() as f64 / 10_000.0;
        assert!((pos - 0.5).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn invalid_labels_rejected() {
        let _ = CutAssignment::from_sides(vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let g = path4();
        let _ = CutAssignment::all_ones(3).cut_value(&g);
    }
}
