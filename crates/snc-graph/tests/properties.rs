//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use snc_graph::generators::{self, adjust_to_edge_count};
use snc_graph::io::{dimacs, edgelist, matrix_market};
use snc_graph::{stats, CutAssignment, CutTracker, Graph, WeightedGraph};
use snc_linalg::LinOp;

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (3usize..20, proptest::collection::vec((0u32..20, 0u32..20), 0..60)).prop_map(|(n, raw)| {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        Graph::from_edges(n, &edges).expect("in-range")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DIMACS and MatrixMarket round-trips preserve graphs exactly.
    #[test]
    fn structured_formats_roundtrip(g in arbitrary_graph()) {
        prop_assert_eq!(&dimacs::parse(&dimacs::to_string(&g)).unwrap(), &g);
        prop_assert_eq!(&matrix_market::parse(&matrix_market::to_string(&g)).unwrap(), &g);
    }

    /// Edge-list round-trip is exact: the snc header pins the vertex count
    /// and 0-based indexing.
    #[test]
    fn edgelist_roundtrip_edges(g in arbitrary_graph()) {
        let parsed = edgelist::parse(&edgelist::to_string(&g)).unwrap();
        prop_assert_eq!(&parsed, &g);
    }

    /// adjust_to_edge_count hits any feasible target exactly and keeps n.
    #[test]
    fn adjust_hits_target(g in arbitrary_graph(), target_frac in 0.0f64..1.0, seed in any::<u64>()) {
        let max = g.n() * (g.n() - 1) / 2;
        let target = (target_frac * max as f64) as usize;
        let adjusted = adjust_to_edge_count(&g, target, seed).unwrap();
        prop_assert_eq!(adjusted.m(), target);
        prop_assert_eq!(adjusted.n(), g.n());
    }

    /// The normalized adjacency operator has spectral radius ≤ 1:
    /// ‖N x‖ ≤ ‖x‖·(1 + ε) via a power-iteration probe.
    #[test]
    fn normalized_adjacency_contracts(g in arbitrary_graph(), seed in any::<u64>()) {
        use snc_devices::{Rng64, Xoshiro256pp};
        let op = snc_graph::NormalizedAdjacency::new(&g);
        let mut rng = Xoshiro256pp::new(seed);
        let x: Vec<f64> = (0..g.n()).map(|_| rng.next_f64() - 0.5).collect();
        let norm_x = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut y = vec![0.0; g.n()];
        op.apply(&x, &mut y);
        let norm_y = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(norm_y <= norm_x * (1.0 + 1e-9));
    }

    /// Components partition the vertex set; edges never cross components.
    #[test]
    fn components_are_consistent(g in arbitrary_graph()) {
        let labels = stats::connected_components(&g);
        prop_assert_eq!(labels.len(), g.n());
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        let count = stats::component_count(&g);
        prop_assert!(count >= 1);
        prop_assert!(count <= g.n());
    }

    /// Alternating cuts on even cycles achieve m; the all-ones cut is 0.
    #[test]
    fn cycle_cut_extremes(half in 2usize..12) {
        let n = 2 * half;
        let g = generators::cycle(n);
        let alternating: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        prop_assert_eq!(CutAssignment::from_sides(alternating).cut_value(&g), n as u64);
        prop_assert_eq!(CutAssignment::all_ones(n).cut_value(&g), 0);
    }

    /// The incremental cut tracker agrees with from-scratch `cut_value`
    /// over random flip sequences on Erdős–Rényi graphs: exact integer
    /// equality after every single flip and every whole-assignment diff.
    #[test]
    fn tracker_matches_scratch_on_er(
        n in 4usize..24,
        p in 0.1f64..0.9,
        seed in any::<u64>(),
        flips in proptest::collection::vec((0usize..24, any::<bool>()), 1..80),
    ) {
        use snc_devices::Xoshiro256pp;
        let g = generators::erdos_renyi::gnp(n, p, seed).expect("valid G(n,p)");
        let mut rng = Xoshiro256pp::new(seed ^ 0xC0FFEE);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(n, &mut rng));
        prop_assert_eq!(tracker.value(), tracker.assignment().cut_value(&g));
        for &(raw, whole) in &flips {
            if whole {
                // Whole-assignment update, as in the sampling loop.
                let target = CutAssignment::random(n, &mut rng);
                prop_assert_eq!(tracker.set_to(&target), target.cut_value(&g));
            } else {
                let v = tracker.flip(raw % n);
                prop_assert_eq!(v, tracker.assignment().cut_value(&g));
            }
        }
    }

    /// The weighted tracker agrees with from-scratch evaluation (up to
    /// floating-point roundoff) over random flip sequences on random
    /// weighted graphs, including negative weights.
    #[test]
    fn weighted_tracker_matches_scratch(
        n in 4usize..16,
        raw_edges in proptest::collection::vec((0u32..16, 0u32..16, -3.0f64..3.0), 1..60),
        flips in proptest::collection::vec(0usize..16, 1..60),
        seed in any::<u64>(),
    ) {
        use snc_devices::Xoshiro256pp;
        let edges: Vec<(u32, u32, f64)> = raw_edges
            .into_iter()
            .map(|(u, v, w)| (u % n as u32, v % n as u32, w))
            .collect();
        let g = WeightedGraph::from_weighted_edges(n, &edges).expect("in-range");
        let scale: f64 = g.edges().map(|(_, _, w)| w.abs()).sum::<f64>() + 1.0;
        let mut rng = Xoshiro256pp::new(seed);
        let mut tracker = CutTracker::new(&g, CutAssignment::random(n, &mut rng));
        for &raw in &flips {
            let v = tracker.flip(raw % n);
            let scratch = g.cut_value(tracker.assignment());
            prop_assert!(
                (v - scratch).abs() <= 1e-12 * scale,
                "maintained {v} vs scratch {scratch}"
            );
        }
        // Whole-assignment updates also track the target's value.
        let target = CutAssignment::random(n, &mut rng);
        let v = tracker.set_to(&target);
        prop_assert!((v - g.cut_value(&target)).abs() <= 1e-12 * scale);
    }

    /// Generator size contracts: WS and BA edge-count formulas hold.
    #[test]
    fn generator_size_contracts(n in 10usize..40, seed in any::<u64>()) {
        let k = 4;
        let ws = generators::watts_strogatz(n, k, 0.3, seed).unwrap();
        prop_assert_eq!(ws.m(), n * k / 2);
        let ba = generators::preferential_attachment(n, 2, seed).unwrap();
        prop_assert_eq!(ba.m(), 3 + (n - 3) * 2);
    }
}
