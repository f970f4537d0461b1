//! Weighted MAXCUT on the two weighted Table-I networks.
//!
//! `inf-USAir97` and `eco-stmarks` are weighted graphs in the Network
//! Repository — visible in the paper's own Table I, where `eco-stmarks`
//! has a "cut of 1765" on a 54-vertex web. This example runs the weighted
//! solver stack (weighted GW SDP + the same circuits, weighted Trevisan)
//! on calibrated weighted stand-ins, bringing the measured magnitudes into
//! the paper's range. The circuits and `sample_best_trace` are the ones
//! the unweighted graphs use; on a `WeightedGraph` they record `f64` cuts.
//!
//! ```text
//! cargo run --release --example weighted_graphs
//! ```

use snc::snc_graph::EmpiricalDataset;
use snc::snc_linalg::SdpConfig;
use snc::snc_maxcut::weighted::{solve_gw_weighted, solve_trevisan_weighted};
use snc::snc_maxcut::{
    log2_checkpoints, sample_best_trace, GwSampler, LifGwCircuit, LifGwConfig, LifTrevisanCircuit,
    LifTrevisanConfig, RandomCutSampler,
};

fn main() {
    let budget = 2048;
    let checkpoints = log2_checkpoints(budget);
    println!("weighted Table-I rows (synthetic calibrated weights, {budget} samples):\n");
    println!(
        "{:<14} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "graph", "m", "total_w", "LIF-GW", "LIF-TR", "solver", "random", "paper solver"
    );
    for ds in [EmpiricalDataset::InfUsair97, EmpiricalDataset::EcoStmarks] {
        let g = ds.load_weighted().expect("weighted stand-in loads");

        // Weighted GW SDP; the sampler and the LIF-GW circuit consume the
        // factor matrix exactly as in the unweighted case.
        let sol = solve_gw_weighted(&g, &SdpConfig::default()).expect("SDP converges");
        let mut software = GwSampler::new(sol.factors.clone(), 1);
        let solver_best =
            sample_best_trace(&mut software, &g, &checkpoints).final_best();
        let mut lif_gw = LifGwCircuit::new(&sol.factors, 2, &LifGwConfig::default());
        let lif_gw_best =
            sample_best_trace(&mut lif_gw, &g, &checkpoints).final_best();

        // Weighted LIF-Trevisan: entirely online, weighted Trevisan matrix.
        let mut lif_tr = LifTrevisanCircuit::new(&g, 3, &LifTrevisanConfig::default());
        let lif_tr_best = sample_best_trace(&mut lif_tr, &g, &checkpoints).final_best();

        let mut random = RandomCutSampler::new(g.n(), 4);
        let random_best = sample_best_trace(&mut random, &g, &checkpoints).final_best();

        println!(
            "{:<14} {:>8} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12}",
            ds.name(),
            g.m(),
            g.total_weight(),
            lif_gw_best,
            lif_tr_best,
            solver_best,
            random_best,
            ds.paper_row().solver
        );
    }

    // The weighted spectral solver, shown on eco-stmarks.
    let eco = EmpiricalDataset::EcoStmarks.load_weighted().unwrap();
    let spectral = solve_trevisan_weighted(&eco, &snc::snc_linalg::eigen::EigenConfig::default())
        .expect("eigensolver converges");
    println!(
        "\neco-stmarks weighted Trevisan (software): cut {:.1} at eigenvalue {:.4}",
        spectral.value, spectral.eigenvalue
    );
    println!("\n(stand-in wiring differs from the originals, so values match the paper's");
    println!(" *magnitude class*, not exact numbers — see EXPERIMENTS.md)");
}
