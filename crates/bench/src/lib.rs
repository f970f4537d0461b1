//! Shared helpers for the Criterion benches.
//!
//! Each bench target regenerates (a timed slice of) one paper artifact;
//! see DESIGN.md's per-experiment index for the mapping. Keep bench bodies
//! small: workload construction lives here so targets stay readable.

use snc_experiments::config::{ExperimentScale, SuiteConfig};
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::Graph;
use snc_linalg::{DMatrix, SdpConfig, SdpSolution};
use snc_maxcut::{gw, GwConfig};

/// A small sample budget that keeps bench iterations in the millisecond
/// range while still exercising the full sampling path.
pub const BENCH_SAMPLES: u64 = 64;

/// The suite configuration used by all benches (quick scale, 1 thread so
/// Criterion measures single-core solver cost, not scheduling).
pub fn bench_suite_config() -> SuiteConfig {
    let mut cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
    cfg.sample_budget = BENCH_SAMPLES;
    cfg.threads = 1;
    cfg
}

/// A deterministic Figure-3 style workload graph.
pub fn er_graph(n: usize, p: f64) -> Graph {
    gnp(n, p, 0xBE7C_u64 ^ n as u64).expect("valid G(n,p)")
}

/// Solves the GW SDP at the paper's rank for a graph (bench setup cost —
/// excluded from sampler timings by doing it outside the timed closure).
pub fn sdp_factors(graph: &Graph) -> DMatrix {
    gw::solve_gw(graph, &GwConfig { sdp: SdpConfig::default() })
        .expect("SDP solves")
        .factors
}

/// Which rule stopped a Burer–Monteiro solve: `grad_tol` (converged),
/// `max_iters` (every restart hit the cap), or `armijo-stall` (the line
/// search found no decrease). `Ok` from the solver says none of this.
pub fn sdp_stop_reason(sol: &SdpSolution, cfg: &SdpConfig) -> &'static str {
    if sol.grad_norm <= cfg.grad_tol * (1.0 + sol.energy.abs()) {
        "grad_tol"
    } else if sol.iterations == cfg.max_iters * cfg.restarts.max(1) {
        "max_iters"
    } else {
        "armijo-stall"
    }
}

/// The smallest Figure-4 empirical graph (road-chesapeake, 39 vertices /
/// 170 edges) — the standard instance for hot-path smoke benches, small
/// enough for CI yet shaped like the paper's workload.
pub fn fig4_smallest() -> Graph {
    snc_graph::EmpiricalDataset::RoadChesapeake
        .load()
        .expect("bundled dataset loads")
}

/// The paper-scale Figure-3 corner instance: G(500, 0.1), the largest
/// vertex count in the paper's Erdős–Rényi sweep at its sparsest
/// connection probability (~12.5k edges). Used to measure the CSC
/// shared-traversal kernels at the n ≥ 500 scale the BENCHMARKS ledger
/// records.
pub fn paper_scale_er() -> Graph {
    er_graph(500, 0.1)
}
