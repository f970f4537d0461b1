//! E6 (rank ablation): the paper fixes the Burer–Monteiro rank at 4 for
//! all graphs (§IV.A). This bench sweeps the rank, timing the solve and
//! printing the SDP bound and rounded-cut quality per rank — showing why
//! rank 4 is the sweet spot (rank 2 under-parameterizes; higher ranks cost
//! linearly more per iteration with no quality gain).

use bench::{er_graph, sdp_stop_reason};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_linalg::{sdp, SdpConfig};
use snc_maxcut::{log2_checkpoints, sample_best_trace, GwSampler};
use std::time::Duration;

fn rank_ablation(c: &mut Criterion) {
    let graph = er_graph(100, 0.25);
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    let mut group = c.benchmark_group("sdp_rank");
    for &rank in &[2usize, 3, 4, 8, 16] {
        let cfg = SdpConfig {
            rank,
            ..SdpConfig::default()
        };
        // Quality readout (once, untimed): SDP bound and best-of-64 cut.
        let sol = sdp::solve_maxcut_sdp(graph.n(), &edges, &cfg).expect("SDP solves");
        let bound = sol.cut_upper_bound(graph.m() as f64);
        let iterations = sol.iterations;
        let stop = sdp_stop_reason(&sol, &cfg);
        let mut sampler = GwSampler::new(sol.factors, 5);
        let best = sample_best_trace(&mut sampler, &graph, &log2_checkpoints(64)).final_best();
        println!(
            "rank {rank}: sdp_bound={bound:.2} best_of_64={best} iterations={iterations} stop={stop}"
        );
        group.bench_with_input(BenchmarkId::from_parameter(rank), &cfg, |b, cfg| {
            b.iter(|| {
                sdp::solve_maxcut_sdp(graph.n(), &edges, cfg)
                    .expect("SDP solves")
                    .energy
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = rank_ablation
}
criterion_main!(benches);
