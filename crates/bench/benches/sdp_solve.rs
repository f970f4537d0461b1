//! SDP solver scaling: Burer–Monteiro solve time across the Figure-3 graph
//! sizes (the offline cost the LIF-GW circuit pays and the LIF-TR circuit
//! avoids — the trade-off of §VI).

use bench::{er_graph, sdp_stop_reason};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_linalg::{sdp, SdpConfig};
use std::time::Duration;

/// Once per instance, untimed: the iterations the solve took and the rule
/// that stopped it (a capped solve times the cap, not convergence).
fn report_convergence(label: &str, n: usize, edges: &[(u32, u32)]) {
    let cfg = SdpConfig::default();
    let sol = sdp::solve_maxcut_sdp(n, edges, &cfg).expect("SDP solves");
    println!(
        "{label}: iterations={} stop={}",
        sol.iterations,
        sdp_stop_reason(&sol, &cfg)
    );
}

fn sdp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdp_solve");
    for &n in &[50usize, 100, 200, 350] {
        let graph = er_graph(n, 0.25);
        let edges: Vec<(u32, u32)> = graph.edges().collect();
        report_convergence(&format!("n={n}"), n, &edges);
        group.bench_with_input(BenchmarkId::from_parameter(n), &edges, |b, edges| {
            b.iter(|| {
                sdp::solve_maxcut_sdp(n, edges, &SdpConfig::default())
                    .expect("SDP solves")
                    .energy
            })
        });
    }
    group.finish();
}

fn sdp_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdp_solve_density");
    for &p in &[0.1f64, 0.5, 0.75] {
        let graph = er_graph(100, p);
        let edges: Vec<(u32, u32)> = graph.edges().collect();
        report_convergence(&format!("n=100 p={p}"), 100, &edges);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p{p}")),
            &edges,
            |b, edges| {
                b.iter(|| {
                    sdp::solve_maxcut_sdp(100, edges, &SdpConfig::default())
                        .expect("SDP solves")
                        .energy
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = sdp_scaling, sdp_density
}
criterion_main!(benches);
