//! E7 (§VI extensions): MAX2SAT and MAXDICUT pipeline cost through the
//! shared SDP + rounding machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_linalg::SdpConfig;
use snc_maxcut::extensions::max2sat::{solve_gw_max2sat, Max2Sat};
use snc_maxcut::extensions::maxdicut::{solve_gw_maxdicut, DiGraph};
use std::time::Duration;

fn max2sat_pipeline(c: &mut Criterion) {
    let cfg = SdpConfig::default();
    let mut group = c.benchmark_group("max2sat");
    for &(vars, clauses) in &[(20usize, 60usize), (50, 150)] {
        let inst = Max2Sat::random(vars, clauses, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("v{vars}_c{clauses}")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    solve_gw_max2sat(inst, &cfg, 32, 7)
                        .expect("SDP solves")
                        .value
                })
            },
        );
    }
    group.finish();
}

fn maxdicut_pipeline(c: &mut Criterion) {
    let cfg = SdpConfig::default();
    let mut group = c.benchmark_group("maxdicut");
    for &(n, m) in &[(20usize, 60usize), (50, 200)] {
        let g = DiGraph::random(n, m, 5);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}")),
            &g,
            |b, g| {
                b.iter(|| {
                    solve_gw_maxdicut(g, &cfg, 32, 9)
                        .expect("SDP solves")
                        .value
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
    targets = max2sat_pipeline, maxdicut_pipeline
}
criterion_main!(benches);
