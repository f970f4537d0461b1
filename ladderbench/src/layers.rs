//! The traced replay: the same seeded requests, timed at each layer's
//! public functions from the benchmark's own code.
//!
//! Every request of the sample is replayed on the path the fleet takes
//! for it. A `warm-hit` request takes the hit path (HTTP parse → wire
//! parse → response-cache hit → render). A cold request takes the miss
//! path (HTTP parse → wire parse → cache miss → worker queue → SDP →
//! sampling → render), with the in-process SdpCache in the state the
//! fleet's is in. Network legs are timed against the live fleet:
//! `backend.direct_us` is a warm hit sent straight to the owning
//! backend and `router.hop_us` the same hit through the router minus
//! that.

use crate::fleet::{Conn, Fleet};
use crate::span::Trace;
use crate::stats::{mean, median};
use crate::workload::{primed_requests, Request, Shape, Source};
use snc_devices::SplitMix64;
use snc_graph::fingerprint::{fingerprint_graph, fingerprint_weighted};
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::io::edgelist;
use snc_graph::{EmpiricalDataset, WeightedGraph};
use snc_linalg::sdp::{solve_maxcut_sdp, SdpConfig};
use snc_maxcut::SdpCache;
use snc_server::http::{render_response, RequestParser};
use snc_server::wire::{self, RequestDefaults, Workload as WireWorkload};
use snc_server::{ResponseCache, ResponseKey};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each cheap (µs-scale) layer call; the median is kept.
const CHEAP_REPS: usize = 60;
/// Repetitions of each warm network round trip; the median is kept.
const NET_REPS: usize = 40;

/// The response headers a backend adds, rendered like its own.
fn extras() -> [(&'static str, String); 2] {
    [
        ("x-snc-elapsed-us", "1234".to_string()),
        ("x-snc-request-id", "0123456789abcdef".to_string()),
    ]
}

/// One replayed request's layer times.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Family wire name.
    pub family: &'static str,
    /// Body shape.
    pub shape: Option<Shape>,
    /// Whether the graph is weighted.
    pub weighted: bool,
    /// Whether the fleet answers it from the response cache.
    pub hit_path: bool,
    /// `RequestParser::push` + `next_request`, µs.
    pub http_parse_us: f64,
    /// `wire::parse_request` + `wire::response_key`, µs (includes
    /// `graph_load_us`).
    pub wire_parse_us: f64,
    /// Building the instance + fingerprinting it, µs.
    pub graph_load_us: f64,
    /// `ResponseCache::get` on the path's outcome (hit or miss), µs.
    pub cache_get_us: f64,
    /// Rendering on the path: body + HTTP framing on a miss, HTTP
    /// framing of the cached body on a hit, µs.
    pub render_us: f64,
    /// HTTP framing of the cached body (the hit-path render), µs.
    pub render_hit_us: f64,
    /// Offline SDP on the path, ms (0 when none runs).
    pub sdp_ms: f64,
    /// Sampling (solve self time minus its SDP), ms (0 on a hit).
    pub sampling_ms: f64,
    /// Samples drawn.
    pub samples: u64,
    /// Gradient iterations and whether the SDP hit its cap, when one
    /// runs on the path.
    pub sdp: Option<(usize, bool)>,
    /// A warm hit straight to the owning backend, µs.
    pub direct_us: f64,
    /// The same warm hit through the router, µs.
    pub routed_us: f64,
}

impl Replay {
    /// `backend.direct_us` minus the layers timed inside it.
    pub fn reactor_residual_us(&self) -> f64 {
        self.direct_us
            - (self.http_parse_us + self.wire_parse_us + self.cache_get_us + self.render_hit_us)
    }

    /// Routed minus direct.
    pub fn hop_us(&self) -> f64 {
        self.routed_us - self.direct_us
    }

    /// The sum of the layers' self times on this request's path, ms,
    /// given the mean worker-queue wait of the workload.
    pub fn layer_sum_ms(&self, queue_wait_ms: f64) -> f64 {
        let front_us = self.hop_us()
            + self.http_parse_us
            + self.wire_parse_us
            + self.cache_get_us
            + self.reactor_residual_us();
        if self.hit_path {
            (front_us + self.render_us) / 1e3
        } else {
            (front_us + self.render_us) / 1e3 + queue_wait_ms + self.sdp_ms + self.sampling_ms
        }
    }
}

/// The in-process SdpCache in the state the fleet's is in for
/// `cold-sampling`: primed with the set-up SDPs.
pub fn primed_sdp_cache(seed: u64, defaults: &RequestDefaults) -> SdpCache {
    let cache = SdpCache::new(128);
    for request in primed_requests(seed) {
        if let Ok(WireWorkload::MaxCut(job)) =
            wire::parse_request(request.body.as_bytes(), defaults)
        {
            cache
                .get_or_solve(
                    &job.graph,
                    SplitMix64::derive(job.spec.seed, 1),
                    job.spec.sdp_rank,
                )
                .expect("primed SDP solves");
        }
    }
    cache
}

fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Builds the request's instance the way the wire parser does, plus
/// its fingerprint.
fn load_graph(source: &Source) {
    match source {
        Source::Named(name) => {
            let graph = EmpiricalDataset::all()
                .into_iter()
                .find(|d| d.name() == *name)
                .expect("known dataset")
                .load()
                .expect("dataset loads");
            black_box(fingerprint_graph(&graph));
        }
        Source::Gnp { n, p, seed } => {
            black_box(fingerprint_graph(&gnp(*n, *p, *seed).expect("valid gnp")));
        }
        Source::Edges(edges) => {
            let pairs: Vec<(u64, u64)> = edges
                .iter()
                .map(|&(u, v)| (u64::from(u), u64::from(v)))
                .collect();
            black_box(fingerprint_graph(
                &edgelist::from_pairs(&pairs, None).expect("valid edges"),
            ));
        }
        Source::Weighted(edges) => {
            let n = edges
                .iter()
                .map(|&(u, v, _)| u.max(v) as usize + 1)
                .max()
                .unwrap_or(0);
            black_box(fingerprint_weighted(
                &WeightedGraph::from_weighted_edges(n, edges).expect("valid weighted edges"),
            ));
        }
    }
}

/// Times the in-process layers of one request on its path: the hit
/// path when `cached` holds the body the fleet's response cache serves,
/// the miss path otherwise. `sdp_cache` mirrors the fleet's SdpCache
/// state; without one, the SDP runs on an empty cache.
pub fn replay_in_process(
    request: &Request,
    cached: Option<&str>,
    defaults: &RequestDefaults,
    max_body: usize,
    response_cache: &ResponseCache,
    sdp_cache: Option<&SdpCache>,
) -> Replay {
    let bytes = request.http_bytes();
    let body = request.body.as_bytes();
    let workload = wire::parse_request(body, defaults).expect("generated requests parse");
    let key = wire::response_key(&workload);

    let mut trace = Trace::default();
    let mut http = Vec::with_capacity(CHEAP_REPS);
    let mut parse = Vec::with_capacity(CHEAP_REPS);
    let mut load = Vec::with_capacity(CHEAP_REPS);
    for _ in 0..CHEAP_REPS {
        let (_, h) = trace.time("http.parse", None, || {
            let mut parser = RequestParser::new(max_body);
            parser.push(&bytes);
            black_box(
                parser
                    .next_request()
                    .expect("well-formed")
                    .expect("complete"),
            );
        });
        let (_, w) = trace.time("wire.parse", None, || {
            let parsed = wire::parse_request(body, defaults).expect("generated requests parse");
            black_box(wire::response_key(&parsed));
        });
        // The instance build is timed in its own call and recorded as the
        // child it is of the parse, placed at the parse's start.
        let started = trace.now();
        load_graph(&request.source);
        let took = trace.now() - started;
        let parse_start = trace.spans()[w].start;
        trace.record("graph.load", parse_start, parse_start + took, Some(w));
        http.push(trace.self_ns(h) as f64 / 1e3);
        parse.push((trace.spans()[w].end - parse_start) as f64 / 1e3);
        load.push(took as f64 / 1e3);
    }

    let mut replay = Replay {
        family: request.family,
        shape: Some(request.source.shape()),
        weighted: request.source.is_weighted(),
        hit_path: cached.is_some(),
        http_parse_us: median(&http),
        wire_parse_us: median(&parse),
        graph_load_us: median(&load),
        ..Replay::default()
    };

    let Some(cached) = cached else {
        return replay_miss(replay, trace, &workload, key, response_cache, sdp_cache);
    };
    response_cache.insert(key.clone(), cached.to_string());
    replay.cache_get_us = median_us(CHEAP_REPS, || {
        black_box(response_cache.get(&key).expect("just inserted"));
    });
    replay.render_hit_us = median_us(CHEAP_REPS, || {
        black_box(render_response(200, &extras(), cached.as_bytes(), true));
    });
    replay.render_us = replay.render_hit_us;
    replay
}

/// The miss path after the parse: cache miss, one solve with the SDP
/// as its child span, and the body render.
fn replay_miss(
    mut replay: Replay,
    mut trace: Trace,
    workload: &WireWorkload,
    key: ResponseKey,
    response_cache: &ResponseCache,
    sdp_cache: Option<&SdpCache>,
) -> Replay {
    replay.cache_get_us = median_us(CHEAP_REPS, || {
        black_box(response_cache.get(&key));
    });
    let (tree, solve_span) = match workload {
        WireWorkload::MaxCut(job) => {
            let fresh = SdpCache::new(128);
            let cache = sdp_cache.unwrap_or(&fresh);
            let (outcome, span) = trace.time("solve", None, || {
                snc_maxcut::solve_with_cache(&job.graph, &job.spec, Some(cache))
                    .expect("generated requests solve")
            });
            record_sdp_child(&mut trace, span, outcome.stages.sdp_us);
            replay.samples = outcome.samples;
            if outcome.stages.sdp_us.is_some() {
                let cfg = SdpConfig {
                    rank: job.spec.sdp_rank,
                    seed: SplitMix64::derive(job.spec.seed, 1),
                    ..SdpConfig::default()
                };
                let edges: Vec<(u32, u32)> = job.graph.edges().collect();
                let sol = solve_maxcut_sdp(job.graph.n(), &edges, &cfg).expect("SDP runs");
                let capped = sol.iterations >= cfg.max_iters * cfg.restarts.max(1)
                    && sol.grad_norm > cfg.grad_tol * (1.0 + sol.energy.abs());
                replay.sdp = Some((sol.iterations, capped));
            }
            (wire::solve_response(job, &outcome), span)
        }
        WireWorkload::WeightedMaxCut(job) => {
            let (outcome, span) = trace.time("solve", None, || {
                snc_maxcut::solve_weighted(&job.graph, &job.spec).expect("generated requests solve")
            });
            record_sdp_child(&mut trace, span, outcome.stages.sdp_us);
            replay.samples = outcome.samples;
            (wire::weighted_solve_response(job, &outcome), span)
        }
        _ => unreachable!("the benchmark only generates graph requests"),
    };
    replay.sdp_ms = trace.self_ns_named("sdp") as f64 / 1e6;
    replay.sampling_ms = trace.self_ns(solve_span) as f64 / 1e6;
    let rendered = tree.render();
    replay.render_hit_us = median_us(CHEAP_REPS, || {
        black_box(render_response(200, &extras(), rendered.as_bytes(), true));
    });
    replay.render_us = median_us(CHEAP_REPS, || {
        let rendered = tree.render();
        black_box(render_response(200, &extras(), rendered.as_bytes(), true));
    });
    response_cache.insert(key, rendered);
    replay
}

/// Places the solver's own SDP stage time (the stage runs first inside
/// the solve) as a child of the solve span.
fn record_sdp_child(trace: &mut Trace, solve: usize, sdp_us: Option<u64>) {
    if let Some(us) = sdp_us {
        let start = trace.spans()[solve].start;
        trace.record("sdp", start, start + us * 1_000, Some(solve));
    }
}

/// Times the warm network legs of a request: straight to its owner,
/// then through the router. The first direct call re-warms an entry the
/// cache may have evicted.
pub fn replay_network(
    fleet: &Fleet,
    direct: &mut [Conn],
    routed: &mut Conn,
    request: &Request,
    defaults: &RequestDefaults,
) -> Result<(f64, f64), String> {
    let workload = wire::parse_request(request.body.as_bytes(), defaults).map_err(|e| e.0)?;
    let owner = fleet.owner(wire::response_key(&workload).payload_fold());
    let bytes = request.http_bytes();
    let time = |conn: &mut Conn| -> Result<f64, String> {
        let mut samples = Vec::with_capacity(NET_REPS);
        for _ in 0..NET_REPS {
            let started = Instant::now();
            let response = conn.roundtrip(&bytes).map_err(|e| e.to_string())?;
            if response.status != 200 {
                return Err(format!("warm replay answered {}", response.status));
            }
            samples.push(started.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&samples))
    };
    direct[owner].roundtrip(&bytes).map_err(|e| e.to_string())?;
    let direct_us = time(&mut direct[owner])?;
    let routed_us = time(routed)?;
    Ok((direct_us, routed_us))
}

/// The worker-queue wait of one cold request sent straight to its
/// owning backend while the workload's load runs: the backend's
/// `x-snc-elapsed-us` minus the in-process parse + solve + render of the
/// same request, ms.
pub fn queue_wait_ms(
    elapsed_us: u64,
    request: &Request,
    defaults: &RequestDefaults,
    max_body: usize,
    sdp_cache: Option<&SdpCache>,
) -> f64 {
    let started = Instant::now();
    let mut parser = RequestParser::new(max_body);
    parser.push(&request.http_bytes());
    black_box(parser.next_request().expect("well-formed"));
    let rendered = crate::check::solve_in_process(request, defaults, sdp_cache)
        .expect("generated requests solve");
    black_box(render_response(200, &extras(), rendered.as_bytes(), true));
    let inproc_us = started.elapsed().as_secs_f64() * 1e6;
    (elapsed_us as f64 - inproc_us) / 1e3
}

/// Per-layer metrics over a replayed sample: `(name, value, unit)`.
pub fn summarize(replays: &[Replay], queue_wait_ms: f64) -> Vec<(&'static str, f64, &'static str)> {
    let over = |f: &dyn Fn(&Replay) -> f64, keep: &dyn Fn(&Replay) -> bool| -> f64 {
        let values: Vec<f64> = replays.iter().filter(|r| keep(r)).map(f).collect();
        mean(&values)
    };
    let shape = |s: Shape| move |r: &Replay| r.shape == Some(s);
    let sampled =
        |family: &'static str| move |r: &Replay| !r.hit_path && !r.weighted && r.family == family;
    let solved: Vec<(usize, bool)> = replays.iter().filter_map(|r| r.sdp).collect();
    let sampling_s: f64 = replays.iter().map(|r| r.sampling_ms / 1e3).sum();
    let samples: u64 = replays
        .iter()
        .filter(|r| !r.hit_path)
        .map(|r| r.samples)
        .sum();
    let all = |_: &Replay| true;
    vec![
        ("router.hop_us", over(&Replay::hop_us, &all), "us"),
        ("http.parse_us", over(&|r| r.http_parse_us, &all), "us"),
        (
            "wire.parse_us.named",
            over(&|r| r.wire_parse_us, &shape(Shape::Named)),
            "us",
        ),
        (
            "wire.parse_us.generated",
            over(&|r| r.wire_parse_us, &shape(Shape::Generated)),
            "us",
        ),
        (
            "wire.parse_us.inline",
            over(&|r| r.wire_parse_us, &shape(Shape::Inline)),
            "us",
        ),
        ("graph.load_us", over(&|r| r.graph_load_us, &all), "us"),
        (
            "response_cache.get_us",
            over(&|r| r.cache_get_us, &all),
            "us",
        ),
        ("wire.render_us", over(&|r| r.render_us, &all), "us"),
        ("backend.direct_us", over(&|r| r.direct_us, &all), "us"),
        (
            "reactor.residual_us",
            over(&Replay::reactor_residual_us, &all),
            "us",
        ),
        ("queue.wait_ms", queue_wait_ms, "ms"),
        ("sdp.ms", over(&|r| r.sdp_ms, &all), "ms"),
        (
            "sdp.iterations",
            mean(&solved.iter().map(|s| s.0 as f64).collect::<Vec<_>>()),
            "count",
        ),
        (
            "sdp.capped_share",
            mean(
                &solved
                    .iter()
                    .map(|s| f64::from(u8::from(s.1)))
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
        (
            "sampling.ms.lif-gw",
            over(&|r| r.sampling_ms, &sampled("lif-gw")),
            "ms",
        ),
        (
            "sampling.ms.lif-trevisan",
            over(&|r| r.sampling_ms, &sampled("lif-trevisan")),
            "ms",
        ),
        (
            "sampling.ms.lif-annealed",
            over(&|r| r.sampling_ms, &sampled("lif-annealed")),
            "ms",
        ),
        (
            "sampling.ms.hopfield",
            over(&|r| r.sampling_ms, &sampled("hopfield")),
            "ms",
        ),
        (
            "sampling.ms.weighted",
            over(&|r| r.sampling_ms, &|r| !r.hit_path && r.weighted),
            "ms",
        ),
        (
            "sampling.samples_per_s",
            if sampling_s > 0.0 {
                samples as f64 / sampling_s
            } else {
                0.0
            },
            "1/s",
        ),
        (
            "ladder.layer_sum_ms",
            over(&|r| r.layer_sum_ms(queue_wait_ms), &all),
            "ms",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_sum_of_a_hit_is_the_routed_time() {
        let hit = Replay {
            hit_path: true,
            http_parse_us: 3.0,
            wire_parse_us: 20.0,
            cache_get_us: 1.0,
            render_us: 2.0,
            render_hit_us: 2.0,
            direct_us: 50.0,
            routed_us: 80.0,
            ..Replay::default()
        };
        assert_eq!(hit.reactor_residual_us(), 24.0);
        assert_eq!(hit.hop_us(), 30.0);
        assert!((hit.layer_sum_ms(9.0) - 0.080).abs() < 1e-12);
        let miss = Replay {
            hit_path: false,
            render_us: 12.0,
            sdp_ms: 30.0,
            sampling_ms: 5.0,
            ..hit
        };
        // Front half (80 − 2 render_hit) + miss render + queue + SDP + sampling.
        assert!((miss.layer_sum_ms(1.5) - (0.078 + 0.012 + 1.5 + 30.0 + 5.0)).abs() < 1e-9);
    }
}
