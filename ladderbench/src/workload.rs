//! The seeded request generator for the three workloads.
//!
//! The fleet only ever sees the bodies built here. Request `index` of
//! stream `stream` is a pure function of `(workload, seed, stream,
//! index)`: each connection draws from its own stream, every cycle of a
//! stream visits each kind of the workload's mix exactly once in a
//! seeded order, and every cold request carries fresh seeds so both
//! server caches miss.

use snc_devices::{Rng64, SplitMix64};
use snc_graph::EmpiricalDataset;
use std::sync::Arc;

/// Budget and replica width of the SDP-bound requests (`cold-sdp`, and
/// the `warm-hit` corpus).
const SMALL_BUDGET: u64 = 64;
/// Replica width on every request.
const REPLICAS: u64 = 8;
/// Centre of the sampling-bound budgets (`cold-sampling`).
const SAMPLING_BUDGET: u64 = 1024;
/// Streams the budget offsets of `cold-sampling`'s LIF-GW requests are
/// spread over: two load connections, plus the queue-probe stream and
/// one background connection of the traced run.
pub const STREAMS: u64 = 4;
/// Distinct budgets available to `cold-sampling`'s LIF-GW requests per
/// graph before one would repeat (and hit the response cache): 1024
/// budgets over 4 streams last 256 cycles, or 2560 requests per stream,
/// more than a 50-s run and its 3-s lead-in send per connection even
/// at 90 requests/s (about 2400).
const BUDGET_SPAN: u64 = 1024;
/// Requests per stream the generator is checked to never repeat within.
#[cfg(test)]
const UNIQUE_PER_STREAM: u64 = 2560;
/// The generated graph size on the sampling and SDP workloads.
const GNP_N: usize = 100;
const GNP_P: f64 = 0.1;
/// The gnp instance `cold-sampling`'s LIF-GW requests reuse: fixed, so
/// the SDP primed during set-up is the one every request hits, and its
/// backend placement does not depend on the workload seed.
const PRIMED_GNP_SEED: u64 = 20_230_501;

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// LIF-GW / LIF-annealed with fresh seeds: every request solves an SDP.
    ColdSdp,
    /// b≈1024 requests that miss the response cache but run no SDP.
    ColdSampling,
    /// A fixed corpus served from the response cache.
    WarmHit,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::ColdSdp, Workload::ColdSampling, Workload::WarmHit];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSdp => "cold-sdp",
            Workload::ColdSampling => "cold-sampling",
            Workload::WarmHit => "warm-hit",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of request kinds in one cycle of the mix.
    pub fn kinds(self) -> usize {
        match self {
            Workload::ColdSdp => 9,
            Workload::ColdSampling => 10,
            Workload::WarmHit => CORPUS_SIZE,
        }
    }
}

/// Where a request's graph comes from (also how the benchmark rebuilds
/// it to check answers).
#[derive(Clone, Debug, PartialEq)]
pub enum Source {
    /// A Figure-4 dataset by name.
    Named(&'static str),
    /// The wire's seeded Erdős–Rényi generator.
    Gnp { n: usize, p: f64, seed: u64 },
    /// An inline unweighted edge list.
    Edges(Arc<Vec<(u32, u32)>>),
    /// An inline weighted edge list.
    Weighted(Arc<Vec<(u32, u32, f64)>>),
}

/// The three body shapes the wire parser distinguishes by cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A dataset name (~90-byte body).
    Named,
    /// A `gnp` generator spec.
    Generated,
    /// Inline `edges` / `weighted_edges`.
    Inline,
}

impl Source {
    /// The body shape this source produces.
    pub fn shape(&self) -> Shape {
        match self {
            Source::Named(_) => Shape::Named,
            Source::Gnp { .. } => Shape::Generated,
            Source::Edges(_) | Source::Weighted(_) => Shape::Inline,
        }
    }

    /// Whether the request goes through the weighted solve path.
    pub fn is_weighted(&self) -> bool {
        matches!(self, Source::Weighted(_))
    }

    /// A short description for reports (generated instances by shape,
    /// not by seed).
    pub fn label(&self) -> String {
        match self {
            Source::Named(name) => (*name).to_string(),
            Source::Gnp { n, p, .. } => format!("gnp({n}, {p})"),
            Source::Edges(edges) => format!("inline edges (m={})", edges.len()),
            Source::Weighted(edges) => format!("inline weighted_edges (m={})", edges.len()),
        }
    }

    fn json(&self) -> String {
        match self {
            Source::Named(name) => format!("\"{name}\""),
            Source::Gnp { n, p, seed } => {
                format!("{{\"gnp\": {{\"n\": {n}, \"p\": {p}, \"seed\": {seed}}}}}")
            }
            Source::Edges(edges) => {
                let items: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
                format!("{{\"edges\": [{}]}}", items.join(","))
            }
            Source::Weighted(edges) => {
                let items: Vec<String> = edges
                    .iter()
                    .map(|(u, v, w)| format!("[{u},{v},{w}]"))
                    .collect();
                format!("{{\"weighted_edges\": [{}]}}", items.join(","))
            }
        }
    }
}

/// One generated solve request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Circuit family wire name.
    pub family: &'static str,
    /// The graph.
    pub source: Source,
    /// Master seed.
    pub seed: u64,
    /// The exact JSON body sent.
    pub body: String,
}

impl Request {
    fn new(family: &'static str, source: Source, budget: u64, seed: u64) -> Request {
        let body = format!(
            "{{\"graph\": {}, \"circuit\": \"{family}\", \"budget\": {budget}, \"replicas\": {REPLICAS}, \"seed\": {seed}}}",
            source.json()
        );
        Request {
            family,
            source,
            seed,
            body,
        }
    }

    /// The exact HTTP/1.1 request bytes the client writes.
    pub fn http_bytes(&self) -> Vec<u8> {
        format!(
            "POST /solve HTTP/1.1\r\nHost: snc\r\nContent-Length: {}\r\n\r\n{}",
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// A seed for an integer JSON field: kept below 2^48 so it reads the
/// same in any JSON tool.
fn wire_seed(raw: u64) -> u64 {
    raw >> 16
}

/// Position `index` of stream `stream`: which kind of the mix it is,
/// and which cycle of the stream it falls in.
fn kind_at(workload: Workload, seed: u64, stream: u64, index: u64) -> (usize, u64) {
    let kinds = workload.kinds();
    let cycle = index / kinds as u64;
    let mut order: Vec<usize> = (0..kinds).collect();
    let mut rng = SplitMix64::new(SplitMix64::derive(SplitMix64::derive(seed, stream), cycle));
    for i in (1..kinds).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    (order[(index % kinds as u64) as usize], cycle)
}

/// A random weighted graph with weights in multiples of 1/4 (so every
/// cut sums exactly in floating point).
fn weighted_graph(n: u32, p: f64, seed: u64) -> Vec<(u32, u32, f64)> {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.next_f64() < p {
                edges.push((u, v, 0.25 * (1 + rng.next_below(8)) as f64));
            }
        }
    }
    edges
}

/// Request `index` of stream `stream` of a cold workload.
///
/// # Panics
///
/// Panics for [`Workload::WarmHit`], whose requests come from
/// [`warm_corpus`].
pub fn cold_request(workload: Workload, seed: u64, stream: u64, index: u64) -> Request {
    let (kind, cycle) = kind_at(workload, seed, stream, index);
    let fresh = SplitMix64::derive(SplitMix64::derive(seed ^ 0xC01D, stream), index);
    let master = wire_seed(fresh);
    let fresh_gnp = || Source::Gnp {
        n: GNP_N,
        p: GNP_P,
        seed: wire_seed(SplitMix64::derive(fresh, 1)),
    };
    let fresh_weighted = || {
        Source::Weighted(Arc::new(weighted_graph(
            60,
            0.15,
            SplitMix64::derive(fresh, 2),
        )))
    };
    match workload {
        Workload::ColdSdp => match kind {
            0..=5 => {
                let name = [
                    "road-chesapeake",
                    "soc-dolphins",
                    "eco-stmarks",
                    "ENZYMES8",
                    "email-enron-only",
                    "dwt-209",
                ][kind];
                Request::new("lif-gw", Source::Named(name), SMALL_BUDGET, master)
            }
            6 => Request::new("lif-gw", fresh_gnp(), SMALL_BUDGET, master),
            7 => Request::new(
                "lif-annealed",
                Source::Named("road-chesapeake"),
                SMALL_BUDGET,
                master,
            ),
            _ => Request::new("lif-annealed", fresh_gnp(), SMALL_BUDGET, master),
        },
        Workload::ColdSampling => {
            let family = if kind % 2 == 0 {
                "lif-trevisan"
            } else {
                "hopfield"
            };
            match kind {
                0 | 1 => Request::new(
                    family,
                    Source::Named("road-chesapeake"),
                    SAMPLING_BUDGET,
                    master,
                ),
                2 | 3 => Request::new(family, fresh_gnp(), SAMPLING_BUDGET, master),
                4 | 5 => Request::new(family, Source::Named("hamming6-2"), SAMPLING_BUDGET, master),
                6 | 7 => Request::new(family, fresh_weighted(), SAMPLING_BUDGET, master),
                _ => {
                    // Fixed master seed per graph (the SDP primed in set-up),
                    // so only the budget makes the request new.
                    let offset = (cycle * STREAMS + stream) % BUDGET_SPAN;
                    let budget = SAMPLING_BUDGET - BUDGET_SPAN / 2 + offset;
                    let primed = &primed_requests(seed)[kind - 8];
                    Request::new("lif-gw", primed.source.clone(), budget, primed.seed)
                }
            }
        }
        Workload::WarmHit => panic!("warm-hit requests come from warm_corpus"),
    }
}

/// The LIF-GW requests `cold-sampling` primes the SdpCache with during
/// set-up: same graphs and master seeds as its LIF-GW traffic, with a
/// budget outside the traffic's budget range.
pub fn primed_requests(seed: u64) -> Vec<Request> {
    let sources = [
        Source::Named("road-chesapeake"),
        Source::Gnp {
            n: GNP_N,
            p: GNP_P,
            seed: PRIMED_GNP_SEED,
        },
    ];
    sources
        .into_iter()
        .enumerate()
        .map(|(i, source)| {
            let master = wire_seed(SplitMix64::derive(seed ^ 0x5D9, i as u64));
            Request::new("lif-gw", source, SMALL_BUDGET, master)
        })
        .collect()
}

/// Size of the `warm-hit` corpus.
pub const CORPUS_SIZE: usize = 24;

/// The `warm-hit` corpus: 24 distinct requests over all four circuit
/// families and all three body shapes. The instances are fixed (so the
/// corpus lands on the same backends for every seed); the master seeds
/// come from the workload seed.
pub fn warm_corpus(seed: u64) -> Vec<Request> {
    const FAMILIES: [&str; 4] = ["lif-gw", "lif-trevisan", "lif-annealed", "hopfield"];
    let named = ["road-chesapeake", "soc-dolphins", "eco-stmarks", "ENZYMES8"];
    let edges_of = |name: &str| -> Source {
        let graph = EmpiricalDataset::all()
            .into_iter()
            .find(|d| d.name() == name)
            .expect("corpus names a known dataset")
            .load()
            .expect("bundled dataset loads");
        Source::Edges(Arc::new(graph.edges().collect()))
    };
    let mut sources: Vec<Source> = Vec::with_capacity(CORPUS_SIZE);
    for i in 0..8 {
        sources.push(Source::Named(named[i % 4]));
    }
    for i in 0..8u64 {
        sources.push(Source::Gnp {
            n: 40,
            p: 0.2,
            seed: 1 + i,
        });
    }
    sources.push(edges_of("dwt-209"));
    sources.push(edges_of("dwt-209"));
    sources.push(edges_of("road-chesapeake"));
    sources.push(edges_of("soc-dolphins"));
    for i in 0..4u64 {
        sources.push(Source::Weighted(Arc::new(weighted_graph(
            40,
            0.2,
            0xBEEF + i,
        ))));
    }
    sources
        .into_iter()
        .enumerate()
        .map(|(i, source)| {
            // Rotating the family by the block keeps every
            // (shape, family) pairing in the corpus.
            let family = FAMILIES[(i + i / 4) % 4];
            let master = wire_seed(SplitMix64::derive(seed ^ 0x3A7, i as u64));
            Request::new(family, source, SMALL_BUDGET, master)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bodies(workload: Workload, seed: u64, stream: u64, count: u64) -> Vec<String> {
        (0..count)
            .map(|i| cold_request(workload, seed, stream, i).body)
            .collect()
    }

    fn shape_mix(workload: Workload, seed: u64) -> Vec<(&'static str, Shape, bool)> {
        let mut mix: Vec<_> = (0..workload.kinds() as u64)
            .map(|i| {
                let r = cold_request(workload, seed, 0, i);
                (r.family, r.source.shape(), r.source.is_weighted())
            })
            .collect();
        mix.sort_by_key(|m| format!("{m:?}"));
        mix
    }

    #[test]
    fn same_seed_gives_identical_request_bytes() {
        for workload in [Workload::ColdSdp, Workload::ColdSampling] {
            for stream in 0..3 {
                assert_eq!(
                    stream_bodies(workload, 7, stream, 40),
                    stream_bodies(workload, 7, stream, 40)
                );
            }
            let a: Vec<Vec<u8>> = (0..20)
                .map(|i| cold_request(workload, 7, 0, i).http_bytes())
                .collect();
            let b: Vec<Vec<u8>> = (0..20)
                .map(|i| cold_request(workload, 7, 0, i).http_bytes())
                .collect();
            assert_eq!(a, b);
        }
        let corpus = |seed| {
            warm_corpus(seed)
                .into_iter()
                .map(|r| r.body)
                .collect::<Vec<_>>()
        };
        assert_eq!(corpus(7), corpus(7));
    }

    #[test]
    fn another_seed_changes_cold_seeds_but_not_the_shape_mix() {
        for workload in [Workload::ColdSdp, Workload::ColdSampling] {
            assert_eq!(shape_mix(workload, 1), shape_mix(workload, 2));
            let seeds = |seed| {
                (0..20)
                    .map(|i| cold_request(workload, seed, 0, i).seed)
                    .collect::<Vec<_>>()
            };
            let (a, b) = (seeds(1), seeds(2));
            assert!(
                a.iter().zip(&b).all(|(x, y)| x != y),
                "{workload:?}: {a:?} vs {b:?}"
            );
        }
        let a = warm_corpus(1);
        let b = warm_corpus(2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.family, &x.source), (y.family, &y.source));
            assert_ne!(x.seed, y.seed);
        }
    }

    #[test]
    fn every_cycle_visits_each_kind_once() {
        for workload in [Workload::ColdSdp, Workload::ColdSampling] {
            let kinds = workload.kinds() as u64;
            for cycle in 0..5 {
                let mut seen: Vec<usize> = (0..kinds)
                    .map(|i| kind_at(workload, 3, 1, cycle * kinds + i).0)
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..kinds as usize).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn cold_requests_never_repeat_within_a_run() {
        for workload in [Workload::ColdSdp, Workload::ColdSampling] {
            let mut bodies: Vec<String> = (0..STREAMS)
                .flat_map(|s| stream_bodies(workload, 11, s, UNIQUE_PER_STREAM))
                .collect();
            let total = bodies.len();
            bodies.sort();
            bodies.dedup();
            assert_eq!(bodies.len(), total, "{workload:?} repeated a request");
        }
    }

    #[test]
    fn corpus_covers_every_family_and_shape() {
        let corpus = warm_corpus(5);
        assert_eq!(corpus.len(), CORPUS_SIZE);
        for family in ["lif-gw", "lif-trevisan", "lif-annealed", "hopfield"] {
            for shape in [Shape::Named, Shape::Generated, Shape::Inline] {
                assert!(
                    corpus
                        .iter()
                        .any(|r| r.family == family && r.source.shape() == shape),
                    "missing {family} × {shape:?}"
                );
            }
        }
        let mut bodies: Vec<&str> = corpus.iter().map(|r| r.body.as_str()).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), CORPUS_SIZE, "corpus entries are distinct");
        let dwt = corpus.iter().map(|r| r.body.len()).max().unwrap();
        assert!(
            (6_000..9_000).contains(&dwt),
            "dwt-209 inline body is ~7 KB, got {dwt}"
        );
    }
}
