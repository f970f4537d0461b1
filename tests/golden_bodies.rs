//! Golden response bodies: every circuit family on every graph-source
//! form, at replica widths 1 and 8, rendered through the wire path
//! (`parse_request` → solve → render) and compared against digests
//! recorded once and pinned here.
//!
//! The other byte-identity suites compare new code against new code
//! (cold vs warm, in-process vs TCP, batched vs sequential). This one
//! compares against a fixed record, so a refactor of the solve path
//! that drifts by a single bit — a reordered float sum, a different
//! champion tie-break, a changed seed slot — fails here even when every
//! in-process equivalence still holds. It also pins each request's
//! routing key (`ResponseKey::payload_fold`), so router placement
//! cannot move either.
//!
//! When a change *deliberately* alters answer bytes, the failure
//! message prints the full replacement table.

use snc_maxcut::SdpCache;
use snc_server::wire::{self, SolveJob, WireGraph, Workload};
use snc_server::ServerConfig;

/// 64-bit FNV-1a over the rendered body.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The graph-source forms, as the request's `"graph"` value.
const GRAPHS: [(&str, &str); 5] = [
    ("dataset", r#""road-chesapeake""#),
    ("gnp", r#"{"gnp": {"n": 24, "p": 0.3, "seed": 5}}"#),
    (
        "edges",
        r#"{"edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0],[0,4],[1,5],[2,6],[3,7],[0,2],[5,7]], "n": 9}"#,
    ),
    // Non-dyadic weights, so the order of every float accumulation in
    // the cut tracker and the trace is part of what the digest pins.
    (
        "weighted",
        r#"{"weighted_edges": [[0,1,0.1],[1,2,0.7],[2,3,1.3],[3,4,0.2],[4,5,2.9],[5,6,0.3],[6,7,1.1],[7,8,0.6],[8,9,1.7],[9,0,0.4],[0,5,0.9],[2,7,1.9],[3,8,0.15],[1,6,2.3],[4,9,0.55]]}"#,
    ),
    (
        "signed",
        r#"{"weighted_edges": [[0,1,1.5],[1,2,-0.7],[2,3,2.25],[3,4,0.3],[4,5,-1.1],[5,0,2.0],[0,3,-0.45],[1,4,1.2],[2,5,0.8],[5,6,1.0],[6,1,-0.2]]}"#,
    ),
];

const FAMILIES: [&str; 4] = ["lif-gw", "lif-trevisan", "lif-annealed", "hopfield"];

/// `(request label, payload fold, body digest)` recorded before the
/// weighted and unweighted solve paths were merged. The signed-weight
/// LIF-Trevisan requests are 400s; their error bodies are pinned too.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("dataset/lif-gw/r1", 0xd14a995ef24d28bf, 0x8c48875485f4d5fc),
    ("dataset/lif-gw/r8", 0xd14a995ef24d28bf, 0x24bb0098326d7cce),
    ("dataset/lif-trevisan/r1", 0xd14a995ef24d28bf, 0xe18d7c94ffa08e5e),
    ("dataset/lif-trevisan/r8", 0xd14a995ef24d28bf, 0x852a3eeeceee7cd0),
    ("dataset/lif-annealed/r1", 0xd14a995ef24d28bf, 0x32da45b7a5f25a07),
    ("dataset/lif-annealed/r8", 0xd14a995ef24d28bf, 0x094171d0a13161f5),
    ("dataset/hopfield/r1", 0xd14a995ef24d28bf, 0xb9bf7f5de52c268a),
    ("dataset/hopfield/r8", 0xd14a995ef24d28bf, 0xba8ef30a25219258),
    ("gnp/lif-gw/r1", 0x50532f4b634072e7, 0x1c8529975b414cd0),
    ("gnp/lif-gw/r8", 0x50532f4b634072e7, 0xe013d45d3a4e509b),
    ("gnp/lif-trevisan/r1", 0x50532f4b634072e7, 0x658ebf0ea1b0b829),
    ("gnp/lif-trevisan/r8", 0x50532f4b634072e7, 0x709fbb20ac820d33),
    ("gnp/lif-annealed/r1", 0x50532f4b634072e7, 0x8744f0606168cca1),
    ("gnp/lif-annealed/r8", 0x50532f4b634072e7, 0x85665ee82832f979),
    ("gnp/hopfield/r1", 0x50532f4b634072e7, 0x03eaea44f83e4e6b),
    ("gnp/hopfield/r8", 0x50532f4b634072e7, 0xda82502f986c1f80),
    ("edges/lif-gw/r1", 0x96f366243be085d7, 0x47bf5e44472d7847),
    ("edges/lif-gw/r8", 0x96f366243be085d7, 0x8b43f26db4775b7d),
    ("edges/lif-trevisan/r1", 0x96f366243be085d7, 0xcaf1b6698c628c8d),
    ("edges/lif-trevisan/r8", 0x96f366243be085d7, 0x1b69cf955c35ac2a),
    ("edges/lif-annealed/r1", 0x96f366243be085d7, 0xb7d5b31dbff4f2c5),
    ("edges/lif-annealed/r8", 0x96f366243be085d7, 0x37078e21b1bb06ea),
    ("edges/hopfield/r1", 0x96f366243be085d7, 0x7c431be559c55c93),
    ("edges/hopfield/r8", 0x96f366243be085d7, 0x2566adbab1fefd33),
    ("weighted/lif-gw/r1", 0xbffe23ae118fd57f, 0x3061f2917e6e4014),
    ("weighted/lif-gw/r8", 0xbffe23ae118fd57f, 0x888622c01d626b55),
    ("weighted/lif-trevisan/r1", 0xbffe23ae118fd57f, 0xa0a0f3e5a75a11d1),
    ("weighted/lif-trevisan/r8", 0xbffe23ae118fd57f, 0xae0f124cd11cfec7),
    ("weighted/lif-annealed/r1", 0xbffe23ae118fd57f, 0xa0a948cd1ae1e5e4),
    ("weighted/lif-annealed/r8", 0xbffe23ae118fd57f, 0x73e0d7d85d3281a5),
    ("weighted/hopfield/r1", 0xbffe23ae118fd57f, 0x9b6b0c7c800a8339),
    ("weighted/hopfield/r8", 0xbffe23ae118fd57f, 0x85d3db688e5e359e),
    ("signed/lif-gw/r1", 0x998e18980458a4b4, 0xbe86e824d0584e67),
    ("signed/lif-gw/r8", 0x998e18980458a4b4, 0xb0c4988370ac8730),
    ("signed/lif-trevisan/r1", 0x0000000000000000, 0xbb1ab2a0d8900c8e),
    ("signed/lif-trevisan/r8", 0x0000000000000000, 0xbb1ab2a0d8900c8e),
    ("signed/lif-annealed/r1", 0x998e18980458a4b4, 0x7946c512da6c7cc5),
    ("signed/lif-annealed/r8", 0x998e18980458a4b4, 0x255cd5078011e796),
    ("signed/hopfield/r1", 0x998e18980458a4b4, 0xfe4313f92622cdf0),
    ("signed/hopfield/r8", 0x998e18980458a4b4, 0x1b67e77e73b1312c),
];

/// Parses, solves and renders one request body the way a worker does
/// (the unweighted LIF-GW path consults an `SdpCache`, which never
/// changes bytes). A rejected request renders as its error body.
fn serve(body: &str, cache: &SdpCache) -> (u64, String) {
    let defaults = ServerConfig::default().request_defaults();
    let workload = match wire::parse_request(body.as_bytes(), &defaults) {
        Ok(workload) => workload,
        Err(e) => return (0, wire::error_body(&e.0)),
    };
    let fold = wire::response_key(&workload).payload_fold();
    let rendered = match &workload {
        Workload::MaxCut(job) => render(job, cache),
        Workload::WeightedMaxCut(job) => render(job, cache),
        other => panic!("corpus holds MAXCUT requests only, got {other:?}"),
    };
    (fold, rendered)
}

fn render<G: WireGraph>(job: &SolveJob<G>, cache: &SdpCache) -> String {
    match snc_maxcut::solve_with_cache(&job.graph, &job.spec, Some(cache)) {
        Ok(outcome) => wire::solve_response(job, &outcome).render(),
        Err(e) => wire::error_body(&e.to_string()),
    }
}

#[test]
fn every_family_and_graph_source_renders_its_recorded_body() {
    let cache = SdpCache::new(64);
    let mut actual = Vec::new();
    for (source, graph) in GRAPHS {
        for family in FAMILIES {
            for replicas in [1, 8] {
                let body = format!(
                    r#"{{"graph": {graph}, "circuit": "{family}", "budget": 2048, "replicas": {replicas}, "seed": 4242}}"#
                );
                let (fold, rendered) = serve(&body, &cache);
                let label = format!("{source}/{family}/r{replicas}");
                actual.push((label, fold, fnv1a(rendered.as_bytes())));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(label, fold, digest)| format!("    ({label:?}, {fold:#018x}, {digest:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(label, fold, digest)| (label.to_string(), fold, digest))
        .collect();
    assert!(
        actual == expected,
        "response bodies or routing keys drifted from the record; \
         if the change is deliberate, replace GOLDEN with:\n{table}"
    );
}
