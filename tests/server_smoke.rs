//! End-to-end smoke test of the `snc-server` serving layer, over real
//! TCP.
//!
//! Launches the server on an ephemeral port and drives it with a
//! hand-rolled `std::net::TcpStream` client (the curl-equivalent from
//! the README):
//!
//! * the same seeded solve request on N ≥ 4 **concurrent** connections
//!   must produce byte-identical response bodies (the determinism
//!   contract: timing lives in a header, never the body);
//! * the returned partition must be a valid cut achieving exactly the
//!   reported `best_cut`;
//! * async submit/poll must converge to the same result object;
//! * error paths answer 400/404, health answers 200;
//! * shutdown is graceful.

mod common;
use common::roundtrip;

fn start_server() -> snc_server::ServerHandle {
    common::start_server(|cfg| {
        cfg.threads = 3;
        cfg.replicas = 1;
        cfg.queue_depth = 32;
    })
}

const SOLVE_REQUEST: &str = r#"{"graph": "road-chesapeake", "circuit": "lif-gw", "budget": 128, "replicas": 4, "seed": 42}"#;

#[test]
fn concurrent_identical_requests_get_byte_identical_valid_responses() {
    let handle = start_server();
    let addr = handle.addr();

    // N = 6 concurrent connections, all sending the same seeded request.
    let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..6)
            .map(|_| scope.spawn(move || roundtrip(addr, "POST", "/solve", SOLVE_REQUEST)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (status, _) in &bodies {
        assert_eq!(*status, 200);
    }
    let reference = &bodies[0].1;
    for (i, (_, body)) in bodies.iter().enumerate() {
        assert_eq!(body, reference, "connection {i} diverged");
    }
    // Replaying the same request later must also reproduce it.
    let (status, replay) = roundtrip(addr, "POST", "/solve", SOLVE_REQUEST);
    assert_eq!(status, 200);
    assert_eq!(&replay, reference, "sequential replay diverged");

    // The partition is a valid cut matching the reported value.
    let doc = snc_experiments::json::parse(reference).expect("valid JSON body");
    let best_cut = doc.get("best_cut").unwrap().as_u64().unwrap();
    let graph = snc_graph::EmpiricalDataset::RoadChesapeake.load().unwrap();
    assert_eq!(doc.get("n").unwrap().as_usize(), Some(graph.n()));
    assert_eq!(doc.get("m").unwrap().as_usize(), Some(graph.m()));
    let sides: Vec<i8> = doc
        .get("partition")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|s| match s.as_u64() {
            Some(1) => 1,
            Some(0) => -1,
            other => panic!("partition entries must be 0/1, got {other:?}"),
        })
        .collect();
    assert_eq!(sides.len(), graph.n());
    let cut = snc_graph::CutAssignment::from_sides(sides);
    assert_eq!(cut.cut_value(&graph), best_cut, "partition must achieve best_cut");
    // … and best_cut is the final trace value on a grid ending at the
    // full budget (128 divisible by 4 replicas).
    let trace = doc.get("trace").unwrap();
    assert_eq!(trace.get("best").unwrap().as_array().unwrap().last().unwrap().as_u64(), Some(best_cut));
    assert_eq!(trace.get("checkpoints").unwrap().as_array().unwrap().last().unwrap().as_u64(), Some(128));
    assert_eq!(doc.get("samples").unwrap().as_u64(), Some(128));
    assert_eq!(doc.get("seed").unwrap().as_u64(), Some(42));

    handle.shutdown(); // graceful: must not hang or panic
}

#[test]
fn async_jobs_match_sync_results_and_errors_are_mapped() {
    let handle = start_server();
    let addr = handle.addr();
    let request = r#"{"graph": {"gnp": {"n": 20, "p": 0.5, "seed": 2}}, "circuit": "lif-trevisan", "budget": 32, "seed": 5}"#;

    let (status, sync_body) = roundtrip(addr, "POST", "/solve", request);
    assert_eq!(status, 200);
    let sync_doc = snc_experiments::json::parse(&sync_body).unwrap();

    let (status, submitted) = roundtrip(addr, "POST", "/jobs", request);
    assert_eq!(status, 202);
    let id = snc_experiments::json::parse(&submitted)
        .unwrap()
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();

    // Poll until the job finishes (workers are live, so this is quick).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let result = loop {
        let (status, poll) = roundtrip(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        let doc = snc_experiments::json::parse(&poll).unwrap();
        match doc.get("status").unwrap().as_str().unwrap() {
            "done" => break doc.get("result").unwrap().clone(),
            "failed" => panic!("job failed: {poll}"),
            _ => {
                assert!(std::time::Instant::now() < deadline, "job never finished");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    };
    // The async result is exactly the sync response object.
    assert_eq!(result, sync_doc);

    // Health, routing, and validation errors.
    let (status, health) = roundtrip(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""));
    let (status, _) = roundtrip(addr, "GET", "/no-such", "");
    assert_eq!(status, 404);
    let (status, _) = roundtrip(addr, "GET", "/solve", "");
    assert_eq!(status, 405);
    let (status, body) = roundtrip(addr, "POST", "/solve", "{\"budget\": 4}");
    assert_eq!(status, 400);
    assert!(body.contains("must name a workload"), "got {body}");
    let (status, _) = roundtrip(addr, "GET", "/jobs/99999", "");
    assert_eq!(status, 404);

    // Shutdown with an async job still in flight must drain gracefully
    // (the pool is joined on this thread — never torn down on a worker).
    let (status, _) = roundtrip(addr, "POST", "/jobs", request);
    assert_eq!(status, 202);
    handle.shutdown();
}

/// Polls `GET /jobs/{id}` until the record leaves `queued`/`running`
/// and returns the final poll body verbatim.
fn poll_until_finished(addr: std::net::SocketAddr, id: u64) -> String {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (status, poll) = roundtrip(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        let doc = snc_experiments::json::parse(&poll).unwrap();
        if matches!(doc.get("status").unwrap().as_str(), Some("done" | "failed")) {
            return poll;
        }
        assert!(std::time::Instant::now() < deadline, "job never finished");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// A finished job record embeds the `/solve` body byte for byte, both
/// for a job a worker computed and for a job born `done` from a
/// response-cache hit.
#[test]
fn job_records_embed_the_solve_body_byte_for_byte() {
    let handle = start_server();
    let addr = handle.addr();
    let submit = |request: &str| {
        let (status, submitted) = roundtrip(addr, "POST", "/jobs", request);
        assert_eq!(status, 202, "{submitted}");
        let doc = snc_experiments::json::parse(&submitted).unwrap();
        let id = doc.get("id").unwrap().as_u64().unwrap();
        (id, doc.get("status").unwrap().as_str().unwrap().to_string())
    };
    let expected = |id: u64, body: &str| format!(r#"{{"id":{id},"status":"done","result":{body}}}"#);

    // Computed on a worker: submitted cold, then solved (a cache hit on
    // the body the job inserted).
    let worker = r#"{"graph": "road-chesapeake", "circuit": "lif-gw", "budget": 32, "replicas": 2, "seed": 71}"#;
    let (id, status) = submit(worker);
    assert_eq!(status, "queued");
    let record = poll_until_finished(addr, id);
    let (status, body) = roundtrip(addr, "POST", "/solve", worker);
    assert_eq!(status, 200);
    assert_eq!(record, expected(id, &body), "worker-computed job record");

    // Born `done` from a response-cache hit: solved first, then submitted.
    let hit = r#"{"graph": {"weighted_edges": [[0,1,2.5],[1,2,0.25],[2,0,1.0]]}, "circuit": "lif-annealed", "budget": 16, "seed": 72}"#;
    let (status, body) = roundtrip(addr, "POST", "/solve", hit);
    assert_eq!(status, 200);
    let (id, status) = submit(hit);
    assert_eq!(status, "done", "a response-cache hit finishes the job at submit");
    let (status, record) = roundtrip(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    assert_eq!(record, expected(id, &body), "cache-hit job record");
    handle.shutdown();
}

/// The acceptance criterion for the new families: a seeded request per
/// family over real TCP, answered byte-identically across ≥ 4
/// concurrent connections and on sequential replay.
#[test]
fn new_families_answer_byte_identically_under_concurrency() {
    let handle = start_server();
    let addr = handle.addr();
    let requests = [
        r#"{"graph": "road-chesapeake", "circuit": "lif-annealed",
            "schedule": {"kind": "geometric", "start": 1.0, "end": 0.05},
            "budget": 64, "replicas": 4, "seed": 42}"#,
        r#"{"graph": "road-chesapeake", "circuit": "hopfield",
            "steps": 8, "budget": 64, "replicas": 4, "seed": 42}"#,
    ];
    for request in requests {
        let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || roundtrip(addr, "POST", "/solve", request)))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (status, _) in &bodies {
            assert_eq!(*status, 200);
        }
        let reference = &bodies[0].1;
        for (i, (_, body)) in bodies.iter().enumerate() {
            assert_eq!(body, reference, "connection {i} diverged");
        }
        let (status, replay) = roundtrip(addr, "POST", "/solve", request);
        assert_eq!(status, 200);
        assert_eq!(&replay, reference, "sequential replay diverged");

        // The body is a valid cut of the named dataset.
        let doc = snc_experiments::json::parse(reference).unwrap();
        let best_cut = doc.get("best_cut").unwrap().as_u64().unwrap();
        let graph = snc_graph::EmpiricalDataset::RoadChesapeake.load().unwrap();
        let sides: Vec<i8> = doc
            .get("partition")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| if s.as_u64() == Some(1) { 1 } else { -1 })
            .collect();
        let cut = snc_graph::CutAssignment::from_sides(sides);
        assert_eq!(cut.cut_value(&graph), best_cut, "partition must achieve best_cut");
    }
    handle.shutdown();
}

/// The new workloads round-trip over the wire: weighted graphs,
/// MAX2SAT, MAXDICUT — sync equals async, replay is byte-exact, and
/// the reported values are internally consistent.
#[test]
fn new_workloads_round_trip_sync_async_and_replay() {
    let handle = start_server();
    let addr = handle.addr();
    let requests = [
        r#"{"graph": {"weighted_edges": [[0,1,2.0],[1,2,0.5],[2,3,1.25],[3,0,3.0]]},
            "circuit": "lif-gw", "budget": 32, "seed": 9}"#,
        r#"{"max2sat": {"vars": 4, "clauses": [[1,-2],[2,3],[-3,4],[-1]],
            "weights": [1.0, 2.0, 1.5, 0.5]}, "budget": 16, "seed": 9}"#,
        r#"{"maxdicut": {"n": 5, "arcs": [[0,1],[1,2],[2,3],[3,4],[4,0]]}, "budget": 16, "seed": 9}"#,
    ];
    for request in requests {
        let (status, sync_body) = roundtrip(addr, "POST", "/solve", request);
        assert_eq!(status, 200, "{request}: {sync_body}");
        let sync_doc = snc_experiments::json::parse(&sync_body).unwrap();

        // Async submit/poll converges to exactly the sync object.
        let (status, submitted) = roundtrip(addr, "POST", "/jobs", request);
        assert_eq!(status, 202);
        let id = snc_experiments::json::parse(&submitted)
            .unwrap()
            .get("id")
            .unwrap()
            .as_u64()
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let result = loop {
            let (status, poll) = roundtrip(addr, "GET", &format!("/jobs/{id}"), "");
            assert_eq!(status, 200);
            let doc = snc_experiments::json::parse(&poll).unwrap();
            match doc.get("status").unwrap().as_str().unwrap() {
                "done" => break doc.get("result").unwrap().clone(),
                "failed" => panic!("job failed: {poll}"),
                _ => {
                    assert!(std::time::Instant::now() < deadline, "job never finished");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
        };
        assert_eq!(result, sync_doc, "{request}");

        // Replay is byte-exact.
        let (status, replay) = roundtrip(addr, "POST", "/solve", request);
        assert_eq!(status, 200);
        assert_eq!(replay, sync_body, "{request}");
    }
    handle.shutdown();
}

/// Unknown or misplaced knobs are rejected with 400 at every nesting
/// level of the new wire surface, over real TCP.
#[test]
fn new_wire_knobs_reject_with_400_at_every_nesting_level() {
    let handle = start_server();
    let addr = handle.addr();
    let cases: &[(&str, &str)] = &[
        // Top level: knob on the wrong family.
        (
            r#"{"graph": "road-chesapeake", "budget": 8,
                "schedule": {"kind": "geometric", "start": 1.0, "end": 0.1}}"#,
            "`schedule` is only valid",
        ),
        (
            r#"{"graph": "road-chesapeake", "budget": 8, "steps": 4}"#,
            "`steps` is only valid",
        ),
        // Schedule object level.
        (
            r#"{"graph": "road-chesapeake", "budget": 8, "circuit": "lif-annealed",
                "schedule": {"kind": "geometric", "start": 1.0, "end": 0.1, "bogus": 1}}"#,
            "unknown key `bogus` in `schedule`",
        ),
        // Instance object level.
        (
            r#"{"max2sat": {"vars": 2, "clauses": [[1]], "bogus": 1}, "budget": 8}"#,
            "unknown key `bogus` in `max2sat`",
        ),
        (
            r#"{"maxdicut": {"n": 2, "arcs": [[0,1]], "bogus": 1}, "budget": 8}"#,
            "unknown key `bogus` in `maxdicut`",
        ),
        // Workload level: two workloads at once.
        (
            r#"{"graph": "road-chesapeake", "maxdicut": {"n": 2, "arcs": [[0,1]]}, "budget": 8}"#,
            "exactly one of",
        ),
        // Weighted-edge element level.
        (
            r#"{"graph": {"weighted_edges": [[0, 1, 1e13]]}, "budget": 8}"#,
            "magnitude limit",
        ),
    ];
    for (request, needle) in cases {
        let (status, body) = roundtrip(addr, "POST", "/solve", request);
        assert_eq!(status, 400, "{request}: {body}");
        assert!(body.contains(needle), "expected {needle:?} in {body}");
    }
    handle.shutdown();
}
