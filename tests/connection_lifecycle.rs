//! Connection-lifecycle conformance suite for the readiness-driven
//! serving core (`snc-server/src/event.rs`) both tiers run on, over
//! real TCP.
//!
//! What the reactor must survive, per test:
//!
//! * **slowloris** — a client trickling header bytes at 1 B / 50 ms is
//!   reaped by the idle deadline (received bytes do not extend it),
//!   while concurrent fast clients keep round-tripping unharmed;
//! * **pipelining** — back-to-back requests on one connection answer
//!   strictly in order, byte-identical (modulo the timing header) to
//!   the same requests issued sequentially;
//! * **connection budget** — beyond `max_connections`, new accepts get
//!   a fast clean 503-and-close while in-flight solves on admitted
//!   connections finish, and `/healthz` reports the
//!   `connections{active,reaped,shed}` gauges exactly;
//! * **partial writes** — with the server's socket send buffer shrunk
//!   to the kernel floor, a large multi-replica trace body reaches a
//!   slow reader complete and byte-identical to the reference;
//! * **shutdown latency** — `shutdown()` with idle keep-alive clients
//!   connected completes in under 100 ms (the wakeup pipe replaced the
//!   old 50 ms polling sleeps);
//! * **mid-request disconnect** — a peer vanishing mid-header or
//!   mid-body frees the connection slot;
//! * **backend parity** — the same lifecycle holds on the portable
//!   `poll` backend, not just epoll;
//! * **router parity** — `snc-router` runs the same reactor, so an
//!   in-process router in front of an in-process backend passes the
//!   knob-free cases too: pipelining, prompt shutdown, and slots freed
//!   by mid-request disconnects (read off the router's `/metrics`);
//! * **unsafe confinement** — the `unsafe` token appears nowhere in the
//!   workspace's Rust sources outside `snc-server/src/sys/`.
//!
//! Timing-sensitive tests serialize on a module-wide mutex so they
//! cannot skew each other's deadlines under `cargo test`'s parallelism
//! (CI runs this suite as its own named step).

mod common;

use snc_router::{serve_router, BackendSpec, RouterConfig, RouterHandle};
use snc_server::sys::Backend;
use snc_server::ServerHandle;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the deadline-sensitive tests within this binary.
static TIMING: Mutex<()> = Mutex::new(());

fn timing_guard() -> std::sync::MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const SOLVE_SEED_42: &str = r#"{"graph": "road-chesapeake", "circuit": "lif-gw", "budget": 128, "replicas": 4, "seed": 42}"#;
const SOLVE_SEED_43: &str = r#"{"graph": "road-chesapeake", "circuit": "lif-gw", "budget": 128, "replicas": 4, "seed": 43}"#;

/// A keep-alive HTTP/1.1 client that can pipeline: framing is parsed
/// from `Content-Length`, so many responses can be pulled off one
/// connection in order.
struct KeepAlive {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAlive {
    fn connect(addr: SocketAddr) -> KeepAlive {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        KeepAlive {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &str) {
        self.send_raw(&format!(
            "{method} {path} HTTP/1.1\r\nHost: snc\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }

    fn send_raw(&mut self, raw: &str) {
        self.stream.write_all(raw.as_bytes()).expect("send request");
    }

    /// Reads one complete framed response off the connection; returns
    /// `(status, raw_head, body)` where `raw_head` includes the status
    /// line and headers.
    fn read_response(&mut self) -> (u16, String, String) {
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill();
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("utf-8 head");
        let status: u16 = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed status line in {head:?}"));
        let content_length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("content-length header");
        while self.buf.len() < head_end + content_length {
            self.fill();
        }
        let body =
            String::from_utf8(self.buf[head_end..head_end + content_length].to_vec()).unwrap();
        self.buf.drain(..head_end + content_length);
        (status, head, body)
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => panic!("connection closed mid-response (buffered: {:?})", self.buf.len()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Strips the per-response timing header, the only frame content that
/// legitimately varies between byte-identical requests.
fn normalize_head(head: &str) -> String {
    // Per-request tracing metadata (elapsed µs, minted request id) is
    // nondeterministic by design; framing equivalence is about the
    // status line, content-length, and connection headers.
    head.lines()
        .filter(|line| {
            let lower = line.to_ascii_lowercase();
            !lower.starts_with("x-snc-elapsed-us:") && !lower.starts_with("x-snc-request-id:")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// An in-process router in front of one in-process backend.
fn start_router(backend: &ServerHandle) -> RouterHandle {
    serve_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![BackendSpec {
            addr: backend.addr(),
            weight: 1,
        }],
        probe_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    })
    .expect("bind router")
}

/// One unlabelled sample's value off a `/metrics` text exposition.
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{name} missing from:\n{text}")) as u64
}

/// The `connections` gauge object off `/healthz`.
fn connection_gauges(body: &str) -> (u64, u64, u64) {
    let doc = snc_experiments::json::parse(body).expect("healthz JSON");
    let conns = doc.get("connections").expect("connections object");
    (
        conns.get("active").unwrap().as_u64().unwrap(),
        conns.get("reaped").unwrap().as_u64().unwrap(),
        conns.get("shed").unwrap().as_u64().unwrap(),
    )
}

fn pipelined_matches_sequential_on(backend: Backend) {
    let handle = common::start_server(|cfg| {
        cfg.threads = 2;
        cfg.backend = backend;
    });
    pipelined_matches_sequential(handle.addr());
    handle.shutdown();
}

fn pipelined_matches_sequential(addr: SocketAddr) {
    // Sequential reference: one request at a time on its own keep-alive
    // connection. The 404 probe checks that routing errors keep the
    // connection alive, mid-pipeline, exactly like the old core.
    let requests: [(&str, &str, &str); 4] = [
        ("POST", "/solve", SOLVE_SEED_42),
        ("GET", "/jobs/999999", ""),
        ("POST", "/solve", SOLVE_SEED_43),
        ("GET", "/", ""),
    ];
    let mut sequential = KeepAlive::connect(addr);
    let reference: Vec<(u16, String, String)> = requests
        .iter()
        .map(|(method, path, body)| {
            sequential.send(method, path, body);
            sequential.read_response()
        })
        .collect();
    assert_eq!(reference[0].0, 200);
    assert_eq!(reference[1].0, 404);
    assert_eq!(reference[2].0, 200);
    assert_eq!(reference[3].0, 200);
    assert_ne!(
        reference[0].2, reference[2].2,
        "distinct seeds must produce distinct bodies for the order check to mean anything"
    );

    // Pipelined: all four requests in one burst, answers pulled off in
    // order. The first solve parks the connection on the worker pool,
    // so this also proves pipelined bytes survive the park/un-park.
    let mut pipelined = KeepAlive::connect(addr);
    let burst: String = requests
        .iter()
        .map(|(method, path, body)| {
            format!(
                "{method} {path} HTTP/1.1\r\nHost: snc\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        })
        .collect();
    pipelined.send_raw(&burst);
    for (i, (ref_status, ref_head, ref_body)) in reference.iter().enumerate() {
        let (status, head, body) = pipelined.read_response();
        assert_eq!(status, *ref_status, "response {i} status diverged");
        assert_eq!(
            normalize_head(&head),
            normalize_head(ref_head),
            "response {i} framing diverged"
        );
        assert_eq!(&body, ref_body, "response {i} body diverged from sequential");
    }
}

#[test]
fn pipelined_burst_matches_sequential_byte_for_byte() {
    pipelined_matches_sequential_on(Backend::Auto);
}

#[test]
fn poll_backend_pipelines_identically() {
    pipelined_matches_sequential_on(Backend::Poll);
}

#[test]
fn router_pipelined_burst_matches_sequential_byte_for_byte() {
    // The router runs the same reactor: a pipelined burst through it
    // (solves parked on forward threads, a relayed 404 mid-pipeline)
    // answers byte-identically to the same requests issued one by one.
    let backend = common::start_server(|cfg| {
        cfg.threads = 2;
    });
    let router = start_router(&backend);
    pipelined_matches_sequential(router.addr());
    router.shutdown();
    backend.shutdown();
}

fn slowloris_reaped_on(backend: Backend) {
    let _guard = timing_guard();
    let handle = common::start_server(|cfg| {
        cfg.threads = 2;
        cfg.idle_timeout_ms = 500;
        cfg.backend = backend;
    });
    let addr = handle.addr();

    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_millis(25))).unwrap();
    slow.set_nodelay(true).unwrap();
    let drip = b"POST /solve HTTP/1.1\r\nX-Drip: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    let started = Instant::now();

    // Fast clients fly while the slowloris drips.
    let fast = std::thread::spawn(move || {
        for _ in 0..8 {
            let fast_started = Instant::now();
            let (status, _) = common::roundtrip(addr, "GET", "/healthz", "");
            assert_eq!(status, 200);
            assert!(
                fast_started.elapsed() < Duration::from_secs(5),
                "fast client stalled behind the slowloris"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    // 1 byte per 50 ms, watching for the server to give up on us.
    let mut dead = false;
    let mut response = Vec::new();
    'drip: for chunk in drip.chunks(1).cycle() {
        if started.elapsed() > Duration::from_secs(10) {
            break;
        }
        if slow.write_all(chunk).is_err() {
            dead = true;
            break;
        }
        let mut readback = [0u8; 512];
        loop {
            match slow.read(&mut readback) {
                Ok(0) => {
                    dead = true;
                    break 'drip;
                }
                Ok(n) => response.extend_from_slice(&readback[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    break;
                }
                Err(_) => {
                    dead = true;
                    break 'drip;
                }
            }
        }
    }
    assert!(
        dead,
        "slowloris survived past the idle deadline ({}ms elapsed)",
        started.elapsed().as_millis()
    );
    // Reaped within the deadline's order of magnitude, not at 10 s.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "reap took {}ms against a 500ms deadline",
        started.elapsed().as_millis()
    );
    // A mid-request reap announces itself before closing.
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 408 ") || text.is_empty(),
        "unexpected farewell: {text:?}"
    );
    fast.join().expect("fast clients");

    let (status, body) = common::roundtrip(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (_, reaped, _) = connection_gauges(&body);
    assert_eq!(reaped, 1, "exactly the slowloris should have been reaped");
    handle.shutdown();
}

#[test]
fn slowloris_is_reaped_without_stalling_fast_clients() {
    slowloris_reaped_on(Backend::Auto);
}

#[test]
fn poll_backend_reaps_the_slowloris_too() {
    slowloris_reaped_on(Backend::Poll);
}

#[test]
fn connection_budget_sheds_overflow_and_reports_exact_gauges() {
    let _guard = timing_guard();
    const BUDGET: usize = 5;
    const OVERFLOW: usize = 3;
    let handle = common::start_server(|cfg| {
        cfg.threads = 2;
        cfg.max_connections = BUDGET;
    });
    let addr = handle.addr();

    // Fill the budget with admitted keep-alive connections (a round
    // trip each proves admission, not just a queued accept).
    let mut admitted: Vec<KeepAlive> = (0..BUDGET).map(|_| KeepAlive::connect(addr)).collect();
    for conn in &mut admitted {
        conn.send("GET", "/healthz", "");
        assert_eq!(conn.read_response().0, 200);
    }

    // Park an in-flight solve on an admitted connection; it must finish
    // even while overflow accepts are being shed.
    admitted[1].send("POST", "/solve", SOLVE_SEED_42);

    // Overflow connections get a fast, clean 503-and-close.
    for i in 0..OVERFLOW {
        let started = Instant::now();
        let mut over = TcpStream::connect(addr).expect("overflow connect");
        over.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut raw = Vec::new();
        over.read_to_end(&mut raw).expect("read 503 to EOF");
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 503 "),
            "overflow {i}: expected 503, got {text:?}"
        );
        assert!(
            text.contains("connection budget exhausted"),
            "overflow {i}: {text:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "overflow {i}: shed took {}ms, not fast",
            started.elapsed().as_millis()
        );
    }

    // The parked solve on the admitted connection completes.
    let (status, _, body) = admitted[1].read_response();
    assert_eq!(status, 200, "in-flight solve on an admitted connection must finish");
    assert!(body.contains("best_cut"));

    // Gauges, read over an already-admitted connection (a fresh probe
    // would itself be shed): exactly BUDGET active, nothing reaped,
    // exactly OVERFLOW shed.
    admitted[0].send("GET", "/healthz", "");
    let (status, _, body) = admitted[0].read_response();
    assert_eq!(status, 200);
    assert_eq!(
        connection_gauges(&body),
        (BUDGET as u64, 0, OVERFLOW as u64),
        "gauges must count admissions, reaps, and sheds exactly"
    );

    // Budget is a live count: close one admitted connection and a new
    // client is admitted again.
    drop(admitted.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = KeepAlive::connect(addr);
        retry.send("GET", "/healthz", "");
        let (status, _, _) = retry.read_response();
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "freed budget slot never reopened");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn partial_writes_deliver_a_byte_identical_large_trace_body() {
    // A large multi-replica response (the partition scales with n; the
    // annealed family needs no SDP, so a wide gnp graph solves fast),
    // squeezed through a send buffer shrunk to the kernel floor and
    // read slowly: the reactor must resume across partial writes until
    // every byte lands.
    const BIG_SOLVE: &str = r#"{"graph": {"gnp": {"n": 10000, "p": 0.0005, "seed": 11}}, "circuit": "hopfield", "steps": 32, "budget": 16, "replicas": 8, "seed": 7}"#;
    let throttled = common::start_server(|cfg| {
        cfg.threads = 2;
        cfg.send_buffer_bytes = 1; // kernel clamps to its floor (~4.5 KiB)
    });
    let reference_server = common::start_server(|cfg| {
        cfg.threads = 2;
    });
    let (ref_status, reference) =
        common::roundtrip(reference_server.addr(), "POST", "/solve", BIG_SOLVE);
    assert_eq!(ref_status, 200);
    assert!(
        reference.len() > 18_000,
        "trace body too small ({} bytes) to force partial writes",
        reference.len()
    );

    let mut slow = TcpStream::connect(throttled.addr()).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    snc_server::sys::set_recv_buffer(
        std::os::fd::AsRawFd::as_raw_fd(&slow),
        1, // clamped to the floor: a tiny advertised window
    )
    .expect("SO_RCVBUF");
    let request = format!(
        "POST /solve HTTP/1.1\r\nHost: snc\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{BIG_SOLVE}",
        BIG_SOLVE.len()
    );
    slow.write_all(request.as_bytes()).unwrap();
    // Trickle-read in small chunks so the server's tiny send buffer
    // stays full and its write path must park and resume repeatedly.
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match slow.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                if raw.len() < 64 * 1024 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Err(e) => panic!("slow read failed after {} bytes: {e}", raw.len()),
        }
    }
    let text = String::from_utf8(raw).expect("utf-8 response");
    assert!(text.starts_with("HTTP/1.1 200 "), "status: {:?}", text.lines().next());
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    assert_eq!(
        body, reference,
        "throttled delivery must be byte-identical to the reference body"
    );
    throttled.shutdown();
    reference_server.shutdown();
}

#[test]
fn shutdown_completes_under_100ms_with_idle_keepalive_clients() {
    let _guard = timing_guard();
    let handle = common::start_server(|cfg| {
        cfg.threads = 2;
    });
    let addr = handle.addr();
    shutdown_is_prompt_with_idle_clients(addr, || handle.shutdown());
}

#[test]
fn router_shutdown_completes_under_100ms_with_idle_keepalive_clients() {
    let _guard = timing_guard();
    let backend = common::start_server(|cfg| {
        cfg.threads = 2;
    });
    let router = start_router(&backend);
    let addr = router.addr();
    shutdown_is_prompt_with_idle_clients(addr, || router.shutdown());
    backend.shutdown();
}

fn shutdown_is_prompt_with_idle_clients(addr: SocketAddr, shutdown: impl FnOnce()) {
    // Idle keep-alive clients, each proven admitted by a round trip.
    let mut idle: Vec<KeepAlive> = (0..6).map(|_| KeepAlive::connect(addr)).collect();
    for conn in &mut idle {
        conn.send("GET", "/healthz", "");
        assert_eq!(conn.read_response().0, 200);
    }
    let started = Instant::now();
    shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "shutdown took {}ms with idle keep-alive clients (wakeup pipe regression)",
        elapsed.as_millis()
    );
    // The idle connections were actually closed, not abandoned.
    for conn in &mut idle {
        let mut rest = Vec::new();
        let outcome = conn.stream.read_to_end(&mut rest);
        assert!(
            matches!(outcome, Ok(0)) || outcome.is_err(),
            "idle connection still open after shutdown"
        );
    }
}

#[test]
fn mid_request_disconnects_free_their_slots() {
    let handle = common::start_server(|cfg| {
        cfg.threads = 2;
    });
    let addr = handle.addr();
    disconnects_free_their_slots(addr, || {
        let (status, body) = common::roundtrip(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        connection_gauges(&body)
    });
    handle.shutdown();
}

#[test]
fn router_mid_request_disconnects_free_their_slots() {
    // Same check against the router, read off its /metrics scrape (the
    // router's /healthz reports the fleet, not its connections).
    let backend = common::start_server(|cfg| {
        cfg.threads = 2;
    });
    let router = start_router(&backend);
    let addr = router.addr();
    disconnects_free_their_slots(addr, || {
        let (status, text) = common::roundtrip(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        (
            metric_value(&text, "snc_reactor_connections_active"),
            metric_value(&text, "snc_router_connections_reaped_total"),
            metric_value(&text, "snc_router_connections_shed_total"),
        )
    });
    router.shutdown();
    backend.shutdown();
}

/// Vanishes mid-header and mid-body, then waits for `gauges` (active,
/// reaped, shed — read over a connection of its own) to show only that
/// probe connection alive.
fn disconnects_free_their_slots(addr: SocketAddr, gauges: impl Fn() -> (u64, u64, u64)) {
    // Vanish mid-header.
    let mut mid_header = TcpStream::connect(addr).expect("connect");
    mid_header.write_all(b"POST /solve HTTP/1.1\r\nContent-Le").unwrap();
    mid_header.shutdown(Shutdown::Both).unwrap();
    drop(mid_header);

    // Vanish mid-body (headers complete, body short).
    let mut mid_body = TcpStream::connect(addr).expect("connect");
    mid_body
        .write_all(b"POST /solve HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"graph\"")
        .unwrap();
    mid_body.shutdown(Shutdown::Both).unwrap();
    drop(mid_body);

    // Both slots drain back to zero (the probe's own connection is the
    // only one alive at gauge-render time).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (active, reaped, shed) = gauges();
        if active == 1 {
            assert_eq!(reaped, 0, "disconnects are not reaps");
            assert_eq!(shed, 0, "disconnects are not sheds");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "mid-request disconnects never freed their slots (active = {active})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn raw_syscall_code_is_confined_to_the_sys_module() {
    // Build the needle at runtime so this test's own source does not
    // trip the scan.
    let needle = ["un", "safe"].concat();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    collect_rs(&root.join("crates"), &mut sources);
    collect_rs(&root.join("shims"), &mut sources);
    collect_rs(&root.join("tests"), &mut sources);
    assert!(
        sources.iter().any(|p| p.ends_with("server.rs")),
        "source scan found nothing — wrong root?"
    );
    let mut offenders = Vec::new();
    for path in sources {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().to_string();
        if rel.contains("snc-server/src/sys/") {
            continue; // the one audited exception
        }
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        for (lineno, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue; // comments may discuss the policy
            }
            if code.contains(&format!("forbid({needle}_code)")) {
                continue; // a crate forbidding it outright strengthens the policy
            }
            if code.contains(&needle) {
                offenders.push(format!("{rel}:{}", lineno + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "the {needle} token escaped snc-server/src/sys/: {offenders:?}"
    );
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
