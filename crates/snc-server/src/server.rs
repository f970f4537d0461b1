//! The server core: configuration, routing, and the worker pool the
//! solves are scheduled onto. The transport underneath is the
//! readiness-driven reactor in [`crate::event`] — one loop thread owns
//! every connection; solver workers never touch a socket.
//!
//! ## Data flow
//!
//! ```text
//! TcpListener ──accept──▶ reactor loop (crate::event, one thread)
//!      │  (budget: over --max-connections ⇒ immediate 503 + close)
//!      │                        │  incremental parse (http::RequestParser)
//!      │                        ▼
//!      │                route(): /healthz, /, GET /jobs/{id}, parse
//!      │                errors, and ResponseCache hits answer INLINE
//!      │                on the loop — zero thread handoff ───────────┐
//!      │                        │ solve miss                         │
//!      │                        ▼                                    │
//!      │                bounded WorkerPool queue  ──503 when full    │
//!      │                        │                                    │
//!      │                        ▼                                    │
//!      │                worker, by workload:                         │
//!      │                  graph or   → snc_maxcut::solve_with_cache  │
//!      │                  weighted     (SdpCache: per-graph factor/bound
//!      │                        │       memo for unweighted LIF-GW's │
//!      │                        │       offline stage)               │
//!      │                  max2sat    → extensions::solve_gw_max2sat  │
//!      │                  maxdicut   → extensions::solve_gw_maxdicut │
//!      │                        │                                    │
//!      │                completion → Mailbox + wakeup pipe ──────────┤
//!      │                        ▼                                    ▼
//!      └──────────◀── reactor writes the deterministic JSON body
//!                      (+ x-snc-elapsed-us header), resuming across
//!                      partial writes as the socket drains
//! ```
//!
//! Identical `(request, seed)` pairs produce byte-identical response
//! bodies regardless of connection interleaving or worker assignment:
//! the solve is a pure function of the parsed request, and rendering is
//! deterministic. Timing travels only in a response header. That
//! contract is what makes both caches sound: a cached SDP factor is
//! bit-identical to a recomputed one (the SDP is deterministic in its
//! seed), and a cached response body is byte-identical to a recomputed
//! one — caching changes latency, never answers. Setting
//! `--sdp-cache-entries 0 --response-cache-bytes 0` disables both and
//! reproduces the uncached request path exactly.
//!
//! Shutdown is graceful and prompt: [`ServerHandle::shutdown`] sets the
//! flag and rings the reactor's wakeup pipe — no polling sleeps anywhere
//! on the path — so the loop immediately stops accepting, closes idle
//! keep-alive connections, finishes dispatched solves and pending
//! writes, and exits; the worker queue then drains on the caller's
//! thread.

use crate::cache::ResponseCache;
use crate::event::{self, Completion, Mailbox, ReplyTo};
use crate::http::{HttpError, Request};
use crate::jobs::{JobStatus, JobStore};
use crate::metrics::ServerMetrics;
use crate::sys;
use crate::wire::{self, RequestDefaults, Workload};
use snc_devices::SplitMix64;
use snc_experiments::json::Json;
use snc_experiments::runner::WorkerPool;
use snc_linalg::SdpConfig;
use snc_maxcut::{SdpCache, StageTimings};
use snc_metrics::{AccessLog, RequestIds};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Server configuration (all knobs the binary exposes, plus limits).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks an ephemeral
    /// port; read it back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Solver worker threads (the `WorkerPool` width).
    pub threads: usize,
    /// Default replica width for requests that omit `"replicas"`.
    pub replicas: usize,
    /// Bounded solver queue depth; beyond it, requests get 503.
    pub queue_depth: usize,
    /// Async job records retained before eviction.
    pub store_capacity: usize,
    /// Largest accepted sample budget per request.
    pub max_budget: u64,
    /// Largest accepted vertex count per request.
    pub max_vertices: usize,
    /// Largest accepted replica width per request.
    pub max_replicas: usize,
    /// Largest accepted Hopfield `"steps"` per sample.
    pub max_hopfield_steps: u64,
    /// Largest accepted request body in bytes.
    pub max_body_bytes: usize,
    /// SDP factor/bound entries retained by the per-graph
    /// [`SdpCache`] (`0` disables SDP caching).
    pub sdp_cache_entries: usize,
    /// Byte budget of the full-response [`ResponseCache`] (`0` disables
    /// response caching).
    pub response_cache_bytes: usize,
    /// Connection budget: beyond this many live connections, new accepts
    /// are shed with an immediate `503` and close.
    pub max_connections: usize,
    /// Idle deadline in milliseconds, measured from the start of each
    /// request cycle. A connection that has not completed a request (or
    /// made write progress) within it is reaped — which is also what
    /// defeats slowloris-style trickled headers, since received bytes do
    /// **not** extend the deadline. Connections parked on an in-flight
    /// solve are exempt.
    pub idle_timeout_ms: u64,
    /// When non-zero, shrink each accepted socket's kernel send buffer
    /// to this many bytes (the kernel clamps to its floor). A test hook:
    /// forces the reactor through its partial-write resume path with
    /// small bodies.
    pub send_buffer_bytes: usize,
    /// Readiness backend for the reactor (`Auto` = epoll on Linux, poll
    /// elsewhere).
    pub backend: sys::Backend,
    /// When set, append one structured line per served request
    /// (`id route family outcome status µs`) to this file.
    pub access_log: Option<String>,
    /// Rotate the access log (rename to `<path>.1`, reopen) whenever it
    /// would grow past this many bytes. 0 disables rotation.
    pub access_log_max_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            threads: snc_neuro::parallel::default_threads(),
            replicas: 1,
            queue_depth: 64,
            store_capacity: 256,
            max_budget: 1 << 22,
            max_vertices: 10_000,
            max_replicas: 1024,
            max_hopfield_steps: 4096,
            max_body_bytes: 1 << 20,
            sdp_cache_entries: 128,
            response_cache_bytes: 4 << 20,
            max_connections: 1024,
            idle_timeout_ms: 30_000,
            send_buffer_bytes: 0,
            backend: sys::Backend::Auto,
            access_log: None,
            access_log_max_bytes: 0,
        }
    }
}

impl ServerConfig {
    /// The parse-time defaults and limits this configuration implies.
    ///
    /// Public so that edge processes (the scale-out router) can parse
    /// requests with exactly the limits their backends will apply.
    pub fn request_defaults(&self) -> RequestDefaults {
        RequestDefaults {
            replicas: self.replicas,
            // Match the experiment harness exactly (rank 4, fast-Δt LIF
            // params), so a request carrying a figure's per-graph seed
            // reproduces that figure's circuit trace bit for bit.
            sdp_rank: 4,
            lif: snc_experiments::SuiteConfig::for_scale(
                snc_experiments::ExperimentScale::Standard,
            )
            .lif,
            max_budget: self.max_budget,
            max_vertices: self.max_vertices,
            max_replicas: self.max_replicas,
            max_hopfield_steps: self.max_hopfield_steps,
        }
    }
}

/// Shared state the reactor loop and the worker closures see.
///
/// `store` is its own `Arc` so async job closures can capture *only*
/// the store: a queued job must never own (and therefore never be the
/// last owner of, and drop) the pool it runs on — the pool's teardown
/// joins its workers, which must not happen on a worker thread. The
/// [`Mailbox`] is split out for the same reason: solve closures capture
/// the mailbox, caches, and store — never `Arc<Shared>` — so the last
/// `Arc<Shared>` is always dropped by the `ServerHandle` (or the
/// reactor), and `shutdown()` deterministically drains and joins the
/// pool on the caller's thread.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) defaults: RequestDefaults,
    pub(crate) pool: WorkerPool<'static>,
    pub(crate) store: Arc<JobStore>,
    /// Per-graph SDP factor/bound memo, consulted inside worker solves
    /// (`None` when `sdp_cache_entries == 0`). Its own `Arc` for the
    /// same reason as `store`: job closures must never own the pool.
    pub(crate) sdp_cache: Option<Arc<SdpCache>>,
    /// Byte-exact full-response cache (`None` when
    /// `response_cache_bytes == 0`).
    pub(crate) response_cache: Option<Arc<ResponseCache>>,
    /// Where workers deliver solve completions (and how they — or
    /// `shutdown()` — interrupt the reactor's wait). Its own `Arc`:
    /// solve closures must never own the pool (see above).
    pub(crate) mailbox: Arc<Mailbox>,
    /// Which readiness backend the reactor runs (`"epoll"`/`"poll"`),
    /// reported on `/healthz`.
    pub(crate) backend: &'static str,
    /// Live connections owned by the reactor right now.
    pub(crate) conn_active: AtomicU64,
    /// Connections closed by the idle-deadline reaper so far.
    pub(crate) conn_reaped: AtomicU64,
    /// Accepts shed with a fast 503 because the budget was full.
    pub(crate) conn_shed: AtomicU64,
    /// Solve-bearing requests accepted so far (`POST /solve` +
    /// `POST /jobs`, counted whether they hit a cache, run a solve, or
    /// shed with 503). Reported on `/healthz` so an edge process can
    /// audit exactly where its routed traffic landed.
    pub(crate) solve_requests: AtomicU64,
    /// The process metric registry + pre-registered reactor
    /// instruments. Its own `Arc` so worker closures can record stage
    /// timings without capturing `Shared` (which owns the pool).
    pub(crate) metrics: Arc<ServerMetrics>,
    /// Mints `x-snc-request-id` values for requests that arrive
    /// without a (valid) one.
    pub(crate) request_ids: RequestIds,
    /// One structured line per served request, when `--access-log` is
    /// set (written by the reactor at response-queue time).
    pub(crate) access_log: Option<AccessLog>,
    pub(crate) shutdown: AtomicBool,
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (accepts stopped, in-flight requests finished, worker
/// queue drained).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// Binds the listener, opens the readiness poller and wakeup pipe, and
/// starts the reactor and worker threads.
///
/// # Errors
///
/// Propagates socket bind failures, poller construction failures (e.g.
/// forcing [`sys::Backend::Epoll`] off Linux), and pipe creation
/// failures.
pub fn serve(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // Built here, not in the reactor thread, so construction errors
    // surface synchronously from `serve`.
    let poller = sys::Poller::new(cfg.backend)?;
    let mailbox = Arc::new(Mailbox::new()?);
    let access_log = match &cfg.access_log {
        Some(path) => Some(AccessLog::open_rotating(path, cfg.access_log_max_bytes)?),
        None => None,
    };
    let shared = Arc::new(Shared {
        defaults: cfg.request_defaults(),
        pool: WorkerPool::bounded(cfg.threads, cfg.queue_depth),
        store: Arc::new(JobStore::new(cfg.store_capacity)),
        sdp_cache: (cfg.sdp_cache_entries > 0)
            .then(|| Arc::new(SdpCache::new(cfg.sdp_cache_entries))),
        response_cache: (cfg.response_cache_bytes > 0)
            .then(|| Arc::new(ResponseCache::new(cfg.response_cache_bytes))),
        backend: poller.backend_name(),
        mailbox,
        conn_active: AtomicU64::new(0),
        conn_reaped: AtomicU64::new(0),
        conn_shed: AtomicU64::new(0),
        solve_requests: AtomicU64::new(0),
        metrics: Arc::new(ServerMetrics::new()),
        request_ids: RequestIds::from_env(),
        access_log,
        shutdown: AtomicBool::new(false),
        cfg,
    });
    let reactor_shared = Arc::clone(&shared);
    let reactor = std::thread::Builder::new()
        .name("snc-reactor".into())
        .spawn(move || event::run(listener, poller, &reactor_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        reactor: Some(reactor),
    })
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown and blocks until the reactor and the
    /// (drained) worker pool have exited. The flag is paired with a ring
    /// of the reactor's wakeup pipe, so an idle loop wakes immediately —
    /// there is no polling interval to wait out. After the reactor
    /// joins, this handle holds the last `Arc<Shared>` — job closures
    /// capture only the store, caches, and mailbox — so dropping it
    /// tears the pool down on the caller's thread, draining every
    /// queued job and joining the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the server exits (which, absent an external
    /// [`ServerHandle::shutdown`], is never — the binary's serve-forever
    /// mode).
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.mailbox.ring();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The metric labels (and content type) one response carries: static
/// strings decided at route time, recorded by the reactor when the
/// response is queued. Purely observational — never rendered into a
/// body.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResponseMeta {
    /// Route label (`solve`, `jobs`, `jobs_poll`, `healthz`, `metrics`,
    /// `index`, `other`).
    pub(crate) route: &'static str,
    /// Circuit family label (`lif-gw` … / `max2sat` / `maxdicut`), or
    /// `none` for non-solve routes.
    pub(crate) family: &'static str,
    /// Response-cache outcome (`hit` / `miss`), or `none` where no
    /// cache sits on the path, or `error`.
    pub(crate) outcome: &'static str,
    /// The `content-type` header value for the response.
    pub(crate) content_type: &'static str,
}

impl ResponseMeta {
    pub(crate) fn new(route: &'static str) -> ResponseMeta {
        ResponseMeta {
            route,
            family: "none",
            outcome: "none",
            content_type: "application/json",
        }
    }

    /// The route label for a method/path pair, shared by the success
    /// path and [`error_meta`] so both label the same endpoint cell.
    fn route_label(path: &str) -> &'static str {
        match path {
            "/healthz" => "healthz",
            "/solve" => "solve",
            "/jobs" => "jobs",
            "/metrics" => "metrics",
            "/" => "index",
            p if p.starts_with("/jobs/") => "jobs_poll",
            _ => "other",
        }
    }
}

/// The meta for a request [`route`] rejected with an [`HttpError`]
/// (404/405/400): same route cell as the success path, outcome
/// `error`.
pub(crate) fn error_meta(path: &str) -> ResponseMeta {
    ResponseMeta {
        outcome: "error",
        ..ResponseMeta::new(ResponseMeta::route_label(path))
    }
}

/// How [`route`] answered: inline on the reactor thread, or dispatched
/// to the worker pool (in which case a [`Completion`] tagged with the
/// connection's [`ReplyTo`] arrives through the [`Mailbox`]). Either
/// way carries the [`ResponseMeta`] the reactor records at
/// response-queue time.
pub(crate) enum Routed {
    /// The reply is ready now — cache hit, gauge read, async-job
    /// bookkeeping, or validation output. Zero thread handoff.
    Ready(u16, String, ResponseMeta),
    /// A solve miss was scheduled on the pool; the connection parks
    /// until its completion is delivered.
    Dispatched(ResponseMeta),
}

/// Routes one parsed request. Everything except an uncached
/// `POST /solve` answers [`Routed::Ready`] inline on the reactor.
pub(crate) fn route(
    request: &Request,
    shared: &Arc<Shared>,
    reply_to: ReplyTo,
) -> Result<Routed, HttpError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok(Routed::Ready(
            200,
            healthz(shared),
            ResponseMeta::new("healthz"),
        )),
        ("GET", "/metrics") => Ok(Routed::Ready(
            200,
            metrics_body(shared),
            ResponseMeta {
                content_type: "text/plain; version=0.0.4",
                ..ResponseMeta::new("metrics")
            },
        )),
        ("POST", "/solve") => {
            shared.solve_requests.fetch_add(1, Ordering::Relaxed);
            solve(&request.body, shared, reply_to)
        }
        ("POST", "/jobs") => {
            shared.solve_requests.fetch_add(1, Ordering::Relaxed);
            submit_job(&request.body, shared)
        }
        ("GET", path) if path.starts_with("/jobs/") => poll_job(path, shared)
            .map(|(status, body)| Routed::Ready(status, body, ResponseMeta::new("jobs_poll"))),
        ("GET", "/") => Ok(Routed::Ready(200, index_body(), ResponseMeta::new("index"))),
        (_, "/healthz" | "/solve" | "/jobs" | "/" | "/metrics") => {
            Err(HttpError::new(405, "method not allowed"))
        }
        (_, path) if path.starts_with("/jobs/") => Err(HttpError::new(405, "method not allowed")),
        _ => Err(HttpError::new(404, "no such endpoint")),
    }
}

fn index_body() -> String {
    Json::Obj(vec![
        ("service".into(), Json::str("snc-server")),
        (
            "endpoints".into(),
            Json::Arr(
                [
                    "GET /healthz",
                    "GET /metrics",
                    "POST /solve",
                    "POST /jobs",
                    "GET /jobs/{id}",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
    ])
    .render()
}

/// The circuit-family metric label for a parsed workload.
fn workload_family(workload: &Workload) -> &'static str {
    match workload {
        Workload::MaxCut(job) => job.spec.family.name(),
        Workload::WeightedMaxCut(job) => job.spec.family.name(),
        Workload::Max2Sat(_) => "max2sat",
        Workload::MaxDicut(_) => "maxdicut",
    }
}

/// Renders `GET /metrics`: mirrors the externally-owned tallies (cache
/// stats, connection counters, pool/queue/jobs gauges) onto the
/// registry, then renders the text exposition. The mirrored values are
/// read from the same sources `/healthz` reports, so the two surfaces
/// can never disagree about a scrape-instant value by more than
/// concurrent traffic.
fn metrics_body(shared: &Arc<Shared>) -> String {
    let m = &shared.metrics;
    if let Some(cache) = &shared.sdp_cache {
        let s = cache.stats();
        m.sync_cache("sdp", s.hits, s.misses, s.evictions, s.entries);
    }
    if let Some(cache) = &shared.response_cache {
        let s = cache.stats();
        m.sync_cache("response", s.hits, s.misses, s.evictions, s.entries);
        m.registry
            .gauge(
                "snc_cache_bytes",
                "Bytes resident in the cache",
                &[("cache", "response")],
            )
            .set(s.bytes as i64);
    }
    m.connections_active
        .set(shared.conn_active.load(Ordering::Relaxed) as i64);
    m.mailbox_depth.set(shared.mailbox.depth() as i64);
    m.registry
        .counter(
            "snc_server_connections_reaped_total",
            "Connections closed by the idle-deadline reaper",
            &[],
        )
        .set_total(shared.conn_reaped.load(Ordering::Relaxed));
    m.registry
        .counter(
            "snc_server_connections_shed_total",
            "Accepts shed with a fast 503 over the connection budget",
            &[],
        )
        .set_total(shared.conn_shed.load(Ordering::Relaxed));
    m.registry
        .counter(
            "snc_server_solve_requests_total",
            "Solve-bearing requests accepted (POST /solve + POST /jobs)",
            &[],
        )
        .set_total(shared.solve_requests.load(Ordering::Relaxed));
    m.registry
        .gauge(
            "snc_server_pool_in_flight",
            "Solves queued or running on the worker pool",
            &[],
        )
        .set(shared.pool.in_flight() as i64);
    m.registry
        .gauge(
            "snc_server_jobs_stored",
            "Async job records currently retained",
            &[],
        )
        .set(shared.store.len() as i64);
    m.registry.render()
}

fn healthz(shared: &Arc<Shared>) -> String {
    let sdp_cache = match &shared.sdp_cache {
        None => Json::Obj(vec![("enabled".into(), Json::Bool(false))]),
        Some(cache) => {
            let stats = cache.stats();
            Json::Obj(vec![
                ("enabled".into(), Json::Bool(true)),
                ("capacity".into(), Json::UInt(cache.capacity() as u64)),
                ("entries".into(), Json::UInt(stats.entries)),
                ("hits".into(), Json::UInt(stats.hits)),
                ("misses".into(), Json::UInt(stats.misses)),
                ("evictions".into(), Json::UInt(stats.evictions)),
            ])
        }
    };
    let response_cache = match &shared.response_cache {
        None => Json::Obj(vec![("enabled".into(), Json::Bool(false))]),
        Some(cache) => {
            let stats = cache.stats();
            Json::Obj(vec![
                ("enabled".into(), Json::Bool(true)),
                ("capacity_bytes".into(), Json::UInt(stats.capacity_bytes)),
                ("bytes".into(), Json::UInt(stats.bytes)),
                ("entries".into(), Json::UInt(stats.entries)),
                ("hits".into(), Json::UInt(stats.hits)),
                ("misses".into(), Json::UInt(stats.misses)),
                ("evictions".into(), Json::UInt(stats.evictions)),
            ])
        }
    };
    Json::Obj(vec![
        ("status".into(), Json::str("ok")),
        // Which OS process answered: lets a multi-process test (or an
        // operator behind a router) tell interchangeable backends apart.
        ("pid".into(), Json::UInt(u64::from(std::process::id()))),
        (
            "solve_requests".into(),
            Json::UInt(shared.solve_requests.load(Ordering::Relaxed)),
        ),
        ("threads".into(), Json::UInt(shared.pool.threads() as u64)),
        (
            "in_flight".into(),
            Json::UInt(shared.pool.in_flight() as u64),
        ),
        (
            "queue_depth".into(),
            Json::UInt(shared.cfg.queue_depth as u64),
        ),
        ("jobs_stored".into(), Json::UInt(shared.store.len() as u64)),
        (
            "connections".into(),
            Json::Obj(vec![
                (
                    "active".into(),
                    Json::UInt(shared.conn_active.load(Ordering::Relaxed)),
                ),
                (
                    "reaped".into(),
                    Json::UInt(shared.conn_reaped.load(Ordering::Relaxed)),
                ),
                (
                    "shed".into(),
                    Json::UInt(shared.conn_shed.load(Ordering::Relaxed)),
                ),
                (
                    "max".into(),
                    Json::UInt(shared.cfg.max_connections as u64),
                ),
                (
                    "idle_timeout_ms".into(),
                    Json::UInt(shared.cfg.idle_timeout_ms),
                ),
                ("backend".into(), Json::str(shared.backend)),
            ]),
        ),
        ("sdp_cache".into(), sdp_cache),
        ("response_cache".into(), response_cache),
    ])
    .render()
}

/// Runs a closure with panic containment; a panic anywhere below the
/// dispatch layer becomes an error string instead of killing the
/// response path (sync) or stranding a job record at `running` (async).
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, (u16, String)> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        // Parse-time validation already rejected every client-side cause
        // of solver errors (zero budget, empty graph, negative weights on
        // lif-trevisan, out-of-range literals), so what reaches here is
        // an internal failure: answer 500, not 400.
        Ok(Err(e)) => Err((500, format!("solve failed: {e}"))),
        Err(_) => Err((500, "internal error: solver panicked".to_string())),
        Ok(Ok(value)) => Ok(value),
    }
}

/// The SDP configuration for the extension workloads: same rank default
/// and slot-1 derived seed as the circuit solve path, so the offline
/// stage of every workload hangs off the master seed the same way.
fn extension_sdp_config(defaults: &RequestDefaults, seed: u64) -> SdpConfig {
    SdpConfig {
        rank: defaults.sdp_rank,
        seed: SplitMix64::derive(seed, 1),
        ..SdpConfig::default()
    }
}

/// Solves a MAXCUT job and renders its body. Only unweighted LIF-GW
/// consults the [`SdpCache`] (see [`snc_maxcut::SolveGraph::gw_sdp`]).
fn solve_graph_job<G: wire::WireGraph>(
    job: &wire::SolveJob<G>,
    sdp_cache: Option<&SdpCache>,
) -> Result<(Json, StageTimings), (u16, String)> {
    guarded(|| {
        snc_maxcut::solve_with_cache(&job.graph, &job.spec, sdp_cache)
            .map(|outcome| (wire::solve_response(job, &outcome), outcome.stages))
            .map_err(|e| e.to_string())
    })
}

/// Executes a parsed workload to its deterministic response tree (the
/// unit of work scheduled on the pool), plus the wall-clock stage
/// breakdown the solver observed (all-zero for the extension
/// workloads, whose solvers don't expose stages — their time lands in
/// the `total` stage the caller times). Only the unweighted graph
/// workload consults the [`SdpCache`] — the weighted and extension SDPs
/// are solved inline, keeping the cache a census of LIF-GW offline work.
fn run_workload(
    workload: &Workload,
    defaults: &RequestDefaults,
    sdp_cache: Option<&SdpCache>,
) -> Result<(Json, StageTimings), (u16, String)> {
    match workload {
        Workload::MaxCut(job) => solve_graph_job(job, sdp_cache),
        Workload::WeightedMaxCut(job) => solve_graph_job(job, sdp_cache),
        Workload::Max2Sat(job) => guarded(|| {
            snc_maxcut::extensions::max2sat::solve_gw_max2sat(
                &job.instance,
                &extension_sdp_config(defaults, job.seed),
                job.samples as usize,
                // Rounding draws on their own ladder slot, disjoint from
                // the SDP's slot 1 — mirroring the circuit seed ladder.
                SplitMix64::derive(job.seed, 2),
            )
            .map(|solution| (wire::max2sat_response(job, &solution), StageTimings::default()))
            .map_err(|e| e.to_string())
        }),
        Workload::MaxDicut(job) => guarded(|| {
            snc_maxcut::extensions::maxdicut::solve_gw_maxdicut(
                &job.graph,
                &extension_sdp_config(defaults, job.seed),
                job.samples as usize,
                SplitMix64::derive(job.seed, 2),
            )
            .map(|solution| (wire::maxdicut_response(job, &solution), StageTimings::default()))
            .map_err(|e| e.to_string())
        }),
    }
}

/// `POST /solve`: parse, consult the response cache, and either answer
/// the hit inline or schedule the miss on the pool. A cache hit never
/// touches the worker pool: the stored body is byte-exact by the wire
/// contract. A miss parks the connection; the worker renders (or
/// error-renders) the reply, inserts it into the cache, and delivers it
/// as a [`Completion`] through the [`Mailbox`].
fn solve(body: &[u8], shared: &Arc<Shared>, reply_to: ReplyTo) -> Result<Routed, HttpError> {
    let workload =
        wire::parse_request(body, &shared.defaults).map_err(|e| HttpError::new(400, e.0))?;
    let family = workload_family(&workload);
    let meta = |outcome: &'static str| ResponseMeta {
        family,
        outcome,
        ..ResponseMeta::new("solve")
    };
    let key = shared.response_cache.as_ref().map(|cache| {
        let key = wire::response_key(&workload);
        (Arc::clone(cache), key)
    });
    if let Some((cache, key)) = &key {
        if let Some(cached) = cache.get(key) {
            return Ok(Routed::Ready(200, String::clone(&cached), meta("hit")));
        }
    }
    // The closure captures the mailbox, caches, metrics, and defaults
    // only — never `Arc<Shared>`, which owns the pool it runs on (see
    // the `Shared` docs).
    let mailbox = Arc::clone(&shared.mailbox);
    let sdp_cache = shared.sdp_cache.clone();
    let metrics = Arc::clone(&shared.metrics);
    let defaults = shared.defaults.clone();
    shared
        .pool
        .try_submit(move || {
            // `run_workload` already contains panics via `guarded`; the
            // extra catch covers rendering/cache-insert so a completion
            // is *always* delivered — a parked connection must never be
            // stranded by a worker that died between solve and deliver.
            let solve_started = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (tree, stages) = run_workload(&workload, &defaults, sdp_cache.as_deref())?;
                let rendered = tree.render();
                if let Some((cache, key)) = key {
                    cache.insert(key, rendered.clone());
                }
                Ok((rendered, stages))
            }))
            .unwrap_or_else(|_| Err((500, "internal error: solver panicked".to_string())));
            let (status, body) = match outcome {
                Ok((rendered, stages)) => {
                    let total_us = u64::try_from(solve_started.elapsed().as_micros())
                        .unwrap_or(u64::MAX);
                    metrics.record_solve_stages(family, &stages, total_us);
                    (200, rendered)
                }
                Err((status, message)) => (status, wire::error_body(&message)),
            };
            mailbox.deliver(Completion {
                token: reply_to.token,
                generation: reply_to.generation,
                status,
                body,
            });
        })
        .map_err(|_| HttpError::new(503, "solver queue is full, retry later"))?;
    Ok(Routed::Dispatched(meta("miss")))
}

/// `POST /jobs`: parse, record, schedule; the worker finishes the
/// record. Answers 202 with the job id.
fn submit_job(body: &[u8], shared: &Arc<Shared>) -> Result<Routed, HttpError> {
    let workload =
        wire::parse_request(body, &shared.defaults).map_err(|e| HttpError::new(400, e.0))?;
    let family = workload_family(&workload);
    let meta = |outcome: &'static str| ResponseMeta {
        family,
        outcome,
        ..ResponseMeta::new("jobs")
    };
    let key = shared.response_cache.as_ref().map(|cache| {
        let key = wire::response_key(&workload);
        (Arc::clone(cache), key)
    });
    // Response-cache hit: the job is born finished — the stored body is
    // the byte-exact render of the result tree, so parsing it back
    // recovers exactly what the worker would have stored. No pool
    // round-trip, and the poller sees `done` immediately.
    if let Some((cache, key)) = &key {
        if let Some(cached) = cache.get(key) {
            let id = shared.store.insert();
            let result = snc_experiments::json::parse(&cached)
                .map_err(|e| format!("internal error: cached body unparsable: {e}"));
            shared.store.finish(id, result);
            let status = shared.store.get(id).map_or("done", |s| s.name());
            return Ok(Routed::Ready(
                202,
                Json::Obj(vec![
                    ("id".into(), Json::UInt(id)),
                    ("status".into(), Json::str(status)),
                ])
                .render(),
                meta("hit"),
            ));
        }
    }
    let id = shared.store.insert();
    // The closure captures the store, caches, and metrics only — never
    // `Arc<Shared>`, which owns the pool the closure runs on (see the
    // `Shared` docs).
    let store = Arc::clone(&shared.store);
    let sdp_cache = shared.sdp_cache.clone();
    let metrics = Arc::clone(&shared.metrics);
    let defaults = shared.defaults.clone();
    let submitted = shared.pool.try_submit(move || {
        store.set_running(id);
        // run_workload contains panics, so the record always reaches a
        // terminal state — a poller can never see `running` forever.
        let solve_started = Instant::now();
        let result = run_workload(&workload, &defaults, sdp_cache.as_deref())
            .map_err(|(_, message)| message);
        let result = result.map(|(tree, stages)| {
            let total_us =
                u64::try_from(solve_started.elapsed().as_micros()).unwrap_or(u64::MAX);
            metrics.record_solve_stages(family, &stages, total_us);
            tree
        });
        if let (Some((cache, key)), Ok(tree)) = (key, &result) {
            cache.insert(key, tree.render());
        }
        store.finish(id, result);
    });
    if submitted.is_err() {
        shared.store.remove(id);
        return Err(HttpError::new(503, "solver queue is full, retry later"));
    }
    Ok(Routed::Ready(
        202,
        Json::Obj(vec![
            ("id".into(), Json::UInt(id)),
            ("status".into(), Json::str("queued")),
        ])
        .render(),
        meta("miss"),
    ))
}

/// `GET /jobs/{id}`: snapshot the record.
fn poll_job(path: &str, shared: &Arc<Shared>) -> Result<(u16, String), HttpError> {
    let id: u64 = path
        .strip_prefix("/jobs/")
        .and_then(|raw| raw.parse().ok())
        .ok_or_else(|| HttpError::new(400, "job id must be an integer"))?;
    let status = shared
        .store
        .get(id)
        .ok_or_else(|| HttpError::new(404, format!("no job {id} (expired or never existed)")))?;
    let mut members = vec![
        ("id".into(), Json::UInt(id)),
        ("status".into(), Json::str(status.name())),
    ];
    match status {
        JobStatus::Done(result) => members.push(("result".into(), result)),
        JobStatus::Failed(message) => members.push(("error".into(), Json::str(message))),
        JobStatus::Queued | JobStatus::Running => {}
    }
    Ok((200, Json::Obj(members).render()))
}
