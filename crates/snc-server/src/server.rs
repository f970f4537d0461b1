//! The solve service: configuration, routing, and the worker pool the
//! solves are scheduled onto. The transport underneath is the
//! readiness-driven reactor in [`crate::event`] (which the router runs
//! too) — one loop thread owns every connection; solver workers never
//! touch a socket.
//!
//! ## Data flow
//!
//! `POST /solve` and `POST /jobs` share one path,
//! `solve_or_dispatch`: parse → response-cache key → lookup → a hit
//! answers inline, a miss submits one worker closure. The two routes
//! differ only in the closure's sink.
//!
//! ```text
//! TcpListener ──accept──▶ reactor loop (crate::event, one thread)
//!      │  (budget: over --max-connections ⇒ immediate 503 + close)
//!      │                        │  incremental parse (http::RequestParser)
//!      │                        ▼
//!      │                route(): /healthz, /metrics, GET /jobs/{id} and
//!      │                parse errors answer INLINE on the loop
//!      │                        │ POST /solve, POST /jobs
//!      │                        ▼
//!      │                solve_or_dispatch: parse → response_key → get
//!      │                  hit  → /solve: the stored body ─────────────┐
//!      │                         /jobs: a record born `done`, 202     │
//!      │                        │ miss                                │
//!      │                        ▼                                     │
//!      │                bounded WorkerPool queue  ──503 when full     │
//!      │                        │                                     │
//!      │                        ▼                                     │
//!      │                one worker closure: run_workload             │
//!      │                  graph or   → snc_maxcut::solve_with_cache   │
//!      │                  weighted     (SdpCache: per-graph factor/bound
//!      │                        │       memo for unweighted LIF-GW's  │
//!      │                        │       offline stage)                │
//!      │                  max2sat    → extensions::solve_gw_max2sat   │
//!      │                  maxdicut   → extensions::solve_gw_maxdicut  │
//!      │                then record stages, render, insert into the   │
//!      │                ResponseCache, and hand the body to the sink: │
//!      │                  /solve → Completion → Mailbox + wakeup ─────┤
//!      │                  /jobs  → JobStore::finish (202 `queued`     │
//!      │                           answered at submit)                ▼
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
use crate::event::{
    self, Completion, Mailbox, Reactor, ReactorHandle, ReplyTo, ResponseMeta, Routed, Service,
    Transport,
};
use crate::http::{HttpError, Request};
use crate::jobs::{JobStatus, JobStore};
use crate::metrics::ServerMetrics;
use crate::sys;
use crate::wire::{self, RequestDefaults, Workload};
use snc_devices::SplitMix64;
use snc_experiments::json::Json;
use snc_experiments::runner::WorkerPool;
use snc_linalg::SdpConfig;
use snc_maxcut::{CacheStats, SdpCache, StageTimings};
use snc_metrics::Histogram;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The solve service the reactor routes into.
///
/// `store` is its own `Arc` so a worker closure can capture the store
/// without `Shared`: a queued closure must never own (and therefore
/// never be the last owner of, and drop) the pool it runs on — the
/// pool's teardown joins its workers, which must not happen on a worker
/// thread. The [`Transport`] (whose mailbox `/solve` misses deliver to)
/// is split out for the same reason: worker closures capture their sink
/// (mailbox or store), the caches, and the metrics — never `Shared` —
/// which the reactor thread owns and drops as it exits, so joining the
/// reactor deterministically drains and joins the pool.
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
    /// The reactor's shared state: the mailbox workers deliver
    /// completions to, and the connection gauges `/healthz` reports.
    pub(crate) transport: Arc<Transport>,
    /// Solve-bearing requests accepted so far (`POST /solve` +
    /// `POST /jobs`, counted whether they hit a cache, run a solve, or
    /// shed with 503). Reported on `/healthz` so an edge process can
    /// audit exactly where its routed traffic landed.
    pub(crate) solve_requests: AtomicU64,
    /// The process metric registry. Its own `Arc` so worker closures
    /// can record stage timings without capturing `Shared` (which owns
    /// the pool).
    pub(crate) metrics: Arc<ServerMetrics>,
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (accepts stopped, in-flight requests finished, worker
/// queue drained).
#[derive(Debug)]
pub struct ServerHandle {
    reactor: ReactorHandle,
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
    let metrics = Arc::new(ServerMetrics::new());
    let reactor = Reactor::bind(&cfg, &metrics.registry, "server")?;
    let shared = Shared {
        defaults: cfg.request_defaults(),
        pool: WorkerPool::bounded(cfg.threads, cfg.queue_depth),
        store: Arc::new(JobStore::new(cfg.store_capacity)),
        sdp_cache: (cfg.sdp_cache_entries > 0)
            .then(|| Arc::new(SdpCache::new(cfg.sdp_cache_entries))),
        response_cache: (cfg.response_cache_bytes > 0)
            .then(|| Arc::new(ResponseCache::new(cfg.response_cache_bytes))),
        transport: Arc::clone(reactor.transport()),
        solve_requests: AtomicU64::new(0),
        metrics,
        cfg,
    };
    Ok(ServerHandle {
        reactor: reactor.spawn(shared)?,
    })
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Requests a graceful shutdown and blocks until the reactor and the
    /// (drained) worker pool have exited. The flag is paired with a ring
    /// of the reactor's wakeup pipe, so an idle loop wakes immediately —
    /// there is no polling interval to wait out. The exiting reactor
    /// drops the service it owns — job closures capture only the
    /// store, caches, and mailbox — which tears the pool down, draining
    /// every queued job and joining the workers before the join
    /// returns.
    pub fn shutdown(mut self) {
        self.reactor.shutdown();
    }

    /// Blocks until the server exits (which, absent an external
    /// [`ServerHandle::shutdown`], is never — the binary's serve-forever
    /// mode).
    pub fn join(mut self) {
        self.reactor.join();
    }
}

/// Everything except an uncached `POST /solve` answers
/// [`Routed::Ready`] inline on the reactor (an uncached `POST /jobs`
/// answers its `202` inline and finishes on a worker).
impl Service for Shared {
    fn route(
        &self,
        request: &Request,
        _request_id: &str,
        reply_to: ReplyTo,
    ) -> Result<Routed, HttpError> {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Ok(Routed::Ready(
                200,
                healthz(self),
                ResponseMeta::new("healthz"),
            )),
            ("GET", "/metrics") => Ok(Routed::Ready(
                200,
                metrics_body(self),
                ResponseMeta::exposition(),
            )),
            ("POST", "/solve") => {
                self.solve_requests.fetch_add(1, Ordering::Relaxed);
                solve_or_dispatch(&request.body, self, Some(reply_to))
            }
            ("POST", "/jobs") => {
                self.solve_requests.fetch_add(1, Ordering::Relaxed);
                solve_or_dispatch(&request.body, self, None)
            }
            ("GET", path) if path.starts_with("/jobs/") => poll_job(path, self)
                .map(|(status, body)| Routed::Ready(status, body, ResponseMeta::new("jobs_poll"))),
            _ => event::route_common("snc-server", request),
        }
    }

    fn request_duration(&self, meta: &ResponseMeta) -> Arc<Histogram> {
        self.metrics
            .request_duration(meta.route, meta.family, meta.outcome)
    }
}

/// Renders `GET /metrics`: mirrors the externally-owned tallies (cache
/// stats, pool/queue/jobs gauges) onto the registry, then renders the
/// text exposition (the reactor's connection instruments are live on
/// the same registry). The mirrored values are read from the same
/// sources `/healthz` reports, so the two surfaces can never disagree
/// about a scrape-instant value by more than concurrent traffic.
fn metrics_body(shared: &Shared) -> String {
    let m = &shared.metrics;
    if let Some(cache) = &shared.sdp_cache {
        m.sync_cache("sdp", &cache.stats());
    }
    if let Some(cache) = &shared.response_cache {
        let s = cache.stats();
        m.sync_cache("response", &s);
        m.registry
            .gauge(
                "snc_cache_bytes",
                "Bytes resident in the cache",
                &[("cache", "response")],
            )
            .set(s.used as i64);
    }
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

fn healthz(shared: &Shared) -> String {
    let conns = shared.transport.metrics();
    // Occupancy is reported in each cache's own unit: entries for the
    // SDP cache, bytes for the response cache.
    let cache = |stats: Option<CacheStats>, occupancy: fn(&CacheStats) -> Vec<(String, Json)>| {
        let Some(stats) = stats else {
            return Json::Obj(vec![("enabled".into(), Json::Bool(false))]);
        };
        let mut members = vec![("enabled".into(), Json::Bool(true))];
        members.extend(occupancy(&stats));
        members.extend([
            ("entries".into(), Json::UInt(stats.entries)),
            ("hits".into(), Json::UInt(stats.hits)),
            ("misses".into(), Json::UInt(stats.misses)),
            ("evictions".into(), Json::UInt(stats.evictions)),
        ]);
        Json::Obj(members)
    };
    let sdp_cache = cache(shared.sdp_cache.as_ref().map(|c| c.stats()), |s| {
        vec![("capacity".into(), Json::UInt(s.capacity))]
    });
    let response_cache = cache(shared.response_cache.as_ref().map(|c| c.stats()), |s| {
        vec![
            ("capacity_bytes".into(), Json::UInt(s.capacity)),
            ("bytes".into(), Json::UInt(s.used)),
        ]
    });
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
                    Json::UInt(u64::try_from(conns.connections_active.get()).unwrap_or(0)),
                ),
                ("reaped".into(), Json::UInt(conns.connections_reaped.get())),
                ("shed".into(), Json::UInt(conns.connections_shed.get())),
                (
                    "max".into(),
                    Json::UInt(shared.cfg.max_connections as u64),
                ),
                (
                    "idle_timeout_ms".into(),
                    Json::UInt(shared.cfg.idle_timeout_ms),
                ),
                ("backend".into(), Json::str(shared.transport.backend())),
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

/// Where a response-cache miss delivers its answer: the one thing that
/// differs between `POST /solve` and `POST /jobs`.
enum Sink {
    /// `POST /solve`: the parked connection, through the mailbox.
    Reply(Arc<Mailbox>, ReplyTo, ResponseMeta),
    /// `POST /jobs`: the job record.
    Job(Arc<JobStore>, u64),
}

impl Sink {
    /// Delivers the rendered body, or the error status and message.
    fn deliver(self, result: Result<String, (u16, String)>) {
        match self {
            Sink::Reply(mailbox, reply_to, meta) => {
                let (status, body) = match result {
                    Ok(body) => (200, body),
                    Err((status, message)) => (status, wire::error_body(&message)),
                };
                mailbox.deliver(Completion { reply_to, status, body, meta });
            }
            Sink::Job(store, id) => store.finish(id, result.map_err(|(_, message)| message)),
        }
    }
}

/// The `202` body acknowledging job `id` in `status`.
fn job_receipt(id: u64, status: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::UInt(id)),
        ("status".into(), Json::str(status)),
    ])
    .render()
}

/// `POST /solve` (`reply_to` set) and `POST /jobs` (`None`): parse,
/// consult the response cache, and either answer the hit inline or
/// schedule the miss on the pool.
///
/// A hit never touches the worker pool — the stored body is byte-exact
/// by the wire contract — so `/solve` answers it directly and a job is
/// born `done`. A miss submits one worker closure that solves, records
/// the stage timings, renders, inserts the body into the cache, and
/// hands the result to its [`Sink`]: a [`Completion`] for the parked
/// connection, or the job record (answered `202 queued` at once).
fn solve_or_dispatch(
    body: &[u8],
    shared: &Shared,
    reply_to: Option<ReplyTo>,
) -> Result<Routed, HttpError> {
    let workload =
        wire::parse_request(body, &shared.defaults).map_err(|e| HttpError::new(400, e.0))?;
    let family = workload.family();
    let route = if reply_to.is_some() { "solve" } else { "jobs" };
    let meta = |outcome: &'static str| ResponseMeta {
        family,
        outcome,
        ..ResponseMeta::new(route)
    };
    let key = shared
        .response_cache
        .as_ref()
        .map(|cache| (Arc::clone(cache), wire::response_key(&workload)));
    if let Some(cached) = key.as_ref().and_then(|(cache, key)| cache.get(key)) {
        let body = String::clone(&cached);
        return Ok(match reply_to {
            Some(_) => Routed::Ready(200, body, meta("hit")),
            None => {
                let id = shared.store.insert();
                shared.store.finish(id, Ok(body));
                Routed::Ready(202, job_receipt(id, "done"), meta("hit"))
            }
        });
    }
    let (sink, job_id) = match reply_to {
        Some(reply_to) => {
            let mailbox = Arc::clone(shared.transport.mailbox());
            (Sink::Reply(mailbox, reply_to, meta("miss")), None)
        }
        None => {
            let id = shared.store.insert();
            (Sink::Job(Arc::clone(&shared.store), id), Some(id))
        }
    };
    // The closure captures the sink, caches, metrics, and defaults only
    // — never `Arc<Shared>`, which owns the pool it runs on (see the
    // `Shared` docs).
    let sdp_cache = shared.sdp_cache.clone();
    let metrics = Arc::clone(&shared.metrics);
    let defaults = shared.defaults.clone();
    let submitted = shared.pool.try_submit(move || {
        if let Sink::Job(store, id) = &sink {
            store.set_running(*id);
        }
        // `run_workload` already contains solver panics via `guarded`;
        // this catch covers rendering and the cache insert, so the sink
        // is *always* reached — a parked connection is never stranded and
        // a job record never stays `running`.
        let started = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (tree, stages) = run_workload(&workload, &defaults, sdp_cache.as_deref())?;
            let rendered = tree.render();
            if let Some((cache, key)) = key {
                cache.insert(key, rendered.clone());
            }
            let total_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            metrics.record_solve_stages(family, &stages, total_us);
            Ok(rendered)
        }))
        .unwrap_or_else(|_| Err((500, "internal error: solver panicked".to_string())));
        sink.deliver(result);
    });
    if submitted.is_err() {
        if let Some(id) = job_id {
            shared.store.remove(id);
        }
        return Err(HttpError::new(503, "solver queue is full, retry later"));
    }
    Ok(match job_id {
        None => Routed::Dispatched,
        Some(id) => Routed::Ready(202, job_receipt(id, "queued"), meta("miss")),
    })
}

/// `GET /jobs/{id}`: snapshot the record.
fn poll_job(path: &str, shared: &Shared) -> Result<(u16, String), HttpError> {
    let id: u64 = path
        .strip_prefix("/jobs/")
        .and_then(|raw| raw.parse().ok())
        .ok_or_else(|| HttpError::new(400, "job id must be an integer"))?;
    let status = shared
        .store
        .get(id)
        .ok_or_else(|| HttpError::new(404, format!("no job {id} (expired or never existed)")))?;
    let body = match status {
        // The stored result is a rendered body: embed it verbatim.
        JobStatus::Done(result) => {
            format!(r#"{{"id":{id},"status":"done","result":{result}}}"#)
        }
        JobStatus::Failed(message) => Json::Obj(vec![
            ("id".into(), Json::UInt(id)),
            ("status".into(), Json::str("failed")),
            ("error".into(), Json::str(message)),
        ])
        .render(),
        JobStatus::Queued | JobStatus::Running => job_receipt(id, status.name()),
    };
    Ok((200, body))
}
