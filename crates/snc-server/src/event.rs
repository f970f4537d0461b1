//! The readiness-driven reactor: one loop thread owns the listener, the
//! wakeup pipe, and every connection's state machine.
//!
//! The reactor is service-agnostic. Both tiers run on it: `snc-server`
//! (the solve service) and `snc-router` (the sharding edge). A
//! [`Service`] says how to route one parsed request and which latency
//! histogram its response records into; everything below that line —
//! parsing, pipelining, keep-alive, the connection budget, the idle
//! reaper, request ids, the access log, shutdown — is shared.
//!
//! ## Connection state machine
//!
//! ```text
//!            accept (under budget; over budget ⇒ 503 + close, `shed`++)
//!              │
//!              ▼
//!        ┌──────────┐  complete request, inline route   ┌──────────┐
//!   ┌───▶│ Reading  │──────────────────────────────────▶│ Flushing │
//!   │    │ (READ)   │  Routed::Dispatched               │ (WRITE)  │
//!   │    └──────────┘──────────────┐                    └──────────┘
//!   │         │                    ▼                      │      │
//!   │         │ idle deadline  ┌──────────┐  completion   │      │ close-
//!   │         │ (reaper:       │ Waiting  │──────────────▶│      │ after-
//!   │         │  `reaped`++)   │ (parked) │  via Mailbox  │      │ flush /
//!   │         ▼                └──────────┘  + wakeup     │      │ EOF
//!   │       close                                         │      ▼
//!   │                                                     │    close
//!   └─────────────────────────────────────────────────────┘
//!                   out buffer drained, keep-alive
//! ```
//!
//! * **Reading** — read interest; bytes stream into an incremental
//!   [`RequestParser`]. Received bytes do **not** extend the idle
//!   deadline (that is the slowloris defense); only a completed request
//!   cycle or write progress does.
//! * **Flushing** — write interest; the rendered response (and any
//!   pipelined successors) sit in one out-buffer that resumes across
//!   partial writes. Connections with both a parked dispatch and
//!   pending bytes stay in Flushing.
//! * **Waiting** — the service dispatched the request off the loop (the
//!   backend onto its solver pool, the router onto a forward thread);
//!   the fd is deregistered from the poller entirely (nothing is wanted
//!   from it, and a level-triggered hangup would otherwise spin the
//!   loop), so pipelined bytes queue in the kernel buffer — natural
//!   backpressure. The dispatched work delivers a [`Completion`] to the
//!   [`Mailbox`] and rings the wakeup pipe. Stale completions (the slot
//!   was reaped and reused) are discarded by generation counter.
//!
//! Pipelined requests are processed strictly in order: one request is
//! in flight per connection at a time, and responses are appended to
//! the out-buffer in arrival order, so a pipelined burst is
//! byte-identical to the same requests issued sequentially.

use crate::http::{self, HttpError, Request, RequestParser};
use crate::metrics::ReactorMetrics;
use crate::server::ServerConfig;
use crate::sys::{self, Event, Interest, Poller};
use crate::wire;
use snc_experiments::json::Json;
use snc_metrics::{AccessLog, Gauge, Histogram, Registry, RequestIds};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token for the accept socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Poller token for the wakeup pipe's read end.
const WAKEUP_TOKEN: u64 = u64::MAX - 1;
/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// What a service plugs into the reactor.
pub trait Service: Send + Sync + 'static {
    /// Routes one parsed request: answer [`Routed::Ready`] inline on
    /// the loop, or hand the work off and answer [`Routed::Dispatched`],
    /// in which case a [`Completion`] addressed to `reply_to` must later
    /// be delivered to the reactor's [`Mailbox`] — exactly once, panics
    /// included, or the connection stays parked. `request_id` is the
    /// id the response will echo. An `Err` is answered inline with its
    /// status and the connection stays alive.
    ///
    /// # Errors
    ///
    /// Returns the [`HttpError`] to answer (400/404/405/503 …).
    fn route(
        &self,
        request: &Request,
        request_id: &str,
        reply_to: ReplyTo,
    ) -> Result<Routed, HttpError>;

    /// The latency histogram a response labelled `meta` records into.
    /// Called once per label cell; the reactor caches the handle.
    fn request_duration(&self, meta: &ResponseMeta) -> Arc<Histogram>;
}

/// How [`Service::route`] answered.
#[derive(Debug)]
pub enum Routed {
    /// The reply is ready now: status, body, labels.
    Ready(u16, String, ResponseMeta),
    /// The work was handed off; the connection parks until its
    /// [`Completion`] arrives through the [`Mailbox`].
    Dispatched,
}

/// The metric labels (and content type) one response carries: static
/// strings decided by whoever produced the reply, recorded by the
/// reactor when the response is queued. Purely observational — never
/// rendered into a body.
#[derive(Clone, Copy, Debug)]
pub struct ResponseMeta {
    /// Route label (`solve`, `jobs`, `jobs_poll`, `healthz`, `metrics`,
    /// `index`, `other`).
    pub route: &'static str,
    /// Circuit family label (see [`wire::Workload::family`]), or `none`
    /// for non-solve routes.
    pub family: &'static str,
    /// Outcome: `hit` / `miss` at the backend, `relayed` at the router,
    /// `none` where nothing varies, or `error`.
    pub outcome: &'static str,
    /// The `content-type` header value for the response.
    pub content_type: &'static str,
}

impl ResponseMeta {
    /// A JSON response on `route` with no family and no outcome.
    pub fn new(route: &'static str) -> ResponseMeta {
        ResponseMeta {
            route,
            family: "none",
            outcome: "none",
            content_type: "application/json",
        }
    }

    /// The `GET /metrics` text exposition.
    pub fn exposition() -> ResponseMeta {
        ResponseMeta {
            content_type: "text/plain; version=0.0.4",
            ..ResponseMeta::new("metrics")
        }
    }

    /// A request that failed routing: same route cell as the success
    /// path (bounded cardinality: unknown paths collapse into `other`),
    /// outcome `error`.
    pub fn error(path: &str) -> ResponseMeta {
        let route = match path {
            "/healthz" => "healthz",
            "/solve" => "solve",
            "/jobs" => "jobs",
            "/metrics" => "metrics",
            "/" => "index",
            p if p.starts_with("/jobs/") => "jobs_poll",
            _ => "other",
        };
        ResponseMeta {
            outcome: "error",
            ..ResponseMeta::new(route)
        }
    }
}

/// The routes both tiers answer the same way, for a `service` that has
/// already matched its own: `GET /` (the index naming `service`), 405
/// on a known endpoint with the wrong method, 404 otherwise.
///
/// # Errors
///
/// Returns the 404/405 for anything but `GET /`.
pub fn route_common(service: &str, request: &Request) -> Result<Routed, HttpError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/") => Ok(Routed::Ready(200, index_body(service), ResponseMeta::new("index"))),
        (_, "/healthz" | "/solve" | "/jobs" | "/" | "/metrics") => {
            Err(HttpError::new(405, "method not allowed"))
        }
        (_, path) if path.starts_with("/jobs/") => Err(HttpError::new(405, "method not allowed")),
        _ => Err(HttpError::new(404, "no such endpoint")),
    }
}

fn index_body(service: &str) -> String {
    Json::Obj(vec![
        ("service".into(), Json::str(service)),
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

/// Addressing for a parked connection: which slot, and which occupancy
/// of that slot. A completion whose generation no longer matches the
/// slot's is stale (the connection died and the slot was reused) and is
/// dropped.
#[derive(Clone, Copy, Debug)]
pub struct ReplyTo {
    token: usize,
    generation: u64,
}

/// A finished dispatch, rendered and ready to frame.
#[derive(Debug)]
pub struct Completion {
    /// The parked connection to answer.
    pub reply_to: ReplyTo,
    /// HTTP status.
    pub status: u16,
    /// Response body (already error-rendered on failure).
    pub body: String,
    /// The labels the response records under.
    pub meta: ResponseMeta,
}

/// Where dispatched work leaves completions for the reactor, paired
/// with the wakeup pipe that interrupts its wait. This is the only
/// channel between other threads and the loop.
#[derive(Debug)]
pub struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    wakeup: sys::Wakeup,
    depth: Arc<Gauge>,
}

impl Mailbox {
    fn new(depth: Arc<Gauge>) -> io::Result<Mailbox> {
        Ok(Mailbox {
            completions: Mutex::new(Vec::new()),
            wakeup: sys::Wakeup::new()?,
            depth,
        })
    }

    /// Queues a completion and interrupts the reactor's wait.
    pub fn deliver(&self, completion: Completion) {
        let mut completions = self
            .completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        completions.push(completion);
        self.depth.set(completions.len() as i64);
        drop(completions);
        self.wakeup.notify();
    }

    /// Takes every pending completion and clears the wakeup pipe.
    fn drain(&self) -> Vec<Completion> {
        self.wakeup.drain();
        let mut completions = self
            .completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.depth.set(0);
        std::mem::take(&mut *completions)
    }
}

/// The state the reactor shares with its service and with dispatched
/// work: limits, the mailbox, the shutdown flag, the reactor metrics,
/// request-id minting, and the access log.
#[derive(Debug)]
pub struct Transport {
    max_connections: usize,
    idle: Duration,
    max_body_bytes: usize,
    send_buffer_bytes: usize,
    backend: &'static str,
    mailbox: Arc<Mailbox>,
    shutdown: AtomicBool,
    metrics: ReactorMetrics,
    request_ids: RequestIds,
    access_log: Option<AccessLog>,
}

impl Transport {
    /// Where dispatched work delivers its [`Completion`]s.
    pub fn mailbox(&self) -> &Arc<Mailbox> {
        &self.mailbox
    }

    /// The live reactor instruments (connection gauges, reaper and
    /// shedding totals, tick timers).
    pub fn metrics(&self) -> &ReactorMetrics {
        &self.metrics
    }

    /// Which readiness backend the loop runs (`"epoll"`/`"poll"`).
    pub fn backend(&self) -> &'static str {
        self.backend
    }
}

/// A bound listener and poller, not yet serving: build the service
/// around [`Reactor::transport`], then [`Reactor::spawn`] it.
#[derive(Debug)]
pub struct Reactor {
    listener: TcpListener,
    poller: Poller,
    transport: Arc<Transport>,
}

impl Reactor {
    /// Binds `cfg.addr` and opens the poller (`cfg.backend`), the wakeup
    /// pipe, and the access log. The reactor enforces `cfg`'s
    /// `max_connections`, `idle_timeout_ms`, `max_body_bytes`, and
    /// `send_buffer_bytes`, and registers its instruments on `registry`
    /// (`layer` names the service in the reaper/shed totals).
    ///
    /// # Errors
    ///
    /// Propagates bind, poller, pipe, and access-log failures.
    pub fn bind(cfg: &ServerConfig, registry: &Registry, layer: &str) -> io::Result<Reactor> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new(cfg.backend)?;
        let metrics = ReactorMetrics::register(registry, layer);
        let access_log = match &cfg.access_log {
            Some(path) => Some(AccessLog::open_rotating(path, cfg.access_log_max_bytes)?),
            None => None,
        };
        let transport = Arc::new(Transport {
            max_connections: cfg.max_connections,
            idle: Duration::from_millis(cfg.idle_timeout_ms.max(1)),
            max_body_bytes: cfg.max_body_bytes,
            send_buffer_bytes: cfg.send_buffer_bytes,
            backend: poller.backend_name(),
            mailbox: Arc::new(Mailbox::new(Arc::clone(&metrics.mailbox_depth))?),
            shutdown: AtomicBool::new(false),
            metrics,
            request_ids: RequestIds::from_env(),
            access_log,
        });
        Ok(Reactor {
            listener,
            poller,
            transport,
        })
    }

    /// The shared state the service (and its dispatched work) uses.
    pub fn transport(&self) -> &Arc<Transport> {
        &self.transport
    }

    /// Starts the loop thread serving `service`, which the thread owns
    /// and drops as it exits (so joining the reactor also tears the
    /// service down).
    ///
    /// # Errors
    ///
    /// Propagates the bound address lookup and thread spawn failures.
    pub fn spawn<S: Service>(self, service: S) -> io::Result<ReactorHandle> {
        let addr = self.listener.local_addr()?;
        let transport = Arc::clone(&self.transport);
        let thread = std::thread::Builder::new()
            .name("snc-reactor".into())
            .spawn(move || run(self, &service))?;
        Ok(ReactorHandle {
            addr,
            transport,
            thread: Some(thread),
        })
    }
}

/// A running reactor. Dropping it shuts the loop down gracefully.
#[derive(Debug)]
pub struct ReactorHandle {
    addr: SocketAddr,
    transport: Arc<Transport>,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the loop exits (never, absent a shutdown).
    pub fn join(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Sets the shutdown flag, rings the wakeup pipe — so an idle loop
    /// wakes immediately, with no polling interval to wait out — and
    /// joins the loop. It stops accepting, closes idle keep-alive
    /// connections, finishes dispatched requests and pending writes,
    /// then exits.
    pub fn shutdown(&mut self) {
        self.transport.shutdown.store(true, Ordering::SeqCst);
        self.transport.mailbox.wakeup.notify();
        self.join();
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A request being answered: how to frame, time, and label its reply
/// (kept on the connection while the request is dispatched).
struct InFlight {
    keep_alive: bool,
    started: Instant,
    request_id: String,
}

/// One connection's state.
struct Conn {
    stream: TcpStream,
    /// Occupancy counter (distinguishes this tenant of the slot from
    /// past and future ones in completion tokens).
    generation: u64,
    parser: RequestParser,
    /// Rendered-but-unsent response bytes; `out_pos` is the resume
    /// point after a partial write.
    out: Vec<u8>,
    out_pos: usize,
    /// `Some` while a request is dispatched off the loop.
    waiting: Option<InFlight>,
    /// Close once `out` drains (response had `Connection: close`, or a
    /// parse error was answered).
    close_after_flush: bool,
    /// The peer will send no more bytes (EOF or half-close observed);
    /// finish writing, then close.
    read_closed: bool,
    /// Current poller registration (`None` = deregistered, e.g. parked).
    registered: Option<Interest>,
    /// Idle deadline: start of the current request cycle plus the idle
    /// timeout. **Not** advanced by received bytes.
    deadline: Instant,
}

impl Conn {
    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

struct Loop<'s, S> {
    listener: TcpListener,
    poller: Poller,
    transport: Arc<Transport>,
    service: &'s S,
    conns: Vec<Option<Conn>>,
    /// Slot indices free for reuse.
    free: Vec<usize>,
    /// Slots freed during the current tick; recycled only after the
    /// event batch so a stale readiness event cannot alias a fresh
    /// tenant within one batch.
    freed_this_tick: Vec<usize>,
    next_generation: u64,
    accepting: bool,
    /// Loop-local cache of request-duration histogram handles keyed
    /// by `[route, family, outcome]`, so the warm path records with a
    /// hash probe and three relaxed atomics instead of taking the
    /// registry lock.
    request_histograms: HashMap<[&'static str; 3], Arc<Histogram>>,
}

/// Runs the reactor until shutdown.
fn run<S: Service>(reactor: Reactor, service: &S) {
    let Reactor {
        listener,
        poller,
        transport,
    } = reactor;
    let mut reactor = Loop {
        listener,
        poller,
        transport,
        service,
        conns: Vec::new(),
        free: Vec::new(),
        freed_this_tick: Vec::new(),
        next_generation: 0,
        accepting: true,
        request_histograms: HashMap::new(),
    };
    let listener_fd = reactor.listener.as_raw_fd();
    let wakeup_fd = reactor.transport.mailbox.wakeup.read_fd();
    if reactor
        .poller
        .add(listener_fd, LISTENER_TOKEN, Interest::READ)
        .is_err()
        || reactor
            .poller
            .add(wakeup_fd, WAKEUP_TOKEN, Interest::READ)
            .is_err()
    {
        return;
    }
    let mut events: Vec<Event> = Vec::with_capacity(512);
    loop {
        if reactor.transport.shutdown.load(Ordering::SeqCst) {
            reactor.begin_shutdown();
            if reactor.live_connections() == 0 {
                break;
            }
        }
        let timeout = reactor.next_timeout();
        let wait_started = Instant::now();
        if reactor.poller.wait(&mut events, timeout).is_err() {
            break;
        }
        let work_started = Instant::now();
        let metrics = &reactor.transport.metrics;
        metrics
            .poll_wait_us
            .record(micros(work_started.duration_since(wait_started)));
        for i in 0..events.len() {
            let ev = events[i];
            match ev.token {
                LISTENER_TOKEN => reactor.accept_burst(),
                WAKEUP_TOKEN => {} // drained with the mailbox below
                token => reactor.conn_event(token as usize, ev),
            }
        }
        reactor.drain_completions();
        reactor.reap();
        let mut freed = std::mem::take(&mut reactor.freed_this_tick);
        reactor.free.append(&mut freed);
        let metrics = &reactor.transport.metrics;
        metrics.work_us.record(micros(work_started.elapsed()));
        metrics.ticks.inc();
    }
}

/// Saturating `Duration` → whole microseconds for histogram recording.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl<S: Service> Loop<'_, S> {
    fn live_connections(&self) -> usize {
        self.conns.iter().flatten().count()
    }

    /// Idempotent: stop accepting and close every connection that is
    /// neither parked on a solve nor mid-flush. Called on every tick
    /// once the shutdown flag is up, so connections finishing their
    /// in-flight work are torn down promptly.
    fn begin_shutdown(&mut self) {
        if self.accepting {
            self.poller.remove(self.listener.as_raw_fd());
            self.accepting = false;
        }
        let idle: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(token, slot)| slot.as_ref().map(|conn| (token, conn)))
            .filter(|(_, conn)| conn.waiting.is_none() && !conn.out_pending())
            .map(|(token, _)| token)
            .collect();
        for token in idle {
            self.close_conn(token, false);
        }
    }

    /// The nearest idle deadline among deadline-bearing connections
    /// (parked connections with nothing to write are exempt), or `None`
    /// to wait indefinitely for readiness or a wakeup.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.conns
            .iter()
            .flatten()
            .filter(|conn| conn.waiting.is_none() || conn.out_pending())
            .map(|conn| conn.deadline.saturating_duration_since(now))
            .min()
    }

    fn accept_burst(&mut self) {
        loop {
            if !self.accepting {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let active = self.transport.metrics.connections_active.get();
                    if active >= self.transport.max_connections as i64 {
                        self.shed(&stream);
                    } else {
                        self.admit(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failure (e.g. the peer already reset);
                // the listener stays registered, so just yield this burst.
                Err(_) => return,
            }
        }
    }

    /// Over budget: answer a fast, clean 503 and close. The accepted
    /// socket is still blocking (accept does not inherit `O_NONBLOCK`),
    /// but a ~150-byte write into a fresh send buffer cannot block.
    fn shed(&mut self, mut stream: &TcpStream) {
        let body = wire::error_body("connection budget exhausted, retry later");
        let bytes = http::render_response(503, &[], body.as_bytes(), false);
        let _ = stream.set_nodelay(true);
        let _ = stream.write_all(&bytes);
        self.transport.metrics.connections_shed.inc();
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Without NODELAY the final partial segment of a response sits
        // in Nagle's queue waiting for the client's delayed ACK
        // (~40 ms), which would swamp the microsecond-scale cache-hit
        // path entirely.
        let _ = stream.set_nodelay(true);
        if self.transport.send_buffer_bytes > 0 {
            let _ = sys::set_send_buffer(stream.as_raw_fd(), self.transport.send_buffer_bytes);
        }
        self.next_generation += 1;
        let conn = Conn {
            stream,
            generation: self.next_generation,
            parser: RequestParser::new(self.transport.max_body_bytes),
            out: Vec::new(),
            out_pos: 0,
            waiting: None,
            close_after_flush: false,
            read_closed: false,
            registered: None,
            deadline: Instant::now() + self.transport.idle,
        };
        let token = match self.free.pop() {
            Some(token) => {
                self.conns[token] = Some(conn);
                token
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.transport.metrics.connections_active.inc();
        self.apply_interest(token, Some(Interest::READ));
    }

    fn close_conn(&mut self, token: usize, reaped: bool) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        if conn.registered.is_some() {
            // Deregister before the fd closes so the poll backend's
            // table never holds a dead fd.
            self.poller.remove(conn.stream.as_raw_fd());
        }
        if conn.waiting.is_some() {
            // A parked connection died before its reply landed; keep
            // the waiting gauge honest.
            self.transport.metrics.connections_waiting.dec();
        }
        self.transport.metrics.connections_active.dec();
        if reaped {
            self.transport.metrics.connections_reaped.inc();
        }
        self.freed_this_tick.push(token);
    }

    /// Reconciles a connection's poller registration with what it
    /// currently wants (`None` deregisters, e.g. while parked).
    fn apply_interest(&mut self, token: usize, want: Option<Interest>) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let fd = conn.stream.as_raw_fd();
        match (conn.registered, want) {
            (Some(_), None) => {
                self.poller.remove(fd);
                conn.registered = None;
            }
            (None, Some(interest)) => {
                if self.poller.add(fd, token as u64, interest).is_ok() {
                    conn.registered = Some(interest);
                } else {
                    self.close_conn(token, false);
                }
            }
            (Some(current), Some(interest)) if current != interest => {
                if self.poller.modify(fd, token as u64, interest).is_ok() {
                    conn.registered = Some(interest);
                } else {
                    self.close_conn(token, false);
                }
            }
            _ => {}
        }
    }

    fn conn_event(&mut self, token: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return; // stale: the slot was closed earlier in this batch
        };
        if conn.waiting.is_some() && !conn.out_pending() {
            // Parked with nothing to write: the only reportable thing is
            // a peer hangup. Deregister so the level-triggered condition
            // does not spin the loop; the completion path will attempt
            // the write and discover the socket's fate.
            if ev.closed {
                conn.read_closed = true;
                self.apply_interest(token, None);
            }
            return;
        }
        if ev.writable && !self.flush(token) {
            return;
        }
        if ev.readable || ev.closed {
            self.read_input(token);
        }
        self.settle(token);
    }

    /// Drains the socket into the parser, then processes any complete
    /// requests. Stops at `WouldBlock`, at EOF, or when the connection
    /// parks on a dispatched solve.
    fn read_input(&mut self, token: usize) {
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.waiting.is_some() || conn.close_after_flush || conn.read_closed {
                break;
            }
            match (&conn.stream).read(&mut scratch) {
                Ok(0) => {
                    // EOF (or half-close). Whatever complete requests
                    // are already buffered still get answered below;
                    // `settle` closes once the out-buffer drains.
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.parser.push(&scratch[..n]);
                    // Process as we go so a pipelined burst larger than
                    // one chunk dispatches its first solve promptly.
                    self.process_requests(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token, false);
                    return;
                }
            }
        }
        self.process_requests(token);
        self.flush(token);
    }

    /// Pulls complete requests out of the parser, strictly in order,
    /// routing each inline or parking the connection on a dispatch.
    fn process_requests(&mut self, token: usize) {
        loop {
            let shutting_down = self.transport.shutdown.load(Ordering::SeqCst);
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.waiting.is_some() || conn.close_after_flush {
                return;
            }
            let started = Instant::now();
            let next = conn.parser.next_request();
            if conn.parser.take_continue_pending() {
                // The interim 100 rides the same out-buffer, so it is
                // ordered before the final response even under
                // pipelining.
                conn.out.extend_from_slice(http::CONTINUE_INTERIM);
            }
            let request = match next {
                Ok(None) => return,
                Ok(Some(request)) => request,
                Err(e) => {
                    // Transport-level parse error: answer without the
                    // tracing headers and close.
                    let body = wire::error_body(&e.message);
                    let bytes = http::render_response(e.status, &[], body.as_bytes(), false);
                    conn.out.extend_from_slice(&bytes);
                    conn.deadline = Instant::now() + self.transport.idle;
                    conn.close_after_flush = true;
                    return;
                }
            };
            let keep_alive = request.keep_alive && !shutting_down;
            // Honor a well-formed client-supplied id (the router relies
            // on this to correlate retries across backends); mint a
            // fresh one otherwise.
            let request_id = match request.request_id.as_deref() {
                Some(id) if snc_metrics::valid_request_id(id) => id.to_string(),
                _ => self.transport.request_ids.mint(),
            };
            let reply_to = ReplyTo {
                token,
                generation: conn.generation,
            };
            let (status, body, meta) = match self.service.route(&request, &request_id, reply_to) {
                Ok(Routed::Ready(status, body, meta)) => (status, body, meta),
                Ok(Routed::Dispatched) => {
                    self.transport.metrics.connections_waiting.inc();
                    conn.waiting = Some(InFlight {
                        keep_alive,
                        started,
                        request_id,
                    });
                    continue;
                }
                // Routing errors (400/404/405/503) keep the connection
                // alive if the client asked for keep-alive.
                Err(e) => (
                    e.status,
                    wire::error_body(&e.message),
                    ResponseMeta::error(&request.path),
                ),
            };
            let answered = InFlight {
                keep_alive,
                started,
                request_id,
            };
            self.queue_response(token, &answered, status, &body, &meta);
        }
    }

    /// Writes as much of the out-buffer as the socket will take.
    /// Returns `false` if the connection was closed by a write failure.
    fn flush(&mut self, token: usize) -> bool {
        loop {
            let idle = self.transport.idle;
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return false;
            };
            if !conn.out_pending() {
                conn.out.clear();
                conn.out_pos = 0;
                return true;
            }
            match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(token, false);
                    return false;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    // Write progress is liveness: a slow-but-draining
                    // client earns deadline extensions; a stalled one
                    // does not.
                    conn.deadline = Instant::now() + idle;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token, false);
                    return false;
                }
            }
        }
    }

    /// Post-progress bookkeeping: close if finished, otherwise
    /// reconcile poller interest with the connection's state.
    fn settle(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let out_pending = conn.out_pending();
        if !out_pending && conn.waiting.is_none() && (conn.close_after_flush || conn.read_closed) {
            self.close_conn(token, false);
            return;
        }
        let want = if out_pending {
            Some(Interest::WRITE)
        } else if conn.waiting.is_some() || conn.read_closed {
            None
        } else {
            Some(Interest::READ)
        };
        self.apply_interest(token, want);
    }

    /// Delivers finished dispatches to their parked connections,
    /// dropping stale ones (slot closed or reused since dispatch).
    fn drain_completions(&mut self) {
        for completion in self.transport.mailbox.drain() {
            let token = completion.reply_to.token;
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            if conn.generation != completion.reply_to.generation {
                continue;
            }
            let Some(waiting) = conn.waiting.take() else {
                continue;
            };
            self.transport.metrics.connections_waiting.dec();
            self.queue_response(
                token,
                &waiting,
                completion.status,
                &completion.body,
                &completion.meta,
            );
            // Un-park: resume any pipelined requests that queued behind
            // this dispatch, then push bytes.
            self.process_requests(token);
            self.flush(token);
            self.settle(token);
        }
    }

    /// Closes connections past their idle deadline. Parked connections
    /// with nothing to write are exempt (their liveness is the worker's
    /// problem); a mid-request trickler gets a best-effort 408 so the
    /// slowloris sees *why* it died.
    fn reap(&mut self) {
        let now = Instant::now();
        let expired: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(token, slot)| slot.as_ref().map(|conn| (token, conn)))
            .filter(|(_, conn)| conn.waiting.is_none() || conn.out_pending())
            .filter(|(_, conn)| now >= conn.deadline)
            .map(|(token, _)| token)
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            if !conn.parser.is_between_requests() && !conn.out_pending() {
                let body = wire::error_body("timed out waiting for a complete request");
                let bytes = http::render_response(408, &[], body.as_bytes(), false);
                let _ = (&conn.stream).write(&bytes);
            }
            self.close_conn(token, true);
        }
    }

    /// Renders and queues one framed response, starting a fresh idle
    /// cycle. Also the single observability funnel for routed requests:
    /// records the latency histogram cell, echoes the request id, and
    /// emits the access-log line. Transport errors (parse 4xx, shed 503,
    /// reap 408) deliberately bypass this — they carry no tracing
    /// headers.
    fn queue_response(
        &mut self,
        token: usize,
        request: &InFlight,
        status: u16,
        body: &str,
        meta: &ResponseMeta,
    ) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let elapsed = micros(request.started.elapsed());
        let extra = [
            ("x-snc-elapsed-us", elapsed.to_string()),
            ("x-snc-request-id", request.request_id.clone()),
        ];
        let bytes = http::render_response_typed(
            status,
            meta.content_type,
            &extra,
            body.as_bytes(),
            request.keep_alive,
        );
        conn.out.extend_from_slice(&bytes);
        conn.deadline = Instant::now() + self.transport.idle;
        if !request.keep_alive {
            conn.close_after_flush = true;
        }
        let service = self.service;
        self.request_histograms
            .entry([meta.route, meta.family, meta.outcome])
            .or_insert_with(|| service.request_duration(meta))
            .record(elapsed);
        if let Some(log) = &self.transport.access_log {
            log.write(&format!(
                "id={} route={} family={} outcome={} status={status} us={elapsed}",
                request.request_id, meta.route, meta.family, meta.outcome
            ));
        }
    }
}
