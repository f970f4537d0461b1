//! `ladderbench` — the request-ladder benchmark.
//!
//! One run spawns a fresh fleet (one `snc-router` in front of two
//! `--threads 1` `snc-server` backends), drives one workload through it
//! from a closed-loop client holding two persistent keep-alive
//! connections for `--seconds`, checks every answer, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced replay of the same seeded requests (`--trace 1`). The last
//! line of standard output is the JSON result; the command exits
//! non-zero when any answer or fleet counter is wrong.
//!
//! See `ladderbench/README.md` for the workloads and how to run it.

mod check;
mod fleet;
mod layers;
mod load;
mod span;
mod stats;
mod workload;

use check::{check_cut, solve_in_process, Graphs};
use fleet::{Conn, Fleet, Scrape, BACKENDS};
use load::{ConnLog, Traffic};
use snc_experiments::json::Json;
use snc_server::wire::{self, RequestDefaults};
use snc_server::{ResponseCache, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{cold_request, primed_requests, warm_corpus, Request, Workload};

const USAGE: &str = "usage: ladderbench --workload cold-sdp|cold-sampling|warm-hit --seed N --seconds N --trace 0|1";
/// Set-ups per run; `setup_s` is their median and the last fleet runs
/// the load.
const SETUPS: usize = 5;
/// Seconds the closed loop runs before the timed `--seconds` begin, so
/// that dataset loads and first allocations in the fleet are not timed.
/// Their requests are still checked.
const LEAD_IN_S: u64 = 3;
/// Persistent client connections (the closed loop's width).
const CONNS: usize = 2;
/// Generator stream of the queue-wait probes in the traced run, and of
/// the one background connection that runs beside them (probe plus
/// background keep the closed loop's two requests in flight).
const PROBE_STREAM: u64 = 2;
const BACKGROUND_STREAMS: [u64; 1] = [3];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a non-negative integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Failures of the correctness gate, counted per request.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Gate {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    fn absorb(&mut self, logs: &[ConnLog]) {
        for log in logs {
            self.attempted += log.attempted;
            self.failed += log.failed;
            self.errors.extend(
                log.errors
                    .iter()
                    .take(20usize.saturating_sub(self.errors.len()))
                    .cloned(),
            );
        }
    }
}

/// A fleet after set-up, with the connections the run uses.
struct Ready {
    fleet: Fleet,
    /// The closed loop's connections to the router.
    clients: Vec<Conn>,
    /// A router connection for scrapes and routed replays.
    control: Conn,
    /// One connection straight to each backend.
    direct: Vec<Conn>,
    /// `warm-hit`: the body each corpus entry answered during warm-up.
    reference: Vec<String>,
}

/// Spawns a fleet, waits until it answers, and warms it for the
/// workload: `cold-sampling` primes the SdpCache, `warm-hit` fills the
/// response cache with the corpus.
fn setup(
    workload: Workload,
    seed: u64,
    corpus: &[Request],
    graphs: &mut Graphs,
    gate: &mut Gate,
) -> Result<Ready, String> {
    let fleet = Fleet::spawn();
    let open = |addr| Conn::open(addr).map_err(|e| format!("connect to {addr}: {e}"));
    let mut clients = (0..CONNS)
        .map(|_| open(fleet.router_addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut control = open(fleet.router_addr())?;
    let direct = open_direct(&fleet)?;
    for conn in clients.iter_mut().chain(std::iter::once(&mut control)) {
        let health = conn
            .get("/healthz")
            .map_err(|e| format!("router /healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!(
                "router /healthz answered {}: {}",
                health.status, health.body
            ));
        }
    }
    let warm: Vec<Request> = match workload {
        Workload::ColdSdp => Vec::new(),
        Workload::ColdSampling => primed_requests(seed),
        Workload::WarmHit => corpus.to_vec(),
    };
    let mut reference = Vec::with_capacity(warm.len());
    for request in &warm {
        gate.attempted += 1;
        let response = control
            .roundtrip(&request.http_bytes())
            .map_err(|e| format!("warm-up: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "warm-up answered {}: {}",
                response.status, response.body
            ));
        }
        if let Err(e) = check_cut(&graphs.edges(&request.source), &response.body) {
            gate.fail(format!("warm-up {}: {e}", request.body));
        }
        reference.push(response.body);
    }
    Ok(Ready {
        fleet,
        clients,
        control,
        direct,
        reference,
    })
}

/// `/metrics` of the router and of each backend.
struct FleetScrape {
    router: Scrape,
    backends: Vec<Scrape>,
}

fn open_direct(fleet: &Fleet) -> Result<Vec<Conn>, String> {
    (0..BACKENDS)
        .map(|i| {
            Conn::open(fleet.backend_addr(i)).map_err(|e| format!("connect to backend {i}: {e}"))
        })
        .collect()
}

fn scrape(ready: &mut Ready) -> Result<FleetScrape, String> {
    // Backends reap connections idle past their idle deadline, which a
    // long run outlasts, so every scrape starts on fresh ones.
    ready.direct = open_direct(&ready.fleet)?;
    let router = Scrape::fetch(&mut ready.control).map_err(|e| format!("router /metrics: {e}"))?;
    let backends = ready
        .direct
        .iter_mut()
        .map(|conn| Scrape::fetch(conn).map_err(|e| format!("backend /metrics: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(FleetScrape { router, backends })
}

/// The counter deltas between two fleet scrapes.
struct Deltas {
    routed: f64,
    router_failed: f64,
    retries: f64,
    pool_reused: f64,
    pool_created: f64,
    per_backend_routed: Vec<f64>,
    served: f64,
    response_hits: f64,
    response_misses: f64,
    sdp_hits: f64,
    sdp_misses: f64,
}

impl Deltas {
    fn between(before: &FleetScrape, after: &FleetScrape, fleet: &Fleet) -> Deltas {
        let router = |series: &str| after.router.delta(&before.router, series);
        let backends = |series: &str| -> f64 {
            after
                .backends
                .iter()
                .zip(&before.backends)
                .map(|(a, b)| a.delta(b, series))
                .sum()
        };
        Deltas {
            routed: router("snc_router_requests_routed_total"),
            router_failed: router("snc_router_requests_failed_total"),
            retries: router("snc_router_retries_total"),
            pool_reused: router("snc_router_pool_reused_total"),
            pool_created: router("snc_router_pool_created_total"),
            per_backend_routed: (0..BACKENDS)
                .map(|i| {
                    router(&format!(
                        "snc_router_backend_routed_total{{backend=\"{}\"}}",
                        fleet.backend_addr(i)
                    ))
                })
                .collect(),
            served: backends("snc_server_solve_requests_total"),
            response_hits: backends("snc_cache_hits_total{cache=\"response\"}"),
            response_misses: backends("snc_cache_misses_total{cache=\"response\"}"),
            sdp_hits: backends("snc_cache_hits_total{cache=\"sdp\"}"),
            sdp_misses: backends("snc_cache_misses_total{cache=\"sdp\"}"),
        }
    }

    /// The fleet accounting cross-check against what the client sent.
    fn check(&self, sent: u64, gate: &mut Gate) {
        let sent = sent as f64;
        if self.routed + self.router_failed != sent {
            gate.fail(format!(
                "router accounted {} routed + {} failed for {sent} requests sent",
                self.routed, self.router_failed
            ));
        }
        if self.served != sent + self.retries {
            gate.fail(format!(
                "backends served {} solve requests for {sent} sent (+{} retries)",
                self.served, self.retries
            ));
        }
        let per_backend: f64 = self.per_backend_routed.iter().sum();
        if per_backend != self.routed {
            gate.fail(format!(
                "per-backend routed counts sum to {per_backend}, router total is {}",
                self.routed
            ));
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Checks every cold 200 body against its generated graph.
fn check_cold_bodies(
    workload: Workload,
    seed: u64,
    streams: &[u64],
    logs: &[ConnLog],
    graphs: &mut Graphs,
    gate: &mut Gate,
) {
    for (log, &stream) in logs.iter().zip(streams) {
        for (index, body) in &log.bodies {
            let request = cold_request(workload, seed, stream, *index);
            if let Err(e) = check_cut(&graphs.edges(&request.source), body) {
                gate.fail(format!("stream {stream} request {index}: {e}"));
            }
        }
    }
}

/// The seeded sample of a run: the first cycle of each connection's
/// stream (cold), or the whole corpus (warm).
fn sample(workload: Workload, seed: u64, corpus: &[Request]) -> Vec<(usize, u64, Request)> {
    match workload {
        Workload::WarmHit => corpus
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (0, i as u64, r))
            .collect(),
        _ => (0..CONNS)
            .flat_map(|c| {
                (0..workload.kinds() as u64)
                    .map(move |i| (c, i, cold_request(workload, seed, c as u64, i)))
            })
            .collect(),
    }
}

/// Byte-identity of the sample against in-process solves; returns the
/// mean cut fraction over the sample.
fn check_sample(
    ready: &Ready,
    workload: Workload,
    samples: &[(usize, u64, Request)],
    logs: &[ConnLog],
    defaults: &RequestDefaults,
    graphs: &mut Graphs,
    gate: &mut Gate,
) -> f64 {
    let mut fractions = Vec::with_capacity(samples.len());
    let mut by_kind: std::collections::BTreeMap<(&str, String), Vec<f64>> = Default::default();
    for (c, index, request) in samples {
        let served = match workload {
            Workload::WarmHit => Some(&ready.reference[*index as usize]),
            _ => logs[*c]
                .bodies
                .iter()
                .find(|(i, _)| i == index)
                .map(|(_, body)| body),
        };
        let Some(served) = served else {
            gate.fail(format!(
                "sampled request {index} of connection {c} got no 200 in the run"
            ));
            continue;
        };
        match solve_in_process(request, defaults, None) {
            Ok(rendered) if &rendered == served => {
                match check_cut(&graphs.edges(&request.source), &rendered) {
                    Ok(fraction) => {
                        fractions.push(fraction);
                        by_kind
                            .entry((request.family, request.source.label()))
                            .or_default()
                            .push(fraction);
                    }
                    Err(e) => gate.fail(format!("in-process render of {}: {e}", request.body)),
                }
            }
            Ok(_) => gate.fail(format!(
                "fleet body differs from the in-process render for {}",
                request.body
            )),
            Err(e) => gate.fail(format!("in-process solve failed for {}: {e}", request.body)),
        }
    }
    for ((family, graph), values) in &by_kind {
        println!(
            "cut fraction  {family:<13} {graph:<34} {:.4}",
            stats::mean(values)
        );
    }
    if workload == Workload::WarmHit {
        for (c, log) in logs.iter().enumerate() {
            if log.attempted < workload::CORPUS_SIZE as u64 {
                gate.fail(format!(
                    "connection {c} sent {} requests, fewer than the corpus",
                    log.attempted
                ));
            }
        }
    }
    stats::mean(&fractions)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checkout's commit, when the working directory is the top of a
/// git work tree (a plain source tree inside some other repository
/// must not report that repository's commit).
fn commit() -> Option<String> {
    let top = command_output("git", &["rev-parse", "--show-toplevel"])?;
    let cwd = std::env::current_dir().ok()?;
    (std::path::Path::new(&top).canonicalize().ok()? == cwd.canonicalize().ok()?)
        .then(|| command_output("git", &["rev-parse", "HEAD"]))?
}

/// `(steal, total)` ticks of all CPUs from `/proc/stat`, when readable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Run metadata recorded with every result.
fn metadata(args: &Args, attempted: u64, steal_share: Option<f64>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::UInt(args.seed)),
        ("run_seconds".into(), Json::UInt(args.seconds)),
        ("lead_in_seconds".into(), Json::UInt(LEAD_IN_S)),
        ("trace".into(), Json::Bool(args.trace)),
        ("requests".into(), Json::UInt(attempted)),
        // The share of the machine's CPU time the hypervisor gave to other
        // guests during the loop: on a shared box it explains most of the
        // run-to-run spread of the timings.
        (
            "cpu_steal_share".into(),
            steal_share.map_or(Json::Null, Json::Num),
        ),
        ("nproc".into(), Json::UInt(nproc)),
        ("cpu".into(), Json::str(cpu)),
        (
            "rustc".into(),
            Json::str(command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "commit".into(),
            Json::str(commit().unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ),
    ])
}

/// Appends one result line to the ledger beside the build output.
fn append_ledger(line: &str) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
    else {
        return;
    };
    use std::io::Write as _;
    let path = dir.join("ladderbench-ledger.jsonl");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = written {
        eprintln!("ladderbench: cannot append to {}: {e}", path.display());
    }
}

type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> Result<bool, String> {
    let (workload, seed) = (args.workload, args.seed);
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let defaults = config.request_defaults();
    let corpus = if workload == Workload::WarmHit {
        warm_corpus(seed)
    } else {
        Vec::new()
    };
    let mut graphs = Graphs::default();
    let mut gate = Gate::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let started = Instant::now();
        ready = Some(setup(workload, seed, &corpus, &mut graphs, &mut gate)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("at least one set-up");
    let router = ready.fleet.router_addr();

    let streams: Vec<u64> = (0..CONNS as u64).collect();
    let traffic = match workload {
        Workload::WarmHit => Traffic::Warm {
            bytes: corpus.iter().map(Request::http_bytes).collect(),
            reference: ready.reference.clone(),
        },
        _ => Traffic::Cold {
            workload,
            seed,
            streams: streams.clone(),
        },
    };
    let before = scrape(&mut ready)?;
    let cpu_before = cpu_ticks();
    let deadline = Instant::now() + Duration::from_secs(LEAD_IN_S + args.seconds);
    let started = Instant::now();
    let logs = load::run(&mut ready.clients, router, &traffic, &|| {
        Instant::now() >= deadline
    });
    let wall_s = started.elapsed().as_secs_f64();
    let steal_share = match (cpu_before, cpu_ticks()) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
            Some((steal1 - steal0) as f64 / (total1 - total0) as f64)
        }
        _ => None,
    };
    let after = scrape(&mut ready)?;
    let rss_mb = ready.fleet.backend_peak_rss_mb();

    let sent: u64 = logs.iter().map(|l| l.attempted).sum();
    gate.absorb(&logs);
    if workload != Workload::WarmHit {
        check_cold_bodies(workload, seed, &streams, &logs, &mut graphs, &mut gate);
    }
    let deltas = Deltas::between(&before, &after, &ready.fleet);
    deltas.check(sent, &mut gate);
    let samples = sample(workload, seed, &corpus);
    let cut_fraction = check_sample(
        &ready,
        workload,
        &samples,
        &logs,
        &defaults,
        &mut graphs,
        &mut gate,
    );

    let loop_samples: Vec<(f64, f64, bool)> = logs
        .iter()
        .flat_map(|l| {
            l.samples
                .iter()
                .map(|s| (s.completed_s - LEAD_IN_S as f64, s.latency_ms, s.ok))
        })
        .collect();
    let figures = stats::figures(&loop_samples, args.seconds);
    let mean_ms = stats::mean(
        &loop_samples
            .iter()
            .filter(|s| s.0 >= 0.0 && s.0 < args.seconds as f64)
            .map(|s| s.1)
            .collect::<Vec<_>>(),
    );

    println!(
        "ladderbench {} seed={seed} seconds={} trace={}",
        workload.name(),
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "set-up (spawn + readiness + warm-up), {SETUPS} times: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "closed loop: {CONNS} keep-alive connections through snc-router → {BACKENDS} snc-server --threads 1; {sent} requests in {wall_s:.2}s"
    );
    println!(
        "timed {} s after a {LEAD_IN_S}-s lead-in: throughput, p50 and p99 over the whole timed run; the percentiles rest on {} samples ({} beyond the p99){}",
        args.seconds,
        figures.samples,
        stats::samples_beyond(figures.samples, 0.99),
        if stats::samples_beyond(figures.samples, 0.99) < 10 { " — fewer than 10 beyond: lengthen --seconds" } else { "" }
    );
    println!(
        "accounting: routed {} (+{} failed, {} retries), served {}, per backend {:?}",
        deltas.routed,
        deltas.router_failed,
        deltas.retries,
        deltas.served,
        deltas.per_backend_routed
    );

    let metrics: Vec<Metric> = if args.trace {
        traced(
            &mut ready,
            args,
            &defaults,
            &config,
            &samples,
            (figures.p50_ms, mean_ms),
            &deltas,
            &mut graphs,
            &mut gate,
        )?
    } else {
        vec![
            ("throughput_rps", figures.throughput_rps, "1/s"),
            ("latency_p50_ms", figures.p50_ms, "ms"),
            ("latency_p99_ms", figures.p99_ms, "ms"),
            (
                "success_rate",
                1.0 - ratio(gate.failed as f64, gate.attempted as f64),
                "ratio",
            ),
            ("cut_fraction", cut_fraction, "ratio"),
            ("setup_s", stats::median(&setup_s), "s"),
            ("backend_peak_rss_mb", rss_mb, "MiB"),
        ]
    };
    drop(ready);

    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    for error in &gate.errors {
        println!("FAILED: {error}");
    }
    let correct = gate.failed == 0;
    let meta = metadata(args, gate.attempted, steal_share);
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                (
                    (*name).to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::str(*unit)),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(gate.attempted.max(1))),
        ("failed".into(), Json::UInt(gate.failed)),
        ("metrics".into(), metrics_json),
    ]);
    println!("meta: {}", meta.render());
    append_ledger(
        &Json::Obj(vec![
            ("meta".into(), meta),
            ("result".into(), result.clone()),
        ])
        .render(),
    );
    println!("{}", result.render());
    Ok(correct)
}

/// The traced run's per-layer metrics (see `layers`).
#[allow(clippy::too_many_arguments)]
fn traced(
    ready: &mut Ready,
    args: &Args,
    defaults: &RequestDefaults,
    config: &ServerConfig,
    samples: &[(usize, u64, Request)],
    (e2e_p50_ms, e2e_mean_ms): (f64, f64),
    deltas: &Deltas,
    graphs: &mut Graphs,
    gate: &mut Gate,
) -> Result<Vec<Metric>, String> {
    let (workload, seed) = (args.workload, args.seed);
    let max_body = config.max_body_bytes;
    let primed =
        (workload == Workload::ColdSampling).then(|| layers::primed_sdp_cache(seed, defaults));

    // Queue wait: cold probes straight to their owners while the
    // workload's own load keeps both backends busy.
    let mut queue_waits = Vec::new();
    if workload != Workload::WarmHit {
        let router = ready.fleet.router_addr();
        let background = Traffic::Cold {
            workload,
            seed,
            streams: BACKGROUND_STREAMS.to_vec(),
        };
        let stop = AtomicBool::new(false);
        let Ready {
            fleet,
            clients,
            direct,
            ..
        } = &mut *ready;
        let background_conns = &mut clients[..BACKGROUND_STREAMS.len()];
        let (logs, probes) = std::thread::scope(|scope| {
            let load = scope.spawn(|| {
                load::run(background_conns, router, &background, &|| {
                    stop.load(Ordering::SeqCst)
                })
            });
            // Let the background loop reach steady state first.
            std::thread::sleep(Duration::from_millis(200));
            let mut probes = Vec::new();
            for index in 0..workload.kinds() as u64 {
                let request = cold_request(workload, seed, PROBE_STREAM, index);
                let owner = match wire::parse_request(request.body.as_bytes(), defaults) {
                    Ok(parsed) => fleet.owner(wire::response_key(&parsed).payload_fold()),
                    Err(e) => {
                        probes.push((request, Err(e.0)));
                        continue;
                    }
                };
                let response = direct[owner]
                    .roundtrip(&request.http_bytes())
                    .map_err(|e| e.to_string());
                probes.push((request, response.map(|r| (r.status, r.elapsed_us, r.body))));
            }
            stop.store(true, Ordering::SeqCst);
            (load.join().expect("background load panicked"), probes)
        });
        gate.absorb(&logs);
        check_cold_bodies(workload, seed, &BACKGROUND_STREAMS, &logs, graphs, gate);
        for (request, outcome) in probes {
            gate.attempted += 1;
            match outcome {
                Ok((200, Some(elapsed_us), body)) => {
                    match check_cut(&graphs.edges(&request.source), &body) {
                        Ok(_) => queue_waits.push(layers::queue_wait_ms(
                            elapsed_us,
                            &request,
                            defaults,
                            max_body,
                            primed.as_ref(),
                        )),
                        Err(e) => gate.fail(format!("queue probe {}: {e}", request.body)),
                    }
                }
                Ok((status, _, body)) => {
                    gate.fail(format!("queue probe answered {status}: {body}"))
                }
                Err(e) => gate.fail(format!("queue probe: {e}")),
            }
        }
    }
    let queue_wait_ms = stats::mean(&queue_waits);

    let response_cache = ResponseCache::new(config.response_cache_bytes);
    let mut replays = Vec::with_capacity(samples.len());
    for (_, index, request) in samples {
        let (direct_us, routed_us) = layers::replay_network(
            &ready.fleet,
            &mut ready.direct,
            &mut ready.control,
            request,
            defaults,
        )?;
        let cached =
            (workload == Workload::WarmHit).then(|| ready.reference[*index as usize].as_str());
        let mut replay = layers::replay_in_process(
            request,
            cached,
            defaults,
            max_body,
            &response_cache,
            primed.as_ref(),
        );
        replay.direct_us = direct_us;
        replay.routed_us = routed_us;
        replays.push(replay);
    }

    let mut metrics = layers::summarize(&replays, queue_wait_ms);
    let layer_sum = metrics
        .iter()
        .find(|m| m.0 == "ladder.layer_sum_ms")
        .map_or(0.0, |m| m.1);
    let share_max = deltas
        .per_backend_routed
        .iter()
        .copied()
        .fold(0.0, f64::max);
    metrics.extend([
        (
            "router.pool_reuse_ratio",
            ratio(deltas.pool_reused, deltas.pool_reused + deltas.pool_created),
            "ratio",
        ),
        ("router.retries", deltas.retries, "count"),
        ("router.failed", deltas.router_failed, "count"),
        (
            "router.backend_share_max",
            ratio(share_max, deltas.routed),
            "ratio",
        ),
        (
            "response_cache.hit_ratio",
            ratio(
                deltas.response_hits,
                deltas.response_hits + deltas.response_misses,
            ),
            "ratio",
        ),
        (
            "sdp_cache.hit_ratio",
            ratio(deltas.sdp_hits, deltas.sdp_hits + deltas.sdp_misses),
            "ratio",
        ),
        ("ladder.e2e_p50_ms", e2e_p50_ms, "ms"),
        // The layer sum is a mean over the sample, so the mean latency is
        // shown beside the median.
        ("ladder.e2e_mean_ms", e2e_mean_ms, "ms"),
        ("ladder.unexplained_ms", e2e_p50_ms - layer_sum, "ms"),
    ]);
    println!(
        "reconciliation: layer self times sum to {layer_sum:.4} ms per request against an end-to-end median of {e2e_p50_ms:.4} ms (mean {e2e_mean_ms:.4} ms); unexplained {:.4} ms",
        e2e_p50_ms - layer_sum
    );
    Ok(metrics)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ladderbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ladderbench: {e}");
            std::process::exit(1);
        }
    }
}
