//! Conformance suite for the `/metrics` text exposition, checked with a
//! tiny line parser written against the Prometheus text-format rules
//! rather than against our renderer (so renderer bugs cannot hide in a
//! shared helper):
//!
//! * every sample's metric has a `# TYPE` line, and that line precedes
//!   the metric's first sample;
//! * metric names are unique (one `# TYPE`/`# HELP` block each) and
//!   well-formed, label names likewise;
//! * label values survive escaping round-trips (`\\`, `\"`, `\n`);
//! * histograms expose cumulative, monotone `_bucket` series ending in
//!   `+Inf` = `_count`;
//! * counters are monotone across two scrapes taken under concurrent
//!   traffic — the registry must never render a torn or decreasing
//!   total.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::{roundtrip, start_server};

const SOLVE: &str = r#"{"graph": {"gnp": {"n": 16, "p": 0.3, "seed": 5}}, "circuit": "lif-gw", "budget": 16, "seed": 7}"#;

/// One parsed sample line: series key (name + raw label block) and
/// value. Values are kept as f64 (the exposition format is float).
#[derive(Debug, Clone)]
struct Sample {
    name: String,
    labels: String,
    value: f64,
}

/// A parsed scrape.
struct Scrape {
    /// `# TYPE` by metric name, in declaration order.
    types: Vec<(String, String)>,
    /// Names with a `# HELP` line.
    helps: HashSet<String>,
    samples: Vec<Sample>,
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits `name{labels} value` / `name value`; panics on malformed
/// lines (this is a conformance test — malformed is a failure).
fn parse_sample(line: &str) -> Sample {
    let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value in {line:?}"));
    let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad value in {line:?}"));
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label block in {line:?}"));
            (name.to_string(), labels.to_string())
        }
        None => (series.to_string(), String::new()),
    };
    assert!(valid_metric_name(&name), "bad metric name in {line:?}");
    Sample { name, labels, value }
}

/// Parses one label block, undoing value escaping. Panics on syntax the
/// format forbids (unquoted values, bad escapes, bad label names).
fn parse_labels(block: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest.find('=').unwrap_or_else(|| panic!("no '=' in label block {block:?}"));
        let key = &rest[..eq];
        assert!(valid_label_name(key), "bad label name {key:?} in {block:?}");
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .unwrap_or_else(|| panic!("unquoted label value in {block:?}"));
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let after_quote = loop {
            let (i, c) = chars.next().unwrap_or_else(|| panic!("unterminated label value in {block:?}"));
            match c {
                '"' => break i + 1,
                '\\' => {
                    let (_, esc) = chars.next().expect("dangling backslash");
                    value.push(match esc {
                        '\\' => '\\',
                        '"' => '"',
                        'n' => '\n',
                        other => panic!("bad escape \\{other} in {block:?}"),
                    });
                }
                other => value.push(other),
            }
        };
        out.push((key.to_string(), value));
        rest = &rest[after_quote..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    out
}

fn parse_scrape(text: &str) -> Scrape {
    let mut scrape = Scrape {
        types: Vec::new(),
        helps: HashSet::new(),
        samples: Vec::new(),
    };
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap().to_string();
            let kind = parts.next().unwrap_or_else(|| panic!("TYPE without kind: {line:?}")).to_string();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "unknown type {kind:?}"
            );
            scrape.types.push((name, kind));
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_string();
            scrape.helps.insert(name);
        } else if let Some(stripped) = line.strip_prefix('#') {
            panic!("unknown comment form: #{stripped}");
        } else {
            scrape.samples.push(parse_sample(line));
        }
    }
    scrape
}

/// The declared metric a sample belongs to: histogram samples render as
/// `name_bucket` / `name_sum` / `name_count` under `# TYPE name`.
fn base_name(sample_name: &str, declared: &HashSet<String>) -> Option<String> {
    if declared.contains(sample_name) {
        return Some(sample_name.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = sample_name.strip_suffix(suffix) {
            if declared.contains(stripped) {
                return Some(stripped.to_string());
            }
        }
    }
    None
}

/// Structural conformance of one scrape.
fn check_scrape(text: &str) -> Scrape {
    let scrape = parse_scrape(text);
    // Unique names: exactly one TYPE per metric, and a HELP for each.
    let mut seen = HashSet::new();
    for (name, _) in &scrape.types {
        assert!(valid_metric_name(name), "bad declared name {name:?}");
        assert!(seen.insert(name.clone()), "duplicate # TYPE for {name}");
        assert!(scrape.helps.contains(name), "{name} has TYPE but no HELP");
    }
    // TYPE precedes the metric's first sample; every sample is declared.
    let declared: HashSet<String> = seen;
    let mut declared_so_far: HashSet<String> = HashSet::new();
    let mut type_iter = scrape.types.iter();
    // Re-walk the raw text in order to interleave declarations/samples.
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            assert_eq!(type_iter.next().map(|(n, _)| n.as_str()), Some(name));
            declared_so_far.insert(name.to_string());
        } else if !line.is_empty() && !line.starts_with('#') {
            let sample = parse_sample(line);
            let base = base_name(&sample.name, &declared)
                .unwrap_or_else(|| panic!("sample {} has no # TYPE", sample.name));
            assert!(
                declared_so_far.contains(&base),
                "sample for {base} precedes its # TYPE"
            );
            parse_labels(&sample.labels); // syntax check
        }
    }
    // Histogram buckets: cumulative in `le` order, +Inf == _count.
    let histograms: Vec<&str> = scrape
        .types
        .iter()
        .filter(|(_, kind)| kind == "histogram")
        .map(|(name, _)| name.as_str())
        .collect();
    for name in histograms {
        let bucket_name = format!("{name}_bucket");
        let count_name = format!("{name}_count");
        // Group buckets by their non-`le` label set.
        let mut series: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
        for s in scrape.samples.iter().filter(|s| s.name == bucket_name) {
            let labels = parse_labels(&s.labels);
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| if v == "+Inf" { f64::INFINITY } else { v.parse().unwrap() })
                .unwrap_or_else(|| panic!("bucket without le: {s:?}"));
            let key: String = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v},"))
                .collect();
            series.entry(key).or_default().push((le, s.value));
        }
        for (key, buckets) in series {
            let mut last = 0.0;
            for window in buckets.windows(2) {
                assert!(window[0].0 < window[1].0, "{name} le out of order for {key}");
            }
            for &(_, count) in &buckets {
                assert!(count >= last, "{name} buckets not cumulative for {key}");
                last = count;
            }
            let (inf_le, inf_count) = *buckets.last().unwrap();
            assert!(inf_le.is_infinite(), "{name} bucket list must end at +Inf");
            let count = scrape
                .samples
                .iter()
                .find(|s| {
                    s.name == count_name && {
                        let k: String = parse_labels(&s.labels)
                            .iter()
                            .map(|(k, v)| format!("{k}={v},"))
                            .collect();
                        k == key
                    }
                })
                .unwrap_or_else(|| panic!("{count_name} missing for {key}"));
            assert_eq!(inf_count, count.value, "{name} +Inf != _count for {key}");
        }
    }
    scrape
}

fn scrape(addr: SocketAddr) -> String {
    let (status, body) = roundtrip(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn server_exposition_is_structurally_conformant() {
    let handle = start_server(|cfg| cfg.threads = 2);
    let addr = handle.addr();
    // Touch every surface so the scrape is populated: solve (cold +
    // cached), async job, healthz, a routing error.
    let (status, _) = roundtrip(addr, "POST", "/solve", SOLVE);
    assert_eq!(status, 200);
    let (status, _) = roundtrip(addr, "POST", "/solve", SOLVE);
    assert_eq!(status, 200);
    let (status, _) = roundtrip(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let text = scrape(addr);
    let parsed = check_scrape(&text);
    for expected in [
        "snc_server_request_duration_us",
        "snc_solver_stage_duration_us",
        "snc_reactor_poll_wait_us",
        "snc_reactor_ticks_total",
        "snc_cache_hits_total",
    ] {
        assert!(
            parsed.types.iter().any(|(name, _)| name == expected),
            "scrape is missing {expected}:\n{text}"
        );
    }
    // The stage census: one cold solve ran the SDP, the warm hit did
    // not add a second one.
    let sdp_count = parsed
        .samples
        .iter()
        .find(|s| {
            s.name == "snc_solver_stage_duration_us_count" && s.labels.contains("stage=\"sdp\"")
        })
        .expect("sdp stage series");
    assert_eq!(sdp_count.value, 1.0, "cache hits must not count as SDP solves");
    handle.shutdown();
}

#[test]
fn counters_are_monotone_across_scrapes_under_concurrent_traffic() {
    let handle = start_server(|cfg| cfg.threads = 2);
    let addr = handle.addr();
    let (status, _) = roundtrip(addr, "POST", "/solve", SOLVE);
    assert_eq!(status, 200);
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (status, _) = roundtrip(addr, "POST", "/solve", SOLVE);
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();
    let first = check_scrape(&scrape(addr));
    // Let traffic interleave between the scrapes.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let second = check_scrape(&scrape(addr));
    stop.store(true, Ordering::Relaxed);
    for h in hammers {
        h.join().unwrap();
    }
    let counter_names: HashSet<&str> = first
        .types
        .iter()
        .filter(|(_, kind)| kind == "counter")
        .map(|(name, _)| name.as_str())
        .collect();
    let mut compared = 0;
    for a in &first.samples {
        if !counter_names.contains(a.name.as_str()) {
            continue;
        }
        let Some(b) = second
            .samples
            .iter()
            .find(|b| b.name == a.name && b.labels == a.labels)
        else {
            panic!("counter series {} {{{}}} vanished between scrapes", a.name, a.labels);
        };
        assert!(
            b.value >= a.value,
            "counter {} {{{}}} went backwards: {} -> {}",
            a.name,
            a.labels,
            a.value,
            b.value
        );
        compared += 1;
    }
    assert!(compared >= 5, "too few counter series to mean anything: {compared}");
    // And the request histogram must have registered the traffic.
    let requests = |s: &Scrape| -> f64 {
        s.samples
            .iter()
            .filter(|x| x.name == "snc_server_request_duration_us_count")
            .map(|x| x.value)
            .sum()
    };
    assert!(requests(&second) > requests(&first), "request histogram stood still under load");
    handle.shutdown();
}

#[test]
fn label_values_survive_escaping_round_trips() {
    let registry = snc_metrics::Registry::new();
    let awkward = [
        ("plain", "value"),
        ("quote", "say \"hi\""),
        ("backslash", "C:\\temp\\x"),
        ("newline", "line1\nline2"),
        ("mixed", "a\\\"b\nc"),
    ];
    for (idx, (_, value)) in awkward.iter().enumerate() {
        registry
            .counter(
                "snc_test_escapes_total",
                "Escaping round-trip fixture",
                &[("case", value), ("idx", &idx.to_string())],
            )
            .add(idx as u64 + 1);
    }
    let text = registry.render();
    let parsed = check_scrape(&text);
    for (idx, (tag, value)) in awkward.iter().enumerate() {
        let found = parsed
            .samples
            .iter()
            .find(|s| {
                parse_labels(&s.labels)
                    .iter()
                    .any(|(k, v)| k == "idx" && v == &idx.to_string())
            })
            .unwrap_or_else(|| panic!("case {tag} missing from:\n{text}"));
        let labels = parse_labels(&found.labels);
        let case = labels.iter().find(|(k, _)| k == "case").unwrap();
        assert_eq!(&case.1, value, "case {tag} did not round-trip");
        assert_eq!(found.value, idx as f64 + 1.0);
    }
}

#[test]
fn router_exposition_is_conformant_and_covers_the_fleet() {
    let backend = common::spawn_server(&["--threads", "2"]);
    let router = common::spawn_listening(
        "snc-router",
        &[
            "--addr", "127.0.0.1:0",
            "--backend", &backend.addr().to_string(),
            "--probe-interval-ms", "100",
        ],
    );
    let (status, _) = roundtrip(router.addr(), "POST", "/solve", SOLVE);
    assert_eq!(status, 200);
    let text = scrape(router.addr());
    let parsed = check_scrape(&text);
    for expected in [
        "snc_router_request_duration_us",
        "snc_router_requests_routed_total",
        "snc_router_backend_routed_total",
        "snc_router_backends_up",
        // The router runs the backends' reactor, instruments included.
        "snc_reactor_connections_active",
        "snc_reactor_ticks_total",
    ] {
        assert!(
            parsed.types.iter().any(|(name, _)| name == expected),
            "router scrape is missing {expected}:\n{text}"
        );
    }
    let routed = parsed
        .samples
        .iter()
        .find(|s| s.name == "snc_router_requests_routed_total")
        .expect("routed total");
    assert!(routed.value >= 1.0);
}
