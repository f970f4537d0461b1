//! The service wire format: JSON solve requests in, JSON results out.
//!
//! A request names exactly one workload. MAXCUT requests name a graph
//! (inline edges, weighted triples, edge-list text, a Figure-4 dataset,
//! or a seeded Erdős–Rényi generator), a circuit family, a sample
//! budget, an optional replica width, and a seed:
//!
//! ```json
//! {
//!   "graph": "road-chesapeake",
//!   "circuit": "lif-gw",
//!   "budget": 512,
//!   "replicas": 4,
//!   "seed": 42
//! }
//! ```
//!
//! The annealed family accepts a cooling schedule and Hopfield a step
//! count — each knob is valid only with its own family:
//!
//! ```json
//! {
//!   "graph": {"gnp": {"n": 40, "p": 0.3, "seed": 7}},
//!   "circuit": "lif-annealed",
//!   "schedule": {"kind": "geometric", "start": 1.0, "end": 0.05},
//!   "budget": 256,
//!   "seed": 42
//! }
//! ```
//!
//! ```json
//! {
//!   "graph": {"weighted_edges": [[0, 1, 2.5], [1, 2, -0.5]]},
//!   "circuit": "hopfield",
//!   "steps": 16,
//!   "budget": 64,
//!   "seed": 42
//! }
//! ```
//!
//! MAX2SAT and MAXDICUT requests carry their instance under a
//! `"max2sat"` / `"maxdicut"` key instead of `"graph"` (literals are
//! signed 1-based variable ids; `budget` counts rounding draws):
//!
//! ```json
//! {"max2sat": {"vars": 3, "clauses": [[1, -2], [2, 3], [-1]]}, "budget": 32, "seed": 7}
//! ```
//!
//! ```json
//! {"maxdicut": {"n": 4, "arcs": [[0, 1], [1, 2], [2, 3]]}, "budget": 32, "seed": 7}
//! ```
//!
//! Everything renders through [`snc_experiments::json`] — the same
//! escaper the experiment reports use — and response rendering is a
//! pure function of the solve outcome, so identical requests produce
//! byte-identical bodies no matter which worker or connection served
//! them. Timing never enters the body (it travels in the
//! `x-snc-elapsed-us` response header).

use crate::cache::ResponseKey;
use snc_experiments::json::{self, Json};
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::io::edgelist;
use snc_graph::{EmpiricalDataset, Graph, WeightedGraph};
use snc_maxcut::extensions::max2sat::{Clause, Literal, Max2Sat, Max2SatSolution};
use snc_maxcut::extensions::maxdicut::{DiGraph, MaxDicutSolution};
use snc_maxcut::{
    CircuitFamily, CoolingSchedule, ScheduleKind, SolveGraph, SolveOutcome, SolveSpec,
};
use snc_neuro::LifParams;

/// Largest accepted weight magnitude anywhere on the wire (edge weights,
/// clause weights). Keeps every downstream accumulation far from the
/// overflow-to-infinity regime while accepting any plausible instance.
pub const MAX_ABS_WEIGHT: f64 = 1e12;

/// Server-side defaults and limits applied while parsing requests.
#[derive(Clone, Debug)]
pub struct RequestDefaults {
    /// Replica width when the request omits `"replicas"`.
    pub replicas: usize,
    /// SDP rank for the SDP-backed families (the paper's 4).
    pub sdp_rank: usize,
    /// Membrane parameters for the LIF circuit families.
    pub lif: LifParams,
    /// Largest accepted `"budget"`.
    pub max_budget: u64,
    /// Largest accepted vertex/variable count (guards the dense SDP
    /// stage).
    ///
    /// Enforced *before* any instance is materialized: inline edge ids,
    /// declared `"n"`/`"vars"`, and generator sizes are all bounded
    /// pre-allocation, so a tiny request body cannot trigger a huge
    /// allocation.
    pub max_vertices: usize,
    /// Largest accepted `"replicas"` (per-replica circuit state is
    /// O(n), so an uncapped width is an allocation amplifier).
    pub max_replicas: usize,
    /// Largest accepted Hopfield `"steps"` per sample (each Euler step
    /// is O(n + m) work, so the knob multiplies the budget).
    pub max_hopfield_steps: u64,
}

/// A parsed, validated MAXCUT solve request: the graph to cut (a
/// [`Graph`] or a [`WeightedGraph`]) and the fully resolved spec to
/// dispatch.
#[derive(Clone, Debug)]
pub struct SolveJob<G = Graph> {
    /// The graph built from the request body.
    pub graph: G,
    /// The resolved solve spec ([`snc_maxcut::solve()`]'s input).
    pub spec: SolveSpec,
    /// A deterministic label of the graph source, echoed in responses.
    pub graph_label: String,
}

impl SolveJob<WeightedGraph> {
    /// A canonical string rendering of the weighted graph for cache
    /// keying: weights by their exact bit pattern, so byte-equality of
    /// the string ⇔ bit-equality of the instance.
    pub fn canonical_graph(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("wgraph:n={};", self.graph.n());
        for (u, v, w) in self.graph.edges() {
            let _ = write!(s, "{u}-{v}:{:016x};", w.to_bits());
        }
        s
    }
}

/// A parsed MAX2SAT request
/// ([`snc_maxcut::extensions::max2sat::solve_gw_max2sat`]'s input).
#[derive(Clone, Debug)]
pub struct Max2SatJob {
    /// The clause system.
    pub instance: Max2Sat,
    /// Rounding draws (the request's `budget`).
    pub samples: u64,
    /// Master seed.
    pub seed: u64,
}

impl Max2SatJob {
    /// A canonical string rendering of the instance for cache keying.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("max2sat:vars={};", self.instance.n_vars);
        let lit = |l: Literal| format!("{}{}", if l.negated { '-' } else { '+' }, l.var);
        for c in &self.instance.clauses {
            s.push_str(&lit(c.a));
            if let Some(b) = c.b {
                s.push_str(&lit(b));
            }
            let _ = write!(s, ":{:016x};", c.weight.to_bits());
        }
        s
    }
}

/// A parsed MAXDICUT request
/// ([`snc_maxcut::extensions::maxdicut::solve_gw_maxdicut`]'s input).
#[derive(Clone, Debug)]
pub struct MaxDicutJob {
    /// The directed graph.
    pub graph: DiGraph,
    /// Rounding draws (the request's `budget`).
    pub samples: u64,
    /// Master seed.
    pub seed: u64,
}

impl MaxDicutJob {
    /// A canonical string rendering of the instance for cache keying.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("maxdicut:n={};", self.graph.n);
        for &(u, v) in &self.graph.arcs {
            let _ = write!(s, "{u}-{v};");
        }
        s
    }
}

/// Every workload the wire format accepts, fully parsed and validated.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Unweighted MAXCUT through the circuit families.
    MaxCut(SolveJob),
    /// Weighted MAXCUT through the circuit families.
    WeightedMaxCut(SolveJob<WeightedGraph>),
    /// MAX2SAT via the GW SDP + rounding extension.
    Max2Sat(Max2SatJob),
    /// MAXDICUT via the GW SDP + rounding extension.
    MaxDicut(MaxDicutJob),
}

/// A request-rejection message (answered as HTTP 400).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

fn err(message: impl Into<String>) -> WireError {
    WireError(message.into())
}

/// The canonical rendering of family-specific solver knobs for cache
/// keying: non-empty exactly when the family reads a knob beyond the
/// common five, with floats by bit pattern.
pub fn spec_extras(spec: &SolveSpec) -> String {
    match spec.family {
        CircuitFamily::LifAnnealed => format!(
            "schedule={}:{:016x}:{:016x}",
            spec.schedule.kind().name(),
            spec.schedule.start().to_bits(),
            spec.schedule.end().to_bits()
        ),
        CircuitFamily::Hopfield => format!("steps={}", spec.hopfield_steps),
        CircuitFamily::LifGw | CircuitFamily::LifTrevisan => String::new(),
    }
}

/// The canonical cache key for a parsed workload (the full request:
/// family, budget, replicas, seed, instance, family-specific knobs).
/// Non-graph instances key on their canonical string; the extension
/// workloads have no circuit family or replica width, so they pin the
/// placeholder `(LifGw, 1)` — distinct labels and canonical prefixes
/// keep them from ever colliding with a real graph request.
///
/// Shared by the server (response-cache lookups) and the scale-out
/// router (whose shard key is [`ResponseKey::payload_fold`]): both
/// derive the key from the same parse, so the slice of the keyspace a
/// backend sees from the router is exactly the slice its own caches
/// key on.
pub fn response_key(workload: &Workload) -> ResponseKey {
    match workload {
        Workload::MaxCut(job) => ResponseKey::new(
            job.spec.family,
            job.spec.budget,
            job.spec.replicas,
            job.spec.seed,
            job.graph_label.clone(),
            job.graph.clone(),
        )
        .with_extras(spec_extras(&job.spec)),
        Workload::WeightedMaxCut(job) => ResponseKey::new_canonical(
            job.spec.family,
            job.spec.budget,
            job.spec.replicas,
            job.spec.seed,
            job.graph_label.clone(),
            job.canonical_graph(),
        )
        .with_extras(spec_extras(&job.spec)),
        Workload::Max2Sat(job) => ResponseKey::new_canonical(
            CircuitFamily::LifGw,
            job.samples,
            1,
            job.seed,
            "max2sat".to_string(),
            job.canonical(),
        ),
        Workload::MaxDicut(job) => ResponseKey::new_canonical(
            CircuitFamily::LifGw,
            job.samples,
            1,
            job.seed,
            "maxdicut".to_string(),
            job.canonical(),
        ),
    }
}

/// Parses and validates any request body into its workload.
///
/// # Errors
///
/// Returns [`WireError`] (→ HTTP 400) for malformed JSON, unknown keys,
/// missing/invalid fields, empty instances, or limit violations.
pub fn parse_request(body: &[u8], defaults: &RequestDefaults) -> Result<Workload, WireError> {
    let text = std::str::from_utf8(body).map_err(|_| err("body is not UTF-8"))?;
    let doc = json::parse(text).map_err(|e| err(e.to_string()))?;
    if doc.as_object().is_none() {
        return Err(err("request body must be a JSON object"));
    }
    let named: Vec<&str> = ["graph", "max2sat", "maxdicut"]
        .into_iter()
        .filter(|k| doc.get(k).is_some())
        .collect();
    match named.as_slice() {
        ["graph"] => parse_maxcut_request(&doc, defaults),
        ["max2sat"] => parse_max2sat_request(&doc, defaults).map(Workload::Max2Sat),
        ["maxdicut"] => parse_maxdicut_request(&doc, defaults).map(Workload::MaxDicut),
        [] => Err(err(
            "request must name a workload: one of `graph`, `max2sat`, `maxdicut`",
        )),
        _ => Err(err(
            "request must contain exactly one of `graph`, `max2sat`, `maxdicut`",
        )),
    }
}

/// Parses and validates an unweighted MAXCUT solve-request body.
///
/// Thin wrapper over [`parse_request`] for callers that only speak the
/// original graph workload (the batch CLI, older tests).
///
/// # Errors
///
/// Everything [`parse_request`] rejects, plus any non-unweighted
/// workload.
pub fn parse_solve_request(
    body: &[u8],
    defaults: &RequestDefaults,
) -> Result<SolveJob, WireError> {
    match parse_request(body, defaults)? {
        Workload::MaxCut(job) => Ok(job),
        _ => Err(err("expected an unweighted MAXCUT `graph` request")),
    }
}

/// The graph workload: unweighted or weighted MAXCUT.
fn parse_maxcut_request(
    doc: &Json,
    defaults: &RequestDefaults,
) -> Result<Workload, WireError> {
    let members = doc.as_object().expect("checked by parse_request");
    for (key, _) in members {
        if !matches!(
            key.as_str(),
            "graph" | "circuit" | "budget" | "replicas" | "seed" | "schedule" | "steps"
        ) {
            return Err(err(format!(
                "unknown key `{key}` (expected graph, circuit, budget, replicas, seed, schedule, steps)"
            )));
        }
    }

    let family = match doc.get("circuit") {
        None => CircuitFamily::LifGw,
        Some(v) => {
            let name = v.as_str().ok_or_else(|| err("`circuit` must be a string"))?;
            CircuitFamily::from_name(name).ok_or_else(|| {
                err(format!(
                    "unknown circuit `{name}` (expected lif-gw, lif-trevisan, lif-annealed, or hopfield)"
                ))
            })?
        }
    };

    // Family-specific knobs: each is valid only with its own family, so
    // a knob on the wrong family is a rejection, not silent drift.
    let schedule = match doc.get("schedule") {
        None => None,
        Some(_) if family != CircuitFamily::LifAnnealed => {
            return Err(err(format!(
                "`schedule` is only valid with circuit `lif-annealed` (got `{}`)",
                family.name()
            )))
        }
        Some(v) => Some(parse_schedule(v)?),
    };
    let hopfield_steps = match doc.get("steps") {
        None => None,
        Some(_) if family != CircuitFamily::Hopfield => {
            return Err(err(format!(
                "`steps` is only valid with circuit `hopfield` (got `{}`)",
                family.name()
            )))
        }
        Some(v) => {
            let steps = v
                .as_u64()
                .ok_or_else(|| err("`steps` must be a non-negative integer"))?;
            if steps == 0 {
                return Err(err("`steps` must be ≥ 1"));
            }
            if steps > defaults.max_hopfield_steps {
                return Err(err(format!(
                    "`steps` {steps} exceeds the server limit of {}",
                    defaults.max_hopfield_steps
                )));
            }
            Some(steps)
        }
    };

    let budget = parse_budget(doc, defaults)?;
    let replicas = match doc.get("replicas") {
        None => defaults.replicas,
        Some(v) => {
            let r = v
                .as_usize()
                .ok_or_else(|| err("`replicas` must be a non-negative integer"))?;
            if r == 0 {
                return Err(err("`replicas` must be ≥ 1"));
            }
            if r > defaults.max_replicas {
                return Err(err(format!(
                    "`replicas` {r} exceeds the server limit of {}",
                    defaults.max_replicas
                )));
            }
            r
        }
    };
    let seed = parse_seed(doc)?;

    let mut spec = SolveSpec {
        replicas,
        sdp_rank: defaults.sdp_rank,
        lif: defaults.lif,
        ..SolveSpec::new(family, budget, seed)
    };
    if let Some(schedule) = schedule {
        spec.schedule = schedule;
    }
    if let Some(steps) = hopfield_steps {
        spec.hopfield_steps = steps;
    }

    match parse_graph(
        doc.get("graph").ok_or_else(|| err("missing `graph`"))?,
        defaults,
    )? {
        ParsedGraph::Unweighted(graph, graph_label) => {
            if graph.m() == 0 {
                return Err(err("graph has no edges; MAXCUT needs at least one"));
            }
            Ok(Workload::MaxCut(SolveJob { graph, spec, graph_label }))
        }
        ParsedGraph::Weighted(graph, graph_label) => {
            if graph.m() == 0 {
                return Err(err("graph has no edges; MAXCUT needs at least one"));
            }
            if family == CircuitFamily::LifTrevisan && !graph.is_nonnegative() {
                return Err(err("lif-trevisan requires non-negative edge weights"));
            }
            Ok(Workload::WeightedMaxCut(SolveJob {
                graph,
                spec,
                graph_label,
            }))
        }
    }
}

/// `{"kind": …, "start": …, "end": …}` → a validated cooling schedule.
fn parse_schedule(value: &Json) -> Result<CoolingSchedule, WireError> {
    let members = value
        .as_object()
        .ok_or_else(|| err("`schedule` must be an object with kind, start, end"))?;
    for (key, _) in members {
        if !matches!(key.as_str(), "kind" | "start" | "end") {
            return Err(err(format!(
                "unknown key `{key}` in `schedule` (expected kind, start, end)"
            )));
        }
    }
    let kind_name = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| err("`schedule.kind` must be a string"))?;
    let kind = ScheduleKind::from_name(kind_name).ok_or_else(|| {
        err(format!(
            "unknown schedule kind `{kind_name}` (expected geometric or linear)"
        ))
    })?;
    let start = value
        .get("start")
        .and_then(Json::as_f64)
        .ok_or_else(|| err("`schedule.start` must be a number"))?;
    let end = value
        .get("end")
        .and_then(Json::as_f64)
        .ok_or_else(|| err("`schedule.end` must be a number"))?;
    CoolingSchedule::new(kind, start, end).map_err(|e| err(format!("invalid schedule: {e}")))
}

/// The shared `budget` field (samples for the extensions, circuit
/// samples for MAXCUT).
fn parse_budget(doc: &Json, defaults: &RequestDefaults) -> Result<u64, WireError> {
    let budget = doc
        .get("budget")
        .ok_or_else(|| err("missing `budget`"))?
        .as_u64()
        .ok_or_else(|| err("`budget` must be a non-negative integer"))?;
    if budget == 0 {
        return Err(err("`budget` must be ≥ 1"));
    }
    if budget > defaults.max_budget {
        return Err(err(format!(
            "`budget` {budget} exceeds the server limit of {}",
            defaults.max_budget
        )));
    }
    Ok(budget)
}

/// The shared optional `seed` field (defaults to 0).
fn parse_seed(doc: &Json) -> Result<u64, WireError> {
    match doc.get("seed") {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| err("`seed` must be a non-negative integer")),
    }
}

/// `Json::Int`/`Json::UInt` → `i64` (the JSON layer has no signed
/// accessor; MAX2SAT literals are the only signed integers on the wire).
fn json_as_i64(v: &Json) -> Option<i64> {
    match v {
        Json::Int(i) => Some(*i),
        Json::UInt(u) => i64::try_from(*u).ok(),
        _ => None,
    }
}

/// The `max2sat` workload.
fn parse_max2sat_request(
    doc: &Json,
    defaults: &RequestDefaults,
) -> Result<Max2SatJob, WireError> {
    let members = doc.as_object().expect("checked by parse_request");
    for (key, _) in members {
        if !matches!(key.as_str(), "max2sat" | "budget" | "seed") {
            return Err(err(format!(
                "unknown key `{key}` (expected max2sat, budget, seed)"
            )));
        }
    }
    let inst = doc.get("max2sat").expect("checked by parse_request");
    let inst_members = inst
        .as_object()
        .ok_or_else(|| err("`max2sat` must be an object with vars, clauses"))?;
    for (key, _) in inst_members {
        if !matches!(key.as_str(), "vars" | "clauses" | "weights") {
            return Err(err(format!(
                "unknown key `{key}` in `max2sat` (expected vars, clauses, weights)"
            )));
        }
    }
    let vars = inst
        .get("vars")
        .and_then(Json::as_usize)
        .ok_or_else(|| err("`max2sat.vars` must be a non-negative integer"))?;
    if vars == 0 {
        return Err(err("`max2sat.vars` must be ≥ 1"));
    }
    if vars > defaults.max_vertices {
        return Err(err(format!(
            "`max2sat.vars` is {vars}, exceeding the server limit of {}",
            defaults.max_vertices
        )));
    }
    let clause_items = inst
        .get("clauses")
        .and_then(Json::as_array)
        .ok_or_else(|| err("`max2sat.clauses` must be an array of clauses"))?;
    if clause_items.is_empty() {
        return Err(err("`max2sat.clauses` must not be empty"));
    }
    let weights: Option<Vec<f64>> = match inst.get("weights") {
        None => None,
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| err("`max2sat.weights` must be an array of numbers"))?;
            if items.len() != clause_items.len() {
                return Err(err(format!(
                    "`max2sat.weights` has {} entries for {} clauses",
                    items.len(),
                    clause_items.len()
                )));
            }
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let w = item
                    .as_f64()
                    .ok_or_else(|| err("clause weights must be numbers"))?;
                if !w.is_finite() {
                    return Err(err("clause weights must be finite"));
                }
                if w <= 0.0 {
                    return Err(err(format!("clause weights must be positive (got {w})")));
                }
                if w > MAX_ABS_WEIGHT {
                    return Err(err(format!(
                        "clause weight {w} exceeds the magnitude limit of {MAX_ABS_WEIGHT:e}"
                    )));
                }
                out.push(w);
            }
            Some(out)
        }
    };
    let mut clauses = Vec::with_capacity(clause_items.len());
    for (idx, item) in clause_items.iter().enumerate() {
        let lits = item
            .as_array()
            .filter(|l| matches!(l.len(), 1 | 2))
            .ok_or_else(|| err("each clause must be an array of 1 or 2 literals"))?;
        let mut parsed = [None, None];
        for (slot, lit) in lits.iter().enumerate() {
            let signed = json_as_i64(lit)
                .ok_or_else(|| err("literals must be signed integers (1-based variable ids)"))?;
            if signed == 0 {
                return Err(err("literal 0 is invalid (literals are 1-based)"));
            }
            let var = signed.unsigned_abs();
            if var > vars as u64 {
                return Err(err(format!(
                    "literal {signed} names a variable out of range (vars = {vars})"
                )));
            }
            let var = (var - 1) as u32;
            parsed[slot] = Some(if signed < 0 {
                Literal::neg(var)
            } else {
                Literal::pos(var)
            });
        }
        clauses.push(Clause {
            a: parsed[0].expect("clauses have ≥ 1 literal"),
            b: parsed[1],
            weight: weights.as_ref().map_or(1.0, |w| w[idx]),
        });
    }
    Ok(Max2SatJob {
        instance: Max2Sat { n_vars: vars, clauses },
        samples: parse_budget(doc, defaults)?,
        seed: parse_seed(doc)?,
    })
}

/// The `maxdicut` workload.
fn parse_maxdicut_request(
    doc: &Json,
    defaults: &RequestDefaults,
) -> Result<MaxDicutJob, WireError> {
    let members = doc.as_object().expect("checked by parse_request");
    for (key, _) in members {
        if !matches!(key.as_str(), "maxdicut" | "budget" | "seed") {
            return Err(err(format!(
                "unknown key `{key}` (expected maxdicut, budget, seed)"
            )));
        }
    }
    let inst = doc.get("maxdicut").expect("checked by parse_request");
    let inst_members = inst
        .as_object()
        .ok_or_else(|| err("`maxdicut` must be an object with n, arcs"))?;
    for (key, _) in inst_members {
        if !matches!(key.as_str(), "n" | "arcs") {
            return Err(err(format!(
                "unknown key `{key}` in `maxdicut` (expected n, arcs)"
            )));
        }
    }
    let n = inst
        .get("n")
        .and_then(Json::as_usize)
        .ok_or_else(|| err("`maxdicut.n` must be a non-negative integer"))?;
    if n == 0 {
        return Err(err("`maxdicut.n` must be ≥ 1"));
    }
    if n > defaults.max_vertices {
        return Err(err(format!(
            "`maxdicut.n` is {n}, exceeding the server limit of {}",
            defaults.max_vertices
        )));
    }
    let arc_items = inst
        .get("arcs")
        .and_then(Json::as_array)
        .ok_or_else(|| err("`maxdicut.arcs` must be an array of [u, v] arcs"))?;
    if arc_items.is_empty() {
        return Err(err("`maxdicut.arcs` must not be empty"));
    }
    let mut arcs = Vec::with_capacity(arc_items.len());
    for item in arc_items {
        let pair = item
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| err("each arc must be a [u, v] pair"))?;
        let u = pair[0]
            .as_u64()
            .ok_or_else(|| err("arc endpoints must be non-negative integers"))?;
        let v = pair[1]
            .as_u64()
            .ok_or_else(|| err("arc endpoints must be non-negative integers"))?;
        // Bound-check *before* `DiGraph::new` — it panics on
        // out-of-range endpoints, and a panic must never be reachable
        // from the wire.
        for endpoint in [u, v] {
            if endpoint >= n as u64 {
                return Err(err(format!(
                    "arc endpoint {endpoint} is out of range (n = {n})"
                )));
            }
        }
        arcs.push((u as u32, v as u32));
    }
    let graph = DiGraph::new(n, &arcs);
    if graph.arcs.is_empty() {
        return Err(err("maxdicut instance has no arcs after dropping self-loops"));
    }
    Ok(MaxDicutJob {
        graph,
        samples: parse_budget(doc, defaults)?,
        seed: parse_seed(doc)?,
    })
}

/// A parsed `"graph"` value: the seed's unweighted sources plus inline
/// weighted triples.
enum ParsedGraph {
    Unweighted(Graph, String),
    Weighted(WeightedGraph, String),
}

/// Builds the graph named by the request's `"graph"` value.
fn parse_graph(value: &Json, defaults: &RequestDefaults) -> Result<ParsedGraph, WireError> {
    let parsed = match value {
        Json::Str(name) => {
            let dataset = EmpiricalDataset::all()
                .into_iter()
                .find(|d| d.name() == name)
                .ok_or_else(|| err(format!("unknown dataset `{name}`")))?;
            let graph = dataset
                .load()
                .map_err(|e| err(format!("failed to build dataset `{name}`: {e}")))?;
            ParsedGraph::Unweighted(graph, format!("dataset:{name}"))
        }
        Json::Obj(members) => {
            // Strict like the top level: an unknown (or misplaced) key is
            // a rejection, not silent drift — a mis-cased `"N"` must not
            // quietly solve a differently-shaped graph.
            let sized = value.get("edges").is_some() || value.get("weighted_edges").is_some();
            for (key, _) in members {
                match key.as_str() {
                    "edges" | "edgelist" | "gnp" | "weighted_edges" => {}
                    "n" if sized => {}
                    "n" => {
                        return Err(err(
                            "`n` is only valid alongside `edges` or `weighted_edges` (edge lists and gnp carry their own size)",
                        ))
                    }
                    other => {
                        return Err(err(format!(
                            "unknown key `{other}` in `graph` (expected edges, weighted_edges, edgelist, gnp, or n with edges)"
                        )))
                    }
                }
            }
            let keys: Vec<&str> = ["edges", "edgelist", "gnp", "weighted_edges"]
                .into_iter()
                .filter(|k| value.get(k).is_some())
                .collect();
            match keys.as_slice() {
                ["edges"] => {
                    let pairs = parse_edge_pairs(value.get("edges").expect("key present"))?;
                    let declared_n = parse_declared_n(value)?;
                    // Bound *before* building: a tiny body naming a huge
                    // id (or declaring a huge n) must not allocate.
                    let max_id = pairs.iter().map(|&(u, v)| u.max(v)).max().unwrap_or(0);
                    let implied_n = declared_n
                        .unwrap_or_else(|| max_id.saturating_add(1).min(usize::MAX as u64) as usize);
                    check_vertices(implied_n, defaults)?;
                    let graph = edgelist::from_pairs(&pairs, declared_n)
                        .map_err(|e| err(format!("invalid edges: {e}")))?;
                    ParsedGraph::Unweighted(graph, "edges".to_string())
                }
                ["weighted_edges"] => {
                    let triples =
                        parse_weighted_triples(value.get("weighted_edges").expect("key present"))?;
                    let declared_n = parse_declared_n(value)?;
                    let max_id = triples.iter().map(|&(u, v, _)| u.max(v)).max().unwrap_or(0);
                    let implied_n = declared_n.unwrap_or(max_id as usize + 1);
                    check_vertices(implied_n, defaults)?;
                    let graph = WeightedGraph::from_weighted_edges(implied_n, &triples)
                        .map_err(|e| err(format!("invalid weighted edges: {e}")))?;
                    ParsedGraph::Weighted(graph, "weighted-edges".to_string())
                }
                ["edgelist"] => {
                    let text = value
                        .get("edgelist")
                        .and_then(Json::as_str)
                        .ok_or_else(|| err("`edgelist` must be a string"))?;
                    // Scan first (no allocation), bound-check the implied
                    // vertex count, then build.
                    let raw = edgelist::scan(text)
                        .map_err(|e| err(format!("invalid edge list: {e}")))?;
                    check_vertices(raw.n(), defaults)?;
                    let graph = raw
                        .into_graph()
                        .map_err(|e| err(format!("invalid edge list: {e}")))?;
                    ParsedGraph::Unweighted(graph, "edgelist".to_string())
                }
                ["gnp"] => {
                    let spec = value.get("gnp").expect("key present");
                    for (key, _) in spec.as_object().unwrap_or(&[]) {
                        if !matches!(key.as_str(), "n" | "p" | "seed") {
                            return Err(err(format!(
                                "unknown key `{key}` in `gnp` (expected n, p, seed)"
                            )));
                        }
                    }
                    let n = spec
                        .get("n")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| err("`gnp.n` must be a non-negative integer"))?;
                    let p = spec
                        .get("p")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| err("`gnp.p` must be a number"))?;
                    let seed = match spec.get("seed") {
                        None => 0,
                        Some(v) => v
                            .as_u64()
                            .ok_or_else(|| err("`gnp.seed` must be a non-negative integer"))?,
                    };
                    // Bound *before* generating: a huge `n` must not
                    // allocate anything.
                    check_vertices(n, defaults)?;
                    let graph = gnp(n, p, seed)
                        .map_err(|e| err(format!("invalid gnp parameters: {e}")))?;
                    // `p` formats deterministically (shortest round-trip).
                    ParsedGraph::Unweighted(graph, format!("gnp(n={n},p={p},seed={seed})"))
                }
                [] => {
                    return Err(err(
                        "`graph` object must contain one of `edges`, `weighted_edges`, `edgelist`, `gnp`",
                    ))
                }
                _ => {
                    return Err(err(
                        "`graph` object must contain exactly one of `edges`, `weighted_edges`, `edgelist`, `gnp`",
                    ))
                }
            }
        }
        _ => {
            return Err(err(
                "`graph` must be a dataset name or an object with `edges`, `weighted_edges`, `edgelist`, or `gnp`",
            ))
        }
    };
    // Backstop; every arm above already bound-checked pre-allocation.
    match &parsed {
        ParsedGraph::Unweighted(g, _) => check_vertices(g.n(), defaults)?,
        ParsedGraph::Weighted(g, _) => check_vertices(g.n(), defaults)?,
    }
    Ok(parsed)
}

/// The optional `"n"` alongside inline edges.
fn parse_declared_n(value: &Json) -> Result<Option<usize>, WireError> {
    match value.get("n") {
        None => Ok(None),
        Some(v) => Ok(Some(
            v.as_usize()
                .ok_or_else(|| err("`n` must be a non-negative integer"))?,
        )),
    }
}

/// The shared pre-allocation vertex bound.
fn check_vertices(n: usize, defaults: &RequestDefaults) -> Result<(), WireError> {
    if n > defaults.max_vertices {
        return Err(err(format!(
            "graph has {n} vertices, exceeding the server limit of {}",
            defaults.max_vertices
        )));
    }
    Ok(())
}

fn parse_edge_pairs(value: &Json) -> Result<Vec<(u64, u64)>, WireError> {
    let items = value
        .as_array()
        .ok_or_else(|| err("`edges` must be an array of [u, v] pairs"))?;
    items
        .iter()
        .map(|item| {
            let pair = item
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| err("each edge must be a [u, v] pair"))?;
            let u = pair[0]
                .as_u64()
                .ok_or_else(|| err("edge endpoints must be non-negative integers"))?;
            let v = pair[1]
                .as_u64()
                .ok_or_else(|| err("edge endpoints must be non-negative integers"))?;
            Ok((u, v))
        })
        .collect()
}

/// `[[u, v, w], …]` → weighted edges. Endpoints must fit the `u32` vertex
/// ids graphs store, as `edgelist::from_pairs` requires of plain edges:
/// a larger id is a rejection, never a truncation.
fn parse_weighted_triples(value: &Json) -> Result<Vec<(u32, u32, f64)>, WireError> {
    let items = value
        .as_array()
        .ok_or_else(|| err("`weighted_edges` must be an array of [u, v, w] triples"))?;
    let endpoint = |id: &Json| {
        let id = id
            .as_u64()
            .ok_or_else(|| err("edge endpoints must be non-negative integers"))?;
        u32::try_from(id).map_err(|_| {
            err(format!(
                "invalid weighted edges: vertex id {id} exceeds the supported range (u32)"
            ))
        })
    };
    items
        .iter()
        .map(|item| {
            let triple = item
                .as_array()
                .filter(|t| t.len() == 3)
                .ok_or_else(|| err("each weighted edge must be a [u, v, w] triple"))?;
            let u = endpoint(&triple[0])?;
            let v = endpoint(&triple[1])?;
            let w = triple[2]
                .as_f64()
                .ok_or_else(|| err("edge weights must be numbers"))?;
            // `1e999` parses to infinity, so "is a number" is not enough.
            if !w.is_finite() {
                return Err(err("edge weights must be finite"));
            }
            if w.abs() > MAX_ABS_WEIGHT {
                return Err(err(format!(
                    "edge weight {w} exceeds the magnitude limit of {MAX_ABS_WEIGHT:e}"
                )));
            }
            Ok((u, v, w))
        })
        .collect()
}

/// How a response body renders a graph kind: unweighted bodies carry
/// exact integer cut values, weighted bodies float ones and a
/// `"weighted": true` marker.
pub trait WireGraph: SolveGraph {
    /// Members rendered after `"m"`.
    fn markers() -> Vec<(String, Json)>;

    /// A cut value as a JSON number.
    fn value_json(value: Self::Value) -> Json;
}

impl WireGraph for Graph {
    fn markers() -> Vec<(String, Json)> {
        Vec::new()
    }

    fn value_json(value: u64) -> Json {
        Json::UInt(value)
    }
}

impl WireGraph for WeightedGraph {
    fn markers() -> Vec<(String, Json)> {
        vec![("weighted".into(), Json::Bool(true))]
    }

    fn value_json(value: f64) -> Json {
        Json::Num(value)
    }
}

/// Renders a solve outcome as the deterministic response body.
///
/// Pure function of `(job, outcome)`: no timestamps, ids, or timing —
/// identical seeded requests render byte-identical bodies.
pub fn solve_response<G: WireGraph>(job: &SolveJob<G>, outcome: &SolveOutcome<G::Value>) -> Json {
    let partition: Vec<Json> = outcome
        .best_cut
        .sides()
        .iter()
        .map(|&s| Json::UInt(u64::from(s == 1)))
        .collect();
    let mut members = vec![
        ("circuit".into(), Json::str(job.spec.family.name())),
        ("graph".into(), Json::str(job.graph_label.clone())),
        ("n".into(), Json::UInt(job.graph.n() as u64)),
        ("m".into(), Json::UInt(job.graph.m() as u64)),
    ];
    members.extend(G::markers());
    members.extend([
        ("budget".into(), Json::UInt(job.spec.budget)),
        ("replicas".into(), Json::UInt(outcome.replicas as u64)),
        ("samples".into(), Json::UInt(outcome.samples)),
        ("seed".into(), Json::UInt(job.spec.seed)),
        ("best_cut".into(), G::value_json(outcome.best_value)),
        ("partition".into(), Json::Arr(partition)),
        (
            "sdp_bound".into(),
            outcome.sdp_bound.map_or(Json::Null, Json::Num),
        ),
        (
            "trace".into(),
            Json::Obj(vec![
                (
                    "checkpoints".into(),
                    Json::Arr(
                        outcome
                            .trace
                            .checkpoints
                            .iter()
                            .map(|&c| Json::UInt(c))
                            .collect(),
                    ),
                ),
                (
                    "best".into(),
                    Json::Arr(
                        outcome
                            .trace
                            .best
                            .iter()
                            .map(|&b| G::value_json(b))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    Json::Obj(members)
}

/// [`solve_response`] for a weighted job.
///
/// Kept as a named entry point because the `ladderbench` benchmark
/// calls it.
pub fn weighted_solve_response(job: &SolveJob<WeightedGraph>, outcome: &SolveOutcome<f64>) -> Json {
    solve_response(job, outcome)
}

/// Renders a MAX2SAT solution as the deterministic response body.
pub fn max2sat_response(job: &Max2SatJob, solution: &Max2SatSolution) -> Json {
    let assignment: Vec<Json> = solution
        .assignment
        .iter()
        .map(|&b| Json::UInt(u64::from(b)))
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::str("max2sat")),
        ("vars".into(), Json::UInt(job.instance.n_vars as u64)),
        ("clauses".into(), Json::UInt(job.instance.clauses.len() as u64)),
        ("budget".into(), Json::UInt(job.samples)),
        ("seed".into(), Json::UInt(job.seed)),
        ("value".into(), Json::Num(solution.value)),
        ("sdp_bound".into(), Json::Num(solution.sdp_bound)),
        ("assignment".into(), Json::Arr(assignment)),
    ])
}

/// Renders a MAXDICUT solution as the deterministic response body.
pub fn maxdicut_response(job: &MaxDicutJob, solution: &MaxDicutSolution) -> Json {
    let in_s: Vec<Json> = solution
        .in_s
        .iter()
        .map(|&b| Json::UInt(u64::from(b)))
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::str("maxdicut")),
        ("n".into(), Json::UInt(job.graph.n as u64)),
        ("arcs".into(), Json::UInt(job.graph.arcs.len() as u64)),
        ("budget".into(), Json::UInt(job.samples)),
        ("seed".into(), Json::UInt(job.seed)),
        ("value".into(), Json::UInt(solution.value)),
        ("sdp_bound".into(), Json::Num(solution.sdp_bound)),
        ("in_s".into(), Json::Arr(in_s)),
    ])
}

/// Renders an error body (`{"error": …}`).
pub fn error_body(message: &str) -> String {
    Json::Obj(vec![("error".into(), Json::str(message))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> RequestDefaults {
        RequestDefaults {
            replicas: 2,
            sdp_rank: 4,
            lif: LifParams::default(),
            max_budget: 1 << 20,
            max_vertices: 10_000,
            max_replicas: 64,
            max_hopfield_steps: 4096,
        }
    }

    #[test]
    fn parses_a_dataset_request() {
        let body = br#"{"graph": "road-chesapeake", "circuit": "lif-gw", "budget": 64, "seed": 9}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!(job.graph.n(), 39);
        assert_eq!(job.spec.family, CircuitFamily::LifGw);
        assert_eq!(job.spec.budget, 64);
        assert_eq!(job.spec.seed, 9);
        assert_eq!(job.spec.replicas, 2, "server default fills in");
        assert_eq!(job.graph_label, "dataset:road-chesapeake");
    }

    #[test]
    fn parses_inline_edges_and_edgelist_and_gnp() {
        let body = br#"{"graph": {"edges": [[0,1],[1,2],[2,0]]}, "budget": 8}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!((job.graph.n(), job.graph.m()), (3, 3));
        assert_eq!(job.spec.family, CircuitFamily::LifGw, "default circuit");

        let body = br#"{"graph": {"edges": [[0,1]], "n": 4}, "budget": 8}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!((job.graph.n(), job.graph.m()), (4, 1));

        let body = br#"{"graph": {"edgelist": "0 1\n1 2\n"}, "budget": 8, "circuit": "lif-trevisan"}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!((job.graph.n(), job.graph.m()), (3, 2));
        assert_eq!(job.spec.family, CircuitFamily::LifTrevisan);

        let body = br#"{"graph": {"gnp": {"n": 20, "p": 0.5, "seed": 3}}, "budget": 8}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!(job.graph.n(), 20);
        assert_eq!(job.graph_label, "gnp(n=20,p=0.5,seed=3)");
    }

    #[test]
    fn parses_the_annealed_family_with_a_schedule() {
        let body = br#"{"graph": {"gnp": {"n": 10, "p": 0.5}}, "circuit": "lif-annealed",
                        "schedule": {"kind": "linear", "start": 2.0, "end": 0.5}, "budget": 8}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!(job.spec.family, CircuitFamily::LifAnnealed);
        assert_eq!(job.spec.schedule.kind(), ScheduleKind::Linear);
        assert_eq!(job.spec.schedule.start(), 2.0);
        assert_eq!(job.spec.schedule.end(), 0.5);

        // Without a schedule the solve-spec default applies.
        let body = br#"{"graph": {"gnp": {"n": 10, "p": 0.5}}, "circuit": "lif-annealed", "budget": 8}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!(job.spec.schedule, CoolingSchedule::default());
    }

    #[test]
    fn parses_the_hopfield_family_with_steps() {
        let body = br#"{"graph": {"gnp": {"n": 10, "p": 0.5}}, "circuit": "hopfield",
                        "steps": 16, "budget": 8}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!(job.spec.family, CircuitFamily::Hopfield);
        assert_eq!(job.spec.hopfield_steps, 16);

        let body = br#"{"graph": {"gnp": {"n": 10, "p": 0.5}}, "circuit": "hopfield", "budget": 8}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!(job.spec.hopfield_steps, SolveSpec::new(CircuitFamily::Hopfield, 8, 0).hopfield_steps);
    }

    #[test]
    fn parses_weighted_edges_into_a_weighted_workload() {
        let body = br#"{"graph": {"weighted_edges": [[0, 1, 2.5], [1, 2, -0.5]]}, "budget": 8}"#;
        let job = match parse_request(body, &defaults()).unwrap() {
            Workload::WeightedMaxCut(job) => job,
            other => panic!("expected a weighted workload, got {other:?}"),
        };
        assert_eq!((job.graph.n(), job.graph.m()), (3, 2));
        assert_eq!(job.graph_label, "weighted-edges");
        let canonical = job.canonical_graph();
        assert!(canonical.starts_with("wgraph:n=3;"));
        assert!(canonical.contains(&format!("{:016x}", 2.5f64.to_bits())));

        // Declared n pads isolated vertices, same as unweighted edges.
        let body = br#"{"graph": {"weighted_edges": [[0, 1, 1.0]], "n": 5}, "budget": 8}"#;
        match parse_request(body, &defaults()).unwrap() {
            Workload::WeightedMaxCut(job) => assert_eq!(job.graph.n(), 5),
            other => panic!("expected a weighted workload, got {other:?}"),
        }
    }

    #[test]
    fn parses_max2sat_and_maxdicut_workloads() {
        let body = br#"{"max2sat": {"vars": 3, "clauses": [[1, -2], [2, 3], [-1]],
                        "weights": [1.0, 2.0, 0.5]}, "budget": 16, "seed": 7}"#;
        let job = match parse_request(body, &defaults()).unwrap() {
            Workload::Max2Sat(job) => job,
            other => panic!("expected max2sat, got {other:?}"),
        };
        assert_eq!(job.instance.n_vars, 3);
        assert_eq!(job.instance.clauses.len(), 3);
        assert_eq!(job.instance.clauses[0].a, Literal::pos(0));
        assert_eq!(job.instance.clauses[0].b, Some(Literal::neg(1)));
        assert_eq!(job.instance.clauses[2].b, None);
        assert_eq!(job.instance.clauses[1].weight, 2.0);
        assert_eq!((job.samples, job.seed), (16, 7));
        assert!(job.canonical().starts_with("max2sat:vars=3;+0-1:"));

        let body = br#"{"maxdicut": {"n": 4, "arcs": [[0, 1], [1, 2], [2, 2]]}, "budget": 16}"#;
        let job = match parse_request(body, &defaults()).unwrap() {
            Workload::MaxDicut(job) => job,
            other => panic!("expected maxdicut, got {other:?}"),
        };
        assert_eq!(job.graph.n, 4);
        assert_eq!(job.graph.arcs.len(), 2, "self-loop dropped");
        assert_eq!(job.canonical(), "maxdicut:n=4;0-1;1-2;");
    }

    #[test]
    fn rejects_bad_requests_with_messages() {
        let cases: &[(&[u8], &str)] = &[
            (b"not json", "invalid JSON"),
            (br#"[1,2]"#, "must be a JSON object"),
            (br#"{"budget": 8}"#, "must name a workload"),
            (br#"{"graph": "road-chesapeake"}"#, "missing `budget`"),
            (br#"{"graph": "no-such-graph", "budget": 8}"#, "unknown dataset"),
            (br#"{"graph": "road-chesapeake", "budget": 0}"#, "`budget` must be ≥ 1"),
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "replicas": 0}"#,
                "`replicas` must be ≥ 1",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "circuit": "gw"}"#,
                "unknown circuit",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "bogus": 1}"#,
                "unknown key `bogus`",
            ),
            (
                br#"{"graph": {"edges": []}, "budget": 8}"#,
                "no edges",
            ),
            (
                br#"{"graph": {"edges": [[0,1]], "edgelist": "0 1"}, "budget": 8}"#,
                "exactly one of",
            ),
            (
                br#"{"graph": {"edges": [[0]]}, "budget": 8}"#,
                "[u, v] pair",
            ),
            (
                br#"{"graph": {"gnp": {"n": 99999999, "p": 0.5}}, "budget": 8}"#,
                "exceeding the server limit",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 99999999999}"#,
                "exceeds the server limit",
            ),
            // Allocation-amplifier guards: all of these must be rejected
            // *before* any graph/circuit state is materialized.
            (
                br#"{"graph": {"edges": [[0, 4294967294]]}, "budget": 8}"#,
                "exceeding the server limit",
            ),
            (
                br#"{"graph": {"edges": [[0, 1]], "n": 4000000000}, "budget": 8}"#,
                "exceeding the server limit",
            ),
            (
                br#"{"graph": {"edgelist": "0 4294967294\n"}, "budget": 8}"#,
                "exceeding the server limit",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 1048576, "replicas": 1048576}"#,
                "`replicas` 1048576 exceeds",
            ),
            // Strict keys inside the graph object too: a mis-cased "N"
            // must not be silently dropped.
            (
                br#"{"graph": {"edges": [[0,1]], "N": 4}, "budget": 8}"#,
                "unknown key `N` in `graph`",
            ),
            (
                br#"{"graph": {"gnp": {"n": 10, "p": 0.5}, "n": 10}, "budget": 8}"#,
                "`n` is only valid alongside `edges`",
            ),
            (
                br#"{"graph": {"gnp": {"n": 10, "p": 0.5, "Seed": 3}}, "budget": 8}"#,
                "unknown key `Seed` in `gnp`",
            ),
            // Family knobs: valid only with their own family, strict at
            // every nesting level, bounded like everything else.
            (
                br#"{"graph": "road-chesapeake", "budget": 8,
                     "schedule": {"kind": "geometric", "start": 1.0, "end": 0.1}}"#,
                "`schedule` is only valid with circuit `lif-annealed`",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "circuit": "lif-annealed",
                     "schedule": {"kind": "cosine", "start": 1.0, "end": 0.1}}"#,
                "unknown schedule kind `cosine`",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "circuit": "lif-annealed",
                     "schedule": {"kind": "linear", "start": 1.0, "end": 0.1, "warmup": 2}}"#,
                "unknown key `warmup` in `schedule`",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "circuit": "lif-annealed",
                     "schedule": {"kind": "linear", "start": -1.0, "end": 0.1}}"#,
                "invalid schedule",
            ),
            // Overflowing numeric literals die in the JSON layer, so a
            // non-finite schedule endpoint (or edge weight) can never
            // reach the parsers; the in-parser finite checks behind this
            // are defense in depth.
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "circuit": "lif-annealed",
                     "schedule": {"kind": "linear", "start": 1e999, "end": 0.1}}"#,
                "invalid number",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "steps": 4}"#,
                "`steps` is only valid with circuit `hopfield`",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "circuit": "hopfield", "steps": 0}"#,
                "`steps` must be ≥ 1",
            ),
            (
                br#"{"graph": "road-chesapeake", "budget": 8, "circuit": "hopfield", "steps": 99999999}"#,
                "`steps` 99999999 exceeds the server limit",
            ),
            // Weighted-edge guards: finiteness, magnitude, shape, and
            // the family constraint all reject before any solve starts.
            (
                br#"{"graph": {"weighted_edges": [[0, 1, 1e999]]}, "budget": 8}"#,
                "invalid number",
            ),
            (
                br#"{"graph": {"weighted_edges": [[0, 1, 1e13]]}, "budget": 8}"#,
                "exceeds the magnitude limit",
            ),
            (
                br#"{"graph": {"weighted_edges": [[0, 1]]}, "budget": 8}"#,
                "[u, v, w] triple",
            ),
            (
                br#"{"graph": {"weighted_edges": [[0, 1, "x"]]}, "budget": 8}"#,
                "edge weights must be numbers",
            ),
            (
                br#"{"graph": {"weighted_edges": [[0, 4294967294, 1.0]]}, "budget": 8}"#,
                "exceeding the server limit",
            ),
            // Ids past u32 are rejected, not truncated onto a small
            // vertex (here 2^32 + 1 would alias vertex 1 of n = 5).
            (
                br#"{"graph": {"weighted_edges": [[0, 4294967297, 1.0]], "n": 5}, "budget": 8}"#,
                "exceeds the supported range",
            ),
            (
                br#"{"graph": {"edges": [[0, 4294967297]], "n": 5}, "budget": 8}"#,
                "exceeds the supported range",
            ),
            (
                br#"{"graph": {"weighted_edges": []}, "budget": 8}"#,
                "no edges",
            ),
            (
                br#"{"graph": {"weighted_edges": [[0, 1, -1.0]]}, "budget": 8, "circuit": "lif-trevisan"}"#,
                "lif-trevisan requires non-negative edge weights",
            ),
            // MAX2SAT guards.
            (
                br#"{"max2sat": {"vars": 2, "clauses": []}, "budget": 8}"#,
                "`max2sat.clauses` must not be empty",
            ),
            (
                br#"{"max2sat": {"vars": 2, "clauses": [[0]]}, "budget": 8}"#,
                "literal 0 is invalid",
            ),
            (
                br#"{"max2sat": {"vars": 2, "clauses": [[3]]}, "budget": 8}"#,
                "out of range",
            ),
            (
                br#"{"max2sat": {"vars": 2, "clauses": [[1, -2, 1]]}, "budget": 8}"#,
                "1 or 2 literals",
            ),
            (
                br#"{"max2sat": {"vars": 2, "clauses": [[1]], "weights": [1.0, 2.0]}, "budget": 8}"#,
                "2 entries for 1 clauses",
            ),
            (
                br#"{"max2sat": {"vars": 2, "clauses": [[1]], "weights": [0.0]}, "budget": 8}"#,
                "clause weights must be positive",
            ),
            (
                br#"{"max2sat": {"vars": 2, "clauses": [[1]], "weights": [1e999]}, "budget": 8}"#,
                "invalid number",
            ),
            (
                br#"{"max2sat": {"vars": 99999999, "clauses": [[1]]}, "budget": 8}"#,
                "exceeding the server limit",
            ),
            (
                br#"{"max2sat": {"vars": 2, "clauses": [[1]], "extra": 1}, "budget": 8}"#,
                "unknown key `extra` in `max2sat`",
            ),
            (
                br#"{"max2sat": {"vars": 2, "clauses": [[1]]}, "budget": 8, "circuit": "lif-gw"}"#,
                "unknown key `circuit` (expected max2sat, budget, seed)",
            ),
            (
                br#"{"max2sat": {"vars": 2, "clauses": [[1]]}, "graph": "road-chesapeake", "budget": 8}"#,
                "exactly one of `graph`, `max2sat`, `maxdicut`",
            ),
            // MAXDICUT guards — out-of-range arcs reject *before* the
            // panicking constructor.
            (
                br#"{"maxdicut": {"n": 3, "arcs": [[0, 5]]}, "budget": 8}"#,
                "arc endpoint 5 is out of range",
            ),
            (
                br#"{"maxdicut": {"n": 3, "arcs": []}, "budget": 8}"#,
                "`maxdicut.arcs` must not be empty",
            ),
            (
                br#"{"maxdicut": {"n": 3, "arcs": [[1, 1]]}, "budget": 8}"#,
                "no arcs after dropping self-loops",
            ),
            (
                br#"{"maxdicut": {"n": 99999999, "arcs": [[0, 1]]}, "budget": 8}"#,
                "exceeding the server limit",
            ),
            (
                br#"{"maxdicut": {"n": 3, "arcs": [[0, 1]], "p": 0.5}, "budget": 8}"#,
                "unknown key `p` in `maxdicut`",
            ),
            (
                br#"{"maxdicut": {"n": 3, "arcs": [[0, 1]]}, "budget": 8, "replicas": 2}"#,
                "unknown key `replicas` (expected maxdicut, budget, seed)",
            ),
        ];
        for (body, needle) in cases {
            let e = parse_request(body, &defaults()).unwrap_err();
            assert!(
                e.0.contains(needle),
                "expected {needle:?} in error for {:?}, got {:?}",
                String::from_utf8_lossy(body),
                e.0
            );
        }
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first_occurrence() {
        // The JSON layer keeps duplicate members and `get` returns the
        // first; the wire layer therefore solves with the first value.
        // Locked here because the response cache keys on the *parsed*
        // request: two bodies differing only in a shadowed duplicate
        // parse to the same job, share a cache entry, and get the same
        // (correct) body.
        let body =
            br#"{"graph": "road-chesapeake", "budget": 8, "budget": 16, "seed": 1, "seed": 2}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        assert_eq!(job.spec.budget, 8, "first `budget` wins");
        assert_eq!(job.spec.seed, 1, "first `seed` wins");
    }

    #[test]
    fn response_rendering_is_deterministic_and_consistent() {
        let body = br#"{"graph": {"gnp": {"n": 12, "p": 0.5, "seed": 1}}, "budget": 16, "seed": 5}"#;
        let job = parse_solve_request(body, &defaults()).unwrap();
        let outcome = snc_maxcut::solve(&job.graph, &job.spec).unwrap();
        let a = solve_response(&job, &outcome).render();
        let b = solve_response(&job, &snc_maxcut::solve(&job.graph, &job.spec).unwrap()).render();
        assert_eq!(a, b, "identical request ⇒ identical body");
        let parsed = snc_experiments::json::parse(&a).unwrap();
        assert_eq!(parsed.get("best_cut").unwrap().as_u64(), Some(outcome.best_value));
        let partition = parsed.get("partition").unwrap().as_array().unwrap();
        assert_eq!(partition.len(), 12);
        assert!(partition.iter().all(|s| matches!(s.as_u64(), Some(0 | 1))));
        // The partition in the body achieves the reported cut value.
        let sides: Vec<i8> = partition
            .iter()
            .map(|s| if s.as_u64() == Some(1) { 1 } else { -1 })
            .collect();
        let cut = snc_graph::CutAssignment::from_sides(sides);
        assert_eq!(cut.cut_value(&job.graph), outcome.best_value);
    }

    #[test]
    fn weighted_response_rendering_is_deterministic_and_consistent() {
        let body = br#"{"graph": {"weighted_edges": [[0,1,2.0],[1,2,0.5],[2,0,1.25],[2,3,3.0]]},
                        "budget": 16, "seed": 5}"#;
        let job = match parse_request(body, &defaults()).unwrap() {
            Workload::WeightedMaxCut(job) => job,
            other => panic!("expected weighted, got {other:?}"),
        };
        let outcome = snc_maxcut::solve(&job.graph, &job.spec).unwrap();
        let a = solve_response(&job, &outcome).render();
        let b = solve_response(&job, &snc_maxcut::solve(&job.graph, &job.spec).unwrap()).render();
        assert_eq!(a, b, "identical request ⇒ identical body");
        let parsed = snc_experiments::json::parse(&a).unwrap();
        assert_eq!(parsed.get("weighted").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("best_cut").unwrap().as_f64(),
            Some(outcome.best_value)
        );
        // The partition in the body achieves the reported weighted value.
        let sides: Vec<i8> = parsed
            .get("partition")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| if s.as_u64() == Some(1) { 1 } else { -1 })
            .collect();
        let cut = snc_graph::CutAssignment::from_sides(sides);
        assert!((job.graph.cut_value(&cut) - outcome.best_value).abs() <= 1e-9);
    }

    #[test]
    fn extension_responses_are_deterministic() {
        use snc_linalg::SdpConfig;

        let body = br#"{"max2sat": {"vars": 3, "clauses": [[1, -2], [2, 3], [-1]]},
                        "budget": 8, "seed": 7}"#;
        let job = match parse_request(body, &defaults()).unwrap() {
            Workload::Max2Sat(job) => job,
            other => panic!("expected max2sat, got {other:?}"),
        };
        let cfg = SdpConfig { rank: 4, seed: 1, ..SdpConfig::default() };
        let sol = snc_maxcut::extensions::max2sat::solve_gw_max2sat(
            &job.instance,
            &cfg,
            job.samples as usize,
            job.seed,
        )
        .unwrap();
        let a = max2sat_response(&job, &sol).render();
        let sol2 = snc_maxcut::extensions::max2sat::solve_gw_max2sat(
            &job.instance,
            &cfg,
            job.samples as usize,
            job.seed,
        )
        .unwrap();
        assert_eq!(a, max2sat_response(&job, &sol2).render());
        let parsed = snc_experiments::json::parse(&a).unwrap();
        assert_eq!(parsed.get("workload").and_then(Json::as_str), Some("max2sat"));
        assert_eq!(
            parsed.get("assignment").unwrap().as_array().unwrap().len(),
            3
        );

        let body = br#"{"maxdicut": {"n": 4, "arcs": [[0,1],[1,2],[2,3],[3,0]]}, "budget": 8}"#;
        let job = match parse_request(body, &defaults()).unwrap() {
            Workload::MaxDicut(job) => job,
            other => panic!("expected maxdicut, got {other:?}"),
        };
        let sol = snc_maxcut::extensions::maxdicut::solve_gw_maxdicut(
            &job.graph,
            &cfg,
            job.samples as usize,
            job.seed,
        )
        .unwrap();
        let rendered = maxdicut_response(&job, &sol).render();
        let parsed = snc_experiments::json::parse(&rendered).unwrap();
        assert_eq!(parsed.get("value").unwrap().as_u64(), Some(sol.value));
        assert_eq!(parsed.get("in_s").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn spec_extras_distinguish_family_knobs() {
        let base = SolveSpec::new(CircuitFamily::LifGw, 8, 0);
        assert_eq!(spec_extras(&base), "", "common families carry no extras");

        let mut annealed = SolveSpec::new(CircuitFamily::LifAnnealed, 8, 0);
        let default_extras = spec_extras(&annealed);
        assert!(default_extras.starts_with("schedule=geometric:"));
        annealed.schedule = CoolingSchedule::linear(1.0, 0.05).unwrap();
        assert_ne!(spec_extras(&annealed), default_extras, "kind is keyed");
        annealed.schedule = CoolingSchedule::geometric(1.0, 0.06).unwrap();
        assert_ne!(spec_extras(&annealed), default_extras, "endpoints are keyed");

        let mut hopfield = SolveSpec::new(CircuitFamily::Hopfield, 8, 0);
        assert_eq!(spec_extras(&hopfield), "steps=8");
        hopfield.hopfield_steps = 9;
        assert_eq!(spec_extras(&hopfield), "steps=9");
    }

    #[test]
    fn error_bodies_are_json() {
        assert_eq!(
            error_body("bad \"stuff\""),
            "{\"error\":\"bad \\\"stuff\\\"\"}"
        );
    }
}
