//! The correctness gate: answers are recomputed from the generated
//! graphs, and a seeded sample is re-solved in process and compared
//! byte for byte.

use crate::workload::{Request, Source};
use snc_experiments::json::{self, Json};
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::EmpiricalDataset;
use snc_maxcut::SdpCache;
use snc_server::wire::{self, RequestDefaults, Workload as WireWorkload};
use std::collections::HashMap;
use std::sync::Arc;

/// A weighted edge list `(u, v, w)`.
pub type Edges = Arc<Vec<(u32, u32, f64)>>;

/// Weighted edge lists of the graphs requests name, built once each.
#[derive(Default)]
pub struct Graphs {
    named: HashMap<&'static str, Edges>,
}

impl Graphs {
    /// The weighted edge list (weight 1 for unweighted graphs) of a
    /// request's graph, rebuilt independently of the server.
    pub fn edges(&mut self, source: &Source) -> Edges {
        fn unit(edges: impl Iterator<Item = (u32, u32)>) -> Edges {
            Arc::new(edges.map(|(u, v)| (u, v, 1.0)).collect())
        }
        match source {
            Source::Named(name) => Arc::clone(self.named.entry(name).or_insert_with(|| {
                let graph = EmpiricalDataset::all()
                    .into_iter()
                    .find(|d| d.name() == *name)
                    .expect("requests name known datasets")
                    .load()
                    .expect("bundled dataset loads");
                unit(graph.edges())
            })),
            Source::Gnp { n, p, seed } => {
                let graph = gnp(*n, *p, *seed).expect("generated gnp parameters are valid");
                unit(graph.edges())
            }
            Source::Edges(edges) => unit(edges.iter().copied()),
            Source::Weighted(edges) => Arc::clone(edges),
        }
    }
}

/// Checks one 200 body against its graph: the returned partition must
/// cut exactly the reported `best_cut`. Returns the cut divided by the
/// total absolute edge weight.
///
/// Weights are multiples of 1/4, so weighted cuts sum exactly and are
/// compared exactly too.
pub fn check_cut(edges: &[(u32, u32, f64)], body: &str) -> Result<f64, String> {
    let doc = json::parse(body).map_err(|e| format!("unparsable body: {e}"))?;
    let reported = doc
        .get("best_cut")
        .and_then(Json::as_f64)
        .ok_or("body has no numeric best_cut")?;
    let partition: Vec<u64> = doc
        .get("partition")
        .and_then(Json::as_array)
        .ok_or("body has no partition")?
        .iter()
        .map(|side| {
            side.as_u64()
                .filter(|&s| s <= 1)
                .ok_or("partition entries must be 0 or 1")
        })
        .collect::<Result<_, _>>()?;
    let mut cut = 0.0;
    let mut total = 0.0;
    for &(u, v, w) in edges {
        let (su, sv) = match (partition.get(u as usize), partition.get(v as usize)) {
            (Some(su), Some(sv)) => (su, sv),
            _ => {
                return Err(format!(
                    "partition of {} vertices misses edge ({u}, {v})",
                    partition.len()
                ))
            }
        };
        if su != sv {
            cut += w;
        }
        total += f64::abs(w);
    }
    if cut != reported {
        return Err(format!(
            "returned partition cuts {cut}, body reports best_cut {reported}"
        ));
    }
    Ok(cut / total)
}

/// Solves a request in process exactly as a backend does (parse with
/// the backend's defaults, solve, render) and returns the body.
pub fn solve_in_process(
    request: &Request,
    defaults: &RequestDefaults,
    sdp_cache: Option<&SdpCache>,
) -> Result<String, String> {
    match wire::parse_request(request.body.as_bytes(), defaults).map_err(|e| e.0)? {
        WireWorkload::MaxCut(job) => snc_maxcut::solve_with_cache(&job.graph, &job.spec, sdp_cache)
            .map(|outcome| wire::solve_response(&job, &outcome).render())
            .map_err(|e| e.to_string()),
        WireWorkload::WeightedMaxCut(job) => snc_maxcut::solve_weighted(&job.graph, &job.spec)
            .map(|outcome| wire::weighted_solve_response(&job, &outcome).render())
            .map_err(|e| e.to_string()),
        _ => Err("the benchmark only generates graph requests".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_check_accepts_the_true_cut_and_rejects_a_wrong_one() {
        let triangle = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)];
        let ok = r#"{"best_cut": 2, "partition": [0, 1, 0]}"#;
        assert_eq!(check_cut(&triangle, ok), Ok(2.0 / 3.0));
        let wrong = r#"{"best_cut": 3, "partition": [0, 1, 0]}"#;
        assert!(check_cut(&triangle, wrong).is_err());
        let short = r#"{"best_cut": 1, "partition": [0, 1]}"#;
        assert!(check_cut(&triangle, short).is_err());
        let weighted = [(0, 1, 0.25), (1, 2, 1.75)];
        assert_eq!(
            check_cut(&weighted, r#"{"best_cut": 2, "partition": [1, 0, 1]}"#),
            Ok(1.0)
        );
    }
}
