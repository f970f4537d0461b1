//! Graph substrate for the MAXCUT reproduction.
//!
//! Provides everything the paper's evaluation needs from graphs:
//!
//! * [`csr`] — a compact CSR representation of simple undirected graphs,
//!   plus matrix-free symmetric operators (adjacency, normalized adjacency,
//!   and the Trevisan matrix `I + D^{-1/2} A D^{-1/2}`) implementing
//!   `snc_linalg::LinOp`.
//! * [`cut`] — cut assignments (`±1` vertex labels), cut values, and
//!   incremental flip deltas.
//! * [`fingerprint`] — canonical order-independent 128-bit graph hashes,
//!   the cache keys of the solve/serving layers (always paired with a
//!   full-key comparison by consumers).
//! * [`generators`] — Erdős–Rényi (the Figure-3 workload), Chung–Lu,
//!   Watts–Strogatz, preferential attachment, random geometric, banded-mesh
//!   and classic structured graphs, along with *exact* reconstructions of
//!   the combinatorial DIMACS instances `hamming6-2` and `johnson16-2-4`.
//! * [`io`] — edge-list, DIMACS, and MatrixMarket readers/writers, so the
//!   original Network Repository files can be dropped in when available.
//! * [`datasets`] — the 16 empirical graphs of Figure 4 / Table I, as exact
//!   reconstructions or structure-matched synthetic stand-ins (see
//!   DESIGN.md, "Substitutions").
//! * [`stats`] — degree statistics, connectivity, clustering, used to
//!   sanity-check the stand-ins.
//! * [`weighted`] — weighted graphs and weighted spectral operators (two
//!   of the Table-I networks are weighted).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod cut;
pub mod datasets;
pub mod error;
pub mod fingerprint;
pub mod generators;
pub mod incremental;
pub mod io;
pub mod stats;
pub mod weighted;

pub use csr::{Graph, NormalizedAdjacency, TrevisanOperator};
pub use cut::{CutAssignment, CutGraph, CutValue};
pub use datasets::EmpiricalDataset;
pub use fingerprint::GraphFingerprint;
pub use incremental::CutTracker;
pub use error::GraphError;
pub use weighted::{WeightedGraph, WeightedTrevisanOperator};
