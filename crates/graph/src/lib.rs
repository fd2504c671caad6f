//! # microblog-graph
//!
//! A self-contained graph toolkit backing the MICROBLOG-ANALYZER
//! reproduction (SIGMOD 2014, "Aggregate Estimation Over a Microblog
//! Platform").
//!
//! The crate provides everything the paper's GRAPH-BUILDER and
//! GRAPH-WALKER layers need from a graph library:
//!
//! * [`csr`] — compact, immutable compressed-sparse-row adjacency for
//!   undirected graphs, plus [`directed::DirectedGraph`] for
//!   follower/followee relations with an undirected union view.
//! * [`components`] — union-find connected components (used for the
//!   *recall* statistic of Table 2: the fraction of term-matching users
//!   inside the largest connected component of the term-induced subgraph).
//! * [`metrics`] — degree statistics, common-neighbor counts, clustering.
//! * [`modularity`] — Newman modularity of a node partition (the paper
//!   cites modularity as the measure of "tightly connected communities").
//! * [`conductance`] — cut conductance, brute-force minimum conductance for
//!   small graphs, a spectral sweep-cut estimate for larger ones, and the
//!   paper's closed forms: Eq. (2) (level-by-level graph *with* intra-level
//!   edges), Eq. (3) (without), and Corollary 4.1's optimal inter-level
//!   degree.
//! * [`walk`] — simple and Metropolis–Hastings random walks over any
//!   [`walk::NeighborSource`], with step traces suitable for estimation.
//! * [`diagnostics`] — the Geweke convergence diagnostic used by the paper
//!   to measure burn-in (`Z ≤ 0.1` threshold in §4.1).
//! * [`sizing`] — the collision-based (mark-and-recapture / Katzir et al.)
//!   population-size estimator used by the M&R baseline and by MA-SRW for
//!   COUNT queries.
//! * [`idhash`] — [`IdMap`] / [`IdSet`], hash collections with a keyless
//!   hasher for the program-assigned ids the walkers' memos are keyed by.
//!
//! The toolkit is deliberately independent of the microblog domain: nodes
//! are plain `u32` identifiers, and walkers pull neighbor lists through the
//! [`walk::NeighborSource`] trait so that higher layers can charge API-call
//! costs, filter edges on the fly, or serve adjacency from a simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod conductance;
pub mod csr;
pub mod diagnostics;
pub mod directed;
pub mod idhash;
pub mod metrics;
pub mod modularity;
pub mod sizing;
pub mod walk;

pub use csr::CsrGraph;
pub use directed::DirectedGraph;
pub use idhash::{IdMap, IdSet};
pub use walk::{Visit, WalkTrace};

/// Node identifier used across the toolkit.
pub type NodeId = u32;
