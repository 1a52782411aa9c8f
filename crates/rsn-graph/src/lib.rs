//! Directed-graph algorithms for RSN dataflow analysis.
//!
//! This crate provides the graph substrate used by the fault-tolerant RSN
//! synthesis (Sections III-B to III-D of the DATE'20 paper):
//!
//! * [`DiGraph`] — a compact directed graph with adjacency lists.
//! * Topological ordering and *levels* ([`DiGraph::topo_order`],
//!   [`DiGraph::levels`]) — the `level(·)` function that defines the
//!   potential-edge set of the augmentation ILP.
//! * Cycle detection ([`DiGraph::find_cycle`]).
//! * Menger-style *vertex-independent path* counts
//!   ([`vertex_independent_paths`], Dinic max-flow with vertex
//!   splitting) — the connectivity requirement of fault-tolerant RSNs
//!   (Sec. III-C), kept as the exact reference for the dominator test.
//! * Dominators ([`dominators()`]) — single-point-of-failure analysis: a
//!   vertex dominating `s` on every root→s path is a single point of
//!   failure for accessing `s`. [`two_independent_paths`] turns them into
//!   the "at least two vertex-independent paths" test for every vertex at
//!   once, without a max-flow per vertex.
//!
//! # Example
//!
//! ```
//! use rsn_graph::{DiGraph, vertex_independent_paths};
//!
//! // A diamond has two vertex-independent paths from 0 to 3.
//! let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
//! assert_eq!(vertex_independent_paths(&g, 0, 3), 2);
//! ```

pub mod dominators;
pub mod flow;
pub mod graph;

pub use dominators::{dominators, postdominators, two_independent_paths};
pub use flow::vertex_independent_paths;
pub use graph::DiGraph;
