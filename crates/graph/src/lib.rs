//! Graph substrate for verifying realizations: simple undirected graphs
//! keyed by arbitrary node IDs, BFS-based connectivity and diameter, and
//! bounded unit-capacity max-flow for exact pairwise edge connectivity
//! (the quantity the connectivity-threshold theorems are stated in, via
//! Menger's theorem).
//!
//! This crate is the *measurement instrument* for the realization
//! algorithms: every distributed construction in the workspace is checked
//! against it — degrees, tree-ness, diameters, connectivity thresholds.

mod bfs;
mod flow;
mod graph;

pub use bfs::{
    bfs_distances, connected_components, diameter, eccentricity, is_connected, tree_diameter,
};
pub use flow::{edge_connectivity, global_edge_connectivity, UnitFlow};
pub use graph::{DegreeMap, Graph};
