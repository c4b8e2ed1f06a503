//! Survivable network design via connectivity-threshold realization.
//!
//! ```sh
//! cargo run --release --example survivable_network
//! ```
//!
//! A tiered service: 4 core replicas need 6-edge-connectivity to each
//! other, 16 cache nodes need 3, and the remaining edge nodes need 1.
//! The **paper-exact** Algorithm 6 — phase 1 via the prefix envelope
//! recursion, composed with the phase-2 pipeline and explicitness acks —
//! builds an *explicit* overlay with at most twice the optimal number of
//! links; max-flow certifies every requirement, and we demonstrate
//! the survivability by deleting edges.

use distributed_graph_realizations::prelude::*;
use distributed_graph_realizations::{connectivity, graph};

fn main() {
    let n = 64;
    let rho = connectivity::ThresholdInstance::new(
        (0..n)
            .map(|i| {
                if i < 4 {
                    6
                } else if i < 20 {
                    3
                } else {
                    1
                }
            })
            .collect(),
    );
    println!(
        "n = {n}, Σρ = {}, edge lower bound ⌈Σρ/2⌉ = {}",
        rho.sum(),
        connectivity::edge_lower_bound(&rho)
    );

    let run = Realization::new(Workload::Ncc0Exact(rho.rho.clone()))
        .seed(31)
        .run()
        .expect("simulation failed");
    let out = run.threshold();
    println!(
        "built {} edges in {} rounds — within 2x of optimal: {}",
        out.graph.edge_count(),
        out.metrics.rounds,
        out.graph.edge_count() <= 2 * connectivity::edge_lower_bound(&rho)
    );
    println!(
        "max-flow certification: satisfied = {} ({} pairs checked)",
        out.report.satisfied, out.report.pairs_checked
    );
    assert!(out.report.satisfied);

    // Survivability demo: knock out 2 edges incident to a core replica
    // and show the cores still reach each other.
    let core: Vec<u64> = out
        .rho
        .iter()
        .filter(|(_, &r)| r == 6)
        .map(|(&id, _)| id)
        .collect();
    let (a, b) = (core[0], core[1]);
    let mut survivors: Vec<(u64, u64)> = out.graph.edge_list();
    let removed: Vec<(u64, u64)> = survivors
        .iter()
        .copied()
        .filter(|&(u, v)| u == a || v == a)
        .take(2)
        .collect();
    survivors.retain(|e| !removed.contains(e));
    let damaged = graph::Graph::from_edges(out.graph.ids().iter().copied(), survivors).unwrap();
    let conn = graph::edge_connectivity(&damaged, a, b);
    println!(
        "\nafter deleting {} links at core replica {a}: Conn({a}, {b}) = {conn} (needed ≥ {})",
        removed.len(),
        6 - removed.len()
    );
    assert!(conn >= 6 - removed.len());
    println!("the core survives the failures ✓");
}
