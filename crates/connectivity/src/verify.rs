//! Max-flow certification of threshold realizations: by Menger's theorem,
//! `Conn_G(u, v)` equals the maximum number of edge-disjoint `u`–`v`
//! paths. A pair only has to reach `need = min(ρ(u), ρ(v))`, so each check
//! is a flow bounded at `need`: exact whenever it falls short, which is
//! the only case the report records a flow value.

use dgr_graph::{Graph, UnitFlow};
use std::collections::BTreeMap;

/// Node identifier (matches `dgr_ncc::NodeId`).
type NodeId = u64;

/// The result of checking a realization against its thresholds.
#[derive(Clone, Debug)]
pub struct ThresholdReport {
    /// Were all checked pairs satisfied? **Vacuously true when the
    /// certification was skipped** — check [`ThresholdReport::certified`]
    /// (or `skipped`) before trusting it.
    pub satisfied: bool,
    /// True when the max-flow certification was skipped entirely
    /// (`certify(false)`): no pair was checked and `satisfied` carries no
    /// information.
    pub skipped: bool,
    /// Number of pairs checked.
    pub pairs_checked: usize,
    /// The first violated pair, if any: `(u, v, required, actual)`.
    pub first_violation: Option<(NodeId, NodeId, usize, usize)>,
    /// Edge count of the realization.
    pub edges: usize,
}

impl ThresholdReport {
    /// True when the certification actually ran and every checked pair
    /// held — the assertion-safe reading of `satisfied`.
    pub fn certified(&self) -> bool {
        !self.skipped && self.satisfied
    }
}

/// Verifies `Conn_G(u, v) ≥ min(ρ(u), ρ(v))`.
///
/// With `all_pairs = true`, every pair is flow-checked (`O(n²)` flows —
/// small instances). Otherwise the check follows the paper's own proof
/// structure: it verifies `Conn_G(w, v) ≥ ρ(v)` for the maximum-`ρ` node
/// `w` against everyone, which by Menger
/// (`Conn(u,v) ≥ min(Conn(u,w), Conn(v,w))`) implies all pairs.
pub fn check_thresholds(
    g: &Graph,
    rho: &BTreeMap<NodeId, usize>,
    all_pairs: bool,
) -> ThresholdReport {
    let mut report = ThresholdReport {
        satisfied: true,
        skipped: false,
        pairs_checked: 0,
        first_violation: None,
        edges: g.edge_count(),
    };
    let ids: Vec<NodeId> = rho.keys().copied().collect();
    if ids.len() < 2 {
        return report;
    }
    let mut flow = UnitFlow::from_graph(g);
    let mut check = |u: NodeId, v: NodeId, report: &mut ThresholdReport| {
        let need = rho[&u].min(rho[&v]);
        let (ui, vi) = (g.index_of(u).unwrap(), g.index_of(v).unwrap());
        let got = flow.flow_at_most(ui, vi, need);
        report.pairs_checked += 1;
        if got < need && report.first_violation.is_none() {
            report.satisfied = false;
            report.first_violation = Some((u, v, need, got));
        }
    };
    if all_pairs {
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                check(ids[i], ids[j], &mut report);
            }
        }
    } else {
        let w = *ids.iter().max_by_key(|&&id| (rho[&id], id)).unwrap();
        for &v in ids.iter().filter(|&&v| v != w) {
            check(w, v, &mut report);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_satisfies_rho_two() {
        let g = Graph::from_edges(0..4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let rho: BTreeMap<u64, usize> = (0..4).map(|i| (i, 2)).collect();
        let r = check_thresholds(&g, &rho, true);
        assert!(r.satisfied);
        assert_eq!(r.pairs_checked, 6);
    }

    #[test]
    fn path_fails_rho_two() {
        let g = Graph::from_edges(0..3, [(0, 1), (1, 2)]).unwrap();
        let rho: BTreeMap<u64, usize> = (0..3).map(|i| (i, 2)).collect();
        let r = check_thresholds(&g, &rho, true);
        assert!(!r.satisfied);
        let (_, _, need, got) = r.first_violation.unwrap();
        assert_eq!((need, got), (2, 1));
    }

    #[test]
    fn hub_mode_agrees_with_all_pairs_here() {
        let g = Graph::from_edges(0..5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]).unwrap();
        let mut rho: BTreeMap<u64, usize> = (1..5).map(|i| (i, 2)).collect();
        rho.insert(0, 4);
        assert!(check_thresholds(&g, &rho, true).satisfied);
        assert!(check_thresholds(&g, &rho, false).satisfied);
    }

    /// Hub mode's verdict equals the all-pairs verdict on seeded random
    /// instances, satisfied and violated alike: by Menger,
    /// `Conn(u, v) ≥ min(Conn(u, w), Conn(w, v))`, so checking the
    /// maximum-`ρ` hub `w` against everyone decides every pair.
    #[test]
    fn hub_mode_agrees_with_all_pairs_on_random_instances() {
        // SplitMix64, so the instances need no external generator.
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut satisfied, mut violated) = (0, 0);
        for n in 2..=10u64 {
            for percent in [25, 50, 75, 100] {
                for _ in 0..6 {
                    let edges: Vec<(u64, u64)> = (0..n)
                        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                        .filter(|_| next() % 100 < percent)
                        .collect();
                    let g = Graph::from_edges(0..n, edges).unwrap();
                    let rho: BTreeMap<u64, usize> =
                        (0..n).map(|i| (i, 1 + (next() % 4) as usize)).collect();
                    let all = check_thresholds(&g, &rho, true);
                    let hub = check_thresholds(&g, &rho, false);
                    assert_eq!(all.satisfied, hub.satisfied, "{g:?} {rho:?}");
                    assert_eq!(all.pairs_checked as u64, n * (n - 1) / 2);
                    assert_eq!(hub.pairs_checked as u64, n - 1);
                    // A recorded shortfall is an exact connectivity.
                    for r in [&all, &hub] {
                        if let Some((u, v, need, got)) = r.first_violation {
                            assert!(got < need);
                            assert_eq!(got, dgr_graph::edge_connectivity(&g, u, v));
                        }
                    }
                    if all.satisfied {
                        satisfied += 1;
                    } else {
                        violated += 1;
                    }
                }
            }
        }
        assert!(satisfied > 10 && violated > 10, "{satisfied} / {violated}");
    }
}
