//! Differential test of the bounded max-flow against an independent
//! oracle: on seeded random graphs with at most ten nodes, the minimum
//! `s`–`t` edge cut is found by enumerating all 2ⁿ vertex bipartitions,
//! and `flow_at_most(s, t, b)` must equal `min(cut, b)` for every pair and
//! every bound `b` in `1..=n` (Menger: max-flow equals min-cut).

use dgr_graph::{edge_connectivity, global_edge_connectivity, Graph, UnitFlow};

/// SplitMix64: a self-contained seeded generator for the instances.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A random simple graph on `0..n`, each edge present with probability
/// `percent`%.
fn random_graph(rng: &mut SplitMix, n: u64, percent: u64) -> (Graph, Vec<(usize, usize)>) {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.next() % 100 < percent {
                edges.push((u, v));
            }
        }
    }
    let g = Graph::from_edges(0..n, edges.iter().copied()).unwrap();
    let indexed = edges
        .iter()
        .map(|&(u, v)| (g.index_of(u).unwrap(), g.index_of(v).unwrap()))
        .collect();
    (g, indexed)
}

/// Minimum number of edges crossing any bipartition with `s` on one side
/// and `t` on the other.
fn brute_force_min_cut(n: usize, edges: &[(usize, usize)], s: usize, t: usize) -> usize {
    (0u32..1 << n)
        .filter(|side| side >> s & 1 == 1 && side >> t & 1 == 0)
        .map(|side| {
            edges
                .iter()
                .filter(|&&(u, v)| (side >> u & 1) != (side >> v & 1))
                .count()
        })
        .min()
        .unwrap()
}

#[test]
fn bounded_flow_matches_min_cut_enumeration() {
    let mut rng = SplitMix(0x5EED);
    let mut instances = 0;
    for n in 2..=10u64 {
        for percent in [20, 45, 70, 95] {
            for _ in 0..3 {
                let (g, edges) = random_graph(&mut rng, n, percent);
                let n = n as usize;
                let mut flow = UnitFlow::from_graph(&g);
                for s in 0..n {
                    for t in 0..n {
                        if s == t {
                            continue;
                        }
                        let cut = brute_force_min_cut(n, &edges, s, t);
                        for b in 1..=n {
                            assert_eq!(
                                flow.flow_at_most(s, t, b),
                                cut.min(b),
                                "n={n} edges={edges:?} s={s} t={t} bound={b}"
                            );
                        }
                        if s < t {
                            let (su, tu) = (g.id_of(s), g.id_of(t));
                            assert_eq!(edge_connectivity(&g, su, tu), cut);
                        }
                    }
                }
                let global = (1..n)
                    .map(|t| brute_force_min_cut(n, &edges, 0, t))
                    .min()
                    .unwrap();
                assert_eq!(global_edge_connectivity(&g), global, "edges={edges:?}");
                instances += 1;
            }
        }
    }
    assert_eq!(instances, 9 * 4 * 3);
}
