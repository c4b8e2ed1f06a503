//! Bounded unit-capacity max-flow and pairwise edge connectivity.
//!
//! Edge connectivity `Conn_G(u, v)` — the maximum number of edge-disjoint
//! `u`–`v` paths, by Menger's theorem equal to the minimum `u`–`v` edge cut
//! — is computed as max-flow in the graph with every undirected edge
//! modeled as two opposed unit-capacity arcs. This is the exact quantity
//! the connectivity-threshold realizations (Theorems 17/18) must certify:
//! `Conn_G(u, v) ≥ min(ρ(u), ρ(v))`.
//!
//! Every caller asks a *bounded* question — does the flow reach `need`? —
//! with `need` at most a node degree, so [`UnitFlow`] augments one unit at
//! a time along BFS shortest paths and stops at the bound. Each
//! augmentation is an iterative BFS that ends as soon as it reaches the
//! sink, so a query costs at most `bound + 1` partial searches and no
//! recursion: the stack stays flat on path-like graphs of any length.

use crate::graph::Graph;

/// A bounded augmenting-path max-flow solver for unit-capacity undirected
/// graphs. The arc structure is built once; all search buffers are
/// allocated once and reused, and a query resets only the arcs the
/// previous query touched, so one instance serves many pairs.
pub struct UnitFlow {
    /// CSR offsets: node `u`'s arcs are `out[first[u]..first[u + 1]]`.
    first: Vec<usize>,
    /// Arc ids grouped by tail node.
    out: Vec<u32>,
    /// Arc heads; arcs are stored in pairs (`a ^ 1` is the reverse arc).
    to: Vec<u32>,
    /// Residual capacities: 1 per arc when idle, 0..=2 during a query.
    res: Vec<u8>,
    /// Edges (`a >> 1`) whose arcs left the idle state this query.
    dirty: Vec<u32>,
    /// BFS visit stamps; `seen[v] == epoch` means visited by this search.
    seen: Vec<u32>,
    epoch: u32,
    /// The arc each visited node was reached by.
    via: Vec<u32>,
    /// BFS queue.
    queue: Vec<u32>,
}

impl UnitFlow {
    /// Builds the flow network for an undirected graph with unit edge
    /// capacities: each edge becomes two opposed arcs of capacity 1 (an
    /// edge can carry one unit in either direction, and the pairing makes
    /// residual updates correct).
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let arcs = 2 * g.edge_count();
        assert!(
            u32::try_from(arcs).is_ok() && u32::try_from(n).is_ok(),
            "graph too large for 32-bit arc and node indices"
        );
        let mut first = Vec::with_capacity(n + 1);
        let mut deg_sum = 0;
        for u in 0..n {
            first.push(deg_sum);
            deg_sum += g.neighbors(u).len();
        }
        first.push(deg_sum);
        let mut fill = first.clone();
        let mut out = vec![0u32; arcs];
        let mut to = Vec::with_capacity(arcs);
        for u in 0..n {
            for &v in g.neighbors(u) {
                if u < v {
                    let a = to.len() as u32;
                    to.extend([v as u32, u as u32]);
                    out[fill[u]] = a;
                    out[fill[v]] = a ^ 1;
                    fill[u] += 1;
                    fill[v] += 1;
                }
            }
        }
        UnitFlow {
            first,
            out,
            to,
            res: vec![1; arcs],
            dirty: Vec::new(),
            seen: vec![0; n],
            epoch: 0,
            via: vec![0; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Number of arcs leaving `u` — its degree in the graph.
    fn degree(&self, u: usize) -> usize {
        self.first[u + 1] - self.first[u]
    }

    /// `min(maxflow(s, t), bound)`: exact whenever the result is below
    /// `bound`. Calls are independent of each other.
    pub fn flow_at_most(&mut self, s: usize, t: usize, bound: usize) -> usize {
        assert_ne!(s, t, "flow endpoints must differ");
        for e in self.dirty.drain(..) {
            let a = 2 * e as usize;
            self.res[a] = 1;
            self.res[a + 1] = 1;
        }
        let mut flow = 0;
        while flow < bound && self.augment(s, t) {
            flow += 1;
        }
        flow
    }

    /// Finds one shortest augmenting `s`–`t` path by BFS, stopping when
    /// `t` is reached, and pushes a unit along it. False when `t` is
    /// unreachable in the residual graph (the flow is maximum).
    fn augment(&mut self, s: usize, t: usize) -> bool {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.seen[s] = epoch;
        self.queue.clear();
        self.queue.push(s as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            for &a in &self.out[self.first[u]..self.first[u + 1]] {
                let v = self.to[a as usize] as usize;
                if self.res[a as usize] == 0 || self.seen[v] == epoch {
                    continue;
                }
                self.seen[v] = epoch;
                self.via[v] = a;
                if v == t {
                    self.push_path(s, t);
                    return true;
                }
                self.queue.push(v as u32);
            }
        }
        false
    }

    /// Pushes one unit along the `via` chain from `t` back to `s`.
    fn push_path(&mut self, s: usize, t: usize) {
        let mut v = t;
        while v != s {
            let a = self.via[v] as usize;
            if self.res[a] == 1 && self.res[a ^ 1] == 1 {
                self.dirty.push((a >> 1) as u32);
            }
            self.res[a] -= 1;
            self.res[a ^ 1] += 1;
            v = self.to[a ^ 1] as usize;
        }
    }
}

/// Exact edge connectivity between two node IDs (0 if either is missing or
/// they are disconnected).
pub fn edge_connectivity(g: &Graph, u: u64, v: u64) -> usize {
    let (Some(ui), Some(vi)) = (g.index_of(u), g.index_of(v)) else {
        return 0;
    };
    if ui == vi {
        return 0;
    }
    let mut flow = UnitFlow::from_graph(g);
    // Each unit of flow leaves `u` and enters `v` on a distinct edge.
    let bound = flow.degree(ui).min(flow.degree(vi));
    flow.flow_at_most(ui, vi, bound)
}

/// Global edge connectivity: `min_u Conn(v0, u)` over a fixed `v0` (valid
/// because a global min cut separates `v0` from someone).
pub fn global_edge_connectivity(g: &Graph) -> usize {
    let n = g.node_count();
    if n <= 1 {
        return 0;
    }
    let mut flow = UnitFlow::from_graph(g);
    // A flow is needed only up to the best cut so far: a bounded answer
    // equal to the bound cannot lower the minimum.
    let mut best = flow.degree(0);
    for t in 1..n {
        let bound = best.min(flow.degree(t));
        best = best.min(flow.flow_at_most(0, t, bound));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_has_connectivity_one() {
        let g = Graph::from_edges(1..=4, [(1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(edge_connectivity(&g, 1, 4), 1);
        assert_eq!(global_edge_connectivity(&g), 1);
    }

    #[test]
    fn cycle_has_connectivity_two() {
        let g = Graph::from_edges(1..=4, [(1, 2), (2, 3), (3, 4), (4, 1)]).unwrap();
        assert_eq!(edge_connectivity(&g, 1, 3), 2);
        assert_eq!(global_edge_connectivity(&g), 2);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for u in 1..=5u64 {
            for v in (u + 1)..=5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(1..=5, edges).unwrap();
        for u in 1..=5u64 {
            for v in (u + 1)..=5 {
                assert_eq!(edge_connectivity(&g, u, v), 4);
            }
        }
        assert_eq!(global_edge_connectivity(&g), 4);
    }

    #[test]
    fn disconnected_pairs_have_zero() {
        let g = Graph::from_edges(1..=4, [(1, 2), (3, 4)]).unwrap();
        assert_eq!(edge_connectivity(&g, 1, 3), 0);
        assert_eq!(global_edge_connectivity(&g), 0);
    }

    #[test]
    fn two_triangles_joined_by_a_bridge() {
        let g = Graph::from_edges(
            1..=6,
            [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)],
        )
        .unwrap();
        assert_eq!(edge_connectivity(&g, 1, 2), 2);
        assert_eq!(edge_connectivity(&g, 1, 6), 1); // through the bridge
        assert_eq!(global_edge_connectivity(&g), 1);
    }

    #[test]
    fn matches_menger_on_star_plus_matching() {
        // Star on 0..=4 plus edges (1,2) and (3,4): Conn(1,2)=2 via the
        // direct edge and via the hub.
        let g = Graph::from_edges(0..=4, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]).unwrap();
        assert_eq!(edge_connectivity(&g, 1, 2), 2);
        assert_eq!(edge_connectivity(&g, 1, 3), 2);
    }

    #[test]
    fn bounded_queries_stop_at_the_bound_and_reset_between_calls() {
        // K5: Conn = 4 between every pair.
        let mut edges = Vec::new();
        for u in 0..5u64 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(0..5, edges).unwrap();
        let mut flow = UnitFlow::from_graph(&g);
        for bound in 0..=6 {
            assert_eq!(flow.flow_at_most(0, 4, bound), bound.min(4));
            // A later query on another pair sees a clean network.
            assert_eq!(flow.flow_at_most(1, 2, usize::MAX), 4);
        }
    }

    /// Stack-depth regression: a 200,000-node cycle on a thread with a
    /// 2 MiB stack. The augmenting search is iterative, so path length
    /// does not reach the call stack.
    #[test]
    fn long_cycle_runs_on_a_small_stack() {
        const N: u64 = 200_000;
        let connectivity = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let g = Graph::from_edges(0..N, (0..N).map(|i| (i, (i + 1) % N))).unwrap();
                edge_connectivity(&g, 0, N / 2)
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(connectivity, 2);
    }
}
