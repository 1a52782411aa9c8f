//! Menger-style vertex-independent path counting by max-flow (Dinic).
//!
//! The connectivity requirement of fault-tolerant RSNs (paper Sec. III-C)
//! asks for two *vertex-independent* paths from the primary scan-in to every
//! segment and from every segment to the primary scan-out. By Menger's
//! theorem the maximum number of internally vertex-disjoint `s→t` paths
//! equals the max-flow in the graph where every internal vertex is split
//! into an in-copy and an out-copy joined by a unit-capacity edge.
//!
//! Synthesis answers the two-path question with the linear dominator test
//! ([`crate::two_independent_paths`]); the exact count here is the
//! reference that test is checked against.

use crate::graph::DiGraph;

/// A flow network with integer capacities (adjacency + residual storage),
/// solved by Dinic's algorithm.
struct FlowNetwork {
    /// to, capacity, index of reverse edge in `graph[to]`.
    graph: Vec<Vec<(usize, i64, usize)>>,
}

impl FlowNetwork {
    /// Creates a network with `n` vertices.
    fn new(n: usize) -> Self {
        FlowNetwork {
            graph: vec![Vec::new(); n],
        }
    }

    /// Adds a directed edge with the given capacity (and a zero-capacity
    /// reverse edge).
    fn add_edge(&mut self, u: usize, v: usize, cap: i64) {
        let ui = self.graph[u].len();
        let vi = self.graph[v].len();
        self.graph[u].push((v, cap, vi));
        self.graph[v].push((u, 0, ui));
    }

    /// Computes the maximum `s→t` flow (Dinic), leaving the network in
    /// its residual state.
    fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        if s == t {
            return i64::MAX;
        }
        let n = self.graph.len();
        let mut flow = 0i64;
        loop {
            // BFS level graph.
            let mut level = vec![usize::MAX; n];
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &(v, cap, _) in &self.graph[u] {
                    if cap > 0 && level[v] == usize::MAX {
                        level[v] = level[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            if level[t] == usize::MAX {
                return flow;
            }
            // DFS blocking flow with iteration pointers.
            let mut it = vec![0usize; n];
            loop {
                let pushed = self.dfs(s, t, i64::MAX, &level, &mut it);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: i64, level: &[usize], it: &mut [usize]) -> i64 {
        if u == t {
            return limit;
        }
        while it[u] < self.graph[u].len() {
            let (v, cap, rev) = self.graph[u][it[u]];
            if cap > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(cap), level, it);
                if pushed > 0 {
                    self.graph[u][it[u]].1 -= pushed;
                    self.graph[v][rev].1 += pushed;
                    return pushed;
                }
            }
            it[u] += 1;
        }
        0
    }
}

/// Number of internally vertex-disjoint `s→t` paths in `g` (Menger).
///
/// Vertices other than `s` and `t` are split into in/out copies joined by a
/// unit-capacity edge, so each internal vertex can carry at most one path.
/// Parallel edges each contribute capacity.
///
/// Returns `i64::MAX` if `s == t`.
pub fn vertex_independent_paths(g: &DiGraph, s: usize, t: usize) -> i64 {
    if s == t {
        return i64::MAX;
    }
    let n = g.len();
    // Vertex v -> in-copy v, out-copy n + v.
    let mut net = FlowNetwork::new(2 * n);
    for v in 0..n {
        let cap = if v == s || v == t { i64::MAX / 4 } else { 1 };
        net.add_edge(v, n + v, cap);
    }
    for (u, v) in g.edges() {
        net.add_edge(n + u, v, 1);
    }
    net.max_flow(n + s, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_has_two_paths() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(vertex_independent_paths(&g, 0, 3), 2);
    }

    #[test]
    fn chain_has_one_path() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(vertex_independent_paths(&g, 0, 2), 1);
    }

    #[test]
    fn shared_vertex_limits_vertex_disjointness() {
        // Two edge-disjoint paths share vertex 1: only one vertex-disjoint
        // path exists.
        //   0 -> 1 -> 2 -> 4
        //   0 -> 3 -> 1 -> 4  (through 1 again)
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 4), (0, 3), (3, 1), (1, 4)]);
        assert_eq!(vertex_independent_paths(&g, 0, 4), 1);
    }

    #[test]
    fn unreachable_is_zero() {
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        assert_eq!(vertex_independent_paths(&g, 0, 2), 0);
    }

    #[test]
    fn same_vertex_is_infinite() {
        let g = DiGraph::new(2);
        assert_eq!(vertex_independent_paths(&g, 1, 1), i64::MAX);
    }

    #[test]
    fn capacities_respected() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 3);
        net.add_edge(1, 2, 2);
        assert_eq!(net.max_flow(0, 2), 2);
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(vertex_independent_paths(&g, 0, 1), 2);
    }

    #[test]
    fn wide_dag_many_paths() {
        // Root feeds k middles, all feeding sink: k vertex-disjoint paths.
        let k = 6;
        let mut g = DiGraph::new(k + 2);
        for i in 0..k {
            g.add_edge(0, 1 + i);
            g.add_edge(1 + i, k + 1);
        }
        assert_eq!(vertex_independent_paths(&g, 0, k + 1), k as i64);
    }
}
