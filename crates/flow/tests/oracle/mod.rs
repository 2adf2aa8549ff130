//! Independent max-flow oracles for cross-checking the production Dinic kernel.
//!
//! Edmonds–Karp (shortest augmenting paths) and FIFO push-relabel both run on a dense
//! `n × n` residual matrix built from a plain edge list. They share no code and no
//! buffers with `bmp_flow::FlowSolver` — only the `eps` tolerances — so agreement with
//! them is evidence about the CSR kernel, not a restatement of it. Both are `O(n²)` per
//! scan and meant for the small networks of the property tests.

use bmp_flow::eps;
use std::collections::VecDeque;

/// A directed edge `(from, to, capacity)`.
pub type Edge = (usize, usize, f64);

/// A maximum flow computed by an oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Value of the flow.
    pub value: f64,
    /// Flow on each input edge, indexed like the edge list.
    pub edge_flows: Vec<f64>,
}

/// A minimum `s`–`t` cut.
#[derive(Debug, Clone, PartialEq)]
pub struct MinCut {
    /// Total capacity of the edges crossing the cut.
    pub value: f64,
    /// Nodes on the source side, ascending.
    pub source_side: Vec<usize>,
    /// Indices of the edges crossing from the source side to the sink side.
    pub cut_edges: Vec<usize>,
}

/// Dense capacity matrix: `cap[u * n + v]` sums every edge `u → v` (self-loops dropped).
fn capacity_matrix(n: usize, edges: &[Edge]) -> Vec<f64> {
    let mut cap = vec![0.0; n * n];
    for &(from, to, capacity) in edges {
        if from != to {
            cap[from * n + to] += capacity;
        }
    }
    cap
}

/// Turns a final residual matrix into per-edge flows: the net flow `u → v` (capacity
/// minus residual) is spread over the parallel `u → v` edges in edge-list order.
fn into_flow(n: usize, edges: &[Edge], residual: &[f64], value: f64) -> Flow {
    let cap = capacity_matrix(n, edges);
    let mut net: Vec<f64> = cap
        .iter()
        .zip(residual)
        .map(|(&c, &r)| (c - r).max(0.0))
        .collect();
    let edge_flows = edges
        .iter()
        .map(|&(from, to, capacity)| {
            if from == to {
                return 0.0;
            }
            let flow = net[from * n + to].min(capacity);
            net[from * n + to] -= flow;
            flow
        })
        .collect();
    Flow { value, edge_flows }
}

/// Maximum flow by Edmonds–Karp: repeatedly augment along a BFS shortest path.
pub fn edmonds_karp(n: usize, edges: &[Edge], source: usize, sink: usize) -> Flow {
    assert!(source < n && sink < n, "terminal out of range");
    let mut residual = capacity_matrix(n, edges);
    let mut value = 0.0;
    if source == sink {
        return into_flow(n, edges, &residual, value);
    }
    loop {
        let mut parent = vec![usize::MAX; n];
        parent[source] = source;
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            for v in 0..n {
                if parent[v] == usize::MAX && eps::is_positive(residual[u * n + v]) {
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if parent[sink] == usize::MAX {
            break;
        }
        let mut bottleneck = f64::INFINITY;
        let mut v = sink;
        while v != source {
            bottleneck = bottleneck.min(residual[parent[v] * n + v]);
            v = parent[v];
        }
        let mut v = sink;
        while v != source {
            let u = parent[v];
            residual[u * n + v] -= bottleneck;
            residual[v * n + u] += bottleneck;
            v = u;
        }
        value += bottleneck;
    }
    into_flow(n, edges, &residual, value)
}

/// Maximum flow by FIFO push-relabel: saturate the source's edges, then discharge
/// active nodes in queue order, relabelling a node just above its lowest residual
/// neighbour when it cannot push.
pub fn push_relabel(n: usize, edges: &[Edge], source: usize, sink: usize) -> Flow {
    assert!(source < n && sink < n, "terminal out of range");
    let mut residual = capacity_matrix(n, edges);
    if source == sink {
        return into_flow(n, edges, &residual, 0.0);
    }
    let mut height = vec![0usize; n];
    let mut excess = vec![0.0f64; n];
    let mut queued = vec![false; n];
    let mut active = VecDeque::new();
    height[source] = n;
    for v in 0..n {
        let capacity = residual[source * n + v];
        if eps::is_positive(capacity) {
            residual[source * n + v] = 0.0;
            residual[v * n + source] += capacity;
            excess[v] += capacity;
            if v != sink && !queued[v] {
                queued[v] = true;
                active.push_back(v);
            }
        }
    }
    while let Some(u) = active.pop_front() {
        queued[u] = false;
        while eps::is_positive(excess[u]) {
            let mut pushed = false;
            for v in 0..n {
                if !eps::is_positive(excess[u]) {
                    break;
                }
                let arc = residual[u * n + v];
                if eps::is_positive(arc) && height[u] == height[v] + 1 {
                    let delta = excess[u].min(arc);
                    residual[u * n + v] -= delta;
                    residual[v * n + u] += delta;
                    excess[u] -= delta;
                    excess[v] += delta;
                    pushed = true;
                    if v != source && v != sink && !queued[v] {
                        queued[v] = true;
                        active.push_back(v);
                    }
                }
            }
            if pushed || !eps::is_positive(excess[u]) {
                continue;
            }
            let lowest = (0..n)
                .filter(|&v| eps::is_positive(residual[u * n + v]))
                .map(|v| height[v])
                .min();
            match lowest {
                Some(h) if h < 2 * n => height[u] = h + 1,
                // Only floating-point dust can be stranded here.
                _ => break,
            }
        }
    }
    into_flow(n, edges, &residual, excess[sink].max(0.0))
}

/// Whether `flow` respects every capacity and conserves flow at every node other than
/// the terminals, with `flow.value` leaving the source and reaching the sink.
pub fn is_valid_flow(n: usize, edges: &[Edge], source: usize, sink: usize, flow: &Flow) -> bool {
    if flow.edge_flows.len() != edges.len() {
        return false;
    }
    let mut balance = vec![0.0; n];
    for (&(from, to, capacity), &f) in edges.iter().zip(&flow.edge_flows) {
        if !(eps::approx_ge(f, 0.0) && eps::approx_le(f, capacity)) {
            return false;
        }
        balance[from] -= f;
        balance[to] += f;
    }
    let conserved = balance
        .iter()
        .enumerate()
        .all(|(node, &b)| node == source || node == sink || eps::approx_eq(b, 0.0));
    conserved
        && eps::approx_eq(-balance[source], flow.value)
        && eps::approx_eq(balance[sink], flow.value)
}

/// The minimum cut certified by a maximum `flow`: the source side is every node
/// reachable from `source` in the residual graph.
pub fn min_cut(n: usize, edges: &[Edge], flow: &Flow, source: usize) -> MinCut {
    let mut reachable = vec![false; n];
    reachable[source] = true;
    let mut stack = vec![source];
    while let Some(node) = stack.pop() {
        for (&(from, to, capacity), &f) in edges.iter().zip(&flow.edge_flows) {
            if from == node && !reachable[to] && eps::is_positive(capacity - f) {
                reachable[to] = true;
                stack.push(to);
            }
            if to == node && !reachable[from] && eps::is_positive(f) {
                reachable[from] = true;
                stack.push(from);
            }
        }
    }
    let cut_edges: Vec<usize> = edges
        .iter()
        .enumerate()
        .filter(|&(_, &(from, to, capacity))| {
            reachable[from] && !reachable[to] && eps::is_positive(capacity)
        })
        .map(|(k, _)| k)
        .collect();
    MinCut {
        value: cut_edges.iter().map(|&k| edges[k].2).sum(),
        source_side: (0..n).filter(|&v| reachable[v]).collect(),
        cut_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_flow::{FlowArena, FlowSolver};

    fn dinic(n: usize, edges: &[Edge], source: usize, sink: usize) -> f64 {
        FlowSolver::new().max_flow(&FlowArena::from_edges(n, edges), source, sink)
    }

    const DIAMOND: [Edge; 5] = [
        (0, 1, 3.0),
        (0, 2, 2.0),
        (1, 3, 2.0),
        (2, 3, 4.0),
        (1, 2, 5.0),
    ];

    #[test]
    fn edmonds_karp_matches_dinic_on_small_networks() {
        let edges = [
            (0, 1, 10.0),
            (0, 2, 10.0),
            (1, 2, 2.0),
            (1, 3, 4.0),
            (1, 4, 8.0),
            (2, 4, 9.0),
            (4, 3, 6.0),
            (3, 5, 10.0),
            (4, 5, 10.0),
        ];
        let ek = edmonds_karp(6, &edges, 0, 5);
        assert!((ek.value - 19.0).abs() < 1e-9);
        assert!((ek.value - dinic(6, &edges, 0, 5)).abs() < 1e-9);
        assert!(is_valid_flow(6, &edges, 0, 5, &ek));
    }

    #[test]
    fn push_relabel_matches_dinic_on_textbook_network() {
        let edges = [
            (0, 1, 16.0),
            (0, 2, 13.0),
            (1, 2, 10.0),
            (2, 1, 4.0),
            (1, 3, 12.0),
            (3, 2, 9.0),
            (2, 4, 14.0),
            (4, 3, 7.0),
            (3, 5, 20.0),
            (4, 5, 4.0),
        ];
        let pr = push_relabel(6, &edges, 0, 5);
        assert!((pr.value - 23.0).abs() < 1e-9);
        assert!((pr.value - dinic(6, &edges, 0, 5)).abs() < 1e-9);
        assert!(is_valid_flow(6, &edges, 0, 5, &pr));
    }

    #[test]
    fn oracles_agree_with_dinic_on_the_diamond() {
        let dinic = dinic(4, &DIAMOND, 0, 3);
        for flow in [
            edmonds_karp(4, &DIAMOND, 0, 3),
            push_relabel(4, &DIAMOND, 0, 3),
        ] {
            assert!((flow.value - dinic).abs() < 1e-9);
            assert_eq!(flow.edge_flows.len(), DIAMOND.len());
            assert!(is_valid_flow(4, &DIAMOND, 0, 3, &flow));
        }
    }

    #[test]
    fn edmonds_karp_is_zero_when_no_path() {
        let edges = [(1, 2, 4.0)];
        assert_eq!(edmonds_karp(3, &edges, 0, 2).value, 0.0);
    }

    #[test]
    fn edmonds_karp_handles_source_equals_sink() {
        let edges = [(0, 1, 1.0)];
        assert_eq!(edmonds_karp(2, &edges, 0, 0).value, 0.0);
    }

    #[test]
    fn edmonds_karp_handles_fractional_capacities() {
        let edges = [(0, 1, 0.1), (0, 1, 0.2), (1, 2, 0.25)];
        let ek = edmonds_karp(3, &edges, 0, 2);
        assert!((ek.value - 0.25).abs() < 1e-9);
        assert!(is_valid_flow(3, &edges, 0, 2, &ek));
    }

    #[test]
    fn push_relabel_is_zero_when_disconnected() {
        let edges = [(0, 1, 5.0), (2, 3, 5.0)];
        assert_eq!(push_relabel(4, &edges, 0, 3).value, 0.0);
    }

    #[test]
    fn push_relabel_is_zero_when_source_equals_sink() {
        let edges = [(0, 1, 1.0)];
        assert_eq!(push_relabel(2, &edges, 1, 1).value, 0.0);
    }

    #[test]
    fn push_relabel_handles_fractional_capacities() {
        let edges = [(0, 1, 0.6), (0, 2, 0.4), (1, 3, 0.5), (2, 3, 0.9)];
        let pr = push_relabel(4, &edges, 0, 3);
        assert!((pr.value - 0.9).abs() < 1e-9);
        assert!(is_valid_flow(4, &edges, 0, 3, &pr));
    }

    #[test]
    fn flow_validation_accepts_valid_flow() {
        let edges = [(0, 1, 2.0), (1, 2, 2.0)];
        let flow = Flow {
            value: 1.5,
            edge_flows: vec![1.5, 1.5],
        };
        assert!(is_valid_flow(3, &edges, 0, 2, &flow));
    }

    #[test]
    fn flow_validation_rejects_violations() {
        let edges = [(0, 1, 2.0), (1, 2, 2.0)];
        let over = Flow {
            value: 3.0,
            edge_flows: vec![3.0, 3.0],
        };
        assert!(!is_valid_flow(3, &edges, 0, 2, &over));
        let unbalanced = Flow {
            value: 1.0,
            edge_flows: vec![1.0, 0.5],
        };
        assert!(!is_valid_flow(3, &edges, 0, 2, &unbalanced));
        let malformed = Flow {
            value: 0.0,
            edge_flows: vec![0.0],
        };
        assert!(!is_valid_flow(3, &edges, 0, 2, &malformed));
    }

    #[test]
    fn min_cut_value_equals_flow_value() {
        let flow = edmonds_karp(4, &DIAMOND, 0, 3);
        let cut = min_cut(4, &DIAMOND, &flow, 0);
        assert!((cut.value - flow.value).abs() < 1e-9);
        assert!((cut.value - 5.0).abs() < 1e-9);
        assert!(cut.source_side.contains(&0));
        assert!(!cut.source_side.contains(&3));
    }

    #[test]
    fn min_cut_identifies_the_bottleneck_edge() {
        let edges = [(0, 1, 10.0), (1, 2, 1.0)];
        let cut = min_cut(3, &edges, &edmonds_karp(3, &edges, 0, 2), 0);
        assert_eq!(cut.cut_edges, vec![1]);
        assert!((cut.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_cut_of_a_disconnected_sink_is_zero() {
        let edges = [(0, 1, 2.0)];
        let flow = push_relabel(3, &edges, 0, 2);
        let cut = min_cut(3, &edges, &flow, 0);
        assert_eq!(flow.value, 0.0);
        assert_eq!(cut.value, 0.0);
        assert!(cut.cut_edges.is_empty());
    }

    #[test]
    fn min_cut_source_side_holds_everything_upstream_of_the_bottleneck() {
        let edges = [(0, 1, 5.0), (1, 2, 5.0), (2, 3, 0.5), (3, 4, 5.0)];
        let cut = min_cut(5, &edges, &edmonds_karp(5, &edges, 0, 4), 0);
        assert_eq!(cut.source_side, vec![0, 1, 2]);
        assert!((cut.value - 0.5).abs() < 1e-9);
    }
}
