//! Property tests cross-checking the production Dinic kernel against the independent
//! Edmonds–Karp and push-relabel oracles of [`oracle`] on random networks, plus the
//! CSR-kernel equivalences: batched multi-sink evaluation (settled sinks, early-exit
//! caps, and the pooled fan-out) must agree exactly with its contract computed naively,
//! and a reused solver workspace must behave like a fresh one.

mod oracle;

use bmp_flow::{eps, FlowArena, FlowPool, FlowSolver};
use oracle::Edge;
use proptest::prelude::*;
use std::sync::Arc;

/// A random directed network: node count plus edge list (no self-loops).
#[derive(Debug, Clone)]
struct Network {
    nodes: usize,
    edges: Vec<Edge>,
}

impl Network {
    fn arena(&self) -> FlowArena {
        FlowArena::from_edges(self.nodes, &self.edges)
    }

    fn dinic(&self, source: usize, sink: usize) -> f64 {
        FlowSolver::new().max_flow(&self.arena(), source, sink)
    }

    /// Minimum over `sinks` of one full, uncapped Dinic each.
    fn per_sink_dinic(&self, source: usize, sinks: &[usize]) -> f64 {
        sinks
            .iter()
            .map(|&sink| self.dinic(source, sink))
            .fold(f64::INFINITY, f64::min)
    }

    /// `reach[u][v]`: `v` is reachable from `u` over one or more positive arcs
    /// (transitive closure, independent of the kernel's Tarjan pass).
    fn positive_closure(&self) -> Vec<Vec<bool>> {
        let n = self.nodes;
        let mut reach = vec![vec![false; n]; n];
        for &(from, to, capacity) in &self.edges {
            if eps::is_positive(capacity) {
                reach[from][to] = true;
            }
        }
        for via in 0..n {
            let onward = reach[via].clone();
            for row in reach.iter_mut().filter(|row| row[via]) {
                for (cell, &hop) in row.iter_mut().zip(&onward) {
                    *cell |= hop;
                }
            }
        }
        reach
    }

    /// The multi-sink contract of `FlowSolver::min_max_flow`, computed without caps:
    /// when every non-source endpoint of a positive arc is a sink, a sink on no cycle
    /// contributes its in-capacity and every other sink one full Dinic; otherwise every
    /// sink gets one full Dinic.
    fn settled_contract(&self, source: usize, sinks: &[usize]) -> f64 {
        let arena = self.arena();
        let settling = self.edges.iter().all(|&(from, to, capacity)| {
            !eps::is_positive(capacity)
                || [from, to]
                    .iter()
                    .all(|node| *node == source || sinks.contains(node))
        });
        let reach = self.positive_closure();
        sinks
            .iter()
            .map(|&sink| {
                if settling && sink != source && !reach[sink][sink] {
                    arena.in_capacity(sink)
                } else {
                    self.dinic(source, sink)
                }
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Strategy generating a random directed network with up to `max_nodes` nodes.
fn random_network(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Network> {
    (2..=max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.0_f64..20.0), 0..=max_edges).prop_map(
            move |edges| Network {
                nodes: n,
                edges: edges
                    .into_iter()
                    .filter(|&(from, to, _)| from != to)
                    .collect(),
            },
        )
    })
}

/// A network for the settle step of multi-sink evaluation, with its sink set.
#[derive(Debug, Clone)]
struct SettleCase {
    net: Network,
    sinks: Vec<usize>,
    /// No back arcs were drawn: every arc goes from a lower to a higher index.
    acyclic: bool,
    /// A non-sink relay carries flow, so the settle step must stay off.
    relay: bool,
}

/// Strategy for [`SettleCase`]: arcs from low to high index (one in eight of zero
/// capacity, the odd one a self-loop), up to two back arcs, a survivor sink set whose departed nodes are
/// isolated, and in one case of four a non-sink relay `1` that is the only, narrow way
/// from the source into node `n - 1`.
fn settle_case(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = SettleCase> {
    (3..=max_nodes).prop_flat_map(move |n| {
        let arc = (0..n, 0..n, 0u8..8, 0.0_f64..20.0);
        (
            proptest::collection::vec(arc.clone(), 0..=max_edges),
            proptest::collection::vec(arc, 0..=2),
            proptest::collection::vec(0u8..4, n),
            0u8..4,
        )
            .prop_map(move |(forward, back, departure, relay)| {
                let relay = relay == 0;
                // Node 1 (the relay) and node n - 1 (its target) never depart.
                let departed = |v: usize| v != 0 && v != 1 && v != n - 1 && departure[v] == 0;
                let capacity = |zero: u8, value: f64| if zero == 0 { 0.0 } else { value };
                // A forward draw with equal endpoints is a self-loop.
                let mut edges: Vec<Edge> =
                    forward
                        .iter()
                        .map(|&(a, b, zero, value)| (a.min(b), a.max(b), capacity(zero, value)))
                        .chain(back.iter().filter(|&&(a, b, _, _)| a != b).map(
                            |&(a, b, zero, value)| (a.max(b), a.min(b), capacity(zero, value)),
                        ))
                        .collect();
                let acyclic = edges.iter().all(|&(from, to, _)| from < to);
                if relay {
                    // The relay is the only way into n - 1 and passes at most 0.25, so
                    // settling n - 1 by its in-capacity would overstate its flow.
                    edges.retain(|&(_, to, _)| to != n - 1);
                    edges.push((0, 1, 0.25));
                    edges.push((1, n - 1, 2.5));
                }
                edges.retain(|&(from, to, _)| !departed(from) && !departed(to));
                let sinks = (1..n)
                    .filter(|&v| !departed(v) && (!relay || v != 1))
                    .collect();
                SettleCase {
                    net: Network { nodes: n, edges },
                    sinks,
                    acyclic,
                    relay,
                }
            })
    })
}

/// Tolerance for comparing independently computed flow values.
fn tolerance(value: f64) -> f64 {
    1e-6 * value.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solvers_agree(net in random_network(8, 24)) {
        let s = 0;
        let t = net.nodes - 1;
        let dn = net.dinic(s, t);
        let ek = oracle::edmonds_karp(net.nodes, &net.edges, s, t);
        let pr = oracle::push_relabel(net.nodes, &net.edges, s, t);
        prop_assert!((dn - ek.value).abs() <= tolerance(dn),
            "dinic {} vs edmonds-karp {}", dn, ek.value);
        prop_assert!((dn - pr.value).abs() <= tolerance(dn),
            "dinic {} vs push-relabel {}", dn, pr.value);
    }

    #[test]
    fn flows_are_valid(net in random_network(8, 24)) {
        let s = 0;
        let t = net.nodes - 1;
        let ek = oracle::edmonds_karp(net.nodes, &net.edges, s, t);
        let pr = oracle::push_relabel(net.nodes, &net.edges, s, t);
        prop_assert!(oracle::is_valid_flow(net.nodes, &net.edges, s, t, &ek));
        prop_assert!(oracle::is_valid_flow(net.nodes, &net.edges, s, t, &pr));
    }

    #[test]
    fn max_flow_equals_min_cut(net in random_network(8, 24)) {
        let s = 0;
        let t = net.nodes - 1;
        let flow = oracle::edmonds_karp(net.nodes, &net.edges, s, t);
        let cut = oracle::min_cut(net.nodes, &net.edges, &flow, s);
        prop_assert!((cut.value - flow.value).abs() <= tolerance(flow.value),
            "cut {} vs flow {}", cut.value, flow.value);
        // The cut certifies the production kernel's value too.
        let dn = net.dinic(s, t);
        prop_assert!((cut.value - dn).abs() <= tolerance(dn), "cut {} vs dinic {}", cut.value, dn);
        prop_assert!(cut.source_side.contains(&s));
        prop_assert!(!cut.source_side.contains(&t));
    }

    #[test]
    fn flow_bounded_by_source_capacity(net in random_network(8, 24)) {
        let s = 0;
        let t = net.nodes - 1;
        let arena = net.arena();
        let dn = FlowSolver::new().max_flow(&arena, s, t);
        prop_assert!(dn <= arena.out_capacity(s) + 1e-6);
        prop_assert!(dn <= arena.in_capacity(t) + 1e-6);
    }

    #[test]
    fn batched_min_max_flow_equals_naive_per_sink(net in random_network(9, 28)) {
        let source = 0;
        let sinks: Vec<usize> = (1..net.nodes).collect();
        // Naive: the settle contract without caps — in-capacities for the sinks on no
        // cycle, one full Dinic for every other sink.
        let naive = net.settled_contract(source, &sinks);
        // Batched: shared arena, in-capacity ordering, early-exit caps. Must be *exactly*
        // equal — capping only ever truncates solves that cannot lower the minimum.
        let arena = Arc::new(net.arena());
        let batched = FlowSolver::new().min_max_flow(&arena, source, &sinks);
        prop_assert_eq!(batched, naive, "batched {} vs naive {}", batched, naive);
        // Pooled fan-out with a shared atomic minimum: same exactness argument.
        let pooled =
            FlowPool::global().min_max_flow_with(&mut FlowSolver::new(), &arena, source, &sinks, 4);
        prop_assert_eq!(pooled, naive, "pooled {} vs naive {}", pooled, naive);
        // Both oracles agree with the batched minimum up to rounding.
        for oracle_flow in [oracle::edmonds_karp, oracle::push_relabel] {
            let expected = sinks
                .iter()
                .map(|&sink| oracle_flow(net.nodes, &net.edges, source, sink).value)
                .fold(f64::INFINITY, f64::min);
            prop_assert!((batched - expected).abs() <= tolerance(expected),
                "batched {} vs oracle {}", batched, expected);
        }
    }

    #[test]
    fn settled_certification_matches_per_sink_flows(case in settle_case(9, 24)) {
        let SettleCase { net, sinks, acyclic, relay } = case;
        let arena = Arc::new(net.arena());
        let result = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        // The contract, exactly; with a relay it is plain per-sink Dinic.
        prop_assert_eq!(result, net.settled_contract(0, &sinks));
        let dinic = net.per_sink_dinic(0, &sinks);
        if relay {
            prop_assert_eq!(result, dinic, "a non-sink relay must turn settling off");
        }
        // Within the workspace tolerance of per-sink Dinic and of both oracles.
        prop_assert!((result - dinic).abs() <= eps::tolerance(result, dinic),
            "settled {} vs per-sink dinic {}", result, dinic);
        for oracle_flow in [oracle::edmonds_karp, oracle::push_relabel] {
            let expected = sinks
                .iter()
                .map(|&sink| oracle_flow(net.nodes, &net.edges, 0, sink).value)
                .fold(f64::INFINITY, f64::min);
            prop_assert!((result - expected).abs() <= eps::tolerance(result, expected),
                "settled {} vs oracle {}", result, expected);
        }
        // An acyclic overlay is settled completely: bit-equal to the minimum in-capacity.
        if acyclic && !relay {
            let in_capacity = sinks
                .iter()
                .map(|&sink| arena.in_capacity(sink))
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(result, in_capacity);
        }
        // Pooled at every lane count equals sequential bit for bit.
        for lanes in [1usize, 2, 4] {
            let pooled = FlowPool::global()
                .min_max_flow_with(&mut FlowSolver::new(), &arena, 0, &sinks, lanes);
            prop_assert_eq!(pooled, result, "pooled at {} lanes", lanes);
        }
        // The sink order does not matter.
        let reversed: Vec<usize> = sinks.iter().rev().copied().collect();
        prop_assert_eq!(FlowSolver::new().min_max_flow(&arena, 0, &reversed), result);
    }

    #[test]
    fn batched_evaluation_is_sink_order_invariant(net in random_network(8, 24)) {
        let sinks: Vec<usize> = (1..net.nodes).collect();
        let mut reversed = sinks.clone();
        reversed.reverse();
        let arena = net.arena();
        let mut solver = FlowSolver::new();
        let forward = solver.min_max_flow(&arena, 0, &sinks);
        let backward = solver.min_max_flow(&arena, 0, &reversed);
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn reused_workspace_matches_fresh_solver(
        first in random_network(8, 24),
        second in random_network(5, 12),
    ) {
        // One solver solving across two different networks (different sizes) must report
        // the same values as fresh solvers: buffers are fully re-initialised per solve.
        let arena_a = first.arena();
        let arena_b = second.arena();
        let mut reused = FlowSolver::new();
        for _ in 0..3 {
            let a = reused.max_flow(&arena_a, 0, first.nodes - 1);
            let b = reused.max_flow(&arena_b, 0, second.nodes - 1);
            prop_assert_eq!(a, first.dinic(0, first.nodes - 1));
            prop_assert_eq!(b, second.dinic(0, second.nodes - 1));
        }
    }

    #[test]
    fn csr_solvers_match_on_arena_and_network_paths(net in random_network(6, 18)) {
        // Every terminal pair: the CSR kernel on the arena against both oracles on the
        // plain edge list.
        let arena = net.arena();
        let mut solver = FlowSolver::new();
        for s in 0..net.nodes {
            for t in 0..net.nodes {
                let dn = solver.max_flow(&arena, s, t);
                let ek = oracle::edmonds_karp(net.nodes, &net.edges, s, t).value;
                let pr = oracle::push_relabel(net.nodes, &net.edges, s, t).value;
                prop_assert!((dn - ek).abs() <= tolerance(dn), "{}→{}: dinic {} vs ek {}", s, t, dn, ek);
                prop_assert!((dn - pr).abs() <= tolerance(dn), "{}→{}: dinic {} vs pr {}", s, t, dn, pr);
            }
        }
    }

    #[test]
    fn incremental_capacity_update_equals_rebuild(
        net in random_network(8, 24),
        new_caps in proptest::collection::vec(0.0_f64..20.0, 0..=24),
    ) {
        // Overwriting capacities in place must be indistinguishable from rebuilding the
        // arena from scratch over the same edge set with the new capacities.
        let mut updated = net.arena();
        let edges: Vec<Edge> = net
            .edges
            .iter()
            .enumerate()
            .map(|(k, &(from, to, cap))| (from, to, new_caps.get(k).copied().unwrap_or(cap)))
            .collect();
        updated.set_edge_capacities(&edges.iter().map(|&(_, _, cap)| cap).collect::<Vec<_>>());
        let rebuilt = FlowArena::from_edges(net.nodes, &edges);
        prop_assert_eq!(&updated, &rebuilt);
        let sinks: Vec<usize> = (1..net.nodes).collect();
        let mut solver = FlowSolver::new();
        let incremental = solver.min_max_flow(&updated, 0, &sinks);
        let fresh = solver.min_max_flow(&rebuilt, 0, &sinks);
        prop_assert_eq!(incremental, fresh);
    }

    #[test]
    fn sparse_capacity_patch_equals_rebuild(
        net in random_network(8, 24),
        patches in proptest::collection::vec((0usize..24, 0.0_f64..20.0), 0..=12),
    ) {
        // Patching an arbitrary (possibly repeating) subset of edge capacities must be
        // bit-for-bit the arena rebuilt from scratch with the final capacities — the
        // contract the journaled evaluation path of `bmp_core::solver::EvalCtx` rests on.
        if net.edges.is_empty() {
            return Ok(());
        }
        let mut patched = net.arena();
        let patches: Vec<(usize, f64)> = patches
            .into_iter()
            .map(|(edge, cap)| (edge % net.edges.len(), cap))
            .collect();
        patched.patch_edge_capacities(&patches);
        let edges: Vec<Edge> = net
            .edges
            .iter()
            .enumerate()
            .map(|(k, &(from, to, cap))| {
                // Last write wins, matching the patch semantics.
                let cap = patches
                    .iter()
                    .rev()
                    .find(|&&(edge, _)| edge == k)
                    .map_or(cap, |&(_, cap)| cap);
                (from, to, cap)
            })
            .collect();
        let rebuilt = FlowArena::from_edges(net.nodes, &edges);
        prop_assert_eq!(&patched, &rebuilt);
        let sinks: Vec<usize> = (1..net.nodes).collect();
        let mut solver = FlowSolver::new();
        let incremental = solver.min_max_flow(&patched, 0, &sinks);
        let fresh = solver.min_max_flow(&rebuilt, 0, &sinks);
        prop_assert_eq!(incremental, fresh);
    }

    #[test]
    fn adding_an_edge_never_decreases_flow(net in random_network(7, 18), extra_cap in 0.1_f64..5.0) {
        let s = 0;
        let t = net.nodes - 1;
        let before = net.dinic(s, t);
        let mut bigger = net.clone();
        bigger.edges.push((s, t, extra_cap));
        let after = bigger.dinic(s, t);
        prop_assert!(after + 1e-9 >= before);
        prop_assert!((after - (before + extra_cap)).abs() <= 1e-6 * (after.max(1.0)));
    }
}

#[test]
fn min_cut_source_side_excludes_sink_when_flow_saturates() {
    let edges = [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 2.0)];
    let flow = oracle::push_relabel(4, &edges, 0, 3);
    let cut = oracle::min_cut(4, &edges, &flow, 0);
    assert!((flow.value - 1.0).abs() < 1e-9);
    assert!(
        (FlowSolver::new().max_flow(&FlowArena::from_edges(4, &edges), 0, 3) - 1.0).abs() < 1e-9
    );
    assert!(!cut.source_side.contains(&3));
}
