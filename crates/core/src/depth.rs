//! Depth and delay analysis of broadcast schemes.
//!
//! The conclusion of the paper lists "optimizing the depth of produced schemes in order to
//! minimize delays" as a natural extension of the model: the throughput analysis says nothing
//! about *how many overlay hops* separate a node from the source, yet in live streaming the
//! hop count translates directly into start-up delay. This module provides the measurement
//! side of that extension:
//!
//! * per-node hop depth (fewest overlay hops from the source),
//! * per-node bottleneck-aware delay estimate (along the best min-hop path, the time needed
//!   to forward one chunk over each hop at the edge's allocated rate),
//! * summary statistics used by the depth ablation experiment.

use crate::scheme::BroadcastScheme;
use bmp_platform::NodeId;
use std::collections::VecDeque;

/// Depth / delay profile of a scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthProfile {
    /// Hop depth of every node (0 for the source, `None` for unreachable nodes).
    pub hops: Vec<Option<usize>>,
    /// Chunk-forwarding delay estimate of every node: minimum over paths of the sum of
    /// `1 / rate` along the path (in time units per unit of chunk size).
    pub delay: Vec<Option<f64>>,
}

impl DepthProfile {
    /// Largest hop depth over the receivers (`None` when some receiver is unreachable).
    #[must_use]
    pub fn max_hops(&self) -> Option<usize> {
        self.hops[1..]
            .iter()
            .copied()
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// Mean hop depth over the receivers (`None` when some receiver is unreachable).
    #[must_use]
    pub fn mean_hops(&self) -> Option<f64> {
        let depths: Option<Vec<usize>> = self.hops[1..].iter().copied().collect();
        let depths = depths?;
        if depths.is_empty() {
            return Some(0.0);
        }
        Some(depths.iter().sum::<usize>() as f64 / depths.len() as f64)
    }

    /// Largest delay estimate over the receivers (`None` when some receiver is unreachable).
    #[must_use]
    pub fn max_delay(&self) -> Option<f64> {
        let delays: Option<Vec<f64>> = self.delay[1..].iter().copied().collect();
        delays?.into_iter().reduce(f64::max)
    }

    /// Whether every receiver is reachable from the source through positive-rate edges.
    #[must_use]
    pub fn all_reachable(&self) -> bool {
        self.hops[1..].iter().all(Option::is_some)
    }
}

/// Computes the depth profile of a scheme.
#[must_use]
pub fn depth_profile(scheme: &BroadcastScheme) -> DepthProfile {
    let n = scheme.instance().num_nodes();
    let adjacency: Vec<Vec<NodeId>> = (0..n)
        .map(|from| scheme.out_edges(from).map(|(to, _)| to).collect())
        .collect();

    // Hop depth: plain BFS.
    let mut hops: Vec<Option<usize>> = vec![None; n];
    hops[0] = Some(0);
    let mut queue = VecDeque::from([0usize]);
    while let Some(node) = queue.pop_front() {
        let next_depth = hops[node].expect("visited nodes have a depth") + 1;
        for &to in &adjacency[node] {
            if hops[to].is_none() {
                hops[to] = Some(next_depth);
                queue.push_back(to);
            }
        }
    }

    // Delay estimate: Dijkstra with edge weight 1 / rate.
    let mut delay: Vec<Option<f64>> = vec![None; n];
    delay[0] = Some(0.0);
    let mut visited = vec![false; n];
    for _ in 0..n {
        let current = (0..n)
            .filter(|&v| !visited[v] && delay[v].is_some())
            .min_by(|&a, &b| {
                delay[a]
                    .unwrap()
                    .partial_cmp(&delay[b].unwrap())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        let Some(current) = current else { break };
        visited[current] = true;
        let base = delay[current].expect("selected node has a delay");
        for &to in &adjacency[current] {
            let weight = 1.0 / scheme.rate(current, to);
            let candidate = base + weight;
            if delay[to].is_none_or(|existing| candidate < existing) {
                delay[to] = Some(candidate);
            }
        }
    }

    DepthProfile { hops, delay }
}

/// Comparison of the depth profiles of two schemes over the same instance (used by the depth
/// ablation experiment: optimal-acyclic word versus regular ω words versus cyclic schemes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthComparison {
    /// Maximum hop depth of the first scheme.
    pub first_max_hops: usize,
    /// Maximum hop depth of the second scheme.
    pub second_max_hops: usize,
    /// Mean hop depth of the first scheme.
    pub first_mean_hops: f64,
    /// Mean hop depth of the second scheme.
    pub second_mean_hops: f64,
}

/// Compares the depth profiles of two schemes. Returns `None` when either scheme leaves a
/// receiver unreachable.
#[must_use]
pub fn compare_depth(first: &BroadcastScheme, second: &BroadcastScheme) -> Option<DepthComparison> {
    let first_profile = depth_profile(first);
    let second_profile = depth_profile(second);
    Some(DepthComparison {
        first_max_hops: first_profile.max_hops()?,
        second_max_hops: second_profile.max_hops()?,
        first_mean_hops: first_profile.mean_hops()?,
        second_mean_hops: second_profile.mean_hops()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclic_guarded::AcyclicGuardedSolver;
    use crate::acyclic_open::acyclic_open_optimal_scheme;
    use bmp_platform::paper::figure1;
    use bmp_platform::Instance;

    #[test]
    fn chain_depth() {
        // Source-limited instance: Algorithm 1 builds a relay chain, so depth grows linearly.
        let inst = Instance::open_only(2.0, vec![2.0, 2.0, 2.0, 2.0]).unwrap();
        let (scheme, _) = acyclic_open_optimal_scheme(&inst).unwrap();
        let profile = depth_profile(&scheme);
        assert!(profile.all_reachable());
        assert_eq!(profile.hops[1], Some(1));
        assert_eq!(profile.max_hops(), Some(4));
        assert!((profile.mean_hops().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn star_depth() {
        // Large source: everyone is served directly, depth 1.
        let inst = Instance::open_only(100.0, vec![1.0, 1.0, 1.0]).unwrap();
        let (scheme, _) = acyclic_open_optimal_scheme(&inst).unwrap();
        let profile = depth_profile(&scheme);
        assert_eq!(profile.max_hops(), Some(1));
        assert!((profile.mean_hops().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn figure1_depth_and_delay() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let profile = depth_profile(&solution.scheme);
        assert!(profile.all_reachable());
        let max_hops = profile.max_hops().unwrap();
        assert!((2..=5).contains(&max_hops), "max hops = {max_hops}");
        // Delays are positive, finite, and monotone with hops along any single chain.
        for node in 1..6 {
            let d = profile.delay[node].unwrap();
            assert!(d.is_finite() && d > 0.0);
        }
        assert!(profile.max_delay().unwrap() > 0.0);
    }

    #[test]
    fn unreachable_nodes_are_reported() {
        let inst = figure1();
        let mut scheme = crate::scheme::BroadcastScheme::new(inst);
        scheme.set_rate(0, 1, 1.0);
        let profile = depth_profile(&scheme);
        assert!(!profile.all_reachable());
        assert_eq!(profile.hops[1], Some(1));
        assert_eq!(profile.hops[2], None);
        assert_eq!(profile.max_hops(), None);
        assert_eq!(profile.mean_hops(), None);
        assert_eq!(profile.max_delay(), None);
    }

    #[test]
    fn comparison_of_two_schemes() {
        let solver = AcyclicGuardedSolver::default();
        let inst = figure1();
        let optimal = solver.solve(&inst);
        let omega_word = crate::omega::omega1(inst.n(), inst.m());
        let t_omega = crate::word::optimal_throughput_for_word(&inst, &omega_word, 1e-10) - 1e-9;
        let omega_scheme = solver
            .scheme_for_word(&inst, t_omega.max(0.0), &omega_word)
            .unwrap();
        let comparison = compare_depth(&optimal.scheme, &omega_scheme).unwrap();
        assert!(comparison.first_max_hops >= 1);
        assert!(comparison.second_max_hops >= 1);
        assert!(comparison.first_mean_hops > 0.0);
        assert!(comparison.second_mean_hops > 0.0);
    }
}
