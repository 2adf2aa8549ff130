//! Broadcast schemes: the output of every algorithm in this crate.
//!
//! A broadcast scheme assigns a transfer rate `c_{i,j}` to every ordered pair of nodes.
//! Following Section II-D of the paper, a scheme is feasible when every node respects its
//! outgoing-bandwidth budget and no guarded node sends to another guarded node, and its
//! throughput is the minimum over all receivers of the maximum flow from the source in the
//! weighted digraph `c`.
//!
//! # The dirty-edge journal
//!
//! Search loops (the dichotomic drivers, the churn degradation probes, the benchmarks)
//! evaluate long runs of near-identical schemes. Rediscovering *which* rates moved used
//! to cost a full O(n²) rate-matrix scan per evaluation, so every mutation now maintains
//! a journal that [`crate::solver::EvalCtx`] consumes to skip the scan entirely:
//!
//! * every scheme object carries a process-unique [`BroadcastScheme::eval_id`] (fresh on
//!   construction, clone and deserialization — two objects never share an id, so a cached
//!   arena can be associated with exactly one scheme);
//! * [`BroadcastScheme::set_rate`] / [`BroadcastScheme::add_rate`] compare the old and
//!   new value against [`RATE_EPS`]: a mutation that creates or removes an *edge* bumps
//!   [`BroadcastScheme::edge_epoch`] (the edge set changed — evaluators must rebuild),
//!   while a capacity-only change on an existing edge appends the touched `(from, to)`
//!   pair to the journal;
//! * the journal is addressed by *absolute* cursors ([`BroadcastScheme::journal_bounds`]
//!   / [`BroadcastScheme::journal_since`]) and compacts itself once it exceeds a few
//!   entries per node: a caught-up evaluator keeps patching after compaction, a stale one
//!   falls back to the full scan — never to a wrong answer;
//! * [`BroadcastScheme::prune_dust`] only zeroes rates that are already below
//!   [`RATE_EPS`], i.e. values that were never edges, so it touches neither the epoch nor
//!   the journal.
//!
//! The journal is pure bookkeeping: it is excluded from equality, serialization and the
//! serialized document format (a deserialized scheme starts with a fresh id and an empty
//! journal).
//!
//! # Copy-on-probe: how to write a search loop that stays fast
//!
//! The journal fast path keys on *object identity*: a [`BroadcastScheme::eval_id`] is
//! fresh on every construction, clone and deserialization, so an evaluation context can
//! associate its cached arena with exactly one object. The flip side: a search that
//! clones the scheme *inside* its probe loop hands the context a brand-new identity on
//! every probe and silently pays the full O(n²) rate-matrix scan each time. The intended
//! idiom — used by `churn::degradation_tolerance` and every dichotomic driver — is
//! **copy-on-probe**: clone **one working copy** before the loop, then mutate that same
//! object in place per probe, so every mutation lands in its journal and every
//! re-evaluation patches a handful of capacities instead of rescanning the matrix:
//!
//! ```
//! use bmp_core::scheme::BroadcastScheme;
//! use bmp_core::solver::EvalCtx;
//! use bmp_platform::Instance;
//!
//! let instance = Instance::open_only(4.0, vec![2.0, 1.0]).unwrap();
//! let mut nominal = BroadcastScheme::new(instance);
//! nominal.set_rate(0, 1, 2.0);
//! nominal.set_rate(0, 2, 1.0);
//! nominal.set_rate(1, 2, 1.0);
//!
//! let mut ctx = EvalCtx::new();
//! // ONE clone for the whole search, made before the loop. (A clone per probe would
//! // carry a fresh `eval_id` each time — full rescan on every evaluation.)
//! let mut probe = nominal.clone();
//! let baseline = ctx.throughput(&probe); // first evaluation builds + caches the arena
//! for step in 1..=4 {
//!     let scale = 1.0 - 0.1 * f64::from(step);
//!     probe.set_rate(0, 1, 2.0 * scale); // capacity-only change: journaled
//!     let degraded = ctx.throughput(&probe); // patches 1 capacity, skips the rescan
//!     assert!(degraded <= baseline);
//! }
//! assert_eq!(ctx.rescans_skipped(), 4);
//! assert_eq!(ctx.arena_builds(), 1);
//! ```

use bmp_flow::{eps, FlowArena, FlowSolver};
use bmp_platform::node::degree_lower_bound;
use bmp_platform::{Instance, NodeClass, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Rates below this threshold are treated as "no connection" when counting outdegrees and
/// building flow networks; they only arise from floating-point dust.
pub const RATE_EPS: f64 = 1e-7;

/// A feasibility violation detected by [`BroadcastScheme::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeViolation {
    /// Node `node` sends more than its outgoing bandwidth.
    BandwidthExceeded {
        /// Offending node.
        node: NodeId,
        /// Total outgoing rate of the node.
        sent: f64,
        /// Outgoing bandwidth of the node.
        bandwidth: f64,
    },
    /// A guarded → guarded transfer has a positive rate.
    FirewallViolated {
        /// Sending guarded node.
        from: NodeId,
        /// Receiving guarded node.
        to: NodeId,
    },
    /// A rate is negative or not finite.
    InvalidRate {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The offending value.
        rate: f64,
    },
}

/// Source of process-unique scheme identities (never reused, so an evaluation context can
/// safely key its cached arena by id).
static NEXT_EVAL_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_eval_id() -> u64 {
    NEXT_EVAL_ID.fetch_add(1, Ordering::Relaxed)
}

/// A broadcast scheme over a given instance.
#[derive(Debug)]
pub struct BroadcastScheme {
    instance: Instance,
    /// Row-major rate matrix `c[i * num_nodes + j]`.
    rates: Vec<f64>,
    /// Process-unique identity of this object (see the module docs).
    eval_id: u64,
    /// Incremented whenever a mutation creates or removes an edge.
    edge_epoch: u64,
    /// Absolute cursor of `journal[0]` (grows on compaction; see the module docs).
    journal_base: u64,
    /// Touched `(from, to)` pairs of capacity-only mutations since the last epoch bump or
    /// compaction, oldest first.
    journal: Vec<(NodeId, NodeId)>,
}

impl Clone for BroadcastScheme {
    /// Clones the instance and the rates; the clone is a *new* evaluation identity with a
    /// fresh [`BroadcastScheme::eval_id`] and an empty journal (the original and the clone
    /// may diverge independently, so they must not share journal state).
    fn clone(&self) -> Self {
        BroadcastScheme {
            instance: self.instance.clone(),
            rates: self.rates.clone(),
            eval_id: fresh_eval_id(),
            edge_epoch: 0,
            journal_base: 0,
            journal: Vec::new(),
        }
    }
}

impl PartialEq for BroadcastScheme {
    /// Equality is semantic: same instance, same rate matrix. The journal bookkeeping is
    /// per-object state and does not participate.
    fn eq(&self, other: &Self) -> bool {
        self.instance == other.instance && self.rates == other.rates
    }
}

impl serde::Serialize for BroadcastScheme {
    /// Serializes the semantic fields only (`instance`, `rates`), exactly like the
    /// pre-journal derived implementation, so documents stay interchangeable.
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "instance".to_string(),
                serde::Serialize::to_value(&self.instance),
            ),
            ("rates".to_string(), serde::Serialize::to_value(&self.rates)),
        ])
    }
}

impl serde::Deserialize for BroadcastScheme {
    /// Rebuilds the scheme with a fresh evaluation identity and an empty journal (a
    /// document knows nothing about the mutation history of the object it came from).
    ///
    /// A rate matrix that is not `num_nodes²` entries long is rejected (every accessor
    /// indexes it as a square matrix), and so is a non-finite rate (a JSON number whose
    /// exponent overflows), which no flow network can carry.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::DeError::expected("map", "BroadcastScheme"))?;
        let instance: Instance =
            serde::Deserialize::from_value(serde::field(obj, "instance", "BroadcastScheme")?)?;
        let rates: Vec<f64> =
            serde::Deserialize::from_value(serde::field(obj, "rates", "BroadcastScheme")?)?;
        let n = instance.num_nodes();
        if rates.len() != n * n {
            return Err(serde::DeError::custom(format!(
                "rate matrix has {} entries, expected {n}×{n} = {} for a {n}-node instance",
                rates.len(),
                n * n
            )));
        }
        if let Some(idx) = rates.iter().position(|rate| !rate.is_finite()) {
            return Err(serde::DeError::custom(format!(
                "rate c_{{{},{}}} is not finite",
                idx / n,
                idx % n
            )));
        }
        Ok(BroadcastScheme {
            instance,
            rates,
            eval_id: fresh_eval_id(),
            edge_epoch: 0,
            journal_base: 0,
            journal: Vec::new(),
        })
    }
}

impl BroadcastScheme {
    /// Creates an all-zero scheme for `instance`.
    #[must_use]
    pub fn new(instance: Instance) -> Self {
        let n = instance.num_nodes();
        BroadcastScheme {
            instance,
            rates: vec![0.0; n * n],
            eval_id: fresh_eval_id(),
            edge_epoch: 0,
            journal_base: 0,
            journal: Vec::new(),
        }
    }

    /// The underlying instance.
    #[must_use]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    #[inline]
    fn index(&self, from: NodeId, to: NodeId) -> usize {
        from * self.instance.num_nodes() + to
    }

    /// Transfer rate `c_{from,to}`.
    #[must_use]
    pub fn rate(&self, from: NodeId, to: NodeId) -> f64 {
        self.rates[self.index(from, to)]
    }

    /// Sets the transfer rate `c_{from,to}`, journaling the change (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub fn set_rate(&mut self, from: NodeId, to: NodeId, rate: f64) {
        assert_ne!(from, to, "a node cannot send to itself");
        let idx = self.index(from, to);
        let old = self.rates[idx];
        self.rates[idx] = rate;
        self.record_rate_change(from, to, old, rate);
    }

    /// Adds `delta` to the transfer rate `c_{from,to}` (clamping tiny negative results to 0),
    /// journaling the change (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub fn add_rate(&mut self, from: NodeId, to: NodeId, delta: f64) {
        assert_ne!(from, to, "a node cannot send to itself");
        let idx = self.index(from, to);
        let old = self.rates[idx];
        let new = eps::clamp_nonnegative(old + delta);
        self.rates[idx] = new;
        self.record_rate_change(from, to, old, new);
    }

    /// Journal capacity before compaction: a few entries per node, with a floor so tiny
    /// instances can still buffer a whole search round.
    fn journal_capacity(&self) -> usize {
        (4 * self.instance.num_nodes()).max(256)
    }

    /// Maintains the dirty-edge journal for one rate write (see the module docs): an
    /// edge-set change bumps the epoch, a capacity change on an existing edge is appended
    /// to the journal, and a dust-level change (never an edge either way) is ignored.
    fn record_rate_change(&mut self, from: NodeId, to: NodeId, old: f64, new: f64) {
        if old == new {
            return;
        }
        let was_edge = old > RATE_EPS;
        let is_edge = new > RATE_EPS;
        if was_edge != is_edge {
            self.edge_epoch += 1;
            self.journal_base += self.journal.len() as u64;
            self.journal.clear();
        } else if is_edge {
            if self.journal.len() >= self.journal_capacity() {
                // Compaction: drop the buffered entries but keep the absolute cursor
                // space monotone. Evaluators that already consumed everything up to the
                // new base keep patching; stale ones fall back to a full scan.
                self.journal_base += self.journal.len() as u64;
                self.journal.clear();
            }
            self.journal.push((from, to));
        }
    }

    /// Process-unique identity of this scheme object (see the module docs).
    #[must_use]
    pub fn eval_id(&self) -> u64 {
        self.eval_id
    }

    /// Number of edge-set-changing mutations this object has seen. Two evaluations of the
    /// same object with equal epochs are guaranteed to see the same edge *set* (only
    /// capacities may differ, and every difference is journaled).
    #[must_use]
    pub fn edge_epoch(&self) -> u64 {
        self.edge_epoch
    }

    /// Absolute `(base, end)` cursor range of the currently buffered journal entries.
    ///
    /// An evaluator that consumed the journal up to cursor `c` can later patch
    /// incrementally iff `base <= c` (no compaction swallowed unseen entries) and the
    /// epoch is unchanged; the entries to apply are [`BroadcastScheme::journal_since`]`(c)`.
    #[must_use]
    pub fn journal_bounds(&self) -> (u64, u64) {
        (
            self.journal_base,
            self.journal_base + self.journal.len() as u64,
        )
    }

    /// The journaled `(from, to)` pairs from absolute cursor `cursor` onwards, oldest
    /// first. Pairs may repeat; each is an edge of the current edge set whose rate
    /// changed since `cursor`.
    ///
    /// # Panics
    ///
    /// Panics if `cursor` lies outside [`BroadcastScheme::journal_bounds`].
    #[must_use]
    pub fn journal_since(&self, cursor: u64) -> &[(NodeId, NodeId)] {
        let (base, end) = self.journal_bounds();
        assert!(
            (base..=end).contains(&cursor),
            "journal cursor {cursor} outside the buffered range {base}..={end}"
        );
        &self.journal[(cursor - base) as usize..]
    }

    /// Total rate sent by `node`.
    #[must_use]
    pub fn sent(&self, node: NodeId) -> f64 {
        (0..self.instance.num_nodes())
            .map(|j| self.rate(node, j))
            .sum()
    }

    /// Total rate received by `node`.
    #[must_use]
    pub fn received(&self, node: NodeId) -> f64 {
        (0..self.instance.num_nodes())
            .map(|i| self.rate(i, node))
            .sum()
    }

    /// Remaining outgoing bandwidth of `node` (can be slightly negative due to rounding).
    #[must_use]
    pub fn remaining(&self, node: NodeId) -> f64 {
        self.instance.bandwidth(node) - self.sent(node)
    }

    /// Outdegree of `node`: number of receivers it sends a meaningful rate to.
    #[must_use]
    pub fn outdegree(&self, node: NodeId) -> usize {
        (0..self.instance.num_nodes())
            .filter(|&j| self.rate(node, j) > RATE_EPS)
            .count()
    }

    /// The *busiest relay*: the receiver with the largest outdegree (ties broken by the
    /// highest id), or `None` when the instance has no receivers. This is the adversarial
    /// churn victim used throughout the churn analysis, the experiments and the CLI's
    /// `--churn "T:busiest"` token — removing it severs the most subtrees.
    #[must_use]
    pub fn busiest_receiver(&self) -> Option<NodeId> {
        (1..self.instance.num_nodes()).max_by_key(|&node| self.outdegree(node))
    }

    /// Outdegrees of every node, source first.
    #[must_use]
    pub fn outdegrees(&self) -> Vec<usize> {
        (0..self.instance.num_nodes())
            .map(|i| self.outdegree(i))
            .collect()
    }

    /// Slack of `node`'s outdegree over the lower bound `⌈b_i / T⌉` for throughput `T`.
    ///
    /// The paper measures the quality of a scheme by this additive excess (`+1`, `+2`, `+3`
    /// depending on the algorithm).
    #[must_use]
    pub fn degree_excess(&self, node: NodeId, throughput: f64) -> i64 {
        self.outdegree(node) as i64
            - degree_lower_bound(self.instance.bandwidth(node), throughput) as i64
    }

    /// Maximum degree excess over all nodes.
    #[must_use]
    pub fn max_degree_excess(&self, throughput: f64) -> i64 {
        (0..self.instance.num_nodes())
            .map(|i| self.degree_excess(i, throughput))
            .max()
            .unwrap_or(0)
    }

    /// Checks bandwidth, firewall and rate-validity constraints. Returns all violations.
    #[must_use]
    pub fn validate(&self) -> Vec<SchemeViolation> {
        let mut violations = Vec::new();
        let n = self.instance.num_nodes();
        // Single pass over the rate matrix: per-row totals are accumulated inline instead
        // of re-scanning each row through `sent`.
        for (from, row) in self.rates.chunks_exact(n).enumerate() {
            let from_guarded = self.instance.class(from) == NodeClass::Guarded;
            let mut sent = 0.0;
            for (to, &rate) in row.iter().enumerate() {
                sent += rate;
                if from == to {
                    // The setters forbid self-loops, but a deserialized matrix can carry
                    // one; it still consumes bandwidth (summed above) and is invalid.
                    if rate != 0.0 {
                        violations.push(SchemeViolation::InvalidRate { from, to, rate });
                    }
                    continue;
                }
                if !rate.is_finite() || rate < -RATE_EPS {
                    violations.push(SchemeViolation::InvalidRate { from, to, rate });
                }
                if rate > RATE_EPS && from_guarded && self.instance.class(to) == NodeClass::Guarded
                {
                    violations.push(SchemeViolation::FirewallViolated { from, to });
                }
            }
            let bandwidth = self.instance.bandwidth(from);
            if !eps::approx_le(sent, bandwidth) {
                violations.push(SchemeViolation::BandwidthExceeded {
                    node: from,
                    sent,
                    bandwidth,
                });
            }
        }
        violations
    }

    /// Whether the scheme satisfies all feasibility constraints.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.validate().is_empty()
    }

    /// The nonzero rates as `(from, to, rate)` triples, skipping dust and the diagonal —
    /// the single definition of "which edges exist" shared by every graph view below.
    fn nonzero_rates(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        let n = self.instance.num_nodes();
        self.rates
            .iter()
            .enumerate()
            .filter_map(move |(idx, &rate)| {
                let (from, to) = (idx / n, idx % n);
                (rate > RATE_EPS && from != to).then_some((from, to, rate))
            })
    }

    /// Converts the scheme into the flat CSR arena the flow solvers operate on (one pass
    /// over the nonzero rates).
    #[must_use]
    pub fn to_flow_arena(&self) -> FlowArena {
        let edges: Vec<(NodeId, NodeId, f64)> = self.nonzero_rates().collect();
        FlowArena::from_edges(self.instance.num_nodes(), &edges)
    }

    /// Throughput of the scheme: `min_k maxflow(C0 → Ck)` over all receivers (Section II-D).
    ///
    /// A one-shot convenience: one arena build and a fresh solver, then
    /// [`FlowSolver::min_max_flow`]. Every receiver that lies on no cycle of the rate
    /// digraph is settled by its in-rate — an acyclic scheme needs no max-flow at all —
    /// and the receivers on cycles get one max-flow each in ascending in-capacity
    /// order, capped at the running minimum. The result is the minimum of the
    /// individual max-flows, within [`bmp_flow::eps::tolerance`] (settled in-rates are
    /// summed in insertion order). Repeated evaluations (searches, sweeps, fan-out
    /// across the worker pool) go through a [`crate::solver::EvalCtx`], which retains
    /// the arena.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let arena = self.to_flow_arena();
        let receivers: Vec<NodeId> = self.instance.receivers().collect();
        FlowSolver::with_capacity(arena.num_nodes(), arena.num_edges())
            .min_max_flow(&arena, 0, &receivers)
    }

    /// Topological order of the scheme's digraph if it is acyclic, `None` otherwise.
    ///
    /// The returned order always starts with the source when the source has no incoming
    /// edges (which is the case for every scheme built by this crate).
    #[must_use]
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.instance.num_nodes();
        // One pass over the nonzero rates builds the adjacency lists and indegrees; the
        // Kahn loop below then touches only actual edges instead of rescanning the matrix.
        let mut indegree = vec![0usize; n];
        let mut successors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (from, to, _) in self.nonzero_rates() {
            indegree[to] += 1;
            successors[from].push(to);
        }
        // Kahn's algorithm, preferring smaller indices for determinism.
        let mut order = Vec::with_capacity(n);
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&v| indegree[v] == 0)
            .map(std::cmp::Reverse)
            .collect();
        while let Some(std::cmp::Reverse(v)) = ready.pop() {
            order.push(v);
            for &to in &successors[v] {
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    ready.push(std::cmp::Reverse(to));
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Whether the scheme's digraph is acyclic.
    #[must_use]
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Removes rates below [`RATE_EPS`] (floating-point dust) from the matrix.
    ///
    /// Dust is never an edge ([`BroadcastScheme::edges`] and the flow views share the
    /// strict `> RATE_EPS` threshold), so zeroing it changes neither the edge set nor any
    /// edge capacity: the journal and the epoch are deliberately left untouched, and a
    /// journal-patching evaluator remains exact across a prune.
    pub fn prune_dust(&mut self) {
        for rate in &mut self.rates {
            if *rate <= RATE_EPS {
                *rate = 0.0;
            }
        }
    }

    /// Edges of the scheme as `(from, to, rate)` triples, skipping dust (one pass over the
    /// nonzero rates).
    #[must_use]
    pub fn edges(&self) -> Vec<(NodeId, NodeId, f64)> {
        self.nonzero_rates().collect()
    }

    /// Like [`BroadcastScheme::edges`], but writing into `buf` (cleared first) so repeat
    /// callers — the incremental arena cache of [`crate::solver::EvalCtx`] — reuse one
    /// allocation across evaluations.
    pub fn edges_into(&self, buf: &mut Vec<(NodeId, NodeId, f64)>) {
        buf.clear();
        buf.extend(self.nonzero_rates());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::EvalCtx;
    use bmp_platform::paper::figure1;

    /// An optimal cyclic scheme of throughput 4.4 for the Figure 1 instance (the rates differ
    /// from the paper's drawing but saturate the same bound of Lemma 5.1: every node receives
    /// exactly 4.4 and every unit of outgoing bandwidth is used).
    fn figure1_optimal_scheme() -> BroadcastScheme {
        let mut s = BroadcastScheme::new(figure1());
        // Source (b0 = 6).
        s.set_rate(0, 1, 0.2);
        s.set_rate(0, 3, 3.4);
        s.set_rate(0, 4, 1.2);
        s.set_rate(0, 5, 1.2);
        // Open node C1 (b1 = 5).
        s.set_rate(1, 2, 0.8);
        s.set_rate(1, 3, 1.0);
        s.set_rate(1, 4, 1.6);
        s.set_rate(1, 5, 1.6);
        // Open node C2 (b2 = 5).
        s.set_rate(2, 1, 1.8);
        s.set_rate(2, 4, 1.6);
        s.set_rate(2, 5, 1.6);
        // Guarded nodes relay towards the open nodes.
        s.set_rate(3, 1, 2.4);
        s.set_rate(3, 2, 1.6);
        s.set_rate(4, 2, 1.0);
        s.set_rate(5, 2, 1.0);
        s
    }

    #[test]
    fn rates_and_sums() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 1, 2.0);
        s.set_rate(0, 2, 3.0);
        s.add_rate(0, 1, 1.0);
        assert_eq!(s.rate(0, 1), 3.0);
        assert_eq!(s.sent(0), 6.0);
        assert_eq!(s.received(1), 3.0);
        assert_eq!(s.remaining(0), 0.0);
        assert_eq!(s.outdegree(0), 2);
        assert_eq!(s.outdegrees(), vec![2, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot send to itself")]
    fn self_loop_rejected() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(1, 1, 1.0);
    }

    #[test]
    fn validation_catches_bandwidth_excess() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(4, 1, 2.0); // node 4 has bandwidth 1
        let violations = s.validate();
        assert!(violations
            .iter()
            .any(|v| matches!(v, SchemeViolation::BandwidthExceeded { node: 4, .. })));
        assert!(!s.is_feasible());
    }

    #[test]
    fn validation_catches_firewall_violation() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(3, 4, 0.5); // both guarded
        assert!(s
            .validate()
            .iter()
            .any(|v| matches!(v, SchemeViolation::FirewallViolated { from: 3, to: 4 })));
    }

    #[test]
    fn validation_catches_negative_rate() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 1, -1.0);
        assert!(s
            .validate()
            .iter()
            .any(|v| matches!(v, SchemeViolation::InvalidRate { .. })));
    }

    #[test]
    fn empty_scheme_is_feasible_with_zero_throughput() {
        let s = BroadcastScheme::new(figure1());
        assert!(s.is_feasible());
        assert_eq!(s.throughput(), 0.0);
        assert!(s.is_acyclic());
    }

    #[test]
    fn figure1_scheme_reaches_announced_throughput() {
        let s = figure1_optimal_scheme();
        assert!(s.is_feasible(), "violations: {:?}", s.validate());
        let throughput = s.throughput();
        assert!(
            (throughput - 4.4).abs() < 1e-9,
            "throughput = {throughput}, expected 4.4"
        );
        // The scheme of Figure 1 is cyclic (e.g. C1 → C2 and C2 → C1).
        assert!(!s.is_acyclic());
    }

    #[test]
    fn figure2_acyclic_scheme() {
        // An acyclic scheme following the order 0 3 1 2 4 5 of Figure 2, throughput 4.
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 3, 4.0);
        s.set_rate(0, 2, 2.0);
        s.set_rate(3, 1, 4.0);
        s.set_rate(1, 2, 2.0);
        s.set_rate(1, 4, 3.0);
        s.set_rate(2, 4, 1.0);
        s.set_rate(2, 5, 4.0);
        assert!(s.is_feasible(), "violations: {:?}", s.validate());
        assert!(s.is_acyclic());
        let throughput = s.throughput();
        assert!(
            (throughput - 4.0).abs() < 1e-9,
            "throughput = {throughput}, expected 4"
        );
        let order = s.topological_order().unwrap();
        assert_eq!(order[0], 0);
        // Node 3 must appear before node 1 because it feeds it.
        let pos3 = order.iter().position(|&v| v == 3).unwrap();
        let pos1 = order.iter().position(|&v| v == 1).unwrap();
        assert!(pos3 < pos1);
    }

    #[test]
    fn degree_excess_matches_definition() {
        let s = figure1_optimal_scheme();
        // Source: bandwidth 6, T = 4.4 → ⌈6/4.4⌉ = 2; it serves 4 nodes in this scheme.
        assert_eq!(s.outdegree(0), 4);
        assert_eq!(s.degree_excess(0, 4.4), 4 - 2);
        // Guarded node C4 has bandwidth 1 → ⌈1/4.4⌉ = 1; it serves exactly one node.
        assert_eq!(s.degree_excess(4, 4.4), 0);
        assert!(s.max_degree_excess(4.4) >= 2);
    }

    #[test]
    fn prune_dust_removes_tiny_rates() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 1, 1e-12);
        s.set_rate(0, 2, 2.0);
        s.prune_dust();
        assert_eq!(s.rate(0, 1), 0.0);
        assert_eq!(s.rate(0, 2), 2.0);
        assert_eq!(s.edges(), vec![(0, 2, 2.0)]);
    }

    /// Acceptance check for the batched evaluator: on the paper's Figure 1 (throughput
    /// 4.4) and Figure 2 (throughput 4.0) schemes, the batched multi-sink evaluation must
    /// equal the naive per-receiver minimum bit-for-bit.
    #[test]
    fn batched_throughput_equals_naive_on_paper_schemes() {
        let figure2_scheme = {
            let mut s = BroadcastScheme::new(figure1());
            s.set_rate(0, 3, 4.0);
            s.set_rate(0, 2, 2.0);
            s.set_rate(3, 1, 4.0);
            s.set_rate(1, 2, 2.0);
            s.set_rate(1, 4, 3.0);
            s.set_rate(2, 4, 1.0);
            s.set_rate(2, 5, 4.0);
            s
        };
        for (scheme, expected) in [(figure1_optimal_scheme(), 4.4), (figure2_scheme, 4.0)] {
            let mut ctx = EvalCtx::new();
            let naive = scheme
                .instance()
                .receivers()
                .map(|k| ctx.max_flow_to(&scheme, k))
                .fold(f64::INFINITY, f64::min);
            let batched = scheme.throughput();
            assert_eq!(batched, naive, "batched {batched} vs naive {naive}");
            ctx.set_parallelism(4);
            let parallel = ctx.throughput(&scheme);
            assert_eq!(parallel, naive, "parallel {parallel} vs naive {naive}");
            assert!(
                (batched - expected).abs() < 1e-9,
                "expected {expected}, got {batched}"
            );
        }
    }

    #[test]
    fn max_flow_to_individual_receiver() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 1, 3.0);
        s.set_rate(1, 2, 2.0);
        let mut ctx = EvalCtx::new();
        assert!((ctx.max_flow_to(&s, 1) - 3.0).abs() < 1e-9);
        assert!((ctx.max_flow_to(&s, 2) - 2.0).abs() < 1e-9);
        assert_eq!(ctx.max_flow_to(&s, 5), 0.0);
    }

    /// Mutates the serialized form of `scheme` through the JSON value model and
    /// deserializes it back, bypassing the setters' invariants like a hand-edited file.
    fn rebuild_with_rates(
        scheme: &BroadcastScheme,
        edit: impl FnOnce(&mut Vec<serde::Value>),
    ) -> Result<BroadcastScheme, serde_json::Error> {
        let json = serde_json::to_string(scheme).unwrap();
        let mut value: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Object(fields) = &mut value else {
            panic!("scheme serializes as an object");
        };
        let rates = fields
            .iter_mut()
            .find(|(key, _)| key == "rates")
            .map(|(_, value)| value)
            .unwrap();
        let serde::Value::Array(items) = rates else {
            panic!("rates serialize as an array");
        };
        edit(items);
        serde_json::from_str(&serde_json::to_string(&value).unwrap())
    }

    #[test]
    fn validate_rejects_deserialized_self_loop() {
        // A hand-edited document can put rate mass on the diagonal, which the setters
        // forbid; validation must flag it (and count it against the sender's bandwidth).
        let tampered = rebuild_with_rates(&BroadcastScheme::new(figure1()), |rates| {
            rates[0] = serde::Value::F64(1000.0); // c_{0,0}
        })
        .unwrap();
        let violations = tampered.validate();
        assert!(violations
            .iter()
            .any(|v| matches!(v, SchemeViolation::InvalidRate { from: 0, to: 0, .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, SchemeViolation::BandwidthExceeded { node: 0, .. })));
    }

    #[test]
    fn deserialization_rejects_truncated_rate_matrix() {
        let error = rebuild_with_rates(&figure1_optimal_scheme(), |rates| {
            rates.pop();
        })
        .unwrap_err();
        assert!(
            error
                .to_string()
                .contains("rate matrix has 35 entries, expected 6×6"),
            "{error}"
        );
    }

    #[test]
    fn deserialization_rejects_a_non_finite_rate() {
        // `1e999` overflows to infinity when parsed.
        let document =
            r#"{"instance":{"bandwidths":[4.0,2.0],"n":1,"m":0},"rates":[0.0,1e999,0.0,0.0]}"#;
        let error = serde_json::from_str::<BroadcastScheme>(document).unwrap_err();
        assert!(
            error.to_string().contains("rate c_{0,1} is not finite"),
            "{error}"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let s = figure1_optimal_scheme();
        let json = serde_json::to_string(&s).unwrap();
        let back: BroadcastScheme = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn journal_records_capacity_changes_and_epochs_edge_set_changes() {
        let mut s = BroadcastScheme::new(figure1());
        let epoch0 = s.edge_epoch();
        assert_eq!(s.journal_bounds(), (0, 0));
        // Creating an edge is an edge-set change: epoch bump, no journal entry.
        s.set_rate(0, 1, 2.0);
        assert_eq!(s.edge_epoch(), epoch0 + 1);
        assert_eq!(s.journal_bounds(), (0, 0));
        // Moving an existing edge's rate is journaled.
        s.set_rate(0, 1, 3.0);
        s.add_rate(0, 1, 0.5);
        assert_eq!(s.edge_epoch(), epoch0 + 1);
        let (base, end) = s.journal_bounds();
        assert_eq!(end - base, 2);
        assert_eq!(s.journal_since(base), &[(0, 1), (0, 1)]);
        // Writing the identical value is not a change at all.
        s.set_rate(0, 1, 3.5);
        assert_eq!(s.journal_bounds(), (base, end));
        // Removing the edge bumps the epoch and flushes the journal.
        s.set_rate(0, 1, 0.0);
        assert_eq!(s.edge_epoch(), epoch0 + 2);
        let (base2, end2) = s.journal_bounds();
        assert_eq!(base2, end2);
        // Dust-to-dust writes are invisible to the journal.
        s.set_rate(0, 2, RATE_EPS / 2.0);
        assert_eq!(s.edge_epoch(), epoch0 + 2);
        assert_eq!(s.journal_bounds(), (base2, end2));
    }

    #[test]
    fn journal_compaction_keeps_absolute_cursors_monotone() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 1, 1.0);
        let capacity = (4 * s.instance().num_nodes()).max(256);
        for k in 0..capacity {
            s.set_rate(0, 1, 2.0 + k as f64);
        }
        let (_, end) = s.journal_bounds();
        assert_eq!(end, capacity as u64);
        // The next journaled write exceeds the capacity: the buffer compacts, the
        // absolute end keeps growing, and a cursor inside the dropped range is rejected.
        s.set_rate(0, 1, 1.5);
        let (base, end) = s.journal_bounds();
        assert_eq!(base, capacity as u64);
        assert_eq!(end, capacity as u64 + 1);
        assert_eq!(s.journal_since(base).len(), 1);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.journal_since(base - 1)
        }))
        .is_err());
    }

    #[test]
    fn clone_and_deserialization_reset_the_evaluation_identity() {
        let mut s = figure1_optimal_scheme();
        s.set_rate(0, 1, 0.3);
        let clone = s.clone();
        assert_eq!(clone, s);
        assert_ne!(clone.eval_id(), s.eval_id());
        assert_eq!(clone.edge_epoch(), 0);
        assert_eq!(clone.journal_bounds(), (0, 0));
        let back: BroadcastScheme =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_ne!(back.eval_id(), s.eval_id());
        assert_eq!(back.journal_bounds(), (0, 0));
    }

    #[test]
    fn prune_dust_leaves_the_journal_untouched() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 2, 2.0);
        s.set_rate(0, 2, 2.5); // journaled
        s.set_rate(0, 1, 1e-12); // dust, invisible
        let epoch = s.edge_epoch();
        let bounds = s.journal_bounds();
        s.prune_dust();
        assert_eq!(s.edge_epoch(), epoch);
        assert_eq!(s.journal_bounds(), bounds);
        assert_eq!(s.rate(0, 1), 0.0);
    }

    #[test]
    fn throughput_auto_matches_sequential_evaluation() {
        // A fresh context picks its fan-out per evaluation (parallelism 0).
        let s = figure1_optimal_scheme();
        let mut ctx = EvalCtx::new();
        assert_eq!(ctx.parallelism(), 0);
        assert_eq!(ctx.throughput(&s), s.throughput());
    }

    #[test]
    fn cyclic_scheme_detected() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(1, 2, 1.0);
        s.set_rate(2, 1, 1.0);
        assert!(!s.is_acyclic());
        assert!(s.topological_order().is_none());
    }
}
