//! CSR flow kernel: a flat arc arena plus a reusable solver workspace.
//!
//! Every algorithm in the workspace scores schemes through `min_k maxflow(source → C_k)`,
//! so the flow substrate is the hottest layer of the codebase. It consists of:
//!
//! * [`FlowArena`] — an immutable compressed-sparse-row (CSR) arc arena built once per
//!   network: flat `start`/`to`/`partner`/`base_cap` arrays, residual arcs of a node stored
//!   contiguously for cache-friendly scans, plus a precomputed per-node in-capacity.
//! * [`FlowSolver`] — a reusable Dinic workspace owning every mutable buffer a solve
//!   needs (residual capacities, BFS levels, current-arc cursors, the BFS queue, the
//!   strongly-connected-component scratch of the settle step).
//!   After warm-up, repeated solves perform **no heap allocation**: buffers are cleared and
//!   refilled in place (this is asserted by a counting-allocator test).
//! * [`FlowSolver::min_max_flow`] — the multi-sink evaluator behind
//!   `BroadcastScheme::throughput`. One Tarjan pass over the positive arcs settles every
//!   sink that is a strongly connected component of its own by its in-capacity, exactly,
//!   provided every relay is itself a sink (see the method docs). In an acyclic overlay
//!   that is every sink, so certification costs `O(n + m)` and no max-flow. The sinks in
//!   cyclic components are visited in ascending in-capacity order, each max-flow capped
//!   at the running minimum (a sink whose flow reaches the cap cannot lower the
//!   minimum, so its solve terminates early).
//!   [`crate::pool::FlowPool::min_max_flow_with`] settles on the submitting thread and
//!   fans the remaining sinks out over the persistent worker pool.

use crate::eps;

/// Immutable CSR residual arena for one network.
///
/// Input edge `k` contributes a forward arc (capacity `c_k`) and a backward arc
/// (capacity 0); both live in the flat arrays below, grouped by tail node. The arena
/// carries no mutable solver state — residual capacities live in [`FlowSolver`], so one
/// arena can be shared by any number of solvers (including across threads).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowArena {
    num_nodes: usize,
    num_edges: usize,
    /// `start[v]..start[v + 1]` is the CSR arc range of node `v` (length `n + 1`).
    start: Vec<u32>,
    /// Head node of each arc (length `2m`).
    to: Vec<u32>,
    /// Position of each arc's reverse arc (length `2m`).
    partner: Vec<u32>,
    /// Initial residual capacity of each arc: `c_k` forward, `0` backward (length `2m`).
    base_cap: Vec<f64>,
    /// CSR position of the forward arc of input edge `k` (length `m`).
    edge_pos: Vec<u32>,
    /// Total capacity entering each node (length `n`).
    in_cap: Vec<f64>,
    /// `in_start[v]..in_start[v + 1]` indexes `in_edges` (length `n + 1`).
    in_start: Vec<u32>,
    /// Input-edge ids grouped by head node, ascending within each group (length `m`).
    /// This is the summation order of [`FlowArena::from_edges`] restricted to one head,
    /// which is what lets [`FlowArena::patch_edge_capacities`] recompute a patched node's
    /// in-capacity bit-for-bit identically to a full rebuild.
    in_edges: Vec<u32>,
}

impl FlowArena {
    /// Builds the arena from explicit edge triples.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or a capacity is negative or not finite.
    #[must_use]
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize, f64)]) -> Self {
        let num_edges = edges.len();
        assert!(
            2 * num_edges < u32::MAX as usize && num_nodes < u32::MAX as usize,
            "network too large for u32 arc indices"
        );
        let mut degree = vec![0u32; num_nodes + 1];
        for &(from, to, capacity) in edges {
            assert!(from < num_nodes, "edge tail {from} out of range");
            assert!(to < num_nodes, "edge head {to} out of range");
            assert!(
                capacity.is_finite() && capacity >= 0.0,
                "capacity must be finite and non-negative, got {capacity}"
            );
            degree[from] += 1;
            degree[to] += 1;
        }
        let mut start = vec![0u32; num_nodes + 1];
        for v in 0..num_nodes {
            start[v + 1] = start[v] + degree[v];
        }
        let mut cursor: Vec<u32> = start[..num_nodes].to_vec();
        let mut to_arr = vec![0u32; 2 * num_edges];
        let mut partner = vec![0u32; 2 * num_edges];
        let mut base_cap = vec![0.0f64; 2 * num_edges];
        let mut edge_pos = vec![0u32; num_edges];
        let mut in_cap = vec![0.0f64; num_nodes];
        let mut in_start = vec![0u32; num_nodes + 1];
        for &(_, to, _) in edges {
            in_start[to + 1] += 1;
        }
        for v in 0..num_nodes {
            in_start[v + 1] += in_start[v];
        }
        let mut in_cursor: Vec<u32> = in_start[..num_nodes].to_vec();
        let mut in_edges = vec![0u32; num_edges];
        for (k, &(from, to, capacity)) in edges.iter().enumerate() {
            let forward = cursor[from];
            cursor[from] += 1;
            let backward = cursor[to];
            cursor[to] += 1;
            to_arr[forward as usize] = to as u32;
            base_cap[forward as usize] = capacity;
            to_arr[backward as usize] = from as u32;
            base_cap[backward as usize] = 0.0;
            partner[forward as usize] = backward;
            partner[backward as usize] = forward;
            edge_pos[k] = forward;
            in_cap[to] += capacity;
            in_edges[in_cursor[to] as usize] = k as u32;
            in_cursor[to] += 1;
        }
        FlowArena {
            num_nodes,
            num_edges,
            start,
            to: to_arr,
            partner,
            base_cap,
            edge_pos,
            in_cap,
            in_start,
            in_edges,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of input edges (half the number of residual arcs).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Total capacity entering `node` (precomputed; `O(1)`).
    #[must_use]
    pub fn in_capacity(&self, node: usize) -> f64 {
        self.in_cap[node]
    }

    /// Endpoints `(tail, head)` of input edge `edge` (insertion order of
    /// [`FlowArena::from_edges`]).
    ///
    /// # Panics
    ///
    /// Panics if `edge >= num_edges`.
    #[must_use]
    pub fn edge_endpoints(&self, edge: usize) -> (usize, usize) {
        let forward = self.edge_pos[edge] as usize;
        let head = self.to[forward] as usize;
        let tail = self.to[self.partner[forward] as usize] as usize;
        (tail, head)
    }

    /// Capacity currently assigned to input edge `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge >= num_edges`.
    #[must_use]
    pub fn edge_capacity(&self, edge: usize) -> f64 {
        self.base_cap[self.edge_pos[edge] as usize]
    }

    /// Overwrites every input edge's capacity in place (`capacities[k]` is the new
    /// capacity of edge `k`).
    ///
    /// This is the incremental-update path used by evaluation contexts that re-score
    /// near-identical networks (e.g. the dichotomic search probing a scheme whose edge
    /// *set* is fixed while the rates move): instead of rebuilding the arena — degree
    /// counting, prefix sums, and five array allocations — only the capacities and the
    /// in-capacity sums are rewritten. The result is bit-for-bit the arena that
    /// [`FlowArena::from_edges`] would build over the same edge set with the new
    /// capacities — in-capacities are resummed in insertion order — without any
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != num_edges` or any capacity is negative or not
    /// finite.
    pub fn set_edge_capacities(&mut self, capacities: &[f64]) {
        assert_eq!(
            capacities.len(),
            self.num_edges,
            "expected one capacity per input edge"
        );
        self.in_cap.fill(0.0);
        for (edge, &capacity) in capacities.iter().enumerate() {
            assert!(
                capacity.is_finite() && capacity >= 0.0,
                "capacity must be finite and non-negative, got {capacity}"
            );
            let forward = self.edge_pos[edge] as usize;
            self.base_cap[forward] = capacity;
            self.in_cap[self.to[forward] as usize] += capacity;
        }
    }

    /// Overwrites the capacities of a *sparse* set of input edges in place
    /// (`patches[i] = (edge_idx, new_capacity)`, insertion-order edge indices).
    ///
    /// This is the journaled-update path used by evaluation contexts whose caller knows
    /// exactly which edges moved since the arena was last current (a dirty-edge journal on
    /// the scheme being probed): instead of rewriting every capacity
    /// ([`FlowArena::set_edge_capacities`]) — let alone rescanning an O(n²) rate matrix to
    /// find the changes — only the touched capacities are written and only the affected
    /// heads' in-capacities are recomputed. Each affected head is resummed over its
    /// incoming edges in insertion order, so the result is bit-for-bit the arena that
    /// [`FlowArena::from_edges`] would build with the patched capacities. Duplicate edge
    /// indices are allowed (the last write wins), and no allocation is performed.
    ///
    /// # Panics
    ///
    /// Panics if an edge index is `>= num_edges` or a capacity is negative or not finite.
    pub fn patch_edge_capacities(&mut self, patches: &[(usize, f64)]) {
        for &(edge, capacity) in patches {
            assert!(edge < self.num_edges, "edge index {edge} out of range");
            assert!(
                capacity.is_finite() && capacity >= 0.0,
                "capacity must be finite and non-negative, got {capacity}"
            );
            self.base_cap[self.edge_pos[edge] as usize] = capacity;
        }
        // Second pass so duplicate heads are resummed only over final capacities
        // (resumming the same head more than once is redundant but harmless).
        for &(edge, _) in patches {
            let head = self.to[self.edge_pos[edge] as usize] as usize;
            let incoming = self.in_start[head] as usize..self.in_start[head + 1] as usize;
            self.in_cap[head] = incoming
                .map(|slot| self.base_cap[self.edge_pos[self.in_edges[slot] as usize] as usize])
                .sum();
        }
    }

    /// Total capacity leaving `node` (`O(out-degree)`).
    #[must_use]
    pub fn out_capacity(&self, node: usize) -> f64 {
        let range = self.start[node] as usize..self.start[node + 1] as usize;
        range.map(|arc| self.base_cap[arc]).sum()
    }
}

/// Reusable max-flow workspace.
///
/// All buffers are owned by the solver and resized lazily to the arena's dimensions, so a
/// solver can be reused across networks of different sizes; in steady state (same-or-smaller
/// arena) a solve performs no heap allocation. A fresh default solver is cheap — reuse is
/// what makes the batched evaluators fast, not construction cost.
#[derive(Debug, Default, Clone)]
pub struct FlowSolver {
    /// Residual capacities, indexed like the arena's arc arrays.
    cap: Vec<f64>,
    /// BFS level of each node (Dinic).
    level: Vec<i32>,
    /// Current-arc cursor of each node, an absolute CSR position (Dinic).
    iter: Vec<u32>,
    /// BFS queue (Dinic).
    queue: Vec<u32>,
    /// Sinks [`FlowSolver::min_max_flow`] still has to solve, ascending in-capacity.
    sinks: Vec<u32>,
    /// Per-node [`SINK`] / [`CYCLIC`] flags of the settle pass.
    flags: Vec<u8>,
    /// Tarjan discovery index of each node ([`UNVISITED`] before its visit).
    scc_index: Vec<u32>,
    /// Tarjan low-link of each node ([`CLOSED`] once its component is complete).
    scc_low: Vec<u32>,
    /// Tarjan component stack.
    scc_stack: Vec<u32>,
    /// Explicit DFS call stack of the Tarjan pass (its arc cursors live in `iter`).
    scc_call: Vec<u32>,
}

/// Settle-pass flag: the node is one of the requested sinks.
const SINK: u8 = 1;
/// Settle-pass flag: the node lies on a cycle of positive arcs (a non-trivial strongly
/// connected component, or a positive self-loop).
const CYCLIC: u8 = 2;
/// Tarjan index of a node not visited yet.
const UNVISITED: u32 = u32::MAX;
/// Tarjan low-link of a node whose component is complete (no longer on the stack).
const CLOSED: u32 = u32::MAX;

impl FlowSolver {
    /// Creates an empty solver; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        FlowSolver::default()
    }

    /// Creates a solver with buffers pre-sized for `num_nodes` / `num_edges`.
    #[must_use]
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        let mut solver = FlowSolver::default();
        solver.cap.reserve(2 * num_edges);
        solver.level.reserve(num_nodes);
        solver.iter.reserve(num_nodes);
        solver.queue.reserve(num_nodes + 1);
        solver.flags.reserve(num_nodes);
        solver.scc_index.reserve(num_nodes);
        solver.scc_low.reserve(num_nodes);
        solver.scc_stack.reserve(num_nodes);
        solver.scc_call.reserve(num_nodes);
        solver
    }

    /// Resets residual capacities to the arena's base capacities.
    fn load_caps(&mut self, arena: &FlowArena) {
        self.cap.clear();
        self.cap.extend_from_slice(&arena.base_cap);
    }

    /// Maximum-flow value from `source` to `sink` (Dinic). Buffers are reused.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `sink` is out of range.
    pub fn max_flow(&mut self, arena: &FlowArena, source: usize, sink: usize) -> f64 {
        self.max_flow_limited(arena, source, sink, f64::INFINITY)
    }

    /// Like [`FlowSolver::max_flow`], but stops augmenting as soon as the accumulated flow
    /// reaches `limit`.
    ///
    /// The return value is exact when it is below `limit`; when it is `>= limit` it is a
    /// certificate that the true maximum flow is at least that large (the batched
    /// evaluators only need this one-sided information).
    pub fn max_flow_limited(
        &mut self,
        arena: &FlowArena,
        source: usize,
        sink: usize,
        limit: f64,
    ) -> f64 {
        assert!(source < arena.num_nodes, "source out of range");
        assert!(sink < arena.num_nodes, "sink out of range");
        if source == sink || limit <= 0.0 {
            return 0.0;
        }
        self.load_caps(arena);
        self.level.resize(arena.num_nodes, -1);
        self.iter.resize(arena.num_nodes, 0);
        self.queue.resize(arena.num_nodes + 1, 0);
        let mut total = 0.0;
        while total < limit
            && Self::bfs_levels(
                arena,
                &self.cap,
                &mut self.level,
                &mut self.queue,
                source,
                sink,
            )
        {
            for v in 0..arena.num_nodes {
                self.iter[v] = arena.start[v];
            }
            loop {
                let pushed = Self::dfs_augment(
                    arena,
                    &mut self.cap,
                    &self.level,
                    &mut self.iter,
                    source as u32,
                    sink as u32,
                    f64::INFINITY,
                );
                if !eps::is_positive(pushed) {
                    break;
                }
                total += pushed;
                if total >= limit {
                    return total;
                }
            }
        }
        total
    }

    /// Breadth-first search building the Dinic level graph; `true` iff the sink is reachable.
    // The CSR range indexes two parallel arrays (`to` and `cap`); an iterator over one of
    // them would hide that coupling.
    #[allow(clippy::needless_range_loop)]
    fn bfs_levels(
        arena: &FlowArena,
        cap: &[f64],
        level: &mut [i32],
        queue: &mut [u32],
        source: usize,
        sink: usize,
    ) -> bool {
        level.fill(-1);
        level[source] = 0;
        queue[0] = source as u32;
        let (mut head, mut tail) = (0usize, 1usize);
        while head < tail {
            let node = queue[head] as usize;
            head += 1;
            for arc in arena.start[node] as usize..arena.start[node + 1] as usize {
                let to = arena.to[arc] as usize;
                if level[to] < 0 && eps::is_positive(cap[arc]) {
                    level[to] = level[node] + 1;
                    queue[tail] = to as u32;
                    tail += 1;
                }
            }
        }
        level[sink] >= 0
    }

    /// Depth-first search pushing flow along the level graph (current-arc variant).
    fn dfs_augment(
        arena: &FlowArena,
        cap: &mut [f64],
        level: &[i32],
        iter: &mut [u32],
        node: u32,
        sink: u32,
        limit: f64,
    ) -> f64 {
        if node == sink {
            return limit;
        }
        let node_idx = node as usize;
        let end = arena.start[node_idx + 1];
        while iter[node_idx] < end {
            let arc = iter[node_idx] as usize;
            let to = arena.to[arc];
            if level[to as usize] == level[node_idx] + 1 && eps::is_positive(cap[arc]) {
                let pushed =
                    Self::dfs_augment(arena, cap, level, iter, to, sink, limit.min(cap[arc]));
                if eps::is_positive(pushed) {
                    cap[arc] -= pushed;
                    cap[arena.partner[arc] as usize] += pushed;
                    return pushed;
                }
            }
            iter[node_idx] += 1;
        }
        0.0
    }

    /// Minimum over `sinks` of the maximum flow from `source` — the batched evaluator
    /// behind `BroadcastScheme::throughput`.
    ///
    /// Returns `f64::INFINITY` when `sinks` is empty (the identity of `min`), mirroring a
    /// fold over individually computed flows. The evaluation has two steps:
    ///
    /// 1. **Settle.** When every node other than `source` that carries a positive arc
    ///    is one of the sinks, one Tarjan pass over the positive arcs finds the strongly
    ///    connected components, and every sink that forms a component of its own (no
    ///    positive self-loop) contributes its in-capacity instead of a max-flow. This is
    ///    exact: the sink side of a minimum source-rooted cut contains a component
    ///    without positive in-arcs from the rest of that side, so a singleton such
    ///    component is cut by exactly its in-arcs. An acyclic overlay — every scheme of
    ///    the acyclic algorithms, and every survivor overlay whose departed nodes are
    ///    isolated — is settled completely, with no max-flow at all. When the condition
    ///    fails (a relay that is not a sink) nothing is settled.
    /// 2. **Solve.** The remaining sinks, those in cyclic components, get one Dinic
    ///    each in ascending in-capacity order, capped at the running minimum (which
    ///    starts at the settled minimum): a sink whose flow reaches the cap cannot lower
    ///    the minimum, so terminating it early never changes the result, and a sink
    ///    whose true flow is below the cap is computed exactly. A running minimum of
    ///    zero short-circuits the remaining sinks.
    ///
    /// The result is the minimum of the settled in-capacities and the full per-sink
    /// max-flows of the unsettled sinks, independent of the order of `sinks`. It agrees
    /// with per-sink Dinic within [`eps::tolerance`]: a settled in-capacity also counts
    /// arcs at or below [`eps::DEFAULT_EPS`] that Dinic treats as absent, and sums in
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `source` or a sink is out of range.
    pub fn min_max_flow(&mut self, arena: &FlowArena, source: usize, sinks: &[usize]) -> f64 {
        let settled = self.settle_sinks(arena, source, sinks);
        self.solve_unsettled(arena, source, settled)
    }

    /// Sinks left unsettled by the last [`FlowSolver::settle_sinks`], ascending
    /// in-capacity (ties by node id).
    pub(crate) fn unsettled_sinks(&self) -> &[u32] {
        &self.sinks
    }

    /// The settle step of [`FlowSolver::min_max_flow`]: returns the minimum in-capacity
    /// over the settled sinks (`f64::INFINITY` when none is settled) and leaves the
    /// others in [`FlowSolver::unsettled_sinks`]. Allocation-free once warm.
    pub(crate) fn settle_sinks(
        &mut self,
        arena: &FlowArena,
        source: usize,
        sinks: &[usize],
    ) -> f64 {
        self.sinks.clear();
        if sinks.is_empty() {
            return f64::INFINITY;
        }
        assert!(source < arena.num_nodes, "source out of range");
        self.flags.clear();
        self.flags.resize(arena.num_nodes, 0);
        for &sink in sinks {
            assert!(sink < arena.num_nodes, "sink out of range");
            self.flags[sink] |= SINK;
        }
        let settling = self.relays_are_sinks(arena, source);
        if settling {
            self.mark_cyclic_nodes(arena);
        }
        let mut settled = f64::INFINITY;
        for &sink in sinks {
            if settling && sink != source && self.flags[sink] & CYCLIC == 0 {
                settled = settled.min(arena.in_cap[sink]);
            } else {
                self.sinks.push(sink as u32);
            }
        }
        self.sinks.sort_unstable_by(|&a, &b| {
            arena.in_cap[a as usize]
                .partial_cmp(&arena.in_cap[b as usize])
                .expect("capacities are finite")
                .then(a.cmp(&b))
        });
        settled
    }

    /// The solve step of [`FlowSolver::min_max_flow`]: capped Dinic over
    /// [`FlowSolver::unsettled_sinks`], starting from the running minimum `minimum`.
    pub(crate) fn solve_unsettled(
        &mut self,
        arena: &FlowArena,
        source: usize,
        mut minimum: f64,
    ) -> f64 {
        let order = std::mem::take(&mut self.sinks);
        for &sink in &order {
            if minimum <= 0.0 {
                break;
            }
            let flow = self.max_flow_limited(arena, source, sink as usize, minimum);
            if flow < minimum {
                minimum = flow;
            }
        }
        self.sinks = order;
        minimum
    }

    /// Whether every node other than `source` that carries a positive arc (in or out)
    /// is flagged [`SINK`] — the condition under which settling is exact.
    fn relays_are_sinks(&self, arena: &FlowArena, source: usize) -> bool {
        (0..arena.num_nodes).all(|node| {
            node == source
                || self.flags[node] & SINK != 0
                || (arena.start[node] as usize..arena.start[node + 1] as usize).all(|arc| {
                    !eps::is_positive(arena.base_cap[arc])
                        && !eps::is_positive(arena.base_cap[arena.partner[arc] as usize])
                })
        })
    }

    /// Iterative Tarjan over the arcs whose capacity passes [`eps::is_positive`] (the
    /// arcs Dinic's BFS can use): flags [`CYCLIC`] every node of a component with more
    /// than one node and every node with a positive self-loop.
    fn mark_cyclic_nodes(&mut self, arena: &FlowArena) {
        let n = arena.num_nodes;
        self.scc_index.clear();
        self.scc_index.resize(n, UNVISITED);
        self.scc_low.clear();
        self.scc_low.resize(n, 0);
        self.iter.resize(n, 0);
        self.scc_stack.clear();
        self.scc_call.clear();
        let mut next_index = 0u32;
        for root in 0..n {
            if self.scc_index[root] != UNVISITED {
                continue;
            }
            self.scc_index[root] = next_index;
            self.scc_low[root] = next_index;
            next_index += 1;
            self.iter[root] = arena.start[root];
            self.scc_stack.push(root as u32);
            self.scc_call.push(root as u32);
            while let Some(&node) = self.scc_call.last() {
                let node = node as usize;
                let end = arena.start[node + 1];
                let mut descended = false;
                while self.iter[node] < end {
                    let arc = self.iter[node] as usize;
                    self.iter[node] += 1;
                    if !eps::is_positive(arena.base_cap[arc]) {
                        continue;
                    }
                    let to = arena.to[arc] as usize;
                    if self.scc_index[to] == UNVISITED {
                        self.scc_index[to] = next_index;
                        self.scc_low[to] = next_index;
                        next_index += 1;
                        self.iter[to] = arena.start[to];
                        self.scc_stack.push(to as u32);
                        self.scc_call.push(to as u32);
                        descended = true;
                        break;
                    }
                    if to == node {
                        self.flags[node] |= CYCLIC;
                    } else if self.scc_low[to] != CLOSED {
                        self.scc_low[node] = self.scc_low[node].min(self.scc_index[to]);
                    }
                }
                if descended {
                    continue;
                }
                self.scc_call.pop();
                if let Some(&parent) = self.scc_call.last() {
                    let parent = parent as usize;
                    self.scc_low[parent] = self.scc_low[parent].min(self.scc_low[node]);
                }
                if self.scc_low[node] == self.scc_index[node] {
                    let singleton = self.scc_stack.last() == Some(&(node as u32));
                    loop {
                        let member =
                            self.scc_stack.pop().expect("component root is stacked") as usize;
                        self.scc_low[member] = CLOSED;
                        if !singleton {
                            self.flags[member] |= CYCLIC;
                        }
                        if member == node {
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// Worker-count heuristic for [`crate::pool::FlowPool::min_max_flow_with`]: how many
/// lanes are worth using for a multi-sink evaluation of `num_sinks` sinks on a
/// `num_nodes`-node arena.
///
/// Small evaluations are dominated by per-lane warm-up, so the heuristic stays
/// sequential below 512 nodes or 96 sinks (the persistent pool's per-call cost is a
/// queue push to already-warm workers, not a thread spawn). Above the thresholds it uses
/// the machine's available parallelism, capped at 8 so evaluation fan-out stays polite
/// inside already-parallel sweeps (on a single-core host it therefore always returns 1,
/// and fan-out costs nothing where it cannot win).
#[must_use]
pub fn suggested_flow_threads(num_nodes: usize, num_sinks: usize) -> usize {
    if num_nodes < 512 || num_sinks < 96 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::FlowPool;
    use std::sync::Arc;

    /// The pooled fan-out of `arena`'s multi-sink evaluation over the global pool.
    fn pooled(arena: &FlowArena, source: usize, sinks: &[usize], threads: usize) -> f64 {
        FlowPool::global().min_max_flow_with(
            &mut FlowSolver::new(),
            &Arc::new(arena.clone()),
            source,
            sinks,
            threads,
        )
    }

    fn diamond_arena() -> FlowArena {
        FlowArena::from_edges(
            4,
            &[
                (0, 1, 3.0),
                (0, 2, 2.0),
                (1, 3, 2.0),
                (2, 3, 4.0),
                (1, 2, 5.0),
            ],
        )
    }

    #[test]
    fn arena_layout_is_consistent() {
        let arena = diamond_arena();
        assert_eq!(arena.num_nodes(), 4);
        assert_eq!(arena.num_edges(), 5);
        assert_eq!(arena.start.len(), 5);
        assert_eq!(arena.to.len(), 10);
        // Every arc's partner points back.
        for arc in 0..arena.to.len() {
            assert_eq!(arena.partner[arena.partner[arc] as usize] as usize, arc);
        }
        // In-capacities are maintained.
        assert!((arena.in_capacity(3) - 6.0).abs() < 1e-12);
        assert!((arena.in_capacity(2) - 7.0).abs() < 1e-12);
        assert_eq!(arena.in_capacity(0), 0.0);
        assert!((arena.out_capacity(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dinic_on_arena_matches_known_value() {
        let arena = diamond_arena();
        let mut solver = FlowSolver::new();
        assert!((solver.max_flow(&arena, 0, 3) - 5.0).abs() < 1e-9);
        // Reuse for a different terminal pair without rebuilding anything.
        assert!((solver.max_flow(&arena, 0, 2) - 5.0).abs() < 1e-9);
        assert!((solver.max_flow(&arena, 1, 3) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn limited_solve_stops_early_but_never_underreports() {
        let arena = diamond_arena();
        let mut solver = FlowSolver::new();
        let limited = solver.max_flow_limited(&arena, 0, 3, 1.0);
        assert!(limited >= 1.0);
        let full = solver.max_flow(&arena, 0, 3);
        assert!(limited <= full + 1e-12);
    }

    #[test]
    fn min_max_flow_matches_per_sink_evaluation() {
        let arena = diamond_arena();
        let mut solver = FlowSolver::new();
        let naive = [1usize, 2, 3]
            .iter()
            .map(|&sink| FlowSolver::new().max_flow(&arena, 0, sink))
            .fold(f64::INFINITY, f64::min);
        let batched = solver.min_max_flow(&arena, 0, &[1, 2, 3]);
        assert_eq!(batched, naive);
        assert_eq!(pooled(&arena, 0, &[1, 2, 3], 3), naive);
    }

    #[test]
    fn sinks_off_every_cycle_are_settled_by_in_capacity() {
        // 0 → 1 → 2 plus 0 → 2: acyclic, so both sinks are settled. The minimum is
        // node 1's in-capacity, with no max-flow solved.
        let arena = FlowArena::from_edges(3, &[(0, 1, 2.0), (1, 2, 1.0), (0, 2, 4.0)]);
        let mut solver = FlowSolver::new();
        assert_eq!(solver.settle_sinks(&arena, 0, &[1, 2]), 2.0);
        assert!(solver.unsettled_sinks().is_empty());
        // A back arc 2 → 1 puts both sinks in one component: nothing is settled.
        let cyclic = FlowArena::from_edges(3, &[(0, 1, 2.0), (1, 2, 1.0), (2, 1, 1.0)]);
        assert_eq!(solver.settle_sinks(&cyclic, 0, &[1, 2]), f64::INFINITY);
        assert_eq!(solver.unsettled_sinks(), &[2, 1]);
        assert_eq!(solver.min_max_flow(&cyclic, 0, &[1, 2]), 1.0);
        // A positive self-loop is a cycle too.
        let looped = FlowArena::from_edges(2, &[(0, 1, 2.0), (1, 1, 5.0)]);
        assert_eq!(solver.settle_sinks(&looped, 0, &[1]), f64::INFINITY);
        assert_eq!(solver.min_max_flow(&looped, 0, &[1]), 2.0);
    }

    #[test]
    fn the_source_as_a_sink_is_never_settled() {
        // The source's maximum flow to itself is 0, whatever its in-capacity.
        let arena = FlowArena::from_edges(2, &[(0, 1, 2.0), (1, 0, 1.0)]);
        assert_eq!(FlowSolver::new().min_max_flow(&arena, 0, &[0, 1]), 0.0);
        let acyclic = FlowArena::from_edges(2, &[(0, 1, 2.0)]);
        assert_eq!(FlowSolver::new().min_max_flow(&acyclic, 0, &[1, 0]), 0.0);
    }

    #[test]
    fn a_relay_that_is_not_a_sink_turns_settling_off() {
        // Node 1 relays at most 1.0 to both sinks, whose in-capacities are 10 each.
        let arena = FlowArena::from_edges(4, &[(0, 1, 1.0), (1, 2, 10.0), (1, 3, 10.0)]);
        let mut solver = FlowSolver::new();
        assert_eq!(solver.settle_sinks(&arena, 0, &[2, 3]), f64::INFINITY);
        assert_eq!(solver.min_max_flow(&arena, 0, &[2, 3]), 1.0);
        // Arcs at or below the positivity tolerance do not make a relay.
        let faint = FlowArena::from_edges(4, &[(0, 1, 1e-12), (1, 2, 1e-12), (0, 2, 3.0)]);
        assert_eq!(solver.settle_sinks(&faint, 0, &[2]), 3.0 + 1e-12);
    }

    #[test]
    fn min_max_flow_empty_sinks_is_infinite() {
        let arena = diamond_arena();
        assert_eq!(
            FlowSolver::new().min_max_flow(&arena, 0, &[]),
            f64::INFINITY
        );
        assert_eq!(pooled(&arena, 0, &[], 4), f64::INFINITY);
    }

    #[test]
    fn min_max_flow_zero_short_circuits() {
        // Node 3 is unreachable: the batched evaluator must report 0 and may skip the rest.
        let arena = FlowArena::from_edges(4, &[(0, 1, 2.0), (1, 2, 2.0)]);
        let mut solver = FlowSolver::new();
        assert_eq!(solver.min_max_flow(&arena, 0, &[1, 2, 3]), 0.0);
    }

    #[test]
    fn solver_reuse_across_different_arenas() {
        let mut solver = FlowSolver::new();
        let small = FlowArena::from_edges(2, &[(0, 1, 1.5)]);
        assert!((solver.max_flow(&small, 0, 1) - 1.5).abs() < 1e-12);
        let larger = diamond_arena();
        assert!((solver.max_flow(&larger, 0, 3) - 5.0).abs() < 1e-9);
        let tiny = FlowArena::from_edges(3, &[(0, 2, 0.25)]);
        assert!((solver.max_flow(&tiny, 0, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn edge_accessors_follow_insertion_order() {
        let arena = diamond_arena();
        assert_eq!(arena.edge_endpoints(0), (0, 1));
        assert_eq!(arena.edge_endpoints(4), (1, 2));
        assert_eq!(arena.edge_capacity(0), 3.0);
        assert_eq!(arena.edge_capacity(3), 4.0);
    }

    #[test]
    fn in_place_capacity_update_matches_rebuild() {
        let edges = [
            (0usize, 1usize, 3.0),
            (0, 2, 2.0),
            (1, 3, 2.0),
            (2, 3, 4.0),
            (1, 2, 5.0),
        ];
        let mut updated = FlowArena::from_edges(4, &edges);
        let new_caps = [1.0, 7.0, 0.0, 2.5, 3.0];
        updated.set_edge_capacities(&new_caps);
        let rebuilt = FlowArena::from_edges(
            4,
            &edges
                .iter()
                .zip(new_caps)
                .map(|(&(from, to, _), cap)| (from, to, cap))
                .collect::<Vec<_>>(),
        );
        // The updated arena must be bit-for-bit the rebuilt one (same CSR layout, same
        // capacities, same in-capacities), so every downstream solve agrees exactly.
        assert_eq!(updated, rebuilt);
        let mut solver = FlowSolver::new();
        assert_eq!(
            solver.max_flow(&updated, 0, 3),
            solver.max_flow(&rebuilt, 0, 3)
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_capacity_update_is_rejected() {
        let mut arena = diamond_arena();
        arena.set_edge_capacities(&[1.0, 2.0, -1.0, 4.0, 5.0]);
    }

    #[test]
    fn sparse_patch_matches_rebuild() {
        let edges = [
            (0usize, 1usize, 3.0),
            (0, 2, 2.0),
            (1, 3, 2.0),
            (2, 3, 4.0),
            (1, 2, 5.0),
        ];
        let mut patched = FlowArena::from_edges(4, &edges);
        // Touch two edges, one of them twice (the last write must win).
        patched.patch_edge_capacities(&[(3, 9.0), (0, 1.25), (3, 0.75)]);
        let rebuilt = FlowArena::from_edges(
            4,
            &[
                (0, 1, 1.25),
                (0, 2, 2.0),
                (1, 3, 2.0),
                (2, 3, 0.75),
                (1, 2, 5.0),
            ],
        );
        // Bit-for-bit the rebuilt arena, including the resummed in-capacities.
        assert_eq!(patched, rebuilt);
        let mut solver = FlowSolver::new();
        assert_eq!(
            solver.max_flow(&patched, 0, 3),
            solver.max_flow(&rebuilt, 0, 3)
        );
        // An empty patch is a no-op.
        patched.patch_edge_capacities(&[]);
        assert_eq!(patched, rebuilt);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn patch_rejects_bad_edge_index() {
        diamond_arena().patch_edge_capacities(&[(5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn patch_rejects_negative_capacity() {
        diamond_arena().patch_edge_capacities(&[(0, -2.0)]);
    }

    #[test]
    fn suggested_threads_stays_sequential_for_small_evaluations() {
        assert_eq!(suggested_flow_threads(511, 499), 1);
        assert_eq!(suggested_flow_threads(5000, 64), 1);
        assert_eq!(suggested_flow_threads(500, 95), 1);
        // At or above the pool-tuned thresholds the heuristic defers to available
        // parallelism (so it still returns 1 on a single-core host).
        for eligible in [
            suggested_flow_threads(512, 96),
            suggested_flow_threads(2000, 1999),
        ] {
            assert!((1..=8).contains(&eligible));
        }
    }

    #[test]
    fn parallel_workers_cap_from_shared_minimum() {
        // A wide instance where one sink has a much smaller flow than the others, plus a
        // ring through the other receivers so they stay unsettled and fan out.
        let mut edges = Vec::new();
        let n = 40;
        for v in 1..n {
            edges.push((0, v, if v == 17 { 0.5 } else { 10.0 }));
        }
        let ring: Vec<usize> = (1..n).filter(|&v| v != 17).collect();
        for (k, &from) in ring.iter().enumerate() {
            edges.push((from, ring[(k + 1) % ring.len()], 1.0));
        }
        let arena = FlowArena::from_edges(n, &edges);
        let sinks: Vec<usize> = (1..n).collect();
        let sequential = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        assert_eq!(sequential, 0.5);
        assert_eq!(pooled(&arena, 0, &sinks, 8), 0.5);
    }
    #[test]
    fn simple_path() {
        let arena = FlowArena::from_edges(3, &[(0, 1, 2.0), (1, 2, 1.5)]);
        assert!((FlowSolver::new().max_flow(&arena, 0, 2) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn diamond_max_flow() {
        let arena = diamond_arena();
        assert!((FlowSolver::new().max_flow(&arena, 0, 3) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_sink() {
        let arena = FlowArena::from_edges(4, &[(0, 1, 2.0), (2, 3, 2.0)]);
        assert_eq!(FlowSolver::new().max_flow(&arena, 0, 3), 0.0);
    }

    #[test]
    fn source_equals_sink() {
        assert_eq!(FlowSolver::new().max_flow(&diamond_arena(), 1, 1), 0.0);
    }

    #[test]
    fn respects_fractional_capacities() {
        let arena =
            FlowArena::from_edges(4, &[(0, 1, 0.3), (0, 2, 0.7), (1, 3, 1.0), (2, 3, 0.25)]);
        assert!((FlowSolver::new().max_flow(&arena, 0, 3) - 0.55).abs() < 1e-9);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let arena = FlowArena::from_edges(2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert!((arena.in_capacity(1) - 3.5).abs() < 1e-12);
        assert!((FlowSolver::new().max_flow(&arena, 0, 1) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn back_edges_are_used() {
        // Classic example where the augmenting path must undo flow on the cross edge.
        let arena = FlowArena::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
            ],
        );
        assert!((FlowSolver::new().max_flow(&arena, 0, 3) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn source_out_of_range() {
        let _ = FlowSolver::new().max_flow(&diamond_arena(), 9, 3);
    }

    #[test]
    fn build_and_query() {
        let arena = FlowArena::from_edges(4, &[(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)]);
        assert_eq!(arena.num_nodes(), 4);
        assert_eq!(arena.num_edges(), 3);
        assert_eq!(arena.edge_endpoints(0), (0, 1));
        assert_eq!(arena.edge_capacity(1), 2.0);
        assert!((arena.out_capacity(0) - 4.0).abs() < 1e-12);
        assert_eq!(arena.out_capacity(3), 0.0);
        assert!((arena.in_capacity(2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn in_capacity_tracks_every_insertion() {
        let arena = FlowArena::from_edges(3, &[(0, 1, 1.25), (2, 1, 0.75), (1, 2, 4.0)]);
        assert!((arena.in_capacity(1) - 2.0).abs() < 1e-12);
        assert!((arena.in_capacity(2) - 4.0).abs() < 1e-12);
        assert_eq!(arena.in_capacity(0), 0.0);
        // Parallel edges accumulate.
        let arena =
            FlowArena::from_edges(3, &[(0, 1, 1.25), (2, 1, 0.75), (1, 2, 4.0), (0, 1, 0.5)]);
        assert!((arena.in_capacity(1) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_bad_endpoint() {
        let _ = FlowArena::from_edges(2, &[(0, 5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_edges_rejects_negative_capacity() {
        let _ = FlowArena::from_edges(2, &[(0, 1, -1.0)]);
    }
}
