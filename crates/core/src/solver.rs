//! The unified solver API: one trait, one solution type, one evaluation context.
//!
//! Every scheduling algorithm of the crate is exposed through the [`Solver`] trait and
//! enumerated by [`registry`], so the CLI, the experiment runners and the benchmarks all
//! dispatch uniformly instead of hand-rolling per-algorithm branches:
//!
//! * [`Solver`] — `name()` / `describe()` / `solve(&Instance, &mut EvalCtx)`,
//! * [`Solution`] — scheme + claimed throughput + optional coding word + algorithm label
//!   \+ [`Telemetry`] (flow solves, bisection probes, wall time),
//! * [`EvalCtx`] — an *explicit* flow-evaluation workspace owning the
//!   [`FlowArena`] and [`FlowSolver`]. It is the evaluation path of every solver,
//!   search and sweep (`BroadcastScheme::throughput` is only a one-shot convenience)
//!   and retains the arena across evaluations. Scheme evaluations are incremental
//!   end-to-end: the context consumes the dirty-edge journal of [`BroadcastScheme`]
//!   (see the `scheme` module docs), so a re-evaluation of a scheme whose edge *set* is
//!   unchanged skips the O(n + edges) walk of the stored rates and patches only the
//!   journaled capacities into the cached arena
//!   ([`FlowArena::patch_edge_capacities`], resolved through a CSR edge-index map the
//!   context maintains). An edge-set change (epoch bump), a different scheme object, or
//!   a stale journal cursor falls back to the scan-plus-rewrite path
//!   ([`FlowArena::set_edge_capacities`]), and a changed edge list rebuilds the arena.
//!   The journal fast path is observable as [`Telemetry::rescans_skipped`] /
//!   [`Telemetry::edges_patched`]. It is the only evaluation mode: the scan path runs
//!   only as its fallback, and a fresh context (which has no journal association yet)
//!   always scans — which is what makes a fresh `EvalCtx` the test oracle for the
//!   journaled one.
//!
//! # Parallel evaluation
//!
//! [`EvalCtx::set_parallelism`] switches multi-sink evaluations onto the process-wide
//! persistent worker pool ([`bmp_flow::FlowPool::global`]): the journaled (or scanned)
//! capacities are patched into the retained arena exactly as in the sequential path,
//! the submitting thread settles every receiver that lies on no cycle by its in-rate
//! ([`FlowSolver::min_max_flow`]), and the max-flows of the receivers in cyclic
//! components fan out across long-lived workers, the submitter working a share on the
//! context's own solver. An acyclic scheme — the output of every acyclic algorithm —
//! therefore never reaches the pool. Values **and** the
//! [`Telemetry`] counters (`flow_solves`, `rescans_skipped`, `edges_patched`) are
//! bit-for-bit identical to sequential evaluation — the fan-out only changes wall time —
//! which the conformance suite asserts for every registry solver. The default of `0`
//! selects the [`bmp_flow::suggested_flow_threads`] heuristic per evaluation; `1` stays
//! sequential, which is the right setting inside already-parallel sweeps (the pool is
//! shared and capped, but the outer fan-out owns the cores — see
//! `bmp_experiments::parallel::eval_parallelism`). Parallelism is the context's only
//! evaluation setting: dichotomic searches probe serially and every max-flow is solved
//! from scratch.
//!
//! # Copy-on-probe
//!
//! The journal fast path keys on *object identity* ([`BroadcastScheme::eval_id`]): a
//! search that clones the scheme per probe hands the context a fresh, journal-less
//! object every time and silently pays the full O(n + edges) rescan. Clone **one working
//! copy** before the loop and mutate it in place per probe instead — see the
//! "Copy-on-probe" section of the [`crate::scheme`] module docs for the doctest'd
//! pattern (`churn::degradation_tolerance` is the in-tree exemplar).
//!
//! Every solver verifies its own output before returning: the constructed scheme is
//! re-scored by max-flow through the context and a shortfall against the claimed
//! throughput surfaces as [`CoreError::VerificationFailed`] instead of a silently wrong
//! `Solution`.
//!
//! The registry contains the core algorithms (`acyclic-guarded`, `acyclic-open`,
//! `cyclic-open`, `exhaustive`, `omega-word`, `auto`). Downstream crates implement
//! [`Solver`] for their own algorithms and append them — `bmp-trees` ships a
//! tree-decomposition adapter, and the CLI assembles the full list (core + trees) for
//! `solve --algorithm` dispatch. (The adapter cannot live in this crate's registry
//! because `bmp-trees` depends on `bmp-core`, not the other way around.)

use crate::acyclic_guarded::AcyclicGuardedSolver;
use crate::acyclic_open::acyclic_open_optimal_scheme;
use crate::bounds::cyclic_upper_bound;
use crate::cyclic_open::cyclic_open_optimal_scheme;
use crate::error::CoreError;
use crate::exhaustive::optimal_acyclic_exhaustive_traced;
use crate::faults::{FaultSite, InjectedFaults};
use crate::omega::{omega1, omega2};
use crate::scheme::BroadcastScheme;
use crate::search::DichotomicSearch;
use crate::word::{is_valid_word, CodingWord, Symbol};
use bmp_flow::{suggested_flow_threads, FlowArena, FlowPool, FlowSolver};
use bmp_platform::{Instance, NodeId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative tolerance of the post-solve max-flow verification.
const VERIFY_TOL: f64 = 1e-6;

/// Cost counters and timing of one [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Telemetry {
    /// Number of per-sink max-flow evaluations requested through the context (batched
    /// evaluations count one per sink, even when the early-exit cap truncates a solve
    /// or the sink is settled by its in-capacity without a max-flow).
    pub flow_solves: u64,
    /// Number of feasibility probes spent by dichotomic searches.
    pub bisection_iters: u64,
    /// Number of scheme evaluations that skipped the O(n + edges) rescan of the stored
    /// rates by consuming the scheme's dirty-edge journal instead.
    pub rescans_skipped: u64,
    /// Total edge capacities patched into the cached arena by journaled evaluations.
    pub edges_patched: u64,
    /// Wall-clock time of the solve, including verification.
    pub wall_time: Duration,
}

/// Uniform result of every registered solver.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Registry name of the algorithm that actually ran (e.g. `"acyclic-guarded"`).
    pub algorithm: &'static str,
    /// Throughput the algorithm claims; verified against the scheme by max-flow before
    /// the solution is returned.
    pub throughput: f64,
    /// The scheme's throughput as measured by max-flow during verification (within the
    /// verification tolerance of `throughput`, and free for callers to display — the
    /// evaluation already happened).
    pub verified_throughput: f64,
    /// The coding word / increasing order realising the scheme, for the algorithms that
    /// have one.
    pub word: Option<CodingWord>,
    /// The explicit broadcast scheme.
    pub scheme: BroadcastScheme,
    /// Cost counters of this solve.
    pub telemetry: Telemetry,
}

/// Association between the cached arena and the scheme object it was last pointed at:
/// the scheme's identity, its edge epoch, and how far into its dirty-edge journal the
/// arena's capacities are current.
#[derive(Debug, Clone, Copy)]
struct JournalAssoc {
    scheme_id: u64,
    epoch: u64,
    cursor: u64,
}

/// Explicit flow-evaluation workspace: owns the arena and the solver buffers, retains
/// the arena across evaluations, and counts work for [`Telemetry`].
///
/// In steady state (re-probing the same scheme object with an unchanged edge set — the
/// access pattern of every dichotomic search loop) an evaluation performs no
/// O(n + edges) rescan, no CSR construction and no allocation: the journaled capacities are
/// patched into the cached arena and the reusable [`FlowSolver`] buffers are refilled.
#[derive(Debug, Clone)]
pub struct EvalCtx {
    solver: FlowSolver,
    /// Retained arena of scheme evaluations ([`EvalCtx::throughput`],
    /// [`EvalCtx::max_flow_to`]), patched from the scheme's dirty-edge journal.
    scheme_arena: CachedArena,
    /// `(from, to) → edge index` into the scheme arena; rebuilt lazily after an arena
    /// rebuild, valid as long as the edge set is unchanged.
    edge_index: std::collections::HashMap<(NodeId, NodeId), u32>,
    edge_index_valid: bool,
    /// Which scheme object (and journal position) the scheme arena is current for.
    journal_assoc: Option<JournalAssoc>,
    /// Retained arena of *explicit-edge* evaluations ([`EvalCtx::min_max_flow`] — the
    /// churn residual path), kept separate from the scheme arena so interleaving the two
    /// kinds of evaluation costs neither its cache: a residual probe between two
    /// journaled scheme re-probes does not sever the journal association, and a sweep
    /// alternating the two reuses both arenas in place.
    explicit_arena: CachedArena,
    /// Fan-out of multi-sink evaluations: `0` the per-evaluation size heuristic
    /// (default), `1` sequential, `> 1` dispatch onto the shared worker pool.
    parallelism: usize,
    scratch_edges: Vec<(NodeId, NodeId, f64)>,
    scratch_filtered: Vec<(NodeId, NodeId, f64)>,
    scratch_patches: Vec<(usize, f64)>,
    scratch_sinks: Vec<NodeId>,
    tolerance: f64,
    /// Installed fault-injection script; `None` (production) makes every interception
    /// a single branch on a `None` discriminant.
    injected_faults: Option<InjectedFaults>,
    /// One-shot warm-start hint for the next dichotomic solve: a throughput the caller
    /// has already verified feasible on a closely related overlay (the repair path's
    /// residual probe). Consumed — never reused — by the first solver that takes it.
    warm_start_lower: Option<f64>,
    flow_solves: u64,
    bisection_iters: u64,
    arena_builds: u64,
    arena_updates: u64,
    rescans_skipped: u64,
    edges_patched: u64,
}

impl Default for EvalCtx {
    /// Same as [`EvalCtx::new`]: the derived zero-value would set `tolerance` to `0.0`
    /// and degenerate every dichotomic search into its full iteration cap.
    fn default() -> Self {
        EvalCtx::new()
    }
}

impl EvalCtx {
    /// Default dichotomic tolerance, matching [`AcyclicGuardedSolver::default`].
    pub const DEFAULT_TOLERANCE: f64 = 1e-10;

    /// Creates a context with the default search tolerance.
    #[must_use]
    pub fn new() -> Self {
        Self::with_tolerance(Self::DEFAULT_TOLERANCE)
    }

    /// Creates a context whose dichotomic searches use relative precision `tolerance`.
    #[must_use]
    pub fn with_tolerance(tolerance: f64) -> Self {
        EvalCtx {
            solver: FlowSolver::new(),
            scheme_arena: CachedArena::default(),
            edge_index: std::collections::HashMap::new(),
            edge_index_valid: false,
            journal_assoc: None,
            explicit_arena: CachedArena::default(),
            parallelism: 0,
            scratch_edges: Vec::new(),
            scratch_filtered: Vec::new(),
            scratch_patches: Vec::new(),
            scratch_sinks: Vec::new(),
            tolerance,
            injected_faults: None,
            warm_start_lower: None,
            flow_solves: 0,
            bisection_iters: 0,
            arena_builds: 0,
            arena_updates: 0,
            rescans_skipped: 0,
            edges_patched: 0,
        }
    }

    /// Relative precision the registered solvers use for their dichotomic searches.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The shared bisection driver configured with this context's tolerance.
    #[must_use]
    pub fn search(&self) -> DichotomicSearch {
        DichotomicSearch::with_tolerance(self.tolerance)
    }

    /// Installs (or with `None`, removes) a fault-injection script. Interceptions are
    /// counted from this call; see [`InjectedFaults`].
    pub fn set_injected_faults(&mut self, faults: Option<InjectedFaults>) {
        self.injected_faults = faults;
    }

    /// Arms (or with `None`, clears) a one-shot warm-start hint for the next dichotomic
    /// solve: a throughput the caller has already verified on a closely related overlay,
    /// used as the initial lower bracket via [`DichotomicSearch::maximize_from`]. The
    /// hint is advisory — solvers probe it before trusting it — and is consumed by the
    /// first [`Solver::solve`] that honours it, so re-arm before every attempt.
    pub fn set_warm_start_lower(&mut self, hint: Option<f64>) {
        self.warm_start_lower = hint;
    }

    /// Takes (and clears) the armed warm-start hint, if any.
    #[must_use]
    pub fn take_warm_start_lower(&mut self) -> Option<f64> {
        self.warm_start_lower.take()
    }

    /// The installed fault-injection script, if any (its `fired`/`pending` counters
    /// reflect interceptions so far).
    #[must_use]
    pub fn injected_faults(&self) -> Option<&InjectedFaults> {
        self.injected_faults.as_ref()
    }

    /// Fault-plane interception: records that `site` was reached and returns the
    /// occurrence index when the installed script schedules this occurrence to fail.
    /// Always `None` (one branch, no counting) when no script is installed.
    #[inline]
    pub fn intercept_fault(&mut self, site: FaultSite) -> Option<u64> {
        match self.injected_faults.as_mut() {
            None => None,
            Some(faults) => faults.intercept(site),
        }
    }

    /// Records `probes` dichotomic feasibility probes (solvers call this; exposed so
    /// out-of-crate [`Solver`] implementations can account their searches too).
    pub fn add_bisection_iters(&mut self, probes: u64) {
        self.bisection_iters += probes;
    }

    /// Total per-sink max-flow evaluations requested so far (settled sinks included,
    /// see [`Telemetry::flow_solves`]).
    #[must_use]
    pub fn flow_solves(&self) -> u64 {
        self.flow_solves
    }

    /// Total dichotomic probes recorded so far.
    #[must_use]
    pub fn bisection_iters(&self) -> u64 {
        self.bisection_iters
    }

    /// Number of from-scratch CSR arena constructions performed.
    #[must_use]
    pub fn arena_builds(&self) -> u64 {
        self.arena_builds
    }

    /// Number of evaluations that reused the cached arena via in-place capacity updates.
    #[must_use]
    pub fn arena_updates(&self) -> u64 {
        self.arena_updates
    }

    /// Number of scheme evaluations that skipped the O(n + edges) rescan of the stored
    /// rates via the dirty-edge journal.
    #[must_use]
    pub fn rescans_skipped(&self) -> u64 {
        self.rescans_skipped
    }

    /// Total edge capacities patched into the cached arena by journaled evaluations.
    #[must_use]
    pub fn edges_patched(&self) -> u64 {
        self.edges_patched
    }

    /// Sets the fan-out of [`EvalCtx::throughput`] evaluations (see the module docs):
    /// `0` (the default) picks per evaluation via
    /// [`bmp_flow::suggested_flow_threads`] (sequential for small instances, pooled at
    /// fleet scale), `1` always evaluates sequentially on the calling thread, and
    /// `threads > 1` dispatches the per-receiver max-flows onto the shared persistent
    /// worker pool ([`FlowPool::global`]) with up to `threads` concurrent lanes. The
    /// fan-out applies only to receivers in cyclic components: the others are settled
    /// by their in-capacities on the calling thread first, and the lane count is capped
    /// by how many receivers remain, so an acyclic scheme evaluates sequentially at any
    /// setting.
    ///
    /// Below the heuristic's size thresholds — every conformance instance, and any
    /// machine without available parallelism — auto resolves to the same sequential
    /// path as `1`, so the default costs nothing where fan-out cannot win.
    ///
    /// Values and telemetry counters are bit-for-bit independent of this setting; only
    /// wall time changes. Contexts used *inside* an already-parallel sweep should be
    /// set to `1` — the outer fan-out owns the cores
    /// (`bmp_experiments::eval_parallelism` does exactly that).
    pub fn set_parallelism(&mut self, threads: usize) {
        self.parallelism = threads;
    }

    /// The configured evaluation fan-out (`0` auto — the default, `1` sequential).
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Whether scheme evaluations ride the dirty-edge journal. Fixed at `true`.
    #[must_use]
    pub fn journal_enabled(&self) -> bool {
        true
    }

    /// Speculation depth of dichotomic searches. Fixed at `0`: searches probe serially.
    #[must_use]
    pub fn speculation(&self) -> usize {
        0
    }

    /// Whether max-flows warm-start from retained residual states. Fixed at `false`.
    #[must_use]
    pub fn incremental(&self) -> bool {
        false
    }

    /// Max-flows warm-started from a retained residual state. Fixed at `0`.
    #[must_use]
    pub fn flows_warm_started(&self) -> u64 {
        0
    }

    /// Speculative dichotomic probes evaluated. Fixed at `0`.
    #[must_use]
    pub fn probes_speculated(&self) -> u64 {
        0
    }

    /// Speculative dichotomic probes evaluated and discarded. Fixed at `0`.
    #[must_use]
    pub fn probes_wasted(&self) -> u64 {
        0
    }

    /// Throughput of `scheme` (`min_k maxflow(source → C_k)`), evaluated through the
    /// retained arena (journal-patched when possible, see the type docs) at the
    /// configured parallelism ([`EvalCtx::set_parallelism`]; auto by default).
    pub fn throughput(&mut self, scheme: &BroadcastScheme) -> f64 {
        self.ensure_scheme_arena(scheme);
        let mut sinks = std::mem::take(&mut self.scratch_sinks);
        sinks.clear();
        sinks.extend(scheme.instance().receivers());
        self.flow_solves += sinks.len() as u64;
        let value = min_max_flow_at(
            &mut self.solver,
            self.scheme_arena.arena(),
            0,
            &sinks,
            self.parallelism,
        );
        self.scratch_sinks = sinks;
        value
    }

    /// Maximum flow from the source to `receiver` in `scheme`'s weighted digraph
    /// (journal-patched when possible, like [`EvalCtx::throughput`]).
    pub fn max_flow_to(&mut self, scheme: &BroadcastScheme, receiver: NodeId) -> f64 {
        self.ensure_scheme_arena(scheme);
        self.flow_solves += 1;
        self.solver.max_flow(self.scheme_arena.arena(), 0, receiver)
    }

    /// `min_k maxflow(source → sinks_k)` over an explicit edge list (the entry point for
    /// evaluations that are not a whole scheme, e.g. survivor overlays in the churn
    /// analysis). Returns `f64::INFINITY` when `sinks` is empty.
    ///
    /// The evaluation runs on the context's explicit-edge arena (in-place capacity
    /// rewrite when the explicit edge set is unchanged, rebuild otherwise), so it leaves
    /// the scheme arena — and with it any dirty-edge-journal association — untouched,
    /// and it honours the configured parallelism ([`EvalCtx::set_parallelism`]): at a
    /// fan-out above 1 (or when the `0` auto heuristic triggers at fleet scale) the
    /// max-flows of the sinks in cyclic components dispatch onto the shared persistent
    /// worker pool, the value staying bit-identical to the sequential pass. A survivor
    /// overlay whose departed nodes are isolated, with every survivor a sink, is settled
    /// like any other: an acyclic one needs no max-flow.
    pub fn min_max_flow(
        &mut self,
        num_nodes: usize,
        edges: &[(NodeId, NodeId, f64)],
        source: NodeId,
        sinks: &[NodeId],
    ) -> f64 {
        if self.explicit_arena.prepare(num_nodes, edges) {
            self.arena_builds += 1;
        } else {
            self.arena_updates += 1;
        }
        self.flow_solves += sinks.len() as u64;
        min_max_flow_at(
            &mut self.solver,
            self.explicit_arena.arena(),
            source,
            sinks,
            self.parallelism,
        )
    }

    /// Like [`EvalCtx::min_max_flow`], but the edge list is produced by `fill` into a
    /// context-owned buffer, so repeat callers (the churn sweep filtering a scheme down
    /// to its survivors for thousands of departure sets) reuse one allocation instead of
    /// building a fresh `Vec` per evaluation.
    ///
    /// The dirty-edge journal does not apply here — a filtered edge list is a different
    /// edge *set* than the scheme's, so the evaluation runs on the context's explicit
    /// arena (in-place rewrite when the filtered set is unchanged, rebuild otherwise)
    /// and any journal association of the scheme arena survives untouched.
    pub fn min_max_flow_with(
        &mut self,
        num_nodes: usize,
        source: NodeId,
        sinks: &[NodeId],
        fill: impl FnOnce(&mut Vec<(NodeId, NodeId, f64)>),
    ) -> f64 {
        let mut edges = std::mem::take(&mut self.scratch_filtered);
        edges.clear();
        fill(&mut edges);
        let value = self.min_max_flow(num_nodes, &edges, source, sinks);
        self.scratch_filtered = edges;
        value
    }

    /// Points the scheme arena at `scheme`'s current rates: a sparse journal patch when
    /// the arena is current for this scheme object's edge set, a walk over the stored
    /// rates followed by [`CachedArena::prepare`] otherwise.
    fn ensure_scheme_arena(&mut self, scheme: &BroadcastScheme) {
        if self.try_patch_from_journal(scheme) {
            return;
        }
        let mut edges = std::mem::take(&mut self.scratch_edges);
        scheme.edges_into(&mut edges);
        if self
            .scheme_arena
            .prepare(scheme.instance().num_nodes(), &edges)
        {
            self.edge_index_valid = false;
            self.arena_builds += 1;
        } else {
            self.arena_updates += 1;
        }
        self.scratch_edges = edges;
        self.journal_assoc = Some(JournalAssoc {
            scheme_id: scheme.eval_id(),
            epoch: scheme.edge_epoch(),
            cursor: scheme.journal_bounds().1,
        });
    }

    /// Attempts the journal fast path: applicable iff the cached arena belongs to this
    /// very scheme object, the edge set is unchanged (same epoch), and no journal
    /// compaction swallowed entries this context has not seen. On success only the
    /// journaled capacities are patched; on any mismatch the caller falls back to the
    /// full scan, so the fast path can never produce a different result.
    fn try_patch_from_journal(&mut self, scheme: &BroadcastScheme) -> bool {
        let Some(assoc) = self.journal_assoc else {
            return false;
        };
        let (base, end) = scheme.journal_bounds();
        if assoc.scheme_id != scheme.eval_id()
            || assoc.epoch != scheme.edge_epoch()
            || assoc.cursor < base
            || assoc.cursor > end
            || self.scheme_arena.arena.is_none()
        {
            return false;
        }
        self.ensure_edge_index();
        let mut patches = std::mem::take(&mut self.scratch_patches);
        patches.clear();
        for &(from, to) in scheme.journal_since(assoc.cursor) {
            let Some(&edge) = self.edge_index.get(&(from, to)) else {
                // Unreachable under the journal protocol (an unchanged epoch means every
                // journaled pair is an edge of the cached set), but a fallback to the
                // full scan is always safe.
                self.scratch_patches = patches;
                self.journal_assoc = None;
                return false;
            };
            patches.push((edge as usize, scheme.rate(from, to)));
        }
        Arc::make_mut(self.scheme_arena.arena.as_mut().expect("checked above"))
            .patch_edge_capacities(&patches);
        self.rescans_skipped += 1;
        self.edges_patched += patches.len() as u64;
        self.scratch_patches = patches;
        self.journal_assoc = Some(JournalAssoc {
            cursor: end,
            ..assoc
        });
        true
    }

    /// Rebuilds the `(from, to) → edge index` map if the arena was rebuilt since it was
    /// last valid.
    fn ensure_edge_index(&mut self) {
        if self.edge_index_valid {
            return;
        }
        self.edge_index.clear();
        self.edge_index.reserve(self.scheme_arena.edges.len());
        for (k, &(from, to)) in self.scheme_arena.edges.iter().enumerate() {
            self.edge_index.insert((from, to), k as u32);
        }
        self.edge_index_valid = true;
    }
}

/// A retained CSR arena plus the edge endpoints it was built over.
///
/// The arena sits behind an [`Arc`] so parallel evaluations can hand it to the
/// persistent worker pool without copying; in steady state the owner is the sole holder
/// (workers drop their clones before an evaluation returns), so [`Arc::make_mut`]
/// patches it in place exactly like a plain field.
#[derive(Debug, Clone, Default)]
struct CachedArena {
    arena: Option<Arc<FlowArena>>,
    nodes: usize,
    /// Endpoints of the arena's edges, in edge order.
    edges: Vec<(NodeId, NodeId)>,
    /// Capacity scratch for in-place rewrites.
    caps: Vec<f64>,
}

impl CachedArena {
    /// Points the arena at `edges`: an in-place capacity rewrite when the edge set
    /// (endpoints, in order) is unchanged, a CSR rebuild otherwise. Returns whether the
    /// arena was rebuilt.
    fn prepare(&mut self, num_nodes: usize, edges: &[(NodeId, NodeId, f64)]) -> bool {
        let reusable = self.nodes == num_nodes
            && self.edges.len() == edges.len()
            && self
                .edges
                .iter()
                .zip(edges)
                .all(|(&(from, to), &(from2, to2, _))| from == from2 && to == to2);
        match self.arena.as_mut() {
            Some(arena) if reusable => {
                self.caps.clear();
                self.caps.extend(edges.iter().map(|&(_, _, cap)| cap));
                Arc::make_mut(arena).set_edge_capacities(&self.caps);
                false
            }
            _ => {
                self.arena = Some(Arc::new(FlowArena::from_edges(num_nodes, edges)));
                self.nodes = num_nodes;
                self.edges.clear();
                self.edges
                    .extend(edges.iter().map(|&(from, to, _)| (from, to)));
                true
            }
        }
    }

    /// The prepared arena.
    ///
    /// # Panics
    ///
    /// Panics if [`CachedArena::prepare`] was never called.
    fn arena(&self) -> &Arc<FlowArena> {
        self.arena.as_ref().expect("arena prepared before use")
    }
}

/// `min_k maxflow(source → sinks_k)` on `arena` at fan-out `threads` (`0` = the
/// [`suggested_flow_threads`] heuristic): on the shared worker pool above one lane, the
/// submitter's share running on `solver`, and sequentially on `solver` otherwise. The
/// value is bit-identical either way.
fn min_max_flow_at(
    solver: &mut FlowSolver,
    arena: &Arc<FlowArena>,
    source: NodeId,
    sinks: &[NodeId],
    threads: usize,
) -> f64 {
    let threads = match threads {
        0 => suggested_flow_threads(arena.num_nodes(), sinks.len()),
        explicit => explicit,
    };
    if threads > 1 {
        // The pool borrows the arena Arc for the call; every worker clone is dropped
        // before the call returns, so the retained arena stays uniquely owned (in-place
        // patches keep working without a copy).
        FlowPool::global().min_max_flow_with(solver, arena, source, sinks, threads)
    } else {
        solver.min_max_flow(arena, source, sinks)
    }
}

/// Certifies that `scheme` delivers at least `claimed` by max-flow through `ctx` and
/// returns the measured throughput — the shared flow-certification stage of the
/// experiment sweeps (Figure 7 worst cells, Figure 19 spot checks, depth profiling).
///
/// # Panics
///
/// Panics when the scheme under-delivers beyond a `1e-6` relative tolerance: an
/// under-delivering scheme is a solver bug, not a data point.
pub fn certify_throughput(ctx: &mut EvalCtx, scheme: &BroadcastScheme, claimed: f64) -> f64 {
    let achieved = ctx.throughput(scheme);
    assert!(
        achieved + 1e-6 * claimed.max(1.0) >= claimed,
        "certification failed: scheme delivers {achieved} < claimed {claimed}"
    );
    achieved
}

/// A broadcast scheduling algorithm with a uniform entry point.
///
/// Implementations must be stateless (configuration lives in the struct, scratch state
/// in the [`EvalCtx`]), so one boxed instance can serve any number of solves.
pub trait Solver: Send + Sync {
    /// Registry name (`--algorithm` value), kebab-case.
    fn name(&self) -> &'static str;

    /// One-line human description (paper reference, supported instance classes).
    fn describe(&self) -> &'static str;

    /// Solves `instance`, evaluating flows through `ctx`.
    ///
    /// # Errors
    ///
    /// [`CoreError::GuardedNodesNotSupported`] or [`CoreError::Unsupported`] when the
    /// algorithm cannot handle the instance; [`CoreError::VerificationFailed`] when the
    /// constructed scheme fails its own max-flow verification.
    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError>;
}

/// Timing/verification scaffolding shared by every [`Solver`] implementation —
/// including out-of-crate adapters such as the `bmp-trees` tree-decomposition solver.
///
/// Snapshot the context's counters with [`SolveRecorder::start`], run the algorithm,
/// then let [`SolveRecorder::finish`] verify the claimed throughput by max-flow and
/// assemble the [`Solution`] with the counter deltas as [`Telemetry`].
#[derive(Debug, Clone, Copy)]
pub struct SolveRecorder {
    started: Instant,
    flow_solves: u64,
    bisection_iters: u64,
    rescans_skipped: u64,
    edges_patched: u64,
}

impl SolveRecorder {
    /// Snapshots `ctx`'s counters and the wall clock at the start of a solve.
    #[must_use]
    pub fn start(ctx: &EvalCtx) -> Self {
        SolveRecorder {
            started: Instant::now(),
            flow_solves: ctx.flow_solves,
            bisection_iters: ctx.bisection_iters,
            rescans_skipped: ctx.rescans_skipped,
            edges_patched: ctx.edges_patched,
        }
    }

    /// The [`Telemetry`] accumulated through `ctx` since [`SolveRecorder::start`]: the
    /// counter deltas plus the elapsed wall clock. Used by [`SolveRecorder::finish`] and
    /// available directly for instrumented evaluation runs that are not a full solve
    /// (e.g. the churn degradation probes and the conformance suite).
    #[must_use]
    pub fn telemetry(&self, ctx: &EvalCtx) -> Telemetry {
        Telemetry {
            flow_solves: ctx.flow_solves - self.flow_solves,
            bisection_iters: ctx.bisection_iters - self.bisection_iters,
            rescans_skipped: ctx.rescans_skipped - self.rescans_skipped,
            edges_patched: ctx.edges_patched - self.edges_patched,
            wall_time: self.started.elapsed(),
        }
    }

    /// Verifies the claimed throughput by max-flow through `ctx` and assembles the
    /// [`Solution`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VerificationFailed`] when the scheme's measured throughput
    /// falls short of `throughput` beyond the shared verification tolerance, or
    /// [`CoreError::InjectedFault`] when the context's fault script fails this solve.
    pub fn finish(
        self,
        algorithm: &'static str,
        ctx: &mut EvalCtx,
        throughput: f64,
        word: Option<CodingWord>,
        scheme: BroadcastScheme,
    ) -> Result<Solution, CoreError> {
        if let Some(occurrence) = ctx.intercept_fault(FaultSite::Solve) {
            return Err(CoreError::InjectedFault {
                site: FaultSite::Solve.label(),
                occurrence,
            });
        }
        let achieved = ctx.throughput(&scheme);
        let verify_fault = ctx.intercept_fault(FaultSite::Verify).is_some();
        if verify_fault || achieved + VERIFY_TOL * throughput.max(1.0) < throughput {
            return Err(CoreError::VerificationFailed {
                algorithm,
                claimed: throughput,
                achieved: if verify_fault { 0.0 } else { achieved },
            });
        }
        let telemetry = self.telemetry(ctx);
        Ok(Solution {
            algorithm,
            throughput,
            verified_throughput: achieved,
            word,
            scheme,
            telemetry,
        })
    }
}

/// Theorem 4.1: dichotomic search over Algorithm 2 plus the low-degree construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcyclicGuardedAlgorithm;

impl Solver for AcyclicGuardedAlgorithm {
    fn name(&self) -> &'static str {
        "acyclic-guarded"
    }

    fn describe(&self) -> &'static str {
        "optimal acyclic throughput by dichotomic search over GreedyTest, low-degree scheme of Lemma 4.6 (Theorem 4.1); any instance"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let recorder = SolveRecorder::start(ctx);
        let legacy = AcyclicGuardedSolver::with_tolerance(ctx.tolerance());
        let hint = ctx.take_warm_start_lower().unwrap_or(0.0);
        let (throughput, word, probes) = legacy.optimal_throughput_traced_from(hint, instance);
        ctx.add_bisection_iters(probes);
        let scheme = if throughput <= 0.0 {
            BroadcastScheme::new(instance.clone())
        } else {
            legacy.scheme_for_word(instance, throughput, &word)?
        };
        recorder.finish(self.name(), ctx, throughput, Some(word), scheme)
    }
}

/// Algorithm 1: closed-form optimal acyclic broadcast for open-only instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcyclicOpenAlgorithm;

impl Solver for AcyclicOpenAlgorithm {
    fn name(&self) -> &'static str {
        "acyclic-open"
    }

    fn describe(&self) -> &'static str {
        "Algorithm 1: optimal acyclic broadcast at min(b0, S_{n-1}/n) (Section III-B); open-only instances"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let recorder = SolveRecorder::start(ctx);
        let (scheme, throughput) = acyclic_open_optimal_scheme(instance)?;
        let word = CodingWord::from_symbols(vec![Symbol::Open; instance.n()]);
        recorder.finish(self.name(), ctx, throughput, Some(word), scheme)
    }
}

/// Theorem 5.2: cyclic construction for open-only instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct CyclicOpenAlgorithm;

impl Solver for CyclicOpenAlgorithm {
    fn name(&self) -> &'static str {
        "cyclic-open"
    }

    fn describe(&self) -> &'static str {
        "optimal cyclic broadcast at min(b0, (b0+O)/n) with local re-routings (Theorem 5.2); open-only instances"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let recorder = SolveRecorder::start(ctx);
        let (scheme, throughput) = cyclic_open_optimal_scheme(instance)?;
        recorder.finish(self.name(), ctx, throughput, None, scheme)
    }
}

/// Ground-truth oracle: enumeration of every increasing order (coding word).
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveAlgorithm {
    /// Refuse instances with more receivers than this (the enumeration is `C(n+m, m)`
    /// words; 20 letters is ~184k words at worst).
    pub max_letters: usize,
}

impl Default for ExhaustiveAlgorithm {
    fn default() -> Self {
        ExhaustiveAlgorithm { max_letters: 20 }
    }
}

impl Solver for ExhaustiveAlgorithm {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn describe(&self) -> &'static str {
        "ground-truth optimal acyclic throughput by enumerating every increasing order (Lemma 4.2); small instances only"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let letters = instance.n() + instance.m();
        if letters > self.max_letters {
            return Err(CoreError::Unsupported {
                algorithm: self.name(),
                reason: format!(
                    "{letters} receivers exceed the enumeration cap of {} letters",
                    self.max_letters
                ),
            });
        }
        let recorder = SolveRecorder::start(ctx);
        let (throughput, word, probes) =
            optimal_acyclic_exhaustive_traced(instance, ctx.tolerance());
        ctx.add_bisection_iters(probes);
        let scheme = if throughput <= 0.0 {
            BroadcastScheme::new(instance.clone())
        } else {
            AcyclicGuardedSolver::with_tolerance(ctx.tolerance())
                .scheme_for_word(instance, throughput, &word)?
        };
        recorder.finish(self.name(), ctx, throughput, Some(word), scheme)
    }
}

/// The better of the two regular interleaving words `ω1`/`ω2` of Theorem 6.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct OmegaWordAlgorithm;

impl Solver for OmegaWordAlgorithm {
    fn name(&self) -> &'static str {
        "omega-word"
    }

    fn describe(&self) -> &'static str {
        "best regular interleaving word omega1/omega2 (Theorem 6.2 heuristic, >= 5/7 of the cyclic optimum); any instance"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let recorder = SolveRecorder::start(ctx);
        let upper = cyclic_upper_bound(instance);
        let search = ctx.search();
        let mut best = (f64::NEG_INFINITY, CodingWord::empty());
        // Same selection rule as `omega::best_omega_throughput` (ω1 wins ties), with the
        // probes of both searches accounted.
        for word in [
            omega2(instance.n(), instance.m()),
            omega1(instance.n(), instance.m()),
        ] {
            let outcome = search.maximize(upper, |t| is_valid_word(instance, t, &word));
            ctx.add_bisection_iters(outcome.probes);
            if outcome.value >= best.0 {
                best = (outcome.value, word);
            }
        }
        let (throughput, word) = best;
        let scheme = if throughput <= 0.0 {
            BroadcastScheme::new(instance.clone())
        } else {
            AcyclicGuardedSolver::with_tolerance(ctx.tolerance())
                .scheme_for_word(instance, throughput, &word)?
        };
        recorder.finish(self.name(), ctx, throughput, Some(word), scheme)
    }
}

/// Instance-driven dispatch: the cyclic construction when it applies, Theorem 4.1
/// otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoAlgorithm;

impl Solver for AutoAlgorithm {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn describe(&self) -> &'static str {
        "cyclic-open on open-only instances (cyclic >= acyclic there), acyclic-guarded otherwise; the returned label names the algorithm that ran"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        if instance.has_guarded() {
            AcyclicGuardedAlgorithm.solve(instance, ctx)
        } else {
            CyclicOpenAlgorithm.solve(instance, ctx)
        }
    }
}

/// Every solver implemented by this crate, in presentation order.
///
/// Downstream crates append their own [`Solver`] implementations (e.g. the
/// tree-decomposition adapter of `bmp-trees`) before dispatching by name.
#[must_use]
pub fn registry() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(AcyclicGuardedAlgorithm),
        Box::new(AcyclicOpenAlgorithm),
        Box::new(CyclicOpenAlgorithm),
        Box::new(ExhaustiveAlgorithm::default()),
        Box::new(OmegaWordAlgorithm),
        Box::new(AutoAlgorithm),
    ]
}

/// Looks a core solver up by registry name.
#[must_use]
pub fn find(name: &str) -> Option<Box<dyn Solver>> {
    registry().into_iter().find(|solver| solver.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_platform::paper::figure1;

    #[test]
    fn registry_names_are_unique_and_described() {
        let solvers = registry();
        assert!(solvers.len() >= 5);
        let mut names: Vec<&str> = solvers.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), solvers.len(), "duplicate registry names");
        for solver in &solvers {
            assert!(!solver.describe().is_empty());
        }
    }

    #[test]
    fn find_resolves_known_names_only() {
        assert!(find("acyclic-guarded").is_some());
        assert!(find("cyclic-open").is_some());
        assert!(find("no-such-solver").is_none());
    }

    #[test]
    fn acyclic_guarded_matches_legacy_entry_point() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let legacy = AcyclicGuardedSolver::default().solve(&instance);
        assert!((solution.throughput - legacy.throughput).abs() < 1e-9);
        assert_eq!(solution.word.as_ref().unwrap(), &legacy.word);
        assert_eq!(solution.scheme, legacy.scheme);
        assert!(solution.telemetry.bisection_iters > 0);
        assert!(solution.telemetry.flow_solves > 0);
    }

    #[test]
    fn auto_picks_the_instance_appropriate_algorithm() {
        let mut ctx = EvalCtx::new();
        let guarded = AutoAlgorithm.solve(&figure1(), &mut ctx).unwrap();
        assert_eq!(guarded.algorithm, "acyclic-guarded");
        let open = Instance::open_only(10.0, vec![4.0, 4.0, 1.0]).unwrap();
        let open_solution = AutoAlgorithm.solve(&open, &mut ctx).unwrap();
        assert_eq!(open_solution.algorithm, "cyclic-open");
        // On this instance the cyclic optimum strictly beats the acyclic one.
        assert!(open_solution.throughput > guarded.throughput);
    }

    #[test]
    fn exhaustive_refuses_oversized_instances() {
        let big = Instance::open_only(5.0, vec![1.0; 30]).unwrap();
        let err = ExhaustiveAlgorithm::default()
            .solve(&big, &mut EvalCtx::new())
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }));
    }

    #[test]
    fn eval_ctx_patches_journaled_rates_without_rescans() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut scheme = solution.scheme;
        // The solve's own verification built the arena for this scheme object; every
        // following evaluation of the same object with an unchanged edge set — including
        // one with perturbed rates — must consume the journal: no rebuild, no bulk
        // rewrite, no rescan of the stored rates.
        let builds_before = ctx.arena_builds();
        let updates_before = ctx.arena_updates();
        let skips_before = ctx.rescans_skipped();
        let t1 = ctx.throughput(&scheme);
        let (from, to, rate) = scheme.edges()[0];
        scheme.set_rate(from, to, rate * 0.5);
        let t2 = ctx.throughput(&scheme);
        assert_eq!(ctx.arena_builds(), builds_before);
        assert_eq!(ctx.arena_updates(), updates_before);
        assert_eq!(ctx.rescans_skipped(), skips_before + 2);
        assert_eq!(ctx.edges_patched(), 1);
        assert!(t2 <= t1 + 1e-12);
        // And the journaled result matches a from-scratch evaluation.
        assert_eq!(t2, EvalCtx::new().throughput(&scheme));
    }

    #[test]
    fn scan_fallback_matches_the_journaled_path() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut scheme = solution.scheme;
        let (from, to, rate) = scheme.edges()[0];
        scheme.set_rate(from, to, rate * 0.5);
        let journaled = ctx.throughput(&scheme);
        assert!(ctx.rescans_skipped() > 0);
        // A fresh context has no journal association, so it walks the stored rates.
        let mut fresh = EvalCtx::new();
        assert_eq!(fresh.throughput(&scheme), journaled);
        assert_eq!(fresh.rescans_skipped(), 0);
        // A clone is a new scheme object with the same edge set: the context falls back
        // to the endpoint-comparison rewrite of the cached arena, not the journal.
        let copy = scheme.clone();
        let updates_before = ctx.arena_updates();
        let skips_before = ctx.rescans_skipped();
        assert_eq!(ctx.throughput(&copy), journaled);
        assert_eq!(ctx.arena_updates(), updates_before + 1);
        assert_eq!(ctx.rescans_skipped(), skips_before);
    }

    #[test]
    fn journal_association_is_per_object_and_survives_divergence() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut a = solution.scheme;
        let _ = ctx.throughput(&a);
        // A clone is a new identity: evaluating it must not consume A's association...
        let mut b = a.clone();
        let (from, to, rate) = a.edges()[0];
        b.set_rate(from, to, rate * 0.25);
        let skips_before = ctx.rescans_skipped();
        let tb = ctx.throughput(&b);
        assert_eq!(ctx.rescans_skipped(), skips_before);
        assert_eq!(tb, EvalCtx::new().throughput(&b));
        // ...and evaluating A afterwards must not reuse B's capacities either.
        a.set_rate(from, to, rate * 0.75);
        let ta = ctx.throughput(&a);
        assert_eq!(ta, EvalCtx::new().throughput(&a));
        // An edge-set change on A (edge removed) falls back to a rebuild, still exact.
        a.set_rate(from, to, 0.0);
        let ta2 = ctx.throughput(&a);
        assert_eq!(ta2, EvalCtx::new().throughput(&a));
    }

    #[test]
    fn interleaved_explicit_edge_evaluations_keep_the_scheme_association() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut scheme = solution.scheme;
        let _ = ctx.throughput(&scheme);
        // Explicit-edge evaluations (the churn residual access pattern) run on their own
        // retained arena: interleaving them must neither invalidate the scheme arena's
        // journal association nor rebuild anything on repetition.
        let survivors: Vec<usize> = instance.receivers().collect();
        let filtered = |edges: &mut Vec<(usize, usize, f64)>, scheme: &BroadcastScheme| {
            edges.extend(scheme.edges().into_iter().take(3));
        };
        let first = ctx.min_max_flow_with(instance.num_nodes(), 0, &survivors, |edges| {
            filtered(edges, &scheme)
        });
        let builds_after_first = ctx.arena_builds();
        let skips_before = ctx.rescans_skipped();
        for round in 1..=3 {
            // The scheme re-probe rides the journal even though a residual evaluation
            // ran in between…
            let (from, to, rate) = scheme.edges()[0];
            scheme.set_rate(from, to, rate * (1.0 - 0.1 * round as f64));
            let journaled = ctx.throughput(&scheme);
            assert_eq!(journaled, EvalCtx::new().throughput(&scheme));
            // …and the repeated residual evaluation reuses the explicit arena in place.
            let residual = ctx.min_max_flow_with(instance.num_nodes(), 0, &survivors, |edges| {
                filtered(edges, &scheme)
            });
            assert_eq!(residual, first);
        }
        assert_eq!(ctx.arena_builds(), builds_after_first);
        assert_eq!(ctx.rescans_skipped(), skips_before + 3);
    }

    #[test]
    fn explicit_edge_evaluation_is_pool_parallel_and_bit_identical() {
        let instance = figure1();
        let solution = AcyclicGuardedAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        let edges = solution.scheme.edges();
        let sinks: Vec<usize> = instance.receivers().collect();
        let mut seq = EvalCtx::new();
        let expected = seq.min_max_flow(instance.num_nodes(), &edges, 0, &sinks);
        for threads in [0usize, 2, 4, 64] {
            let mut par = EvalCtx::new();
            par.set_parallelism(threads);
            assert_eq!(
                par.min_max_flow(instance.num_nodes(), &edges, 0, &sinks),
                expected,
                "threads {threads}"
            );
            assert_eq!(par.flow_solves(), seq.flow_solves());
        }
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_including_counters() {
        let instance = figure1();
        let solution = AcyclicGuardedAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        let mut scheme = solution.scheme;
        // Two fresh contexts run the same evaluation sequence — nominal, then two
        // journaled perturbations — one sequential, one through the worker pool.
        let mut seq = EvalCtx::new();
        let mut par = EvalCtx::new();
        par.set_parallelism(4);
        assert_eq!(par.parallelism(), 4);
        for round in 0..3 {
            if round > 0 {
                let (from, to, rate) = scheme.edges()[round % scheme.edges().len()];
                scheme.set_rate(from, to, rate * 0.75);
            }
            assert_eq!(par.throughput(&scheme), seq.throughput(&scheme));
        }
        // The fan-out changes wall time only: every counter matches bit-for-bit.
        assert_eq!(par.flow_solves(), seq.flow_solves());
        assert_eq!(par.rescans_skipped(), seq.rescans_skipped());
        assert_eq!(par.edges_patched(), seq.edges_patched());
        assert_eq!(par.arena_builds(), seq.arena_builds());
        assert_eq!(par.arena_updates(), seq.arena_updates());
        // Other fan-outs agree too, including the auto heuristic (sequential at this
        // size) and an explicit fan-out wider than the receiver count.
        let expected = seq.throughput(&scheme);
        for threads in [0usize, 2, 64, 3] {
            par.set_parallelism(threads);
            assert_eq!(par.throughput(&scheme), expected, "threads {threads}");
        }
    }

    #[test]
    fn pooled_evaluation_keeps_the_retained_arena_patchable() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        ctx.set_parallelism(4);
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut scheme = solution.scheme;
        let _ = ctx.throughput(&scheme);
        let builds_before = ctx.arena_builds();
        let skips_before = ctx.rescans_skipped();
        // After a pooled evaluation every worker has dropped its arena reference, so
        // the journal fast path keeps patching the retained arena in place: no rebuild
        // even though the arena was shared with the pool moments ago.
        for step in 1..=3 {
            let (from, to, rate) = scheme.edges()[0];
            scheme.set_rate(from, to, rate * (1.0 - 0.1 * f64::from(step)));
            let pooled = ctx.throughput(&scheme);
            assert_eq!(pooled, EvalCtx::new().throughput(&scheme));
        }
        assert_eq!(ctx.arena_builds(), builds_before);
        assert_eq!(ctx.rescans_skipped(), skips_before + 3);
    }

    #[test]
    fn cached_arena_rewrites_in_place_until_the_edge_set_changes() {
        let mut cache = CachedArena::default();
        let edges = [(0, 1, 2.0), (1, 2, 1.0)];
        assert!(cache.prepare(3, &edges), "the first preparation builds");
        // Same endpoints, new capacities: rewritten in place, equal to a rebuild.
        let moved = [(0, 1, 0.5), (1, 2, 3.0)];
        assert!(!cache.prepare(3, &moved));
        assert_eq!(**cache.arena(), FlowArena::from_edges(3, &moved));
        // A different edge set, or a different node count, rebuilds.
        assert!(cache.prepare(3, &[(0, 2, 1.0), (1, 2, 3.0)]));
        assert!(cache.prepare(4, &[(0, 2, 1.0), (1, 2, 3.0)]));
        assert_eq!(cache.arena().num_nodes(), 4);
    }

    #[test]
    fn eval_ctx_max_flow_matches_scheme_method() {
        let instance = figure1();
        let solution = AcyclicGuardedAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        let mut ctx = EvalCtx::new();
        for receiver in instance.receivers() {
            assert_eq!(
                ctx.max_flow_to(&solution.scheme, receiver),
                FlowSolver::new().max_flow(&solution.scheme.to_flow_arena(), 0, receiver)
            );
        }
    }
}
