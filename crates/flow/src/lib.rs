//! Flow-network substrate for the bounded multi-port broadcast reproduction.
//!
//! The throughput of a broadcast scheme is *defined* (Section II-D of the paper) as the
//! minimum over all receivers of the maximum flow from the source in the weighted digraph of
//! transfer rates. Every algorithm, oracle and benchmark in the workspace is scored through
//! that definition, which makes this crate the hottest layer of the codebase.
//!
//! # Architecture: CSR arena + reusable solver workspace
//!
//! The kernel (module [`csr`]) separates the *immutable* description of a network from the
//! *mutable* state of a solve:
//!
//! * [`csr::FlowArena`] — a flat compressed-sparse-row arc arena (`start`/`to`/`partner`/
//!   `base_cap` arrays plus precomputed per-node in-capacities), built once per network.
//!   Residual arcs of a node are contiguous, so the hot BFS/DFS loops scan linear memory
//!   instead of chasing `Vec<Vec<usize>>` pointers. When only the *capacities* of a fixed
//!   edge set change (the dichotomic search re-scoring near-identical schemes),
//!   [`csr::FlowArena::set_edge_capacities`] rewrites them in place — equivalent to a
//!   from-scratch rebuild, without the CSR construction or its allocations. When the
//!   caller knows exactly *which* edges moved (a dirty-edge journal on the probed
//!   scheme), [`csr::FlowArena::patch_edge_capacities`] writes only those capacities and
//!   resums only the affected in-capacities — still bit-for-bit equal to a rebuild.
//! * [`csr::FlowSolver`] — a Dinic workspace owning every buffer a solve mutates
//!   (residual capacities, levels, current-arc cursors, the BFS queue, the component
//!   scratch). Buffers are reused across calls: in steady state a solve performs **zero
//!   heap allocation**.
//! * [`csr::FlowSolver::min_max_flow`] — multi-sink evaluation of
//!   `min_k maxflow(source → k)` in two steps. *Settle:* when every node that relays flow
//!   is itself a sink, one Tarjan pass over the positive arcs finds the strongly
//!   connected components, and a sink that is a component of its own contributes its
//!   in-capacity, which is exact for the minimum (the sink side of a minimum rooted cut
//!   always holds a component with no positive in-arc from the rest of that side). An
//!   acyclic overlay, which is what the paper's open and guarded algorithms build, is
//!   settled completely, with no max-flow. *Solve:* the sinks in cyclic components get
//!   one Dinic each in ascending in-capacity order, capped at the running minimum and
//!   terminating early once the cap is reached (a sink whose flow reaches the running
//!   minimum cannot lower it).
//!
//! # The worker-pool layer
//!
//! The per-sink max-flows left after the settle step — those of sinks in cyclic
//! components — fan out across threads through one path, [`pool::FlowPool`]: a
//! persistent pool of long-lived workers, each owning a reusable [`csr::FlowSolver`]
//! that stays warm across evaluations. Workers are spawned lazily up
//! to the pool cap and fed sink batches through a channel; every evaluation shares its
//! running minimum through an atomic, and the submitting thread always works a share
//! itself. [`pool::FlowPool::global`] is the process-wide instance (capped at 8 workers,
//! the same ceiling as [`suggested_flow_threads`]) behind the parallel evaluation mode
//! of `bmp-core`'s `EvalCtx`, so the machine-wide flow-thread count stays bounded no
//! matter how many contexts request parallelism. Arenas travel to the workers as
//! `Arc<FlowArena>` clones that are dropped before the submitter is released — a
//! context that owns the only other reference keeps patching its retained arena in
//! place.
//!
//! [`suggested_flow_threads`] decides when fan-out pays at all: sequential below 512
//! nodes / 96 sinks, available parallelism capped at 8 above. The pool settles on the
//! submitting thread and sizes its lanes by the unsettled sinks, so an acyclic overlay
//! never reaches a worker. The pooled evaluation is bit-for-bit equal to the sequential
//! one.
//!
//! # Entry points
//!
//! * [`csr::FlowArena::from_edges`], [`csr::FlowArena::set_edge_capacities`] and
//!   [`csr::FlowArena::patch_edge_capacities`] — build an arena from an edge list, then
//!   rewrite or patch its capacities in place,
//! * [`csr::FlowSolver::max_flow`] and [`csr::FlowSolver::min_max_flow`] — Dinic's
//!   blocking-flow algorithm, the crate's only max-flow algorithm, for one sink, and the
//!   settled multi-sink minimum over many,
//! * [`pool::FlowPool::min_max_flow_with`] — the multi-sink minimum with its unsettled
//!   sinks fanned out over the worker pool,
//! * [`eps`] — tolerant floating-point comparisons shared by the whole workspace.
//!
//! Independent oracles (Edmonds–Karp, FIFO push-relabel, min-cut extraction) live in
//! this crate's integration tests, which check the Dinic path against them.
//!
//! All capacities are `f64`; comparisons use the tolerances of [`eps`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod eps;
pub mod pool;

pub use csr::{suggested_flow_threads, FlowArena, FlowSolver};
pub use pool::{arm_worker_panics, disarm_worker_panics, FlowPool, WorkerPanicGuard};
