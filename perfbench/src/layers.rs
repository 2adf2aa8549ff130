//! Calls into single layers shared by the workloads: the flow and certification replays
//! on a solved overlay, the core counters, session stepping, and the replay of a
//! controller's first decision.

use crate::run::Run;
use crate::stats::{mean, median, quantile, ratio, Metrics};
use crate::trace::Tracer;
use bmp_core::churn::{degradation_tolerance, repair_with, residual_throughput_with};
use bmp_core::solver::{certify_throughput, AcyclicGuardedAlgorithm};
use bmp_core::{BroadcastScheme, EvalCtx};
use bmp_flow::{FlowArena, FlowPool, FlowSolver};
use bmp_sim::{AdaptiveRun, ControllerDecision, RepairController};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Receivers per overlay timed by `flow.max_flow`.
const MAX_FLOW_SAMPLE: usize = 8;

/// The fleet snapshots every session this many rounds; the session replays checkpoint
/// at the same cadence.
pub const CHECKPOINT_ROUNDS: usize = 16;

/// Work counters of the evaluation contexts behind one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounts {
    pub flow_solves: u64,
    pub bisection_iters: u64,
    pub rescans_skipped: u64,
    pub edges_patched: u64,
    pub arena_builds: u64,
    pub arena_updates: u64,
    pub flows_warm_started: u64,
    pub probes_speculated: u64,
    pub probes_wasted: u64,
}

impl CoreCounts {
    pub fn add_ctx(&mut self, ctx: &EvalCtx) {
        self.flow_solves += ctx.flow_solves();
        self.bisection_iters += ctx.bisection_iters();
        self.rescans_skipped += ctx.rescans_skipped();
        self.edges_patched += ctx.edges_patched();
        self.arena_builds += ctx.arena_builds();
        self.arena_updates += ctx.arena_updates();
        self.flows_warm_started += ctx.flows_warm_started();
        self.probes_speculated += ctx.probes_speculated();
        self.probes_wasted += ctx.probes_wasted();
    }

    /// Adds the per-op means over `ops` operations and the useful-to-attempted ratios.
    pub fn report(&self, ops: usize, layer: &mut Metrics) {
        let per_op = |count: u64| ratio(count as f64, ops as f64);
        let counts = [
            ("core.flow_solves", self.flow_solves),
            ("core.bisection_iters", self.bisection_iters),
            ("core.rescans_skipped", self.rescans_skipped),
            ("core.edges_patched", self.edges_patched),
            ("core.arena_builds", self.arena_builds),
            ("core.arena_updates", self.arena_updates),
            ("core.flows_warm_started", self.flows_warm_started),
            ("core.probes_speculated", self.probes_speculated),
            ("core.probes_wasted", self.probes_wasted),
        ];
        for (name, count) in counts {
            layer.add(name, "count", per_op(count), ops);
        }
        layer.add(
            "core.flows_per_probe",
            "ratio",
            ratio(self.flow_solves as f64, self.bisection_iters as f64),
            ops,
        );
        layer.add(
            "core.arena_reuse_ratio",
            "ratio",
            ratio(
                self.arena_updates as f64,
                (self.arena_builds + self.arena_updates) as f64,
            ),
            ops,
        );
        layer.add(
            "core.warm_hit_ratio",
            "ratio",
            ratio(self.flows_warm_started as f64, self.flow_solves as f64),
            ops,
        );
        layer.add(
            "core.speculation_waste_ratio",
            "ratio",
            ratio(self.probes_wasted as f64, self.probes_speculated as f64),
            ops,
        );
    }
}

/// Times the flow layer on `scheme` with fresh objects: one arena build, max-flows to a
/// seeded sample of receivers, and the multi-sink minimum over every receiver, whose
/// value is returned.
pub fn flow_replay(tracer: &mut Tracer, scheme: &BroadcastScheme, sample_seed: u64) -> f64 {
    let instance = scheme.instance();
    let edges = scheme.edges();
    let arena = tracer.time("flow.arena_build", || {
        FlowArena::from_edges(instance.num_nodes(), &edges)
    });
    let receivers: Vec<usize> = instance.receivers().collect();
    let mut solver = FlowSolver::with_capacity(arena.num_nodes(), arena.num_edges());
    let mut sample = receivers.clone();
    sample.shuffle(&mut StdRng::seed_from_u64(sample_seed));
    for &sink in sample.iter().take(MAX_FLOW_SAMPLE) {
        std::hint::black_box(tracer.time("flow.max_flow", || solver.max_flow(&arena, 0, sink)));
    }
    let mut solver = FlowSolver::with_capacity(arena.num_nodes(), arena.num_edges());
    tracer.time("flow.certify", || {
        solver.min_max_flow(&arena, 0, &receivers)
    })
}

/// Times `certify_throughput` of `scheme` at `claimed` on a fresh context; `None` when
/// the certification panics (the scheme under-delivers).
pub fn certify_replay(tracer: &mut Tracer, scheme: &BroadcastScheme, claimed: f64) -> Option<f64> {
    let mut ctx = EvalCtx::with_tolerance(crate::SOLVE_TOLERANCE);
    tracer.time("core.certify", || {
        catch_unwind(AssertUnwindSafe(|| {
            certify_throughput(&mut ctx, scheme, claimed)
        }))
        .ok()
    })
}

/// Step latencies and checkpoint costs of stepped sessions.
#[derive(Debug, Default)]
pub struct StepLog {
    /// Latency of steps during which the controller logged a decision.
    pub decision_ms: Vec<f64>,
    /// Latency of the other steps.
    pub round_ms: Vec<f64>,
    pub checkpoint_us: Vec<f64>,
    pub checkpoint_bytes: Vec<f64>,
}

/// Steps `run` to completion under `controller` and returns the stepping time in
/// seconds. With `checkpoints`, the run is also checkpointed every
/// [`CHECKPOINT_ROUNDS`] rounds; that time is logged apart and not returned. Only the
/// first checkpoint is serialized for its size: a snapshot's size barely changes along
/// a run, and serializing all of them would dominate the replay.
pub fn step_to_end(
    tracer: &mut Tracer,
    run: &mut AdaptiveRun,
    controller: &mut RepairController,
    log: &mut StepLog,
    checkpoints: bool,
) -> f64 {
    let mut total = 0.0;
    let mut sized = false;
    loop {
        let decisions = controller.decisions().len();
        let span = tracer.open("sim.step");
        let start = Instant::now();
        let finished = run.step(controller);
        let seconds = start.elapsed().as_secs_f64();
        let decided = controller.decisions().len() > decisions;
        tracer.close_as(
            span,
            if decided {
                "sim.decision_step"
            } else {
                "sim.step"
            },
        );
        total += seconds;
        if decided {
            log.decision_ms.push(seconds * 1e3);
        } else {
            log.round_ms.push(seconds * 1e3);
        }
        if finished {
            return total;
        }
        if checkpoints && run.session().rounds_run().is_multiple_of(CHECKPOINT_ROUNDS) {
            let span = tracer.open("sim.checkpoint");
            let start = Instant::now();
            let checkpoint = run.checkpoint(Some(controller));
            log.checkpoint_us.push(start.elapsed().as_secs_f64() * 1e6);
            tracer.close(span);
            if !sized {
                sized = true;
                let bytes = serde_json::to_string(&checkpoint).expect("checkpoint serializes");
                log.checkpoint_bytes.push(bytes.len() as f64);
            }
        }
    }
}

/// Replays a controller's first decision from its inputs, each call on a fresh context
/// like the controller's own: the victim's degradation tolerance, the residual
/// throughput of the nominal overlay, and the re-solve warm-started from that residual.
/// Returns why the replay disagrees with the logged decision, if it does.
pub fn replay_first_decision(
    tracer: &mut Tracer,
    scheme: &BroadcastScheme,
    nominal: f64,
    floor_fraction: f64,
    flow_threads: usize,
    decision: &ControllerDecision,
) -> Result<(), String> {
    let fresh = || {
        let mut ctx = EvalCtx::new();
        ctx.set_parallelism(flow_threads);
        ctx
    };
    let floor = floor_fraction * nominal;
    if let (Some(&victim), false) = (decision.departed.first(), decision.probe_timed_out) {
        let mut ctx = fresh();
        let tolerance = tracer.time("core.tolerance", || {
            degradation_tolerance(scheme, victim, floor, &mut ctx)
        });
        if tolerance.to_bits() != decision.victim_tolerance.to_bits() {
            return Err(format!(
                "tolerance replay {tolerance} != logged {}",
                decision.victim_tolerance
            ));
        }
    }
    let mut ctx = fresh();
    let residual = tracer.time("core.residual", || {
        residual_throughput_with(scheme, &decision.departed, &mut ctx)
    });
    if residual.to_bits() != decision.residual.to_bits() {
        return Err(format!(
            "residual replay {residual} != logged {}",
            decision.residual
        ));
    }
    let mut ctx = fresh();
    ctx.set_warm_start_lower((residual > 0.0).then_some(residual));
    let plan = tracer.time("core.resolve", || {
        repair_with(
            scheme.instance(),
            &decision.departed,
            &AcyclicGuardedAlgorithm,
            &mut ctx,
        )
    });
    if let (Some(logged), Some("acyclic-guarded")) = (decision.repaired, decision.solver.as_deref())
    {
        match plan {
            Ok(Some(plan)) if plan.throughput.to_bits() == logged.to_bits() => {}
            other => return Err(format!("re-solve replay {other:?} != logged {logged}")),
        }
    }
    Ok(())
}

/// Adds, for each `(metric, span, unit, scale)`, the median duration of the spans named
/// `span`, in milliseconds times `scale`.
fn add_span_medians(run: &mut Run, entries: &[(&'static str, &str, &'static str, f64)]) {
    for &(metric, span, unit, scale) in entries {
        let durations = run.tracer.durations_ms(span);
        run.layer
            .add(metric, unit, median(&durations) * scale, durations.len());
    }
}

/// Adds the flow and core metrics every workload reports from its traced run.
pub fn report_common_layers(run: &mut Run, ops: usize, counts: &CoreCounts, solve_self_ms: &[f64]) {
    add_span_medians(
        run,
        &[
            ("platform.generate_ms", "platform.generate", "ms", 1.0),
            ("flow.arena_build_ms", "flow.arena_build", "ms", 1.0),
            ("flow.max_flow_us", "flow.max_flow", "us", 1e3),
            ("flow.certify_ms", "flow.certify", "ms", 1.0),
        ],
    );
    let pool = FlowPool::global();
    for (name, count) in [
        ("flow.pool_workers", pool.spawned_workers() as u64),
        ("flow.pool_tickets_reclaimed", pool.tickets_reclaimed()),
        (
            "flow.pool_speculation_cancelled",
            pool.speculation_cancelled(),
        ),
        ("flow.pool_panics_contained", pool.panics_contained()),
    ] {
        run.layer.add(name, "count", count as f64, 1);
    }
    add_span_medians(
        run,
        &[
            ("core.solve_ms", "core.solve", "ms", 1.0),
            ("core.certify_ms", "core.certify", "ms", 1.0),
        ],
    );
    run.layer.add(
        "core.search_self_ms",
        "ms",
        median(solve_self_ms),
        solve_self_ms.len(),
    );
    counts.report(ops, &mut run.layer);
}

/// Adds the session-layer metrics of the traced sessions in `log`, plus the replayed
/// first-decision timings.
pub fn report_session_layers(run: &mut Run, log: &StepLog, sessions: usize, swaps: usize) {
    add_span_medians(
        run,
        &[
            ("core.tolerance_ms", "core.tolerance", "ms", 1.0),
            ("core.residual_ms", "core.residual", "ms", 1.0),
            ("core.resolve_ms", "core.resolve", "ms", 1.0),
        ],
    );
    let layer = &mut run.layer;
    layer.add(
        "sim.round_us",
        "us",
        median(&log.round_ms) * 1e3,
        log.round_ms.len(),
    );
    let decision_total: f64 = log.decision_ms.iter().sum();
    let round_total: f64 = log.round_ms.iter().sum();
    let steps = log.decision_ms.len() + log.round_ms.len();
    layer.add(
        "sim.decision_share",
        "ratio",
        ratio(decision_total, decision_total + round_total),
        steps,
    );
    let per_session = |count: usize| ratio(count as f64, sessions as f64);
    layer.add("sim.rounds", "count", per_session(steps), sessions);
    layer.add(
        "sim.decisions",
        "count",
        per_session(log.decision_ms.len()),
        sessions,
    );
    layer.add("sim.swaps", "count", per_session(swaps), sessions);
    layer.add(
        "sim.checkpoint_us",
        "us",
        median(&log.checkpoint_us),
        log.checkpoint_us.len(),
    );
    layer.add(
        "sim.checkpoint_bytes",
        "bytes",
        mean(&log.checkpoint_bytes),
        log.checkpoint_bytes.len(),
    );
}

/// Adds `p50` and `p90` of `values` (milliseconds) under the given names.
pub fn add_latency(
    metrics: &mut Metrics,
    p50: &'static str,
    p90: Option<&'static str>,
    values: &[f64],
) {
    metrics.add(p50, "ms", median(values), values.len());
    if let Some(p90) = p90 {
        metrics.add(p90, "ms", quantile(values, 0.9), values.len());
    }
}
