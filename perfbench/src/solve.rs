//! `solve-n2000`: one client solving pre-generated n = 2000 PlanetLab-like instances,
//! 70% open, with the `acyclic-guarded` registry solver. Most of a solve is the
//! multi-sink max-flow certification over one freshly built arena, so this workload
//! moves with the flow kernel and certification and barely with the search.

use crate::layers::{certify_replay, flow_replay, report_common_layers, CoreCounts};
use crate::run::{closed_loop, setup, Run};
use crate::stats::{mean, Digest, DigestBook};
use bmp_core::bounds::five_sevenths;
use bmp_core::{Bounds, EvalCtx, Solution, Solver};
use bmp_platform::distribution::PlanetLabLike;
use bmp_platform::generator::GeneratorConfig;
use bmp_platform::{Instance, InstanceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const RECEIVERS: usize = 2000;
const OPEN_PROBABILITY: f64 = 0.7;
/// Distinct instances; ops cycle through them. A run averages over as many distinct
/// instances as it solves, so its mean cost varies little from seed to seed.
const INSTANCES: usize = 128;
/// Instances every phase solves at least, and over which the phase digest is taken.
const DIGEST_INSTANCES: usize = 16;
/// `Solution::verified_throughput` may differ from the claim by this share (the
/// solver's own verification tolerance).
const VERIFY_TOL: f64 = 1e-6;

/// What one phase of solves measured.
#[derive(Default)]
struct Phase {
    latency_ms: Vec<f64>,
    /// `verified / cyclic optimum` and degree excess per instance.
    ratio: Vec<Option<f64>>,
    excess: Vec<Option<i64>>,
    book: DigestBook,
}

impl Phase {
    fn new() -> Self {
        Phase {
            ratio: vec![None; INSTANCES],
            excess: vec![None; INSTANCES],
            ..Phase::default()
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.latency_ms.len() as f64 / (self.latency_ms.iter().sum::<f64>() / 1e3)
    }
}

/// One solve of `instances[item]`, checked. Returns the solution and the solve's
/// context when it passed.
fn solve_op(
    run: &mut Run,
    solver: &dyn Solver,
    instances: &[Instance],
    item: usize,
    phase: &mut Phase,
) -> Option<(Solution, EvalCtx)> {
    let instance = &instances[item];
    run.attempted += 1;
    run.tracer.set_op(run.attempted);
    let op = run.tracer.open("op");
    let mut ctx = EvalCtx::with_tolerance(crate::SOLVE_TOLERANCE);
    let start = Instant::now();
    let span = run.tracer.open("core.solve");
    let result = catch_unwind(AssertUnwindSafe(|| solver.solve(instance, &mut ctx)));
    run.tracer.close(span);
    let elapsed = start.elapsed();
    run.tracer.close(op);
    phase.latency_ms.push(elapsed.as_secs_f64() * 1e3);
    let solution = match result {
        Err(_) => {
            run.fail(format!("instance {item}: solve panicked"));
            return None;
        }
        Ok(Err(error)) => {
            run.fail(format!("instance {item}: solve failed: {error}"));
            return None;
        }
        Ok(Ok(solution)) => solution,
    };
    let claimed = solution.throughput;
    let verified = solution.verified_throughput;
    let optimum = Bounds::of(instance).cyclic_optimum;
    let ratio = verified / optimum;
    let excess = solution.scheme.max_degree_excess(claimed);
    let word = solution
        .word
        .as_ref()
        .map(ToString::to_string)
        .unwrap_or_default();
    let digest = Digest::new()
        .f64(claimed)
        .f64(verified)
        .text(&word)
        .u64(excess as u64)
        .value();
    if !phase.book.record(item, digest) {
        run.fail(format!(
            "instance {item}: solution differs from an earlier solve"
        ));
    } else if !solution.scheme.is_feasible() {
        run.fail(format!("instance {item}: scheme is infeasible"));
    } else if (verified - claimed).abs() > VERIFY_TOL * claimed.max(1.0) {
        run.fail(format!(
            "instance {item}: verified {verified} differs from claimed {claimed}"
        ));
    } else if ratio < five_sevenths() {
        run.fail(format!("instance {item}: T/T* = {ratio} is below 5/7"));
    } else {
        phase.ratio[item] = Some(ratio);
        phase.excess[item] = Some(excess);
        return Some((solution, ctx));
    }
    None
}

pub fn run(run: &mut Run) {
    let solver = bmp_core::solver::find("acyclic-guarded").expect("registered solver");
    let generator = InstanceGenerator::new(
        GeneratorConfig::new(RECEIVERS, OPEN_PROBABILITY).expect("valid generator config"),
        PlanetLabLike::new(),
    );
    let seed = run.stream(1);
    let mut warm_up = Phase::new();
    let (instances, setup_s) = setup(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        run.tracer.set_enabled(run.traced);
        let instances: Vec<Instance> = (0..INSTANCES)
            .map(|_| {
                run.tracer
                    .time("platform.generate", || generator.generate(&mut rng))
            })
            .collect();
        run.tracer.set_enabled(false);
        solve_op(run, solver.as_ref(), &instances, 0, &mut warm_up);
        instances
    });
    run.e2e
        .add("setup_s", "s", setup_s, crate::run::SETUP_REPEATS);

    let mut untraced = Phase::new();
    let seconds = run.phase_seconds();
    closed_loop(seconds, DIGEST_INSTANCES, |op| {
        solve_op(
            run,
            solver.as_ref(),
            &instances,
            op % INSTANCES,
            &mut untraced,
        );
    });
    run.digest("untraced", untraced.book.combined(DIGEST_INSTANCES));
    if warm_up.book.combined(1) != untraced.book.combined(1) {
        run.fail("instance 0: warm-up solve differs from the timed solve".to_string());
    }
    let ops_per_s = untraced.ops_per_s();
    let e2e = &mut run.e2e;
    e2e.add("ops_per_s", "1/s", ops_per_s, untraced.latency_ms.len());
    crate::layers::add_latency(
        e2e,
        "solve_p50_ms",
        Some("solve_p90_ms"),
        &untraced.latency_ms,
    );
    let ratios: Vec<f64> = untraced.ratio.iter().flatten().copied().collect();
    e2e.add("throughput_vs_opt", "ratio", mean(&ratios), ratios.len());
    let excess = untraced.excess.iter().flatten().copied().max().unwrap_or(0);
    e2e.add(
        "degree_excess_max",
        "count",
        excess as f64,
        untraced.excess.iter().flatten().count(),
    );
    if !run.traced {
        return;
    }

    // Traced phase: the same solves with spans, each followed by the flow and
    // certification replays on its overlay (outside the op's timing).
    let mut traced = Phase::new();
    let mut counts = CoreCounts::default();
    let mut search_self_ms = Vec::new();
    run.tracer.set_enabled(true);
    closed_loop(seconds, DIGEST_INSTANCES, |op| {
        let item = op % INSTANCES;
        let Some((solution, ctx)) = solve_op(run, solver.as_ref(), &instances, item, &mut traced)
        else {
            return;
        };
        counts.add_ctx(&ctx);
        let mut problems = Vec::new();
        let certified = flow_replay(&mut run.tracer, &solution.scheme, run.attempted);
        if certified.to_bits() != solution.verified_throughput.to_bits() {
            problems.push(format!(
                "flow.certify value {certified} != verified {}",
                solution.verified_throughput
            ));
        }
        let solve_ms = traced.latency_ms.last().copied().unwrap_or(0.0);
        let start = Instant::now();
        if certify_replay(&mut run.tracer, &solution.scheme, solution.throughput).is_none() {
            problems.push("certify_throughput rejected the scheme".to_string());
        }
        search_self_ms.push(solve_ms - start.elapsed().as_secs_f64() * 1e3);
        if !problems.is_empty() {
            run.fail(format!("instance {item}: {}", problems.join("; ")));
        }
    });
    run.digest("traced", traced.book.combined(DIGEST_INSTANCES));
    run.layer.add(
        "trace.overhead_share",
        "ratio",
        1.0 - traced.ops_per_s() / ops_per_s,
        traced.latency_ms.len(),
    );
    let ops = traced.latency_ms.len();
    report_common_layers(run, ops, &counts, &search_self_ms);
}
