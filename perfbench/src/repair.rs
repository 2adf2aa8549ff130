//! `repair-churn`: one client running n = 200 `unif100` sessions of 400 chunks, each
//! under a seeded storm of 30 depart/rejoin waves, with a `RepairController` at floor
//! 0.9. Nearly all of a session is repair decisions, and nearly all of a decision is
//! the dichotomic tolerance probe: thousands of small re-certifications of a
//! journal-patched arena. Incremental, speculation, journal and min-cut changes show
//! here.

use crate::layers::{
    add_latency, certify_replay, flow_replay, replay_first_decision, report_common_layers,
    report_session_layers, step_to_end, CoreCounts, StepLog,
};
use crate::run::{closed_loop, setup, Run};
use crate::stats::{mean, Digest, DigestBook};
use bmp_core::{Bounds, BroadcastScheme, EvalCtx, Solver};
use bmp_platform::distribution::UniformBandwidth;
use bmp_platform::generator::GeneratorConfig;
use bmp_platform::{Instance, InstanceGenerator};
use bmp_sim::{AdaptiveRun, ControllerDecision, FaultPlan, Overlay, RepairController, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const RECEIVERS: usize = 200;
const OPEN_PROBABILITY: f64 = 0.7;
const CHUNKS: usize = 400;
const FLOOR: f64 = 0.9;
const WAVES: usize = 30;
/// Chunks are scaled to two per round at the nominal rate, so a session lasts about
/// `CHUNKS / 2` rounds of 0.25 time units (50 units) whatever its throughput. The storm
/// starts at 5% of that and its waves are spaced so the last rejoin lands near 80%.
const STORM_START: f64 = 2.5;
const STORM_SPACING: f64 = 1.25;
/// Distinct sessions; ops cycle through them. A run averages over as many distinct
/// sessions as it runs, so its mean cost varies little from seed to seed.
const SESSIONS: usize = 256;
/// Sessions every phase runs at least, and over which the phase digest is taken.
const DIGEST_SESSIONS: usize = 4;

struct Spec {
    instance: Instance,
    sim_seed: u64,
    storm_seed: u64,
}

/// What one phase of sessions measured.
#[derive(Default)]
struct Phase {
    session_s: Vec<f64>,
    solve_ms: Vec<f64>,
    log: StepLog,
    goodput: Vec<f64>,
    ratio: Vec<Option<f64>>,
    excess: Vec<Option<i64>>,
    swaps: usize,
    counts: CoreCounts,
    book: DigestBook,
}

impl Phase {
    fn new() -> Self {
        Phase {
            ratio: vec![None; SESSIONS],
            excess: vec![None; SESSIONS],
            ..Phase::default()
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.session_s.len() as f64 / self.session_s.iter().sum::<f64>()
    }
}

/// A finished session's nominal overlay and first controller decision, for the replays.
struct Finished {
    scheme: BroadcastScheme,
    nominal: f64,
    verified: f64,
    first_decision: Option<ControllerDecision>,
}

/// One session of `specs[item]`, stepped to completion and checked.
fn session_op(
    run: &mut Run,
    solver: &dyn Solver,
    spec: &Spec,
    item: usize,
    phase: &mut Phase,
    checkpoints: bool,
) -> Option<Finished> {
    run.attempted += 1;
    run.tracer.set_op(run.attempted);
    let op = run.tracer.open("op");
    let mut ctx = EvalCtx::with_tolerance(crate::SOLVE_TOLERANCE);
    let start = Instant::now();
    let span = run.tracer.open("core.solve");
    let solved = catch_unwind(AssertUnwindSafe(|| solver.solve(&spec.instance, &mut ctx)));
    run.tracer.close(span);
    let solve_s = start.elapsed().as_secs_f64();
    let solution = match solved {
        Ok(Ok(solution)) => solution,
        Ok(Err(error)) => {
            run.tracer.close(op);
            run.fail(format!("session {item}: solve failed: {error}"));
            return None;
        }
        Err(_) => {
            run.tracer.close(op);
            run.fail(format!("session {item}: solve panicked"));
            return None;
        }
    };
    let start = Instant::now();
    let nominal = solution.throughput;
    let config = SimConfig {
        num_chunks: CHUNKS,
        seed: spec.sim_seed,
        ..SimConfig::default()
    }
    .scaled_to(nominal, 2.0);
    let churn = FaultPlan::storm(spec.storm_seed).churn_storm(
        spec.instance.num_nodes(),
        STORM_START,
        STORM_SPACING,
        WAVES,
    );
    let mut controller = RepairController::new(
        spec.instance.clone(),
        solution.scheme.clone(),
        nominal,
        FLOOR,
    );
    let mut session = AdaptiveRun::new(
        Overlay::from_scheme(&solution.scheme),
        config,
        churn,
        nominal,
    );
    let build_s = start.elapsed().as_secs_f64();
    let tracer = &mut run.tracer;
    let log = &mut phase.log;
    let stepped = catch_unwind(AssertUnwindSafe(|| {
        step_to_end(tracer, &mut session, &mut controller, log, checkpoints)
    }));
    run.tracer.close(op);
    let Ok(step_s) = stepped else {
        run.fail(format!("session {item}: stepping panicked"));
        return None;
    };
    phase.session_s.push(solve_s + build_s + step_s);
    phase.solve_ms.push(solve_s * 1e3);
    phase.counts.add_ctx(&ctx);
    phase.counts.add_ctx(controller.ctx());

    let outcome = session.outcome(&controller);
    phase.swaps += outcome.swaps.iter().filter(|swap| swap.swapped).count();
    let decisions = controller.decisions();
    let mut digest = Digest::new();
    digest
        .f64(nominal)
        .text(&serde_json::to_string(decisions).expect("decisions serialize"))
        .u64(outcome.report.rounds_run as u64);
    for time in &outcome.report.completion_time {
        digest.f64(time.unwrap_or(-1.0));
    }
    let stranded = outcome
        .survivors
        .iter()
        .filter(|&&node| outcome.report.completion_time[node].is_none())
        .count();
    if !phase.book.record(item, digest.value()) {
        run.fail(format!(
            "session {item}: outcome differs from an earlier run"
        ));
    } else if stranded > 0 {
        run.fail(format!(
            "session {item}: {stranded} survivors never completed"
        ));
    } else if outcome.degraded_floor.is_some() {
        run.fail(format!("session {item}: ended degraded"));
    } else if decisions.iter().any(|decision| decision.degraded) {
        run.fail(format!("session {item}: a repair was exhausted"));
    } else {
        phase.goodput.push(outcome.goodput_vs_nominal());
        phase.ratio[item] =
            Some(solution.verified_throughput / Bounds::of(&spec.instance).cyclic_optimum);
        phase.excess[item] = Some(solution.scheme.max_degree_excess(nominal));
        return Some(Finished {
            first_decision: decisions.first().cloned(),
            scheme: solution.scheme,
            nominal,
            verified: solution.verified_throughput,
        });
    }
    None
}

pub fn run(run: &mut Run) {
    let solver = bmp_core::solver::find("acyclic-guarded").expect("registered solver");
    let generator = InstanceGenerator::new(
        GeneratorConfig::new(RECEIVERS, OPEN_PROBABILITY).expect("valid generator config"),
        UniformBandwidth::unif100(),
    );
    let seed = run.stream(2);
    let mut warm_up = Phase::new();
    let (specs, setup_s) = setup(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        run.tracer.set_enabled(run.traced);
        let specs: Vec<Spec> = (0..SESSIONS)
            .map(|session| Spec {
                instance: run
                    .tracer
                    .time("platform.generate", || generator.generate(&mut rng)),
                sim_seed: run.stream(100 + session as u64),
                storm_seed: run.stream(200 + session as u64),
            })
            .collect();
        run.tracer.set_enabled(false);
        session_op(run, solver.as_ref(), &specs[0], 0, &mut warm_up, false);
        specs
    });
    run.e2e
        .add("setup_s", "s", setup_s, crate::run::SETUP_REPEATS);

    let seconds = run.phase_seconds();
    let mut untraced = Phase::new();
    closed_loop(seconds, DIGEST_SESSIONS, |op| {
        let item = op % SESSIONS;
        session_op(
            run,
            solver.as_ref(),
            &specs[item],
            item,
            &mut untraced,
            false,
        );
    });
    run.digest("untraced", untraced.book.combined(DIGEST_SESSIONS));
    if warm_up.book.combined(1) != untraced.book.combined(1) {
        run.fail("session 0: warm-up run differs from the timed run".to_string());
    }
    let ops_per_s = untraced.ops_per_s();
    let e2e = &mut run.e2e;
    e2e.add("ops_per_s", "1/s", ops_per_s, untraced.session_s.len());
    add_latency(
        e2e,
        "repair_p50_ms",
        Some("repair_p90_ms"),
        &untraced.log.decision_ms,
    );
    add_latency(e2e, "solve_p50_ms", None, &untraced.solve_ms);
    e2e.add(
        "goodput_vs_nominal",
        "ratio",
        mean(&untraced.goodput),
        untraced.goodput.len(),
    );
    let ratios: Vec<f64> = untraced.ratio.iter().flatten().copied().collect();
    e2e.add("throughput_vs_opt", "ratio", mean(&ratios), ratios.len());
    let excess: Vec<i64> = untraced.excess.iter().flatten().copied().collect();
    e2e.add(
        "degree_excess_max",
        "count",
        excess.iter().copied().max().unwrap_or(0) as f64,
        excess.len(),
    );
    if !run.traced {
        return;
    }

    // Traced phase: the same sessions with spans and per-16-round checkpoints, each
    // followed by the replays of its first decision and of its nominal overlay.
    let mut traced = Phase::new();
    let mut search_self_ms = Vec::new();
    run.tracer.set_enabled(true);
    closed_loop(seconds, DIGEST_SESSIONS, |op| {
        let item = op % SESSIONS;
        let Some(finished) =
            session_op(run, solver.as_ref(), &specs[item], item, &mut traced, true)
        else {
            return;
        };
        let mut problems = Vec::new();
        if let Some(decision) = &finished.first_decision {
            if let Err(reason) = replay_first_decision(
                &mut run.tracer,
                &finished.scheme,
                finished.nominal,
                FLOOR,
                0,
                decision,
            ) {
                problems.push(format!("first decision: {reason}"));
            }
        }
        let certified = flow_replay(&mut run.tracer, &finished.scheme, run.attempted);
        if certified.to_bits() != finished.verified.to_bits() {
            problems.push(format!(
                "flow.certify value {certified} != verified {}",
                finished.verified
            ));
        }
        let start = Instant::now();
        if certify_replay(&mut run.tracer, &finished.scheme, finished.nominal).is_none() {
            problems.push("certify_throughput rejected the scheme".to_string());
        }
        let solve_ms = traced.solve_ms.last().copied().unwrap_or(0.0);
        search_self_ms.push(solve_ms - start.elapsed().as_secs_f64() * 1e3);
        if !problems.is_empty() {
            run.fail(format!("session {item}: {}", problems.join("; ")));
        }
    });
    run.digest("traced", traced.book.combined(DIGEST_SESSIONS));
    run.layer.add(
        "trace.overhead_share",
        "ratio",
        1.0 - traced.ops_per_s() / ops_per_s,
        traced.session_s.len(),
    );
    let sessions = traced.session_s.len();
    report_common_layers(run, sessions, &traced.counts, &search_self_ms);
    report_session_layers(run, &traced.log, sessions, traced.swaps);
}
