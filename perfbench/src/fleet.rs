//! `fleet-stream`: one client submitting batches of 100 sessions × 100 receivers ×
//! 3000 chunks with one churn wave (`4:3:1`) to `run_fleet`, on one shard per core.
//! Round stepping, the shard threads and fleet bookkeeping do most of the work; repair
//! runs but stays a minority, so flow-only changes should barely move this workload.

use crate::host::nproc;
use crate::layers::{
    certify_replay, flow_replay, replay_first_decision, report_common_layers,
    report_session_layers, step_to_end, CoreCounts, StepLog,
};
use crate::run::{closed_loop, setup, Run};
use crate::stats::{mean, median, Digest};
use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::Bounds;
use bmp_platform::distribution::UniformBandwidth;
use bmp_platform::generator::GeneratorConfig;
use bmp_platform::{Instance, InstanceGenerator};
use bmp_serve::{
    mix_seed, run_fleet, ChurnConfig, ChurnFeed, FleetConfig, FleetReport, SessionStats,
};
use bmp_sim::{AdaptiveRun, Overlay, RepairController, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const SESSIONS: usize = 100;
const RECEIVERS: usize = 100;
const CHUNKS: usize = 3000;
/// The fleet's session platforms: open probability and bandwidths of `run_fleet`.
const OPEN_PROBABILITY: f64 = 0.7;

fn config(seed: u64, sessions: usize, shards: usize) -> FleetConfig {
    FleetConfig {
        sessions,
        shards,
        receivers: RECEIVERS,
        chunks: CHUNKS,
        seed,
        churn: ChurnConfig {
            start: 4.0,
            spacing: 3.0,
            waves: 1,
        },
        ..FleetConfig::default()
    }
}

/// What one phase of fleet batches measured.
#[derive(Default)]
struct Phase {
    batch_s: Vec<f64>,
    sessions_done: usize,
    report: Option<FleetReport>,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.sessions_done as f64 / self.batch_s.iter().sum::<f64>()
    }
}

/// One `run_fleet` batch, checked: sessions missing from the report (rejected or
/// quarantined) and sessions with stranded survivors fail, and every batch of an
/// invocation must report the same bytes.
fn batch_op(run: &mut Run, config: &FleetConfig, phase: &mut Phase) {
    run.attempted += config.sessions as u64;
    run.tracer.set_op(run.attempted);
    let op = run.tracer.open("op");
    let start = Instant::now();
    let span = run.tracer.open("serve.run_fleet");
    let result = catch_unwind(AssertUnwindSafe(|| run_fleet(config)));
    run.tracer.close(span);
    let elapsed = start.elapsed().as_secs_f64();
    run.tracer.close(op);
    let Ok(report) = result else {
        for _ in 0..config.sessions {
            run.fail("fleet batch panicked".to_string());
        }
        return;
    };
    phase.batch_s.push(elapsed);
    phase.sessions_done += report.sessions.len();
    for _ in report.sessions.len()..config.sessions {
        run.fail("session rejected or quarantined".to_string());
    }
    for row in &report.sessions {
        if row.completed < row.survivors {
            run.fail(format!(
                "session {}: {} of {} survivors completed",
                row.session, row.completed, row.survivors
            ));
        }
    }
    run.digest(
        "fleet batch",
        Some(Digest::new().text(&report.to_json()).value()),
    );
    phase.report.get_or_insert(report);
}

/// Replays every session of `config` outside the fleet, each rebuilt from its
/// `mix_seed` seed and `ChurnFeed` schedule and stepped with its own controller, and
/// checks each against `report`. Returns the replay's wall time in seconds, without
/// the per-16-round checkpoints and the per-session layer replays.
fn bare_replay(
    run: &mut Run,
    config: &FleetConfig,
    instances: &[Instance],
    report: &FleetReport,
    log: &mut StepLog,
    counts: &mut CoreCounts,
    search_self_ms: &mut Vec<f64>,
) -> (f64, usize) {
    let feed = ChurnFeed::new(config.seed, config.churn);
    let mut bare_s = 0.0;
    let mut swaps = 0;
    for (session, instance) in instances.iter().enumerate() {
        run.tracer.set_op(run.attempted + session as u64);
        let seed = mix_seed(config.seed, session as u64);
        let start = Instant::now();
        let solution = run.tracer.time("core.solve", || {
            AcyclicGuardedSolver::default().solve(instance)
        });
        let solve_ms = start.elapsed().as_secs_f64() * 1e3;
        let sim = SimConfig {
            num_chunks: config.chunks,
            seed,
            ..SimConfig::default()
        }
        .scaled_to(solution.throughput, 2.0);
        let churn = feed.schedule(session, instance.num_nodes());
        let mut controller = RepairController::new(
            instance.clone(),
            solution.scheme.clone(),
            solution.throughput,
            config.floor,
        );
        controller.set_repair_algorithm(config.repair_algorithm.clone());
        controller.set_parallelism(config.flow_threads);
        let overlay = Overlay::from_scheme(&solution.scheme);
        let mut adaptive = AdaptiveRun::new(overlay, sim, churn, solution.throughput);
        let build_s = start.elapsed().as_secs_f64();
        bare_s += build_s + step_to_end(&mut run.tracer, &mut adaptive, &mut controller, log, true);
        counts.add_ctx(controller.ctx());
        let outcome = adaptive.outcome(&controller);
        swaps += outcome.swaps.iter().filter(|swap| swap.swapped).count();
        let row = SessionStats::from_outcome(session, seed, &outcome, controller.decisions());
        let mut problems = Vec::new();
        if report
            .sessions
            .iter()
            .find(|stats| stats.session == session)
            != Some(&row)
        {
            problems.push("bare replay differs from the fleet row".to_string());
        }
        if let Some(decision) = controller.decisions().first() {
            if let Err(reason) = replay_first_decision(
                &mut run.tracer,
                &solution.scheme,
                solution.throughput,
                config.floor,
                config.flow_threads,
                decision,
            ) {
                problems.push(format!("first decision: {reason}"));
            }
        }
        flow_replay(&mut run.tracer, &solution.scheme, seed);
        if certify_replay(&mut run.tracer, &solution.scheme, solution.throughput).is_none() {
            problems.push("certify_throughput rejected the scheme".to_string());
        }
        if !problems.is_empty() {
            run.fail(format!("session {session}: {}", problems.join("; ")));
        }
        // The fleet's solver certifies nothing itself, so all of a solve is search.
        search_self_ms.push(solve_ms);
    }
    (bare_s, swaps)
}

pub fn run(run: &mut Run) {
    let shards = nproc();
    let fleet_seed = run.stream(3);
    let fleet = config(fleet_seed, SESSIONS, shards);
    let generator = InstanceGenerator::new(
        GeneratorConfig::new(RECEIVERS, OPEN_PROBABILITY).expect("valid generator config"),
        UniformBandwidth::unif100(),
    );
    let mut warm_up = Phase::default();
    let (instances, setup_s) = setup(|| {
        run.tracer.set_enabled(run.traced);
        let instances: Vec<Instance> = (0..SESSIONS)
            .map(|session| {
                let mut rng = StdRng::seed_from_u64(mix_seed(fleet_seed, session as u64));
                run.tracer
                    .time("platform.generate", || generator.generate(&mut rng))
            })
            .collect();
        run.tracer.set_enabled(false);
        // One session per shard.
        let warm = config(fleet_seed, shards, shards);
        let mut scratch = Run::new(run.seed, 0.0, false);
        batch_op(&mut scratch, &warm, &mut warm_up);
        run.attempted += scratch.attempted;
        run.failed += scratch.failed;
        run.problems.extend(scratch.problems);
        instances
    });
    run.e2e
        .add("setup_s", "s", setup_s, crate::run::SETUP_REPEATS);

    let seconds = run.phase_seconds();
    let mut untraced = Phase::default();
    closed_loop(seconds, 1, |_| batch_op(run, &fleet, &mut untraced));
    let Some(report) = untraced.report.take() else {
        return;
    };
    let ops_per_s = untraced.ops_per_s();
    let fleet_s = median(&untraced.batch_s);
    let e2e = &mut run.e2e;
    e2e.add("ops_per_s", "1/s", ops_per_s, untraced.sessions_done);
    e2e.add("fleet_p50_s", "s", fleet_s, untraced.batch_s.len());
    e2e.add(
        "goodput_vs_nominal",
        "ratio",
        report.metrics.mean_goodput_vs_nominal,
        report.sessions.len(),
    );
    let ratios: Vec<f64> = report
        .sessions
        .iter()
        .map(|row| row.nominal / Bounds::of(&instances[row.session]).cyclic_optimum)
        .collect();
    e2e.add("throughput_vs_opt", "ratio", mean(&ratios), ratios.len());
    if !run.traced {
        return;
    }

    let mut traced = Phase::default();
    run.tracer.set_enabled(true);
    closed_loop(seconds, 1, |_| batch_op(run, &fleet, &mut traced));
    run.layer.add(
        "trace.overhead_share",
        "ratio",
        1.0 - traced.ops_per_s() / ops_per_s,
        traced.sessions_done,
    );

    let single = FleetConfig {
        shards: 1,
        ..fleet.clone()
    };
    let start = Instant::now();
    let span = run.tracer.open("serve.shards1");
    let single_report = run_fleet(&single);
    run.tracer.close(span);
    let shards1_s = start.elapsed().as_secs_f64();
    if single_report.to_json() != report.to_json() {
        run.fail(format!(
            "the 1-shard report differs from the {shards}-shard report"
        ));
    }

    let mut log = StepLog::default();
    let mut counts = CoreCounts::default();
    let mut search_self_ms = Vec::new();
    let span = run.tracer.open("serve.bare");
    let (bare_s, swaps) = bare_replay(
        run,
        &fleet,
        &instances,
        &report,
        &mut log,
        &mut counts,
        &mut search_self_ms,
    );
    run.tracer.close(span);

    report_common_layers(run, SESSIONS, &counts, &search_self_ms);
    report_session_layers(run, &log, SESSIONS, swaps);
    let metrics = &report.metrics;
    let layer = &mut run.layer;
    layer.add("serve.shards1_s", "s", shards1_s, 1);
    layer.add(
        "serve.scaling_eff",
        "ratio",
        shards1_s / (shards as f64 * fleet_s),
        untraced.batch_s.len(),
    );
    layer.add("serve.bare_s", "s", bare_s, SESSIONS);
    layer.add("serve.overhead_share", "ratio", 1.0 - bare_s / shards1_s, 1);
    for (name, count) in [
        ("serve.repairs", metrics.total_repairs as f64),
        ("serve.swaps", metrics.total_swaps as f64),
        ("serve.attempts", metrics.total_attempts as f64),
        ("serve.retries", metrics.session_retries as f64),
        ("serve.quarantined", metrics.sessions_quarantined as f64),
        ("serve.rejected", metrics.sessions_rejected as f64),
    ] {
        layer.add(name, "count", count, SESSIONS);
    }
}
