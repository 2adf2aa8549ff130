//! Multi-sink throughput evaluation: the batched CSR evaluator, sequential and fanned
//! out over the persistent worker pool, measured from n = 50 up to the fleet-scale
//! n ∈ {2000, 5000} overlays.
//!
//! `BroadcastScheme::throughput` is `min_k maxflow(source → C_k)` over all receivers.
//! The variants of the `throughput` group:
//!
//! * `batched`        — arena build + `FlowSolver::min_max_flow` (cold workspace;
//!   n ≤ 500),
//! * `batched_reuse`  — `min_max_flow` on a prebuilt arena with a warm solver (the
//!   steady-state hot path of the experiment sweeps — the sequential baseline),
//! * `parallel-auto`  — `FlowPool::min_max_flow_with` on the global pool with the
//!   `suggested_flow_threads` lane count (sequential below 512 nodes / 96 sinks, capped
//!   available parallelism above),
//! * `parallel/T`     — fixed lane counts for the fan-out curve,
//! * `acyclic_reuse`  — warm `min_max_flow` on an overlay whose arcs all go from a lower
//!   to a higher index, like the schemes `acyclic-guarded` emits (n ∈ {2000, 5000}).
//!   Every sink is settled by its in-capacity, so no max-flow runs; the random
//!   overlays of the other variants are cyclic and settle almost nothing.
//!
//! The `worker_pool` group compares the pool with the sequential evaluator at a fixed
//! fan-out of 4 lanes:
//!
//! * `sequential`     — warm `FlowSolver::min_max_flow` (the no-fan-out floor),
//! * `pooled/4`       — `FlowPool::min_max_flow_with` on the persistent global pool
//!   (long-lived workers, warm per-worker solvers, no per-call spawn).
//!
//! The `certify` and `scheme` groups pin the two layers of a cold `acyclic-guarded`
//! solve around the search, on PlanetLab-like instances with 70% open receivers:
//!
//! * `certify/fresh`  — `EvalCtx::new().throughput` of the solver's scheme: a fresh
//!   context walks the scheme's edges, builds the arena and settles every receiver
//!   (n ∈ {2000, 5000}),
//! * `scheme/build`   — `AcyclicGuardedSolver::scheme_for_word` at the optimal
//!   throughput: the construction of Lemma 4.6 (n = 2000).
//!
//! Results are drained from the harness and written as `BENCH_throughput.json` at the
//! repo root (machine-readable perf trajectory).

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::solver::EvalCtx;
use bmp_flow::{suggested_flow_threads, FlowArena, FlowPool, FlowSolver};
use bmp_platform::distribution::PlanetLabLike;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Random broadcast-like digraph as an edge list: node 0 is the source, every node has
/// out-degree ~8 with capacities in `[0.1, 5)`, plus a guaranteed source → k path
/// structure so flows are non-trivial.
fn random_overlay(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(8 * n);
    for k in 1..n {
        // A sparse backbone keeps every node reachable.
        let parent = rng.gen_range(0..k);
        edges.push((parent, k, rng.gen_range(0.5..5.0)));
    }
    let extra_edges = n * 7;
    for _ in 0..extra_edges {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        if from != to {
            edges.push((from, to, rng.gen_range(0.1..5.0)));
        }
    }
    edges
}

/// [`random_overlay`] with every arc pointing from the lower to the higher index: an
/// acyclic overlay in which the source reaches every node.
fn acyclic_overlay(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    random_overlay(n, seed)
        .into_iter()
        .map(|(a, b, capacity)| (a.min(b), a.max(b), capacity))
        .collect()
}

/// The pooled evaluation on the global pool with a fresh submitter workspace.
fn pooled(arena: &Arc<FlowArena>, sinks: &[usize], threads: usize) -> f64 {
    FlowPool::global().min_max_flow_with(&mut FlowSolver::new(), arena, 0, sinks, threads)
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for &n in &[50usize, 200, 500, 2000, 5000] {
        let edges = random_overlay(n, 0xBEA0 + n as u64);
        let sinks: Vec<usize> = (1..n).collect();
        let arena = Arc::new(FlowArena::from_edges(n, &edges));
        let mut warm = FlowSolver::new();
        let expected = warm.min_max_flow(&arena, 0, &sinks);
        if n <= 500 {
            group.bench_with_input(BenchmarkId::new("batched", n), &edges, |b, edges| {
                b.iter(|| {
                    let arena = FlowArena::from_edges(n, edges);
                    FlowSolver::new().min_max_flow(&arena, 0, &sinks)
                })
            });
        }
        // The pooled fan-out shares the exactness argument at every size.
        assert_eq!(
            pooled(&arena, &sinks, 4),
            expected,
            "pooled evaluator must agree with the sequential baseline before being timed"
        );
        group.bench_with_input(BenchmarkId::new("batched_reuse", n), &arena, |b, arena| {
            b.iter(|| warm.min_max_flow(arena, 0, &sinks))
        });
        if n >= 500 {
            let auto_threads = suggested_flow_threads(n, sinks.len());
            group.bench_with_input(BenchmarkId::new("parallel-auto", n), &arena, |b, arena| {
                b.iter(|| pooled(arena, &sinks, auto_threads))
            });
            for threads in [4usize, 8] {
                group.bench_with_input(
                    BenchmarkId::new(format!("parallel/{threads}"), n),
                    &arena,
                    |b, arena| b.iter(|| pooled(arena, &sinks, threads)),
                );
            }
        }
        if n >= 2000 {
            let acyclic = FlowArena::from_edges(n, &acyclic_overlay(n, 0xBEA0 + n as u64));
            let in_capacity = sinks
                .iter()
                .map(|&sink| acyclic.in_capacity(sink))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                warm.min_max_flow(&acyclic, 0, &sinks),
                in_capacity,
                "an acyclic overlay must be settled by its in-capacities before being timed"
            );
            group.bench_with_input(
                BenchmarkId::new("acyclic_reuse", n),
                &acyclic,
                |b, arena| b.iter(|| warm.min_max_flow(arena, 0, &sinks)),
            );
        }
    }
    group.finish();
}

/// Pool-vs-sequential at a fixed fan-out of 4 lanes.
fn bench_worker_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("worker_pool");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let pool = FlowPool::global();
    for &n in &[500usize, 2000] {
        let edges = random_overlay(n, 0xBEA0 + n as u64);
        let sinks: Vec<usize> = (1..n).collect();
        let arena = Arc::new(FlowArena::from_edges(n, &edges));
        let mut warm = FlowSolver::new();
        let expected = warm.min_max_flow(&arena, 0, &sinks);
        let mut submitter = FlowSolver::new();
        // Both strategies are exact — assert it before timing them.
        assert_eq!(
            pool.min_max_flow_with(&mut submitter, &arena, 0, &sinks, 4),
            expected
        );
        group.bench_with_input(BenchmarkId::new("sequential", n), &arena, |b, arena| {
            b.iter(|| warm.min_max_flow(arena, 0, &sinks))
        });
        group.bench_with_input(BenchmarkId::new("pooled/4", n), &arena, |b, arena| {
            b.iter(|| pool.min_max_flow_with(&mut submitter, arena, 0, &sinks, 4))
        });
    }
    group.finish();
}

/// The certification and scheme-build layers of a cold `acyclic-guarded` solve.
fn bench_certify_and_build(c: &mut Criterion) {
    let solver = AcyclicGuardedSolver::default();
    let mut certify = c.benchmark_group("certify");
    certify
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let mut build_input = None;
    for &n in &[2000usize, 5000] {
        let generator = InstanceGenerator::new(
            GeneratorConfig::new(n, 0.7).expect("valid generator config"),
            PlanetLabLike::new(),
        );
        let instance = generator.generate(&mut StdRng::seed_from_u64(0xCE57 + n as u64));
        let (throughput, word) = solver.optimal_throughput(&instance);
        let scheme = solver
            .scheme_for_word(&instance, throughput, &word)
            .expect("the optimal word is valid at its throughput");
        let certified = EvalCtx::new().throughput(&scheme);
        assert!(
            (certified - throughput).abs() <= 1e-6 * throughput.max(1.0),
            "certification must confirm the built scheme ({certified} vs {throughput}) \
             before being timed"
        );
        certify.bench_with_input(BenchmarkId::new("fresh", n), &scheme, |b, scheme| {
            b.iter(|| EvalCtx::new().throughput(scheme))
        });
        if n == 2000 {
            build_input = Some((instance, throughput, word));
        }
    }
    certify.finish();

    let (instance, throughput, word) = build_input.expect("n = 2000 was certified");
    let mut build = c.benchmark_group("scheme");
    build
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    build.bench_with_input(BenchmarkId::new("build", 2000), &instance, |b, instance| {
        b.iter(|| solver.scheme_for_word(instance, throughput, &word))
    });
    build.finish();
}

criterion_group!(
    benches,
    bench_throughput,
    bench_worker_pool,
    bench_certify_and_build
);

fn main() {
    benches();
    if let Some(path) = bmp_bench::write_bench_json("throughput", &criterion::take_reports()) {
        println!("wrote {}", path.display());
    }
    criterion::Criterion::default().final_summary();
}
