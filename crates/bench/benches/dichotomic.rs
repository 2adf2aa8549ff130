//! Dichotomic search benches: cost of the optimal-throughput search as a function of the
//! tolerance (shared `DichotomicSearch` driver, Theorem 4.1) and the cost of re-scoring
//! near-identical schemes — per-iteration `to_flow_arena` rebuilds versus the retained
//! incremental-capacity arena of `EvalCtx` versus the dirty-edge-journal fast path that
//! skips the O(n + edges) walk of the scheme's stored rates entirely, measured up to
//! n = 5000 overlays. The results are drained from the harness and written as
//! `BENCH_dichotomic.json` at the repo root (machine-readable perf trajectory).

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::solver::{AcyclicGuardedAlgorithm, EvalCtx, Solver};
use bmp_core::BroadcastScheme;
use bmp_flow::FlowSolver;
use bmp_platform::distribution::UniformBandwidth;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_platform::Instance;
use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn random_instance(receivers: usize, p: f64, seed: u64) -> Instance {
    let config = GeneratorConfig::new(receivers, p).unwrap();
    let generator = InstanceGenerator::new(config, UniformBandwidth::unif100());
    generator.generate(&mut StdRng::seed_from_u64(seed))
}

fn bench_dichotomic(c: &mut Criterion) {
    let mut group = c.benchmark_group("dichotomic_search");
    let inst = random_instance(500, 0.6, 99);
    for &tolerance in &[1e-4_f64, 1e-8, 1e-12] {
        let solver = AcyclicGuardedSolver::with_tolerance(tolerance);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{tolerance:e}")),
            &inst,
            |b, inst| b.iter(|| solver.optimal_throughput(inst).0),
        );
    }
    group.finish();
}

/// Re-scoring near-identical schemes, the access pattern of a search loop probing a
/// scheme whose edge set is fixed while the rates move. Three variants, identical flow
/// solves, different arena handling:
///
/// * `rebuild` — what the pre-registry code paid per probe: `to_flow_arena` (edge walk
///   + full CSR construction with its allocations) then the batched evaluator;
/// * `incremental` — `EvalCtx::throughput`: same edge walk, but the retained arena's
///   capacities are rewritten in place instead of rebuilding the CSR layout;
/// * `incremental-edges` — `EvalCtx::min_max_flow` over a caller-maintained edge list
///   (the search loop mutates the probed rate directly), skipping the edge walk too.
fn bench_reevaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dichotomic_reevaluation");
    group.sample_size(20);
    for &n in &[50usize, 200, 500] {
        let inst = random_instance(n, 0.7, 42);
        let solution = AcyclicGuardedAlgorithm
            .solve(&inst, &mut EvalCtx::new())
            .expect("solvable");
        let receivers: Vec<usize> = inst.receivers().collect();
        let base_edges = solution.scheme.edges();

        group.bench_with_input(
            BenchmarkId::new("rebuild", n),
            &solution.scheme,
            |b, scheme| {
                let mut scheme = scheme.clone();
                let mut solver = FlowSolver::new();
                let mut k = 0usize;
                b.iter(|| {
                    let (from, to, rate) = base_edges[k % base_edges.len()];
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    scheme.set_rate(from, to, rate * scale);
                    let arena = scheme.to_flow_arena();
                    solver.min_max_flow(&arena, 0, &receivers)
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("incremental", n),
            &solution.scheme,
            |b, scheme| {
                let mut scheme = scheme.clone();
                let mut ctx = EvalCtx::new();
                let mut k = 0usize;
                b.iter(|| {
                    let (from, to, rate) = base_edges[k % base_edges.len()];
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    scheme.set_rate(from, to, rate * scale);
                    ctx.throughput(&scheme)
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("incremental-edges", n),
            &solution.scheme,
            |b, scheme| {
                let num_nodes = scheme.instance().num_nodes();
                let mut edges = base_edges.clone();
                let mut ctx = EvalCtx::new();
                let mut k = 0usize;
                b.iter(|| {
                    let index = k % edges.len();
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    edges[index].2 = base_edges[index].2 * scale;
                    ctx.min_max_flow(num_nodes, &edges, 0, &receivers)
                })
            },
        );

        // Single-sink probes (the churn-sweep access pattern): with only one max-flow
        // per evaluation, the arena handling dominates the iteration cost.
        let probe_sink = receivers[receivers.len() / 2];
        group.bench_with_input(
            BenchmarkId::new("rebuild-single-sink", n),
            &solution.scheme,
            |b, scheme| {
                let mut scheme = scheme.clone();
                let mut solver = FlowSolver::new();
                let mut k = 0usize;
                b.iter(|| {
                    let (from, to, rate) = base_edges[k % base_edges.len()];
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    scheme.set_rate(from, to, rate * scale);
                    let arena = scheme.to_flow_arena();
                    solver.max_flow(&arena, 0, probe_sink)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental-single-sink", n),
            &solution.scheme,
            |b, scheme| {
                let num_nodes = scheme.instance().num_nodes();
                let mut edges = base_edges.clone();
                let mut ctx = EvalCtx::new();
                let sinks = [probe_sink];
                let mut k = 0usize;
                b.iter(|| {
                    let index = k % edges.len();
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    edges[index].2 = base_edges[index].2 * scale;
                    ctx.min_max_flow(num_nodes, &edges, 0, &sinks)
                })
            },
        );
    }
    group.finish();
}

/// The scale benchmark of the dirty-edge journal: single-edge re-probes (the dichotomic
/// access pattern) on n ∈ {500, 2000, 5000} overlays, journaled evaluation versus the
/// scan-and-rewrite fallback. The scan variants alternate between two copies of the
/// scheme, so the context's journal association always belongs to the other object and
/// every evaluation scans. Both variants run identical flow solves on identical arenas
/// (the journal is exact); the difference is purely the per-probe O(n + edges) walk of
/// the stored rates and the in-place rewrite of every capacity, which the journal skips.
fn bench_journaled(c: &mut Criterion) {
    let mut group = c.benchmark_group("journaled_reevaluation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for &n in &[500usize, 2000, 5000] {
        let inst = random_instance(n, 0.7, 42);
        let solution = AcyclicGuardedAlgorithm
            .solve(&inst, &mut EvalCtx::new())
            .expect("solvable");
        let receivers: Vec<usize> = inst.receivers().collect();
        let base_edges = solution.scheme.edges();
        let probe_sink = receivers[receivers.len() / 2];

        // A probe loop evaluating one max-flow per mutation: arena handling dominates.
        let mut single_sink = |label: &str, scan: bool| {
            group.bench_with_input(
                BenchmarkId::new(label, n),
                &solution.scheme,
                |b, scheme: &BroadcastScheme| {
                    let mut copies = [scheme.clone(), scheme.clone()];
                    let mut ctx = EvalCtx::new();
                    let mut k = 0usize;
                    b.iter(|| {
                        let (from, to, rate) = base_edges[k % base_edges.len()];
                        let scale = if k.is_multiple_of(2) { 0.999 } else { 0.9995 };
                        let scheme = &mut copies[if scan { k % 2 } else { 0 }];
                        k += 1;
                        scheme.set_rate(from, to, rate * scale);
                        ctx.max_flow_to(scheme, probe_sink)
                    })
                },
            );
        };
        single_sink("scan-single-sink", true);
        single_sink("journaled-single-sink", false);

        // Full multi-sink evaluation per probe (flow solves dominate at scale, so the
        // journal's win is relative — measured at the two acceptance sizes only).
        if n <= 2000 {
            let mut full_eval = |label: &str, scan: bool| {
                group.bench_with_input(
                    BenchmarkId::new(label, n),
                    &solution.scheme,
                    |b, scheme: &BroadcastScheme| {
                        let mut copies = [scheme.clone(), scheme.clone()];
                        let mut ctx = EvalCtx::new();
                        let mut k = 0usize;
                        b.iter(|| {
                            let (from, to, rate) = base_edges[k % base_edges.len()];
                            let scale = if k.is_multiple_of(2) { 0.999 } else { 0.9995 };
                            let scheme = &mut copies[if scan { k % 2 } else { 0 }];
                            k += 1;
                            scheme.set_rate(from, to, rate * scale);
                            ctx.throughput(scheme)
                        })
                    },
                );
            };
            full_eval("scan-full", true);
            full_eval("journaled-full", false);
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dichotomic,
    bench_reevaluation,
    bench_journaled
);

fn main() {
    benches();
    if let Some(path) = bmp_bench::write_bench_json("dichotomic", &criterion::take_reports()) {
        println!("wrote {}", path.display());
    }
    criterion::Criterion::default().final_summary();
}
