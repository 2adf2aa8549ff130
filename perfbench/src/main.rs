//! End-to-end benchmark of the bmp workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve-n2000|repair-churn|fleet-stream> --seed <n> --seconds <s> \
//!     --trace <0|1> [--out <dir>]
//! ```
//!
//! Run from the repository root: the metrics printed on the last line are the ones
//! `BENCHMARK.json` lists (its `end_to_end` metrics with `--trace 0`, its `per_layer`
//! metrics with `--trace 1`). The lines before it hold the host fingerprint, every
//! metric with its unit and sample count, the failures and the output digests. With
//! `--out`, the same report and, for a traced run, the spans as a Chrome trace are
//! written into that directory. See `perfbench/README.md` for the workloads and the
//! layer map.

mod fleet;
mod host;
mod json;
mod layers;
mod repair;
mod run;
mod solve;
mod stats;
mod trace;

use run::Run;
use serde_json::Value;
use stats::{ratio, Metric};
use std::path::PathBuf;
use std::process::ExitCode;

/// Dichotomic tolerance of every solve the benchmark issues, as `bmp solve` uses.
pub const SOLVE_TOLERANCE: f64 = 1e-9;

/// The seed kept out of tuning: a claimed gain must also hold with `--seed 4242`.
pub const HELD_OUT_SEED: u64 = 4242;

/// A workload: generates its inputs from the run's seed, measures, and records its
/// metrics and failures into the run.
type Workload = fn(&mut Run);

const WORKLOADS: [(&str, Workload); 3] = [
    ("solve-n2000", solve::run),
    ("repair-churn", repair::run),
    ("fleet-stream", fleet::run),
];

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let parsed = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(parsed > 0.0 && parsed <= 3600.0) {
                    return Err(bad("a duration in (0, 3600]"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload_name)
        .map(|&(_, run)| run)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    Ok(Args {
        workload,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Names and units of the metrics `BENCHMARK.json` lists under `key`.
fn listed_metrics(spec: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let field = |item: &Value, name: &str| -> Option<String> {
        item.as_object()?
            .iter()
            .find(|(key, _)| key == name)
            .and_then(|(_, value)| value.as_str().map(str::to_string))
    };
    spec.as_object()
        .and_then(|fields| fields.iter().find(|(name, _)| name == key))
        .and_then(|(_, list)| list.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|item| {
            field(item, "name")
                .zip(field(item, "unit"))
                .ok_or_else(|| format!("BENCHMARK.json: malformed {key} entry"))
        })
        .collect()
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|metric| {
                (
                    metric.name.to_string(),
                    json::obj(vec![
                        ("value", Value::F64(metric.value)),
                        ("unit", json::str(metric.unit)),
                        ("samples", Value::U64(metric.samples as u64)),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    match bench() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn bench() -> Result<(), String> {
    let args = parse_args()?;
    let set = host::bmp_env_vars();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark measures the library defaults",
            set.join(", ")
        ));
    }
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|error| format!("cannot read BENCHMARK.json in the working directory: {error}"))?;
    let spec: Value =
        serde_json::from_str(&spec_text).map_err(|error| format!("BENCHMARK.json: {error}"))?;
    let listed = listed_metrics(
        &spec,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    )?;

    let fingerprint = host::fingerprint();
    println!(
        "{}",
        json::to_string(&json::obj(vec![("fingerprint", fingerprint.clone())]))
    );

    let mut run = Run::new(args.seed, args.seconds, args.trace);
    (args.workload)(&mut run);
    run.tracer.set_enabled(false);
    let failed_share = ratio(run.failed as f64, run.attempted as f64);
    let attempted = run.attempted as usize;
    run.e2e
        .add("failed_share", "ratio", failed_share, attempted);
    run.e2e
        .add("ok_share", "ratio", 1.0 - failed_share, attempted);
    let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    run.e2e.add("peak_rss_mb", "MB", rss, 1);

    for (kind, metrics) in [("end_to_end", &run.e2e), ("per_layer", &run.layer)] {
        for metric in &metrics.0 {
            println!(
                "{kind:<10} {:<32} {:>16.6} {:<6} n={}",
                metric.name, metric.value, metric.unit, metric.samples
            );
        }
    }
    let spans = run.tracer.stats();
    for (name, stats) in &spans {
        println!(
            "span       {name:<32} {:>16.3} ms     self {:.3} ms  n={}",
            stats.total_ms, stats.self_ms, stats.count
        );
    }
    for problem in &run.problems {
        println!("failure    {problem}");
    }
    let digests = Value::Object(
        run.digests
            .iter()
            .map(|(phase, digest)| (phase.to_string(), json::str(&format!("{digest:016x}"))))
            .collect(),
    );
    let report = json::obj(vec![
        ("workload", json::str(&args.workload_name)),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("fingerprint", fingerprint),
        ("attempted", Value::U64(run.attempted)),
        ("failed", Value::U64(run.failed)),
        ("digests", digests),
        ("end_to_end", metrics_json(&run.e2e.0)),
        ("per_layer", metrics_json(&run.layer.0)),
        (
            "spans",
            Value::Object(
                spans
                    .iter()
                    .map(|(name, stats)| {
                        (
                            name.to_string(),
                            json::obj(vec![
                                ("count", Value::U64(stats.count as u64)),
                                ("total_ms", Value::F64(stats.total_ms)),
                                ("self_ms", Value::F64(stats.self_ms)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        json::to_string(&json::obj(vec![("report", report.clone())]))
    );
    if let Some(dir) = &args.out {
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload_name,
            args.seed,
            u8::from(args.trace)
        );
        std::fs::create_dir_all(dir).map_err(|error| format!("{}: {error}", dir.display()))?;
        let write = |name: String, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|error| format!("{}: {error}", path.display()))
        };
        write(
            format!("{stem}.json"),
            serde_json::to_string_pretty(&report).expect("report serializes"),
        )?;
        if args.trace {
            write(format!("{stem}.trace.json"), run.tracer.chrome_json())?;
        }
    }

    let source = if args.trace { &run.layer } else { &run.e2e };
    let mut result = Vec::with_capacity(listed.len());
    for (name, unit) in &listed {
        let metric = source
            .get(name)
            .ok_or_else(|| format!("this workload does not measure the listed metric {name}"))?;
        if metric.unit != unit {
            return Err(format!(
                "metric {name} is measured in {} but BENCHMARK.json lists {unit}",
                metric.unit
            ));
        }
        result.push((
            name.as_str(),
            json::obj(vec![
                ("value", Value::F64(metric.value)),
                ("unit", json::str(unit)),
            ]),
        ));
    }
    println!(
        "{}",
        json::to_string(&json::obj(vec![
            ("correct", Value::Bool(run.failed == 0)),
            ("attempted", Value::U64(run.attempted)),
            ("failed", Value::U64(run.failed)),
            ("metrics", json::obj(result)),
        ]))
    );
    Ok(())
}
