//! Host and configuration fingerprint, environment guard, and peak memory.

use crate::json;
use bmp_core::EvalCtx;
use serde_json::Value;
use std::process::Command;

/// Names of the set `BMP_*` environment variables. Each one switches a library mode
/// (journal, speculation, incremental evaluation, fault plans), so a run with any of
/// them set is not on the default path and is refused.
pub fn bmp_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("BMP_"))
        .collect();
    names.sort();
    names
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output; the command is waited for.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8(output.stdout)
                .ok()
                .and_then(|text| text.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host, toolchain, build and effective `EvalCtx` mode values of this run.
pub fn fingerprint() -> Value {
    let ctx = EvalCtx::with_tolerance(crate::SOLVE_TOLERANCE);
    json::obj(vec![
        ("nproc", Value::U64(nproc() as u64)),
        ("cpu_model", json::str(&cpu_model())),
        ("rustc", json::str(&command_line("rustc", &["-V"]))),
        (
            "profile",
            json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            json::str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("journal", Value::Bool(ctx.journal_enabled())),
        ("parallelism", Value::U64(ctx.parallelism() as u64)),
        ("speculation", Value::U64(ctx.speculation() as u64)),
        ("incremental", Value::Bool(ctx.incremental())),
        ("held_out_seed", Value::U64(crate::HELD_OUT_SEED)),
    ])
}

/// Peak resident set size of this process in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
