//! Runs the `bmp` binary as a process and checks how it exits: malformed input fails
//! with a clean non-zero exit and an error message (never an abort), help exits 0, and
//! the "run `bmp-cli help`" hint follows usage errors only.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bmp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bmp"))
        .args(args)
        .output()
        .expect("the bmp binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Writes `contents` to a fresh file in the temp directory and returns its path.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bmp-exit-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

const USAGE_HINT: &str = "run `bmp-cli help` for usage";

#[test]
fn deeply_nested_json_is_a_parse_error_not_an_abort() {
    let path = temp_file("nested.json", &"[".repeat(100_000));
    let file = path.to_str().unwrap();
    for args in [["solve", "--instance", file], ["serve", "--resume", file]] {
        let output = bmp(&args);
        // An abort (stack overflow) exits through a signal with no exit code.
        assert_eq!(output.status.code(), Some(1), "{args:?}: {output:?}");
        let message = stderr(&output);
        assert!(message.contains("JSON error"), "{args:?}: {message}");
        assert!(message.contains("recursion limit"), "{args:?}: {message}");
        assert!(!message.contains(USAGE_HINT), "{args:?}: {message}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn io_errors_do_not_blame_usage() {
    let missing = std::env::temp_dir().join(format!("bmp-exit-{}-missing", std::process::id()));
    let output = bmp(&["solve", "--instance", missing.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let message = stderr(&output);
    assert!(message.contains("I/O error"), "{message}");
    assert!(!message.contains(USAGE_HINT), "{message}");
}

#[test]
fn usage_errors_point_at_help() {
    let output = bmp(&["solve", "--instnace", "x.json"]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let message = stderr(&output);
    assert!(message.contains("usage error"), "{message}");
    assert!(message.contains(USAGE_HINT), "{message}");
}

#[test]
fn degenerate_fleet_configurations_are_usage_errors() {
    for (args, expected) in [
        (["serve", "--receivers", "1"], "at least two receivers"),
        (["serve", "--chunks", "0"], "at least one chunk"),
    ] {
        let output = bmp(&args);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {output:?}");
        let message = stderr(&output);
        assert!(message.contains("usage error"), "{args:?}: {message}");
        assert!(message.contains(expected), "{args:?}: {message}");
    }
}

#[test]
fn help_flags_exit_zero_with_the_usage() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["help"],
        &["simulate", "--help"],
        &["serve", "--sessions", "4", "-h"],
    ] {
        let output = bmp(args);
        assert!(output.status.success(), "{args:?}: {output:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("USAGE"), "{args:?}: {stdout}");
    }
}

/// Asserts that `args` fails with exit code 1 and a JSON error naming `expected`.
fn assert_json_error(args: &[&str], expected: &str) {
    let output = bmp(args);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {output:?}");
    let message = stderr(&output);
    assert!(message.contains("JSON error"), "{args:?}: {message}");
    assert!(message.contains(expected), "{args:?}: {message}");
    assert!(!message.contains(USAGE_HINT), "{args:?}: {message}");
}

#[test]
fn instances_violating_the_constructor_invariants_are_json_errors() {
    for (name, document, expected) in [
        (
            "short.json",
            r#"{"bandwidths":[5.0,1.0],"n":3,"m":0}"#,
            "expected 1 + n + m",
        ),
        (
            "negative.json",
            r#"{"bandwidths":[5.0,-1.0],"n":1,"m":0}"#,
            "invalid bandwidth -1",
        ),
        (
            "empty.json",
            r#"{"bandwidths":[5.0],"n":0,"m":0}"#,
            "no receiver",
        ),
    ] {
        let path = temp_file(name, document);
        let file = path.to_str().unwrap();
        for command in ["solve", "bounds"] {
            assert_json_error(&[command, "--instance", file], expected);
        }
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn schemes_with_a_wrongly_sized_rate_matrix_are_json_errors() {
    let path = temp_file(
        "short-rates.json",
        r#"{"instance":{"bandwidths":[4.0,2.0,2.0,1.0,1.0],"n":4,"m":0},"rates":[0.0,1.0,1.0,1.0,1.0]}"#,
    );
    let file = path.to_str().unwrap();
    let expected = "rate matrix has 5 entries, expected 5×5";
    assert_json_error(&["verify", "--scheme", file, "--throughput", "1"], expected);
    assert_json_error(&["simulate", "--scheme", file], expected);
    std::fs::remove_file(path).ok();
}

/// Rewrites the checkpoint at `path` with its top-level `format_version` replaced by
/// `version`, or removed when `version` is `None`.
fn rewrite_format_version(path: &std::path::Path, version: Option<u64>) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut value: serde::Value = serde_json::from_str(&text).unwrap();
    let serde::Value::Object(fields) = &mut value else {
        panic!("a checkpoint is a JSON object");
    };
    let slot = fields
        .iter()
        .position(|(key, _)| key == "format_version")
        .expect("checkpoints carry a format version");
    match version {
        Some(version) => fields[slot].1 = serde::Value::U64(version),
        None => {
            fields.remove(slot);
        }
    }
    std::fs::write(path, serde_json::to_string(&value).unwrap()).unwrap();
}

#[test]
fn checkpoints_of_another_format_version_are_json_errors() {
    let dir = std::env::temp_dir().join(format!("bmp-exit-{}-versions", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (instance, scheme) = (path("instance.json"), path("scheme.json"));
    let (run, fleet) = (path("run.ckpt"), path("fleet.ckpt"));
    for args in [
        &[
            "generate",
            "--receivers",
            "8",
            "--seed",
            "42",
            "--out",
            &instance,
        ][..],
        &["solve", "--instance", &instance, "--out", &scheme],
        &[
            "simulate",
            "--scheme",
            &scheme,
            "--chunks",
            "60",
            "--churn",
            "5:3",
            "--repair",
            "--checkpoint",
            &run,
            "--checkpoint-every",
            "5",
            "--halt-after",
            "20",
        ],
        &[
            "serve",
            "--sessions",
            "4",
            "--receivers",
            "4",
            "--chunks",
            "24",
            "--checkpoint",
            &fleet,
            "--checkpoint-every",
            "1",
            "--halt-after",
            "2",
        ],
    ] {
        let output = bmp(args);
        assert!(output.status.success(), "{args:?}: {output:?}");
    }
    for (command, file) in [("simulate", &run), ("serve", &fleet)] {
        for version in [Some(0), Some(2), None] {
            rewrite_format_version(std::path::Path::new(file), version);
            assert_json_error(
                &[command, "--resume", file],
                "invalid checkpoint: format version",
            );
        }
    }
    std::fs::remove_dir_all(dir).ok();
}
