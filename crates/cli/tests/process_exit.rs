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
