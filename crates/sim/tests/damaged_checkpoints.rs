//! Damaged-checkpoint properties: a valid [`RunCheckpoint`] document, truncated at any
//! offset, with one byte flipped or with one digit changed, must never make
//! deserialization panic, and every document that still deserializes must resume — and
//! step on — without panicking.

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_platform::paper::figure1;
use bmp_sim::{
    AdaptationPolicy, AdaptiveRun, ChurnSchedule, Overlay, RepairController, RunCheckpoint,
    SimConfig, StaticPolicy, RUN_CHECKPOINT_VERSION,
};
use proptest::prelude::*;

/// A checkpoint of a Figure 1 session with an early departure of the load-bearing
/// relay, taken after `rounds` rounds, of a repair-driven or a static run.
fn checkpoint(rounds: usize, with_controller: bool) -> RunCheckpoint {
    let instance = figure1();
    let solution = AcyclicGuardedSolver::default().solve(&instance);
    let overlay = Overlay::from_scheme(&solution.scheme);
    let config = SimConfig {
        num_chunks: 100,
        chunk_size: 0.5,
        round_duration: 0.25,
        max_rounds: 4_000,
        ..SimConfig::default()
    };
    let churn = ChurnSchedule::departures_at(2.0, &[3]);
    let mut controller = RepairController::new(instance, solution.scheme, solution.throughput, 0.9);
    let mut run = AdaptiveRun::new(overlay, config, churn, solution.throughput);
    for _ in 0..rounds {
        if with_controller {
            run.step(&mut controller);
        } else {
            run.step(&mut StaticPolicy);
        }
    }
    run.checkpoint(with_controller.then_some(&controller))
}

/// Resumes `checkpoint` and steps it for up to 300 rounds, under its controller when
/// it carries one and statically otherwise — what `bmp simulate --resume` does.
fn step_resumed(checkpoint: RunCheckpoint) {
    let (mut run, controller) = AdaptiveRun::resume(checkpoint);
    let mut policy: Box<dyn AdaptationPolicy> = match controller {
        Some(controller) => Box::new(controller),
        None => Box::new(StaticPolicy),
    };
    for _ in 0..300 {
        if run.step(policy.as_mut()) {
            break;
        }
    }
}

/// The damaged variants of `document`: truncated at `cut` (a fraction of its length);
/// with the byte at `at` XOR-ed with `mask` (lossily re-decoded if that broke UTF-8);
/// and with the first digit at or after `at` shifted by `mask`, which keeps the JSON
/// well-formed and so reaches the semantic checks far more often than a byte flip.
fn damaged(document: &str, cut: f64, at: f64, mask: u8) -> [String; 3] {
    let len = document.len();
    let truncated = document[..((len as f64 * cut) as usize).min(len)].to_string();
    let index = ((len as f64 * at) as usize).min(len - 1);
    let mut flipped = document.as_bytes().to_vec();
    flipped[index] ^= mask;
    let mut shifted = document.as_bytes().to_vec();
    if let Some(digit) = shifted[index..]
        .iter_mut()
        .find(|byte| byte.is_ascii_digit())
    {
        *digit = b'0' + (*digit - b'0' + mask % 9 + 1) % 10;
    }
    [
        truncated,
        String::from_utf8_lossy(&flipped).into_owned(),
        String::from_utf8(shifted).expect("digits are ASCII"),
    ]
}

/// `document` with its top-level `format_version` replaced by `version`, or removed.
fn with_format_version(document: &str, version: Option<serde::Value>) -> String {
    let mut value: serde::Value = serde_json::from_str(document).unwrap();
    let serde::Value::Object(fields) = &mut value else {
        panic!("a checkpoint serializes as an object");
    };
    fields.retain(|(key, _)| key != "format_version");
    if let Some(version) = version {
        fields.insert(0, ("format_version".to_string(), version));
    }
    serde_json::to_string(&value).unwrap()
}

#[test]
fn checkpoints_without_the_current_format_version_are_rejected() {
    let document = serde_json::to_string(&checkpoint(5, true)).unwrap();
    let current = u64::from(RUN_CHECKPOINT_VERSION);
    assert!(
        document.starts_with(&format!("{{\"format_version\":{current},")),
        "{document}"
    );
    for (version, expected) in [
        (None, "format version missing"),
        (
            Some(serde::Value::U64(current + 1)),
            "format version 2, expected 1",
        ),
        (
            Some(serde::Value::Str(current.to_string())),
            "format version is not a version number",
        ),
    ] {
        let error = serde_json::from_str::<RunCheckpoint>(&with_format_version(&document, version))
            .unwrap_err()
            .to_string();
        assert!(error.contains("invalid checkpoint: "), "{error}");
        assert!(error.contains(expected), "{error}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn damaged_run_checkpoints_never_panic(
        rounds in 0usize..40,
        controller in 0u8..2,
        cut in 0.0_f64..1.0,
        at in 0.0_f64..1.0,
        mask in 1u8..=255,
    ) {
        let document = serde_json::to_string(&checkpoint(rounds, controller == 1)).unwrap();
        // The undamaged document round-trips and resumes.
        step_resumed(serde_json::from_str(&document).unwrap());
        for text in damaged(&document, cut, at, mask) {
            if let Ok(parsed) = serde_json::from_str::<RunCheckpoint>(&text) {
                step_resumed(parsed);
            }
        }
    }
}
