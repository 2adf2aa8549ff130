//! Damaged-checkpoint properties: a valid [`RunCheckpoint`] document, truncated at any
//! offset, with one byte flipped or with one digit changed, must never make
//! deserialization panic, and every document that still deserializes must resume — and
//! step on — without panicking.

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_platform::paper::figure1;
use bmp_sim::{
    AdaptationPolicy, AdaptiveRun, ChurnSchedule, Overlay, RepairController, RunCheckpoint,
    SimConfig, StaticPolicy,
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
