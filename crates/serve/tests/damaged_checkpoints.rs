//! Damaged-checkpoint properties: a valid [`FleetCheckpoint`] document, truncated at any
//! offset, with one byte flipped or with one digit changed, must never make
//! deserialization panic, and every document that still deserializes must resume — the
//! way `bmp serve --resume` does, under the configuration it carries — and run to the
//! end without panicking.

use bmp_serve::{run_fleet_with, FleetCheckpoint, FleetConfig, FleetOptions, FleetRun};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The halt checkpoint of a small fleet: three sessions of three receivers, parked
/// after six rounds with every session still in flight.
fn halted_document() -> &'static str {
    static DOCUMENT: OnceLock<String> = OnceLock::new();
    DOCUMENT.get_or_init(|| {
        let config = FleetConfig {
            sessions: 3,
            receivers: 3,
            chunks: 16,
            seed: 0xDA3A6E,
            ..FleetConfig::default()
        };
        let halted = run_fleet_with(
            &config,
            FleetOptions {
                halt_after: Some(6),
                ..FleetOptions::default()
            },
        );
        let FleetRun::Halted(checkpoint) = halted else {
            panic!("halt-after 6 must park the fleet");
        };
        checkpoint.to_json()
    })
}

/// Resumes `checkpoint` under the configuration it carries and runs it to the end.
fn resume(checkpoint: FleetCheckpoint) {
    let config = checkpoint.config.clone();
    let _ = run_fleet_with(
        &config,
        FleetOptions {
            resume: Some(checkpoint),
            ..FleetOptions::default()
        },
    );
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

#[test]
fn the_intact_checkpoint_resumes() {
    resume(FleetCheckpoint::from_json(halted_document()).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_fleet_checkpoints_never_panic(
        cut in 0.0_f64..1.0,
        at in 0.0_f64..1.0,
        mask in 1u8..=255,
    ) {
        for text in damaged(halted_document(), cut, at, mask) {
            if let Ok(parsed) = FleetCheckpoint::from_json(&text) {
                resume(parsed);
            }
        }
    }
}
