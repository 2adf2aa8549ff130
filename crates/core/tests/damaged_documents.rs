//! Damaged-document properties: valid instance and scheme documents, truncated at any
//! offset or with one byte flipped, must never make deserialization panic, and every
//! document that still deserializes must satisfy the invariants the rest of the crate
//! indexes by — the instance constructor's checks and a `num_nodes²` rate matrix.

use bmp_core::scheme::BroadcastScheme;
use bmp_platform::Instance;
use proptest::prelude::*;

/// A random valid instance (1–4 open and 0–3 guarded receivers).
fn random_instance() -> impl Strategy<Value = Instance> {
    (
        0.0_f64..20.0,
        proptest::collection::vec(0.0_f64..10.0, 1..=4),
        proptest::collection::vec(0.0_f64..10.0, 0..=3),
    )
        .prop_map(|(source, open, guarded)| Instance::new(source, open, guarded).unwrap())
}

/// A random scheme over a random instance, with about 5/7 of the rates set.
fn random_scheme() -> impl Strategy<Value = BroadcastScheme> {
    random_instance().prop_flat_map(|instance| {
        let n = instance.num_nodes();
        proptest::collection::vec(-2.0_f64..5.0, n * n).prop_map(move |rates| {
            let mut scheme = BroadcastScheme::new(instance.clone());
            for (idx, rate) in rates.into_iter().enumerate() {
                let (from, to) = (idx / n, idx % n);
                if from != to {
                    scheme.set_rate(from, to, rate.max(0.0));
                }
            }
            scheme
        })
    })
}

/// The damaged variants of `document`: truncated at `cut` (a fraction of its length),
/// and with the byte at `at` XOR-ed with `mask` (lossily re-decoded if that broke UTF-8).
fn damaged(document: &str, cut: f64, at: f64, mask: u8) -> [String; 2] {
    let len = document.len();
    let truncated = document[..((len as f64 * cut) as usize).min(len)].to_string();
    let mut bytes = document.as_bytes().to_vec();
    let index = ((len as f64 * at) as usize).min(len - 1);
    bytes[index] ^= mask;
    [truncated, String::from_utf8_lossy(&bytes).into_owned()]
}

fn assert_instance_invariants(instance: &Instance) {
    let bandwidths = instance.bandwidths();
    assert!(instance.num_receivers() >= 1);
    assert_eq!(bandwidths.len(), 1 + instance.n() + instance.m());
    assert!(bandwidths.iter().all(|b| b.is_finite() && *b >= 0.0));
    for class in [instance.open_bandwidths(), instance.guarded_bandwidths()] {
        assert!(
            class.windows(2).all(|w| w[0] >= w[1]),
            "unsorted class {class:?}"
        );
    }
}

fn rate_count(scheme: &BroadcastScheme) -> usize {
    let value = serde::Serialize::to_value(scheme);
    let rates = value
        .as_object()
        .and_then(|fields| fields.iter().find(|(key, _)| key == "rates"))
        .and_then(|(_, rates)| rates.as_array())
        .expect("a scheme serializes its rates as an array");
    rates.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn damaged_instance_documents_never_panic(
        instance in random_instance(),
        cut in 0.0_f64..1.0,
        at in 0.0_f64..1.0,
        mask in 1u8..=255,
    ) {
        let document = serde_json::to_string(&instance).unwrap();
        for text in damaged(&document, cut, at, mask) {
            if let Ok(parsed) = serde_json::from_str::<Instance>(&text) {
                assert_instance_invariants(&parsed);
            }
        }
    }

    #[test]
    fn damaged_scheme_documents_never_panic(
        scheme in random_scheme(),
        cut in 0.0_f64..1.0,
        at in 0.0_f64..1.0,
        mask in 1u8..=255,
    ) {
        let document = serde_json::to_string(&scheme).unwrap();
        for text in damaged(&document, cut, at, mask) {
            if let Ok(parsed) = serde_json::from_str::<BroadcastScheme>(&text) {
                let instance = parsed.instance();
                assert_instance_invariants(instance);
                let n = instance.num_nodes();
                prop_assert_eq!(rate_count(&parsed), n * n);
                // Every accessor that indexes the matrix, and the flow evaluation, runs.
                let _ = parsed.validate();
                prop_assert!(parsed.throughput() >= 0.0);
            }
        }
    }
}
