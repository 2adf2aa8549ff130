//! Model-based properties of the sparse rate storage of [`BroadcastScheme`]: random
//! sequences of `set_rate` / `add_rate` / `prune_dust` writes, on empty schemes and on
//! deserialized documents carrying diagonal, negative, `-0.0` and dust entries, are
//! replayed against a dense row-major `Vec<f64>` reference model kept here. Every
//! observable must agree bit for bit with the model: `rate`, `sent`, `received`,
//! `outdegree`, `edges` (order included), `validate`'s violation list, the flow arena's
//! edge order and capacities, the serialized document, the journal bookkeeping and `==`.

use bmp_core::scheme::{BroadcastScheme, SchemeViolation, RATE_EPS};
use bmp_flow::{eps, FlowArena};
use bmp_platform::{Instance, NodeClass};
use proptest::prelude::*;

/// The dense reference: the rate matrix `c[i * n + j]` plus the dirty-edge journal
/// bookkeeping, written the way the scheme documents it.
#[derive(Debug, Clone)]
struct DenseModel {
    instance: Instance,
    n: usize,
    rates: Vec<f64>,
    edge_epoch: u64,
    journal_base: u64,
    journal_len: u64,
}

impl DenseModel {
    fn new(instance: Instance, rates: Vec<f64>) -> Self {
        let n = instance.num_nodes();
        assert_eq!(rates.len(), n * n);
        DenseModel {
            instance,
            n,
            rates,
            edge_epoch: 0,
            journal_base: 0,
            journal_len: 0,
        }
    }

    fn rate(&self, from: usize, to: usize) -> f64 {
        self.rates[from * self.n + to]
    }

    fn write(&mut self, from: usize, to: usize, new: f64) {
        let old = self.rate(from, to);
        self.rates[from * self.n + to] = new;
        if old == new {
            return;
        }
        let (was_edge, is_edge) = (old > RATE_EPS, new > RATE_EPS);
        if was_edge != is_edge {
            self.edge_epoch += 1;
            self.journal_base += self.journal_len;
            self.journal_len = 0;
        } else if is_edge {
            if self.journal_len >= (4 * self.n).max(256) as u64 {
                self.journal_base += self.journal_len;
                self.journal_len = 0;
            }
            self.journal_len += 1;
        }
    }

    fn prune_dust(&mut self) {
        for rate in &mut self.rates {
            if *rate <= RATE_EPS {
                *rate = 0.0;
            }
        }
    }

    fn sent(&self, node: usize) -> f64 {
        (0..self.n).map(|to| self.rate(node, to)).sum()
    }

    fn received(&self, node: usize) -> f64 {
        (0..self.n).map(|from| self.rate(from, node)).sum()
    }

    fn outdegree(&self, node: usize) -> usize {
        (0..self.n)
            .filter(|&to| self.rate(node, to) > RATE_EPS)
            .count()
    }

    fn edges(&self) -> Vec<(usize, usize, f64)> {
        let mut edges = Vec::new();
        for from in 0..self.n {
            for to in 0..self.n {
                let rate = self.rate(from, to);
                if rate > RATE_EPS && from != to {
                    edges.push((from, to, rate));
                }
            }
        }
        edges
    }

    fn validate(&self) -> Vec<SchemeViolation> {
        let mut violations = Vec::new();
        for from in 0..self.n {
            let from_guarded = self.instance.class(from) == NodeClass::Guarded;
            let mut sent = 0.0;
            for to in 0..self.n {
                let rate = self.rate(from, to);
                sent += rate;
                if from == to {
                    if rate != 0.0 {
                        violations.push(SchemeViolation::InvalidRate { from, to, rate });
                    }
                    continue;
                }
                if !rate.is_finite() || rate < -RATE_EPS {
                    violations.push(SchemeViolation::InvalidRate { from, to, rate });
                }
                if rate > RATE_EPS && from_guarded && self.instance.class(to) == NodeClass::Guarded
                {
                    violations.push(SchemeViolation::FirewallViolated { from, to });
                }
            }
            let bandwidth = self.instance.bandwidth(from);
            if !eps::approx_le(sent, bandwidth) {
                violations.push(SchemeViolation::BandwidthExceeded {
                    node: from,
                    sent,
                    bandwidth,
                });
            }
        }
        violations
    }

    /// The document value of a scheme holding this matrix.
    fn value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "instance".to_string(),
                serde::Serialize::to_value(&self.instance),
            ),
            ("rates".to_string(), serde::Serialize::to_value(&self.rates)),
        ])
    }

    /// The serialized document of a scheme holding this matrix.
    fn document(&self) -> String {
        serde_json::to_string(&self.value()).unwrap()
    }

    /// A scheme deserialized from [`DenseModel::value`]. The value is used directly: the
    /// JSON text prints `-0.0` as `-0`, which parses back as the integer `0`.
    fn deserialize(&self) -> BroadcastScheme {
        serde::Deserialize::from_value(&self.value()).unwrap()
    }
}

/// One mutation of a random sequence. Node indices and values are drawn wide and
/// reduced modulo the instance size / the value pool when applied.
#[derive(Debug, Clone)]
enum Op {
    Set {
        from: usize,
        to: usize,
        value: usize,
    },
    Add {
        from: usize,
        to: usize,
        delta: usize,
    },
    /// Adds the exact negation of the current rate (a sign flip through zero), or the
    /// negation plus a sub-clamp residue that `add_rate` clamps back to `+0.0`.
    Cancel {
        from: usize,
        to: usize,
        residue: bool,
    },
    Prune,
}

/// Rates that stress the storage rule: `+0.0`, `-0.0`, dust on both sides of
/// [`RATE_EPS`], negatives inside and beyond the clamp window, and plain edges.
const VALUES: [f64; 13] = [
    0.0, -0.0, 1e-12, 5e-8, RATE_EPS, 2e-7, -1e-9, -0.5, 0.25, 1.0, 2.5, 3.0, 7.75,
];

/// A random [`Op`]: sets, adds, cancellations and prunes in the ratio 4 : 3 : 2 : 1.
fn op() -> impl Strategy<Value = Op> {
    (0u8..10, 0usize..64, 0usize..64, 0..VALUES.len()).prop_map(
        |(kind, from, to, value)| match kind {
            0..=3 => Op::Set { from, to, value },
            4..=6 => Op::Add {
                from,
                to,
                delta: value,
            },
            7 | 8 => Op::Cancel {
                from,
                to,
                residue: value % 2 == 1,
            },
            _ => Op::Prune,
        },
    )
}

/// A random valid instance with 1–5 receivers (small, so rows fill up completely).
fn instance() -> impl Strategy<Value = Instance> {
    (
        0.0_f64..12.0,
        proptest::collection::vec(0.0_f64..6.0, 0..=3),
        proptest::collection::vec(0.0_f64..6.0, 0..=2),
    )
        .prop_filter("at least one receiver", |(_, open, guarded)| {
            !open.is_empty() || !guarded.is_empty()
        })
        .prop_map(|(source, open, guarded)| Instance::new(source, open, guarded).unwrap())
}

/// A dense matrix for `n` nodes drawn from [`VALUES`], diagonal included.
fn matrix(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0..VALUES.len(), n * n)
        .prop_map(|picks| picks.into_iter().map(|pick| VALUES[pick]).collect())
}

/// Maps a wide index pair onto an off-diagonal pair of an `n`-node instance.
fn pair(n: usize, from: usize, to: usize) -> (usize, usize) {
    let from = from % n;
    let to = (from + 1 + to % (n - 1)) % n;
    (from, to)
}

fn apply(scheme: &mut BroadcastScheme, model: &mut DenseModel, op: &Op) {
    let n = model.n;
    match *op {
        Op::Set { from, to, value } => {
            let (from, to) = pair(n, from, to);
            scheme.set_rate(from, to, VALUES[value]);
            model.write(from, to, VALUES[value]);
        }
        Op::Add { from, to, delta } => {
            let (from, to) = pair(n, from, to);
            scheme.add_rate(from, to, VALUES[delta]);
            let new = eps::clamp_nonnegative(model.rate(from, to) + VALUES[delta]);
            model.write(from, to, new);
        }
        Op::Cancel { from, to, residue } => {
            let (from, to) = pair(n, from, to);
            let old = model.rate(from, to);
            let delta = if residue { -old - 1e-9 } else { -old };
            scheme.add_rate(from, to, delta);
            model.write(from, to, eps::clamp_nonnegative(old + delta));
        }
        Op::Prune => {
            scheme.prune_dust();
            model.prune_dust();
        }
    }
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

fn edge_bits(edges: &[(usize, usize, f64)]) -> Vec<(usize, usize, u64)> {
    edges
        .iter()
        .map(|&(from, to, rate)| (from, to, rate.to_bits()))
        .collect()
}

/// The arena's edges (endpoints and capacity bits, in edge order) and in-capacities.
fn arena_view(arena: &FlowArena) -> (Vec<(usize, usize, u64)>, Vec<u64>) {
    let edges = (0..arena.num_edges())
        .map(|edge| {
            let (from, to) = arena.edge_endpoints(edge);
            (from, to, arena.edge_capacity(edge).to_bits())
        })
        .collect();
    let in_caps = bits((0..arena.num_nodes()).map(|node| arena.in_capacity(node)));
    (edges, in_caps)
}

/// Asserts that every observable of `scheme` matches `model` bit for bit.
fn assert_matches(scheme: &BroadcastScheme, model: &DenseModel) {
    let n = model.n;
    for from in 0..n {
        for to in 0..n {
            assert_eq!(
                scheme.rate(from, to).to_bits(),
                model.rate(from, to).to_bits(),
                "rate({from}, {to})"
            );
        }
    }
    assert_eq!(
        bits((0..n).map(|node| scheme.sent(node))),
        bits((0..n).map(|node| model.sent(node))),
        "sent"
    );
    assert_eq!(
        bits((0..n).map(|node| scheme.received(node))),
        bits((0..n).map(|node| model.received(node))),
        "received"
    );
    let outdegrees: Vec<usize> = (0..n).map(|node| model.outdegree(node)).collect();
    assert_eq!(scheme.outdegrees(), outdegrees, "outdegrees");
    let edges = model.edges();
    assert_eq!(edge_bits(&scheme.edges()), edge_bits(&edges), "edges");
    let out_edges: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|from| {
            scheme
                .out_edges(from)
                .map(move |(to, rate)| (from, to, rate))
        })
        .collect();
    assert_eq!(edge_bits(&out_edges), edge_bits(&edges), "out_edges");
    assert_eq!(
        format!("{:?}", scheme.validate()),
        format!("{:?}", model.validate()),
        "validate"
    );
    assert_eq!(
        arena_view(&scheme.to_flow_arena()),
        arena_view(&FlowArena::from_edges(n, &edges)),
        "flow arena"
    );
    assert_eq!(
        serde_json::to_string(scheme).unwrap(),
        model.document(),
        "serialized document"
    );
    assert_eq!(scheme.edge_epoch(), model.edge_epoch, "edge epoch");
    assert_eq!(
        scheme.journal_bounds(),
        (model.journal_base, model.journal_base + model.journal_len),
        "journal bounds"
    );
}

/// Scheme and model for `instance`, empty or deserialized from `matrix`.
fn start(instance: &Instance, matrix: Option<Vec<f64>>) -> (BroadcastScheme, DenseModel) {
    match matrix {
        None => {
            let n = instance.num_nodes();
            (
                BroadcastScheme::new(instance.clone()),
                DenseModel::new(instance.clone(), vec![0.0; n * n]),
            )
        }
        Some(rates) => {
            let model = DenseModel::new(instance.clone(), rates);
            (model.deserialize(), model)
        }
    }
}

/// An instance with an optional deserialized starting matrix.
fn setup() -> impl Strategy<Value = (Instance, Option<Vec<f64>>)> {
    instance().prop_flat_map(|instance| {
        let n = instance.num_nodes();
        (Just(instance), 0u8..2, matrix(n)).prop_map(|(instance, from_document, rates)| {
            (instance, (from_document == 1).then_some(rates))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_rows_match_the_dense_model(
        setup in setup(),
        ops in proptest::collection::vec(op(), 0..48),
    ) {
        let (instance, matrix) = setup;
        let (mut scheme, mut model) = start(&instance, matrix);
        assert_matches(&scheme, &model);
        for op in &ops {
            apply(&mut scheme, &mut model, op);
            assert_matches(&scheme, &model);
        }
        // A clone and a round trip through the document hold the same rates.
        assert_matches(&scheme.clone(), &DenseModel::new(instance.clone(), model.rates.clone()));
        assert_matches(&model.deserialize(), &DenseModel::new(instance, model.rates.clone()));
    }

    #[test]
    fn equality_matches_the_dense_model(
        setup in setup(),
        shared in proptest::collection::vec(op(), 0..24),
        extra in proptest::collection::vec(op(), 0..3),
    ) {
        let (instance, matrix) = setup;
        let (mut a, mut model_a) = start(&instance, matrix);
        for op in &shared {
            apply(&mut a, &mut model_a, op);
        }
        let mut b = model_a.deserialize();
        let mut model_b = DenseModel::new(instance, model_a.rates.clone());
        for op in &extra {
            apply(&mut b, &mut model_b, op);
        }
        prop_assert_eq!(a == b, model_a.rates == model_b.rates);
        prop_assert_eq!(b == a, model_a.rates == model_b.rates);
    }
}

/// The signed-zero corner of the row and column sums: an empty row sums to `+0.0`, and
/// only a row whose every entry (diagonal included) is `-0.0` sums to `-0.0`.
#[test]
fn sums_keep_the_sign_of_zero_of_a_dense_pass() {
    let instance = Instance::open_only(4.0, vec![2.0, 1.0]).unwrap();
    let (scheme, model) = start(&instance, None);
    assert_matches(&scheme, &model);
    assert_eq!(scheme.sent(1).to_bits(), 0.0_f64.to_bits());

    let mut rates = vec![0.0; 9];
    rates[..3].fill(-0.0); // row 0, diagonal included
    for from in 0..3 {
        rates[from * 3 + 2] = -0.0; // column 2
    }
    let (scheme, model) = start(&instance, Some(rates));
    assert_matches(&scheme, &model);
    assert_eq!(scheme.sent(0).to_bits(), (-0.0_f64).to_bits());
    assert_eq!(scheme.received(2).to_bits(), (-0.0_f64).to_bits());
    assert_eq!(scheme.sent(1).to_bits(), 0.0_f64.to_bits());
    assert_eq!(scheme, BroadcastScheme::new(instance));
}
