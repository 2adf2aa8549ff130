//! Metrics, order statistics and output digests.

/// One reported metric: a value with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|metric| metric.name == name)
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation between order
/// statistics; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `numerator / denominator`, or `0.0` when nothing was attempted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// FNV-1a digest of deterministic outputs. Floats enter by their bit patterns, so two
/// digests agree only when the outputs are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    pub fn text(&mut self, text: &str) -> &mut Self {
        self.u64(text.len() as u64).bytes(text.as_bytes())
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Per-item output digests of one phase, checked against every earlier phase of the
/// same invocation: an item recomputed with a different output is a determinism failure.
#[derive(Debug, Default)]
pub struct DigestBook {
    items: std::collections::BTreeMap<usize, u64>,
}

impl DigestBook {
    /// Records `digest` for `item`; returns `false` when the item was seen before with a
    /// different digest.
    pub fn record(&mut self, item: usize, digest: u64) -> bool {
        *self.items.entry(item).or_insert(digest) == digest
    }

    /// Combined digest of items `0..count`, or `None` when one of them never ran.
    pub fn combined(&self, count: usize) -> Option<u64> {
        let mut digest = Digest::new();
        for item in 0..count {
            digest.u64(*self.items.get(&item)?);
        }
        Some(digest.value())
    }
}
