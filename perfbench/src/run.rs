//! State of one benchmark invocation: arguments, tracer, metrics and failure count.

use crate::stats::{median, Metrics};
use crate::trace::Tracer;
use std::time::Instant;

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Whether this is the traced invocation (`--trace 1`).
    pub traced: bool,
    pub tracer: Tracer,
    pub e2e: Metrics,
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure reasons, for the report.
    pub problems: Vec<String>,
    /// Named digests of deterministic outputs.
    pub digests: Vec<(&'static str, u64)>,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        Run {
            seed,
            seconds,
            traced,
            tracer: Tracer::new(),
            e2e: Metrics::default(),
            layer: Metrics::default(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            digests: Vec::new(),
        }
    }

    /// Counts one failed operation (already counted as attempted) with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(reason);
        }
    }

    /// An independent input seed for `stream`, derived from the workload seed.
    pub fn stream(&self, stream: u64) -> u64 {
        bmp_serve::mix_seed(self.seed, stream)
    }

    /// How long each of the traced invocation's two phases (untraced, then traced) lasts.
    pub fn phase_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Records a phase digest; every digest of one invocation must agree with the first.
    /// Each phase name is kept once.
    pub fn digest(&mut self, phase: &'static str, digest: Option<u64>) {
        let Some(digest) = digest else {
            self.fail(format!("{phase}: digest items missing"));
            return;
        };
        if let Some(&(first, value)) = self.digests.first() {
            if value != digest {
                self.fail(format!(
                    "{phase}: digest {digest:016x} differs from {first} digest {value:016x}"
                ));
            }
        }
        if !self.digests.iter().any(|&(name, _)| name == phase) {
            self.digests.push((phase, digest));
        }
    }
}

/// Runs `build` [`SETUP_REPEATS`] times and returns the last result with the median
/// wall time in seconds.
pub fn setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut result = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        result = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (result.expect("at least one set-up"), median(&times))
}

/// Calls `op(0)`, `op(1)`, … until `seconds` of wall time have passed and at least
/// `min_ops` calls were made. Returns the number of calls.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut ops = 0;
    while ops < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(ops);
        ops += 1;
    }
    ops
}
