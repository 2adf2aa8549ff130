//! Fleet supervision: the types behind crash isolation, quarantine, the stuck-session
//! watchdog, bounded retry, and fleet-level checkpoint/resume.
//!
//! The supervision state machine (per admitted session):
//!
//! ```text
//!                       ┌────────────────────────────────────────────────┐
//!                       ▼                                                │ retry wave
//!   admitted ──▶ running (stepped round-robin by its shard)              │ (seeded
//!                   │        │           │            │                  │  backoff)
//!                   │ done   │ panic     │ watchdog   │ round budget     │
//!                   ▼        ▼           ▼            ▼                  │
//!               completed  quarantined(Panic)  quarantined(Stuck)  quarantined(Budget)
//!                            │   attempt < R                │            │
//!                            └──── disposition Retried ─────┼────────────┘
//!                                  attempt = R              ▼
//!                                  disposition Permanent (metrics exclude the session)
//! ```
//!
//! Only a [`QuarantineReason::Panic`] is treated as transient and re-admitted (from the
//! session's last per-session checkpoint, up to [`SupervisionConfig::max_retries`]
//! times); a stuck or over-budget session is deterministically wedged — re-running it
//! would reproduce the wedge — so those quarantines are immediately permanent.
//!
//! Everything here is a pure function of `(FleetConfig, session id, attempt)`: panic
//! tags, retry waves, stall counters and checkpoint cadence never depend on shard
//! layout or wall-clock, which is what keeps supervised fleet reports byte-identical
//! across shard counts.

use crate::admission::AdmissionDecision;
use crate::fleet::FleetConfig;
use crate::metrics::SessionStats;
use bmp_sim::RunCheckpoint;
use serde::{Deserialize, Serialize};

/// Watchdog, retry and checkpoint-cadence parameters of a supervised fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisionConfig {
    /// Hard per-session round budget: a session still unfinished after this many
    /// rounds is quarantined with [`QuarantineReason::Budget`]. `None` derives the
    /// budget from the nominal completion round count times a generous slack
    /// ([`SupervisionConfig::round_budget`]).
    pub max_rounds: Option<usize>,
    /// No-progress deadline: after this many *consecutive* rounds in which some
    /// active receiver gained nothing
    /// ([`bmp_sim::AdaptiveRun::last_round_progressed`]), the watchdog forces one
    /// repair attempt; a second full deadline without progress quarantines the
    /// session with [`QuarantineReason::Stuck`]. `None` derives it from the round
    /// budget ([`SupervisionConfig::no_progress_deadline`]).
    pub no_progress_rounds: Option<usize>,
    /// Rounds between in-memory per-session checkpoints (the state a crash-isolated
    /// shard restarts its surviving sessions from, and the state a transient retry
    /// resumes from). Must be at least 1.
    pub checkpoint_rounds: usize,
    /// Re-admissions granted to a transiently quarantined (panicked) session before
    /// its quarantine becomes permanent.
    pub max_retries: u32,
}

/// Slack multiplier of the derived round budget: nominal completion takes about
/// `chunks / 2` rounds (the fleet scales every session to ~2 chunks per round), so the
/// derived budget tolerates sessions running two orders of magnitude slower than
/// nominal before calling them runaway.
pub const ROUND_BUDGET_SLACK: usize = 64;

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            max_rounds: None,
            no_progress_rounds: None,
            checkpoint_rounds: 16,
            max_retries: 2,
        }
    }
}

impl SupervisionConfig {
    /// The effective per-session round budget for a `chunks`-chunk broadcast:
    /// [`SupervisionConfig::max_rounds`] when set, otherwise
    /// `ROUND_BUDGET_SLACK × (chunks / 2 + 16)` (nominal completion × slack, with a
    /// floor covering ramp-up rounds on tiny broadcasts).
    #[must_use]
    pub fn round_budget(&self, chunks: usize) -> usize {
        self.max_rounds
            .unwrap_or(ROUND_BUDGET_SLACK * (chunks / 2 + 16))
    }

    /// The effective no-progress deadline for a `chunks`-chunk broadcast:
    /// [`SupervisionConfig::no_progress_rounds`] when set, otherwise a sixteenth of
    /// the round budget with a floor of 64 — long enough that churn-degraded but
    /// live sessions never trip it, short enough that a truly wedged session is
    /// escalated well before its budget runs out.
    #[must_use]
    pub fn no_progress_deadline(&self, chunks: usize) -> usize {
        self.no_progress_rounds
            .unwrap_or_else(|| (self.round_budget(chunks) / 16).max(64))
    }
}

/// An injected session panic: the shard panics (inside its `catch_unwind`) the moment
/// the named session is about to step the named round. This is the serve-level chaos
/// hook the crash-isolation tests drive; it is keyed purely on
/// `(session, round, attempt)`, never on shard layout, so the blast radius replays
/// identically across shard counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionPanic {
    /// The session whose step panics.
    pub session: usize,
    /// The session-local round (its `rounds_run()`) at which the panic fires.
    pub round: usize,
    /// `true` fires only on the session's first admission (attempt 0), so a retried
    /// session replays past the site cleanly; `false` fires on every attempt and
    /// exhausts the retry budget.
    pub transient: bool,
}

/// An injected session wedge: the named session's overlay is silently replaced with an
/// edgeless one at the named round ([`bmp_sim::AdaptiveRun::replace_overlay`]). The
/// control plane is not told, so the session stops progressing without any membership
/// change — exactly the failure mode the stuck-session watchdog exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionWedge {
    /// The session to wedge.
    pub session: usize,
    /// The session-local round at which the wedge is installed.
    pub round: usize,
}

/// Deterministic serve-level chaos: which sessions panic and which are wedged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionFaults {
    /// Injected step panics.
    pub panics: Vec<SessionPanic>,
    /// Injected overlay wedges.
    pub wedges: Vec<SessionWedge>,
}

impl SessionFaults {
    /// Whether no chaos is configured at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty() && self.wedges.is_empty()
    }
}

/// Why a session was quarantined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// The session's step (or build) panicked inside the shard's `catch_unwind`.
    Panic {
        /// Deterministic panic-site tag: the panic payload when it was a string
        /// (every panic this workspace raises is), `"opaque panic payload"` otherwise.
        tag: String,
    },
    /// The no-progress watchdog fired twice: a full deadline without progress forced
    /// a repair attempt, and a second full deadline passed still without progress.
    Stuck {
        /// Consecutive non-progressing rounds observed when the session was given up.
        rounds_without_progress: usize,
    },
    /// The session exceeded its hard round budget without completing.
    Budget {
        /// Rounds the session had run when the budget cut it off.
        rounds: usize,
    },
}

/// What happened to a session after its quarantine was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Disposition {
    /// The session is re-admitted into a later wave (seeded backoff), resuming from
    /// its last per-session checkpoint.
    Retried {
        /// The wave the retry was scheduled into.
        wave: usize,
    },
    /// The session is permanently out; fleet metrics exclude it.
    Permanent,
}

/// One line of the deterministic quarantine log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// The quarantined session.
    pub session: usize,
    /// The wave it was running in when quarantined.
    pub wave: usize,
    /// Which admission this was: 0 for the original, `k` for its `k`-th retry.
    pub attempt: u32,
    /// The session-local round at which the failure was observed.
    pub round: usize,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
    /// Whether it gets another chance.
    pub disposition: Disposition,
}

/// The mutable state of one in-flight session's fault script (the cursor of
/// [`bmp_core::InjectedFaults`]), captured alongside its [`RunCheckpoint`] so a
/// restarted session replays the remaining scheduled faults identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultProgress {
    /// Times the solve site was reached.
    pub solve_reached: u64,
    /// Times the verify site was reached.
    pub verify_reached: u64,
    /// Times the probe site was reached.
    pub probe_reached: u64,
    /// Scheduled faults that have fired.
    pub fired: u64,
}

impl FaultProgress {
    /// Captures the cursor of an installed fault script.
    #[must_use]
    pub fn capture(faults: &bmp_core::InjectedFaults) -> Self {
        let (reached, fired) = faults.progress();
        FaultProgress {
            solve_reached: reached[0],
            verify_reached: reached[1],
            probe_reached: reached[2],
            fired,
        }
    }

    /// Restores this cursor onto a freshly built script from the same plan.
    pub fn restore(&self, faults: &mut bmp_core::InjectedFaults) {
        faults.restore_progress(
            [self.solve_reached, self.verify_reached, self.probe_reached],
            self.fired,
        );
    }
}

/// A per-session supervision checkpoint: the [`RunCheckpoint`] of PR 6 plus the
/// supervision-layer state that must survive a restart (fault-script cursor, watchdog
/// stall counter, whether the forced repair was already spent). Taken every
/// [`SupervisionConfig::checkpoint_rounds`] rounds; a crash-isolated shard restarts
/// its surviving sessions from these, and a transient retry resumes from the
/// panicking session's last one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SavedSessionState {
    /// The complete resumable run state (session, churn cursor, timeline, controller).
    pub run: RunCheckpoint,
    /// Session-local rounds run when the checkpoint was taken.
    pub rounds: usize,
    /// Fault-script cursor, when a fault plan is installed.
    pub fault_progress: Option<FaultProgress>,
    /// Consecutive non-progressing rounds observed so far.
    pub stall: usize,
    /// Whether the watchdog's one forced repair attempt was already spent.
    pub forced: bool,
}

/// One session the fleet still has to run (or finish): its identity, the wave it is
/// scheduled into, which attempt this is, and — for a session already in flight when
/// the checkpoint was taken, or a retry resuming after a panic — the saved state to
/// resume from (`None` means build it fresh from the fleet config).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingEntry {
    /// The session id.
    pub session: usize,
    /// The wave it runs in.
    pub wave: usize,
    /// Which admission this is (0 = original).
    pub attempt: u32,
    /// Saved state to resume from, when the session was already in flight.
    pub state: Option<SavedSessionState>,
}

/// Format version of the [`FleetCheckpoint`] document. Bump it whenever the document's
/// shape or meaning changes, so an old checkpoint is refused instead of misread.
pub const FLEET_CHECKPOINT_VERSION: u32 = 1;

/// A resumable snapshot of a whole fleet: the configuration it ran under, the
/// admission log (revalidated on resume — the coordinator recomputes it from the
/// config and the two must agree), the completed rows and quarantine log so far, and
/// every session still pending with its in-flight state. Self-contained: resuming
/// needs this document and nothing else, and the resumed fleet's final report is
/// byte-identical to the uninterrupted run's, at any shard count.
///
/// Checkpoint *documents* are not required to be shard-agnostic (the embedded config
/// echoes the shard count that wrote them); only the final [`crate::FleetReport`] is.
///
/// Deserialization rejects a document that cannot resume under the configuration it
/// carries (an invalid configuration, an admission log that does not match it, a
/// session id outside the fleet, or a saved run that does not resume), so a damaged
/// file is a JSON error, not an abort.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetCheckpoint {
    /// Always [`FLEET_CHECKPOINT_VERSION`]; a document whose version is missing or
    /// different is rejected before anything else is read.
    pub(crate) format_version: u32,
    /// The fleet configuration the run was started with.
    pub config: FleetConfig,
    /// The coordinator's admission log.
    pub admissions: Vec<AdmissionDecision>,
    /// The next wave the coordinator would run.
    pub next_wave: usize,
    /// Rows of sessions that already completed, in session-id order.
    pub completed: Vec<SessionStats>,
    /// The quarantine log so far.
    pub quarantined: Vec<QuarantineRecord>,
    /// Sessions still to run, sorted by `(wave, session, attempt)`.
    pub pending: Vec<PendingEntry>,
}

impl Deserialize for FleetCheckpoint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::DeError::expected("map", "FleetCheckpoint"))?;
        bmp_sim::adapt::check_format_version(obj, FLEET_CHECKPOINT_VERSION)?;
        let field = |name: &str| serde::field(obj, name, "FleetCheckpoint");
        let checkpoint = FleetCheckpoint {
            format_version: FLEET_CHECKPOINT_VERSION,
            config: Deserialize::from_value(field("config")?)?,
            admissions: Deserialize::from_value(field("admissions")?)?,
            next_wave: Deserialize::from_value(field("next_wave")?)?,
            completed: Deserialize::from_value(field("completed")?)?,
            quarantined: Deserialize::from_value(field("quarantined")?)?,
            pending: Deserialize::from_value(field("pending")?)?,
        };
        crate::fleet::check_resumable(&checkpoint).map_err(|error| {
            serde::DeError::custom(format!("invalid fleet checkpoint: {error}"))
        })?;
        Ok(checkpoint)
    }
}

impl FleetCheckpoint {
    /// Serializes the checkpoint as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet checkpoint serializes")
    }

    /// Parses a checkpoint back from [`FleetCheckpoint::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the parse or shape error when `text` is not a valid checkpoint.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_budgets_scale_with_chunks_and_respect_overrides() {
        let defaults = SupervisionConfig::default();
        assert_eq!(defaults.round_budget(60), ROUND_BUDGET_SLACK * 46);
        assert_eq!(defaults.round_budget(24), ROUND_BUDGET_SLACK * 28);
        assert!(defaults.no_progress_deadline(24) >= 64);
        assert!(defaults.no_progress_deadline(24) < defaults.round_budget(24));
        let pinned = SupervisionConfig {
            max_rounds: Some(5),
            no_progress_rounds: Some(3),
            ..SupervisionConfig::default()
        };
        assert_eq!(pinned.round_budget(60), 5);
        assert_eq!(pinned.no_progress_deadline(60), 3);
    }

    #[test]
    fn fault_progress_roundtrips_through_capture_and_restore() {
        let mut script = bmp_core::InjectedFaults::new(vec![0, 2], vec![1], vec![]);
        script.intercept(bmp_core::FaultSite::Solve);
        script.intercept(bmp_core::FaultSite::Verify);
        script.intercept(bmp_core::FaultSite::Verify);
        let progress = FaultProgress::capture(&script);
        let mut rebuilt = bmp_core::InjectedFaults::new(vec![0, 2], vec![1], vec![]);
        progress.restore(&mut rebuilt);
        assert_eq!(rebuilt, script);
        // The restored script continues exactly where the original would.
        assert_eq!(
            rebuilt.intercept(bmp_core::FaultSite::Solve),
            script.intercept(bmp_core::FaultSite::Solve)
        );
    }

    #[test]
    fn quarantine_types_roundtrip_through_json() {
        let record = QuarantineRecord {
            session: 7,
            wave: 1,
            attempt: 2,
            round: 33,
            reason: QuarantineReason::Panic {
                tag: "injected session panic (session 7, round 33)".into(),
            },
            disposition: Disposition::Retried { wave: 3 },
        };
        let json = serde_json::to_string(&record).unwrap();
        let back: QuarantineRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
        let stuck = QuarantineReason::Stuck {
            rounds_without_progress: 96,
        };
        let back: QuarantineReason =
            serde_json::from_str(&serde_json::to_string(&stuck).unwrap()).unwrap();
        assert_eq!(back, stuck);
    }
}
