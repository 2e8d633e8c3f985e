//! Result-returning run paths.
//!
//! The original engine panicked on every failure mode (invalid config,
//! deadlock). That is fine for the paper-figure binaries but wrong for
//! library callers — in particular the supervised sweep runner, which
//! must distinguish "this scenario's fault plan starves the run" from
//! "the harness itself is broken". [`SimError`] carries those outcomes as
//! values; the panicking entry points remain as thin wrappers.

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use simdes::SimTime;

use crate::diag::{render_report, Diagnostic};

/// Why a simulation run failed to produce a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration was rejected before the first event.
    InvalidConfig(
        /// The rejecting diagnostics (at least one error).
        Vec<Diagnostic>,
    ),
    /// The event queue drained with unfinished ranks: a configuration
    /// deadlock, a fail-stop crash, or a lost transfer starved the run.
    Stalled {
        /// Ranks that reached their final step.
        done: u32,
        /// Total ranks in the job.
        ranks: u32,
        /// Human-readable wait-for analysis from the engine.
        report: String,
    },
    /// A [`RunLimits`] budget was exceeded: the scenario is live but ran
    /// past the caller's sim-time or event allowance.
    Watchdog {
        /// Sim time when the budget tripped.
        at: SimTime,
        /// Events processed so far.
        events: u64,
        /// Which budget tripped, e.g. `"sim time budget 12ms exceeded"`.
        why: String,
    },
    /// A checkpoint snapshot was rejected at decode or restore time:
    /// unsupported version (`RT003`), torn/corrupt payload (`RT004`), or a
    /// snapshot taken under a different configuration (`RT005`).
    Snapshot(
        /// The rejecting diagnostic, carrying the RT code and detail.
        Diagnostic,
    ),
    /// The run's wall-clock [`Deadline`] passed. Unlike the [`RunLimits`]
    /// budgets this depends on the host, so the run just stops: the
    /// error names no sim time and is never replayed.
    DeadlinePassed {
        /// Events processed before the check that tripped.
        events: u64,
    },
}

impl SimError {
    /// This failure as `RT0xx` runtime diagnostics, one per line of
    /// detail, for uniform rendering next to `simcheck`'s static `SC0xx`
    /// codes.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        match self {
            SimError::InvalidConfig(diags) => diags,
            SimError::Stalled {
                done,
                ranks,
                report,
            } => vec![Diagnostic::error(
                "RT001",
                "run",
                format!("{done}/{ranks} ranks finished"),
                report,
            )],
            SimError::Watchdog { at, events, why } => vec![Diagnostic::error(
                "RT002",
                "run",
                format!("t = {at}, {events} events"),
                why,
            )],
            SimError::Snapshot(diag) => vec![diag],
            SimError::DeadlinePassed { events } => vec![Diagnostic::error(
                "RT006",
                "run",
                format!("{events} events"),
                "wall-clock deadline passed",
            )],
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(diags) => {
                write!(f, "invalid SimConfig:\n{}", render_report(diags))
            }
            SimError::Stalled {
                done,
                ranks,
                report,
            } => write!(
                f,
                "simulation stalled with {done}/{ranks} ranks finished:\n{report}"
            ),
            SimError::Watchdog { at, events, why } => {
                write!(
                    f,
                    "watchdog tripped at t = {at} after {events} events: {why}"
                )
            }
            SimError::Snapshot(diag) => write!(f, "snapshot rejected: {diag}"),
            SimError::DeadlinePassed { events } => {
                write!(f, "wall-clock deadline passed after {events} events")
            }
        }
    }
}

impl Error for SimError {}

/// Optional budgets for a supervised run. The defaults impose no limits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunLimits {
    /// Abort with [`SimError::Watchdog`] when the next event lies past
    /// this sim time.
    pub max_sim_time: Option<SimTime>,
    /// Abort with [`SimError::Watchdog`] after this many events.
    pub max_events: Option<u64>,
}

impl RunLimits {
    /// No budgets: the run is bounded only by its own event supply.
    pub fn none() -> Self {
        RunLimits::default()
    }

    /// Budget only sim time.
    pub fn sim_time(t: SimTime) -> Self {
        RunLimits {
            max_sim_time: Some(t),
            max_events: None,
        }
    }

    /// Budget only event count.
    pub fn events(n: u64) -> Self {
        RunLimits {
            max_sim_time: None,
            max_events: Some(n),
        }
    }
}

/// A wall-clock instant past which a run stops itself with
/// [`SimError::DeadlinePassed`]: the fused kernel checks it once per
/// step, the event loop every [`Deadline::EVERY`] delivered events
/// starting with the first. Engine construction happens before the first
/// check, so it always completes. Set it with [`crate::Engine::with_deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Instant);

impl Deadline {
    /// Delivered events between two checks in the event loop.
    pub const EVERY: u64 = 1024;

    /// The deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Deadline {
        Deadline(wall_now() + timeout)
    }

    /// Has the deadline passed?
    pub fn passed(self) -> bool {
        wall_now() >= self.0
    }
}

/// The engine's one wall-clock read. Sim results never depend on it: a
/// deadline only decides whether a run finishes or stops with
/// [`SimError::DeadlinePassed`], so supervisors can bound a runaway
/// attempt on the thread it runs on instead of abandoning that thread.
fn wall_now() -> Instant {
    Instant::now() // simlint: allow(wall-clock) — decides only whether a run stops
}

#[cfg(test)]
mod tests {
    use simdes::SimDuration;

    use super::*;

    #[test]
    fn display_and_diagnostics_carry_the_detail() {
        let e = SimError::Stalled {
            done: 3,
            ranks: 8,
            report: "rank 4 crashed (fail-stop)".to_string(),
        };
        let text = e.to_string();
        assert!(text.contains("3/8 ranks finished"), "{text}");
        assert!(text.contains("fail-stop"), "{text}");
        let diags = e.into_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RT001");
        assert!(diags[0].is_error());

        let w = SimError::Watchdog {
            at: SimTime(5_000),
            events: 12,
            why: format!("sim time budget {} exceeded", SimDuration::from_micros(5)),
        };
        assert_eq!(w.clone().into_diagnostics()[0].code, "RT002");
        assert!(w.to_string().contains("after 12 events"), "{w}");

        let d = SimError::DeadlinePassed { events: 2048 };
        assert_eq!(d.clone().into_diagnostics()[0].code, "RT006");
        assert!(d.to_string().contains("after 2048 events"), "{d}");
    }

    #[test]
    fn a_zero_deadline_has_passed_and_a_far_one_has_not() {
        assert!(Deadline::after(Duration::ZERO).passed());
        assert!(!Deadline::after(Duration::from_secs(3600)).passed());
    }

    #[test]
    fn limits_constructors() {
        assert_eq!(RunLimits::none(), RunLimits::default());
        assert_eq!(
            RunLimits::sim_time(SimTime(9)).max_sim_time,
            Some(SimTime(9))
        );
        assert_eq!(RunLimits::events(7).max_events, Some(7));
    }
}
