//! The event loop, monomorphized per protocol and trace mode.
//!
//! The event loop would otherwise re-decide three things for every event
//! it delivers: which protocol a message obeys (eager vs rendezvous, plus
//! the finite-buffer fallback), and whether completed steps are retained
//! as records or folded into a summary. All three are fixed for the
//! whole run the moment the config is validated. [`Spec`] lifts them to
//! compile-time constants: [`pump_events`] picks the matching
//! specialization once per run — plain, limited, checkpointed or
//! restored alike — and inside each of the six monomorphized copies of
//! [`pump`] the per-event branch tree, the early-set probes for messages
//! the protocol can never produce, the CTS gate check, and the
//! trace-mode branch in `finish_step` all fold away. The watchdog budgets,
//! the wall-clock deadline and the checkpoint cadence are checked inline
//! in the same loop; the checkpoint sink is a trait object, so it adds no
//! instantiations.
//!
//! This module is the one place that may `match` on [`Mode`] to steer
//! dispatch; the `mode-match-in-inline-handler` simlint rule keeps new
//! runtime mode branches from creeping back into the hot handlers.

use super::{Engine, Mode, TraceMode};
use crate::error::{Deadline, RunLimits, SimError};
use crate::snapshot::{CheckpointPolicy, Snapshot};

/// Compile-time facts about a run that the specialized handlers fold
/// branches with. Selected once per run by [`pump_events`].
pub(crate) trait Spec {
    /// Every message of the run is eager and the buffer is unbounded: no
    /// RTS/CTS/XferDone traffic, no early-RTS probes, no
    /// `outstanding_eager` accounting, no CTS gate.
    const PURE_EAGER: bool;
    /// Every message of the run is rendezvous: no eager payloads, no
    /// early-eager probes.
    const PURE_RDVZ: bool;
    /// The run's trace mode.
    const TRACE: TraceMode;
}

macro_rules! spec {
    ($(#[$doc:meta])* $name:ident, $eager:literal, $rdvz:literal, $trace:ident) => {
        $(#[$doc])*
        pub(crate) struct $name;

        impl Spec for $name {
            const PURE_EAGER: bool = $eager;
            const PURE_RDVZ: bool = $rdvz;
            const TRACE: TraceMode = TraceMode::$trace;
        }
    };
}

spec!(
    /// Unbounded-buffer eager run retaining a full trace.
    EagerFull, true, false, Full
);
spec!(
    /// Unbounded-buffer eager run folding a summary.
    EagerSummary, true, false, Summary
);
spec!(
    /// Pure rendezvous run retaining a full trace.
    RdvzFull, false, true, Full
);
spec!(
    /// Pure rendezvous run folding a summary.
    RdvzSummary, false, true, Summary
);
spec!(
    /// Eager with a finite buffer: the fallback keeps both protocols in
    /// play, so only the trace mode is pinned.
    MixedFull, false, false, Full
);
spec!(
    /// Finite-buffer eager run folding a summary.
    MixedSummary, false, false, Summary
);

/// Drain the queue with the handlers monomorphized for `S`, tripping the
/// `limits` watchdog, stopping at a passed [`Deadline`] (checked at the
/// first event and every [`Deadline::EVERY`] after it) and handing a
/// snapshot to `sink` whenever the `policy` cadence comes due.
fn pump<S: Spec>(
    e: &mut Engine,
    limits: &RunLimits,
    policy: &CheckpointPolicy,
    sink: &mut dyn FnMut(&Snapshot),
) -> Result<(), SimError> {
    // Checkpoint cadence is measured from where *this* run started, so a
    // restored engine checkpoints relative to its resume point. The
    // counters are deliberately not part of the snapshot: checkpoint
    // timing never feeds back into simulation state.
    let mut last_ckpt_events = e.q.delivered();
    let mut next_ckpt_time = policy.every_sim_time.map(|dt| e.q.now() + dt);
    let (deadline, first) = (e.deadline, e.q.delivered());
    while let Some((now, ev)) = e.q.pop() {
        e.stats.peak_queue = e.stats.peak_queue.max(e.q.len() + 1);
        if let Some(deadline) = deadline {
            let seen = e.q.delivered() - 1;
            if (seen - first).is_multiple_of(Deadline::EVERY) && deadline.passed() {
                return Err(SimError::DeadlinePassed { events: seen });
            }
        }
        if let Some(budget) = limits.max_sim_time {
            if now > budget {
                return Err(SimError::Watchdog {
                    at: now,
                    events: e.q.delivered(),
                    why: format!("sim time budget t = {budget} exceeded"),
                });
            }
        }
        if let Some(max_events) = limits.max_events {
            if e.q.delivered() > max_events {
                return Err(SimError::Watchdog {
                    at: now,
                    events: e.q.delivered(),
                    why: format!("event budget {max_events} exceeded"),
                });
            }
        }
        e.dispatch_ev::<S>(now, ev);
        let events_due = policy
            .every_events
            .is_some_and(|n| e.q.delivered() - last_ckpt_events >= n);
        let time_due = next_ckpt_time.is_some_and(|t| now >= t);
        if events_due || time_due {
            last_ckpt_events = e.q.delivered();
            if let (Some(dt), Some(t)) = (policy.every_sim_time, next_ckpt_time) {
                let mut next = t;
                while now >= next {
                    next += dt;
                }
                next_ckpt_time = Some(next);
            }
            sink(&e.checkpoint());
        }
    }
    Ok(())
}

/// Run the event loop specialized for the engine's protocol and trace
/// mode. A finite eager buffer (`track_eager`) keeps the rendezvous
/// fallback reachable, so those runs pin only the trace mode.
pub(crate) fn pump_events(
    e: &mut Engine,
    limits: &RunLimits,
    policy: &CheckpointPolicy,
    sink: &mut dyn FnMut(&Snapshot),
) -> Result<(), SimError> {
    let summary = e.mode == TraceMode::Summary;
    match (e.base_mode, e.track_eager, summary) {
        (Mode::Eager, false, false) => pump::<EagerFull>(e, limits, policy, sink),
        (Mode::Eager, false, true) => pump::<EagerSummary>(e, limits, policy, sink),
        (Mode::Eager, true, false) => pump::<MixedFull>(e, limits, policy, sink),
        (Mode::Eager, true, true) => pump::<MixedSummary>(e, limits, policy, sink),
        (Mode::Rendezvous, _, false) => pump::<RdvzFull>(e, limits, policy, sink),
        (Mode::Rendezvous, _, true) => pump::<RdvzSummary>(e, limits, policy, sink),
    }
}
