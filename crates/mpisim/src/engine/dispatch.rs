//! Protocol- and trace-mode-monomorphized event dispatch.
//!
//! The general event loop re-decides three things for every event it
//! delivers: which protocol a message obeys (eager vs rendezvous, plus
//! the finite-buffer fallback), and whether completed steps are retained
//! as records or folded into a summary. All three are fixed for the
//! whole run the moment the config is validated. [`Spec`] lifts them to
//! compile-time constants: `run_loop` picks the matching specialization
//! once, and inside each monomorphized copy the per-event branch tree,
//! the early-set probes for messages the protocol can never produce, the
//! CTS gate check, and the trace-mode branch in `finish_step` all fold
//! away.
//!
//! This module is the one place that may `match` on [`Mode`] to steer
//! dispatch; the `mode-match-in-inline-handler` simlint rule keeps new
//! runtime mode branches from creeping back into the hot handlers.

use super::{Engine, Mode, TraceMode};

/// Compile-time facts about a run that the specialized handlers fold
/// branches with. Selected once per run by [`pump_plain`].
pub(crate) trait Spec {
    /// Every message of the run is eager and the buffer is unbounded: no
    /// RTS/CTS/XferDone traffic, no early-RTS probes, no
    /// `outstanding_eager` accounting, no CTS gate.
    const PURE_EAGER: bool;
    /// Every message of the run is rendezvous: no eager payloads, no
    /// early-eager probes.
    const PURE_RDVZ: bool;
    /// Trace mode when known at selection time. `None` only for
    /// [`General`], whose callers serve both modes from one instantiation.
    const TRACE: Option<TraceMode>;
}

/// Fallback spec with nothing pinned: behaves exactly like the
/// unspecialized handlers. The limited/checkpointed loop uses it
/// unconditionally — checkpoint replay must not depend on which
/// specialization the original run had.
pub(crate) struct General;

impl Spec for General {
    const PURE_EAGER: bool = false;
    const PURE_RDVZ: bool = false;
    const TRACE: Option<TraceMode> = None;
}

macro_rules! spec {
    ($(#[$doc:meta])* $name:ident, $eager:literal, $rdvz:literal, $trace:ident) => {
        $(#[$doc])*
        pub(crate) struct $name;

        impl Spec for $name {
            const PURE_EAGER: bool = $eager;
            const PURE_RDVZ: bool = $rdvz;
            const TRACE: Option<TraceMode> = Some(TraceMode::$trace);
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

/// Drain the queue with the handlers monomorphized for `S`.
fn pump<S: Spec>(e: &mut Engine) {
    while let Some((now, ev)) = e.q.pop() {
        e.stats.peak_queue = e.stats.peak_queue.max(e.q.len() + 1);
        e.dispatch_ev::<S>(now, ev);
    }
}

/// The budget- and checkpoint-free loop: pick the specialization that
/// matches the run's protocol and trace mode, then drain the queue with
/// it. A finite eager buffer (`track_eager`) keeps the rendezvous
/// fallback reachable, so those runs pin only the trace mode.
pub(crate) fn pump_plain(e: &mut Engine) {
    let summary = e.mode == TraceMode::Summary;
    match (e.base_mode, e.track_eager, summary) {
        (Mode::Eager, false, false) => pump::<EagerFull>(e),
        (Mode::Eager, false, true) => pump::<EagerSummary>(e),
        (Mode::Eager, true, false) => pump::<MixedFull>(e),
        (Mode::Eager, true, true) => pump::<MixedSummary>(e),
        (Mode::Rendezvous, _, false) => pump::<RdvzFull>(e),
        (Mode::Rendezvous, _, true) => pump::<RdvzSummary>(e),
    }
}
