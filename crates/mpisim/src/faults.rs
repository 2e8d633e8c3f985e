//! Deterministic fault injection.
//!
//! The paper injects exactly one kind of fault — a one-off compute delay —
//! and studies its propagation. A [`FaultPlan`] generalizes the injection
//! machinery to the fault classes a production message-passing system
//! actually sees, while keeping the simulation bit-reproducible:
//!
//! * **Message faults** ([`MessageFaults`]): every payload, RTS, and CTS
//!   transfer is dropped or corrupted with a seeded per-directed-link
//!   probability. A failed copy triggers a sender-side retransmission
//!   after a timeout with capped exponential backoff; when the retry
//!   budget is exhausted the transfer is *lost* and the run ends in a
//!   [`crate::SimError::Stalled`] report instead of a trace.
//! * **Link degradation** ([`LinkDegradation`]): over a sim-time window, a
//!   directed link (or all links) has its latency stretched and its
//!   bandwidth divided by constant factors (see
//!   `netmodel::PointToPoint::degraded`).
//! * **Rank faults** ([`RankFault`]): a rank stalls for a fixed duration
//!   at the start of a step's execution phase, or crashes there — either
//!   recovering after a configurable outage (the outage time is accounted
//!   like an injected delay) or fail-stop, never finishing the run.
//!
//! Everything flows through the existing event queue with RNG streams
//! derived from the master seed (`"fault-link"` per directed link), so a
//! fault-injected trace is bit-identical across re-runs and thread counts
//! for a fixed seed. Retransmission delays are computed *at send time*:
//! the engine draws the fate of every copy up front and schedules the
//! final successful copy's arrival directly, which keeps the event count
//! per transfer at one.
//!
//! Semantics, diagnostics (SC013–SC016), and worked examples are
//! documented in `docs/FAULTS.md`.

use simdes::{SimDuration, SimRng, SimTime};

use crate::diag::Diagnostic;

/// Per-transfer drop/corrupt faults with timeout + retransmission.
///
/// Each copy of a transfer is dropped with probability `drop_prob`; a
/// delivered copy is corrupted (delivered but rejected by the receiver's
/// checksum) with probability `corrupt_prob`. Either failure makes the
/// sender wait one retransmission timeout and send a fresh copy; the
/// timeout starts at `rto` and multiplies by `backoff` per failure, capped
/// at `max_rto`. After `max_retries` retransmissions the transfer is lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageFaults {
    /// Probability that one copy never arrives.
    pub drop_prob: f64,
    /// Probability that an arriving copy is rejected as corrupt.
    pub corrupt_prob: f64,
    /// Initial retransmission timeout.
    pub rto: SimDuration,
    /// Multiplicative backoff factor per failed copy (≥ 1).
    pub backoff: f64,
    /// Upper bound on the backed-off timeout.
    pub max_rto: SimDuration,
    /// Retransmissions allowed per transfer before it counts as lost.
    pub max_retries: u32,
}

impl Default for MessageFaults {
    /// Lossless defaults with TCP-flavoured retransmission parameters:
    /// 100 µs initial timeout, doubling per failure, capped at 10 ms,
    /// 16 retries.
    fn default() -> Self {
        MessageFaults {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            rto: SimDuration::from_micros(100),
            backoff: 2.0,
            max_rto: SimDuration::from_millis(10),
            max_retries: 16,
        }
    }
}

/// The sampled fate of one transfer under [`MessageFaults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// A copy eventually arrived intact.
    Delivered {
        /// Copies sent in total (1 = no failures).
        attempts: u32,
        /// Copies that were dropped in flight.
        dropped: u32,
        /// Copies that arrived corrupt.
        corrupted: u32,
        /// Total backoff delay accumulated before the successful copy
        /// departed.
        extra_delay: SimDuration,
    },
    /// Every copy failed; the transfer is lost for good.
    Lost {
        /// Copies sent in total.
        attempts: u32,
        /// Copies that were dropped in flight.
        dropped: u32,
        /// Copies that arrived corrupt.
        corrupted: u32,
    },
}

impl MessageFaults {
    /// Do these parameters ever fail a transfer?
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.corrupt_prob > 0.0
    }

    /// Sample the complete fate of one transfer from `rng`: how many
    /// copies fail (and how), and the total backoff delay before the
    /// successful copy departs. Deterministic given the RNG state; the
    /// engine owns one stream per directed link.
    pub fn sample_delivery(&self, rng: &mut SimRng) -> Delivery {
        let mut extra = SimDuration::ZERO;
        let mut rto = self.rto.min(self.max_rto);
        let mut dropped = 0u32;
        let mut corrupted = 0u32;
        for attempt in 0..=self.max_retries {
            let is_dropped = self.drop_prob > 0.0 && rng.chance(self.drop_prob);
            let is_corrupted =
                !is_dropped && self.corrupt_prob > 0.0 && rng.chance(self.corrupt_prob);
            if !is_dropped && !is_corrupted {
                return Delivery::Delivered {
                    attempts: attempt + 1,
                    dropped,
                    corrupted,
                    extra_delay: extra,
                };
            }
            if is_dropped {
                dropped += 1;
            } else {
                corrupted += 1;
            }
            extra += rto;
            rto = rto.mul_f64(self.backoff).min(self.max_rto);
        }
        Delivery::Lost {
            attempts: self.max_retries + 1,
            dropped,
            corrupted,
        }
    }

    /// Worst-case extra delay a delivered transfer can accumulate: the sum
    /// of all `max_retries` backed-off timeouts.
    pub fn max_extra_delay(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let mut rto = self.rto.min(self.max_rto);
        for _ in 0..self.max_retries {
            total += rto;
            rto = rto.mul_f64(self.backoff).min(self.max_rto);
        }
        total
    }
}

/// A latency/bandwidth degradation of a link over a sim-time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Directed `(src, dst)` pair the degradation applies to; `None`
    /// degrades every link.
    pub link: Option<(u32, u32)>,
    /// Latency terms are multiplied by this (≥ 1 slows the link down).
    pub latency_factor: f64,
    /// Effective bandwidth is divided by this (≥ 1 slows the link down).
    pub bandwidth_factor: f64,
}

impl LinkDegradation {
    /// Does this window degrade a transfer departing `src -> dst` at
    /// `now`?
    pub fn applies_to(&self, src: u32, dst: u32, now: SimTime) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        match self.link {
            None => true,
            Some((a, b)) => a == src && b == dst,
        }
    }
}

/// What happens to a crashed rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOutcome {
    /// The rank is down for the outage, then resumes the step where it
    /// crashed. The outage is accounted like an injected delay.
    Recovers(SimDuration),
    /// Fail-stop: the rank never comes back, so the run cannot complete
    /// and ends in a [`crate::SimError::Stalled`] report.
    FailStop,
}

/// The kind of a per-rank fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankFaultKind {
    /// The rank stalls (busy, not crashed) for `duration` at the start of
    /// the step's execution phase.
    Stall {
        /// How long the rank stalls.
        duration: SimDuration,
    },
    /// The rank crashes at the start of the step's execution phase.
    Crash {
        /// `Some(outage)` = down for `outage` then recovered; `None` =
        /// fail-stop.
        outage: Option<SimDuration>,
    },
}

/// One per-rank fault, pinned to a `(rank, step)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFault {
    /// The faulty rank.
    pub rank: u32,
    /// Zero-based step at whose execution phase the fault strikes.
    pub step: u32,
    /// What happens.
    pub kind: RankFaultKind,
}

/// A complete deterministic fault plan, attached to
/// [`crate::SimConfig::faults`]. The default plan is empty (no faults).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-transfer drop/corrupt faults, `None` for lossless links.
    pub messages: Option<MessageFaults>,
    /// Link degradation windows (all applicable windows compose
    /// multiplicatively).
    pub degradations: Vec<LinkDegradation>,
    /// Rank stalls and crashes.
    pub rank_faults: Vec<RankFault>,
}

impl FaultPlan {
    /// The empty plan: a fault-free run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Does this plan inject anything at all?
    pub fn is_empty(&self) -> bool {
        !self.messages.is_some_and(|m| m.is_active())
            && self.degradations.is_empty()
            && self.rank_faults.is_empty()
    }

    /// Attach message drop/corrupt faults.
    pub fn with_messages(mut self, m: MessageFaults) -> Self {
        self.messages = Some(m);
        self
    }

    /// Convenience: drop each transfer copy with probability `drop_prob`,
    /// retransmitting after `rto` (exponential backoff, library
    /// defaults for the rest).
    pub fn with_drops(self, drop_prob: f64, rto: SimDuration) -> Self {
        self.with_messages(MessageFaults {
            drop_prob,
            rto,
            ..MessageFaults::default()
        })
    }

    /// Add a link degradation window.
    pub fn with_degradation(mut self, d: LinkDegradation) -> Self {
        self.degradations.push(d);
        self
    }

    /// Add a stall of `duration` at `(rank, step)`.
    pub fn with_stall(mut self, rank: u32, step: u32, duration: SimDuration) -> Self {
        self.rank_faults.push(RankFault {
            rank,
            step,
            kind: RankFaultKind::Stall { duration },
        });
        self
    }

    /// Add a crash at `(rank, step)`; `outage` as in
    /// [`RankFaultKind::Crash`].
    pub fn with_crash(mut self, rank: u32, step: u32, outage: Option<SimDuration>) -> Self {
        self.rank_faults.push(RankFault {
            rank,
            step,
            kind: RankFaultKind::Crash { outage },
        });
        self
    }

    /// Total stall time injected at `(rank, step)` (stalls accumulate).
    pub fn stall_for(&self, rank: u32, step: u32) -> SimDuration {
        self.rank_faults
            .iter()
            .filter(|f| f.rank == rank && f.step == step)
            .filter_map(|f| match f.kind {
                RankFaultKind::Stall { duration } => Some(duration),
                RankFaultKind::Crash { .. } => None,
            })
            .sum()
    }

    /// The crash outcome at `(rank, step)`, if any. A fail-stop crash
    /// dominates any recovering crash at the same spot; multiple
    /// recovering crashes accumulate their outages.
    pub fn crash_for(&self, rank: u32, step: u32) -> Option<CrashOutcome> {
        let mut outage = SimDuration::ZERO;
        let mut any = false;
        for f in self
            .rank_faults
            .iter()
            .filter(|f| f.rank == rank && f.step == step)
        {
            match f.kind {
                RankFaultKind::Crash { outage: None } => return Some(CrashOutcome::FailStop),
                RankFaultKind::Crash { outage: Some(d) } => {
                    outage += d;
                    any = true;
                }
                RankFaultKind::Stall { .. } => {}
            }
        }
        any.then_some(CrashOutcome::Recovers(outage))
    }

    /// Composite `(latency_factor, bandwidth_factor)` for a transfer
    /// departing `src -> dst` at `now`, or `None` when no window applies.
    pub fn degradation_at(&self, src: u32, dst: u32, now: SimTime) -> Option<(f64, f64)> {
        let mut lf = 1.0;
        let mut bf = 1.0;
        let mut any = false;
        for d in &self.degradations {
            if d.applies_to(src, dst, now) {
                lf *= d.latency_factor;
                bf *= d.bandwidth_factor;
                any = true;
            }
        }
        any.then_some((lf, bf))
    }

    /// Total extra execution time this plan injects through rank faults
    /// (stalls plus recoverable outages) — the sweep runner's sim-time
    /// watchdog budgets for this.
    pub fn total_rank_fault_delay(&self) -> SimDuration {
        self.rank_faults
            .iter()
            .map(|f| match f.kind {
                RankFaultKind::Stall { duration } => duration,
                RankFaultKind::Crash { outage } => outage.unwrap_or(SimDuration::ZERO),
            })
            .sum()
    }

    /// Field-level validity of the plan against a job of `ranks` ranks and
    /// `steps` steps, reported as `SC013` diagnostics. Deeper feasibility
    /// analysis (retransmission timing, guaranteed loss, dead windows) is
    /// `simcheck`'s job (SC014–SC016).
    pub fn check(&self, ranks: u32, steps: u32) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if let Some(m) = &self.messages {
            for (field, p) in [
                ("faults.messages.drop_prob", m.drop_prob),
                ("faults.messages.corrupt_prob", m.corrupt_prob),
            ] {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    out.push(Diagnostic::error(
                        "SC013",
                        field,
                        p,
                        "probabilities must lie in [0, 1]",
                    ));
                }
            }
            if !m.backoff.is_finite() || m.backoff < 1.0 {
                out.push(Diagnostic::error(
                    "SC013",
                    "faults.messages.backoff",
                    m.backoff,
                    "backoff factor must be finite and >= 1",
                ));
            }
            if m.is_active() && m.rto.is_zero() {
                out.push(Diagnostic::error(
                    "SC013",
                    "faults.messages.rto",
                    m.rto,
                    "active message faults need a nonzero retransmission timeout",
                ));
            }
            if m.max_rto < m.rto {
                out.push(Diagnostic::error(
                    "SC013",
                    "faults.messages.max_rto",
                    m.max_rto,
                    format!("backoff cap below the initial timeout {}", m.rto),
                ));
            }
        }
        for (i, d) in self.degradations.iter().enumerate() {
            if d.from >= d.until {
                out.push(Diagnostic::error(
                    "SC013",
                    format!("faults.degradations[{i}]"),
                    format!("[{}, {})", d.from, d.until),
                    "degradation window is empty or inverted",
                ));
            }
            for (part, f) in [
                (
                    format!("faults.degradations[{i}].latency_factor"),
                    d.latency_factor,
                ),
                (
                    format!("faults.degradations[{i}].bandwidth_factor"),
                    d.bandwidth_factor,
                ),
            ] {
                if !f.is_finite() || f <= 0.0 {
                    out.push(Diagnostic::error(
                        "SC013",
                        part,
                        f,
                        "degradation factors must be positive and finite",
                    ));
                } else if f < 1.0 {
                    out.push(Diagnostic::note(
                        "SC013",
                        part,
                        f,
                        "factor below 1 speeds the link up (not a degradation)",
                    ));
                }
            }
            if let Some((a, b)) = d.link {
                for (part, r) in [("src", a), ("dst", b)] {
                    if r >= ranks {
                        out.push(Diagnostic::error(
                            "SC013",
                            format!("faults.degradations[{i}].link.{part}"),
                            r,
                            format!("rank {r} outside the {ranks}-rank job"),
                        ));
                    }
                }
            }
        }
        for (i, f) in self.rank_faults.iter().enumerate() {
            if f.rank >= ranks {
                out.push(Diagnostic::error(
                    "SC013",
                    format!("faults.rank_faults[{i}].rank"),
                    f.rank,
                    format!("fault at rank {} but job has {ranks} ranks", f.rank),
                ));
            }
            if f.step >= steps {
                out.push(Diagnostic::error(
                    "SC013",
                    format!("faults.rank_faults[{i}].step"),
                    f.step,
                    format!("fault at step {} but run has {steps} steps", f.step),
                ));
            }
            if let RankFaultKind::Stall { duration } = f.kind {
                if duration.is_zero() {
                    out.push(Diagnostic::note(
                        "SC013",
                        format!("faults.rank_faults[{i}].duration"),
                        duration,
                        "zero-duration stall has no effect",
                    ));
                }
            }
        }
        out
    }
}

tracefmt::json_codec! {
    struct MessageFaults { drop_prob, corrupt_prob, rto, backoff, max_rto, max_retries }
}

tracefmt::json_codec! {
    struct LinkDegradation { from, until, link, latency_factor, bandwidth_factor }
}

tracefmt::json_codec! {
    enum RankFaultKind { Stall { duration }, Crash { outage } }
}

tracefmt::json_codec! {
    struct RankFault { rank, step, kind }
}

tracefmt::json_codec! {
    struct FaultPlan { messages = None, degradations = Vec::new(), rank_faults = Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdes::SeedFactory;
    use tracefmt::json;

    const MS: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.stall_for(0, 0), SimDuration::ZERO);
        assert_eq!(p.crash_for(0, 0), None);
        assert_eq!(p.degradation_at(0, 1, SimTime::ZERO), None);
        assert!(p.check(8, 10).is_empty());
        // Inactive message faults (zero probabilities) keep the plan empty.
        assert!(FaultPlan::none()
            .with_messages(MessageFaults::default())
            .is_empty());
    }

    #[test]
    fn sample_delivery_is_clean_without_probabilities() {
        let m = MessageFaults::default();
        let mut rng = SeedFactory::new(1).stream("fault-link", 0);
        assert_eq!(
            m.sample_delivery(&mut rng),
            Delivery::Delivered {
                attempts: 1,
                dropped: 0,
                corrupted: 0,
                extra_delay: SimDuration::ZERO,
            }
        );
    }

    #[test]
    fn certain_drop_exhausts_retries_with_backoff() {
        let m = MessageFaults {
            drop_prob: 1.0,
            rto: MS,
            backoff: 2.0,
            max_rto: MS.times(4),
            max_retries: 3,
            ..MessageFaults::default()
        };
        let mut rng = SeedFactory::new(1).stream("fault-link", 0);
        assert_eq!(
            m.sample_delivery(&mut rng),
            Delivery::Lost {
                attempts: 4,
                dropped: 4,
                corrupted: 0,
            }
        );
        // Backoff sum: 1 + 2 + 4 (capped) = 7 ms.
        assert_eq!(m.max_extra_delay(), MS.times(7));
    }

    #[test]
    fn certain_corruption_counts_separately_from_drops() {
        let m = MessageFaults {
            corrupt_prob: 1.0,
            rto: MS,
            max_retries: 2,
            ..MessageFaults::default()
        };
        let mut rng = SeedFactory::new(1).stream("fault-link", 0);
        let Delivery::Lost {
            dropped, corrupted, ..
        } = m.sample_delivery(&mut rng)
        else {
            panic!("certain corruption must lose the transfer");
        };
        assert_eq!((dropped, corrupted), (0, 3));
    }

    #[test]
    fn sample_delivery_is_deterministic_per_stream() {
        let m = MessageFaults {
            drop_prob: 0.5,
            rto: MS,
            ..MessageFaults::default()
        };
        let seeds = SeedFactory::new(42);
        let mut a = seeds.stream("fault-link", 3);
        let mut b = seeds.stream("fault-link", 3);
        for _ in 0..64 {
            assert_eq!(m.sample_delivery(&mut a), m.sample_delivery(&mut b));
        }
    }

    #[test]
    fn stall_and_crash_lookups() {
        let p = FaultPlan::none()
            .with_stall(2, 1, MS.times(3))
            .with_stall(2, 1, MS)
            .with_crash(4, 0, Some(MS.times(5)))
            .with_crash(5, 2, None);
        assert_eq!(p.stall_for(2, 1), MS.times(4));
        assert_eq!(p.stall_for(2, 0), SimDuration::ZERO);
        assert_eq!(p.crash_for(4, 0), Some(CrashOutcome::Recovers(MS.times(5))));
        assert_eq!(p.crash_for(5, 2), Some(CrashOutcome::FailStop));
        assert_eq!(p.crash_for(0, 0), None);
        assert_eq!(p.total_rank_fault_delay(), MS.times(9));
    }

    #[test]
    fn fail_stop_dominates_recovering_crashes() {
        let p = FaultPlan::none()
            .with_crash(1, 0, Some(MS))
            .with_crash(1, 0, None);
        assert_eq!(p.crash_for(1, 0), Some(CrashOutcome::FailStop));
    }

    #[test]
    fn degradation_windows_compose_multiplicatively() {
        let p = FaultPlan::none()
            .with_degradation(LinkDegradation {
                from: SimTime(100),
                until: SimTime(200),
                link: None,
                latency_factor: 2.0,
                bandwidth_factor: 3.0,
            })
            .with_degradation(LinkDegradation {
                from: SimTime(150),
                until: SimTime(300),
                link: Some((0, 1)),
                latency_factor: 5.0,
                bandwidth_factor: 1.0,
            });
        assert_eq!(p.degradation_at(0, 1, SimTime(99)), None);
        assert_eq!(p.degradation_at(0, 1, SimTime(100)), Some((2.0, 3.0)));
        assert_eq!(p.degradation_at(0, 1, SimTime(150)), Some((10.0, 3.0)));
        // Directed: the reverse link only sees the global window.
        assert_eq!(p.degradation_at(1, 0, SimTime(150)), Some((2.0, 3.0)));
        // Window ends are exclusive.
        assert_eq!(p.degradation_at(0, 1, SimTime(200)), Some((5.0, 1.0)));
        assert_eq!(p.degradation_at(0, 1, SimTime(300)), None);
    }

    #[test]
    fn check_flags_bad_fields_with_sc013() {
        let p = FaultPlan {
            messages: Some(MessageFaults {
                drop_prob: 1.5,
                corrupt_prob: -0.1,
                rto: SimDuration::ZERO,
                backoff: 0.5,
                max_rto: SimDuration::ZERO,
                max_retries: 1,
            }),
            degradations: vec![LinkDegradation {
                from: SimTime(100),
                until: SimTime(100),
                link: Some((9, 0)),
                latency_factor: 0.0,
                bandwidth_factor: 0.5,
            }],
            rank_faults: vec![RankFault {
                rank: 9,
                step: 99,
                kind: RankFaultKind::Stall {
                    duration: SimDuration::ZERO,
                },
            }],
        };
        let diags = p.check(8, 10);
        assert!(diags.iter().all(|d| d.code == "SC013"), "{diags:?}");
        let errors = diags.iter().filter(|d| d.is_error()).count();
        // drop_prob, corrupt_prob, backoff, rto, window, latency_factor,
        // link.src, rank, step (max_rto >= rto holds: both zero).
        assert_eq!(errors, 9, "{diags:?}");
        // Speed-up factor and zero-duration stall are notes.
        assert!(diags.iter().any(|d| !d.is_error()), "{diags:?}");
    }

    #[test]
    fn check_accepts_a_sound_plan() {
        let p = FaultPlan::none()
            .with_drops(0.05, SimDuration::from_micros(50))
            .with_degradation(LinkDegradation {
                from: SimTime::ZERO,
                until: SimTime(1_000_000),
                link: Some((0, 1)),
                latency_factor: 4.0,
                bandwidth_factor: 4.0,
            })
            .with_stall(1, 0, MS)
            .with_crash(2, 1, Some(MS));
        assert!(p.check(8, 10).is_empty());
        assert!(!p.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let p = FaultPlan::none()
            .with_messages(MessageFaults {
                drop_prob: 0.125,
                corrupt_prob: 0.0625,
                rto: SimDuration::from_micros(70),
                backoff: 1.5,
                max_rto: MS,
                max_retries: 9,
            })
            .with_degradation(LinkDegradation {
                from: SimTime(5),
                until: SimTime(50),
                link: None,
                latency_factor: 2.0,
                bandwidth_factor: 8.0,
            })
            .with_degradation(LinkDegradation {
                from: SimTime(7),
                until: SimTime(9),
                link: Some((3, 4)),
                latency_factor: 1.0,
                bandwidth_factor: 2.0,
            })
            .with_stall(1, 2, MS)
            .with_crash(3, 4, Some(MS.times(2)))
            .with_crash(5, 6, None);
        let text = json::to_string(&p);
        let back: FaultPlan = json::from_str(&text).expect("round trip");
        assert_eq!(p, back);
    }

    #[test]
    fn json_defaults_fill_missing_fields() {
        // A plan written before any of the three parts existed.
        let back: FaultPlan = json::from_str("{}").expect("empty object parses");
        assert_eq!(back, FaultPlan::none());
    }
}
