//! Simulation configuration.
//!
//! A [`SimConfig`] fully describes one bulk-synchronous run: the placed
//! job ([`ClusterNetwork`]), the communication pattern and protocol, the
//! execution model, the number of steps, the one-off delay injections, the
//! fine-grained noise, and the master seed. Identical configs produce
//! identical traces.

use netmodel::ClusterNetwork;
use noise_model::{DelayDistribution, InjectionPlan};
use simdes::SimDuration;
use workload::{CommPattern, CommSchedule, ExecModel};

use crate::diag::{self, Diagnostic};
use crate::faults::FaultPlan;

/// Message-passing protocol selection (paper Sec. II-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Force the eager protocol for every message: sends complete
    /// immediately (internal buffering), no handshake.
    Eager,
    /// Force the rendezvous protocol: RTS/CTS handshake, the sender's
    /// request completes only after the matched transfer.
    Rendezvous,
    /// Choose per message size, like a real MPI: eager up to and including
    /// the limit, rendezvous above it.
    Auto {
        /// Eager limit in bytes. The paper's Intel MPI configuration used
        /// 16384 doubles = 131072 B.
        eager_limit: u64,
    },
}

/// The concrete mode chosen for a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Buffered send, no handshake.
    Eager,
    /// Handshake, synchronising send.
    Rendezvous,
}

impl Protocol {
    /// The paper's eager limit: 16384 doubles.
    pub const PAPER_EAGER_LIMIT: u64 = 131_072;

    /// Decide the mode for a message of `bytes`.
    pub fn mode_for(&self, bytes: u64) -> Mode {
        match *self {
            Protocol::Eager => Mode::Eager,
            Protocol::Rendezvous => Mode::Rendezvous,
            Protocol::Auto { eager_limit } => {
                if bytes <= eager_limit {
                    Mode::Eager
                } else {
                    Mode::Rendezvous
                }
            }
        }
    }
}

/// Where sampled noise is applied — an ablation knob (DESIGN.md §5.2). The
/// paper injects noise into execution phases only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoisePlacement {
    /// Lengthen execution phases only (the paper's method, Eq. 3).
    #[default]
    ExecOnly,
    /// Lengthen execution phases and also every message transfer.
    ExecAndComm,
}

/// Full description of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The placed job: machine shape, rank count, link models.
    pub network: ClusterNetwork,
    /// Who exchanges with whom after each execution phase.
    pub pattern: CommPattern,
    /// Optional explicit per-step communication schedule. When set, it
    /// *overrides* `pattern` for partner lookup (the pattern is still used
    /// by analyses that need σ/d/boundary semantics — those are undefined
    /// for arbitrary graphs and should not be consulted). This is the
    /// paper's future-work hook: collectives decompose into per-round
    /// graphs (see `workload::CommSchedule`).
    pub schedule: Option<CommSchedule>,
    /// Message payload size in bytes (identical for all pairs, as in all
    /// of the paper's experiments).
    pub msg_bytes: u64,
    /// Protocol selection.
    pub protocol: Protocol,
    /// Execution-phase cost model.
    pub exec: ExecModel,
    /// Number of bulk-synchronous steps.
    pub steps: u32,
    /// One-off injected delays.
    pub injections: InjectionPlan,
    /// Fine-grained per-phase noise distribution.
    pub noise: DelayDistribution,
    /// Where the noise applies.
    pub noise_placement: NoisePlacement,
    /// Capacity of the per-destination eager buffer in bytes; `None` means
    /// unbounded (the default). When the outstanding unconsumed eager
    /// bytes towards one destination would exceed this, further sends fall
    /// back to rendezvous — the footnote-1 behaviour in the paper.
    pub eager_buffer_bytes: Option<u64>,
    /// When `true`, outgoing payload transfers from one rank serialize (a
    /// single injection port per process, as on a real NIC): a rank
    /// sending to two neighbours pays both transfer times back to back.
    /// Off by default — the controlled wave experiments have negligible
    /// communication volume — but essential for the bandwidth-heavy
    /// Fig. 1/2 reproductions, where the optimistic Eq. 1 model ignores
    /// exactly this serialisation.
    pub serialize_sends: bool,
    /// Per-rank multiplicative load imbalance: the work part of rank
    /// `r`'s execution phase is scaled by `imbalance[r]` (1.0 = balanced;
    /// the paper classifies manifest per-phase load imbalance as an
    /// application-induced delay, Sec. II-A). Empty = perfectly balanced.
    pub imbalance: Vec<f64>,
    /// Deterministic fault plan: message drop/corrupt with retransmission,
    /// link degradation windows, rank stalls and crashes. Empty by default
    /// (see [`crate::faults`]).
    pub faults: FaultPlan,
    /// Master seed for all random streams.
    pub seed: u64,
}

impl SimConfig {
    /// A minimal valid config for the given network and pattern: 3 ms
    /// compute phases (the paper's standard), 8192-byte messages (ditto),
    /// protocol chosen by size, no injections, no noise.
    pub fn baseline(network: ClusterNetwork, pattern: CommPattern, steps: u32) -> Self {
        SimConfig {
            network,
            pattern,
            schedule: None,
            msg_bytes: 8192,
            protocol: Protocol::Auto {
                eager_limit: Protocol::PAPER_EAGER_LIMIT,
            },
            exec: ExecModel::Compute {
                duration: SimDuration::from_millis(3),
            },
            steps,
            injections: InjectionPlan::none(),
            noise: DelayDistribution::None,
            noise_placement: NoisePlacement::ExecOnly,
            eager_buffer_bytes: None,
            serialize_sends: false,
            imbalance: Vec::new(),
            faults: FaultPlan::none(),
            seed: 0x1D1E_4A7E, // "idle wave"
        }
    }

    /// Ranks in the job.
    pub fn ranks(&self) -> u32 {
        self.network.ranks
    }

    /// Field-level validity checks, reported as [`Diagnostic`]s instead of
    /// panics. Covers everything the engine needs to be true before it can
    /// run: scalar sanity (steps, message size, durations, bandwidths),
    /// pattern/schedule feasibility, imbalance and injection ranges, and
    /// noise-distribution parameters. The `simcheck` crate layers graph,
    /// protocol, and speed-model analyses on top of this list.
    pub fn check(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if self.steps == 0 {
            out.push(Diagnostic::error(
                "SC004",
                "steps",
                self.steps,
                "need at least one step",
            ));
        }
        if self.msg_bytes == 0 {
            out.push(Diagnostic::error(
                "SC004",
                "msg_bytes",
                self.msg_bytes,
                "zero-byte messages carry no dependency",
            ));
        }
        match self.exec {
            ExecModel::Compute { duration } => {
                if duration.is_zero() {
                    out.push(Diagnostic::warning(
                        "SC004",
                        "exec.duration",
                        duration,
                        "zero-length execution phases make the Eq. 2 speed model degenerate",
                    ));
                }
            }
            ExecModel::MemoryBound {
                bytes,
                core_bw_bps,
                socket_bw_bps,
            } => {
                if bytes == 0 {
                    out.push(Diagnostic::error(
                        "SC004",
                        "exec.bytes",
                        bytes,
                        "memory-bound phases need nonzero traffic",
                    ));
                }
                for (field, bw) in [
                    ("exec.core_bw_bps", core_bw_bps),
                    ("exec.socket_bw_bps", socket_bw_bps),
                ] {
                    if !bw.is_finite() || bw <= 0.0 {
                        out.push(Diagnostic::error(
                            "SC004",
                            field,
                            bw,
                            "bandwidths must be positive and finite",
                        ));
                    }
                }
            }
        }
        match &self.schedule {
            Some(sched) => {
                if sched.ranks() != self.ranks() {
                    out.push(Diagnostic::error(
                        "SC005",
                        "schedule",
                        sched.ranks(),
                        format!(
                            "schedule rank count does not match the job ({} vs {})",
                            sched.ranks(),
                            self.ranks()
                        ),
                    ));
                }
            }
            None => {
                if self.pattern.distance == 0 {
                    out.push(Diagnostic::error(
                        "SC002",
                        "pattern.distance",
                        self.pattern.distance,
                        "distance must be >= 1",
                    ));
                } else {
                    let feasible = match self.pattern.boundary {
                        workload::Boundary::Periodic => self.ranks() > 2 * self.pattern.distance,
                        workload::Boundary::Open => self.ranks() > self.pattern.distance,
                    };
                    if !feasible {
                        out.push(Diagnostic::error(
                            "SC002",
                            "network.ranks",
                            self.ranks(),
                            format!(
                                "{} ranks too few for distance {} with {:?} boundary",
                                self.ranks(),
                                self.pattern.distance,
                                self.pattern.boundary
                            ),
                        ));
                    }
                }
            }
        }
        if !self.imbalance.is_empty() {
            if self.imbalance.len() != self.ranks() as usize {
                out.push(Diagnostic::error(
                    "SC012",
                    "imbalance",
                    self.imbalance.len(),
                    format!(
                        "imbalance vector must have one factor per rank ({} factors, {} ranks)",
                        self.imbalance.len(),
                        self.ranks()
                    ),
                ));
            }
            for (i, &f) in self.imbalance.iter().enumerate() {
                if !f.is_finite() || f <= 0.0 {
                    out.push(Diagnostic::error(
                        "SC012",
                        format!("imbalance[{i}]"),
                        f,
                        "imbalance factors must be positive and finite",
                    ));
                }
            }
        }
        if let Err(why) = self.noise.check() {
            out.push(Diagnostic::error(
                "SC009",
                "noise",
                format!("{:?}", self.noise),
                why,
            ));
        }
        for (i, inj) in self.injections.injections().iter().enumerate() {
            if inj.rank >= self.ranks() {
                out.push(Diagnostic::error(
                    "SC011",
                    format!("injections[{i}].rank"),
                    inj.rank,
                    format!(
                        "injection at rank {} but job has {} ranks",
                        inj.rank,
                        self.ranks()
                    ),
                ));
            }
            if inj.step >= self.steps {
                out.push(Diagnostic::error(
                    "SC011",
                    format!("injections[{i}].step"),
                    inj.step,
                    format!(
                        "injection at step {} but run has {} steps",
                        inj.step, self.steps
                    ),
                ));
            }
            if inj.duration.is_zero() {
                out.push(Diagnostic::note(
                    "SC011",
                    format!("injections[{i}].duration"),
                    inj.duration,
                    "zero-duration injection has no effect",
                ));
            }
        }
        out.extend(self.faults.check(self.ranks(), self.steps));
        out
    }

    /// Validate cross-field invariants, panicking with the rendered
    /// [`Diagnostic`] report when any [`diag::Severity::Error`]-level
    /// finding exists. Called by the engine before running; warnings and notes are
    /// not fatal (query [`SimConfig::check`] to see them).
    ///
    /// # Panics
    /// Panics when [`SimConfig::check`] reports at least one error.
    pub fn validate(&self) {
        let errors: Vec<Diagnostic> = self
            .check()
            .into_iter()
            .filter(Diagnostic::is_error)
            .collect();
        if !errors.is_empty() {
            panic!("invalid SimConfig:\n{}", diag::render_report(&errors));
        }
    }
}

tracefmt::json_codec! {
    enum Protocol { Eager, Rendezvous, Auto { eager_limit } }
}

tracefmt::json_codec! {
    enum Mode { Eager, Rendezvous }
}

tracefmt::json_codec! {
    enum NoisePlacement { ExecOnly, ExecAndComm }
}

// The keys with defaults joined the format late: configs written before
// them still parse, with the neutral default filled in.
tracefmt::json_codec! {
    struct SimConfig {
        network,
        pattern,
        schedule = None,
        msg_bytes,
        protocol,
        exec,
        steps,
        injections,
        noise,
        noise_placement = NoisePlacement::ExecOnly,
        eager_buffer_bytes = None,
        serialize_sends = false,
        imbalance = Vec::new(),
        faults = FaultPlan::none(),
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::presets;
    use tracefmt::json::{FromJson, Json, ToJson};

    fn cfg() -> SimConfig {
        let net = presets::loggopsim_like(8);
        SimConfig::baseline(
            net,
            CommPattern::next_neighbor(
                workload::Direction::Unidirectional,
                workload::Boundary::Open,
            ),
            5,
        )
    }

    #[test]
    fn protocol_auto_switches_at_limit() {
        let p = Protocol::Auto {
            eager_limit: 131_072,
        };
        assert_eq!(p.mode_for(8_192), Mode::Eager);
        assert_eq!(p.mode_for(131_072), Mode::Eager);
        assert_eq!(p.mode_for(131_073), Mode::Rendezvous);
        // The paper's Fig. 5 sizes: 16384 B is eager, 31080 B *doubles*
        // (248640 B) is rendezvous.
        assert_eq!(p.mode_for(16_384), Mode::Eager);
        assert_eq!(p.mode_for(248_640), Mode::Rendezvous);
    }

    #[test]
    fn forced_protocols_ignore_size() {
        assert_eq!(Protocol::Eager.mode_for(u64::MAX), Mode::Eager);
        assert_eq!(Protocol::Rendezvous.mode_for(1), Mode::Rendezvous);
    }

    #[test]
    fn baseline_is_valid() {
        cfg().validate();
    }

    #[test]
    #[should_panic(expected = "injection at rank")]
    fn injection_out_of_ranks_fails_validation() {
        let mut c = cfg();
        c.injections = InjectionPlan::single(99, 0, SimDuration::from_millis(1));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "injection at step")]
    fn injection_out_of_steps_fails_validation() {
        let mut c = cfg();
        c.injections = InjectionPlan::single(1, 99, SimDuration::from_millis(1));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_fails_validation() {
        let mut c = cfg();
        c.steps = 0;
        c.validate();
    }

    #[test]
    fn check_is_empty_for_the_baseline() {
        assert!(cfg().check().is_empty());
    }

    #[test]
    fn check_reports_field_and_value_context() {
        let mut c = cfg();
        c.injections = InjectionPlan::single(99, 0, SimDuration::from_millis(1));
        let diags = c.check();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC011");
        assert_eq!(diags[0].field, "injections[0].rank");
        assert_eq!(diags[0].value, "99");
        assert!(diags[0].is_error());
        assert!(diags[0].to_string().contains("injections[0].rank = 99"));
    }

    #[test]
    fn check_collects_multiple_findings() {
        let mut c = cfg();
        c.steps = 0;
        c.msg_bytes = 0;
        c.imbalance = vec![1.0, -2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let diags = c.check();
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"SC004"));
        assert!(codes.contains(&"SC012"));
        assert!(diags.iter().any(|d| d.field == "imbalance[1]"));
        assert!(diags.len() >= 3);
    }

    #[test]
    fn check_flags_infeasible_patterns_without_panicking() {
        let mut c = cfg();
        c.pattern.distance = 20; // 8 ranks, open boundary: infeasible
        let diags = c.check();
        assert!(diags.iter().any(|d| d.code == "SC002" && d.is_error()));
        let mut z = cfg();
        z.pattern.distance = 0;
        assert!(z.check().iter().any(|d| d.code == "SC002"));
    }

    #[test]
    fn check_flags_bad_noise_and_bandwidths() {
        let mut c = cfg();
        c.noise = DelayDistribution::Pareto {
            scale: SimDuration::from_micros(1),
            alpha: 0.5,
            max: SimDuration::from_millis(1),
        };
        c.exec = workload::ExecModel::MemoryBound {
            bytes: 1024,
            core_bw_bps: f64::NAN,
            socket_bw_bps: -1.0,
        };
        let diags = c.check();
        assert!(diags.iter().any(|d| d.code == "SC009"));
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code == "SC004" && d.field.contains("bw_bps"))
                .count(),
            2
        );
    }

    #[test]
    fn zero_duration_injection_is_a_note_not_an_error() {
        let mut c = cfg();
        c.injections = InjectionPlan::single(1, 0, SimDuration::ZERO);
        let diags = c.check();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, crate::diag::Severity::Note);
        c.validate(); // notes are not fatal
    }

    #[test]
    fn fault_plan_findings_flow_through_check() {
        let mut c = cfg();
        c.faults = FaultPlan::none().with_stall(99, 0, SimDuration::from_millis(1));
        let diags = c.check();
        assert!(diags.iter().any(|d| d.code == "SC013" && d.is_error()));
    }

    #[test]
    fn json_round_trip() {
        let c = cfg();
        let json = tracefmt::json::to_string(&c);
        let back: SimConfig = tracefmt::json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn json_defaults_fill_missing_optional_fields() {
        // A config written before `schedule` / `serialize_sends` /
        // `imbalance` / `noise_placement` existed must still parse.
        let c = cfg();
        let full = c.to_json();
        let trimmed = Json::Object(
            full.expect_object()
                .unwrap()
                .iter()
                .filter(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "schedule"
                            | "serialize_sends"
                            | "imbalance"
                            | "noise_placement"
                            | "eager_buffer_bytes"
                            | "faults"
                    )
                })
                .cloned()
                .collect(),
        );
        let back = SimConfig::from_json(&trimmed).unwrap();
        assert_eq!(c, back);
    }
}
