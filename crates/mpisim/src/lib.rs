//! # mpisim — message-passing simulation on a discrete-event engine
//!
//! Simulates MPI-parallel bulk-synchronous programs at the level of
//! abstraction the paper's delay-propagation study needs: ranks alternate
//! execution phases and nonblocking `Isend`/`Irecv`/`Waitall` communication
//! phases; messages travel through eager or rendezvous protocols over a
//! hierarchical cluster network; one-off delays and fine-grained noise
//! perturb the execution phases.
//!
//! Entry point: build a [`SimConfig`], call [`run`], analyse the returned
//! [`tracefmt::Trace`] (typically through the `idlewave` crate).
//!
//! See the `engine` module docs for the protocol semantics, including the
//! head-of-line CTS gating rule that reproduces the paper's σ = 2
//! propagation-speed doubling for bidirectional rendezvous communication.

#![warn(missing_docs)]

mod config;
pub mod diag;
mod engine;
mod error;
pub mod faults;
mod nominal;
pub mod reference;
mod snapshot;

pub use config::{Mode, NoisePlacement, Protocol, SimConfig};
pub use diag::{Diagnostic, Severity};
pub use engine::{
    fused_path_eligible, run, try_run, try_run_summary_pooled, try_run_with_limits,
    try_run_with_stats_pooled, Engine, EnginePools, PoolBudget, RunStats, RunSummary, TraceMode,
};
pub use error::{Deadline, RunLimits, SimError};
pub use faults::{
    CrashOutcome, Delivery, FaultPlan, LinkDegradation, MessageFaults, RankFault, RankFaultKind,
};
pub use nominal::{
    nominal_comm_duration, nominal_exec_duration, nominal_message_time, nominal_step_duration,
};
pub use reference::reference_trace;
pub use snapshot::{config_fingerprint, CheckpointPolicy, Snapshot, SNAPSHOT_VERSION};
