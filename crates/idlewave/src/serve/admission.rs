//! Admission control and the bounded job queue.
//!
//! Two gates stand between a `submit` line and a worker:
//!
//! 1. **Admission** ([`admit`]): the full `simcheck` analyzer plus the
//!    static budget pass run on the submitted config *before* it costs a
//!    queue slot. Invalid configs and predictions over the service's
//!    admission budget come back as a `rejected` reply carrying the SC
//!    diagnostics (`SC028` summarising), so no worker time is ever spent
//!    on a scenario that could have been refused from its config alone.
//! 2. **The bounded queue** ([`JobQueue`]): a fixed-capacity FIFO with
//!    explicit load shedding. When it is full the submission is *shed* —
//!    an `overloaded` reply with a retry-after hint (`SC029`) — never
//!    buffered without bound. Admission reserves a slot *before* the
//!    journal write and commits after it, so "journaled implies queued
//!    (or completed)" holds even though several connections admit
//!    concurrently.

use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Condvar, Mutex};

use mpisim::PoolBudget;
use simdes::SimTime;
use tracefmt::json::{Json, ToJson};

use super::protocol::Reply;
use crate::sweep::Scenario;

/// One admitted unit of work.
pub(crate) struct Job {
    /// Monotonic journal job number.
    pub job: u64,
    /// The scenario to run.
    pub scenario: Scenario,
    /// `config_fingerprint` of the scenario's config.
    pub fingerprint: u64,
    /// Canonical config JSON (the cache verification key).
    pub config_json: String,
    /// Predicted buffer shape, used to grow the worker's pool slot.
    pub pool: PoolBudget,
    /// Sim-time watchdog limit, derived from the admission budget report.
    pub watchdog: SimTime,
    /// Set when the submitting connection died: the job is recorded as
    /// cancelled instead of run. Recovered jobs use a flag that is never
    /// set — nobody can disconnect from the journal.
    pub cancel: Arc<AtomicBool>,
    /// Where the terminal `result` reply goes; `None` for jobs recovered
    /// from the journal (their results are fetched via `query`).
    pub reply: Option<mpsc::Sender<Reply>>,
}

/// Outcome of the admission gates for one submission.
pub(crate) enum Admission {
    /// Passed: the predicted cost report rides along.
    Accept(Box<simcheck::BudgetReport>),
    /// Refused, with the reply-ready diagnostics (`SC028` last).
    Reject {
        /// Summary for the `rejected` reply's `error` field.
        error: String,
        /// Diagnostics as JSON values.
        diagnostics: Vec<Json>,
    },
}

/// Run the pre-flight gates on one submission.
pub(crate) fn admit(scenario: &Scenario, admission_budget: Option<u64>) -> Admission {
    let diags = simcheck::analyze(&scenario.config);
    if simcheck::has_errors(&diags) {
        let n = diags.iter().filter(|d| d.is_error()).count();
        let mut out: Vec<Json> = diags.iter().map(ToJson::to_json).collect();
        out.push(simcheck::serve_rejected(&scenario.id, n).to_json());
        return Admission::Reject {
            error: format!("configuration rejected by the analyzer ({n} error(s))"),
            diagnostics: out,
        };
    }
    let report = simcheck::budget::budget(&scenario.config);
    if admission_budget.is_some() {
        let gates = simcheck::Budgets {
            max_events: admission_budget,
            ..Default::default()
        };
        let over: Vec<_> = simcheck::budget::budget_checks(&scenario.config, &report, &gates)
            .into_iter()
            .filter(|d| d.code == "SC018")
            .collect();
        if !over.is_empty() {
            let mut out: Vec<Json> = over.iter().map(ToJson::to_json).collect();
            out.push(simcheck::serve_rejected(&scenario.id, over.len()).to_json());
            return Admission::Reject {
                error: "submission over the service admission budget".to_string(),
                diagnostics: out,
            };
        }
    }
    Admission::Accept(Box::new(report))
}

struct QueueState {
    items: VecDeque<Job>,
    /// Slots promised to admissions that have not pushed yet (they are
    /// journaling); counted against capacity so the bound holds across
    /// concurrent connections.
    reserved: usize,
    open: bool,
}

/// The bounded FIFO between admission and the workers.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    takeable: Condvar,
    cap: usize,
}

impl JobQueue {
    pub(crate) fn new(cap: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                reserved: 0,
                open: true,
            }),
            takeable: Condvar::new(),
            cap: cap.max(1),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Jobs queued or promised right now.
    pub(crate) fn len(&self) -> usize {
        let s = self.state.lock().expect("queue poisoned");
        s.items.len() + s.reserved
    }

    /// Claim a capacity slot before the journal write. `Ok(depth)` is the
    /// depth including this claim; `Err(depth)` means the queue is full
    /// (or closed) and the submission must be shed.
    pub(crate) fn reserve(&self) -> Result<usize, usize> {
        let mut s = self.state.lock().expect("queue poisoned");
        let depth = s.items.len() + s.reserved;
        if !s.open || depth >= self.cap {
            return Err(depth);
        }
        s.reserved += 1;
        Ok(depth + 1)
    }

    /// Turn a reservation into a queued job (after its journal line is
    /// durable).
    pub(crate) fn push_reserved(&self, job: Job) {
        let mut s = self.state.lock().expect("queue poisoned");
        s.reserved = s.reserved.saturating_sub(1);
        s.items.push_back(job);
        self.takeable.notify_one();
    }

    /// Give a reservation back (the journal write failed).
    pub(crate) fn unreserve(&self) {
        let mut s = self.state.lock().expect("queue poisoned");
        s.reserved = s.reserved.saturating_sub(1);
    }

    /// Queue a job recovered from the journal, ignoring capacity: the
    /// bound exists to stop *new* work from growing memory, while
    /// recovered jobs are already acknowledged obligations (and bounded
    /// by the journal itself).
    pub(crate) fn push_recovered(&self, job: Job) {
        let mut s = self.state.lock().expect("queue poisoned");
        s.items.push_back(job);
        self.takeable.notify_one();
    }

    /// Next job, blocking. `None` once the queue is closed *and* empty —
    /// the drain contract: close() stops admissions, the workers still
    /// run everything already accepted.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = s.items.pop_front() {
                return Some(job);
            }
            if !s.open {
                return None;
            }
            s = self.takeable.wait(s).expect("queue poisoned");
        }
    }

    /// Stop admitting; wake every worker so they can drain and exit.
    pub(crate) fn close(&self) {
        self.state.lock().expect("queue poisoned").open = false;
        self.takeable.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use netmodel::presets;
    use workload::{Boundary, CommPattern, Direction};

    fn scenario(id: &str, ranks: u32) -> Scenario {
        Scenario::new(
            id,
            SimConfig::baseline(
                presets::loggopsim_like(ranks),
                CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Periodic),
                3,
            ),
        )
    }

    fn job(n: u64) -> Job {
        let s = scenario(&format!("j{n}"), 4);
        Job {
            job: n,
            fingerprint: 0,
            config_json: String::new(),
            pool: PoolBudget {
                ranks: 0,
                steps: 0,
                peak_queue: 0,
                requests_per_rank: 0,
                trace_records: 0,
            },
            watchdog: SimTime::ZERO,
            cancel: Arc::new(AtomicBool::new(false)),
            reply: None,
            scenario: s,
        }
    }

    #[test]
    fn admission_rejects_invalid_configs_with_sc028() {
        let mut s = scenario("bad", 4);
        s.config.msg_bytes = 0;
        match admit(&s, None) {
            Admission::Reject { error, diagnostics } => {
                assert!(error.contains("analyzer"), "{error}");
                let codes: Vec<&str> = diagnostics
                    .iter()
                    .filter_map(|d| d.get("code").and_then(Json::as_str))
                    .collect();
                assert!(codes.contains(&"SC004"), "{codes:?}");
                assert_eq!(codes.last(), Some(&"SC028"), "{codes:?}");
            }
            Admission::Accept(_) => panic!("zero-byte messages must be rejected"),
        }
    }

    #[test]
    fn admission_gates_on_the_budget_and_passes_clean_configs() {
        let s = scenario("big", 64);
        match admit(&s, Some(1)) {
            Admission::Reject { error, diagnostics } => {
                assert!(error.contains("admission budget"), "{error}");
                assert!(diagnostics
                    .iter()
                    .any(|d| d.get("code").and_then(Json::as_str) == Some("SC018")));
            }
            Admission::Accept(_) => panic!("1-event budget must reject a 64-rank run"),
        }
        match admit(&s, Some(u64::MAX)) {
            Admission::Accept(report) => assert!(report.events_predicted > 0),
            Admission::Reject { error, .. } => panic!("clean config rejected: {error}"),
        }
    }

    #[test]
    fn the_queue_bounds_reservations_and_drains_after_close() {
        let q = JobQueue::new(2);
        assert_eq!(q.reserve().expect("slot 1"), 1);
        assert_eq!(q.reserve().expect("slot 2"), 2);
        assert_eq!(q.reserve().expect_err("full"), 2);
        q.push_reserved(job(0));
        q.push_reserved(job(1));
        assert_eq!(q.reserve().expect_err("still full"), 2);
        assert_eq!(q.len(), 2);
        q.close();
        assert!(q.reserve().is_err(), "closed queue admits nothing");
        // Closed but not empty: the workers still drain both jobs.
        assert_eq!(q.pop().expect("first queued job").job, 0);
        assert_eq!(q.pop().expect("second queued job").job, 1);
        assert!(q.pop().is_none(), "closed and empty");
    }

    #[test]
    fn unreserve_gives_the_slot_back_and_recovery_ignores_the_cap() {
        let q = JobQueue::new(1);
        q.reserve().expect("slot");
        q.unreserve();
        q.reserve().expect("slot is back");
        q.unreserve();
        q.push_recovered(job(7));
        q.push_recovered(job(8));
        assert_eq!(q.len(), 2, "recovered jobs bypass the cap");
    }
}
