//! Supervised, crash-safe sweep execution on a work-stealing fabric.
//!
//! [`crate::batch`] fans independent simulations out over threads but
//! propagates any failure: one panicking scenario kills a thousand-config
//! sweep. This module is the hardened harness for chaos and fault-plan
//! sweeps, where individual scenarios — and the harness itself — are
//! *expected* to die:
//!
//! * scenarios are dealt into **sharded work-stealing deques**
//!   ([`fabric`]): a fixed worker pool drains home shards and steals
//!   across them, results reassemble by input index, so steal order can
//!   never change the merged report; a worker that dies is retired and
//!   its queued work redistributed — if every worker retires, the
//!   supervisor drains the fabric inline, so a sweep degrades instead of
//!   deadlocking ([`SweepReport::retired_workers`] counts the losses);
//! * every scenario attempt runs in an isolated worker thread with panic
//!   capture;
//! * a **deterministic sim-time watchdog** (an [`mpisim::RunLimits`]
//!   budget derived from the scenario's nominal timing) catches runaway
//!   simulations reproducibly, and a wall-clock timeout backstops the
//!   watchdog against harness bugs;
//! * transient failures are retried a bounded number of times with
//!   **capped exponential backoff** ([`SweepOptions::retry_backoff`]);
//! * a **pre-flight pass** warns on duplicated config fingerprints
//!   (`SC020`), retry policies the sweep wall budget can never honour
//!   (`SC025`, [`SweepOptions::max_wall`]), unusable cache directories
//!   (`SC026`) and cache fingerprint collisions (`SC027`), and — with
//!   [`SweepOptions::budget`] — records scenarios whose predicted event
//!   count is already over budget (`SC018`) as
//!   [`ScenarioStatus::OverBudget`] without running them; the same pass
//!   sizes every worker's [`mpisim::EnginePools`] so pooled runs
//!   allocate nothing beyond the predicted budget from run 1;
//! * every finished scenario is persisted immediately to its **per-shard
//!   JSONL sink** ([`shard`]: append + flush, opt-in fsync, torn-line
//!   repair), so a crash of the sweep process itself loses at most the
//!   scenarios still in flight; on completion the shards are **merged
//!   atomically** into the final report at `out_path` (header line plus
//!   one record per scenario in input order) and deleted.
//!   [`SweepOptions::resume`] reloads the merged report overlaid with
//!   any surviving shard files and re-runs only scenarios without a
//!   persisted record;
//! * a **verified result cache** ([`SweepOptions::cache_dir`]) serves
//!   clean scenarios whose config fingerprint was already simulated —
//!   byte-identically to the original record; entries carry FNV-1a
//!   integrity footers, and torn, bit-flipped, or colliding entries are
//!   quarantined and re-simulated, never trusted
//!   ([`SweepReport::cache_hits`] / [`SweepReport::cache_quarantined`]);
//! * with a [`SweepOptions::checkpoint_dir`], in-flight scenarios write
//!   periodic [`mpisim::Snapshot`]s (atomic temp-file + rename), so a
//!   resumed sweep continues a killed scenario *mid-run* instead of from
//!   scratch — bit-identically, per the snapshot contract. Snapshots are
//!   garbage-collected once their scenario has a terminal record.
//!
//! The suite's config fingerprints are recorded in a manifest before any
//! scenario runs (and in the merged report's header line); `--resume`
//! against files produced by different configs is rejected instead of
//! silently mixing results.
//!
//! Scenario outcomes are values ([`ScenarioStatus`]), never panics; the
//! sweep completes end-to-end regardless of what individual scenarios —
//! or the fabric's own workers — do. The [`drill`] module turns that
//! claim into a self-test: `wavesim sweep --drill` kills workers,
//! SIGKILLs the process mid-shard, tears result lines, and bit-flips
//! cache entries, then asserts the merged report is bit-identical to an
//! undisturbed control run (see `docs/SWEEP.md`).

pub(crate) mod cache;
pub mod drill;
mod fabric;
mod shard;

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use mpisim::{
    config_fingerprint, try_run_checkpointed_pooled, try_run_with_stats_pooled, CheckpointPolicy,
    Engine, EnginePools, PoolBudget, RunLimits, RunStats, SimConfig, SimError, Snapshot,
};
use simdes::{SimDuration, SimTime};
use tracefmt::json::{self, FromJson, Json, ToJson};
use tracefmt::{fnv1a_64, Trace};

pub use fabric::FabricChaos;
pub use shard::load_results;

/// Chaos knobs for exercising the supervisor itself: deliberate failure
/// modes injected at the *scenario* level (the fault plan inside
/// [`SimConfig`] injects failures at the *simulation* level, and
/// [`FabricChaos`] at the *worker* level above this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Chaos {
    /// Run the scenario normally.
    #[default]
    None,
    /// Fail the first `n` attempts with a transient error, then succeed —
    /// exercises the bounded-retry path.
    FailAttempts(
        /// Attempts that fail before the first success.
        u32,
    ),
    /// Panic inside the worker on every attempt — exercises panic capture.
    Panic,
    /// Sleep this long inside the attempt *while holding the slot's
    /// engine-buffer pool* — exercises the wall-clock backstop and the
    /// stranded-pool replacement.
    Hang(Duration),
}

/// One entry of a sweep: an id, a config, and optional harness overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique identifier, used as the resume key.
    pub id: String,
    /// The simulation to run.
    pub config: SimConfig,
    /// Harness-level chaos (defaults to [`Chaos::None`]).
    pub chaos: Chaos,
    /// Explicit sim-time watchdog budget; `None` derives one from the
    /// scenario's nominal timing (see [`SweepOptions::watchdog_factor`]).
    pub max_sim_time: Option<SimTime>,
}

impl Scenario {
    /// A plain scenario with no chaos and a derived watchdog budget.
    pub fn new(id: impl Into<String>, config: SimConfig) -> Self {
        Scenario {
            id: id.into(),
            config,
            chaos: Chaos::None,
            max_sim_time: None,
        }
    }
}

/// Supervisor policy for one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Worker threads (supervision slots). Results do not depend on this.
    pub threads: usize,
    /// Work-queue/result-file shards; `None` uses one per worker thread.
    /// Results do not depend on this either — a scenario's shard is a
    /// pure function of its input index.
    pub shards: Option<usize>,
    /// Extra attempts allowed after a transient failure or wall-clock
    /// timeout. Deterministic failures (panic, stall, watchdog, invalid
    /// config) are never retried.
    pub retries: u32,
    /// Base delay of the capped exponential backoff between retry
    /// attempts (doubled per attempt, capped at 2 s). Zero disables
    /// backoff.
    pub retry_backoff: Duration,
    /// Wall-clock ceiling per attempt — the backstop behind the
    /// deterministic sim-time watchdog. A timed-out attempt's thread is
    /// abandoned (detached), not killed.
    pub wall_timeout: Duration,
    /// Advisory wall-clock budget for the *whole sweep*: pre-flight warns
    /// (`SC025`) when the worst-case retry schedule cannot fit in it, so
    /// a retry policy that can never be exercised is caught before any
    /// cycles are spent. `None` disables the check.
    pub max_wall: Option<Duration>,
    /// The derived sim-time budget is the scenario's nominal runtime
    /// (steps, injections, rank faults, worst-case retransmission backoff)
    /// times this factor.
    pub watchdog_factor: f64,
    /// Optional event-count budget forwarded to [`mpisim::RunLimits`].
    pub max_events: Option<u64>,
    /// Maximum *predicted* events per scenario: the pre-flight budget
    /// pass records scenarios over this ceiling as
    /// [`ScenarioStatus::OverBudget`] (`SC018`) without running them.
    /// Independent of [`SweepOptions::max_events`], which aborts a
    /// simulation already running. `None` disables the gate.
    pub budget: Option<u64>,
    /// Reload the merged report (and any surviving shard files) and skip
    /// scenarios that already have a persisted record (finished = any
    /// terminal status, success or not). With a
    /// [`SweepOptions::checkpoint_dir`], unfinished scenarios with a
    /// valid snapshot additionally resume mid-run from it.
    pub resume: bool,
    /// Directory of the verified result cache: clean scenarios whose
    /// config fingerprint already has a verified entry are served from it
    /// byte-identically instead of re-simulated; corrupt or colliding
    /// entries are quarantined and re-simulated. `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Fsync every persisted record (and not just flush it): survives
    /// OS-level crashes, at a per-record cost. The self-chaos drill runs
    /// with this on.
    pub fsync: bool,
    /// Directory for mid-scenario [`mpisim::Snapshot`] files (created if
    /// missing). `None` disables checkpointing entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence forwarded to
    /// [`mpisim::Engine::try_run_checkpointed`]. Ignored without a
    /// [`SweepOptions::checkpoint_dir`].
    pub checkpoint: CheckpointPolicy,
    /// Deterministic worker-level chaos for the self-chaos drill and
    /// fabric tests (defaults to none).
    pub fabric_chaos: FabricChaos,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 4,
            shards: None,
            retries: 2,
            retry_backoff: Duration::from_millis(10),
            wall_timeout: Duration::from_secs(30),
            max_wall: None,
            watchdog_factor: 64.0,
            max_events: None,
            budget: None,
            resume: false,
            cache_dir: None,
            fsync: false,
            checkpoint_dir: None,
            checkpoint: CheckpointPolicy::none(),
            fabric_chaos: FabricChaos::none(),
        }
    }
}

/// Terminal outcome of one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// Completed with a full trace.
    Ok,
    /// Rejected by the analyzer before running.
    Invalid,
    /// Rejected by the pre-flight budget pass (`SC018`): predicted events
    /// exceed [`SweepOptions::budget`]. Never attempted.
    OverBudget,
    /// The run stalled (deadlock, fail-stop crash, or lost transfers).
    Stalled,
    /// The deterministic sim-time or event budget tripped.
    Watchdog,
    /// The wall-clock backstop fired; the attempt was abandoned.
    WallTimeout,
    /// The worker panicked.
    Panicked,
    /// Transient failures exhausted the retry budget.
    Transient,
    /// The job was cancelled before it ran — `wavesim serve` records this
    /// for jobs orphaned by a client disconnect, so a restart never
    /// re-runs work nobody is waiting for. The sweep fabric itself never
    /// produces it.
    Cancelled,
}

impl ScenarioStatus {
    /// Stable string form used in the persisted JSON records.
    pub fn as_str(self) -> &'static str {
        match self {
            ScenarioStatus::Ok => "ok",
            ScenarioStatus::Invalid => "invalid",
            ScenarioStatus::OverBudget => "over-budget",
            ScenarioStatus::Stalled => "stalled",
            ScenarioStatus::Watchdog => "watchdog",
            ScenarioStatus::WallTimeout => "wall-timeout",
            ScenarioStatus::Panicked => "panic",
            ScenarioStatus::Transient => "transient",
            ScenarioStatus::Cancelled => "cancelled",
        }
    }
}

/// Compact numbers of a successful run — everything the sweep analyses
/// need without persisting full traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Sim-time end of the run in nanoseconds (deterministic, unlike wall
    /// clock).
    pub runtime_ns: u64,
    /// Events the engine delivered.
    pub events: u64,
    /// Messages transferred.
    pub messages: u64,
    /// Retransmitted copies (fault injection).
    pub retransmissions: u64,
    /// Dropped copies (fault injection).
    pub dropped: u64,
    /// Corrupted copies (fault injection).
    pub corrupted: u64,
    /// FNV-1a digest of the full trace ([`Trace::fingerprint`]) — equal
    /// digests across runs prove bit-identical traces.
    pub trace_fingerprint: u64,
}

impl RunSummary {
    fn from_run(trace: &Trace, stats: &RunStats) -> Self {
        RunSummary {
            runtime_ns: trace.total_runtime().0,
            events: stats.events,
            messages: stats.messages,
            retransmissions: stats.retransmissions,
            dropped: stats.dropped_transfers,
            corrupted: stats.corrupted_transfers,
            trace_fingerprint: trace.fingerprint(),
        }
    }
}

/// The persisted record of one finished scenario — one JSON line in the
/// sweep output file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario id (the resume key).
    pub id: String,
    /// Terminal status.
    pub status: ScenarioStatus,
    /// Attempts consumed (1 = first try succeeded or failed terminally).
    pub attempts: u32,
    /// Error detail for non-[`ScenarioStatus::Ok`] outcomes.
    pub error: Option<String>,
    /// Run numbers for [`ScenarioStatus::Ok`] outcomes.
    pub summary: Option<RunSummary>,
    /// [`mpisim::config_fingerprint`] of the scenario's config at run
    /// time, used by `--resume` to reject mixed-config sweep files.
    /// `None` only on records persisted by pre-header versions.
    pub config_fingerprint: Option<u64>,
}

impl ScenarioResult {
    /// Did the scenario produce a trace?
    pub fn is_ok(&self) -> bool {
        self.status == ScenarioStatus::Ok
    }
}

/// Everything a finished sweep knows, reassembled in scenario input order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One record per scenario, in input order. An
    /// [interrupted](SweepReport::interrupted) sweep carries only the
    /// scenarios that reached a terminal record before the stop.
    pub results: Vec<ScenarioResult>,
    /// How many records were reloaded from a previous run (`--resume`)
    /// instead of executed.
    pub reused: usize,
    /// Rendered pre-run and runtime warnings (`SC017`/`SC020`/`SC025`/
    /// `SC026`/`SC027`, undecodable resume records, quarantined cache
    /// entries), one per incident.
    pub warnings: Vec<String>,
    /// Scenarios served byte-identically from the verified result cache
    /// instead of simulated.
    pub cache_hits: usize,
    /// Cache-eligible scenarios that had no entry and were simulated
    /// (and stored, when they completed cleanly).
    pub cache_misses: usize,
    /// Cache entries that failed integrity or config verification, were
    /// quarantined, and re-simulated.
    pub cache_quarantined: usize,
    /// Fabric workers that died ([`FabricChaos`] or sink I/O failure)
    /// and had their queued work redistributed.
    pub retired_workers: usize,
    /// The sweep stopped early on a [`run_sweep_interruptible`] stop
    /// request (SIGTERM/SIGINT in the CLI): in-flight scenarios finished
    /// and were flushed to their shard sinks, undealt ones were left
    /// untouched, and the shards + manifest were kept on disk so a
    /// `--resume` run completes the suite.
    pub interrupted: bool,
}

impl SweepReport {
    /// Scenarios that did not finish with a trace.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| !r.is_ok()).count()
    }

    /// Did every scenario produce a trace?
    pub fn all_ok(&self) -> bool {
        self.failures() == 0
    }
}

/// Outcome of one attempt, produced inside the worker thread.
enum Attempt {
    Ok(Box<RunSummary>),
    Invalid(String),
    Stalled(String),
    Watchdog(String),
    Transient(String),
    Panicked(String),
}

/// Shared per-sweep counters the workers bump.
#[derive(Default)]
struct Counters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    quarantined: AtomicUsize,
    retired: AtomicUsize,
}

/// Everything a worker needs to run one scenario, shared across the
/// fabric.
struct RunCtx<'a> {
    opts: &'a SweepOptions,
    ckpt_dir: Option<&'a Path>,
    cache: Option<&'a cache::ResultCache>,
    config_jsons: &'a [String],
    fingerprints: &'a [u64],
    watchdogs: &'a [SimTime],
    counters: &'a Counters,
    warnings: &'a Mutex<Vec<String>>,
}

/// Run every scenario on the work-stealing fabric, persisting each
/// finished record to its shard sink the moment it completes, and merge
/// everything atomically into the final report at `out_path` (header
/// line plus one record per scenario in input order).
///
/// Scenario outcomes (panics, stalls, watchdog trips, timeouts) are data,
/// not errors: the `Err` path is reserved for harness-level I/O problems
/// (unwritable output file, duplicate scenario ids).
///
/// # Panics
/// Panics if `opts.threads` is zero.
pub fn run_sweep(
    scenarios: &[Scenario],
    opts: &SweepOptions,
    out_path: &Path,
) -> io::Result<SweepReport> {
    run_sweep_interruptible(scenarios, opts, out_path, &AtomicBool::new(false))
}

/// [`run_sweep`] with a cooperative stop flag, polled between scenarios:
/// once `stop` is set, workers finish (and persist) the scenario they are
/// on, deal no new ones, and the fabric returns early with
/// [`SweepReport::interrupted`] set instead of merging a partial report.
/// The shard sinks and manifest stay on disk, so a later `--resume` run
/// picks up exactly where the stop landed. The CLI wires SIGTERM/SIGINT
/// to this flag.
///
/// # Panics
/// Panics if `opts.threads` is zero.
pub fn run_sweep_interruptible(
    scenarios: &[Scenario],
    opts: &SweepOptions,
    out_path: &Path,
    stop: &AtomicBool,
) -> io::Result<SweepReport> {
    assert!(opts.threads >= 1, "need at least one supervisor thread");
    let mut ids = std::collections::BTreeSet::new();
    for s in scenarios {
        if !ids.insert(s.id.as_str()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("duplicate scenario id '{}'", s.id),
            ));
        }
    }
    let config_jsons: Vec<String> = scenarios
        .iter()
        .map(|s| json::to_string(&s.config))
        .collect();
    let fingerprints: Vec<u64> = scenarios
        .iter()
        .map(|s| config_fingerprint(&s.config))
        .collect();

    let mut warnings = Vec::new();
    let previous = if opts.resume {
        validate_resume_configs(scenarios, &fingerprints, out_path)?;
        let (records, load_warnings) = shard::load_previous(out_path)?;
        warnings.extend(load_warnings);
        records
    } else {
        // A fresh run must not inherit fabric droppings from an earlier
        // crashed run against the same path.
        let _ = std::fs::remove_file(shard::manifest_path(out_path));
        for stale in shard::existing_shard_files(out_path)? {
            let _ = std::fs::remove_file(stale);
        }
        Vec::new()
    };
    let finished: std::collections::BTreeMap<&str, &ScenarioResult> =
        previous.iter().map(|r| (r.id.as_str(), r)).collect();

    // The manifest carries the suite's config fingerprints from before
    // the first scenario runs until the merge replaces it with the
    // header line of the final report — so a resume after a crash at
    // *any* point can validate configs.
    let header = header_json(scenarios, &fingerprints);
    let manifest = shard::manifest_path(out_path);
    shard::write_atomic(&manifest, &format!("{}\n", json::to_string(&header)))?;

    // One static budget analysis per scenario feeds the watchdog limit
    // of every attempt and the pre-flight checks below.
    let reports: Vec<simcheck::BudgetReport> = scenarios
        .iter()
        .map(|s| simcheck::budget::budget(&s.config))
        .collect();
    let watchdogs: Vec<SimTime> = scenarios
        .iter()
        .zip(&reports)
        .map(|(s, report)| sim_budget(s, opts, report))
        .collect();

    let ckpt_dir = opts.checkpoint_dir.as_deref();
    if let Some(dir) = ckpt_dir {
        std::fs::create_dir_all(dir)?;
    }
    if ckpt_dir.is_some() {
        if let Some(interval) = opts.checkpoint.every_sim_time {
            for (s, &watchdog) in scenarios.iter().zip(&watchdogs) {
                for d in simcheck::checkpoint_checks(interval, watchdog) {
                    warnings.push(format!("scenario '{}': {d}", s.id));
                }
            }
        }
    }
    if let Some(max_wall) = opts.max_wall {
        for d in simcheck::sweep_policy_checks(
            scenarios.len(),
            opts.threads,
            opts.retries,
            opts.wall_timeout,
            max_wall,
        ) {
            warnings.push(d.to_string());
        }
    }

    // The verified result cache: an unusable directory degrades to an
    // uncached sweep (SC026) instead of failing mid-run; verified
    // entries that store a different config are named up front (SC027).
    let cache = match &opts.cache_dir {
        Some(dir) => match cache::ResultCache::open(dir) {
            Ok(c) => {
                let entries = scenarios
                    .iter()
                    .zip(&config_jsons)
                    .zip(&fingerprints)
                    .map(|((s, cfg), &fp)| (s.id.as_str(), cfg.as_str(), fp));
                for (id, fp) in c.collisions(entries) {
                    warnings.push(simcheck::cache_fingerprint_collision(&id, fp).to_string());
                }
                Some(c)
            }
            Err(e) => {
                warnings.push(simcheck::cache_dir_unwritable(dir, &e).to_string());
                None
            }
        },
        None => None,
    };

    // Pre-flight budget pass: the static analyses feed the suite-level
    // duplicate check (SC020), the --budget gate (SC018), and the shared
    // buffer shape every supervision slot pre-sizes from.
    let ids: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
    for d in simcheck::budget::duplicate_fingerprint_checks(&ids, &fingerprints) {
        warnings.push(d.to_string());
    }
    let mut preflight: Vec<Option<ScenarioResult>> = Vec::with_capacity(scenarios.len());
    preflight.resize_with(scenarios.len(), || None);
    let mut pool_budget = PoolBudget {
        ranks: 0,
        steps: 0,
        peak_queue: 0,
        requests_per_rank: 0,
        trace_records: 0,
    };
    let gates = simcheck::budget::Budgets {
        max_events: opts.budget,
        ..Default::default()
    };
    for (i, (s, report)) in scenarios.iter().zip(&reports).enumerate() {
        pool_budget = max_pool_budget(pool_budget, report.pool);
        if finished.contains_key(s.id.as_str()) {
            continue;
        }
        let sc018: Vec<_> = simcheck::budget::budget_checks(&s.config, report, &gates)
            .into_iter()
            .filter(|d| d.code == "SC018")
            .collect();
        if sc018.is_empty() {
            continue;
        }
        for d in &sc018 {
            warnings.push(format!("scenario '{}': {d}", s.id));
        }
        preflight[i] = Some(ScenarioResult {
            id: s.id.clone(),
            status: ScenarioStatus::OverBudget,
            attempts: 0,
            error: Some(simcheck::render_report(&sc018)),
            summary: None,
            config_fingerprint: Some(fingerprints[i]),
        });
    }

    // The sharded sinks: a scenario's shard is its input index mod the
    // shard count, independent of which worker runs it.
    let nshards = opts.shards.unwrap_or(opts.threads).max(1);
    let mut sinks: Vec<Mutex<shard::ShardSink>> = Vec::with_capacity(nshards);
    for k in 0..nshards {
        sinks.push(Mutex::new(shard::ShardSink::open(
            &shard::shard_path(out_path, k),
            opts.fsync,
        )?));
    }
    for (i, r) in preflight.iter().enumerate() {
        if let Some(r) = r {
            sinks[i % nshards]
                .lock()
                .expect("sink poisoned")
                .persist(r)?;
        }
    }

    let queues = fabric::ShardQueues::new(nshards);
    for (idx, s) in scenarios.iter().enumerate() {
        if !finished.contains_key(s.id.as_str()) && preflight[idx].is_none() {
            queues.push(fabric::WorkItem { idx, scenario: s });
        }
    }
    let reused = scenarios
        .iter()
        .filter(|s| finished.contains_key(s.id.as_str()))
        .count();

    let counters = Counters::default();
    let runtime_warnings = Mutex::new(Vec::new());
    let ctx = RunCtx {
        opts,
        ckpt_dir,
        cache: cache.as_ref(),
        config_jsons: &config_jsons,
        fingerprints: &fingerprints,
        watchdogs: &watchdogs,
        counters: &counters,
        warnings: &runtime_warnings,
    };

    let threads = opts.threads.min(scenarios.len().max(1));
    let (tx, rx) = mpsc::channel::<(usize, io::Result<ScenarioResult>)>();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let queues = &queues;
            let sinks = &sinks;
            let ctx = &ctx;
            let tx = tx.clone();
            scope.spawn(move || {
                // One engine-buffer pool per worker, pre-sized to the
                // elementwise-max predicted shape across the whole suite:
                // every scenario this worker runs draws its large
                // allocations from it and stays inside the budget, so a
                // sweep allocates once per worker instead of once per
                // attempt — settled from run 1, no warmup runs.
                let pool = pool_slot(pool_budget);
                let mut done = 0usize;
                loop {
                    if ctx.opts.fabric_chaos.kills(w, done) {
                        ctx.counters.retired.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    // A stop request lands *between* scenarios: the one in
                    // flight was persisted by the previous iteration, the
                    // rest stay queued for a --resume run.
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Some(item) = queues.next_for(w) else {
                        break;
                    };
                    let result = run_one(ctx, item.scenario, item.idx, &pool);
                    let persisted = sinks[queues.shard_of(item.idx)]
                        .lock()
                        .expect("sink poisoned")
                        .persist(&result)
                        .map(|()| result);
                    let poisoned = persisted.is_err();
                    tx.send((item.idx, persisted))
                        .expect("report receiver gone");
                    if poisoned {
                        // A sink this worker cannot write to poisons it:
                        // retire and let the survivors take the queue.
                        ctx.counters.retired.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    done += 1;
                }
            });
        }
        drop(tx);
    });

    let mut slots: Vec<Option<ScenarioResult>> = Vec::with_capacity(scenarios.len());
    slots.resize_with(scenarios.len(), || None);
    for (idx, r) in rx {
        slots[idx] = Some(r?);
    }
    // Graceful degradation: if chaos (or I/O trouble) retired every
    // worker with work still queued, the supervisor thread drains the
    // leftovers inline — slower, never deadlocked, never incomplete.
    // Not on a stop request, though: then the leftovers are exactly the
    // scenarios a --resume run is supposed to pick up.
    let leftovers = queues.drain_leftovers();
    if !leftovers.is_empty() && !stop.load(Ordering::SeqCst) {
        let pool = pool_slot(pool_budget);
        for item in leftovers {
            let result = run_one(&ctx, item.scenario, item.idx, &pool);
            sinks[queues.shard_of(item.idx)]
                .lock()
                .expect("sink poisoned")
                .persist(&result)?;
            slots[item.idx] = Some(result);
        }
    }

    let stopped = stop.load(Ordering::SeqCst);
    let mut interrupted = false;
    for (idx, s) in scenarios.iter().enumerate() {
        if slots[idx].is_none() {
            slots[idx] = preflight[idx]
                .take()
                .or_else(|| finished.get(s.id.as_str()).map(|prior| (*prior).clone()));
            if slots[idx].is_none() {
                assert!(stopped, "scenario neither run nor reloaded");
                interrupted = true;
            }
        }
    }
    let results: Vec<ScenarioResult> = slots.into_iter().flatten().collect();

    if !interrupted {
        // Compact the shards into the final report — header plus records
        // in input order, atomically — and clean up the manifest and
        // shards. An interrupted sweep skips this: the shards and
        // manifest *are* its clean resumable state.
        shard::merge(out_path, &header, &results)?;

        if let Some(dir) = ckpt_dir {
            // Every scenario now has a terminal record (fresh or
            // reloaded), so its snapshot can never be resumed again:
            // collect them all, including orphans left behind by records
            // reloaded from previous runs. Best-effort — a surviving
            // file only wastes disk.
            for s in scenarios {
                let _ = std::fs::remove_file(snapshot_path(dir, &s.id));
            }
        }
    }
    let mut runtime = runtime_warnings
        .into_inner()
        .expect("warnings lock poisoned");
    runtime.sort();
    warnings.extend(runtime);
    Ok(SweepReport {
        results,
        reused,
        warnings,
        cache_hits: counters.hits.load(Ordering::Relaxed),
        cache_misses: counters.misses.load(Ordering::Relaxed),
        cache_quarantined: counters.quarantined.load(Ordering::Relaxed),
        retired_workers: counters.retired.load(Ordering::Relaxed),
        interrupted,
    })
}

/// Run one scenario to a terminal record: serve it from the verified
/// cache when eligible, otherwise supervise a real run (and store clean
/// completions back into the cache).
fn run_one(ctx: &RunCtx<'_>, scenario: &Scenario, idx: usize, pool: &PoolSlot) -> ScenarioResult {
    let fp = ctx.fingerprints[idx];
    // Cache eligibility: the entry key is the config fingerprint and
    // nothing else, so anything that makes the outcome depend on more
    // than the config — harness chaos, a per-scenario watchdog override,
    // a run-aborting event cap — opts the scenario out.
    let cacheable = ctx.cache.is_some()
        && scenario.chaos == Chaos::None
        && scenario.max_sim_time.is_none()
        && ctx.opts.max_events.is_none();
    if cacheable {
        let cache = ctx.cache.expect("cacheable implies a cache");
        match cache.lookup(&ctx.config_jsons[idx], fp) {
            cache::Lookup::Hit { attempts, summary } => {
                ctx.counters.hits.fetch_add(1, Ordering::Relaxed);
                return ScenarioResult {
                    id: scenario.id.clone(),
                    status: ScenarioStatus::Ok,
                    attempts,
                    error: None,
                    summary: Some(summary),
                    config_fingerprint: Some(fp),
                };
            }
            cache::Lookup::Quarantined(reason) => {
                ctx.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                ctx.warnings
                    .lock()
                    .expect("warnings lock poisoned")
                    .push(format!(
                        "scenario '{}': cache entry {fp:#018x} quarantined ({reason}); \
                         re-simulating",
                        scenario.id
                    ));
            }
            cache::Lookup::Miss => {
                ctx.counters.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let ckpt = ctx.ckpt_dir.map(|dir| CkptPlan {
        path: snapshot_path(dir, &scenario.id),
        policy: ctx.opts.checkpoint,
        resume: ctx.opts.resume,
    });
    let result = supervise(scenario, ctx.opts, ctx.watchdogs[idx], ckpt.as_ref(), pool);
    if cacheable && result.status == ScenarioStatus::Ok {
        if let (Some(cache), Some(summary)) = (ctx.cache, result.summary) {
            // Best-effort: a full disk must not fail an earned result.
            let _ = cache.store(&ctx.config_jsons[idx], fp, result.attempts, &summary);
        }
    }
    result
}

/// A supervision slot's shared engine-buffer pool. Attempt threads take
/// the pools out under a brief lock before the run and put them back
/// after — the lock is never held across a run. An attempt abandoned by
/// the wall-clock backstop walks off with the pool instance it took; the
/// backstop immediately installs a fresh budget-sized replacement and
/// bumps the generation counter, so the abandoned thread's eventual
/// put-back is recognised as stale and discarded instead of clobbering
/// the replacement. Long sweeps therefore keep pooling across timeouts
/// instead of silently degrading to unpooled runs.
pub(crate) struct PoolState {
    /// Bumped whenever the backstop abandons an attempt; a put-back from
    /// an older generation is dropped.
    gen: u64,
    /// The shape fresh and replacement pools are sized from.
    budget: PoolBudget,
    pool: Option<EnginePools>,
}

pub(crate) type PoolSlot = Arc<Mutex<PoolState>>;

/// A slot holding a freshly budget-sized pool.
pub(crate) fn pool_slot(budget: PoolBudget) -> PoolSlot {
    Arc::new(Mutex::new(PoolState {
        gen: 0,
        budget,
        pool: Some(EnginePools::with_budget(&budget)),
    }))
}

/// Elementwise maximum of two pool shapes: a slot sized to the max fits
/// every scenario in the sweep without growing.
pub(crate) fn max_pool_budget(a: PoolBudget, b: PoolBudget) -> PoolBudget {
    PoolBudget {
        ranks: a.ranks.max(b.ranks),
        steps: a.steps.max(b.steps),
        peak_queue: a.peak_queue.max(b.peak_queue),
        requests_per_rank: a.requests_per_rank.max(b.requests_per_rank),
        trace_records: a.trace_records.max(b.trace_records),
    }
}

/// Grow a slot's pool to (at least) `want` before a job that needs more
/// than the slot currently holds — `wavesim serve` cannot pre-size
/// against a known suite the way a sweep can, so its workers grow their
/// slot monotonically as bigger submissions arrive. The generation is
/// bumped so an abandoned attempt's late put-back of the *old* pool is
/// discarded. No-op when the slot already fits.
pub(crate) fn ensure_pool_budget(slot: &PoolSlot, want: PoolBudget) {
    let mut s = slot.lock().expect("pool poisoned");
    let grown = max_pool_budget(s.budget, want);
    let fits = grown.ranks == s.budget.ranks
        && grown.steps == s.budget.steps
        && grown.peak_queue == s.budget.peak_queue
        && grown.requests_per_rank == s.budget.requests_per_rank
        && grown.trace_records == s.budget.trace_records;
    if !fits {
        s.gen += 1;
        s.budget = grown;
        s.pool = Some(EnginePools::with_budget(&grown));
    }
}

/// Mid-scenario checkpointing instructions for one scenario's attempts.
#[derive(Debug, Clone)]
pub(crate) struct CkptPlan {
    path: PathBuf,
    policy: CheckpointPolicy,
    resume: bool,
}

/// The snapshot file for a scenario id: the id sanitised for the
/// filesystem, plus an FNV tag of the raw id so distinct ids that
/// sanitise identically ("a/b" vs "a_b") cannot share a file.
fn snapshot_path(dir: &Path, id: &str) -> PathBuf {
    let sanitized: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!(
        "{sanitized}-{:08x}.ckpt",
        fnv1a_64(id.as_bytes()) as u32
    ))
}

/// Version tag of the sweep-file header line.
const SWEEP_FORMAT: u64 = 1;

fn header_json(scenarios: &[Scenario], fingerprints: &[u64]) -> Json {
    Json::obj(vec![
        ("sweep_format", SWEEP_FORMAT.to_json()),
        ("tool", Json::Str("wavesim-sweep".to_string())),
        (
            "configs",
            Json::Object(
                scenarios
                    .iter()
                    .zip(fingerprints)
                    .map(|(s, &fp)| (s.id.clone(), fp.to_json()))
                    .collect(),
            ),
        ),
    ])
}

/// Read a header line's id → config-fingerprint map from `path`, if the
/// file exists and starts with a header (files from pre-header versions
/// return `None` and are accepted as-is).
fn load_header(path: &Path) -> io::Result<Option<Vec<(String, u64)>>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let first = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let Ok(text) = std::str::from_utf8(first) else {
        return Ok(None);
    };
    let Ok(v) = Json::parse(text) else {
        return Ok(None);
    };
    if v.get("sweep_format").is_none() {
        return Ok(None);
    }
    let Some(configs) = v.get("configs").and_then(|c| c.as_object()) else {
        return Ok(None);
    };
    Ok(Some(
        configs
            .iter()
            .filter_map(|(id, fp)| fp.as_u64().map(|f| (id.clone(), f)))
            .collect(),
    ))
}

/// The recorded header for `out`: the merged report's first line when one
/// exists, else the manifest a crashed run left behind.
fn load_any_header(out: &Path) -> io::Result<Option<Vec<(String, u64)>>> {
    if let Some(h) = load_header(out)? {
        return Ok(Some(h));
    }
    load_header(&shard::manifest_path(out))
}

/// Reject a `--resume` whose scenarios carry different configs than the
/// ones recorded in the existing files (header/manifest line and
/// per-record fingerprints). Scenarios the files have never seen are
/// fine — resuming with a superset is supported.
fn validate_resume_configs(
    scenarios: &[Scenario],
    fingerprints: &[u64],
    out_path: &Path,
) -> io::Result<()> {
    let header = load_any_header(out_path)?;
    let (previous, _) = shard::load_previous(out_path)?;
    for (s, &fp) in scenarios.iter().zip(fingerprints) {
        let recorded = header
            .as_ref()
            .and_then(|h| h.iter().find(|(id, _)| *id == s.id).map(|&(_, f)| f))
            .or_else(|| {
                previous
                    .iter()
                    .find(|r| r.id == s.id)
                    .and_then(|r| r.config_fingerprint)
            });
        if let Some(old) = recorded {
            if old != fp {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "resume config mismatch for scenario '{}': the existing \
                         sweep file was produced with config fingerprint \
                         {old:#018x}, this invocation's config has {fp:#018x}; \
                         rerun against a fresh output file instead of mixing \
                         results",
                        s.id
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Supervise one scenario: bounded attempts, each in an isolated worker
/// with panic capture and the wall-clock backstop, with capped
/// exponential backoff between retries. `watchdog` is the scenario's
/// sim-time limit, [`sim_budget`] of the caller's budget report.
pub(crate) fn supervise(
    scenario: &Scenario,
    opts: &SweepOptions,
    watchdog: SimTime,
    ckpt: Option<&CkptPlan>,
    pool: &PoolSlot,
) -> ScenarioResult {
    let limits = RunLimits {
        max_sim_time: Some(watchdog),
        max_events: opts.max_events,
    };
    // Per-scenario jitter salt: scenarios that hit the same transient at
    // the same moment (a shared sink hiccup, a brownout) de-synchronize
    // their retries instead of stampeding back in lockstep.
    let salt = fnv1a_64(scenario.id.as_bytes());
    let mut attempts = 0u32;
    loop {
        let outcome = run_attempt(scenario, attempts, &limits, opts.wall_timeout, ckpt, pool);
        attempts += 1;
        let (status, error, summary) = match outcome {
            Some(Attempt::Ok(summary)) => (ScenarioStatus::Ok, None, Some(*summary)),
            Some(Attempt::Invalid(e)) => (ScenarioStatus::Invalid, Some(e), None),
            Some(Attempt::Stalled(e)) => (ScenarioStatus::Stalled, Some(e), None),
            Some(Attempt::Watchdog(e)) => (ScenarioStatus::Watchdog, Some(e), None),
            Some(Attempt::Panicked(e)) => (ScenarioStatus::Panicked, Some(e), None),
            Some(Attempt::Transient(e)) => {
                if attempts <= opts.retries {
                    backoff_sleep(opts.retry_backoff, attempts, salt);
                    continue;
                }
                (ScenarioStatus::Transient, Some(e), None)
            }
            None => {
                if attempts <= opts.retries {
                    backoff_sleep(opts.retry_backoff, attempts, salt);
                    continue;
                }
                (
                    ScenarioStatus::WallTimeout,
                    Some(format!(
                        "attempt exceeded the {:?} wall-clock backstop",
                        opts.wall_timeout
                    )),
                    None,
                )
            }
        };
        return ScenarioResult {
            id: scenario.id.clone(),
            status,
            attempts,
            error,
            summary,
            config_fingerprint: Some(config_fingerprint(&scenario.config)),
        };
    }
}

/// Ceiling of the capped exponential retry backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Deterministic jitter factor in `[0.5, 1.5)` for retry `attempt` of the
/// scenario salted with `salt`: the same (salt, attempt) pair always
/// jitters identically — results and attempt counts cannot depend on it,
/// only the sleep's wall-clock length does — but different scenarios
/// spread across the whole window instead of thundering back together.
fn backoff_jitter(salt: u64, attempt: u32) -> f64 {
    let bits = simdes::splitmix64(salt ^ (u64::from(attempt) << 32 | 0x9e37_79b9));
    // Top 53 bits → uniform in [0, 1), the standard float construction.
    0.5 + (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Sleep `base × 2^(attempt-1)`, capped at [`BACKOFF_CAP`], then scaled
/// by the deterministic per-scenario jitter — attempt 1 waits about
/// `base`, attempt 2 about twice that, and so on. Zero base disables
/// backoff entirely.
fn backoff_sleep(base: Duration, attempt: u32, salt: u64) {
    if base.is_zero() {
        return;
    }
    let factor = 1u32 << attempt.saturating_sub(1).min(16);
    let nominal = base.saturating_mul(factor).min(BACKOFF_CAP);
    std::thread::sleep(nominal.mul_f64(backoff_jitter(salt, attempt)));
}

/// One isolated attempt. `None` means the wall-clock backstop fired and
/// the worker thread was abandoned.
fn run_attempt(
    scenario: &Scenario,
    attempt: u32,
    limits: &RunLimits,
    wall_timeout: Duration,
    ckpt: Option<&CkptPlan>,
    pool: &PoolSlot,
) -> Option<Attempt> {
    let cfg = scenario.config.clone();
    let chaos = scenario.chaos;
    let limits = *limits;
    let ckpt = ckpt.cloned();
    let worker_pool = Arc::clone(pool);
    let (tx, rx) = mpsc::channel::<Attempt>();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            attempt_body(cfg, chaos, attempt, &limits, ckpt.as_ref(), &worker_pool)
        }))
        .unwrap_or_else(|payload| Attempt::Panicked(panic_text(payload.as_ref())));
        // The receiver is gone iff the backstop already fired.
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(wall_timeout) {
        Ok(outcome) => Some(outcome),
        Err(_) => {
            // The abandoned thread walked off with the slot's pool (or is
            // about to put it back). Invalidate its generation so a late
            // put-back is discarded, and refill an emptied slot with a
            // fresh budget-sized pool so later attempts keep pooling.
            let mut slot = pool.lock().expect("pool poisoned");
            slot.gen += 1;
            if slot.pool.is_none() {
                slot.pool = Some(EnginePools::with_budget(&slot.budget));
            }
            None
        }
    }
}

/// The actual work of one attempt, run inside the isolated worker.
fn attempt_body(
    cfg: SimConfig,
    chaos: Chaos,
    attempt: u32,
    limits: &RunLimits,
    ckpt: Option<&CkptPlan>,
    pool: &PoolSlot,
) -> Attempt {
    match chaos {
        Chaos::Panic => panic!("chaos: deliberate panic"),
        Chaos::FailAttempts(n) if attempt < n => {
            return Attempt::Transient(format!(
                "chaos: transient failure on attempt {}",
                attempt + 1
            ));
        }
        _ => {}
    }
    let diags = simcheck::analyze(&cfg);
    if simcheck::has_errors(&diags) {
        let errors: Vec<_> = diags.into_iter().filter(|d| d.is_error()).collect();
        return Attempt::Invalid(simcheck::render_report(&errors));
    }
    // A mid-run resume rebuilds its engine from the snapshot, not the
    // pool; only fresh runs draw their buffers from the slot's pool.
    if let Some(engine) = try_restore(&cfg, ckpt) {
        return classify(run_restored(engine, limits, ckpt));
    }
    let (gen, mut pools) = {
        let mut slot = pool.lock().expect("pool poisoned");
        let gen = slot.gen;
        let budget = slot.budget;
        let pools = slot
            .pool
            .take()
            .unwrap_or_else(|| EnginePools::with_budget(&budget));
        (gen, pools)
    };
    if let Chaos::Hang(d) = chaos {
        // Deliberately outlast the wall-clock backstop while holding the
        // slot's pool — the stranded-pool scenario.
        std::thread::sleep(d);
    }
    let run = match ckpt {
        Some(plan) if plan.policy.is_active() => {
            let path = plan.path.clone();
            try_run_checkpointed_pooled(
                &cfg,
                limits,
                &plan.policy,
                move |snap| {
                    // Best-effort: a full disk must not kill a healthy run.
                    let _ = write_snapshot_atomic(&path, snap);
                },
                &mut pools,
            )
        }
        _ => try_run_with_stats_pooled(&cfg, limits, &mut pools),
    };
    {
        let mut slot = pool.lock().expect("pool poisoned");
        if slot.gen == gen {
            slot.pool = Some(pools);
        }
        // else: the backstop abandoned this attempt and already installed
        // a replacement — this pool is stale, drop it.
    }
    classify(run)
}

/// Finish a snapshot-restored engine (unpooled — see [`attempt_body`]).
fn run_restored(
    engine: Engine,
    limits: &RunLimits,
    ckpt: Option<&CkptPlan>,
) -> Result<(Trace, RunStats), SimError> {
    match ckpt {
        Some(plan) if plan.policy.is_active() => {
            let path = plan.path.clone();
            let policy = plan.policy;
            engine.try_run_checkpointed(limits, &policy, move |snap| {
                // Best-effort: a full disk must not kill a healthy run.
                let _ = write_snapshot_atomic(&path, snap);
            })
        }
        _ => engine.try_run_with_stats(limits),
    }
}

/// Map a run's result to an attempt outcome.
fn classify(run: Result<(Trace, RunStats), SimError>) -> Attempt {
    match run {
        Ok((trace, stats)) => Attempt::Ok(Box::new(RunSummary::from_run(&trace, &stats))),
        Err(e @ SimError::Stalled { .. }) => Attempt::Stalled(e.to_string()),
        Err(e @ SimError::Watchdog { .. }) => Attempt::Watchdog(e.to_string()),
        Err(e @ (SimError::InvalidConfig(_) | SimError::Snapshot(_))) => {
            Attempt::Invalid(e.to_string())
        }
    }
}

/// Resume from the scenario's snapshot when one exists and is acceptable.
/// Every rejection — torn file (`RT004`), foreign version (`RT003`),
/// different config (`RT005`) — falls back to a from-scratch run (`None`):
/// a snapshot is an optimisation, never a correctness requirement, and
/// the trace fingerprint is identical either way.
fn try_restore(cfg: &SimConfig, ckpt: Option<&CkptPlan>) -> Option<Engine> {
    let plan = ckpt?;
    if !plan.resume {
        return None;
    }
    let bytes = std::fs::read(&plan.path).ok()?;
    let snap = Snapshot::decode(&bytes).ok()?;
    Engine::restore(cfg.clone(), &snap).ok()
}

/// Write a snapshot atomically: encode to `<path with .tmp>`, fsync-free
/// `rename` into place. Readers therefore only ever see a complete file;
/// a crash mid-write leaves at worst a stale `.tmp` next to the previous
/// complete snapshot.
fn write_snapshot_atomic(path: &Path, snap: &Snapshot) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, snap.encode())?;
    std::fs::rename(&tmp, path)
}

/// The deterministic sim-time budget for a scenario: its explicit
/// `max_sim_time`, or the predicted runtime of its budget `report`
/// ([`simcheck::budget::BudgetReport::sim_time_predicted`]) plus the
/// worst-case allowances the central estimate deliberately leaves out,
/// times `watchdog_factor`.
pub(crate) fn sim_budget(
    scenario: &Scenario,
    opts: &SweepOptions,
    report: &simcheck::BudgetReport,
) -> SimTime {
    if let Some(t) = scenario.max_sim_time {
        return t;
    }
    let cfg = &scenario.config;
    let steps = u64::from(cfg.steps.max(1));
    let mut nominal = report.sim_time_predicted;
    if let Some(m) = cfg.faults.messages {
        // Worst case, every step's messages serially exhaust the backoff.
        nominal += m.max_extra_delay().times(steps);
    }
    // The prediction carries one helping of mean noise; budget a second.
    nominal += cfg.noise.mean().times(steps);
    let budget = nominal.mul_f64(opts.watchdog_factor) + SimDuration::from_millis(1);
    SimTime(budget.nanos())
}

/// Render a captured panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

impl ToJson for Chaos {
    fn to_json(&self) -> Json {
        match *self {
            Chaos::None => Json::Str("None".into()),
            Chaos::FailAttempts(n) => Json::obj(vec![(
                "FailAttempts",
                Json::obj(vec![("attempts", n.to_json())]),
            )]),
            Chaos::Panic => Json::Str("Panic".into()),
            Chaos::Hang(d) => Json::obj(vec![(
                "Hang",
                Json::obj(vec![("nanos", (d.as_nanos() as u64).to_json())]),
            )]),
        }
    }
}

// simlint: allow(hand-codec) — its tuple variants travel as struct payloads.
impl FromJson for Chaos {
    fn from_json(v: &Json) -> json::Result<Self> {
        let (variant, p) = v.expect_variant()?;
        match variant {
            "None" => Ok(Chaos::None),
            "Panic" => Ok(Chaos::Panic),
            "FailAttempts" => Ok(Chaos::FailAttempts(u32::from_json(p.field("attempts")?)?)),
            "Hang" => Ok(Chaos::Hang(Duration::from_nanos(u64::from_json(
                p.field("nanos")?,
            )?))),
            other => Err(json::JsonError(format!("unknown Chaos variant '{other}'"))),
        }
    }
}

// `chaos` stays a declared wire key until the fault hooks move in-process.
tracefmt::json_codec! {
    struct Scenario { id, config, chaos = Chaos::None, max_sim_time = None }
}

tracefmt::json_codec! {
    struct RunSummary {
        runtime_ns,
        events,
        messages,
        retransmissions,
        dropped,
        corrupted,
        trace_fingerprint,
    }
}

tracefmt::json_codec! {
    enum ScenarioStatus {
        Ok = "ok",
        Invalid = "invalid",
        OverBudget = "over-budget",
        Stalled = "stalled",
        Watchdog = "watchdog",
        WallTimeout = "wall-timeout",
        Panicked = "panic",
        Transient = "transient",
        Cancelled = "cancelled",
    }
}

tracefmt::json_codec! {
    struct ScenarioResult {
        id,
        status,
        attempts,
        error = None,
        summary = None,
        config_fingerprint = None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::WaveExperiment;
    use mpisim::{FaultPlan, MessageFaults};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("idlewave-sweep-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn quick_cfg(seed: u64) -> SimConfig {
        WaveExperiment::flat_chain(6)
            .texec(SimDuration::from_millis(1))
            .steps(4)
            .seed(seed)
            .into_config()
    }

    fn opts() -> SweepOptions {
        SweepOptions {
            threads: 3,
            wall_timeout: Duration::from_secs(20),
            ..SweepOptions::default()
        }
    }

    /// The watchdog limits derived from a caller's budget report, pinned
    /// to the values the supervisor derived when it ran the budget
    /// analysis itself.
    #[test]
    fn sim_budget_values_are_pinned() {
        let noisy = WaveExperiment::flat_chain(16)
            .texec(SimDuration::from_millis(2))
            .steps(10)
            .inject(3, 2, SimDuration::from_millis(7))
            .noise(noise_model::DelayDistribution::Exponential {
                mean: SimDuration::from_micros(50),
            })
            .seed(9)
            .into_config();
        let mut faulty = quick_cfg(2);
        faulty.faults = FaultPlan::none().with_drops(0.2, SimDuration::from_micros(100));
        let rdvz = WaveExperiment::flat_chain(8)
            .direction(workload::Direction::Bidirectional)
            .rendezvous()
            .texec(SimDuration::from_millis(1))
            .steps(6)
            .into_config();
        let default = SweepOptions::default();
        let tight = SweepOptions {
            watchdog_factor: 2.0,
            ..SweepOptions::default()
        };
        let explicit = Scenario {
            max_sim_time: Some(SimTime(123_456)),
            ..Scenario::new("explicit", quick_cfg(3))
        };
        for (s, o, want) in [
            (Scenario::new("quick", quick_cfg(1)), &default, 258_134_336),
            (Scenario::new("noisy", noisy), &default, 1_795_835_840),
            (Scenario::new("faulty", faulty), &default, 26_549_334_336),
            (Scenario::new("rdvz", rdvz), &tight, 13_093_972),
            (explicit, &default, 123_456),
        ] {
            let report = simcheck::budget::budget(&s.config);
            assert_eq!(sim_budget(&s, o, &report), SimTime(want), "{}", s.id);
        }
    }

    /// A scenario whose explicit watchdog sits 1 ns below its runtime is
    /// fused, trips, and records the general loop's exact error.
    #[test]
    fn a_watchdog_one_ns_short_records_the_general_loop_error() {
        let cfg = WaveExperiment::flat_chain(8)
            .eager()
            .texec(SimDuration::from_millis(1))
            .steps(5)
            .inject(2, 1, SimDuration::from_millis(4))
            .seed(3)
            .into_config();
        assert!(mpisim::fused_path_eligible(&cfg));
        let runtime = mpisim::run(&cfg).total_runtime();
        let limits = RunLimits::sim_time(SimTime(runtime.0 - 1));
        let never = mpisim::CheckpointPolicy {
            every_sim_time: None,
            every_events: Some(u64::MAX),
        };
        let want = Engine::new(cfg.clone())
            .try_run_checkpointed(&limits, &never, |_| {})
            .expect_err("the general loop trips");
        let out = tmp("watchdog_one_ns.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios = [Scenario {
            max_sim_time: limits.max_sim_time,
            ..Scenario::new("short", cfg)
        }];
        let report = run_sweep(&scenarios, &opts(), &out).expect("sweep io");
        let r = &report.results[0];
        assert_eq!(r.status, ScenarioStatus::Watchdog);
        assert_eq!(r.error.as_deref(), Some(want.to_string().as_str()));
    }

    #[test]
    fn chaos_sweep_completes_end_to_end() {
        let out = tmp("chaos_end_to_end.jsonl");
        let _ = std::fs::remove_file(&out);
        let mut invalid = quick_cfg(4);
        invalid.msg_bytes = 0;
        let mut stalling = quick_cfg(5);
        stalling.faults = FaultPlan::none().with_crash(2, 1, None);
        let scenarios = vec![
            Scenario::new("plain", quick_cfg(1)),
            Scenario {
                id: "panics".into(),
                config: quick_cfg(2),
                chaos: Chaos::Panic,
                max_sim_time: None,
            },
            Scenario {
                id: "watchdogged".into(),
                config: quick_cfg(3),
                chaos: Chaos::None,
                // 1 us sim budget: trips long before the 4-step run ends.
                max_sim_time: Some(SimTime(1_000)),
            },
            Scenario {
                id: "transient".into(),
                config: quick_cfg(6),
                chaos: Chaos::FailAttempts(2),
                max_sim_time: None,
            },
            Scenario {
                id: "invalid".into(),
                config: invalid,
                chaos: Chaos::None,
                max_sim_time: None,
            },
            Scenario::new("stalls", stalling),
        ];
        let report = run_sweep(&scenarios, &opts(), &out).expect("sweep io");
        assert_eq!(report.results.len(), 6);
        assert_eq!(report.reused, 0);
        let by_id = |id: &str| {
            report
                .results
                .iter()
                .find(|r| r.id == id)
                .unwrap_or_else(|| panic!("missing {id}"))
        };
        assert_eq!(by_id("plain").status, ScenarioStatus::Ok);
        assert!(by_id("plain").summary.is_some());
        assert_eq!(by_id("panics").status, ScenarioStatus::Panicked);
        assert!(
            by_id("panics")
                .error
                .as_deref()
                .is_some_and(|e| e.contains("deliberate panic")),
            "{:?}",
            by_id("panics")
        );
        assert_eq!(by_id("watchdogged").status, ScenarioStatus::Watchdog);
        assert_eq!(by_id("transient").status, ScenarioStatus::Ok);
        assert_eq!(by_id("transient").attempts, 3);
        assert_eq!(by_id("invalid").status, ScenarioStatus::Invalid);
        assert!(by_id("invalid")
            .error
            .as_deref()
            .is_some_and(|e| e.contains("SC004")));
        assert_eq!(by_id("stalls").status, ScenarioStatus::Stalled);
        assert!(by_id("stalls")
            .error
            .as_deref()
            .is_some_and(|e| e.contains("fail-stop")));
        // Every record was persisted, and the shards were compacted away.
        assert_eq!(load_results(&out).expect("readable").len(), 6);
        assert_eq!(report.failures(), 4);
    }

    /// Attempts in one supervision slot share the slot's [`EnginePools`],
    /// pre-sized from the budget analyzer's predicted shape: same-shape
    /// scenarios through the same slot never allocate beyond the budget —
    /// settled from run 1, no warmup runs.
    #[test]
    fn attempts_reuse_the_slot_pool_across_scenarios() {
        let pool = pool_slot(simcheck::budget::budget(&quick_cfg(0)).pool);
        let limits = RunLimits::none();
        for seed in 0..6u64 {
            match attempt_body(quick_cfg(seed), Chaos::None, 0, &limits, None, &pool) {
                Attempt::Ok(_) => {}
                _ => panic!("attempt for seed {seed} did not succeed"),
            }
            let slot = pool.lock().expect("pool lock");
            let pools = slot.pool.as_ref().expect("pools returned to the slot");
            assert_eq!(
                pools.grows(),
                0,
                "a budget-sized pool grew on seed {seed} (run {})",
                pools.runs()
            );
        }
    }

    /// A wall-timeout-abandoned attempt walks off with the slot's pool;
    /// the backstop must install a fresh budget-sized replacement and the
    /// abandoned thread's late put-back must be discarded, not clobber it.
    #[test]
    fn wall_timeout_replaces_the_stranded_pool() {
        let pool = pool_slot(simcheck::budget::budget(&quick_cfg(0)).pool);
        let limits = RunLimits::none();
        let scenario = Scenario {
            id: "hangs".into(),
            config: quick_cfg(0),
            chaos: Chaos::Hang(Duration::from_millis(400)),
            max_sim_time: None,
        };
        let outcome = run_attempt(
            &scenario,
            0,
            &limits,
            Duration::from_millis(20),
            None,
            &pool,
        );
        assert!(outcome.is_none(), "the backstop must fire");
        {
            let slot = pool.lock().expect("pool lock");
            assert_eq!(slot.gen, 1, "abandonment must invalidate the generation");
            let pools = slot.pool.as_ref().expect("slot refilled with a fresh pool");
            assert_eq!(pools.runs(), 0, "the replacement pool is fresh");
        }
        // Wait out the abandoned thread (400 ms hang plus a short run),
        // then confirm its stale put-back was discarded: the replacement
        // would show runs() >= 1 if the stale pool had clobbered it.
        std::thread::sleep(Duration::from_millis(1500));
        let slot = pool.lock().expect("pool lock");
        let pools = slot.pool.as_ref().expect("replacement must stay in place");
        assert_eq!(
            pools.runs(),
            0,
            "the abandoned attempt's stale pool clobbered the replacement"
        );
    }

    #[test]
    fn transient_failures_exhaust_the_retry_budget() {
        let out = tmp("transient_exhaust.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios = vec![Scenario {
            id: "hopeless".into(),
            config: quick_cfg(7),
            chaos: Chaos::FailAttempts(99),
            max_sim_time: None,
        }];
        let o = SweepOptions {
            retries: 1,
            retry_backoff: Duration::from_millis(1),
            ..opts()
        };
        let report = run_sweep(&scenarios, &o, &out).expect("sweep io");
        assert_eq!(report.results[0].status, ScenarioStatus::Transient);
        assert_eq!(report.results[0].attempts, 2);
    }

    #[test]
    fn backoff_doubles_from_base_and_respects_the_cap() {
        // No sleeping in this test: just the arithmetic via the clamp.
        assert_eq!(
            Duration::from_millis(10)
                .saturating_mul(1 << 0)
                .min(BACKOFF_CAP),
            Duration::from_millis(10)
        );
        assert_eq!(
            Duration::from_millis(10)
                .saturating_mul(1 << 3)
                .min(BACKOFF_CAP),
            Duration::from_millis(80)
        );
        assert_eq!(
            Duration::from_millis(500)
                .saturating_mul(1 << 4)
                .min(BACKOFF_CAP),
            BACKOFF_CAP
        );
        // And the zero base disables the sleep entirely (returns at once).
        backoff_sleep(Duration::ZERO, 30, 0);
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_spread() {
        // Same (salt, attempt) always jitters identically …
        assert_eq!(
            backoff_jitter(42, 1).to_bits(),
            backoff_jitter(42, 1).to_bits()
        );
        // … inside [0.5, 1.5) …
        let mut seen = Vec::new();
        for salt in 0..64u64 {
            for attempt in 1..4u32 {
                let j = backoff_jitter(fnv1a_64(&salt.to_le_bytes()), attempt);
                assert!((0.5..1.5).contains(&j), "jitter {j} out of range");
                seen.push(j.to_bits());
            }
        }
        // … and actually spread: distinct scenarios must not collapse
        // onto one factor, or the herd thunders after all.
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() > 100, "only {} distinct factors", seen.len());
        // Different attempts of the *same* scenario differ too.
        assert_ne!(
            backoff_jitter(7, 1).to_bits(),
            backoff_jitter(7, 2).to_bits()
        );
    }

    #[test]
    fn resume_skips_finished_scenarios_and_tolerates_torn_lines() {
        let out = tmp("resume.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios: Vec<Scenario> = (0..4)
            .map(|i| Scenario::new(format!("s{i}"), quick_cfg(i)))
            .collect();
        // First pass: run only the first two scenarios.
        let first = run_sweep(&scenarios[..2], &opts(), &out).expect("sweep io");
        assert!(first.all_ok());
        // Simulate a crash mid-write: append a torn line.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&out)
                .expect("open");
            f.write_all(b"{\"id\":\"s2\",\"stat").expect("torn write");
        }
        // Resume over the full set: s0/s1 reload, s2 (torn) and s3 run.
        let resumed = run_sweep(
            &scenarios,
            &SweepOptions {
                resume: true,
                ..opts()
            },
            &out,
        )
        .expect("sweep io");
        assert_eq!(resumed.reused, 2);
        assert_eq!(resumed.results.len(), 4);
        assert!(resumed.all_ok());
        // Nothing from the first pass was lost, and the merged report
        // holds every record exactly once.
        let ids: Vec<String> = load_results(&out)
            .expect("readable")
            .into_iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids.len(), 4, "{ids:?}");
        for want in ["s0", "s1", "s2", "s3"] {
            assert!(ids.iter().any(|i| i == want), "{want} missing: {ids:?}");
        }
    }

    #[test]
    fn resume_preserves_prior_failures_without_rerunning_them() {
        let out = tmp("resume_failures.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios = vec![Scenario {
            id: "boom".into(),
            config: quick_cfg(9),
            chaos: Chaos::Panic,
            max_sim_time: None,
        }];
        let first = run_sweep(&scenarios, &opts(), &out).expect("sweep io");
        assert_eq!(first.results[0].status, ScenarioStatus::Panicked);
        let resumed = run_sweep(
            &scenarios,
            &SweepOptions {
                resume: true,
                ..opts()
            },
            &out,
        )
        .expect("sweep io");
        assert_eq!(resumed.reused, 1);
        assert_eq!(resumed.results[0].status, ScenarioStatus::Panicked);
        // No duplicate record was appended.
        assert_eq!(load_results(&out).expect("readable").len(), 1);
    }

    #[test]
    fn fault_scenarios_fingerprint_identically_across_sweeps() {
        let out_a = tmp("det_a.jsonl");
        let out_b = tmp("det_b.jsonl");
        let _ = std::fs::remove_file(&out_a);
        let _ = std::fs::remove_file(&out_b);
        let mut cfg = quick_cfg(11);
        cfg.protocol = mpisim::Protocol::Rendezvous;
        cfg.faults = FaultPlan::none().with_messages(MessageFaults {
            drop_prob: 0.2,
            rto: SimDuration::from_micros(50),
            ..MessageFaults::default()
        });
        let scenarios = vec![Scenario::new("faulty", cfg)];
        let one = SweepOptions {
            threads: 1,
            ..opts()
        };
        let a = run_sweep(&scenarios, &opts(), &out_a).expect("sweep io");
        let b = run_sweep(&scenarios, &one, &out_b).expect("sweep io");
        let fa = a.results[0].summary.expect("ok run").trace_fingerprint;
        let fb = b.results[0].summary.expect("ok run").trace_fingerprint;
        assert_eq!(fa, fb, "thread count changed a fault-injected trace");
        assert!(a.results[0].summary.expect("ok").retransmissions > 0);
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let out = tmp("dupes.jsonl");
        let scenarios = vec![
            Scenario::new("same", quick_cfg(1)),
            Scenario::new("same", quick_cfg(2)),
        ];
        let err = run_sweep(&scenarios, &opts(), &out).expect_err("duplicate ids");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn oversized_checkpoint_interval_warns_sc017() {
        let out = tmp("sc017.jsonl");
        let _ = std::fs::remove_file(&out);
        let dir = tmp("sc017_snaps");
        // 1 ms sim-time watchdog, 100 ms checkpoint cadence: the first
        // snapshot can never fire.
        let scenarios = vec![Scenario {
            id: "unprotected".into(),
            config: quick_cfg(1),
            chaos: Chaos::None,
            max_sim_time: Some(SimTime(1_000_000)),
        }];
        let o = SweepOptions {
            checkpoint_dir: Some(dir),
            checkpoint: CheckpointPolicy {
                every_sim_time: Some(SimDuration::from_millis(100)),
                every_events: None,
            },
            ..opts()
        };
        let report = run_sweep(&scenarios, &o, &out).expect("sweep io");
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(
            report.warnings[0].contains("SC017"),
            "{:?}",
            report.warnings
        );
        assert!(
            report.warnings[0].contains("'unprotected'"),
            "{:?}",
            report.warnings
        );
        // An event-count cadence has no sim-time hazard: no warning.
        let o = SweepOptions {
            checkpoint: CheckpointPolicy {
                every_sim_time: None,
                every_events: Some(1_000),
            },
            ..o
        };
        let report = run_sweep(&scenarios, &o, &out).expect("sweep io");
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn over_budget_scenarios_are_gated_without_running() {
        let out = tmp("budget_gate.jsonl");
        let _ = std::fs::remove_file(&out);
        // quick_cfg: 6 ranks x 4 steps, eager chain -> exactly 44 events.
        // The pricey variant runs 64 steps -> 704 predicted events.
        let pricey = WaveExperiment::flat_chain(6)
            .texec(SimDuration::from_millis(1))
            .steps(64)
            .seed(2)
            .into_config();
        let scenarios = vec![
            Scenario::new("cheap", quick_cfg(1)),
            Scenario::new("pricey", pricey),
        ];
        let o = SweepOptions {
            budget: Some(100),
            ..opts()
        };
        let report = run_sweep(&scenarios, &o, &out).expect("sweep io");
        let cheap = &report.results[0];
        let pricey = &report.results[1];
        assert_eq!(cheap.status, ScenarioStatus::Ok);
        assert_eq!(pricey.status, ScenarioStatus::OverBudget);
        assert_eq!(pricey.attempts, 0, "a gated scenario must never run");
        assert!(
            pricey
                .error
                .as_deref()
                .is_some_and(|e| e.contains("SC018") && e.contains("budget")),
            "{pricey:?}"
        );
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("SC018") && w.contains("'pricey'")),
            "{:?}",
            report.warnings
        );
        // The gate record is persisted like any terminal record and is
        // honoured on resume instead of re-gating or re-running.
        assert_eq!(load_results(&out).expect("readable").len(), 2);
        let resumed =
            run_sweep(&scenarios, &SweepOptions { resume: true, ..o }, &out).expect("sweep io");
        assert_eq!(resumed.reused, 2);
        assert_eq!(resumed.results[1].status, ScenarioStatus::OverBudget);
        assert_eq!(load_results(&out).expect("readable").len(), 2);
    }

    #[test]
    fn duplicate_configs_warn_sc020() {
        let out = tmp("sc020.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios = vec![
            Scenario::new("first", quick_cfg(1)),
            Scenario::new("copy", quick_cfg(1)),
            Scenario::new("different", quick_cfg(2)),
        ];
        let report = run_sweep(&scenarios, &opts(), &out).expect("sweep io");
        assert!(report.all_ok(), "duplicates still run");
        let sc020: Vec<&String> = report
            .warnings
            .iter()
            .filter(|w| w.contains("SC020"))
            .collect();
        assert_eq!(sc020.len(), 1, "{:?}", report.warnings);
        assert!(
            sc020[0].contains("first") && sc020[0].contains("copy"),
            "{}",
            sc020[0]
        );
    }

    #[test]
    fn infeasible_retry_policy_warns_sc025() {
        let out = tmp("sc025.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios = vec![Scenario::new("s", quick_cfg(1))];
        // One scenario, 30 s per attempt, 2 retries: worst case 90 s
        // against a 10 s sweep budget — the retries are decorative.
        let o = SweepOptions {
            max_wall: Some(Duration::from_secs(10)),
            wall_timeout: Duration::from_secs(30),
            ..opts()
        };
        let report = run_sweep(&scenarios, &o, &out).expect("sweep io");
        assert!(
            report.warnings.iter().any(|w| w.contains("SC025")),
            "{:?}",
            report.warnings
        );
        // A feasible budget is silent.
        let o = SweepOptions {
            max_wall: Some(Duration::from_secs(600)),
            ..o
        };
        let report = run_sweep(&scenarios, &o, &out).expect("sweep io");
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn resume_with_changed_config_is_rejected() {
        let out = tmp("resume_mismatch.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios = vec![Scenario::new("s", quick_cfg(1))];
        run_sweep(&scenarios, &opts(), &out).expect("sweep io");
        // Same id, different seed: the recorded fingerprint no longer
        // matches, so blindly reusing the old record would mix results
        // from two different experiments.
        let changed = vec![Scenario::new("s", quick_cfg(2))];
        let err = run_sweep(
            &changed,
            &SweepOptions {
                resume: true,
                ..opts()
            },
            &out,
        )
        .expect_err("config changed under resume");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("config fingerprint"), "{err}");
        assert!(err.to_string().contains("'s'"), "{err}");
    }

    #[test]
    fn resume_tolerates_a_line_torn_mid_codepoint() {
        let out = tmp("resume_torn_utf8.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios: Vec<Scenario> = (0..2)
            .map(|i| Scenario::new(format!("u{i}"), quick_cfg(i)))
            .collect();
        let first = run_sweep(&scenarios[..1], &opts(), &out).expect("sweep io");
        assert!(first.all_ok());
        // A crash mid-write can cut a record anywhere — including inside a
        // multi-byte UTF-8 sequence. 0xE2 0x82 is a truncated '€'.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&out)
                .expect("open");
            f.write_all(b"{\"id\":\"u1\",\"error\":\"\xe2\x82")
                .expect("torn write");
        }
        let resumed = run_sweep(
            &scenarios,
            &SweepOptions {
                resume: true,
                ..opts()
            },
            &out,
        )
        .expect("resume must survive invalid UTF-8 in the torn tail");
        assert_eq!(resumed.reused, 1);
        assert!(resumed.all_ok());
        assert_eq!(load_results(&out).expect("readable").len(), 2);
    }

    #[test]
    fn mid_scenario_snapshot_resume_matches_uninterrupted_run() {
        let dir = tmp("ckpt_resume_snaps");
        let _ = std::fs::remove_dir_all(&dir);
        let out = tmp("ckpt_resume.jsonl");
        let ctrl = tmp("ckpt_resume_ctrl.jsonl");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&ctrl);
        let mut cfg = quick_cfg(21);
        cfg.protocol = mpisim::Protocol::Rendezvous;
        let scenarios = vec![Scenario::new("mid", cfg.clone())];
        // Uninterrupted control run.
        let control = run_sweep(&scenarios, &opts(), &ctrl).expect("sweep io");
        let want = control.results[0].summary.expect("ok").trace_fingerprint;
        // Pre-seed the checkpoint dir with a mid-run snapshot, as if a
        // previous sweep was killed after writing it.
        let policy = CheckpointPolicy {
            every_sim_time: None,
            every_events: Some(25),
        };
        let mut first: Option<Snapshot> = None;
        Engine::try_new(cfg)
            .expect("valid config")
            .try_run_checkpointed(&RunLimits::none(), &policy, |s| {
                if first.is_none() {
                    first = Some(s.clone());
                }
            })
            .expect("run completes");
        std::fs::create_dir_all(&dir).expect("snapshot dir");
        let path = snapshot_path(&dir, "mid");
        write_snapshot_atomic(&path, &first.expect("snapshot captured")).expect("seed snapshot");
        let o = SweepOptions {
            resume: true,
            checkpoint_dir: Some(dir.clone()),
            checkpoint: policy,
            ..opts()
        };
        let resumed = run_sweep(&scenarios, &o, &out).expect("sweep io");
        assert!(resumed.all_ok());
        assert_eq!(
            resumed.results[0].summary.expect("ok").trace_fingerprint,
            want,
            "resuming from a mid-run snapshot changed the trace"
        );
        // The snapshot is garbage once its scenario has a durable record.
        assert!(!path.exists(), "snapshot survived sweep completion");
    }

    #[test]
    fn killed_workers_retire_and_survivors_finish_the_sweep() {
        let ctrl = tmp("kills_ctrl.jsonl");
        let out = tmp("kills.jsonl");
        let _ = std::fs::remove_file(&ctrl);
        let _ = std::fs::remove_file(&out);
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| Scenario::new(format!("k{i}"), quick_cfg(i)))
            .collect();
        let control = run_sweep(&scenarios, &opts(), &ctrl).expect("sweep io");
        assert!(control.all_ok());
        assert_eq!(control.retired_workers, 0);
        // Kill worker 2 before it takes any work and worker 1 after its
        // first item: worker 0 (and briefly 1) carry the whole fabric.
        let chaotic = SweepOptions {
            fabric_chaos: FabricChaos {
                kill_workers: vec![(1, 1), (2, 0)],
            },
            ..opts()
        };
        let report = run_sweep(&scenarios, &chaotic, &out).expect("sweep io");
        assert!(report.all_ok());
        assert_eq!(report.retired_workers, 2);
        assert_eq!(
            std::fs::read(&out).expect("chaos report"),
            std::fs::read(&ctrl).expect("control report"),
            "worker kills changed the merged report"
        );
    }

    #[test]
    fn all_workers_killed_drains_the_fabric_inline() {
        let ctrl = tmp("drain_ctrl.jsonl");
        let out = tmp("drain.jsonl");
        let _ = std::fs::remove_file(&ctrl);
        let _ = std::fs::remove_file(&out);
        let scenarios: Vec<Scenario> = (0..5)
            .map(|i| Scenario::new(format!("d{i}"), quick_cfg(i)))
            .collect();
        let control = run_sweep(&scenarios, &opts(), &ctrl).expect("sweep io");
        // Every worker dies before taking work: nothing runs on the
        // fabric, everything drains inline — degraded, never deadlocked.
        let chaotic = SweepOptions {
            fabric_chaos: FabricChaos {
                kill_workers: vec![(0, 0), (1, 0), (2, 0)],
            },
            ..opts()
        };
        let report = run_sweep(&scenarios, &chaotic, &out).expect("sweep io");
        assert!(report.all_ok());
        assert_eq!(report.retired_workers, 3);
        assert_eq!(report.results.len(), 5);
        assert_eq!(
            std::fs::read(&out).expect("chaos report"),
            std::fs::read(&ctrl).expect("control report"),
            "inline drain changed the merged report"
        );
        assert_eq!(control.results, report.results);
    }

    #[test]
    fn merge_compacts_the_manifest_and_shards_away() {
        let out = tmp("compact.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios: Vec<Scenario> = (0..5)
            .map(|i| Scenario::new(format!("c{i}"), quick_cfg(i)))
            .collect();
        let o = SweepOptions {
            shards: Some(2),
            ..opts()
        };
        run_sweep(&scenarios, &o, &out).expect("sweep io");
        assert!(out.exists());
        assert!(
            !shard::manifest_path(&out).exists(),
            "manifest must be compacted away"
        );
        assert!(
            shard::existing_shard_files(&out)
                .expect("listable")
                .is_empty(),
            "shard files must be compacted away"
        );
        // The merged report: header first, then records in input order.
        let text = std::fs::read_to_string(&out).expect("report");
        let mut lines = text.lines();
        assert!(
            lines
                .next()
                .expect("header")
                .starts_with("{\"sweep_format\":"),
            "{text}"
        );
        let ids: Vec<String> = load_results(&out)
            .expect("readable")
            .into_iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec!["c0", "c1", "c2", "c3", "c4"]);
    }

    #[test]
    fn unknown_status_records_warn_and_rerun_instead_of_vanishing() {
        let out = tmp("future_status.jsonl");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(shard::manifest_path(&out));
        for f in shard::existing_shard_files(&out).expect("listable") {
            let _ = std::fs::remove_file(f);
        }
        let scenarios = vec![Scenario::new("fut", quick_cfg(1))];
        // A crashed sweep left a shard record written by a newer version:
        // parseable JSON, unknown status string.
        std::fs::write(
            shard::shard_path(&out, 0),
            "{\"id\":\"fut\",\"status\":\"from-the-future\",\"attempts\":1}\n",
        )
        .expect("plant record");
        let report = run_sweep(
            &scenarios,
            &SweepOptions {
                resume: true,
                ..opts()
            },
            &out,
        )
        .expect("sweep io");
        // The record was surfaced, not silently dropped — and the
        // scenario re-ran to a terminal record this version understands.
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("'fut'") && w.contains("unknown status 'from-the-future'")),
            "{:?}",
            report.warnings
        );
        assert_eq!(report.reused, 0);
        assert!(report.all_ok());
        assert_eq!(load_results(&out).expect("readable").len(), 1);
    }

    #[test]
    fn cache_serves_warm_reruns_byte_identically() {
        let cache_dir = tmp("cache_warm_dir");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cold_out = tmp("cache_cold.jsonl");
        let warm_out = tmp("cache_warm.jsonl");
        let _ = std::fs::remove_file(&cold_out);
        let _ = std::fs::remove_file(&warm_out);
        let scenarios: Vec<Scenario> = (0..4)
            .map(|i| Scenario::new(format!("w{i}"), quick_cfg(i)))
            .collect();
        let o = SweepOptions {
            cache_dir: Some(cache_dir.clone()),
            ..opts()
        };
        let cold = run_sweep(&scenarios, &o, &cold_out).expect("sweep io");
        assert!(cold.all_ok());
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, 4);
        assert_eq!(cold.cache_quarantined, 0);
        // Warm rerun against a fresh output file: zero re-simulations,
        // bit-identical merged report.
        let warm = run_sweep(&scenarios, &o, &warm_out).expect("sweep io");
        assert!(warm.all_ok());
        assert_eq!(warm.cache_hits, 4);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_quarantined, 0);
        assert_eq!(
            std::fs::read(&cold_out).expect("cold"),
            std::fs::read(&warm_out).expect("warm"),
            "a cache-served sweep must be bit-identical to the computed one"
        );
    }

    #[test]
    fn corrupt_cache_entries_are_quarantined_and_resimulated() {
        let cache_dir = tmp("cache_corrupt_dir");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cold_out = tmp("cache_corrupt_cold.jsonl");
        let rerun_out = tmp("cache_corrupt_rerun.jsonl");
        let _ = std::fs::remove_file(&cold_out);
        let _ = std::fs::remove_file(&rerun_out);
        let scenarios: Vec<Scenario> = (0..3)
            .map(|i| Scenario::new(format!("q{i}"), quick_cfg(i)))
            .collect();
        let o = SweepOptions {
            cache_dir: Some(cache_dir.clone()),
            ..opts()
        };
        run_sweep(&scenarios, &o, &cold_out).expect("sweep io");
        // Bit-flip the first scenario's entry.
        let cache = cache::ResultCache::open(&cache_dir).expect("cache dir");
        let victim = cache.entry_path(config_fingerprint(&scenarios[0].config));
        let mut bytes = std::fs::read(&victim).expect("entry");
        bytes[12] ^= 0x01;
        std::fs::write(&victim, &bytes).expect("corrupt");
        let rerun = run_sweep(&scenarios, &o, &rerun_out).expect("sweep io");
        assert!(rerun.all_ok());
        assert_eq!(rerun.cache_quarantined, 1);
        assert_eq!(rerun.cache_hits, 2);
        assert_eq!(rerun.cache_misses, 0);
        assert!(
            rerun
                .warnings
                .iter()
                .any(|w| w.contains("'q0'") && w.contains("quarantined")),
            "{:?}",
            rerun.warnings
        );
        assert_eq!(
            std::fs::read(&cold_out).expect("cold"),
            std::fs::read(&rerun_out).expect("rerun"),
            "quarantine-and-resimulate must reproduce the original report"
        );
    }

    #[test]
    fn unusable_cache_dir_degrades_to_uncached_with_sc026() {
        let blocked = tmp("cache_blocked_dir");
        let _ = std::fs::remove_dir_all(&blocked);
        std::fs::write(&blocked, b"a file where the dir should be").expect("blocker");
        let out = tmp("cache_blocked.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios = vec![Scenario::new("b", quick_cfg(1))];
        let o = SweepOptions {
            cache_dir: Some(blocked),
            ..opts()
        };
        let report = run_sweep(&scenarios, &o, &out).expect("sweep io");
        assert!(report.all_ok(), "the sweep itself must still succeed");
        assert_eq!(report.cache_hits + report.cache_misses, 0, "uncached");
        assert!(
            report.warnings.iter().any(|w| w.contains("SC026")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn planted_cache_collisions_warn_sc027_and_resimulate() {
        let cache_dir = tmp("cache_collision_dir");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cold_out = tmp("cache_collision_cold.jsonl");
        let rerun_out = tmp("cache_collision_rerun.jsonl");
        let _ = std::fs::remove_file(&cold_out);
        let _ = std::fs::remove_file(&rerun_out);
        let scenarios = vec![Scenario::new("col", quick_cfg(1))];
        let o = SweepOptions {
            cache_dir: Some(cache_dir.clone()),
            ..opts()
        };
        run_sweep(&scenarios, &o, &cold_out).expect("sweep io");
        // Plant a *verified* entry that stores a different config behind
        // this scenario's fingerprint: the integrity footer checks out,
        // the payload is for something else entirely.
        let cache = cache::ResultCache::open(&cache_dir).expect("cache dir");
        let fp = config_fingerprint(&scenarios[0].config);
        let other = json::to_string(&quick_cfg(2));
        let summary = RunSummary {
            runtime_ns: 1,
            events: 1,
            messages: 1,
            retransmissions: 0,
            dropped: 0,
            corrupted: 0,
            trace_fingerprint: 1,
        };
        cache.store(&other, fp, 1, &summary).expect("plant");
        let rerun = run_sweep(&scenarios, &o, &rerun_out).expect("sweep io");
        assert!(rerun.all_ok());
        assert_eq!(rerun.cache_quarantined, 1);
        assert!(
            rerun
                .warnings
                .iter()
                .any(|w| w.contains("SC027") && w.contains("'col'")),
            "{:?}",
            rerun.warnings
        );
        assert_eq!(
            std::fs::read(&cold_out).expect("cold"),
            std::fs::read(&rerun_out).expect("rerun"),
            "a planted collision must not change the merged report"
        );
    }

    #[test]
    fn scenario_and_result_json_round_trip() {
        let s = Scenario {
            id: "rt".into(),
            config: quick_cfg(3),
            chaos: Chaos::FailAttempts(2),
            max_sim_time: Some(SimTime(123)),
        };
        let back: Scenario = json::from_str(&json::to_string(&s)).expect("scenario");
        assert_eq!(s, back);
        let r = ScenarioResult {
            id: "rt".into(),
            status: ScenarioStatus::WallTimeout,
            attempts: 3,
            error: Some("slow".into()),
            summary: None,
            config_fingerprint: Some(0xdead_beef),
        };
        let back: ScenarioResult = json::from_str(&json::to_string(&r)).expect("result");
        assert_eq!(r, back);
        // A bare scenario omits chaos defaults cleanly.
        let plain = Scenario::new("p", quick_cfg(1));
        let back: Scenario = json::from_str(&json::to_string(&plain)).expect("plain");
        assert_eq!(back.chaos, Chaos::None);
    }

    #[test]
    fn a_stop_request_interrupts_resumably_and_resume_completes_the_suite() {
        let out = tmp("interrupt.jsonl");
        let _ = std::fs::remove_file(&out);
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| Scenario::new(format!("s{i}"), quick_cfg(i)))
            .collect();
        let control =
            run_sweep(&scenarios, &opts(), &tmp("interrupt-control.jsonl")).expect("control sweep");

        // A stop flag raised before the workers start is the extreme
        // case: nothing dealt, everything left for the resume.
        let stop = AtomicBool::new(true);
        let report =
            run_sweep_interruptible(&scenarios, &opts(), &out, &stop).expect("interrupted sweep");
        assert!(report.interrupted);
        assert!(report.results.len() < scenarios.len());
        // The resumable state survived: the manifest is still there and
        // the final report was *not* merged.
        assert!(shard::manifest_path(&out).exists(), "manifest kept");

        let mut resume_opts = opts();
        resume_opts.resume = true;
        let resumed = run_sweep(&scenarios, &resume_opts, &out).expect("resume sweep");
        assert!(!resumed.interrupted);
        assert_eq!(resumed.results.len(), scenarios.len());
        for (c, r) in control.results.iter().zip(&resumed.results) {
            assert_eq!(
                c.summary, r.summary,
                "resumed result differs for '{}'",
                c.id
            );
        }
        assert!(!shard::manifest_path(&out).exists(), "manifest compacted");
    }
}
