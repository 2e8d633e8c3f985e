//! `wavesim` — run custom idle-wave experiments from the command line.
//!
//! ```text
//! wavesim [OPTIONS]
//! wavesim analyze [OPTIONS] [ANALYZE OPTIONS]
//! wavesim sweep --scenarios FILE --out FILE [SWEEP OPTIONS]
//!
//!   --ranks N               chain length (default 18)
//!   --steps N               bulk-synchronous steps (default 20)
//!   --texec-ms F            execution phase length in ms (default 3)
//!   --msg-bytes N           message size (default 8192)
//!   --protocol P            eager | rendezvous | auto (default auto)
//!   --direction D           uni | bi (default uni)
//!   --boundary B            open | periodic (default open)
//!   --distance N            neighbour distance d (default 1)
//!   --inject R:S:MS         delay of MS milliseconds at rank R, step S
//!                           (repeatable)
//!   --noise-percent F       exponential noise level E in percent
//!   --seed N                master seed
//!   --config FILE.json      load a full SimConfig (overrides the flags)
//!   --dump-config           print the assembled config as JSON and exit
//!   --checkpoint-dir DIR    write periodic snapshots to DIR/wavesim.ckpt
//!   --checkpoint-every SPEC snapshot cadence: sim time ("50ms", "2s",
//!                           "100us") or delivered events ("1000ev")
//!   --restore FILE          resume from a snapshot file; uses the
//!                           snapshot's embedded config unless --config
//!                           is also given (a mismatch is RT005, exit 3)
//!   --ascii                 print an ASCII timeline (default on a tty)
//!   --svg FILE              write an SVG timeline
//!   --csv FILE              write the per-phase trace as CSV
//!   --quiet                 suppress the summary
//!
//! wavesim analyze — static budget analysis (no simulation; see
//! docs/ANALYZER.md for the report schema and SC018–SC024)
//!
//!   accepts every config flag above (or --config FILE.json) and prints
//!   the predicted budget report as single-line JSON on stdout
//!   --calibrate BENCH.json  read an events/sec calibration from a
//!                           committed wavesim-bench report (nearest rank
//!                           count wins) and predict wall time; the
//!                           literal value `auto` picks the latest
//!                           committed BENCH_<n>.json generation
//!   --budget N              gate: predicted events over N is SC018,
//!                           exit 1
//!   --max-bytes N           gate: predicted peak memory over N bytes is
//!                           SC023, exit 1
//!
//! wavesim sweep — supervised chaos/fault sweep on the work-stealing
//! fabric (see docs/SWEEP.md and docs/FAULTS.md)
//!
//!   --scenarios FILE.json   JSON array of sweep scenarios (required)
//!   --out FILE.jsonl        merged report: a config-fingerprint header
//!                           line plus one JSON record per scenario in
//!                           input order, written atomically on completion
//!                           (required); while running, records live in
//!                           crash-safe per-shard files next to it
//!   --resume                skip scenarios already recorded in --out or
//!                           its surviving shard files; rejects the files
//!                           if the recorded config fingerprints no longer
//!                           match (exit 3)
//!   --checkpoint-dir DIR    per-scenario mid-run snapshots; with
//!                           --resume, interrupted scenarios restart
//!                           from their last snapshot
//!   --checkpoint-every SPEC snapshot cadence (see above)
//!   --threads N             fabric worker threads (default 4)
//!   --shards N              work-queue/result-file shards (default: one
//!                           per worker thread; never changes results)
//!   --retries N             retry budget for transient failures (default 2)
//!   --retry-backoff-ms N    base of the capped exponential backoff
//!                           between retries (default 10, 0 disables)
//!   --wall-timeout-ms N     wall-clock backstop per attempt (default 30000)
//!   --max-wall-ms N         advisory whole-sweep wall budget: warns
//!                           (SC025) when the worst-case retry schedule
//!                           cannot fit in it
//!   --watchdog-factor F     sim-time budget multiplier (default 64)
//!   --max-events N          optional event-count budget (aborts a
//!                           running simulation)
//!   --budget N              pre-flight gate: scenarios whose *predicted*
//!                           event count exceeds N are recorded as
//!                           over-budget (SC018) without running
//!   --cache-dir DIR         verified result cache: clean scenarios whose
//!                           config fingerprint already has a verified
//!                           entry are served byte-identically instead of
//!                           re-simulated; corrupt or colliding entries
//!                           are quarantined and re-simulated (SC026,
//!                           SC027)
//!   --fsync                 fsync every persisted record (crash-safe
//!                           against OS-level failures, slower)
//!   --drill                 run the self-chaos drill instead of a sweep:
//!                           kill workers, SIGKILL a child mid-shard,
//!                           tear result lines, bit-flip cache entries,
//!                           and assert the merged report stays
//!                           bit-identical to an undisturbed control run
//!   --drill-dir DIR         scratch directory for the drill (default: a
//!                           temp directory)
//!
//! wavesim serve — a hardened, crash-recoverable scenario service over
//! line-delimited JSON (see docs/SERVE.md): admission control with SC
//! diagnostics, a bounded job queue with explicit load shedding,
//! per-request deadlines, per-connection isolation, graceful
//! SIGTERM/SIGINT drain, and a digest-verified job journal that lets a
//! SIGKILLed server re-run its pending jobs on restart, bit-identically
//!
//!   --addr HOST:PORT        bind address (default 127.0.0.1:0; the bound
//!                           address is printed as a ready record)
//!   --dir DIR               service state directory holding the journal
//!                           (default wavesim-serve)
//!   --threads N             worker threads (default 4)
//!   --queue-cap N           job-queue bound; beyond it submissions are
//!                           shed with an overloaded reply (default 64)
//!   --retry-after-ms N      retry hint sent with overloaded replies
//!   --deadline-ms N         per-attempt wall-clock deadline (default 30000)
//!   --retries N             retry budget for transient failures
//!   --retry-backoff-ms N    base of the jittered exponential backoff
//!   --watchdog-factor F     sim-time budget multiplier (default 64)
//!   --admission-budget N    reject submissions whose *predicted* events
//!                           exceed N (SC018/SC028) without running them
//!   --cache-dir DIR         verified result cache shared with sweep
//!   --fsync                 fsync journal lines (crash-safe against
//!                           OS-level failures)
//!   --max-line-bytes N      per-request line bound (default 1 MiB)
//!   --drill                 run the serve self-chaos drill instead:
//!                           overload, malformed input, worker panics,
//!                           disconnects, drain, SIGKILL + journal
//!                           recovery, warm cache — each phase asserting
//!                           byte-identity against an undisturbed control
//!
//! wavesim loadgen — deterministic client for a serve instance
//!
//!   --addr HOST:PORT        server address (required)
//!   --requests N            total requests (default 12)
//!   --connections N         concurrent connections (default 3)
//!   --ranks N / --steps N   shape of the generated scenarios
//!   --out FILE.jsonl        write collected records sorted by id
//!   --query                 poll query for the same ids instead of
//!                           submitting (read results after a restart)
//!   --max-retries N         bound on overload retries / query polls
//! ```
//!
//! Exit codes: `0` success, `1` sweep finished but some scenarios failed
//! (or a drill phase failed), `2` usage errors, `3` invalid configuration
//! or runtime failure — the latter also emits a single-line JSON error
//! record on stderr: `{"tool":"wavesim","error":...,"diagnostics":[...]}`
//! — and `4` sweep interrupted by SIGTERM/SIGINT with resumable state.

use idle_waves::idlewave::serve::client::{run_loadgen, LoadgenOptions};
use idle_waves::idlewave::serve::drill::{run_drill as run_serve_drill, ServeDrillOptions};
use idle_waves::idlewave::serve::signals::install_term_handler;
use idle_waves::idlewave::serve::{run_serve, ServeOptions};
use idle_waves::idlewave::sweep::drill::{run_drill, DrillOptions};
use idle_waves::idlewave::sweep::{run_sweep_interruptible, Scenario, SweepOptions};
use idle_waves::idlewave::{model, speed, WaveExperiment, WaveTrace};
use idle_waves::mpisim::{self, CheckpointPolicy, Engine, RunLimits, Snapshot};
use idle_waves::prelude::*;
use idle_waves::tracefmt::json;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    ranks: u32,
    steps: u32,
    texec_ms: f64,
    msg_bytes: u64,
    protocol: String,
    direction: String,
    boundary: String,
    distance: u32,
    injections: Vec<(u32, u32, f64)>,
    noise_percent: f64,
    seed: Option<u64>,
    config_path: Option<String>,
    dump_config: bool,
    checkpoint_dir: Option<String>,
    checkpoint: CheckpointPolicy,
    restore_path: Option<String>,
    ascii: bool,
    svg_path: Option<String>,
    csv_path: Option<String>,
    quiet: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            ranks: 18,
            steps: 20,
            texec_ms: 3.0,
            msg_bytes: 8192,
            protocol: "auto".into(),
            direction: "uni".into(),
            boundary: "open".into(),
            distance: 1,
            injections: Vec::new(),
            noise_percent: 0.0,
            seed: None,
            config_path: None,
            dump_config: false,
            checkpoint_dir: None,
            checkpoint: CheckpointPolicy::none(),
            restore_path: None,
            ascii: false,
            svg_path: None,
            csv_path: None,
            quiet: false,
        }
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--ranks" => args.ranks = parse(&value("--ranks")?)?,
            "--steps" => args.steps = parse(&value("--steps")?)?,
            "--texec-ms" => args.texec_ms = parse(&value("--texec-ms")?)?,
            "--msg-bytes" => args.msg_bytes = parse(&value("--msg-bytes")?)?,
            "--protocol" => args.protocol = value("--protocol")?,
            "--direction" => args.direction = value("--direction")?,
            "--boundary" => args.boundary = value("--boundary")?,
            "--distance" => args.distance = parse(&value("--distance")?)?,
            "--inject" => {
                let spec = value("--inject")?;
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 3 {
                    return Err(format!("--inject expects R:S:MS, got {spec}"));
                }
                args.injections
                    .push((parse(parts[0])?, parse(parts[1])?, parse(parts[2])?));
            }
            "--noise-percent" => args.noise_percent = parse(&value("--noise-percent")?)?,
            "--seed" => args.seed = Some(parse(&value("--seed")?)?),
            "--config" => args.config_path = Some(value("--config")?),
            "--dump-config" => args.dump_config = true,
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--checkpoint-every" => {
                args.checkpoint = parse_checkpoint_every(&value("--checkpoint-every")?)?;
            }
            "--restore" => args.restore_path = Some(value("--restore")?),
            "--ascii" => args.ascii = true,
            "--svg" => args.svg_path = Some(value("--svg")?),
            "--csv" => args.csv_path = Some(value("--csv")?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                return Err("usage".into());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.checkpoint.is_active() != args.checkpoint_dir.is_some() {
        return Err("--checkpoint-dir and --checkpoint-every must be used together".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("cannot parse '{s}': {e}"))
}

/// Parse a checkpoint cadence: a sim-time interval (`"50ms"`, `"2s"`,
/// `"100us"`, `"250000ns"`) or a delivered-event count (`"1000ev"`).
fn parse_checkpoint_every(spec: &str) -> Result<CheckpointPolicy, String> {
    let s = spec.trim();
    if let Some(n) = s.strip_suffix("ev") {
        let events: u64 = parse(n.trim())?;
        if events == 0 {
            return Err("--checkpoint-every: the event count must be positive".into());
        }
        return Ok(CheckpointPolicy {
            every_sim_time: None,
            every_events: Some(events),
        });
    }
    let (num, nanos_per_unit) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        return Err(format!(
            "--checkpoint-every: '{spec}' needs a unit suffix (ns|us|ms|s for sim time, ev for events)"
        ));
    };
    let v: f64 = parse(num.trim())?;
    let nanos = v * nanos_per_unit;
    // `!is_finite` also rejects NaN, which every comparison lets through.
    if nanos < 1.0 || !nanos.is_finite() {
        return Err(format!(
            "--checkpoint-every: '{spec}' must be at least one nanosecond"
        ));
    }
    Ok(CheckpointPolicy {
        every_sim_time: Some(SimDuration::from_nanos(nanos.round() as u64)),
        every_events: None,
    })
}

fn build_config(args: &Args) -> Result<SimConfig, String> {
    if let Some(path) = &args.config_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let cfg: SimConfig =
            idle_waves::tracefmt::json::from_str(&text).map_err(|e| format!("bad config: {e}"))?;
        return Ok(cfg);
    }
    let direction = match args.direction.as_str() {
        "uni" => Direction::Unidirectional,
        "bi" => Direction::Bidirectional,
        other => return Err(format!("unknown direction {other} (use uni|bi)")),
    };
    let boundary = match args.boundary.as_str() {
        "open" => Boundary::Open,
        "periodic" => Boundary::Periodic,
        other => return Err(format!("unknown boundary {other} (use open|periodic)")),
    };
    let mut e = WaveExperiment::flat_chain(args.ranks)
        .direction(direction)
        .boundary(boundary)
        .distance(args.distance)
        .msg_bytes(args.msg_bytes)
        .texec(SimDuration::from_millis_f64(args.texec_ms))
        .steps(args.steps);
    e = match args.protocol.as_str() {
        "eager" => e.eager(),
        "rendezvous" => e.rendezvous(),
        "auto" => e,
        other => {
            return Err(format!(
                "unknown protocol {other} (use eager|rendezvous|auto)"
            ))
        }
    };
    for &(rank, step, ms) in &args.injections {
        e = e.inject(rank, step, SimDuration::from_millis_f64(ms));
    }
    if args.noise_percent > 0.0 {
        e = e.noise_percent(args.noise_percent);
    }
    if let Some(seed) = args.seed {
        e = e.seed(seed);
    }
    Ok(e.into_config())
}

enum RunError {
    /// File-level problem: plain message, exit 2 like other I/O failures.
    Io(String),
    /// Config or snapshot rejected, or the run failed: JSON error record
    /// with diagnostics on stderr, exit 3.
    Rejected(Vec<Diagnostic>),
}

/// Run one simulation, honouring `--restore` and `--checkpoint-*`.
///
/// Without either, this is exactly [`WaveTrace::try_from_config`]. With
/// `--restore`, the engine resumes from the snapshot (which embeds its
/// config — `cfg` from the flags is only used when `--config` was given,
/// and [`Engine::restore`] rejects a mismatch with `RT005`). With
/// checkpointing, snapshots go to `DIR/wavesim.ckpt` via a temp-file +
/// rename so a crash never leaves a torn file.
fn run_single(args: &Args, cfg: SimConfig) -> Result<WaveTrace, RunError> {
    if args.restore_path.is_none() && !args.checkpoint.is_active() {
        return WaveTrace::try_from_config(cfg).map_err(RunError::Rejected);
    }
    let (cfg, engine) = match &args.restore_path {
        Some(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| RunError::Io(format!("cannot read {path}: {e}")))?;
            let snap =
                Snapshot::decode(&bytes).map_err(|e| RunError::Rejected(e.into_diagnostics()))?;
            let cfg = if args.config_path.is_some() {
                cfg
            } else {
                snap.config().clone()
            };
            let engine = Engine::restore(cfg.clone(), &snap)
                .map_err(|e| RunError::Rejected(e.into_diagnostics()))?;
            (cfg, engine)
        }
        None => {
            let errors: Vec<Diagnostic> = analyze(&cfg)
                .into_iter()
                .filter(Diagnostic::is_error)
                .collect();
            if !errors.is_empty() {
                return Err(RunError::Rejected(errors));
            }
            let engine = Engine::try_new(cfg.clone())
                .map_err(|e| RunError::Rejected(e.into_diagnostics()))?;
            (cfg, engine)
        }
    };
    let run = if args.checkpoint.is_active() {
        let dir = args
            .checkpoint_dir
            .as_deref()
            .expect("parse_args pairs the checkpoint flags");
        std::fs::create_dir_all(dir)
            .map_err(|e| RunError::Io(format!("cannot create {dir}: {e}")))?;
        let ckpt = Path::new(dir).join("wavesim.ckpt");
        engine.try_run_checkpointed(&RunLimits::none(), &args.checkpoint, |snap| {
            let _ = write_snapshot_atomic(&ckpt, snap);
        })
    } else {
        engine.try_run_with_stats(&RunLimits::none())
    };
    let (trace, _stats) = run.map_err(|e| RunError::Rejected(e.into_diagnostics()))?;
    Ok(WaveTrace {
        baseline_comm: mpisim::nominal_comm_duration(&cfg),
        step_duration: mpisim::nominal_step_duration(&cfg),
        cfg,
        trace,
    })
}

fn write_snapshot_atomic(path: &Path, snap: &Snapshot) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, snap.encode())?;
    std::fs::rename(&tmp, path)
}

/// Emit the machine-readable single-line error record on stderr.
fn emit_error_record(error: &str, diagnostics: &[Diagnostic]) {
    let record = Json::obj(vec![
        ("tool", Json::Str("wavesim".into())),
        ("error", Json::Str(error.into())),
        (
            "diagnostics",
            Json::Array(diagnostics.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    eprintln!("{}", json::to_string(&record));
}

struct SweepArgs {
    scenarios_path: Option<String>,
    out_path: Option<String>,
    opts: SweepOptions,
    quiet: bool,
    drill: bool,
    drill_dir: Option<String>,
}

fn parse_sweep_args(mut it: std::env::Args) -> Result<SweepArgs, String> {
    let mut args = SweepArgs {
        scenarios_path: None,
        out_path: None,
        opts: SweepOptions::default(),
        quiet: false,
        drill: false,
        drill_dir: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--scenarios" => args.scenarios_path = Some(value("--scenarios")?),
            "--out" => args.out_path = Some(value("--out")?),
            "--resume" => args.opts.resume = true,
            "--threads" => args.opts.threads = parse(&value("--threads")?)?,
            "--shards" => args.opts.shards = Some(parse(&value("--shards")?)?),
            "--retries" => args.opts.retries = parse(&value("--retries")?)?,
            "--retry-backoff-ms" => {
                let ms: u64 = parse(&value("--retry-backoff-ms")?)?;
                args.opts.retry_backoff = std::time::Duration::from_millis(ms);
            }
            "--wall-timeout-ms" => {
                let ms: u64 = parse(&value("--wall-timeout-ms")?)?;
                args.opts.wall_timeout = std::time::Duration::from_millis(ms);
            }
            "--max-wall-ms" => {
                let ms: u64 = parse(&value("--max-wall-ms")?)?;
                args.opts.max_wall = Some(std::time::Duration::from_millis(ms));
            }
            "--watchdog-factor" => args.opts.watchdog_factor = parse(&value("--watchdog-factor")?)?,
            "--max-events" => args.opts.max_events = Some(parse(&value("--max-events")?)?),
            "--budget" => args.opts.budget = Some(parse(&value("--budget")?)?),
            "--cache-dir" => args.opts.cache_dir = Some(value("--cache-dir")?.into()),
            "--fsync" => args.opts.fsync = true,
            "--checkpoint-dir" => {
                args.opts.checkpoint_dir = Some(value("--checkpoint-dir")?.into());
            }
            "--checkpoint-every" => {
                args.opts.checkpoint = parse_checkpoint_every(&value("--checkpoint-every")?)?;
            }
            "--drill" => args.drill = true,
            "--drill-dir" => args.drill_dir = Some(value("--drill-dir")?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err("usage".into()),
            other => return Err(format!("unknown sweep flag {other}")),
        }
    }
    if args.opts.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if args.opts.shards == Some(0) {
        return Err("--shards must be at least 1".into());
    }
    if args.opts.checkpoint.is_active() && args.opts.checkpoint_dir.is_none() {
        return Err("--checkpoint-every needs --checkpoint-dir".into());
    }
    if args.drill_dir.is_some() && !args.drill {
        return Err("--drill-dir needs --drill".into());
    }
    Ok(args)
}

/// `wavesim sweep --drill` — the fabric's self-chaos drill: kill workers,
/// SIGKILL a child sweep mid-shard, tear result lines, bit-flip cache
/// entries, and assert the merged report stays bit-identical to an
/// undisturbed control run. Exit 0 when every phase passes, 1 otherwise.
fn run_drill_command(args: &SweepArgs) -> ExitCode {
    let dir = args
        .drill_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("wavesim-drill"));
    let opts = DrillOptions {
        dir,
        // This very binary is the child the SIGKILL phase murders.
        exe: std::env::current_exe().ok(),
        threads: args.opts.threads,
    };
    let report = match run_drill(&opts) {
        Ok(r) => r,
        Err(e) => {
            emit_error_record(&format!("drill failed: {e}"), &[]);
            return ExitCode::from(3);
        }
    };
    if !args.quiet {
        for p in &report.phases {
            println!(
                "drill {:13} {} — {}",
                p.name,
                if p.passed { "pass" } else { "FAIL" },
                p.detail
            );
        }
        println!(
            "drill: {}/{} phases passed",
            report.phases.iter().filter(|p| p.passed).count(),
            report.phases.len()
        );
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_sweep_command(it: std::env::Args) -> ExitCode {
    let args = match parse_sweep_args(it) {
        Ok(a) => a,
        Err(msg) => {
            if msg == "usage" {
                eprintln!("{}", SWEEP_USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("wavesim sweep: {msg}\n\n{SWEEP_USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.drill {
        return run_drill_command(&args);
    }
    let (Some(scenarios_path), Some(out_path)) = (&args.scenarios_path, &args.out_path) else {
        eprintln!("wavesim sweep: --scenarios and --out are required\n\n{SWEEP_USAGE}");
        return ExitCode::from(2);
    };
    let scenarios: Vec<Scenario> = match std::fs::read_to_string(scenarios_path)
        .map_err(|e| format!("cannot read {scenarios_path}: {e}"))
        .and_then(|text| json::from_str(&text).map_err(|e| format!("bad scenarios file: {}", e.0)))
    {
        Ok(s) => s,
        Err(msg) => {
            emit_error_record(&msg, &[]);
            return ExitCode::from(3);
        }
    };
    // A first SIGTERM/SIGINT requests a graceful stop: the fabric stops
    // dealing work, finishes and flushes what is in flight, and keeps the
    // shards and manifest for `--resume`.
    let stop = install_term_handler();
    let report =
        match run_sweep_interruptible(&scenarios, &args.opts, std::path::Path::new(out_path), stop)
        {
            Ok(r) => r,
            Err(e) => {
                emit_error_record(&format!("sweep failed: {e}"), &[]);
                return ExitCode::from(3);
            }
        };
    if !args.quiet {
        for w in &report.warnings {
            eprintln!("wavesim sweep: warning: {w}");
        }
        let ok = report.results.len() - report.failures();
        println!(
            "sweep: {} scenarios, {} ok, {} failed, {} reused from a previous run",
            report.results.len(),
            ok,
            report.failures(),
            report.reused
        );
        if args.opts.cache_dir.is_some() {
            println!(
                "cache: {} hits, {} misses, {} quarantined",
                report.cache_hits, report.cache_misses, report.cache_quarantined
            );
        }
        if report.retired_workers > 0 {
            println!(
                "fabric: {} worker(s) retired, work redistributed",
                report.retired_workers
            );
        }
        for r in report.results.iter().filter(|r| !r.is_ok()) {
            println!(
                "  {}: {} after {} attempt(s)",
                r.id,
                r.status.as_str(),
                r.attempts
            );
        }
    }
    if report.interrupted {
        if !args.quiet {
            println!(
                "sweep: interrupted by a termination signal after {} of {} \
                 scenario(s); in-flight work was flushed — rerun with --resume",
                report.results.len(),
                scenarios.len()
            );
        }
        return ExitCode::from(4);
    }
    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `wavesim analyze` — run the static budget analyzer on a config and
/// print the [`simcheck::budget::BudgetReport`] as single-line JSON.
/// Never simulates; exit 3 on an invalid config (same error record as a
/// run), exit 1 when a `--budget`/`--max-bytes` gate trips.
fn run_analyze_command(it: std::env::Args) -> ExitCode {
    // Split off the analyze-only flags, hand the rest to the normal
    // config-flag parser.
    let mut rest: Vec<String> = Vec::new();
    let mut calibrate: Option<String> = None;
    let mut budget: Option<String> = None;
    let mut max_bytes: Option<String> = None;
    let mut it = it;
    let parsed = loop {
        let Some(flag) = it.next() else {
            break Ok(());
        };
        let target = match flag.as_str() {
            "--calibrate" => &mut calibrate,
            "--budget" => &mut budget,
            "--max-bytes" => &mut max_bytes,
            "--help" | "-h" => break Err("usage".to_string()),
            _ => {
                rest.push(flag);
                continue;
            }
        };
        match it.next() {
            Some(v) => *target = Some(v),
            None => break Err(format!("{flag} needs a value")),
        }
    };
    let args = parsed.and_then(|()| parse_args(rest.into_iter()));
    let args = match args {
        Ok(a) => a,
        Err(msg) => {
            if msg == "usage" {
                eprintln!("{}", ANALYZE_USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("wavesim analyze: {msg}\n\n{ANALYZE_USAGE}");
            return ExitCode::from(2);
        }
    };
    let gates = {
        let parse_opt = |v: &Option<String>| -> Result<Option<u64>, String> {
            v.as_deref().map(parse).transpose()
        };
        match (parse_opt(&budget), parse_opt(&max_bytes)) {
            (Ok(max_events), Ok(max_bytes)) => idle_waves::simcheck::budget::Budgets {
                max_events,
                max_bytes,
                ..Default::default()
            },
            (Err(msg), _) | (_, Err(msg)) => {
                eprintln!("wavesim analyze: {msg}\n\n{ANALYZE_USAGE}");
                return ExitCode::from(2);
            }
        }
    };
    let cfg = match build_config(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("wavesim analyze: {msg}");
            return ExitCode::from(2);
        }
    };
    let errors: Vec<Diagnostic> = analyze(&cfg)
        .into_iter()
        .filter(Diagnostic::is_error)
        .collect();
    if !errors.is_empty() {
        emit_error_record("configuration rejected", &errors);
        return ExitCode::from(3);
    }
    let report = match &calibrate {
        Some(path) => match load_calibration(path, cfg.ranks()) {
            Ok(eps) => idle_waves::simcheck::budget::budget_calibrated(&cfg, eps),
            Err(msg) => {
                eprintln!("wavesim analyze: {msg}");
                return ExitCode::from(2);
            }
        },
        None => idle_waves::simcheck::budget::budget(&cfg),
    };
    println!("{}", json::to_string(&report));
    let diags = idle_waves::simcheck::budget::budget_checks(&cfg, &report, &gates);
    for d in &diags {
        eprintln!("wavesim analyze: {d}");
    }
    // Only the explicit caps fail the command; the advisory notes and
    // model warnings (SC019/SC021/SC022/SC024) are stderr-only.
    if diags.iter().any(|d| d.code == "SC018" || d.code == "SC023") {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Pull an events/sec calibration out of a committed `BENCH_*.json`
/// (schema `wavesim-bench`): the scenario whose rank count is nearest
/// the analyzed job's, ties to the larger scenario. Parsed with
/// `tracefmt::json` — the bench crate itself is not a `wavesim`
/// dependency. `--calibrate auto` resolves the latest committed
/// trajectory file (`BENCH_<n>.json` with the highest `n`) from the
/// current directory, so callers track engine generations without
/// editing their command lines.
fn load_calibration(path: &str, ranks: u32) -> Result<f64, String> {
    let resolved = if path == "auto" {
        latest_bench_path(std::path::Path::new("."))
            .ok_or("no BENCH_*.json found in the current directory for --calibrate auto")?
    } else {
        path.to_string()
    };
    let path = resolved.as_str();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("bad bench report {path}: {}", e.0))?;
    if v.get("schema").and_then(Json::as_str) != Some("wavesim-bench") {
        return Err(format!("{path} is not a wavesim-bench report"));
    }
    let scenarios = v
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path} has no scenarios array"))?;
    scenarios
        .iter()
        .filter_map(|s| {
            let r = s.get("ranks").and_then(Json::as_u64)?;
            let eps = s.get("events_per_sec").and_then(Json::as_f64)?;
            (eps > 0.0).then_some((r, eps))
        })
        .min_by_key(|&(r, _)| (r.abs_diff(u64::from(ranks)), std::cmp::Reverse(r)))
        .map(|(_, eps)| eps)
        .ok_or_else(|| format!("{path} has no usable events_per_sec entries"))
}

/// The committed bench trajectory file with the highest generation
/// number: `BENCH_<n>.json` for the largest `n` in `dir`. Mirrors
/// `bench::throughput::latest_bench_file` without taking the dependency.
fn latest_bench_path(dir: &std::path::Path) -> Option<String> {
    let mut best: Option<(u64, String)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let n: Option<u64> = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse().ok());
        if let Some(n) = n {
            if best.as_ref().is_none_or(|(b, _)| n > *b) {
                best = Some((n, entry.path().to_string_lossy().into_owned()));
            }
        }
    }
    best.map(|(_, p)| p)
}

struct ServeArgs {
    opts: ServeOptions,
    quiet: bool,
    drill: bool,
    drill_dir: Option<String>,
}

fn parse_serve_args(mut it: std::env::Args) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        opts: ServeOptions::default(),
        quiet: false,
        drill: false,
        drill_dir: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.opts.addr = value("--addr")?,
            "--dir" => args.opts.dir = value("--dir")?.into(),
            "--threads" => args.opts.threads = parse(&value("--threads")?)?,
            "--queue-cap" => args.opts.queue_cap = parse(&value("--queue-cap")?)?,
            "--retry-after-ms" => {
                let ms: u64 = parse(&value("--retry-after-ms")?)?;
                args.opts.retry_after = std::time::Duration::from_millis(ms);
            }
            "--deadline-ms" => {
                let ms: u64 = parse(&value("--deadline-ms")?)?;
                args.opts.deadline = std::time::Duration::from_millis(ms);
            }
            "--retries" => args.opts.retries = parse(&value("--retries")?)?,
            "--retry-backoff-ms" => {
                let ms: u64 = parse(&value("--retry-backoff-ms")?)?;
                args.opts.retry_backoff = std::time::Duration::from_millis(ms);
            }
            "--watchdog-factor" => args.opts.watchdog_factor = parse(&value("--watchdog-factor")?)?,
            "--admission-budget" => {
                args.opts.admission_budget = Some(parse(&value("--admission-budget")?)?);
            }
            "--cache-dir" => args.opts.cache_dir = Some(value("--cache-dir")?.into()),
            "--fsync" => args.opts.fsync = true,
            "--max-line-bytes" => args.opts.max_line_bytes = parse(&value("--max-line-bytes")?)?,
            "--drill" => args.drill = true,
            "--drill-dir" => args.drill_dir = Some(value("--drill-dir")?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err("usage".into()),
            other => return Err(format!("unknown serve flag {other}")),
        }
    }
    if args.opts.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if args.opts.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    if args.opts.max_line_bytes == 0 {
        return Err("--max-line-bytes must be at least 1".into());
    }
    if args.drill_dir.is_some() && !args.drill {
        return Err("--drill-dir needs --drill".into());
    }
    Ok(args)
}

/// `wavesim serve --drill` — the service's self-chaos drill: overload,
/// malformed input, worker panics, mid-stream disconnects, drain, a
/// SIGKILLed child recovered from its journal, and a warm cache, each
/// phase asserting byte-identity against an undisturbed control run.
/// Exit 0 when every phase passes, 1 otherwise.
fn run_serve_drill_command(args: &ServeArgs) -> ExitCode {
    let dir = args
        .drill_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("wavesim-serve-drill"));
    let opts = ServeDrillOptions {
        dir,
        // This very binary is the child the SIGKILL phase murders.
        exe: std::env::current_exe().ok(),
    };
    let report = match run_serve_drill(&opts) {
        Ok(r) => r,
        Err(e) => {
            emit_error_record(&format!("serve drill failed: {e}"), &[]);
            return ExitCode::from(3);
        }
    };
    if !args.quiet {
        for p in &report.phases {
            println!(
                "drill {:16} {} — {}",
                p.name,
                if p.passed { "pass" } else { "FAIL" },
                p.detail
            );
        }
        println!(
            "drill: {}/{} phases passed",
            report.phases.iter().filter(|p| p.passed).count(),
            report.phases.len()
        );
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_serve_command(it: std::env::Args) -> ExitCode {
    let args = match parse_serve_args(it) {
        Ok(a) => a,
        Err(msg) => {
            if msg == "usage" {
                eprintln!("{}", SERVE_USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("wavesim serve: {msg}\n\n{SERVE_USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.drill {
        return run_serve_drill_command(&args);
    }
    // SIGTERM/SIGINT request a graceful drain: stop accepting, finish
    // and journal everything admitted, then exit 0.
    let shutdown = install_term_handler();
    let report = run_serve(&args.opts, shutdown, |addr| {
        // The ready record is the service's one line of protocol on
        // stdout: scripts parse the bound (possibly ephemeral) address
        // from it.
        let ready = Json::obj(vec![
            ("type", Json::Str("ready".into())),
            ("addr", Json::Str(addr.to_string())),
        ]);
        println!("{}", json::to_string(&ready));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            emit_error_record(&format!("serve failed: {e}"), &[]);
            return ExitCode::from(3);
        }
    };
    if !args.quiet {
        for w in &report.warnings {
            eprintln!("wavesim serve: warning: {w}");
        }
        let s = &report.stats;
        println!(
            "serve: drained clean — {} accepted, {} completed, {} cancelled, \
             {} rejected, {} shed, {} recovered, cache {}/{} hits/misses",
            s.accepted,
            s.completed,
            s.cancelled,
            s.rejected,
            s.shed,
            s.recovered,
            s.cache_hits,
            s.cache_misses
        );
    }
    ExitCode::SUCCESS
}

fn run_loadgen_command(it: std::env::Args) -> ExitCode {
    let mut it = it;
    let mut opts = LoadgenOptions::default();
    let mut quiet = false;
    let parsed = loop {
        let Some(flag) = it.next() else {
            break Ok(());
        };
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let step = match flag.as_str() {
            "--addr" => value("--addr").map(|v| opts.addr = v),
            "--requests" => value("--requests").and_then(|v| parse(&v).map(|n| opts.requests = n)),
            "--connections" => {
                value("--connections").and_then(|v| parse(&v).map(|n| opts.connections = n))
            }
            "--ranks" => value("--ranks").and_then(|v| parse(&v).map(|n| opts.ranks = n)),
            "--steps" => value("--steps").and_then(|v| parse(&v).map(|n| opts.steps = n)),
            "--out" => value("--out").map(|v| opts.out = Some(v.into())),
            "--query" => {
                opts.query = true;
                Ok(())
            }
            "--max-retries" => {
                value("--max-retries").and_then(|v| parse(&v).map(|n| opts.max_retries = n))
            }
            "--quiet" => {
                quiet = true;
                Ok(())
            }
            "--help" | "-h" => break Err("usage".to_string()),
            other => break Err(format!("unknown loadgen flag {other}")),
        };
        if let Err(msg) = step {
            break Err(msg);
        }
    };
    if let Err(msg) = parsed {
        if msg == "usage" {
            eprintln!("{}", LOADGEN_USAGE);
            return ExitCode::SUCCESS;
        }
        eprintln!("wavesim loadgen: {msg}\n\n{LOADGEN_USAGE}");
        return ExitCode::from(2);
    }
    if opts.addr.is_empty() {
        eprintln!("wavesim loadgen: --addr is required\n\n{LOADGEN_USAGE}");
        return ExitCode::from(2);
    }
    if opts.requests == 0 {
        eprintln!("wavesim loadgen: --requests must be at least 1\n\n{LOADGEN_USAGE}");
        return ExitCode::from(2);
    }
    match run_loadgen(&opts) {
        Ok(report) => {
            if !quiet {
                println!("{}", json::to_string(&report));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            emit_error_record(&format!("loadgen failed: {e}"), &[]);
            ExitCode::from(3)
        }
    }
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("sweep") => {
            let mut it = std::env::args();
            let _ = it.next(); // argv[0]
            let _ = it.next(); // "sweep"
            return run_sweep_command(it);
        }
        Some("analyze") => {
            let mut it = std::env::args();
            let _ = it.next(); // argv[0]
            let _ = it.next(); // "analyze"
            return run_analyze_command(it);
        }
        Some("serve") => {
            let mut it = std::env::args();
            let _ = it.next(); // argv[0]
            let _ = it.next(); // "serve"
            return run_serve_command(it);
        }
        Some("loadgen") => {
            let mut it = std::env::args();
            let _ = it.next(); // argv[0]
            let _ = it.next(); // "loadgen"
            return run_loadgen_command(it);
        }
        _ => {}
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            if msg == "usage" {
                eprintln!("{}", USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("wavesim: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = match build_config(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("wavesim: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.dump_config {
        println!("{}", idle_waves::tracefmt::json::to_string_pretty(&cfg));
        return ExitCode::SUCCESS;
    }

    let wt = match run_single(&args, cfg) {
        Ok(wt) => wt,
        Err(RunError::Io(msg)) => {
            eprintln!("wavesim: {msg}");
            return ExitCode::from(2);
        }
        Err(RunError::Rejected(diags)) => {
            emit_error_record("configuration rejected or run failed", &diags);
            return ExitCode::from(3);
        }
    };

    if args.ascii {
        let opts = AsciiOptions {
            width: 100,
            ..Default::default()
        };
        print!("{}", ascii_timeline(&wt.trace, &opts));
    }
    if let Some(path) = &args.svg_path {
        let svg = idle_waves::tracefmt::svg_timeline(
            &wt.trace,
            &idle_waves::tracefmt::SvgOptions::default(),
        );
        if let Err(e) = std::fs::write(path, svg) {
            eprintln!("wavesim: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.csv_path {
        if let Err(e) = std::fs::write(path, idle_waves::tracefmt::to_csv(&wt.trace)) {
            eprintln!("wavesim: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if !args.quiet {
        println!(
            "ranks {} | steps {} | total runtime {}",
            wt.trace.ranks(),
            wt.trace.steps(),
            wt.total_runtime()
        );
        if let Some(source) = wt
            .cfg
            .injections
            .injections()
            .iter()
            .max_by_key(|i| i.duration)
            .map(|i| i.rank)
        {
            let th = wt.default_threshold();
            match speed::compare_with_model(&wt, source, th) {
                Some(cmp) => println!(
                    "wave speed: measured {:.1} ranks/s, Eq.2 v_silent {:.1} ranks/s (ratio {:.3})",
                    cmp.measured, cmp.predicted, cmp.ratio
                ),
                None => println!(
                    "wave too short for a speed fit (v_silent would be {:.1} ranks/s)",
                    model::predicted_speed(&wt.cfg)
                ),
            }
        }
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "usage: wavesim [--ranks N] [--steps N] [--texec-ms F] [--msg-bytes N]
               [--protocol eager|rendezvous|auto] [--direction uni|bi]
               [--boundary open|periodic] [--distance N]
               [--inject R:S:MS]... [--noise-percent F] [--seed N]
               [--config FILE.json] [--dump-config]
               [--checkpoint-dir DIR --checkpoint-every SPEC]
               [--restore FILE.ckpt]
               [--ascii] [--svg FILE] [--csv FILE] [--quiet]
       wavesim analyze [config flags] [--calibrate BENCH.json]
               [--budget N] [--max-bytes N]
       wavesim sweep --scenarios FILE --out FILE [options]  (see --help)
       wavesim serve [--addr HOST:PORT] [--dir DIR] [options] (see --help)
       wavesim loadgen --addr HOST:PORT [options]            (see --help)";

const ANALYZE_USAGE: &str = "usage: wavesim analyze [config flags — see wavesim --help]
               [--config FILE.json] [--calibrate BENCH.json|auto]
               [--budget N] [--max-bytes N]
prints the static budget report (schema budget-report-v1) as single-line
JSON on stdout; --calibrate auto uses the latest committed BENCH_<n>.json;
--budget/--max-bytes gates exit 1 on SC018/SC023";

const SWEEP_USAGE: &str = "usage: wavesim sweep --scenarios FILE.json --out FILE.jsonl
               [--resume] [--threads N] [--shards N]
               [--retries N] [--retry-backoff-ms N]
               [--wall-timeout-ms N] [--max-wall-ms N]
               [--watchdog-factor F] [--max-events N] [--budget N]
               [--cache-dir DIR] [--fsync] [--quiet]
               [--checkpoint-dir DIR] [--checkpoint-every SPEC]
       wavesim sweep --drill [--drill-dir DIR] [--threads N] [--quiet]
exit codes: 0 all ok, 1 some scenarios failed, 2 usage, 3 runtime error,
4 interrupted by SIGTERM/SIGINT (state flushed; rerun with --resume)";

const SERVE_USAGE: &str = "usage: wavesim serve [--addr HOST:PORT] [--dir DIR] [--threads N]
               [--queue-cap N] [--retry-after-ms N] [--deadline-ms N]
               [--retries N] [--retry-backoff-ms N] [--watchdog-factor F]
               [--admission-budget N] [--cache-dir DIR] [--fsync]
               [--max-line-bytes N] [--quiet]
       wavesim serve --drill [--drill-dir DIR] [--quiet]
a crash-recoverable scenario service over line-delimited JSON (see
docs/SERVE.md): prints a {\"type\":\"ready\",\"addr\":...} record once
listening; SIGTERM/SIGINT drain gracefully and exit 0; a SIGKILLed
server re-runs its journaled pending jobs on restart, bit-identically";

const LOADGEN_USAGE: &str = "usage: wavesim loadgen --addr HOST:PORT [--requests N]
               [--connections N] [--ranks N] [--steps N] [--out FILE.jsonl]
               [--query] [--max-retries N] [--quiet]
drives a wavesim serve instance with a deterministic request population
and writes the collected terminal records sorted by id — two runs against
equivalent servers are byte-comparable; --query polls the same ids over
query instead of submitting (for reading results back after a restart)";
