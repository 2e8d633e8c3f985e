//! Events/sec throughput benchmark with a committed `BENCH_*.json`
//! trajectory.
//!
//! The roadmap's raw-speed work needs a yardstick: this module times the
//! engine end-to-end (construction + run) on the paper's Fig. 4 wave
//! scenario scaled to 256 / 1024 / 4096 ranks, plus a fault-plan variant
//! that exercises the retransmission path, and reports **simulation
//! events per wall-clock second**. The `throughput` binary writes the
//! results as a schema'd `BENCH_<n>.json` (via `tracefmt::json`, like
//! every other artefact in the tree); the repository commits one such
//! file per engine generation so every later PR can show — and CI can
//! guard — the performance trajectory.
//!
//! Determinism contract: each scenario's `fingerprint` field is the
//! [`tracefmt::Trace::fingerprint`] of a full-trace run, so two BENCH
//! files with equal fingerprints measured *the same simulation* — an
//! engine rewrite that gets faster while changing behaviour is caught by
//! comparing fingerprints across the committed history (and by the
//! golden-figure tests, which pin the same scenarios numerically).
//!
//! Since the work-stealing sweep fabric landed, the report also carries a
//! `sweeps` section ([`SweepResult`]): whole `idlewave::sweep::run_sweep`
//! suites timed end-to-end — **scenarios per second** through the fabric,
//! measured cold (every scenario simulated) and warm (every scenario
//! served from the result cache). Each entry pins the FNV-1a digest of
//! the merged report bytes, and the timing loop asserts the bytes are
//! identical across iterations and across cold/warm, so the trajectory
//! file doubles as a determinism witness for the fabric. Older BENCH
//! files without the section still parse (`sweeps` defaults to empty).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use idlewave::serve::client::{loadgen_scenarios, ServeClient};
use idlewave::serve::protocol::{Reply, Request};
use idlewave::serve::{run_serve, ServeOptions};
use idlewave::sweep::{run_sweep, SweepOptions, SweepReport};
use mpisim::{try_run_summary_pooled, Engine, EnginePools, RunLimits, RunSummary, SimConfig};
use simdes::SimDuration;
use tracefmt::fnv1a_64;
use tracefmt::json::{self, ToJson};

use crate::harness;
use crate::Scale;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "wavesim-bench";
/// Schema version; bump on any field change.
pub const SCHEMA_VERSION: u64 = 1;

/// Injection rank of the wave scenarios (the paper delays rank 5).
pub const SOURCE: u32 = 5;

/// The Fig. 4 wave scenario scaled to `ranks` ranks: eager
/// unidirectional open chain, 3 ms compute phases, one 4.5 `T_exec`
/// delay at rank 5 in step 0. This exact config is also pinned by the
/// fingerprint-only golden in `tests/golden_figures.rs`, so the bench
/// target scenario cannot drift silently.
pub fn wave_config(ranks: u32, steps: u32) -> SimConfig {
    let texec = SimDuration::from_millis(3);
    idlewave::WaveExperiment::flat_chain(ranks)
        .texec(texec)
        .steps(steps)
        .inject(SOURCE, 0, texec.mul_f64(4.5))
        .into_config()
}

/// The wave scenario with message-drop faults (5 % drops, 200 µs RTO):
/// times the retransmission and fault-RNG machinery on top of the wave.
pub fn faulty_wave_config(ranks: u32, steps: u32) -> SimConfig {
    let mut cfg = wave_config(ranks, steps);
    cfg.faults = mpisim::FaultPlan::none().with_drops(0.05, SimDuration::from_micros(200));
    cfg
}

/// One named benchmark scenario.
pub struct Scenario {
    /// Stable name, used to match scenarios across BENCH files.
    pub name: &'static str,
    /// The configuration to simulate.
    pub cfg: SimConfig,
}

/// The benchmark suite at a given scale. Smoke keeps the rank counts
/// (per-event cost depends on scale) but shrinks the step counts so CI
/// finishes in seconds.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let steps = |full: u32| scale.pick(full, 4);
    vec![
        Scenario {
            name: "wave-256",
            cfg: wave_config(256, steps(128)),
        },
        Scenario {
            name: "wave-1024",
            cfg: wave_config(1024, steps(64)),
        },
        Scenario {
            name: "wave-4096",
            cfg: wave_config(4096, steps(24)),
        },
        Scenario {
            name: "wave-1024-faults",
            cfg: faulty_wave_config(1024, steps(24)),
        },
    ]
}

/// Measured result of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name (see [`scenarios`]).
    pub name: String,
    /// Rank count of the simulated job.
    pub ranks: u32,
    /// Bulk-synchronous step count.
    pub steps: u32,
    /// Events the queue delivered in one run.
    pub events: u64,
    /// Timed iterations behind the numbers below.
    pub iters: u32,
    /// Fastest end-to-end run, nanoseconds.
    pub min_ns: u64,
    /// Mean end-to-end run, nanoseconds.
    pub mean_ns: u64,
    /// `events / (min_ns / 1e9)` — the headline metric.
    pub events_per_sec: f64,
    /// `Trace::fingerprint` of the scenario's full trace.
    pub fingerprint: u64,
}

/// A full benchmark report: what `BENCH_<n>.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Human label for the engine generation (e.g. "pre-calendar-queue").
    pub label: String,
    /// One entry per scenario, in suite order.
    pub scenarios: Vec<ScenarioResult>,
    /// Sweep-fabric measurements ([`run_sweeps`]); empty in BENCH files
    /// written before the fabric existed.
    pub sweeps: Vec<SweepResult>,
    /// Scenario-service measurements ([`run_serves`]); empty in BENCH
    /// files written before `wavesim serve` existed.
    pub serve: Vec<ServeResult>,
}

/// Measured result of one scenario-service run: a request population
/// submitted over TCP to an in-process `wavesim serve` instance and
/// every terminal record read back — **requests per second** through the
/// full wire path (framing, admission, journal, fabric, reply stream).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// `serve-cold` (no result cache, every request simulated) or
    /// `serve-warm` (a primed cache serves every request with zero
    /// re-simulations, asserted via the service counters).
    pub name: String,
    /// Requests per timed run.
    pub requests: u32,
    /// Service worker threads.
    pub threads: u32,
    /// Timed iterations behind the numbers below.
    pub iters: u32,
    /// Fastest submit-to-last-record run, nanoseconds.
    pub min_ns: u64,
    /// Mean submit-to-last-record run, nanoseconds.
    pub mean_ns: u64,
    /// `requests / (min_ns / 1e9)` — the service's headline metric.
    pub requests_per_sec: f64,
    /// Cache hits per run (0 when cold, `requests` when warm).
    pub cache_hits: u64,
    /// FNV-1a digest of the sorted terminal-record bytes — identical
    /// between the cold and warm rows of the same generation, and
    /// comparable across BENCH files to catch service rewrites that
    /// change results.
    pub result_fnv: u64,
}

/// Measured result of one sweep-fabric run: a whole scenario suite
/// pushed through `idlewave::sweep::run_sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// `sweep-cold` (every scenario simulated) or `sweep-warm` (every
    /// scenario served from the result cache).
    pub name: String,
    /// Scenarios in the swept suite.
    pub scenarios: u32,
    /// Fabric worker count.
    pub threads: u32,
    /// Result-shard count.
    pub shards: u32,
    /// Timed iterations behind the numbers below.
    pub iters: u32,
    /// Fastest end-to-end sweep, nanoseconds.
    pub min_ns: u64,
    /// Mean end-to-end sweep, nanoseconds.
    pub mean_ns: u64,
    /// `scenarios / (min_ns / 1e9)` — the fabric's headline metric.
    pub scenarios_per_sec: f64,
    /// Cache hits per run (0 when cold, `scenarios` when warm).
    pub cache_hits: u64,
    /// FNV-1a digest of the merged report bytes — identical between the
    /// cold and warm rows of the same generation, and comparable across
    /// BENCH files to catch fabric rewrites that change results.
    pub report_fnv: u64,
}

/// Run one simulation in pooled summary mode, returning how many events
/// it pumped and the run's record digest. This is the timed kernel:
/// engine construction (from pooled buffers), the event loop, and the
/// streamed summary fold (the cheapest mode the engine offers).
fn run_once(cfg: &SimConfig, pools: &mut EnginePools) -> (u64, u64) {
    let (summary, stats) = try_run_summary_pooled(cfg, &RunLimits::none(), pools)
        .unwrap_or_else(|e| panic!("bench run: {e}"));
    std::hint::black_box(summary.total_runtime());
    (stats.events, summary.digest)
}

/// Time one scenario: a full-trace run first for the fingerprint and
/// event count, then `iters` timed end-to-end pooled summary runs.
///
/// # Panics
/// Panics when the scenario's config fails validation, a run stalls, or
/// the timed runs disagree with the reference run's event count or
/// record digest — any of these means the benchmark itself is broken.
pub fn run_scenario(s: &Scenario, iters: u32, warmup: u32) -> ScenarioResult {
    let (trace, stats) = Engine::try_new(s.cfg.clone())
        .unwrap_or_else(|e| panic!("bench config {}: {e}", s.name))
        .try_run_with_stats(&RunLimits::none())
        .unwrap_or_else(|e| panic!("bench run {}: {e}", s.name));
    let events = stats.events;
    let reference_digest = RunSummary::of_trace(&trace).digest;
    let mut pools = EnginePools::new();
    let mut counted = 0u64;
    let mut digest = 0u64;
    let timing = harness::time_kernel_n(s.name, iters, warmup, || {
        (counted, digest) = run_once(&s.cfg, &mut pools);
    });
    assert_eq!(
        counted, events,
        "{}: timed runs delivered a different event count than the \
         full-trace run — the engine is nondeterministic",
        s.name
    );
    assert_eq!(
        digest, reference_digest,
        "{}: summary-mode record digest diverged from the full trace — \
         the timed kernel simulates something else",
        s.name
    );
    ScenarioResult {
        name: s.name.to_string(),
        ranks: s.cfg.ranks(),
        steps: s.cfg.steps,
        events,
        iters: timing.iters,
        min_ns: duration_ns(timing.min),
        mean_ns: duration_ns(timing.mean),
        events_per_sec: per_sec(events, timing.min),
        fingerprint: trace.fingerprint(),
    }
}

/// Run the whole suite at `scale`: the engine scenarios plus the
/// sweep-fabric measurements.
pub fn run_suite(scale: Scale, label: &str, iters: u32, warmup: u32) -> BenchReport {
    BenchReport {
        label: label.to_string(),
        scenarios: scenarios(scale)
            .iter()
            .map(|s| run_scenario(s, iters, warmup))
            .collect(),
        sweeps: run_sweeps(scale, iters, warmup),
        serve: run_serves(scale, iters, warmup),
    }
}

/// The sweep-fabric benchmark suite: many small distinct-seed wave jobs,
/// sized so the fabric's per-scenario overhead (work dealing, shard
/// sinks, cache probes, merge) is a visible share of the total.
pub fn sweep_suite(scale: Scale) -> Vec<idlewave::sweep::Scenario> {
    let n = scale.pick(64, 6);
    let steps = scale.pick(16, 4);
    (0..n)
        .map(|i| {
            let cfg = idlewave::WaveExperiment::flat_chain(48)
                .texec(SimDuration::from_micros(500))
                .steps(steps)
                .seed(0x5eed_0000 + i as u64)
                .into_config();
            idlewave::sweep::Scenario::new(format!("point-{i:03}"), cfg)
        })
        .collect()
}

/// Time the sweep fabric end-to-end, cold then warm: `sweep-cold`
/// removes the result cache before every run so each scenario is
/// simulated; `sweep-warm` primes the cache once and then serves every
/// scenario from it. Both rows assert the merged report bytes are
/// bit-identical across iterations and to each other — the published
/// number always measures the deterministic fabric, never a lucky race.
///
/// # Panics
/// Panics when a sweep fails, a run's cache counters disagree with the
/// cold/warm contract, or the merged reports diverge.
pub fn run_sweeps(scale: Scale, iters: u32, warmup: u32) -> Vec<SweepResult> {
    let suite = sweep_suite(scale);
    let n = suite.len();
    let threads = 4usize;
    // Unique per call: concurrent callers (parallel tests) must not
    // share sweep outputs or cache directories.
    static CALL: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("wavesim-bench-sweep-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("bench sweep dir: {e}"));
    let out = dir.join("sweep.jsonl");
    let cache = dir.join("cache");
    let opts = SweepOptions {
        threads,
        shards: Some(threads),
        cache_dir: Some(cache.clone()),
        ..SweepOptions::default()
    };
    let run = |label: &str| -> SweepReport {
        run_sweep(&suite, &opts, &out).unwrap_or_else(|e| panic!("bench {label} sweep: {e}"))
    };
    let digest_out = || fnv1a_64(&std::fs::read(&out).unwrap_or_else(|e| panic!("merged: {e}")));

    let mut fnv: Option<u64> = None;
    let mut check = |label: &str, report: &SweepReport, want_hits: usize| {
        assert!(report.all_ok(), "bench {label} sweep failed: {report:?}");
        assert_eq!(
            report.cache_hits, want_hits,
            "bench {label} sweep broke the cold/warm cache contract"
        );
        let d = digest_out();
        if let Some(prev) = fnv {
            assert_eq!(
                prev, d,
                "bench {label} sweep produced a different merged report — \
                 the fabric is nondeterministic"
            );
        }
        fnv = Some(d);
    };

    let cold = harness::time_kernel_n("sweep-cold", iters, warmup, || {
        let _ = std::fs::remove_dir_all(&cache);
        let report = run("cold");
        check("cold", &report, 0);
    });

    // Prime the cache, then every timed run is all hits.
    let _ = std::fs::remove_dir_all(&cache);
    check("prime", &run("prime"), 0);
    let warm = harness::time_kernel_n("sweep-warm", iters, warmup, || {
        let report = run("warm");
        check("warm", &report, n);
    });

    let fnv = fnv.expect("at least one sweep ran");
    let _ = std::fs::remove_dir_all(&dir);
    let row = |name: &str, timing: &harness::KernelTiming, hits: u64| SweepResult {
        name: name.to_string(),
        scenarios: n as u32,
        threads: threads as u32,
        shards: threads as u32,
        iters: timing.iters,
        min_ns: duration_ns(timing.min),
        mean_ns: duration_ns(timing.mean),
        scenarios_per_sec: per_sec(n as u64, timing.min),
        cache_hits: hits,
        report_fnv: fnv,
    };
    vec![
        row("sweep-cold", &cold, 0),
        row("sweep-warm", &warm, n as u64),
    ]
}

/// The serve benchmark population: the deterministic loadgen scenarios,
/// sized so the wire path (framing, admission, journal append, reply
/// stream) is a visible share of each request.
pub fn serve_suite(scale: Scale) -> Vec<idlewave::sweep::Scenario> {
    loadgen_scenarios(scale.pick(48, 6) as usize, 16, scale.pick(16, 4))
}

/// Submit the whole suite over one connection and read every terminal
/// record back, returning the FNV-1a digest of the sorted record bytes.
fn serve_round(addr: &str, suite: &[idlewave::sweep::Scenario]) -> u64 {
    let mut client = ServeClient::connect(addr).unwrap_or_else(|e| panic!("bench connect: {e}"));
    for s in suite {
        client
            .send(&Request::Submit(Box::new(s.clone())))
            .unwrap_or_else(|e| panic!("bench submit: {e}"));
    }
    let mut records = Vec::new();
    while records.len() < suite.len() {
        match client.next_reply() {
            Ok(Reply::Accepted { .. }) => {}
            Ok(Reply::Result { record }) => records.push(record),
            Ok(other) => panic!("bench serve: unexpected reply {other:?}"),
            Err(e) => panic!("bench serve: reply stream failed: {e}"),
        }
    }
    records.sort_by(|a, b| a.id.cmp(&b.id));
    let mut bytes = Vec::new();
    for r in &records {
        assert_eq!(
            r.status,
            idlewave::sweep::ScenarioStatus::Ok,
            "bench serve: request '{}' did not complete clean: {r:?}",
            r.id
        );
        bytes.extend_from_slice(json::to_string(&r.to_json()).as_bytes());
        bytes.push(b'\n');
    }
    fnv1a_64(&bytes)
}

/// Time the scenario service end-to-end, cold then warm: `serve-cold`
/// runs without a result cache so every request is simulated;
/// `serve-warm` primes a cache once and then serves every request from
/// it, asserted through the service's own hit/miss counters. Both rows
/// assert the terminal-record bytes are bit-identical across iterations
/// and to each other — the published number always measures the
/// deterministic service, never a lucky race.
///
/// # Panics
/// Panics when the service fails to start, a request does not complete
/// clean, the warm row re-simulates, or the record bytes diverge.
pub fn run_serves(scale: Scale, iters: u32, warmup: u32) -> Vec<ServeResult> {
    let suite = serve_suite(scale);
    let n = suite.len();
    let threads = 4usize;
    static CALL: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("wavesim-bench-serve-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let start = |opts: ServeOptions| {
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let (tx, rx) = mpsc::channel();
        let join = std::thread::spawn(move || {
            run_serve(&opts, &flag, |addr| {
                let _ = tx.send(addr.to_string());
            })
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("bench serve never became ready: {e}"));
        (addr, shutdown, join)
    };
    let stop = |shutdown: Arc<AtomicBool>, join: std::thread::JoinHandle<_>| {
        shutdown.store(true, Ordering::SeqCst);
        let report: std::io::Result<idlewave::serve::ServeReport> = join
            .join()
            .unwrap_or_else(|_| panic!("bench serve panicked"));
        report.unwrap_or_else(|e| panic!("bench serve failed: {e}"))
    };

    let mut fnv: Option<u64> = None;
    let mut check = |label: &str, d: u64| {
        if let Some(prev) = fnv {
            assert_eq!(
                prev, d,
                "bench {label} serve produced different records — \
                 the service is nondeterministic"
            );
        }
        fnv = Some(d);
    };

    // Cold: no cache configured, so every request simulates.
    let (addr, shutdown, join) = start(ServeOptions {
        dir: dir.join("cold"),
        threads,
        queue_cap: n.max(1),
        ..ServeOptions::default()
    });
    let cold = harness::time_kernel_n("serve-cold", iters, warmup, || {
        check("cold", serve_round(&addr, &suite));
    });
    let report = stop(shutdown, join);
    assert_eq!(
        report.stats.cache_hits, 0,
        "bench cold serve hit a cache that should not exist"
    );

    // Warm: prime the cache once, then every timed round is all hits.
    let (addr, shutdown, join) = start(ServeOptions {
        dir: dir.join("warm"),
        threads,
        queue_cap: n.max(1),
        cache_dir: Some(dir.join("cache")),
        ..ServeOptions::default()
    });
    check("prime", serve_round(&addr, &suite));
    let mut rounds = 0u64;
    let warm = harness::time_kernel_n("serve-warm", iters, warmup, || {
        check("warm", serve_round(&addr, &suite));
        rounds += 1;
    });
    let report = stop(shutdown, join);
    assert_eq!(
        report.stats.cache_misses, n as u64,
        "bench warm serve re-simulated after the priming round"
    );
    assert_eq!(
        report.stats.cache_hits,
        rounds * n as u64,
        "bench warm serve broke the cold/warm cache contract"
    );

    let fnv = fnv.expect("at least one serve round ran");
    let _ = std::fs::remove_dir_all(&dir);
    let row = |name: &str, timing: &harness::KernelTiming, hits: u64| ServeResult {
        name: name.to_string(),
        requests: n as u32,
        threads: threads as u32,
        iters: timing.iters,
        min_ns: duration_ns(timing.min),
        mean_ns: duration_ns(timing.mean),
        requests_per_sec: per_sec(n as u64, timing.min),
        cache_hits: hits,
        result_fnv: fnv,
    };
    vec![
        row("serve-cold", &cold, 0),
        row("serve-warm", &warm, n as u64),
    ]
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn per_sec(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    count as f64 / secs
}

tracefmt::json_codec! {
    struct ScenarioResult {
        name,
        ranks,
        steps,
        events,
        iters,
        min_ns,
        mean_ns,
        events_per_sec,
        fingerprint,
    }
}

tracefmt::json_codec! {
    struct SweepResult {
        name,
        scenarios,
        threads,
        shards,
        iters,
        min_ns,
        mean_ns,
        scenarios_per_sec,
        cache_hits,
        report_fnv,
    }
}

tracefmt::json_codec! {
    struct ServeResult {
        name,
        requests,
        threads,
        iters,
        min_ns,
        mean_ns,
        requests_per_sec,
        cache_hits,
        result_fnv,
    }
}

// `sweeps` and `serve` are absent in BENCH files written before the sweep
// fabric and the scenario service.
tracefmt::json_codec! {
    struct BenchReport [schema = SCHEMA, version = SCHEMA_VERSION] {
        label,
        scenarios,
        sweeps = Vec::new(),
        serve = Vec::new(),
    }
}

/// Parse and semantically validate an encoded report: schema and version
/// match, at least one scenario, and every scenario's numbers are
/// internally consistent (positive counts, `events_per_sec` within 1 %
/// of `events / min_ns`).
pub fn validate(text: &str) -> Result<BenchReport, String> {
    let report: BenchReport = json::from_str(text).map_err(|e| e.to_string())?;
    if report.scenarios.is_empty() {
        return Err("report has no scenarios".to_string());
    }
    for s in &report.scenarios {
        if s.name.is_empty() {
            return Err("a scenario has an empty name".to_string());
        }
        if s.ranks == 0 || s.steps == 0 || s.events == 0 || s.iters == 0 || s.min_ns == 0 {
            return Err(format!("scenario '{}' has a zero-valued field", s.name));
        }
        if s.mean_ns < s.min_ns {
            return Err(format!("scenario '{}': mean_ns < min_ns", s.name));
        }
        let derived = s.events as f64 / (s.min_ns as f64 / 1e9);
        let err = (s.events_per_sec - derived).abs() / derived.max(1.0);
        if !(s.events_per_sec.is_finite() && err < 0.01) {
            return Err(format!(
                "scenario '{}': events_per_sec {} inconsistent with events/min_ns {derived}",
                s.name, s.events_per_sec
            ));
        }
    }
    let mut names: Vec<&str> = report.scenarios.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != report.scenarios.len() {
        return Err("duplicate scenario names in report".to_string());
    }
    for s in &report.sweeps {
        if s.name.is_empty() {
            return Err("a sweep row has an empty name".to_string());
        }
        if s.scenarios == 0 || s.threads == 0 || s.shards == 0 || s.iters == 0 || s.min_ns == 0 {
            return Err(format!("sweep row '{}' has a zero-valued field", s.name));
        }
        if s.mean_ns < s.min_ns {
            return Err(format!("sweep row '{}': mean_ns < min_ns", s.name));
        }
        let derived = s.scenarios as f64 / (s.min_ns as f64 / 1e9);
        let err = (s.scenarios_per_sec - derived).abs() / derived.max(1.0);
        if !(s.scenarios_per_sec.is_finite() && err < 0.01) {
            return Err(format!(
                "sweep row '{}': scenarios_per_sec {} inconsistent with scenarios/min_ns {derived}",
                s.name, s.scenarios_per_sec
            ));
        }
    }
    if report
        .sweeps
        .windows(2)
        .any(|w| w[0].report_fnv != w[1].report_fnv)
    {
        return Err("sweep rows disagree on the merged-report digest".to_string());
    }
    for s in &report.serve {
        if s.name.is_empty() {
            return Err("a serve row has an empty name".to_string());
        }
        if s.requests == 0 || s.threads == 0 || s.iters == 0 || s.min_ns == 0 {
            return Err(format!("serve row '{}' has a zero-valued field", s.name));
        }
        if s.mean_ns < s.min_ns {
            return Err(format!("serve row '{}': mean_ns < min_ns", s.name));
        }
        let derived = s.requests as f64 / (s.min_ns as f64 / 1e9);
        let err = (s.requests_per_sec - derived).abs() / derived.max(1.0);
        if !(s.requests_per_sec.is_finite() && err < 0.01) {
            return Err(format!(
                "serve row '{}': requests_per_sec {} inconsistent with requests/min_ns {derived}",
                s.name, s.requests_per_sec
            ));
        }
    }
    if report
        .serve
        .windows(2)
        .any(|w| w[0].result_fnv != w[1].result_fnv)
    {
        return Err("serve rows disagree on the record digest".to_string());
    }
    Ok(report)
}

/// Calibration lookup for the static budget analyzer
/// (`simcheck::budget::budget_calibrated`): the events/sec of the
/// report's scenario whose rank count is nearest `ranks` — per-event
/// cost depends on scale, so the closest measured job is the best
/// predictor. Ties go to the larger scenario. `None` when no scenario
/// has a positive throughput.
pub fn events_per_sec_for(report: &BenchReport, ranks: u32) -> Option<f64> {
    report
        .scenarios
        .iter()
        .filter(|s| s.events_per_sec > 0.0)
        .min_by_key(|s| (s.ranks.abs_diff(ranks), std::cmp::Reverse(s.ranks)))
        .map(|s| s.events_per_sec)
}

/// The most recent committed bench trajectory file in `dir`: the
/// `BENCH_<n>.json` with the highest `n` (each engine generation commits
/// the next number). `None` when the directory holds none.
pub fn latest_bench_file(dir: &std::path::Path) -> Option<std::path::PathBuf> {
    let mut best: Option<(u64, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        let n: Option<u64> = path
            .file_name()
            .and_then(|s| s.to_str())
            .and_then(|name| name.strip_prefix("BENCH_"))
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse().ok());
        if let Some(n) = n {
            if best.as_ref().map_or(true, |(b, _)| n > *b) {
                best = Some((n, path));
            }
        }
    }
    best.map(|(_, p)| p)
}

/// Compare `current` against a committed `baseline`: every scenario the
/// two share must not have regressed by more than `max_regression`
/// (0.30 = fail when events/sec drops below 70 % of the baseline).
/// Returns the per-scenario speedups on success.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    max_regression: f64,
) -> Result<Vec<(String, f64)>, String> {
    let mut speedups = Vec::new();
    let mut shared = 0;
    for b in &baseline.scenarios {
        let Some(c) = current.scenarios.iter().find(|c| c.name == b.name) else {
            continue;
        };
        shared += 1;
        let ratio = c.events_per_sec / b.events_per_sec;
        if ratio < 1.0 - max_regression {
            return Err(format!(
                "scenario '{}' regressed: {:.0} events/s vs baseline {:.0} \
                 ({:.1}% of baseline, threshold {:.0}%)",
                b.name,
                c.events_per_sec,
                b.events_per_sec,
                ratio * 100.0,
                (1.0 - max_regression) * 100.0
            ));
        }
        speedups.push((b.name.clone(), ratio));
    }
    if shared == 0 {
        return Err("current and baseline reports share no scenario names".to_string());
    }
    // Sweep rows joined the trajectory later; compare whatever the two
    // reports share, with no minimum (pre-fabric baselines have none).
    for b in &baseline.sweeps {
        let Some(c) = current.sweeps.iter().find(|c| c.name == b.name) else {
            continue;
        };
        let ratio = c.scenarios_per_sec / b.scenarios_per_sec;
        if ratio < 1.0 - max_regression {
            return Err(format!(
                "sweep row '{}' regressed: {:.0} scenarios/s vs baseline {:.0} \
                 ({:.1}% of baseline, threshold {:.0}%)",
                b.name,
                c.scenarios_per_sec,
                b.scenarios_per_sec,
                ratio * 100.0,
                (1.0 - max_regression) * 100.0
            ));
        }
        speedups.push((b.name.clone(), ratio));
    }
    // Serve rows joined the trajectory with the scenario service; like
    // sweep rows, compare whatever the two reports share.
    for b in &baseline.serve {
        let Some(c) = current.serve.iter().find(|c| c.name == b.name) else {
            continue;
        };
        let ratio = c.requests_per_sec / b.requests_per_sec;
        if ratio < 1.0 - max_regression {
            return Err(format!(
                "serve row '{}' regressed: {:.0} requests/s vs baseline {:.0} \
                 ({:.1}% of baseline, threshold {:.0}%)",
                b.name,
                c.requests_per_sec,
                b.requests_per_sec,
                ratio * 100.0,
                (1.0 - max_regression) * 100.0
            ));
        }
        speedups.push((b.name.clone(), ratio));
    }
    Ok(speedups)
}

/// Render a report as an aligned table (for the binary's stdout).
pub fn render(report: &BenchReport) -> String {
    let rows: Vec<Vec<String>> = report
        .scenarios
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.ranks.to_string(),
                s.steps.to_string(),
                s.events.to_string(),
                format!("{:.3}", s.min_ns as f64 / 1e6),
                format!("{:.0}", s.events_per_sec),
                format!("{:#018x}", s.fingerprint),
            ]
        })
        .collect();
    let mut out = format!(
        "throughput [{}]\n{}",
        report.label,
        crate::table(
            &[
                "scenario",
                "ranks",
                "steps",
                "events",
                "min [ms]",
                "events/s",
                "trace fingerprint",
            ],
            &rows,
        )
    );
    if !report.sweeps.is_empty() {
        let sweep_rows: Vec<Vec<String>> = report
            .sweeps
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    s.scenarios.to_string(),
                    s.threads.to_string(),
                    s.shards.to_string(),
                    format!("{:.3}", s.min_ns as f64 / 1e6),
                    format!("{:.0}", s.scenarios_per_sec),
                    s.cache_hits.to_string(),
                    format!("{:#018x}", s.report_fnv),
                ]
            })
            .collect();
        out.push_str("\nsweep fabric\n");
        out.push_str(&crate::table(
            &[
                "sweep",
                "scenarios",
                "threads",
                "shards",
                "min [ms]",
                "scenarios/s",
                "hits",
                "report fnv",
            ],
            &sweep_rows,
        ));
    }
    if !report.serve.is_empty() {
        let serve_rows: Vec<Vec<String>> = report
            .serve
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    s.requests.to_string(),
                    s.threads.to_string(),
                    format!("{:.3}", s.min_ns as f64 / 1e6),
                    format!("{:.0}", s.requests_per_sec),
                    s.cache_hits.to_string(),
                    format!("{:#018x}", s.result_fnv),
                ]
            })
            .collect();
        out.push_str("\nscenario service\n");
        out.push_str(&crate::table(
            &[
                "serve",
                "requests",
                "threads",
                "min [ms]",
                "requests/s",
                "hits",
                "result fnv",
            ],
            &serve_rows,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        let s = Scenario {
            name: "wave-tiny",
            cfg: wave_config(16, 3),
        };
        BenchReport {
            label: "test".to_string(),
            scenarios: vec![run_scenario(&s, 1, 0)],
            sweeps: run_sweeps(Scale::Quick, 1, 0),
            serve: run_serves(Scale::Quick, 1, 0),
        }
    }

    #[test]
    fn calibration_picks_the_nearest_rank_count() {
        fn entry(name: &str, ranks: u32, eps: f64) -> ScenarioResult {
            ScenarioResult {
                name: name.to_string(),
                ranks,
                steps: 8,
                events: 1000,
                iters: 1,
                min_ns: 1000,
                mean_ns: 1000,
                events_per_sec: eps,
                fingerprint: 1,
            }
        }
        let report = BenchReport {
            label: "cal".to_string(),
            scenarios: vec![
                entry("wave-256", 256, 6e6),
                entry("wave-1024", 1024, 5e6),
                entry("wave-4096", 4096, 4e6),
            ],
            sweeps: Vec::new(),
            serve: Vec::new(),
        };
        assert_eq!(events_per_sec_for(&report, 200), Some(6e6));
        assert_eq!(events_per_sec_for(&report, 1024), Some(5e6));
        assert_eq!(events_per_sec_for(&report, 100_000), Some(4e6));
        // Equidistant between 256 and 1024: the larger scenario wins.
        assert_eq!(events_per_sec_for(&report, 640), Some(5e6));
        let empty = BenchReport {
            label: "none".to_string(),
            scenarios: Vec::new(),
            sweeps: Vec::new(),
            serve: Vec::new(),
        };
        assert_eq!(events_per_sec_for(&empty, 64), None);
    }

    #[test]
    fn latest_bench_file_picks_the_highest_generation() {
        let dir = std::env::temp_dir().join("bench-latest-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        for name in ["BENCH_0.json", "BENCH_2.json", "BENCH_10.json", "notes.md"] {
            std::fs::write(dir.join(name), b"{}").expect("write");
        }
        let latest = latest_bench_file(&dir).expect("bench files present");
        assert_eq!(latest.file_name().unwrap(), "BENCH_10.json");
        // The committed repository trajectory is discoverable the same way.
        let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .expect("workspace root");
        let committed = latest_bench_file(repo).expect("committed BENCH files");
        let report = validate(&std::fs::read_to_string(&committed).expect("readable"))
            .expect("committed bench file validates");
        assert!(events_per_sec_for(&report, 1024).is_some());
    }

    #[test]
    fn suite_covers_the_documented_scales() {
        let names: Vec<_> = scenarios(Scale::Quick).iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["wave-256", "wave-1024", "wave-4096", "wave-1024-faults"]
        );
        let ranks: Vec<_> = scenarios(Scale::Quick)
            .iter()
            .map(|s| s.cfg.ranks())
            .collect();
        assert_eq!(ranks, vec![256, 1024, 4096, 1024]);
    }

    #[test]
    fn report_round_trips_and_validates() {
        let report = tiny_report();
        let text = json::to_string(&report.to_json());
        let back = validate(&text).expect("own report validates");
        assert_eq!(back, report);
        assert!(render(&report).contains("wave-tiny"));
    }

    #[test]
    fn validate_rejects_tampered_reports() {
        let report = tiny_report();
        // Wrong schema name.
        let text = json::to_string(&report.to_json()).replace(SCHEMA, "other-bench");
        assert!(validate(&text).is_err());
        // Inconsistent events_per_sec.
        let mut broken = report.clone();
        broken.scenarios[0].events_per_sec *= 3.0;
        assert!(validate(&json::to_string(&broken.to_json())).is_err());
        // Future version.
        let text =
            json::to_string(&report.to_json()).replacen("\"version\":1", "\"version\":999", 1);
        assert!(validate(&text).is_err());
    }

    #[test]
    fn compare_flags_regressions_and_passes_speedups() {
        let report = tiny_report();
        let mut faster = report.clone();
        faster.scenarios[0].events_per_sec *= 2.0;
        let speedups = compare(&faster, &report, 0.30).expect("2x speedup is not a regression");
        assert!((speedups[0].1 - 2.0).abs() < 1e-9);
        let mut slower = report.clone();
        slower.scenarios[0].events_per_sec *= 0.5;
        assert!(compare(&slower, &report, 0.30).is_err());
        let mut renamed = report.clone();
        renamed.scenarios[0].name = "unrelated".to_string();
        assert!(compare(&renamed, &report, 0.30).is_err());
    }

    #[test]
    fn sweep_rows_obey_the_cold_warm_contract() {
        let rows = run_sweeps(Scale::Quick, 1, 0);
        assert_eq!(rows.len(), 2);
        let n = sweep_suite(Scale::Quick).len() as u64;
        let (cold, warm) = (&rows[0], &rows[1]);
        assert_eq!(cold.name, "sweep-cold");
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(warm.name, "sweep-warm");
        assert_eq!(warm.cache_hits, n);
        // run_sweeps itself asserts the merged bytes never changed; the
        // published rows must carry that shared digest.
        assert_eq!(cold.report_fnv, warm.report_fnv);
        assert!(cold.scenarios_per_sec > 0.0 && warm.scenarios_per_sec > 0.0);
    }

    #[test]
    fn serve_rows_obey_the_cold_warm_contract() {
        let rows = run_serves(Scale::Quick, 1, 0);
        assert_eq!(rows.len(), 2);
        let n = serve_suite(Scale::Quick).len() as u64;
        let (cold, warm) = (&rows[0], &rows[1]);
        assert_eq!(cold.name, "serve-cold");
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(warm.name, "serve-warm");
        assert_eq!(warm.cache_hits, n);
        // run_serves itself asserts the record bytes never changed and
        // that the warm rounds were all hits; the published rows must
        // carry that shared digest.
        assert_eq!(cold.result_fnv, warm.result_fnv);
        assert!(cold.requests_per_sec > 0.0 && warm.requests_per_sec > 0.0);
    }

    #[test]
    fn timed_runs_match_the_fingerprint_run() {
        // run_scenario itself asserts event-count equality between the
        // full-trace and summary-mode runs; exercise it end to end.
        let s = Scenario {
            name: "wave-check",
            cfg: faulty_wave_config(12, 3),
        };
        let r = run_scenario(&s, 2, 0);
        assert!(r.events > 0);
        assert!(r.events_per_sec > 0.0);
        assert_ne!(r.fingerprint, 0);
    }
}
