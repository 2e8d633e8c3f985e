//! The sweep workloads: cold `idlewave::sweep::run_sweep` calls over a
//! seeded suite, repeated for the run's duration.

use std::path::Path;
use std::time::{Duration, Instant};

use idlewave::sweep::{run_sweep, Scenario, SweepOptions, SweepReport};
use mpisim::EnginePools;
use tracefmt::{fnv1a_64, json};

use crate::gen::{self, SweepSize};
use crate::layers;
use crate::measure::{mean, median, ms, peak_rss_mib, quantile, Spans};
use crate::report::Outcome;
use crate::{Params, Run, WORKERS};

/// A sweep ready to run: the suite and the options and paths of one
/// cold `run_sweep` call.
struct Sweep {
    suite: Vec<Scenario>,
    opts: SweepOptions,
    out: std::path::PathBuf,
    cache: std::path::PathBuf,
}

/// Set-up, as `wavesim sweep --scenarios <file>` starts: build the
/// inputs and check their property, write them to a scenarios file,
/// create the sweep's directory and load the file back.
fn set_up(p: &Params, size: SweepSize, dir: &Path) -> Result<Sweep, String> {
    let generated = gen::sweep_suite(p.workload, p.seed, size);
    gen::check_sweep_property(p.workload, &generated)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let file = dir.join("scenarios.json");
    std::fs::write(&file, json::to_string(&generated))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    let suite: Vec<Scenario> =
        json::from_str(&text).map_err(|e| format!("bad scenarios file: {}", e.0))?;
    if suite != generated {
        return Err("the scenarios file did not round-trip".to_string());
    }
    let cache = dir.join("cache");
    Ok(Sweep {
        opts: SweepOptions {
            threads: WORKERS,
            shards: Some(WORKERS),
            cache_dir: Some(cache.clone()),
            ..SweepOptions::default()
        },
        out: dir.join("sweep.jsonl"),
        cache,
        suite,
    })
}

fn remove_if_present(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// One cold sweep: the cache is emptied first (outside the timed call).
/// Returns the call's start and wall time, its report and the FNV-1a of
/// the merged report bytes.
fn cold_round(s: &Sweep) -> Result<(Instant, Duration, SweepReport, u64), String> {
    remove_if_present(&s.cache)?;
    let t = Instant::now(); // simlint: allow(wall-clock)
    let report = run_sweep(&s.suite, &s.opts, &s.out).map_err(|e| format!("run_sweep: {e}"))?;
    let wall = t.elapsed();
    let bytes = std::fs::read(&s.out).map_err(|e| format!("reading the merged report: {e}"))?;
    if !report.all_ok() || report.cache_misses != s.suite.len() || report.cache_hits != 0 {
        let bad: Vec<_> = report.results.iter().filter(|r| !r.is_ok()).collect();
        return Err(format!(
            "cold sweep: {} failed record(s) {bad:?}, {} hits, {} misses",
            bad.len(),
            report.cache_hits,
            report.cache_misses
        ));
    }
    Ok((t, wall, report, fnv1a_64(&bytes)))
}

/// Correctness gate shared by both modes: every round produced the same
/// merged report, and a seeded sample of records carries the trace
/// fingerprint and event count of a direct full-trace `mpisim` run.
fn check(p: &Params, s: &Sweep, report: &SweepReport, fnvs: &[u64]) -> Result<(), String> {
    if fnvs.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!(
            "merged report FNV changed between rounds: {fnvs:?}"
        ));
    }
    let n = s.suite.len();
    for k in 0..n.min(2) {
        let i = (p.seed as usize + k * (n / 2).max(1)) % n;
        let record = &report.results[i];
        let summary = record
            .summary
            .as_ref()
            .ok_or_else(|| format!("'{}': ok record without summary", record.id))?;
        let (fingerprint, events) = layers::reference_run(&s.suite[i].config)?;
        if (summary.trace_fingerprint, summary.events) != (fingerprint, events) {
            return Err(format!(
                "'{}': sweep record has fingerprint {:#x} / {} events, a direct run {:#x} / {}",
                record.id, summary.trace_fingerprint, summary.events, fingerprint, events
            ));
        }
    }
    Ok(())
}

/// Run a sweep workload for `p.seconds`. A traced run does the same and
/// then its trace work, timed as [`Run::trace_work`].
pub fn run(p: &Params, size: SweepSize, work: &Path) -> Result<Run, String> {
    let timed_setup = |dir: &Path| -> Result<(Sweep, f64), String> {
        remove_if_present(dir)?;
        let t = Instant::now(); // simlint: allow(wall-clock)
        let s = set_up(p, size, dir)?;
        Ok((s, t.elapsed().as_secs_f64()))
    };
    let (s, first) = timed_setup(&work.join("sweep"))?;
    let mut setup = vec![first];
    // simlint: allow(wall-clock)
    let mut spans = Spans::new(Instant::now());
    // One untimed round first: page in the code and grow the allocator.
    let (_, _, _, first_fnv) = cold_round(&s)?;
    let mut fnvs = vec![first_fnv];
    let mut rounds = Vec::new();
    let mut last = None;
    // simlint: allow(wall-clock)
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    // simlint: allow(wall-clock)
    while Instant::now() < deadline || rounds.is_empty() {
        // Set-up is repeated beside every round rather than only at
        // start, so its median spans the same machine states as the
        // rounds do.
        let (again, t) = timed_setup(&work.join("setup"))?;
        if again.suite != s.suite {
            return Err("set-up is not deterministic".to_string());
        }
        setup.push(t);
        let (start, wall, report, fnv) = cold_round(&s)?;
        rounds.push((start, wall));
        fnvs.push(fnv);
        last = Some(report);
    }
    let report = last.expect("at least one round");
    let walls: Vec<f64> = rounds.iter().map(|&(_, wall)| ms(wall)).collect();
    let mut out = Outcome {
        attempted: (fnvs.len() * s.suite.len()) as u64,
        ..Outcome::default()
    };
    let batch = s.suite.len() as f64;
    out.set("setup_s", median(&setup));
    // Throughput over the summed wall time, not the median round: the
    // container's speed drifts between regimes over seconds, and the
    // mean tracks the mixture smoothly where a median jumps between
    // modes.
    out.set("scenarios_per_s", batch / (mean(&walls) / 1e3));
    out.set("latency_p50_ms", median(&walls));
    out.set("latency_p99_ms", quantile(&walls, 0.99));
    out.set("peak_rss_mib", peak_rss_mib()?);
    let trace_start = Instant::now(); // simlint: allow(wall-clock)
    if p.trace {
        for (i, &(start, wall)) in rounds.iter().enumerate() {
            spans.push(
                "sweep.run_sweep",
                start,
                start + wall,
                None,
                &format!("round-{i}"),
            );
        }
        let mut pools = EnginePools::new();
        let mut counts = layers::Counts::default();
        for (scenario, record) in s.suite.iter().zip(&report.results) {
            let fingerprint = layers::probe(&mut spans, scenario, &mut pools, &mut counts)?;
            let want = record.summary.as_ref().map(|r| r.trace_fingerprint);
            if want != Some(fingerprint) {
                return Err(format!(
                    "'{}': limited-path fingerprint {fingerprint:#x}, sweep record {want:?}",
                    scenario.id
                ));
            }
        }
        layers::report(&spans, &counts, &pools, &mut out);
        let worker_ms = mean(&walls) * WORKERS as f64;
        out.set(
            "sweep.overhead_ms_per_scenario",
            (worker_ms - layers::scenario_layer_ns(&spans) / 1e6) / batch,
        );
        let attempts: u32 = report.results.iter().map(|r| r.attempts).sum();
        out.set("sweep.attempts_per_scenario", f64::from(attempts) / batch);
        out.set("sweep.cache_hits", report.cache_hits as f64);
        out.set("sweep.cache_misses", report.cache_misses as f64);
        out.set("sweep.rounds", walls.len() as f64);
    }
    let trace_work = trace_start.elapsed();
    check(p, &s, &report, &fnvs)?;
    eprintln!(
        "perfbench {}: {} rounds of {} scenarios, round p50 {:.2} ms, merged-report fnv {}",
        p.workload.name(),
        walls.len(),
        s.suite.len(),
        median(&walls),
        fnvs[0]
    );
    Ok(Run {
        outcome: out,
        pin: fnvs[0],
        pin_count: s.suite.len(),
        spans,
        trace_work,
    })
}
