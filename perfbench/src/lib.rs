//! End-to-end and per-layer benchmark of the paths users run:
//! `idlewave::sweep::run_sweep` and `idlewave::serve::run_serve` driven
//! over TCP. See `README.md` for the workloads and the metrics.

pub mod gen;
pub mod layers;
pub mod measure;
pub mod report;
pub mod serve;
pub mod sweep;

use std::path::Path;
use std::time::{Duration, Instant};

use gen::{SweepSize, Workload};
use measure::Spans;
use report::Outcome;

/// Sweep fabric workers and serve worker threads: the container has two
/// cores, so the numbers measure the program, not the scheduler.
pub const WORKERS: usize = 2;

/// Set-ups per serve run (each starts and stops a server); `setup_s` is
/// their median. Sweep runs repeat their set-up beside every round.
pub const SERVE_SETUPS: usize = 5;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: the same seed builds the same inputs.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub small: bool,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Run {
    /// The metrics and operation counts.
    pub outcome: Outcome,
    /// FNV-1a of the workload's output, checked against `pins.txt`.
    pub pin: u64,
    /// Operations behind [`Run::pin`].
    pub pin_count: usize,
    /// Spans of the traced run (empty otherwise).
    pub spans: Spans,
    /// Wall time of the traced run's own work after the measured work:
    /// the probes and the span bookkeeping.
    pub trace_work: Duration,
}

const PINS: &str = include_str!("../pins.txt");

/// The pinned output FNV for a full-size run, if `pins.txt` has one.
pub fn pinned(workload: Workload, seed: u64, count: usize) -> Option<u64> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| {
            f.len() == 4
                && f[0] == workload.name()
                && f[1] == seed.to_string()
                && f[2] == count.to_string()
        })
        .and_then(|f| f[3].parse().ok())
}

/// Run one workload, keeping its scratch files under `root` and removing
/// them afterwards. A traced run writes its spans to
/// `root/spans-<workload>-<seed>.jsonl`.
///
/// A traced run does the untraced run's work unchanged and its trace work
/// after it, so `trace.overhead_pct` — that trace work, span writing
/// included, as a share of the rest of the run's wall time — is how much
/// longer it takes than an untraced run of the same seed.
pub fn run(p: &Params, root: &Path) -> Result<Run, String> {
    let started = Instant::now(); // simlint: allow(wall-clock)
    let work = root.join(format!("work-{}-{}", p.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = match p.workload {
        Workload::ServeMixed => serve::run(p, &work),
        _ => {
            let size = if p.small {
                SweepSize::small()
            } else {
                SweepSize::full()
            };
            sweep::run(p, size, &work)
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut run = result?;
    eprintln!(
        "pin: {} {} {} {}",
        p.workload.name(),
        p.seed,
        run.pin_count,
        run.pin
    );
    if !p.small {
        if let Some(want) = pinned(p.workload, p.seed, run.pin_count) {
            if want != run.pin {
                return Err(format!(
                    "output FNV {} differs from the pinned {want}",
                    run.pin
                ));
            }
        }
    }
    if p.trace {
        let write_start = Instant::now(); // simlint: allow(wall-clock)
        let path = root.join(format!("spans-{}-{}.jsonl", p.workload.name(), p.seed));
        run.spans
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        for (name, n, ns) in run.spans.self_totals() {
            eprintln!(
                "self time {name:<28} {n:>6} spans {:>12.3} ms",
                ns as f64 / 1e6
            );
        }
        let traced = run.trace_work + write_start.elapsed();
        let untraced = started.elapsed().saturating_sub(traced);
        let o = &mut run.outcome;
        o.set("error_rate", o.failed as f64 / o.attempted.max(1) as f64);
        o.set(
            "trace.overhead_pct",
            traced.as_secs_f64() / untraced.as_secs_f64() * 100.0,
        );
    }
    Ok(run)
}
