//! Protocol-eligibility and boundary checks (SC003, SC006, SC007), the
//! checkpoint-cadence feasibility check (SC017), the sweep retry-policy
//! feasibility check (SC025), the sweep cache pre-flight diagnostics
//! (SC026, SC027), and the `wavesim serve` admission diagnostics
//! (SC028, SC029).

use std::path::Path;
use std::time::Duration;

use mpisim::{Diagnostic, Mode, Protocol, SimConfig};
use simdes::{SimDuration, SimTime};
use workload::Boundary;

/// The message mode the engine will actually use for every send: the
/// protocol's size decision, downgraded to rendezvous when a finite eager
/// buffer is too small to ever hold one message (the guaranteed
/// footnote-1 fallback).
pub(crate) fn effective_mode(cfg: &SimConfig) -> Mode {
    match cfg.protocol.mode_for(cfg.msg_bytes) {
        Mode::Rendezvous => Mode::Rendezvous,
        Mode::Eager => match cfg.eager_buffer_bytes {
            Some(cap) if cap < cfg.msg_bytes => Mode::Rendezvous,
            _ => Mode::Eager,
        },
    }
}

pub(crate) fn protocol_checks(cfg: &SimConfig, out: &mut Vec<Diagnostic>) {
    if cfg.protocol == Protocol::Eager && cfg.msg_bytes > Protocol::PAPER_EAGER_LIMIT {
        out.push(Diagnostic::warning(
            "SC006",
            "protocol",
            "Eager",
            format!(
                "forced eager for {}-byte messages above the {}-byte eager \
                 threshold: a real MPI would switch to rendezvous here, so \
                 measured wave speeds will not transfer to hardware",
                cfg.msg_bytes,
                Protocol::PAPER_EAGER_LIMIT
            ),
        ));
    }
    if let Some(cap) = cfg.eager_buffer_bytes {
        if cfg.protocol.mode_for(cfg.msg_bytes) == Mode::Eager && cap < cfg.msg_bytes {
            out.push(Diagnostic::warning(
                "SC007",
                "eager_buffer_bytes",
                cap,
                format!(
                    "every {}-byte send overflows the {cap}-byte eager buffer \
                     and falls back to rendezvous (paper footnote 1); \
                     σ and the idle-wave speed change accordingly",
                    cfg.msg_bytes
                ),
            ));
        }
    }
    if cfg.schedule.is_none() && cfg.pattern.boundary == Boundary::Open {
        let n = cfg.ranks();
        let d = cfg.pattern.distance.min(n.saturating_sub(1));
        out.push(Diagnostic::note(
            "SC003",
            "pattern.boundary",
            "Open",
            format!(
                "open boundary: ranks 0..{d} and {}..{n} have clipped \
                 partner sets, so idle waves die at the chain ends \
                 (paper Fig. 5 a/c/e/g)",
                n - d
            ),
        ));
    }
}

/// SC017: a time-based checkpoint cadence that lies beyond the
/// deterministic sim-time watchdog budget can never fire — the watchdog
/// aborts the run first, so the scenario silently gets no crash
/// protection. The sweep runner calls this per scenario with its derived
/// [`mpisim::RunLimits`] budget; the `wavesim` CLI surfaces the warnings.
pub fn checkpoint_checks(interval: SimDuration, watchdog_budget: SimTime) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if interval.nanos() > watchdog_budget.0 {
        out.push(Diagnostic::warning(
            "SC017",
            "checkpoint_every",
            interval,
            format!(
                "checkpoint interval exceeds the sim-time watchdog budget \
                 (t = {watchdog_budget}): the watchdog aborts the run before \
                 the first checkpoint ever fires, so the scenario runs \
                 without crash protection"
            ),
        ));
    }
    out
}

/// SC025: a sweep retry policy that can never be exercised. The sweep
/// supervisor's worst case per scenario is `(retries + 1)` attempts, each
/// ending at the `wall_timeout` deadline; with `threads` worker threads
/// the suite's worst-case wall time is
/// `ceil(scenarios / threads) × (retries + 1) × wall_timeout`. When that
/// exceeds the sweep's declared total wall budget, the retry policy is
/// decorative — the budget expires before the configured retries could
/// ever run, so a flaky suite fails on wall time while appearing to have
/// retry protection.
pub fn sweep_policy_checks(
    scenarios: usize,
    threads: usize,
    retries: u32,
    wall_timeout: Duration,
    max_wall: Duration,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if scenarios == 0 || wall_timeout.is_zero() {
        return out;
    }
    let per_slot = scenarios.div_ceil(threads.max(1)) as u32;
    let worst = wall_timeout
        .saturating_mul(retries + 1)
        .saturating_mul(per_slot);
    if worst > max_wall {
        out.push(Diagnostic::warning(
            "SC025",
            "retries",
            retries,
            format!(
                "the retry policy can never be exercised: {scenarios} scenario(s) \
                 over {} slot(s) at {retries} retries x {:?} wall timeout add up \
                 to a {:?} worst case, beyond the {:?} sweep wall budget — raise \
                 the budget, lower the retries, or shorten the per-attempt timeout",
                threads.max(1),
                wall_timeout,
                worst,
                max_wall
            ),
        ));
    }
    out
}

/// SC026: the sweep's result-cache directory cannot be created or written.
/// The sweep degrades to uncached execution — correct but slower, and warm
/// reruns silently lose their speedup, so the condition is surfaced up
/// front rather than discovered from timing.
pub fn cache_dir_unwritable(dir: &Path, error: &str) -> Diagnostic {
    Diagnostic::warning(
        "SC026",
        "cache_dir",
        dir.display(),
        format!(
            "the result-cache directory is unusable ({error}): the sweep \
             runs uncached — every scenario re-simulates, warm reruns get \
             no speedup"
        ),
    )
}

/// SC027: a verified cache entry stores a *different* config behind this
/// scenario's fingerprint — an FNV collision, or an entry planted by a
/// buggy tool. The run-time lookup quarantines and re-simulates such
/// entries; this pre-flight warning names the scenario before any cycles
/// are spent, since a colliding fingerprint also means the scenario can
/// never be cached.
pub fn cache_fingerprint_collision(id: &str, fingerprint: u64) -> Diagnostic {
    Diagnostic::warning(
        "SC027",
        "config_fingerprint",
        format!("{fingerprint:#018x}"),
        format!(
            "scenario '{id}': the cache entry for this config fingerprint \
             verifies but stores a different config (FNV collision or \
             planted entry); the entry will be quarantined and the scenario \
             re-simulated every run — it cannot benefit from the cache"
        ),
    )
}

/// SC028: a `wavesim serve` submission failed admission control — the
/// analyzer found errors, or the static budget pass predicted a cost over
/// the service's admission ceiling. Emitted as the summary line of a
/// `rejected` reply, on top of the specific diagnostics that caused it,
/// so a client (or a log reader) sees *that* the request was refused
/// before any worker spent cycles on it and *why*.
pub fn serve_rejected(id: &str, reasons: usize) -> Diagnostic {
    Diagnostic::error(
        "SC028",
        "scenario",
        id,
        format!(
            "submission '{id}' rejected by admission control ({reasons} \
             diagnostic(s)): the scenario never reached the job queue and \
             cost no worker time — fix the config (or raise the service's \
             admission budget) and resubmit"
        ),
    )
}

/// SC029: the `wavesim serve` job queue is full and the submission was
/// load-shed. The service prefers an explicit, immediate `overloaded`
/// reply over unbounded queue growth; the hint tells a well-behaved
/// client how long to back off before retrying.
pub fn serve_overloaded(queued: usize, capacity: usize, retry_after: Duration) -> Diagnostic {
    Diagnostic::warning(
        "SC029",
        "queue",
        format!("{queued}/{capacity}"),
        format!(
            "job queue at capacity ({queued} of {capacity} slots): the \
             submission was shed, not queued — retry after {retry_after:?} \
             (with jitter) or spread the load across more service instances"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::presets;
    use workload::{CommPattern, Direction};

    fn base() -> SimConfig {
        SimConfig::baseline(
            presets::loggopsim_like(8),
            CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Periodic),
            5,
        )
    }

    #[test]
    fn forced_eager_above_threshold_warns() {
        let mut c = base();
        c.protocol = Protocol::Eager;
        c.msg_bytes = 1 << 20;
        let mut out = Vec::new();
        protocol_checks(&c, &mut out);
        assert!(out.iter().any(|d| d.code == "SC006"));
        // Auto protocol at the same size picks rendezvous by itself: clean.
        c.protocol = Protocol::Auto {
            eager_limit: Protocol::PAPER_EAGER_LIMIT,
        };
        out.clear();
        protocol_checks(&c, &mut out);
        assert!(out.iter().all(|d| d.code != "SC006"));
    }

    #[test]
    fn undersized_eager_buffer_warns_and_downgrades_the_mode() {
        let mut c = base();
        c.eager_buffer_bytes = Some(100);
        let mut out = Vec::new();
        protocol_checks(&c, &mut out);
        assert!(out.iter().any(|d| d.code == "SC007"));
        assert_eq!(effective_mode(&c), Mode::Rendezvous);
        // A buffer that fits one message is fine.
        c.eager_buffer_bytes = Some(c.msg_bytes);
        out.clear();
        protocol_checks(&c, &mut out);
        assert!(out.iter().all(|d| d.code != "SC007"));
        assert_eq!(effective_mode(&c), Mode::Eager);
    }

    #[test]
    fn open_boundary_gets_a_clipping_note() {
        let mut c = base();
        c.pattern.boundary = Boundary::Open;
        let mut out = Vec::new();
        protocol_checks(&c, &mut out);
        let note = out.iter().find(|d| d.code == "SC003").expect("SC003 note");
        assert_eq!(note.severity, mpisim::Severity::Note);
        assert!(note.message.contains("die at the chain ends"));
    }

    #[test]
    fn checkpoint_interval_past_the_watchdog_warns_sc017() {
        let out = checkpoint_checks(SimDuration::from_millis(100), SimTime(1_000_000));
        let w = out.iter().find(|d| d.code == "SC017").expect("SC017");
        assert_eq!(w.severity, mpisim::Severity::Warning);
        assert!(w.message.contains("watchdog"), "{w}");
    }

    #[test]
    fn infeasible_retry_policy_warns_sc025() {
        // 100 scenarios over 4 slots, 2 retries at 30 s each: worst case
        // 25 x 3 x 30 s = 2250 s against a 600 s budget.
        let out = sweep_policy_checks(100, 4, 2, Duration::from_secs(30), Duration::from_secs(600));
        let w = out.iter().find(|d| d.code == "SC025").expect("SC025");
        assert_eq!(w.severity, mpisim::Severity::Warning);
        assert!(w.message.contains("never be exercised"), "{w}");
        // A generous budget is silent.
        assert!(sweep_policy_checks(
            100,
            4,
            2,
            Duration::from_secs(30),
            Duration::from_secs(3000)
        )
        .is_empty());
        // Degenerate inputs never warn (or divide by zero).
        assert!(sweep_policy_checks(0, 4, 2, Duration::from_secs(30), Duration::ZERO).is_empty());
        assert!(sweep_policy_checks(10, 0, 2, Duration::ZERO, Duration::ZERO).is_empty());
    }

    #[test]
    fn cache_diagnostics_carry_their_codes_and_context() {
        let d = cache_dir_unwritable(Path::new("/tmp/cache"), "permission denied");
        assert_eq!(d.code, "SC026");
        assert_eq!(d.severity, mpisim::Severity::Warning);
        assert!(d.message.contains("permission denied"), "{d}");
        assert!(d.message.contains("uncached"), "{d}");

        let d = cache_fingerprint_collision("chain-12", 0xdead_beef);
        assert_eq!(d.code, "SC027");
        assert_eq!(d.severity, mpisim::Severity::Warning);
        assert!(d.message.contains("chain-12"), "{d}");
        assert!(d.message.contains("quarantined"), "{d}");
    }

    #[test]
    fn serve_diagnostics_carry_their_codes_and_hints() {
        let d = serve_rejected("chain-12", 2);
        assert_eq!(d.code, "SC028");
        assert_eq!(d.severity, mpisim::Severity::Error);
        assert!(d.message.contains("chain-12"), "{d}");
        assert!(d.message.contains("admission"), "{d}");

        let d = serve_overloaded(64, 64, Duration::from_millis(250));
        assert_eq!(d.code, "SC029");
        assert_eq!(d.severity, mpisim::Severity::Warning);
        assert!(d.message.contains("shed"), "{d}");
        assert!(d.message.contains("retry after"), "{d}");
        assert!(d.value.contains("64/64"), "{d}");
    }

    #[test]
    fn checkpoint_interval_inside_the_watchdog_is_silent() {
        assert!(checkpoint_checks(SimDuration::from_micros(10), SimTime(1_000_000)).is_empty());
        // Equal to the budget still fires once the clock *reaches* it.
        assert!(
            checkpoint_checks(SimDuration::from_nanos(1_000_000), SimTime(1_000_000)).is_empty()
        );
    }
}
