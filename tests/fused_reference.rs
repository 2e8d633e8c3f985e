//! Fused fast-path property suite: the correctness contract for the
//! handler-level fast path is that a plain run — which takes the fused
//! cascade whenever [`fused_path_eligible`] holds — is **bit-identical**
//! to every other way of producing the same scenario:
//!
//! * the general event loop (forced by a checkpoint cadence that never
//!   fires: a budget no longer does, since limited runs fuse and check
//!   their limits afterwards),
//! * a limited run, whose limits are checked on the fused result and
//!   which replays through the general loop only when one trips — so a
//!   tripped limit reports exactly the general loop's error,
//! * a checkpointed run resumed from any cut point (checkpointed and
//!   restored engines always replay through the general loop, so every
//!   cut is also a fused-vs-general cross-check),
//! * the streaming summary fold of either path,
//! * any of these under a wall-clock deadline that does not pass, and
//! * the independent max-plus reference recurrence, on the closed-form
//!   domain [`reference::supports`] describes.
//!
//! The configs are drawn from a family that crosses protocols (eager,
//! rendezvous, default), directions, boundaries, injections (none, one
//! short delay, one longer than the whole run), noise, imbalance, and
//! message-fault plans, so both fused-eligible and ineligible configs
//! are exercised and the eligibility predicate itself is property-tested
//! against the engine's behaviour (`peak_queue == 0` iff fused).

use std::time::Duration;

use idle_waves::mpisim::{
    fused_path_eligible, reference, CheckpointPolicy, Deadline, Engine, FaultPlan, RunLimits,
    RunStats, RunSummary, SimError, Snapshot,
};
use idle_waves::prelude::*;

const MS: SimDuration = SimDuration::from_millis(1);

/// A stochastic config family straddling the fused-eligibility boundary:
/// protocol × direction × boundary × injection × noise × imbalance ×
/// faults.
fn random_config(g: &mut Gen) -> SimConfig {
    let ranks = g.u32(4, 10);
    let steps = g.u32(3, 7);
    let mut e = WaveExperiment::flat_chain(ranks)
        .direction(if g.bool() {
            Direction::Unidirectional
        } else {
            Direction::Bidirectional
        })
        .boundary(if g.bool() {
            Boundary::Open
        } else {
            Boundary::Periodic
        })
        .texec(MS)
        .steps(steps)
        .seed(g.any_u64());
    e = match g.u32(0, 2) {
        0 => e.eager(),
        1 => e.rendezvous(),
        _ => e, // default protocol: mode decided by message size
    };
    e = match g.u32(0, 2) {
        0 => e,
        1 => e.inject(g.u32(0, ranks - 1), g.u32(0, steps - 1), MS.times(5)),
        // Longer than the whole run: every undelayed rank leads the
        // delayed one at every step, so ranks that do not wait on it run
        // steps ahead of it.
        _ => e.inject(g.u32(0, ranks - 1), 0, MS.times(u64::from(steps) + 2)),
    };
    if g.bool() {
        e = e.noise(DelayDistribution::Exponential {
            mean: SimDuration::from_micros(g.u64(10, 300)),
        });
    }
    let mut cfg = e.into_config();
    if g.bool() {
        cfg.imbalance = (0..ranks).map(|r| 1.0 + 0.01 * f64::from(r % 4)).collect();
    }
    if g.bool() {
        cfg.faults = FaultPlan::none().with_drops(g.f64(0.05, 0.3), SimDuration::from_micros(100));
    }
    cfg
}

/// A checkpoint cadence that never comes due: an active policy keeps the
/// run off the fused cascade and the plain loop without perturbing it.
const NEVER: CheckpointPolicy = CheckpointPolicy {
    every_sim_time: None,
    every_events: Some(u64::MAX),
};

/// Run the scenario through the general event loop under `limits`.
fn general_limited(cfg: &SimConfig, limits: &RunLimits) -> Result<(Trace, RunStats), SimError> {
    Engine::new(cfg.clone()).try_run_checkpointed(limits, &NEVER, |_| {})
}

/// A fresh engine for `cfg`, stopped at `deadline` when one is given.
fn engine(cfg: &SimConfig, deadline: Option<Deadline>) -> Engine {
    let e = Engine::new(cfg.clone());
    match deadline {
        Some(d) => e.with_deadline(d),
        None => e,
    }
}

/// A deadline no test run gets near.
fn far_deadline() -> Deadline {
    Deadline::after(Duration::from_secs(3600))
}

/// Run the scenario through the general event loop.
fn general_run(cfg: &SimConfig) -> (Trace, RunStats) {
    general_limited(cfg, &RunLimits::none()).expect("general run completes")
}

#[test]
fn plain_runs_match_the_general_event_loop_bitwise() {
    for_all("fused path is bit-identical to the event loop", 60, |g| {
        let cfg = random_config(g);
        let fused = fused_path_eligible(&cfg);
        let (plain, plain_stats) = Engine::new(cfg.clone())
            .try_run_with_stats(&RunLimits::none())
            .expect("plain run completes");
        let (general, general_stats) = general_run(&cfg);

        assert_eq!(plain.fingerprint(), general.fingerprint(), "{cfg:?}");
        assert_eq!(plain, general, "trace diverged between paths");

        // Every statistic except queue occupancy is path-independent; a
        // fused run never touches the calendar, so its peak is zero, and
        // that is exactly when the eligibility predicate says so.
        let mut normalized = general_stats;
        normalized.peak_queue = plain_stats.peak_queue;
        assert_eq!(plain_stats, normalized, "stats diverged between paths");
        assert_eq!(
            plain_stats.peak_queue == 0,
            fused,
            "peak_queue must be zero iff the run fused (eligible = {fused})"
        );
        assert!(general_stats.peak_queue > 0, "the event loop queues");
    });
}

#[test]
fn limited_runs_match_the_general_loop_at_every_trip_boundary() {
    for_all("limits are checked on the fused run", 40, |g| {
        let cfg = random_config(g);
        let fused = fused_path_eligible(&cfg);
        let (trace, stats) = general_run(&cfg);
        let runtime = trace.total_runtime();
        let times = [Some(SimTime(runtime.0 - 1)), Some(runtime), None];
        let counts = [Some(stats.events - 1), Some(stats.events), None];
        for (max_sim_time, max_events, deadline) in times
            .into_iter()
            .flat_map(|t| counts.map(|n| (t, n)))
            .flat_map(|(t, n)| [(t, n, None), (t, n, Some(far_deadline()))])
        {
            let limits = RunLimits {
                max_sim_time,
                max_events,
            };
            let want = general_limited(&cfg, &limits);
            let got = engine(&cfg, deadline).try_run_with_stats(&limits);
            let summary = engine(&cfg, deadline).try_run_summary(&limits);
            let checkpointed = engine(&cfg, deadline).try_run_checkpointed(&limits, &NEVER, |_| {});
            assert_eq!(checkpointed, want, "checkpointed run under {deadline:?}");
            match (&got, &want) {
                (Ok((t, s)), Ok((wt, ws))) => {
                    assert_eq!(t, wt, "trace diverged under {limits:?}");
                    let mut normalized = *ws;
                    normalized.peak_queue = s.peak_queue;
                    assert_eq!(*s, normalized, "stats diverged under {limits:?}");
                    assert!(
                        !fused || s.peak_queue == 0,
                        "a non-binding limited run of an eligible config must fuse"
                    );
                    let (sum, _) = summary.expect("summary run completes too");
                    assert_eq!(sum, RunSummary::of_trace(wt), "summary under {limits:?}");
                }
                (Err(e), Err(we)) => {
                    assert_eq!(e, we, "error diverged under {limits:?}");
                    assert_eq!(e.to_string(), we.to_string());
                    assert_eq!(summary.expect_err("summary run trips too"), *we);
                }
                _ => panic!("outcome diverged under {limits:?}: {got:?} vs {want:?}"),
            }
            if fused {
                // Eligible runs trip exactly at the last event's time
                // and the semantic event count.
                let binding = max_sim_time == Some(SimTime(runtime.0 - 1))
                    || max_events == Some(stats.events - 1);
                assert_eq!(want.is_err(), binding, "trip boundary under {limits:?}");
            }
        }
    });
}

#[test]
fn summary_folds_agree_across_paths_and_trace_modes() {
    for_all("summary digest is path-independent", 40, |g| {
        let cfg = random_config(g);
        let (fused_sum, _) = Engine::new(cfg.clone())
            .try_run_summary(&RunLimits::none())
            .expect("plain summary run completes");
        // A non-binding budget: fused and checked afterwards when the
        // config is eligible, the limited event loop otherwise.
        let (limited_sum, _) = Engine::new(cfg.clone())
            .try_run_summary(&RunLimits::events(100_000_000))
            .expect("limited summary run completes");
        let (full, _) = general_run(&cfg);

        assert_eq!(fused_sum, limited_sum, "summary diverged between paths");
        assert_eq!(
            fused_sum,
            RunSummary::of_trace(&full),
            "summary fold must equal the fold over the retained trace"
        );
    });
}

#[test]
fn checkpoint_cuts_replay_to_the_fused_result() {
    for_all("any cut resumes to the fused trace", 40, |g| {
        let cfg = random_config(g);
        // Cut anywhere, including mid-step: the checkpointed run and the
        // resumed remainder both use the general loop, and both must land
        // on the same bits as the (possibly fused) plain run.
        let cut = g.u64(1, 80);
        let policy = CheckpointPolicy {
            every_sim_time: None,
            every_events: Some(cut),
        };
        let mut first: Option<Snapshot> = None;
        let (checkpointed, _) = Engine::new(cfg.clone())
            .try_run_checkpointed(&RunLimits::none(), &policy, |s| {
                if first.is_none() {
                    first = Some(s.clone());
                }
            })
            .expect("checkpointed run completes");
        let plain = Engine::new(cfg.clone()).run();
        assert_eq!(plain, checkpointed, "checkpoint cadence changed the run");

        let Some(snap) = first else {
            return; // run delivered fewer than `cut` events
        };
        let decoded = Snapshot::decode(snap.encode().as_bytes()).expect("own encoding decodes");
        let resumed = Engine::restore(cfg.clone(), &decoded)
            .expect("valid snapshot")
            .run();
        let (under_deadline, _) = Engine::restore(cfg, &decoded)
            .expect("valid snapshot")
            .with_deadline(far_deadline())
            .try_run_with_stats(&RunLimits::none())
            .expect("a far deadline never passes");
        assert_eq!(
            under_deadline, resumed,
            "a deadline changed the resumed run"
        );
        assert_eq!(
            resumed.fingerprint(),
            plain.fingerprint(),
            "fingerprint diverged after resuming at cut {cut}"
        );
        assert_eq!(resumed, plain, "trace diverged after resuming at cut {cut}");
    });
}

/// A deadline that has already passed stops every path at its first
/// check, with no replay: the fused kernel before step 0, and each of the
/// event loop's protocol × trace-mode specializations at its first event.
#[test]
fn a_passed_deadline_stops_every_path_at_its_first_check() {
    let base = || {
        WaveExperiment::flat_chain(8)
            .texec(MS)
            .steps(4)
            .inject(2, 1, MS.times(3))
    };
    let eager = base().eager().into_config();
    let mut lossy = eager.clone();
    lossy.faults = FaultPlan::none().with_drops(0.1, SimDuration::from_micros(100));
    let mut bounded = eager.clone();
    bounded.eager_buffer_bytes = Some(1 << 20);
    let rdvz = base().rendezvous().into_config();
    assert!(fused_path_eligible(&eager));
    for cfg in [&lossy, &bounded, &rdvz] {
        assert!(!fused_path_eligible(cfg), "{cfg:?}");
    }
    let want = SimError::DeadlinePassed { events: 0 };
    let passed = || Some(Deadline::after(Duration::ZERO));
    for cfg in [&eager, &lossy, &bounded, &rdvz] {
        let full = engine(cfg, passed()).try_run_with_stats(&RunLimits::none());
        let summary = engine(cfg, passed()).try_run_summary(&RunLimits::none());
        let general =
            engine(cfg, passed()).try_run_checkpointed(&RunLimits::none(), &NEVER, |_| {});
        assert_eq!(full.expect_err("full run stops"), want, "{cfg:?}");
        assert_eq!(summary.expect_err("summary run stops"), want, "{cfg:?}");
        assert_eq!(general.expect_err("event loop stops"), want, "{cfg:?}");
    }
}

#[test]
fn closed_form_domain_matches_the_reference_recurrence() {
    let hits = std::cell::Cell::new(0u32);
    for_all("engine equals the max-plus recurrence", 60, |g| {
        let cfg = random_config(g);
        if !reference::supports(&cfg) {
            return;
        }
        hits.set(hits.get() + 1);
        let trace = idle_waves::mpisim::run(&cfg);
        assert_eq!(
            trace,
            reference::reference_trace(&cfg),
            "engine and recurrence disagree on {cfg:?}"
        );
    });
    assert!(
        hits.get() >= 10,
        "config family barely exercises the closed-form domain ({} hits)",
        hits.get()
    );
}
