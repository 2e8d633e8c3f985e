//! Direct calls into each layer's public functions, one scenario at a
//! time, for the traced run's per-layer numbers and for the correctness
//! gate's reference runs. Nothing here is instrumented inside the
//! program: every span wraps a call the benchmark itself makes.

use idlewave::serve::protocol::{parse_request, Request};
use idlewave::sweep::Scenario;
use mpisim::{
    try_run_summary_pooled, try_run_with_stats_pooled, Engine, EnginePools, RunLimits, SimConfig,
};
use simdes::{SimDuration, SimTime};
use tracefmt::json;
use tracefmt::PhaseRecord;

use crate::measure::{median, Spans};
use crate::report::Outcome;

/// The sim-time watchdog the sweep supervisor puts on every attempt:
/// the budget analyzer's predicted runtime plus worst-case fault backoff
/// and a second helping of mean noise, times the default watchdog
/// factor (64), plus 1 ms. Any limit takes the run off the fused path,
/// which is what `mpisim.run_ns_per_event` measures.
pub fn supervisor_limits(cfg: &SimConfig) -> RunLimits {
    let steps = u64::from(cfg.steps.max(1));
    let mut nominal = simcheck::budget::budget(cfg).sim_time_predicted;
    if let Some(m) = cfg.faults.messages {
        nominal += m.max_extra_delay().times(steps);
    }
    nominal += cfg.noise.mean().times(steps);
    let budget = nominal.mul_f64(64.0) + SimDuration::from_millis(1);
    RunLimits {
        max_sim_time: Some(SimTime(budget.nanos())),
        max_events: None,
    }
}

/// Trace fingerprint and event count of a direct, unlimited full-trace
/// run — the reference a sweep or serve record must match.
pub fn reference_run(cfg: &SimConfig) -> Result<(u64, u64), String> {
    let (trace, stats) = Engine::try_new(cfg.clone())
        .and_then(|e| e.try_run_with_stats(&RunLimits::none()))
        .map_err(|e| format!("reference run: {e}"))?;
    Ok((trace.fingerprint(), stats.events))
}

/// Counts gathered beside the probe spans.
#[derive(Debug, Default)]
pub struct Counts {
    runs: u64,
    events: u64,
    fused_events: u64,
    fused_runs: u64,
    peak_queue: u64,
    trace_bytes: u64,
}

/// Probe one scenario under a `probe` span: encode and parse its submit
/// line, analyze and budget its config, construct an engine, run it on
/// the supervisor's limited path, fingerprint the trace, and run it
/// again through the fused summary path with no limits. Returns the
/// trace fingerprint of the limited run.
pub fn probe(
    spans: &mut Spans,
    s: &Scenario,
    pools: &mut EnginePools,
    counts: &mut Counts,
) -> Result<u64, String> {
    let root = spans.open("probe", None, &s.id);
    let p = Some(root);
    let cfg = &s.config;
    let line = spans.time("tracefmt.json_encode", p, &s.id, || {
        json::to_string(&Request::Submit(Box::new(s.clone())))
    });
    let parsed = spans.time("tracefmt.json_parse", p, &s.id, || parse_request(&line))?;
    if parsed != Request::Submit(Box::new(s.clone())) {
        return Err(format!("'{}': submit line did not round-trip", s.id));
    }
    std::hint::black_box(spans.time("simcheck.analyze", p, &s.id, || simcheck::analyze(cfg)));
    let limits = spans.time("simcheck.budget", p, &s.id, || supervisor_limits(cfg));
    let engine = spans.time("mpisim.construct", p, &s.id, || {
        Engine::try_new_pooled(cfg.clone(), pools)
    });
    engine
        .map_err(|e| format!("'{}': construct: {e}", s.id))?
        .recycle(pools);
    let (trace, stats) = spans
        .time("mpisim.run", p, &s.id, || {
            try_run_with_stats_pooled(cfg, &limits, pools)
        })
        .map_err(|e| format!("'{}': limited run: {e}", s.id))?;
    let fingerprint = spans.time("tracefmt.fingerprint", p, &s.id, || trace.fingerprint());
    let (_, fused) = spans
        .time("mpisim.fused", p, &s.id, || {
            try_run_summary_pooled(cfg, &RunLimits::none(), pools)
        })
        .map_err(|e| format!("'{}': fused run: {e}", s.id))?;
    spans.close(root);
    if fused.events != stats.events {
        return Err(format!(
            "'{}': fused path delivered {} events, the limited path {}",
            s.id, fused.events, stats.events
        ));
    }
    counts.runs += 1;
    counts.events += stats.events;
    counts.fused_events += fused.events;
    counts.fused_runs += u64::from(stats.peak_queue == 0);
    counts.peak_queue += stats.peak_queue as u64;
    counts.trace_bytes += u64::from(trace.ranks())
        * u64::from(trace.steps())
        * std::mem::size_of::<PhaseRecord>() as u64;
    Ok(fingerprint)
}

/// Summed self time, in nanoseconds, of the per-scenario work a sweep
/// attempt repeats: config encode, analysis, budget, the limited run
/// (construction included) and the fingerprint.
pub fn scenario_layer_ns(spans: &Spans) -> f64 {
    [
        "tracefmt.json_encode",
        "simcheck.analyze",
        "simcheck.budget",
        "mpisim.run",
        "tracefmt.fingerprint",
    ]
    .iter()
    .map(|n| spans.self_of(n).iter().sum::<f64>())
    .sum()
}

/// Fill the per-layer metrics the probes measure.
pub fn report(spans: &Spans, counts: &Counts, pools: &EnginePools, out: &mut Outcome) {
    let us = |name: &str| median(&spans.self_of(name)) / 1e3;
    let total = |name: &str| spans.self_of(name).iter().sum::<f64>();
    let runs = counts.runs.max(1) as f64;
    let run_ns = total("mpisim.run") - total("mpisim.construct");
    out.set(
        "mpisim.run_ns_per_event",
        run_ns / counts.events.max(1) as f64,
    );
    out.set(
        "mpisim.fused_ns_per_event",
        total("mpisim.fused") / counts.fused_events.max(1) as f64,
    );
    out.set("mpisim.fused_share", counts.fused_runs as f64 / runs);
    out.set("mpisim.construct_us", us("mpisim.construct"));
    out.set("mpisim.events_per_scenario", counts.events as f64 / runs);
    out.set("mpisim.peak_queue", counts.peak_queue as f64 / runs);
    out.set("mpisim.pool_grows", pools.grows() as f64);
    out.set("tracefmt.fingerprint_us", us("tracefmt.fingerprint"));
    out.set("tracefmt.trace_bytes", counts.trace_bytes as f64 / runs);
    out.set("tracefmt.json_encode_us", us("tracefmt.json_encode"));
    out.set("tracefmt.json_parse_us", us("tracefmt.json_parse"));
    out.set("simcheck.analyze_us", us("simcheck.analyze"));
    out.set("simcheck.budget_us", us("simcheck.budget"));
}
