//! The metric catalogue and the result line the benchmark prints.

use std::collections::BTreeMap;

use tracefmt::json::{self, Json, ToJson};

/// End-to-end metrics `(name, unit)`, printed by the untimed-trace run
/// of every workload. Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by the traced run of every
/// workload; a layer a workload does not exercise reads 0. Must match
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mpisim.run_ns_per_event", "ns"),
    ("mpisim.fused_ns_per_event", "ns"),
    ("mpisim.fused_share", "ratio"),
    ("mpisim.construct_us", "us"),
    ("mpisim.events_per_scenario", "count"),
    ("mpisim.peak_queue", "count"),
    ("mpisim.pool_grows", "count"),
    ("tracefmt.fingerprint_us", "us"),
    ("tracefmt.trace_bytes", "bytes"),
    ("tracefmt.json_encode_us", "us"),
    ("tracefmt.json_parse_us", "us"),
    ("simcheck.analyze_us", "us"),
    ("simcheck.budget_us", "us"),
    ("sweep.overhead_ms_per_scenario", "ms"),
    ("sweep.attempts_per_scenario", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_misses", "count"),
    ("sweep.rounds", "count"),
    ("serve.connect_ms", "ms"),
    ("serve.ping_rtt_us", "us"),
    ("serve.submit_to_accepted_us", "us"),
    ("serve.accepted_to_result_ms", "ms"),
    ("serve.queued_max", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.latency_samples", "count"),
    ("latency_p99_ms", "ms"),
    ("loadgen.repeat_share", "ratio"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted (scenarios swept or jobs submitted).
    pub attempted: u64,
    /// Operations that failed: non-`ok` records, rejected or shed
    /// submissions, `error` replies.
    pub failed: u64,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// The catalogue a run prints: end-to-end metrics untraced, per-layer
/// metrics traced.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Render the final result line with the metrics of `catalogue(trace)`.
/// Every end-to-end metric must have been measured; per-layer metrics a
/// workload does not exercise read 0.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue(trace) {
        let value = match outcome.values.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric '{name}' was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite ({value})"));
        }
        metrics.push((
            name,
            Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", unit.to_json()),
            ]),
        ));
    }
    let known = |k: &str| END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == k);
    if let Some(extra) = outcome.values.keys().find(|k| !known(k)) {
        return Err(format!("metric '{extra}' is not in the catalogue"));
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", outcome.attempted.to_json()),
        ("failed", outcome.failed.to_json()),
        ("metrics", Json::obj(metrics)),
    ]);
    Ok(json::to_string(&line))
}
