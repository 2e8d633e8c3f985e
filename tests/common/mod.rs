//! Shared helper for integration tests that fan independent runs out
//! over the sweep fabric.

use idle_waves::idlewave::sweep::{run_sweep, RunSummary, Scenario, SweepOptions};
use idle_waves::prelude::SimConfig;

/// Run `configs` as one sweep on `threads` workers and return every
/// scenario's summary in input order; any failed scenario panics.
pub fn sweep_summaries(name: &str, configs: &[SimConfig], threads: usize) -> Vec<RunSummary> {
    let out = std::env::temp_dir().join(format!(
        "idle-waves-{name}-{threads}-{}.jsonl",
        std::process::id()
    ));
    let scenarios: Vec<Scenario> = configs
        .iter()
        .enumerate()
        .map(|(i, c)| Scenario::new(format!("run{i}"), c.clone()))
        .collect();
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let report = run_sweep(&scenarios, &opts, &out).expect("sweep io");
    let _ = std::fs::remove_file(&out);
    report
        .results
        .iter()
        .map(|r| {
            r.summary
                .unwrap_or_else(|| panic!("'{}' failed: {r:?}", r.id))
        })
        .collect()
}
