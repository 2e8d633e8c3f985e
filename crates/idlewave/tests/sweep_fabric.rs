//! Property tests of the work-stealing sweep fabric: the merged report is
//! a pure function of the scenario list — bit-identical regardless of
//! worker count, shard count, steal interleaving, injected worker kills,
//! warm vs cold result cache, and resume after a crash at an arbitrary
//! record cut.
//!
//! Driven by the in-tree `simdes::check` harness.

use std::path::{Path, PathBuf};

use idlewave::sweep::{run_sweep, FabricChaos, Scenario, SweepOptions};
use idlewave::WaveExperiment;
use simdes::check::{for_all, Gen};
use simdes::SimDuration;
use tracefmt::json;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idlewave-fabric-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// Remove the merged report plus any manifest/shard droppings so a case
/// never inherits state from the previous one.
fn fresh(out: &Path) -> PathBuf {
    let _ = std::fs::remove_file(out);
    let name = out.file_name().expect("file name").to_string_lossy();
    let dir = out.parent().expect("parent");
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let n = e.file_name().to_string_lossy().into_owned();
            if n.starts_with(&format!("{name}.shard-")) || n == format!("{name}.manifest") {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    out.to_path_buf()
}

fn bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A random suite of clean (cache-eligible) scenarios with distinct
/// seeds, mixed chain lengths, and both protocols.
fn gen_scenarios(g: &mut Gen) -> Vec<Scenario> {
    let n = g.usize(3, 6);
    (0..n)
        .map(|i| {
            let ranks = g.u32(4, 10);
            let steps = g.u32(3, 6);
            let mut cfg = WaveExperiment::flat_chain(ranks)
                .texec(SimDuration::from_micros(500))
                .steps(steps)
                .seed(g.any_u64())
                .into_config();
            if g.bool() {
                cfg.protocol = mpisim::Protocol::Rendezvous;
            }
            Scenario::new(format!("case-{i}"), cfg)
        })
        .collect()
}

#[test]
fn merged_report_is_invariant_under_fabric_scheduling() {
    for_all(
        "merged_report_is_invariant_under_fabric_scheduling",
        8,
        |g| {
            let scenarios = gen_scenarios(g);
            let n = scenarios.len();
            let base = SweepOptions {
                wall_timeout: std::time::Duration::from_secs(30),
                ..SweepOptions::default()
            };

            // Control: one worker, one shard — fully sequential.
            let control_out = fresh(&tmp("control.jsonl"));
            let control = run_sweep(
                &scenarios,
                &SweepOptions {
                    threads: 1,
                    shards: Some(1),
                    ..base.clone()
                },
                &control_out,
            )
            .expect("control sweep");
            assert!(control.all_ok(), "{:?}", control.results);
            let want = bytes(&control_out);

            // Any worker count × shard count × kill schedule: same bytes.
            let threads = g.pick(&[2usize, 8]);
            let shards = g.usize(1, 5);
            let kills: Vec<(usize, usize)> =
                g.vec(0, threads, |g| (g.usize(0, threads - 1), g.usize(0, 2)));
            let chaotic_out = fresh(&tmp("chaotic.jsonl"));
            let report = run_sweep(
                &scenarios,
                &SweepOptions {
                    threads,
                    shards: Some(shards),
                    fabric_chaos: FabricChaos {
                        kill_workers: kills.clone(),
                    },
                    ..base.clone()
                },
                &chaotic_out,
            )
            .expect("chaotic sweep");
            assert!(report.all_ok());
            assert_eq!(
                bytes(&chaotic_out),
                want,
                "threads={threads} shards={shards} kills={kills:?} changed the report"
            );

            // Cold then warm cache: the warm run does zero re-simulations and
            // still produces the same bytes.
            let cache_dir = tmp("cache");
            let _ = std::fs::remove_dir_all(&cache_dir);
            let cached = SweepOptions {
                threads,
                shards: Some(shards),
                cache_dir: Some(cache_dir),
                ..base.clone()
            };
            let cold_out = fresh(&tmp("cold.jsonl"));
            let cold = run_sweep(&scenarios, &cached, &cold_out).expect("cold sweep");
            assert_eq!(cold.cache_misses, n, "{cold:?}");
            assert_eq!(bytes(&cold_out), want, "cold cache changed the report");
            let warm_out = fresh(&tmp("warm.jsonl"));
            let warm = run_sweep(&scenarios, &cached, &warm_out).expect("warm sweep");
            assert_eq!(warm.cache_hits, n, "warm rerun must serve everything");
            assert_eq!(warm.cache_misses, 0);
            assert_eq!(bytes(&warm_out), want, "warm cache changed the report");

            // Resume after a crash at a random record cut: a previous run
            // persisted the first `cut` records across a random shard layout
            // and died mid-write on the next one. The shard file layout
            // (`<out>.shard-K.jsonl`) is a documented contract — see
            // docs/SWEEP.md.
            let resumed_out = fresh(&tmp("resumed.jsonl"));
            let cut = g.usize(0, n);
            let prev_shards = g.usize(1, 4);
            let shard_file = |k: usize| {
                resumed_out.with_file_name(format!(
                    "{}.shard-{k}.jsonl",
                    resumed_out.file_name().expect("name").to_string_lossy()
                ))
            };
            for (i, r) in control.results.iter().take(cut).enumerate() {
                use std::io::Write as _;
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(shard_file(i % prev_shards))
                    .expect("shard file");
                writeln!(f, "{}", json::to_string(r)).expect("plant record");
            }
            if cut < n {
                use std::io::Write as _;
                let line = json::to_string(&control.results[cut]);
                let tear = g.usize(1, line.len().saturating_sub(1).max(1));
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(shard_file(cut % prev_shards))
                    .expect("shard file");
                f.write_all(&line.as_bytes()[..tear]).expect("torn record");
            }
            let resumed = run_sweep(
                &scenarios,
                &SweepOptions {
                    threads,
                    shards: Some(shards),
                    resume: true,
                    ..base.clone()
                },
                &resumed_out,
            )
            .expect("resumed sweep");
            assert_eq!(resumed.reused, cut, "cut={cut} prev_shards={prev_shards}");
            assert!(resumed.all_ok());
            assert_eq!(
                bytes(&resumed_out),
                want,
                "resume after a cut at record {cut} (prev_shards={prev_shards}) \
             changed the report"
            );
        },
    );
}
