//! The benchmark's own checks: deterministic inputs, a catalogue that
//! matches `BENCHMARK.json`, and small runs that pass the correctness
//! gate.

use std::path::{Path, PathBuf};

use idlewave::sweep::Scenario;
use perfbench::gen::{self, SweepSize, Workload};
use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::{serve, Params};
use tracefmt::json::{self, Json};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.field(key)
        .and_then(Json::expect_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.field(k).and_then(Json::expect_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = doc
        .field("workloads")
        .and_then(Json::expect_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.field("name")
                .and_then(Json::expect_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::DECLARED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);
    // The serve workload's stated rate must be the one the code offers.
    let serve = Workload::DECLARED
        .iter()
        .position(|&w| w == Workload::ServeMixed)
        .expect("serve-mixed is declared");
    let serve_why = doc
        .field("workloads")
        .and_then(Json::expect_array)
        .expect("workloads")[serve]
        .field("why")
        .and_then(Json::expect_str)
        .expect("why")
        .to_string();
    assert!(
        serve_why.contains(&format!("{} req/s", serve::FIXED_RATE)),
        "{serve_why}"
    );
}

#[test]
fn workload_generation_is_deterministic_per_seed() {
    for w in [Workload::SweepWave, Workload::SweepRdvFaults] {
        let size = SweepSize::full();
        for seed in [0, 1, 7, u64::MAX] {
            let a = gen::sweep_suite(w, seed, size);
            assert_eq!(
                a,
                gen::sweep_suite(w, seed, size),
                "{} seed {seed}",
                w.name()
            );
            assert_ne!(
                a,
                gen::sweep_suite(w, seed ^ 1, size),
                "{} seed {seed}",
                w.name()
            );
            gen::check_sweep_property(w, &a).expect("input property holds");
        }
    }
    let n = 4 * gen::POPULATION;
    let (a, share) = gen::serve_jobs(5, 1, n, "job");
    let (b, _) = gen::serve_jobs(5, 1, n, "job");
    assert_eq!(a, b);
    assert_ne!(a, gen::serve_jobs(6, 1, n, "job").0);
    assert_eq!(share, 0.5);
    assert!(a.iter().all(|s| s.config.ranks() == 16));
    // The second population of each block re-runs the first in another
    // order: the same configs, under new ids.
    let configs = |s: &[Scenario]| {
        let mut v: Vec<String> = s.iter().map(|s| json::to_string(&s.config)).collect();
        v.sort();
        v
    };
    let (fresh, rerun) = a[..2 * gen::POPULATION].split_at(gen::POPULATION);
    assert_eq!(configs(fresh), configs(rerun));
    assert_ne!(
        configs(fresh),
        configs(&a[2 * gen::POPULATION..3 * gen::POPULATION])
    );
}

#[test]
fn the_wrong_property_is_refused() {
    let size = SweepSize::small();
    let rdv = gen::sweep_suite(Workload::SweepRdvFaults, 3, size);
    assert!(gen::check_sweep_property(Workload::SweepWave, &rdv).is_err());
    let wave = gen::sweep_suite(Workload::SweepWave, 3, size);
    assert!(gen::check_sweep_property(Workload::SweepRdvFaults, &wave).is_err());
}

fn metric_names(line: &str) -> Vec<String> {
    let v = Json::parse(line).expect("result line parses");
    assert!(v
        .field("correct")
        .and_then(Json::expect_bool)
        .expect("correct"));
    assert!(
        v.field("attempted")
            .and_then(Json::expect_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(
        v.field("failed")
            .and_then(Json::expect_u64)
            .expect("failed"),
        0
    );
    v.field("metrics")
        .and_then(Json::expect_object)
        .expect("metrics")
        .iter()
        .map(|(k, m)| {
            let value = m.field("value").and_then(Json::expect_f64).expect("value");
            assert!(value.is_finite(), "{k} = {value}");
            k.clone()
        })
        .collect()
}

/// One test runs every small workload in turn: they share two cores,
/// and the serve generator's lateness check must not see the sweeps.
#[test]
fn small_runs_of_every_workload_pass_the_correctness_gate() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    for w in Workload::ALL {
        for trace in [false, true] {
            let p = Params {
                workload: w,
                seed: 11,
                seconds: 0.5,
                trace,
                small: true,
            };
            let run = perfbench::run(&p, &root).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let line = report::result_line(&run.outcome, trace).expect("every metric measured");
            let want: Vec<&str> = report::catalogue(trace).iter().map(|m| m.0).collect();
            assert_eq!(metric_names(&line), want, "{} trace {trace}", w.name());
            let values = &run.outcome.values;
            if !trace {
                assert!(
                    END_TO_END.iter().all(|(n, _)| values[n] > 0.0),
                    "{values:?}"
                );
            }
            // The supervisor's watchdog keeps every sweep-wave run off the
            // fused cascade although every config is eligible; the
            // rendezvous and fault configs run on the event queue.
            match (w, trace) {
                (Workload::SweepWave, true) => assert_eq!(values["mpisim.fused_share"], 0.0),
                (Workload::SweepRdvFaults, true) => assert!(values["mpisim.peak_queue"] > 0.0),
                _ => {}
            }
        }
    }
    assert!(
        !std::fs::read_dir(&root)
            .expect("root exists")
            .flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with("work-")),
        "scratch directories are removed"
    );
}
