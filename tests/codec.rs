//! The JSON record codec: byte-identity goldens and strict-key mutations.
//!
//! `GOLDENS` holds the exact `json::to_string` bytes of one representative
//! value of every record and enum the workspace encodes, every enum
//! variant included. Config fingerprints, pins, cache entries, journal
//! lines and snapshots are all built from these bytes, so a codec change
//! that moves one of them is a format change, not a refactor.
//!
//! The mutation suite takes the encoding of each sample, applies one
//! hostile edit to one object key (a one-character typo, a duplicate, a
//! dropped required key, a value of the wrong JSON type) and checks the
//! decoder answers with an error naming the key, never a panic or a
//! silently different value.
//!
//! Regenerate the goldens (only after an intentional format change) with
//! `GOLDEN_REGEN=1 cargo test --test codec -- --nocapture`.

use bench::throughput::{BenchReport, ScenarioResult as BenchScenario, ServeResult, SweepResult};
use idle_waves::idlewave::serve::protocol::{Reply, Request, StatsBody};
use idle_waves::idlewave::sweep::{Chaos, RunSummary, Scenario, ScenarioResult, ScenarioStatus};
use idle_waves::lbm::LbmDecomposition;
use idle_waves::mpisim::{
    CheckpointPolicy, Engine, FaultPlan, LinkDegradation, MessageFaults, Mode, NoisePlacement,
    RankFault, RankFaultKind, RunLimits,
};
use idle_waves::netmodel::{presets, Hockney, LogGops, PointToPoint};
use idle_waves::noise::Injection;
use idle_waves::prelude::*;
use idle_waves::simcheck::WavePrediction;
use idle_waves::stream::TriadScalingModel;
use idle_waves::tracefmt::fnv1a_64;
use idle_waves::tracefmt::json;
use idle_waves::workload::{CommGraph, CommSchedule};
use std::time::Duration;

const MS: SimDuration = SimDuration::from_millis(1);

/// One encoded sample and the decoder of its type.
struct Sample {
    name: &'static str,
    /// The sample's type name, which every decode error must carry.
    ty: &'static str,
    json: String,
    /// Decode with the sample's own type, re-encoding the result so
    /// samples of different types share one signature.
    decode: fn(&Json) -> json::Result<Json>,
}

fn decode_as<T: FromJson + ToJson>(v: &Json) -> json::Result<Json> {
    T::from_json(v).map(|t| t.to_json())
}

fn sample<T: FromJson + ToJson>(name: &'static str, value: &T) -> Sample {
    let path = std::any::type_name::<T>();
    Sample {
        name,
        ty: path.rsplit("::").next().unwrap_or(path),
        json: json::to_string(value),
        decode: decode_as::<T>,
    }
}

fn graph() -> CommGraph {
    CommGraph::from_sends(vec![vec![1], vec![2], vec![0]])
}

/// A config that sets every optional field and nests every record type
/// `SimConfig` can carry.
fn full_config() -> SimConfig {
    let mut cfg = SimConfig::baseline(
        presets::emmy_like(2, 2, 3),
        CommPattern::next_neighbor(Direction::Bidirectional, Boundary::Periodic),
        4,
    );
    cfg.schedule = Some(CommSchedule::cyclic(vec![
        graph(),
        CommGraph::from_sends(vec![vec![2], vec![], vec![0, 1]]),
    ]));
    cfg.protocol = Protocol::Rendezvous;
    cfg.exec = ExecModel::MemoryBound {
        bytes: 1 << 20,
        core_bw_bps: 1.5e10,
        socket_bw_bps: 4e10,
    };
    cfg.injections = InjectionPlan::from_list(vec![
        Injection {
            rank: 1,
            step: 2,
            duration: MS.times(5),
        },
        Injection {
            rank: 0,
            step: 0,
            duration: SimDuration(1),
        },
    ]);
    cfg.noise = DelayDistribution::TruncatedExponential {
        mean: SimDuration(1500),
        max: SimDuration(90_000),
    };
    cfg.noise_placement = NoisePlacement::ExecAndComm;
    cfg.eager_buffer_bytes = Some(65_536);
    cfg.serialize_sends = true;
    cfg.imbalance = vec![1.0, 0.75, 1.25];
    cfg.faults = FaultPlan {
        messages: Some(MessageFaults {
            drop_prob: 0.125,
            corrupt_prob: 0.0,
            rto: SimDuration::from_micros(100),
            backoff: 2.0,
            max_rto: MS.times(3),
            max_retries: 7,
        }),
        degradations: vec![
            LinkDegradation {
                from: SimTime(10),
                until: SimTime(20_000),
                link: Some((0, 2)),
                latency_factor: 3.5,
                bandwidth_factor: 0.5,
            },
            LinkDegradation {
                from: SimTime(0),
                until: SimTime(u64::MAX - 1),
                link: None,
                latency_factor: 1.0,
                bandwidth_factor: 0.25,
            },
        ],
        rank_faults: vec![
            RankFault {
                rank: 2,
                step: 1,
                kind: RankFaultKind::Stall { duration: MS },
            },
            RankFault {
                rank: 1,
                step: 3,
                kind: RankFaultKind::Crash {
                    outage: Some(MS.times(2)),
                },
            },
            RankFault {
                rank: 0,
                step: 3,
                kind: RankFaultKind::Crash { outage: None },
            },
        ],
    };
    cfg.seed = u64::MAX;
    cfg
}

fn small_config() -> SimConfig {
    WaveExperiment::flat_chain(4)
        .direction(Direction::Bidirectional)
        .texec(MS)
        .steps(3)
        .rendezvous()
        .inject(1, 0, MS.times(4))
        .into_config()
}

fn summary() -> RunSummary {
    RunSummary {
        runtime_ns: 12_000_000,
        events: 496,
        messages: 96,
        retransmissions: 2,
        dropped: 1,
        corrupted: 1,
        trace_fingerprint: 0xfeed_f00d_dead_beef,
    }
}

fn result(status: ScenarioStatus) -> ScenarioResult {
    ScenarioResult {
        id: format!("r-{}", status.as_str()),
        status,
        attempts: 2,
        error: (status != ScenarioStatus::Ok).then(|| "why \"it\" failed".to_string()),
        summary: (status == ScenarioStatus::Ok).then(summary),
        config_fingerprint: Some(0x5d4b_6c02_33d4_08e0),
    }
}

fn bench_report() -> BenchReport {
    BenchReport {
        label: "codec".into(),
        scenarios: vec![BenchScenario {
            name: "wave".into(),
            ranks: 1024,
            steps: 24,
            events: 61_000,
            iters: 3,
            min_ns: 1_000,
            mean_ns: 1_500,
            events_per_sec: 2.5e7,
            fingerprint: 0xabc,
        }],
        sweeps: vec![SweepResult {
            name: "sweep-cold".into(),
            scenarios: 64,
            threads: 2,
            shards: 2,
            iters: 3,
            min_ns: 9,
            mean_ns: 10,
            scenarios_per_sec: 3533.25,
            cache_hits: 0,
            report_fnv: 0x1234,
        }],
        serve: vec![ServeResult {
            name: "serve-cold".into(),
            requests: 48,
            threads: 2,
            iters: 3,
            min_ns: 7,
            mean_ns: 8,
            requests_per_sec: 857.5,
            cache_hits: 24,
            result_fnv: 0x5678,
        }],
    }
}

fn stats() -> StatsBody {
    StatsBody {
        accepted: 1,
        rejected: 2,
        shed: 3,
        completed: 4,
        cancelled: 5,
        recovered: 6,
        cache_hits: 7,
        cache_misses: 8,
        queued: 9,
        inflight: 10,
        draining: true,
    }
}

/// Every sample the goldens pin, in a stable order.
fn samples() -> Vec<Sample> {
    let cfg = full_config();
    let mut scenario = Scenario::new("s-1", small_config());
    scenario.max_sim_time = Some(SimTime(5_000_000_000));
    let trace = idle_waves::mpisim::run(&small_config());
    let mut out = vec![
        sample("SimConfig.full", &cfg),
        sample("SimConfig.baseline", &small_config()),
        sample("ClusterNetwork", &cfg.network),
        sample("Machine", &cfg.network.machine),
        sample("DomainModels", &cfg.network.models),
        sample("CommPattern", &cfg.pattern),
        sample("CommSchedule", cfg.schedule.as_ref().expect("set")),
        sample("CommGraph", &graph()),
        sample("InjectionPlan", &cfg.injections),
        sample("Injection", &cfg.injections.injections()[0]),
        sample("FaultPlan.full", &cfg.faults),
        sample("FaultPlan.none", &FaultPlan::none()),
        sample("MessageFaults", cfg.faults.messages.as_ref().expect("set")),
        sample("LinkDegradation", &cfg.faults.degradations[0]),
        sample("RankFault", &cfg.faults.rank_faults[1]),
        sample("PhaseRecord", trace.record(1, 2)),
        sample("Trace", &trace),
        sample("Scenario", &scenario),
        sample("RunSummary", &summary()),
        sample("StatsBody", &stats()),
        sample("BenchReport", &bench_report()),
        sample("BenchScenario", &bench_report().scenarios[0]),
        sample("SweepResult", &bench_report().sweeps[0]),
        sample("ServeResult", &bench_report().serve[0]),
        sample("TriadScalingModel", &TriadScalingModel::paper_ppn20()),
        sample("LbmDecomposition", &LbmDecomposition::paper_fig2()),
        sample(
            "PointToPoint.Hockney",
            &PointToPoint::Hockney(Hockney {
                latency: SimDuration(1_700),
                bandwidth_bps: 5.5e9,
            }),
        ),
        sample(
            "PointToPoint.LogGops",
            &PointToPoint::LogGops(LogGops {
                l: SimDuration(1),
                o: SimDuration(2),
                g: SimDuration(3),
                big_g_per_byte: 0.25,
                big_o_per_byte: 1e-3,
            }),
        ),
        sample("Protocol.Eager", &Protocol::Eager),
        sample("Protocol.Rendezvous", &Protocol::Rendezvous),
        sample(
            "Protocol.Auto",
            &Protocol::Auto {
                eager_limit: Protocol::PAPER_EAGER_LIMIT,
            },
        ),
        sample("Mode.Eager", &Mode::Eager),
        sample("Mode.Rendezvous", &Mode::Rendezvous),
        sample("NoisePlacement.ExecOnly", &NoisePlacement::ExecOnly),
        sample("NoisePlacement.ExecAndComm", &NoisePlacement::ExecAndComm),
        sample("Direction.Unidirectional", &Direction::Unidirectional),
        sample("Direction.Bidirectional", &Direction::Bidirectional),
        sample("Boundary.Open", &Boundary::Open),
        sample("Boundary.Periodic", &Boundary::Periodic),
        sample("ExecModel.Compute", &ExecModel::Compute { duration: MS }),
        sample("ExecModel.MemoryBound", &cfg.exec),
        sample("RankFaultKind.Stall", &cfg.faults.rank_faults[0].kind),
        sample("RankFaultKind.Crash", &cfg.faults.rank_faults[2].kind),
        sample("DelayDistribution.None", &DelayDistribution::None),
        sample(
            "DelayDistribution.Constant",
            &DelayDistribution::Constant(SimDuration(250)),
        ),
        sample(
            "DelayDistribution.Exponential",
            &DelayDistribution::Exponential {
                mean: SimDuration(1_000),
            },
        ),
        sample("DelayDistribution.TruncatedExponential", &cfg.noise),
        sample(
            "DelayDistribution.Uniform",
            &DelayDistribution::Uniform {
                lo: SimDuration(10),
                hi: SimDuration(20),
            },
        ),
        sample(
            "DelayDistribution.Pareto",
            &DelayDistribution::Pareto {
                scale: SimDuration(100),
                alpha: 1.5,
                max: SimDuration(1_000_000),
            },
        ),
        sample(
            "DelayDistribution.Empirical",
            &DelayDistribution::Empirical {
                samples: vec![0, 7, 1 << 40],
            },
        ),
        sample(
            "DelayDistribution.Bimodal",
            &DelayDistribution::Bimodal {
                first_mean: SimDuration(1),
                first_max: SimDuration(2),
                second_center: SimDuration(3),
                second_halfwidth: SimDuration(4),
                p_second: 0.05,
            },
        ),
        sample("Chaos.None", &Chaos::None),
        sample("Chaos.FailAttempts", &Chaos::FailAttempts(3)),
        sample("Chaos.Panic", &Chaos::Panic),
        sample("Chaos.Hang", &Chaos::Hang(Duration::from_millis(250))),
        sample("Reply.Hello", &Reply::Hello { serve_format: 1 }),
        sample(
            "Reply.Accepted",
            &Reply::Accepted {
                id: "s-1".into(),
                job: 7,
                queued: 2,
            },
        ),
        sample(
            "Reply.Rejected",
            &Reply::Rejected {
                id: "s-1".into(),
                error: "no".into(),
                diagnostics: vec![Json::obj(vec![("code", Json::Str("SC028".into()))])],
            },
        ),
        sample(
            "Reply.Overloaded",
            &Reply::Overloaded {
                id: "s-1".into(),
                queued: 64,
                capacity: 64,
                retry_after_ms: 50,
                diagnostics: vec![],
            },
        ),
        sample(
            "Reply.Result",
            &Reply::Result {
                record: result(ScenarioStatus::Ok),
            },
        ),
        sample("Reply.NoResult", &Reply::NoResult { id: "s-2".into() }),
        sample("Reply.Pong", &Reply::Pong { nonce: 99 }),
        sample("Reply.Stats", &Reply::Stats(stats())),
        sample("Reply.Draining", &Reply::Draining),
        sample(
            "Reply.Error",
            &Reply::Error {
                error: "bad line".into(),
            },
        ),
    ];
    for status in ALL_STATUSES {
        out.push(Sample {
            name: status.as_str(),
            ..sample("", &result(status))
        });
    }
    out
}

const ALL_STATUSES: [ScenarioStatus; 9] = [
    ScenarioStatus::Ok,
    ScenarioStatus::Invalid,
    ScenarioStatus::OverBudget,
    ScenarioStatus::Stalled,
    ScenarioStatus::Watchdog,
    ScenarioStatus::WallTimeout,
    ScenarioStatus::Panicked,
    ScenarioStatus::Transient,
    ScenarioStatus::Cancelled,
];

fn simcheck_prediction(cfg: &SimConfig) -> WavePrediction {
    idle_waves::simcheck::budget::budget(cfg)
        .wave
        .expect("injection-free chain still predicts")
}

/// Encodings pinned without a decode sample: requests, output-only
/// records, and a snapshot pinned by digest.
fn encode_only() -> Vec<(&'static str, String)> {
    let mut scenario = Scenario::new("s-1", small_config());
    scenario.chaos = Chaos::FailAttempts(1);
    let cfg = small_config();
    let policy = CheckpointPolicy {
        every_sim_time: None,
        every_events: Some(20),
    };
    let mut snap = None;
    Engine::try_new(cfg.clone())
        .expect("valid")
        .try_run_checkpointed(&RunLimits::none(), &policy, |s| {
            snap.get_or_insert_with(|| s.clone());
        })
        .expect("runs");
    let snap = snap.expect("cut taken").encode();
    vec![
        (
            "Request.Submit",
            json::to_string(&Request::Submit(Box::new(scenario))),
        ),
        (
            "Request.Query",
            json::to_string(&Request::Query { id: "q".into() }),
        ),
        ("Request.Ping", json::to_string(&Request::Ping { nonce: 3 })),
        ("Request.Stats", json::to_string(&Request::Stats)),
        ("Request.Drain", json::to_string(&Request::Drain)),
        (
            "Diagnostic",
            json::to_string(&Diagnostic::error("SC004", "steps", 0, "need a step")),
        ),
        (
            "WavePrediction",
            json::to_string(&simcheck_prediction(&cfg)),
        ),
        (
            "BudgetReport",
            json::to_string(&idle_waves::simcheck::budget::budget(&cfg)),
        ),
        (
            "Snapshot.digest",
            format!("{:016x}/{}", fnv1a_64(snap.as_bytes()), snap.len()),
        ),
    ]
}

#[test]
fn every_encoding_matches_its_golden_bytes() {
    let mut all: Vec<(&str, String)> = samples().into_iter().map(|s| (s.name, s.json)).collect();
    all.extend(encode_only());
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        for (name, json) in &all {
            println!("    ({name:?}, r#\"{json}\"#),");
        }
        return;
    }
    assert_eq!(all.len(), GOLDENS.len(), "one golden per sample");
    for ((name, json), (want_name, want)) in all.iter().zip(GOLDENS) {
        assert_eq!(name, want_name, "sample order");
        assert_eq!(json, want, "{name}: encoding moved");
    }
}

#[test]
fn every_sample_decodes_back_to_its_own_bytes() {
    for s in samples() {
        let v = Json::parse(&s.json).expect("own encoding parses");
        let back = (s.decode)(&v).unwrap_or_else(|e| panic!("{}: {e}", s.name));
        assert_eq!(back.dump(), s.json, "{}", s.name);
    }
}

/// Captured from the hand-written codecs the record macro replaced.
#[rustfmt::skip]
const GOLDENS: &[(&str, &str)] = &[
    ("SimConfig.full", r#"{"network":{"machine":{"cores_per_socket":10,"sockets_per_node":2,"nodes":2},"ppn":2,"ranks":3,"models":{"socket":{"Hockney":{"latency":300,"bandwidth_bps":10000000000.0}},"node":{"Hockney":{"latency":600,"bandwidth_bps":6000000000.0}},"network":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}}}},"pattern":{"direction":"Bidirectional","distance":1,"boundary":"Periodic"},"schedule":{"rounds":[{"sends":[[1],[2],[0]]},{"sends":[[2],[],[0,1]]}]},"msg_bytes":8192,"protocol":"Rendezvous","exec":{"MemoryBound":{"bytes":1048576,"core_bw_bps":15000000000.0,"socket_bw_bps":40000000000.0}},"steps":4,"injections":{"injections":[{"rank":1,"step":2,"duration":5000000},{"rank":0,"step":0,"duration":1}]},"noise":{"TruncatedExponential":{"mean":1500,"max":90000}},"noise_placement":"ExecAndComm","eager_buffer_bytes":65536,"serialize_sends":true,"imbalance":[1.0,0.75,1.25],"faults":{"messages":{"drop_prob":0.125,"corrupt_prob":0.0,"rto":100000,"backoff":2.0,"max_rto":3000000,"max_retries":7},"degradations":[{"from":10,"until":20000,"link":[0,2],"latency_factor":3.5,"bandwidth_factor":0.5},{"from":0,"until":18446744073709551614,"link":null,"latency_factor":1.0,"bandwidth_factor":0.25}],"rank_faults":[{"rank":2,"step":1,"kind":{"Stall":{"duration":1000000}}},{"rank":1,"step":3,"kind":{"Crash":{"outage":2000000}}},{"rank":0,"step":3,"kind":{"Crash":{"outage":null}}}]},"seed":18446744073709551615}"#),
    ("SimConfig.baseline", r#"{"network":{"machine":{"cores_per_socket":1,"sockets_per_node":1,"nodes":4},"ppn":1,"ranks":4,"models":{"socket":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}},"node":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}},"network":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}}}},"pattern":{"direction":"Bidirectional","distance":1,"boundary":"Open"},"schedule":null,"msg_bytes":8192,"protocol":"Rendezvous","exec":{"Compute":{"duration":1000000}},"steps":3,"injections":{"injections":[{"rank":1,"step":0,"duration":4000000}]},"noise":"None","noise_placement":"ExecOnly","eager_buffer_bytes":null,"serialize_sends":false,"imbalance":[],"faults":{"messages":null,"degradations":[],"rank_faults":[]},"seed":488524414}"#),
    ("ClusterNetwork", r#"{"machine":{"cores_per_socket":10,"sockets_per_node":2,"nodes":2},"ppn":2,"ranks":3,"models":{"socket":{"Hockney":{"latency":300,"bandwidth_bps":10000000000.0}},"node":{"Hockney":{"latency":600,"bandwidth_bps":6000000000.0}},"network":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}}}}"#),
    ("Machine", r#"{"cores_per_socket":10,"sockets_per_node":2,"nodes":2}"#),
    ("DomainModels", r#"{"socket":{"Hockney":{"latency":300,"bandwidth_bps":10000000000.0}},"node":{"Hockney":{"latency":600,"bandwidth_bps":6000000000.0}},"network":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}}}"#),
    ("CommPattern", r#"{"direction":"Bidirectional","distance":1,"boundary":"Periodic"}"#),
    ("CommSchedule", r#"{"rounds":[{"sends":[[1],[2],[0]]},{"sends":[[2],[],[0,1]]}]}"#),
    ("CommGraph", r#"{"sends":[[1],[2],[0]]}"#),
    ("InjectionPlan", r#"{"injections":[{"rank":1,"step":2,"duration":5000000},{"rank":0,"step":0,"duration":1}]}"#),
    ("Injection", r#"{"rank":1,"step":2,"duration":5000000}"#),
    ("FaultPlan.full", r#"{"messages":{"drop_prob":0.125,"corrupt_prob":0.0,"rto":100000,"backoff":2.0,"max_rto":3000000,"max_retries":7},"degradations":[{"from":10,"until":20000,"link":[0,2],"latency_factor":3.5,"bandwidth_factor":0.5},{"from":0,"until":18446744073709551614,"link":null,"latency_factor":1.0,"bandwidth_factor":0.25}],"rank_faults":[{"rank":2,"step":1,"kind":{"Stall":{"duration":1000000}}},{"rank":1,"step":3,"kind":{"Crash":{"outage":2000000}}},{"rank":0,"step":3,"kind":{"Crash":{"outage":null}}}]}"#),
    ("FaultPlan.none", r#"{"messages":null,"degradations":[],"rank_faults":[]}"#),
    ("MessageFaults", r#"{"drop_prob":0.125,"corrupt_prob":0.0,"rto":100000,"backoff":2.0,"max_rto":3000000,"max_retries":7}"#),
    ("LinkDegradation", r#"{"from":10,"until":20000,"link":[0,2],"latency_factor":3.5,"bandwidth_factor":0.5}"#),
    ("RankFault", r#"{"rank":1,"step":3,"kind":{"Crash":{"outage":2000000}}}"#),
    ("PhaseRecord", r#"{"rank":1,"step":2,"exec_start":6015662,"exec_end":7015662,"comm_end":7023493,"injected":0,"noise":0}"#),
    ("Trace", r#"{"ranks":4,"steps":3,"records":[{"rank":0,"step":0,"exec_start":0,"exec_end":1000000,"comm_end":5007831,"injected":0,"noise":0},{"rank":0,"step":1,"exec_start":5007831,"exec_end":6007831,"comm_end":6015662,"injected":0,"noise":0},{"rank":0,"step":2,"exec_start":6015662,"exec_end":7015662,"comm_end":7023493,"injected":0,"noise":0},{"rank":1,"step":0,"exec_start":0,"exec_end":5000000,"comm_end":5007831,"injected":4000000,"noise":0},{"rank":1,"step":1,"exec_start":5007831,"exec_end":6007831,"comm_end":6015662,"injected":0,"noise":0},{"rank":1,"step":2,"exec_start":6015662,"exec_end":7015662,"comm_end":7023493,"injected":0,"noise":0},{"rank":2,"step":0,"exec_start":0,"exec_end":1000000,"comm_end":5007831,"injected":0,"noise":0},{"rank":2,"step":1,"exec_start":5007831,"exec_end":6007831,"comm_end":6015662,"injected":0,"noise":0},{"rank":2,"step":2,"exec_start":6015662,"exec_end":7015662,"comm_end":7023493,"injected":0,"noise":0},{"rank":3,"step":0,"exec_start":0,"exec_end":1000000,"comm_end":5007831,"injected":0,"noise":0},{"rank":3,"step":1,"exec_start":5007831,"exec_end":6007831,"comm_end":6015662,"injected":0,"noise":0},{"rank":3,"step":2,"exec_start":6015662,"exec_end":7015662,"comm_end":7023493,"injected":0,"noise":0}]}"#),
    ("Scenario", r#"{"id":"s-1","config":{"network":{"machine":{"cores_per_socket":1,"sockets_per_node":1,"nodes":4},"ppn":1,"ranks":4,"models":{"socket":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}},"node":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}},"network":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}}}},"pattern":{"direction":"Bidirectional","distance":1,"boundary":"Open"},"schedule":null,"msg_bytes":8192,"protocol":"Rendezvous","exec":{"Compute":{"duration":1000000}},"steps":3,"injections":{"injections":[{"rank":1,"step":0,"duration":4000000}]},"noise":"None","noise_placement":"ExecOnly","eager_buffer_bytes":null,"serialize_sends":false,"imbalance":[],"faults":{"messages":null,"degradations":[],"rank_faults":[]},"seed":488524414},"chaos":"None","max_sim_time":5000000000}"#),
    ("RunSummary", r#"{"runtime_ns":12000000,"events":496,"messages":96,"retransmissions":2,"dropped":1,"corrupted":1,"trace_fingerprint":18369602397475290863}"#),
    ("StatsBody", r#"{"accepted":1,"rejected":2,"shed":3,"completed":4,"cancelled":5,"recovered":6,"cache_hits":7,"cache_misses":8,"queued":9,"inflight":10,"draining":true}"#),
    ("BenchReport", r#"{"schema":"wavesim-bench","version":1,"label":"codec","scenarios":[{"name":"wave","ranks":1024,"steps":24,"events":61000,"iters":3,"min_ns":1000,"mean_ns":1500,"events_per_sec":25000000.0,"fingerprint":2748}],"sweeps":[{"name":"sweep-cold","scenarios":64,"threads":2,"shards":2,"iters":3,"min_ns":9,"mean_ns":10,"scenarios_per_sec":3533.25,"cache_hits":0,"report_fnv":4660}],"serve":[{"name":"serve-cold","requests":48,"threads":2,"iters":3,"min_ns":7,"mean_ns":8,"requests_per_sec":857.5,"cache_hits":24,"result_fnv":22136}]}"#),
    ("BenchScenario", r#"{"name":"wave","ranks":1024,"steps":24,"events":61000,"iters":3,"min_ns":1000,"mean_ns":1500,"events_per_sec":25000000.0,"fingerprint":2748}"#),
    ("SweepResult", r#"{"name":"sweep-cold","scenarios":64,"threads":2,"shards":2,"iters":3,"min_ns":9,"mean_ns":10,"scenarios_per_sec":3533.25,"cache_hits":0,"report_fnv":4660}"#),
    ("ServeResult", r#"{"name":"serve-cold","requests":48,"threads":2,"iters":3,"min_ns":7,"mean_ns":8,"requests_per_sec":857.5,"cache_hits":24,"result_fnv":22136}"#),
    ("TriadScalingModel", r#"{"vmem_bytes":1200000000,"vnet_bytes":2000000,"domain_bw_bps":40000000000.0,"bnet_bps":3000000000.0}"#),
    ("LbmDecomposition", r#"{"nx":302,"ny":302,"nz":302,"ranks":100}"#),
    ("PointToPoint.Hockney", r#"{"Hockney":{"latency":1700,"bandwidth_bps":5500000000.0}}"#),
    ("PointToPoint.LogGops", r#"{"LogGops":{"l":1,"o":2,"g":3,"big_g_per_byte":0.25,"big_o_per_byte":0.001}}"#),
    ("Protocol.Eager", r#""Eager""#),
    ("Protocol.Rendezvous", r#""Rendezvous""#),
    ("Protocol.Auto", r#"{"Auto":{"eager_limit":131072}}"#),
    ("Mode.Eager", r#""Eager""#),
    ("Mode.Rendezvous", r#""Rendezvous""#),
    ("NoisePlacement.ExecOnly", r#""ExecOnly""#),
    ("NoisePlacement.ExecAndComm", r#""ExecAndComm""#),
    ("Direction.Unidirectional", r#""Unidirectional""#),
    ("Direction.Bidirectional", r#""Bidirectional""#),
    ("Boundary.Open", r#""Open""#),
    ("Boundary.Periodic", r#""Periodic""#),
    ("ExecModel.Compute", r#"{"Compute":{"duration":1000000}}"#),
    ("ExecModel.MemoryBound", r#"{"MemoryBound":{"bytes":1048576,"core_bw_bps":15000000000.0,"socket_bw_bps":40000000000.0}}"#),
    ("RankFaultKind.Stall", r#"{"Stall":{"duration":1000000}}"#),
    ("RankFaultKind.Crash", r#"{"Crash":{"outage":null}}"#),
    ("DelayDistribution.None", r#""None""#),
    ("DelayDistribution.Constant", r#"{"Constant":250}"#),
    ("DelayDistribution.Exponential", r#"{"Exponential":{"mean":1000}}"#),
    ("DelayDistribution.TruncatedExponential", r#"{"TruncatedExponential":{"mean":1500,"max":90000}}"#),
    ("DelayDistribution.Uniform", r#"{"Uniform":{"lo":10,"hi":20}}"#),
    ("DelayDistribution.Pareto", r#"{"Pareto":{"scale":100,"alpha":1.5,"max":1000000}}"#),
    ("DelayDistribution.Empirical", r#"{"Empirical":{"samples":[0,7,1099511627776]}}"#),
    ("DelayDistribution.Bimodal", r#"{"Bimodal":{"first_mean":1,"first_max":2,"second_center":3,"second_halfwidth":4,"p_second":0.05}}"#),
    ("Chaos.None", r#""None""#),
    ("Chaos.FailAttempts", r#"{"FailAttempts":{"attempts":3}}"#),
    ("Chaos.Panic", r#""Panic""#),
    ("Chaos.Hang", r#"{"Hang":{"nanos":250000000}}"#),
    ("Reply.Hello", r#"{"type":"hello","serve_format":1}"#),
    ("Reply.Accepted", r#"{"type":"accepted","id":"s-1","job":7,"queued":2}"#),
    ("Reply.Rejected", r#"{"type":"rejected","id":"s-1","error":"no","diagnostics":[{"code":"SC028"}]}"#),
    ("Reply.Overloaded", r#"{"type":"overloaded","id":"s-1","queued":64,"capacity":64,"retry_after_ms":50,"diagnostics":[]}"#),
    ("Reply.Result", r#"{"type":"result","record":{"id":"r-ok","status":"ok","attempts":2,"error":null,"summary":{"runtime_ns":12000000,"events":496,"messages":96,"retransmissions":2,"dropped":1,"corrupted":1,"trace_fingerprint":18369602397475290863},"config_fingerprint":6722585625495865568}}"#),
    ("Reply.NoResult", r#"{"type":"no-result","id":"s-2"}"#),
    ("Reply.Pong", r#"{"type":"pong","nonce":99}"#),
    ("Reply.Stats", r#"{"type":"stats","stats":{"accepted":1,"rejected":2,"shed":3,"completed":4,"cancelled":5,"recovered":6,"cache_hits":7,"cache_misses":8,"queued":9,"inflight":10,"draining":true}}"#),
    ("Reply.Draining", r#"{"type":"draining"}"#),
    ("Reply.Error", r#"{"type":"error","error":"bad line"}"#),
    ("ok", r#"{"id":"r-ok","status":"ok","attempts":2,"error":null,"summary":{"runtime_ns":12000000,"events":496,"messages":96,"retransmissions":2,"dropped":1,"corrupted":1,"trace_fingerprint":18369602397475290863},"config_fingerprint":6722585625495865568}"#),
    ("invalid", r#"{"id":"r-invalid","status":"invalid","attempts":2,"error":"why \"it\" failed","summary":null,"config_fingerprint":6722585625495865568}"#),
    ("over-budget", r#"{"id":"r-over-budget","status":"over-budget","attempts":2,"error":"why \"it\" failed","summary":null,"config_fingerprint":6722585625495865568}"#),
    ("stalled", r#"{"id":"r-stalled","status":"stalled","attempts":2,"error":"why \"it\" failed","summary":null,"config_fingerprint":6722585625495865568}"#),
    ("watchdog", r#"{"id":"r-watchdog","status":"watchdog","attempts":2,"error":"why \"it\" failed","summary":null,"config_fingerprint":6722585625495865568}"#),
    ("wall-timeout", r#"{"id":"r-wall-timeout","status":"wall-timeout","attempts":2,"error":"why \"it\" failed","summary":null,"config_fingerprint":6722585625495865568}"#),
    ("panic", r#"{"id":"r-panic","status":"panic","attempts":2,"error":"why \"it\" failed","summary":null,"config_fingerprint":6722585625495865568}"#),
    ("transient", r#"{"id":"r-transient","status":"transient","attempts":2,"error":"why \"it\" failed","summary":null,"config_fingerprint":6722585625495865568}"#),
    ("cancelled", r#"{"id":"r-cancelled","status":"cancelled","attempts":2,"error":"why \"it\" failed","summary":null,"config_fingerprint":6722585625495865568}"#),
    ("Request.Submit", r#"{"type":"submit","scenario":{"id":"s-1","config":{"network":{"machine":{"cores_per_socket":1,"sockets_per_node":1,"nodes":4},"ppn":1,"ranks":4,"models":{"socket":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}},"node":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}},"network":{"Hockney":{"latency":1700,"bandwidth_bps":3000000000.0}}}},"pattern":{"direction":"Bidirectional","distance":1,"boundary":"Open"},"schedule":null,"msg_bytes":8192,"protocol":"Rendezvous","exec":{"Compute":{"duration":1000000}},"steps":3,"injections":{"injections":[{"rank":1,"step":0,"duration":4000000}]},"noise":"None","noise_placement":"ExecOnly","eager_buffer_bytes":null,"serialize_sends":false,"imbalance":[],"faults":{"messages":null,"degradations":[],"rank_faults":[]},"seed":488524414},"chaos":{"FailAttempts":{"attempts":1}},"max_sim_time":null}}"#),
    ("Request.Query", r#"{"type":"query","id":"q"}"#),
    ("Request.Ping", r#"{"type":"ping","nonce":3}"#),
    ("Request.Stats", r#"{"type":"stats"}"#),
    ("Request.Drain", r#"{"type":"drain"}"#),
    ("Diagnostic", r#"{"severity":"error","code":"SC004","message":"need a step","field":"steps","value":"0"}"#),
    ("WavePrediction", r#"{"sigma":2,"distance":1,"source_rank":1,"source_step":0,"hops":2,"exit_step":1,"covers_run":true}"#),
    ("BudgetReport", r#"{"schema":"budget-report-v1","fingerprint":"1a75db0d03329eaa","ranks":4,"steps":3,"mode":"rendezvous","messages_total":18,"events_predicted":66,"events_exact":true,"events_delivered_predicted":66,"fused":false,"peak_queue_predicted":40,"requests_per_rank":4,"pool_bytes_predicted":2160,"trace_bytes_predicted":576,"summary_bytes_predicted":96,"sim_time_predicted_ns":7023493,"wave":{"sigma":2,"distance":1,"source_rank":1,"source_step":0,"hops":2,"exit_step":1,"covers_run":true},"events_per_sec":null,"wall_time_predicted_secs":null}"#),
    ("Snapshot.digest", r#"efe88ae002f89336/3476"#),
];

#[test]
fn status_names_agree_with_their_encoding() {
    for status in ALL_STATUSES {
        assert_eq!(json::to_string(&status), format!("\"{}\"", status.as_str()));
    }
}

// ---------------------------------------------------------------------------
// Strict-key mutations
// ---------------------------------------------------------------------------

/// Keys that may be absent, so dropping one decodes to its default. Each
/// record is recognised by a key (or a `type` tag value) only it has.
const DEFAULTED: &[(&str, &[&str])] = &[
    (
        "msg_bytes",
        &[
            "schedule",
            "noise_placement",
            "eager_buffer_bytes",
            "serialize_sends",
            "imbalance",
            "faults",
        ],
    ),
    ("degradations", &["messages", "degradations", "rank_faults"]),
    ("max_sim_time", &["chaos", "max_sim_time"]),
    (
        "config_fingerprint",
        &["error", "summary", "config_fingerprint"],
    ),
    ("label", &["sweeps", "serve"]),
    ("ping", &["nonce"]),
];

fn is_defaulted(entries: &[(String, Json)], key: &str) -> bool {
    DEFAULTED.iter().any(|(marker, keys)| {
        keys.contains(&key)
            && entries
                .iter()
                .any(|(k, v)| k == marker || (k == "type" && v.as_str() == Some(marker)))
    })
}

/// Every declared record and enum, as encoded samples. `Chaos` keeps a
/// hand-written codec, so its payloads are left out.
fn mutation_samples() -> Vec<Sample> {
    let cfg = small_config();
    let mut out: Vec<Sample> = samples()
        .into_iter()
        .filter(|s| !s.name.starts_with("Chaos."))
        .collect();
    out.extend([
        sample(
            "Request.Submit",
            &Request::Submit(Box::new(Scenario::new("s-1", cfg.clone()))),
        ),
        sample("Request.Query", &Request::Query { id: "q".into() }),
        sample("Request.Ping", &Request::Ping { nonce: 3 }),
        sample("WavePrediction", &simcheck_prediction(&cfg)),
    ]);
    out
}

/// One step from a JSON node to a child: an object entry or an array item.
type Path = Vec<usize>;

/// Paths to every object under `v`. The `diagnostics` of a reply are
/// free-form `Json`, not records, so the walk does not enter them.
fn object_paths(v: &Json, at: &mut Path, out: &mut Vec<Path>) {
    let children: Vec<&Json> = match v {
        Json::Object(entries) => {
            out.push(at.clone());
            entries
                .iter()
                .map(|(k, child)| {
                    if k == "diagnostics" {
                        &Json::Null
                    } else {
                        child
                    }
                })
                .collect()
        }
        Json::Array(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        object_paths(child, at, out);
        at.pop();
    }
}

fn node_mut<'a>(v: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(v, |node, &i| match node {
        Json::Object(entries) => &mut entries[i].1,
        Json::Array(items) => &mut items[i],
        _ => unreachable!("paths only step into containers"),
    })
}

/// An externally tagged enum's one-key wrapper: `{"Variant": payload}`.
fn is_variant_wrapper(entries: &[(String, Json)]) -> bool {
    entries.len() == 1 && entries[0].0.starts_with(|c: char| c.is_ascii_uppercase())
}

/// A value of a JSON type the key's declared type cannot take.
fn wrong_type(v: &Json) -> Json {
    match v {
        Json::Str(_) => Json::UInt(7),
        Json::Null => Json::Bool(true),
        Json::Object(_) => Json::Array(vec![]),
        _ => Json::Str("x".into()),
    }
}

#[derive(Clone, Copy, Debug)]
enum Mutation {
    Typo,
    Duplicate,
    Drop,
    WrongType,
}

/// Apply `m` to entry `e` of the object at `path`, with `typo` picking
/// the edit. Returns the key the decoder must name, and whether the
/// mutated document must still decode; `None` when `m` does not apply.
fn mutate(
    v: &mut Json,
    path: &[usize],
    e: usize,
    m: Mutation,
    typo: (usize, char),
) -> Option<(String, bool)> {
    let Json::Object(entries) = node_mut(v, path) else {
        unreachable!("object paths")
    };
    let wrapper = is_variant_wrapper(entries);
    let key = entries[e].0.clone();
    match m {
        Mutation::Typo => {
            let mut chars: Vec<char> = key.chars().collect();
            let at = typo.0 % chars.len();
            chars[at] = typo.1;
            let edited: String = chars.into_iter().collect();
            if entries.iter().any(|(k, _)| *k == edited) {
                return None;
            }
            entries[e].0 = edited.clone();
            Some((edited, false))
        }
        Mutation::Duplicate => {
            let twin = entries[e].clone();
            entries.insert(e + 1, twin);
            Some((key, false))
        }
        Mutation::Drop if wrapper => None,
        Mutation::Drop => {
            let decodes = is_defaulted(entries, &key);
            entries.remove(e);
            Some((key, decodes))
        }
        Mutation::WrongType => {
            entries[e].1 = wrong_type(&entries[e].1);
            Some((key, false))
        }
    }
}

/// Decode the mutated document and check the outcome: an error naming
/// both the key and the sample's type, or (for a dropped defaulted key)
/// a clean decode.
fn check_mutation(s: &Sample, path: &[usize], e: usize, m: Mutation, typo: (usize, char)) {
    let mut v = Json::parse(&s.json).expect("sample parses");
    let Some((key, decodes)) = mutate(&mut v, path, e, m, typo) else {
        return;
    };
    let what = format!("{}: {m:?} of '{key}' at {path:?} in {}", s.name, v.dump());
    match (s.decode)(&v) {
        Ok(_) => assert!(decodes, "{what}: decoded anyway"),
        Err(err) => {
            assert!(!decodes, "{what}: {err}");
            assert!(
                err.0.contains(&key),
                "{what}: error does not name the key: {err}"
            );
            assert!(
                err.0.contains(s.ty),
                "{what}: error does not name {}: {err}",
                s.ty
            );
        }
    }
}

#[test]
fn every_key_of_every_record_rejects_every_mutation() {
    for s in mutation_samples() {
        let v = Json::parse(&s.json).expect("sample parses");
        let mut paths = Vec::new();
        object_paths(&v, &mut Vec::new(), &mut paths);
        for path in paths {
            let Json::Object(entries) = node_mut(&mut v.clone(), &path).clone() else {
                unreachable!("object paths")
            };
            for e in 0..entries.len() {
                for m in [
                    Mutation::Typo,
                    Mutation::Duplicate,
                    Mutation::Drop,
                    Mutation::WrongType,
                ] {
                    check_mutation(&s, &path, e, m, (e, 'q'));
                }
            }
        }
    }
}

#[test]
fn random_mutations_are_structured_errors() {
    let all = mutation_samples();
    for_all("codec mutations", 512, |g: &mut Gen| {
        let s = &all[g.usize(0, all.len() - 1)];
        let v = Json::parse(&s.json).expect("sample parses");
        let mut paths = Vec::new();
        object_paths(&v, &mut Vec::new(), &mut paths);
        if paths.is_empty() {
            return; // a unit variant: a bare string has no keys
        }
        let path = g.pick(&paths);
        let Json::Object(entries) = node_mut(&mut v.clone(), &path).clone() else {
            unreachable!("object paths")
        };
        if entries.is_empty() {
            return;
        }
        let e = g.usize(0, entries.len() - 1);
        let m = g.pick(&[
            Mutation::Typo,
            Mutation::Duplicate,
            Mutation::Drop,
            Mutation::WrongType,
        ]);
        let typo = (g.usize(0, 63), g.pick(&['q', 'Z', '_', '9', 'x', 'e']));
        check_mutation(s, &path, e, m, typo);
    });
}

#[test]
fn a_misspelled_config_key_names_the_nearest_declared_key() {
    let text = json::to_string(&small_config()).replace("serialize_sends", "serialise_sends");
    let err = json::from_str::<SimConfig>(&text).expect_err("strict");
    assert_eq!(
        err.0,
        "unknown key 'serialise_sends' in SimConfig (did you mean 'serialize_sends'?)"
    );
    let twice = json::to_string(&small_config()).replacen("{", "{\"steps\":9,", 1);
    let err = json::from_str::<SimConfig>(&twice).expect_err("strict");
    assert_eq!(err.0, "duplicate key 'steps' in SimConfig");
}

// ---------------------------------------------------------------------------
// Committed data
// ---------------------------------------------------------------------------

/// Decode every `dir/prefix*.json` strictly as a `T` and check it
/// re-encodes to the same JSON value. A file written before a defaulted
/// top-level key existed gains that key, at an empty default, and nothing
/// else.
fn committed_files_round_trip<T: FromJson + ToJson>(dir: &str, prefix: &str) -> usize {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with(prefix) && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable file");
        let v = Json::parse(&text).expect("valid JSON");
        let decoded = T::from_json(&v).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut back = decoded.to_json();
        if let (Json::Object(fields), Some(had)) = (&mut back, v.as_object()) {
            fields.retain(|(k, filled)| {
                had.iter().any(|(h, _)| h == k) || *filled != Json::Array(vec![])
            });
        }
        assert_eq!(back, v, "{} re-encodes differently", path.display());
        seen += 1;
    }
    seen
}

#[test]
fn committed_configs_and_bench_files_decode_strictly() {
    assert!(committed_files_round_trip::<SimConfig>("examples/configs", "") >= 3);
    assert!(committed_files_round_trip::<BenchReport>(".", "BENCH_") >= 4);
}
