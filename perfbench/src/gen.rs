//! Seeded workload generation. The workload seed is a benchmark
//! argument; the program under test only ever sees the scenarios built
//! here. The same seed always yields byte-identical scenarios.

use idlewave::sweep::Scenario;
use idlewave::WaveExperiment;
use mpisim::{fused_path_eligible, FaultPlan, SimConfig};
use simdes::{SimDuration, SimRng};
use workload::Direction;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold sweep of fused-eligible eager injected-delay studies.
    SweepWave,
    /// Cold sweep of configs the fused cascade cannot take.
    SweepRdvFaults,
    /// Open-loop submissions to a live `wavesim serve`.
    ServeMixed,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [
        Workload::SweepWave,
        Workload::SweepRdvFaults,
        Workload::ServeMixed,
    ];

    /// The workloads `BENCHMARK.json` declares, in its order. The
    /// `sweep-rdv-faults` control runs on request only: its spread on a
    /// shared 2-vCPU VM exceeded the benchmark's bound (see `README.md`).
    pub const DECLARED: [Workload; 2] = [Workload::SweepWave, Workload::ServeMixed];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepWave => "sweep-wave",
            Workload::SweepRdvFaults => "sweep-rdv-faults",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Shape of a sweep workload's suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSize {
    /// Ranks per scenario.
    pub ranks: u32,
    /// Steps per scenario.
    pub steps: u32,
    /// Scenarios per `run_sweep` call.
    pub batch: usize,
}

impl SweepSize {
    /// The measured size of a sweep workload: 8 scenarios of 1024 ranks
    /// and 12 steps per `run_sweep` call.
    pub fn full() -> SweepSize {
        SweepSize {
            ranks: 1024,
            steps: 12,
            batch: 8,
        }
    }

    /// A tiny size for the benchmark's own tests.
    pub fn small() -> SweepSize {
        SweepSize {
            ranks: 24,
            steps: 6,
            batch: 4,
        }
    }
}

/// Compute phase of the sweep studies (the paper's 3 ms `T_exec`).
const SWEEP_TEXEC: SimDuration = SimDuration::from_millis(3);

/// Execution-phase noise levels `E` [%] of the decay study.
const NOISE_LEVELS: [f64; 4] = [0.0, 2.0, 5.0, 10.0];

fn rng(seed: u64, stream: u64) -> SimRng {
    SimRng::seed_from_u64(simdes::splitmix64(seed) ^ stream)
}

/// One injected-delay study point: a flat chain of `size.ranks` ranks
/// with a delay of 1–10 `T_exec` at a seeded rank in step 0 or 1.
fn wave_point(r: &mut SimRng, size: SweepSize) -> WaveExperiment {
    let rank = r.u64_inclusive(0, u64::from(size.ranks) - 1) as u32;
    let step = r.u64_inclusive(0, 1) as u32;
    let delay = SWEEP_TEXEC.mul_f64(r.f64_in(1.0, 10.0));
    WaveExperiment::flat_chain(size.ranks)
        .texec(SWEEP_TEXEC)
        .steps(size.steps)
        .inject(rank, step, delay)
        .seed(r.next_u64())
}

// Sweep suites walk a fixed direction × noise grid by index, so every
// seed asks for the same mix of work and only the delay, its position
// and the noise draws are seeded.

fn direction(k: usize) -> Direction {
    if k.is_multiple_of(2) {
        Direction::Unidirectional
    } else {
        Direction::Bidirectional
    }
}

fn noise_level(k: usize) -> f64 {
    NOISE_LEVELS[k % NOISE_LEVELS.len()]
}

/// The `sweep-wave` suite: eager uni- and bidirectional chains with a
/// seeded delay at every noise level. Every config is fused-path
/// eligible.
pub fn sweep_wave(seed: u64, size: SweepSize) -> Vec<Scenario> {
    let mut r = rng(seed, 1);
    (0..size.batch)
        .map(|i| {
            let cfg = wave_point(&mut r, size)
                .direction(direction(i))
                .eager()
                .noise_percent(noise_level(i / 2))
                .into_config();
            Scenario::new(format!("wave-{i:03}"), cfg)
        })
        .collect()
}

/// The `sweep-rdv-faults` suite, alternating bidirectional rendezvous
/// chains (the σ = 2 case) and eager chains with a seeded message-drop
/// fault plan, over the same noise levels. No config is fused-path
/// eligible.
pub fn sweep_rdv_faults(seed: u64, size: SweepSize) -> Vec<Scenario> {
    let mut r = rng(seed, 2);
    (0..size.batch)
        .map(|i| {
            let (kind, exp) = if i % 2 == 0 {
                let exp = wave_point(&mut r, size)
                    .direction(Direction::Bidirectional)
                    .rendezvous();
                ("rdv", exp)
            } else {
                let drops = FaultPlan::none()
                    .with_drops(r.f64_in(0.005, 0.03), SimDuration::from_micros(200));
                let exp = wave_point(&mut r, size)
                    .direction(direction(i / 2))
                    .eager()
                    .faults(drops);
                ("drop", exp)
            };
            let cfg = exp.noise_percent(noise_level(i / 2)).into_config();
            Scenario::new(format!("{kind}-{i:03}"), cfg)
        })
        .collect()
}

/// The suite of a sweep workload.
///
/// # Panics
/// Panics for [`Workload::ServeMixed`], which has no sweep suite.
pub fn sweep_suite(workload: Workload, seed: u64, size: SweepSize) -> Vec<Scenario> {
    match workload {
        Workload::SweepWave => sweep_wave(seed, size),
        Workload::SweepRdvFaults => sweep_rdv_faults(seed, size),
        Workload::ServeMixed => panic!("serve-mixed has no sweep suite"),
    }
}

/// Check the input property each sweep workload exists for: every
/// `sweep-wave` config takes the fused cascade, no `sweep-rdv-faults`
/// config does.
pub fn check_sweep_property(workload: Workload, suite: &[Scenario]) -> Result<(), String> {
    let want = workload == Workload::SweepWave;
    match suite
        .iter()
        .find(|s| fused_path_eligible(&s.config) != want)
    {
        Some(s) => Err(format!(
            "{}: scenario '{}' has fused_path_eligible = {}, the workload needs {want}",
            workload.name(),
            s.id,
            !want
        )),
        None => Ok(()),
    }
}

/// Jobs in one `serve-mixed` population: the size of the serve population
/// `crates/bench` submits for its `serve-cold` and `serve-warm` rows.
pub const POPULATION: usize = 48;

/// One `serve-mixed` job config: the shape of the bench's serve
/// population (`loadgen_scenarios(48, 16, 16)`: a 16-rank flat chain,
/// 16 steps, `T_exec` = 200 µs) with a seeded injected delay.
fn serve_config(r: &mut SimRng) -> SimConfig {
    const RANKS: u32 = 16;
    let texec = SimDuration::from_micros(200);
    let rank = r.u64_inclusive(0, u64::from(RANKS) - 1) as u32;
    WaveExperiment::flat_chain(RANKS)
        .texec(texec)
        .steps(16)
        .inject(rank, 0, texec.mul_f64(r.f64_in(1.0, 5.0)))
        .seed(r.next_u64())
        .into_config()
}

/// `serve-mixed` jobs, in blocks of two [`POPULATION`]s: a population of
/// fresh configs, then the same configs again in a seeded order under new
/// ids — a user re-running the same study, as the bench's `serve-warm`
/// row does after `serve-cold`. `stream` separates lists drawn from one
/// seed. Returns the jobs and the realized share of repeats (1/2 for a
/// whole number of blocks).
pub fn serve_jobs(seed: u64, stream: u64, n: usize, prefix: &str) -> (Vec<Scenario>, f64) {
    let mut r = rng(seed, 0x5e00 + stream);
    let mut configs: Vec<SimConfig> = Vec::with_capacity(n + 2 * POPULATION);
    while configs.len() < n {
        let fresh: Vec<SimConfig> = (0..POPULATION).map(|_| serve_config(&mut r)).collect();
        let mut order: Vec<usize> = (0..POPULATION).collect();
        for i in (1..POPULATION).rev() {
            order.swap(i, r.index(i + 1));
        }
        configs.extend(fresh.iter().cloned());
        configs.extend(order.iter().map(|&k| fresh[k].clone()));
    }
    configs.truncate(n);
    let repeats = (0..n)
        .filter(|i| i % (2 * POPULATION) >= POPULATION)
        .count();
    let jobs = configs
        .into_iter()
        .enumerate()
        .map(|(i, cfg)| Scenario::new(format!("{prefix}-{i:06}"), cfg))
        .collect();
    let share = if n == 0 {
        0.0
    } else {
        repeats as f64 / n as f64
    };
    (jobs, share)
}
