//! Determinism tests: the same master seed must produce bit-identical
//! traces no matter how often, in what process, or on how many threads
//! the simulation runs. This is the property every golden-figure test
//! and every claim in the paper reproduction rests on, and it is exactly
//! what accidental `HashMap` iteration, thread-scheduling dependence, or
//! global RNG state would silently break.

mod common;

use idle_waves::idlewave::{WaveExperiment, WaveTrace};
use idle_waves::prelude::*;

const MS: SimDuration = SimDuration::from_millis(1);

/// A deliberately "busy" configuration: noise on every rank, an injected
/// delay, rendezvous handshakes, and a periodic ring — every stochastic
/// and ordering-sensitive code path at once.
fn noisy_config(seed: u64) -> SimConfig {
    WaveExperiment::flat_chain(20)
        .direction(Direction::Bidirectional)
        .boundary(Boundary::Periodic)
        .rendezvous()
        .texec(MS.times(2))
        .steps(24)
        .inject(7, 1, MS.times(9))
        .noise_percent(8.0)
        .seed(seed)
        .into_config()
}

#[test]
fn same_seed_gives_bit_identical_traces() {
    let cfg = noisy_config(0xD5EED);
    let a = WaveTrace::from_config(cfg.clone());
    let b = WaveTrace::from_config(cfg);
    assert_eq!(a.trace, b.trace, "re-running the same config diverged");
    assert_eq!(a.baseline_comm, b.baseline_comm);
    assert_eq!(a.step_duration, b.step_duration);
}

#[test]
fn different_seeds_actually_differ() {
    // Guards the test above against vacuity: if the noise model ignored
    // the seed, "same seed ⇒ same trace" would hold trivially.
    let a = WaveTrace::from_config(noisy_config(1));
    let b = WaveTrace::from_config(noisy_config(2));
    assert_ne!(a.trace, b.trace, "noise is not seed-dependent");
}

#[test]
fn batch_results_are_independent_of_thread_count() {
    let seeds: Vec<u64> = (0..10).collect();
    let configs: Vec<SimConfig> = seeds.iter().map(|&s| noisy_config(s)).collect();
    let reference = common::sweep_summaries("determinism-seeds", &configs, 1);
    for threads in [2, 4, 8] {
        let parallel = common::sweep_summaries("determinism-seeds", &configs, threads);
        assert_eq!(parallel.len(), reference.len());
        for (i, (p, r)) in parallel.iter().zip(&reference).enumerate() {
            assert_eq!(
                (p.trace_fingerprint, p.events),
                (r.trace_fingerprint, r.events),
                "seed {} diverged on {threads} threads",
                seeds[i]
            );
        }
    }
}

#[test]
fn batch_order_matches_input_order() {
    // Each config gets a distinguishable step count so a shuffled result
    // vector cannot masquerade as correct.
    let configs: Vec<SimConfig> = (0..8)
        .map(|i| {
            let mut c = noisy_config(i);
            c.steps = 10 + i as u32;
            c
        })
        .collect();
    let out = common::sweep_summaries("determinism-order", &configs, 4);
    assert_eq!(out.len(), configs.len());
    for (i, (summary, cfg)) in out.iter().zip(configs).enumerate() {
        let direct = WaveTrace::from_config(cfg).trace;
        assert_eq!(direct.steps(), 10 + i as u32);
        assert_eq!(
            summary.trace_fingerprint,
            direct.fingerprint(),
            "slot {i} holds the wrong run"
        );
    }
}

#[test]
fn rng_streams_are_stable_across_processes() {
    // Pin the first few draws of a derived stream to literal values: this
    // fails if the xoshiro/SplitMix constants, the seeding walk, or the
    // stream-derivation scheme ever change — exactly the silent drift
    // that would invalidate all checked-in golden figures.
    let mut r = SeedFactory::new(42).stream("exec-noise", 3);
    let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
    assert_eq!(
        first,
        [
            0x8eef99a3ef80621f,
            0x4ab995a3bc13c8f8,
            0xe583e6ed37982b00,
            0x6a12050330633c2b,
        ],
        "derived RNG stream drifted — all golden figures are now invalid"
    );
    // Distinct master seeds shift the whole stream.
    let mut other = SeedFactory::new(43).stream("exec-noise", 3);
    assert_ne!(first[0], other.next_u64());
}
