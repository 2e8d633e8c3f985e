//! Property-based tests for trace assembly and rendering: any valid
//! record matrix must survive shuffling, JSON round trips, and rendering
//! without losing information.
//!
//! Driven by the in-tree `simdes::check` harness.

use simdes::check::{for_all, Gen, DEFAULT_CASES};
use simdes::{SimDuration, SimTime};
use tracefmt::json::{self, FromJson, Json, ToJson};
use tracefmt::{ascii_timeline, idle_csv, to_csv, AsciiOptions, PhaseRecord, Trace};

/// Generate a consistent random trace: per rank, phases are contiguous
/// and ordered.
fn trace(g: &mut Gen) -> Trace {
    let ranks = g.u32(1, 5);
    let steps = g.u32(1, 5);
    let mut records = Vec::with_capacity((ranks * steps) as usize);
    for r in 0..ranks {
        let mut t = 0u64;
        for s in 0..steps {
            let exec = g.u64(1, 999_999);
            let comm = g.u64(0, 999_999);
            let inj = g.u64(0, 199_999);
            let exec = exec + inj;
            records.push(PhaseRecord {
                rank: r,
                step: s,
                exec_start: SimTime(t),
                exec_end: SimTime(t + exec),
                comm_end: SimTime(t + exec + comm),
                injected: SimDuration(inj),
                noise: SimDuration::ZERO,
            });
            t += exec + comm;
        }
    }
    Trace::from_records(ranks, steps, records)
}

/// Shuffled record order produces the identical trace.
#[test]
fn record_order_is_irrelevant() {
    for_all("record_order_is_irrelevant", DEFAULT_CASES, |g| {
        let t = trace(g);
        let seed = g.any_u64();
        let mut recs: Vec<_> = t.iter().copied().collect();
        // Cheap deterministic shuffle.
        let n = recs.len();
        for i in 0..n {
            let j = (simdes::splitmix64(seed ^ i as u64) % n as u64) as usize;
            recs.swap(i, j);
        }
        let u = Trace::from_records(t.ranks(), t.steps(), recs.clone());
        assert_eq!(t, u);

        // Coverage violations after the shuffle: a dropped record, a
        // record overwritten by a copy of another (same count, so only
        // the placement pass can catch it), and an extra copy. Decoding
        // must report each one, not panic.
        let i = (seed % n as u64) as usize;
        let j = (i + 1) % n;
        let mut dropped = recs.clone();
        dropped.remove(i);
        let mut overwritten = recs.clone();
        overwritten[j] = recs[i];
        let mut extra = recs.clone();
        extra.push(recs[i]);
        for (what, bad) in [
            ("dropped", dropped),
            ("overwritten", overwritten),
            ("extra", extra),
        ] {
            if what == "overwritten" && i == j {
                continue; // a one-record trace has nothing to duplicate
            }
            let mut v = t.to_json();
            if let Json::Object(fields) = &mut v {
                for (k, val) in fields.iter_mut() {
                    if k == "records" {
                        *val = Json::Array(bad.iter().map(ToJson::to_json).collect());
                    }
                }
            }
            let decoded = Trace::from_json(&v);
            assert!(decoded.is_err(), "{what} record decoded: {decoded:?}");
        }
    });
}

/// JSON round trip is lossless.
#[test]
fn json_round_trip() {
    for_all("json_round_trip", DEFAULT_CASES, |g| {
        let t = trace(g);
        let text = json::to_string(&t);
        let back: Trace = json::from_str(&text).unwrap();
        assert_eq!(t, back);
    });
}

/// Aggregates are consistent with the records.
#[test]
fn aggregates_match_records() {
    for_all("aggregates_match_records", DEFAULT_CASES, |g| {
        let t = trace(g);
        let total = t.total_runtime();
        for r in 0..t.ranks() {
            assert!(t.finish_time(r) <= total);
            let sum: SimDuration = t.rank_records(r).iter().map(|x| x.comm_duration()).sum();
            assert_eq!(t.total_comm(r), sum);
        }
        let front = t.step_front(t.steps() - 1);
        assert_eq!(front.len() as u32, t.ranks());
        assert_eq!(front.iter().max().copied().unwrap(), total);
        assert!(t.min_comm_duration() <= t.record(0, 0).comm_duration());
    });
}

/// The idle matrix is the record-wise saturating subtraction.
#[test]
fn idle_matrix_matches_pointwise() {
    for_all("idle_matrix_matches_pointwise", DEFAULT_CASES, |g| {
        let t = trace(g);
        let b = SimDuration(g.u64(0, 499_999));
        let m = t.idle_matrix(b);
        for r in 0..t.ranks() {
            for s in 0..t.steps() {
                assert_eq!(
                    m[r as usize][s as usize],
                    t.record(r, s).comm_duration().saturating_sub(b)
                );
            }
        }
    });
}

/// Renderers never panic and produce structurally sane output.
#[test]
fn renderers_are_total() {
    for_all("renderers_are_total", DEFAULT_CASES, |g| {
        let t = trace(g);
        let width = g.usize(10, 199);
        let s = ascii_timeline(
            &t,
            &AsciiOptions {
                width,
                ..Default::default()
            },
        );
        // One line per rank plus the axis line.
        assert_eq!(s.lines().count() as u32, t.ranks() + 1);
        let csv = to_csv(&t);
        assert_eq!(csv.lines().count() as u32, t.ranks() * t.steps() + 1);
        let icsv = idle_csv(&t, SimDuration(1000));
        assert_eq!(icsv.lines().count() as u32, t.ranks() * t.steps() + 1);
    });
}
