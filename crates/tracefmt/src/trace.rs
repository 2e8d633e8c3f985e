//! The full trace of a bulk-synchronous run: a dense `(rank, step)` matrix
//! of [`PhaseRecord`]s plus whole-run accessors.

use simdes::{SimDuration, SimTime};

use crate::json;
use crate::record::PhaseRecord;

/// A complete run trace: `ranks × steps` phase records in rank-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    ranks: u32,
    steps: u32,
    records: Vec<PhaseRecord>,
}

impl Trace {
    /// Assemble a trace from records. The records may arrive in any order
    /// but must cover every `(rank, step)` pair exactly once.
    ///
    /// # Panics
    /// Panics if coverage is incomplete, duplicated, or out of range.
    pub fn from_records(ranks: u32, steps: u32, records: Vec<PhaseRecord>) -> Self {
        Trace::checked(ranks, steps, records).unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`Trace::from_records`] that reports a coverage violation instead of
    /// panicking on it. Places the records in one in-place pass: each
    /// swap moves a record to its rank-major home for good, so the pass is
    /// O(n), and a record whose home is already taken by its rightful
    /// owner is a duplicate. Records that arrive in place (the fused
    /// kernel writes them so) are checked without moving.
    fn checked(ranks: u32, steps: u32, mut records: Vec<PhaseRecord>) -> Result<Self, String> {
        if ranks == 0 || steps == 0 {
            return Err(format!("empty trace dimensions {ranks}x{steps}"));
        }
        let n = ranks as usize * steps as usize;
        if records.len() != n {
            return Err(format!("expected {n} records, got {}", records.len()));
        }
        let home = |r: &PhaseRecord| {
            (r.rank < ranks && r.step < steps)
                .then(|| r.rank as usize * steps as usize + r.step as usize)
        };
        for i in 0..n {
            loop {
                let r = &records[i];
                let j = home(r).ok_or_else(|| format!("record out of range: {r:?}"))?;
                if j == i {
                    break;
                }
                if home(&records[j]) == Some(j) {
                    return Err(format!(
                        "duplicate record for rank {} step {}",
                        r.rank, r.step
                    ));
                }
                records.swap(i, j);
            }
        }
        Ok(Trace {
            ranks,
            steps,
            records,
        })
    }

    /// [`Trace::from_records`] for pooled engines: empties `records`,
    /// leaving the caller's buffer and its capacity behind for reuse by
    /// the next run. The trace owns a fresh exact-size allocation.
    ///
    /// # Panics
    /// Panics under the same coverage rules as [`Trace::from_records`].
    pub fn from_record_buffer(ranks: u32, steps: u32, records: &mut Vec<PhaseRecord>) -> Self {
        let trace = Trace::from_records(ranks, steps, records.to_vec());
        records.clear();
        trace
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Number of steps.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// The record for `(rank, step)`.
    ///
    /// # Panics
    ///
    /// If `rank` or `step` is out of range.
    pub fn record(&self, rank: u32, step: u32) -> &PhaseRecord {
        assert!(
            rank < self.ranks && step < self.steps,
            "({rank},{step}) out of range"
        );
        &self.records[rank as usize * self.steps as usize + step as usize]
    }

    /// All records of one rank, in step order.
    ///
    /// # Panics
    ///
    /// If `rank` is out of range.
    pub fn rank_records(&self, rank: u32) -> &[PhaseRecord] {
        assert!(rank < self.ranks, "rank {rank} out of range");
        let s = self.steps as usize;
        &self.records[rank as usize * s..(rank as usize + 1) * s]
    }

    /// Iterate over all records (rank-major).
    pub fn iter(&self) -> impl Iterator<Item = &PhaseRecord> {
        self.records.iter()
    }

    /// Wall-clock time at which `rank` finished its last step.
    pub fn finish_time(&self, rank: u32) -> SimTime {
        self.record(rank, self.steps - 1).comm_end
    }

    /// Wall-clock time at which the whole run finished (slowest rank).
    pub fn total_runtime(&self) -> SimTime {
        (0..self.ranks)
            .map(|r| self.finish_time(r))
            .max()
            .expect("ranks > 0")
    }

    /// Total time spent in communication phases on `rank`.
    pub fn total_comm(&self, rank: u32) -> SimDuration {
        self.rank_records(rank)
            .iter()
            .map(|r| r.comm_duration())
            .sum()
    }

    /// Total idle time beyond `baseline` per communication phase on `rank`.
    pub fn total_idle_beyond(&self, rank: u32, baseline: SimDuration) -> SimDuration {
        self.rank_records(rank)
            .iter()
            .map(|r| r.idle_beyond(baseline))
            .sum()
    }

    /// Per-rank wall-clock time at which step `step` ended — the red
    /// markers of Fig. 2's timeline snapshots.
    pub fn step_front(&self, step: u32) -> Vec<SimTime> {
        (0..self.ranks)
            .map(|r| self.record(r, step).comm_end)
            .collect()
    }

    /// The idle matrix: `idle[rank][step] = comm_duration − baseline`,
    /// saturating at zero. The raw material of all wave analysis.
    pub fn idle_matrix(&self, baseline: SimDuration) -> Vec<Vec<SimDuration>> {
        (0..self.ranks)
            .map(|r| {
                self.rank_records(r)
                    .iter()
                    .map(|rec| rec.idle_beyond(baseline))
                    .collect()
            })
            .collect()
    }

    /// Smallest communication-phase duration in the whole trace — a robust
    /// empirical baseline when the analytic one is not known.
    pub fn min_comm_duration(&self) -> SimDuration {
        self.records
            .iter()
            .map(|r| r.comm_duration())
            .min()
            .expect("non-empty trace")
    }

    /// Content digest of the whole trace: FNV-1a over the shape and every
    /// field of every record, in rank-major order. Two traces have equal
    /// fingerprints iff they are bit-identical (modulo the 64-bit hash),
    /// so sweep results can assert determinism across runs and machines
    /// without persisting full traces.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        h.write_u64(u64::from(self.ranks));
        h.write_u64(u64::from(self.steps));
        for r in &self.records {
            h.write_u64(u64::from(r.rank));
            h.write_u64(u64::from(r.step));
            h.write_u64(r.exec_start.0);
            h.write_u64(r.exec_end.0);
            h.write_u64(r.comm_end.0);
            h.write_u64(r.injected.0);
            h.write_u64(r.noise.0);
        }
        h.finish()
    }
}

crate::json_codec! {
    struct Trace { ranks, steps, records }
        => Trace::checked(ranks, steps, records).map_err(json::JsonError)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, Json, ToJson};

    /// A hand-built 2-rank, 2-step trace where rank 1 idles in step 0.
    fn tiny() -> Trace {
        let mk = |rank, step, es, ee, ce, inj| PhaseRecord {
            rank,
            step,
            exec_start: SimTime(es),
            exec_end: SimTime(ee),
            comm_end: SimTime(ce),
            injected: SimDuration(inj),
            noise: SimDuration::ZERO,
        };
        Trace::from_records(
            2,
            2,
            vec![
                mk(0, 0, 0, 100, 110, 0),
                mk(0, 1, 110, 210, 220, 0),
                mk(1, 0, 0, 100, 160, 0), // 50 ns idle
                mk(1, 1, 160, 260, 270, 0),
            ],
        )
    }

    #[test]
    fn accessors() {
        let t = tiny();
        assert_eq!(t.ranks(), 2);
        assert_eq!(t.steps(), 2);
        assert_eq!(t.record(1, 0).comm_duration(), SimDuration(60));
        assert_eq!(t.rank_records(1).len(), 2);
        assert_eq!(t.finish_time(0), SimTime(220));
        assert_eq!(t.total_runtime(), SimTime(270));
    }

    #[test]
    fn totals_and_idle() {
        let t = tiny();
        assert_eq!(t.total_comm(1), SimDuration(70));
        assert_eq!(t.total_idle_beyond(1, SimDuration(10)), SimDuration(50));
        assert_eq!(t.total_idle_beyond(0, SimDuration(10)), SimDuration::ZERO);
        assert_eq!(t.min_comm_duration(), SimDuration(10));
    }

    #[test]
    fn idle_matrix_shape_and_content() {
        let t = tiny();
        let m = t.idle_matrix(SimDuration(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], vec![SimDuration::ZERO, SimDuration::ZERO]);
        assert_eq!(m[1], vec![SimDuration(50), SimDuration::ZERO]);
    }

    #[test]
    fn step_front() {
        let t = tiny();
        assert_eq!(t.step_front(0), vec![SimTime(110), SimTime(160)]);
    }

    #[test]
    fn records_may_arrive_shuffled() {
        let t = tiny();
        let mut recs: Vec<_> = t.iter().copied().collect();
        recs.reverse();
        let u = Trace::from_records(2, 2, recs);
        assert_eq!(t, u);
    }

    #[test]
    #[should_panic(expected = "expected 4 records")]
    fn missing_record_panics() {
        let t = tiny();
        let recs: Vec<_> = t.iter().copied().take(3).collect();
        Trace::from_records(2, 2, recs);
    }

    #[test]
    #[should_panic(expected = "duplicate record")]
    fn duplicate_record_panics() {
        let t = tiny();
        let mut recs: Vec<_> = t.iter().copied().collect();
        recs[1] = recs[0];
        Trace::from_records(2, 2, recs);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_record_panics() {
        let t = tiny();
        let mut recs: Vec<_> = t.iter().copied().collect();
        recs[0].rank = 9;
        Trace::from_records(2, 2, recs);
    }

    #[test]
    fn json_round_trip() {
        let t = tiny();
        let json = json::to_string(&t);
        let back: Trace = json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let t = tiny();
        assert_eq!(t.fingerprint(), tiny().fingerprint());
        let mut recs: Vec<PhaseRecord> = t.iter().copied().collect();
        recs[3].comm_end = SimTime(recs[3].comm_end.0 + 1);
        let tweaked = Trace::from_records(2, 2, recs);
        assert_ne!(t.fingerprint(), tweaked.fingerprint());
        // A JSON round trip preserves the fingerprint exactly.
        let back: Trace = json::from_str(&json::to_string(&t)).unwrap();
        assert_eq!(t.fingerprint(), back.fingerprint());
    }

    #[test]
    fn json_parse_rejects_malformed_traces() {
        let t = tiny();
        let mut v = t.to_json();
        if let Json::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "ranks" {
                    *val = Json::UInt(5); // wrong shape for 4 records
                }
            }
        }
        assert!(Trace::from_json(&v).is_err());
    }
}
