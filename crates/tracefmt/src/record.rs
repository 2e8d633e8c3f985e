//! Per-phase trace records.
//!
//! Every `(rank, step)` of a bulk-synchronous run produces one
//! [`PhaseRecord`]: when the execution phase started and ended, how much of
//! the execution phase was an injected one-off delay or sampled noise, and
//! when the communication phase (post + Waitall) completed. This is the
//! same information an MPI trace collector (the paper used Intel Trace
//! Analyzer) provides, reduced to what the idle-wave analysis needs.

use simdes::{SimDuration, SimTime};

/// Timing of one execution + communication cycle on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Rank that executed the phase.
    pub rank: u32,
    /// Zero-based time step.
    pub step: u32,
    /// Start of the execution phase.
    pub exec_start: SimTime,
    /// End of the execution phase = start of the communication phase.
    pub exec_end: SimTime,
    /// End of the communication phase (Waitall return).
    pub comm_end: SimTime,
    /// Portion of the execution phase that was an injected one-off delay.
    pub injected: SimDuration,
    /// Portion of the execution phase that was sampled fine-grained noise.
    pub noise: SimDuration,
}

impl PhaseRecord {
    /// Length of the execution phase (work + injected delay + noise).
    pub fn exec_duration(&self) -> SimDuration {
        self.exec_end.since(self.exec_start)
    }

    /// Length of the communication phase, *including* any time spent
    /// waiting on late partners. The idle-wave signal lives here.
    pub fn comm_duration(&self) -> SimDuration {
        self.comm_end.since(self.exec_end)
    }

    /// Length of the pure-work part of the execution phase.
    pub fn work_duration(&self) -> SimDuration {
        self.exec_duration()
            .saturating_sub(self.injected)
            .saturating_sub(self.noise)
    }

    /// Communication time in excess of `baseline`: the per-step idle
    /// (waiting) time, which is what propagates as an idle wave. Saturates
    /// at zero — a step can never beat the baseline by definition of
    /// baseline, but clock granularity can make it appear a hair faster.
    pub fn idle_beyond(&self, baseline: SimDuration) -> SimDuration {
        self.comm_duration().saturating_sub(baseline)
    }

    /// A cheap 64-bit mix of every field. Two records have equal digests
    /// iff they are bit-identical (modulo the 64-bit hash). Summary-mode
    /// runs fold these into an order-insensitive run digest instead of
    /// retaining the records, so the mixer is a handful of multiply/shift
    /// rounds rather than a byte-wise FNV pass — it sits on the engine's
    /// per-step hot path.
    #[inline]
    pub fn digest(&self) -> u64 {
        Self::digest_of_parts(
            self.rank,
            self.step,
            self.exec_start,
            self.exec_end,
            self.comm_end,
            self.injected,
            self.noise,
        )
    }

    /// [`PhaseRecord::digest`] computed straight from the fields, without
    /// materializing a record. Summary-mode folds sit on the engine's
    /// per-step hot path and already hold every field in scalar form;
    /// this skips the struct round-trip. Bit-identical to `digest()` by
    /// construction (the method delegates here).
    #[inline]
    pub fn digest_of_parts(
        rank: u32,
        step: u32,
        exec_start: SimTime,
        exec_end: SimTime,
        comm_end: SimTime,
        injected: SimDuration,
        noise: SimDuration,
    ) -> u64 {
        // One rotate-xor-multiply fold per word keeps every input bit in
        // play, and a single splitmix64 finalizer at the end provides the
        // avalanche; that is six multiplies total instead of two per word.
        let mut h = 0x9e37_79b9_7f4a_7c15_u64;
        for w in [
            (u64::from(rank) << 32) | u64::from(step),
            exec_start.0,
            exec_end.0,
            comm_end.0,
            injected.0,
            noise.0,
        ] {
            h = (h.rotate_left(13) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        // splitmix64 finalizer: full avalanche in three rounds.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

crate::json_codec! {
    struct PhaseRecord { rank, step, exec_start, exec_end, comm_end, injected, noise }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn rec() -> PhaseRecord {
        PhaseRecord {
            rank: 3,
            step: 7,
            exec_start: SimTime(1_000),
            exec_end: SimTime(4_000),
            comm_end: SimTime(4_500),
            injected: SimDuration(500),
            noise: SimDuration(100),
        }
    }

    #[test]
    fn durations() {
        let r = rec();
        assert_eq!(r.exec_duration(), SimDuration(3_000));
        assert_eq!(r.comm_duration(), SimDuration(500));
        assert_eq!(r.work_duration(), SimDuration(2_400));
    }

    #[test]
    fn digest_of_parts_matches_the_struct_digest() {
        // The committed BENCH digests pin this value; the scalar form
        // must be the same hash, bit for bit.
        let r = rec();
        assert_eq!(
            r.digest(),
            PhaseRecord::digest_of_parts(
                r.rank,
                r.step,
                r.exec_start,
                r.exec_end,
                r.comm_end,
                r.injected,
                r.noise
            )
        );
        assert_eq!(rec().digest(), rec().digest(), "digest must be pure");
        let mut other = rec();
        other.comm_end = SimTime(4_501);
        assert_ne!(r.digest(), other.digest());
    }

    #[test]
    fn idle_beyond_baseline() {
        let r = rec();
        assert_eq!(r.idle_beyond(SimDuration(200)), SimDuration(300));
        assert_eq!(r.idle_beyond(SimDuration(500)), SimDuration::ZERO);
        assert_eq!(r.idle_beyond(SimDuration(900)), SimDuration::ZERO);
    }

    #[test]
    fn json_round_trip() {
        let r = rec();
        let json = json::to_string(&r);
        let back: PhaseRecord = json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
