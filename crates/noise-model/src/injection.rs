//! One-off delay injection.
//!
//! The paper distinguishes *noise* (fine-grained, statistical, every phase)
//! from *delays* (long, one-off, injected at a specific rank and time step).
//! This module describes the latter: an [`InjectionPlan`] maps `(rank,
//! step)` to an extra execution delay, with builders for every pattern used
//! in the paper:
//!
//! * a single delay at one rank (Fig. 4, 5, 7, 9),
//! * one delay on a fixed local rank of every socket, with equal, halved, or
//!   random durations (Fig. 6 a/b/c).

use simdes::{SeedFactory, SimDuration};
use std::collections::BTreeMap;

/// One planned delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Rank that stalls.
    pub rank: u32,
    /// Zero-based time step whose execution phase is lengthened.
    pub step: u32,
    /// Extra execution time.
    pub duration: SimDuration,
}

/// A set of one-off delays, queryable by `(rank, step)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InjectionPlan {
    injections: Vec<Injection>,
    index: BTreeMap<(u32, u32), SimDuration>,
}

impl InjectionPlan {
    /// No injected delays.
    pub fn none() -> Self {
        InjectionPlan::default()
    }

    /// Build from an explicit list. Multiple injections at the same `(rank,
    /// step)` accumulate.
    pub fn from_list(list: Vec<Injection>) -> Self {
        let mut index = BTreeMap::new();
        for inj in &list {
            *index
                .entry((inj.rank, inj.step))
                .or_insert(SimDuration::ZERO) += inj.duration;
        }
        InjectionPlan {
            injections: list,
            index,
        }
    }

    /// A single delay — the canonical idle-wave trigger.
    pub fn single(rank: u32, step: u32, duration: SimDuration) -> Self {
        Self::from_list(vec![Injection {
            rank,
            step,
            duration,
        }])
    }

    /// Fig. 6(a): the same delay on local rank `local` of each of
    /// `sockets` sockets (with `per_socket` ranks per socket), at `step`.
    ///
    /// # Panics
    ///
    /// If `local >= per_socket`.
    pub fn per_socket_equal(
        sockets: u32,
        per_socket: u32,
        local: u32,
        step: u32,
        duration: SimDuration,
    ) -> Self {
        assert!(local < per_socket, "local rank outside socket");
        let list = (0..sockets)
            .map(|s| Injection {
                rank: s * per_socket + local,
                step,
                duration,
            })
            .collect();
        Self::from_list(list)
    }

    /// Fig. 6(b): like [`InjectionPlan::per_socket_equal`] but the delay on
    /// odd sockets is half as long.
    ///
    /// # Panics
    ///
    /// If `local >= per_socket`.
    pub fn per_socket_half_on_odd(
        sockets: u32,
        per_socket: u32,
        local: u32,
        step: u32,
        duration: SimDuration,
    ) -> Self {
        assert!(local < per_socket, "local rank outside socket");
        let list = (0..sockets)
            .map(|s| Injection {
                rank: s * per_socket + local,
                step,
                duration: if s % 2 == 1 { duration / 2 } else { duration },
            })
            .collect();
        Self::from_list(list)
    }

    /// Fig. 6(c): a random delay, uniform on `[min, max]`, on the same
    /// local rank of each socket. Deterministic given the seed factory.
    ///
    /// # Panics
    ///
    /// If `local >= per_socket` or `min > max`.
    pub fn per_socket_random(
        sockets: u32,
        per_socket: u32,
        local: u32,
        step: u32,
        min: SimDuration,
        max: SimDuration,
        seeds: &SeedFactory,
    ) -> Self {
        assert!(local < per_socket, "local rank outside socket");
        assert!(min <= max, "inverted random-delay bounds");
        let mut rng = seeds.stream("injection", 0);
        let span = max.nanos() - min.nanos();
        let list = (0..sockets)
            .map(|s| Injection {
                rank: s * per_socket + local,
                step,
                duration: SimDuration(min.nanos() + rng.u64_inclusive(0, span)),
            })
            .collect();
        Self::from_list(list)
    }

    /// Delay to add to the execution phase of `(rank, step)`, zero if none.
    pub fn delay_for(&self, rank: u32, step: u32) -> SimDuration {
        self.index
            .get(&(rank, step))
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// All planned injections.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// `true` if nothing is injected.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// The longest single injected delay (zero for an empty plan). Fig. 6's
    /// "longest initial delays survive" analysis needs this.
    pub fn max_duration(&self) -> SimDuration {
        self.injections
            .iter()
            .map(|i| i.duration)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Rebuild the lookup index. JSON parsing goes through
    /// [`InjectionPlan::from_list`], which indexes eagerly, so this is only
    /// needed by callers that restored a plan through some other channel.
    pub fn reindex(&mut self) {
        self.index.clear();
        for inj in &self.injections {
            *self
                .index
                .entry((inj.rank, inj.step))
                .or_insert(SimDuration::ZERO) += inj.duration;
        }
    }
}

tracefmt::json_codec! {
    struct Injection { rank, step, duration }
}

tracefmt::json_codec! {
    struct InjectionPlan { injections } => Ok(InjectionPlan::from_list(injections))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracefmt::json;

    const MS: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn single_injection_lookup() {
        let p = InjectionPlan::single(5, 1, MS.times(13));
        assert_eq!(p.delay_for(5, 1), MS.times(13));
        assert_eq!(p.delay_for(5, 2), SimDuration::ZERO);
        assert_eq!(p.delay_for(4, 1), SimDuration::ZERO);
        assert!(!p.is_empty());
        assert_eq!(p.max_duration(), MS.times(13));
    }

    #[test]
    fn none_is_empty() {
        let p = InjectionPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.delay_for(0, 0), SimDuration::ZERO);
        assert_eq!(p.max_duration(), SimDuration::ZERO);
    }

    #[test]
    fn duplicate_injections_accumulate() {
        let p = InjectionPlan::from_list(vec![
            Injection {
                rank: 2,
                step: 3,
                duration: MS,
            },
            Injection {
                rank: 2,
                step: 3,
                duration: MS.times(2),
            },
        ]);
        assert_eq!(p.delay_for(2, 3), MS.times(3));
    }

    #[test]
    fn per_socket_equal_matches_fig6a() {
        // 10 sockets x 10 ranks, delay at local rank 5 => global 5, 15, ...
        let p = InjectionPlan::per_socket_equal(10, 10, 5, 0, MS.times(9));
        assert_eq!(p.injections().len(), 10);
        for s in 0..10 {
            assert_eq!(p.delay_for(s * 10 + 5, 0), MS.times(9));
        }
        assert_eq!(p.delay_for(6, 0), SimDuration::ZERO);
    }

    #[test]
    fn per_socket_half_matches_fig6b() {
        let p = InjectionPlan::per_socket_half_on_odd(4, 10, 5, 0, MS.times(8));
        assert_eq!(p.delay_for(5, 0), MS.times(8));
        assert_eq!(p.delay_for(15, 0), MS.times(4));
        assert_eq!(p.delay_for(25, 0), MS.times(8));
        assert_eq!(p.delay_for(35, 0), MS.times(4));
    }

    #[test]
    fn per_socket_random_is_bounded_and_reproducible() {
        let seeds = SeedFactory::new(99);
        let a = InjectionPlan::per_socket_random(10, 10, 5, 0, MS, MS.times(10), &seeds);
        let b = InjectionPlan::per_socket_random(10, 10, 5, 0, MS, MS.times(10), &seeds);
        assert_eq!(a, b);
        for inj in a.injections() {
            assert!(inj.duration >= MS && inj.duration <= MS.times(10));
            assert_eq!(inj.rank % 10, 5);
        }
        // Different seeds give different draws.
        let c = InjectionPlan::per_socket_random(
            10,
            10,
            5,
            0,
            MS,
            MS.times(10),
            &SeedFactory::new(100),
        );
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "outside socket")]
    fn local_rank_outside_socket_panics() {
        InjectionPlan::per_socket_equal(2, 10, 10, 0, MS);
    }

    #[test]
    fn reindex_restores_lookup() {
        let mut p = InjectionPlan::single(1, 2, MS);
        p.index.clear();
        assert_eq!(p.delay_for(1, 2), SimDuration::ZERO);
        p.reindex();
        assert_eq!(p.delay_for(1, 2), MS);
    }

    #[test]
    fn json_round_trip_restores_index() {
        let p = InjectionPlan::from_list(vec![
            Injection {
                rank: 2,
                step: 3,
                duration: MS,
            },
            Injection {
                rank: 2,
                step: 3,
                duration: MS.times(2),
            },
            Injection {
                rank: 7,
                step: 0,
                duration: MS.times(5),
            },
        ]);
        let text = json::to_string(&p);
        let back: InjectionPlan = json::from_str(&text).unwrap();
        assert_eq!(p, back);
        // The lookup index is rebuilt, not just the list.
        assert_eq!(back.delay_for(2, 3), MS.times(3));
        assert_eq!(back.delay_for(7, 0), MS.times(5));
    }
}
