//! Point-to-point communication patterns (paper Sec. II-C2).
//!
//! A [`CommPattern`] describes who talks to whom after every execution
//! phase:
//!
//! * **direction** — unidirectional (each rank sends "up" and receives
//!   "down") or bidirectional (full exchange with every neighbour);
//! * **distance** `d` — the largest neighbour offset; `d = 2` means partners
//!   at offsets 1 and 2 (the "multiple-neighbor" pattern of Fig. 7);
//! * **boundary** — open (waves die at the chain ends) or periodic (waves
//!   wrap around, Fig. 5 b/d/f/h).

/// Direction of the next-neighbour exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Each rank sends to higher ranks and receives from lower ranks.
    Unidirectional,
    /// Each rank exchanges (sends and receives) with neighbours on both
    /// sides.
    Bidirectional,
}

/// Boundary condition of the process chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// Non-periodic: ranks at the ends simply have fewer partners.
    Open,
    /// Periodic: the chain is a ring.
    Periodic,
}

/// A complete communication pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommPattern {
    /// Exchange direction.
    pub direction: Direction,
    /// Largest neighbour distance `d` (≥ 1).
    pub distance: u32,
    /// Chain boundary condition.
    pub boundary: Boundary,
}

impl CommPattern {
    /// Next-neighbour (`d = 1`) pattern.
    pub fn next_neighbor(direction: Direction, boundary: Boundary) -> Self {
        CommPattern {
            direction,
            distance: 1,
            boundary,
        }
    }

    /// Ranks that `rank` sends to, in deterministic order (distance 1 first;
    /// for bidirectional, the lower neighbour before the higher one).
    pub fn send_partners(&self, rank: u32, nranks: u32) -> Vec<u32> {
        self.partners(rank, nranks, true)
    }

    /// Ranks that `rank` receives from, in deterministic order.
    pub fn recv_partners(&self, rank: u32, nranks: u32) -> Vec<u32> {
        self.partners(rank, nranks, false)
    }

    fn partners(&self, rank: u32, nranks: u32, sending: bool) -> Vec<u32> {
        assert!(rank < nranks, "rank {rank} out of range");
        assert!(self.distance >= 1, "distance must be >= 1");
        assert!(
            match self.boundary {
                // A periodic ring needs enough ranks that a rank is not its
                // own partner and partners are distinct.
                Boundary::Periodic => nranks > 2 * self.distance,
                Boundary::Open => nranks > self.distance,
            },
            "{} ranks too few for distance {} with {:?} boundary",
            nranks,
            self.distance,
            self.boundary
        );
        let mut out = Vec::with_capacity(2 * self.distance as usize);
        for k in 1..=self.distance {
            match self.direction {
                Direction::Unidirectional => {
                    // Send "up" (rank + k), receive "down" (rank − k).
                    let offset = if sending { k as i64 } else { -(k as i64) };
                    if let Some(p) = self.resolve(rank, offset, nranks) {
                        out.push(p);
                    }
                }
                Direction::Bidirectional => {
                    for offset in [-(k as i64), k as i64] {
                        if let Some(p) = self.resolve(rank, offset, nranks) {
                            out.push(p);
                        }
                    }
                }
            }
        }
        out
    }

    fn resolve(&self, rank: u32, offset: i64, nranks: u32) -> Option<u32> {
        let target = i64::from(rank) + offset;
        match self.boundary {
            Boundary::Open => {
                if (0..i64::from(nranks)).contains(&target) {
                    Some(target as u32)
                } else {
                    None
                }
            }
            Boundary::Periodic => Some(target.rem_euclid(i64::from(nranks)) as u32),
        }
    }

    /// Number of messages a full step moves across all ranks (for
    /// reporting / sanity checks).
    pub fn total_messages(&self, nranks: u32) -> usize {
        (0..nranks)
            .map(|r| self.send_partners(r, nranks).len())
            .sum()
    }
}

tracefmt::json_codec! {
    enum Direction { Unidirectional, Bidirectional }
}

tracefmt::json_codec! {
    enum Boundary { Open, Periodic }
}

tracefmt::json_codec! {
    struct CommPattern { direction, distance, boundary }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unidirectional_open_interior() {
        let p = CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Open);
        assert_eq!(p.send_partners(5, 18), vec![6]);
        assert_eq!(p.recv_partners(5, 18), vec![4]);
    }

    #[test]
    fn unidirectional_open_edges() {
        let p = CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Open);
        assert_eq!(p.send_partners(17, 18), Vec::<u32>::new());
        assert_eq!(p.recv_partners(0, 18), Vec::<u32>::new());
        assert_eq!(p.send_partners(0, 18), vec![1]);
        assert_eq!(p.recv_partners(17, 18), vec![16]);
    }

    #[test]
    fn unidirectional_periodic_wraps() {
        let p = CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Periodic);
        assert_eq!(p.send_partners(17, 18), vec![0]);
        assert_eq!(p.recv_partners(0, 18), vec![17]);
    }

    #[test]
    fn bidirectional_open_interior_and_edges() {
        let p = CommPattern::next_neighbor(Direction::Bidirectional, Boundary::Open);
        assert_eq!(p.send_partners(5, 18), vec![4, 6]);
        assert_eq!(p.recv_partners(5, 18), vec![4, 6]);
        assert_eq!(p.send_partners(0, 18), vec![1]);
        assert_eq!(p.send_partners(17, 18), vec![16]);
    }

    #[test]
    fn distance_two_orders_by_distance() {
        let p = CommPattern {
            direction: Direction::Bidirectional,
            distance: 2,
            boundary: Boundary::Open,
        };
        assert_eq!(p.send_partners(8, 18), vec![7, 9, 6, 10]);
        let u = CommPattern {
            direction: Direction::Unidirectional,
            distance: 2,
            boundary: Boundary::Open,
        };
        assert_eq!(u.send_partners(8, 18), vec![9, 10]);
        assert_eq!(u.recv_partners(8, 18), vec![7, 6]);
        // Edge clipping with d = 2.
        assert_eq!(u.send_partners(16, 18), vec![17]);
        assert_eq!(u.recv_partners(1, 18), vec![0]);
    }

    #[test]
    fn periodic_distance_two_wraps_correctly() {
        let p = CommPattern {
            direction: Direction::Bidirectional,
            distance: 2,
            boundary: Boundary::Periodic,
        };
        assert_eq!(p.send_partners(0, 18), vec![17, 1, 16, 2]);
    }

    #[test]
    fn sends_and_recvs_are_consistent() {
        // If a sends to b, then b must list a as a receive partner.
        for (dir, bound, d) in [
            (Direction::Unidirectional, Boundary::Open, 1),
            (Direction::Unidirectional, Boundary::Periodic, 2),
            (Direction::Bidirectional, Boundary::Open, 2),
            (Direction::Bidirectional, Boundary::Periodic, 3),
        ] {
            let p = CommPattern {
                direction: dir,
                distance: d,
                boundary: bound,
            };
            let n = 18;
            for a in 0..n {
                for b in p.send_partners(a, n) {
                    assert!(
                        p.recv_partners(b, n).contains(&a),
                        "{p:?}: {a} sends to {b} but {b} does not recv from {a}"
                    );
                }
                for b in p.recv_partners(a, n) {
                    assert!(
                        p.send_partners(b, n).contains(&a),
                        "{p:?}: {a} recvs from {b} but {b} does not send to {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_self_partners() {
        for bound in [Boundary::Open, Boundary::Periodic] {
            let p = CommPattern {
                direction: Direction::Bidirectional,
                distance: 2,
                boundary: bound,
            };
            for r in 0..8 {
                assert!(!p.send_partners(r, 8).contains(&r));
                assert!(!p.recv_partners(r, 8).contains(&r));
            }
        }
    }

    #[test]
    fn message_counts() {
        let uni = CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Periodic);
        assert_eq!(uni.total_messages(18), 18);
        let bi = CommPattern::next_neighbor(Direction::Bidirectional, Boundary::Periodic);
        assert_eq!(bi.total_messages(18), 36);
        let uni_open = CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Open);
        assert_eq!(uni_open.total_messages(18), 17);
    }

    #[test]
    #[should_panic(expected = "too few")]
    fn periodic_ring_too_small_panics() {
        let p = CommPattern {
            direction: Direction::Bidirectional,
            distance: 2,
            boundary: Boundary::Periodic,
        };
        p.send_partners(0, 4);
    }
}
