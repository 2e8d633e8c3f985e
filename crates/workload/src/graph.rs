//! Arbitrary communication graphs and per-step schedules.
//!
//! The paper's experiments use regular neighbour patterns
//! ([`crate::CommPattern`]); its outlook asks how "more advanced
//! point-to-point and also collective communication patterns influence
//! the idle wave phenomenon". This module provides the machinery:
//!
//! * [`CommGraph`] — an explicit directed send graph (who sends to whom in
//!   one communication phase);
//! * [`CommSchedule`] — a cyclic sequence of graphs, one per step, which
//!   is exactly how collectives decompose (e.g. a recursive-doubling
//!   allreduce is `log₂(n)` rounds of pairwise exchanges at doubling
//!   distances).

use tracefmt::json;

/// A directed communication graph for one bulk-synchronous step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommGraph {
    /// `sends[r]` = ranks that rank `r` sends one message to.
    sends: Vec<Vec<u32>>,
    /// Derived inverse adjacency: `recvs[r]` = ranks `r` receives from.
    recvs: Vec<Vec<u32>>,
}

impl CommGraph {
    /// Build from explicit send lists.
    ///
    /// # Panics
    /// Panics on self-edges, out-of-range targets, or duplicate edges
    /// (one message per ordered pair per step is the engine's matching
    /// granularity).
    pub fn from_sends(sends: Vec<Vec<u32>>) -> Self {
        CommGraph::checked(sends).unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`CommGraph::from_sends`] that reports an invalid edge instead of
    /// panicking on it.
    fn checked(sends: Vec<Vec<u32>>) -> Result<Self, String> {
        let n = sends.len() as u32;
        if n == 0 {
            return Err("empty graph".into());
        }
        let mut recvs = vec![Vec::new(); sends.len()];
        for (r, targets) in sends.iter().enumerate() {
            let mut seen = std::collections::BTreeSet::new();
            for &t in targets {
                if t >= n {
                    return Err(format!("rank {r} sends to out-of-range rank {t}"));
                } else if t as usize == r {
                    return Err(format!("rank {r} sends to itself"));
                } else if !seen.insert(t) {
                    return Err(format!("rank {r} sends twice to {t}"));
                }
                recvs[t as usize].push(r as u32);
            }
        }
        Ok(CommGraph { sends, recvs })
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u32 {
        self.sends.len() as u32
    }

    /// Ranks that `rank` sends to this step.
    pub fn send_partners(&self, rank: u32) -> &[u32] {
        &self.sends[rank as usize]
    }

    /// Ranks that `rank` receives from this step.
    pub fn recv_partners(&self, rank: u32) -> &[u32] {
        &self.recvs[rank as usize]
    }

    /// Total directed edges (messages per step).
    pub fn edges(&self) -> usize {
        self.sends.iter().map(Vec::len).sum()
    }

    /// A graph with no communication at all (a pure compute round).
    pub fn silent(ranks: u32) -> Self {
        CommGraph::from_sends(vec![Vec::new(); ranks as usize])
    }

    /// One recursive-doubling stage: every rank exchanges with
    /// `rank XOR 2^stage`. Requires `ranks` to be a power of two.
    ///
    /// # Panics
    /// Panics if `ranks` is not a power of two or `stage` addresses a bit
    /// outside it.
    pub fn hypercube_stage(ranks: u32, stage: u32) -> Self {
        assert!(
            ranks.is_power_of_two(),
            "hypercube needs a power-of-two rank count"
        );
        assert!(
            1 << stage < ranks,
            "stage {stage} out of range for {ranks} ranks"
        );
        let mask = 1u32 << stage;
        let sends = (0..ranks).map(|r| vec![r ^ mask]).collect();
        CommGraph::from_sends(sends)
    }

    /// One binomial-tree *gather* round: at round `k`, ranks whose low
    /// `k+1` bits equal `2^k` send to the partner with that bit cleared
    /// (the classic MPI_Reduce tree; root is rank 0).
    ///
    /// # Panics
    /// Panics if `round` is past the tree depth for `ranks`.
    pub fn binomial_gather_round(ranks: u32, round: u32) -> Self {
        assert!(
            1u32 << round < ranks.next_power_of_two(),
            "round out of range"
        );
        let bit = 1u32 << round;
        let mut sends = vec![Vec::new(); ranks as usize];
        for r in 0..ranks {
            if r & bit != 0 && r & (bit - 1) == 0 {
                let target = r & !bit;
                if target < ranks {
                    sends[r as usize].push(target);
                }
            }
        }
        CommGraph::from_sends(sends)
    }
}

/// A cyclic per-step sequence of communication graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSchedule {
    rounds: Vec<CommGraph>,
}

// The inverse adjacency is derived, so only the send lists travel.
tracefmt::json_codec! {
    struct CommGraph { sends } => CommGraph::checked(sends).map_err(json::JsonError)
}

tracefmt::json_codec! {
    struct CommSchedule { rounds } => CommSchedule::checked(rounds).map_err(json::JsonError)
}

impl CommSchedule {
    /// Cycle through `rounds` (step `s` uses `rounds[s % len]`).
    ///
    /// # Panics
    /// Panics if `rounds` is empty or the graphs disagree on rank count.
    pub fn cyclic(rounds: Vec<CommGraph>) -> Self {
        CommSchedule::checked(rounds).unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`CommSchedule::cyclic`] that reports invalid rounds instead of
    /// panicking on them.
    fn checked(rounds: Vec<CommGraph>) -> Result<Self, String> {
        match rounds.first().map(CommGraph::ranks) {
            None => Err("schedule needs at least one round".into()),
            Some(n) if rounds.iter().any(|g| g.ranks() != n) => {
                Err("all rounds must have the same rank count".into())
            }
            Some(_) => Ok(CommSchedule { rounds }),
        }
    }

    /// The same graph every step.
    pub fn uniform(graph: CommGraph) -> Self {
        CommSchedule::cyclic(vec![graph])
    }

    /// A full recursive-doubling allreduce as a repeating super-step:
    /// `log₂(ranks)` hypercube stages per application iteration.
    ///
    /// # Panics
    /// Panics unless `ranks` is a power of two and at least 2.
    pub fn hypercube_allreduce(ranks: u32) -> Self {
        assert!(
            ranks.is_power_of_two() && ranks >= 2,
            "need a power of two >= 2"
        );
        let stages = (0..ranks.trailing_zeros())
            .map(|s| CommGraph::hypercube_stage(ranks, s))
            .collect();
        CommSchedule::cyclic(stages)
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u32 {
        self.rounds[0].ranks()
    }

    /// Number of rounds in one cycle.
    pub fn rounds_per_cycle(&self) -> u32 {
        self.rounds.len() as u32
    }

    /// The graph used in step `step`.
    pub fn graph_for(&self, step: u32) -> &CommGraph {
        &self.rounds[step as usize % self.rounds.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sends_builds_inverse_adjacency() {
        let g = CommGraph::from_sends(vec![vec![1, 2], vec![2], vec![]]);
        assert_eq!(g.ranks(), 3);
        assert_eq!(g.send_partners(0), &[1, 2]);
        assert_eq!(g.recv_partners(2), &[0, 1]);
        assert_eq!(g.recv_partners(0), &[] as &[u32]);
        assert_eq!(g.edges(), 3);
    }

    #[test]
    #[should_panic(expected = "sends to itself")]
    fn self_edge_panics() {
        CommGraph::from_sends(vec![vec![0]]);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_edge_panics() {
        CommGraph::from_sends(vec![vec![5], vec![]]);
    }

    #[test]
    #[should_panic(expected = "sends twice")]
    fn duplicate_edge_panics() {
        CommGraph::from_sends(vec![vec![1, 1], vec![]]);
    }

    #[test]
    fn hypercube_stage_is_a_perfect_matching() {
        let g = CommGraph::hypercube_stage(8, 1);
        for r in 0..8u32 {
            assert_eq!(g.send_partners(r), &[r ^ 2]);
            assert_eq!(g.recv_partners(r), &[r ^ 2]);
        }
        assert_eq!(g.edges(), 8);
    }

    #[test]
    fn binomial_gather_rounds_converge_on_root() {
        // 8 ranks: round 0 pairs (1->0, 3->2, 5->4, 7->6); round 1 sends
        // 2->0, 6->4; round 2 sends 4->0.
        let r0 = CommGraph::binomial_gather_round(8, 0);
        assert_eq!(r0.send_partners(1), &[0]);
        assert_eq!(r0.send_partners(7), &[6]);
        assert_eq!(r0.send_partners(2), &[] as &[u32]);
        let r1 = CommGraph::binomial_gather_round(8, 1);
        assert_eq!(r1.send_partners(2), &[0]);
        assert_eq!(r1.send_partners(6), &[4]);
        assert_eq!(r1.send_partners(1), &[] as &[u32]);
        let r2 = CommGraph::binomial_gather_round(8, 2);
        assert_eq!(r2.send_partners(4), &[0]);
        assert_eq!(r2.edges(), 1);
    }

    #[test]
    fn schedule_cycles() {
        let s = CommSchedule::hypercube_allreduce(8);
        assert_eq!(s.rounds_per_cycle(), 3);
        assert_eq!(s.graph_for(0).send_partners(0), &[1]);
        assert_eq!(s.graph_for(1).send_partners(0), &[2]);
        assert_eq!(s.graph_for(2).send_partners(0), &[4]);
        assert_eq!(s.graph_for(3).send_partners(0), &[1]); // wraps
        assert_eq!(s.ranks(), 8);
    }

    #[test]
    fn uniform_schedule_repeats_one_graph() {
        let g = CommGraph::from_sends(vec![vec![1], vec![0]]);
        let s = CommSchedule::uniform(g.clone());
        assert_eq!(s.graph_for(0), &g);
        assert_eq!(s.graph_for(17), &g);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hypercube_rejects_non_power_of_two() {
        CommGraph::hypercube_stage(6, 0);
    }

    #[test]
    #[should_panic(expected = "same rank count")]
    fn mismatched_rounds_panic() {
        CommSchedule::cyclic(vec![CommGraph::silent(2), CommGraph::silent(3)]);
    }

    #[test]
    fn silent_graph_has_no_edges() {
        let g = CommGraph::silent(4);
        assert_eq!(g.edges(), 0);
        for r in 0..4 {
            assert!(g.send_partners(r).is_empty());
        }
    }
}
