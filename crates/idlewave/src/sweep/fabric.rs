//! The work-stealing fabric: sharded scenario queues and the chaos knobs
//! that let the drill attack the fabric itself.
//!
//! Scenarios are dealt round-robin into `N` shard deques (`index % N`,
//! the same function that picks their result shard). Worker `w` drains
//! its home shard `w % N` from the front; when the home shard is empty
//! it steals from the other shards — from the *back*, so thieves and the
//! home worker meet in the middle instead of contending on the same end.
//! Results are reassembled by scenario index, so steal order can change
//! *which worker* runs a scenario but never the merged report.
//!
//! A worker that dies ([`FabricChaos::kill_workers`], or a sink I/O
//! failure) is *retired*: it stops taking work and its queued items stay
//! in the shards for the surviving workers to steal. If every worker
//! retires, the supervisor thread drains the leftovers inline — the
//! fabric degrades to sequential execution, it never deadlocks.

use std::collections::VecDeque;
use std::sync::Mutex;

use super::Scenario;

/// Chaos knobs for the fabric itself, injected at the *worker* level —
/// one layer above [`super::Chaos`], which fails individual scenario
/// attempts, and two above the fault plan inside the config, which fails
/// the simulated cluster. Used by the self-chaos drill and tests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricChaos {
    /// `(worker, items)` pairs: worker `worker` is killed (retired)
    /// once it has completed exactly `items` scenarios — `0` kills it
    /// before it ever takes work — or, if the fabric runs dry before
    /// that, when it does: every scheduled kill fires whatever the steal
    /// order. Kills fire *between* items, so no attempt is lost mid-run
    /// and record contents stay bit-identical to an undisturbed sweep.
    pub kill_workers: Vec<(usize, usize)>,
}

impl FabricChaos {
    /// No fabric chaos (the default).
    pub fn none() -> Self {
        FabricChaos::default()
    }

    /// Should `worker` retire after having completed `done` items?
    pub(crate) fn kills(&self, worker: usize, done: usize) -> bool {
        self.kill_workers
            .iter()
            .any(|&(w, items)| w == worker && items == done)
    }

    /// Is a kill of `worker` still scheduled after `done` items?
    pub(crate) fn pending(&self, worker: usize, done: usize) -> bool {
        self.kill_workers
            .iter()
            .any(|&(w, items)| w == worker && items > done)
    }
}

/// One unit of sweep work: a scenario plus its input index (its result
/// slot and shard).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkItem<'a> {
    pub(crate) idx: usize,
    pub(crate) scenario: &'a Scenario,
}

/// The sharded deques workers pull from.
pub(crate) struct ShardQueues<'a> {
    shards: Vec<Mutex<VecDeque<WorkItem<'a>>>>,
}

impl<'a> ShardQueues<'a> {
    /// `nshards` empty deques (at least one).
    pub(crate) fn new(nshards: usize) -> Self {
        let nshards = nshards.max(1);
        let mut shards = Vec::with_capacity(nshards);
        shards.resize_with(nshards, || Mutex::new(VecDeque::new()));
        ShardQueues { shards }
    }

    /// Shard count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of scenario index `idx`.
    pub(crate) fn shard_of(&self, idx: usize) -> usize {
        idx % self.shards.len()
    }

    /// Deal an item into its home shard (callers push in input order, so
    /// each shard deque stays index-sorted).
    pub(crate) fn push(&self, item: WorkItem<'a>) {
        self.shards[self.shard_of(item.idx)]
            .lock()
            .expect("shard queue poisoned")
            .push_back(item);
    }

    /// The next item for `worker`: front of its home shard, else stolen
    /// from the back of the first non-empty other shard (scanning from
    /// the home shard forward, wrapping). `None` means the whole fabric
    /// is drained.
    pub(crate) fn next_for(&self, worker: usize) -> Option<WorkItem<'a>> {
        let n = self.shards.len();
        let home = worker % n;
        if let Some(item) = self.shards[home]
            .lock()
            .expect("shard queue poisoned")
            .pop_front()
        {
            return Some(item);
        }
        for step in 1..n {
            let victim = (home + step) % n;
            if let Some(item) = self.shards[victim]
                .lock()
                .expect("shard queue poisoned")
                .pop_back()
            {
                return Some(item);
            }
        }
        None
    }

    /// Drain every remaining item in index order — the supervisor's
    /// inline fallback when all workers retired before the fabric was
    /// empty.
    pub(crate) fn drain_leftovers(&self) -> Vec<WorkItem<'a>> {
        let mut left: Vec<WorkItem<'a>> = Vec::new();
        for shard in &self.shards {
            left.extend(shard.lock().expect("shard queue poisoned").drain(..));
        }
        left.sort_by_key(|item| item.idx);
        left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use netmodel::presets;
    use workload::{Boundary, CommPattern, Direction};

    fn scenario(id: &str) -> Scenario {
        Scenario::new(
            id,
            SimConfig::baseline(
                presets::loggopsim_like(4),
                CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Open),
                2,
            ),
        )
    }

    #[test]
    fn dealing_and_stealing_cover_every_item_exactly_once() {
        let scenarios: Vec<Scenario> = (0..10).map(|i| scenario(&format!("s{i}"))).collect();
        let queues = ShardQueues::new(3);
        for (idx, s) in scenarios.iter().enumerate() {
            queues.push(WorkItem { idx, scenario: s });
        }
        assert_eq!(queues.len(), 3);
        // Worker 1 alone drains the whole fabric: first its home shard
        // (1, 4, 7), then steals from shards 2 and 0 — every index
        // exactly once.
        let mut seen = Vec::new();
        while let Some(item) = queues.next_for(1) {
            seen.push(item.idx);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(queues.next_for(0).is_none());
    }

    #[test]
    fn home_shards_drain_front_and_steals_take_the_back() {
        let scenarios: Vec<Scenario> = (0..6).map(|i| scenario(&format!("s{i}"))).collect();
        let queues = ShardQueues::new(2);
        for (idx, s) in scenarios.iter().enumerate() {
            queues.push(WorkItem { idx, scenario: s });
        }
        // Worker 0's home shard holds 0, 2, 4 — front first.
        assert_eq!(queues.next_for(0).expect("item").idx, 0);
        // Empty shard 1 so a worker homed there has to steal — and the
        // steal takes shard 0's *back* (4), not its front (2).
        while queues.shards[1]
            .lock()
            .expect("shard queue poisoned")
            .pop_front()
            .is_some()
        {}
        assert_eq!(queues.next_for(1).expect("steal").idx, 4);
    }

    #[test]
    fn leftovers_drain_in_index_order() {
        let scenarios: Vec<Scenario> = (0..7).map(|i| scenario(&format!("s{i}"))).collect();
        let queues = ShardQueues::new(4);
        for (idx, s) in scenarios.iter().enumerate() {
            queues.push(WorkItem { idx, scenario: s });
        }
        let left: Vec<usize> = queues.drain_leftovers().iter().map(|i| i.idx).collect();
        assert_eq!(left, (0..7).collect::<Vec<_>>());
        assert!(queues.drain_leftovers().is_empty());
    }

    #[test]
    fn kill_specs_match_exact_item_counts() {
        let chaos = FabricChaos {
            kill_workers: vec![(1, 0), (2, 3)],
        };
        assert!(chaos.kills(1, 0));
        assert!(!chaos.kills(1, 1));
        assert!(chaos.kills(2, 3));
        assert!(!chaos.kills(0, 0));
        assert!(!FabricChaos::none().kills(1, 0));
        assert!(chaos.pending(2, 2));
        assert!(!chaos.pending(2, 3));
        assert!(!chaos.pending(1, 0));
    }
}
