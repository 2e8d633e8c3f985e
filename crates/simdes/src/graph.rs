//! Small deterministic directed-graph utilities.
//!
//! Shared by the static configuration analyzer (`simcheck`), which hunts
//! for rendezvous wait-cycles before a simulation starts, and by the
//! engine's deadlock post-mortem (`mpisim`), which names the rank cycle a
//! stuck run is blocked on. Everything is adjacency-list based, iterative
//! (no recursion — rank graphs can be deep chains), and deterministic:
//! vertices and edges are visited in insertion order, so the same graph
//! always yields the same components and the same reported cycle.

/// A directed graph over vertices `0..n` with parallel-edge tolerance.
#[derive(Debug, Clone, Default)]
pub struct Digraph {
    adj: Vec<Vec<usize>>,
}

impl Digraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Digraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Add the directed edge `u -> v`.
    ///
    /// # Panics
    /// Panics when either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "edge ({u}, {v}) out of range for {} vertices",
            self.adj.len()
        );
        self.adj[u].push(v);
    }

    /// Strongly connected components in deterministic order (Tarjan,
    /// iterative). Components come out in reverse topological order of the
    /// condensation; vertices inside a component keep discovery order.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        const UNVISITED: usize = usize::MAX;
        let n = self.adj.len();
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out: Vec<Vec<usize>> = Vec::new();

        // Explicit DFS frames: (vertex, next successor position).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            frames.push((root, 0));
            while let Some(&mut (v, ref mut succ_pos)) = frames.last_mut() {
                if *succ_pos == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = self.adj[v].get(*succ_pos) {
                    *succ_pos += 1;
                    if index[w] == UNVISITED {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.reverse();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// The first directed cycle found, as a vertex sequence
    /// `[v0, v1, ..., v0]` (first vertex repeated at the end), or `None`
    /// for an acyclic graph. Deterministic: the cycle through the
    /// lowest-numbered vertex of the first cyclic SCC, following
    /// lowest-insertion-order edges.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        for comp in self.sccs() {
            let cyclic =
                comp.len() > 1 || (comp.len() == 1 && self.adj[comp[0]].contains(&comp[0]));
            if !cyclic {
                continue;
            }
            return Some(self.cycle_within(&comp));
        }
        None
    }

    /// Walk inside one strongly connected component until a vertex
    /// repeats, then cut the walk down to the closed cycle.
    fn cycle_within(&self, comp: &[usize]) -> Vec<usize> {
        let in_comp = |v: usize| comp.contains(&v);
        let start = comp[0];
        let mut walk = vec![start];
        let mut seen_at = vec![usize::MAX; self.adj.len()];
        seen_at[start] = 0;
        let mut v = start;
        loop {
            let next = *self.adj[v]
                .iter()
                .find(|&&w| in_comp(w))
                .expect("SCC vertex must have an in-component successor");
            if seen_at[next] != usize::MAX {
                let mut cycle = walk[seen_at[next]..].to_vec();
                cycle.push(next);
                return cycle;
            }
            seen_at[next] = walk.len();
            walk.push(next);
            v = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_trivial_graphs() {
        assert!(Digraph::new(0).is_empty());
        assert_eq!(Digraph::new(0).sccs(), Vec::<Vec<usize>>::new());
        let g = Digraph::new(3);
        assert_eq!(g.len(), 3);
        assert_eq!(g.sccs().len(), 3);
        assert_eq!(g.find_cycle(), None);
    }

    #[test]
    fn chain_is_acyclic() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert_eq!(g.find_cycle(), None);
        assert_eq!(g.sccs().len(), 4);
    }

    #[test]
    fn ring_is_one_scc_with_a_full_cycle() {
        let mut g = Digraph::new(5);
        for v in 0..5 {
            g.add_edge(v, (v + 1) % 5);
        }
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), 5);
        let cycle = g.find_cycle().expect("ring has a cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert_eq!(cycle.len(), 6); // 5 distinct vertices + closing repeat
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = Digraph::new(2);
        g.add_edge(1, 1);
        assert_eq!(g.find_cycle(), Some(vec![1, 1]));
    }

    #[test]
    fn mixed_graph_reports_the_cyclic_component() {
        // 0 -> 1 -> 2 -> 1 (cycle 1,2), 3 isolated.
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        let cycle = g.find_cycle().expect("has a cycle");
        assert_eq!(cycle.first(), cycle.last());
        let interior: Vec<usize> = cycle[..cycle.len() - 1].to_vec();
        let mut sorted = interior.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn two_cliques_are_two_components() {
        let mut g = Digraph::new(6);
        for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (0, 2)] {
            g.add_edge(a, b);
        }
        let sccs = g.sccs();
        let mut sizes: Vec<usize> = sccs.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn determinism_same_graph_same_output() {
        let build = || {
            let mut g = Digraph::new(8);
            for v in 0..8 {
                g.add_edge(v, (v + 3) % 8);
                g.add_edge(v, (v + 5) % 8);
            }
            g
        };
        assert_eq!(build().sccs(), build().sccs());
        assert_eq!(build().find_cycle(), build().find_cycle());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Digraph::new(2).add_edge(0, 5);
    }
}
