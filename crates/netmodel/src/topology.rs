//! Hierarchical cluster topology.
//!
//! Clusters of dual-socket multicore nodes are "identical components
//! assembled on multiple levels" (paper Sec. II-B): cores sit in sockets,
//! sockets in nodes, nodes on a network. Communication characteristics
//! differ per level, and the paper's future-work section points out that
//! idle-wave speed changes when a wave crosses a domain boundary — which our
//! simulator reproduces by looking up the link model for the *pair* of
//! communicating ranks.
//!
//! Ranks are mapped to cores in block order (rank 0 → node 0/socket 0/core
//! 0, rank 1 → next core on the same socket, …), matching the process-core
//! affinity enforcement described in Sec. III-A.

use tracefmt::json;

/// Shape of a homogeneous cluster: every node has `sockets_per_node` sockets
/// with `cores_per_socket` cores each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    /// Cores per socket (paper systems: 10).
    pub cores_per_socket: u32,
    /// Sockets per node (paper systems: 2).
    pub sockets_per_node: u32,
    /// Number of nodes in the job allocation.
    pub nodes: u32,
}

/// Physical placement of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Node index within the allocation.
    pub node: u32,
    /// Socket index within the node.
    pub socket: u32,
    /// Core index within the socket.
    pub core: u32,
}

/// The communication domain shared by a pair of distinct ranks: the highest
/// topology level they have in common.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// Same socket (shared L3 / memory controller).
    Socket,
    /// Same node, different sockets (crosses the inter-socket link).
    Node,
    /// Different nodes (crosses the cluster interconnect).
    Network,
}

impl Machine {
    /// A machine with the given shape.
    ///
    /// # Panics
    ///
    /// If any dimension is zero.
    pub fn new(cores_per_socket: u32, sockets_per_node: u32, nodes: u32) -> Self {
        assert!(
            cores_per_socket > 0 && sockets_per_node > 0 && nodes > 0,
            "machine dimensions must be positive"
        );
        Machine {
            cores_per_socket,
            sockets_per_node,
            nodes,
        }
    }

    /// Single-level machine: one core per "node", flat network. Useful for
    /// the one-process-per-node experiments (Fig. 4, Fig. 5, Fig. 7).
    pub fn flat(nodes: u32) -> Self {
        Machine::new(1, 1, nodes)
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> u32 {
        self.cores_per_socket * self.sockets_per_node
    }

    /// Total core count = maximum number of ranks placeable with one rank
    /// per core.
    pub fn total_cores(&self) -> u32 {
        self.cores_per_node() * self.nodes
    }

    /// Total number of sockets in the allocation.
    pub fn total_sockets(&self) -> u32 {
        self.sockets_per_node * self.nodes
    }

    /// Block placement of `rank` using `ppn` ranks per node, filling sockets
    /// in order (ranks 0..cores_per_socket on socket 0, and so on). `ppn`
    /// lets experiments under-subscribe nodes (e.g. Fig. 9 runs six
    /// processes per socket on ten-core sockets; Fig. 1(c) runs one process
    /// per node).
    ///
    /// # Panics
    /// Panics if `ppn` is zero, exceeds the node's core count, or if the
    /// rank does not fit on the machine.
    pub fn locate_with_ppn(&self, rank: u32, ppn: u32) -> Location {
        assert!(ppn > 0, "ppn must be positive");
        assert!(
            ppn <= self.cores_per_node(),
            "ppn {ppn} exceeds cores per node {}",
            self.cores_per_node()
        );
        let node = rank / ppn;
        assert!(
            node < self.nodes,
            "rank {rank} with ppn {ppn} does not fit on {} nodes",
            self.nodes
        );
        let local = rank % ppn;
        // Under-subscription spreads ranks evenly over the node's sockets in
        // block fashion: first ceil(ppn/sockets) ranks on socket 0, etc.
        // This matches "six processes per socket" style placements.
        let per_socket = ppn.div_ceil(self.sockets_per_node);
        let socket = local / per_socket;
        let core = local % per_socket;
        debug_assert!(socket < self.sockets_per_node);
        debug_assert!(core < self.cores_per_socket);
        Location { node, socket, core }
    }

    /// Block placement with fully packed nodes (`ppn = cores_per_node`).
    pub fn locate(&self, rank: u32) -> Location {
        self.locate_with_ppn(rank, self.cores_per_node())
    }

    /// The communication domain between two ranks placed with `ppn` ranks
    /// per node. Returns `None` for a rank paired with itself (self-messages
    /// are free and never occur in the paper's patterns).
    pub fn domain_between_with_ppn(&self, a: u32, b: u32, ppn: u32) -> Option<Domain> {
        if a == b {
            return None;
        }
        let la = self.locate_with_ppn(a, ppn);
        let lb = self.locate_with_ppn(b, ppn);
        Some(if la.node != lb.node {
            Domain::Network
        } else if la.socket != lb.socket {
            Domain::Node
        } else {
            Domain::Socket
        })
    }

    /// Domain between two ranks on fully packed nodes.
    pub fn domain_between(&self, a: u32, b: u32) -> Option<Domain> {
        self.domain_between_with_ppn(a, b, self.cores_per_node())
    }
}

tracefmt::json_codec! {
    struct Machine { cores_per_socket, sockets_per_node, nodes } => {
        if cores_per_socket == 0 || sockets_per_node == 0 || nodes == 0 {
            return Err(json::JsonError("machine dimensions must be positive".into()));
        }
        Ok(Machine::new(cores_per_socket, sockets_per_node, nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emmy_shape() -> Machine {
        Machine::new(10, 2, 5) // 5 nodes of 2x10 cores = 100 ranks
    }

    #[test]
    fn packed_block_placement() {
        let m = emmy_shape();
        assert_eq!(
            m.locate(0),
            Location {
                node: 0,
                socket: 0,
                core: 0
            }
        );
        assert_eq!(
            m.locate(9),
            Location {
                node: 0,
                socket: 0,
                core: 9
            }
        );
        assert_eq!(
            m.locate(10),
            Location {
                node: 0,
                socket: 1,
                core: 0
            }
        );
        assert_eq!(
            m.locate(19),
            Location {
                node: 0,
                socket: 1,
                core: 9
            }
        );
        assert_eq!(
            m.locate(20),
            Location {
                node: 1,
                socket: 0,
                core: 0
            }
        );
        assert_eq!(
            m.locate(99),
            Location {
                node: 4,
                socket: 1,
                core: 9
            }
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rank_beyond_machine_panics() {
        emmy_shape().locate(100);
    }

    #[test]
    fn under_subscribed_placement_fig9_style() {
        // Fig. 9: six processes per socket on six sockets (three nodes).
        let m = Machine::new(10, 2, 3);
        // 12 ranks per node: 6 on socket 0, 6 on socket 1.
        let l5 = m.locate_with_ppn(5, 12);
        assert_eq!(
            l5,
            Location {
                node: 0,
                socket: 0,
                core: 5
            }
        );
        let l6 = m.locate_with_ppn(6, 12);
        assert_eq!(
            l6,
            Location {
                node: 0,
                socket: 1,
                core: 0
            }
        );
        let l12 = m.locate_with_ppn(12, 12);
        assert_eq!(
            l12,
            Location {
                node: 1,
                socket: 0,
                core: 0
            }
        );
        let l35 = m.locate_with_ppn(35, 12);
        assert_eq!(
            l35,
            Location {
                node: 2,
                socket: 1,
                core: 5
            }
        );
    }

    #[test]
    fn one_rank_per_node_placement() {
        let m = Machine::new(10, 2, 4);
        for r in 0..4 {
            let l = m.locate_with_ppn(r, 1);
            assert_eq!(
                l,
                Location {
                    node: r,
                    socket: 0,
                    core: 0
                }
            );
        }
    }

    #[test]
    fn domains() {
        let m = emmy_shape();
        assert_eq!(m.domain_between(0, 1), Some(Domain::Socket));
        assert_eq!(m.domain_between(0, 9), Some(Domain::Socket));
        assert_eq!(m.domain_between(9, 10), Some(Domain::Node));
        assert_eq!(m.domain_between(0, 19), Some(Domain::Node));
        assert_eq!(m.domain_between(19, 20), Some(Domain::Network));
        assert_eq!(m.domain_between(0, 99), Some(Domain::Network));
        assert_eq!(m.domain_between(7, 7), None);
    }

    #[test]
    fn domain_is_symmetric() {
        let m = emmy_shape();
        for (a, b) in [(0u32, 1u32), (9, 10), (19, 20), (3, 87)] {
            assert_eq!(m.domain_between(a, b), m.domain_between(b, a));
        }
    }

    #[test]
    fn domain_ordering_reflects_hierarchy() {
        assert!(Domain::Socket < Domain::Node);
        assert!(Domain::Node < Domain::Network);
    }

    #[test]
    fn flat_machine_is_all_network() {
        let m = Machine::flat(18);
        assert_eq!(m.total_cores(), 18);
        assert_eq!(m.domain_between(0, 17), Some(Domain::Network));
        assert_eq!(m.cores_per_node(), 1);
    }

    #[test]
    fn totals() {
        let m = emmy_shape();
        assert_eq!(m.cores_per_node(), 20);
        assert_eq!(m.total_cores(), 100);
        assert_eq!(m.total_sockets(), 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        Machine::new(0, 2, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds cores per node")]
    fn oversubscription_panics() {
        emmy_shape().locate_with_ppn(0, 21);
    }
}
