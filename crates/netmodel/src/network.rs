//! The full cluster network: topology + per-domain link models + rank
//! placement.
//!
//! [`ClusterNetwork`] is what the message-passing simulator consults: given
//! two ranks it yields the [`PointToPoint`] model of the link between them
//! (intra-socket shared-memory copy, inter-socket link, or the cluster
//! interconnect).

use simdes::SimDuration;
use tracefmt::json;

use crate::model::PointToPoint;
use crate::topology::{Domain, Location, Machine};

/// Link models for each topology domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainModels {
    /// Intra-socket (shared L3) message cost.
    pub socket: PointToPoint,
    /// Intra-node, inter-socket message cost.
    pub node: PointToPoint,
    /// Inter-node (interconnect) message cost.
    pub network: PointToPoint,
}

impl DomainModels {
    /// The same model on every level — a "flat" network. The controlled
    /// experiments of Fig. 4/5/7 run one process per node, so only the
    /// network level is ever exercised; a uniform model keeps their
    /// propagation speed exactly constant.
    pub fn uniform(m: PointToPoint) -> Self {
        DomainModels {
            socket: m,
            node: m,
            network: m,
        }
    }

    /// Model for a given domain.
    pub fn for_domain(&self, d: Domain) -> PointToPoint {
        match d {
            Domain::Socket => self.socket,
            Domain::Node => self.node,
            Domain::Network => self.network,
        }
    }
}

/// A placed job on a machine: rank count, ranks-per-node, link models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterNetwork {
    /// Machine shape.
    pub machine: Machine,
    /// Ranks per node (block placement; see [`Machine::locate_with_ppn`]).
    pub ppn: u32,
    /// Number of ranks in the job.
    pub ranks: u32,
    /// Per-domain link models.
    pub models: DomainModels,
}

impl ClusterNetwork {
    /// Place `ranks` ranks on `machine` with `ppn` ranks per node.
    ///
    /// # Panics
    /// Panics if the job does not fit.
    pub fn new(machine: Machine, ppn: u32, ranks: u32, models: DomainModels) -> Self {
        assert!(ranks > 0, "need at least one rank");
        // Validate the last rank's placement eagerly.
        let _ = machine.locate_with_ppn(ranks - 1, ppn);
        ClusterNetwork {
            machine,
            ppn,
            ranks,
            models,
        }
    }

    /// A flat `ranks`-node network with one rank per node and a uniform
    /// link model — the configuration of the controlled wave experiments.
    pub fn flat(ranks: u32, model: PointToPoint) -> Self {
        ClusterNetwork::new(Machine::flat(ranks), 1, ranks, DomainModels::uniform(model))
    }

    /// Physical placement of a rank.
    pub fn locate(&self, rank: u32) -> Location {
        self.machine.locate_with_ppn(rank, self.ppn)
    }

    /// Topology domain between two distinct ranks.
    pub fn domain_between(&self, a: u32, b: u32) -> Option<Domain> {
        self.machine.domain_between_with_ppn(a, b, self.ppn)
    }

    /// Link model between two distinct ranks.
    ///
    /// # Panics
    /// Panics on a self-message (`a == b`): the patterns under study never
    /// send to self, so this is always a harness bug.
    pub fn link(&self, a: u32, b: u32) -> PointToPoint {
        let d = self
            .domain_between(a, b)
            .unwrap_or_else(|| panic!("self-message on rank {a}"));
        self.models.for_domain(d)
    }

    /// One-way transfer time for `bytes` between two distinct ranks.
    pub fn transfer_time(&self, a: u32, b: u32, bytes: u64) -> SimDuration {
        self.link(a, b).transfer_time(bytes)
    }

    /// Control-message (handshake packet) latency between two ranks.
    pub fn ctrl_latency(&self, a: u32, b: u32) -> SimDuration {
        self.link(a, b).ctrl_latency()
    }

    /// Global socket index of a rank (for socket-boundary annotations in
    /// timeline plots, e.g. the dotted lines in Fig. 6 and Fig. 9).
    pub fn socket_of(&self, rank: u32) -> u32 {
        let l = self.locate(rank);
        l.node * self.machine.sockets_per_node + l.socket
    }
}

tracefmt::json_codec! {
    struct DomainModels { socket, node, network }
}

tracefmt::json_codec! {
    struct ClusterNetwork { machine, ppn, ranks, models } => {
        if ranks == 0
            || ppn == 0
            || ppn > Machine::cores_per_node(&machine)
            || (ranks - 1) / ppn >= machine.nodes
        {
            return Err(json::JsonError(format!(
                "invalid placement: {ranks} ranks at {ppn} per node on {} nodes",
                machine.nodes
            )));
        }
        Ok(ClusterNetwork::new(machine, ppn, ranks, models))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Hockney;

    fn two_level() -> ClusterNetwork {
        let fast = PointToPoint::Hockney(Hockney::new(SimDuration::from_nanos(200), 10e9));
        let mid = PointToPoint::Hockney(Hockney::new(SimDuration::from_nanos(400), 6e9));
        let slow = PointToPoint::Hockney(Hockney::new(SimDuration::from_micros(2), 3e9));
        ClusterNetwork::new(
            Machine::new(10, 2, 5),
            20,
            100,
            DomainModels {
                socket: fast,
                node: mid,
                network: slow,
            },
        )
    }

    #[test]
    fn link_selection_by_domain() {
        let n = two_level();
        assert_eq!(n.link(0, 1), n.models.socket);
        assert_eq!(n.link(9, 10), n.models.node);
        assert_eq!(n.link(19, 20), n.models.network);
    }

    #[test]
    fn transfer_time_uses_selected_link() {
        let n = two_level();
        let t_socket = n.transfer_time(0, 1, 1 << 20);
        let t_net = n.transfer_time(19, 20, 1 << 20);
        assert!(t_net > t_socket);
    }

    #[test]
    #[should_panic(expected = "self-message")]
    fn self_message_panics() {
        two_level().link(3, 3);
    }

    #[test]
    fn flat_network_is_uniform() {
        let m = PointToPoint::Hockney(Hockney::new(SimDuration::from_micros(1), 3e9));
        let n = ClusterNetwork::flat(18, m);
        assert_eq!(n.link(0, 17), m);
        assert_eq!(n.link(4, 5), m);
        assert_eq!(n.ranks, 18);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_job_panics() {
        let m = PointToPoint::Hockney(Hockney::new(SimDuration::ZERO, 1e9));
        ClusterNetwork::new(Machine::flat(4), 1, 5, DomainModels::uniform(m));
    }

    #[test]
    fn socket_indexing() {
        let n = two_level();
        assert_eq!(n.socket_of(0), 0);
        assert_eq!(n.socket_of(9), 0);
        assert_eq!(n.socket_of(10), 1);
        assert_eq!(n.socket_of(20), 2);
        assert_eq!(n.socket_of(99), 9);
    }

    #[test]
    fn ctrl_latency_scales_with_domain() {
        let n = two_level();
        assert!(n.ctrl_latency(19, 20) > n.ctrl_latency(0, 1));
    }
}
