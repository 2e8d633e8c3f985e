//! The strong-scaling performance model of the paper's Fig. 1 (Eq. 1).
//!
//! An MPI-parallel STREAM triad over a fixed working set `V_mem`, split
//! evenly over the ranks, with each rank exchanging `V_net` with both ring
//! neighbours after every traversal. The optimistic non-overlapping model:
//!
//! ```text
//! T(n) = V_mem / (n · b_mem)  +  2 V_net / b_net          (Eq. 1)
//! P(n) = 2 · N_elem / T(n)    [flop/s]
//! ```
//!
//! with `n` = number of memory domains (sockets for PPN = 20, effectively
//! single cores for PPN = 1, where `b` is the single-core bandwidth).
//! The paper's headline observation is that reality deviates from this
//! model in *both* directions: total performance is lower (communication
//! overhead), while pure execution performance is *higher* than the
//! perfectly-synchronised prediction because desynchronisation reduces
//! instantaneous bandwidth contention.

use simdes::SimDuration;

/// Parameters of the Fig. 1 experiment and its Eq. 1 model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriadScalingModel {
    /// Total working set in bytes (paper: 1.2 GB = 5 × 10⁷ elements × 24 B).
    pub vmem_bytes: u64,
    /// Per-neighbour exchange volume in bytes (paper: 2 MB).
    pub vnet_bytes: u64,
    /// Bandwidth of one memory domain in bytes/s (socket: ≈ 40 GB/s;
    /// single core for PPN = 1: ≈ 6.5 GB/s).
    pub domain_bw_bps: f64,
    /// Asymptotic network bandwidth in bytes/s (paper: ≈ 3 GB/s).
    pub bnet_bps: f64,
}

impl TriadScalingModel {
    /// The paper's PPN = 20 configuration (full sockets).
    pub fn paper_ppn20() -> Self {
        TriadScalingModel {
            vmem_bytes: 1_200_000_000,
            vnet_bytes: 2_000_000,
            domain_bw_bps: 40e9,
            bnet_bps: 3e9,
        }
    }

    /// The paper's PPN = 1 configuration (one core per node; node-level
    /// performance about 1/6 of the saturated socket).
    pub fn paper_ppn1() -> Self {
        TriadScalingModel {
            vmem_bytes: 1_200_000_000,
            vnet_bytes: 2_000_000,
            domain_bw_bps: 40e9 / 6.0,
            bnet_bps: 3e9,
        }
    }

    /// Number of array elements (24 bytes each: read B, read C, write A).
    pub fn elements(&self) -> u64 {
        self.vmem_bytes / 24
    }

    /// Execution-only time per traversal on `n` domains: `V_mem/(n·b_mem)`.
    ///
    /// # Panics
    ///
    /// If `n` is zero.
    pub fn exec_time(&self, n: u32) -> SimDuration {
        assert!(n > 0, "need at least one domain");
        SimDuration::from_secs_f64(self.vmem_bytes as f64 / (f64::from(n) * self.domain_bw_bps))
    }

    /// Communication time per traversal: `2·V_net/b_net`.
    pub fn comm_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(2.0 * self.vnet_bytes as f64 / self.bnet_bps)
    }

    /// Eq. 1: total time per compute-communicate cycle on `n` domains.
    pub fn cycle_time(&self, n: u32) -> SimDuration {
        self.exec_time(n) + self.comm_time()
    }

    /// Predicted total performance in flop/s (2 flops per element).
    pub fn total_perf_flops(&self, n: u32) -> f64 {
        2.0 * self.elements() as f64 / self.cycle_time(n).as_secs_f64()
    }

    /// Predicted execution-only performance in flop/s (the model with
    /// communication ignored — the red-diamond curve of Fig. 1a).
    pub fn exec_perf_flops(&self, n: u32) -> f64 {
        2.0 * self.elements() as f64 / self.exec_time(n).as_secs_f64()
    }
}

tracefmt::json_codec! {
    struct TriadScalingModel { vmem_bytes, vnet_bytes, domain_bw_bps, bnet_bps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let m = TriadScalingModel::paper_ppn20();
        assert_eq!(m.elements(), 50_000_000);
        // V_mem / b_mem on one socket: 1.2 GB / 40 GB/s = 30 ms.
        assert_eq!(m.exec_time(1), SimDuration::from_millis(30));
        // 2 x 2 MB / 3 GB/s = 1.333 ms.
        let ct = m.comm_time().as_millis_f64();
        assert!((ct - 4.0 / 3.0).abs() < 1e-6, "{ct}");
    }

    #[test]
    fn performance_scales_sublinearly_due_to_comm() {
        let m = TriadScalingModel::paper_ppn20();
        let p1 = m.total_perf_flops(1);
        let p9 = m.total_perf_flops(9);
        // 9 sockets is less than 9x faster: communication does not shrink.
        assert!(p9 < 9.0 * p1);
        assert!(p9 > 4.0 * p1, "but it should still scale substantially");
        // Exec-only prediction is exactly linear.
        let e1 = m.exec_perf_flops(1);
        let e9 = m.exec_perf_flops(9);
        // (up to nanosecond rounding of the phase times)
        assert!((e9 / e1 - 9.0).abs() < 1e-4);
    }

    #[test]
    fn one_socket_performance_matches_hand_calculation() {
        let m = TriadScalingModel::paper_ppn20();
        // 1e8 flop / 31.333 ms ≈ 3.19 GF/s.
        let p = m.total_perf_flops(1) / 1e9;
        assert!((p - 3.19).abs() < 0.01, "{p} GF/s");
    }

    #[test]
    fn ppn1_model_is_slower_per_domain() {
        let m20 = TriadScalingModel::paper_ppn20();
        let m1 = TriadScalingModel::paper_ppn1();
        assert!(m1.exec_time(1) > m20.exec_time(1));
        // Relative communication overhead is much smaller for PPN = 1
        // (paper Fig. 1c discussion).
        let rel20 = m20.comm_time().as_secs_f64() / m20.cycle_time(1).as_secs_f64();
        let rel1 = m1.comm_time().as_secs_f64() / m1.cycle_time(1).as_secs_f64();
        assert!(rel1 < rel20);
    }

    #[test]
    #[should_panic(expected = "at least one domain")]
    fn zero_domains_panics() {
        TriadScalingModel::paper_ppn20().exec_time(0);
    }
}
