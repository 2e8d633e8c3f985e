//! 1-D domain decomposition model for the Fig. 2 production run.
//!
//! The paper's LBM experiment uses a 302³ lattice (including one boundary
//! layer in each direction), decomposed only along the outer dimension
//! with periodic boundary conditions, on 100 ranks (five 2×10-core
//! nodes). The full problem (> 8 GB working set) is too large to allocate
//! in a test run, so the Fig. 2 reproduction feeds the *costs* of this
//! decomposition — per-rank memory traffic and halo volume — into the
//! cluster simulator, while the real solver (`D3Q19`) validates the
//! physics and per-cell cost structure at small scale.

use crate::lattice::Q;

/// Bytes of memory traffic per cell per SRT update: 19 populations read +
/// 19 written, 8 bytes each (write-allocate ignored, as in the paper's
/// bandwidth model).
pub const BYTES_PER_CELL: u64 = 2 * Q as u64 * 8;

/// A 1-D slab decomposition of a periodic D3Q19 box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbmDecomposition {
    /// Global lattice extent along the (decomposed) outer dimension.
    pub nx: u64,
    /// Global extent along the second dimension.
    pub ny: u64,
    /// Global extent along the third dimension.
    pub nz: u64,
    /// Number of MPI ranks (slabs).
    pub ranks: u32,
}

impl LbmDecomposition {
    /// The paper's Fig. 2 configuration: 302³ cells on 100 ranks.
    pub fn paper_fig2() -> Self {
        LbmDecomposition {
            nx: 302,
            ny: 302,
            nz: 302,
            ranks: 100,
        }
    }

    /// Total number of lattice cells.
    pub fn total_cells(&self) -> u64 {
        self.nx * self.ny * self.nz
    }

    /// Cells per rank (average; the paper's 302/100 does not divide evenly,
    /// which is itself a small intrinsic load imbalance — we model the
    /// average slab, letting the simulator's noise cover the imbalance).
    pub fn cells_per_rank(&self) -> u64 {
        self.total_cells() / u64::from(self.ranks)
    }

    /// Memory traffic per rank per time step in bytes.
    pub fn traffic_bytes_per_rank(&self) -> u64 {
        self.cells_per_rank() * BYTES_PER_CELL
    }

    /// Halo exchange volume per neighbour per step in bytes: one full
    /// face of `ny × nz` cells with all 19 populations (the straightforward
    /// full-cell halo used by non-optimised LBM codes, consistent with the
    /// paper's ≥ 30 % communication share).
    pub fn halo_bytes_per_neighbor(&self) -> u64 {
        self.ny * self.nz * Q as u64 * 8
    }

    /// Total working set in bytes (two population arrays).
    pub fn working_set_bytes(&self) -> u64 {
        2 * self.total_cells() * Q as u64 * 8
    }

    /// Flops per cell per update (a common accounting for D3Q19 SRT:
    /// ~200 flops between moments, equilibria and relaxation).
    pub fn flops_per_cell() -> u64 {
        200
    }
}

tracefmt::json_codec! {
    struct LbmDecomposition { nx, ny, nz, ranks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_magnitudes() {
        let d = LbmDecomposition::paper_fig2();
        assert_eq!(d.total_cells(), 302 * 302 * 302);
        // Working set "more than 8 GB" (paper): 2 x 19 x 8 B x 302^3.
        let ws_gb = d.working_set_bytes() as f64 / 1e9;
        assert!(ws_gb > 8.0 && ws_gb < 9.0, "working set {ws_gb} GB");
        // Halo: 302^2 x 19 x 8 B ≈ 13.9 MB per neighbour.
        let halo_mb = d.halo_bytes_per_neighbor() as f64 / 1e6;
        assert!((13.0..15.0).contains(&halo_mb), "halo {halo_mb} MB");
        // Per-rank traffic: ~275k cells x 304 B ≈ 83.7 MB.
        let tr_mb = d.traffic_bytes_per_rank() as f64 / 1e6;
        assert!((80.0..90.0).contains(&tr_mb), "traffic {tr_mb} MB");
    }

    #[test]
    fn communication_share_is_large() {
        // The point of the Fig. 2 setup: 1-D decomposition gives a hefty
        // communication share. At 4 GB/s per-rank memory bandwidth and
        // 3 GB/s network, comm/(comm+exec) should be well above 10 %.
        let d = LbmDecomposition::paper_fig2();
        let t_exec = d.traffic_bytes_per_rank() as f64 / 4e9;
        let t_comm = d.halo_bytes_per_neighbor() as f64 / 3e9;
        let share = t_comm / (t_comm + t_exec);
        assert!(share > 0.1, "comm share {share}");
    }

    #[test]
    fn bytes_per_cell_constant() {
        assert_eq!(BYTES_PER_CELL, 304);
    }

    #[test]
    fn smaller_boxes_scale_down() {
        let d = LbmDecomposition {
            nx: 64,
            ny: 64,
            nz: 64,
            ranks: 8,
        };
        assert_eq!(d.cells_per_rank(), 64 * 64 * 64 / 8);
        assert!(d.working_set_bytes() < LbmDecomposition::paper_fig2().working_set_bytes());
    }
}
