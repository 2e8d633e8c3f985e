//! Execution-phase cost models (paper Sec. II-A).
//!
//! The node-level categorisation of the paper:
//!
//! * **Compute-bound** code scales across cores — no shared resource on the
//!   critical path. Modelled by [`ExecModel::Compute`]: a fixed duration per
//!   phase, calibrated like the paper's `vdivpd` kernel.
//! * **Memory-bound** code saturates a shared resource (the socket's memory
//!   interface). Modelled by [`ExecModel::MemoryBound`]: each phase moves a
//!   fixed volume of memory traffic, and the *rate* depends on how many
//!   ranks on the same socket are executing concurrently — per-rank
//!   bandwidth is `min(core_bw, socket_bw / n_active)`. Desynchronisation
//!   therefore speeds up individual ranks, which is exactly the automatic
//!   communication overlap the paper's Fig. 1/2 motivating experiments
//!   expose.
//!
//! The simulator (`mpisim`) implements the processor-sharing dynamics; this
//! module only describes the model parameters and the analytic helper
//! rates.

use simdes::SimDuration;

/// Throughput of one `vdivpd` (4-wide double divide) on Ivy Bridge:
/// one instruction per 28 clock cycles (paper Sec. III-B, citing Hofmann et
/// al.).
pub const IVB_VDIVPD_CYCLES: u32 = 28;

/// Throughput of one `vdivpd` on Broadwell: one instruction per 16 cycles.
pub const BDW_VDIVPD_CYCLES: u32 = 16;

/// Fixed clock frequency of both paper systems: 2.2 GHz.
pub const PAPER_CLOCK_HZ: f64 = 2.2e9;

/// How the execution phase of each step is produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecModel {
    /// Core-bound workload: a fixed duration per phase regardless of what
    /// other ranks do. The configuration of all controlled wave experiments
    /// (Figs. 4–9), with `duration` = 3 ms unless stated otherwise.
    Compute {
        /// Phase length.
        duration: SimDuration,
    },
    /// Memory-bound workload: each phase moves `bytes` of memory traffic;
    /// concurrent ranks on one socket share `socket_bw_bps`, each capped at
    /// `core_bw_bps`.
    MemoryBound {
        /// Memory traffic per rank per phase, in bytes.
        bytes: u64,
        /// Single-core (in-cache / non-contended) bandwidth cap, bytes/s.
        core_bw_bps: f64,
        /// Shared per-socket bandwidth ceiling, bytes/s.
        socket_bw_bps: f64,
    },
}

impl ExecModel {
    /// A compute-bound phase calibrated from a dependent-divide kernel:
    /// `instructions` back-to-back `vdivpd` at `cycles_per_instr` on a
    /// `clock_hz` core.
    pub fn divide_kernel(instructions: u64, cycles_per_instr: u32, clock_hz: f64) -> Self {
        let secs = instructions as f64 * f64::from(cycles_per_instr) / clock_hz;
        ExecModel::Compute {
            duration: SimDuration::from_secs_f64(secs),
        }
    }

    /// Number of `vdivpd` instructions that fill `duration` on the given
    /// core — the inverse of [`ExecModel::divide_kernel`], used to construct
    /// workloads with an exactly known execution time (paper Sec. III-B).
    pub fn divide_instructions_for(
        duration: SimDuration,
        cycles_per_instr: u32,
        clock_hz: f64,
    ) -> u64 {
        (duration.as_secs_f64() * clock_hz / f64::from(cycles_per_instr)).round() as u64
    }

    /// Per-rank memory bandwidth when `active` ranks on the socket execute
    /// concurrently (memory-bound model only).
    ///
    /// # Panics
    ///
    /// If `active` is zero on a memory-bound model.
    pub fn shared_rate_bps(&self, active: u32) -> f64 {
        match *self {
            ExecModel::Compute { .. } => f64::INFINITY,
            ExecModel::MemoryBound {
                core_bw_bps,
                socket_bw_bps,
                ..
            } => {
                assert!(active > 0, "rate query with zero active ranks");
                core_bw_bps.min(socket_bw_bps / f64::from(active))
            }
        }
    }

    /// Duration of one phase if `active` ranks shared the socket for the
    /// whole phase (the static approximation; the simulator integrates the
    /// true time-varying rate).
    pub fn static_duration(&self, active: u32) -> SimDuration {
        match *self {
            ExecModel::Compute { duration } => duration,
            ExecModel::MemoryBound { bytes, .. } => {
                SimDuration::from_secs_f64(bytes as f64 / self.shared_rate_bps(active))
            }
        }
    }

    /// `true` for the memory-bound (contention-sensitive) model.
    pub fn is_memory_bound(&self) -> bool {
        matches!(self, ExecModel::MemoryBound { .. })
    }

    /// Number of cores on one socket at which the socket bandwidth
    /// saturates (the paper's "fewer than the maximum number of cores ...
    /// will usually not change the performance" observation).
    pub fn saturation_point(&self) -> Option<u32> {
        match *self {
            ExecModel::Compute { .. } => None,
            ExecModel::MemoryBound {
                core_bw_bps,
                socket_bw_bps,
                ..
            } => Some((socket_bw_bps / core_bw_bps).ceil().max(1.0) as u32),
        }
    }
}

tracefmt::json_codec! {
    enum ExecModel {
        Compute { duration },
        MemoryBound { bytes, core_bw_bps, socket_bw_bps },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divide_kernel_calibration() {
        // 3 ms at 2.2 GHz / 28 cy per instr ≈ 235714 instructions.
        let n = ExecModel::divide_instructions_for(
            SimDuration::from_millis(3),
            IVB_VDIVPD_CYCLES,
            PAPER_CLOCK_HZ,
        );
        assert_eq!(n, 235_714);
        let m = ExecModel::divide_kernel(n, IVB_VDIVPD_CYCLES, PAPER_CLOCK_HZ);
        match m {
            ExecModel::Compute { duration } => {
                let err = (duration.as_millis_f64() - 3.0).abs();
                assert!(err < 1e-4, "calibrated duration off by {err} ms");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn broadwell_needs_more_instructions_for_same_time() {
        let ivb = ExecModel::divide_instructions_for(
            SimDuration::from_millis(3),
            IVB_VDIVPD_CYCLES,
            PAPER_CLOCK_HZ,
        );
        let bdw = ExecModel::divide_instructions_for(
            SimDuration::from_millis(3),
            BDW_VDIVPD_CYCLES,
            PAPER_CLOCK_HZ,
        );
        assert!(bdw > ivb);
        // Same wall time needs 28/16 x the instructions, up to rounding.
        assert!((bdw as i64 - (ivb * 28 / 16) as i64).abs() <= 1);
    }

    #[test]
    fn compute_model_ignores_contention() {
        let m = ExecModel::Compute {
            duration: SimDuration::from_millis(3),
        };
        assert_eq!(m.static_duration(1), SimDuration::from_millis(3));
        assert_eq!(m.static_duration(10), SimDuration::from_millis(3));
        assert!(!m.is_memory_bound());
        assert_eq!(m.saturation_point(), None);
    }

    #[test]
    fn memory_bound_rate_saturates() {
        // Emmy-like: 40 GB/s socket, ~6.5 GB/s single core.
        let m = ExecModel::MemoryBound {
            bytes: 24_000_000,
            core_bw_bps: 6.5e9,
            socket_bw_bps: 40e9,
        };
        assert_eq!(m.shared_rate_bps(1), 6.5e9);
        assert_eq!(m.shared_rate_bps(6), 6.5e9); // 40/6 = 6.67 > 6.5
        assert!((m.shared_rate_bps(7) - 40e9 / 7.0).abs() < 1.0);
        assert!((m.shared_rate_bps(10) - 4e9).abs() < 1.0);
        assert_eq!(m.saturation_point(), Some(7));
        assert!(m.is_memory_bound());
    }

    #[test]
    fn memory_bound_duration_scales_with_contention() {
        let m = ExecModel::MemoryBound {
            bytes: 40_000_000,
            core_bw_bps: 10e9,
            socket_bw_bps: 40e9,
        };
        // Solo: 40 MB at 10 GB/s = 4 ms. Ten ranks: 40 MB at 4 GB/s = 10 ms.
        assert_eq!(m.static_duration(1), SimDuration::from_millis(4));
        assert_eq!(m.static_duration(10), SimDuration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "zero active")]
    fn zero_active_rate_panics() {
        let m = ExecModel::MemoryBound {
            bytes: 1,
            core_bw_bps: 1.0,
            socket_bw_bps: 1.0,
        };
        m.shared_rate_bps(0);
    }
}
