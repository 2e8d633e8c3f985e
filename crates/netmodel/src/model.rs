//! Point-to-point communication cost models.
//!
//! Two classical first-principles models are provided:
//!
//! * **Hockney** (`T(s) = α + s/β`): latency plus size over asymptotic
//!   bandwidth. This is the model the paper's modified LogGOPSim used
//!   ("implementing a simple Hockney model", Sec. V-A).
//! * **LogGOPS** (`T(s) = L + 2o + s·G` for a single message, with per-byte
//!   overhead folded into `G` and an injection gap `g` for back-to-back
//!   messages): the model underlying the LogGOPSim simulator the paper
//!   compares against (Hoefler et al., HPDC'10).
//!
//! Both reduce to the same role in the delay-propagation experiments — a
//! deterministic cost for moving `s` bytes between two endpoints — which is
//! exactly why the paper found no qualitative difference between the real
//! clusters and the simulator (Fig. 8). We keep both so that "simulated
//! system" can mean LogGOPS while the machine presets use Hockney.

use simdes::SimDuration;

/// A point-to-point message cost model.
///
/// An enum rather than a trait object: the set of models is closed, values
/// must be `Copy` + serializable for experiment configs, and the simulator
/// calls this in its innermost loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointToPoint {
    /// Hockney model: `T(s) = latency + s / bandwidth`.
    Hockney(Hockney),
    /// LogGOPS model: `T(s) = L + 2o + s·G`; `g` bounds injection rate.
    LogGops(LogGops),
}

/// Hockney model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hockney {
    /// Startup latency α.
    pub latency: SimDuration,
    /// Asymptotic bandwidth β in bytes per second.
    pub bandwidth_bps: f64,
}

/// LogGOPS model parameters (the LogGP extension used by LogGOPSim; the
/// eager/rendezvous synchronisation `S` is handled by the protocol layer in
/// `mpisim`, not here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGops {
    /// Wire latency L.
    pub l: SimDuration,
    /// CPU overhead o per message end (charged twice: send + receive).
    pub o: SimDuration,
    /// Gap g: minimum interval between consecutive message injections.
    pub g: SimDuration,
    /// Gap per byte G (seconds per byte).
    pub big_g_per_byte: f64,
    /// Overhead per byte O (seconds per byte), charged on the CPU.
    pub big_o_per_byte: f64,
}

impl PointToPoint {
    /// Total one-way time for a single `bytes`-sized message between two
    /// otherwise idle endpoints.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        match self {
            PointToPoint::Hockney(h) => h.transfer_time(bytes),
            PointToPoint::LogGops(l) => l.transfer_time(bytes),
        }
    }

    /// Time for a zero-payload control message (rendezvous RTS/CTS
    /// handshake packets).
    pub fn ctrl_latency(&self) -> SimDuration {
        match self {
            PointToPoint::Hockney(h) => h.latency,
            PointToPoint::LogGops(l) => l.l + l.o + l.o,
        }
    }

    /// Minimum spacing between two message injections from the same sender
    /// (zero for Hockney, `g` for LogGOPS).
    pub fn injection_gap(&self) -> SimDuration {
        match self {
            PointToPoint::Hockney(_) => SimDuration::ZERO,
            PointToPoint::LogGops(l) => l.g,
        }
    }

    /// A degraded copy of this link: latency terms are stretched by
    /// `latency_factor`, effective bandwidth is divided by
    /// `bandwidth_factor` (per-byte costs and the injection gap grow by
    /// the same factor). Factors of 1.0 leave the link unchanged; the
    /// fault-injection layer uses this to model a congested or flapping
    /// link over a time window without mutating the base topology.
    ///
    /// # Panics
    ///
    /// If either factor is not positive and finite.
    pub fn degraded(&self, latency_factor: f64, bandwidth_factor: f64) -> PointToPoint {
        assert!(
            latency_factor > 0.0 && latency_factor.is_finite(),
            "latency factor must be positive and finite, got {latency_factor}"
        );
        assert!(
            bandwidth_factor > 0.0 && bandwidth_factor.is_finite(),
            "bandwidth factor must be positive and finite, got {bandwidth_factor}"
        );
        match self {
            PointToPoint::Hockney(h) => PointToPoint::Hockney(Hockney {
                latency: h.latency.mul_f64(latency_factor),
                bandwidth_bps: h.bandwidth_bps / bandwidth_factor,
            }),
            PointToPoint::LogGops(l) => PointToPoint::LogGops(LogGops {
                l: l.l.mul_f64(latency_factor),
                o: l.o,
                g: l.g.mul_f64(bandwidth_factor),
                big_g_per_byte: l.big_g_per_byte * bandwidth_factor,
                big_o_per_byte: l.big_o_per_byte,
            }),
        }
    }

    /// Asymptotic bandwidth in bytes/s (useful for reporting).
    pub fn asymptotic_bandwidth_bps(&self) -> f64 {
        match self {
            PointToPoint::Hockney(h) => h.bandwidth_bps,
            PointToPoint::LogGops(l) => {
                if l.big_g_per_byte > 0.0 {
                    1.0 / l.big_g_per_byte
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

impl Hockney {
    /// Convenience constructor from latency and bandwidth.
    ///
    /// # Panics
    ///
    /// If the bandwidth is not positive and finite.
    pub fn new(latency: SimDuration, bandwidth_bps: f64) -> Self {
        assert!(
            bandwidth_bps > 0.0 && bandwidth_bps.is_finite(),
            "Hockney bandwidth must be positive and finite, got {bandwidth_bps}"
        );
        Hockney {
            latency,
            bandwidth_bps,
        }
    }

    /// `T(s) = α + s/β`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

impl LogGops {
    /// `T(s) = L + 2o + s·G`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.l + self.o + self.o + SimDuration::from_secs_f64(bytes as f64 * self.big_g_per_byte)
    }

    /// CPU time consumed at one endpoint for a `bytes` message: `o + s·O`.
    pub fn cpu_overhead(&self, bytes: u64) -> SimDuration {
        self.o + SimDuration::from_secs_f64(bytes as f64 * self.big_o_per_byte)
    }
}

tracefmt::json_codec! {
    struct Hockney { latency, bandwidth_bps }
}

tracefmt::json_codec! {
    struct LogGops { l, o, g, big_g_per_byte, big_o_per_byte }
}

tracefmt::json_codec! {
    enum PointToPoint { Hockney(_), LogGops(_) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hockney_1us_1gbs() -> PointToPoint {
        PointToPoint::Hockney(Hockney::new(SimDuration::from_micros(1), 1e9))
    }

    #[test]
    fn hockney_transfer_time() {
        let m = hockney_1us_1gbs();
        // 1 GB/s => 1 byte per ns; 8192 B => 8.192 us + 1 us latency.
        assert_eq!(
            m.transfer_time(8192),
            SimDuration::from_nanos(1_000 + 8_192)
        );
        assert_eq!(m.transfer_time(0), SimDuration::from_micros(1));
    }

    #[test]
    fn hockney_ctrl_latency_is_alpha() {
        assert_eq!(
            hockney_1us_1gbs().ctrl_latency(),
            SimDuration::from_micros(1)
        );
        assert_eq!(hockney_1us_1gbs().injection_gap(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn hockney_rejects_zero_bandwidth() {
        Hockney::new(SimDuration::ZERO, 0.0);
    }

    #[test]
    fn loggops_transfer_time() {
        let m = PointToPoint::LogGops(LogGops {
            l: SimDuration::from_micros(2),
            o: SimDuration::from_nanos(500),
            g: SimDuration::from_micros(1),
            big_g_per_byte: 1e-9, // 1 GB/s
            big_o_per_byte: 0.0,
        });
        // L + 2o + s*G = 2000 + 1000 + 8192 ns
        assert_eq!(m.transfer_time(8192), SimDuration::from_nanos(11_192));
        assert_eq!(m.ctrl_latency(), SimDuration::from_nanos(3_000));
        assert_eq!(m.injection_gap(), SimDuration::from_micros(1));
    }

    #[test]
    fn loggops_cpu_overhead() {
        let l = LogGops {
            l: SimDuration::ZERO,
            o: SimDuration::from_nanos(400),
            g: SimDuration::ZERO,
            big_g_per_byte: 0.0,
            big_o_per_byte: 1e-9,
        };
        assert_eq!(l.cpu_overhead(1000), SimDuration::from_nanos(1_400));
    }

    #[test]
    fn transfer_time_monotone_in_size() {
        let m = hockney_1us_1gbs();
        let mut last = SimDuration::ZERO;
        for s in [0u64, 1, 64, 1024, 1 << 20] {
            let t = m.transfer_time(s);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn degraded_hockney_scales_latency_and_bandwidth() {
        let m = hockney_1us_1gbs().degraded(2.0, 4.0);
        // Latency 1 us -> 2 us; bandwidth 1 GB/s -> 250 MB/s.
        assert_eq!(m.ctrl_latency(), SimDuration::from_micros(2));
        assert_eq!(
            m.transfer_time(1000),
            SimDuration::from_nanos(2_000 + 4_000)
        );
        // Unit factors are the identity.
        assert_eq!(hockney_1us_1gbs().degraded(1.0, 1.0), hockney_1us_1gbs());
    }

    #[test]
    fn degraded_loggops_scales_wire_terms_only() {
        let base = LogGops {
            l: SimDuration::from_micros(2),
            o: SimDuration::from_nanos(500),
            g: SimDuration::from_micros(1),
            big_g_per_byte: 1e-9,
            big_o_per_byte: 2e-9,
        };
        let d = PointToPoint::LogGops(base).degraded(3.0, 2.0);
        let PointToPoint::LogGops(got) = d else {
            panic!("degradation changed the model family");
        };
        assert_eq!(got.l, SimDuration::from_micros(6));
        assert_eq!(got.o, base.o, "CPU overhead is not a wire property");
        assert_eq!(got.g, SimDuration::from_micros(2));
        assert!((got.big_g_per_byte - 2e-9).abs() < 1e-15);
        assert!((got.big_o_per_byte - 2e-9).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "bandwidth factor")]
    fn degraded_rejects_nonpositive_factors() {
        hockney_1us_1gbs().degraded(1.0, 0.0);
    }

    #[test]
    fn asymptotic_bandwidth_reporting() {
        assert_eq!(hockney_1us_1gbs().asymptotic_bandwidth_bps(), 1e9);
        let lg = PointToPoint::LogGops(LogGops {
            l: SimDuration::ZERO,
            o: SimDuration::ZERO,
            g: SimDuration::ZERO,
            big_g_per_byte: 2e-9,
            big_o_per_byte: 0.0,
        });
        assert!((lg.asymptotic_bandwidth_bps() - 5e8).abs() < 1.0);
    }
}
