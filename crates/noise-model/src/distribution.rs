//! Delay distributions.
//!
//! A [`DelayDistribution`] is a stateless description of a random
//! per-execution-phase delay; sampling takes an external RNG so that each
//! rank can own an independent, reproducible stream (see
//! `simdes::SeedFactory`).
//!
//! The paper's injected noise (Eq. 3) is exponential:
//!
//! ```text
//! f(T_delay/T_exec; λ) = λ · exp(−λ · T_delay/T_exec),   E = 1/λ
//! ```
//!
//! i.e. an exponential with mean `E · T_exec` where `E` is the "mean relative
//! delay per execution period". The natural system noise of Fig. 3 is
//! near-exponential with a hard upper cutoff (< 30 µs with SMT) and, for
//! Omni-Path without SMT, bimodal with a second component at ≈ 660 µs.

use simdes::{SimDuration, SimRng};

/// A distribution of non-negative delays.
///
/// Cheap to clone for every variant except [`DelayDistribution::Empirical`],
/// which owns its sample vector.
#[derive(Debug, Clone, PartialEq)]
pub enum DelayDistribution {
    /// No delay, ever. The "silent system" of Sec. IV-C.
    None,
    /// The same delay every time (useful in tests and ablations).
    Constant(SimDuration),
    /// Exponential with the given mean.
    Exponential {
        /// Mean delay.
        mean: SimDuration,
    },
    /// Exponential with mean `mean`, truncated by clamping every sample at
    /// `max`. Matches the hard cutoffs seen in Fig. 3 (with SMT enabled the
    /// measured delays never exceed ≈ 30 µs).
    TruncatedExponential {
        /// Mean of the underlying exponential.
        mean: SimDuration,
        /// Upper clamp applied to every sample.
        max: SimDuration,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Inclusive lower bound.
        lo: SimDuration,
        /// Inclusive upper bound.
        hi: SimDuration,
    },
    /// Bounded Pareto tail: `scale · U^{−1/alpha}` clamped at `max`.
    /// Same mean as an exponential can hide a far heavier tail — used by
    /// the decay-shape ablation to show that idle-wave damping depends on
    /// the noise *distribution*, not only its mean.
    Pareto {
        /// Scale (minimum value) of the Pareto law.
        scale: SimDuration,
        /// Tail exponent α (> 1 for a finite mean).
        alpha: f64,
        /// Hard clamp applied to every sample.
        max: SimDuration,
    },
    /// Empirical bootstrap: draw uniformly from recorded samples
    /// (nanoseconds). Lets experiments replay *measured* noise — e.g. a
    /// per-phase delay trace collected on a real machine — instead of a
    /// parametric fit. Build with [`DelayDistribution::empirical`].
    Empirical {
        /// Recorded delay samples in nanoseconds (non-empty).
        samples: Vec<u64>,
    },
    /// Two-component mixture: with probability `p_second`, draw from the
    /// second component, else from the first. Models the bimodal Omni-Path
    /// histogram of Fig. 3(b) (base OS noise + an expensive driver event).
    Bimodal {
        /// First (bulk) component: truncated exponential.
        first_mean: SimDuration,
        /// Clamp for the first component.
        first_max: SimDuration,
        /// Center of the second (spike) component.
        second_center: SimDuration,
        /// Half-width of the second component (uniform around the center).
        second_halfwidth: SimDuration,
        /// Probability of drawing from the second component.
        p_second: f64,
    },
}

impl DelayDistribution {
    /// Draw one delay.
    ///
    /// # Panics
    ///
    /// On parameter combinations that [`DelayDistribution::check`] rejects
    /// (empty empirical sample set, inverted uniform bounds, Pareto
    /// `alpha <= 1`).
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            DelayDistribution::Empirical { ref samples } => {
                assert!(
                    !samples.is_empty(),
                    "empirical distribution with no samples"
                );
                let idx = rng.index(samples.len());
                SimDuration(samples[idx])
            }
            DelayDistribution::None => SimDuration::ZERO,
            DelayDistribution::Constant(d) => d,
            DelayDistribution::Exponential { mean } => sample_exponential(rng, mean),
            DelayDistribution::TruncatedExponential { mean, max } => {
                sample_exponential(rng, mean).min(max)
            }
            DelayDistribution::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform bounds inverted");
                let span = hi.nanos() - lo.nanos();
                SimDuration(lo.nanos() + rng.u64_inclusive(0, span))
            }
            DelayDistribution::Pareto { scale, alpha, max } => {
                assert!(alpha > 1.0, "Pareto alpha must exceed 1 for a finite mean");
                let u = rng.f64_unit();
                // 1 − u in (0, 1]: no division by zero.
                let v = scale.as_secs_f64() * (1.0 - u).powf(-1.0 / alpha);
                SimDuration::from_secs_f64(v).min(max)
            }
            DelayDistribution::Bimodal {
                first_mean,
                first_max,
                second_center,
                second_halfwidth,
                p_second,
            } => {
                if rng.f64_unit() < p_second {
                    let lo = second_center.saturating_sub(second_halfwidth);
                    let hi = second_center + second_halfwidth;
                    let span = hi.nanos() - lo.nanos();
                    SimDuration(lo.nanos() + rng.u64_inclusive(0, span))
                } else {
                    sample_exponential(rng, first_mean).min(first_max)
                }
            }
        }
    }

    /// Analytic mean of the distribution (exact except for the truncated
    /// exponential, where the clamped mean is computed in closed form).
    ///
    /// # Panics
    ///
    /// On parameter combinations that [`DelayDistribution::check`] rejects
    /// (empty empirical sample set, Pareto `alpha <= 1`).
    pub fn mean(&self) -> SimDuration {
        match *self {
            DelayDistribution::Empirical { ref samples } => {
                assert!(
                    !samples.is_empty(),
                    "empirical distribution with no samples"
                );
                let sum: u128 = samples.iter().map(|&v| u128::from(v)).sum();
                SimDuration((sum / samples.len() as u128) as u64)
            }
            DelayDistribution::None => SimDuration::ZERO,
            DelayDistribution::Constant(d) => d,
            DelayDistribution::Exponential { mean } => mean,
            DelayDistribution::TruncatedExponential { mean, max } => {
                // E[min(X, c)] for X ~ Exp(mean): mean · (1 − e^{−c/mean}).
                if mean.is_zero() {
                    return SimDuration::ZERO;
                }
                let m = mean.as_secs_f64();
                let c = max.as_secs_f64();
                SimDuration::from_secs_f64(m * (1.0 - (-c / m).exp()))
            }
            DelayDistribution::Uniform { lo, hi } => SimDuration((lo.nanos() + hi.nanos()) / 2),
            DelayDistribution::Pareto { scale, alpha, max } => {
                // Unclamped mean α·scale/(α−1); the clamp correction for a
                // bounded Pareto: E[min(X, c)] with X ~ Pareto(s, α) is
                // s·α/(α−1) − (s/c)^α · c/(α−1)  (for c ≥ s).
                assert!(alpha > 1.0, "Pareto alpha must exceed 1 for a finite mean");
                let s = scale.as_secs_f64();
                let c = max.as_secs_f64().max(s);
                let mean = s * alpha / (alpha - 1.0) - (s / c).powf(alpha) * c / (alpha - 1.0);
                SimDuration::from_secs_f64(mean)
            }
            DelayDistribution::Bimodal {
                first_mean,
                first_max,
                second_center,
                p_second,
                ..
            } => {
                let first = DelayDistribution::TruncatedExponential {
                    mean: first_mean,
                    max: first_max,
                }
                .mean()
                .as_secs_f64();
                let second = second_center.as_secs_f64();
                SimDuration::from_secs_f64(first * (1.0 - p_second) + second * p_second)
            }
        }
    }

    /// `true` if every sample is zero.
    pub fn is_silent(&self) -> bool {
        match self {
            DelayDistribution::None => true,
            DelayDistribution::Constant(d) => d.is_zero(),
            DelayDistribution::Empirical { samples } => samples.iter().all(|&v| v == 0),
            _ => false,
        }
    }

    /// Non-panicking parameter validation: `Err` describes the first
    /// invalid parameter. [`DelayDistribution::sample`] asserts the same
    /// conditions at draw time; this front-loads them so a config analyzer
    /// can report the problem before a simulation starts.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            DelayDistribution::Empirical { ref samples } if samples.is_empty() => {
                Err("empirical distribution with no samples".into())
            }
            DelayDistribution::Pareto { alpha, .. } if !(alpha > 1.0) => Err(format!(
                "Pareto alpha must exceed 1 for a finite mean (alpha = {alpha})"
            )),
            DelayDistribution::Uniform { lo, hi } if lo > hi => {
                Err(format!("uniform bounds inverted (lo = {lo} > hi = {hi})"))
            }
            DelayDistribution::Bimodal { p_second, .. } if !(0.0..=1.0).contains(&p_second) => Err(
                format!("bimodal p_second must lie in [0, 1] (p_second = {p_second})"),
            ),
            _ => Ok(()),
        }
    }

    /// An empirical bootstrap distribution over recorded delays.
    ///
    /// # Panics
    /// Panics on an empty sample set.
    pub fn empirical(samples: Vec<SimDuration>) -> Self {
        assert!(!samples.is_empty(), "empirical distribution needs samples");
        DelayDistribution::Empirical {
            samples: samples.into_iter().map(|d| d.nanos()).collect(),
        }
    }

    /// An empirical distribution approximating a histogram: each bin
    /// contributes its midpoint, weighted proportionally by its count
    /// (about `max_points` representative points in total; bins whose
    /// share rounds to zero are dropped, so extreme tail mass below
    /// `total/(2·max_points)` is lost).
    ///
    /// # Panics
    /// Panics on an empty histogram.
    pub fn from_histogram(h: &crate::Histogram, max_points: usize) -> Self {
        assert!(h.total() > 0, "cannot fit an empty histogram");
        assert!(max_points > 0, "need at least one representative point");
        let total = h.total() as u128;
        let mut samples = Vec::new();
        let half_bin = h.bin_width().nanos() / 2;
        for (i, &count) in h.counts().iter().enumerate() {
            // Proportional representation with rounding.
            let points = ((2 * count as u128 * max_points as u128 + total) / (2 * total)) as usize;
            if points == 0 {
                continue;
            }
            let mid = h.bin_start(i).nanos() + half_bin;
            samples.extend(std::iter::repeat_n(mid, points));
        }
        if samples.is_empty() {
            // Degenerate: everything in the overflow bin or extremely
            // flat; fall back to the histogram mean.
            samples.push(h.mean().nanos());
        }
        DelayDistribution::Empirical { samples }
    }
}

/// Inverse-CDF exponential sampling via [`SimRng::exp`].
fn sample_exponential(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    if mean.is_zero() {
        return SimDuration::ZERO;
    }
    SimDuration::from_secs_f64(rng.exp(mean.as_secs_f64()))
}

tracefmt::json_codec! {
    enum DelayDistribution {
        None,
        Constant(_),
        Exponential { mean },
        TruncatedExponential { mean, max },
        Uniform { lo, hi },
        Pareto { scale, alpha, max },
        Empirical { samples },
        Bimodal { first_mean, first_max, second_center, second_halfwidth, p_second },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(12345)
    }

    fn empirical_mean(d: &DelayDistribution, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r).as_secs_f64()).sum::<f64>() / n as f64
    }

    #[test]
    fn none_and_constant() {
        let mut r = rng();
        assert_eq!(DelayDistribution::None.sample(&mut r), SimDuration::ZERO);
        assert!(DelayDistribution::None.is_silent());
        let c = DelayDistribution::Constant(SimDuration::from_micros(5));
        assert_eq!(c.sample(&mut r), SimDuration::from_micros(5));
        assert!(!c.is_silent());
        assert!(DelayDistribution::Constant(SimDuration::ZERO).is_silent());
    }

    #[test]
    fn exponential_mean_converges() {
        let mean = SimDuration::from_micros(300);
        let d = DelayDistribution::Exponential { mean };
        let m = empirical_mean(&d, 200_000);
        let target = mean.as_secs_f64();
        assert!(
            (m - target).abs() / target < 0.02,
            "mean off: {m} vs {target}"
        );
        assert_eq!(d.mean(), mean);
    }

    #[test]
    fn exponential_samples_are_nonnegative_and_spread() {
        let d = DelayDistribution::Exponential {
            mean: SimDuration::from_micros(10),
        };
        let mut r = rng();
        let mut above = 0;
        for _ in 0..10_000 {
            let s = d.sample(&mut r);
            if s > SimDuration::from_micros(10) {
                above += 1;
            }
        }
        // P(X > mean) = 1/e ≈ 0.368.
        assert!((3200..4200).contains(&above), "got {above}");
    }

    #[test]
    fn truncation_clamps() {
        let d = DelayDistribution::TruncatedExponential {
            mean: SimDuration::from_micros(10),
            max: SimDuration::from_micros(15),
        };
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) <= SimDuration::from_micros(15));
        }
        // Closed-form truncated mean: 10 · (1 − e^{−1.5}) ≈ 7.769 µs.
        let want = 10.0 * (1.0 - (-1.5f64).exp());
        let got = d.mean().as_micros_f64();
        assert!((got - want).abs() < 0.01, "{got} vs {want}");
        let emp = empirical_mean(&d, 200_000) * 1e6;
        assert!((emp - want).abs() / want < 0.02, "{emp} vs {want}");
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = DelayDistribution::Uniform {
            lo: SimDuration::from_micros(2),
            hi: SimDuration::from_micros(6),
        };
        let mut r = rng();
        for _ in 0..10_000 {
            let s = d.sample(&mut r);
            assert!(s >= SimDuration::from_micros(2) && s <= SimDuration::from_micros(6));
        }
        assert_eq!(d.mean(), SimDuration::from_micros(4));
    }

    #[test]
    fn bimodal_produces_both_modes() {
        let d = DelayDistribution::Bimodal {
            first_mean: SimDuration::from_micros(3),
            first_max: SimDuration::from_micros(30),
            second_center: SimDuration::from_micros(660),
            second_halfwidth: SimDuration::from_micros(40),
            p_second: 0.05,
        };
        let mut r = rng();
        let (mut low, mut high) = (0u32, 0u32);
        for _ in 0..50_000 {
            let s = d.sample(&mut r);
            if s >= SimDuration::from_micros(620) {
                high += 1;
            } else if s <= SimDuration::from_micros(30) {
                low += 1;
            } else {
                panic!("sample {s} falls between the modes");
            }
        }
        let p = high as f64 / 50_000.0;
        assert!((0.04..0.06).contains(&p), "spike fraction {p}");
        assert!(low > 0);
        // Mean ≈ 0.95·2.85 + 0.05·660 ≈ 35.7 µs.
        let m = d.mean().as_micros_f64();
        assert!((30.0..40.0).contains(&m), "mean {m}");
    }

    #[test]
    fn sampling_is_reproducible() {
        let d = DelayDistribution::Exponential {
            mean: SimDuration::from_micros(7),
        };
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    fn check_accepts_valid_and_rejects_invalid_parameters() {
        let us = SimDuration::from_micros;
        assert!(DelayDistribution::None.check().is_ok());
        assert!(DelayDistribution::Exponential { mean: us(3) }
            .check()
            .is_ok());
        assert!(DelayDistribution::Uniform {
            lo: us(1),
            hi: us(2)
        }
        .check()
        .is_ok());
        let inverted = DelayDistribution::Uniform {
            lo: us(5),
            hi: us(2),
        };
        assert!(inverted.check().unwrap_err().contains("inverted"));
        let heavy = DelayDistribution::Pareto {
            scale: us(1),
            alpha: 0.9,
            max: us(100),
        };
        assert!(heavy.check().unwrap_err().contains("alpha"));
        let nan_alpha = DelayDistribution::Pareto {
            scale: us(1),
            alpha: f64::NAN,
            max: us(100),
        };
        assert!(nan_alpha.check().is_err());
        let empty = DelayDistribution::Empirical {
            samples: Vec::new(),
        };
        assert!(empty.check().unwrap_err().contains("no samples"));
        let bad_mix = DelayDistribution::Bimodal {
            first_mean: us(3),
            first_max: us(30),
            second_center: us(660),
            second_halfwidth: us(40),
            p_second: 1.5,
        };
        assert!(bad_mix.check().unwrap_err().contains("p_second"));
    }

    #[test]
    fn zero_mean_exponential_is_silent_in_practice() {
        let d = DelayDistribution::Exponential {
            mean: SimDuration::ZERO,
        };
        let mut r = rng();
        assert_eq!(d.sample(&mut r), SimDuration::ZERO);
    }
}

#[cfg(test)]
mod pareto_tests {
    use super::*;

    #[test]
    fn pareto_samples_respect_bounds() {
        let d = DelayDistribution::Pareto {
            scale: SimDuration::from_micros(10),
            alpha: 1.5,
            max: SimDuration::from_millis(5),
        };
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..50_000 {
            let s = d.sample(&mut rng);
            assert!(s >= SimDuration::from_micros(9)); // rounding slack
            assert!(s <= SimDuration::from_millis(5));
        }
    }

    #[test]
    fn pareto_mean_matches_closed_form() {
        let d = DelayDistribution::Pareto {
            scale: SimDuration::from_micros(100),
            alpha: 2.0,
            max: SimDuration::from_millis(10),
        };
        // Unclamped mean 200 us; clamp at 10 ms subtracts
        // (0.1/10)^2 * 10ms / 1 = 1 us => 199 us.
        let mean = d.mean().as_micros_f64();
        assert!((mean - 199.0).abs() < 1.0, "mean {mean}");
        // Empirical check.
        let mut rng = SimRng::seed_from_u64(4);
        let emp: f64 = (0..400_000)
            .map(|_| d.sample(&mut rng).as_micros_f64())
            .sum::<f64>()
            / 400_000.0;
        assert!(
            (emp - mean).abs() / mean < 0.03,
            "empirical {emp} vs {mean}"
        );
    }

    #[test]
    fn pareto_is_heavier_tailed_than_exponential_at_same_mean() {
        let pareto = DelayDistribution::Pareto {
            scale: SimDuration::from_micros(50),
            alpha: 1.2,
            max: SimDuration::from_millis(100),
        };
        let mean = pareto.mean();
        let exp = DelayDistribution::Exponential { mean };
        let mut rng = SimRng::seed_from_u64(5);
        let big = SimDuration::from_millis(3);
        let count = |d: &DelayDistribution, rng: &mut SimRng| {
            (0..100_000).filter(|_| d.sample(rng) > big).count()
        };
        let p_big = count(&pareto, &mut rng);
        let e_big = count(&exp, &mut rng);
        assert!(
            p_big > 5 * e_big.max(1),
            "pareto tail not heavier: {p_big} vs {e_big}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn pareto_with_infinite_mean_panics_on_sample() {
        let d = DelayDistribution::Pareto {
            scale: SimDuration::from_micros(1),
            alpha: 0.9,
            max: SimDuration::from_millis(1),
        };
        let mut rng = SimRng::seed_from_u64(1);
        let _ = d.sample(&mut rng);
    }
}

#[cfg(test)]
mod empirical_tests {
    use super::*;
    use crate::Histogram;
    use tracefmt::json;

    #[test]
    fn empirical_samples_only_recorded_values() {
        let d = DelayDistribution::empirical(vec![
            SimDuration::from_micros(2),
            SimDuration::from_micros(5),
            SimDuration::from_micros(11),
        ]);
        let mut rng = SimRng::seed_from_u64(1);
        let allowed = [2_000u64, 5_000, 11_000];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let s = d.sample(&mut rng).nanos();
            assert!(allowed.contains(&s), "unexpected sample {s}");
            seen.insert(s);
        }
        assert_eq!(seen.len(), 3, "all recorded values should appear");
        // Mean of the records.
        assert_eq!(d.mean(), SimDuration::from_nanos(6_000));
        assert!(!d.is_silent());
        assert!(DelayDistribution::empirical(vec![SimDuration::ZERO]).is_silent());
    }

    #[test]
    fn from_histogram_reproduces_the_shape() {
        // Measure noise -> histogram -> empirical replay: the replayed
        // mean must track the measured one.
        let source = DelayDistribution::Exponential {
            mean: SimDuration::from_micros(50),
        };
        let mut rng = SimRng::seed_from_u64(2);
        let mut h = Histogram::new(SimDuration::from_micros(5), 200);
        for _ in 0..100_000 {
            h.record(source.sample(&mut rng));
        }
        let replay = DelayDistribution::from_histogram(&h, 2_000);
        let m_src = h.mean().as_micros_f64();
        let m_rep = replay.mean().as_micros_f64();
        assert!(
            (m_rep - m_src).abs() / m_src < 0.05,
            "replayed mean {m_rep} vs measured {m_src}"
        );
        // Replayed samples respect the histogram's support.
        let mut rng2 = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let s = replay.sample(&mut rng2);
            assert!(s <= SimDuration::from_micros(1000));
        }
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_empirical_panics() {
        DelayDistribution::empirical(Vec::new());
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn empty_histogram_panics() {
        let h = Histogram::new(SimDuration::from_micros(1), 4);
        DelayDistribution::from_histogram(&h, 10);
    }

    #[test]
    fn empirical_noise_drives_a_simulation_like_any_other() {
        // End-to-end smoke: JSON round trip preserves the samples.
        let d = DelayDistribution::empirical(vec![
            SimDuration::from_micros(1),
            SimDuration::from_micros(2),
        ]);
        let text = json::to_string(&d);
        let back: DelayDistribution = json::from_str(&text).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let us = SimDuration::from_micros;
        let variants = vec![
            DelayDistribution::None,
            DelayDistribution::Constant(us(5)),
            DelayDistribution::Exponential { mean: us(300) },
            DelayDistribution::TruncatedExponential {
                mean: us(10),
                max: us(30),
            },
            DelayDistribution::Uniform {
                lo: us(2),
                hi: us(6),
            },
            DelayDistribution::Pareto {
                scale: us(10),
                alpha: 1.5,
                max: us(5000),
            },
            DelayDistribution::Empirical {
                samples: vec![1_000, 2_000],
            },
            DelayDistribution::Bimodal {
                first_mean: us(3),
                first_max: us(30),
                second_center: us(660),
                second_halfwidth: us(40),
                p_second: 0.05,
            },
        ];
        for d in variants {
            let text = json::to_string(&d);
            let back: DelayDistribution = json::from_str(&text).unwrap();
            assert_eq!(d, back, "round trip failed for {text}");
        }
    }
}
