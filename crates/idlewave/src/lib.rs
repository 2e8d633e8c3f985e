//! # idlewave — idle-wave analysis
//!
//! The core library of this reproduction of *Propagation and Decay of
//! Injected One-Off Delays on Clusters* (Afzal, Hager, Wellein, CLUSTER
//! 2019). It builds on the `mpisim` cluster simulator and provides:
//!
//! * [`WaveExperiment`] / [`WaveTrace`] — build and run idle-wave
//!   experiments with the paper's full parameter grid;
//! * [`model`] — the analytic propagation-speed model, Eq. (2):
//!   `v_silent = σ·d / (T_exec + T_comm)`;
//! * [`wavefront`] — extraction of wave arrival times and amplitudes;
//! * [`speed`] — measured propagation speed vs. the model;
//! * [`decay`] — decay rate β̄ of waves under exponential noise (Fig. 8);
//! * [`interaction`] — wave collision and cancellation analysis (Fig. 6);
//! * [`elimination`] — wave absorption by noise (Fig. 9);
//! * [`collectives`], [`hierarchy`], [`edges`] — extensions along the
//!   paper's future-work directions (collective schedules, domain-boundary
//!   speed changes, leading/trailing edge behaviour).
//!
//! ## Quick example
//!
//! ```
//! use idlewave::{WaveExperiment, model};
//! use simdes::SimDuration;
//!
//! // 18-rank chain, 3 ms phases; 13.5 ms delay at rank 5 (paper Fig. 4).
//! let wt = WaveExperiment::flat_chain(18)
//!     .texec(SimDuration::from_millis(3))
//!     .steps(16)
//!     .inject(5, 0, SimDuration::from_millis(3).mul_f64(4.5))
//!     .run();
//! let th = wt.default_threshold();
//! let cmp = idlewave::speed::compare_with_model(&wt, 5, th).unwrap();
//! assert!((cmp.ratio - 1.0).abs() < 0.05); // Eq. 2 holds on a silent system
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod continuum;
pub mod decay;
pub mod edges;
pub mod elimination;
mod experiment;
pub mod hierarchy;
pub mod interaction;
pub mod model;
pub mod scenarios;
pub mod serve;
pub mod spectrum;
pub mod speed;
pub mod sweep;
pub mod wavefront;

pub use experiment::{WaveExperiment, WaveTrace};
