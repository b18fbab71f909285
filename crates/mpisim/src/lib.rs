//! # ocelotl-mpisim — MPI platform simulator (Grid'5000 stand-in)
//!
//! Substrate crate generating the execution traces the paper analyzes
//! (§V): NAS CG and LU runs on Grid'5000 sites, traced per MPI call. Since
//! the real testbed is unavailable, a discrete-event simulator executes
//! calibrated communication skeletons over platform models with the paper's
//! cluster shapes and interconnect heterogeneity.
//!
//! - [`platform`] — site/cluster/machine/core descriptions, Table II cases;
//! - [`network`] — latency/bandwidth links, jitter, perturbation windows;
//! - [`engine`] — the DES core executing per-rank [`engine::Op`] programs;
//! - [`apps`] — NAS CG (butterfly exchange + reductions) and LU (SSOR
//!   wavefront) skeletons calibrated to Table II event counts, plus MG
//!   (V-cycle halo exchanges) and EP (negative control) beyond the paper;
//! - [`scenarios`] — the four Table II cases, runnable at any scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod engine;
pub mod network;
pub mod platform;
pub mod scenarios;

pub use engine::{Engine, Op, SimStats, States};
pub use network::{Network, Perturbation};
pub use platform::{case_platform, CaseId, ClusterSpec, Location, Nic, Platform};
pub use scenarios::{scenario, scenario_with_events, App, Scenario};
