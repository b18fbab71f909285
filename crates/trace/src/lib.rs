//! # ocelotl-trace — the trace microscopic model
//!
//! Substrate crate for the CLUSTER 2014 reproduction of *"A Spatiotemporal
//! Data Aggregation Technique for Performance Analysis of Large-scale
//! Execution Traces"* (Dosimont et al.).
//!
//! It formalizes the three trace dimensions of §III.A:
//!
//! - **space** — [`Hierarchy`]: platform resources as the leaves of a rooted
//!   tree (site → cluster → machine → core);
//! - **time** — [`TimeGrid`]: the division of continuous trace time into
//!   `|T|` regular microscopic periods;
//! - **state** — [`StateRegistry`]: the unordered set `X` of resource states.
//!
//! Raw events ([`StateInterval`]) are collected in a [`Trace`] and reduced to
//! the dense [`MicroModel`] holding `d_x(s,t)` for every microscopic
//! spatiotemporal area — the exclusive input of the aggregation algorithms
//! in `ocelotl-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
pub mod event;
pub mod hierarchy;
pub mod micro;
pub mod sink;
pub mod slicing;
pub mod state;
pub mod synthetic;
#[allow(clippy::module_inception)]
pub mod trace;
pub mod variable;

pub use density::{event_counts, event_density, event_density_auto, peak_normalize};
pub use event::{PointEvent, PointKind, StateInterval, Time};
pub use hierarchy::{Hierarchy, HierarchyBuilder, LeafId, NodeId};
pub use micro::{MicroBuilder, MicroModel};
pub use sink::{
    fold_interval, EventSink, ModelKind, ModelSink, ModelSinkError, PartialModel, ScanSink,
    StreamHeader, TraceSink, MODEL_LIMIT_BYTES,
};
pub use slicing::{hi_res_slices, TimeGrid, HI_RES_CELL_BUDGET, HI_RES_FACTOR, HI_RES_MIN_SLICES};
pub use state::{StateId, StateRegistry};
pub use trace::{Trace, TraceBuilder};
pub use variable::{
    BinSpec, VarSample, VariableBinner, VariableId, VariableRegistry, VariableTrace,
    VariableTraceBuilder,
};
