//! # ocelotl — spatiotemporal trace aggregation toolkit
//!
//! Facade crate of the CLUSTER 2014 reproduction of *"A Spatiotemporal Data
//! Aggregation Technique for Performance Analysis of Large-scale Execution
//! Traces"* (Dosimont et al.). Re-exports the substrate crates:
//!
//! - [`trace`] — the trace microscopic model (hierarchy, states, slices)
//!   and the push-based [`trace::sink`] ingestion layer;
//! - [`core`] — the aggregation algorithms (Algorithm 1 and the baselines);
//! - [`format`](mod@format) — PTF/BTF/Pajé trace files: streaming decoders that drive
//!   any [`trace::sink::EventSink`], with `read_model` building the
//!   microscopic model in O(model) memory straight from disk;
//! - [`mpisim`] — the MPI platform simulator regenerating the paper's traces;
//! - [`viz`] — the overview renderers (SVG/ASCII, visual aggregation, Gantt),
//!   including reply renderers that draw straight from protocol answers.
//!
//! ## The query API — the stable public surface
//!
//! Every analysis this toolkit can run is expressible as one
//! [`query::AnalysisRequest`] executed by a [`query::QueryEngine`]; the
//! typed [`query::AnalysisReply`] is fully self-contained (printable,
//! renderable and serializable without any further data access). The CLI's
//! analysis commands, the `ocelotl serve` server and the `ocelotl query`
//! client are all thin clients of this one protocol, and
//! [`format::encode_reply`]/[`format::decode_reply`] give it a stable
//! line-delimited JSON wire form.
//!
//! ```
//! use ocelotl::prelude::*;
//! use ocelotl::query::{AnalysisReply, AnalysisRequest, QueryEngine};
//!
//! // Simulate a small run and wrap it in a session + engine.
//! let scenario = ocelotl::mpisim::scenario(CaseId::A, 0.004);
//! let (trace, _stats) = scenario.run(42);
//! let model = MicroModel::from_trace(&trace, 30).unwrap();
//! let fingerprint = ocelotl::format::hash_trace(&trace).unwrap();
//! let session = AnalysisSession::new(
//!     OwnedSource::new(model, fingerprint),
//!     SessionConfig { n_slices: 30, ..SessionConfig::default() },
//! );
//! let mut engine = QueryEngine::new(session);
//!
//! // Ask for the optimal partition at p = 0.5 …
//! let reply = engine
//!     .execute(&AnalysisRequest::Aggregate {
//!         p: 0.5,
//!         coarse: false,
//!         compare: false,
//!         diff_p: None,
//!     })
//!     .unwrap();
//! let AnalysisReply::Aggregate(agg) = &reply else { unreachable!() };
//! assert!(agg.summary.n_areas < agg.summary.n_cells);
//!
//! // … and the reply round-trips through the wire codec byte-exactly.
//! let line = ocelotl::format::encode_reply(&Ok(reply.clone()));
//! assert_eq!(ocelotl::format::decode_reply(&line).unwrap().unwrap(), reply);
//! ```
//!
//! The classic in-process surface remains available for library callers:
//!
//! ```
//! use ocelotl::prelude::*;
//!
//! // Simulate a small CG run (Table II case A at 1/100 scale)...
//! let scenario = ocelotl::mpisim::scenario(CaseId::A, 0.01);
//! let (trace, _stats) = scenario.run(42);
//! // ...slice it into the 30-period microscopic model the paper uses...
//! let model = MicroModel::from_trace(&trace, 30).unwrap();
//! // ...and compute the optimal spatiotemporal partition at p = 0.5.
//! let input = AggregationInput::build(&model);
//! let partition = aggregate_default(&input, 0.5).partition(&input);
//! assert!(partition.validate(model.hierarchy(), 30).is_ok());
//!
//! // Grids too big for the paper's dense O(|S||T|²) matrices evaluate
//! // cells on demand from O(|S||T||X|) prefix sums — the same bits (an
//! // `AnalysisSession` picks between the two by size on its own).
//! let cube = CubeCore::build(&model);
//! let same = aggregate_default(&cube, 0.5).partition(&cube);
//! assert_eq!(partition, same);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ocelotl_core as core;
pub use ocelotl_format as format;
pub use ocelotl_mpisim as mpisim;
pub use ocelotl_trace as trace;
pub use ocelotl_viz as viz;

/// The typed request/reply protocol (re-exported from
/// [`core::query`]): the stable surface every client — CLI, server,
/// library — talks to.
pub use ocelotl_core::query;

/// Commonly used items in one import.
pub mod prelude {
    pub use ocelotl_core::query::{AnalysisReply, AnalysisRequest, QueryEngine, QueryError};
    pub use ocelotl_core::{
        aggregate, aggregate_default, product_aggregation, quality, significant_partitions,
        AggregationInput, AnalysisSession, Area, ArtifactStore, CubeCore, CubeSource, Cut, CutTree,
        DenseCube, DpConfig, IngestStats, Metric, ModelSource, OwnedSource, Partition, QualityCube,
        SessionConfig, SessionError,
    };
    pub use ocelotl_mpisim::{CaseId, Platform, Scenario};
    pub use ocelotl_trace::{
        EventSink, Hierarchy, HierarchyBuilder, LeafId, MicroModel, ModelKind, ModelSink, NodeId,
        StateId, StateRegistry, TimeGrid, Trace, TraceBuilder,
    };
}
