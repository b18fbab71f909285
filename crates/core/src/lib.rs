//! # ocelotl-core — spatiotemporal trace aggregation
//!
//! Rust implementation of the primary contribution of *"A Spatiotemporal
//! Data Aggregation Technique for Performance Analysis of Large-scale
//! Execution Traces"* (Dosimont, Lamarche-Perrin, Schnorr, Huard, Vincent —
//! IEEE CLUSTER 2014).
//!
//! Given a microscopic trace model (`ocelotl_trace::MicroModel`), this crate
//! computes the hierarchy-and-order-consistent partition of `S × T` that
//! maximizes the parametrized information criterion
//! `pIC = p·gain − (1−p)·loss` (Eq. 2–4), where `gain` is the Shannon data
//! reduction and `loss` the Kullback–Leibler information loss of each
//! aggregate.
//!
//! ```
//! use ocelotl_trace::synthetic::fig3_model;
//! use ocelotl_core::{AggregationInput, aggregate_default};
//!
//! let model = fig3_model();                     // 12 resources × 20 slices
//! let input = AggregationInput::build(&model);  // O(|S||T|²) preprocessing
//! let tree = aggregate_default(&input, 0.5);    // Algorithm 1 at p = 0.5
//! let partition = tree.partition(&input);
//! assert!(partition.validate(model.hierarchy(), model.n_slices()).is_ok());
//! assert!(partition.len() < 240);               // fewer aggregates than cells
//! ```
//!
//! Module map:
//! - [`measures`] — Eq. 2–4 (loss, gain, pIC);
//! - [`cube`] — the [`QualityCube`] abstraction over `gain`/`loss` access,
//!   answered by the on-demand [`CubeCore`] prefix sums (`O(|S||T||X|)`
//!   memory, `O(|X|)` queries) and the precomputed [`DenseCube`]
//!   (`O(|S||T|²)` memory, `O(1)` queries) a session builds from them
//!   when they fit;
//! - [`input`] — the historical [`AggregationInput`] name (= dense cube)
//!   and the dense/lazy trade-off discussion;
//! - [`dp`] — Algorithm 1, the `O(|S||T|³)` spatiotemporal optimizer
//!   (sequential and fork–join parallel), generic over the cube;
//! - [`partition`] — areas, partitions, validation;
//! - [`onedim`] — the unidimensional baselines and their product (§III.D);
//! - [`pvalues`] — significant trade-off values (the Ocelotl slider);
//! - [`quality`](mod@quality) — normalized fidelity reporting (criterion G5);
//! - [`analysis`] — brute-force enumeration and strategy comparisons;
//! - [`session`] — the memoized [`AnalysisSession`] pipeline with its
//!   pluggable, content-addressed [`ArtifactStore`] (the §V.B
//!   "preprocess once, interact instantly" economy as an object);
//! - [`hires`] — the [`HiResModel`] super-resolution resident
//!   intermediate: any `--slices` change or aligned zoom is served by
//!   pure in-memory rebinning, bit-identical to a fresh ingest;
//! - [`query`] — the typed request/reply protocol
//!   ([`AnalysisRequest`]/[`AnalysisReply`]) and the [`QueryEngine`]
//!   executing it against a session — the stable public surface every
//!   client (CLI, `ocelotl serve`, library) talks to;
//! - [`visual`] — the §IV visual-aggregation pass (run engine-side so
//!   overview replies are fully drawable);
//! - [`tri`] — upper-triangular interval matrices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cube;
pub mod dp;
pub mod hires;
pub mod input;
pub mod inspect;
pub mod measures;
pub mod onedim;
pub mod partition;
pub mod pvalues;
pub mod quality;
pub mod query;
pub mod session;
#[cfg(test)]
mod test_models;
pub mod tri;
pub mod visual;

pub use analysis::{
    compare_partitions, mutual_information, total_mutual_information, PartitionComparison,
};
pub use cube::{
    backend_footprint, dense_matrix_bytes, CubeCore, DenseCube, QualityCube, DENSE_LIMIT_BYTES,
    DP_LIMIT_BYTES,
};
pub use dp::{aggregate, aggregate_default, Cut, CutTree, DpConfig};
pub use hires::{
    hi_res_slices, snap_to_grid, AppendError, AppendOutcome, HiResModel, LiveEvent, HI_RES_FACTOR,
    HI_RES_MIN_SLICES,
};
pub use input::AggregationInput;
pub use inspect::{
    area_at, area_table_header, area_table_row, inspect_area, summarize, summary_text, AreaReport,
};
pub use measures::{pic, xlog2x, AreaSums};
pub use onedim::{
    collapse_space, collapse_time, product_aggregation, spatial_partition, temporal_partition,
    ProductAggregation, SpatialPartition, TemporalPartition,
};
pub use partition::{Area, Partition};
pub use pvalues::{significant_partitions, significant_ps, PEntry};
pub use quality::{quality, QualityReport};
pub use query::{AnalysisReply, AnalysisRequest, QueryEngine, QueryError, PROTOCOL_VERSION};
pub use session::{
    fnv1a, AnalysisSession, ArtifactStore, CubeSource, IngestStats, MemoryStore, Metric,
    ModelSource, OwnedSource, PartitionTable, PointEntry, PushdownProbe, ResliceWindow,
    SessionConfig, SessionError, SignificantSet, DEFAULT_CACHE_KEEP, FNV_SEED,
};
pub use tri::TriMatrix;
pub use visual::{mode, visually_aggregate, Item, Mode, VisualAggregation, VisualMark};
