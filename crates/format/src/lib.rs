//! # ocelotl-format — trace serialization
//!
//! Substrate crate standing in for the paper's Score-P/OTF2 + Paje trace
//! files: that toolchain is not part of this workspace, so it defines its
//! own formats carrying the same content (per-resource state intervals and
//! point events over a resource hierarchy). The encodings:
//!
//! - **PTF** ([`text`]): Paje-inspired plain text, self-describing,
//!   diff-friendly;
//! - **BTF** ([`binary`]): compact fixed-record binary for the Table II
//!   scale (hundreds of millions of events);
//! - **OCTF** ([`columnar`]): chunk-indexed columnar native format — per
//!   chunk time extents, resource masks and checksums let windowed or
//!   filtered ingests skip whole chunks (predicate pushdown) while chunk
//!   boundaries double as shard boundaries for the parallel merge;
//! - **OMM** ([`micro_cache`]): the cached microscopic model, making the
//!   paper's "preprocess once, interact instantly" economy durable across
//!   analysis sessions;
//! - **OMI** ([`hires_cache`]): the cached hi-res intermediate
//!   (`.omicro`) — a warm session re-slices to any compatible `--slices`
//!   value from the store, never touching the trace;
//! - **OCB** ([`cube_cache`]): the cached quality-cube prefix sums
//!   (`.ocube`) — a warm session skips trace reading, slicing and
//!   prefix-sum construction entirely;
//! - **OPT** ([`part_cache`]): the cached partition table (`.opart`) —
//!   memoized DP results and the significant-`p` enumeration, so repeated
//!   queries run zero DP.
//!
//! The [`store`] module ties the last two together into the
//! content-addressed on-disk [`DiskStore`] (keys hash the trace bytes and
//! the analysis parameters; stale keys are invalidated on store) that
//! `ocelotl_core::AnalysisSession` plugs into.
//!
//! All formats support the paper's two-stage analysis pipeline:
//! *trace reading* (parse the file) and *microscopic description* (reduce
//! events to the `d_x(s,t)` model) — the streaming readers fuse the two
//! stages so multi-GB traces never materialize an event list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod columnar;
pub mod cube_cache;
pub mod error;
pub mod gzip;
pub mod hires_cache;
pub mod io;
pub mod json;
pub mod micro_cache;
pub mod paje;
pub mod part_cache;
pub mod store;
pub mod text;

pub use binary::{
    decode_binary, read_binary, write_binary, BtfStreamWriter, INTERVAL_RECORD_BYTES,
};
pub use columnar::{
    decode_columnar, plan_columnar, write_columnar, write_columnar_chunked, ChunkInfo,
    ColumnarPlan, ColumnarWriter, DEFAULT_CHUNK_RECORDS,
};
pub use cube_cache::{load_cube, read_cube, save_cube, write_cube};
pub use error::{FormatError, Result};
pub use gzip::{gunzip, gzip_stored, write_gzip_stored, GzipReader};
pub use hires_cache::{load_hi_res, read_hi_res_cache, save_hi_res, write_hi_res};
pub use io::{
    decode, read_hi_res, read_hi_res_window, read_hi_res_with, read_hierarchy, read_micro,
    read_model, read_model_with, read_trace, take_last_ingest_timing, trace_files, write_trace,
    Format, IngestMode, IngestOptions, IngestReport, Predicate, ShardMode, ShardTiming, MAX_SHARDS,
    SHARD_TARGET_BYTES,
};
pub use json::{
    decode_reply, decode_request, decode_wire_request, encode_reply, encode_request,
    encode_wire_request, Json,
};
pub use micro_cache::{load_micro, read_micro_cache, save_micro, write_micro};
pub use paje::{decode_paje, read_paje, write_paje};
pub use part_cache::{load_partitions, read_partitions, save_partitions, write_partitions};
pub use store::{
    hash_file, hash_file_chunk, hash_reader, hash_trace, hash_trace_input, DiskStore,
    HASH_CHUNK_BYTES, KEEP_PER_KIND,
};
pub use text::{decode_text, read_text, write_text};
