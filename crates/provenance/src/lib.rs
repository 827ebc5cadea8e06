//! The provenance data layer (§3 of the paper).
//!
//! * [`encode`] — converting analytic vertex values and messages into PQL
//!   [`ariadne_pql::Value`]s.
//! * [`edb`] — generating the provenance EDB tuples of Table 1 from one
//!   vertex-superstep of execution (the *compact representation*: tuples
//!   annotating input-graph vertices rather than an unfolded node per
//!   vertex-superstep).
//! * [`store`] — the captured-provenance store facade ([`ProvStore`]):
//!   per-superstep segments, ingest, layer reads, and byte
//!   accounting for Tables 3–4. Each storage decision behind it lives
//!   in one sibling module: [`frame`] (the checksummed record frame,
//!   its magic table, the record walk and payload decode dispatch),
//!   [`spool`] (file naming, the directory listing, atomic publish,
//!   salvage/quarantine, spill IO, extent reads, reopening a spool),
//!   [`scrub`] (the one verifier, behind the offline [`scrub_spool`]),
//!   [`compact`] (the crash-safe generation rewrite), [`writer`] (the
//!   async ingestion thread — the paper's asynchronous HDFS offload)
//!   and [`epoch`] (delta epochs appended after a graph mutation).
//! * [`unfold`] — materializing the *unfolded* provenance graph (a node
//!   per vertex-superstep, evolution and message edges) and its layer
//!   decomposition (Definition 5.1), used by the naive mode and by tests
//!   that check compact ≡ unfolded.
//! * [`codec`] — a compact binary serialization of tuples for spilled
//!   segments (the v1 row-major record payload).
//! * [`columnar`] — the v2 columnar record payload: per-column
//!   [`columnar::Encoding`]s (delta+varint, dictionary, raw floats)
//!   chosen by a stats pass at encode time, with skippable column blocks
//!   for column-selective replay reads.
//! * [`v3`] — the v3 on-disk structures: LZ-compressed record frames,
//!   indexed generation-file footers, and the spool manifest published
//!   by [`ProvStore::compact`].
//! * [`rows`] — [`RowBlock`], the flat buffer a captured row lives in from
//!   the vertex-step that generates it to the encoder that frames it, and
//!   [`Rows`], the view the encoders read blocks and tuple slices
//!   through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod columnar;
pub mod compact;
pub mod edb;
pub mod encode;
pub mod epoch;
pub mod frame;
mod obs_handles;
pub mod rows;
pub mod scrub;
pub mod spool;
pub mod store;
pub mod unfold;
pub mod v3;
pub mod writer;

pub use columnar::{ColumnStat, Encoding};
pub use edb::{EdbTracker, Outlet, RouteTable};
pub use encode::ProvEncode;
pub use epoch::{EpochInfo, EpochStats};
pub use rows::{RowBlock, Rows};
pub use store::{
    compact_spool, scrub_spool, CompactReport, Durability, LayerFilter, LayerRead, ProvStore,
    ReadBackend, ScrubAction, ScrubReport, SegmentDamage, SegmentFormat, SegmentInfo, StoreConfig,
    StoreError, StoreSender, StoreWriter,
};
pub use unfold::{Layers, UnfoldedGraph};
