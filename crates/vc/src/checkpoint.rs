//! Checkpoint snapshots for the BSP engine.
//!
//! At a superstep barrier the engine's entire resumable state is five
//! pieces: the next superstep index, the vertex values, the pending
//! inboxes (messages already delivered for the next superstep), the
//! rotated aggregator state, and the metrics recorded so far. Because
//! the engine is deterministic (see `engine.rs`), a run resumed from a
//! barrier snapshot produces **bit-identical** values, aggregates and
//! superstep counts to an uninterrupted run — the determinism tests
//! rely on this.
//!
//! # On-disk format (version 7)
//!
//! ```text
//! +---------+---------+-------------+-----------+----------------+
//! | "ARSN"  | version | payload len |  payload  | CRC32(payload) |
//! | 4 bytes | u32 LE  |   u64 LE    |  n bytes  |     u32 LE     |
//! +---------+---------+-------------+-----------+----------------+
//! ```
//!
//! The payload is the [`Snapshot`] encoding of an [`EngineCheckpoint`]:
//! the identity of the program that wrote it
//! ([`crate::VertexProgram::identity`]), then each piece in the layout
//! the engine runs on: the inbox as one flat [`Inbox`] (per-vertex
//! offsets, then every message; the engine's per-chunk inboxes written
//! back to back, so the file does not depend on the thread count) and
//! the aggregates as their sorted registrations followed by the current
//! and previous slot vectors. A file of another version is refused;
//! there is no migration, since a snapshot is a crash-recovery file,
//! not an archive.
//!
//! Truncation, a bad magic/version, a length mismatch or a CRC mismatch
//! all surface as [`EngineError::Corrupt`] — never a panic. Files are
//! written to a temporary sibling and atomically renamed so a crash
//! mid-write can never leave a half-written file under the final name.

use crate::aggregate::{AggOp, AggValue, Aggregates};
use crate::engine::Inbox;
use crate::message::Envelope;
use crate::metrics::{PhaseTimes, RunMetrics, SuperstepMetrics};
use ariadne_graph::VertexId;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic bytes opening every snapshot file ("ARiadne SNapshot").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ARSN";

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions with a typed error rather than misparsing.
pub const SNAPSHOT_VERSION: u32 = 7;

/// When and where the engine writes barrier snapshots.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Snapshot every `n` supersteps (clamped to at least 1). A snapshot
    /// of the initial state (superstep 0) is always written.
    pub every_n_supersteps: u32,
    /// Directory for snapshot files; created on first use.
    pub dir: PathBuf,
    /// Fsync each snapshot file (and its directory entry) before the
    /// atomic rename publishes it. Off by default: the rename alone
    /// already guarantees a reader never sees a torn snapshot, fsync
    /// additionally guarantees the snapshot survives power loss.
    pub fsync: bool,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every `every_n_supersteps` barriers.
    pub fn new(dir: impl Into<PathBuf>, every_n_supersteps: u32) -> Self {
        CheckpointConfig {
            every_n_supersteps: every_n_supersteps.max(1),
            dir: dir.into(),
            fsync: false,
        }
    }

    /// Enable (or disable) fsync-before-rename for snapshot writes.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// The interval, never zero even if the field was set to zero.
    pub fn interval(&self) -> u32 {
        self.every_n_supersteps.max(1)
    }
}

/// Typed failures from checkpointed execution and recovery.
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem failure; `path` names the file or directory involved.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A snapshot file failed validation (magic, version, length, CRC,
    /// or payload decode).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What exactly failed.
        detail: String,
    },
    /// No snapshot file exists under the configured directory.
    NoCheckpoint {
        /// The directory that was scanned.
        dir: PathBuf,
    },
    /// The engine was asked to checkpoint or resume without a
    /// [`CheckpointConfig`].
    NotConfigured,
    /// A snapshot was taken over a different graph than the one passed
    /// to resume.
    GraphMismatch {
        /// Vertices recorded in the snapshot.
        snapshot_vertices: usize,
        /// Vertices in the graph handed to resume.
        graph_vertices: usize,
    },
    /// A snapshot was written by another program than the one passed to
    /// resume ([`crate::VertexProgram::identity`]): for an online run,
    /// another query or another set of persisted predicates.
    ProgramMismatch {
        /// The identity the snapshot records.
        snapshot: String,
        /// The identity of the program handed to resume.
        program: String,
    },
    /// A snapshot is internally inconsistent: its inbox table does not
    /// cover the same vertices as its value table / the graph. A
    /// CRC-valid file can still carry this (the checksum covers bytes,
    /// not cross-field invariants), so resume validates it explicitly
    /// instead of panicking when the partition table walks off the end.
    InboxMismatch {
        /// Per-vertex inboxes recorded in the snapshot.
        snapshot_inboxes: usize,
        /// Vertices the graph (and value table) expect.
        graph_vertices: usize,
    },
    /// A [`crate::fault::FaultPlan`] killed the run at this superstep
    /// (simulated crash; resume from the latest snapshot).
    InjectedCrash {
        /// The superstep at which the worker died.
        superstep: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io { path, source } => {
                write!(f, "checkpoint io error at {}: {source}", path.display())
            }
            EngineError::Corrupt { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            EngineError::NoCheckpoint { dir } => {
                write!(f, "no checkpoint found under {}", dir.display())
            }
            EngineError::NotConfigured => {
                write!(f, "engine has no checkpoint configuration")
            }
            EngineError::GraphMismatch {
                snapshot_vertices,
                graph_vertices,
            } => write!(
                f,
                "snapshot covers {snapshot_vertices} vertices but graph has {graph_vertices}"
            ),
            EngineError::ProgramMismatch { snapshot, program } => write!(
                f,
                "snapshot was written by program {snapshot:?}, not by {program:?}"
            ),
            EngineError::InboxMismatch {
                snapshot_inboxes,
                graph_vertices,
            } => write!(
                f,
                "snapshot inbox covers {snapshot_inboxes} vertices but graph has \
                 {graph_vertices}: inconsistent snapshot"
            ),
            EngineError::InjectedCrash { superstep } => {
                write!(f, "injected crash at superstep {superstep}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, slicing-by-8)
// ---------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the byte-at-a-time table; `CRC32_TABLES[k][b]`
/// is the CRC register after byte `b` is followed by `k` zero bytes, so
/// eight input bytes fold into the register with eight lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let c = tables[k - 1][i];
            tables[k][i] = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC32 of `data` (the same polynomial gzip and PNG use), eight
/// bytes a step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------

/// Decode failure inside a snapshot payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// Input ended before the value did.
    Truncated,
    /// An enum tag byte had no meaning.
    BadTag(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// A length prefix was absurd (guards against misparses allocating
    /// gigabytes from garbage bytes).
    BadLength(u64),
    /// An aggregator slot vector's length differs from the number of
    /// registrations it sits beside.
    SlotMismatch {
        /// Aggregators registered.
        registered: usize,
        /// Values in the slot vector.
        slots: usize,
    },
    /// An inbox's offsets do not index its messages: they do not start at
    /// zero, run backwards, or end short of or past the last message.
    BadOffsets,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot payload truncated"),
            SnapError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            SnapError::BadUtf8 => write!(f, "non-UTF-8 string field"),
            SnapError::BadLength(n) => write!(f, "implausible length prefix {n}"),
            SnapError::SlotMismatch { registered, slots } => {
                write!(f, "{slots} aggregator slots for {registered} registrations")
            }
            SnapError::BadOffsets => write!(f, "inbox offsets do not index its messages"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Binary snapshot codec for engine state.
///
/// Implementations must be deterministic (same value → same bytes) and
/// exact (`read_snap(write_snap(v)) == v`, bit-for-bit for floats):
/// resume correctness and the CRC both depend on it. Map-like types
/// must serialize in sorted key order.
pub trait Snapshot: Sized {
    /// Append this value's encoding to `out`.
    fn write_snap(&self, out: &mut Vec<u8>);
    /// Decode a value from the front of `input`, advancing it.
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError>;
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapError> {
    if input.len() < n {
        return Err(SnapError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Upper bound on any single length prefix; snapshots of this workspace
/// are far smaller, and garbage bytes decoded as a length should fail
/// fast instead of attempting a huge allocation.
const MAX_LEN: u64 = 1 << 40;

fn read_len(input: &mut &[u8]) -> Result<usize, SnapError> {
    let n = u64::read_snap(input)?;
    if n > MAX_LEN {
        return Err(SnapError::BadLength(n));
    }
    Ok(n as usize)
}

impl Snapshot for u8 {
    fn write_snap(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(take(input, 1)?[0])
    }
}

impl Snapshot for u32 {
    fn write_snap(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(u32::from_le_bytes(take(input, 4)?.try_into().unwrap()))
    }
}

impl Snapshot for u64 {
    fn write_snap(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(u64::from_le_bytes(take(input, 8)?.try_into().unwrap()))
    }
}

impl Snapshot for i64 {
    fn write_snap(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(i64::from_le_bytes(take(input, 8)?.try_into().unwrap()))
    }
}

impl Snapshot for usize {
    fn write_snap(&self, out: &mut Vec<u8>) {
        (*self as u64).write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        read_len(input)
    }
}

impl Snapshot for f64 {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.to_bits().write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::read_snap(input)?))
    }
}

impl Snapshot for bool {
    fn write_snap(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        match u8::read_snap(input)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag(t)),
        }
    }
}

impl Snapshot for () {
    fn write_snap(&self, _out: &mut Vec<u8>) {}
    fn read_snap(_input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl Snapshot for String {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.len().write_snap(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        let n = read_len(input)?;
        let bytes = take(input, n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::BadUtf8)
    }
}

impl Snapshot for Duration {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.as_secs().write_snap(out);
        self.subsec_nanos().write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        let secs = u64::read_snap(input)?;
        let nanos = u32::read_snap(input)?;
        Ok(Duration::new(secs, nanos.min(999_999_999)))
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.len().write_snap(out);
        for item in self {
            item.write_snap(out);
        }
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        let n = read_len(input)?;
        let mut items = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            items.push(T::read_snap(input)?);
        }
        Ok(items)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn write_snap(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.write_snap(out);
            }
        }
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        match u8::read_snap(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::read_snap(input)?)),
            t => Err(SnapError::BadTag(t)),
        }
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.0.write_snap(out);
        self.1.write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok((A::read_snap(input)?, B::read_snap(input)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.0.write_snap(out);
        self.1.write_snap(out);
        self.2.write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok((
            A::read_snap(input)?,
            B::read_snap(input)?,
            C::read_snap(input)?,
        ))
    }
}

impl Snapshot for VertexId {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.0.write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(VertexId(u64::read_snap(input)?))
    }
}

impl<M: Snapshot> Snapshot for Envelope<M> {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.src.write_snap(out);
        self.msg.write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(Envelope {
            src: VertexId::read_snap(input)?,
            msg: M::read_snap(input)?,
        })
    }
}

impl Snapshot for AggOp {
    fn write_snap(&self, out: &mut Vec<u8>) {
        out.push(match self {
            AggOp::Sum => 0,
            AggOp::Min => 1,
            AggOp::Max => 2,
            AggOp::And => 3,
            AggOp::Or => 4,
        });
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        match u8::read_snap(input)? {
            0 => Ok(AggOp::Sum),
            1 => Ok(AggOp::Min),
            2 => Ok(AggOp::Max),
            3 => Ok(AggOp::And),
            4 => Ok(AggOp::Or),
            t => Err(SnapError::BadTag(t)),
        }
    }
}

impl Snapshot for AggValue {
    fn write_snap(&self, out: &mut Vec<u8>) {
        match self {
            AggValue::F64(v) => {
                out.push(0);
                v.write_snap(out);
            }
            AggValue::I64(v) => {
                out.push(1);
                v.write_snap(out);
            }
            AggValue::Bool(v) => {
                out.push(2);
                v.write_snap(out);
            }
        }
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        match u8::read_snap(input)? {
            0 => Ok(AggValue::F64(f64::read_snap(input)?)),
            1 => Ok(AggValue::I64(i64::read_snap(input)?)),
            2 => Ok(AggValue::Bool(bool::read_snap(input)?)),
            t => Err(SnapError::BadTag(t)),
        }
    }
}

impl Snapshot for Aggregates {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.ops.len().write_snap(out);
        for (name, op) in self.ops.iter() {
            name.write_snap(out);
            op.write_snap(out);
        }
        self.current.write_snap(out);
        self.previous.write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        let ops = Vec::<(String, AggOp)>::read_snap(input)?;
        let current = Vec::<Option<AggValue>>::read_snap(input)?;
        let previous = Vec::<Option<AggValue>>::read_snap(input)?;
        for slots in [&current, &previous] {
            if slots.len() != ops.len() {
                return Err(SnapError::SlotMismatch {
                    registered: ops.len(),
                    slots: slots.len(),
                });
            }
        }
        Ok(Aggregates {
            ops: ops.into(),
            current,
            previous,
        })
    }
}

/// Write `chunks`, inboxes of consecutive vertex runs, as the one
/// [`Inbox`] they make together: every vertex's offset, then every
/// message. This is how the engine writes its per-chunk inboxes, and
/// how [`Inbox::write_snap`] writes one.
pub(crate) fn write_inboxes<M: Snapshot>(chunks: &[Inbox<M>], out: &mut Vec<u8>) {
    let vertices: usize = chunks.iter().map(Inbox::vertex_count).sum();
    (vertices + 1).write_snap(out);
    0usize.write_snap(out);
    let mut offset = 0;
    for chunk in chunks {
        for start in &chunk.starts[1..] {
            (offset + start).write_snap(out);
        }
        offset += chunk.data.len();
    }
    offset.write_snap(out);
    for envelope in chunks.iter().flat_map(|chunk| &chunk.data) {
        envelope.write_snap(out);
    }
}

impl<M: Snapshot> Snapshot for Inbox<M> {
    fn write_snap(&self, out: &mut Vec<u8>) {
        write_inboxes(std::slice::from_ref(self), out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        let starts = Vec::<usize>::read_snap(input)?;
        let data = Vec::<Envelope<M>>::read_snap(input)?;
        Inbox::new(starts, data)
    }
}

impl Snapshot for PhaseTimes {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.compute.write_snap(out);
        self.combine.write_snap(out);
        self.scatter.write_snap(out);
        self.barrier.write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(PhaseTimes {
            compute: Duration::read_snap(input)?,
            combine: Duration::read_snap(input)?,
            scatter: Duration::read_snap(input)?,
            barrier: Duration::read_snap(input)?,
        })
    }
}

impl Snapshot for SuperstepMetrics {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.superstep.write_snap(out);
        self.active_vertices.write_snap(out);
        self.messages_sent.write_snap(out);
        self.messages_delivered.write_snap(out);
        self.message_bytes.write_snap(out);
        self.buffered_messages.write_snap(out);
        self.buffered_bytes.write_snap(out);
        self.elapsed.write_snap(out);
        self.phases.write_snap(out);
        self.checkpoint.write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(SuperstepMetrics {
            superstep: u32::read_snap(input)?,
            active_vertices: usize::read_snap(input)?,
            messages_sent: usize::read_snap(input)?,
            messages_delivered: usize::read_snap(input)?,
            message_bytes: usize::read_snap(input)?,
            buffered_messages: usize::read_snap(input)?,
            buffered_bytes: usize::read_snap(input)?,
            elapsed: Duration::read_snap(input)?,
            phases: PhaseTimes::read_snap(input)?,
            checkpoint: Duration::read_snap(input)?,
        })
    }
}

impl Snapshot for RunMetrics {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.supersteps.write_snap(out);
        self.elapsed.write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(RunMetrics {
            supersteps: Vec::read_snap(input)?,
            elapsed: Duration::read_snap(input)?,
        })
    }
}

// ---------------------------------------------------------------------
// Engine checkpoint
// ---------------------------------------------------------------------

/// Everything needed to resume a BSP run from a superstep barrier.
#[derive(Clone, Debug)]
pub struct EngineCheckpoint<V, M> {
    /// The identity of the program that wrote it
    /// ([`crate::VertexProgram::identity`]).
    pub program: String,
    /// The next superstep to execute.
    pub superstep: u32,
    /// Vertex values as of the barrier.
    pub values: Vec<V>,
    /// Messages already delivered for superstep `superstep`, one flat
    /// inbox over every vertex.
    pub inbox: Inbox<M>,
    /// Aggregator state after barrier rotation.
    pub aggregates: Aggregates,
    /// Metrics recorded up to the barrier.
    pub metrics: RunMetrics,
}

impl<V: Snapshot, M: Snapshot> Snapshot for EngineCheckpoint<V, M> {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.program.write_snap(out);
        self.superstep.write_snap(out);
        self.values.write_snap(out);
        self.inbox.write_snap(out);
        self.aggregates.write_snap(out);
        self.metrics.write_snap(out);
    }
    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(EngineCheckpoint {
            program: String::read_snap(input)?,
            superstep: u32::read_snap(input)?,
            values: Vec::read_snap(input)?,
            inbox: Inbox::read_snap(input)?,
            aggregates: Aggregates::read_snap(input)?,
            metrics: RunMetrics::read_snap(input)?,
        })
    }
}

// ---------------------------------------------------------------------
// Versioned, checksummed file IO
// ---------------------------------------------------------------------

fn io_err(path: &Path, source: std::io::Error) -> EngineError {
    EngineError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> EngineError {
    EngineError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Frame `payload` (magic + version + length + CRC32) and write it
/// atomically: the bytes land in a `.tmp` sibling first and are renamed
/// into place, so `path` either holds a complete frame or nothing.
pub fn write_versioned(path: &Path, payload: &[u8]) -> Result<(), EngineError> {
    write_versioned_durable(path, payload, false)
}

/// [`write_versioned`] with an explicit durability choice: when `fsync`
/// is true the temp file is synced to disk *before* the rename and the
/// parent directory entry is synced *after* it, so the published
/// snapshot survives power loss, not just process crash.
pub fn write_versioned_durable(
    path: &Path,
    payload: &[u8],
    fsync: bool,
) -> Result<(), EngineError> {
    let mut framed = Vec::with_capacity(payload.len() + 20);
    framed.extend_from_slice(&SNAPSHOT_MAGIC);
    framed.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(payload);
    framed.extend_from_slice(&crc32(payload).to_le_bytes());

    let tmp = path.with_extension("tmp");
    if fsync {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        std::io::Write::write_all(&mut f, &framed).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    } else {
        std::fs::write(&tmp, &framed).map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    if fsync {
        if let Some(dir) = path.parent() {
            fsync_dir(dir).map_err(|e| io_err(dir, e))?;
        }
    }
    Ok(())
}

/// Sync a directory's entry table so a just-renamed or just-created
/// file name survives power loss. A no-op error on platforms where
/// directories cannot be opened is surfaced to the caller.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Read a framed file back, validating magic, version, length and CRC.
/// Every validation failure is a typed [`EngineError::Corrupt`].
pub fn read_versioned(path: &Path) -> Result<Vec<u8>, EngineError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < 16 {
        return Err(corrupt(
            path,
            format!("file too short ({} bytes)", bytes.len()),
        ));
    }
    if bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(corrupt(path, "bad magic bytes"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(
            path,
            format!("unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"),
        ));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let expected_total = 16usize.saturating_add(len).saturating_add(4);
    if bytes.len() != expected_total {
        return Err(corrupt(
            path,
            format!(
                "length mismatch: header claims {len} payload bytes, file holds {}",
                bytes.len().saturating_sub(20)
            ),
        ));
    }
    let payload = &bytes[16..16 + len];
    let stored_crc = u32::from_le_bytes(bytes[16 + len..].try_into().unwrap());
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(corrupt(
            path,
            format!("CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"),
        ));
    }
    Ok(payload.to_vec())
}

/// The snapshot file name for a barrier at `superstep`.
pub fn checkpoint_path(dir: &Path, superstep: u32) -> PathBuf {
    dir.join(format!("ckpt-{superstep:010}.snap"))
}

/// All snapshot files under `dir`, sorted by superstep ascending. A
/// missing directory is an empty list, not an error.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u32, PathBuf)>, EngineError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(dir, e)),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(step) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".snap"))
            .and_then(|s| s.parse::<u32>().ok())
        {
            found.push((step, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// Read and validate one snapshot file.
pub fn read_checkpoint<V: Snapshot, M: Snapshot>(
    path: &Path,
) -> Result<EngineCheckpoint<V, M>, EngineError> {
    let payload = read_versioned(path)?;
    let mut input = payload.as_slice();
    let ckpt = EngineCheckpoint::read_snap(&mut input).map_err(|e| corrupt(path, e.to_string()))?;
    if !input.is_empty() {
        return Err(corrupt(
            path,
            format!("{} trailing bytes after payload", input.len()),
        ));
    }
    Ok(ckpt)
}

/// Load the newest *valid* checkpoint under `dir`.
///
/// Corrupt files (detected by CRC/framing) are skipped in favour of the
/// next-older snapshot — a torn or tampered newest checkpoint must not
/// brick recovery. Returns [`EngineError::NoCheckpoint`] when the
/// directory holds no snapshot files at all, or the newest corruption
/// error when every file present is corrupt.
pub fn load_latest_checkpoint<V: Snapshot, M: Snapshot>(
    dir: &Path,
) -> Result<EngineCheckpoint<V, M>, EngineError> {
    let files = list_checkpoints(dir)?;
    if files.is_empty() {
        return Err(EngineError::NoCheckpoint {
            dir: dir.to_path_buf(),
        });
    }
    let mut last_err = None;
    for (_, path) in files.iter().rev() {
        match read_checkpoint(path) {
            Ok(ckpt) => return Ok(ckpt),
            Err(e @ (EngineError::Corrupt { .. } | EngineError::Io { .. })) => {
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.expect("non-empty file list with no result must have an error"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn roundtrip<T: Snapshot + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.write_snap(&mut buf);
        let mut input = buf.as_slice();
        let back = T::read_snap(&mut input).expect("decode");
        assert_eq!(back, v);
        assert!(input.is_empty(), "leftover bytes after decode");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(42u8);
        roundtrip(7u32);
        roundtrip(u64::MAX);
        roundtrip(-5i64);
        roundtrip(3.25f64);
        roundtrip(f64::NAN.to_bits()); // NaN bit pattern survives via u64
        roundtrip(true);
        roundtrip(String::from("päyload"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u64));
        roundtrip((String::from("k"), 4u64));
        roundtrip(Duration::new(3, 141_592_653));
        roundtrip(VertexId(17));
        roundtrip(Envelope::new(VertexId(1), 2.5f64));
    }

    #[test]
    fn nan_bits_are_preserved() {
        let v = f64::from_bits(0x7FF8_0000_0000_0001);
        let mut buf = Vec::new();
        v.write_snap(&mut buf);
        let mut input = buf.as_slice();
        let back = f64::read_snap(&mut input).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn truncated_input_is_typed_error() {
        let mut buf = Vec::new();
        12345u64.write_snap(&mut buf);
        let mut short = &buf[..3];
        assert_eq!(u64::read_snap(&mut short), Err(SnapError::Truncated));
    }

    #[test]
    fn absurd_length_prefix_rejected() {
        let mut buf = Vec::new();
        (u64::MAX).write_snap(&mut buf);
        let mut input = buf.as_slice();
        assert!(matches!(
            Vec::<u8>::read_snap(&mut input),
            Err(SnapError::BadLength(_))
        ));
    }

    #[test]
    fn aggregates_roundtrip_deterministically() {
        let mut a = Aggregates::new([("z".to_string(), AggOp::Sum), ("a".to_string(), AggOp::Min)]);
        a.contribute("z", AggValue::F64(2.0));
        a.rotate();
        a.contribute("a", AggValue::F64(1.0));

        let mut b1 = Vec::new();
        a.write_snap(&mut b1);
        let mut b2 = Vec::new();
        a.write_snap(&mut b2);
        assert_eq!(b1, b2, "encoding must be deterministic");

        let mut input = b1.as_slice();
        let back = Aggregates::read_snap(&mut input).unwrap();
        assert_eq!(back.current("a"), Some(AggValue::F64(1.0)));
        assert_eq!(back.previous("z"), Some(AggValue::F64(2.0)));
    }

    #[test]
    fn versioned_file_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("ariadne-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.snap");
        write_versioned(&path, b"hello snapshot").unwrap();
        assert_eq!(read_versioned(&path).unwrap(), b"hello snapshot");

        // Flip one payload byte: CRC must catch it, typed, no panic.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[18] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match read_versioned(&path) {
            Err(EngineError::Corrupt { detail, .. }) => {
                assert!(detail.contains("CRC"), "unexpected detail: {detail}")
            }
            other => panic!("expected corrupt error, got {other:?}"),
        }

        // Truncate: length check catches it.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            read_versioned(&path),
            Err(EngineError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_listing_sorts_and_ignores_noise() {
        let dir = std::env::temp_dir().join(format!("ariadne-list-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for s in [7u32, 0, 3] {
            std::fs::write(checkpoint_path(&dir, s), b"x").unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"y").unwrap();
        let found = list_checkpoints(&dir).unwrap();
        let steps: Vec<u32> = found.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![0, 3, 7]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_lists_empty_and_load_reports_no_checkpoint() {
        let dir = std::env::temp_dir().join("ariadne-definitely-missing-dir-xyz");
        assert!(list_checkpoints(&dir).unwrap().is_empty());
        assert!(matches!(
            load_latest_checkpoint::<f64, f64>(&dir),
            Err(EngineError::NoCheckpoint { .. })
        ));
    }
}
