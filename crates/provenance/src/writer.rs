//! The asynchronous ingestion front-end: [`StoreWriter`] wraps a
//! [`ProvStore`] in a dedicated thread fed by a channel, so capture
//! never blocks the analytic's supersteps on serialization or disk IO
//! (the paper's "offloads it asynchronously", §6.1);
//! [`StoreWriter::finish`] drains the queue with a timeout instead of
//! joining unconditionally.
//!
//! A message is every row a capture made for one (superstep, predicate):
//! one [`RowBlock`] per engine chunk, in chunk order, handed over whole at
//! the barrier. The writer thread concatenates them, in vertex order,
//! ingests the result once — framed at once, so a layer's records are
//! what one thread would have written — and frees it: one buffer
//! crossing threads per block, where a `Vec` per tuple used to be freed
//! into the arena the engine thread was allocating from (DESIGN.md
//! §3.14).

use crate::obs_handles;
use crate::rows::{RowBlock, Rows};
use crate::store::{ProvStore, StoreConfig, StoreError};
use ariadne_obs::trace::{self, Level};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default drain deadline for [`StoreWriter::finish`].
pub const DEFAULT_FINISH_TIMEOUT: Duration = Duration::from_secs(30);

enum WriterMsg {
    Ingest {
        superstep: u32,
        pred: Arc<str>,
        blocks: Vec<RowBlock>,
    },
    /// Spill everything ingested so far, then answer.
    Sync(Sender<()>),
    Finish,
}

/// Asynchronous ingestion front-end: row blocks are sent over a channel to a
/// writer thread owning the store, so the analytic's supersteps never
/// block on serialization or spill IO.
///
/// # Abandonment invariant
///
/// [`StoreWriter::finish_timeout`] may give up on a writer thread that
/// does not drain in time. An abandoned writer is **fenced**: a shared
/// flag is raised before the timeout error is returned, and the writer
/// checks it between batches, so it stops ingesting (and stops touching
/// the spool directory) at the next batch boundary instead of racing a
/// subsequent [`ProvStore::resume_from_spool`] indefinitely. A batch
/// already in flight when the fence rises completes its spill write in
/// full, so the spool only ever holds whole checksummed records; the one
/// residual race — resuming while that final write is still in progress
/// — is detected by record validation and surfaces as a typed
/// [`StoreError::Corrupt`], never as silent corruption.
pub struct StoreWriter {
    sender: Sender<WriterMsg>,
    done: Receiver<Result<ProvStore, StoreError>>,
    handle: JoinHandle<()>,
    /// Raised by a timed-out finish; the writer thread checks it between
    /// batches and stops ingesting once it is set.
    abandoned: Arc<std::sync::atomic::AtomicBool>,
    /// Batches queued but not yet consumed by the writer thread, so a
    /// finish timeout can report how far behind the writer was.
    pending: Arc<std::sync::atomic::AtomicU64>,
}

/// Cloneable ingestion handle usable from vertex programs.
#[derive(Clone)]
pub struct StoreSender {
    sender: Sender<WriterMsg>,
    pending: Arc<std::sync::atomic::AtomicU64>,
}

impl StoreSender {
    /// Queue every row of (`superstep`, `pred`), as `blocks` in order,
    /// for one ingestion: the writer ingests their concatenation once.
    /// If the writer thread has died (for example after a spill failure)
    /// the blocks are dropped; the failure itself is reported by
    /// [`StoreWriter::finish`], keeping this hot-path call infallible.
    pub fn ingest_blocks(&self, superstep: u32, pred: &Arc<str>, blocks: Vec<RowBlock>) {
        use std::sync::atomic::Ordering::Relaxed;
        if blocks.iter().all(Rows::is_empty) {
            return;
        }
        let pred = Arc::clone(pred);
        // Counted before the send so the writer's decrement never comes
        // first; a block that was not delivered is not pending.
        self.pending.fetch_add(1, Relaxed);
        if self
            .sender
            .send(WriterMsg::Ingest {
                superstep,
                pred,
                blocks,
            })
            .is_err()
        {
            self.pending.fetch_sub(1, Relaxed);
        }
    }

    /// Block until the writer has spilled every row it was given before
    /// this call (a store without a spool keeps them), so a checkpoint
    /// taken now covers no row that lives only in memory. A failed spill
    /// here ends the writer; [`StoreWriter::finish`] reports it, as it
    /// does a writer that was already dead.
    pub fn sync(&self) {
        let (answer, synced) = channel();
        if self.sender.send(WriterMsg::Sync(answer)).is_ok() {
            let _ = synced.recv();
        }
    }
}

impl StoreWriter {
    /// Spawn the writer thread over a fresh store.
    pub fn spawn(config: StoreConfig) -> Self {
        Self::spawn_with(move || Ok(ProvStore::new(config)))
    }

    /// Spawn the writer thread over a store recovered from its spool
    /// directory (crash recovery; see [`ProvStore::resume_from_spool`]).
    pub fn spawn_resuming(config: StoreConfig) -> Self {
        Self::spawn_with(move || ProvStore::resume_from_spool(config))
    }

    fn spawn_with<F>(make: F) -> Self
    where
        F: FnOnce() -> Result<ProvStore, StoreError> + Send + 'static,
    {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let (sender, receiver) = channel();
        let (done_tx, done_rx) = channel();
        let abandoned = Arc::new(AtomicBool::new(false));
        let fence = Arc::clone(&abandoned);
        let pending = Arc::new(AtomicU64::new(0));
        let drained = Arc::clone(&pending);
        let handle = std::thread::spawn(move || {
            let result = (|| {
                let mut store = make()?;
                while let Ok(msg) = receiver.recv() {
                    if matches!(msg, WriterMsg::Ingest { .. }) {
                        drained.fetch_sub(1, Ordering::Relaxed);
                    }
                    // Fence: once finish_timeout has given up on us, stop
                    // ingesting (and stop touching the spool) at the next
                    // batch boundary. See "Abandonment invariant" above.
                    if fence.load(Ordering::Acquire) {
                        break;
                    }
                    match msg {
                        WriterMsg::Ingest {
                            superstep,
                            pred,
                            blocks,
                        } => {
                            let mut rows = RowBlock::default();
                            blocks.into_iter().for_each(|block| rows.append(block));
                            store.ingest_block(superstep, &pred, rows)?;
                        }
                        WriterMsg::Sync(answer) => {
                            store.spill_down_to(0)?;
                            let _ = answer.send(());
                        }
                        WriterMsg::Finish => break,
                    }
                }
                Ok(store)
            })();
            let _ = done_tx.send(result);
        });
        StoreWriter {
            sender,
            done: done_rx,
            handle,
            abandoned,
            pending,
        }
    }

    /// A cloneable ingestion handle.
    pub fn sender(&self) -> StoreSender {
        StoreSender {
            sender: self.sender.clone(),
            pending: Arc::clone(&self.pending),
        }
    }

    /// Drain the queue and return the finished store, waiting at most
    /// [`DEFAULT_FINISH_TIMEOUT`]. The first ingestion error (for
    /// example a spill IO failure) is returned here.
    pub fn finish(self) -> Result<ProvStore, StoreError> {
        self.finish_timeout(DEFAULT_FINISH_TIMEOUT)
    }

    /// Drain the queue with an explicit deadline. On timeout the writer
    /// thread is abandoned (it holds only its channel endpoints) and a
    /// typed error is returned instead of blocking forever.
    pub fn finish_timeout(self, timeout: Duration) -> Result<ProvStore, StoreError> {
        // The writer may already be gone (errored out); the Finish send
        // then fails, but the result channel still holds its report.
        let _ = self.sender.send(WriterMsg::Finish);
        match self.done.recv_timeout(timeout) {
            Ok(result) => {
                let _ = self.handle.join();
                result
            }
            Err(RecvTimeoutError::Timeout) => {
                // Fence the writer before abandoning it so it stops
                // ingesting at its next batch boundary instead of racing
                // a subsequent resume_from_spool indefinitely.
                self.abandoned
                    .store(true, std::sync::atomic::Ordering::Release);
                obs_handles::writers_abandoned().inc();
                let pending = self.pending.load(std::sync::atomic::Ordering::Relaxed);
                trace::event(
                    Level::Warn,
                    "store",
                    "writer_abandoned",
                    &[
                        ("timeout_ms", (timeout.as_millis() as u64).into()),
                        ("pending_batches", pending.into()),
                    ],
                );
                Err(StoreError::FinishTimeout { timeout, pending })
            }
            Err(RecvTimeoutError::Disconnected) => Err(StoreError::WriterDead),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{temp_dir, tuple};
    use ariadne_vc::FaultPlan;
    use std::sync::atomic::Ordering;

    /// `(v, step)` rows for `vs`, as one block.
    fn block(vs: std::ops::Range<u64>, step: i64) -> RowBlock {
        RowBlock::from_tuples(vs.map(|v| tuple(v, step)).collect())
    }

    #[test]
    fn writer_thread_roundtrip() {
        let writer = StoreWriter::spawn(StoreConfig::in_memory());
        let sender = writer.sender();
        let s2 = sender.clone();
        let pred: Arc<str> = "superstep".into();
        let p2 = Arc::clone(&pred);
        std::thread::spawn(move || {
            s2.ingest_blocks(0, &p2, vec![block(7..8, 0)]);
        })
        .join()
        .unwrap();
        sender.ingest_blocks(1, &pred, vec![block(7..8, 1)]);
        sender.ingest_blocks(2, &pred, vec![RowBlock::default()]); // empty: not sent
        let store = writer.finish().unwrap();
        assert_eq!(store.tuple_count(), 2);
    }

    #[test]
    fn writer_surfaces_spill_failure_at_finish() {
        let dir = temp_dir("writer-fault");
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        plan.fail_spill_write(0);
        let writer =
            StoreWriter::spawn(StoreConfig::spilling(8, dir.clone()).with_fault(Arc::clone(&plan)));
        let sender = writer.sender();
        let pred: Arc<str> = "value".into();
        sender.ingest_blocks(0, &pred, vec![block(0..20, 0)]);
        while !writer.handle.is_finished() {
            std::thread::yield_now();
        }
        // Further sends after the writer died are silently dropped, not
        // a panic on the hot path — and not counted as pending, so a
        // finish timeout reports only blocks the writer could still get.
        sender.ingest_blocks(1, &pred, vec![block(1..2, 1)]);
        assert_eq!(writer.pending.load(Ordering::Relaxed), 0);
        match writer.finish() {
            Err(StoreError::InjectedSpillFailure { attempt: 0 }) => {}
            other => panic!("expected injected spill failure, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Abandoned-writer fence: a timed-out finish leaves the writer
    /// thread holding the spool, but the fence stops it at the next
    /// batch boundary, so a later [`ProvStore::resume_from_spool`]
    /// either recovers whole checksummed records or fails with a typed
    /// error — never panics, never silently corrupts.
    #[test]
    fn abandoned_writer_never_corrupts_spool() {
        let dir = temp_dir("abandon");
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        // Pin the writer inside its first ingest so the 10ms finish
        // deadline deterministically fires while batches are queued.
        plan.stall_ingest(0, 400);
        let writer =
            StoreWriter::spawn(StoreConfig::spilling(0, dir.clone()).with_fault(Arc::clone(&plan)));
        let sender = writer.sender();
        let pred: Arc<str> = "value".into();
        for k in 0..32 {
            sender.ingest_blocks(0, &pred, vec![block(k..k + 1, 0)]);
        }
        match writer.finish_timeout(Duration::from_millis(10)) {
            Err(StoreError::FinishTimeout { pending, .. }) => {
                assert!(pending > 0, "timeout must report the queue backlog");
            }
            other => panic!("expected finish timeout, got {other:?}"),
        }
        // Give the abandoned thread time to clear its stall, observe the
        // fence and stop.
        std::thread::sleep(Duration::from_millis(900));
        assert_eq!(
            plan.ingest_attempts(),
            1,
            "fence must stop the writer at the first batch boundary"
        );
        match ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())) {
            Ok(store) => {
                // Whatever was persisted is whole and decodable.
                for s in store
                    .segment_index()
                    .map(|s| s.superstep)
                    .collect::<Vec<_>>()
                {
                    store.layer(s).unwrap();
                }
                assert!(store.tuple_count() <= 32);
            }
            Err(StoreError::Corrupt { .. }) | Err(StoreError::Io { .. }) => {
                // The residual in-flight-write race, surfaced typed.
            }
            Err(other) => panic!("untyped failure after abandonment: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
