//! Deterministic fault injection for crash-recovery testing.
//!
//! A [`FaultPlan`] scripts failures at exact points in an otherwise
//! deterministic execution: kill the run at the top of superstep `s`,
//! fail the `n`-th provenance spill write, corrupt the checkpoint file
//! written at barrier `c`. Components consult the plan through
//! `Option<Arc<FaultPlan>>` hooks — a `None` plan costs one branch and
//! touches no locks, so production paths pay nothing.
//!
//! Every fault is **one-shot**: it is consumed the first time it fires.
//! That matters for recovery tests — when a run is killed at superstep
//! `s` and resumed from an earlier snapshot, the loop passes superstep
//! `s` again, and a re-triggering fault would livelock the test. The
//! counters survive in the plan itself (it is shared via `Arc`), so a
//! resume using the same plan replays cleanly past the crash point.
//! (The only deliberate exception is [`FaultPlan::transient_io_failures`],
//! which arms a *budget* of consecutive failures rather than a single
//! ordinal — each firing consumes one unit of the budget.)

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A scripted set of one-shot failures, shareable across the engine and
/// the provenance store via `Arc`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Supersteps at which the engine dies before computing.
    kills: Mutex<BTreeSet<u32>>,
    /// Zero-based ordinals of spill writes that fail.
    spill_failures: Mutex<BTreeSet<u64>>,
    /// Running count of spill-write attempts observed.
    spill_attempts: AtomicU64,
    /// Barrier supersteps whose checkpoint file gets corrupted after
    /// being written.
    corruptions: Mutex<BTreeSet<u32>>,
    /// Barrier supersteps whose checkpoint file gets truncated (torn
    /// write) after being written.
    truncations: Mutex<BTreeSet<u32>>,
    /// Zero-based ordinals of store-ingest attempts that stall, mapped
    /// to the stall duration in milliseconds.
    ingest_stalls: Mutex<std::collections::BTreeMap<u64, u64>>,
    /// Running count of store-ingest attempts observed.
    ingest_attempts: AtomicU64,
    /// Zero-based spill-write ordinals torn mid-record, mapped to the
    /// number of bytes actually written before the simulated crash.
    torn_writes: Mutex<std::collections::BTreeMap<u64, usize>>,
    /// Cumulative spilled-byte threshold past which the next spill write
    /// fails like a full disk (ENOSPC).
    enospc_after: Mutex<Option<u64>>,
    /// Remaining budget of spill IO attempts that fail with a
    /// *transient* (retryable) error before succeeding.
    transient_budget: AtomicU64,
    /// Compaction protocol steps at which the process dies (see the
    /// store's `compact` for the numbered step points).
    compact_kills: Mutex<BTreeSet<u32>>,
}

impl FaultPlan {
    /// An empty plan behind an `Arc`, ready to be scripted and shared.
    pub fn new() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    // -- scripting ----------------------------------------------------

    /// Kill the run at the top of superstep `s` (before any compute).
    /// The engine surfaces this as `EngineError::InjectedCrash`.
    pub fn kill_at_superstep(&self, s: u32) -> &Self {
        self.kills.lock().unwrap().insert(s);
        self
    }

    /// Make the `n`-th (zero-based) provenance spill write fail with an
    /// IO error.
    pub fn fail_spill_write(&self, n: u64) -> &Self {
        self.spill_failures.lock().unwrap().insert(n);
        self
    }

    /// Corrupt the checkpoint file written at barrier superstep `s`
    /// immediately after it lands on disk (flips payload bytes so the
    /// CRC no longer matches).
    pub fn corrupt_checkpoint(&self, s: u32) -> &Self {
        self.corruptions.lock().unwrap().insert(s);
        self
    }

    /// Truncate the checkpoint file written at barrier superstep `s`
    /// immediately after it lands on disk — a torn write, as opposed to
    /// the flipped-byte corruption of [`FaultPlan::corrupt_checkpoint`].
    pub fn truncate_checkpoint(&self, s: u32) -> &Self {
        self.truncations.lock().unwrap().insert(s);
        self
    }

    /// Make the `n`-th (zero-based) store-ingest attempt stall for
    /// `millis` milliseconds before processing its batch. Used to pin
    /// the async store writer mid-queue so `finish_timeout`
    /// abandonment is deterministic to trigger in tests.
    pub fn stall_ingest(&self, n: u64, millis: u64) -> &Self {
        self.ingest_stalls.lock().unwrap().insert(n, millis);
        self
    }

    /// Tear the `n`-th (zero-based) spill write: only the first
    /// `keep_bytes` bytes of the segment bytes reach the file before the
    /// write fails as if the process crashed mid-`write`. The spool is
    /// left with a genuinely torn tail for salvage tests.
    pub fn torn_write_at(&self, n: u64, keep_bytes: usize) -> &Self {
        self.torn_writes.lock().unwrap().insert(n, keep_bytes);
        self
    }

    /// Fail the first spill write that would push cumulative spilled
    /// bytes past `bytes`, with an ENOSPC-style (non-retryable) IO
    /// error — the simulated full disk.
    pub fn enospc_after_bytes(&self, bytes: u64) -> &Self {
        *self.enospc_after.lock().unwrap() = Some(bytes);
        self
    }

    /// Arm `n` consecutive *transient* spill IO failures: the next `n`
    /// attempts fail with a retryable error, then IO succeeds again.
    /// Exercises the store's bounded retry-with-backoff wrapper.
    pub fn transient_io_failures(&self, n: u64) -> &Self {
        self.transient_budget.store(n, Ordering::SeqCst);
        self
    }

    /// Kill the run at compaction protocol step `step` (zero-based; the
    /// store documents its numbered step points: before the generation
    /// file write, between write and rename, before the manifest write,
    /// between manifest write and rename, and before old-file deletion).
    /// Crash-recovery tests iterate every step and assert the spool
    /// reopens to either the old or the new generation.
    pub fn kill_at_compact_step(&self, step: u32) -> &Self {
        self.compact_kills.lock().unwrap().insert(step);
        self
    }

    // -- hooks (consume on fire) --------------------------------------

    /// Engine hook: should the run die at superstep `s`? Consumes the
    /// fault when it fires.
    pub fn take_kill(&self, s: u32) -> bool {
        self.kills.lock().unwrap().remove(&s)
    }

    /// Store hook: record one spill-write attempt; `true` means this
    /// attempt must fail. Consumes the fault when it fires.
    pub fn take_spill_failure(&self) -> bool {
        let n = self.spill_attempts.fetch_add(1, Ordering::SeqCst);
        self.spill_failures.lock().unwrap().remove(&n)
    }

    /// Checkpoint hook: should the snapshot at barrier `s` be corrupted?
    /// Consumes the fault when it fires.
    pub fn take_corruption(&self, s: u32) -> bool {
        self.corruptions.lock().unwrap().remove(&s)
    }

    /// Checkpoint hook: should the snapshot at barrier `s` be truncated
    /// (torn write)? Consumes the fault when it fires.
    pub fn take_truncation(&self, s: u32) -> bool {
        self.truncations.lock().unwrap().remove(&s)
    }

    /// Store hook: is spill-write attempt `attempt` torn? Returns the
    /// bytes to keep. Keyed by the ordinal [`FaultPlan::take_spill_failure`]
    /// just assigned (that hook owns the attempt counter). Consumes the
    /// fault when it fires.
    pub fn take_torn_write(&self, attempt: u64) -> Option<usize> {
        self.torn_writes.lock().unwrap().remove(&attempt)
    }

    /// Store hook: with `written` cumulative spilled bytes about to be
    /// exceeded, has the scripted disk-full threshold been crossed?
    /// Consumes the fault when it fires.
    pub fn take_enospc(&self, written: u64) -> bool {
        let mut guard = self.enospc_after.lock().unwrap();
        match *guard {
            Some(limit) if written >= limit => {
                *guard = None;
                true
            }
            _ => false,
        }
    }

    /// Store hook: should this spill IO attempt fail transiently?
    /// Consumes one unit of the armed budget when it fires.
    pub fn take_transient_io_failure(&self) -> bool {
        self.transient_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Store hook: record one ingest attempt; `Some(d)` means this
    /// attempt must sleep for `d` before proceeding. Consumes the fault
    /// when it fires.
    pub fn take_ingest_stall(&self) -> Option<std::time::Duration> {
        let n = self.ingest_attempts.fetch_add(1, Ordering::SeqCst);
        self.ingest_stalls
            .lock()
            .unwrap()
            .remove(&n)
            .map(std::time::Duration::from_millis)
    }

    /// Store hook: should compaction die at protocol step `step`?
    /// Consumes the fault when it fires.
    pub fn take_compact_kill(&self, step: u32) -> bool {
        self.compact_kills.lock().unwrap().remove(&step)
    }

    // -- introspection ------------------------------------------------

    /// Faults scripted but not yet fired (useful for asserting a test
    /// actually exercised its plan).
    pub fn pending(&self) -> usize {
        self.kills.lock().unwrap().len()
            + self.spill_failures.lock().unwrap().len()
            + self.corruptions.lock().unwrap().len()
            + self.truncations.lock().unwrap().len()
            + self.ingest_stalls.lock().unwrap().len()
            + self.torn_writes.lock().unwrap().len()
            + usize::from(self.enospc_after.lock().unwrap().is_some())
            + self.transient_budget.load(Ordering::SeqCst) as usize
            + self.compact_kills.lock().unwrap().len()
    }

    /// Spill-write attempts observed so far.
    pub fn spill_attempts(&self) -> u64 {
        self.spill_attempts.load(Ordering::SeqCst)
    }

    /// Store-ingest attempts observed so far.
    pub fn ingest_attempts(&self) -> u64 {
        self.ingest_attempts.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_is_one_shot() {
        let plan = FaultPlan::new();
        plan.kill_at_superstep(3);
        assert!(!plan.take_kill(2));
        assert!(plan.take_kill(3));
        assert!(!plan.take_kill(3), "fault must be consumed");
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn spill_failure_targets_exact_ordinal() {
        let plan = FaultPlan::new();
        plan.fail_spill_write(1);
        assert!(!plan.take_spill_failure()); // attempt 0
        assert!(plan.take_spill_failure()); // attempt 1 fails
        assert!(!plan.take_spill_failure()); // attempt 2
        assert_eq!(plan.spill_attempts(), 3);
    }

    #[test]
    fn ingest_stall_targets_exact_ordinal() {
        let plan = FaultPlan::new();
        plan.stall_ingest(1, 250);
        assert_eq!(plan.pending(), 1);
        assert!(plan.take_ingest_stall().is_none()); // attempt 0
        assert_eq!(
            plan.take_ingest_stall(), // attempt 1 stalls
            Some(std::time::Duration::from_millis(250))
        );
        assert!(plan.take_ingest_stall().is_none()); // attempt 2
        assert_eq!(plan.ingest_attempts(), 3);
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn corruption_consumed_once() {
        let plan = FaultPlan::new();
        plan.corrupt_checkpoint(4).corrupt_checkpoint(8);
        assert_eq!(plan.pending(), 2);
        assert!(plan.take_corruption(4));
        assert!(!plan.take_corruption(4));
        assert_eq!(plan.pending(), 1);
    }

    #[test]
    fn torn_write_targets_exact_ordinal() {
        let plan = FaultPlan::new();
        plan.torn_write_at(2, 17);
        assert_eq!(plan.pending(), 1);
        assert_eq!(plan.take_torn_write(0), None);
        assert_eq!(plan.take_torn_write(2), Some(17));
        assert_eq!(plan.take_torn_write(2), None, "consumed");
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn enospc_fires_once_past_threshold() {
        let plan = FaultPlan::new();
        plan.enospc_after_bytes(100);
        assert_eq!(plan.pending(), 1);
        assert!(!plan.take_enospc(99));
        assert!(plan.take_enospc(100));
        assert!(!plan.take_enospc(1 << 40), "disk-full fault is one-shot");
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn transient_budget_drains() {
        let plan = FaultPlan::new();
        plan.transient_io_failures(2);
        assert_eq!(plan.pending(), 2);
        assert!(plan.take_transient_io_failure());
        assert!(plan.take_transient_io_failure());
        assert!(!plan.take_transient_io_failure(), "budget exhausted");
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn checkpoint_truncation_consumed_once() {
        let plan = FaultPlan::new();
        plan.truncate_checkpoint(6);
        assert_eq!(plan.pending(), 1);
        assert!(!plan.take_truncation(4));
        assert!(plan.take_truncation(6));
        assert!(!plan.take_truncation(6));
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn shared_across_threads() {
        let plan = FaultPlan::new();
        plan.fail_spill_write(0).fail_spill_write(5);
        let fired: usize = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let p = Arc::clone(&plan);
                    s.spawn(move || usize::from(p.take_spill_failure()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(fired, 1, "exactly attempt 0 fails among 4 attempts");
    }
}
