//! Per-superstep and per-run execution metrics.
//!
//! The paper's figures are all *ratios of runtimes* plus message/space
//! accounting; the engine measures these uniformly for baseline, online,
//! layered and naive runs so the bench harness can form the same ratios.

use std::ops::AddAssign;
use std::time::Duration;

/// Wall-time breakdown of one superstep into its BSP phases.
///
/// Phases are measured from the driver thread's perspective:
///
/// * `compute` — vertex programs running in parallel (includes
///   sender-side combining, which happens inside `Context::send`);
/// * `combine` — delivery-side combiner folding (pass 2 of flat
///   delivery when the program has a combiner, or the combiner branch
///   of naive delivery);
/// * `scatter` — message routing/transpose and inbox scatter (pass 1
///   counting + non-combined pass 2);
/// * `barrier` — aggregate merge, dedup-table recycling, halt voting,
///   and metric bookkeeping between phases.
///
/// Timings are wall-clock and therefore **not** deterministic across
/// runs or thread counts, unlike the message/activation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Parallel vertex-program execution.
    pub compute: Duration,
    /// Delivery-side combiner folding.
    pub combine: Duration,
    /// Message transpose + inbox scatter.
    pub scatter: Duration,
    /// Barrier bookkeeping between phases.
    pub barrier: Duration,
}

impl PhaseTimes {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.compute + self.combine + self.scatter + self.barrier
    }
}

impl AddAssign for PhaseTimes {
    fn add_assign(&mut self, rhs: PhaseTimes) {
        self.compute += rhs.compute;
        self.combine += rhs.combine;
        self.scatter += rhs.scatter;
        self.barrier += rhs.barrier;
    }
}

/// Counters for one superstep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuperstepMetrics {
    /// Superstep index.
    pub superstep: u32,
    /// Vertices that executed `compute`.
    pub active_vertices: usize,
    /// Messages sent during the superstep (after combining).
    pub messages_sent: usize,
    /// Messages delivered into destination inboxes for the next
    /// superstep. Exactly equals `messages_sent`: delivery happens in
    /// the same barrier and nothing is dropped. Tracked separately (and
    /// counted at the delivery site, not the send site) so tests can
    /// assert the conservation law instead of assuming it.
    pub messages_delivered: usize,
    /// Approximate bytes of message payloads sent.
    pub message_bytes: usize,
    /// Messages materialized in outbox buffers before delivery. With
    /// sender-side combining this is the post-combine buffered count;
    /// without a combiner it equals `messages_sent`. This is the metric
    /// Tables 3–4-style space accounting cares about: it measures what
    /// the message plane actually held in flight.
    pub buffered_messages: usize,
    /// Approximate payload bytes held in outbox buffers before delivery.
    pub buffered_bytes: usize,
    /// Wall time of the superstep (compute + delivery), excluding
    /// checkpoint snapshot I/O, which is reported in `checkpoint`.
    pub elapsed: Duration,
    /// Wall-time breakdown of `elapsed` into BSP phases.
    pub phases: PhaseTimes,
    /// Time spent writing (or, on resume, reading) the checkpoint
    /// snapshot at this superstep's barrier. Zero when checkpointing is
    /// disabled or the interval did not fire. Previously this cost was
    /// silently folded into `elapsed`.
    pub checkpoint: Duration,
}

/// Aggregated counters for a whole run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// One entry per executed superstep.
    pub supersteps: Vec<SuperstepMetrics>,
    /// Total wall time of the run.
    pub elapsed: Duration,
}

impl RunMetrics {
    /// Number of supersteps executed.
    pub fn num_supersteps(&self) -> u32 {
        self.supersteps.len() as u32
    }

    /// Total messages across all supersteps.
    pub fn total_messages(&self) -> usize {
        self.supersteps.iter().map(|s| s.messages_sent).sum()
    }

    /// Total message bytes across all supersteps.
    pub fn total_message_bytes(&self) -> usize {
        self.supersteps.iter().map(|s| s.message_bytes).sum()
    }

    /// Total vertex activations across all supersteps.
    pub fn total_activations(&self) -> usize {
        self.supersteps.iter().map(|s| s.active_vertices).sum()
    }

    /// Total messages buffered in outboxes across all supersteps.
    pub fn total_buffered_messages(&self) -> usize {
        self.supersteps.iter().map(|s| s.buffered_messages).sum()
    }

    /// Total payload bytes buffered in outboxes across all supersteps.
    pub fn total_buffered_bytes(&self) -> usize {
        self.supersteps.iter().map(|s| s.buffered_bytes).sum()
    }

    /// Largest per-superstep buffered byte count — the peak in-flight
    /// footprint of the message plane for this run.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.supersteps
            .iter()
            .map(|s| s.buffered_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total messages delivered across all supersteps. Always equals
    /// [`RunMetrics::total_messages`]; kept separate so the invariant
    /// is testable rather than assumed.
    pub fn total_messages_delivered(&self) -> usize {
        self.supersteps.iter().map(|s| s.messages_delivered).sum()
    }

    /// Phase-time totals across all supersteps.
    pub fn phase_totals(&self) -> PhaseTimes {
        let mut total = PhaseTimes::default();
        for s in &self.supersteps {
            total += s.phases;
        }
        total
    }

    /// Total checkpoint snapshot I/O time across all supersteps.
    pub fn total_checkpoint_time(&self) -> Duration {
        self.supersteps.iter().map(|s| s.checkpoint).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let m = RunMetrics {
            supersteps: vec![
                SuperstepMetrics {
                    superstep: 0,
                    active_vertices: 10,
                    messages_sent: 5,
                    messages_delivered: 5,
                    message_bytes: 40,
                    buffered_messages: 8,
                    buffered_bytes: 64,
                    elapsed: Duration::from_millis(1),
                    phases: PhaseTimes {
                        compute: Duration::from_micros(600),
                        combine: Duration::from_micros(100),
                        scatter: Duration::from_micros(200),
                        barrier: Duration::from_micros(100),
                    },
                    checkpoint: Duration::from_micros(50),
                },
                SuperstepMetrics {
                    superstep: 1,
                    active_vertices: 4,
                    messages_sent: 2,
                    messages_delivered: 2,
                    message_bytes: 16,
                    buffered_messages: 2,
                    buffered_bytes: 16,
                    elapsed: Duration::from_millis(1),
                    phases: PhaseTimes {
                        compute: Duration::from_micros(400),
                        combine: Duration::from_micros(0),
                        scatter: Duration::from_micros(500),
                        barrier: Duration::from_micros(100),
                    },
                    checkpoint: Duration::ZERO,
                },
            ],
            elapsed: Duration::from_millis(2),
        };
        assert_eq!(m.num_supersteps(), 2);
        assert_eq!(m.total_messages(), 7);
        assert_eq!(m.total_message_bytes(), 56);
        assert_eq!(m.total_activations(), 14);
        assert_eq!(m.total_buffered_messages(), 10);
        assert_eq!(m.total_buffered_bytes(), 80);
        assert_eq!(m.peak_buffered_bytes(), 64);
        assert_eq!(m.total_messages_delivered(), m.total_messages());
        let phases = m.phase_totals();
        assert_eq!(phases.compute, Duration::from_micros(1000));
        assert_eq!(phases.combine, Duration::from_micros(100));
        assert_eq!(phases.scatter, Duration::from_micros(700));
        assert_eq!(phases.barrier, Duration::from_micros(200));
        assert_eq!(phases.total(), Duration::from_micros(2000));
        assert_eq!(m.total_checkpoint_time(), Duration::from_micros(50));
    }

    #[test]
    fn peak_of_empty_run_is_zero() {
        assert_eq!(RunMetrics::default().peak_buffered_bytes(), 0);
    }
}
