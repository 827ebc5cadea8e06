//! A reusable thread barrier for short phases.
//!
//! `std::sync::Barrier` blocks every early arriver in the kernel, and a
//! blocked waiter takes 50–150 µs to wake on a 2-vCPU VM — a tenth of a
//! layered replay, whose phases last tens of microseconds to a few
//! milliseconds. Here a waiter first polls for about that long, yielding
//! the CPU on every poll so an oversubscribed pool still makes progress,
//! and only then blocks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a waiter polls before it blocks: about one wake-up.
const POLL: Duration = Duration::from_micros(100);

pub(crate) struct Barrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    released: Condvar,
}

impl Barrier {
    pub(crate) fn new(parties: usize) -> Self {
        Barrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            released: Condvar::new(),
        }
    }

    /// Return once all `parties` threads have called `wait` this round.
    pub(crate) fn wait(&self) {
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.parties {
            // Last to arrive: reset for the next round, then release. The
            // lock orders the bump against a waiter about to block, which
            // re-checks the generation under it.
            self.arrived.store(0, Ordering::SeqCst);
            let _guard = self.lock.lock().expect("barrier lock");
            self.generation.fetch_add(1, Ordering::SeqCst);
            self.released.notify_all();
            return;
        }
        let polling = Instant::now();
        while polling.elapsed() < POLL {
            if self.generation.load(Ordering::SeqCst) != generation {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = self.lock.lock().expect("barrier lock");
        while self.generation.load(Ordering::SeqCst) == generation {
            guard = self.released.wait(guard).expect("barrier lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// More threads than cores, many rounds: every thread observes every
    /// other thread's write of the round before, whether its wait polled
    /// or blocked (odd threads dawdle past the polling window).
    #[test]
    fn rounds_stay_in_lockstep() {
        const THREADS: usize = 7;
        const ROUNDS: usize = 200;
        let barrier = Barrier::new(THREADS);
        let cells: Vec<AtomicUsize> = (0..THREADS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for me in 0..THREADS {
                let (barrier, cells) = (&barrier, &cells);
                scope.spawn(move || {
                    for round in 1..=ROUNDS {
                        if me % 2 == 1 && round % 50 == 0 {
                            std::thread::sleep(POLL * 3);
                        }
                        cells[me].store(round, Ordering::SeqCst);
                        barrier.wait();
                        for cell in cells {
                            assert_eq!(cell.load(Ordering::SeqCst), round);
                        }
                        barrier.wait();
                    }
                });
            }
        });
    }
}
