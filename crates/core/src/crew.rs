//! A crew: a fixed set of worker threads that run one job after another,
//! each worker on its own share of the work.
//!
//! [`scope`] spawns the workers once; [`Crew::run`] hands every worker
//! the same job, runs it on each worker's share and returns the results
//! once all of them are done. A share stays on its worker for the whole
//! scope, so whatever a job allocates in a share is freed by the thread
//! that allocated it. Jobs are short — a layered replay's phases last
//! tens of microseconds to a few milliseconds — so workers park between
//! jobs on a polling [`Barrier`] instead of being spawned per job.

use ariadne_obs::trace;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A job as the workers see it: run it on worker `w`'s share.
type Task<'env, S> = Arc<dyn Fn(usize, &mut S) + Send + Sync + 'env>;

/// What the spawned workers share with the calling thread.
struct Shared<'env, S> {
    barrier: Barrier,
    /// The job of the current run; `None` after a start barrier tells the
    /// workers the scope is over.
    task: Mutex<Option<Task<'env, S>>>,
}

/// The workers of one [`scope`], driven from the calling thread.
pub(crate) struct Crew<'env, S> {
    /// Worker 0's share: the calling thread's own.
    mine: RefCell<S>,
    workers: usize,
    shared: Shared<'env, S>,
}

/// Run `body` with a crew of `shares.len()` workers. Worker `w` owns
/// `shares[w]` for the whole scope; the calling thread is worker 0, so
/// one share spawns no thread. However `body` leaves — by return, `?` or
/// unwinding — the other workers are released and joined.
pub(crate) fn scope<'env, S: Send + 'env, T>(
    shares: Vec<S>,
    body: impl FnOnce(&Crew<'env, S>) -> T,
) -> T {
    let workers = shares.len();
    let mut shares = shares.into_iter();
    let crew = Crew {
        mine: RefCell::new(shares.next().expect("a crew has at least one share")),
        workers,
        shared: Shared {
            barrier: Barrier::new(workers),
            task: Mutex::new(None),
        },
    };
    thread::scope(|threads| {
        for (w, share) in (1..).zip(shares) {
            let shared = &crew.shared;
            threads.spawn(move || work(shared, w, share));
        }
        let out = catch_unwind(AssertUnwindSafe(|| body(&crew)));
        // Every worker waits at a start barrier between runs.
        *crew.shared.task.lock().expect("crew lock") = None;
        crew.shared.barrier.wait();
        out.unwrap_or_else(|payload| resume_unwind(payload))
    })
}

/// A spawned worker: one job per run until the scope ends.
fn work<S>(shared: &Shared<'_, S>, w: usize, mut share: S) {
    loop {
        shared.barrier.wait();
        let Some(task) = shared.task.lock().expect("crew lock").clone() else {
            return;
        };
        task(w, &mut share);
        // No worker holds the job, or what it captured, once `run` returns.
        drop(task);
        shared.barrier.wait();
    }
}

impl<'env, S> Crew<'env, S> {
    /// Run `job` on every worker's share and return the results in
    /// worker order; every worker has finished when this returns. Each
    /// job runs inside the caller's span context, so spans it opens nest
    /// under the caller's. A panic on any worker is re-raised here once
    /// all of them are done: the lowest panicking worker's payload.
    pub(crate) fn run<R: Send + 'env>(
        &self,
        job: impl Fn(&mut S) -> R + Send + Sync + 'env,
    ) -> Vec<R> {
        let mut mine = self.mine.borrow_mut();
        if self.workers == 1 {
            return vec![job(&mut mine)];
        }
        let outs: Arc<Mutex<Vec<Option<thread::Result<R>>>>> =
            Arc::new(Mutex::new((0..self.workers).map(|_| None).collect()));
        let task: Task<'env, S> = {
            let (outs, ctx) = (Arc::clone(&outs), trace::current_context());
            Arc::new(move |w, share| {
                let _ctx = ctx.enter();
                let out = catch_unwind(AssertUnwindSafe(|| job(share)));
                outs.lock().expect("crew lock")[w] = Some(out);
            })
        };
        *self.shared.task.lock().expect("crew lock") = Some(Arc::clone(&task));
        self.shared.barrier.wait();
        task(0, &mut mine);
        self.shared.barrier.wait();
        let outs = std::mem::take(&mut *outs.lock().expect("crew lock"));
        (outs.into_iter())
            .map(|out| match out.expect("every worker ran the job") {
                Ok(result) => result,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

/// How long a waiter polls before it blocks: about one wake-up.
const POLL: Duration = Duration::from_micros(100);

/// A reusable thread barrier for short phases.
///
/// `std::sync::Barrier` blocks every early arriver in the kernel, and a
/// blocked waiter takes 50–150 µs to wake on a 2-vCPU VM — a tenth of a
/// layered replay. Here a waiter first polls for about that long,
/// yielding the CPU on every poll so an oversubscribed crew still makes
/// progress, and only then blocks.
struct Barrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    released: Condvar,
}

impl Barrier {
    fn new(parties: usize) -> Self {
        Barrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            released: Condvar::new(),
        }
    }

    /// Return once all `parties` threads have called `wait` this round.
    fn wait(&self) {
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
            thread::yield_now();
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
    use ariadne_obs::trace::Level;
    use std::any::Any;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    /// Run `f` on its own thread and fail, instead of hanging the suite,
    /// if it has not finished or failed within a minute.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a worker was left parked")
    }

    fn message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    #[test]
    fn results_come_back_in_worker_order() {
        let out = scope(vec![0, 1, 2, 3], |crew| {
            (1..=3)
                .map(|k| crew.run(move |w| *w * k))
                .collect::<Vec<_>>()
        });
        assert_eq!(out, [[0, 1, 2, 3], [0, 2, 4, 6], [0, 3, 6, 9]]);
    }

    /// A share is visited by one thread for the whole scope, and worker
    /// 0 is the calling thread.
    #[test]
    fn each_share_stays_on_one_thread() {
        let caller = thread::current().id();
        let shares: Vec<Option<ThreadId>> = vec![None; 3];
        let runs = scope(shares, |crew| {
            (0..50)
                .map(|_| {
                    crew.run(|seen| {
                        let me = thread::current().id();
                        assert_eq!(*seen.get_or_insert(me), me, "a share changed threads");
                        me
                    })
                })
                .collect::<Vec<_>>()
        });
        assert!(runs.iter().all(|run| run == &runs[0]));
        assert_eq!(runs[0][0], caller);
        assert!(runs[0][1] != runs[0][2] && !runs[0][1..].contains(&caller));
    }

    #[test]
    fn one_share_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        let out = scope(vec![()], |crew| crew.run(|_| thread::current().id()));
        assert_eq!(out, [caller]);
    }

    /// A panic on worker 0 or 2 of 3 reaches the caller with its own
    /// payload after every other worker finished the job; when two
    /// workers panic the lower one's payload wins; a panic in the body
    /// outside any run releases the workers too.
    #[test]
    fn panics_reach_the_caller_after_every_worker_finished() {
        for panicking in [vec![0usize], vec![2], vec![1, 2]] {
            let (want, others) = (format!("boom on {}", panicking[0]), 3 - panicking.len());
            let (message, finished) = within_a_minute(move || {
                let finished = AtomicUsize::new(0);
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    scope(vec![0usize, 1, 2], |crew| {
                        crew.run(|w| {
                            if panicking.contains(w) {
                                panic!("boom on {w}");
                            }
                            thread::sleep(POLL * 3);
                            finished.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                }))
                .expect_err("the panic reaches the caller");
                (message(payload), finished.into_inner())
            });
            assert_eq!(message, want);
            assert_eq!(finished, others, "every other worker finished");
        }
        let payload = within_a_minute(|| {
            catch_unwind(|| {
                scope(vec![(); 3], |crew| {
                    crew.run(|_| ());
                    panic!("boom in the body");
                })
            })
            .map_err(message)
        });
        assert_eq!(payload, Err("boom in the body".to_string()));
    }

    /// A span a job opens, on any worker, is a child of the span the
    /// caller was in.
    #[test]
    fn job_spans_nest_under_the_callers_span() {
        trace::set_filter("off,crew_test=trace");
        let caller = trace::span(Level::Trace, "crew_test", "caller", &[]);
        let parent = caller.context().span_id;
        scope(vec![(); 3], |crew| {
            crew.run(|_| drop(trace::span(Level::Trace, "crew_test", "job", &[])))
        });
        drop(caller);
        trace::set_filter("off");
        let jobs: Vec<u64> = (trace::drain().iter())
            .filter(|event| event.target == "crew_test" && event.name == "job")
            .map(|event| event.parent_id)
            .collect();
        assert_eq!(jobs, [parent; 3]);
    }

    /// More threads than cores, many rounds: every thread observes every
    /// other thread's write of the round before, whether its wait polled
    /// or blocked (odd threads dawdle past the polling window).
    #[test]
    fn rounds_stay_in_lockstep() {
        const THREADS: usize = 7;
        const ROUNDS: usize = 200;
        let barrier = Barrier::new(THREADS);
        let cells: Vec<AtomicUsize> = (0..THREADS).map(|_| AtomicUsize::new(0)).collect();
        thread::scope(|scope| {
            for me in 0..THREADS {
                let (barrier, cells) = (&barrier, &cells);
                scope.spawn(move || {
                    for round in 1..=ROUNDS {
                        if me % 2 == 1 && round % 50 == 0 {
                            thread::sleep(POLL * 3);
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
