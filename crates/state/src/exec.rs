//! The process-wide executor that applies acknowledged batches off the
//! thread that drained them.
//!
//! One FIFO of jobs, served by `available_parallelism() − 1` worker
//! threads started on first use (none on one core: [`workers`] is 0 and
//! every caller applies inline). [`spawn`] queues a closure and returns
//! its [`Job`]; [`Job::wait`] settles it. A thread that must wait first
//! runs queued jobs itself — whoever's they are — and blocks only once
//! the queue is empty, i.e. once its own job is running elsewhere. So a
//! waiter never idles while work it could do is queued, and no job ever
//! waits on another: a running job always finishes.
//!
//! A job that panics does not hang its owner: the panic is caught where
//! the job ran, completion is signalled all the same, and
//! [`Job::wait`] hands the panic back to the owner.
//!
//! Nothing here orders one owner's jobs among themselves: an owner that
//! keeps at most one job outstanding (as [`crate::ExecutionPipeline`]
//! does) gets its own order for free.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

type Task = Box<dyn FnOnce() + Send>;

/// The queue every worker and every waiter serves.
static QUEUE: Mutex<VecDeque<Task>> = Mutex::new(VecDeque::new());
/// Signalled once per task queued.
static QUEUED: Condvar = Condvar::new();
/// The worker count, fixed when the first caller asks.
static WORKERS: OnceLock<usize> = OnceLock::new();

/// Locks `m`. A poisoned lock is taken as is: every update under these
/// locks is one push, pop or store, and no task runs while one is held
/// (a task's panic is caught before it fills its slot), so a panic
/// never leaves the data half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The worker threads serving the queue: one fewer than the platform's
/// parallelism, so the draining thread keeps a core. Starts them on the
/// first call.
pub fn workers() -> usize {
    *WORKERS.get_or_init(|| {
        let n = thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        for i in 0..n {
            thread::Builder::new()
                .name(format!("ladon-exec-{i}"))
                .spawn(serve)
                .expect("spawn an executor worker");
        }
        n
    })
}

/// A worker's loop: run the queue's head, or sleep until one is queued.
fn serve() {
    loop {
        let task = {
            let mut q = lock(&QUEUE);
            loop {
                match q.pop_front() {
                    Some(task) => break task,
                    None => q = QUEUED.wait(q).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        task();
    }
}

/// The result slot a job fills and its owner waits on.
struct Done<T> {
    slot: Mutex<Option<thread::Result<T>>>,
    filled: Condvar,
}

/// A queued closure's result, to be settled by [`Job::wait`]. Dropping
/// it unsettled lets the job run to completion unobserved.
pub struct Job<T> {
    done: Arc<Done<T>>,
}

/// Queues `f` for the executor and returns its [`Job`]. With no worker
/// (see [`workers`]) it still completes: the owner's wait runs it.
pub fn spawn<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Job<T> {
    let done = Arc::new(Done {
        slot: Mutex::new(None),
        filled: Condvar::new(),
    });
    let fill = Arc::clone(&done);
    let task: Task = Box::new(move || {
        let out = catch_unwind(AssertUnwindSafe(f));
        *lock(&fill.slot) = Some(out);
        fill.filled.notify_all();
    });
    lock(&QUEUE).push_back(task);
    QUEUED.notify_one();
    Job { done }
}

impl<T> Job<T> {
    /// Settles the job: runs queued jobs on this thread while its own
    /// has not finished, then blocks until it has. Returns what the
    /// closure returned, or the payload it panicked with.
    pub fn wait(self) -> thread::Result<T> {
        loop {
            if let Some(out) = lock(&self.done.slot).take() {
                return out;
            }
            let Some(task) = lock(&QUEUE).pop_front() else {
                break;
            };
            task();
        }
        let mut slot = lock(&self.done.slot);
        loop {
            if let Some(out) = slot.take() {
                return out;
            }
            slot = self
                .done
                .filled
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::resume_unwind;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    #[test]
    fn a_job_returns_its_value() {
        assert_eq!(spawn(|| 6 * 7).wait().unwrap(), 42);
    }

    #[test]
    fn a_panicking_job_signals_completion_and_hands_the_panic_back() {
        let job = spawn(|| -> u32 { panic!("job failed") });
        let payload = job.wait().expect_err("the panic comes back");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job failed"));
        // The executor survives it.
        assert_eq!(spawn(|| 1).wait().unwrap(), 1);
        let resurfaced = std::panic::catch_unwind(|| {
            if let Err(p) = spawn(|| -> u32 { panic!("again") }).wait() {
                resume_unwind(p);
            }
        });
        assert!(resurfaced.is_err());
    }

    #[test]
    fn a_waiter_runs_queued_jobs_before_it_blocks() {
        // Park every worker, so only the waiter can run what follows.
        let n = workers();
        let (parked_tx, parked) = mpsc::channel();
        let release: Vec<_> = (0..n)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<()>();
                let parked_tx = parked_tx.clone();
                let job = spawn(move || {
                    parked_tx.send(()).unwrap();
                    rx.recv().unwrap();
                });
                (tx, job)
            })
            .collect();
        for _ in 0..n {
            parked.recv().unwrap();
        }
        let ran = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Job<()>> = (0..8)
            .map(|_| {
                let ran = Arc::clone(&ran);
                spawn(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        // Another test's jobs may sit in the queue too; the waiter runs
        // whatever is ahead of its own.
        jobs.into_iter().for_each(|j| j.wait().unwrap());
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        for (tx, job) in release {
            tx.send(()).unwrap();
            job.wait().unwrap();
        }
    }

    #[test]
    fn many_owners_on_many_threads_settle_every_job() {
        let total: u64 = thread::scope(|s| {
            let owners: Vec<_> = (0..4u64)
                .map(|t| {
                    s.spawn(move || {
                        let mut sum = 0;
                        for i in 0..200u64 {
                            let job = spawn(move || (0..=i + t).sum::<u64>());
                            sum += job.wait().unwrap();
                        }
                        sum
                    })
                })
                .collect();
            owners.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let expect: u64 = (0..4u64)
            .map(|t| (0..200u64).map(|i| (i + t) * (i + t + 1) / 2).sum::<u64>())
            .sum();
        assert_eq!(total, expect);
    }
}
