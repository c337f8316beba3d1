//! A std-only work-stealing thread pool.
//!
//! Each worker owns a deque; [`ThreadPool::execute`] distributes jobs
//! round-robin across the deques, workers drain their own deque LIFO and
//! steal FIFO from their siblings when idle. [`ThreadPool::parallel_map`]
//! is the high-level entry point used throughout the workspace: it fans a
//! `Vec` of items out as one job each and returns the results **in
//! submission order**, so a parallel map is a drop-in, deterministic
//! replacement for a sequential one. The calling thread helps drain the
//! queues while it waits, which keeps nested `parallel_map` calls (a
//! parallel stage that itself fans out) deadlock-free even on a pool with
//! a single worker.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A queued job. It bumps `executed` itself once its work is done, so a
/// job that hands back a result can count itself before the result is
/// visible: a caller that has every result sees every job counted.
type Job = Box<dyn FnOnce(&Counters) + Send + 'static>;

/// Scheduling counters, cumulative since pool creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads owned by the pool.
    pub workers: usize,
    /// Jobs submitted via [`ThreadPool::execute`] (including those
    /// spawned by [`ThreadPool::parallel_map`]).
    pub scheduled: u64,
    /// Jobs that have finished executing.
    pub executed: u64,
    /// Jobs executed by a thread other than the worker whose deque they
    /// were pushed to (steals, including help from waiting callers).
    pub stolen: u64,
    /// The subset of `stolen` taken by callers waiting inside
    /// [`ThreadPool::parallel_map`] rather than by pool workers.
    pub helped: u64,
    /// Jobs sitting in the deques at snapshot time.
    pub queue_depth: usize,
}

#[derive(Default)]
struct Counters {
    scheduled: AtomicU64,
    executed: AtomicU64,
    stolen: AtomicU64,
    helped: AtomicU64,
}

struct Shared {
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Signalled on every submission; workers also wake on a timeout so a
    /// missed signal only costs a millisecond.
    signal: Condvar,
    signal_lock: Mutex<()>,
    shutdown: AtomicBool,
    next_queue: AtomicUsize,
    counters: Counters,
}

impl Shared {
    /// Pops a job, preferring `own` (LIFO) and stealing FIFO from the
    /// other deques otherwise. `own` is `None` for helping callers, which
    /// always steal.
    fn take_job(&self, own: Option<usize>) -> Option<Job> {
        if let Some(own) = own {
            if let Some(job) = self.queues[own].lock().expect("queue lock").pop_back() {
                return Some(job);
            }
        }
        let n = self.queues.len();
        let start = own.map_or(0, |o| (o + 1) % n);
        for i in 0..n {
            let q = (start + i) % n;
            if Some(q) == own {
                continue;
            }
            if let Some(job) = self.queues[q].lock().expect("queue lock").pop_front() {
                self.counters.stolen.fetch_add(1, Ordering::Relaxed);
                if own.is_none() {
                    self.counters.helped.fetch_add(1, Ordering::Relaxed);
                }
                return Some(job);
            }
        }
        None
    }

    fn run_one(&self, own: Option<usize>) -> bool {
        match self.take_job(own) {
            Some(job) => {
                job(&self.counters);
                true
            }
            None => false,
        }
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool shuts the workers down after the queues drain; the
/// process-wide [`global_pool`] lives for the program's lifetime.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// A pool with `workers` threads (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            signal: Condvar::new(),
            signal_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
            counters: Counters::default(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rcarb-exec-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// A snapshot of the scheduling counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers.len(),
            scheduled: self.shared.counters.scheduled.load(Ordering::Relaxed),
            executed: self.shared.counters.executed.load(Ordering::Relaxed),
            stolen: self.shared.counters.stolen.load(Ordering::Relaxed),
            helped: self.shared.counters.helped.load(Ordering::Relaxed),
            queue_depth: self
                .shared
                .queues
                .iter()
                .map(|q| q.lock().expect("queue lock").len())
                .sum(),
        }
    }

    /// Submits one fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.push(Box::new(move |counters| {
            job();
            counters.executed.fetch_add(1, Ordering::Relaxed);
        }));
    }

    fn push(&self, job: Job) {
        let q = self.shared.next_queue.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        self.shared.queues[q]
            .lock()
            .expect("queue lock")
            .push_back(job);
        self.shared
            .counters
            .scheduled
            .fetch_add(1, Ordering::Relaxed);
        self.shared.signal.notify_all();
    }

    /// Applies `f` to every item concurrently and returns the results in
    /// the items' original order (deterministic regardless of which
    /// worker ran what). The calling thread helps execute queued jobs
    /// while waiting.
    ///
    /// # Panics
    ///
    /// If `f` panics for any item, the panic is captured and re-raised on
    /// the calling thread after the remaining jobs settle.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n <= 1 {
            return items.into_iter().map(f).collect();
        }
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel();
        for (i, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.push(Box::new(move |counters| {
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(item)));
                counters.executed.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send((i, out));
            }));
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut received = 0usize;
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        while received < n {
            match rx.try_recv() {
                Ok((i, out)) => {
                    received += 1;
                    match out {
                        Ok(v) => slots[i] = Some(v),
                        Err(p) => {
                            panic.get_or_insert(p);
                        }
                    }
                }
                Err(TryRecvError::Empty) => {
                    // Help drain the queues; if nothing is runnable the
                    // jobs are in flight on workers — wait briefly.
                    if !self.shared.run_one(None) {
                        match rx.recv_timeout(Duration::from_millis(1)) {
                            Ok((i, out)) => {
                                received += 1;
                                match out {
                                    Ok(v) => slots[i] = Some(v),
                                    Err(p) => {
                                        panic.get_or_insert(p);
                                    }
                                }
                            }
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every parallel_map job reports exactly once"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.signal.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    loop {
        if shared.run_one(Some(index)) {
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let guard = shared.signal_lock.lock().expect("signal lock");
        // Re-check under the lock, then sleep with a timeout backstop.
        let _unused = shared
            .signal
            .wait_timeout(guard, Duration::from_millis(1))
            .expect("signal wait");
    }
}

/// The process-wide pool shared by every parallel entry point in the
/// workspace. Sized by the `RCARB_THREADS` environment variable when set,
/// otherwise by [`std::thread::available_parallelism`].
pub fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::env::var("RCARB_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        ThreadPool::new(workers)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.parallel_map((0..100).collect(), |i: usize| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let pool = ThreadPool::new(2);
        let before = pool.stats().scheduled;
        assert_eq!(
            pool.parallel_map(Vec::<u32>::new(), |x| x),
            Vec::<u32>::new()
        );
        assert_eq!(pool.parallel_map(vec![7u32], |x| x + 1), vec![8]);
        assert_eq!(
            pool.stats().scheduled,
            before,
            "small maps bypass the queues"
        );
    }

    #[test]
    fn counters_track_scheduling() {
        let pool = ThreadPool::new(2);
        let _ = pool.parallel_map((0..32).collect(), |i: u64| i + 1);
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.scheduled, 32);
        assert_eq!(stats.executed, 32);
    }

    #[test]
    fn nested_parallel_maps_do_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(1));
        let inner = Arc::clone(&pool);
        let out = pool.parallel_map((0..4).collect(), move |i: u64| {
            inner
                .parallel_map((0..4).collect(), |j: u64| j)
                .iter()
                .sum::<u64>()
                + i
        });
        assert_eq!(out, vec![6, 7, 8, 9]);
        let stats = pool.stats();
        assert!(
            stats.helped > 0,
            "the blocked caller must have helped drain the queues"
        );
        assert!(stats.helped <= stats.stolen, "help is a subset of steals");
        assert_eq!(stats.queue_depth, 0, "queues drain once the maps return");
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map((0..8).collect(), |i: u32| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps working.
        assert_eq!(pool.parallel_map(vec![1u32, 2], |x| x * 2), vec![2, 4]);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global_pool() as *const ThreadPool;
        let b = global_pool() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global_pool().num_workers() >= 1);
    }
}
