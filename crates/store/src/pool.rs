//! The store's parallelism: a persistent worker pool for the
//! candidate-evaluation fan-out, and [`fan_out`], the scoped chunked
//! fan-out behind the codec, persistence, restore and batch-check paths.
//!
//! The parallel path of Algorithm 1 used to spawn fresh scoped threads on
//! *every* check — at the paper's per-upload check rate that is a
//! thread-create/join pair per request. The pool spawns
//! `default_workers()` threads once (lazily, on the first parallel check)
//! and keeps them parked on a condvar; a check submits its candidate
//! chunks as owned closures and blocks until all of them report back.
//!
//! Jobs must be `'static`: the disclosure module ships owned
//! `Arc<StoredSegment>` handles and an `Arc<[u32]>` target into each
//! closure, so no job ever borrows from the submitting check (and none
//! takes a shard lock — evaluation runs entirely on the handles).
//! Multiple concurrent checks share the pool; jobs are short and never
//! block on the pool themselves, so the shared queue cannot deadlock.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// The pool: a shared FIFO of jobs drained by long-lived worker threads.
///
/// Besides the candidate-evaluation fan-out, batched document ingest
/// (`browserflow-core`) scatters per-paragraph fingerprinting jobs here —
/// each worker thread carries its own thread-local scratch, so bulk
/// fingerprinting parallelises without per-call allocations.
pub struct WorkerPool {
    shared: &'static Shared,
}

impl WorkerPool {
    /// The process-wide pool, created on first use with one thread per
    /// core ([`WorkerPool::worker_count`]).
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::start(crate::disclosure::default_workers()))
    }

    fn start(workers: usize) -> Self {
        let shared: &'static Shared = Box::leak(Box::new(Shared::default()));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("bf-eval-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
        }
        Self { shared }
    }

    /// The number of worker threads the global pool runs (one per core).
    pub fn worker_count() -> usize {
        crate::disclosure::default_workers()
    }

    /// Runs `jobs` on the pool and returns their results in submission
    /// order. Blocks the caller until every job has completed.
    pub fn scatter<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for (index, job) in jobs.into_iter().enumerate() {
                let tx = tx.clone();
                queue.push_back(Box::new(move || {
                    // The receiver outlives every job (the caller blocks on
                    // it below), so a send failure is unreachable.
                    let _ = tx.send((index, job()));
                }));
            }
        }
        drop(tx);
        if n == 1 {
            self.shared.available.notify_one();
        } else {
            self.shared.available.notify_all();
        }
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (index, value) = rx.recv().expect("pool worker dropped a job");
            slots[index] = Some(value);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every job reports exactly once"))
            .collect()
    }
}

/// Maps `f` over `items` on up to `workers` scoped threads and returns
/// the results in item order.
///
/// The items are split into contiguous chunks of
/// `items.len().div_ceil(workers)` items, one thread per chunk, so at most
/// `workers` threads run. With `workers <= 1` or fewer than two items, `f`
/// runs inline on the calling thread instead.
///
/// # Errors
///
/// Returns the payload of the first panicking chunk (in item order), or
/// of the inline run. Every chunk is joined before this returns, so no
/// thread outlives the call.
pub fn fan_out<T, R, F>(items: &[T], workers: usize, f: F) -> thread::Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() < 2 {
        // Contained as on the threaded path, where `join` hands back a
        // chunk's panic without asking for unwind safety either.
        return panic::catch_unwind(AssertUnwindSafe(|| items.iter().map(&f).collect()));
    }
    let chunk_len = items.len().div_ceil(workers);
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut results = Vec::with_capacity(items.len());
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(chunk) => results.extend(chunk),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        first_panic.map_or(Ok(results), Err)
    })
}

fn worker_loop(shared: &'static Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .expect("pool queue poisoned while waiting");
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn scatter_preserves_submission_order() {
        let pool = WorkerPool::global();
        let jobs: Vec<_> = (0..64usize).map(|i| move || i * i).collect();
        let results = pool.scatter(jobs);
        assert_eq!(results, (0..64usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let total = Arc::clone(&total);
                s.spawn(move || {
                    let jobs: Vec<_> = (0..16usize).map(|i| move || i).collect();
                    let sum: usize = WorkerPool::global().scatter(jobs).into_iter().sum();
                    total.fetch_add(sum, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            total.load(Ordering::Relaxed),
            4 * (0..16usize).sum::<usize>()
        );
    }

    #[test]
    fn empty_scatter_returns_immediately() {
        let results: Vec<u32> = WorkerPool::global().scatter(Vec::<fn() -> u32>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn fan_out_preserves_order_across_chunk_boundaries() {
        // 10 items over 3 workers: chunks of 4, 4 and 2.
        let items: Vec<usize> = (0..10).collect();
        let results = fan_out(&items, 3, |&i| (i, thread::current().id())).unwrap();
        assert_eq!(results.iter().map(|&(i, _)| i).collect::<Vec<_>>(), items);
        let threads: Vec<_> = results.iter().map(|&(_, id)| id).collect();
        assert_eq!(threads[0], threads[3]);
        assert_ne!(threads[3], threads[4]);
        assert_ne!(threads[7], threads[8]);
        assert!(!threads.contains(&thread::current().id()));
    }

    #[test]
    fn fan_out_accepts_more_workers_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(fan_out(&items, 64, |&x| x * 10).unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn fan_out_runs_inline_for_one_worker() {
        let caller = thread::current().id();
        let items: Vec<u32> = (0..8).collect();
        let results = fan_out(&items, 1, |_| thread::current().id()).unwrap();
        assert!(results.iter().all(|&id| id == caller));
    }

    #[test]
    fn fan_out_of_nothing_is_empty() {
        let results = fan_out(&[] as &[u32], 4, |&x| x).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn fan_out_reports_a_panic_after_joining_every_chunk() {
        // Chunk 0 panics at once; the other three chunks finish slowly.
        // The error must not come back before they have all run.
        let finished = AtomicUsize::new(0);
        let items: Vec<usize> = (0..8).collect();
        let result = fan_out(&items, 4, |&i| {
            if i == 0 {
                panic!("item {i} failed");
            }
            if i >= 2 {
                thread::sleep(std::time::Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            }
        });
        let payload = result.unwrap_err();
        assert_eq!(finished.load(Ordering::SeqCst), 6);
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "item 0 failed");
    }
}
