//! The engine's thread pools, both built on one shared queue.
//!
//! No job spawns further jobs, so one shared queue balances load as well
//! as per-worker deques with stealing would, with one lock instead of one
//! per worker.
//!
//! [`run_jobs`] is the one-shot batch driver: scoped workers claim the next
//! job index from one atomic counter, and results land in submission order,
//! so the output is deterministic and independent of scheduling, thread
//! count, and completion order.
//!
//! [`ServicePool`] is its long-lived sibling for the daemon: workers persist
//! across submissions and pop from one bounded queue guarded by one mutex
//! and one condvar, the bound gives backpressure instead of unbounded
//! growth, and [`ServicePool::drain`] finishes queued work before the
//! threads exit.

use crate::lock_poison_ok;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Runs every item of `items` through `run` on `workers` threads and
/// returns the results in submission order. `workers` is clamped to
/// `1..=items.len()`; with one worker the pool degenerates to a sequential
/// loop (no threads are spawned).
pub fn run_jobs<T, R, F>(items: Vec<T>, workers: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run(i, item))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);

    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let (slots, next, run) = (&slots, &next, &run);
                // Named threads give trace spans (and debuggers) a stable
                // worker identity: spans recorded on this thread report
                // `weaver-worker-<n>` as their thread name.
                std::thread::Builder::new()
                    .name(format!("weaver-worker-{me}"))
                    .spawn_scoped(scope, move || {
                        let mut done = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= n {
                                // Must happen inside the closure: the scope
                                // unblocks before this thread's TLS
                                // destructors run, so a drop-time flush
                                // could lose the last buffered spans to a
                                // caller draining the trace right after the
                                // batch returns.
                                weaver_obs::span::flush_thread();
                                return done;
                            }
                            let item = lock_poison_ok(&slots[index])
                                .take()
                                .expect("each index is claimed once");
                            done.push((index, run(index, item)));
                        }
                    })
                    .expect("spawn batch worker")
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

// ---------------------------------------------------------------------------
// The persistent service pool
// ---------------------------------------------------------------------------

/// Why [`ServicePool::submit`] rejected an item; the item is handed back so
/// the caller can report structured backpressure instead of losing it.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue is at its bound — the caller should shed load.
    Full(T),
    /// The pool is draining and accepts no further work.
    ShuttingDown(T),
}

/// The queue and the stop flag live under one lock, so a submit racing a
/// drain is either accepted before the stop (and serviced) or refused.
struct Queue<T> {
    items: VecDeque<T>,
    stop: bool,
}

struct ServiceInner<T> {
    queue: Mutex<Queue<T>>,
    bound: usize,
    /// Wakes idle workers on submit and drain.
    available: Condvar,
}

/// A long-lived pool: `workers` persistent threads service one bounded
/// shared queue. Unlike [`run_jobs`], the pool outlives any one batch, so
/// the daemon keeps its caches hot across requests.
///
/// Results travel through whatever channel the `run` closure captures (the
/// server hands each item a reply sender) — the pool itself only schedules.
pub struct ServicePool<T> {
    inner: Arc<ServiceInner<T>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<T: Send + 'static> ServicePool<T> {
    /// Spawns `workers` threads (min 1) servicing a queue bounded at
    /// `bound` items (min 1). `run` is invoked once per submitted item, on
    /// some worker thread.
    pub fn new<F>(workers: usize, bound: usize, run: F) -> ServicePool<T>
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let inner = Arc::new(ServiceInner {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                stop: false,
            }),
            bound: bound.max(1),
            available: Condvar::new(),
        });
        let run = Arc::new(run);
        let handles = (0..workers.max(1))
            .map(|me| {
                let (inner, run) = (inner.clone(), run.clone());
                std::thread::Builder::new()
                    .name(format!("weaver-service-{me}"))
                    .spawn(move || service_worker(&inner, &*run))
                    .expect("spawn service worker")
            })
            .collect();
        ServicePool {
            inner,
            handles: Mutex::new(handles),
        }
    }
}

impl<T> ServicePool<T> {
    /// Enqueues `item`, or returns it inside a [`SubmitError`] when the
    /// pool is at its bound or draining.
    pub fn submit(&self, item: T) -> Result<(), SubmitError<T>> {
        let mut queue = lock_poison_ok(&self.inner.queue);
        if queue.stop {
            return Err(SubmitError::ShuttingDown(item));
        }
        if queue.items.len() >= self.inner.bound {
            return Err(SubmitError::Full(item));
        }
        queue.items.push_back(item);
        drop(queue);
        self.inner.available.notify_one();
        Ok(())
    }

    /// Items queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        lock_poison_ok(&self.inner.queue).items.len()
    }

    /// Whether [`ServicePool::drain`] has started.
    pub fn is_draining(&self) -> bool {
        lock_poison_ok(&self.inner.queue).stop
    }

    /// Stops accepting new work, finishes everything already queued, and
    /// joins the worker threads. Idempotent.
    pub fn drain(&self) {
        lock_poison_ok(&self.inner.queue).stop = true;
        self.inner.available.notify_all();
        let handles = std::mem::take(&mut *lock_poison_ok(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<T> Drop for ServicePool<T> {
    fn drop(&mut self) {
        // Workers hold `Arc<ServiceInner>`, so without a drain they would
        // outlive the handle and idle forever.
        self.drain();
    }
}

/// Pops and runs items until the pool stops and the queue is empty.
fn service_worker<T>(inner: &ServiceInner<T>, run: &dyn Fn(T)) {
    loop {
        let mut queue = lock_poison_ok(&inner.queue);
        let item = loop {
            if let Some(item) = queue.items.pop_front() {
                break item;
            }
            if queue.stop {
                drop(queue);
                // Flush buffered trace spans before the thread exits (same
                // reasoning as the batch workers above).
                weaver_obs::span::flush_thread();
                return;
            }
            queue = inner
                .available
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(queue);
        run(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn results_are_in_submission_order() {
        for workers in [1, 2, 4, 7] {
            let items: Vec<usize> = (0..50).collect();
            let out = run_jobs(items, workers, |i, item| {
                assert_eq!(i, item);
                item * 2
            });
            assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_jobs((0..64).collect::<Vec<usize>>(), 4, |_, item| {
            counters[item].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_jobs(vec![1, 2], 16, |_, item| item + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let out = run_jobs(Vec::<u32>::new(), 4, |_, item| item);
        assert!(out.is_empty());
    }

    #[test]
    fn service_pool_runs_everything_submitted() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let pool = {
            let seen = seen.clone();
            ServicePool::new(3, 64, move |item: usize| {
                lock_poison_ok(&seen).push(item);
            })
        };
        for i in 0..40 {
            pool.submit(i).unwrap();
        }
        pool.drain();
        let mut got = lock_poison_ok(&seen).clone();
        got.sort_unstable();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
        assert_eq!(pool.queue_depth(), 0);
        assert!(pool.is_draining());
    }

    #[test]
    fn service_pool_bounds_the_queue_and_hands_items_back() {
        let release = Arc::new(AtomicUsize::new(0));
        let pool = {
            let release = release.clone();
            ServicePool::new(1, 2, move |_item: usize| {
                while release.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        // One item occupies the worker; fill the queue behind it, then the
        // next submit must bounce with the item intact.
        pool.submit(0).unwrap();
        let mut bounced = None;
        for i in 1..20 {
            if let Err(SubmitError::Full(item)) = pool.submit(i) {
                bounced = Some(item);
                break;
            }
        }
        let bounced = bounced.expect("a tiny bound must bounce a flood");
        assert!(pool.queue_depth() <= 2);
        release.store(1, Ordering::SeqCst);
        pool.drain();
        assert!(matches!(
            pool.submit(bounced),
            Err(SubmitError::ShuttingDown(_))
        ));
    }

    #[test]
    fn service_pool_drain_finishes_queued_work() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = done.clone();
            ServicePool::new(2, 128, move |_item: usize| {
                std::thread::sleep(Duration::from_millis(2));
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        let mut accepted = 0;
        for i in 0..64 {
            if pool.submit(i).is_ok() {
                accepted += 1;
            }
        }
        pool.drain();
        assert_eq!(done.load(Ordering::SeqCst), accepted);
    }

    #[test]
    fn service_pool_survives_bursts_from_many_idle_workers() {
        // Several workers go idle between every burst, which is when
        // per-worker queues with stealing could take two queue locks in
        // opposite orders and deadlock. The pool lives on the driver
        // thread: a wedged pool is never joined, so a failure cannot hang
        // the test binary.
        const WORKERS: usize = 4;
        const BURSTS: usize = 100_000;
        let progress = Arc::new(AtomicUsize::new(0));
        let (finished_tx, finished) = mpsc::channel();
        let driver = {
            let progress = progress.clone();
            std::thread::spawn(move || {
                let pool = ServicePool::new(WORKERS, 64, |reply: mpsc::Sender<()>| {
                    let _ = reply.send(());
                });
                for _ in 0..BURSTS {
                    let (reply, replies) = mpsc::channel();
                    for _ in 0..WORKERS {
                        pool.submit(reply.clone()).expect("bound holds a burst");
                    }
                    for _ in 0..WORKERS {
                        replies.recv().expect("every burst item replies");
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                pool.drain();
                let _ = finished_tx.send(());
            })
        };
        let mut last = 0;
        loop {
            match finished.recv_timeout(Duration::from_secs(5)) {
                Ok(()) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let now = progress.load(Ordering::Relaxed);
                    assert!(
                        now > last,
                        "pool wedged: no burst completed in 5 s ({now} of {BURSTS} done)"
                    );
                    last = now;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        driver.join().expect("driver thread");
        assert_eq!(progress.load(Ordering::Relaxed), BURSTS);
    }

    #[test]
    fn idle_worker_drains_the_queue_behind_a_slow_job() {
        // Job 0 pins one worker for 300 ms; the other worker must finish
        // every job queued behind it before job 0 returns.
        let done = AtomicUsize::new(0);
        let observed = run_jobs((0..9).collect::<Vec<usize>>(), 2, |i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(300));
                done.load(Ordering::SeqCst)
            } else {
                done.fetch_add(1, Ordering::SeqCst);
                0
            }
        });
        assert_eq!(
            observed[0], 8,
            "all queued jobs must have finished on the idle worker while job 0 slept"
        );
    }
}
