//! Sharded worker pool with admission control.
//!
//! Simulation jobs are CPU-bound and wildly variable (a cached-size 20k-µop
//! interactive probe vs. a 4M-µop detailed run), so the pool provides:
//!
//! * **Sharding**: requests land on `digest % shards`, so repeated
//!   requests for the same content keep their working set (decoded trace
//!   buffers, warmed allocator arenas) on one worker — the same atomic
//!   work-index discipline as the bench crate's sweep executor, with
//!   long-lived workers instead of scoped ones.
//! * **Admission control**: every job carries a µop-cost estimate; the
//!   pool tracks the total *debt* (estimated µops admitted but not yet
//!   retired) and rejects new work once the debt exceeds a budget. The
//!   rejection carries a `Retry-After` estimate derived from the debt and
//!   a calibrated engine throughput, so clients back off proportionally.
//! * **A fast lane**: jobs at or under the fast-lane threshold bypass the
//!   shard queues into a dedicated worker, so a small interactive query
//!   never sits behind a multi-million-µop run. Fast jobs are *always*
//!   admitted — they are the queries backpressure is protecting.
//! * **Panic isolation**: a job that panics is caught on its worker,
//!   which goes on to the next job; the job's debt is retired by a drop
//!   guard whether the job returns, unwinds or is dropped unrun.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Admission rejection: the queue's estimated cycle debt exceeds budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// Client back-off hint in seconds (the HTTP `Retry-After`).
    pub retry_after_secs: u64,
    /// Debt at rejection time, in estimated µops.
    pub debt_uops: u64,
}

/// Pool statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs accepted onto a shard queue.
    pub admitted: u64,
    /// Jobs routed to the fast lane.
    pub fast_lane: u64,
    /// Jobs rejected by admission control.
    pub rejected: u64,
    /// Jobs fully executed.
    pub executed: u64,
    /// Estimated µops admitted but not yet retired.
    pub debt_uops: u64,
}

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        self.jobs.lock().expect("queue poisoned").push_back(job);
        self.ready.notify_one();
    }

    /// Blocks until a job arrives or the pool shuts down.
    fn pop(&self, shutdown: &AtomicBool) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("queue poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(jobs, std::time::Duration::from_millis(50))
                .expect("queue poisoned");
            jobs = guard;
        }
    }
}

/// The sharded, debt-bounded worker pool (see module docs).
pub struct Pool {
    shards: Vec<Arc<Queue>>,
    fast: Arc<Queue>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
    debt: Arc<AtomicU64>,
    debt_budget_uops: u64,
    fast_lane_uops: u64,
    /// Calibrated engine throughput for Retry-After estimates (µops/s).
    throughput_uops_per_sec: u64,
    admitted: AtomicU64,
    fast_count: AtomicU64,
    rejected: AtomicU64,
    executed: Arc<AtomicU64>,
}

impl Pool {
    /// Spawns `shards` shard workers plus one fast-lane worker.
    ///
    /// `debt_budget_uops` bounds the estimated µops outstanding across
    /// all shard queues; `fast_lane_uops` routes jobs at or under the
    /// threshold to the dedicated fast worker.
    pub fn new(shards: usize, debt_budget_uops: u64, fast_lane_uops: u64) -> Self {
        let shards = shards.max(1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let debt = Arc::new(AtomicU64::new(0));
        let executed = Arc::new(AtomicU64::new(0));
        let queues: Vec<Arc<Queue>> = (0..shards).map(|_| Arc::new(Queue::new())).collect();
        let fast = Arc::new(Queue::new());
        let mut workers = Vec::with_capacity(shards + 1);
        for (i, q) in queues.iter().cloned().chain([fast.clone()]).enumerate() {
            let shutdown = shutdown.clone();
            let executed = executed.clone();
            let name = if i < shards {
                format!("mstacks-shard-{i}")
            } else {
                "mstacks-fastlane".to_string()
            };
            workers.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        while let Some(job) = q.pop(&shutdown) {
                            // A panicking job must not take the shard
                            // down; its own drop guards retire its debt
                            // and answer whoever waits on it.
                            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
                            executed.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn worker"),
            );
        }
        Pool {
            shards: queues,
            fast,
            shutdown,
            workers,
            debt,
            debt_budget_uops,
            fast_lane_uops,
            throughput_uops_per_sec: 5_000_000,
            admitted: AtomicU64::new(0),
            fast_count: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            executed,
        }
    }

    /// Number of shard workers (excludes the fast lane).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Submits a job with content shard `shard` and estimated cost
    /// `cost_uops`. The job runs on a worker; the pool retires the debt
    /// when it finishes. Jobs over the current budget are rejected.
    pub fn submit(
        &self,
        shard: usize,
        cost_uops: u64,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), Rejected> {
        let fast = cost_uops <= self.fast_lane_uops;
        if !fast {
            // Optimistic add, roll back on over-budget: the race window
            // only ever over-rejects by one in-flight submission.
            let debt = self.debt.fetch_add(cost_uops, Ordering::AcqRel) + cost_uops;
            if debt > self.debt_budget_uops {
                self.debt.fetch_sub(cost_uops, Ordering::AcqRel);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                let retry = (debt / self.throughput_uops_per_sec).clamp(1, 30);
                return Err(Rejected {
                    retry_after_secs: retry,
                    debt_uops: debt - cost_uops,
                });
            }
        } else {
            self.debt.fetch_add(cost_uops, Ordering::AcqRel);
            self.fast_count.fetch_add(1, Ordering::Relaxed);
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let retire = RetireDebt {
            debt: self.debt.clone(),
            cost_uops,
        };
        let wrapped: Job = Box::new(move || {
            let _retire = retire;
            job();
        });
        if fast {
            self.fast.push(wrapped);
        } else {
            self.shards[shard % self.shards.len()].push(wrapped);
        }
        Ok(())
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            fast_lane: self.fast_count.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            debt_uops: self.debt.load(Ordering::Acquire),
        }
    }

    /// Signals workers to drain and exit, then joins them.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        for q in self.shards.iter().chain([&self.fast]) {
            q.ready.notify_one();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Retires a job's µop debt when dropped: after the job returns, while it
/// unwinds, or with the job itself if it never runs.
struct RetireDebt {
    debt: Arc<AtomicU64>,
    cost_uops: u64,
}

impl Drop for RetireDebt {
    fn drop(&mut self) {
        self.debt.fetch_sub(self.cost_uops, Ordering::AcqRel);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Detached workers exit via the shutdown flag's 50 ms poll; join
        // only in the explicit `shutdown()` path.
        self.shutdown.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn jobs_execute_and_debt_retires() {
        let pool = Pool::new(2, 1_000_000, 0);
        let (tx, rx) = mpsc::channel();
        for i in 0..8u64 {
            let tx = tx.clone();
            pool.submit(i as usize, 10_000, move || tx.send(i).unwrap())
                .expect("admitted");
        }
        let mut got: Vec<u64> = (0..8).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        // Debt drains once jobs retire.
        for _ in 0..100 {
            if pool.stats().debt_uops == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(pool.stats().debt_uops, 0);
        pool.shutdown();
    }

    #[test]
    fn a_panicking_job_neither_kills_its_shard_nor_leaks_debt() {
        let pool = Pool::new(1, 1_000_000, 0);
        pool.submit(0, 10_000, || panic!("injected job panic"))
            .expect("admitted");
        let (tx, rx) = mpsc::channel();
        pool.submit(0, 20_000, move || tx.send("ran").unwrap())
            .expect("admitted");
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("the shard worker survived the panic"),
            "ran"
        );
        for _ in 0..200 {
            if pool.stats().debt_uops == 0 && pool.stats().executed == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let s = pool.stats();
        assert_eq!((s.debt_uops, s.executed), (0, 2), "{s:?}");
        pool.shutdown();
    }

    #[test]
    fn over_budget_submissions_are_rejected_with_backoff() {
        let pool = Pool::new(1, 150_000, 0);
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        // Park the single shard worker on a long job.
        pool.submit(0, 100_000, move || {
            let _ = hold_rx.recv();
        })
        .expect("first job fits");
        // Queue depth: second job fits the budget, third exceeds it.
        pool.submit(0, 50_000, || {}).expect("second job fits");
        let err = pool.submit(0, 50_000, || {}).expect_err("over budget");
        assert!(err.retry_after_secs >= 1);
        assert!(err.debt_uops >= 150_000);
        assert_eq!(pool.stats().rejected, 1);
        hold_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn fast_lane_bypasses_a_busy_shard_and_is_always_admitted() {
        let pool = Pool::new(1, 100_000, 20_000);
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<&'static str>();
        // Saturate the only shard worker AND the debt budget.
        pool.submit(0, 100_000, move || {
            let _ = hold_rx.recv();
        })
        .expect("admitted");
        assert!(pool.submit(0, 50_000, || {}).is_err(), "budget is full");
        // A small job still gets through, on the fast worker, immediately.
        let tx = done_tx.clone();
        pool.submit(0, 10_000, move || tx.send("fast").unwrap())
            .expect("fast lane admits");
        assert_eq!(
            done_rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("fast job ran while the shard was parked"),
            "fast"
        );
        assert_eq!(pool.stats().fast_lane, 1);
        hold_tx.send(()).unwrap();
        pool.shutdown();
    }
}
