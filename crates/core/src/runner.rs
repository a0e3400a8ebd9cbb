//! Parallel experiment execution with a deterministic result merge.
//!
//! The simulator is single-threaded by design — one [`Machine`] is one
//! deterministic event loop — but the *harness* around it runs many
//! independent machines: the `tests/scale_pins.rs` scenarios and the
//! property suites' 48-case loops each build their own machine (or
//! untimed kernel cluster) and never share state. [`Runner`] executes such
//! independent jobs on `std::thread::scope` worker threads and merges
//! the results back into **submission order**, so every row and golden
//! line that derives from the results is identical to a serial run —
//! only wall-clock drops. Callers name their worker count.
//!
//! # Determinism contract
//!
//! Parallelism here is strictly *between* machines, never inside one:
//!
//! * each job owns its machine(s); nothing is shared but the job inputs
//!   (which are `Send` by construction) and read-only configuration;
//! * workers claim jobs from an atomic cursor, so which worker runs
//!   which job is scheduling-dependent — but a job's *result* depends
//!   only on the job (the simulator has no global state, locked in by
//!   the [`Send`-audit](#send-audit) below), so per-job results are
//!   bit-identical to the serial run;
//! * completion order is scheduling-dependent, so the merge sorts by
//!   submission index explicitly instead of trusting arrival order.
//!
//! `tests/determinism.rs::parallel_runner_matches_serial` pins the
//! contract: the same job list at 1, 2 and 4 workers must produce
//! byte-identical rows and equal kernel state digests.
//!
//! # Send audit
//!
//! The whole simulator tree is free of `Rc`, `RefCell`, thread-local
//! and global mutable state; machines migrate freely between worker
//! threads. The compile-time assertions at the bottom of this module
//! turn that audit into a build failure: a future `Rc`/`RefCell`
//! regression anywhere under [`Machine`] breaks the build here, not at
//! parallelization time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::experiment::MicroMachine;
use crate::machine::Machine;

/// A boxed heterogeneous job for [`Runner::run`]: the scenario closures
/// of a test driver, each returning one result row.
pub type Job<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// Executes independent jobs on scoped worker threads and merges the
/// results into submission order.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner with `threads` workers; `0` is clamped to `1`, and `1`
    /// runs every job inline on the calling thread (no threads are
    /// spawned — the serial path is literally the serial loop).
    pub fn new(threads: usize) -> Runner {
        Runner { threads: threads.max(1) }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every item on the worker threads; returns the
    /// results in item (submission) order. `f` receives the item's
    /// submission index alongside the item.
    ///
    /// Jobs are claimed from an atomic cursor in submission order, so
    /// at one worker this is exactly `items.map(f)`; at N workers the
    /// claim order is still submission order while completion order is
    /// not — the merge sorts explicitly.
    ///
    /// # Panics
    ///
    /// A panicking job propagates its panic to the caller (after all
    /// workers have stopped), as the serial loop would.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        // Each slot is claimed exactly once via the cursor; the Mutex
        // is uncontended (take-once) and only exists to move the item
        // out from behind the shared reference.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let cursor = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.threads.min(n))
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let item =
                                slots[i].lock().unwrap().take().expect("each job claimed once");
                            local.push((i, f(i, item)));
                        }
                        done.lock().unwrap().append(&mut local);
                    })
                })
                .collect();
            // Join explicitly so a panicking job resurfaces with its own
            // payload (scope's implicit join would replace it with the
            // generic "a scoped thread panicked").
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let mut merged = done.into_inner().unwrap();
        // Deterministic merge: completion order is scheduling-dependent,
        // submission order is not. Sort explicitly rather than assuming
        // workers finished in claim order.
        merged.sort_by_key(|(i, _)| *i);
        assert!(
            merged.len() == n && merged.iter().enumerate().all(|(pos, (i, _))| pos == *i),
            "every job must deliver exactly one result"
        );
        merged.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs heterogeneous boxed jobs ([`Job`]); returns the results in
    /// submission order. The scenario form of [`Runner::map`].
    pub fn run<'a, R: Send>(&self, jobs: Vec<Job<'a, R>>) -> Vec<R> {
        self.map(jobs, |_, job| job())
    }
}

// ----- the Send audit, as a build failure ----------------------------------
//
// The parallel harness is sound because a machine — and everything it
// transitively owns: kernels, services, clients, the NoC, the event
// schedule — is `Send`, i.e. free of `Rc`, `RefCell`, and aliased
// mutability. These compile-time assertions lock that in: introducing
// an `Rc` anywhere under these types fails `cargo build` right here
// with the offending type in the error, instead of surfacing later as
// a trait-bound error inside the runner.
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send::<Machine>();
    assert_send::<MicroMachine>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_submission_ordered() {
        // Jobs deliberately finish out of submission order (later jobs
        // are cheaper); the merge must restore submission order at
        // every worker count.
        let serial: Vec<u64> = Runner::new(1).map((0..16u64).collect(), |i, v| {
            assert_eq!(i as u64, v);
            v * v
        });
        for threads in [2, 3, 4, 8] {
            let parallel: Vec<u64> = Runner::new(threads).map((0..16u64).collect(), |_, v| {
                std::thread::sleep(std::time::Duration::from_micros(200 * (16 - v)));
                v * v
            });
            assert_eq!(serial, parallel, "{threads} workers broke the merge order");
        }
    }

    #[test]
    fn boxed_jobs_run_in_order() {
        let jobs: Vec<Job<usize>> =
            (0..8usize).map(|i| Box::new(move || i * 10) as Job<usize>).collect();
        assert_eq!(Runner::new(4).run(jobs), vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        assert_eq!(Runner::new(0).threads(), 1);
        assert_eq!(Runner::new(0).map(vec![7, 8], |_, v| v + 1), vec![8, 9]);
    }

    #[test]
    fn empty_and_singleton_job_lists() {
        let empty: Vec<u32> = Runner::new(4).map(Vec::<u32>::new(), |_, v| v);
        assert!(empty.is_empty());
        assert_eq!(Runner::new(4).map(vec![3], |_, v| v * 2), vec![6]);
    }

    #[test]
    #[should_panic(expected = "job 3 exploded")]
    fn job_panics_propagate() {
        let _ = Runner::new(2).map((0..6).collect::<Vec<u32>>(), |i, _| {
            if i == 3 {
                panic!("job 3 exploded");
            }
            i
        });
    }
}
