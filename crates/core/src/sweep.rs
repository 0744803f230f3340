//! Deterministic parallel sweep engine.
//!
//! Experiment sweeps — `bft-sim fuzz`, `campaign run`, the repetition
//! machinery behind every figure — consist of many *independent* seeded
//! runs: each run is a pure function of its seed *and nothing else* — PR 1/
//! PR 2 guarantee bit-identical [`RunResult`](crate::metrics::RunResult)s
//! per seed — so a sweep can be sharded across cores without any cross-run
//! coordination, and its output is identical at any thread count.
//!
//! [`sweep`] does exactly that with `std::thread` + channels only (the
//! repository is offline and dependency-free by design): a shared atomic
//! job counter hands out indices to `min(threads, jobs)` workers
//! (work-stealing, so an unlucky shard of slow scenarios cannot straggle
//! the sweep), every worker sends `(index, result)` over an mpsc channel,
//! and the collector reassembles the results **in job order**. Because
//! each job is deterministic and results are keyed by index, the output
//! vector — and anything serialised from it — is byte-identical regardless
//! of the thread count.
//!
//! Per-job panics are isolated with [`std::panic::catch_unwind`]: one
//! poisoned scenario surfaces as an `Err(`[`SweepPanic`]`)` in its slot
//! instead of killing a 10k-seed sweep. (The process-global panic hook
//! still runs, so the usual panic message appears on stderr when it
//! fires; callers that expect panics may want to report the collected
//! [`SweepPanic`]s instead of re-raising.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One job's panic, caught and reported instead of aborting the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPanic {
    /// Index of the job that panicked.
    pub(crate) job: usize,
    /// The panic payload, when it was a string (the overwhelmingly common
    /// case); a placeholder otherwise.
    pub message: String,
}

impl core::fmt::Display for SweepPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for SweepPanic {}

/// The host's available parallelism (1 if it cannot be determined).
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Resolves a user-supplied thread count: `0` means "use all cores"
/// ([`available_threads`]); anything else is taken literally.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Runs `jobs` independent jobs on `min(threads, jobs)` worker threads and
/// returns their results **in job order** — element `i` is `run(i)`'s
/// outcome. `threads == 0` means `available_threads`. Each job runs under
/// [`catch_unwind`], so a panicking job yields `Err(SweepPanic)` in its
/// slot while every other job still completes.
///
/// Output is byte-identical for every thread count as long as `run` is
/// deterministic per index (jobs must not share mutable state — which is
/// also what makes them safe to shard).
///
/// # Examples
///
/// ```
/// use bft_sim_core::sweep::sweep;
///
/// let squares = sweep(5, 2, |i| i * i);
/// let values: Vec<usize> = squares.into_iter().map(Result::unwrap).collect();
/// assert_eq!(values, vec![0, 1, 4, 9, 16]);
/// ```
pub fn sweep<T, F>(jobs: usize, threads: usize, run: F) -> Vec<Result<T, SweepPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_caught = |job: usize| -> Result<T, SweepPanic> {
        catch_unwind(AssertUnwindSafe(|| run(job))).map_err(|payload| SweepPanic {
            job,
            message: panic_message(payload.as_ref()),
        })
    };

    let threads = resolve_threads(threads).min(jobs.max(1));
    if threads <= 1 {
        return (0..jobs).map(run_caught).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<T, SweepPanic>)>();
    let mut slots: Vec<Option<Result<T, SweepPanic>>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let run_caught = &run_caught;
            scope.spawn(move || loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= jobs {
                    break;
                }
                if tx.send((job, run_caught(job))).is_err() {
                    break; // collector is gone; nothing left to report to
                }
            });
        }
        drop(tx); // the collector's recv() ends once every worker is done
        for (job, result) in rx {
            slots[job] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index was dispatched exactly once"))
        .collect()
}

/// Extracts a human-readable message from a panic payload (as returned by
/// `std::panic::catch_unwind`). Public so harnesses that catch panics
/// themselves — e.g. the fuzzer's observability-enabled runs, which attach
/// the last events of a crashing simulation — report messages in the same
/// format as [`sweep`] does.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_for_every_thread_count() {
        for threads in [0, 1, 2, 3, 4, 8] {
            let results = sweep(17, threads, |i| i * 10);
            let values: Vec<usize> = results.into_iter().map(Result::unwrap).collect();
            assert_eq!(
                values,
                (0..17).map(|i| i * 10).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn output_is_identical_regardless_of_thread_count() {
        // A mildly uneven workload: per-job output depends only on the index.
        let job = |i: usize| -> String {
            let mut acc = i as u64;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            format!("{i}:{acc}")
        };
        let serial: Vec<_> = sweep(64, 1, job).into_iter().map(Result::unwrap).collect();
        for threads in [2, 4, 7] {
            let parallel: Vec<_> = sweep(64, threads, job)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn a_panicking_job_does_not_abort_the_sweep() {
        for threads in [1, 4] {
            let results = sweep(8, threads, |i| {
                assert!(i != 3, "poisoned scenario {i}");
                i
            });
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.job, 3);
                    assert!(p.message.contains("poisoned scenario 3"), "{p}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn zero_jobs_and_oversubscription_are_fine() {
        assert!(sweep(0, 4, |i| i).is_empty());
        let one: Vec<_> = sweep(1, 16, |i| i)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn resolve_threads_treats_zero_as_auto() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(3), 3);
        assert!(available_threads() >= 1);
    }
}
