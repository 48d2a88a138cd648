//! Host parallelism shared by every harness that runs independent
//! simulations on worker threads.
//!
//! Since the arena refactor a [`crate::Simulation`] can be built on one
//! thread and run on another, so two layers fan work out across host
//! cores: the `bbench` sweeps (`BBENCH_JOBS`) and the `bserver` fleet's
//! shards (`BSERVER_SHARDS`). Both size their width through
//! [`worker_count`], so an explicit environment override wins and the
//! fallback (the host's available parallelism) is computed one way, and
//! both run their jobs through [`run_ordered`].
//!
//! Determinism comes from isolation plus ordering: each job is a closed
//! simulation whose only inputs are its captured parameters, and
//! [`run_ordered`] hands results back in submission order whichever
//! worker finished first, so serial and parallel runs produce the same
//! bytes.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Parses a `BBENCH_JOBS`/`BSERVER_SHARDS`-style override: a positive
/// integer wins (zero is clamped to one so `=0` means "serial", not a
/// panic); anything unparsable is ignored so a typo falls back to the
/// host default rather than silently serializing a long sweep.
pub fn parse_jobs(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
}

/// Worker threads for host-parallel execution: the `env_var` override if
/// set (and parsable), else the host's
/// [`std::thread::available_parallelism`].
pub fn worker_count(env_var: &str) -> usize {
    parse_jobs(std::env::var(env_var).ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `jobs` on up to `workers` scoped threads and returns their
/// results in submission order.
///
/// With `workers <= 1` or at most one job, every job runs in order on the
/// calling thread. Otherwise `min(workers, jobs.len())` threads take jobs
/// in submission order from one shared queue, so long jobs queued first
/// also start first. Jobs may borrow from the caller: the threads are
/// scoped to this call.
///
/// # Panics
///
/// Once a job panics no further job starts; jobs already running finish.
/// The first panic by submission order then resumes on the caller with
/// its original payload.
pub fn run_ordered<R, F>(jobs: Vec<F>, workers: usize) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let panicked = AtomicBool::new(false);
    let mut slots: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while !panicked.load(Ordering::Relaxed) {
                        let Some((idx, job)) = queue.lock().expect("queue lock").next() else {
                            break;
                        };
                        let outcome = catch_unwind(AssertUnwindSafe(job));
                        if outcome.is_err() {
                            panicked.store(true, Ordering::Relaxed);
                        }
                        done.push((idx, outcome));
                    }
                    done
                })
            })
            .collect();
        for thread in threads {
            for (idx, outcome) in thread.join().expect("job panics are caught") {
                slots[idx] = Some(outcome);
            }
        }
    });
    // Slots stay empty only for jobs skipped after a panic, so the first
    // error met in submission order is the panic to resume.
    slots
        .into_iter()
        .flatten()
        .map(|outcome| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parse_jobs_clamps_and_ignores_garbage() {
        assert_eq!(parse_jobs(None), None);
        assert_eq!(parse_jobs(Some("8")), Some(8));
        assert_eq!(parse_jobs(Some(" 2 ")), Some(2));
        assert_eq!(parse_jobs(Some("0")), Some(1), "0 clamps to serial");
        assert_eq!(parse_jobs(Some("four")), None, "typos fall through");
        assert_eq!(parse_jobs(Some("")), None);
    }

    #[test]
    fn worker_count_prefers_the_env_override() {
        // Use a variable name no other test touches; set/remove is safe
        // here because the test binary runs its cases in one process.
        std::env::set_var("BSIM_HOST_TEST_JOBS", "3");
        assert_eq!(worker_count("BSIM_HOST_TEST_JOBS"), 3);
        std::env::remove_var("BSIM_HOST_TEST_JOBS");
        assert!(worker_count("BSIM_HOST_TEST_JOBS") >= 1);
    }

    #[test]
    fn serial_path_runs_in_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let jobs: Vec<_> = (0..8)
            .map(|i| move || (i, std::thread::current().id()))
            .collect();
        for (i, (idx, tid)) in run_ordered(jobs, 1).into_iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(tid, caller, "workers <= 1 must not spawn threads");
        }
    }

    #[test]
    fn results_keep_submission_order_with_jobs_far_exceeding_workers() {
        // 64 jobs on 4 workers, with sleep times chosen so late
        // submissions often finish first: order must still be by
        // submission.
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((64 - i) % 7) as u64 * 50,
                    ));
                    i
                }
            })
            .collect();
        assert_eq!(run_ordered(jobs, 4), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn panic_payload_reaches_the_caller_and_stops_later_jobs() {
        let started = AtomicUsize::new(0);
        let mut jobs: Vec<Box<dyn FnOnce() -> u32 + Send + '_>> =
            vec![Box::new(|| std::panic::panic_any(42u32))];
        for _ in 0..63 {
            jobs.push(Box::new(|| {
                started.fetch_add(1, Ordering::SeqCst);
                // Slow enough that the panic lands before the queue drains.
                std::thread::sleep(std::time::Duration::from_millis(2));
                1
            }));
        }
        let err = catch_unwind(AssertUnwindSafe(|| run_ordered(jobs, 2)))
            .expect_err("the panic must reach the caller");
        assert_eq!(err.downcast_ref::<u32>(), Some(&42), "original payload");
        assert!(
            started.load(Ordering::SeqCst) < 63,
            "no job may start after the panic"
        );
    }

    #[test]
    fn jobs_may_borrow_local_state() {
        let mut shards = [vec![1u64, 2], vec![3], vec![4, 5, 6], vec![]];
        let scale = 10u64;
        let jobs: Vec<_> = shards
            .iter_mut()
            .map(|shard| {
                let scale = &scale;
                move || {
                    shard.push(*scale);
                    shard.iter().sum::<u64>()
                }
            })
            .collect();
        assert_eq!(run_ordered(jobs, 3), vec![13, 13, 25, 10]);
        assert_eq!(shards[3], vec![10], "jobs mutate the borrowed state");
    }

    #[test]
    fn empty_batch_is_fine() {
        let jobs: Vec<fn() -> u8> = Vec::new();
        assert!(run_ordered(jobs, 4).is_empty());
    }
}
