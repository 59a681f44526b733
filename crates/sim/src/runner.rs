//! Experiment runner: maps (benchmark × configuration) grids onto worker
//! threads.
//!
//! All entry points return [`RunnerError`] instead of panicking: a
//! panicking simulation (e.g. a stall assertion) is caught on the worker
//! thread and reported with the benchmark and configuration that failed.
//! [`stream_jobs`] is the one worker pool; [`run_jobs`] and `bosim
//! serve` both run on it.

use crate::config::SimConfig;
use crate::system::{SimResult, System};
use bosim_trace::BenchmarkSpec;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// One cell of an experiment grid.
#[derive(Debug, Clone)]
pub struct Job {
    /// The benchmark to run on core 0.
    pub bench: BenchmarkSpec,
    /// The machine configuration.
    pub config: SimConfig,
}

/// A failure while running a job grid.
#[derive(Debug, Clone)]
pub enum RunnerError {
    /// A worker panicked while simulating a job.
    JobFailed {
        /// The benchmark whose simulation failed.
        benchmark: String,
        /// The configuration label of the failing job.
        config: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A job produced no result (internal scheduling error).
    MissingResult {
        /// The benchmark whose result is missing.
        benchmark: String,
    },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::JobFailed {
                benchmark,
                config,
                message,
            } => write!(f, "job {benchmark} [{config}] panicked: {message}"),
            RunnerError::MissingResult { benchmark } => {
                write!(f, "job {benchmark} produced no result")
            }
        }
    }
}

impl std::error::Error for RunnerError {}

/// Runs one job to completion.
pub fn run_job(job: &Job) -> SimResult {
    System::new(&job.config, &job.bench).run()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the jobs at the `pending` indices of `jobs` on up to `threads`
/// worker threads (scoped std threads, at least one), handing them out
/// in `pending` order, and calls `on_done(index, result)` on the
/// calling thread as each one completes — in completion order. A
/// panicking job arrives as [`RunnerError::JobFailed`] naming it.
///
/// When `on_done` returns `false`, no further job is handed out. Jobs
/// already running finish, but their results are dropped: `on_done` is
/// never called after it asked to stop.
pub fn stream_jobs(
    jobs: &[Job],
    pending: &[usize],
    threads: usize,
    mut on_done: impl FnMut(usize, Result<SimResult, RunnerError>) -> bool,
) {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    #[expect(
        clippy::disallowed_methods,
        reason = "whole-run worker pool: each job is an independent simulation and results are \
                  delivered by job index, so host scheduling cannot reach any SimResult"
    )]
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..threads.max(1).min(pending.len()) {
            let tx = tx.clone();
            let (next, stop) = (&next, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let job = &jobs[i];
                    let res = catch_unwind(AssertUnwindSafe(|| run_job(job))).map_err(|payload| {
                        RunnerError::JobFailed {
                            benchmark: job.bench.name.clone(),
                            config: job.config.label(),
                            message: panic_message(payload),
                        }
                    });
                    if tx.send((i, res)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, res) in rx {
            if !stop.load(Ordering::Relaxed) && !on_done(i, res) {
                stop.store(true, Ordering::Relaxed);
            }
        }
    });
}

/// Runs all jobs on up to `threads` workers ([`stream_jobs`]),
/// preserving input order in the output.
///
/// # Errors
///
/// Returns the first failure in job order — [`RunnerError::JobFailed`]
/// naming the benchmark whose simulation panicked. Every job still
/// runs.
pub fn run_jobs(jobs: &[Job], threads: usize) -> Result<Vec<SimResult>, RunnerError> {
    let mut slots: Vec<Option<Result<SimResult, RunnerError>>> =
        jobs.iter().map(|_| None).collect();
    let all: Vec<usize> = (0..jobs.len()).collect();
    stream_jobs(jobs, &all, threads, |i, res| {
        slots[i] = Some(res);
        true
    });
    slots
        .into_iter()
        .zip(jobs)
        .map(|(slot, job)| {
            slot.unwrap_or_else(|| {
                Err(RunnerError::MissingResult {
                    benchmark: job.bench.name.clone(),
                })
            })
        })
        .collect()
}

/// Default worker-thread count: all available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_trace::suite;

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            warmup_instructions: 5_000,
            measure_instructions: 20_000,
            ..Default::default()
        }
    }

    #[test]
    fn parallel_runner_matches_serial() {
        let jobs: Vec<Job> = ["456", "444"]
            .iter()
            .map(|id| Job {
                bench: suite::benchmark(id).expect("exists"),
                config: tiny_cfg(),
            })
            .collect();
        let serial: Vec<SimResult> = jobs.iter().map(run_job).collect();
        let parallel = run_jobs(&jobs, 2).expect("jobs succeed");
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.cycles, b.cycles, "determinism violated");
            assert_eq!(a.instructions, b.instructions);
        }
    }

    /// Seven short jobs of distinct lengths, alternating two benchmarks,
    /// so no two jobs produce the same result.
    fn short_jobs() -> Vec<Job> {
        (0..7)
            .map(|i| Job {
                bench: suite::benchmark(["456", "444"][i % 2]).expect("exists"),
                config: SimConfig {
                    warmup_instructions: 0,
                    measure_instructions: 2_000 + 100 * i as u64,
                    ..Default::default()
                },
            })
            .collect()
    }

    #[test]
    fn streamed_jobs_reach_the_callback_exactly_once() {
        let jobs = short_jobs();
        let pending = [0, 2, 3, 6];
        for threads in [1, 2, 4] {
            let mut seen = Vec::new();
            stream_jobs(&jobs, &pending, threads, |i, res| {
                assert!(res.is_ok(), "job {i}: {res:?}");
                seen.push(i);
                true
            });
            if threads == 1 {
                assert_eq!(seen, pending, "one worker completes in pending order");
            }
            seen.sort_unstable();
            assert_eq!(seen, pending, "threads {threads}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let jobs = short_jobs();
        let mut seen = Vec::new();
        stream_jobs(&jobs, &[5, 1], 0, |i, res| {
            assert!(res.is_ok(), "job {i}: {res:?}");
            seen.push(i);
            true
        });
        assert_eq!(seen, [5, 1], "one worker completes in pending order");
    }

    #[test]
    fn concurrent_workers_take_disjoint_jobs() {
        // Four workers over every job: each index arrives once, carrying
        // the result of its own job.
        let jobs = short_jobs();
        let serial: Vec<SimResult> = jobs.iter().map(run_job).collect();
        let all: Vec<usize> = (0..jobs.len()).collect();
        let mut got: Vec<Option<SimResult>> = jobs.iter().map(|_| None).collect();
        stream_jobs(&jobs, &all, 4, |i, res| {
            let res = res.unwrap_or_else(|e| panic!("job {i}: {e}"));
            assert!(got[i].replace(res).is_none(), "job {i} delivered twice");
            true
        });
        for (i, (want, got)) in serial.iter().zip(&got).enumerate() {
            let got = got
                .as_ref()
                .unwrap_or_else(|| panic!("job {i} never delivered"));
            assert_eq!(got.benchmark, want.benchmark, "job {i}");
            assert_eq!(got.cycles, want.cycles, "job {i}");
            assert_eq!(got.instructions, want.instructions, "job {i}");
        }
    }

    #[test]
    fn a_callback_returning_false_stops_the_stream() {
        let jobs = short_jobs();
        let pending: Vec<usize> = (0..jobs.len()).collect();
        for k in 1..=3 {
            let mut calls = 0;
            stream_jobs(&jobs, &pending, 1, |_, _| {
                calls += 1;
                calls < k
            });
            assert_eq!(calls, k, "stop after {k}");
        }
    }

    #[test]
    fn worker_panic_names_the_failing_benchmark() {
        // active_cores = 0 trips the System::new assertion; the runner
        // must surface it as an error naming the job, not a panic.
        let mut bad = tiny_cfg();
        bad.active_cores = 0;
        let jobs = vec![
            Job {
                bench: suite::benchmark("456").expect("exists"),
                config: tiny_cfg(),
            },
            Job {
                bench: suite::benchmark("444").expect("exists"),
                config: bad,
            },
        ];
        let err = run_jobs(&jobs, 2).expect_err("bad job must fail");
        match err {
            RunnerError::JobFailed {
                benchmark, message, ..
            } => {
                assert_eq!(benchmark, "444.namd-like");
                assert!(message.contains("active_cores"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
