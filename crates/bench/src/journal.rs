//! Journaled grid cells: the resumable execution mode of an
//! [`ExperimentPlan`].
//!
//! A long-running sweep (`bosim serve`) does not hold its grid in
//! memory until the end: every completed job becomes a [`JobRow`] —
//! the benchmark/config labels, both metric values, and the full
//! [`RunSummary`] JSON subtree — appended to an on-disk journal as soon
//! as it finishes. After a crash, the rows already journaled are loaded
//! back and only the missing jobs run; the final report is assembled
//! *from rows* in both the interrupted and the uninterrupted case
//! ([`ExperimentPlan::report_json_from_rows`]), which is what makes the
//! resumed report byte-identical to an uninterrupted one: the report
//! depends only on the row set, never on completion order or on which
//! process produced a row.
//!
//! Rows are keyed by [`ExperimentPlan::job_key`] — a restart-stable
//! identity hashing the benchmark and the full configuration — so a
//! journal written against a different corpus or arm set cannot be
//! silently replayed (the serving layer also checks
//! [`ExperimentPlan::fingerprint`] for the whole grid).
//!
//! Determinism note: rows carry **no wall-clock timestamps**. Ordering
//! is by job index at assembly time, and the journal's only sequencing
//! is file append order, which the report never depends on. Rule D002
//! (clippy's `disallowed_methods`) keeps this module clock-free.

use crate::experiment::ExperimentPlan;
use crate::report::{arm_gm, RunSummary};
use bosim::SimResult;
use bosim_stats::Json;
use std::collections::BTreeMap;
use std::fmt;

/// One journaled grid cell: everything the report needs from one
/// completed job, in a form that survives a JSON round trip exactly
/// (f64s are emitted in Rust's shortest round-trip form).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// The job's index in [`ExperimentPlan::jobs`] order.
    pub job: usize,
    /// The restart-stable job key ([`ExperimentPlan::job_key`]).
    pub key: String,
    /// Benchmark name (e.g. `"462.libquantum-like"`).
    pub benchmark: String,
    /// Configuration label (e.g. `"4KB/1-core/l2:BO"`).
    pub config: String,
    /// Instructions per cycle on core 0 — the
    /// [`Metric::Ipc`](crate::Metric::Ipc) value.
    pub ipc: f64,
    /// DRAM accesses per kilo-instruction — the
    /// [`Metric::DramPerKi`](crate::Metric::DramPerKi) value.
    pub dram_per_ki: f64,
    /// The full [`RunSummary`] JSON subtree, embedded verbatim in the
    /// assembled report.
    pub summary: Json,
}

/// A failure while decoding a journal row or assembling a report from
/// rows.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// A row line was structurally wrong (missing/ill-typed field).
    BadRow {
        /// What was missing or mistyped.
        what: String,
    },
    /// Report assembly found no row for a planned job.
    MissingRow {
        /// The job index with no row.
        job: usize,
        /// Its stable key.
        key: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadRow { what } => write!(f, "bad journal row: {what}"),
            JournalError::MissingRow { job, key } => {
                write!(f, "no journal row for job {job} ({key})")
            }
        }
    }
}

impl std::error::Error for JournalError {}

fn as_u64(j: &Json) -> Option<u64> {
    match *j {
        Json::UInt(u) => Some(u),
        Json::Int(i) => u64::try_from(i).ok(),
        _ => None,
    }
}

impl JobRow {
    /// The compact JSON form written as one journal line.
    pub fn to_json(&self) -> Json {
        let JobRow {
            job,
            key,
            benchmark,
            config,
            ipc,
            dram_per_ki,
            summary,
        } = self;
        Json::obj([
            ("job", Json::UInt(*job as u64)),
            ("key", Json::from(key.as_str())),
            ("benchmark", Json::from(benchmark.as_str())),
            ("config", Json::from(config.as_str())),
            ("ipc", Json::from(*ipc)),
            ("dram_per_ki", Json::from(*dram_per_ki)),
            ("summary", summary.clone()),
        ])
    }

    /// Decodes one journal line's JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::BadRow`] naming the first missing or
    /// ill-typed field.
    pub fn from_json(doc: &Json) -> Result<JobRow, JournalError> {
        let field = |key: &str| {
            doc.get(key).ok_or_else(|| JournalError::BadRow {
                what: format!("missing field {key:?}"),
            })
        };
        let str_field = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| JournalError::BadRow {
                    what: format!("field {key:?} is not a string"),
                })
        };
        let num_field = |key: &str| {
            field(key)?.as_f64().ok_or_else(|| JournalError::BadRow {
                what: format!("field {key:?} is not a number"),
            })
        };
        let job = as_u64(field("job")?).ok_or_else(|| JournalError::BadRow {
            what: "field \"job\" is not a non-negative integer".to_string(),
        })? as usize;
        Ok(JobRow {
            job,
            key: str_field("key")?,
            benchmark: str_field("benchmark")?,
            config: str_field("config")?,
            ipc: num_field("ipc")?,
            dram_per_ki: num_field("dram_per_ki")?,
            summary: field("summary")?.clone(),
        })
    }
}

impl ExperimentPlan {
    /// Distils a finished job into its journal row.
    ///
    /// # Panics
    ///
    /// Panics when `job` is out of range.
    pub fn row(&self, job: usize, result: &SimResult) -> JobRow {
        JobRow {
            job,
            key: self.job_key(job).to_string(),
            benchmark: result.benchmark.clone(),
            config: result.config.clone(),
            ipc: result.ipc(),
            dram_per_ki: result.dram_accesses_per_ki(),
            summary: RunSummary::from(result).to_json(),
        }
    }

    /// Assembles the report JSON document from one row per planned job.
    ///
    /// The output is byte-identical to
    /// `self.assemble(results).to_json()` when the rows were distilled
    /// from `results` via [`row`](Self::row) — including rows that went
    /// through a journal round trip — because every number either
    /// round-trips exactly through JSON or is recomputed here from
    /// round-tripped inputs with the same float operations.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::MissingRow`] when a planned job has no
    /// row.
    pub fn report_json_from_rows(
        &self,
        rows: &BTreeMap<usize, JobRow>,
    ) -> Result<Json, JournalError> {
        let get = |job: usize| {
            rows.get(&job).ok_or_else(|| JournalError::MissingRow {
                job,
                key: self.job_key(job).to_string(),
            })
        };
        let mut arms = Vec::with_capacity(self.arms.len());
        for (arm, row) in self.arms.iter().zip(&self.lookup) {
            let mut values = Vec::with_capacity(row.len());
            for &(s, b) in row {
                let sr = get(s)?;
                let subject = self.metric.row_value(sr.ipc, sr.dram_per_ki);
                values.push(match b {
                    Some(b) => {
                        let br = get(b)?;
                        subject / self.metric.row_value(br.ipc, br.dram_per_ki)
                    }
                    None => subject,
                });
            }
            let gm = arm_gm(&values, self.with_gm);
            let mut runs = Vec::with_capacity(row.len());
            for &(s, _) in row {
                runs.push(get(s)?.summary.clone());
            }
            arms.push(Json::obj([
                ("series", Json::from(arm.series.as_str())),
                ("group", Json::from(arm.group.as_deref().map(Json::from))),
                ("config", Json::from(arm.config.as_str())),
                (
                    "baseline",
                    Json::from(arm.baseline.as_deref().map(Json::from)),
                ),
                ("gm", Json::from(gm)),
                ("values", Json::arr(values.into_iter().map(Json::from))),
                ("runs", Json::arr(runs)),
            ]));
        }
        Ok(Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("title", Json::from(self.title.as_str())),
            ("metric", Json::from(self.metric.label(self.paired))),
            (
                "benchmarks",
                Json::arr(self.benchmarks.iter().map(|b| Json::from(b.short.as_str()))),
            ),
            ("arms", Json::arr(arms)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;
    use bosim::{run_jobs, SimConfig};

    fn tiny(cfg: SimConfig) -> SimConfig {
        SimConfig {
            warmup_instructions: 2_000,
            measure_instructions: 10_000,
            ..cfg
        }
    }

    #[test]
    fn job_rows_round_trip_through_json_text() {
        let row = JobRow {
            job: 3,
            key: "456#0|00000000deadbeef".into(),
            benchmark: "456.hmmer-like".into(),
            config: "4KB/1-core/next-line".into(),
            ipc: 1.234567890123,
            dram_per_ki: 0.1 + 0.2, // deliberately non-representable
            summary: Json::obj([("ipc", Json::Num(1.234567890123))]),
        };
        let text = row.to_json().to_string();
        let back = JobRow::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, row);
        // And re-emission is byte-identical (shortest-repr idempotence).
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn bad_rows_name_the_field() {
        let doc = Json::parse(r#"{"job":1,"key":"k"}"#).unwrap();
        let err = JobRow::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("benchmark"), "{err}");
        let doc = Json::parse(r#"{"job":-1}"#).unwrap();
        let err = JobRow::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("job"), "{err}");
        let doc = Json::parse(r#"{"job":0,"key":"k","benchmark":"b","config":"c","ipc":"fast"}"#)
            .unwrap();
        let err = JobRow::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("ipc"), "{err}");
    }

    #[test]
    fn rows_reassemble_the_report_byte_identically() {
        let base = tiny(SimConfig::default());
        let bo = base
            .clone()
            .with_prefetcher(bosim::prefetchers::bo_default());
        let exp = Experiment::new("journal_rt", "journal round trip")
            .benchmark_ids(&["456", "444"])
            .arm_vs("BO", bo, base.clone())
            .arm_vs("self", base.clone(), base);
        let plan = exp.plan().unwrap();
        let results = run_jobs(plan.jobs(), 2).unwrap();
        let direct = plan.assemble(&results).to_json().to_pretty();

        // Distil rows, push them through journal-line text, and
        // assemble from the parsed rows — the document must not drift
        // by a byte.
        let mut rows = BTreeMap::new();
        for (i, r) in results.iter().enumerate() {
            let line = plan.row(i, r).to_json().to_string();
            let back = JobRow::from_json(&Json::parse(&line).unwrap()).unwrap();
            rows.insert(back.job, back);
        }
        let from_rows = plan.report_json_from_rows(&rows).unwrap().to_pretty();
        assert_eq!(from_rows, direct);
    }

    #[test]
    fn missing_rows_are_reported_with_their_key() {
        let exp = Experiment::new("journal_miss", "missing rows")
            .benchmark_ids(&["456"])
            .arm("base", tiny(SimConfig::default()));
        let plan = exp.plan().unwrap();
        let err = plan.report_json_from_rows(&BTreeMap::new()).unwrap_err();
        match err {
            JournalError::MissingRow { job, ref key } => {
                assert_eq!(job, 0);
                assert_eq!(key, plan.job_key(0));
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn job_keys_and_fingerprints_are_restart_stable() {
        let mk = || {
            Experiment::new("stable", "stable")
                .benchmark_ids(&["456", "444"])
                .arm_vs(
                    "BO",
                    tiny(SimConfig::default()).with_prefetcher(bosim::prefetchers::bo_default()),
                    tiny(SimConfig::default()),
                )
        };
        let a = mk().plan().unwrap();
        let b = mk().plan().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        for i in 0..a.jobs().len() {
            assert_eq!(a.job_key(i), b.job_key(i));
        }
        // A different grid fingerprints differently.
        let c = Experiment::new("stable", "stable")
            .benchmark_ids(&["456"])
            .arm("raw", tiny(SimConfig::default()))
            .plan()
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
