//! Job rows: the run record an [`ExperimentPlan`] assembles its report
//! from.
//!
//! Every completed job becomes a [`JobRow`]: its index, its
//! restart-stable key ([`ExperimentPlan::job_key`]) and its
//! [`RunSummary`] JSON. [`ExperimentPlan::assemble`] builds the report
//! from rows alone, so rows fresh from `Experiment::run` and rows that
//! `bosim serve` reads back from its journal after a crash give the same
//! bytes: the report never depends on completion order or on which
//! process produced a row. The key hashes the benchmark and the full
//! configuration, so a journal written for another grid is not replayed
//! (serve also checks [`ExperimentPlan::fingerprint`]).
//!
//! Determinism note: rows carry **no wall-clock timestamps**. Rule D002
//! (clippy's `disallowed_methods`) keeps this module clock-free.

use crate::experiment::{ExperimentPlan, Metric};
use crate::report::RunSummary;
use bosim::SimResult;
use bosim_stats::Json;
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
    /// The full [`RunSummary`] JSON subtree, embedded verbatim in the
    /// assembled report, which reads its [`Metric`] values from it.
    pub summary: Json,
}

/// A journal row that does not decode.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// A row line was structurally wrong (missing/ill-typed field).
    BadRow {
        /// What was missing or mistyped.
        what: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadRow { what } => write!(f, "bad journal row: {what}"),
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
        let JobRow { job, key, summary } = self;
        Json::obj([
            ("job", Json::UInt(*job as u64)),
            ("key", Json::from(key.as_str())),
            ("summary", summary.clone()),
        ])
    }

    /// Decodes one journal line's JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::BadRow`] naming the first missing or
    /// ill-typed field, including a `summary` without a numeric `ipc`
    /// or `dram_per_ki`.
    pub fn from_json(doc: &Json) -> Result<JobRow, JournalError> {
        let bad = |what: String| JournalError::BadRow { what };
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| bad(format!("missing field {key:?}")))
        };
        let job = as_u64(field("job")?)
            .ok_or_else(|| bad("field \"job\" is not a non-negative integer".to_string()))?
            as usize;
        let key = field("key")?
            .as_str()
            .ok_or_else(|| bad("field \"key\" is not a string".to_string()))?
            .to_string();
        let summary = field("summary")?;
        for key in [Metric::Ipc, Metric::DramPerKi].map(Metric::key) {
            if summary.get(key).and_then(Json::as_f64).is_none() {
                return Err(bad(format!("summary field {key:?} is not a number")));
            }
        }
        Ok(JobRow {
            job,
            key,
            summary: summary.clone(),
        })
    }
}

impl ExperimentPlan {
    /// Distils a finished job into its row.
    ///
    /// # Panics
    ///
    /// Panics when `job` is out of range.
    pub fn row(&self, job: usize, result: &SimResult) -> JobRow {
        JobRow {
            job,
            key: self.job_key(job).to_string(),
            summary: RunSummary::from(result).to_json(),
        }
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
            summary: Json::obj([
                ("ipc", Json::Num(1.234567890123)),
                ("dram_per_ki", Json::Num(0.1 + 0.2)), // deliberately non-representable
            ]),
        };
        let text = row.to_json().to_string();
        let back = JobRow::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, row);
        // And re-emission is byte-identical (shortest-repr idempotence).
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn bad_rows_name_the_field() {
        for (line, field) in [
            (r#"{"job":1,"key":"k"}"#, "summary"),
            (r#"{"job":-1}"#, "job"),
            (r#"{"job":0,"key":7,"summary":{}}"#, "key"),
            (
                r#"{"job":0,"key":"k","summary":{"ipc":"fast","dram_per_ki":1}}"#,
                "ipc",
            ),
            (
                r#"{"job":0,"key":"k","summary":{"ipc":1.5}}"#,
                "dram_per_ki",
            ),
        ] {
            let err = JobRow::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(err.to_string().contains(field), "{line}: {err}");
        }
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
        let rows: Vec<JobRow> = run_jobs(plan.jobs(), 2)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(job, result)| plan.row(job, result))
            .collect();
        let direct = plan.assemble(&rows).to_json().to_pretty();

        // Push the rows through journal-line text and assemble from the
        // parsed rows: the document must not drift by a byte.
        let parsed: Vec<JobRow> = rows
            .iter()
            .map(|row| {
                let line = row.to_json().to_string();
                JobRow::from_json(&Json::parse(&line).unwrap()).unwrap()
            })
            .collect();
        assert_eq!(plan.assemble(&parsed).to_json().to_pretty(), direct);
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
