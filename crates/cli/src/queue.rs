//! The persistent job queue behind `bosim serve`: an append-only,
//! line-oriented JSON journal of completed grid cells.
//!
//! The journal is the sweep's only durable state. Its first line is a
//! [`JournalHeader`] binding the file to one
//! [`ExperimentPlan`] — the plan name, job
//! count and [fingerprint](bosim_bench::ExperimentPlan::fingerprint) —
//! and every following line is one completed
//! [`JobRow`] in completion order. Completion
//! order is *not* meaningful: the final report is assembled from rows
//! keyed by job index, so two journals holding the same row set in any
//! order produce byte-identical reports.
//!
//! Resume semantics ([`Journal::open`]):
//!
//! * a header naming a different plan (name, job count or fingerprint)
//!   is a hard [`QueueError::PlanMismatch`] — grids are never mixed;
//! * duplicate rows for a job keep the first occurrence and are
//!   counted, never double-applied;
//! * rows whose key does not match the plan's key for that index
//!   (stale entries injected by hand or by a corrupted writer) are
//!   skipped and counted, never trusted;
//! * a torn **final** line — the signature of a crash mid-append — is
//!   detected, counted, and truncated away so the next append starts
//!   on a clean boundary. Corruption anywhere *else* is a hard
//!   [`QueueError::Corrupt`]: only the tail can legitimately tear.
//!
//! Nothing here reads a clock: recovery is a pure function of the file
//! bytes and the plan (lint rule D002 holds for this module).

use bosim_bench::{ExperimentPlan, JobRow};
use bosim_stats::Json;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Journal schema identifier (the header's `schema` field).
pub const JOURNAL_SCHEMA: &str = "bosim-serve-journal";

/// Journal format version (the header's `version` field), bumped when
/// the row or its embedded run-summary JSON changes shape but job keys
/// do not.
pub const JOURNAL_VERSION: u64 = 3;

/// The journal's first line: binds the file to one experiment plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Always [`JOURNAL_SCHEMA`].
    pub schema: String,
    /// Always [`JOURNAL_VERSION`].
    pub version: u64,
    /// The experiment id the journal belongs to.
    pub name: String,
    /// The plan fingerprint
    /// ([`ExperimentPlan::fingerprint`]).
    pub fingerprint: String,
    /// Total jobs in the plan's grid.
    pub jobs: u64,
}

impl JournalHeader {
    /// The header for `plan`.
    pub fn of(plan: &ExperimentPlan) -> JournalHeader {
        JournalHeader {
            schema: JOURNAL_SCHEMA.to_string(),
            version: JOURNAL_VERSION,
            name: plan.name().to_string(),
            fingerprint: plan.fingerprint(),
            jobs: plan.jobs().len() as u64,
        }
    }

    /// The compact JSON form written as the journal's first line.
    pub fn to_json(&self) -> Json {
        let JournalHeader {
            schema,
            version,
            name,
            fingerprint,
            jobs,
        } = self;
        Json::obj([
            ("schema", Json::from(schema.as_str())),
            ("version", Json::UInt(*version)),
            ("name", Json::from(name.as_str())),
            ("fingerprint", Json::from(fingerprint.as_str())),
            ("jobs", Json::UInt(*jobs)),
        ])
    }

    fn from_json(doc: &Json) -> Result<JournalHeader, String> {
        let s = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("header is missing string field {key:?}"))
        };
        let u = |key: &str| match doc.get(key) {
            Some(&Json::UInt(v)) => Ok(v),
            Some(&Json::Int(v)) if v >= 0 => Ok(v as u64),
            _ => Err(format!("header is missing integer field {key:?}")),
        };
        Ok(JournalHeader {
            schema: s("schema")?,
            version: u("version")?,
            name: s("name")?,
            fingerprint: s("fingerprint")?,
            jobs: u("jobs")?,
        })
    }
}

/// A failure opening, reading or appending a journal.
#[derive(Debug)]
pub enum QueueError {
    /// I/O failure on the journal file.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The journal belongs to a different plan (name, job count or
    /// fingerprint mismatch) or its header is unreadable.
    PlanMismatch {
        /// Human-readable diagnosis.
        what: String,
    },
    /// A non-final journal line is corrupt. Only the final line may
    /// tear (crash mid-append); damage elsewhere means the file cannot
    /// be trusted.
    Corrupt {
        /// 1-based line number of the damaged line.
        line: usize,
        /// What failed to parse.
        what: String,
    },
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::Io { path, error } => {
                write!(f, "journal {}: {error}", path.display())
            }
            QueueError::PlanMismatch { what } => {
                write!(f, "journal does not match this sweep: {what}")
            }
            QueueError::Corrupt { line, what } => {
                write!(
                    f,
                    "journal line {line} is corrupt ({what}); only the final line may \
                     tear — refusing to resume from a damaged journal"
                )
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// What [`Journal::open`] recovered from an existing journal file.
#[derive(Debug, Default)]
pub struct JournalLoad {
    /// One row per already-completed job, keyed by job index.
    pub rows: BTreeMap<usize, JobRow>,
    /// Duplicate rows dropped (first occurrence kept).
    pub duplicates: u64,
    /// Rows skipped because their key did not match the plan.
    pub stale: u64,
    /// Whether a torn final line was detected and truncated away.
    pub torn_recovered: bool,
}

/// An open journal: resumed state plus an append handle.
///
/// Appends are line-atomic in practice (one `write` + flush per row)
/// and the loader tolerates a torn tail, so a `SIGKILL` at any moment
/// loses at most the row being written — never a previously journaled
/// one.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for `plan`, replaying
    /// any rows a previous run already completed. See the [module
    /// docs](self) for the recovery rules.
    ///
    /// # Errors
    ///
    /// [`QueueError::Io`] on filesystem failures,
    /// [`QueueError::PlanMismatch`] when the file belongs to a
    /// different plan, [`QueueError::Corrupt`] on non-tail damage.
    pub fn open(path: &Path, plan: &ExperimentPlan) -> Result<(Journal, JournalLoad), QueueError> {
        let io = |error: std::io::Error| QueueError::Io {
            path: path.to_path_buf(),
            error,
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(io)?;
            }
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io(e)),
        };

        let mut load = JournalLoad::default();
        let mut keep_bytes = bytes.len();

        if bytes.is_empty() {
            let mut file = std::fs::File::options()
                .create(true)
                .append(true)
                .open(path)
                .map_err(io)?;
            let header = JournalHeader::of(plan).to_json().to_string();
            file.write_all(header.as_bytes()).map_err(io)?;
            file.write_all(b"\n").map_err(io)?;
            file.flush().map_err(io)?;
            return Ok((
                Journal {
                    path: path.to_path_buf(),
                    file,
                },
                load,
            ));
        }

        // Split into (start_offset, line) records; a missing trailing
        // newline marks the final record as suspect by construction.
        let mut lines: Vec<(usize, &[u8])> = Vec::new();
        let mut start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                lines.push((start, &bytes[start..i]));
                start = i + 1;
            }
        }
        let unterminated = start < bytes.len();
        if unterminated {
            lines.push((start, &bytes[start..]));
        }

        let n = lines.len();
        let mut parsed: Vec<(usize, Json)> = Vec::new();
        for (idx, &(off, line)) in lines.iter().enumerate() {
            let last = idx + 1 == n;
            let text = std::str::from_utf8(line).ok();
            match text.and_then(|t| Json::parse(t).ok()) {
                Some(doc) => parsed.push((off, doc)),
                None if last => {
                    // Torn tail: truncate it away below.
                    load.torn_recovered = true;
                    keep_bytes = off;
                }
                None => {
                    return Err(QueueError::Corrupt {
                        line: idx + 1,
                        what: "not valid JSON".to_string(),
                    })
                }
            }
        }

        let Some((_, header_doc)) = parsed.first() else {
            return Err(QueueError::PlanMismatch {
                what: "file holds no readable header line".to_string(),
            });
        };
        let header = JournalHeader::from_json(header_doc)
            .map_err(|what| QueueError::PlanMismatch { what })?;
        let want = JournalHeader::of(plan);
        if header != want {
            return Err(QueueError::PlanMismatch {
                what: format!(
                    "header {:?} vs this plan {:?}",
                    header.to_json().to_string(),
                    want.to_json().to_string()
                ),
            });
        }

        for (idx, (off, doc)) in parsed.iter().enumerate().skip(1) {
            let last = idx + 1 == parsed.len() && keep_bytes == bytes.len();
            match JobRow::from_json(doc) {
                Ok(row) => {
                    let stale = row.job >= plan.jobs().len() || plan.job_key(row.job) != row.key;
                    if stale {
                        load.stale += 1;
                    } else if let Entry::Vacant(slot) = load.rows.entry(row.job) {
                        slot.insert(row);
                    } else {
                        load.duplicates += 1;
                    }
                }
                Err(_) if last => {
                    // Valid JSON but not a valid row, in final
                    // position: a tear can end exactly on a brace.
                    load.torn_recovered = true;
                    keep_bytes = *off;
                }
                Err(e) => {
                    return Err(QueueError::Corrupt {
                        line: idx + 1,
                        what: e.to_string(),
                    })
                }
            }
        }

        let file = std::fs::File::options()
            .append(true)
            .open(path)
            .map_err(io)?;
        if keep_bytes < bytes.len() {
            file.set_len(keep_bytes as u64).map_err(io)?;
        }
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
            },
            load,
        ))
    }

    /// Appends one completed row and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// [`QueueError::Io`] on write failures.
    pub fn append(&mut self, row: &JobRow) -> Result<(), QueueError> {
        let mut line = row.to_json().to_string();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|error| QueueError::Io {
                path: self.path.clone(),
                error,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim::SimConfig;
    use bosim_bench::Experiment;
    use bosim_types::SplitMix64;

    fn plan(n_bench: usize) -> ExperimentPlan {
        let ids: Vec<&str> = ["456", "444", "462", "429", "433"][..n_bench].to_vec();
        Experiment::new("queue_test", "queue test")
            .benchmark_ids(&ids)
            .arm("base", SimConfig::default())
            .arm(
                "bo",
                SimConfig::default().with_prefetcher(bosim::prefetchers::bo_default()),
            )
            .plan()
            .unwrap()
    }

    fn fake_row(plan: &ExperimentPlan, job: usize, salt: f64) -> JobRow {
        JobRow {
            job,
            key: plan.job_key(job).to_string(),
            summary: Json::obj([
                ("ipc", Json::Num(1.0 + salt)),
                ("dram_per_ki", Json::Num(2.0 + salt)),
            ]),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bosim_queue_{}_{name}", std::process::id()))
    }

    #[test]
    fn fresh_journal_writes_header_and_replays_empty() {
        let p = plan(2);
        let path = tmp("fresh.jsonl");
        let _ = std::fs::remove_file(&path);
        let (_, load) = Journal::open(&path, &p).unwrap();
        assert!(load.rows.is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with("{\"schema\":\"bosim-serve-journal\""),
            "{text}"
        );
        // Reopening the untouched journal is a no-op resume.
        let (_, load) = Journal::open(&path, &p).unwrap();
        assert!(load.rows.is_empty());
        assert!(!load.torn_recovered);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn random_interleavings_replay_to_the_same_row_set() {
        // Property: whatever completion order (thread count,
        // scheduling) produced the journal, and whatever
        // duplicates a retried writer appended, replay yields exactly
        // one row per job with first-occurrence content.
        let p = plan(3);
        let n = p.jobs().len();
        let mut rng = SplitMix64::new(0x5eed);
        for trial in 0..20 {
            let path = tmp(&format!("interleave_{trial}.jsonl"));
            let _ = std::fs::remove_file(&path);
            let (mut journal, _) = Journal::open(&path, &p).unwrap();

            // A random permutation (Fisher–Yates) with random repeats.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let mut expected: BTreeMap<usize, JobRow> = BTreeMap::new();
            for &job in &order {
                let first = fake_row(&p, job, (job as f64) / 7.0);
                journal.append(&first).unwrap();
                expected.insert(job, first);
                if rng.next_u64().is_multiple_of(3) {
                    // A duplicate with different content must lose.
                    journal.append(&fake_row(&p, job, 99.0)).unwrap();
                }
            }
            drop(journal);

            let (_, load) = Journal::open(&path, &p).unwrap();
            // Compare serialized forms: a row whose f64 happens to be
            // integral round-trips to Json::UInt (same bytes, different
            // variant), and bytes are what the report is built from.
            let ser = |rows: &BTreeMap<usize, JobRow>| -> BTreeMap<usize, String> {
                rows.iter()
                    .map(|(&j, r)| (j, r.to_json().to_string()))
                    .collect()
            };
            assert_eq!(ser(&load.rows), ser(&expected), "trial {trial}");
            assert_eq!(load.stale, 0);
            assert!(!load.torn_recovered);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn stale_rows_are_skipped_not_trusted() {
        let p = plan(2);
        let path = tmp("stale.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path, &p).unwrap();
        journal.append(&fake_row(&p, 0, 0.0)).unwrap();
        // A row with a wrong key (say, from a corrupted writer).
        let mut bad = fake_row(&p, 1, 0.0);
        bad.key = "462#9|0000000000000000".to_string();
        journal.append(&bad).unwrap();
        // And one whose index is out of range entirely.
        let mut wild = fake_row(&p, 0, 0.0);
        wild.job = 999;
        journal.append(&wild).unwrap();
        drop(journal);

        let (_, load) = Journal::open(&path, &p).unwrap();
        assert_eq!(load.rows.len(), 1);
        assert_eq!(load.stale, 2);
        assert!(load.rows.contains_key(&0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_recovered_and_truncated() {
        let p = plan(2);
        for cut in [1, 5, 17] {
            let path = tmp(&format!("torn_{cut}.jsonl"));
            let _ = std::fs::remove_file(&path);
            let (mut journal, _) = Journal::open(&path, &p).unwrap();
            journal.append(&fake_row(&p, 0, 0.0)).unwrap();
            journal.append(&fake_row(&p, 1, 0.5)).unwrap();
            drop(journal);

            // Simulate a crash mid-append: a trailing partial line.
            let intact = std::fs::read(&path).unwrap();
            let mut torn = intact.clone();
            let full_line = fake_row(&p, 2, 0.25).to_json().to_string();
            torn.extend_from_slice(&full_line.as_bytes()[..cut.min(full_line.len())]);
            std::fs::write(&path, &torn).unwrap();

            let (mut journal, load) = Journal::open(&path, &p).unwrap();
            assert!(load.torn_recovered, "cut {cut}: tear must be surfaced");
            assert_eq!(load.rows.len(), 2);
            // The tail was truncated away, so the next append starts on
            // a clean line boundary.
            journal.append(&fake_row(&p, 2, 0.25)).unwrap();
            drop(journal);
            let (_, load) = Journal::open(&path, &p).unwrap();
            assert!(!load.torn_recovered);
            assert_eq!(load.rows.len(), 3);
            assert_eq!(
                std::fs::read(&path).unwrap().len(),
                intact.len() + full_line.len() + 1
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let p = plan(2);
        let path = tmp("midfile.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path, &p).unwrap();
        journal.append(&fake_row(&p, 0, 0.0)).unwrap();
        drop(journal);
        // Damage the *first* row, then append a valid-looking tail: the
        // damage is no longer final, so it must not be "recovered".
        let mut text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"job\":0"), "{text}");
        text = text.replace("\"job\":0", "\"job\":");
        text.push_str(&fake_row(&p, 1, 0.5).to_json().to_string());
        text.push('\n');
        std::fs::write(&path, &text).unwrap();
        match Journal::open(&path, &p) {
            Err(QueueError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_one_journals_are_refused() {
        let p = plan(2);
        let path = tmp("version1.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path, &p).unwrap();
        journal.append(&fake_row(&p, 0, 0.0)).unwrap();
        drop(journal);
        // Any older version is refused; the previous one stands in.
        let text = std::fs::read_to_string(&path).unwrap();
        let old = text.replacen("\"version\":3", "\"version\":2", 1);
        assert_ne!(old, text);
        std::fs::write(&path, old).unwrap();
        match Journal::open(&path, &p) {
            Err(QueueError::PlanMismatch { .. }) => {}
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_plans_are_rejected() {
        let p2 = plan(2);
        let p3 = plan(3);
        let path = tmp("mismatch.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path, &p2).unwrap();
        journal.append(&fake_row(&p2, 0, 0.0)).unwrap();
        drop(journal);
        match Journal::open(&path, &p3) {
            Err(QueueError::PlanMismatch { .. }) => {}
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
