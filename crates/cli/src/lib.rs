//! # bosim-cli — the `bosim` command-line driver
//!
//! Opens the simulator to real workloads from the shell: point `bosim`
//! at a ChampSim or raw address trace and a prefetcher stack, and it
//! assembles the same validated [`SimConfig`](bosim::SimConfig) +
//! [`Experiment`](bosim_bench::Experiment) pipeline the figure binaries
//! use, emitting the usual text tables and JSON reports.
//!
//! ```text
//! bosim run --trace mcf.champsim --stack l2:bo --baseline l2:none
//! bosim sweep --corpus corpus.toml
//! bosim serve --corpus corpus.toml --threads 4
//! bosim inspect mcf.champsim
//! bosim gen --bench 462 --uops 200000 --out libq.champsim --format champsim
//! ```
//!
//! `bosim serve` is the long-running form of `sweep`: the grid lives in
//! a persistent job [queue] with a checkpoint journal, runs on the same
//! worker pool as `sweep` ([`bosim::stream_jobs`]), and a killed sweep
//! resumes exactly where it left off ([`serve()`], `docs/SERVE.md`).
//!
//! Everything is dependency-free: argument parsing ([`args`]) and the
//! corpus manifest parser ([`corpus`], a strict TOML subset) are
//! hand-rolled, like `bosim_stats::Json`. The command implementations
//! live in [`commands`] and are exercised directly by the integration
//! tests — the binary in `main.rs` is a thin exit-code wrapper.
//!
//! Trace formats, sampling semantics and a worked walkthrough are
//! documented in `docs/TRACES.md`; the crate map lives in
//! `docs/ARCHITECTURE.md`.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod corpus;
pub mod queue;
pub mod serve;

pub use commands::{dispatch, CliError, USAGE};
pub use serve::{serve, ServeOptions, ServeSummary};

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_stats::Json;

    /// Rule S002: every key a record emits is documented in the report
    /// schema tables.
    #[test]
    fn schema_keys_are_documented() {
        let docs = include_str!("../../../docs/ARCHITECTURE.md");
        let header = queue::JournalHeader {
            schema: String::new(),
            version: 0,
            name: String::new(),
            fingerprint: String::new(),
            jobs: 0,
        };
        let event = serve::StreamEvent {
            event: String::new(),
            done: 0,
            total: 0,
            row: None,
        };
        for record in [header.to_json(), event.to_json()] {
            let Json::Obj(fields) = record else {
                panic!("a record renders as an object");
            };
            for (key, _) in fields {
                assert!(docs.contains(&format!("`{key}`")), "`{key}` undocumented");
            }
        }
    }
}
