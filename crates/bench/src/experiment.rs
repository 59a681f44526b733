//! The declarative experiment grid.
//!
//! Every figure and table of the paper's evaluation is a grid of
//! (benchmark × machine configuration) simulations summarised against a
//! baseline. [`Experiment`] expresses that declaratively: name the
//! benchmarks, add *arms* (a labelled subject configuration, optionally
//! paired with a baseline configuration), pick a metric and a table
//! layout, and call [`run`](Experiment::run):
//!
//! ```no_run
//! use bosim::{prefetchers, SimConfig};
//! use bosim_bench::{Experiment, Layout};
//! use bosim_types::PageSize;
//!
//! let base = SimConfig::baseline(PageSize::M4, 1);
//! let report = Experiment::new("bo_vs_nextline", "BO speedup, 4MB pages")
//!     .benchmark_ids(&["433", "462"])
//!     .arm_vs("BO", base.clone().with_prefetcher(prefetchers::bo_default()), base)
//!     .run()
//!     .expect("grid runs");
//! report.emit(); // text tables + target/reports/bo_vs_nextline.json
//! ```
//!
//! The harness owns the details the 18 figure binaries used to
//! duplicate: job deduplication (shared baselines run once), worker
//! threading, speedup pairing by benchmark, geometric-mean summaries and
//! structured [`Report`] output.

use crate::journal::JobRow;
use crate::report::{arm_gm, ArmReport, Layout, Report};
use crate::{cfg_label, selected_benchmarks, six_baselines, threads};
use bosim::{run_jobs, ConfigError, Job, RunnerError, SimConfig};
use bosim_stats::Json;
use bosim_trace::{suite, BenchmarkSpec};
use bosim_types::{fnv64, PageSize};
use std::collections::BTreeMap;
use std::fmt;

/// The per-run quantity an experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Instructions per cycle on core 0; arms with a baseline report the
    /// IPC ratio (speedup).
    #[default]
    Ipc,
    /// DRAM accesses per kilo-instruction (Figure 13); arms with a
    /// baseline report the traffic ratio.
    DramPerKi,
}

impl Metric {
    /// The run-summary key holding this metric's per-run value.
    pub(crate) fn key(self) -> &'static str {
        match self {
            Metric::Ipc => "ipc",
            Metric::DramPerKi => "dram_per_ki",
        }
    }

    /// The metric's value in a job row (NaN, printed `null`, only for a
    /// hand-built row: [`JobRow::from_json`] checks both metrics).
    fn value(self, row: &JobRow) -> f64 {
        row.summary
            .get(self.key())
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn label(self, with_baseline: bool) -> &'static str {
        match (self, with_baseline) {
            (Metric::Ipc, true) => "speedup",
            (Metric::DramPerKi, true) => "dram_per_ki_ratio",
            (metric, false) => metric.key(),
        }
    }
}

/// One arm of an experiment before it runs.
#[derive(Debug, Clone)]
struct ArmSpec {
    series: String,
    group: Option<String>,
    subject: SimConfig,
    baseline: Option<SimConfig>,
}

/// A failure while assembling or running an experiment.
#[derive(Debug)]
pub enum ExperimentError {
    /// The experiment had no arms.
    NoArms,
    /// Some arms had baselines and some did not — the report's metric
    /// would mislabel the raw arms as ratios.
    MixedBaselines {
        /// A series label with a baseline.
        with: String,
        /// A series label without one.
        without: String,
    },
    /// An arm's configuration failed validation.
    InvalidConfig {
        /// The offending arm's series label.
        series: String,
        /// The violated constraint.
        error: ConfigError,
    },
    /// The job grid failed to run.
    Runner(RunnerError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::NoArms => write!(f, "experiment has no arms"),
            ExperimentError::MixedBaselines { with, without } => write!(
                f,
                "arm {with:?} has a baseline but arm {without:?} does not: \
                 an experiment reports either raw metrics or ratios, not both"
            ),
            ExperimentError::InvalidConfig { series, error } => {
                write!(f, "arm {series:?} has an invalid configuration: {error}")
            }
            ExperimentError::Runner(e) => write!(f, "experiment grid failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::InvalidConfig { error, .. } => Some(error),
            ExperimentError::Runner(e) => Some(e),
            ExperimentError::NoArms | ExperimentError::MixedBaselines { .. } => None,
        }
    }
}

impl From<RunnerError> for ExperimentError {
    fn from(e: RunnerError) -> Self {
        ExperimentError::Runner(e)
    }
}

/// A declarative (benchmark × configuration) grid (see the
/// [crate docs](crate)).
///
/// Benchmarks may be synthetic suite specs or file-backed external
/// traces ([`BenchmarkSpec::from_trace`]) — the grid machinery (dedup,
/// threading, speedup pairing) treats them identically, and per-arm
/// trace sampling rides in
/// [`SimConfig::sample`](bosim::SimConfig::sample).
#[derive(Debug, Clone)]
pub struct Experiment {
    name: String,
    title: String,
    benchmarks: Vec<BenchmarkSpec>,
    arms: Vec<ArmSpec>,
    metric: Metric,
    layout: Layout,
    with_gm: bool,
    decimals: usize,
    threads: Option<usize>,
}

impl Experiment {
    /// Creates an empty experiment. `name` is the machine-friendly id
    /// (and JSON file stem); `title` heads the printed tables.
    ///
    /// Defaults: the full benchmark suite (honouring
    /// `BOSIM_BENCHMARKS`), [`Metric::Ipc`], [`Layout::BenchRows`],
    /// geometric-mean summaries on, 3 decimals, `BOSIM_THREADS` workers.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Experiment {
            name: name.into(),
            title: title.into(),
            benchmarks: Vec::new(),
            arms: Vec::new(),
            metric: Metric::Ipc,
            layout: Layout::BenchRows,
            with_gm: true,
            decimals: 3,
            threads: None,
        }
    }

    /// Replaces the benchmark list.
    pub fn benchmarks(mut self, benchmarks: Vec<BenchmarkSpec>) -> Self {
        self.benchmarks = benchmarks;
        self
    }

    /// Replaces the benchmark list by suite short-ids.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id — harness binaries treat that as a usage
    /// error.
    #[expect(
        clippy::panic,
        reason = "harness entry point; env-var benchmark lists fail fast by design"
    )]
    pub fn benchmark_ids(self, ids: &[&str]) -> Self {
        self.benchmarks(
            ids.iter()
                .map(|id| {
                    suite::benchmark(id).unwrap_or_else(|| panic!("unknown benchmark id {id:?}"))
                })
                .collect(),
        )
    }

    /// Adds an arm reporting the raw metric of `subject`.
    pub fn arm(mut self, series: impl Into<String>, subject: SimConfig) -> Self {
        self.arms.push(ArmSpec {
            series: series.into(),
            group: None,
            subject,
            baseline: None,
        });
        self
    }

    /// Adds an arm reporting `subject` relative to `baseline`
    /// (per-benchmark metric ratios, paired by benchmark).
    pub fn arm_vs(
        mut self,
        series: impl Into<String>,
        subject: SimConfig,
        baseline: SimConfig,
    ) -> Self {
        self.arms.push(ArmSpec {
            series: series.into(),
            group: None,
            subject,
            baseline: Some(baseline),
        });
        self
    }

    /// Like [`arm_vs`](Self::arm_vs) with a group label, for
    /// [`Layout::GmPivot`] tables (group = row, series = column).
    pub fn arm_grouped(
        mut self,
        group: impl Into<String>,
        series: impl Into<String>,
        subject: SimConfig,
        baseline: SimConfig,
    ) -> Self {
        self.arms.push(ArmSpec {
            series: series.into(),
            group: Some(group.into()),
            subject,
            baseline: Some(baseline),
        });
        self
    }

    /// Sets the reported metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the table layout.
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Enables or disables geometric-mean summaries.
    pub fn gm(mut self, with_gm: bool) -> Self {
        self.with_gm = with_gm;
        self
    }

    /// Sets table decimal places.
    pub fn decimals(mut self, decimals: usize) -> Self {
        self.decimals = decimals;
        self
    }

    /// Overrides the worker-thread count (default: `BOSIM_THREADS` or
    /// all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Resolves the experiment into an [`ExperimentPlan`]: the
    /// deduplicated job list plus everything needed to assemble the
    /// [`Report`] once results exist. `run` is `plan` + execute +
    /// [`row`](ExperimentPlan::row) per result +
    /// [`assemble`](ExperimentPlan::assemble); a resumable sweep
    /// (`bosim serve`) executes the same plan job by job, journalling
    /// each row, and assembles the same way.
    ///
    /// # Errors
    ///
    /// Returns an [`ExperimentError`] when the experiment is empty,
    /// mixes baseline-paired and raw arms, or an arm's configuration is
    /// invalid.
    pub fn plan(&self) -> Result<ExperimentPlan, ExperimentError> {
        if self.arms.is_empty() {
            return Err(ExperimentError::NoArms);
        }
        // The report carries one metric label: either every arm is a
        // ratio against its baseline, or every arm is raw.
        if let (Some(with), Some(without)) = (
            self.arms.iter().find(|a| a.baseline.is_some()),
            self.arms.iter().find(|a| a.baseline.is_none()),
        ) {
            return Err(ExperimentError::MixedBaselines {
                with: with.series.clone(),
                without: without.series.clone(),
            });
        }
        for arm in &self.arms {
            for cfg in std::iter::once(&arm.subject).chain(arm.baseline.as_ref()) {
                cfg.validate()
                    .map_err(|error| ExperimentError::InvalidConfig {
                        series: arm.series.clone(),
                        error,
                    })?;
            }
        }
        let benchmarks = if self.benchmarks.is_empty() {
            selected_benchmarks()
        } else {
            self.benchmarks.clone()
        };

        // Deduplicate identical (benchmark, configuration) cells — shared
        // baselines across arms simulate once. The configuration identity
        // is its full Debug rendering (specs carry their parameters).
        let mut jobs: Vec<Job> = Vec::new();
        let mut job_keys: Vec<String> = Vec::new();
        let mut index: BTreeMap<(usize, String), usize> = BTreeMap::new();
        let mut cell = |jobs: &mut Vec<Job>,
                        keys: &mut Vec<String>,
                        bi: usize,
                        bench: &BenchmarkSpec,
                        cfg: &SimConfig| {
            let debug = format!("{cfg:?}");
            let key = (bi, debug);
            *index.entry(key).or_insert_with_key(|(bi, debug)| {
                // The journal key must survive a process restart, so it
                // hashes the full configuration identity instead of
                // relying on in-process indices alone.
                keys.push(format!(
                    "{}#{bi}|{:016x}",
                    bench.short,
                    fnv64(debug.as_bytes())
                ));
                jobs.push(Job {
                    bench: bench.clone(),
                    config: cfg.clone(),
                });
                jobs.len() - 1
            })
        };
        // (arm, benchmark) -> (subject job, baseline job) indices.
        let mut lookup: Vec<Vec<(usize, Option<usize>)>> = Vec::with_capacity(self.arms.len());
        for arm in &self.arms {
            let mut row = Vec::with_capacity(benchmarks.len());
            for (bi, bench) in benchmarks.iter().enumerate() {
                let s = cell(&mut jobs, &mut job_keys, bi, bench, &arm.subject);
                let b = arm
                    .baseline
                    .as_ref()
                    .map(|c| cell(&mut jobs, &mut job_keys, bi, bench, c));
                row.push((s, b));
            }
            lookup.push(row);
        }

        let paired = self.arms.iter().any(|a| a.baseline.is_some());
        Ok(ExperimentPlan {
            name: self.name.clone(),
            title: self.title.clone(),
            metric: self.metric,
            layout: self.layout,
            with_gm: self.with_gm,
            decimals: self.decimals,
            paired,
            benchmarks,
            arms: self
                .arms
                .iter()
                .map(|a| PlannedArm {
                    series: a.series.clone(),
                    group: a.group.clone(),
                    config: a.subject.label(),
                    baseline: a.baseline.as_ref().map(SimConfig::label),
                })
                .collect(),
            jobs,
            job_keys,
            lookup,
        })
    }

    /// Runs the deduplicated grid on the worker pool and assembles the
    /// [`Report`].
    ///
    /// # Errors
    ///
    /// Returns an [`ExperimentError`] when the experiment is empty,
    /// mixes baseline-paired and raw arms, an arm's configuration is
    /// invalid, or a simulation job fails.
    #[expect(
        clippy::disallowed_methods,
        reason = "the harness times its grid for a progress line; the time reaches no result"
    )]
    pub fn run(self) -> Result<Report, ExperimentError> {
        let plan = self.plan()?;
        let threads = self.threads.unwrap_or_else(threads);
        eprintln!(
            "[bosim] {}: {} unique jobs ({} arms x {} benchmarks) on {} threads",
            self.name,
            plan.jobs.len(),
            self.arms.len(),
            plan.benchmarks.len(),
            threads,
        );
        let t0 = std::time::Instant::now();
        let rows: Vec<JobRow> = run_jobs(&plan.jobs, threads)?
            .iter()
            .enumerate()
            .map(|(job, result)| plan.row(job, result))
            .collect();
        eprintln!(
            "[bosim] {}: grid done in {:.1}s",
            self.name,
            t0.elapsed().as_secs_f64(),
        );
        Ok(plan.assemble(&rows))
    }

    /// Runs the experiment and emits the report (tables + JSON file);
    /// exits the process with an error message on failure. The
    /// convenience entry point for the figure binaries.
    pub fn run_and_emit(self) -> Report {
        match self.run() {
            Ok(report) => {
                report.emit();
                report
            }
            Err(e) => {
                eprintln!("[bosim] experiment failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// One arm of a resolved [`ExperimentPlan`]: the labels the report
/// carries, with the configurations already flattened into the job
/// list.
#[derive(Debug, Clone)]
struct PlannedArm {
    series: String,
    group: Option<String>,
    config: String,
    baseline: Option<String>,
}

/// A resolved experiment: the deduplicated job grid plus the metadata
/// needed to assemble the [`Report`] once every job has a result.
///
/// Produced by [`Experiment::plan`]. [`Experiment::run`] executes the
/// whole grid in one process; `bosim serve` executes the same plan one
/// job at a time, journalling each completed cell (see
/// [`journal`](crate::journal)) so a killed sweep resumes without
/// re-running finished work. Both turn each result into its
/// [`JobRow`] and build the report with [`assemble`](Self::assemble).
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    name: String,
    title: String,
    metric: Metric,
    layout: Layout,
    with_gm: bool,
    decimals: usize,
    paired: bool,
    benchmarks: Vec<BenchmarkSpec>,
    arms: Vec<PlannedArm>,
    jobs: Vec<Job>,
    job_keys: Vec<String>,
    /// (arm, benchmark) -> (subject job, baseline job) indices.
    lookup: Vec<Vec<(usize, Option<usize>)>>,
}

impl ExperimentPlan {
    /// The experiment id (the report name and JSON file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The deduplicated job list, in plan order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The benchmark list, in report order.
    pub fn benchmarks(&self) -> &[BenchmarkSpec] {
        &self.benchmarks
    }

    /// The restart-stable identity of job `i`:
    /// `<benchmark>#<bench-index>|<fnv64 of the config Debug form>`.
    /// Two processes planning the same experiment derive the same keys,
    /// which is what lets a resumed sweep trust journal entries written
    /// by a previous run.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range (keys parallel
    /// [`jobs`](Self::jobs)).
    pub fn job_key(&self, i: usize) -> &str {
        &self.job_keys[i]
    }

    /// A fingerprint over the whole plan (name, metric, arms, job
    /// keys). A journal records it so a resume against a *different*
    /// corpus or arm set is rejected instead of silently mixing grids.
    pub fn fingerprint(&self) -> String {
        let mut text = String::new();
        text.push_str(&self.name);
        text.push('\n');
        text.push_str(self.metric.label(self.paired));
        text.push('\n');
        for arm in &self.arms {
            text.push_str(&arm.series);
            text.push('|');
            text.push_str(arm.group.as_deref().unwrap_or(""));
            text.push('|');
            text.push_str(&arm.config);
            text.push('|');
            text.push_str(arm.baseline.as_deref().unwrap_or(""));
            text.push('\n');
        }
        for key in &self.job_keys {
            text.push_str(key);
            text.push('\n');
        }
        format!("{:016x}", fnv64(text.as_bytes()))
    }

    /// Assembles the [`Report`] out of one row per planned job, in job
    /// order ([`jobs`](Self::jobs)). The report depends on the rows
    /// alone, so rows read back from a journal assemble the same bytes
    /// as rows fresh from [`row`](Self::row).
    ///
    /// # Panics
    ///
    /// Panics when `rows` is shorter than the job list.
    pub fn assemble(&self, rows: &[JobRow]) -> Report {
        let arms = self
            .arms
            .iter()
            .zip(&self.lookup)
            .map(|(arm, cells)| {
                let values: Vec<f64> = cells
                    .iter()
                    .map(|&(s, b)| {
                        let subject = self.metric.value(&rows[s]);
                        match b {
                            Some(b) => subject / self.metric.value(&rows[b]),
                            None => subject,
                        }
                    })
                    .collect();
                ArmReport {
                    series: arm.series.clone(),
                    group: arm.group.clone(),
                    config: arm.config.clone(),
                    baseline: arm.baseline.clone(),
                    gm: arm_gm(&values, self.with_gm),
                    runs: cells
                        .iter()
                        .map(|&(s, _)| rows[s].summary.clone())
                        .collect(),
                    values,
                }
            })
            .collect();

        Report {
            name: self.name.clone(),
            title: self.title.clone(),
            metric: self.metric.label(self.paired).to_string(),
            benchmarks: self.benchmarks.iter().map(|b| b.short.clone()).collect(),
            arms,
            layout: self.layout,
            with_gm: self.with_gm,
            decimals: self.decimals,
        }
    }
}

/// The Figures 4–6 shape: for each §5 baseline machine (honouring
/// `BOSIM_CONFIGS`), one arm comparing `subject(page, cores)` against
/// the Table 1 baseline, per benchmark.
pub fn six_baseline_speedup(
    name: &str,
    title: &str,
    subject: impl Fn(PageSize, usize) -> SimConfig,
) -> Experiment {
    let mut e = Experiment::new(name, title);
    for (page, cores) in six_baselines() {
        e = e.arm_vs(
            cfg_label(page, cores),
            subject(page, cores),
            SimConfig::baseline(page, cores),
        );
    }
    e
}

/// A named configuration variant of a §5 baseline machine.
pub type VariantFn = Box<dyn Fn(PageSize, usize) -> SimConfig>;

/// The Figures 7/9/10/11 shape: a [`Layout::GmPivot`] experiment with
/// one row per §5 baseline machine and one column per named variant,
/// each cell the geometric-mean speedup over that machine's Table 1
/// baseline.
pub fn six_baseline_gm_variants(
    name: &str,
    title: &str,
    variants: &[(String, VariantFn)],
) -> Experiment {
    let mut e = Experiment::new(name, title).layout(Layout::GmPivot);
    for (page, cores) in six_baselines() {
        for (label, make) in variants {
            e = e.arm_grouped(
                cfg_label(page, cores),
                label.clone(),
                make(page, cores),
                SimConfig::baseline(page, cores),
            );
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim::prefetchers;

    fn tiny(cfg: SimConfig) -> SimConfig {
        SimConfig {
            warmup_instructions: 2_000,
            measure_instructions: 10_000,
            ..cfg
        }
    }

    #[test]
    fn empty_experiment_is_rejected() {
        assert!(matches!(
            Experiment::new("x", "x").run(),
            Err(ExperimentError::NoArms)
        ));
    }

    #[test]
    fn invalid_arm_config_is_rejected_before_running() {
        let bad = SimConfig {
            active_cores: 0,
            ..Default::default()
        };
        let err = Experiment::new("x", "x")
            .benchmark_ids(&["456"])
            .arm("bad", bad)
            .run()
            .unwrap_err();
        match err {
            ExperimentError::InvalidConfig { series, error } => {
                assert_eq!(series, "bad");
                assert_eq!(error, ConfigError::ZeroCores);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_baselines_are_deduplicated_and_speedups_pair() {
        let base = tiny(SimConfig::default());
        let bo = base.clone().with_prefetcher(prefetchers::bo_default());
        let none = base.clone().with_prefetcher(prefetchers::none());
        let report = Experiment::new("dedup_test", "dedup")
            .benchmark_ids(&["456", "444"])
            .arm_vs("BO", bo, base.clone())
            .arm_vs("none", none, base.clone())
            .arm_vs("self", base.clone(), base.clone())
            .run()
            .expect("grid runs");
        assert_eq!(report.benchmarks, vec!["456", "444"]);
        assert_eq!(report.arms.len(), 3);
        // The self-arm pairs a config with itself: speedup exactly 1.
        for v in &report.arms[2].values {
            assert!((v - 1.0).abs() < 1e-12, "self speedup {v}");
        }
        assert_eq!(report.metric, "speedup");
        // Subject runs carry real statistics.
        let ipc = report.arms[0].runs[0].get("ipc").and_then(Json::as_f64);
        assert!(ipc.is_some_and(|ipc| ipc > 0.0), "{ipc:?}");
    }

    #[test]
    fn mixed_raw_and_baseline_arms_are_rejected() {
        let base = tiny(SimConfig::default());
        let err = Experiment::new("mixed", "mixed")
            .benchmark_ids(&["456"])
            .arm("raw", base.clone())
            .arm_vs("paired", base.clone(), base)
            .run()
            .unwrap_err();
        match err {
            ExperimentError::MixedBaselines { with, without } => {
                assert_eq!(with, "paired");
                assert_eq!(without, "raw");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn repetitions_reproduce_the_grid_bit_identically() {
        // The report is a function of the grid alone: repeating it on one
        // worker or on several yields the same bytes.
        let run = |threads| {
            Experiment::new("repeat", "repeat")
                .benchmark_ids(&["456", "444"])
                .arm("base", tiny(SimConfig::default()))
                .threads(threads)
                .run()
                .expect("grid runs")
                .to_json()
                .to_pretty()
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn raw_metric_arms_report_ipc() {
        let report = Experiment::new("raw", "raw")
            .benchmark_ids(&["456"])
            .arm("base", tiny(SimConfig::default()))
            .gm(false)
            .run()
            .expect("runs");
        assert_eq!(report.metric, "ipc");
        assert_eq!(report.arms[0].gm, None);
        assert!(report.arms[0].values[0] > 0.0);
    }
}
