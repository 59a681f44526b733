//! Structured experiment output.
//!
//! An [`Experiment`](crate::Experiment) run produces a [`Report`]: the
//! full per-benchmark value grid with per-arm geometric means, renderable
//! as TSV + aligned text (the classic harness output) and as JSON for
//! downstream tooling. JSON files land in `target/reports/<name>.json`
//! by default; set `BOSIM_REPORT_DIR` to redirect them.

use bosim::SimResult;
use bosim_adapt::AdaptTelemetry;
use bosim_stats::{geometric_mean, Align, Json, Table};
use std::io;
use std::path::{Path, PathBuf};

/// Key statistics of one simulation run (one grid cell).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Benchmark name (e.g. `"433.milc-like"`).
    pub benchmark: String,
    /// Configuration label (e.g. `"4KB/1-core/BO"`).
    pub config: String,
    /// Instructions per cycle on core 0.
    pub ipc: f64,
    /// DRAM accesses per kilo-instruction (the Figure 13 metric).
    pub dram_per_ki: f64,
    /// L2 misses per kilo-instruction.
    pub l2_miss_per_ki: f64,
    /// Measured instructions.
    pub instructions: u64,
    /// Measured cycles.
    pub cycles: u64,
    /// L1D-site prefetches issued to the uncore (measured window).
    pub l1_prefetches: u64,
    /// L1D-site prefetches dropped on a TLB2 miss (measured window).
    pub l1_prefetch_tlb_drops: u64,
    /// L2-site prefetches issued to the L3 (measured window, core 0's
    /// L2 plus the other cores' — the uncore counter is machine-wide).
    pub l2_prefetches_issued: u64,
    /// Lines filled into the L2s still carrying prefetch class.
    pub l2_prefetch_fills: u64,
    /// L3-site prefetches issued to DRAM (measured window).
    pub l3_prefetches_issued: u64,
    /// Lines filled into the L3 still carrying the L3-prefetch class.
    pub l3_prefetch_fills: u64,
    /// Adaptive-control epoch telemetry (adaptive runs only).
    pub adapt: Option<AdaptTelemetry>,
}

impl From<&SimResult> for RunSummary {
    fn from(r: &SimResult) -> Self {
        let ki = if r.instructions == 0 {
            f64::NAN
        } else {
            r.instructions as f64 / 1000.0
        };
        RunSummary {
            benchmark: r.benchmark.clone(),
            config: r.config.clone(),
            ipc: r.ipc(),
            dram_per_ki: r.dram_accesses_per_ki(),
            l2_miss_per_ki: r.uncore.l2_misses as f64 / ki,
            instructions: r.instructions,
            cycles: r.cycles,
            l1_prefetches: r.core.l1_prefetches,
            l1_prefetch_tlb_drops: r.core.l1_prefetch_tlb_drops,
            l2_prefetches_issued: r.uncore.l2_prefetches_issued,
            l2_prefetch_fills: r.uncore.l2_prefetch_fills,
            l3_prefetches_issued: r.uncore.l3_prefetches_issued,
            l3_prefetch_fills: r.uncore.l3_prefetch_fills,
            adapt: r.adapt.clone(),
        }
    }
}

impl RunSummary {
    /// The run-summary object a report's `runs` and a job row's
    /// `summary` hold.
    pub fn to_json(&self) -> Json {
        let RunSummary {
            benchmark,
            config,
            ipc,
            dram_per_ki,
            l2_miss_per_ki,
            instructions,
            cycles,
            l1_prefetches,
            l1_prefetch_tlb_drops,
            l2_prefetches_issued,
            l2_prefetch_fills,
            l3_prefetches_issued,
            l3_prefetch_fills,
            adapt,
        } = self;
        Json::obj([
            ("benchmark", Json::from(benchmark.as_str())),
            ("config", Json::from(config.as_str())),
            ("ipc", Json::from(*ipc)),
            ("dram_per_ki", Json::from(*dram_per_ki)),
            ("l2_miss_per_ki", Json::from(*l2_miss_per_ki)),
            ("instructions", Json::from(*instructions)),
            ("cycles", Json::from(*cycles)),
            ("l1_prefetches", Json::from(*l1_prefetches)),
            ("l1_prefetch_tlb_drops", Json::from(*l1_prefetch_tlb_drops)),
            ("l2_prefetches_issued", Json::from(*l2_prefetches_issued)),
            ("l2_prefetch_fills", Json::from(*l2_prefetch_fills)),
            ("l3_prefetches_issued", Json::from(*l3_prefetches_issued)),
            ("l3_prefetch_fills", Json::from(*l3_prefetch_fills)),
            (
                "adapt",
                adapt
                    .as_ref()
                    .map(AdaptTelemetry::to_json)
                    .unwrap_or(Json::Null),
            ),
        ])
    }
}

/// One arm of a report: a configuration (possibly paired with a
/// baseline) evaluated over every benchmark.
#[derive(Debug, Clone)]
pub struct ArmReport {
    /// Series label shown in tables (e.g. `"4KB/1-core"` or `"D=5"`).
    pub series: String,
    /// Optional group label for pivoted GM tables (e.g. the machine
    /// configuration a variant belongs to).
    pub group: Option<String>,
    /// Subject configuration label.
    pub config: String,
    /// Baseline configuration label, when the arm reports speedups.
    pub baseline: Option<String>,
    /// One metric value per benchmark, in the report's benchmark order.
    pub values: Vec<f64>,
    /// Geometric mean of `values` (when meaningful for the metric).
    pub gm: Option<f64>,
    /// Per-benchmark subject-run statistics: each run's
    /// [`RunSummary`] object, as its job row holds it.
    pub runs: Vec<Json>,
}

/// How a [`Report`] lays out its tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// Rows are benchmarks, columns are arms (Figures 2, 4–6, 12, 13).
    #[default]
    BenchRows,
    /// Rows are arms, columns are benchmarks (the Figure 8 sweep).
    ArmRows,
    /// Rows are arm groups, columns are series, cells are geometric
    /// means (Figures 7, 9–11 and the ablations).
    GmPivot,
}

/// A structured experiment result (see the [crate docs](crate)).
#[derive(Debug, Clone)]
pub struct Report {
    /// Machine-friendly experiment id (also the JSON file stem).
    pub name: String,
    /// Human-readable title, printed as the table heading.
    pub title: String,
    /// Metric label (e.g. `"IPC"`, `"speedup"`, `"dram_per_ki"`).
    pub metric: String,
    /// Benchmark short labels, defining the order of arm `values`.
    pub benchmarks: Vec<String>,
    /// The arms.
    pub arms: Vec<ArmReport>,
    /// Table layout.
    pub layout: Layout,
    /// Append/compute geometric-mean summaries.
    pub with_gm: bool,
    /// Decimal places in tables (JSON keeps full precision).
    pub decimals: usize,
}

impl Report {
    fn fmt_value(&self, v: f64) -> String {
        format!("{v:.prec$}", prec = self.decimals)
    }

    /// Renders the report as a table per its [`Layout`].
    pub fn table(&self) -> Table {
        match self.layout {
            Layout::BenchRows => self.bench_rows_table(),
            Layout::ArmRows => self.arm_rows_table(),
            Layout::GmPivot => self.gm_pivot_table(),
        }
    }

    fn bench_rows_table(&self) -> Table {
        let mut header = vec!["benchmark".to_string()];
        header.extend(self.arms.iter().map(|a| a.series.clone()));
        let mut t = Table::new(header);
        let mut aligns = vec![Align::Left];
        aligns.extend(std::iter::repeat_n(Align::Right, self.arms.len()));
        t.align(aligns);
        for (bi, b) in self.benchmarks.iter().enumerate() {
            let mut cells = vec![b.clone()];
            cells.extend(self.arms.iter().map(|a| self.fmt_value(a.values[bi])));
            t.row(cells);
        }
        if self.with_gm && !self.benchmarks.is_empty() {
            let mut cells = vec!["GM".to_string()];
            cells.extend(
                self.arms
                    .iter()
                    .map(|a| a.gm.map(|g| self.fmt_value(g)).unwrap_or_default()),
            );
            t.row(cells);
        }
        t
    }

    fn arm_rows_table(&self) -> Table {
        let mut header = vec!["config".to_string()];
        header.extend(self.benchmarks.iter().cloned());
        if self.with_gm {
            header.push("GM".to_string());
        }
        let mut t = Table::new(header);
        let mut aligns = vec![Align::Left];
        aligns.extend(std::iter::repeat_n(
            Align::Right,
            self.benchmarks.len() + usize::from(self.with_gm),
        ));
        t.align(aligns);
        for a in &self.arms {
            let mut cells = vec![a.series.clone()];
            cells.extend(a.values.iter().map(|&v| self.fmt_value(v)));
            if self.with_gm {
                cells.push(a.gm.map(|g| self.fmt_value(g)).unwrap_or_default());
            }
            t.row(cells);
        }
        t
    }

    fn gm_pivot_table(&self) -> Table {
        let mut groups: Vec<String> = Vec::new();
        let mut series: Vec<String> = Vec::new();
        for a in &self.arms {
            let g = a.group.clone().unwrap_or_default();
            if !groups.contains(&g) {
                groups.push(g);
            }
            if !series.contains(&a.series) {
                series.push(a.series.clone());
            }
        }
        let mut header = vec!["config".to_string()];
        header.extend(series.iter().cloned());
        let mut t = Table::new(header);
        let mut aligns = vec![Align::Left];
        aligns.extend(std::iter::repeat_n(Align::Right, series.len()));
        t.align(aligns);
        for g in &groups {
            let mut cells = vec![g.clone()];
            for s in &series {
                let cell = self
                    .arms
                    .iter()
                    .find(|a| a.group.as_deref().unwrap_or_default() == g && a.series == *s)
                    .and_then(|a| a.gm)
                    .map(|gm| self.fmt_value(gm))
                    .unwrap_or_default();
                cells.push(cell);
            }
            t.row(cells);
        }
        t
    }

    /// The full report as a JSON tree (all values at full precision).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("title", Json::from(self.title.as_str())),
            ("metric", Json::from(self.metric.as_str())),
            (
                "benchmarks",
                Json::arr(self.benchmarks.iter().map(|b| Json::from(b.as_str()))),
            ),
            (
                "arms",
                Json::arr(self.arms.iter().map(|a| {
                    Json::obj([
                        ("series", Json::from(a.series.as_str())),
                        ("group", Json::from(a.group.as_deref().map(Json::from))),
                        ("config", Json::from(a.config.as_str())),
                        (
                            "baseline",
                            Json::from(a.baseline.as_deref().map(Json::from)),
                        ),
                        ("gm", Json::from(a.gm)),
                        ("values", Json::arr(a.values.iter().map(|&v| Json::from(v)))),
                        ("runs", Json::arr(a.runs.iter().cloned())),
                    ])
                })),
            ),
        ])
    }

    /// Prints the title, a TSV block and the aligned table to stdout —
    /// the classic harness output format.
    pub fn print(&self) {
        println!("# {}", self.title);
        let t = self.table();
        print!("{}", t.to_tsv());
        println!();
        println!("{t}");
    }

    /// Writes `<dir>/<name>.json` (creating `dir` as needed).
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_json(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }

    /// The report directory: `BOSIM_REPORT_DIR` or `target/reports`.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("BOSIM_REPORT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/reports"))
    }

    /// Prints the tables and writes the JSON report to
    /// [`default_dir`](Self::default_dir), logging the path to stderr. A
    /// JSON write failure is reported on stderr but does not abort.
    pub fn emit(&self) {
        self.print();
        match self.write_json(&Self::default_dir()) {
            Ok(path) => eprintln!("[bosim] report written to {}", path.display()),
            Err(e) => eprintln!("[bosim] could not write JSON report: {e}"),
        }
    }
}

/// An arm's geometric mean (used by
/// [`ExperimentPlan::assemble`](crate::ExperimentPlan::assemble)).
pub(crate) fn arm_gm(values: &[f64], with_gm: bool) -> Option<f64> {
    if !with_gm || values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    geometric_mean(values.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(layout: Layout) -> Report {
        let arm = |series: &str, group: Option<&str>, values: Vec<f64>| ArmReport {
            series: series.into(),
            group: group.map(Into::into),
            config: format!("4KB/1-core/{series}"),
            baseline: Some("4KB/1-core/next-line".into()),
            gm: arm_gm(&values, true),
            runs: Vec::new(),
            values,
        };
        Report {
            name: "test_report".into(),
            title: "A test report".into(),
            metric: "speedup".into(),
            benchmarks: vec!["429".into(), "433".into()],
            arms: vec![
                arm("BO", Some("4KB/1-core"), vec![2.0, 8.0]),
                arm("SBP", Some("4KB/1-core"), vec![1.0, 1.0]),
            ],
            layout,
            with_gm: true,
            decimals: 3,
        }
    }

    #[test]
    fn bench_rows_table_has_gm_row() {
        let tsv = sample_report(Layout::BenchRows).table().to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "benchmark\tBO\tSBP");
        assert_eq!(lines[3], "GM\t4.000\t1.000");
    }

    #[test]
    fn arm_rows_table_transposes() {
        let tsv = sample_report(Layout::ArmRows).table().to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "config\t429\t433\tGM");
        assert_eq!(lines[1], "BO\t2.000\t8.000\t4.000");
    }

    #[test]
    fn gm_pivot_groups_series() {
        let tsv = sample_report(Layout::GmPivot).table().to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "config\tBO\tSBP");
        assert_eq!(lines[1], "4KB/1-core\t4.000\t1.000");
    }

    #[test]
    fn json_contains_full_grid() {
        let j = sample_report(Layout::BenchRows).to_json().to_string();
        assert!(j.contains(r#""name":"test_report""#));
        assert!(j.contains(r#""values":[2,8]"#));
        assert!(j.contains(r#""gm":4"#));
    }

    #[test]
    fn gm_skips_nonpositive_values() {
        assert_eq!(arm_gm(&[1.0, 0.0], true), None);
        assert_eq!(arm_gm(&[], true), None);
        assert_eq!(arm_gm(&[2.0, 8.0], false), None);
        assert_eq!(arm_gm(&[2.0, 8.0], true), Some(4.0));
    }
}
