//! The `bosim` subcommands: `run`, `sweep`, `serve`, `inspect`, `gen`,
//! `check-trace`.

use crate::args::{ParsedArgs, UsageError};
use crate::corpus::{self, Corpus};
use bosim::{SimConfig, System};
use bosim_bench::{Experiment, Report};
use bosim_obs::{perfetto, ObsConfig};
use bosim_stats::{Align, Json, Table};
use bosim_trace::{
    addr, analyze, capture, champsim, file, suite, BenchmarkSpec, ExternalSpec, SampleSpec,
    TraceFormat,
};
use bosim_types::PageSize;
use std::path::{Path, PathBuf};

/// A CLI failure, split by exit code.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown command/option, missing argument
    /// (exit code 2).
    Usage(String),
    /// A runtime failure: unreadable trace, failed experiment, ...
    /// (exit code 1).
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failed(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e.0)
    }
}

/// The `--help` text.
pub const USAGE: &str = "\
bosim — trace-driven Best-Offset prefetching simulator

USAGE:
  bosim run --trace FILE [--stack STACK] [options]   replay one trace
  bosim sweep --corpus FILE [options]                run a (trace x stack) grid
  bosim serve --corpus FILE [options]                checkpointed, resumable sweep
  bosim inspect FILE [--format F] [--uops N] [--json] summarise a trace
  bosim gen --bench ID --out FILE [options]          write a synthetic trace
  bosim check-trace FILE                             validate trace-event JSON

RUN OPTIONS:
  --trace FILE          the trace to replay (required)
  --format F            native | champsim | addr-text | addr-bin (default: auto-detect)
  --name N              benchmark name in reports (default: file stem)
  --stack S             prefetcher stack, e.g. l2:bo or l1:stride+l2:bo+l3:next-line
                        (default: the Table 1 machine, next-line at L2)
  --baseline S          baseline stack; the run reports speedup over it
  --cores N             active cores (default 1)
  --page P              4KB | 4MB (default 4KB)
  --instructions N      measured instructions (default BOSIM_INSTRUCTIONS or 1000000)
  --warmup N            warm-up instructions (default BOSIM_WARMUP or 200000)
  --skip N              sampling: discard the first N uops of the trace
  --window N            sampling: keep N uops per sample
  --interval N          sampling: distance between sample starts, in uops
  --report NAME         report id / JSON file stem (default: run_<name>)
  --out DIR             report directory (default BOSIM_REPORT_DIR or target/reports)
  --threads N           worker threads
  --events              also record an event trace: writes <report>.trace.json
                        (Perfetto) and <report>.epochs.jsonl next to the report
  --profile             also profile the host: writes <report>.profile.json

SWEEP OPTIONS:
  --corpus FILE         the corpus manifest (see docs/TRACES.md)
  --out DIR, --threads N  as above

SERVE OPTIONS:
  --corpus FILE         the corpus manifest (see docs/TRACES.md)
  --threads N           worker threads (default: all cores)
  --out DIR             journal/stream/report directory (default as above)
  --abort-after N       test hook: checkpoint N jobs, then stop with exit 1;
                        rerunning resumes
  Completed jobs checkpoint to <name>.journal.jsonl and stream to
  <name>.stream.jsonl; a killed serve resumes exactly (docs/SERVE.md).

GEN OPTIONS:
  --bench ID            synthetic suite id (433, 462, ... or phase, thrash)
  --uops N              trace length in uops (default 100000)
  --out FILE            output path (required)
  --format F            native | champsim | addr-text | addr-bin (default: native)

Formats, sampling semantics and a worked walkthrough: docs/TRACES.md;
the event catalogue and export schemas: docs/OBSERVABILITY.md.
";

/// Entry point: dispatches `args` (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for bad invocations and
/// [`CliError::Failed`] for runtime failures; messages are ready to
/// print on stderr.
pub fn dispatch(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("check-trace") => cmd_check_trace(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command {other:?} (expected run, sweep, serve, inspect, \
             gen or check-trace; see bosim --help)"
        ))),
        None => Err(CliError::Usage(format!("no command given\n\n{USAGE}"))),
    }
}

/// Rejects stray positional arguments (commands taking options only).
fn no_positionals(p: &ParsedArgs, cmd: &str) -> Result<(), CliError> {
    match p.positionals() {
        [] => Ok(()),
        [first, ..] => Err(CliError::Usage(format!(
            "bosim {cmd} takes no positional arguments (unexpected {first:?})"
        ))),
    }
}

/// Resolves a trace path + optional format name into an [`ExternalSpec`].
fn external_spec(
    path: &Path,
    format: Option<&str>,
    name: Option<&str>,
) -> Result<ExternalSpec, CliError> {
    let spec = match format {
        Some(f) => {
            let format = TraceFormat::from_name(f).map_err(|e| CliError::Usage(e.to_string()))?;
            ExternalSpec::new(path, format)
        }
        None => ExternalSpec::detect(path).map_err(|e| CliError::Failed(e.to_string()))?,
    };
    Ok(match name {
        Some(n) => spec.named(n),
        None => spec,
    })
}

fn parse_page(p: &str) -> Result<PageSize, CliError> {
    match p.to_ascii_lowercase().as_str() {
        "4kb" | "4k" => Ok(PageSize::K4),
        "4mb" | "4m" => Ok(PageSize::M4),
        other => Err(CliError::Usage(format!(
            "unknown page size {other:?} (expected 4KB or 4MB)"
        ))),
    }
}

/// Builds the sampling plan out of individually optional knobs (an
/// absent knob is 0; none at all is the pass-through plan).
fn sample_spec(skip: Option<u64>, window: Option<u64>, interval: Option<u64>) -> SampleSpec {
    SampleSpec {
        skip: skip.unwrap_or(0),
        window: window.unwrap_or(0),
        interval: interval.unwrap_or(0),
    }
}

/// Shared machine-configuration assembly for `run` and `sweep`.
#[derive(Default)]
struct MachineParams {
    cores: Option<u64>,
    page: Option<PageSize>,
    instructions: Option<u64>,
    warmup: Option<u64>,
    sample: SampleSpec,
}

impl MachineParams {
    fn configure(&self, stack: Option<&str>) -> Result<SimConfig, CliError> {
        let d = SimConfig::default();
        let mut cfg = SimConfig {
            active_cores: self.cores.map_or(d.active_cores, |c| c as usize),
            page: self.page.unwrap_or(d.page),
            measure_instructions: self.instructions.unwrap_or(d.measure_instructions),
            warmup_instructions: self.warmup.unwrap_or(d.warmup_instructions),
            sample: self.sample,
            ..d
        };
        if let Some(stack) = stack {
            cfg = cfg
                .with_stack(stack)
                .map_err(|e| CliError::Usage(e.to_string()))?;
        }
        cfg.validate()
            .map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;
        Ok(cfg)
    }
}

/// The benchmark and machine that `run` reads from its flags: `--trace`
/// (with `--format`/`--name`), loaded once up front so decode errors
/// surface as a typed message, not a worker panic mid-grid, and the
/// machine knobs.
fn trace_and_machine(p: &ParsedArgs) -> Result<(BenchmarkSpec, MachineParams), CliError> {
    let trace = p.require("trace")?;
    let ext = external_spec(Path::new(trace), p.get("format"), p.get("name"))?;
    ext.load()
        .map_err(|e| CliError::Failed(format!("cannot ingest {trace}: {e}")))?;
    let machine = MachineParams {
        cores: p.get_u64("cores")?,
        page: p.get("page").map(parse_page).transpose()?,
        instructions: p.get_u64("instructions")?,
        warmup: p.get_u64("warmup")?,
        sample: sample_spec(
            p.get_u64("skip")?,
            p.get_u64("window")?,
            p.get_u64("interval")?,
        ),
    };
    Ok((BenchmarkSpec::from_trace(ext), machine))
}

/// Runs an assembled experiment and emits its report to `out`.
fn emit(experiment: Experiment, out: Option<&str>) -> Result<(), CliError> {
    let report = experiment
        .run()
        .map_err(|e| CliError::Failed(format!("experiment failed: {e}")))?;
    report.print();
    let dir = out.map(PathBuf::from).unwrap_or_else(Report::default_dir);
    let path = report
        .write_json(&dir)
        .map_err(|e| CliError::Failed(format!("cannot write report JSON: {e}")))?;
    eprintln!("[bosim] report written to {}", path.display());
    Ok(())
}

fn sanitize_id(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.is_empty() {
        out.push('t');
    }
    out
}

fn write_artifact(path: &Path, text: &str) -> Result<(), CliError> {
    std::fs::write(path, text)
        .map_err(|e| CliError::Failed(format!("cannot write {}: {e}", path.display())))?;
    eprintln!("[bosim] wrote {}", path.display());
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse_with_flags(
        args,
        &[
            "trace",
            "format",
            "name",
            "stack",
            "baseline",
            "cores",
            "page",
            "instructions",
            "warmup",
            "skip",
            "window",
            "interval",
            "report",
            "out",
            "threads",
        ],
        &["events", "profile"],
    )?;
    no_positionals(&p, "run")?;
    let (bench, machine) = trace_and_machine(&p)?;
    let subject = machine.configure(p.get("stack"))?;
    let report_name = p
        .get("report")
        .map(str::to_string)
        .unwrap_or_else(|| format!("run_{}", sanitize_id(&bench.name)));
    let title = format!("{} on {}", subject.label(), bench.name);

    // With --events / --profile, the measured experiment is followed by
    // one instrumented replay of the subject configuration: the extra
    // run keeps observability out of the timing-sensitive experiment
    // workers, and the golden-stats invariant guarantees it reproduces
    // the measured counters exactly.
    let obs = ObsConfig {
        events: p.flag("events"),
        profile: p.flag("profile"),
    };
    let obs_artifacts = obs.enabled().then(|| {
        let dir = p
            .get("out")
            .map(PathBuf::from)
            .unwrap_or_else(Report::default_dir);
        let cfg = SimConfig {
            obs,
            ..subject.clone()
        };
        (dir, cfg, bench.clone(), title.clone())
    });

    let mut e = Experiment::new(report_name.clone(), title).benchmarks(vec![bench]);
    e = match p.get("baseline") {
        Some(baseline) => e.arm_vs(
            p.get("stack").unwrap_or("default").to_string(),
            subject,
            machine.configure(Some(baseline))?,
        ),
        None => e.arm(p.get("stack").unwrap_or("default").to_string(), subject),
    };
    if let Some(t) = p.get_u64("threads")? {
        e = e.threads(t as usize);
    }
    emit(e, p.get("out"))?;

    if let Some((dir, cfg, bench, title)) = obs_artifacts {
        std::fs::create_dir_all(&dir)
            .map_err(|e| CliError::Failed(format!("cannot create {}: {e}", dir.display())))?;
        let report = System::new(&cfg, &bench).run().obs.ok_or_else(|| {
            CliError::Failed("instrumented run produced no observability report".to_string())
        })?;
        if cfg.obs.events {
            let path = dir.join(format!("{report_name}.trace.json"));
            write_artifact(&path, &perfetto::trace_json(&report, &title).to_string())?;
            let path = dir.join(format!("{report_name}.epochs.jsonl"));
            write_artifact(&path, &report.epochs_jsonl())?;
            eprintln!(
                "[bosim] {} events recorded, {} dropped, {} epochs",
                report.events.len(),
                report.dropped_events,
                report.epochs.len(),
            );
        }
        if let Some(profile) = &report.profile.0 {
            let path = dir.join(format!("{report_name}.profile.json"));
            write_artifact(&path, &profile.to_json().to_pretty())?;
        }
    }
    Ok(())
}

/// Structural validation of a Chrome/Perfetto trace-event document:
/// a `traceEvents` array whose elements carry a string `name` and `ph`,
/// and (for non-metadata events) numeric `ts`, `pid` and `tid`.
///
/// # Errors
///
/// Returns a human-readable description of the first structural
/// violation.
pub fn check_trace_events(doc: &Json) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| "missing top-level \"traceEvents\" key".to_string())?;
    let arr = events
        .as_arr()
        .ok_or_else(|| "\"traceEvents\" is not an array".to_string())?;
    for (i, e) in arr.iter().enumerate() {
        for key in ["name", "ph"] {
            if e.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("event {i}: missing string {key:?}"));
            }
        }
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or_default();
        // Metadata records ("M") carry no timestamp; everything else
        // must be placeable on a track.
        let required: &[&str] = if ph == "M" {
            &["pid", "tid"]
        } else {
            &["ts", "pid", "tid"]
        };
        for key in required {
            if !e.get(key).is_some_and(Json::is_number) {
                return Err(format!("event {i} (ph {ph:?}): missing numeric {key:?}"));
            }
        }
    }
    Ok(arr.len())
}

fn cmd_check_trace(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, &[])?;
    let [path] = p.positionals() else {
        return Err(CliError::Usage(
            "check-trace takes exactly one trace-event JSON file argument".to_string(),
        ));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))?;
    let doc =
        Json::parse(&text).map_err(|e| CliError::Failed(format!("{path}: not valid JSON: {e}")))?;
    let n = check_trace_events(&doc).map_err(|m| CliError::Failed(format!("{path}: {m}")))?;
    println!("{path}: valid trace-event JSON ({n} events)");
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, &["corpus", "out", "threads"])?;
    no_positionals(&p, "sweep")?;
    let manifest = p.require("corpus")?;
    let corpus = corpus::load(Path::new(manifest)).map_err(|e| CliError::Failed(e.to_string()))?;
    let mut e = sweep_experiment(&corpus)?;
    if let Some(t) = p.get_u64("threads")? {
        e = e.threads(t as usize);
    }
    emit(e, p.get("out"))
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, &["corpus", "out", "threads", "abort-after"])?;
    no_positionals(&p, "serve")?;
    let manifest = p.require("corpus")?;
    let corpus = corpus::load(Path::new(manifest)).map_err(|e| CliError::Failed(e.to_string()))?;
    let experiment = sweep_experiment(&corpus)?;
    let out_dir = p
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(Report::default_dir);
    let mut opts = crate::serve::ServeOptions::new(out_dir);
    if let Some(t) = p.get_u64("threads")? {
        opts.threads = t as usize;
    }
    opts.abort_after = p.get_u64("abort-after")?;
    let summary = crate::serve::serve(experiment, &opts)?;
    if summary.aborted {
        // The abort hook is a deliberate mid-sweep stop (test harness /
        // CI kill+resume): exit non-zero so drivers notice the sweep is
        // not finished, with the checkpoint ready to resume from.
        return Err(CliError::Failed(format!(
            "serve stopped by --abort-after with {} of {} jobs journaled; \
             rerun the same command to resume from {}",
            summary.resumed + summary.ran,
            summary.total,
            summary.journal_path.display()
        )));
    }
    println!(
        "serve complete: {} jobs ({} resumed, {} run); report {}",
        summary.total,
        summary.resumed,
        summary.ran,
        summary
            .report_path
            .as_deref()
            .unwrap_or_else(|| Path::new("<unwritten>"))
            .display()
    );
    Ok(())
}

/// Assembles the (trace × stack) experiment a corpus describes.
///
/// # Errors
///
/// Returns [`CliError::Failed`] for unreadable/undecodable traces and
/// [`CliError::Usage`] for invalid stacks or a baseline-mixing corpus.
pub fn sweep_experiment(corpus: &Corpus) -> Result<Experiment, CliError> {
    // The experiment harness reports either raw metrics or ratios —
    // reject a mixed corpus with a better message than the harness's.
    let with = corpus.stacks.iter().find(|s| s.baseline.is_some());
    let without = corpus.stacks.iter().find(|s| s.baseline.is_none());
    if let (Some(w), Some(wo)) = (with, without) {
        return Err(CliError::Usage(format!(
            "corpus mixes stacks with and without baselines ({:?} vs {:?}): \
             give every stack a baseline, or none",
            w.stack, wo.stack
        )));
    }
    let mut benchmarks = Vec::new();
    for t in &corpus.traces {
        let ext = external_spec(&t.path, t.format.as_deref(), t.name.as_deref())?;
        ext.load()
            .map_err(|e| CliError::Failed(format!("cannot ingest {}: {e}", t.path.display())))?;
        benchmarks.push(BenchmarkSpec::from_trace(ext));
    }
    let machine = MachineParams {
        instructions: corpus.instructions,
        warmup: corpus.warmup,
        sample: sample_spec(corpus.skip, corpus.window, corpus.interval),
        ..MachineParams::default()
    };
    let mut e = Experiment::new(
        sanitize_id(&corpus.name),
        format!("corpus sweep: {}", corpus.name),
    )
    .benchmarks(benchmarks);
    for s in &corpus.stacks {
        let subject = machine.configure(Some(&s.stack))?;
        e = match &s.baseline {
            Some(b) => e.arm_vs(s.stack.clone(), subject, machine.configure(Some(b))?),
            None => e.arm(s.stack.clone(), subject),
        };
    }
    Ok(e)
}

fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse_with_flags(args, &["format", "uops"], &["json"])?;
    let [path] = p.positionals() else {
        return Err(CliError::Usage(
            "inspect takes exactly one trace file argument".to_string(),
        ));
    };
    let ext = external_spec(Path::new(path), p.get("format"), None)?;
    let mut src = ext
        .load()
        .map_err(|e| CliError::Failed(format!("cannot ingest {path}: {e}")))?;
    let lap = src.lap_len();
    let n = p.get_u64("uops")?.unwrap_or(1_000_000).min(lap as u64) as usize;
    let uops = capture(&mut src, n);
    let s = analyze::summarize(&uops);
    let pats = analyze::stride_patterns(&uops, 64.max(n as u64 / 1000));
    let hist = analyze::line_stride_histogram(&uops, 22);

    if p.flag("json") {
        let doc = Json::obj([
            ("name", Json::from(ext.name.as_str())),
            ("format", Json::from(ext.format.to_string())),
            ("lap_uops", Json::UInt(lap as u64)),
            (
                "summary",
                Json::obj([
                    ("uops", Json::UInt(s.uops)),
                    ("loads", Json::UInt(s.loads)),
                    ("stores", Json::UInt(s.stores)),
                    ("branches", Json::UInt(s.branches)),
                    ("taken_branches", Json::UInt(s.taken_branches)),
                    ("fp_ops", Json::UInt(s.fp_ops)),
                    ("load_ratio", Json::Num(s.load_ratio())),
                    ("data_footprint_bytes", Json::UInt(s.data_footprint_bytes())),
                    ("distinct_pages", Json::UInt(s.distinct_pages)),
                    ("code_lines", Json::UInt(s.code_lines)),
                ]),
            ),
            (
                "stride_patterns",
                Json::arr(pats.iter().map(|pat| {
                    Json::obj([
                        ("pc", Json::UInt(pat.pc)),
                        ("stride", Json::Int(pat.stride)),
                        ("regularity", Json::Num(pat.regularity)),
                        ("count", Json::UInt(pat.count)),
                    ])
                })),
            ),
            (
                "line_stride_histogram",
                Json::arr(hist.iter().map(|&(stride, count)| {
                    Json::obj([
                        ("line_stride", Json::Int(stride)),
                        ("occurrences", Json::UInt(count)),
                    ])
                })),
            ),
        ]);
        println!("{}", doc.to_pretty());
        return Ok(());
    }

    println!("# {} ({} format)", ext.name, ext.format);
    let mut t = Table::new(["property", "value"]);
    t.align([Align::Left, Align::Right]);
    t.row(["trace length (uops/lap)".to_string(), lap.to_string()]);
    t.row(["analysed uops".to_string(), s.uops.to_string()]);
    t.row(["loads".to_string(), s.loads.to_string()]);
    t.row(["stores".to_string(), s.stores.to_string()]);
    t.row(["branches".to_string(), s.branches.to_string()]);
    t.row(["taken branches".to_string(), s.taken_branches.to_string()]);
    t.row(["fp ops".to_string(), s.fp_ops.to_string()]);
    t.row(["load ratio".to_string(), format!("{:.3}", s.load_ratio())]);
    t.row([
        "data footprint".to_string(),
        format!("{} KB", s.data_footprint_bytes() >> 10),
    ]);
    t.row(["distinct pages".to_string(), s.distinct_pages.to_string()]);
    t.row(["code lines".to_string(), s.code_lines.to_string()]);
    println!("{t}");

    if !pats.is_empty() {
        println!("# top per-PC strides");
        let mut t = Table::new(["pc", "stride", "regularity", "count"]);
        t.align([Align::Right, Align::Right, Align::Right, Align::Right]);
        for pat in pats.iter().take(8) {
            t.row([
                format!("{:#x}", pat.pc),
                pat.stride.to_string(),
                format!("{:.2}", pat.regularity),
                pat.count.to_string(),
            ]);
        }
        println!("{t}");
    }

    if !hist.is_empty() {
        println!("# top line strides (4MB regions)");
        let mut t = Table::new(["line stride", "occurrences"]);
        t.align([Align::Right, Align::Right]);
        for &(stride, count) in hist.iter().take(8) {
            t.row([stride.to_string(), count.to_string()]);
        }
        println!("{t}");
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, &["bench", "uops", "out", "format"])?;
    no_positionals(&p, "gen")?;
    let id = p.require("bench")?;
    let out = PathBuf::from(p.require("out")?);
    let n = p.get_u64("uops")?.unwrap_or(100_000) as usize;
    if n == 0 {
        // Every decoder rejects an empty trace, so writing one would
        // only defer the failure to the next `run`/`inspect`.
        return Err(CliError::Usage(
            "--uops 0 would write an empty trace (every format rejects those on load)".to_string(),
        ));
    }
    let format = match p.get("format") {
        Some(f) => TraceFormat::from_name(f).map_err(|e| CliError::Usage(e.to_string()))?,
        None => TraceFormat::Native,
    };
    let spec = suite::benchmark(id).ok_or_else(|| {
        let ids: Vec<String> = suite::suite().iter().map(|b| b.short.clone()).collect();
        CliError::Usage(format!(
            "unknown benchmark id {id:?} (available: {}, phase, thrash)",
            ids.join(", ")
        ))
    })?;
    let uops = capture(&mut spec.build(), n);
    let bytes = match format {
        TraceFormat::Native => file::encode(&uops),
        TraceFormat::ChampSim => champsim::encode(&uops),
        TraceFormat::AddrText | TraceFormat::AddrBin => {
            let accesses = addr::accesses_of(&uops);
            if accesses.is_empty() {
                return Err(CliError::Failed(format!(
                    "benchmark {id} produced no memory accesses in {n} uops — \
                     an address trace would be empty"
                )));
            }
            match format {
                TraceFormat::AddrText => addr::encode_text(&accesses).into_bytes(),
                _ => addr::encode_binary(&accesses),
            }
        }
    };
    std::fs::write(&out, &bytes)
        .map_err(|e| CliError::Failed(format!("cannot write {}: {e}", out.display())))?;
    println!(
        "wrote {} ({} format, {} uops captured, {} bytes)",
        out.display(),
        format,
        n,
        bytes.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacks_name_each_site_once() {
        let err = MachineParams::default()
            .configure(Some("l2:bo+l2:sbp"))
            .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn pages_parse_case_insensitively() {
        assert_eq!(parse_page("4kb").unwrap(), PageSize::K4);
        assert_eq!(parse_page("4MB").unwrap(), PageSize::M4);
        assert!(parse_page("2MB").is_err());
    }

    #[test]
    fn sample_knobs_fold_into_a_spec() {
        assert_eq!(sample_spec(None, None, None), SampleSpec::default());
        assert_eq!(sample_spec(Some(0), None, None), SampleSpec::default());
        assert_eq!(sample_spec(Some(10), None, None), SampleSpec::skip(10));
        assert_eq!(
            sample_spec(Some(1), Some(2), Some(3)),
            SampleSpec::periodic(1, 2, 3)
        );
    }

    #[test]
    fn unknown_commands_and_ids_are_usage_errors() {
        assert!(matches!(
            dispatch(&["frobnicate".to_string()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(dispatch(&[]), Err(CliError::Usage(_))));
        let err = cmd_gen(&[
            "--bench".to_string(),
            "999".to_string(),
            "--out".to_string(),
            "/tmp/x".to_string(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("999"), "{err}");
    }

    #[test]
    fn sanitize_makes_file_stems() {
        assert_eq!(sanitize_id("433.milc-like"), "433_milc_like");
        assert_eq!(sanitize_id(""), "t");
    }

    #[test]
    fn check_trace_events_accepts_the_format_and_names_violations() {
        let good = Json::parse(
            r#"{"traceEvents":[
                {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"x"}},
                {"name":"prefetch_issued","ph":"i","ts":10,"pid":1,"tid":2,"args":{}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(check_trace_events(&good), Ok(2));

        let top = Json::parse(r#"{"events":[]}"#).unwrap();
        assert!(check_trace_events(&top)
            .unwrap_err()
            .contains("traceEvents"));
        // A non-metadata event without a timestamp is a violation; the
        // same record as metadata is fine.
        let no_ts =
            Json::parse(r#"{"traceEvents":[{"name":"e","ph":"i","pid":1,"tid":2}]}"#).unwrap();
        assert!(check_trace_events(&no_ts).unwrap_err().contains("ts"));
        let meta =
            Json::parse(r#"{"traceEvents":[{"name":"e","ph":"M","pid":1,"tid":2}]}"#).unwrap();
        assert_eq!(check_trace_events(&meta), Ok(1));
        let bad_name = Json::parse(r#"{"traceEvents":[{"name":7,"ph":"i"}]}"#).unwrap();
        assert!(check_trace_events(&bad_name).unwrap_err().contains("name"));
    }
}
