//! A run: repetitions dealt round-robin across the chosen workloads,
//! each in a fresh child process, then the traced repetitions.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::rep::RepOutput;
use crate::span::Spans;
use crate::stats::{median, Summary};
use crate::workload::{self, Corpus, Scale, Workload};
use crate::{probe, report, sweep, Options};
use bosim_stats::Json;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Repetitions every workload gets, however long they take.
const MIN_REPS: usize = 3;

/// One untraced repetition as the harness measured it. Times are raw
/// host seconds.
pub struct Rep {
    pub wall_s: f64,
    pub setup_s: f64,
    /// Host seconds the rates divide by: the `simulate` spans in process,
    /// the whole command for `bosim sweep`.
    pub rate_s: f64,
    /// Host slowness during the repetition: the median probe time over
    /// its nominal time.
    pub host: f64,
    pub uops: f64,
    pub cycles: f64,
    pub rss_kb: u64,
    pub digest: u64,
    pub ipc_gm: f64,
    pub jobs: u64,
    /// Jobs that failed a check, and why.
    pub failed: u64,
    pub failures: Vec<String>,
    pub runs: Vec<(String, String, u64, u64)>,
}

impl Rep {
    /// This repetition's value of every end-to-end metric, in catalogue
    /// order, with host times divided by the host's slowness.
    pub fn values(&self) -> [f64; 5] {
        let rate_s = self.rate_s / self.host;
        [
            self.wall_s / self.host,
            self.uops / rate_s / 1e6,
            self.cycles / rate_s / 1e6,
            self.setup_s / self.host,
            self.rss_kb as f64 / 1024.0,
        ]
    }
}

/// Everything gathered for one workload during a run.
pub struct State {
    pub workload: Workload,
    span: usize,
    pub reps: Vec<Rep>,
    busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The profiled repetition (`--trace 1`).
    traced: Option<RepOutput>,
    gave_up: bool,
}

impl State {
    pub fn wants_more(&self, seconds: f64) -> bool {
        if self.gave_up {
            return false;
        }
        let walls: Vec<f64> = self.reps.iter().map(|r| r.wall_s).collect();
        self.reps.len() < MIN_REPS || self.busy_s + median(&walls) <= seconds
    }

    /// Records a failed check that failed `jobs` more jobs.
    pub fn fail(&mut self, jobs: u64, why: String) {
        eprintln!("bosim-benchmark: {}: FAILED {why}", self.workload.name());
        self.failed += jobs;
        self.failures.push(why);
    }

    /// Jobs one repetition runs.
    fn jobs(&self, seed: u64, corpus: Option<&Corpus>) -> u64 {
        match corpus {
            Some(c) if !self.workload.in_process() => c.jobs as u64,
            _ => self.workload.jobs(seed, Scale::Full).len() as u64,
        }
    }

    /// The value a run reports for metric `m`, whose repetitions
    /// summarise to `s`.
    pub fn reported(&self, m: &EndToEnd, s: &Summary) -> f64 {
        s.pick(self.workload.pick(m), m.better)
    }

    pub fn summaries(&self) -> Vec<(Vec<f64>, Summary)> {
        (0..END_TO_END.len())
            .map(|i| {
                let values: Vec<f64> = self.reps.iter().map(|r| r.values()[i]).collect();
                let s = Summary::of(&values).unwrap_or(Summary {
                    n: 0,
                    min: f64::NAN,
                    p25: f64::NAN,
                    median: f64::NAN,
                    p75: f64::NAN,
                    max: f64::NAN,
                });
                (values, s)
            })
            .collect()
    }

    /// Per-layer metrics of the traced repetition, `obs.profile_overhead`
    /// included.
    pub fn layers(&self) -> Vec<(String, f64)> {
        let Some(out) = &self.traced else {
            return Vec::new();
        };
        let bases: Vec<f64> = self.reps.iter().map(|r| r.rate_s / r.host).collect();
        let traced = out.elapsed_s / (out.probe_s / probe::NOMINAL_S);
        let mut layers = out.layers.clone();
        layers.push((
            "obs.profile_overhead".to_string(),
            traced / median(&bases) - 1.0,
        ));
        layers
    }
}

/// Runs this binary as a child and waits for it. Returns its output,
/// the instant it was spawned and its wall time.
pub fn spawn(args: &[&str], out: &Path) -> Result<(std::process::Output, Instant, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let start = Instant::now();
    let output = Command::new(exe)
        .args(args)
        .env("BOSIM_ARTIFACT_DIR", out.join("artifacts"))
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot spawn {args:?}: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{args:?} exited with {}: {}",
            output.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    Ok((output, start, wall))
}

/// One repetition in a `__rep` child.
fn child_repetition(
    w: Workload,
    opts: &Options,
    traced: bool,
    corpus: Option<&Corpus>,
    spans: &mut Spans,
    parent: usize,
) -> Result<(RepOutput, f64), String> {
    let seed = opts.seed.to_string();
    let mut args = vec![
        "__rep",
        w.name(),
        seed.as_str(),
        if traced { "1" } else { "0" },
    ];
    let manifest = corpus.map(|c| c.manifest.to_string_lossy().into_owned());
    args.extend(manifest.as_deref());
    let (output, start, wall) = spawn(&args, &opts.out)?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let out = Json::parse(line)
        .map_err(|e| format!("repetition output is not JSON: {e}"))
        .and_then(|j| RepOutput::from_json(&j))?;
    if let Some(exported) = &out.spans {
        spans.adopt(exported, parent, spans.at(start));
    }
    Ok((out, wall))
}

/// Runs one untraced repetition of `st`'s workload and records it.
fn repetition(st: &mut State, opts: &Options, corpus: Option<&Corpus>, spans: &mut Spans) {
    let w = st.workload;
    let span = spans.begin("rep", "harness", Some(st.span));
    let rep = match corpus {
        Some(c) if !w.in_process() => sweep::sweep_repetition(c, opts, spans, span),
        _ => child_repetition(w, opts, false, None, spans, span).map(|(out, wall)| Rep {
            wall_s: wall,
            setup_s: out.setup_s,
            rate_s: out.simulate_s,
            host: out.probe_s / probe::NOMINAL_S,
            uops: out.retired as f64,
            cycles: out.cycles as f64,
            rss_kb: out.vmhwm_kb,
            digest: out.digest,
            ipc_gm: out.ipc_gm,
            jobs: out.jobs,
            failed: out.failed,
            failures: out.failures,
            runs: out.runs,
        }),
    };
    spans.end(span);
    let s = spans.get(span);
    st.busy_s += (s.end_ns - s.start_ns) as f64 / 1e9;
    match rep {
        Ok(mut rep) => {
            st.attempted += rep.jobs;
            st.failed += rep.failed;
            for why in std::mem::take(&mut rep.failures) {
                st.fail(0, why);
            }
            if let Some(first) = st.reps.first() {
                if first.digest != rep.digest {
                    st.fail(
                        rep.jobs,
                        format!(
                            "repetition {} digest {:016x} differs from the first {:016x}",
                            st.reps.len() + 1,
                            rep.digest,
                            first.digest
                        ),
                    );
                }
            }
            st.reps.push(rep);
        }
        Err(e) => {
            let jobs = st.jobs(opts.seed, corpus);
            st.attempted += jobs;
            st.fail(jobs, e);
            st.gave_up = true;
        }
    }
}

/// The profiled repetition of `st`'s workload, checked against the
/// untraced ones: profiling must not change a simulated statistic.
fn traced_repetition(st: &mut State, opts: &Options, corpus: Option<&Corpus>, spans: &mut Spans) {
    let w = st.workload;
    let span = spans.begin("traced rep", "harness", Some(st.span));
    let res = child_repetition(
        w,
        opts,
        true,
        corpus.filter(|_| !w.in_process()),
        spans,
        span,
    );
    spans.end(span);
    let mut out = match res {
        Ok((out, _)) => out,
        Err(e) => {
            let jobs = st.jobs(opts.seed, corpus);
            st.attempted += jobs;
            st.fail(jobs, e);
            return;
        }
    };
    st.attempted += out.jobs;
    st.failed += out.failed;
    for why in std::mem::take(&mut out.failures) {
        st.fail(0, why);
    }
    if let Some(first) = st.reps.first() {
        let mismatch = if w.in_process() {
            (first.digest != out.digest).then(|| {
                format!(
                    "traced digest {:016x} differs from untraced {:016x}",
                    out.digest, first.digest
                )
            })
        } else {
            // The in-process replay of the sweep grid must reproduce
            // every run the sweep reported.
            first
                .runs
                .iter()
                .find(|r| !out.runs.contains(r))
                .map(|r| format!("sweep run {r:?} is not reproduced in process"))
        };
        if let Some(why) = mismatch {
            st.fail(out.jobs, why);
        }
    }
    st.traced = Some(out);
}

pub fn run(opts: &Options) -> ExitCode {
    let started = Instant::now();
    let mut spans = Spans::new(started);
    let root = spans.begin("run", "harness", None);
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("bosim-benchmark: cannot create {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    let corpus = if opts.workloads.contains(&Workload::TraceSweep) {
        let span = spans.begin("write corpus", "harness", Some(root));
        let corpus = workload::write_corpus(&opts.out.join("corpus"), opts.seed);
        spans.end(span);
        match corpus {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("bosim-benchmark: cannot write the trace-sweep corpus: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let mut states: Vec<State> = opts
        .workloads
        .iter()
        .map(|&workload| State {
            workload,
            span: spans.begin(workload.name(), "harness", Some(root)),
            reps: Vec::new(),
            busy_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            traced: None,
            gave_up: false,
        })
        .collect();
    // Round-robin: each pass gives every workload still under its
    // measuring time one more repetition.
    loop {
        let mut ran = false;
        for st in states.iter_mut().filter(|s| s.wants_more(opts.seconds)) {
            repetition(st, opts, corpus.as_ref(), &mut spans);
            ran = true;
        }
        if !ran {
            break;
        }
    }
    if opts.trace {
        for st in states.iter_mut().filter(|s| !s.gave_up) {
            traced_repetition(st, opts, corpus.as_ref(), &mut spans);
        }
    }
    for st in &states {
        spans.end(st.span);
        report::print_workload(st, opts.seed);
    }
    spans.end(root);

    for (name, doc) in [
        (
            format!("results-{}.json", opts.seed),
            report::results_json(&states, opts),
        ),
        (
            "trace.json".to_string(),
            Json::obj([("spans", spans.to_json())]),
        ),
    ] {
        let path = opts.out.join(name);
        match std::fs::write(&path, doc.to_pretty()) {
            Ok(()) => eprintln!("bosim-benchmark: wrote {}", path.display()),
            Err(e) => eprintln!("bosim-benchmark: cannot write {}: {e}", path.display()),
        }
    }
    eprintln!(
        "bosim-benchmark: finished in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let line = report::final_line(&states, opts);
    println!("{line}");
    if states.iter().all(|s| s.failures.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
