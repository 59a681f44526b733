//! `bosim-benchmark`: absolute simulator throughput on four workloads,
//! with a traced per-layer split. See `README.md` next to this crate.
//!
//! The parent process deals repetitions round-robin across the chosen
//! workloads, so host drift hits every workload alike. Each repetition
//! runs in a fresh child process — this binary re-executed with
//! `__rep`, or with `__bosim` to run the `bosim` command line — so
//! caches, the trace artifact store and the peak resident set are the
//! repetition's own.

mod compare;
mod metrics;
mod probe;
mod rep;
mod replay;
mod report;
mod run;
mod span;
mod stats;
mod sweep;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Scale, Workload};

const USAGE: &str = "\
usage:
  bosim-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  bosim-benchmark --compare PARENT CHANGE      (each a results file or a directory of them)
  bosim-benchmark --quick

workloads: core-bound, memory-bound, multicore-thrash, trace-sweep (default: all)
--seed     folded into every benchmark and machine seed (default 11)
--seconds  measuring time per workload (default 25)
--trace 1  add one profiled repetition per workload and report per-layer metrics
--out      results-SEED.json, trace.json and the corpus go here (default target/benchmark)";

const DEFAULT_SEED: u64 = 11;
pub const VMHWM_TAG: &str = "bosim-benchmark vmhwm_kb=";

pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

enum Mode {
    Run(Options),
    Compare(PathBuf, PathBuf),
    Quick,
    Help,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        out: PathBuf::from("target/benchmark"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    n => vec![Workload::parse(n).ok_or(format!("unknown workload {n:?}"))?],
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--compare" => {
                let parent = PathBuf::from(value()?);
                return Ok(Mode::Compare(parent, PathBuf::from(value()?)));
            }
            "--quick" => return Ok(Mode::Quick),
            "--help" | "-h" => return Ok(Mode::Help),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Mode::Run(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("__rep") => return child_rep(&args[1..]),
        Some("__bosim") => return child_bosim(&args[1..]),
        _ => {}
    }
    match parse_args(&args) {
        Ok(Mode::Run(opts)) => run::run(&opts),
        Ok(Mode::Compare(parent, change)) => compare::run(&parent, &change),
        Ok(Mode::Quick) => {
            let failures = quick();
            for f in &failures {
                eprintln!("bosim-benchmark: FAILED {f}");
            }
            if failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Mode::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bosim-benchmark: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `__rep WORKLOAD SEED TRACED [MANIFEST]`: one repetition, reported as
/// a JSON line on stdout.
fn child_rep(args: &[String]) -> ExitCode {
    let [name, seed, traced, rest @ ..] = args else {
        eprintln!("__rep WORKLOAD SEED TRACED [MANIFEST]");
        return ExitCode::from(2);
    };
    let (Some(w), Ok(seed)) = (Workload::parse(name), seed.parse()) else {
        eprintln!("__rep: bad workload or seed");
        return ExitCode::from(2);
    };
    let out = match (w, rest) {
        (Workload::TraceSweep, [manifest]) => rep::traced_sweep(Path::new(manifest), seed),
        (Workload::TraceSweep, _) => Err("trace-sweep repetitions need a manifest".to_string()),
        _ => Ok(rep::in_process(w, seed, Scale::Full, traced == "1")),
    };
    let mut out = match out {
        Ok(out) => out,
        Err(e) => {
            eprintln!("__rep: {e}");
            return ExitCode::FAILURE;
        }
    };
    match rep::vmhwm_kb() {
        Ok(kb) => out.vmhwm_kb = kb,
        Err(e) => out.failures.push(e),
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

/// `__bosim ARGS..`: the `bosim` command line, through the same entry
/// point as the `bosim` binary, then this process's peak resident set
/// on stderr.
fn child_bosim(args: &[String]) -> ExitCode {
    let code = match bosim_cli::dispatch(args) {
        Ok(()) => 0,
        Err(e @ bosim_cli::CliError::Usage(_)) => {
            eprintln!("bosim: {e}");
            2
        }
        Err(e) => {
            eprintln!("bosim: {e}");
            1
        }
    };
    match rep::vmhwm_kb() {
        Ok(kb) => eprintln!("{VMHWM_TAG}{kb}"),
        Err(e) => eprintln!("bosim-benchmark: {e}"),
    }
    ExitCode::from(code)
}

/// The smoke test: each in-process workload at a tiny size, untraced
/// and traced, in this process. Returns the failures.
fn quick() -> Vec<String> {
    let mut failures = Vec::new();
    for w in Workload::ALL.into_iter().filter(|w| w.in_process()) {
        let plain = rep::in_process(w, DEFAULT_SEED, Scale::Quick, false);
        let traced = rep::in_process(w, DEFAULT_SEED, Scale::Quick, true);
        println!(
            "{}: {} jobs, {:.4} s simulated, {:.3} Muops/s, digest {:016x}",
            w.name(),
            plain.jobs,
            plain.simulate_s,
            plain.retired as f64 / plain.simulate_s / 1e6,
            plain.digest
        );
        for f in plain.failures.iter().chain(&traced.failures) {
            failures.push(format!("{}: {f}", w.name()));
        }
        if plain.digest != traced.digest {
            failures.push(format!("{}: profiling changed the results", w.name()));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn a_single_workload_invocation_parses() {
        let Ok(Mode::Run(o)) = parse_args(&args(
            "--workload memory-bound --seed 7 --seconds 10 --trace 1",
        )) else {
            panic!("expected a run");
        };
        assert_eq!(o.workloads, [Workload::MemoryBound]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }

    #[test]
    fn quick_smoke_passes() {
        let failures = quick();
        assert!(failures.is_empty(), "{failures:?}");
    }
}
