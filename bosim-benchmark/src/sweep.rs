//! The parent's side of a trace-sweep repetition: the cold corpus decode
//! and `bosim sweep` in a child, and the checks on its report.

use crate::run::{spawn, Rep};
use crate::span::Spans;
use crate::stats::{fnv64, median};
use crate::workload::{Corpus, Workload, SWEEP_NAME};
use crate::{probe, Options, VMHWM_TAG};
use bosim_stats::Json;
use bosim_trace::{ArtifactStore, ExternalSpec, TraceFormat};

/// What the sweep report shows, once checked.
struct SweepReport {
    ipc_gm: f64,
    /// Measured-window cycles of every job: the reported subject runs
    /// plus each trace's baseline, recovered from the speedups.
    cycles: f64,
    runs: Vec<(String, String, u64, u64)>,
}

/// Checks the report `bosim sweep` wrote: it parses, and it has one
/// speedup arm per stack with one run per trace, each of which retired
/// its measured window.
fn check_report(text: &str, corpus: &Corpus) -> Result<SweepReport, String> {
    let doc = Json::parse(text).map_err(|e| format!("sweep report is not JSON: {e}"))?;
    let arms = doc
        .get("arms")
        .and_then(Json::as_arr)
        .ok_or("sweep report has no arms")?;
    if arms.len() != corpus.arms {
        return Err(format!("{} arms, expected {}", arms.len(), corpus.arms));
    }
    let mut report = SweepReport {
        ipc_gm: 0.0,
        cycles: 0.0,
        runs: Vec::new(),
    };
    let mut ipcs = Vec::new();
    for (a, arm) in arms.iter().enumerate() {
        let series = arm.get("series").and_then(Json::as_str).unwrap_or("?");
        if arm.get("baseline").and_then(Json::as_str).is_none() {
            return Err(format!("arm {series} is not a speedup arm"));
        }
        let runs = arm.get("runs").and_then(Json::as_arr).unwrap_or_default();
        let values = arm.get("values").and_then(Json::as_arr).unwrap_or_default();
        if runs.len() != corpus.traces.len() || values.len() != runs.len() {
            return Err(format!(
                "arm {series}: {} runs, {} speedups, expected {}",
                runs.len(),
                values.len(),
                corpus.traces.len()
            ));
        }
        for (run, speedup) in runs.iter().zip(values) {
            let num = |key| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let text = |key| {
                run.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            if num("instructions") < corpus.measure as f64 {
                return Err(format!(
                    "arm {series}: {} retired {} of {} instructions",
                    text("benchmark"),
                    num("instructions"),
                    corpus.measure
                ));
            }
            let speedup = speedup.as_f64().unwrap_or(0.0);
            report.cycles += num("cycles");
            if a == 0 {
                // speedup = baseline cycles / subject cycles
                report.cycles += num("cycles") * speedup;
            }
            ipcs.push(num("ipc"));
            report.runs.push((
                text("benchmark"),
                text("config"),
                num("cycles") as u64,
                num("instructions") as u64,
            ));
        }
    }
    report.ipc_gm = bosim_stats::geometric_mean(ipcs).unwrap_or(0.0);
    Ok(report)
}

/// One untraced trace-sweep repetition: the cold corpus decode (its
/// set-up), then `bosim sweep` in a child, with the host-speed probe
/// before, between and after them.
pub fn sweep_repetition(
    corpus: &Corpus,
    opts: &Options,
    spans: &mut Spans,
    parent: usize,
) -> Result<Rep, String> {
    let mut probes = vec![probe::probe()];
    let decode = spans.begin("decode", "trace", Some(parent));
    let store = ArtifactStore::new(u64::MAX, opts.out.join("spill"));
    for path in &corpus.traces {
        store
            .load(&ExternalSpec::new(path, TraceFormat::ChampSim))
            .map_err(|e| format!("cannot decode {}: {e}", path.display()))?;
    }
    drop(store);
    spans.end(decode);
    let d = spans.get(decode);
    let setup_s = (d.end_ns - d.start_ns) as f64 / 1e9;
    probes.push(probe::probe());

    let reports = opts.out.join("sweep");
    let (manifest, reports_arg) = (corpus.manifest.to_string_lossy(), reports.to_string_lossy());
    let sweep = spans.begin("sweep", "cli", Some(parent));
    let (output, _, wall) = spawn(
        &[
            "__bosim",
            "sweep",
            "--corpus",
            &manifest,
            "--out",
            &reports_arg,
            "--threads",
            &Workload::TraceSweep.threads().to_string(),
        ],
        &opts.out,
    )?;
    spans.end(sweep);
    probes.push(probe::probe());
    let stderr = String::from_utf8_lossy(&output.stderr);
    let rss_kb = stderr
        .lines()
        .find_map(|l| l.strip_prefix(VMHWM_TAG))
        .and_then(|v| v.parse().ok())
        .ok_or("bosim child reported no peak resident set")?;
    let path = reports.join(format!("{SWEEP_NAME}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let report = check_report(&text, corpus)?;
    Ok(Rep {
        wall_s: wall,
        setup_s,
        rate_s: wall,
        host: median(&probes) / probe::NOMINAL_S,
        uops: (corpus.jobs as u64 * (corpus.warmup + corpus.measure)) as f64,
        cycles: report.cycles,
        rss_kb,
        digest: fnv64(text.as_bytes()),
        ipc_gm: report.ipc_gm,
        jobs: corpus.jobs as u64,
        failed: 0,
        failures: Vec::new(),
        runs: report.runs,
    })
}
