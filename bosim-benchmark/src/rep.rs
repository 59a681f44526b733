//! One repetition as its child process runs it: build each machine, run
//! it, check its accounting, and report the timings, the result digest
//! and — on the traced repetition — the per-layer numbers.

use crate::replay;
use crate::span::Spans;
use crate::stats::{fnv64, median};
use crate::workload::{Scale, Workload};
use bosim::{Job, SimResult, System};
use bosim_obs::HostProfile;
use bosim_stats::{geometric_mean, Json};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One simulated job, timed and checked.
struct JobRun {
    result: SimResult,
    profile: Option<HostProfile>,
    /// Core-0 µops retired, warm-up included.
    retired: u64,
    /// Simulated cycles, warm-up included.
    cycles: u64,
    steps: u64,
    setup_ns: (u64, u64),
    simulate_ns: (u64, u64),
    check_ns: (u64, u64),
    /// The host-speed probe, timed just before the job.
    probe_s: f64,
    failures: Vec<String>,
}

impl JobRun {
    fn simulate_s(&self) -> f64 {
        (self.simulate_ns.1 - self.simulate_ns.0) as f64 / 1e9
    }
}

/// What a repetition reports to the harness.
#[derive(Debug, Default)]
pub struct RepOutput {
    /// FNV-1a of every job's `SimResult` (host profile stripped).
    pub digest: u64,
    pub jobs: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    pub setup_s: f64,
    pub simulate_s: f64,
    /// Host seconds to set against an untraced repetition's rate basis:
    /// the `simulate` spans in process, decode plus job grid for the
    /// traced sweep.
    pub elapsed_s: f64,
    /// Median host-speed probe time over the jobs.
    pub probe_s: f64,
    pub retired: u64,
    pub cycles: u64,
    pub vmhwm_kb: u64,
    pub ipc_gm: f64,
    pub failures: Vec<String>,
    /// `(benchmark, config, cycles, instructions)` of each measured window.
    pub runs: Vec<(String, String, u64, u64)>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<(String, f64)>,
    pub spans: Option<Json>,
}

/// Runs `jobs` on `threads` host threads, each job timed into
/// setup/simulate/check, with the host profiler on when `traced`. With
/// one thread the jobs run on the calling thread: a worker thread would
/// get an allocator arena of its own, and with it a peak resident set
/// that jumps by megabytes from one seed to the next.
fn run_jobs(jobs: &[Job], threads: usize, traced: bool, epoch: Instant) -> Vec<JobRun> {
    let at = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let run = |job: &Job| {
        let mut config = job.config.clone();
        config.obs.profile = traced;
        let probe_s = crate::probe::probe();
        let t0 = Instant::now();
        let mut sys = System::new(&config, &job.bench);
        let t1 = Instant::now();
        let mut result = sys.run();
        let t2 = Instant::now();
        let (retired, cycles, steps) =
            (sys.core0_stats().retired, sys.cycle(), sys.steps_executed());
        let failures = check(job, &result, &mut sys);
        let t3 = Instant::now();
        let profile = result.obs.take().and_then(|o| o.profile.0);
        JobRun {
            result,
            profile,
            retired,
            cycles,
            steps,
            setup_ns: (at(t0), at(t1)),
            simulate_ns: (at(t1), at(t2)),
            check_ns: (at(t2), at(t3)),
            probe_s,
            failures,
        }
    };
    if threads <= 1 {
        return jobs.iter().map(run).collect();
    }
    let slots: Vec<Mutex<Option<JobRun>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(jobs.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                *slots[i].lock().expect("slots are written once") = Some(run(job));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slots are written once")
                .expect("every job ran")
        })
        .collect()
}

/// The accounting invariants every job must satisfy. Drains the uncore,
/// so `sys` must not run again afterwards.
fn check(job: &Job, r: &SimResult, sys: &mut System) -> Vec<String> {
    let tag = format!("{} [{}]", r.benchmark, r.config);
    let mut failures = Vec::new();
    if let Err(e) = r.check_site_invariants() {
        failures.push(format!("{tag}: {e}"));
    }
    let u = &r.uncore;
    if u.l2_hits + u.l2_prefetched_hits + u.l2_misses != u.l2_accesses {
        failures.push(format!(
            "{tag}: L2 hits {} + prefetched hits {} + misses {} != accesses {}",
            u.l2_hits, u.l2_prefetched_hits, u.l2_misses, u.l2_accesses
        ));
    }
    let requested = job.config.warmup_instructions + job.config.measure_instructions;
    if r.instructions < job.config.measure_instructions || sys.core0_stats().retired < requested {
        failures.push(format!(
            "{tag}: retired {} (window {}) of {requested} requested",
            sys.core0_stats().retired,
            r.instructions
        ));
    }
    let drained = sys.drain_uncore();
    if drained.l3_hits + drained.l3_misses != drained.l3_accesses {
        failures.push(format!(
            "{tag}: after drain, L3 hits {} + misses {} != accesses {}",
            drained.l3_hits, drained.l3_misses, drained.l3_accesses
        ));
    }
    failures
}

/// Digest of a job list's results, in job order.
fn digest(runs: &[JobRun]) -> u64 {
    let text: String = runs.iter().map(|r| format!("{:?}\n", r.result)).collect();
    fnv64(text.as_bytes())
}

fn ipc_gm(runs: &[JobRun]) -> f64 {
    geometric_mean(runs.iter().map(|r| r.result.ipc())).unwrap_or(0.0)
}

/// Folds timed jobs into a repetition's output and its spans, under
/// `parent` when the jobs ran inside a larger span.
fn summarize(runs: &[JobRun], spans: &mut Spans, parent: Option<usize>) -> RepOutput {
    for r in runs {
        let name = format!("{} [{}]", r.result.benchmark, r.result.config);
        let job = spans.push(&name, "harness", parent, r.setup_ns.0, r.check_ns.1);
        spans.push("setup", "sim", Some(job), r.setup_ns.0, r.setup_ns.1);
        spans.push(
            "simulate",
            "sim",
            Some(job),
            r.simulate_ns.0,
            r.simulate_ns.1,
        );
        spans.push("check", "sim", Some(job), r.check_ns.0, r.check_ns.1);
    }
    RepOutput {
        digest: digest(runs),
        jobs: runs.len() as u64,
        failed: runs.iter().filter(|r| !r.failures.is_empty()).count() as u64,
        setup_s: runs
            .iter()
            .map(|r| (r.setup_ns.1 - r.setup_ns.0) as f64 / 1e9)
            .sum(),
        simulate_s: runs.iter().map(JobRun::simulate_s).sum(),
        elapsed_s: runs.iter().map(JobRun::simulate_s).sum(),
        probe_s: median(&runs.iter().map(|r| r.probe_s).collect::<Vec<_>>()),
        retired: runs.iter().map(|r| r.retired).sum(),
        cycles: runs.iter().map(|r| r.cycles).sum(),
        ipc_gm: ipc_gm(runs),
        failures: runs.iter().flat_map(|r| r.failures.clone()).collect(),
        runs: runs
            .iter()
            .map(|r| {
                let res = &r.result;
                (
                    res.benchmark.clone(),
                    res.config.clone(),
                    res.cycles,
                    res.instructions,
                )
            })
            .collect(),
        ..RepOutput::default()
    }
}

/// One repetition of an in-process workload, in this process.
pub fn in_process(workload: Workload, seed: u64, scale: Scale, traced: bool) -> RepOutput {
    let mut spans = Spans::new(Instant::now());
    let jobs = workload.jobs(seed, scale);
    let runs = run_jobs(&jobs, workload.threads(), traced, spans.epoch());
    let mut out = summarize(&runs, &mut spans, None);
    if traced {
        let specs = workload.specs(seed);
        let id = spans.begin("replay", "harness", None);
        let decode_uops = match scale {
            Scale::Full => 100_000,
            Scale::Quick => 2_000,
        };
        let (decode_s, uops) = replay::decode(&specs, decode_uops);
        let replays = replay::run(&specs, seed, scale);
        spans.end(id);
        out.layers = layer_metrics(&runs, &replays, decode_s, uops);
    }
    out.spans = Some(spans.to_json());
    out
}

/// The traced repetition of trace-sweep: the sweep's own corpus decode
/// and job grid, run in this process with the host profiler on, on as
/// many threads as `bosim sweep` uses.
pub fn traced_sweep(manifest: &Path, seed: u64) -> Result<RepOutput, String> {
    let mut spans = Spans::new(Instant::now());
    let decode = spans.begin("decode", "trace", None);
    let corpus = bosim_cli::corpus::load(manifest).map_err(|e| e.to_string())?;
    let experiment = bosim_cli::commands::sweep_experiment(&corpus).map_err(|e| e.to_string())?;
    spans.end(decode);
    let d = spans.get(decode);
    let decode_s = (d.end_ns - d.start_ns) as f64 / 1e9;
    let plan = experiment.plan().map_err(|e| e.to_string())?;
    let mut uops = 0;
    for bench in plan.benchmarks() {
        if let Some(ext) = &bench.external {
            uops += ext.load().map_err(|e| e.to_string())?.lap_len() as u64;
        }
    }
    let sweep = spans.begin("sweep", "cli", None);
    let runs = run_jobs(
        plan.jobs(),
        Workload::TraceSweep.threads(),
        true,
        spans.epoch(),
    );
    spans.end(sweep);
    let mut out = summarize(&runs, &mut spans, Some(sweep));
    out.elapsed_s = (spans.get(sweep).end_ns - spans.get(decode).start_ns) as f64 / 1e9;
    let replays = replay::run(&Workload::TraceSweep.specs(seed), seed, Scale::Full);
    out.layers = layer_metrics(&runs, &replays, decode_s, uops);
    out.spans = Some(spans.to_json());
    Ok(out)
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn vmhwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The per-layer metrics of a traced repetition, in catalogue order
/// (`obs.profile_overhead` excepted: it needs the untraced repetitions).
///
/// The profiler samples every 64th call of each phase and scales up, so
/// its totals overshoot; layer seconds here are its phase shares of the
/// measured `simulate` spans, which do add up to measured time.
fn layer_metrics(
    runs: &[JobRun],
    replays: &replay::Replays,
    decode_s: f64,
    decode_uops: u64,
) -> Vec<(String, f64)> {
    let sum = |f: &dyn Fn(&JobRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let phase = |label: &str| {
        let mut nanos = 0.0;
        let mut calls = 0.0;
        for p in runs.iter().filter_map(|r| r.profile.as_ref()) {
            for c in p.phases.iter().filter(|c| c.phase == label) {
                nanos += c.nanos as f64;
                calls += c.calls as f64;
            }
        }
        (nanos, calls)
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let (core_ns, core_calls) = phase("core-tick");
    let (uncore_ns, uncore_calls) = phase("uncore-tick");
    let (dram_ns, _) = phase("dram");
    let (wheel_ns, _) = phase("fast-forward");
    // The phases inside the simulate span; decode runs in set-up and
    // dram nests inside uncore-tick.
    let attributed_ns = core_ns + uncore_ns + wheel_ns;
    let simulate_s: f64 = runs.iter().map(JobRun::simulate_s).sum();
    let scaled = |ns: f64| ratio(ns, attributed_ns) * simulate_s;

    let retired = sum(&|r| r.retired);
    let instructions = sum(&|r| r.result.instructions);
    let mispredicts = sum(&|r| r.result.core.mispredicts);
    let dl1_misses = sum(&|r| r.result.core.dl1_misses);
    let dl1_accesses = dl1_misses + sum(&|r| r.result.core.dl1_hits);
    let l2_accesses = sum(&|r| r.result.uncore.l2_accesses);
    let l2_hits = sum(&|r| r.result.uncore.l2_hits);
    let l2_prefetched_hits = sum(&|r| r.result.uncore.l2_prefetched_hits);
    let l3_accesses = sum(&|r| r.result.uncore.l3_accesses);
    let l3_hits = sum(&|r| r.result.uncore.l3_hits);
    let useful = sum(&|r| r.result.l2_site.useful);
    let prefetch_fills = sum(&|r| r.result.l2_site.prefetch_fills);
    let l2_misses = sum(&|r| r.result.l2_site.misses);
    let reads = sum(&|r| r.result.dram.reads);
    let writes = sum(&|r| r.result.dram.writes);
    let row_hits = sum(&|r| r.result.dram.row_hits);
    let cycles = sum(&|r| r.cycles);
    let steps = sum(&|r| r.steps);

    let metrics: Vec<(&str, f64)> = vec![
        ("trace.gen_ns_per_uop", replays.gen_ns_per_uop),
        (
            "trace.decode_ns_per_uop",
            ratio(decode_s * 1e9, decode_uops as f64),
        ),
        ("trace.decode_s", decode_s),
        ("trace.decode_uops", decode_uops as f64),
        ("cpu.tick_s", scaled(core_ns)),
        ("cpu.share", ratio(core_ns, attributed_ns)),
        ("cpu.tick_calls", core_calls),
        ("cpu.ns_per_uop", ratio(scaled(core_ns) * 1e9, retired)),
        ("cpu.retired", retired),
        ("cpu.instructions", instructions),
        ("cpu.mispredicts", mispredicts),
        (
            "cpu.mispredicts_per_ki",
            ratio(mispredicts * 1000.0, instructions),
        ),
        ("cpu.dl1_accesses", dl1_accesses),
        ("cpu.dl1_misses", dl1_misses),
        ("cpu.dl1_miss_ratio", ratio(dl1_misses, dl1_accesses)),
        ("cpu.l1_prefetches", sum(&|r| r.result.core.l1_prefetches)),
        ("uncore.tick_s", scaled(uncore_ns)),
        ("uncore.share", ratio(uncore_ns, attributed_ns)),
        ("uncore.tick_calls", uncore_calls),
        ("uncore.l2_accesses", l2_accesses),
        ("uncore.l2_hits", l2_hits),
        ("uncore.l2_prefetched_hits", l2_prefetched_hits),
        (
            "uncore.l2_hit_ratio",
            ratio(l2_hits + l2_prefetched_hits, l2_accesses),
        ),
        ("uncore.l3_accesses", l3_accesses),
        ("uncore.l3_hits", l3_hits),
        ("uncore.l3_hit_ratio", ratio(l3_hits, l3_accesses)),
        (
            "uncore.l2_fill_merges",
            sum(&|r| r.result.uncore.l2_fill_merges),
        ),
        (
            "uncore.l2_prefetches_issued",
            sum(&|r| r.result.uncore.l2_prefetches_issued),
        ),
        (
            "uncore.l2_prefetches_cancelled",
            sum(&|r| r.result.uncore.l2_prefetches_cancelled),
        ),
        (
            "uncore.l2_prefetches_redundant",
            sum(&|r| r.result.uncore.l2_prefetches_redundant),
        ),
        ("cache.ns_per_access", replays.cache_ns_per_access),
        ("best-offset.useful", useful),
        ("best-offset.prefetch_fills", prefetch_fills),
        ("best-offset.l2_misses", l2_misses),
        ("best-offset.accuracy", ratio(useful, prefetch_fills)),
        ("best-offset.coverage", ratio(useful, useful + l2_misses)),
        (
            "best-offset.late_promotions",
            sum(&|r| r.result.l2_site.late_promotions),
        ),
        (
            "best-offset.unused_evicted",
            sum(&|r| r.result.l2_site.unused_evicted),
        ),
        ("best-offset.ns_per_access", replays.bo_ns_per_access),
        ("dram.tick_s", scaled(dram_ns)),
        ("dram.share", ratio(dram_ns, attributed_ns)),
        ("dram.reads", reads),
        ("dram.writes", writes),
        ("dram.row_hits", row_hits),
        ("dram.row_hit_ratio", ratio(row_hits, reads + writes)),
        ("dram.urgent_reads", sum(&|r| r.result.dram.urgent_reads)),
        ("dram.ns_per_read", replays.dram_ns_per_read),
        ("sim.simulate_s", simulate_s),
        ("sim.cycles", cycles),
        ("sim.steps", steps),
        ("sim.step_ratio", ratio(steps, cycles)),
        ("sim.wheel_s", scaled(wheel_ns)),
        ("sim.loop_self_s", simulate_s - attributed_ns / 1e9),
        ("sim.ipc_gm", ipc_gm(runs)),
        ("obs.profile_attributed_s", attributed_ns / 1e9),
    ];
    metrics
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn u64_of(j: &Json, key: &str) -> u64 {
    match j.get(key) {
        Some(Json::UInt(u)) => *u,
        _ => 0,
    }
}

fn f64_of(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

impl RepOutput {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("digest", Json::from(format!("{:016x}", self.digest))),
            ("jobs", Json::from(self.jobs)),
            ("failed", Json::from(self.failed)),
            ("setup_s", Json::from(self.setup_s)),
            ("simulate_s", Json::from(self.simulate_s)),
            ("elapsed_s", Json::from(self.elapsed_s)),
            ("probe_s", Json::from(self.probe_s)),
            ("retired", Json::from(self.retired)),
            ("cycles", Json::from(self.cycles)),
            ("vmhwm_kb", Json::from(self.vmhwm_kb)),
            ("ipc_gm", Json::from(self.ipc_gm)),
            (
                "failures",
                Json::arr(self.failures.iter().map(|f| Json::from(f.as_str()))),
            ),
            (
                "runs",
                Json::arr(self.runs.iter().map(|(b, c, cycles, instructions)| {
                    Json::obj([
                        ("benchmark", Json::from(b.as_str())),
                        ("config", Json::from(c.as_str())),
                        ("cycles", Json::from(*cycles)),
                        ("instructions", Json::from(*instructions)),
                    ])
                })),
            ),
            (
                "layers",
                Json::obj(self.layers.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
            ),
            ("spans", Json::from(self.spans.clone())),
        ])
    }

    pub fn from_json(j: &Json) -> Result<RepOutput, String> {
        let digest = j
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or("repetition output has no digest")?;
        let strings = |key| -> Vec<String> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let runs = j
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|r| {
                let text = |key| r.get(key).and_then(Json::as_str).unwrap_or("").to_string();
                (
                    text("benchmark"),
                    text("config"),
                    u64_of(r, "cycles"),
                    u64_of(r, "instructions"),
                )
            })
            .collect();
        let layers = match j.get("layers") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(RepOutput {
            digest,
            jobs: u64_of(j, "jobs"),
            failed: u64_of(j, "failed"),
            setup_s: f64_of(j, "setup_s"),
            simulate_s: f64_of(j, "simulate_s"),
            elapsed_s: f64_of(j, "elapsed_s"),
            probe_s: f64_of(j, "probe_s"),
            retired: u64_of(j, "retired"),
            cycles: u64_of(j, "cycles"),
            vmhwm_kb: u64_of(j, "vmhwm_kb"),
            ipc_gm: f64_of(j, "ipc_gm"),
            failures: strings("failures"),
            runs,
            layers,
            spans: j.get("spans").cloned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn a_quick_repetition_passes_its_checks_and_round_trips() {
        let out = in_process(Workload::CoreBound, 11, Scale::Quick, true);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.jobs, 4);
        assert!(out.retired >= 4 * 25_000 && out.cycles > 0 && out.simulate_s > 0.0);
        let names: Vec<&str> = out.layers.iter().map(|(k, _)| k.as_str()).collect();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(want.pop(), Some("obs.profile_overhead"));
        assert_eq!(names, want);
        assert!(out.layers.iter().all(|(_, v)| v.is_finite()));

        let back = RepOutput::from_json(&Json::parse(&out.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.digest, out.digest);
        assert_eq!(back.runs, out.runs);
        assert_eq!(back.layers, out.layers);
        assert_eq!(back.setup_s, out.setup_s);
    }

    #[test]
    fn the_seed_decides_the_digest() {
        let run = |seed| in_process(Workload::MemoryBound, seed, Scale::Quick, false).digest;
        let (a, b, c) = (run(11), run(11), run(12));
        assert_eq!(a, b, "same seed, same results");
        assert_ne!(a, c, "another seed, other inputs");
    }
}
