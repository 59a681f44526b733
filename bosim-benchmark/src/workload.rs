//! The four workloads: which benchmarks run on which machine, how long,
//! and how the seed enters them.
//!
//! Sizes are chosen so one repetition takes one to two seconds on a
//! small host: long enough that process start-up is noise, short enough
//! that a measuring window holds many repetitions to take medians over.

use crate::metrics::EndToEnd;
use crate::stats::Pick;
use bosim::{prefetchers, Job, SimConfig};
use bosim_trace::{capture, champsim, suite, BenchmarkSpec};
use std::io;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CoreBound,
    MemoryBound,
    MulticoreThrash,
    TraceSweep,
}

/// Run length: the benchmark proper, or a seconds-long smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

/// The sweep's experiment name, and so its report's file stem.
pub const SWEEP_NAME: &str = "trace_sweep";

/// Traces of the trace-sweep corpus.
const SWEEP_TRACES: [&str; 4] = ["462", "429", "433", "470"];

/// The sweep's (stack, baseline) pairs: 4 traces x {bo, next-line, none}
/// deduplicate to 12 jobs.
const SWEEP_STACKS: [(&str, &str); 2] = [("l2:bo", "l2:none"), ("l2:next-line", "l2:none")];

struct Shape {
    cores: usize,
    bo: bool,
    warmup: u64,
    measure: u64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CoreBound,
        Workload::MemoryBound,
        Workload::MulticoreThrash,
        Workload::TraceSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CoreBound => "core-bound",
            Workload::MemoryBound => "memory-bound",
            Workload::MulticoreThrash => "multicore-thrash",
            Workload::TraceSweep => "trace-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether repetitions run in the harness's own child process
    /// (`false`: they run the `bosim sweep` command).
    pub fn in_process(self) -> bool {
        self != Workload::TraceSweep
    }

    /// Host threads one repetition uses.
    pub fn threads(self) -> usize {
        match self {
            Workload::TraceSweep => 2,
            _ => 1,
        }
    }

    /// Which repetition of a run metric `m` reports here. A repetition on
    /// two threads is fast only while both of a small host's CPUs are
    /// quiet at once, which is rare, so its best repetition wanders: such
    /// a workload reports the median instead.
    pub fn pick(self, m: &EndToEnd) -> Pick {
        if self.threads() > 1 {
            Pick::Median
        } else {
            m.pick
        }
    }

    fn benches(self) -> &'static [&'static str] {
        match self {
            Workload::CoreBound => &["444", "416", "456", "400"],
            Workload::MemoryBound => &["429", "433", "470", "471"],
            Workload::MulticoreThrash => &["462", "433", "444"],
            Workload::TraceSweep => &SWEEP_TRACES,
        }
    }

    fn shape(self, scale: Scale) -> Shape {
        let (warmup, measure) = match (self, scale) {
            (Workload::CoreBound, Scale::Full) => (300_000, 1_200_000),
            (Workload::MemoryBound, Scale::Full) => (200_000, 800_000),
            (Workload::MulticoreThrash, Scale::Full) => (25_000, 100_000),
            (Workload::TraceSweep, Scale::Full) => (60_000, 240_000),
            (Workload::MulticoreThrash, Scale::Quick) => (2_000, 8_000),
            (_, Scale::Quick) => (5_000, 20_000),
        };
        Shape {
            cores: if self == Workload::MulticoreThrash {
                4
            } else {
                1
            },
            bo: self != Workload::CoreBound,
            warmup,
            measure,
        }
    }

    /// The workload's synthetic benchmarks with `seed` folded into their
    /// generator seeds (for trace-sweep: the specs its corpus is
    /// captured from).
    pub fn specs(self, seed: u64) -> Vec<BenchmarkSpec> {
        self.benches()
            .iter()
            .map(|id| {
                let mut spec = suite::benchmark(id).expect("workload benchmarks are suite ids");
                spec.seed ^= seed;
                spec
            })
            .collect()
    }

    /// The simulations one repetition of an in-process workload runs.
    pub fn jobs(self, seed: u64, scale: Scale) -> Vec<Job> {
        assert!(self.in_process(), "{} runs through bosim", self.name());
        let shape = self.shape(scale);
        let mut config = SimConfig {
            active_cores: shape.cores,
            warmup_instructions: shape.warmup,
            measure_instructions: shape.measure,
            ..SimConfig::default()
        };
        config.seed ^= seed;
        if shape.bo {
            config = config.with_prefetcher(prefetchers::bo_default());
        }
        self.specs(seed)
            .into_iter()
            .map(|bench| Job {
                bench,
                config: config.clone(),
            })
            .collect()
    }
}

/// The trace-sweep corpus on disk.
pub struct Corpus {
    pub manifest: PathBuf,
    pub traces: Vec<PathBuf>,
    /// Simulations in the sweep grid.
    pub jobs: usize,
    /// Stacks reported as speedup arms.
    pub arms: usize,
    pub warmup: u64,
    pub measure: u64,
}

/// Writes the trace-sweep corpus into `dir`: one ChampSim trace per
/// benchmark, captured from the seeded specs, and the manifest naming
/// them and the stacks. A trace is as long as a simulation's warm-up plus
/// measured window, so none wraps around.
pub fn write_corpus(dir: &Path, seed: u64) -> io::Result<Corpus> {
    std::fs::create_dir_all(dir)?;
    let shape = Workload::TraceSweep.shape(Scale::Full);
    let uops = (shape.warmup + shape.measure) as usize;
    let mut manifest = format!(
        "name = \"{SWEEP_NAME}\"\ninstructions = {}\nwarmup = {}\n",
        shape.measure, shape.warmup
    );
    let mut traces = Vec::new();
    for spec in Workload::TraceSweep.specs(seed) {
        let file = format!("{}.champsim", spec.short);
        let path = dir.join(&file);
        std::fs::write(&path, champsim::encode(&capture(&mut spec.build(), uops)))?;
        manifest.push_str(&format!(
            "\n[[trace]]\npath = \"{file}\"\nformat = \"champsim\"\nname = \"{}\"\n",
            spec.short
        ));
        traces.push(path);
    }
    for (stack, baseline) in SWEEP_STACKS {
        manifest.push_str(&format!(
            "\n[[stack]]\nstack = \"{stack}\"\nbaseline = \"{baseline}\"\n"
        ));
    }
    let path = dir.join("corpus.toml");
    std::fs::write(&path, manifest)?;
    let mut configs: Vec<&str> = SWEEP_STACKS.iter().flat_map(|&(s, b)| [s, b]).collect();
    configs.sort_unstable();
    configs.dedup();
    Ok(Corpus {
        manifest: path,
        jobs: traces.len() * configs.len(),
        arms: SWEEP_STACKS.len(),
        traces,
        warmup: shape.warmup,
        measure: shape.measure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }

    #[test]
    fn the_seed_reaches_specs_and_configs() {
        let a = Workload::MemoryBound.jobs(11, Scale::Quick);
        let b = Workload::MemoryBound.jobs(12, Scale::Quick);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.bench.seed, y.bench.seed);
            assert_ne!(x.config.seed, y.config.seed);
            assert!(x.config.label().ends_with("/BO"), "{}", x.config.label());
        }
        let thrash = Workload::MulticoreThrash.jobs(11, Scale::Full);
        assert_eq!(thrash[0].config.active_cores, 4);
    }
}
