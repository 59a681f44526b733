//! Synthetic benchmark construction.
//!
//! The paper evaluates on SPEC CPU2006 traces, which are proprietary. As a
//! substitution (see `DESIGN.md` §1) each benchmark is modelled by a
//! [`BenchmarkSpec`]: a weighted mixture of access-pattern *kernels*
//! (sequential/strided streams, pointer chases, gathers, compute loops,
//! branchy code, write scans) reproducing the pattern class the paper
//! attributes to that benchmark.
//!
//! Specs are plain data (`Clone`, `Debug`); [`BenchmarkSpec::build`]
//! instantiates a fresh deterministic [`SynthSource`] for every run.

use crate::ingest::{ExternalSpec, TraceError};
use crate::kernels::KernelState;
use crate::record::MicroOp;
use crate::source::TraceSource;

/// Configuration of one access-pattern kernel.
///
/// All sizes are in bytes; stride patterns are in 64-byte lines.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelCfg {
    /// Interleaved constant-stride load streams.
    Stream(StreamCfg),
    /// Dependent pointer chasing over a pseudo-random permutation.
    Chase(ChaseCfg),
    /// Indexed gathers: sequential index loads + dependent random loads.
    Gather(GatherCfg),
    /// Compute-dominated loop over a cache-resident buffer.
    Compute(ComputeCfg),
    /// Compute with hard-to-predict conditional branches.
    Branchy(BranchyCfg),
    /// Sequential write scan (the §5.1 cache-thrashing micro-benchmark).
    ScanWrite(ScanWriteCfg),
}

/// Interleaved constant-stride streams.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCfg {
    /// Number of concurrently advancing streams (round-robin interleaved).
    pub streams: u32,
    /// Bytes of virtual address space per stream (wraps around).
    pub region_bytes: u64,
    /// Line-stride pattern applied cyclically, e.g. `[1]` is a sequential
    /// stream, `[3, 2]` produces the lbm-like +5-lines-per-2-accesses
    /// pattern, `[29, 29, 30]` the GemsFDTD-like ~29.33 period.
    pub pattern: Vec<i64>,
    /// Loads issued within each touched line before advancing to the next
    /// pattern step (real code reads several words per line; only the
    /// first access misses the DL1). Must be ≥ 1.
    pub loads_per_line: u32,
    /// Independent ALU/FP ops emitted after each load (compute intensity).
    pub compute_per_load: u32,
    /// Use FP ops (latency 3) instead of Int ops for the compute filler.
    pub fp: bool,
    /// Emit a store to the loaded line every N loads (0 = never).
    pub store_every: u32,
}

/// Dependent pointer chase.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaseCfg {
    /// Bytes of the chased region (rounded up to a power-of-two of lines).
    pub region_bytes: u64,
    /// Independent chains; 1 = fully serialised (mcf-like), more = MLP.
    pub chains: u32,
    /// ALU ops between dependent loads.
    pub compute_per_load: u32,
    /// Emit a poorly-predictable branch every N loads (0 = never).
    pub branch_every: u32,
}

/// Indexed gather (`A[B[i]]`).
#[derive(Debug, Clone, PartialEq)]
pub struct GatherCfg {
    /// Sequentially-read index array size in bytes.
    pub index_region_bytes: u64,
    /// Randomly-gathered data region size in bytes.
    pub data_region_bytes: u64,
    /// ALU ops after each index+data pair.
    pub compute_per_pair: u32,
}

/// Compute-dominated kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeCfg {
    /// µops per loop iteration (excluding the loop branch).
    pub ops_per_iter: u32,
    /// Per-mille of compute ops that are FP.
    pub fp_permille: u32,
    /// Per-mille of compute ops that are divides (long latency).
    pub div_permille: u32,
    /// Dependency chain length (higher = less ILP).
    pub chain_len: u32,
    /// Cache-resident buffer touched by occasional loads.
    pub resident_bytes: u64,
    /// One load every N ops (0 = never).
    pub load_every: u32,
    /// Distinct code blocks cycled through (instruction footprint knob).
    pub code_blocks: u32,
}

/// Branchy kernel with data-dependent branches.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchyCfg {
    /// ALU ops between conditional branches.
    pub ops_per_branch: u32,
    /// Per-mille probability that a data-dependent branch is taken.
    pub taken_permille: u32,
    /// Per-mille of branches that are well-predictable (loop-like).
    pub predictable_permille: u32,
    /// Resident buffer for the occasional data loads.
    pub resident_bytes: u64,
    /// One load every N ops (0 = never).
    pub load_every: u32,
    /// Instruction footprint knob.
    pub code_blocks: u32,
}

/// Sequential write scan, the cache-thrashing micro-benchmark of §5.1:
/// "thrashes the L3 cache by writing a huge array, going through the array
/// quickly and sequentially".
#[derive(Debug, Clone, PartialEq)]
pub struct ScanWriteCfg {
    /// Bytes of the written array.
    pub region_bytes: u64,
    /// Stores per iteration.
    pub stores_per_iter: u32,
    /// ALU ops per store.
    pub compute_per_store: u32,
}

/// How a benchmark alternates between its kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Fine-grained weighted interleave: kernel `i` contributes
    /// `weights[i]` consecutive iterations per round.
    Interleaved(Vec<u32>),
    /// Coarse phases: `(kernel index, iterations)` entries, looped.
    Phased(Vec<(usize, u64)>),
}

/// A complete benchmark description: either a synthetic kernel mixture
/// or a pointer to an external trace file.
///
/// Synthetic specs are what the 29-benchmark suite builds; file-backed
/// specs come from [`BenchmarkSpec::from_trace`] and flow through the
/// same experiment machinery (the [`external`](Self::external) field
/// short-circuits [`source`](Self::source) to the file loader).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Full name, e.g. `"433.milc-like"`.
    pub name: String,
    /// Short SPEC-style id used on figure axes, e.g. `"433"`.
    pub short: String,
    /// The kernels of the mixture (empty for file-backed specs).
    pub kernels: Vec<KernelCfg>,
    /// Kernel schedule (ignored for file-backed specs).
    pub schedule: Schedule,
    /// Seed for all pseudo-random decisions of the generators.
    pub seed: u64,
    /// External trace backing this benchmark; when set, the kernels and
    /// schedule are ignored and [`source`](Self::source) replays the
    /// file.
    pub external: Option<ExternalSpec>,
}

/// Virtual-address layout constants for generated benchmarks.
pub mod layout {
    /// Code base for kernel `k`.
    pub fn code_base(kernel: usize) -> u64 {
        0x0040_0000 + kernel as u64 * 0x0100_0000
    }

    /// Data region base for kernel `k` (regions are 64 GiB apart).
    pub fn data_base(kernel: usize) -> u64 {
        0x0100_0000_0000 + kernel as u64 * 0x0010_0000_0000
    }

    /// Secondary data region (e.g. gather targets) for kernel `k`.
    pub fn data_base2(kernel: usize) -> u64 {
        data_base(kernel) + 0x0008_0000_0000
    }

    /// First architectural register of kernel `k`'s private window.
    pub fn reg_base(kernel: usize) -> u8 {
        (kernel as u8) * 8
    }
}

impl BenchmarkSpec {
    /// Describes a file-backed benchmark replaying `external`. The
    /// benchmark name and short label are the spec's name.
    pub fn from_trace(external: ExternalSpec) -> Self {
        BenchmarkSpec {
            name: external.name.clone(),
            short: external.name.clone(),
            kernels: Vec::new(),
            schedule: Schedule::Interleaved(Vec::new()),
            seed: 0,
            external: Some(external),
        }
    }

    /// Instantiates the trace source for this spec: the file replayer
    /// for file-backed specs, a fresh deterministic [`SynthSource`]
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns the trace load/decode error of a file-backed spec
    /// (synthetic specs cannot fail here — they panic on malformed
    /// kernel configurations, see [`build`](Self::build)).
    pub fn source(&self) -> Result<Box<dyn TraceSource>, TraceError> {
        match &self.external {
            Some(ext) => Ok(Box::new(ext.load()?)),
            None => Ok(Box::new(self.build())),
        }
    }

    /// Instantiates a fresh deterministic synthetic trace source for
    /// this spec. Prefer [`source`](Self::source), which also handles
    /// file-backed specs.
    ///
    /// # Panics
    ///
    /// Panics if the spec is file-backed, or malformed (no kernels, more
    /// than 8 kernels, an empty schedule, or a schedule referencing a
    /// missing kernel).
    pub fn build(&self) -> SynthSource {
        assert!(
            self.external.is_none(),
            "file-backed benchmark {} has no synthetic source — use source()",
            self.name
        );
        assert!(!self.kernels.is_empty(), "benchmark needs kernels");
        assert!(
            self.kernels.len() <= 8,
            "at most 8 kernels per benchmark (register windows)"
        );
        match &self.schedule {
            Schedule::Interleaved(w) => {
                assert_eq!(w.len(), self.kernels.len(), "one weight per kernel");
                assert!(w.iter().any(|&x| x > 0), "all-zero weights");
            }
            Schedule::Phased(p) => {
                assert!(!p.is_empty(), "empty phase list");
                for &(k, n) in p {
                    assert!(k < self.kernels.len(), "phase references kernel {k}");
                    assert!(n > 0, "zero-length phase");
                }
            }
        }
        let kernels: Vec<KernelState> = self
            .kernels
            .iter()
            .enumerate()
            .map(|(i, cfg)| KernelState::new(cfg, i, self.seed ^ (i as u64) << 32))
            .collect();
        // The scheduler advances its cursor *before* emitting a batch,
        // so start one position before the first entry: a phased
        // benchmark must begin with its first listed phase. (The
        // interleaved cursor keeps its historical start for trace
        // stability; weights are order-insensitive anyway.)
        let sched_pos = match &self.schedule {
            Schedule::Interleaved(_) => 0,
            Schedule::Phased(p) => p.len() - 1,
        };
        SynthSource {
            name: self.name.clone(),
            kernels,
            schedule: self.schedule.clone(),
            sched_pos,
            sched_left: 0,
            buffer: Vec::new(),
            buf_pos: 0,
        }
    }
}

/// A deterministic synthetic trace source built from a [`BenchmarkSpec`].
#[derive(Debug)]
pub struct SynthSource {
    name: String,
    kernels: Vec<KernelState>,
    schedule: Schedule,
    sched_pos: usize,
    sched_left: u64,
    buffer: Vec<MicroOp>,
    buf_pos: usize,
}

impl SynthSource {
    fn refill(&mut self) {
        self.buffer.clear();
        self.buf_pos = 0;
        // Pick the kernel for the next iteration batch.
        let k = match &self.schedule {
            Schedule::Interleaved(weights) => {
                if self.sched_left == 0 {
                    // advance to next kernel with non-zero weight
                    loop {
                        self.sched_pos = (self.sched_pos + 1) % weights.len();
                        if weights[self.sched_pos] > 0 {
                            self.sched_left = weights[self.sched_pos] as u64;
                            break;
                        }
                    }
                }
                self.sched_left -= 1;
                self.sched_pos
            }
            Schedule::Phased(phases) => {
                if self.sched_left == 0 {
                    self.sched_pos = (self.sched_pos + 1) % phases.len();
                    self.sched_left = phases[self.sched_pos].1;
                }
                self.sched_left -= 1;
                phases[self.sched_pos].0
            }
        };
        self.kernels[k].emit(&mut self.buffer);
        debug_assert!(!self.buffer.is_empty(), "kernel emitted nothing");
    }
}

impl TraceSource for SynthSource {
    fn next_uop(&mut self) -> MicroOp {
        if self.buf_pos >= self.buffer.len() {
            self.refill();
        }
        let u = self.buffer[self.buf_pos];
        self.buf_pos += 1;
        u
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::UopKind;
    use crate::source::capture;

    fn tiny_stream_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "test.stream".into(),
            short: "tst".into(),
            kernels: vec![KernelCfg::Stream(StreamCfg {
                streams: 1,
                region_bytes: 1 << 20,
                pattern: vec![1],
                loads_per_line: 1,
                compute_per_load: 2,
                fp: false,
                store_every: 0,
            })],
            schedule: Schedule::Interleaved(vec![1]),
            seed: 1,
            external: None,
        }
    }

    #[test]
    fn file_backed_spec_sources_the_file() {
        use crate::ingest::{ExternalSpec, TraceFormat};
        let path = std::env::temp_dir().join(format!(
            "bosim_synth_external_{}.btrace",
            std::process::id()
        ));
        let uops = capture(&mut tiny_stream_spec().build(), 100);
        std::fs::write(&path, crate::file::encode(&uops)).unwrap();
        let spec = BenchmarkSpec::from_trace(ExternalSpec::new(&path, TraceFormat::Native));
        assert_eq!(
            spec.name,
            format!("bosim_synth_external_{}", std::process::id())
        );
        let mut src = spec.source().expect("loads");
        assert_eq!(capture(src.as_mut(), 100), uops);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "no synthetic source")]
    fn build_panics_on_file_backed_specs() {
        use crate::ingest::{ExternalSpec, TraceFormat};
        let spec =
            BenchmarkSpec::from_trace(ExternalSpec::new("/tmp/none.btrace", TraceFormat::Native));
        let _ = spec.build();
    }

    #[test]
    fn build_is_deterministic() {
        let spec = tiny_stream_spec();
        let a = capture(&mut spec.build(), 1000);
        let b = capture(&mut spec.build(), 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_addresses_are_sequential_lines() {
        let spec = tiny_stream_spec();
        let uops = capture(&mut spec.build(), 2000);
        let lines: Vec<u64> = uops
            .iter()
            .filter(|u| u.is_load())
            .map(|u| u.addr >> 6)
            .collect();
        assert!(lines.len() > 100);
        for w in lines.windows(2) {
            assert_eq!(w[1], w[0] + 1, "unit line stride expected");
        }
    }

    #[test]
    fn loop_branches_are_present() {
        let spec = tiny_stream_spec();
        let uops = capture(&mut spec.build(), 500);
        assert!(uops.iter().any(|u| u.kind == UopKind::CondBranch));
    }

    #[test]
    fn interleaved_schedule_alternates_kernels() {
        let mut spec = tiny_stream_spec();
        spec.kernels.push(KernelCfg::Compute(ComputeCfg {
            ops_per_iter: 8,
            fp_permille: 0,
            div_permille: 0,
            chain_len: 2,
            resident_bytes: 4096,
            load_every: 0,
            code_blocks: 1,
        }));
        spec.schedule = Schedule::Interleaved(vec![1, 1]);
        let uops = capture(&mut spec.build(), 400);
        // Two distinct code regions must both appear.
        let k0 = layout::code_base(0);
        let k1 = layout::code_base(1);
        assert!(uops.iter().any(|u| u.pc >= k0 && u.pc < k0 + 0x0100_0000));
        assert!(uops.iter().any(|u| u.pc >= k1 && u.pc < k1 + 0x0100_0000));
    }

    #[test]
    fn phased_schedule_starts_with_its_first_phase() {
        let mut spec = tiny_stream_spec();
        spec.kernels.push(KernelCfg::Compute(ComputeCfg {
            ops_per_iter: 8,
            fp_permille: 0,
            div_permille: 0,
            chain_len: 2,
            resident_bytes: 4096,
            load_every: 0,
            code_blocks: 1,
        }));
        spec.schedule = Schedule::Phased(vec![(1, 5), (0, 5)]);
        let uops = capture(&mut spec.build(), 30);
        // Kernel 1 (compute) is the first listed phase: its code region
        // must appear before kernel 0's.
        let k0 = layout::code_base(0);
        let k1 = layout::code_base(1);
        let first_k0 = uops.iter().position(|u| u.pc >= k0 && u.pc < k1);
        let first_k1 = uops.iter().position(|u| u.pc >= k1);
        assert!(first_k1.expect("phase 0 emitted") < first_k0.unwrap_or(usize::MAX));
    }

    #[test]
    #[should_panic]
    fn bad_schedule_panics() {
        let mut spec = tiny_stream_spec();
        spec.schedule = Schedule::Phased(vec![(3, 10)]);
        let _ = spec.build();
    }
}
