//! Trace model, synthetic workloads and external trace ingestion for
//! `bosim`.
//!
//! The paper's simulator is trace driven (§5): traces of the committed
//! instruction stream feed a timing model. This crate provides:
//!
//! * the µop record model ([`MicroOp`], [`UopKind`], [`Reg`]),
//! * the [`TraceSource`] abstraction and a looping [`ReplaySource`],
//! * the native binary trace file format ([`mod@file`]),
//! * **external trace ingestion** ([`ingest`]): ChampSim-compatible
//!   64-byte instruction records ([`champsim`]) and raw text/binary
//!   address traces ([`addr`]), with format auto-detection
//!   ([`TraceFormat::detect`]) — point the simulator at a real captured
//!   workload instead of a synthesised one,
//! * **trace sampling** ([`sample`]): warm-up skip and periodic
//!   measurement windows ([`SampleSpec`]) composing with any source,
//! * the synthetic benchmark machinery ([`synth`]) and the 29-entry
//!   SPEC-CPU2006-like [`suite`], substituting for the proprietary SPEC
//!   traces (see `DESIGN.md`),
//! * the §5.1 cache-thrashing micro-benchmark ([`suite::thrasher`]),
//! * trace analysis utilities ([`analyze`]): instruction mix, per-PC
//!   stride detection, line-stride histograms.
//!
//! On-disk format specifications live in `docs/TRACES.md`.
//!
//! # Examples
//!
//! Synthetic benchmarks build straight from the suite:
//!
//! ```
//! use bosim_trace::{suite, TraceSource};
//!
//! let spec = suite::benchmark("462").expect("libquantum-like exists");
//! let mut src = spec.build();
//! let uop = src.next_uop();
//! assert!(uop.pc > 0);
//! ```
//!
//! External traces go through [`ExternalSpec`] (or the `bosim` CLI):
//!
//! ```no_run
//! use bosim_trace::{BenchmarkSpec, ExternalSpec, SampleSpec, SampledSource};
//!
//! // A ChampSim trace, auto-detected, as an experiment benchmark...
//! let bench = BenchmarkSpec::from_trace(
//!     ExternalSpec::detect("traces/mcf.champsim").expect("detectable"),
//! );
//! // ...whose source can be sampled: skip 1M µops, keep 100k of each 1M.
//! let sampled = SampledSource::new(
//!     bench.source().expect("loads"),
//!     SampleSpec::periodic(1_000_000, 100_000, 1_000_000),
//! );
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod analyze;
pub mod artifact;
pub mod champsim;
#[cfg(test)]
mod decode_fuzz;
pub mod file;
pub mod ingest;
mod kernels;
mod record;
pub mod sample;
mod source;
pub mod suite;
pub mod synth;

pub use artifact::{ArtifactCounters, ArtifactStore};
pub use ingest::{ExternalSpec, TraceError, TraceFormat};
pub use record::{MicroOp, Reg, UopKind, NUM_REGS};
pub use sample::{SampleSpec, SampledSource};
pub use source::{capture, ReplaySource, TraceSource};
pub use synth::{BenchmarkSpec, KernelCfg, Schedule, SynthSource};
