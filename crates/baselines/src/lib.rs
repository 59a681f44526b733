//! Baseline prefetchers evaluated against Best-Offset in the paper.
//!
//! * [`FixedOffsetPrefetcher`] — constant-offset prefetching; `D = 1` is
//!   the default L2 next-line prefetcher of the baseline (§5.6, Figures
//!   5, 7, 8),
//! * [`SandboxPrefetcher`] — Pugsley et al.'s SBP as adapted in §6.3
//!   (52-offset list, 2048-bit Bloom filter, 256-access periods),
//! * [`StridePrefetcher`] — the PC-indexed DL1 stride prefetcher (§5.5),
//! * [`AmpmPrefetcher`] — an AMPM-lite extension (the DPC-1 winner the
//!   paper positions SBP against).
//!
//! All line-address prefetchers implement the level-agnostic
//! [`best_offset::Prefetcher`] trait (attachable to the L2 or L3 site);
//! the core drives the DL1 stride prefetcher directly, because it works
//! on virtual addresses and trains in program order.

#![warn(missing_docs)]

mod ampm;
mod fixed;
mod sandbox;
mod stride;

pub use ampm::{AmpmConfig, AmpmPrefetcher};
pub use fixed::FixedOffsetPrefetcher;
pub use sandbox::{BloomFilter, SandboxPrefetcher, SbpConfig};
pub use stride::{StrideConfig, StridePrefetcher};
