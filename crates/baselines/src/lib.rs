//! Baseline prefetchers evaluated against Best-Offset in the paper.
//!
//! * [`FixedOffsetPrefetcher`] — constant-offset prefetching; `D = 1` is
//!   the default L2 next-line prefetcher of the baseline (§5.6, Figures
//!   5, 7, 8),
//! * [`SandboxPrefetcher`] — Pugsley et al.'s SBP as adapted in §6.3
//!   (52-offset list, [`sandbox::BLOOM_BITS`]-bit Bloom filter,
//!   [`sandbox::PERIOD`]-access periods),
//! * [`StridePrefetcher`] — the PC-indexed DL1 stride prefetcher (§5.5,
//!   [`stride::ENTRIES`] entries, distance [`stride::DISTANCE`]),
//! * [`AmpmPrefetcher`] — an AMPM-lite extension (the DPC-1 winner the
//!   paper positions SBP against; [`ampm::ZONES`] zones).
//!
//! Each prefetcher's parameters are constants in its module; nothing
//! varies them.
//!
//! All line-address prefetchers implement the level-agnostic
//! [`best_offset::Prefetcher`] trait (attachable to the L2 or L3 site);
//! the core drives the DL1 stride prefetcher directly, because it works
//! on virtual addresses and trains in program order.

#![warn(missing_docs)]

pub mod ampm;
mod fixed;
pub mod sandbox;
pub mod stride;

pub use ampm::AmpmPrefetcher;
pub use fixed::FixedOffsetPrefetcher;
pub use sandbox::SandboxPrefetcher;
pub use stride::StridePrefetcher;
