//! # best-offset — Best-Offset Hardware Prefetching
//!
//! A faithful implementation of the Best-Offset (BO) prefetcher from
//! Pierre Michaud, *Best-Offset Hardware Prefetching*, HPCA 2016 — the
//! prefetcher that won the 2015 Data Prefetching Championship.
//!
//! BO is an *offset prefetcher*: when line `X` is requested at the L2, it
//! prefetches `X + D`. Unlike the Sandbox prefetcher's coverage-only
//! scoring, BO selects `D` with a learning mechanism that accounts for
//! *prefetch timeliness*: an offset `d` scores only when `X − d` was the
//! base of a prefetch that has already **completed** — i.e. a prefetch
//! issued with offset `d` would have been timely.
//!
//! This crate contains the hardware-faithful algorithm pieces:
//!
//! * [`BestOffsetPrefetcher`] with [`BoConfig`] (Table 2 defaults),
//! * the [`RrTable`] of recently completed prefetch bases (§4.1, §4.4),
//!   with [`RR_TAG_BITS`]-bit partial tags,
//! * the 5-smooth [`OffsetList`] (§4.2),
//! * the level-agnostic [`Prefetcher`] trait (with the [`PrefetchSite`]
//!   attach-point enum) implemented by BO and by every line-address
//!   baseline prefetcher in `bosim-baselines`.
//!
//! While an observability sink is on, BO buffers its learning events
//! (round and phase ends) as `bosim_obs::EventKind`s, the simulator's
//! one event vocabulary, for the simulator to stamp and record.
//!
//! # Examples
//!
//! ```
//! use best_offset::{AccessOutcome, BestOffsetPrefetcher, CacheAccess, Prefetcher};
//! use bosim_types::{LineAddr, PageSize};
//!
//! let mut bo = BestOffsetPrefetcher::with_defaults(PageSize::K4);
//! let mut requests = Vec::new();
//! bo.on_access(
//!     CacheAccess { line: LineAddr(8), outcome: AccessOutcome::Miss },
//!     &mut requests,
//! );
//! // Fresh prefetcher starts with D = 1 (next-line behaviour) and learns
//! // a better offset from the access stream.
//! assert_eq!(requests, vec![LineAddr(9)]);
//! ```

#![warn(missing_docs)]

mod bo;
mod iface;
mod offsets;
mod rr_table;

pub use bo::{BestOffsetPrefetcher, BoConfig, BoConfigError, BoStats};
pub use iface::{
    AccessOutcome, CacheAccess, NullPrefetcher, PrefetchSite, Prefetcher, TuneDirective,
};
pub use offsets::OffsetList;
pub use rr_table::{RrTable, RR_TAG_BITS};
