//! Cache structures for the `bosim` simulator.
//!
//! Reproduces the cache machinery of the paper's baseline (§5):
//!
//! * [`CacheArray`] — set-associative arrays with per-line prefetch bits
//!   (§5.6),
//! * replacement policies ([`policy`]): LRU, BIP, DIP, DRRIP and the
//!   baseline L3 policy **5P** with proportional counters and set
//!   sampling (§5.2),
//! * [`FillQueue`] — MSHR-less miss handling with associative search and
//!   late-prefetch promotion (§5.4),
//! * [`PrefetchQueue`] — the 8-entry lowest-priority L2 prefetch queue
//!   with oldest-drop (§5.4),
//! * [`MshrFile`] — the DL1's 32-entry MSHR file (Table 1),
//! * [`LineIndex`] — the small open-addressed line→slot index backing
//!   the queues' O(1) CAM searches (`tests/queue_model.rs` checks both
//!   queues op by op against a plain linear-scan model).
//!
//! # Examples
//!
//! ```
//! use bosim_cache::{CacheArray, policy::{PolicyKind, InsertCtx}};
//! use bosim_types::{CoreId, LineAddr};
//!
//! let mut l2 = CacheArray::new(512 << 10, 8, PolicyKind::Lru, 1, 42);
//! let line = LineAddr(0x1234);
//! assert!(l2.access(line, false).is_none()); // miss
//! l2.insert(line, true, false, InsertCtx { demand: false, core: CoreId(0) });
//! let hit = l2.access(line, false).expect("resident now");
//! assert!(hit.was_prefetch); // prefetched hit: triggers the L2 prefetcher
//! ```

#![warn(missing_docs)]

mod array;
mod fill;
mod line_index;
pub mod policy;
mod queues;

pub use array::{CacheArray, Evicted, HitInfo};
pub use fill::{FillEntry, FillQueue};
pub use line_index::LineIndex;
pub use queues::{MshrEntry, MshrFile, PrefetchQueue};
