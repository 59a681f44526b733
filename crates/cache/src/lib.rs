//! Cache structures for the `bosim` simulator.
//!
//! Reproduces the cache machinery of the paper's baseline (§5):
//!
//! * [`CacheArray`] — set-associative arrays with per-line prefetch bits
//!   (§5.6), stored as one `u64` key per way (`tag + 1`, 0 for an empty
//!   way) beside a byte of dirty/prefetch bits, so a lookup compares one
//!   word per way and a new array is untouched zeroed memory,
//! * replacement policies ([`policy`]): LRU, DRRIP and the
//!   baseline L3 policy **5P** with proportional counters and set
//!   sampling (§5.2),
//! * [`FillQueue`] — MSHR-less miss handling with associative search and
//!   late-prefetch promotion (§5.4), a `Vec` in allocation order whose
//!   CAM search is a linear scan,
//! * [`PrefetchQueue`] — the 8-entry lowest-priority prefetch queue with
//!   oldest-drop (§5.4), one per private L2 and one at the shared L3,
//! * [`MshrFile`] — the DL1's 32-entry MSHR file (Table 1), keyed by a
//!   packed array of lines so a miss searches it once.
//!
//! `tests/queue_model.rs` checks both queues and the MSHR file op by op
//! against a plain reference model.
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
pub mod policy;
mod queues;

pub use array::{CacheArray, Evicted, HitInfo};
pub use fill::{FillEntry, FillQueue};
pub use queues::{MshrEntry, MshrFile, PrefetchQueue};
