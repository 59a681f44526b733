//! Common foundation types for the `bosim` micro-architecture simulator.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * strongly-typed addresses ([`VirtAddr`], [`PhysAddr`], [`LineAddr`]) and
//!   page geometry ([`PageSize`]),
//! * request metadata ([`CoreId`], [`AccessKind`], [`ReqClass`]),
//! * the simulated clock ([`Cycle`]),
//! * a small deterministic mixing function ([`mix64`]) used for the
//!   randomising virtual-to-physical hash and table index hashing, and
//!   the restart-stable byte-string hash [`fnv64`].
//!
//! The simulator reproduces the system of *Best-Offset Hardware
//! Prefetching* (Michaud, HPCA 2016). Cache lines are 64 bytes everywhere,
//! as in the paper (Table 1).
//!
//! # Examples
//!
//! ```
//! use bosim_types::{LineAddr, PageSize};
//!
//! let line = LineAddr::from_byte_addr(0x4_1234_5678);
//! let page = PageSize::K4;
//! // Offset prefetchers never cross page boundaries.
//! let next = line.checked_offset(3, page);
//! assert!(next.is_some());
//! assert_eq!(next.unwrap().0, line.0 + 3);
//! ```

#![warn(missing_docs)]

mod addr;
mod prop_counter;
mod req;
mod rng;

pub use addr::{LineAddr, PageSize, PhysAddr, VirtAddr, LINE_BYTES, LINE_SHIFT};
pub use prop_counter::ProportionalCounters;
pub use req::{AccessKind, CoreId, MemLevel, ReqClass};
pub use rng::{fnv64, mix64, SplitMix64};

/// The simulated clock, counted in core cycles.
///
/// The paper assumes a fixed clock frequency (Table 1), so a single global
/// cycle count is sufficient; DRAM bus cycles are 4 core cycles.
pub type Cycle = u64;

/// Number of core cycles per DRAM bus cycle (Table 1: "bus cycle = 4 core
/// cycles").
pub const CORE_CYCLES_PER_BUS_CYCLE: Cycle = 4;

/// Implements `Add` and `Sub` for a counter struct, field by field:
/// `counter_arith!(Stats { hits, misses });`.
///
/// Each field is named once, so `b.x - a.y` cannot be written, and the
/// struct literal the macro emits fails to compile when a field is left
/// out of the list. Subtracting two snapshots gives the counts between
/// them.
#[macro_export]
macro_rules! counter_arith {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl ::core::ops::Add for $ty {
            type Output = Self;

            fn add(self, o: Self) -> Self {
                $ty { $($field: self.$field + o.$field),+ }
            }
        }

        impl ::core::ops::Sub for $ty {
            type Output = Self;

            fn sub(self, o: Self) -> Self {
                $ty { $($field: self.$field - o.$field),+ }
            }
        }
    };
}
