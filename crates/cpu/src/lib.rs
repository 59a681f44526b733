//! Core-side models for `bosim`: the out-of-order core, branch
//! predictors and TLBs.
//!
//! * [`Core`] — trace-driven cycle-approximate out-of-order core with the
//!   Table 1 parameters as constants ([`ROB_SIZE`]-entry ROB,
//!   [`DISPATCH_WIDTH`]-wide decode, [`RETIRE_WIDTH`]-wide retire,
//!   [`LOAD_PORTS`] load ports, [`MSHRS`] DL1 MSHRs, [`MISPREDICT_PENALTY`]-cycle
//!   minimum redirect penalty), private 32KB IL1/DL1 and the optional
//!   L1D stride prefetcher (§5.5). The ROB is a fixed ring indexed by
//!   `seq % ROB_SIZE`, and dependents wait on intrusive FIFO lists
//!   threaded through it, so dispatch, wake-up and retirement allocate
//!   nothing,
//! * [`Tage`] / [`Ittage`] — the branch predictors of Table 1 (sizes and
//!   history lengths are constants),
//! * [`TlbHierarchy`] / [`PageTranslator`] — two-level TLBs with
//!   [`TLB2_LATENCY`]/[`WALK_LATENCY`]-cycle miss latencies and the
//!   randomising virtual-to-physical hash of §5.1.
//!
//! The core talks to the uncore (private L2, shared L3, DRAM — assembled
//! in the `bosim` crate) through [`UncoreRequest`] values and
//! [`Core::fill`] callbacks. With an observability sink on
//! ([`Core::set_obs_sink`]), the L1D prefetch site buffers its issues
//! and TLB2 drops as `bosim_obs::EventKind`s for the simulator to stamp
//! and record.

#![warn(missing_docs)]

mod core;
mod tage;
mod tlb;

pub use crate::core::{
    Core, CoreStats, UncoreRequest, DISPATCH_WIDTH, DL1_LATENCY, DL1_SIZE, DL1_WAYS, FP_PORTS,
    IL1_SIZE, IL1_WAYS, INT_PORTS, LOAD_PORTS, MISPREDICT_PENALTY, MSHRS, RETIRE_WIDTH, ROB_SIZE,
    STORE_BUFFER,
};
pub use tage::{Ittage, Tage};
pub use tlb::{PageTranslator, Tlb, TlbHierarchy, PHYS_BITS, TLB2_LATENCY, WALK_LATENCY};
