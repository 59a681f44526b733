//! DDR3 main-memory model for `bosim` (§5.3 of the BO paper).
//!
//! * [`mapping`] — the XOR-based line-to-channel/bank/row mapping,
//! * [`DdrTimings`] / [`Bank`] — DDR3 bank state machines with the Table 1
//!   parameters (tCL/tRCD/tRP/tRAS/tCWL/tRTP/tWR/tWTR/tBURST, in bus
//!   cycles of 4 core cycles),
//! * [`MemorySystem`] — two independent per-channel controllers with
//!   per-core read/write queues, FR-FCFS scheduling, steady/urgent
//!   fairness modes driven by proportional counters, and 16-write batches.
//!   Each channel counts its queued requests per bank and keeps the
//!   earliest cycle its scheduler can next act, so a tick or a
//!   [`MemorySystem::next_event`] query between commands walks no queue.
//!
//! Refresh and power-related parameters (tFAW) are not modelled, exactly
//! as in the paper.
//!
//! # Examples
//!
//! ```
//! use bosim_dram::{MemConfig, MemorySystem};
//! use bosim_types::{CoreId, LineAddr};
//!
//! let mut mem = MemorySystem::new(MemConfig { num_cores: 1, ..Default::default() });
//! assert!(mem.enqueue_read(LineAddr(0x40), CoreId(0), 1, 0));
//! let mut done = Vec::new();
//! for now in 0..500 {
//!     mem.tick(now, true, &mut done);
//! }
//! assert_eq!(done.len(), 1);
//! ```

#![warn(missing_docs)]

mod controller;
pub mod mapping;
mod timing;

pub use controller::{DramStats, MemConfig, MemorySystem, ReadCompletion};
pub use mapping::{map_line, DramLoc};
pub use timing::{Bank, BankNeed, DdrTimings};
