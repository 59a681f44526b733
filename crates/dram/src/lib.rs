//! DDR3 main-memory model for `bosim` (§5.3 of the BO paper).
//!
//! * [`mapping`] — the XOR-based line-to-channel/bank/row mapping,
//! * [`Bank`] — DDR3 bank state machines with the Table 1 timings as
//!   constants ([`T_CL`], [`T_RCD`], [`T_RP`], [`T_RAS`], [`T_CWL`],
//!   [`T_RTP`], [`T_WR`], [`T_WTR`], [`T_BURST`], in bus cycles of 4 core
//!   cycles; [`LINE_TRANSFER_CYCLES`] is tBURST in core cycles),
//! * [`MemorySystem`] — [`CHANNELS`] independent per-channel controllers
//!   of [`BANKS`] banks with per-core [`READ_QUEUE`]/[`WRITE_QUEUE`]-entry
//!   read/write queues, FR-FCFS scheduling, steady/urgent fairness modes
//!   driven by proportional counters ([`URGENT_THRESHOLD`]), and
//!   [`WRITE_BATCH`]-write batches.
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
//! let mut mem = MemorySystem::new(MemConfig { num_cores: 1 });
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

pub use controller::{
    ChannelSteps, DramStats, MemConfig, MemorySystem, ReadCompletion, READ_QUEUE, URGENT_THRESHOLD,
    WRITE_BATCH, WRITE_QUEUE,
};
pub use mapping::{map_line, DramLoc, BANKS, CHANNELS};
pub use timing::{
    Bank, BankNeed, LINE_TRANSFER_CYCLES, T_BURST, T_CL, T_CWL, T_RAS, T_RCD, T_RP, T_RTP, T_WR,
    T_WTR,
};
