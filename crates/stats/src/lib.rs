//! Statistics and reporting utilities for the `bosim` simulator.
//!
//! The paper reports geometric-mean speedups over per-configuration
//! baselines (Figures 3–12) and raw event rates (Figure 2: IPC, Figure 13:
//! DRAM accesses per kilo-instruction). This crate provides:
//!
//! * [`geometric_mean`] — the summary math,
//! * [`Table`] — plain-text/TSV table output used by every figure
//!   harness,
//! * [`Json`] — the hand-rolled JSON value every report is written with,
//!   and its parser.
//!
//! # Examples
//!
//! ```
//! use bosim_stats::geometric_mean;
//! let speedups = [1.1, 0.95, 1.3];
//! let gm = geometric_mean(speedups.iter().copied()).unwrap();
//! assert!(gm > 1.0 && gm < 1.3);
//! ```

#![warn(missing_docs)]

mod json;
mod parse;
mod summary;
mod table;

pub use json::Json;
pub use parse::JsonParseError;
pub use summary::geometric_mean;
pub use table::{Align, Table};
