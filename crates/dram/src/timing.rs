//! DDR3 timing parameters and bank state machines.
//!
//! The Table 1 parameters are constants in *bus cycles* ("bus cycle = 4
//! core cycles"). Refresh and power parameters (tFAW) are not modelled,
//! as in the paper (§5.3).

use bosim_types::{Cycle, CORE_CYCLES_PER_BUS_CYCLE};

/// CAS (read) latency, bus cycles (Table 1: 11).
pub const T_CL: u64 = 11;
/// RAS-to-CAS delay, bus cycles (Table 1: 11).
pub const T_RCD: u64 = 11;
/// Row precharge time, bus cycles (Table 1: 11).
pub const T_RP: u64 = 11;
/// Minimum row-active time, bus cycles (Table 1: 33).
pub const T_RAS: u64 = 33;
/// CAS write latency, bus cycles (Table 1: 8).
pub const T_CWL: u64 = 8;
/// Read-to-precharge delay, bus cycles (Table 1: 6).
pub const T_RTP: u64 = 6;
/// Write recovery time (write data end to precharge), bus cycles
/// (Table 1: 12).
pub const T_WR: u64 = 12;
/// Write-to-read turnaround, bus cycles (Table 1: 6).
pub const T_WTR: u64 = 6;
/// Data burst duration, bus cycles (Table 1: 4, 8 beats on a 64-bit
/// bus).
pub const T_BURST: u64 = 4;

/// Converts a parameter from bus cycles to core cycles.
#[inline]
pub(crate) const fn core_cycles(bus_cycles: u64) -> Cycle {
    bus_cycles * CORE_CYCLES_PER_BUS_CYCLE
}

/// Core cycles one line transfer holds a channel's data bus: [`T_BURST`]
/// converted from bus cycles.
pub const LINE_TRANSFER_CYCLES: Cycle = core_cycles(T_BURST);

/// Per-bank row-buffer and timing state. All times in core cycles.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Earliest cycle a CAS may issue (after ACT + tRCD).
    pub cas_ok_at: Cycle,
    /// Earliest cycle a precharge may issue (tRAS / tRTP / tWR bound).
    pub pre_ok_at: Cycle,
    /// Earliest cycle an ACT may issue (after precharge completes).
    pub act_ok_at: Cycle,
    /// An ACT opened the row and no CAS has used it yet: the next CAS
    /// needed that ACT, so it is no row hit.
    pub fresh_row: bool,
}

/// The action a bank needs before serving a given row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankNeed {
    /// Row already open: CAS can issue (when `cas_ok_at` allows).
    Cas,
    /// Bank closed: ACT needed.
    Activate,
    /// Another row is open: precharge needed first.
    Precharge,
}

impl Bank {
    /// What command does serving `row` require next?
    pub fn need(&self, row: u64) -> BankNeed {
        match self.open_row {
            Some(r) if r == row => BankNeed::Cas,
            Some(_) => BankNeed::Precharge,
            None => BankNeed::Activate,
        }
    }

    /// Issues a precharge at `now` (caller checked `pre_ok_at`).
    pub fn precharge(&mut self, now: Cycle) {
        debug_assert!(now >= self.pre_ok_at, "tRAS/tRTP/tWR violated");
        self.open_row = None;
        self.act_ok_at = now + core_cycles(T_RP);
    }

    /// Issues an activate of `row` at `now` (caller checked `act_ok_at`).
    pub fn activate(&mut self, now: Cycle, row: u64) {
        debug_assert!(now >= self.act_ok_at, "tRP violated");
        debug_assert!(self.open_row.is_none(), "bank already open");
        self.open_row = Some(row);
        self.cas_ok_at = now + core_cycles(T_RCD);
        self.pre_ok_at = now + core_cycles(T_RAS);
        self.fresh_row = true;
    }

    /// Issues a read CAS at `now`; returns the cycle the data burst ends
    /// (the completion time of the request).
    pub fn read(&mut self, now: Cycle) -> Cycle {
        debug_assert!(now >= self.cas_ok_at, "tRCD violated");
        debug_assert!(self.open_row.is_some());
        self.fresh_row = false;
        let data_end = now + core_cycles(T_CL + T_BURST);
        // Read-to-precharge: the row may close tRTP after the CAS.
        self.pre_ok_at = self.pre_ok_at.max(now + core_cycles(T_RTP));
        data_end
    }

    /// Issues a write CAS at `now`; returns the cycle the write data ends
    /// on the bus.
    pub fn write(&mut self, now: Cycle) -> Cycle {
        debug_assert!(now >= self.cas_ok_at, "tRCD violated");
        debug_assert!(self.open_row.is_some());
        self.fresh_row = false;
        let data_end = now + core_cycles(T_CWL + T_BURST);
        // Write recovery: precharge no earlier than data end + tWR.
        self.pre_ok_at = self.pre_ok_at.max(data_end + core_cycles(T_WR));
        data_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        assert_eq!((T_CL, T_RCD, T_RP, T_RAS), (11, 11, 11, 33));
        assert_eq!((T_CWL, T_RTP, T_WR, T_WTR, T_BURST), (8, 6, 12, 6, 4));
    }

    #[test]
    fn bank_lifecycle_act_read_pre() {
        let mut b = Bank::default();
        assert_eq!(b.need(5), BankNeed::Activate);
        b.activate(0, 5);
        assert_eq!(b.need(5), BankNeed::Cas);
        assert_eq!(b.need(6), BankNeed::Precharge);
        assert_eq!(b.cas_ok_at, core_cycles(11));
        // Read at earliest CAS.
        let done = b.read(b.cas_ok_at);
        assert_eq!(done, core_cycles(11) + core_cycles(11 + 4));
        // tRAS dominates tRTP here: precharge allowed at ACT + tRAS.
        assert_eq!(b.pre_ok_at, core_cycles(33));
        b.precharge(b.pre_ok_at);
        assert_eq!(b.need(5), BankNeed::Activate);
        assert_eq!(b.act_ok_at, core_cycles(33) + core_cycles(11));
    }

    #[test]
    fn write_recovery_extends_precharge() {
        let mut b = Bank::default();
        b.activate(0, 1);
        let data_end = b.write(b.cas_ok_at);
        assert_eq!(data_end, core_cycles(11) + core_cycles(8 + 4));
        assert_eq!(b.pre_ok_at, data_end + core_cycles(12));
        assert!(b.pre_ok_at > core_cycles(33), "tWR beyond tRAS");
    }
}
