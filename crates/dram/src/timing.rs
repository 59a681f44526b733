//! DDR3 timing parameters and bank state machines.
//!
//! Parameters from Table 1, given in *bus cycles* ("bus cycle = 4 core
//! cycles"): tCL=11, tRCD=11, tRP=11, tRAS=33, tCWL=8, tRTP=6, tWR=12,
//! tWTR=6, tBURST=4 (8 beats). Refresh and power parameters (tFAW) are
//! not modelled, as in the paper (§5.3).

use bosim_types::{Cycle, CORE_CYCLES_PER_BUS_CYCLE};

/// DDR3 timing parameters in bus cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdrTimings {
    /// CAS (read) latency.
    pub t_cl: u64,
    /// RAS-to-CAS delay.
    pub t_rcd: u64,
    /// Row precharge time.
    pub t_rp: u64,
    /// Minimum row-active time.
    pub t_ras: u64,
    /// CAS write latency.
    pub t_cwl: u64,
    /// Read-to-precharge delay.
    pub t_rtp: u64,
    /// Write recovery time (write data end to precharge).
    pub t_wr: u64,
    /// Write-to-read turnaround.
    pub t_wtr: u64,
    /// Data burst duration (8 beats on a 64-bit bus).
    pub t_burst: u64,
}

impl Default for DdrTimings {
    /// The Table 1 DDR3 parameters.
    fn default() -> Self {
        DdrTimings {
            t_cl: 11,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 33,
            t_cwl: 8,
            t_rtp: 6,
            t_wr: 12,
            t_wtr: 6,
            t_burst: 4,
        }
    }
}

impl DdrTimings {
    /// Converts a parameter from bus cycles to core cycles.
    #[inline]
    pub fn core(&self, bus_cycles: u64) -> Cycle {
        bus_cycles * CORE_CYCLES_PER_BUS_CYCLE
    }
}

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
    pub fn precharge(&mut self, now: Cycle, t: &DdrTimings) {
        debug_assert!(now >= self.pre_ok_at, "tRAS/tRTP/tWR violated");
        self.open_row = None;
        self.act_ok_at = now + t.core(t.t_rp);
    }

    /// Issues an activate of `row` at `now` (caller checked `act_ok_at`).
    pub fn activate(&mut self, now: Cycle, row: u64, t: &DdrTimings) {
        debug_assert!(now >= self.act_ok_at, "tRP violated");
        debug_assert!(self.open_row.is_none(), "bank already open");
        self.open_row = Some(row);
        self.cas_ok_at = now + t.core(t.t_rcd);
        self.pre_ok_at = now + t.core(t.t_ras);
        self.fresh_row = true;
    }

    /// Issues a read CAS at `now`; returns the cycle the data burst ends
    /// (the completion time of the request).
    pub fn read(&mut self, now: Cycle, t: &DdrTimings) -> Cycle {
        debug_assert!(now >= self.cas_ok_at, "tRCD violated");
        debug_assert!(self.open_row.is_some());
        self.fresh_row = false;
        let data_end = now + t.core(t.t_cl + t.t_burst);
        // Read-to-precharge: the row may close tRTP after the CAS.
        self.pre_ok_at = self.pre_ok_at.max(now + t.core(t.t_rtp));
        data_end
    }

    /// Issues a write CAS at `now`; returns the cycle the write data ends
    /// on the bus.
    pub fn write(&mut self, now: Cycle, t: &DdrTimings) -> Cycle {
        debug_assert!(now >= self.cas_ok_at, "tRCD violated");
        debug_assert!(self.open_row.is_some());
        self.fresh_row = false;
        let data_end = now + t.core(t.t_cwl + t.t_burst);
        // Write recovery: precharge no earlier than data end + tWR.
        self.pre_ok_at = self.pre_ok_at.max(data_end + t.core(t.t_wr));
        data_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let t = DdrTimings::default();
        assert_eq!(t.t_cl, 11);
        assert_eq!(t.t_rcd, 11);
        assert_eq!(t.t_rp, 11);
        assert_eq!(t.t_ras, 33);
        assert_eq!(t.t_cwl, 8);
        assert_eq!(t.t_rtp, 6);
        assert_eq!(t.t_wr, 12);
        assert_eq!(t.t_wtr, 6);
        assert_eq!(t.t_burst, 4);
    }

    #[test]
    fn bank_lifecycle_act_read_pre() {
        let t = DdrTimings::default();
        let mut b = Bank::default();
        assert_eq!(b.need(5), BankNeed::Activate);
        b.activate(0, 5, &t);
        assert_eq!(b.need(5), BankNeed::Cas);
        assert_eq!(b.need(6), BankNeed::Precharge);
        assert_eq!(b.cas_ok_at, t.core(11));
        // Read at earliest CAS.
        let done = b.read(b.cas_ok_at, &t);
        assert_eq!(done, t.core(11) + t.core(11 + 4));
        // tRAS dominates tRTP here: precharge allowed at ACT + tRAS.
        assert_eq!(b.pre_ok_at, t.core(33));
        b.precharge(b.pre_ok_at, &t);
        assert_eq!(b.need(5), BankNeed::Activate);
        assert_eq!(b.act_ok_at, t.core(33) + t.core(11));
    }

    #[test]
    fn write_recovery_extends_precharge() {
        let t = DdrTimings::default();
        let mut b = Bank::default();
        b.activate(0, 1, &t);
        let data_end = b.write(b.cas_ok_at, &t);
        assert_eq!(data_end, t.core(11) + t.core(8 + 4));
        assert_eq!(b.pre_ok_at, data_end + t.core(12));
        assert!(b.pre_ok_at > t.core(33), "tWR beyond tRAS");
    }
}
