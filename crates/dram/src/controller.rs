//! Dual-channel memory controllers (§5.3).
//!
//! "Each channel has its own memory controller. The two controllers work
//! independently from each other. For fairness, each core has its own
//! read queue and write queue in each controller. ... For read requests,
//! an FR-FCFS policy is used. A row is left open after it has been
//! accessed until a subsequent access requires to close it."
//!
//! The scheduler has a *steady* mode (serve one core at a time, switch
//! when its row locality is exhausted or a write queue fills; writes go in
//! batches of [`WRITE_BATCH`], selected out-of-order for row locality) and
//! an *urgent* mode (serve the lagging core when its fairness counter
//! falls more than [`URGENT_THRESHOLD`] behind the served core's). "The
//! scheduler does not distinguish between demand and prefetch read
//! requests."

use crate::mapping::{map_line, DramLoc, BANKS, CHANNELS};
use crate::timing::{core_cycles, Bank, BankNeed, T_CL, T_CWL, T_WTR};
use bosim_types::{CoreId, Cycle, LineAddr, ProportionalCounters, CORE_CYCLES_PER_BUS_CYCLE};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Read-queue entries per core per channel (Table 1: 32).
pub const READ_QUEUE: usize = 32;
/// Write-queue entries per core per channel (Table 1: 32).
pub const WRITE_QUEUE: usize = 32;
/// Writes per batch (§5.3: 16).
pub const WRITE_BATCH: usize = 16;
/// Fairness-counter lead of the served core over a lagging one beyond
/// which the urgent mode serves the lagging core (§5.3: 31).
pub const URGENT_THRESHOLD: i64 = 31;

/// Memory system configuration. The DDR3 timings and the controller's
/// geometry are constants; only the core count varies.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Number of cores (per-core queues and fairness counters).
    pub num_cores: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig { num_cores: 4 }
    }
}

/// A completed read returned by [`MemorySystem::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCompletion {
    /// Caller-supplied request token.
    pub id: u64,
    /// The line read.
    pub line: LineAddr,
    /// Requesting core.
    pub core: CoreId,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read CAS commands issued.
    pub reads: u64,
    /// Write CAS commands issued.
    pub writes: u64,
    /// CAS commands that found their row open: every CAS but the first
    /// after its bank's ACT.
    pub row_hits: u64,
    /// Activates issued.
    pub row_opens: u64,
    /// Precharges issued due to row conflicts.
    pub row_conflicts: u64,
    /// Reads issued in urgent mode.
    pub urgent_reads: u64,
}

bosim_types::counter_arith!(DramStats {
    reads,
    writes,
    row_hits,
    row_opens,
    row_conflicts,
    urgent_reads,
});

#[derive(Debug, Clone)]
struct ReadReq {
    id: u64,
    line: LineAddr,
    loc: DramLoc,
}

#[derive(Debug, Clone)]
struct WriteReq {
    loc: DramLoc,
}

/// The queued requests of one bank, split by whether they target its
/// open row. Kept in step with the queues on enqueue, CAS, PRE and ACT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RowSplit {
    /// Requests for the open row: a CAS serves them.
    open: u32,
    /// Requests for another row (every request while the bank is
    /// closed): each needs a PRE or an ACT first.
    other: u32,
}

impl RowSplit {
    fn add(&mut self, open: bool) {
        if open {
            self.open += 1;
        } else {
            self.other += 1;
        }
    }
}

/// Earliest cycle bank `b` can take the PRE or ACT that a request for a
/// row other than its open one needs.
fn prep_at(b: &Bank) -> Cycle {
    if b.open_row.is_some() {
        b.pre_ok_at
    } else {
        b.act_ok_at
    }
}

#[derive(Debug)]
struct Channel {
    banks: [Bank; BANKS],
    read_q: Vec<VecDeque<ReadReq>>,
    write_q: Vec<VecDeque<WriteReq>>,
    /// Core `c`'s queued reads for bank `b`, at `c * BANKS + b`.
    read_split: Vec<RowSplit>,
    /// Queued writes for each bank, over all cores.
    write_split: [RowSplit; BANKS],
    /// Queued reads, over all cores.
    reads: usize,
    /// Queued writes, over all cores.
    writes: usize,
    counters: ProportionalCounters,
    served: usize,
    /// Writes left in the current batch (0: no batch). A batch starts
    /// only with writes queued and ends with the CAS of the last one, so
    /// it is never open while the write queues are empty.
    writes_left: usize,
    /// Data bus is busy until this cycle.
    bus_free_at: Cycle,
    /// tWTR: no read CAS until this cycle.
    read_ok_at: Cycle,
    /// No [`step`](Self::step) before this cycle can change the channel
    /// (see [`next_cmd`](Self::next_cmd)); recomputed after every change.
    cmd_at: Cycle,
    completions: BinaryHeap<Reverse<(Cycle, u64, u64, u8)>>, // (time, id, line, core)
    stats: DramStats,
}

impl Channel {
    fn new(num_cores: usize) -> Self {
        Channel {
            banks: Default::default(),
            read_q: vec![VecDeque::new(); num_cores],
            write_q: vec![VecDeque::new(); num_cores],
            read_split: vec![RowSplit::default(); num_cores * BANKS],
            write_split: [RowSplit::default(); BANKS],
            reads: 0,
            writes: 0,
            counters: ProportionalCounters::new(num_cores, 7),
            served: 0,
            writes_left: 0,
            bus_free_at: 0,
            read_ok_at: 0,
            cmd_at: Cycle::MAX,
            completions: BinaryHeap::new(),
            stats: DramStats::default(),
        }
    }

    fn push_read(&mut self, c: usize, req: ReadReq) -> bool {
        if self.read_q[c].len() >= READ_QUEUE {
            return false;
        }
        let b = req.loc.bank as usize;
        let open = self.banks[b].need(req.loc.row) == BankNeed::Cas;
        self.read_split[c * BANKS + b].add(open);
        self.read_q[c].push_back(req);
        self.reads += 1;
        self.cmd_at = self.next_cmd();
        true
    }

    fn push_write(&mut self, c: usize, req: WriteReq) -> bool {
        if self.write_q[c].len() >= WRITE_QUEUE {
            return false;
        }
        let b = req.loc.bank as usize;
        let open = self.banks[b].need(req.loc.row) == BankNeed::Cas;
        self.write_split[b].add(open);
        self.write_q[c].push_back(req);
        self.writes += 1;
        self.cmd_at = self.next_cmd();
        true
    }

    /// Earliest cycle a read CAS to bank `b`'s open row can issue.
    fn read_cas_at(&self, b: &Bank) -> Cycle {
        b.cas_ok_at
            .max(self.read_ok_at)
            .max(self.bus_free_at.saturating_sub(core_cycles(T_CL)))
    }

    /// Earliest cycle a write CAS to bank `b`'s open row can issue.
    fn write_cas_at(&self, b: &Bank) -> Cycle {
        b.cas_ok_at
            .max(self.bus_free_at.saturating_sub(core_cycles(T_CWL)))
    }

    /// Can a read CAS for `loc` issue right now?
    fn read_cas_ready(&self, now: Cycle, loc: DramLoc) -> bool {
        let b = &self.banks[loc.bank as usize];
        b.need(loc.row) == BankNeed::Cas && self.read_cas_at(b) <= now
    }

    /// Can a write CAS for `loc` issue right now?
    fn write_cas_ready(&self, now: Cycle, loc: DramLoc) -> bool {
        let b = &self.banks[loc.bank as usize];
        b.need(loc.row) == BankNeed::Cas && self.write_cas_at(b) <= now
    }

    /// Earliest cycles at which one of core `c`'s queued reads can take
    /// a CAS, and a PRE or ACT: O(banks), from the row splits.
    fn read_bounds(&self, c: usize) -> (Cycle, Cycle) {
        let mut cas = Cycle::MAX;
        let mut prep = Cycle::MAX;
        let splits = &self.read_split[c * BANKS..(c + 1) * BANKS];
        for (b, s) in self.banks.iter().zip(splits) {
            if s.open > 0 {
                cas = cas.min(self.read_cas_at(b));
            }
            if s.other > 0 {
                prep = prep.min(prep_at(b));
            }
        }
        (cas, prep)
    }

    /// Earliest cycle at which one of the queued writes can take a CAS.
    fn write_cas_bound(&self) -> Cycle {
        let mut cas = Cycle::MAX;
        for (b, s) in self.banks.iter().zip(&self.write_split) {
            if s.open > 0 {
                cas = cas.min(self.write_cas_at(b));
            }
        }
        cas
    }

    /// Earliest cycle at which a step's urgent mode can issue a command
    /// for core `c`: a CAS for any of its reads, or the PRE or ACT its
    /// oldest read needs.
    fn urgent_bound(&self, c: usize) -> Cycle {
        let Some(oldest) = self.read_q[c].front() else {
            return Cycle::MAX;
        };
        let b = &self.banks[oldest.loc.bank as usize];
        let cas = self.read_bounds(c).0;
        if b.need(oldest.loc.row) == BankNeed::Cas {
            cas
        } else {
            cas.min(prep_at(b))
        }
    }

    /// Is the lagging core `c` far enough behind the served one for the
    /// urgent mode (§5.3)?
    fn is_urgent(&self, c: usize) -> bool {
        !self.read_q[c].is_empty() && self.counters.diff(self.served, c) > URGENT_THRESHOLD
    }

    /// Does an idle channel start a write batch at its next step?
    fn batch_due(&self) -> bool {
        let any_full = self.write_q.iter().any(|q| q.len() >= WRITE_QUEUE - 1);
        self.writes > 0 && (any_full || (self.reads == 0 && self.writes >= WRITE_BATCH))
    }

    /// The earliest cycle at which a [`step`](Self::step) can change
    /// this channel, from its state alone: 0 when bookkeeping is due at
    /// the next boundary (a write batch starting, or the steady mode
    /// handing the bus to a lower-counter core); otherwise the first
    /// cycle one of the requests the mode can issue is ready. In steady
    /// mode those are the served core's reads; during a write batch,
    /// every write's CAS and each write queue's oldest request. Either
    /// way the urgent candidate's reads count too, whatever
    /// `l3_can_accept` will say. Bank, bus and queue state is frozen
    /// between changes, so the bound holds until the next one. The cost
    /// is O(banks + cores), with no walk over the queued requests.
    fn next_cmd(&self) -> Cycle {
        let lagging = self.pick_served();
        let mut at = if self.writes_left == 0 {
            if lagging != self.served || self.batch_due() {
                return 0;
            }
            let (cas, prep) = self.read_bounds(self.served);
            cas.min(prep)
        } else {
            let mut at = self.write_cas_bound();
            for q in &self.write_q {
                if let Some(w) = q.front() {
                    let b = &self.banks[w.loc.bank as usize];
                    if b.need(w.loc.row) != BankNeed::Cas {
                        at = at.min(prep_at(b));
                    }
                }
            }
            at
        };
        if self.is_urgent(lagging) {
            at = at.min(self.urgent_bound(lagging));
        }
        at
    }

    /// The earliest cycle ≥ `from` at which this channel can do any work
    /// (`None` when it never can without a new request): the oldest
    /// completion, or the first bus-cycle boundary at or after `cmd_at`.
    fn next_event(&self, from: Cycle) -> Option<Cycle> {
        let done = self.completions.peek().map(|&Reverse((t, ..))| t.max(from));
        let cmd = (self.cmd_at != Cycle::MAX).then(|| {
            self.cmd_at
                .max(from)
                .next_multiple_of(CORE_CYCLES_PER_BUS_CYCLE)
        });
        done.into_iter().chain(cmd).min()
    }

    /// Pops every read whose data has arrived by `now`.
    fn complete(&mut self, now: Cycle, out: &mut Vec<ReadCompletion>) {
        while let Some(&Reverse((t, id, line, core))) = self.completions.peek() {
            if t > now {
                break;
            }
            self.completions.pop();
            out.push(ReadCompletion {
                id,
                line: LineAddr(line),
                core: CoreId(core),
            });
        }
    }

    /// Issues a read CAS for core `c`'s oldest read that is ready for
    /// one now, if any. Returns true if a command was issued.
    fn issue_read_cas(&mut self, now: Cycle, c: usize, urgent: bool) -> bool {
        let Some(pos) = self.read_q[c]
            .iter()
            .position(|r| self.read_cas_ready(now, r.loc))
        else {
            return false;
        };
        let Some(req) = self.read_q[c].remove(pos) else {
            return false;
        };
        let b = req.loc.bank as usize;
        let row_hit = !self.banks[b].fresh_row;
        let data_end = self.banks[b].read(now);
        self.read_split[c * BANKS + b].open -= 1;
        self.reads -= 1;
        self.bus_free_at = data_end;
        self.completions
            .push(Reverse((data_end, req.id, req.line.0, c as u8)));
        self.counters.increment(c);
        self.stats.reads += 1;
        self.stats.row_hits += u64::from(row_hit);
        if urgent {
            self.stats.urgent_reads += 1;
        }
        true
    }

    /// Issues a write CAS for the first write, in core order then queue
    /// order, that is ready for one now. Returns true if one issued.
    fn issue_write_cas(&mut self, now: Cycle) -> bool {
        for c in 0..self.write_q.len() {
            let Some(pos) = self.write_q[c]
                .iter()
                .position(|w| self.write_cas_ready(now, w.loc))
            else {
                continue;
            };
            let Some(req) = self.write_q[c].remove(pos) else {
                return false;
            };
            let b = req.loc.bank as usize;
            let row_hit = !self.banks[b].fresh_row;
            let data_end = self.banks[b].write(now);
            self.write_split[b].open -= 1;
            self.writes -= 1;
            self.bus_free_at = data_end;
            self.read_ok_at = data_end + core_cycles(T_WTR);
            self.stats.writes += 1;
            self.stats.row_hits += u64::from(row_hit);
            return true;
        }
        false
    }

    /// Issues the preparatory command (PRE or ACT) a request needs, if
    /// its bank timing allows. Returns true if a command was issued.
    fn issue_prep(&mut self, now: Cycle, loc: DramLoc) -> bool {
        let bi = loc.bank as usize;
        let b = &mut self.banks[bi];
        match b.need(loc.row) {
            BankNeed::Cas => false,
            BankNeed::Precharge => {
                if b.pre_ok_at > now {
                    return false;
                }
                b.precharge(now);
                self.stats.row_conflicts += 1;
                for s in self.read_split[bi..].iter_mut().step_by(BANKS) {
                    s.other += std::mem::take(&mut s.open);
                }
                let s = &mut self.write_split[bi];
                s.other += std::mem::take(&mut s.open);
                true
            }
            BankNeed::Activate => {
                if b.act_ok_at > now {
                    return false;
                }
                b.activate(now, loc.row);
                self.stats.row_opens += 1;
                let hit = |l: &DramLoc| l.bank == loc.bank && l.row == loc.row;
                for (c, q) in self.read_q.iter().enumerate() {
                    let open = q.iter().filter(|r| hit(&r.loc)).count() as u32;
                    let s = &mut self.read_split[c * BANKS + bi];
                    s.other -= open;
                    s.open = open;
                }
                let open = self
                    .write_q
                    .iter()
                    .flatten()
                    .filter(|w| hit(&w.loc))
                    .count() as u32;
                let s = &mut self.write_split[bi];
                s.other -= open;
                s.open = open;
                true
            }
        }
    }

    /// Picks the served core: lowest fairness counter among cores with
    /// pending reads; falls back to the current one.
    fn pick_served(&self) -> usize {
        let mut best: Option<usize> = None;
        for c in 0..self.read_q.len() {
            if self.read_q[c].is_empty() {
                continue;
            }
            best = Some(match best {
                None => c,
                Some(b) if self.counters.get(c) < self.counters.get(b) => c,
                Some(b) => b,
            });
        }
        best.unwrap_or(self.served)
    }

    /// One scheduling step (at most one command), on bus-cycle boundaries.
    ///
    /// Returns true when any channel state changed (a command issued, a
    /// write batch started, the served core switched); false means the
    /// step was a complete no-op. No step before `cmd_at` can
    /// change anything (see [`next_cmd`](Self::next_cmd)), and the
    /// per-request scans below run only once an O(banks) bound says one
    /// of them will find a request.
    fn step(&mut self, now: Cycle, l3_can_accept: bool) -> bool {
        // ---- Urgent mode (§5.3): pre-empts the steady mode. ----
        if l3_can_accept {
            let lagging = self.pick_served();
            if self.is_urgent(lagging) {
                // Serve the lagging core's most ready request.
                if self.read_bounds(lagging).0 <= now && self.issue_read_cas(now, lagging, true) {
                    return true;
                }
                let loc = self.read_q[lagging][0].loc;
                if self.issue_prep(now, loc) {
                    return true;
                }
            }
        }

        // ---- Write batches. ----
        let mut changed = false;
        if self.writes_left == 0 && self.batch_due() {
            self.writes_left = WRITE_BATCH;
            changed = true;
        }
        if self.writes_left > 0 {
            // Select writes out-of-order across all queues, preferring
            // row hits, then any queue's oldest whose bank can progress.
            if self.write_cas_bound() <= now && self.issue_write_cas(now) {
                self.writes_left -= 1;
                if self.writes == 0 {
                    self.writes_left = 0;
                }
                return true;
            }
            for c in 0..self.write_q.len() {
                if let Some(req) = self.write_q[c].front() {
                    let loc = req.loc;
                    if self.issue_prep(now, loc) {
                        return true;
                    }
                }
            }
            // Nothing can progress this cycle.
            return changed;
        }

        // ---- Steady-mode reads: FR-FCFS for the served core. ----
        // Change the served core only when it has no row-hit-ready read
        // (or it has no reads at all).
        let mut ready = self.read_bounds(self.served);
        if ready.0 > now {
            let picked = self.pick_served();
            if picked != self.served {
                self.served = picked;
                ready = self.read_bounds(picked);
                changed = true;
            }
        }
        let c = self.served;
        // First ready row-hit, else FCFS order for preparation.
        if ready.0 <= now && self.issue_read_cas(now, c, false) {
            return true;
        }
        if ready.1 <= now {
            for p in 0..self.read_q[c].len() {
                let loc = self.read_q[c][p].loc;
                if self.issue_prep(now, loc) {
                    return true;
                }
            }
        }
        changed
    }
}

/// How many channel scheduling steps a memory system ran: exact work
/// counts, fixed by the requests it was given, and kept out of
/// [`DramStats`] because the stepping depends on how it is ticked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelSteps {
    /// Steps run: a channel is stepped on a bus-cycle boundary at or
    /// after its next-command bound.
    pub steps: u64,
    /// ... of which changed nothing (no command, no write batch, no
    /// switch of the served core).
    pub idle: u64,
}

/// The two-channel main memory system.
#[derive(Debug)]
pub struct MemorySystem {
    channels: [Channel; CHANNELS],
    steps: ChannelSteps,
}

impl MemorySystem {
    /// Creates a memory system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero cores.
    pub fn new(cfg: MemConfig) -> Self {
        assert!(cfg.num_cores >= 1);
        MemorySystem {
            channels: std::array::from_fn(|_| Channel::new(cfg.num_cores)),
            steps: ChannelSteps::default(),
        }
    }

    fn channel_of(&self, line: LineAddr) -> usize {
        map_line(line).channel as usize
    }

    /// True when the core's read queue in the line's channel can accept a
    /// request.
    pub fn can_accept_read(&self, line: LineAddr, core: CoreId) -> bool {
        let ch = self.channel_of(line);
        self.channels[ch].read_q[core.index()].len() < READ_QUEUE
    }

    /// Is a read for this line already pending (CAM search, §6.3 fn. 13)?
    pub fn has_pending_read(&self, line: LineAddr) -> bool {
        let ch = self.channel_of(line);
        self.channels[ch]
            .read_q
            .iter()
            .any(|q| q.iter().any(|r| r.line == line))
    }

    /// Enqueues a read; returns false when the queue is full.
    pub fn enqueue_read(&mut self, line: LineAddr, core: CoreId, id: u64, _now: Cycle) -> bool {
        let ch = self.channel_of(line);
        let req = ReadReq {
            id,
            line,
            loc: map_line(line),
        };
        self.channels[ch].push_read(core.index(), req)
    }

    /// Enqueues a writeback; returns false when the queue is full.
    pub fn enqueue_write(&mut self, line: LineAddr, core: CoreId, _now: Cycle) -> bool {
        let ch = self.channel_of(line);
        let req = WriteReq {
            loc: map_line(line),
        };
        self.channels[ch].push_write(core.index(), req)
    }

    /// Advances the memory system to `now`, collecting read completions.
    ///
    /// Command scheduling happens on bus-cycle boundaries (every 4 core
    /// cycles); `l3_can_accept` gates the urgent mode as in §5.3.
    ///
    /// A channel is stepped only on boundaries at or after its next-command
    /// bound, which it recomputes from per-bank request counts after
    /// every change of its state: every earlier step would be a no-op.
    /// The bound counts the urgent mode's candidate whatever
    /// `l3_can_accept` says, so the flag needs no part in it.
    pub fn tick(&mut self, now: Cycle, l3_can_accept: bool, out: &mut Vec<ReadCompletion>) {
        let boundary = now.is_multiple_of(CORE_CYCLES_PER_BUS_CYCLE);
        for ch in &mut self.channels {
            ch.complete(now, out);
            if !boundary || now < ch.cmd_at {
                continue;
            }
            self.steps.steps += 1;
            if ch.step(now, l3_can_accept) {
                ch.cmd_at = ch.next_cmd();
            } else {
                self.steps.idle += 1;
            }
        }
    }

    /// The channel scheduling steps run so far.
    pub fn channel_steps(&self) -> ChannelSteps {
        self.steps
    }

    /// Aggregated statistics over all channels.
    pub fn stats(&self) -> DramStats {
        self.channels
            .iter()
            .fold(DramStats::default(), |s, ch| s + ch.stats)
    }

    /// The earliest cycle ≥ `from` at which [`tick`](Self::tick) can do
    /// any work, or `None` when the memory system is idle until a new
    /// request arrives.
    ///
    /// O(channels): the minimum over each channel's oldest completion,
    /// which is exact, and its next-command bound rounded up to the
    /// bus-cycle boundary commands issue on. The bound may be early (the
    /// step is a no-op while `l3_can_accept` holds the urgent mode back)
    /// but never late: no state change is ever skipped.
    pub fn next_event(&self, from: Cycle) -> Option<Cycle> {
        self.channels
            .iter()
            .filter_map(|ch| ch.next_event(from))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_complete(
        mem: &mut MemorySystem,
        start: Cycle,
        max_cycles: Cycle,
    ) -> Vec<(Cycle, ReadCompletion)> {
        let mut done = Vec::new();
        let mut out = Vec::new();
        for now in start..start + max_cycles {
            out.clear();
            mem.tick(now, true, &mut out);
            for c in &out {
                done.push((now, *c));
            }
        }
        done
    }

    #[test]
    fn single_read_completes_with_idle_latency() {
        let cfg = MemConfig { num_cores: 1 };
        let mut mem = MemorySystem::new(cfg);
        assert!(mem.enqueue_read(LineAddr(0x1000), CoreId(0), 7, 0));
        let done = run_until_complete(&mut mem, 0, 1000);
        assert_eq!(done.len(), 1);
        let (t, c) = done[0];
        assert_eq!(c.id, 7);
        assert_eq!(c.line, LineAddr(0x1000));
        // ACT at 0 (first bus cycle), CAS at +tRCD, data end +tCL+tBURST:
        // (11 + 11 + 4) * 4 = 104 core cycles minimum.
        assert!(t >= 104, "completed too early: {t}");
        assert!(t <= 250, "completed too late: {t}");
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let cfg = MemConfig { num_cores: 1 };
        let mut mem = MemorySystem::new(cfg);
        // Two lines in the same row (consecutive lines share a row).
        assert!(mem.enqueue_read(LineAddr(0x1000), CoreId(0), 1, 0));
        assert!(mem.enqueue_read(LineAddr(0x1001), CoreId(0), 2, 0));
        let done = run_until_complete(&mut mem, 0, 2000);
        assert_eq!(done.len(), 2);
        let gap_same_row = done[1].0 - done[0].0;

        let mut mem2 = MemorySystem::new(MemConfig { num_cores: 1 });
        // Same bank, different row: 2^11 lines apart keeps bank bits but
        // changes the row.
        let a = LineAddr(0x1000);
        let b = LineAddr(0x1000 + (1 << 11) * 17);
        let same_bank =
            map_line(a).bank == map_line(b).bank && map_line(a).channel == map_line(b).channel;
        if same_bank {
            assert!(mem2.enqueue_read(a, CoreId(0), 1, 0));
            assert!(mem2.enqueue_read(b, CoreId(0), 2, 0));
            let done2 = run_until_complete(&mut mem2, 0, 4000);
            assert_eq!(done2.len(), 2);
            let gap_conflict = done2[1].0 - done2[0].0;
            assert!(
                gap_conflict > gap_same_row,
                "row conflict ({gap_conflict}) should cost more than row hit ({gap_same_row})"
            );
        }
    }

    #[test]
    fn one_act_and_two_reads_of_its_row_are_one_row_hit() {
        let mut mem = MemorySystem::new(MemConfig { num_cores: 1 });
        let (a, b) = (map_line(LineAddr(0x1000)), map_line(LineAddr(0x1001)));
        assert_eq!((a.channel, a.bank, a.row), (b.channel, b.bank, b.row));
        assert!(mem.enqueue_read(LineAddr(0x1000), CoreId(0), 1, 0));
        assert!(mem.enqueue_read(LineAddr(0x1001), CoreId(0), 2, 0));
        assert_eq!(run_until_complete(&mut mem, 0, 2000).len(), 2);
        let s = mem.stats();
        assert_eq!((s.row_hits, s.row_opens, s.reads), (1, 1, 2), "{s:?}");
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut mem = MemorySystem::new(MemConfig { num_cores: 1 });
        // Channel 0's read queue takes READ_QUEUE lines and rejects the
        // next one.
        let mut lines = (0u64..).map(LineAddr).filter(|&l| map_line(l).channel == 0);
        for (id, l) in lines.by_ref().take(READ_QUEUE).enumerate() {
            assert!(mem.can_accept_read(l, CoreId(0)));
            assert!(mem.enqueue_read(l, CoreId(0), id as u64, 0), "entry {id}");
        }
        let next = lines.next().expect("endless");
        assert!(!mem.can_accept_read(next, CoreId(0)));
        assert!(
            !mem.enqueue_read(next, CoreId(0), 99, 0),
            "entry 33 rejected"
        );
    }

    #[test]
    fn writes_drain_in_batches() {
        let cfg = MemConfig { num_cores: 1 };
        let mut mem = MemorySystem::new(cfg);
        for i in 0..40 {
            // Spread lines across channels; writes eventually drain.
            mem.enqueue_write(LineAddr(i * 128), CoreId(0), 0);
        }
        let mut out = Vec::new();
        for now in 0..20_000 {
            mem.tick(now, true, &mut out);
        }
        let s = mem.stats();
        assert!(s.writes > 0, "writes must be issued");
    }

    #[test]
    fn bandwidth_is_shared_between_cores() {
        let cfg = MemConfig { num_cores: 2 };
        let mut mem = MemorySystem::new(cfg);
        let mut id = 0u64;
        let mut out = Vec::new();
        let mut completions = [0u64; 2];
        // Keep both cores' queues loaded with streaming reads.
        let mut next_line = [0u64, 1u64 << 24];
        for now in 0..60_000u64 {
            for (c, line) in next_line.iter_mut().enumerate() {
                while mem.enqueue_read(LineAddr(*line), CoreId(c as u8), id, now) {
                    id += 1;
                    *line += 1;
                }
            }
            out.clear();
            mem.tick(now, true, &mut out);
            for comp in &out {
                completions[comp.core.index()] += 1;
            }
        }
        assert!(completions[0] > 100 && completions[1] > 100);
        let ratio = completions[0] as f64 / completions[1] as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "fairness: {completions:?} ratio {ratio}"
        );
    }

    #[test]
    fn pending_read_cam_search() {
        let mut mem = MemorySystem::new(MemConfig::default());
        assert!(!mem.has_pending_read(LineAddr(0x55)));
        mem.enqueue_read(LineAddr(0x55), CoreId(0), 1, 0);
        assert!(mem.has_pending_read(LineAddr(0x55)));
    }

    #[test]
    fn streaming_throughput_is_bandwidth_bound() {
        // A long unit-stride stream should sustain roughly one line per
        // tBURST per channel: check throughput is in a sane range.
        let cfg = MemConfig { num_cores: 1 };
        let mut mem = MemorySystem::new(cfg);
        let mut id = 0u64;
        let mut line = 0u64;
        let mut out = Vec::new();
        let mut completed = 0u64;
        let horizon = 100_000u64;
        for now in 0..horizon {
            while mem.enqueue_read(LineAddr(line), CoreId(0), id, now) {
                id += 1;
                line += 1;
            }
            out.clear();
            mem.tick(now, true, &mut out);
            completed += out.len() as u64;
        }
        // Two channels, tBURST = 16 core cycles: theoretical peak is one
        // line per 8 cycles; expect at least 20% of peak for streaming.
        let peak = horizon / 8;
        assert!(completed > peak / 5, "completed {completed} of peak {peak}");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use bosim_types::SplitMix64;

    /// Under arbitrary interleavings of reads and writebacks from up
    /// to four cores, every accepted read completes exactly once, no
    /// timing debug-assertion fires (tRCD/tRAS/tRP/tWR are encoded as
    /// `debug_assert`s in the bank state machine), and the system
    /// drains completely. Deterministic pseudo-random interleavings.
    #[test]
    fn prop_all_reads_complete_exactly_once() {
        let mut rng = SplitMix64::new(0xD2A77);
        for case in 0..32u64 {
            let mut mem = MemorySystem::new(MemConfig::default());
            let mut expected = std::collections::HashMap::new();
            let mut out = Vec::new();
            let mut now = 0u64;
            let mut id = 0u64;
            for _ in 0..(case * 4) % 120 + 1 {
                let l = LineAddr(rng.next_u64() % (1 << 22));
                let c = CoreId((rng.next_u64() % 4) as u8);
                let is_write = rng.next_u64().is_multiple_of(2);
                if is_write {
                    let _ = mem.enqueue_write(l, c, now);
                } else if !mem.has_pending_read(l) && mem.enqueue_read(l, c, id, now) {
                    expected.insert(id, l);
                    id += 1;
                }
                // Advance a few cycles between arrivals.
                for _ in 0..3 {
                    mem.tick(now, true, &mut out);
                    now += 1;
                }
            }
            // Drain.
            let deadline = now + 500_000;
            while !expected.is_empty() && now < deadline {
                mem.tick(now, true, &mut out);
                now += 1;
                for c in out.drain(..) {
                    let line = expected.remove(&c.id);
                    assert_eq!(line, Some(c.line), "completion mismatch");
                }
            }
            assert!(expected.is_empty(), "reads left pending: {expected:?}");
        }
    }

    /// Ticking only on the cycles [`MemorySystem::next_event`] names is
    /// indistinguishable from ticking every cycle: same completions on
    /// the same cycles, same statistics. This is the contract the
    /// skipping system loop relies on. Multi-core request streams over
    /// a few hot rows exercise row hits, conflicts, write batches and
    /// served-core switches.
    #[test]
    fn prop_next_event_ticks_match_every_cycle_ticks() {
        let mut rng = SplitMix64::new(0x7E7);
        for case in 0..24u64 {
            let cores = 2 + (case % 3) as usize;
            let mut arrivals = Vec::new();
            let mut at = 0u64;
            for id in 0..200u64 {
                at += rng.next_u64() % 24;
                let row = rng.next_u64() % 8;
                let line = LineAddr((row << 11) + rng.next_u64() % 32);
                let core = CoreId((rng.next_u64() % cores as u64) as u8);
                let write = rng.next_u64().is_multiple_of(4);
                arrivals.push((at, id, line, core, write));
            }
            let horizon = at + 50_000;
            let run = |every_cycle: bool| {
                let mut mem = MemorySystem::new(MemConfig { num_cores: cores });
                let mut done = Vec::new();
                let mut out = Vec::new();
                let mut next_arrival = 0;
                let mut due = 0;
                for now in 0..horizon {
                    let tick = every_cycle || now >= due;
                    if tick {
                        out.clear();
                        mem.tick(now, true, &mut out);
                        done.extend(out.iter().map(|c| (now, c.id)));
                    }
                    let mut enqueued = false;
                    while let Some(&(t, id, line, core, write)) = arrivals.get(next_arrival) {
                        if t != now {
                            break;
                        }
                        next_arrival += 1;
                        enqueued |= if write {
                            mem.enqueue_write(line, core, now)
                        } else {
                            !mem.has_pending_read(line) && mem.enqueue_read(line, core, id, now)
                        };
                    }
                    if tick || enqueued {
                        due = mem.next_event(now + 1).unwrap_or(Cycle::MAX);
                    }
                }
                (done, mem.stats())
            };
            let (every, every_stats) = run(true);
            let (sched, sched_stats) = run(false);
            assert_eq!(every_stats, sched_stats, "case {case}: stats");
            assert_eq!(every, sched, "case {case}: completions");
        }
    }

    /// [`MemorySystem::tick`] without the `cmd_at` skip: every channel
    /// steps on every bus boundary. Asserts that no step changes a
    /// channel before its `cmd_at`, judged by the served core, the batch
    /// counter and the command counts rather than by `step`'s own
    /// verdict.
    fn tick_every_boundary(
        mem: &mut MemorySystem,
        now: Cycle,
        l3_can_accept: bool,
        out: &mut Vec<ReadCompletion>,
    ) {
        let boundary = now.is_multiple_of(CORE_CYCLES_PER_BUS_CYCLE);
        for (i, ch) in mem.channels.iter_mut().enumerate() {
            ch.complete(now, out);
            if !boundary {
                continue;
            }
            let before = (ch.served, ch.writes_left, ch.stats);
            let changed = ch.step(now, l3_can_accept);
            assert_eq!(
                changed,
                before != (ch.served, ch.writes_left, ch.stats),
                "channel {i} at {now}: step misreported whether it changed"
            );
            assert!(
                !changed || now >= ch.cmd_at,
                "channel {i} changed at {now}, before its cmd_at {}",
                ch.cmd_at
            );
            if changed {
                ch.cmd_at = ch.next_cmd();
            }
        }
    }

    /// The incremental row splits and totals equal a recount from the
    /// queues and the banks' open rows.
    fn assert_splits_match_queues(mem: &MemorySystem, now: Cycle) {
        for (i, ch) in mem.channels.iter().enumerate() {
            let open = |l: DramLoc| ch.banks[l.bank as usize].open_row == Some(l.row);
            let mut reads = vec![RowSplit::default(); ch.read_split.len()];
            for (c, q) in ch.read_q.iter().enumerate() {
                for r in q {
                    reads[c * BANKS + r.loc.bank as usize].add(open(r.loc));
                }
            }
            let mut writes = [RowSplit::default(); BANKS];
            for w in ch.write_q.iter().flatten() {
                writes[w.loc.bank as usize].add(open(w.loc));
            }
            assert_eq!(ch.read_split, reads, "channel {i} at {now}: read splits");
            assert_eq!(ch.write_split, writes, "channel {i} at {now}: write splits");
            assert_eq!(ch.reads, ch.read_q.iter().map(VecDeque::len).sum::<usize>());
            assert_eq!(
                ch.writes,
                ch.write_q.iter().map(VecDeque::len).sum::<usize>()
            );
        }
    }

    /// The oracle for the `cmd_at` skip: [`MemorySystem::tick`] matches
    /// [`tick_every_boundary`] (same completions on the same cycles,
    /// same statistics), no step before `cmd_at` changes a channel, and
    /// the row splits always match a recount. Random arrivals alone never
    /// reach urgent mode, because the lowest-counter core is the one
    /// served; so core 0 streams and builds a counter lead while the
    /// other cores idle and then burst, often into core 0's open rows,
    /// and write-heavy phases keep batches running, during which the
    /// served core cannot switch. `l3_can_accept` flips within phases.
    #[test]
    fn prop_skipped_steps_match_stepping_every_boundary() {
        let mut urgent = 0;
        let mut writes = 0;
        for case in 0..16u64 {
            let cores = 1 + (case % 4) as usize;
            let horizon = 16_000u64;
            let run = |reference: bool| {
                let mut rng = SplitMix64::new(0x5C1D ^ case);
                let mut mem = MemorySystem::new(MemConfig { num_cores: cores });
                let mut done = Vec::new();
                let mut out = Vec::new();
                let mut id = 0u64;
                let mut stream = 0u64;
                let (mut l3_mode, mut write_heavy) = (0, false);
                let mut bursts = vec![(0u64, 0u64); cores];
                for now in 0..horizon + 20_000 {
                    let active = now < horizon;
                    if active && now.is_multiple_of(512) {
                        l3_mode = rng.next_u64() % 3;
                        write_heavy = rng.next_u64().is_multiple_of(2);
                        for b in bursts.iter_mut().skip(1) {
                            // (first cycle, reads): mostly idle, so that
                            // core 0 builds its counter lead.
                            let r = rng.next_u64();
                            let reads = if r.is_multiple_of(4) { 4 + r % 40 } else { 0 };
                            *b = (now + (r >> 8) % 512, reads);
                        }
                    }
                    let coin = rng.next_u64();
                    let l3_can_accept = !active
                        || match l3_mode {
                            0 => true,
                            1 => coin.is_multiple_of(2),
                            _ => !coin.is_multiple_of(8),
                        };
                    out.clear();
                    if reference {
                        tick_every_boundary(&mut mem, now, l3_can_accept, &mut out);
                    } else {
                        mem.tick(now, l3_can_accept, &mut out);
                    }
                    done.extend(out.iter().map(|c| (now, c.id)));
                    if now.is_multiple_of(CORE_CYCLES_PER_BUS_CYCLE) {
                        assert_splits_match_queues(&mem, now);
                    }
                    if !active {
                        continue;
                    }
                    let draw = rng.next_u64();
                    // Core 0 streams through consecutive lines.
                    if draw.is_multiple_of(2)
                        && !mem.has_pending_read(LineAddr(stream))
                        && mem.enqueue_read(LineAddr(stream), CoreId(0), id, now)
                    {
                        id += 1;
                        stream += 1;
                    }
                    // The other cores burst, half into core 0's rows.
                    for (c, b) in bursts.iter_mut().enumerate().skip(1) {
                        let pick = rng.next_u64();
                        if now < b.0 || b.1 == 0 {
                            continue;
                        }
                        let line = if pick.is_multiple_of(2) {
                            stream + pick % 64
                        } else {
                            ((pick % 8) << 11) + (pick >> 8) % 128
                        };
                        let line = LineAddr(line);
                        if !mem.has_pending_read(line)
                            && mem.enqueue_read(line, CoreId(c as u8), id, now)
                        {
                            id += 1;
                            b.1 -= 1;
                        }
                    }
                    let w = rng.next_u64();
                    if w % 16 < if write_heavy { 10 } else { 1 } {
                        let line = LineAddr((((w >> 8) % 8) << 11) + (w >> 16) % 256);
                        let _ =
                            mem.enqueue_write(line, CoreId(((w >> 32) % cores as u64) as u8), now);
                    }
                }
                assert_eq!(mem.next_event(0), None, "case {case}: did not drain");
                (done, mem.stats())
            };
            let (fast, fast_stats) = run(false);
            let (every, every_stats) = run(true);
            assert_eq!(fast_stats, every_stats, "case {case}: stats");
            assert_eq!(fast, every, "case {case}: completions");
            urgent += fast_stats.urgent_reads;
            writes += fast_stats.writes;
        }
        assert!(urgent > 0, "no case reached urgent mode");
        assert!(writes > 0, "no case issued a write");
    }
}
