//! The out-of-order core timing model.
//!
//! Trace-driven and cycle-approximate, calibrated to Table 1: 256-entry
//! ROB, 8-wide decode, 12-wide retire, 2 load ports, 32 DL1 MSHRs, 12
//! cycle minimum branch misprediction penalty with redirect at branch
//! execution, TAGE/ITTAGE prediction, two-level TLBs, 32KB 8-way IL1/DL1
//! (3-cycle DL1), a 42-entry store buffer draining in the background, and
//! an L1D prefetch site holding the §5.5 PC-indexed stride prefetcher
//! (trained at retirement and issuing at access time through the TLB2)
//! or nothing.
//!
//! Scheduling is event-driven inside a per-cycle `tick`: register
//! dependences are tracked through a scoreboard with wakeup lists, so
//! pointer chases serialise on memory latency while independent loads
//! expose memory-level parallelism — the two behaviours that decide
//! whether prefetch timeliness matters.
//!
//! The ROB is a fixed ring of [`ROB_SIZE`] entries: µop `seq` lives in
//! slot `seq % ROB_SIZE` while `head_seq <= seq < next_seq`, so dispatch
//! and retirement allocate nothing. Wakeup lists are intrusive FIFOs
//! threaded through the ring: a producer holds the head and tail of the
//! list of consumer source slots waiting on it, and each consumer slot
//! holds the link to the next one. A link names µop `seq`'s source slot
//! `s` as `seq * 2 + s`; a µop naming one producer in both slots sits on
//! its list twice and wakes on the second. Dependents wake in attach
//! order, which decides their port reservations.

use crate::tage::{Ittage, Tage};
use crate::tlb::{PageTranslator, TlbHierarchy};
use bosim_baselines::StridePrefetcher;
use bosim_cache::policy::{InsertCtx, PolicyKind};
use bosim_cache::{CacheArray, MshrFile};
use bosim_obs::EventKind;
use bosim_trace::{MicroOp, TraceSource, UopKind, NUM_REGS};
use bosim_types::{CoreId, Cycle, LineAddr, PageSize, ReqClass, VirtAddr};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Reorder buffer capacity, µops (Table 1: 256).
pub const ROB_SIZE: usize = 256;
/// Decode/dispatch width, instructions per cycle (Table 1: 8).
pub const DISPATCH_WIDTH: usize = 8;
/// Retire width, µops per cycle (Table 1: 12).
pub const RETIRE_WIDTH: usize = 12;
/// Loads issued per cycle (Table 1: 2 load ports).
pub const LOAD_PORTS: usize = 2;
/// Integer execution ports (Table 1: 4).
pub const INT_PORTS: usize = 4;
/// FP execution ports (Table 1: 2).
pub const FP_PORTS: usize = 2;
/// Store buffer entries (Table 1: 42).
pub const STORE_BUFFER: usize = 42;
/// DL1 MSHR block requests (Table 1: 32).
pub const MSHRS: usize = 32;
/// Minimum branch misprediction penalty, cycles (Table 1: 12).
pub const MISPREDICT_PENALTY: u64 = 12;
/// DL1 hit latency, cycles (Table 1: 3).
pub const DL1_LATENCY: u64 = 3;
/// DL1 capacity in bytes (Table 1: 32KB).
pub const DL1_SIZE: u64 = 32 << 10;
/// DL1 associativity (Table 1: 8 ways).
pub const DL1_WAYS: usize = 8;
/// IL1 capacity in bytes (Table 1: 32KB).
pub const IL1_SIZE: u64 = 32 << 10;
/// IL1 associativity (Table 1: 8 ways).
pub const IL1_WAYS: usize = 8;

/// A request the core sends to the uncore (its private L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncoreRequest {
    /// Read a block (demand miss or DL1 prefetch).
    Read {
        /// Physical line.
        line: LineAddr,
        /// Demand vs L1-prefetch class.
        class: ReqClass,
        /// True for instruction fetches.
        ifetch: bool,
    },
    /// Write back a dirty block evicted from the DL1.
    Writeback {
        /// Physical line.
        line: LineAddr,
    },
}

/// Core-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Conditional branches seen.
    pub branches: u64,
    /// Mispredicted branches (direction or target).
    pub mispredicts: u64,
    /// Data loads executed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// DL1 load hits.
    pub dl1_hits: u64,
    /// DL1 load misses (block requests sent to L2, before merging).
    pub dl1_misses: u64,
    /// IL1 misses.
    pub il1_misses: u64,
    /// L1D-site prefetch requests issued to the uncore.
    pub l1_prefetches: u64,
    /// L1D-site prefetch requests dropped on a TLB2 miss.
    pub l1_prefetch_tlb_drops: u64,
}

bosim_types::counter_arith!(CoreStats {
    retired,
    branches,
    mispredicts,
    loads,
    stores,
    dl1_hits,
    dl1_misses,
    il1_misses,
    l1_prefetches,
    l1_prefetch_tlb_drops,
});

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegState {
    Known(Cycle),
    Pending(u64),
}

/// A wakeup-list link: `seq * 2 + s` names source slot `s` of µop
/// `seq` (see the module docs); [`NIL`] ends a list.
type Link = u64;

/// The end of a wakeup list.
const NIL: Link = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    kind: UopKind,
    pc: u64,
    /// Loads and stores: the data address; 0 otherwise.
    vaddr: u64,
    dst: Option<u8>,
    done_at: Option<Cycle>,
    /// Producers still outstanding.
    unresolved: u8,
    /// Earliest known execution start.
    ready_hint: Cycle,
    /// First and last consumer source slot waiting for this entry's
    /// completion, in attach order.
    wait_head: Link,
    wait_tail: Link,
    /// Per source slot: the next consumer slot on the same producer's
    /// wakeup list.
    next: [Link; 2],
    mispredicted: bool,
    /// Loads: the address translation penalty has been charged.
    translated: bool,
}

/// The contents of a ring slot no µop has used yet.
const EMPTY: RobEntry = RobEntry {
    kind: UopKind::Int,
    pc: 0,
    vaddr: 0,
    dst: None,
    done_at: None,
    unresolved: 0,
    ready_hint: 0,
    wait_head: NIL,
    wait_tail: NIL,
    next: [NIL; 2],
    mispredicted: false,
    translated: false,
};

/// The ring slot of µop `seq`.
#[inline]
fn slot(seq: u64) -> usize {
    (seq % ROB_SIZE as u64) as usize
}

const PORT_RING: usize = 256;

/// µops pulled from the trace source per decode-ring refill. Batching
/// amortizes the virtual `TraceSource` call; it changes only *when* µops
/// leave the source, never which µops the front end sees.
const DECODE_BATCH: usize = 64;

/// One simulated core: front-end, ROB, L1 caches, TLBs and predictors.
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    trace: Box<dyn TraceSource>,
    translator: PageTranslator,
    /// TLB hierarchy (public for experiment configuration).
    pub tlbs: TlbHierarchy,
    tage: Tage,
    ittage: Ittage,
    il1: CacheArray,
    dl1: CacheArray,
    mshr: MshrFile,
    /// The L1D prefetch site (`None` = site empty, Figure 4).
    l1_prefetcher: Option<StridePrefetcher>,

    /// The ROB ring: µop `seq` is `rob[slot(seq)]` while
    /// `head_seq <= seq < next_seq`.
    rob: [RobEntry; ROB_SIZE],
    head_seq: u64,
    next_seq: u64,
    regs: [RegState; NUM_REGS],
    /// Pending load issues and retries, `(cycle, seq)`, earliest first.
    events: BinaryHeap<Reverse<(Cycle, u64)>>,

    fetch_stalled_until: Cycle,
    ifetch_pending: Option<LineAddr>,
    cur_fetch_vline: u64,
    pending_uop: Option<MicroOp>,
    /// Decode ring: µops pre-pulled from the trace source in blocks of
    /// [`DECODE_BATCH`]. `decode_pos` is the read cursor into it.
    decode_buf: Vec<MicroOp>,
    decode_pos: usize,

    store_buffer: VecDeque<(u64, u64)>, // (pc, vaddr)
    /// The head store already charged its one-time TLB probe.
    store_probed: bool,
    /// The head store is parked on a full MSHR. Nothing this core does
    /// on its own can free a slot, so the scheduled loop may sleep the
    /// core; only a [`fill`](Self::fill) clears the flag.
    store_blocked: bool,
    ports: Vec<(Cycle, u8)>,
    int_port_ring: Vec<(Cycle, u8)>,
    fp_port_ring: Vec<(Cycle, u8)>,

    stats: CoreStats,
    /// Buffered L1D-site observability events; `None` (the default)
    /// disables buffering entirely.
    obs: Option<Vec<EventKind>>,
}

impl Core {
    /// Creates a core running `trace` with the given page size and
    /// translation seed. `l1_prefetcher` occupies the L1D prefetch site
    /// (`None` leaves the site empty, as in the Figure 4 ablation) and
    /// issues through the TLB2-probe / MSHR-drop path of §5.5.
    pub fn new(
        id: CoreId,
        trace: Box<dyn TraceSource>,
        page: PageSize,
        seed: u64,
        l1_prefetcher: Option<StridePrefetcher>,
    ) -> Self {
        Core {
            id,
            trace,
            translator: PageTranslator::new(seed ^ (0x517E * (id.index() as u64 + 1)), page),
            tlbs: TlbHierarchy::with_defaults(),
            tage: Tage::with_defaults(),
            ittage: Ittage::with_defaults(),
            il1: CacheArray::new(IL1_SIZE, IL1_WAYS, PolicyKind::Lru, 1, seed ^ 1),
            dl1: CacheArray::new(DL1_SIZE, DL1_WAYS, PolicyKind::Lru, 1, seed ^ 2),
            mshr: MshrFile::new(MSHRS),
            l1_prefetcher,
            rob: [EMPTY; ROB_SIZE],
            head_seq: 0,
            next_seq: 0,
            regs: [RegState::Known(0); NUM_REGS],
            events: BinaryHeap::new(),
            fetch_stalled_until: 0,
            ifetch_pending: None,
            cur_fetch_vline: u64::MAX,
            pending_uop: None,
            decode_buf: Vec::new(),
            decode_pos: 0,
            store_buffer: VecDeque::new(),
            store_probed: false,
            store_blocked: false,
            ports: vec![(u64::MAX, 0); PORT_RING],
            int_port_ring: vec![(u64::MAX, 0); PORT_RING],
            fp_port_ring: vec![(u64::MAX, 0); PORT_RING],
            stats: CoreStats::default(),
            obs: None,
        }
    }

    /// Enables or disables buffering of the L1D site's events (issues
    /// and TLB2 drops), which the simulator drains with
    /// [`drain_obs`](Self::drain_obs) every cycle and stamps.
    pub fn set_obs_sink(&mut self, enabled: bool) {
        self.obs = if enabled {
            Some(self.obs.take().unwrap_or_default())
        } else {
            None
        };
    }

    /// Moves any buffered events into `out`, in issue order.
    pub fn drain_obs(&mut self, out: &mut Vec<EventKind>) {
        if let Some(obs) = &mut self.obs {
            out.append(obs);
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// The virtual→physical translator (used by tests).
    pub fn translator(&self) -> &PageTranslator {
        &self.translator
    }

    /// µops in the ROB.
    #[inline]
    fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// The oldest µop, if the ROB is not empty.
    #[inline]
    fn rob_head(&self) -> Option<&RobEntry> {
        (self.head_seq < self.next_seq).then(|| &self.rob[slot(self.head_seq)])
    }

    #[inline]
    fn entry_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        (self.head_seq..self.next_seq)
            .contains(&seq)
            .then(|| &mut self.rob[slot(seq)])
    }

    /// Appends `link` (a consumer's source slot) to `producer`'s wakeup
    /// list. Returns false when `producer` is not in the ROB.
    fn attach(&mut self, producer: u64, link: Link) -> bool {
        let Some(p) = self.entry_mut(producer) else {
            return false;
        };
        let tail = std::mem::replace(&mut p.wait_tail, link);
        if tail == NIL {
            p.wait_head = link;
        } else {
            self.rob[slot(tail >> 1)].next[(tail & 1) as usize] = link;
        }
        true
    }

    /// Reserves a load port at or after `t`; returns the granted cycle.
    fn reserve_port(&mut self, mut t: Cycle) -> Cycle {
        loop {
            let slot = (t as usize) % PORT_RING;
            if self.ports[slot].0 != t {
                self.ports[slot] = (t, 0);
            }
            if (self.ports[slot].1 as usize) < LOAD_PORTS {
                self.ports[slot].1 += 1;
                return t;
            }
            t += 1;
        }
    }

    /// Reserves an execution port (INT or FP) at or after `t`.
    fn reserve_exec_port(&mut self, kind: UopKind, mut t: Cycle) -> Cycle {
        let (ring, cap) = match kind {
            UopKind::Fp | UopKind::FpDiv => (&mut self.fp_port_ring, FP_PORTS),
            _ => (&mut self.int_port_ring, INT_PORTS),
        };
        loop {
            let slot = (t as usize) % PORT_RING;
            if ring[slot].0 != t {
                ring[slot] = (t, 0);
            }
            if (ring[slot].1 as usize) < cap {
                ring[slot].1 += 1;
                return t;
            }
            t += 1;
        }
    }

    /// Marks `seq` complete at `done`, propagating to the scoreboard and
    /// waking dependents.
    fn complete(&mut self, seq: u64, done: Cycle, out: &mut Vec<UncoreRequest>) {
        let (dst, mut link, mispredicted) = {
            let e = match self.entry_mut(seq) {
                Some(e) => e,
                None => return,
            };
            e.done_at = Some(done);
            e.wait_tail = NIL;
            (
                e.dst,
                std::mem::replace(&mut e.wait_head, NIL),
                e.mispredicted,
            )
        };
        if let Some(d) = dst {
            if self.regs[d as usize] == RegState::Pending(seq) {
                self.regs[d as usize] = RegState::Known(done);
            }
        }
        if mispredicted {
            // Redirect at execution + pipeline-refill minimum (Table 1):
            // replaces the stall sentinel set at dispatch.
            self.fetch_stalled_until = done + MISPREDICT_PENALTY;
        }
        while link != NIL {
            let w = link >> 1;
            let (next, sched) = {
                // A waiter cannot retire before its producers complete,
                // so it is always in the ROB.
                let Some(e) = self.entry_mut(w) else {
                    break;
                };
                e.unresolved -= 1;
                e.ready_hint = e.ready_hint.max(done);
                let sched = (e.unresolved == 0).then_some(e.ready_hint);
                (e.next[(link & 1) as usize], sched)
            };
            // Scheduling may complete `w` and walk its own list; that
            // list threads through other slots, so `next` stays valid.
            if let Some(ready) = sched {
                self.schedule_exec(w, ready, out);
            }
            link = next;
        }
    }

    /// Schedules execution of `seq` once all its producers are known.
    fn schedule_exec(&mut self, seq: u64, ready: Cycle, out: &mut Vec<UncoreRequest>) {
        let kind = match self.entry_mut(seq) {
            Some(e) => e.kind,
            None => return,
        };
        if kind == UopKind::Load {
            let t = self.reserve_port(ready);
            self.events.push(Reverse((t, seq)));
        } else {
            let start = self.reserve_exec_port(kind, ready);
            let done = start + kind.exec_latency();
            self.complete(seq, done, out);
        }
    }

    /// Executes a load's DL1 access at its issue cycle.
    fn load_issue(&mut self, seq: u64, now: Cycle, out: &mut Vec<UncoreRequest>) {
        let (pc, vaddr) = match self.entry_mut(seq) {
            Some(e) => (e.pc, e.vaddr),
            None => return,
        };
        let va = VirtAddr(vaddr);
        // Translation penalty delays the access; charged exactly once per
        // load (the walk result is kept, so a retry must not re-probe —
        // concurrent loads with set-conflicting VPNs would otherwise
        // evict each other's entries forever).
        let translated = self.entry_mut(seq).map(|e| e.translated).unwrap_or(true);
        if !translated {
            if let Some(e) = self.entry_mut(seq) {
                e.translated = true;
            }
            let penalty = self
                .tlbs
                .data_penalty(va.page_number(self.translator.page_size()));
            if penalty > 0 {
                self.events.push(Reverse((now + penalty, seq)));
                return;
            }
        }
        let line = self.translator.translate(va);
        match self.dl1.access(line, false) {
            Some(hit) => {
                self.stats.dl1_hits += 1;
                let done = now + DL1_LATENCY;
                self.complete(seq, done, out);
                if hit.was_prefetch {
                    // Prefetched hit: the L1 prefetcher triggers.
                    self.try_l1_prefetch(pc, va, out);
                }
            }
            None => {
                // Merge with a pending request if possible.
                if let Some(e) = self.mshr.find_mut(line) {
                    e.waiters.push(seq);
                    self.try_l1_prefetch(pc, va, out);
                    return;
                }
                let Some(e) = self.mshr.alloc(line, false) else {
                    // MSHR full: retry next cycle.
                    self.events.push(Reverse((now + 1, seq)));
                    return;
                };
                e.waiters.push(seq);
                self.stats.dl1_misses += 1;
                out.push(UncoreRequest::Read {
                    line,
                    class: ReqClass::Demand,
                    ifetch: false,
                });
                self.try_l1_prefetch(pc, va, out);
            }
        }
    }

    /// The §5.5 L1D prefetch issue path (access-time trigger, TLB2
    /// probe, MSHR allocation).
    fn try_l1_prefetch(&mut self, pc: u64, vaddr: VirtAddr, out: &mut Vec<UncoreRequest>) {
        let Some(l1) = self.l1_prefetcher.as_mut() else {
            return;
        };
        let Some(target) = l1.on_access(pc, vaddr) else {
            return;
        };
        let page = self.translator.page_size();
        if !self.tlbs.prefetch_probe(target.page_number(page)) {
            self.stats.l1_prefetch_tlb_drops += 1;
            if let Some(obs) = &mut self.obs {
                // The target was never translated: no line address.
                obs.push(EventKind::PrefetchDropped { line: 0 });
            }
            return;
        }
        let line = self.translator.translate(target);
        if self.dl1.contains(line) || self.mshr.find(line).is_some() {
            return;
        }
        if self.mshr.alloc(line, true).is_none() {
            return; // MSHR full: drop the prefetch.
        }
        self.stats.l1_prefetches += 1;
        if let Some(obs) = &mut self.obs {
            obs.push(EventKind::PrefetchIssued { line: line.0 });
        }
        out.push(UncoreRequest::Read {
            line,
            class: ReqClass::L1Prefetch,
            ifetch: false,
        });
    }

    /// Delivers a filled block from the uncore (the sim calls this when
    /// the block is forwarded to the DL1/IL1 fill path).
    pub fn fill(&mut self, line: LineAddr, now: Cycle, out: &mut Vec<UncoreRequest>) {
        // A fill is the one event that can unpark a head store blocked
        // on a full MSHR: it frees a slot and may land the line itself.
        self.store_blocked = false;
        if self.ifetch_pending == Some(line) {
            self.ifetch_pending = None;
            if !self.il1.contains(line) {
                self.il1.insert(
                    line,
                    false,
                    false,
                    InsertCtx {
                        demand: true,
                        core: self.id,
                    },
                );
            }
            // Fetch resumes; fall through in case a data request for the
            // same line is also pending in the MSHRs.
        }
        let Some(entry) = self.mshr.complete(line) else {
            return;
        };
        let demanded = !entry.waiters.is_empty();
        for seq in entry.waiters {
            self.complete(seq, now + 1, out);
        }
        if !self.dl1.contains(line) {
            let evicted = self.dl1.insert(
                line,
                entry.prefetch && !demanded && !entry.store,
                entry.store,
                InsertCtx {
                    demand: demanded || entry.store,
                    core: self.id,
                },
            );
            if let Some(ev) = evicted {
                if ev.dirty {
                    out.push(UncoreRequest::Writeback { line: ev.line });
                }
            }
        }
    }

    /// Drains one committed store per cycle through the DL1.
    ///
    /// A store probes the TLB once, when it first reaches the buffer
    /// head — a parked store holds its translation, it does not
    /// re-touch TLB state on every retry. A head parked on a full MSHR
    /// sets `store_blocked`: every later retry is provably identical
    /// (the DL1 and MSHR only gain the line, and the MSHR only frees a
    /// slot, through a fill), so until a fill clears the flag a tick
    /// skips the retry and [`next_work_cycle`](Self::next_work_cycle)
    /// lets the scheduled loop sleep the core. The sleep holds with a
    /// full buffer too: a completed ROB-head store waiting for a buffer
    /// slot then adds no retirement term, since the slot frees only
    /// when this blocked head drains.
    fn drain_store(&mut self, out: &mut Vec<UncoreRequest>) {
        if self.store_blocked {
            return;
        }
        let Some(&(_pc, vaddr)) = self.store_buffer.front() else {
            return;
        };
        let va = VirtAddr(vaddr);
        if !self.store_probed {
            // Committed stores absorb translation latency; the probe
            // still charges the TLB hierarchy (fills + LRU) once.
            let _ = self
                .tlbs
                .data_penalty(va.page_number(self.translator.page_size()));
            self.store_probed = true;
        }
        let line = self.translator.translate(va);
        if self.dl1.access(line, true).is_some() {
            self.pop_store();
            return;
        }
        if let Some(e) = self.mshr.find_mut(line) {
            e.store = true;
            self.pop_store();
            return;
        }
        if let Some(e) = self.mshr.alloc(line, false) {
            e.store = true;
            self.stats.dl1_misses += 1;
            out.push(UncoreRequest::Read {
                line,
                class: ReqClass::Demand,
                ifetch: false,
            });
            self.pop_store();
            return;
        }
        // MSHR full: the store waits at the buffer head until a fill
        // frees a slot (or lands the line itself).
        self.store_blocked = true;
    }

    /// Retires the head store from the buffer and re-arms the one-shot
    /// head-store state.
    fn pop_store(&mut self) {
        self.store_buffer.pop_front();
        self.store_probed = false;
        self.store_blocked = false;
    }

    /// Retires up to `retire_width` completed µops in program order,
    /// training the L1 prefetcher and committing stores.
    fn retire(&mut self, now: Cycle) {
        for _ in 0..RETIRE_WIDTH {
            let Some(&RobEntry {
                kind,
                pc,
                vaddr,
                done_at,
                ..
            }) = self.rob_head()
            else {
                return;
            };
            match done_at {
                Some(t) if t <= now => {}
                _ => return,
            }
            if kind == UopKind::Store && self.store_buffer.len() >= STORE_BUFFER {
                return; // store buffer full: stall retirement
            }
            self.head_seq += 1;
            self.stats.retired += 1;
            if kind.is_mem() {
                if let Some(l1) = self.l1_prefetcher.as_mut() {
                    l1.on_retire(pc, VirtAddr(vaddr));
                }
                if kind == UopKind::Load {
                    self.stats.loads += 1;
                }
                if kind == UopKind::Store {
                    self.stats.stores += 1;
                    self.store_buffer.push_back((pc, vaddr));
                }
            }
        }
    }

    /// The next µop off the decode ring. The ring refills in
    /// [`DECODE_BATCH`] blocks via [`TraceSource::next_block`]; sources
    /// are infinite, so a refill always produces µops (a defensive
    /// fallback covers a custom source that ignores the contract).
    #[inline]
    fn next_decoded(&mut self) -> MicroOp {
        if self.decode_pos == self.decode_buf.len() {
            self.decode_buf.clear();
            self.decode_pos = 0;
            self.trace.next_block(&mut self.decode_buf, DECODE_BATCH);
            if self.decode_buf.is_empty() {
                return self.trace.next_uop();
            }
        }
        let u = self.decode_buf[self.decode_pos];
        self.decode_pos += 1;
        u
    }

    /// Front end: fetch/dispatch up to `dispatch_width` µops.
    fn dispatch(&mut self, now: Cycle, out: &mut Vec<UncoreRequest>) {
        if now < self.fetch_stalled_until || self.ifetch_pending.is_some() {
            return;
        }
        let mut line_switches = 0;
        let mut taken_branches = 0;
        for _ in 0..DISPATCH_WIDTH {
            if self.rob_len() >= ROB_SIZE {
                return;
            }
            let uop = match self.pending_uop.take() {
                Some(u) => u,
                None => self.next_decoded(),
            };
            // --- Instruction fetch: 1 line and 1 taken branch per cycle.
            let vline = uop.pc >> 6;
            if vline != self.cur_fetch_vline {
                if line_switches >= 1 {
                    self.pending_uop = Some(uop);
                    return;
                }
                let page = self.translator.page_size();
                let vpn = VirtAddr(uop.pc).page_number(page);
                let penalty = self.tlbs.instr_penalty(vpn);
                if penalty > 0 {
                    self.fetch_stalled_until = now + penalty;
                    self.pending_uop = Some(uop);
                    return;
                }
                let pline = self.translator.translate(VirtAddr(uop.pc));
                if self.il1.access(pline, false).is_none() {
                    self.stats.il1_misses += 1;
                    self.ifetch_pending = Some(pline);
                    out.push(UncoreRequest::Read {
                        line: pline,
                        class: ReqClass::Demand,
                        ifetch: true,
                    });
                    self.pending_uop = Some(uop);
                    return;
                }
                self.cur_fetch_vline = vline;
                line_switches += 1;
            }

            // --- Branch prediction.
            let mut mispredicted = false;
            if uop.kind.is_branch() {
                match uop.kind {
                    UopKind::CondBranch => {
                        self.stats.branches += 1;
                        let correct = self.tage.update(uop.pc, uop.taken);
                        if !correct {
                            mispredicted = true;
                        }
                    }
                    UopKind::IndirectBranch => {
                        self.stats.branches += 1;
                        let correct = self.ittage.update(uop.pc, uop.addr);
                        if !correct {
                            mispredicted = true;
                        }
                    }
                    _ => {} // direct jumps: predicted correctly
                }
                if mispredicted {
                    self.stats.mispredicts += 1;
                }
                if uop.taken {
                    taken_branches += 1;
                }
            }

            // --- Rename/dispatch into the ROB. The entry goes in first,
            // so a µop naming one producer in both source slots can link
            // its slot 0 to its slot 1.
            let seq = self.next_seq;
            self.rob[slot(seq)] = RobEntry {
                kind: uop.kind,
                pc: uop.pc,
                vaddr: uop.data_addr().unwrap_or(0),
                dst: uop.dst.map(|r| r.0),
                mispredicted,
                ..EMPTY
            };
            self.next_seq += 1;
            let mut unresolved = 0u8;
            let mut ready = now;
            for (s, src) in uop.srcs.iter().enumerate() {
                let Some(src) = src else {
                    continue;
                };
                match self.regs[src.index()] {
                    RegState::Known(t) => ready = ready.max(t),
                    RegState::Pending(p) => {
                        if self.attach(p, seq * 2 + s as u64) {
                            unresolved += 1;
                        }
                    }
                }
            }
            let e = &mut self.rob[slot(seq)];
            e.unresolved = unresolved;
            e.ready_hint = ready;
            if let Some(d) = uop.dst {
                self.regs[d.index()] = RegState::Pending(seq);
            }
            if mispredicted {
                // Stall fetch until the branch executes; `complete`
                // replaces the sentinel with the real redirect time.
                self.fetch_stalled_until = u64::MAX;
            }
            if unresolved == 0 {
                self.schedule_exec(seq, ready, out);
            }
            if mispredicted {
                return;
            }
            if taken_branches >= 1 && uop.kind.is_branch() {
                return; // 1 taken branch per fetch cycle
            }
        }
    }

    /// The earliest cycle ≥ `from` at which [`tick`](Self::tick) can do
    /// any work on its own, or [`Cycle::MAX`] when only an external
    /// [`fill`](Self::fill) can wake the core (e.g. the ROB head is an
    /// outstanding miss and the front end is blocked behind it).
    ///
    /// Used by the system loop to fast-forward through stall windows.
    /// The bound is conservative: whenever the core *might* act next
    /// cycle (dispatch can proceed, a store is draining, a retire was
    /// width-limited) it returns `from` and no cycles are skipped.
    ///
    /// A store-streaming core reaches `Cycle::MAX` with a full ROB whose
    /// completed head store waits on a full store buffer, and that
    /// buffer's head parked on a full MSHR (`store_blocked`). Such a
    /// ROB head adds no retirement term: only the buffer draining lets
    /// it retire, the buffer drains only through its head, and only a
    /// fill moves a blocked head — a fill the system delivers by making
    /// the core due.
    pub fn next_work_cycle(&self, from: Cycle) -> Cycle {
        let mut t = Cycle::MAX;
        // Scheduled load issues / retries.
        if let Some(&Reverse((et, _))) = self.events.peek() {
            if et <= from {
                return from;
            }
            t = t.min(et);
        }
        // Retirement: a completed head retires (or frees ROB space) at
        // its completion cycle; an incomplete head waits on an event or
        // an external fill, both accounted for elsewhere. A head store
        // facing a full store buffer waits on the buffer, whose own term
        // follows.
        if let Some(head) = self.rob_head() {
            let buffer_full =
                head.kind == UopKind::Store && self.store_buffer.len() >= STORE_BUFFER;
            match head.done_at {
                _ if buffer_full => {}
                Some(d) if d > from => t = t.min(d),
                Some(_) => return from,
                None => {}
            }
        }
        // Committed stores drain (and probe the DL1) every cycle —
        // except a head parked on a full MSHR, which only an external
        // fill can move (and a fill re-posts the core anyway).
        if !self.store_buffer.is_empty() && !self.store_blocked {
            return from;
        }
        // Front end.
        if self.ifetch_pending.is_none() {
            if from < self.fetch_stalled_until {
                // u64::MAX is the mispredict sentinel: the redirect time
                // is set when the branch completes (covered above).
                if self.fetch_stalled_until != Cycle::MAX {
                    t = t.min(self.fetch_stalled_until);
                }
            } else if self.rob_len() < ROB_SIZE {
                return from; // dispatch will make progress
            }
        }
        t
    }

    /// One-line state dump for stall diagnostics.
    pub fn debug_state(&self) -> String {
        let head = self.rob_head();
        let ev: Vec<String> = self
            .events
            .iter()
            .map(|Reverse((t, seq))| format!("t={t} seq={seq}"))
            .collect();
        format!(
            "rob={}/{} head_seq={} head={:?} mshr={} sb={} fetch_stall={} ifetch={:?} events=[{}]",
            self.rob_len(),
            ROB_SIZE,
            self.head_seq,
            head.map(|e| (e.kind, e.done_at, e.unresolved, e.ready_hint, e.vaddr)),
            self.mshr.len(),
            self.store_buffer.len(),
            self.fetch_stalled_until,
            self.ifetch_pending,
            ev.join("; "),
        )
    }

    /// Advances the core by one cycle, pushing uncore requests into `out`.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<UncoreRequest>) {
        // Process due events.
        while let Some(&Reverse((t, seq))) = self.events.peek() {
            if t > now {
                break;
            }
            self.events.pop();
            self.load_issue(seq, t.max(now), out);
        }
        self.retire(now);
        self.drain_store(out);
        self.dispatch(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_trace::{suite, Reg, ReplaySource};

    /// A trivial uncore: every read completes after a fixed latency.
    struct FixedUncore {
        latency: Cycle,
        pending: Vec<(Cycle, LineAddr)>,
        reads: u64,
    }

    impl FixedUncore {
        fn new(latency: Cycle) -> Self {
            FixedUncore {
                latency,
                pending: Vec::new(),
                reads: 0,
            }
        }

        fn run(&mut self, core: &mut Core, cycles: Cycle) {
            for now in 0..cycles {
                self.step(core, now);
            }
        }

        /// Delivers due fills, then ticks the core once.
        fn step(&mut self, core: &mut Core, now: Cycle) {
            let mut reqs = Vec::new();
            let mut i = 0;
            while i < self.pending.len() {
                if self.pending[i].0 <= now {
                    let (_, line) = self.pending.swap_remove(i);
                    core.fill(line, now, &mut reqs);
                } else {
                    i += 1;
                }
            }
            core.tick(now, &mut reqs);
            for r in reqs.drain(..) {
                if let UncoreRequest::Read { line, .. } = r {
                    self.reads += 1;
                    self.pending.push((now + self.latency, line));
                }
            }
        }
    }

    fn load(pc: u64, addr: u64, dst: u8, addr_dep: Option<u8>) -> MicroOp {
        MicroOp {
            pc,
            addr,
            kind: UopKind::Load,
            dst: Some(Reg(dst)),
            srcs: [addr_dep.map(Reg), None],
            taken: false,
        }
    }

    fn branch(pc: u64, target: u64) -> MicroOp {
        MicroOp {
            pc,
            addr: target,
            kind: UopKind::CondBranch,
            dst: None,
            srcs: [None, None],
            taken: true,
        }
    }

    fn stride_l1() -> Option<StridePrefetcher> {
        Some(StridePrefetcher::default())
    }

    fn core_with(uops: Vec<MicroOp>) -> Core {
        let trace = ReplaySource::new("test", uops);
        Core::new(CoreId(0), Box::new(trace), PageSize::M4, 42, stride_l1())
    }

    #[test]
    fn retires_simple_alu_stream_at_high_ipc() {
        let uops: Vec<MicroOp> = (0..64)
            .map(|i| MicroOp {
                pc: 0x400000 + i * 4,
                addr: 0,
                kind: UopKind::Int,
                dst: Some(Reg((i % 8) as u8)),
                srcs: [None, None],
                taken: false,
            })
            .chain(std::iter::once(branch(0x400000 + 64 * 4, 0x400000)))
            .collect();
        let mut core = core_with(uops);
        let mut unc = FixedUncore::new(20);
        unc.run(&mut core, 3000);
        let ipc = core.retired() as f64 / 3000.0;
        assert!(ipc > 2.0, "independent ALU stream IPC {ipc}");
    }

    #[test]
    fn independent_loads_overlap_mlp() {
        // 8 independent loads to distinct lines per iteration.
        let mut uops: Vec<MicroOp> = (0..8)
            .map(|i| load(0x400000 + i * 4, 0x10_0000_0000 + i * 4096, i as u8, None))
            .collect();
        uops.push(branch(0x400100, 0x400000));
        let mut core = core_with(uops);
        let mut unc = FixedUncore::new(200);
        unc.run(&mut core, 20_000);
        let mlp_ipc = core.retired();

        // Serialised chain: each load's address depends on the previous.
        let mut uops2: Vec<MicroOp> = (0..8)
            .map(|i| load(0x400000 + i * 4, 0x10_0000_0000 + i * 4096, 0, Some(0)))
            .collect();
        uops2.push(branch(0x400100, 0x400000));
        let mut core2 = core_with(uops2);
        let mut unc2 = FixedUncore::new(200);
        unc2.run(&mut core2, 20_000);
        let serial_ipc = core2.retired();

        assert!(
            mlp_ipc as f64 > serial_ipc as f64 * 2.5,
            "MLP {mlp_ipc} vs serialised {serial_ipc}"
        );
    }

    /// Wakeup lists through the ROB ring. One load feeds seven
    /// dependents, one naming it in both source slots, and all become
    /// ready the cycle it completes. Seven exceed the four INT ports, so
    /// the cycle each dependent gets shows the wake order: it must be
    /// attach (program) order, every dependent after the load, and the
    /// two-slot one woken once, on its second slot. The run wraps the
    /// ring several times.
    #[test]
    fn dependents_wake_in_attach_order_across_rob_wraps() {
        const DEPS: u64 = 7;
        const TWO_SLOT: u64 = 3;
        let mut uops = vec![load(0x400000, 0x10_0000_0000, 1, None)];
        for i in 0..DEPS {
            uops.push(MicroOp {
                pc: 0x400004 + 4 * i,
                addr: 0,
                kind: UopKind::Int,
                dst: Some(Reg(2 + i as u8)),
                srcs: [Some(Reg(1)), (i == TWO_SLOT).then_some(Reg(1))],
                taken: false,
            });
        }
        uops.push(branch(0x400004 + 4 * DEPS, 0x400000));
        let lap = uops.len() as u64;
        let mut core = core_with(uops);
        let mut unc = FixedUncore::new(20);
        // Completion cycle per seq, read off the ring each cycle: an
        // entry completes at least a cycle before it can retire.
        let mut done = std::collections::BTreeMap::new();
        for now in 0..3_000 {
            unc.step(&mut core, now);
            for seq in core.head_seq..core.next_seq {
                if let Some(d) = core.rob[slot(seq)].done_at {
                    assert_eq!(
                        *done.entry(seq).or_insert(d),
                        d,
                        "seq {seq} completed twice"
                    );
                }
            }
        }
        assert!(
            core.head_seq > 3 * ROB_SIZE as u64,
            "retired {}",
            core.head_seq
        );
        for start in (0..core.head_seq - lap).step_by(lap as usize) {
            let at = |i: u64| done[&(start + i)];
            let deps: Vec<Cycle> = (1..=DEPS).map(at).collect();
            assert!(
                deps[0] > at(0),
                "lap at {start}: a dependent ran before the load"
            );
            assert!(
                deps.windows(2).all(|w| w[0] <= w[1]) && deps[0] < deps[DEPS as usize - 1],
                "lap at {start}: dependents woke out of attach order: {deps:?}"
            );
        }
    }

    #[test]
    fn dl1_hits_do_not_go_to_uncore() {
        // Same line accessed repeatedly: one miss then hits.
        let mut uops: Vec<MicroOp> = (0..16)
            .map(|i| load(0x400000 + i * 4, 0x10_0000_0000, (i % 4) as u8, None))
            .collect();
        uops.push(branch(0x400100, 0x400000));
        let mut core = core_with(uops);
        let mut unc = FixedUncore::new(50);
        unc.run(&mut core, 5_000);
        assert!(core.retired() > 1000);
        let s = core.stats();
        assert!(s.dl1_hits > 10 * s.dl1_misses, "{s:?}");
    }

    #[test]
    fn mispredicted_branches_throttle_ipc() {
        // Data-dependent (random per encounter) branches vs loop-like
        // ones: TAGE cannot learn the former, so IPC must drop.
        fn run_with(predictable_permille: u32) -> u64 {
            let spec = bosim_trace::BenchmarkSpec {
                name: format!("branchy-{predictable_permille}"),
                short: "t".into(),
                kernels: vec![bosim_trace::KernelCfg::Branchy(
                    bosim_trace::synth::BranchyCfg {
                        ops_per_branch: 4,
                        taken_permille: 500,
                        predictable_permille,
                        resident_bytes: 4096,
                        load_every: 0,
                        code_blocks: 1,
                    },
                )],
                schedule: bosim_trace::Schedule::Interleaved(vec![1]),
                seed: 99,
                external: None,
            };
            let mut core = Core::new(
                CoreId(0),
                Box::new(spec.build()),
                PageSize::M4,
                42,
                stride_l1(),
            );
            let mut unc = FixedUncore::new(30);
            unc.run(&mut core, 30_000);
            core.retired()
        }
        let predictable = run_with(1000);
        let random = run_with(0);
        assert!(
            predictable as f64 > random as f64 * 1.5,
            "predictable {predictable} vs random {random}"
        );
        let mispredict_frac = {
            // Sanity: the random case must actually mispredict a lot.
            predictable as f64 / random as f64
        };
        assert!(mispredict_frac > 1.0);
    }

    #[test]
    fn stores_generate_writebacks_eventually() {
        let spec = suite::thrasher();
        let mut core = Core::new(
            CoreId(0),
            Box::new(spec.build()),
            PageSize::M4,
            7,
            stride_l1(),
        );
        let mut unc = FixedUncore::new(60);
        // Run long enough to fill the DL1 with dirty lines and evict.
        let mut reqs = Vec::new();
        let mut writebacks = 0;
        for now in 0..60_000 {
            let mut i = 0;
            while i < unc.pending.len() {
                if unc.pending[i].0 <= now {
                    let (_, line) = unc.pending.swap_remove(i);
                    core.fill(line, now, &mut reqs);
                } else {
                    i += 1;
                }
            }
            core.tick(now, &mut reqs);
            for r in reqs.drain(..) {
                match r {
                    UncoreRequest::Read { line, .. } => {
                        unc.pending.push((now + 60, line));
                    }
                    UncoreRequest::Writeback { .. } => writebacks += 1,
                }
            }
        }
        assert!(core.stats().stores > 1000);
        assert!(writebacks > 100, "writebacks: {writebacks}");
    }

    /// A store-streaming core against a slow memory (2,000 cycles a
    /// read) reaches the state where only a fill can move it: a full ROB
    /// whose completed head store waits on a full store buffer, and that
    /// buffer's head parked on a full MSHR. `next_work_cycle` then
    /// returns `Cycle::MAX`, and a tick changes nothing.
    #[test]
    fn store_blocked_core_sleeps_until_a_fill() {
        let mut core = Core::new(
            CoreId(0),
            Box::new(suite::thrasher().build()),
            PageSize::M4,
            7,
            stride_l1(),
        );
        let mut unc = FixedUncore::new(2_000);
        let mut now = 0;
        loop {
            unc.step(&mut core, now);
            now += 1;
            if core.store_blocked && core.next_work_cycle(now) == Cycle::MAX {
                break;
            }
            assert!(now < 20_000, "never slept: {}", core.debug_state());
        }
        let head = core.rob_head().expect("a full ROB");
        assert!(
            core.rob_len() == ROB_SIZE
                && core.store_buffer.len() == STORE_BUFFER
                && head.kind == UopKind::Store
                && head.done_at.is_some_and(|d| d < now),
            "{}",
            core.debug_state()
        );
        let (state, stats) = (core.debug_state(), core.stats());
        let mut out = Vec::new();
        core.tick(now, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(core.debug_state(), state);
        assert_eq!(core.stats(), stats);
    }

    #[test]
    fn stride_prefetcher_issues_l1_prefetches_on_streams() {
        let spec = suite::benchmark("462").expect("exists");
        let mut core = Core::new(
            CoreId(0),
            Box::new(spec.build()),
            PageSize::M4,
            11,
            stride_l1(),
        );
        let mut unc = FixedUncore::new(100);
        unc.run(&mut core, 100_000);
        let s = core.stats();
        assert!(
            s.l1_prefetches > 50,
            "stride prefetcher should fire on libquantum-like: {s:?}"
        );
    }

    #[test]
    fn full_suite_smoke_runs() {
        for spec in suite::suite().into_iter().take(6) {
            let mut core = Core::new(
                CoreId(0),
                Box::new(spec.build()),
                PageSize::K4,
                3,
                stride_l1(),
            );
            let mut unc = FixedUncore::new(80);
            unc.run(&mut core, 20_000);
            assert!(
                core.retired() > 1_000,
                "{}: retired only {}",
                spec.name,
                core.retired()
            );
        }
    }
}
