//! The uncore: private L2s, shared L3 and DRAM, glued per §5.4.
//!
//! No L2/L3 MSHRs — miss handling uses associatively-searched fill queues
//! with late-prefetch promotion. L2 prefetch requests sit in an 8-entry
//! lowest-priority prefetch queue and can be cancelled at any time; the
//! mandatory tag check before inserting a prefetched block is enforced.
//! On an L3 miss the L2 fill-queue entry is released and re-reserved when
//! the block is forwarded from the L3 insertion stage, exactly as §5.4
//! describes.
//!
//! The shared L3 is a prefetch *site* of its own: when
//! [`SimConfig::l3_prefetcher`] is set, one line-address prefetcher
//! observes every (non-ifetch) read arriving at the L3 and queues
//! candidates into a dedicated lowest-priority queue. L3 prefetches obey
//! the same §5.4 discipline as L2 ones — issued only on cycles when no
//! request reached the L3, tag-checked against the L3 array and fill
//! queue before issue *and* before fill, cancelled (never retried) under
//! resource pressure — and fill the L3 only: they carry no forward, so a
//! later demand either hits the L3 or merges with the in-flight fill.
//! With the site empty (the default) every new code path is inert and
//! the machine is cycle-identical to the pre-site uncore.
//!
//! Each private L2 and the L3 hold one [`Site`] record — engine, queue,
//! candidate buffer and counters — so one code path runs and counts the
//! prefetchers of both levels. Tuning directives reconfigure the L2s'.

use crate::config::{
    SimConfig, L2_FILL_QUEUE, L2_LATENCY, L2_SIZE, L2_WAYS, L3_FILL_QUEUE, L3_LATENCY, L3_SIZE,
    L3_WAYS, PREFETCH_QUEUE,
};
use crate::spec::PrefetcherSpec;
use crate::system::WorkCounts;
use best_offset::{AccessOutcome, CacheAccess, PrefetchSite, Prefetcher, TuneDirective};
use bosim_cache::policy::InsertCtx;
use bosim_cache::policy::PolicyKind;
use bosim_cache::{CacheArray, Evicted, FillQueue, PrefetchQueue};
use bosim_dram::{MemConfig, MemorySystem, ReadCompletion};
use bosim_obs::{Event, EventKind, HostProfiler, ObsSite, Phase, PrefetchTelemetry, Recorder};
use bosim_types::{mix64, CoreId, Cycle, LineAddr, PageSize, ReqClass};
use std::collections::VecDeque;

/// Slots in the per-line count of stuck stall-queue requests.
const STUCK_SLOTS: usize = 1024;

/// The slot of `line` in the per-line count of stuck requests.
fn stuck_slot(line: LineAddr) -> usize {
    (mix64(line.0) % STUCK_SLOTS as u64) as usize
}

/// Per-L2 fill-queue payload: whether the block goes on to the core
/// once it is in the L2.
#[derive(Debug, Clone, Copy)]
struct L2Meta {
    /// Forward the block to the core's fill path (IL1 or DL1).
    to_core: bool,
}

impl L2Meta {
    /// Whether a request of `class` wants its block at the core: an
    /// ifetch or any other core-side read does, an L2 prefetch stops at
    /// the L2.
    fn of(class: ReqClass, ifetch: bool) -> Self {
        L2Meta {
            to_core: ifetch || class != ReqClass::L2Prefetch,
        }
    }

    /// Adds the targets of another request for the same block.
    fn merge(&mut self, other: L2Meta) {
        self.to_core |= other.to_core;
    }
}

/// One forward target recorded in an L3 fill-queue payload.
#[derive(Debug, Clone, Copy)]
struct Fwd {
    core: CoreId,
    class: ReqClass,
    meta: L2Meta,
}

/// L3 fill-queue payload: the cores waiting for the block.
#[derive(Debug, Clone)]
struct L3Meta {
    requester: CoreId,
    forwards: Vec<Fwd>,
}

/// A request waiting for an L2 fill-queue entry (back-pressure).
#[derive(Debug, Clone, Copy)]
struct StalledReq {
    line: LineAddr,
    class: ReqClass,
    ifetch: bool,
}

/// A request travelling to / waiting at the L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L3Req {
    line: LineAddr,
    core: CoreId,
    class: ReqClass,
    ifetch: bool,
    /// The L3 access was already counted (stalled retries). Hit/miss
    /// classification is deferred to the arrival that *services* the
    /// request, so those counters stay monotonic — a measurement-window
    /// snapshot can never land between a count and a correction.
    counted: bool,
    /// In `l3_stalled`: the request last stalled on the miss path, and
    /// nothing has since put its line in the L3 or reserved an L3 or
    /// L2 fill-queue entry for it ([`Uncore::unstick`] clears the flag
    /// when something does). While the L3 fill queue is full, a retry
    /// of a stuck request would miss again, find the queue full and put
    /// the request back at the tail, changing nothing else, so
    /// [`Uncore::tick`] moves it to the tail without the lookup.
    stuck: bool,
}

/// Uncore statistics (measurement windows snapshot and subtract these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UncoreStats {
    /// L2 read accesses from the core side (demand + L1 prefetch).
    pub l2_accesses: u64,
    /// ... of which hits with the prefetch bit clear.
    pub l2_hits: u64,
    /// ... of which hits with the prefetch bit set (§5.6).
    pub l2_prefetched_hits: u64,
    /// ... of which misses.
    pub l2_misses: u64,
    /// L2 misses merged into an in-flight fill (late prefetches included).
    pub l2_fill_merges: u64,
    /// L2 prefetch requests accepted into the prefetch queue.
    pub l2_prefetches_queued: u64,
    /// L2 prefetch requests sent to the L3.
    pub l2_prefetches_issued: u64,
    /// L2 prefetch requests cancelled (queue overflow or resource-full).
    pub l2_prefetches_cancelled: u64,
    /// L2 prefetch requests dropped because the line was already present
    /// or in flight.
    pub l2_prefetches_redundant: u64,
    /// Lines inserted into the L2 still carrying prefetch class.
    pub l2_prefetch_fills: u64,
    /// L3 read accesses.
    pub l3_accesses: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// L3 misses merged into an in-flight L3 fill.
    pub l3_fill_merges: u64,
    /// L3-site prefetch candidates accepted into the L3 prefetch queue.
    pub l3_prefetches_queued: u64,
    /// L3-site prefetch requests issued to DRAM.
    pub l3_prefetches_issued: u64,
    /// L3-site prefetch requests cancelled (queue overflow or
    /// resource-full; §5.4: prefetches are cancelled, never retried).
    pub l3_prefetches_cancelled: u64,
    /// L3-site prefetch candidates dropped because the line was already
    /// resident, in flight, or queued.
    pub l3_prefetches_redundant: u64,
    /// Lines inserted into the L3 still carrying the L3-prefetch class.
    pub l3_prefetch_fills: u64,
    /// Writebacks sent to DRAM.
    pub dram_writebacks: u64,
}

bosim_types::counter_arith!(UncoreStats {
    l2_accesses,
    l2_hits,
    l2_prefetched_hits,
    l2_misses,
    l2_fill_merges,
    l2_prefetches_queued,
    l2_prefetches_issued,
    l2_prefetches_cancelled,
    l2_prefetches_redundant,
    l2_prefetch_fills,
    l3_accesses,
    l3_hits,
    l3_misses,
    l3_fill_merges,
    l3_prefetches_queued,
    l3_prefetches_issued,
    l3_prefetches_cancelled,
    l3_prefetches_redundant,
    l3_prefetch_fills,
    dram_writebacks,
});

/// One line-address prefetch site: an engine, its lowest-priority
/// prefetch queue (§5.4) and the site's counters. Every private L2 holds
/// one and the shared L3 holds one.
#[derive(Debug)]
struct Site {
    /// The engine (`None` = an empty L3 site, the paper's machine).
    engine: Option<Box<dyn Prefetcher>>,
    /// Candidate lines waiting to issue, each with the core whose access
    /// triggered it (DRAM fairness is accounted per core). Oldest
    /// entries are cancelled on overflow; the queue counts those.
    pq: PrefetchQueue,
    /// Candidate scratch buffer for the engine.
    cand: Vec<LineAddr>,
    /// Cumulative usefulness counters.
    telemetry: PrefetchTelemetry,
    /// Candidates accepted into the queue.
    queued: u64,
    /// Candidates and queued requests dropped because the line was
    /// already resident, in flight or queued.
    redundant: u64,
    /// Requests cancelled under resource pressure once out of the queue.
    dropped: u64,
}

impl Site {
    /// A site running `engine`; `events` arms its event sink.
    fn new(mut engine: Option<Box<dyn Prefetcher>>, events: bool) -> Self {
        if let (Some(p), true) = (engine.as_mut(), events) {
            p.set_event_sink(true);
        }
        Site {
            engine,
            pq: PrefetchQueue::new(PREFETCH_QUEUE),
            cand: Vec::new(),
            telemetry: PrefetchTelemetry::default(),
            queued: 0,
            redundant: 0,
            dropped: 0,
        }
    }

    /// Requests cancelled: queue overflows plus resource pressure.
    fn cancelled(&self) -> u64 {
        self.pq.cancelled + self.dropped
    }

    /// Applies a runtime reconfiguration directive to the engine of this
    /// site, an L2's. [`TuneDirective::SwitchPrefetcher`] swaps in a
    /// cold build of the named prefetcher when the name parses and
    /// attaches to the L2 (`events` arms its sink); every other
    /// directive goes to the running engine's
    /// [`Prefetcher::reconfigure`]. Returns whether the directive was
    /// applied.
    fn reconfigure(&mut self, directive: &TuneDirective, page: PageSize, events: bool) -> bool {
        let Some(engine) = self.engine.as_mut() else {
            return false;
        };
        let TuneDirective::SwitchPrefetcher(name) = directive else {
            return engine.reconfigure(directive);
        };
        match PrefetcherSpec::parse(name) {
            Ok(spec) if spec.sites().contains(&PrefetchSite::L2) => {
                *engine = spec.build(page);
                if events {
                    engine.set_event_sink(true);
                }
                true
            }
            _ => false,
        }
    }
}

/// One core's private L2 complex.
#[derive(Debug)]
struct L2 {
    array: CacheArray,
    fq: FillQueue<L2Meta>,
    site: Site,
    stalled: VecDeque<StalledReq>,
    /// (due cycle, line): L3-hit data arriving at the fill queue.
    ready_q: VecDeque<(Cycle, LineAddr)>,
    /// (due cycle, line): blocks forwarded up to the core (DL1/IL1).
    fill_out: VecDeque<(Cycle, LineAddr)>,
    sent_demand_this_cycle: bool,
}

impl L2 {
    /// The earliest cycle at or after `from` at which this L2 has work —
    /// a ready fill, a stalled request, a queued prefetch, or L3 data or
    /// a core-bound block falling due — or [`Cycle::MAX`] when it has
    /// none. [`Uncore::tick`] skips an L2 with no work at `now`, and
    /// [`Uncore::next_ready_after`] wakes the uncore for the earliest
    /// one, so the two agree by construction.
    fn next_work(&self, from: Cycle) -> Cycle {
        if self.fq.has_ready() || !self.stalled.is_empty() || !self.site.pq.is_empty() {
            return from;
        }
        let due = |q: &VecDeque<(Cycle, LineAddr)>| q.front().map_or(Cycle::MAX, |&(t, _)| t);
        due(&self.ready_q).min(due(&self.fill_out)).max(from)
    }
}

/// The shared uncore.
#[derive(Debug)]
pub(crate) struct Uncore {
    /// The page size prefetchers built by switch directives work in.
    page: PageSize,
    l2s: Vec<L2>,
    l3: CacheArray,
    l3_fq: FillQueue<L3Meta>,
    /// (due cycle, request): requests in flight towards the L3.
    l3_in: VecDeque<(Cycle, L3Req)>,
    /// Requests waiting for an L3 fill-queue entry or a DRAM read-queue
    /// slot; every tick retries the oldest one.
    l3_stalled: VecDeque<L3Req>,
    /// How many requests in `l3_stalled` are not `stuck`.
    l3_unstuck: usize,
    /// How many requests in `l3_stalled` are `stuck`, per [`stuck_slot`]
    /// of their line: [`unstick`](Self::unstick) scans the queue only
    /// when its line's slot is non-zero. Lines that share a slot cost a
    /// scan, never a result.
    stuck_lines: Vec<u16>,
    /// The cycle of the next `l3_stalled` retry in every-cycle order:
    /// one past the last tick. A tick after skipped cycles first catches
    /// up on the retries those cycles would have made.
    l3_retry_due: Cycle,
    /// The shared L3's prefetch site (engine `None` = site empty, the
    /// paper's machine).
    l3_site: Site,
    /// Any request reached the L3 this cycle: L3 prefetch issue waits
    /// (lowest priority, mirroring the per-L2 demand gate).
    l3_saw_request: bool,
    mem: MemorySystem,
    /// Dirty L3 victims waiting for a DRAM write-queue slot.
    wb_buf: VecDeque<(LineAddr, CoreId)>,
    completions: Vec<ReadCompletion>,
    /// Per-core scratch for [`drain_l3_fq`](Self::drain_l3_fq): does the
    /// core need a *new* L2 fill-queue entry for the forwarded block?
    fwd_needs_entry: Vec<bool>,
    /// The counters no site keeps: plain hits, fill-queue merges, the
    /// L3's hit/miss classification, L3-prefetch fills and writebacks.
    /// The fields the sites count stay zero here;
    /// [`stats`](Self::stats) reads those from the sites.
    stats: UncoreStats,
    /// Cycle-domain event log (`None` = tracing disabled, the default;
    /// every hook below is then a single `if let` branch).
    recorder: Option<Recorder>,
    /// The work counts the uncore keeps: its ticks, stall retries and
    /// stall-queue entries visited. The DRAM counts are read from the
    /// memory system, and the system's own stay zero here.
    work: WorkCounts,
    /// Sends every stalled head through the full L3 arrival, stuck or
    /// not: the every-cycle twin the stall queue's shortcut is tested
    /// against.
    #[cfg(test)]
    arrive_every_head: bool,
}

impl Uncore {
    /// Builds the uncore for `active_cores` cores.
    pub fn new(cfg: &SimConfig) -> Self {
        let events = cfg.obs.events;
        let l2s = (0..cfg.active_cores)
            .map(|i| L2 {
                array: CacheArray::new(
                    L2_SIZE,
                    L2_WAYS,
                    PolicyKind::Lru,
                    cfg.active_cores,
                    cfg.seed ^ (i as u64 + 10),
                ),
                fq: FillQueue::new(L2_FILL_QUEUE),
                site: Site::new(Some(cfg.l2_prefetcher.build(cfg.page)), events),
                stalled: VecDeque::new(),
                ready_q: VecDeque::new(),
                fill_out: VecDeque::new(),
                sent_demand_this_cycle: false,
            })
            .collect();
        Uncore {
            l3: CacheArray::new(
                L3_SIZE,
                L3_WAYS,
                cfg.l3_policy,
                cfg.active_cores,
                cfg.seed ^ 99,
            ),
            l3_fq: FillQueue::new(L3_FILL_QUEUE),
            l3_in: VecDeque::new(),
            l3_stalled: VecDeque::new(),
            l3_unstuck: 0,
            stuck_lines: vec![0; STUCK_SLOTS],
            l3_retry_due: 0,
            l3_site: Site::new(
                cfg.l3_prefetcher.as_ref().map(|p| p.build(cfg.page)),
                events,
            ),
            l3_saw_request: false,
            mem: MemorySystem::new(MemConfig {
                num_cores: cfg.active_cores,
            }),
            wb_buf: VecDeque::new(),
            completions: Vec::new(),
            fwd_needs_entry: vec![false; cfg.active_cores],
            stats: UncoreStats::default(),
            recorder: events.then(Recorder::default),
            work: WorkCounts::default(),
            #[cfg(test)]
            arrive_every_head: false,
            l2s,
            page: cfg.page,
        }
    }

    /// Shrinks every L2 fill queue to `l2` entries and the L3's to `l3`,
    /// so that tests reach the stall and retry paths of a full queue.
    /// Call it before the first request.
    #[cfg(test)]
    pub(crate) fn shrink_fill_queues(&mut self, l2: usize, l3: usize) {
        for l2s in &mut self.l2s {
            debug_assert!(l2s.fq.is_empty());
            l2s.fq = FillQueue::new(l2);
        }
        debug_assert!(self.l3_fq.is_empty());
        self.l3_fq = FillQueue::new(l3);
    }

    /// Whether cycle-domain event tracing is active.
    pub fn events_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records an externally-produced event (core-side L1 events, epoch
    /// boundaries, tuning directives) into the shared log. A no-op when
    /// tracing is disabled.
    #[inline]
    pub fn record_event(&mut self, event: Event) {
        if let Some(r) = &mut self.recorder {
            r.record(event);
        }
    }

    /// The event log so far as `(events, dropped)`, or `None` when
    /// tracing is disabled.
    pub fn event_log(&self) -> Option<(&[Event], u64)> {
        self.recorder.as_ref().map(|r| (r.events(), r.dropped()))
    }

    /// Records one uncore-internal event.
    #[inline]
    fn emit(&mut self, cycle: Cycle, core: CoreId, site: ObsSite, kind: EventKind) {
        if let Some(r) = &mut self.recorder {
            r.record(Event {
                cycle,
                core: u32::from(core.0),
                site,
                kind,
            });
        }
    }

    /// Statistics snapshot. The L2 counters sum over every core's L2;
    /// the counters a site keeps are read from the sites.
    pub fn stats(&self) -> UncoreStats {
        let l2_sites = || self.l2s.iter().map(|l2| &l2.site);
        let l2 = l2_sites().fold(PrefetchTelemetry::default(), |t, s| t + s.telemetry);
        let l3 = &self.l3_site;
        UncoreStats {
            l2_accesses: l2.accesses,
            l2_prefetched_hits: l2.useful,
            l2_misses: l2.misses,
            l2_prefetches_queued: l2_sites().map(|s| s.queued).sum(),
            l2_prefetches_issued: l2.issued,
            l2_prefetches_cancelled: l2_sites().map(Site::cancelled).sum(),
            l2_prefetches_redundant: l2_sites().map(|s| s.redundant).sum(),
            l2_prefetch_fills: l2.prefetch_fills,
            l3_accesses: l3.telemetry.accesses,
            l3_prefetches_queued: l3.queued,
            l3_prefetches_issued: l3.telemetry.issued,
            l3_prefetches_cancelled: l3.cancelled(),
            l3_prefetches_redundant: l3.redundant,
            ..self.stats
        }
    }

    /// The work counts the uncore and its memory system keep.
    pub fn work(&self) -> WorkCounts {
        let dram = self.mem.channel_steps();
        WorkCounts {
            dram_steps: dram.steps,
            dram_idle_steps: dram.idle,
            ..self.work
        }
    }

    /// DRAM statistics (reads/writes/row behaviour).
    pub fn dram_stats(&self) -> bosim_dram::DramStats {
        self.mem.stats()
    }

    /// The name of a core's L2 prefetcher.
    pub fn l2_prefetcher_name(&self, core: CoreId) -> &'static str {
        self.l2s[core.index()]
            .site
            .engine
            .as_ref()
            .map_or("none", |p| p.name())
    }

    /// Snapshot of a core's cumulative L2-site prefetch-usefulness
    /// telemetry.
    pub fn prefetch_telemetry(&self, core: CoreId) -> PrefetchTelemetry {
        self.l2s[core.index()].site.telemetry
    }

    /// Snapshot of the shared L3 site's cumulative telemetry (what its
    /// counters cover at the L3: [`PrefetchTelemetry`]).
    pub fn l3_prefetch_telemetry(&self) -> PrefetchTelemetry {
        self.l3_site.telemetry
    }

    /// Applies a runtime reconfiguration directive to `core`'s L2
    /// prefetcher (see [`Site::reconfigure`]). Returns whether the
    /// directive was applied.
    pub fn reconfigure(&mut self, core: CoreId, d: &TuneDirective) -> bool {
        let events = self.recorder.is_some();
        self.l2s[core.index()]
            .site
            .reconfigure(d, self.page, events)
    }

    /// Lines currently resident in the shared L3 with the prefetch bit
    /// still set — the epoch series' cache-pollution gauge.
    pub fn l3_prefetched_lines(&self) -> u64 {
        self.l3.prefetched_lines()
    }

    /// A core read request (demand miss, DL1 prefetch, or ifetch) arrives
    /// at its private L2.
    pub fn core_read(
        &mut self,
        core: CoreId,
        line: LineAddr,
        class: ReqClass,
        ifetch: bool,
        now: Cycle,
    ) {
        let c = core.index();
        self.l2s[c].site.telemetry.accesses += 1;
        let hit = self.l2s[c].array.access(line, false);
        match hit {
            Some(info) => {
                let outcome = if info.was_prefetch {
                    // First core-side touch of a prefetch-bit line: the
                    // fill was useful (the access cleared the bit, so
                    // this counts once per prefetched fill).
                    self.l2s[c].site.telemetry.useful += 1;
                    self.emit(now, core, ObsSite::L2, EventKind::FirstHit { line: line.0 });
                    AccessOutcome::PrefetchedHit
                } else {
                    self.stats.l2_hits += 1;
                    AccessOutcome::Hit
                };
                self.l2s[c].fill_out.push_back((now + L2_LATENCY, line));
                if !ifetch {
                    self.run_prefetcher(ObsSite::L2, core, line, outcome, now);
                }
            }
            None => {
                self.l2s[c].site.telemetry.misses += 1;
                // CAM search of the fill queue: late-prefetch promotion.
                let merged = self.merge_l2_fill(core, line, class, ifetch, now);
                if merged {
                    self.stats.l2_fill_merges += 1;
                    // Also promote a matching in-flight L3 request.
                    self.promote_l3_inflight(core, line, ifetch);
                } else {
                    // A pending prefetch-queue request for this line
                    // becomes this demand miss.
                    self.l2s[c].site.pq.remove(line);
                }
                if !ifetch {
                    self.run_prefetcher(ObsSite::L2, core, line, AccessOutcome::Miss, now);
                }
                if !merged {
                    let req = StalledReq {
                        line,
                        class,
                        ifetch,
                    };
                    self.forward_to_l3(core, req, now);
                }
            }
        }
    }

    /// Merges a request into `core`'s pending L2 fill for `line`, if one
    /// is pending: the block also goes where the request wants it, and a
    /// demand promotes a prefetch-class entry — a correct but late
    /// prefetch (§5.4). Returns whether a fill was pending.
    #[inline]
    fn merge_l2_fill(
        &mut self,
        core: CoreId,
        line: LineAddr,
        class: ReqClass,
        ifetch: bool,
        now: Cycle,
    ) -> bool {
        let l2 = &mut self.l2s[core.index()];
        let Some(e) = l2.fq.find_mut(line) else {
            return false;
        };
        e.payload.merge(L2Meta::of(class, ifetch));
        if class == ReqClass::Demand {
            let late = e.class == ReqClass::L2Prefetch;
            e.class = ReqClass::Demand;
            if late {
                l2.site.telemetry.late_promotions += 1;
                self.emit(
                    now,
                    core,
                    ObsSite::L2,
                    EventKind::LateMerge { line: line.0 },
                );
            }
        }
        true
    }

    /// A demand for a line whose L2 entry was released (L3-miss window):
    /// the request may be in `l3_in`, `l3_stalled` or the L3 fill queue —
    /// promote it there so the forward reaches the core.
    fn promote_l3_inflight(&mut self, core: CoreId, line: LineAddr, ifetch: bool) {
        if let Some(e) = self.l3_fq.find_mut(line) {
            e.class = ReqClass::Demand;
            for f in &mut e.payload.forwards {
                if f.core == core {
                    f.class = ReqClass::Demand;
                    f.meta.merge(L2Meta::of(ReqClass::Demand, ifetch));
                }
            }
        }
        for (_, r) in self.l3_in.iter_mut() {
            if r.line == line && r.core == core {
                r.class = ReqClass::Demand;
            }
        }
        for r in self.l3_stalled.iter_mut() {
            if r.line == line && r.core == core {
                r.class = ReqClass::Demand;
            }
        }
    }

    /// Reserves the L2 fill-queue entry and sends the request towards the
    /// L3; stalls the request if no entry is free (§5.4: "a request is
    /// not issued until there is a free entry").
    fn forward_to_l3(&mut self, core: CoreId, req: StalledReq, now: Cycle) {
        let c = core.index();
        let meta = L2Meta::of(req.class, req.ifetch);
        if !self.l2s[c].fq.try_reserve(req.line, req.class, meta) {
            self.l2s[c].stalled.push_back(req);
            return;
        }
        self.unstick(req.line);
        if req.class != ReqClass::L2Prefetch {
            self.l2s[c].sent_demand_this_cycle = true;
        } else {
            self.emit(
                now,
                core,
                ObsSite::L2,
                EventKind::FillQueued { line: req.line.0 },
            );
        }
        self.l3_in.push_back((
            now + L2_LATENCY,
            L3Req {
                line: req.line,
                core,
                class: req.class,
                ifetch: req.ifetch,
                counted: false,
                stuck: false,
            },
        ));
    }

    /// The prefetch site at `at`: core `c`'s L2 or the shared L3.
    #[inline]
    fn site(&mut self, at: ObsSite, c: usize) -> &mut Site {
        match at {
            ObsSite::L3 => &mut self.l3_site,
            _ => &mut self.l2s[c].site,
        }
    }

    /// Whether the cache at `at` (core `c`'s L2 or the L3) holds `line`
    /// or has it in flight: the tag checks a prefetch passes before it is
    /// queued and again before it issues.
    #[inline]
    fn holds(&self, at: ObsSite, c: usize, line: LineAddr) -> bool {
        match at {
            ObsSite::L3 => self.l3.contains(line) || self.l3_fq.find(line).is_some(),
            _ => self.l2s[c].array.contains(line) || self.l2s[c].fq.find(line).is_some(),
        }
    }

    /// Runs the engine of site `at` on an eligible access by `core` and
    /// queues its candidates: a candidate the cache holds or the queue
    /// already has is redundant, and overflow cancels the oldest queued
    /// request (§5.4).
    #[inline]
    fn run_prefetcher(
        &mut self,
        at: ObsSite,
        core: CoreId,
        line: LineAddr,
        outcome: AccessOutcome,
        now: Cycle,
    ) {
        let c = core.index();
        // Borrows the site field alone, unlike `self.site`, so the
        // recorder stays reachable while the engine is borrowed.
        let site = match at {
            ObsSite::L3 => &mut self.l3_site,
            _ => &mut self.l2s[c].site,
        };
        let Some(engine) = site.engine.as_mut() else {
            return;
        };
        let mut cand = std::mem::take(&mut site.cand);
        cand.clear();
        engine.on_access(CacheAccess { line, outcome }, &mut cand);
        if self.recorder.is_some() {
            // The learning rounds and phases this access ended, if any
            // (the sink is only armed while tracing).
            let mut events = Vec::new();
            engine.drain_events(&mut events);
            for kind in events {
                self.emit(now, core, at, kind);
            }
        }
        for &target in &cand {
            let held = self.holds(at, c, target);
            let site = self.site(at, c);
            if held || site.pq.contains(target) {
                site.redundant += 1;
            } else {
                site.queued += 1;
                site.pq.push(target, core);
            }
        }
        self.site(at, c).cand = cand;
    }

    /// Accounts for a line evicted from the cache at `at` (`core`'s L2,
    /// or the L3 on `core`'s behalf): a line evicted with its prefetch
    /// bit still set was fetched but never used, and a dirty one is
    /// written back — an L2 victim into the L3, an L3 victim to DRAM.
    #[inline]
    fn evicted(&mut self, at: ObsSite, core: CoreId, ev: Evicted, now: Cycle) {
        if ev.prefetch {
            self.site(at, core.index()).telemetry.unused_evicted += 1;
            self.emit(now, core, at, EventKind::UnusedEvict { line: ev.line.0 });
        }
        if ev.dirty {
            match at {
                ObsSite::L3 => self.wb_buf.push_back((ev.line, core)),
                _ => self.l3_writeback(core, ev.line, now),
            }
        }
    }

    /// Issues at most one L3-site prefetch to DRAM, only on cycles when
    /// no request reached the L3 (lowest priority, mirroring §5.4).
    /// Resource pressure cancels the request — prefetches are never
    /// retried.
    fn issue_l3_prefetch(&mut self, now: Cycle) {
        if self.l3_saw_request {
            return;
        }
        let Some((line, core)) = self.l3_site.pq.pop() else {
            return;
        };
        // Mandatory tag checks before issue: the block may have arrived
        // since the candidate was queued.
        if self.holds(ObsSite::L3, core.index(), line) {
            self.l3_site.redundant += 1;
            return;
        }
        if self.l3_fq.is_full() || !self.mem.can_accept_read(line, core) {
            self.l3_site.dropped += 1;
            self.emit(
                now,
                core,
                ObsSite::L3,
                EventKind::PrefetchDropped { line: line.0 },
            );
            return;
        }
        let reserved = self.l3_fq.try_reserve(
            line,
            ReqClass::L3Prefetch,
            L3Meta {
                requester: core,
                // No forward: the block fills the shared L3 only. A
                // later demand hits the L3 or merges with this entry.
                forwards: Vec::new(),
            },
        );
        debug_assert!(reserved, "checked for space above");
        self.unstick(line);
        // A DRAM read is only ever pending under an L3 fill-queue entry,
        // and the entry outlives the read: the tag check above rules it
        // out.
        debug_assert!(!self.mem.has_pending_read(line));
        let accepted = self.mem.enqueue_read(line, core, 0, now);
        debug_assert!(accepted, "checked for space above");
        self.l3_site.telemetry.issued += 1;
        self.emit(
            now,
            core,
            ObsSite::L3,
            EventKind::PrefetchIssued { line: line.0 },
        );
        self.emit(
            now,
            core,
            ObsSite::L3,
            EventKind::FillQueued { line: line.0 },
        );
    }

    /// A dirty line written back from a core's DL1.
    pub fn core_writeback(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        let c = core.index();
        if self.l2s[c].array.mark_dirty(line) {
            return;
        }
        let evicted = self.l2s[c].array.insert(
            line,
            false,
            true,
            InsertCtx {
                demand: false,
                core,
            },
        );
        if let Some(ev) = evicted {
            self.evicted(ObsSite::L2, core, ev, now);
        }
    }

    /// A dirty line leaving an L2 (eviction) updates or allocates in the
    /// non-inclusive L3.
    fn l3_writeback(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        if self.l3.mark_dirty(line) {
            return;
        }
        self.unstick(line);
        let evicted = self.l3.insert(
            line,
            false,
            true,
            InsertCtx {
                demand: false,
                core,
            },
        );
        if let Some(ev) = evicted {
            self.evicted(ObsSite::L3, core, ev, now);
        }
    }

    /// Processes a request arriving at the L3.
    fn l3_arrive(&mut self, mut req: L3Req, now: Cycle) {
        // Any arrival outranks the L3 prefetch site this cycle (§5.4:
        // prefetches have the lowest priority).
        self.l3_saw_request = true;
        let first_arrival = !req.counted;
        if first_arrival {
            self.l3_site.telemetry.accesses += 1;
        }
        let hit = self.l3.access(req.line, false);
        if let Some(info) = hit {
            if info.was_prefetch {
                // First touch from above of a prefetch-bit L3 line: the
                // fill was useful (the access cleared the bit, so this
                // counts once per prefetched fill).
                self.l3_site.telemetry.useful += 1;
                self.emit(
                    now,
                    req.core,
                    ObsSite::L3,
                    EventKind::FirstHit { line: req.line.0 },
                );
            }
            // The L3-site prefetcher observes each request once, at its
            // first arrival (a stalled retry is the same request).
            if first_arrival && !req.ifetch {
                let outcome = if info.was_prefetch {
                    AccessOutcome::PrefetchedHit
                } else {
                    AccessOutcome::Hit
                };
                self.run_prefetcher(ObsSite::L3, req.core, req.line, outcome, now);
            }
            // A stalled-then-retried request whose block landed in the
            // L3 while it waited (another core's fill or a
            // writeback-allocate). Its L2 fill-queue entry was released
            // on the first (miss) arrival, so it must be re-reserved
            // before the L3-hit data can be accepted. The request is
            // recorded as a hit — no DRAM fetch of its own services it
            // (classification happens here, at service time, never at
            // the stalled first arrival).
            if req.counted
                && !self.merge_l2_fill(req.core, req.line, req.class, req.ifetch, now)
                && !self.l2s[req.core.index()].fq.try_reserve(
                    req.line,
                    req.class,
                    L2Meta::of(req.class, req.ifetch),
                )
            {
                // No free L2 entry: the retry stays stalled, and not
                // stuck — an L2 entry may free on any cycle.
                self.stall_at_l3(req, false);
                return;
            }
            self.stats.l3_hits += 1;
            // Data returns to the requesting L2 after the L3 latency.
            self.l2s[req.core.index()]
                .ready_q
                .push_back((now + L3_LATENCY, req.line));
            return;
        }
        if first_arrival {
            self.l3_site.telemetry.misses += 1;
            if !req.ifetch {
                self.run_prefetcher(ObsSite::L3, req.core, req.line, AccessOutcome::Miss, now);
            }
        }
        // The miss is recorded at the terminal outcome below (merge,
        // fill-queue reservation, or prefetch cancellation) rather than
        // here: a stalled request stays unclassified until the retry
        // that services it, keeping every counter monotonic.
        req.counted = true;
        // §5.4: on an L3 miss, the L2 fill-queue entry is released
        // immediately ("the L1/L2 miss request becomes an L1/L2/L3 miss
        // request"); the forward from the L3 insertion stage re-reserves
        // it. Releasing *before* any resource check is what guarantees
        // forward progress under back-pressure.
        self.l2s[req.core.index()].fq.release(req.line);
        let fwd = Fwd {
            core: req.core,
            class: req.class,
            meta: L2Meta::of(req.class, req.ifetch),
        };
        // Merge into a pending L3 fill (the block is already on its way).
        let mut late_l3 = false;
        let mut late_l2 = false;
        if let Some(e) = self.l3_fq.find_mut(req.line) {
            if req.class == ReqClass::Demand {
                if e.class == ReqClass::L3Prefetch {
                    // The demand caught an L3-site prefetch in flight:
                    // correct but late, charged to the shared L3 site.
                    self.l3_site.telemetry.late_promotions += 1;
                    late_l3 = true;
                }
                if e.class == ReqClass::L2Prefetch && req.core == e.payload.requester {
                    // The issuing core's own demand caught its prefetch
                    // whose L2 entry was already released (L3-miss
                    // window): correct but late. Only the same-core
                    // merge counts — another core's demand leaves the
                    // issuer's (re-reserved) L2 entry prefetch-class,
                    // and a later same-core merge *there* would count
                    // the same prefetch a second time.
                    self.l2s[req.core.index()].site.telemetry.late_promotions += 1;
                    late_l2 = true;
                }
                e.class = ReqClass::Demand;
            }
            e.payload.forwards.push(fwd);
            self.stats.l3_misses += 1;
            self.stats.l3_fill_merges += 1;
            if late_l3 {
                self.emit(
                    now,
                    req.core,
                    ObsSite::L3,
                    EventKind::LateMerge { line: req.line.0 },
                );
            }
            if late_l2 {
                self.emit(
                    now,
                    req.core,
                    ObsSite::L2,
                    EventKind::LateMerge { line: req.line.0 },
                );
            }
            return;
        }
        // Need an L3 fill-queue entry and a DRAM read-queue slot.
        if self.l3_fq.is_full() || !self.mem.can_accept_read(req.line, req.core) {
            if req.class == ReqClass::L2Prefetch {
                // Prefetches are cancelled, not retried (§5.4).
                self.stats.l3_misses += 1;
                self.l2s[req.core.index()].site.dropped += 1;
                self.emit(
                    now,
                    req.core,
                    ObsSite::L2,
                    EventKind::PrefetchDropped { line: req.line.0 },
                );
            } else {
                self.stall_at_l3(req, true);
            }
            return;
        }
        let reserved = self.l3_fq.try_reserve(
            req.line,
            req.class,
            L3Meta {
                requester: req.core,
                forwards: vec![fwd],
            },
        );
        debug_assert!(reserved, "checked for space above");
        self.unstick(req.line);
        self.stats.l3_misses += 1;
        // No read for the line is pending: it would hold the L3
        // fill-queue entry the merge above looks for.
        debug_assert!(!self.mem.has_pending_read(req.line));
        let accepted = self.mem.enqueue_read(req.line, req.core, 0, now);
        debug_assert!(accepted, "checked for space above");
    }

    /// Puts `req` at the tail of the L3 stall queue, `stuck` or not.
    fn stall_at_l3(&mut self, mut req: L3Req, stuck: bool) {
        req.stuck = stuck;
        if stuck {
            self.stuck_lines[stuck_slot(req.line)] += 1;
        } else {
            self.l3_unstuck += 1;
        }
        self.l3_stalled.push_back(req);
        self.check_stuck_counts();
    }

    /// Clears `stuck` on every stalled request for `line`: the line is
    /// entering the L3 by writeback, or an L3 or L2 fill-queue entry is
    /// being reserved for it, so its next retry may do more than move
    /// it to the tail. An L3 fill needs no call: the reservation of its
    /// entry made one. O(1) unless a stuck request's line shares
    /// `line`'s slot in `stuck_lines`; only then is the queue scanned.
    fn unstick(&mut self, line: LineAddr) {
        let slot = stuck_slot(line);
        if self.stuck_lines[slot] == 0 {
            return;
        }
        self.work.unstick_visits += self.l3_stalled.len() as u64;
        for r in self.l3_stalled.iter_mut() {
            if r.stuck && r.line == line {
                r.stuck = false;
                self.l3_unstuck += 1;
                self.stuck_lines[slot] -= 1;
            }
        }
        self.check_stuck_counts();
    }

    /// Checks `stuck_lines` against a recount of the stall queue (debug
    /// builds). Each change of the counts runs it, so a missed count
    /// fails at the change.
    fn check_stuck_counts(&self) {
        debug_assert!(
            {
                let mut counts = [0; STUCK_SLOTS];
                for r in self.l3_stalled.iter().filter(|r| r.stuck) {
                    counts[stuck_slot(r.line)] += 1;
                }
                self.stuck_lines[..] == counts[..]
            },
            "the per-line counts of stuck requests are off"
        );
    }

    /// Drains at most one ready entry from the L3 fill queue into the L3
    /// array, forwarding the block to the waiting L2 fill queues.
    fn drain_l3_fq(&mut self, now: Cycle) {
        let Some(entry) = self.l3_fq.peek_ready() else {
            return;
        };
        // Every forward target needs an L2 fill-queue entry; otherwise
        // the insertion stalls this cycle (back-pressure). All forwards
        // of an entry carry the *same* line, so multiple forwards to one
        // core merge into a single L2 entry — and a core that already
        // holds an entry for the line (a retried demand re-reserved it)
        // needs no new one. Counting one free entry per *forward* here
        // would stall L3 fills that could in fact proceed.
        self.fwd_needs_entry.fill(false);
        for f in &entry.payload.forwards {
            self.fwd_needs_entry[f.core.index()] = true;
        }
        let line = entry.line;
        for (c, need) in self.fwd_needs_entry.iter().enumerate() {
            if *need && self.l2s[c].fq.is_full() && self.l2s[c].fq.find(line).is_none() {
                return;
            }
        }
        // The peek above found a ready entry, so this pop returns it.
        let Some(entry) = self.l3_fq.pop_ready() else {
            return;
        };
        // The line enters the L3 and its forwards reserve L2 entries,
        // yet no request for it is stuck: reserving this entry unstuck
        // them, and an arrival for the line since has merged into it.
        debug_assert!(!self
            .l3_stalled
            .iter()
            .any(|r| r.stuck && r.line == entry.line));
        let demand = entry.class == ReqClass::Demand;
        // Mandatory tag check: no duplicates (§5.4).
        if !self.l3.contains(entry.line) {
            let evicted = self.l3.insert(
                entry.line,
                !demand,
                false,
                InsertCtx {
                    demand,
                    core: entry.payload.requester,
                },
            );
            if !demand {
                // Every prefetch-class insertion counts toward the L3
                // site's resolution invariant (L2 prefetches fill the
                // L3 on their way up, §5.4).
                self.l3_site.telemetry.prefetch_fills += 1;
                self.emit(
                    now,
                    entry.payload.requester,
                    ObsSite::L3,
                    EventKind::PrefetchFill { line: entry.line.0 },
                );
            }
            if entry.class == ReqClass::L3Prefetch {
                self.stats.l3_prefetch_fills += 1;
            }
            if let Some(ev) = evicted {
                self.evicted(ObsSite::L3, entry.payload.requester, ev, now);
            }
        }
        if let Some(p) = self.l3_site.engine.as_mut() {
            p.on_fill(entry.line, entry.class == ReqClass::L3Prefetch);
        }
        // Forward to the L2 fill queues (ready immediately: the block is
        // written into the L3 and forwarded simultaneously, §5.4).
        for f in entry.payload.forwards {
            let l2 = &mut self.l2s[f.core.index()];
            if let Some(e) = l2.fq.find_mut(entry.line) {
                // A retried demand re-reserved it already, or an earlier
                // forward of this entry targeted the same core: merge.
                if f.class == ReqClass::Demand {
                    e.class = ReqClass::Demand;
                }
                e.payload.merge(f.meta);
            } else {
                let ok = l2.fq.try_reserve(entry.line, f.class, f.meta);
                debug_assert!(ok, "capacity checked above");
            }
            l2.fq.set_ready(entry.line);
        }
    }

    /// Drains at most one ready entry from a core's L2 fill queue into
    /// the L2 array, notifying the prefetcher and forwarding to the core.
    fn drain_l2_fq(&mut self, c: usize, now: Cycle) {
        // First, mark entries whose L3-hit data has arrived.
        loop {
            match self.l2s[c].ready_q.front() {
                Some(&(t, line)) if t <= now => {
                    self.l2s[c].ready_q.pop_front();
                    self.l2s[c].fq.set_ready(line);
                }
                _ => break,
            }
        }
        let Some(entry) = self.l2s[c].fq.pop_ready() else {
            return;
        };
        let core = CoreId(c as u8);
        let prefetched = entry.class == ReqClass::L2Prefetch;
        // Mandatory tag check before inserting a prefetched block (§5.4)
        // — applied to all fills: blocks must never be duplicated.
        if !self.l2s[c].array.contains(entry.line) {
            let evicted = self.l2s[c].array.insert(
                entry.line,
                prefetched,
                false,
                InsertCtx {
                    demand: !prefetched,
                    core,
                },
            );
            if prefetched {
                self.l2s[c].site.telemetry.prefetch_fills += 1;
                self.emit(
                    now,
                    core,
                    ObsSite::L2,
                    EventKind::PrefetchFill { line: entry.line.0 },
                );
            }
            if let Some(ev) = evicted {
                self.evicted(ObsSite::L2, core, ev, now);
            }
        }
        if let Some(p) = self.l2s[c].site.engine.as_mut() {
            p.on_fill(entry.line, prefetched);
        }
        if entry.payload.to_core {
            self.l2s[c].fill_out.push_back((now + 1, entry.line));
        }
    }

    /// Issues at most one prefetch-queue request to the L3, only when the
    /// core sent no demand request this cycle (lowest priority, §5.4).
    fn issue_prefetch(&mut self, c: usize, now: Cycle) {
        let l2 = &mut self.l2s[c];
        // Peek: if the L2 fill queue is full, leave the request queued.
        if l2.sent_demand_this_cycle || l2.fq.is_full() {
            return;
        }
        let Some((line, _)) = l2.site.pq.pop() else {
            return;
        };
        // Tag checks before issue (§6.3: mandatory for SBP, cheap and
        // harmless for the others).
        if self.holds(ObsSite::L2, c, line) {
            self.l2s[c].site.redundant += 1;
            return;
        }
        self.l2s[c].site.telemetry.issued += 1;
        let core = CoreId(c as u8);
        self.emit(
            now,
            core,
            ObsSite::L2,
            EventKind::PrefetchIssued { line: line.0 },
        );
        let req = StalledReq {
            line,
            class: ReqClass::L2Prefetch,
            ifetch: false,
        };
        self.forward_to_l3(core, req, now);
    }

    /// One-line state dump for stall diagnostics.
    pub fn debug_state(&self) -> String {
        let l2s: Vec<String> = self
            .l2s
            .iter()
            .map(|l2| {
                format!(
                    "fq={}/{} [{}] pq={} stalled={} ready_q={} out={}",
                    l2.fq.len(),
                    l2.fq.capacity(),
                    l2.fq
                        .iter()
                        .map(|e| format!(
                            "{:x}:{}{}",
                            e.line.0,
                            if e.is_ready() { "R" } else { "w" },
                            match e.class {
                                ReqClass::Demand => "D",
                                ReqClass::L1Prefetch => "1",
                                ReqClass::L2Prefetch => "2",
                                ReqClass::L3Prefetch => "3",
                            }
                        ))
                        .collect::<Vec<_>>()
                        .join(","),
                    l2.site.pq.len(),
                    l2.stalled.len(),
                    l2.ready_q.len(),
                    l2.fill_out.len(),
                )
            })
            .collect();
        format!(
            "l3_fq={}/{} [{}] l3_in={} l3_stalled={} l3_site_pq={} wb={} | L2: {}",
            self.l3_fq.len(),
            self.l3_fq.capacity(),
            self.l3_fq
                .iter()
                .map(|e| format!("{:x}:{}", e.line.0, if e.is_ready() { "R" } else { "w" }))
                .collect::<Vec<_>>()
                .join(","),
            self.l3_in.len(),
            self.l3_stalled.len(),
            self.l3_site.pq.len(),
            self.wb_buf.len(),
            l2s.join(" || ")
        )
    }

    /// Advances the uncore by one cycle. Returns `(core, line)` fills due
    /// for delivery to the cores via [`bosim_cpu::Core::fill`].
    ///
    /// Idle subsystems are skipped outright: each stage below is guarded
    /// by an O(1) occupancy / next-due check, so a quiescent uncore costs
    /// a handful of branches per cycle instead of polling every queue.
    /// The guards elide provable no-ops only: a skipped stage would have
    /// found nothing ready, so polling it could not change any state.
    pub fn tick(
        &mut self,
        now: Cycle,
        fills: &mut Vec<(CoreId, LineAddr)>,
        prof: &mut HostProfiler,
    ) {
        self.work.uncore_ticks += 1;
        // 1. DRAM: completions make L3 fill-queue entries ready.
        self.completions.clear();
        let l3_can_accept = !self.l3_fq.is_full();
        let mut comps = std::mem::take(&mut self.completions);
        let timer = prof.start(Phase::Dram);
        self.mem.tick(now, l3_can_accept, &mut comps);
        prof.stop(timer);
        for comp in &comps {
            self.l3_fq.set_ready(comp.line);
        }
        self.completions = comps;

        // 2. Requests arriving at the L3 (plus one stalled retry). Ticked
        // every cycle, each cycle skipped since the last tick would have
        // retried the head request; the queue slept through them, so
        // each retry moved the head to the tail. This tick's retry of a
        // stuck head under a full L3 fill queue is the same move: the
        // line would miss in the L3 (which changes nothing), no L3
        // fill-queue entry holds it, its L2 entry is already released,
        // and the request would re-stall, still stuck. One rotation
        // replays all of these retries without a lookup; any other head
        // is popped and retried in full.
        let skipped = now - self.l3_retry_due;
        self.l3_retry_due = now + 1;
        let n = self.l3_stalled.len();
        if n > 0 {
            // Only a tick frees an L3 fill-queue entry.
            debug_assert!(skipped == 0 || self.l3_fq.is_full());
            let skip = (skipped % n as u64) as usize;
            let head = self.l3_stalled[skip];
            let rotate = head.stuck && self.l3_fq.is_full();
            #[cfg(test)]
            let rotate = rotate && !self.arrive_every_head;
            if rotate {
                debug_assert!(
                    !self.l3.contains(head.line),
                    "a stuck request's line is in the L3"
                );
                debug_assert!(
                    self.l3_fq.find(head.line).is_none(),
                    "a stuck request's line has an L3 fill-queue entry"
                );
                debug_assert!(
                    self.l2s[head.core.index()]
                        .fq
                        .find(head.line)
                        .is_none_or(|e| e.is_ready()),
                    "a stuck retry would release an L2 entry reserved since it stalled"
                );
                // The retry still outranks the L3 prefetch site.
                self.l3_saw_request = true;
                self.l3_stalled.rotate_left(skip + 1);
            } else {
                self.l3_stalled.rotate_left(skip);
                if let Some(req) = self.l3_stalled.pop_front() {
                    if req.stuck {
                        self.stuck_lines[stuck_slot(req.line)] -= 1;
                    } else {
                        self.l3_unstuck -= 1;
                    }
                    self.check_stuck_counts();
                    self.work.l3_retries += 1;
                    self.l3_arrive(req, now);
                }
            }
        }
        while let Some(&(t, req)) = self.l3_in.front() {
            if t > now {
                break;
            }
            self.l3_in.pop_front();
            self.l3_arrive(req, now);
        }

        // 3. L3 fill-queue drain (one insertion per cycle; O(1) no-op
        // when no entry is ready).
        if self.l3_fq.has_ready() {
            self.drain_l3_fq(now);
        }

        // 3b. The L3 prefetch site issues at most one request, only on
        // cycles when no request reached the L3 (lowest priority). The
        // gate flag ages out every cycle, like the per-L2 demand gate.
        self.issue_l3_prefetch(now);
        self.l3_saw_request = false;

        // 4. Per-core L2 work.
        for c in 0..self.l2s.len() {
            let l2 = &mut self.l2s[c];
            if l2.next_work(now) > now {
                // The demand-priority flag still ages out after one cycle.
                l2.sent_demand_this_cycle = false;
                continue;
            }
            self.drain_l2_fq(c, now);
            // Retry one stalled demand request: it may now merge with an
            // in-flight fill.
            if let Some(req) = self.l2s[c].stalled.pop_front() {
                let core = CoreId(c as u8);
                if !self.merge_l2_fill(core, req.line, req.class, req.ifetch, now) {
                    self.forward_to_l3(core, req, now);
                }
            }
            self.issue_prefetch(c, now);
            self.l2s[c].sent_demand_this_cycle = false;
            // Deliver due fills to the core.
            loop {
                match self.l2s[c].fill_out.front() {
                    Some(&(t, line)) if t <= now => {
                        self.l2s[c].fill_out.pop_front();
                        fills.push((CoreId(c as u8), line));
                    }
                    _ => break,
                }
            }
        }

        // 5. Drain the L3 writeback buffer into the DRAM write queues.
        while let Some(&(line, core)) = self.wb_buf.front() {
            if self.mem.enqueue_write(line, core, now) {
                self.wb_buf.pop_front();
                self.stats.dram_writebacks += 1;
            } else {
                break;
            }
        }
    }

    /// The next cycle (strictly after `now`) the system must tick this
    /// uncore at — the wake-up it re-arms right after a tick.
    /// [`Cycle::MAX`] means fully quiescent: nothing is in flight
    /// anywhere, and only a new core request re-arms it (dispatch pulls
    /// the wake-up forward).
    ///
    /// The bound is one-sided: early wake-ups are no-op ticks, late ones
    /// never happen. The DRAM term is O(channels): each channel keeps its
    /// next-command bound current as its state changes (see
    /// [`MemorySystem::next_event`]). The demand-priority
    /// flags need no term here: a set `sent_demand_this_cycle` flag only
    /// matters to a later prefetch issue, which requires a non-empty
    /// prefetch queue — and any non-empty prefetch queue already pins
    /// the wake-up to the very next cycle.
    ///
    /// The L3 stall queue asks for the next cycle unless it sleeps: the
    /// L3 fill queue is full and every stalled request is `stuck`. Each
    /// retry then only moves the head request to the tail, the queue
    /// adds no term, and the next tick replays the skipped retries as
    /// one rotation. Only a tick frees an L3 fill-queue entry, and a
    /// core request that unsticks a request pulls the wake-up forward
    /// as any dispatch does. The queue still never lets the bound reach
    /// [`Cycle::MAX`] (a deadlock then keeps ticking into
    /// [`System::drain_uncore`](crate::System::drain_uncore)'s cap).
    pub fn next_ready_after(&self, now: Cycle) -> Cycle {
        let from = now + 1;
        let stalled = !self.l3_stalled.is_empty();
        let asleep = self.l3_unstuck == 0 && self.l3_fq.is_full();
        if (stalled && !asleep)
            || self.l3_fq.has_ready()
            || !self.wb_buf.is_empty()
            || !self.l3_site.pq.is_empty()
        {
            return from;
        }
        let mut t = Cycle::MAX;
        if let Some(&(d, _)) = self.l3_in.front() {
            if d <= from {
                return from;
            }
            t = t.min(d);
        }
        for l2 in &self.l2s {
            let d = l2.next_work(from);
            if d == from {
                return from;
            }
            t = t.min(d);
        }
        match t.min(self.mem.next_event(from).unwrap_or(Cycle::MAX)) {
            Cycle::MAX if stalled => from,
            t => t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uncore(prefetcher: PrefetcherSpec) -> Uncore {
        let cfg = SimConfig {
            active_cores: 1,
            page: PageSize::M4,
            l2_prefetcher: prefetcher,
            ..Default::default()
        };
        Uncore::new(&cfg)
    }

    /// Throwaway disabled profiler for test tick calls.
    fn prof() -> HostProfiler {
        HostProfiler::disabled()
    }

    fn run_to_fill(
        u: &mut Uncore,
        start: Cycle,
        max: Cycle,
    ) -> Option<(Cycle, Vec<(CoreId, LineAddr)>)> {
        let mut fills = Vec::new();
        for now in start..start + max {
            u.tick(now, &mut fills, &mut prof());
            if !fills.is_empty() {
                return Some((now, fills));
            }
        }
        None
    }

    #[test]
    fn demand_miss_goes_to_dram_and_returns() {
        let mut u = uncore(crate::prefetchers::none());
        u.core_read(CoreId(0), LineAddr(0x1234), ReqClass::Demand, false, 0);
        let (t, fills) = run_to_fill(&mut u, 0, 5000).expect("fill arrives");
        assert_eq!(fills[0], (CoreId(0), LineAddr(0x1234)));
        // L2 lookup (11) + DRAM (>= 104) + drains.
        assert!(t >= 100, "too fast: {t}");
        let s = u.stats();
        assert_eq!(s.l2_misses, 1);
        assert_eq!(s.l3_misses, 1);
        // The block is now resident in both L2 and L3 (non-inclusive fill).
        u.core_read(CoreId(0), LineAddr(0x1234), ReqClass::Demand, false, t + 1);
        assert_eq!(u.stats().l2_hits, 1);
    }

    #[test]
    fn l3_hit_is_much_faster_than_dram() {
        let mut u = Uncore::new(&SimConfig {
            active_cores: 2,
            l2_prefetcher: crate::prefetchers::none(),
            ..Default::default()
        });
        let x = LineAddr(0x99);
        // Core 0 misses in its L2 and the L3: the line comes from DRAM
        // and is inserted into the L3 on its way up.
        u.core_read(CoreId(0), x, ReqClass::Demand, false, 0);
        let (dram_fill, _) = run_to_fill(&mut u, 0, 5000).expect("dram fill");
        // Core 1 misses in its own L2 and hits the line in the L3: the
        // request reaches the L3 after the L2 lookup (L2_LATENCY), the
        // data reaches core 1's L2 fill queue after the L3 lookup
        // (L3_LATENCY), and the fill leaves for the core one cycle after
        // the L2 inserts it.
        let t = dram_fill + 1;
        u.core_read(CoreId(1), x, ReqClass::Demand, false, t);
        let (l3_fill, fills) = run_to_fill(&mut u, t, 5000).expect("l3 fill");
        assert_eq!(fills, [(CoreId(1), x)]);
        assert_eq!(l3_fill, t + L2_LATENCY + L3_LATENCY + 1);
        assert!(l3_fill - t < dram_fill, "{} vs {dram_fill}", l3_fill - t);
        let s = u.stats();
        assert_eq!((s.l3_accesses, s.l3_hits, s.l3_misses), (2, 1, 1), "{s:?}");
        assert_eq!(u.dram_stats().reads, 1, "no second DRAM read");
    }

    #[test]
    fn next_line_prefetcher_fills_ahead() {
        let mut u = uncore(crate::prefetchers::next_line());
        u.core_read(CoreId(0), LineAddr(0x1000), ReqClass::Demand, false, 0);
        let mut fills = Vec::new();
        for now in 0..6000 {
            u.tick(now, &mut fills, &mut prof());
        }
        let s = u.stats();
        assert_eq!(s.l2_prefetches_issued, 1, "{s:?}");
        assert_eq!(s.l2_prefetch_fills, 1, "X+1 should be filled: {s:?}");
        // The prefetched line is resident: an access is a prefetched hit.
        u.core_read(CoreId(0), LineAddr(0x1001), ReqClass::Demand, false, 6001);
        assert_eq!(u.stats().l2_prefetched_hits, 1);
    }

    #[test]
    fn late_prefetch_promotion_on_inflight_line() {
        let mut u = uncore(crate::prefetchers::next_line());
        // Demand X triggers prefetch X+1; demand X+1 arrives while the
        // prefetch is still in flight -> merge, single DRAM read.
        u.core_read(CoreId(0), LineAddr(0x2000), ReqClass::Demand, false, 0);
        let mut fills = Vec::new();
        for now in 0..40 {
            u.tick(now, &mut fills, &mut prof());
        }
        u.core_read(CoreId(0), LineAddr(0x2001), ReqClass::Demand, false, 40);
        for now in 40..6000 {
            u.tick(now, &mut fills, &mut prof());
        }
        let got: std::collections::HashSet<u64> = fills.iter().map(|&(_, l)| l.0).collect();
        assert!(got.contains(&0x2001), "promoted prefetch must reach core");
        let s = u.stats();
        assert!(
            s.l2_fill_merges + s.l3_fill_merges + s.l3_hits >= 1,
            "{s:?}"
        );
    }

    #[test]
    fn writebacks_reach_dram() {
        let mut u = uncore(crate::prefetchers::none());
        // Fill many dirty lines through core writebacks; force L2 and L3
        // evictions until DRAM writes happen.
        for i in 0..200_000u64 {
            u.core_writeback(CoreId(0), LineAddr(i * 64), i);
            let mut fills = Vec::new();
            u.tick(i, &mut fills, &mut prof());
        }
        assert!(u.dram_stats().writes > 0, "{:?}", u.dram_stats());
    }

    #[test]
    fn prefetches_have_lowest_priority() {
        // A prefetch queued in the same cycle as a demand request must
        // not reach the L3 that cycle (§5.4: lowest priority).
        let mut u = uncore(crate::prefetchers::next_line());
        u.core_read(CoreId(0), LineAddr(0x7000), ReqClass::Demand, false, 0);
        let before = u.stats().l2_prefetches_issued;
        let mut fills = Vec::new();
        u.tick(0, &mut fills, &mut prof()); // demand was sent this cycle: prefetch waits
        assert_eq!(u.stats().l2_prefetches_issued, before);
        u.tick(1, &mut fills, &mut prof()); // no demand: the prefetch may go
        assert_eq!(u.stats().l2_prefetches_issued, before + 1);
    }

    #[test]
    fn redundant_prefetches_are_dropped() {
        let mut u = uncore(crate::prefetchers::next_line());
        // Fill X+1, then miss on X: the candidate X+1 is resident.
        u.core_read(CoreId(0), LineAddr(0x8001), ReqClass::Demand, false, 0);
        let mut fills = Vec::new();
        for now in 0..6000 {
            u.tick(now, &mut fills, &mut prof());
        }
        u.core_read(CoreId(0), LineAddr(0x8000), ReqClass::Demand, false, 6000);
        let s = u.stats();
        assert!(
            s.l2_prefetches_redundant >= 1,
            "prefetch of a resident line must be dropped: {s:?}"
        );
    }

    #[test]
    fn ampm_prefetcher_integrates() {
        let mut u = uncore(crate::prefetchers::ampm_default());
        let mut fills = Vec::new();
        let mut now = 0;
        for i in 0..12u64 {
            u.core_read(
                CoreId(0),
                LineAddr(0x9000 + i),
                ReqClass::Demand,
                false,
                now,
            );
            for _ in 0..400 {
                u.tick(now, &mut fills, &mut prof());
                now += 1;
            }
        }
        let s = u.stats();
        assert!(
            s.l2_prefetches_issued > 0,
            "AMPM must prefetch on a sequential pattern: {s:?}"
        );
    }

    #[test]
    fn writeback_allocate_cascades_to_l3() {
        let mut u = uncore(crate::prefetchers::none());
        // Write back enough dirty lines to one L2 set to force dirty
        // evictions into the L3 (write-allocate on writeback).
        // L2: 1024 sets; lines k*1024 share set 0; 8 ways overflow at 9.
        for k in 0..12u64 {
            u.core_writeback(CoreId(0), LineAddr(k * 1024), 0);
        }
        let s = u.stats();
        let _ = s;
        // The L3 must now hold the evicted dirty lines: reading one back
        // is an L3 hit, not a DRAM access.
        u.core_read(CoreId(0), LineAddr(0), ReqClass::Demand, false, 0);
        let mut fills = Vec::new();
        for now in 0..200 {
            u.tick(now, &mut fills, &mut prof());
        }
        assert_eq!(u.stats().l3_hits, 1, "{:?}", u.stats());
        assert!(!fills.is_empty(), "L3 hit must return data quickly");
    }

    /// Regression (over-reservation): two forwards of the *same line* to
    /// one core merge into a single L2 fill-queue entry, so the L3 drain
    /// must count one needed entry, not one per forward. With a 1-entry
    /// L2 fill queue the old per-forward count demanded two free slots —
    /// impossible — and the fill stalled forever.
    #[test]
    fn same_line_forwards_to_one_core_need_one_entry() {
        let cfg = SimConfig {
            active_cores: 1,
            page: PageSize::M4,
            l2_prefetcher: crate::prefetchers::none(),
            ..Default::default()
        };
        let mut u = Uncore::new(&cfg);
        u.shrink_fill_queues(1, L3_FILL_QUEUE);
        let line = LineAddr(0x3000);
        let mut fills = Vec::new();
        // First demand: reserves the single L2 entry, reaches the L3 at
        // +l2_latency, misses, releases the entry and goes to DRAM.
        u.core_read(CoreId(0), line, ReqClass::Demand, false, 0);
        for now in 0..20 {
            u.tick(now, &mut fills, &mut prof());
        }
        // Re-request of the same line while the L3 fill is in flight:
        // re-reserves the L2 entry and *merges* at the L3 fill queue —
        // the entry now carries two forwards for core 0.
        u.core_read(CoreId(0), line, ReqClass::Demand, false, 20);
        for now in 21..40 {
            u.tick(now, &mut fills, &mut prof());
        }
        assert_eq!(u.stats().l3_fill_merges, 1, "{:?}", u.stats());
        assert!(fills.is_empty(), "DRAM not done yet");
        let (_, got) = run_to_fill(&mut u, 40, 5000).expect("fill must not stall");
        assert_eq!(got[0], (CoreId(0), line));
    }

    /// Regression: `drain_l3_fq` used a hard-coded 8-core scratch array
    /// and panicked for larger machines. The scratch is sized from
    /// `active_cores` now, matching validation's core-count bound.
    #[test]
    fn uncore_handles_more_than_eight_cores() {
        let cfg = SimConfig {
            active_cores: 9,
            page: PageSize::M4,
            l2_prefetcher: crate::prefetchers::none(),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok(), "validation must agree with uncore");
        let mut u = Uncore::new(&cfg);
        u.core_read(CoreId(8), LineAddr(0x9999), ReqClass::Demand, false, 0);
        let (_, fills) = run_to_fill(&mut u, 0, 5000).expect("fill arrives");
        assert_eq!(fills[0], (CoreId(8), LineAddr(0x9999)));
    }

    /// Regression (L3 accounting): a request that misses, stalls on a
    /// full L3 fill queue, and finds the block in the L3 when retried is
    /// serviced as a hit — and must be *recorded* as one. Hit/miss
    /// classification is deferred to the arrival that services the
    /// request (a stalled request is unclassified), so the counters are
    /// monotonic and `hits + misses == accesses` holds at quiescence.
    #[test]
    fn stalled_then_retried_request_recorded_as_hit() {
        let cfg = SimConfig {
            active_cores: 1,
            page: PageSize::M4,
            l2_prefetcher: crate::prefetchers::none(),
            ..Default::default()
        };
        let mut u = Uncore::new(&cfg);
        u.shrink_fill_queues(L2_FILL_QUEUE, 1);
        let mut fills = Vec::new();
        // A occupies the single L3 fill-queue entry (DRAM takes ≥104
        // cycles); B arrives behind it and stalls, its access counted
        // but its hit/miss classification pending.
        u.core_read(CoreId(0), LineAddr(0x5000), ReqClass::Demand, false, 0);
        for now in 0..15 {
            u.tick(now, &mut fills, &mut prof());
        }
        let b = LineAddr(0x7000);
        u.core_read(CoreId(0), b, ReqClass::Demand, false, 15);
        for now in 15..30 {
            u.tick(now, &mut fills, &mut prof());
        }
        let s = u.stats();
        assert_eq!((s.l3_accesses, s.l3_hits, s.l3_misses), (2, 0, 1), "{s:?}");
        // While B waits, dirty same-set writebacks evict B's line from
        // the L2 into the L3 (write-allocate): the block lands in the L3
        // before the retry can re-issue.
        // L2 has 1024 sets, so lines k*1024 + 0x7000 share B's set.
        u.core_writeback(CoreId(0), b, 30);
        for k in 1..=9u64 {
            u.core_writeback(CoreId(0), LineAddr(b.0 + k * 1024), 30);
        }
        assert!(fills.is_empty(), "nothing delivered yet");
        // The next retry hits in the L3: miss reclassified as a hit, and
        // the block still reaches the core (the released L2 entry is
        // re-reserved).
        let (_, got) = run_to_fill(&mut u, 30, 5000).expect("B must be serviced");
        assert_eq!(got[0], (CoreId(0), b));
        let s = u.stats();
        assert_eq!((s.l3_accesses, s.l3_hits, s.l3_misses), (2, 1, 1), "{s:?}");
    }

    /// The L3 stall queue sleeps while the L3 fill queue is full and
    /// every stalled request is stuck, the next tick replays the skipped
    /// retries as one rotation, and a stuck head under a full L3 fill
    /// queue moves to the tail without an L3 lookup. Two cores' demand
    /// misses back up behind a two-entry L3 fill queue; one uncore ticks
    /// only at its `next_ready_after` wake-up and its twin every cycle,
    /// sending every stalled head through the full L3 arrival, and both
    /// get the same requests on the same cycles. Midway, one stalled
    /// line is re-requested as an ifetch (an L2 fill-queue reservation
    /// for it) and another lands in the L3 by writeback, so both
    /// `unstick` hooks fire. At every tick of the first uncore, the two
    /// have delivered the same fills on the same cycles, hold the stall
    /// queue in the same order and count the same statistics. A second
    /// pass runs a next-line prefetcher at the L3, which may issue only
    /// on cycles when no request, a stalled retry included, reached the
    /// L3. Its candidates then wait while requests are stalled, and keep
    /// the uncore awake: that pass never sleeps.
    #[test]
    fn golden_stats_sleeping_l3_stall_queue_matches_every_cycle() {
        for l3_prefetcher in [None, Some(crate::prefetchers::next_line())] {
            let sleeps = l3_prefetcher.is_none();
            let cfg = SimConfig {
                active_cores: 2,
                page: PageSize::M4,
                l2_prefetcher: crate::prefetchers::none(),
                l3_prefetcher,
                ..Default::default()
            };
            sleeping_l3_stall_queue_matches_every_cycle(&cfg, sleeps);
        }
    }

    /// One pass of the twin test on `cfg`; `sleeps` says whether the
    /// first uncore must sleep with requests stalled.
    fn sleeping_l3_stall_queue_matches_every_cycle(cfg: &SimConfig, sleeps: bool) {
        let [mut skipping, mut every] = [Uncore::new(cfg), Uncore::new(cfg)];
        skipping.shrink_fill_queues(16, 2);
        every.shrink_fill_queues(16, 2);
        every.arrive_every_head = true;
        let (mut skip_fills, mut every_fills) = (Vec::new(), Vec::new());
        let mut fills = Vec::new();
        let mut wake = 0;
        let (mut ticks, mut slept_stalled) = (0, 0);
        let mut last_tick = 0;
        for now in 0..20_000 {
            every.tick(now, &mut fills, &mut prof());
            every_fills.extend(fills.drain(..).map(|(c, l)| (now, c, l)));
            if wake <= now {
                if now > last_tick + 1 && !skipping.l3_stalled.is_empty() {
                    slept_stalled += 1;
                }
                skipping.tick(now, &mut fills, &mut prof());
                skip_fills.extend(fills.drain(..).map(|(c, l)| (now, c, l)));
                wake = skipping.next_ready_after(now);
                (ticks, last_tick) = (ticks + 1, now);
                assert_eq!(skip_fills, every_fills, "fills differ at cycle {now}");
                assert_eq!(
                    skipping.l3_stalled, every.l3_stalled,
                    "stall queues differ at cycle {now}"
                );
                assert_eq!(
                    skipping.stats(),
                    every.stats(),
                    "statistics differ at cycle {now}"
                );
            }
            // Requests reach both uncores after the cycle's tick, and
            // pull the sleeping one's wake-up forward, as core dispatch
            // does.
            if now < 12 {
                for u in [&mut skipping, &mut every] {
                    for c in 0..2u8 {
                        let line = LineAddr(0x10_0000 * (u64::from(c) + 1) + now * 64);
                        u.core_read(CoreId(c), line, ReqClass::Demand, false, now);
                    }
                }
                wake = wake.min(now + 1);
            }
            if now == 300 {
                let [a, b] = [every.l3_stalled[0], every.l3_stalled[1]];
                let other = CoreId(1 - b.core.0);
                for u in [&mut skipping, &mut every] {
                    u.core_read(a.core, a.line, ReqClass::Demand, true, now);
                    // Nine more dirty lines in its L2 set evict b's line
                    // into the L3.
                    u.core_writeback(other, b.line, now);
                    for k in 1..=9u64 {
                        u.core_writeback(other, LineAddr(b.line.0 + k * 1024), now);
                    }
                }
                wake = wake.min(now + 1);
            }
            if every.next_ready_after(now) == Cycle::MAX && wake == Cycle::MAX {
                break;
            }
        }
        assert_eq!(skip_fills, every_fills);
        assert_eq!(skipping.stats(), every.stats());
        // The ifetch merges into its line's demand fill.
        assert_eq!(every_fills.len(), 24, "{every_fills:?}");
        assert!(
            !sleeps || slept_stalled > 0 && ticks < every_fills.last().map_or(0, |f| f.0) / 2,
            "the stall queue never slept: {ticks} ticks, {slept_stalled} after a sleep"
        );
        // Only the twin retried stuck heads in full.
        assert!(
            skipping.work.l3_retries < every.work.l3_retries,
            "{:?} vs {:?}",
            skipping.work,
            every.work
        );
    }

    /// Fills delivered to the core for `line`.
    fn fills_of(fills: &[(CoreId, LineAddr)], line: LineAddr) -> usize {
        fills.iter().filter(|&&(_, l)| l == line).count()
    }

    /// The stalled-request retry merge: with a one-entry L2 fill queue
    /// held by A, two same-cycle reads of X (data, then ifetch) both
    /// stall. The first retry reserves X's entry and the second merges
    /// into it, so X reaches the core once.
    #[test]
    fn stalled_retry_merges_into_the_pending_fill() {
        let cfg = SimConfig {
            active_cores: 1,
            page: PageSize::M4,
            l2_prefetcher: crate::prefetchers::none(),
            ..Default::default()
        };
        let mut u = Uncore::new(&cfg);
        u.shrink_fill_queues(1, L3_FILL_QUEUE);
        let x = LineAddr(0x6100);
        u.core_read(CoreId(0), LineAddr(0x6000), ReqClass::Demand, false, 0);
        u.core_read(CoreId(0), x, ReqClass::Demand, false, 0);
        u.core_read(CoreId(0), x, ReqClass::Demand, true, 0);
        let mut fills = Vec::new();
        for now in 0..5000 {
            u.tick(now, &mut fills, &mut prof());
        }
        assert_eq!(fills_of(&fills, x), 1, "{fills:?}");
        assert_eq!(u.stats().l3_accesses, 2, "{:?}", u.stats());
    }

    /// The retried-hit merge: B stalls at the L3 and lands there by
    /// writeback while it waits, as in
    /// `stalled_then_retried_request_recorded_as_hit`; reading B again
    /// re-reserves its L2 entry first, so the retry that hits merges into
    /// that entry. B reaches the core once.
    #[test]
    fn retried_hit_merges_into_a_rerequested_fill() {
        let cfg = SimConfig {
            active_cores: 1,
            page: PageSize::M4,
            l2_prefetcher: crate::prefetchers::none(),
            ..Default::default()
        };
        let mut u = Uncore::new(&cfg);
        u.shrink_fill_queues(L2_FILL_QUEUE, 1);
        let mut fills = Vec::new();
        u.core_read(CoreId(0), LineAddr(0x5000), ReqClass::Demand, false, 0);
        for now in 0..15 {
            u.tick(now, &mut fills, &mut prof());
        }
        let b = LineAddr(0x7000);
        u.core_read(CoreId(0), b, ReqClass::Demand, false, 15);
        for now in 15..30 {
            u.tick(now, &mut fills, &mut prof());
        }
        u.core_writeback(CoreId(0), b, 30);
        for k in 1..=9u64 {
            u.core_writeback(CoreId(0), LineAddr(b.0 + k * 1024), 30);
        }
        u.core_read(CoreId(0), b, ReqClass::Demand, false, 30);
        for now in 30..5000 {
            u.tick(now, &mut fills, &mut prof());
        }
        assert_eq!(fills_of(&fills, b), 1, "{fills:?}");
        // The re-read is an L3 access of its own, and hits too.
        let s = u.stats();
        assert_eq!((s.l3_accesses, s.l3_hits, s.l3_misses), (3, 2, 1), "{s:?}");
    }

    #[test]
    fn telemetry_counts_useful_fills() {
        let mut u = uncore(crate::prefetchers::next_line());
        u.core_read(CoreId(0), LineAddr(0x1000), ReqClass::Demand, false, 0);
        let mut fills = Vec::new();
        for now in 0..6000 {
            u.tick(now, &mut fills, &mut prof());
        }
        let t = u.prefetch_telemetry(CoreId(0));
        assert_eq!((t.issued, t.prefetch_fills), (1, 1), "{t:?}");
        assert_eq!(t.useful, 0, "not touched yet");
        // First demand touch of the prefetched X+1: useful.
        u.core_read(CoreId(0), LineAddr(0x1001), ReqClass::Demand, false, 6000);
        let t = u.prefetch_telemetry(CoreId(0));
        assert_eq!(t.useful, 1, "{t:?}");
        assert!(t.useful + t.unused_evicted <= t.prefetch_fills);
        // A second touch of the same line is a plain hit, not useful.
        u.core_read(CoreId(0), LineAddr(0x1001), ReqClass::Demand, false, 6001);
        assert_eq!(u.prefetch_telemetry(CoreId(0)).useful, 1);
    }

    #[test]
    fn telemetry_counts_late_promotions() {
        let mut u = uncore(crate::prefetchers::next_line());
        // Demand X queues prefetch X+1; once the prefetch has issued into
        // the fill queue, a demand for X+1 merges with it (late).
        u.core_read(CoreId(0), LineAddr(0x2000), ReqClass::Demand, false, 0);
        let mut fills = Vec::new();
        for now in 0..30 {
            u.tick(now, &mut fills, &mut prof());
        }
        assert_eq!(u.stats().l2_prefetches_issued, 1, "prefetch in flight");
        u.core_read(CoreId(0), LineAddr(0x2001), ReqClass::Demand, false, 30);
        for now in 30..6000 {
            u.tick(now, &mut fills, &mut prof());
        }
        let t = u.prefetch_telemetry(CoreId(0));
        assert_eq!(t.late_promotions, 1, "{t:?}");
    }

    #[test]
    fn telemetry_counts_unused_evicted() {
        let mut u = uncore(crate::prefetchers::next_line());
        let mut fills = Vec::new();
        let mut now = 0;
        // Prefetch-fill lines in set 0 (stride = L2 set count), never
        // touching the prefetched ones; overflowing the 8-way set evicts
        // untouched prefetch-bit lines.
        for k in 1..=24u64 {
            u.core_read(
                CoreId(0),
                LineAddr(k * 1024 - 1),
                ReqClass::Demand,
                false,
                now,
            );
            for _ in 0..2000 {
                u.tick(now, &mut fills, &mut prof());
                now += 1;
            }
        }
        let t = u.prefetch_telemetry(CoreId(0));
        assert!(t.unused_evicted > 0, "{t:?}");
        assert!(t.useful + t.unused_evicted <= t.prefetch_fills, "{t:?}");
    }

    #[test]
    fn reconfigure_applies_directives_and_switches_prefetchers() {
        let mut u = uncore(crate::prefetchers::bo_default());
        let mut tune = |d: TuneDirective| u.reconfigure(CoreId(0), &d);
        assert!(tune(TuneDirective::SetDegree(2)));
        assert!(!tune(TuneDirective::SetDegree(9)));
        assert!(tune(TuneDirective::SetEnabled(false)));
        // Switch to a registered prefetcher: fresh state, new name.
        assert!(tune(TuneDirective::SwitchPrefetcher("none".into())));
        // Unknown names are rejected, prefetcher unchanged.
        assert!(!tune(TuneDirective::SwitchPrefetcher(
            "definitely-not-registered".into()
        )));
        // L1D-only specs cannot be switched into an L2 site.
        assert!(!tune(TuneDirective::SwitchPrefetcher("stride".into())));
        assert_eq!(u.l2_prefetcher_name(CoreId(0)), "none");
    }

    #[test]
    fn prefetch_queue_cancellation_counts() {
        let mut u = uncore(crate::prefetchers::next_line());
        // Burst of misses on one cycle: candidates pile into the 8-entry
        // prefetch queue; with no demand gaps they cannot issue, so the
        // queue overflows and cancels the oldest.
        for i in 0..32u64 {
            u.core_read(
                CoreId(0),
                LineAddr(0x4000 + i * 2),
                ReqClass::Demand,
                false,
                0,
            );
        }
        let s = u.stats();
        assert!(
            s.l2_prefetches_cancelled > 0,
            "queue should overflow: {s:?}"
        );
    }
}
