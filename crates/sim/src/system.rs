//! Full-system assembly: cores + uncore, and the measurement loop.

use crate::config::SimConfig;
use crate::uncore::{PrefetchTelemetry, Uncore, UncoreStats};
use crate::wheel::EventWheel;
use bosim_adapt::{
    AdaptTelemetry, DirectiveRecord, EpochFeedback, EpochRecord, PrefetchSite, SiteFeedback,
    TunePolicy,
};
use bosim_cpu::{Core, CoreObsEvent, CoreStats, UncoreRequest};
use bosim_dram::DramStats;
use bosim_obs::{
    EpochRow, EpochStream, Event, EventKind, HostProfiler, ObsReport, ObsSite, Phase, ProfileSlot,
};
use bosim_trace::{suite, BenchmarkSpec};
use bosim_types::{CoreId, Cycle, LineAddr, ReqClass};

/// The result of one measured simulation run.
///
/// `PartialEq` compares every counter bit-for-bit — the golden-stats
/// invariance test relies on this to prove the event-wheel system loop
/// exactly reproduces the every-cycle loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Benchmark name (e.g. `"433.milc-like"`).
    pub benchmark: String,
    /// Configuration label (e.g. `"4KB/1-core/BO"`).
    pub config: String,
    /// Instructions retired by core 0 in the measured window.
    pub instructions: u64,
    /// Cycles elapsed in the measured window.
    pub cycles: u64,
    /// Core-0 statistics over the measured window.
    pub core: CoreStats,
    /// Uncore statistics over the measured window (core 0's L2 plus the
    /// shared structures).
    pub uncore: UncoreStats,
    /// DRAM statistics over the measured window (all cores).
    pub dram: DramStats,
    /// Core 0's L2-site prefetch telemetry, cumulative from simulation
    /// start (warm-up included — fills resolve across window
    /// boundaries, so the per-site resolution invariant only holds on
    /// the cumulative counters).
    pub l2_site: PrefetchTelemetry,
    /// The shared L3 site's prefetch telemetry, cumulative from
    /// simulation start.
    pub l3_site: PrefetchTelemetry,
    /// Adaptive-control telemetry: core 0's full epoch history (from
    /// simulation start, warm-up included) when the run was adaptive,
    /// `None` for static configurations.
    pub adapt: Option<AdaptTelemetry>,
    /// Observability report — the cycle-domain event log, the epoch
    /// metric series and the host profile — when any [`SimConfig::obs`]
    /// channel was enabled, `None` otherwise. Covers the whole run
    /// (warm-up included). Events and epochs are pure functions of
    /// simulated state and participate in equality; the wall-clock
    /// profile is wrapped in [`ProfileSlot`] and never compares unequal.
    pub obs: Option<ObsReport>,
}

impl SimResult {
    /// Instructions per cycle of core 0.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// DRAM accesses (reads + writes) per 1000 instructions — the
    /// Figure 13 metric.
    pub fn dram_accesses_per_ki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        (self.dram.reads + self.dram.writes) as f64 * 1000.0 / self.instructions as f64
    }

    /// Checks the per-site telemetry invariants carried by this result:
    /// at core 0's L2 site and the shared L3 site,
    /// `useful + unused_evicted <= prefetch_fills` — every
    /// prefetch-filled line resolves at most once. (Other cores' L2
    /// telemetry is not part of a `SimResult`; the L1 site has no
    /// fill-resolution counters — its issue counts live in
    /// [`CoreStats`].)
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_site_invariants(&self) -> Result<(), String> {
        for (site, t) in [("l2", &self.l2_site), ("l3", &self.l3_site)] {
            if t.useful + t.unused_evicted > t.prefetch_fills {
                return Err(format!(
                    "{site} site: useful ({}) + unused-evicted ({}) exceeds prefetch fills ({})",
                    t.useful, t.unused_evicted, t.prefetch_fills
                ));
            }
        }
        Ok(())
    }
}

/// The live adaptive-control engine of a running system: per-core
/// policies plus the previous epoch's counter snapshots.
#[derive(Debug)]
struct AdaptRuntime {
    epoch_cycles: u64,
    /// End of the epoch currently accumulating.
    next_boundary: Cycle,
    epoch: u64,
    /// One policy instance per core (policies are per-core state
    /// machines; bandwidth feedback is shared, decisions are not).
    policies: Vec<Box<dyn TunePolicy>>,
    prev_telemetry: Vec<PrefetchTelemetry>,
    prev_core: Vec<CoreStats>,
    prev_retired: Vec<u64>,
    prev_dram: DramStats,
    prev_l3: PrefetchTelemetry,
    telemetry: AdaptTelemetry,
}

/// The live observability epoch tracker: boundary bookkeeping plus the
/// previous boundary's counter snapshots (the same delta discipline as
/// [`AdaptRuntime`], so the metric series is bit-identical across the
/// every-cycle and event-wheel loops).
#[derive(Debug)]
struct ObsEpochRuntime {
    epoch_cycles: u64,
    /// End of the epoch currently accumulating.
    next_boundary: Cycle,
    epoch: u64,
    rows: Vec<EpochRow>,
    stream: EpochStream,
    prev_retired: u64,
    prev_l2: PrefetchTelemetry,
    prev_dram: DramStats,
}

/// Event-wheel source id of the uncore (cores follow at [`core_src`]).
const UNCORE_SRC: u16 = 0;

/// Event-wheel source id of core `c`.
#[inline]
fn core_src(c: usize) -> u16 {
    (c + 1) as u16
}

/// A complete simulated machine: up to four cores, private L2s, shared L3
/// and dual-channel DRAM.
#[derive(Debug)]
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    uncore: Uncore,
    cycle: Cycle,
    /// Cycles actually stepped (≤ `cycle`; the rest were fast-forwarded).
    steps: u64,
    benchmark: String,
    req_buf: Vec<UncoreRequest>,
    fill_buf: Vec<(CoreId, LineAddr)>,
    adapt: Option<AdaptRuntime>,
    /// The discrete-event calendar driving the scheduled (fast-forward)
    /// loop: one source per core plus the uncore, each posting the
    /// earliest cycle at which it may have work. A post is a promise of
    /// idleness *before* it, never of work *at* it — early wake-ups are
    /// harmless no-op ticks, but a source must never have work strictly
    /// before its post.
    wheel: EventWheel,
    /// Scratch for the sources popped each stepped cycle.
    due_buf: Vec<u16>,
    /// Host-side wall-clock attribution (inert unless
    /// [`bosim_obs::ObsConfig::profile`] is set).
    prof: HostProfiler,
    /// Observability epoch series state (`None` = epochs off).
    obs_rt: Option<ObsEpochRuntime>,
    /// Scratch for draining core-side L1 observability events.
    core_obs_buf: Vec<CoreObsEvent>,
}

impl System {
    /// Builds a system running `bench` on core 0 — a synthetic spec or
    /// a file-backed one ([`BenchmarkSpec::from_trace`]). Cores
    /// 1..active run the §5.1 cache-thrashing micro-benchmark. When
    /// [`SimConfig::sample`] is set, core 0's µop stream is wrapped in
    /// the sampling plan (warm-up skip + periodic windows); the
    /// thrasher streams are never sampled.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`] (e.g.
    /// `active_cores` is 0 or beyond [`crate::MAX_CORES`]), or if a
    /// file-backed benchmark fails to load — the job runner converts
    /// the panic into a [`RunnerError`](crate::RunnerError) naming the
    /// benchmark; pre-validate interactively with
    /// [`bosim_trace::ExternalSpec::load`].
    pub fn new(cfg: &SimConfig, bench: &BenchmarkSpec) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}"); // bosim-lint: allow(P003, documented Panics contract; run_jobs converts to RunnerError)
        }
        let mut prof = if cfg.obs.profile {
            HostProfiler::new(cfg.obs.profile_sample_shift)
        } else {
            HostProfiler::disabled()
        };
        let decode_timer = prof.start(Phase::Decode);
        let mut cores = Vec::new();
        for i in 0..cfg.active_cores {
            let trace: Box<dyn bosim_trace::TraceSource> = if i == 0 {
                let src = match bench.source() {
                    Ok(src) => src,
                    Err(e) => panic!("cannot load benchmark {}: {e}", bench.name), // bosim-lint: allow(P003, documented Panics contract; run_jobs converts to RunnerError)
                };
                match cfg.sample {
                    Some(spec) if !spec.is_passthrough() => {
                        Box::new(bosim_trace::SampledSource::new(src, spec))
                    }
                    _ => src,
                }
            } else {
                let mut spec = suite::thrasher();
                spec.seed ^= 0x7417 * i as u64;
                Box::new(spec.build())
            };
            // The L1D prefetch site is registry-resolved and pluggable:
            // every core gets its own instance built from the spec
            // (validation guaranteed the spec supports the site).
            let l1 = cfg.l1_prefetcher.as_ref().and_then(|h| h.build_l1(cfg));
            cores.push(Core::new(
                CoreId(i as u8),
                cfg.core.clone(),
                trace,
                cfg.page,
                cfg.seed ^ (i as u64) << 8,
                l1,
            ));
        }
        prof.stop(decode_timer);
        if cfg.obs.events {
            for core in &mut cores {
                core.set_obs_sink(true);
            }
        }
        let obs_rt = cfg.obs.epochs.then(|| ObsEpochRuntime {
            epoch_cycles: cfg.obs.epoch_cycles,
            next_boundary: cfg.obs.epoch_cycles,
            epoch: 0,
            rows: Vec::new(),
            stream: match &cfg.obs.epoch_stream {
                Some(path) => EpochStream::create(path),
                None => EpochStream::disabled(),
            },
            prev_retired: 0,
            prev_l2: PrefetchTelemetry::default(),
            prev_dram: DramStats::default(),
        });
        let adapt = cfg.adapt.as_ref().map(|a| AdaptRuntime {
            epoch_cycles: a.epoch_cycles,
            next_boundary: a.epoch_cycles,
            epoch: 0,
            policies: (0..cfg.active_cores).map(|_| a.policy.build()).collect(),
            prev_telemetry: vec![PrefetchTelemetry::default(); cfg.active_cores],
            prev_core: vec![CoreStats::default(); cfg.active_cores],
            prev_retired: vec![0; cfg.active_cores],
            prev_dram: DramStats::default(),
            prev_l3: PrefetchTelemetry::default(),
            telemetry: AdaptTelemetry {
                policy: a.policy.name(),
                epoch_cycles: a.epoch_cycles,
                ..Default::default()
            },
        });
        System {
            uncore: Uncore::new(cfg),
            wheel: EventWheel::new(cfg.active_cores + 1),
            due_buf: Vec::with_capacity(cfg.active_cores + 1),
            cores,
            cycle: 0,
            steps: 0,
            benchmark: bench.name.clone(),
            req_buf: Vec::with_capacity(64),
            fill_buf: Vec::with_capacity(64),
            adapt,
            prof,
            obs_rt,
            core_obs_buf: Vec::new(),
            cfg: cfg.clone(),
        }
    }

    /// The current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Cycles actually stepped so far. With fast-forwarding off this
    /// equals [`cycle`](Self::cycle); with it on, the difference is the
    /// number of skipped (provably idle) cycles.
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// Immutable access to the uncore (prefetcher introspection).
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// One-line core state dump (diagnostics).
    pub fn debug_core_state(&self, core: usize) -> String {
        self.cores[core].debug_state()
    }

    /// Core-0 statistics so far.
    pub fn core0_stats(&self) -> CoreStats {
        self.cores[0].stats()
    }

    /// Advances the system by one cycle. Returns `true` when the cycle
    /// was visibly active — a fill was delivered or a core emitted an
    /// uncore request. Quiet cycles are where fast-forwarding looks for
    /// skippable stretches (activity makes an immediate skip unlikely,
    /// so the bound computation isn't worth paying for).
    pub fn step(&mut self) -> bool {
        let now = self.cycle;
        self.steps += 1;
        let mut active = false;
        // Uncore first: deliver due fills into the cores (may produce
        // writebacks, handled immediately).
        self.fill_buf.clear();
        let timer = self.prof.start(Phase::UncoreTick);
        self.uncore.tick(now, &mut self.fill_buf, &mut self.prof);
        self.prof.stop(timer);
        active |= !self.fill_buf.is_empty();
        let timer = self.prof.start(Phase::CoreTick);
        for i in 0..self.fill_buf.len() {
            let (core, line) = self.fill_buf[i];
            self.req_buf.clear();
            self.cores[core.index()].fill(line, now, &mut self.req_buf);
            for r in 0..self.req_buf.len() {
                let req = self.req_buf[r];
                self.dispatch_request(core, req, now);
            }
        }
        // Cores tick and emit new uncore requests.
        for c in 0..self.cores.len() {
            self.req_buf.clear();
            self.cores[c].tick(now, &mut self.req_buf);
            active |= !self.req_buf.is_empty();
            for r in 0..self.req_buf.len() {
                let req = self.req_buf[r];
                self.dispatch_request(CoreId(c as u8), req, now);
            }
        }
        self.prof.stop(timer);
        if self.uncore.events_enabled() {
            self.drain_core_obs(now);
        }
        self.cycle += 1;
        active
    }

    /// Moves the uncore's wheel post earlier, to `at`, when it is
    /// currently scheduled later. Called after every dispatched request:
    /// dispatch mutates uncore state outside its tick, so the bound it
    /// posted at its last tick no longer covers the new work (and the
    /// demand-priority flag it may have set must age at the next cycle's
    /// tick).
    fn wake_uncore(&mut self, at: Cycle) {
        if self.wheel.posted(UNCORE_SRC) > at {
            self.wheel.post(UNCORE_SRC, at);
        }
    }

    /// Advances the system by one cycle, popping the event wheel and
    /// ticking only the sources that are due (plus any core woken by a
    /// fill delivered this very cycle). Skipped (source, cycle) pairs
    /// are provably idle — the posting contract makes ticking them a
    /// no-op — so this is bit-identical to [`step`](Self::step), which
    /// ticks everything every cycle.
    fn step_scheduled(&mut self) {
        let now = self.cycle;
        self.steps += 1;
        let mut due_buf = std::mem::take(&mut self.due_buf);
        self.wheel.pop_due(now, &mut due_buf);
        let uncore_due = due_buf.contains(&UNCORE_SRC);
        if uncore_due {
            self.fill_buf.clear();
            let timer = self.prof.start(Phase::UncoreTick);
            self.uncore.tick(now, &mut self.fill_buf, &mut self.prof);
            self.prof.stop(timer);
            let next = self.uncore.next_ready_after(now);
            self.wheel.post(UNCORE_SRC, next);
        }
        let timer = self.prof.start(Phase::CoreTick);
        if uncore_due {
            for i in 0..self.fill_buf.len() {
                let (core, line) = self.fill_buf[i];
                // A delivered fill can unblock dispatch this very cycle.
                self.wheel.post(core_src(core.index()), now);
                self.req_buf.clear();
                self.cores[core.index()].fill(line, now, &mut self.req_buf);
                if !self.req_buf.is_empty() {
                    self.wake_uncore(now + 1);
                }
                for r in 0..self.req_buf.len() {
                    let req = self.req_buf[r];
                    self.dispatch_request(core, req, now);
                }
            }
        }
        for c in 0..self.cores.len() {
            // Due if popped, or posted mid-cycle by a fill delivery.
            if !due_buf.contains(&core_src(c)) && !self.wheel.due(core_src(c), now) {
                continue;
            }
            self.req_buf.clear();
            self.cores[c].tick(now, &mut self.req_buf);
            if !self.req_buf.is_empty() {
                self.wake_uncore(now + 1);
            }
            for r in 0..self.req_buf.len() {
                let req = self.req_buf[r];
                self.dispatch_request(CoreId(c as u8), req, now);
            }
            self.wheel
                .post(core_src(c), self.cores[c].next_work_cycle(now + 1));
        }
        self.prof.stop(timer);
        self.due_buf = due_buf;
        if self.uncore.events_enabled() {
            self.drain_core_obs(now);
        }
        self.cycle += 1;
    }

    /// Forwards the cycle's core-side L1 observability events (stride
    /// prefetch issues, TLB drops) into the shared event log, stamped
    /// with the cycle and owning core.
    fn drain_core_obs(&mut self, now: Cycle) {
        for c in 0..self.cores.len() {
            self.core_obs_buf.clear();
            self.cores[c].drain_obs(&mut self.core_obs_buf);
            for ev in &self.core_obs_buf {
                let kind = match ev {
                    CoreObsEvent::L1PrefetchIssued { line } => {
                        EventKind::PrefetchIssued { line: line.0 }
                    }
                    CoreObsEvent::L1PrefetchTlbDrop => EventKind::PrefetchDropped { line: 0 },
                };
                self.uncore.record_event(Event {
                    cycle: now,
                    core: c as u32,
                    site: ObsSite::L1d,
                    kind,
                });
            }
        }
    }

    fn dispatch_request(&mut self, core: CoreId, req: UncoreRequest, now: Cycle) {
        match req {
            UncoreRequest::Read {
                line,
                class,
                ifetch,
            } => {
                debug_assert!(class != ReqClass::L2Prefetch);
                self.uncore.core_read(core, line, class, ifetch, now);
            }
            UncoreRequest::Writeback { line } => {
                self.uncore.core_writeback(core, line, now);
            }
        }
    }

    /// Adaptive-control telemetry so far (`None` for static runs).
    pub fn adapt_telemetry(&self) -> Option<&AdaptTelemetry> {
        self.adapt.as_ref().map(|a| &a.telemetry)
    }

    /// Processes every epoch boundary at or before the current cycle:
    /// snapshot counters, hand each core's [`EpochFeedback`] to its
    /// policy, apply the directives, log core 0's record.
    ///
    /// Called at the top of the run loop, *before* the tick of the cycle
    /// it fires on. This keeps the every-cycle and event-wheel loops
    /// bit-identical: a skip only jumps provably idle cycles, so when a
    /// jump lands past a boundary the counters are exactly what they
    /// were at the boundary and no prefetcher invocation can have
    /// happened in between — the policy sees the same feedback and
    /// reconfigures the same prefetcher state either way.
    ///
    /// Returns `true` when at least one boundary was processed — the
    /// scheduled loop then refreshes every wheel post, because an
    /// applied directive can create work the sources' previous bounds
    /// did not account for.
    fn adapt_epochs(&mut self) -> bool {
        let Some(ad) = self.adapt.as_mut() else {
            return false;
        };
        let mut processed = false;
        while self.cycle >= ad.next_boundary {
            processed = true;
            let start_cycle = ad.next_boundary - ad.epoch_cycles;
            let dram = self.uncore.dram_stats();
            let reads = dram.reads - ad.prev_dram.reads;
            let writes = dram.writes - ad.prev_dram.writes;
            // Data-bus occupancy: every CAS moves one line and holds the
            // channel's data bus for tBURST core cycles.
            let busy = (reads + writes) * self.uncore.dram_line_transfer_cycles();
            let capacity = ad.epoch_cycles * self.uncore.dram_channels() as u64;
            let bus_occupancy = busy as f64 / capacity as f64;
            // The L3 site is shared: one machine-wide delta, seen by
            // every core's feedback.
            let l3 = self.uncore.l3_prefetch_telemetry();
            let l3_delta = SiteFeedback {
                issued: l3.issued - ad.prev_l3.issued,
                prefetch_fills: l3.prefetch_fills - ad.prev_l3.prefetch_fills,
                useful_fills: l3.useful - ad.prev_l3.useful,
                unused_evicted: l3.unused_evicted - ad.prev_l3.unused_evicted,
            };
            for c in 0..self.cores.len() {
                let core = CoreId(c as u8);
                let telem = self.uncore.prefetch_telemetry(core);
                let prev = ad.prev_telemetry[c];
                let core_stats = self.cores[c].stats();
                let prev_core = ad.prev_core[c];
                let retired = self.cores[c].retired();
                let feedback = EpochFeedback {
                    epoch: ad.epoch,
                    start_cycle,
                    cycles: ad.epoch_cycles,
                    instructions: retired - ad.prev_retired[c],
                    l2_accesses: telem.accesses - prev.accesses,
                    l2_misses: telem.misses - prev.misses,
                    issued: telem.issued - prev.issued,
                    prefetch_fills: telem.prefetch_fills - prev.prefetch_fills,
                    useful_fills: telem.useful - prev.useful,
                    unused_evicted: telem.unused_evicted - prev.unused_evicted,
                    late_promotions: telem.late_promotions - prev.late_promotions,
                    dram_reads: reads,
                    dram_writes: writes,
                    bus_occupancy,
                    l1_prefetches: core_stats.l1_prefetches - prev_core.l1_prefetches,
                    l1_tlb_drops: core_stats.l1_prefetch_tlb_drops
                        - prev_core.l1_prefetch_tlb_drops,
                    l3: l3_delta,
                };
                // Only core 0's record is logged; capture the name of
                // the prefetcher that *produced* the epoch before any
                // directive can switch it.
                let prefetcher =
                    (c == 0).then(|| self.uncore.l2_prefetcher(core).name().to_string());
                let mut directives = Vec::new();
                ad.policies[c].on_epoch(&feedback, &mut directives);
                let mut records = Vec::with_capacity(directives.len());
                for d in &directives {
                    // Route each directive to its addressed site: the
                    // per-core L1/L2 engines, or the shared L3 one. The
                    // L3 is a single shared engine, so only core 0's
                    // policy may steer it — honouring every core's L3
                    // directives would rebuild it once per core and
                    // leave conflicting policies last-core-wins.
                    let applied = match d.site {
                        PrefetchSite::L1D => self.cores[c].reconfigure_l1_prefetcher(&d.directive),
                        PrefetchSite::L2 => self.uncore.reconfigure_prefetcher(core, &d.directive),
                        PrefetchSite::L3 => {
                            c == 0 && self.uncore.reconfigure_l3_prefetcher(&d.directive)
                        }
                    };
                    if applied {
                        ad.telemetry.applied += 1;
                    } else {
                        ad.telemetry.rejected += 1;
                    }
                    if self.uncore.events_enabled() {
                        let site = match d.site {
                            PrefetchSite::L1D => ObsSite::L1d,
                            PrefetchSite::L2 => ObsSite::L2,
                            PrefetchSite::L3 => ObsSite::L3,
                        };
                        self.uncore.record_event(Event {
                            cycle: ad.next_boundary,
                            core: c as u32,
                            site,
                            kind: EventKind::Directive {
                                directive: d.to_string(),
                                applied,
                            },
                        });
                    }
                    records.push(DirectiveRecord {
                        directive: d.to_string(),
                        applied,
                    });
                }
                if let Some(prefetcher) = prefetcher {
                    ad.telemetry.epochs.push(EpochRecord {
                        feedback,
                        prefetcher,
                        directives: records,
                    });
                }
                ad.prev_telemetry[c] = telem;
                ad.prev_core[c] = core_stats;
                ad.prev_retired[c] = retired;
            }
            ad.prev_dram = dram;
            ad.prev_l3 = l3;
            ad.epoch += 1;
            ad.next_boundary += ad.epoch_cycles;
        }
        processed
    }

    /// Processes every observability epoch boundary at or before the
    /// current cycle: compute the epoch's metric row from counter
    /// deltas, stream it, and log the boundary event.
    ///
    /// Like [`adapt_epochs`](Self::adapt_epochs), this runs at the top
    /// of the run loop, before the boundary cycle's tick; a
    /// fast-forward jump can only land past a boundary by skipping
    /// provably idle cycles, so the deltas (and therefore the rows and
    /// events) are bit-identical across the every-cycle and event-wheel
    /// loops.
    fn process_obs_epochs(&mut self) {
        let Some(ob) = self.obs_rt.as_mut() else {
            return;
        };
        while self.cycle >= ob.next_boundary {
            let boundary = ob.next_boundary;
            let start_cycle = boundary - ob.epoch_cycles;
            let retired = self.cores[0].retired();
            let l2 = self.uncore.prefetch_telemetry(CoreId(0));
            let dram = self.uncore.dram_stats();
            let instructions = retired - ob.prev_retired;
            let fills = l2.prefetch_fills - ob.prev_l2.prefetch_fills;
            let useful = l2.useful - ob.prev_l2.useful;
            let misses = l2.misses - ob.prev_l2.misses;
            let issued = l2.issued - ob.prev_l2.issued;
            let late = l2.late_promotions - ob.prev_l2.late_promotions;
            let reads = dram.reads - ob.prev_dram.reads;
            let writes = dram.writes - ob.prev_dram.writes;
            let busy = (reads + writes) * self.uncore.dram_line_transfer_cycles();
            let capacity = ob.epoch_cycles * self.uncore.dram_channels() as u64;
            let ratio = |num: u64, den: u64| {
                if den == 0 {
                    0.0
                } else {
                    num as f64 / den as f64
                }
            };
            let row = EpochRow {
                epoch: ob.epoch,
                start_cycle,
                cycles: ob.epoch_cycles,
                instructions,
                ipc: ratio(instructions, ob.epoch_cycles),
                accuracy: ratio(useful, fills),
                coverage: ratio(useful, useful + misses),
                lateness: ratio(late, issued),
                occupancy: ratio(busy, capacity),
                l3_prefetch_resident: self.uncore.l3_prefetched_lines(),
            };
            ob.stream.write_row(&row);
            ob.rows.push(row);
            self.uncore.record_event(Event {
                cycle: boundary,
                core: 0,
                site: ObsSite::Sys,
                kind: EventKind::EpochEnd { epoch: ob.epoch },
            });
            ob.prev_retired = retired;
            ob.prev_l2 = l2;
            ob.prev_dram = dram;
            ob.epoch += 1;
            ob.next_boundary += ob.epoch_cycles;
        }
    }

    /// Assembles the run's observability report, consuming the epoch
    /// series. `None` when every [`SimConfig::obs`] channel is off.
    fn take_obs_report(&mut self) -> Option<ObsReport> {
        if !self.cfg.obs.enabled() {
            return None;
        }
        let (events, dropped_events) = match self.uncore.event_log() {
            Some((events, dropped)) => (events.to_vec(), dropped),
            None => (Vec::new(), 0),
        };
        let epochs = self.obs_rt.take().map(|ob| ob.rows).unwrap_or_default();
        Some(ObsReport {
            events,
            dropped_events,
            epochs,
            profile: ProfileSlot(self.prof.report()),
        })
    }

    /// Runs until core 0 has retired `instructions` more instructions (or
    /// the safety cycle cap is hit).
    ///
    /// With [`SimConfig::fast_forward`] on (the default), the run is
    /// driven by the event wheel: each source ticks only on cycles it
    /// may have work, and whole-system idle stretches are skipped by
    /// popping the wheel instead of recomputing per-source bounds every
    /// cycle. Elided ticks and skipped cycles are provable no-ops, so
    /// the simulation stays cycle-exact; only wall-clock time changes.
    fn run_until_retired(&mut self, instructions: u64) -> u64 {
        let start_retired = self.cores[0].retired();
        let target = start_retired + instructions;
        let start_cycle = self.cycle;
        // Safety net: a run that sinks below 0.002 IPC is considered hung
        // (deadlock guard for development; never triggered in practice).
        let cycle_cap = self.cycle + instructions * 500 + 1_000_000;
        if self.cfg.fast_forward {
            self.run_scheduled(target, cycle_cap);
        } else {
            // Reference loop: everything ticks every cycle.
            while self.cores[0].retired() < target && self.cycle < cycle_cap {
                if self.adapt.is_some() {
                    self.adapt_epochs();
                }
                if self.obs_rt.is_some() {
                    self.process_obs_epochs();
                }
                self.step();
            }
        }
        assert!(
            self.cores[0].retired() >= target,
            "simulation stalled: {} of {} instructions after {} cycles ({})",
            self.cores[0].retired() - start_retired,
            instructions,
            self.cycle - start_cycle,
            self.benchmark,
        );
        self.cycle - start_cycle
    }

    /// Makes every wheel source due at the current cycle. Used to seed a
    /// scheduled run and to invalidate all posted bounds after an
    /// adaptive directive reconfigures prefetcher state.
    fn wake_all(&mut self) {
        for src in 0..self.wheel.sources() {
            self.wheel.post(src as u16, self.cycle);
        }
    }

    /// The wheel-driven run loop (fast-forward on): epoch boundaries are
    /// processed at the loop top, before the boundary cycle's tick, then
    /// the system advances one [`step_scheduled`](Self::step_scheduled)
    /// and skips to the wheel's next posted cycle.
    fn run_scheduled(&mut self, target: u64, cycle_cap: Cycle) {
        // Seed: every source starts due (a conservative post is always
        // safe — early wake-ups are no-op ticks).
        self.wake_all();
        while self.cores[0].retired() < target && self.cycle < cycle_cap {
            if self.adapt.is_some() && self.adapt_epochs() {
                self.wake_all();
            }
            if self.obs_rt.is_some() {
                self.process_obs_epochs();
            }
            self.step_scheduled();
            // Never fast-forward once the window boundary is reached: the
            // skip would push `cycle` past the stopping point and shift
            // the next window's start relative to the every-cycle loop.
            if self.cores[0].retired() < target {
                let timer = self.prof.start(Phase::FastForward);
                let next = self.wheel.next_after(self.cycle);
                self.prof.stop(timer);
                if next > self.cycle {
                    // Cap the jump so a genuine deadlock (next == MAX)
                    // still lands on the cycle-cap diagnostics.
                    self.cycle = next.min(cycle_cap);
                }
            }
        }
    }

    /// Freezes the cores and ticks the uncore until it is fully
    /// quiescent — every fill delivered, every queue and DRAM channel
    /// empty — then returns the cumulative uncore statistics.
    ///
    /// Mid-run, an in-flight request is counted in `l2_accesses` but
    /// not yet classified as a hit or miss (classification is deferred
    /// to the arrival that services it), so
    /// `l2_hits + l2_misses <= l2_accesses` with equality only at
    /// quiescence. This is the hook that lets accounting tests check
    /// the equality exactly; call it after the final
    /// [`run`](Self::run) and do not step the system afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the uncore fails to quiesce within a generous cycle
    /// cap (a genuine deadlock).
    pub fn drain_uncore(&mut self) -> UncoreStats {
        let cap = self.cycle + 10_000_000;
        while self.uncore.next_event_cycle(self.cycle) != Cycle::MAX {
            assert!(self.cycle < cap, "uncore failed to drain (deadlock?)");
            self.fill_buf.clear();
            self.uncore
                .tick(self.cycle, &mut self.fill_buf, &mut self.prof);
            for i in 0..self.fill_buf.len() {
                let (core, line) = self.fill_buf[i];
                self.req_buf.clear();
                self.cores[core.index()].fill(line, self.cycle, &mut self.req_buf);
                for r in 0..self.req_buf.len() {
                    let req = self.req_buf[r];
                    self.dispatch_request(core, req, self.cycle);
                }
            }
            self.cycle += 1;
        }
        self.uncore.stats()
    }

    /// Runs warm-up + measurement per the configuration and returns the
    /// measured-window result.
    pub fn run(&mut self) -> SimResult {
        self.run_until_retired(self.cfg.warmup_instructions);
        // Snapshot at the measurement-window start.
        let core_before = self.cores[0].stats();
        let uncore_before = self.uncore.stats();
        let dram_before = self.uncore.dram_stats();
        let cycles = self.run_until_retired(self.cfg.measure_instructions);
        let core_after = self.cores[0].stats();
        let uncore_after = self.uncore.stats();
        let dram_after = self.uncore.dram_stats();
        SimResult {
            benchmark: self.benchmark.clone(),
            config: self.cfg.label(),
            instructions: core_after.retired - core_before.retired,
            cycles,
            core: diff_core(core_before, core_after),
            uncore: diff_uncore(uncore_before, uncore_after),
            dram: diff_dram(dram_before, dram_after),
            l2_site: self.uncore.prefetch_telemetry(CoreId(0)),
            l3_site: self.uncore.l3_prefetch_telemetry(),
            adapt: self.adapt.as_ref().map(|a| a.telemetry.clone()),
            obs: self.take_obs_report(),
        }
    }
}

fn diff_core(a: CoreStats, b: CoreStats) -> CoreStats {
    CoreStats {
        retired: b.retired - a.retired,
        branches: b.branches - a.branches,
        mispredicts: b.mispredicts - a.mispredicts,
        loads: b.loads - a.loads,
        stores: b.stores - a.stores,
        dl1_hits: b.dl1_hits - a.dl1_hits,
        dl1_misses: b.dl1_misses - a.dl1_misses,
        il1_misses: b.il1_misses - a.il1_misses,
        l1_prefetches: b.l1_prefetches - a.l1_prefetches,
        l1_prefetch_tlb_drops: b.l1_prefetch_tlb_drops - a.l1_prefetch_tlb_drops,
    }
}

fn diff_uncore(a: UncoreStats, b: UncoreStats) -> UncoreStats {
    UncoreStats {
        l2_accesses: b.l2_accesses - a.l2_accesses,
        l2_hits: b.l2_hits - a.l2_hits,
        l2_prefetched_hits: b.l2_prefetched_hits - a.l2_prefetched_hits,
        l2_misses: b.l2_misses - a.l2_misses,
        l2_fill_merges: b.l2_fill_merges - a.l2_fill_merges,
        l2_prefetches_queued: b.l2_prefetches_queued - a.l2_prefetches_queued,
        l2_prefetches_issued: b.l2_prefetches_issued - a.l2_prefetches_issued,
        l2_prefetches_cancelled: b.l2_prefetches_cancelled - a.l2_prefetches_cancelled,
        l2_prefetches_redundant: b.l2_prefetches_redundant - a.l2_prefetches_redundant,
        l2_prefetch_fills: b.l2_prefetch_fills - a.l2_prefetch_fills,
        l3_accesses: b.l3_accesses - a.l3_accesses,
        l3_hits: b.l3_hits - a.l3_hits,
        l3_misses: b.l3_misses - a.l3_misses,
        l3_fill_merges: b.l3_fill_merges - a.l3_fill_merges,
        l3_prefetches_queued: b.l3_prefetches_queued - a.l3_prefetches_queued,
        l3_prefetches_issued: b.l3_prefetches_issued - a.l3_prefetches_issued,
        l3_prefetches_cancelled: b.l3_prefetches_cancelled - a.l3_prefetches_cancelled,
        l3_prefetches_redundant: b.l3_prefetches_redundant - a.l3_prefetches_redundant,
        l3_prefetch_fills: b.l3_prefetch_fills - a.l3_prefetch_fills,
        dram_writebacks: b.dram_writebacks - a.dram_writebacks,
    }
}

fn diff_dram(a: DramStats, b: DramStats) -> DramStats {
    DramStats {
        reads: b.reads - a.reads,
        writes: b.writes - a.writes,
        row_hits: b.row_hits - a.row_hits,
        row_opens: b.row_opens - a.row_opens,
        row_conflicts: b.row_conflicts - a.row_conflicts,
        urgent_reads: b.urgent_reads - a.urgent_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::prefetchers;
    use bosim_types::PageSize;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            warmup_instructions: 20_000,
            measure_instructions: 60_000,
            ..Default::default()
        }
    }

    #[test]
    fn sequential_benchmark_runs_and_reports() {
        let spec = suite::benchmark("462").expect("exists");
        let mut sys = System::new(&quick_cfg(), &spec);
        let res = sys.run();
        assert_eq!(res.instructions, 60_000);
        assert!(res.ipc() > 0.05, "IPC {}", res.ipc());
        assert!(res.ipc() < 6.0);
        assert!(res.dram.reads > 0, "{:?}", res.dram);
    }

    #[test]
    fn compute_benchmark_has_high_ipc_and_low_dram() {
        let spec = suite::benchmark("444").expect("exists");
        let cfg = SimConfig {
            warmup_instructions: 80_000,
            measure_instructions: 60_000,
            ..Default::default()
        };
        let mut sys = System::new(&cfg, &spec);
        let res = sys.run();
        assert!(res.ipc() > 1.0, "compute-bound IPC {}", res.ipc());
        // Once the resident working set is warm, DRAM traffic is low.
        assert!(
            res.dram_accesses_per_ki() < 8.0,
            "resident benchmark dram/ki {}",
            res.dram_accesses_per_ki()
        );
    }

    #[test]
    fn bo_beats_no_prefetch_on_streams() {
        let spec = suite::benchmark("462").expect("exists");
        let base = quick_cfg();

        let mut none = System::new(&base.clone().with_prefetcher(prefetchers::none()), &spec);
        let ipc_none = none.run().ipc();

        let mut bo = System::new(&base.with_prefetcher(prefetchers::bo_default()), &spec);
        let ipc_bo = bo.run().ipc();
        assert!(ipc_bo > ipc_none * 1.05, "BO {ipc_bo} vs none {ipc_none}");
    }

    #[test]
    fn file_backed_benchmark_runs_with_sampling() {
        use bosim_trace::{capture, champsim, ExternalSpec, SampleSpec, TraceFormat};
        let path = std::env::temp_dir().join(format!(
            "bosim_system_external_{}.champsim",
            std::process::id()
        ));
        let uops = capture(&mut suite::benchmark("462").unwrap().build(), 20_000);
        std::fs::write(&path, champsim::encode(&uops)).unwrap();
        let bench =
            BenchmarkSpec::from_trace(ExternalSpec::new(&path, TraceFormat::ChampSim).named("462"));
        let cfg = SimConfig {
            warmup_instructions: 5_000,
            measure_instructions: 20_000,
            sample: Some(SampleSpec::periodic(2_000, 1_000, 4_000)),
            ..Default::default()
        };
        let mut sys = System::new(&cfg, &bench);
        let res = sys.run();
        assert_eq!(res.benchmark, "462");
        assert_eq!(res.instructions, 20_000);
        assert!(res.ipc() > 0.01);
        // L2 classification is synchronous: plain hits + prefetched
        // hits + misses always account for every access.
        assert_eq!(
            res.uncore.l2_hits + res.uncore.l2_prefetched_hits + res.uncore.l2_misses,
            res.uncore.l2_accesses
        );
        res.check_site_invariants().expect("telemetry invariants");
        // L3 classification is deferred to the servicing arrival, so
        // its accounting closes exactly only at quiescence.
        let drained = sys.drain_uncore();
        assert_eq!(drained.l3_hits + drained.l3_misses, drained.l3_accesses);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "cannot load benchmark")]
    fn missing_trace_file_panics_with_the_name() {
        use bosim_trace::{ExternalSpec, TraceFormat};
        let bench = BenchmarkSpec::from_trace(
            ExternalSpec::new("/nonexistent/gone.champsim", TraceFormat::ChampSim).named("gone"),
        );
        let _ = System::new(&SimConfig::default(), &bench);
    }

    #[test]
    fn two_core_config_runs() {
        let spec = suite::benchmark("470").expect("exists");
        let cfg = SimConfig {
            active_cores: 2,
            page: PageSize::M4,
            warmup_instructions: 10_000,
            measure_instructions: 30_000,
            ..Default::default()
        };
        let mut sys = System::new(&cfg, &spec);
        let res = sys.run();
        assert!(res.ipc() > 0.01);
    }
}
