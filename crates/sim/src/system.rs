//! Full-system assembly: cores + uncore, and the measurement loop.

use crate::config::SimConfig;
use crate::spec::PrefetcherSpec;
use crate::uncore::{Uncore, UncoreStats};
use bosim_adapt::{AdaptTelemetry, DirectiveRecord, EpochRecord, TunePolicy};
use bosim_baselines::StridePrefetcher;
use bosim_cpu::{Core, CoreStats, UncoreRequest};
use bosim_dram::{DramStats, CHANNELS, LINE_TRANSFER_CYCLES};
use bosim_obs::{
    EpochFeedback, Event, EventKind, HostProfiler, ObsReport, ObsSite, Phase, PrefetchTelemetry,
    ProfileSlot, PROFILE_SAMPLE_SHIFT,
};
use bosim_trace::{suite, BenchmarkSpec};
use bosim_types::{CoreId, Cycle, LineAddr, ReqClass};

/// The result of one measured simulation run.
///
/// `PartialEq` compares every counter bit-for-bit — the golden-stats
/// invariance test relies on this to prove the skipping run loop
/// exactly reproduces the every-cycle oracle.
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
    /// Uncore statistics over the measured window. The L2 counters sum
    /// over every core's private L2 (not core 0's alone); the L3 and
    /// DRAM-writeback counters cover the shared structures.
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
    /// Observability report — the cycle-domain event log, core 0's epoch
    /// records and the host profile — when any [`SimConfig::obs`]
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

    /// Checks [`PrefetchTelemetry::check_resolution`] at core 0's L2
    /// site and the shared L3 site: every prefetch-filled line resolves
    /// at most once. (Other cores' L2 telemetry is not part of a
    /// `SimResult`; the L1 site has no fill-resolution counters — its
    /// issue counts live in [`CoreStats`].)
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_site_invariants(&self) -> Result<(), String> {
        for (site, t) in [("l2", &self.l2_site), ("l3", &self.l3_site)] {
            t.check_resolution()
                .map_err(|e| format!("{site} site: {e}"))?;
        }
        Ok(())
    }
}

/// Exact counts of the work a [`System`] did: how often each source
/// ticked and how much its queues were searched. Simulated results fix
/// them on any host, so they pin a saving that end-to-end timings are
/// too noisy to show. They differ between the skipping loop and the
/// every-cycle oracle by design, so they are kept out of [`SimResult`]
/// (its `PartialEq` and the `Debug` text the digests hash).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Cycles on which any source ticked ([`System::steps_executed`]).
    pub steps: u64,
    /// Core ticks, over all cores.
    pub core_ticks: u64,
    /// Uncore ticks, [`System::drain_uncore`]'s included.
    pub uncore_ticks: u64,
    /// DRAM channel scheduling steps.
    pub dram_steps: u64,
    /// ... of which changed nothing.
    pub dram_idle_steps: u64,
    /// L3 stall-queue retries that ran the full L3 arrival.
    pub l3_retries: u64,
    /// L3 stall-queue entries visited in searches for the stuck
    /// requests of a line.
    pub unstick_visits: u64,
}

/// The live epoch clock of a running system: one boundary sequence and
/// the previous boundary's counter snapshots, from which every core's
/// [`EpochFeedback`] is built once per boundary. Adaptive policies read
/// each core's record; core 0's is also the observability series.
#[derive(Debug)]
struct EpochRuntime {
    /// End of the epoch currently accumulating.
    next_boundary: Cycle,
    epoch: u64,
    prev_l2: Vec<PrefetchTelemetry>,
    prev_core: Vec<CoreStats>,
    prev_dram: DramStats,
    prev_l3: PrefetchTelemetry,
    /// One policy instance per core (policies are per-core state
    /// machines; bandwidth feedback is shared, decisions are not).
    /// Empty when adaptive control is off.
    policies: Vec<Box<dyn TunePolicy>>,
    /// Core 0's adaptation log (`None` = adaptive control off).
    telemetry: Option<AdaptTelemetry>,
    /// Core 0's records for the observability report (`None` = event
    /// tracing off).
    series: Option<Vec<EpochFeedback>>,
}

/// A complete simulated machine: up to [`MAX_CORES`](crate::MAX_CORES)
/// cores, private L2s, shared L3 and dual-channel DRAM.
#[derive(Debug)]
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    uncore: Uncore,
    cycle: Cycle,
    /// Cycles actually stepped (≤ `cycle`; the rest were fast-forwarded).
    steps: u64,
    /// Core ticks, over all cores.
    core_ticks: u64,
    benchmark: String,
    req_buf: Vec<UncoreRequest>,
    fill_buf: Vec<(CoreId, LineAddr)>,
    /// The epoch clock (`None` = neither adaptive control nor event
    /// tracing is on).
    epochs: Option<EpochRuntime>,
    /// The uncore's wake-up: the earliest cycle at which it may have
    /// work. A wake-up is a promise of idleness *before* it, never of
    /// work *at* it — an early wake-up is a harmless no-op tick, but a
    /// source must never have work strictly before its wake-up.
    uncore_wake: Cycle,
    /// Each core's wake-up, under the same contract.
    core_wake: Vec<Cycle>,
    /// Host-side wall-clock attribution (inert unless
    /// [`bosim_obs::ObsConfig::profile`] is set).
    prof: HostProfiler,
    /// Scratch for draining core-side L1 observability events.
    core_obs_buf: Vec<EventKind>,
}

impl System {
    /// Builds a system running `bench` on core 0 — a synthetic spec or
    /// a file-backed one ([`BenchmarkSpec::from_trace`]). Cores
    /// 1..active run the §5.1 cache-thrashing micro-benchmark. Unless
    /// [`SimConfig::sample`] is a pass-through plan, core 0's µop stream
    /// is wrapped in it (warm-up skip + periodic windows); the thrasher
    /// streams are never sampled.
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
        #[expect(
            clippy::panic,
            reason = "documented Panics contract; run_jobs converts to RunnerError"
        )]
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let mut prof = if cfg.obs.profile {
            HostProfiler::new(PROFILE_SAMPLE_SHIFT)
        } else {
            HostProfiler::disabled()
        };
        let decode_timer = prof.start(Phase::Decode);
        let mut cores = Vec::new();
        for i in 0..cfg.active_cores {
            let trace: Box<dyn bosim_trace::TraceSource> = if i == 0 {
                let src = match bench.source() {
                    Ok(src) => src,
                    #[expect(
                        clippy::panic,
                        reason = "documented Panics contract; run_jobs converts to RunnerError"
                    )]
                    Err(e) => panic!("cannot load benchmark {}: {e}", bench.name),
                };
                if cfg.sample.is_passthrough() {
                    src
                } else {
                    Box::new(bosim_trace::SampledSource::new(src, cfg.sample))
                }
            } else {
                let mut spec = suite::thrasher();
                spec.seed ^= 0x7417 * i as u64;
                Box::new(spec.build())
            };
            // Every core gets its own L1D-site instance built from the
            // spec (validation guaranteed only stride sits there).
            let l1 = match &cfg.l1_prefetcher {
                Some(PrefetcherSpec::Stride) => Some(StridePrefetcher::default()),
                _ => None,
            };
            cores.push(Core::new(
                CoreId(i as u8),
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
        let epochs = (cfg.adapt.is_some() || cfg.obs.events).then(|| EpochRuntime {
            next_boundary: cfg.epoch_cycles,
            epoch: 0,
            prev_l2: vec![PrefetchTelemetry::default(); cfg.active_cores],
            prev_core: vec![CoreStats::default(); cfg.active_cores],
            prev_dram: DramStats::default(),
            prev_l3: PrefetchTelemetry::default(),
            policies: cfg
                .adapt
                .iter()
                .flat_map(|p| (0..cfg.active_cores).map(|_| p.build()))
                .collect(),
            telemetry: cfg.adapt.as_ref().map(|p| AdaptTelemetry {
                policy: p.name(),
                epoch_cycles: cfg.epoch_cycles,
                ..Default::default()
            }),
            series: cfg.obs.events.then(Vec::new),
        });
        System {
            uncore: Uncore::new(cfg),
            uncore_wake: 0,
            core_wake: vec![0; cfg.active_cores],
            cores,
            cycle: 0,
            steps: 0,
            core_ticks: 0,
            benchmark: bench.name.clone(),
            req_buf: Vec::with_capacity(64),
            fill_buf: Vec::with_capacity(64),
            epochs,
            prof,
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

    /// The work done so far, warm-up included.
    pub fn work(&self) -> WorkCounts {
        WorkCounts {
            steps: self.steps,
            core_ticks: self.core_ticks,
            ..self.uncore.work()
        }
    }

    /// Core-0 statistics so far.
    pub fn core0_stats(&self) -> CoreStats {
        self.cores[0].stats()
    }

    /// Advances the system by one cycle: ticks the uncore if its wake-up
    /// is due and hands its fills to their cores, then ticks every core
    /// whose wake-up is due (a fill delivered this cycle makes its core
    /// due). Each ticked source re-arms its wake-up from its own bound.
    /// The (source, cycle) pairs left out are provably idle, so ticking
    /// them would be a no-op: the oracle, which wakes every source every
    /// cycle, steps through the same states.
    fn step(&mut self) {
        let now = self.cycle;
        self.steps += 1;
        if self.uncore_wake <= now {
            let timer = self.prof.start(Phase::UncoreTick);
            self.uncore.tick(now, &mut self.fill_buf, &mut self.prof);
            self.prof.stop(timer);
            self.uncore_wake = self.uncore.next_ready_after(now);
        }
        let timer = self.prof.start(Phase::CoreTick);
        self.deliver_fills(now);
        for c in 0..self.cores.len() {
            if self.core_wake[c] > now {
                continue;
            }
            self.cores[c].tick(now, &mut self.req_buf);
            self.core_ticks += 1;
            self.dispatch_requests(CoreId(c as u8), now);
            self.core_wake[c] = self.cores[c].next_work_cycle(now + 1);
        }
        self.prof.stop(timer);
        if self.uncore.events_enabled() {
            self.drain_core_obs(now);
        }
        self.cycle += 1;
    }

    /// Hands the fills the uncore delivered this cycle to their cores and
    /// empties `fill_buf`. A core that takes a fill is due this very
    /// cycle: the fill can unblock its dispatch (including a head store
    /// parked on a full MSHR).
    fn deliver_fills(&mut self, now: Cycle) {
        for i in 0..self.fill_buf.len() {
            let (core, line) = self.fill_buf[i];
            self.core_wake[core.index()] = now;
            self.cores[core.index()].fill(line, now, &mut self.req_buf);
            self.dispatch_requests(core, now);
        }
        self.fill_buf.clear();
    }

    /// Sends the requests `core` just emitted into `req_buf` to the
    /// uncore and empties the buffer. Dispatch changes uncore state
    /// outside its tick, so the bound the uncore armed at its last tick
    /// no longer covers the new work: its wake-up moves forward to the
    /// next cycle (where the demand-priority flag a request sets also
    /// ages out).
    fn dispatch_requests(&mut self, core: CoreId, now: Cycle) {
        if self.req_buf.is_empty() {
            return;
        }
        self.uncore_wake = self.uncore_wake.min(now + 1);
        for r in 0..self.req_buf.len() {
            match self.req_buf[r] {
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
        self.req_buf.clear();
    }

    /// Forwards the cycle's core-side L1 observability events (stride
    /// prefetch issues, TLB drops) into the shared event log, stamped
    /// with the cycle and owning core.
    // Out of line, as with `process_epochs`: it runs only with event
    // tracing on, and inlined into the run loop it slows every run.
    #[inline(never)]
    fn drain_core_obs(&mut self, now: Cycle) {
        for c in 0..self.cores.len() {
            self.cores[c].drain_obs(&mut self.core_obs_buf);
            for kind in self.core_obs_buf.drain(..) {
                self.uncore.record_event(Event {
                    cycle: now,
                    core: c as u32,
                    site: ObsSite::L1d,
                    kind,
                });
            }
        }
    }

    /// Adaptive-control telemetry so far (`None` for static runs).
    pub fn adapt_telemetry(&self) -> Option<&AdaptTelemetry> {
        self.epochs.as_ref().and_then(|e| e.telemetry.as_ref())
    }

    /// Processes every epoch boundary at or before the current cycle:
    /// snapshot counters into each core's [`EpochFeedback`], hand it to
    /// the core's policy and apply the directives to the core's L2
    /// prefetcher (adaptive runs), then append core 0's record to the
    /// observability series (event tracing).
    /// Per boundary, directive events are recorded before `epoch_end`.
    ///
    /// Called at the top of the run loop, *before* the tick of the cycle
    /// it fires on. This keeps the every-cycle oracle and the skipping
    /// loop bit-identical: a skip only jumps provably idle cycles, so
    /// when a jump lands past a boundary the counters are exactly what
    /// they were at the boundary and no prefetcher invocation can have
    /// happened in between — the policy sees the same feedback and
    /// reconfigures the same prefetcher state either way.
    ///
    /// Returns `true` when policies ran at one boundary or more — the
    /// run loop then wakes every source, because an applied directive
    /// can create work the sources' previous bounds did not account for.
    // Out of line: it runs only with an epoch clock, and the run loop is
    // its one caller; inlined there, it slowed bosim-benchmark's
    // core-bound and memory-bound workloads by about 4% (2-vCPU host).
    #[inline(never)]
    fn process_epochs(&mut self) -> bool {
        let Some(ep) = self.epochs.as_mut() else {
            return false;
        };
        let epoch_cycles = self.cfg.epoch_cycles;
        let mut processed = false;
        while self.cycle >= ep.next_boundary {
            processed = true;
            let boundary = ep.next_boundary;
            let dram = self.uncore.dram_stats();
            let reads = dram.reads - ep.prev_dram.reads;
            let writes = dram.writes - ep.prev_dram.writes;
            // Data-bus occupancy: every CAS moves one line and holds the
            // channel's data bus for tBURST.
            let busy = (reads + writes) * LINE_TRANSFER_CYCLES;
            let capacity = epoch_cycles * CHANNELS as u64;
            let bus_occupancy = busy as f64 / capacity as f64;
            // The L3 site is shared: one machine-wide delta and gauge,
            // seen by every core's record.
            let l3 = self.uncore.l3_prefetch_telemetry();
            let l3_prefetch_resident = self.uncore.l3_prefetched_lines();
            let mut core0 = EpochFeedback::default();
            for c in 0..self.cores.len() {
                let core = CoreId(c as u8);
                let l2 = self.uncore.prefetch_telemetry(core);
                let stats = self.cores[c].stats();
                let prev = ep.prev_core[c];
                let feedback = EpochFeedback {
                    epoch: ep.epoch,
                    start_cycle: boundary - epoch_cycles,
                    cycles: epoch_cycles,
                    instructions: stats.retired - prev.retired,
                    l2: l2 - ep.prev_l2[c],
                    l3: l3 - ep.prev_l3,
                    dram_reads: reads,
                    dram_writes: writes,
                    bus_occupancy,
                    l1_prefetches: stats.l1_prefetches - prev.l1_prefetches,
                    l1_tlb_drops: stats.l1_prefetch_tlb_drops - prev.l1_prefetch_tlb_drops,
                    l3_prefetch_resident,
                };
                ep.prev_l2[c] = l2;
                ep.prev_core[c] = stats;
                if c == 0 {
                    core0 = feedback;
                }
                let (Some(policy), Some(telemetry)) =
                    (ep.policies.get_mut(c), ep.telemetry.as_mut())
                else {
                    continue;
                };
                // Only core 0's record is logged; capture the name of
                // the prefetcher that *produced* the epoch before any
                // directive can switch it.
                let prefetcher = (c == 0).then(|| self.uncore.l2_prefetcher_name(core).to_string());
                let mut directives = Vec::new();
                policy.on_epoch(&feedback, &mut directives);
                let mut records = Vec::with_capacity(directives.len());
                for d in &directives {
                    let applied = self.uncore.reconfigure(core, d);
                    if applied {
                        telemetry.applied += 1;
                    } else {
                        telemetry.rejected += 1;
                    }
                    // Rendered with the site it was applied at.
                    let directive = format!("{}:{d}", ObsSite::L2);
                    if self.uncore.events_enabled() {
                        self.uncore.record_event(Event {
                            cycle: boundary,
                            core: c as u32,
                            site: ObsSite::L2,
                            kind: EventKind::Directive {
                                directive: directive.clone(),
                                applied,
                            },
                        });
                    }
                    records.push(DirectiveRecord { directive, applied });
                }
                if let Some(prefetcher) = prefetcher {
                    telemetry.epochs.push(EpochRecord {
                        feedback,
                        prefetcher,
                        directives: records,
                    });
                }
            }
            ep.prev_dram = dram;
            ep.prev_l3 = l3;
            if let Some(series) = ep.series.as_mut() {
                series.push(core0);
                self.uncore.record_event(Event {
                    cycle: boundary,
                    core: 0,
                    site: ObsSite::Sys,
                    kind: EventKind::EpochEnd { epoch: ep.epoch },
                });
            }
            ep.epoch += 1;
            ep.next_boundary += epoch_cycles;
        }
        processed && !ep.policies.is_empty()
    }

    /// Assembles the observability report of everything simulated so
    /// far: the event log and the epoch series are copied, not taken, so
    /// a later `run()` reports both from simulation start. `None` when
    /// every [`SimConfig::obs`] channel is off.
    fn obs_report(&self) -> Option<ObsReport> {
        if !self.cfg.obs.enabled() {
            return None;
        }
        let (events, dropped_events) = match self.uncore.event_log() {
            Some((events, dropped)) => (events.to_vec(), dropped),
            None => (Vec::new(), 0),
        };
        let epochs = self
            .epochs
            .as_ref()
            .and_then(|e| e.series.clone())
            .unwrap_or_default();
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
    /// Each iteration processes the epoch boundaries due, steps one cycle
    /// and, with [`SimConfig::fast_forward`] on (the default), jumps to
    /// the earliest wake-up of any source. The oracle (`fast_forward`
    /// off) is the same loop waking every source every cycle and never
    /// jumping. Elided ticks and skipped cycles are provable no-ops, so
    /// the simulation stays cycle-exact; only wall-clock time changes.
    fn run_until_retired(&mut self, instructions: u64) -> u64 {
        let start_retired = self.cores[0].retired();
        let target = start_retired + instructions;
        let start_cycle = self.cycle;
        // Safety net: a run that sinks below 0.002 IPC is considered hung
        // (deadlock guard for development; never triggered in practice).
        let cycle_cap = self.cycle + instructions * 500 + 1_000_000;
        // Seed: every source starts due (an early wake-up is always safe).
        self.wake_all();
        while self.cores[0].retired() < target && self.cycle < cycle_cap {
            let reconfigured = self.epochs.is_some() && self.process_epochs();
            if reconfigured || !self.cfg.fast_forward {
                self.wake_all();
            }
            self.step();
            // Never fast-forward once the window boundary is reached: the
            // skip would push `cycle` past the stopping point and shift
            // the next window's start relative to the every-cycle oracle.
            if self.cfg.fast_forward && self.cores[0].retired() < target {
                let timer = self.prof.start(Phase::FastForward);
                let next = self
                    .core_wake
                    .iter()
                    .copied()
                    .fold(self.uncore_wake, Cycle::min);
                self.prof.stop(timer);
                if next > self.cycle {
                    // Cap the jump so a genuine deadlock (next == MAX)
                    // still lands on the cycle-cap diagnostics.
                    self.cycle = next.min(cycle_cap);
                }
            }
        }
        assert!(
            self.cores[0].retired() >= target,
            "{}",
            self.stall_message(
                self.cores[0].retired() - start_retired,
                instructions,
                self.cycle - start_cycle,
            )
        );
        self.cycle - start_cycle
    }

    /// The diagnosis a stalled run reports: its progress, then the state
    /// of every core and of the uncore (fill, prefetch and stalled-request
    /// queues) at the cycle it gave up.
    fn stall_message(&self, retired: u64, instructions: u64, cycles: u64) -> String {
        let mut msg = format!(
            "simulation stalled: {retired} of {instructions} instructions after {cycles} cycles ({})",
            self.benchmark
        );
        for (c, core) in self.cores.iter().enumerate() {
            msg.push_str(&format!("\n  core {c}: {}", core.debug_state()));
        }
        msg.push_str(&format!("\n  uncore: {}", self.uncore.debug_state()));
        msg
    }

    /// Makes every source due at the current cycle. Seeds a run, wakes
    /// every source each cycle of the oracle, and invalidates all bounds
    /// after an adaptive directive reconfigures prefetcher state.
    fn wake_all(&mut self) {
        self.uncore_wake = self.cycle;
        self.core_wake.fill(self.cycle);
    }

    /// Freezes the cores and ticks the uncore until it is fully
    /// quiescent — every fill delivered, every queue and DRAM channel
    /// empty — then returns the cumulative uncore statistics.
    ///
    /// L2 classification is synchronous: `l2_hits + l2_prefetched_hits +
    /// l2_misses == l2_accesses` holds at every cycle. L3 classification
    /// is deferred: a request stalled at the L3 is counted in
    /// `l3_accesses` but classified as a hit or miss only by the arrival
    /// that services it, so `l3_hits + l3_misses <= l3_accesses` with
    /// equality only at quiescence. This is the hook that lets
    /// accounting tests check that equality exactly; call it after the
    /// final [`run`](Self::run) and do not step the system afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the uncore fails to quiesce within a generous cycle
    /// cap (a genuine deadlock).
    pub fn drain_uncore(&mut self) -> UncoreStats {
        let cap = self.cycle + 10_000_000;
        while self.uncore.next_ready_after(self.cycle) != Cycle::MAX {
            assert!(self.cycle < cap, "uncore failed to drain (deadlock?)");
            self.uncore
                .tick(self.cycle, &mut self.fill_buf, &mut self.prof);
            self.deliver_fills(self.cycle);
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
        let core = self.cores[0].stats() - core_before;
        SimResult {
            benchmark: self.benchmark.clone(),
            config: self.cfg.label(),
            instructions: core.retired,
            cycles,
            core,
            uncore: self.uncore.stats() - uncore_before,
            dram: self.uncore.dram_stats() - dram_before,
            l2_site: self.uncore.prefetch_telemetry(CoreId(0)),
            l3_site: self.uncore.l3_prefetch_telemetry(),
            adapt: self.adapt_telemetry().cloned(),
            obs: self.obs_report(),
        }
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
    fn a_second_run_reports_from_simulation_start() {
        use bosim_obs::ObsConfig;
        let spec = suite::benchmark("429").expect("exists");
        let cfg = SimConfig {
            warmup_instructions: 5_000,
            measure_instructions: 20_000,
            epoch_cycles: 5_000,
            obs: ObsConfig {
                events: true,
                profile: false,
            },
            ..Default::default()
        };
        let mut sys = System::new(&cfg, &spec);
        let [first, second] = [sys.run(), sys.run()].map(|r| r.obs.expect("events are on"));
        assert!(!first.epochs.is_empty());
        assert!(second.epochs.len() > first.epochs.len());
        assert_eq!(second.epochs[..first.epochs.len()], first.epochs[..]);
        for report in [&first, &second] {
            assert_eq!(report.dropped_events, 0);
            let epoch_ends = report
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::EpochEnd { .. }))
                .count();
            assert_eq!(epoch_ends, report.epochs.len());
        }
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
            sample: SampleSpec::periodic(2_000, 1_000, 4_000),
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
    fn stall_message_names_every_core_and_the_l3_fill_queue() {
        let spec = suite::benchmark("462").expect("exists");
        let cfg = SimConfig {
            active_cores: 2,
            warmup_instructions: 0,
            measure_instructions: 1_000,
            ..Default::default()
        };
        let mut sys = System::new(&cfg, &spec);
        sys.run();
        let msg = sys.stall_message(10, 1_000, 500);
        assert!(
            msg.starts_with("simulation stalled: 10 of 1000 instructions after 500 cycles"),
            "{msg}"
        );
        for c in 0..2 {
            assert!(msg.contains(&format!("core {c}: rob=")), "{msg}");
        }
        assert!(msg.contains("uncore: l3_fq="), "{msg}");
    }

    /// Small fill queues (L2 4, L3 2) and no L2 prefetcher: the stall
    /// and retry paths run under back-pressure, where the uncore's
    /// bookkeeping matters most, and the skipping loop still matches
    /// the every-cycle oracle bit for bit.
    #[test]
    fn golden_stats_no_prefetch_small_l3_queue() {
        let spec = suite::benchmark("429").expect("exists");
        let run = |fast_forward| {
            let cfg = SimConfig {
                l2_prefetcher: prefetchers::none(),
                warmup_instructions: 5_000,
                measure_instructions: 20_000,
                fast_forward,
                ..Default::default()
            };
            let mut sys = System::new(&cfg, &spec);
            sys.uncore.shrink_fill_queues(4, 2);
            let res = sys.run();
            (res, sys.steps_executed(), sys.cycle())
        };
        let (every_cycle, steps, cycles) = run(false);
        assert!(every_cycle.uncore.l2_accesses > 0, "{every_cycle:?}");
        assert_eq!(steps, cycles, "the oracle skipped cycles");
        let (skipping, steps, cycles) = run(true);
        assert_eq!(every_cycle, skipping, "the skipping loop diverged");
        assert!(
            steps < cycles,
            "the skipping loop stepped all {cycles} cycles"
        );
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
