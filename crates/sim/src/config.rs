//! Simulation configurations (Table 1 and §5 variants).
//!
//! [`SimConfig`] describes one full machine. Construct it either from the
//! paper's defaults ([`SimConfig::default`], [`SimConfig::baseline`]) or
//! through the validating [`SimConfig::builder`]:
//!
//! ```
//! use bosim::{prefetchers, SimConfig};
//! use bosim_types::PageSize;
//!
//! let cfg = SimConfig::builder()
//!     .page(PageSize::M4)
//!     .cores(2)
//!     .prefetcher(prefetchers::bo_default())
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(cfg.label(), "4MB/2-core/BO");
//! ```

use crate::spec::{prefetchers, PrefetcherHandle};
use best_offset::PrefetchSite;
use bosim_adapt::AdaptConfig;
use bosim_cache::policy::PolicyKind;
use bosim_cpu::CoreConfig;
use bosim_obs::ObsConfig;
use bosim_trace::SampleSpec;
use bosim_types::PageSize;
use std::fmt;

/// Most cores a [`System`](crate::System) can simulate. The paper's
/// evaluation (§5) uses up to four active cores; the uncore model itself
/// sizes every per-core structure dynamically, so the only hard bound is
/// the [`CoreId`](bosim_types::CoreId) encoding (a `u8`).
pub const MAX_CORES: usize = 256;

/// One full-system simulation configuration.
///
/// `Default` is the paper's baseline (Table 1): 4KB pages, one active
/// core, the stride prefetcher at the L1D site, L2 next-line
/// prefetching, no L3 prefetcher, 5P L3 replacement. Field access is
/// public for introspection; prefer [`SimConfig::builder`] for
/// constructing variants, since it validates the parameters the
/// hardware model assumes.
///
/// Each level of the hierarchy is an independent prefetch *site*
/// (see [`PrefetchSite`]): `l1_prefetcher` (per-core, virtual-address,
/// `None` in the Figure 4 ablation), `l2_prefetcher` (per-core, the
/// paper's subject) and `l3_prefetcher` (one engine on the shared L3,
/// `None` on the paper's machine).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Memory page size (4KB or 4MB).
    pub page: PageSize,
    /// Active cores: core 0 runs the benchmark, the rest run the §5.1
    /// cache-thrashing micro-benchmark.
    pub active_cores: usize,
    /// The L1D-site prefetcher of every core (default: the §5.5 stride
    /// prefetcher; `None` leaves the site empty, as Figure 4 does).
    pub l1_prefetcher: Option<PrefetcherHandle>,
    /// The L2 prefetcher under evaluation.
    pub l2_prefetcher: PrefetcherHandle,
    /// The shared L3 site's prefetcher (`None` = no L3 prefetching, the
    /// paper's machine).
    pub l3_prefetcher: Option<PrefetcherHandle>,
    /// L3 replacement policy (baseline: 5P; Figure 3 uses LRU/DRRIP).
    pub l3_policy: PolicyKind,
    /// Core parameters (Table 1).
    pub core: CoreConfig,
    /// L2 capacity in bytes (512KB) and associativity (8).
    pub l2_size: u64,
    /// L2 ways.
    pub l2_ways: usize,
    /// L2 lookup latency, cycles (11).
    pub l2_latency: u64,
    /// L2 fill queue entries (16).
    pub l2_fill_queue: usize,
    /// L2 prefetch queue entries (8).
    pub prefetch_queue: usize,
    /// L3 capacity in bytes (8MB) and associativity (16).
    pub l3_size: u64,
    /// L3 ways.
    pub l3_ways: usize,
    /// L3 lookup latency, cycles (21).
    pub l3_latency: u64,
    /// L3 fill queue entries (32).
    pub l3_fill_queue: usize,
    /// Warm-up instructions on core 0 before measurement.
    pub warmup_instructions: u64,
    /// Measured instructions on core 0.
    pub measure_instructions: u64,
    /// Master seed (translation hashes, policy randomisation).
    pub seed: u64,
    /// Drive the run with the event wheel: each core and the uncore
    /// tick only on cycles where they may have work, and whole-system
    /// idle stretches are skipped. Cycle-exact — results are
    /// bit-identical with the every-cycle loop, which `false` selects
    /// and the golden-stats suite uses as its oracle — so it defaults to
    /// on.
    pub fast_forward: bool,
    /// Adaptive prefetch control: when set, the system slices the run
    /// into epochs, distils the uncore's usefulness counters into
    /// [`bosim_adapt::EpochFeedback`], and lets the configured
    /// [`bosim_adapt::TunePolicy`] reconfigure each core's L2 prefetcher
    /// at every boundary. `None` (the default) reproduces the paper's
    /// static configurations.
    pub adapt: Option<AdaptConfig>,
    /// Trace sampling applied to core 0's µop stream (warm-up skip +
    /// periodic measurement windows, see
    /// [`SampleSpec`]). Intended for long external traces; the
    /// thrasher streams on cores 1.. are never sampled. `None` (the
    /// default) replays the stream untouched.
    pub sample: Option<SampleSpec>,
    /// Observability: cycle-domain event tracing, streamed epoch metric
    /// snapshots and host-side self-profiling (see [`ObsConfig`]). The
    /// default is everything off, which costs nothing on the hot path;
    /// results are bit-identical with tracing on or off (the golden-stats
    /// suite pins both arms).
    pub obs: ObsConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            page: PageSize::K4,
            active_cores: 1,
            l1_prefetcher: Some(prefetchers::stride_default()),
            l2_prefetcher: prefetchers::next_line(),
            l3_prefetcher: None,
            l3_policy: PolicyKind::FiveP,
            core: CoreConfig::default(),
            l2_size: 512 << 10,
            l2_ways: 8,
            l2_latency: 11,
            l2_fill_queue: 16,
            prefetch_queue: 8,
            l3_size: 8 << 20,
            l3_ways: 16,
            l3_latency: 21,
            l3_fill_queue: 32,
            warmup_instructions: default_warmup(),
            measure_instructions: default_instructions(),
            seed: 0xB05EED,
            fast_forward: true,
            adapt: None,
            sample: None,
            obs: ObsConfig::default(),
        }
    }
}

impl SimConfig {
    /// Starts a validating builder from the Table 1 defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Baseline for a page size and core count (the paper's six
    /// baselines, §5).
    pub fn baseline(page: PageSize, active_cores: usize) -> Self {
        SimConfig {
            page,
            active_cores,
            ..Default::default()
        }
    }

    /// Returns a copy with a different L2 prefetcher.
    pub fn with_prefetcher(mut self, p: impl Into<PrefetcherHandle>) -> Self {
        self.l2_prefetcher = p.into();
        self
    }

    /// Returns a copy with `p` (or nothing) at `site`. The L2 site
    /// cannot be emptied — pass [`prefetchers::none`] there instead.
    pub fn with_site_prefetcher(mut self, site: PrefetchSite, p: Option<PrefetcherHandle>) -> Self {
        match site {
            PrefetchSite::L1D => self.l1_prefetcher = p,
            PrefetchSite::L2 => self.l2_prefetcher = p.unwrap_or_else(prefetchers::none),
            PrefetchSite::L3 => self.l3_prefetcher = p,
        }
        self
    }

    /// The prefetcher occupying `site`, if any.
    pub fn site_prefetcher(&self, site: PrefetchSite) -> Option<&PrefetcherHandle> {
        match site {
            PrefetchSite::L1D => self.l1_prefetcher.as_ref(),
            PrefetchSite::L2 => Some(&self.l2_prefetcher),
            PrefetchSite::L3 => self.l3_prefetcher.as_ref(),
        }
    }

    /// True when the configuration departs from the classic single-level
    /// shape (stride-or-empty L1, no L3 prefetcher) and the label should
    /// spell out every site.
    fn multi_level(&self) -> bool {
        self.l3_prefetcher.is_some()
            || self
                .l1_prefetcher
                .as_ref()
                .is_some_and(|h| h.name() != "stride")
    }

    /// Short configuration label, e.g. `"4KB/2-core/BO"`; adaptive
    /// configurations append the policy (`"4KB/2-core/BO+bw-throttle"`),
    /// sampled ones the plan (`"4KB/1-core/BO@skip10k"`).
    ///
    /// Multi-level configurations spell out every site with
    /// site-qualified names, e.g.
    /// `"4KB/1-core/l1:stride+l2:BO+l3:next-line"`. Classic single-level
    /// shapes (stride or nothing at L1, no L3 prefetcher) keep the
    /// historical L2-only label, so pre-refactor report rows are
    /// unchanged.
    pub fn label(&self) -> String {
        let policy = match &self.adapt {
            Some(a) => format!("+{}", a.policy.name()),
            None => String::new(),
        };
        let policy = match &self.sample {
            Some(s) if !s.is_passthrough() => format!("{policy}@{s}"),
            _ => policy,
        };
        let prefetchers = if self.multi_level() {
            let site =
                |h: Option<&PrefetcherHandle>| h.map(|h| h.name()).unwrap_or_else(|| "none".into());
            format!(
                "l1:{}+l2:{}+l3:{}",
                site(self.l1_prefetcher.as_ref()),
                self.l2_prefetcher.name(),
                site(self.l3_prefetcher.as_ref()),
            )
        } else {
            self.l2_prefetcher.name()
        };
        format!(
            "{}/{}-core/{}{}",
            self.page.label(),
            self.active_cores,
            prefetchers,
            policy,
        )
    }

    /// Validates the configuration against the constraints the hardware
    /// model assumes (also run by [`SimConfigBuilder::build`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.active_cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.active_cores > MAX_CORES {
            return Err(ConfigError::TooManyCores {
                requested: self.active_cores,
            });
        }
        for (cache, size, ways) in [
            ("IL1", self.core.il1_size, self.core.il1_ways),
            ("DL1", self.core.dl1_size, self.core.dl1_ways),
            ("L2", self.l2_size, self.l2_ways),
            ("L3", self.l3_size, self.l3_ways),
        ] {
            if ways == 0 {
                return Err(ConfigError::ZeroWays { cache });
            }
            let sets = size / (64 * ways as u64);
            if sets == 0 || !sets.is_power_of_two() {
                return Err(ConfigError::BadSetCount { cache, sets });
            }
        }
        for (queue, len) in [
            ("L2 fill queue", self.l2_fill_queue),
            ("L2 prefetch queue", self.prefetch_queue),
            ("L3 fill queue", self.l3_fill_queue),
        ] {
            if len == 0 {
                return Err(ConfigError::EmptyQueue { queue });
            }
        }
        if self.measure_instructions == 0 {
            return Err(ConfigError::ZeroInstructions);
        }
        // Per-site prefetcher-spec validation: a spec at a site it does
        // not attach to (stride at L2, BO at L1D) and invalid algorithm
        // parameters (a BO degree of 3, an empty offset list) are
        // reported here instead of aborting mid-sweep when the
        // prefetcher is built.
        for site in PrefetchSite::ALL {
            let Some(handle) = self.site_prefetcher(site) else {
                continue;
            };
            if !handle.supports_site(site) {
                return Err(ConfigError::InvalidPrefetcher {
                    name: handle.name(),
                    reason: crate::spec::site_mismatch_reason(site, handle.supported_sites()),
                });
            }
            if let Err(reason) = handle.spec().validate(self) {
                return Err(ConfigError::InvalidPrefetcher {
                    name: handle.name(),
                    reason,
                });
            }
        }
        if let Some(sample) = &self.sample {
            if let Err(reason) = sample.validate() {
                return Err(ConfigError::InvalidSample { reason });
            }
        }
        if let Err(reason) = self.obs.validate() {
            return Err(ConfigError::InvalidObs { reason });
        }
        if let Some(adapt) = &self.adapt {
            if let Err(reason) = adapt.validate() {
                return Err(ConfigError::InvalidAdapt { reason });
            }
            // Every prefetcher the policy may switch to must resolve in
            // the registry *now* and attach to the L2 site (switch
            // directives target the per-core L2 engines) — a sweep must
            // neither die at the first epoch boundary of some arm nor
            // silently keep the old prefetcher because the switch is
            // rejected at runtime.
            for name in adapt.policy.spec().prefetcher_names() {
                match crate::registry::registry().resolve(&name) {
                    Err(e) => {
                        return Err(ConfigError::UnknownPrefetcher {
                            name,
                            reason: e.to_string(),
                        });
                    }
                    Ok(handle) if !handle.supports_site(PrefetchSite::L2) => {
                        return Err(ConfigError::UnknownPrefetcher {
                            name,
                            reason: crate::spec::site_mismatch_reason(
                                PrefetchSite::L2,
                                handle.supported_sites(),
                            ),
                        });
                    }
                    Ok(_) => {}
                }
            }
        }
        Ok(())
    }
}

/// A constraint violated by a [`SimConfig`] (returned by
/// [`SimConfigBuilder::build`] and [`SimConfig::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `active_cores` was 0 — core 0 must run the benchmark.
    ZeroCores,
    /// `active_cores` exceeded [`MAX_CORES`].
    TooManyCores {
        /// The requested core count.
        requested: usize,
    },
    /// A cache was configured with zero ways.
    ZeroWays {
        /// Which cache ("IL1", "DL1", "L2" or "L3").
        cache: &'static str,
    },
    /// A cache's derived set count was zero or not a power of two.
    BadSetCount {
        /// Which cache ("IL1", "DL1", "L2" or "L3").
        cache: &'static str,
        /// The derived set count (`size / (64 * ways)`).
        sets: u64,
    },
    /// A queue was configured with zero entries.
    EmptyQueue {
        /// Which queue.
        queue: &'static str,
    },
    /// The measured window was zero instructions long.
    ZeroInstructions,
    /// The L2 prefetcher spec rejected its parameters (e.g. a BO degree
    /// outside 1..=2 or an empty offset list).
    InvalidPrefetcher {
        /// The prefetcher's label.
        name: String,
        /// The violated constraint, as reported by the spec.
        reason: String,
    },
    /// The adaptive-control configuration was invalid.
    InvalidAdapt {
        /// The violated constraint.
        reason: String,
    },
    /// The trace-sampling plan was invalid (see
    /// [`SampleSpec::validate`]).
    InvalidSample {
        /// The violated constraint.
        reason: String,
    },
    /// The observability configuration was invalid (see
    /// [`ObsConfig::validate`]).
    InvalidObs {
        /// The violated constraint.
        reason: &'static str,
    },
    /// A prefetcher name (an adaptive policy's candidate, or a
    /// site-qualified name given to [`SimConfigBuilder::site`]) the
    /// registry cannot resolve.
    UnknownPrefetcher {
        /// The unresolvable name.
        name: String,
        /// The registry's resolution error.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCores => write!(f, "active_cores must be at least 1"),
            ConfigError::TooManyCores { requested } => {
                write!(
                    f,
                    "active_cores {requested} exceeds the maximum of {MAX_CORES}"
                )
            }
            ConfigError::ZeroWays { cache } => write!(f, "{cache} needs at least one way"),
            ConfigError::BadSetCount { cache, sets } => write!(
                f,
                "{cache} set count {sets} invalid: size / (64 * ways) must be a power of two >= 1"
            ),
            ConfigError::EmptyQueue { queue } => write!(f, "{queue} needs at least one entry"),
            ConfigError::ZeroInstructions => {
                write!(f, "measure_instructions must be at least 1")
            }
            ConfigError::InvalidPrefetcher { name, reason } => {
                write!(f, "prefetcher {name:?} rejected its parameters: {reason}")
            }
            ConfigError::InvalidAdapt { reason } => {
                write!(f, "adaptive-control configuration invalid: {reason}")
            }
            ConfigError::InvalidSample { reason } => {
                write!(f, "trace-sampling plan invalid: {reason}")
            }
            ConfigError::InvalidObs { reason } => {
                write!(f, "observability configuration invalid: {reason}")
            }
            ConfigError::UnknownPrefetcher { name, reason } => {
                write!(f, "unresolvable prefetcher {name:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`SimConfig`] (see [`SimConfig::builder`]).
///
/// Starts from the Table 1 defaults; every setter overrides one
/// parameter, and [`build`](Self::build) validates the result.
#[derive(Debug, Clone, Default)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Memory page size.
    pub fn page(mut self, page: PageSize) -> Self {
        self.cfg.page = page;
        self
    }

    /// Active core count (1..=[`MAX_CORES`]).
    pub fn cores(mut self, active_cores: usize) -> Self {
        self.cfg.active_cores = active_cores;
        self
    }

    /// The L2 prefetcher under evaluation.
    pub fn prefetcher(mut self, p: impl Into<PrefetcherHandle>) -> Self {
        self.cfg.l2_prefetcher = p.into();
        self
    }

    /// Sets the L1D-site prefetcher (default: the §5.5 stride
    /// prefetcher). See also [`no_l1_prefetcher`](Self::no_l1_prefetcher)
    /// for the Figure 4 ablation.
    pub fn l1_prefetcher(mut self, p: impl Into<PrefetcherHandle>) -> Self {
        self.cfg.l1_prefetcher = Some(p.into());
        self
    }

    /// Empties the L1D prefetch site (the Figure 4 ablation).
    pub fn no_l1_prefetcher(mut self) -> Self {
        self.cfg.l1_prefetcher = None;
        self
    }

    /// Sets the shared L3 site's prefetcher (default: none).
    pub fn l3_prefetcher(mut self, p: impl Into<PrefetcherHandle>) -> Self {
        self.cfg.l3_prefetcher = Some(p.into());
        self
    }

    /// Resolves a site-qualified registry name (`"l1:stride"`,
    /// `"l2:bo"`, `"l3:next-line"`; a bare name means the L2 site) and
    /// installs the prefetcher at that site.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownPrefetcher`] carrying the
    /// registry's diagnosis (unknown name, unknown site, or a site/spec
    /// mismatch such as `l3:stride`).
    pub fn site(mut self, name: &str) -> Result<Self, ConfigError> {
        match crate::registry::registry().resolve_site(name) {
            Ok((site, handle)) => {
                self.cfg = self.cfg.with_site_prefetcher(site, Some(handle));
                Ok(self)
            }
            Err(e) => Err(ConfigError::UnknownPrefetcher {
                name: name.to_string(),
                reason: e.to_string(),
            }),
        }
    }

    /// L3 replacement policy.
    pub fn l3_policy(mut self, policy: PolicyKind) -> Self {
        self.cfg.l3_policy = policy;
        self
    }

    /// Core parameters.
    pub fn core(mut self, core: CoreConfig) -> Self {
        self.cfg.core = core;
        self
    }

    /// L2 geometry: capacity in bytes and associativity.
    pub fn l2_geometry(mut self, size_bytes: u64, ways: usize) -> Self {
        self.cfg.l2_size = size_bytes;
        self.cfg.l2_ways = ways;
        self
    }

    /// L2 lookup latency in cycles.
    pub fn l2_latency(mut self, cycles: u64) -> Self {
        self.cfg.l2_latency = cycles;
        self
    }

    /// L2 fill-queue entries.
    pub fn l2_fill_queue(mut self, entries: usize) -> Self {
        self.cfg.l2_fill_queue = entries;
        self
    }

    /// L2 prefetch-queue entries.
    pub fn prefetch_queue(mut self, entries: usize) -> Self {
        self.cfg.prefetch_queue = entries;
        self
    }

    /// L3 geometry: capacity in bytes and associativity.
    pub fn l3_geometry(mut self, size_bytes: u64, ways: usize) -> Self {
        self.cfg.l3_size = size_bytes;
        self.cfg.l3_ways = ways;
        self
    }

    /// L3 lookup latency in cycles.
    pub fn l3_latency(mut self, cycles: u64) -> Self {
        self.cfg.l3_latency = cycles;
        self
    }

    /// L3 fill-queue entries.
    pub fn l3_fill_queue(mut self, entries: usize) -> Self {
        self.cfg.l3_fill_queue = entries;
        self
    }

    /// Warm-up instructions before the measured window.
    pub fn warmup(mut self, instructions: u64) -> Self {
        self.cfg.warmup_instructions = instructions;
        self
    }

    /// Measured instructions on core 0.
    pub fn instructions(mut self, instructions: u64) -> Self {
        self.cfg.measure_instructions = instructions;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Enables or disables the event-wheel loop (on by default; see
    /// [`SimConfig::fast_forward`]).
    pub fn fast_forward(mut self, enabled: bool) -> Self {
        self.cfg.fast_forward = enabled;
        self
    }

    /// Enables adaptive prefetch control with the given epoch/policy
    /// configuration (see [`SimConfig::adapt`]).
    pub fn adapt(mut self, adapt: AdaptConfig) -> Self {
        self.cfg.adapt = Some(adapt);
        self
    }

    /// Applies a trace-sampling plan to core 0's µop stream (see
    /// [`SimConfig::sample`]): warm-up skip plus optional periodic
    /// measurement windows, for replaying long external traces.
    pub fn sample(mut self, sample: SampleSpec) -> Self {
        self.cfg.sample = Some(sample);
        self
    }

    /// Sets the observability configuration (event tracing, epoch metric
    /// streams, host-side profiling — see [`SimConfig::obs`]).
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.cfg.obs = obs;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Default measured instructions (overridable via `BOSIM_INSTRUCTIONS`).
///
/// The paper simulates 1G instructions per benchmark; the default here is
/// scaled down so the full figure set completes on a laptop. All harness
/// binaries accept the environment override.
pub fn default_instructions() -> u64 {
    std::env::var("BOSIM_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// Default warm-up instructions (overridable via `BOSIM_WARMUP`).
pub fn default_warmup() -> u64 {
    std::env::var("BOSIM_WARMUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_table1_baseline() {
        let c = SimConfig::default();
        assert_eq!(c.l2_size, 512 << 10);
        assert_eq!(c.l2_ways, 8);
        assert_eq!(c.l2_latency, 11);
        assert_eq!(c.l2_fill_queue, 16);
        assert_eq!(c.l3_size, 8 << 20);
        assert_eq!(c.l3_ways, 16);
        assert_eq!(c.l3_latency, 21);
        assert_eq!(c.l3_fill_queue, 32);
        assert_eq!(c.prefetch_queue, 8);
        assert_eq!(c.l2_prefetcher.name(), "next-line");
        assert_eq!(c.l3_policy, PolicyKind::FiveP);
        assert_eq!(
            c.l1_prefetcher.as_ref().map(|h| h.name()).as_deref(),
            Some("stride")
        );
        assert!(c.l3_prefetcher.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn labels() {
        let c = SimConfig::baseline(PageSize::M4, 2).with_prefetcher(prefetchers::fixed(5));
        assert_eq!(c.label(), "4MB/2-core/offset-5");
    }

    #[test]
    fn single_level_labels_do_not_mention_sites() {
        // The classic shapes — default stride L1, and the Figure 4
        // ablation with the site empty — keep their historical labels.
        let c = SimConfig::default().with_prefetcher(prefetchers::bo_default());
        assert_eq!(c.label(), "4KB/1-core/BO");
        let mut ablated = c.clone();
        ablated.l1_prefetcher = None;
        assert_eq!(ablated.label(), "4KB/1-core/BO");
    }

    #[test]
    fn multi_level_labels_spell_out_every_site() {
        let c = SimConfig::builder()
            .prefetcher(prefetchers::bo_default())
            .l3_prefetcher(prefetchers::next_line())
            .build()
            .expect("valid multi-level config");
        assert_eq!(c.label(), "4KB/1-core/l1:stride+l2:BO+l3:next-line");
        let no_l1 = SimConfig::builder()
            .no_l1_prefetcher()
            .l3_prefetcher(prefetchers::fixed(4))
            .build()
            .expect("valid");
        assert_eq!(no_l1.label(), "4KB/1-core/l1:none+l2:next-line+l3:offset-4");
    }

    #[test]
    fn builder_site_names_resolve_through_the_registry() {
        let c = SimConfig::builder()
            .site("l1:stride")
            .expect("l1 site")
            .site("l2:bo")
            .expect("l2 site")
            .site("l3:next-line")
            .expect("l3 site")
            .build()
            .expect("valid");
        assert_eq!(c.label(), "4KB/1-core/l1:stride+l2:BO+l3:next-line");
        // Bare names mean the L2 site.
        let c = SimConfig::builder().site("sbp").expect("bare name").cfg;
        assert_eq!(c.l2_prefetcher.name(), "SBP");
        // Site errors carry the registry's diagnosis.
        let err = SimConfig::builder().site("l3:stride").unwrap_err();
        match &err {
            ConfigError::UnknownPrefetcher { name, reason } => {
                assert_eq!(name, "l3:stride");
                assert!(reason.contains("does not attach to site l3"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(SimConfig::builder().site("l9:bo").is_err());
    }

    #[test]
    fn validation_rejects_site_spec_mismatches() {
        // Stride cannot occupy the L2 site...
        let err = SimConfig::builder()
            .prefetcher(prefetchers::stride_default())
            .build()
            .unwrap_err();
        match &err {
            ConfigError::InvalidPrefetcher { name, reason } => {
                assert_eq!(name, "stride");
                assert!(reason.contains("does not attach to site l2"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // ...nor the L3 site; BO cannot occupy the L1D site.
        assert!(SimConfig::builder()
            .l3_prefetcher(prefetchers::stride_default())
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .l1_prefetcher(prefetchers::bo_default())
            .build()
            .is_err());
        // Spec-parameter validation applies per site: a bad BO config at
        // the L3 site is caught like one at the L2 site.
        let bad = best_offset::BoConfig {
            degree: 3,
            ..Default::default()
        };
        assert!(matches!(
            SimConfig::builder()
                .l3_prefetcher(prefetchers::bo(bad))
                .build()
                .unwrap_err(),
            ConfigError::InvalidPrefetcher { .. }
        ));
    }

    #[test]
    fn adaptive_candidates_must_attach_to_the_l2_site() {
        use bosim_adapt::{policies, AdaptConfig};
        // "stride" resolves in the registry but is L1D-only: a switch
        // to it would be silently rejected at every epoch boundary, so
        // validation must fail loudly up front.
        let err = SimConfig::builder()
            .adapt(AdaptConfig::new(policies::tournament(["bo", "stride"])))
            .build()
            .unwrap_err();
        match &err {
            ConfigError::UnknownPrefetcher { name, reason } => {
                assert_eq!(name, "stride");
                assert!(reason.contains("does not attach to site l2"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn builder_round_trips_table1() {
        let c = SimConfig::builder().build().expect("defaults are valid");
        assert_eq!(c.label(), SimConfig::default().label());
    }

    #[test]
    fn builder_rejects_zero_cores() {
        assert_eq!(
            SimConfig::builder().cores(0).build().unwrap_err(),
            ConfigError::ZeroCores
        );
    }

    #[test]
    fn builder_rejects_too_many_cores() {
        // The bound is the CoreId encoding, not the paper's four-core
        // evaluation grid: 256 cores validate, 257 do not.
        assert!(SimConfig::builder().cores(MAX_CORES).build().is_ok());
        assert_eq!(
            SimConfig::builder()
                .cores(MAX_CORES + 1)
                .build()
                .unwrap_err(),
            ConfigError::TooManyCores {
                requested: MAX_CORES + 1
            }
        );
    }

    #[test]
    fn builder_rejects_zero_way_caches() {
        assert_eq!(
            SimConfig::builder()
                .l2_geometry(512 << 10, 0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroWays { cache: "L2" }
        );
        assert_eq!(
            SimConfig::builder()
                .l3_geometry(8 << 20, 0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroWays { cache: "L3" }
        );
    }

    #[test]
    fn builder_rejects_zero_way_l1_caches() {
        let core = CoreConfig {
            dl1_ways: 0,
            ..Default::default()
        };
        assert_eq!(
            SimConfig::builder().core(core).build().unwrap_err(),
            ConfigError::ZeroWays { cache: "DL1" }
        );
    }

    #[test]
    fn builder_rejects_non_power_of_two_sets() {
        let err = SimConfig::builder()
            .l2_geometry(3 * 64 * 8, 8)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadSetCount {
                cache: "L2",
                sets: 3
            }
        );
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn builder_rejects_invalid_bo_parameters() {
        // The old behaviour was a panic inside BestOffsetPrefetcher::new
        // on the first worker thread of a sweep; now the builder reports
        // the violated constraint up front.
        let bad = best_offset::BoConfig {
            degree: 3,
            ..Default::default()
        };
        let err = SimConfig::builder()
            .prefetcher(prefetchers::bo(bad))
            .build()
            .unwrap_err();
        match &err {
            ConfigError::InvalidPrefetcher { name, reason } => {
                assert_eq!(name, "BO");
                assert!(reason.contains("degree 3"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("rejected its parameters"));
    }

    #[test]
    fn builder_rejects_zero_fixed_offset() {
        let err = SimConfig::builder()
            .prefetcher(crate::spec::FixedOffsetSpec { offset: 0 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ConfigError::InvalidPrefetcher { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn builder_validates_adaptive_configs() {
        use bosim_adapt::{policies, AdaptConfig};
        // A healthy adaptive config builds.
        let cfg = SimConfig::builder()
            .prefetcher(prefetchers::bo_default())
            .adapt(AdaptConfig::new(policies::degree_governor()))
            .build()
            .expect("valid adaptive config");
        assert_eq!(cfg.label(), "4KB/1-core/BO+degree-governor");
        // Zero-length epochs are rejected.
        let err = SimConfig::builder()
            .adapt(AdaptConfig::new(policies::degree_governor()).epoch_cycles(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidAdapt { .. }), "{err:?}");
        // Tournament candidates must resolve in the registry, with the
        // resolver's diagnosis passed through.
        let err = SimConfig::builder()
            .adapt(AdaptConfig::new(policies::tournament(["bo", "offset-0"])))
            .build()
            .unwrap_err();
        match &err {
            ConfigError::UnknownPrefetcher { name, reason } => {
                assert_eq!(name, "offset-0");
                assert!(reason.contains("offset 0 is not a prefetch"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adaptive_prefetcher_names_require_an_adapt_config() {
        use bosim_adapt::{policies, AdaptConfig};
        let handle = crate::registry::registry()
            .lookup("adaptive-bo")
            .expect("family registered");
        let err = SimConfig::builder()
            .prefetcher(handle.clone())
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("requires adaptive control"),
            "{err}"
        );
        assert!(SimConfig::builder()
            .prefetcher(handle)
            .adapt(AdaptConfig::new(policies::bandwidth_throttle()))
            .build()
            .is_ok());
    }

    #[test]
    fn builder_validates_sampling_plans() {
        use bosim_trace::SampleSpec;
        let cfg = SimConfig::builder()
            .sample(SampleSpec::periodic(10_000, 1_000, 5_000))
            .build()
            .expect("valid sampled config");
        assert_eq!(cfg.label(), "4KB/1-core/next-line@skip10k+1k/5k");
        // A pass-through plan leaves the label untouched.
        let plain = SimConfig::builder()
            .sample(SampleSpec::default())
            .build()
            .expect("valid");
        assert_eq!(plain.label(), "4KB/1-core/next-line");
        // window > interval is rejected with the plan's diagnosis.
        let err = SimConfig::builder()
            .sample(SampleSpec::periodic(0, 10, 5))
            .build()
            .unwrap_err();
        match &err {
            ConfigError::InvalidSample { reason } => {
                assert!(reason.contains("exceeds interval"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("sampling plan invalid"));
    }

    #[test]
    fn builder_validates_obs_configs() {
        let cfg = SimConfig::builder()
            .obs(ObsConfig::all())
            .build()
            .expect("valid obs config");
        assert!(cfg.obs.enabled());
        // Event tracing with a zero-capacity buffer is rejected.
        let bad = ObsConfig {
            events: true,
            max_events: 0,
            ..Default::default()
        };
        let err = SimConfig::builder().obs(bad).build().unwrap_err();
        assert!(matches!(err, ConfigError::InvalidObs { .. }), "{err:?}");
        assert!(err.to_string().contains("observability"));
    }

    #[test]
    fn builder_rejects_empty_queues_and_window() {
        assert!(matches!(
            SimConfig::builder().l2_fill_queue(0).build().unwrap_err(),
            ConfigError::EmptyQueue { .. }
        ));
        assert_eq!(
            SimConfig::builder().instructions(0).build().unwrap_err(),
            ConfigError::ZeroInstructions
        );
    }
}
