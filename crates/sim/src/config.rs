//! Simulation configurations (Table 1 and §5 variants).
//!
//! The Table 1 machine is fixed: its cache geometries, latencies and
//! prefetch-queue depth are the constants below (the core's live in
//! [`bosim_cpu`]). [`SimConfig`] carries only what the paper's
//! evaluation, the CLI, the benchmark or a test varies. Build one as a
//! struct literal over [`SimConfig::default`] or from
//! [`SimConfig::baseline`], then [`validate`](SimConfig::validate) it:
//!
//! ```
//! use bosim::{prefetchers, SimConfig};
//! use bosim_types::PageSize;
//!
//! let cfg = SimConfig::baseline(PageSize::M4, 2).with_prefetcher(prefetchers::bo_default());
//! cfg.validate().expect("valid configuration");
//! assert_eq!(cfg.label(), "4MB/2-core/BO");
//! ```

use crate::spec::{prefetchers, site_mismatch_reason, PrefetcherSpec};
use best_offset::PrefetchSite;
use bosim_adapt::PolicySpec;
use bosim_cache::policy::PolicyKind;
use bosim_obs::ObsConfig;
use bosim_trace::SampleSpec;
use bosim_types::PageSize;
use std::fmt;

/// Most cores a [`System`](crate::System) can simulate. The paper's
/// evaluation (§5) uses up to four active cores; the uncore model itself
/// sizes every per-core structure dynamically, so the only hard bound is
/// the [`CoreId`](bosim_types::CoreId) encoding (a `u8`).
pub const MAX_CORES: usize = 256;

/// Private L2 capacity in bytes (Table 1: 512KB).
pub const L2_SIZE: u64 = 512 << 10;
/// L2 associativity (Table 1: 8 ways).
pub const L2_WAYS: usize = 8;
/// L2 lookup latency, cycles (Table 1: 11).
pub const L2_LATENCY: u64 = 11;
/// Shared L3 capacity in bytes (Table 1: 8MB).
pub const L3_SIZE: u64 = 8 << 20;
/// L3 associativity (Table 1: 16 ways).
pub const L3_WAYS: usize = 16;
/// L3 lookup latency, cycles (Table 1: 21).
pub const L3_LATENCY: u64 = 21;
/// Prefetch-queue entries at the L2 site (§5.4: 8) and, with the same
/// depth, at the L3 site.
pub const PREFETCH_QUEUE: usize = 8;
/// Fill-queue entries of each private L2 (Table 1: 16).
pub const L2_FILL_QUEUE: usize = 16;
/// Fill-queue entries of the shared L3 (Table 1: 32).
pub const L3_FILL_QUEUE: usize = 32;

/// One full-system simulation configuration.
///
/// `Default` is the paper's baseline (Table 1): 4KB pages, one active
/// core, the stride prefetcher at the L1D site, L2 next-line
/// prefetching, no L3 prefetcher, 5P L3 replacement. Variants are
/// struct literals over the default (or [`SimConfig::baseline`]);
/// [`validate`](Self::validate) checks the parameters the hardware
/// model assumes.
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
    pub l1_prefetcher: Option<PrefetcherSpec>,
    /// The L2 prefetcher under evaluation.
    pub l2_prefetcher: PrefetcherSpec,
    /// The shared L3 site's prefetcher (`None` = no L3 prefetching, the
    /// paper's machine).
    pub l3_prefetcher: Option<PrefetcherSpec>,
    /// L3 replacement policy (baseline: 5P; Figure 3 uses LRU/DRRIP).
    pub l3_policy: PolicyKind,
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
    /// Length in cycles of the system's one epoch clock (default
    /// 50 000). At every boundary the system distils each core's
    /// counter deltas into a [`bosim_obs::EpochFeedback`]; adaptive
    /// control ([`adapt`](Self::adapt)) and the observability epoch
    /// series ([`ObsConfig::events`]) both read those records. Inert
    /// when neither is on.
    pub epoch_cycles: u64,
    /// Adaptive prefetch control: when set, the configured policy (one
    /// [`bosim_adapt::TunePolicy`] instance per core) reads its core's
    /// [`bosim_obs::EpochFeedback`] at every epoch boundary and may
    /// reconfigure the core's prefetchers. `None` (the default)
    /// reproduces the paper's static configurations.
    pub adapt: Option<PolicySpec>,
    /// Trace sampling applied to core 0's µop stream (warm-up skip +
    /// periodic measurement windows, see
    /// [`SampleSpec`]). Intended for long external traces; the
    /// thrasher streams on cores 1.. are never sampled. The default,
    /// a pass-through plan, replays the stream untouched.
    pub sample: SampleSpec,
    /// Observability: cycle-domain event tracing with core 0's epoch
    /// records, and host-side self-profiling (see [`ObsConfig`]). The
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
            warmup_instructions: default_warmup(),
            measure_instructions: default_instructions(),
            seed: 0xB05EED,
            fast_forward: true,
            epoch_cycles: 50_000,
            adapt: None,
            sample: SampleSpec::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl SimConfig {
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
    pub fn with_prefetcher(mut self, p: PrefetcherSpec) -> Self {
        self.l2_prefetcher = p;
        self
    }

    /// Returns a copy with `p` (or nothing) at `site`. The L2 site
    /// cannot be emptied — pass [`prefetchers::none`] there instead.
    pub fn with_site_prefetcher(mut self, site: PrefetchSite, p: Option<PrefetcherSpec>) -> Self {
        match site {
            PrefetchSite::L1D => self.l1_prefetcher = p,
            PrefetchSite::L2 => self.l2_prefetcher = p.unwrap_or_else(prefetchers::none),
            PrefetchSite::L3 => self.l3_prefetcher = p,
        }
        self
    }

    /// Returns a copy with a `+`-separated stack of site-qualified
    /// prefetcher names installed (`"l1:stride+l2:bo+l3:next-line"`,
    /// see [`PrefetcherSpec::parse_site`]; a single name is a one-site
    /// stack, a bare name means the L2 site, and `"l1:none"` or
    /// `"l3:none"` empties that site). Sites not named keep theirs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownPrefetcher`] naming the stack when a
    /// component is empty, repeats a site, or does not resolve (unknown
    /// name or site, or a site/spec mismatch such as `l3:stride`).
    pub fn with_stack(mut self, stack: &str) -> Result<Self, ConfigError> {
        let error = |reason: String| ConfigError::UnknownPrefetcher {
            name: stack.to_string(),
            reason,
        };
        let mut named = Vec::new();
        for part in stack.split('+').map(str::trim) {
            if part.is_empty() {
                return Err(error("empty component".to_string()));
            }
            let (site, spec) =
                PrefetcherSpec::parse_site(part).map_err(|e| error(e.to_string()))?;
            if named.contains(&site) {
                return Err(error(format!("names site {site} more than once")));
            }
            named.push(site);
            self = self.with_site_prefetcher(site, spec);
        }
        Ok(self)
    }

    /// The prefetcher occupying `site`, if any.
    pub fn site_prefetcher(&self, site: PrefetchSite) -> Option<&PrefetcherSpec> {
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
            || !matches!(self.l1_prefetcher, None | Some(PrefetcherSpec::Stride))
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
            Some(p) => format!("+{}", p.name()),
            None => String::new(),
        };
        let policy = if self.sample.is_passthrough() {
            policy
        } else {
            format!("{policy}@{}", self.sample)
        };
        let prefetchers = if self.multi_level() {
            let site =
                |p: Option<&PrefetcherSpec>| p.map(|p| p.name()).unwrap_or_else(|| "none".into());
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
    /// model assumes (also run by [`System::new`](crate::System::new) and
    /// by the experiment harness before any job starts).
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
        if self.measure_instructions == 0 {
            return Err(ConfigError::ZeroInstructions);
        }
        if self.epoch_cycles == 0 {
            return Err(ConfigError::ZeroEpochCycles);
        }
        // Per-site prefetcher-spec validation: a spec at a site it does
        // not attach to (stride at L2, BO at L1D) and invalid algorithm
        // parameters (a BO degree of 3, an empty offset list) are
        // reported here instead of aborting mid-sweep when the
        // prefetcher is built.
        for site in PrefetchSite::ALL {
            let Some(spec) = self.site_prefetcher(site) else {
                continue;
            };
            if !spec.sites().contains(&site) {
                return Err(ConfigError::InvalidPrefetcher {
                    name: spec.name(),
                    reason: site_mismatch_reason(site, spec.sites()),
                });
            }
            if let Err(reason) = spec.validate() {
                return Err(ConfigError::InvalidPrefetcher {
                    name: spec.name(),
                    reason,
                });
            }
        }
        if let Err(reason) = self.sample.validate() {
            return Err(ConfigError::InvalidSample { reason });
        }
        if let Some(PolicySpec::Tournament(candidates)) = &self.adapt {
            // A tournament needs at least two prefetchers to switch
            // between. Every one of them must resolve *now* and attach
            // to the L2 site (switch directives target the per-core L2
            // engines) — a sweep must neither die at the first epoch
            // boundary of some arm nor silently keep the old prefetcher
            // because the switch is rejected at runtime.
            if candidates.len() < 2 {
                return Err(ConfigError::InvalidAdapt {
                    reason: format!(
                        "a tournament needs at least 2 candidates, got {}",
                        candidates.len()
                    ),
                });
            }
            for name in candidates {
                let reason = match PrefetcherSpec::parse(name) {
                    Err(e) => e.to_string(),
                    Ok(spec) if !spec.sites().contains(&PrefetchSite::L2) => {
                        site_mismatch_reason(PrefetchSite::L2, spec.sites())
                    }
                    Ok(_) => continue,
                };
                return Err(ConfigError::UnknownPrefetcher {
                    name: name.clone(),
                    reason,
                });
            }
        }
        Ok(())
    }
}

/// A constraint violated by a [`SimConfig`] (returned by
/// [`SimConfig::validate`] and [`SimConfig::with_stack`]).
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
    /// The measured window was zero instructions long.
    ZeroInstructions,
    /// The epoch clock was configured with zero-cycle epochs.
    ZeroEpochCycles,
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
    /// A prefetcher name (an adaptive policy's candidate, or a stack
    /// given to [`SimConfig::with_stack`]) that does not resolve (see
    /// [`PrefetcherSpec::parse`]).
    UnknownPrefetcher {
        /// The unresolvable name.
        name: String,
        /// The resolution error.
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
            ConfigError::ZeroInstructions => {
                write!(f, "measure_instructions must be at least 1")
            }
            ConfigError::ZeroEpochCycles => write!(f, "epoch_cycles must be at least 1"),
            ConfigError::InvalidPrefetcher { name, reason } => {
                write!(f, "prefetcher {name:?} rejected its parameters: {reason}")
            }
            ConfigError::InvalidAdapt { reason } => {
                write!(f, "adaptive-control configuration invalid: {reason}")
            }
            ConfigError::InvalidSample { reason } => {
                write!(f, "trace-sampling plan invalid: {reason}")
            }
            ConfigError::UnknownPrefetcher { name, reason } => {
                write!(f, "unresolvable prefetcher {name:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

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
        assert_eq!((L2_SIZE, L2_WAYS, L2_LATENCY), (512 << 10, 8, 11));
        assert_eq!((L3_SIZE, L3_WAYS, L3_LATENCY), (8 << 20, 16, 21));
        assert_eq!((PREFETCH_QUEUE, L2_FILL_QUEUE, L3_FILL_QUEUE), (8, 16, 32));
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
        let c = SimConfig {
            l3_prefetcher: Some(prefetchers::next_line()),
            ..SimConfig::default().with_prefetcher(prefetchers::bo_default())
        };
        assert!(c.validate().is_ok());
        assert_eq!(c.label(), "4KB/1-core/l1:stride+l2:BO+l3:next-line");
        let no_l1 = SimConfig {
            l1_prefetcher: None,
            l3_prefetcher: Some(prefetchers::fixed(4)),
            ..Default::default()
        };
        assert!(no_l1.validate().is_ok());
        assert_eq!(no_l1.label(), "4KB/1-core/l1:none+l2:next-line+l3:offset-4");
    }

    #[test]
    fn builder_site_names_resolve_through_the_registry() {
        // A single name is a one-site stack; a bare name means the L2 site.
        let c = SimConfig::default().with_stack("sbp").expect("bare name");
        assert_eq!(c.l2_prefetcher.name(), "SBP");
        // Site errors carry the resolution's diagnosis.
        let err = SimConfig::default().with_stack("l3:stride").unwrap_err();
        match &err {
            ConfigError::UnknownPrefetcher { name, reason } => {
                assert_eq!(name, "l3:stride");
                assert!(reason.contains("does not attach to site l3"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(SimConfig::default().with_stack("l9:bo").is_err());
    }

    #[test]
    fn stack_components_resolve_through_the_registry() {
        let cfg = SimConfig::default()
            .with_stack("l1:stride+l2:bo+l3:next-line")
            .unwrap();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.label(), "4KB/1-core/l1:stride+l2:BO+l3:next-line");
        // A bad component fails the stack with the component's diagnosis.
        let err = SimConfig::default()
            .with_stack("l2:bo+l3:stride")
            .unwrap_err();
        assert!(err.to_string().contains("does not attach"), "{err}");
        for stack in ["l2:bo++l3:bo", "l2:bo+", ""] {
            let err = SimConfig::default().with_stack(stack).unwrap_err();
            assert!(
                err.to_string().contains("empty component"),
                "{stack:?}: {err}"
            );
        }
    }

    #[test]
    fn stacks_name_each_site_once() {
        // A bare name means l2, so each of these names l2 twice.
        for stack in ["l2:bo+l2:sbp", "bo+l2:sbp", "l1:stride+bo+sbp"] {
            let err = SimConfig::default().with_stack(stack).unwrap_err();
            assert!(err.to_string().contains("site l2"), "{stack}: {err}");
        }
        // `none` empties the l1 and l3 sites, as their labels print them.
        let cfg = SimConfig::default()
            .with_stack("l1:none+l2:bo+l3:next-line")
            .unwrap();
        assert_eq!(cfg.label(), "4KB/1-core/l1:none+l2:BO+l3:next-line");
        let cfg = SimConfig::default().with_stack("l3:none").unwrap();
        assert_eq!(cfg.label(), SimConfig::default().label());
    }

    #[test]
    fn validation_rejects_site_spec_mismatches() {
        // Stride cannot occupy the L2 site...
        let err = SimConfig::default()
            .with_prefetcher(prefetchers::stride_default())
            .validate()
            .unwrap_err();
        match &err {
            ConfigError::InvalidPrefetcher { name, reason } => {
                assert_eq!(name, "stride");
                assert!(reason.contains("does not attach to site l2"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // ...nor the L3 site; BO cannot occupy the L1D site.
        let at = |site, p| SimConfig::default().with_site_prefetcher(site, Some(p));
        assert!(at(PrefetchSite::L3, prefetchers::stride_default())
            .validate()
            .is_err());
        assert!(at(PrefetchSite::L1D, prefetchers::bo_default())
            .validate()
            .is_err());
        // Spec-parameter validation applies per site: a bad BO config at
        // the L3 site is caught like one at the L2 site.
        let bad = best_offset::BoConfig {
            degree: 3,
            ..Default::default()
        };
        assert!(matches!(
            at(PrefetchSite::L3, prefetchers::bo(bad))
                .validate()
                .unwrap_err(),
            ConfigError::InvalidPrefetcher { .. }
        ));
    }

    #[test]
    fn adaptive_candidates_must_attach_to_the_l2_site() {
        use bosim_adapt::policies;
        // "stride" resolves but is L1D-only: a switch to it would be
        // silently rejected at every epoch boundary, so validation must
        // fail loudly up front.
        let cfg = SimConfig {
            adapt: Some(policies::tournament(["bo", "stride"])),
            ..Default::default()
        };
        match &cfg.validate().unwrap_err() {
            ConfigError::UnknownPrefetcher { name, reason } => {
                assert_eq!(name, "stride");
                assert!(reason.contains("does not attach to site l2"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn builder_round_trips_table1() {
        // The single-core 4KB baseline is the default machine.
        let c = SimConfig::baseline(PageSize::K4, 1);
        assert!(c.validate().is_ok());
        assert_eq!(c.label(), SimConfig::default().label());
    }

    #[test]
    fn builder_rejects_zero_cores() {
        assert_eq!(
            SimConfig::baseline(PageSize::K4, 0).validate().unwrap_err(),
            ConfigError::ZeroCores
        );
    }

    #[test]
    fn builder_rejects_too_many_cores() {
        // The bound is the CoreId encoding, not the paper's four-core
        // evaluation grid: 256 cores validate, 257 do not.
        let cores = |n| SimConfig::baseline(PageSize::K4, n).validate();
        assert!(cores(MAX_CORES).is_ok());
        assert_eq!(
            cores(MAX_CORES + 1).unwrap_err(),
            ConfigError::TooManyCores {
                requested: MAX_CORES + 1
            }
        );
    }

    #[test]
    fn builder_rejects_invalid_bo_parameters() {
        // The old behaviour was a panic inside BestOffsetPrefetcher::new
        // on the first worker thread of a sweep; now validation reports
        // the violated constraint up front.
        let bad = best_offset::BoConfig {
            degree: 3,
            ..Default::default()
        };
        let err = SimConfig::default()
            .with_prefetcher(prefetchers::bo(bad))
            .validate()
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
        let err = SimConfig::default()
            .with_prefetcher(prefetchers::fixed(0))
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ConfigError::InvalidPrefetcher { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn builder_validates_adaptive_configs() {
        use bosim_adapt::policies;
        // A healthy adaptive config validates.
        let cfg = SimConfig {
            adapt: Some(PolicySpec::DegreeGovernor),
            ..SimConfig::default().with_prefetcher(prefetchers::bo_default())
        };
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.label(), "4KB/1-core/BO+degree-governor");
        // Zero-length epochs are rejected.
        let zero_epochs = SimConfig {
            epoch_cycles: 0,
            ..cfg
        };
        assert_eq!(
            zero_epochs.validate().unwrap_err(),
            ConfigError::ZeroEpochCycles
        );
        // Tournament candidates must resolve, with the resolution's
        // diagnosis passed through.
        let cfg = SimConfig {
            adapt: Some(policies::tournament(["bo", "offset-0"])),
            ..Default::default()
        };
        match &cfg.validate().unwrap_err() {
            ConfigError::UnknownPrefetcher { name, reason } => {
                assert_eq!(name, "offset-0");
                assert!(reason.contains("offset 0 is not a prefetch"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn builder_validates_sampling_plans() {
        use bosim_trace::SampleSpec;
        let sampled = |sample| SimConfig {
            sample,
            ..Default::default()
        };
        let cfg = sampled(SampleSpec::periodic(10_000, 1_000, 5_000));
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.label(), "4KB/1-core/next-line@skip10k+1k/5k");
        // A pass-through plan leaves the label untouched.
        let plain = sampled(SampleSpec::default());
        assert!(plain.validate().is_ok());
        assert_eq!(plain.label(), "4KB/1-core/next-line");
        // window > interval is rejected with the plan's diagnosis.
        let err = sampled(SampleSpec::periodic(0, 10, 5))
            .validate()
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
    fn builder_rejects_an_empty_window() {
        let no_window = SimConfig {
            measure_instructions: 0,
            ..Default::default()
        };
        assert_eq!(
            no_window.validate().unwrap_err(),
            ConfigError::ZeroInstructions
        );
    }
}
