//! The open prefetcher-construction interface.
//!
//! A [`PrefetcherSpec`] is a small, cloneable *description* of a
//! prefetcher (its algorithm and parameters) that knows how to build the
//! live [`Prefetcher`] state machine for a concrete [`SimConfig`].
//! Because the trait is public and object-safe, new prefetchers plug into
//! the simulator from any crate — nothing in `bosim-sim` needs editing
//! (see [`crate::registry`] for by-name discovery).
//!
//! Specs are *site-aware*: [`supported_sites`](PrefetcherSpec::supported_sites)
//! names the [`PrefetchSite`]s a spec can attach to. Line-address
//! prefetchers (BO, fixed-offset, SBP, AMPM) are site-neutral between L2
//! and L3; the PC-indexed [`StrideSpec`] is L1D-only and builds through
//! [`build_l1`](PrefetcherSpec::build_l1) instead of
//! [`build`](PrefetcherSpec::build). Configuration validation rejects a
//! spec placed at a site it does not support.
//!
//! The prefetchers evaluated in the paper are provided as built-in specs
//! via the [`prefetchers`] constructor functions.

use crate::config::SimConfig;
use best_offset::{
    BestOffsetPrefetcher, BoConfig, L1Prefetcher, NullPrefetcher, PrefetchSite, Prefetcher,
};
use bosim_baselines::{
    AmpmConfig, AmpmPrefetcher, FixedOffsetPrefetcher, SandboxPrefetcher, SbpConfig, StrideConfig,
    StridePrefetcher,
};
use std::fmt;
use std::sync::Arc;

/// The sites a plain line-address prefetcher can attach to (the default
/// of [`PrefetcherSpec::supported_sites`]).
pub const LINE_ADDRESS_SITES: &[PrefetchSite] = &[PrefetchSite::L2, PrefetchSite::L3];

/// The one source of the "does not attach to site ..." diagnostic,
/// shared by registry resolution and configuration validation.
pub(crate) fn site_mismatch_reason(site: PrefetchSite, supported: &[PrefetchSite]) -> String {
    let supported: Vec<&str> = supported.iter().map(|s| s.label()).collect();
    format!(
        "does not attach to site {site} (supports: {})",
        supported.join(", ")
    )
}

/// A description of a prefetcher that can build the live prefetcher for
/// a simulation run.
///
/// Implementations should be cheap value types holding algorithm
/// parameters; [`build`](Self::build) is called once per simulated core
/// (or once for the shared L3 site). The `Debug` representation must
/// include every parameter that affects behaviour — the experiment
/// harness uses it to deduplicate identical simulation jobs.
pub trait PrefetcherSpec: fmt::Debug + Send + Sync {
    /// Label used in configuration labels, reports and registry lookups
    /// (`"BO"`, `"next-line"`, `"offset-5"`, `"stride"`, ...).
    fn name(&self) -> String;

    /// Builds the line-address prefetcher state machine (the L2/L3
    /// sites). For an L1D-only spec this is never reached through a
    /// validated configuration; such specs return a null prefetcher.
    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher>;

    /// The sites this spec can attach to. Defaults to the line-address
    /// sites (L2 and L3); L1D-only specs override this.
    fn supported_sites(&self) -> &'static [PrefetchSite] {
        LINE_ADDRESS_SITES
    }

    /// Builds the L1D-site (virtual-address, PC-indexed) prefetcher.
    /// `None` for specs that do not support the L1D site (the default).
    fn build_l1(&self, cfg: &SimConfig) -> Option<Box<dyn L1Prefetcher>> {
        let _ = cfg;
        None
    }

    /// Validates the spec's parameters against `cfg` *before* any
    /// simulation runs. [`SimConfig::validate`] calls this, so an
    /// invalid spec (a BO degree of 3, an empty offset list) is reported
    /// as a [`crate::ConfigError`] instead of panicking mid-sweep when
    /// [`build`](Self::build) runs on a worker thread.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    fn validate(&self, cfg: &SimConfig) -> Result<(), String> {
        let _ = cfg;
        Ok(())
    }
}

/// A shared, cloneable handle to a [`PrefetcherSpec`].
///
/// This is what [`SimConfig`] stores: configurations stay `Clone` while
/// the spec itself is allocated once.
#[derive(Clone)]
pub struct PrefetcherHandle(Arc<dyn PrefetcherSpec>);

impl PrefetcherHandle {
    /// Wraps a spec into a shareable handle.
    pub fn new(spec: impl PrefetcherSpec + 'static) -> Self {
        PrefetcherHandle(Arc::new(spec))
    }

    /// The spec's report label.
    pub fn name(&self) -> String {
        self.0.name()
    }

    /// Builds the live line-address prefetcher (L2/L3 sites) for `cfg`'s
    /// machine.
    pub fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        self.0.build(cfg)
    }

    /// Builds the live L1D-site prefetcher, when the spec supports that
    /// site.
    pub fn build_l1(&self, cfg: &SimConfig) -> Option<Box<dyn L1Prefetcher>> {
        self.0.build_l1(cfg)
    }

    /// The sites the underlying spec can attach to.
    pub fn supported_sites(&self) -> &'static [PrefetchSite] {
        self.0.supported_sites()
    }

    /// True when the spec can attach to `site`.
    pub fn supports_site(&self, site: PrefetchSite) -> bool {
        self.supported_sites().contains(&site)
    }

    /// Borrows the underlying spec.
    pub fn spec(&self) -> &dyn PrefetcherSpec {
        self.0.as_ref()
    }
}

impl fmt::Debug for PrefetcherHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<S: PrefetcherSpec + 'static> From<S> for PrefetcherHandle {
    fn from(spec: S) -> Self {
        PrefetcherHandle::new(spec)
    }
}

/// No L2 prefetching (the Figure 5 comparison point).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefetchSpec;

impl PrefetcherSpec for NoPrefetchSpec {
    fn name(&self) -> String {
        "no-prefetch".into()
    }

    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(NullPrefetcher::new(cfg.page))
    }
}

/// Next-line prefetching — the paper's default L2 baseline (§5.6).
#[derive(Debug, Clone, Copy, Default)]
pub struct NextLineSpec;

impl PrefetcherSpec for NextLineSpec {
    fn name(&self) -> String {
        "next-line".into()
    }

    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(FixedOffsetPrefetcher::next_line(cfg.page))
    }
}

/// A constant offset `D` (Figures 7 and 8).
#[derive(Debug, Clone, Copy)]
pub struct FixedOffsetSpec {
    /// The constant line offset.
    pub offset: i64,
}

impl PrefetcherSpec for FixedOffsetSpec {
    fn name(&self) -> String {
        format!("offset-{}", self.offset)
    }

    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(FixedOffsetPrefetcher::new(self.offset, cfg.page))
    }

    fn validate(&self, _cfg: &SimConfig) -> Result<(), String> {
        if self.offset == 0 {
            return Err("offset 0 is not a prefetch".into());
        }
        Ok(())
    }
}

/// The Best-Offset prefetcher (§4).
#[derive(Debug, Clone, Default)]
pub struct BoSpec {
    /// Algorithm parameters (Table 2 defaults).
    pub config: BoConfig,
}

impl PrefetcherSpec for BoSpec {
    fn name(&self) -> String {
        "BO".into()
    }

    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(BestOffsetPrefetcher::new(self.config.clone(), cfg.page))
    }

    fn validate(&self, _cfg: &SimConfig) -> Result<(), String> {
        self.config.validate().map_err(|e| e.to_string())
    }
}

/// The Sandbox prefetcher as adapted in §6.3.
#[derive(Debug, Clone, Default)]
pub struct SbpSpec {
    /// Algorithm parameters.
    pub config: SbpConfig,
}

impl PrefetcherSpec for SbpSpec {
    fn name(&self) -> String {
        "SBP".into()
    }

    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(SandboxPrefetcher::new(self.config.clone(), cfg.page))
    }
}

/// AMPM-lite (extension; the DPC-1 winner referenced in §2).
#[derive(Debug, Clone, Default)]
pub struct AmpmSpec {
    /// Algorithm parameters.
    pub config: AmpmConfig,
}

impl PrefetcherSpec for AmpmSpec {
    fn name(&self) -> String {
        "AMPM".into()
    }

    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(AmpmPrefetcher::new(self.config.clone(), cfg.page))
    }
}

/// The PC-indexed DL1 stride prefetcher (§5.5) — the default occupant
/// of the L1D site, and the only built-in spec that attaches there.
///
/// Stride works on virtual addresses and load/store PCs, so it cannot be
/// placed at the line-address L2/L3 sites: `supported_sites` is L1D
/// only, and configuration validation rejects e.g. `l2:stride`.
#[derive(Debug, Clone, Default)]
pub struct StrideSpec {
    /// Algorithm parameters (§5.5 defaults: 64 entries, distance 16).
    pub config: StrideConfig,
}

impl PrefetcherSpec for StrideSpec {
    fn name(&self) -> String {
        "stride".into()
    }

    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        // Unreachable through a validated configuration (the spec is
        // L1D-only); a null prefetcher keeps raw registry users safe.
        Box::new(NullPrefetcher::new(cfg.page))
    }

    fn supported_sites(&self) -> &'static [PrefetchSite] {
        &[PrefetchSite::L1D]
    }

    fn build_l1(&self, _cfg: &SimConfig) -> Option<Box<dyn L1Prefetcher>> {
        Some(Box::new(StridePrefetcher::new(self.config.clone())))
    }

    fn validate(&self, _cfg: &SimConfig) -> Result<(), String> {
        self.config.validate()
    }
}

/// An adaptive alias around another spec: the registry's
/// `adaptive-<name>` family resolves to this wrapper.
///
/// The wrapper builds exactly the inner prefetcher — adaptivity lives in
/// the *system*, configured through [`SimConfig::adapt`] — but its
/// validation insists that an adaptive-control configuration is present,
/// so a run named `adaptive-bo` without a policy fails fast instead of
/// silently running static BO.
#[derive(Debug)]
pub struct AdaptiveSpec {
    /// The wrapped (initial) prefetcher.
    pub inner: PrefetcherHandle,
}

impl PrefetcherSpec for AdaptiveSpec {
    fn name(&self) -> String {
        format!("adaptive-{}", self.inner.name())
    }

    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        self.inner.build(cfg)
    }

    fn supported_sites(&self) -> &'static [PrefetchSite] {
        // Adaptive control reconfigures per-core L2 prefetchers through
        // the epoch loop; the wrapper is an L2-only spec (an example of
        // a spec narrower than the line-address default).
        &[PrefetchSite::L2]
    }

    fn validate(&self, cfg: &SimConfig) -> Result<(), String> {
        self.inner.spec().validate(cfg)?;
        if cfg.adapt.is_none() {
            return Err(format!(
                "{} requires adaptive control: set `SimConfig::adapt`",
                self.name()
            ));
        }
        Ok(())
    }
}

/// Constructor shorthands for the built-in prefetcher specs.
///
/// ```
/// use bosim::{prefetchers, SimConfig};
///
/// let cfg = SimConfig::default().with_prefetcher(prefetchers::bo_default());
/// assert_eq!(cfg.l2_prefetcher.name(), "BO");
/// ```
pub mod prefetchers {
    use super::*;

    /// No L2 prefetching.
    pub fn none() -> PrefetcherHandle {
        PrefetcherHandle::new(NoPrefetchSpec)
    }

    /// Next-line prefetching (the baseline).
    pub fn next_line() -> PrefetcherHandle {
        PrefetcherHandle::new(NextLineSpec)
    }

    /// Constant-offset prefetching with offset `d`.
    pub fn fixed(d: i64) -> PrefetcherHandle {
        PrefetcherHandle::new(FixedOffsetSpec { offset: d })
    }

    /// Best-Offset prefetching with explicit parameters.
    pub fn bo(config: BoConfig) -> PrefetcherHandle {
        PrefetcherHandle::new(BoSpec { config })
    }

    /// Best-Offset prefetching with the Table 2 defaults.
    pub fn bo_default() -> PrefetcherHandle {
        bo(BoConfig::default())
    }

    /// Sandbox prefetching with explicit parameters.
    pub fn sbp(config: SbpConfig) -> PrefetcherHandle {
        PrefetcherHandle::new(SbpSpec { config })
    }

    /// Sandbox prefetching with the §6.3 defaults.
    pub fn sbp_default() -> PrefetcherHandle {
        sbp(SbpConfig::default())
    }

    /// AMPM-lite prefetching with explicit parameters.
    pub fn ampm(config: AmpmConfig) -> PrefetcherHandle {
        PrefetcherHandle::new(AmpmSpec { config })
    }

    /// AMPM-lite prefetching with default parameters.
    pub fn ampm_default() -> PrefetcherHandle {
        ampm(AmpmConfig::default())
    }

    /// DL1 stride prefetching with explicit parameters (L1D site only).
    pub fn stride(config: StrideConfig) -> PrefetcherHandle {
        PrefetcherHandle::new(StrideSpec { config })
    }

    /// DL1 stride prefetching with the §5.5 defaults (L1D site only).
    pub fn stride_default() -> PrefetcherHandle {
        stride(StrideConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names() {
        assert_eq!(prefetchers::none().name(), "no-prefetch");
        assert_eq!(prefetchers::next_line().name(), "next-line");
        assert_eq!(prefetchers::fixed(5).name(), "offset-5");
        assert_eq!(prefetchers::bo_default().name(), "BO");
        assert_eq!(prefetchers::sbp_default().name(), "SBP");
        assert_eq!(prefetchers::ampm_default().name(), "AMPM");
    }

    #[test]
    fn specs_build_matching_prefetchers() {
        let cfg = SimConfig::default();
        for (handle, built_name) in [
            (prefetchers::none(), "none"),
            (prefetchers::bo_default(), "BO"),
            (prefetchers::sbp_default(), "SBP"),
            (prefetchers::ampm_default(), "AMPM"),
        ] {
            assert_eq!(handle.build(&cfg).name(), built_name);
        }
    }

    #[test]
    fn debug_reflects_parameters() {
        let a = format!("{:?}", prefetchers::fixed(3));
        let b = format!("{:?}", prefetchers::fixed(4));
        assert_ne!(a, b, "job dedup relies on parameter-carrying Debug");
    }

    #[test]
    fn site_support_matches_spec_kind() {
        // Line-address specs are L2/L3-neutral.
        for handle in [
            prefetchers::none(),
            prefetchers::next_line(),
            prefetchers::fixed(5),
            prefetchers::bo_default(),
            prefetchers::sbp_default(),
            prefetchers::ampm_default(),
        ] {
            assert!(handle.supports_site(PrefetchSite::L2), "{}", handle.name());
            assert!(handle.supports_site(PrefetchSite::L3), "{}", handle.name());
            assert!(
                !handle.supports_site(PrefetchSite::L1D),
                "{}",
                handle.name()
            );
            assert!(handle.build_l1(&SimConfig::default()).is_none());
        }
        // Stride is L1D-only.
        let stride = prefetchers::stride_default();
        assert_eq!(stride.supported_sites(), &[PrefetchSite::L1D]);
        let l1 = stride
            .build_l1(&SimConfig::default())
            .expect("builds an L1 prefetcher");
        assert_eq!(l1.name(), "stride");
        // The adaptive wrapper is L2-only.
        let adaptive = PrefetcherHandle::new(AdaptiveSpec {
            inner: prefetchers::bo_default(),
        });
        assert_eq!(adaptive.supported_sites(), &[PrefetchSite::L2]);
    }
}
