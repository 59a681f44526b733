//! The level-agnostic prefetcher interface shared by BO and all
//! baselines.
//!
//! Prefetchers attach to one of three *sites* of the hierarchy
//! ([`PrefetchSite`]): the DL1 (virtual-address, PC-indexed — the §5.5
//! stride prefetcher), the private L2 (the paper's main subject) or the
//! shared L3. The L2 and L3 sites share the physical-line-address
//! [`Prefetcher`] trait: per §5.6 such prefetchers "ignore load/store PCs
//! and work on physical line addresses", observe read accesses from the
//! level above (demand misses *and* upper-level prefetches), and trigger
//! on misses and prefetched hits. Prefetch addresses never cross page
//! boundaries. The L1D site uses the separate [`L1Prefetcher`] trait,
//! because DL1 prefetchers see virtual addresses and load/store PCs and
//! train at retirement.

use bosim_types::{LineAddr, PageSize, VirtAddr};
use std::fmt;

/// A prefetcher attach point in the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchSite {
    /// The first-level data cache (virtual addresses, PC-indexed).
    L1D,
    /// The private second-level cache (physical line addresses).
    L2,
    /// The shared third-level cache (physical line addresses).
    L3,
}

impl PrefetchSite {
    /// Every site, in hierarchy order.
    pub const ALL: [PrefetchSite; 3] = [PrefetchSite::L1D, PrefetchSite::L2, PrefetchSite::L3];

    /// The site's short label, as used in site-qualified registry names
    /// (`"l1"`, `"l2"`, `"l3"`).
    pub fn label(self) -> &'static str {
        match self {
            PrefetchSite::L1D => "l1",
            PrefetchSite::L2 => "l2",
            PrefetchSite::L3 => "l3",
        }
    }

    /// Parses a site label (`"l1"`/`"l1d"`, `"l2"`, `"l3"`,
    /// case-insensitive).
    pub fn parse(s: &str) -> Option<PrefetchSite> {
        match s.to_ascii_lowercase().as_str() {
            "l1" | "l1d" => Some(PrefetchSite::L1D),
            "l2" => Some(PrefetchSite::L2),
            "l3" => Some(PrefetchSite::L3),
            _ => None,
        }
    }
}

impl fmt::Display for PrefetchSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A runtime reconfiguration request for a prefetcher.
///
/// Directives are produced by adaptive tuning policies (the
/// `bosim-adapt` crate) at epoch boundaries, addressed to a site via
/// [`SiteDirective`], and applied through [`Prefetcher::reconfigure`]
/// (or the L1/L3 equivalents). A prefetcher honours the directives it
/// understands and rejects the rest — the caller records which ones were
/// applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneDirective {
    /// Change the prefetch degree (BO supports 1 and 2).
    SetDegree(u32),
    /// Externally gate prefetch issue on or off. Unlike the BO BADSCORE
    /// throttle this is imposed from outside (e.g. under bandwidth
    /// contention); learning machinery keeps running while gated.
    SetEnabled(bool),
    /// Replace the prefetcher with the named registry entry. This is
    /// handled by the *simulator* (which owns prefetcher construction),
    /// never by the prefetcher itself — [`Prefetcher::reconfigure`]
    /// implementations always reject it.
    SwitchPrefetcher(String),
}

impl TuneDirective {
    /// Addresses this directive to `site`.
    pub fn at(self, site: PrefetchSite) -> SiteDirective {
        SiteDirective {
            site,
            directive: self,
        }
    }
}

impl fmt::Display for TuneDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneDirective::SetDegree(d) => write!(f, "degree={d}"),
            TuneDirective::SetEnabled(on) => {
                write!(f, "prefetch={}", if *on { "on" } else { "off" })
            }
            TuneDirective::SwitchPrefetcher(name) => write!(f, "switch={name}"),
        }
    }
}

/// A [`TuneDirective`] addressed to one prefetch site.
///
/// Tuning policies emit these; the simulator routes each to the named
/// site's prefetcher (the per-core L1/L2 engines or the shared L3 one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteDirective {
    /// The addressed site.
    pub site: PrefetchSite,
    /// The directive itself.
    pub directive: TuneDirective,
}

impl fmt::Display for SiteDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.site, self.directive)
    }
}

/// A bare directive defaults to the L2 site — the paper's subject and
/// the address of every pre-existing tuning policy.
impl From<TuneDirective> for SiteDirective {
    fn from(directive: TuneDirective) -> Self {
        directive.at(PrefetchSite::L2)
    }
}

/// Outcome of a cache read access, as seen by the site's prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line missed at this level.
    Miss,
    /// The line hit and its prefetch bit was set ("prefetched hit"):
    /// treated like a miss by the prefetchers (§5.6).
    PrefetchedHit,
    /// An ordinary hit (prefetch bit clear): prefetchers ignore it.
    Hit,
}

impl AccessOutcome {
    /// Misses and prefetched hits are the "eligible" accesses that drive
    /// both prefetch issue and best-offset learning (§4.1).
    #[inline]
    pub fn is_eligible(self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// One read access presented to a line-address prefetcher (L2 or L3
/// site).
#[derive(Debug, Clone, Copy)]
pub struct CacheAccess {
    /// Physical line address of the access.
    pub line: LineAddr,
    /// Hit/miss/prefetched-hit outcome.
    pub outcome: AccessOutcome,
}

/// A learning-machinery event reported by a prefetcher for
/// observability (event tracing in the simulator's `bosim-obs` layer).
///
/// Events are buffered inside the prefetcher only while a sink is
/// enabled ([`Prefetcher::set_event_sink`]) and drained by the caller
/// after each access ([`Prefetcher::drain_events`]); with the sink off
/// — the default — no allocation or bookkeeping happens at all.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefetchEvent {
    /// A best-offset learning round completed (every candidate offset
    /// tested once); reports the round's current leader.
    RoundEnd {
        /// Rounds completed so far in the phase (1-based).
        round: u32,
        /// Best-scoring offset so far.
        leader_offset: i64,
        /// Its score.
        leader_score: u32,
    },
    /// A learning phase completed and a new offset was adopted, with
    /// the full score table at the decision point (§4.1/§4.3).
    PhaseEnd {
        /// The adopted offset D.
        best_offset: i64,
        /// Its winning score.
        best_score: u32,
        /// Whether prefetch stays on (best score above BADSCORE).
        prefetch_on: bool,
        /// `(offset, score)` pairs in candidate-list order, captured
        /// before the phase reset cleared them.
        scores: Vec<(i64, u32)>,
    },
}

/// A line-address prefetcher, attachable to the L2 or L3 site.
///
/// Implementations push prefetch *candidates* (already page-bounded) into
/// the caller's buffer; the surrounding simulator applies queueing,
/// deduplication against in-flight requests, and the mandatory tag checks.
pub trait Prefetcher: std::fmt::Debug {
    /// Observes a read access from the level above (demand miss path or
    /// upper-level prefetch) and appends prefetch requests to `out`.
    fn on_access(&mut self, access: CacheAccess, out: &mut Vec<LineAddr>);

    /// Observes a line being inserted into this site's cache.
    /// `prefetched` is true when the line still carries the prefetch
    /// class this site issued (it was not promoted to a demand miss in
    /// the meantime).
    fn on_fill(&mut self, line: LineAddr, prefetched: bool);

    /// Short name for reports ("BO", "SBP", "next-line", ...).
    fn name(&self) -> &'static str;

    /// The page size this prefetcher was configured for.
    fn page_size(&self) -> PageSize;

    /// Applies a runtime reconfiguration directive. Returns `true` when
    /// the directive was understood and applied, `false` when this
    /// prefetcher does not support it (the default).
    fn reconfigure(&mut self, directive: &TuneDirective) -> bool {
        let _ = directive;
        false
    }

    /// Enables or disables event buffering for observability. The
    /// default implementation ignores the request — prefetchers with no
    /// learning machinery have nothing to report.
    fn set_event_sink(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Moves any buffered [`PrefetchEvent`]s into `out`, preserving
    /// order. Called by the simulator after each access while a sink is
    /// enabled; the default implementation produces nothing.
    fn drain_events(&mut self, out: &mut Vec<PrefetchEvent>) {
        let _ = out;
    }
}

/// A DL1-site prefetcher (the L1D attach point).
///
/// Unlike the line-address [`Prefetcher`], an L1 prefetcher works on
/// virtual addresses and load/store PCs: it trains at retirement (so
/// memory accesses are seen in program order, §5.5) and proposes one
/// virtual prefetch address at DL1 access time. The surrounding core
/// keeps the §5.5 issue path: the proposal is probed against the TLB2
/// (dropped on a miss), translated, deduplicated against the DL1 and its
/// MSHRs, and issued as a [`bosim_types::ReqClass::L1Prefetch`] read.
pub trait L1Prefetcher: std::fmt::Debug + Send {
    /// Trains the prefetcher with a retired load/store, in program order.
    fn on_retire(&mut self, pc: u64, vaddr: VirtAddr);

    /// Issue check at DL1 access time (miss or prefetched hit): returns
    /// the proposed virtual prefetch address, if any.
    fn on_access(&mut self, pc: u64, vaddr: VirtAddr) -> Option<VirtAddr>;

    /// Short name for reports ("stride", ...).
    fn name(&self) -> &'static str;

    /// Applies a runtime reconfiguration directive (see
    /// [`Prefetcher::reconfigure`]). Default: unsupported.
    fn reconfigure(&mut self, directive: &TuneDirective) -> bool {
        let _ = directive;
        false
    }
}

/// The "no prefetch" configuration (Figure 5 baseline), valid at any
/// line-address site.
#[derive(Debug, Clone)]
pub struct NullPrefetcher {
    page: PageSize,
}

impl NullPrefetcher {
    /// Creates a disabled prefetcher.
    pub fn new(page: PageSize) -> Self {
        NullPrefetcher { page }
    }
}

impl Prefetcher for NullPrefetcher {
    fn on_access(&mut self, _access: CacheAccess, _out: &mut Vec<LineAddr>) {}

    fn on_fill(&mut self, _line: LineAddr, _prefetched: bool) {}

    fn name(&self) -> &'static str {
        "none"
    }

    fn page_size(&self) -> PageSize {
        self.page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eligibility() {
        assert!(AccessOutcome::Miss.is_eligible());
        assert!(AccessOutcome::PrefetchedHit.is_eligible());
        assert!(!AccessOutcome::Hit.is_eligible());
    }

    #[test]
    fn null_prefetcher_never_prefetches() {
        let mut p = NullPrefetcher::new(PageSize::K4);
        let mut out = Vec::new();
        p.on_access(
            CacheAccess {
                line: LineAddr(42),
                outcome: AccessOutcome::Miss,
            },
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn reconfigure_defaults_to_unsupported() {
        let mut p = NullPrefetcher::new(PageSize::K4);
        assert!(!p.reconfigure(&TuneDirective::SetDegree(2)));
        assert!(!p.reconfigure(&TuneDirective::SetEnabled(false)));
        assert!(!p.reconfigure(&TuneDirective::SwitchPrefetcher("bo".into())));
    }

    #[test]
    fn directives_render_for_telemetry() {
        assert_eq!(TuneDirective::SetDegree(2).to_string(), "degree=2");
        assert_eq!(TuneDirective::SetEnabled(false).to_string(), "prefetch=off");
        assert_eq!(
            TuneDirective::SwitchPrefetcher("none".into()).to_string(),
            "switch=none"
        );
    }

    #[test]
    fn site_directives_render_with_site_prefix() {
        assert_eq!(
            TuneDirective::SetDegree(2).at(PrefetchSite::L2).to_string(),
            "l2:degree=2"
        );
        assert_eq!(
            TuneDirective::SetEnabled(false)
                .at(PrefetchSite::L3)
                .to_string(),
            "l3:prefetch=off"
        );
        // Bare directives default to the L2 site.
        let d: SiteDirective = TuneDirective::SetDegree(1).into();
        assert_eq!(d.site, PrefetchSite::L2);
    }

    #[test]
    fn sites_parse_and_label() {
        for site in PrefetchSite::ALL {
            assert_eq!(PrefetchSite::parse(site.label()), Some(site));
        }
        assert_eq!(PrefetchSite::parse("L1D"), Some(PrefetchSite::L1D));
        assert_eq!(PrefetchSite::parse("L2"), Some(PrefetchSite::L2));
        assert_eq!(PrefetchSite::parse("dram"), None);
        assert_eq!(PrefetchSite::L3.to_string(), "l3");
    }
}
