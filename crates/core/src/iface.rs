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
//! boundaries. The L1D site is not a [`Prefetcher`]: its stride
//! prefetcher sees virtual addresses and load/store PCs and trains at
//! retirement, so the core drives it directly.

use bosim_obs::EventKind;
use bosim_types::LineAddr;
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

    /// The site's short label, as used in site-qualified prefetcher names
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

/// A runtime reconfiguration request for a core's L2 prefetcher.
///
/// Directives are produced by adaptive tuning policies (the
/// `bosim-adapt` crate) at epoch boundaries and applied through
/// [`Prefetcher::reconfigure`]. A prefetcher honours the directives it
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
    /// Replace the prefetcher with a fresh one of the given name. This is
    /// handled by the *simulator* (which owns prefetcher construction),
    /// never by the prefetcher itself — [`Prefetcher::reconfigure`]
    /// implementations always reject it.
    SwitchPrefetcher(String),
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

    /// Applies a runtime reconfiguration directive. Returns `true` when
    /// the directive was understood and applied, `false` when this
    /// prefetcher does not support it (the default).
    fn reconfigure(&mut self, directive: &TuneDirective) -> bool {
        let _ = directive;
        false
    }

    /// Enables or disables event buffering for observability; while off
    /// (the default) no allocation or bookkeeping happens. Prefetchers
    /// with no learning machinery ignore the request.
    fn set_event_sink(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Moves any buffered events (BO's [`EventKind::RoundEnd`] and
    /// [`EventKind::PhaseEnd`]) into `out`, preserving order. The
    /// simulator calls it after each access while a sink is enabled and
    /// stamps each event; the default implementation produces nothing.
    fn drain_events(&mut self, out: &mut Vec<EventKind>) {
        let _ = out;
    }
}

/// The "no prefetch" configuration (Figure 5 baseline), valid at any
/// line-address site.
#[derive(Debug, Clone)]
pub struct NullPrefetcher;

impl Prefetcher for NullPrefetcher {
    fn on_access(&mut self, _access: CacheAccess, _out: &mut Vec<LineAddr>) {}

    fn on_fill(&mut self, _line: LineAddr, _prefetched: bool) {}

    fn name(&self) -> &'static str {
        "none"
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
        let mut p = NullPrefetcher;
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
        let mut p = NullPrefetcher;
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
