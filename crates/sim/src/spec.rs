//! Prefetcher specs: the closed set of prefetchers the simulator builds.
//!
//! A [`PrefetcherSpec`] names one prefetcher the paper compares (no
//! prefetch, next-line, a fixed offset, BO, SBP and AMPM) or the §5.5
//! DL1 stride prefetcher, together with its parameters where it has any
//! (the fixed offset, BO's [`BoConfig`]). It parses from
//! the names command lines, corpora and adaptive policies use
//! ([`parse`](PrefetcherSpec::parse), or site-qualified with
//! [`parse_site`](PrefetcherSpec::parse_site)), labels reports
//! ([`name`](PrefetcherSpec::name)) and builds the live [`Prefetcher`]
//! state machine ([`build`](PrefetcherSpec::build)).
//!
//! Specs are *site-aware*: [`sites`](PrefetcherSpec::sites) names the
//! [`PrefetchSite`]s a spec can attach to. Line-address prefetchers (BO,
//! fixed-offset, SBP, AMPM) are site-neutral between L2 and L3; the
//! PC-indexed stride prefetcher attaches to the L1D only, where the core
//! drives it directly. Configuration validation rejects a spec placed at
//! a site it does not support.
//!
//! A new prefetcher is a new variant: the compiler then lists the
//! matches in this file that need an arm for it. Its name also goes into
//! [`PrefetcherSpec::parse`] and the list the round-trip test checks.

use best_offset::{BestOffsetPrefetcher, BoConfig, NullPrefetcher, PrefetchSite, Prefetcher};
use bosim_baselines::{AmpmPrefetcher, FixedOffsetPrefetcher, SandboxPrefetcher};
use bosim_types::PageSize;
use std::fmt;

/// The names [`PrefetcherSpec::parse`] accepts, as listed by
/// [`ResolveError::Unknown`].
const KNOWN_NAMES: [&str; 9] = [
    "none",
    "no-prefetch",
    "next-line",
    "offset-1",
    "bo",
    "sbp",
    "ampm",
    "stride",
    OFFSET_FAMILY,
];

/// The pattern of the parameterised fixed-offset names.
const OFFSET_FAMILY: &str = "offset-<D>";

/// The one source of the "does not attach to site ..." diagnostic,
/// shared by name resolution and configuration validation.
pub(crate) fn site_mismatch_reason(site: PrefetchSite, supported: &[PrefetchSite]) -> String {
    let supported: Vec<&str> = supported.iter().map(|s| s.label()).collect();
    format!(
        "does not attach to site {site} (supports: {})",
        supported.join(", ")
    )
}

/// A prefetcher and its parameters.
///
/// `Debug` renders every parameter that affects behaviour: the
/// experiment harness uses it to deduplicate identical simulation jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefetcherSpec {
    /// No prefetching (the Figure 5 comparison point).
    None,
    /// Next-line prefetching — the paper's default L2 baseline (§5.6).
    NextLine,
    /// A constant line offset `D` (Figures 7 and 8).
    Offset(i64),
    /// The Best-Offset prefetcher (§4).
    Bo(BoConfig),
    /// The Sandbox prefetcher as adapted in §6.3.
    Sbp,
    /// AMPM-lite (extension; the DPC-1 winner referenced in §2).
    Ampm,
    /// The PC-indexed DL1 stride prefetcher (§5.5) — the default
    /// occupant of the L1D site, and the only spec that attaches there.
    Stride,
}

impl PrefetcherSpec {
    /// Resolves a prefetcher name (case-insensitive, surrounding
    /// whitespace ignored) to its default-parameter spec: `none` /
    /// `no-prefetch`, `next-line`, `bo`, `sbp`, `ampm`, `stride`, or
    /// `offset-<D>` for any non-zero `i64` offset `D`.
    ///
    /// # Errors
    ///
    /// [`ResolveError::Malformed`] for an `offset-` name whose offset is
    /// zero, not an integer or outside the `i64` range, and
    /// [`ResolveError::Unknown`] for any other name.
    pub fn parse(name: &str) -> Result<Self, ResolveError> {
        let key = name.trim().to_ascii_lowercase();
        Ok(match key.as_str() {
            "none" | "no-prefetch" => PrefetcherSpec::None,
            "next-line" => PrefetcherSpec::NextLine,
            "bo" => PrefetcherSpec::Bo(BoConfig::default()),
            "sbp" => PrefetcherSpec::Sbp,
            "ampm" => PrefetcherSpec::Ampm,
            "stride" => PrefetcherSpec::Stride,
            other => {
                let Some(d) = other.strip_prefix("offset-") else {
                    return Err(ResolveError::Unknown {
                        name: key,
                        known: KNOWN_NAMES.map(String::from).to_vec(),
                    });
                };
                let spec = d.parse().map(PrefetcherSpec::Offset).map_err(|_| {
                    format!("offset must be a non-zero integer in the i64 range, got {d:?}")
                });
                match spec.and_then(|s| s.validate().map(|()| s)) {
                    Ok(spec) => spec,
                    Err(reason) => {
                        return Err(ResolveError::Malformed {
                            name: key,
                            family: OFFSET_FAMILY.into(),
                            reason,
                        })
                    }
                }
            }
        })
    }

    /// Resolves a *site-qualified* name: `"l1:stride"`, `"l2:bo"`,
    /// `"l3:next-line"`. A bare name means the L2 site, the paper's
    /// subject. `none` (or `no-prefetch`) at the L1D or L3 site empties
    /// that site (`None`); the L2 site cannot be empty and gets the null
    /// prefetcher instead.
    ///
    /// # Errors
    ///
    /// [`ResolveError::UnknownSite`] for a site label outside l1/l2/l3,
    /// [`ResolveError::SiteMismatch`] when the spec does not attach to
    /// the site (e.g. `l3:stride`), plus everything
    /// [`parse`](Self::parse) reports about the base name.
    pub fn parse_site(name: &str) -> Result<(PrefetchSite, Option<Self>), ResolveError> {
        let full = name.trim();
        let (site, base) = match full.split_once(':') {
            Some((label, base)) => match PrefetchSite::parse(label.trim()) {
                Some(site) => (site, base),
                None => {
                    return Err(ResolveError::UnknownSite {
                        name: full.to_ascii_lowercase(),
                        site: label.trim().to_ascii_lowercase(),
                    })
                }
            },
            None => (PrefetchSite::L2, full),
        };
        let spec = Self::parse(base)?;
        if spec == PrefetcherSpec::None && site != PrefetchSite::L2 {
            return Ok((site, None));
        }
        if !spec.sites().contains(&site) {
            return Err(ResolveError::SiteMismatch {
                name: full.to_ascii_lowercase(),
                site,
                supported: spec.sites().to_vec(),
            });
        }
        Ok((site, Some(spec)))
    }

    /// Label used in configuration labels and reports (`"BO"`,
    /// `"next-line"`, `"offset-5"`, `"stride"`, ...). It parses back to
    /// the same variant.
    pub fn name(&self) -> String {
        match self {
            PrefetcherSpec::None => "no-prefetch".into(),
            PrefetcherSpec::NextLine => "next-line".into(),
            PrefetcherSpec::Offset(d) => format!("offset-{d}"),
            PrefetcherSpec::Bo(_) => "BO".into(),
            PrefetcherSpec::Sbp => "SBP".into(),
            PrefetcherSpec::Ampm => "AMPM".into(),
            PrefetcherSpec::Stride => "stride".into(),
        }
    }

    /// The sites this spec can attach to.
    pub fn sites(&self) -> &'static [PrefetchSite] {
        match self {
            PrefetcherSpec::None
            | PrefetcherSpec::NextLine
            | PrefetcherSpec::Offset(_)
            | PrefetcherSpec::Bo(_)
            | PrefetcherSpec::Sbp
            | PrefetcherSpec::Ampm => &[PrefetchSite::L2, PrefetchSite::L3],
            PrefetcherSpec::Stride => &[PrefetchSite::L1D],
        }
    }

    /// Builds the line-address prefetcher state machine (the L2/L3
    /// sites) for `page`-sized pages. Stride is L1D-only, so a validated
    /// configuration never builds it here; it gets a null prefetcher.
    pub fn build(&self, page: PageSize) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherSpec::None | PrefetcherSpec::Stride => Box::new(NullPrefetcher),
            PrefetcherSpec::NextLine => Box::new(FixedOffsetPrefetcher::next_line(page)),
            PrefetcherSpec::Offset(d) => Box::new(FixedOffsetPrefetcher::new(*d, page)),
            PrefetcherSpec::Bo(c) => Box::new(BestOffsetPrefetcher::new(c.clone(), page)),
            PrefetcherSpec::Sbp => Box::new(SandboxPrefetcher::new(page)),
            PrefetcherSpec::Ampm => Box::new(AmpmPrefetcher::new(page)),
        }
    }

    /// Validates the spec's parameters *before* any simulation runs.
    /// [`SimConfig::validate`](crate::SimConfig::validate) calls this,
    /// so an invalid spec (a BO degree of 3, an empty offset list) is
    /// reported as a [`crate::ConfigError`] instead of panicking
    /// mid-sweep when [`build`](Self::build) runs on a worker thread.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PrefetcherSpec::Offset(0) => Err("offset 0 is not a prefetch".into()),
            PrefetcherSpec::Bo(c) => c.validate().map_err(|e| e.to_string()),
            PrefetcherSpec::None
            | PrefetcherSpec::NextLine
            | PrefetcherSpec::Offset(_)
            | PrefetcherSpec::Sbp
            | PrefetcherSpec::Ampm
            | PrefetcherSpec::Stride => Ok(()),
        }
    }
}

/// Why a name failed to resolve (returned by [`PrefetcherSpec::parse`]
/// and [`PrefetcherSpec::parse_site`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No prefetcher has this name.
    Unknown {
        /// The unresolved name.
        name: String,
        /// The names and name families that do resolve, for the message.
        known: Vec<String>,
    },
    /// A name family claimed the name but rejected its parameters.
    Malformed {
        /// The rejected name.
        name: String,
        /// The claiming family's pattern (e.g. `"offset-<D>"`).
        family: String,
        /// What is wrong with the parameters.
        reason: String,
    },
    /// A site-qualified name used a site label the hierarchy does not
    /// have (e.g. `"l9:bo"`).
    UnknownSite {
        /// The full site-qualified name.
        name: String,
        /// The unrecognised site label.
        site: String,
    },
    /// A site-qualified name resolved, but the spec does not attach to
    /// the requested site (e.g. `"l3:stride"` — stride is L1D-only).
    SiteMismatch {
        /// The full site-qualified name.
        name: String,
        /// The requested site.
        site: PrefetchSite,
        /// The sites the spec does support.
        supported: Vec<PrefetchSite>,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Unknown { name, known } => {
                write!(
                    f,
                    "unknown prefetcher {name:?} (known: {})",
                    known.join(", ")
                )
            }
            ResolveError::Malformed {
                name,
                family,
                reason,
            } => write!(f, "malformed prefetcher spec {name:?} ({family}): {reason}"),
            ResolveError::UnknownSite { name, site } => {
                write!(
                    f,
                    "unknown prefetch site {site:?} in {name:?} (valid sites: l1, l2, l3)"
                )
            }
            ResolveError::SiteMismatch {
                name,
                site,
                supported,
            } => {
                write!(
                    f,
                    "prefetcher {name:?} {}",
                    site_mismatch_reason(*site, supported)
                )
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// Constructor shorthands for the prefetcher specs.
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
    pub fn none() -> PrefetcherSpec {
        PrefetcherSpec::None
    }

    /// Next-line prefetching (the baseline).
    pub fn next_line() -> PrefetcherSpec {
        PrefetcherSpec::NextLine
    }

    /// Constant-offset prefetching with offset `d`.
    pub fn fixed(d: i64) -> PrefetcherSpec {
        PrefetcherSpec::Offset(d)
    }

    /// Best-Offset prefetching with explicit parameters.
    pub fn bo(config: BoConfig) -> PrefetcherSpec {
        PrefetcherSpec::Bo(config)
    }

    /// Best-Offset prefetching with the Table 2 defaults.
    pub fn bo_default() -> PrefetcherSpec {
        bo(BoConfig::default())
    }

    /// Sandbox prefetching (§6.3).
    pub fn sbp_default() -> PrefetcherSpec {
        PrefetcherSpec::Sbp
    }

    /// AMPM-lite prefetching.
    pub fn ampm_default() -> PrefetcherSpec {
        PrefetcherSpec::Ampm
    }

    /// DL1 stride prefetching (§5.5; L1D site only).
    pub fn stride_default() -> PrefetcherSpec {
        PrefetcherSpec::Stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

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
        for (spec, built_name) in [
            (prefetchers::none(), "none"),
            (prefetchers::bo_default(), "BO"),
            (prefetchers::sbp_default(), "SBP"),
            (prefetchers::ampm_default(), "AMPM"),
        ] {
            assert_eq!(spec.build(PageSize::K4).name(), built_name);
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
        for spec in [
            prefetchers::none(),
            prefetchers::next_line(),
            prefetchers::fixed(5),
            prefetchers::bo_default(),
            prefetchers::sbp_default(),
            prefetchers::ampm_default(),
        ] {
            assert_eq!(spec.sites(), &[PrefetchSite::L2, PrefetchSite::L3]);
        }
        // Stride is L1D-only.
        assert_eq!(prefetchers::stride_default().sites(), &[PrefetchSite::L1D]);
    }

    #[test]
    fn builtins_resolve_by_name() {
        for (name, label) in [
            ("none", "no-prefetch"),
            ("no-prefetch", "no-prefetch"),
            ("next-line", "next-line"),
            ("bo", "BO"),
            ("BO", "BO"),
            ("sbp", "SBP"),
            ("ampm", "AMPM"),
            ("offset-1", "offset-1"),
        ] {
            let spec = PrefetcherSpec::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name(), label);
        }
    }

    #[test]
    fn offset_family_resolves_parameterised_names() {
        let parse = |name| PrefetcherSpec::parse(name).map(|s| s.name());
        assert_eq!(parse("offset-42"), Ok("offset-42".into()));
        assert_eq!(parse("offset--3"), Ok("offset--3".into()));
        assert!(parse("offset-0").is_err(), "offset 0 is not a prefetch");
        assert!(parse("offset-x").is_err());
    }

    #[test]
    fn unknown_names_miss() {
        assert!(PrefetcherSpec::parse("definitely-not-registered").is_err());
    }

    #[test]
    fn malformed_offset_specs_are_described() {
        for (name, needle) in [
            ("offset-0", "offset 0 is not a prefetch"),
            ("offset-x", "non-zero integer"),
            ("offset-12banana", "non-zero integer"),
            // i64 overflow: parse fails, reported as malformed rather
            // than silently missing.
            ("offset-99999999999999999999", "i64 range"),
        ] {
            let err = PrefetcherSpec::parse(name).unwrap_err();
            match &err {
                ResolveError::Malformed { family, reason, .. } => {
                    assert_eq!(family, "offset-<D>");
                    assert!(reason.contains(needle), "{name}: {reason}");
                }
                other => panic!("{name}: expected Malformed, got {other:?}"),
            }
            assert!(err.to_string().contains("offset-<D>"));
        }
        // Unknown names stay Unknown — no family claims them — and the
        // message lists the names that do resolve instead.
        let err = PrefetcherSpec::parse("no-such-prefetcher").unwrap_err();
        assert_eq!(
            err,
            ResolveError::Unknown {
                name: "no-such-prefetcher".into(),
                known: KNOWN_NAMES.map(String::from).to_vec(),
            }
        );
        let msg = err.to_string();
        let listed: Vec<&str> = msg
            .split_once("(known: ")
            .map(|(_, list)| list.trim_end_matches(')').split(", ").collect())
            .unwrap_or_default();
        assert!(listed.contains(&"bo"), "{msg}");
        assert!(listed.contains(&"offset-<D>"), "{msg}");
        assert!(!msg.contains("names()"), "{msg}");
    }

    #[test]
    fn site_qualified_names_resolve_to_site_and_handle() {
        for (name, site, label) in [
            ("l1:stride", PrefetchSite::L1D, "stride"),
            ("l2:bo", PrefetchSite::L2, "BO"),
            ("L2:BO", PrefetchSite::L2, "BO"),
            ("l3:next-line", PrefetchSite::L3, "next-line"),
            ("l3:offset-12", PrefetchSite::L3, "offset-12"),
            ("l2:none", PrefetchSite::L2, "no-prefetch"),
            // Bare names default to the L2 site.
            ("bo", PrefetchSite::L2, "BO"),
        ] {
            let (s, spec) = PrefetcherSpec::parse_site(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(s, site, "{name}");
            assert_eq!(spec.map(|s| s.name()).as_deref(), Some(label), "{name}");
        }
        // `none` empties the L1D and L3 sites.
        for (name, site) in [
            ("l1:none", PrefetchSite::L1D),
            ("l3:no-prefetch", PrefetchSite::L3),
        ] {
            assert_eq!(PrefetcherSpec::parse_site(name), Ok((site, None)), "{name}");
        }
    }

    #[test]
    fn site_names_tolerate_whitespace() {
        let (s, spec) = PrefetcherSpec::parse_site(" l3 : bo ").expect("trimmed per segment");
        assert_eq!(s, PrefetchSite::L3);
        assert_eq!(spec, Some(prefetchers::bo_default()));
    }

    #[test]
    fn unknown_sites_are_described() {
        let err = PrefetcherSpec::parse_site("l9:bo").unwrap_err();
        assert_eq!(
            err,
            ResolveError::UnknownSite {
                name: "l9:bo".into(),
                site: "l9".into()
            }
        );
        assert!(err.to_string().contains("valid sites: l1, l2, l3"), "{err}");
    }

    #[test]
    fn site_spec_mismatches_are_described() {
        // Stride is L1D-only: the L2/L3 sites reject it.
        for name in ["l3:stride", "l2:stride", "stride"] {
            let err = PrefetcherSpec::parse_site(name).unwrap_err();
            match &err {
                ResolveError::SiteMismatch {
                    site, supported, ..
                } => {
                    assert_ne!(*site, PrefetchSite::L1D, "{name}");
                    assert_eq!(supported, &[PrefetchSite::L1D], "{name}");
                }
                other => panic!("{name}: expected SiteMismatch, got {other:?}"),
            }
            assert!(err.to_string().contains("supports: l1"), "{err}");
        }
        // Line-address prefetchers reject the L1D site.
        let err = PrefetcherSpec::parse_site("l1:bo").unwrap_err();
        assert!(
            matches!(&err, ResolveError::SiteMismatch { site, .. } if *site == PrefetchSite::L1D),
            "{err:?}"
        );
        assert!(err.to_string().contains("supports: l2, l3"), "{err}");
    }

    #[test]
    fn site_resolution_reports_base_name_errors() {
        assert!(matches!(
            PrefetcherSpec::parse_site("l2:no-such").unwrap_err(),
            ResolveError::Unknown { .. }
        ));
        assert!(matches!(
            PrefetcherSpec::parse_site("l3:offset-0").unwrap_err(),
            ResolveError::Malformed { .. }
        ));
    }

    /// Names and labels come back in: every default-parameter spec
    /// parses from its own name, and every label a static, unsampled
    /// configuration prints rebuilds the same configuration label when
    /// fed back through `with_stack`.
    #[test]
    fn names_and_labels_round_trip() {
        let specs = [
            prefetchers::none(),
            prefetchers::next_line(),
            prefetchers::fixed(-1),
            prefetchers::fixed(i64::MIN),
            prefetchers::fixed(i64::MAX),
            prefetchers::bo_default(),
            prefetchers::sbp_default(),
            prefetchers::ampm_default(),
            prefetchers::stride_default(),
        ];
        let mut configs = Vec::new();
        for spec in specs {
            assert_eq!(PrefetcherSpec::parse(&spec.name()), Ok(spec.clone()));
            for &site in spec.sites() {
                // `l3:no-prefetch` reads back as the empty L3 site,
                // which the empty-site variants below cover.
                if site == PrefetchSite::L3 && spec == PrefetcherSpec::None {
                    continue;
                }
                let cfg = SimConfig::default().with_site_prefetcher(site, Some(spec.clone()));
                configs.push(SimConfig {
                    l1_prefetcher: None,
                    ..cfg.clone()
                });
                configs.push(SimConfig {
                    l3_prefetcher: None,
                    ..cfg.clone()
                });
                configs.push(cfg);
            }
        }
        for cfg in configs {
            assert!(cfg.validate().is_ok(), "{}", cfg.label());
            let label = cfg.label();
            let stack = label.rsplit('/').next().expect("label has a stack");
            let rebuilt = SimConfig::default()
                .with_stack(stack)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(rebuilt.label(), label);
        }
    }
}
