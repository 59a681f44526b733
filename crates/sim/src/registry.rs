//! By-name discovery of prefetcher specs.
//!
//! The registry maps prefetcher names (as used in reports and on the
//! `BOSIM_PREFETCHER`-style command lines of the harness binaries) to
//! [`PrefetcherHandle`]s. The built-in prefetchers are pre-registered;
//! third-party crates add their own with [`PrefetcherRegistry::register`]
//! — no change to `bosim-sim` required:
//!
//! ```
//! use bosim::{registry, PrefetcherHandle, PrefetcherSpec, SimConfig};
//! use best_offset::{NullPrefetcher, Prefetcher};
//!
//! #[derive(Debug)]
//! struct MySpec;
//! impl PrefetcherSpec for MySpec {
//!     fn name(&self) -> String { "mine".into() }
//!     fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
//!         Box::new(NullPrefetcher::new(cfg.page))
//!     }
//! }
//!
//! registry().register("mine", PrefetcherHandle::new(MySpec));
//! assert!(registry().lookup("mine").is_some());
//! // Site-qualified: "mine" is a line-address spec, so it attaches to
//! // the L2 or L3 site but not the L1D one.
//! assert!(registry().resolve_site("l3:mine").is_ok());
//! assert!(registry().resolve_site("l1:mine").is_err());
//! ```
//!
//! Names may carry a *site* prefix (`l1:stride`, `l2:bo`,
//! `l3:next-line`) resolved by [`PrefetcherRegistry::resolve_site`]; a
//! bare name means the L2 site. Parameterised families (like the
//! fixed-offset prefetchers) register a *resolver* instead of a single
//! name: a function that parses names such as `"offset-12"` into a
//! handle. A resolver distinguishes "not my family" from "my family,
//! but malformed" ([`ResolverOutcome`]), so
//! [`PrefetcherRegistry::resolve`] can report *why* `"offset-0"` or
//! `"offset-banana"` is rejected instead of a bare miss.

use crate::spec::{prefetchers, AdaptiveSpec, PrefetcherHandle};
use best_offset::PrefetchSite;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// A resolver's verdict on one name (see [`PrefetcherResolver`]).
#[derive(Debug)]
pub enum ResolverOutcome {
    /// The name does not belong to this resolver's family.
    NotMine,
    /// The name resolved to a prefetcher.
    Resolved(PrefetcherHandle),
    /// The name matches this family but is malformed; the string says
    /// how (`"offset must be a non-zero integer"`, ...).
    Malformed(String),
}

/// A name-pattern resolver: classifies `name` as outside its family,
/// resolved, or malformed.
pub type PrefetcherResolver = Arc<dyn Fn(&str) -> ResolverOutcome + Send + Sync>;

/// Why a name failed to resolve (returned by
/// [`PrefetcherRegistry::resolve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No exact name matched and no resolver family claimed the name.
    Unknown {
        /// The unresolved name.
        name: String,
        /// What the registry does know: its names and resolver families
        /// ([`PrefetcherRegistry::names`]), for the message.
        known: Vec<String>,
    },
    /// A resolver family claimed the name but rejected its parameters.
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
                    crate::spec::site_mismatch_reason(*site, supported)
                )
            }
        }
    }
}

impl std::error::Error for ResolveError {}

#[derive(Default)]
struct Entries {
    named: Vec<(String, PrefetcherHandle)>,
    resolvers: Vec<(String, PrefetcherResolver)>,
}

/// The open prefetcher registry (see the [`registry()`] docs and
/// the example above).
///
/// Lookups are case-insensitive. Exact names take precedence over
/// resolvers; within each group, the most recent registration wins, so a
/// re-registration overrides an earlier one.
pub struct PrefetcherRegistry {
    entries: Mutex<Entries>,
}

impl PrefetcherRegistry {
    fn with_builtins() -> Self {
        let reg = PrefetcherRegistry {
            entries: Mutex::new(Entries::default()),
        };
        reg.register("none", prefetchers::none());
        reg.register("no-prefetch", prefetchers::none());
        reg.register("next-line", prefetchers::next_line());
        reg.register("offset-1", prefetchers::fixed(1));
        reg.register("bo", prefetchers::bo_default());
        reg.register("sbp", prefetchers::sbp_default());
        reg.register("ampm", prefetchers::ampm_default());
        reg.register("stride", prefetchers::stride_default());
        reg.register_resolver(
            "offset-<D>",
            Arc::new(|name| {
                let Some(spec) = name.strip_prefix("offset-") else {
                    return ResolverOutcome::NotMine;
                };
                match spec.parse::<i64>() {
                    Ok(0) => ResolverOutcome::Malformed("offset 0 is not a prefetch".into()),
                    Ok(d) => ResolverOutcome::Resolved(prefetchers::fixed(d)),
                    Err(_) => ResolverOutcome::Malformed(format!(
                        "offset must be a non-zero integer in the i64 range, got {spec:?}"
                    )),
                }
            }),
        );
        reg
    }

    /// Registers `handle` under `name` (case-insensitive). A later
    /// registration under the same name replaces the earlier one.
    pub fn register(&self, name: &str, handle: PrefetcherHandle) {
        let key = name.to_ascii_lowercase();
        let mut e = self.entries.lock().expect("registry poisoned"); // bosim-lint: allow(P002, registry mutex poisons only if registration panicked)
        e.named.retain(|(n, _)| *n != key);
        e.named.push((key, handle));
    }

    /// Registers a resolver for a parameterised name family. `pattern` is
    /// purely documentation (shown by [`names`](Self::names)).
    pub fn register_resolver(&self, pattern: &str, resolver: PrefetcherResolver) {
        let mut e = self.entries.lock().expect("registry poisoned"); // bosim-lint: allow(P002, registry mutex poisons only if registration panicked)
        e.resolvers.push((pattern.to_string(), resolver));
    }

    /// Finds a handle by name: exact (case-insensitive) matches first,
    /// then resolvers in reverse registration order. `None` for both
    /// unknown and malformed names — use [`resolve`](Self::resolve) when
    /// the caller needs to report *why*.
    pub fn lookup(&self, name: &str) -> Option<PrefetcherHandle> {
        self.resolve(name).ok()
    }

    /// Like [`lookup`](Self::lookup), but distinguishes a name no family
    /// claims ([`ResolveError::Unknown`]) from one a family claims and
    /// rejects — `offset-0`, `offset-banana`, an offset overflowing
    /// `i64` — which yields a [`ResolveError::Malformed`] naming the
    /// family and the violated constraint.
    ///
    /// Resolvers are invoked *outside* the registry lock, so a resolver
    /// may itself call back into the registry (e.g. an alias family that
    /// delegates to other names), and a panicking resolver cannot poison
    /// the registry.
    ///
    /// # Errors
    ///
    /// Returns why the name failed to resolve.
    pub fn resolve(&self, name: &str) -> Result<PrefetcherHandle, ResolveError> {
        let key = name.trim().to_ascii_lowercase();
        let resolvers: Vec<(String, PrefetcherResolver)> = {
            let e = self.entries.lock().expect("registry poisoned"); // bosim-lint: allow(P002, registry mutex poisons only if registration panicked)
            if let Some((_, h)) = e.named.iter().rev().find(|(n, _)| *n == key) {
                return Ok(h.clone());
            }
            e.resolvers.iter().rev().cloned().collect()
        };
        for (family, r) in &resolvers {
            match r(&key) {
                ResolverOutcome::NotMine => continue,
                ResolverOutcome::Resolved(h) => return Ok(h),
                ResolverOutcome::Malformed(reason) => {
                    return Err(ResolveError::Malformed {
                        name: key,
                        family: family.clone(),
                        reason,
                    })
                }
            }
        }
        Err(ResolveError::Unknown {
            name: key,
            known: self.names(),
        })
    }

    /// Resolves a *site-qualified* prefetcher name: `"l1:stride"`,
    /// `"l2:bo"`, `"l3:next-line"`. A bare name (no `site:` prefix)
    /// defaults to the L2 site — the paper's subject and what every
    /// pre-existing name meant. The base name goes through
    /// [`resolve`](Self::resolve) (exact names, then resolver families),
    /// and the resolved spec must attach to the requested site.
    ///
    /// # Errors
    ///
    /// [`ResolveError::UnknownSite`] for a site label outside l1/l2/l3,
    /// [`ResolveError::SiteMismatch`] when the spec does not support the
    /// site (e.g. `l3:stride` — stride is L1D-only, or `l3:adaptive-bo`
    /// — the adaptive wrapper is L2-only), plus everything
    /// [`resolve`](Self::resolve) reports about the base name.
    pub fn resolve_site(
        &self,
        name: &str,
    ) -> Result<(PrefetchSite, PrefetcherHandle), ResolveError> {
        let full = name.trim();
        let (site, base) = match full.split_once(':') {
            Some((site_label, base)) => match PrefetchSite::parse(site_label.trim()) {
                Some(site) => (site, base.trim()),
                None => {
                    return Err(ResolveError::UnknownSite {
                        name: full.to_ascii_lowercase(),
                        site: site_label.trim().to_ascii_lowercase(),
                    })
                }
            },
            None => (PrefetchSite::L2, full),
        };
        let handle = self.resolve(base)?;
        if !handle.supports_site(site) {
            return Err(ResolveError::SiteMismatch {
                name: full.to_ascii_lowercase(),
                site,
                supported: handle.supported_sites().to_vec(),
            });
        }
        Ok((site, handle))
    }

    /// All registered names and resolver patterns, registration order.
    pub fn names(&self) -> Vec<String> {
        let e = self.entries.lock().expect("registry poisoned"); // bosim-lint: allow(P002, registry mutex poisons only if registration panicked)
        e.named
            .iter()
            .map(|(n, _)| n.clone())
            .chain(e.resolvers.iter().map(|(p, _)| p.clone()))
            .collect()
    }
}

/// The process-wide registry, created on first use with the six built-in
/// prefetchers pre-registered.
///
/// ```
/// use bosim::registry;
///
/// // Plain and parameterised names resolve...
/// assert_eq!(registry().resolve("bo").unwrap().name(), "BO");
/// assert_eq!(registry().resolve("offset-12").unwrap().name(), "offset-12");
/// // ...as do site-qualified ones (a bare name means the L2 site).
/// let (site, handle) = registry().resolve_site("l3:next-line").unwrap();
/// assert_eq!((site.label(), handle.name().as_str()), ("l3", "next-line"));
/// // Failures carry the resolver's diagnosis.
/// assert!(registry().resolve("offset-0").unwrap_err().to_string().contains("not a prefetch"));
/// ```
///
/// The global instance additionally carries the `adaptive-<name>`
/// family: `adaptive-bo` resolves to BO wrapped in
/// [`AdaptiveSpec`](crate::AdaptiveSpec), whose validation requires an
/// adaptive-control configuration on the run. The family delegates the
/// base name back into this registry, so third-party registrations get
/// adaptive aliases for free.
pub fn registry() -> &'static PrefetcherRegistry {
    static REGISTRY: OnceLock<PrefetcherRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let reg = PrefetcherRegistry::with_builtins();
        reg.register_resolver(
            "adaptive-<name>",
            Arc::new(|name| {
                let Some(base) = name.strip_prefix("adaptive-") else {
                    return ResolverOutcome::NotMine;
                };
                // Re-entrant: resolvers run outside the lock, and the
                // OnceLock is initialised by the time any lookup runs.
                match registry().resolve(base) {
                    Ok(inner) => {
                        ResolverOutcome::Resolved(PrefetcherHandle::new(AdaptiveSpec { inner }))
                    }
                    Err(e) => ResolverOutcome::Malformed(format!("base name: {e}")),
                }
            }),
        );
        reg
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let h = registry().lookup(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(h.name(), label);
        }
    }

    #[test]
    fn offset_family_resolves_parameterised_names() {
        assert_eq!(
            registry().lookup("offset-42").expect("family").name(),
            "offset-42"
        );
        assert_eq!(
            registry().lookup("offset--3").expect("negative").name(),
            "offset--3"
        );
        assert!(
            registry().lookup("offset-0").is_none(),
            "offset 0 is not a prefetch"
        );
        assert!(registry().lookup("offset-x").is_none());
    }

    #[test]
    fn unknown_names_miss() {
        assert!(registry().lookup("definitely-not-registered").is_none());
    }

    #[test]
    fn resolvers_may_reenter_the_registry() {
        // An alias family that delegates back into the same registry:
        // must not deadlock (resolvers run outside the lock).
        let reg = Arc::new(PrefetcherRegistry::with_builtins());
        let inner = reg.clone();
        reg.register_resolver(
            "alias-<name>",
            Arc::new(move |name| match name.strip_prefix("alias-") {
                None => ResolverOutcome::NotMine,
                Some(base) => match inner.lookup(base) {
                    Some(h) => ResolverOutcome::Resolved(h),
                    None => ResolverOutcome::Malformed(format!("unknown base {base:?}")),
                },
            }),
        );
        assert_eq!(reg.lookup("alias-bo").expect("delegates").name(), "BO");
        assert!(reg.lookup("alias-nope").is_none());
    }

    #[test]
    fn malformed_offset_specs_are_described() {
        let reg = PrefetcherRegistry::with_builtins();
        for (name, needle) in [
            ("offset-0", "offset 0 is not a prefetch"),
            ("offset-x", "non-zero integer"),
            ("offset-12banana", "non-zero integer"),
            // i64 overflow: parse fails, reported as malformed rather
            // than silently missing.
            ("offset-99999999999999999999", "i64 range"),
        ] {
            let err = reg.resolve(name).unwrap_err();
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
        // message lists what the registry knows instead.
        let err = reg.resolve("no-such-prefetcher").unwrap_err();
        assert_eq!(
            err,
            ResolveError::Unknown {
                name: "no-such-prefetcher".into(),
                known: reg.names(),
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
    fn adaptive_family_wraps_base_names() {
        let h = registry().lookup("adaptive-bo").expect("family resolves");
        assert_eq!(h.name(), "adaptive-BO");
        let err = registry().resolve("adaptive-nope").unwrap_err();
        assert!(err.to_string().contains("base name"), "{err}");
    }

    #[test]
    fn site_qualified_names_resolve_to_site_and_handle() {
        let reg = PrefetcherRegistry::with_builtins();
        for (name, site, label) in [
            ("l1:stride", PrefetchSite::L1D, "stride"),
            ("l2:bo", PrefetchSite::L2, "BO"),
            ("L2:BO", PrefetchSite::L2, "BO"),
            ("l3:next-line", PrefetchSite::L3, "next-line"),
            ("l3:offset-12", PrefetchSite::L3, "offset-12"),
            // Bare names default to the L2 site.
            ("bo", PrefetchSite::L2, "BO"),
        ] {
            let (s, h) = reg.resolve_site(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(s, site, "{name}");
            assert_eq!(h.name(), label, "{name}");
        }
    }

    #[test]
    fn site_names_tolerate_whitespace() {
        let reg = PrefetcherRegistry::with_builtins();
        let (s, h) = reg.resolve_site(" l3 : bo ").expect("trimmed per segment");
        assert_eq!(s, PrefetchSite::L3);
        assert_eq!(h.name(), "BO");
    }

    #[test]
    fn unknown_sites_are_described() {
        let reg = PrefetcherRegistry::with_builtins();
        let err = reg.resolve_site("l9:bo").unwrap_err();
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
        let reg = PrefetcherRegistry::with_builtins();
        // Stride is L1D-only: the L2/L3 sites reject it.
        for name in ["l3:stride", "l2:stride", "stride"] {
            let err = reg.resolve_site(name).unwrap_err();
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
        let err = reg.resolve_site("l1:bo").unwrap_err();
        assert!(
            matches!(&err, ResolveError::SiteMismatch { site, .. } if *site == PrefetchSite::L1D),
            "{err:?}"
        );
        assert!(err.to_string().contains("supports: l2, l3"), "{err}");
    }

    #[test]
    fn site_resolution_reports_base_name_errors() {
        let reg = PrefetcherRegistry::with_builtins();
        assert!(matches!(
            reg.resolve_site("l2:no-such").unwrap_err(),
            ResolveError::Unknown { .. }
        ));
        assert!(matches!(
            reg.resolve_site("l3:offset-0").unwrap_err(),
            ResolveError::Malformed { .. }
        ));
    }

    #[test]
    fn adaptive_wrapper_is_l2_only_at_site_resolution() {
        // `l3:` wrapping an L2-only spec is the documented mismatch case.
        let err = registry().resolve_site("l3:adaptive-bo").unwrap_err();
        match err {
            ResolveError::SiteMismatch {
                site, supported, ..
            } => {
                assert_eq!(site, PrefetchSite::L3);
                assert_eq!(supported, vec![PrefetchSite::L2]);
            }
            other => panic!("expected SiteMismatch, got {other:?}"),
        }
        assert!(registry().resolve_site("l2:adaptive-bo").is_ok());
    }

    #[test]
    fn re_registration_replaces() {
        let reg = PrefetcherRegistry::with_builtins();
        reg.register("bo", prefetchers::none());
        assert_eq!(
            reg.lookup("bo").expect("still present").name(),
            "no-prefetch"
        );
        let names = reg.names();
        assert_eq!(names.iter().filter(|n| *n == "bo").count(), 1);
    }
}
