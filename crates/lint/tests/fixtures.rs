//! Pins each lint rule to a fixture file: every rule fires on its
//! firing fixture, every pragma position suppresses on `suppressed.rs`,
//! and near-miss patterns stay silent on `clean.rs`.
//!
//! The fixtures live under `crates/lint/fixtures/`, which the
//! workspace walk skips; here they are replayed through
//! [`bosim_lint::lint_sources`] under simulated sensitive paths.

use bosim_lint::{lint_sources, LintReport, Rule};

/// Lints one fixture as if it lived at `path`, against docs that only
/// document the `ipc` field.
fn lint_at(path: &str, contents: &str) -> LintReport {
    let sources = vec![(path.to_string(), contents.to_string())];
    lint_sources(&sources, "| `ipc` | instructions per cycle |")
}

/// The rule ids that fired, in report order.
fn rules(report: &LintReport) -> Vec<Rule> {
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn d001_fires_on_hash_containers_in_sensitive_crates() {
    let fixture = include_str!("../fixtures/d001_hash_containers.rs");
    let report = lint_at("crates/cache/src/fixture.rs", fixture);
    assert_eq!(
        rules(&report),
        [Rule::D001, Rule::D001, Rule::D001, Rule::D001],
        "{report:?}"
    );
    assert!(!report.is_clean());
    // The same file in a non-sensitive crate is silent.
    let report = lint_at("crates/stats/src/fixture.rs", fixture);
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn d002_fires_on_wall_clocks_outside_timing_modules() {
    let fixture = include_str!("../fixtures/d002_wall_clock.rs");
    let report = lint_at("crates/stats/src/fixture.rs", fixture);
    assert_eq!(rules(&report), [Rule::D002, Rule::D002], "{report:?}");
    // The experiment harness times its runs, so it is exempt by design.
    let report = lint_at("crates/bench/src/experiment.rs", fixture);
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn d003_fires_on_unseeded_randomness() {
    let fixture = include_str!("../fixtures/d003_unseeded_rng.rs");
    let report = lint_at("crates/core/src/fixture.rs", fixture);
    assert_eq!(rules(&report), [Rule::D003, Rule::D003], "{report:?}");
}

#[test]
fn p001_fires_on_unwrap_in_lib_code_only() {
    let fixture = include_str!("../fixtures/p001_unwrap.rs");
    let report = lint_at("crates/cache/src/fixture.rs", fixture);
    assert_eq!(rules(&report), [Rule::P001], "{report:?}");
    // Binaries and tests may unwrap freely.
    assert!(lint_at("crates/cli/src/main.rs", fixture).is_clean());
    assert!(lint_at("tests/tests/fixture.rs", fixture).is_clean());
}

#[test]
fn p002_fires_on_expect() {
    let fixture = include_str!("../fixtures/p002_expect.rs");
    let report = lint_at("crates/sim/src/fixture.rs", fixture);
    assert_eq!(rules(&report), [Rule::P002], "{report:?}");
}

#[test]
fn p003_fires_on_panicking_macros_but_not_unreachable() {
    let fixture = include_str!("../fixtures/p003_panic.rs");
    let report = lint_at("crates/dram/src/fixture.rs", fixture);
    assert_eq!(
        rules(&report),
        [Rule::P003, Rule::P003, Rule::P003],
        "{report:?}"
    );
    for v in &report.violations {
        assert!(
            !v.message.contains("unreachable"),
            "unreachable! must stay allowed: {v:?}"
        );
    }
}

#[test]
fn l001_fires_on_malformed_pragmas() {
    let fixture = include_str!("../fixtures/l001_bad_pragmas.rs");
    let report = lint_at("crates/cache/src/fixture.rs", fixture);
    assert_eq!(
        rules(&report),
        [Rule::L001, Rule::L001, Rule::L001],
        "{report:?}"
    );
    let msgs: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.message.as_str())
        .collect();
    assert!(msgs[0].contains("no reason"), "{msgs:?}");
    assert!(msgs[1].contains("unknown rule"), "{msgs:?}");
    assert!(msgs[2].contains("unknown bosim-lint directive"), "{msgs:?}");
}

#[test]
fn s_rules_fire_on_schema_drift() {
    let fixture = include_str!("../fixtures/s_schema_drift.rs");
    let report = lint_at("crates/adapt/src/fixture.rs", fixture);
    assert_eq!(report.schemas_checked, 1);
    // `brand_new_counter` is neither emitted (S001) nor documented
    // (S002); `ipc` is both and must not be flagged.
    assert_eq!(rules(&report), [Rule::S001, Rule::S002], "{report:?}");
    for v in &report.violations {
        assert!(v.message.contains("brand_new_counter"), "{v:?}");
    }
}

#[test]
fn well_formed_pragmas_suppress_every_rule() {
    let fixture = include_str!("../fixtures/suppressed.rs");
    let report = lint_at("crates/cache/src/fixture.rs", fixture);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn near_miss_patterns_stay_silent() {
    let fixture = include_str!("../fixtures/clean.rs");
    let report = lint_at("crates/cache/src/fixture.rs", fixture);
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn fixture_reports_serialise_and_exitworthy() {
    // The JSON report carries every violation; a dirty report is what
    // drives the binary's non-zero exit.
    let fixture = include_str!("../fixtures/p001_unwrap.rs");
    let report = lint_at("crates/cache/src/fixture.rs", fixture);
    let json = report.to_json().to_string();
    assert!(json.contains("\"P001\""), "{json}");
    assert!(json.contains("crates/cache/src/fixture.rs"), "{json}");
    assert!(!report.is_clean());
}
