//! Lint output: the human table and the machine-readable JSON report.

use crate::rules::{Violation, ALL};
use bosim_stats::{Align, Json, Table};
use std::collections::BTreeMap;

/// The outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every violation, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Schema-marked structs checked.
    pub schemas_checked: usize,
    /// Well-formed allow-pragmas per rule id, only for rules that have
    /// one.
    pub pragmas: BTreeMap<&'static str, u64>,
}

impl LintReport {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts per rule id, only for rules that fired.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for v in &self.violations {
            *counts.entry(v.rule.id()).or_insert(0) += 1;
        }
        counts
    }

    /// The footer line under the human output: allow-pragma counts per
    /// rule and their total, e.g. `allow-pragmas: P002×3 P003×1 (4)`.
    pub fn pragma_footer(&self) -> String {
        let counts: Vec<String> = self
            .pragmas
            .iter()
            .map(|(id, n)| format!("{id}×{n}"))
            .collect();
        let total: u64 = self.pragmas.values().sum();
        format!("allow-pragmas: {} ({total})", counts.join(" "))
    }

    /// The aligned human-readable violation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["rule", "", "location", "message"]);
        t.align([Align::Left, Align::Left, Align::Left, Align::Left]);
        for v in &self.violations {
            t.row([
                v.rule.id().to_string(),
                v.rule.slug().to_string(),
                format!("{}:{}", v.file, v.line),
                v.message.clone(),
            ]);
        }
        t
    }

    /// The machine-readable report (`target/reports/lint.json` in CI).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tool", Json::from("bosim-lint")),
            ("files_scanned", Json::from(self.files_scanned)),
            ("schemas_checked", Json::from(self.schemas_checked)),
            ("clean", Json::from(self.is_clean())),
            (
                "counts",
                Json::obj(self.counts().into_iter().map(|(id, n)| (id, Json::from(n)))),
            ),
            (
                "pragmas",
                Json::obj(self.pragmas.iter().map(|(id, n)| (*id, Json::from(*n)))),
            ),
            (
                "violations",
                Json::arr(self.violations.iter().map(|v| {
                    Json::obj([
                        ("rule", Json::from(v.rule.id())),
                        ("slug", Json::from(v.rule.slug())),
                        ("file", Json::from(v.file.as_str())),
                        ("line", Json::from(u64::from(v.line))),
                        ("message", Json::from(v.message.as_str())),
                    ])
                })),
            ),
        ])
    }
}

/// The rule catalogue as a table (`bosim-lint --rules`).
pub fn rules_table() -> Table {
    let mut t = Table::new(["rule", "", "description"]);
    t.align([Align::Left, Align::Left, Align::Left]);
    for r in ALL {
        t.row([
            r.id().to_string(),
            r.slug().to_string(),
            r.describe().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn report() -> LintReport {
        LintReport {
            violations: vec![Violation {
                rule: Rule::P001,
                file: "crates/x/src/a.rs".into(),
                line: 7,
                message: ".unwrap() in library code".into(),
            }],
            files_scanned: 3,
            schemas_checked: 1,
            pragmas: BTreeMap::from([("P002", 5), ("P003", 2)]),
        }
    }

    #[test]
    fn json_report_shape() {
        let j = report().to_json().to_string();
        assert!(j.contains("\"tool\":\"bosim-lint\""), "{j}");
        assert!(j.contains("\"clean\":false"));
        assert!(j.contains("\"P001\":1"));
        assert!(j.contains("\"file\":\"crates/x/src/a.rs\""));
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("\"pragmas\":{\"P002\":5,\"P003\":2}"), "{j}");
    }

    #[test]
    fn footer_counts_pragmas_per_rule() {
        assert_eq!(report().pragma_footer(), "allow-pragmas: P002×5 P003×2 (7)");
    }

    #[test]
    fn table_lists_locations() {
        let t = report().table().to_tsv();
        assert!(t.contains("crates/x/src/a.rs:7"), "{t}");
        assert!(t.contains("P001"));
    }

    #[test]
    fn rules_table_covers_every_rule() {
        let t = rules_table().to_tsv();
        for r in ALL {
            assert!(t.contains(r.id()), "{} missing from --rules", r.id());
        }
    }
}
