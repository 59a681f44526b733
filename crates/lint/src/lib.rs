//! `bosim-lint`: self-hosted static analysis for the bosim workspace.
//!
//! The simulator's correctness story rests on properties the compiler
//! does not check: bit-identical results across the naive and
//! fast-forward paths (golden stats), byte-stable reports, panic-free
//! library crates, and data-race freedom in the threaded experiment
//! runner. This crate enforces the
//! statically checkable part with a hand-rolled Rust lexer in the same
//! zero-dependency style as the workspace's TOML-subset parser and
//! [`Json`](bosim_stats::Json) emitter:
//!
//! * **D-rules** — no `HashMap`/`HashSet` in determinism-sensitive
//!   crates, no wall clocks outside the timing modules, no unseeded
//!   randomness ([`engine`]).
//! * **P-rules** — no `unwrap()`/`expect()`/`panic!` in library code;
//!   documented invariants carry
//!   `// bosim-lint: allow(<RULE>, <reason>)` pragmas.
//! * **S-rules** — schema-marked counter structs stay in sync with the
//!   report-JSON writers and `docs/ARCHITECTURE.md` ([`schema`]).
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p bosim-lint            # human table, exit 1 on violations
//! cargo run -p bosim-lint -- --json target/reports/lint.json
//! cargo run -p bosim-lint -- --rules # the rule catalogue
//! ```
//!
//! `docs/ANALYSIS.md` documents every rule with its rationale. The
//! Miri and ThreadSanitizer CI jobs configured in
//! `.github/workflows/` cover the dynamic half of the same story.

#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod schema;
pub mod walk;

pub use engine::{FileKind, SourceFile};
pub use report::{rules_table, LintReport};
pub use rules::{Rule, Violation};

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// Lints the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`).
///
/// # Errors
///
/// Propagates I/O failures while reading source trees. A missing
/// `docs/ARCHITECTURE.md` is not an I/O error: the S-rules then report
/// every schema field as undocumented.
pub fn run(root: &Path) -> io::Result<LintReport> {
    let sources = walk::workspace_sources(root)?;
    let docs = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap_or_default();
    Ok(lint_sources(&sources, &docs))
}

/// Lints an in-memory set of `(workspace-relative path, contents)`
/// sources against the given architecture docs — the pure core of
/// [`run`], used directly by the fixture tests.
pub fn lint_sources(sources: &[(String, String)], docs: &str) -> LintReport {
    let mut violations = Vec::new();
    let mut schemas = Vec::new();
    let mut strings: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut pragmas: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut files_scanned = 0usize;
    for (path, contents) in sources {
        let Some(file) = SourceFile::classify(path) else {
            continue;
        };
        files_scanned += 1;
        let mut analysis = engine::analyze(&file, contents);
        violations.append(&mut analysis.violations);
        schemas.append(&mut analysis.schemas);
        for rule in analysis.allows {
            *pragmas.entry(rule.id()).or_insert(0) += 1;
        }
        strings
            .entry(file.krate)
            .or_default()
            .extend(analysis.strings);
    }
    violations.extend(schema::check(&schemas, &strings, docs));
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    LintReport {
        violations,
        files_scanned,
        schemas_checked: schemas.len(),
        pragmas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, body: &str) -> (String, String) {
        (path.to_string(), body.to_string())
    }

    #[test]
    fn end_to_end_over_in_memory_sources() {
        let sources = vec![
            src(
                "crates/cache/src/bad.rs",
                "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }",
            ),
            src(
                "crates/adapt/src/schema.rs",
                "// bosim-lint: schema(demo)\npub struct D { pub ipc: f64 }\n\
                 pub fn k() -> &'static str { \"ipc\" }",
            ),
        ];
        let report = lint_sources(&sources, "| `ipc` |");
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.schemas_checked, 1);
        let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, [Rule::P001]);
    }

    #[test]
    fn allow_pragmas_are_counted_per_rule() {
        let sources = vec![
            src(
                "crates/cache/src/a.rs",
                "// bosim-lint: allow(P002, checked above)\n\
                 // bosim-lint: allow(D004, independent workers)\n\
                 pub fn f() {}",
            ),
            src(
                "crates/dram/src/b.rs",
                "pub fn g() {} // bosim-lint: allow(P002, checked above)\n\
                 // bosim-lint: allow(P003)\n\
                 // bosim-lint: schema(x)\npub struct S { pub a: u8 }",
            ),
            // Fixtures are not scanned, so their pragmas do not count.
            src(
                "crates/lint/fixtures/f.rs",
                "// bosim-lint: allow(P001, fixture)\npub fn h() {}",
            ),
        ];
        let report = lint_sources(&sources, "| `a` |");
        // The reason-less P003 pragma is an L001 violation and the schema
        // pragma allows nothing: neither counts.
        let counts: Vec<(&str, u64)> = report.pragmas.into_iter().collect();
        assert_eq!(counts, [("D004", 1), ("P002", 2)]);
    }

    #[test]
    fn schema_desync_is_reported() {
        let sources = vec![src(
            "crates/adapt/src/schema.rs",
            "// bosim-lint: schema(demo)\npub struct D { pub brand_new_counter: u64 }",
        )];
        let report = lint_sources(&sources, "");
        let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, [Rule::S001, Rule::S002]);
    }
}
