//! The self-hosting test: the lint must pass over its own workspace.
//!
//! This is the executable form of the determinism/panic-freedom
//! contract — any new `unwrap()` in library code, hash-ordered
//! container in a sensitive crate, or schema-table drift in
//! `docs/ARCHITECTURE.md` fails this test before it ever reaches CI.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = bosim_lint::run(&root).expect("workspace sources readable");
    assert!(
        report.is_clean(),
        "bosim-lint found violations:\n{}",
        report.table().to_markdown()
    );
    // Sanity: the walk really covered the workspace, not an empty dir.
    assert!(
        report.files_scanned > 100,
        "only {} files scanned — walk is broken",
        report.files_scanned
    );
    // All schema-marked structs were cross-checked: the run summary,
    // the site and epoch records, the four observability schemas
    // (report, event, profile, profile-phase) and the three
    // sweep-service schemas (journal header, journal row, stream event).
    assert_eq!(report.schemas_checked, 10, "schema markers went missing");
}

#[test]
fn architecture_docs_exist_for_schema_rules() {
    // `run()` tolerates missing docs (every field would flag S002), so
    // pin the file's existence separately.
    let docs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/ARCHITECTURE.md");
    let text = std::fs::read_to_string(&docs).expect("docs/ARCHITECTURE.md exists");
    assert!(
        text.contains("## Report JSON schema"),
        "schema section renamed — update the S-rule docs cross-check"
    );
}
