//! Per-file analysis: classification, test regions, pragmas and the
//! token-level D/P rules.

use crate::lexer::{lex, Tok, Token};
use crate::rules::{Rule, Violation};

/// What kind of source file this is — rules apply per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: every rule family applies.
    Lib,
    /// A binary target (`src/bin/**`, `src/main.rs`, `build.rs`):
    /// drivers may panic on startup errors and time themselves.
    Bin,
    /// An example: exempt like binaries.
    Example,
    /// Test code (`tests/` trees and the `bosim-tests` member).
    Test,
}

/// A classified source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Crate name (the directory under `crates/`), or `"tests"` /
    /// `"examples"` for the workspace-level trees.
    pub krate: String,
    /// Target classification.
    pub kind: FileKind,
}

/// Crates whose library code feeds `SimResult`s or report output, where
/// rule D001 bans hash-ordered containers outright.
pub const DETERMINISM_CRATES: [&str; 8] = [
    "core",
    "cache",
    "cpu",
    "dram",
    "sim",
    "adapt",
    "baselines",
    "obs",
];

/// Extra library files under non-sensitive crates that still render
/// user-visible output and must stay byte-stable (rule D001).
pub const DETERMINISM_FILES: [&str; 1] = ["crates/trace/src/analyze.rs"];

/// Library modules allowed to read wall clocks (rule D002): the
/// experiment harness (it times runs for its report) and the host
/// profiler (wall time is its product; it never feeds sim state).
/// The shared artifact store deliberately needs no entry — its
/// freshness keys come from filesystem mtimes (`metadata()`), and its
/// LRU order from a logical counter, never from reading a clock.
/// Likewise the serve journal and queue: resume ordering is by job
/// index, so checkpoint files carry no timestamps at all.
pub const WALL_CLOCK_FILES: [&str; 2] = [
    "crates/bench/src/experiment.rs",
    "crates/obs/src/profile.rs",
];

impl SourceFile {
    /// Classifies a workspace-relative path. Returns `None` for files
    /// the lint does not scan (lint fixtures, criterion benches).
    pub fn classify(path: &str) -> Option<SourceFile> {
        if !path.ends_with(".rs")
            || path.contains("/fixtures/")
            || path.contains("/benches/")
            || path.contains("/target/")
        {
            return None;
        }
        let krate = path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next())
            .unwrap_or_else(|| {
                if path.starts_with("examples/") {
                    "examples"
                } else {
                    "tests"
                }
            })
            .to_string();
        let kind = if path.starts_with("tests/") || path.contains("/tests/") {
            FileKind::Test
        } else if path.starts_with("examples/") || path.contains("/examples/") {
            FileKind::Example
        } else if path.contains("/src/bin/")
            || path.ends_with("/main.rs")
            || path.ends_with("build.rs")
        {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        Some(SourceFile {
            path: path.to_string(),
            krate,
            kind,
        })
    }

    fn is_determinism_sensitive(&self) -> bool {
        DETERMINISM_CRATES.contains(&self.krate.as_str())
            || DETERMINISM_FILES.contains(&self.path.as_str())
    }

    fn may_read_wall_clock(&self) -> bool {
        WALL_CLOCK_FILES.contains(&self.path.as_str())
    }
}

/// A parsed `// bosim-lint: …` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pragma {
    /// `allow(<RULE>, <reason>)` — suppresses `RULE` on this or the
    /// next source line; the reason is mandatory.
    Allow(Rule),
    /// `schema(<label>)` — marks the following struct for S-rules.
    Schema(String),
}

/// A schema-marked struct: its label and public field names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaStruct {
    /// Label from the `schema(…)` pragma.
    pub label: String,
    /// Struct name.
    pub name: String,
    /// Crate the struct lives in.
    pub krate: String,
    /// Path and line of the struct definition.
    pub file: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Public field names, in declaration order.
    pub fields: Vec<String>,
}

/// Everything one file contributes to the workspace-wide analysis.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// D/P/L violations found in this file.
    pub violations: Vec<Violation>,
    /// Schema-marked structs defined in this file.
    pub schemas: Vec<SchemaStruct>,
    /// String literals appearing in non-test code (JSON keys live
    /// here); consumed by the S-rule cross-check.
    pub strings: Vec<String>,
    /// The rule of each well-formed allow-pragma in this file.
    pub allows: Vec<Rule>,
}

/// Lints one file's source text.
pub fn analyze(file: &SourceFile, src: &str) -> FileAnalysis {
    let tokens = lex(src);
    let test_spans = test_spans(&tokens);
    let in_test =
        |idx: usize| file.kind == FileKind::Test || test_spans.iter().any(|s| s.contains(&idx));

    let mut out = FileAnalysis::default();
    let mut pragmas: Vec<(u32, Pragma)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if let Tok::LineComment(text) = &t.tok {
            match parse_pragma(text) {
                PragmaParse::None => {}
                PragmaParse::Ok(p) => {
                    if let Pragma::Schema(label) = &p {
                        match collect_schema(file, &tokens, i, label) {
                            Some(s) => out.schemas.push(s),
                            None => out.violations.push(Violation {
                                rule: Rule::L001,
                                file: file.path.clone(),
                                line: t.line,
                                message: format!(
                                    "schema({label}) pragma is not followed by a struct \
                                     with named fields"
                                ),
                            }),
                        }
                    }
                    if let Pragma::Allow(rule) = p {
                        out.allows.push(rule);
                    }
                    pragmas.push((t.line, p));
                }
                PragmaParse::Bad(why) => out.violations.push(Violation {
                    rule: Rule::L001,
                    file: file.path.clone(),
                    line: t.line,
                    message: why,
                }),
            }
        }
    }

    let allowed = |rule: Rule, line: u32| {
        pragmas
            .iter()
            .any(|(l, p)| *p == Pragma::Allow(rule) && (*l == line || l.wrapping_add(1) == line))
    };
    let mut fire = |rule: Rule, line: u32, message: String| {
        if !allowed(rule, line) {
            out.violations.push(Violation {
                rule,
                file: file.path.clone(),
                line,
                message,
            });
        }
    };

    // Token index of the previous / next non-comment token.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    for (ci, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        let Some(name) = t.ident() else { continue };
        if in_test(i) {
            continue;
        }
        let prev = ci.checked_sub(1).map(|p| &tokens[code[p]]);
        let next = code.get(ci + 1).map(|&n| &tokens[n]);
        let next2 = code.get(ci + 2).map(|&n| &tokens[n]);
        let next3 = code.get(ci + 3).map(|&n| &tokens[n]);

        // Non-test string literals feed the S-rule JSON-key cross-check
        // (collected here so the loop owns all token context).
        match name {
            "unwrap"
                if file.kind == FileKind::Lib
                    && prev.is_some_and(|p| p.is_punct('.'))
                    && next.is_some_and(|n| n.is_punct('(')) =>
            {
                fire(Rule::P001, t.line, ".unwrap() in library code".into());
            }
            "expect"
                if file.kind == FileKind::Lib
                    && prev.is_some_and(|p| p.is_punct('.'))
                    && next.is_some_and(|n| n.is_punct('(')) =>
            {
                fire(Rule::P002, t.line, ".expect(…) in library code".into());
            }
            // `panic!` the macro — not a `std::panic::…` path.
            "panic" | "todo" | "unimplemented"
                if file.kind == FileKind::Lib && next.is_some_and(|n| n.is_punct('!')) =>
            {
                fire(Rule::P003, t.line, format!("{name}! in library code"));
            }
            "HashMap" | "HashSet"
                if file.kind == FileKind::Lib && file.is_determinism_sensitive() =>
            {
                fire(
                    Rule::D001,
                    t.line,
                    format!(
                        "{name} in determinism-sensitive crate `{}` (iteration order is \
                         randomised; use BTreeMap/BTreeSet or sort before iterating)",
                        file.krate
                    ),
                );
            }
            "Instant" | "SystemTime" if file.kind == FileKind::Lib => {
                let is_now = next.is_some_and(|n| n.is_punct(':'))
                    && next2.is_some_and(|n| n.is_punct(':'))
                    && next3.is_some_and(|n| n.ident() == Some("now"));
                if is_now && !file.may_read_wall_clock() {
                    fire(
                        Rule::D002,
                        t.line,
                        format!("{name}::now() outside the timing modules"),
                    );
                }
            }
            "RandomState" | "thread_rng" | "getrandom" | "from_entropy"
                if file.kind == FileKind::Lib =>
            {
                fire(Rule::D003, t.line, format!("unseeded randomness: {name}"));
            }
            // `thread::spawn` / `thread::scope` / `thread::Builder` —
            // yield_now/available_parallelism don't create threads and
            // stay legal everywhere. Every spawn in a sensitive crate
            // needs a pragma arguing why scheduling cannot reach results.
            "thread"
                if file.kind == FileKind::Lib
                    && file.is_determinism_sensitive()
                    && next.is_some_and(|n| n.is_punct(':'))
                    && next2.is_some_and(|n| n.is_punct(':'))
                    && next3.is_some_and(|n| {
                        matches!(n.ident(), Some("spawn" | "scope" | "Builder"))
                    }) =>
            {
                let what = next3.and_then(|n| n.ident()).unwrap_or("spawn");
                fire(
                    Rule::D004,
                    t.line,
                    format!(
                        "thread::{what} in determinism-sensitive crate `{}` \
                         (scheduling order may leak into results)",
                        file.krate
                    ),
                );
            }
            _ => {}
        }
    }

    for (i, t) in tokens.iter().enumerate() {
        if let Tok::Str(s) = &t.tok {
            if !in_test(i) {
                out.strings.push(s.clone());
            }
        }
    }
    out
}

/// Result of scanning a comment for a pragma.
enum PragmaParse {
    None,
    Ok(Pragma),
    Bad(String),
}

/// Parses `bosim-lint:` directives out of a line comment's text.
fn parse_pragma(comment: &str) -> PragmaParse {
    let text = comment.trim();
    let Some(body) = text.strip_prefix("bosim-lint:") else {
        return PragmaParse::None;
    };
    let body = body.trim();
    if let Some(args) = strip_call(body, "allow") {
        let (id, reason) = match args.split_once(',') {
            Some((id, reason)) => (id.trim(), reason.trim()),
            None => (args.trim(), ""),
        };
        let Some(rule) = Rule::parse(id) else {
            return PragmaParse::Bad(format!("allow-pragma names unknown rule {id:?}"));
        };
        if reason.is_empty() {
            return PragmaParse::Bad(format!(
                "allow({id}) pragma has no reason — write allow({id}, <why this is sound>)"
            ));
        }
        return PragmaParse::Ok(Pragma::Allow(rule));
    }
    if let Some(label) = strip_call(body, "schema") {
        let label = label.trim();
        if label.is_empty() {
            return PragmaParse::Bad("schema() pragma has no label".into());
        }
        return PragmaParse::Ok(Pragma::Schema(label.to_string()));
    }
    PragmaParse::Bad(format!(
        "unknown bosim-lint directive {body:?} (expected allow(RULE, reason) or schema(label))"
    ))
}

/// `strip_call("allow(x, y)", "allow")` → `Some("x, y")`.
fn strip_call<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    body.strip_prefix(name)?
        .trim_start()
        .strip_prefix('(')?
        .strip_suffix(')')
}

/// Byte-index spans of `#[cfg(test)]` / `#[test]` items in the token
/// stream. The span covers the attribute through the end of the item it
/// decorates (matched braces, or the terminating `;` for brace-less
/// items).
fn test_spans(tokens: &[Token]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut is_test = false;
            let mut negated = false;
            while j < tokens.len() && depth > 0 {
                let t = &tokens[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                } else if t.ident() == Some("test") {
                    is_test = true;
                } else if t.ident() == Some("not") {
                    negated = true;
                }
                j += 1;
            }
            if is_test && !negated {
                // Find the decorated item's end: first `{` → matching
                // `}`, or a `;` before any `{`.
                let mut k = j;
                let mut braces = 0i32;
                while k < tokens.len() {
                    let t = &tokens[k];
                    if t.is_punct('{') {
                        braces += 1;
                    } else if t.is_punct('}') {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    } else if t.is_punct(';') && braces == 0 {
                        break;
                    }
                    k += 1;
                }
                spans.push(i..k + 1);
                i = k + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// Reads the struct following a `schema(label)` pragma at token `at`.
fn collect_schema(
    file: &SourceFile,
    tokens: &[Token],
    at: usize,
    label: &str,
) -> Option<SchemaStruct> {
    // Skip comments, attributes and doc comments to `pub struct Name {`.
    let mut i = at + 1;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_comment() {
            i += 1;
        } else if t.is_punct('#') {
            let mut depth = 0i32;
            i += 1;
            while i < tokens.len() {
                if tokens[i].is_punct('[') {
                    depth += 1;
                } else if tokens[i].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        } else {
            break;
        }
    }
    while tokens.get(i).and_then(|t| t.ident()) == Some("pub") {
        i += 1;
    }
    if tokens.get(i).and_then(|t| t.ident()) != Some("struct") {
        return None;
    }
    let line = tokens[i].line;
    let name = tokens.get(i + 1)?.ident()?.to_string();
    // Advance to the opening brace (skipping any generics).
    let mut j = i + 2;
    while j < tokens.len() && !tokens[j].is_punct('{') {
        if tokens[j].is_punct(';') || tokens[j].is_punct('(') {
            return None; // unit or tuple struct: nothing to schema-check
        }
        j += 1;
    }
    // Collect `pub <field>:` at brace depth 1, paren/bracket depth 0.
    let mut fields = Vec::new();
    let (mut braces, mut parens, mut brackets) = (0i32, 0i32, 0i32);
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('{') {
            braces += 1;
        } else if t.is_punct('}') {
            braces -= 1;
            if braces == 0 {
                break;
            }
        } else if t.is_punct('(') {
            parens += 1;
        } else if t.is_punct(')') {
            parens -= 1;
        } else if t.is_punct('[') {
            brackets += 1;
        } else if t.is_punct(']') {
            brackets -= 1;
        } else if braces == 1
            && parens == 0
            && brackets == 0
            && t.ident() == Some("pub")
            && tokens.get(j + 2).is_some_and(|c| c.is_punct(':'))
        {
            if let Some(f) = tokens.get(j + 1).and_then(|t| t.ident()) {
                fields.push(f.to_string());
            }
        }
        j += 1;
    }
    if fields.is_empty() {
        return None;
    }
    Some(SchemaStruct {
        label: label.to_string(),
        name,
        krate: file.krate.clone(),
        file: file.path.clone(),
        line,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(path: &str) -> SourceFile {
        SourceFile::classify(path).expect("classifiable")
    }

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        analyze(&lib(path), src).violations
    }

    #[test]
    fn classification() {
        assert_eq!(lib("crates/cache/src/fill.rs").kind, FileKind::Lib);
        assert_eq!(lib("crates/cache/src/fill.rs").krate, "cache");
        assert_eq!(lib("crates/cli/src/main.rs").kind, FileKind::Bin);
        assert_eq!(lib("crates/bench/src/bin/ingest.rs").kind, FileKind::Bin);
        assert_eq!(lib("crates/cache/tests/e2e.rs").kind, FileKind::Test);
        assert_eq!(lib("tests/tests/golden_stats.rs").kind, FileKind::Test);
        assert_eq!(lib("tests/src/lib.rs").kind, FileKind::Test);
        assert_eq!(lib("examples/quickstart.rs").kind, FileKind::Example);
        assert!(SourceFile::classify("crates/lint/fixtures/p001.rs").is_none());
        assert!(SourceFile::classify("crates/bench/benches/micro.rs").is_none());
    }

    #[test]
    fn unwrap_fires_only_in_lib_code() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(lint("crates/cache/src/a.rs", src).len(), 1);
        assert_eq!(lint("crates/cache/src/a.rs", src)[0].rule, Rule::P001);
        assert!(lint("crates/cli/src/main.rs", src).is_empty());
        assert!(lint("tests/tests/a.rs", src).is_empty());
        // unwrap_or_else is a different identifier entirely.
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }";
        assert!(lint("crates/cache/src/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = r#"
            pub fn ok() {}
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { None::<u8>.unwrap(); panic!("boom"); }
            }
        "#;
        assert!(lint("crates/sim/src/a.rs", src).is_empty());
        // …but cfg(not(test)) is live code.
        let src = "#[cfg(not(test))]\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(lint("crates/sim/src/a.rs", src).len(), 1);
    }

    #[test]
    fn pragmas_suppress_on_their_own_line_or_trailing() {
        let above = "pub fn f(x: Option<u8>) -> u8 {\n\
                     // bosim-lint: allow(P001, checked by caller)\n\
                     x.unwrap() }";
        assert!(lint("crates/cache/src/a.rs", above).is_empty());
        let trailing = "pub fn f(x: Option<u8>) -> u8 {\n\
                        x.unwrap() // bosim-lint: allow(P001, checked by caller)\n}";
        assert!(lint("crates/cache/src/a.rs", trailing).is_empty());
        // A pragma two lines up does not reach.
        let far = "pub fn f(x: Option<u8>) -> u8 {\n\
                   // bosim-lint: allow(P001, checked by caller)\n\n\
                   x.unwrap() }";
        assert_eq!(lint("crates/cache/src/a.rs", far).len(), 1);
    }

    #[test]
    fn bad_pragmas_are_violations() {
        let missing_reason = "// bosim-lint: allow(P001)\npub fn f() {}";
        let v = lint("crates/cache/src/a.rs", missing_reason);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::L001);
        let unknown_rule = "// bosim-lint: allow(Q999, whatever)\npub fn f() {}";
        assert_eq!(
            lint("crates/cache/src/a.rs", unknown_rule)[0].rule,
            Rule::L001
        );
        let unknown_directive = "// bosim-lint: deny(P001)\npub fn f() {}";
        assert_eq!(
            lint("crates/cache/src/a.rs", unknown_directive)[0].rule,
            Rule::L001
        );
    }

    #[test]
    fn d_rules_scope_to_sensitive_paths() {
        let src = "use std::collections::HashMap;";
        assert_eq!(lint("crates/sim/src/a.rs", src)[0].rule, Rule::D001);
        assert_eq!(lint("crates/trace/src/analyze.rs", src)[0].rule, Rule::D001);
        assert!(lint("crates/trace/src/champsim.rs", src).is_empty());
        assert!(lint("crates/stats/src/a.rs", src).is_empty());

        let now = "pub fn t() { let _ = std::time::Instant::now(); }";
        assert_eq!(lint("crates/stats/src/a.rs", now)[0].rule, Rule::D002);
        assert!(lint("crates/bench/src/experiment.rs", now).is_empty());
        assert!(lint("crates/obs/src/profile.rs", now).is_empty());

        // The checkpoint/resume path is deliberately wall-clock-free:
        // the artifact store keys freshness on filesystem mtimes and a
        // logical LRU counter, and the serve journal orders rows by
        // job index, so none of these modules holds a D002 allowance.
        for path in [
            "crates/trace/src/artifact.rs",
            "crates/trace/src/ingest.rs",
            "crates/bench/src/journal.rs",
            "crates/cli/src/queue.rs",
            "crates/cli/src/serve.rs",
        ] {
            assert_eq!(lint(path, now)[0].rule, Rule::D002, "{path}");
        }
        // The type alone (without ::now) is fine anywhere.
        let ty = "pub fn t(at: std::time::Instant) {}";
        assert!(lint("crates/stats/src/a.rs", ty).is_empty());

        let rng = "use std::collections::hash_map::RandomState;";
        assert_eq!(lint("crates/stats/src/a.rs", rng)[0].rule, Rule::D003);
    }

    #[test]
    fn thread_spawning_in_sensitive_crates_needs_a_pragma() {
        for src in [
            "pub fn f() { std::thread::spawn(|| {}); }",
            "pub fn f() { std::thread::scope(|s| {}); }",
            "pub fn f() { let b = std::thread::Builder::new(); }",
        ] {
            for path in ["crates/sim/src/uncore.rs", "crates/sim/src/runner.rs"] {
                let v = lint(path, src);
                assert_eq!(v.len(), 1, "{path}: {src}");
                assert_eq!(v[0].rule, Rule::D004, "{path}: {src}");
            }
            // Non-sensitive crates may thread freely.
            assert!(lint("crates/bench/src/runner.rs", src).is_empty(), "{src}");
        }
        // Non-spawning thread APIs stay legal everywhere.
        let benign = "pub fn f() { std::thread::yield_now(); \
                      let _ = std::thread::available_parallelism(); }";
        assert!(lint("crates/sim/src/uncore.rs", benign).is_empty());
        // A justified pragma is the only way to spawn in a sensitive crate.
        let allowed = "pub fn f() {\n\
                       // bosim-lint: allow(D004, independent whole-run workers)\n\
                       std::thread::scope(|s| {}); }";
        assert!(lint("crates/sim/src/runner.rs", allowed).is_empty());
    }

    #[test]
    fn schema_structs_are_collected() {
        let src = r#"
            // bosim-lint: schema(demo)
            #[derive(Debug, Clone)]
            pub struct Demo {
                /// Docs.
                pub ipc: f64,
                pub pairs: Vec<(String, u64)>,
                secret: u8,
            }
        "#;
        let a = analyze(&lib("crates/adapt/src/a.rs"), src);
        assert_eq!(a.schemas.len(), 1);
        assert_eq!(a.schemas[0].name, "Demo");
        assert_eq!(a.schemas[0].fields, ["ipc", "pairs"]);
        // A schema pragma with no struct after it is malformed.
        let a = analyze(
            &lib("crates/adapt/src/a.rs"),
            "// bosim-lint: schema(x)\npub fn f() {}",
        );
        assert_eq!(a.violations[0].rule, Rule::L001);
    }

    #[test]
    fn strings_in_test_code_do_not_count_as_json_keys() {
        let src = r#"
            pub fn writer() -> &'static str { "ipc" }
            #[cfg(test)]
            mod tests { pub fn t() -> &'static str { "only_in_tests" } }
        "#;
        let a = analyze(&lib("crates/adapt/src/a.rs"), src);
        assert!(a.strings.contains(&"ipc".to_string()));
        assert!(!a.strings.contains(&"only_in_tests".to_string()));
    }
}
