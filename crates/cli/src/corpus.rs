//! The sweep corpus manifest: a hand-rolled, zero-dependency parser for
//! the TOML subset `bosim sweep` consumes.
//!
//! A manifest names a set of traces and a set of prefetcher stacks; the
//! sweep runs every (trace × stack) cell. The accepted grammar is a
//! strict TOML subset — top-level `key = value` pairs, `[[trace]]` and
//! `[[stack]]` array sections, string/integer values, `#` comments —
//! parsed line by line with errors naming the offending line:
//!
//! ```toml
//! name = "server-mix"          # experiment id (JSON file stem)
//! instructions = 200000        # optional run-window overrides
//! warmup = 50000
//! skip = 1000000               # optional trace sampling
//! window = 100000
//! interval = 1000000
//!
//! [[trace]]
//! path = "traces/mcf.champsim" # relative to the manifest
//! format = "champsim"          # optional: auto-detected otherwise
//! name = "mcf"                 # optional: file stem otherwise
//!
//! [[stack]]
//! stack = "l2:bo"
//! baseline = "l2:none"         # optional: arm reports speedup over it
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

/// One trace entry of a manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceEntry {
    /// Trace file path (resolved relative to the manifest's directory).
    pub path: PathBuf,
    /// Explicit format name; `None` auto-detects.
    pub format: Option<String>,
    /// Report name; `None` uses the file stem.
    pub name: Option<String>,
}

/// One prefetcher-stack entry of a manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StackEntry {
    /// The subject stack, e.g. `"l1:stride+l2:bo"`.
    pub stack: String,
    /// Optional baseline stack the arm reports speedups against.
    pub baseline: Option<String>,
}

/// A parsed corpus manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Corpus {
    /// Experiment id (JSON file stem); defaults to `"sweep"`.
    pub name: String,
    /// The traces.
    pub traces: Vec<TraceEntry>,
    /// The stacks.
    pub stacks: Vec<StackEntry>,
    /// Measured-instruction override.
    pub instructions: Option<u64>,
    /// Warm-up-instruction override.
    pub warmup: Option<u64>,
    /// Sampling: µops skipped once.
    pub skip: Option<u64>,
    /// Sampling: µops kept per window.
    pub window: Option<u64>,
    /// Sampling: µops between window starts.
    pub interval: Option<u64>,
}

/// A manifest parse error, naming the 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// What was wrong.
    pub what: String,
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "corpus manifest: {}", self.what)
        } else {
            write!(f, "corpus manifest line {}: {}", self.line, self.what)
        }
    }
}

impl std::error::Error for CorpusError {}

/// A parsed scalar value.
enum Value {
    Str(String),
    Int(u64),
}

impl Value {
    fn as_str(&self, line: usize, key: &str) -> Result<String, CorpusError> {
        match self {
            Value::Str(s) => Ok(s.clone()),
            Value::Int(_) => Err(CorpusError {
                line,
                what: format!("{key} expects a string value"),
            }),
        }
    }

    fn as_int(&self, line: usize, key: &str) -> Result<u64, CorpusError> {
        match self {
            Value::Int(n) => Ok(*n),
            Value::Str(_) => Err(CorpusError {
                line,
                what: format!("{key} expects an integer value"),
            }),
        }
    }
}

/// Strips a `#` comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(raw: &str, line: usize) -> Result<Value, CorpusError> {
    let raw = raw.trim();
    if let Some(body) = raw.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(CorpusError {
                line,
                what: format!("unterminated string {raw:?}"),
            });
        };
        if body.contains('"') {
            return Err(CorpusError {
                line,
                what: format!("embedded quote in string {raw:?}"),
            });
        }
        return Ok(Value::Str(body.to_string()));
    }
    raw.replace('_', "")
        .parse::<u64>()
        .map(Value::Int)
        .map_err(|_| CorpusError {
            line,
            what: format!("bad value {raw:?} (expected a \"string\" or a non-negative integer)"),
        })
}

/// Which section the parser is in.
enum Section {
    Top,
    Trace,
    Stack,
}

/// Parses manifest `text`; relative trace paths are resolved against
/// `base_dir` (the manifest's directory).
///
/// # Errors
///
/// Returns a [`CorpusError`] naming the line of the first syntax
/// problem, an unknown key/section, or a structurally empty manifest
/// (no traces or no stacks).
pub fn parse(text: &str, base_dir: &Path) -> Result<Corpus, CorpusError> {
    let mut corpus = Corpus {
        name: "sweep".to_string(),
        ..Default::default()
    };
    let mut section = Section::Top;
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(head) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            match head.trim() {
                "trace" => {
                    corpus.traces.push(TraceEntry::default());
                    section = Section::Trace;
                }
                "stack" => {
                    corpus.stacks.push(StackEntry::default());
                    section = Section::Stack;
                }
                other => {
                    return Err(CorpusError {
                        line: line_no,
                        what: format!("unknown section [[{other}]] (expected trace or stack)"),
                    })
                }
            }
            continue;
        }
        if line.starts_with('[') {
            return Err(CorpusError {
                line: line_no,
                what: format!(
                    "unexpected section {line:?}: only [[trace]] and [[stack]] are supported"
                ),
            });
        }
        let Some((key, raw_value)) = line.split_once('=') else {
            return Err(CorpusError {
                line: line_no,
                what: format!("expected key = value, got {line:?}"),
            });
        };
        let key = key.trim();
        let value = parse_value(raw_value, line_no)?;
        match section {
            Section::Top => match key {
                "name" => corpus.name = value.as_str(line_no, key)?,
                "instructions" => corpus.instructions = Some(value.as_int(line_no, key)?),
                "warmup" => corpus.warmup = Some(value.as_int(line_no, key)?),
                "skip" => corpus.skip = Some(value.as_int(line_no, key)?),
                "window" => corpus.window = Some(value.as_int(line_no, key)?),
                "interval" => corpus.interval = Some(value.as_int(line_no, key)?),
                other => {
                    return Err(CorpusError {
                        line: line_no,
                        what: format!(
                            "unknown top-level key {other:?} (accepted: name, instructions, \
                             warmup, skip, window, interval)"
                        ),
                    })
                }
            },
            Section::Trace => {
                #[expect(
                    clippy::expect_used,
                    reason = "section header push precedes every entry line"
                )]
                let entry = corpus.traces.last_mut().expect("section pushed an entry");
                match key {
                    "path" => {
                        let p = PathBuf::from(value.as_str(line_no, key)?);
                        entry.path = if p.is_absolute() { p } else { base_dir.join(p) };
                    }
                    "format" => entry.format = Some(value.as_str(line_no, key)?),
                    "name" => entry.name = Some(value.as_str(line_no, key)?),
                    other => {
                        return Err(CorpusError {
                            line: line_no,
                            what: format!(
                                "unknown [[trace]] key {other:?} (accepted: path, format, name)"
                            ),
                        })
                    }
                }
            }
            Section::Stack => {
                #[expect(
                    clippy::expect_used,
                    reason = "section header push precedes every entry line"
                )]
                let entry = corpus.stacks.last_mut().expect("section pushed an entry");
                match key {
                    "stack" => entry.stack = value.as_str(line_no, key)?,
                    "baseline" => entry.baseline = Some(value.as_str(line_no, key)?),
                    other => {
                        return Err(CorpusError {
                            line: line_no,
                            what: format!(
                                "unknown [[stack]] key {other:?} (accepted: stack, baseline)"
                            ),
                        })
                    }
                }
            }
        }
    }
    for (i, t) in corpus.traces.iter().enumerate() {
        if t.path.as_os_str().is_empty() {
            return Err(CorpusError {
                line: 0,
                what: format!("[[trace]] entry {} has no path", i + 1),
            });
        }
    }
    for (i, s) in corpus.stacks.iter().enumerate() {
        if s.stack.is_empty() {
            return Err(CorpusError {
                line: 0,
                what: format!("[[stack]] entry {} has no stack", i + 1),
            });
        }
    }
    if corpus.traces.is_empty() {
        return Err(CorpusError {
            line: 0,
            what: "no [[trace]] entries".to_string(),
        });
    }
    if corpus.stacks.is_empty() {
        return Err(CorpusError {
            line: 0,
            what: "no [[stack]] entries".to_string(),
        });
    }
    Ok(corpus)
}

/// Reads and parses a manifest file; relative trace paths resolve
/// against the file's directory.
///
/// # Errors
///
/// Returns I/O failures as a line-0 [`CorpusError`], and parse errors
/// as-is.
pub fn load(path: &Path) -> Result<Corpus, CorpusError> {
    let text = std::fs::read_to_string(path).map_err(|e| CorpusError {
        line: 0,
        what: format!("cannot read {}: {e}", path.display()),
    })?;
    parse(&text, path.parent().unwrap_or(Path::new(".")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a corpus
name = "server-mix"
instructions = 200_000
warmup = 50000

[[trace]]
path = "traces/mcf.champsim"
format = "champsim"
name = "mcf"      # display name

[[trace]]
path = "/abs/astar.addr"

[[stack]]
stack = "l2:bo"
baseline = "l2:none"

[[stack]]
stack = "l1:stride+l2:bo+l3:next-line"
"#;

    #[test]
    fn sample_manifest_parses() {
        let c = parse(SAMPLE, Path::new("/corpus")).unwrap();
        assert_eq!(c.name, "server-mix");
        assert_eq!(c.instructions, Some(200_000));
        assert_eq!(c.warmup, Some(50_000));
        assert_eq!(c.skip, None);
        assert_eq!(c.traces.len(), 2);
        // Relative paths resolve against the manifest directory.
        assert_eq!(
            c.traces[0].path,
            PathBuf::from("/corpus/traces/mcf.champsim")
        );
        assert_eq!(c.traces[0].format.as_deref(), Some("champsim"));
        assert_eq!(c.traces[0].name.as_deref(), Some("mcf"));
        // Absolute paths pass through.
        assert_eq!(c.traces[1].path, PathBuf::from("/abs/astar.addr"));
        assert_eq!(c.stacks.len(), 2);
        assert_eq!(c.stacks[0].baseline.as_deref(), Some("l2:none"));
        assert_eq!(c.stacks[1].stack, "l1:stride+l2:bo+l3:next-line");
        assert_eq!(c.stacks[1].baseline, None);
    }

    #[test]
    fn comments_respect_quotes() {
        let c = parse(
            "name = \"a#b\"\n[[trace]]\npath = \"t.addr\"\n[[stack]]\nstack = \"l2:bo\"\n",
            Path::new("."),
        )
        .unwrap();
        assert_eq!(c.name, "a#b");
    }

    #[test]
    fn errors_name_the_line() {
        let err = parse("nonsense\n", Path::new(".")).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"), "{err}");

        let err = parse("[[bogus]]\n", Path::new(".")).unwrap_err();
        assert!(err.what.contains("[[bogus]]"), "{err}");

        let err = parse("[trace]\n", Path::new(".")).unwrap_err();
        assert!(err.what.contains("[[trace]]"), "{err}");

        let err = parse("name = \"unterminated\n", Path::new(".")).unwrap_err();
        assert!(err.what.contains("unterminated"), "{err}");

        let err = parse("instructions = \"ten\"\n", Path::new(".")).unwrap_err();
        assert!(err.what.contains("integer"), "{err}");

        let err = parse("mystery = 5\n", Path::new(".")).unwrap_err();
        assert!(err.what.contains("mystery"), "{err}");

        let err = parse("[[trace]]\nspeed = 9\n", Path::new(".")).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn structural_emptiness_is_rejected() {
        assert!(parse("name = \"x\"\n", Path::new("."))
            .unwrap_err()
            .what
            .contains("[[trace]]"));
        let only_traces = "[[trace]]\npath = \"t.addr\"\n";
        assert!(parse(only_traces, Path::new("."))
            .unwrap_err()
            .what
            .contains("[[stack]]"));
        let missing_path = "[[trace]]\nname = \"x\"\n[[stack]]\nstack = \"l2:bo\"\n";
        assert!(parse(missing_path, Path::new("."))
            .unwrap_err()
            .what
            .contains("no path"));
        let missing_stack = "[[trace]]\npath = \"t.addr\"\n[[stack]]\nbaseline = \"l2:none\"\n";
        assert!(parse(missing_stack, Path::new("."))
            .unwrap_err()
            .what
            .contains("no stack"));
    }
}
