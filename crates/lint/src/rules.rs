//! The rule catalogue.
//!
//! Three families, mirroring the invariants the simulator's correctness
//! argument rests on (see `docs/ANALYSIS.md` for the full rationale):
//!
//! * **D-rules** — determinism: the golden-stats guarantee (naive and
//!   fast-forward paths produce bit-identical `SimResult`s) and
//!   byte-stable reports are only meaningful if no ambient
//!   nondeterminism (hash iteration order, wall clocks, unseeded
//!   randomness) can reach them.
//! * **P-rules** — panic-freedom: library code reports failures as
//!   typed errors; panics are reserved for documented internal
//!   invariants, each carrying an allow-pragma with its justification.
//! * **S-rules** — schema sync: every field of a schema-marked counter
//!   struct must be emitted by the report-JSON writers and documented
//!   in the `docs/ARCHITECTURE.md` schema tables.
//!
//! `L001` polices the lint's own pragma syntax so suppressions cannot
//! silently rot.

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a determinism-sensitive crate.
    D001,
    /// `Instant::now`/`SystemTime::now` outside the timing modules.
    D002,
    /// Unseeded randomness (`RandomState`, `thread_rng`, …).
    D003,
    /// `std::thread` spawning in a determinism-sensitive crate without
    /// an allow-pragma.
    D004,
    /// `.unwrap()` in library code.
    P001,
    /// `.expect(…)` in library code.
    P002,
    /// `panic!`/`todo!`/`unimplemented!` in library code.
    P003,
    /// Schema-marked struct field missing from the crate's JSON writer.
    S001,
    /// Schema-marked struct field missing from the docs schema table.
    S002,
    /// Malformed `bosim-lint:` pragma (unknown rule, missing reason).
    L001,
}

/// Every rule, in report order.
pub const ALL: [Rule; 10] = [
    Rule::D001,
    Rule::D002,
    Rule::D003,
    Rule::D004,
    Rule::P001,
    Rule::P002,
    Rule::P003,
    Rule::S001,
    Rule::S002,
    Rule::L001,
];

impl Rule {
    /// The stable identifier used in pragmas and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::P001 => "P001",
            Rule::P002 => "P002",
            Rule::P003 => "P003",
            Rule::S001 => "S001",
            Rule::S002 => "S002",
            Rule::L001 => "L001",
        }
    }

    /// A short human label for tables.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::D001 => "hash-iteration",
            Rule::D002 => "wall-clock",
            Rule::D003 => "unseeded-rng",
            Rule::D004 => "thread-confinement",
            Rule::P001 => "unwrap",
            Rule::P002 => "expect",
            Rule::P003 => "panic",
            Rule::S001 => "schema-json",
            Rule::S002 => "schema-docs",
            Rule::L001 => "bad-pragma",
        }
    }

    /// One-line description shown by `bosim-lint --rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D001 => {
                "HashMap/HashSet in a determinism-sensitive crate: iteration \
                 order is randomised per process and may feed sim results"
            }
            Rule::D002 => {
                "Instant::now/SystemTime::now outside the experiment-timing and \
                 host-profiler modules: wall clocks must never steer simulation"
            }
            Rule::D003 => {
                "unseeded randomness (RandomState, thread_rng, getrandom): \
                 all stochastic behaviour must flow from an explicit seed"
            }
            Rule::D004 => {
                "std::thread spawning in a determinism-sensitive crate: threading \
                 can leak scheduling order into results — justify each spawn with \
                 an allow-pragma"
            }
            Rule::P001 => ".unwrap() in library code (use typed errors or an allow-pragma)",
            Rule::P002 => ".expect(…) in library code (use typed errors or an allow-pragma)",
            Rule::P003 => "panic!/todo!/unimplemented! in library code",
            Rule::S001 => "schema-marked struct field never emitted as a JSON key in its crate",
            Rule::S002 => "schema-marked struct field missing from the docs/ARCHITECTURE.md tables",
            Rule::L001 => "malformed bosim-lint pragma (unknown rule id or missing reason)",
        }
    }

    /// Parses a rule id as written in an allow-pragma.
    pub fn parse(s: &str) -> Option<Rule> {
        ALL.into_iter().find(|r| r.id() == s)
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: Rule,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// What fired, with enough context to fix it.
    pub message: String,
}
