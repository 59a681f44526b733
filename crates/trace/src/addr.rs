//! Raw address traces: `R/W <hex-addr>` text and packed binary u64.
//!
//! The least common denominator of memory-system research: a bare
//! sequence of data addresses, no instruction stream. Cache-simulator
//! corpora (Dinero-style traces, teaching datasets, custom pin tools)
//! ship in this shape. This module lowers such traces to [`MicroOp`]s
//! with a *synthetic instruction stream* so the full timing model — and
//! in particular the PC-indexed L1 stride prefetcher — still functions.
//!
//! # Formats
//!
//! **Text** (one access per line; blank lines and `#` comments ignored):
//!
//! ```text
//! R 0x7f3a00401000
//! W 7f3a00401040          # the 0x prefix is optional
//! ```
//!
//! **Binary**: consecutive little-endian `u64` words; bit 63 set marks a
//! store, bits 0..=62 are the byte address. (Addresses above 2^63 do not
//! survive this packing — practical virtual addresses fit.)
//!
//! # Synthetic instruction stream
//!
//! Access `i` is assigned `pc = 0x0040_0000 + (i mod 256) * 4`: a
//! 256-instruction loop body, so each synthetic PC recurs every 256
//! accesses and per-PC stride detectors see a regular load slot, while
//! branch predictors see no branches at all (the trace carries no
//! control flow to model). Loads write rotating destination registers
//! with no sources, so the synthetic stream adds no false dependences.

use crate::record::{MicroOp, Reg, UopKind};
use std::fmt;
use std::io::{BufRead, Read};

/// Direction of one raw access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDir {
    /// A data read (lowers to [`UopKind::Load`]).
    Read,
    /// A data write (lowers to [`UopKind::Store`]).
    Write,
}

/// One raw trace entry: direction + byte address.
pub type RawAccess = (AccessDir, u64);

/// Errors produced while decoding raw address traces.
#[derive(Debug)]
pub enum AddrTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A text line failed to parse.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// The binary stream ended inside a u64 word.
    Truncated {
        /// Byte offset at which the partial word starts.
        offset: u64,
        /// Bytes of the partial word that were present.
        have: usize,
    },
    /// The trace contained no accesses.
    Empty,
}

impl fmt::Display for AddrTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrTraceError::Io(e) => write!(f, "address trace i/o error: {e}"),
            AddrTraceError::BadLine { line, what } => {
                write!(f, "address trace line {line}: {what}")
            }
            AddrTraceError::Truncated { offset, have } => write!(
                f,
                "address trace truncated: partial word at byte offset {offset} \
                 ({have} of 8 bytes)"
            ),
            AddrTraceError::Empty => write!(f, "address trace contains no accesses"),
        }
    }
}

impl std::error::Error for AddrTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AddrTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AddrTraceError {
    fn from(e: std::io::Error) -> Self {
        AddrTraceError::Io(e)
    }
}

/// Parses the text format from `reader`.
///
/// # Errors
///
/// Returns [`AddrTraceError::BadLine`] naming the 1-based line of the
/// first malformed entry, and [`AddrTraceError::Empty`] when no access
/// survives comment/blank stripping.
pub fn parse_text(reader: impl Read) -> Result<Vec<RawAccess>, AddrTraceError> {
    let mut out = Vec::new();
    for (i, line) in std::io::BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut parts = body.split_whitespace();
        #[expect(
            clippy::expect_used,
            reason = "body checked non-empty before tokenising"
        )]
        let tag = parts.next().expect("non-empty body has a first token");
        let dir = match tag {
            "R" | "r" => AccessDir::Read,
            "W" | "w" => AccessDir::Write,
            other => {
                return Err(AddrTraceError::BadLine {
                    line: i + 1,
                    what: format!("unknown access tag {other:?} (expected R or W)"),
                })
            }
        };
        let Some(addr_str) = parts.next() else {
            return Err(AddrTraceError::BadLine {
                line: i + 1,
                what: "missing address after access tag".to_string(),
            });
        };
        let digits = addr_str
            .strip_prefix("0x")
            .or_else(|| addr_str.strip_prefix("0X"))
            .unwrap_or(addr_str);
        let addr = u64::from_str_radix(digits, 16).map_err(|e| AddrTraceError::BadLine {
            line: i + 1,
            what: format!("bad hex address {addr_str:?}: {e}"),
        })?;
        if let Some(extra) = parts.next() {
            return Err(AddrTraceError::BadLine {
                line: i + 1,
                what: format!("trailing token {extra:?}"),
            });
        }
        out.push((dir, addr));
    }
    if out.is_empty() {
        return Err(AddrTraceError::Empty);
    }
    Ok(out)
}

/// Bit marking a store in the binary format.
pub const WRITE_BIT: u64 = 1 << 63;

/// Parses the binary format (little-endian u64 words, bit 63 = store)
/// from `reader`.
///
/// # Errors
///
/// Returns [`AddrTraceError::Truncated`] naming the byte offset of a
/// partial trailing word, and [`AddrTraceError::Empty`] for a wordless
/// stream.
pub fn parse_binary(mut reader: impl Read) -> Result<Vec<RawAccess>, AddrTraceError> {
    let mut out = Vec::new();
    let mut buf = [0u8; 8];
    let mut offset: u64 = 0;
    loop {
        let mut have = 0;
        while have < 8 {
            let n = reader.read(&mut buf[have..])?;
            if n == 0 {
                break;
            }
            have += n;
        }
        if have == 0 {
            break;
        }
        if have < 8 {
            return Err(AddrTraceError::Truncated { offset, have });
        }
        let word = u64::from_le_bytes(buf);
        let dir = if word & WRITE_BIT != 0 {
            AccessDir::Write
        } else {
            AccessDir::Read
        };
        out.push((dir, word & !WRITE_BIT));
        offset += 8;
    }
    if out.is_empty() {
        return Err(AddrTraceError::Empty);
    }
    Ok(out)
}

/// Packs accesses into the binary format (the inverse of
/// [`parse_binary`]). Used by `bosim gen` and the round-trip tests.
pub fn encode_binary(accesses: &[RawAccess]) -> Vec<u8> {
    let mut out = Vec::with_capacity(accesses.len() * 8);
    for &(dir, addr) in accesses {
        let word = (addr & !WRITE_BIT)
            | match dir {
                AccessDir::Read => 0,
                AccessDir::Write => WRITE_BIT,
            };
        out.extend_from_slice(&word.to_le_bytes());
    }
    out
}

/// Renders accesses in the text format (the inverse of [`parse_text`]).
pub fn encode_text(accesses: &[RawAccess]) -> String {
    let mut out = String::with_capacity(accesses.len() * 20);
    for &(dir, addr) in accesses {
        let tag = match dir {
            AccessDir::Read => 'R',
            AccessDir::Write => 'W',
        };
        out.push_str(&format!("{tag} {addr:#x}\n"));
    }
    out
}

/// Reduces a µop stream to its raw data-access sequence — the inverse
/// direction of [`lower`], used when exporting richer traces to the
/// address formats (`bosim gen`, tests).
pub fn accesses_of(uops: &[MicroOp]) -> Vec<RawAccess> {
    uops.iter()
        .filter_map(|u| {
            u.data_addr().map(|addr| {
                let dir = if u.is_store() {
                    AccessDir::Write
                } else {
                    AccessDir::Read
                };
                (dir, addr)
            })
        })
        .collect()
}

/// Code base of the synthetic instruction stream.
const SYNTH_PC_BASE: u64 = 0x0040_0000;
/// Synthetic loop-body length, in instructions.
const SYNTH_PC_PERIOD: u64 = 256;

/// Lowers raw accesses to µops under the synthetic instruction stream
/// described in the [module docs](self).
pub fn lower(accesses: &[RawAccess]) -> Vec<MicroOp> {
    accesses
        .iter()
        .enumerate()
        .map(|(i, &(dir, addr))| {
            let (kind, dst) = match dir {
                AccessDir::Read => (UopKind::Load, Some(Reg((i % 8) as u8))),
                AccessDir::Write => (UopKind::Store, None),
            };
            MicroOp {
                pc: SYNTH_PC_BASE + (i as u64 % SYNTH_PC_PERIOD) * 4,
                addr,
                kind,
                dst,
                srcs: [None, None],
                taken: false,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_parses_tags_prefixes_and_comments() {
        let src = "# header comment\nR 0x1000\nw 2040   # trailing comment\n\nR 0XFF\n";
        let acc = parse_text(src.as_bytes()).unwrap();
        assert_eq!(
            acc,
            vec![
                (AccessDir::Read, 0x1000),
                (AccessDir::Write, 0x2040),
                (AccessDir::Read, 0xFF),
            ]
        );
    }

    #[test]
    fn text_errors_name_the_line() {
        let err = parse_text("R 0x10\nX 0x20\n".as_bytes()).unwrap_err();
        match &err {
            AddrTraceError::BadLine { line, what } => {
                assert_eq!(*line, 2);
                assert!(what.contains("\"X\""), "{what}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(matches!(
            parse_text("R zz\n".as_bytes()),
            Err(AddrTraceError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_text("R\n".as_bytes()),
            Err(AddrTraceError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_text("R 0x10 extra\n".as_bytes()),
            Err(AddrTraceError::BadLine { line: 1, .. })
        ));
    }

    #[test]
    fn empty_traces_are_rejected() {
        assert!(matches!(
            parse_text("# only comments\n".as_bytes()),
            Err(AddrTraceError::Empty)
        ));
        assert!(matches!(parse_binary(&[][..]), Err(AddrTraceError::Empty)));
    }

    #[test]
    fn binary_round_trips_and_flags_writes() {
        let acc = vec![
            (AccessDir::Read, 0x4000),
            (AccessDir::Write, 0x4040),
            (AccessDir::Read, (1 << 62) | 0x80),
        ];
        let parsed = parse_binary(&encode_binary(&acc)[..]).unwrap();
        assert_eq!(parsed, acc);
    }

    #[test]
    fn binary_truncation_names_the_offset() {
        let bytes = encode_binary(&[(AccessDir::Read, 0x10), (AccessDir::Write, 0x20)]);
        match parse_binary(&bytes[..11]) {
            Err(AddrTraceError::Truncated { offset, have }) => {
                assert_eq!(offset, 8);
                assert_eq!(have, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_round_trips_through_encode() {
        let acc = vec![(AccessDir::Write, 0xABC0), (AccessDir::Read, 0x40)];
        assert_eq!(parse_text(encode_text(&acc).as_bytes()).unwrap(), acc);
    }

    #[test]
    fn lowering_assigns_a_periodic_synthetic_pc() {
        let acc: Vec<RawAccess> = (0..600)
            .map(|i| (AccessDir::Read, 0x10_0000 + i * 64))
            .collect();
        let uops = lower(&acc);
        assert_eq!(uops.len(), 600);
        assert_eq!(uops[0].pc, SYNTH_PC_BASE);
        assert_eq!(uops[1].pc, SYNTH_PC_BASE + 4);
        // The PC stream wraps, so per-PC stride detection has history.
        assert_eq!(uops[256].pc, uops[0].pc);
        assert_eq!(uops[0].kind, UopKind::Load);
        assert_eq!(uops[0].addr, 0x10_0000);
        // Same recurring PC sees a constant address stride.
        let d1 = uops[256].addr - uops[0].addr;
        let d2 = uops[512].addr - uops[256].addr;
        assert_eq!(d1, d2);
    }

    #[test]
    fn lowered_stores_have_no_dst() {
        let uops = lower(&[(AccessDir::Write, 0x40)]);
        assert_eq!(uops[0].kind, UopKind::Store);
        assert!(uops[0].dst.is_none());
    }
}
