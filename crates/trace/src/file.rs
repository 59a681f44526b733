//! Binary trace serialisation.
//!
//! The paper's methodology stitches recorded trace samples (§5); this
//! module provides an equivalent capability: [`encode`] a prefix captured
//! from any [`TraceSource`](crate::TraceSource) to a compact binary
//! buffer, write it to a file, and replay it later with
//! [`ExternalSpec::load`](crate::ExternalSpec::load).
//!
//! Format (little endian), per record (30 bytes fixed):
//!
//! ```text
//! u64 pc | u8 kind | u8 dst(0xFF=none) | u8 src0 | u8 src1
//! u64 mem_vaddr (kind-gated) | u8 mem_size | u8 branch_flags | u64 target
//! ```
//!
//! A register byte is a register index below [`NUM_REGS`] or `0xFF` for
//! none; any other value fails the decode with
//! [`TraceFileError::Corrupt`].
//! `mem_size` is written as 8 and not read. A branch record whose flags
//! carry no branch info replays as a taken branch to address 0.
//!
//! A 16-byte header carries a magic, version and record count.

use crate::record::{MicroOp, Reg, UopKind, NUM_REGS};
use std::fmt;

pub(crate) const MAGIC: u32 = 0xB05_7ACE;
const VERSION: u16 = 1;

/// Byte length of the file header (magic, version, reserved, count).
pub const HEADER_BYTES: usize = 16;

/// Errors produced while encoding or decoding trace files.
///
/// Decode errors name both the record index and the absolute byte
/// offset of the failure, so a corrupt external trace is diagnosable
/// with a hex editor.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The buffer does not start with the trace magic number.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u16),
    /// The buffer ended in the middle of the header or a record.
    Truncated {
        /// Index of the partial record (0 when the header itself is
        /// short).
        record: usize,
        /// Byte offset at which the partial header/record starts.
        offset: usize,
    },
    /// A field held an invalid encoding (e.g. unknown µop kind).
    Corrupt {
        /// Which field was invalid.
        what: &'static str,
        /// Index of the record carrying it.
        record: usize,
        /// Absolute byte offset of the invalid field.
        offset: usize,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file i/o error: {e}"),
            TraceFileError::BadMagic => write!(f, "not a bosim trace file (bad magic)"),
            TraceFileError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceFileError::Truncated { record, offset } => write!(
                f,
                "trace file truncated at record {record} (byte offset {offset})"
            ),
            TraceFileError::Corrupt {
                what,
                record,
                offset,
            } => write!(
                f,
                "corrupt trace field: {what} in record {record} (byte offset {offset})"
            ),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

fn kind_to_u8(k: UopKind) -> u8 {
    match k {
        UopKind::Int => 0,
        UopKind::IntMul => 1,
        UopKind::IntDiv => 2,
        UopKind::Fp => 3,
        UopKind::FpDiv => 4,
        UopKind::Load => 5,
        UopKind::Store => 6,
        UopKind::CondBranch => 7,
        UopKind::Jump => 8,
        UopKind::IndirectBranch => 9,
        UopKind::Nop => 10,
    }
}

fn kind_from_u8(v: u8) -> Option<UopKind> {
    Some(match v {
        0 => UopKind::Int,
        1 => UopKind::IntMul,
        2 => UopKind::IntDiv,
        3 => UopKind::Fp,
        4 => UopKind::FpDiv,
        5 => UopKind::Load,
        6 => UopKind::Store,
        7 => UopKind::CondBranch,
        8 => UopKind::Jump,
        9 => UopKind::IndirectBranch,
        10 => UopKind::Nop,
        _ => return None,
    })
}

fn reg_to_u8(r: Option<Reg>) -> u8 {
    r.map(|r| r.0).unwrap_or(0xFF)
}

/// A little-endian byte reader over a borrowed slice (keeps the file
/// format dependency-free).
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    #[expect(clippy::expect_used, reason = "split_at(N) yields exactly N bytes")]
    fn take<const N: usize>(&mut self) -> [u8; N] {
        debug_assert!(self.buf.len() >= N, "caller checks remaining()");
        let (head, tail) = self.buf.split_at(N);
        self.buf = tail;
        head.try_into().expect("split_at(N) yields N bytes")
    }

    fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take::<2>())
    }

    fn u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take::<4>())
    }

    fn u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take::<8>())
    }
}

/// Encodes µops into a standalone binary buffer.
pub fn encode(uops: &[MicroOp]) -> Vec<u8> {
    let mut b = Vec::with_capacity(16 + uops.len() * 30);
    b.extend_from_slice(&MAGIC.to_le_bytes());
    b.extend_from_slice(&VERSION.to_le_bytes());
    b.extend_from_slice(&0u16.to_le_bytes()); // reserved
    b.extend_from_slice(&(uops.len() as u64).to_le_bytes());
    for u in uops {
        b.extend_from_slice(&u.pc.to_le_bytes());
        b.push(kind_to_u8(u.kind));
        b.push(reg_to_u8(u.dst));
        b.push(reg_to_u8(u.srcs[0]));
        b.push(reg_to_u8(u.srcs[1]));
        let (vaddr, size) = match u.data_addr() {
            Some(addr) => (addr, 8),
            None => (0, 0),
        };
        b.extend_from_slice(&vaddr.to_le_bytes());
        b.push(size);
        let (flags, target) = match (u.kind.is_branch(), u.taken) {
            (true, true) => (3, u.addr),
            (true, false) => (1, u.addr),
            (false, _) => (0, 0),
        };
        b.push(flags);
        b.extend_from_slice(&target.to_le_bytes());
    }
    b
}

/// Decodes a buffer produced by [`encode`].
///
/// # Errors
///
/// Returns a [`TraceFileError`] when the magic/version are wrong, the
/// buffer is truncated, or a field is invalid; truncation and
/// corruption errors name the record index and byte offset.
pub fn decode(buf: &[u8]) -> Result<Vec<MicroOp>, TraceFileError> {
    let total = buf.len();
    let mut buf = Reader::new(buf);
    if buf.remaining() < HEADER_BYTES {
        return Err(TraceFileError::Truncated {
            record: 0,
            offset: 0,
        });
    }
    if buf.u32_le() != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let version = buf.u16_le();
    if version != VERSION {
        return Err(TraceFileError::BadVersion(version));
    }
    let _reserved = buf.u16_le();
    let n = buf.u64_le() as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    const REC: usize = 8 + 4 + 9 + 9;
    for record in 0..n {
        let rec_offset = total - buf.remaining();
        if buf.remaining() < REC {
            return Err(TraceFileError::Truncated {
                record,
                offset: rec_offset,
            });
        }
        let pc = buf.u64_le();
        let kind = kind_from_u8(buf.u8()).ok_or(TraceFileError::Corrupt {
            what: "uop kind",
            record,
            offset: rec_offset + 8,
        })?;
        let reg = |v: u8, at: usize| match v {
            0xFF => Ok(None),
            v if usize::from(v) < NUM_REGS => Ok(Some(Reg(v))),
            _ => Err(TraceFileError::Corrupt {
                what: "register",
                record,
                offset: rec_offset + at,
            }),
        };
        let [dst, s0, s1] = buf.take::<3>();
        let (dst, s0, s1) = (reg(dst, 9)?, reg(s0, 10)?, reg(s1, 11)?);
        let vaddr = buf.u64_le();
        let _size = buf.u8();
        let bflags = buf.u8();
        let target = buf.u64_le();
        let (addr, taken) = if kind.is_mem() {
            (vaddr, false)
        } else if !kind.is_branch() {
            (0, false)
        } else if bflags & 1 != 0 {
            (target, bflags & 2 != 0)
        } else {
            // A branch without branch info replays as taken to 0.
            (0, true)
        };
        out.push(MicroOp {
            pc,
            addr,
            kind,
            dst,
            srcs: [s0, s1],
            taken,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::capture;
    use crate::{suite, ExternalSpec, TraceFormat};

    #[test]
    fn roundtrip_preserves_uops() {
        let spec = suite::benchmark("470").unwrap();
        let uops = capture(&mut spec.build(), 3_000);
        let encoded = encode(&uops);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(uops, decoded);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = decode(&[0u8; 32]).unwrap_err();
        assert!(matches!(err, TraceFileError::BadMagic));
    }

    #[test]
    fn truncation_is_detected_with_record_and_offset() {
        let uops = capture(&mut suite::benchmark("462").unwrap().build(), 10);
        let encoded = encode(&uops);
        let err = decode(&encoded[..encoded.len() - 3]).unwrap_err();
        const REC: usize = 30;
        match err {
            TraceFileError::Truncated { record, offset } => {
                // The last record is the partial one, and the offset
                // points at where it begins.
                assert_eq!(record, 9);
                assert_eq!(offset, HEADER_BYTES + 9 * REC);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A short header reports record 0 / offset 0.
        assert!(matches!(
            decode(&encoded[..10]).unwrap_err(),
            TraceFileError::Truncated {
                record: 0,
                offset: 0
            }
        ));
    }

    #[test]
    fn bad_kind_byte_names_record_and_offset() {
        let uops = capture(&mut suite::benchmark("462").unwrap().build(), 10);
        let mut encoded = encode(&uops);
        const REC: usize = 30;
        // Corrupt the kind byte of record 4 (offset 8 within a record).
        let at = HEADER_BYTES + 4 * REC + 8;
        encoded[at] = 0xEE;
        let err = decode(&encoded).unwrap_err();
        match err {
            TraceFileError::Corrupt {
                what,
                record,
                offset,
            } => {
                assert_eq!(what, "uop kind");
                assert_eq!(record, 4);
                assert_eq!(offset, at);
            }
            other => panic!("unexpected {other:?}"),
        }
        let msg = decode(&encoded).unwrap_err().to_string();
        assert!(msg.contains("record 4"), "{msg}");
        assert!(msg.contains(&format!("byte offset {at}")), "{msg}");
    }

    #[test]
    fn out_of_range_register_bytes_name_record_and_offset() {
        let uops = capture(&mut suite::benchmark("462").unwrap().build(), 20);
        const REC: usize = 30;
        // Register bytes sit at offsets 9 (dst), 10 and 11 (sources).
        for (record, field, value) in [(10, 9, 200), (3, 11, 64), (0, 10, 0xFE)] {
            let mut encoded = encode(&uops);
            let at = HEADER_BYTES + record * REC + field;
            encoded[at] = value;
            match decode(&encoded).unwrap_err() {
                TraceFileError::Corrupt {
                    what,
                    record: r,
                    offset,
                } => {
                    assert_eq!((what, r, offset), ("register", record, at));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // The highest register and "none" are valid.
        let mut encoded = encode(&uops);
        encoded[HEADER_BYTES + 9] = (NUM_REGS - 1) as u8;
        encoded[HEADER_BYTES + 10] = 0xFF;
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded[0].dst, Some(Reg(NUM_REGS as u8 - 1)));
        assert_eq!(decoded[0].srcs[0], None);
    }

    #[test]
    fn branches_without_branch_info_replay_taken_to_zero() {
        let mut branch = MicroOp::nop(0x400000);
        branch.kind = UopKind::CondBranch;
        branch.addr = 0x400100;
        let mut encoded = encode(&[branch]);
        // The flags byte follows pc, kind, three registers, the data
        // address and the size byte.
        encoded[HEADER_BYTES + 21] = 0;
        let decoded = decode(&encoded).unwrap();
        assert!(decoded[0].taken);
        assert_eq!(decoded[0].addr, 0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bosim_trace_test_{}.btrace", std::process::id()));
        let spec = suite::benchmark("456").unwrap();
        std::fs::write(&path, encode(&capture(&mut spec.build(), 500))).unwrap();
        let mut replay = ExternalSpec::new(&path, TraceFormat::Native)
            .named("456-replayed")
            .load()
            .unwrap();
        assert_eq!(replay.lap_len(), 500);
        let replayed = capture(&mut replay, 500);
        let original = capture(&mut spec.build(), 500);
        assert_eq!(replayed, original);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(TraceFileError::BadMagic.to_string().contains("magic"));
        assert!(TraceFileError::BadVersion(9).to_string().contains('9'));
    }
}
