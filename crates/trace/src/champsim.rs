//! ChampSim-compatible binary instruction traces.
//!
//! ChampSim's trace format — one fixed 64-byte record per committed
//! instruction — is the lingua franca of prefetching research (the DPC
//! championships, Pythia's artifact, and most recent prefetcher papers
//! distribute workloads this way). This module decodes that format into
//! the simulator's [`MicroOp`] stream, so `bosim` can replay real
//! captured workloads next to its synthetic suite.
//!
//! # On-disk layout (little endian, 64 bytes per record)
//!
//! ```text
//! offset  size  field
//!      0     8  ip                        instruction virtual address
//!      8     1  is_branch                 0 or 1
//!      9     1  branch_taken              0 or 1
//!     10     2  destination_registers[2]  0 = unused
//!     12     4  source_registers[4]       0 = unused
//!     16    16  destination_memory[2]     u64 vaddrs, 0 = unused
//!     32    32  source_memory[4]          u64 vaddrs, 0 = unused
//! ```
//!
//! There is no header: a file is a bare record sequence (ChampSim pipes
//! traces through `xz`/`gzip`; decompress before feeding them here).
//!
//! # Lowering to µops
//!
//! A record expands to one µop per memory operand plus at most one
//! non-memory µop, all sharing the record's `ip`:
//!
//! * each `source_memory` entry → a [`UopKind::Load`],
//! * each `destination_memory` entry → a [`UopKind::Store`],
//! * `is_branch` → a [`UopKind::CondBranch`] whose taken target is the
//!   next record's `ip` (ChampSim records carry no explicit target; the
//!   next committed instruction *is* the target when taken),
//! * a record with no memory operands and no branch → a single
//!   [`UopKind::Int`] µop carrying the register dependences.
//!
//! Registers: ChampSim uses byte register ids with `0` = unused; ids map
//! into the simulator's [`NUM_REGS`]-register namespace as
//! `(id - 1) % NUM_REGS`. Decode errors ([`ChampSimError`]) name the
//! absolute byte offset of the offending record.
//!
//! [`decode`] works in one pass: it reads the input in blocks of
//! records, parses each record, and lowers it as soon as the next
//! record's `ip` is known. No whole-file buffer or record vector is
//! built.
//!
//! # Example
//!
//! ```
//! use bosim_trace::{champsim, suite, capture, TraceSource};
//!
//! // Capture a synthetic prefix, write it as a ChampSim trace, reload.
//! let uops = capture(&mut suite::benchmark("462").unwrap().build(), 1000);
//! let bytes = champsim::encode(&uops);
//! let decoded = champsim::decode(&bytes[..]).unwrap();
//! let mut replay = bosim_trace::ReplaySource::new("462.champsim", decoded);
//! assert!(replay.next_uop().pc > 0);
//! ```

use crate::record::{MicroOp, Reg, UopKind, NUM_REGS};
use std::fmt;
use std::io::Read;

/// Size of one ChampSim instruction record.
pub const RECORD_BYTES: usize = 64;

/// Records [`decode`] reads per block (64 KiB).
const BLOCK_RECORDS: usize = 1024;

const NUM_DEST_REGS: usize = 2;
const NUM_SRC_REGS: usize = 4;
const NUM_DEST_MEM: usize = 2;
const NUM_SRC_MEM: usize = 4;

/// Errors produced while decoding a ChampSim trace.
#[derive(Debug)]
pub enum ChampSimError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The byte stream ended inside a record.
    Truncated {
        /// Byte offset at which the partial record starts.
        offset: u64,
        /// Bytes of the partial record that were present.
        have: usize,
    },
    /// A flag byte held a value other than 0 or 1.
    BadFlag {
        /// Which flag (`"is_branch"` or `"branch_taken"`).
        field: &'static str,
        /// The offending value.
        value: u8,
        /// Absolute byte offset of the flag byte.
        offset: u64,
    },
    /// The stream contained no records.
    Empty,
}

impl fmt::Display for ChampSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChampSimError::Io(e) => write!(f, "champsim trace i/o error: {e}"),
            ChampSimError::Truncated { offset, have } => write!(
                f,
                "champsim trace truncated: partial record at byte offset {offset} \
                 ({have} of {RECORD_BYTES} bytes)"
            ),
            ChampSimError::BadFlag {
                field,
                value,
                offset,
            } => write!(
                f,
                "champsim record corrupt: {field} byte {value:#04x} at byte offset \
                 {offset} (must be 0 or 1)"
            ),
            ChampSimError::Empty => write!(f, "champsim trace contains no records"),
        }
    }
}

impl std::error::Error for ChampSimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChampSimError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ChampSimError {
    fn from(e: std::io::Error) -> Self {
        ChampSimError::Io(e)
    }
}

/// One decoded ChampSim instruction record (pre-lowering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChampSimRecord {
    /// Instruction virtual address.
    pub ip: u64,
    /// The instruction is a branch.
    pub is_branch: bool,
    /// The branch was taken (meaningful when `is_branch`).
    pub branch_taken: bool,
    /// Destination register ids (0 = unused).
    pub dest_regs: [u8; NUM_DEST_REGS],
    /// Source register ids (0 = unused).
    pub src_regs: [u8; NUM_SRC_REGS],
    /// Written memory vaddrs (0 = unused).
    pub dest_mem: [u64; NUM_DEST_MEM],
    /// Read memory vaddrs (0 = unused).
    pub src_mem: [u64; NUM_SRC_MEM],
}

impl ChampSimRecord {
    /// Parses one 64-byte record starting at absolute byte `offset`
    /// (used only for error reporting).
    ///
    /// # Errors
    ///
    /// Returns [`ChampSimError::BadFlag`] on a flag byte outside 0..=1.
    pub fn parse(bytes: &[u8; RECORD_BYTES], offset: u64) -> Result<Self, ChampSimError> {
        let flag = |field, value: u8, at: u64| -> Result<bool, ChampSimError> {
            match value {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(ChampSimError::BadFlag {
                    field,
                    value,
                    offset: at,
                }),
            }
        };
        let (words, _) = bytes.as_chunks::<8>();
        let word = |i: usize| u64::from_le_bytes(words[i]);
        Ok(ChampSimRecord {
            ip: word(0),
            is_branch: flag("is_branch", bytes[8], offset + 8)?,
            branch_taken: flag("branch_taken", bytes[9], offset + 9)?,
            dest_regs: [bytes[10], bytes[11]],
            src_regs: [bytes[12], bytes[13], bytes[14], bytes[15]],
            dest_mem: [word(2), word(3)],
            src_mem: [word(4), word(5), word(6), word(7)],
        })
    }

    /// Serialises the record to its 64-byte on-disk form.
    pub fn to_bytes(&self) -> [u8; RECORD_BYTES] {
        let mut b = [0u8; RECORD_BYTES];
        b[0..8].copy_from_slice(&self.ip.to_le_bytes());
        b[8] = self.is_branch as u8;
        b[9] = self.branch_taken as u8;
        b[10] = self.dest_regs[0];
        b[11] = self.dest_regs[1];
        b[12..16].copy_from_slice(&self.src_regs);
        for (i, m) in self.dest_mem.iter().enumerate() {
            b[16 + i * 8..24 + i * 8].copy_from_slice(&m.to_le_bytes());
        }
        for (i, m) in self.src_mem.iter().enumerate() {
            b[32 + i * 8..40 + i * 8].copy_from_slice(&m.to_le_bytes());
        }
        b
    }
}

fn map_reg(id: u8) -> Option<Reg> {
    if id == 0 {
        None
    } else {
        Some(Reg((id - 1) % NUM_REGS as u8))
    }
}

/// Appends the µops of record `r` (see the [module docs](self) for the
/// expansion rules); `target` is a taken branch's target.
fn push_uops(r: &ChampSimRecord, target: u64, out: &mut Vec<MicroOp>) {
    let dst = r.dest_regs.iter().copied().find_map(map_reg);
    let mut srcs_it = r.src_regs.iter().copied().filter_map(map_reg);
    let srcs = [srcs_it.next(), srcs_it.next()];
    let uop = |kind, addr, dst, taken| MicroOp {
        pc: r.ip,
        addr,
        kind,
        dst,
        srcs,
        taken,
    };
    let before = out.len();
    for &vaddr in r.src_mem.iter().filter(|&&m| m != 0) {
        out.push(uop(UopKind::Load, vaddr, dst, false));
    }
    for &vaddr in r.dest_mem.iter().filter(|&&m| m != 0) {
        out.push(uop(UopKind::Store, vaddr, None, false));
    }
    if r.is_branch {
        out.push(uop(UopKind::CondBranch, target, None, r.branch_taken));
    } else if out.len() == before {
        out.push(uop(UopKind::Int, 0, dst, false));
    }
}

/// Reads from `reader` until `buf` is full or the stream ends,
/// tolerating short reads (pipes, `BufReader`); returns the bytes read.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut have = 0;
    while have < buf.len() {
        match reader.read(&mut buf[have..])? {
            0 => break,
            n => have += n,
        }
    }
    Ok(have)
}

/// Decodes a ChampSim byte stream straight to µops, in one pass (see
/// the [module docs](self)).
///
/// # Errors
///
/// Returns [`ChampSimError::Truncated`] naming the byte offset of a
/// partial trailing record, [`ChampSimError::BadFlag`] for corrupt flag
/// bytes, [`ChampSimError::Empty`] for a record-less stream, and
/// [`ChampSimError::Io`] when `reader` fails.
pub fn decode(reader: impl Read) -> Result<Vec<MicroOp>, ChampSimError> {
    decode_with_capacity(reader, 0)
}

/// [`decode`] into a vector with room for `capacity` µops up front. A
/// file's record count is a lower bound (every record lowers to at
/// least one µop) and spares the vector's growth copies.
pub(crate) fn decode_with_capacity(
    mut reader: impl Read,
    capacity: usize,
) -> Result<Vec<MicroOp>, ChampSimError> {
    let mut block = vec![0u8; BLOCK_RECORDS * RECORD_BYTES];
    let mut out = Vec::with_capacity(capacity);
    // Each record is lowered once the next one is parsed: a branch's
    // taken target is the next committed instruction's ip. The final
    // record's branch targets its fall-through, and still trains the
    // predictor on its direction.
    let mut held: Option<ChampSimRecord> = None;
    let mut offset: u64 = 0;
    loop {
        let have = fill(&mut reader, &mut block)?;
        let (records, partial) = block[..have].as_chunks::<RECORD_BYTES>();
        for bytes in records {
            let r = ChampSimRecord::parse(bytes, offset)?;
            if let Some(prev) = held.replace(r) {
                push_uops(&prev, r.ip, &mut out);
            }
            offset += RECORD_BYTES as u64;
        }
        if !partial.is_empty() {
            return Err(ChampSimError::Truncated {
                offset,
                have: partial.len(),
            });
        }
        if have < block.len() {
            break;
        }
    }
    let last = held.ok_or(ChampSimError::Empty)?;
    push_uops(&last, last.ip.wrapping_add(4), &mut out);
    out.shrink_to_fit();
    Ok(out)
}

/// Encodes a µop stream as ChampSim records — the inverse of
/// [`decode`], up to the lossiness of the format: every µop kind that
/// ChampSim cannot express (FP, multiplies, jumps, ...) flattens to a
/// plain instruction record, and consecutive µops sharing a `pc` fold
/// into one record's memory-operand slots. Used by `bosim gen` and the
/// round-trip tests.
pub fn encode(uops: &[MicroOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(uops.len() * RECORD_BYTES);
    let mut i = 0;
    while i < uops.len() {
        let pc = uops[i].pc;
        let mut rec = ChampSimRecord {
            ip: pc,
            is_branch: false,
            branch_taken: false,
            dest_regs: [0; NUM_DEST_REGS],
            src_regs: [0; NUM_SRC_REGS],
            dest_mem: [0; NUM_DEST_MEM],
            src_mem: [0; NUM_SRC_MEM],
        };
        let (mut loads, mut stores) = (0, 0);
        // Fold the run of same-pc µops into one record, stopping when a
        // slot class would overflow (the remainder starts a new record
        // with the same ip — ChampSim tooling accepts repeated ips).
        while i < uops.len() && uops[i].pc == pc {
            let u = &uops[i];
            match u.kind {
                UopKind::Load => {
                    if loads == NUM_SRC_MEM {
                        break;
                    }
                    rec.src_mem[loads] = u.addr;
                    loads += 1;
                }
                UopKind::Store => {
                    if stores == NUM_DEST_MEM {
                        break;
                    }
                    rec.dest_mem[stores] = u.addr;
                    stores += 1;
                }
                k if k.is_branch() => {
                    if rec.is_branch {
                        break;
                    }
                    rec.is_branch = true;
                    rec.branch_taken = u.taken;
                }
                _ => {}
            }
            if let Some(d) = u.dst {
                if rec.dest_regs[0] == 0 {
                    rec.dest_regs[0] = d.0 + 1;
                }
            }
            for (slot, s) in rec.src_regs.iter_mut().zip(u.srcs.iter()) {
                if *slot == 0 {
                    if let Some(s) = s {
                        *slot = s.0 + 1;
                    }
                }
            }
            i += 1;
        }
        out.extend_from_slice(&rec.to_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{capture, TraceSource};
    use crate::{suite, ExternalSpec, TraceFormat};

    fn record(ip: u64) -> ChampSimRecord {
        ChampSimRecord {
            ip,
            is_branch: false,
            branch_taken: false,
            dest_regs: [0; 2],
            src_regs: [0; 4],
            dest_mem: [0; 2],
            src_mem: [0; 4],
        }
    }

    #[test]
    fn record_bytes_round_trip() {
        let r = ChampSimRecord {
            ip: 0xDEAD_BEEF_0000_1234,
            is_branch: true,
            branch_taken: true,
            dest_regs: [3, 0],
            src_regs: [1, 2, 0, 255],
            dest_mem: [0x1000, 0],
            src_mem: [0x2000, 0x3000, 0, 0],
        };
        let parsed = ChampSimRecord::parse(&r.to_bytes(), 0).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn loads_stores_and_branches_lower() {
        let mut a = record(0x400000);
        a.src_mem[0] = 0x10_0000;
        a.src_mem[1] = 0x10_0040;
        a.dest_mem[0] = 0x20_0000;
        a.dest_regs[0] = 5;
        let mut b = record(0x400004);
        b.is_branch = true;
        b.branch_taken = true;
        let c = record(0x400100);
        let bytes = [a, b, c].map(|r| r.to_bytes()).concat();
        let uops = decode(&bytes[..]).unwrap();
        // a → 2 loads + 1 store; b → branch; c → plain int.
        assert_eq!(uops.len(), 5);
        assert_eq!(uops[0].kind, UopKind::Load);
        assert_eq!(uops[0].dst, Some(Reg(4))); // champsim id 5 → reg 4
        assert_eq!(uops[1].addr, 0x10_0040);
        assert_eq!(uops[2].kind, UopKind::Store);
        assert_eq!(uops[3].kind, UopKind::CondBranch);
        assert!(uops[3].taken);
        // Taken target = next record's ip.
        assert_eq!(uops[3].addr, 0x400100);
        assert_eq!(uops[4].kind, UopKind::Int);
        assert_eq!(uops[4].addr, 0);
    }

    #[test]
    fn truncated_stream_names_the_byte_offset() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&record(1).to_bytes());
        bytes.extend_from_slice(&record(2).to_bytes()[..17]);
        match decode(&bytes[..]) {
            Err(ChampSimError::Truncated { offset, have }) => {
                assert_eq!(offset, 64);
                assert_eq!(have, 17);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_flag_byte_names_field_and_offset() {
        let mut bytes = record(1).to_bytes().to_vec();
        bytes.extend_from_slice(&record(2).to_bytes());
        bytes[64 + 9] = 7; // second record's branch_taken
        match decode(&bytes[..]) {
            Err(ChampSimError::BadFlag {
                field,
                value,
                offset,
            }) => {
                assert_eq!(field, "branch_taken");
                assert_eq!(value, 7);
                assert_eq!(offset, 64 + 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        let msg = decode(&bytes[..]).unwrap_err().to_string();
        assert!(msg.contains("byte offset 73"), "{msg}");
    }

    #[test]
    fn empty_stream_is_rejected() {
        assert!(matches!(decode(&[][..]), Err(ChampSimError::Empty)));
    }

    #[test]
    fn synthetic_round_trip_preserves_memory_and_control_flow() {
        let uops = capture(&mut suite::benchmark("470").unwrap().build(), 5_000);
        let decoded = decode(&encode(&uops)[..]).unwrap();
        let count = |v: &[MicroOp], f: fn(&MicroOp) -> bool| v.iter().filter(|u| f(u)).count();
        // The format is lossy on compute kinds, exact on memory + branches.
        assert_eq!(
            count(&uops, |u| u.is_load()),
            count(&decoded, |u| u.is_load())
        );
        assert_eq!(
            count(&uops, |u| u.is_store()),
            count(&decoded, |u| u.is_store())
        );
        assert_eq!(
            count(&uops, |u| u.kind.is_branch()),
            count(&decoded, |u| u.kind.is_branch())
        );
        let addrs =
            |v: &[MicroOp]| -> Vec<u64> { v.iter().filter_map(MicroOp::data_addr).collect() };
        assert_eq!(addrs(&uops), addrs(&decoded));
    }

    #[test]
    fn file_round_trip() {
        let path =
            std::env::temp_dir().join(format!("bosim_champsim_{}.champsim", std::process::id()));
        let uops = capture(&mut suite::benchmark("462").unwrap().build(), 2_000);
        std::fs::write(&path, encode(&uops)).unwrap();
        let replay = ExternalSpec::new(&path, TraceFormat::ChampSim)
            .named("462.champsim")
            .load()
            .unwrap();
        assert!(replay.lap_len() > 0);
        assert_eq!(replay.name(), "462.champsim");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ChampSimError::Truncated {
            offset: 128,
            have: 10,
        };
        assert!(e.to_string().contains("byte offset 128"), "{e}");
        assert!(ChampSimError::Empty.to_string().contains("no records"));
    }
}
