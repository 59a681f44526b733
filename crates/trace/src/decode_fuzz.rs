//! Seeded decoder fuzzing over all four trace formats.
//!
//! A hostile trace file may only produce a typed error. The mutation
//! tier mutates, truncates and extends valid encodings with
//! [`SplitMix64`], and every mutant must either fail to decode or
//! decode to µops the core can replay: every register below
//! [`NUM_REGS`]. The equivalence tier checks the one-pass
//! [`champsim::decode`] against a copy of the two-pass lowering it
//! replaced (parse every record into a vector, then lower each one).
//!
//! The default tiers are small enough for Miri. The `#[ignore]`d tiers
//! run the same checks at length:
//! `cargo test --release -p bosim-trace -- --ignored`. Every case is a
//! pure function of its seed, so a failure reproduces on a rerun.

use crate::champsim::{self, ChampSimRecord, RECORD_BYTES};
use crate::record::{MicroOp, Reg, UopKind, NUM_REGS};
use crate::{addr, file, TraceError, TraceFormat};
use bosim_types::SplitMix64;

const KINDS: [UopKind; 11] = [
    UopKind::Int,
    UopKind::IntMul,
    UopKind::IntDiv,
    UopKind::Fp,
    UopKind::FpDiv,
    UopKind::Load,
    UopKind::Store,
    UopKind::CondBranch,
    UopKind::Jump,
    UopKind::IndirectBranch,
    UopKind::Nop,
];

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.next_below(items.len() as u64) as usize]
}

fn random_reg(rng: &mut SplitMix64) -> Option<Reg> {
    if rng.chance(1, 4) {
        None
    } else {
        Some(Reg(rng.next_below(NUM_REGS as u64) as u8))
    }
}

/// `n` random µops of every kind. Runs of µops share a pc, so the
/// ChampSim encoder folds them into one record.
fn random_uops(rng: &mut SplitMix64, n: usize) -> Vec<MicroOp> {
    let mut pc = 0x40_0000 + rng.next_below(1 << 20) * 4;
    (0..n)
        .map(|_| {
            if !rng.chance(1, 3) {
                pc += 4;
            }
            let kind = pick(rng, &KINDS);
            let addr = if kind.is_mem() || kind.is_branch() {
                rng.next_u64() >> rng.next_below(48)
            } else {
                0
            };
            MicroOp {
                pc,
                addr,
                kind,
                dst: random_reg(rng),
                srcs: [random_reg(rng), random_reg(rng)],
                taken: kind.is_branch() && rng.chance(1, 2),
            }
        })
        .collect()
}

fn encode(format: TraceFormat, uops: &[MicroOp]) -> Vec<u8> {
    match format {
        TraceFormat::Native => file::encode(uops),
        TraceFormat::ChampSim => champsim::encode(uops),
        TraceFormat::AddrText => addr::encode_text(&addr::accesses_of(uops)).into_bytes(),
        TraceFormat::AddrBin => addr::encode_binary(&addr::accesses_of(uops)),
    }
}

fn decode(format: TraceFormat, bytes: &[u8]) -> Result<Vec<MicroOp>, TraceError> {
    Ok(match format {
        TraceFormat::Native => file::decode(bytes)?,
        TraceFormat::ChampSim => champsim::decode(bytes)?,
        TraceFormat::AddrText => addr::lower(&addr::parse_text(bytes)?),
        TraceFormat::AddrBin => addr::lower(&addr::parse_binary(bytes)?),
    })
}

/// Overwrites, truncates or extends `bytes`, or overwrites then
/// truncates.
fn mutate(rng: &mut SplitMix64, mut bytes: Vec<u8>) -> Vec<u8> {
    let op = rng.next_below(4);
    if matches!(op, 0 | 3) && !bytes.is_empty() {
        for _ in 0..=rng.next_below(4) {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] = rng.next_u64() as u8;
        }
    }
    if matches!(op, 1 | 3) {
        bytes.truncate(rng.next_below(bytes.len() as u64 + 1) as usize);
    }
    if op == 2 {
        for _ in 0..=rng.next_below(2 * RECORD_BYTES as u64) {
            bytes.push(rng.next_u64() as u8);
        }
    }
    bytes
}

fn mutation_tier(seed: u64, mutants: usize) {
    let mut rng = SplitMix64::new(seed);
    for format in TraceFormat::ALL {
        for case in 0..mutants {
            let n = 1 + rng.next_below(48) as usize;
            let valid = encode(format, &random_uops(&mut rng, n));
            let mutant = mutate(&mut rng, valid);
            let Ok(uops) = decode(format, &mutant) else {
                continue;
            };
            for (i, u) in uops.iter().enumerate() {
                for r in [u.dst, u.srcs[0], u.srcs[1]].into_iter().flatten() {
                    assert!(
                        r.index() < NUM_REGS,
                        "{format} seed {seed:#x} mutant {case}: µop {i} names register {}",
                        r.0
                    );
                }
            }
        }
    }
}

#[test]
fn mutated_traces_fail_typed_or_decode_replayable_uops() {
    mutation_tier(0x0DEC_0DE5, 200);
}

#[test]
#[ignore = "long tier: cargo test --release -p bosim-trace -- --ignored"]
fn mutated_traces_fail_typed_or_decode_replayable_uops_long() {
    mutation_tier(0x0DEC_0DE5_1000, 400_000);
}

/// A ChampSim register id: 0 (unused) a third of the time.
fn random_reg_id(rng: &mut SplitMix64) -> u8 {
    if rng.chance(1, 3) {
        0
    } else {
        1 + rng.next_below(255) as u8
    }
}

/// A memory slot: 0 (unused) half of the time.
fn random_slot(rng: &mut SplitMix64) -> u64 {
    if rng.chance(1, 2) {
        0
    } else {
        rng.next_u64() >> 16
    }
}

fn random_record(rng: &mut SplitMix64) -> ChampSimRecord {
    ChampSimRecord {
        ip: 0x40_0000 + rng.next_below(1 << 16) * 4,
        is_branch: rng.chance(1, 3),
        branch_taken: rng.chance(1, 2),
        dest_regs: [random_reg_id(rng), random_reg_id(rng)],
        src_regs: [
            random_reg_id(rng),
            random_reg_id(rng),
            random_reg_id(rng),
            random_reg_id(rng),
        ],
        dest_mem: [random_slot(rng), random_slot(rng)],
        src_mem: [
            random_slot(rng),
            random_slot(rng),
            random_slot(rng),
            random_slot(rng),
        ],
    }
}

/// The two-pass decode that [`champsim::decode`] replaced: every record
/// parsed into a vector, then each lowered with the next record's `ip`
/// in hand.
fn two_pass_decode(bytes: &[u8]) -> Vec<MicroOp> {
    let (chunks, rest) = bytes.as_chunks::<RECORD_BYTES>();
    assert!(rest.is_empty(), "whole records only");
    let records: Vec<ChampSimRecord> = chunks
        .iter()
        .enumerate()
        .map(|(i, b)| ChampSimRecord::parse(b, (i * RECORD_BYTES) as u64).unwrap())
        .collect();
    let map_reg = |id: u8| (id != 0).then(|| Reg((id - 1) % NUM_REGS as u8));
    let mut out = Vec::new();
    for (i, r) in records.iter().enumerate() {
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
        let mut emitted_mem = false;
        for &vaddr in r.src_mem.iter().filter(|&&m| m != 0) {
            out.push(uop(UopKind::Load, vaddr, dst, false));
            emitted_mem = true;
        }
        for &vaddr in r.dest_mem.iter().filter(|&&m| m != 0) {
            out.push(uop(UopKind::Store, vaddr, None, false));
            emitted_mem = true;
        }
        if r.is_branch {
            let target = records
                .get(i + 1)
                .map(|n| n.ip)
                .unwrap_or(r.ip.wrapping_add(4));
            out.push(uop(UopKind::CondBranch, target, None, r.branch_taken));
        } else if !emitted_mem {
            out.push(uop(UopKind::Int, 0, dst, false));
        }
    }
    out
}

/// A reader that returns at most `step` bytes per call, as a pipe may.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn equivalence_tier(seed: u64, cases: usize) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..cases {
        // The first case spans more than two of the decoder's 64 KiB
        // read blocks.
        let n = if case == 0 {
            2_100
        } else {
            1 + rng.next_below(40) as usize
        };
        let mut records: Vec<ChampSimRecord> = (0..n).map(|_| random_record(&mut rng)).collect();
        // One record fills all six memory slots and names no register.
        let full = &mut records[rng.next_below(n as u64) as usize];
        full.dest_mem = [0x1000, 0x2040];
        full.src_mem = [0x3080, 0x40c0, 0x5100, 0x6140];
        full.dest_regs = [0; 2];
        full.src_regs = [0; 4];
        // Half the cases end on a branch, whose target is its
        // fall-through.
        if case % 2 == 0 {
            if let Some(last) = records.last_mut() {
                last.is_branch = true;
            }
        }
        let bytes: Vec<u8> = records.iter().flat_map(|r| r.to_bytes()).collect();
        let expected = two_pass_decode(&bytes);
        assert_eq!(
            champsim::decode(&bytes[..]).unwrap(),
            expected,
            "seed {seed:#x} case {case}"
        );
        let step = 1 + rng.next_below(3 * RECORD_BYTES as u64) as usize;
        let trickled = champsim::decode(Trickle {
            bytes: &bytes,
            step,
        })
        .unwrap();
        assert_eq!(
            trickled, expected,
            "seed {seed:#x} case {case}, {step}-byte reads"
        );
    }
}

#[test]
fn one_pass_champsim_decode_matches_two_pass_lowering() {
    equivalence_tier(0x0DEC_0DE5_0001, 12);
}

#[test]
#[ignore = "long tier: cargo test --release -p bosim-trace -- --ignored"]
fn one_pass_champsim_decode_matches_two_pass_lowering_long() {
    equivalence_tier(0x0DEC_0DE5_0002, 50_000);
}
