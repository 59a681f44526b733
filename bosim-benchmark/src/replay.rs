//! Component replays: each drives one layer's public entry point with a
//! fixed, seeded input stream and reports host nanoseconds per
//! operation. They isolate a layer's cost from the rest of the machine,
//! which the end-to-end workloads cannot do.

use crate::workload::Scale;
use best_offset::{AccessOutcome, BestOffsetPrefetcher, CacheAccess, Prefetcher};
use bosim_cache::policy::{InsertCtx, PolicyKind};
use bosim_cache::CacheArray;
use bosim_dram::{MemConfig, MemorySystem};
use bosim_trace::{capture, champsim, BenchmarkSpec, TraceSource};
use bosim_types::{CoreId, LineAddr, PageSize, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

pub struct Replays {
    /// `BenchmarkSpec::build` plus `next_uop` over the workload's specs.
    pub gen_ns_per_uop: f64,
    /// BO `on_access` + `on_fill` over a constant-stride miss stream.
    pub bo_ns_per_access: f64,
    /// `CacheArray` access, and insert on a miss, shaped like the L3.
    pub cache_ns_per_access: f64,
    /// `MemorySystem` enqueue-to-completion of random-line reads.
    pub dram_ns_per_read: f64,
}

fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Runs every replay. `scale` shrinks the streams for smoke tests.
pub fn run(specs: &[BenchmarkSpec], seed: u64, scale: Scale) -> Replays {
    let n = match scale {
        Scale::Full => 1_000_000,
        Scale::Quick => 20_000,
    };
    Replays {
        gen_ns_per_uop: trace_gen(specs, n / 4),
        bo_ns_per_access: best_offset(n),
        cache_ns_per_access: cache(n * 2, seed),
        dram_ns_per_read: dram(n / 50, seed),
    }
}

fn trace_gen(specs: &[BenchmarkSpec], uops_each: u64) -> f64 {
    let start = Instant::now();
    for spec in specs {
        let mut src = spec.build();
        for _ in 0..uops_each {
            black_box(src.next_uop());
        }
    }
    ns_per(start, uops_each * specs.len() as u64)
}

fn best_offset(accesses: u64) -> f64 {
    let mut bo = BestOffsetPrefetcher::with_defaults(PageSize::K4);
    let mut out = Vec::new();
    let mut issued = 0usize;
    let start = Instant::now();
    for i in 0..accesses {
        let line = LineAddr(black_box(3 * i));
        out.clear();
        bo.on_access(
            CacheAccess {
                line,
                outcome: AccessOutcome::Miss,
            },
            &mut out,
        );
        bo.on_fill(line, false);
        for &p in &out {
            bo.on_fill(p, true);
        }
        issued += out.len();
    }
    black_box(issued);
    ns_per(start, accesses)
}

fn cache(accesses: u64, seed: u64) -> f64 {
    const L3_BYTES: u64 = 8 << 20;
    let mut l3 = CacheArray::new(L3_BYTES, 16, PolicyKind::FiveP, 4, seed);
    let mut rng = SplitMix64::new(seed);
    // Four times the capacity: most accesses miss and evict, as in a
    // streaming L3.
    let span = 4 * L3_BYTES / 64;
    let start = Instant::now();
    for i in 0..accesses {
        let line = LineAddr(rng.next_below(span));
        if l3.access(line, false).is_none() {
            let ctx = InsertCtx {
                demand: true,
                core: CoreId((i % 4) as u8),
            };
            black_box(l3.insert(line, false, false, ctx));
        }
    }
    ns_per(start, accesses)
}

fn dram(reads: u64, seed: u64) -> f64 {
    let mut mem = MemorySystem::new(MemConfig {
        num_cores: 1,
        ..MemConfig::default()
    });
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    let (mut issued, mut done, mut now) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while done < reads {
        while issued < reads
            && mem.enqueue_read(LineAddr(rng.next_below(1 << 26)), CoreId(0), issued, now)
        {
            issued += 1;
        }
        mem.tick(now, true, &mut out);
        done += out.len() as u64;
        out.clear();
        now += 1;
    }
    ns_per(start, reads)
}

/// Decodes an in-memory ChampSim capture of each spec's first
/// `uops_each` µops; returns the decode seconds and the µops decoded.
pub fn decode(specs: &[BenchmarkSpec], uops_each: usize) -> (f64, u64) {
    let files: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| champsim::encode(&capture(&mut s.build(), uops_each)))
        .collect();
    let start = Instant::now();
    let mut uops = 0;
    for bytes in &files {
        let decoded = champsim::decode(&bytes[..]).expect("a fresh encoding decodes");
        uops += decoded.len() as u64;
    }
    (start.elapsed().as_secs_f64(), uops)
}
