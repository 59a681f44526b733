//! The §3.3 worked example: two interleaved streams with different
//! periods (2 and 3 lines) can both be prefetched perfectly with an
//! offset that is a multiple of 6 — and BO finds one.
//!
//! Run with: `cargo run --release -p bosim-bench --example interleaved_streams`

use best_offset::{AccessOutcome, BestOffsetPrefetcher, CacheAccess, Prefetcher};
use bosim_types::{LineAddr, PageSize};

fn main() {
    let mut bo = BestOffsetPrefetcher::with_defaults(PageSize::M4);
    let mut reqs = Vec::new();

    // S1: 101010... (period 2 lines), S2: 110110... (period 3 lines,
    // strides 1,2). Different memory regions, interleaved accesses.
    let mut s1 = 0u64; // region A
    let mut s2 = 1 << 30; // region B
    let mut s2_step = 0;
    let access = |bo: &mut BestOffsetPrefetcher, reqs: &mut Vec<LineAddr>, line: u64| {
        reqs.clear();
        bo.on_access(
            CacheAccess {
                line: LineAddr(line),
                outcome: AccessOutcome::Miss,
            },
            reqs,
        );
        for &r in reqs.iter() {
            bo.on_fill(r, true);
        }
    };
    for i in 0..300_000u64 {
        access(&mut bo, &mut reqs, s1);
        // Mild scrambling, as observed on real machines (§3.1): without
        // it the 52-entry offset round-robin locks each candidate to one
        // of the two perfectly alternating streams.
        if i % 7 == 0 {
            s1 += 2;
            access(&mut bo, &mut reqs, s1);
        }
        access(&mut bo, &mut reqs, s2);
        s1 += 2;
        s2 += if s2_step == 0 { 1 } else { 2 };
        s2_step = (s2_step + 1) % 2;
    }

    let d = bo.current_offset();
    println!("learned offset D = {d}");
    println!("multiple of 6 (lcm of both periods): {}", d % 6 == 0);
    println!("stats: {:?}", bo.stats());
    assert!(bo.is_prefetching());
    assert_eq!(d % 6, 0, "offset must serve both streams (multiple of 6)");
}
