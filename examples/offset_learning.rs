//! Watch a learning phase in detail: scores accumulating per offset and
//! the effect of BADSCORE throttling on random traffic (§4.1, §4.3).
//!
//! Run with: `cargo run --release -p bosim-bench --example offset_learning`

use best_offset::{AccessOutcome, BestOffsetPrefetcher, CacheAccess, Prefetcher};
use bosim_types::{mix64, LineAddr, PageSize};

fn drive(bo: &mut BestOffsetPrefetcher, lines: impl Iterator<Item = u64>) {
    let mut reqs = Vec::new();
    for l in lines {
        reqs.clear();
        bo.on_access(
            CacheAccess {
                line: LineAddr(l),
                outcome: AccessOutcome::Miss,
            },
            &mut reqs,
        );
        for &r in &reqs {
            bo.on_fill(r, true);
        }
        // The demand fill itself also reaches the L2 (when prefetch is
        // off, BO records every fetched line with D = 0, §4.3).
        bo.on_fill(LineAddr(l), false);
    }
}

fn top_scores(bo: &BestOffsetPrefetcher) -> Vec<(i64, u32)> {
    let mut pairs: Vec<(i64, u32)> = bo
        .config()
        .offsets
        .iter()
        .zip(bo.scores().iter().copied())
        .collect();
    pairs.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    pairs.truncate(5);
    pairs
}

fn main() {
    // Phase 1: a +2-line stride stream. Offsets that are multiples of 2
    // accumulate score; the best one becomes D.
    let mut bo = BestOffsetPrefetcher::with_defaults(PageSize::M4);
    let mut line = 0u64;
    for round in 0..6 {
        drive(
            &mut bo,
            (0..2_000).map(|_| {
                line += 2;
                line
            }),
        );
        println!(
            "round {}: D = {:>3} on = {:>5} top scores {:?}",
            round,
            bo.current_offset(),
            bo.is_prefetching(),
            top_scores(&bo)
        );
    }
    assert_eq!(bo.current_offset() % 2, 0);

    // Phase 2: purely random lines. No offset scores above BADSCORE, so
    // prefetch turns off -- but learning continues.
    let mut x = 42u64;
    // Enough accesses for the in-progress mixed phase to finish AND a
    // full clean phase of random traffic (ROUNDMAX * 52 accesses).
    drive(
        &mut bo,
        (0..52 * 220).map(|_| {
            x = x.wrapping_add(1);
            mix64(x) >> 24
        }),
    );
    println!(
        "after random traffic: prefetching = {} (phases: {:?})",
        bo.is_prefetching(),
        bo.stats()
    );
    assert!(!bo.is_prefetching(), "BADSCORE throttling must fire");

    // Phase 3: the stream returns; prefetch re-enables.
    drive(&mut bo, (0..52 * 60).map(|i| 1_000_000 + i * 2));
    println!(
        "after the stream returns: prefetching = {}, D = {}",
        bo.is_prefetching(),
        bo.current_offset()
    );
    assert!(bo.is_prefetching());
}
