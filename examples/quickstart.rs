//! Quickstart: drive a Best-Offset prefetcher by hand.
//!
//! The BO prefetcher observes L2 read accesses (misses and prefetched
//! hits) and completed prefetch fills; everything else in the repo exists
//! to generate those two event streams realistically. This example feeds
//! it a strided access pattern directly and watches it learn the offset.
//!
//! Run with: `cargo run --release -p bosim-bench --example quickstart`

use best_offset::{AccessOutcome, BestOffsetPrefetcher, CacheAccess, Prefetcher};
use bosim_types::{LineAddr, PageSize};

fn main() {
    let mut bo = BestOffsetPrefetcher::with_defaults(PageSize::M4);
    let mut requests = Vec::new();

    // A program streaming through memory with a stride of +3 lines
    // (e.g. a 192-byte record per loop iteration).
    let mut line = 1_000u64;
    for access in 0..200_000u64 {
        requests.clear();
        bo.on_access(
            CacheAccess {
                line: LineAddr(line),
                outcome: AccessOutcome::Miss,
            },
            &mut requests,
        );
        // Pretend every prefetch completes in time: the line is inserted
        // into the L2 still flagged as a prefetch, so BO records its base
        // address (Y - D) in the recent-requests table.
        for &l in &requests {
            bo.on_fill(l, true);
        }
        line += 3;
        if access % 50_000 == 0 {
            println!(
                "after {:>6} accesses: D = {:>3}, prefetching = {}",
                access,
                bo.current_offset(),
                bo.is_prefetching()
            );
        }
    }
    println!(
        "final offset D = {} (multiple of the stride period 3: {})",
        bo.current_offset(),
        bo.current_offset() % 3 == 0
    );
    println!("stats: {:?}", bo.stats());
    assert_eq!(bo.current_offset() % 3, 0);
}
