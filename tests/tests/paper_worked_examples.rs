//! End-to-end checks of the worked examples in §3 of the paper, driven
//! through the public `best-offset` API.

use best_offset::{AccessOutcome, BestOffsetPrefetcher, CacheAccess, Prefetcher};
use bosim_types::{LineAddr, PageSize};

fn drive_pattern(bo: &mut BestOffsetPrefetcher, strides: &[u64], laps: usize) {
    let mut reqs = Vec::new();
    let mut line = 4096u64;
    for _ in 0..laps {
        for &s in strides {
            reqs.clear();
            bo.on_access(
                CacheAccess {
                    line: LineAddr(line),
                    outcome: AccessOutcome::Miss,
                },
                &mut reqs,
            );
            for &r in &reqs {
                bo.on_fill(r, true);
            }
            line += s;
        }
    }
}

/// §3.1: a sequential stream is covered by any positive offset; BO keeps
/// prefetching with some offset ≥ 1.
#[test]
fn example_1_sequential_stream() {
    let mut bo = BestOffsetPrefetcher::with_defaults(PageSize::M4);
    drive_pattern(&mut bo, &[1], 120_000);
    assert!(bo.is_prefetching());
    assert!(bo.current_offset() >= 1);
    assert!(bo.stats().phases > 0);
}

/// §3.2: a +96-byte stride (line pattern 110110...) is covered perfectly
/// by a multiple of 3.
#[test]
fn example_2_strided_stream() {
    let mut bo = BestOffsetPrefetcher::with_defaults(PageSize::M4);
    // Line strides alternate 1, 2 (two lines touched per 3-line period).
    drive_pattern(&mut bo, &[1, 2], 80_000);
    assert!(bo.is_prefetching());
    assert_eq!(
        bo.current_offset() % 3,
        0,
        "offset {} is not a multiple of the period",
        bo.current_offset()
    );
}

/// §3.3: interleaved period-2 and period-3 streams are both covered by a
/// multiple of 6.
#[test]
fn example_3_interleaved_streams() {
    let mut bo = BestOffsetPrefetcher::with_defaults(PageSize::M4);
    let mut reqs = Vec::new();
    let mut s1 = 0u64;
    let mut s2 = 1u64 << 32;
    let mut s2_phase = 0;
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
    for i in 0..250_000u64 {
        access(&mut bo, &mut reqs, s1);
        // Mild scrambling (as on real machines, §3.1): occasionally two
        // S1 accesses arrive back-to-back, so the offset-list round-robin
        // does not lock each candidate offset to one stream.
        if i % 7 == 0 {
            s1 += 2;
            access(&mut bo, &mut reqs, s1);
        }
        access(&mut bo, &mut reqs, s2);
        s1 += 2;
        s2 += [1, 2][s2_phase];
        s2_phase ^= 1;
    }
    assert!(bo.is_prefetching());
    assert_eq!(
        bo.current_offset() % 6,
        0,
        "offset {} cannot serve both streams",
        bo.current_offset()
    );
}
