//! Trace analysis utilities.
//!
//! Answers the questions the paper's §3 asks of a workload before
//! choosing a prefetcher: what is the instruction mix, which line-stride
//! patterns appear (and with what period), and how large is the touched
//! working set. Used by the examples, by `bosim inspect`, and by tests
//! validating that the synthetic suite exhibits the patterns it claims
//! to.
//!
//! Everything here renders into user-visible `inspect` output, so the
//! module is determinism-sensitive (lint rule D001): all aggregation
//! uses ordered containers, making the output byte-stable across runs —
//! equal-count entries tie-break by ascending key, never by hash order.

use crate::record::{MicroOp, UopKind};
use std::collections::BTreeMap;

/// Instruction-mix and memory-behaviour summary of a trace window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// µops analysed.
    pub uops: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// Branches (all kinds).
    pub branches: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// FP operations.
    pub fp_ops: u64,
    /// Distinct 64-byte lines touched by data accesses.
    pub distinct_lines: u64,
    /// Distinct 4KB pages touched by data accesses.
    pub distinct_pages: u64,
    /// Distinct instruction lines (code footprint).
    pub code_lines: u64,
}

impl TraceSummary {
    /// Loads per µop (memory intensity).
    pub fn load_ratio(&self) -> f64 {
        if self.uops == 0 {
            0.0
        } else {
            self.loads as f64 / self.uops as f64
        }
    }

    /// Touched data footprint in bytes (distinct lines × 64).
    pub fn data_footprint_bytes(&self) -> u64 {
        self.distinct_lines * 64
    }
}

/// Summarises a µop window.
pub fn summarize(uops: &[MicroOp]) -> TraceSummary {
    let mut s = TraceSummary::default();
    let mut lines = std::collections::BTreeSet::new();
    let mut pages = std::collections::BTreeSet::new();
    let mut code = std::collections::BTreeSet::new();
    for u in uops {
        s.uops += 1;
        code.insert(u.pc >> 6);
        match u.kind {
            UopKind::Load => s.loads += 1,
            UopKind::Store => s.stores += 1,
            UopKind::Fp | UopKind::FpDiv => s.fp_ops += 1,
            _ => {}
        }
        if u.kind.is_branch() {
            s.branches += 1;
            if u.taken {
                s.taken_branches += 1;
            }
        }
        if let Some(addr) = u.data_addr() {
            lines.insert(addr >> 6);
            pages.insert(addr >> 12);
        }
    }
    s.distinct_lines = lines.len() as u64;
    s.distinct_pages = pages.len() as u64;
    s.code_lines = code.len() as u64;
    s
}

/// A detected per-PC stride pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct StridePattern {
    /// The load/store PC.
    pub pc: u64,
    /// Dominant byte stride between successive accesses of this PC.
    pub stride: i64,
    /// Fraction (0..=1) of successive accesses exhibiting that stride.
    pub regularity: f64,
    /// Occurrences of this PC in the window.
    pub count: u64,
}

/// Detects, per memory-accessing PC, the dominant access stride — the
/// information the DL1 stride prefetcher (§5.5) extracts in hardware.
///
/// Returns patterns sorted by decreasing occurrence count; PCs seen fewer
/// than `min_count` times are skipped.
pub fn stride_patterns(uops: &[MicroOp], min_count: u64) -> Vec<StridePattern> {
    struct PcState {
        last: u64,
        strides: BTreeMap<i64, u64>,
        count: u64,
    }
    let mut per_pc: BTreeMap<u64, PcState> = BTreeMap::new();
    for u in uops {
        let Some(addr) = u.data_addr() else { continue };
        let e = per_pc.entry(u.pc).or_insert(PcState {
            last: addr,
            strides: BTreeMap::new(),
            count: 0,
        });
        if e.count > 0 {
            let stride = addr as i64 - e.last as i64;
            *e.strides.entry(stride).or_insert(0) += 1;
        }
        e.last = addr;
        e.count += 1;
    }
    let mut out: Vec<StridePattern> = per_pc
        .into_iter()
        .filter(|(_, st)| st.count >= min_count)
        .map(|(pc, st)| {
            let total: u64 = st.strides.values().sum();
            let (&stride, &n) = st
                .strides
                .iter()
                .max_by_key(|&(_, &n)| n)
                .unwrap_or((&0, &0));
            StridePattern {
                pc,
                stride,
                regularity: if total == 0 {
                    0.0
                } else {
                    n as f64 / total as f64
                },
                count: st.count,
            }
        })
        .collect();
    // Stable sort over the PC-ordered map: equal counts keep ascending
    // PC order, so the ranking is reproducible byte for byte.
    out.sort_by_key(|p| std::cmp::Reverse(p.count));
    out
}

/// Histogram of *line* strides within memory regions of
/// `2^region_shift` bytes — what an L2 offset prefetcher observes per
/// region (interleaved streams live in different regions, so strides are
/// tracked per region like the stream detectors of §2 do). Returns
/// `(line_stride, occurrences)` sorted by decreasing occurrence.
pub fn line_stride_histogram(uops: &[MicroOp], region_shift: u32) -> Vec<(i64, u64)> {
    let mut hist: BTreeMap<i64, u64> = BTreeMap::new();
    let mut last: BTreeMap<u64, u64> = BTreeMap::new();
    for u in uops {
        let Some(addr) = u.data_addr() else { continue };
        let line = addr >> 6;
        let region = addr >> region_shift;
        if let Some(&prev) = last.get(&region) {
            if line != prev {
                *hist.entry(line as i64 - prev as i64).or_insert(0) += 1;
            }
        }
        last.insert(region, line);
    }
    let mut out: Vec<(i64, u64)> = hist.into_iter().collect();
    // Stable sort over stride-ordered entries: ties rank by ascending
    // stride.
    out.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::capture;
    use crate::suite;

    #[test]
    fn summary_counts_mix() {
        let spec = suite::benchmark("470").expect("exists");
        let uops = capture(&mut spec.build(), 20_000);
        let s = summarize(&uops);
        assert_eq!(s.uops, 20_000);
        assert!(s.loads > 1_000, "{s:?}");
        assert!(s.stores > 100, "lbm-like is store-heavy: {s:?}");
        assert!(s.branches > 1_000);
        assert!(s.fp_ops > 1_000, "lbm-like is FP: {s:?}");
        assert!(s.load_ratio() > 0.1 && s.load_ratio() < 0.6);
    }

    #[test]
    fn resident_benchmarks_revisit_lines_streaming_ones_do_not() {
        let resident = summarize(&capture(
            &mut suite::benchmark("444").unwrap().build(),
            300_000,
        ));
        let streaming = summarize(&capture(
            &mut suite::benchmark("410").unwrap().build(),
            300_000,
        ));
        // New-lines-per-load: a resident loop revisits its buffer, a
        // streaming benchmark keeps touching fresh lines.
        let r = resident.distinct_lines as f64 / resident.loads as f64;
        let s = streaming.distinct_lines as f64 / streaming.loads as f64;
        assert!(r < s, "resident {r:.4} vs streaming {s:.4}");
        // And the resident footprint stays bounded by its buffer.
        assert!(resident.data_footprint_bytes() <= 256 << 10);
    }

    #[test]
    fn gcc_like_has_large_code_footprint() {
        let gcc = summarize(&capture(
            &mut suite::benchmark("403").unwrap().build(),
            60_000,
        ));
        let quantum = summarize(&capture(
            &mut suite::benchmark("462").unwrap().build(),
            60_000,
        ));
        assert!(
            gcc.code_lines > quantum.code_lines * 3,
            "gcc {} vs libquantum {}",
            gcc.code_lines,
            quantum.code_lines
        );
    }

    #[test]
    fn stride_patterns_find_the_planted_stride() {
        let spec = suite::benchmark("465").expect("tonto-like");
        let uops = capture(&mut spec.build(), 50_000);
        let pats = stride_patterns(&uops, 100);
        assert!(!pats.is_empty());
        // tonto-like has PC-stable strided loads: at least one regular
        // pattern must be detected (in-line sub-strides cap regularity
        // below 1.0).
        assert!(
            pats.iter().any(|p| p.regularity > 0.8 && p.stride != 0),
            "{pats:?}"
        );
    }

    #[test]
    fn line_stride_histogram_shows_lbm_pattern() {
        let spec = suite::benchmark("470").expect("lbm-like");
        let uops = capture(&mut spec.build(), 80_000);
        let hist = line_stride_histogram(&uops, 22);
        // The [3,2] pattern must put strides 3 and 2 among the most
        // common non-zero strides within each 4MB region.
        let top: Vec<i64> = hist.iter().take(4).map(|&(s, _)| s).collect();
        assert!(
            top.contains(&3) && top.contains(&2),
            "expected the 3/2 line strides near the top: {top:?}"
        );
    }

    #[test]
    fn analysis_output_is_byte_stable() {
        // Regression: these tables feed `bosim inspect`, whose output
        // must be identical across runs. HashMap aggregation made the
        // rendering depend on per-process hash seeds; the ordered
        // containers pin it down. Two independent analyses of the same
        // window must render byte-identically, and equal-count entries
        // must rank by ascending key.
        let spec = suite::benchmark("403").expect("gcc-like exists");
        let uops = capture(&mut spec.build(), 60_000);
        let render = |uops: &[MicroOp]| {
            let mut s = String::new();
            for p in stride_patterns(uops, 16) {
                s.push_str(&format!(
                    "{:x} {} {:.4} {}\n",
                    p.pc, p.stride, p.regularity, p.count
                ));
            }
            for (stride, n) in line_stride_histogram(uops, 22) {
                s.push_str(&format!("{stride} {n}\n"));
            }
            s
        };
        assert_eq!(render(&uops), render(&uops));

        let pats = stride_patterns(&uops, 16);
        for w in pats.windows(2) {
            if w[0].count == w[1].count {
                assert!(w[0].pc < w[1].pc, "ties must rank by ascending PC");
            }
        }
        let hist = line_stride_histogram(&uops, 22);
        for w in hist.windows(2) {
            assert!(w[0].1 >= w[1].1);
            if w[0].1 == w[1].1 {
                assert!(w[0].0 < w[1].0, "ties must rank by ascending stride");
            }
        }
    }

    #[test]
    fn empty_window_is_sane() {
        let s = summarize(&[]);
        assert_eq!(s.uops, 0);
        assert_eq!(s.load_ratio(), 0.0);
        assert!(stride_patterns(&[], 1).is_empty());
        assert!(line_stride_histogram(&[], 22).is_empty());
    }
}
