//! Fixed-offset prefetchers, including the default next-line prefetcher.
//!
//! The baseline L2 prefetcher is "a simple next-line prefetcher with
//! prefetch bits" (§5.6): on a miss or prefetched hit for line `X`, it
//! prefetches `X + 1`. Figure 7 and Figure 8 generalise this to arbitrary
//! fixed offsets.

use best_offset::{CacheAccess, Prefetcher, TuneDirective};
use bosim_types::{LineAddr, PageSize};

/// An L2 prefetcher with a constant offset `D` (degree one).
///
/// `D = 1` is the paper's baseline next-line prefetcher.
#[derive(Debug, Clone)]
pub struct FixedOffsetPrefetcher {
    offset: i64,
    page: PageSize,
    issued: u64,
    /// External gate imposed by an adaptive tuning policy
    /// (`TuneDirective::SetEnabled`).
    enabled: bool,
}

impl FixedOffsetPrefetcher {
    /// Creates a fixed-offset prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `offset == 0`.
    pub fn new(offset: i64, page: PageSize) -> Self {
        assert!(offset != 0, "offset 0 is not a prefetch");
        FixedOffsetPrefetcher {
            offset,
            page,
            issued: 0,
            enabled: true,
        }
    }

    /// The paper's baseline: next-line prefetching (`D = 1`).
    pub fn next_line(page: PageSize) -> Self {
        Self::new(1, page)
    }

    /// The constant offset.
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// Number of prefetch requests issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl Prefetcher for FixedOffsetPrefetcher {
    fn on_access(&mut self, access: CacheAccess, out: &mut Vec<LineAddr>) {
        if !self.enabled || !access.outcome.is_eligible() {
            return;
        }
        if let Some(target) = access.line.checked_offset(self.offset, self.page) {
            out.push(target);
            self.issued += 1;
        }
    }

    fn on_fill(&mut self, _line: LineAddr, _prefetched: bool) {}

    fn name(&self) -> &'static str {
        if self.offset == 1 {
            "next-line"
        } else {
            "fixed-offset"
        }
    }

    fn reconfigure(&mut self, directive: &TuneDirective) -> bool {
        match directive {
            TuneDirective::SetEnabled(on) => {
                self.enabled = *on;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use best_offset::AccessOutcome;

    fn run(p: &mut FixedOffsetPrefetcher, line: u64, outcome: AccessOutcome) -> Vec<LineAddr> {
        let mut out = Vec::new();
        p.on_access(
            CacheAccess {
                line: LineAddr(line),
                outcome,
            },
            &mut out,
        );
        out
    }

    #[test]
    fn next_line_prefetches_x_plus_1() {
        let mut p = FixedOffsetPrefetcher::next_line(PageSize::K4);
        assert_eq!(run(&mut p, 10, AccessOutcome::Miss), vec![LineAddr(11)]);
        assert_eq!(
            run(&mut p, 20, AccessOutcome::PrefetchedHit),
            vec![LineAddr(21)]
        );
        assert!(run(&mut p, 30, AccessOutcome::Hit).is_empty());
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn page_boundary_respected() {
        let mut p = FixedOffsetPrefetcher::new(5, PageSize::K4);
        assert!(run(&mut p, 60, AccessOutcome::Miss).is_empty());
        assert_eq!(run(&mut p, 58, AccessOutcome::Miss), vec![LineAddr(63)]);
    }

    #[test]
    fn large_offsets_work_with_superpages() {
        let mut p = FixedOffsetPrefetcher::new(200, PageSize::M4);
        assert_eq!(run(&mut p, 100, AccessOutcome::Miss), vec![LineAddr(300)]);
        let mut p4k = FixedOffsetPrefetcher::new(200, PageSize::K4);
        assert!(run(&mut p4k, 100, AccessOutcome::Miss).is_empty());
    }

    #[test]
    fn negative_offset_supported() {
        let mut p = FixedOffsetPrefetcher::new(-2, PageSize::M4);
        assert_eq!(run(&mut p, 100, AccessOutcome::Miss), vec![LineAddr(98)]);
    }

    #[test]
    fn external_gate_stops_issue() {
        let mut p = FixedOffsetPrefetcher::next_line(PageSize::M4);
        assert!(p.reconfigure(&TuneDirective::SetEnabled(false)));
        assert!(run(&mut p, 10, AccessOutcome::Miss).is_empty());
        assert_eq!(p.issued(), 0);
        assert!(p.reconfigure(&TuneDirective::SetEnabled(true)));
        assert_eq!(run(&mut p, 10, AccessOutcome::Miss), vec![LineAddr(11)]);
        assert!(!p.reconfigure(&TuneDirective::SetDegree(2)), "unsupported");
    }

    #[test]
    fn names() {
        assert_eq!(
            FixedOffsetPrefetcher::next_line(PageSize::K4).name(),
            "next-line"
        );
        assert_eq!(
            FixedOffsetPrefetcher::new(5, PageSize::K4).name(),
            "fixed-offset"
        );
    }
}
