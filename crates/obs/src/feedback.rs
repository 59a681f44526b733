//! The counter records every view of a run reads — run results,
//! adaptive policies and their log, the epoch series, its JSONL file
//! and Perfetto tracks — so each counter and each rate is defined once.

use bosim_stats::Json;

/// One prefetch site's usefulness counters: what happened to the lines
/// it fetched, the paper's measure of a prefetcher (§5.6).
///
/// The uncore keeps one cumulative instance per core's L2 site and one
/// shared instance for the L3 site. At the L3, `prefetch_fills` counts
/// *every* prefetch-class insertion — L2-issued prefetches fill the L3
/// on their way up (§5.4) — while `issued` counts only the L3 site's own
/// DRAM requests. Subtracting two snapshots gives an epoch's deltas.
///
/// Every prefetch-filled line resolves at most once — its first hit
/// from above (useful) or its eviction with the prefetch bit still set
/// (unused) — so cumulatively `useful + unused_evicted <=
/// prefetch_fills` ([`check_resolution`](Self::check_resolution)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchTelemetry {
    /// Read accesses from the level above (demand + upper-level
    /// prefetch).
    pub accesses: u64,
    /// ... of which missed (fill-queue merges included).
    pub misses: u64,
    /// Prefetch requests the site issued to the next level.
    pub issued: u64,
    /// Lines inserted into the site's cache still carrying prefetch
    /// class.
    pub prefetch_fills: u64,
    /// First touches from above (demand or upper-level prefetch) of
    /// lines whose prefetch bit was still set — the prefetched hits of
    /// §5.6.
    pub useful: u64,
    /// Prefetch-filled lines evicted with the prefetch bit still set.
    pub unused_evicted: u64,
    /// Demand requests that merged with (and promoted) an in-flight
    /// prefetch fill — correct but late prefetches.
    pub late_promotions: u64,
}

/// `num / den`, or `None` when the denominator is 0.
fn rate(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

bosim_types::counter_arith!(PrefetchTelemetry {
    accesses,
    misses,
    issued,
    prefetch_fills,
    useful,
    unused_evicted,
    late_promotions,
});

impl PrefetchTelemetry {
    /// Prefetch fills whose fate is known: a first hit or an unused
    /// eviction. Fills still resident and untouched are unresolved.
    pub fn resolved_fills(&self) -> u64 {
        self.useful + self.unused_evicted
    }

    /// Accuracy: useful fills over resolved fills; `None` until a fill
    /// resolved.
    pub fn accuracy(&self) -> Option<f64> {
        rate(self.useful, self.resolved_fills())
    }

    /// Coverage: the fraction of would-be misses the prefetcher turned
    /// into prefetched hits, useful / (useful + misses); `None` with
    /// neither.
    pub fn coverage(&self) -> Option<f64> {
        rate(self.useful, self.useful + self.misses)
    }

    /// Lateness: among correct prefetches, the fraction whose demand
    /// caught the fill in flight, late / (late + useful); `None` when no
    /// prefetch was correct.
    pub fn lateness(&self) -> Option<f64> {
        rate(self.late_promotions, self.late_promotions + self.useful)
    }

    /// Checks that no prefetch-filled line resolved twice:
    /// `useful + unused_evicted <= prefetch_fills`. Holds on cumulative
    /// counters, not per epoch — a fill may resolve epochs later.
    ///
    /// # Errors
    ///
    /// Returns the three counters when the invariant fails.
    pub fn check_resolution(&self) -> Result<(), String> {
        if self.resolved_fills() > self.prefetch_fills {
            return Err(format!(
                "useful ({}) + unused-evicted ({}) exceeds prefetch fills ({})",
                self.useful, self.unused_evicted, self.prefetch_fills
            ));
        }
        Ok(())
    }

    /// The counters and their three rates as a JSON object; an
    /// undefined rate is `null`.
    pub fn to_json(&self) -> Json {
        let PrefetchTelemetry {
            accesses,
            misses,
            issued,
            prefetch_fills,
            useful,
            unused_evicted,
            late_promotions,
        } = *self;
        Json::obj([
            ("accesses", Json::from(accesses)),
            ("misses", Json::from(misses)),
            ("issued", Json::from(issued)),
            ("prefetch_fills", Json::from(prefetch_fills)),
            ("useful", Json::from(useful)),
            ("unused_evicted", Json::from(unused_evicted)),
            ("late_promotions", Json::from(late_promotions)),
            ("accuracy", Json::from(self.accuracy())),
            ("coverage", Json::from(self.coverage())),
            ("lateness", Json::from(self.lateness())),
        ])
    }
}

/// One core's epoch: counter deltas over the epoch plus the shared
/// DRAM-bus occupancy and L3 residency gauge.
///
/// The simulator builds one per core at every boundary of its epoch
/// clock. Each core's tuning policy reads its own, and core 0's is the
/// epoch series of the adaptive telemetry and of the observability
/// report alike.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochFeedback {
    /// Epoch index since simulation start (0-based).
    pub epoch: u64,
    /// First cycle of the epoch.
    pub start_cycle: u64,
    /// Epoch length in cycles.
    pub cycles: u64,
    /// Instructions the core retired in the epoch.
    pub instructions: u64,
    /// This core's L2 site.
    pub l2: PrefetchTelemetry,
    /// The shared L3 site: one structure serving every core, so
    /// multi-core runs see the same machine-wide deltas in each core's
    /// record.
    pub l3: PrefetchTelemetry,
    /// DRAM read CAS commands in the epoch (all cores).
    pub dram_reads: u64,
    /// DRAM write CAS commands in the epoch (all cores).
    pub dram_writes: u64,
    /// Fraction of the epoch the DRAM data buses were busy transferring
    /// lines, 0.0 (idle) ..= ~1.0 (saturated), aggregated over channels.
    pub bus_occupancy: f64,
    /// L1D-site prefetch requests this core issued (post-TLB2).
    pub l1_prefetches: u64,
    /// L1D-site prefetch requests dropped on a TLB2 miss.
    pub l1_tlb_drops: u64,
    /// Lines resident in the shared L3 with the prefetch bit still set
    /// at the epoch's end — a cache-pollution gauge, not a delta.
    pub l3_prefetch_resident: u64,
}

impl EpochFeedback {
    /// Instructions per cycle over the epoch.
    pub fn ipc(&self) -> f64 {
        rate(self.instructions, self.cycles).unwrap_or(0.0)
    }

    /// The record as one JSON object: one line of the epoch JSONL
    /// file, one element of the report's epoch arrays.
    pub fn to_json(&self) -> Json {
        let EpochFeedback {
            epoch,
            start_cycle,
            cycles,
            instructions,
            l2,
            l3,
            dram_reads,
            dram_writes,
            bus_occupancy,
            l1_prefetches,
            l1_tlb_drops,
            l3_prefetch_resident,
        } = *self;
        Json::obj([
            ("epoch", Json::from(epoch)),
            ("start_cycle", Json::from(start_cycle)),
            ("cycles", Json::from(cycles)),
            ("instructions", Json::from(instructions)),
            ("ipc", Json::from(self.ipc())),
            ("l2", l2.to_json()),
            ("l3", l3.to_json()),
            ("dram_reads", Json::from(dram_reads)),
            ("dram_writes", Json::from(dram_writes)),
            ("bus_occupancy", Json::from(bus_occupancy)),
            ("l1_prefetches", Json::from(l1_prefetches)),
            ("l1_tlb_drops", Json::from(l1_tlb_drops)),
            ("l3_prefetch_resident", Json::from(l3_prefetch_resident)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb() -> EpochFeedback {
        EpochFeedback {
            epoch: 3,
            cycles: 10_000,
            instructions: 12_000,
            l2: PrefetchTelemetry {
                misses: 60,
                prefetch_fills: 100,
                useful: 40,
                unused_evicted: 10,
                late_promotions: 10,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let f = fb();
        assert!((f.ipc() - 1.2).abs() < 1e-12);
        assert_eq!(f.l2.resolved_fills(), 50);
        assert!((f.l2.accuracy().unwrap() - 0.8).abs() < 1e-12);
        assert!((f.l2.coverage().unwrap() - 0.4).abs() < 1e-12);
        assert!((f.l2.lateness().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(f.l2 - f.l2, PrefetchTelemetry::default());
        assert_eq!((f.l2 + f.l2).useful, 80);
    }

    #[test]
    fn empty_epoch_has_no_rates() {
        let f = EpochFeedback::default();
        assert_eq!(f.ipc(), 0.0);
        for site in [f.l2, f.l3] {
            assert_eq!(site.accuracy(), None);
            assert_eq!(site.coverage(), None);
            assert_eq!(site.lateness(), None);
        }
    }

    #[test]
    fn json_includes_derived_rates() {
        let j = fb().to_json().to_string();
        assert!(j.contains("\"accuracy\":0.8"), "{j}");
        assert!(j.contains("\"epoch\":3"));
        assert!(j.contains("\"l3\":{"), "{j}");
        assert!(j.contains("\"l1_prefetches\":0"), "{j}");
    }

    /// The `l2` and `l3` blocks are one schema, and a rate whose
    /// denominator is 0 is `null`, never 0.
    #[test]
    fn site_blocks_share_keys_and_undefined_rates_are_null() {
        let keys = |j: &Json, site: &str| match j.get(site) {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("{site}: {other:?}"),
        };
        let j = fb().to_json();
        assert_eq!(keys(&j, "l2"), keys(&j, "l3"));
        let empty = EpochFeedback::default().to_json();
        for site in ["l2", "l3"] {
            for rate in ["accuracy", "coverage", "lateness"] {
                let v = empty.get(site).and_then(|s| s.get(rate));
                assert_eq!(v, Some(&Json::Null), "{site} {rate}");
            }
        }
    }

    #[test]
    fn site_feedback_rates() {
        let site = PrefetchTelemetry {
            issued: 100,
            prefetch_fills: 90,
            useful: 30,
            unused_evicted: 10,
            ..Default::default()
        };
        assert_eq!(site.resolved_fills(), 40);
        assert_eq!(site.accuracy(), Some(0.75));
        assert_eq!(PrefetchTelemetry::default().accuracy(), None);
        let j = site.to_json().to_string();
        assert!(j.contains("\"issued\":100"), "{j}");
        assert!(site.check_resolution().is_ok());
        let err = PrefetchTelemetry {
            unused_evicted: 61,
            ..site
        }
        .check_resolution()
        .unwrap_err();
        assert!(err.contains("exceeds prefetch fills (90)"), "{err}");
    }
}
