//! Per-run adaptation telemetry: the epoch log.
//!
//! While an adaptive run executes, the simulator appends one
//! [`EpochRecord`] per epoch for the monitored core (core 0, the one
//! running the benchmark): the epoch's [`EpochFeedback`], the prefetcher
//! that produced it, and every directive the policy emitted at the
//! boundary. The full [`AdaptTelemetry`] rides in the simulation result
//! and from there into experiment report JSON, and carries the counter
//! invariants the CI smoke arm pins down.

use bosim_obs::{EpochFeedback, PrefetchTelemetry};
use bosim_stats::{Align, Json, Table};

/// One applied-or-rejected directive at an epoch boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectiveRecord {
    /// The directive, prefixed with the site it was applied at (e.g.
    /// `"l2:degree=2"`, `"l2:switch=none"`).
    pub directive: String,
    /// Whether the core's L2 prefetcher (or the simulator, for
    /// switches) accepted it.
    pub applied: bool,
}

/// One epoch of the monitored core's adaptation history.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The epoch's record (counter deltas; rates derive from them).
    pub feedback: EpochFeedback,
    /// Name of the prefetcher that ran during this epoch.
    pub prefetcher: String,
    /// Directives the policy emitted at this epoch's end boundary.
    pub directives: Vec<DirectiveRecord>,
}

impl EpochRecord {
    fn to_json(&self) -> Json {
        let mut obj = match self.feedback.to_json() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("feedback renders as an object"),
        };
        obj.push(("prefetcher".into(), Json::from(self.prefetcher.as_str())));
        obj.push((
            "directives".into(),
            Json::arr(self.directives.iter().map(|d| {
                Json::obj([
                    ("directive", Json::from(d.directive.as_str())),
                    ("applied", Json::from(d.applied)),
                ])
            })),
        ));
        Json::Obj(obj)
    }
}

/// The complete adaptation history of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptTelemetry {
    /// The tuning policy's label.
    pub policy: String,
    /// Epoch length in cycles.
    pub epoch_cycles: u64,
    /// One record per completed epoch of the monitored core, in order.
    /// (The trailing partial epoch at run end is not recorded.)
    pub epochs: Vec<EpochRecord>,
    /// Directives applied successfully, all cores.
    pub applied: u64,
    /// Directives rejected (unsupported by the running prefetcher), all
    /// cores.
    pub rejected: u64,
}

impl AdaptTelemetry {
    /// Checks the counter invariants the telemetry must satisfy:
    ///
    /// * summed over the epochs, every site (`l2` and `l3`) passes
    ///   [`PrefetchTelemetry::check_resolution`] — every
    ///   prefetch-filled line resolves at most once;
    /// * every site rate (accuracy, coverage, lateness) lies in
    ///   `[0, 1]`;
    /// * bus occupancy is non-negative and sane (≤ 1.25; boundary bursts
    ///   may spill a little past 1.0);
    /// * epoch indices are consecutive.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (mut l2, mut l3) = (PrefetchTelemetry::default(), PrefetchTelemetry::default());
        for (i, r) in self.epochs.iter().enumerate() {
            let fb = &r.feedback;
            if fb.epoch != i as u64 {
                return Err(format!("epoch {i} recorded index {}", fb.epoch));
            }
            l2 = l2 + fb.l2;
            l3 = l3 + fb.l3;
            for (site, t) in [("l2", &fb.l2), ("l3", &fb.l3)] {
                for (label, rate) in [
                    ("accuracy", t.accuracy()),
                    ("coverage", t.coverage()),
                    ("lateness", t.lateness()),
                ] {
                    if let Some(v) = rate.filter(|v| !(0.0..=1.0).contains(v)) {
                        return Err(format!("epoch {i}: {site} {label} {v} outside [0, 1]"));
                    }
                }
            }
            if !(0.0..=1.25).contains(&fb.bus_occupancy) {
                return Err(format!(
                    "epoch {i}: bus occupancy {} outside [0, 1.25]",
                    fb.bus_occupancy
                ));
            }
        }
        l2.check_resolution().map_err(|e| format!("L2 site: {e}"))?;
        l3.check_resolution().map_err(|e| format!("L3 site: {e}"))
    }

    /// The telemetry as a JSON tree (one object per epoch plus totals).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("policy", Json::from(self.policy.as_str())),
            ("epoch_cycles", Json::from(self.epoch_cycles)),
            ("directives_applied", Json::from(self.applied)),
            ("directives_rejected", Json::from(self.rejected)),
            (
                "epochs",
                Json::arr(self.epochs.iter().map(EpochRecord::to_json)),
            ),
        ])
    }

    /// An aligned text table of the epoch history — the human-readable
    /// counterpart of [`to_json`](Self::to_json).
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "epoch",
            "prefetcher",
            "ipc",
            "accuracy",
            "coverage",
            "lateness",
            "bus",
            "directives",
        ]);
        t.align([
            Align::Right,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Left,
        ]);
        let rate = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into());
        for r in &self.epochs {
            let fb = &r.feedback;
            let dirs: Vec<String> = r
                .directives
                .iter()
                .map(|d| {
                    if d.applied {
                        d.directive.clone()
                    } else {
                        format!("{}(rejected)", d.directive)
                    }
                })
                .collect();
            t.row([
                fb.epoch.to_string(),
                r.prefetcher.clone(),
                format!("{:.3}", fb.ipc()),
                rate(fb.l2.accuracy()),
                rate(fb.l2.coverage()),
                rate(fb.l2.lateness()),
                format!("{:.2}", fb.bus_occupancy),
                dirs.join(" "),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64, fills: u64, useful: u64, unused: u64) -> EpochRecord {
        EpochRecord {
            feedback: EpochFeedback {
                epoch,
                cycles: 1_000,
                instructions: 800,
                l2: PrefetchTelemetry {
                    prefetch_fills: fills,
                    useful,
                    unused_evicted: unused,
                    ..Default::default()
                },
                bus_occupancy: 0.3,
                ..Default::default()
            },
            prefetcher: "BO".into(),
            directives: vec![DirectiveRecord {
                directive: "degree=2".into(),
                applied: true,
            }],
        }
    }

    fn telemetry(epochs: Vec<EpochRecord>) -> AdaptTelemetry {
        AdaptTelemetry {
            policy: "degree-governor".into(),
            epoch_cycles: 1_000,
            epochs,
            applied: 1,
            rejected: 0,
        }
    }

    #[test]
    fn invariants_hold_for_a_sane_log() {
        // A fill from epoch 0 may resolve in epoch 1: the invariant is
        // cumulative, not per-epoch.
        let t = telemetry(vec![record(0, 100, 10, 0), record(1, 0, 60, 20)]);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn over_resolution_is_caught() {
        let t = telemetry(vec![record(0, 50, 40, 20)]);
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("exceeds prefetch fills"), "{err}");
        assert!(err.contains("L2 site"), "{err}");
    }

    #[test]
    fn l3_site_over_resolution_is_caught() {
        // The per-site invariant applies to the L3 block independently.
        let l3 = |useful| PrefetchTelemetry {
            issued: 5,
            prefetch_fills: 4,
            useful,
            unused_evicted: 2,
            ..Default::default()
        };
        let mut r = record(0, 100, 10, 0);
        r.feedback.l3 = l3(3);
        let err = telemetry(vec![r]).check_invariants().unwrap_err();
        assert!(err.contains("L3 site"), "{err}");
        // A consistent L3 block passes.
        let mut ok = record(0, 100, 10, 0);
        ok.feedback.l3 = l3(2);
        assert!(telemetry(vec![ok]).check_invariants().is_ok());
    }

    #[test]
    fn non_consecutive_epochs_are_caught() {
        let t = telemetry(vec![record(0, 10, 0, 0), record(3, 10, 0, 0)]);
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn silly_occupancy_is_caught() {
        let mut r = record(0, 10, 0, 0);
        r.feedback.bus_occupancy = 2.0;
        assert!(telemetry(vec![r]).check_invariants().is_err());
    }

    #[test]
    fn json_and_table_render() {
        let t = telemetry(vec![record(0, 100, 80, 5)]);
        let j = t.to_json().to_string();
        assert!(j.contains("\"policy\":\"degree-governor\""));
        assert!(j.contains("\"prefetcher\":\"BO\""));
        assert!(j.contains("\"directive\":\"degree=2\""));
        let table = t.table().to_tsv();
        assert!(table.contains("degree=2"), "{table}");
        assert!(table.starts_with("epoch\tprefetcher\tipc"));
    }
}
