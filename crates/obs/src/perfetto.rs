//! Chrome/Perfetto trace-event JSON export.
//!
//! Renders an [`ObsReport`] in the trace-event format understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>: the simulation is
//! process 1 with one thread (track) per `(core, site)` pair, the host
//! profile is process 2, and the epoch series becomes counter tracks.
//! Timestamps are microseconds in the trace-event format; the export
//! maps one simulated cycle to one microsecond, so trace time reads
//! directly as cycles.

use crate::event::Event;
use crate::feedback::EpochFeedback;
use crate::report::ObsReport;
use bosim_stats::Json;

/// Process id of the simulated machine.
pub const SIM_PID: u64 = 1;
/// Process id of the host-profile track.
pub const HOST_PID: u64 = 2;

/// The track (thread) id of a simulation event: four site tracks per
/// core, starting at 1 (`sys` events of core 0 land on track 1).
fn sim_tid(event: &Event) -> u64 {
    u64::from(event.core) * 4 + u64::from(event.site.track_index()) + 1
}

fn metadata(name: &str, pid: u64, tid: u64, value: &str) -> Json {
    Json::obj([
        ("name", Json::from(name)),
        ("ph", Json::from("M")),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("args", Json::obj([("name", Json::from(value))])),
    ])
}

fn counter(name: &str, ts: u64, key: &str, value: f64) -> Json {
    Json::obj([
        ("name", Json::from(name)),
        ("ph", Json::from("C")),
        ("ts", Json::UInt(ts)),
        ("pid", Json::UInt(SIM_PID)),
        ("tid", Json::UInt(0u64)),
        ("args", Json::obj([(key, Json::Num(value))])),
    ])
}

/// Core 0's epoch record as counter samples at the epoch's end. An
/// undefined rate gets no sample, so a track never shows a fake 0.
fn epoch_counters(fb: &EpochFeedback, out: &mut Vec<Json>) {
    let ts = fb.start_cycle + fb.cycles;
    for (name, key, value) in [
        ("epoch ipc", "ipc", Some(fb.ipc())),
        ("epoch accuracy", "accuracy", fb.l2.accuracy()),
        ("epoch coverage", "coverage", fb.l2.coverage()),
        ("epoch lateness", "lateness", fb.l2.lateness()),
        (
            "epoch bus occupancy",
            "bus_occupancy",
            Some(fb.bus_occupancy),
        ),
        (
            "l3 prefetch resident",
            "lines",
            Some(fb.l3_prefetch_resident as f64),
        ),
    ] {
        if let Some(v) = value {
            out.push(counter(name, ts, key, v));
        }
    }
}

/// Renders the report as a complete trace-event JSON document:
/// `{"traceEvents": [...]}`.
pub fn trace_json(report: &ObsReport, title: &str) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(metadata(
        "process_name",
        SIM_PID,
        0,
        &format!("bosim: {title}"),
    ));

    // One thread-name record per distinct (core, site) track, emitted
    // in first-appearance order.
    let mut named: Vec<u64> = Vec::new();
    for event in &report.events {
        let tid = sim_tid(event);
        if !named.contains(&tid) {
            named.push(tid);
            events.push(metadata(
                "thread_name",
                SIM_PID,
                tid,
                &format!("core{} {}", event.core, event.site.label()),
            ));
        }
    }

    for event in &report.events {
        events.push(Json::obj([
            ("name", Json::from(event.kind.name())),
            ("ph", Json::from("i")),
            ("s", Json::from("t")),
            ("ts", Json::UInt(event.cycle)),
            ("pid", Json::UInt(SIM_PID)),
            ("tid", Json::UInt(sim_tid(event))),
            ("args", event.kind.args()),
        ]));
    }

    for fb in &report.epochs {
        epoch_counters(fb, &mut events);
    }

    if let Some(profile) = &report.profile.0 {
        events.push(metadata("process_name", HOST_PID, 0, "bosim host profile"));
        events.push(metadata("thread_name", HOST_PID, 1, "phases"));
        // Phases laid out back-to-back as complete ("X") events; a
        // phase's span length is its estimated cost in µs.
        let mut at = 0u64;
        for phase in &profile.phases {
            if phase.nanos == 0 {
                continue;
            }
            let dur = (phase.nanos / 1_000).max(1);
            events.push(Json::obj([
                ("name", Json::from(phase.phase.as_str())),
                ("ph", Json::from("X")),
                ("ts", Json::UInt(at)),
                ("dur", Json::UInt(dur)),
                ("pid", Json::UInt(HOST_PID)),
                ("tid", Json::UInt(1u64)),
                (
                    "args",
                    Json::obj([
                        ("nanos", Json::UInt(phase.nanos)),
                        ("calls", Json::UInt(phase.calls)),
                        ("samples", Json::UInt(phase.samples)),
                        ("share", Json::Num(phase.share)),
                    ]),
                ),
            ]));
            at += dur;
        }
    }

    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ObsSite};
    use crate::feedback::PrefetchTelemetry;
    use crate::profile::{HostProfile, PhaseCost, ProfileSlot};

    fn report() -> ObsReport {
        ObsReport {
            events: vec![
                Event {
                    cycle: 10,
                    core: 0,
                    site: ObsSite::L2,
                    kind: EventKind::PrefetchIssued { line: 4 },
                },
                Event {
                    cycle: 12,
                    core: 1,
                    site: ObsSite::L3,
                    kind: EventKind::PrefetchFill { line: 4 },
                },
            ],
            dropped_events: 0,
            epochs: vec![
                EpochFeedback {
                    cycles: 100,
                    instructions: 50,
                    l2: PrefetchTelemetry {
                        misses: 4,
                        useful: 4,
                        ..Default::default()
                    },
                    bus_occupancy: 0.25,
                    l3_prefetch_resident: 3,
                    ..Default::default()
                },
                EpochFeedback {
                    epoch: 1,
                    start_cycle: 100,
                    cycles: 100,
                    ..Default::default()
                },
            ],
            profile: ProfileSlot(Some(HostProfile {
                total_nanos: 5_000,
                phases: vec![PhaseCost {
                    phase: "core-tick".into(),
                    nanos: 5_000,
                    calls: 10,
                    samples: 10,
                    share: 1.0,
                }],
            })),
        }
    }

    #[test]
    fn export_has_tracks_counters_and_profile() {
        let doc = trace_json(&report(), "462 demo");
        let text = doc.to_string();
        assert!(text.starts_with(r#"{"traceEvents":["#));
        assert!(text.contains(r#""process_name""#));
        assert!(text.contains(r#""core0 l2""#));
        assert!(text.contains(r#""core1 l3""#));
        assert!(text.contains(r#""prefetch_issued""#));
        assert!(text.contains(r#""epoch accuracy""#));
        assert!(text.contains(r#""bus_occupancy":0.25"#), "{text}");
        // The second epoch resolved no fill: no accuracy sample for it.
        assert_eq!(text.matches(r#""epoch ipc""#).count(), 2);
        assert_eq!(text.matches(r#""epoch accuracy""#).count(), 1);
        assert!(text.contains(r#""bosim host profile""#));
        assert!(text.contains(r#""ph":"X""#));
    }

    #[test]
    fn track_ids_separate_cores_and_sites() {
        let e = |core, site| Event {
            cycle: 0,
            core,
            site,
            kind: EventKind::FirstHit { line: 0 },
        };
        assert_eq!(sim_tid(&e(0, ObsSite::Sys)), 1);
        assert_eq!(sim_tid(&e(0, ObsSite::L3)), 4);
        assert_eq!(sim_tid(&e(1, ObsSite::Sys)), 5);
        assert_eq!(sim_tid(&e(2, ObsSite::L1d)), 10);
    }
}
