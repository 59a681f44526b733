//! Observability end-to-end: the cycle-domain event trace, the epoch
//! series and the Perfetto export are deterministic pure
//! functions of simulated state — identical across reruns, inert when
//! disabled — and the exported JSON is structurally valid trace-event
//! format.

use bosim::adapt::PolicySpec;
use bosim::{prefetchers, SimConfig, SimResult, System};
use bosim_obs::{perfetto, EventKind, ObsConfig, ObsSite, MAX_EVENTS};
use bosim_stats::Json;
use bosim_trace::suite;

fn run(cfg: &SimConfig, bench_id: &str) -> SimResult {
    let bench = suite::benchmark(bench_id).expect("benchmark exists");
    System::new(cfg, &bench).run()
}

/// A fully instrumented three-site stack, short enough for CI but long
/// enough to cross several 5k-cycle epochs and BO learning phases.
fn instrumented() -> SimConfig {
    SimConfig {
        warmup_instructions: 10_000,
        measure_instructions: 40_000,
        l1_prefetcher: Some(prefetchers::stride_default()),
        l2_prefetcher: prefetchers::bo_default(),
        l3_prefetcher: Some(prefetchers::next_line()),
        seed: 0xB05EED,
        epoch_cycles: 5_000,
        obs: ObsConfig::all(),
        ..Default::default()
    }
}

#[test]
fn event_trace_and_epoch_series_are_identical_across_reruns() {
    let cfg = instrumented();
    let a = run(&cfg, "462");
    let b = run(&cfg, "462");
    // `SimResult` equality covers the event stream and the epoch
    // records (the host profile is excluded by design).
    assert_eq!(a, b, "instrumented rerun diverged");
    let obs = a.obs.expect("observability report attached");
    assert!(!obs.events.is_empty(), "no events recorded");
    assert!(!obs.epochs.is_empty(), "no epoch records collected");
    assert!(obs.profile.0.is_some(), "no host profile attached");
    assert_eq!(
        obs.epochs_jsonl(),
        b.obs.expect("rerun report").epochs_jsonl(),
        "epoch JSONL diverged"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let mut plain = instrumented();
    plain.obs = ObsConfig::default();
    let baseline = run(&plain, "429");
    assert!(baseline.obs.is_none(), "disabled run must carry no report");
    let mut traced = run(&instrumented(), "429");
    assert!(traced.obs.is_some());
    // With the report stripped, every simulated counter must be
    // bit-identical: observability observes, it never steers.
    traced.obs = None;
    assert_eq!(baseline, traced, "tracing changed simulated state");
}

#[test]
fn the_event_stream_covers_the_prefetch_lifecycle() {
    // Long enough for a full BO learning phase to close (~100k
    // instructions on the streaming benchmark), so `phase_end` fires.
    let mut cfg = instrumented();
    cfg.measure_instructions = 100_000;
    let obs = run(&cfg, "462").obs.expect("report");
    let has = |name: &str| obs.events.iter().any(|e| e.kind.name() == name);
    for name in [
        "prefetch_issued",
        "fill_queued",
        "prefetch_fill",
        "first_hit",
        "round_end",
        "phase_end",
        "epoch_end",
    ] {
        assert!(has(name), "no {name} event in {} events", obs.events.len());
    }
    // The BO phase-end snapshot carries the full score table.
    let snapshot = obs.events.iter().find_map(|e| match &e.kind {
        EventKind::PhaseEnd { scores, .. } => Some(scores),
        _ => None,
    });
    assert!(
        snapshot.is_some_and(|s| !s.is_empty()),
        "phase_end without a score-table snapshot"
    );
    // All three cache sites (plus the sys track) produce events under
    // the l1:stride + l2:bo + l3:next-line stack.
    for site in [ObsSite::Sys, ObsSite::L1d, ObsSite::L2, ObsSite::L3] {
        assert!(
            obs.events.iter().any(|e| e.site == site),
            "no events on the {site} track"
        );
    }
    // Cycle stamps never decrease per site track — events are recorded
    // in simulation order.
    let mut last = 0;
    for e in obs.events.iter().filter(|e| e.site == ObsSite::L2) {
        assert!(e.cycle >= last, "L2 event stream not cycle-ordered");
        last = e.cycle;
    }
}

#[test]
fn the_recorder_is_bounded_and_keeps_the_first_events() {
    // The instrumented stack records about 0.15 events per instruction
    // on 462, so half a million instructions overflow the log.
    let mut long = instrumented();
    long.measure_instructions = 500_000;
    let capped = run(&long, "462").obs.expect("report");
    assert_eq!(capped.events.len(), MAX_EVENTS, "capacity not enforced");
    assert!(capped.dropped_events > 0, "nothing counted as dropped");
    // Keep-first: the log of a shorter run of the same configuration,
    // which does not overflow, is a prefix of the capped one, so
    // overflowing traces stay byte-comparable.
    let short = run(&instrumented(), "462").obs.expect("report");
    assert_eq!(short.dropped_events, 0);
    assert_eq!(short.events[..], capped.events[..short.events.len()]);
}

/// One epoch clock, one record: with adaptive control and event
/// tracing both on, the observability series is core 0's adaptive
/// feedback, element for element.
#[test]
fn obs_epochs_are_the_adapt_records_feedback() {
    let cfg = SimConfig {
        warmup_instructions: 10_000,
        measure_instructions: 40_000,
        l2_prefetcher: prefetchers::bo_default(),
        epoch_cycles: 5_000,
        adapt: Some(PolicySpec::DegreeGovernor),
        obs: ObsConfig {
            events: true,
            ..ObsConfig::default()
        },
        ..Default::default()
    };
    let result = run(&cfg, "429");
    let series = result.obs.expect("report").epochs;
    let records = result.adapt.expect("adapt telemetry").epochs;
    assert!(series.len() >= 10, "only {} epochs", series.len());
    let feedback: Vec<_> = records.iter().map(|r| r.feedback).collect();
    assert_eq!(series, feedback);
}

/// Every directive is logged twice, as a `directive` event and in the
/// adaptive telemetry, and the two logs agree: one event per applied or
/// rejected directive, all at the L2, and core 0's events are its epoch
/// records' directives, in order.
#[test]
fn directive_events_are_the_adapt_records_directives() {
    // `golden_digest.rs`'s two-core adaptive + tracing configuration:
    // its next-line L2 rejects the governor's degree directives, and the
    // same machine with BO at the L2 applies them. It measures 8k
    // instructions, not the digest's 10k, so that both runs' logs fit
    // with room to spare: a log missing events cannot be counted
    // against the telemetry.
    let next_line = SimConfig {
        active_cores: 2,
        warmup_instructions: 5_000,
        measure_instructions: 8_000,
        seed: 0xB05EED,
        epoch_cycles: 5_000,
        adapt: Some(PolicySpec::DegreeGovernor),
        obs: ObsConfig {
            events: true,
            ..ObsConfig::default()
        },
        ..Default::default()
    };
    let bo = SimConfig {
        l2_prefetcher: prefetchers::bo_default(),
        ..next_line.clone()
    };
    let (mut applied, mut rejected) = (0, 0);
    for cfg in [next_line, bo] {
        let result = run(&cfg, "429");
        let obs = result.obs.expect("report");
        let adapt = result.adapt.expect("adapt telemetry");
        assert_eq!(obs.dropped_events, 0, "the log overflowed");
        let events: Vec<_> = obs
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Directive { directive, applied } => {
                    Some((e.core, e.site, directive.clone(), *applied))
                }
                _ => None,
            })
            .collect();
        assert!(events.iter().all(|&(_, site, ..)| site == ObsSite::L2));
        assert_eq!(events.len() as u64, adapt.applied + adapt.rejected);
        let applied_events = events.iter().filter(|&&(.., a)| a).count();
        assert_eq!(applied_events as u64, adapt.applied);
        let core0: Vec<_> = events
            .into_iter()
            .filter(|&(core, ..)| core == 0)
            .map(|(_, _, directive, applied)| (directive, applied))
            .collect();
        let records: Vec<_> = adapt
            .epochs
            .iter()
            .flat_map(|r| &r.directives)
            .map(|d| (d.directive.clone(), d.applied))
            .collect();
        assert_eq!(core0, records);
        applied += adapt.applied;
        rejected += adapt.rejected;
    }
    assert!(
        applied > 0 && rejected > 0,
        "{applied} applied, {rejected} rejected"
    );
}

#[test]
fn perfetto_export_is_structurally_valid_trace_event_json() {
    let obs = run(&instrumented(), "462").obs.expect("report");
    let doc = perfetto::trace_json(&obs, "obs test");
    // Round-trip through the hand-rolled parser: the export must be a
    // single well-formed JSON document.
    let parsed = Json::parse(&doc.to_string()).expect("export parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph string");
        assert!(e.get("name").is_some_and(|n| n.as_str().is_some()));
        if ph != "M" {
            for key in ["ts", "pid", "tid"] {
                assert!(
                    e.get(key).is_some_and(Json::is_number),
                    "non-metadata event missing numeric {key}"
                );
            }
        }
    }
    let text = doc.to_string();
    // Simulation instants, epoch counter tracks and the host-profile
    // process all land in the export.
    assert!(text.contains(r#""ph":"i""#), "no instant events");
    assert!(text.contains(r#""epoch ipc""#), "no epoch counters");
    assert!(text.contains(r#""bosim host profile""#), "no profile track");
}
