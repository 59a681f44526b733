//! Trace-layer and statistics integration.

use bosim_stats::geometric_mean;
use bosim_trace::{analyze, capture, file, suite};

/// Every benchmark generator is deterministic across builds.
#[test]
fn all_generators_deterministic() {
    for spec in suite::suite() {
        let a = capture(&mut spec.build(), 2_000);
        let b = capture(&mut spec.build(), 2_000);
        assert_eq!(a, b, "{}", spec.name);
    }
}

/// Binary trace files round-trip for every benchmark.
#[test]
fn trace_file_roundtrip_all() {
    for spec in suite::suite().into_iter().take(8) {
        let uops = capture(&mut spec.build(), 1_000);
        let bytes = file::encode(&uops);
        let back = file::decode(&bytes).expect("decode");
        assert_eq!(uops, back, "{}", spec.name);
    }
}

/// `Schedule::Phased` traces survive the binary file format bit-exactly
/// and `analyze::summarize` sees the phase structure: the phase-shift
/// workload's stream phase walks a compact sequential footprint, then
/// the gather phase scatters over a DRAM-sized region — the per-window
/// summaries must show that shift, and the schedule must loop back to
/// the stream kernel afterwards.
#[test]
fn phased_trace_roundtrips_and_shows_footprint_shift() {
    use bosim_trace::synth::layout;

    let spec = suite::phase_shift();
    assert!(
        matches!(spec.schedule, bosim_trace::Schedule::Phased(_)),
        "phase-shift must use a phased schedule"
    );
    let uops = capture(&mut spec.build(), 150_000);

    // Round-trip through the binary trace file format.
    let bytes = file::encode(&uops);
    let back = file::decode(&bytes).expect("decode");
    assert_eq!(uops, back, "phased trace must round-trip bit-exactly");

    // Kernel data regions are 64GB apart (layout::data_base), so the
    // first access at/above kernel 1's base is the first phase switch.
    let k1_base = layout::data_base(1);
    let switch = uops
        .iter()
        .position(|u| u.data_addr().is_some_and(|addr| addr >= k1_base))
        .expect("gather phase must appear in the window");
    assert!(switch > 10_000, "stream phase runs first ({switch} uops)");

    let stream_window = analyze::summarize(&uops[..switch]);
    let gather_window = analyze::summarize(&uops[switch..switch + 40_000]);

    // Stream phase: dense sequential lines, few distinct pages.
    // Gather phase: random lines scattered over 192MB — the touched
    // 4KB-page count explodes while the window is smaller.
    assert!(
        gather_window.distinct_pages > stream_window.distinct_pages * 4,
        "footprint must scatter at the phase switch: {} -> {}",
        stream_window.distinct_pages,
        gather_window.distinct_pages,
    );
    // Sequential streaming touches each line ~loads_per_line times; the
    // gather's random lines are touched ~once, so the per-load footprint
    // (bytes per load) grows across the switch.
    let per_load = |s: &analyze::TraceSummary| s.data_footprint_bytes() as f64 / s.loads as f64;
    assert!(
        per_load(&gather_window) > per_load(&stream_window) * 1.5,
        "per-load footprint must grow: {:.1} -> {:.1}",
        per_load(&stream_window),
        per_load(&gather_window),
    );

    // The phased schedule loops: the stream kernel's region returns
    // after the gather phase.
    let returns = uops[switch..]
        .iter()
        .any(|u| u.data_addr().is_some_and(|addr| addr < k1_base));
    assert!(returns, "schedule must cycle back to the stream kernel");
}

/// A replayed trace prefix produces exactly the generator's µops.
#[test]
fn replay_matches_generator() {
    let spec = suite::benchmark("459").expect("exists");
    let uops = capture(&mut spec.build(), 3_000);
    let mut replay = bosim_trace::ReplaySource::new("459-replay", uops.clone());
    let replayed = capture(&mut replay, 3_000);
    assert_eq!(uops, replayed);
}

/// The GM the harnesses print matches the library's summary math.
#[test]
fn geomean_sanity() {
    let gm = geometric_mean([1.1, 0.9, 1.2, 1.0]).expect("non-empty");
    assert!(gm > 0.9 && gm < 1.2);
}
