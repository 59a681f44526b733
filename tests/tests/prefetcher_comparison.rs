//! Cross-prefetcher behaviour on the key benchmarks of the evaluation.

use bosim::{prefetchers, SimConfig, System};
use bosim_trace::suite;
use bosim_types::PageSize;

fn run(id: &str, kind: bosim::PrefetcherSpec, page: PageSize) -> bosim::SimResult {
    let spec = suite::benchmark(id).expect("known benchmark");
    let cfg = SimConfig {
        // BO needs a couple of learning phases before its offset settles,
        // so the window must be long enough (§4.1: up to ROUNDMAX * 52
        // eligible accesses per phase).
        warmup_instructions: 150_000,
        measure_instructions: 400_000,
        ..SimConfig::baseline(page, 1)
    }
    .with_prefetcher(kind);
    System::new(&cfg, &spec).run()
}

/// Figure 6 headline: BO beats next-line on the stride-pattern
/// benchmarks that need timeliness (lbm-like, milc-like with 4MB pages).
#[test]
fn bo_beats_next_line_on_stride_benchmarks() {
    for id in ["470", "433"] {
        let nl = run(id, prefetchers::next_line(), PageSize::M4);
        let bo = run(id, prefetchers::bo_default(), PageSize::M4);
        assert!(
            bo.ipc() > nl.ipc() * 1.02,
            "{id}: BO {} vs next-line {}",
            bo.ipc(),
            nl.ipc()
        );
    }
}

/// Offset prefetching is useless on a pure pointer chase; BO must not
/// slow it down much (throttling keeps useless prefetches rare).
#[test]
fn bo_harmless_on_pointer_chase() {
    let nl = run("429", prefetchers::next_line(), PageSize::K4);
    let bo = run("429", prefetchers::bo_default(), PageSize::K4);
    assert!(
        bo.ipc() > nl.ipc() * 0.93,
        "BO {} vs next-line {}",
        bo.ipc(),
        nl.ipc()
    );
}

/// Fixed-offset D=5 is the paper's best fixed offset on lbm-like
/// workloads (Figure 8: peaks at multiples of 5): it must beat D=4.
#[test]
fn lbm_prefers_multiples_of_5() {
    let d4 = run("470", prefetchers::fixed(4), PageSize::M4);
    let d5 = run("470", prefetchers::fixed(5), PageSize::M4);
    let d10 = run("470", prefetchers::fixed(10), PageSize::M4);
    assert!(
        d5.ipc() > d4.ipc() * 1.1,
        "D=5 {} vs D=4 {}",
        d5.ipc(),
        d4.ipc()
    );
    assert!(
        d10.ipc() > d4.ipc() * 1.1,
        "D=10 {} vs D=4 {}",
        d10.ipc(),
        d4.ipc()
    );
}

/// milc-like only rewards offsets that are multiples of 32 (Figure 8).
#[test]
fn milc_prefers_multiples_of_32() {
    let d31 = run("433", prefetchers::fixed(31), PageSize::M4);
    let d32 = run("433", prefetchers::fixed(32), PageSize::M4);
    assert!(
        d32.ipc() > d31.ipc() * 1.05,
        "D=32 {} vs D=31 {}",
        d32.ipc(),
        d31.ipc()
    );
}

/// SBP also beats plain next-line on easy streams (it is a good
/// prefetcher; BO's edge is timeliness, not correctness).
#[test]
fn sbp_beats_next_line_on_streams() {
    let nl = run("462", prefetchers::next_line(), PageSize::M4);
    let sbp = run("462", prefetchers::sbp_default(), PageSize::M4);
    assert!(
        sbp.ipc() > nl.ipc(),
        "SBP {} vs next-line {}",
        sbp.ipc(),
        nl.ipc()
    );
}
