//! External-trace ingestion smoke (the CI ingest arm).
//!
//! Proves the whole ingestion path end to end without any external
//! input: capture a synthetic prefix, write it out in every supported
//! on-disk format (native, ChampSim, text and binary address traces),
//! replay each file through the full machine as a file-backed
//! [`BenchmarkSpec`] with a warm-up sampling plan, and check the
//! counter invariants on every run:
//!
//! * `l2_hits + l2_prefetched_hits + l2_misses == l2_accesses`
//!   (L2 classification is synchronous, so this holds at any time),
//! * `l3_hits + l3_misses == l3_accesses` at quiescence
//!   ([`System::drain_uncore`]; L3 classification is deferred to the
//!   servicing arrival, so in-flight requests are unclassified),
//! * per-site `useful + unused_evicted <= prefetch_fills`
//!   ([`SimResult::check_site_invariants`]),
//! * every-cycle == event-wheel bit-identity on the file-backed trace.
//!
//! Exits non-zero on any violation; writes `ingest.json` under
//! `BOSIM_REPORT_DIR` (default `target/reports`).
//!
//! Run with: `cargo run --release -p bosim-bench --bin ingest`

use bosim::{SimConfig, SimResult, System};
use bosim_bench::Experiment;
use bosim_trace::{
    addr, capture, champsim, file, suite, BenchmarkSpec, ExternalSpec, SampleSpec, TraceFormat,
};

fn check(sys: &mut System, res: &SimResult, what: &str) -> bool {
    let mut ok = true;
    let classified = res.uncore.l2_hits + res.uncore.l2_prefetched_hits + res.uncore.l2_misses;
    if classified != res.uncore.l2_accesses {
        eprintln!(
            "[ingest] INVARIANT VIOLATION ({what}): l2 hits {} + prefetched {} + misses {} \
             != accesses {}",
            res.uncore.l2_hits,
            res.uncore.l2_prefetched_hits,
            res.uncore.l2_misses,
            res.uncore.l2_accesses
        );
        ok = false;
    }
    if let Err(e) = res.check_site_invariants() {
        eprintln!("[ingest] INVARIANT VIOLATION ({what}): {e}");
        ok = false;
    }
    // At quiescence every L3 access has been classified: exact equality.
    let drained = sys.drain_uncore();
    if drained.l3_hits + drained.l3_misses != drained.l3_accesses {
        eprintln!(
            "[ingest] INVARIANT VIOLATION ({what}): drained l3 hits {} + misses {} != accesses {}",
            drained.l3_hits, drained.l3_misses, drained.l3_accesses
        );
        ok = false;
    }
    ok
}

fn main() {
    let dir = std::env::temp_dir().join(format!("bosim_ingest_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // One synthetic prefix, four on-disk formats.
    let uops = capture(
        &mut suite::benchmark("462").expect("exists").build(),
        120_000,
    );
    let accesses = addr::accesses_of(&uops);
    let native = dir.join("smoke.btrace");
    std::fs::write(&native, file::encode(&uops)).expect("write native");
    let cs = dir.join("smoke.champsim");
    std::fs::write(&cs, champsim::encode(&uops)).expect("write champsim");
    let at = dir.join("smoke.addr");
    std::fs::write(&at, addr::encode_text(&accesses)).expect("write addr text");
    let ab = dir.join("smoke.addrbin");
    std::fs::write(&ab, addr::encode_binary(&accesses)).expect("write addr bin");

    let benchmarks: Vec<BenchmarkSpec> = [
        (&native, TraceFormat::Native, "462-native"),
        (&cs, TraceFormat::ChampSim, "462-champsim"),
        (&at, TraceFormat::AddrText, "462-addr-text"),
        (&ab, TraceFormat::AddrBin, "462-addr-bin"),
    ]
    .into_iter()
    .map(|(path, format, name)| {
        BenchmarkSpec::from_trace(ExternalSpec::new(path, format).named(name))
    })
    .collect();

    // Replay every format through BO vs no-prefetch, with a warm-up
    // sampling plan on the trace itself.
    let window = SimConfig {
        warmup_instructions: 10_000,
        measure_instructions: 50_000,
        sample: Some(SampleSpec::skip(5_000)),
        ..Default::default()
    };
    let bo = SimConfig::builder()
        .prefetcher(bosim::prefetchers::bo_default())
        .build()
        .expect("valid");
    let report = Experiment::new(
        "ingest",
        "External-trace ingestion smoke: BO vs no-prefetch",
    )
    .benchmarks(benchmarks.clone())
    .arm_vs(
        "BO",
        SimConfig {
            l2_prefetcher: bo.l2_prefetcher.clone(),
            ..window.clone()
        },
        SimConfig {
            l2_prefetcher: bosim::prefetchers::none(),
            ..window.clone()
        },
    )
    .run_and_emit();

    let mut ok = true;
    for arm in &report.arms {
        for run in &arm.runs {
            // The retire stage is 12-wide, so a window may overshoot
            // its target by up to one retire group.
            if run.instructions < 50_000 || run.instructions >= 50_012 {
                eprintln!(
                    "[ingest] INVARIANT VIOLATION: {} measured {} instructions, wanted 50000..50012",
                    run.benchmark, run.instructions
                );
                ok = false;
            }
        }
    }

    // Per-run counter invariants + every-cycle == event-wheel
    // bit-identity on the ChampSim-backed benchmark (the golden-stats
    // guarantee must hold for external traces too).
    for bench in &benchmarks {
        let mut sys = System::new(&window, bench);
        let res = sys.run();
        ok &= check(&mut sys, &res, &res.benchmark);
    }
    let champsim_bench = &benchmarks[1];
    let wheel = System::new(&window, champsim_bench).run();
    let every_cycle = System::new(
        &SimConfig {
            fast_forward: false,
            ..window.clone()
        },
        champsim_bench,
    )
    .run();
    if wheel != every_cycle {
        eprintln!(
            "[ingest] INVARIANT VIOLATION: every-cycle and event-wheel runs diverged on {}",
            champsim_bench.name
        );
        ok = false;
    }

    let _ = std::fs::remove_dir_all(&dir);
    if !ok {
        std::process::exit(1);
    }
    eprintln!("[ingest] all invariants hold");
}
