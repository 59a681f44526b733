//! External trace ingestion, end to end: write a synthetic prefix in
//! every on-disk format, ingest each file as a file-backed benchmark,
//! apply a warm-up sampling window, run it through the `Experiment`
//! harness and the machine, and assert the `SimResult` invariants —
//! `l2 hits + prefetched hits + misses == accesses`, L3 accounting
//! closing at quiescence, per-site `useful + unused ≤ fills`, and a
//! measured window of the requested length.

use bosim::{prefetchers, SimConfig, System};
use bosim_bench::Experiment;
use bosim_stats::Json;
use bosim_trace::{
    addr, capture, champsim, file, suite, BenchmarkSpec, ExternalSpec, SampleSpec, TraceFormat,
    TraceSource,
};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bosim_ingest_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny(cfg: SimConfig) -> SimConfig {
    SimConfig {
        warmup_instructions: 5_000,
        measure_instructions: 25_000,
        ..cfg
    }
}

#[test]
fn champsim_trace_through_experiment_with_warmup_sampling() {
    let dir = scratch("e2e");
    let path = dir.join("libq.champsim");
    let uops = capture(&mut suite::benchmark("462").unwrap().build(), 80_000);
    std::fs::write(&path, champsim::encode(&uops)).unwrap();

    let bench =
        BenchmarkSpec::from_trace(ExternalSpec::new(&path, TraceFormat::ChampSim).named("libq"));
    // Warm-up sampling on the trace itself, independent of the
    // simulator's warm-up instruction window.
    let base = tiny(SimConfig {
        sample: SampleSpec::skip(10_000),
        ..Default::default()
    });
    let report = Experiment::new("ingest_e2e", "BO on an ingested ChampSim trace")
        .benchmarks(vec![bench.clone()])
        .arm_vs(
            "BO",
            base.clone().with_prefetcher(prefetchers::bo_default()),
            base.clone().with_prefetcher(prefetchers::none()),
        )
        .run()
        .expect("file-backed grid runs");
    assert_eq!(report.benchmarks, vec!["libq"]);
    let run = &report.arms[0].runs[0];
    assert_eq!(run.get("benchmark").and_then(Json::as_str), Some("libq"));
    assert!(run
        .get("ipc")
        .and_then(Json::as_f64)
        .is_some_and(|ipc| ipc > 0.0));
    assert!(report.arms[0].values[0] > 0.0);
    // The config label records the sampling plan.
    let config = run.get("config").and_then(Json::as_str).unwrap_or_default();
    assert!(config.contains("@skip10k"), "{config}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The counter invariants hold on a replay of each of the four on-disk
/// formats, under BO and a warm-up sampling plan.
#[test]
fn every_format_replays_with_the_counter_invariants() {
    let dir = scratch("formats_invariants");
    let uops = capture(&mut suite::benchmark("462").unwrap().build(), 80_000);
    let accesses = addr::accesses_of(&uops);
    let cfg = tiny(SimConfig {
        sample: SampleSpec::skip(10_000),
        ..Default::default()
    })
    .with_prefetcher(prefetchers::bo_default());
    // Runs are deterministic, so each window's length is exact. The
    // window closes at the end of a cycle of the 12-wide retire stage:
    // the access-only replays of the two address formats close it 11
    // instructions past the target.
    for (name, format, bytes, measured) in [
        ("t.btrace", TraceFormat::Native, file::encode(&uops), 25_000),
        (
            "t.champsim",
            TraceFormat::ChampSim,
            champsim::encode(&uops),
            25_000,
        ),
        (
            "t.addr",
            TraceFormat::AddrText,
            addr::encode_text(&accesses).into_bytes(),
            25_011,
        ),
        (
            "t.addrbin",
            TraceFormat::AddrBin,
            addr::encode_binary(&accesses),
            25_011,
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let bench = BenchmarkSpec::from_trace(ExternalSpec::new(&path, format));
        let mut sys = System::new(&cfg, &bench);
        let res = sys.run();
        assert_eq!(res.instructions, measured, "{format}: measured window");
        assert_eq!(
            res.uncore.l2_hits + res.uncore.l2_prefetched_hits + res.uncore.l2_misses,
            res.uncore.l2_accesses,
            "{format}: every L2 access classifies exactly once"
        );
        res.check_site_invariants()
            .unwrap_or_else(|e| panic!("{format}: {e}"));
        let drained = sys.drain_uncore();
        assert_eq!(
            drained.l3_hits + drained.l3_misses,
            drained.l3_accesses,
            "{format}: L3 accounting closes at quiescence"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampling_changes_the_replayed_stream() {
    // The same trace under different sampling plans is a different
    // workload: the skip must actually move the measured window.
    let dir = scratch("sample");
    let path = dir.join("phases.addrbin");
    // Phase 1 (accesses 0..30k): a 16KB loop, DL1-resident after the
    // first lap. Phase 2 (30k..60k): a fresh unit-stride stream that
    // must come from DRAM. A skip past the phase boundary lands the
    // measured window in entirely different behaviour.
    let accesses: Vec<addr::RawAccess> = (0..60_000u64)
        .map(|i| {
            let a = if i < 30_000 {
                0x100_0000 + (i % 256) * 64
            } else {
                0x4000_0000 + i * 64
            };
            (addr::AccessDir::Read, a)
        })
        .collect();
    std::fs::write(&path, addr::encode_binary(&accesses)).unwrap();
    let bench = BenchmarkSpec::from_trace(ExternalSpec::new(&path, TraceFormat::AddrBin));

    // Small windows: an access-only trace keeps the ROB saturated with
    // loads, the simulator's slowest-per-cycle regime.
    let run = |sample: SampleSpec| {
        let cfg = SimConfig {
            sample,
            warmup_instructions: 1_000,
            measure_instructions: 4_000,
            ..Default::default()
        };
        System::new(&cfg, &bench).run()
    };
    let unsampled = run(SampleSpec::default());
    let skipped = run(SampleSpec::skip(35_000));
    // The streaming phase misses the caches where the loop phase hits:
    // the skipped replay must be measurably slower and DRAM-bound.
    assert!(
        skipped.cycles > unsampled.cycles,
        "skip did not move the window: {} vs {} cycles",
        skipped.cycles,
        unsampled.cycles
    );
    assert!(
        skipped.dram.reads > unsampled.dram.reads * 4,
        "skip did not reach the streaming phase: {} vs {} DRAM reads",
        skipped.dram.reads,
        unsampled.dram.reads
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_formats_replay_the_same_memory_stream() {
    // One synthetic prefix exported to all four formats: the two
    // µop-preserving formats (native, champsim) must produce the same
    // *memory access stream*; the address formats reduce to it.
    let dir = scratch("formats");
    let uops = capture(&mut suite::benchmark("470").unwrap().build(), 10_000);
    let native = dir.join("t.btrace");
    std::fs::write(&native, bosim_trace::file::encode(&uops)).unwrap();
    let cs = dir.join("t.champsim");
    std::fs::write(&cs, champsim::encode(&uops)).unwrap();

    let mem_stream = |spec: &BenchmarkSpec, n: usize| -> Vec<(bool, u64)> {
        let mut src = spec.source().expect("loads");
        capture(src.as_mut(), n)
            .into_iter()
            .filter_map(|u| u.data_addr().map(|addr| (u.is_store(), addr)))
            .collect()
    };
    let a = mem_stream(
        &BenchmarkSpec::from_trace(ExternalSpec::new(&native, TraceFormat::Native)),
        10_000,
    );
    let b = mem_stream(
        &BenchmarkSpec::from_trace(ExternalSpec::new(&cs, TraceFormat::ChampSim)),
        10_000,
    );
    // Lap lengths differ (champsim lowering merges/splits non-memory
    // µops) — compare the prefix both cover.
    let n = a.len().min(b.len());
    assert!(n > 1_000, "too few memory accesses to compare ({n})");
    assert_eq!(a[..n], b[..n], "memory streams diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decoder_rejections_surface_through_benchmark_source() {
    // Adversarial inputs through the public ingestion path: the typed
    // decode errors must surface from BenchmarkSpec::source().
    let dir = scratch("adversarial");

    // Truncated champsim record.
    let p = dir.join("trunc.champsim");
    std::fs::write(&p, vec![0u8; 100]).unwrap();
    let err = BenchmarkSpec::from_trace(ExternalSpec::new(&p, TraceFormat::ChampSim))
        .source()
        .unwrap_err();
    assert!(err.to_string().contains("byte offset 64"), "{err}");

    // Bad flag byte.
    let p = dir.join("badflag.champsim");
    let mut bytes = vec![0u8; 64];
    bytes[8] = 9;
    std::fs::write(&p, bytes).unwrap();
    let err = BenchmarkSpec::from_trace(ExternalSpec::new(&p, TraceFormat::ChampSim))
        .source()
        .unwrap_err();
    assert!(err.to_string().contains("is_branch"), "{err}");

    // Empty files, all formats.
    for format in [
        TraceFormat::Native,
        TraceFormat::ChampSim,
        TraceFormat::AddrText,
        TraceFormat::AddrBin,
    ] {
        let p = dir.join(format!("empty.{}", format.name()));
        std::fs::write(&p, b"").unwrap();
        assert!(
            BenchmarkSpec::from_trace(ExternalSpec::new(&p, format))
                .source()
                .is_err(),
            "{format}"
        );
    }

    // Bad text line, with its line number.
    let p = dir.join("bad.addr");
    std::fs::write(&p, "R 0x10\nQ 0x20\n").unwrap();
    let err = BenchmarkSpec::from_trace(ExternalSpec::new(&p, TraceFormat::AddrText))
        .source()
        .unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");

    // Native kind-byte corruption, with record + offset.
    let p = dir.join("bad.btrace");
    let uops = capture(&mut suite::benchmark("456").unwrap().build(), 5);
    let mut bytes = bosim_trace::file::encode(&uops);
    bytes[16 + 2 * 30 + 8] = 0x7F; // record 2's kind byte
    std::fs::write(&p, bytes).unwrap();
    let err = BenchmarkSpec::from_trace(ExternalSpec::new(&p, TraceFormat::Native))
        .source()
        .unwrap_err();
    assert!(err.to_string().contains("record 2"), "{err}");

    // Native register byte outside the register file, with record +
    // offset: the core indexes its register file with it.
    let p = dir.join("badreg.btrace");
    let uops = capture(&mut suite::benchmark("456").unwrap().build(), 20);
    let mut bytes = file::encode(&uops);
    let at = 16 + 10 * 30 + 9; // record 10's dst byte
    bytes[at] = 200;
    std::fs::write(&p, bytes).unwrap();
    let err = BenchmarkSpec::from_trace(ExternalSpec::new(&p, TraceFormat::Native))
        .source()
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("register in record 10") && msg.contains(&format!("byte offset {at}")),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn external_traces_loop_like_replay_sources() {
    // The infinite-source contract holds for ingested traces: a short
    // file loops rather than running dry mid-simulation.
    let dir = scratch("loop");
    let p = dir.join("short.addr");
    std::fs::write(&p, "R 0x1000\nW 0x2000\nR 0x3000\n").unwrap();
    let spec = BenchmarkSpec::from_trace(ExternalSpec::new(&p, TraceFormat::AddrText));
    let mut src = spec.source().expect("loads");
    let pcs: Vec<u64> = (0..7).map(|_| src.next_uop().addr).collect();
    assert_eq!(
        pcs,
        vec![0x1000, 0x2000, 0x3000, 0x1000, 0x2000, 0x3000, 0x1000]
    );
    assert_eq!(src.name(), "short");
    let _ = std::fs::remove_dir_all(&dir);
}
