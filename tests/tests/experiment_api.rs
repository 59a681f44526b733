//! Coverage for the unified experiment API: `SimConfig` construction and
//! validation, prefetcher names and the structured `Report` output.

use bosim::{prefetchers, PrefetcherSpec, ResolveError, SimConfig};
use bosim_bench::{ArmReport, Layout, Report, RunSummary};
use bosim_types::PageSize;

#[test]
fn builder_accepts_table1_defaults() {
    let cfg = SimConfig::default();
    assert!(cfg.validate().is_ok(), "defaults valid");
    assert_eq!(cfg.label(), "4KB/1-core/next-line");
}

#[test]
fn builder_composes_the_paper_variants() {
    let cfg = SimConfig {
        warmup_instructions: 1_000,
        measure_instructions: 5_000,
        ..SimConfig::baseline(PageSize::M4, 4).with_prefetcher(prefetchers::bo_default())
    };
    assert!(cfg.validate().is_ok());
    assert_eq!(cfg.label(), "4MB/4-core/BO");
    assert_eq!(cfg.measure_instructions, 5_000);
}

#[test]
fn config_errors_display_the_constraint() {
    let err = SimConfig::baseline(PageSize::K4, bosim::MAX_CORES + 1)
        .validate()
        .unwrap_err();
    assert!(err.to_string().contains("maximum"), "{err}");
}

/// All six line-address prefetchers round-trip through their names.
#[test]
fn registry_round_trips_builtins() {
    for spec in [
        prefetchers::none(),
        prefetchers::next_line(),
        prefetchers::fixed(5),
        prefetchers::bo_default(),
        prefetchers::sbp_default(),
        prefetchers::ampm_default(),
    ] {
        let name = spec.name();
        let resolved =
            PrefetcherSpec::parse(&name).unwrap_or_else(|e| panic!("{name} must resolve: {e}"));
        assert_eq!(resolved.name(), name, "round trip of {name}");
        // The resolved spec builds a working prefetcher.
        let _ = resolved.build(PageSize::K4);
    }
}

/// An unknown name's error lists the names that do resolve.
#[test]
fn registry_lists_builtin_names() {
    let Err(ResolveError::Unknown { known: names, .. }) = PrefetcherSpec::parse("no-such") else {
        panic!("an unknown name must be reported as unknown");
    };
    for expected in ["none", "next-line", "bo", "sbp", "ampm", "offset-<D>"] {
        assert!(
            names.iter().any(|n| n == expected),
            "{expected} in {names:?}"
        );
    }
}

fn sample_report() -> Report {
    Report {
        name: "snapshot".into(),
        title: "Snapshot fixture".into(),
        metric: "speedup".into(),
        benchmarks: vec!["429".into(), "433".into()],
        arms: vec![ArmReport {
            series: "BO".into(),
            group: None,
            config: "4KB/1-core/BO".into(),
            baseline: Some("4KB/1-core/next-line".into()),
            values: vec![1.5, 0.75],
            gm: Some(1.0606601717798212),
            runs: vec![RunSummary {
                benchmark: "429.mcf-like".into(),
                config: "4KB/1-core/BO".into(),
                ipc: 0.5,
                dram_per_ki: 12.25,
                l2_miss_per_ki: 30.5,
                instructions: 1_000_000,
                cycles: 2_000_000,
                l1_prefetches: 840,
                l1_prefetch_tlb_drops: 7,
                l2_prefetches_issued: 5_000,
                l2_prefetch_fills: 4_500,
                l3_prefetches_issued: 600,
                l3_prefetch_fills: 550,
                adapt: None,
            }
            .to_json()],
        }],
        layout: Layout::BenchRows,
        with_gm: true,
        decimals: 3,
    }
}

/// The JSON serialisation is stable — downstream tooling parses it.
#[test]
fn report_json_snapshot() {
    let expected = concat!(
        "{\n",
        "  \"name\": \"snapshot\",\n",
        "  \"title\": \"Snapshot fixture\",\n",
        "  \"metric\": \"speedup\",\n",
        "  \"benchmarks\": [\n",
        "    \"429\",\n",
        "    \"433\"\n",
        "  ],\n",
        "  \"arms\": [\n",
        "    {\n",
        "      \"series\": \"BO\",\n",
        "      \"group\": null,\n",
        "      \"config\": \"4KB/1-core/BO\",\n",
        "      \"baseline\": \"4KB/1-core/next-line\",\n",
        "      \"gm\": 1.0606601717798212,\n",
        "      \"values\": [\n",
        "        1.5,\n",
        "        0.75\n",
        "      ],\n",
        "      \"runs\": [\n",
        "        {\n",
        "          \"benchmark\": \"429.mcf-like\",\n",
        "          \"config\": \"4KB/1-core/BO\",\n",
        "          \"ipc\": 0.5,\n",
        "          \"dram_per_ki\": 12.25,\n",
        "          \"l2_miss_per_ki\": 30.5,\n",
        "          \"instructions\": 1000000,\n",
        "          \"cycles\": 2000000,\n",
        "          \"l1_prefetches\": 840,\n",
        "          \"l1_prefetch_tlb_drops\": 7,\n",
        "          \"l2_prefetches_issued\": 5000,\n",
        "          \"l2_prefetch_fills\": 4500,\n",
        "          \"l3_prefetches_issued\": 600,\n",
        "          \"l3_prefetch_fills\": 550,\n",
        "          \"adapt\": null\n",
        "        }\n",
        "      ]\n",
        "    }\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(sample_report().to_json().to_pretty(), expected);
}

#[test]
fn report_writes_json_file() {
    let dir = std::env::temp_dir().join("bosim_report_test");
    let path = sample_report().write_json(&dir).expect("writable");
    let body = std::fs::read_to_string(&path).expect("file exists");
    assert!(body.contains("\"name\": \"snapshot\""));
    let _ = std::fs::remove_file(&path);
}
