//! The metric catalogue: every name, unit, direction and bound the
//! harness reports. `BENCHMARK.json` at the repository root mirrors it
//! (a test keeps the two in step).

use crate::stats::{Better, Pick};

/// A metric a user of the simulator sees: the share of the parent's
/// median by which a change may worsen it before it counts as a
/// regression, and which repetition of a run it reports.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub pick: Pick,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    pick: Pick,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        pick,
    }
}

pub const END_TO_END: [EndToEnd; 5] = [
    e2e("wall_s", "s", Better::Lower, 0.25, Pick::Best),
    e2e("muops_per_s", "Muops/s", Better::Higher, 0.25, Pick::Best),
    e2e(
        "mcycles_per_s",
        "Mcycles/s",
        Better::Higher,
        0.25,
        Pick::Best,
    ),
    // Set-up takes milliseconds, the noisiest time measured: it reports
    // the median of the repetitions, with the largest bound.
    e2e("setup_s", "s", Better::Lower, 0.25, Pick::Median),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, Pick::Median),
];

/// One per-layer metric of the traced repetition. The layer is the
/// prefix: the crate (or harness part) the number describes.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 56] = [
    layer("trace.gen_ns_per_uop", "ns/uop", Lower),
    layer("trace.decode_ns_per_uop", "ns/uop", Lower),
    layer("trace.decode_s", "s", Lower),
    layer("trace.decode_uops", "count", Higher),
    layer("cpu.tick_s", "s", Lower),
    layer("cpu.share", "ratio", Lower),
    layer("cpu.tick_calls", "count", Lower),
    layer("cpu.ns_per_uop", "ns/uop", Lower),
    layer("cpu.retired", "count", Higher),
    layer("cpu.instructions", "count", Higher),
    layer("cpu.mispredicts", "count", Lower),
    layer("cpu.mispredicts_per_ki", "count/ki", Lower),
    layer("cpu.dl1_accesses", "count", Lower),
    layer("cpu.dl1_misses", "count", Lower),
    layer("cpu.dl1_miss_ratio", "ratio", Lower),
    layer("cpu.l1_prefetches", "count", Lower),
    layer("uncore.tick_s", "s", Lower),
    layer("uncore.share", "ratio", Lower),
    layer("uncore.tick_calls", "count", Lower),
    layer("uncore.l2_accesses", "count", Lower),
    layer("uncore.l2_hits", "count", Higher),
    layer("uncore.l2_prefetched_hits", "count", Higher),
    layer("uncore.l2_hit_ratio", "ratio", Higher),
    layer("uncore.l3_accesses", "count", Lower),
    layer("uncore.l3_hits", "count", Higher),
    layer("uncore.l3_hit_ratio", "ratio", Higher),
    layer("uncore.l2_fill_merges", "count", Lower),
    layer("uncore.l2_prefetches_issued", "count", Lower),
    layer("uncore.l2_prefetches_cancelled", "count", Lower),
    layer("uncore.l2_prefetches_redundant", "count", Lower),
    layer("cache.ns_per_access", "ns/access", Lower),
    layer("best-offset.useful", "count", Higher),
    layer("best-offset.prefetch_fills", "count", Lower),
    layer("best-offset.l2_misses", "count", Lower),
    layer("best-offset.accuracy", "ratio", Higher),
    layer("best-offset.coverage", "ratio", Higher),
    layer("best-offset.late_promotions", "count", Lower),
    layer("best-offset.unused_evicted", "count", Lower),
    layer("best-offset.ns_per_access", "ns/access", Lower),
    layer("dram.tick_s", "s", Lower),
    layer("dram.share", "ratio", Lower),
    layer("dram.reads", "count", Lower),
    layer("dram.writes", "count", Lower),
    layer("dram.row_hits", "count", Higher),
    layer("dram.row_hit_ratio", "ratio", Higher),
    layer("dram.urgent_reads", "count", Lower),
    layer("dram.ns_per_read", "ns/read", Lower),
    layer("sim.simulate_s", "s", Lower),
    layer("sim.cycles", "count", Lower),
    layer("sim.steps", "count", Lower),
    layer("sim.step_ratio", "ratio", Lower),
    layer("sim.wheel_s", "s", Lower),
    layer("sim.loop_self_s", "s", Lower),
    layer("sim.ipc_gm", "IPC", Higher),
    layer("obs.profile_attributed_s", "s", Lower),
    layer("obs.profile_overhead", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_stats::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the harness");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(m: &'a Json, key: &str) -> &'a str {
        m.get(key).and_then(Json::as_str).expect("string field")
    }

    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let doc = benchmark_json();
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(m, "name"), want.name);
            assert_eq!(field(m, "unit"), want.unit);
            assert_eq!(field(m, "better"), want.better.label());
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "name"), want.name);
            assert_eq!(field(m, "unit"), want.unit);
            assert_eq!(field(m, "better"), want.better.label());
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
