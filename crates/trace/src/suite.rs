//! The synthetic SPEC-CPU2006-like benchmark suite.
//!
//! One spec per SPEC CPU2006 benchmark evaluated in the paper, named after
//! it (`"433.milc-like"`). Each reproduces the access-pattern *class* the
//! paper attributes to that benchmark (see Figure 8's analysis and the
//! per-benchmark remarks in §6):
//!
//! * `433.milc-like` — strides peaking at offsets multiple of 32;
//! * `459.GemsFDTD-like` — line-stride pattern `[29,29,30]` (period 88/3);
//! * `470.lbm-like` — pattern `[3,2]` (peaks at multiples of 5, secondary
//!   peaks at 5k+3), store-heavy;
//! * `462.libquantum-like` — long sequential bandwidth-bound streams;
//! * `429.mcf-like` — serial pointer chase plus a prefetchable stream
//!   component;
//! * compute-bound benchmarks (416, 444, 453, ...) are cache-resident.
//!
//! Working sets are scaled relative to the simulated 512KB L2 / 8MB L3 so
//! the resident / L3-fitting / streaming split matches the paper's
//! platform.

use crate::synth::{
    BenchmarkSpec, BranchyCfg, ChaseCfg, ComputeCfg, GatherCfg, KernelCfg, ScanWriteCfg, Schedule,
    StreamCfg,
};
use bosim_types::mix64;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

fn seed_for(name: &str) -> u64 {
    name.bytes().fold(0xB0_5EED, |h, b| mix64(h ^ b as u64))
}

fn spec(short: &str, name: &str, kernels: Vec<KernelCfg>, schedule: Schedule) -> BenchmarkSpec {
    let full = format!("{short}.{name}-like");
    BenchmarkSpec {
        seed: seed_for(&full),
        name: full,
        short: short.to_string(),
        kernels,
        schedule,
        external: None,
    }
}

fn stream(
    streams: u32,
    region_bytes: u64,
    pattern: Vec<i64>,
    loads_per_line: u32,
    compute_per_load: u32,
    fp: bool,
    store_every: u32,
) -> KernelCfg {
    KernelCfg::Stream(StreamCfg {
        streams,
        region_bytes,
        pattern,
        loads_per_line,
        compute_per_load,
        fp,
        store_every,
    })
}

fn chase(region_bytes: u64, chains: u32, compute_per_load: u32, branch_every: u32) -> KernelCfg {
    KernelCfg::Chase(ChaseCfg {
        region_bytes,
        chains,
        compute_per_load,
        branch_every,
    })
}

fn gather(index_bytes: u64, data_bytes: u64, compute_per_pair: u32) -> KernelCfg {
    KernelCfg::Gather(GatherCfg {
        index_region_bytes: index_bytes,
        data_region_bytes: data_bytes,
        compute_per_pair,
    })
}

fn compute(
    ops_per_iter: u32,
    fp_permille: u32,
    chain_len: u32,
    resident_bytes: u64,
    load_every: u32,
    code_blocks: u32,
) -> KernelCfg {
    KernelCfg::Compute(ComputeCfg {
        ops_per_iter,
        fp_permille,
        div_permille: 5,
        chain_len,
        resident_bytes,
        load_every,
        code_blocks,
    })
}

fn branchy(
    ops_per_branch: u32,
    predictable_permille: u32,
    resident_bytes: u64,
    load_every: u32,
    code_blocks: u32,
) -> KernelCfg {
    KernelCfg::Branchy(BranchyCfg {
        ops_per_branch,
        taken_permille: 500,
        predictable_permille,
        resident_bytes,
        load_every,
        code_blocks,
    })
}

/// A phase-shifting synthetic workload for adaptive-control experiments
/// (not part of the paper's 29-benchmark suite).
///
/// The schedule alternates coarse phases with opposite prefetch
/// characters:
///
/// * **stream** — long unit-stride load streams: offset prefetching is
///   hugely profitable, and the spare bandwidth rewards aggression;
/// * **gather** — `A[B[i]]` over a DRAM-sized table: the sequential
///   index stream keeps an offset learner scoring, so prefetch stays on
///   while most issues target random gather lines — pure pollution and
///   bandwidth waste;
/// * **chase** — a serialised pointer chase where prefetching can
///   neither help nor learn.
///
/// No static prefetcher configuration is right for every phase, which is
/// exactly the gap epoch-based runtime reconfiguration (`bosim-adapt`)
/// is meant to close.
pub fn phase_shift() -> BenchmarkSpec {
    spec(
        "phase",
        "shift",
        vec![
            stream(2, 64 * MB, vec![1], 4, 2, false, 0),
            gather(16 * MB, 192 * MB, 2),
            chase(96 * MB, 2, 2, 0),
        ],
        // Iteration counts chosen so each phase spans a comparable
        // number of *cycles* (a chase iteration costs ~20x a stream
        // iteration) and several adaptation epochs.
        Schedule::Phased(vec![(0, 8_000), (1, 8_000), (0, 8_000), (2, 1_600)]),
    )
}

/// The §5.1 cache-thrashing micro-benchmark run on the non-measured cores
/// in the 2-core and 4-core configurations.
pub fn thrasher() -> BenchmarkSpec {
    spec(
        "thrash",
        "scanwrite",
        vec![KernelCfg::ScanWrite(ScanWriteCfg {
            region_bytes: 256 * MB,
            stores_per_iter: 8,
            compute_per_store: 0,
        })],
        Schedule::Interleaved(vec![1]),
    )
}

/// All 29 benchmark specs, in SPEC-id order (the order of the paper's
/// figure x-axes).
pub fn suite() -> Vec<BenchmarkSpec> {
    vec![
        b400(),
        b401(),
        b403(),
        b410(),
        b416(),
        b429(),
        b433(),
        b434(),
        b435(),
        b436(),
        b437(),
        b444(),
        b445(),
        b447(),
        b450(),
        b453(),
        b454(),
        b456(),
        b458(),
        b459(),
        b462(),
        b464(),
        b465(),
        b470(),
        b471(),
        b473(),
        b481(),
        b482(),
        b483(),
    ]
}

/// Looks a benchmark up by its short id (e.g. `"433"`). The extras
/// outside the 29-benchmark suite resolve too: `"phase"` (the
/// [`phase_shift`] workload) and `"thrash"` (the §5.1 micro-benchmark).
pub fn benchmark(short: &str) -> Option<BenchmarkSpec> {
    suite()
        .into_iter()
        .chain([phase_shift(), thrasher()])
        .find(|b| b.short == short)
}

/// The short ids of the memory-intensive subset shown in Figure 13
/// ("omitted benchmarks access the DRAM infrequently").
pub fn fig13_subset() -> Vec<&'static str> {
    vec![
        "403", "410", "429", "433", "434", "436", "437", "447", "450", "459", "462", "470", "471",
        "473", "481", "483",
    ]
}

fn b400() -> BenchmarkSpec {
    // perlbench: branchy interpreter, large-ish code, mostly resident data.
    spec(
        "400",
        "perlbench",
        vec![
            branchy(6, 700, 192 * KB, 3, 48),
            compute(12, 100, 3, 64 * KB, 4, 24),
        ],
        Schedule::Interleaved(vec![2, 1]),
    )
}

fn b401() -> BenchmarkSpec {
    // bzip2: sequential scan + random accesses within a ~4MB block.
    spec(
        "401",
        "bzip2",
        vec![
            stream(2, 16 * MB, vec![1], 6, 4, false, 4),
            gather(4 * MB, 4 * MB, 4),
        ],
        Schedule::Interleaved(vec![2, 1]),
    )
}

fn b403() -> BenchmarkSpec {
    // gcc: big code footprint, many short streams, pointer-ish IR walks.
    spec(
        "403",
        "gcc",
        vec![
            compute(10, 50, 2, 256 * KB, 3, 96),
            stream(4, 12 * MB, vec![1], 6, 2, false, 6),
            chase(8 * MB, 2, 2, 0),
        ],
        Schedule::Phased(vec![(0, 40), (1, 30), (2, 15)]),
    )
}

fn b410() -> BenchmarkSpec {
    // bwaves: big multi-stream unit-stride FP solver, memory bound.
    spec(
        "410",
        "bwaves",
        vec![stream(5, 96 * MB, vec![1], 8, 5, true, 8)],
        Schedule::Interleaved(vec![1]),
    )
}

fn b416() -> BenchmarkSpec {
    // gamess: FP compute, cache resident.
    spec(
        "416",
        "gamess",
        vec![compute(16, 700, 2, 96 * KB, 5, 8)],
        Schedule::Interleaved(vec![1]),
    )
}

fn b429() -> BenchmarkSpec {
    // mcf: dominant serial pointer chase over a huge graph plus a
    // prefetchable arc-array stream; low IPC, benefits somewhat from
    // offset prefetching on the stream part (why BADSCORE>1 hurts it).
    spec(
        "429",
        "mcf",
        vec![
            chase(192 * MB, 2, 3, 6),
            stream(2, 48 * MB, vec![1, 2], 4, 2, false, 5),
        ],
        Schedule::Interleaved(vec![3, 2]),
    )
}

fn b433() -> BenchmarkSpec {
    // milc: lattice QCD; line-stride 32 streams => offset peaks at
    // multiples of 32, benefits from very large offsets with superpages.
    spec(
        "433",
        "milc",
        vec![
            stream(3, 96 * MB, vec![32], 4, 6, true, 6),
            compute(10, 800, 2, 128 * KB, 0, 4),
        ],
        Schedule::Interleaved(vec![4, 1]),
    )
}

fn b434() -> BenchmarkSpec {
    // zeusmp: strided stencil streams, moderate intensity.
    spec(
        "434",
        "zeusmp",
        vec![
            stream(4, 48 * MB, vec![2], 6, 6, true, 8),
            compute(10, 800, 2, 128 * KB, 0, 4),
        ],
        Schedule::Interleaved(vec![3, 1]),
    )
}

fn b435() -> BenchmarkSpec {
    // gromacs: MD compute with small gathers, mostly resident.
    spec(
        "435",
        "gromacs",
        vec![
            compute(14, 700, 2, 160 * KB, 4, 8),
            gather(2 * MB, 3 * MB, 6),
        ],
        Schedule::Interleaved(vec![4, 1]),
    )
}

fn b436() -> BenchmarkSpec {
    // cactusADM: stencil with large-stride plane accesses.
    spec(
        "436",
        "cactusADM",
        vec![
            stream(3, 64 * MB, vec![16], 6, 6, true, 6),
            compute(8, 800, 2, 96 * KB, 0, 4),
        ],
        Schedule::Interleaved(vec![3, 1]),
    )
}

fn b437() -> BenchmarkSpec {
    // leslie3d: many interleaved unit/short-stride streams.
    spec(
        "437",
        "leslie3d",
        vec![stream(7, 48 * MB, vec![1], 6, 4, true, 7)],
        Schedule::Interleaved(vec![1]),
    )
}

fn b444() -> BenchmarkSpec {
    // namd: FP compute, resident.
    spec(
        "444",
        "namd",
        vec![compute(18, 750, 3, 192 * KB, 6, 6)],
        Schedule::Interleaved(vec![1]),
    )
}

fn b445() -> BenchmarkSpec {
    // gobmk: branchy game tree, resident.
    spec(
        "445",
        "gobmk",
        vec![
            branchy(5, 550, 256 * KB, 3, 32),
            compute(10, 100, 3, 64 * KB, 4, 16),
        ],
        Schedule::Interleaved(vec![3, 1]),
    )
}

fn b447() -> BenchmarkSpec {
    // dealII: FP with medium streams (FE matrix sweeps).
    spec(
        "447",
        "dealII",
        vec![
            stream(3, 24 * MB, vec![1], 8, 5, true, 6),
            compute(12, 700, 2, 256 * KB, 4, 12),
        ],
        Schedule::Interleaved(vec![2, 3]),
    )
}

fn b450() -> BenchmarkSpec {
    // soplex: sparse LP — strided sweeps + gathers.
    spec(
        "450",
        "soplex",
        vec![
            stream(3, 32 * MB, vec![1, 2], 4, 3, true, 6),
            gather(8 * MB, 24 * MB, 3),
        ],
        Schedule::Interleaved(vec![2, 1]),
    )
}

fn b453() -> BenchmarkSpec {
    // povray: FP compute, branchy-ish, resident.
    spec(
        "453",
        "povray",
        vec![
            compute(14, 750, 2, 96 * KB, 5, 12),
            branchy(8, 750, 64 * KB, 4, 12),
        ],
        Schedule::Interleaved(vec![3, 1]),
    )
}

fn b454() -> BenchmarkSpec {
    // calculix: FP compute + moderate streams, mostly resident.
    spec(
        "454",
        "calculix",
        vec![
            compute(16, 750, 2, 256 * KB, 5, 8),
            stream(2, 8 * MB, vec![1], 8, 5, true, 8),
        ],
        Schedule::Interleaved(vec![4, 1]),
    )
}

fn b456() -> BenchmarkSpec {
    // hmmer: dense dynamic-programming sweeps, L2-resident.
    spec(
        "456",
        "hmmer",
        vec![stream(2, 320 * KB, vec![1], 8, 6, false, 3)],
        Schedule::Interleaved(vec![1]),
    )
}

fn b458() -> BenchmarkSpec {
    // sjeng: branchy search + hash-table probes (~L3 resident).
    spec(
        "458",
        "sjeng",
        vec![branchy(6, 500, 128 * KB, 4, 24), gather(MB, 6 * MB, 5)],
        Schedule::Interleaved(vec![4, 1]),
    )
}

fn b459() -> BenchmarkSpec {
    // GemsFDTD: stride pattern [29,29,30] — offset peaks near multiples
    // of 29.33 (the paper: 29, 59, 88, 117, ...).
    spec(
        "459",
        "GemsFDTD",
        vec![
            stream(3, 96 * MB, vec![29, 29, 30], 4, 5, true, 6),
            compute(8, 800, 2, 128 * KB, 0, 4),
        ],
        Schedule::Interleaved(vec![4, 1]),
    )
}

fn b462() -> BenchmarkSpec {
    // libquantum: long unit-stride streams, very memory intensive,
    // sustains high IPC given bandwidth; timeliness crucial.
    spec(
        "462",
        "libquantum",
        vec![stream(2, 128 * MB, vec![1], 8, 3, false, 4)],
        Schedule::Interleaved(vec![1]),
    )
}

fn b464() -> BenchmarkSpec {
    // h264ref: motion-search block streams + compute, ~1MB hot set.
    spec(
        "464",
        "h264ref",
        vec![
            stream(4, MB, vec![1], 6, 4, false, 5),
            compute(12, 300, 2, 256 * KB, 4, 16),
        ],
        Schedule::Interleaved(vec![2, 3]),
    )
}

fn b465() -> BenchmarkSpec {
    // tonto: FP compute with PC-stable strided loads — the DL1 stride
    // prefetcher shines here (paper: up to +39%).
    spec(
        "465",
        "tonto",
        vec![
            stream(4, 24 * MB, vec![4], 8, 6, true, 8),
            compute(12, 800, 2, 128 * KB, 0, 6),
        ],
        Schedule::Interleaved(vec![3, 1]),
    )
}

fn b470() -> BenchmarkSpec {
    // lbm: stride pattern [3,2] — peaks at multiples of 5, secondary
    // peaks at 5k+3; store-heavy (fluid update), memory bound.
    spec(
        "470",
        "lbm",
        vec![stream(3, 128 * MB, vec![3, 2], 6, 4, true, 2)],
        Schedule::Interleaved(vec![1]),
    )
}

fn b471() -> BenchmarkSpec {
    // omnetpp: event heap + pointer-rich objects: chase + gathers.
    spec(
        "471",
        "omnetpp",
        vec![
            chase(32 * MB, 3, 3, 8),
            gather(8 * MB, 24 * MB, 4),
            stream(1, 4 * MB, vec![1], 8, 3, false, 6),
        ],
        Schedule::Interleaved(vec![3, 2, 1]),
    )
}

fn b473() -> BenchmarkSpec {
    // astar: pathfinding over grids: gathers + short streams, branchy.
    spec(
        "473",
        "astar",
        vec![
            gather(8 * MB, 24 * MB, 4),
            branchy(5, 600, 256 * KB, 3, 16),
            stream(2, 8 * MB, vec![1], 8, 3, false, 8),
        ],
        Schedule::Interleaved(vec![3, 2, 1]),
    )
}

fn b481() -> BenchmarkSpec {
    // wrf: weather stencil, mixed strides, FP.
    spec(
        "481",
        "wrf",
        vec![
            stream(4, 48 * MB, vec![1, 1, 2], 6, 5, true, 7),
            compute(10, 800, 2, 192 * KB, 0, 8),
        ],
        Schedule::Interleaved(vec![3, 1]),
    )
}

fn b482() -> BenchmarkSpec {
    // sphinx3: acoustic scoring: streaming reads + FP compute.
    spec(
        "482",
        "sphinx3",
        vec![
            stream(3, 12 * MB, vec![1], 8, 5, true, 0),
            compute(10, 700, 2, 128 * KB, 4, 8),
        ],
        Schedule::Interleaved(vec![2, 1]),
    )
}

fn b483() -> BenchmarkSpec {
    // xalancbmk: DOM walks: pointer chase, big code, branchy.
    spec(
        "483",
        "xalancbmk",
        vec![
            chase(24 * MB, 2, 2, 6),
            branchy(5, 650, 256 * KB, 3, 64),
            stream(1, 4 * MB, vec![1], 8, 2, false, 0),
        ],
        Schedule::Interleaved(vec![2, 2, 1]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{capture, TraceSource};

    #[test]
    fn suite_has_29_benchmarks_in_spec_order() {
        let s = suite();
        assert_eq!(s.len(), 29);
        let shorts: Vec<&str> = s.iter().map(|b| b.short.as_str()).collect();
        let mut sorted = shorts.clone();
        sorted.sort();
        assert_eq!(shorts, sorted, "suite must be in SPEC-id order");
        assert_eq!(shorts.first(), Some(&"400"));
        assert_eq!(shorts.last(), Some(&"483"));
    }

    #[test]
    fn all_specs_build_and_generate() {
        for spec in suite() {
            let mut src = spec.build();
            let uops = capture(&mut src, 5_000);
            assert_eq!(uops.len(), 5_000, "{}", spec.name);
            let loads = uops.iter().filter(|u| u.is_load()).count();
            // Every benchmark does at least *some* memory work.
            assert!(loads > 0, "{} has no loads", spec.name);
        }
    }

    #[test]
    fn lookup_by_short_id() {
        assert_eq!(benchmark("433").unwrap().name, "433.milc-like");
        assert!(benchmark("999").is_none());
    }

    #[test]
    fn thrasher_is_store_dominated() {
        let mut src = thrasher().build();
        let uops = capture(&mut src, 2_000);
        let stores = uops.iter().filter(|u| u.is_store()).count();
        assert!(stores * 3 > uops.len(), "thrasher must be store heavy");
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = suite().iter().map(|b| b.seed).collect();
        assert_eq!(seeds.len(), 29);
    }

    #[test]
    fn fig13_subset_ids_exist() {
        for id in fig13_subset() {
            assert!(benchmark(id).is_some(), "{id} missing");
        }
    }

    #[test]
    fn memory_bound_benchmarks_touch_many_distinct_lines() {
        for id in ["410", "429", "433", "459", "462", "470"] {
            let spec = benchmark(id).unwrap();
            let mut src = spec.build();
            let mut lines = std::collections::HashSet::new();
            for _ in 0..50_000 {
                let u = src.next_uop();
                if let Some(addr) = u.data_addr() {
                    lines.insert(addr >> 6);
                }
            }
            assert!(lines.len() > 500, "{id} touched only {} lines", lines.len());
        }
    }
}
