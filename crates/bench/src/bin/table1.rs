//! Table 1: the baseline micro-architecture parameters, printed from the
//! simulator's own constants and defaults so the table can never drift
//! from the code.
use bosim::{
    SimConfig, L2_FILL_QUEUE, L2_LATENCY, L2_SIZE, L2_WAYS, L3_FILL_QUEUE, L3_LATENCY, L3_SIZE,
    L3_WAYS, PREFETCH_QUEUE,
};
use bosim_baselines::stride;
use bosim_cpu::{
    TlbHierarchy, DISPATCH_WIDTH, DL1_LATENCY, DL1_SIZE, DL1_WAYS, FP_PORTS, IL1_SIZE, IL1_WAYS,
    INT_PORTS, LOAD_PORTS, MISPREDICT_PENALTY, MSHRS, RETIRE_WIDTH, ROB_SIZE, STORE_BUFFER,
    TLB2_LATENCY, WALK_LATENCY,
};
use bosim_dram::{
    BANKS, CHANNELS, READ_QUEUE, T_BURST, T_CL, T_CWL, T_RAS, T_RCD, T_RP, T_RTP, T_WR, T_WTR,
    URGENT_THRESHOLD, WRITE_BATCH, WRITE_QUEUE,
};
use bosim_stats::Table;

fn main() {
    let c = SimConfig::default();
    let tlbs = TlbHierarchy::with_defaults();
    let mut tab = Table::new(["parameter", "value"]);
    tab.row(vec!["clock freq.".to_string(), "fixed".to_string()]);
    tab.row(vec![
        "branch pred.".to_string(),
        "TAGE & ITTAGE".to_string(),
    ]);
    tab.row(vec![
        "reorder buffer".to_string(),
        format!("{} micro-ops", ROB_SIZE),
    ]);
    tab.row(vec![
        "decode".to_string(),
        format!("{} instructions / cycle", DISPATCH_WIDTH),
    ]);
    tab.row(vec![
        "retire".to_string(),
        format!("{} micro-ops / cycle", RETIRE_WIDTH),
    ]);
    tab.row(vec!["load ports".to_string(), format!("{}", LOAD_PORTS)]);
    tab.row(vec![
        "exec ports".to_string(),
        format!("{} INT, {} FP", INT_PORTS, FP_PORTS),
    ]);
    tab.row(vec![
        "branch misp. penalty".to_string(),
        format!(
            "{} cycles (minimum), redirect at execution",
            MISPREDICT_PENALTY
        ),
    ]);
    tab.row(vec![
        "MSHR".to_string(),
        format!("{} DL1 block requests", MSHRS),
    ]);
    tab.row(vec![
        "store buffer".to_string(),
        format!("{} stores", STORE_BUFFER),
    ]);
    tab.row(vec!["cache line".to_string(), "64 bytes".to_string()]);
    tab.row(vec![
        "IL1".to_string(),
        format!("{}KB, {}-way LRU", IL1_SIZE >> 10, IL1_WAYS),
    ]);
    tab.row(vec![
        "DL1".to_string(),
        format!(
            "{}KB, {}-way LRU, {}-cycle lat.",
            DL1_SIZE >> 10,
            DL1_WAYS,
            DL1_LATENCY
        ),
    ]);
    tab.row(vec![
        "L2 (private)".to_string(),
        format!(
            "{}KB, {}-way LRU, {}-cycle lat., {}-entry fill queue",
            L2_SIZE >> 10,
            L2_WAYS,
            L2_LATENCY,
            L2_FILL_QUEUE
        ),
    ]);
    tab.row(vec![
        "L3 (shared)".to_string(),
        format!(
            "{}MB, {}-way {}, {}-cycle lat., {}-entry fill queue",
            L3_SIZE >> 20,
            L3_WAYS,
            c.l3_policy.label(),
            L3_LATENCY,
            L3_FILL_QUEUE
        ),
    ]);
    tab.row(vec![
        "L2 prefetch queue".to_string(),
        format!("{} entries", PREFETCH_QUEUE),
    ]);
    tab.row(vec![
        "TLB entries".to_string(),
        format!(
            "ITLB1: {}, DTLB1: {}, TLB2: {}",
            tlbs.itlb.entries(),
            tlbs.dtlb.entries(),
            tlbs.tlb2.entries()
        ),
    ]);
    tab.row(vec![
        "TLB miss latency".to_string(),
        format!("TLB2: {TLB2_LATENCY} cycles, page walk: +{WALK_LATENCY} cycles"),
    ]);
    tab.row(vec![
        "memory".to_string(),
        format!(
            "{CHANNELS} channels, 1 controller/channel, {BANKS} banks, FR-FCFS + steady/urgent"
        ),
    ]);
    tab.row(vec![
        "DDR3 param. (bus cycles)".to_string(),
        format!(
            "tCL={T_CL}, tRCD={T_RCD}, tRP={T_RP}, tRAS={T_RAS}, tCWL={T_CWL}, tRTP={T_RTP}, \
             tWR={T_WR}, tWTR={T_WTR}, tBURST={T_BURST}"
        ),
    ]);
    tab.row(vec![
        "memory controller".to_string(),
        format!(
            "{READ_QUEUE}-entry read + {WRITE_QUEUE}-entry write queue per core, \
             {WRITE_BATCH}-write batches, urgent gap > {URGENT_THRESHOLD}"
        ),
    ]);
    tab.row(vec![
        "DL1 prefetch".to_string(),
        format!(
            "stride prefetcher, {} entries, distance {}",
            stride::ENTRIES,
            stride::DISTANCE
        ),
    ]);
    tab.row(vec![
        "L2 prefetch".to_string(),
        "next-line prefetcher (baseline)".to_string(),
    ]);
    tab.row(vec!["page size".to_string(), "4KB / 4MB".to_string()]);
    tab.row(vec!["active cores".to_string(), "1 / 2 / 4".to_string()]);
    println!("# Table 1: baseline microarchitecture");
    print!("{}", tab.to_tsv());
    println!();
    println!("{tab}");
}
