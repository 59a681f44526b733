//! Table 2: BO prefetcher default parameters, printed from `BoConfig`
//! and the RR tag width constant.
use best_offset::{BoConfig, RR_TAG_BITS};
use bosim_stats::Table;

fn main() {
    let c = BoConfig::default();
    let mut tab = Table::new(["parameter", "value"]);
    tab.row(vec![
        "RR table entries".to_string(),
        format!("{}", c.rr_entries),
    ]);
    tab.row(vec!["RR tag bits".to_string(), format!("{RR_TAG_BITS}")]);
    tab.row(vec!["SCOREMAX".to_string(), format!("{}", c.score_max)]);
    tab.row(vec!["ROUNDMAX".to_string(), format!("{}", c.round_max)]);
    tab.row(vec!["BADSCORE".to_string(), format!("{}", c.bad_score)]);
    tab.row(vec!["scores".to_string(), format!("{}", c.offsets.len())]);
    let list: Vec<String> = c.offsets.iter().map(|o| o.to_string()).collect();
    tab.row(vec!["offset list".to_string(), list.join(" ")]);
    println!("# Table 2: BO prefetcher default parameters");
    print!("{}", tab.to_tsv());
    println!();
    println!("{tab}");
}
