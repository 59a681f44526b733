//! `--compare PARENT CHANGE`: judges every workload × end-to-end metric
//! of a change against its parent. Each side is a `results-SEED.json`
//! file or a directory of them, one per run; a metric's runs are
//! summarised by the median and quartiles of their reported values, as
//! the acceptance check does it.

use crate::metrics::END_TO_END;
use crate::stats::{verdict, worsening, Summary, Verdict};
use bosim_stats::{Align, Json, Table};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One workload of one run.
struct Entry {
    seed: u64,
    workload: String,
    digest: String,
    ipc_gm: Option<f64>,
    /// End-to-end metric name → reported value.
    values: Vec<(String, f64)>,
}

fn result_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("results-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no results-*.json files", path.display()));
    }
    Ok(files)
}

fn load(path: &Path) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for file in result_files(path)? {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let seed = doc.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN) as u64;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or(format!("{}: no workloads", file.display()))?;
        for w in workloads {
            let text = |key| w.get(key).and_then(Json::as_str).unwrap_or("-").to_string();
            let values = w
                .get("metrics")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|m| {
                    let name = m.get("name").and_then(Json::as_str)?;
                    Some((name.to_string(), m.get("value").and_then(Json::as_f64)?))
                })
                .collect();
            entries.push(Entry {
                seed,
                workload: text("name"),
                digest: text("digest"),
                ipc_gm: w.get("ipc_gm").and_then(Json::as_f64),
                values,
            });
        }
    }
    Ok(entries)
}

fn summary(entries: &[Entry], workload: &str, metric: &str) -> Option<Summary> {
    let values: Vec<f64> = entries
        .iter()
        .filter(|e| e.workload == workload)
        .filter_map(|e| e.values.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect();
    Summary::of(&values)
}

fn cell(s: &Summary) -> String {
    format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.p25, s.p75, s.n)
}

pub fn run(parent_path: &Path, change_path: &Path) -> ExitCode {
    let (parent, change) = match load(parent_path).and_then(|p| Ok((p, load(change_path)?))) {
        Ok(both) => both,
        Err(e) => {
            eprintln!("bosim-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workloads: Vec<&str> = Vec::new();
    for e in &parent {
        if !workloads.contains(&e.workload.as_str()) {
            workloads.push(&e.workload);
        }
    }
    let mut t = Table::new([
        "workload",
        "metric",
        "unit",
        "parent median [p25, p75]",
        "change median [p25, p75]",
        "worse by",
        "bound",
        "verdict",
    ]);
    t.align([
        Align::Left,
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Left,
    ]);
    let mut worse = 0;
    let mut missing = Vec::new();
    for w in &workloads {
        for m in &END_TO_END {
            let (Some(ps), Some(cs)) = (summary(&parent, w, m.name), summary(&change, w, m.name))
            else {
                missing.push(format!("{w}/{}", m.name));
                continue;
            };
            let v = verdict(m.better, m.bound, &ps, &cs);
            worse += usize::from(v == Verdict::Worse);
            t.row([
                w.to_string(),
                m.name.to_string(),
                m.unit.to_string(),
                cell(&ps),
                cell(&cs),
                format!("{:+.1}%", 100.0 * worsening(m.better, &ps, &cs)),
                format!("{:.0}%", 100.0 * m.bound),
                v.label().to_string(),
            ]);
        }
    }
    println!("{t}");
    // For one seed, simulated results repeat exactly: a changed digest
    // means the change moved a simulated statistic.
    for p in &parent {
        for c in change
            .iter()
            .filter(|c| c.workload == p.workload && c.seed == p.seed)
        {
            let same = p.digest == c.digest && p.ipc_gm == c.ipc_gm;
            let ipc = |e: &Entry| e.ipc_gm.map_or("-".to_string(), |v| v.to_string());
            println!(
                "{} seed {}: digest {} -> {}, ipc_gm {} -> {}: {}",
                p.workload,
                p.seed,
                p.digest,
                c.digest,
                ipc(p),
                ipc(c),
                if same { "identical" } else { "CHANGED" }
            );
        }
    }
    for m in &missing {
        eprintln!("bosim-benchmark: {m} is missing from one side");
    }
    if worse > 0 {
        eprintln!("bosim-benchmark: {worse} metric(s) worse than their bound");
        ExitCode::FAILURE
    } else if !missing.is_empty() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
