//! What a run prints and writes: the tables, `results-SEED.json` and the
//! last stdout line.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::State;
use crate::stats::median;
use crate::workload::Workload;
use crate::Options;
use bosim_stats::{Align, Json, Table};

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1e5 || v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

pub fn print_workload(st: &State, seed: u64) {
    let digest = st
        .reps
        .first()
        .map_or("-".to_string(), |r| format!("{:016x}", r.digest));
    let ipc = st.reps.first().map_or(f64::NAN, |r| r.ipc_gm);
    let hosts: Vec<f64> = st.reps.iter().map(|r| r.host).collect();
    println!(
        "# {}: seed {seed}, {} repetitions, {} jobs attempted, {} failed, digest {digest}, \
         ipc_gm {ipc:.6}, host slowness {:.3}",
        st.workload.name(),
        st.reps.len(),
        st.attempted,
        st.failed,
        median(&hosts),
    );
    let mut t = Table::new(["metric", "unit", "reported", "median", "p25", "p75", "n"]);
    t.align([
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (m, (_, s)) in END_TO_END.iter().zip(st.summaries()) {
        t.row([
            m.name.to_string(),
            m.unit.to_string(),
            format!("{:.6}", st.reported(m, &s)),
            format!("{:.6}", s.median),
            format!("{:.6}", s.p25),
            format!("{:.6}", s.p75),
            s.n.to_string(),
        ]);
    }
    println!("{t}");
    let layers = st.layers();
    if !layers.is_empty() {
        let mut t = Table::new(["layer metric", "unit", "better", "traced rep"]);
        t.align([Align::Left, Align::Left, Align::Left, Align::Right]);
        for (m, (_, v)) in PER_LAYER.iter().zip(&layers) {
            t.row([
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
                fmt_value(*v),
            ]);
        }
        println!("{t}");
    }
}

pub fn results_json(states: &[State], opts: &Options) -> Json {
    Json::obj([
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        (
            "workloads",
            Json::arr(states.iter().map(|st| {
                let first = st.reps.first();
                Json::obj([
                    ("name", Json::from(st.workload.name())),
                    (
                        "digest",
                        Json::from(first.map(|r| format!("{:016x}", r.digest))),
                    ),
                    ("ipc_gm", Json::from(first.map(|r| r.ipc_gm))),
                    (
                        "host_slowness",
                        Json::arr(st.reps.iter().map(|r| Json::from(r.host))),
                    ),
                    ("attempted", Json::from(st.attempted)),
                    ("failed", Json::from(st.failed)),
                    (
                        "failures",
                        Json::arr(st.failures.iter().map(|f| Json::from(f.as_str()))),
                    ),
                    (
                        "metrics",
                        Json::arr(END_TO_END.iter().zip(st.summaries()).map(|(m, (v, s))| {
                            Json::obj([
                                ("name", Json::from(m.name)),
                                ("unit", Json::from(m.unit)),
                                ("better", Json::from(m.better.label())),
                                ("bound", Json::from(m.bound)),
                                ("value", Json::from(st.reported(m, &s))),
                                ("n", Json::from(s.n)),
                                ("median", Json::from(s.median)),
                                ("p25", Json::from(s.p25)),
                                ("p75", Json::from(s.p75)),
                                ("values", Json::arr(v.into_iter().map(Json::from))),
                            ])
                        })),
                    ),
                    (
                        "layers",
                        Json::obj(st.layers().into_iter().map(|(k, v)| (k, Json::from(v)))),
                    ),
                ])
            })),
        ),
    ])
}

/// The last stdout line: one JSON object with the reported end-to-end
/// values (or, with `--trace 1`, the per-layer values). With more than one
/// workload, metric names carry a `workload/` prefix.
pub fn final_line(states: &[State], opts: &Options) -> Json {
    let prefix = |w: Workload| {
        if states.len() == 1 {
            String::new()
        } else {
            format!("{}/", w.name())
        }
    };
    let mut metrics = Vec::new();
    for st in states {
        if opts.trace {
            for (m, (name, v)) in PER_LAYER.iter().zip(st.layers()) {
                let value = Json::obj([("value", Json::from(v)), ("unit", Json::from(m.unit))]);
                metrics.push((format!("{}{name}", prefix(st.workload)), value));
            }
        } else {
            for (m, (_, s)) in END_TO_END.iter().zip(st.summaries()) {
                let value = Json::obj([
                    ("value", Json::from(st.reported(m, &s))),
                    ("unit", Json::from(m.unit)),
                ]);
                metrics.push((format!("{}{}", prefix(st.workload), m.name), value));
            }
        }
    }
    let attempted: u64 = states.iter().map(|s| s.attempted).sum();
    let failed: u64 = states.iter().map(|s| s.failed).sum();
    let correct = states.iter().all(|s| s.failures.is_empty());
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}
