//! The epoch series as JSON lines.

use crate::EpochFeedback;

/// Renders epoch records as a JSON-lines document (one compact object
/// per line, trailing newline).
pub fn to_jsonl(rows: &[EpochFeedback]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_json().to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(epoch: u64) -> EpochFeedback {
        EpochFeedback {
            epoch,
            start_cycle: epoch * 100,
            cycles: 100,
            instructions: 250,
            bus_occupancy: 0.0625,
            l3_prefetch_resident: 7,
            ..Default::default()
        }
    }

    #[test]
    fn rows_render_one_line_each() {
        let text = to_jsonl(&[row(0), row(1)]);
        assert_eq!(text.lines().count(), 2);
        let first = text.lines().next().unwrap();
        assert!(first.starts_with(r#"{"epoch":0,"start_cycle":0,"cycles":100"#));
        assert!(first.contains(r#""ipc":2.5"#));
        assert!(first.contains(r#""l3_prefetch_resident":7"#));
    }
}
