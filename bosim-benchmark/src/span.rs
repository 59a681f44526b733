//! The harness's own trace: spans recorded around the calls it makes
//! into each layer, kept in memory and written out when a run ends.

use bosim_stats::Json;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub layer: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one process, timed from a common epoch. A child process's
/// spans are adopted into the parent's list under the span that spawned
/// it.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; [`end`](Self::end) closes it.
    pub fn begin(&mut self, name: &str, layer: &str, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.push(name, layer, parent, now, now)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.at(Instant::now());
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &str,
        layer: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::from(id)),
                ("parent", Json::from(s.parent)),
                ("name", Json::from(s.name.as_str())),
                ("layer", Json::from(s.layer.as_str())),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ])
        }))
    }

    /// Adopts spans another process exported with [`to_json`]: their
    /// roots hang under `parent`, and their times shift by `offset_ns`
    /// (the child's epoch on this process's clock).
    ///
    /// [`to_json`]: Self::to_json
    pub fn adopt(&mut self, exported: &Json, parent: usize, offset_ns: u64) {
        let base = self.spans.len();
        for s in exported.as_arr().unwrap_or_default() {
            let num = |key| s.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let text = |key| s.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
            let parent = match s.get("parent").and_then(Json::as_f64) {
                Some(p) => base + p as usize,
                None => parent,
            };
            self.spans.push(Span {
                name: text("name"),
                layer: text("layer"),
                parent: Some(parent),
                start_ns: offset_ns + num("start_ns"),
                end_ns: offset_ns + num("end_ns"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adopted_spans_hang_under_the_spawning_span() {
        let epoch = Instant::now();
        let mut child = Spans::new(epoch);
        let job = child.push("job", "sim", None, 10, 50);
        child.push("simulate", "sim", Some(job), 20, 40);

        let mut parent = Spans::new(epoch);
        let rep = parent.push("rep", "harness", None, 0, 100);
        parent.adopt(&Json::parse(&child.to_json().to_string()).unwrap(), rep, 5);
        assert_eq!(parent.get(1).parent, Some(rep));
        assert_eq!(parent.get(2).parent, Some(1));
        assert_eq!((parent.get(2).start_ns, parent.get(2).end_ns), (25, 45));
        assert_eq!(parent.get(2).name, "simulate");
    }
}
