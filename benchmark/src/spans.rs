//! Harness-side spans: the benchmark times the engine from outside, around
//! calls into public functions, and keeps `(name, start, end, parent,
//! workload)` records in memory until the run ends. Only the traced run
//! records spans; end-to-end numbers never come from here.

use mapreduce::json::{json_array, JsonObject};
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct SpanLog {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last (the harness records on one thread).
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(workload: &'static str) -> Self {
        SpanLog {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`; returns its seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = now;
        (now - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Time `f` as one leaf span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> String {
        json_array(self.spans.iter().enumerate().map(|(id, s)| {
            let mut o = JsonObject::new();
            o.field_u64("id", id as u64)
                .field_str("name", &s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns);
            match s.parent {
                Some(p) => o.field_u64("parent", p as u64),
                None => o.field("parent", "null"),
            };
            o.field_u64("self_ns", self.self_ns(id))
                .field_str("workload", self.workload);
            o.finish()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_json_parses() {
        let mut log = SpanLog::new("w");
        let outer = log.enter("outer");
        let (_, _) = log.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (_, _) = log.time("b", || ());
        let outer_s = log.exit(outer);
        assert!(outer_s >= 0.002);
        let a = &log.spans[1];
        assert_eq!(a.parent, Some(outer));
        let covered = (a.end_ns - a.start_ns) + (log.spans[2].end_ns - log.spans[2].start_ns);
        assert_eq!(
            log.self_ns(outer),
            log.spans[outer].end_ns - log.spans[outer].start_ns - covered
        );
        let parsed = crate::json::parse(&log.to_json()).unwrap();
        let spans = parsed.as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(spans[0].get("workload").unwrap().as_str(), Some("w"));
    }
}
