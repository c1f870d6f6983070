//! Benchmark-side spans around calls into the program's public API.
//! Spans stay in memory and are written out when the run ends.

use crate::stats::num;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans on one thread. `begin` opens a span under the
/// innermost open one; `end` closes it.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// Each span's duration minus the time its children cover, in ns.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self times of every span called `name`, in ms.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The whole duration of span `id`, in ms.
    pub fn ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Whole durations of every span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                format!(
                    "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                    s.name,
                    s.op,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns,
                    self_ns
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// A JSON object of `(key, value)` number pairs.
pub fn json_object(pairs: &[(&str, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(8);
        let op = t.begin("op", 1);
        t.span("a", 1, || spin(3));
        t.span("b", 1, || spin(2));
        t.end(op);
        let own = t.self_ns();
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(own[0] + own[1] + own[2], total);
        assert!(own[1] >= 3_000_000 && own[2] >= 2_000_000);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.self_ms("a").len(), 1);
        assert!(t.to_json().contains("\"name\":\"b\",\"op\":1,\"parent\":0"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_nest() {
        let mut t = Tracer::new(2);
        let a = t.begin("a", 0);
        let _b = t.begin("b", 0);
        t.end(a);
    }
}
