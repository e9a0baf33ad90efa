//! Benchmark-side spans for the traced run. Spans are recorded only
//! here, around the benchmark's calls into each layer, kept in memory
//! and written out once as Chrome-trace JSON when the run ends. The
//! end-to-end runs never execute this code.

use std::time::Instant;

pub struct Span {
    pub name: String,
    /// The crate/module the timed call enters.
    pub layer: &'static str,
    /// Spans of one ladder share its id.
    pub ladder: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one: a rep's rung, a rung's
    /// predecessor on its ladder.
    pub parent: Option<u32>,
    pub pairs: u64,
    pub cells: u64,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; [`Trace::close`] ends it.
    pub fn open(
        &mut self,
        name: &str,
        layer: &'static str,
        ladder: u32,
        parent: Option<u32>,
        pairs: u64,
        cells: u64,
    ) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            ladder,
            start_ns,
            end_ns: start_ns,
            parent,
            pairs,
            cells,
        });
        self.spans.len() as u32 - 1
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Chrome-trace JSON: one complete (`X`) event per span, one
    /// process per ladder; `args` carries id, parent, pairs and cells.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"name\": {:?}, \"cat\": {:?}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"pid\": {}, \"tid\": 0, \"args\": {{\"id\": {id}, \"parent\": {}, \
                     \"pairs\": {}, \"cells\": {}}}}}",
                    s.name,
                    s.layer,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.ladder,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.pairs,
                    s.cells,
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Seconds one open + close costs, measured on a scratch trace.
pub fn span_cost_s() -> f64 {
    const N: u32 = 20_000;
    let mut scratch = Trace::new();
    let t0 = Instant::now();
    for _ in 0..N {
        let id = scratch.open("op", "bench", 0, None, 0, 0);
        scratch.close(id);
    }
    std::hint::black_box(&scratch.spans);
    t0.elapsed().as_secs_f64() / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_balanced_and_parent_linked() {
        let mut trace = Trace::new();
        let rung = trace.open("simd.batch", "simd", 1, None, 10, 100);
        let rep = trace.open("simd.batch#0", "simd", 1, Some(rung), 10, 100);
        trace.close(rep);
        trace.close(rung);
        let (outer, inner) = (&trace.spans[0], &trace.spans[1]);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(inner.parent, Some(0));
        let json = trace.chrome_json();
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 0"));
        assert!(span_cost_s() < 1e-4);
    }
}
