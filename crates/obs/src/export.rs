//! Exposition formats: Prometheus text and Chrome trace-event JSON.
//!
//! Both are hand-rolled writers (the crate is dependency-free). The
//! Chrome trace loads in Perfetto / `chrome://tracing`: one lane per
//! worker (`tid` = worker id), one `B`/`E` event pair per span, with
//! `backend`/`unit` attached as event args. Spans on one lane
//! are non-overlapping by construction (the scheduler never nests
//! stages), which `scripts/check_trace.py` verifies.

use crate::metrics::MetricsSnapshot;
use crate::span::{Span, NO_ID};
use std::fmt::Write as _;

/// Renders a snapshot in the Prometheus text exposition format
/// (counters, gauges, then histograms as cumulative `_bucket{le=…}` /
/// `_sum` / `_count` series). Keys come out in sorted, stable order.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_type_line = "";

    let mut type_line = |out: &mut String, name: &'static str, kind: &str| {
        if last_type_line != name {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_type_line = name;
        }
    };

    for ((name, labels), v) in &snap.counters {
        type_line(&mut out, name, "counter");
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {v}");
        } else {
            let _ = writeln!(out, "{name}{{{labels}}} {v}");
        }
    }
    for ((name, labels), v) in &snap.gauges {
        type_line(&mut out, name, "gauge");
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {v}");
        } else {
            let _ = writeln!(out, "{name}{{{labels}}} {v}");
        }
    }
    for ((name, labels), h) in &snap.hists {
        type_line(&mut out, name, "histogram");
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0;
        for (upper, acc) in h.cumulative_buckets() {
            cumulative = acc;
            if upper == u64::MAX {
                break;
            }
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{upper}\"}} {acc}");
        }
        let _ = cumulative;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            h.count()
        );
        if labels.is_empty() {
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        } else {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum());
            let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
        }
    }
    out
}

fn push_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Serializes spans as a Chrome trace-event JSON array (`ts` in
/// microseconds, `tid` = worker lane, plus `thread_name` metadata so
/// lanes are labelled in the viewer). Spans should be pre-sorted by
/// `(worker, start_ns)` — [`crate::BatchTracer::finish`] returns them
/// that way — so timestamps are monotone per lane in file order.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };

    let mut workers: Vec<u32> = spans.iter().map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for &w in &workers {
        sep(&mut out);
        let name = if w == 0 {
            "coordinator".to_string()
        } else {
            format!("worker-{w}")
        };
        let _ = write!(
            out,
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{w},"args":{{"name":"{name}"}}}}"#
        );
    }

    for s in spans {
        let ts = s.start_ns as f64 / 1000.0;
        let end = (s.start_ns + s.dur_ns) as f64 / 1000.0;
        sep(&mut out);
        let _ = write!(
            out,
            r#"{{"name":"{}","cat":""#,
            s.stage.name() // stage names are snake_case identifiers, no escaping needed
        );
        push_escaped(&mut out, s.backend);
        let _ = write!(
            out,
            r#"","ph":"B","ts":{ts:.3},"pid":1,"tid":{},"args":{{"backend":""#,
            s.worker
        );
        push_escaped(&mut out, s.backend);
        out.push('"');
        if s.unit != NO_ID {
            let _ = write!(out, r#","unit":{}"#, s.unit);
        }
        out.push_str("}}");
        sep(&mut out);
        let _ = write!(
            out,
            r#"{{"name":"{}","ph":"E","ts":{end:.3},"pid":1,"tid":{}}}"#,
            s.stage.name(),
            s.worker
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{labels, MetricsRegistry};
    use crate::stage::Stage;

    #[test]
    fn prometheus_format_shape() {
        let reg = MetricsRegistry::new();
        reg.inc("anyseq_batches_total", String::new(), 2);
        reg.set_gauge("anyseq_cache_shard_bytes", labels(&[("shard", "0")]), 128.0);
        let l = labels(&[("backend", "simd"), ("stage", "kernel")]);
        reg.observe("anyseq_stage_duration_ns", l, 3);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# TYPE anyseq_batches_total counter\n"));
        assert!(text.contains("anyseq_batches_total 2\n"));
        assert!(text.contains("# TYPE anyseq_cache_shard_bytes gauge\n"));
        assert!(text.contains("anyseq_cache_shard_bytes{shard=\"0\"} 128\n"));
        assert!(text.contains("# TYPE anyseq_stage_duration_ns histogram\n"));
        assert!(text.contains(
            "anyseq_stage_duration_ns_bucket{backend=\"simd\",stage=\"kernel\",le=\"4\"} 1\n"
        ));
        assert!(text.contains(
            "anyseq_stage_duration_ns_bucket{backend=\"simd\",stage=\"kernel\",le=\"+Inf\"} 1\n"
        ));
        assert!(
            text.contains("anyseq_stage_duration_ns_sum{backend=\"simd\",stage=\"kernel\"} 3\n")
        );
        assert!(
            text.contains("anyseq_stage_duration_ns_count{backend=\"simd\",stage=\"kernel\"} 1\n")
        );
    }

    #[test]
    fn chrome_trace_is_json_with_balanced_events() {
        let spans = vec![
            Span {
                stage: Stage::Kernel,
                backend: "simd",
                unit: 4,
                worker: 1,
                start_ns: 1_000,
                dur_ns: 2_500,
            },
            Span {
                stage: Stage::Merge,
                backend: "sched",
                unit: NO_ID,
                worker: 1,
                start_ns: 4_000,
                dur_ns: 500,
            },
        ];
        let json = chrome_trace(&spans);
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert_eq!(json.matches(r#""ph":"B""#).count(), 2);
        assert_eq!(json.matches(r#""ph":"E""#).count(), 2);
        assert_eq!(json.matches(r#""ph":"M""#).count(), 1);
        assert!(json.contains(r#""name":"kernel","cat":"simd","ph":"B","ts":1.000"#));
        assert!(json.contains(r#""unit":4"#) && !json.contains(r#""bin""#));
        // The merge span has no unit label.
        assert!(!json.contains(&format!(r#""unit":{NO_ID}"#)));
    }
}
