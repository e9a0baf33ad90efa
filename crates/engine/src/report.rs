//! The one renderer for batch-run reports — the CLI's stderr summary,
//! the bench binaries' per-backend lines, and the machine-readable
//! `--stats-json` dump all come from here, so the three can never
//! drift apart on format or key names.
//!
//! Two surfaces:
//!
//! * [`summary_with_utilization`] — the human summary (the
//!   [`BatchStats::summary`] line, the ISA tier the SIMD lane kernels
//!   run on, pool utilization),
//! * [`stats_json`] — a stable-keyed JSON object. Key order is fixed
//!   (scalars first, then `per_backend` and `counters`, each sorted by
//!   name via the underlying `BTreeMap`s), so saved reports diff
//!   cleanly run over run.

use crate::stats::BatchStats;
use std::fmt::Write;

/// Human summary: the [`BatchStats::summary`] line, then
/// `simd.isa: <tier>` ([`anyseq_simd::isa()`]: `avx2` or `baseline`),
/// then `utilization: NN% of T threads`. Both `anyseq batch` and the
/// bench binaries print exactly this.
pub fn summary_with_utilization(stats: &BatchStats, threads: usize) -> String {
    format!(
        "{}\nsimd.isa: {}\nutilization: {:.0}% of {} threads",
        stats.summary(),
        anyseq_simd::isa(),
        100.0 * stats.utilization(threads),
        threads
    )
}

/// Serializes one batch run as a stable-keyed JSON object:
/// `pairs`, `cells`, `bins`, `units`, `fallbacks`, `wall_seconds`,
/// `gcups`, `utilization` and `threads` scalars and the `simd.isa`
/// string (`"avx2"` / `"baseline"`), then `per_backend`
/// (name → `{pairs, cells, busy_seconds, gcups}`) and `counters`
/// (name → value), both name-sorted. Spans are *not* embedded — the
/// Chrome-trace exporter ([`anyseq_obs::chrome_trace`]) owns that
/// format.
pub fn stats_json(stats: &BatchStats, threads: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"pairs\": {},", stats.pairs);
    let _ = writeln!(out, "  \"cells\": {},", stats.cells);
    let _ = writeln!(out, "  \"bins\": {},", stats.bins);
    let _ = writeln!(out, "  \"units\": {},", stats.units);
    let _ = writeln!(out, "  \"fallbacks\": {},", stats.fallbacks);
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"wall_seconds\": {},", json_f64(stats.wall_seconds));
    let _ = writeln!(out, "  \"gcups\": {},", json_f64(stats.gcups()));
    let _ = writeln!(
        out,
        "  \"utilization\": {},",
        json_f64(stats.utilization(threads))
    );
    let _ = writeln!(out, "  \"simd.isa\": {},", json_str(anyseq_simd::isa()));
    out.push_str("  \"per_backend\": {");
    // `BatchStats::per_backend` arrives name-sorted from the
    // scheduler, but a hand-built stats value may not be — sort here
    // so the key order is a property of the format, not the caller.
    let mut backends: Vec<_> = stats.per_backend.iter().collect();
    backends.sort_by_key(|b| b.backend);
    for (k, b) in backends.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"pairs\": {}, \"cells\": {}, \"busy_seconds\": {}, \"gcups\": {}}}",
            json_str(b.backend),
            b.pairs,
            b.cells,
            json_f64(b.busy_seconds),
            json_f64(b.gcups())
        );
    }
    if !backends.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"counters\": {");
    for (k, (name, value)) in stats.counters.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}: {}", json_str(name), value);
    }
    if !stats.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

/// JSON number for an `f64`; non-finite values (not representable in
/// JSON) become 0.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON string literal (counter names are controlled identifiers, but
/// a foreign `Engine` may report anything — escape, don't trust).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchStats {
        let mut s = BatchStats {
            pairs: 4,
            cells: 400,
            wall_seconds: 0.5,
            bins: 2,
            units: 2,
            fallbacks: 1,
            ..BatchStats::default()
        };
        s.record("simd", 3, 300, 0.4);
        s.record("scalar", 1, 100, 0.1);
        s.record_counter("stage.kernel_ns", 123);
        s.record_counter("simd.lane_pairs", 3);
        s
    }

    #[test]
    fn summary_carries_utilization() {
        let text = summary_with_utilization(&sample(), 2);
        assert!(text.contains("4 pairs"));
        assert!(text.contains(&format!("\nsimd.isa: {}\n", anyseq_simd::isa())));
        assert!(text.ends_with("utilization: 50% of 2 threads"));
    }

    #[test]
    fn json_is_stable_keyed_and_sorted() {
        let text = stats_json(&sample(), 2);
        // Backends and counters appear name-sorted.
        let scalar = text.find("\"scalar\"").unwrap();
        let simd = text.find("\"simd\"").unwrap();
        assert!(scalar < simd);
        let lane = text.find("\"simd.lane_pairs\"").unwrap();
        let kernel = text.find("\"stage.kernel_ns\"").unwrap();
        assert!(lane < kernel);
        assert!(text.contains("\"pairs\": 4"));
        assert!(text.contains("\"utilization\": 0.5"));
        assert!(text.contains(&format!("\"simd.isa\": \"{}\"", anyseq_simd::isa())));
        // Same stats, same bytes — the stability contract.
        assert_eq!(text, stats_json(&sample(), 2));
    }

    #[test]
    fn json_handles_empty_and_hostile_names() {
        let empty = stats_json(&BatchStats::default(), 1);
        assert!(empty.contains("\"per_backend\": {}"));
        assert!(empty.contains("\"counters\": {}"));
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_f64(f64::NAN), "0");
    }
}
