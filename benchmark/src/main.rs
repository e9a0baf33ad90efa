//! The repo benchmark. One process measures one workload once:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload end to end and prints the end-to-end
//! metrics; `--trace 1` runs the layer ladder instead (see `ladder.rs`)
//! and prints the per-layer metrics. The last line of standard output
//! is the machine-readable result; the `#report` line before it adds
//! host, build and input description. `benchmark/README.md` is the
//! catalogue of workloads and metrics.

mod gen;
mod ladder;
mod measure;
mod oracle;
mod rng;
mod trace;
mod workloads;

use measure::{median, percentile, steady_percentile};
use std::path::PathBuf;
use workloads::{Workload, NOMINAL_SECONDS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (ops, reps, requests).
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n,
        }
    }
}

/// What one process measured.
pub struct Report {
    /// The contract's metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Printed and kept in the `#report` line, never bounded.
    pub extras: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Further `#report` members (JSON object members, no braces).
    pub describe: String,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ReadsScore,
        seed: 11,
        seconds: NOMINAL_SECONDS,
        trace: false,
    };
    let mut named_workload = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value).ok_or_else(bad)?;
                named_workload = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named_workload {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!(
            "--workload is required, one of {}",
            names.join(" ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// Finite numbers print with all their digits; anything else is `-1`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

fn end_to_end(args: &Args, out_dir: &std::path::Path) -> Report {
    let scale = args.seconds / NOMINAL_SECONDS;
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first: one daemon, one pool at a time.
        let previous = last.take().map(|s: workloads::Setup| s.input_hash);
        let ((), wall, _) = measure::timed(|| {
            last = Some(workloads::setup(args.workload, args.seed, scale, out_dir));
        });
        setup_s.push(wall);
        let hash = last.as_ref().map(|s| s.input_hash);
        assert!(
            previous.is_none() || previous == hash,
            "same seed, different inputs"
        );
    }
    let setup = last.expect("at least one set-up");
    let out = workloads::run(setup.prepared);

    let ops = out.lat_s.len();
    // A rate is the median of the timed loop's segments' rates.
    let rate = |of: fn(&workloads::Segment) -> f64| {
        median(&out.segments.iter().map(of).collect::<Vec<f64>>())
    };
    // No reply at all leaves no latency to report: NaN prints as -1.
    let ms = |of: fn(&[f64], f64) -> f64, p: f64| {
        if ops > 0 {
            of(&out.lat_s, p) * 1e3
        } else {
            f64::NAN
        }
    };
    let metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s), SETUP_REPS),
        Metric::new(
            "gcups",
            "Gcell/s",
            rate(|s| s.cells as f64 / 1e9 / s.wall_s),
            ops,
        ),
        Metric::new(
            "pairs_per_s",
            "1/s",
            rate(|s| s.pairs as f64 / s.wall_s),
            ops,
        ),
        Metric::new("req_p50_ms", "ms", ms(percentile, 50.0), ops),
    ];
    // README, "Demoted", says why the first four are not bounded.
    let mut extras = vec![
        Metric::new(
            "cpu_s_per_gcell",
            "s/Gcell",
            rate(|s| s.cpu_s * 1e9 / s.cells as f64),
            ops,
        ),
        Metric::new("req_p95_ms", "ms", ms(steady_percentile, 95.0), ops),
        Metric::new("peak_rss_mb", "MiB", measure::peak_rss_mb(), 1),
        Metric::new(
            "failed_frac",
            "ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.attempted as usize,
        ),
        Metric::new("timed_wall_s", "s", out.wall_s(), ops),
        Metric::new("segments", "count", out.segments.len() as f64, 1),
        Metric::new("ops", "count", out.attempted as f64, 1),
        Metric::new("pairs", "count", out.pairs as f64, 1),
        Metric::new("cells", "count", out.cells as f64, 1),
    ];
    extras.extend(
        setup
            .facts
            .iter()
            .map(|&(k, v)| Metric::new(k, "ratio", v, 1)),
    );
    extras.extend(
        out.counters
            .iter()
            .map(|(k, &v)| Metric::new(k, "count", v, 1)),
    );
    let list = |values: Vec<f64>| values.into_iter().map(num).collect::<Vec<_>>().join(", ");
    let describe = format!(
        "\"threads\": {}, \"input_hash\": \"{:016x}\", \"setup_reps_s\": [{}], \
         \"segment_pairs_per_s\": [{}]",
        setup.threads,
        setup.input_hash,
        list(setup_s.clone()),
        list(
            out.segments
                .iter()
                .map(|s| s.pairs as f64 / s.wall_s)
                .collect()
        ),
    );
    Report {
        metrics,
        extras,
        attempted: out.attempted,
        failed: out.failed,
        first_failure: out.first_failure,
        describe,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        std::process::exit(2);
    });
    let out_dir = PathBuf::from(std::env::var("BENCH_OUT").unwrap_or_else(|_| ".bench_out".into()));
    std::fs::create_dir_all(&out_dir).expect("create the output directory");

    let report = if args.trace {
        ladder::run(args.seed, &out_dir)
    } else {
        end_to_end(&args, &out_dir)
    };
    let Report {
        metrics,
        extras,
        attempted,
        failed,
        describe,
        ..
    } = &report;

    let name = args.workload.name();
    for m in metrics.iter().chain(extras) {
        println!("{name} {} {} {} {}", m.name, num(m.value), m.unit, m.n);
    }
    if let Some(why) = &report.first_failure {
        println!("first failure: {why}");
    }
    println!(
        "#report {{\"workload\": {name:?}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, {describe}, {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}, \"extras\": {}}}",
        args.trace,
        args.seed,
        num(args.seconds),
        measure::host_json(),
        metrics_json(metrics),
        metrics_json(extras),
    );
    let exit = workloads::exit_code(*attempted, *failed);
    let correct = exit == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    );
    std::process::exit(exit);
}
