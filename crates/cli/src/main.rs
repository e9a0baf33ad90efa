//! `anyseq` — command-line pairwise aligner over the anyseq library.
//!
//! ```text
//! anyseq align --query q.fa --subject s.fa
//!              [--type global|local|semiglobal|free-end]
//!              [--match N] [--mismatch N] [--gap N | --open N --extend N]
//!              [--score-only] [--threads N]
//! anyseq batch (--pairs reads.fa | --query q.fa --subject s.fa | --simulate N)
//!              [--type KIND] [--match N] [--mismatch N]
//!              [--gap N | --open N --extend N]
//!              [--backend auto|scalar|simd|wavefront]
//!              [--xdrop X] [--shard-cells CELLS] [--cache-mb N]
//!              [--threads N] [--alignments] [--seed N] [--quiet]
//!              [--metrics [PATH]] [--trace-out PATH] [--stats-json [PATH]]
//! anyseq simulate --length N [--gc F] [--seed N]    # emit a FASTA genome
//! anyseq serve --socket PATH [--window-ms N] [--target-pairs N]
//!              [--batch-mb N] [--queue-mb N] [--max-frame-mb N]
//!              [--backend NAME] [--xdrop X] [--shard-cells CELLS]
//!              [--cache-mb N] [--threads N] [--slow-ms N]
//! anyseq serve-ctl --socket PATH (--stats | --health | --dump)
//!                  [--out PATH]
//! ```
//!
//! `batch` drives the `anyseq-engine` subsystem: pairs are length-
//! binned, sharded over a worker pool, dispatched to the selected
//! backend (with scalar fallback) and printed in input order. Inputs
//! are ingested once into a `SeqStore` arena and dispatched as a
//! borrowed zero-copy `BatchView`. A flag a subcommand does not know
//! is refused (exit 2), never ignored.
//! `--xdrop X` enables X-drop early termination on the SIMD score
//! path for semi-global/local batches: a lane whose row maximum falls
//! more than X below its running best retires with the best-so-far —
//! faster on diverged pairs, inexact by design (a late-recovering
//! alignment may be missed), so it is opt-in and never touches global
//! batches, tracebacks or the scalar reference. `--xdrop 0` is
//! rejected (it would retire every lane immediately; omit the flag for
//! the exact path).
//! `--shard-cells CELLS` bounds the wavefront backend's resident
//! working set: a pass whose DP matrix exceeds CELLS is cut into
//! subject slabs stitched through border seams — scores and CIGARs
//! stay bit-identical to the unsharded run. A score keeps one slab's
//! tile borders resident; each pass of an alignment keeps one slab
//! plus the O(m) last rows it returns, and its kept tile lines
//! (bounded by the line budget). Values below
//! 2^18 cells are clamped up; `--shard-cells 0` is rejected (omit the
//! flag for unsharded execution).
//! `--cache-mb N` enables the content-hash result cache: repeated
//! `(scheme, query, subject)` pairs — PCR duplicates, resequenced
//! reads — are served from an N-MiB LRU instead of re-running the DP,
//! with `cache.hits`/`cache.misses` reported in the summary. The
//! execution summary (per-backend GCUPS, utilization, fallbacks and
//! backend counters such as the SIMD traceback's band telemetry) goes
//! to stderr. With `--alignments` (alias `--align`), short-read
//! global batches stay on the SIMD lanes end to end: scores and
//! CIGARs come from the banded lane-packed traceback.
//!
//! Observability (any of these switches it on for the run):
//! `--metrics [PATH]` exposes the dispatch's metrics registry in
//! Prometheus text format (stage-duration histograms per stage and
//! backend, batch counters, per-shard cache gauges) — to stderr, or
//! to PATH if given; `--trace-out PATH` writes the batch's stage spans
//! as a Chrome-trace JSON (load in `chrome://tracing` / Perfetto, one
//! lane per worker); `--stats-json [PATH]` dumps the run's
//! `BatchStats` as a stable-keyed JSON object.
//!
//! `serve` runs the `anyseq-serve` daemon on a unix socket: concurrent
//! client requests are coalesced into engine batches by a
//! micro-batching window that waits only while some connection is
//! mid-frame (flushed the moment none is, at `--target-pairs` pairs or
//! `--batch-mb` MiB, or after `--window-ms` — the cap on waiting for a
//! frame that has started arriving, not a delay every request pays)
//! behind a queued-bytes admission gate (`--queue-mb`; overflow gets a
//! typed `Overloaded` refusal). Flags left out keep
//! `ServeConfig::default()`'s values —
//! the configuration an in-process daemon runs. One engine dispatch,
//! result cache and metrics registry are shared across all
//! connections; the wire protocol's `STATS` verb
//! scrapes the Prometheus exposition. Every admitted request is traced
//! through `decode → window_wait → queue_wait → dispatch →
//! kernel_share → reply_write`; requests slower than `--slow-ms`
//! (default 100) land in a bounded slow-request log.
//!
//! `serve-ctl` is the companion inspector for a running daemon:
//! `--stats` scrapes the Prometheus exposition, `--health` returns a
//! JSON health document (queue depth, sessions mid-send, window
//! occupancy, slow-request log), and `--dump` pulls the flight recorder
//! as Chrome-trace JSON (last 256 requests / 64 batches) — write it to
//! a file with `--out`
//! and load it in `chrome://tracing` or Perfetto.

use anyseq_engine::{
    with_scheme, BackendId, BatchCfg, BatchScheduler, Dispatch, DispatchPolicy, EngineError,
    GapSpec, KindSpec, Policy, SchemeSpec,
};
use anyseq_seq::fasta;
use anyseq_seq::genome::GenomeSim;
use anyseq_seq::{BatchView, Seq, SeqId, SeqStore};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  anyseq align --query FILE --subject FILE\n\
         \x20              [--type global|local|semiglobal|free-end]\n\
         \x20              [--match N] [--mismatch N] [--gap N | --open N --extend N]\n\
         \x20              [--score-only] [--threads N]\n\
         \x20 anyseq batch (--pairs FILE | --query FILE --subject FILE | --simulate N)\n\
         \x20              [--type KIND] [--match N] [--mismatch N]\n\
         \x20              [--gap N | --open N --extend N]\n\
         \x20              [--backend auto|scalar|simd|wavefront]\n\
         \x20              [--xdrop X] [--shard-cells CELLS] [--cache-mb N]\n\
         \x20              [--threads N] [--alignments] [--seed N] [--quiet]\n\
         \x20              [--metrics [PATH]] [--trace-out PATH] [--stats-json [PATH]]\n\
         \x20 anyseq simulate --length N [--gc F] [--seed N]\n\
         \x20 anyseq serve --socket PATH [--window-ms N] [--target-pairs N]\n\
         \x20              [--batch-mb N] [--queue-mb N] [--max-frame-mb N]\n\
         \x20              [--backend NAME] [--xdrop X] [--shard-cells CELLS]\n\
         \x20              [--cache-mb N] [--threads N] [--slow-ms N]\n\
         \x20 anyseq serve-ctl --socket PATH (--stats | --health | --dump)\n\
         \x20              [--out PATH]"
    );
    exit(2)
}

/// Prints `msg` above the usage text and exits 2.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    usage()
}

// Each subcommand's flags, space-separated; `batch` and `serve` add
// `POLICY_FLAGS`, which `dispatch_policy` reads for both.
const ALIGN_FLAGS: &str = "query subject type match mismatch gap open extend score-only threads";
const BATCH_FLAGS: &str = "pairs query subject simulate type match mismatch gap open extend \
                           threads alignments align seed quiet metrics trace-out stats-json";
const SIMULATE_FLAGS: &str = "length gc seed";
const SERVE_FLAGS: &str =
    "socket window-ms target-pairs batch-mb queue-mb max-frame-mb threads slow-ms";
const SERVE_CTL_FLAGS: &str = "socket stats health dump out";
const POLICY_FLAGS: &str = "backend xdrop shard-cells cache-mb";

/// Parses `--key [value]` arguments against the subcommand's own flag
/// lists: a flag outside them is an error naming it, so a typo cannot
/// silently run with the default.
fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut k = 0;
    while k < args.len() {
        let Some(key) = args[k].strip_prefix("--") else {
            return Err(format!("unexpected argument {}", args[k]));
        };
        if !known.iter().any(|list| list.split(' ').any(|f| f == key)) {
            return Err(format!("unknown flag --{key}"));
        }
        if k + 1 < args.len() && !args[k + 1].starts_with("--") {
            map.insert(key.to_string(), args[k + 1].clone());
            k += 2;
        } else {
            map.insert(key.to_string(), "true".to_string());
            k += 1;
        }
    }
    Ok(map)
}

fn load_first_record(path: &str) -> Seq {
    match load_records(path).into_iter().next() {
        Some(r) => r.seq,
        None => {
            eprintln!("{path} contains no FASTA records");
            exit(1)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Each subcommand with the flag lists it knows.
    type Cmd = fn(HashMap<String, String>);
    let (cmd, known): (Cmd, &[&str]) = match args.first().map(String::as_str) {
        Some("align") => (cmd_align, &[ALIGN_FLAGS]),
        Some("batch") => (cmd_batch, &[BATCH_FLAGS, POLICY_FLAGS]),
        Some("simulate") => (cmd_simulate, &[SIMULATE_FLAGS]),
        Some("serve") => (cmd_serve, &[SERVE_FLAGS, POLICY_FLAGS]),
        Some("serve-ctl") => (cmd_serve_ctl, &[SERVE_CTL_FLAGS]),
        _ => usage(),
    };
    cmd(parse_flags(&args[1..], known).unwrap_or_else(|e| fail(&e)));
}

fn load_records(path: &str) -> Vec<fasta::Record> {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1)
    });
    fasta::read_fasta(file).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1)
    })
}

/// A flag's parsed value: absent ⇒ `None`, present but malformed ⇒ an
/// error (never silently substitute a default).
fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{key}: invalid value {v:?}"))
        })
        .transpose()
}

/// [`flag`], with a malformed value answered by error + usage.
fn given<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T> {
    flag(flags, key).unwrap_or_else(|e| fail(&e))
}

/// Numeric flag with a default for when it is absent.
fn numeric_flag<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    given(flags, key).unwrap_or(default)
}

/// Applies the `POLICY_FLAGS` that were given on top of `base` — the
/// subcommand's own defaults — so `batch` and `serve` cannot read the
/// same flag differently. "Off" is expressed by omitting a flag: an
/// explicit `--xdrop 0` (would retire every lane at the first row
/// below its running best and corrupt essentially every score) or
/// `--shard-cells 0` is refused instead of silently clamped.
fn dispatch_policy(
    flags: &HashMap<String, String>,
    mut base: DispatchPolicy,
) -> Result<DispatchPolicy, String> {
    match flags.get("backend").map(String::as_str) {
        None => {}
        Some("auto") => base.policy = Policy::Auto,
        Some(name) => {
            let id = BackendId::parse(name).ok_or_else(|| format!("unknown backend {name}"))?;
            base.policy = Policy::Fixed(id);
        }
    }
    if let Some(xdrop) = flag::<i32>(flags, "xdrop")? {
        if xdrop < 1 {
            return Err("--xdrop: must be >= 1 (omit the flag for the exact path)".into());
        }
        base = base.xdrop(xdrop);
    }
    if let Some(cells) = flag::<u64>(flags, "shard-cells")? {
        if cells == 0 {
            return Err(
                "--shard-cells: must be >= 1 DP cells (omit the flag for unsharded execution)"
                    .into(),
            );
        }
        base = base.shard_cells(cells);
    }
    if let Some(mb) = flag(flags, "cache-mb")? {
        base = base.cache_mb(mb);
    }
    Ok(base)
}

/// Pushes one sequence into the arena, turning a full store (`u32` id
/// space exhausted) into a clean CLI error instead of a panic.
fn store_push(store: &mut SeqStore, seq: &Seq) -> SeqId {
    store.push(seq).unwrap_or_else(|e| {
        eprintln!("cannot ingest sequence: {e}");
        exit(1)
    })
}

/// Assembles the batch input into a `SeqStore` arena (the single
/// ingest copy — dispatch below is zero-copy): an interleaved pair
/// file, two matched files, or a simulated read set.
fn batch_store(flags: &HashMap<String, String>) -> (SeqStore, Vec<(SeqId, SeqId)>) {
    let seed: u64 = numeric_flag(flags, "seed", 42);
    let mut store = SeqStore::new();
    let mut ids: Vec<(SeqId, SeqId)> = Vec::new();
    if let Some(path) = flags.get("pairs") {
        let records = load_records(path);
        if !records.len().is_multiple_of(2) {
            eprintln!(
                "{path}: --pairs expects interleaved query/subject records, got an odd count ({})",
                records.len()
            );
            exit(1);
        }
        let mut records = records.into_iter();
        while let (Some(q), Some(s)) = (records.next(), records.next()) {
            ids.push((
                store_push(&mut store, &q.seq),
                store_push(&mut store, &s.seq),
            ));
        }
    } else if let (Some(qp), Some(sp)) = (flags.get("query"), flags.get("subject")) {
        let queries = load_records(qp);
        let subjects = load_records(sp);
        if queries.len() != subjects.len() {
            eprintln!(
                "record count mismatch: {qp} has {}, {sp} has {}",
                queries.len(),
                subjects.len()
            );
            exit(1);
        }
        for (q, s) in queries.into_iter().zip(subjects) {
            ids.push((
                store_push(&mut store, &q.seq),
                store_push(&mut store, &s.seq),
            ));
        }
    } else if flags.contains_key("simulate") {
        let count: usize = numeric_flag(flags, "simulate", 0);
        let reference = GenomeSim::new(seed).generate(2_000_000.min(count.max(1) * 400));
        let mut sim = anyseq_seq::readsim::ReadSim::new(
            anyseq_seq::readsim::ReadSimProfile::default(),
            seed ^ 0x5eed,
        );
        for p in sim.simulate_pairs(&reference, count) {
            ids.push((store_push(&mut store, &p.a), store_push(&mut store, &p.b)));
        }
    } else {
        usage()
    }
    (store, ids)
}

/// The scheme the scoring flags (`--type`, `--match`, `--mismatch`,
/// `--gap` | `--open`/`--extend`) describe — one reading for `align`
/// and `batch`, so the two agree on scores whatever is given. A
/// positive gap score is refused here, naming its flag, instead of
/// tripping the scoring constructors' asserts mid-run.
fn scheme_spec(flags: &HashMap<String, String>) -> Result<SchemeSpec, String> {
    let gap = if flags.contains_key("gap") {
        GapSpec::Linear {
            gap: numeric_flag(flags, "gap", -1),
        }
    } else {
        GapSpec::Affine {
            open: numeric_flag(flags, "open", -2),
            extend: numeric_flag(flags, "extend", -1),
        }
    };
    let kind = match flags.get("type") {
        None => KindSpec::Global,
        Some(t) => KindSpec::parse(t).unwrap_or_else(|| {
            eprintln!("unknown alignment type {t}");
            usage()
        }),
    };
    let spec = SchemeSpec {
        kind,
        match_score: numeric_flag(flags, "match", 2),
        mismatch: numeric_flag(flags, "mismatch", -1),
        gap,
    };
    match spec.validate() {
        Ok(()) => Ok(spec),
        Err(e) => Err(format!("--{}: must be <= 0, got {}", e.field, e.value)),
    }
}

fn cmd_batch(flags: HashMap<String, String>) {
    let spec = scheme_spec(&flags).unwrap_or_else(|e| fail(&e));
    let (store, ids) = batch_store(&flags);
    let view = store.view(&ids);
    let threads: usize = numeric_flag(&flags, "threads", BatchCfg::default().threads);
    // Any observability sink switches the span/metrics layer on; with
    // none requested the instrumented pipeline stays a no-op.
    let observe = ["metrics", "trace-out", "stats-json"]
        .iter()
        .any(|k| flags.contains_key(*k));
    let dispatch = dispatch_policy(&flags, DispatchPolicy::auto().observe(observe))
        .unwrap_or_else(|e| fail(&e))
        .standard();
    let scheduler = BatchScheduler::new(BatchCfg::threads(threads));

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    use std::io::Write;
    // A failed stdout write means the consumer went away (e.g.
    // `| head`): exit quietly, not with a panic.
    let mut emit = |line: std::fmt::Arguments<'_>| {
        if out.write_fmt(line).and_then(|()| writeln!(out)).is_err() {
            exit(0);
        }
    };
    // A terminal engine refusal (e.g. `UnitTooLarge` from a backend
    // with a hard per-unit bound) becomes a clean CLI error, not a
    // panic: the message already says which knob to turn.
    let refused = |e: EngineError| -> ! {
        eprintln!("batch failed: {e}");
        exit(1)
    };
    let stats = if flags.contains_key("align") || flags.contains_key("alignments") {
        let run = scheduler
            .try_align_batch(&dispatch, &spec, &view)
            .unwrap_or_else(|e| refused(e));
        for (k, aln) in run.results.iter().enumerate() {
            emit(format_args!("{k}\t{}\t{}", aln.score, aln.cigar()));
        }
        run.stats
    } else {
        let run = scheduler
            .try_score_batch(&dispatch, &spec, &view)
            .unwrap_or_else(|e| refused(e));
        for (k, score) in run.results.iter().enumerate() {
            emit(format_args!("{k}\t{score}"));
        }
        run.stats
    };
    if out.flush().is_err() {
        exit(0);
    }
    if !flags.contains_key("quiet") {
        // The one summary renderer the bench binaries share too.
        eprintln!(
            "{}",
            anyseq_engine::summary_with_utilization(&stats, threads)
        );
    }
    if let Some(dest) = flags.get("stats-json") {
        emit_report(dest, &anyseq_engine::stats_json(&stats, threads));
    }
    if let Some(path) = flags.get("trace-out") {
        if path == "true" {
            eprintln!("--trace-out needs a file path (trace JSON does not mix with the summary)");
            usage()
        }
        write_file(path, &anyseq_obs::chrome_trace(&stats.spans));
    }
    if let Some(dest) = flags.get("metrics") {
        let snapshot = dispatch
            .metrics_snapshot()
            .expect("--metrics enables the dispatch registry");
        emit_report(dest, &anyseq_obs::prometheus_text(&snapshot));
    }
}

/// Writes a report either to stderr (bare flag) or to a file (flag
/// with a PATH value).
fn emit_report(dest: &str, text: &str) {
    if dest == "true" {
        eprint!("{text}");
    } else {
        write_file(dest, text);
    }
}

fn write_file(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {path}: {e}");
        exit(1)
    }
}

fn cmd_simulate(flags: HashMap<String, String>) {
    let length: usize = flags
        .get("length")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage());
    let gc: f64 = numeric_flag(&flags, "gc", 0.41);
    let seed: u64 = numeric_flag(&flags, "seed", 42);
    let genome = GenomeSim::new(seed).with_gc(gc).generate(length);
    let record = fasta::Record {
        id: format!("synthetic_{length}bp_seed{seed}"),
        description: format!("gc={gc}"),
        seq: genome,
        quality: None,
    };
    fasta::write_fasta(std::io::stdout().lock(), &[record], 70).expect("stdout write");
}

fn cmd_serve(flags: HashMap<String, String>) {
    let socket = flags.get("socket").unwrap_or_else(|| usage());

    // The daemon's own defaults — what an in-process `Server::start`
    // with `ServeConfig::default()` runs — with only the given flags
    // laid over them, so the two cannot drift apart.
    let mut cfg = anyseq_serve::ServeConfig::default();
    let window = &mut cfg.window;
    if let Some(ms) = given::<u64>(&flags, "window-ms") {
        window.max_delay_ns = ms * 1_000_000;
    }
    window.target_pairs = numeric_flag(&flags, "target-pairs", window.target_pairs);
    if let Some(mb) = given::<u64>(&flags, "batch-mb") {
        window.max_batch_bytes = mb * (1 << 20);
    }
    if let Some(mb) = given::<u64>(&flags, "queue-mb") {
        window.queue_budget_bytes = mb * (1 << 20);
    }
    if let Some(mb) = given::<usize>(&flags, "max-frame-mb") {
        cfg.max_frame_bytes = mb * (1 << 20);
    }
    cfg.threads = numeric_flag(&flags, "threads", cfg.threads);
    cfg.slow_ms = numeric_flag(&flags, "slow-ms", cfg.slow_ms);
    cfg.policy = dispatch_policy(&flags, cfg.policy).unwrap_or_else(|e| fail(&e));
    let clock = std::sync::Arc::new(anyseq_serve::SystemClock::new());
    let handle = anyseq_serve::Server::start(socket, cfg, clock).unwrap_or_else(|e| {
        eprintln!("cannot start daemon on {socket}: {e}");
        exit(1)
    });
    eprintln!("anyseq serve: listening on {socket}");
    // Parks until the accept loop exits (i.e. the process is killed;
    // the socket file is cleaned up by the next daemon's bind).
    handle.wait();
}

fn cmd_serve_ctl(flags: HashMap<String, String>) {
    let socket = flags.get("socket").unwrap_or_else(|| usage());
    let mut client = anyseq_serve::ServeClient::connect(socket).unwrap_or_else(|e| {
        eprintln!("cannot connect to {socket}: {e}");
        exit(1)
    });
    // Exactly one verb per invocation: stats (Prometheus exposition),
    // health (JSON incl. the slow-request log), dump (flight-recorder
    // Chrome trace — load in chrome://tracing / Perfetto).
    let verbs = ["stats", "health", "dump"];
    let picked: Vec<&str> = verbs
        .iter()
        .copied()
        .filter(|v| flags.contains_key(*v))
        .collect();
    let text = match picked.as_slice() {
        ["stats"] => client.stats(),
        ["health"] => client.health(),
        ["dump"] => client.dump_flight(),
        _ => {
            eprintln!("serve-ctl: pass exactly one of --stats, --health, --dump");
            usage()
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("serve-ctl: request failed: {e}");
        exit(1)
    });
    match flags.get("out") {
        Some(path) => std::fs::write(path, &text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        }),
        None => print!("{text}"),
    }
}

/// `align` is a one-pair batch: the same scheme reading, dispatch
/// policy and engine path as `batch`, with a per-pair report.
fn cmd_align(flags: HashMap<String, String>) {
    let spec = scheme_spec(&flags).unwrap_or_else(|e| fail(&e));
    let q = load_first_record(flags.get("query").unwrap_or_else(|| usage()));
    let s = load_first_record(flags.get("subject").unwrap_or_else(|| usage()));
    let pair = [(q, s)];
    let dispatch = dispatch_policy(&flags, DispatchPolicy::auto())
        .unwrap_or_else(|e| fail(&e))
        .standard();
    let threads: usize = numeric_flag(&flags, "threads", BatchCfg::default().threads);
    let score_only = flags.contains_key("score-only");
    match align_report(&dispatch, &spec, &pair, score_only, threads) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("align failed: {e}");
            exit(1)
        }
    }
}

/// What `anyseq align` prints for `pair` (one query, one subject).
fn align_report(
    dispatch: &Dispatch,
    spec: &SchemeSpec,
    pair: &[(Seq, Seq); 1],
    score_only: bool,
    threads: usize,
) -> Result<String, EngineError> {
    let view = BatchView::from_pairs(pair);
    let scheduler = BatchScheduler::new(BatchCfg::threads(threads));
    if score_only {
        let run = scheduler.try_score_batch(dispatch, spec, &view)?;
        return Ok(format!("score: {}\n", run.results[0]));
    }
    let run = scheduler.try_align_batch(dispatch, spec, &view)?;
    let (aln, (q, s)) = (&run.results[0], &pair[0]);
    with_scheme!(spec, |scheme, K| {
        aln.validate::<K, _, _>(q, s, scheme.gap(), scheme.subst())
            .expect("internal consistency")
    });
    let mut out = String::new();
    let _ = writeln!(out, "score: {}", aln.score);
    let _ = writeln!(
        out,
        "region: query {}..{} subject {}..{}",
        aln.q_start, aln.q_end, aln.s_start, aln.s_end
    );
    let _ = writeln!(out, "cigar: {}", aln.cigar());
    let _ = writeln!(out, "identity: {:.2}%", 100.0 * aln.identity());
    let (qa, mid, sa) = aln.render(q, s);
    for chunk_start in (0..qa.len()).step_by(80) {
        let end = (chunk_start + 80).min(qa.len());
        let _ = writeln!(out, "Q {}", String::from_utf8_lossy(&qa[chunk_start..end]));
        let _ = writeln!(out, "  {}", String::from_utf8_lossy(&mid[chunk_start..end]));
        let _ = writeln!(out, "S {}", String::from_utf8_lossy(&sa[chunk_start..end]));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str], known: &[&str]) -> Result<HashMap<String, String>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_flags(&args, known)
    }

    #[test]
    fn batch_and_serve_read_the_policy_flags_alike() {
        let serve_default = anyseq_serve::ServeConfig::default().policy;
        let given = ["--backend", "simd", "--xdrop", "20", "--shard-cells", "1"];
        let given = flags(&given, &[POLICY_FLAGS]).unwrap();
        let batch = dispatch_policy(&given, DispatchPolicy::auto()).unwrap();
        assert_eq!(
            batch,
            DispatchPolicy::fixed(BackendId::Simd)
                .xdrop(20)
                .shard_cells(1)
        );
        // Same flags on the daemon: the same policy, except that it
        // keeps observing and keeps its own cache default…
        let serve = dispatch_policy(&given, serve_default).unwrap();
        assert_eq!(serve, batch.observe(true).cache_mb(32));
        // …until --cache-mb says otherwise.
        let cache = flags(&["--cache-mb", "8"], &[POLICY_FLAGS]).unwrap();
        assert_eq!(
            dispatch_policy(&cache, serve_default).unwrap(),
            dispatch_policy(&cache, DispatchPolicy::auto())
                .unwrap()
                .observe(true)
        );
        // No flags: each subcommand's defaults, untouched.
        let none = HashMap::new();
        assert_eq!(dispatch_policy(&none, serve_default), Ok(serve_default));
        let auto = flags(&["--backend", "auto"], &[POLICY_FLAGS]).unwrap();
        assert_eq!(
            dispatch_policy(&auto, DispatchPolicy::fixed(BackendId::Scalar)),
            Ok(DispatchPolicy::auto())
        );
    }

    #[test]
    fn align_and_batch_read_the_scheme_flags_alike_and_print_the_same_score() {
        for (given, want) in [
            (&[][..], SchemeSpec::global_affine(2, -1, -2, -1)),
            (
                &["--gap", "-3", "--match", "1"],
                SchemeSpec::global_linear(1, -1, -3),
            ),
            (
                &["--open", "-4", "--type", "free-end", "--mismatch", "-2"],
                SchemeSpec::global_affine(2, -2, -4, -1).with_kind(KindSpec::FreeEnd),
            ),
        ] {
            let align = flags(given, &[ALIGN_FLAGS]).unwrap();
            let batch = flags(given, &[BATCH_FLAGS, POLICY_FLAGS]).unwrap();
            assert_eq!(scheme_spec(&align), Ok(want));
            assert_eq!(scheme_spec(&batch), Ok(want));

            // What `batch` prints per pair is the scheduler's score.
            let pair = [(
                Seq::from_ascii(b"ACGTTGCATTACGGA").unwrap(),
                Seq::from_ascii(b"ACGTGCATTTACGA").unwrap(),
            )];
            let dispatch = DispatchPolicy::auto().standard();
            let batch_score = BatchScheduler::new(BatchCfg::threads(1))
                .try_score_batch(&dispatch, &want, &BatchView::from_pairs(&pair))
                .unwrap()
                .results[0];
            let score_line = format!("score: {batch_score}\n");
            assert_eq!(
                align_report(&dispatch, &want, &pair, true, 1).unwrap(),
                score_line
            );
            let full = align_report(&dispatch, &want, &pair, false, 1).unwrap();
            assert!(full.starts_with(&score_line), "{full}");
            assert!(
                full.contains("\ncigar: ") && full.contains("\nQ "),
                "{full}"
            );
        }
    }

    #[test]
    fn unknown_flags_backends_and_degenerate_values_are_refused() {
        let batch = [BATCH_FLAGS, POLICY_FLAGS];
        assert!(flags(&["--simulate", "8", "--cache-mb", "8", "--quiet"], &batch).is_ok());
        for typo in ["--cach-mb", "--crossover", "--window-ms"] {
            let err = flags(&["--simulate", "8", typo, "8"], &batch).unwrap_err();
            assert_eq!(err, format!("unknown flag {typo}"));
        }
        assert!(flags(&["--window-ms", "5"], &[SERVE_FLAGS, POLICY_FLAGS]).is_ok());
        assert!(flags(&["stray"], &batch).is_err());

        let policy = |args: &[&str]| {
            dispatch_policy(
                &flags(args, &[POLICY_FLAGS]).unwrap(),
                DispatchPolicy::auto(),
            )
        };
        assert_eq!(
            policy(&["--backend", "gpu-sim"]),
            Err("unknown backend gpu-sim".to_string())
        );
        for bad in [
            ["--xdrop", "0"],
            ["--shard-cells", "0"],
            ["--cache-mb", "lots"],
        ] {
            let err = policy(&bad).unwrap_err();
            assert!(err.starts_with(bad[0]), "{err}");
        }
        // A gap score the kernels would assert on names its flag.
        for bad in [["--gap", "1"], ["--open", "3"], ["--extend", "2"]] {
            let err = scheme_spec(&flags(&bad, &[ALIGN_FLAGS]).unwrap()).unwrap_err();
            assert!(err.starts_with(bad[0]), "{err}");
        }
    }
}
