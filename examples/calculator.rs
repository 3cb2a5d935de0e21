//! A miniature "Omega calculator": type a Presburger formula, get the
//! symbolic count of its solutions.
//!
//! ```text
//! cargo run --example calculator -- "count {i, j : 1 <= i <= j <= n}"
//! cargo run --example calculator            # runs the built-in demos
//! cargo run --example calculator -- --stats "count {i : 1 <= i <= n}"
//! cargo run --example calculator -- --trace "count {i : 1 <= i <= n}"
//! ```
//!
//! Query syntax:  `count { v1, v2, … : formula }` — the listed
//! variables are counted; every other name is a symbolic constant.
//!
//! Flags:
//! * `--stats` — print the pipeline counters the query fired
//!   (eliminations, splinters, clause counts, …);
//! * `--trace` — additionally record timing spans and `explain` events
//!   and print them as an indented derivation tree;
//! * `--json` — with `--stats`/`--trace`, emit JSON instead of text;
//! * `--timeout MS` — govern the query with a wall-clock deadline of
//!   `MS` milliseconds;
//! * `--max-splinters N` — govern the query with a cap on §5.2
//!   splinters per clause;
//! * `--degrade=bounds|error` — what a governed query does when it
//!   exhausts a budget: degrade to the paper's §4.6 lower/upper bounds
//!   (the default) or fail with the budget error;
//! * `--metrics` — after all queries, print the request-telemetry
//!   registry (latency / splinter histograms, outcome counters) in
//!   Prometheus text format — the same exposition a `--serve` server
//!   answers the `metrics` verb with;
//! * `--serve` — instead of answering queries from the command line,
//!   run the hardened serving loop over stdin/stdout: one request per
//!   line (`count <id> {vars : formula}`, `ping`, `stats`, `drain`),
//!   one response per line, with admission control, circuit breaking
//!   and graceful drain on EOF (see `presburger_serve`). `--threads N`
//!   sets the worker count (default 1, `0` = one per core) and
//!   `--timeout` the per-request deadline.
//!   A TCP server reached via `--connect` speaks the same protocol —
//!   plus the binary codec below, auto-detected per connection;
//! * `--connect HOST:PORT` — client mode: read request lines from
//!   stdin, forward them to a serving-layer TCP server, print each
//!   reply. By default requests travel as protocol text;
//! * `--binary` — with `--connect`, speak the length-prefixed binary
//!   wire codec (`presburger::serve::wire`) instead of text. Replies
//!   are decoded and printed as their canonical text form, so output
//!   is identical either way — that equality is the codec's contract;
//! * `--batch K` — with `--binary`, pack up to `K` consecutive count /
//!   sum requests into one atomically-admitted batch frame (max 64;
//!   control verbs flush the pending batch first).
//!
//! Environment (the library reads none of these; this binary maps
//! them, and an invalid value exits 2 naming the variable):
//! * `PRESBURGER_FAULT=<site>:<nth>[:panic]` — arm an injected fault
//!   (`Governor::with_fault`): a query runs governed whenever one is
//!   armed, and under `--serve` every request carries it
//!   (`ServeConfig::fault_spec`);
//! * `PRESBURGER_EVENT_LOG=<path>` / `PRESBURGER_EVENT_SAMPLE=<n>` —
//!   under `--serve`, write the JSONL event log, every `n`-th request.

use presburger::prelude::*;
use presburger::serve::{ServeConfig, TelemetrySettings};
use presburger::trace::json::JsonObject;
use presburger::trace::metrics::{
    ReqLane, ReqOutcome, ReqVerb, RequestMetrics, RequestObservation,
};
use presburger_counting::try_count_solutions;
use presburger_omega::parse_formula;
use std::time::{Duration, Instant};

struct Options {
    stats: bool,
    trace: bool,
    json: bool,
    metrics: bool,
    serve: bool,
    connect: Option<String>,
    binary: bool,
    batch: usize,
    /// `--serve` worker count (`--threads`); `0` means one per core.
    workers: usize,
    timeout_ms: Option<u64>,
    max_splinters: Option<u64>,
    degrade: Option<DegradePolicy>,
    /// The `PRESBURGER_FAULT` spec, validated in `main`.
    fault: Option<String>,
}

/// A failed query: a stable machine-readable kind plus human detail.
/// With `--json` it renders as `{"error": {"kind": …, "detail": …}}`.
struct QueryError {
    kind: &'static str,
    detail: String,
}

impl QueryError {
    fn query(detail: impl Into<String>) -> QueryError {
        QueryError {
            kind: "query",
            detail: detail.into(),
        }
    }
}

impl From<&'static str> for QueryError {
    fn from(detail: &'static str) -> QueryError {
        QueryError::query(detail)
    }
}

impl Options {
    /// Any governor flag or an armed fault → run the query governed.
    fn governed(&self) -> bool {
        self.timeout_ms.is_some()
            || self.max_splinters.is_some()
            || self.degrade.is_some()
            || self.fault.is_some()
    }
}

/// Runs one query; the returned outcome class feeds `--metrics`.
fn run_query(query: &str, opts: &Options) -> Result<ReqOutcome, QueryError> {
    let query = query.trim();
    let rest = query
        .strip_prefix("count")
        .ok_or("queries start with 'count'")?
        .trim();
    let inner = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or("expected count { vars : formula }")?;
    let (vars_text, formula_text) = inner
        .split_once(':')
        .ok_or("expected ':' between variables and formula")?;

    let mut space = Space::new();
    let vars: Vec<VarId> = vars_text
        .split(',')
        .map(|name| space.var(name.trim()))
        .collect();
    let f = parse_formula(formula_text, &mut space).map_err(|e| QueryError {
        kind: "parse",
        detail: e.to_string(),
    })?;
    let symbols: Vec<String> = f
        .free_vars()
        .into_iter()
        .filter(|v| !vars.contains(v))
        .map(|v| space.name(v).to_string())
        .collect();

    presburger::reset_stats();
    let count_opts = CountOptions::default();
    println!("> {query}");
    let mut outcome = ReqOutcome::Ok;
    let fmt = |c: Option<i64>| c.map_or_else(|| "?".to_string(), |c| c.to_string());
    if opts.governed() {
        let mut gov = Governor::new(Budgets {
            deadline: opts.timeout_ms.map(Duration::from_millis),
            max_splinters: opts.max_splinters,
            ..Budgets::unlimited()
        })
        .with_degrade(opts.degrade.unwrap_or_default());
        if let Some(spec) = &opts.fault {
            gov = gov
                .with_fault(spec)
                .expect("PRESBURGER_FAULT was validated in main");
        }
        let out = presburger::try_count_solutions_governed(&space, &f, &vars, &count_opts, &gov)
            .map_err(|e| QueryError {
                kind: e.kind(),
                detail: e.to_string(),
            })?;
        match out {
            Outcome::Exact(count) => {
                println!("  = {}", count.to_display_string());
                print_samples(&symbols, &|b| fmt(count.eval_i64(b)));
            }
            Outcome::Bounded {
                lower,
                upper,
                why,
                clauses,
            } => {
                outcome = ReqOutcome::Bounded;
                let degraded = clauses
                    .iter()
                    .filter(|c| !matches!(c, ClauseStatus::Exact))
                    .count();
                println!(
                    "  degraded to §4.6 bounds ({why}; {degraded}/{} clauses)",
                    clauses.len()
                );
                println!("  lower = {}", lower.to_display_string());
                println!("  upper = {}", upper.to_display_string());
                // The §4.6 bounds are rational-valued (the exact count
                // between them is the integer), so render them exactly.
                print_samples(&symbols, &|b| {
                    format!("[{},{}]", lower.eval_rat(b), upper.eval_rat(b))
                });
            }
        }
    } else {
        let count =
            try_count_solutions(&space, &f, &vars, &count_opts).map_err(|e| QueryError {
                kind: e.kind(),
                detail: e.to_string(),
            })?;
        println!("  = {}", count.to_display_string());
        print_samples(&symbols, &|b| fmt(count.eval_i64(b)));
    }
    if opts.trace {
        let tree = presburger::trace::span::take_tree();
        if opts.json {
            println!("{}", tree.to_json());
        } else {
            println!("--- trace ---");
            print!("{}", tree.render());
        }
    }
    if opts.stats {
        let stats = presburger::stats();
        if opts.json {
            println!("{}", stats.to_json());
        } else {
            println!("--- pipeline counters ---");
            print!("{stats}");
        }
    }
    println!();
    Ok(outcome)
}

/// Renders one sample row given the symbol bindings for that row.
type SampleRenderer<'a> = &'a dyn Fn(&[(&str, i64)]) -> String;

/// Tabulates sample values of the first symbol, with every other
/// symbol fixed at 10.
fn print_samples(symbols: &[String], render: SampleRenderer) {
    if symbols.is_empty() {
        return;
    }
    let name = &symbols[0];
    let fixed: Vec<(&str, i64)> = symbols[1..].iter().map(|s| (s.as_str(), 10)).collect();
    print!("  {name} =");
    for v in [0i64, 1, 2, 5, 10, 100] {
        let mut bindings = fixed.clone();
        bindings.push((name.as_str(), v));
        print!("  {v}→{}", render(&bindings));
    }
    if symbols.len() > 1 {
        print!("   (other symbols fixed at 10)");
    }
    println!();
}

/// Client mode (`--connect`): forwards stdin request lines to a
/// serving-layer TCP server and prints each reply. With `--binary` the
/// requests travel as wire frames (batched up to `--batch`), and the
/// decoded replies print byte-identically to what the text codec would
/// have produced.
fn run_client(addr: &str, binary: bool, batch: usize) -> Result<(), String> {
    use presburger::serve::{parse_request, wire, Request, ServeError};
    use std::io::{BufRead, Read, Write};
    use std::net::TcpStream;

    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let stdin = std::io::stdin();

    if !binary {
        // Text codec: copy socket→stdout in a thread, stdin→socket
        // here; half-close on stdin EOF so the server drains.
        let mut write_half = stream.try_clone().map_err(|e| e.to_string())?;
        let printer = std::thread::spawn(move || {
            let mut read_half = stream;
            let mut out = std::io::stdout();
            let mut buf = [0u8; 4096];
            while let Ok(n) = read_half.read(&mut buf) {
                if n == 0 || out.write_all(&buf[..n]).is_err() {
                    break;
                }
                let _ = out.flush();
            }
        });
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            writeln!(write_half, "{line}").map_err(|e| e.to_string())?;
        }
        let _ = write_half.shutdown(std::net::Shutdown::Write);
        let _ = printer.join();
        return Ok(());
    }

    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut client =
        wire::BinClient::handshake(reader, writer).map_err(|e| format!("handshake: {e}"))?;
    let mut pending: Vec<Request> = Vec::new();
    let roundtrip = |client: &mut wire::BinClient<TcpStream, TcpStream>,
                     pending: &mut Vec<Request>|
     -> Result<(), String> {
        if pending.is_empty() {
            return Ok(());
        }
        if pending.len() == 1 {
            client.send(&pending[0]).map_err(|e| e.to_string())?;
        } else {
            client.send_batch(pending).map_err(|e| e.to_string())?;
        }
        pending.clear();
        println!("{}", client.recv().map_err(|e| e.to_string())?.to_text());
        Ok(())
    };
    let mut drained = false;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let req = parse_request(&line).map_err(|e| format!("{line:?}: {e:?}"))?;
        match req {
            Request::Query(_) => {
                pending.push(req);
                if pending.len() >= batch {
                    roundtrip(&mut client, &mut pending)?;
                }
            }
            other => {
                // Control verbs are answered in order but never batched:
                // flush queries first, then round-trip the verb alone.
                roundtrip(&mut client, &mut pending)?;
                let is_drain = matches!(other, Request::Drain);
                pending.push(other);
                roundtrip(&mut client, &mut pending)?;
                if is_drain {
                    drained = true;
                    break;
                }
            }
        }
    }
    roundtrip(&mut client, &mut pending)?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    if !drained {
        // The server drains on EOF; print its parting stats frame(s).
        loop {
            match client.recv() {
                Ok(reply) => println!("{}", reply.to_text()),
                Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.to_string()),
            }
        }
    }
    Ok(())
}

/// An environment variable's value; empty counts as unset.
fn env(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// Parses an environment variable with `parse`, exiting 2 with a
/// message naming the variable when its value is invalid.
fn env_parsed<T, E: std::fmt::Display>(
    name: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Option<T> {
    let value = env(name)?;
    match parse(&value) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("{name}={value:?}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let fault = env_parsed("PRESBURGER_FAULT", |spec| {
        presburger::trace::govern::parse_fault(spec).map(|_| spec.to_string())
    });
    let mut opts = Options {
        stats: false,
        trace: false,
        json: false,
        metrics: false,
        serve: false,
        connect: None,
        binary: false,
        batch: 1,
        workers: 1,
        timeout_ms: None,
        max_splinters: None,
        degrade: None,
        fault,
    };
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = true,
            "--json" => opts.json = true,
            "--metrics" => opts.metrics = true,
            "--serve" => opts.serve = true,
            "--connect" => match args.next() {
                Some(addr) => opts.connect = Some(addr),
                None => {
                    eprintln!("--connect needs a HOST:PORT address");
                    std::process::exit(2);
                }
            },
            "--binary" => opts.binary = true,
            "--batch" => match args.next().as_deref().map(str::parse) {
                Some(Ok(k)) if (1..=presburger::serve::wire::MAX_BATCH).contains(&k) => {
                    opts.batch = k;
                }
                _ => {
                    eprintln!(
                        "--batch needs a size between 1 and {}",
                        presburger::serve::wire::MAX_BATCH
                    );
                    std::process::exit(2);
                }
            },
            "--threads" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => opts.workers = n,
                _ => {
                    eprintln!("--threads needs a --serve worker count (0 = one per core)");
                    std::process::exit(2);
                }
            },
            "--timeout" => match args.next().as_deref().map(str::parse) {
                Some(Ok(ms)) => opts.timeout_ms = Some(ms),
                _ => {
                    eprintln!("--timeout needs a deadline in milliseconds");
                    std::process::exit(2);
                }
            },
            "--max-splinters" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => opts.max_splinters = Some(n),
                _ => {
                    eprintln!("--max-splinters needs a number");
                    std::process::exit(2);
                }
            },
            "--degrade=bounds" => opts.degrade = Some(DegradePolicy::Bounds),
            "--degrade=error" => opts.degrade = Some(DegradePolicy::Error),
            _ => rest.push(arg),
        }
    }
    // --trace implies counters too: the derivation tree and the counter
    // totals describe the same run.
    if opts.trace {
        opts.stats = true;
    }
    // --metrics needs counters on for splinter attribution, but does
    // not print them per query the way --stats does.
    presburger::enable_stats(opts.stats || opts.metrics);
    presburger::trace::enable_tracing(opts.trace);

    if let Some(addr) = &opts.connect {
        if let Err(e) = run_client(addr, opts.binary, opts.batch) {
            eprintln!("client failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    if opts.serve {
        let cfg = ServeConfig {
            workers: match opts.workers {
                0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                n => n,
            },
            default_deadline_ms: opts
                .timeout_ms
                .or(ServeConfig::default().default_deadline_ms),
            fault_spec: opts.fault.clone(),
            telemetry: TelemetrySettings {
                event_log: env("PRESBURGER_EVENT_LOG"),
                event_sample: env_parsed("PRESBURGER_EVENT_SAMPLE", str::parse).unwrap_or(1),
                ..TelemetrySettings::default()
            },
            ..ServeConfig::default()
        };
        match presburger::serve::run_stdio(cfg) {
            Ok(stats) => {
                eprintln!("{stats}");
                return;
            }
            Err(e) => {
                eprintln!("serve failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let queries: Vec<String> = if rest.is_empty() {
        [
            // the paper's running examples, in calculator syntax
            "count {i : 1 <= i <= 10}",
            "count {i, j : 1 <= i <= j <= n}",
            "count {i, j : 1 <= i && 1 <= j <= n && 2i <= 3j}",
            "count {x : exists i, j : 1 <= i <= 8 && 1 <= j <= 5 && x = 6i + 9j - 7}",
            "count {x : 0 <= x <= n && 3 | x + 1}",
            "count {i, j : 1 <= i <= n && i <= j <= m}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    } else {
        vec![rest.join(" ")]
    };
    let metrics = RequestMetrics::new(opts.metrics);
    let mut failed = false;
    for q in &queries {
        let started = Instant::now();
        let result = run_query(q, &opts);
        let outcome = match &result {
            Ok(outcome) => *outcome,
            Err(_) => ReqOutcome::Err,
        };
        metrics.observe_request(RequestObservation {
            verb: ReqVerb::Count,
            outcome,
            lane: ReqLane::Batch,
            duration_us: started.elapsed().as_micros() as u64,
            queue_wait_us: 0,
            govern_overhead_us: 0,
            splinters: opts
                .metrics
                .then(|| presburger::stats().get(presburger::trace::Counter::SplintersGenerated)),
        });
        if let Err(e) = result {
            if opts.json {
                let mut inner = JsonObject::new();
                inner.field_str("kind", e.kind);
                inner.field_str("detail", &e.detail);
                let mut obj = JsonObject::new();
                obj.field_raw("error", &inner.finish());
                println!("{}", obj.finish());
            }
            eprintln!("error in {q:?}: {} ({})", e.detail, e.kind);
            failed = true;
        }
    }
    if opts.metrics {
        println!("--- metrics ---");
        print!("{}", metrics.render_prometheus());
        println!("# EOF");
    }
    if failed {
        std::process::exit(1);
    }
}
