//! The five workloads. An untraced run measures the end-to-end metrics;
//! a traced run measures the per-layer metrics of every layer on the
//! workload's own inputs, plus the cost of tracing itself.

use crate::inputs::{self, Instance, Rng, Zipf};
use crate::library::{self, Answer, Layers, Rounds};
use crate::oracle;
use crate::report::{affinity, mean, quantile, Measured, Metrics, Spans, Tally};
use crate::serve::{self, Client, Closed, Open, ServerSnap, Template};
use presburger::counting::Symbolic;
use presburger::serve::Request;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperCold,
    SplinterCold,
    ServeHotText,
    ServeHotBinary,
    ServeCold,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperCold,
        Workload::SplinterCold,
        Workload::ServeHotText,
        Workload::ServeHotBinary,
        Workload::ServeCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper-cold",
            Workload::SplinterCold => "splinter-cold",
            Workload::ServeHotText => "serve-hot-text",
            Workload::ServeHotBinary => "serve-hot-binary",
            Workload::ServeCold => "serve-cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `serve-cold`'s arrival rate in requests per second, calibrated once
/// and frozen (README, "Calibration"): the server's CPU is 30–45% busy
/// (rate × mean service time). Busier, the queue amplified the host's
/// own slowdowns into median-latency swings of 34–84% between runs.
pub const COLD_RATE: f64 = 150.0;

/// Seed offset for the request order, so it is independent of the
/// instance draws.
const ORDER_STREAM: u64 = 0x0bad_5eed;
/// Trace ids of the probes, clear of the timed loop's ids.
const PROBE_TRACE: u64 = 1 << 40;
const CODEC_TRACE: u64 = 1 << 41;
/// Formulas the per-layer probes of a serving workload meter.
const PROBE_QUERIES: usize = 32;
/// Request templates the codec probe times.
const CODEC_TEMPLATES: usize = 64;

/// One run's settings.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Smaller pools and probes, for the test suite.
    pub smoke: bool,
    pub trace_dir: PathBuf,
}

impl Run {
    fn stem(&self) -> String {
        format!("{}-seed{}", self.workload.name(), self.seed)
    }

    /// Where a traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        self.trace_dir.join(format!("{}.jsonl", self.stem()))
    }

    /// Where a traced pool writes its per-request event log.
    fn events_path(&self) -> PathBuf {
        self.trace_dir.join(format!("{}.events.jsonl", self.stem()))
    }

    fn codec_budget(&self) -> Duration {
        Duration::from_millis(if self.smoke { 2 } else { 20 })
    }

    /// Set-up probes run before the timed phase and as many again after
    /// it. Back to back, one probe's time varies by 6–10% (quartile
    /// distance over median) from process to process, but a slow stretch
    /// of the host can cover all of them: the median of fifteen consecutive
    /// probes moved by up to 50% from run to run. Split around the timed
    /// phase, the probes sample two moments of the host.
    fn setup_probes_each_side(&self) -> usize {
        if self.smoke {
            1
        } else {
            8
        }
    }
}

/// What a run measured and checked.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub spans: Spans,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
}

pub fn run(r: &Run) -> Result<Outcome, String> {
    let mut out = Outcome {
        tally: Tally::default(),
        metrics: Metrics::default(),
        spans: Spans::new(),
        notes: Vec::new(),
    };
    let probes = if r.traced {
        std::fs::create_dir_all(&r.trace_dir)
            .map_err(|e| format!("creating {}: {e}", r.trace_dir.display()))?;
        0
    } else {
        r.setup_probes_each_side()
    };
    // The hot workloads pin the process to one CPU; the probes after them
    // still take turns on every CPU the run started with.
    let cpus = affinity::allowed()?;
    let mut setup = Vec::new();
    setup_times(r.workload, r.seed, &cpus, probes, &mut setup)?;
    match r.workload {
        Workload::PaperCold | Workload::SplinterCold => library_workload(r, &mut out)?,
        Workload::ServeHotText | Workload::ServeHotBinary => hot_workload(r, &mut out)?,
        Workload::ServeCold => cold_workload(r, &mut out)?,
    }
    setup_times(r.workload, r.seed, &cpus, probes, &mut setup)?;
    if !setup.is_empty() {
        out.metrics.set("setup_s", quantile(&setup, 0.5));
    }
    Ok(out)
}

/// Windows of a measured phase (see `report::Measured`): at least this
/// long, and for request streams at least [`STREAM_WINDOW_OPS`] requests.
/// Round loops cut only between rounds, so their windows hold whole
/// rounds; the open loop cuts after each second's worth of replies.
const WINDOW_S: f64 = 0.5;
const STREAM_WINDOW_OPS: usize = 50;

/// Tracing's cost on a serving workload, whose traced phase does the
/// same work as its untraced one: CPU per operation traced over
/// untraced, minus one. (CPU, not throughput, so it also shows on the
/// open loop, whose throughput follows the offered rate.)
fn overhead(plain: &Measured, traced: &Measured) -> f64 {
    let per = |m: &Measured| m.cpu_s() / m.ops().max(1) as f64;
    per(traced) / per(plain) - 1.0
}

fn symbolic(a: &Option<Answer>) -> Option<&Symbolic> {
    a.as_ref().map(|a| &a.symbolic)
}

/// Brute-force check of a round loop's answers, folded into `tally`.
fn check_rounds(pool: &[Instance], rounds: Rounds, tally: &mut Tally) {
    let answers: Vec<Option<&Symbolic>> = rounds.answers.iter().map(symbolic).collect();
    let wrong = oracle::check(pool, &answers);
    tally.absorb(rounds.tally);
    tally.mark_wrong(wrong);
}

/// `paper-cold` and `splinter-cold`: a closed loop of cold library
/// queries on one thread.
fn library_workload(r: &Run, out: &mut Outcome) -> Result<(), String> {
    let pool = match r.workload {
        Workload::PaperCold => inputs::paper_cold(r.seed, r.smoke),
        _ => inputs::splinter_cold(r.seed, r.smoke),
    };
    let mut rng = Rng::new(r.seed.wrapping_add(ORDER_STREAM));
    if !r.traced {
        let rounds = library::run_rounds(&pool, r.seconds, &mut rng, library::timed_answer);
        out.metrics.extend(rounds.measured.end_to_end(WINDOW_S, 1));
        check_rounds(&pool, rounds, &mut out.tally);
        return Ok(());
    }

    let half = r.seconds / 2.0;
    let plain = library::run_rounds(&pool, half, &mut rng, library::timed_answer);
    let mut layers = Layers::default();
    let mut trace_id = 0u64;
    let spans = &mut out.spans;
    presburger::trace::enable_counters(true);
    let traced = library::run_rounds(&pool, half, &mut rng, |inst| {
        trace_id += 1;
        let (m, answer) = library::meter(inst, spans, trace_id)?;
        layers.add(&m);
        Ok((m.query_us() / 1e3, answer))
    });
    presburger::trace::enable_counters(false);
    out.metrics.extend(layers.metrics());
    // A traced query also computes a standalone DNF and resets the engine
    // after it. Its latency leaves both out, so mean latency traced over
    // untraced is the cost of the counters alone.
    let untraced_ms = mean(&plain.measured.latencies_ms);
    out.metrics.set(
        "trace.overhead_frac",
        mean(&traced.measured.latencies_ms) / untraced_ms - 1.0,
    );
    let layers_ms = [
        "omega.parse.us",
        "omega.dnf.us",
        "counting.clause_sum.us",
        "polyq.render.us",
    ]
    .iter()
    .filter_map(|name| out.metrics.get(name))
    .sum::<f64>()
        / 1e3;
    out.notes.push(format!(
        "parse + dnf + clause sum + render = {layers_ms:.4} ms against an untraced mean \
         latency of {untraced_ms:.4} ms ({:+.1}%)",
        (layers_ms / untraced_ms - 1.0) * 100.0
    ));

    let payloads: Vec<String> = plain
        .answers
        .iter()
        .map(|a| {
            a.as_ref()
                .map_or_else(String::new, |a| serve::payload(&a.text))
        })
        .collect();
    let (served, tally) = serve::serve_probe(
        &pool,
        &payloads,
        &r.events_path(),
        &mut out.spans,
        PROBE_TRACE,
    )?;
    out.metrics.extend(served);
    out.tally.absorb(tally);
    let templates: Vec<Template> = pool.iter().map(Template::new).collect();
    out.metrics.extend(serve::codec_probe(
        &templates,
        &payloads,
        r.codec_budget(),
        &mut out.spans,
        CODEC_TRACE,
    ));
    check_rounds(&pool, plain, &mut out.tally);
    check_rounds(&pool, traced, &mut out.tally);
    Ok(())
}

/// Connections of the `serve-hot` closed loops. Every text reply stalls
/// ~44 ms (the server writes it in two calls, and Nagle's algorithm
/// holds the second until the client's delayed ACK), so one text
/// connection completes only ~23 requests a second, and the pool's idle
/// timer wakeups would make up nearly all of its CPU per request, and
/// of that metric's run-to-run spread. Thirty-two such
/// connections (within one shard's default queue depth of 64) make the
/// requests' own CPU the larger part. A binary reply does not stall, so
/// one binary connection is a lone caller's round trip.
const HOT_TEXT_CONNECTIONS: usize = 32;
const HOT_BINARY_CONNECTIONS: usize = 1;
/// Requests each measured connection sends before timing: TCP's
/// quick-ack start lets a text connection's first replies escape the
/// stall.
const HOT_WARM_REQUESTS: usize = 4;

/// One `serve-hot` phase on a fresh pool: warm the cache, then the
/// closed loop. With an event log, also the server's counters before
/// and after the loop.
struct HotPhase {
    closed: Closed,
    warm: Tally,
    snaps: Option<(ServerSnap, ServerSnap)>,
}

fn hot_phase(
    binary: bool,
    templates: &[Template],
    payloads: &[String],
    seconds: f64,
    event_log: Option<&Path>,
    pick: &mut dyn FnMut() -> usize,
    spans: Option<&mut Spans>,
) -> Result<HotPhase, String> {
    if let Some(log) = event_log {
        let _ = std::fs::remove_file(log);
    }
    let server = serve::bind(event_log)?;
    let connections = if binary {
        HOT_BINARY_CONNECTIONS
    } else {
        HOT_TEXT_CONNECTIONS
    };
    let mut clients = (0..connections)
        .map(|_| Client::connect(server.addr(), binary))
        .collect::<Result<Vec<_>, _>>()?;
    let mut ctl = [Client::connect(server.addr(), true)?];
    // The cache fills over the binary control connection.
    let mut warm = serve::warm_up(&mut ctl, templates, payloads);
    let w = HOT_WARM_REQUESTS;
    warm.absorb(serve::warm_up(
        &mut clients,
        &templates[..w],
        &payloads[..w],
    ));
    let [ctl] = &mut ctl;
    let traced = event_log.is_some();
    let before = traced.then(|| serve::snapshot(ctl)).transpose()?;
    let closed = serve::closed_loop(&mut clients, seconds, templates, payloads, "h", pick, spans);
    let after = traced.then(|| serve::snapshot(ctl)).transpose()?;
    drop(clients);
    server.shutdown();
    Ok(HotPhase {
        closed,
        warm,
        snaps: before.zip(after),
    })
}

/// `serve-hot-text` and `serve-hot-binary`: closed loops on 32 text
/// connections or one binary connection, Zipf(1.0) over 32 formulas in
/// 3 spellings each, cache warmed first.
fn hot_workload(r: &Run, out: &mut Outcome) -> Result<(), String> {
    // The whole process, server threads included, runs on one CPU. On a
    // 2-vCPU VM a cross-CPU wakeup is costly and its cost moves with the
    // host: spread over both CPUs this loop swung between 12,700 and
    // 24,000 requests/s with thread placement, while on one CPU it holds
    // within a few percent and measures the serving path's own cost. The
    // engine barely runs here, so one CPU is enough.
    match affinity::pin_to_one() {
        Ok(cpu) => out.notes.push(format!("pinned to CPU {cpu}")),
        Err(e) => out.notes.push(format!("running unpinned: {e}")),
    }
    let binary = r.workload == Workload::ServeHotBinary;
    let instances = inputs::serve_hot(r.seed);
    let answers: Vec<Answer> = library::reference_answers(&instances)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let payloads: Vec<String> = answers.iter().map(|a| serve::payload(&a.text)).collect();
    let templates: Vec<Template> = instances.iter().map(Template::new).collect();
    let zipf = Zipf::new(inputs::HOT_FORMULAS);
    let mut rng = Rng::new(r.seed.wrapping_add(ORDER_STREAM));
    let mut pick = || {
        let rank = zipf.draw(&mut rng);
        rank * inputs::HOT_SPELLINGS + rng.below(inputs::HOT_SPELLINGS)
    };
    let answers_sym: Vec<Option<&Symbolic>> = answers.iter().map(|a| Some(&a.symbolic)).collect();
    if !r.traced {
        let p = hot_phase(
            binary, &templates, &payloads, r.seconds, None, &mut pick, None,
        )?;
        out.metrics
            .extend(p.closed.measured.end_to_end(WINDOW_S, STREAM_WINDOW_OPS));
        out.tally.absorb(p.warm);
        out.tally.absorb(p.closed.tally);
        out.tally
            .mark_wrong(oracle::check(&instances, &answers_sym));
        return Ok(());
    }

    let half = r.seconds / 2.0;
    let plain = hot_phase(binary, &templates, &payloads, half, None, &mut pick, None)?;
    let log = r.events_path();
    let traced = hot_phase(
        binary,
        &templates,
        &payloads,
        half,
        Some(&log),
        &mut pick,
        Some(&mut out.spans),
    )?;
    let (before, after) = traced.snaps.ok_or("traced phase took no snapshots")?;
    let events = serve::read_events(&log, "h");
    out.metrics.extend(serve::serve_layers(
        &traced.closed.rtts_us(),
        &events,
        &before,
        &after,
    ));
    out.metrics.set(
        "trace.overhead_frac",
        overhead(&plain.closed.measured, &traced.closed.measured),
    );
    let bases: Vec<&Instance> = instances.iter().step_by(inputs::HOT_SPELLINGS).collect();
    out.metrics
        .extend(library::meter_all(&bases, &mut out.spans, PROBE_TRACE).metrics());
    out.metrics.extend(serve::codec_probe(
        &templates,
        &payloads,
        r.codec_budget(),
        &mut out.spans,
        CODEC_TRACE,
    ));
    for p in [plain, traced] {
        out.tally.absorb(p.warm);
        out.tally.absorb(p.closed.tally);
    }
    out.tally
        .mark_wrong(oracle::check(&instances, &answers_sym));
    Ok(())
}

/// One `serve-cold` phase on a fresh pool with an empty shared memo
/// tier. With an event log, also the server's counters before and after.
///
/// The server gets one CPU and the load generator the other, so the
/// sender keeps its schedule whatever the server does: threads inherit
/// the affinity of the thread that starts them, so the pool is bound
/// while this thread is pinned to the server's CPU.
fn cold_phase(
    reqs: &[Request],
    event_log: Option<&Path>,
) -> Result<(Open, Option<(ServerSnap, ServerSnap)>), String> {
    presburger::trace::memo::clear_shared();
    if let Some(log) = event_log {
        let _ = std::fs::remove_file(log);
    }
    let cpus = affinity::allowed()?;
    let (server_cpu, client_cpu) = (cpus[0], cpus[cpus.len() - 1]);
    affinity::set(&[server_cpu])?;
    let server = serve::bind(event_log);
    affinity::set(&cpus)?;
    let server = server?;
    let mut ctl = match event_log {
        Some(_) => Some(Client::connect(server.addr(), true)?),
        None => None,
    };
    let before = ctl.as_mut().map(serve::snapshot).transpose()?;
    let open = serve::open_loop(server.addr(), reqs, COLD_RATE, client_cpu);
    let after = ctl.as_mut().map(serve::snapshot).transpose()?;
    drop(ctl);
    server.shutdown();
    Ok((open?, before.zip(after)))
}

/// `serve-cold`: an open loop at [`COLD_RATE`] over one binary
/// connection; every request text is unique.
fn cold_workload(r: &Run, out: &mut Outcome) -> Result<(), String> {
    let seconds = if r.traced { r.seconds / 2.0 } else { r.seconds };
    let n = ((COLD_RATE * seconds).round() as usize).max(1);
    let instances = inputs::serve_cold(r.seed, n);
    let templates: Vec<Template> = instances.iter().map(Template::new).collect();
    let ids: Vec<String> = (0..n).map(|k| format!("c{k}")).collect();
    let reqs: Vec<Request> = templates
        .iter()
        .zip(&ids)
        .map(|(t, id)| t.request(id).1)
        .collect();

    let mut phases = Vec::new();
    if r.traced {
        let (plain, _) = cold_phase(&reqs, None)?;
        let log = r.events_path();
        let (traced, snaps) = cold_phase(&reqs, Some(&log))?;
        let (before, after) = snaps.ok_or("traced phase took no snapshots")?;
        let events = serve::read_events(&log, "c");
        out.metrics.extend(serve::serve_layers(
            &traced.rtts_us(),
            &events,
            &before,
            &after,
        ));
        out.metrics.set(
            "trace.overhead_frac",
            overhead(&plain.measured, &traced.measured),
        );
        for (k, &(sent, replied)) in traced.exchanges.iter().enumerate() {
            out.spans
                .record(k as u64, "serve.request", None, sent, replied);
        }
        phases.push(plain);
        phases.push(traced);
    } else {
        let (open, _) = cold_phase(&reqs, None)?;
        out.metrics.extend(open.measured.end_to_end(WINDOW_S, 1));
        let period_ms = 1e3 / COLD_RATE;
        let late_p99 = quantile(&open.late_ms, 0.99);
        out.notes.push(format!(
            "generator lateness p99 {late_p99:.3} ms ({}: limit is 10% of the {period_ms:.3} ms period)",
            if late_p99 <= 0.1 * period_ms { "valid" } else { "INVALID RUN" }
        ));
        phases.push(open);
    }

    // The oracle: the library's answer to every text, computed cold and
    // apart from the memo the server filled, then every reply byte for
    // byte, then brute force.
    let oracle_start = Instant::now();
    let answers: Vec<Option<Answer>> = library::reference_answers(&instances)
        .into_iter()
        .zip(&instances)
        .map(|(a, inst)| {
            a.map_err(|e| eprintln!("perfbench: library failed on {:?}: {e}", inst.body()))
                .ok()
        })
        .collect();
    let payloads: Vec<String> = answers
        .iter()
        .map(|a| {
            a.as_ref()
                .map_or_else(String::new, |a| serve::payload(&a.text))
        })
        .collect();
    for open in &phases {
        for (k, reply) in open.replies.iter().enumerate() {
            out.tally.add(serve::verdict(reply, &ids[k], &payloads[k]));
        }
    }
    let answers_sym: Vec<Option<&Symbolic>> = answers.iter().map(symbolic).collect();
    out.tally
        .mark_wrong(oracle::check(&instances, &answers_sym));
    out.notes.push(format!(
        "oracle: {n} library answers and their brute-force checks in {:.2} s",
        oracle_start.elapsed().as_secs_f64()
    ));

    if r.traced {
        let bases: Vec<&Instance> = instances
            .iter()
            .enumerate()
            .filter(|(k, i)| i.base == *k)
            .map(|(_, i)| i)
            .take(PROBE_QUERIES)
            .collect();
        out.metrics
            .extend(library::meter_all(&bases, &mut out.spans, PROBE_TRACE).metrics());
        let k = CODEC_TEMPLATES.min(n);
        out.metrics.extend(serve::codec_probe(
            &templates[..k],
            &payloads[..k],
            r.codec_budget(),
            &mut out.spans,
            CODEC_TRACE,
        ));
    }
    Ok(())
}

/// The child side of the set-up measurement: seconds from process start
/// (`start`, taken first thing in `main`) until the program is warm. For
/// the library workloads that is one pass over the §1–§6 worked examples
/// (`paper-cold`'s seeded mix, 17 queries) answered cold; for the serving
/// ones, a freshly bound pool that has answered a `PING` on the
/// workload's codec and then the 32 `serve-hot` formulas once each. The
/// answers are checked after the clock stops.
///
/// Time to the first answer alone was ~0.2 ms for a library query and
/// ~0.7 ms for a pool's `PONG`: at that size the host's drift moved the
/// median of 31 probes by up to 30% between runs minutes apart.
pub fn setup_probe(workload: Workload, seed: u64, start: Instant) -> Result<f64, String> {
    // On one CPU, like the hot loops: the pool's start-up is a chain of
    // thread wakeups whose cross-CPU cost moves with the host.
    affinity::pin_to_one()?;
    match workload {
        Workload::PaperCold | Workload::SplinterCold => {
            let pool = inputs::paper_cold(seed, true);
            let answers = pool
                .iter()
                .map(|inst| {
                    library::cold_reset();
                    library::answer(inst)
                })
                .collect::<Result<Vec<_>, _>>()?;
            let elapsed = start.elapsed().as_secs_f64();
            let answers: Vec<Option<&Symbolic>> =
                answers.iter().map(|a| Some(&a.symbolic)).collect();
            match oracle::check(&pool, &answers) {
                0 => Ok(elapsed),
                wrong => Err(format!("{wrong} wrong answers")),
            }
        }
        _ => {
            let formulas: Vec<Instance> = inputs::serve_hot(seed)
                .into_iter()
                .step_by(inputs::HOT_SPELLINGS)
                .collect();
            serve::first_answers(start, workload != Workload::ServeHotText, &formulas)
        }
    }
}

/// Runs [`setup_probe`] in `probes` fresh processes, one after another,
/// each on one of `cpus` in turn, and appends their times to `times`.
///
/// Either vCPU of the shared host can run ~40% slower than the other for
/// minutes, so probes all on one CPU followed that CPU's state; the
/// workloads' own loops migrate, or use both.
fn setup_times(
    workload: Workload,
    seed: u64,
    cpus: &[usize],
    probes: usize,
    times: &mut Vec<f64>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = seed.to_string();
    let mask = affinity::allowed()?;
    for k in 0..probes {
        // A child starts on the CPUs of the thread that spawns it, and
        // the probe pins itself to the lowest of them.
        affinity::set(&[cpus[k % cpus.len()]])?;
        let out = Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                workload.name(),
                "--seed",
                &seed,
            ])
            .output();
        affinity::set(&mask)?;
        let out = out.map_err(|e| format!("set-up probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let t = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s="))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or("set-up probe printed no time")?;
        times.push(t);
    }
    Ok(())
}
