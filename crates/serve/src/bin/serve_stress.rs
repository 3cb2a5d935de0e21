//! serve_stress: the serving layer's protocol-invariant stress harness.
//!
//! Every phase serves through a [`ShardPool`]; the single-server phases
//! use one shard, as `run_stdio` does. Phases (all must pass; the
//! process exits non-zero on any violation):
//!
//! 1. **Replay determinism** — a fixed-seed stream of generated
//!    requests is partitioned across concurrent connections and run at
//!    1 and 4 workers, twice each. Per connection: exactly one response
//!    per request, in request order. Across all four runs: byte-
//!    identical transcripts.
//! 2. **Load shedding** — with workers gated and a tiny queue, excess
//!    requests must shed deterministically with `reason=queue_full`.
//! 3. **Breaker drill** — under an injected worker-panic fault
//!    (`splinters_generated:1:panic`), K splintering requests open the
//!    breaker (degrade-first replies), and after the cooldown a clean
//!    probe closes it again.
//! 4. **Graceful drain** — a drain with queued work answers everything
//!    within the drain deadline; post-drain submissions shed with
//!    `reason=draining`; a zero-deadline drain still loses nothing.
//! 5. **Latency** — sequential round-trip p50/p99 and phase-1
//!    throughput, recorded to `BENCH_serve.json`.
//! 6. **Shard-pool chaos drills** — the supervised [`ShardPool`] at 1,
//!    2 and 4 shards produces transcripts byte-identical to each other
//!    and to the same run with a deterministic `kill` / `wedge` /
//!    `delay` fault armed mid-stream: a killed or wedged shard's
//!    requests are re-dispatched, never lost, never degraded (a
//!    one-shard pool's submissions that race its restart wait for the
//!    replacement); a `delay` never trips the supervisor.
//! 7. **Binary codec** — the same request stream, re-framed as binary
//!    batch frames, decodes to exactly the text transcript's reply
//!    lines at 1, 2 and 4 shards, chaos off and with a kill drill
//!    armed; batched-binary throughput must strictly beat line-by-line
//!    text on a warm cache (framing cost dominates there). Recorded as
//!    the `phase7` object of `BENCH_serve.json` (schema
//!    `serve_bench_v5`).
//! 8. **Admission control** — the deadline-aware admission layer
//!    (DESIGN.md §16): a background flood at 4× queue capacity must
//!    not move the interactive lane's p99 past max(3× its unloaded
//!    value, 20 ms) and must lose zero replies; the eviction drill
//!    answers expired requests with §4.6 bounds at admission and at
//!    pop time; and a `prio=`-optioned request stream replays
//!    byte-identically at 1, 2 and 4 shards, chaos off and under a
//!    kill drill. Recorded as the `phase8` object.
//!
//! Honours `PRESBURGER_FAULT` (parsed once at start, an invalid spec
//! exits non-zero; armed as `fault_spec` on every pool that arms none
//! of its own; phase 1 runs with the breaker disabled so the fault
//! stays per-request-deterministic, and asserts that it fired),
//! `PRESBURGER_CHAOS` (an extra phase-6 drill with the env-armed
//! fault), `PRESBURGER_SERVE_SHARDS` (shard count for that drill),
//! `PRESBURGER_SERVE_CHAOS_ONLY=1` (run phase 6 alone — the
//! `chaos_gate` fast path), `PRESBURGER_SERVE_ADMISSION_ONLY=1` (run
//! phase 8 alone) and `PRESBURGER_SERVE_REQUESTS` /
//! `PRESBURGER_SERVE_CONNS` / `PRESBURGER_SERVE_BENCH_OUT`.

use presburger_counting::Budgets;
use presburger_gen::{
    admission_request_lines, batched_request_lines, request_lines, AdmissionMix, GenConfig,
    GenRequest,
};
use presburger_serve::server::{serve_connection, Gate};
use presburger_serve::{
    routing_hash, wire, Chaos, PoolHandle, Ring, ServeConfig, ShardPool, ShardPoolConfig,
};
use presburger_trace::govern::parse_fault;
use presburger_trace::json::JsonObject;
use presburger_trace::metrics::{AdmitDecision, ReqLane, ReqVerb};
use presburger_trace::shard::ShardRowSnapshot;
use std::io::{Cursor, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// The splinter-heavy workload (the paper's Example 11): ~17 splinters
/// per count, so a `splinters_generated:*` fault always fires on it.
const SPLINTERY: &str = "exists beta : 3beta - alpha >= 0 && -3beta + alpha + 7 >= 0 \
                         && alpha - 2beta - 1 >= 0 && -alpha + 2beta + 5 >= 0";

/// A splinter-free workload: the armed fault can never fire on it, so
/// it doubles as the breaker's recovery probe.
const CLEAN: &str = "1 <= x <= 9";

#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn new() -> SharedBuf {
        SharedBuf(Arc::new(Mutex::new(Vec::new())))
    }

    fn take(&self) -> String {
        let bytes = self.0.lock().unwrap().clone();
        String::from_utf8(bytes).expect("invariant: the protocol emits UTF-8 only")
    }

    fn take_bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Replay-safe default budgets: generated formulas can be intractable
/// exactly (the fuzz harness skips them via a wall-clock deadline), but
/// deadlines are not replayable — count budgets are, because they are
/// charged per clause deterministically. Every request then terminates
/// quickly with a deterministic exact, bounded, or error reply.
fn replay_budgets() -> Budgets {
    Budgets {
        max_splinters: Some(512),
        max_dnf_clauses: Some(256),
        max_depth: Some(64),
        max_pieces: Some(20_000),
        max_coeff_bits: Some(512),
        ..Budgets::unlimited()
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// The chaos armed by `PRESBURGER_CHAOS`, if any. An unparsable spec
/// panics: a drill that silently fails to arm would pass vacuously.
fn chaos_from_env() -> Option<Arc<Chaos>> {
    let spec = std::env::var("PRESBURGER_CHAOS").ok()?;
    if spec.is_empty() {
        return None;
    }
    let chaos = Chaos::parse(&spec).unwrap_or_else(|e| panic!("PRESBURGER_CHAOS: {e}"));
    Some(Arc::new(chaos))
}

/// The `PRESBURGER_FAULT` spec, validated once in `main`.
static ENV_FAULT: OnceLock<Option<String>> = OnceLock::new();

fn env_fault() -> Option<&'static str> {
    ENV_FAULT.get().and_then(Option::as_deref)
}

/// Starts a pool over `cfg`, arming the `PRESBURGER_FAULT` spec on it
/// unless `cfg` arms a fault of its own. Every pool in this harness
/// starts here.
fn start_pool(mut cfg: ShardPoolConfig) -> ShardPool {
    if cfg.shard_cfg.fault_spec.is_none() {
        cfg.shard_cfg.fault_spec = env_fault().map(str::to_string);
    }
    ShardPool::start(cfg)
}

/// A one-shard pool over `cfg`: the serving path every single-server
/// phase drives.
fn one_shard(cfg: ServeConfig) -> ShardPool {
    start_pool(ShardPoolConfig {
        shards: 1,
        shard_cfg: cfg,
        ..ShardPoolConfig::default()
    })
}

/// One counter off a one-shard pool's `STATS` line.
fn stat(handle: &PoolHandle, key: &str) -> u64 {
    let line = handle.stats_line();
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
}

/// Runs `conns` concurrent connections over a fixed round-robin
/// partition of `requests`; returns the per-connection transcripts and
/// the wall time.
fn run_partitioned(
    workers: usize,
    requests: &[GenRequest],
    conns: usize,
) -> (Vec<String>, Duration) {
    let cfg = ServeConfig {
        workers,
        queue_depth: requests.len() + conns,
        default_deadline_ms: None, // wall-clock-free: replayable
        default_budgets: replay_budgets(),
        breaker_failures: 0, // see module docs: the env fault stays per-request
        ..ServeConfig::default()
    };
    let server = one_shard(cfg);
    let started = Instant::now();
    let outputs: Vec<_> = (0..conns).map(|_| SharedBuf::new()).collect();
    thread::scope(|scope| {
        for (c, out) in outputs.iter().enumerate() {
            let handle = server.handle();
            let input: String = requests
                .iter()
                .skip(c)
                .step_by(conns)
                .map(|r| format!("{}\n", r.line))
                .collect();
            let out = out.clone();
            scope.spawn(move || {
                serve_connection(&handle, Cursor::new(input), out, false)
                    .expect("in-memory connection cannot fail");
            });
        }
    });
    let elapsed = started.elapsed();
    server.shutdown();
    (outputs.iter().map(SharedBuf::take).collect(), elapsed)
}

/// Decodes a binary-codec transcript into the flattened text lines its
/// replies stand for. A batch reply contributes one line per *inner*
/// answer (never one per frame), so the text-protocol accounting —
/// [`check_transcript`], [`census`], byte-identity against a text
/// baseline — applies unchanged to either codec.
fn flatten_binary_transcript(bytes: &[u8], label: &str) -> String {
    assert!(
        bytes.len() >= 3 && bytes[..3] == wire::preamble(),
        "{label}: binary transcript does not start with the preamble echo"
    );
    let mut pos = 3;
    let mut lines: Vec<String> = Vec::new();
    while pos < bytes.len() {
        let (reply, used) = wire::Reply::decode(&bytes[pos..])
            .unwrap_or_else(|e| panic!("{label}: undecodable reply frame at byte {pos}: {e:?}"));
        pos += used;
        // `Reply::Batch::to_text` joins inner answers with '\n', so one
        // push flattens the frame into per-answer lines.
        lines.push(reply.to_text());
    }
    lines.join("\n") + "\n"
}

/// Asserts one response per request, in request order, none shed.
/// Reply accounting is per answer *line*: binary transcripts go through
/// [`flatten_binary_transcript`] first, so batched replies count each
/// inner answer exactly once.
fn check_transcript(transcript: &str, expected_ids: &[&str], label: &str) {
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(
        lines.len(),
        expected_ids.len(),
        "{label}: {} responses for {} requests (lost or duplicated)",
        lines.len(),
        expected_ids.len()
    );
    for (line, want) in lines.iter().zip(expected_ids) {
        let mut tok = line.split_whitespace();
        let status = tok.next().unwrap_or("");
        let id = tok.next().unwrap_or("");
        assert!(
            status == "OK" || status == "ERR",
            "{label}: unexpected status line {line:?}"
        );
        assert_eq!(id, *want, "{label}: response out of order: {line:?}");
    }
}

fn phase_replay_determinism(n: usize, conns: usize) -> (usize, Duration) {
    println!("==> phase 1: replay determinism ({n} requests, {conns} connections)");
    let requests = request_lines(0xC0FFEE, n, &GenConfig::default());
    let mut baseline: Option<Vec<String>> = None;
    let mut elapsed = Duration::ZERO;
    for (run, workers) in [(1, 1), (2, 1), (3, 4), (4, 4)] {
        let (transcripts, took) = run_partitioned(workers, &requests, conns);
        for (c, t) in transcripts.iter().enumerate() {
            let ids: Vec<&str> = requests
                .iter()
                .skip(c)
                .step_by(conns)
                .map(|r| r.id.as_str())
                .collect();
            check_transcript(t, &ids, &format!("run {run} (workers={workers}) conn {c}"));
        }
        match &baseline {
            None => {
                baseline = Some(transcripts);
                elapsed = took;
            }
            Some(base) => assert_eq!(
                base, &transcripts,
                "run {run} (workers={workers}): transcript differs from run 1 — replay broken"
            ),
        }
        println!(
            "    run {run}: workers={workers} ok ({} ms)",
            took.as_millis()
        );
    }
    if let Some(spec) = env_fault() {
        // An armed fault that never fires would let a broken mapping
        // pass vacuously. A panic fault answers `ERR … internal`; a
        // trip fault answers bounded or with its error (a weaker check:
        // the replay budgets can trip on their own).
        let panic = parse_fault(spec).expect("validated in main").panic;
        let fired = baseline
            .iter()
            .flatten()
            .flat_map(|t| t.lines())
            .filter(|line| {
                let mut tok = line.split_whitespace();
                match (tok.next(), tok.nth(1)) {
                    (Some("ERR"), Some(kind)) => !panic || kind == "internal",
                    (Some("OK"), Some("bounded")) => !panic,
                    _ => false,
                }
            })
            .count();
        assert!(fired > 0, "PRESBURGER_FAULT={spec} never fired in phase 1");
        println!("    PRESBURGER_FAULT={spec} fired on {fired} replies");
    }
    (n, elapsed)
}

fn phase_shedding() {
    println!("==> phase 2: load shedding under a tiny queue");
    let gate = Gate::new(true);
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 2,
        hold: Some(gate.clone()),
        default_deadline_ms: None,
        ..ServeConfig::default()
    };
    let server = one_shard(cfg);
    let handle = server.handle();
    let slots: Vec<_> = (0..6)
        .map(|i| {
            let line = format!("count s{i} {{x : {CLEAN}}}");
            match presburger_serve::parse_request(&line).unwrap() {
                presburger_serve::Request::Query(q) => handle.submit(q),
                _ => unreachable!(),
            }
        })
        .collect();
    // Workers are gated, so exactly queue_depth requests were admitted
    // and the rest shed — deterministically.
    let mut sheds = 0;
    gate.open();
    for (i, slot) in slots.iter().enumerate() {
        let line = slot.wait().to_text();
        if line.starts_with("SHED ") {
            assert!(
                line.contains("reason=queue_full"),
                "shed {i} with wrong reason: {line}"
            );
            sheds += 1;
        } else {
            assert!(line.starts_with(&format!("OK s{i} ")), "bad reply: {line}");
        }
    }
    assert_eq!(sheds, 4, "expected exactly 4 sheds from a 2-deep queue");
    assert_eq!(stat(&handle, "shed_queue"), 4);
    PHASE2_REQUESTS.store(slots.len() as u64, Ordering::Relaxed);
    let stats = server.shutdown();
    println!("    4/6 shed as required; {stats}");
}

fn submit_line(handle: &PoolHandle, line: &str) -> String {
    match presburger_serve::parse_request(line).unwrap() {
        presburger_serve::Request::Query(q) => handle.submit(q).wait().to_text(),
        _ => unreachable!("stress submits queries only"),
    }
}

fn phase_breaker_drill() {
    println!("==> phase 3: breaker drill (fault splinters_generated:1:panic)");
    let cfg = ServeConfig {
        workers: 1,
        breaker_failures: 3,
        breaker_cooldown_ms: 50,
        default_deadline_ms: None,
        fault_spec: Some("splinters_generated:1:panic".to_string()),
        cache_entries: 0, // every request must hit the engine
        ..ServeConfig::default()
    };
    let server = one_shard(cfg);
    let handle = server.handle();

    // K consecutive worker panics → ERR internal ×3 → breaker opens.
    for i in 0..3 {
        let line = submit_line(&handle, &format!("count b{i} {{alpha : {SPLINTERY}}}"));
        assert!(
            line.starts_with(&format!("ERR b{i} internal ")),
            "fault did not surface as internal: {line}"
        );
    }
    assert_eq!(stat(&handle, "breaker_opens"), 1, "breaker failed to open");

    // Open breaker: the same request now degrades first — answered
    // with §4.6 bounds, without touching the (faulted) exact path.
    let line = submit_line(&handle, &format!("count b3 {{alpha : {SPLINTERY}}}"));
    assert!(
        line.starts_with("OK b3 bounded breaker_open "),
        "open breaker did not degrade-first: {line}"
    );
    assert!(stat(&handle, "degraded_first") >= 1);
    assert!(handle.stats_line().contains("breaker=open"));

    // After the cooldown, a clean request is the half-open probe; the
    // fault cannot fire on it (no splinters), so the breaker closes.
    thread::sleep(Duration::from_millis(60));
    let line = submit_line(&handle, &format!("count p0 {{x : {CLEAN}}}"));
    assert!(
        line.starts_with("OK p0 exact "),
        "probe did not succeed: {line}"
    );
    let stats = handle.stats_line();
    assert!(
        stats.contains("breaker=closed"),
        "breaker did not close after the probe: {stats}"
    );
    // And it stays closed for normal traffic.
    let line = submit_line(&handle, &format!("count p1 {{x : {CLEAN}}}"));
    assert!(line.starts_with("OK p1 exact "), "post-recovery: {line}");
    PHASE3_REQUESTS.store(6, Ordering::Relaxed);
    let stats = server.shutdown();
    println!("    opened after 3 internal errors, recovered via probe; {stats}");
}

fn phase_drain() {
    println!("==> phase 4: graceful drain");
    // The drain invariant is "no admitted request loses its response" —
    // with an env fault armed, splintery requests legitimately answer
    // ERR internal instead of OK, and that still counts as answered.
    let fault_armed = env_fault().is_some();
    // A drain with queued work: everything admitted still answers,
    // within the drain deadline.
    let server = one_shard(ServeConfig {
        workers: 2,
        default_deadline_ms: None,
        drain_deadline_ms: 10_000,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let slots: Vec<_> = (0..20)
        .map(|i| {
            let line = format!("count d{i} {{alpha : {SPLINTERY}}}");
            match presburger_serve::parse_request(&line).unwrap() {
                presburger_serve::Request::Query(q) => handle.submit(q),
                _ => unreachable!(),
            }
        })
        .collect();
    let started = Instant::now();
    let stats = handle.drain();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(10),
        "drain blew its deadline: {took:?}"
    );
    assert!(stats.starts_with("STATS "), "drain stats line: {stats}");
    for (i, slot) in slots.iter().enumerate() {
        let line = slot.wait().to_text();
        assert!(
            line.starts_with(&format!("OK d{i} "))
                || (fault_armed && line.starts_with(&format!("ERR d{i} internal"))),
            "in-flight request lost on drain: {line}"
        );
    }
    // Post-drain submissions shed with reason=draining.
    let line = submit_line(&handle, &format!("count late {{x : {CLEAN}}}"));
    assert!(
        line.starts_with("SHED late ") && line.contains("reason=draining"),
        "post-drain submit was not shed: {line}"
    );
    server.shutdown();

    // A zero-deadline drain cancels immediately but still answers
    // everything (bounded or cancelled — never lost).
    let server = one_shard(ServeConfig {
        workers: 1,
        default_deadline_ms: None,
        drain_deadline_ms: 0,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let slots: Vec<_> = (0..8)
        .map(|i| {
            let line = format!("count z{i} {{alpha : {SPLINTERY}}}");
            match presburger_serve::parse_request(&line).unwrap() {
                presburger_serve::Request::Query(q) => handle.submit(q),
                _ => unreachable!(),
            }
        })
        .collect();
    handle.drain();
    for (i, slot) in slots.iter().enumerate() {
        let line = slot.wait().to_text();
        assert!(
            line.starts_with(&format!("OK z{i} "))
                || line.starts_with(&format!("ERR z{i} cancelled"))
                || line.starts_with(&format!("SHED z{i} "))
                || (fault_armed && line.starts_with(&format!("ERR z{i} internal"))),
            "hard drain lost or corrupted a response: {line}"
        );
    }
    PHASE4_REQUESTS.store(20 + 1 + 8, Ordering::Relaxed);
    server.shutdown();
    println!("    clean drain within deadline; hard drain lost nothing");
}

fn phase_latency(n: usize, phase1_n: usize, phase1_elapsed: Duration) {
    println!("==> phase 5: latency ({n} sequential round-trips, histogram-derived)");
    let server = one_shard(ServeConfig {
        workers: 1,
        default_deadline_ms: None,
        default_budgets: replay_budgets(),
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let requests = request_lines(0xBEEF, n, &GenConfig::default());
    for r in &requests {
        match presburger_serve::parse_request(&r.line).unwrap() {
            presburger_serve::Request::Query(q) => {
                handle.submit(q).wait();
            }
            _ => unreachable!(),
        }
    }
    // The exposition the `metrics` verb serves must be well-formed under
    // this live load (full format pinning lives in the golden test).
    let exposition = handle.metrics_text();
    assert!(
        exposition.contains("presburger_requests_total{")
            && exposition.contains("# TYPE presburger_request_duration_us histogram")
            && exposition.ends_with("# EOF"),
        "metrics exposition smoke failed:\n{exposition}"
    );
    server.shutdown();

    // All percentiles come from the request-telemetry histograms: the
    // previous sorted-60-sample math had unbounded tail error, while a
    // log bucket bounds the relative error by its width.
    let metrics = handle.request_metrics();
    let overall = metrics.duration_merged(None);
    assert_eq!(
        overall.count, n as u64,
        "every round-trip must be observed exactly once"
    );
    let queue_wait = metrics.queue_wait_merged();
    let throughput = phase1_n as f64 / phase1_elapsed.as_secs_f64().max(1e-9);
    println!(
        "    p50={}us p90={}us p99={}us p999={}us queue_wait_p99={}us throughput={throughput:.0} req/s",
        overall.percentile(0.50),
        overall.percentile(0.90),
        overall.percentile(0.99),
        overall.percentile(0.999),
        queue_wait.percentile(0.99),
    );

    let out = std::env::var("PRESBURGER_SERVE_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_serve.json".to_string());
    if !out.is_empty() {
        let mut by_verb = JsonObject::new();
        let mut queue_by_verb = JsonObject::new();
        let mut overhead_by_verb = JsonObject::new();
        let mut splinters_by_verb = JsonObject::new();
        for v in ReqVerb::ALL {
            by_verb.field_raw(v.label(), &metrics.duration_merged(Some(v)).to_json());
            queue_by_verb.field_raw(v.label(), &metrics.queue_wait(v).to_json());
            overhead_by_verb.field_raw(v.label(), &metrics.govern_overhead(v).to_json());
            splinters_by_verb.field_raw(v.label(), &metrics.splinters(v).to_json());
        }
        let mut phases = JsonObject::new();
        phases
            .field_u64("replay", PHASE1_REQUESTS.load(Ordering::Relaxed))
            .field_u64("shedding", PHASE2_REQUESTS.load(Ordering::Relaxed))
            .field_u64("breaker", PHASE3_REQUESTS.load(Ordering::Relaxed))
            .field_u64("drain", PHASE4_REQUESTS.load(Ordering::Relaxed))
            .field_u64("latency", n as u64)
            .field_u64("chaos", PHASE6_REQUESTS.load(Ordering::Relaxed))
            .field_u64("binary", PHASE7_REQUESTS.load(Ordering::Relaxed))
            .field_u64("admission", PHASE8_REQUESTS.load(Ordering::Relaxed));
        let mut obj = JsonObject::new();
        obj.field_str("schema", "serve_bench_v5")
            .field_u64("requests", n as u64)
            .field_u64("p50_us", overall.percentile(0.50))
            .field_u64("p90_us", overall.percentile(0.90))
            .field_u64("p99_us", overall.percentile(0.99))
            .field_u64("p999_us", overall.percentile(0.999))
            .field_f64("throughput_rps", throughput)
            .field_u64("phase1_requests", phase1_n as u64)
            .field_u64("phase1_ms", phase1_elapsed.as_millis() as u64)
            .field_raw("phase_requests", &phases.finish())
            .field_raw("latency_us", &overall.to_json())
            .field_raw("latency_us_by_verb", &by_verb.finish())
            .field_raw("queue_wait_us", &queue_wait.to_json())
            .field_raw("queue_wait_us_by_verb", &queue_by_verb.finish())
            .field_raw("govern_overhead_us_by_verb", &overhead_by_verb.finish())
            .field_raw("splinters_by_verb", &splinters_by_verb.finish());
        if let Some(drills) = CHAOS_DRILLS.lock().unwrap().take() {
            obj.field_raw("chaos_drills", &drills);
        }
        if let Some(p7) = PHASE7_BENCH.lock().unwrap().take() {
            obj.field_raw("phase7", &p7);
        }
        if let Some(p8) = PHASE8_BENCH.lock().unwrap().take() {
            obj.field_raw("phase8", &p8);
        }
        if std::fs::write(&out, obj.finish() + "\n").is_ok() {
            println!("    wrote {out}");
        }
    }
}

/// A deterministic pool config for the chaos phase: bulkhead shards
/// with deep queues (no sheds), replay budgets, a fast supervisor and a
/// rescue deadline far beyond the run (the drills must prove
/// *re-dispatch*, not the §4.6 fallback).
fn chaos_pool_cfg(shards: usize, depth: usize, chaos: Option<Arc<Chaos>>) -> ShardPoolConfig {
    ShardPoolConfig {
        shards,
        shard_cfg: ServeConfig {
            workers: 1,
            queue_depth: depth,
            default_deadline_ms: None,
            default_budgets: replay_budgets(),
            breaker_failures: 0,
            ..ServeConfig::default()
        },
        probe_interval_ms: 2,
        // Far above any legitimate compute in the stress mix (the
        // heartbeat freezes for the whole of one compute, and an
        // oversubscribed box can stretch one to hundreds of ms): only
        // the injected forever-wedge may trip this.
        wedge_timeout_ms: 2_000,
        restart_backoff_ms: 5,
        rescue_after_ms: 60_000,
        chaos,
        ..ShardPoolConfig::default()
    }
}

/// Runs `conns` connections over the fixed round-robin partition of
/// `requests` against a supervised pool, armed with `chaos` (the
/// chaos-off baselines pass `None`). Returns the per-connection
/// transcripts and the per-shard failover rows.
fn run_pool_partitioned(
    shards: usize,
    requests: &[GenRequest],
    conns: usize,
    chaos: Option<Arc<Chaos>>,
) -> (Vec<String>, Vec<ShardRowSnapshot>) {
    let pool = start_pool(chaos_pool_cfg(shards, requests.len() + conns, chaos));
    let handle = pool.handle();
    let outputs: Vec<_> = (0..conns).map(|_| SharedBuf::new()).collect();
    thread::scope(|scope| {
        for (c, out) in outputs.iter().enumerate() {
            let handle = handle.clone();
            let input: String = requests
                .iter()
                .skip(c)
                .step_by(conns)
                .map(|r| format!("{}\n", r.line))
                .collect();
            let out = out.clone();
            scope.spawn(move || {
                serve_connection(&handle, Cursor::new(input), out, false)
                    .expect("in-memory connection cannot fail");
            });
        }
    });
    pool.shutdown();
    (
        outputs.iter().map(SharedBuf::take).collect(),
        handle.shard_rows(),
    )
}

/// Reply census of a transcript set: (exact, bounded, err, shed) —
/// the "masked counters" whose equality chaos on/off must preserve.
/// Counts answer lines, not frames: feed binary transcripts through
/// [`flatten_binary_transcript`] so each batched inner answer tallies
/// exactly once.
fn census(transcripts: &[String]) -> (u64, u64, u64, u64) {
    let mut c = (0, 0, 0, 0);
    for line in transcripts.iter().flat_map(|t| t.lines()) {
        let mut tok = line.split_whitespace();
        match (tok.next(), tok.nth(1)) {
            (Some("OK"), Some("exact")) => c.0 += 1,
            (Some("OK"), Some("bounded")) => c.1 += 1,
            (Some("ERR"), _) => c.2 += 1,
            (Some("SHED"), _) => c.3 += 1,
            other => panic!("census: unexpected reply {line:?} ({other:?})"),
        }
    }
    c
}

/// The shard the plurality of `requests` routes to at `shards` shards —
/// the most interesting place to arm chaos (its worker is guaranteed to
/// pop a 3rd job).
fn plurality_shard(requests: &[GenRequest], shards: usize) -> usize {
    let ring = Ring::new(shards);
    let mut routed = vec![0u64; shards];
    for r in requests {
        if let Ok(presburger_serve::Request::Query(q)) = presburger_serve::parse_request(&r.line) {
            routed[ring.route(routing_hash(&q))] += 1;
        }
    }
    (0..shards)
        .max_by_key(|&s| routed[s])
        .expect("at least one shard")
}

/// One chaos drill: run with the fault armed, assert the transcripts
/// are byte-identical to the chaos-off baseline (zero lost, zero
/// degraded, zero reordered) and return the summed failover rows. At
/// one shard the clients race the restart window: a submission that
/// finds the only shard restarting is orphaned and placed on the
/// replacement, so the transcripts still match byte for byte.
fn chaos_drill(
    label: &str,
    site: &str,
    shards: usize,
    requests: &[GenRequest],
    conns: usize,
    baseline: &[String],
) -> (usize, Vec<ShardRowSnapshot>) {
    let armed = plurality_shard(requests, shards);
    let chaos = Arc::new(
        Chaos::parse(&format!("{site}:{armed}:3")).expect("drill chaos spec always parses"),
    );
    let (transcripts, rows) = run_pool_partitioned(shards, requests, conns, Some(chaos.clone()));
    assert!(
        chaos.fired(),
        "{label}: the armed fault never fired (shard {armed} popped < 3 jobs?)"
    );
    assert_eq!(
        baseline,
        &transcripts[..],
        "{label}: transcripts drifted from the chaos-off baseline"
    );
    assert_eq!(
        census(baseline),
        census(&transcripts),
        "{label}: reply census changed under chaos"
    );
    (armed, rows)
}

fn phase_chaos(n: usize, conns: usize, env_chaos: Option<Arc<Chaos>>) {
    println!("==> phase 6: supervised shard-pool chaos drills ({n} requests, {conns} connections)");
    let requests = request_lines(0xC0FFEE, n, &GenConfig::default());
    let ids_for = |c: usize| -> Vec<&str> {
        requests
            .iter()
            .skip(c)
            .step_by(conns)
            .map(|r| r.id.as_str())
            .collect()
    };

    // 6a: chaos off, the pool is transparent — byte-identical
    // transcripts at 1, 2 and 4 shards (replies are pure functions of
    // queries; routing only picks who computes them).
    let mut baselines: std::collections::HashMap<usize, Vec<String>> =
        std::collections::HashMap::new();
    for shards in [1usize, 2, 4] {
        let (transcripts, rows) = run_pool_partitioned(shards, &requests, conns, None);
        for (c, t) in transcripts.iter().enumerate() {
            check_transcript(t, &ids_for(c), &format!("pool shards={shards} conn {c}"));
        }
        let routed: u64 = rows.iter().map(|r| r.routed).sum();
        assert_eq!(
            routed, n as u64,
            "every request must be routed exactly once"
        );
        assert!(
            rows.iter().all(|r| r.rescued == 0 && r.restarts == 0),
            "chaos-off run tripped the supervisor: {rows:?}"
        );
        if let Some(base) = baselines.get(&1) {
            assert_eq!(
                base, &transcripts,
                "shards={shards}: transcript differs from the 1-shard pool"
            );
        }
        println!("    shards={shards}: ok ({} routed)", routed);
        baselines.insert(shards, transcripts);
    }

    // 6b: deterministic drills. A kill mid-stream at every shard count,
    // a wedge and a delay at 2 shards — transcripts never change.
    let mut drill_rows: Vec<(String, usize, usize, Vec<ShardRowSnapshot>)> = Vec::new();
    for (site, shards) in [
        ("kill", 1),
        ("kill", 2),
        ("kill", 4),
        ("wedge", 2),
        ("delay", 2),
    ] {
        let label = format!("drill {site} shards={shards}");
        let (armed, rows) =
            chaos_drill(&label, site, shards, &requests, conns, &baselines[&shards]);
        let sum = |f: fn(&ShardRowSnapshot) -> u64| -> u64 { rows.iter().map(f).sum() };
        match site {
            "kill" => {
                assert_eq!(rows[armed].crashes, 1, "{label}: crash not detected");
                assert_eq!(sum(|r| r.wedges), 0, "{label}: spurious wedge");
                assert!(rows[armed].restarts >= 1, "{label}: shard not restarted");
                assert!(
                    sum(|r| r.redispatched) >= 1,
                    "{label}: orphan not re-dispatched"
                );
            }
            "wedge" => {
                assert_eq!(rows[armed].wedges, 1, "{label}: wedge not detected");
                assert_eq!(sum(|r| r.crashes), 0, "{label}: spurious crash");
                assert!(rows[armed].restarts >= 1, "{label}: shard not restarted");
                assert!(
                    sum(|r| r.redispatched) >= 1,
                    "{label}: orphan not re-dispatched"
                );
            }
            "delay" => {
                assert_eq!(
                    sum(|r| r.crashes + r.wedges + r.restarts + r.redispatched),
                    0,
                    "{label}: a 40ms delay must not trip the supervisor"
                );
            }
            _ => unreachable!(),
        }
        assert_eq!(
            sum(|r| r.rescued),
            0,
            "{label}: fallback fired instead of re-dispatch"
        );
        println!(
            "    {label}: armed shard {armed}, byte-identical transcripts, \
             crashes={} wedges={} restarts={} redispatched={}",
            sum(|r| r.crashes),
            sum(|r| r.wedges),
            sum(|r| r.restarts),
            sum(|r| r.redispatched),
        );
        drill_rows.push((site.to_string(), shards, armed, rows));
    }

    // 6c: an env-armed drill (`PRESBURGER_CHAOS`), at
    // `PRESBURGER_SERVE_SHARDS` shards: zero lost responses whatever
    // the spec targets (a shard index past the pool, or an nth never
    // reached, simply never fires — the invariant must hold anyway).
    if let Some(chaos) = env_chaos {
        let shards = env_usize("PRESBURGER_SERVE_SHARDS", 2).max(1);
        let base = baselines
            .get(&shards)
            .cloned()
            .unwrap_or_else(|| run_pool_partitioned(shards, &requests, conns, None).0);
        let (transcripts, rows) =
            run_pool_partitioned(shards, &requests, conns, Some(chaos.clone()));
        for (c, t) in transcripts.iter().enumerate() {
            check_transcript(t, &ids_for(c), &format!("env drill conn {c}"));
        }
        assert_eq!(
            base, transcripts,
            "env drill: transcripts drifted from the chaos-off baseline"
        );
        println!(
            "    env drill (shards={shards}): fired={} rescued={} — byte-identical",
            chaos.fired(),
            rows.iter().map(|r| r.rescued).sum::<u64>(),
        );
    }

    // Record for BENCH_serve.json (consumed by phase 5's writer).
    PHASE6_REQUESTS.store((n * 8) as u64, Ordering::Relaxed);
    let drills =
        presburger_trace::json::array(drill_rows.into_iter().map(|(site, shards, armed, rows)| {
            let mut obj = JsonObject::new();
            obj.field_str("site", &site)
                .field_u64("shards", shards as u64)
                .field_u64("armed", armed as u64)
                .field_raw(
                    "rows",
                    &presburger_trace::json::array(rows.iter().enumerate().map(|(i, r)| {
                        let mut row = JsonObject::new();
                        row.field_u64("shard", i as u64)
                            .field_u64("routed", r.routed)
                            .field_u64("redispatched", r.redispatched)
                            .field_u64("rescued", r.rescued)
                            .field_u64("restarts", r.restarts)
                            .field_u64("crashes", r.crashes)
                            .field_u64("wedges", r.wedges);
                        row.finish()
                    })),
                );
            obj.finish()
        }));
    *CHAOS_DRILLS.lock().unwrap() = Some(drills);
}

fn phase_binary_protocol(n: usize) {
    println!("==> phase 7: binary codec ({n} requests, batches of 1..=16)");
    let cfg = GenConfig::default();
    let requests = request_lines(0xC0FFEE, n, &cfg);
    let batches = batched_request_lines(0xC0FFEE, n, &cfg, 16);
    let parsed: Vec<Vec<presburger_serve::Request>> = batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|r| presburger_serve::parse_request(&r.line).expect("generated lines parse"))
                .collect()
        })
        .collect();
    let mut frames = Vec::new();
    for batch in &parsed {
        frames.extend_from_slice(&wire::encode_batch(batch).expect("batches are within limits"));
    }
    let mut input = wire::preamble().to_vec();
    input.extend_from_slice(&frames);
    let ids: Vec<&str> = requests.iter().map(|r| r.id.as_str()).collect();

    // 7a: semantic equality against the text protocol at 1, 2 and 4
    // shards (one connection, so both codecs share the request order),
    // chaos off and with a kill drill armed mid-stream. The binary
    // transcript must *decode to* exactly the text transcript.
    for shards in [1usize, 2, 4] {
        let (text, _) = run_pool_partitioned(shards, &requests, 1, None);
        let run_binary = |chaos: Option<Arc<Chaos>>, label: &str| -> String {
            let pool = start_pool(chaos_pool_cfg(shards, n + 1, chaos));
            let out = SharedBuf::new();
            serve_connection(
                &pool.handle(),
                Cursor::new(input.clone()),
                out.clone(),
                false,
            )
            .expect("in-memory binary connection cannot fail");
            pool.shutdown();
            flatten_binary_transcript(&out.take_bytes(), label)
        };
        let flat = run_binary(None, &format!("binary shards={shards}"));
        check_transcript(&flat, &ids, &format!("binary shards={shards}"));
        assert_eq!(
            text[0], flat,
            "shards={shards}: binary replies are not semantically identical to text"
        );
        let armed = plurality_shard(&requests, shards);
        let chaos =
            Arc::new(Chaos::parse(&format!("kill:{armed}:3")).expect("drill spec always parses"));
        let label = format!("binary kill drill shards={shards}");
        let chaotic = run_binary(Some(chaos.clone()), &label);
        assert!(chaos.fired(), "{label}: the armed fault never fired");
        assert_eq!(
            flat, chaotic,
            "{label}: binary replies drifted under the drill"
        );
        assert_eq!(
            census(std::slice::from_ref(&flat)),
            census(&[chaotic]),
            "{label}: reply census changed under chaos"
        );
        println!("    shards={shards}: binary == text, kill-drill-stable");
    }

    // 7b: framing-bound throughput. The generated stream's bounded and
    // error replies recompute every pass (only exact answers are
    // cached), so its wall time measures the *engine*, where the codecs
    // are identical by construction. Throughput instead uses a stream
    // of trivial distinct-id queries over a handful of formulas: after
    // one warm pass every answer is a cache hit, 4 workers drain the
    // queue faster than one connection can feed it, and the connection
    // thread's framing and admission are the bottleneck — the regime
    // batching targets: one queue reservation, one worker wake-up and
    // one gathered write per full `MAX_BATCH` frame instead of one
    // lock, one notify, one writer handoff and one write per line.
    // Best-of-5 per codec, interleaved so machine noise hits both;
    // batched binary must *strictly* beat text.
    let total = 8192usize;
    let tp_requests: Vec<GenRequest> = (0..total)
        .map(|i| GenRequest {
            id: format!("t{i}"),
            line: format!("count t{i} {{x : 1 <= x <= {}}}", 1 + i % 9),
        })
        .collect();
    let server = one_shard(ServeConfig {
        workers: 4,
        queue_depth: total + 1,
        default_deadline_ms: None,
        default_budgets: replay_budgets(),
        breaker_failures: 0,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let text_input: String = tp_requests
        .iter()
        .map(|r| format!("{}\n", r.line))
        .collect();
    let mut bin_input = wire::preamble().to_vec();
    {
        // Full frames: the throughput pass measures batching at its
        // design point (mixed sizes are covered by 7a and the
        // round-trip tests).
        let parsed: Vec<presburger_serve::Request> = tp_requests
            .iter()
            .map(|r| presburger_serve::parse_request(&r.line).expect("trivial lines parse"))
            .collect();
        for chunk in parsed.chunks(wire::MAX_BATCH) {
            bin_input.extend_from_slice(&wire::encode_batch(chunk).expect("within limits"));
        }
    }
    let run_text = || -> (String, Duration) {
        let out = SharedBuf::new();
        let started = Instant::now();
        serve_connection(&handle, Cursor::new(text_input.clone()), out.clone(), false)
            .expect("in-memory connection cannot fail");
        (out.take(), started.elapsed())
    };
    let run_bin = || -> (Vec<u8>, Duration) {
        let out = SharedBuf::new();
        let started = Instant::now();
        serve_connection(&handle, Cursor::new(bin_input.clone()), out.clone(), false)
            .expect("in-memory connection cannot fail");
        (out.take_bytes(), started.elapsed())
    };
    let (warm, _) = run_text(); // populate the result cache
    let mut text_best = Duration::MAX;
    let mut bin_best = Duration::MAX;
    for _ in 0..5 {
        let (t, took) = run_text();
        assert_eq!(warm, t, "warm text pass must replay byte-identically");
        text_best = text_best.min(took);
        let (b, took) = run_bin();
        assert_eq!(
            warm,
            flatten_binary_transcript(&b, "binary throughput pass"),
            "binary throughput pass decoded to different replies"
        );
        bin_best = bin_best.min(took);
    }
    server.shutdown();
    let text_rps = total as f64 / text_best.as_secs_f64().max(1e-9);
    let bin_rps = total as f64 / bin_best.as_secs_f64().max(1e-9);
    assert!(
        bin_best < text_best,
        "batched binary ({bin_rps:.0} req/s) did not beat text ({text_rps:.0} req/s) \
         on a warm cache"
    );
    println!(
        "    throughput (warm cache, {total} requests): text={text_rps:.0} req/s \
         binary={bin_rps:.0} req/s ({:.2}x)",
        bin_rps / text_rps
    );

    PHASE7_REQUESTS.store((9 * n + 7 * total) as u64, Ordering::Relaxed);
    let mut p7 = JsonObject::new();
    p7.field_u64("requests", total as u64)
        .field_u64("batch_size", wire::MAX_BATCH as u64)
        .field_f64("text_rps", text_rps)
        .field_f64("binary_rps", bin_rps)
        .field_f64("speedup", bin_rps / text_rps);
    *PHASE7_BENCH.lock().unwrap() = Some(p7.finish());
}

/// Client-side wall-clock p99 over a sample set, in microseconds.
fn p99_us(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[(samples.len() - 1) * 99 / 100]
}

fn phase_admission(n: usize) {
    println!("==> phase 8: deadline-aware admission control");
    // With an env fault armed, splintery requests legitimately answer
    // ERR internal; that still counts as answered (phase 4's rule).
    let fault_armed = env_fault().is_some();

    // 8a: unloaded interactive p99 — the baseline the flooded run is
    // held to. The probe workload is splintery and the cache is off,
    // so every probe pays the same engine cost in both runs; any
    // difference between them is queueing, which is what the lanes
    // control.
    let probes = 50usize;
    let depth = 64usize;
    let mk_server = || {
        one_shard(ServeConfig {
            workers: 2,
            queue_depth: depth,
            default_deadline_ms: None,
            default_budgets: replay_budgets(),
            breaker_failures: 0,
            cache_entries: 0,
            ..ServeConfig::default()
        })
    };
    let probe_line = |i: usize| format!("count i{i} prio=interactive {{alpha : {SPLINTERY}}}");
    let probe_ok = |i: usize, line: &str| {
        line.starts_with(&format!("OK i{i} "))
            || (fault_armed && line.starts_with(&format!("ERR i{i} internal")))
    };
    let server = mk_server();
    let handle = server.handle();
    let mut unloaded: Vec<u64> = Vec::with_capacity(probes);
    for i in 0..probes {
        let started = Instant::now();
        let line = submit_line(&handle, &probe_line(i));
        assert!(probe_ok(i, &line), "unloaded probe: {line}");
        unloaded.push(started.elapsed().as_micros() as u64);
    }
    server.shutdown();
    let unloaded_p99 = p99_us(&mut unloaded);

    // 8b: background flood at 4× queue capacity, interactive probes
    // riding over it. Lanes order service but do not reserve capacity
    // — the shared queue can be momentarily full when a probe lands —
    // so a shed probe yields and re-submits (bounded; the flood is
    // finite and draining).
    let server = mk_server();
    let handle = server.handle();
    let flood_n = 4 * depth;
    let flood: Vec<_> = (0..flood_n)
        .map(|i| {
            let line = format!("count g{i} prio=background {{alpha : {SPLINTERY}}}");
            match presburger_serve::parse_request(&line).unwrap() {
                presburger_serve::Request::Query(q) => handle.submit(q),
                _ => unreachable!(),
            }
        })
        .collect();
    let mut flooded: Vec<u64> = Vec::with_capacity(probes);
    let mut probe_resubmits = 0u64;
    for i in 0..probes {
        let mut landed = false;
        for _ in 0..10_000 {
            let started = Instant::now();
            let line = submit_line(&handle, &probe_line(probes + i));
            if line.starts_with("SHED ") {
                probe_resubmits += 1;
                thread::sleep(Duration::from_millis(1));
                continue;
            }
            assert!(probe_ok(probes + i, &line), "flooded probe: {line}");
            flooded.push(started.elapsed().as_micros() as u64);
            landed = true;
            break;
        }
        assert!(
            landed,
            "probe i{} never landed: queue never drained",
            probes + i
        );
    }
    // Zero lost responses: every flood slot answers exactly once, as
    // either a served reply or a queue-full shed — never silence.
    let mut flood_answered = 0u64;
    let mut flood_shed = 0u64;
    for (i, slot) in flood.iter().enumerate() {
        let line = slot.wait().to_text();
        if line.starts_with(&format!("OK g{i} "))
            || (fault_armed && line.starts_with(&format!("ERR g{i} internal")))
        {
            flood_answered += 1;
        } else if line.starts_with(&format!("SHED g{i} ")) {
            assert!(
                line.contains("reason=queue_full"),
                "flood shed with wrong reason: {line}"
            );
            flood_shed += 1;
        } else {
            panic!("flood request g{i} lost or corrupted: {line}");
        }
    }
    assert_eq!(flood_answered + flood_shed, flood_n as u64);
    assert!(flood_shed > 0, "a 4x-capacity flood must shed");
    assert!(
        flood_answered >= depth as u64,
        "at least one queue-full of flood work must be admitted"
    );
    // Cross-check the client-side accounting against the admission
    // telemetry: every decision was observed on the lane that made it.
    let m = handle.request_metrics();
    assert_eq!(
        m.admission_total(ReqLane::Interactive, AdmitDecision::Admit),
        probes as u64,
        "every probe was admitted exactly once"
    );
    assert_eq!(
        m.admission_total(ReqLane::Interactive, AdmitDecision::ShedQueue),
        probe_resubmits,
        "probe re-submits match the interactive shed count"
    );
    assert_eq!(
        m.admission_total(ReqLane::Background, AdmitDecision::Admit),
        flood_answered
    );
    assert_eq!(
        m.admission_total(ReqLane::Background, AdmitDecision::ShedQueue),
        flood_shed
    );
    server.shutdown();
    let flooded_p99 = p99_us(&mut flooded);
    // The bound is max(3 × unloaded p99, 20 ms). The absolute floor
    // absorbs scheduler jitter on oversubscribed CI boxes, where one
    // descheduled wake-up costs more than three unloaded round trips;
    // whenever the unloaded p99 is under 6.67 ms the floor, not the
    // ratio, is what the run is held to, and the println says so.
    const FLOOR_US: u64 = 20_000;
    let ratio_us = 3 * unloaded_p99;
    let (bound, binding) = if ratio_us >= FLOOR_US {
        (ratio_us, "3x unloaded p99")
    } else {
        (FLOOR_US, "20 ms floor")
    };
    assert!(
        flooded_p99 <= bound,
        "interactive p99 under flood: {flooded_p99}us > bound {bound}us \
         (unloaded {unloaded_p99}us) — the background flood leaked into the lane"
    );
    println!(
        "    lanes: unloaded p99={unloaded_p99}us flooded p99={flooded_p99}us \
         <= {bound}us, the {binding} of max(3x unloaded p99, 20 ms) \
         ({flood_shed}/{flood_n} flood sheds, {probe_resubmits} probe re-submits)"
    );

    // 8d: eviction drill. The worker is gated, so only the admission
    // layer can answer: a request that arrives already expired is
    // answered with §4.6 bounds at admission time; one that expires
    // while queued is evicted at pop time; an undeadlined sibling
    // queued behind it still computes exactly.
    let gate = Gate::new(true);
    let server = one_shard(ServeConfig {
        workers: 1,
        hold: Some(gate.clone()),
        default_deadline_ms: None,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let submit = |line: String| match presburger_serve::parse_request(&line).unwrap() {
        presburger_serve::Request::Query(q) => handle.submit(q),
        _ => unreachable!(),
    };
    let dead = submit(format!("count e0 deadline_ms=0 {{x : {CLEAN}}}"));
    assert_eq!(
        dead.wait().to_text(),
        "OK e0 bounded evicted 9 ; 9",
        "admission-time eviction must answer while the worker is gated"
    );
    let queued = submit(format!("count e1 deadline_ms=1 {{x : {CLEAN}}}"));
    let fresh = submit(format!("count e2 {{x : {CLEAN}}}"));
    thread::sleep(Duration::from_millis(20));
    gate.open();
    assert_eq!(
        queued.wait().to_text(),
        "OK e1 bounded evicted 9 ; 9",
        "pop-time eviction: the deadline lapsed in the queue"
    );
    assert_eq!(
        fresh.wait().to_text(),
        "OK e2 exact 9",
        "undeadlined sibling"
    );
    server.shutdown();
    println!("    eviction: §4.6 bounds at admission time and at pop time");

    // 8e: determinism. A stream with `prio=` mixed in deterministically
    // replays byte-identically at 1, 2 and 4 shards, chaos off and
    // under a kill drill. Deep queues keep queue_full — whose outcome
    // depends on wall-clock drain speed — out of the decision space, so
    // nothing sheds and only lane decisions fire.
    let requests =
        admission_request_lines(0xC0FFEE, n, &GenConfig::default(), &AdmissionMix::default());
    let ids: Vec<&str> = requests.iter().map(|r| r.id.as_str()).collect();
    let run_one = |shards: usize, chaos: Option<Arc<Chaos>>| -> String {
        let pool = start_pool(chaos_pool_cfg(shards, requests.len() + 1, chaos));
        let handle = pool.handle();
        let input: String = requests.iter().map(|r| format!("{}\n", r.line)).collect();
        let out = SharedBuf::new();
        serve_connection(&handle, Cursor::new(input), out.clone(), false)
            .expect("in-memory connection cannot fail");
        pool.shutdown();
        out.take()
    };
    let check_admission = |transcript: &str, label: &str| {
        let lines: Vec<&str> = transcript.lines().collect();
        assert_eq!(
            lines.len(),
            ids.len(),
            "{label}: lost or duplicated replies"
        );
        for (line, want) in lines.iter().zip(&ids) {
            let mut tok = line.split_whitespace();
            let status = tok.next().unwrap_or("");
            assert!(
                matches!(status, "OK" | "ERR"),
                "{label}: unexpected status line {line:?}"
            );
            assert_eq!(
                tok.next().unwrap_or(""),
                *want,
                "{label}: out of order: {line:?}"
            );
        }
    };
    let baseline = run_one(1, None);
    check_admission(&baseline, "admission shards=1");
    assert!(
        requests.iter().any(|r| r.line.contains(" prio=")),
        "the admission mix must exercise the lanes"
    );
    for shards in [2usize, 4] {
        let t = run_one(shards, None);
        check_admission(&t, &format!("admission shards={shards}"));
        assert_eq!(
            baseline, t,
            "admission decisions drifted at {shards} shards"
        );
    }
    let armed = plurality_shard(&requests, 2);
    let chaos =
        Arc::new(Chaos::parse(&format!("kill:{armed}:3")).expect("drill chaos spec always parses"));
    let t = run_one(2, Some(chaos.clone()));
    assert!(chaos.fired(), "admission kill drill: the fault never fired");
    assert_eq!(
        baseline, t,
        "admission decisions drifted under the kill drill"
    );
    println!("    determinism: byte-identical at 1/2/4 shards and under a kill drill");

    PHASE8_REQUESTS.store(
        (2 * probes + flood_n + 3 + 4 * n) as u64 + probe_resubmits,
        Ordering::Relaxed,
    );
    let mut p8 = JsonObject::new();
    p8.field_u64("probes", probes as u64)
        .field_u64("unloaded_p99_us", unloaded_p99)
        .field_u64("flooded_p99_us", flooded_p99)
        .field_u64("flood_requests", flood_n as u64)
        .field_u64("flood_answered", flood_answered)
        .field_u64("flood_shed", flood_shed)
        .field_u64("probe_resubmits", probe_resubmits);
    *PHASE8_BENCH.lock().unwrap() = Some(p8.finish());
}

/// Per-phase request totals, recorded for `BENCH_serve.json`'s
/// `phase_requests` breakdown (phase 1 counts one run, not all four).
static PHASE1_REQUESTS: AtomicU64 = AtomicU64::new(0);
static PHASE2_REQUESTS: AtomicU64 = AtomicU64::new(0);
static PHASE3_REQUESTS: AtomicU64 = AtomicU64::new(0);
static PHASE4_REQUESTS: AtomicU64 = AtomicU64::new(0);
static PHASE6_REQUESTS: AtomicU64 = AtomicU64::new(0);
static PHASE7_REQUESTS: AtomicU64 = AtomicU64::new(0);
static PHASE8_REQUESTS: AtomicU64 = AtomicU64::new(0);

/// Phase 6's drill summary (JSON array), stashed for phase 5's bench
/// writer. `None` when the chaos phase has not run.
static CHAOS_DRILLS: Mutex<Option<String>> = Mutex::new(None);

/// Phase 7's codec-throughput summary (JSON object), stashed for phase
/// 5's bench writer. `None` when the binary phase has not run.
static PHASE7_BENCH: Mutex<Option<String>> = Mutex::new(None);

/// Phase 8's admission summary (JSON object), stashed for phase 5's
/// bench writer. `None` when the admission phase has not run.
static PHASE8_BENCH: Mutex<Option<String>> = Mutex::new(None);

fn main() {
    let fault = std::env::var("PRESBURGER_FAULT")
        .ok()
        .filter(|s| !s.is_empty());
    if let Some(Err(e)) = fault.as_deref().map(parse_fault) {
        eprintln!("serve_stress: PRESBURGER_FAULT: {e}");
        std::process::exit(2);
    }
    ENV_FAULT.set(fault).expect("set once, before any phase");
    let n = env_usize("PRESBURGER_SERVE_REQUESTS", 200);
    let conns = env_usize("PRESBURGER_SERVE_CONNS", 4).max(1);
    let env_chaos = chaos_from_env();
    if std::env::var("PRESBURGER_SERVE_CHAOS_ONLY").is_ok_and(|v| v == "1") {
        phase_chaos(n, conns, env_chaos);
        println!("serve_stress: chaos phase passed");
        return;
    }
    if std::env::var("PRESBURGER_SERVE_ADMISSION_ONLY").is_ok_and(|v| v == "1") {
        phase_admission(n);
        println!("serve_stress: admission phase passed");
        return;
    }
    let (phase1_n, phase1_elapsed) = phase_replay_determinism(n, conns);
    PHASE1_REQUESTS.store(phase1_n as u64, Ordering::Relaxed);
    phase_shedding();
    phase_breaker_drill();
    phase_drain();
    phase_chaos(n, conns, env_chaos);
    phase_binary_protocol(n);
    phase_admission(n);
    phase_latency(n.min(60), phase1_n, phase1_elapsed);
    println!("serve_stress: all phases passed");
}
