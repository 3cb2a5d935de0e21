//! Golden-transcript tests: recorded serving sessions replayed
//! byte-for-byte.
//!
//! Each session drives a real shard pool over TCP loopback (one shard
//! for the single-server sessions) as an *interactive* client — one
//! request, one awaited response — so every counter in the `STATS`
//! lines is deterministic (queue depth never exceeds one except where a
//! session pipelines deliberately). The
//! expected transcripts are frozen below; any change to response
//! wording, stats fields, breaker behavior, shedding or drain output
//! shows up as a byte diff.
//!
//! To re-record after an intentional protocol change:
//! `PRESBURGER_SERVE_RECORD=1 cargo test -p presburger-serve --test
//! protocol -- --nocapture` and paste the printed transcripts.

use presburger_counting::Budgets;
use presburger_serve::server::Gate;
use presburger_serve::{
    parse_request, routing_hash, AdmissionConfig, Chaos, PoolHandle, PoolTcpServer, QuotaConfig,
    Request, RetryPolicy, Ring, ServeConfig, ShardPool, ShardPoolConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One scripted step: a request line and how many response lines to
/// await before sending the next (0 = fire and forget).
struct Step(&'static str, usize);

/// A one-shard pool over `cfg`: the configuration every single-server
/// session runs.
fn one_shard(cfg: ServeConfig) -> ShardPoolConfig {
    ShardPoolConfig {
        shards: 1,
        shard_cfg: cfg,
        ..ShardPoolConfig::default()
    }
}

/// Runs a scripted session against a one-shard pool over `cfg`; returns
/// the full response transcript. `gate`, when given, is opened 100 ms
/// after the last request line is sent (for shed scenarios that
/// pipeline against held workers).
fn run_session(cfg: ServeConfig, steps: &[Step], gate: Option<&Gate>) -> String {
    let server = PoolTcpServer::bind("127.0.0.1:0", one_shard(cfg)).expect("bind loopback");
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut transcript = String::new();
    for Step(line, await_n) in steps {
        writeln!(stream, "{line}").expect("write request");
        stream.flush().expect("flush request");
        for _ in 0..*await_n {
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            transcript.push_str(&response);
        }
    }
    if let Some(gate) = gate {
        std::thread::sleep(Duration::from_millis(100));
        gate.open();
    }
    // Read whatever remains (pipelined responses, drain stats, BYE)
    // until the server closes the connection.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to EOF");
    transcript.push_str(&rest);
    server.shutdown();
    transcript
}

fn check(label: &str, got: &str, want: &str) {
    if std::env::var("PRESBURGER_SERVE_RECORD").is_ok() {
        println!("=== {label} ===\n{got}=== end {label} ===");
        return;
    }
    assert_eq!(
        got, want,
        "{label}: transcript drifted from the golden recording"
    );
}

/// Deterministic base config: no wall-clock deadline (replayable), one
/// worker.
fn base_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        default_deadline_ms: None,
        ..ServeConfig::default()
    }
}

#[test]
fn golden_normal_session() {
    // Counts, a sum, a cached repeat, protocol and parse errors, ping,
    // stats, drain. Every response in request order.
    let steps = [
        Step("ping", 1),
        Step("ping warmup", 1),
        Step("count c1 {x : 1 <= x <= 9}", 1),
        Step("count c2 {i,j : 1 <= i <= j <= 4}", 1),
        Step("sum c3 x {x : 1 <= x <= 4}", 1),
        Step("count c4 {x : 1 <= x <= n}", 1),
        // Identical to c1 after canonicalization: served from cache.
        Step("count c5 {x : 1 <= x <= 9}", 1),
        // A budget override makes a different cache key, and the
        // splinter cap trips on this body: answered with §4.6 bounds.
        Step(splintery_override_line(), 1),
        Step("count c7 {x : x >= 0}", 1),
        Step("zap c8 {x : x = 1}", 1),
        Step("count c9 {x : 1 <=}", 1),
        Step("count {x : x = 1}", 1),
        Step("stats", 1),
        Step("drain", 0),
    ];
    let got = run_session(base_cfg(), &steps, None);
    let want = "PONG\n\
PONG warmup\n\
OK c1 exact 9\n\
OK c2 exact 10\n\
OK c3 exact 10\n\
OK c4 exact (\u{3a3} : n - 1 >= 0 : n)\n\
OK c5 exact 9\n\
OK c6 bounded budget 25 ; 25\n\
ERR c7 unbounded summation variable x is unbounded\n\
ERR - protocol unknown verb \"zap\" (expected count, sum, ping, stats, metrics, flightrec, shards or drain)\n\
ERR c9 parse parse error at line 1, column 6: expected a term\n\
ERR - protocol missing request id\n\
STATS admitted=8 ok=6 errors=2 shed_queue=0 shed_drain=0 cache_hits=1 cache_misses=6 cache_entries=4 verify_mismatches=0 breaker=closed breaker_opens=0 degraded_first=0 drain_bounded=0 queue_depth_peak=1\n\
STATS admitted=8 ok=6 errors=2 shed_queue=0 shed_drain=0 cache_hits=1 cache_misses=6 cache_entries=4 verify_mismatches=0 breaker=closed breaker_opens=0 degraded_first=0 drain_bounded=0 queue_depth_peak=1\n\
BYE\n";
    check("normal", &got, want);
}

#[test]
fn golden_shed_session() {
    // Workers held shut behind a gate, queue depth 1: the first count
    // is admitted, the next two shed with reason=queue_full. The gate
    // opens after all three are pipelined, the admitted request
    // answers, and responses still arrive strictly in request order.
    let gate = Gate::new(true);
    let cfg = ServeConfig {
        queue_depth: 1,
        hold: Some(gate.clone()),
        ..base_cfg()
    };
    let steps = [
        Step("count s1 {x : 1 <= x <= 3}", 0),
        Step("count s2 {x : 1 <= x <= 3}", 0),
        Step("count s3 {x : 1 <= x <= 3}", 0),
        Step("drain", 0),
    ];
    let got = run_session(cfg, &steps, Some(&gate));
    let want = "OK s1 exact 3\n\
SHED s2 retry_after_ms=50 reason=queue_full\n\
SHED s3 retry_after_ms=50 reason=queue_full\n\
STATS admitted=1 ok=1 errors=0 shed_queue=2 shed_drain=0 cache_hits=0 cache_misses=1 cache_entries=1 verify_mismatches=0 breaker=closed breaker_opens=0 degraded_first=0 drain_bounded=0 queue_depth_peak=1\n\
BYE\n";
    check("shed", &got, want);
}

/// The splinter-heavy Example 11 body: an armed
/// `splinters_generated:1:panic` fault always fires on it, and never on
/// a splinter-free formula.
const SPLINTERY: &str = "exists beta : 3beta - alpha >= 0 && -3beta + alpha + 7 >= 0 \
                         && alpha - 2beta - 1 >= 0 && -alpha + 2beta + 5 >= 0";

/// A leaked `count <id> {alpha : E11}` line (Step holds `&'static`).
fn splintery_line(id: &str) -> &'static str {
    Box::leak(format!("count {id} {{alpha : {SPLINTERY}}}").into_boxed_str())
}

/// Example 11 under a zero splinter budget: always degrades to bounds.
fn splintery_override_line() -> &'static str {
    Box::leak(format!("count c6 max_splinters=0 {{alpha : {SPLINTERY}}}").into_boxed_str())
}

#[test]
fn golden_breaker_open_session() {
    // A 1-strike breaker with an effectively infinite cooldown: the
    // first faulted request opens it, and every later request — even a
    // perfectly healthy one — is answered degrade-first with §4.6
    // bounds instead of touching the poisoned exact path.
    let cfg = ServeConfig {
        breaker_failures: 1,
        breaker_cooldown_ms: 3_600_000,
        fault_spec: Some("splinters_generated:1:panic".to_string()),
        cache_entries: 0,
        ..base_cfg()
    };
    let steps = [
        Step(splintery_line("b1"), 1),
        Step(splintery_line("b2"), 1),
        Step("count b3 {x : 1 <= x <= 9}", 1),
        Step("stats", 1),
        Step("drain", 0),
    ];
    let got = run_session(cfg, &steps, None);
    let want = "ERR b1 internal internal error: injected fault: splinters_generated at 1\n\
OK b2 bounded breaker_open 25 ; 25\n\
OK b3 bounded breaker_open 9 ; 9\n\
STATS admitted=3 ok=2 errors=1 shed_queue=0 shed_drain=0 cache_hits=0 cache_misses=3 cache_entries=0 verify_mismatches=0 breaker=open breaker_opens=1 degraded_first=2 drain_bounded=0 queue_depth_peak=1\n\
STATS admitted=3 ok=2 errors=1 shed_queue=0 shed_drain=0 cache_hits=0 cache_misses=3 cache_entries=0 verify_mismatches=0 breaker=open breaker_opens=1 degraded_first=2 drain_bounded=0 queue_depth_peak=1\n\
BYE\n";
    check("breaker-open", &got, want);
}

#[test]
fn golden_breaker_recovery_session() {
    // Zero cooldown: the breaker opens on the first faulted request and
    // immediately half-opens for the next one. A clean request (the
    // fault cannot fire without splinters) is the probe; it succeeds
    // and closes the breaker, after which exact service resumes.
    let cfg = ServeConfig {
        breaker_failures: 1,
        breaker_cooldown_ms: 0,
        fault_spec: Some("splinters_generated:1:panic".to_string()),
        cache_entries: 0,
        ..base_cfg()
    };
    let steps = [
        Step(splintery_line("r1"), 1),
        Step("count r2 {x : 1 <= x <= 9}", 1),
        Step("count r3 {x : 2 <= x <= 9}", 1),
        Step("stats", 1),
        Step("drain", 0),
    ];
    let got = run_session(cfg, &steps, None);
    let want = "ERR r1 internal internal error: injected fault: splinters_generated at 1\n\
OK r2 exact 9\n\
OK r3 exact 8\n\
STATS admitted=3 ok=2 errors=1 shed_queue=0 shed_drain=0 cache_hits=0 cache_misses=3 cache_entries=0 verify_mismatches=0 breaker=closed breaker_opens=1 degraded_first=0 drain_bounded=0 queue_depth_peak=1\n\
STATS admitted=3 ok=2 errors=1 shed_queue=0 shed_drain=0 cache_hits=0 cache_misses=3 cache_entries=0 verify_mismatches=0 breaker=closed breaker_opens=1 degraded_first=0 drain_bounded=0 queue_depth_peak=1\n\
BYE\n";
    check("breaker-recovery", &got, want);
}

#[test]
fn golden_drain_session() {
    // Drain mid-session: requests before the drain answer normally,
    // the drain emits the final stats and BYE, and the connection
    // closes. A second connection opened after the drain is shed.
    let cfg = ServeConfig {
        default_budgets: Budgets {
            max_splinters: Some(512),
            ..Budgets::unlimited()
        },
        ..base_cfg()
    };
    let server = PoolTcpServer::bind("127.0.0.1:0", one_shard(cfg)).expect("bind loopback");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // A second connection, opened before the drain: its serving thread
    // outlives the listener, so post-drain queries on it still get an
    // orderly SHED instead of a dead socket.
    let mut late = TcpStream::connect(addr).expect("second connect");
    let mut late_reader = BufReader::new(late.try_clone().expect("clone second"));
    let mut transcript = String::new();
    for line in ["count d1 {x : 1 <= x <= 5}", "sum d2 x {x : 1 <= x <= 5}"] {
        writeln!(stream, "{line}").expect("write");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        transcript.push_str(&response);
    }
    writeln!(stream, "drain").expect("write drain");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain tail");
    transcript.push_str(&rest);

    let want = "OK d1 exact 5\n\
OK d2 exact 15\n\
STATS admitted=2 ok=2 errors=0 shed_queue=0 shed_drain=0 cache_hits=0 cache_misses=2 cache_entries=2 verify_mismatches=0 breaker=closed breaker_opens=0 degraded_first=0 drain_bounded=0 queue_depth_peak=1\n\
BYE\n";
    check("drain", &transcript, want);

    // The server is drained: a late query on the surviving second
    // connection sheds with reason=draining.
    writeln!(late, "count late {{x : 1 <= x <= 5}}").expect("late write");
    let mut response = String::new();
    late_reader.read_line(&mut response).expect("late read");
    check(
        "drain-late",
        &response,
        "SHED late retry_after_ms=50 reason=draining\n",
    );
    server.shutdown();
}

/// Deterministic pool config: two shards of [`base_cfg`] servers, a
/// fast supervisor, and a long rescue deadline so the sessions exercise
/// re-dispatch (not the §4.6 fallback).
fn pool_base_cfg() -> ShardPoolConfig {
    ShardPoolConfig {
        shards: 2,
        shard_cfg: base_cfg(),
        probe_interval_ms: 2,
        restart_backoff_ms: 10,
        rescue_after_ms: 60_000,
        ..ShardPoolConfig::default()
    }
}

/// The shard a request line routes to at 2 shards (for arming chaos on
/// exactly the shard that will pop it).
fn routed_shard(line: &str) -> usize {
    match parse_request(line).expect("parse") {
        Request::Query(q) => Ring::new(2).route(routing_hash(&q)),
        _ => unreachable!(),
    }
}

/// One interactive pool session: sends each `(line, await_n)` step,
/// sleeping `settle_ms` *before* any step whose line is `"shards"` so
/// the supervisor's restart has landed and the health block is settled.
fn run_pool_session(cfg: ShardPoolConfig, steps: &[Step], settle_ms: u64) -> String {
    let server = PoolTcpServer::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut transcript = String::new();
    for Step(line, await_n) in steps {
        if *line == "shards" {
            std::thread::sleep(Duration::from_millis(settle_ms));
        }
        writeln!(stream, "{line}").expect("write request");
        stream.flush().expect("flush request");
        for _ in 0..*await_n {
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            transcript.push_str(&response);
        }
    }
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to EOF");
    transcript.push_str(&rest);
    server.shutdown();
    transcript
}

/// The expected post-chaos `shards` block plus tail for a 2-shard
/// session where `armed` was condemned once (`crashes`/`wedges` per
/// `condemned_as`), its request re-dispatched to the sibling, and one
/// follow-up request served by the replacement. The armed index is
/// computed from the routing hash at test time — deterministic, but not
/// worth baking into the literal.
fn failover_want(first_reply: &str, armed: usize, condemned_as: &str, last_reply: &str) -> String {
    let (crashes, wedges) = match condemned_as {
        "crash" => (1, 0),
        "wedge" => (0, 1),
        other => panic!("unknown condemnation {other:?}"),
    };
    let mut rows = String::new();
    for i in 0..2 {
        if i == armed {
            rows.push_str(&format!(
                "shard={i} state=healthy epoch=1 workers=1 alive=1 inflight=0 queued=0 \
                 routed=1 redispatched=1 rescued=0 restarts=1 crashes={crashes} wedges={wedges} \
                 admitted=0 ok=0 errors=0\n"
            ));
        } else {
            rows.push_str(&format!(
                "shard={i} state=healthy epoch=0 workers=1 alive=1 inflight=0 queued=0 \
                 routed=0 redispatched=0 rescued=0 restarts=0 crashes=0 wedges=0 \
                 admitted=1 ok=1 errors=0\n"
            ));
        }
    }
    format!(
        "{first_reply}\n\
         SHARDS shards=2\n\
         {rows}\
         # EOF\n\
         {last_reply}\n\
         STATS shards=2 admitted=2 ok=2 errors=0 sheds=0 cache_hits=0 redispatched=1 \
         rescued=0 restarts=1\n\
         BYE\n"
    )
}

#[test]
fn golden_shard_kill_failover_session() {
    // Chaos kills the armed shard's worker on its first pop — while it
    // holds k1. The supervisor detects the crash, re-dispatches k1 to
    // the sibling (exact answer, not a fallback bound), restarts the
    // shard (epoch=1), and a repeat of the same formula is served by
    // the replacement. Nothing in the transcript is lost or degraded.
    let k1 = "count k1 {x : 1 <= x <= 9}";
    let armed = routed_shard(k1);
    let cfg = ShardPoolConfig {
        chaos: Some(Arc::new(
            Chaos::parse(&format!("kill:{armed}:1")).expect("chaos spec"),
        )),
        ..pool_base_cfg()
    };
    let steps = [
        Step(k1, 1),
        Step("shards", 4),
        Step("count k3 {x : 1 <= x <= 9}", 1),
        Step("drain", 0),
    ];
    let got = run_pool_session(cfg, &steps, 400);
    let want = failover_want("OK k1 exact 9", armed, "crash", "OK k3 exact 9");
    check("shard-kill-failover", &got, &want);
}

#[test]
fn golden_shard_wedge_restart_session() {
    // Chaos wedges the armed shard's worker on its first pop: the
    // heartbeat freezes with w1 in flight, the supervisor condemns the
    // shard after wedge_timeout, re-dispatches w1 to the sibling and
    // restarts the shard. The client just sees its answer arrive.
    let w1 = "count w1 {x : 2 <= x <= 9}";
    let armed = routed_shard(w1);
    let cfg = ShardPoolConfig {
        wedge_timeout_ms: 150,
        chaos: Some(Arc::new(
            Chaos::parse(&format!("wedge:{armed}:1")).expect("chaos spec"),
        )),
        ..pool_base_cfg()
    };
    let steps = [
        Step(w1, 1),
        Step("shards", 4),
        Step("count w3 {x : 2 <= x <= 9}", 1),
        Step("drain", 0),
    ];
    let got = run_pool_session(cfg, &steps, 400);
    let want = failover_want("OK w1 exact 8", armed, "wedge", "OK w3 exact 8");
    check("shard-wedge-restart", &got, &want);
}

#[test]
fn golden_quota_session() {
    // Per-client quota (DESIGN.md §16): burst 2, refill 250 milli-
    // tokens per logical tick, 100 ms advertised per tick. One
    // connection = one client, and the bucket's logical clock advances
    // once per request — so the admit/shed pattern and every computed
    // `retry_after_ms` are pure functions of the request ordinals:
    // admit, admit, shed(200), shed(100), admit, shed(300).
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            quota: Some(QuotaConfig {
                burst: 2,
                refill_milli: 250,
                tick_ms: 100,
            }),
            detail: true,
        },
        ..base_cfg()
    };
    let steps = [
        Step("count q1 {x : 1 <= x <= 9}", 1),
        Step("count q2 {x : 1 <= x <= 9}", 1),
        Step("count q3 {x : 1 <= x <= 9}", 1),
        Step("count q4 {x : 1 <= x <= 9}", 1),
        Step("count q5 {x : 1 <= x <= 9}", 1),
        Step("count q6 {x : 1 <= x <= 9}", 1),
        Step("stats", 1),
        Step("drain", 0),
    ];
    let got = run_session(cfg, &steps, None);
    // Quota sheds fold into shed_queue on the pinned STATS line; the
    // Prometheus admission family keeps the split.
    let want = "OK q1 exact 9\n\
OK q2 exact 9\n\
SHED q3 retry_after_ms=200 reason=quota:lane=batch:wait_ms=200\n\
SHED q4 retry_after_ms=100 reason=quota:lane=batch:wait_ms=100\n\
OK q5 exact 9\n\
SHED q6 retry_after_ms=300 reason=quota:lane=batch:wait_ms=300\n\
STATS admitted=3 ok=3 errors=0 shed_queue=3 shed_drain=0 cache_hits=2 cache_misses=1 cache_entries=1 verify_mismatches=0 breaker=closed breaker_opens=0 degraded_first=0 drain_bounded=0 queue_depth_peak=1\n\
STATS admitted=3 ok=3 errors=0 shed_queue=3 shed_drain=0 cache_hits=2 cache_misses=1 cache_entries=1 verify_mismatches=0 breaker=closed breaker_opens=0 degraded_first=0 drain_bounded=0 queue_depth_peak=1\n\
BYE\n";
    check("quota", &got, want);
}

#[test]
fn golden_eviction_session() {
    // Expired-request eviction (DESIGN.md §16). e0 arrives with
    // `deadline_ms=0` — already expired at admission — and is answered
    // immediately with §4.6 bounds, never queued. e1's 1 ms deadline
    // lapses while the gate holds the worker (~100 ms), so the pop-time
    // check answers it with the same budgeted bounds instead of burning
    // the worker on it; e2 (no deadline) then computes exactly. Both
    // evictions count as admitted+ok: the client got a bounded answer,
    // not a refusal.
    let gate = Gate::new(true);
    let cfg = ServeConfig {
        hold: Some(gate.clone()),
        ..base_cfg()
    };
    let steps = [
        Step("count e0 deadline_ms=0 {x : 1 <= x <= 9}", 1),
        Step("count e1 deadline_ms=1 {x : 1 <= x <= 9}", 0),
        Step("count e2 {x : 1 <= x <= 9}", 0),
        Step("drain", 0),
    ];
    let got = run_session(cfg, &steps, Some(&gate));
    let want = "OK e0 bounded evicted 9 ; 9\n\
OK e1 bounded evicted 9 ; 9\n\
OK e2 exact 9\n\
STATS admitted=3 ok=3 errors=0 shed_queue=0 shed_drain=0 cache_hits=0 cache_misses=1 cache_entries=1 verify_mismatches=0 breaker=closed breaker_opens=0 degraded_first=0 drain_bounded=0 queue_depth_peak=2\n\
BYE\n";
    check("eviction", &got, want);
}

#[test]
fn retry_helper_rides_out_queue_full_sheds() {
    // A 1-deep queue behind a closed gate sheds the second pipelined
    // request; `submit_with_retry` re-sends it after the jittered
    // backoff and — once the gate opens — lands the exact answer. The
    // client keeps the exactly-one-reply invariant from its own side.
    let gate = Gate::new(true);
    let cfg = ServeConfig {
        queue_depth: 1,
        hold: Some(gate.clone()),
        ..base_cfg()
    };
    let server = ShardPool::start(one_shard(cfg));
    let handle = server.handle();
    let submit = |line: &str| match parse_request(line).expect("parse") {
        Request::Query(q) => handle.submit(q).wait().to_text(),
        _ => unreachable!(),
    };
    // Fill the queue while the gate is shut.
    let held = match parse_request("count h1 {x : 1 <= x <= 3}").expect("parse") {
        Request::Query(q) => handle.submit(q),
        _ => unreachable!(),
    };
    assert!(!held.is_done(), "h1 must be queued behind the gate");
    // A plain submit sheds...
    assert_eq!(
        submit("count h2 {x : 1 <= x <= 3}"),
        "SHED h2 retry_after_ms=50 reason=queue_full"
    );
    // ...while the retry helper opens the gate mid-backoff and lands.
    let opener = std::thread::spawn({
        let gate = gate.clone();
        move || {
            std::thread::sleep(Duration::from_millis(30));
            gate.open();
        }
    });
    let policy = RetryPolicy {
        max_attempts: 8,
        base_delay_ms: 20,
        max_delay_ms: 100,
    };
    let mut attempts = 0;
    let line = presburger_serve::submit_with_retry(&policy, "h3", || {
        attempts += 1;
        submit("count h3 {x : 1 <= x <= 3}")
    });
    assert_eq!(line, "OK h3 exact 3");
    assert!(attempts > 1, "the first attempt must have shed");
    opener.join().expect("opener");
    assert_eq!(held.wait().to_text(), "OK h1 exact 3");
    server.shutdown();
}

#[test]
fn verify_mode_detects_poisoned_cache_entries() {
    // Not a golden session: drive the verify path directly through the
    // public pool API by exercising a cache hit under verify_every=1
    // (every hit recomputed). A healthy cache must produce zero
    // mismatches; the alarm path is unit-tested via the stats counter.
    let cfg = ServeConfig {
        verify_every: Some(1),
        ..base_cfg()
    };
    let server = ShardPool::start(one_shard(cfg));
    let handle = server.handle();
    for id in ["v1", "v2", "v3"] {
        let line = format!("count {id} {{x : 1 <= x <= 6}}");
        let reply = match presburger_serve::parse_request(&line).expect("parse") {
            presburger_serve::Request::Query(q) => handle.submit(q).wait().to_text(),
            _ => unreachable!(),
        };
        assert_eq!(reply, format!("OK {id} exact 6"));
    }
    assert_eq!(stat(&handle, "cache_hits"), 2);
    assert_eq!(stat(&handle, "verify_mismatches"), 0);
    server.shutdown();
}

#[test]
fn a_cache_hit_needs_no_worker() {
    // The front door answers a hit from the routed shard's cache, so a
    // hit is answered while the shard's only worker is stuck. Closing
    // the gate sticks the worker within one job: it is either stopped
    // at the gate already or waiting for a job, in which case it
    // answers the filler w2 and then stops at the gate. A hit that had
    // to queue would wait behind w2 forever.
    let gate = Gate::new(false);
    let cfg = ServeConfig {
        hold: Some(gate.clone()),
        ..base_cfg()
    };
    let pool = ShardPool::start(one_shard(cfg));
    let handle = pool.handle();
    let submit = |line: &str| match parse_request(line).expect("parse") {
        Request::Query(q) => handle.submit(q),
        _ => unreachable!(),
    };
    assert_eq!(
        submit("count w1 {x : 1 <= x <= 9}").wait().to_text(),
        "OK w1 exact 9"
    );
    gate.close();
    let filler = submit("count w2 {y : 2 <= y <= 9}");
    // A second spelling of w1's formula, over a renamed variable.
    let hit = submit("count w3 {z : 1<=z&&z<=9}");
    let give_up = std::time::Instant::now() + Duration::from_secs(5);
    while !hit.is_done() {
        assert!(
            std::time::Instant::now() < give_up,
            "the cache hit waited for the held worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(hit.wait().to_text(), "OK w3 exact 9");
    gate.open();
    assert_eq!(filler.wait().to_text(), "OK w2 exact 8");
    assert_eq!(stat(&handle, "cache_hits"), 1);

    // After the drain, a hit is shed like any other request: its shed
    // is the only tally after the final drain `STATS` line.
    let drained = handle.drain();
    assert_eq!(
        submit("count w4 {x : 1 <= x <= 9}").wait().to_text(),
        "SHED w4 retry_after_ms=50 reason=draining"
    );
    let shed_drain = stat(&handle, "shed_drain");
    let want = drained.replace(
        &format!(" shed_drain={} ", shed_drain - 1),
        &format!(" shed_drain={shed_drain} "),
    );
    assert_eq!(handle.stats_line(), want, "final drain line: {drained}");
    pool.shutdown();
}

/// One counter off a one-shard pool's `STATS` line.
fn stat(handle: &PoolHandle, key: &str) -> u64 {
    let line = handle.stats_line();
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
}

#[test]
fn one_shard_pool_reports_a_healthy_shard() {
    // The `shards` verb on the stdio/calculator configuration: a
    // one-shard pool is an ordinary supervised shard, not a special
    // standalone row. (`inflight` can lag the reply by a moment — the
    // worker publishes before it finishes its bookkeeping — so the row
    // is checked field by field.)
    let pool = ShardPool::start(one_shard(base_cfg()));
    let handle = pool.handle();
    let reply = match parse_request("count h1 {x : 1 <= x <= 9}").expect("parse") {
        Request::Query(q) => handle.submit(q).wait().to_text(),
        _ => unreachable!(),
    };
    assert_eq!(reply, "OK h1 exact 9");
    let text = handle.shards_text();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "header, one row, EOF:\n{text}");
    assert_eq!(lines[0], "SHARDS shards=1");
    assert!(
        lines[1].starts_with("shard=0 state=healthy epoch=0 workers=1 alive=1 "),
        "row: {}",
        lines[1]
    );
    for field in [
        " routed=1 ",
        " rescued=0 ",
        " restarts=0 ",
        " admitted=1 ok=1 errors=0",
    ] {
        assert!(
            lines[1].contains(field),
            "missing {field:?} in {}",
            lines[1]
        );
    }
    assert_eq!(lines[2], "# EOF");
    pool.shutdown();
}
