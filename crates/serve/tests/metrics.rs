//! Telemetry integration tests: the Prometheus exposition golden
//! (stable label ordering), the flight-recorder fault drill, the JSONL
//! event log, and the `metrics`/`flightrec` wire verbs.
//!
//! The exposition golden lives in `tests/golden/metrics.prom` with
//! every sample value masked to `V` (latencies vary run to run; the
//! *series set, label ordering, and line structure* must not). To
//! re-record after an intentional exposition change:
//! `PRESBURGER_SERVE_RECORD=1 cargo test -p presburger-serve --test
//! metrics` rewrites the golden in place.

use presburger_serve::{
    parse_request, PoolHandle, PoolTcpServer, Request, ServeConfig, ShardPool, ShardPoolConfig,
    TelemetrySettings,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Deterministic base config: one worker, no wall-clock deadline.
fn base_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        default_deadline_ms: None,
        ..ServeConfig::default()
    }
}

/// A one-shard pool over `cfg`.
fn one_shard(cfg: ServeConfig) -> ShardPoolConfig {
    ShardPoolConfig {
        shards: 1,
        shard_cfg: cfg,
        ..ShardPoolConfig::default()
    }
}

/// Submits one request line and waits for its reply.
fn ask(handle: &PoolHandle, line: &str) -> String {
    match parse_request(line).expect("request parses") {
        Request::Query(q) => handle.submit(q).wait().to_text(),
        _ => panic!("ask() is for queries"),
    }
}

/// The splinter-heavy Example 11 body (same one the protocol goldens
/// use): a `splinters_generated` fault or budget always trips on it.
const SPLINTERY: &str = "exists beta : 3beta - alpha >= 0 && -3beta + alpha + 7 >= 0 \
                         && alpha - 2beta - 1 >= 0 && -alpha + 2beta + 5 >= 0";

/// Masks every sample value in a Prometheus exposition: the text after
/// the last space on each non-comment line becomes `V`. Structure —
/// metric names, labels, bucket bounds, ordering — is untouched.
fn mask_values(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            out.push_str(line);
        } else if let Some(pos) = line.rfind(' ') {
            out.push_str(&line[..pos]);
            out.push_str(" V");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn golden_metrics_exposition() {
    // One deterministic request per {verb, outcome} series: exact,
    // cache hit, sum, budget-bounded, parse error, then a post-drain
    // shed. Values that depend on wall time are masked; everything
    // else — which series exist, their label order, all 32 cumulative
    // bucket lines per series — is pinned byte-for-byte.
    let server = ShardPool::start(one_shard(base_cfg()));
    let handle = server.handle();
    assert_eq!(ask(&handle, "count m1 {x : 1 <= x <= 9}"), "OK m1 exact 9");
    assert_eq!(ask(&handle, "count m2 {x : 1 <= x <= 9}"), "OK m2 exact 9");
    assert_eq!(ask(&handle, "sum m3 x {x : 1 <= x <= 4}"), "OK m3 exact 10");
    assert_eq!(
        ask(
            &handle,
            &format!("count m4 max_splinters=0 {{alpha : {SPLINTERY}}}")
        ),
        "OK m4 bounded budget 25 ; 25"
    );
    assert!(ask(&handle, "count m5 {x : 1 <=}").starts_with("ERR m5 parse"));
    handle.drain();
    assert!(ask(&handle, "count m6 {x : 1 <= x <= 9}").starts_with("SHED m6"));

    let text = handle.metrics_text();
    // The labeled counter family is fully deterministic: one request
    // per series, in stable declaration order.
    for want in [
        "presburger_requests_total{verb=\"count\",outcome=\"ok\"} 1",
        "presburger_requests_total{verb=\"count\",outcome=\"bounded\"} 1",
        "presburger_requests_total{verb=\"count\",outcome=\"shed\"} 1",
        "presburger_requests_total{verb=\"count\",outcome=\"err\"} 1",
        "presburger_requests_total{verb=\"count\",outcome=\"cache_hit\"} 1",
        "presburger_requests_total{verb=\"sum\",outcome=\"ok\"} 1",
    ] {
        assert!(text.contains(want), "missing {want:?} in:\n{text}");
    }
    // Histogram invariants: buckets are cumulative, +Inf equals _count.
    assert!(text.contains(
        "presburger_request_duration_us_bucket{verb=\"count\",outcome=\"ok\",le=\"+Inf\"} 1"
    ));
    assert!(text.contains("presburger_request_duration_us_count{verb=\"count\",outcome=\"ok\"} 1"));
    assert!(text.ends_with("# EOF"));
    // The memo totals are process-wide (other tests in this binary may
    // bump them between two renders), so stability is asserted on the
    // masked form: series set, label order, and line structure.
    assert_eq!(
        mask_values(&text),
        mask_values(&handle.metrics_text()),
        "exposition structure must be stable"
    );
    for want in [
        "# TYPE presburger_memo_hits_total counter",
        "# TYPE presburger_memo_misses_total counter",
        "# TYPE presburger_memo_shared_entries gauge",
        "# TYPE presburger_memo_shared_bytes gauge",
    ] {
        assert!(text.contains(want), "missing {want:?} in:\n{text}");
    }
    // Admission families (DESIGN.md §16): every request above rode the
    // default batch lane; the post-drain shed is a drain decision.
    for want in [
        "# TYPE presburger_admission_total counter",
        "presburger_admission_total{lane=\"batch\",decision=\"admit\"}",
        "presburger_admission_total{lane=\"batch\",decision=\"shed_drain\"} 1",
        "# TYPE presburger_lane_queue_wait_us histogram",
        "# TYPE presburger_lane_service_us histogram",
    ] {
        assert!(text.contains(want), "missing {want:?} in:\n{text}");
    }

    let masked = mask_values(&text);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var("PRESBURGER_SERVE_RECORD").is_ok() {
        std::fs::write(golden_path, &masked).expect("record golden");
    } else {
        let want = std::fs::read_to_string(golden_path).expect("golden exists");
        assert_eq!(
            masked, want,
            "masked exposition drifted from tests/golden/metrics.prom \
             (re-record with PRESBURGER_SERVE_RECORD=1 if intentional)"
        );
    }
    server.shutdown();
}

#[test]
fn flight_recorder_captures_faulted_request() {
    // The check.sh drill: with PRESBURGER_FAULT=splinters_generated:1
    // armed process-wide (or the equivalent hermetic fault_spec when
    // run standalone), a splintery request trips the governor and the
    // flight recorder must retain the full evidence. The latency
    // threshold is pushed out of reach so the governor trip is the
    // only possible trigger.
    let env_fault = std::env::var("PRESBURGER_FAULT").is_ok();
    let cfg = ServeConfig {
        fault_spec: (!env_fault).then(|| "splinters_generated:1".to_string()),
        telemetry: TelemetrySettings {
            flight_threshold_us: u64::MAX,
            // Span capture is opt-in (it stands the memo down); this
            // drill asserts the retained span tree, so turn it on.
            capture_spans: true,
            ..TelemetrySettings::default()
        },
        ..base_cfg()
    };
    let server = ShardPool::start(one_shard(cfg));
    let handle = server.handle();
    // A clean request first: no splinters, so the fault cannot fire and
    // nothing may be flight-recorded for it.
    assert_eq!(
        ask(&handle, "count ok1 {x : 1 <= x <= 9}"),
        "OK ok1 exact 9"
    );
    let reply = ask(&handle, &format!("count f1 {{alpha : {SPLINTERY}}}"));
    assert!(
        reply.starts_with("OK f1 bounded") || reply.starts_with("ERR f1"),
        "faulted request must trip, got {reply:?}"
    );
    server.shutdown(); // barrier: telemetry for both requests is recorded

    let dump = handle.flight_dump();
    assert!(dump.contains("\"id\":\"f1\""), "dump was:\n{dump}");
    assert!(!dump.contains("\"id\":\"ok1\""), "dump was:\n{dump}");
    assert!(dump.ends_with("# EOF"));
    let record = dump
        .lines()
        .find(|l| l.contains("\"id\":\"f1\""))
        .expect("f1 record");
    assert!(record.contains("\"governor_tripped\":true"));
    assert!(record.contains("\"trigger\":\"governor_trip\""));
    assert!(
        record.contains("\"governor_trips\":"),
        "counter delta attached"
    );
    assert!(record.contains("alpha"), "rendered formula retained");
    assert!(record.contains("\"spans\":"), "span tree retained");
    assert_eq!(handle.request_metrics().flight_records(), 1);
}

#[test]
fn event_log_writes_sampled_jsonl() {
    let path = std::env::temp_dir().join(format!(
        "presburger_events_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let cfg = ServeConfig {
        telemetry: TelemetrySettings {
            event_log: Some(path.to_string_lossy().into_owned()),
            event_sample: 2,
            ..TelemetrySettings::default()
        },
        ..base_cfg()
    };
    let server = ShardPool::start(one_shard(cfg));
    let handle = server.handle();
    for i in 1..=4 {
        let reply = ask(&handle, &format!("count e{i} {{x : 1 <= x <= {i}}}"));
        assert_eq!(reply, format!("OK e{i} exact {i}"));
    }
    server.shutdown(); // flushes and joins the event-log writer

    let text = std::fs::read_to_string(&path).expect("event log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "sample=2 logs every other request:\n{text}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL: {line}"
        );
        assert!(line.contains("\"verb\":\"count\""));
        assert!(line.contains("\"outcome\":\"ok\""));
        assert!(line.contains("\"counters\":{"));
    }
    // With one worker, sampling by sequence number is deterministic:
    // seq 0 (e1) and seq 2 (e3).
    assert!(lines[0].contains("\"id\":\"e1\""));
    assert!(lines[1].contains("\"id\":\"e3\""));
    assert_eq!(handle.request_metrics().events_dropped(), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_and_flightrec_verbs_over_tcp() {
    // The wire path: `metrics` and `flightrec` answer inline with
    // multi-line, `# EOF`-terminated blocks, interleaved FIFO with
    // query replies on the same connection.
    let server = PoolTcpServer::bind("127.0.0.1:0", one_shard(base_cfg())).expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    writeln!(stream, "count t1 {{x : 1 <= x <= 7}}").expect("write");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert_eq!(reply.trim_end(), "OK t1 exact 7");

    for verb in ["metrics", "stats/v2", "flightrec"] {
        writeln!(stream, "{verb}").expect("write");
        let mut block = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read block line");
            let done = line.trim_end() == "# EOF";
            block.push_str(&line);
            if done {
                break;
            }
        }
        if verb != "flightrec" {
            assert!(
                block.contains("# TYPE presburger_request_duration_us histogram"),
                "{verb} block was:\n{block}"
            );
            assert!(block.contains("presburger_requests_total{"));
        }
    }
    writeln!(stream, "drain").expect("write drain");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain tail");
    assert!(rest.contains("BYE"));
    server.shutdown();
}
