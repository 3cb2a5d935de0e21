//! Binary wire codec: gen-driven round-trip properties, byte-soup
//! decode fuzzing, and text-vs-binary differential replay of the golden
//! serving sessions.
//!
//! The hard guarantee under test: for any request, the binary reply
//! decodes to byte-identical semantic content as the text reply. Every
//! differential below therefore runs the *same* scripted session twice
//! — once over the text codec, once over binary frames against an
//! identically-configured fresh server — and asserts the flattened
//! binary transcript equals the text transcript exactly.
//!
//! Environment knobs (used by `scripts/check.sh`'s `wire_gate`):
//! `PRESBURGER_WIRE_FUZZ_CASES` scales the byte-soup corpus (default
//! 200), `PRESBURGER_WIRE_SHARDS` picks the pool size for the
//! gen-stream differential (default 2). The binary hex golden is
//! re-recorded with `PRESBURGER_SERVE_RECORD=1`.

use presburger_counting::Budgets;
use presburger_gen::{batched_request_lines, request_lines, GenConfig};
use presburger_serve::server::Gate;
use presburger_serve::wire::{self, Reply};
use presburger_serve::{
    parse_request, Chaos, PoolTcpServer, Request, Ring, ServeConfig, ShardPool, ShardPoolConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// Replay-safe budgets (count-charged, never wall-clock): generated
/// formulas all terminate quickly with deterministic replies.
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

// ---------------------------------------------------------------------
// Round-trip properties over generated streams
// ---------------------------------------------------------------------

#[test]
fn gen_requests_round_trip_canonically() {
    let cfg = GenConfig::default();
    for r in request_lines(0xA11CE, 300, &cfg) {
        let req = parse_request(&r.line).expect("generated lines parse");
        let bytes = wire::encode_request(&req);
        let (decoded, used) = wire::decode_wire_request(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode failed: {e:?}", r.line));
        assert_eq!(used, bytes.len(), "{}: exact consumption", r.line);
        assert_eq!(decoded, wire::WireRequest::One(req), "{}", r.line);
        // Canonical: re-encoding the decoded value is byte-identical.
        assert_eq!(
            wire::encode_wire_request(&decoded).expect("re-encode"),
            bytes,
            "{}: non-canonical encoding",
            r.line
        );
        // The declared frame length is exact: with trailing bytes
        // appended, the decoder consumes precisely the original frame.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0xEE, 0xEE, 0xEE]);
        let (_, used) = wire::decode_wire_request(&padded).expect("decode ignores the tail");
        assert_eq!(used, bytes.len(), "{}: declared length drifted", r.line);
    }
}

#[test]
fn gen_batches_round_trip_canonically() {
    let cfg = GenConfig::default();
    for batch in batched_request_lines(0xB0B, 150, &cfg, wire::MAX_BATCH) {
        let reqs: Vec<Request> = batch
            .iter()
            .map(|r| parse_request(&r.line).expect("generated lines parse"))
            .collect();
        let frame = wire::encode_batch(&reqs).expect("within limits");
        let (decoded, used) = wire::decode_wire_request(&frame).expect("batch decodes");
        assert_eq!(used, frame.len());
        assert_eq!(decoded, wire::WireRequest::Batch(reqs));
        assert_eq!(
            wire::encode_wire_request(&decoded).expect("re-encode"),
            frame
        );
    }
}

#[test]
fn gen_replies_round_trip_through_text_and_bytes() {
    // Drive a real server over the generated stream so the reply corpus
    // is whatever the engine actually emits (exact, bounded, symbolic,
    // parse/unbounded errors) rather than hand-picked lines.
    let server = ShardPool::start(one_shard(ServeConfig {
        workers: 1,
        default_deadline_ms: None,
        default_budgets: replay_budgets(),
        breaker_failures: 0,
        ..ServeConfig::default()
    }));
    let handle = server.handle();
    let mut replies: Vec<Reply> = Vec::new();
    for r in request_lines(0xFACADE, 120, &GenConfig::default()) {
        let reply = match parse_request(&r.line).expect("generated lines parse") {
            Request::Query(q) => handle.submit(q).wait(),
            _ => unreachable!("gen emits queries only"),
        };
        let line = reply.to_text();
        assert!(
            !line.contains('\n') && (line.starts_with("OK ") || line.starts_with("ERR ")),
            "{}: a query answers with one OK or ERR line, got {line:?}",
            r.line
        );
        let bytes = reply.encode();
        let (decoded, used) = Reply::decode(&bytes).expect("reply decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, reply);
        assert_eq!(decoded.to_text(), line);
        assert_eq!(decoded.encode(), bytes, "non-canonical reply encoding");
        replies.push(reply);
    }
    server.shutdown();
    // And the whole corpus as gathered batch frames.
    for chunk in replies.chunks(wire::MAX_BATCH) {
        let batch = Reply::Batch(chunk.to_vec());
        let bytes = batch.encode();
        let (decoded, used) = Reply::decode(&bytes).expect("batch reply decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded.to_text(), batch.to_text());
        assert_eq!(decoded.encode(), bytes);
    }
}

// ---------------------------------------------------------------------
// Byte-soup fuzzing
// ---------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Asserts the decoders' total-function contract on one buffer: never a
/// panic, never an over-read, always a typed `wire` error on rejection.
fn assert_decoders_total(buf: &[u8], what: &str) {
    match wire::decode_wire_request(buf) {
        Ok((_, used)) => assert!(used <= buf.len(), "{what}: request over-read"),
        Err(e) => assert_eq!(e.kind, "wire", "{what}: untyped request error"),
    }
    match Reply::decode(buf) {
        Ok((_, used)) => assert!(used <= buf.len(), "{what}: reply over-read"),
        Err(e) => assert_eq!(e.kind, "wire", "{what}: untyped reply error"),
    }
}

#[test]
fn byte_soup_never_panics_the_decoders() {
    let cases = env_usize("PRESBURGER_WIRE_FUZZ_CASES", 200);
    let mut state = 0x5EED_CAFE_u64;

    // A small valid corpus to truncate and mutate: single frames, a
    // batch frame, and reply frames of every flavor.
    let mut corpus: Vec<Vec<u8>> = Vec::new();
    let reqs = [
        "count r1 {x : 1 <= x <= 9}",
        "sum r2 max_depth=4 2x + y {x,y : 1 <= x <= y <= 5}",
        "ping p1",
        "stats",
        "drain",
    ];
    for line in reqs {
        corpus.push(wire::encode_request(&parse_request(line).expect("parses")));
    }
    let batch: Vec<Request> = reqs[..2]
        .iter()
        .map(|l| parse_request(l).unwrap())
        .collect();
    corpus.push(wire::encode_batch(&batch).expect("batch encodes"));
    for reply in [
        Reply::exact("r1", "9"),
        Reply::bounded("r2", "budget", "3", "n + 17"),
        Reply::err("r3", "parse", "bad formula"),
        Reply::shed("r4", 50, "queue_full".to_string()),
        Reply::Pong {
            id: Some("p1".to_string()),
        },
        Reply::Stats {
            line: "STATS admitted=1 ok=1".to_string(),
        },
        Reply::Block {
            text: "SHARDS shards=1\nrow\n# EOF".to_string(),
        },
    ] {
        corpus.push(reply.encode());
    }

    // Truncations: every prefix of every corpus frame.
    for frame in &corpus {
        for cut in 0..frame.len() {
            assert_decoders_total(&frame[..cut], "truncation");
        }
    }

    // Bounded mutation loop: random byte soup, bit-flipped valid
    // frames, and oversized length prefixes — `cases` of each family.
    for i in 0..cases {
        state = splitmix64(state ^ i as u64);

        // Random bytes, 0..=96 long.
        let len = (state % 97) as usize;
        let mut soup = Vec::with_capacity(len);
        let mut s = state;
        for _ in 0..len {
            s = splitmix64(s);
            soup.push(s as u8);
        }
        assert_decoders_total(&soup, "byte soup");

        // One bit flipped somewhere in a valid frame.
        let frame = &corpus[(state >> 8) as usize % corpus.len()];
        let mut flipped = frame.clone();
        let bit = (state >> 16) as usize % (frame.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert_decoders_total(&flipped, "bit flip");

        // An oversized or near-limit declared length with no payload.
        let mut oversized = vec![frame[0]];
        let declared = wire::MAX_FRAME_LEN as u64 + (state % 1024);
        let mut v = declared;
        while v >= 0x80 {
            oversized.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        oversized.push(v as u8);
        assert_decoders_total(&oversized, "oversized length");
    }
}

// ---------------------------------------------------------------------
// Differential replay: golden sessions over the binary codec
// ---------------------------------------------------------------------

/// One scripted step: a request line and how many response *lines* to
/// await before sending the next (0 = fire and forget).
struct Step(&'static str, usize);

/// Runs a scripted text session against `addr` (the harness from
/// `tests/protocol.rs`): interactive awaits per step, then drains the
/// socket to EOF. Sleeps `settle_ms` before any `shards` step so
/// supervisor restarts have landed.
fn text_session(
    addr: std::net::SocketAddr,
    steps: &[Step],
    gate: Option<&Gate>,
    settle_ms: u64,
) -> String {
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
    if let Some(gate) = gate {
        std::thread::sleep(Duration::from_millis(100));
        gate.open();
    }
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to EOF");
    transcript.push_str(&rest);
    transcript
}

/// Runs the same scripted session over the binary codec and returns the
/// *flattened* text the reply frames decode to. Steps are the same
/// line/await-count scripts: a step is satisfied once its frames have
/// yielded `await_n` text lines (a multi-line block or a `BYE` tail is
/// one frame but several lines).
fn binary_session(
    addr: std::net::SocketAddr,
    steps: &[Step],
    gate: Option<&Gate>,
    settle_ms: u64,
) -> String {
    let stream = TcpStream::connect(addr).expect("connect loopback");
    let reader = stream.try_clone().expect("clone stream");
    let mut client = wire::BinClient::handshake(reader, stream).expect("handshake");
    let mut lines: Vec<String> = Vec::new();
    for Step(line, await_n) in steps {
        if *line == "shards" {
            std::thread::sleep(Duration::from_millis(settle_ms));
        }
        client
            .send(&parse_request(line).expect("script lines parse"))
            .expect("send frame");
        let mut got = 0usize;
        while got < *await_n {
            let reply = client.recv().expect("awaited reply");
            let text = reply.to_text();
            got += text.lines().count();
            lines.push(text);
        }
    }
    if let Some(gate) = gate {
        std::thread::sleep(Duration::from_millis(100));
        gate.open();
    }
    // Drain remaining frames until the server closes the connection.
    loop {
        match client.recv() {
            Ok(reply) => lines.push(reply.to_text()),
            Err(presburger_serve::ServeError::Io(e))
                if e.kind() == std::io::ErrorKind::UnexpectedEof =>
            {
                break
            }
            Err(e) => panic!("binary session tail failed: {e}"),
        }
    }
    if lines.is_empty() {
        String::new()
    } else {
        lines.join("\n") + "\n"
    }
}

/// A one-shard pool over `cfg`: the configuration every single-server
/// session runs.
fn one_shard(cfg: ServeConfig) -> ShardPoolConfig {
    ShardPoolConfig {
        shards: 1,
        shard_cfg: cfg,
        ..ShardPoolConfig::default()
    }
}

/// Asserts a session produces semantically identical transcripts over
/// both codecs, against identically-configured fresh one-shard pools;
/// returns the transcript.
fn assert_differential(
    label: &str,
    mk_cfg: impl Fn() -> ServeConfig,
    steps: &[Step],
    mk_gate: impl Fn(&ServeConfig) -> Option<Arc<Gate>>,
) -> String {
    let text_cfg = mk_cfg();
    let text_gate = mk_gate(&text_cfg);
    let server = PoolTcpServer::bind("127.0.0.1:0", one_shard(text_cfg)).expect("bind loopback");
    let text = text_session(server.addr(), steps, text_gate.as_deref(), 0);
    server.shutdown();

    let bin_cfg = mk_cfg();
    let bin_gate = mk_gate(&bin_cfg);
    let server = PoolTcpServer::bind("127.0.0.1:0", one_shard(bin_cfg)).expect("bind loopback");
    let binary = binary_session(server.addr(), steps, bin_gate.as_deref(), 0);
    server.shutdown();

    assert_eq!(
        text, binary,
        "{label}: binary replies are not semantically identical to text"
    );
    text
}

/// Deterministic base config mirroring the golden sessions.
fn base_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        default_deadline_ms: None,
        ..ServeConfig::default()
    }
}

/// The splinter-heavy Example 11 body (see `tests/protocol.rs`).
const SPLINTERY: &str = "exists beta : 3beta - alpha >= 0 && -3beta + alpha + 7 >= 0 \
                         && alpha - 2beta - 1 >= 0 && -alpha + 2beta + 5 >= 0";

fn splintery_line(id: &str) -> &'static str {
    Box::leak(format!("count {id} {{alpha : {SPLINTERY}}}").into_boxed_str())
}

#[test]
fn differential_normal_session() {
    let steps = [
        Step("ping", 1),
        Step("ping warmup", 1),
        Step("count c1 {x : 1 <= x <= 9}", 1),
        Step("count c2 {i,j : 1 <= i <= j <= 4}", 1),
        Step("sum c3 x {x : 1 <= x <= 4}", 1),
        Step("count c4 {x : 1 <= x <= n}", 1),
        Step("count c5 {x : 1 <= x <= 9}", 1),
        Step(
            Box::leak(format!("count c6 max_splinters=0 {{alpha : {SPLINTERY}}}").into_boxed_str()),
            1,
        ),
        Step("count c7 {x : x >= 0}", 1),
        Step("stats", 1),
        Step("drain", 0),
    ];
    assert_differential("normal", base_cfg, &steps, |_| None);
}

#[test]
fn differential_shed_session() {
    // The gate holds the worker while three pipelined counts hit a
    // 1-deep queue: one admitted, two shed in position — over either
    // codec.
    let steps = [
        Step("count s1 {x : 1 <= x <= 3}", 0),
        Step("count s2 {x : 1 <= x <= 3}", 0),
        Step("count s3 {x : 1 <= x <= 3}", 0),
        Step("drain", 0),
    ];
    // Each run gets its own fresh gate (built inside `mk_cfg`, handed
    // back out via `mk_gate`) so the text run's open cannot leak into
    // the binary run.
    let mk_cfg = || ServeConfig {
        queue_depth: 1,
        hold: Some(Gate::new(true)),
        ..base_cfg()
    };
    assert_differential("shed", mk_cfg, &steps, |cfg| cfg.hold.clone());
}

#[test]
fn differential_breaker_sessions() {
    // Breaker-open: a 1-strike breaker with an effectively infinite
    // cooldown degrades everything after the first fault.
    let open_steps = [
        Step(splintery_line("b1"), 1),
        Step(splintery_line("b2"), 1),
        Step("count b3 {x : 1 <= x <= 9}", 1),
        Step("stats", 1),
        Step("drain", 0),
    ];
    assert_differential(
        "breaker-open",
        || ServeConfig {
            breaker_failures: 1,
            breaker_cooldown_ms: 3_600_000,
            fault_spec: Some("splinters_generated:1:panic".to_string()),
            cache_entries: 0,
            ..base_cfg()
        },
        &open_steps,
        |_| None,
    );

    // Breaker-recovery: zero cooldown, a clean probe closes it again.
    let recovery_steps = [
        Step(splintery_line("r1"), 1),
        Step("count r2 {x : 1 <= x <= 9}", 1),
        Step("count r3 {x : 2 <= x <= 9}", 1),
        Step("stats", 1),
        Step("drain", 0),
    ];
    assert_differential(
        "breaker-recovery",
        || ServeConfig {
            breaker_failures: 1,
            breaker_cooldown_ms: 0,
            fault_spec: Some("splinters_generated:1:panic".to_string()),
            cache_entries: 0,
            ..base_cfg()
        },
        &recovery_steps,
        |_| None,
    );
}

#[test]
fn differential_eviction_session() {
    // Admission-time (deadline_ms=0) and pop-time (deadline_ms=1 behind
    // a held worker) eviction produce the same `OK … bounded evicted`
    // replies over either codec; the varint deadline override survives
    // the binary frame. An evicted query whose formula does not parse
    // is rescued with its parse error, tallied under `errors`.
    let steps = [
        Step("count e0 deadline_ms=0 {x : 1 <= x <= 9}", 1),
        Step("count e3 deadline_ms=0 {x : 1 <=}", 1),
        Step("count e1 deadline_ms=1 {x : 1 <= x <= 9}", 0),
        Step("count e2 {x : 1 <= x <= 9}", 0),
        Step("drain", 0),
    ];
    let mk_cfg = || ServeConfig {
        hold: Some(Gate::new(true)),
        ..base_cfg()
    };
    let text = assert_differential("eviction", mk_cfg, &steps, |cfg| cfg.hold.clone());
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "OK e0 bounded evicted 9 ; 9");
    assert!(lines[1].starts_with("ERR e3 parse "), "got {:?}", lines[1]);
    assert!(
        lines[4].starts_with("STATS admitted=4 ok=3 errors=1 "),
        "got {:?}",
        lines[4]
    );
}

/// Deterministic 2-shard pool config (the `tests/protocol.rs` harness).
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

fn routed_shard(line: &str) -> usize {
    match parse_request(line).expect("parse") {
        Request::Query(q) => Ring::new(2).route(presburger_serve::routing_hash(&q)),
        _ => unreachable!(),
    }
}

/// Text-vs-binary differential over a `PoolTcpServer` session.
fn assert_pool_differential(
    label: &str,
    mk_cfg: impl Fn() -> ShardPoolConfig,
    steps: &[Step],
    settle_ms: u64,
) {
    let server = PoolTcpServer::bind("127.0.0.1:0", mk_cfg()).expect("bind loopback");
    let text = text_session(server.addr(), steps, None, settle_ms);
    server.shutdown();

    let server = PoolTcpServer::bind("127.0.0.1:0", mk_cfg()).expect("bind loopback");
    let binary = binary_session(server.addr(), steps, None, settle_ms);
    server.shutdown();

    assert_eq!(
        text, binary,
        "{label}: binary replies are not semantically identical to text"
    );
}

#[test]
fn differential_shard_kill_failover_session() {
    let k1 = "count k1 {x : 1 <= x <= 9}";
    let armed = routed_shard(k1);
    let steps = [
        Step(k1, 1),
        Step("shards", 4),
        Step("count k3 {x : 1 <= x <= 9}", 1),
        Step("drain", 0),
    ];
    assert_pool_differential(
        "shard-kill-failover",
        || ShardPoolConfig {
            chaos: Some(Arc::new(
                Chaos::parse(&format!("kill:{armed}:1")).expect("chaos spec"),
            )),
            ..pool_base_cfg()
        },
        &steps,
        400,
    );
}

#[test]
fn differential_shard_wedge_restart_session() {
    let w1 = "count w1 {x : 2 <= x <= 9}";
    let armed = routed_shard(w1);
    let steps = [
        Step(w1, 1),
        Step("shards", 4),
        Step("count w3 {x : 2 <= x <= 9}", 1),
        Step("drain", 0),
    ];
    assert_pool_differential(
        "shard-wedge-restart",
        || ShardPoolConfig {
            wedge_timeout_ms: 150,
            chaos: Some(Arc::new(
                Chaos::parse(&format!("wedge:{armed}:1")).expect("chaos spec"),
            )),
            ..pool_base_cfg()
        },
        &steps,
        400,
    );
}

/// Blocks until every generated request has been routed to a shard
/// queue (workers are gate-held, so nothing has been popped yet).
fn await_all_queued(handle: &presburger_serve::PoolHandle, n: usize) {
    for _ in 0..10_000 {
        let routed: u64 = handle.shard_rows().iter().map(|r| r.routed).sum();
        if routed as usize >= n {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("requests never finished queueing");
}

#[test]
fn differential_gen_stream_over_pool() {
    // The generated request stream, replayed as pipelined text and as
    // binary batch frames, against `PRESBURGER_WIRE_SHARDS`-shard pools
    // (`wire_gate` runs this at 1 and 4). Batched replies must flatten
    // to exactly the text transcript, drain tail included. Workers are
    // gate-held until everything is queued in BOTH runs so the drain
    // stats (`queue_depth_peak` in particular) are deterministic.
    let shards = env_usize("PRESBURGER_WIRE_SHARDS", 2).max(1);
    let n = 80;
    let cfg = GenConfig::default();
    let requests = request_lines(0xD1FF, n, &cfg);
    let mk_cfg = |gate: Arc<Gate>| ShardPoolConfig {
        shards,
        shard_cfg: ServeConfig {
            workers: 1,
            queue_depth: n + 8,
            default_deadline_ms: None,
            default_budgets: replay_budgets(),
            breaker_failures: 0,
            hold: Some(gate),
            ..ServeConfig::default()
        },
        probe_interval_ms: 2,
        restart_backoff_ms: 10,
        rescue_after_ms: 60_000,
        ..ShardPoolConfig::default()
    };

    let gate = Gate::new(true);
    let server = PoolTcpServer::bind("127.0.0.1:0", mk_cfg(gate.clone())).expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for r in &requests {
        writeln!(stream, "{}", r.line).expect("write");
    }
    stream.flush().expect("flush");
    await_all_queued(&server.handle(), n);
    gate.open();
    let mut text = String::new();
    for _ in 0..n {
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        text.push_str(&response);
    }
    writeln!(stream, "drain").expect("drain");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain tail");
    text.push_str(&rest);
    server.shutdown();

    let gate = Gate::new(true);
    let server = PoolTcpServer::bind("127.0.0.1:0", mk_cfg(gate.clone())).expect("bind loopback");
    let tcp = TcpStream::connect(server.addr()).expect("connect");
    let reader = tcp.try_clone().expect("clone");
    let mut client = wire::BinClient::handshake(reader, tcp).expect("handshake");
    let batches = batched_request_lines(0xD1FF, n, &cfg, 16);
    for batch in &batches {
        let reqs: Vec<Request> = batch
            .iter()
            .map(|r| parse_request(&r.line).expect("parses"))
            .collect();
        client.send_batch(&reqs).expect("send batch");
    }
    await_all_queued(&server.handle(), n);
    gate.open();
    let mut lines: Vec<String> = Vec::new();
    for _ in 0..batches.len() {
        lines.push(client.recv().expect("batch reply").to_text());
    }
    client
        .send(&parse_request("drain").expect("parses"))
        .expect("send drain");
    lines.push(client.recv().expect("bye").to_text());
    server.shutdown();
    let binary = lines.join("\n") + "\n";

    assert_eq!(
        text, binary,
        "gen-stream differential at {shards} shards: binary != text"
    );
}

#[test]
fn batch_partial_shed_is_positional() {
    // A 4-request batch frame against a 2-deep gated queue: the first
    // two inner requests are admitted, the rest shed *in position* —
    // the batch reply keeps one answer per inner request, in order. At
    // 2 shards the four queries (one formula) all route to one shard,
    // whose group is admitted under one queue-lock reservation.
    for shards in [1, 2] {
        let gate = Gate::new(true);
        let cfg = ShardPoolConfig {
            shards,
            shard_cfg: ServeConfig {
                queue_depth: 2,
                hold: Some(gate.clone()),
                ..base_cfg()
            },
            ..ShardPoolConfig::default()
        };
        let server = PoolTcpServer::bind("127.0.0.1:0", cfg).expect("bind loopback");
        let tcp = TcpStream::connect(server.addr()).expect("connect");
        let reader = tcp.try_clone().expect("clone");
        let mut client = wire::BinClient::handshake(reader, tcp).expect("handshake");
        let reqs: Vec<Request> = (0..4)
            .map(|i| parse_request(&format!("count q{i} {{x : 1 <= x <= 3}}")).expect("parses"))
            .collect();
        client.send_batch(&reqs).expect("send batch");
        std::thread::sleep(Duration::from_millis(50));
        gate.open();
        let reply = client.recv().expect("batch reply");
        let lines: Vec<String> = reply.to_text().lines().map(str::to_string).collect();
        assert_eq!(
            lines.len(),
            4,
            "shards={shards}: one answer per inner request"
        );
        assert_eq!(lines[0], "OK q0 exact 3", "shards={shards}");
        assert_eq!(lines[1], "OK q1 exact 3", "shards={shards}");
        assert_eq!(
            lines[2], "SHED q2 retry_after_ms=50 reason=queue_full",
            "shards={shards}"
        );
        assert_eq!(
            lines[3], "SHED q3 retry_after_ms=50 reason=queue_full",
            "shards={shards}"
        );
        server.shutdown();
    }
}

// ---------------------------------------------------------------------
// Binary hex golden
// ---------------------------------------------------------------------

/// Reads one reply frame's raw bytes off the socket (accumulating into
/// `buf`), so the golden pins the server's actual wire bytes rather
/// than a re-encoding.
fn read_raw_reply(stream: &mut TcpStream, buf: &mut Vec<u8>, pos: &mut usize) -> Reply {
    loop {
        if let Ok((reply, used)) = Reply::decode(&buf[*pos..]) {
            *pos += used;
            return reply;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read reply bytes");
        assert!(n > 0, "eof before a complete reply frame");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn hex_lines(bytes: &[u8]) -> String {
    let mut out = String::new();
    for chunk in bytes.chunks(32) {
        for b in chunk {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

#[test]
fn golden_binary_normal_session() {
    // An interactive binary session whose raw reply byte stream —
    // preamble echo plus every reply frame — is pinned as a hexdump.
    // Interactive awaits keep `queue_depth_peak` deterministic; the
    // batch step's atomic admission is deterministic too: g2 and g3
    // queue 2 deep, while g4, a cache hit, is answered at the front
    // door and never queues.
    // Re-record with PRESBURGER_SERVE_RECORD=1.
    let server = PoolTcpServer::bind("127.0.0.1:0", one_shard(base_cfg())).expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(&wire::preamble())
        .expect("send client preamble");

    let mut raw: Vec<u8> = Vec::new();
    // Preamble echo.
    while raw.len() < 3 {
        let mut chunk = [0u8; 64];
        let n = stream.read(&mut chunk).expect("read preamble echo");
        assert!(n > 0, "eof before the preamble echo");
        raw.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(raw[..3], wire::preamble(), "server preamble");
    let mut pos = 3usize;

    for line in ["ping g0", "count g1 {x : 1 <= x <= 9}"] {
        stream
            .write_all(&wire::encode_request(&parse_request(line).expect("parses")))
            .expect("send frame");
        read_raw_reply(&mut stream, &mut raw, &mut pos);
    }
    let batch: Vec<Request> = [
        "count g2 {i,j : 1 <= i <= j <= 4}",
        "sum g3 x {x : 1 <= x <= 4}",
        "count g4 {x : 1 <= x <= 9}", // cache hit on g1's entry
    ]
    .iter()
    .map(|l| parse_request(l).expect("parses"))
    .collect();
    stream
        .write_all(&wire::encode_batch(&batch).expect("encodes"))
        .expect("send batch");
    read_raw_reply(&mut stream, &mut raw, &mut pos);
    for line in ["stats", "drain"] {
        stream
            .write_all(&wire::encode_request(&parse_request(line).expect("parses")))
            .expect("send frame");
        read_raw_reply(&mut stream, &mut raw, &mut pos);
    }
    // The server closes after the drain reply.
    let mut tail = Vec::new();
    stream.read_to_end(&mut tail).expect("read close");
    raw.extend_from_slice(&tail);
    assert_eq!(pos, raw.len(), "undecoded trailing reply bytes");
    server.shutdown();

    let got = hex_lines(&raw);
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/wire/normal_session.hex"
    );
    if std::env::var("PRESBURGER_SERVE_RECORD").is_ok() {
        std::fs::write(golden, &got).expect("record golden");
        println!("recorded {golden}");
        return;
    }
    let want =
        std::fs::read_to_string(golden).expect("golden recorded (PRESBURGER_SERVE_RECORD=1)");
    assert_eq!(got, want, "binary wire bytes drifted from the golden");
}
