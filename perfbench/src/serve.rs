//! The serving path over real loopback sockets: the default shard pool,
//! the text codec, and the binary codec through `wire::BinClient`.

use crate::inputs::Instance;
use crate::report::{
    affinity, cpu_seconds, mean, peak_rss_mb, Json, Mark, Measured, Metrics, Recorder, Spans,
    Tally, Verdict,
};
use presburger::serve::wire::{self, BinClient, Reply};
use presburger::serve::{
    parse_request, routing_hash, PoolTcpServer, Query, Request, ServeConfig, ShardPoolConfig,
    TelemetrySettings,
};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// The default pool (2 shards × 1 worker), with the settings whose
/// defaults read the environment spelled out: no chaos, no fault, and
/// the event log only where a traced run asks for it.
pub fn pool_config(event_log: Option<&Path>) -> ShardPoolConfig {
    ShardPoolConfig {
        chaos: None,
        shard_cfg: ServeConfig {
            fault_spec: None,
            telemetry: TelemetrySettings {
                event_log: event_log.map(|p| p.display().to_string()),
                event_sample: 1,
                ..TelemetrySettings::default()
            },
            ..ServeConfig::default()
        },
        ..ShardPoolConfig::default()
    }
}

pub fn bind(event_log: Option<&Path>) -> Result<PoolTcpServer, String> {
    PoolTcpServer::bind("127.0.0.1:0", pool_config(event_log)).map_err(|e| e.to_string())
}

/// One client connection, either codec.
pub enum Client {
    Text {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    },
    Binary(BinClient<TcpStream, TcpStream>),
}

fn io(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Client {
    pub fn connect(addr: SocketAddr, binary: bool) -> Result<Client, String> {
        Client::over(TcpStream::connect(addr).map_err(io)?, binary)
    }

    fn over(stream: TcpStream, binary: bool) -> Result<Client, String> {
        // A wedged server fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(io)?;
        let other = stream.try_clone().map_err(io)?;
        Ok(if binary {
            Client::Binary(BinClient::handshake(other, stream).map_err(io)?)
        } else {
            Client::Text {
                writer: stream,
                reader: BufReader::new(other),
            }
        })
    }

    /// Sends one request and returns its reply in text-protocol form.
    /// `line` is the text form, newline included, written in one call.
    pub fn call(&mut self, line: &str, req: &Request) -> Result<String, String> {
        self.send(line, req)?;
        self.recv(req)
    }

    fn send(&mut self, line: &str, req: &Request) -> Result<(), String> {
        match self {
            Client::Text { writer, .. } => writer.write_all(line.as_bytes()).map_err(io),
            Client::Binary(c) => c.send(req).map_err(io),
        }
    }

    /// The reply to `req`, in text-protocol form.
    fn recv(&mut self, req: &Request) -> Result<String, String> {
        match self {
            Client::Text { reader, .. } => {
                let block = matches!(req, Request::Metrics | Request::FlightRec | Request::Shards);
                let mut out = String::new();
                loop {
                    let mut l = String::new();
                    if reader.read_line(&mut l).map_err(io)? == 0 {
                        return Err("connection closed".to_string());
                    }
                    let l = l.trim_end_matches(['\n', '\r']);
                    if !block {
                        return Ok(l.to_string());
                    }
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    out.push_str(l);
                    if l == "# EOF" {
                        return Ok(out);
                    }
                }
            }
            Client::Binary(c) => Ok(c.recv().map_err(io)?.to_text()),
        }
    }
}

/// A request template: one instance, any id.
pub struct Template {
    body: String,
    query: Query,
}

impl Template {
    pub fn new(inst: &Instance) -> Template {
        let body = inst.body();
        match parse_request(&inst.line("t")) {
            Ok(Request::Query(query)) => Template { body, query },
            other => panic!("benchmark request {body:?} does not parse: {other:?}"),
        }
    }

    /// The text line (newline included) and the typed request for `id`.
    pub fn request(&self, id: &str) -> (String, Request) {
        let line = format!("count {id} {}\n", self.body);
        let query = Query {
            id: id.to_string(),
            ..self.query.clone()
        };
        (line, Request::Query(query))
    }
}

/// `reply` against `OK <id> exact <payload>`, byte for byte.
pub fn verdict(reply: &str, id: &str, payload: &str) -> Verdict {
    let exact = reply
        .strip_prefix("OK ")
        .and_then(|r| r.strip_prefix(id))
        .and_then(|r| r.strip_prefix(" exact "));
    match exact {
        Some(value) if value == payload => Verdict::Ok,
        Some(_) => Verdict::Wrong,
        None => Verdict::Failed,
    }
}

/// The `exact` payload a server must send for a library answer.
pub fn payload(answer_text: &str) -> String {
    presburger::serve::protocol::sanitize(answer_text)
}

/// What a closed loop measured: round trips, windowed.
pub struct Closed {
    pub measured: Measured,
    pub tally: Tally,
}

impl Closed {
    pub fn rtts_us(&self) -> Vec<f64> {
        self.measured
            .latencies_ms
            .iter()
            .map(|ms| ms * 1e3)
            .collect()
    }
}

/// Sends `reqs[j]` on `clients[j]`, then reads every reply in turn, so
/// each connection has one request in flight. Returns each reply with
/// its send and reply instants.
fn round(
    clients: &mut [Client],
    reqs: &[(String, Request)],
) -> Result<Vec<(String, Instant, Instant)>, String> {
    let mut sent = Vec::with_capacity(reqs.len());
    for (client, (line, req)) in clients.iter_mut().zip(reqs) {
        sent.push(Instant::now());
        client.send(line, req)?;
    }
    clients
        .iter_mut()
        .zip(reqs)
        .zip(sent)
        .map(|((client, (_, req)), t0)| {
            let reply = client.recv(req)?;
            Ok((reply, t0, Instant::now()))
        })
        .collect()
}

/// A closed loop on every connection of `clients` for `seconds`: each
/// round sends one `templates[pick()]` request per connection and waits
/// for all their replies, checking each against `payloads`. Ids are
/// `<prefix><n>`.
pub fn closed_loop(
    clients: &mut [Client],
    seconds: f64,
    templates: &[Template],
    payloads: &[String],
    prefix: &str,
    mut pick: impl FnMut() -> usize,
    mut spans: Option<&mut Spans>,
) -> Closed {
    let mut tally = Tally::default();
    let mut rec = Recorder::start();
    while rec.elapsed_s() < seconds {
        let first = rec.ops();
        let picks: Vec<(usize, String)> = (first..first + clients.len())
            .map(|n| (pick(), format!("{prefix}{n}")))
            .collect();
        let reqs: Vec<(String, Request)> = picks
            .iter()
            .map(|(k, id)| templates[*k].request(id))
            .collect();
        match round(clients, &reqs) {
            Ok(replies) => {
                for ((k, id), (reply, t0, t1)) in picks.iter().zip(replies) {
                    let n = rec.ops() as u64;
                    rec.op((t1 - t0).as_secs_f64() * 1e3);
                    tally.add(verdict(&reply, id, &payloads[*k]));
                    if let Some(spans) = spans.as_deref_mut() {
                        spans.record(n, "serve.request", None, t0, t1);
                    }
                }
            }
            Err(e) => {
                eprintln!("perfbench: requests {prefix}{first}.. failed: {e}");
                tally.add(Verdict::Failed);
                break;
            }
        }
        rec.maybe_mark();
    }
    Closed {
        measured: rec.finish(),
        tally,
    }
}

/// Sends every template once on every connection, unmeasured, checking
/// the replies.
pub fn warm_up(clients: &mut [Client], templates: &[Template], payloads: &[String]) -> Tally {
    let mut tally = Tally::default();
    for (k, t) in templates.iter().enumerate() {
        let ids: Vec<String> = (0..clients.len()).map(|j| format!("w{k}-{j}")).collect();
        let reqs: Vec<(String, Request)> = ids.iter().map(|id| t.request(id)).collect();
        match round(clients, &reqs) {
            Ok(replies) => {
                for (id, (reply, ..)) in ids.iter().zip(replies) {
                    tally.add(verdict(&reply, id, &payloads[k]));
                }
            }
            Err(e) => {
                eprintln!("perfbench: warm-up requests w{k}-* failed: {e}");
                tally.add(Verdict::Failed);
            }
        }
    }
    tally
}

/// What an open loop measured.
pub struct Open {
    /// Latency from each request's scheduled send time, in windows of one
    /// second's worth of replies, cut at reply times: throughput is
    /// replies per second of reply time, so it drops below the offered
    /// rate when the server falls behind.
    pub measured: Measured,
    /// Actual send time minus scheduled send time.
    pub late_ms: Vec<f64>,
    /// Actual send and reply instants, per request.
    pub exchanges: Vec<(Instant, Instant)>,
    pub replies: Vec<String>,
}

impl Open {
    /// Reply time minus actual send time, per request.
    pub fn rtts_us(&self) -> Vec<f64> {
        self.exchanges
            .iter()
            .map(|&(sent, replied)| (replied - sent).as_secs_f64() * 1e6)
            .collect()
    }
}

/// Asks the kernel to acknowledge data received on `stream` at once.
/// Linux leaves quick-ack mode by itself, so a reader re-arms it after
/// every read.
#[cfg(target_os = "linux")]
fn quickack(stream: &TcpStream) -> Result<(), String> {
    use std::ffi::{c_int, c_void};
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    const IPPROTO_TCP: c_int = 6;
    const TCP_QUICKACK: c_int = 12;
    let on: c_int = 1;
    // SAFETY: the descriptor belongs to `stream`, which outlives the
    // call, and `on` is a readable `int` of the length passed.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(())
}

/// Sends `reqs` over one binary connection at `rate` per second on a
/// fixed schedule, from a sender thread, while a receiver thread reads
/// the in-order replies; both threads run on CPU `cpu`.
///
/// The receiver acknowledges every reply at once. The server does not
/// disable Nagle's algorithm, so with delayed ACKs one reply later than
/// the send period makes the server hold each following reply until the
/// client's next request carries the ACK: a stall that then persists,
/// and that put the median latency at 2.3 ms in some runs and at one
/// send period (6.8 ms) in others. `serve-hot-text` shows that cost.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Request],
    rate: f64,
    cpu: usize,
) -> Result<Open, String> {
    let frames: Vec<Vec<u8>> = reqs.iter().map(wire::encode_request).collect();
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    let mut writer = stream.try_clone().map_err(io)?;
    let ack = stream.try_clone().map_err(io)?;
    let mut client = BinClient::handshake(stream.try_clone().map_err(io)?, stream).map_err(io)?;
    let per_window = rate.round().max(1.0) as usize;
    let period = 1.0 / rate;
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| t0 + Duration::from_secs_f64(k as f64 * period);
    let mut marks = vec![Mark {
        ops: 0,
        t_s: 0.0,
        cpu_s: cpu_seconds(),
    }];
    let (sent, received) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<Vec<Instant>, String> {
            affinity::set(&[cpu])?;
            let mut sent = Vec::with_capacity(frames.len());
            for (k, frame) in frames.iter().enumerate() {
                let now = Instant::now();
                if due(k) > now {
                    std::thread::sleep(due(k) - now);
                }
                sent.push(Instant::now());
                writer.write_all(frame).map_err(io)?;
            }
            Ok(sent)
        });
        let receiver = s.spawn(|| -> Result<Vec<(Instant, String)>, String> {
            affinity::set(&[cpu])?;
            let mut got = Vec::with_capacity(frames.len());
            for k in 1..=frames.len() {
                quickack(&ack)?;
                let reply = client.recv().map_err(io)?;
                let now = Instant::now();
                got.push((now, reply.to_text()));
                if k % per_window == 0 || k == frames.len() {
                    marks.push(Mark {
                        ops: k,
                        t_s: now.saturating_duration_since(t0).as_secs_f64(),
                        cpu_s: cpu_seconds(),
                    });
                }
            }
            Ok(got)
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let (sent, received) = (sent?, received?);
    let n = received.len();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Ok(Open {
        measured: Measured {
            latencies_ms: (0..n).map(|k| ms(received[k].0 - due(k))).collect(),
            marks,
            peak_rss_mb: peak_rss_mb(),
        },
        late_ms: sent
            .iter()
            .enumerate()
            .map(|(k, &s)| ms(s.saturating_duration_since(due(k))))
            .collect(),
        exchanges: sent
            .iter()
            .zip(&received)
            .map(|(&s, (r, _))| (s, *r))
            .collect(),
        replies: received.into_iter().map(|(_, r)| r).collect(),
    })
}

/// The server's own counters, read over the wire with `stats` and
/// `metrics`.
#[derive(Clone, Copy, Default, Debug)]
pub struct ServerSnap {
    admitted: f64,
    sheds: f64,
    cache_hits: f64,
    memo_hits: f64,
    memo_misses: f64,
    memo_shared_bytes: f64,
}

pub fn snapshot(ctl: &mut Client) -> Result<ServerSnap, String> {
    let stats = ctl.call("stats\n", &Request::Stats)?;
    let metrics = ctl.call("metrics\n", &Request::Metrics)?;
    let field = |key: &str| -> f64 {
        stats
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    let family = |name: &str| -> f64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok(ServerSnap {
        admitted: field("admitted"),
        sheds: field("sheds"),
        cache_hits: field("cache_hits"),
        memo_hits: family("presburger_memo_hits_total"),
        memo_misses: family("presburger_memo_misses_total"),
        memo_shared_bytes: family("presburger_memo_shared_bytes"),
    })
}

/// One request as the server's event log recorded it.
pub struct Event {
    queue_wait_us: f64,
    total_us: f64,
    engine_us: f64,
    splinters: f64,
}

/// The event-log records whose request id starts with `prefix`.
pub fn read_events(path: &Path, prefix: &str) -> Vec<Event> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|e| {
            e.get("id")
                .and_then(Json::str)
                .is_some_and(|id| id.starts_with(prefix))
        })
        .map(|e| {
            let num = |k: &str| e.get(k).and_then(Json::num).unwrap_or(0.0);
            Event {
                queue_wait_us: num("queue_wait_us"),
                total_us: num("total_us"),
                engine_us: num("engine_us"),
                splinters: e
                    .get("counters")
                    .and_then(|c| c.get("splinters_generated"))
                    .and_then(Json::num)
                    .unwrap_or(0.0),
            }
        })
        .collect()
}

/// Serve-side layer metrics for one traced phase: the client's round
/// trips, the server's per-request events, and its counters before and
/// after.
pub fn serve_layers(
    rtts_us: &[f64],
    events: &[Event],
    before: &ServerSnap,
    after: &ServerSnap,
) -> Metrics {
    let avg = |f: fn(&Event) -> f64| mean(&events.iter().map(f).collect::<Vec<_>>());
    let queue = avg(|e| e.queue_wait_us);
    let service = avg(|e| e.total_us);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let admitted = after.admitted - before.admitted;
    let sheds = after.sheds - before.sheds;
    let hits = after.cache_hits - before.cache_hits;
    let memo_hits = after.memo_hits - before.memo_hits;
    let memo_misses = after.memo_misses - before.memo_misses;
    let mut m = Metrics::default();
    m.set(
        "serve.transport.overhead_us",
        mean(rtts_us) - queue - service,
    );
    m.set("serve.admission.shed_frac", ratio(sheds, admitted + sheds));
    m.set("serve.queue.wait_us_mean", queue);
    m.set("serve.cache.hit_rate", ratio(hits, admitted));
    m.set("serve.cache.hits", hits);
    m.set("serve.cache.misses", admitted - hits);
    m.set("serve.engine.service_us_mean", service);
    m.set(
        "serve.engine.govern_overhead_us_mean",
        avg(|e| e.total_us - e.engine_us),
    );
    m.set("serve.engine.splinters_mean", avg(|e| e.splinters));
    m.set(
        "serve.memo.hit_rate",
        ratio(memo_hits, memo_hits + memo_misses),
    );
    m.set("serve.memo.shared_bytes", after.memo_shared_bytes);
    m
}

/// Codec and routing cost on these request templates: the text parse
/// (`parse_request`), a binary round trip (encode and decode of the
/// request and of its `OK exact` reply), and `routing_hash`, each timed
/// in a loop of at least `budget`.
pub fn codec_probe(
    templates: &[Template],
    payloads: &[String],
    budget: Duration,
    spans: &mut Spans,
    trace_id: u64,
) -> Metrics {
    let reqs: Vec<(String, Request, Reply)> = templates
        .iter()
        .zip(payloads)
        .enumerate()
        .map(|(k, (t, p))| {
            let id = format!("c{k}");
            let (line, req) = t.request(&id);
            let reply = Reply::OkExact {
                id,
                value: p.clone(),
            };
            (line.trim_end().to_string(), req, reply)
        })
        .collect();
    let mut time = |name: &'static str, op: &dyn Fn(&(String, Request, Reply))| -> f64 {
        let start = Instant::now();
        let mut ops = 0u64;
        while start.elapsed() < budget {
            for r in &reqs {
                op(black_box(r));
            }
            ops += reqs.len() as u64;
        }
        let end = Instant::now();
        spans.record(trace_id, name, None, start, end);
        (end - start).as_secs_f64() * 1e6 / ops.max(1) as f64
    };
    let text = time("serve.codec.text_parse", &|(line, _, _)| {
        black_box(parse_request(line).is_ok());
    });
    let binary = time("serve.codec.binary_roundtrip", &|(_, req, reply)| {
        let frame = wire::encode_request(req);
        black_box(wire::decode_wire_request(&frame).is_ok());
        let frame = reply.encode();
        black_box(Reply::decode(&frame).is_ok());
    });
    let route = time("serve.route.hash", &|(_, req, _)| {
        if let Request::Query(q) = req {
            black_box(routing_hash(q));
        }
    });
    let mut m = Metrics::default();
    m.set("serve.codec.text_parse_us", text);
    m.set("serve.codec.binary_roundtrip_us", binary);
    m.set("serve.route.hash_us", route);
    m
}

/// Process start → a freshly bound pool has answered a `PING` on the
/// given codec and then each of `instances` once, over one binary
/// connection (the child side of the serving set-up measurement). Shuts
/// the pool down, then checks every reply byte for byte against the
/// library's answer.
///
/// The client retries its connect until the port listens, as a client
/// of a starting service does. Connecting only after `bind` returns
/// would race the accept loop's first poll and make the time bimodal
/// (the connection then waits out a poll interval, or not).
pub fn first_answers(start: Instant, binary: bool, instances: &[Instance]) -> Result<f64, String> {
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(io)?
        .port();
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let (server, stream) = std::thread::scope(|s| {
        let connector = s.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => return Ok(stream),
                    Err(e) if Instant::now() > deadline => return Err(io(e)),
                    Err(_) => std::thread::yield_now(),
                }
            }
        });
        let server = PoolTcpServer::bind(&addr.to_string(), pool_config(None)).map_err(io);
        (server, connector.join().expect("connector thread panicked"))
    });
    let (server, stream) = (server?, stream?);
    let mut client = Client::over(stream, binary)?;
    let pong = client.call("ping\n", &Request::Ping(None))?;
    let mut answerer = Client::connect(server.addr(), true)?;
    let replies = instances
        .iter()
        .enumerate()
        .map(|(k, inst)| {
            let (line, req) = Template::new(inst).request(&format!("s{k}"));
            answerer.call(&line, &req)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let elapsed = start.elapsed().as_secs_f64();
    drop((client, answerer));
    server.shutdown();
    if pong != "PONG" {
        return Err(format!("ping answered {pong:?}"));
    }
    let answers = crate::library::reference_answers(instances);
    for (k, (reply, answer)) in replies.iter().zip(answers).enumerate() {
        let want = payload(&answer?.text);
        if verdict(reply, &format!("s{k}"), &want) != Verdict::Ok {
            return Err(format!("{:?} answered {reply:?}", instances[k].body()));
        }
    }
    Ok(elapsed)
}

/// Serves `instances` twice over one binary connection to a traced pool
/// (misses, then cache hits) and returns the serve-side layers (the
/// serving probe a library workload runs on its own formulas).
pub fn serve_probe(
    instances: &[Instance],
    payloads: &[String],
    event_log: &Path,
    spans: &mut Spans,
    first_trace_id: u64,
) -> Result<(Metrics, Tally), String> {
    let _ = std::fs::remove_file(event_log);
    let server = bind(Some(event_log))?;
    let templates: Vec<Template> = instances.iter().map(Template::new).collect();
    let mut client = Client::connect(server.addr(), true)?;
    let mut ctl = Client::connect(server.addr(), true)?;
    let before = snapshot(&mut ctl)?;
    let mut rtts = Vec::new();
    let mut tally = Tally::default();
    for pass in 0..2 {
        for (k, t) in templates.iter().enumerate() {
            let id = format!("p{pass}-{k}");
            let (line, req) = t.request(&id);
            let t0 = Instant::now();
            let reply = client.call(&line, &req)?;
            let t1 = Instant::now();
            rtts.push((t1 - t0).as_secs_f64() * 1e6);
            spans.record(
                first_trace_id + rtts.len() as u64,
                "serve.request",
                None,
                t0,
                t1,
            );
            tally.add(verdict(&reply, &id, &payloads[k]));
        }
    }
    let after = snapshot(&mut ctl)?;
    drop((client, ctl));
    server.shutdown();
    let events = read_events(event_log, "p");
    Ok((serve_layers(&rtts, &events, &before, &after), tally))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict("OK a1 exact 2 n", "a1", "2 n"), Verdict::Ok);
        assert_eq!(verdict("OK a1 exact 3 n", "a1", "2 n"), Verdict::Wrong);
        assert_eq!(
            verdict("OK a1 bounded budget 1 ; 2", "a1", "2"),
            Verdict::Failed
        );
        assert_eq!(
            verdict("SHED a1 retry_after_ms=50 reason=queue_full", "a1", "2"),
            Verdict::Failed
        );
        assert_eq!(verdict("OK a10 exact 2", "a1", "2"), Verdict::Failed);
    }
}
