//! Request-scoped telemetry for the serving pipeline: per-request
//! capture, the slow-request flight recorder, and the JSONL event log.
//!
//! Every request that reaches a worker produces one
//! [`RequestTelemetry`]: its queue wait (admission → worker pop),
//! end-to-end latency, governed-engine time, outcome class, and — when
//! counter capture is on — the pipeline-counter delta attributable to
//! just that request (snapshot-diff around the worker's run, the same
//! trick `ForkHandle::finish` uses). [`Telemetry::record`] fans the
//! observation out to three consumers:
//!
//! 1. the histogram/counter registry
//!    ([`presburger_trace::metrics::RequestMetrics`]), exposed by the
//!    `metrics` protocol verb in Prometheus text format — the same
//!    registry the connection drivers feed per-codec request counters
//!    and binary batch-size observations into
//!    (`presburger_codec_requests_total`, `presburger_batch_size`; see
//!    [`crate::wire`]);
//! 2. the **flight recorder** — a bounded ring that retains the *full
//!    evidence* (rendered formula, counter deltas, span tree) for any
//!    request that exceeded the latency threshold or tripped the
//!    governor, dumpable on demand with the `flightrec` verb;
//! 3. the opt-in **JSONL event log** — one sampled event per request,
//!    handed to a dedicated writer thread over a bounded channel. The
//!    worker never blocks on telemetry I/O: on backpressure the event
//!    is dropped and counted (`presburger_events_dropped_total`), and
//!    the writer is line-buffered and fsync-free.
//!
//! Telemetry is strictly observational: it never changes a response
//! byte, so golden-transcript replay stays byte-identical with all of
//! it enabled (`serve_stress` phase 1 runs with the defaults on).

use crate::sync::lock_ok;
use presburger_trace::metrics::{ReqLane, ReqOutcome, ReqVerb, RequestMetrics, RequestObservation};
use presburger_trace::{self as trace, json::JsonObject, PipelineStats, SpanTree};
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::Duration;

/// Telemetry configuration, part of
/// [`ServeConfig`](crate::server::ServeConfig). The default enables
/// the in-memory consumers (histograms, counter capture, flight
/// recorder) and leaves the event log off unless `PRESBURGER_EVENT_LOG`
/// names a path.
#[derive(Clone, Debug)]
pub struct TelemetrySettings {
    /// Record request histograms and counter families (`metrics` verb).
    pub metrics: bool,
    /// Capture per-request pipeline-counter deltas (snapshot-diff on
    /// the worker). Powers splinter attribution, the flight recorder's
    /// counter evidence, and governor-trip detection.
    pub capture_counters: bool,
    /// Capture span trees on workers so flight records carry the full
    /// derivation of a slow request. Costs allocations per span while
    /// on; independent of the engine's answer. **Off by default**: span
    /// tracing forces sub-problem memoization to stand down on the
    /// worker (a memo hit skips the body, so its spans and explain
    /// events could not be reproduced — see
    /// [`presburger_trace::memo::active`]), and cross-request memo hits
    /// are worth more to a serving process than always-on span trees.
    pub capture_spans: bool,
    /// Flight-recorder ring capacity (newest wins); `0` disables it.
    pub flight_records: usize,
    /// A request at least this slow (end-to-end, microseconds) is
    /// flight-recorded even if it tripped nothing.
    pub flight_threshold_us: u64,
    /// JSONL event-log path; `None` disables the log. Defaults from
    /// `PRESBURGER_EVENT_LOG`.
    pub event_log: Option<String>,
    /// Log every `n`-th request (`0` and `1` both mean every request).
    /// Defaults from `PRESBURGER_EVENT_SAMPLE`.
    pub event_sample: u64,
}

impl Default for TelemetrySettings {
    fn default() -> TelemetrySettings {
        TelemetrySettings {
            metrics: true,
            capture_counters: true,
            capture_spans: false,
            flight_records: 64,
            flight_threshold_us: 250_000,
            event_log: std::env::var("PRESBURGER_EVENT_LOG")
                .ok()
                .filter(|p| !p.is_empty()),
            event_sample: std::env::var("PRESBURGER_EVENT_SAMPLE")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1),
        }
    }
}

impl TelemetrySettings {
    /// Everything off — the configuration `overhead_smoke` measures.
    pub fn disabled() -> TelemetrySettings {
        TelemetrySettings {
            metrics: false,
            capture_counters: false,
            capture_spans: false,
            flight_records: 0,
            flight_threshold_us: u64::MAX,
            event_log: None,
            event_sample: 1,
        }
    }
}

/// Everything measured about one request, assembled on the worker after
/// the reply is rendered (telemetry rides behind the response, never in
/// front of it).
#[derive(Debug)]
pub struct RequestTelemetry {
    /// The request id (echoed on the wire).
    pub id: String,
    /// Request verb.
    pub verb: ReqVerb,
    /// Outcome class of the reply.
    pub outcome: ReqOutcome,
    /// The priority lane the request rode through admission
    /// (`Batch` when it carried no `prio=` override).
    pub lane: ReqLane,
    /// Admission → worker pop.
    pub queue_wait: Duration,
    /// Worker pop → reply rendered (end-to-end execution time).
    pub total: Duration,
    /// Time inside the governed engine run (zero for cache hits and
    /// parse errors).
    pub engine: Duration,
    /// Pipeline-counter delta attributable to this request, when
    /// capture is on.
    pub counters: Option<PipelineStats>,
    /// The governor tripped a budget/deadline/cancel during this
    /// request (derived from the counter delta).
    pub governor_tripped: bool,
    /// The canonically re-rendered formula (or the raw text when
    /// parsing failed) — what a flight record replays from.
    pub formula: String,
    /// Span tree collected on the worker, when span capture is on.
    pub spans: Option<SpanTree>,
}

/// One retained flight-recorder entry: the full evidence for a slow or
/// governor-tripped request.
#[derive(Clone, Debug)]
pub struct FlightRecord {
    /// Monotonic capture sequence number (process-wide).
    pub seq: u64,
    /// Request id.
    pub id: String,
    /// Verb label (`count` / `sum`).
    pub verb: &'static str,
    /// Outcome label (`ok` / `bounded` / `err` / `cache_hit`).
    pub outcome: &'static str,
    /// Queue wait in microseconds.
    pub queue_wait_us: u64,
    /// End-to-end latency in microseconds.
    pub total_us: u64,
    /// Governed-engine time in microseconds.
    pub engine_us: u64,
    /// Whether the governor tripped.
    pub governor_tripped: bool,
    /// Why the record was captured: `slow`, `governor_trip`, or both.
    pub trigger: &'static str,
    /// Canonical formula text.
    pub formula: String,
    /// Nonzero counter deltas as `(name, value)` pairs.
    pub counters: Vec<(&'static str, u64)>,
    /// The span tree, pre-rendered to JSON (kept as text so the ring
    /// holds plain data).
    pub spans_json: Option<String>,
}

impl FlightRecord {
    /// One JSON object (one line of a `flightrec` dump).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("seq", self.seq)
            .field_str("id", &self.id)
            .field_str("verb", self.verb)
            .field_str("outcome", self.outcome)
            .field_str("trigger", self.trigger)
            .field_u64("queue_wait_us", self.queue_wait_us)
            .field_u64("total_us", self.total_us)
            .field_u64("engine_us", self.engine_us)
            .field_bool("governor_tripped", self.governor_tripped)
            .field_str("formula", &self.formula);
        let mut counters = JsonObject::new();
        for (name, v) in &self.counters {
            counters.field_u64(name, *v);
        }
        obj.field_raw("counters", &counters.finish());
        if let Some(spans) = &self.spans_json {
            obj.field_raw("spans", spans);
        }
        obj.finish()
    }
}

/// The per-server telemetry hub, shared by every worker and connection.
pub struct Telemetry {
    settings: TelemetrySettings,
    /// The histogram/counter registry behind the `metrics` verb.
    pub metrics: RequestMetrics,
    flight: Mutex<VecDeque<FlightRecord>>,
    seq: AtomicU64,
    event_log: Option<EventLog>,
}

impl Telemetry {
    /// Builds the hub; opens the event-log writer when configured.
    /// Telemetry must never take a server down: an unopenable log path
    /// disables the log with a warning instead of failing startup.
    pub fn new(settings: TelemetrySettings) -> Telemetry {
        let event_log = settings
            .event_log
            .as_ref()
            .and_then(|path| match EventLog::open(path) {
                Ok(log) => Some(log),
                Err(e) => {
                    eprintln!("serve: event log {path:?} disabled: {e}");
                    None
                }
            });
        Telemetry {
            metrics: RequestMetrics::new(settings.metrics),
            flight: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(0),
            event_log,
            settings,
        }
    }

    /// The active settings.
    pub fn settings(&self) -> &TelemetrySettings {
        &self.settings
    }

    /// Called once per worker thread before its first job: turns on the
    /// thread-local collection modes the settings need.
    pub fn worker_init(&self) {
        if self.settings.capture_counters {
            trace::enable_counters(true);
        }
        if self.settings.capture_spans && self.settings.flight_records > 0 {
            trace::enable_tracing(true);
        }
    }

    /// Snapshot taken just before a request runs; the delta partner of
    /// [`take_spans`](Telemetry::take_spans).
    pub fn counter_baseline(&self) -> Option<PipelineStats> {
        self.settings.capture_counters.then(trace::snapshot)
    }

    /// Drains the span tree the request just grew on this worker (empty
    /// unless span capture is on).
    pub fn take_spans(&self) -> Option<SpanTree> {
        (self.settings.capture_spans && self.settings.flight_records > 0)
            .then(trace::span::take_tree)
    }

    /// Whether anything at all is being recorded (fast bail for the
    /// worker loop).
    pub fn active(&self) -> bool {
        self.settings.metrics
            || self.settings.capture_counters
            || self.settings.flight_records > 0
            || self.event_log.is_some()
    }

    /// Records one completed request: histograms, flight recorder, and
    /// the sampled event log. Never blocks on I/O.
    pub fn record(&self, telem: RequestTelemetry) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let total_us = telem.total.as_micros() as u64;
        let queue_wait_us = telem.queue_wait.as_micros() as u64;
        let engine_us = telem.engine.as_micros() as u64;

        self.metrics.observe_request(RequestObservation {
            verb: telem.verb,
            outcome: telem.outcome,
            lane: telem.lane,
            duration_us: total_us,
            queue_wait_us,
            govern_overhead_us: total_us.saturating_sub(engine_us),
            splinters: telem
                .counters
                .as_ref()
                .map(trace::metrics::splinters_from_delta),
        });

        let slow = total_us >= self.settings.flight_threshold_us;
        if self.settings.flight_records > 0 && (slow || telem.governor_tripped) {
            let trigger = match (slow, telem.governor_tripped) {
                (true, true) => "slow+governor_trip",
                (true, false) => "slow",
                _ => "governor_trip",
            };
            let record = FlightRecord {
                seq,
                id: telem.id.clone(),
                verb: telem.verb.label(),
                outcome: telem.outcome.label(),
                queue_wait_us,
                total_us,
                engine_us,
                governor_tripped: telem.governor_tripped,
                trigger,
                formula: telem.formula.clone(),
                counters: telem
                    .counters
                    .as_ref()
                    .map(|d| d.nonzero().map(|(c, v)| (c.name(), v)).collect())
                    .unwrap_or_default(),
                spans_json: telem.spans.as_ref().map(SpanTree::to_json),
            };
            let mut ring = lock_ok(&self.flight);
            if ring.len() >= self.settings.flight_records {
                ring.pop_front();
            }
            ring.push_back(record);
            drop(ring);
            self.metrics.bump_flight_records();
        }

        if let Some(log) = &self.event_log {
            let sample = self.settings.event_sample.max(1);
            if seq.is_multiple_of(sample) {
                if log.try_log(self.event_json(seq, &telem)) {
                    self.metrics.bump_events_logged();
                } else {
                    self.metrics.bump_events_dropped();
                }
            }
        }
    }

    /// The structured event for one request (one JSONL line).
    fn event_json(&self, seq: u64, telem: &RequestTelemetry) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("seq", seq)
            .field_str("id", &telem.id)
            .field_str("verb", telem.verb.label())
            .field_str("outcome", telem.outcome.label())
            .field_u64("queue_wait_us", telem.queue_wait.as_micros() as u64)
            .field_u64("total_us", telem.total.as_micros() as u64)
            .field_u64("engine_us", telem.engine.as_micros() as u64)
            .field_bool("governor_tripped", telem.governor_tripped);
        if let Some(delta) = &telem.counters {
            obj.field_raw("counters", &delta.to_json_nonzero());
        }
        obj.finish()
    }

    /// The current flight-recorder contents, oldest first.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        lock_ok(&self.flight).iter().cloned().collect()
    }

    /// Flushes and joins the event-log writer (idempotent). Called on
    /// server shutdown so every accepted event hits the file before the
    /// process moves on.
    pub fn close_event_log(&self) {
        if let Some(log) = &self.event_log {
            log.close();
        }
    }
}

/// The hardened JSONL event-log writer.
///
/// Workers hand lines to a dedicated writer thread over a *bounded*
/// channel with a non-blocking `try_send`: when the writer falls behind
/// (slow disk, stalled pipe), events are dropped and counted instead of
/// ever stalling request processing. The writer is line-buffered
/// (`BufWriter` flushed per line so a crash loses at most the line in
/// flight) and never calls fsync.
pub struct EventLog {
    tx: Mutex<Option<mpsc::SyncSender<String>>>,
    writer: Mutex<Option<thread::JoinHandle<()>>>,
}

/// Bounded depth of the event-log channel: enough to ride out bursts,
/// small enough that a wedged writer costs bounded memory.
const EVENT_LOG_CHANNEL_DEPTH: usize = 1024;

impl EventLog {
    /// Opens (appends to) `path` and starts the writer thread.
    pub fn open(path: &str) -> std::io::Result<EventLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(EventLog::to_writer(file))
    }

    /// Starts an event log over any sink (tests use in-memory and
    /// deliberately slow writers).
    pub fn to_writer(sink: impl Write + Send + 'static) -> EventLog {
        let (tx, rx) = mpsc::sync_channel::<String>(EVENT_LOG_CHANNEL_DEPTH);
        let writer = thread::Builder::new()
            .name("serve-event-log".to_string())
            .spawn(move || {
                let mut out = BufWriter::new(sink);
                for line in rx {
                    // A failed write disables nothing: telemetry must
                    // never take the server down, so we just keep
                    // draining the channel.
                    let _ = writeln!(out, "{line}");
                    let _ = out.flush();
                }
            })
            .expect("invariant: spawning the event-log writer cannot fail here");
        EventLog {
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
        }
    }

    /// Enqueues one event line. Returns `false` — without blocking —
    /// when the writer is backed up or closed (the caller counts the
    /// drop).
    pub fn try_log(&self, line: String) -> bool {
        let tx = lock_ok(&self.tx);
        match tx.as_ref() {
            Some(tx) => tx.try_send(line).is_ok(),
            None => false,
        }
    }

    /// Closes the channel and joins the writer, guaranteeing every
    /// accepted line is flushed. Idempotent.
    pub fn close(&self) {
        lock_ok(&self.tx).take();
        let handle = lock_ok(&self.writer).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for EventLog {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex as StdMutex};

    fn telem(id: &str, total_us: u64, tripped: bool) -> RequestTelemetry {
        RequestTelemetry {
            id: id.to_string(),
            verb: ReqVerb::Count,
            outcome: ReqOutcome::Ok,
            lane: ReqLane::Batch,
            queue_wait: Duration::from_micros(5),
            total: Duration::from_micros(total_us),
            engine: Duration::from_micros(total_us / 2),
            counters: None,
            governor_tripped: tripped,
            formula: "1 <= x <= 9".to_string(),
            spans: None,
        }
    }

    #[test]
    fn flight_recorder_triggers_and_ring_bounds() {
        let t = Telemetry::new(TelemetrySettings {
            flight_records: 2,
            flight_threshold_us: 1_000,
            event_log: None,
            ..TelemetrySettings::default()
        });
        t.record(telem("fast", 10, false)); // neither trigger
        t.record(telem("slow1", 5_000, false)); // slow
        t.record(telem("tripped", 10, true)); // governor trip
        t.record(telem("slow2", 9_000, true)); // both; evicts slow1
        let records = t.flight_records();
        assert_eq!(records.len(), 2, "ring keeps the newest two");
        assert_eq!(records[0].id, "tripped");
        assert_eq!(records[0].trigger, "governor_trip");
        assert_eq!(records[1].id, "slow2");
        assert_eq!(records[1].trigger, "slow+governor_trip");
        assert_eq!(t.metrics.flight_records(), 3);
    }

    #[test]
    fn disabled_settings_record_nothing() {
        let t = Telemetry::new(TelemetrySettings::disabled());
        assert!(!t.active());
        t.record(telem("r1", 10_000_000, true));
        assert!(t.flight_records().is_empty());
        assert!(t.metrics.duration_merged(None).is_empty());
    }

    /// A sink whose writes block until the gate opens — forces
    /// channel backpressure deterministically.
    struct GatedSink {
        gate: Arc<(StdMutex<bool>, Condvar)>,
        written: Arc<StdMutex<Vec<u8>>>,
    }

    impl Write for GatedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let (lock, cv) = &*self.gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            self.written.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn event_log_drops_on_backpressure_and_never_blocks() {
        let gate = Arc::new((StdMutex::new(false), Condvar::new()));
        let written = Arc::new(StdMutex::new(Vec::new()));
        let log = EventLog::to_writer(GatedSink {
            gate: gate.clone(),
            written: written.clone(),
        });
        // The writer thread blocks on the first line; everything past
        // the channel depth (+ the one in flight) must be refused
        // without blocking this thread.
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for i in 0..(EVENT_LOG_CHANNEL_DEPTH as u64 + 100) {
            if log.try_log(format!("{{\"seq\":{i}}}")) {
                accepted += 1;
            } else {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "backpressure must drop, not block");
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        log.close();
        let text = String::from_utf8(written.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text.lines().count() as u64,
            accepted,
            "every accepted line is flushed by close()"
        );
        assert!(!log.try_log("after close".to_string()));
    }

    #[test]
    fn event_json_is_one_object_per_line() {
        let t = Telemetry::new(TelemetrySettings {
            event_log: None,
            ..TelemetrySettings::default()
        });
        let line = t.event_json(7, &telem("e1", 42, false));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"id\":\"e1\""));
        assert!(line.contains("\"total_us\":42"));
        assert!(!line.contains('\n'));
    }
}
