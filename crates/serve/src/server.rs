//! One shard's server core — admission queue, worker pool, request
//! processing, drain — plus the stdio / TCP connection drivers that
//! front a [`ShardPool`].
//!
//! # Life of a request
//!
//! 1. A connection driver reads one line and parses it
//!    ([`crate::protocol::parse_request`]). Control verbs and protocol
//!    errors are answered inline (`control_slot`); queries go to
//!    [`PoolHandle::submit`].
//! 2. The pool's front door parses the query once (`Work::parse`),
//!    routes it by the bytes of that parse and sheds if it is
//!    draining. A hit in the routed shard's result cache is answered
//!    right there (`Handle::try_hit`) and never queues. Anything else
//!    goes to the shard's `Handle::try_enqueue`, which either enqueues
//!    a job carrying the parse (bounded queue) or refuses it. Both check the shard's draining flag under its queue
//!    lock, so a request can never slip in behind a drain.
//! 3. A worker pops the job and runs the computation over the parse it
//!    carries — governing the count, rendering the reply — inside
//!    `catch_unwind`. A panic poisons only that request (`ERR …
//!    internal`), never the worker.
//! 4. The typed [`Reply`] is published through the request's one-shot
//!    [`Slot`]; the connection's writer thread renders slots in its
//!    codec, in admission order, so responses on a connection are FIFO
//!    even with many workers.
//!
//! # Ordering and replay
//!
//! With deadline-free requests the entire response stream is a pure
//! function of the request stream: budget trips are deterministic
//! (per-clause accounting), cache keys include budget overrides, and
//! per-connection FIFO writers fix the interleaving. `serve_stress`
//! asserts byte-identical transcripts across runs and worker counts.

use crate::admission::{self, Lane, LaneQueues};
use crate::breaker::{Breaker, Plan};
use crate::cache::ResultCache;
use crate::chaos::{self, Chaos, ChaosSite};
use crate::protocol::{parse_request, Query, Request, ServeError, Verb};
use crate::shard::{self, PoolHandle, ShardPool, ShardPoolConfig};
use crate::sync::{lock_ok, wait_ok};
use crate::telemetry::{FormulaSource, RequestTelemetry, Telemetry, TelemetrySettings};
use crate::wire::Reply;
use presburger_counting::{
    try_sum_polynomial_bounds, try_sum_polynomial_governed, Budgets, CountError, CountOptions,
    Governor, Outcome,
};
use presburger_omega::{parse_affine, parse_formula, Affine, Formula, Space, VarId};
use presburger_polyq::QPoly;
use presburger_trace::metrics::{AdmitDecision, ReqCodec, ReqLane, ReqOutcome, ReqVerb};
use presburger_trace::{self as trace, Counter};
use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Per-shard server configuration. `Default` gives a single-worker
/// shard with a 64-deep queue, a 5 s default deadline, a 3-strike
/// breaker and a 256-entry cache (bounded to 1 MiB).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Bounded admission-queue depth; a full queue sheds.
    pub queue_depth: usize,
    /// Deadline applied to requests that carry no `deadline_ms`
    /// override. `None` = no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Base budgets merged under per-request overrides.
    pub default_budgets: Budgets,
    /// Consecutive breaker-class failures (internal / deadline) that
    /// open the circuit breaker; `0` disables it.
    pub breaker_failures: u32,
    /// Cooldown before an open breaker half-opens for a probe.
    pub breaker_cooldown_ms: u64,
    /// Result-cache entry bound (`0` disables caching).
    pub cache_entries: usize,
    /// Verify mode: recompute every `n`-th cache hit and alarm on
    /// mismatch. `None` disables verification.
    pub verify_every: Option<u64>,
    /// How long a drain waits for in-flight and queued work before
    /// cancelling what remains (cancelled work still answers, with
    /// §4.6 bounds where possible).
    pub drain_deadline_ms: u64,
    /// Fault injection: a `<site>:<nth>[:panic]` spec armed on every
    /// governed request (`Governor::with_fault`). The only way to arm a
    /// fault in a server; the library reads no environment variable.
    pub fault_spec: Option<String>,
    /// Request-scoped telemetry: histograms, flight recorder, event
    /// log (see [`crate::telemetry`]). Observational only — response
    /// bytes are identical at any setting.
    pub telemetry: TelemetrySettings,
    /// Test hook: when set, workers wait on this gate before popping
    /// each job, making queue-full sheds deterministic.
    pub hold: Option<Arc<Gate>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            queue_depth: 64,
            default_deadline_ms: Some(5_000),
            default_budgets: Budgets::unlimited(),
            breaker_failures: 3,
            breaker_cooldown_ms: 1_000,
            cache_entries: 256,
            verify_every: None,
            drain_deadline_ms: 2_000,
            fault_spec: None,
            telemetry: TelemetrySettings::default(),
            hold: None,
        }
    }
}

/// The `retry_after_ms` hint on every shed.
pub(crate) const RETRY_AFTER_MS: u64 = 50;

/// The result cache's byte bound (keys + payloads).
const CACHE_BYTES: usize = 1 << 20;

/// A closable gate workers wait on before taking work (test hook for
/// deterministic shed scenarios).
#[derive(Debug)]
pub struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    /// A new gate, initially open unless `closed`.
    pub fn new(closed: bool) -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(!closed),
            cv: Condvar::new(),
        })
    }

    /// Opens the gate, releasing all waiters.
    pub fn open(&self) {
        let mut open = lock_ok(&self.open);
        *open = true;
        self.cv.notify_all();
    }

    /// Closes the gate: workers stop at it before their next pop.
    pub fn close(&self) {
        *lock_ok(&self.open) = false;
    }

    fn wait(&self) {
        let mut open = lock_ok(&self.open);
        while !*open {
            open = wait_ok(&self.cv, open);
        }
    }
}

/// A one-shot response slot holding a typed [`Reply`]: the worker
/// fulfils it, the connection's writer thread waits on it and renders
/// the reply in the connection's codec (a text line or a binary frame).
/// The consumer takes the reply exactly once, so a duplicate fulfilment
/// (possible when the supervisor re-dispatches a request whose original
/// worker later finishes anyway) is harmless — and because replies are
/// pure functions of the query, both producers publish the identical
/// reply.
pub struct Slot {
    value: Mutex<Option<Reply>>,
    cv: Condvar,
    done: AtomicBool,
}

impl Slot {
    /// An empty slot.
    pub fn new() -> Arc<Slot> {
        Arc::new(Slot {
            value: Mutex::new(None),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
        })
    }

    /// An already-fulfilled slot (for responses computed inline).
    pub fn ready(reply: Reply) -> Arc<Slot> {
        Arc::new(Slot {
            value: Mutex::new(Some(reply)),
            cv: Condvar::new(),
            done: AtomicBool::new(true),
        })
    }

    /// Publishes the reply.
    pub fn fulfil(&self, reply: Reply) {
        let mut v = lock_ok(&self.value);
        *v = Some(reply);
        self.done.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Whether a reply has been published. The supervisor uses this to
    /// tell answered requests from orphaned ones.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Blocks until the reply is available.
    pub fn wait(&self) -> Reply {
        let mut v = lock_ok(&self.value);
        loop {
            if let Some(reply) = v.take() {
                return reply;
            }
            v = wait_ok(&self.cv, v);
        }
    }
}

/// A query as the pool's front door prepared it: its text, parsed
/// exactly once. The front door routes by this parse and looks it up in
/// the routed shard's cache; a worker counts over it; a §4.6 rescue
/// bounds it. Nothing downstream parses the text again.
pub(crate) struct Work {
    /// The request as it arrived.
    pub(crate) query: Query,
    /// The parse, or the `ERR <id> parse …` reply a query that does not
    /// parse is answered with.
    parsed: Result<Parsed, Reply>,
    /// The cached payload of a hit that verify mode recomputes: the
    /// worker compares its fresh answer against it. `None` for a miss.
    cached: Option<String>,
}

impl Work {
    /// Parses `query` once. Returns the work and its routing hash,
    /// computed from the bytes of this same parse — the value
    /// [`crate::shard::routing_hash`] gives.
    pub(crate) fn parse(query: Query) -> (Work, u64) {
        let mut space = Space::new();
        for v in &query.vars {
            space.var(v);
        }
        let (parsed, route) = match parse_formula(&query.formula_text, &mut space) {
            Err(e) => (
                Err(Reply::err(&query.id, "parse", &e.to_string())),
                shard::route_hash(&query, None),
            ),
            Ok(formula) => {
                let mut formula_key = Vec::with_capacity(64);
                presburger_omega::intern::formula_push_key_bytes(&formula, &mut formula_key);
                let route = shard::route_hash(&query, Some(&formula_key));
                (Parsed::new(&query, space, formula, &formula_key), route)
            }
        };
        let work = Work {
            query,
            parsed,
            cached: None,
        };
        (work, route)
    }

    /// Whether the query parsed.
    #[cfg(test)]
    pub(crate) fn parses(&self) -> bool {
        self.parsed.is_ok()
    }

    /// Where a flight record's formula text comes from: the canonical
    /// rendering of the parse, or the raw text of a query that did not
    /// parse.
    fn formula_source(&self) -> FormulaSource<'_> {
        match &self.parsed {
            Ok(p) => FormulaSource::Parsed(&p.formula, &p.space),
            Err(_) => FormulaSource::Raw(&self.query.formula_text),
        }
    }
}

/// Work that needs a worker, with the slot its reply goes to. Shared
/// between the shard queue and the pool's tracking, so a request that
/// outlives its shard is re-dispatched without being parsed again.
pub(crate) struct Ticket {
    pub(crate) work: Work,
    pub(crate) slot: Arc<Slot>,
}

struct Job {
    ticket: Arc<Ticket>,
    /// The priority lane the job was admitted on.
    lane: Lane,
    /// Admission time, for the queue-wait histogram and expired-request
    /// eviction.
    enqueued: Instant,
}

/// Why a shard refused (or the pool's front door shed) a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The shard is draining (or condemned). The pool treats this as
    /// "shard going away mid-race" and re-routes instead of shedding.
    Draining,
    /// The bounded admission queue is full — genuine backpressure.
    QueueFull,
}

impl Refusal {
    /// The shed cause, the `reason=` token.
    fn cause(self) -> &'static str {
        match self {
            Refusal::Draining => "draining",
            Refusal::QueueFull => "queue_full",
        }
    }
}

/// What [`Handle::try_enqueue`] made of a batch of tickets.
pub(crate) struct Enqueued {
    /// The tickets now queued on the shard, in input order.
    pub admitted: Vec<Arc<Ticket>>,
    /// The tickets handed back, each with the shard's refusal.
    pub refused: Vec<(Arc<Ticket>, Refusal)>,
}

/// Why a request is answered with budgeted §4.6 bounds instead of an
/// exact governed run ([`Inner::rescue`]). The breaker and drain
/// rescues run under the request's own budgets; the others under the
/// server's default deadline.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Rescue {
    /// The circuit breaker is open: the exact path is skipped.
    BreakerOpen(Budgets),
    /// A drain deadline cancelled the exact run.
    Cancelled(Budgets),
    /// It arrived already expired (`deadline_ms=0`): answered at
    /// admission, never queued.
    EvictedAtAdmission,
    /// Its deadline lapsed while it sat queued: answered at pop time.
    EvictedInQueue,
    /// It outlived its shard and no sibling could take it in time: the
    /// supervisor's terminal fallback.
    Failover,
}

impl Rescue {
    /// The `why` label of the bounded reply.
    fn label(self) -> &'static str {
        match self {
            Rescue::BreakerOpen(_) => "breaker_open",
            Rescue::Cancelled(_) => "cancelled",
            Rescue::EvictedAtAdmission | Rescue::EvictedInQueue => "evicted",
            Rescue::Failover => "failover",
        }
    }
}

/// Atomic server statistics, rendered by `STATS` and the final drain
/// line.
#[derive(Default)]
pub(crate) struct Stats {
    admitted: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed_queue: AtomicU64,
    shed_drain: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    verify_mismatches: AtomicU64,
    breaker_opens: AtomicU64,
    degraded_first: AtomicU64,
    drain_bounded: AtomicU64,
    queue_depth_peak: AtomicU64,
}

impl Stats {
    fn bump(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Sheds issued (queue-full and draining).
    pub fn sheds(&self) -> u64 {
        self.shed_queue.load(Ordering::Relaxed) + self.shed_drain.load(Ordering::Relaxed)
    }

    /// Requests admitted: queued for a worker, answered from the result
    /// cache at the front door, or evicted at admission with bounds.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// `OK` responses produced.
    pub fn ok(&self) -> u64 {
        self.ok.load(Ordering::Relaxed)
    }

    /// `ERR` responses produced.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Cache hits served.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }
}

struct Inner {
    cfg: ServeConfig,
    /// This server's index in its pool (labels chaos injection).
    shard: usize,
    /// Deterministic chaos shared by every shard of the pool.
    chaos: Option<Arc<Chaos>>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    inflight: AtomicUsize,
    drain_cancel: Arc<AtomicBool>,
    drained: AtomicBool,
    breaker: Mutex<Breaker>,
    cache: Mutex<ResultCache>,
    stats: Stats,
    telemetry: Telemetry,
    /// Worker threads currently alive. Incremented before each spawn,
    /// decremented by a drop guard at worker exit — a crashed worker
    /// (panic past the unwind boundary) shows up as `alive < workers`
    /// without a drain, which is the supervisor's crash signal.
    workers_alive: AtomicUsize,
    /// Bumped on every job pop and completion. A shard with inflight
    /// work whose heartbeat stops advancing is wedged.
    heartbeat: AtomicU64,
    /// Per worker: until when (ms since `started`) its in-flight job is
    /// within its governed bound, twice its effective deadline; 0 when
    /// idle or when the job has no deadline. A slow job inside its
    /// bound is not a wedge.
    governed_until: Box<[AtomicU64]>,
    started: Instant,
}

struct QueueState {
    jobs: LaneQueues<Job>,
    draining: bool,
    shutdown: bool,
}

/// One shard of a [`ShardPool`]: a worker pool behind a bounded
/// admission queue. Started, restarted and abandoned by the pool's
/// supervisor; drop order does not matter (workers exit on
/// drain/shutdown).
pub(crate) struct Server {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

/// A shareable handle on one shard, for the pool's router and
/// supervisor.
#[derive(Clone)]
pub(crate) struct Handle {
    inner: Arc<Inner>,
}

impl Server {
    /// Starts shard `shard`'s worker pool, with the pool's `chaos`.
    pub(crate) fn start(cfg: ServeConfig, shard: usize, chaos: Option<Arc<Chaos>>) -> Server {
        if chaos.is_some() {
            chaos::install_chaos_hook();
        }
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState {
                jobs: LaneQueues::new(admission::BACKGROUND_CREDIT),
                draining: false,
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            inflight: AtomicUsize::new(0),
            drain_cancel: Arc::new(AtomicBool::new(false)),
            drained: AtomicBool::new(false),
            breaker: Mutex::new(Breaker::new(cfg.breaker_failures, cfg.breaker_cooldown_ms)),
            cache: Mutex::new(ResultCache::new(cfg.cache_entries, CACHE_BYTES)),
            stats: Stats::default(),
            telemetry: Telemetry::new(cfg.telemetry.clone()),
            workers_alive: AtomicUsize::new(0),
            heartbeat: AtomicU64::new(0),
            governed_until: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            started: Instant::now(),
            shard,
            chaos,
            cfg,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                // Count the worker alive before it runs so a freshly
                // started (or restarted) server never reads as crashed.
                inner.workers_alive.fetch_add(1, Ordering::SeqCst);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        struct AliveGuard<'a>(&'a AtomicUsize);
                        impl Drop for AliveGuard<'_> {
                            fn drop(&mut self) {
                                self.0.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                        let _alive = AliveGuard(&inner.workers_alive);
                        worker_loop(&inner, i)
                    })
                    .expect("invariant: spawning a worker thread cannot fail here")
            })
            .collect();
        Server {
            inner,
            workers: handles,
        }
    }

    /// A shareable handle.
    pub(crate) fn handle(&self) -> Handle {
        Handle {
            inner: self.inner.clone(),
        }
    }

    /// Drains and joins the worker pool.
    pub(crate) fn shutdown(mut self) {
        self.handle().drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers are gone, so every accepted event is already in the
        // channel; close() flushes them all to the file.
        self.inner.telemetry.close_event_log();
    }

    /// Condemns a crashed or wedged server: stops admission, tells the
    /// workers to exit, and detaches their join handles — a wedged
    /// worker may never return, and the supervisor must not hang with
    /// it. In-flight work is deliberately *not* cancelled: an orphaned
    /// healthy worker that finishes anyway publishes the identical reply
    /// its re-dispatched twin computes (see [`Slot::fulfil`]), while a
    /// cancelled one would publish a different, racy answer.
    pub(crate) fn abandon(mut self) {
        {
            let mut q = lock_ok(&self.inner.queue);
            q.draining = true;
            q.shutdown = true;
        }
        self.inner.queue_cv.notify_all();
        self.inner.drained.store(true, Ordering::Relaxed);
        self.workers.drain(..);
        self.inner.telemetry.close_event_log();
    }
}

impl Handle {
    /// Answers `work` from this shard's result cache, at the front door:
    /// tallied as admitted, `ok` and a cache hit, its telemetry recorded
    /// (with no queue wait), and the reply returned for a ready slot.
    /// Returns `None` — and the caller queues the work — on a miss, for
    /// a query that did not parse, on a draining shard (whose
    /// `try_enqueue` refuses it in turn), and for a hit that verify mode
    /// recomputes, whose cached payload then rides in `work.cached`.
    ///
    /// The drain check, the lookup and the tallies share one queue-lock
    /// critical section, so a hit is either counted before a drain's
    /// final `STATS` line or refused as draining.
    pub(crate) fn try_hit(&self, work: &mut Work) -> Option<Reply> {
        let Ok(p) = &work.parsed else {
            return None;
        };
        let inner = &self.inner;
        let started = Instant::now();
        let query = &work.query;
        let lane = query.lane();
        let reply = {
            let q = lock_ok(&inner.queue);
            if q.draining || q.shutdown {
                return None;
            }
            let (value, ordinal) = lock_ok(&inner.cache).get(&p.key)?;
            if inner.verify_due(ordinal) {
                work.cached = Some(value);
                return None;
            }
            let stats = &inner.stats;
            stats.bump(&stats.admitted);
            stats.bump(&stats.cache_hits);
            stats.bump(&stats.ok);
            drop(q);
            Reply::exact(&query.id, &value)
        };
        trace::bump(Counter::ServeRequests);
        trace::bump(Counter::ServeCacheHits);
        let telemetry = &inner.telemetry;
        telemetry
            .metrics
            .observe_admission(req_lane(lane), AdmitDecision::Admit);
        if telemetry.active() {
            telemetry.record(RequestTelemetry {
                id: query.id.clone(),
                verb: req_verb(query.verb),
                outcome: ReqOutcome::CacheHit,
                lane: req_lane(lane),
                queue_wait: Duration::ZERO,
                total: started.elapsed(),
                engine: Duration::ZERO,
                counters: telemetry.settings().capture_counters.then(Default::default),
                governor_tripped: false,
                formula: work.formula_source(),
                spans: None,
            });
        }
        Some(reply)
    }

    /// Enqueues each ticket in input order under **one** queue-lock
    /// reservation, so a batch never interleaves with other submitters.
    /// Once the shard is draining or the queue fills, every later
    /// ticket is refused too. Returns the admitted tickets (for the
    /// pool's tracking) and hands the refused ones back by value, each
    /// with its refusal.
    ///
    /// A refusal leaves its slot untouched and is not tallied: only a
    /// shed actually *delivered* to a client counts ([`Handle::shed`]),
    /// and the pool re-routes `Draining` refusals (a condemned shard)
    /// instead of delivering them.
    pub(crate) fn try_enqueue(&self, tickets: Vec<Arc<Ticket>>) -> Enqueued {
        let inner = &self.inner;
        let mut admitted = Vec::with_capacity(tickets.len());
        let mut refused = Vec::new();
        {
            let mut q = lock_ok(&inner.queue);
            for ticket in tickets {
                let lane = ticket.work.query.lane();
                let reason = if q.draining || q.shutdown {
                    Some(Refusal::Draining)
                } else if q.jobs.len() >= inner.cfg.queue_depth {
                    Some(Refusal::QueueFull)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    refused.push((ticket, reason));
                    continue;
                }
                q.jobs.push(
                    lane,
                    Job {
                        ticket: ticket.clone(),
                        lane,
                        enqueued: Instant::now(),
                    },
                );
                admitted.push(ticket);
                let depth = q.jobs.len() as u64;
                inner.stats.bump(&inner.stats.admitted);
                inner
                    .stats
                    .queue_depth_peak
                    .fetch_max(depth, Ordering::Relaxed);
                trace::record_max(Counter::ServeQueueDepthPeak, depth);
                trace::bump(Counter::ServeRequests);
                inner
                    .telemetry
                    .metrics
                    .observe_admission(req_lane(lane), AdmitDecision::Admit);
            }
        }
        // Wakeups ride outside the critical section.
        match admitted.len() {
            0 => {}
            1 => inner.queue_cv.notify_one(),
            _ => inner.queue_cv.notify_all(),
        }
        Enqueued { admitted, refused }
    }

    /// Answers `work` with the budgeted §4.6 bounds (see
    /// [`Inner::rescue`]), tallied on this shard.
    pub(crate) fn rescue(&self, work: &Work, why: Rescue) -> Reply {
        let reply = self.inner.rescue(work, why);
        self.inner.tally(&reply);
        reply
    }

    /// The `SHED` reply delivered for a refused `query`, tallied on this
    /// shard.
    pub(crate) fn shed(&self, query: &Query, refusal: Refusal) -> Reply {
        let inner = &self.inner;
        let decision = match refusal {
            Refusal::Draining => {
                inner.stats.bump(&inner.stats.shed_drain);
                AdmitDecision::ShedDrain
            }
            Refusal::QueueFull => {
                inner.stats.bump(&inner.stats.shed_queue);
                AdmitDecision::ShedQueue
            }
        };
        trace::bump(Counter::ServeSheds);
        inner.telemetry.metrics.observe_shed(req_verb(query.verb));
        inner
            .telemetry
            .metrics
            .observe_admission(req_lane(query.lane()), decision);
        Reply::shed(&query.id, RETRY_AFTER_MS, refusal.cause().to_string())
    }

    /// Gracefully drains the server: stops admitting, waits for queued
    /// and in-flight work up to the drain deadline, then cancels the
    /// rest (cancelled requests still answer — with §4.6 bounds when
    /// possible). Idempotent.
    pub(crate) fn drain(&self) {
        let inner = &self.inner;
        lock_ok(&inner.queue).draining = true;
        inner.queue_cv.notify_all();

        let deadline = Instant::now() + Duration::from_millis(inner.cfg.drain_deadline_ms);
        while Instant::now() < deadline {
            if self.idle() {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        if !self.idle() {
            // Deadline expired: cancel all in-flight governed work and
            // give it a bounded grace period to unwind and answer.
            inner.drain_cancel.store(true, Ordering::Relaxed);
            let grace = Instant::now() + Duration::from_millis(inner.cfg.drain_deadline_ms);
            while Instant::now() < grace && !self.idle() {
                thread::sleep(Duration::from_millis(5));
            }
        }
        lock_ok(&inner.queue).shutdown = true;
        inner.queue_cv.notify_all();
        inner.drained.store(true, Ordering::Relaxed);
    }

    fn idle(&self) -> bool {
        let q = lock_ok(&self.inner.queue);
        q.jobs.is_empty() && self.inner.inflight.load(Ordering::Relaxed) == 0
    }

    /// The `STATS` line: space-separated `key=value` counters.
    pub(crate) fn stats_line(&self) -> String {
        let s = &self.inner.stats;
        let breaker = lock_ok(&self.inner.breaker);
        let cache = lock_ok(&self.inner.cache);
        format!(
            "STATS admitted={} ok={} errors={} shed_queue={} shed_drain={} \
             cache_hits={} cache_misses={} cache_entries={} verify_mismatches={} \
             breaker={} breaker_opens={} degraded_first={} drain_bounded={} \
             queue_depth_peak={}",
            s.admitted.load(Ordering::Relaxed),
            s.ok.load(Ordering::Relaxed),
            s.errors.load(Ordering::Relaxed),
            s.shed_queue.load(Ordering::Relaxed),
            s.shed_drain.load(Ordering::Relaxed),
            s.cache_hits.load(Ordering::Relaxed),
            s.cache_misses.load(Ordering::Relaxed),
            cache.len(),
            s.verify_mismatches.load(Ordering::Relaxed),
            breaker.state_name(),
            breaker.opens(),
            s.degraded_first.load(Ordering::Relaxed),
            s.drain_bounded.load(Ordering::Relaxed),
            s.queue_depth_peak.load(Ordering::Relaxed),
        )
    }

    /// Read-only access to the counters.
    pub(crate) fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// The request-scoped telemetry hub (histograms, flight recorder).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Whether a drain (or condemnation) has completed.
    pub(crate) fn is_drained(&self) -> bool {
        self.inner.drained.load(Ordering::Relaxed)
    }

    /// Worker threads currently alive (supervisor health probe).
    pub(crate) fn workers_alive(&self) -> usize {
        self.inner.workers_alive.load(Ordering::SeqCst)
    }

    /// Worker threads this server was configured with.
    pub(crate) fn expected_workers(&self) -> usize {
        self.inner.cfg.workers.max(1)
    }

    /// Monotone worker progress counter (bumped on every job pop and
    /// completion). Stalls with inflight work mean a wedge.
    pub(crate) fn heartbeat(&self) -> u64 {
        self.inner.heartbeat.load(Ordering::Relaxed)
    }

    /// Whether some in-flight job is still within its governed bound
    /// (twice its effective deadline): slow, not wedged.
    pub(crate) fn within_governed_bound(&self) -> bool {
        let now = self.inner.started.elapsed().as_millis() as u64;
        self.inner
            .governed_until
            .iter()
            .any(|t| t.load(Ordering::SeqCst) > now)
    }

    /// Jobs currently being processed by workers.
    pub(crate) fn inflight(&self) -> usize {
        self.inner.inflight.load(Ordering::SeqCst)
    }

    /// Jobs waiting in the admission queue.
    pub(crate) fn queued(&self) -> usize {
        lock_ok(&self.inner.queue).jobs.len()
    }
}

impl Inner {
    /// The one §4.6 rescue: a fresh budgeted bound pass over `work`'s
    /// parse (`OK <id> bounded <why> lo ; hi`, or `ERR` when even the
    /// bounds fail or the query does not parse). It tallies what is
    /// particular to each rescue — `degraded_first`, `drain_bounded`,
    /// `admitted` for a request that never reached the queue, and the
    /// `evicted` admission decision — but not `ok`/`errors`, which the
    /// caller tallies from the reply ([`Inner::tally`]). Never cached.
    fn rescue(&self, work: &Work, why: Rescue) -> Reply {
        let query = &work.query;
        let stats = &self.stats;
        match why {
            Rescue::BreakerOpen(_) => stats.bump(&stats.degraded_first),
            Rescue::Cancelled(_) => stats.bump(&stats.drain_bounded),
            Rescue::EvictedAtAdmission => {
                stats.bump(&stats.admitted);
                trace::bump(Counter::ServeRequests);
            }
            Rescue::EvictedInQueue | Rescue::Failover => {}
        }
        let budgets = match why {
            Rescue::BreakerOpen(b) | Rescue::Cancelled(b) => b,
            // Evictions and failover keep the request's *structural*
            // budget overrides (splinter/clause/depth caps) but run
            // under the server's default deadline, never the request's
            // own: that deadline already lapsed (eviction) or the
            // request outlived its shard (failover), and a 0 ms leftover
            // would make the answer-of-last-resort itself fail.
            _ => Budgets {
                deadline: self.cfg.default_deadline_ms.map(Duration::from_millis),
                ..query.overrides.budgets(&self.cfg.default_budgets)
            },
        };
        let reply = match &work.parsed {
            Err(reply) => reply.clone(),
            Ok(p) => match p.bounds(budgets) {
                Ok((lo, hi)) => Reply::bounded(&query.id, why.label(), &lo, &hi),
                Err(_) if matches!(why, Rescue::Cancelled(_)) => {
                    Reply::err(&query.id, "cancelled", "cancelled by drain deadline")
                }
                Err(e) => Reply::err(&query.id, e.kind(), &e.to_string()),
            },
        };
        if matches!(why, Rescue::EvictedAtAdmission | Rescue::EvictedInQueue) {
            self.telemetry
                .metrics
                .observe_admission(req_lane(query.lane()), AdmitDecision::Evicted);
        }
        reply
    }

    /// Whether verify mode recomputes the cache hit with this ordinal.
    fn verify_due(&self, ordinal: u64) -> bool {
        matches!(self.cfg.verify_every, Some(n) if n > 0 && ordinal.is_multiple_of(n))
    }

    /// Tallies a delivered reply as `ok` or `errors`, by its variant.
    fn tally(&self, reply: &Reply) {
        let stats = &self.stats;
        stats.bump(match reply {
            Reply::Err { .. } => &stats.errors,
            _ => &stats.ok,
        });
    }
}

/// Maps a protocol verb to its telemetry label.
fn req_verb(verb: Verb) -> ReqVerb {
    match verb {
        Verb::Count => ReqVerb::Count,
        Verb::Sum => ReqVerb::Sum,
    }
}

/// Maps an admission lane to its telemetry label.
fn req_lane(lane: Lane) -> ReqLane {
    match lane {
        Lane::Interactive => ReqLane::Interactive,
        Lane::Batch => ReqLane::Batch,
        Lane::Background => ReqLane::Background,
    }
}

/// The deadline a request is subject to while *queued*: its own
/// `deadline_ms` override, falling back to the server default.
pub(crate) fn effective_deadline_ms(cfg: &ServeConfig, query: &Query) -> Option<u64> {
    query.overrides.deadline_ms.or(cfg.default_deadline_ms)
}

/// One worker: pops jobs and answers each over the parse its [`Work`]
/// carries — a front-door miss, a hit that verify mode recomputes, a
/// query that did not parse, or a job whose deadline lapsed in the
/// queue. Hits resident when a request arrives never get here: the
/// front door answers them ([`Handle::try_hit`]).
fn worker_loop(inner: &Arc<Inner>, worker: usize) {
    inner.telemetry.worker_init();
    let telemetry_on = inner.telemetry.active();
    let governed_until = &inner.governed_until[worker];
    loop {
        if let Some(gate) = &inner.cfg.hold {
            gate.wait();
        }
        let job = {
            let mut q = lock_ok(&inner.queue);
            loop {
                if let Some((_, job)) = q.jobs.pop() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = wait_ok(&inner.queue_cv, q);
            }
        };
        let work = &job.ticket.work;
        if let Some(d) = effective_deadline_ms(&inner.cfg, &work.query) {
            let now = inner.started.elapsed().as_millis() as u64;
            governed_until.store(now.saturating_add(d.saturating_mul(2)), Ordering::SeqCst);
        }
        inner.inflight.fetch_add(1, Ordering::SeqCst);
        inner.heartbeat.fetch_add(1, Ordering::Relaxed);
        // Chaos fires here — after the pop, before the unwind boundary,
        // with no lock held. A `kill` therefore never poisons a lock
        // (drill metrics stay clean) and the held job is provably
        // unanswered, which is exactly what the supervisor must recover.
        if let Some(site) = inner.chaos.as_ref().and_then(|c| c.on_job(inner.shard)) {
            match site {
                ChaosSite::Delay => thread::sleep(Duration::from_millis(40)),
                ChaosSite::Kill => std::panic::panic_any(chaos::ChaosKill),
                ChaosSite::Wedge => {
                    // Stall with the job held and the heartbeat frozen —
                    // what a livelocked worker looks like from outside.
                    // Exit (dropping the job) once the shard is
                    // condemned or drained.
                    loop {
                        if lock_ok(&inner.queue).shutdown {
                            inner.inflight.fetch_sub(1, Ordering::Relaxed);
                            return;
                        }
                        thread::sleep(Duration::from_millis(2));
                    }
                }
            }
        }
        let queue_wait = job.enqueued.elapsed();
        let baseline = inner.telemetry.counter_baseline();
        let started = Instant::now();
        // Expired in queue: answer immediately with the budgeted §4.6
        // bounds instead of burning a governed run on a reply the client
        // has given up on.
        let evict = effective_deadline_ms(&inner.cfg, &work.query)
            .is_some_and(|d| queue_wait >= Duration::from_millis(d));
        // The outer unwind boundary: a panic anywhere in processing —
        // including inside rendering — poisons only this request.
        let answer = catch_unwind(AssertUnwindSafe(|| {
            if evict {
                Answer::uncached(inner.rescue(work, Rescue::EvictedInQueue))
            } else {
                process(inner, work, queue_wait)
            }
        }))
        .unwrap_or_else(|_| {
            let reply = Reply::err(&work.query.id, "internal", "request processing panicked");
            Answer::uncached(reply)
        });
        inner.tally(&answer.reply);
        let outcome = answer.outcome();
        let total = started.elapsed();
        // Fulfil first: telemetry rides behind the response, never in
        // front of it.
        job.ticket.slot.fulfil(answer.reply);
        if telemetry_on {
            let counters = baseline.map(|base| trace::snapshot().delta(&base));
            let governor_tripped = counters
                .as_ref()
                .is_some_and(|d| d.get(Counter::GovernorTrips) > 0);
            let spans = inner.telemetry.take_spans();
            inner.telemetry.record(RequestTelemetry {
                id: work.query.id.clone(),
                verb: req_verb(work.query.verb),
                outcome,
                lane: req_lane(job.lane),
                queue_wait,
                total,
                engine: answer.engine,
                counters,
                governor_tripped,
                formula: work.formula_source(),
                spans,
            });
        }
        inner.heartbeat.fetch_add(1, Ordering::Relaxed);
        inner.inflight.fetch_sub(1, Ordering::SeqCst);
        governed_until.store(0, Ordering::SeqCst);
    }
}

/// What a worker hands back for one job: the typed reply plus the
/// telemetry the reply alone does not carry.
struct Answer {
    reply: Reply,
    /// Answered from the result cache, or a hit that verify mode
    /// recomputed.
    cache_hit: bool,
    /// Time inside the governed engine (zero for cache hits, parse
    /// errors and evictions).
    engine: Duration,
}

impl Answer {
    /// An answer that ran no engine.
    fn uncached(reply: Reply) -> Answer {
        Answer {
            reply,
            cache_hit: false,
            engine: Duration::ZERO,
        }
    }

    /// The telemetry outcome label.
    fn outcome(&self) -> ReqOutcome {
        match self.reply {
            _ if self.cache_hit => ReqOutcome::CacheHit,
            Reply::OkExact { .. } => ReqOutcome::Ok,
            Reply::OkBounded { .. } => ReqOutcome::Bounded,
            _ => ReqOutcome::Err,
        }
    }
}

/// A query's text parsed into a fresh space: what the cache lookup,
/// the governed run and a §4.6 rescue all work from.
struct Parsed {
    space: Space,
    formula: Formula,
    /// The counted variables, interned first (indices 0..n).
    vars: Vec<VarId>,
    poly: QPoly,
    /// The canonical result-cache key ([`Parsed::cache_key`]).
    key: Vec<u8>,
}

impl Parsed {
    /// Completes the parse of `query` from its already-parsed `formula`
    /// (over `space`, counted variables interned first) and the
    /// formula's canonical key bytes: parses the polynomial and builds
    /// the cache key, or answers `ERR <id> parse …`.
    fn new(
        query: &Query,
        mut space: Space,
        formula: Formula,
        formula_key: &[u8],
    ) -> Result<Parsed, Reply> {
        let affine = match &query.poly_text {
            None => None,
            Some(text) => Some(
                parse_affine(text, &mut space)
                    .map_err(|e| Reply::err(&query.id, "parse", &format!("in polynomial: {e}")))?,
            ),
        };
        let poly = affine
            .as_ref()
            .map(QPoly::from_affine)
            .unwrap_or_else(QPoly::one);
        let vars: Vec<VarId> = query
            .vars
            .iter()
            .map(|v| {
                space
                    .lookup(v)
                    .expect("invariant: counted variables were interned above")
            })
            .collect();
        let key = Parsed::cache_key(query, &space, &vars, formula_key, affine.as_ref());
        Ok(Parsed {
            space,
            formula,
            vars,
            poly,
            key,
        })
    }

    /// The canonical cache key: the structural interning encoding of
    /// the parsed formula, not its text. Counted variables are interned
    /// first (indices 0..n in listed order) and their *names* never
    /// appear in a response payload, so only their indices are keyed —
    /// alpha-equivalent queries that merely rename the counted
    /// variables share an entry. Free symbols, interned by the parser
    /// in appearance order, do surface in symbolic answers, so their
    /// (index, name) table is part of the key. Budget overrides are
    /// keyed too (they change whether an answer is exact or bounded).
    fn cache_key(
        query: &Query,
        space: &Space,
        vars: &[VarId],
        formula_key: &[u8],
        affine: Option<&Affine>,
    ) -> Vec<u8> {
        let mut key = Vec::with_capacity(64 + formula_key.len());
        key.push(match query.verb {
            Verb::Count => 0u8,
            Verb::Sum => 1,
        });
        key.extend_from_slice(&(vars.len() as u32).to_le_bytes());
        for v in vars {
            key.extend_from_slice(&(v.index() as u32).to_le_bytes());
        }
        key.extend_from_slice(&((space.len() - vars.len()) as u32).to_le_bytes());
        for v in space.iter().skip(vars.len()) {
            let name = space.name(v);
            key.extend_from_slice(&(v.index() as u32).to_le_bytes());
            key.extend_from_slice(&(name.len() as u32).to_le_bytes());
            key.extend_from_slice(name.as_bytes());
        }
        let over = query.overrides.cache_key_part();
        key.extend_from_slice(&(over.len() as u32).to_le_bytes());
        key.extend_from_slice(over.as_bytes());
        key.extend_from_slice(formula_key);
        match affine {
            None => key.push(0),
            Some(a) => {
                key.push(1);
                a.push_key_bytes(&mut key);
            }
        }
        key
    }

    /// Budgeted §4.6 lower/upper bound renderings. Governed by `budgets`
    /// with the injected fault disarmed (see
    /// [`presburger_counting::try_sum_polynomial_bounds`]) and a fresh
    /// cancellation token — a drain rescue must not be cancelled by the
    /// very drain token that sent it here.
    fn bounds(&self, budgets: Budgets) -> Result<(String, String), CountError> {
        let gov = Governor::new(budgets);
        let r = catch_unwind(AssertUnwindSafe(|| {
            try_sum_polynomial_bounds(
                &self.space,
                &self.formula,
                &self.vars,
                &self.poly,
                &CountOptions::default(),
                &gov,
            )
        }));
        match r {
            Ok(Ok((lo, hi))) => Ok((lo.to_display_string(), hi.to_display_string())),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(CountError::Internal("bound pass panicked".to_string())),
        }
    }
}

/// Computes the answer for one queued job over the front door's parse:
/// a front-door miss, or a hit that verify mode recomputes and checks
/// against the cached payload it carries. A miss is looked up once
/// more, by key: an equal request queued just ahead of it may have
/// filled the entry meanwhile, and answering it from the cache keeps
/// pipelined repeats hits, as they are when the shard's one worker
/// takes them in order. Tallies the job's cache hit or miss here, where
/// it is answered, and stores a fresh exact answer (a miss, or a verify
/// mismatch). Runs on a worker, inside its unwind boundary.
/// `queue_wait` is how long the request sat queued; it shrinks the
/// governed deadline so queue wait cannot overshoot the client's
/// budget.
fn process(inner: &Arc<Inner>, work: &Work, queue_wait: Duration) -> Answer {
    let query = &work.query;
    let p = match &work.parsed {
        Ok(p) => p,
        Err(reply) => return Answer::uncached(reply.clone()),
    };
    let looked_up = match &work.cached {
        Some(_) => None,
        None => lock_ok(&inner.cache).get(&p.key),
    };
    if let Some((value, ordinal)) = &looked_up {
        if !inner.verify_due(*ordinal) {
            inner.stats.bump(&inner.stats.cache_hits);
            trace::bump(Counter::ServeCacheHits);
            return Answer {
                reply: Reply::exact(&query.id, value),
                cache_hit: true,
                engine: Duration::ZERO,
            };
        }
    }
    let cached = work
        .cached
        .as_ref()
        .or(looked_up.as_ref().map(|(value, _)| value));
    if cached.is_some() {
        inner.stats.bump(&inner.stats.cache_hits);
        trace::bump(Counter::ServeCacheHits);
    } else {
        inner.stats.bump(&inner.stats.cache_misses);
        trace::bump(Counter::ServeCacheMisses);
    }

    let engine_start = Instant::now();
    let reply = compute(inner, work, queue_wait, p);
    let engine = engine_start.elapsed();
    let fresh = match &reply {
        Reply::OkExact { value, .. } => Some(value),
        _ => None,
    };
    let mismatch = match cached {
        Some(value) if fresh != Some(value) => {
            inner.stats.bump(&inner.stats.verify_mismatches);
            eprintln!(
                "serve: CACHE VERIFY MISMATCH for request {}: cached {value:?} vs recomputed {reply:?}",
                query.id
            );
            true
        }
        _ => false,
    };
    if let Some(fresh) = fresh.filter(|_| cached.is_none() || mismatch) {
        lock_ok(&inner.cache).put(&p.key, fresh);
    }
    Answer {
        reply,
        cache_hit: cached.is_some(),
        engine,
    }
}

/// Runs the governed computation per the breaker's plan: the exact
/// reply, a bounded one (budget trip or §4.6 rescue), or an `ERR`.
fn compute(inner: &Arc<Inner>, work: &Work, queue_wait: Duration, p: &Parsed) -> Reply {
    let query = &work.query;
    let id = &query.id;
    let plan = lock_ok(&inner.breaker).plan(Instant::now());

    let mut budgets = query.overrides.budgets(&inner.cfg.default_budgets);
    if budgets.deadline.is_none() {
        budgets.deadline = inner.cfg.default_deadline_ms.map(Duration::from_millis);
    }
    // Cooperative deadline propagation: time the request burned in the
    // queue comes out of its execution budget (floored at 1 ms so the
    // governed run still answers — with bounds — instead of hanging the
    // overshoot on the client).
    if let Some(d) = budgets.deadline {
        budgets.deadline = Some(d.saturating_sub(queue_wait).max(Duration::from_millis(1)));
    }

    if plan == Plan::Degrade {
        // Breaker open: skip the exact path entirely, answer with the
        // §4.6 bounds — still governed by the request's budgets, so a
        // degraded reply cannot run away either.
        return inner.rescue(work, Rescue::BreakerOpen(budgets));
    }

    let mut gov = Governor::new(budgets).with_cancel_token(inner.drain_cancel.clone());
    if let Some(spec) = &inner.cfg.fault_spec {
        gov = gov
            .with_fault(spec)
            .expect("invariant: cfg.fault_spec was validated at server start");
    }

    let run = catch_unwind(AssertUnwindSafe(|| {
        try_sum_polynomial_governed(
            &p.space,
            &p.formula,
            &p.vars,
            &p.poly,
            &CountOptions::default(),
            &gov,
        )
    }));
    let result = match run {
        Ok(r) => r,
        Err(_) => Err(CountError::Internal(
            "governed run panicked outside its own boundaries".to_string(),
        )),
    };

    let failure = matches!(
        &result,
        Err(CountError::Internal(_) | CountError::Deadline { .. })
            | Ok(Outcome::Bounded {
                why: CountError::Deadline { .. },
                ..
            })
    );
    lock_ok(&inner.breaker).record(plan, failure, Instant::now());
    if failure {
        inner
            .stats
            .breaker_opens
            .store(lock_ok(&inner.breaker).opens(), Ordering::Relaxed);
    }

    match result {
        Ok(Outcome::Exact(v)) => Reply::exact(id, &v.to_display_string()),
        Ok(Outcome::Bounded {
            lower, upper, why, ..
        }) => Reply::bounded(
            id,
            why.kind(),
            &lower.to_display_string(),
            &upper.to_display_string(),
        ),
        // Drain-deadline cancellation: rescue the request with the
        // budgeted §4.6 bounds so it still gets an answer.
        Err(CountError::Cancelled) if inner.drain_cancel.load(Ordering::Relaxed) => {
            inner.rescue(work, Rescue::Cancelled(budgets))
        }
        Err(e) => Reply::err(id, e.kind(), &e.to_string()),
    }
}

/// Answers a control request inline — the same replies on either codec.
/// A `drain` sets `saw_drain`, so the driver stops reading.
pub(crate) fn control_slot(handle: &PoolHandle, req: Request, saw_drain: &mut bool) -> Arc<Slot> {
    Slot::ready(match req {
        Request::Query(_) => unreachable!("queries are dispatched via submit"),
        Request::Ping(id) => Reply::Pong { id },
        Request::Stats => Reply::Stats {
            line: handle.stats_line(),
        },
        Request::Metrics => Reply::Block {
            text: handle.metrics_text(),
        },
        Request::FlightRec => Reply::Block {
            text: handle.flight_dump(),
        },
        Request::Shards => Reply::Block {
            text: handle.shards_text(),
        },
        Request::Drain => {
            *saw_drain = true;
            Reply::Bye {
                stats: handle.drain(),
            }
        }
    })
}

/// Serves one connection: reads newline-delimited requests from
/// `reader`, answers each with exactly one line on `writer`, in request
/// order. Returns after `drain` (pool-wide) or EOF; when
/// `drain_on_eof` is set, EOF triggers a pool drain and the final
/// stats line is emitted before returning.
///
/// The codec is auto-detected from the first byte: a connection that
/// opens with the binary magic prefix ([`crate::wire::MAGIC`]) is
/// handed to [`crate::wire::serve_binary_connection`]; anything else —
/// every existing client — gets the text protocol unchanged.
pub fn serve_connection(
    handle: &PoolHandle,
    mut reader: impl BufRead,
    mut writer: impl Write + Send + 'static,
    drain_on_eof: bool,
) -> Result<(), ServeError> {
    // Peek without consuming: the binary driver re-reads the full
    // preamble itself.
    let binary = reader.fill_buf()?.first() == Some(&crate::wire::MAGIC[0]);
    if binary {
        return crate::wire::serve_binary_connection(handle, reader, writer, drain_on_eof);
    }
    // Per-connection FIFO writer: slots are enqueued in request order
    // and emitted in that order, whatever order workers finish in.
    let (tx, rx) = mpsc::channel::<Arc<Slot>>();
    let writer_thread = thread::Builder::new()
        .name("serve-writer".to_string())
        .spawn(
            move || -> (Box<dyn Write + Send>, Result<(), std::io::Error>) {
                for slot in rx {
                    let line = slot.wait().to_text();
                    if let Err(e) = writeln!(writer, "{line}").and_then(|()| writer.flush()) {
                        return (Box::new(writer), Err(e));
                    }
                }
                (Box::new(writer), Ok(()))
            },
        )?;

    let mut saw_drain = false;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                drop(tx);
                let _ = writer_thread.join();
                return Err(ServeError::Io(e));
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        handle.observe_wire(ReqCodec::Text, None);
        let slot = match parse_request(trimmed) {
            Ok(Request::Query(q)) => handle.submit(q),
            Ok(req) => control_slot(handle, req, &mut saw_drain),
            Err(e) => Slot::ready(e.into()),
        };
        if tx.send(slot).is_err() {
            break; // writer died (broken pipe); stop reading
        }
        if saw_drain {
            break;
        }
    }

    if drain_on_eof && !saw_drain {
        let _ = tx.send(Slot::ready(Reply::Stats {
            line: handle.drain(),
        }));
    }
    drop(tx);
    match writer_thread.join() {
        Ok((_, Err(e))) => Err(ServeError::Io(e)),
        _ => Ok(()),
    }
}

/// Runs a one-shard pool over stdin/stdout: one request per line, one
/// response per line, drain on EOF or on a `drain` request. Returns the
/// final stats line.
pub fn run_stdio(cfg: ServeConfig) -> Result<String, ServeError> {
    validate(&cfg)?;
    let pool = ShardPool::start(ShardPoolConfig {
        shards: 1,
        shard_cfg: cfg,
        // A long exact run (`--timeout` past the 5 s wedge default, or
        // no deadline at all) is not a wedge: crashes are still caught.
        wedge_timeout_ms: u64::MAX,
        ..ShardPoolConfig::default()
    });
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_connection(&pool.handle(), stdin.lock(), stdout, true)?;
    Ok(pool.shutdown())
}

/// Accepts connections until the pool drains, serving each on its own
/// thread.
pub(crate) fn accept_loop(listener: TcpListener, handle: PoolHandle) {
    loop {
        if handle.is_drained() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let handle = handle.clone();
                let _ = thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        let _ = serve_tcp_connection(&handle, stream);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

fn serve_tcp_connection(handle: &PoolHandle, stream: TcpStream) -> Result<(), ServeError> {
    stream.set_nonblocking(false)?;
    let reader = std::io::BufReader::new(stream.try_clone()?);
    serve_connection(handle, reader, stream, false)
}

pub(crate) fn validate(cfg: &ServeConfig) -> Result<(), ServeError> {
    if cfg.queue_depth == 0 {
        return Err(ServeError::Config("queue_depth must be at least 1".into()));
    }
    if let Some(spec) = &cfg.fault_spec {
        presburger_trace::govern::parse_fault(spec)
            .map_err(|e| ServeError::Config(format!("fault_spec: {e}")))?;
    }
    Ok(())
}
