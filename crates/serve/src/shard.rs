//! The supervised shard pool: N bulkhead-isolated servers behind a
//! consistent-hash router and a health-checking supervisor. The pool is
//! the crate's only front door: every connection driver, `run_stdio`
//! included (a one-shard pool), answers requests through a
//! [`PoolHandle`].
//!
//! # Topology
//!
//! A [`ShardPool`] runs `shards` independent shard servers — each with
//! its own admission queue, worker pool, result cache, circuit breaker and
//! telemetry, so one shard's overload, breaker trip or crash never
//! bleeds into another (bulkhead isolation). A router hashes each
//! query's *canonical* formula encoding ([`routing_hash`]) onto a
//! consistent-hash [`Ring`], so equivalent queries always land on the
//! same shard (keeping its LRU cache hot) and growing the pool from N
//! to N+1 shards moves only ~1/(N+1) of the keyspace.
//!
//! # Supervision
//!
//! A supervisor thread probes every shard each `probe_interval_ms`:
//!
//! * **Crash** — a worker that panicked past its unwind boundary shows
//!   up as `workers_alive < expected` (a drop guard decrements the
//!   count at thread exit).
//! * **Wedge** — a shard with in-flight work whose heartbeat (bumped on
//!   every job pop and completion) has not advanced for
//!   `wedge_timeout_ms`, and whose in-flight jobs have all outlived
//!   their governed bound (twice the effective deadline; a job with no
//!   deadline has none). A slow request within its deadline is not a
//!   wedge.
//!
//! A condemned shard is abandoned (admission stopped, wedged threads
//! detached, never joined) and restarted with capped exponential
//! backoff. Its admitted-but-unanswered requests are orphaned and
//! re-dispatched to ring-successor siblings or its own replacement —
//! or, once the `redispatch_budget` is spent or `rescue_after_ms` has
//! passed, rescued with a fresh §4.6 bound pass (`OK … bounded failover
//! lo ; hi`). A submission that finds every shard restarting is
//! orphaned the same way, so even a one-shard pool rides out a crash
//! with exact answers. An
//! admitted request therefore gets **exactly one** reply: exact,
//! bounded, or `ERR` — never silence. Duplicate fulfilment (the
//! orphaned worker finishing anyway) is harmless because replies are
//! pure functions of the query, so both producers publish the identical
//! reply ([`Slot::fulfil`]).
//!
//! # Determinism
//!
//! Routing is a pure function of the query, replies are pure functions
//! of the query, and per-connection writers are FIFO — so client
//! transcripts are byte-identical at any shard count, with chaos
//! ([`crate::chaos`]) on or off. `serve_stress` phase 6 and
//! `scripts/check.sh`'s `chaos_gate` hold the pool to exactly that.
//!
//! See DESIGN.md §14 for the full design rationale.

use crate::chaos::Chaos;
use crate::protocol::{Query, ServeError, Verb};
use crate::server::{
    self, Enqueued, Handle, Refusal, Rescue, ServeConfig, Server, Slot, Ticket, Work,
};
use crate::sync::lock_ok;
use presburger_omega::{parse_formula, Space};
use presburger_trace::metrics::{ReqCodec, RequestMetrics};
use presburger_trace::shard::{render_prometheus, ShardRow, ShardRowSnapshot};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Shard-pool configuration. `Default` gives two shards with default
/// [`ServeConfig`]s, a 5 s wedge timeout, a 5 ms probe interval, a
/// 10 ms restart backoff (capped at 1 s), and a redispatch budget of 2
/// hops before the §4.6 fallback.
#[derive(Clone, Debug)]
pub struct ShardPoolConfig {
    /// Number of shards (each a full server); at least 1.
    pub shards: usize,
    /// Per-shard server configuration, shared by every shard.
    pub shard_cfg: ServeConfig,
    /// A shard with in-flight work whose heartbeat has not advanced for
    /// this long is condemned as wedged — once every in-flight job has
    /// also outlived twice its effective deadline (jobs without a
    /// deadline have no such grace).
    pub wedge_timeout_ms: u64,
    /// Supervisor probe cadence.
    pub probe_interval_ms: u64,
    /// Base restart backoff after a condemnation; doubles per
    /// consecutive restart up to 1 s.
    pub restart_backoff_ms: u64,
    /// Orphan re-dispatch hops before the §4.6 `failover` fallback.
    pub redispatch_budget: u32,
    /// Orphan age at which the fallback fires regardless of hops
    /// (deadline-awareness: a request must not wait out serial
    /// restarts).
    pub rescue_after_ms: u64,
    /// Deterministic chaos, shared by every shard; `None` means no
    /// chaos. This field is the only way to arm it: the pool reads no
    /// environment variable (`serve_stress` maps `PRESBURGER_CHAOS`
    /// onto it).
    pub chaos: Option<Arc<Chaos>>,
}

impl Default for ShardPoolConfig {
    fn default() -> ShardPoolConfig {
        ShardPoolConfig {
            shards: 2,
            shard_cfg: ServeConfig::default(),
            wedge_timeout_ms: 5_000,
            probe_interval_ms: 5,
            restart_backoff_ms: 10,
            redispatch_budget: 2,
            rescue_after_ms: 3_000,
            chaos: None,
        }
    }
}

/// Restart backoff cap; also the healthy streak that resets the ladder.
const RESTART_BACKOFF_MAX_MS: u64 = 1_000;

/// Virtual nodes per shard on the consistent-hash ring.
const VNODES: usize = 64;

/// FNV-1a's offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`: hashing pieces in turn
/// equals hashing their concatenation. FNV-1a is the crate's routing
/// hash primitive (stable across runs and platforms, unlike
/// `DefaultHasher`).
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: spreads structured inputs (vnode ids) over the
/// full 64-bit space.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic routing key of a query: FNV-1a over the verb, the
/// counted-variable count, the *canonical* interned encoding of the
/// parsed formula ([`presburger_omega::intern::formula_push_key_bytes`])
/// and the polynomial text. Textual variants of the same formula route
/// identically, so a shard's result cache sees every spelling of its
/// keys. Unparsable formulas fall back to raw text — still a pure
/// function of the query. Overrides are deliberately *not* keyed: the
/// same formula at different budgets should hit the same shard's cache
/// path.
///
/// The pool's front door does not call this: it hashes the bytes of
/// the one parse it makes anyway, with the same result.
pub fn routing_hash(query: &Query) -> u64 {
    let mut space = Space::new();
    for v in &query.vars {
        space.var(v);
    }
    let formula_key = parse_formula(&query.formula_text, &mut space)
        .ok()
        .map(|f| {
            let mut key = Vec::with_capacity(64);
            presburger_omega::intern::formula_push_key_bytes(&f, &mut key);
            key
        });
    route_hash(query, formula_key.as_deref())
}

/// [`routing_hash`] over a formula the caller already parsed:
/// `formula_key` holds its canonical key bytes, `None` when the formula
/// does not parse.
pub(crate) fn route_hash(query: &Query, formula_key: Option<&[u8]>) -> u64 {
    let verb = match query.verb {
        Verb::Count => 0u8,
        Verb::Sum => 1,
    };
    let mut h = fnv1a_extend(FNV_OFFSET, &[verb]);
    h = fnv1a_extend(h, &(query.vars.len() as u32).to_le_bytes());
    match formula_key {
        Some(key) => h = fnv1a_extend(h, key),
        None => {
            h = fnv1a_extend(h, query.formula_text.as_bytes());
            for v in &query.vars {
                h = fnv1a_extend(h, v.as_bytes());
            }
        }
    }
    if let Some(p) = &query.poly_text {
        h = fnv1a_extend(h, p.as_bytes());
    }
    h
}

/// A consistent-hash ring: 64 points per shard, a key routes to
/// the first point clockwise from its hash. Growing the pool N→N+1
/// re-routes only the keys that land on the new shard's points —
/// ~1/(N+1) of the keyspace — so shard caches survive re-sizing.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point_hash, shard)`, sorted by hash.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// A ring for `shards` shards. Point hashes depend only on
    /// `(shard, vnode)`, so rings of different sizes share all points of
    /// their common shards.
    pub fn new(shards: usize) -> Ring {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES);
        for s in 0..shards {
            for v in 0..VNODES {
                points.push((splitmix64(((s as u64) << 32) | v as u64), s));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        Ring { points }
    }

    /// The shard a key hash routes to: the first ring point at or past
    /// the hash, wrapping at the top.
    pub fn route(&self, hash: u64) -> usize {
        let i = self.points.partition_point(|p| p.0 < hash);
        let i = if i == self.points.len() { 0 } else { i };
        self.points[i].1
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.points.iter().map(|p| p.1).max().map_or(1, |m| m + 1)
    }
}

/// An admitted-but-unanswered request a shard is responsible for.
struct Tracked {
    ticket: Arc<Ticket>,
    /// Re-dispatch hops already spent on this request.
    attempts: u32,
    /// Admission to the *pool* (for `rescue_after_ms`).
    since: Instant,
}

/// A request whose shard was condemned before it answered.
struct Orphan {
    ticket: Arc<Ticket>,
    /// The shard that lost it (re-dispatch prefers its ring successor;
    /// its row is charged for the re-dispatch or rescue).
    origin: usize,
    attempts: u32,
    since: Instant,
}

/// One shard's supervision state (its server plus what the supervisor
/// knows about it).
struct ShardState {
    /// The live server; `None` while condemned and awaiting restart.
    server: Option<Server>,
    /// Submit handle for the current epoch's server.
    handle: Handle,
    /// Restart generation, 0 for the original server.
    epoch: u64,
    /// Condemnations without an intervening healthy streak (drives the
    /// backoff ladder).
    consecutive_restarts: u32,
    /// When the pending restart is due, if condemned.
    restart_at: Option<Instant>,
    /// When the last restart happened (for the healthy-streak reset).
    last_restart: Option<Instant>,
    /// Heartbeat value at the last observed progress.
    last_heartbeat: u64,
    /// When the heartbeat last advanced.
    last_progress: Instant,
    /// Requests admitted to this shard and not yet seen done.
    pending: Vec<Tracked>,
}

struct PoolInner {
    cfg: ShardPoolConfig,
    ring: Ring,
    shards: Mutex<Vec<ShardState>>,
    /// Requests whose shard died; the supervisor places or rescues
    /// them each tick.
    orphans: Mutex<Vec<Orphan>>,
    /// Per-shard routed/redispatched/rescued/restart counters, indexed
    /// by shard. Lock-free so the hot submit path never contends with
    /// the supervisor.
    rows: Vec<Arc<ShardRow>>,
    draining: AtomicBool,
    drained: AtomicBool,
}

/// A running supervised shard pool.
pub struct ShardPool {
    inner: Arc<PoolInner>,
    stop: Arc<AtomicBool>,
    supervisor: Option<thread::JoinHandle<()>>,
}

/// A shareable submit/drain handle for a [`ShardPool`]: what every
/// connection driver answers requests through.
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<PoolInner>,
}

impl ShardPool {
    /// Starts `cfg.shards` servers and the supervisor thread.
    pub fn start(cfg: ShardPoolConfig) -> ShardPool {
        let shards_n = cfg.shards.max(1);
        let ring = Ring::new(shards_n);
        let rows: Vec<Arc<ShardRow>> = (0..shards_n).map(|_| Arc::new(ShardRow::new())).collect();
        let now = Instant::now();
        let states: Vec<ShardState> = (0..shards_n)
            .map(|i| {
                let server = Server::start(cfg.shard_cfg.clone(), i, cfg.chaos.clone());
                let handle = server.handle();
                ShardState {
                    server: Some(server),
                    handle,
                    epoch: 0,
                    consecutive_restarts: 0,
                    restart_at: None,
                    last_restart: None,
                    last_heartbeat: 0,
                    last_progress: now,
                    pending: Vec::new(),
                }
            })
            .collect();
        let inner = Arc::new(PoolInner {
            cfg,
            ring,
            shards: Mutex::new(states),
            orphans: Mutex::new(Vec::new()),
            rows,
            draining: AtomicBool::new(false),
            drained: AtomicBool::new(false),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let supervisor = {
            let inner = inner.clone();
            let stop = stop.clone();
            thread::Builder::new()
                .name("serve-supervisor".to_string())
                .spawn(move || {
                    let tick = Duration::from_millis(inner.cfg.probe_interval_ms.max(1));
                    while !stop.load(Ordering::Relaxed) {
                        supervise_tick(&inner);
                        thread::sleep(tick);
                    }
                })
                .expect("invariant: spawning the supervisor thread cannot fail here")
        };
        ShardPool {
            inner,
            stop,
            supervisor: Some(supervisor),
        }
    }

    /// A shareable submit/drain handle.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            inner: self.inner.clone(),
        }
    }

    /// Drains every shard, rescues any leftover orphans, stops the
    /// supervisor and joins what can be joined. Returns the final
    /// `STATS` line.
    pub fn shutdown(mut self) -> String {
        let line = self.handle().drain();
        self.stop.store(true, Ordering::Relaxed);
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        let servers: Vec<Server> = {
            let mut shards = lock_ok(&self.inner.shards);
            shards
                .iter_mut()
                .filter_map(|st| st.server.take())
                .collect()
        };
        for server in servers {
            server.shutdown();
        }
        line
    }
}

impl Drop for ShardPool {
    /// A pool dropped without [`ShardPool::shutdown`] still stops its
    /// supervisor thread (next tick) instead of leaking it for the
    /// process lifetime.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl PoolHandle {
    /// Routes and admits one query (see [`PoolHandle::submit_batch`]).
    pub fn submit(&self, query: Query) -> Arc<Slot> {
        self.submit_batch(vec![query])
            .pop()
            .expect("invariant: one slot per query")
    }

    /// Routes and admits a batch of queries; returns one slot per query,
    /// in input order, each (or later) fulfilled with exactly one reply.
    ///
    /// The front door (DESIGN.md §16) runs once per query, in order. It
    /// parses the query once and routes it by the bytes of that parse.
    /// Then a draining pool sheds, and a request whose effective
    /// deadline is already zero is answered at once with §4.6 bounds. A hit in the routed
    /// shard's result cache is answered right here, on a ready slot
    /// (`Handle::try_hit`): it never queues, so lanes, queue-full
    /// sheds and eviction do not apply to it. Each decision is tallied
    /// on the routed shard, keeping `shards`/`STATS` rows a pure
    /// function of the request stream at any shard count. The rest —
    /// misses, hits that verify mode recomputes, queries that do not
    /// parse — are grouped by routed shard and each group is admitted
    /// under that shard's single queue-lock reservation
    /// (`Handle::try_enqueue`): when its queue fills mid-batch, the rest
    /// of the group sheds *in position* while earlier admissions stand.
    pub fn submit_batch(&self, queries: Vec<Query>) -> Vec<Arc<Slot>> {
        let inner = &self.inner;
        let handles = self.handles();
        let mut slots = Vec::with_capacity(queries.len());
        let mut groups: Vec<Vec<Arc<Ticket>>> = vec![Vec::new(); inner.rows.len()];
        for query in queries {
            let (mut work, hash) = Work::parse(query);
            let target = inner.ring.route(hash);
            let shard = &handles[target];
            if inner.draining.load(Ordering::Relaxed) {
                slots.push(Slot::ready(shard.shed(&work.query, Refusal::Draining)));
            } else if server::effective_deadline_ms(&inner.cfg.shard_cfg, &work.query) == Some(0) {
                slots.push(Slot::ready(shard.rescue(&work, Rescue::EvictedAtAdmission)));
            } else if let Some(reply) = shard.try_hit(&mut work) {
                slots.push(Slot::ready(reply));
            } else {
                let slot = Slot::new();
                slots.push(slot.clone());
                groups[target].push(Arc::new(Ticket { work, slot }));
            }
        }
        for (target, group) in groups.into_iter().enumerate() {
            self.admit(target, group);
        }
        slots
    }

    /// Admits one routed group. The routed shard takes it unless that
    /// shard is mid-restart, in which case the first accepting ring
    /// successor does (failover-on-submit — a condemned shard must not
    /// turn into client-visible sheds). Queue-full refusals are
    /// delivered as `SHED`; a shard condemned between the pick and the
    /// enqueue passes its refusals on to the next sibling. A request no
    /// shard can take right now — every shard is restarting — is
    /// orphaned, and the supervisor places it on the first replacement
    /// (or rescues it after `rescue_after_ms`); only a draining pool
    /// sheds it instead.
    fn admit(&self, target: usize, mut group: Vec<Arc<Ticket>>) {
        let inner = &self.inner;
        let n = inner.rows.len();
        for off in 0..n {
            if group.is_empty() {
                return;
            }
            let i = (target + off) % n;
            let (handle, epoch) = {
                let shards = lock_ok(&inner.shards);
                let st = &shards[i];
                if st.server.is_none() || st.restart_at.is_some() {
                    continue;
                }
                (st.handle.clone(), st.epoch)
            };
            let Enqueued { admitted, refused } = handle.try_enqueue(group);
            let mut rerouted = Vec::new();
            for (ticket, refusal) in refused {
                if refusal == Refusal::Draining {
                    rerouted.push(ticket);
                } else {
                    ticket.slot.fulfil(handle.shed(&ticket.work.query, refusal));
                }
            }
            inner.rows[i]
                .routed
                .fetch_add(admitted.len() as u64, Ordering::Relaxed);
            track(inner, i, epoch, admitted);
            group = rerouted;
        }
        if group.is_empty() {
            return;
        }
        if inner.draining.load(Ordering::Relaxed) {
            let handle = lock_ok(&inner.shards)[target].handle.clone();
            for ticket in group {
                ticket
                    .slot
                    .fulfil(handle.shed(&ticket.work.query, Refusal::Draining));
            }
            return;
        }
        let since = Instant::now();
        inner.rows[target]
            .routed
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        lock_ok(&inner.orphans).extend(group.into_iter().map(|ticket| Orphan {
            ticket,
            origin: target,
            attempts: 0,
            since,
        }));
    }

    /// Observational hook: a connection driver saw one request frame
    /// (or, with `batch = Some(k)`, a batch frame of `k` inner requests)
    /// on `codec`. Codec traffic is connection-level, not shard-level,
    /// so it is charged to shard 0's current telemetry hub; replies are
    /// unaffected.
    pub(crate) fn observe_wire(&self, codec: ReqCodec, batch: Option<u64>) {
        let h = lock_ok(&self.inner.shards)[0].handle.clone();
        let m = &h.telemetry().metrics;
        m.observe_codec_requests(codec, batch.unwrap_or(1));
        if let Some(k) = batch {
            m.observe_batch(k);
        }
    }

    /// Gracefully drains the pool: stops admitting, drains every shard
    /// in parallel (each under its own drain deadline), rescues anything
    /// still unanswered, and returns the final `STATS` line.
    /// Idempotent.
    pub fn drain(&self) -> String {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::Relaxed);
        let handles = self.handles();
        thread::scope(|scope| {
            for h in &handles {
                scope.spawn(move || h.drain());
            }
        });
        // Belt and braces: anything the shard drains could not answer
        // (condemned shards, in-backoff restarts) gets the fallback.
        let leftovers: Vec<Orphan> = {
            let mut shards = lock_ok(&inner.shards);
            let mut v = Vec::new();
            for (i, st) in shards.iter_mut().enumerate() {
                for t in st.pending.drain(..) {
                    if !t.ticket.slot.is_done() {
                        v.push(Orphan {
                            ticket: t.ticket,
                            origin: i,
                            attempts: t.attempts,
                            since: t.since,
                        });
                    }
                }
            }
            v
        };
        let orphans = std::mem::take(&mut *lock_ok(&inner.orphans));
        for o in leftovers.into_iter().chain(orphans) {
            rescue(inner, o);
        }
        inner.drained.store(true, Ordering::Relaxed);
        self.stats_line()
    }

    /// The current-epoch handle of every shard, in shard order.
    fn handles(&self) -> Vec<Handle> {
        lock_ok(&self.inner.shards)
            .iter()
            .map(|st| st.handle.clone())
            .collect()
    }

    /// The `STATS` line. A one-shard pool answers with its shard's own
    /// line; larger pools sum the shards' server counters (current
    /// epochs) and add the pool-level failover counters.
    pub fn stats_line(&self) -> String {
        let handles = self.handles();
        if let [only] = &handles[..] {
            return only.stats_line();
        }
        let (mut admitted, mut ok, mut errors, mut sheds, mut cache_hits) = (0, 0, 0, 0, 0);
        for h in &handles {
            let s = h.stats();
            admitted += s.admitted();
            ok += s.ok();
            errors += s.errors();
            sheds += s.sheds();
            cache_hits += s.cache_hits();
        }
        let (mut redispatched, mut rescued, mut restarts) = (0, 0, 0);
        for row in self.shard_rows() {
            redispatched += row.redispatched;
            rescued += row.rescued;
            restarts += row.restarts;
        }
        format!(
            "STATS shards={} admitted={admitted} ok={ok} errors={errors} sheds={sheds} \
             cache_hits={cache_hits} redispatched={redispatched} rescued={rescued} \
             restarts={restarts}",
            handles.len(),
        )
    }

    /// The `shards` verb's reply: one header plus one row per shard
    /// (state, epoch, health gauges, failover counters, server
    /// counters), `# EOF` terminated.
    pub fn shards_text(&self) -> String {
        let inner = &self.inner;
        let shards = lock_ok(&inner.shards);
        let mut out = format!("SHARDS shards={}\n", shards.len());
        for (i, st) in shards.iter().enumerate() {
            let row = inner.rows[i].snapshot();
            let state = if st.restart_at.is_some() || st.server.is_none() {
                "restarting"
            } else if st.handle.is_drained() {
                "drained"
            } else {
                "healthy"
            };
            let s = st.handle.stats();
            out.push_str(&format!(
                "shard={i} state={state} epoch={} workers={} alive={} inflight={} queued={} \
                 routed={} redispatched={} rescued={} restarts={} crashes={} wedges={} \
                 admitted={} ok={} errors={}\n",
                st.epoch,
                st.handle.expected_workers(),
                st.handle.workers_alive(),
                st.handle.inflight(),
                st.handle.queued(),
                row.routed,
                row.redispatched,
                row.rescued,
                row.restarts,
                row.crashes,
                row.wedges,
                s.admitted(),
                s.ok(),
                s.errors(),
            ));
        }
        out.push_str("# EOF");
        out
    }

    /// The shards' request telemetry (current epochs), merged
    /// element-wise into one registry.
    pub fn request_metrics(&self) -> RequestMetrics {
        let merged = RequestMetrics::new(true);
        for h in self.handles() {
            merged.absorb(&h.telemetry().metrics);
        }
        merged
    }

    /// The `metrics` verb's reply: the merged request telemetry and the
    /// `presburger_shard_*` families, `# EOF` terminated.
    pub fn metrics_text(&self) -> String {
        let mut out = self.request_metrics().render_prometheus();
        out.push_str(&render_prometheus(&self.shard_rows()));
        out.push_str("# EOF");
        out
    }

    /// The `flightrec` verb's reply: every shard's retained slow
    /// requests, in shard order, `# EOF` terminated.
    pub fn flight_dump(&self) -> String {
        let mut out = String::new();
        for h in self.handles() {
            for r in h.telemetry().flight_records() {
                out.push_str(&r.to_json());
                out.push('\n');
            }
        }
        out.push_str("# EOF");
        out
    }

    /// Whether a pool drain has completed.
    pub fn is_drained(&self) -> bool {
        self.inner.drained.load(Ordering::Relaxed)
    }

    /// Per-shard failover-counter snapshots, indexed by shard (for
    /// harnesses and the bench writer).
    pub fn shard_rows(&self) -> Vec<ShardRowSnapshot> {
        self.inner.rows.iter().map(|r| r.snapshot()).collect()
    }
}

/// Backoff before restart number `consecutive` (1-based): base doubled
/// per consecutive condemnation, capped.
fn backoff_ms(cfg: &ShardPoolConfig, consecutive: u32) -> u64 {
    let exp = consecutive.saturating_sub(1).min(16);
    cfg.restart_backoff_ms
        .saturating_mul(1u64 << exp)
        .min(RESTART_BACKOFF_MAX_MS)
}

/// Records requests that `try_enqueue` just admitted to shard `i` on
/// restart generation `epoch`. If the supervisor condemned the shard
/// in between, its pendings were orphaned without these and its queue
/// may never run, so they are orphaned too (a late answer from the old
/// queue is a harmless duplicate: replies are pure).
fn track(inner: &PoolInner, i: usize, epoch: u64, admitted: Vec<Arc<Ticket>>) {
    if admitted.is_empty() {
        return;
    }
    let since = Instant::now();
    let mut shards = lock_ok(&inner.shards);
    let st = &mut shards[i];
    if st.epoch == epoch && st.restart_at.is_none() {
        st.pending
            .extend(admitted.into_iter().map(|ticket| Tracked {
                ticket,
                attempts: 0,
                since,
            }));
        return;
    }
    drop(shards);
    lock_ok(&inner.orphans).extend(admitted.into_iter().map(|ticket| Orphan {
        ticket,
        origin: i,
        attempts: 1,
        since,
    }));
}

/// Condemns shard `i`: abandons its server, schedules the restart on
/// the backoff ladder and moves its unanswered pendings to `orphans`.
fn condemn(
    cfg: &ShardPoolConfig,
    i: usize,
    st: &mut ShardState,
    now: Instant,
    orphans: &mut Vec<Orphan>,
) {
    if let Some(server) = st.server.take() {
        server.abandon();
    }
    st.consecutive_restarts += 1;
    st.restart_at = Some(now + Duration::from_millis(backoff_ms(cfg, st.consecutive_restarts)));
    for t in st.pending.drain(..) {
        if t.ticket.slot.is_done() {
            continue;
        }
        orphans.push(Orphan {
            ticket: t.ticket,
            origin: i,
            attempts: t.attempts + 1,
            since: t.since,
        });
    }
}

/// One supervisor probe: sweep answered pendings, perform due restarts,
/// condemn crashed/wedged shards (orphaning their pendings), and place
/// or rescue orphans.
fn supervise_tick(inner: &Arc<PoolInner>) {
    let now = Instant::now();
    let cfg = &inner.cfg;
    let wedge = Duration::from_millis(cfg.wedge_timeout_ms);
    let pool_draining = inner.draining.load(Ordering::Relaxed);
    let mut new_orphans: Vec<Orphan> = Vec::new();
    {
        let mut shards = lock_ok(&inner.shards);
        for (i, st) in shards.iter_mut().enumerate() {
            st.pending.retain(|t| !t.ticket.slot.is_done());
            if let Some(at) = st.restart_at {
                if now >= at && !pool_draining {
                    let server = Server::start(cfg.shard_cfg.clone(), i, cfg.chaos.clone());
                    st.handle = server.handle();
                    st.server = Some(server);
                    st.epoch += 1;
                    st.restart_at = None;
                    st.last_restart = Some(now);
                    st.last_heartbeat = 0;
                    st.last_progress = now;
                    ShardRow::bump(&inner.rows[i].restarts);
                }
                continue;
            }
            // A healthy streak as long as the backoff cap resets the
            // ladder.
            if let Some(r) = st.last_restart {
                if now.duration_since(r) >= Duration::from_millis(RESTART_BACKOFF_MAX_MS) {
                    st.consecutive_restarts = 0;
                    st.last_restart = None;
                }
            }
            let h = &st.handle;
            let hb = h.heartbeat();
            if hb != st.last_heartbeat {
                st.last_heartbeat = hb;
                st.last_progress = now;
            }
            let draining = pool_draining || h.is_drained();
            let crashed = !draining && h.workers_alive() < h.expected_workers();
            // The bound is read before `inflight`: a job retires by
            // leaving `inflight` before it clears its bound.
            let wedged = !draining
                && !h.within_governed_bound()
                && h.inflight() > 0
                && now.duration_since(st.last_progress) >= wedge;
            if !(crashed || wedged) {
                continue;
            }
            if crashed {
                ShardRow::bump(&inner.rows[i].crashes);
            } else {
                ShardRow::bump(&inner.rows[i].wedges);
            }
            condemn(cfg, i, st, now, &mut new_orphans);
        }
    }
    if !new_orphans.is_empty() {
        lock_ok(&inner.orphans).append(&mut new_orphans);
    }
    place_orphans(inner, now);
}

/// Places each orphan on an accepting shard — the origin's ring
/// successors first, wrapping around to the origin's own replacement —
/// or rescues it with the §4.6 fallback once its budget or deadline is
/// spent. Orphans that fit nowhere yet (every candidate in backoff)
/// stay queued for the next tick.
fn place_orphans(inner: &Arc<PoolInner>, now: Instant) {
    let mut orphans = {
        let mut o = lock_ok(&inner.orphans);
        if o.is_empty() {
            return;
        }
        std::mem::take(&mut *o)
    };
    let rescue_after = Duration::from_millis(inner.cfg.rescue_after_ms);
    let n = inner.rows.len();
    // Snapshot accepting handles once per tick.
    let mut accepting: Vec<Option<Handle>> = Vec::with_capacity(n);
    {
        let shards = lock_ok(&inner.shards);
        for st in shards.iter() {
            if st.server.is_some() && st.restart_at.is_none() && !st.handle.is_drained() {
                accepting.push(Some(st.handle.clone()));
            } else {
                accepting.push(None);
            }
        }
    }
    let mut keep: Vec<Orphan> = Vec::new();
    for o in orphans.drain(..) {
        if o.ticket.slot.is_done() {
            continue;
        }
        if o.attempts > inner.cfg.redispatch_budget || now.duration_since(o.since) >= rescue_after {
            rescue(inner, o);
            continue;
        }
        let mut placed = None;
        for off in 1..=n {
            let i = (o.origin + off) % n;
            if let Some(h) = &accepting[i] {
                if h.try_enqueue(vec![o.ticket.clone()]).refused.is_empty() {
                    placed = Some(i);
                    break;
                }
            }
        }
        match placed {
            Some(i) => {
                ShardRow::bump(&inner.rows[o.origin].redispatched);
                lock_ok(&inner.shards)[i].pending.push(Tracked {
                    ticket: o.ticket,
                    attempts: o.attempts,
                    since: o.since,
                });
            }
            None => keep.push(o),
        }
    }
    if !keep.is_empty() {
        lock_ok(&inner.orphans).append(&mut keep);
    }
}

/// Terminal fallback for an orphan nothing could place: the §4.6
/// rescue (`OK … bounded failover lo ; hi`, or `ERR`), tallied on the
/// origin shard's current server.
fn rescue(inner: &PoolInner, o: Orphan) {
    let Ticket { work, slot } = &*o.ticket;
    if slot.is_done() {
        return;
    }
    ShardRow::bump(&inner.rows[o.origin].rescued);
    let origin = lock_ok(&inner.shards)[o.origin].handle.clone();
    slot.fulfil(origin.rescue(work, Rescue::Failover));
}

/// A TCP front-end for a shard pool: accepts connections and serves
/// each on its own thread against the pool until it drains.
pub struct PoolTcpServer {
    pool: ShardPool,
    addr: std::net::SocketAddr,
    accept_thread: thread::JoinHandle<()>,
}

impl PoolTcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting.
    pub fn bind(addr: &str, cfg: ShardPoolConfig) -> Result<PoolTcpServer, ServeError> {
        server::validate(&cfg.shard_cfg)?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let pool = ShardPool::start(cfg);
        let handle = pool.handle();
        let accept_thread = thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || server::accept_loop(listener, handle))?;
        Ok(PoolTcpServer {
            pool,
            addr: local,
            accept_thread,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A submit/drain handle.
    pub fn handle(&self) -> PoolHandle {
        self.pool.handle()
    }

    /// Drains the pool and stops accepting. Returns the final `STATS`
    /// line.
    pub fn shutdown(self) -> String {
        let line = self.pool.shutdown();
        let _ = self.accept_thread.join();
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use crate::protocol::Request;
    use crate::server::Gate;

    fn query(line: &str) -> Query {
        match parse_request(line).expect("test query parses") {
            Request::Query(q) => q,
            other => panic!("expected a query, got {other:?}"),
        }
    }

    #[test]
    fn ring_route_is_stable_and_in_range() {
        let ring = Ring::new(4);
        assert_eq!(ring.shards(), 4);
        for k in 0..1000u64 {
            let h = splitmix64(k);
            let s = ring.route(h);
            assert!(s < 4);
            assert_eq!(s, ring.route(h), "routing must be deterministic");
        }
    }

    #[test]
    fn routing_hash_ignores_spelling_but_not_structure() {
        let a = query("count r1 {x : 1 <= x && x <= 9}");
        let b = query("count r2 {x : 1<=x&&x<=9}");
        let c = query("count r3 {x : 1 <= x && x <= 10}");
        assert_eq!(routing_hash(&a), routing_hash(&b));
        assert_ne!(routing_hash(&a), routing_hash(&c));
    }

    #[test]
    fn front_door_routes_by_the_routing_hash() {
        // The front door hashes the bytes of the one parse it makes;
        // `routing_hash` parses on its own. They must agree on every
        // query — generated counts and sums, the same lines with an
        // unparsable formula, and hand-written sums whose polynomial
        // has free symbols or does not parse — or a query would change
        // shard.
        let generated =
            presburger_gen::request_lines(29, 400, &presburger_gen::GenConfig::default());
        let mut lines: Vec<String> = Vec::new();
        for r in generated {
            lines.push(r.line.replacen(" : ", " : <= ", 1));
            lines.push(r.line);
        }
        lines.extend(
            [
                "sum p1 2x + 3n {x : 1 <= x <= n}",
                "sum p2 x + y + m {x, y : 0 <= x <= y <= m}",
                "sum p3 2x + + 1 {x : 1 <= x <= 4}",
                "sum p4 x {x : 1 <=}",
                "count p5 {x : x = }",
                "count p6 max_splinters=2 {x, y : 1 <= x <= 9 && y = 2x}",
            ]
            .map(String::from),
        );
        let (mut parsed, mut unparsed) = (0, 0);
        for line in &lines {
            let q = query(line);
            let want = routing_hash(&q);
            let (work, hash) = Work::parse(q);
            assert_eq!(hash, want, "{line}");
            if work.parses() {
                parsed += 1;
            } else {
                unparsed += 1;
            }
        }
        assert!(
            parsed >= 400 && unparsed >= 400,
            "{parsed} parsed, {unparsed} not"
        );
    }

    #[test]
    fn routing_hash_ignores_overrides() {
        let a = query("count r1 {x : 1 <= x && x <= 9}");
        let b = query("count r2 deadline_ms=5 {x : 1 <= x && x <= 9}");
        assert_eq!(routing_hash(&a), routing_hash(&b));
    }

    #[test]
    fn pool_answers_and_drains() {
        let cfg = ShardPoolConfig {
            shards: 3,
            shard_cfg: ServeConfig {
                workers: 1,
                default_deadline_ms: None,
                breaker_failures: 0,
                ..ServeConfig::default()
            },
            ..ShardPoolConfig::default()
        };
        let pool = ShardPool::start(cfg);
        let handle = pool.handle();
        let mut slots = Vec::new();
        for i in 0..20 {
            let lo = i % 5;
            slots.push((
                i,
                lo,
                handle.submit(query(&format!("count q{i} {{x : {lo} <= x && x <= 9}}"))),
            ));
        }
        for (i, lo, slot) in slots {
            assert_eq!(slot.wait().to_text(), format!("OK q{i} exact {}", 10 - lo));
        }
        let stats = pool.shutdown();
        assert!(stats.starts_with("STATS shards=3 "), "got {stats:?}");
        assert!(stats.contains(" rescued=0 "), "got {stats:?}");
    }

    #[test]
    fn submission_during_the_only_shards_restart_waits_for_the_replacement() {
        // Chaos kills the only worker on its first pop; a long backoff
        // holds the restart pending while a second request arrives.
        // With no sibling to take it, the pool orphans it and the
        // supervisor places it on the replacement: both replies are
        // exact, and nothing is rescued with bounds.
        let pool = ShardPool::start(ShardPoolConfig {
            shards: 1,
            shard_cfg: ServeConfig {
                workers: 1,
                default_deadline_ms: None,
                breaker_failures: 0,
                ..ServeConfig::default()
            },
            probe_interval_ms: 2,
            restart_backoff_ms: 300,
            chaos: Some(Arc::new(Chaos::parse("kill:0:1").expect("chaos spec"))),
            ..ShardPoolConfig::default()
        });
        let handle = pool.handle();
        let first = handle.submit(query("count k1 {x : 1 <= x <= 9}"));
        let give_up = Instant::now() + Duration::from_secs(10);
        while !handle.shards_text().contains("state=restarting") {
            assert!(Instant::now() < give_up, "the kill was never detected");
            thread::sleep(Duration::from_millis(1));
        }
        let second = handle.submit(query("count k2 {x : 2 <= x <= 9}"));
        assert!(
            handle.shards_text().contains("state=restarting"),
            "the restart must still be pending when k2 arrives"
        );
        assert_eq!(first.wait().to_text(), "OK k1 exact 9");
        assert_eq!(second.wait().to_text(), "OK k2 exact 8");
        let row = handle.shard_rows()[0];
        assert_eq!((row.crashes, row.restarts, row.rescued), (1, 1, 0));
        pool.shutdown();
    }

    #[test]
    fn request_admitted_as_its_shard_is_condemned_is_answered() {
        // Every worker stays held, so neither the condemned server nor
        // its replacement ever runs the request: only the pool's own
        // tracking can answer it, and with no re-dispatch budget that
        // answer is a rescue.
        let gate = Gate::new(true);
        let pool = ShardPool::start(ShardPoolConfig {
            shards: 1,
            shard_cfg: ServeConfig {
                workers: 1,
                hold: Some(gate.clone()),
                default_deadline_ms: None,
                breaker_failures: 0,
                ..ServeConfig::default()
            },
            probe_interval_ms: 2,
            restart_backoff_ms: 1,
            redispatch_budget: 0,
            ..ShardPoolConfig::default()
        });
        let inner = &pool.inner;
        // `PoolHandle::submit`, with the supervisor condemning the shard
        // between the enqueue and the tracking.
        let (work, _) = Work::parse(query("count q0 {x : 1 <= x && x <= 9}"));
        let slot = Slot::new();
        let ticket = Arc::new(Ticket {
            work,
            slot: slot.clone(),
        });
        let (handle, epoch) = {
            let shards = lock_ok(&inner.shards);
            (shards[0].handle.clone(), shards[0].epoch)
        };
        let enqueued = handle.try_enqueue(vec![ticket]);
        assert!(enqueued.refused.is_empty());
        let mut orphans = Vec::new();
        condemn(
            &inner.cfg,
            0,
            &mut lock_ok(&inner.shards)[0],
            Instant::now(),
            &mut orphans,
        );
        assert!(orphans.is_empty(), "the request is not tracked yet");
        track(inner, 0, epoch, enqueued.admitted);
        let give_up = Instant::now() + Duration::from_secs(10);
        while !slot.is_done() && Instant::now() < give_up {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(slot.is_done(), "the request was lost");
        let line = slot.wait().to_text();
        assert!(line.starts_with("OK q0 bounded failover "), "got {line:?}");
        assert_eq!(pool.handle().shard_rows()[0].rescued, 1);
        gate.open();
        pool.shutdown();
    }

    #[test]
    fn slow_request_within_its_deadline_is_not_a_wedge() {
        // A 40 ms chaos delay freezes the only worker's heartbeat for
        // twice the 20 ms wedge timeout, but the job is far inside its
        // governed bound (twice the 1 s default deadline): the
        // supervisor must leave the shard alone.
        let pool = ShardPool::start(ShardPoolConfig {
            shards: 1,
            shard_cfg: ServeConfig {
                workers: 1,
                default_deadline_ms: Some(1_000),
                ..ServeConfig::default()
            },
            wedge_timeout_ms: 20,
            probe_interval_ms: 2,
            chaos: Some(Arc::new(Chaos::parse("delay:0:1").expect("chaos spec"))),
            ..ShardPoolConfig::default()
        });
        let handle = pool.handle();
        let reply = handle.submit(query("count d1 {x : 1 <= x <= 9}")).wait();
        assert_eq!(reply.to_text(), "OK d1 exact 9");
        let row = handle.shard_rows()[0];
        assert_eq!(
            (row.wedges, row.restarts, row.redispatched),
            (0, 0, 0),
            "a slow request within its deadline was condemned as a wedge"
        );
        pool.shutdown();
    }
}
