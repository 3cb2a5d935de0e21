//! The supervised shard pool: N bulkhead-isolated servers behind a
//! consistent-hash router and a health-checking supervisor.
//!
//! # Topology
//!
//! A [`ShardPool`] runs `shards` independent [`Server`]s — each with its
//! own admission queue, worker pool, result cache, circuit breaker and
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
//!   `wedge_timeout_ms`.
//!
//! A condemned shard is [`Server::abandon`]ed (admission stopped,
//! wedged threads detached, never joined) and restarted with capped
//! exponential backoff. Its admitted-but-unanswered requests are
//! orphaned and re-dispatched to ring-successor siblings — or, once the
//! `redispatch_budget` is spent or `rescue_after_ms` has passed, rescued
//! with a fresh §4.6 bound pass (`OK … bounded failover lo ; hi`). An
//! admitted request therefore gets **exactly one** reply: exact,
//! bounded, or `ERR` — never silence. Duplicate fulfilment (the
//! orphaned worker finishing anyway) is harmless because replies are
//! pure functions of the query, so both producers publish the identical
//! line ([`Slot::fulfil`]).
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

use crate::admission::{self, QuotaLedger};
use crate::chaos::Chaos;
use crate::protocol::{shed_line, Query, ServeError, Verb};
use crate::server::{self, Handle, Refusal, ServeConfig, Server, Service, Slot};
use crate::sync::lock_ok;
use presburger_omega::{parse_formula, Space};
use presburger_trace::metrics::ReqCodec;
use presburger_trace::shard::{render_prometheus, ShardRow, ShardRowSnapshot};
use presburger_trace::{self as trace};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Shard-pool configuration. `Default` gives two shards with default
/// [`ServeConfig`]s, 64 vnodes per shard, a 5 s wedge timeout, a 5 ms
/// probe interval, 10 ms → 1 s restart backoff, and a redispatch budget
/// of 2 hops before the §4.6 fallback.
#[derive(Clone, Debug)]
pub struct ShardPoolConfig {
    /// Number of shards (each a full [`Server`]); at least 1.
    pub shards: usize,
    /// Per-shard server configuration (`shard_index` and `chaos` are
    /// overwritten per shard by the pool).
    pub shard_cfg: ServeConfig,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
    /// A shard with in-flight work whose heartbeat has not advanced for
    /// this long is condemned as wedged.
    pub wedge_timeout_ms: u64,
    /// Supervisor probe cadence.
    pub probe_interval_ms: u64,
    /// Base restart backoff after a condemnation; doubles per
    /// consecutive restart.
    pub restart_backoff_ms: u64,
    /// Backoff cap; also the healthy streak that resets the ladder.
    pub restart_backoff_max_ms: u64,
    /// Orphan re-dispatch hops before the §4.6 `failover` fallback.
    pub redispatch_budget: u32,
    /// Orphan age at which the fallback fires regardless of hops
    /// (deadline-awareness: a request must not wait out serial
    /// restarts).
    pub rescue_after_ms: u64,
    /// Deterministic chaos, shared by every shard. `None` falls back to
    /// `PRESBURGER_CHAOS` via [`Chaos::from_env`] at pool start.
    pub chaos: Option<Arc<Chaos>>,
}

impl Default for ShardPoolConfig {
    fn default() -> ShardPoolConfig {
        ShardPoolConfig {
            shards: 2,
            shard_cfg: ServeConfig::default(),
            vnodes: 64,
            wedge_timeout_ms: 5_000,
            probe_interval_ms: 5,
            restart_backoff_ms: 10,
            restart_backoff_max_ms: 1_000,
            redispatch_budget: 2,
            rescue_after_ms: 3_000,
            chaos: None,
        }
    }
}

/// FNV-1a, the crate's routing hash primitive (stable across runs and
/// platforms, unlike `DefaultHasher`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: spreads structured inputs (vnode ids, retry
/// attempts) over the full 64-bit space.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
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
pub fn routing_hash(query: &Query) -> u64 {
    let mut key = Vec::with_capacity(96);
    key.push(match query.verb {
        Verb::Count => 0u8,
        Verb::Sum => 1,
    });
    key.extend_from_slice(&(query.vars.len() as u32).to_le_bytes());
    let mut space = Space::new();
    for v in &query.vars {
        space.var(v);
    }
    match parse_formula(&query.formula_text, &mut space) {
        Ok(f) => presburger_omega::intern::formula_push_key_bytes(&f, &mut key),
        Err(_) => {
            key.extend_from_slice(query.formula_text.as_bytes());
            for v in &query.vars {
                key.extend_from_slice(v.as_bytes());
            }
        }
    }
    if let Some(p) = &query.poly_text {
        key.extend_from_slice(p.as_bytes());
    }
    fnv1a(&key)
}

/// A consistent-hash ring: `vnodes` points per shard, a key routes to
/// the first point clockwise from its hash. Growing the pool N→N+1
/// re-routes only the keys that land on the new shard's points —
/// ~1/(N+1) of the keyspace — so shard caches survive re-sizing.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point_hash, shard)`, sorted by hash.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// A ring for `shards` shards with `vnodes` points each. Point
    /// hashes depend only on `(shard, vnode)`, so rings of different
    /// sizes share all points of their common shards.
    pub fn new(shards: usize, vnodes: usize) -> Ring {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
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
    query: Query,
    slot: Arc<Slot>,
    /// Re-dispatch hops already spent on this request.
    attempts: u32,
    /// Admission to the *pool* (for `rescue_after_ms`).
    since: Instant,
}

/// A request whose shard was condemned before it answered.
struct Orphan {
    query: Query,
    slot: Arc<Slot>,
    /// The shard that lost it (re-dispatch prefers its ring successor;
    /// its row is charged for the re-dispatch or rescue).
    origin: usize,
    attempts: u32,
    since: Instant,
}

/// One shard's supervision state (the [`Server`] plus what the
/// supervisor knows about it).
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
    /// The pool-wide quota ledger (when `shard_cfg.admission.quota` is
    /// set), shared by every shard *including supervisor restarts* so a
    /// client's token bucket survives failover. Metered only at the
    /// pool front door ([`PoolHandle::submit`]) — never inside the
    /// routing loop, where a failover hop would double-charge.
    ledger: Option<Arc<QuotaLedger>>,
    draining: AtomicBool,
    drained: AtomicBool,
}

/// A running supervised shard pool.
pub struct ShardPool {
    inner: Arc<PoolInner>,
    stop: Arc<AtomicBool>,
    supervisor: Option<thread::JoinHandle<()>>,
}

/// A shareable submit/drain handle for a [`ShardPool`]; implements
/// [`Service`], so every connection driver works against it unchanged.
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<PoolInner>,
}

fn shard_server_cfg(
    cfg: &ShardPoolConfig,
    index: usize,
    chaos: &Option<Arc<Chaos>>,
) -> ServeConfig {
    let mut sc = cfg.shard_cfg.clone();
    sc.shard_index = index;
    sc.chaos = chaos.clone();
    sc
}

impl ShardPool {
    /// Starts `cfg.shards` servers and the supervisor thread. When
    /// `cfg.chaos` is unset, arms `PRESBURGER_CHAOS` from the
    /// environment (a malformed spec panics — a drill that silently
    /// fails to arm would pass vacuously).
    pub fn start(cfg: ShardPoolConfig) -> ShardPool {
        let chaos = match cfg.chaos.clone() {
            Some(c) => Some(c),
            None => Chaos::from_env().expect("invariant: PRESBURGER_CHAOS must parse if set"),
        };
        let shards_n = cfg.shards.max(1);
        let ring = Ring::new(shards_n, cfg.vnodes);
        let rows: Vec<Arc<ShardRow>> = (0..shards_n).map(|_| Arc::new(ShardRow::new())).collect();
        let ledger = cfg
            .shard_cfg
            .admission
            .quota
            .map(|q| Arc::new(QuotaLedger::new(q, cfg.shard_cfg.admission.max_clients)));
        let now = Instant::now();
        let states: Vec<ShardState> = (0..shards_n)
            .map(|i| {
                let server =
                    Server::start_shared(shard_server_cfg(&cfg, i, &chaos), ledger.clone());
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
            cfg: ShardPoolConfig { chaos, ..cfg },
            ring,
            shards: Mutex::new(states),
            orphans: Mutex::new(Vec::new()),
            rows,
            ledger,
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
    /// aggregated stats line.
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
            let _ = server.shutdown();
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
    /// Routes and admits a query. The routed shard gets it unless that
    /// shard is mid-restart, in which case the first accepting ring
    /// successor does (failover-on-submit — a condemned shard must not
    /// turn into client-visible sheds). Queue-full backpressure from the
    /// accepting shard *is* delivered as `SHED`. If every shard is down
    /// at once, the request is answered inline with the §4.6 fallback —
    /// never silence.
    ///
    /// Admission (DESIGN.md §16) happens *here*, once, before routing:
    /// the per-client quota is metered against the pool-shared ledger
    /// (so a failover hop can never double-charge), and a request whose
    /// effective deadline is already zero is answered immediately with
    /// §4.6 bounds instead of being queued. Both decisions are charged
    /// to the routed shard's counters, keeping `shards`/`STATS` rows a
    /// pure function of the request stream at any shard count.
    pub fn submit(&self, query: Query) -> Arc<Slot> {
        let inner = &self.inner;
        let lane = query.lane();
        if inner.draining.load(Ordering::Relaxed) {
            let hint = inner.cfg.shard_cfg.retry_after_ms;
            let reason = admission::shed_reason(
                "draining",
                lane,
                hint,
                inner.cfg.shard_cfg.admission.detail,
            );
            return Slot::ready(shed_line(&query.id, hint, &reason));
        }
        let n = inner.rows.len();
        let target = inner.ring.route(routing_hash(&query));
        let evict_now = inner.cfg.shard_cfg.admission.evict_expired
            && server::effective_deadline_ms(&inner.cfg.shard_cfg, &query) == Some(0);
        if inner.ledger.is_some() || evict_now {
            let target_handle = lock_ok(&inner.shards)[target].handle.clone();
            if let Some(line) = target_handle.check_quota(&query) {
                target_handle.note_shed(Refusal::Quota, query.verb, lane);
                return Slot::ready(line);
            }
            if evict_now {
                return Slot::ready(target_handle.evict_reply(&query, lane));
            }
        }
        let slot = Slot::new();
        for off in 0..n {
            let i = (target + off) % n;
            let (handle, epoch) = {
                let shards = lock_ok(&inner.shards);
                let st = &shards[i];
                if st.server.is_none() || st.restart_at.is_some() {
                    continue;
                }
                (st.handle.clone(), st.epoch)
            };
            match handle.try_enqueue(query.clone(), slot.clone()) {
                Ok(()) => {
                    ShardRow::bump(&inner.rows[i].routed);
                    track(inner, i, epoch, query, &slot);
                    return slot;
                }
                Err(refused) => match refused.reason {
                    // The shard was condemned between the pick and the
                    // enqueue: try the next sibling.
                    Refusal::Draining => continue,
                    // Genuine backpressure: deliver the shed.
                    Refusal::QueueFull => {
                        handle.note_shed(Refusal::QueueFull, query.verb, query.lane());
                        return Slot::ready(refused.line);
                    }
                    // Quotas are metered at the front door only;
                    // `try_enqueue` never produces this.
                    Refusal::Quota => unreachable!("try_enqueue never sheds on quota"),
                },
            }
        }
        // Every shard is condemned or restarting: answer inline.
        ShardRow::bump(&inner.rows[target].rescued);
        Slot::ready(server::fallback_reply(
            &query,
            &inner.cfg.shard_cfg.default_budgets,
            inner.cfg.shard_cfg.default_deadline_ms,
        ))
    }

    /// Gracefully drains the pool: stops admitting, drains every shard
    /// in parallel (each under its own drain deadline), rescues anything
    /// still unanswered, and returns the aggregated stats line.
    /// Idempotent.
    pub fn drain(&self) -> String {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::Relaxed);
        let handles: Vec<Handle> = lock_ok(&inner.shards)
            .iter()
            .map(|st| st.handle.clone())
            .collect();
        thread::scope(|scope| {
            for h in &handles {
                scope.spawn(move || {
                    let _ = h.drain();
                });
            }
        });
        // Belt and braces: anything the shard drains could not answer
        // (condemned shards, in-backoff restarts) gets the fallback.
        let leftovers: Vec<Orphan> = {
            let mut shards = lock_ok(&inner.shards);
            let mut v = Vec::new();
            for (i, st) in shards.iter_mut().enumerate() {
                for t in st.pending.drain(..) {
                    if !t.slot.is_done() {
                        v.push(Orphan {
                            query: t.query,
                            slot: t.slot,
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

    /// The aggregated `STATS` line: shard count, summed server counters
    /// (current epochs), and the pool-level failover counters.
    pub fn stats_line(&self) -> String {
        let inner = &self.inner;
        let (mut admitted, mut ok, mut errors, mut sheds, mut cache_hits) = (0, 0, 0, 0, 0);
        {
            let shards = lock_ok(&inner.shards);
            for st in shards.iter() {
                let s = st.handle.stats();
                admitted += s.admitted();
                ok += s.ok();
                errors += s.errors();
                sheds += s.sheds();
                cache_hits += s.cache_hits();
            }
        }
        let (mut redispatched, mut rescued, mut restarts) = (0, 0, 0);
        for row in &inner.rows {
            let s = row.snapshot();
            redispatched += s.redispatched;
            rescued += s.rescued;
            restarts += s.restarts;
        }
        format!(
            "STATS shards={} admitted={admitted} ok={ok} errors={errors} sheds={sheds} \
             cache_hits={cache_hits} redispatched={redispatched} rescued={rescued} \
             restarts={restarts}",
            inner.rows.len(),
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

    /// The `metrics` verb's reply: the `presburger_shard_*` families
    /// plus the process-wide memoization totals, `# EOF` terminated.
    pub fn metrics_text(&self) -> String {
        let rows: Vec<ShardRowSnapshot> = self.inner.rows.iter().map(|r| r.snapshot()).collect();
        let mut out = render_prometheus(&rows);
        out.push_str(&trace::memo::prometheus_text());
        out.push_str("# EOF");
        out
    }

    /// The `flightrec` verb's reply: every shard's retained slow
    /// requests, in shard order, `# EOF` terminated.
    pub fn flight_dump(&self) -> String {
        let handles: Vec<Handle> = lock_ok(&self.inner.shards)
            .iter()
            .map(|st| st.handle.clone())
            .collect();
        let mut out = String::new();
        for h in handles {
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

    /// Number of shards in the pool.
    pub fn shards(&self) -> usize {
        self.inner.rows.len()
    }
}

impl Service for PoolHandle {
    fn submit(&self, query: Query) -> Arc<Slot> {
        PoolHandle::submit(self, query)
    }
    // submit_batch keeps the trait default: each query routes through
    // `PoolHandle::submit`, i.e. a batch scatters across the ring
    // (per-query consistent hashing) and gathers via its slots.
    fn observe_wire(&self, codec: ReqCodec, batch: Option<u64>) {
        // Codec traffic is connection-level, not shard-level: charge it
        // to shard 0's current-epoch telemetry hub so a pool still
        // exposes the per-codec families.
        let h = lock_ok(&self.inner.shards)[0].handle.clone();
        Service::observe_wire(&h, codec, batch);
    }
    fn drain(&self) -> String {
        PoolHandle::drain(self)
    }
    fn stats_line(&self) -> String {
        PoolHandle::stats_line(self)
    }
    fn metrics_text(&self) -> String {
        PoolHandle::metrics_text(self)
    }
    fn flight_dump(&self) -> String {
        PoolHandle::flight_dump(self)
    }
    fn shards_text(&self) -> String {
        PoolHandle::shards_text(self)
    }
    fn is_drained(&self) -> bool {
        PoolHandle::is_drained(self)
    }
    fn wants_client_identity(&self) -> bool {
        self.inner.ledger.is_some()
    }
}

/// Backoff before restart number `consecutive` (1-based): base doubled
/// per consecutive condemnation, capped.
fn backoff_ms(cfg: &ShardPoolConfig, consecutive: u32) -> u64 {
    let exp = consecutive.saturating_sub(1).min(16);
    cfg.restart_backoff_ms
        .saturating_mul(1u64 << exp)
        .min(cfg.restart_backoff_max_ms)
}

/// Records a request that `try_enqueue` just admitted to shard `i` on
/// restart generation `epoch`. If the supervisor condemned the shard
/// in between, its pendings were orphaned without this one and its
/// queue may never run, so the request is orphaned too (a late answer
/// from the old queue is a harmless duplicate: replies are pure).
fn track(inner: &PoolInner, i: usize, epoch: u64, query: Query, slot: &Arc<Slot>) {
    let since = Instant::now();
    let mut shards = lock_ok(&inner.shards);
    let st = &mut shards[i];
    if st.epoch == epoch && st.restart_at.is_none() {
        st.pending.push(Tracked {
            query,
            slot: slot.clone(),
            attempts: 0,
            since,
        });
        return;
    }
    drop(shards);
    lock_ok(&inner.orphans).push(Orphan {
        query,
        slot: slot.clone(),
        origin: i,
        attempts: 1,
        since,
    });
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
        if t.slot.is_done() {
            continue;
        }
        orphans.push(Orphan {
            query: t.query,
            slot: t.slot,
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
            st.pending.retain(|t| !t.slot.is_done());
            if let Some(at) = st.restart_at {
                if now >= at && !pool_draining {
                    let server = Server::start_shared(
                        shard_server_cfg(cfg, i, &cfg.chaos),
                        inner.ledger.clone(),
                    );
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
                if now.duration_since(r) >= Duration::from_millis(cfg.restart_backoff_max_ms) {
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
            let wedged =
                !draining && h.inflight() > 0 && now.duration_since(st.last_progress) >= wedge;
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
        if o.slot.is_done() {
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
                if h.resubmit(o.query.clone(), o.slot.clone()) {
                    placed = Some(i);
                    break;
                }
            }
        }
        match placed {
            Some(i) => {
                ShardRow::bump(&inner.rows[o.origin].redispatched);
                lock_ok(&inner.shards)[i].pending.push(Tracked {
                    query: o.query,
                    slot: o.slot,
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

/// Terminal fallback for an orphan nothing could place: a fresh
/// budgeted §4.6 bound pass (`OK … bounded failover lo ; hi`) or `ERR`.
fn rescue(inner: &PoolInner, o: Orphan) {
    if o.slot.is_done() {
        return;
    }
    ShardRow::bump(&inner.rows[o.origin].rescued);
    o.slot.fulfil(server::fallback_reply(
        &o.query,
        &inner.cfg.shard_cfg.default_budgets,
        inner.cfg.shard_cfg.default_deadline_ms,
    ));
}

/// A TCP front-end for a shard pool: accepts connections and serves
/// each on its own thread against the pool, exactly like
/// [`crate::server::TcpServer`] does for a single server.
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

    /// Drains the pool and stops accepting. Returns the final
    /// aggregated stats line.
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
        let ring = Ring::new(4, 64);
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
            assert_eq!(slot.wait(), format!("OK q{i} exact {}", 10 - lo));
        }
        let stats = pool.shutdown();
        assert!(stats.starts_with("STATS shards=3 "), "got {stats:?}");
        assert!(stats.contains(" rescued=0 "), "got {stats:?}");
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
        let q = query("count q0 {x : 1 <= x && x <= 9}");
        let slot = Slot::new();
        let (handle, epoch) = {
            let shards = lock_ok(&inner.shards);
            (shards[0].handle.clone(), shards[0].epoch)
        };
        assert!(handle.try_enqueue(q.clone(), slot.clone()).is_ok());
        let mut orphans = Vec::new();
        condemn(
            &inner.cfg,
            0,
            &mut lock_ok(&inner.shards)[0],
            Instant::now(),
            &mut orphans,
        );
        assert!(orphans.is_empty(), "the request is not tracked yet");
        track(inner, 0, epoch, q, &slot);
        let give_up = Instant::now() + Duration::from_secs(10);
        while !slot.is_done() && Instant::now() < give_up {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(slot.is_done(), "the request was lost");
        let line = slot.wait();
        assert!(line.starts_with("OK q0 bounded failover "), "got {line:?}");
        assert_eq!(pool.handle().shard_rows()[0].rescued, 1);
        gate.open();
        pool.shutdown();
    }
}
