//! Deadline-aware admission control: priority lanes and per-client
//! quotas.
//!
//! # Why admission is its own layer
//!
//! The worker queue ([`crate::server`]) is a bounded FIFO: one greedy
//! client can fill it and starve everyone, and a request whose deadline
//! expired while queued still burns a worker. This module supplies the
//! pure, deterministic decision machinery the server threads in front
//! of that queue:
//!
//! * **Priority lanes** ([`Lane`], [`LaneQueues`]) — requests carry an
//!   optional `prio=` override (`interactive` / `batch` / `background`,
//!   default `batch`); pops are strict-priority with an anti-starvation
//!   credit so a saturating interactive flood cannot park background
//!   work forever.
//! * **Per-client quotas** ([`QuotaConfig`], [`QuotaLedger`]) — a
//!   `client=` identity metered by a token bucket whose refill is
//!   driven by a *logical clock* advanced once per admission attempt of
//!   that client, never by wall time. Decisions are therefore a pure
//!   function of each client's attempt sequence: the same request
//!   stream sheds the same requests at any shard count, chaos on or
//!   off, which is what keeps golden transcripts byte-identical.
//!
//! Expired-request *eviction* (the other half of deadline-awareness)
//! lives in the server's admission/pop paths, which own the clocks and
//! the §4.6 bound fallback; this module only decides and meters.
//!
//! See DESIGN.md §16 for the full architecture and rationale.

use std::collections::{HashMap, VecDeque};

/// A request priority lane. Strict-priority scheduling: `Interactive`
/// before `Batch` before `Background`, with an anti-starvation credit
/// for `Background` (see [`LaneQueues::pop`]).
///
/// Requests without a `prio=` override ride the `Batch` lane, so a
/// stream that never mentions priorities behaves exactly like the old
/// single-FIFO server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-sensitive traffic (a compiler inner loop, a REPL).
    Interactive,
    /// The default lane: ordinary request/response traffic.
    Batch,
    /// Best-effort traffic (bulk precomputation, cache warming).
    Background,
}

/// Number of lanes (array dimension for per-lane state).
pub const NUM_LANES: usize = 3;

impl Lane {
    /// Every lane, in strict-priority order (highest first).
    pub const ALL: [Lane; NUM_LANES] = [Lane::Interactive, Lane::Batch, Lane::Background];

    /// Dense index for per-lane arrays (priority order, 0 = highest).
    pub fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Batch => 1,
            Lane::Background => 2,
        }
    }

    /// The protocol-facing name (`prio=` option value and metric
    /// label).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Batch => "batch",
            Lane::Background => "background",
        }
    }

    /// Parses a `prio=` option value.
    pub fn parse(s: &str) -> Option<Lane> {
        match s {
            "interactive" => Some(Lane::Interactive),
            "batch" => Some(Lane::Batch),
            "background" => Some(Lane::Background),
            _ => None,
        }
    }

    /// The binary-wire encoding (a varint; see `crate::wire`).
    pub fn wire(self) -> u64 {
        self.index() as u64
    }

    /// Decodes the binary-wire value.
    pub fn from_wire(v: u64) -> Option<Lane> {
        match v {
            0 => Some(Lane::Interactive),
            1 => Some(Lane::Batch),
            2 => Some(Lane::Background),
            _ => None,
        }
    }
}

/// Admission-control configuration, part of
/// [`ServeConfig`](crate::server::ServeConfig).
///
/// The defaults are **legacy-preserving**: no quota and plain
/// one-token shed reasons, so every pre-admission golden transcript
/// replays byte-identically. The rest of the admission policy is fixed:
/// expired requests are evicted to §4.6 bounds, queue wait comes out of
/// the execution deadline, background work gets a credit of 4 pops
/// and the quota ledger holds at most 1024 client buckets.
#[derive(Clone, Debug, Default)]
pub struct AdmissionConfig {
    /// Per-client token-bucket quota; `None` disables quota metering.
    pub quota: Option<QuotaConfig>,
    /// Extend shed `reason=` tokens with the shedding lane and the
    /// computed wait, e.g. `reason=quota:lane=batch:wait_ms=200`.
    /// Off by default: golden transcripts pin the plain tokens.
    pub detail: bool,
}

/// Anti-starvation credit of the server's lanes: after this many
/// strict-priority pops that bypassed a waiting background request, the
/// next pop takes the background lane.
pub(crate) const BACKGROUND_CREDIT: u64 = 4;

/// Quota-ledger capacity: at most this many distinct client buckets;
/// clients beyond the cap share one overflow bucket (bounded memory
/// under an identity flood, still deterministic).
pub(crate) const MAX_CLIENTS: usize = 1024;

/// Per-client token-bucket quota parameters. Costs are metered in
/// *milli-tokens* (one request = 1000) so refill rates below one token
/// per tick stay exact integers — no floats, no rounding drift.
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Bucket capacity in whole tokens (burst size); also the initial
    /// fill, so a fresh client can burst immediately.
    pub burst: u64,
    /// Milli-tokens refilled per logical tick (one tick = one
    /// admission attempt by that client). `250` means a steady-state
    /// rate of one admit per four attempts.
    pub refill_milli: u64,
    /// Milliseconds a logical tick is *advertised* as in
    /// `retry_after_ms` hints. Purely a hint scale: the clock itself
    /// never reads wall time.
    pub tick_ms: u64,
}

/// One admission decision from the quota ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaDecision {
    /// Under quota: one token consumed, admit the request.
    Admit,
    /// Over quota: shed with this computed backoff hint.
    Shed {
        /// Logical ticks until the bucket can afford a token,
        /// converted to milliseconds via [`QuotaConfig::tick_ms`].
        retry_after_ms: u64,
    },
}

/// Milli-tokens per request.
const TOKEN_MILLI: u64 = 1000;

/// Cap on a computed quota hint (a zero-refill bucket would otherwise
/// advertise an infinite wait).
const QUOTA_HINT_CAP_MS: u64 = 60_000;

/// One client's bucket. The logical clock is implicit: refill happens
/// at the top of every [`Bucket::tick`], i.e. once per admission
/// attempt by this client — so the token level after attempt `n` is a
/// pure function of `n` and the config, independent of wall time,
/// thread interleaving, or what other clients are doing.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens_milli: u64,
}

impl Bucket {
    fn new(cfg: &QuotaConfig) -> Bucket {
        Bucket {
            tokens_milli: cfg.burst.saturating_mul(TOKEN_MILLI),
        }
    }

    /// One admission attempt: refill, then spend or shed.
    fn tick(&mut self, cfg: &QuotaConfig) -> QuotaDecision {
        let cap = cfg.burst.saturating_mul(TOKEN_MILLI);
        self.tokens_milli = self.tokens_milli.saturating_add(cfg.refill_milli).min(cap);
        if self.tokens_milli >= TOKEN_MILLI {
            self.tokens_milli -= TOKEN_MILLI;
            return QuotaDecision::Admit;
        }
        let deficit = TOKEN_MILLI - self.tokens_milli;
        let ticks = if cfg.refill_milli == 0 {
            u64::MAX
        } else {
            deficit.div_ceil(cfg.refill_milli)
        };
        QuotaDecision::Shed {
            retry_after_ms: ticks
                .saturating_mul(cfg.tick_ms)
                .clamp(1, QUOTA_HINT_CAP_MS),
        }
    }
}

/// The per-client quota ledger. A [`ShardPool`](crate::shard::ShardPool)
/// shares **one** ledger across all its shards (behind the pool's
/// submit lock ordering), so quota decisions are identical at any
/// shard count — the decision depends only on the client's attempt
/// sequence, which the pool front door sees in arrival order.
#[derive(Debug)]
pub struct QuotaLedger {
    cfg: QuotaConfig,
    max_clients: usize,
    buckets: std::sync::Mutex<HashMap<String, Bucket>>,
}

/// Key of the shared overflow bucket (outside the id charset, so it
/// can never collide with a real `client=` identity).
const OVERFLOW_CLIENT: &str = "@overflow";

impl QuotaLedger {
    /// A fresh ledger for `cfg` with at most `max_clients` distinct
    /// buckets.
    pub fn new(cfg: QuotaConfig, max_clients: usize) -> QuotaLedger {
        QuotaLedger {
            cfg,
            max_clients: max_clients.max(1),
            buckets: std::sync::Mutex::new(HashMap::new()),
        }
    }

    /// Meters one admission attempt by `client`. Advances that
    /// client's logical clock exactly once, whatever the decision.
    pub fn check(&self, client: &str) -> QuotaDecision {
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let key = if buckets.contains_key(client) || buckets.len() < self.max_clients {
            client
        } else {
            OVERFLOW_CLIENT
        };
        let cfg = self.cfg;
        buckets
            .entry(key.to_string())
            .or_insert_with(|| Bucket::new(&cfg))
            .tick(&cfg)
    }

    /// Number of distinct buckets currently held (observability).
    pub fn clients(&self) -> usize {
        self.buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

/// Per-lane deques with strict-priority pop and a background
/// anti-starvation credit. Not itself thread-safe: the server keeps it
/// inside the existing queue mutex, so admission stays one critical
/// section.
#[derive(Debug)]
pub struct LaneQueues<T> {
    lanes: [VecDeque<T>; NUM_LANES],
    /// Strict-priority pops that bypassed a waiting background item
    /// since the last background pop.
    starve: u64,
    credit: u64,
}

impl<T> LaneQueues<T> {
    /// Empty queues with the given anti-starvation credit (`0` means
    /// a waiting background item is served on every pop — effectively
    /// round-robin against one higher lane).
    pub fn new(credit: u64) -> LaneQueues<T> {
        LaneQueues {
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            starve: 0,
            credit,
        }
    }

    /// Total queued items across lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Queued items in one lane.
    pub fn lane_len(&self, lane: Lane) -> usize {
        self.lanes[lane.index()].len()
    }

    /// Enqueues at the back of `lane` (FIFO within a lane).
    pub fn push(&mut self, lane: Lane, item: T) {
        self.lanes[lane.index()].push_back(item);
    }

    /// Pops the next item: highest-priority non-empty lane, except
    /// that once `credit` consecutive pops have bypassed a waiting
    /// background item, the background lane is served (and the credit
    /// resets). Deterministic: the choice depends only on the queue
    /// contents and the starvation counter.
    pub fn pop(&mut self) -> Option<(Lane, T)> {
        let background_waiting = !self.lanes[Lane::Background.index()].is_empty();
        if background_waiting && self.starve >= self.credit {
            self.starve = 0;
            let item = self.lanes[Lane::Background.index()].pop_front()?;
            return Some((Lane::Background, item));
        }
        for lane in [Lane::Interactive, Lane::Batch] {
            if let Some(item) = self.lanes[lane.index()].pop_front() {
                if background_waiting {
                    self.starve += 1;
                }
                return Some((lane, item));
            }
        }
        let item = self.lanes[Lane::Background.index()].pop_front()?;
        self.starve = 0;
        Some((Lane::Background, item))
    }

    /// Drains every lane, highest priority first (used by shutdown
    /// paths that must answer everything still queued).
    pub fn drain_all(&mut self) -> Vec<(Lane, T)> {
        let mut out = Vec::with_capacity(self.len());
        for lane in Lane::ALL {
            for item in self.lanes[lane.index()].drain(..) {
                out.push((lane, item));
            }
        }
        self.starve = 0;
        out
    }
}

/// Renders a shed `reason=` token: the plain cause, or — with
/// [`AdmissionConfig::detail`] — the cause extended with the shedding
/// lane and computed wait (`quota:lane=batch:wait_ms=200`). Colon-
/// separated and space-free, so the token survives the binary wire
/// codec's reason grammar and `retry` helpers can match the cause by
/// prefix.
pub fn shed_reason(cause: &str, lane: Lane, wait_ms: u64, detail: bool) -> String {
    if detail {
        format!("{cause}:lane={}:wait_ms={wait_ms}", lane.name())
    } else {
        cause.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUOTA: QuotaConfig = QuotaConfig {
        burst: 2,
        refill_milli: 250,
        tick_ms: 100,
    };

    /// The worked example pinned by the golden quota session and the
    /// serve_stress quota drill: burst 2, refill 250 milli/tick.
    #[test]
    fn token_bucket_follows_the_worked_example() {
        let ledger = QuotaLedger::new(QUOTA, 16);
        let decisions: Vec<QuotaDecision> = (0..6).map(|_| ledger.check("c1")).collect();
        assert_eq!(
            decisions,
            vec![
                QuotaDecision::Admit,
                QuotaDecision::Admit,
                QuotaDecision::Shed {
                    retry_after_ms: 200
                },
                QuotaDecision::Shed {
                    retry_after_ms: 100
                },
                QuotaDecision::Admit,
                QuotaDecision::Shed {
                    retry_after_ms: 300
                },
            ]
        );
    }

    #[test]
    fn quota_clients_are_independent() {
        let ledger = QuotaLedger::new(QUOTA, 16);
        // Drain c1 to a shed; c2's clock is untouched.
        for _ in 0..3 {
            ledger.check("c1");
        }
        assert_eq!(ledger.check("c2"), QuotaDecision::Admit);
        assert_eq!(ledger.clients(), 2);
    }

    /// The tentpole determinism property: decisions are a pure function
    /// of each client's attempt sequence — three independent ledgers
    /// fed the same interleaved sequence agree decision-for-decision.
    #[test]
    fn quota_decisions_are_deterministic_across_runs() {
        // A deterministic pseudo-random interleaving of 4 clients.
        let seq: Vec<String> = (0..200u64)
            .map(|i| format!("c{}", (i.wrapping_mul(2654435761) >> 7) % 4))
            .collect();
        let runs: Vec<Vec<QuotaDecision>> = (0..3)
            .map(|_| {
                let ledger = QuotaLedger::new(QUOTA, 16);
                seq.iter().map(|c| ledger.check(c)).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        // And per-client subsequences are what a solo run would give:
        // the ledger never couples clients.
        for client in ["c0", "c1", "c2", "c3"] {
            let solo = QuotaLedger::new(QUOTA, 16);
            let expect: Vec<QuotaDecision> = seq
                .iter()
                .filter(|c| c.as_str() == client)
                .map(|_| solo.check(client))
                .collect();
            let got: Vec<QuotaDecision> = runs[0]
                .iter()
                .zip(&seq)
                .filter(|(_, c)| c.as_str() == client)
                .map(|(d, _)| *d)
                .collect();
            assert_eq!(got, expect, "client {client} decisions are self-contained");
        }
    }

    #[test]
    fn ledger_cap_folds_excess_clients_into_one_bucket() {
        let ledger = QuotaLedger::new(QUOTA, 2);
        assert_eq!(ledger.check("a"), QuotaDecision::Admit);
        assert_eq!(ledger.check("b"), QuotaDecision::Admit);
        // c and d share the overflow bucket: two bursts of 2 drain it.
        for _ in 0..2 {
            assert_eq!(ledger.check("c"), QuotaDecision::Admit);
        }
        assert!(matches!(ledger.check("d"), QuotaDecision::Shed { .. }));
        // Known clients keep their own buckets.
        assert_eq!(ledger.check("a"), QuotaDecision::Admit);
        assert_eq!(ledger.clients(), 3, "a, b, and the overflow bucket");
    }

    #[test]
    fn zero_refill_sheds_with_the_capped_hint() {
        let ledger = QuotaLedger::new(
            QuotaConfig {
                burst: 1,
                refill_milli: 0,
                tick_ms: 100,
            },
            4,
        );
        assert_eq!(ledger.check("c"), QuotaDecision::Admit);
        assert_eq!(
            ledger.check("c"),
            QuotaDecision::Shed {
                retry_after_ms: QUOTA_HINT_CAP_MS
            }
        );
    }

    #[test]
    fn lanes_pop_in_strict_priority_order() {
        let mut q = LaneQueues::new(4);
        q.push(Lane::Background, "g1");
        q.push(Lane::Batch, "b1");
        q.push(Lane::Interactive, "i1");
        q.push(Lane::Interactive, "i2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec!["i1", "i2", "b1", "g1"]);
    }

    /// The anti-starvation guarantee: under a saturating interactive
    /// flood, a waiting background request is served at least once per
    /// `credit + 1` pops.
    #[test]
    fn background_makes_progress_under_an_interactive_flood() {
        let credit = 4u64;
        let mut q = LaneQueues::new(credit);
        for i in 0..10 {
            q.push(Lane::Background, format!("g{i}"));
        }
        // Saturating flood: re-arm an interactive item before each pop.
        let mut background_served = 0usize;
        let mut since_background = 0u64;
        for pop in 0..200u64 {
            q.push(Lane::Interactive, format!("i{pop}"));
            let (lane, _) = q.pop().expect("queue never empties");
            if lane == Lane::Background {
                background_served += 1;
                since_background = 0;
            } else {
                since_background += 1;
                assert!(
                    since_background <= credit,
                    "background starved past the credit at pop {pop}"
                );
            }
            if background_served == 10 {
                break;
            }
        }
        assert_eq!(background_served, 10, "every background item was served");
    }

    /// The scheduler is a deterministic function of the push/pop
    /// sequence: three replays agree lane-for-lane.
    #[test]
    fn lane_scheduling_is_deterministic_across_runs() {
        let script: Vec<(u64, Lane)> = (0..300u64)
            .map(|i| {
                let r = (i.wrapping_mul(0x9e3779b97f4a7c15) >> 13) % 4;
                let lane = match r {
                    0 => Lane::Interactive,
                    1 | 2 => Lane::Batch,
                    _ => Lane::Background,
                };
                (i, lane)
            })
            .collect();
        let run = || -> Vec<(Lane, u64)> {
            let mut q = LaneQueues::new(3);
            let mut out = Vec::new();
            for (i, lane) in &script {
                q.push(*lane, *i);
                // Pop every other push, then drain.
                if i % 2 == 1 {
                    if let Some(got) = q.pop() {
                        out.push(got);
                    }
                }
            }
            while let Some(got) = q.pop() {
                out.push(got);
            }
            out
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a, run());
        assert_eq!(a.len(), script.len(), "every pushed item pops exactly once");
    }

    #[test]
    fn background_only_traffic_resets_the_credit() {
        let mut q = LaneQueues::new(2);
        q.push(Lane::Background, 1);
        q.push(Lane::Background, 2);
        assert_eq!(q.pop(), Some((Lane::Background, 1)));
        // A normal background pop resets starvation accounting.
        q.push(Lane::Interactive, 10);
        assert_eq!(q.pop(), Some((Lane::Interactive, 10)));
        assert_eq!(q.pop(), Some((Lane::Background, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn shed_reasons_render_plain_and_detailed() {
        assert_eq!(
            shed_reason("queue_full", Lane::Batch, 50, false),
            "queue_full"
        );
        assert_eq!(
            shed_reason("quota", Lane::Background, 200, true),
            "quota:lane=background:wait_ms=200"
        );
        assert!(!shed_reason("quota", Lane::Interactive, 1, true).contains(' '));
    }

    #[test]
    fn lane_names_and_wire_values_round_trip() {
        for lane in Lane::ALL {
            assert_eq!(Lane::parse(lane.name()), Some(lane));
            assert_eq!(Lane::from_wire(lane.wire()), Some(lane));
        }
        assert_eq!(Lane::parse("urgent"), None);
        assert_eq!(Lane::from_wire(3), None);
    }
}
