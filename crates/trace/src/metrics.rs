//! Request-scoped serving metrics: log-bucketed histograms and labeled
//! counter families, shareable across threads, plus Prometheus text
//! exposition.
//!
//! The [`counters`](crate::counters) registry is *thread-local* and
//! meters one computation at a time; a serving pipeline needs the dual:
//! process-wide aggregates that many worker threads record into
//! concurrently, distribution-shaped (per-request cost spans three
//! orders of magnitude — see `BENCH_counters.json`: E6 at 0.17 ms vs
//! E10 at 423 ms), and cheap enough to leave on in production. This
//! module provides:
//!
//! - [`Histogram`]: a fixed-allocation log-bucketed histogram with
//!   lock-free recording (relaxed atomic adds) and an owned
//!   [`HistogramSnapshot`] whose merge is associative and commutative
//!   bucket-for-bucket.
//! - [`RequestMetrics`]: the serving pipeline's registry — request
//!   latency, queue wait, govern overhead, and splinters-per-request
//!   histograms plus a `{verb, outcome}` labeled request-counter
//!   family — rendered as Prometheus text by
//!   [`RequestMetrics::render_prometheus`].
//!
//! # Bucket scheme
//!
//! Buckets are powers of two: bucket `i` holds values in
//! `(2^(i-1), 2^i]` (bucket 0 holds `0..=1`), with finite upper bounds
//! `1, 2, 4, …, 2^30` and a final `+Inf` overflow bucket —
//! [`NUM_BUCKETS`] (`32`) buckets in all, so a histogram is one cache
//! line of hot counters plus `sum`/`count`. In microseconds the finite
//! range spans 1 µs to ~17.9 min, comfortably past any serving
//! deadline. Percentiles interpolate linearly inside a bucket
//! ([`HistogramSnapshot::percentile`]), so the worst-case relative
//! error is the bucket width (a factor of two) and in practice far
//! less; the previous sorted-60-sample p99 had *unbounded* error under
//! multimodal load.
//!
//! When a registry is disabled ([`RequestMetrics::set_enabled`]) every
//! record is one relaxed atomic load — gated below 5% of E3 by
//! `overhead_smoke` alongside the counter hooks.

use crate::counters::PipelineStats;
use crate::json::JsonObject;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Histogram bucket count: 31 finite power-of-two bounds plus the
/// `+Inf` overflow bucket.
pub const NUM_BUCKETS: usize = 32;

/// The inclusive upper bound of finite bucket `i` (`2^i`), or `None`
/// for the final overflow bucket.
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 < NUM_BUCKETS {
        Some(1u64 << i)
    } else {
        None
    }
}

/// The Prometheus `le` label for bucket `i`: the decimal bound, or
/// `+Inf` for the overflow bucket.
pub fn bucket_le_label(i: usize) -> String {
    match bucket_bound(i) {
        Some(b) => b.to_string(),
        None => "+Inf".to_string(),
    }
}

/// The bucket a value lands in: the smallest `i` with `value <= 2^i`,
/// clamped to the overflow bucket.
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        let bits = (64 - (value - 1).leading_zeros()) as usize;
        bits.min(NUM_BUCKETS - 1)
    }
}

/// A fixed-allocation log-bucketed histogram with lock-free recording.
///
/// All updates are relaxed atomic adds — concurrent recorders never
/// contend on a lock, and a torn read across `buckets`/`sum`/`count`
/// only skews a snapshot by in-flight events (snapshots are monotone,
/// never corrupt).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; callable from any thread.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds `other`'s buckets, sum and count into this histogram.
    pub fn absorb(&self, other: &Histogram) {
        for (b, o) in self.buckets.iter().zip(&other.buckets) {
            b.fetch_add(o.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// An owned snapshot of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (v, b) in buckets.iter_mut().zip(&self.buckets) {
            *v = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// An owned histogram snapshot: per-bucket counts plus `sum`/`count`.
///
/// [`merge`](HistogramSnapshot::merge) is element-wise addition, so it
/// is associative and commutative bucket-for-bucket (property-tested in
/// this module) — snapshots from many workers or phases can be folded
/// in any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative).
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one observation into the owned snapshot (for offline
    /// aggregation in harnesses).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.sum = self.sum.saturating_add(value);
        self.count += 1;
    }

    /// The element-wise sum of two snapshots.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        for (v, o) in out.buckets.iter_mut().zip(&other.buckets) {
            *v = v.saturating_add(*o);
        }
        out.sum = out.sum.saturating_add(other.sum);
        out.count = out.count.saturating_add(other.count);
        out
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`p` in `[0, 1]`), linearly interpolated
    /// inside the containing bucket. Returns 0 when empty; observations
    /// in the overflow bucket report the largest finite bound.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= target {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = bucket_bound(i).unwrap_or(lo);
                let frac = (target - cumulative) as f64 / n as f64;
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            cumulative += n;
        }
        bucket_bound(NUM_BUCKETS - 2).unwrap_or(u64::MAX)
    }

    /// `{"count":…,"sum":…,"p50_us":…,…,"buckets":[nonzero (le,n) pairs]}`
    /// — the compact form recorded in `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("count", self.count)
            .field_u64("sum", self.sum)
            .field_u64("p50", self.percentile(0.50))
            .field_u64("p90", self.percentile(0.90))
            .field_u64("p99", self.percentile(0.99))
            .field_u64("p999", self.percentile(0.999));
        let nonzero: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| format!("[\"{}\",{n}]", bucket_le_label(i)))
            .collect();
        obj.field_raw("buckets", &crate::json::array(nonzero));
        obj.finish()
    }
}

/// The request verb dimension of the labeled metric families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqVerb {
    /// A `count` request.
    Count = 0,
    /// A `sum` request.
    Sum = 1,
}

/// Number of verb labels.
pub const NUM_VERBS: usize = 2;

impl ReqVerb {
    /// Every verb, in stable exposition order.
    pub const ALL: [ReqVerb; NUM_VERBS] = [ReqVerb::Count, ReqVerb::Sum];

    /// The stable label value used in exposition.
    pub fn label(self) -> &'static str {
        match self {
            ReqVerb::Count => "count",
            ReqVerb::Sum => "sum",
        }
    }
}

/// The request outcome dimension of the labeled metric families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqOutcome {
    /// Answered exactly (`OK … exact`).
    Ok = 0,
    /// Answered with §4.6 bounds (`OK … bounded`).
    Bounded = 1,
    /// Refused by admission control (`SHED`).
    Shed = 2,
    /// Answered with an error (`ERR`).
    Err = 3,
    /// Served from the result cache.
    CacheHit = 4,
}

/// Number of outcome labels.
pub const NUM_OUTCOMES: usize = 5;

impl ReqOutcome {
    /// Every outcome, in stable exposition order.
    pub const ALL: [ReqOutcome; NUM_OUTCOMES] = [
        ReqOutcome::Ok,
        ReqOutcome::Bounded,
        ReqOutcome::Shed,
        ReqOutcome::Err,
        ReqOutcome::CacheHit,
    ];

    /// The stable label value used in exposition.
    pub fn label(self) -> &'static str {
        match self {
            ReqOutcome::Ok => "ok",
            ReqOutcome::Bounded => "bounded",
            ReqOutcome::Shed => "shed",
            ReqOutcome::Err => "err",
            ReqOutcome::CacheHit => "cache_hit",
        }
    }
}

/// The priority-lane dimension of the admission metric families (see
/// `serve::admission`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqLane {
    /// Latency-sensitive traffic.
    Interactive = 0,
    /// The default lane.
    Batch = 1,
    /// Best-effort traffic.
    Background = 2,
}

/// Number of lane labels.
pub const NUM_LANES: usize = 3;

impl ReqLane {
    /// Every lane, in stable exposition order (priority order).
    pub const ALL: [ReqLane; NUM_LANES] =
        [ReqLane::Interactive, ReqLane::Batch, ReqLane::Background];

    /// The stable label value used in exposition.
    pub fn label(self) -> &'static str {
        match self {
            ReqLane::Interactive => "interactive",
            ReqLane::Batch => "batch",
            ReqLane::Background => "background",
        }
    }
}

/// The decision dimension of the admission counter family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Admitted to the worker queue.
    Admit = 0,
    /// Shed by the per-client token-bucket quota.
    ShedQuota = 1,
    /// Shed because the bounded queue was full.
    ShedQueue = 2,
    /// Shed because the server was draining.
    ShedDrain = 3,
    /// Deadline elapsed in queue; answered with §4.6 bounds instead of
    /// burning a worker.
    Evicted = 4,
}

/// Number of admission-decision labels.
pub const NUM_DECISIONS: usize = 5;

impl AdmitDecision {
    /// Every decision, in stable exposition order.
    pub const ALL: [AdmitDecision; NUM_DECISIONS] = [
        AdmitDecision::Admit,
        AdmitDecision::ShedQuota,
        AdmitDecision::ShedQueue,
        AdmitDecision::ShedDrain,
        AdmitDecision::Evicted,
    ];

    /// The stable label value used in exposition.
    pub fn label(self) -> &'static str {
        match self {
            AdmitDecision::Admit => "admit",
            AdmitDecision::ShedQuota => "shed_quota",
            AdmitDecision::ShedQueue => "shed_queue",
            AdmitDecision::ShedDrain => "shed_drain",
            AdmitDecision::Evicted => "evicted",
        }
    }
}

/// The wire-codec dimension of the per-codec request counter family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqCodec {
    /// Newline-delimited text protocol.
    Text = 0,
    /// Length-prefixed binary protocol (`serve::wire`).
    Binary = 1,
}

/// Number of codec labels.
pub const NUM_CODECS: usize = 2;

impl ReqCodec {
    /// Every codec, in stable exposition order.
    pub const ALL: [ReqCodec; NUM_CODECS] = [ReqCodec::Text, ReqCodec::Binary];

    /// The stable label value used in exposition.
    pub fn label(self) -> &'static str {
        match self {
            ReqCodec::Text => "text",
            ReqCodec::Binary => "binary",
        }
    }
}

/// One request's aggregate measurements, recorded in a single call so
/// the disabled path is one atomic load however many series exist.
#[derive(Clone, Copy, Debug)]
pub struct RequestObservation {
    /// The request verb.
    pub verb: ReqVerb,
    /// How the request was answered.
    pub outcome: ReqOutcome,
    /// The priority lane the request rode (`Batch` when no `prio=`
    /// override was given).
    pub lane: ReqLane,
    /// End-to-end latency (worker pop to reply ready), microseconds.
    pub duration_us: u64,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait_us: u64,
    /// Serving overhead: latency minus the governed engine run
    /// (parsing, cache, breaker, rendering).
    pub govern_overhead_us: u64,
    /// Splinters the request generated (`None` when counter deltas are
    /// not captured — the splinter histogram is skipped, not zeroed).
    pub splinters: Option<u64>,
}

/// The serving pipeline's metric registry: labeled request counters and
/// the four request-scoped histograms, all lock-free to record.
#[derive(Debug)]
pub struct RequestMetrics {
    enabled: AtomicBool,
    requests: [[AtomicU64; NUM_OUTCOMES]; NUM_VERBS],
    duration_us: [[Histogram; NUM_OUTCOMES]; NUM_VERBS],
    queue_wait_us: [Histogram; NUM_VERBS],
    govern_overhead_us: [Histogram; NUM_VERBS],
    splinters: [Histogram; NUM_VERBS],
    codec_requests: [AtomicU64; NUM_CODECS],
    batch_size: Histogram,
    events_logged: AtomicU64,
    events_dropped: AtomicU64,
    flight_records: AtomicU64,
    admission: [[AtomicU64; NUM_DECISIONS]; NUM_LANES],
    lane_queue_wait_us: [Histogram; NUM_LANES],
    lane_service_us: [Histogram; NUM_LANES],
}

impl RequestMetrics {
    /// A fresh registry.
    pub fn new(enabled: bool) -> RequestMetrics {
        RequestMetrics {
            enabled: AtomicBool::new(enabled),
            requests: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            duration_us: std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new())),
            queue_wait_us: std::array::from_fn(|_| Histogram::new()),
            govern_overhead_us: std::array::from_fn(|_| Histogram::new()),
            splinters: std::array::from_fn(|_| Histogram::new()),
            codec_requests: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_size: Histogram::new(),
            events_logged: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            flight_records: AtomicU64::new(0),
            admission: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            lane_queue_wait_us: std::array::from_fn(|_| Histogram::new()),
            lane_service_us: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Adds every counter and histogram of `other` into this registry,
    /// element-wise — how a shard pool exposes one registry for all its
    /// shards. Ignores the enabled flag on either side.
    pub fn absorb(&self, other: &RequestMetrics) {
        fn add(to: &AtomicU64, from: &AtomicU64) {
            to.fetch_add(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (to, from) in self.requests.iter().zip(&other.requests) {
            to.iter().zip(from).for_each(|(t, f)| add(t, f));
        }
        for (to, from) in self.duration_us.iter().zip(&other.duration_us) {
            to.iter().zip(from).for_each(|(t, f)| t.absorb(f));
        }
        for (to, from) in self.admission.iter().zip(&other.admission) {
            to.iter().zip(from).for_each(|(t, f)| add(t, f));
        }
        let histograms = [
            (&self.queue_wait_us[..], &other.queue_wait_us[..]),
            (&self.govern_overhead_us, &other.govern_overhead_us),
            (&self.splinters, &other.splinters),
            (&self.lane_queue_wait_us, &other.lane_queue_wait_us),
            (&self.lane_service_us, &other.lane_service_us),
            (
                std::slice::from_ref(&self.batch_size),
                std::slice::from_ref(&other.batch_size),
            ),
        ];
        for (to, from) in histograms {
            to.iter().zip(from).for_each(|(t, f)| t.absorb(f));
        }
        self.codec_requests
            .iter()
            .zip(&other.codec_requests)
            .for_each(|(t, f)| add(t, f));
        add(&self.events_logged, &other.events_logged);
        add(&self.events_dropped, &other.events_dropped);
        add(&self.flight_records, &other.flight_records);
    }

    /// Turns recording on or off. The disabled path of every hook is a
    /// single relaxed atomic load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the registry is recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one completed request across every series it belongs to.
    /// A no-op (one atomic load) when disabled.
    #[inline]
    pub fn observe_request(&self, obs: RequestObservation) {
        if !self.enabled() {
            return;
        }
        let (v, o) = (obs.verb as usize, obs.outcome as usize);
        self.requests[v][o].fetch_add(1, Ordering::Relaxed);
        self.duration_us[v][o].record(obs.duration_us);
        self.queue_wait_us[v].record(obs.queue_wait_us);
        self.govern_overhead_us[v].record(obs.govern_overhead_us);
        if let Some(s) = obs.splinters {
            self.splinters[v].record(s);
        }
        let l = obs.lane as usize;
        self.lane_queue_wait_us[l].record(obs.queue_wait_us);
        self.lane_service_us[l].record(obs.duration_us);
    }

    /// Counts one admission decision in the `{lane, decision}` family.
    /// A no-op when disabled.
    #[inline]
    pub fn observe_admission(&self, lane: ReqLane, decision: AdmitDecision) {
        if !self.enabled() {
            return;
        }
        self.admission[lane as usize][decision as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The `{lane, decision}` admission count.
    pub fn admission_total(&self, lane: ReqLane, decision: AdmitDecision) -> u64 {
        self.admission[lane as usize][decision as usize].load(Ordering::Relaxed)
    }

    /// A snapshot of one lane's queue-wait histogram.
    pub fn lane_queue_wait(&self, lane: ReqLane) -> HistogramSnapshot {
        self.lane_queue_wait_us[lane as usize].snapshot()
    }

    /// A snapshot of one lane's service-time (worker pop to reply)
    /// histogram.
    pub fn lane_service(&self, lane: ReqLane) -> HistogramSnapshot {
        self.lane_service_us[lane as usize].snapshot()
    }

    /// Records a shed request (it never reached a worker, so only the
    /// counter family fires). A no-op when disabled.
    #[inline]
    pub fn observe_shed(&self, verb: ReqVerb) {
        if !self.enabled() {
            return;
        }
        self.requests[verb as usize][ReqOutcome::Shed as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` inner requests received on `codec` (a batch frame of
    /// `k` requests counts `k`). A no-op when disabled.
    #[inline]
    pub fn observe_codec_requests(&self, codec: ReqCodec, n: u64) {
        if !self.enabled() {
            return;
        }
        self.codec_requests[codec as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one binary batch frame's inner-request count. A no-op
    /// when disabled.
    #[inline]
    pub fn observe_batch(&self, size: u64) {
        if !self.enabled() {
            return;
        }
        self.batch_size.record(size);
    }

    /// Inner requests received on `codec` so far.
    pub fn codec_requests(&self, codec: ReqCodec) -> u64 {
        self.codec_requests[codec as usize].load(Ordering::Relaxed)
    }

    /// A snapshot of the batch-size histogram.
    pub fn batch_size(&self) -> HistogramSnapshot {
        self.batch_size.snapshot()
    }

    /// Counts a structured event written to the JSONL event log.
    pub fn bump_events_logged(&self) {
        self.events_logged.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a structured event dropped on writer backpressure.
    pub fn bump_events_dropped(&self) {
        self.events_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Events dropped on writer backpressure so far.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped.load(Ordering::Relaxed)
    }

    /// Counts a slow/governor-tripped request captured by the flight
    /// recorder.
    pub fn bump_flight_records(&self) {
        self.flight_records.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests captured by the flight recorder so far.
    pub fn flight_records(&self) -> u64 {
        self.flight_records.load(Ordering::Relaxed)
    }

    /// The `{verb, outcome}` request count.
    pub fn requests(&self, verb: ReqVerb, outcome: ReqOutcome) -> u64 {
        self.requests[verb as usize][outcome as usize].load(Ordering::Relaxed)
    }

    /// A snapshot of one `{verb, outcome}` latency histogram.
    pub fn duration(&self, verb: ReqVerb, outcome: ReqOutcome) -> HistogramSnapshot {
        self.duration_us[verb as usize][outcome as usize].snapshot()
    }

    /// Latency merged across outcomes for one verb, or across
    /// everything (`None`) — the series percentile queries are derived
    /// from.
    pub fn duration_merged(&self, verb: Option<ReqVerb>) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for v in ReqVerb::ALL {
            if verb.is_some_and(|want| want != v) {
                continue;
            }
            for o in ReqOutcome::ALL {
                out = out.merge(&self.duration(v, o));
            }
        }
        out
    }

    /// A snapshot of one verb's queue-wait histogram.
    pub fn queue_wait(&self, verb: ReqVerb) -> HistogramSnapshot {
        self.queue_wait_us[verb as usize].snapshot()
    }

    /// Queue wait merged across verbs.
    pub fn queue_wait_merged(&self) -> HistogramSnapshot {
        ReqVerb::ALL
            .iter()
            .fold(HistogramSnapshot::default(), |acc, &v| {
                acc.merge(&self.queue_wait(v))
            })
    }

    /// A snapshot of one verb's govern-overhead histogram.
    pub fn govern_overhead(&self, verb: ReqVerb) -> HistogramSnapshot {
        self.govern_overhead_us[verb as usize].snapshot()
    }

    /// A snapshot of one verb's splinters-per-request histogram.
    pub fn splinters(&self, verb: ReqVerb) -> HistogramSnapshot {
        self.splinters[verb as usize].snapshot()
    }

    /// Renders the whole registry as Prometheus text exposition.
    ///
    /// Label ordering is stable: verbs then outcomes in declaration
    /// order, buckets ascending, `+Inf` last, `_sum` before `_count`.
    /// Zero-valued counter series and empty histogram series are
    /// omitted (so a scrape grows as verbs/outcomes first occur), but
    /// a non-empty histogram series always renders all `NUM_BUCKETS`
    /// cumulative bucket lines — the golden exposition test pins this.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP presburger_requests_total Requests by verb and outcome.\n");
        out.push_str("# TYPE presburger_requests_total counter\n");
        for v in ReqVerb::ALL {
            for o in ReqOutcome::ALL {
                let n = self.requests(v, o);
                if n > 0 {
                    out.push_str(&format!(
                        "presburger_requests_total{{verb=\"{}\",outcome=\"{}\"}} {n}\n",
                        v.label(),
                        o.label()
                    ));
                }
            }
        }
        out.push_str(
            "# HELP presburger_request_duration_us Request latency (worker pop to reply), \
             microseconds.\n# TYPE presburger_request_duration_us histogram\n",
        );
        for v in ReqVerb::ALL {
            for o in ReqOutcome::ALL {
                let labels = format!("verb=\"{}\",outcome=\"{}\"", v.label(), o.label());
                render_histogram_series(
                    &mut out,
                    "presburger_request_duration_us",
                    &labels,
                    &self.duration(v, o),
                );
            }
        }
        out.push_str(
            "# HELP presburger_queue_wait_us Admission-queue wait before a worker picked the \
             request up, microseconds.\n# TYPE presburger_queue_wait_us histogram\n",
        );
        for v in ReqVerb::ALL {
            let labels = format!("verb=\"{}\"", v.label());
            render_histogram_series(
                &mut out,
                "presburger_queue_wait_us",
                &labels,
                &self.queue_wait(v),
            );
        }
        out.push_str(
            "# HELP presburger_govern_overhead_us Serving overhead outside the governed engine \
             run (parse, cache, breaker, render), microseconds.\n\
             # TYPE presburger_govern_overhead_us histogram\n",
        );
        for v in ReqVerb::ALL {
            let labels = format!("verb=\"{}\"", v.label());
            render_histogram_series(
                &mut out,
                "presburger_govern_overhead_us",
                &labels,
                &self.govern_overhead(v),
            );
        }
        out.push_str(
            "# HELP presburger_request_splinters Splinter clauses generated per request \
             (counter-delta attribution).\n# TYPE presburger_request_splinters histogram\n",
        );
        for v in ReqVerb::ALL {
            let labels = format!("verb=\"{}\"", v.label());
            render_histogram_series(
                &mut out,
                "presburger_request_splinters",
                &labels,
                &self.splinters(v),
            );
        }
        out.push_str(
            "# HELP presburger_codec_requests_total Inner requests received per wire codec.\n\
             # TYPE presburger_codec_requests_total counter\n",
        );
        for c in ReqCodec::ALL {
            let n = self.codec_requests(c);
            if n > 0 {
                out.push_str(&format!(
                    "presburger_codec_requests_total{{codec=\"{}\"}} {n}\n",
                    c.label()
                ));
            }
        }
        out.push_str(
            "# HELP presburger_batch_size Inner requests per binary batch frame.\n\
             # TYPE presburger_batch_size histogram\n",
        );
        render_histogram_series(&mut out, "presburger_batch_size", "", &self.batch_size());
        out.push_str(
            "# HELP presburger_events_logged_total Structured events written to the JSONL event \
             log.\n# TYPE presburger_events_logged_total counter\n",
        );
        out.push_str(&format!(
            "presburger_events_logged_total {}\n",
            self.events_logged.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP presburger_events_dropped_total Structured events dropped on event-log \
             backpressure (the writer never blocks a worker).\n\
             # TYPE presburger_events_dropped_total counter\n",
        );
        out.push_str(&format!(
            "presburger_events_dropped_total {}\n",
            self.events_dropped()
        ));
        out.push_str(
            "# HELP presburger_flight_records_total Slow or governor-tripped requests captured \
             by the flight recorder.\n# TYPE presburger_flight_records_total counter\n",
        );
        out.push_str(&format!(
            "presburger_flight_records_total {}\n",
            self.flight_records()
        ));
        out.push_str(
            "# HELP presburger_admission_total Admission decisions by priority lane.\n\
             # TYPE presburger_admission_total counter\n",
        );
        for l in ReqLane::ALL {
            for d in AdmitDecision::ALL {
                let n = self.admission_total(l, d);
                if n > 0 {
                    out.push_str(&format!(
                        "presburger_admission_total{{lane=\"{}\",decision=\"{}\"}} {n}\n",
                        l.label(),
                        d.label()
                    ));
                }
            }
        }
        out.push_str(
            "# HELP presburger_lane_queue_wait_us Admission-queue wait by priority lane, \
             microseconds.\n# TYPE presburger_lane_queue_wait_us histogram\n",
        );
        for l in ReqLane::ALL {
            let labels = format!("lane=\"{}\"", l.label());
            render_histogram_series(
                &mut out,
                "presburger_lane_queue_wait_us",
                &labels,
                &self.lane_queue_wait(l),
            );
        }
        out.push_str(
            "# HELP presburger_lane_service_us Worker service time (pop to reply) by priority \
             lane, microseconds.\n# TYPE presburger_lane_service_us histogram\n",
        );
        for l in ReqLane::ALL {
            let labels = format!("lane=\"{}\"", l.label());
            render_histogram_series(
                &mut out,
                "presburger_lane_service_us",
                &labels,
                &self.lane_service(l),
            );
        }
        out
    }
}

/// Renders one histogram series (all cumulative bucket lines plus
/// `_sum`/`_count`) when non-empty.
fn render_histogram_series(
    out: &mut String,
    name: &str,
    labels: &str,
    snapshot: &HistogramSnapshot,
) {
    if snapshot.is_empty() {
        return;
    }
    // An unlabeled series renders bare `_sum`/`_count` and `{le=…}`
    // buckets (the batch-size histogram has no dimensions).
    let le_prefix = if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    };
    let mut cumulative = 0u64;
    for (i, &n) in snapshot.buckets.iter().enumerate() {
        cumulative += n;
        out.push_str(&format!(
            "{name}_bucket{{{le_prefix}le=\"{}\"}} {cumulative}\n",
            bucket_le_label(i)
        ));
    }
    if labels.is_empty() {
        out.push_str(&format!("{name}_sum {}\n", snapshot.sum));
        out.push_str(&format!("{name}_count {}\n", snapshot.count));
    } else {
        out.push_str(&format!("{name}_sum{{{labels}}} {}\n", snapshot.sum));
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", snapshot.count));
    }
}

/// The splinter count attributable to one request, from its counter
/// delta (the snapshot-diff the serve worker captures).
pub fn splinters_from_delta(delta: &PipelineStats) -> u64 {
    delta.get(crate::Counter::SplintersGenerated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 30), 30);
        assert_eq!(bucket_index((1 << 30) + 1), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_bound(0), Some(1));
        assert_eq!(bucket_bound(30), Some(1 << 30));
        assert_eq!(bucket_bound(31), None);
        assert_eq!(bucket_le_label(31), "+Inf");
    }

    #[test]
    fn record_and_percentiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        // Log buckets bound the relative error by the bucket width: the
        // interpolated percentile lies within a factor of two.
        let p50 = s.percentile(0.50);
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        let p999 = s.percentile(0.999);
        assert!((512..=1024).contains(&p999), "p999 = {p999}");
        assert_eq!(s.percentile(1.0), 1024);
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 4000);
    }

    /// Minimal deterministic RNG for the property tests (no external
    /// dependencies in this crate).
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn random_snapshot(rng: &mut SplitMix64) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::default();
        for _ in 0..(rng.next() % 200) {
            // Skewed values spanning every bucket, overflow included.
            s.record(rng.next() >> (rng.next() % 64));
        }
        s
    }

    #[test]
    fn merge_is_associative_and_commutative_bucket_for_bucket() {
        let mut rng = SplitMix64(0xDEC0_DE00);
        for _ in 0..200 {
            let (a, b, c) = (
                random_snapshot(&mut rng),
                random_snapshot(&mut rng),
                random_snapshot(&mut rng),
            );
            let left = a.merge(&b.merge(&c));
            let right = a.merge(&b).merge(&c);
            assert_eq!(left, right, "merge must be associative");
            assert_eq!(a.merge(&b), b.merge(&a), "merge must be commutative");
            assert_eq!(
                left.count,
                a.count + b.count + c.count,
                "merge must not lose observations"
            );
        }
    }

    #[test]
    fn registry_observes_across_series() {
        let m = RequestMetrics::new(true);
        m.observe_request(RequestObservation {
            verb: ReqVerb::Count,
            outcome: ReqOutcome::Ok,
            lane: ReqLane::Interactive,
            duration_us: 800,
            queue_wait_us: 3,
            govern_overhead_us: 90,
            splinters: Some(17),
        });
        m.observe_shed(ReqVerb::Sum);
        assert_eq!(m.requests(ReqVerb::Count, ReqOutcome::Ok), 1);
        assert_eq!(m.requests(ReqVerb::Sum, ReqOutcome::Shed), 1);
        assert_eq!(m.duration(ReqVerb::Count, ReqOutcome::Ok).count, 1);
        assert_eq!(m.queue_wait(ReqVerb::Count).sum, 3);
        assert_eq!(m.govern_overhead(ReqVerb::Count).sum, 90);
        assert_eq!(m.splinters(ReqVerb::Count).sum, 17);
        assert_eq!(m.duration_merged(None).count, 1);
        assert_eq!(m.lane_queue_wait(ReqLane::Interactive).sum, 3);
        assert_eq!(m.lane_service(ReqLane::Interactive).sum, 800);
        assert!(m.lane_service(ReqLane::Batch).is_empty());
    }

    #[test]
    fn absorb_sums_registries_element_wise() {
        // Feeding two registries and absorbing both into a third must
        // render exactly what one registry fed everything renders.
        let (a, b, all) = (
            RequestMetrics::new(true),
            RequestMetrics::new(true),
            RequestMetrics::new(true),
        );
        let feed = |m: &RequestMetrics, k: u64| {
            m.observe_request(RequestObservation {
                verb: ReqVerb::ALL[(k % 2) as usize],
                outcome: ReqOutcome::ALL[(k % 3) as usize],
                lane: ReqLane::ALL[(k % 3) as usize],
                duration_us: 100 * k,
                queue_wait_us: k,
                govern_overhead_us: 7 * k,
                splinters: k.is_multiple_of(2).then_some(k),
            });
            m.observe_shed(ReqVerb::Count);
            m.observe_admission(ReqLane::ALL[(k % 3) as usize], AdmitDecision::Admit);
            m.observe_codec_requests(ReqCodec::Binary, k);
            m.observe_batch(k);
            m.bump_events_logged();
            m.bump_events_dropped();
            m.bump_flight_records();
        };
        for k in 1..=5u64 {
            feed(if k.is_multiple_of(2) { &a } else { &b }, k);
            feed(&all, k);
        }
        let merged = RequestMetrics::new(false);
        merged.absorb(&a);
        merged.absorb(&b);
        assert_eq!(merged.render_prometheus(), all.render_prometheus());
        assert_eq!(merged.flight_records(), 5);
    }

    #[test]
    fn admission_family_counts_and_renders_after_flight_records() {
        let m = RequestMetrics::new(true);
        m.observe_admission(ReqLane::Interactive, AdmitDecision::Admit);
        m.observe_admission(ReqLane::Interactive, AdmitDecision::Admit);
        m.observe_admission(ReqLane::Batch, AdmitDecision::ShedQuota);
        m.observe_admission(ReqLane::Background, AdmitDecision::Evicted);
        assert_eq!(
            m.admission_total(ReqLane::Interactive, AdmitDecision::Admit),
            2
        );
        assert_eq!(
            m.admission_total(ReqLane::Batch, AdmitDecision::ShedQuota),
            1
        );
        let text = m.render_prometheus();
        assert!(
            text.contains("presburger_admission_total{lane=\"interactive\",decision=\"admit\"} 2")
        );
        assert!(
            text.contains("presburger_admission_total{lane=\"batch\",decision=\"shed_quota\"} 1")
        );
        assert!(
            text.contains("presburger_admission_total{lane=\"background\",decision=\"evicted\"} 1")
        );
        // Zero series are omitted; family order is flight_records then
        // admission then the lane histograms.
        assert!(!text.contains("decision=\"shed_drain\""));
        let flight = text.find("presburger_flight_records_total").unwrap();
        let admission = text.find("presburger_admission_total").unwrap();
        let lane_wait = text.find("presburger_lane_queue_wait_us").unwrap();
        let lane_service = text.find("presburger_lane_service_us").unwrap();
        assert!(flight < admission && admission < lane_wait && lane_wait < lane_service);
        // Disabled registries stay silent.
        let off = RequestMetrics::new(false);
        off.observe_admission(ReqLane::Batch, AdmitDecision::Admit);
        assert_eq!(off.admission_total(ReqLane::Batch, AdmitDecision::Admit), 0);
    }

    #[test]
    fn codec_and_batch_families_render_after_splinters() {
        let m = RequestMetrics::new(true);
        m.observe_codec_requests(ReqCodec::Text, 1);
        m.observe_codec_requests(ReqCodec::Binary, 16);
        m.observe_batch(16);
        assert_eq!(m.codec_requests(ReqCodec::Text), 1);
        assert_eq!(m.codec_requests(ReqCodec::Binary), 16);
        assert_eq!(m.batch_size().count, 1);
        let text = m.render_prometheus();
        assert!(text.contains("presburger_codec_requests_total{codec=\"text\"} 1"));
        assert!(text.contains("presburger_codec_requests_total{codec=\"binary\"} 16"));
        assert!(text.contains("presburger_batch_size_bucket{le=\"16\"} 1"));
        assert!(text.contains("presburger_batch_size_sum 16"));
        assert!(text.contains("presburger_batch_size_count 1"));
        // Family order: splinters, then codec, then the event counters.
        let splinters = text.find("presburger_request_splinters").unwrap();
        let codec = text.find("presburger_codec_requests_total").unwrap();
        let events = text.find("presburger_events_logged_total").unwrap();
        assert!(splinters < codec && codec < events);
        // Disabled registries stay silent.
        let off = RequestMetrics::new(false);
        off.observe_codec_requests(ReqCodec::Binary, 5);
        off.observe_batch(5);
        assert_eq!(off.codec_requests(ReqCodec::Binary), 0);
        assert!(off.batch_size().is_empty());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = RequestMetrics::new(false);
        m.observe_request(RequestObservation {
            verb: ReqVerb::Count,
            outcome: ReqOutcome::Ok,
            lane: ReqLane::Batch,
            duration_us: 800,
            queue_wait_us: 3,
            govern_overhead_us: 90,
            splinters: Some(17),
        });
        m.observe_shed(ReqVerb::Count);
        assert_eq!(m.requests(ReqVerb::Count, ReqOutcome::Ok), 0);
        assert_eq!(m.requests(ReqVerb::Count, ReqOutcome::Shed), 0);
        assert!(m.duration_merged(None).is_empty());
    }

    #[test]
    fn prometheus_exposition_is_stable_and_cumulative() {
        let m = RequestMetrics::new(true);
        for d in [1u64, 5, 1000] {
            m.observe_request(RequestObservation {
                verb: ReqVerb::Count,
                outcome: ReqOutcome::Ok,
                lane: ReqLane::Batch,
                duration_us: d,
                queue_wait_us: 0,
                govern_overhead_us: 1,
                splinters: None,
            });
        }
        let text = m.render_prometheus();
        assert!(text.contains("presburger_requests_total{verb=\"count\",outcome=\"ok\"} 3"));
        // Buckets are cumulative: every line after the first observation
        // carries it forward, and +Inf equals _count.
        assert!(text.contains(
            "presburger_request_duration_us_bucket{verb=\"count\",outcome=\"ok\",le=\"1\"} 1"
        ));
        assert!(text.contains(
            "presburger_request_duration_us_bucket{verb=\"count\",outcome=\"ok\",le=\"+Inf\"} 3"
        ));
        assert!(
            text.contains("presburger_request_duration_us_sum{verb=\"count\",outcome=\"ok\"} 1006")
        );
        assert!(
            text.contains("presburger_request_duration_us_count{verb=\"count\",outcome=\"ok\"} 3")
        );
        // Empty series are omitted; families and label order are stable.
        assert!(!text.contains("outcome=\"err\""));
        assert_eq!(text, m.render_prometheus(), "exposition must be stable");
        // Rendering twice after another observation keeps ordering.
        let sum_pos = text.find("verb=\"count\"").unwrap();
        assert!(sum_pos < text.find("presburger_queue_wait_us").unwrap());
    }
}
