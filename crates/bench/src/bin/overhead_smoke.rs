//! Verifies that the trace instrumentation is effectively free when the
//! collector is disabled (the acceptance bound for the observability
//! layer: < 5% of E3's wall time).
//!
//! Methodology: a disabled counter hook is one thread-local boolean
//! load, so its unit cost can be measured in isolation with a tight
//! loop. One *enabled* run of the §2.6 simplification (experiment E3)
//! counts how many hooks fire per run; `hooks × unit cost` then bounds
//! the disabled-collector overhead, which is compared against the
//! median untraced wall time of the same simplification.
//!
//! ```text
//! cargo run --release -p presburger-bench --bin overhead_smoke
//! ```

use presburger_bench::experiments::section26_formula;
use presburger_omega::dnf::{simplify, SimplifyOptions};
use presburger_trace::{self as trace, Counter};
use std::time::Instant;

/// The E3 workload: simplify the §2.6 dependence formula.
fn e3_once() {
    let mut s = presburger_omega::Space::new();
    let (f, _, _, _) = section26_formula(&mut s);
    let d = simplify(&f, &mut s, &SimplifyOptions::default());
    std::hint::black_box(d);
}

fn main() {
    // 1. Hook firings per E3 run: every bump/add is one hook; summing
    //    the counter values over-counts hooks that add more than 1,
    //    which only makes the bound more conservative.
    trace::enable_counters(true);
    trace::reset();
    e3_once();
    let hooks: u64 = Counter::ALL.iter().map(|&c| trace::snapshot().get(c)).sum();
    trace::enable_counters(false);
    trace::reset();

    // 2. Unit cost of a disabled hook.
    const HOOK_LOOPS: u32 = 10_000_000;
    let t = Instant::now();
    for _ in 0..HOOK_LOOPS {
        trace::bump(std::hint::black_box(Counter::FeasibilityChecks));
    }
    let per_hook_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(HOOK_LOOPS);

    // 2a. Unit cost of a disabled gauge hook. Since the governor
    //     joined the flags bitfield, `record_max` (like `add`) guards
    //     on counting|governed in one thread-local load; with no
    //     governed region installed this measures the whole
    //     disabled-governor path.
    let t = Instant::now();
    for _ in 0..HOOK_LOOPS {
        trace::record_max(
            std::hint::black_box(Counter::MaxCoeffBits),
            std::hint::black_box(1),
        );
    }
    let per_gauge_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(HOOK_LOOPS);

    // 2c. Unit cost of a disabled request-metrics observation (what the
    //     serve worker pays per request when telemetry histograms are
    //     off): one relaxed atomic load, however many series exist.
    let metrics = presburger_trace::RequestMetrics::new(false);
    let t = Instant::now();
    for i in 0..HOOK_LOOPS {
        metrics.observe_request(std::hint::black_box(
            presburger_trace::metrics::RequestObservation {
                verb: presburger_trace::metrics::ReqVerb::Count,
                outcome: presburger_trace::metrics::ReqOutcome::Ok,
                lane: presburger_trace::metrics::ReqLane::Batch,
                duration_us: u64::from(i),
                queue_wait_us: 1,
                govern_overhead_us: 1,
                splinters: Some(17),
            },
        ));
    }
    let per_obs_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(HOOK_LOOPS);
    assert!(
        metrics.duration_merged(None).is_empty(),
        "a disabled registry must record nothing"
    );

    // 2d. Per-request cost of the shard router (DESIGN.md §14): one
    //     `routing_hash` (canonical key bytes of the parsed formula)
    //     plus one consistent-hash `route` per request, measured on the
    //     §2.6 dependence formula — a far larger routing key than the
    //     stress mix's. Unlike the hooks above this path has no
    //     disabled state: every pooled request pays it exactly once, so
    //     its full cost is gated directly.
    let routed_query = {
        let line = "count r0 {x,y : 1 <= x && x <= 9 && 0 <= y && y <= x}";
        match presburger_serve::parse_request(line) {
            Ok(presburger_serve::Request::Query(q)) => q,
            other => panic!("routing workload must parse: {other:?}"),
        }
    };
    let ring = presburger_serve::Ring::new(4);
    const ROUTE_LOOPS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..ROUTE_LOOPS {
        let h = presburger_serve::routing_hash(std::hint::black_box(&routed_query));
        std::hint::black_box(ring.route(h));
    }
    let per_route_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(ROUTE_LOOPS);

    // 2e. Per-request cost of the binary wire codec (DESIGN.md §15):
    //     one request frame encode + decode plus one reply frame
    //     encode + decode, on the same §2.6-style query as the routing
    //     workload. Like routing this path has no disabled state — a
    //     binary connection pays it exactly once per request — so its
    //     full round-trip cost is gated directly against E3.
    let wire_req = presburger_serve::parse_request(
        "count w0 max_splinters=512 {x,y : 1 <= x && x <= 9 && 0 <= y && y <= x}",
    )
    .expect("wire workload must parse");
    let wire_reply = presburger_serve::wire::Reply::exact("w0", "45");
    const WIRE_LOOPS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..WIRE_LOOPS {
        let frame = presburger_serve::wire::encode_request(std::hint::black_box(&wire_req));
        std::hint::black_box(
            presburger_serve::wire::decode_wire_request(std::hint::black_box(&frame))
                .expect("round-trips"),
        );
        let frame = std::hint::black_box(&wire_reply).encode();
        std::hint::black_box(
            presburger_serve::wire::Reply::decode(std::hint::black_box(&frame))
                .expect("round-trips"),
        );
    }
    let per_wire_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(WIRE_LOOPS);

    // 2f. Per-request cost of the admission layer (DESIGN.md §16): one
    //     quota-ledger check (a token-bucket tick under the ledger
    //     lock, cycling four client identities so the bucket map is
    //     exercised), one lane push + strict-priority pop, and one
    //     detailed shed reason. Reasons are only rendered on sheds, so
    //     charging one to every request is conservative. Admission runs
    //     once per request, before the engine — like routing, its full
    //     cost is gated directly against E3.
    let ledger = presburger_serve::QuotaLedger::new(
        presburger_serve::QuotaConfig {
            burst: 1,
            refill_milli: 1000,
            tick_ms: 100,
        },
        1024,
    );
    let mut lanes = presburger_serve::admission::LaneQueues::new(8);
    let clients = ["c0", "c1", "c2", "c3"];
    const ADMIT_LOOPS: u32 = 100_000;
    let t = Instant::now();
    for i in 0..ADMIT_LOOPS {
        let client = clients[(i % 4) as usize];
        std::hint::black_box(ledger.check(std::hint::black_box(client)));
        let lane = presburger_serve::Lane::ALL[(i % 3) as usize];
        lanes.push(lane, std::hint::black_box(i));
        std::hint::black_box(lanes.pop());
        std::hint::black_box(presburger_serve::admission::shed_reason(
            "queue_full",
            lane,
            std::hint::black_box(u64::from(i % 64)),
            true,
        ));
    }
    let per_admit_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(ADMIT_LOOPS);

    // 3. Median untraced E3 wall time.
    let mut walls: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            e3_once();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    walls.sort_by(|a, b| a.total_cmp(b));
    let median_ms = walls[walls.len() / 2];

    // A request records one observation; bounding by 64 is already 64×
    // conservative for an E3-sized request.
    const OBS_PER_RUN: f64 = 64.0;
    let overhead_ms = hooks as f64 * per_hook_ns / 1e6;
    // Gauge hooks are a (small) subset of all hooks; bounding them by
    // the full hook count is conservative.
    let gauge_overhead_ms = hooks as f64 * per_gauge_ns / 1e6;
    let obs_overhead_ms = OBS_PER_RUN * per_obs_ns / 1e6;
    // A pooled request routes exactly once — the multiplier here is 1,
    // not the 64× used for the observations above, because routing
    // happens at admission, never inside the compute.
    let route_overhead_ms = per_route_ns / 1e6;
    // Likewise a binary request is framed and unframed exactly once per
    // direction; the loop above already measures both directions.
    let wire_overhead_ms = per_wire_ns / 1e6;
    // And a request is admitted exactly once (pool failover re-enqueues
    // bypass metering), so the admission multiplier is also 1.
    let admit_overhead_ms = per_admit_ns / 1e6;
    let pct = 100.0 * overhead_ms / median_ms;
    let gauge_pct = 100.0 * gauge_overhead_ms / median_ms;
    let obs_pct = 100.0 * obs_overhead_ms / median_ms;
    let route_pct = 100.0 * route_overhead_ms / median_ms;
    let wire_pct = 100.0 * wire_overhead_ms / median_ms;
    let admit_pct = 100.0 * admit_overhead_ms / median_ms;
    println!("hooks per E3 run:        {hooks}");
    println!("disabled hook cost:      {per_hook_ns:.2} ns");
    println!("disabled gauge hook:     {per_gauge_ns:.2} ns");
    println!("disabled request metric: {per_obs_ns:.2} ns");
    println!("shard route cost:        {per_route_ns:.2} ns");
    println!("wire codec round trip:   {per_wire_ns:.2} ns");
    println!("admission path cost:     {per_admit_ns:.2} ns");
    println!("E3 median wall:          {median_ms:.3} ms");
    println!("estimated overhead:      {overhead_ms:.4} ms ({pct:.2}% of E3)");
    println!("gauge/governor overhead: {gauge_overhead_ms:.4} ms ({gauge_pct:.2}% of E3)");
    println!(
        "request-metrics overhead: {obs_overhead_ms:.4} ms at 64 observations ({obs_pct:.2}% of E3)"
    );
    if pct >= 5.0 {
        eprintln!("FAIL: disabled-collector overhead {pct:.2}% >= 5%");
        std::process::exit(1);
    }
    if gauge_pct >= 5.0 {
        eprintln!("FAIL: disabled-governor gauge overhead {gauge_pct:.2}% >= 5%");
        std::process::exit(1);
    }
    if obs_pct >= 5.0 {
        eprintln!("FAIL: disabled request-metrics overhead {obs_pct:.2}% >= 5%");
        std::process::exit(1);
    }
    println!(
        "shard-routing overhead:  {route_overhead_ms:.4} ms per request ({route_pct:.2}% of E3)"
    );
    if route_pct >= 5.0 {
        eprintln!("FAIL: shard-routing overhead {route_pct:.2}% >= 5%");
        std::process::exit(1);
    }
    println!(
        "wire-codec overhead:     {wire_overhead_ms:.4} ms per request ({wire_pct:.2}% of E3)"
    );
    if wire_pct >= 5.0 {
        eprintln!("FAIL: wire-codec overhead {wire_pct:.2}% >= 5%");
        std::process::exit(1);
    }
    println!(
        "admission overhead:      {admit_overhead_ms:.4} ms per request ({admit_pct:.2}% of E3)"
    );
    if admit_pct >= 5.0 {
        eprintln!("FAIL: admission-path overhead {admit_pct:.2}% >= 5%");
        std::process::exit(1);
    }
    println!("OK: disabled-collector, disabled-governor, disabled-telemetry, shard-routing, wire-codec and admission overhead is below the 5% bound");
}
