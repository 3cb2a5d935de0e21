//! Properties of the consistent-hash router (DESIGN.md §14).
//!
//! The load-bearing property is *minimal disruption*: growing a pool
//! from N to N+1 shards must re-route only the keys the new shard's
//! ring points capture — every moved key lands on the new shard, and
//! the moved fraction stays near 1/(N+1) (we allow 2/(N+1) for vnode
//! placement variance). A modulo router would move (N)/(N+1) of the
//! keyspace and cold-start every shard cache on each re-size.

use presburger_serve::{parse_request, routing_hash, Query, Request, Ring};
use proptest::prelude::*;

/// Local key mixer for synthetic routing keys (the ring routes raw
/// `u64` hashes; `routing_hash` itself is exercised below with real
/// queries).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn query(line: &str) -> Query {
    match parse_request(line).expect("test query parses") {
        Request::Query(q) => q,
        other => panic!("expected a query, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N → N+1: moved keys move only *to* the new shard, and few move.
    #[test]
    fn growing_the_ring_is_minimally_disruptive(seed in any::<u64>(), n in 1usize..8) {
        let old = Ring::new(n);
        let new = Ring::new(n + 1);
        let keys = 2_000u64;
        let mut moved = 0u64;
        for k in 0..keys {
            let h = mix(seed.wrapping_add(k));
            let before = old.route(h);
            let after = new.route(h);
            prop_assert!(before < n && after < n + 1);
            if before != after {
                prop_assert_eq!(
                    after, n,
                    "key moved between two old shards ({} -> {})", before, after
                );
                moved += 1;
            }
        }
        let bound = (2.0 * keys as f64) / (n as f64 + 1.0);
        prop_assert!(
            (moved as f64) <= bound,
            "moved {} of {} keys at n={} (bound {})", moved, keys, n, bound
        );
    }

    /// Every shard of a ring takes a nonzero share of a large keyspace
    /// (no shard is starved by vnode placement).
    #[test]
    fn every_shard_owns_keyspace(seed in any::<u64>(), n in 1usize..9) {
        let ring = Ring::new(n);
        let mut hits = vec![0u64; n];
        for k in 0..4_000u64 {
            hits[ring.route(mix(seed.wrapping_add(k)))] += 1;
        }
        for (s, &h) in hits.iter().enumerate() {
            prop_assert!(h > 0, "shard {} of {} owns no keys", s, n);
        }
    }
}

/// `routing_hash` is canonical: whitespace variants of one formula
/// route together at every pool size, and the route is stable across
/// `Ring` constructions.
#[test]
fn textual_variants_route_to_the_same_shard() {
    let variants = [
        "count a {x,y : 1 <= x && x <= 9 && 0 <= y && y <= x}",
        "count b {x,y : 1<=x && x<=9 && 0<=y && y<=x}",
        "count c {x,y :   1 <= x&&x <= 9&&0 <= y&&y <= x}",
    ];
    let hashes: Vec<u64> = variants.iter().map(|l| routing_hash(&query(l))).collect();
    assert!(hashes.windows(2).all(|w| w[0] == w[1]), "{hashes:?}");
    for n in 1..6 {
        let ring = Ring::new(n);
        let shard = ring.route(hashes[0]);
        assert!(shard < n);
        assert_eq!(shard, Ring::new(n).route(hashes[0]));
    }
}

/// Unparsable formulas still route deterministically (raw-text key).
#[test]
fn unparsable_formulas_route_deterministically() {
    let q = query("count bad {x : x <<>> 3}");
    assert_eq!(routing_hash(&q), routing_hash(&q));
    let ring = Ring::new(3);
    assert!(ring.route(routing_hash(&q)) < 3);
}
