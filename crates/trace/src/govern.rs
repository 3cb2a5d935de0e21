//! The governance side of the counter layer: **budget charging**,
//! **deadlines**, **cancellation**, and **fault injection**.
//!
//! The counting engine's blowup modes (splintering §5.2, DNF expansion
//! §2.5, Fourier–Motzkin coefficient growth) all announce themselves
//! through the pipeline counters *as they happen* — so the cheapest
//! possible governor piggybacks on the existing counter hooks. When a
//! governed region is [installed](install) on a thread, every
//! [`crate::add`]/[`crate::record_max`] call also *charges* the
//! thread-local [`Limits`]; exceeding a cap, missing a deadline, or
//! observing the cancellation token **trips** the region.
//!
//! A trip is an unwind carrying a [`Trip`] payload
//! ([`std::panic::panic_any`]). The counting crate wraps every governed
//! region in `catch_unwind` and converts the payload into a structured
//! `CountError` — no `Result` plumbing is needed through the `omega`
//! hot loops, and the ungoverned path stays a single thread-local flag
//! load. Trips are *expected* control flow: a process-wide panic-hook
//! filter suppresses the default "thread panicked" stderr noise for
//! `Trip` payloads (and only for those).
//!
//! # Fault injection
//!
//! A `<site>:<nth>[:panic]` spec ([`parse_fault`]) arms a one-shot
//! fault. The library reads no environment variable for it: the
//! counting crate arms it through `Governor::with_fault` and the
//! serving layer through `ServeConfig::fault_spec`.
//!
//! * `<site>` — a counter name (see [`Counter::name`]) or the
//!   pseudo-sites `deadline` / `cancel`;
//! * `<nth>` — fire when the site's charged total first reaches `nth`
//!   (for pseudo-sites: the `nth` charge event of any kind);
//! * `:panic` — raise a plain `panic!` instead of a budget-style trip,
//!   exercising the pipeline's panic isolation.
//!
//! Charged totals are per governed region (one clause, or the DNF
//! phase), so the fault fires deterministically in the first region
//! that reaches the threshold. Faults
//! are only armed in *exact* regions: degraded (§4.6 bounds) reruns
//! run fault-free so that the degradation path itself stays testable.

use crate::counters::{self, Counter, NUM_COUNTERS};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::Instant;

/// The payload of a governed-region unwind: which resource tripped,
/// what the limit was, and how much was spent when the trip fired.
/// `resource` is a counter name, `"deadline"`, `"cancelled"`, or one
/// of the engine's named fuel pools (e.g. `"wildcard_projection_fuel"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trip {
    /// Stable name of the exhausted resource.
    pub resource: &'static str,
    /// The configured limit (milliseconds for `"deadline"`).
    pub limit: u64,
    /// The amount spent when the trip fired.
    pub spent: u64,
}

/// Where an injected fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// At a charge of this counter.
    Counter(Counter),
    /// At the `nth` charge event of any kind, as a deadline trip.
    Deadline,
    /// At the `nth` charge event of any kind, as a cancellation trip.
    Cancel,
}

/// A parsed `<site>:<nth>[:panic]` fault specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The counter (or pseudo-site) the fault is armed on.
    pub site: FaultSite,
    /// Fire when the site's charged total first reaches this value.
    pub nth: u64,
    /// Raise a plain `panic!` instead of a budget-style [`Trip`].
    pub panic: bool,
}

/// Parses a `<site>:<nth>[:panic]` fault specification.
pub fn parse_fault(spec: &str) -> Result<FaultSpec, String> {
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or("");
    let nth: u64 = parts
        .next()
        .ok_or_else(|| format!("fault spec {spec:?}: missing ':<nth>'"))?
        .parse()
        .map_err(|_| format!("fault spec {spec:?}: <nth> must be a number"))?;
    let panic = match parts.next() {
        None => false,
        Some("panic") => true,
        Some(other) => return Err(format!("fault spec {spec:?}: unknown action {other:?}")),
    };
    if parts.next().is_some() {
        return Err(format!("fault spec {spec:?}: too many fields"));
    }
    let site = match name {
        "deadline" => FaultSite::Deadline,
        "cancel" | "cancelled" => FaultSite::Cancel,
        _ => FaultSite::Counter(
            Counter::ALL
                .into_iter()
                .find(|c| c.name() == name)
                .ok_or_else(|| format!("fault spec {spec:?}: unknown site {name:?}"))?,
        ),
    };
    if nth == 0 {
        return Err(format!("fault spec {spec:?}: <nth> must be >= 1"));
    }
    Ok(FaultSpec { site, nth, panic })
}

/// The budgets a governed region is charged against. Plain data: the
/// counting crate builds one per region (clause, DNF phase, or
/// degraded rerun) and [installs](install) it on the executing thread.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Per-counter caps; a charge pushing the regional total (or a
    /// gauge value) *above* the cap trips the region.
    pub caps: [Option<u64>; NUM_COUNTERS],
    /// Trip when `Instant::now()` passes the instant; the `u64` is the
    /// configured limit in milliseconds, reported in the [`Trip`].
    pub deadline: Option<(Instant, u64)>,
    /// Trip when the shared token becomes `true`.
    pub cancel: Option<Arc<AtomicBool>>,
    /// One-shot injected fault (ignored unless `fault_active`).
    pub fault: Option<FaultSpec>,
    /// Whether the fault is armed — `false` in degraded reruns so the
    /// degradation path can complete under an armed fault.
    pub fault_active: bool,
}

impl Default for Limits {
    /// No caps, no deadline, no cancellation, no fault: a region that
    /// never trips.
    fn default() -> Limits {
        Limits {
            caps: [None; NUM_COUNTERS],
            deadline: None,
            cancel: None,
            fault: None,
            fault_active: false,
        }
    }
}

/// Per-thread state of the installed governed region.
struct State {
    limits: Limits,
    /// Regional charge totals (counts accumulate, gauges high-water).
    spent: [u64; NUM_COUNTERS],
    /// Total charge events, for the periodic deadline/cancel check.
    events: u64,
    /// Next `events` value at which to poll deadline/cancellation.
    next_check: u64,
    fault_fired: bool,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// How many charge events pass between deadline/cancellation polls
/// (the first charge always polls). Counter charges are frequent deep
/// in the hot loops, so 64 keeps the reaction latency tiny without
/// paying `Instant::now()` per charge.
const CHECK_EVERY: u64 = 64;

/// RAII installation of a governed region on the current thread;
/// dropping it (normally or during an unwind) uninstalls the region.
pub struct Installed {
    _private: (),
}

impl Drop for Installed {
    fn drop(&mut self) {
        STATE.with(|s| s.borrow_mut().take());
        crate::set_flag(crate::FLAG_GOVERNED, false);
    }
}

/// Installs `limits` as the current thread's governed region. Regions
/// do not nest; the previous region (if any) is replaced.
///
/// Call this *inside* the `catch_unwind` closure that delimits the
/// region: the first charge after installation polls the deadline and
/// cancellation token immediately.
pub fn install(limits: Limits) -> Installed {
    install_trip_hook();
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            limits,
            spent: [0; NUM_COUNTERS],
            events: 0,
            next_check: 1,
            fault_fired: false,
        });
    });
    crate::set_flag(crate::FLAG_GOVERNED, true);
    Installed { _private: () }
}

/// Unwinds the current region with a [`Trip`] payload. Public so the
/// engine's named fuel pools (wildcard projection, disjoint
/// conversion) can report exhaustion through the same channel.
pub fn trip(resource: &'static str, limit: u64, spent: u64) -> ! {
    install_trip_hook();
    if crate::counting() {
        counters::add_raw(Counter::GovernorTrips, 1);
    }
    std::panic::panic_any(Trip {
        resource,
        limit,
        spent,
    });
}

/// Charges `n` units of `counter` against the installed region.
/// Called from [`crate::add`] when the governed flag is set.
pub(crate) fn charge(counter: Counter, n: u64) {
    let decision = STATE.with(|s| {
        let mut borrow = s.borrow_mut();
        let st = borrow.as_mut()?;
        let i = counter as usize;
        st.spent[i] = st.spent[i].saturating_add(n);
        decide(st, counter, st.spent[i])
    });
    act(decision);
}

/// Charges a gauge observation of `value` on `counter` against the
/// installed region. Called from [`crate::record_max`].
pub(crate) fn charge_gauge(counter: Counter, value: u64) {
    let decision = STATE.with(|s| {
        let mut borrow = s.borrow_mut();
        let st = borrow.as_mut()?;
        let i = counter as usize;
        if value > st.spent[i] {
            st.spent[i] = value;
        }
        decide(st, counter, value)
    });
    act(decision);
}

/// What a charge decided to do, computed while the thread-local state
/// is borrowed and executed after the borrow is released.
enum Decision {
    Panic(&'static str, u64),
    Trip(Trip),
}

fn decide(st: &mut State, counter: Counter, total: u64) -> Option<Decision> {
    // 1. The armed fault, if this charge reached its threshold.
    if st.limits.fault_active && !st.fault_fired {
        if let Some(f) = st.limits.fault {
            let hit = match f.site {
                FaultSite::Counter(c) => c == counter && total >= f.nth,
                // pseudo-sites count charge events of any kind
                FaultSite::Deadline | FaultSite::Cancel => st.events + 1 >= f.nth,
            };
            if hit {
                st.fault_fired = true;
                if f.panic {
                    return Some(Decision::Panic(site_name(f.site), f.nth));
                }
                let trip = match f.site {
                    FaultSite::Counter(c) => Trip {
                        resource: c.name(),
                        limit: f.nth.saturating_sub(1),
                        spent: total,
                    },
                    FaultSite::Deadline => Trip {
                        resource: "deadline",
                        limit: st.limits.deadline.map(|(_, ms)| ms).unwrap_or(0),
                        spent: st.limits.deadline.map(|(_, ms)| ms).unwrap_or(0),
                    },
                    FaultSite::Cancel => Trip {
                        resource: "cancelled",
                        limit: 0,
                        spent: 0,
                    },
                };
                return Some(Decision::Trip(trip));
            }
        }
    }
    // 2. The counter's own cap.
    if let Some(cap) = st.limits.caps[counter as usize] {
        if total > cap {
            return Some(Decision::Trip(Trip {
                resource: counter.name(),
                limit: cap,
                spent: total,
            }));
        }
    }
    // 3. Periodic deadline / cancellation poll.
    st.events += 1;
    if st.events >= st.next_check {
        st.next_check = st.events + CHECK_EVERY;
        if let Some(cancel) = &st.limits.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Some(Decision::Trip(Trip {
                    resource: "cancelled",
                    limit: 0,
                    spent: 0,
                }));
            }
        }
        if let Some((at, limit_ms)) = st.limits.deadline {
            let now = Instant::now();
            if now >= at {
                let over = now.duration_since(at).as_millis() as u64;
                return Some(Decision::Trip(Trip {
                    resource: "deadline",
                    limit: limit_ms,
                    spent: limit_ms.saturating_add(over),
                }));
            }
        }
    }
    None
}

fn act(decision: Option<Decision>) {
    match decision {
        None => {}
        Some(Decision::Panic(site, nth)) => {
            panic!("injected fault: {site} at {nth}")
        }
        Some(Decision::Trip(t)) => trip(t.resource, t.limit, t.spent),
    }
}

fn site_name(site: FaultSite) -> &'static str {
    match site {
        FaultSite::Counter(c) => c.name(),
        FaultSite::Deadline => "deadline",
        FaultSite::Cancel => "cancel",
    }
}

/// Installs (once per process) a panic-hook filter that keeps [`Trip`]
/// unwinds — expected, always-caught control flow — off stderr. Every
/// other panic is passed to the previously installed hook untouched.
fn install_trip_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<Trip>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn trip_of(payload: Box<dyn std::any::Any + Send>) -> Trip {
        *payload.downcast::<Trip>().expect("payload is a Trip")
    }

    #[test]
    fn fault_spec_parsing() {
        let f = parse_fault("splinters_generated:3").unwrap();
        assert_eq!(f.site, FaultSite::Counter(Counter::SplintersGenerated));
        assert_eq!(f.nth, 3);
        assert!(!f.panic);
        let f = parse_fault("deadline:10:panic").unwrap();
        assert_eq!(f.site, FaultSite::Deadline);
        assert!(f.panic);
        assert_eq!(parse_fault("cancel:1").unwrap().site, FaultSite::Cancel);
        assert!(parse_fault("bogus_counter:1").is_err());
        assert!(parse_fault("gist_calls").is_err());
        assert!(parse_fault("gist_calls:0").is_err());
        assert!(parse_fault("gist_calls:1:explode").is_err());
    }

    #[test]
    fn cap_trips_and_uninstall_clears() {
        let mut limits = Limits::default();
        limits.caps[Counter::GistCalls as usize] = Some(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = install(limits);
            crate::add(Counter::GistCalls, 2); // at the cap: fine
            crate::add(Counter::GistCalls, 1); // over: trips
        }));
        let t = trip_of(r.unwrap_err());
        assert_eq!(t.resource, "gist_calls");
        assert_eq!(t.limit, 2);
        assert_eq!(t.spent, 3);
        // the unwind dropped the guard: charges are no-ops again
        crate::add(Counter::GistCalls, 100);
    }

    #[test]
    fn gauge_cap_trips_on_high_water() {
        let mut limits = Limits::default();
        limits.caps[Counter::MaxCoeffBits as usize] = Some(64);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = install(limits);
            crate::record_max(Counter::MaxCoeffBits, 60); // under
            crate::record_max(Counter::MaxCoeffBits, 65); // over: trips
        }));
        let t = trip_of(r.unwrap_err());
        assert_eq!(t.resource, "max_coeff_bits");
        assert_eq!(t.spent, 65);
    }

    #[test]
    fn cancellation_is_observed_on_first_charge() {
        let token = Arc::new(AtomicBool::new(true));
        let limits = Limits {
            cancel: Some(token),
            ..Limits::default()
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = install(limits);
            crate::bump(Counter::GistCalls);
        }));
        assert_eq!(trip_of(r.unwrap_err()).resource, "cancelled");
    }

    #[test]
    fn expired_deadline_trips() {
        let limits = Limits {
            deadline: Some((Instant::now(), 7)),
            ..Limits::default()
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = install(limits);
            crate::bump(Counter::GistCalls);
        }));
        let t = trip_of(r.unwrap_err());
        assert_eq!(t.resource, "deadline");
        assert_eq!(t.limit, 7);
        assert!(t.spent >= 7);
    }

    #[test]
    fn counter_fault_fires_at_nth_and_only_when_active() {
        let fault = parse_fault("gist_calls:3").unwrap();
        // inactive fault: charges pass
        let limits = Limits {
            fault: Some(fault),
            fault_active: false,
            ..Limits::default()
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = install(limits);
            crate::add(Counter::GistCalls, 10);
        }));
        assert!(r.is_ok());
        // active fault: trips when the regional total reaches 3
        let limits = Limits {
            fault: Some(fault),
            fault_active: true,
            ..Limits::default()
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = install(limits);
            crate::bump(Counter::GistCalls);
            crate::bump(Counter::GistCalls);
            crate::bump(Counter::GistCalls); // third: fires
        }));
        let t = trip_of(r.unwrap_err());
        assert_eq!(t.resource, "gist_calls");
        assert_eq!(t.spent, 3);
    }

    #[test]
    fn panic_fault_raises_a_plain_panic() {
        let limits = Limits {
            fault: Some(parse_fault("gist_calls:1:panic").unwrap()),
            fault_active: true,
            ..Limits::default()
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = install(limits);
            crate::bump(Counter::GistCalls);
        }));
        let payload = r.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("plain panic payload");
        assert!(msg.contains("injected fault"), "was: {msg}");
    }

    #[test]
    fn ungoverned_threads_never_charge() {
        // No install on this thread: the flag is off, charges are free.
        crate::add(Counter::GistCalls, u64::MAX);
        crate::record_max(Counter::MaxCoeffBits, u64::MAX);
    }
}
