//! A circuit breaker over the exact counting path.
//!
//! Repeated internal errors or deadline blowouts usually mean the
//! server is being fed adversarial input (or a bug is being tickled);
//! burning a full budget on every such request just converts overload
//! into latency for everyone behind it in the queue. The breaker
//! watches for `K` *consecutive* breaker-class failures
//! ([`CountError::Internal`] / [`CountError::Deadline`] — budget trips
//! are normal degradations and do not count) and, once open, routes new
//! requests straight to the cheap §4.6 bound modes (degrade-first).
//! After a cooldown it *half-opens*: exactly one request is admitted as
//! an exact-path probe, and its outcome decides between closing the
//! breaker and re-opening it for another cooldown.
//!
//! ```text
//!            K consecutive failures
//!   Closed ───────────────────────────▶ Open
//!     ▲                                  │ cooldown elapsed
//!     │ probe succeeds                   ▼
//!     └───────────────────────────── HalfOpen
//!                  probe fails ▲──────────┘
//!                  (back to Open)
//! ```
//!
//! [`CountError::Internal`]: presburger_counting::CountError::Internal
//! [`CountError::Deadline`]: presburger_counting::CountError::Deadline

use presburger_trace::{self as trace, Counter};
use std::time::Instant;

/// How the breaker wants the next request executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Run the exact governed path (breaker closed).
    Exact,
    /// Run the exact governed path as the half-open probe; the caller
    /// must report the result with [`Breaker::record`].
    ExactProbe,
    /// Skip the exact path: compute §4.6 bounds directly.
    Degrade,
}

#[derive(Clone, Copy, Debug)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// The breaker state machine. Time is passed in (never sampled
/// internally), keeping the transitions deterministic under test.
pub struct Breaker {
    state: State,
    threshold: u32,
    cooldown_ms: u64,
    opens: u64,
}

impl Breaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and cooling down for `cooldown_ms` before each probe. A zero
    /// threshold disables the breaker (it never opens).
    pub fn new(threshold: u32, cooldown_ms: u64) -> Breaker {
        Breaker {
            state: State::Closed {
                consecutive_failures: 0,
            },
            threshold,
            cooldown_ms,
            opens: 0,
        }
    }

    /// Decides how the next request should run. May transition
    /// Open → HalfOpen when the cooldown has elapsed (the caller of the
    /// returned [`Plan::ExactProbe`] owns the probe).
    pub fn plan(&mut self, now: Instant) -> Plan {
        match self.state {
            State::Closed { .. } => Plan::Exact,
            State::Open { since } => {
                if now.duration_since(since).as_millis() as u64 >= self.cooldown_ms {
                    self.state = State::HalfOpen;
                    trace::record_max(Counter::ServeBreakerState, 1);
                    Plan::ExactProbe
                } else {
                    Plan::Degrade
                }
            }
            State::HalfOpen => Plan::Degrade,
        }
    }

    /// Reports the outcome of a [`Plan::Exact`] or [`Plan::ExactProbe`]
    /// execution. `failure` means a breaker-class failure (internal
    /// error or deadline), not an ordinary budget degradation.
    pub fn record(&mut self, plan: Plan, failure: bool, now: Instant) {
        match (plan, failure) {
            (Plan::Exact, false) => {
                self.state = State::Closed {
                    consecutive_failures: 0,
                };
            }
            (Plan::Exact, true) => {
                let fails = match self.state {
                    State::Closed {
                        consecutive_failures,
                    } => consecutive_failures + 1,
                    // A stale report from before an open/half-open
                    // transition; count it as one fresh failure.
                    _ => 1,
                };
                if self.threshold > 0 && fails >= self.threshold {
                    self.open(now);
                } else {
                    self.state = State::Closed {
                        consecutive_failures: fails,
                    };
                }
            }
            (Plan::ExactProbe, false) => {
                self.state = State::Closed {
                    consecutive_failures: 0,
                };
                trace::record_max(Counter::ServeBreakerState, 1);
            }
            (Plan::ExactProbe, true) => self.open(now),
            (Plan::Degrade, _) => {}
        }
    }

    fn open(&mut self, now: Instant) {
        self.state = State::Open { since: now };
        self.opens += 1;
        trace::bump(Counter::ServeBreakerOpens);
        trace::record_max(Counter::ServeBreakerState, 2);
    }

    /// The state name for stats lines: `closed`, `open` or `half_open`.
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen => "half_open",
        }
    }

    /// Total closed→open transitions since construction.
    pub fn opens(&self) -> u64 {
        self.opens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn opens_after_k_consecutive_failures() {
        let t0 = Instant::now();
        let mut b = Breaker::new(3, 1000);
        for _ in 0..2 {
            assert_eq!(b.plan(t0), Plan::Exact);
            b.record(Plan::Exact, true, t0);
        }
        assert_eq!(b.state_name(), "closed");
        b.record(Plan::Exact, true, t0);
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.opens(), 1);
        assert_eq!(b.plan(t0), Plan::Degrade);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let t0 = Instant::now();
        let mut b = Breaker::new(2, 1000);
        b.record(Plan::Exact, true, t0);
        b.record(Plan::Exact, false, t0);
        b.record(Plan::Exact, true, t0);
        assert_eq!(b.state_name(), "closed");
    }

    #[test]
    fn half_open_probe_closes_or_reopens() {
        let t0 = Instant::now();
        let mut b = Breaker::new(1, 50);
        b.record(Plan::Exact, true, t0);
        assert_eq!(b.state_name(), "open");
        // Before cooldown: degrade. After: exactly one probe.
        assert_eq!(b.plan(t0), Plan::Degrade);
        let later = t0 + Duration::from_millis(60);
        assert_eq!(b.plan(later), Plan::ExactProbe);
        assert_eq!(b.state_name(), "half_open");
        // While the probe is in flight, everyone else degrades.
        assert_eq!(b.plan(later), Plan::Degrade);
        // Failed probe → open again, for a fresh cooldown.
        b.record(Plan::ExactProbe, true, later);
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.opens(), 2);
        // Successful probe → closed.
        let again = later + Duration::from_millis(60);
        assert_eq!(b.plan(again), Plan::ExactProbe);
        b.record(Plan::ExactProbe, false, again);
        assert_eq!(b.state_name(), "closed");
        assert_eq!(b.plan(again), Plan::Exact);
    }

    #[test]
    fn zero_threshold_never_opens() {
        let t0 = Instant::now();
        let mut b = Breaker::new(0, 1000);
        for _ in 0..10 {
            b.record(Plan::Exact, true, t0);
        }
        assert_eq!(b.state_name(), "closed");
        assert_eq!(b.opens(), 0);
    }
}
