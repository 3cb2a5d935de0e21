//! Deterministic chaos injection for the supervised shard pool.
//!
//! A `<site>:<shard>:<nth>` spec ([`Chaos::parse`]), set on
//! [`ShardPoolConfig::chaos`](crate::ShardPoolConfig::chaos), arms
//! exactly one fault per pool — fired by worker `<shard>` when it pops
//! its `<nth>` job (1-based, counted across restarts) — in the same
//! spirit as the governor's `PRESBURGER_FAULT`. The library reads no
//! environment variable for it; the `serve_stress` harness maps
//! `PRESBURGER_CHAOS` onto the config for operator-style drills.
//!
//! * `kill`  — the worker thread panics past its unwind boundary and
//!   dies (the supervisor must detect the crash and re-dispatch).
//! * `wedge` — the worker stalls holding the job, heartbeat frozen
//!   (the supervisor must detect the stall via the inflight watermark).
//! * `delay` — the worker sleeps briefly, then proceeds (must **not**
//!   trigger the supervisor; answers are unchanged).
//!
//! The injection point is after the job pop with no lock held and
//! before the request's unwind boundary, so a `kill` provably orphans
//! the popped job without poisoning any lock. The one-shot counter
//! lives in the [`Chaos`] value (not a process-global), so concurrent
//! pools — the stress harness runs many per process — each get their
//! own drill.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

/// What the armed chaos does to the worker (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosSite {
    /// Panic past the unwind boundary: the worker thread dies.
    Kill,
    /// Stall holding the job with the heartbeat frozen.
    Wedge,
    /// Sleep briefly, then process normally.
    Delay,
}

/// Panic payload for [`ChaosSite::Kill`], filtered off stderr by
/// [`install_chaos_hook`] the way governor [`Trip`]s are.
///
/// [`Trip`]: presburger_trace::govern::Trip
pub struct ChaosKill;

/// A parsed, armed chaos spec. Shared (`Arc`) by every shard of one
/// pool; fires at most once per pool.
pub struct Chaos {
    site: ChaosSite,
    shard: usize,
    nth: u64,
    popped: AtomicU64,
    fired: AtomicBool,
}

impl fmt::Debug for Chaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chaos")
            .field("site", &self.site)
            .field("shard", &self.shard)
            .field("nth", &self.nth)
            .field("fired", &self.fired.load(Ordering::Relaxed))
            .finish()
    }
}

impl Chaos {
    /// Parses `<site>:<shard>:<nth>` (site ∈ kill | wedge | delay,
    /// `nth` 1-based).
    pub fn parse(spec: &str) -> Result<Chaos, String> {
        let mut parts = spec.split(':');
        let site = match parts.next() {
            Some("kill") => ChaosSite::Kill,
            Some("wedge") => ChaosSite::Wedge,
            Some("delay") => ChaosSite::Delay,
            Some(other) => {
                return Err(format!(
                    "unknown chaos site {other:?} (expected kill, wedge or delay)"
                ))
            }
            None => return Err("empty chaos spec".to_string()),
        };
        let shard = parts
            .next()
            .ok_or_else(|| "chaos spec needs <site>:<shard>:<nth>".to_string())?
            .parse::<usize>()
            .map_err(|e| format!("bad chaos shard index: {e}"))?;
        let nth = parts
            .next()
            .ok_or_else(|| "chaos spec needs <site>:<shard>:<nth>".to_string())?
            .parse::<u64>()
            .map_err(|e| format!("bad chaos nth: {e}"))?;
        if nth == 0 {
            return Err("chaos nth is 1-based; 0 never fires".to_string());
        }
        if let Some(extra) = parts.next() {
            return Err(format!("trailing chaos spec part {extra:?}"));
        }
        Ok(Chaos {
            site,
            shard,
            nth,
            popped: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        })
    }

    /// Which shard the fault is armed on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Whether the fault has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// Called by a worker of shard `shard` after popping a job; returns
    /// the site to fire, at most once per pool.
    pub(crate) fn on_job(&self, shard: usize) -> Option<ChaosSite> {
        if shard != self.shard {
            return None;
        }
        let n = self.popped.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.nth && !self.fired.swap(true, Ordering::Relaxed) {
            Some(self.site)
        } else {
            None
        }
    }
}

/// Installs (once per process) a panic-hook filter that keeps
/// [`ChaosKill`] unwinds — deliberate, drill-only control flow — off
/// stderr. Every other panic reaches the previously installed hook.
pub(crate) fn install_chaos_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<ChaosKill>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_sites() {
        assert!(matches!(
            Chaos::parse("kill:0:1"),
            Ok(Chaos {
                site: ChaosSite::Kill,
                shard: 0,
                nth: 1,
                ..
            })
        ));
        assert!(matches!(
            Chaos::parse("wedge:3:7"),
            Ok(Chaos {
                site: ChaosSite::Wedge,
                shard: 3,
                nth: 7,
                ..
            })
        ));
        assert!(matches!(
            Chaos::parse("delay:1:2"),
            Ok(Chaos {
                site: ChaosSite::Delay,
                ..
            })
        ));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Chaos::parse("boom:0:1").is_err());
        assert!(Chaos::parse("kill").is_err());
        assert!(Chaos::parse("kill:0").is_err());
        assert!(Chaos::parse("kill:0:0").is_err());
        assert!(Chaos::parse("kill:x:1").is_err());
        assert!(Chaos::parse("kill:0:1:panic").is_err());
    }

    #[test]
    fn fires_exactly_once_on_the_nth_pop_of_its_shard() {
        let c = Chaos::parse("kill:1:3").unwrap();
        assert_eq!(c.on_job(0), None); // wrong shard
        assert_eq!(c.on_job(1), None); // 1st
        assert_eq!(c.on_job(1), None); // 2nd
        assert_eq!(c.on_job(1), Some(ChaosSite::Kill)); // 3rd
        assert!(c.fired());
        assert_eq!(c.on_job(1), None); // never again
        assert_eq!(c.on_job(1), None);
    }
}
