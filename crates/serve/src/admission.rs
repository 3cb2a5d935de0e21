//! Deadline-aware admission control: priority lanes.
//!
//! # Why admission is its own layer
//!
//! The worker queue ([`crate::server`]) is a bounded queue: a flood of
//! bulk work can park a latency-sensitive request behind it, and a
//! request whose deadline expired while queued still burns a worker.
//! This module supplies the pure, deterministic scheduling the server
//! keeps in front of its workers:
//!
//! * **Priority lanes** ([`Lane`], [`LaneQueues`]) — requests carry an
//!   optional `prio=` override (`interactive` / `batch` / `background`,
//!   default `batch`); pops are strict-priority with an anti-starvation
//!   credit so a saturating interactive flood cannot park background
//!   work forever.
//!
//! Expired-request *eviction* (the other half of deadline-awareness)
//! lives in the server's admission/pop paths, which own the clocks and
//! the §4.6 bound fallback.
//!
//! See DESIGN.md §16 for the full architecture and rationale.

use std::collections::VecDeque;

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

/// Anti-starvation credit of the server's lanes: after this many
/// strict-priority pops that bypassed a waiting background request, the
/// next pop takes the background lane.
pub(crate) const BACKGROUND_CREDIT: u64 = 4;

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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn lane_names_and_wire_values_round_trip() {
        for lane in Lane::ALL {
            assert_eq!(Lane::parse(lane.name()), Some(lane));
            assert_eq!(Lane::from_wire(lane.wire()), Some(lane));
        }
        assert_eq!(Lane::parse("urgent"), None);
        assert_eq!(Lane::from_wire(3), None);
    }
}
