//! The span stack and explain-event channel.
//!
//! A [`span`] opens a timed region; dropping the returned guard closes
//! it. Open spans nest into a tree that can be rendered as indented
//! text ([`SpanTree::render`]) or JSON ([`SpanTree::to_json`]).
//! [`explain`] attaches a human-readable derivation step to the
//! innermost open span (or to the root when none is open).
//!
//! Everything here is gated on [`crate::tracing`]: when tracing is off
//! the guards are inert and the closures passed to [`span_dyn`] /
//! [`explain`] are never called, so no formatting or allocation occurs.

use crate::json::{array, JsonObject};
use std::borrow::Cow;
use std::cell::RefCell;
use std::time::{Duration, Instant};

struct Node {
    label: Cow<'static, str>,
    started: Instant,
    elapsed: Option<Duration>,
    children: Vec<usize>,
    events: Vec<String>,
}

#[derive(Default)]
struct Collector {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<usize>,
    /// Events fired while no span was open.
    orphan_events: Vec<String>,
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::default();
}

/// Closes its span when dropped. Inert when tracing was off at open
/// time.
pub struct SpanGuard {
    index: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            COLLECTOR.with(|c| {
                let mut c = c.borrow_mut();
                let node = &mut c.nodes[index];
                node.elapsed = Some(node.started.elapsed());
                // Tolerate out-of-order drops: pop through the stack
                // until this span's frame is gone.
                while let Some(top) = c.stack.pop() {
                    if top == index {
                        break;
                    }
                }
            });
        }
    }
}

fn open(label: Cow<'static, str>) -> SpanGuard {
    let index = COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let index = c.nodes.len();
        c.nodes.push(Node {
            label,
            started: Instant::now(),
            elapsed: None,
            children: Vec::new(),
            events: Vec::new(),
        });
        match c.stack.last().copied() {
            Some(parent) => c.nodes[parent].children.push(index),
            None => c.roots.push(index),
        }
        c.stack.push(index);
        index
    });
    SpanGuard { index: Some(index) }
}

/// Opens a timed span with a static label. Returns an inert guard when
/// tracing is off.
pub fn span(label: &'static str) -> SpanGuard {
    if !crate::tracing() {
        return SpanGuard { index: None };
    }
    open(Cow::Borrowed(label))
}

/// Opens a timed span whose label is built lazily — `label()` is only
/// called when tracing is on.
pub fn span_dyn(label: impl FnOnce() -> String) -> SpanGuard {
    if !crate::tracing() {
        return SpanGuard { index: None };
    }
    open(Cow::Owned(label()))
}

/// Records a derivation step on the innermost open span. The message
/// closure is only called when tracing is on.
pub fn explain(message: impl FnOnce() -> String) {
    if !crate::tracing() {
        return;
    }
    let msg = message();
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        match c.stack.last().copied() {
            Some(top) => c.nodes[top].events.push(msg),
            None => c.orphan_events.push(msg),
        }
    });
}

/// Discards all collected spans and events on this thread.
pub fn reset() {
    COLLECTOR.with(|c| *c.borrow_mut() = Collector::default());
}

/// Takes the completed span tree collected so far on this thread,
/// leaving the collector empty. Spans still open are reported with
/// their elapsed-so-far time.
pub fn take_tree() -> SpanTree {
    COLLECTOR.with(|c| {
        let collector = std::mem::take(&mut *c.borrow_mut());
        let mut tree = SpanTree {
            roots: Vec::new(),
            orphan_events: collector.orphan_events.clone(),
        };
        fn build(nodes: &[Node], index: usize) -> SpanRecord {
            let n = &nodes[index];
            SpanRecord {
                label: n.label.clone().into_owned(),
                elapsed: n.elapsed.unwrap_or_else(|| n.started.elapsed()),
                events: n.events.clone(),
                children: n.children.iter().map(|&k| build(nodes, k)).collect(),
            }
        }
        for &r in &collector.roots {
            tree.roots.push(build(&collector.nodes, r));
        }
        tree
    })
}

/// One completed span: label, wall time, derivation events, children.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// What the span measured.
    pub label: String,
    /// Wall-clock time between open and close.
    pub elapsed: Duration,
    /// Explain events recorded while this span was innermost.
    pub events: Vec<String>,
    /// Nested spans, in open order.
    pub children: Vec<SpanRecord>,
}

/// A forest of completed spans (plus events fired outside any span).
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    /// Top-level spans, in open order.
    pub roots: Vec<SpanRecord>,
    /// Explain events recorded while no span was open.
    pub orphan_events: Vec<String>,
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 100_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 100_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

impl SpanTree {
    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty() && self.orphan_events.is_empty()
    }

    /// Renders the forest as an indented text tree, two spaces per
    /// level, events prefixed with `·`.
    pub fn render(&self) -> String {
        fn rec(out: &mut String, node: &SpanRecord, depth: usize) {
            let pad = "  ".repeat(depth);
            out.push_str(&format!(
                "{pad}{}  [{}]\n",
                node.label,
                fmt_duration(node.elapsed)
            ));
            for e in &node.events {
                out.push_str(&format!("{pad}  · {e}\n"));
            }
            for ch in &node.children {
                rec(out, ch, depth + 1);
            }
        }
        let mut out = String::new();
        for e in &self.orphan_events {
            out.push_str(&format!("· {e}\n"));
        }
        for r in &self.roots {
            rec(&mut out, r, 0);
        }
        out
    }

    /// Serializes the forest as a JSON array of span objects
    /// (`label`, `micros`, `events`, `children`).
    pub fn to_json(&self) -> String {
        fn rec(node: &SpanRecord) -> String {
            let mut o = JsonObject::new();
            o.field_str("label", &node.label);
            o.field_f64("micros", node.elapsed.as_secs_f64() * 1e6);
            o.field_raw(
                "events",
                &array(
                    node.events
                        .iter()
                        .map(|e| format!("\"{}\"", crate::json::escape(e))),
                ),
            );
            o.field_raw("children", &array(node.children.iter().map(rec)));
            o.finish()
        }
        array(self.roots.iter().map(rec))
    }
}
