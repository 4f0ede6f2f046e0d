//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside the program: the benchmark stamps the
//! start and end of each of its own calls into a crate's public
//! functions. Each span has a name (`<layer>.<call>`), a start, an end
//! and a parent; every span of one traced operation carries the id of
//! that operation's root span. Calls too frequent to record one by one
//! (policy allocations) are recorded as one aggregate child span per
//! parent whose duration is their summed busy time and whose `calls`
//! counts them. Spans stay in memory and are written out when the run
//! ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id.
    pub id: u32,
    /// Id of the span that caused this one.
    pub parent: Option<u32>,
    /// Id of the root span of the traced operation.
    pub run: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (for an aggregate: start plus the summed busy time).
    pub end_ns: u64,
    /// Calls covered (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span sink.
pub struct Recorder {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span: its id is known before its children are recorded.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The span's id (parent of anything recorded under it).
    pub id: u32,
    parent: Option<u32>,
    run: u32,
    name: &'static str,
    start_ns: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a root span: a new traced operation.
    pub fn root(&self, name: &'static str) -> Open {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent: None,
            run: id,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Open a child span of `parent`.
    pub fn child(&self, parent: &Open, name: &'static str) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: Some(parent.id),
            run: parent.run,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close an open span now.
    pub fn close(&self, open: Open) {
        let end_ns = self.now_ns();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            run: open.run,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            calls: 1,
        });
    }

    /// Record `calls` calls under `parent` that were busy `busy_ns` in
    /// total, as one aggregate child span.
    pub fn aggregate(&self, parent: &Open, name: &'static str, calls: u64, busy_ns: u64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: Some(parent.id),
            run: parent.run,
            name,
            start_ns: parent.start_ns,
            end_ns: parent.start_ns + busy_ns,
            calls,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(span);
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a span writer panicked").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the children's durations.
    pub self_ns: u64,
}

/// Per-name totals with self time (a span's duration minus its
/// children's; children never outlast their parent here, so this is the
/// part of the interval they do not cover).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"id":{},"parent":{parent},"run":{},"name":"{}","start_ns":{},"end_ns":{},"calls":{}}}"#,
            s.id, s.run, s.name, s.start_ns, s.end_ns, s.calls
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let rec = Recorder::default();
        let root = rec.root("bench.campaign");
        let sim = rec.child(&root, "sim.simulate");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.aggregate(&sim, "core.allocate", 10, 500_000);
        rec.close(sim);
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.run == root.id));
        let t = totals(&spans);
        let sim_t = t["sim.simulate"];
        assert_eq!(sim_t.self_ns, sim_t.total_ns - 500_000);
        assert_eq!(
            spans
                .iter()
                .find(|s| s.name == "core.allocate")
                .map(|s| s.calls),
            Some(10)
        );
        assert_eq!(
            t["bench.campaign"].self_ns,
            t["bench.campaign"].total_ns - sim_t.total_ns
        );
        assert_eq!(to_jsonl(&spans).lines().count(), 3);
    }
}
