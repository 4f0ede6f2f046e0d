//! Timing adaptor for the policy layer: wraps the policy that
//! `PolicyFactory::build` returns, forwards every `OnlinePolicy` method
//! unchanged and times each allocation from outside the policy.

use crate::stats::NsHist;
use iosched_core::policy::AllocScratch;
use iosched_core::{Allocation, OnlinePolicy, SchedContext};
use iosched_model::Time;
use std::time::Instant;

/// What the adaptor measured.
#[derive(Debug, Clone, Default)]
pub struct AllocStats {
    /// Allocation decisions (`allocate` + `allocate_into` calls).
    pub calls: u64,
    /// Time spent inside them.
    pub busy_ns: u64,
    /// Summed pending-set size over the calls.
    pub pending_sum: u64,
    /// Per-call durations.
    pub hist: NsHist,
}

impl AllocStats {
    fn record(&mut self, started: Instant, pending: usize) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        self.busy_ns += ns;
        self.pending_sum += pending as u64;
        self.hist.record(ns);
    }

    /// Fold another adaptor's measurements into this one.
    pub fn merge(&mut self, other: &Self) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.pending_sum += other.pending_sum;
        self.hist.merge(&other.hist);
    }
}

/// An `OnlinePolicy` that forwards to `inner` and times its allocations.
/// Observation only: every return value is the inner policy's.
pub struct Timed<P> {
    inner: P,
    /// Measurements so far.
    pub stats: AllocStats,
}

impl<P: OnlinePolicy> Timed<P> {
    /// Wrap `inner`.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            stats: AllocStats::default(),
        }
    }
}

impl<P: OnlinePolicy> OnlinePolicy for Timed<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
        self.inner.order(ctx)
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> Allocation {
        let started = Instant::now();
        let alloc = self.inner.allocate(ctx);
        self.stats.record(started, ctx.pending.len());
        alloc
    }

    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        self.inner.order_into(ctx, scratch);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        let started = Instant::now();
        self.inner.allocate_into(ctx, scratch);
        self.stats.record(started, ctx.pending.len());
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.inner.next_wakeup(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::{AppId, Bw};

    /// Counts each method it receives and answers with recognizable values.
    #[derive(Default)]
    struct Probe {
        calls: [u32; 4],
    }

    fn marker() -> Allocation {
        Allocation {
            grants: vec![(AppId(7), Bw::gib_per_sec(1.5))],
        }
    }

    impl OnlinePolicy for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn order(&mut self, _: &SchedContext<'_>) -> Vec<usize> {
            self.calls[0] += 1;
            vec![2, 0, 1]
        }
        fn allocate(&mut self, _: &SchedContext<'_>) -> Allocation {
            self.calls[1] += 1;
            marker()
        }
        fn order_into(&mut self, _: &SchedContext<'_>, scratch: &mut AllocScratch) {
            self.calls[2] += 1;
            scratch.alloc = Allocation::empty();
        }
        fn allocate_into(&mut self, _: &SchedContext<'_>, scratch: &mut AllocScratch) {
            self.calls[3] += 1;
            scratch.alloc = marker();
        }
        fn next_wakeup(&self, now: Time) -> Option<Time> {
            Some(now + Time::secs(5.0))
        }
    }

    #[test]
    fn adaptor_forwards_every_method_and_times_allocations() {
        let ctx = SchedContext {
            now: Time::secs(1.0),
            total_bw: Bw::gib_per_sec(10.0),
            pending: &[],
            signal: None,
        };
        let mut timed = Timed::new(Probe::default());
        let mut scratch = AllocScratch::new();

        assert_eq!(timed.name(), "probe");
        assert_eq!(timed.order(&ctx), vec![2, 0, 1]);
        assert_eq!(timed.allocate(&ctx), marker());
        scratch.alloc = marker();
        timed.order_into(&ctx, &mut scratch);
        assert_eq!(scratch.alloc, Allocation::empty());
        timed.allocate_into(&ctx, &mut scratch);
        assert_eq!(scratch.alloc, marker());
        assert_eq!(timed.next_wakeup(Time::secs(2.0)), Some(Time::secs(7.0)));

        // Each method reached the inner policy exactly once …
        assert_eq!(timed.inner.calls, [1, 1, 1, 1]);
        // … and only the two allocation entry points were timed.
        assert_eq!(timed.stats.calls, 2);
        assert_eq!(timed.stats.hist.count(), 2);
        assert_eq!(timed.stats.pending_sum, 0);
    }
}
