//! The online scheduling abstraction of §3.1.
//!
//! The global scheduler "monitors the stream of I/O calls and decides on the
//! fly which applications are allowed to perform I/O". An *event* is the
//! start or end of an I/O transfer (plus, in our simulator, releases and
//! burst-buffer level crossings). At each event the scheduler inspects the
//! current state — application efficiencies and the amount of I/O performed
//! — and, following its strategy, *favors* a subset of applications:
//! a favored application receives bandwidth `min(β·b, bw_avail)` where
//! `bw_avail` is what remains of `B` when its turn comes; the others are
//! stalled until the next event.
//!
//! A policy is a preference order over [`AppState`] snapshots fed to one
//! shared greedy grant loop, which guarantees every heuristic enforces
//! the two §2.1 capacity rules identically. Most policies express the
//! order as a per-application [`Rank`] (a class plus an `f64` key):
//! [`greedy_allocate_ranked`] then pops a heap of ranks only until `B` is
//! exhausted instead of sorting every pending application at every
//! event. [`OnlinePolicy::order`] + [`greedy_allocate`] is the allocating
//! reference path it must agree with bit for bit.

use iosched_model::{AppId, Bw, Time};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// A policy's preference for one pending application: lower ranks are
/// favored. Ranks compare by `class`, then by `key` in IEEE-754 total
/// order (`f64::total_cmp`), then by `AppId`, so every ranked order is a
/// deterministic function of the snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rank {
    /// Coarse group: every application of a lower class is served first.
    /// Bit 7 is reserved for [`crate::heuristics::Priority`].
    pub class: u8,
    /// Order within a class, ascending.
    pub key: f64,
}

/// Low bits of a packed rank that carry the pending index.
const INDEX_BITS: u32 = 56;

impl Rank {
    /// Rank by `key` alone (class 0).
    #[must_use]
    pub fn key(key: f64) -> Self {
        Self { class: 0, key }
    }

    /// `(class, key)` as one integer with the same order: the key maps
    /// through the IEEE-754 total-order bijection (flip all bits of
    /// negatives, set the sign bit of non-negatives), so integer order on
    /// the image is exactly `f64::total_cmp` on the key.
    fn ordinal(self) -> u128 {
        let b = self.key.to_bits();
        let image = if b >> 63 == 1 { !b } else { b | (1 << 63) };
        u128::from(self.class) << 64 | u128::from(image)
    }

    /// The ordinal with pending index `index` in the low bits. Pending
    /// indices ascend with `AppId` (the [`StateBuffer`] contract), so
    /// integer order on packed ranks is the full rank order, tie-break
    /// included, and the index comes back out of the low bits.
    fn packed(self, index: usize) -> u128 {
        debug_assert!(index < 1 << INDEX_BITS);
        self.ordinal() << INDEX_BITS | index as u128
    }
}

/// The pending index stored in a [`Rank::packed`] value.
fn unpack_index(packed: u128) -> usize {
    (packed & ((1 << INDEX_BITS) - 1)) as usize
}

/// Scheduler-visible snapshot of one application that currently wants to
/// perform I/O (it is either stalled waiting for a grant or mid-transfer).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AppState {
    /// Which application.
    pub id: AppId,
    /// `β(k)`: dedicated processors.
    pub procs: u64,
    /// Current dilation ratio `ρ̃(k)(t)/ρ(k)(t) ∈ [0, 1]` (1 = on schedule).
    pub dilation_ratio: f64,
    /// Current MaxSysEff key `β(k)·ρ̃(k)(t)`.
    pub syseff_key: f64,
    /// When this application last completed an instance's I/O transfer
    /// (its release time if it never has). RoundRobin's FCFS key.
    pub last_io_end: Time,
    /// When the current I/O request was issued (= when the compute chunk
    /// of the current instance ended). Strict-FCFS baselines order by this.
    pub io_requested_at: Time,
    /// True when the current transfer has already started (some bytes of
    /// the current instance were transferred). The Priority wrapper serves
    /// these applications first to preserve disk locality.
    pub started_io: bool,
    /// Maximum bandwidth this application can absorb: `min(β·b, B)`.
    pub max_bw: Bw,
}

/// Everything a policy may look at when re-allocating bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct SchedContext<'a> {
    /// Current time.
    pub now: Time,
    /// Total PFS bandwidth `B`.
    pub total_bw: Bw,
    /// Applications that want to perform I/O right now, in `AppId` order.
    pub pending: &'a [AppState],
    /// Congestion telemetry from the driving engine's tap, when one is
    /// attached (`None` on the initial allocation or under drivers
    /// without telemetry). The open-loop roster ignores it; the
    /// [`crate::control`] family closes its feedback loop on it.
    pub signal: Option<crate::control::CongestionSignal>,
}

/// Bandwidth grants decided at one event: application-level bandwidths
/// `β(k)·γ(k)`. Applications absent from `grants` are stalled (`γ = 0`).
///
/// **Invariant:** `grants` is sorted by ascending [`AppId`] with at most
/// one entry per application. [`greedy_allocate`] establishes it, the
/// in-tree policies that build grants directly emit pending order (which
/// is `AppId` order by the [`StateBuffer`] contract), and
/// [`Allocation::validate`] enforces it — so lookups can binary-search
/// and drivers can merge-walk grants against their own `AppId`-ordered
/// application lists instead of scanning per application.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// `(app, application-aggregate bandwidth)` pairs, sorted by `AppId`;
    /// at most one per app.
    pub grants: Vec<(AppId, Bw)>,
}

impl Allocation {
    /// An allocation granting nothing.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Granted bandwidth for `id` (zero if stalled). Binary search over
    /// the `AppId`-sorted grants.
    #[must_use]
    pub fn granted(&self, id: AppId) -> Bw {
        self.grants
            .binary_search_by_key(&id, |&(a, _)| a)
            .map_or(Bw::ZERO, |i| self.grants[i].1)
    }

    /// Total granted bandwidth.
    #[must_use]
    pub fn total(&self) -> Bw {
        self.grants.iter().map(|(_, bw)| *bw).sum()
    }

    /// Check the §2.1 capacity rules against a context: per-application
    /// `grant ≤ min(β·b, B)` and aggregate `Σ grants ≤ B`, plus the
    /// sortedness invariant documented on [`Allocation`]. Returns the
    /// first violation as a human-readable string.
    ///
    /// `ctx.pending` is in `AppId` order (the [`StateBuffer`] contract),
    /// so one merge walk over `grants` and `pending` checks ordering,
    /// duplicates and membership in `O(grants + pending)` instead of the
    /// per-grant linear scans a naive check would need.
    pub fn validate(&self, ctx: &SchedContext<'_>) -> Result<(), String> {
        let mut prev: Option<AppId> = None;
        let mut pi = 0usize;
        for &(id, bw) in &self.grants {
            match prev {
                Some(p) if p == id => return Err(format!("duplicate grant for {id}")),
                Some(p) if p > id => {
                    return Err(format!(
                        "grants not sorted by AppId ({p} precedes {id}); policies must \
                         emit AppId-ordered grants"
                    ));
                }
                _ => {}
            }
            prev = Some(id);
            while pi < ctx.pending.len() && ctx.pending[pi].id < id {
                pi += 1;
            }
            let Some(app) = ctx.pending.get(pi).filter(|a| a.id == id) else {
                return Err(format!("grant for non-pending {id}"));
            };
            if !bw.is_finite() || bw.get() < 0.0 {
                return Err(format!("non-finite or negative grant for {id}: {bw}"));
            }
            if bw.approx_gt(app.max_bw) {
                return Err(format!("{id} granted {bw} above its cap {}", app.max_bw));
            }
        }
        if self.total().approx_gt(ctx.total_bw) {
            return Err(format!(
                "aggregate grant {} exceeds B = {}",
                self.total(),
                ctx.total_bw
            ));
        }
        Ok(())
    }
}

/// Reusable arena for the [`AppState`] snapshots a scheduler consumes.
///
/// Every driver of an [`OnlinePolicy`] — the fluid simulator, the IOR
/// harness's scheduler thread — rebuilds the pending-application snapshot
/// at each event. Allocating a fresh `Vec<AppState>` per event dominates
/// the steady-state allocation profile of a simulation, so drivers keep
/// one `StateBuffer` alive and refill it in place: [`clear`] + [`push`]
/// reuse the existing capacity, and [`context`] borrows the snapshot as
/// the [`SchedContext`] handed to the policy.
///
/// The driver is responsible for pushing snapshots in `AppId` order
/// (policies tie-break on `AppId` and the shared grant loop assumes a
/// deterministic pending order).
///
/// [`clear`]: StateBuffer::clear
/// [`push`]: StateBuffer::push
/// [`context`]: StateBuffer::context
#[derive(Debug, Default)]
pub struct StateBuffer {
    states: Vec<AppState>,
}

impl StateBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the previous snapshot, keeping the allocation.
    pub fn clear(&mut self) {
        self.states.clear();
    }

    /// Append one application snapshot. Ids must strictly ascend within
    /// a snapshot (checked in debug builds).
    pub fn push(&mut self, state: AppState) {
        debug_assert!(
            self.states.last().is_none_or(|last| last.id < state.id),
            "StateBuffer ids must strictly ascend: {} pushed after {:?}",
            state.id,
            self.states.last().map(|last| last.id)
        );
        self.states.push(state);
    }

    /// The current snapshot.
    #[must_use]
    pub fn states(&self) -> &[AppState] {
        &self.states
    }

    /// Number of pending applications in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no application is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Borrow the snapshot as the context a policy allocates against.
    #[must_use]
    pub fn context(&self, now: Time, total_bw: Bw) -> SchedContext<'_> {
        self.context_with_signal(now, total_bw, None)
    }

    /// Borrow the snapshot as a context carrying a congestion signal
    /// (drivers with a telemetry tap — the fluid engine — hand the last
    /// observation to the policy through this).
    #[must_use]
    pub fn context_with_signal(
        &self,
        now: Time,
        total_bw: Bw,
        signal: Option<crate::control::CongestionSignal>,
    ) -> SchedContext<'_> {
        SchedContext {
            now,
            total_bw,
            pending: &self.states,
            signal,
        }
    }
}

/// Reusable workspace for the in-place allocation path
/// ([`OnlinePolicy::allocate_into`]): the output [`Allocation`] plus the
/// integer-keyed workspace the ranking helpers fill.
///
/// Rebuilding a preference order allocates per event and recomputes
/// ordering keys per comparison; at millions of events this dominates the
/// policy-side profile. Drivers keep one `AllocScratch` alive across
/// events (next to their [`StateBuffer`]) so a decision runs without
/// touching the heap: each application's rank is computed once into
/// `keyed` and the grants land in `alloc.grants`, both retaining their
/// capacity. The ranked grant loop [`greedy_allocate_ranked`] never
/// materializes a preference order; only the full-order paths
/// ([`OnlinePolicy::order_into`], [`order_into_by_key_asc`]) fill
/// `order`.
#[derive(Debug, Default)]
pub struct AllocScratch {
    /// The allocation decided by the last [`OnlinePolicy::allocate_into`].
    pub alloc: Allocation,
    /// Packed ranks ([`Rank::packed`]): the heap buffer of
    /// [`greedy_allocate_ranked`], the sort buffer of
    /// [`order_into_by_key_asc`].
    pub(crate) keyed: Vec<u128>,
    /// Preference order: indices into the pending slice, most-favored
    /// first.
    pub(crate) order: Vec<usize>,
}

impl AllocScratch {
    /// A fresh, empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The preference order filled by the last
    /// [`OnlinePolicy::order_into`] call.
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

/// An online scheduling strategy (§3.1).
///
/// A strategy is fundamentally a *preference order* over the pending
/// applications; the grant loop is shared by all of them, which
/// guarantees that every heuristic enforces the §2.1 capacity rules
/// identically. Implementations must be deterministic functions of the
/// context (ties broken by `AppId`), so simulations are reproducible.
///
/// A key order implements [`OnlinePolicy::rank`] and nothing else:
/// `order`, `allocate` and `allocate_into` derive from it. Other orders
/// implement `order` (and `allocate` when the grants are not the greedy
/// loop's), leaving `rank` at `None`.
pub trait OnlinePolicy: Send {
    /// Human-readable name used in reports ("maxsyseff", "priority-mindilation", …).
    fn name(&self) -> String;

    /// This policy's preference for one pending application when its
    /// order is a per-application key: pending applications are served
    /// in ascending [`Rank`], ties broken by `AppId`. A ranked policy
    /// must not override `allocate`, whose greedy grants the fused
    /// [`greedy_allocate_ranked`] reproduces. The default `None` marks an
    /// unranked policy.
    fn rank(&self, app: &AppState) -> Option<Rank> {
        let _ = app;
        None
    }

    /// Preference order: indices into `ctx.pending`, most-favored first.
    /// Must be a permutation of `0..ctx.pending.len()`. The default sorts
    /// by [`OnlinePolicy::rank`], ties by `AppId` (plain `AppId` order
    /// for an unranked policy).
    fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..ctx.pending.len()).collect();
        order.sort_by_key(|&i| {
            let app = &ctx.pending[i];
            (self.rank(app).map(Rank::ordinal), app.id)
        });
        order
    }

    /// Decide bandwidth grants for the pending applications by running the
    /// shared greedy grant loop over [`OnlinePolicy::order`]: the
    /// allocating reference path.
    fn allocate(&mut self, ctx: &SchedContext<'_>) -> Allocation {
        let order = self.order(ctx);
        greedy_allocate(ctx, &order)
    }

    /// Fill `scratch.order` with [`OnlinePolicy::order`]'s permutation.
    /// The default copies the allocating path's result; overrides must
    /// produce exactly the permutation `order` would.
    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        let order = self.order(ctx);
        scratch.order.clear();
        scratch.order.extend(order);
    }

    /// Allocation entry point for drivers that reuse buffers across
    /// events (the fluid engine drives this one): decide the grants into
    /// `scratch.alloc`, bit-identical to [`OnlinePolicy::allocate`] —
    /// drivers may use either entry point interchangeably. A ranked
    /// policy runs [`greedy_allocate_ranked`]; otherwise the default
    /// delegates to `allocate`.
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        if !greedy_allocate_ranked(ctx, scratch, |a| self.rank(a)) {
            scratch.alloc = self.allocate(ctx);
        }
    }

    /// Next instant (strictly after `now`) at which this policy wants to
    /// re-allocate even though no application event occurred. Event-driven
    /// policies (all of §3.1) never do — the default `None`. Timetable
    /// policies (periodic schedules replayed in the simulator) use this to
    /// wake the engine at reservation boundaries; a policy returning
    /// wakeups is also permitted to stall every pending application, since
    /// it is guaranteed to be consulted again.
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        let _ = now;
        None
    }
}

impl<P: OnlinePolicy + ?Sized> OnlinePolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn rank(&self, app: &AppState) -> Option<Rank> {
        (**self).rank(app)
    }
    fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
        (**self).order(ctx)
    }
    fn allocate(&mut self, ctx: &SchedContext<'_>) -> Allocation {
        (**self).allocate(ctx)
    }
    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        (**self).order_into(ctx, scratch);
    }
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        (**self).allocate_into(ctx, scratch);
    }
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        (**self).next_wakeup(now)
    }
}

/// The shared grant loop: walk `order` (application indices into
/// `ctx.pending`, most-favored first) and give each application
/// `min(max_bw, bw_avail)` until the PFS is saturated.
///
/// This is exactly the paper's "favoring application App(k) means that
/// App(k) is executed as fast as possible, with bandwidth
/// `min(b·β(k), bw_avail)`". The grants are returned in `AppId` order
/// (the [`Allocation`] invariant), not preference order — the preference
/// only decides *how much* each application gets.
#[must_use]
pub fn greedy_allocate(ctx: &SchedContext<'_>, order: &[usize]) -> Allocation {
    let mut remaining = ctx.total_bw;
    let mut grants = Vec::with_capacity(order.len());
    for &idx in order {
        if remaining.get() <= 0.0 || remaining.is_zero() {
            break;
        }
        let app = &ctx.pending[idx];
        let bw = app.max_bw.min(remaining);
        if bw.get() > 0.0 {
            grants.push((app.id, bw));
            remaining -= bw;
            remaining = remaining.snap_zero();
        }
    }
    grants.sort_unstable_by_key(|&(id, _)| id);
    Allocation { grants }
}

/// The shared grant loop fused with a lazy rank order: give pending
/// applications `min(max_bw, bw_avail)` in ascending `rank` until the
/// PFS is saturated, writing the grants into `scratch.alloc`.
///
/// Grants depend only on the prefix of the order consumed before
/// saturation, so instead of sorting every pending application the packed
/// ranks are heapified in place (O(n)) and popped only while bandwidth
/// remains: one pop per grant.
/// The same `min`/`-=`/`snap_zero` sequence runs on the same values in
/// the same order as [`greedy_allocate`] over the rank order, so the
/// grants are bit-identical to it. Relies on the [`StateBuffer`]
/// contract (pending `AppId`-ascending) for the tie-break.
///
/// Returns `false`, leaving `scratch.alloc` untouched, when nothing is
/// pending or `rank` returns `None` (an unranked policy).
pub fn greedy_allocate_ranked<F: FnMut(&AppState) -> Option<Rank>>(
    ctx: &SchedContext<'_>,
    scratch: &mut AllocScratch,
    mut rank: F,
) -> bool {
    // Complemented packed ranks, so the max-heap pops the lowest rank.
    scratch.keyed.clear();
    for (i, app) in ctx.pending.iter().enumerate() {
        let Some(r) = rank(app) else {
            return false;
        };
        scratch.keyed.push(!r.packed(i));
    }
    if scratch.keyed.is_empty() {
        return false;
    }
    // `From<Vec>` heapifies the buffer in place and `into_vec` hands it
    // back: nothing allocates.
    let mut heap = BinaryHeap::from(std::mem::take(&mut scratch.keyed));
    let grants = &mut scratch.alloc.grants;
    grants.clear();
    let mut remaining = ctx.total_bw;
    loop {
        if remaining.get() <= 0.0 || remaining.is_zero() {
            break;
        }
        let Some(top) = heap.pop() else {
            break;
        };
        let app = &ctx.pending[unpack_index(!top)];
        let bw = app.max_bw.min(remaining);
        if bw.get() > 0.0 {
            grants.push((app.id, bw));
            remaining -= bw;
            remaining = remaining.snap_zero();
        }
    }
    scratch.keyed = heap.into_vec();
    grants.sort_unstable_by_key(|&(id, _)| id);
    true
}

/// Fill `scratch.order` with the pending-app indices ordered by `key`
/// ascending, ties broken by pending index (`AppId` order under the
/// [`StateBuffer`] contract): the full-order path of policies
/// whose grants need every application's position (water-filling,
/// closed-loop control). Produces exactly [`order_by_key_asc`]'s
/// permutation — each key is computed once and sorted as a packed
/// integer ([`Rank::packed`]), so the hot comparison is free of indirect
/// loads and float compares.
pub fn order_into_by_key_asc<F: FnMut(&AppState) -> f64>(
    ctx: &SchedContext<'_>,
    scratch: &mut AllocScratch,
    mut key: F,
) {
    scratch.keyed.clear();
    scratch.keyed.extend(
        ctx.pending
            .iter()
            .enumerate()
            .map(|(i, a)| Rank::key(key(a)).packed(i)),
    );
    scratch.keyed.sort_unstable();
    scratch.order.clear();
    scratch
        .order
        .extend(scratch.keyed.iter().map(|&p| unpack_index(p)));
}

/// Sort helper: returns pending-app indices ordered by `key` ascending,
/// ties broken by `AppId` so every policy is deterministic.
#[must_use]
pub fn order_by_key_asc<F: FnMut(&AppState) -> f64>(
    ctx: &SchedContext<'_>,
    mut key: F,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ctx.pending.len()).collect();
    idx.sort_by(|&a, &b| {
        let (ka, kb) = (key(&ctx.pending[a]), key(&ctx.pending[b]));
        ka.total_cmp(&kb)
            .then_with(|| ctx.pending[a].id.cmp(&ctx.pending[b].id))
    });
    idx
}

/// Tiny fixtures for policy unit tests (used by this crate and by the
/// baseline/bench crates' test suites; not part of the stable API).
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Build a pending-app snapshot with sensible defaults for tests.
    #[must_use]
    pub fn app(id: usize, max_bw_gib: f64) -> AppState {
        AppState {
            id: AppId(id),
            procs: 100,
            dilation_ratio: 1.0,
            syseff_key: 100.0,
            last_io_end: Time::ZERO,
            io_requested_at: Time::ZERO,
            started_io: false,
            max_bw: Bw::gib_per_sec(max_bw_gib),
        }
    }

    /// Build a context over `pending` with total bandwidth `total_gib`.
    #[must_use]
    pub fn ctx(total_gib: f64, pending: &[AppState]) -> SchedContext<'_> {
        SchedContext {
            now: Time::secs(100.0),
            total_bw: Bw::gib_per_sec(total_gib),
            pending,
            signal: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{app, ctx};
    use super::*;

    #[test]
    fn greedy_grants_in_order_until_saturation() {
        let pending = [app(0, 6.0), app(1, 6.0), app(2, 6.0)];
        let c = ctx(10.0, &pending);
        let alloc = greedy_allocate(&c, &[0, 1, 2]);
        assert!(alloc.granted(AppId(0)).approx_eq(Bw::gib_per_sec(6.0)));
        assert!(alloc.granted(AppId(1)).approx_eq(Bw::gib_per_sec(4.0)));
        assert!(alloc.granted(AppId(2)).is_zero());
        alloc.validate(&c).unwrap();
    }

    #[test]
    fn greedy_respects_order_argument() {
        let pending = [app(0, 10.0), app(1, 10.0)];
        let c = ctx(10.0, &pending);
        let alloc = greedy_allocate(&c, &[1, 0]);
        assert!(alloc.granted(AppId(1)).approx_eq(Bw::gib_per_sec(10.0)));
        assert!(alloc.granted(AppId(0)).is_zero());
    }

    #[test]
    fn greedy_with_no_pending_grants_nothing() {
        let pending: [AppState; 0] = [];
        let c = ctx(10.0, &pending);
        let alloc = greedy_allocate(&c, &[]);
        assert!(alloc.grants.is_empty());
        assert!(alloc.total().is_zero());
    }

    #[test]
    fn allocation_lookup_and_total() {
        let alloc = Allocation {
            grants: vec![
                (AppId(0), Bw::gib_per_sec(2.0)),
                (AppId(3), Bw::gib_per_sec(1.0)),
            ],
        };
        assert!(alloc.granted(AppId(0)).approx_eq(Bw::gib_per_sec(2.0)));
        assert!(alloc.granted(AppId(1)).is_zero());
        assert!(alloc.total().approx_eq(Bw::gib_per_sec(3.0)));
    }

    #[test]
    fn validate_catches_overcommit() {
        let pending = [app(0, 6.0), app(1, 6.0)];
        let c = ctx(10.0, &pending);
        let alloc = Allocation {
            grants: vec![
                (AppId(0), Bw::gib_per_sec(6.0)),
                (AppId(1), Bw::gib_per_sec(6.0)),
            ],
        };
        assert!(alloc.validate(&c).is_err());
    }

    #[test]
    fn validate_catches_per_app_cap() {
        let pending = [app(0, 2.0)];
        let c = ctx(10.0, &pending);
        let alloc = Allocation {
            grants: vec![(AppId(0), Bw::gib_per_sec(3.0))],
        };
        assert!(alloc.validate(&c).is_err());
    }

    #[test]
    fn validate_catches_duplicates_and_strangers() {
        let pending = [app(0, 2.0)];
        let c = ctx(10.0, &pending);
        let dup = Allocation {
            grants: vec![
                (AppId(0), Bw::gib_per_sec(1.0)),
                (AppId(0), Bw::gib_per_sec(1.0)),
            ],
        };
        assert!(dup.validate(&c).is_err());
        let stranger = Allocation {
            grants: vec![(AppId(7), Bw::gib_per_sec(1.0))],
        };
        assert!(stranger.validate(&c).is_err());
    }

    #[test]
    fn greedy_returns_grants_in_app_id_order() {
        let pending = [app(0, 4.0), app(1, 4.0), app(2, 4.0)];
        let c = ctx(10.0, &pending);
        // Preference order 2, 0, 1 — grants still come back id-sorted.
        let alloc = greedy_allocate(&c, &[2, 0, 1]);
        let ids: Vec<usize> = alloc.grants.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        alloc.validate(&c).unwrap();
    }

    #[test]
    fn validate_rejects_unsorted_grants() {
        let pending = [app(0, 2.0), app(1, 2.0)];
        let c = ctx(10.0, &pending);
        let unsorted = Allocation {
            grants: vec![
                (AppId(1), Bw::gib_per_sec(1.0)),
                (AppId(0), Bw::gib_per_sec(1.0)),
            ],
        };
        let err = unsorted.validate(&c).unwrap_err();
        assert!(err.contains("sorted"), "unexpected error: {err}");
    }

    #[test]
    fn order_by_key_breaks_ties_by_id() {
        let pending = [app(2, 1.0), app(0, 1.0), app(1, 1.0)];
        let c = ctx(10.0, &pending);
        let order = order_by_key_asc(&c, |_| 0.0);
        let ids: Vec<usize> = order.iter().map(|&i| pending[i].id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn order_into_matches_the_allocating_helper() {
        // Key ties between non-adjacent applications: the scratch path
        // must reproduce the allocating helper's permutation exactly,
        // including the AppId tie-break (pending is AppId-ascending, the
        // StateBuffer contract the packed tie-break relies on).
        let mut pending = [app(0, 1.0), app(1, 1.0), app(2, 1.0), app(3, 1.0)];
        pending[0].dilation_ratio = 0.5;
        pending[3].dilation_ratio = 0.5;
        let c = ctx(10.0, &pending);
        let mut scratch = AllocScratch::new();
        order_into_by_key_asc(&c, &mut scratch, |a| a.dilation_ratio);
        assert_eq!(scratch.order(), order_by_key_asc(&c, |a| a.dilation_ratio));
    }

    #[test]
    fn greedy_into_is_bit_identical_to_greedy() {
        // Ranks put the preference order at 2, 0, 1; the ranked loop
        // must grant exactly what the reference loop grants over it.
        let mut pending = [app(0, 6.0), app(1, 6.0), app(2, 6.0)];
        for (a, key) in pending.iter_mut().zip([1.0, 2.0, -0.0]) {
            a.syseff_key = key;
        }
        let c = ctx(10.0, &pending);
        let mut scratch = AllocScratch::new();
        assert!(greedy_allocate_ranked(&c, &mut scratch, |a| Some(
            Rank::key(a.syseff_key)
        )));
        let reference = greedy_allocate(&c, &[2, 0, 1]);
        assert_eq!(scratch.alloc.grants.len(), reference.grants.len());
        for ((ia, ba), (ib, bb)) in scratch.alloc.grants.iter().zip(&reference.grants) {
            assert_eq!(ia, ib);
            assert_eq!(ba.get().to_bits(), bb.get().to_bits());
        }
    }

    #[test]
    fn default_allocate_into_delegates_to_allocate() {
        struct Fixed;
        impl OnlinePolicy for Fixed {
            fn name(&self) -> String {
                "fixed".into()
            }
            fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
                (0..ctx.pending.len()).rev().collect()
            }
        }
        let pending = [app(0, 6.0), app(1, 6.0)];
        let c = ctx(10.0, &pending);
        let mut scratch = AllocScratch::new();
        Fixed.allocate_into(&c, &mut scratch);
        assert_eq!(scratch.alloc, Fixed.allocate(&c));
        assert_eq!(Fixed.rank(&pending[0]), None);
        Fixed.order_into(&c, &mut scratch);
        assert_eq!(scratch.order(), Fixed.order(&c));
    }

    #[test]
    fn ranked_grants_stop_at_saturation_and_keep_class_order() {
        // Class dominates the key; the first two ranked applications
        // saturate B and the rest are never granted.
        struct Ranked;
        impl OnlinePolicy for Ranked {
            fn name(&self) -> String {
                "ranked".into()
            }
            fn rank(&self, app: &AppState) -> Option<Rank> {
                Some(Rank {
                    class: u8::from(app.id.0.is_multiple_of(2)),
                    key: -(app.id.0 as f64),
                })
            }
        }
        let pending: Vec<AppState> = (0..6).map(|i| app(i, 6.0)).collect();
        let c = ctx(10.0, &pending);
        let ids: Vec<usize> = Ranked.order(&c).iter().map(|&i| pending[i].id.0).collect();
        assert_eq!(ids, vec![5, 3, 1, 4, 2, 0]);
        let mut scratch = AllocScratch::new();
        Ranked.allocate_into(&c, &mut scratch);
        assert_eq!(scratch.alloc, Ranked.allocate(&c));
        let granted: Vec<usize> = scratch.alloc.grants.iter().map(|(id, _)| id.0).collect();
        assert_eq!(granted, vec![3, 5]);
        assert!(scratch
            .alloc
            .granted(AppId(3))
            .approx_eq(Bw::gib_per_sec(4.0)));
    }

    #[test]
    fn rank_ordinal_is_the_total_order() {
        let keys = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            2.0,
            f64::INFINITY,
        ];
        for w in keys.windows(2) {
            assert!(Rank::key(w[0]).ordinal() < Rank::key(w[1]).ordinal());
        }
        let high = Rank {
            class: 1,
            key: f64::NEG_INFINITY,
        };
        assert!(Rank::key(f64::INFINITY).ordinal() < high.ordinal());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascend")]
    fn state_buffer_rejects_out_of_order_ids() {
        let mut buf = StateBuffer::new();
        buf.push(app(1, 1.0));
        buf.push(app(1, 1.0));
    }
}
