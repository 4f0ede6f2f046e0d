//! Per-application state inside the fluid simulator, split hot/cold.
//!
//! The engine's event loop touches a handful of scalars per application
//! per event (phase tag, residual volume, granted rates, the policy-key
//! inputs). Keeping those in dense parallel vectors indexed by *slot* —
//! [`HotState`] — turns the per-event passes into linear walks over flat
//! arrays instead of pointer chases through `AppSpec`/`AppProgress`. The
//! cold remainder ([`AppRuntime`]: the immutable spec, the ρ̃/ρ prefix
//! bookkeeping, the instance counter) is only touched at instance
//! boundaries and retirement.
//!
//! Slots are recycled in every mode, so both sides grow with peak
//! *concurrency*, never with the roster or stream length.

use iosched_model::{AppProgress, AppSpec, Bw, Bytes, Platform, Time};

/// Execution phase of one application (reassembled view over
/// [`HotState`]'s parallel arrays).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// `now < r_k`.
    NotReleased,
    /// Computing the current instance; completes at the stored absolute
    /// time (compute is never preempted — resources are dedicated, §2.1).
    Computing {
        /// Absolute completion time of the compute chunk.
        done_at: Time,
    },
    /// The current instance's I/O: `remaining` bytes still to transfer at
    /// the currently granted rate (zero rate = stalled by the scheduler).
    Io {
        /// Bytes left in this instance's transfer.
        remaining: Bytes,
        /// Whether any byte of this instance was already transferred
        /// (drives the Priority heuristics' `started_io` flag).
        started: bool,
    },
    /// All instances completed.
    Finished,
}

/// Discriminant-only phase, stored densely in [`HotState::tag`]; the
/// payloads live in their own parallel arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseTag {
    /// `now < r_k`.
    NotReleased,
    /// Computing; completion instant in [`HotState::done_at`].
    Computing,
    /// Transferring; residual volume in [`HotState::remaining`].
    Io,
    /// All instances completed.
    Finished,
}

/// Cold per-application record: touched at instance boundaries and
/// retirement, never inside the per-event fluid passes.
#[derive(Debug, Clone)]
pub struct AppRuntime {
    /// Immutable description.
    pub spec: AppSpec,
    /// ρ̃/ρ accounting.
    pub progress: AppProgress,
    /// Index of the instance currently executing (or next to execute).
    pub instance: usize,
}

impl AppRuntime {
    /// Initialize at simulation start (`now = 0`).
    #[must_use]
    pub fn new(spec: AppSpec, platform: &Platform) -> Self {
        let progress = AppProgress::new(&spec, platform);
        Self {
            progress,
            instance: 0,
            spec,
        }
    }
}

/// Struct-of-arrays hot state, indexed by slot in lockstep with the
/// engine's cold `Vec<AppRuntime>`.
///
/// The three `key_*` columns cache [`AppProgress::key_parts`] — the
/// prefix sums every policy key is derived from. They change only when
/// an instance completes, so the per-event snapshot pass rebuilds ρ̃, ρ,
/// the dilation ratio and the syseff key from flat arrays with the same
/// operations on the same values as the `AppProgress` methods —
/// bit-identical, without touching the cold side.
#[derive(Debug, Default)]
pub struct HotState {
    /// Current phase discriminant.
    pub tag: Vec<PhaseTag>,
    /// `Io`: bytes left in the current transfer.
    pub remaining: Vec<Bytes>,
    /// `Io`: whether any byte of this instance was already transferred.
    pub started: Vec<bool>,
    /// `Computing`: absolute completion instant.
    pub done_at: Vec<Time>,
    /// Application-aggregate bandwidth granted at the last allocation.
    pub rate: Vec<Bw>,
    /// Effective delivered bandwidth (grant × interference factor).
    pub effective: Vec<Bw>,
    /// The application's id (slots are the access path, ids the
    /// identity).
    pub id: Vec<iosched_model::AppId>,
    /// Processor allocation β(k).
    pub procs: Vec<u64>,
    /// Card limit `β·b`, precomputed at install from the same operands
    /// the allocator previously used per event (`proc_bw * procs as
    /// f64`), hence bit-identical.
    pub card: Vec<Bw>,
    /// Release time `r_k`.
    pub release: Vec<Time>,
    /// When the application last completed an instance's I/O (its
    /// release time before any I/O) — RoundRobin's FCFS key.
    pub last_io_end: Vec<Time>,
    /// When the current I/O request was issued (entered `Io`).
    pub io_requested_at: Vec<Time>,
    /// Total bytes actually delivered (conservation checks).
    pub bytes_moved: Vec<Bytes>,
    /// `work_prefix[completed]` — ρ̃'s numerator.
    pub key_work_done: Vec<Time>,
    /// `work_prefix[upto]` — ρ's numerator.
    pub key_rho_work: Vec<Time>,
    /// `span_prefix[upto]` — ρ's denominator.
    pub key_rho_span: Vec<Time>,
    /// ρ itself: `key_rho_work / key_rho_span` (1.0 on an empty span).
    /// Both operands change only when an instance completes, so the
    /// division is hoisted out of the per-event snapshot pass — same
    /// operands, same operation, hence bit-identical.
    pub key_rho: Vec<f64>,
}

/// ρ from its cached key parts — the one place the hoisted division
/// lives (mirrors `AppProgress::rho` exactly).
fn rho_of(rho_work: Time, rho_span: Time) -> f64 {
    if rho_span.get() <= 0.0 {
        1.0
    } else {
        rho_work / rho_span
    }
}

impl HotState {
    /// Empty state with room for `n` slots.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            tag: Vec::with_capacity(n),
            remaining: Vec::with_capacity(n),
            started: Vec::with_capacity(n),
            done_at: Vec::with_capacity(n),
            rate: Vec::with_capacity(n),
            effective: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
            procs: Vec::with_capacity(n),
            card: Vec::with_capacity(n),
            release: Vec::with_capacity(n),
            last_io_end: Vec::with_capacity(n),
            io_requested_at: Vec::with_capacity(n),
            bytes_moved: Vec::with_capacity(n),
            key_work_done: Vec::with_capacity(n),
            key_rho_work: Vec::with_capacity(n),
            key_rho_span: Vec::with_capacity(n),
            key_rho: Vec::with_capacity(n),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tag.len()
    }

    /// True when no slot was installed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tag.is_empty()
    }

    /// Append a fresh slot for `rt` (initial values mirror the pre-split
    /// `AppRuntime::new`).
    pub fn push_app(&mut self, rt: &AppRuntime, platform: &Platform) -> usize {
        let slot = self.len();
        let release = rt.spec.release();
        let (work_done, rho_work, rho_span) = rt.progress.key_parts();
        self.tag.push(PhaseTag::NotReleased);
        self.remaining.push(Bytes::ZERO);
        self.started.push(false);
        self.done_at.push(Time::ZERO);
        self.rate.push(Bw::ZERO);
        self.effective.push(Bw::ZERO);
        self.id.push(rt.spec.id());
        self.procs.push(rt.spec.procs());
        self.card.push(platform.proc_bw * rt.spec.procs() as f64);
        self.release.push(release);
        self.last_io_end.push(release);
        self.io_requested_at.push(release);
        self.bytes_moved.push(Bytes::ZERO);
        self.key_work_done.push(work_done);
        self.key_rho_work.push(rho_work);
        self.key_rho_span.push(rho_span);
        self.key_rho.push(rho_of(rho_work, rho_span));
        slot
    }

    /// Reinstall a recycled slot for `rt`.
    pub fn reset_slot(&mut self, slot: usize, rt: &AppRuntime, platform: &Platform) {
        let release = rt.spec.release();
        let (work_done, rho_work, rho_span) = rt.progress.key_parts();
        self.tag[slot] = PhaseTag::NotReleased;
        self.remaining[slot] = Bytes::ZERO;
        self.started[slot] = false;
        self.done_at[slot] = Time::ZERO;
        self.rate[slot] = Bw::ZERO;
        self.effective[slot] = Bw::ZERO;
        self.id[slot] = rt.spec.id();
        self.procs[slot] = rt.spec.procs();
        self.card[slot] = platform.proc_bw * rt.spec.procs() as f64;
        self.release[slot] = release;
        self.last_io_end[slot] = release;
        self.io_requested_at[slot] = release;
        self.bytes_moved[slot] = Bytes::ZERO;
        self.key_work_done[slot] = work_done;
        self.key_rho_work[slot] = rho_work;
        self.key_rho_span[slot] = rho_span;
        self.key_rho[slot] = rho_of(rho_work, rho_span);
    }

    /// Refresh the cached policy-key inputs after an instance completed.
    pub fn refresh_keys(&mut self, slot: usize, progress: &AppProgress) {
        let (work_done, rho_work, rho_span) = progress.key_parts();
        self.key_work_done[slot] = work_done;
        self.key_rho_work[slot] = rho_work;
        self.key_rho_span[slot] = rho_span;
        self.key_rho[slot] = rho_of(rho_work, rho_span);
    }

    /// Begin `rt`'s current instance at time `now`: enter `Computing`
    /// (or the I/O phase directly when the instance has no compute
    /// part).
    pub fn start_instance(&mut self, slot: usize, rt: &AppRuntime, now: Time) {
        debug_assert!(rt.instance < rt.spec.instance_count());
        let inst = rt.spec.instance(rt.instance);
        if inst.work.get() > 0.0 {
            self.tag[slot] = PhaseTag::Computing;
            self.done_at[slot] = now + inst.work;
        } else {
            self.io_requested_at[slot] = now;
            self.tag[slot] = PhaseTag::Io;
            self.remaining[slot] = inst.vol;
            self.started[slot] = false;
        }
    }

    /// True when the slot currently wants PFS bandwidth.
    #[must_use]
    pub fn wants_io(&self, slot: usize) -> bool {
        self.tag[slot] == PhaseTag::Io
    }

    /// True once all instances completed.
    #[must_use]
    pub fn is_finished(&self, slot: usize) -> bool {
        self.tag[slot] == PhaseTag::Finished
    }

    /// Reassemble the enum view of a slot's phase.
    #[must_use]
    pub fn phase(&self, slot: usize) -> Phase {
        match self.tag[slot] {
            PhaseTag::NotReleased => Phase::NotReleased,
            PhaseTag::Computing => Phase::Computing {
                done_at: self.done_at[slot],
            },
            PhaseTag::Io => Phase::Io {
                remaining: self.remaining[slot],
                started: self.started[slot],
            },
            PhaseTag::Finished => Phase::Finished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::Platform;

    fn platform() -> Platform {
        Platform::new("t", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0))
    }

    fn install(spec: AppSpec) -> (AppRuntime, HotState, usize) {
        let p = platform();
        let rt = AppRuntime::new(spec, &p);
        let mut hot = HotState::default();
        let slot = hot.push_app(&rt, &p);
        (rt, hot, slot)
    }

    #[test]
    fn new_app_is_not_released() {
        let spec = AppSpec::periodic(0, Time::secs(5.0), 10, Time::secs(1.0), Bytes::gib(1.0), 2);
        let (_, hot, slot) = install(spec);
        assert_eq!(hot.phase(slot), Phase::NotReleased);
        assert!(hot.last_io_end[slot].approx_eq(Time::secs(5.0)));
        assert!(!hot.wants_io(slot));
        assert!(!hot.is_finished(slot));
    }

    #[test]
    fn start_instance_enters_compute() {
        let spec = AppSpec::periodic(0, Time::ZERO, 10, Time::secs(3.0), Bytes::gib(1.0), 1);
        let (rt, mut hot, slot) = install(spec);
        hot.start_instance(slot, &rt, Time::secs(2.0));
        assert_eq!(
            hot.phase(slot),
            Phase::Computing {
                done_at: Time::secs(5.0)
            }
        );
    }

    #[test]
    fn zero_work_instance_goes_straight_to_io() {
        let spec = AppSpec::periodic(0, Time::ZERO, 10, Time::ZERO, Bytes::gib(2.0), 1);
        let (rt, mut hot, slot) = install(spec);
        hot.start_instance(slot, &rt, Time::ZERO);
        assert!(hot.wants_io(slot));
        match hot.phase(slot) {
            Phase::Io { remaining, started } => {
                assert!(remaining.approx_eq(Bytes::gib(2.0)));
                assert!(!started);
            }
            _ => panic!("expected Io phase"),
        }
    }

    #[test]
    fn recycled_slot_matches_a_fresh_install() {
        let p = platform();
        let a = AppRuntime::new(
            AppSpec::periodic(0, Time::ZERO, 10, Time::secs(1.0), Bytes::gib(1.0), 1),
            &p,
        );
        let b = AppRuntime::new(
            AppSpec::periodic(1, Time::secs(3.0), 20, Time::secs(2.0), Bytes::gib(2.0), 2),
            &p,
        );
        let mut fresh = HotState::default();
        let fslot = fresh.push_app(&b, &p);
        let mut recycled = HotState::default();
        let rslot = recycled.push_app(&a, &p);
        recycled.start_instance(rslot, &a, Time::ZERO);
        recycled.reset_slot(rslot, &b, &p);
        assert_eq!(recycled.phase(rslot), fresh.phase(fslot));
        assert_eq!(recycled.id[rslot], fresh.id[fslot]);
        assert_eq!(recycled.procs[rslot], fresh.procs[fslot]);
        assert_eq!(
            recycled.card[rslot].get().to_bits(),
            fresh.card[fslot].get().to_bits()
        );
        assert!(recycled.last_io_end[rslot].approx_eq(Time::secs(3.0)));
    }
}
