//! # iosched-core
//!
//! The scheduling contribution of *"Scheduling the I/O of HPC applications
//! under congestion"* (IPDPS 2015):
//!
//! * the **online scheduler** abstraction of §3.1 ([`policy::OnlinePolicy`])
//!   and the paper's four event-driven heuristics — [`heuristics::RoundRobin`],
//!   [`heuristics::MinDilation`], [`heuristics::MaxSysEff`],
//!   [`heuristics::MinMax`] — plus the [`heuristics::Priority`] wrapper that
//!   never interrupts an application that already started its I/O (disk
//!   locality, §3.1);
//! * the **periodic scheduler** of §3.2: bandwidth profiles over one period
//!   ([`periodic::BandwidthProfile`]), greedy contiguous insertion
//!   ([`periodic::ScheduleBuilder`]), the two insertion heuristics
//!   Insert-In-Schedule-Throu / Insert-In-Schedule-Cong
//!   ([`periodic::InsertionHeuristic`]) and the `(1+ε)` period search
//!   ([`periodic::PeriodSearch`]);
//! * the **uncoordinated baselines** the paper compares against
//!   ([`baselines::FairShare`], [`baselines::Fcfs`]) — hosted here (and
//!   re-exported by `iosched-baselines`) so the roster below can build
//!   them;
//! * the **scenario-aware policy registry** ([`registry::PolicyFactory`]):
//!   one serializable roster spanning the online heuristics, the
//!   baselines and the offline periodic schedules, with a two-stage
//!   parse-name → instantiate-for-scenario build
//!   (`build(&Platform, &[AppSpec])`) so policies that precompute
//!   per-workload state — a periodic timetable — are first-class roster
//!   members;
//! * the **adaptive control family** ([`control`]): a PI feedback loop
//!   over the congestion telemetry a driving engine hands to policies
//!   through [`policy::SchedContext::signal`] — utilization-setpoint
//!   tracking, token-bucket per-application throttles, registered in the
//!   roster under the `control:pi[:kp=..][:ki=..][:set=..][:win=..]`
//!   grammar;
//! * the **NP-completeness machinery** of Theorem 1: an executable
//!   3-Partition reduction with a brute-force reference solver
//!   ([`three_partition`]).

pub mod baselines;
pub mod control;
pub mod heuristics;
pub mod periodic;
pub mod policy;
pub mod registry;
pub mod three_partition;

pub use baselines::{FairShare, Fcfs};
pub use control::{CongestionSignal, ControlPolicy, PiController, TokenBucket};
pub use heuristics::{
    standard_policies, BasePolicy, MaxSysEff, MinDilation, MinMax, PolicyKind, Priority, RoundRobin,
};
pub use policy::{Allocation, AppState, OnlinePolicy, Rank, SchedContext};
pub use registry::{ControlFactory, PeriodicFactory, PolicyFactory};
