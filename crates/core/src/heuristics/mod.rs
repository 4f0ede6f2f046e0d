//! The online heuristics of §3.1.
//!
//! All four strategies share the same skeleton: a strategy-specific
//! [`crate::policy::Rank`] per pending application, served in ascending
//! rank by the shared greedy grant loop
//! ([`crate::policy::greedy_allocate_ranked`], which stops as soon as the
//! PFS is saturated). The [`Priority`] wrapper composes with any of them,
//! ranking applications that already started their current I/O above the
//! rest (disk locality on spinning disks — "solid-state drives do not
//! present the problem", §3.1).

mod factory;
mod max_syseff;
mod min_dilation;
mod min_max;
mod priority;
mod round_robin;

pub use factory::{standard_policies, BasePolicy, PolicyKind};
pub use max_syseff::MaxSysEff;
pub use min_dilation::MinDilation;
pub use min_max::MinMax;
pub use priority::Priority;
pub use round_robin::RoundRobin;
