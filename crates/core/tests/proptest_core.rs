//! Property tests for the scheduling core: every policy's allocation
//! always satisfies the §2.1 capacity rules, the in-place entry point the
//! engine drives is bit-identical to the allocating one, ranked orders
//! match their comparator definitions, the Priority wrapper is a stable
//! partition of its inner order, the bandwidth profile never
//! overcommits, and random 3-Partition instances round-trip.

use iosched_core::heuristics::{MinMax, PolicyKind};
use iosched_core::periodic::BandwidthProfile;
use iosched_core::policy::{AllocScratch, AppState, OnlinePolicy, SchedContext};
use iosched_core::three_partition::ThreePartition;
use iosched_core::{CongestionSignal, ControlPolicy, FairShare, Fcfs};
use iosched_model::{AppId, Bw, Bytes, Time};
use proptest::prelude::*;

fn arb_app_state(id: usize) -> impl Strategy<Value = AppState> {
    (
        1u64..5_000,
        0.0f64..1.0,
        0.0f64..5_000.0,
        0.0f64..1_000.0,
        0.0f64..1_000.0,
        any::<bool>(),
        0.1f64..64.0,
    )
        .prop_map(
            move |(procs, ratio, key, last, req, started, max_bw)| AppState {
                id: AppId(id),
                procs,
                dilation_ratio: ratio,
                syseff_key: key,
                last_io_end: Time::secs(last),
                io_requested_at: Time::secs(req),
                started_io: started,
                max_bw: Bw::gib_per_sec(max_bw),
            },
        )
}

fn arb_pending() -> impl Strategy<Value = Vec<AppState>> {
    (1usize..20).prop_flat_map(|n| (0..n).map(arb_app_state).collect::<Vec<_>>())
}

/// A snapshot whose fields come from tiny value sets, so ordering keys
/// tie heavily (`dilation_ratio` pinned at 1.0, equal `last_io_end` and
/// `io_requested_at`) and include ±0.0 (`syseff_key` of ±0.0 makes the
/// MaxSysEff key ∓0.0) and zero-bandwidth applications.
fn arb_tied_app(id: usize) -> impl Strategy<Value = AppState> {
    (
        0usize..5,
        0usize..5,
        0usize..3,
        0usize..3,
        any::<bool>(),
        0usize..5,
        1u64..3_000,
    )
        .prop_map(move |(r, k, l, q, started, b, procs)| AppState {
            id: AppId(id),
            procs,
            dilation_ratio: [1.0, 1.0, 0.25, 0.0, -0.0][r],
            syseff_key: [0.0, -0.0, 50.0, 50.0, 1e4][k],
            last_io_end: Time::secs([0.0, 0.0, 7.5][l]),
            io_requested_at: Time::secs([3.0, 3.0, 0.0][q]),
            started_io: started,
            max_bw: Bw::gib_per_sec([0.0, 0.1, 0.7, 8.0, 64.0][b]),
        })
}

/// Up to 64 tied snapshots in `AppId` order (the `StateBuffer` contract).
fn arb_tied_pending() -> impl Strategy<Value = Vec<AppState>> {
    (0usize..=64).prop_flat_map(|n| (0..n).map(arb_tied_app).collect::<Vec<_>>())
}

/// `B` relative to the pending demand: zero, saturated (below demand),
/// under-saturated (above demand), or the caps of the first three
/// applications summed in reverse (an exact saturation that leaves
/// round-off residue for `snap_zero` to clear).
fn total_bw_for(pending: &[AppState], mode: usize, u: f64) -> Bw {
    let demand: f64 = pending.iter().map(|a| a.max_bw.as_gib_per_sec()).sum();
    Bw::gib_per_sec(match mode {
        0 => 0.0,
        1 => demand * u,
        2 => demand * (1.0 + u) + 1.0,
        _ => pending
            .iter()
            .take(3)
            .rev()
            .map(|a| a.max_bw.as_gib_per_sec())
            .sum(),
    })
}

/// Fresh instances of every policy the engine may drive through
/// `allocate_into` on a closed roster: the Fig. 6 roster plus the
/// baselines and the closed-loop controller.
fn engine_roster() -> Vec<Box<dyn OnlinePolicy>> {
    let mut roster: Vec<Box<dyn OnlinePolicy>> = PolicyKind::fig6_roster()
        .iter()
        .map(PolicyKind::build)
        .collect();
    roster.push(Box::new(Fcfs));
    roster.push(Box::new(FairShare));
    roster.push(Box::new(ControlPolicy::pi_default()));
    roster
}

proptest! {
    /// The entry point the engine drives (`allocate_into`, reusing one
    /// scratch across policies as the engine reuses it across events) is
    /// bit-identical to the allocating `allocate` on fresh instances.
    #[test]
    fn allocate_into_is_bit_identical_to_allocate(
        pending in arb_tied_pending(),
        mode in 0usize..4,
        u in 0.0f64..1.0,
        signal in (any::<bool>(), 0.0f64..1.5, 0.0f64..4.0),
    ) {
        let (with_signal, utilization, contention) = signal;
        let ctx = SchedContext {
            now: Time::secs(1_000.0),
            total_bw: total_bw_for(&pending, mode, u),
            pending: &pending,
            signal: with_signal.then_some(CongestionSignal {
                utilization,
                contention,
                backlog: Bytes::ZERO,
                pending: pending.len(),
            }),
        };
        let mut scratch = AllocScratch::new();
        for (mut reference, mut driven) in engine_roster().into_iter().zip(engine_roster()) {
            let expected = reference.allocate(&ctx);
            driven.allocate_into(&ctx, &mut scratch);
            let got = &scratch.alloc.grants;
            let name = reference.name();
            prop_assert_eq!(got.len(), expected.grants.len(), "{}: grant count", name);
            for (&(ia, ba), &(ib, bb)) in got.iter().zip(&expected.grants) {
                prop_assert_eq!(ia, ib, "{}: granted ids differ", name);
                prop_assert_eq!(
                    ba.get().to_bits(),
                    bb.get().to_bits(),
                    "{}: grant of {} differs ({} vs {})",
                    name,
                    ia,
                    ba,
                    bb
                );
            }
            scratch.alloc.validate(&ctx).map_err(TestCaseError::fail)?;
        }
    }

    /// For every ranked policy, sorting the pending indices by `rank`
    /// (class, then `f64::total_cmp` on the key, then `AppId`) reproduces
    /// `order()` exactly.
    #[test]
    fn sorting_by_rank_reproduces_order(pending in arb_tied_pending()) {
        let ctx = SchedContext {
            now: Time::secs(10.0),
            total_bw: Bw::gib_per_sec(10.0),
            pending: &pending,
            signal: None,
        };
        let mut ranked = engine_roster();
        ranked.truncate(PolicyKind::fig6_roster().len() + 1); // roster + fcfs
        for mut policy in ranked {
            let rank = |i: usize| policy.rank(&pending[i]).expect("ranked policy");
            let mut by_rank: Vec<usize> = (0..pending.len()).collect();
            by_rank.sort_by(|&x, &y| {
                let (rx, ry) = (rank(x), rank(y));
                rx.class
                    .cmp(&ry.class)
                    .then(rx.key.total_cmp(&ry.key))
                    .then(pending[x].id.cmp(&pending[y].id))
            });
            let name = policy.name();
            prop_assert_eq!(by_rank, policy.order(&ctx), "{} order", name);
        }
    }

    /// MinMax-γ's rank reproduces the §3.1 definition as a comparator:
    /// applications below γ first (most dilated first), the rest by
    /// descending `β·ρ̃`, ties by `AppId`.
    #[test]
    fn minmax_rank_matches_the_threshold_comparator(
        pending in arb_tied_pending(),
        gamma in 0.0f64..1.0,
    ) {
        let ctx = SchedContext {
            now: Time::secs(10.0),
            total_bw: Bw::gib_per_sec(10.0),
            pending: &pending,
            signal: None,
        };
        let mut reference: Vec<usize> = (0..pending.len()).collect();
        reference.sort_by(|&x, &y| {
            let (ax, ay) = (&pending[x], &pending[y]);
            let (bx, by) = (ax.dilation_ratio < gamma, ay.dilation_ratio < gamma);
            by.cmp(&bx)
                .then_with(|| match (bx, by) {
                    (true, true) => ax.dilation_ratio.total_cmp(&ay.dilation_ratio),
                    _ => ay.syseff_key.total_cmp(&ax.syseff_key),
                })
                .then_with(|| ax.id.cmp(&ay.id))
        });
        prop_assert_eq!(MinMax::new(gamma).order(&ctx), reference);
    }

    /// Every roster policy produces a valid allocation on any context and
    /// saturates the PFS whenever demand allows (work conservation).
    #[test]
    fn policies_allocate_validly_and_work_conserving(
        pending in arb_pending(),
        total in 1.0f64..256.0,
    ) {
        let ctx = SchedContext {
            now: Time::secs(1_000.0),
            total_bw: Bw::gib_per_sec(total),
            pending: &pending,
            signal: None,
        };
        let demand: f64 = pending.iter().map(|a| a.max_bw.as_gib_per_sec()).sum();
        for kind in PolicyKind::fig6_roster() {
            let mut policy = kind.build();
            let alloc = policy.allocate(&ctx);
            alloc.validate(&ctx).map_err(TestCaseError::fail)?;
            // Work conservation: granted total = min(demand, B).
            let granted = alloc.total().as_gib_per_sec();
            let expected = demand.min(total);
            prop_assert!(
                (granted - expected).abs() <= 1e-6 * expected.max(1.0),
                "{}: granted {granted} vs min(demand, B) = {expected}",
                kind.name()
            );
        }
    }

    /// `order` is always a permutation of the pending indices.
    #[test]
    fn orders_are_permutations(pending in arb_pending()) {
        let ctx = SchedContext {
            now: Time::secs(10.0),
            total_bw: Bw::gib_per_sec(10.0),
            pending: &pending,
            signal: None,
        };
        for kind in PolicyKind::fig6_roster() {
            let mut policy = kind.build();
            let mut order = policy.order(&ctx);
            order.sort_unstable();
            let expected: Vec<usize> = (0..pending.len()).collect();
            prop_assert_eq!(order, expected, "{} broke the permutation", kind.name());
        }
    }

    /// Priority is a stable partition: started apps keep the inner
    /// relative order, and all of them precede all fresh apps — over
    /// every base, including MinMax's two rank classes.
    #[test]
    fn priority_is_a_stable_partition(pending in arb_pending()) {
        let ctx = SchedContext {
            now: Time::secs(10.0),
            total_bw: Bw::gib_per_sec(10.0),
            pending: &pending,
            signal: None,
        };
        for kind in PolicyKind::fig6_roster().into_iter().filter(|k| !k.priority) {
            let inner_order = kind.build().order(&ctx);
            let prio_order = PolicyKind::with_priority(kind.base).build().order(&ctx);
            // Partition point: all started first.
            let first_fresh = prio_order
                .iter()
                .position(|&i| !pending[i].started_io)
                .unwrap_or(prio_order.len());
            prop_assert!(prio_order[first_fresh..].iter().all(|&i| !pending[i].started_io));
            // Stability: relative inner order preserved within each group.
            let rank = |i: usize| inner_order.iter().position(|&x| x == i).unwrap();
            for grp in [&prio_order[..first_fresh], &prio_order[first_fresh..]] {
                for w in grp.windows(2) {
                    prop_assert!(rank(w[0]) < rank(w[1]));
                }
            }
        }
    }

    /// The bandwidth profile never admits an overcommitting reservation
    /// and `first_fit` results are always actually feasible.
    #[test]
    fn profile_first_fit_is_sound(
        reservations in prop::collection::vec(
            (0.0f64..90.0, 0.1f64..30.0, 0.1f64..6.0), 0..12),
        query in (0.0f64..100.0, 0.1f64..40.0, 0.1f64..10.0),
    ) {
        let mut profile = BandwidthProfile::new(Time::secs(100.0), Bw::gib_per_sec(10.0));
        for (start, dur, bw) in reservations {
            let end = (start + dur).min(100.0);
            if end > start {
                // Reservation may legitimately fail; never panic.
                let _ = profile.reserve(
                    Time::secs(start),
                    Time::secs(end),
                    Bw::gib_per_sec(bw),
                );
            }
        }
        let (from, dur, bw) = query;
        if let Some(s) = profile.first_fit(
            Time::secs(from),
            Time::secs(dur),
            Bw::gib_per_sec(bw),
        ) {
            prop_assert!(s.approx_ge(Time::secs(from)));
            prop_assert!((s + Time::secs(dur)).approx_le(Time::secs(100.0)));
            let min = profile.min_available(s, s + Time::secs(dur));
            prop_assert!(
                min.approx_ge(Bw::gib_per_sec(bw)),
                "window at {s} has only {min}"
            );
        }
    }

    /// Random feasible 3-Partition instances (built from a known
    /// partition) are solved by brute force, and the proof schedule
    /// round-trips to a valid certificate.
    #[test]
    fn three_partition_roundtrip(
        triples in prop::collection::vec((1u64..30, 1u64..30), 2..5),
    ) {
        // Build n triplets with a common sum: (a, b, B−a−b) for B chosen
        // larger than every a+b.
        let target = triples.iter().map(|&(a, b)| a + b).max().unwrap() + 5;
        let mut items = Vec::new();
        for &(a, b) in &triples {
            items.extend([a, b, target - a - b]);
        }
        let instance = ThreePartition::new(target, items).unwrap();
        let solution = instance.brute_force().expect("constructed feasible");
        let schedule = instance.schedule_from_partition(&solution);
        prop_assert_eq!(schedule.verify().unwrap(), 1.0);
        let recovered = schedule.extract_partition().expect("valid schedule");
        for t in &recovered {
            let sum: u64 = t.iter().map(|&k| instance.items()[k]).sum();
            prop_assert_eq!(sum, instance.target());
        }
    }

    /// Full-roster name discipline under random knobs: every registry
    /// member — the complete roster plus randomly tuned `minmax`,
    /// `periodic:*` and `control:*` members — roundtrips
    /// parse ↔ name ↔ serde exactly.
    #[test]
    fn registry_names_roundtrip_under_random_knobs(
        gamma in 0.0f64..1.0,
        kp in 0.0f64..4.0,
        ki in 0.0f64..1.0,
        set in 0.05f64..1.0,
        win in 1.0f64..600.0,
        eps in 0.01f64..0.8,
        tmax in 1.0f64..8.0,
    ) {
        use iosched_core::heuristics::BasePolicy;
        use iosched_core::periodic::InsertionHeuristic;
        use iosched_core::registry::{ControlFactory, PeriodicFactory, PolicyFactory};

        let mut roster = PolicyFactory::complete_roster();
        roster.push(PolicyFactory::Kind(PolicyKind::plain(BasePolicy::MinMax(gamma))));
        roster.push(PolicyFactory::Periodic(
            PeriodicFactory::new(InsertionHeuristic::Congestion)
                .with_epsilon(eps)
                .with_max_factor(tmax),
        ));
        roster.push(PolicyFactory::Control(
            ControlFactory::default()
                .with_kp(kp)
                .with_ki(ki)
                .with_setpoint(set)
                .with_window(win),
        ));
        for spec in roster {
            // parse ↔ serde_name (the canonical machine-readable form).
            let name = spec.serde_name();
            let parsed = PolicyFactory::parse(&name).map_err(TestCaseError::fail)?;
            prop_assert_eq!(parsed, spec, "parse(serde_name()) diverged for {}", name);
            // serde is the name string, and it roundtrips bit-exactly.
            let json = serde_json::to_string(&spec).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&json, &format!("\"{}\"", name));
            let back: PolicyFactory = serde_json::from_str(&json)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(back, spec, "serde roundtrip diverged for {}", json);
            // Whatever parses also validates (the grammar and the
            // builder agree on legal knobs).
            prop_assert!(spec.validate().is_ok(), "{} failed validation", name);
        }
    }

    /// Malformed control gains never parse: the grammar rejects any
    /// negative gain, out-of-range setpoint or non-positive window with
    /// an actionable error (never a panic).
    #[test]
    fn malformed_control_gains_are_rejected(
        kp in -10.0f64..-0.001,
        set in 1.001f64..100.0,
        win in -100.0f64..0.0,
    ) {
        use iosched_core::registry::PolicyFactory;
        for bad in [
            format!("control:pi:kp={kp}"),
            format!("control:pi:set={set}"),
            format!("control:pi:set={}", -set),
            format!("control:pi:win={win}"),
            "control:pi:set=0".to_string(),
            "control:pi:win=0".to_string(),
        ] {
            let err = PolicyFactory::parse(&bad);
            prop_assert!(err.is_err(), "{} should not parse", bad);
            prop_assert!(!err.unwrap_err().is_empty());
        }
    }
}
