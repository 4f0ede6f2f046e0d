//! The two campaign workloads: `fig6_closed` (closed Fig. 6 rosters,
//! one process with two worker threads) and `stream_open` (open Poisson
//! streams, two shard processes of one thread each).
//!
//! A workload's seeds are split into sets, one spec per set. The timed
//! run executes `iosched campaign` on the sets in turn, again and again
//! for the run's duration, and checks every `--json` export byte for
//! byte against the library's `run_campaign` on the same spec. The
//! traced run executes the CLI once on the first set, then the same spec
//! in process twice: untraced through `fold_outcomes`, and traced
//! through a copy of the campaign block executor that times each layer
//! from outside.

use crate::host::{self, wait_or_kill};
use crate::stats;
use crate::timed::{AllocStats, Timed};
use crate::trace::{self, Recorder};
use crate::{Ctx, Outcome};
use iosched_bench::campaign::{CellSummary, PlatformSpec};
use iosched_bench::{
    fold_outcomes, run_campaign, shard, CampaignResult, CampaignSpec, RunMetrics, ScenarioRunner,
};
use iosched_model::stats::Summary;
use iosched_sim::{simulate, simulate_open, SimOutcome};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a single `iosched` invocation may take before it is killed
/// and counted as failed.
const CLI_LIMIT: Duration = Duration::from_secs(120);

/// Set-up probes timed before the first invocation and after each one;
/// the median of all of them is reported.
const SETUP_BATCH: usize = 3;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig6,
    Stream,
}

impl Kind {
    /// Worker threads per process and shard processes (0 = unsharded).
    fn layout(self) -> (usize, usize) {
        match self {
            Self::Fig6 => (2, 0),
            Self::Stream => (1, 2),
        }
    }

    /// Layout of the set-up probe: one process, so the probe times what
    /// `iosched campaign` does before and around a sweep without the
    /// spawn of shard processes, whose start-up time on a shared host
    /// swings by a factor of four between runs.
    fn setup_layout(self) -> (usize, usize) {
        (self.layout().0, 0)
    }

    /// Seed sets per cycle and seeds per set. The sets together are the
    /// workload's inputs; each invocation runs one set, so it is short
    /// and a run times every set several times.
    fn seed_sets(self) -> (usize, usize) {
        match self {
            Self::Fig6 => (4, 50),
            Self::Stream => (10, 16),
        }
    }

    /// Threads of the in-process runs: the CLI's total parallelism.
    fn inprocess_threads(self) -> usize {
        let (threads, shards) = self.layout();
        threads * shards.max(1)
    }
}

/// SplitMix64 step: the benchmark's only source of derived seeds.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Workload seeds `from..from + n` derived from the benchmark seed
/// (below 2^31, so they survive any JSON number encoding).
fn seeds(seed: u64, from: usize, n: usize) -> String {
    let list: Vec<String> = (from as u64..(from + n) as u64)
        .map(|i| (splitmix(seed.wrapping_mul(1_000_003).wrapping_add(i)) >> 33).to_string())
        .collect();
    list.join(", ")
}

/// The three Fig. 6 rosters: 10 large apps; 50 small + 5 large at I/O
/// ratios 0.2 and 0.35 (the checked-in `campaign_fig6.json` shape).
const FIG6_WORKLOADS: [&str; 3] = [
    r#"{"Mix": {"config": {"small": 0, "large": 10, "very_large": 0, "io_ratio": 0.2, "work_range": [100, 400], "instances": [8, 12], "release_jitter": 1}, "seed": 0}}"#,
    r#"{"Mix": {"config": {"small": 50, "large": 5, "very_large": 0, "io_ratio": 0.2, "work_range": [100, 400], "instances": [8, 12], "release_jitter": 1}, "seed": 0}}"#,
    r#"{"Mix": {"config": {"small": 50, "large": 5, "very_large": 0, "io_ratio": 0.35, "work_range": [100, 400], "instances": [8, 12], "release_jitter": 1}, "seed": 0}}"#,
];

/// The Fig. 6 online roster.
const FIG6_POLICIES: &str = r#""roundrobin", "priority-roundrobin", "mindilation", "priority-mindilation", "maxsyseff", "priority-maxsyseff", "minmax-0.50", "priority-minmax-0.50""#;

/// A Poisson stream whose application shapes are drawn from a Fig. 6
/// style roster (50 small + 5 large applications, I/O ratio 0.2). With
/// this fixed roster shape the arrival rate alone sets the load for every
/// seed: the I/O system runs at ~26% utilization at 0.001/s and ~78% at
/// 0.003/s (steady queue growing, near saturation, which is ~0.0038/s).
/// The load sweep's congestion pools are not used: each seed draws a pool
/// with its own oversubscription factor, so one rate leaves one pool idle
/// and drives another past saturation, where its queue grows without
/// bound and the stream costs up to 60× the median to simulate.
fn stream_workload(rate: &str, apps: usize) -> String {
    format!(
        r#"{{"Stream": {{"arrivals": {{"Poisson": {{"rate": {rate}}}}}, "template": {FIG6_B}, "stop": {{"Apps": {apps}}}, "seed": 0}}}}"#,
        FIG6_B = FIG6_WORKLOADS[1],
    )
}

/// The load-sweep engine configuration: telemetry on (it feeds
/// `control:pi`), a 2000 s warmup trimmed from the steady-state record.
const STREAM_CONFIG: &str = r#"{"use_burst_buffer": false, "record_trace": false, "max_events": 10000000, "external_load": null, "telemetry": true, "warmup": 2000, "horizon": null, "per_app_detail": true}"#;

const STREAM_POLICIES: &str = r#""fairshare", "mindilation", "control:pi""#;

/// Applications per stream.
const STREAM_APPS: usize = 2000;

/// The measured spec of seed set `set` of a workload, as JSON text.
pub fn spec_json(kind: Kind, seed: u64, set: usize) -> String {
    let (_, per_set) = kind.seed_sets();
    let seeds = seeds(seed, set * per_set, per_set);
    match kind {
        Kind::Fig6 => format!(
            r#"{{"name": "fig6_closed", "platforms": ["intrepid"], "workloads": [{}], "policies": [{FIG6_POLICIES}], "seeds": [{}], "config": null, "threads": null}}"#,
            FIG6_WORKLOADS.join(", "),
            seeds
        ),
        Kind::Stream => format!(
            r#"{{"name": "stream_open", "platforms": ["intrepid"], "workloads": [{}, {}], "policies": [{STREAM_POLICIES}], "seeds": [{}], "config": {STREAM_CONFIG}, "threads": null}}"#,
            stream_workload("0.001", STREAM_APPS),
            stream_workload("0.003", STREAM_APPS),
            seeds
        ),
    }
}

/// The set-up probe: the same kind of spec cut to one run (one roster or
/// a 20-application stream, one policy, one seed), so its wall time is
/// what `iosched campaign` pays before and around the sweep proper.
fn setup_json(kind: Kind, seed: u64) -> String {
    match kind {
        Kind::Fig6 => format!(
            r#"{{"name": "fig6_setup", "platforms": ["intrepid"], "workloads": [{}], "policies": ["roundrobin"], "seeds": [{}], "config": null, "threads": null}}"#,
            FIG6_WORKLOADS[0],
            seeds(seed, 0, 1)
        ),
        Kind::Stream => format!(
            r#"{{"name": "stream_setup", "platforms": ["intrepid"], "workloads": [{}], "policies": ["fairshare"], "seeds": [{}], "config": {STREAM_CONFIG}, "threads": null}}"#,
            stream_workload("0.001", 20),
            seeds(seed, 0, 1)
        ),
    }
}

/// The exact bytes `iosched campaign --json` writes for `result`.
fn json_bytes(result: &CampaignResult) -> Result<String, String> {
    serde_json::to_string_pretty(result)
        .map(|s| s + "\n")
        .map_err(|e| e.to_string())
}

/// One `iosched campaign` invocation.
struct CliRun {
    wall_s: f64,
    /// Exit status was success and the export was readable.
    output: Option<String>,
    /// CPU seconds of the process tree.
    cpu_s: f64,
}

/// Run `iosched campaign` on `spec` with `threads` worker threads per
/// process and `shards` shard processes (0 = one process).
fn run_cli(
    ctx: &Ctx<'_>,
    (threads, shards): (usize, usize),
    spec: &Path,
    tag: &str,
) -> Result<CliRun, String> {
    let out = ctx.work.join(format!("{tag}.json"));
    let parts = ctx.work.join(format!("{tag}.partials"));
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&parts);
    let mut cmd = Command::new(ctx.iosched);
    cmd.arg("campaign")
        .arg(spec)
        .arg("--threads")
        .arg(threads.to_string());
    if shards > 0 {
        cmd.arg("--shards")
            .arg(shards.to_string())
            .arg("--out")
            .arg(&parts);
    }
    // Its own process group, so a timeout kills the shards too.
    cmd.arg("--json")
        .arg(&out)
        .process_group(0)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let before = host::child_usage();
    let started = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", ctx.iosched.display()))?;
    let status = wait_or_kill(&mut child, CLI_LIMIT).map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = host::child_usage().cpu_s - before.cpu_s;
    let output = match status {
        Some(s) if s.success() => std::fs::read_to_string(&out).ok(),
        _ => None,
    };
    Ok(CliRun {
        wall_s,
        output,
        cpu_s,
    })
}

fn parse_spec(text: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::from_json(text).map_err(|e| format!("generated spec rejected: {e}"))
}

fn write(path: &Path, text: &str) -> Result<PathBuf, String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// The set-up probe's spec file and the export the library expects of it.
struct SetupProbe {
    path: PathBuf,
    expected: String,
}

impl SetupProbe {
    fn new(ctx: &Ctx<'_>, kind: Kind) -> Result<Self, String> {
        let text = setup_json(kind, ctx.seed);
        let spec = parse_spec(&text)?;
        let expected = json_bytes(&run_campaign(
            &spec,
            &ScenarioRunner::with_threads(kind.inprocess_threads()),
        )?)?;
        Ok(Self {
            path: write(&ctx.work.join("setup-spec.json"), &text)?,
            expected,
        })
    }

    /// Time `SETUP_BATCH` probes; every probe's export is checked
    /// against the library.
    fn run(
        &self,
        ctx: &Ctx<'_>,
        kind: Kind,
        walls: &mut Vec<f64>,
        out: &mut Outcome,
    ) -> Result<(), String> {
        for _ in 0..SETUP_BATCH {
            let run = run_cli(
                ctx,
                kind.setup_layout(),
                &self.path,
                &format!("setup-{}", walls.len()),
            )?;
            out.check(
                "set-up export equals run_campaign",
                run.output.as_deref() == Some(self.expected.as_str()),
            );
            walls.push(run.wall_s);
        }
        Ok(())
    }
}

/// The timed (untraced) run.
pub fn timed(ctx: &Ctx<'_>, kind: Kind) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let probe = SetupProbe::new(ctx, kind)?;
    let mut setup_walls = Vec::new();
    probe.run(ctx, kind, &mut setup_walls, &mut out)?;

    let (set_count, per_set) = kind.seed_sets();
    let mut sets = Vec::with_capacity(set_count);
    for set in 0..set_count {
        let text = spec_json(kind, ctx.seed, set);
        let spec = parse_spec(&text)?;
        let path = write(&ctx.work.join(format!("spec-{set}.json")), &text)?;
        sets.push((spec, path, Vec::<CliRun>::new()));
    }
    // The sets in turn, until the time is up and every set ran once.
    let started = Instant::now();
    let mut invocations = 0;
    while invocations < set_count || started.elapsed().as_secs_f64() < ctx.seconds {
        let (_, path, runs) = &mut sets[invocations % set_count];
        runs.push(run_cli(
            ctx,
            kind.layout(),
            path,
            &format!("run-{invocations}"),
        )?);
        invocations += 1;
        // Set-up probes spread over the run, so the median sees the
        // host's slow and fast spells alike.
        probe.run(ctx, kind, &mut setup_walls, &mut out)?;
    }
    // Output check, outside the timed window: the library on the same
    // spec must produce the very bytes the CLI exported.
    for (spec, _, runs) in &sets {
        let expected = json_bytes(&run_campaign(
            spec,
            &ScenarioRunner::with_threads(kind.inprocess_threads()),
        )?)?;
        for run in runs {
            out.check(
                "CLI export equals run_campaign",
                run.output.as_deref() == Some(expected.as_str()),
            );
        }
    }

    // Runs per second over the whole cycle of sets, each set timed by
    // its median invocation: the host's speed drifts by tens of percent
    // over seconds, and a median shrugs off the invocation that caught a
    // slow spell. The sets together average out how much a set's seeds
    // cost to simulate, which alone moves a set's time by ±10%.
    let mut cycle_runs = 0;
    let mut cycle_s = 0.0;
    let mut walls_ms = Vec::with_capacity(invocations);
    for (spec, _, runs) in &sets {
        let mut set_walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        walls_ms.extend(set_walls.iter().map(|w| w * 1e3));
        cycle_runs += spec.total_runs();
        cycle_s += stats::median(&mut set_walls);
    }
    let throughput = cycle_runs as f64 / cycle_s;
    let response = stats::summarize(&mut walls_ms, 0.99).expect("at least one invocation");
    let rss_mib = host::child_usage().max_rss_kib as f64 / 1024.0;
    let setup_s = stats::median(&mut setup_walls);
    let (threads, shards) = kind.layout();
    out.line(format!(
        "layout: {threads} thread(s) per process, {} shard process(es); {set_count} seed sets of \
         {per_set} seeds, {} runs per invocation",
        shards.max(1),
        sets[0].0.total_runs()
    ));
    out.line(format!(
        "set-up: median {:.2} ms over {} one-run invocations",
        setup_s * 1e3,
        setup_walls.len()
    ));
    out.line(format!(
        "campaign: {invocations} invocation(s), {}-{} per set; wall per invocation p50 \
         {:.1} ms, {} {:.1} ms (n={}); cycle of {cycle_runs} runs {:.3} s of set medians",
        invocations / set_count,
        invocations.div_ceil(set_count),
        response.p50,
        response.tail_label,
        response.tail,
        response.n,
        cycle_s
    ));
    out.metrics = vec![
        ("setup_s", setup_s),
        ("throughput_per_s", throughput),
        ("peak_rss_mib", rss_mib),
    ];
    Ok(out)
}

/// `(events, end_time, sys_efficiency, dilation)` of one run, as bits:
/// the observation-only check compares these per run.
type RunKey = (usize, u64, u64, u64);

fn run_key(o: &SimOutcome) -> RunKey {
    (
        o.events,
        o.end_time.get().to_bits(),
        o.report.sys_efficiency.to_bits(),
        o.report.dilation.to_bits(),
    )
}

/// Largest number of applications alive at once (released, not yet
/// finished), from the outcome's per-application detail.
pub fn peak_live(o: &SimOutcome) -> usize {
    let mut edges: Vec<(u64, i8)> = Vec::with_capacity(2 * o.report.per_app.len());
    for a in &o.report.per_app {
        // Non-negative floats order like their bit patterns.
        edges.push((a.release.get().to_bits(), 1));
        edges.push((a.finish.get().to_bits(), -1));
    }
    // At equal instants a finish frees its slot before a release takes one.
    edges.sort_unstable();
    let (mut live, mut peak) = (0i64, 0i64);
    for (_, d) in edges {
        live += i64::from(d);
        peak = peak.max(live);
    }
    usize::try_from(peak).unwrap_or(0)
}

/// One cell's samples while its seeds stream in. The campaign crate's
/// own fold is private to it, so the traced executor repeats it here;
/// the byte comparison against the CLI export proves the copy exact.
#[derive(Default)]
struct CellBuffer {
    effs: Vec<f64>,
    dils: Vec<f64>,
    uppers: Vec<f64>,
    spans: Vec<f64>,
    utils: Vec<f64>,
    queues: Vec<f64>,
    stretches: Vec<f64>,
}

impl CellBuffer {
    fn push(&mut self, r: &RunMetrics) {
        self.effs.push(r.sys_efficiency);
        self.dils.push(r.dilation);
        self.uppers.push(r.upper_limit);
        self.spans.push(r.makespan_secs);
        self.utils.extend(r.utilization);
        self.queues.extend(r.queue);
        self.stretches.extend(r.stretch);
    }

    fn summarize(self, (platform, workload, policy): (String, String, String)) -> CellSummary {
        let runs = self.effs.len();
        let optional = |xs: &[f64]| {
            (xs.len() == runs)
                .then(|| Summary::from_slice(xs))
                .flatten()
        };
        CellSummary {
            platform,
            workload,
            policy,
            runs,
            sys_efficiency: Summary::from_slice(&self.effs).expect("non-empty cell"),
            dilation: Summary::from_slice(&self.dils).expect("non-empty cell"),
            upper_limit: Summary::from_slice(&self.uppers).expect("non-empty cell"),
            makespan_secs: Summary::from_slice(&self.spans).expect("non-empty cell"),
            utilization: optional(&self.utils),
            queue: optional(&self.queues),
            stretch: optional(&self.stretches),
        }
    }
}

/// One seed block's results from a worker.
struct BlockOut {
    outcomes: Vec<SimOutcome>,
    alloc: AllocStats,
    apps: usize,
}

/// What the traced executor measured besides its spans.
struct Traced {
    result: CampaignResult,
    keys: Vec<RunKey>,
    alloc: AllocStats,
    apps: usize,
    events: usize,
    peak_live: usize,
    wall_s: f64,
}

/// The campaign block executor with a span around every call into a
/// layer: `workload.materialize`, `core.build`, `sim.simulate` (with the
/// policy's allocations as an aggregate `core.allocate` child) inside
/// each `bench.block`, and `bench.fold` for `RunMetrics::from_outcome`
/// plus the cell fold.
fn traced_campaign(spec: &CampaignSpec, threads: usize, rec: &Recorder) -> Result<Traced, String> {
    let started = Instant::now();
    let root = rec.root("bench.campaign");
    let platforms: Vec<_> = spec
        .platforms
        .iter()
        .map(PlatformSpec::build)
        .collect::<Result<_, _>>()?;
    let config = spec.config.clone().unwrap_or_default();
    let (rpc, n_workloads, n_policies) = (
        spec.runs_per_cell(),
        spec.workloads.len(),
        spec.policies.len(),
    );
    let labels = spec.cell_labels();

    struct Acc {
        cells: Vec<CellSummary>,
        group: Vec<CellBuffer>,
        keys: Vec<Option<RunKey>>,
        alloc: AllocStats,
        apps: usize,
        events: usize,
        peak_live: usize,
        error: Option<String>,
    }
    let init = Acc {
        cells: Vec::with_capacity(spec.cell_count()),
        group: (0..n_policies).map(|_| CellBuffer::default()).collect(),
        keys: vec![None; spec.total_runs()],
        alloc: AllocStats::default(),
        apps: 0,
        events: 0,
        peak_live: 0,
        error: None,
    };
    let acc = ScenarioRunner::with_threads(threads).fold(
        0..spec.block_count(),
        |_, &b| -> Result<BlockOut, String> {
            let block = rec.child(&root, "bench.block");
            let group = b / rpc;
            let (p, j) = (group / n_workloads, b % rpc);
            let workload = spec.bound_workload(group % n_workloads, j);
            let gen = rec.child(&block, "workload.materialize");
            let apps = workload.materialize(&platforms[p])?;
            rec.close(gen);
            let run = if workload.is_open() {
                simulate_open
            } else {
                simulate
            };
            let mut alloc = AllocStats::default();
            let mut outcomes = Vec::with_capacity(n_policies);
            for policy in &spec.policies {
                let build = rec.child(&block, "core.build");
                let inner = policy.build(&platforms[p], &apps)?;
                rec.close(build);
                let mut timed = Timed::new(inner);
                let sim = rec.child(&block, "sim.simulate");
                let outcome = run(&platforms[p], &apps, &mut timed, &config)
                    .map_err(|e| format!("block {b}/{}: {e}", policy.serde_name()))?;
                rec.aggregate(
                    &sim,
                    "core.allocate",
                    timed.stats.calls,
                    timed.stats.busy_ns,
                );
                rec.close(sim);
                alloc.merge(&timed.stats);
                outcomes.push(outcome);
            }
            rec.close(block);
            Ok(BlockOut {
                outcomes,
                alloc,
                apps: apps.len(),
            })
        },
        init,
        |mut acc, b, block| {
            let block = match block {
                Ok(block) => block,
                Err(e) => {
                    acc.error.get_or_insert(e);
                    return acc;
                }
            };
            let fold = rec.child(&root, "bench.fold");
            let runs: Vec<RunMetrics> = block
                .outcomes
                .iter()
                .map(RunMetrics::from_outcome)
                .collect();
            for (buffer, run) in acc.group.iter_mut().zip(&runs) {
                buffer.push(run);
            }
            if (b + 1) % rpc == 0 {
                let group = b / rpc;
                for (pol, buffer) in acc.group.iter_mut().enumerate() {
                    let cell = std::mem::take(buffer);
                    acc.cells
                        .push(cell.summarize(labels[group * n_policies + pol].clone()));
                }
            }
            rec.close(fold);
            // Observation bookkeeping, outside every span.
            let (group, j) = (b / rpc, b % rpc);
            for (pol, outcome) in block.outcomes.iter().enumerate() {
                acc.keys[(group * n_policies + pol) * rpc + j] = Some(run_key(outcome));
                acc.events += outcome.events;
                acc.peak_live = acc.peak_live.max(peak_live(outcome));
            }
            acc.alloc.merge(&block.alloc);
            acc.apps += block.apps;
            acc
        },
    );
    rec.close(root);
    if let Some(e) = acc.error {
        return Err(e);
    }
    Ok(Traced {
        result: CampaignResult {
            name: spec.name.clone(),
            total_runs: spec.total_runs(),
            cells: acc.cells,
        },
        keys: acc
            .keys
            .into_iter()
            .map(|k| k.expect("every run folded"))
            .collect(),
        alloc: acc.alloc,
        apps: acc.apps,
        events: acc.events,
        peak_live: acc.peak_live,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Shard-layer facts of a finished partial directory.
struct ShardFacts {
    partial_bytes: u64,
    block_ms_p50: f64,
    skew: f64,
    merge_s: f64,
    merged: Option<CampaignResult>,
}

fn shard_facts(dir: &Path, rec: &Recorder) -> Result<ShardFacts, String> {
    let mut partial_bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .map_err(|e| e.to_string())?
            .metadata()
            .map_err(|e| e.to_string())?;
        partial_bytes += meta.len();
    }
    let span = rec.root("shard.merge_dir");
    let started = Instant::now();
    let merged = shard::merge_dir(dir);
    let merge_s = started.elapsed().as_secs_f64();
    rec.close(span);
    let merged = merged?;
    let walls: Vec<u64> = merged.footers.iter().map(|f| f.wall_ms).collect();
    let skew = match (walls.iter().max(), walls.iter().min()) {
        (Some(&max), Some(&min)) => max as f64 / (min.max(1)) as f64,
        _ => 0.0,
    };
    Ok(ShardFacts {
        partial_bytes,
        block_ms_p50: merged
            .block_time_ns
            .as_ref()
            .map_or(0.0, |h| h.quantile(0.5) as f64 / 1e6),
        skew,
        merge_s,
        merged: Some(merged.result),
    })
}

/// Rounds of the traced run. Each round runs the CLI, the untraced
/// library path and the traced executor once, in that order; each timing
/// reported is the round minimum (interleaved minima), because the host's
/// speed drifts between back-to-back measurements.
const TRACE_ROUNDS: usize = 2;

/// One round of the traced run.
struct Round {
    cli: CliRun,
    shards: Option<ShardFacts>,
    untraced_wall: f64,
    traced: Traced,
    spans: Vec<trace::Span>,
}

fn round(
    ctx: &Ctx<'_>,
    kind: Kind,
    spec: &CampaignSpec,
    path: &Path,
    out: &mut Outcome,
) -> Result<Round, String> {
    let rec = Recorder::default();
    let threads = kind.inprocess_threads();
    let cli_span = rec.root("cli.campaign");
    let cli = run_cli(ctx, kind.layout(), path, "traced")?;
    rec.close(cli_span);
    let shards = match kind {
        Kind::Stream => Some(shard_facts(&ctx.work.join("traced.partials"), &rec)?),
        Kind::Fig6 => None,
    };

    // Untraced reference: the library's executor, per-run keys only.
    let reference = rec.root("bench.fold_outcomes");
    let started = Instant::now();
    let untraced_keys = fold_outcomes(
        spec,
        &ScenarioRunner::with_threads(threads),
        vec![None; spec.total_runs()],
        |mut keys, idx, outcome| {
            keys[idx] = Some(run_key(outcome));
            keys
        },
    )?;
    let untraced_wall = started.elapsed().as_secs_f64();
    rec.close(reference);

    let traced = traced_campaign(spec, threads, &rec)?;

    // Output checks: the traced result is the CLI's export, byte for
    // byte (and the merged partials are too), and tracing changed no
    // run's outcome bits.
    let traced_json = json_bytes(&traced.result)?;
    out.check(
        "CLI export equals the traced in-process result",
        cli.output.as_deref() == Some(traced_json.as_str()),
    );
    if let Some(merged) = shards.as_ref().and_then(|s| s.merged.as_ref()) {
        out.check(
            "merge_dir of the partials equals the traced result",
            json_bytes(merged)? == traced_json,
        );
    }
    let identical = untraced_keys
        .iter()
        .zip(&traced.keys)
        .filter(|(u, t)| u.as_ref() == Some(t))
        .count();
    out.check(
        "traced outcomes bit-identical to untraced (events, end_time, sys_efficiency, dilation)",
        identical == spec.total_runs(),
    );
    Ok(Round {
        cli,
        shards,
        untraced_wall,
        traced,
        spans: rec.spans(),
    })
}

/// The traced run: per-layer metrics of one invocation's worth of work
/// (the first seed set).
pub fn traced(ctx: &Ctx<'_>, kind: Kind) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let text = spec_json(kind, ctx.seed, 0);
    let spec = parse_spec(&text)?;
    let path = write(&ctx.work.join("spec.json"), &text)?;
    let threads = kind.inprocess_threads();
    let mut rounds = Vec::with_capacity(TRACE_ROUNDS);
    for _ in 0..TRACE_ROUNDS {
        rounds.push(round(ctx, kind, &spec, &path, &mut out)?);
    }
    let min = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
    let cli_wall = min(&|r| r.cli.wall_s);
    let cli_cpu = min(&|r| r.cli.cpu_s);
    let untraced_wall = min(&|r| r.untraced_wall);
    // Spans and counts come from the fastest traced round.
    let best = rounds
        .iter()
        .min_by(|a, b| a.traced.wall_s.total_cmp(&b.traced.wall_s))
        .expect("at least one round");
    let traced = &best.traced;
    let shard = rounds
        .iter()
        .min_by(|a, b| a.cli.wall_s.total_cmp(&b.cli.wall_s))
        .and_then(|r| r.shards.as_ref());
    let merge_s = min(&|r| r.shards.as_ref().map_or(0.0, |f| f.merge_s));

    let totals = trace::totals(&best.spans);
    let ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns);
    let s = |ns: u64| ns as f64 / 1e9;
    let alloc = &traced.alloc;
    let sim_self = self_ns("sim.simulate");
    let untraced_rps = spec.total_runs() as f64 / untraced_wall;
    let traced_rps = spec.total_runs() as f64 / traced.wall_s;
    let hist = |q: f64| alloc.hist.quantile(q) as f64;

    out.metrics = vec![
        ("workload.gen_s", s(ns("workload.materialize"))),
        ("workload.apps", traced.apps as f64),
        ("core.allocate_calls", alloc.calls as f64),
        ("core.allocate_s", s(alloc.busy_ns)),
        ("core.allocate_ns_p50", hist(0.5)),
        ("core.allocate_ns_p99", hist(0.99)),
        (
            "core.pending_mean",
            alloc.pending_sum as f64 / alloc.calls.max(1) as f64,
        ),
        ("sim.events", traced.events as f64),
        ("sim.self_s", s(sim_self)),
        (
            "sim.self_ns_per_event",
            sim_self as f64 / traced.events.max(1) as f64,
        ),
        ("sim.peak_live", traced.peak_live as f64),
        ("bench.fold_s", s(ns("bench.fold"))),
        ("bench.cpu_s", cli_cpu),
        (
            "bench.parallel_eff",
            s(ns("bench.block")) / (threads as f64 * traced.wall_s),
        ),
        (
            "shard.partial_bytes",
            shard.map_or(0.0, |f| f.partial_bytes as f64),
        ),
        ("shard.block_ms_p50", shard.map_or(0.0, |f| f.block_ms_p50)),
        ("shard.skew", shard.map_or(0.0, |f| f.skew)),
        ("shard.merge_s", merge_s),
        ("cli.overhead_s", cli_wall - untraced_wall),
        ("trace.overhead_frac", 1.0 - traced_rps / untraced_rps),
    ];

    out.line(format!(
        "traced: {} runs, min of {TRACE_ROUNDS} interleaved rounds: CLI {cli_wall:.3} s, \
         in-process untraced {untraced_wall:.3} s, traced {:.3} s",
        spec.total_runs(),
        traced.wall_s
    ));
    out.line(format!(
        "coverage: core.allocate_s + sim.self_s = {:.4} s of {:.4} s in sim.simulate spans",
        s(alloc.busy_ns + sim_self),
        s(ns("sim.simulate"))
    ));
    out.line(layer_shares(&totals, traced.wall_s, threads));
    write(&ctx.trace_out, &trace::to_jsonl(&best.spans))?;
    out.line(format!(
        "{} spans written to {}",
        best.spans.len(),
        ctx.trace_out.display()
    ));
    Ok(out)
}

/// Self-time share of each layer within the traced executor's busy time.
fn layer_shares(
    totals: &std::collections::BTreeMap<&'static str, trace::NameTotal>,
    wall_s: f64,
    threads: usize,
) -> String {
    let self_s = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.self_ns as f64 / 1e9)
            .sum()
    };
    let layers = [
        ("workload", self_s(&["workload.materialize"])),
        ("core", self_s(&["core.build", "core.allocate"])),
        ("sim", self_s(&["sim.simulate"])),
        ("bench", self_s(&["bench.block", "bench.fold"])),
    ];
    let busy: f64 = layers.iter().map(|(_, v)| v).sum();
    let mut line = format!(
        "layer self-time shares of {busy:.3} busy s ({threads} threads × {wall_s:.3} s wall):"
    );
    for (name, v) in layers {
        line.push_str(&format!(" {name} {:.1}%", 100.0 * v / busy.max(1e-12)));
    }
    line
}
