//! Benchmark of the iosched workspace: end to end and layer by layer.
//!
//! ```text
//! iosched-perfbench --iosched PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `fig6_closed` (policy-bound closed campaign), `stream_open`
//! (engine-bound open streams on two shard processes) and `serve_socket`
//! (the daemon's protocol, journal and socket path). `--trace 0` runs
//! the `iosched` binary untraced and reports the end-to-end metrics;
//! `--trace 1` is a separate run that also calls the library with spans
//! around each layer and reports the per-layer metrics. Every run checks
//! the program's outputs and counts each failed check or request. The
//! last line of standard output is the JSON result; the lines before it
//! are the human-readable report. `perfbench/NOTES.md` explains the
//! workloads and metrics.

mod campaign;
mod host;
mod loadgen;
mod serve;
mod stats;
mod timed;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// End-to-end metrics, reported by every untraced run (as in
/// `BENCHMARK.json`).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run; a layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("workload.gen_s", "s"),
    ("workload.apps", "count"),
    ("core.allocate_calls", "count"),
    ("core.allocate_s", "s"),
    ("core.allocate_ns_p50", "ns"),
    ("core.allocate_ns_p99", "ns"),
    ("core.pending_mean", "count"),
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.peak_live", "count"),
    ("bench.fold_s", "s"),
    ("bench.cpu_s", "s"),
    ("bench.parallel_eff", "ratio"),
    ("shard.partial_bytes", "bytes"),
    ("shard.block_ms_p50", "ms"),
    ("shard.skew", "ratio"),
    ("shard.merge_s", "s"),
    ("serve.parse_ns_p50", "ns"),
    ("serve.session_submit_ns_p50", "ns"),
    ("serve.session_submit_ns_p99", "ns"),
    ("serve.daemon_submit_ns_p99", "ns"),
    ("serve.journal_append_ns_p99", "ns"),
    ("serve.transport_us_p50", "us"),
    ("serve.journal_load_s", "s"),
    ("serve.replay_offer_s", "s"),
    ("serve.submit_p50_us", "us"),
    ("serve.submit_p99_us", "us"),
    ("serve.status_p99_us", "us"),
    ("serve.resume_s", "s"),
    ("serve.max_rate_per_s", "1/s"),
    ("cli.overhead_s", "s"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: [&str; 3] = ["fig6_closed", "stream_open", "serve_socket"];

/// What a workload run needs to know.
pub struct Ctx<'a> {
    /// The `iosched` binary under test.
    pub iosched: &'a Path,
    /// Scratch directory of this run (removed at the end).
    pub work: &'a Path,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
}

/// A workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// Per check or failure kind: (passed, failed).
    checks: BTreeMap<String, (u64, u64)>,
    lines: Vec<String>,
    /// Measured values by metric name (units live in the metric lists).
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// One checked operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        let entry = self.checks.entry(what.to_string()).or_default();
        if ok {
            entry.0 += 1;
        } else {
            entry.1 += 1;
            self.failed += 1;
        }
    }

    /// `n` more attempted operations.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// `n` of the attempted operations failed for reason `what`.
    pub fn fail(&mut self, n: usize, what: &str) {
        if n > 0 {
            self.failed += n as u64;
            self.checks.entry(what.to_string()).or_default().1 += n as u64;
        }
    }

    /// The measured value of metric `name`, if any.
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// A line of the human-readable report.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }
}

struct Args {
    iosched: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        iosched: PathBuf::from(value("--iosched")?),
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
    })
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let ctx = Ctx {
        iosched: &args.iosched,
        work,
        trace_out: PathBuf::from(".bench_work").join(format!("trace-{}.jsonl", args.workload)),
        seed: args.seed,
        seconds: args.seconds,
    };
    let kind = match args.workload.as_str() {
        "fig6_closed" => campaign::Kind::Fig6,
        "stream_open" => campaign::Kind::Stream,
        _ => return serve::run(&ctx, args.trace),
    };
    if args.trace {
        campaign::traced(&ctx, kind)
    } else {
        campaign::timed(&ctx, kind)
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics in
/// list order, every value with all its digits.
fn result_json(out: &Outcome, expected: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        let value = out.value(name).unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
        ));
    }
    Ok(format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let mut stamp = host::Stamp::before();
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("{}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {} (seed {}): {e}", args.workload, args.seed);
            return std::process::ExitCode::FAILURE;
        }
    };
    stamp.finish();
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = expected
        .iter()
        .filter(|(name, _)| out.value(name).is_none())
        .map(|(name, _)| *name)
        .collect();
    if !args.trace && !missing.is_empty() {
        eprintln!("error: {} did not measure {missing:?}", args.workload);
        return std::process::ExitCode::FAILURE;
    }

    println!(
        "perfbench {} seed {} seconds {} trace {}: nproc {}, loadavg(1m) {:.2} -> {:.2}{}, rev {}, {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stamp.nproc,
        stamp.load_before,
        stamp.load_after,
        if stamp.overloaded() { " [LOADED: loadavg above nproc]" } else { "" },
        stamp.git_rev,
        stamp.rustc
    );
    for line in &out.lines {
        println!("  {line}");
    }
    for (what, (pass, fail)) in &out.checks {
        println!("  check {what}: {pass} passed, {fail} failed");
    }
    println!(
        "  failed_frac {:.6} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for (name, unit) in expected {
        match out.value(name) {
            Some(v) => println!("  {name:<28} {v:>16.6} {unit}"),
            None => println!("  {name:<28} {:>16} {unit} (layer not exercised)", 0),
        }
    }
    match result_json(&out, expected) {
        Ok(line) => {
            println!("{line}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v = serde_json::parse(&text).expect("valid JSON");
        let map = v.as_map().unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            serde::map_get(map, key)
                .as_seq()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_map().unwrap();
                    (
                        serde::map_get(m, "name").as_str().unwrap().to_string(),
                        serde::map_get(m, "unit").as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = serde::map_get(map, "workloads")
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| {
                serde::map_get(w.as_map().unwrap(), "name")
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_lists_every_expected_metric_in_order() {
        let mut out = Outcome::default();
        out.check("ok", true);
        out.metrics = vec![("b", 2.5), ("a", 0.1)];
        let line = result_json(&out, &[("a", "ms"), ("b", "s")]).unwrap();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 0.1, "unit": "ms"}, "b": {"value": 2.5, "unit": "s"}}}"#
        );
        out.fail(1, "bad reply");
        assert!(result_json(&out, &[])
            .unwrap()
            .starts_with(r#"{"correct": false, "attempted": 1, "failed": 1"#));
    }
}
