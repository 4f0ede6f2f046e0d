//! The `serve_socket` workload: `iosched serve --socket --journal` with a
//! frozen clock, driven open loop by one client process over two
//! connections — one thread sends `submit`s at fixed rates, the other
//! `status` reads — then drained, restarted on its journal and shut
//! down; a fresh daemon then climbs a rate ladder.
//!
//! The client and the daemons all run on one CPU.
//!
//! Session outline (the daemon's engine stays idle while requests are
//! served; it only catches up on restart and runs to completion at
//! shutdown):
//!
//! 1. set-up: fresh daemons, spawn → first `status` ack, then drain (in
//!    three batches: first, after the nominal phase, and last);
//! 2. nominal phase: submits at `NOMINAL_RATE` beside reads at
//!    `STATUS_RATE`; then a `metrics` scrape and a drain;
//! 3. restarts on the journal: spawn → first `status` ack (`resume`);
//!    the last restart shuts down, and its final line must equal
//!    `iosched serve --replay`;
//! 4. on a fresh daemon, a rate ladder (the highest rate whose submit
//!    p99 stays within 1 ms);
//! 5. saturation bursts for a share of the run, on a fresh daemon for
//!    every few bursts: the rate admitted when offered more than one
//!    connection carries.

use crate::campaign::splitmix;
use crate::host::{self, wait_or_kill};
use crate::loadgen::{self, Drive, Endpoint, Schedule};
use crate::stats;
use crate::timed::Timed;
use crate::trace::{self, Recorder};
use crate::{Ctx, Outcome};
use iosched_core::registry::PolicyFactory;
use iosched_model::lossless::float_from_value;
use iosched_model::{Platform, Time};
use iosched_obs::MetricsSnapshot;
use iosched_serve::journal::{Journal, ServeSpec};
use iosched_serve::protocol::{final_line, parse_request, Request};
use iosched_serve::session::Session;
use iosched_sim::{simulate_stream, SimConfig, Simulation};
use serde::Deserialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PLATFORM: &str = "intrepid";
const POLICY: &str = "fairshare";

/// Submits per second in the nominal phase: a sixteenth of the highest
/// sustainable rate on a 2-core host.
const NOMINAL_RATE: f64 = 2000.0;
/// Share of the run's seconds spent in the nominal phase. The host's
/// speed drifts within a second, so only a long phase gives a steady p50.
const NOMINAL_SHARE: f64 = 0.35;
/// Status reads per second, in every phase.
const STATUS_RATE: f64 = 500.0;
/// Submit rates tried in turn on a fresh daemon. On a 2-core host the
/// knee (window p99 crossing the limit) lies between 32k/s and 64k/s.
const LADDER: [f64; 4] = [4000.0, 8000.0, 16_000.0, 32_000.0];
/// Submits per ladder rung.
const RUNG_REQUESTS: usize = 4000;
/// Offered rate of the saturation phase: far more than one connection
/// carries (a daemon sharing one CPU with its client acknowledged 64k/s
/// when the host ran fast), so submits go out back to back and the
/// achieved rate is the daemon's admission capacity.
const SATURATION_RATE: f64 = 1_000_000.0;
/// Share of the run's seconds spent in saturation bursts. One burst's
/// rate moves by up to a third with the host's scheduling, and bursts
/// close together share the host's slow or fast spell, so the reported
/// median is taken over the 150–250 bursts spread over this share.
const SATURATION_SHARE: f64 = 0.45;
/// Saturation bursts per fresh daemon, so no daemon holds more than
/// 27,000 submissions.
const SATURATION_BURSTS: usize = 9;
/// Submits per saturation burst.
const SATURATION_REQUESTS: usize = 3000;
/// Submit p99 limit (from due time) a rung must meet, µs.
const LIMIT_US: f64 = 1000.0;
/// Fresh daemon starts timed per batch (three batches per run).
const SETUPS: usize = 7;
/// Restarts on the journal timed per run.
const RESTARTS: usize = 3;
const DRAIN: &str = "{\"cmd\":\"drain\"}\n";
const STATUS: &str = "{\"cmd\":\"status\"}\n";
/// Longest any daemon may take to become ready or to exit.
const DAEMON_LIMIT: Duration = Duration::from_secs(60);
/// Read timeout on a connection: a reply slower than this is a failure.
const REPLY_LIMIT: Duration = Duration::from_secs(10);

/// One generated submission.
struct Sub {
    line: String,
    release: f64,
}

/// Uniform draw in [0, 1) for field `field` of request `k`.
fn uniform(seed: u64, k: u64, field: u64) -> f64 {
    (splitmix(splitmix(seed ^ 0x5E57_E000) ^ (k << 4) ^ field) >> 11) as f64 / (1u64 << 53) as f64
}

/// `n` submissions drawn from `seed`: 64–2048 processors, 1–3 instances
/// of 10–100 s compute and 1–50 GiB I/O, released on a Poisson process
/// (mean gap 2 s, ~40% I/O load on intrepid) — explicit, strictly
/// increasing releases, so the session is independent of wall time.
fn submissions(seed: u64, n: usize) -> Vec<Sub> {
    let mut release = 10.0f64;
    (0..n as u64)
        .map(|k| {
            let u = |field| uniform(seed, k, field);
            release += (-2.0 * (1.0 - u(0)).ln()).max(0.001);
            release = (release * 1000.0).round() / 1000.0;
            let procs = 64u64 << ((u(1) * 6.0) as u32);
            let work = ((10.0 + 90.0 * u(2)) * 100.0).round() / 100.0;
            let vol = ((1.0 + 49.0 * u(3)) * 100.0).round() / 100.0;
            let count = 1 + (u(4) * 3.0) as u32;
            Sub {
                line: format!(
                    "{{\"cmd\":\"submit\",\"procs\":{procs},\"work\":{work},\"vol\":{vol},\"count\":{count},\"release\":{release}}}\n"
                ),
                release,
            }
        })
        .collect()
}

/// A client connection: one request line out, one reply line back.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    reply: String,
}

impl Conn {
    fn new(stream: UnixStream) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(REPLY_LIMIT))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            reply: String::new(),
        })
    }

    /// Send `line` (newline-terminated) and wait for one reply line.
    fn request(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.reply.trim_end())
    }
}

/// Submits `subs[k]`; keeps every reply for the ack check afterwards.
struct SubmitClient<'a> {
    conn: Conn,
    subs: &'a [Sub],
    acks: Vec<String>,
}

impl Endpoint for SubmitClient<'_> {
    fn call(&mut self, k: usize) -> std::io::Result<bool> {
        let reply = self.conn.request(&self.subs[k].line)?;
        let ok = reply.starts_with(r#"{"ok":"submit""#);
        self.acks.push(reply.to_string());
        Ok(ok)
    }
}

/// Sends `status` reads.
struct StatusClient {
    conn: Conn,
}

impl Endpoint for StatusClient {
    fn call(&mut self, _: usize) -> std::io::Result<bool> {
        Ok(self.conn.request(STATUS)?.starts_with(r#"{"ok":"status""#))
    }
}

/// Does `ack` acknowledge submission `id` with the release that was sent?
fn ack_matches(ack: &str, id: usize, release: f64) -> bool {
    let Ok(v) = serde_json::parse(ack) else {
        return false;
    };
    let Some(map) = v.as_map() else {
        return false;
    };
    serde::map_get(map, "ok").as_str() == Some("submit")
        && serde::map_get(map, "id").as_f64() == Some(id as f64)
        && float_from_value(serde::map_get(map, "release_secs"))
            .is_ok_and(|r| r.to_bits() == release.to_bits())
}

/// A field of a JSON reply line, as a number.
fn reply_number(reply: &str, key: &str) -> Option<f64> {
    let v = serde_json::parse(reply).ok()?;
    serde::map_get(v.as_map()?, key).as_f64()
}

/// Paths of one session.
struct Files {
    socket: PathBuf,
    journal: PathBuf,
}

/// A running daemon and the time it took to answer its first `status`.
struct Daemon {
    child: Child,
    ready_s: f64,
    first_status: String,
}

impl Drop for Daemon {
    /// A daemon an error path left running is killed and reaped.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn spawn_daemon(ctx: &Ctx<'_>, files: &Files) -> Result<Daemon, String> {
    let _ = std::fs::remove_file(&files.socket);
    let started = Instant::now();
    let mut child = Command::new(ctx.iosched)
        .args([
            "serve",
            "--platform",
            PLATFORM,
            "--policy",
            POLICY,
            "--journal",
        ])
        .arg(&files.journal)
        .arg("--socket")
        .arg(&files.socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", ctx.iosched.display()))?;
    // Poll until the daemon accepts a connection and answers a read.
    let ready = loop {
        if let Ok(stream) = UnixStream::connect(&files.socket) {
            break Conn::new(stream).and_then(|mut conn| conn.request(STATUS).map(str::to_string));
        }
        if started.elapsed() > DAEMON_LIMIT || matches!(child.try_wait(), Ok(Some(_))) {
            break Err(std::io::Error::other("daemon never became ready"));
        }
        std::thread::yield_now();
    };
    let ready_s = started.elapsed().as_secs_f64();
    match ready {
        Ok(first_status) => Ok(Daemon {
            child,
            ready_s,
            first_status,
        }),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("daemon on {}: {e}", files.journal.display()))
        }
    }
}

/// Send `line` on a fresh connection and wait for the daemon to exit.
fn stop_daemon(files: &Files, mut daemon: Daemon, line: &str) -> Result<String, String> {
    let reply = UnixStream::connect(&files.socket)
        .and_then(Conn::new)
        .and_then(|mut conn| conn.request(line).map(str::to_string));
    let status = wait_or_kill(&mut daemon.child, DAEMON_LIMIT).map_err(|e| e.to_string())?;
    let reply = reply.map_err(|e| format!("stopping daemon: {e}"))?;
    match status {
        Some(s) if s.success() => Ok(reply),
        other => Err(format!("daemon exited badly ({other:?}) after {line:?}")),
    }
}

/// Both connections of a driven phase.
fn connect_pair(files: &Files) -> Result<(Conn, Conn), String> {
    let open = || {
        UnixStream::connect(&files.socket)
            .and_then(Conn::new)
            .map_err(|e| format!("connecting: {e}"))
    };
    Ok((open()?, open()?))
}

/// Drive `subs` at `rate` beside status reads at `STATUS_RATE` over the
/// same span, one thread each. Returns (submits, reads, acks).
fn drive_phase(
    (submit_conn, status_conn): (Conn, Conn),
    subs: &[Sub],
    rate: f64,
    grace: Duration,
) -> (Drive, Drive, Vec<String>) {
    let mut submit = SubmitClient {
        conn: submit_conn,
        subs,
        acks: Vec::with_capacity(subs.len()),
    };
    let mut status = StatusClient { conn: status_conn };
    let writes = Schedule {
        rate,
        count: subs.len(),
    };
    let reads = Schedule {
        rate: STATUS_RATE,
        count: ((subs.len() as f64 / rate) * STATUS_RATE).floor() as usize,
    };
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let reads = scope.spawn(|| {
            host::tighten_timer_slack();
            loadgen::drive(&mut status, reads, start, grace)
        });
        host::tighten_timer_slack();
        let writes = loadgen::drive(&mut submit, writes, start, grace);
        let reads = reads.join().expect("status thread panicked");
        (writes, reads, submit.acks)
    })
}

/// Count one driven phase's requests and failures; `sent` is the index
/// of the phase's first submission and advances past it. Requests a
/// phase never sent are failures only where the rate is meant to be
/// sustainable (the nominal phase); on the ladder they mark the limit.
fn tally(
    out: &mut Outcome,
    phase: &str,
    (writes, reads, acks): (&Drive, &Drive, &[String]),
    subs: &[Sub],
    sent: &mut usize,
    unsent_fails: bool,
) {
    out.attempt(writes.records.len() + reads.records.len());
    out.fail(
        writes.bad() + reads.bad(),
        &format!("{phase}: rejected replies"),
    );
    let wrong = acks
        .iter()
        .enumerate()
        .filter(|(k, ack)| !ack_matches(ack, *sent + k, subs[*sent + k].release))
        .count();
    out.fail(wrong, &format!("{phase}: acks not echoing id and release"));
    if unsent_fails {
        out.attempt(writes.unsent + reads.unsent);
        out.fail(
            writes.unsent + reads.unsent,
            &format!("{phase}: requests never sent"),
        );
    }
    for e in writes.error.iter().chain(&reads.error) {
        out.attempt(1);
        out.fail(1, &format!("{phase}: transport error {e}"));
    }
    *sent += acks.len();
}

/// In-process serve-layer timings (traced run only).
struct LayerTimes {
    parse_ns_p50: f64,
    session_submit_ns: (f64, f64),
    journal_load_s: f64,
    replay_offer_s: f64,
}

fn serve_spec() -> ServeSpec {
    // What `iosched serve` builds from its flags.
    ServeSpec {
        platform: Platform::intrepid(),
        policy: PolicyFactory::parse(POLICY).expect("known policy"),
        accel: 0.0,
        config: SimConfig {
            telemetry: true,
            ..SimConfig::default()
        },
    }
}

fn layer_times(
    ctx: &Ctx<'_>,
    files: &Files,
    subs: &[Sub],
    rec: &Recorder,
) -> Result<LayerTimes, String> {
    let spec = serve_spec();
    let root = rec.root("serve.inprocess");

    let span = rec.child(&root, "serve.parse_request");
    let mut parse_ns = Vec::with_capacity(subs.len());
    let mut parsed = Vec::with_capacity(subs.len());
    for sub in subs {
        let started = Instant::now();
        let request = parse_request(sub.line.trim_end());
        parse_ns.push(started.elapsed().as_nanos() as f64);
        match request {
            Ok(Request::Submit {
                submission,
                release,
            }) => parsed.push((submission, release)),
            other => return Err(format!("own submit line did not parse: {other:?}")),
        }
    }
    rec.close(span);

    let scratch = ctx.work.join("session.jsonl");
    let _ = std::fs::remove_file(&scratch);
    let span = rec.child(&root, "serve.session_submit");
    let mut policy = spec.policy.build_online(&spec.platform)?;
    let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config)
        .map_err(|e| e.to_string())?;
    let mut session = Session::new(sim, Journal::create(&scratch, &spec)?, &[])?;
    let mut submit_ns = Vec::with_capacity(parsed.len());
    for (submission, release) in parsed {
        let started = Instant::now();
        session.submit(submission, release, Time::ZERO)??;
        submit_ns.push(started.elapsed().as_nanos() as f64);
    }
    drop(session);
    rec.close(span);

    let mut load_s = Vec::new();
    let mut contents = None;
    for _ in 0..3 {
        let span = rec.child(&root, "serve.journal_load");
        let started = Instant::now();
        contents = Some(Journal::load(&files.journal)?);
        load_s.push(started.elapsed().as_secs_f64());
        rec.close(span);
    }
    let contents = contents.expect("loaded at least once");
    // Replay into a copy, so the session's own journal stays untouched.
    let copy = ctx.work.join("replay-copy.jsonl");
    std::fs::copy(&files.journal, &copy).map_err(|e| e.to_string())?;
    let mut offer_s = Vec::new();
    for _ in 0..3 {
        let mut policy = spec.policy.build_online(&spec.platform)?;
        let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config)
            .map_err(|e| e.to_string())?;
        let journal = Journal::reopen(&copy, &contents)?;
        let span = rec.child(&root, "serve.session_new");
        let started = Instant::now();
        let session = Session::new(sim, journal, &contents.arrivals)?;
        offer_s.push(started.elapsed().as_secs_f64());
        rec.close(span);
        drop(session);
    }
    rec.close(root);
    Ok(LayerTimes {
        parse_ns_p50: stats::median(&mut parse_ns),
        session_submit_ns: (
            stats::percentile(&mut submit_ns, 0.5),
            stats::percentile(&mut submit_ns, 0.99),
        ),
        journal_load_s: stats::median(&mut load_s),
        replay_offer_s: stats::median(&mut offer_s),
    })
}

/// Engine-layer view of the session: the journal replayed in process
/// with the policy wrapped by the timing adaptor. Its final line must
/// equal the daemon's (observation only).
struct ReplayTimes {
    final_line: String,
    calls: u64,
    allocate_ns: u64,
    hist: (f64, f64),
    pending_mean: f64,
    events: usize,
    peak_live: usize,
    simulate_ns: u64,
}

fn traced_replay(journal: &Path, rec: &Recorder) -> Result<ReplayTimes, String> {
    let contents = Journal::load(journal)?;
    let accepted = contents.arrivals.len();
    let spec = contents.spec;
    let mut timed = Timed::new(spec.policy.build_online(&spec.platform)?);
    let root = rec.root("serve.replay");
    let sim = rec.child(&root, "sim.simulate");
    let started = Instant::now();
    let outcome = simulate_stream(
        &spec.platform,
        contents.arrivals.into_iter(),
        &mut timed,
        &spec.config,
    )
    .map_err(|e| e.to_string())?;
    let simulate_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    rec.aggregate(
        &sim,
        "core.allocate",
        timed.stats.calls,
        timed.stats.busy_ns,
    );
    rec.close(sim);
    rec.close(root);
    let s = &timed.stats;
    Ok(ReplayTimes {
        final_line: final_line(&outcome, accepted),
        calls: s.calls,
        allocate_ns: s.busy_ns,
        hist: (s.hist.quantile(0.5) as f64, s.hist.quantile(0.99) as f64),
        pending_mean: s.pending_sum as f64 / s.calls.max(1) as f64,
        events: outcome.events,
        peak_live: crate::campaign::peak_live(&outcome),
        simulate_ns,
    })
}

/// Time `SETUPS` fresh daemon starts (spawn → first `status` ack), each
/// drained after.
fn setups(
    ctx: &Ctx<'_>,
    files: &Files,
    times: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    for _ in 0..SETUPS {
        let fresh = Files {
            socket: files.socket.clone(),
            journal: ctx.work.join(format!("setup-{}.jsonl", times.len())),
        };
        let daemon = spawn_daemon(ctx, &fresh)?;
        times.push(daemon.ready_s);
        let drained = stop_daemon(&fresh, daemon, DRAIN)?;
        out.check(
            "set-up daemon drains",
            drained.starts_with(r#"{"ok":"drain""#),
        );
    }
    Ok(())
}

/// Latencies sit in windows of this many requests; a window's p99 has
/// ten samples beyond it.
const WINDOW: usize = 1000;

/// Median-over-windows p99 of a drive's due→reply latencies, µs.
fn window_p99(d: &Drive) -> Option<(f64, usize)> {
    stats::windowed(&d.latencies_us(), WINDOW, 0.99)
}

/// Run the workload. Traced, also take the in-process layer timings and
/// report per-layer metrics instead of end-to-end ones.
pub fn run(ctx: &Ctx<'_>, traced: bool) -> Result<Outcome, String> {
    // The client and every daemon share one CPU. Spread over two vCPUs,
    // each round trip wakes a halted vCPU up to three times, and what
    // that costs depends on the host's load: a burst's rate then jumps
    // between ~10k/s and ~33k/s from one burst to the next.
    let cpu = host::pin_to_one_cpu();
    let recorder = Recorder::default();
    let rec = traced.then_some(&recorder);
    let mut out = Outcome::default();
    let files = Files {
        socket: ctx.work.join("d.sock"),
        journal: ctx.work.join("journal.jsonl"),
    };
    // Every submission the session sends, generated before any timing.
    let nominal_for = Duration::from_secs_f64(NOMINAL_SHARE * ctx.seconds);
    let nominal_n = (NOMINAL_RATE * nominal_for.as_secs_f64()).floor() as usize;
    let subs = submissions(ctx.seed, nominal_n);
    let ladder_subs = submissions(splitmix(ctx.seed), RUNG_REQUESTS * LADDER.len());
    // Every saturation daemon receives the same submissions.
    let saturation_subs = submissions(
        splitmix(splitmix(ctx.seed)),
        SATURATION_BURSTS * SATURATION_REQUESTS,
    );

    // 1. Set-up: fresh daemons until their first read is answered,
    // timed in three batches spread over the run.
    let mut setup_s = Vec::with_capacity(3 * SETUPS);
    setups(ctx, &files, &mut setup_s, &mut out)?;

    // 2. Nominal phase: writes and reads side by side, then the daemon's
    // own view of them, then a drain.
    let daemon = spawn_daemon(ctx, &files)?;
    let (writes, reads, acks) = drive_phase(
        connect_pair(&files)?,
        &subs,
        NOMINAL_RATE,
        Duration::from_millis(200),
    );
    let scrape = UnixStream::connect(&files.socket)
        .and_then(Conn::new)
        .and_then(|mut c| c.request("{\"cmd\":\"metrics\"}\n").map(str::to_string))
        .map_err(|e| format!("metrics request: {e}"))?;
    let snapshot = serde_json::parse(&scrape)
        .ok()
        .and_then(|v| MetricsSnapshot::from_value(serde::map_get(v.as_map()?, "metrics")).ok())
        .ok_or_else(|| format!("unreadable metrics reply: {scrape}"))?;
    let drained = stop_daemon(&files, daemon, DRAIN)?;
    out.check(
        "nominal daemon drains",
        drained.starts_with(r#"{"ok":"drain""#),
    );
    let mut sent = 0usize;
    tally(
        &mut out,
        "nominal",
        (&writes, &reads, &acks),
        &subs,
        &mut sent,
        true,
    );
    let journaled = sent;

    setups(ctx, &files, &mut setup_s, &mut out)?;

    // In-process layer timings sit between the daemon phases, never
    // beside them.
    let layers = rec
        .map(|rec| layer_times(ctx, &files, &subs[..journaled], rec))
        .transpose()?;

    // 3. Restarts on the journal; the last one shuts down, and its final
    // line must be what a batch replay of the journal prints.
    let mut resume_s = Vec::with_capacity(RESTARTS);
    let mut final_reply = String::new();
    for k in 0..RESTARTS {
        let daemon = spawn_daemon(ctx, &files)?;
        resume_s.push(daemon.ready_s);
        out.check(
            "restarted daemon recovered every journaled arrival",
            reply_number(&daemon.first_status, "journaled") == Some(journaled as f64),
        );
        if k + 1 < RESTARTS {
            let drained = stop_daemon(&files, daemon, DRAIN)?;
            out.check(
                "restarted daemon drains",
                drained.starts_with(r#"{"ok":"drain""#),
            );
        } else {
            final_reply = stop_daemon(&files, daemon, "{\"cmd\":\"shutdown\"}\n")?;
        }
    }
    let mut replay = Command::new(ctx.iosched)
        .args(["serve", "--replay", "--journal"])
        .arg(&files.journal)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("running --replay: {e}"))?;
    // The output is one line: it fits the pipe, so waiting first is safe.
    let replay_ok = wait_or_kill(&mut replay, DAEMON_LIMIT)
        .map_err(|e| e.to_string())?
        .is_some_and(|s| s.success());
    let mut replayed = String::new();
    if let Some(mut stdout) = replay.stdout.take() {
        stdout
            .read_to_string(&mut replayed)
            .map_err(|e| format!("reading --replay output: {e}"))?;
    }
    out.check(
        "resumed session's final line equals iosched serve --replay",
        replay_ok && final_reply.starts_with(r#"{"final":"#) && final_reply == replayed.trim_end(),
    );

    // 4. The ladder, on a fresh daemon: a fixed number of submits per
    // rung, all of them sent however late, so the session (and the
    // daemon's memory) is the same whichever rung misses.
    let ladder_files = Files {
        socket: files.socket.clone(),
        journal: ctx.work.join("ladder.jsonl"),
    };
    let daemon = spawn_daemon(ctx, &ladder_files)?;
    let mut best: Option<(f64, f64)> = None;
    let mut rungs = Vec::new();
    let mut ladder_sent = 0usize;
    for &rate in &LADDER {
        let batch = &ladder_subs[ladder_sent..ladder_sent + RUNG_REQUESTS];
        let (w, r, acks) = drive_phase(connect_pair(&ladder_files)?, batch, rate, REPLY_LIMIT);
        tally(
            &mut out,
            "ladder",
            (&w, &r, &acks),
            &ladder_subs,
            &mut ladder_sent,
            true,
        );
        let p99 = window_p99(&w).map_or(f64::INFINITY, |(v, _)| v);
        // Still more than a latency limit's worth of requests behind
        // when the schedule ended: the backlog was growing.
        let passed = p99 <= LIMIT_US && (w.backlog_end as f64) <= (rate * LIMIT_US / 1e6).max(2.0);
        rungs.push(format!(
            "{rate:.0}/s: achieved {:.0}/s, window p99 {p99:.0} us, backlog max {} end {} -> {}",
            w.achieved_rate(),
            w.backlog_max,
            w.backlog_end,
            if passed { "pass" } else { "miss" }
        ));
        if passed {
            best = Some((rate, w.achieved_rate()));
        }
    }
    let drained = stop_daemon(&ladder_files, daemon, DRAIN)?;
    out.check(
        "ladder daemon drains",
        drained.starts_with(r#"{"ok":"drain""#),
    );

    // 5. Saturation: bursts on fresh connection pairs (the daemon starts
    // a reader thread per connection), `SATURATION_BURSTS` per fresh
    // daemon, until the phase's share of the run is spent.
    let saturation_for = Duration::from_secs_f64(SATURATION_SHARE * ctx.seconds);
    let started = Instant::now();
    let mut bursts = Vec::new();
    let mut daemons = 0usize;
    while bursts.is_empty() || started.elapsed() < saturation_for {
        let files = Files {
            socket: files.socket.clone(),
            journal: ctx.work.join("saturation.jsonl"),
        };
        let _ = std::fs::remove_file(&files.journal);
        let daemon = spawn_daemon(ctx, &files)?;
        let mut sent = 0usize;
        for _ in 0..SATURATION_BURSTS {
            let batch = &saturation_subs[sent..sent + SATURATION_REQUESTS];
            let (w, r, acks) =
                drive_phase(connect_pair(&files)?, batch, SATURATION_RATE, REPLY_LIMIT);
            tally(
                &mut out,
                "saturation",
                (&w, &r, &acks),
                &saturation_subs,
                &mut sent,
                true,
            );
            bursts.push(w.achieved_rate());
        }
        let drained = stop_daemon(&files, daemon, DRAIN)?;
        out.check(
            "saturation daemon drains",
            drained.starts_with(r#"{"ok":"drain""#),
        );
        daemons += 1;
    }
    let capacity = stats::median(&mut bursts);
    setups(ctx, &files, &mut setup_s, &mut out)?;
    let rss_mib = host::child_usage().max_rss_kib as f64 / 1024.0;

    let lat = writes.latency_us().ok_or("no submit was answered")?;
    let (lat_tail, lat_windows) = window_p99(&writes).ok_or("no submit was answered")?;
    let rtt = writes.round_trip_us().ok_or("no submit was answered")?;
    let late = writes.late_us().ok_or("no submit was answered")?;
    let read = reads.latency_us().ok_or("no status read was answered")?;
    let (read_tail, read_windows) = window_p99(&reads).ok_or("no status read was answered")?;
    let submit_hist = snapshot
        .histogram("serve.request.submit.ns")
        .cloned()
        .unwrap_or_default();
    let append_hist = snapshot
        .histogram("serve.journal.append.ns")
        .cloned()
        .unwrap_or_default();
    let setup = stats::median(&mut setup_s);
    let resume = stats::median(&mut resume_s);
    let max_rate = best.map_or(0.0, |(_, achieved)| achieved);

    out.line(format!(
        "client: 1 process, 2 threads, 2 connections; daemon {PLATFORM}/{POLICY}, frozen clock; {}",
        cpu.map_or_else(
            || "not pinned (affinity unavailable)".to_string(),
            |cpu| format!("client and daemons pinned to CPU {cpu}")
        )
    ));
    out.line(format!(
        "set-up: median {:.2} ms over {} fresh daemons",
        setup * 1e3,
        3 * SETUPS
    ));
    out.line(format!(
        "submit @ {NOMINAL_RATE:.0}/s from due: p50 {:.1} us, p99 {lat_tail:.1} us \
         (median of {lat_windows} windows of {WINDOW}; whole-run {} {:.1} us, n={}); \
         send->ack p50 {:.1} us; generator late {} {:.1} us, backlog max {}",
        lat.p50,
        lat.tail_label,
        lat.tail,
        lat.n,
        rtt.p50,
        late.tail_label,
        late.tail,
        writes.backlog_max
    ));
    out.line(format!(
        "status @ {STATUS_RATE:.0}/s from due: p50 {:.1} us, p99 {read_tail:.1} us \
         (median of {read_windows} windows; whole-run {} {:.1} us, n={})",
        read.p50, read.tail_label, read.tail, read.n
    ));
    out.line(format!(
        "daemon-side (log2 buckets): submit mean {:.1} us, p99 <= {:.1} us; journal append p99 <= {:.1} us",
        submit_hist.mean() / 1e3,
        submit_hist.quantile(0.99) as f64 / 1e3,
        append_hist.quantile(0.99) as f64 / 1e3
    ));
    out.line(format!(
        "resume: median {:.2} ms over {RESTARTS} restarts on {journaled} journaled arrivals",
        resume * 1e3
    ));
    for rung in &rungs {
        out.line(format!("ladder {rung}"));
    }
    out.line(format!(
        "saturation: median {capacity:.1} submits/s acknowledged when offered {SATURATION_RATE:.0}/s \
         ({} bursts of {SATURATION_REQUESTS} on {daemons} daemons; quartiles {:.0} {:.0})",
        bursts.len(),
        stats::percentile(&mut bursts, 0.25),
        stats::percentile(&mut bursts, 0.75)
    ));
    out.line(format!(
        "max sustainable submit rate: {} (limit: window p99 <= {LIMIT_US:.0} us, no growing backlog)",
        best.map_or_else(
            || "none".to_string(),
            |(rate, achieved)| format!("{rate:.0}/s rung, {achieved:.1}/s achieved")
        )
    ));

    let Some(rec) = rec else {
        out.metrics = vec![
            ("setup_s", setup),
            ("throughput_per_s", capacity),
            ("peak_rss_mib", rss_mib),
        ];
        return Ok(out);
    };

    let layers = layers.expect("taken in traced runs");
    let replay = traced_replay(&files.journal, rec)?;
    out.check(
        "traced replay's final line equals the daemon's (observation only)",
        replay.final_line == final_reply,
    );
    let spans = rec.spans();
    std::fs::write(&ctx.trace_out, trace::to_jsonl(&spans)).map_err(|e| e.to_string())?;
    out.line(format!(
        "{} spans written to {}",
        spans.len(),
        ctx.trace_out.display()
    ));
    let sim_self = replay.simulate_ns.saturating_sub(replay.allocate_ns);
    out.metrics = vec![
        ("core.allocate_calls", replay.calls as f64),
        ("core.allocate_s", replay.allocate_ns as f64 / 1e9),
        ("core.allocate_ns_p50", replay.hist.0),
        ("core.allocate_ns_p99", replay.hist.1),
        ("core.pending_mean", replay.pending_mean),
        ("sim.events", replay.events as f64),
        ("sim.self_s", sim_self as f64 / 1e9),
        (
            "sim.self_ns_per_event",
            sim_self as f64 / replay.events.max(1) as f64,
        ),
        ("sim.peak_live", replay.peak_live as f64),
        ("serve.parse_ns_p50", layers.parse_ns_p50),
        ("serve.session_submit_ns_p50", layers.session_submit_ns.0),
        ("serve.session_submit_ns_p99", layers.session_submit_ns.1),
        (
            "serve.daemon_submit_ns_p99",
            submit_hist.quantile(0.99) as f64,
        ),
        (
            "serve.journal_append_ns_p99",
            append_hist.quantile(0.99) as f64,
        ),
        ("serve.transport_us_p50", rtt.p50 - submit_hist.mean() / 1e3),
        ("serve.journal_load_s", layers.journal_load_s),
        ("serve.replay_offer_s", layers.replay_offer_s),
        ("serve.submit_p50_us", lat.p50),
        ("serve.submit_p99_us", lat_tail),
        ("serve.status_p99_us", read_tail),
        ("serve.resume_s", resume),
        ("serve.max_rate_per_s", max_rate),
        ("loadgen.late_p99_us", late.tail),
        ("loadgen.backlog_max", writes.backlog_max as f64),
    ];
    Ok(out)
}
