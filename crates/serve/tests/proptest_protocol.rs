//! Protocol robustness: no line of input — random bytes, mutated valid
//! requests, structurally valid but semantically absurd submissions —
//! may ever panic the parser or kill a session. Malformed lines must
//! come back as actionable errors; the daemon answers and lives on.

use iosched_core::registry::PolicyFactory;
use iosched_model::{Platform, Time};
use iosched_serve::journal::{Journal, ServeSpec};
use iosched_serve::protocol::parse_request;
use iosched_serve::session::Session;
use iosched_sim::{SimConfig, Simulation};
use iosched_workload::AppSubmission;
use proptest::prelude::*;

const TEMPLATES: &[&str] = &[
    r#"{"cmd":"submit","procs":100,"work":8.0,"vol":20.0,"count":3}"#,
    r#"{"cmd":"submit","procs":64,"instances":[[10.0,5.0],[0.0,2.5]],"release":3600}"#,
    r#"{"cmd":"status"}"#,
    r#"{"cmd":"telemetry","follow":true}"#,
    r#"{"cmd":"metrics"}"#,
    r#"{"cmd":"checkpoint"}"#,
    r#"{"cmd":"drain"}"#,
    r#"{"cmd":"shutdown"}"#,
];

proptest! {
    /// Arbitrary byte soup: the parser returns a non-empty, printable
    /// error (or a valid request) — it never panics.
    #[test]
    fn random_bytes_never_panic_the_parser(bytes in prop::collection::vec(0u64..256, 0..120)) {
        let raw: Vec<u8> = bytes.iter().map(|b| *b as u8).collect();
        let line = String::from_utf8_lossy(&raw);
        if let Err(e) = parse_request(&line) {
            prop_assert!(!e.is_empty());
        }
    }

    /// Single-byte mutations of valid requests: every outcome is a
    /// clean parse or a clean error.
    #[test]
    fn mutated_valid_lines_never_panic_the_parser(
        template in 0usize..TEMPLATES.len(),
        pos in 0u64..200,
        replacement in 0u64..256,
    ) {
        let mut raw = TEMPLATES[template].as_bytes().to_vec();
        let pos = (pos as usize) % raw.len();
        raw[pos] = replacement as u8;
        let line = String::from_utf8_lossy(&raw);
        if let Err(e) = parse_request(&line) {
            prop_assert!(!e.is_empty());
        }
    }

    /// Nesting from 1 to 10^5 levels, bare or inside a submit field,
    /// closed or left open: past 128 levels the parser answers with a
    /// recursion-limit error instead of recursing until the stack
    /// overflows (an abort no daemon could catch).
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow(
        depth in 1u64..100_000,
        shape in 0u64..4,
    ) {
        let depth = depth as usize;
        let (open, close) = if shape % 2 == 0 { ("[", "]") } else { (r#"{"k":"#, "}") };
        let inner = if shape % 2 == 0 { "" } else { "0" };
        let nested = format!("{}{inner}{}", open.repeat(depth), close.repeat(depth));
        let line = if shape < 2 {
            nested
        } else {
            format!(r#"{{"cmd":"submit","procs":{nested},"work":1,"vol":1}}"#)
        };
        let err = parse_request(&line).expect_err("no nesting makes a valid request");
        // The submit wrapper adds one level of its own.
        let levels = depth + usize::from(shape >= 2);
        if levels > 128 {
            prop_assert!(err.contains("recursion limit"), "{levels} levels: {err}");
        } else {
            prop_assert!(!err.contains("recursion limit"), "{levels} levels: {err}");
        }
    }

    /// Structurally valid submits with hostile numerics parse or are
    /// rejected with the offending field named — and an accepted parse
    /// always yields a submission the engine can validate (no panics
    /// downstream either).
    #[test]
    fn hostile_submit_numerics_parse_or_name_the_field(
        procs in -3.0f64..1e7,
        work in -1.0f64..1e6,
        vol in -1.0f64..1e6,
        count in -2.0f64..40.0,
        scale in 0u64..7,
    ) {
        // Push values through extreme magnitudes, including NaN/inf.
        let warp = |x: f64| match scale {
            0 => x,
            1 => x * 1e300,
            2 => x * 1e-300,
            3 => x / 0.0,
            4 => f64::NAN,
            5 => -x,
            _ => x.fract(),
        };
        let line = format!(
            r#"{{"cmd":"submit","procs":{},"work":{},"vol":{},"count":{}}}"#,
            warp(procs), warp(work), warp(vol), warp(count),
        );
        // `format!` can print NaN/inf spellings that are not JSON; both
        // a parse error and a field rejection are fine, a panic is not.
        match parse_request(&line) {
            Ok(req) => {
                let iosched_serve::protocol::Request::Submit { submission, .. } = req else {
                    return Err(TestCaseError::fail("submit parsed as something else"));
                };
                let app = submission.into_app(0, Time::secs(1.0));
                let _ = app.validate();
            }
            Err(e) => prop_assert!(!e.is_empty(), "empty error for {line}"),
        }
    }
}

/// A fixed corpus of nasty lines fed through a *live session*: every
/// one must be answered (error or acknowledgement) with the session
/// still accepting good submissions afterwards — the in-process
/// statement of "malformed input never kills the daemon".
#[test]
fn nasty_lines_never_kill_a_live_session() {
    let platform = Platform::intrepid();
    let policy = PolicyFactory::parse("maxsyseff").unwrap();
    let config = SimConfig::default();
    let spec = ServeSpec {
        platform: platform.clone(),
        policy,
        accel: 0.0,
        config: config.clone(),
    };
    let dir = std::env::temp_dir().join(format!("iosched-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fuzz.jsonl");
    let _ = std::fs::remove_file(&path);

    let mut policy = policy.build_online(&platform).unwrap();
    let sim = Simulation::open(&platform, policy.as_mut(), &config).unwrap();
    let journal = Journal::create(&path, &spec).unwrap();
    let mut session = Session::new(sim, journal, &[]).unwrap();

    let deep = "[".repeat(100_000);
    let deep_submit = format!(
        r#"{{"cmd":"submit","procs":{}1{},"work":1,"vol":1}}"#,
        "[".repeat(200),
        "]".repeat(200)
    );
    let nasty = [
        deep.as_str(),
        deep_submit.as_str(),
        "",
        "\u{0}\u{1}\u{2}",
        "{",
        "}{",
        "null",
        "true",
        "[[[[[[[[",
        r#"{"cmd":"submit"}"#,
        r#"{"cmd":"submit","procs":1e308,"work":1,"vol":1}"#,
        r#"{"cmd":"submit","procs":100,"work":-0.0,"vol":1e999}"#,
        r#"{"cmd":"submit","procs":100,"work":1,"vol":1,"release":0}"#,
        r#"{"cmd":"submit","procs":99999999,"work":1,"vol":1}"#,
        r#"{"cmd":"submit","procs":100,"work":1,"vol":1,"instances":[[1,1]]}"#,
        r#"{"cmd":"shutdown","force":true}"#,
        r#"{"cmd":"systemctl","unit":"iosched"}"#,
        r#"{"cmd":"submit","procs":100,"work":1,"vol":1,"count":99999999999999999999}"#,
    ];
    for line in [deep.as_str(), deep_submit.as_str()] {
        let err = parse_request(line).expect_err("deep nesting is a protocol error");
        assert!(err.contains("recursion limit"), "{err}");
    }
    for line in nasty {
        if let Ok(iosched_serve::protocol::Request::Submit {
            submission,
            release,
        }) = parse_request(line)
        {
            // Semantically absurd but well-formed: the session may
            // accept or reject, never die.
            let _ = session.submit(submission, release, Time::ZERO);
        }
    }
    // The session still works.
    let good =
        AppSubmission::parse_json(r#"{"procs":128,"work":60.0,"vol":512.0,"count":3}"#).unwrap();
    session
        .submit(good, Some(Time::secs(30.0)), Time::ZERO)
        .unwrap()
        .unwrap();
    let (outcome, accepted) = session.finish().unwrap();
    assert!(accepted >= 1);
    assert_eq!(outcome.report.per_app.len(), accepted);
}
