//! Deeply nested JSON on the command line's file inputs: the parser
//! stops at 128 levels with an error, so the CLI prints `error: …` and
//! exits 1 instead of overflowing its stack and aborting (exit 134).

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_iosched");

#[test]
fn deeply_nested_inputs_exit_with_an_error() {
    let dir = std::env::temp_dir().join(format!("iosched-deep-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(400_000)).expect("write deep file");
    for args in [&["campaign"][..], &["simulate"], &["stream"]] {
        let mut cmd = Command::new(EXE);
        cmd.args(args).arg(&path);
        if args == ["simulate"] {
            cmd.args(["--policy", "maxsyseff"]);
        }
        let out = cmd.output().expect("iosched runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains("recursion limit"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
