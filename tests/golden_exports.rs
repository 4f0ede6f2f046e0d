//! Golden pins of the `iosched campaign --json` export against a fixed
//! earlier program.
//!
//! `campaign_spec.rs` checks that two drivers agree with each other; a
//! change that moved the numbers on both would still pass there. These
//! digests were captured with `iosched campaign <spec> --json FILE` built
//! from commit `94b9999` (the export is `serde_json::to_string_pretty` of
//! the `CampaignResult` plus a trailing newline; the digest is FNV-1a 64
//! over the export without that newline). Each checked-in spec runs on a
//! seed cut: Fig. 6 on seeds 0–19 (480 runs), the others on their own
//! seed axes. A mismatch means the simulated schedule changed — an
//! intended model change must re-capture the digests and say why.

use iosched_bench::campaign::{run_campaign, CampaignSpec};
use iosched_bench::runner::ScenarioRunner;

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `examples/<name>` (seed axis replaced by `seeds` when given) and
/// assert the digest of its `--json` export.
fn assert_export_digest(name: &str, seeds: Option<std::ops::Range<u64>>, expected: u64) {
    let path = format!("{}/examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut spec = CampaignSpec::from_json(&json).unwrap_or_else(|e| panic!("{path}: {e}"));
    if let Some(seeds) = seeds {
        spec.seeds = seeds.collect();
    }
    let result = run_campaign(&spec, &ScenarioRunner::new()).expect("campaign runs");
    let export = serde_json::to_string_pretty(&result).expect("result serializes");
    let digest = fnv1a(export.as_bytes());
    assert_eq!(
        digest, expected,
        "{name}: export digest {digest:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn fig6_export_matches_the_pinned_digest() {
    assert_export_digest("campaign_fig6.json", Some(0..20), 0xe3c8_d73d_914c_f746);
}

#[test]
fn fig4_export_matches_the_pinned_digest() {
    assert_export_digest("campaign_fig4.json", None, 0xaf51_28f2_87f9_3990);
}

#[test]
fn control_export_matches_the_pinned_digest() {
    assert_export_digest("campaign_control.json", None, 0x1b77_cabd_81a5_b637);
}

#[test]
fn stream_export_matches_the_pinned_digest() {
    assert_export_digest("campaign_stream.json", None, 0x08f2_5df6_46da_36ee);
}
