//! The exit-code contract of `campaign_ctl`, asserted end to end.
//!
//! `crates/bench/src/exit.rs` documents the vocabulary — 0 success, 1 internal,
//! 2 usage, 3 findings, 4 degraded — and scripts and CI gates branch on it, so
//! every code is pinned here against the real binary.

use bsm_engine::{CampaignBuilder, Executor, StreamingExporter};
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsm-ctl-exit-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn code_of(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
        .args(args)
        .output()
        .expect("campaign_ctl spawns")
        .status
        .code()
        .expect("campaign_ctl was not signal-killed")
}

/// Writes a tiny in-process report (one size, one seed) to `path`.
fn write_report(path: &Path, seed_start: u64) {
    let campaign = CampaignBuilder::new().sizes([2]).seeds(seed_start..seed_start + 1).build();
    let (report, _) = Executor::new().threads(1).run(&campaign);
    std::fs::write(path, bsm_engine::to_json(&report)).unwrap();
}

/// Writes the same tiny campaign as a streamed `report.jsonl` export to `path`,
/// tagged with `scenario` when given.
fn write_stream(path: &Path, scenario: Option<&str>) {
    let campaign = CampaignBuilder::new().sizes([2]).seeds(0..1).build();
    let mut buf = Vec::new();
    let mut exporter = StreamingExporter::new(&mut buf);
    if let Some(tag) = scenario {
        exporter.set_scenario(tag);
    }
    Executor::new().threads(1).run_streaming(&campaign, |cell| exporter.write_cell(&cell)).unwrap();
    exporter.finish().unwrap();
    std::fs::write(path, buf).unwrap();
}

#[test]
fn success_is_0() {
    let dir = scratch("success");
    let report = dir.join("a.json");
    write_report(&report, 0);
    let path = report.to_str().unwrap();
    let stream = dir.join("a.jsonl");
    write_stream(&stream, None);
    let merged = dir.join("merged");
    assert_eq!(code_of(&["merge", stream.to_str().unwrap(), "--out", merged.to_str().unwrap()]), 0);
    assert_eq!(code_of(&["diff", path, path]), 0, "identical reports are not findings");
    let merged_json = merged.join("report.json");
    assert_eq!(
        code_of(&["diff", path, merged_json.to_str().unwrap()]),
        0,
        "a merged stream diffs clean against the document export"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn internal_errors_are_1() {
    let dir = scratch("internal");
    let missing = dir.join("nope.json");
    let missing = missing.to_str().unwrap();
    assert_eq!(code_of(&["merge", missing, "--out", dir.join("out").to_str().unwrap()]), 1);
    assert_eq!(code_of(&["stats", missing]), 1);
    // Shards of different scenarios must not splice into one report.
    let (tagged, untagged) = (dir.join("tagged.jsonl"), dir.join("untagged.jsonl"));
    write_stream(&tagged, Some("name = \"x\""));
    write_stream(&untagged, None);
    let out = dir.join("mixed");
    let mixed = [tagged.to_str().unwrap(), untagged.to_str().unwrap()];
    assert_eq!(code_of(&["merge", mixed[0], mixed[1], "--out", out.to_str().unwrap()]), 1);
    // A nesting bomb is a positioned syntax error, not a stack overflow.
    for name in ["deep.json", "deep.jsonl"] {
        let deep = dir.join(name);
        std::fs::write(&deep, "[".repeat(200_000)).unwrap();
        let deep = deep.to_str().unwrap();
        assert_eq!(code_of(&["diff", deep, deep]), 1, "diff on nested {name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_are_2() {
    // The invocation itself is wrong: before any work starts, exit 2.
    assert_eq!(code_of(&["frobnicate"]), 2, "unknown subcommand");
    assert_eq!(code_of(&["run", "--smoke", "--frobnicate"]), 2, "unknown flag");
    assert_eq!(code_of(&["run", "--smoke", "--stream"]), 2, "every run streams; no flag");
    assert_eq!(code_of(&["run", "--smoke", "--budget", "9"]), 2, "fuzz flag on run");
    assert_eq!(code_of(&["run", "--smoke", "--shards", "2"]), 2, "supervise flag on run");
    assert_eq!(code_of(&["supervise", "--smoke"]), 2, "supervise requires --shards");
    assert_eq!(code_of(&["fuzz", "--smoke"]), 2, "fuzz requires --budget");
}

#[test]
fn findings_are_3() {
    let dir = scratch("findings");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    write_report(&a, 0);
    write_report(&b, 1);
    let diff = code_of(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(diff, 3, "differing reports are findings, not failures");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_supervised_runs_are_4() {
    let dir = scratch("degraded");
    // One shard, and both allowed attempts die before doing any work: the
    // supervisor quarantines it and reports graceful degradation.
    let code = code_of(&[
        "supervise",
        "--smoke",
        "--shards",
        "1",
        "--chaos",
        "1:1:early,1:2:early",
        "--max-attempts",
        "2",
        "--backoff-ms",
        "0",
        "--poll-ms",
        "25",
        "--out",
        dir.join("sup").to_str().unwrap(),
    ]);
    assert_eq!(code, 4);
    let _ = std::fs::remove_dir_all(&dir);
}
