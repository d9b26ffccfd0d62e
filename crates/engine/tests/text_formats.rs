//! Property tests of the one text layer (`bsm_core::mini_toml`) and both schemas on
//! top of it (`ScenarioFile`, `Script`):
//!
//! * totality — the reader and both schemas return (never panic) on arbitrary
//!   bytes and on every truncation and random single-byte mutation of the example
//!   scenarios and the frozen fuzz regressions, and every error's line lies within
//!   the input;
//! * canonical round trips — `parse(canonical(x)) == x` for generated scenario
//!   files and scripts covering every action kind, the optional `plan` and
//!   `verdict`, and names containing `"` and `\`.
//!
//! The JSON reader under every engine document gets the same totality treatment:
//! `from_json`, the `report.jsonl` stream readers, the `metrics.jsonl` readers,
//! `parse_progress` and `parse_supervise` each return (never panic) on every
//! truncation and random single-byte mutation of a corpus built from a small
//! campaign run, on arbitrary bytes, and on nesting bombs far deeper than any
//! stack.

use bsm_core::mini_toml;
use bsm_core::problem::{AuthMode, MAX_MARKET_SIZE};
use bsm_core::script::{Script, ScriptAction, Verdict};
use bsm_core::{AdversarySpec, ProtocolPlan};
use bsm_engine::{
    footer_meta, from_json, from_jsonl, parse_progress, parse_supervise, parse_telemetry_line,
    to_json, AttemptOutcome, AttemptRecord, CampaignBuilder, CampaignReport, CampaignStats,
    Executor, Heartbeat, QuarantinedShard, ScenarioFile, StreamError, StreamingCells,
    StreamingExporter, SuperviseSummary, TelemetryExporter,
};
use bsm_matching::Side;
use bsm_net::{CrashWindow, FaultSpec, PartitionWindow, PartyId, Topology};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The 3 example scenarios and the 5 frozen regressions, as `(path, text)`.
fn corpus() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let mut files = Vec::new();
    for dir in [root.join("examples/scenarios"), root.join("crates/core/tests/fuzz_regressions")] {
        for entry in std::fs::read_dir(&dir).expect("corpus directory is readable") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|ext| ext == "toml") {
                let text = std::fs::read_to_string(&path).expect("readable corpus file");
                files.push((path, text));
            }
        }
    }
    files.sort();
    assert_eq!(files.len(), 8, "3 example scenarios + 5 frozen regressions");
    files
}

/// Runs the reader and both schemas on `text`; every error must name a line of it.
fn assert_total(text: &str) {
    let lines = text.lines().count();
    let errors =
        [mini_toml::parse(text).err(), ScenarioFile::parse(text).err(), Script::parse(text).err()];
    for err in errors.into_iter().flatten() {
        assert!(err.line <= lines, "{err} is past the last line ({lines}) of {text:?}");
    }
}

#[test]
fn every_truncation_of_the_corpus_is_handled() {
    for (_, text) in corpus() {
        for end in (0..=text.len()).filter(|&end| text.is_char_boundary(end)) {
            assert_total(&text[..end]);
        }
    }
}

/// Bytes biased toward the grammar's punctuation, so mutations reach deep states.
const INTERESTING: &[u8] = b"[]\"\\=#,\n\r\t 0123456789tfx-_";

/// Arbitrary byte strings, half drawn from [`INTERESTING`].
struct Bytes;

impl Strategy for Bytes {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let len = rng.random_range(0..160usize);
        (0..len)
            .map(|_| match rng.random_range(0..2u8) {
                0 => INTERESTING[rng.random_range(0..INTERESTING.len())],
                _ => rng.random_range(0..=255u8),
            })
            .collect()
    }
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

/// A name that needs escaping more often than not.
fn name(rng: &mut TestRng) -> String {
    let len = rng.random_range(0..12usize);
    (0..len).map(|_| pick(rng, &['a', 'Z', '7', ' ', '"', '\\', '#', '=', '[', ',', 'é'])).collect()
}

/// A non-empty, sorted, deduplicated subset of `all` (how the parser stores axes).
fn subset<T: Copy + Ord>(rng: &mut TestRng, all: &[T]) -> Vec<T> {
    let mut values: Vec<T> = (0..rng.random_range(1..=all.len())).map(|_| pick(rng, all)).collect();
    values.sort_unstable();
    values.dedup();
    values
}

/// A valid fault plan touching each axis with probability one half.
fn fault_plan(rng: &mut TestRng) -> FaultSpec {
    let mut spec = FaultSpec::NONE;
    let mut next = 0u32;
    for slot in 0..rng.random_range(0..=2usize) {
        let start = next + rng.random_range(0..1000u32);
        let duration = rng.random_range(1..100u32);
        spec.partitions[slot] = Some(PartitionWindow { start, duration });
        next = start + duration;
    }
    if rng.random_range(0..2u8) == 1 {
        let party = PartyId {
            side: pick(rng, &[Side::Left, Side::Right]),
            index: rng.random_range(0..=u32::MAX),
        };
        let start = rng.random_range(0..u32::MAX);
        let recovery =
            (rng.random_range(0..2u8) == 1).then(|| rng.random_range(start + 1..=u32::MAX));
        spec.crash = Some(CrashWindow { party, start, recovery });
    }
    if rng.random_range(0..2u8) == 1 {
        spec.loss_permille = rng.random_range(0..=1000u16);
    }
    if rng.random_range(0..2u8) == 1 {
        spec.jitter = rng.random_range(0..=255u8);
    }
    spec
}

/// Scenario files in parsed (normalized) form, always under the cell cap.
struct Scenarios;

impl Strategy for Scenarios {
    type Value = ScenarioFile;

    fn generate(&self, rng: &mut TestRng) -> ScenarioFile {
        let sizes: Vec<usize> = (0..4).map(|_| rng.random_range(0..=MAX_MARKET_SIZE)).collect();
        let corruptions: Vec<(usize, usize)> = (0..4)
            .map(|_| (rng.random_range(0..=usize::MAX), rng.random_range(0..20usize)))
            .collect();
        let mut faults: Vec<FaultSpec> =
            (0..rng.random_range(0..4usize)).map(|_| fault_plan(rng)).collect();
        if faults.is_empty() {
            faults.push(FaultSpec::NONE);
        }
        faults.sort_unstable();
        faults.dedup();
        ScenarioFile {
            name: name(rng),
            sizes: subset(rng, &sizes),
            topologies: subset(rng, &Topology::ALL),
            auth: subset(rng, &AuthMode::ALL),
            corruptions: subset(rng, &corruptions),
            adversaries: subset(rng, &AdversarySpec::ALL),
            seeds: rng.random_range(1..=100u64),
            faults,
        }
    }
}

const PLANS: [ProtocolPlan; 5] = [
    ProtocolPlan::DolevStrongBsm,
    ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Left },
    ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Right },
    ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Left },
    ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Right },
];

fn action(rng: &mut TestRng) -> ScriptAction {
    let number = |rng: &mut TestRng| match rng.random_range(0..3u8) {
        0 => rng.random_range(0..8u64),
        1 => u64::from(rng.random_range(0..=u32::MAX)),
        _ => rng.random_range(0..=u64::MAX),
    };
    let (slot, nth, by) = (number(rng), number(rng), number(rng));
    match rng.random_range(0..12u8) {
        0 => ScriptAction::Silence { from_slot: slot },
        1 => ScriptAction::Lie { seed: slot },
        2 => ScriptAction::Garbage { seed: slot, per_slot: nth },
        3 => ScriptAction::Corrupt {
            slot,
            side: pick(rng, &[Side::Left, Side::Right]),
            index: rng.random_range(0..=u32::MAX),
        },
        4 => ScriptAction::DropRecv { slot, nth },
        5 => ScriptAction::DelayRecv { slot, nth, by },
        6 => ScriptAction::Replay { slot, nth },
        7 => ScriptAction::DropSend { slot, nth },
        8 => ScriptAction::Equivocate { slot, nth },
        9 => ScriptAction::TruncateChain { slot, nth },
        10 => ScriptAction::ReorderChain { slot, nth },
        _ => ScriptAction::SwapSigTag { slot, nth },
    }
}

/// Scripts of every shape the format can express.
struct Scripts;

impl Strategy for Scripts {
    type Value = Script;

    fn generate(&self, rng: &mut TestRng) -> Script {
        let indices = |rng: &mut TestRng| -> Vec<u32> {
            (0..rng.random_range(0..4usize)).map(|_| rng.random_range(0..=u32::MAX)).collect()
        };
        let verdict = (rng.random_range(0..2u8) == 1).then(|| Verdict {
            decided: rng.random_range(0..2u8) == 1,
            slots: rng.random_range(0..=u64::MAX),
            violations: (0..rng.random_range(0..3usize)).map(|_| name(rng)).collect(),
        });
        Script {
            name: name(rng),
            k: rng.random_range(0..=MAX_MARKET_SIZE),
            topology: pick(rng, &Topology::ALL),
            auth: pick(rng, &AuthMode::ALL),
            t_l: rng.random_range(0..=usize::MAX),
            t_r: rng.random_range(0..8usize),
            plan: (rng.random_range(0..2u8) == 1).then(|| pick(rng, &PLANS)),
            corrupt_left: indices(rng),
            corrupt_right: indices(rng),
            seed: rng.random_range(0..=u64::MAX),
            actions: (0..rng.random_range(0..8usize)).map(|_| action(rng)).collect(),
            verdict,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn single_byte_mutations_of_the_corpus_are_handled(
        file in 0..8usize,
        position in any::<usize>(),
        byte in any::<u8>(),
        interesting in any::<bool>(),
    ) {
        let (_, text) = &corpus()[file];
        let mut bytes = text.clone().into_bytes();
        let byte = if interesting { INTERESTING[usize::from(byte) % INTERESTING.len()] } else { byte };
        let position = position % bytes.len();
        bytes[position] = byte;
        assert_total(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_bytes_are_handled(bytes in Bytes) {
        assert_total(&String::from_utf8_lossy(&bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scenario_files_round_trip_through_the_canonical_form(scenario in Scenarios) {
        let canonical = scenario.canonical();
        let parsed = ScenarioFile::parse(&canonical).map_err(|err| TestCaseError::fail(format!("{err}\n{canonical}")))?;
        prop_assert_eq!(&parsed, &scenario);
        prop_assert_eq!(parsed.canonical(), canonical);
    }

    #[test]
    fn scripts_round_trip_through_the_canonical_form(script in Scripts) {
        let canonical = script.canonical();
        let parsed = Script::parse(&canonical).map_err(|err| TestCaseError::fail(format!("{err}\n{canonical}")))?;
        prop_assert_eq!(&parsed, &script);
        prop_assert_eq!(parsed.canonical(), canonical);
    }
}

/// The five engine JSON documents of one small tagged campaign run (built once), as
/// `(name, bytes)`: `report.json`, `report.jsonl`, `metrics.jsonl`, `progress.json`
/// and `supervise.json`.
fn json_corpus() -> &'static [(&'static str, Vec<u8>)] {
    static CORPUS: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    CORPUS.get_or_init(build_json_corpus)
}

fn build_json_corpus() -> Vec<(&'static str, Vec<u8>)> {
    // 3 topologies × 2 auth modes × 2 corruption pairs: completed and unsolvable
    // cells, so every outcome shape the exporters write is present.
    let campaign = CampaignBuilder::new()
        .sizes([2])
        .corruptions([(0, 0), (0, 1)])
        .adversaries([AdversarySpec::Lying])
        .build();
    let tag = "name = \"a \\\"tagged\\\" run\"";
    let (mut cells, mut jsonl, mut metrics) = (Vec::new(), Vec::new(), Vec::new());
    let mut exporter = StreamingExporter::new(&mut jsonl);
    exporter.set_scenario(tag);
    let mut sidecar = TelemetryExporter::new(&mut metrics);
    let dir = std::env::temp_dir().join(format!("bsm-text-formats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut heartbeat = Heartbeat::new(&dir, campaign.len(), 3).unwrap();
    Executor::new()
        .threads(2)
        .run_streaming_telemetry(&campaign, |cell, telemetry| -> Result<(), StreamError> {
            exporter.write_cell(&cell)?;
            sidecar.write_cell(&telemetry)?;
            heartbeat.tick(cell.spec)?;
            cells.push(cell);
            Ok(())
        })
        .unwrap();
    exporter.finish().unwrap();
    sidecar.finish().unwrap();
    heartbeat.finish().unwrap();
    let progress = std::fs::read(dir.join("progress.json")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let record = |shard, attempt, outcome, exit, done| AttemptRecord {
        shard,
        attempt,
        resumed: attempt > 1,
        outcome,
        exit,
        done,
        backoff_ms: 100 * u64::from(attempt - 1),
    };
    let summary = SuperviseSummary {
        shards: 2,
        total_cells: campaign.len(),
        max_attempts: 2,
        attempts: vec![
            record(1, 1, AttemptOutcome::Completed, 0, 6),
            record(2, 1, AttemptOutcome::Crashed, 137, 4),
            record(2, 2, AttemptOutcome::Stalled, 137, 4),
        ],
        quarantined: vec![QuarantinedShard { shard: 2, start: 6, cells: 6, attempts: 2 }],
    };
    let report = to_json(&CampaignReport::new(cells).with_scenario(tag));
    vec![
        ("report.json", report.into_bytes()),
        ("report.jsonl", jsonl),
        ("metrics.jsonl", metrics),
        ("progress.json", progress),
        ("supervise.json", summary.to_json().into_bytes()),
    ]
}

/// Runs every JSON entry point on `bytes`; each must return, never panic.
fn assert_json_total(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = from_json(&text);
    let _ = from_jsonl(bytes);
    let _ = StreamingCells::salvage(bytes);
    let _ = footer_meta(bytes);
    let _ = CampaignStats::from_stream(bytes);
    for line in text.lines() {
        let _ = parse_telemetry_line(line);
    }
    let _ = parse_progress(&text);
    let _ = parse_supervise(&text);
}

#[test]
fn the_json_corpus_parses_with_the_matching_reader() {
    let corpus = json_corpus();
    let text = |name: &str| {
        let bytes = &corpus.iter().find(|(file, _)| *file == name).unwrap().1;
        String::from_utf8(bytes.clone()).unwrap()
    };
    let report = from_json(&text("report.json")).unwrap();
    assert_eq!(from_jsonl(text("report.jsonl").as_bytes()).unwrap(), report);
    let stats = CampaignStats::from_stream(text("metrics.jsonl").as_bytes()).unwrap();
    assert_eq!(stats.cells, report.cells().len() as u64);
    assert_eq!(parse_progress(&text("progress.json")).unwrap().done, report.cells().len());
    assert!(parse_supervise(&text("supervise.json")).unwrap().degraded());
}

#[test]
fn every_truncation_of_the_json_corpus_is_handled() {
    for (_, bytes) in json_corpus() {
        for end in 0..=bytes.len() {
            assert_json_total(&bytes[..end]);
        }
    }
}

#[test]
fn nesting_bombs_are_handled() {
    // A stack overflow aborts the process, which no `catch_unwind` (and so no
    // property test) can observe: the bombs are asserted explicitly.
    for bomb in ["[".repeat(200_000), "{\"a\": ".repeat(100_000), "[{\"a\": ".repeat(100_000)] {
        assert_json_total(bomb.as_bytes());
        assert_json_total(format!("{bomb}\n").as_bytes());
    }
}

/// Bytes biased toward JSON punctuation, so mutations reach deep states.
const JSON_INTERESTING: &[u8] = b"{}[]\":,\\\n 0123456789tfu";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn single_byte_mutations_of_the_json_corpus_are_handled(
        file in 0..5usize,
        position in any::<usize>(),
        byte in any::<u8>(),
        interesting in any::<bool>(),
    ) {
        let mut bytes = json_corpus()[file].1.clone();
        let byte = if interesting {
            JSON_INTERESTING[usize::from(byte) % JSON_INTERESTING.len()]
        } else {
            byte
        };
        let position = position % bytes.len();
        bytes[position] = byte;
        assert_json_total(&bytes);
    }

    #[test]
    fn arbitrary_bytes_are_handled_by_the_json_readers(bytes in Bytes) {
        assert_json_total(&bytes);
    }
}
