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

use bsm_core::mini_toml;
use bsm_core::problem::{AuthMode, MAX_MARKET_SIZE};
use bsm_core::script::{Script, ScriptAction, Verdict};
use bsm_core::{AdversarySpec, ProtocolPlan};
use bsm_engine::ScenarioFile;
use bsm_matching::Side;
use bsm_net::{CrashWindow, FaultSpec, PartitionWindow, PartyId, Topology};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

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
