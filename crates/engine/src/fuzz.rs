//! The violation-guided adversary fuzzer: seeded search over [`Script`] space.
//!
//! [`run_fuzz`] generates and mutates adversary scripts, runs each one against the
//! property oracle (the bSM checks [`bsm_core::check_bsm`] performs on every
//! outcome), tracks worst-case slot and message counts, and — whenever a script
//! *violates* a property on in-threshold settings — greedily [`shrink`]s it to a
//! minimal reproducer ready to be frozen under `crates/core/tests/fuzz_regressions/`.
//!
//! Everything is a pure function of `(seed, budget)`: the same configuration yields
//! a byte-identical [`FuzzReport::log`] and identical found/shrunk scripts, which is
//! what the CI fuzz-smoke job asserts with a plain `cmp`.

use bsm_core::harness::HarnessError;
use bsm_core::problem::{AuthMode, Setting};
use bsm_core::properties::PropertyViolation;
use bsm_core::script::{Script, ScriptAction, Verdict};
use bsm_core::solvability::is_solvable;
use bsm_matching::Side;
use bsm_net::Topology;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;

/// Search-loop configuration: how many scripts to try and from which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Number of scripts to generate and run.
    pub budget: u64,
    /// Master seed; the whole run is a pure function of `(seed, budget)`.
    pub seed: u64,
}

/// A property violation found by the fuzzer, before and after shrinking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoundViolation {
    /// The case number that triggered it.
    pub case: u64,
    /// The original violating script.
    pub script: Script,
    /// The shrunk, minimal script (verdict recorded, ready to freeze).
    pub shrunk: Script,
    /// The violation signature both scripts reproduce (sorted property kinds, or a
    /// harness error rendering).
    pub signature: String,
}

/// The deterministic result of one fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Number of cases executed (= the configured budget).
    pub cases: u64,
    /// One log line per case (plus shrink traces) — byte-identical across repeat
    /// runs with the same configuration.
    pub log: String,
    /// Every violation found, shrunk and verdict-stamped.
    pub violations: Vec<FoundViolation>,
    /// Worst slot count observed across all cases.
    pub worst_slots: u64,
    /// Case number that produced [`worst_slots`](Self::worst_slots).
    pub worst_slots_case: u64,
    /// Worst sent-message count (honest + byzantine) observed across all cases.
    pub worst_messages: u64,
    /// Case number that produced [`worst_messages`](Self::worst_messages).
    pub worst_messages_case: u64,
}

/// A stable short name for a property violation kind.
fn violation_kind(violation: &PropertyViolation) -> &'static str {
    match violation {
        PropertyViolation::Termination { .. } => "termination",
        PropertyViolation::Symmetry { .. } => "symmetry",
        PropertyViolation::Stability { .. } => "stability",
        PropertyViolation::NonCompetition { .. } => "non-competition",
        PropertyViolation::MalformedOutput { .. } => "malformed-output",
        _ => "unknown",
    }
}

/// Runs `script` and reduces its outcome to a violation signature: `None` when every
/// bSM property holds, `Some(sorted property kinds joined with "+")` on violations,
/// and `Some("harness-error: …")` when the script cannot even be run.
///
/// The shrinker re-checks *this* signature after every candidate step, so shrinking
/// can never wander from one bug to a different one.
pub fn violation_signature(script: &Script) -> Option<String> {
    match script.run() {
        Ok(outcome) => {
            if outcome.violations.is_empty() {
                return None;
            }
            let mut kinds: Vec<&'static str> =
                outcome.violations.iter().map(violation_kind).collect();
            kinds.sort_unstable();
            kinds.dedup();
            Some(kinds.join("+"))
        }
        Err(err) => Some(format!("harness-error: {err}")),
    }
}

/// Greedily minimizes a violating script while `still_violating` keeps returning
/// `true` for the candidate.
///
/// Two alternating passes run to a fixpoint: drop one action at a time, then shrink
/// each numeric field toward zero (trying `0` and `value / 2`). Every accepted step
/// strictly decreases the measure `(action count, sum of numeric fields)`
/// lexicographically, so termination is guaranteed and the result is deterministic
/// for a deterministic predicate.
pub fn shrink(script: &Script, still_violating: &mut dyn FnMut(&Script) -> bool) -> Script {
    let mut current = script.clone();
    loop {
        let mut progressed = false;

        // Pass 1: drop actions one at a time.
        let mut i = 0;
        while i < current.actions.len() {
            let mut candidate = current.clone();
            candidate.actions.remove(i);
            if still_violating(&candidate) {
                current = candidate;
                progressed = true;
                // The next action shifted into position i; retry the same index.
            } else {
                i += 1;
            }
        }

        // Pass 2: shrink numeric fields toward zero.
        for i in 0..current.actions.len() {
            let positions = current.actions[i].numbers().len();
            for j in 0..positions {
                for pick in [ShrinkTo::Zero, ShrinkTo::Half] {
                    let mut numbers = current.actions[i].numbers();
                    let value = numbers[j];
                    let target = match pick {
                        ShrinkTo::Zero => 0,
                        ShrinkTo::Half => value / 2,
                    };
                    if target >= value {
                        continue;
                    }
                    numbers[j] = target;
                    let mut candidate = current.clone();
                    candidate.actions[i] = candidate.actions[i].with_numbers(&numbers);
                    if still_violating(&candidate) {
                        current = candidate;
                        progressed = true;
                    }
                }
            }
        }

        if !progressed {
            return current;
        }
    }
}

#[derive(Clone, Copy)]
enum ShrinkTo {
    Zero,
    Half,
}

/// The in-threshold settings pool the fuzzer samples from: every solvable
/// combination of small market sizes, all topologies, both auth modes and non-empty
/// corruption budgets.
fn settings_pool() -> Vec<(usize, Topology, AuthMode, usize, usize)> {
    let mut pool = Vec::new();
    for k in [3usize, 4] {
        for topology in Topology::ALL {
            for auth in AuthMode::ALL {
                for (t_l, t_r) in [(0usize, 1usize), (1, 0), (1, 1)] {
                    let Ok(setting) = Setting::new(k, topology, auth, t_l, t_r) else {
                        continue;
                    };
                    if is_solvable(&setting) {
                        pool.push((k, topology, auth, t_l, t_r));
                    }
                }
            }
        }
    }
    pool
}

fn random_action(rng: &mut StdRng, k: usize) -> ScriptAction {
    let slot = rng.random_range(0..12u64);
    let nth = rng.random_range(0..8u64);
    match rng.random_range(0..12u8) {
        0 => ScriptAction::Silence { from_slot: rng.random_range(0..6u64) },
        1 => ScriptAction::Lie { seed: rng.random_range(0..1024u64) },
        2 => ScriptAction::Garbage {
            seed: rng.random_range(0..1024u64),
            per_slot: rng.random_range(1..=3u64),
        },
        3 => ScriptAction::Corrupt {
            slot: rng.random_range(0..8u64),
            side: if rng.random_bool(0.5) { Side::Left } else { Side::Right },
            index: rng.random_range(0..k as u32),
        },
        4 => ScriptAction::DropRecv { slot, nth },
        5 => ScriptAction::DelayRecv { slot, nth, by: rng.random_range(1..=4u64) },
        6 => ScriptAction::Replay { slot, nth },
        7 => ScriptAction::DropSend { slot, nth },
        8 => ScriptAction::Equivocate { slot, nth },
        9 => ScriptAction::TruncateChain { slot, nth },
        10 => ScriptAction::ReorderChain { slot, nth },
        _ => ScriptAction::SwapSigTag { slot, nth },
    }
}

fn case_name(fuzz_seed: u64, case: u64) -> String {
    format!("fuzz-s{fuzz_seed}-c{case:04}")
}

fn random_script(
    rng: &mut StdRng,
    pool: &[(usize, Topology, AuthMode, usize, usize)],
    fuzz_seed: u64,
    case: u64,
) -> Script {
    let (k, topology, auth, t_l, t_r) = pool[rng.random_range(0..pool.len())];
    // Corrupt between zero and the full budget statically (highest-indexed parties,
    // matching the campaign-grid convention); leaving slack lets Corrupt actions
    // exercise adaptive corruption.
    let static_left = rng.random_range(0..=t_l);
    let static_right = rng.random_range(0..=t_r);
    let corrupt_left: Vec<u32> = (0..k as u32).rev().take(static_left).collect();
    let corrupt_right: Vec<u32> = (0..k as u32).rev().take(static_right).collect();
    let action_count = rng.random_range(0..=4usize);
    let actions: Vec<ScriptAction> = (0..action_count).map(|_| random_action(rng, k)).collect();
    Script {
        name: case_name(fuzz_seed, case),
        k,
        topology,
        auth,
        t_l,
        t_r,
        plan: None,
        corrupt_left,
        corrupt_right,
        seed: rng.random_range(0..1024u64),
        actions,
        verdict: None,
    }
}

fn mutate_script(base: &Script, rng: &mut StdRng, fuzz_seed: u64, case: u64) -> Script {
    let mut script = base.clone();
    script.name = case_name(fuzz_seed, case);
    script.verdict = None;
    match rng.random_range(0..4u8) {
        0 if script.actions.len() < 6 => {
            script.actions.push(random_action(rng, script.k));
        }
        1 if !script.actions.is_empty() => {
            let idx = rng.random_range(0..script.actions.len());
            script.actions.remove(idx);
        }
        2 if !script.actions.is_empty() => {
            let idx = rng.random_range(0..script.actions.len());
            let mut numbers = script.actions[idx].numbers();
            let pos = rng.random_range(0..numbers.len());
            numbers[pos] = match rng.random_range(0..4u8) {
                0 => numbers[pos].wrapping_add(1),
                1 => numbers[pos] / 2,
                2 => numbers[pos].saturating_mul(2).min(1024),
                _ => rng.random_range(0..16u64),
            };
            script.actions[idx] = script.actions[idx].with_numbers(&numbers);
        }
        _ => {
            script.seed = rng.random_range(0..1024u64);
        }
    }
    script
}

/// Maximum number of interesting scripts kept as mutation seeds.
const CORPUS_CAP: usize = 32;

/// Runs the violation-guided search loop.
///
/// Per case: pick a script (a fresh random one, or a mutation of a corpus entry),
/// run it, log one line, update worst-case trackers, and on any property violation
/// shrink the script against its signature and record it verdict-stamped. The
/// entire report — log bytes included — is a pure function of `config`.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let pool = settings_pool();
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0xf022));
    let mut log = String::new();
    let mut corpus: Vec<Script> = Vec::new();
    let mut violations: Vec<FoundViolation> = Vec::new();
    let mut worst_slots = 0u64;
    let mut worst_slots_case = 0u64;
    let mut worst_messages = 0u64;
    let mut worst_messages_case = 0u64;

    let _ = writeln!(log, "fuzz seed={} budget={}", config.seed, config.budget);
    for case in 0..config.budget {
        let script = if !corpus.is_empty() && rng.random_bool(0.5) {
            let base = corpus[rng.random_range(0..corpus.len())].clone();
            mutate_script(&base, &mut rng, config.seed, case)
        } else {
            random_script(&mut rng, &pool, config.seed, case)
        };

        let header = format!(
            "case {case:04} k={} {} {} tL={} tR={} seed={} actions={}",
            script.k,
            script.topology.name(),
            script.auth.name(),
            script.t_l,
            script.t_r,
            script.seed,
            script.actions.len(),
        );

        match script.run() {
            Ok(outcome) => {
                let messages = outcome.metrics.honest_messages + outcome.metrics.byzantine_messages;
                let mut markers = String::new();
                let mut interesting = false;
                if outcome.slots > worst_slots {
                    worst_slots = outcome.slots;
                    worst_slots_case = case;
                    markers.push_str(" [worst-slots]");
                    interesting = true;
                }
                if messages > worst_messages {
                    worst_messages = messages;
                    worst_messages_case = case;
                    markers.push_str(" [worst-messages]");
                    interesting = true;
                }
                if outcome.violations.is_empty() {
                    let _ = writeln!(
                        log,
                        "{header} -> ok decided={} slots={} messages={}{markers}",
                        outcome.all_honest_decided, outcome.slots, messages,
                    );
                    if interesting {
                        corpus.push(script);
                        if corpus.len() > CORPUS_CAP {
                            corpus.remove(0);
                        }
                    }
                } else {
                    let signature = violation_signature(&script)
                        .expect("a violating outcome must have a signature");
                    let _ = writeln!(
                        log,
                        "{header} -> VIOLATION {signature} decided={} slots={} messages={}",
                        outcome.all_honest_decided, outcome.slots, messages,
                    );
                    let recorded = record_violation(case, &script, signature, &mut log);
                    violations.push(recorded);
                    corpus.push(script);
                    if corpus.len() > CORPUS_CAP {
                        corpus.remove(0);
                    }
                }
            }
            Err(err) => {
                // A generated script that cannot even run is itself a finding: the
                // generator only emits in-budget, solvable configurations.
                let signature = harness_signature(&err);
                let _ = writeln!(log, "{header} -> VIOLATION {signature}");
                let recorded = record_violation(case, &script, signature, &mut log);
                violations.push(recorded);
            }
        }
    }

    let _ = writeln!(
        log,
        "done cases={} violations={} worst_slots={} (case {worst_slots_case:04}) worst_messages={} (case {worst_messages_case:04})",
        config.budget,
        violations.len(),
        worst_slots,
        worst_messages,
    );

    FuzzReport {
        cases: config.budget,
        log,
        violations,
        worst_slots,
        worst_slots_case,
        worst_messages,
        worst_messages_case,
    }
}

fn harness_signature(err: &HarnessError) -> String {
    format!("harness-error: {err}")
}

/// Shrinks a violating script against its signature, stamps the verdict of the
/// minimal reproducer, and appends the shrink trace to the log.
fn record_violation(
    case: u64,
    script: &Script,
    signature: String,
    log: &mut String,
) -> FoundViolation {
    let before = script.actions.len();
    let mut predicate =
        |candidate: &Script| violation_signature(candidate).as_deref() == Some(&signature);
    let mut shrunk = shrink(script, &mut predicate);
    if let Ok(outcome) = shrunk.run() {
        shrunk.verdict = Some(Verdict::of(&outcome));
    }
    let _ = writeln!(
        log,
        "  shrunk actions {before} -> {} signature {signature}",
        shrunk.actions.len(),
    );
    FoundViolation { case, script: script.clone(), shrunk, signature }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_pool_is_nonempty_and_solvable_only() {
        let pool = settings_pool();
        assert!(!pool.is_empty());
        for (k, topology, auth, t_l, t_r) in pool {
            let setting = Setting::new(k, topology, auth, t_l, t_r).unwrap();
            assert!(is_solvable(&setting), "{setting:?}");
        }
    }

    #[test]
    fn violation_signature_is_none_for_tolerated_scripts() {
        let script = Script {
            name: "quiet".into(),
            k: 3,
            topology: Topology::FullyConnected,
            auth: AuthMode::Authenticated,
            t_l: 1,
            t_r: 1,
            plan: None,
            corrupt_left: vec![2],
            corrupt_right: vec![],
            seed: 4,
            actions: vec![ScriptAction::Silence { from_slot: 0 }],
            verdict: None,
        };
        assert_eq!(violation_signature(&script), None);
    }

    #[test]
    fn violation_signature_reports_harness_errors() {
        // Unsolvable setting (unauthenticated full mesh with t >= k/3 on both sides).
        let script = Script {
            name: "unsolvable".into(),
            k: 3,
            topology: Topology::FullyConnected,
            auth: AuthMode::Unauthenticated,
            t_l: 1,
            t_r: 1,
            plan: None,
            corrupt_left: vec![],
            corrupt_right: vec![],
            seed: 0,
            actions: vec![],
            verdict: None,
        };
        let signature = violation_signature(&script).unwrap();
        assert!(signature.starts_with("harness-error:"), "{signature}");
    }
}
