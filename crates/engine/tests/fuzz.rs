//! Fuzzer subsystem tests: determinism of the search loop, the differential
//! empty-script guarantee, script subsumption of the built-in adversaries, and the
//! shrinker contract.

use bsm_core::harness::{AdversarySpec, Scenario, ScenarioOutcome};
use bsm_core::problem::AuthMode;
use bsm_core::script::{Script, ScriptAction};
use bsm_core::solvability::is_solvable;
use bsm_engine::fuzz::{run_fuzz, shrink, FuzzConfig};
use bsm_engine::grid::ScenarioSpec;
use bsm_engine::{Campaign, CampaignBuilder};
use bsm_net::{FaultSpec, Topology};

/// The quick 12-cell grid: authenticated, fully connected, k ∈ {3, 4}, (1, 1)
/// corruptions, every built-in adversary, two seeds. Every cell runs Dolev–Strong.
fn quick_grid() -> Campaign {
    CampaignBuilder::new()
        .sizes([3, 4])
        .topologies([Topology::FullyConnected])
        .auth_modes([AuthMode::Authenticated])
        .corruptions([(1, 1)])
        .adversaries(AdversarySpec::ALL)
        .seeds(0..2)
        .build()
}

fn assert_same_outcome(context: &str, a: &ScenarioOutcome, b: &ScenarioOutcome) {
    assert_eq!(a.plan, b.plan, "{context}: plan");
    assert_eq!(a.outputs, b.outputs, "{context}: outputs");
    assert_eq!(a.corrupted, b.corrupted, "{context}: corrupted");
    assert_eq!(a.violations, b.violations, "{context}: violations");
    assert_eq!(a.all_honest_decided, b.all_honest_decided, "{context}: decided");
    assert_eq!(a.slots, b.slots, "{context}: slots");
    assert_eq!(a.metrics, b.metrics, "{context}: metrics");
    assert_eq!(a.signatures, b.signatures, "{context}: signatures");
}

fn script_for_spec(spec: &ScenarioSpec, actions: Vec<ScriptAction>) -> Script {
    let k = spec.k as u32;
    Script {
        name: "grid".into(),
        k: spec.k,
        topology: spec.topology,
        auth: spec.auth,
        t_l: spec.t_l,
        t_r: spec.t_r,
        plan: None,
        corrupt_left: (0..k).rev().take(spec.t_l).collect(),
        corrupt_right: (0..k).rev().take(spec.t_r).collect(),
        seed: spec.seed,
        actions,
        verdict: None,
    }
}

#[test]
fn fuzz_run_is_byte_deterministic() {
    let config = FuzzConfig { budget: 40, seed: 7 };
    let first = run_fuzz(&config);
    let second = run_fuzz(&config);
    assert_eq!(first.log, second.log, "logs must be byte-identical");
    assert_eq!(first.violations, second.violations);
    assert_eq!(first, second);
    assert_eq!(first.cases, 40);
    assert!(first.log.lines().count() >= 42, "one line per case plus header/footer");
    assert!(first.worst_slots > 0);
    assert!(first.worst_messages > 0);
}

#[test]
fn different_seeds_explore_differently() {
    let a = run_fuzz(&FuzzConfig { budget: 15, seed: 1 });
    let b = run_fuzz(&FuzzConfig { budget: 15, seed: 2 });
    assert_ne!(a.log, b.log);
}

#[test]
fn empty_script_is_byte_identical_to_the_honest_run_across_the_quick_grid() {
    // The differential guarantee: with no corrupted parties and no actions, the
    // scripted path must reproduce the honest run field for field (same budgets,
    // so same round counts and slot budgets).
    let mut grids_checked = 0;
    let mut seen = std::collections::BTreeSet::new();
    for spec in quick_grid().specs() {
        if !seen.insert((spec.k, spec.topology, spec.auth, spec.t_l, spec.t_r, spec.seed)) {
            continue;
        }
        let honest = Scenario::builder(spec.setting().unwrap())
            .seed(spec.seed)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let mut script = script_for_spec(spec, vec![]);
        script.corrupt_left.clear();
        script.corrupt_right.clear();
        let scripted = script.run().unwrap();
        assert_same_outcome(&format!("{spec:?}"), &honest, &scripted);
        grids_checked += 1;
    }
    assert!(grids_checked >= 4, "quick grid must contribute distinct cells");
}

#[test]
fn scripts_subsume_every_builtin_adversary() {
    // Coverage: each hand-written AdversarySpec strategy re-expressed as a script is
    // outcome-identical to the original, over the quick grid plus extra
    // topology cells.
    let mut specs: Vec<ScenarioSpec> = quick_grid().specs().to_vec();
    for topology in [Topology::Bipartite, Topology::OneSided] {
        for adversary in AdversarySpec::ALL {
            specs.push(ScenarioSpec {
                k: 3,
                topology,
                auth: AuthMode::Authenticated,
                t_l: 1,
                t_r: 1,
                adversary,
                faults: FaultSpec::NONE,
                seed: 0,
            });
        }
    }
    let mut checked = 0;
    for spec in &specs {
        let setting = spec.setting().unwrap();
        if !is_solvable(&setting) {
            continue;
        }
        let builtin = spec.build_scenario().unwrap().run().unwrap();
        let action = match spec.adversary {
            AdversarySpec::Crash => ScriptAction::Silence { from_slot: 0 },
            AdversarySpec::Lying => ScriptAction::Lie { seed: spec.seed },
            AdversarySpec::Garbage => ScriptAction::Garbage { seed: spec.seed, per_slot: 2 },
        };
        let script = script_for_spec(spec, vec![action]);
        let scripted = script.run().unwrap();
        assert_same_outcome(&format!("{spec:?}"), &builtin, &scripted);
        checked += 1;
    }
    assert!(checked >= 12, "expected the full quick grid plus extras, got {checked}");
}

/// Measure the shrinker promises to decrease: (action count, sum of numeric fields).
fn measure(script: &Script) -> (usize, u64) {
    let sum = script.actions.iter().map(|a| a.numbers().iter().sum::<u64>()).sum();
    (script.actions.len(), sum)
}

fn shrink_subject() -> Script {
    Script {
        name: "shrink-subject".into(),
        k: 3,
        topology: Topology::FullyConnected,
        auth: AuthMode::Authenticated,
        t_l: 1,
        t_r: 1,
        plan: None,
        corrupt_left: vec![2],
        corrupt_right: vec![2],
        seed: 9,
        actions: vec![
            ScriptAction::Garbage { seed: 500, per_slot: 3 },
            ScriptAction::Equivocate { slot: 7, nth: 5 },
            ScriptAction::DropRecv { slot: 4, nth: 2 },
            ScriptAction::DelayRecv { slot: 6, nth: 3, by: 4 },
            ScriptAction::Equivocate { slot: 9, nth: 1 },
        ],
        verdict: None,
    }
}

#[test]
fn shrinker_result_is_minimal_and_every_step_is_reverified() {
    // Synthetic oracle: the "violation" persists while any Equivocate action
    // remains. The shrinker must converge to exactly one zeroed Equivocate.
    let subject = shrink_subject();
    let mut accepted_measures: Vec<(usize, u64)> = Vec::new();
    let mut calls = 0u64;
    let mut predicate = |candidate: &Script| {
        calls += 1;
        let violating =
            candidate.actions.iter().any(|a| matches!(a, ScriptAction::Equivocate { .. }));
        if violating {
            accepted_measures.push(measure(candidate));
        }
        violating
    };
    let shrunk = shrink(&subject, &mut predicate);
    assert!(calls > 0, "every shrink step must consult the oracle");
    assert_eq!(shrunk.actions, vec![ScriptAction::Equivocate { slot: 0, nth: 0 }]);
    // Every accepted step strictly decreased the measure.
    let mut last = measure(&subject);
    for m in &accepted_measures {
        assert!(*m < last, "accepted step must shrink: {m:?} !< {last:?}");
        last = *m;
    }
    // The final script still satisfies the oracle.
    assert!(shrunk.actions.iter().any(|a| matches!(a, ScriptAction::Equivocate { .. })));
}

#[test]
fn shrinker_is_deterministic() {
    let subject = shrink_subject();
    let run = || {
        let mut predicate = |candidate: &Script| {
            candidate.actions.iter().any(|a| matches!(a, ScriptAction::DelayRecv { .. }))
        };
        shrink(&subject, &mut predicate)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    // DelayRecv's `by` field shrinks to 0 in serialization space even though the
    // interpreter clamps the hold to one slot at run time.
    assert_eq!(first.actions, vec![ScriptAction::DelayRecv { slot: 0, nth: 0, by: 0 }]);
}

#[test]
fn shrinker_returns_input_when_nothing_smaller_reproduces() {
    let subject = shrink_subject();
    // Oracle: only the *exact* original script "violates".
    let original = subject.clone();
    let mut predicate = |candidate: &Script| *candidate == original;
    let shrunk = shrink(&subject, &mut predicate);
    assert_eq!(shrunk, subject);
}

#[test]
fn fuzz_smoke_finds_no_violations_in_the_constructive_protocols() {
    // The protocols are supposed to tolerate every in-threshold script the
    // generator can produce; a violation here is a real bug (and would be frozen
    // as a regression by `campaign_ctl fuzz --freeze`).
    let report = run_fuzz(&FuzzConfig { budget: 30, seed: 1 });
    assert!(
        report.violations.is_empty(),
        "unexpected violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("case {} {}\n{}", v.case, v.signature, v.shrunk.canonical()))
            .collect::<Vec<_>>()
            .join("\n"),
    );
}
