//! Deterministic-replay regression tests.
//!
//! The simulator's core guarantee is that a run is a pure function of its
//! configuration: the same `Scenario` seed must reproduce the exact same execution —
//! outputs, corrupted set, violations, slot count and per-party message accounting —
//! byte for byte. Every scaling PR (sharding, batching, async backends) must keep this
//! property, so these tests lock it in at both the `bsm-core` harness level and the
//! raw `bsm-net` simulator level. The campaign-level extension — same campaign ⇒
//! byte-identical aggregated exports at any worker-thread count — lives in
//! `crates/engine/tests/campaign_determinism.rs` (the engine depends on this crate,
//! not the other way around).

use bsm_broadcast::{DolevStrong, DolevStrongConfig};
use bsm_core::harness::{AdversarySpec, Scenario, ScenarioOutcome};
use bsm_core::problem::{AuthMode, Setting};
use bsm_crypto::{KeyId, Pki};
use bsm_net::{
    CorruptionBudget, FaultSchedule, PartyId, PartySet, RoundDriver, RunOutcome, SyncNetwork,
    Topology,
};
use std::collections::BTreeMap;

/// Builds and runs one scenario from scratch; used twice per case to compare replays.
fn run_once(
    k: usize,
    topology: Topology,
    auth: AuthMode,
    adversary: AdversarySpec,
    seed: u64,
) -> ScenarioOutcome {
    let t = if k >= 3 { 1 } else { 0 };
    let setting = Setting::new(k, topology, auth, t, t).expect("valid setting");
    let left: Vec<u32> = (0..k as u32).rev().take(t).collect();
    let right: Vec<u32> = (0..k as u32).rev().take(t).collect();
    Scenario::builder(setting)
        .seed(seed)
        .corrupt_left(left)
        .corrupt_right(right)
        .adversary(adversary)
        .build()
        .expect("within budget")
        .run()
        .expect("solvable setting runs")
}

/// The full debug rendering doubles as a transcript: it covers the plan, every party's
/// decision, the corrupted set, violations, slot count and all metrics counters.
fn transcript(outcome: &ScenarioOutcome) -> String {
    format!("{outcome:?}")
}

#[test]
fn scenario_replay_is_byte_identical_across_settings() {
    let cases = [
        (3, Topology::FullyConnected, AuthMode::Authenticated, AdversarySpec::Crash, 7),
        (4, Topology::FullyConnected, AuthMode::Unauthenticated, AdversarySpec::Lying, 11),
        (4, Topology::Bipartite, AuthMode::Authenticated, AdversarySpec::Garbage, 2025),
        (4, Topology::OneSided, AuthMode::Authenticated, AdversarySpec::Lying, 13),
        (2, Topology::Bipartite, AuthMode::Unauthenticated, AdversarySpec::Crash, 5),
    ];
    for (k, topology, auth, adversary, seed) in cases {
        let first = run_once(k, topology, auth, adversary, seed);
        let second = run_once(k, topology, auth, adversary, seed);
        assert_eq!(
            transcript(&first),
            transcript(&second),
            "replay diverged for k={k} {topology:?} {auth:?} {adversary:?} seed={seed}"
        );
        assert_eq!(first.metrics, second.metrics, "metrics diverged for seed={seed}");
        assert_eq!(first.slots, second.slots);
    }
}

#[test]
fn scenario_seed_changes_the_generated_profile() {
    let setting = Setting::new(4, Topology::FullyConnected, AuthMode::Authenticated, 0, 0).unwrap();
    let a = Scenario::builder(setting).seed(1).build().unwrap();
    let b = Scenario::builder(setting).seed(1).build().unwrap();
    let c = Scenario::builder(setting).seed(2).build().unwrap();
    assert_eq!(format!("{:?}", a.profile()), format!("{:?}", b.profile()));
    assert_ne!(
        format!("{:?}", a.profile()),
        format!("{:?}", c.profile()),
        "different seeds should draw different preference profiles"
    );
}

/// Replay determinism at the raw simulator level, with probabilistic fault injection in
/// the path: Dolev–Strong under a seeded 20% loss schedule must reproduce exactly.
fn run_dolev_strong_with_omissions(net_seed: u64) -> RunOutcome<u64> {
    let k = 4usize;
    let parties = PartySet::new(k);
    let pki = Pki::new(2 * k as u32);
    let key_of: BTreeMap<PartyId, KeyId> =
        parties.iter().map(|p| (p, KeyId(p.dense(k) as u32))).collect();
    let sender = PartyId::left(0);
    let mut net: SyncNetwork<bsm_broadcast::DolevStrongMsg<u64>, u64> =
        SyncNetwork::new(k, Topology::FullyConnected, CorruptionBudget::NONE);
    net.set_faults(FaultSchedule::new("loss=200".parse().unwrap(), net_seed));
    for party in parties.iter() {
        let config = DolevStrongConfig {
            me: party,
            sender,
            participants: parties.iter().collect(),
            t: k - 1,
            instance: 1,
            pki: pki.clone(),
            key_of: key_of.clone(),
        };
        let key = pki.signing_key(key_of[&party].0).unwrap();
        let protocol =
            DolevStrong::new(config, key, if party == sender { Some(42) } else { None }, 0);
        net.register(Box::new(RoundDriver::new(party, protocol))).unwrap();
    }
    net.run(100).expect("run completes")
}

#[test]
fn netsim_replay_with_random_omissions_is_byte_identical() {
    let first = run_dolev_strong_with_omissions(17);
    let second = run_dolev_strong_with_omissions(17);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert_eq!(first.metrics, second.metrics);
    // Sanity: the schedule actually dropped something, so determinism was exercised
    // on the faulty path, not the trivial fault-free one.
    assert!(first.metrics.dropped_by_faults > 0, "loss schedule never fired");
}
