//! Integration tests: broadcast primitives running on the synchronous network simulator
//! under byzantine adversaries and omission faults.

use bsm_broadcast::{
    BaMsg, Committee, CommitteeBroadcast, CommitteeBroadcastConfig, CommitteeMsg, DolevStrong,
    DolevStrongConfig, DolevStrongMsg, KingMsg, KingMsgKind, OmissionTolerantBa,
};
use bsm_crypto::{KeyId, Pki, SigningKey};
use bsm_net::{
    Adversary, AdversaryContext, CorruptionBudget, Envelope, FaultSchedule, Outgoing, PartyId,
    PartySet, RoundDriver, SyncNetwork, Topology,
};
use std::collections::BTreeMap;

const MAX_SLOTS: u64 = 200;

fn committee_of_left(k: u32, t: usize) -> Committee {
    Committee::new((0..k).map(PartyId::left).collect(), t)
}

fn build_committee_broadcast_network(
    k: u32,
    t_l: usize,
    t_r: usize,
    sender: PartyId,
    sender_value: u32,
) -> SyncNetwork<CommitteeMsg<u32>, u32> {
    let parties = PartySet::new(k as usize);
    let committee = committee_of_left(k, t_l);
    let mut net: SyncNetwork<CommitteeMsg<u32>, u32> =
        SyncNetwork::new(k as usize, Topology::FullyConnected, CorruptionBudget::new(t_l, t_r));
    for party in parties.iter() {
        let config = CommitteeBroadcastConfig {
            me: party,
            sender,
            committee: committee.clone(),
            all_parties: parties.iter().collect(),
            default: u32::MAX,
        };
        let input = if party == sender { sender_value } else { u32::MAX };
        let protocol = CommitteeBroadcast::new(config, input);
        net.register(Box::new(RoundDriver::new(party, protocol))).unwrap();
    }
    net
}

/// A byzantine sender that equivocates: half the committee receives one value, the other
/// half another.
struct EquivocatingSender {
    sender: PartyId,
    value_a: u32,
    value_b: u32,
    committee: Vec<PartyId>,
    sent: bool,
}

impl Adversary<CommitteeMsg<u32>> for EquivocatingSender {
    fn act(
        &mut self,
        _ctx: &AdversaryContext,
        _inboxes: &BTreeMap<PartyId, Vec<Envelope<CommitteeMsg<u32>>>>,
    ) -> Vec<(PartyId, Outgoing<CommitteeMsg<u32>>)> {
        if self.sent {
            return Vec::new();
        }
        self.sent = true;
        self.committee
            .iter()
            .enumerate()
            .map(|(i, &member)| {
                let value = if i % 2 == 0 { self.value_a } else { self.value_b };
                (self.sender, Outgoing::new(member, CommitteeMsg::Input(value)))
            })
            .collect()
    }
}

#[test]
fn committee_broadcast_consistency_under_equivocating_sender() {
    let k = 4u32;
    let sender = PartyId::right(0);
    let mut net = build_committee_broadcast_network(k, 1, 1, sender, 0);
    net.corrupt(sender).unwrap();
    net.set_adversary(Box::new(EquivocatingSender {
        sender,
        value_a: 11,
        value_b: 22,
        committee: (0..k).map(PartyId::left).collect(),
        sent: false,
    }));
    let outcome = net.run(MAX_SLOTS).unwrap();
    assert!(outcome.all_honest_decided);
    let honest_outputs: Vec<u32> = outcome.outputs.values().copied().collect();
    assert_eq!(honest_outputs.len(), 2 * k as usize - 1);
    // Consistency: all honest parties output the same value (whatever it is).
    assert!(honest_outputs.windows(2).all(|w| w[0] == w[1]), "{honest_outputs:?}");
}

/// A byzantine committee member that spams inconsistent phase-king traffic and a wrong
/// report, trying to break validity for an honest sender.
struct NoisyCommitteeMember {
    member: PartyId,
    everyone: Vec<PartyId>,
    poison: u32,
}

impl Adversary<CommitteeMsg<u32>> for NoisyCommitteeMember {
    fn act(
        &mut self,
        ctx: &AdversaryContext,
        _inboxes: &BTreeMap<PartyId, Vec<Envelope<CommitteeMsg<u32>>>>,
    ) -> Vec<(PartyId, Outgoing<CommitteeMsg<u32>>)> {
        let phase = ctx.now.slot() / 3;
        let mut out = Vec::new();
        for &target in &self.everyone {
            if target == self.member {
                continue;
            }
            for kind in [
                KingMsgKind::Value(self.poison),
                KingMsgKind::Propose(self.poison),
                KingMsgKind::King(self.poison),
            ] {
                out.push((
                    self.member,
                    Outgoing::new(target, CommitteeMsg::King(KingMsg { phase, kind })),
                ));
            }
            out.push((self.member, Outgoing::new(target, CommitteeMsg::Report(self.poison))));
        }
        out
    }
}

#[test]
fn committee_broadcast_validity_with_byzantine_committee_member() {
    let k = 4u32;
    let sender = PartyId::right(1);
    let byzantine = PartyId::left(3);
    let mut net = build_committee_broadcast_network(k, 1, 0, sender, 77);
    net.corrupt(byzantine).unwrap();
    net.set_adversary(Box::new(NoisyCommitteeMember {
        member: byzantine,
        everyone: PartySet::new(k as usize).iter().collect(),
        poison: 99,
    }));
    let outcome = net.run(MAX_SLOTS).unwrap();
    assert!(outcome.all_honest_decided);
    for (&party, &value) in &outcome.outputs {
        assert_eq!(value, 77, "honest {party} must adopt the honest sender's value");
    }
}

#[test]
fn committee_broadcast_crashed_sender_gives_consistent_default() {
    let k = 4u32;
    let sender = PartyId::right(2);
    let mut net = build_committee_broadcast_network(k, 1, 1, sender, 55);
    // The sender crashes (passive adversary): consistency must still hold.
    net.corrupt(sender).unwrap();
    let outcome = net.run(MAX_SLOTS).unwrap();
    assert!(outcome.all_honest_decided);
    let values: Vec<u32> = outcome.outputs.values().copied().collect();
    assert!(values.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(values[0], u32::MAX, "a silent sender resolves to the default value");
}

fn dolev_strong_setup(
    k: u32,
    t: usize,
    sender: PartyId,
) -> (Pki, BTreeMap<PartyId, KeyId>, DolevStrongConfig) {
    let parties = PartySet::new(k as usize);
    let pki = Pki::new(2 * k);
    let key_of: BTreeMap<PartyId, KeyId> =
        parties.iter().map(|p| (p, KeyId(p.dense(k as usize) as u32))).collect();
    let config = DolevStrongConfig {
        me: sender,
        sender,
        participants: parties.iter().collect(),
        t,
        instance: 1,
        pki: pki.clone(),
        key_of: key_of.clone(),
    };
    (pki, key_of, config)
}

fn key_for(pki: &Pki, key_of: &BTreeMap<PartyId, KeyId>, party: PartyId) -> SigningKey {
    pki.signing_key(key_of[&party].0).unwrap()
}

/// A byzantine Dolev–Strong sender equivocating between two values, signing both with
/// its genuine key.
struct DsEquivocatingSender {
    sender: PartyId,
    config: DolevStrongConfig,
    key: SigningKey,
    value_a: u64,
    value_b: u64,
    sent: bool,
}

impl Adversary<DolevStrongMsg<u64>> for DsEquivocatingSender {
    fn act(
        &mut self,
        ctx: &AdversaryContext,
        _inboxes: &BTreeMap<PartyId, Vec<Envelope<DolevStrongMsg<u64>>>>,
    ) -> Vec<(PartyId, Outgoing<DolevStrongMsg<u64>>)> {
        if self.sent {
            return Vec::new();
        }
        self.sent = true;
        let mut out = Vec::new();
        for (i, honest) in ctx.honest().into_iter().enumerate() {
            let value = if i % 2 == 0 { self.value_a } else { self.value_b };
            let digest = DolevStrong::<u64>::instance_digest(&self.config, &value);
            let msg = DolevStrongMsg { value, chain: vec![self.key.sign(digest)].into() };
            out.push((self.sender, Outgoing::new(honest, msg)));
        }
        out
    }
}

#[test]
fn dolev_strong_consistency_under_equivocating_sender() {
    let k = 3u32;
    let t = 2usize;
    let sender = PartyId::left(0);
    let (pki, key_of, config) = dolev_strong_setup(k, t, sender);
    let mut net: SyncNetwork<DolevStrongMsg<u64>, u64> =
        SyncNetwork::new(k as usize, Topology::FullyConnected, CorruptionBudget::new(1, 1));
    for party in PartySet::new(k as usize).iter() {
        let mut cfg = config.clone();
        cfg.me = party;
        let protocol = DolevStrong::new(
            cfg,
            key_for(&pki, &key_of, party),
            if party == sender { Some(0) } else { None },
            u64::MAX,
        );
        net.register(Box::new(RoundDriver::new(party, protocol))).unwrap();
    }
    net.corrupt(sender).unwrap();
    net.set_adversary(Box::new(DsEquivocatingSender {
        sender,
        config: config.clone(),
        key: key_for(&pki, &key_of, sender),
        value_a: 1111,
        value_b: 2222,
        sent: false,
    }));
    let outcome = net.run(MAX_SLOTS).unwrap();
    assert!(outcome.all_honest_decided);
    let values: Vec<u64> = outcome.outputs.values().copied().collect();
    assert_eq!(values.len(), 2 * k as usize - 1);
    assert!(values.windows(2).all(|w| w[0] == w[1]), "consistency violated: {values:?}");
}

#[test]
fn dolev_strong_honest_sender_with_crashed_relays() {
    let k = 3u32;
    let t = 3usize;
    let sender = PartyId::right(2);
    let (pki, key_of, config) = dolev_strong_setup(k, t, sender);
    let mut net: SyncNetwork<DolevStrongMsg<u64>, u64> =
        SyncNetwork::new(k as usize, Topology::FullyConnected, CorruptionBudget::new(2, 1));
    for party in PartySet::new(k as usize).iter() {
        let mut cfg = config.clone();
        cfg.me = party;
        let protocol = DolevStrong::new(
            cfg,
            key_for(&pki, &key_of, party),
            if party == sender { Some(4242) } else { None },
            u64::MAX,
        );
        net.register(Box::new(RoundDriver::new(party, protocol))).unwrap();
    }
    // Three crashed parties (two left, one right — but not the sender).
    net.corrupt(PartyId::left(0)).unwrap();
    net.corrupt(PartyId::left(1)).unwrap();
    net.corrupt(PartyId::right(0)).unwrap();
    let outcome = net.run(MAX_SLOTS).unwrap();
    assert!(outcome.all_honest_decided);
    for (&party, &value) in &outcome.outputs {
        assert_eq!(value, 4242, "honest {party} must output the honest sender's value");
    }
}

#[test]
fn pi_ba_weak_agreement_under_random_omissions() {
    // ΠBA among the left side with random omissions injected at the network level:
    // Theorem 8 requires termination plus weak agreement.
    let k = 4usize;
    let committee = committee_of_left(k as u32, 1);
    for seed in 0..10u64 {
        // Right-side parties are not involved in this primitive; they idle and never
        // decide, so the run is bounded by a fixed slot budget instead of termination.
        let mut net: SyncNetwork<BaMsg<u32>, Option<u32>> =
            SyncNetwork::new(k, Topology::FullyConnected, CorruptionBudget::NONE);
        for party in PartySet::new(k).iter() {
            if party.is_left() {
                let ba = OmissionTolerantBa::new(committee.clone(), party, 10 + party.index);
                net.register(Box::new(RoundDriver::new(party, ba))).unwrap();
            } else {
                net.register(Box::new(bsm_net::SilentProcess::new(party))).unwrap();
            }
        }
        net.set_faults(FaultSchedule::new("loss=350".parse().unwrap(), seed));
        let outcome = net.run(OmissionTolerantBa::<u32>::total_rounds(&committee) + 2).unwrap();
        let decided: Vec<u32> = PartySet::new(k)
            .left()
            .filter_map(|p| outcome.outputs.get(&p).cloned().flatten())
            .collect();
        assert!(
            decided.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: weak agreement violated: {decided:?}"
        );
        // Termination: every left party decided Some(_) or None.
        for p in PartySet::new(k).left() {
            assert!(outcome.outputs.contains_key(&p), "seed {seed}: {p} did not terminate");
        }
    }
}
