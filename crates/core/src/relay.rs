//! Channel simulation by relaying: Lemma 6 (majority relay), Lemma 8 (signed relay) and
//! Lemma 10 (timed signed relay with omissions).
//!
//! When the topology lacks a channel between two same-side parties, the sender instead
//! hands the message to every party on the opposite side, who forward it to the target.
//! The target accepts the message once it can attribute it to the origin:
//!
//! * **Majority mode** (unauthenticated, Lemma 6): accept once strictly more than `k/2`
//!   distinct relayers delivered the identical `(τ, m)` — sound as long as the relaying
//!   side has an honest majority. Copies are compared by value, with a pointer-equality
//!   fast path: [`RelayEngine::send`] allocates one shared payload per logical send, so
//!   honest relayers forward the very same allocation and a match costs a pointer
//!   compare, not a hash.
//! * **Signed mode** (authenticated, Lemmas 8 and 10): accept a payload carrying a valid
//!   origin signature over `(origin → target, τ, id, m)`, provided at most `max_age`
//!   slots have passed since `τ`. One honest relayer suffices; if every relayer is
//!   byzantine the message may be omitted but can never be altered — exactly the
//!   omission model of §5.2. This is the only mode that hashes: [`relay_digest`] is
//!   what the origin signs and the target verifies.

use crate::wire::{ProtoMsg, WireMsg};
use bsm_crypto::{Digest, DigestWriter, Digestible, KeyId, Pki, SigningKey, Verifier};
use bsm_net::{Outgoing, PartyId, PartySet, Time, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How relayed payloads are authenticated by their final recipient.
#[derive(Debug, Clone)]
pub enum RelayMode {
    /// No relaying: every required channel exists (fully-connected topology). Relayed
    /// messages are ignored.
    Direct,
    /// Lemma 6: accept payloads confirmed by a strict majority of the relaying side.
    Majority,
    /// Lemmas 8 / 10: accept payloads with a valid origin signature, no older than
    /// `max_age` slots.
    Signed {
        /// The public-key directory.
        pki: Pki,
        /// Key of every party (dense numbering).
        key_of: BTreeMap<PartyId, KeyId>,
        /// Maximum accepted age (in slots) of a relayed message; the paper uses `2·Δ`.
        max_age: u64,
    },
}

/// The digest an origin signs over when relaying `inner` to `target` — the
/// `(P → P′, τ, id, m)` tuple of the paper's protocols.
///
/// Signed mode only (Lemmas 8 and 10): majority mode compares relayed copies by value
/// and never hashes them.
pub fn relay_digest(
    origin: PartyId,
    target: PartyId,
    id: u64,
    sent_at: u64,
    inner: &ProtoMsg,
    k: usize,
) -> Digest {
    let mut writer = DigestWriter::new();
    writer
        .label("bsm-relay")
        .u64(origin.dense(k) as u64)
        .u64(target.dense(k) as u64)
        .u64(id)
        .u64(sent_at);
    inner.feed(&mut writer);
    writer.finish()
}

/// One majority-relay candidate for an (origin, id): a distinct `(τ, m)` value and the
/// distinct relayers that delivered it.
struct Candidate {
    sent_at: u64,
    payload: Arc<ProtoMsg>,
    relayers: BTreeSet<PartyId>,
}

impl Candidate {
    /// Whether a delivered `(sent_at, payload)` is this candidate. Honest copies share
    /// the origin's allocation, so the pointer compare settles them; only a copy some
    /// relayer rebuilt falls through to the value compare.
    fn is(&self, sent_at: u64, payload: &Arc<ProtoMsg>) -> bool {
        self.sent_at == sent_at
            && (Arc::ptr_eq(&self.payload, payload) || *self.payload == **payload)
    }
}

/// Majority-relay vote state for one (origin, id): its candidates in arrival order.
/// A lookup scans them, so a relayer flooding forged candidates makes later lookups
/// for that (origin, id) longer, never wrong; the entry is freed on acceptance.
type CandidateTally = Vec<Candidate>;

/// Per-party relay engine: wraps outgoing sends, performs relay duty, and authenticates
/// incoming relayed payloads.
pub struct RelayEngine {
    me: PartyId,
    parties: PartySet,
    topology: Topology,
    mode: RelayMode,
    signing_key: Option<SigningKey>,
    /// Memoizing verification handle for signed mode (`None` otherwise). Re-verifying
    /// the same relayed signature (e.g. duplicate deliveries racing the `delivered`
    /// check) then skips the tag hash and registry lookup without changing any
    /// accept/reject decision.
    verifier: Option<Verifier>,
    next_id: u64,
    /// Majority mode: (origin, id) → every candidate `(τ, m)` seen and the distinct
    /// relayers backing it. An entry is freed once its message is delivered.
    tallies: BTreeMap<(PartyId, u64), CandidateTally>,
    /// Messages already delivered to the protocol, by (origin, id).
    delivered: BTreeSet<(PartyId, u64)>,
}

impl std::fmt::Debug for RelayEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelayEngine")
            .field("me", &self.me)
            .field("topology", &self.topology)
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl RelayEngine {
    /// Creates a relay engine for party `me`.
    ///
    /// `signing_key` is required in [`RelayMode::Signed`] (it signs this party's own
    /// relay requests); it is ignored otherwise.
    ///
    /// # Panics
    ///
    /// Panics if signed mode is selected without a signing key.
    pub fn new(
        me: PartyId,
        parties: PartySet,
        topology: Topology,
        mode: RelayMode,
        signing_key: Option<SigningKey>,
    ) -> Self {
        if matches!(mode, RelayMode::Signed { .. }) {
            assert!(signing_key.is_some(), "signed relay mode requires this party's signing key");
        }
        let verifier = match &mode {
            RelayMode::Signed { pki, .. } => Some(pki.verifier()),
            _ => None,
        };
        Self {
            me,
            parties,
            topology,
            mode,
            signing_key,
            verifier,
            next_id: 0,
            tallies: BTreeMap::new(),
            delivered: BTreeSet::new(),
        }
    }

    /// The parties that relay for `origin`: everyone on the opposite side.
    fn relayers_of(&self, origin: PartyId) -> impl Iterator<Item = PartyId> + '_ {
        self.parties.side(origin.side.opposite())
    }

    /// Wraps an outgoing protocol message into wire messages: a single direct send when
    /// the channel exists, or one relay request per opposite-side relayer otherwise. The
    /// relay requests share one payload allocation.
    pub fn send(&mut self, to: PartyId, msg: ProtoMsg, now: Time) -> Vec<Outgoing<WireMsg>> {
        if self.topology.connects(self.me, to) {
            return vec![Outgoing::new(to, WireMsg::Direct(msg))];
        }
        let id = self.next_id;
        self.next_id += 1;
        let sent_at = now.slot();
        let signature = match &self.mode {
            RelayMode::Signed { .. } => {
                let key = self.signing_key.as_ref().expect("signed mode holds a key");
                let digest = relay_digest(self.me, to, id, sent_at, &msg, self.parties.k());
                Some(key.sign(digest))
            }
            _ => None,
        };
        let inner = Arc::new(msg);
        self.relayers_of(self.me)
            .map(|relayer| {
                Outgoing::new(
                    relayer,
                    WireMsg::RelayRequest {
                        target: to,
                        id,
                        sent_at,
                        inner: Arc::clone(&inner),
                        signature,
                    },
                )
            })
            .collect()
    }

    /// Handles one incoming wire message.
    ///
    /// Returns the protocol payloads accepted for delivery (attributed to their origin)
    /// and the wire messages this party must send as part of its relay duty.
    pub fn handle(
        &mut self,
        from: PartyId,
        msg: WireMsg,
        now: Time,
    ) -> (Vec<(PartyId, ProtoMsg)>, Vec<Outgoing<WireMsg>>) {
        match msg {
            WireMsg::Direct(inner) => (vec![(from, inner)], Vec::new()),
            WireMsg::RelayRequest { target, id, sent_at, inner, signature } => {
                // Relay duty (step 1 of the paper's ΠbSM code for side R): forward the
                // signed tuple to its target, provided this party actually has a channel
                // to it and the request plausibly needs relaying.
                if target == self.me {
                    // A confused or malicious origin asked us to relay to ourselves;
                    // treat it as a direct delivery attempt and ignore it.
                    return (Vec::new(), Vec::new());
                }
                if !self.topology.connects(self.me, target) {
                    return (Vec::new(), Vec::new());
                }
                let deliver =
                    WireMsg::RelayDeliver { origin: from, target, id, sent_at, inner, signature };
                (Vec::new(), vec![Outgoing::new(target, deliver)])
            }
            WireMsg::RelayDeliver { origin, target, id, sent_at, inner, signature } => {
                if target != self.me {
                    return (Vec::new(), Vec::new());
                }
                if self.delivered.contains(&(origin, id)) {
                    return (Vec::new(), Vec::new());
                }
                match &self.mode {
                    RelayMode::Direct => (Vec::new(), Vec::new()),
                    RelayMode::Majority => {
                        let threshold = self.parties.k() / 2 + 1;
                        let tally = self.tallies.entry((origin, id)).or_default();
                        let at =
                            tally.iter().position(|c| c.is(sent_at, &inner)).unwrap_or_else(|| {
                                let relayers = BTreeSet::new();
                                tally.push(Candidate { sent_at, payload: inner, relayers });
                                tally.len() - 1
                            });
                        tally[at].relayers.insert(from);
                        if tally[at].relayers.len() >= threshold {
                            let winner = self
                                .tallies
                                .remove(&(origin, id))
                                .expect("the tally was just updated")
                                .swap_remove(at);
                            self.delivered.insert((origin, id));
                            (vec![(origin, Arc::unwrap_or_clone(winner.payload))], Vec::new())
                        } else {
                            (Vec::new(), Vec::new())
                        }
                    }
                    RelayMode::Signed { pki: _, key_of, max_age } => {
                        let Some(signature) = signature else {
                            return (Vec::new(), Vec::new());
                        };
                        let Some(&origin_key) = key_of.get(&origin) else {
                            return (Vec::new(), Vec::new());
                        };
                        if signature.signer() != origin_key {
                            return (Vec::new(), Vec::new());
                        }
                        if now.slot().saturating_sub(sent_at) > *max_age {
                            return (Vec::new(), Vec::new());
                        }
                        let digest =
                            relay_digest(origin, target, id, sent_at, &inner, self.parties.k());
                        let verifier =
                            self.verifier.as_mut().expect("signed mode holds a verifier");
                        if !verifier.verify(&signature, digest) {
                            return (Vec::new(), Vec::new());
                        }
                        self.delivered.insert((origin, id));
                        (vec![(origin, Arc::unwrap_or_clone(inner))], Vec::new())
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ProtoBody;
    use bsm_crypto::counters::{thread_snapshot, CounterSnapshot};

    fn msg(tag: u64) -> ProtoMsg {
        ProtoMsg { instance: 0, body: ProtoBody::Suggest(Some(tag)) }
    }

    fn parties() -> PartySet {
        PartySet::new(3)
    }

    #[test]
    fn direct_channel_sends_directly() {
        let mut engine = RelayEngine::new(
            PartyId::left(0),
            parties(),
            Topology::FullyConnected,
            RelayMode::Direct,
            None,
        );
        let out = engine.send(PartyId::left(1), msg(1), Time(0));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, WireMsg::Direct(_)));
        assert_eq!(out[0].to, PartyId::left(1));
        assert!(format!("{engine:?}").contains("RelayEngine"));
    }

    #[test]
    fn missing_channel_fans_out_to_opposite_side() {
        let mut engine = RelayEngine::new(
            PartyId::left(0),
            parties(),
            Topology::Bipartite,
            RelayMode::Majority,
            None,
        );
        let out = engine.send(PartyId::left(2), msg(1), Time(0));
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| o.to.is_right()));
        assert!(out.iter().all(|o| matches!(o.payload, WireMsg::RelayRequest { .. })));
        // Cross-side sends stay direct even in the bipartite topology.
        let direct = engine.send(PartyId::right(1), msg(2), Time(0));
        assert_eq!(direct.len(), 1);
    }

    #[test]
    fn relay_duty_forwards_to_target() {
        let mut relayer = RelayEngine::new(
            PartyId::right(1),
            parties(),
            Topology::Bipartite,
            RelayMode::Majority,
            None,
        );
        let request = WireMsg::RelayRequest {
            target: PartyId::left(2),
            id: 0,
            sent_at: 0,
            inner: Arc::new(msg(5)),
            signature: None,
        };
        let (accepted, duties) = relayer.handle(PartyId::left(0), request, Time(1));
        assert!(accepted.is_empty());
        assert_eq!(duties.len(), 1);
        assert_eq!(duties[0].to, PartyId::left(2));
        assert!(matches!(
            &duties[0].payload,
            WireMsg::RelayDeliver { origin, .. } if *origin == PartyId::left(0)
        ));
        // Requests targeting the relayer itself or unreachable parties are dropped.
        let bogus = WireMsg::RelayRequest {
            target: PartyId::right(1),
            id: 1,
            sent_at: 0,
            inner: Arc::new(msg(5)),
            signature: None,
        };
        let (a, d) = relayer.handle(PartyId::left(0), bogus, Time(1));
        assert!(a.is_empty() && d.is_empty());
    }

    #[test]
    fn majority_mode_needs_strict_majority_of_identical_payloads() {
        let me = PartyId::left(2);
        let mut engine =
            RelayEngine::new(me, parties(), Topology::Bipartite, RelayMode::Majority, None);
        let origin = PartyId::left(0);
        let deliver = |_from: PartyId, payload: ProtoMsg| WireMsg::RelayDeliver {
            origin,
            target: me,
            id: 7,
            sent_at: 0,
            inner: Arc::new(payload),
            signature: None,
        };
        // One relayer delivering a forged payload and one honest delivery: no acceptance
        // yet (threshold is 2 of 3).
        let (a, _) = engine.handle(PartyId::right(0), deliver(PartyId::right(0), msg(9)), Time(2));
        assert!(a.is_empty());
        let (a, _) = engine.handle(PartyId::right(1), deliver(PartyId::right(1), msg(1)), Time(2));
        assert!(a.is_empty());
        // A duplicate from the same relayer does not help.
        let (a, _) = engine.handle(PartyId::right(1), deliver(PartyId::right(1), msg(1)), Time(2));
        assert!(a.is_empty());
        // A second distinct relayer with the same payload crosses the threshold.
        let (a, _) = engine.handle(PartyId::right(2), deliver(PartyId::right(2), msg(1)), Time(2));
        assert_eq!(a, vec![(origin, msg(1))]);
        // Replays after delivery are ignored.
        let (a, _) = engine.handle(PartyId::right(0), deliver(PartyId::right(0), msg(1)), Time(3));
        assert!(a.is_empty());
    }

    #[test]
    fn signed_mode_accepts_single_honest_relayer_and_rejects_tampering() {
        let k = 3usize;
        let pki = Pki::new(2 * k as u32);
        let key_of: BTreeMap<PartyId, KeyId> =
            PartySet::new(k).iter().map(|p| (p, KeyId(p.dense(k) as u32))).collect();
        let origin = PartyId::left(0);
        let target = PartyId::left(2);
        let origin_key = pki.signing_key(key_of[&origin].0).unwrap();
        let target_key = pki.signing_key(key_of[&target].0).unwrap();

        let mode = RelayMode::Signed { pki: pki.clone(), key_of: key_of.clone(), max_age: 2 };
        let mut sender_engine = RelayEngine::new(
            origin,
            PartySet::new(k),
            Topology::Bipartite,
            mode.clone(),
            Some(origin_key),
        );
        let mut receiver_engine =
            RelayEngine::new(target, PartySet::new(k), Topology::Bipartite, mode, Some(target_key));

        let requests = sender_engine.send(target, msg(3), Time(0));
        assert_eq!(requests.len(), 3);
        let WireMsg::RelayRequest { id, sent_at, inner, signature, .. } =
            requests[0].payload.clone()
        else {
            panic!("expected a relay request");
        };
        // A single honest relayer forwards it; the receiver accepts.
        let deliver =
            WireMsg::RelayDeliver { origin, target, id, sent_at, inner: inner.clone(), signature };
        let (accepted, _) = receiver_engine.handle(PartyId::right(0), deliver.clone(), Time(2));
        assert_eq!(accepted, vec![(origin, msg(3))]);
        // Duplicates are suppressed.
        let (again, _) = receiver_engine.handle(PartyId::right(1), deliver, Time(2));
        assert!(again.is_empty());

        // Tampered content is rejected (signature no longer verifies).
        let tampered = WireMsg::RelayDeliver {
            origin,
            target,
            id: id + 1,
            sent_at,
            inner: Arc::new(msg(99)),
            signature,
        };
        let (rejected, _) = receiver_engine.handle(PartyId::right(0), tampered, Time(2));
        assert!(rejected.is_empty());

        // Stale deliveries (older than max_age slots) are rejected.
        let more = sender_engine.send(target, msg(4), Time(1));
        let WireMsg::RelayRequest { id, sent_at, inner, signature, .. } = more[0].payload.clone()
        else {
            panic!("expected a relay request");
        };
        let late = WireMsg::RelayDeliver { origin, target, id, sent_at, inner, signature };
        let (rejected, _) = receiver_engine.handle(PartyId::right(0), late, Time(10));
        assert!(rejected.is_empty());

        // Unsigned deliveries are rejected in signed mode.
        let unsigned = WireMsg::RelayDeliver {
            origin,
            target,
            id: 50,
            sent_at: 9,
            inner: Arc::new(msg(5)),
            signature: None,
        };
        let (rejected, _) = receiver_engine.handle(PartyId::right(0), unsigned, Time(10));
        assert!(rejected.is_empty());
    }

    #[test]
    fn direct_mode_ignores_relayed_traffic() {
        let me = PartyId::left(1);
        let mut engine =
            RelayEngine::new(me, parties(), Topology::FullyConnected, RelayMode::Direct, None);
        let deliver = WireMsg::RelayDeliver {
            origin: PartyId::left(0),
            target: me,
            id: 0,
            sent_at: 0,
            inner: Arc::new(msg(1)),
            signature: None,
        };
        let (accepted, duties) = engine.handle(PartyId::right(0), deliver, Time(1));
        assert!(accepted.is_empty());
        assert!(duties.is_empty());
    }

    /// A majority-mode engine for `me` in a bipartite market of size 3.
    fn majority_engine(me: PartyId) -> RelayEngine {
        RelayEngine::new(me, parties(), Topology::Bipartite, RelayMode::Majority, None)
    }

    /// A relayed delivery of `inner` for (origin, id 7).
    fn delivery(origin: PartyId, target: PartyId, sent_at: u64, inner: Arc<ProtoMsg>) -> WireMsg {
        WireMsg::RelayDeliver { origin, target, id: 7, sent_at, inner, signature: None }
    }

    #[test]
    fn send_shares_one_payload_across_its_relay_requests() {
        let mut engine = majority_engine(PartyId::left(0));
        let out = engine.send(PartyId::left(2), msg(1), Time(0));
        let payloads: Vec<&Arc<ProtoMsg>> = out
            .iter()
            .map(|o| match &o.payload {
                WireMsg::RelayRequest { inner, .. } => inner,
                other => panic!("expected a relay request, got {other:?}"),
            })
            .collect();
        assert_eq!(payloads.len(), 3);
        assert!(payloads.iter().all(|p| Arc::ptr_eq(p, payloads[0])));
        // A second send allocates its own payload.
        let next = engine.send(PartyId::left(2), msg(1), Time(0));
        let WireMsg::RelayRequest { inner, .. } = &next[0].payload else {
            panic!("expected a relay request");
        };
        assert!(!Arc::ptr_eq(inner, payloads[0]));
    }

    #[test]
    fn majority_same_payload_with_different_sent_at_is_a_different_candidate() {
        let (origin, me) = (PartyId::left(0), PartyId::left(2));
        let mut engine = majority_engine(me);
        // Equal payload values in separate allocations, so only the value compare can
        // match them.
        let (a, _) =
            engine.handle(PartyId::right(0), delivery(origin, me, 0, Arc::new(msg(1))), Time(2));
        assert!(a.is_empty());
        let (a, _) =
            engine.handle(PartyId::right(1), delivery(origin, me, 1, Arc::new(msg(1))), Time(2));
        assert!(a.is_empty(), "two relayers backing different τ must not reach 2 of 3");
        assert_eq!(engine.tallies[&(origin, 7)].len(), 2);
        let (a, _) =
            engine.handle(PartyId::right(2), delivery(origin, me, 0, Arc::new(msg(1))), Time(2));
        assert_eq!(a, vec![(origin, msg(1))]);
    }

    #[test]
    fn majority_relayer_backing_several_candidates_counts_toward_each() {
        let (origin, me) = (PartyId::left(0), PartyId::left(2));
        // Either of the byzantine relayer's candidates wins once one more relayer backs it.
        for second in [msg(9), msg(1)] {
            let mut engine = majority_engine(me);
            let byzantine = PartyId::right(0);
            for payload in [msg(9), msg(1)] {
                let (a, _) =
                    engine.handle(byzantine, delivery(origin, me, 0, Arc::new(payload)), Time(2));
                assert!(a.is_empty());
            }
            assert_eq!(engine.tallies[&(origin, 7)].len(), 2);
            let (a, _) = engine.handle(
                PartyId::right(1),
                delivery(origin, me, 0, Arc::new(second.clone())),
                Time(2),
            );
            assert_eq!(a, vec![(origin, second)]);
        }
    }

    #[test]
    fn forged_flood_does_not_block_the_honest_payload() {
        let (origin, me) = (PartyId::left(0), PartyId::left(2));
        let mut engine = majority_engine(me);
        for forged in 1000..2000 {
            let flood = delivery(origin, me, 0, Arc::new(msg(forged)));
            let (a, _) = engine.handle(PartyId::right(0), flood, Time(2));
            assert!(a.is_empty(), "a lone relayer must never reach the threshold");
        }
        assert_eq!(engine.tallies[&(origin, 7)].len(), 1000);
        let honest = Arc::new(msg(1));
        let (a, _) =
            engine.handle(PartyId::right(1), delivery(origin, me, 0, Arc::clone(&honest)), Time(2));
        assert!(a.is_empty());
        let (a, _) = engine.handle(PartyId::right(2), delivery(origin, me, 0, honest), Time(2));
        assert_eq!(a, vec![(origin, msg(1))]);
        assert!(engine.tallies.is_empty(), "acceptance frees the (origin, id) tally");
        // A forged copy arriving after acceptance is dropped without a new tally.
        let late = delivery(origin, me, 0, Arc::new(msg(1500)));
        let (a, _) = engine.handle(PartyId::right(0), late, Time(3));
        assert!(a.is_empty() && engine.tallies.is_empty());
    }

    /// Runs one send from `sender` to `receiver` through every relayer's duty and hands
    /// the deliveries to `receiver`. Returns what it accepted and the crypto work done
    /// after the send (relay duty plus delivery).
    fn relay_through(
        sender: &mut RelayEngine,
        receiver: &mut RelayEngine,
        payload: ProtoMsg,
    ) -> (Vec<(PartyId, ProtoMsg)>, CounterSnapshot) {
        let (origin, target) = (sender.me, receiver.me);
        let requests = sender.send(target, payload, Time(0));
        let before = thread_snapshot();
        let mut accepted = Vec::new();
        for request in requests {
            // Relay duty is the same in every mode and needs no key.
            let mut relayer = majority_engine(request.to);
            let (_, duties) = relayer.handle(origin, request.payload, Time(1));
            for duty in duties {
                accepted.extend(receiver.handle(request.to, duty.payload, Time(2)).0);
            }
        }
        (accepted, thread_snapshot() - before)
    }

    #[test]
    fn majority_delivery_computes_no_digest() {
        let mut sender = majority_engine(PartyId::left(0));
        let mut receiver = majority_engine(PartyId::left(2));
        let (accepted, work) = relay_through(&mut sender, &mut receiver, msg(4));
        assert_eq!(accepted, vec![(PartyId::left(0), msg(4))]);
        assert_eq!(work.digests_computed, 0);
    }

    #[test]
    fn signed_mode_computes_one_relay_digest_per_verified_delivery() {
        let k = 3usize;
        let pki = Pki::new(2 * k as u32);
        let key_of: BTreeMap<PartyId, KeyId> =
            PartySet::new(k).iter().map(|p| (p, KeyId(p.dense(k) as u32))).collect();
        let (origin, target) = (PartyId::left(0), PartyId::left(2));
        let mode = RelayMode::Signed { pki: pki.clone(), key_of: key_of.clone(), max_age: 2 };
        let key = |p: PartyId| pki.signing_key(key_of[&p].0);
        let mut sender =
            RelayEngine::new(origin, parties(), Topology::Bipartite, mode.clone(), key(origin));
        let mut receiver =
            RelayEngine::new(target, parties(), Topology::Bipartite, mode, key(target));
        let (accepted, work) = relay_through(&mut sender, &mut receiver, msg(4));
        // The first delivery is verified (one digest); the other two are duplicates.
        assert_eq!(accepted, vec![(origin, msg(4))]);
        assert_eq!(work.digests_computed, 1);
        assert_eq!(work.signatures_verified, 1);
    }

    #[test]
    #[should_panic(expected = "requires this party's signing key")]
    fn signed_mode_without_key_panics() {
        let pki = Pki::new(2);
        let _ = RelayEngine::new(
            PartyId::left(0),
            parties(),
            Topology::Bipartite,
            RelayMode::Signed { pki, key_of: BTreeMap::new(), max_age: 2 },
            None,
        );
    }
}
