use crate::phase_king::{KingMsg, PhaseKing};
use crate::value::{plurality, Value};
use bsm_net::{Outgoing, PartyId, RoundProtocol};
use std::collections::BTreeMap;

/// A committee: an ordered set of parties running an agreement protocol among
/// themselves, of which at most `t` may be byzantine.
///
/// Protocols use the committee both for membership checks (messages from non-members are
/// ignored) and for deterministic role assignment (e.g. the king of each phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Committee {
    members: Vec<PartyId>,
    t: usize,
}

impl Committee {
    /// Creates a committee from its members and corruption bound `t`.
    ///
    /// Members are sorted and deduplicated; order is therefore identical at every party.
    ///
    /// # Panics
    ///
    /// Panics if the committee is empty or if `t >= members.len()` (an all-byzantine
    /// committee cannot run agreement).
    pub fn new(mut members: Vec<PartyId>, t: usize) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "a committee must have at least one member");
        assert!(
            t < members.len(),
            "corruption bound t = {t} must be below the committee size {}",
            members.len()
        );
        Self { members, t }
    }

    /// The members, in canonical (sorted) order.
    pub fn members(&self) -> &[PartyId] {
        &self.members
    }

    /// Committee size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the committee has no members (never happens for a constructed
    /// committee; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The corruption bound `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// `len - t`: the minimum number of honest members, used as the quorum size.
    pub fn quorum(&self) -> usize {
        self.len() - self.t
    }

    /// Returns `true` if the committee satisfies the phase-king resilience condition
    /// `t < len/3`.
    pub fn satisfies_third(&self) -> bool {
        3 * self.t < self.len()
    }

    /// Returns `true` if `party` is a member.
    pub fn contains(&self, party: PartyId) -> bool {
        self.members.binary_search(&party).is_ok()
    }

    /// The king of phase `phase` (0-indexed): member `phase` in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if `phase >= len`; phase-king runs `t + 1 ≤ len` phases, so valid phases
    /// never reach this.
    pub fn king_of_phase(&self, phase: u64) -> PartyId {
        self.members[usize::try_from(phase).expect("phase fits in usize")]
    }

    /// Members other than `me`, in canonical order.
    pub fn others(&self, me: PartyId) -> impl Iterator<Item = PartyId> + '_ {
        self.members.iter().copied().filter(move |&p| p != me)
    }
}

/// Messages of the committee broadcast protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitteeMsg<V> {
    /// Sender → committee: the value to be broadcast.
    Input(V),
    /// Intra-committee phase-king traffic.
    King(KingMsg<V>),
    /// Committee → everyone: the agreed value.
    Report(V),
}

impl<V: bsm_crypto::Digestible> bsm_crypto::Digestible for CommitteeMsg<V> {
    fn feed(&self, writer: &mut bsm_crypto::DigestWriter) {
        writer.label("committee-msg");
        match self {
            CommitteeMsg::Input(v) => {
                writer.u64(0);
                v.feed(writer);
            }
            CommitteeMsg::King(inner) => {
                writer.u64(1);
                inner.feed(writer);
            }
            CommitteeMsg::Report(v) => {
                writer.u64(2);
                v.feed(writer);
            }
        }
    }
}

/// Configuration of a [`CommitteeBroadcast`] instance.
#[derive(Debug, Clone)]
pub struct CommitteeBroadcastConfig<V> {
    /// The party running this instance.
    pub me: PartyId,
    /// The designated sender (any party, committee member or not).
    pub sender: PartyId,
    /// The agreement committee: the side with `t < k/3`.
    pub committee: Committee,
    /// Every party that should learn the broadcast value (both sides).
    pub all_parties: Vec<PartyId>,
    /// Fallback value adopted when the sender does not deliver a value.
    pub default: V,
}

/// Concrete instantiation of Lemma 4: byzantine broadcast in a fully-connected
/// unauthenticated network for the product adversary structure, provided one side
/// satisfies `t < k/3`.
///
/// Construction:
///
/// 1. (round 0) the sender sends its value to every committee member;
/// 2. (rounds 1 … 3(t+1)+1) the committee runs [`PhaseKing`] on the received values
///    (default for members the sender skipped);
/// 3. (next round) every committee member reports the agreed value to all parties;
/// 4. (final round) every party outputs the plurality of the reports.
///
/// With at most `t < k/3` corrupted committee members, at least `k − t > 2k/3` honest
/// members report the same value, so the plurality is unambiguous. If the sender is
/// honest, phase-king validity makes that value the sender's input.
#[derive(Debug)]
pub struct CommitteeBroadcast<V> {
    config: CommitteeBroadcastConfig<V>,
    king: Option<PhaseKing<V>>,
    received_input: Option<V>,
    reports: BTreeMap<PartyId, V>,
    output: Option<V>,
}

impl<V: Value> CommitteeBroadcast<V> {
    /// Creates an instance for `config.me` with the given input value.
    ///
    /// `input` is only meaningful when `me == sender`; other parties may pass anything
    /// (conventionally the default).
    pub fn new(config: CommitteeBroadcastConfig<V>, input: V) -> Self {
        let received_input = if config.me == config.sender { Some(input) } else { None };
        Self { config, king: None, received_input, reports: BTreeMap::new(), output: None }
    }

    /// Number of logical rounds this instance needs to produce an output.
    pub fn total_rounds(config: &CommitteeBroadcastConfig<V>) -> u64 {
        // input round + phase-king rounds + report round + decision round
        1 + PhaseKing::<V>::total_rounds(&config.committee) + 1 + 1
    }

    fn king_round_offset() -> u64 {
        1
    }

    fn report_round(&self) -> u64 {
        Self::king_round_offset() + PhaseKing::<V>::total_rounds(&self.config.committee)
    }

    fn decision_round(&self) -> u64 {
        self.report_round() + 1
    }
}

impl<V: Value> RoundProtocol for CommitteeBroadcast<V> {
    type Msg = CommitteeMsg<V>;
    type Output = V;

    fn round(
        &mut self,
        round: u64,
        inbox: &[(PartyId, CommitteeMsg<V>)],
    ) -> Vec<Outgoing<CommitteeMsg<V>>> {
        let me = self.config.me;
        let is_committee_member = self.config.committee.contains(me);
        let mut out = Vec::new();

        // Collect whatever this round's inbox holds for later stages.
        for (from, msg) in inbox {
            match msg {
                CommitteeMsg::Input(v) => {
                    // Only the first input from the designated sender counts.
                    if *from == self.config.sender && self.received_input.is_none() {
                        self.received_input = Some(v.clone());
                    }
                }
                CommitteeMsg::Report(v) => {
                    if self.config.committee.contains(*from) {
                        self.reports.entry(*from).or_insert_with(|| v.clone());
                    }
                }
                CommitteeMsg::King(_) => {}
            }
        }

        if round == 0 {
            // The sender distributes its value to the committee.
            if me == self.config.sender {
                let value = self.received_input.clone().expect("sender holds its input");
                for member in self.config.committee.others(me) {
                    out.push(Outgoing::new(member, CommitteeMsg::Input(value.clone())));
                }
            }
            return out;
        }

        let king_rounds = PhaseKing::<V>::total_rounds(&self.config.committee);
        if round >= Self::king_round_offset() && round < Self::king_round_offset() + king_rounds {
            if is_committee_member {
                let king_round = round - Self::king_round_offset();
                if king_round == 0 {
                    let input =
                        self.received_input.clone().unwrap_or_else(|| self.config.default.clone());
                    self.king = Some(PhaseKing::new(self.config.committee.clone(), me, input));
                }
                let king_inbox: Vec<(PartyId, KingMsg<V>)> = inbox
                    .iter()
                    .filter_map(|(from, msg)| match msg {
                        CommitteeMsg::King(km) => Some((*from, km.clone())),
                        _ => None,
                    })
                    .collect();
                let king = self.king.as_mut().expect("king instance was created at its round 0");
                for outgoing in king.round(king_round, &king_inbox) {
                    out.push(Outgoing::new(outgoing.to, CommitteeMsg::King(outgoing.payload)));
                }
            }
            return out;
        }

        if round == self.report_round() {
            if is_committee_member {
                let agreed = self
                    .king
                    .as_ref()
                    .and_then(|k| k.output())
                    .unwrap_or_else(|| self.config.default.clone());
                self.reports.insert(me, agreed.clone());
                for &party in &self.config.all_parties {
                    if party != me {
                        out.push(Outgoing::new(party, CommitteeMsg::Report(agreed.clone())));
                    }
                }
            }
            return out;
        }

        if round == self.decision_round() && self.output.is_none() {
            let decision = plurality(self.reports.values().cloned())
                .map(|(v, _)| v)
                .unwrap_or_else(|| self.config.default.clone());
            self.output = Some(decision);
        }
        out
    }

    fn output(&self) -> Option<V> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committee_construction_and_roles() {
        let committee = Committee::new(
            vec![PartyId::left(2), PartyId::left(0), PartyId::left(1), PartyId::left(1)],
            1,
        );
        assert_eq!(committee.len(), 3);
        assert!(!committee.is_empty());
        assert_eq!(committee.t(), 1);
        assert_eq!(committee.quorum(), 2);
        assert!(!committee.satisfies_third());
        assert!(committee.contains(PartyId::left(1)));
        assert!(!committee.contains(PartyId::right(0)));
        assert_eq!(committee.king_of_phase(0), PartyId::left(0));
        assert_eq!(committee.king_of_phase(1), PartyId::left(1));
        assert_eq!(committee.others(PartyId::left(1)).count(), 2);

        let big = Committee::new((0..7).map(PartyId::left).collect(), 2);
        assert!(big.satisfies_third());
    }

    #[test]
    #[should_panic(expected = "below the committee size")]
    fn committee_rejects_all_byzantine() {
        let _ = Committee::new(vec![PartyId::left(0)], 1);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn committee_rejects_empty() {
        let _ = Committee::new(vec![], 0);
    }

    #[test]
    fn total_rounds_accounts_for_all_stages() {
        let committee = Committee::new((0..4).map(PartyId::left).collect(), 1);
        let config = CommitteeBroadcastConfig {
            me: PartyId::left(0),
            sender: PartyId::right(0),
            committee: committee.clone(),
            all_parties: vec![PartyId::left(0)],
            default: 0u32,
        };
        // 1 input + 3(t+1)+1 king rounds + 1 report + 1 decision.
        assert_eq!(
            CommitteeBroadcast::<u32>::total_rounds(&config),
            1 + PhaseKing::<u32>::total_rounds(&committee) + 2
        );
    }
}
