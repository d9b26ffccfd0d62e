use crate::{
    Adversary, AdversaryContext, CorruptionBudget, Envelope, FaultAction, FaultSchedule, Metrics,
    Outgoing, PartyId, PartySet, PassiveAdversary, Process, Time, Topology,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors raised while configuring or driving a [`SyncNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A process was registered for a party outside the party set.
    UnknownParty {
        /// The offending party.
        party: PartyId,
    },
    /// Two processes were registered for the same party.
    DuplicateProcess {
        /// The offending party.
        party: PartyId,
    },
    /// `run` was called while some party still has no process registered.
    MissingProcess {
        /// The party without a process.
        party: PartyId,
    },
    /// Corrupting the requested party would exceed the per-side budget.
    CorruptionBudgetExceeded {
        /// The party that could not be corrupted.
        party: PartyId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownParty { party } => write!(f, "party {party} is not in the network"),
            SimError::DuplicateProcess { party } => {
                write!(f, "a process is already registered for party {party}")
            }
            SimError::MissingProcess { party } => {
                write!(f, "no process registered for party {party}")
            }
            SimError::CorruptionBudgetExceeded { party } => {
                write!(f, "corrupting {party} would exceed the corruption budget")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The result of driving a network until all honest parties decided (or a slot budget
/// ran out).
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// First output recorded for each party (absent if the party never decided; outputs
    /// of parties that were corrupted before deciding are not recorded).
    pub outputs: BTreeMap<PartyId, O>,
    /// Parties that were corrupted at any point of the run.
    pub corrupted: BTreeSet<PartyId>,
    /// Whether every never-corrupted party produced an output within the slot budget.
    pub all_honest_decided: bool,
    /// Number of slots executed.
    pub slots: u64,
    /// Message accounting.
    pub metrics: Metrics,
}

impl<O> RunOutcome<O> {
    /// Parties that stayed honest for the whole run.
    pub fn honest_parties(&self, parties: PartySet) -> Vec<PartyId> {
        parties.iter().filter(|p| !self.corrupted.contains(p)).collect()
    }

    /// The output of a specific party, if it decided.
    pub fn output_of(&self, party: PartyId) -> Option<&O> {
        self.outputs.get(&party)
    }
}

/// A deterministic synchronous network of `2k` parties running [`Process`] state
/// machines under an adaptive byzantine adversary and an optional fault schedule.
///
/// Slot semantics: at slot `t` every process receives the messages whose delivery slot
/// is `≤ t` that it has not seen yet, then sends messages that will be delivered at slot
/// `t + 1` (delivery within `Δ`). The adversary observes only corrupted parties'
/// inboxes, may corrupt more parties at the start of each slot (within the budget), and
/// sends arbitrary topology-respecting messages on behalf of corrupted parties.
pub struct SyncNetwork<M, O> {
    parties: PartySet,
    topology: Topology,
    budget: CorruptionBudget,
    processes: BTreeMap<PartyId, Box<dyn Process<M, O>>>,
    corrupted: BTreeSet<PartyId>,
    adversary: Box<dyn Adversary<M>>,
    faults: Option<FaultSchedule>,
    in_flight: Vec<Envelope<M>>,
    outputs: BTreeMap<PartyId, O>,
    now: Time,
    metrics: Metrics,
    // Reusable per-slot buffers: cleared (not dropped) at the end of every slot, so
    // steady-state stepping performs no per-slot Vec allocations.
    /// Per-party inbox buffers, reused across slots.
    inboxes: BTreeMap<PartyId, Vec<Envelope<M>>>,
    /// Messages due for delivery this slot.
    due: Vec<Envelope<M>>,
    /// Messages staying in flight past this slot (swapped with `in_flight`).
    later: Vec<Envelope<M>>,
    /// Honest sends collected this slot.
    to_send: Vec<(PartyId, Outgoing<M>)>,
    /// Honest parties of the current slot.
    honest: Vec<PartyId>,
}

impl<M, O> fmt::Debug for SyncNetwork<M, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyncNetwork")
            .field("k", &self.parties.k())
            .field("topology", &self.topology)
            .field("budget", &self.budget)
            .field("now", &self.now)
            .field("corrupted", &self.corrupted)
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

impl<M: Clone, O: Clone> SyncNetwork<M, O> {
    /// Creates an empty network for a market of size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, topology: Topology, budget: CorruptionBudget) -> Self {
        Self {
            parties: PartySet::new(k),
            topology,
            budget,
            processes: BTreeMap::new(),
            corrupted: BTreeSet::new(),
            adversary: Box::new(PassiveAdversary),
            faults: None,
            in_flight: Vec::new(),
            outputs: BTreeMap::new(),
            now: Time::ZERO,
            metrics: Metrics::default(),
            inboxes: BTreeMap::new(),
            due: Vec::new(),
            later: Vec::new(),
            to_send: Vec::new(),
            honest: Vec::new(),
        }
    }

    /// The party universe.
    pub fn parties(&self) -> PartySet {
        self.parties
    }

    /// The topology in force.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The current slot.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Parties currently corrupted.
    pub fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    /// Message accounting so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Registers the protocol state machine for one party.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownParty`] if the process's id is outside the party set
    /// and [`SimError::DuplicateProcess`] if the party already has a process.
    pub fn register(&mut self, process: Box<dyn Process<M, O>>) -> Result<(), SimError> {
        let id = process.id();
        if !self.parties.contains(id) {
            return Err(SimError::UnknownParty { party: id });
        }
        if self.processes.contains_key(&id) {
            return Err(SimError::DuplicateProcess { party: id });
        }
        self.processes.insert(id, process);
        Ok(())
    }

    /// Installs the byzantine adversary (default: [`PassiveAdversary`]).
    pub fn set_adversary(&mut self, adversary: Box<dyn Adversary<M>>) {
        self.adversary = adversary;
    }

    /// Installs a fault schedule (default: none, every accepted message is delivered
    /// at the next slot).
    pub fn set_faults(&mut self, faults: FaultSchedule) {
        self.faults = Some(faults);
    }

    /// Statically corrupts a party before the run starts (or adaptively between slots).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownParty`] for a party outside the set and
    /// [`SimError::CorruptionBudgetExceeded`] if the per-side budget does not allow it.
    pub fn corrupt(&mut self, party: PartyId) -> Result<(), SimError> {
        if !self.parties.contains(party) {
            return Err(SimError::UnknownParty { party });
        }
        if !self.budget.allows(&self.corrupted, party) {
            return Err(SimError::CorruptionBudgetExceeded { party });
        }
        self.corrupted.insert(party);
        // A party corrupted before deciding contributes no honest output.
        self.outputs.remove(&party);
        Ok(())
    }

    /// Validates an outgoing message and, if accepted, enqueues it for delivery at the
    /// next slot.
    fn enqueue(&mut self, from: PartyId, outgoing: Outgoing<M>, byzantine: bool) {
        if !self.parties.contains(outgoing.to) || !self.topology.connects(from, outgoing.to) {
            self.metrics.rejected_by_topology += 1;
            return;
        }
        let mut envelope = Envelope {
            from,
            to: outgoing.to,
            sent_at: self.now,
            deliver_at: self.now + 1,
            payload: outgoing.payload,
        };
        self.metrics.record_sent(from, byzantine);
        let action = match &mut self.faults {
            Some(faults) => faults.action(&envelope, self.now),
            None => FaultAction::Deliver,
        };
        match action {
            FaultAction::Deliver => self.in_flight.push(envelope),
            FaultAction::Drop => self.metrics.dropped_by_faults += 1,
            FaultAction::Delay(extra) => {
                envelope.deliver_at = self.now + 1 + extra;
                self.metrics.delayed_by_faults += 1;
                self.in_flight.push(envelope);
            }
        }
    }

    /// Executes a single slot.
    ///
    /// Steady-state stepping is allocation-light: the per-slot inbox, delivery and
    /// send buffers live on the network and are cleared — not dropped — between
    /// slots, and the adversary context borrows the corrupted set instead of cloning
    /// it at every consultation.
    pub fn step(&mut self) {
        // 1. Adaptive corruptions.
        let requested = self.adversary.plan_corruptions(&AdversaryContext {
            now: self.now,
            parties: self.parties,
            topology: self.topology,
            corrupted: &self.corrupted,
            budget: self.budget,
        });
        for party in requested {
            // Requests beyond the budget or outside the party set are ignored: the
            // adversary cannot exceed (tL, tR) by construction.
            let _ = self.corrupt(party);
        }

        // 2. Deliver messages due at this slot (stable split, preserving the enqueue
        // order so same-sender-same-slot messages keep their deterministic order).
        let now = self.now;
        for envelope in self.in_flight.drain(..) {
            if envelope.deliver_at <= now {
                self.due.push(envelope);
            } else {
                self.later.push(envelope);
            }
        }
        std::mem::swap(&mut self.in_flight, &mut self.later);
        for envelope in self.due.drain(..) {
            self.metrics.delivered_messages += 1;
            self.inboxes.entry(envelope.to).or_default().push(envelope);
        }
        // Deterministic delivery order within a slot: sort by sender (stable).
        for inbox in self.inboxes.values_mut() {
            inbox.sort_by_key(|env| (env.from, env.sent_at));
        }

        // 3. Step honest processes.
        self.honest.clear();
        let corrupted = &self.corrupted;
        self.honest.extend(self.processes.keys().copied().filter(|p| !corrupted.contains(p)));
        let mut to_send = std::mem::take(&mut self.to_send);
        for i in 0..self.honest.len() {
            let party = self.honest[i];
            let process = self.processes.get_mut(&party).expect("honest process exists");
            let inbox = self.inboxes.entry(party).or_default();
            for outgoing in process.step(now, inbox) {
                to_send.push((party, outgoing));
            }
            if let std::collections::btree_map::Entry::Vacant(entry) = self.outputs.entry(party) {
                if let Some(output) = process.output() {
                    entry.insert(output);
                }
            }
        }
        for (from, outgoing) in to_send.drain(..) {
            self.enqueue(from, outgoing, false);
        }
        self.to_send = to_send;

        // 4. The adversary acts with the corrupted parties' inboxes. Their buffers are
        // lent out by value for the call and reclaimed (cleared) afterwards.
        let mut corrupted_inboxes: BTreeMap<PartyId, Vec<Envelope<M>>> = BTreeMap::new();
        for &party in &self.corrupted {
            if let Some(inbox) = self.inboxes.get_mut(&party) {
                if !inbox.is_empty() {
                    corrupted_inboxes.insert(party, std::mem::take(inbox));
                }
            }
        }
        let byzantine_sends = self.adversary.act(
            &AdversaryContext {
                now: self.now,
                parties: self.parties,
                topology: self.topology,
                corrupted: &self.corrupted,
                budget: self.budget,
            },
            &corrupted_inboxes,
        );
        for (from, outgoing) in byzantine_sends {
            if !self.corrupted.contains(&from) {
                // The adversary can only speak for parties it controls.
                self.metrics.rejected_by_topology += 1;
                continue;
            }
            self.enqueue(from, outgoing, true);
        }
        for (party, inbox) in corrupted_inboxes {
            self.inboxes.insert(party, inbox);
        }
        // Single end-of-slot sweep: every inbox buffer — honest (drained or not by its
        // process), corrupted (returned from the adversary), or undeliverable (a party
        // with no registered process when `step` is driven directly) — is emptied
        // here, exactly as the former per-slot map dropped its contents. The buffers
        // themselves are retained for the next slot.
        for inbox in self.inboxes.values_mut() {
            inbox.clear();
        }

        self.metrics.slots += 1;
        self.now += 1;
    }

    /// Returns `true` if every currently-honest party has produced an output.
    pub fn all_honest_decided(&self) -> bool {
        self.parties
            .iter()
            .filter(|p| !self.corrupted.contains(p))
            .all(|p| self.outputs.contains_key(&p))
    }

    /// Runs until every honest party decided or `max_slots` slots have elapsed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingProcess`] if some party has no registered process.
    pub fn run(mut self, max_slots: u64) -> Result<RunOutcome<O>, SimError> {
        for party in self.parties.iter() {
            if !self.processes.contains_key(&party) {
                return Err(SimError::MissingProcess { party });
            }
        }
        let mut executed = 0u64;
        while executed < max_slots && !self.all_honest_decided() {
            self.step();
            executed += 1;
        }
        let all_honest_decided = self.all_honest_decided();
        // Outputs of parties that were corrupted after deciding stay recorded, but the
        // bSM property checkers only consider never-corrupted parties; drop the rest to
        // keep the outcome unambiguous. Both sets move out — no cloning.
        let mut outputs = self.outputs;
        let corrupted = self.corrupted;
        outputs.retain(|party, _| !corrupted.contains(party));
        Ok(RunOutcome {
            outputs,
            corrupted,
            all_honest_decided,
            slots: executed,
            metrics: self.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{multicast, SilentProcess};
    use std::collections::BTreeMap;

    /// Every party announces its own index to everyone it can reach, then outputs the
    /// set of indices heard (including its own) after two slots.
    struct GossipProcess {
        id: PartyId,
        parties: PartySet,
        topology: Topology,
        heard: BTreeSet<PartyId>,
        output: Option<Vec<PartyId>>,
    }

    impl GossipProcess {
        fn new(id: PartyId, parties: PartySet, topology: Topology) -> Self {
            Self { id, parties, topology, heard: [id].into_iter().collect(), output: None }
        }
    }

    impl Process<u32, Vec<PartyId>> for GossipProcess {
        fn id(&self) -> PartyId {
            self.id
        }

        fn step(&mut self, now: Time, inbox: &mut Vec<Envelope<u32>>) -> Vec<Outgoing<u32>> {
            for env in inbox.drain(..) {
                self.heard.insert(env.from);
            }
            match now.slot() {
                0 => {
                    let neighbours: Vec<PartyId> = self
                        .parties
                        .iter()
                        .filter(|&p| self.topology.connects(self.id, p))
                        .collect();
                    multicast(neighbours, self.id.index)
                }
                1 => Vec::new(),
                _ => {
                    if self.output.is_none() {
                        self.output = Some(self.heard.iter().copied().collect());
                    }
                    Vec::new()
                }
            }
        }

        fn output(&self) -> Option<Vec<PartyId>> {
            self.output.clone()
        }
    }

    fn gossip_network(
        k: usize,
        topology: Topology,
        budget: CorruptionBudget,
    ) -> SyncNetwork<u32, Vec<PartyId>> {
        let mut net = SyncNetwork::new(k, topology, budget);
        let parties = net.parties();
        for party in parties.iter() {
            net.register(Box::new(GossipProcess::new(party, parties, topology))).unwrap();
        }
        net
    }

    #[test]
    fn gossip_reaches_all_neighbours_in_full_mesh() {
        let net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::NONE);
        let outcome = net.run(10).unwrap();
        assert!(outcome.all_honest_decided);
        for party in PartySet::new(2).iter() {
            let heard = &outcome.outputs[&party];
            assert_eq!(heard.len(), 4, "{party} heard {heard:?}");
        }
        assert_eq!(outcome.metrics.rejected_by_topology, 0);
        assert_eq!(outcome.metrics.honest_messages, 4 * 3);
    }

    #[test]
    fn bipartite_topology_blocks_same_side_messages() {
        let net = gossip_network(2, Topology::Bipartite, CorruptionBudget::NONE);
        let outcome = net.run(10).unwrap();
        for party in PartySet::new(2).iter() {
            let heard = &outcome.outputs[&party];
            // Each party hears itself plus the two parties on the other side.
            assert_eq!(heard.len(), 3, "{party} heard {heard:?}");
            assert!(heard.iter().filter(|p| p.side == party.side).count() == 1);
        }
    }

    #[test]
    fn one_sided_topology_connects_right_side_only() {
        let net = gossip_network(3, Topology::OneSided, CorruptionBudget::NONE);
        let outcome = net.run(10).unwrap();
        for party in PartySet::new(3).iter() {
            let heard = &outcome.outputs[&party];
            if party.is_left() {
                assert_eq!(heard.len(), 4); // itself + 3 right parties
            } else {
                assert_eq!(heard.len(), 6); // everyone
            }
        }
    }

    #[test]
    fn corrupted_parties_crash_under_passive_adversary() {
        let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::new(1, 0));
        net.corrupt(PartyId::left(0)).unwrap();
        let outcome = net.run(10).unwrap();
        // The corrupted party has no recorded output…
        assert!(outcome.output_of(PartyId::left(0)).is_none());
        assert!(outcome.corrupted.contains(&PartyId::left(0)));
        // …and nobody heard from it.
        for party in PartySet::new(2).iter().filter(|p| *p != PartyId::left(0)) {
            assert!(!outcome.outputs[&party].contains(&PartyId::left(0)));
        }
        assert_eq!(outcome.honest_parties(PartySet::new(2)).len(), 3);
    }

    #[test]
    fn corruption_budget_is_enforced() {
        let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::new(1, 0));
        net.corrupt(PartyId::left(0)).unwrap();
        assert_eq!(
            net.corrupt(PartyId::left(1)),
            Err(SimError::CorruptionBudgetExceeded { party: PartyId::left(1) })
        );
        assert_eq!(
            net.corrupt(PartyId::right(5)),
            Err(SimError::UnknownParty { party: PartyId::right(5) })
        );
    }

    #[test]
    fn registration_errors() {
        let mut net: SyncNetwork<u32, Vec<PartyId>> =
            SyncNetwork::new(1, Topology::FullyConnected, CorruptionBudget::NONE);
        assert_eq!(
            net.register(Box::new(SilentProcess::new(PartyId::left(7)))),
            Err(SimError::UnknownParty { party: PartyId::left(7) })
        );
        net.register(Box::new(SilentProcess::new(PartyId::left(0)))).unwrap();
        assert_eq!(
            net.register(Box::new(SilentProcess::new(PartyId::left(0)))),
            Err(SimError::DuplicateProcess { party: PartyId::left(0) })
        );
        // Running with a missing process reports which party is missing.
        let err = net.run(1).unwrap_err();
        assert_eq!(err, SimError::MissingProcess { party: PartyId::right(0) });
    }

    #[test]
    fn run_stops_at_slot_budget_when_processes_never_decide() {
        let mut net: SyncNetwork<u32, Vec<PartyId>> =
            SyncNetwork::new(1, Topology::FullyConnected, CorruptionBudget::NONE);
        for party in net.parties().iter() {
            net.register(Box::new(SilentProcess::new(party))).unwrap();
        }
        let outcome = net.run(5).unwrap();
        assert!(!outcome.all_honest_decided);
        assert_eq!(outcome.slots, 5);
        assert!(outcome.outputs.is_empty());
    }

    #[test]
    fn fault_injector_drops_messages() {
        let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::NONE);
        net.set_faults(crate::FaultSchedule::new("loss=1000".parse().unwrap(), 0));
        let outcome = net.run(10).unwrap();
        for party in PartySet::new(2).iter() {
            assert_eq!(outcome.outputs[&party], vec![party]);
        }
        assert_eq!(outcome.metrics.dropped_by_faults, 12);
        assert_eq!(outcome.metrics.delivered_messages, 0);
    }

    #[test]
    fn fault_schedule_delays_messages_without_losing_them() {
        let run = || {
            let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::NONE);
            let spec: crate::FaultSpec = "jitter=3".parse().unwrap();
            net.set_faults(crate::FaultSchedule::new(spec, 9));
            net.run(20).unwrap()
        };
        let outcome = run();
        assert!(outcome.all_honest_decided);
        assert!(outcome.metrics.delayed_by_faults > 0, "jitter=3 should delay something");
        assert_eq!(outcome.metrics.dropped_by_faults, 0, "jitter never drops");
        let again = run();
        assert_eq!(outcome.outputs, again.outputs);
        assert_eq!(outcome.metrics, again.metrics);
    }

    #[test]
    fn none_schedule_equals_no_schedule() {
        // Scenario runs skip installing a `NONE` plan; that is only sound if it is a
        // no-op, whatever the seed.
        for topology in [Topology::FullyConnected, Topology::Bipartite] {
            let bare = gossip_network(3, topology, CorruptionBudget::NONE).run(10).unwrap();
            for seed in [0, 7] {
                let mut net = gossip_network(3, topology, CorruptionBudget::NONE);
                net.set_faults(crate::FaultSchedule::new(crate::FaultSpec::NONE, seed));
                let scheduled = net.run(10).unwrap();
                assert_eq!(bare.outputs, scheduled.outputs, "{topology:?} seed {seed}");
                assert_eq!(bare.metrics, scheduled.metrics, "{topology:?} seed {seed}");
                assert_eq!(bare.slots, scheduled.slots, "{topology:?} seed {seed}");
            }
        }
    }

    /// An adversary that equivocates: it sends different values to different recipients
    /// on behalf of every corrupted party, and adaptively corrupts a configured victim
    /// at slot 1.
    struct EquivocatingAdversary {
        adaptively_corrupt: Option<PartyId>,
    }

    impl Adversary<u32> for EquivocatingAdversary {
        fn plan_corruptions(&mut self, ctx: &AdversaryContext<'_>) -> Vec<PartyId> {
            if ctx.now == Time(1) {
                self.adaptively_corrupt.take().into_iter().collect()
            } else {
                Vec::new()
            }
        }

        fn act(
            &mut self,
            ctx: &AdversaryContext<'_>,
            _inboxes: &BTreeMap<PartyId, Vec<Envelope<u32>>>,
        ) -> Vec<(PartyId, Outgoing<u32>)> {
            let mut out = Vec::new();
            for &byzantine in ctx.corrupted {
                for (i, honest) in ctx.honest().into_iter().enumerate() {
                    if ctx.topology.connects(byzantine, honest) {
                        out.push((byzantine, Outgoing::new(honest, 100 + i as u32)));
                    }
                }
                // Attempts to speak over non-existent channels are rejected silently.
                out.push((byzantine, Outgoing::new(byzantine, 0)));
            }
            // Attempt to speak for an honest party: must be rejected.
            if let Some(honest) = ctx.honest().first().copied() {
                if let Some(other) = ctx.honest().get(1).copied() {
                    out.push((honest, Outgoing::new(other, 999)));
                }
            }
            out
        }
    }

    #[test]
    fn adversary_messages_respect_identity_and_topology() {
        let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::new(1, 1));
        net.corrupt(PartyId::left(0)).unwrap();
        net.set_adversary(Box::new(EquivocatingAdversary {
            adaptively_corrupt: Some(PartyId::right(0)),
        }));
        let outcome = net.run(10).unwrap();
        // Both statically and adaptively corrupted parties are recorded.
        assert!(outcome.corrupted.contains(&PartyId::left(0)));
        assert!(outcome.corrupted.contains(&PartyId::right(0)));
        // Spoofed sends (on behalf of honest parties) and self-sends were rejected.
        assert!(outcome.metrics.rejected_by_topology > 0);
        // Byzantine traffic is accounted separately from honest traffic.
        assert!(outcome.metrics.byzantine_messages > 0);
        // Honest parties still decided.
        assert!(outcome.output_of(PartyId::left(1)).is_some());
        assert!(outcome.output_of(PartyId::right(1)).is_some());
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut net = gossip_network(3, Topology::OneSided, CorruptionBudget::new(1, 1));
            net.corrupt(PartyId::right(2)).unwrap();
            net.set_adversary(Box::new(EquivocatingAdversary { adaptively_corrupt: None }));
            let outcome = net.run(10).unwrap();
            (outcome.outputs, outcome.metrics)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn debug_and_accessors() {
        let net = gossip_network(2, Topology::Bipartite, CorruptionBudget::new(1, 1));
        assert_eq!(net.topology(), Topology::Bipartite);
        assert_eq!(net.parties().k(), 2);
        assert_eq!(net.now(), Time::ZERO);
        assert!(net.corrupted().is_empty());
        assert_eq!(net.metrics().total_messages(), 0);
        assert!(format!("{net:?}").contains("SyncNetwork"));
    }

    #[test]
    fn sim_error_display() {
        for err in [
            SimError::UnknownParty { party: PartyId::left(0) },
            SimError::DuplicateProcess { party: PartyId::left(0) },
            SimError::MissingProcess { party: PartyId::left(0) },
            SimError::CorruptionBudgetExceeded { party: PartyId::left(0) },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
