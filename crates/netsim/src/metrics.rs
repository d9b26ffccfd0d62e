use crate::PartyId;
use std::collections::{BTreeMap, BTreeSet};

/// Message and round accounting for one simulation run.
///
/// The cost tables (E6–E8 and E11, the `cost_tables` binary of `bsm-bench`) read these
/// counters to build the rounds/messages-versus-`k` tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages accepted into the network from honest parties.
    pub honest_messages: u64,
    /// Messages accepted into the network from corrupted parties.
    pub byzantine_messages: u64,
    /// Messages actually delivered to a recipient.
    pub delivered_messages: u64,
    /// Messages dropped by the fault schedule.
    pub dropped_by_faults: u64,
    /// Messages the fault schedule delayed past their normal next-slot delivery
    /// (they were still delivered, just later).
    pub delayed_by_faults: u64,
    /// Messages discarded because the topology has no such channel (or the destination
    /// does not exist). For honest protocol code this should stay 0.
    pub rejected_by_topology: u64,
    /// Number of slots executed.
    pub slots: u64,
    /// Messages sent per party (honest and byzantine).
    pub sent_per_party: BTreeMap<PartyId, u64>,
}

impl Metrics {
    /// Total messages accepted into the network.
    pub fn total_messages(&self) -> u64 {
        self.honest_messages + self.byzantine_messages
    }

    /// Records an accepted message from `sender`.
    pub(crate) fn record_sent(&mut self, sender: PartyId, byzantine: bool) {
        if byzantine {
            self.byzantine_messages += 1;
        } else {
            self.honest_messages += 1;
        }
        *self.sent_per_party.entry(sender).or_insert(0) += 1;
    }

    /// Collapses [`sent_per_party`](Self::sent_per_party) into per-role fan-out
    /// summaries, splitting senders by membership in `corrupted`.
    ///
    /// This is the export hook the campaign telemetry uses: the full per-party map is
    /// too wide to stream per cell (it grows with `k`), but the per-role (sender
    /// count, total, max) triple is enough to spot an adversary that floods the
    /// network or an honest protocol whose fan-out is unexpectedly skewed. Means are
    /// left to the consumer (`total / senders`) so the summary stays integer-exact.
    pub fn fanout_by_role(&self, corrupted: &BTreeSet<PartyId>) -> FanoutSummary {
        let mut summary = FanoutSummary::default();
        for (&party, &sent) in &self.sent_per_party {
            let role = if corrupted.contains(&party) {
                &mut summary.byzantine
            } else {
                &mut summary.honest
            };
            role.senders += 1;
            role.total += sent;
            role.max = role.max.max(sent);
        }
        summary
    }
}

/// Per-role fan-out summary derived from [`Metrics::sent_per_party`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanoutSummary {
    /// Fan-out of parties *not* in the corrupted set.
    pub honest: RoleFanout,
    /// Fan-out of corrupted parties.
    pub byzantine: RoleFanout,
}

/// Send accounting for one role (honest or byzantine) in a [`FanoutSummary`].
///
/// Only parties that sent at least one message appear in
/// [`Metrics::sent_per_party`], so `senders` counts *active* senders; a silent
/// (e.g. crashed) party contributes nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleFanout {
    /// Distinct parties of this role that sent at least one message.
    pub senders: u64,
    /// Total messages sent by this role.
    pub total: u64,
    /// Maximum messages sent by any single party of this role.
    pub max: u64,
}

impl RoleFanout {
    /// Mean messages per active sender, rounded down; zero when no party of this role
    /// sent anything.
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.senders).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.record_sent(PartyId::left(0), false);
        m.record_sent(PartyId::left(0), false);
        m.record_sent(PartyId::right(1), true);
        assert_eq!(m.honest_messages, 2);
        assert_eq!(m.byzantine_messages, 1);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.sent_per_party[&PartyId::left(0)], 2);
        assert_eq!(m.sent_per_party[&PartyId::right(1)], 1);
    }

    #[test]
    fn fanout_splits_by_corruption_and_summarizes() {
        let mut m = Metrics::default();
        for _ in 0..5 {
            m.record_sent(PartyId::left(0), false);
        }
        for _ in 0..3 {
            m.record_sent(PartyId::left(1), false);
        }
        for _ in 0..9 {
            m.record_sent(PartyId::right(0), true);
        }
        let corrupted: BTreeSet<PartyId> = [PartyId::right(0)].into_iter().collect();
        let summary = m.fanout_by_role(&corrupted);
        assert_eq!(summary.honest, RoleFanout { senders: 2, total: 8, max: 5 });
        assert_eq!(summary.byzantine, RoleFanout { senders: 1, total: 9, max: 9 });
        assert_eq!(summary.honest.mean(), 4);
        assert_eq!(summary.byzantine.mean(), 9);
        assert_eq!(RoleFanout::default().mean(), 0, "no senders means mean 0, not a panic");
    }
}
