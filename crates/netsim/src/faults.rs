//! Message-level fault injection: declarative [`FaultSpec`] schedules with scheduled
//! partitions, crashes, seeded message loss and delivery jitter.
//!
//! The paper's bipartite authenticated protocol (`ΠbSM`, §5.2) reduces the disconnected
//! side to "a fully-connected network *with omissions*: a message may either be received
//! within `2·Δ` units of time, or it is never delivered". A `loss` plan creates such an
//! omission network directly, independent of any byzantine relay behaviour, so the
//! building blocks (`ΠBA`, `ΠBB`) can be exercised against Theorem 8/9's
//! weak-agreement guarantees in isolation.
//!
//! The same plan extends toward *partial synchrony*: a [`FaultSpec`] names a
//! deterministic schedule (cross-side partitions with start/duration, a crash with an
//! optional recovery slot) plus seeded stochastic axes (per-message loss probability,
//! bounded extra delivery delay), and a [`FaultSchedule`] applies it to every message
//! [`crate::SyncNetwork`] accepts. All randomness is drawn from one seeded stream, so a
//! run under a fault schedule stays byte-for-byte reproducible.

use crate::{Envelope, PartyId, Time};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::str::FromStr;

/// What a [`FaultSchedule`] decides to do with one message at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally (next slot).
    Deliver,
    /// Drop silently; the recipient never sees the message.
    Drop,
    /// Deliver, but this many slots *later* than the normal next-slot delivery.
    Delay(u64),
}

// ---------------------------------------------------------------------------
// Declarative fault schedules
// ---------------------------------------------------------------------------

/// A scheduled cross-side network partition: every message crossing sides during
/// slots `[start, start + duration)` is dropped deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionWindow {
    /// First slot of the partition.
    pub start: u32,
    /// Number of slots the partition lasts (at least 1).
    pub duration: u32,
}

impl PartitionWindow {
    /// `true` when `slot` falls inside this window.
    pub fn contains(&self, slot: u64) -> bool {
        let start = u64::from(self.start);
        slot >= start && slot < start + u64::from(self.duration)
    }

    /// The first slot *after* the window.
    pub fn end(&self) -> u64 {
        u64::from(self.start) + u64::from(self.duration)
    }
}

/// A scheduled crash: from slot `start`, every message to or from `party` is dropped,
/// until the optional `recovery` slot (exclusive start of recovered operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CrashWindow {
    /// The party that crashes.
    pub party: PartyId,
    /// First slot of the outage.
    pub start: u32,
    /// Slot at which the party recovers (`None`: it never does). Must exceed `start`.
    pub recovery: Option<u32>,
}

impl CrashWindow {
    /// `true` when `slot` falls inside the outage.
    pub fn covers(&self, slot: u64) -> bool {
        slot >= u64::from(self.start) && self.recovery.is_none_or(|r| slot < u64::from(r))
    }
}

/// A declarative fault plan: the per-cell campaign axis behind scenario files.
///
/// A `FaultSpec` composes up to two scheduled [`PartitionWindow`]s, one
/// [`CrashWindow`], a per-message loss probability (in per-mille, so the spec stays
/// integer-only and totally ordered) and a bounded delivery jitter. The derived `Ord`
/// makes fault plans a first-class grid axis with a canonical order, exactly like
/// every other `ScenarioSpec` coordinate.
///
/// The canonical *compact string* (`Display` / `FromStr`, e.g.
/// `partition=3+4;crash=L1@5..9;loss=25;jitter=2`, or `none` for the default) is what
/// report exports embed in JSON/CSV cells, so fault plans round-trip through every
/// artifact format.
///
/// Invariants (enforced by [`FromStr`] and [`validate`](Self::validate)): partition
/// windows are sorted by start, non-overlapping and at least 1 slot long; a crash
/// recovery slot exceeds its start; `loss_permille <= 1000`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FaultSpec {
    /// Scheduled cross-side partitions (sorted by start, disjoint), `None`-padded.
    pub partitions: [Option<PartitionWindow>; 2],
    /// An optional scheduled crash (with optional recovery).
    pub crash: Option<CrashWindow>,
    /// Per-message loss probability in per-mille (0..=1000), drawn per surviving
    /// message from the schedule's seeded RNG.
    pub loss_permille: u16,
    /// Maximum extra delivery delay in slots; each surviving message draws a uniform
    /// delay in `0..=jitter` from the seeded RNG. 0 disables the draw entirely.
    pub jitter: u8,
}

impl FaultSpec {
    /// The fault-free plan: no partitions, no crash, no loss, no jitter. This is the
    /// implicit plan of every campaign that never names faults, and it renders as
    /// `none`.
    pub const NONE: FaultSpec =
        FaultSpec { partitions: [None, None], crash: None, loss_permille: 0, jitter: 0 };

    /// Iterates the present partition windows in stored order.
    pub fn partition_windows(&self) -> impl Iterator<Item = PartitionWindow> + '_ {
        self.partitions.iter().flatten().copied()
    }

    /// Checks the spec's invariants, returning a human-readable violation.
    ///
    /// # Errors
    ///
    /// A message naming the violated invariant: a zero-duration partition,
    /// unsorted/overlapping partition windows, a window in slot 1 after a gap
    /// (`partitions[1]` set while `partitions[0]` is `None`), a crash recovery not
    /// after its start, or a loss rate above 1000‰.
    pub fn validate(&self) -> Result<(), String> {
        if self.partitions[0].is_none() && self.partitions[1].is_some() {
            return Err("partition windows must fill slot 0 before slot 1".into());
        }
        for window in self.partition_windows() {
            if window.duration == 0 {
                return Err(format!("partition at slot {} has zero duration", window.start));
            }
        }
        if let [Some(first), Some(second)] = self.partitions {
            if u64::from(second.start) < first.end() {
                return Err(format!(
                    "partition windows overlap or are unsorted: {}+{} then {}+{}",
                    first.start, first.duration, second.start, second.duration
                ));
            }
        }
        if let Some(crash) = self.crash {
            if let Some(recovery) = crash.recovery {
                if recovery <= crash.start {
                    return Err(format!(
                        "crash recovery slot {recovery} must be after its start {}",
                        crash.start
                    ));
                }
            }
        }
        if self.loss_permille > 1000 {
            return Err(format!("loss rate {}\u{2030} exceeds 1000", self.loss_permille));
        }
        Ok(())
    }

    /// Deterministic upper bound on the extra slots this plan can cost a scenario:
    /// the total partitioned slots, the (bounded) crash outage, and the worst-case
    /// jitter per protocol round. A pure function of the spec, so harness slot
    /// budgets extended by it stay byte-stable.
    pub fn slot_slack(&self, rounds: u64) -> u64 {
        let partitions: u64 = self.partition_windows().map(|w| u64::from(w.duration)).sum::<u64>();
        let crash = self
            .crash
            .map(|c| match c.recovery {
                Some(r) => u64::from(r) - u64::from(c.start),
                None => 0,
            })
            .unwrap_or(0);
        partitions + crash + u64::from(self.jitter) * rounds
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == FaultSpec::NONE {
            return write!(f, "none");
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !std::mem::take(&mut first) {
                write!(f, ";")?;
            }
            Ok(())
        };
        for window in self.partition_windows() {
            sep(f)?;
            write!(f, "partition={}+{}", window.start, window.duration)?;
        }
        if let Some(crash) = self.crash {
            sep(f)?;
            write!(f, "crash={}@{}..", crash.party, crash.start)?;
            if let Some(recovery) = crash.recovery {
                write!(f, "{recovery}")?;
            }
        }
        if self.loss_permille > 0 {
            sep(f)?;
            write!(f, "loss={}", self.loss_permille)?;
        }
        if self.jitter > 0 {
            sep(f)?;
            write!(f, "jitter={}", self.jitter)?;
        }
        Ok(())
    }
}

/// Error parsing a [`FaultSpec`] (or a [`PartyId`]) from its compact string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecParseError(String);

impl fmt::Display for FaultSpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecParseError {}

impl FaultSpecParseError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl FromStr for FaultSpec {
    type Err = FaultSpecParseError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        if text == "none" {
            return Ok(FaultSpec::NONE);
        }
        fn err(message: impl Into<String>) -> FaultSpecParseError {
            FaultSpecParseError::new(message)
        }
        let mut spec = FaultSpec::NONE;
        let mut partitions = 0usize;
        for segment in text.split(';') {
            let (key, value) =
                segment.split_once('=').ok_or_else(|| err(format!("segment {segment:?}")))?;
            match key {
                "partition" => {
                    let (start, duration) = value
                        .split_once('+')
                        .ok_or_else(|| err(format!("partition window {value:?}")))?;
                    let window = PartitionWindow {
                        start: start
                            .parse()
                            .map_err(|_| err(format!("partition start {start:?}")))?,
                        duration: duration
                            .parse()
                            .map_err(|_| err(format!("partition duration {duration:?}")))?,
                    };
                    if partitions >= spec.partitions.len() {
                        return Err(err("more than 2 partition windows"));
                    }
                    spec.partitions[partitions] = Some(window);
                    partitions += 1;
                }
                "crash" if spec.crash.is_none() => {
                    let (party, span) = value
                        .split_once('@')
                        .ok_or_else(|| err(format!("crash window {value:?}")))?;
                    let (start, recovery) =
                        span.split_once("..").ok_or_else(|| err(format!("crash span {span:?}")))?;
                    spec.crash = Some(CrashWindow {
                        party: party.parse().map_err(err)?,
                        start: start.parse().map_err(|_| err(format!("crash start {start:?}")))?,
                        recovery: if recovery.is_empty() {
                            None
                        } else {
                            Some(
                                recovery
                                    .parse()
                                    .map_err(|_| err(format!("crash recovery {recovery:?}")))?,
                            )
                        },
                    });
                }
                "loss" if spec.loss_permille == 0 => {
                    spec.loss_permille =
                        value.parse().map_err(|_| err(format!("loss rate {value:?}")))?;
                    if spec.loss_permille == 0 {
                        return Err(err("loss=0 is not canonical (omit the segment)"));
                    }
                }
                "jitter" if spec.jitter == 0 => {
                    spec.jitter =
                        value.parse().map_err(|_| err(format!("jitter bound {value:?}")))?;
                    if spec.jitter == 0 {
                        return Err(err("jitter=0 is not canonical (omit the segment)"));
                    }
                }
                other => return Err(err(format!("unknown or repeated key {other:?}"))),
            }
        }
        spec.validate().map_err(err)?;
        if spec == FaultSpec::NONE {
            return Err(err("empty spec must be written as \"none\""));
        }
        Ok(spec)
    }
}

/// A [`FaultSpec`] armed with its seeded RNG stream — the fault hook a running
/// [`crate::SyncNetwork`] consults for every message it accepts.
///
/// Determinism: the deterministic axes (partitions, crash) never touch the RNG, and
/// the stochastic axes (loss, jitter) draw from a [`StdRng`] seeded purely from the
/// scenario seed — never from wall clock or thread identity — and only for messages
/// not already deterministically dropped. The per-message decision sequence is
/// therefore a pure function of `(spec, seed, message sequence)`, and the message
/// sequence is itself deterministic, so reports stay byte-identical across thread
/// counts and shardings.
///
/// ```
/// use bsm_net::{Envelope, FaultAction, FaultSchedule, PartyId, Time};
///
/// let spec = "partition=0+2;jitter=3".parse().unwrap();
/// let mut schedule = FaultSchedule::new(spec, 42);
/// let cross = Envelope {
///     from: PartyId::left(0),
///     to: PartyId::right(0),
///     sent_at: Time(0),
///     deliver_at: Time(1),
///     payload: (),
/// };
/// // Slot 0 is partitioned: the cross-side message is dropped, no RNG consumed.
/// assert_eq!(schedule.action(&cross, Time(0)), FaultAction::Drop);
/// // Slot 2 is past the partition: the message survives, modulo a seeded delay.
/// let survived = Envelope { sent_at: Time(2), deliver_at: Time(3), ..cross };
/// assert_ne!(schedule.action(&survived, Time(2)), FaultAction::Drop);
/// ```
#[derive(Debug)]
pub struct FaultSchedule {
    spec: FaultSpec,
    rng: StdRng,
}

/// Mixes the scenario seed into a stream distinct from the profile/adversary streams
/// derived from the same seed (splitmix-style odd-constant mixing).
fn fault_stream_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xd1b5_4a32_d192_ed03)
}

impl FaultSchedule {
    /// Arms `spec` with the fault RNG stream derived from the scenario `seed`.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        Self { spec, rng: StdRng::seed_from_u64(fault_stream_seed(seed)) }
    }

    /// Decides the fate of `envelope`, sent during slot `now`.
    pub fn action<M>(&mut self, envelope: &Envelope<M>, now: Time) -> FaultAction {
        let slot = now.0;
        // Deterministic axes first, cheapest checks before any RNG draw.
        if envelope.from.side != envelope.to.side
            && self.spec.partition_windows().any(|w| w.contains(slot))
        {
            return FaultAction::Drop;
        }
        if let Some(crash) = self.spec.crash {
            if crash.covers(slot) && (envelope.from == crash.party || envelope.to == crash.party) {
                return FaultAction::Drop;
            }
        }
        // Stochastic axes: drawn only for messages that survived the schedule, and
        // only when the axis is active — so a plan without loss/jitter consumes no
        // randomness at all.
        if self.spec.loss_permille > 0
            && self.rng.random_bool(f64::from(self.spec.loss_permille) / 1000.0)
        {
            return FaultAction::Drop;
        }
        if self.spec.jitter > 0 {
            let delay = self.rng.random_range(0..=u64::from(self.spec.jitter));
            if delay > 0 {
                return FaultAction::Delay(delay);
            }
        }
        FaultAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartyId;

    fn envelope(payload: u32) -> Envelope<u32> {
        Envelope {
            from: PartyId::left(0),
            to: PartyId::right(0),
            sent_at: Time(0),
            deliver_at: Time(1),
            payload,
        }
    }

    fn same_side(payload: u32) -> Envelope<u32> {
        Envelope { to: PartyId::left(1), ..envelope(payload) }
    }

    #[test]
    fn partition_drops_cross_side_messages_only_inside_the_window() {
        let spec: FaultSpec = "partition=2+3".parse().unwrap();
        let mut schedule = FaultSchedule::new(spec, 7);
        for slot in 0..8u64 {
            let cross = schedule.action(&envelope(0), Time(slot));
            let local = schedule.action(&same_side(0), Time(slot));
            if (2..5).contains(&slot) {
                assert_eq!(cross, FaultAction::Drop, "slot {slot}");
            } else {
                assert_eq!(cross, FaultAction::Deliver, "slot {slot}");
            }
            assert_eq!(local, FaultAction::Deliver, "same-side slot {slot}");
        }
    }

    #[test]
    fn crash_drops_messages_to_and_from_the_party_until_recovery() {
        let spec: FaultSpec = "crash=L0@1..3".parse().unwrap();
        let mut schedule = FaultSchedule::new(spec, 0);
        let from_crashed = same_side(0); // from L0
        let to_crashed = Envelope { from: PartyId::left(1), to: PartyId::left(0), ..envelope(0) };
        let bystander = Envelope { from: PartyId::left(1), to: PartyId::right(1), ..envelope(0) };
        for slot in 0..5u64 {
            let outage = (1..3).contains(&slot);
            for env in [&from_crashed, &to_crashed] {
                let action = schedule.action(env, Time(slot));
                let expected = if outage { FaultAction::Drop } else { FaultAction::Deliver };
                assert_eq!(action, expected, "slot {slot}");
            }
            let action = schedule.action(&bystander, Time(slot));
            assert_eq!(action, FaultAction::Deliver, "bystander slot {slot}");
        }
        // Without a recovery slot the outage is permanent.
        let spec: FaultSpec = "crash=L0@1..".parse().unwrap();
        let mut schedule = FaultSchedule::new(spec, 0);
        let action = schedule.action(&from_crashed, Time(1000));
        assert_eq!(action, FaultAction::Drop);
    }

    #[test]
    fn loss_and_jitter_are_seed_deterministic_and_bounded() {
        let spec: FaultSpec = "loss=300;jitter=2".parse().unwrap();
        let trace = |seed: u64| -> Vec<FaultAction> {
            let mut schedule = FaultSchedule::new(spec, seed);
            (0..200).map(|i| schedule.action(&envelope(i), Time(1))).collect()
        };
        let a = trace(5);
        assert_eq!(a, trace(5), "same seed, same decisions");
        assert_ne!(a, trace(6), "different seed, different stream");
        assert!(a.contains(&FaultAction::Drop));
        assert!(a.contains(&FaultAction::Deliver));
        assert!(a.iter().any(|action| matches!(action, FaultAction::Delay(_))));
        for action in &a {
            if let FaultAction::Delay(d) = action {
                assert!((1..=2).contains(d), "delay {d} outside jitter bound");
            }
        }
    }

    #[test]
    fn deterministic_drops_consume_no_randomness() {
        // Two schedules, same seed: one sees extra partition-dropped messages first.
        let spec: FaultSpec = "partition=0+1;loss=500".parse().unwrap();
        let mut a = FaultSchedule::new(spec, 11);
        let mut b = FaultSchedule::new(spec, 11);
        for i in 0..10 {
            // Cross-side in slot 0: deterministic drop, must not advance the RNG.
            let action = a.action(&envelope(i), Time(0));
            assert_eq!(action, FaultAction::Drop);
        }
        let tail_a: Vec<_> = (0..50).map(|i| a.action(&envelope(i), Time(1))).collect();
        let tail_b: Vec<_> = (0..50).map(|i| b.action(&envelope(i), Time(1))).collect();
        assert_eq!(tail_a, tail_b, "partition drops must not perturb the loss stream");
    }

    #[test]
    fn compact_string_round_trips() {
        for text in [
            "none",
            "partition=0+1",
            "partition=0+1;partition=4+2",
            "crash=L2@5..9",
            "crash=R0@5..",
            "loss=1000",
            "jitter=255",
            "partition=3+4;crash=L1@5..9;loss=25;jitter=2",
        ] {
            let spec: FaultSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(spec.to_string(), text, "render must be the canonical form");
            let again: FaultSpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
        assert_eq!(FaultSpec::NONE.to_string(), "none");
        assert_eq!("none".parse::<FaultSpec>().unwrap(), FaultSpec::NONE);
    }

    #[test]
    fn malformed_and_non_canonical_specs_are_rejected() {
        for bad in [
            "",
            "partition",
            "partition=3",
            "partition=x+1",
            "partition=3+0",                             // zero duration
            "partition=0+4;partition=2+1",               // overlap
            "partition=4+1;partition=0+1",               // unsorted
            "partition=0+1;partition=2+1;partition=4+1", // more than two
            "crash=Q1@0..",
            "crash=L1@5..5", // recovery not after start
            "crash=L1@5..4",
            "crash=L1@5",
            "loss=1001",
            "loss=0",
            "jitter=0",
            "jitter=256",
            "loss=5;loss=5",
            "wat=1",
            "none;loss=5",
        ] {
            assert!(bad.parse::<FaultSpec>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn validate_names_each_violation() {
        let window = |start, duration| Some(PartitionWindow { start, duration });
        let overlap = FaultSpec { partitions: [window(0, 4), window(2, 1)], ..FaultSpec::NONE };
        assert!(overlap.validate().unwrap_err().contains("overlap"));
        let gap = FaultSpec { partitions: [None, window(2, 1)], ..FaultSpec::NONE };
        assert!(gap.validate().unwrap_err().contains("slot 0"));
        let lossy = FaultSpec { loss_permille: 1001, ..FaultSpec::NONE };
        assert!(lossy.validate().unwrap_err().contains("1000"));
        assert_eq!(FaultSpec::NONE.validate(), Ok(()));
    }

    #[test]
    fn ordering_places_none_first() {
        let mut specs: Vec<FaultSpec> = ["loss=5", "none", "partition=0+1", "crash=L0@0.."]
            .iter()
            .map(|t| t.parse().unwrap())
            .collect();
        specs.sort();
        assert_eq!(specs[0], FaultSpec::NONE);
    }

    #[test]
    fn slot_slack_is_a_pure_function_of_the_spec() {
        let spec: FaultSpec = "partition=3+4;crash=L1@5..9;jitter=2".parse().unwrap();
        assert_eq!(spec.slot_slack(10), 4 + 4 + 2 * 10);
        assert_eq!(FaultSpec::NONE.slot_slack(10), 0);
        // An unrecovered crash adds no slack: waiting longer cannot help.
        let spec: FaultSpec = "crash=L1@5..".parse().unwrap();
        assert_eq!(spec.slot_slack(10), 0);
    }
}
