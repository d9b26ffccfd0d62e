//! Checkable versions of the bSM correctness properties.
//!
//! Definition 1 requires four properties of honest parties' outputs — termination,
//! symmetry, stability and non-competition. [`check_bsm`] takes a run's outputs plus the
//! honest inputs and returns every violation found, so the harness, the integration tests
//! and the experiment binaries can all report on exactly the properties the paper
//! defines.

use crate::problem::{BsmInstance, MatchDecision};
use bsm_matching::Side;
use bsm_net::{PartyId, PartySet};
use std::collections::BTreeMap;
use std::fmt;

/// A violation of one of the bSM properties.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PropertyViolation {
    /// An honest party produced no output.
    Termination {
        /// The party that did not decide.
        party: PartyId,
    },
    /// Honest `party` decided to match honest `partner`, but `partner` did not
    /// reciprocate.
    Symmetry {
        /// The party whose choice is not reciprocated.
        party: PartyId,
        /// The partner it chose.
        partner: PartyId,
        /// What the partner decided instead.
        partner_decided: MatchDecision,
    },
    /// Two honest parties `(left, right)` form a blocking pair.
    Stability {
        /// The left member of the blocking pair.
        left: PartyId,
        /// The right member of the blocking pair.
        right: PartyId,
    },
    /// Two honest parties decided to match the same party.
    NonCompetition {
        /// First competing party.
        first: PartyId,
        /// Second competing party.
        second: PartyId,
        /// The contested partner.
        target: PartyId,
    },
    /// A party decided to match a party on its own side (malformed output).
    MalformedOutput {
        /// The party with the malformed output.
        party: PartyId,
        /// The malformed decision.
        decision: MatchDecision,
    },
}

impl fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyViolation::Termination { party } => {
                write!(f, "termination: honest {party} produced no output")
            }
            PropertyViolation::Symmetry { party, partner, partner_decided } => write!(
                f,
                "symmetry: {party} matched {partner} but {partner} decided {partner_decided:?}"
            ),
            PropertyViolation::Stability { left, right } => {
                write!(f, "stability: honest pair ({left}, {right}) is blocking")
            }
            PropertyViolation::NonCompetition { first, second, target } => {
                write!(f, "non-competition: {first} and {second} both matched {target}")
            }
            PropertyViolation::MalformedOutput { party, decision } => {
                write!(f, "malformed output: {party} decided {decision:?}")
            }
        }
    }
}

/// The outputs of one protocol run: the decision of every party that decided.
///
/// Parties that are corrupted must not appear (the harness strips them); parties that
/// never decided are simply absent.
pub type Outputs = BTreeMap<PartyId, MatchDecision>;

fn honest_parties(
    instance_corrupted: &std::collections::BTreeSet<PartyId>,
    k: usize,
) -> Vec<PartyId> {
    PartySet::new(k).iter().filter(|p| !instance_corrupted.contains(p)).collect()
}

fn check_common(outputs: &Outputs, honest: &[PartyId], violations: &mut Vec<PropertyViolation>) {
    // Termination.
    for &party in honest {
        if !outputs.contains_key(&party) {
            violations.push(PropertyViolation::Termination { party });
        }
    }
    // Malformed outputs (same-side decisions).
    for &party in honest {
        if let Some(Some(target)) = outputs.get(&party) {
            if target.side == party.side {
                violations
                    .push(PropertyViolation::MalformedOutput { party, decision: Some(*target) });
            }
        }
    }
    // Symmetry among honest pairs.
    for &party in honest {
        let Some(Some(partner)) = outputs.get(&party) else { continue };
        if !honest.contains(partner) {
            continue;
        }
        let partner_decided = outputs.get(partner).copied().flatten();
        if partner_decided != Some(party) {
            violations.push(PropertyViolation::Symmetry {
                party,
                partner: *partner,
                partner_decided,
            });
        }
    }
    // Non-competition.
    for (i, &first) in honest.iter().enumerate() {
        let Some(Some(target_a)) = outputs.get(&first) else { continue };
        for &second in honest.iter().skip(i + 1) {
            let Some(Some(target_b)) = outputs.get(&second) else { continue };
            if target_a == target_b {
                violations.push(PropertyViolation::NonCompetition {
                    first,
                    second,
                    target: *target_a,
                });
            }
        }
    }
}

/// Checks the four bSM properties of Definition 1 against a run's outputs.
///
/// Returns every violation found (empty = the run satisfies bSM for this instance).
pub fn check_bsm(instance: &BsmInstance, outputs: &Outputs) -> Vec<PropertyViolation> {
    let k = instance.profile.k();
    let honest = honest_parties(&instance.corrupted, k);
    let mut violations = Vec::new();
    check_common(outputs, &honest, &mut violations);

    // Stability: no blocking pair of honest parties.
    for &left in honest.iter().filter(|p| p.side == Side::Left) {
        for &right in honest.iter().filter(|p| p.side == Side::Right) {
            let left_out = outputs.get(&left).copied().flatten();
            let right_out = outputs.get(&right).copied().flatten();
            if left_out == Some(right) {
                continue;
            }
            let left_prefers = match left_out {
                None => true,
                Some(current) => {
                    // `current` is a right-side party (malformed outputs are reported
                    // separately; skip them here).
                    if current.side != Side::Right {
                        continue;
                    }
                    instance.profile.left(left.idx()).prefers(right.idx(), current.idx())
                }
            };
            if !left_prefers {
                continue;
            }
            let right_prefers = match right_out {
                None => true,
                Some(current) => {
                    if current.side != Side::Left {
                        continue;
                    }
                    instance.profile.right(right.idx()).prefers(left.idx(), current.idx())
                }
            };
            if right_prefers {
                violations.push(PropertyViolation::Stability { left, right });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_matching::PreferenceProfile;
    use std::collections::BTreeSet;

    fn identity_instance(k: usize, corrupted: &[PartyId]) -> BsmInstance {
        BsmInstance::new(
            PreferenceProfile::identity(k).unwrap(),
            corrupted.iter().copied().collect(),
        )
    }

    fn outputs_of(pairs: &[(PartyId, MatchDecision)]) -> Outputs {
        pairs.iter().cloned().collect()
    }

    #[test]
    fn perfect_identity_matching_passes() {
        let instance = identity_instance(3, &[]);
        let mut outputs = Outputs::new();
        for i in 0..3u32 {
            outputs.insert(PartyId::left(i), Some(PartyId::right(i)));
            outputs.insert(PartyId::right(i), Some(PartyId::left(i)));
        }
        assert!(check_bsm(&instance, &outputs).is_empty());
    }

    #[test]
    fn missing_output_is_a_termination_violation() {
        let instance = identity_instance(2, &[]);
        let outputs = outputs_of(&[
            (PartyId::left(0), Some(PartyId::right(0))),
            (PartyId::right(0), Some(PartyId::left(0))),
            (PartyId::left(1), Some(PartyId::right(1))),
        ]);
        let violations = check_bsm(&instance, &outputs);
        assert!(violations.iter().any(
            |v| matches!(v, PropertyViolation::Termination { party } if *party == PartyId::right(1))
        ));
    }

    #[test]
    fn corrupted_parties_are_exempt_from_all_checks() {
        let instance = identity_instance(2, &[PartyId::right(1)]);
        // Right 1 is byzantine: left 1 may match it without reciprocation, and left 1
        // being "stuck" with a byzantine partner it ranks below nobody is fine as long
        // as no honest blocking pair exists.
        let outputs = outputs_of(&[
            (PartyId::left(0), Some(PartyId::right(0))),
            (PartyId::right(0), Some(PartyId::left(0))),
            (PartyId::left(1), Some(PartyId::right(1))),
        ]);
        assert!(check_bsm(&instance, &outputs).is_empty());
    }

    #[test]
    fn asymmetric_honest_pair_is_reported() {
        let instance = identity_instance(2, &[]);
        let outputs = outputs_of(&[
            (PartyId::left(0), Some(PartyId::right(0))),
            (PartyId::right(0), None),
            (PartyId::left(1), Some(PartyId::right(1))),
            (PartyId::right(1), Some(PartyId::left(1))),
        ]);
        let violations = check_bsm(&instance, &outputs);
        assert!(violations.iter().any(|v| matches!(v, PropertyViolation::Symmetry { .. })));
        // The unmatched pair (L0 unreciprocated, R0 nobody) also blocks under identity
        // preferences.
        assert!(violations.iter().any(|v| matches!(v, PropertyViolation::Stability { .. })));
    }

    #[test]
    fn two_unmatched_honest_parties_block() {
        let instance = identity_instance(2, &[]);
        let outputs = outputs_of(&[
            (PartyId::left(0), None),
            (PartyId::right(0), None),
            (PartyId::left(1), Some(PartyId::right(1))),
            (PartyId::right(1), Some(PartyId::left(1))),
        ]);
        let violations = check_bsm(&instance, &outputs);
        // The unmatched pair (L0, R0) blocks; under identity preferences the matched
        // parties L1 and R1 also prefer the unmatched agents, so (L0, R1) and (L1, R0)
        // block as well. All violations are stability violations.
        assert!(violations.contains(&PropertyViolation::Stability {
            left: PartyId::left(0),
            right: PartyId::right(0)
        }));
        assert_eq!(violations.len(), 3);
        assert!(violations.iter().all(|v| matches!(v, PropertyViolation::Stability { .. })));
    }

    #[test]
    fn non_competition_violation_is_reported() {
        let instance = identity_instance(2, &[PartyId::right(1)]);
        // Both honest left parties claim right 0.
        let outputs = outputs_of(&[
            (PartyId::left(0), Some(PartyId::right(0))),
            (PartyId::left(1), Some(PartyId::right(0))),
            (PartyId::right(0), Some(PartyId::left(0))),
        ]);
        let violations = check_bsm(&instance, &outputs);
        assert!(violations
            .iter()
            .any(|v| matches!(v, PropertyViolation::NonCompetition { target, .. } if *target == PartyId::right(0))));
    }

    #[test]
    fn same_side_output_is_malformed() {
        let instance = identity_instance(2, &[]);
        let outputs = outputs_of(&[
            (PartyId::left(0), Some(PartyId::left(1))),
            (PartyId::left(1), Some(PartyId::right(1))),
            (PartyId::right(0), None),
            (PartyId::right(1), Some(PartyId::left(1))),
        ]);
        let violations = check_bsm(&instance, &outputs);
        assert!(violations.iter().any(|v| matches!(v, PropertyViolation::MalformedOutput { .. })));
    }

    #[test]
    fn blocking_pair_respects_preferences_not_just_matching() {
        // Left 0 prefers right 1 over right 0; right 1 prefers left 0 over left 1.
        let profile = PreferenceProfile::from_rows(
            vec![vec![1, 0], vec![0, 1]],
            vec![vec![0, 1], vec![0, 1]],
        )
        .unwrap();
        let instance = BsmInstance::new(profile, BTreeSet::new());
        // Matching L0-R0 and L1-R1 leaves (L0, R1) blocking.
        let outputs = outputs_of(&[
            (PartyId::left(0), Some(PartyId::right(0))),
            (PartyId::right(0), Some(PartyId::left(0))),
            (PartyId::left(1), Some(PartyId::right(1))),
            (PartyId::right(1), Some(PartyId::left(1))),
        ]);
        let violations = check_bsm(&instance, &outputs);
        assert_eq!(
            violations,
            vec![PropertyViolation::Stability { left: PartyId::left(0), right: PartyId::right(1) }]
        );
    }

    #[test]
    fn violation_display_is_informative() {
        let violations = [
            PropertyViolation::Termination { party: PartyId::left(0) },
            PropertyViolation::Symmetry {
                party: PartyId::left(0),
                partner: PartyId::right(1),
                partner_decided: None,
            },
            PropertyViolation::Stability { left: PartyId::left(0), right: PartyId::right(0) },
            PropertyViolation::NonCompetition {
                first: PartyId::left(0),
                second: PartyId::left(1),
                target: PartyId::right(0),
            },
            PropertyViolation::MalformedOutput { party: PartyId::left(0), decision: None },
        ];
        for v in violations {
            assert!(!v.to_string().is_empty());
        }
    }
}
