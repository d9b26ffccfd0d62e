//! Reproducible preference-profile workload generators.
//!
//! The paper has no empirical workloads of its own, so the experiment harness uses the
//! standard distributions from the distributed stable matching literature:
//!
//! * [`uniform_profile`] — independent uniformly random permutations (the default),
//! * [`master_list_profile`] — all agents on a side share one "master" ranking
//!   (perfectly correlated preferences),
//! * [`similar_profile`] — lists obtained from a master list by a bounded number of
//!   adjacent swaps, matching the "similar preference lists" regime of
//!   Khanchandani–Wattenhofer (OPODIS 2016) cited in the related work.

use crate::{PreferenceList, PreferenceProfile};
use rand::seq::SliceRandom;
use rand::{Rng, RngExt};

/// Generates one uniformly random preference list over `k` partners.
pub fn uniform_list<R: Rng + ?Sized>(k: usize, rng: &mut R) -> PreferenceList {
    let mut order: Vec<usize> = (0..k).collect();
    order.shuffle(rng);
    PreferenceList::new(order).expect("a shuffled identity vector is a permutation")
}

/// Generates a profile where every list is an independent uniformly random permutation.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn uniform_profile<R: Rng + ?Sized>(k: usize, rng: &mut R) -> PreferenceProfile {
    assert!(k > 0, "market size must be positive");
    let left = (0..k).map(|_| uniform_list(k, rng)).collect();
    let right = (0..k).map(|_| uniform_list(k, rng)).collect();
    PreferenceProfile::new(left, right).expect("generated lists are valid")
}

/// Generates a profile in which all agents of each side share a single random master
/// ranking of the opposite side.
///
/// Fully correlated preferences are the worst case for proposal counts in
/// deferred acceptance and a common stress workload.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn master_list_profile<R: Rng + ?Sized>(k: usize, rng: &mut R) -> PreferenceProfile {
    assert!(k > 0, "market size must be positive");
    let left_master = uniform_list(k, rng);
    let right_master = uniform_list(k, rng);
    let left = vec![left_master; k];
    let right = vec![right_master; k];
    PreferenceProfile::new(left, right).expect("generated lists are valid")
}

/// Generates a profile whose lists are each obtained from a per-side master list by at
/// most `swaps` random adjacent transpositions.
///
/// `swaps = 0` reproduces [`master_list_profile`]; large `swaps` approaches
/// [`uniform_profile`]. This models the "similar preference lists" regime studied by
/// Khanchandani and Wattenhofer.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn similar_profile<R: Rng + ?Sized>(k: usize, swaps: usize, rng: &mut R) -> PreferenceProfile {
    assert!(k > 0, "market size must be positive");
    let left_master = uniform_list(k, rng);
    let right_master = uniform_list(k, rng);
    let perturb = |master: &PreferenceList, rng: &mut R| {
        let mut order = master.order().to_vec();
        for _ in 0..swaps {
            if k < 2 {
                break;
            }
            let i = rng.random_range(0..k - 1);
            order.swap(i, i + 1);
        }
        PreferenceList::new(order).expect("adjacent swaps preserve the permutation property")
    };
    let left = (0..k).map(|_| perturb(&left_master, rng)).collect();
    let right = (0..k).map(|_| perturb(&right_master, rng)).collect();
    PreferenceProfile::new(left, right).expect("generated lists are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gale_shapley::{gale_shapley, ProposingSide};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_profile_is_valid_and_seed_deterministic() {
        let a = uniform_profile(6, &mut StdRng::seed_from_u64(42));
        let b = uniform_profile(6, &mut StdRng::seed_from_u64(42));
        let c = uniform_profile(6, &mut StdRng::seed_from_u64(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.k(), 6);
    }

    #[test]
    fn master_list_profile_has_identical_lists_per_side() {
        let profile = master_list_profile(5, &mut StdRng::seed_from_u64(1));
        for i in 1..5 {
            assert_eq!(profile.left(0), profile.left(i));
            assert_eq!(profile.right(0), profile.right(i));
        }
    }

    #[test]
    fn master_list_forces_serial_dictatorship_outcome() {
        // With identical preferences, the unique stable matching matches the i-th
        // ranked left agent (by the right master list) with the i-th ranked right agent
        // (by the left master list).
        let profile = master_list_profile(6, &mut StdRng::seed_from_u64(9));
        let outcome = gale_shapley(&profile, ProposingSide::Left);
        assert!(outcome.matching.is_stable(&profile));
        let left_master = profile.left(0);
        let right_master = profile.right(0);
        for rank in 0..6 {
            let l = right_master.partner_at(rank).unwrap();
            let r = left_master.partner_at(rank).unwrap();
            assert_eq!(outcome.matching.right_of(l), Some(r));
        }
    }

    #[test]
    fn similar_profile_zero_swaps_equals_master_list() {
        let mut rng = StdRng::seed_from_u64(2);
        let profile = similar_profile(4, 0, &mut rng);
        for i in 1..4 {
            assert_eq!(profile.left(0), profile.left(i));
        }
    }

    #[test]
    fn similar_profile_with_swaps_stays_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        for swaps in [1usize, 5, 50] {
            let profile = similar_profile(7, swaps, &mut rng);
            let outcome = gale_shapley(&profile, ProposingSide::Left);
            assert!(outcome.matching.is_stable(&profile));
        }
    }

    #[test]
    fn single_agent_generators() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(uniform_profile(1, &mut rng).k(), 1);
        assert_eq!(similar_profile(1, 3, &mut rng).k(), 1);
    }
}
