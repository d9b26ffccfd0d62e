//! Property-based tests for the stable matching substrate.

use bsm_matching::gale_shapley::{gale_shapley, is_proposer_optimal, ProposingSide};
use bsm_matching::generators::{similar_profile, uniform_profile};
use bsm_matching::{enumerate_stable_matchings, Matching, PreferenceList, PreferenceProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The headline Gale–Shapley contract over 100 fixed seeds: on every profile the
/// left-proposing run yields a perfect matching with no blocking pairs, and on the
/// small profiles (where enumerating all stable matchings is cheap) it is also
/// left-optimal — every left agent gets their best partner across the whole stable set.
///
/// This complements the `proptest!` suite below with an explicitly enumerated seed
/// list, so a regression names the exact seed that broke.
#[test]
fn gale_shapley_stable_and_left_optimal_across_100_seeds() {
    for seed in 0u64..100 {
        // Spread sizes over 1..=20; left-optimality is verified for k ≤ 6 only,
        // because its oracle enumerates the full stable set.
        let k = 1 + (seed as usize * 7) % 20;
        let profile = uniform_profile(k, &mut StdRng::seed_from_u64(seed));
        let outcome = gale_shapley(&profile, ProposingSide::Left);
        assert!(outcome.matching.is_perfect(), "seed {seed}: matching not perfect");
        assert!(
            outcome.matching.blocking_pairs(&profile).is_empty(),
            "seed {seed}: blocking pair found for k = {k}"
        );
        if k <= 6 {
            assert!(
                is_proposer_optimal(&profile, &outcome.matching, ProposingSide::Left),
                "seed {seed}: left-proposing run not left-optimal for k = {k}"
            );
        }
    }
}

/// Strategy producing a random preference profile of size 1..=7 from a seed.
fn arb_profile() -> impl Strategy<Value = PreferenceProfile> {
    (1usize..=7, any::<u64>())
        .prop_map(|(k, seed)| uniform_profile(k, &mut StdRng::seed_from_u64(seed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: AG-S always outputs a perfect stable matching.
    #[test]
    fn gale_shapley_always_stable(profile in arb_profile()) {
        for side in [ProposingSide::Left, ProposingSide::Right] {
            let outcome = gale_shapley(&profile, side);
            prop_assert!(outcome.matching.is_perfect());
            prop_assert!(outcome.matching.is_stable(&profile));
            prop_assert!(outcome.proposals <= profile.k() * profile.k());
        }
    }

    /// Classical proposer-optimality of deferred acceptance (small instances only,
    /// verified against the brute-force enumeration of all stable matchings).
    #[test]
    fn gale_shapley_is_proposer_optimal((k, seed) in (1usize..=5, any::<u64>())) {
        let profile = uniform_profile(k, &mut StdRng::seed_from_u64(seed));
        let outcome = gale_shapley(&profile, ProposingSide::Left);
        prop_assert!(is_proposer_optimal(&profile, &outcome.matching, ProposingSide::Left));
    }

    /// The blocking-pair checker agrees with a direct quadratic re-implementation.
    #[test]
    fn blocking_pair_checker_matches_oracle(
        (k, seed, perm_seed) in (2usize..=6, any::<u64>(), any::<u64>())
    ) {
        let profile = uniform_profile(k, &mut StdRng::seed_from_u64(seed));
        // Build an arbitrary (possibly unstable, possibly partial) matching.
        let mut rng = StdRng::seed_from_u64(perm_seed);
        let candidates = uniform_profile(k, &mut rng);
        let assignment: Vec<Option<usize>> = (0..k)
            .map(|i| {
                let target = candidates.left(i).favorite();
                if target % 3 == 0 { None } else { Some(target) }
            })
            .collect();
        // Deduplicate to make a valid matching.
        let mut used = vec![false; k];
        let assignment: Vec<Option<usize>> = assignment
            .into_iter()
            .map(|slot| match slot {
                Some(j) if !used[j] => {
                    used[j] = true;
                    Some(j)
                }
                _ => None,
            })
            .collect();
        let matching = Matching::from_left_assignment(&assignment).unwrap();
        let blocking = matching.blocking_pairs(&profile);

        // Oracle: recompute from first principles.
        for u in 0..k {
            for v in 0..k {
                if matching.right_of(u) == Some(v) { continue; }
                let u_better = matching
                    .right_of(u)
                    .map(|cur| profile.left(u).prefers(v, cur))
                    .unwrap_or(true);
                let v_better = matching
                    .left_of(v)
                    .map(|cur| profile.right(v).prefers(u, cur))
                    .unwrap_or(true);
                let expected = u_better && v_better;
                let found = blocking.iter().any(|b| b.left == u && b.right == v);
                prop_assert_eq!(expected, found);
            }
        }
    }

    /// A stable matching always exists and AG-S finds one of them (cross-check with the
    /// brute-force enumeration).
    #[test]
    fn stable_set_is_nonempty_and_contains_gs((k, seed) in (1usize..=5, any::<u64>())) {
        let profile = uniform_profile(k, &mut StdRng::seed_from_u64(seed));
        let all = enumerate_stable_matchings(&profile);
        prop_assert!(!all.is_empty());
        let gs = gale_shapley(&profile, ProposingSide::Left).matching;
        prop_assert!(all.contains(&gs));
    }

    /// Similar-list workloads stay valid across the whole perturbation range.
    #[test]
    fn similar_profiles_are_valid((k, swaps, seed) in (1usize..=8, 0usize..=64, any::<u64>())) {
        let profile = similar_profile(k, swaps, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(profile.k(), k);
        let outcome = gale_shapley(&profile, ProposingSide::Left);
        prop_assert!(outcome.matching.is_stable(&profile));
    }

    /// favorite_first always produces a permutation with the requested favorite on top.
    #[test]
    fn favorite_first_is_valid((k, fav) in (1usize..=20, 0usize..=19)) {
        prop_assume!(fav < k);
        let list = PreferenceList::favorite_first(k, fav).unwrap();
        prop_assert_eq!(list.favorite(), fav);
        prop_assert_eq!(list.len(), k);
        let mut seen = vec![false; k];
        for p in list.iter() { seen[p] = true; }
        prop_assert!(seen.into_iter().all(|s| s));
    }
}
