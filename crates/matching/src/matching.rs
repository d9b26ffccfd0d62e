use crate::{MatchingError, PreferenceProfile, Result};

/// The two sides of the matching market.
///
/// In the paper's terminology `Left` is the set `L` (e.g. job applicants, proposers in
/// the canonical Gale–Shapley run) and `Right` is the set `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The set `L`.
    Left,
    /// The set `R`.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::Left => write!(f, "L"),
            Side::Right => write!(f, "R"),
        }
    }
}

/// A pair `(left, right)` that blocks a matching: both prefer each other to their
/// current situation (being unmatched counts as the worst outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockingPair {
    /// The left-side member of the blocking pair.
    pub left: usize,
    /// The right-side member of the blocking pair.
    pub right: usize,
}

/// A (possibly partial) matching between the two sides of a market with `k` agents per
/// side.
///
/// Unmatched agents are represented by `None`, which is how the byzantine stable
/// matching definition allows honest parties to output "nobody" (§2, Termination).
/// The structure maintains symmetry as an invariant: `left_to_right[i] == Some(j)` iff
/// `right_to_left[j] == Some(i)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Matching {
    left_to_right: Vec<Option<usize>>,
    right_to_left: Vec<Option<usize>>,
}

impl Matching {
    /// Creates an empty matching (everyone unmatched) for a market of size `k`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchingError::EmptyMarket`] if `k == 0`.
    pub fn empty(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(MatchingError::EmptyMarket);
        }
        Ok(Self { left_to_right: vec![None; k], right_to_left: vec![None; k] })
    }

    /// Builds a matching from the left-side assignment vector.
    ///
    /// `assignment[i] = Some(j)` matches left agent `i` with right agent `j`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchingError::AgentOutOfBounds`] if any partner index is `>= k`,
    /// [`MatchingError::DuplicatePartner`] if two left agents claim the same right
    /// agent, and [`MatchingError::EmptyMarket`] if the vector is empty.
    pub fn from_left_assignment(assignment: &[Option<usize>]) -> Result<Self> {
        let k = assignment.len();
        let mut matching = Self::empty(k)?;
        for (i, &partner) in assignment.iter().enumerate() {
            if let Some(j) = partner {
                matching.join(i, j)?;
            }
        }
        Ok(matching)
    }

    /// Builds the "identity" perfect matching where left `i` is matched to right `i`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchingError::EmptyMarket`] if `k == 0`.
    pub fn identity(k: usize) -> Result<Self> {
        let assignment: Vec<Option<usize>> = (0..k).map(Some).collect();
        Self::from_left_assignment(&assignment)
    }

    /// Market size `k`.
    pub fn k(&self) -> usize {
        self.left_to_right.len()
    }

    /// The partner of left agent `i`, if any.
    pub fn right_of(&self, i: usize) -> Option<usize> {
        self.left_to_right.get(i).copied().flatten()
    }

    /// The partner of right agent `j`, if any.
    pub fn left_of(&self, j: usize) -> Option<usize> {
        self.right_to_left.get(j).copied().flatten()
    }

    /// Matches left agent `i` with right agent `j`.
    ///
    /// Both must currently be unmatched.
    ///
    /// # Errors
    ///
    /// Returns [`MatchingError::AgentOutOfBounds`] for invalid indices and
    /// [`MatchingError::DuplicatePartner`] if either endpoint is already matched.
    pub fn join(&mut self, i: usize, j: usize) -> Result<()> {
        let k = self.k();
        if i >= k {
            return Err(MatchingError::AgentOutOfBounds { index: i, k });
        }
        if j >= k {
            return Err(MatchingError::AgentOutOfBounds { index: j, k });
        }
        if self.left_to_right[i].is_some() {
            return Err(MatchingError::DuplicatePartner { partner: i });
        }
        if self.right_to_left[j].is_some() {
            return Err(MatchingError::DuplicatePartner { partner: j });
        }
        self.left_to_right[i] = Some(j);
        self.right_to_left[j] = Some(i);
        Ok(())
    }

    /// Number of matched pairs.
    pub fn matched_pairs(&self) -> usize {
        self.left_to_right.iter().filter(|p| p.is_some()).count()
    }

    /// Returns `true` if every agent is matched.
    pub fn is_perfect(&self) -> bool {
        self.matched_pairs() == self.k()
    }

    /// Iterates over matched pairs `(left, right)` in ascending left order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.left_to_right.iter().enumerate().filter_map(|(i, partner)| partner.map(|j| (i, j)))
    }

    /// Finds all blocking pairs of this matching with respect to `profile`.
    ///
    /// A pair `(u, v) ∈ L × R` is blocking if both `u` and `v` prefer each other over
    /// their current partner; an unmatched agent prefers any partner over staying
    /// unmatched (§2). In particular, two unmatched agents on opposite sides always
    /// form a blocking pair.
    ///
    /// # Panics
    ///
    /// Panics if `profile.k() != self.k()`.
    pub fn blocking_pairs(&self, profile: &PreferenceProfile) -> Vec<BlockingPair> {
        assert_eq!(
            profile.k(),
            self.k(),
            "profile size {} does not match matching size {}",
            profile.k(),
            self.k()
        );
        let k = self.k();
        let mut blocking = Vec::new();
        for u in 0..k {
            for v in 0..k {
                if self.right_of(u) == Some(v) {
                    continue;
                }
                let u_prefers_v = match self.right_of(u) {
                    None => true,
                    Some(current) => profile.left(u).prefers(v, current),
                };
                if !u_prefers_v {
                    continue;
                }
                let v_prefers_u = match self.left_of(v) {
                    None => true,
                    Some(current) => profile.right(v).prefers(u, current),
                };
                if v_prefers_u {
                    blocking.push(BlockingPair { left: u, right: v });
                }
            }
        }
        blocking
    }

    /// Returns `true` if the matching has no blocking pair with respect to `profile`.
    ///
    /// Because two unmatched agents on opposite sides always block, a stable matching in
    /// the fault-free setting is necessarily perfect.
    ///
    /// # Panics
    ///
    /// Panics if `profile.k() != self.k()`.
    pub fn is_stable(&self, profile: &PreferenceProfile) -> bool {
        self.blocking_pairs(profile).is_empty()
    }
}

/// Enumerates *all* stable matchings of a profile by brute force.
///
/// Exponential in `k`; intended as a test oracle for small instances (`k ≤ 7`).
///
/// # Panics
///
/// Panics if `profile.k() > 10` to guard against accidental exponential blow-ups.
pub fn enumerate_stable_matchings(profile: &PreferenceProfile) -> Vec<Matching> {
    let k = profile.k();
    assert!(k <= 10, "brute-force enumeration is limited to k <= 10, got {k}");
    let mut stable = Vec::new();
    let mut permutation: Vec<usize> = (0..k).collect();
    permute(&mut permutation, 0, &mut |perm| {
        let assignment: Vec<Option<usize>> = perm.iter().map(|&j| Some(j)).collect();
        let matching = Matching::from_left_assignment(&assignment)
            .expect("permutation yields a valid matching");
        if matching.is_stable(profile) {
            stable.push(matching);
        }
    });
    stable
}

fn permute(values: &mut Vec<usize>, start: usize, visit: &mut impl FnMut(&[usize])) {
    if start == values.len() {
        visit(values);
        return;
    }
    for i in start..values.len() {
        values.swap(start, i);
        permute(values, start + 1, visit);
        values.swap(start, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreferenceProfile;

    fn example_profile() -> PreferenceProfile {
        // Classic 3x3 instance with multiple stable matchings.
        PreferenceProfile::from_rows(
            vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]],
            vec![vec![1, 2, 0], vec![2, 0, 1], vec![0, 1, 2]],
        )
        .unwrap()
    }

    #[test]
    fn empty_matching_has_no_pairs() {
        let m = Matching::empty(3).unwrap();
        assert_eq!(m.matched_pairs(), 0);
        assert!(!m.is_perfect());
        assert_eq!(m.pairs().count(), 0);
        assert!(Matching::empty(0).is_err());
    }

    #[test]
    fn join_maintains_symmetry_and_rejects_double_matching() {
        let mut m = Matching::empty(3).unwrap();
        m.join(0, 2).unwrap();
        assert_eq!(m.right_of(0), Some(2));
        assert_eq!(m.left_of(2), Some(0));
        // Double-matching is rejected.
        assert!(m.join(0, 1).is_err());
        assert!(m.join(1, 2).is_err());
        assert!(m.join(5, 1).is_err());
        assert!(m.join(1, 5).is_err());
    }

    #[test]
    fn from_left_assignment_detects_duplicates() {
        assert!(Matching::from_left_assignment(&[Some(0), Some(0)]).is_err());
        assert!(Matching::from_left_assignment(&[Some(2), None]).is_err());
        let m = Matching::from_left_assignment(&[Some(1), Some(0)]).unwrap();
        assert!(m.is_perfect());
        assert_eq!(m.left_of(1), Some(0));
    }

    #[test]
    fn two_unmatched_opposite_agents_block() {
        let profile = example_profile();
        let mut m = Matching::empty(3).unwrap();
        m.join(0, 0).unwrap();
        // Left 1, 2 and right 1, 2 are unmatched: all four cross pairs block.
        let blocking = m.blocking_pairs(&profile);
        assert!(blocking.contains(&BlockingPair { left: 1, right: 1 }));
        assert!(blocking.contains(&BlockingPair { left: 2, right: 2 }));
        assert!(!m.is_stable(&profile));
    }

    #[test]
    fn identity_matching_stability_depends_on_profile() {
        // With identity preferences the identity matching is everyone's top choice.
        let ideal = PreferenceProfile::identity(4).unwrap();
        let m = Matching::identity(4).unwrap();
        assert!(m.is_stable(&ideal));
        assert!(m.blocking_pairs(&ideal).is_empty());
    }

    #[test]
    fn blocking_pair_detection_on_known_instance() {
        let profile = example_profile();
        // Matching everyone to their own index: left 0 wants right 0 (has it),
        // left 1 wants right 1 (has it), left 2 wants right 2 (has it) — but the right
        // side may disagree. right 0 prefers 1 and 2 over 0; right 1 prefers 2 and 0 over 1...
        let m = Matching::identity(3).unwrap();
        // Check stability using the brute-force oracle instead of hand-reasoning.
        let stable_set = enumerate_stable_matchings(&profile);
        assert_eq!(stable_set.contains(&m), m.is_stable(&profile));
        assert!(!stable_set.is_empty(), "Gale-Shapley theorem: a stable matching exists");
    }

    #[test]
    fn enumerate_finds_multiple_stable_matchings() {
        // The classic "Latin square" instance has 3 stable matchings.
        let profile = PreferenceProfile::from_rows(
            vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]],
            vec![vec![1, 2, 0], vec![2, 0, 1], vec![0, 1, 2]],
        )
        .unwrap();
        let stable = enumerate_stable_matchings(&profile);
        assert_eq!(stable.len(), 3);
        for m in &stable {
            assert!(m.is_perfect());
        }
    }

    #[test]
    fn side_helpers() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
        assert_eq!(Side::Left.to_string(), "L");
        assert_eq!(Side::Right.to_string(), "R");
    }
}
