//! Stable matching substrate for the byzantine stable matching reproduction.
//!
//! This crate implements the *offline* (fault-free, centralized) stable matching
//! machinery that the distributed protocols of the paper ultimately reduce to:
//!
//! * [`PreferenceList`] / [`PreferenceProfile`] — complete preference rankings for the
//!   two sides `L` and `R` of a matching market with `k` agents per side,
//! * [`Matching`] — a (possibly partial) matching between the two sides, together with
//!   blocking-pair detection and stability verification,
//! * [`gale_shapley`] — the deterministic Gale–Shapley deferred-acceptance algorithm
//!   `AG-S` of Theorem 1, which always returns a perfect stable matching,
//! * [`generators`] — reproducible workload generators (uniform, correlated/similar
//!   lists, master list) used by the scenario harness and property tests.
//!
//! # Example
//!
//! ```rust
//! use bsm_matching::{PreferenceProfile, gale_shapley::{gale_shapley, ProposingSide}};
//!
//! # fn main() -> Result<(), bsm_matching::MatchingError> {
//! // Two agents per side; everyone ranks partner 0 first.
//! let profile = PreferenceProfile::from_rows(
//!     vec![vec![0, 1], vec![0, 1]],
//!     vec![vec![0, 1], vec![0, 1]],
//! )?;
//! let outcome = gale_shapley(&profile, ProposingSide::Left);
//! assert!(outcome.matching.is_stable(&profile));
//! assert_eq!(outcome.matching.right_of(0), Some(0));
//! assert_eq!(outcome.matching.right_of(1), Some(1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matching;
mod preference;

pub mod gale_shapley;
pub mod generators;

pub use error::MatchingError;
pub use matching::{enumerate_stable_matchings, BlockingPair, Matching, Side};
pub use preference::{PreferenceList, PreferenceProfile, Rank};

/// Convenience result alias used throughout the crate.
pub type Result<T, E = MatchingError> = std::result::Result<T, E>;
