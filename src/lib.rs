//! Byzantine Stable Matching — a full Rust reproduction of the PODC 2025 paper.
//!
//! This facade crate re-exports the workspace's public API so downstream users (and the
//! examples and integration tests in this repository) can depend on a single crate:
//!
//! * [`matching`] — preference lists, Gale–Shapley, blocking pairs, workload generators,
//! * [`crypto`] — the simulated PKI and signatures,
//! * [`net`] — the synchronous network simulator (topologies, adversary, faults),
//! * [`broadcast`] — Dolev–Strong, phase-king, `ΠBA`/`ΠBB`, committee broadcast,
//! * [`core`] — the byzantine stable matching problem, solvability characterization,
//!   protocols, attacks and the scenario harness,
//! * [`engine`] — the parallel scenario-campaign engine: grid expansion, a
//!   multi-threaded executor with deterministic aggregation, and JSON/CSV export.
//!
//! # Quickstart
//!
//! ```rust
//! use byzantine_stable_matching::core::harness::{AdversarySpec, Scenario};
//! use byzantine_stable_matching::core::problem::{AuthMode, Setting};
//! use byzantine_stable_matching::net::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 4 parties per side, bipartite network, signatures available, one byzantine party
//! // on each side.
//! let setting = Setting::new(4, Topology::Bipartite, AuthMode::Authenticated, 1, 1)?;
//! let scenario = Scenario::builder(setting)
//!     .seed(2025)
//!     .corrupt_left([3])
//!     .corrupt_right([0])
//!     .adversary(AdversarySpec::Lying)
//!     .build()?;
//! let outcome = scenario.run()?;
//! assert!(outcome.violations.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bsm_broadcast as broadcast;
pub use bsm_core as core;
pub use bsm_crypto as crypto;
pub use bsm_engine as engine;
pub use bsm_matching as matching;
pub use bsm_net as net;

pub use bsm_core::{
    characterize, check_bsm, AdversarySpec, AuthMode, Scenario, Setting, Solvability,
};
pub use bsm_engine::{Campaign, CampaignBuilder, CampaignReport, Executor, ScenarioSpec};
pub use bsm_matching::{Matching, PreferenceList, PreferenceProfile};
pub use bsm_net::{PartyId, Side, Topology};
