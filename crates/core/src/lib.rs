//! Byzantine stable matching (bSM): the paper's primary contribution.
//!
//! This crate turns the theory of *Byzantine Stable Matching* (Constantinescu, Dufay,
//! Ghinea, Wattenhofer — PODC 2025) into running code:
//!
//! * [`problem`] — the problem statement of the byzantine stable matching problem `bSM`
//!   (Definition 1) and the [`problem::Setting`] describing topology, cryptographic
//!   assumptions and corruption budgets,
//! * [`properties`] — checkable versions of the four bSM properties (termination,
//!   symmetry, stability, non-competition),
//! * [`solvability`] — Theorems 2–7 as a decision procedure: for every setting it
//!   returns either an executable [`solvability::ProtocolPlan`] or the theorem that
//!   proves the setting unsolvable,
//! * [`wire`] / [`relay`] / [`runtime`] — the composite party runtime: a multiplexing
//!   wire format, the channel-simulation relays of Lemmas 6, 8 and 10 (majority relay,
//!   signed relay, timed signed relay with omissions), and the per-party process that
//!   stacks a bSM protocol on top of them,
//! * [`protocols`] — the two constructive protocol families: the broadcast-based
//!   reduction of Lemma 1 (over Dolev–Strong or committee broadcast) and the
//!   bipartite-authenticated protocol `ΠbSM` of Lemma 9,
//! * [`strategies`] — reusable byzantine strategies (preference lying, garbage spam,
//!   puppet simulation of honest code on chosen inputs),
//! * [`mini_toml`] — the one TOML-subset reader, writer and typed accessor layer
//!   under both text formats (adversary scripts here, scenario files in the engine),
//! * [`script`] — data-valued adversary scripts: serializable action lists a fuzzer
//!   can generate, mutate, shrink and replay, interpreted by a
//!   [`script::ScriptedAdversary`] that provably subsumes the built-in strategies,
//! * [`attacks`] — the impossibility constructions of Lemmas 5, 7 and 13 as concrete
//!   adversaries that violate bSM properties beyond the tight thresholds,
//! * [`harness`] — the scenario runner used by the experiments: build a setting, pick a
//!   preference profile and an adversary, run the appropriate protocol on the
//!   synchronous simulator, and verify every bSM property on the outcome.
//!
//! # Quickstart
//!
//! ```rust
//! use bsm_core::harness::{Scenario, AdversarySpec};
//! use bsm_core::problem::{AuthMode, Setting};
//! use bsm_net::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let setting = Setting::new(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1)?;
//! let scenario = Scenario::builder(setting)
//!     .seed(7)
//!     .corrupt_left([0])
//!     .adversary(AdversarySpec::Crash)
//!     .build()?;
//! let outcome = scenario.run()?;
//! assert!(outcome.violations.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod harness;
pub mod mini_toml;
pub mod problem;
pub mod properties;
pub mod protocols;
pub mod relay;
pub mod runtime;
pub mod script;
pub mod solvability;
pub mod strategies;
pub mod wire;

pub use harness::{AdversarySpec, HarnessError, Scenario, ScenarioOutcome};
pub use problem::{AuthMode, MatchDecision, Setting, MAX_MARKET_SIZE};
pub use properties::{check_bsm, PropertyViolation};
pub use script::{Script, ScriptAction, ScriptError, ScriptedAdversary, Verdict};
pub use solvability::{characterize, ProtocolPlan, Solvability};
