//! The scenario harness: build a setting, pick inputs and an adversary, run the
//! appropriate protocol on the synchronous simulator, and verify every bSM property.

use crate::problem::{AuthMode, BsmInstance, MatchDecision, Setting, SettingError};
use crate::properties::{check_bsm, Outputs, PropertyViolation};
use crate::protocols::{BipartiteAuthBsm, BroadcastBsm, BroadcastFlavor};
use crate::relay::{RelayEngine, RelayMode};
use crate::runtime::{BsmProtocol, PartyRuntime};
use crate::solvability::{characterize, Impossibility, ProtocolPlan, Solvability};
use crate::strategies::{BsmPuppetAdversary, GarbageAdversary};
use crate::wire::{dense_key_index, WireMsg};
use bsm_broadcast::Committee;
use bsm_crypto::{KeyId, Pki};
use bsm_matching::generators::uniform_profile;
use bsm_matching::{PreferenceProfile, Side};
use bsm_net::{
    Adversary, CorruptionBudget, FaultSchedule, FaultSpec, Metrics, PartyId, PartySet,
    PassiveAdversary, SilentProcess, SimError, SyncNetwork, Topology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The byzantine behaviour installed for the corrupted parties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AdversarySpec {
    /// Corrupted parties crash from the start (send nothing at all).
    Crash,
    /// Corrupted parties run the honest protocol but lie about their preferences
    /// (seeded random lists different from their nominal inputs).
    Lying,
    /// Corrupted parties flood honest parties with well-formed garbage messages.
    Garbage,
}

impl AdversarySpec {
    /// Every strategy of the library, in the canonical campaign-grid order.
    pub const ALL: [AdversarySpec; 3] =
        [AdversarySpec::Crash, AdversarySpec::Lying, AdversarySpec::Garbage];

    /// A short lowercase name for experiment tables and exports.
    pub fn name(&self) -> &'static str {
        match self {
            AdversarySpec::Crash => "crash",
            AdversarySpec::Lying => "lying",
            AdversarySpec::Garbage => "garbage",
        }
    }

    /// The strategy called `name` (the inverse of [`name`](Self::name)).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|spec| spec.name() == name)
    }
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced while building or running a scenario.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// The setting itself is invalid.
    Setting(SettingError),
    /// The setting is unsolvable; running requires forcing a plan explicitly.
    Unsolvable(Impossibility),
    /// The profile size does not match the setting.
    ProfileMismatch {
        /// `k` of the setting.
        expected: usize,
        /// `k` of the profile.
        found: usize,
    },
    /// More corruptions were requested than the budget allows, or another simulator
    /// configuration error occurred.
    Sim(SimError),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Setting(e) => write!(f, "invalid setting: {e}"),
            HarnessError::Unsolvable(imp) => write!(f, "{imp}"),
            HarnessError::ProfileMismatch { expected, found } => {
                write!(f, "profile has k = {found} but the setting has k = {expected}")
            }
            HarnessError::Sim(e) => write!(f, "simulator error: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<SimError> for HarnessError {
    fn from(value: SimError) -> Self {
        HarnessError::Sim(value)
    }
}

impl From<SettingError> for HarnessError {
    fn from(value: SettingError) -> Self {
        HarnessError::Setting(value)
    }
}

/// The result of running one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The protocol plan that was executed.
    pub plan: ProtocolPlan,
    /// Decisions of the parties that stayed honest.
    pub outputs: Outputs,
    /// Parties corrupted during the run.
    pub corrupted: BTreeSet<PartyId>,
    /// Violations of the bSM properties (empty = the run satisfies Definition 1).
    pub violations: Vec<PropertyViolation>,
    /// Whether every honest party decided within the slot budget.
    pub all_honest_decided: bool,
    /// Number of simulated slots.
    pub slots: u64,
    /// Message accounting.
    pub metrics: Metrics,
    /// Number of signatures produced during this run (honest parties and adversary
    /// alike; 0 for unauthenticated plans).
    ///
    /// Counted as a before/after delta on the scenario's shared PKI, so concurrent
    /// `run()` calls on the *same* `Scenario` value may attribute signatures across
    /// each other's counts. Sequential re-runs are exact, and campaign workers build
    /// one `Scenario` per run, which keeps the accounting exact there too.
    pub signatures: u64,
}

/// A fully specified experiment: setting + inputs + corrupted set + adversary.
#[derive(Debug, Clone)]
pub struct Scenario {
    setting: Setting,
    profile: PreferenceProfile,
    corrupted: BTreeSet<PartyId>,
    adversary: AdversarySpec,
    faults: FaultSpec,
    seed: u64,
    max_slots: Option<u64>,
    env: ScenarioEnv,
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    setting: Setting,
    profile: Option<PreferenceProfile>,
    corrupted: BTreeSet<PartyId>,
    adversary: AdversarySpec,
    faults: FaultSpec,
    seed: u64,
    max_slots: Option<u64>,
}

impl Scenario {
    /// Starts building a scenario for `setting`.
    pub fn builder(setting: Setting) -> ScenarioBuilder {
        ScenarioBuilder {
            setting,
            profile: None,
            corrupted: BTreeSet::new(),
            adversary: AdversarySpec::Crash,
            faults: FaultSpec::NONE,
            seed: 0,
            max_slots: None,
        }
    }

    /// The setting this scenario runs in.
    pub fn setting(&self) -> &Setting {
        &self.setting
    }

    /// The honest preference profile.
    pub fn profile(&self) -> &PreferenceProfile {
        &self.profile
    }

    /// The corrupted parties.
    pub fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    /// The public-key directory used by this scenario's runs.
    ///
    /// Adversaries legitimately hold the signing keys of the corrupted parties; the
    /// tailored attacks obtain them through this directory together with
    /// [`Scenario::key_id_of`].
    pub fn pki(&self) -> &Pki {
        &self.env.pki
    }

    /// The key id assigned to `party` in this scenario's PKI (dense numbering).
    pub fn key_id_of(&self, party: PartyId) -> Option<KeyId> {
        self.env.key_of.get(&party).copied()
    }

    /// Runs the scenario with the plan prescribed by the solvability characterization.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Unsolvable`] when Theorems 2–7 rule the setting out, and
    /// propagates simulator configuration errors.
    pub fn run(&self) -> Result<ScenarioOutcome, HarnessError> {
        match characterize(&self.setting) {
            Solvability::Solvable(plan) => self.run_with_plan(plan),
            Solvability::Unsolvable(imp) => Err(HarnessError::Unsolvable(imp)),
        }
    }

    /// Runs the scenario with an explicitly chosen plan — including plans outside their
    /// theorem's conditions, which is how the impossibility experiments demonstrate
    /// property violations.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors (e.g. corruption budget exceeded).
    pub fn run_with_plan(&self, plan: ProtocolPlan) -> Result<ScenarioOutcome, HarnessError> {
        let behaviour = match self.adversary {
            AdversarySpec::Crash => Behaviour::Crash,
            AdversarySpec::Lying => Behaviour::Lie(self.seed),
            AdversarySpec::Garbage => Behaviour::Garbage(self.seed, 2),
        };
        self.execute(plan, self.behaviour_adversary(plan, behaviour))
    }

    /// Runs the scenario with a custom adversary (used by the tailored impossibility
    /// attacks of [`crate::attacks`]).
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors (e.g. corruption budget exceeded).
    pub fn run_with_adversary(
        &self,
        plan: ProtocolPlan,
        adversary: Box<dyn Adversary<WireMsg>>,
    ) -> Result<ScenarioOutcome, HarnessError> {
        self.execute(plan, adversary)
    }

    fn execute(
        &self,
        plan: ProtocolPlan,
        adversary: Box<dyn Adversary<WireMsg>>,
    ) -> Result<ScenarioOutcome, HarnessError> {
        let env = &self.env;
        // Snapshot the signature counter so repeated runs of the same scenario (which
        // share one PKI) still report the per-run cost; taken before the runtimes are
        // registered because protocol constructors may already sign.
        let signatures_before = env.pki.signatures_issued();
        let slots_per_round = env.slots_per_round();
        let total_rounds = env.total_rounds(plan);
        // Under a fault schedule the automatic budget is extended by the worst case the
        // plan can cost (partitioned slots, crash outage, jitter per round) — a pure
        // function of the spec, so the budget stays identical across threads/shards.
        let max_slots = self.max_slots.unwrap_or_else(|| {
            slots_per_round * (total_rounds + 4) + 8 + self.faults.slot_slack(total_rounds + 4)
        });

        let mut net: SyncNetwork<WireMsg, MatchDecision> = SyncNetwork::new(
            self.setting.k(),
            self.setting.topology(),
            CorruptionBudget::new(self.setting.t_l(), self.setting.t_r()),
        );
        for party in env.parties.iter() {
            if self.corrupted.contains(&party) {
                net.register(Box::new(SilentProcess::new(party)))?;
            } else {
                net.register(Box::new(env.build_runtime(party, plan, &self.profile)))?;
            }
        }
        for &party in &self.corrupted {
            net.corrupt(party)?;
        }
        net.set_adversary(adversary);
        if self.faults != FaultSpec::NONE {
            net.set_faults(FaultSchedule::new(self.faults, self.seed));
        }

        let outcome = net.run(max_slots)?;
        let signatures = env.pki.signatures_issued() - signatures_before;
        let instance = BsmInstance::new(self.profile.clone(), outcome.corrupted.clone());
        let violations = check_bsm(&instance, &outcome.outputs);
        Ok(ScenarioOutcome {
            plan,
            outputs: outcome.outputs,
            corrupted: outcome.corrupted,
            violations,
            all_honest_decided: outcome.all_honest_decided,
            slots: outcome.slots,
            metrics: outcome.metrics,
            signatures,
        })
    }

    /// Builds the adversary that plays `behaviour` for every corrupted party: the one
    /// builder behind both [`AdversarySpec`] and the behaviour-mode actions of
    /// [`crate::script::ScriptedAdversary`], so a script and the built-in strategy it
    /// names run identically.
    pub(crate) fn behaviour_adversary(
        &self,
        plan: ProtocolPlan,
        behaviour: Behaviour,
    ) -> Box<dyn Adversary<WireMsg>> {
        let puppets = |profile: &PreferenceProfile| -> Box<dyn Adversary<WireMsg>> {
            let mut puppets = BsmPuppetAdversary::new();
            for &party in &self.corrupted {
                puppets.add_puppet(party, Box::new(self.env.build_runtime(party, plan, profile)));
            }
            Box::new(puppets)
        };
        match behaviour {
            Behaviour::Crash => Box::new(PassiveAdversary),
            Behaviour::Honest => puppets(&self.profile),
            Behaviour::Lie(seed) => {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x11e5));
                puppets(&uniform_profile(self.setting.k(), &mut rng))
            }
            Behaviour::Garbage(seed, per_slot) => {
                Box::new(GarbageAdversary::new(seed, per_slot as usize))
            }
        }
    }
}

/// How the corrupted parties behave by default (see [`Scenario::behaviour_adversary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Behaviour {
    /// Send nothing at all (not even constructor-time signatures are issued).
    Crash,
    /// Run the honest protocol on the true preferences.
    Honest,
    /// Run the honest protocol on a profile drawn from this seed.
    Lie(u64),
    /// Flood honest parties with garbage: `(seed, messages per slot)`.
    Garbage(u64, u64),
}

impl ScenarioBuilder {
    /// Uses an explicit preference profile instead of a seeded random one.
    pub fn profile(mut self, profile: PreferenceProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Marks left-side parties as corrupted.
    pub fn corrupt_left(mut self, indices: impl IntoIterator<Item = u32>) -> Self {
        self.corrupted.extend(indices.into_iter().map(PartyId::left));
        self
    }

    /// Marks right-side parties as corrupted.
    pub fn corrupt_right(mut self, indices: impl IntoIterator<Item = u32>) -> Self {
        self.corrupted.extend(indices.into_iter().map(PartyId::right));
        self
    }

    /// Selects the byzantine behaviour (default: crash).
    pub fn adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary = spec;
        self
    }

    /// Installs a declarative fault plan (default: [`FaultSpec::NONE`]).
    ///
    /// The plan's stochastic axes draw from a stream derived from this scenario's
    /// seed, distinct from the profile/adversary streams, and a non-`NONE` plan
    /// extends the automatic slot budget by the plan's worst-case cost. Non-decision
    /// under faults is legitimate data: the run reports `all_honest_decided = false`
    /// instead of erroring.
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Seeds profile generation and randomized adversaries (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the automatic slot budget.
    pub fn max_slots(mut self, max_slots: u64) -> Self {
        self.max_slots = Some(max_slots);
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::ProfileMismatch`] if an explicit profile has the wrong
    /// size and [`HarnessError::Sim`] if the corrupted set exceeds the budget.
    pub fn build(self) -> Result<Scenario, HarnessError> {
        let k = self.setting.k();
        let profile = match self.profile {
            Some(profile) => {
                if profile.k() != k {
                    return Err(HarnessError::ProfileMismatch { expected: k, found: profile.k() });
                }
                profile
            }
            None => uniform_profile(k, &mut StdRng::seed_from_u64(self.seed)),
        };
        let left_corrupted = self.corrupted.iter().filter(|p| p.is_left()).count();
        let right_corrupted = self.corrupted.iter().filter(|p| p.is_right()).count();
        if left_corrupted > self.setting.t_l() {
            return Err(HarnessError::Sim(SimError::CorruptionBudgetExceeded {
                party: *self.corrupted.iter().find(|p| p.is_left()).expect("non-empty"),
            }));
        }
        if right_corrupted > self.setting.t_r() {
            return Err(HarnessError::Sim(SimError::CorruptionBudgetExceeded {
                party: *self.corrupted.iter().find(|p| p.is_right()).expect("non-empty"),
            }));
        }
        for party in &self.corrupted {
            if party.idx() >= k {
                return Err(HarnessError::Sim(SimError::UnknownParty { party: *party }));
            }
        }
        let env = ScenarioEnv::new(&self.setting);
        Ok(Scenario {
            setting: self.setting,
            profile,
            corrupted: self.corrupted,
            adversary: self.adversary,
            faults: self.faults,
            seed: self.seed,
            max_slots: self.max_slots,
            env,
        })
    }
}

/// Shared per-run environment: PKI, key directory and runtime construction helpers.
#[derive(Debug, Clone)]
pub(crate) struct ScenarioEnv {
    pub(crate) setting: Setting,
    pub(crate) parties: PartySet,
    pub(crate) pki: Pki,
    pub(crate) key_of: BTreeMap<PartyId, KeyId>,
}

impl ScenarioEnv {
    pub(crate) fn new(setting: &Setting) -> Self {
        let k = setting.k();
        let parties = PartySet::new(k);
        let pki = Pki::new(2 * k as u32);
        let key_of: BTreeMap<PartyId, KeyId> =
            parties.iter().map(|p| (p, KeyId(dense_key_index(p, k)))).collect();
        Self { setting: *setting, parties, pki, key_of }
    }

    pub(crate) fn slots_per_round(&self) -> u64 {
        if self.setting.topology() == Topology::FullyConnected {
            1
        } else {
            2
        }
    }

    pub(crate) fn committee(&self, side: Side) -> Committee {
        let members = self.parties.side(side).collect();
        Committee::new(members, self.setting.t_of(side))
    }

    pub(crate) fn total_rounds(&self, plan: ProtocolPlan) -> u64 {
        let k = self.setting.k();
        match plan {
            ProtocolPlan::DolevStrongBsm => {
                BroadcastBsm::total_rounds(k, &self.ds_flavor(PartyId::left(0)))
            }
            ProtocolPlan::CommitteeBroadcastBsm { committee_side } => BroadcastBsm::total_rounds(
                k,
                &BroadcastFlavor::Committee { committee: self.committee(committee_side) },
            ),
            ProtocolPlan::BipartiteAuthLocal { committee_side } => {
                BipartiteAuthBsm::total_rounds(&self.committee(committee_side))
            }
        }
    }

    pub(crate) fn ds_flavor(&self, me: PartyId) -> BroadcastFlavor {
        let t = (self.setting.t_l() + self.setting.t_r()).min(self.setting.n().saturating_sub(1));
        BroadcastFlavor::DolevStrong {
            pki: self.pki.clone(),
            signing_key: self.pki.signing_key(self.key_of[&me].0).expect("every party has a key"),
            key_of: self.key_of.clone(),
            t,
        }
    }

    pub(crate) fn relay_mode(&self) -> RelayMode {
        if self.setting.topology() == Topology::FullyConnected {
            RelayMode::Direct
        } else {
            match self.setting.auth() {
                AuthMode::Unauthenticated => RelayMode::Majority,
                AuthMode::Authenticated => RelayMode::Signed {
                    pki: self.pki.clone(),
                    key_of: self.key_of.clone(),
                    max_age: 2,
                },
            }
        }
    }

    pub(crate) fn preference_of(
        profile: &PreferenceProfile,
        party: PartyId,
    ) -> bsm_matching::PreferenceList {
        match party.side {
            Side::Left => profile.left(party.idx()).clone(),
            Side::Right => profile.right(party.idx()).clone(),
        }
    }

    pub(crate) fn build_protocol(
        &self,
        me: PartyId,
        plan: ProtocolPlan,
        profile: &PreferenceProfile,
    ) -> BsmProtocol {
        let k = self.setting.k();
        let my_pref = Self::preference_of(profile, me);
        match plan {
            ProtocolPlan::DolevStrongBsm => {
                Box::new(BroadcastBsm::new(me, k, my_pref, self.ds_flavor(me)))
            }
            ProtocolPlan::CommitteeBroadcastBsm { committee_side } => Box::new(BroadcastBsm::new(
                me,
                k,
                my_pref,
                BroadcastFlavor::Committee { committee: self.committee(committee_side) },
            )),
            ProtocolPlan::BipartiteAuthLocal { committee_side } => Box::new(BipartiteAuthBsm::new(
                me,
                k,
                committee_side,
                self.setting.t_of(committee_side),
                my_pref,
            )),
        }
    }

    pub(crate) fn build_runtime(
        &self,
        me: PartyId,
        plan: ProtocolPlan,
        profile: &PreferenceProfile,
    ) -> PartyRuntime {
        let signing_key = match self.relay_mode() {
            RelayMode::Signed { .. } => {
                Some(self.pki.signing_key(self.key_of[&me].0).expect("every party has a key"))
            }
            _ => None,
        };
        let relay = RelayEngine::new(
            me,
            self.parties,
            self.setting.topology(),
            self.relay_mode(),
            signing_key,
        );
        PartyRuntime::new(me, relay, self.build_protocol(me, plan, profile), self.slots_per_round())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_matching::gale_shapley::gale_shapley_left;

    fn setting(k: usize, topology: Topology, auth: AuthMode, t_l: usize, t_r: usize) -> Setting {
        Setting::new(k, topology, auth, t_l, t_r).unwrap()
    }

    fn expected_outputs(profile: &PreferenceProfile) -> Outputs {
        let matching = gale_shapley_left(profile);
        let mut outputs = Outputs::new();
        for (i, j) in matching.pairs() {
            outputs.insert(PartyId::left(i as u32), Some(PartyId::right(j as u32)));
            outputs.insert(PartyId::right(j as u32), Some(PartyId::left(i as u32)));
        }
        outputs
    }

    #[test]
    fn fault_free_authenticated_full_mesh_reproduces_gale_shapley() {
        let setting = setting(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1);
        let scenario = Scenario::builder(setting).seed(42).build().unwrap();
        let outcome = scenario.run().unwrap();
        assert!(outcome.all_honest_decided);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.outputs, expected_outputs(scenario.profile()));
        assert_eq!(outcome.plan, ProtocolPlan::DolevStrongBsm);
    }

    #[test]
    fn fault_free_unauthenticated_bipartite_reproduces_gale_shapley() {
        let setting = setting(3, Topology::Bipartite, AuthMode::Unauthenticated, 0, 1);
        let scenario = Scenario::builder(setting).seed(7).build().unwrap();
        let outcome = scenario.run().unwrap();
        assert!(outcome.all_honest_decided);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.outputs, expected_outputs(scenario.profile()));
    }

    #[test]
    fn unsolvable_setting_is_rejected_with_the_right_theorem() {
        let setting = setting(3, Topology::FullyConnected, AuthMode::Unauthenticated, 1, 1);
        let scenario = Scenario::builder(setting).build().unwrap();
        match scenario.run() {
            Err(HarnessError::Unsolvable(imp)) => assert_eq!(imp.theorem, "Theorem 2"),
            other => panic!("expected an unsolvability error, got {other:?}"),
        }
    }

    #[test]
    fn builder_validation() {
        let ok = setting(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1);
        // Too many corruptions on the left.
        assert!(matches!(
            Scenario::builder(ok).corrupt_left([0, 1]).build(),
            Err(HarnessError::Sim(SimError::CorruptionBudgetExceeded { .. }))
        ));
        // Out-of-range party index.
        assert!(matches!(
            Scenario::builder(ok).corrupt_right([9]).build(),
            Err(HarnessError::Sim(SimError::UnknownParty { .. }))
        ));
        // Wrong profile size.
        assert!(matches!(
            Scenario::builder(ok).profile(PreferenceProfile::identity(2).unwrap()).build(),
            Err(HarnessError::ProfileMismatch { .. })
        ));
        // Errors render.
        let err = Scenario::builder(ok).corrupt_left([0, 1]).build().unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn crash_faults_in_authenticated_one_sided_network() {
        let setting = setting(3, Topology::OneSided, AuthMode::Authenticated, 1, 1);
        let scenario = Scenario::builder(setting)
            .seed(3)
            .corrupt_left([0])
            .corrupt_right([2])
            .adversary(AdversarySpec::Crash)
            .build()
            .unwrap();
        let outcome = scenario.run().unwrap();
        assert!(outcome.all_honest_decided);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.corrupted.len(), 2);
    }

    #[test]
    fn adversary_spec_display_and_all() {
        assert_eq!(AdversarySpec::ALL.len(), 3);
        assert_eq!(AdversarySpec::Crash.to_string(), "crash");
        assert_eq!(AdversarySpec::Lying.to_string(), "lying");
        assert_eq!(AdversarySpec::Garbage.to_string(), "garbage");
    }

    #[test]
    fn signature_accounting_per_run() {
        let authenticated = setting(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1);
        let scenario = Scenario::builder(authenticated).seed(9).build().unwrap();
        let first = scenario.run().unwrap();
        assert!(first.signatures > 0, "Dolev-Strong runs must sign");
        // A repeat run on the same scenario (same shared PKI) reports the same
        // per-run signature count, not a cumulative total.
        let second = scenario.run().unwrap();
        assert_eq!(first.signatures, second.signatures);

        let unauth = setting(3, Topology::Bipartite, AuthMode::Unauthenticated, 0, 1);
        let outcome = Scenario::builder(unauth).seed(9).build().unwrap().run().unwrap();
        assert_eq!(outcome.signatures, 0, "unauthenticated plans never sign");
    }

    #[test]
    fn fault_schedules_run_deterministically() {
        let setting = setting(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1);
        let faults: FaultSpec = "partition=0+2;loss=100;jitter=1".parse().unwrap();
        let run =
            || Scenario::builder(setting).seed(5).faults(faults).build().unwrap().run().unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.all_honest_decided, b.all_honest_decided);
        assert!(
            a.metrics.dropped_by_faults > 0,
            "partition + loss must drop something: {:?}",
            a.metrics
        );
    }

    #[test]
    fn accessors() {
        let setting = setting(2, Topology::FullyConnected, AuthMode::Authenticated, 0, 0);
        let scenario = Scenario::builder(setting).seed(1).build().unwrap();
        assert_eq!(scenario.setting().k(), 2);
        assert_eq!(scenario.profile().k(), 2);
        assert!(scenario.corrupted().is_empty());
    }
}
