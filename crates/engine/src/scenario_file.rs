//! Declarative scenario files: the campaign-description schema over the
//! [`bsm_core::mini_toml`] text layer.
//!
//! A scenario file names a whole campaign declaratively — party counts, topologies,
//! auth models, adversaries, seed count, and a schedule of network faults — so an
//! experiment is a reviewable artifact instead of a command line. `campaign_ctl run
//! --scenario FILE` loads one, and the format is specified key by key in
//! `docs/SCENARIOS.md` (whose worked examples are the literal files under
//! `examples/scenarios/`, parsed verbatim by `crates/engine/tests/scenario_file.rs`).
//!
//! # The schema
//!
//! The syntax is the shared TOML subset (`docs/SCENARIOS.md`, "Syntax"). On top of
//! it this module owns only the scenario rules: top-level `name`, one optional
//! `[grid]` table of campaign axes before any `[[faults]]` table (one per fault plan
//! on the fault axis), the meaning and range of every key, and the caps that keep a
//! parsed file runnable — market sizes up to [`MAX_MARKET_SIZE`] and at most
//! [`MAX_CAMPAIGN_CELLS`] expanded cells. Anything else is rejected with a
//! line-positioned [`ScenarioError`], as are semantically invalid fault plans (e.g.
//! overlapping partition windows).
//!
//! # Canonical form
//!
//! [`ScenarioFile::canonical`] renders the parsed file back as fully-explicit text:
//! every grid axis appears with its resolved, sorted, deduplicated values, and every
//! fault plan renders only its non-default keys. Canonicalization is a *fixpoint*
//! (`parse ∘ canonical ∘ parse = parse ∘ canonical ∘ parse ∘ canonical ∘ parse`) and
//! the canonical text is what report artifacts embed as their scenario tag — two
//! artifacts carry byte-equal tags exactly when they describe the same campaign, which
//! is how `campaign_ctl merge` and `diff` refuse to combine mixed-scenario artifacts.

use crate::campaign::{Campaign, CampaignBuilder};
use bsm_core::harness::AdversarySpec;
use bsm_core::mini_toml::{self, Table, TomlError, Value, Writer};
use bsm_core::problem::{AuthMode, MAX_MARKET_SIZE};
use bsm_net::{CrashWindow, FaultSpec, PartitionWindow, PartyId, Topology};
use std::path::Path;

/// A line-positioned scenario-file error: the shared [`TomlError`] (line 0: not tied
/// to one line, e.g. a missing required key or an unreadable file).
pub type ScenarioError = TomlError;

/// The most cells a scenario file may expand to (the product of every axis length
/// and the seed count) — far above the 1080-cell default grid, far below a work
/// list that could not be allocated.
pub const MAX_CAMPAIGN_CELLS: u64 = 1 << 20;

/// A parsed scenario file: one declarative campaign description.
///
/// Axis vectors are resolved (defaults applied), sorted and deduplicated at parse
/// time, so two files describing the same campaign parse to equal values and render
/// the same [`canonical`](Self::canonical) text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFile {
    /// The scenario's name (required; informational, carried into the canonical
    /// form but not into any grid coordinate).
    pub name: String,
    /// Market sizes to sweep (`[grid] sizes`; default `[3]`).
    pub sizes: Vec<usize>,
    /// Topologies to sweep (`[grid] topologies`; default: all).
    pub topologies: Vec<Topology>,
    /// Authentication modes to sweep (`[grid] auth`; default: all).
    pub auth: Vec<AuthMode>,
    /// Corruption pairs `(tL, tR)` to sweep (`[grid] corruptions`; default `[[0, 0]]`).
    pub corruptions: Vec<(usize, usize)>,
    /// Byzantine strategies to sweep (`[grid] adversaries`; default: all).
    pub adversaries: Vec<AdversarySpec>,
    /// Number of seeds to sweep — the campaign runs seeds `0..seeds`
    /// (`[grid] seeds`; default 1).
    pub seeds: u64,
    /// Fault plans to sweep, one per `[[faults]]` table; `[FaultSpec::NONE]` when
    /// the file declares none (a bare `[[faults]]` table *is* the fault-free plan).
    pub faults: Vec<FaultSpec>,
}

impl ScenarioFile {
    /// Parses a scenario file from its text.
    ///
    /// # Errors
    ///
    /// A line-positioned [`ScenarioError`] for anything outside the format: syntax
    /// outside the TOML subset, unknown or duplicate keys and tables, values of the
    /// wrong type, unknown axis names, a market size above [`MAX_MARKET_SIZE`], a
    /// grid of more than [`MAX_CAMPAIGN_CELLS`] cells, and invalid fault plans
    /// (zero-duration or overlapping partitions, a crash recovery not after its
    /// start, a loss rate above 1000‰).
    ///
    /// # Examples
    ///
    /// ```rust
    /// use bsm_engine::ScenarioFile;
    ///
    /// let scenario = ScenarioFile::parse(
    ///     "name = \"partition demo\"\n\
    ///      \n\
    ///      [grid]\n\
    ///      sizes = [3]\n\
    ///      adversaries = [\"crash\"]\n\
    ///      seeds = 2\n\
    ///      \n\
    ///      [[faults]]\n\
    ///      partitions = [[2, 3]]  # slots 2..5 cut every cross-side link\n\
    ///      loss = 50              # plus 5% seeded message loss\n",
    /// )
    /// .unwrap();
    /// assert_eq!(scenario.name, "partition demo");
    /// assert_eq!(scenario.faults.len(), 1);
    /// // 1 size × 3 topologies × 2 auth modes × 1 corruption pair × 1 adversary
    /// // × 1 fault plan × 2 seeds:
    /// assert_eq!(scenario.campaign().len(), 12);
    /// // Canonicalization is a fixpoint: re-parsing the canonical text is identity.
    /// let canonical = scenario.canonical();
    /// assert_eq!(ScenarioFile::parse(&canonical).unwrap().canonical(), canonical);
    /// ```
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut doc = mini_toml::parse(text)?;
        let mut scenario = ScenarioFile {
            name: doc.top.req("name")?,
            sizes: vec![3],
            topologies: Topology::ALL.to_vec(),
            auth: AuthMode::ALL.to_vec(),
            corruptions: vec![(0, 0)],
            adversaries: AdversarySpec::ALL.to_vec(),
            seeds: 1,
            faults: Vec::new(),
        };
        doc.top.finish()?;
        let mut grid: Option<Table> = None;
        for mut table in doc.sections {
            match table.header.as_str() {
                // One [grid] table, before the fault plans: keeps the canonical
                // rendering's section order the only accepted order.
                "[grid]" if !scenario.faults.is_empty() => {
                    return Err(ScenarioError::new(
                        table.line,
                        "[grid] must come before any [[faults]] table",
                    ));
                }
                "[grid]" if grid.is_some() => {
                    return Err(ScenarioError::new(table.line, "duplicate [grid] table"));
                }
                "[grid]" => {
                    scenario.read_grid(&mut table)?;
                    grid = Some(table);
                }
                "[[faults]]" => scenario.faults.push(fault_plan(table)?),
                other => {
                    return Err(ScenarioError::new(table.line, format!("unknown table {other:?}")))
                }
            }
        }
        if scenario.faults.is_empty() {
            scenario.faults.push(FaultSpec::NONE);
        }
        scenario.faults.sort_unstable();
        scenario.faults.dedup();
        let axes = [
            scenario.sizes.len(),
            scenario.topologies.len(),
            scenario.auth.len(),
            scenario.corruptions.len(),
            scenario.adversaries.len(),
            scenario.faults.len(),
        ];
        let cells =
            axes.into_iter().try_fold(scenario.seeds, |cells, n| cells.checked_mul(n as u64));
        if cells.is_none_or(|cells| cells > MAX_CAMPAIGN_CELLS) {
            let message = format!("the campaign expands to more than {MAX_CAMPAIGN_CELLS} cells");
            return Err(grid.map_or_else(
                || ScenarioError::new(0, &message),
                |grid| grid.error_at("seeds", &message),
            ));
        }
        Ok(scenario)
    }

    /// Reads and parses a scenario file from disk.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] at line 0 when the file cannot be read; otherwise exactly
    /// the errors of [`parse`](Self::parse).
    pub fn load(path: &Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|err| {
            ScenarioError::new(0, format!("cannot read {}: {err}", path.display()))
        })?;
        Self::parse(&text)
    }

    /// Renders the fully-explicit canonical form: every grid axis with its resolved,
    /// sorted values; every fault plan with only its non-default keys; no comments.
    ///
    /// This text is the scenario tag embedded in report artifacts (see
    /// [`crate::report::CampaignReport::with_scenario`]): byte-equal tags ⇔ same
    /// campaign.
    pub fn canonical(&self) -> String {
        let mut out = Writer::default();
        out.pair("name", self.name.as_str())
            .header("[grid]")
            .pair("sizes", self.sizes.iter().copied().collect::<Value>())
            .pair("topologies", self.topologies.iter().map(Topology::name).collect::<Value>())
            .pair("auth", self.auth.iter().map(AuthMode::name).collect::<Value>())
            .pair(
                "corruptions",
                self.corruptions.iter().map(|&(l, r)| Value::from_iter([l, r])).collect::<Value>(),
            )
            .pair(
                "adversaries",
                self.adversaries.iter().map(AdversarySpec::name).collect::<Value>(),
            )
            .pair("seeds", self.seeds);
        if self.faults != [FaultSpec::NONE] {
            for plan in &self.faults {
                out.header("[[faults]]");
                if plan.partition_windows().next().is_some() {
                    let windows =
                        plan.partition_windows().map(|w| Value::from_iter([w.start, w.duration]));
                    out.pair("partitions", windows.collect::<Value>());
                }
                if let Some(crash) = plan.crash {
                    out.pair("crash_party", crash.party.to_string().as_str())
                        .pair("crash_start", crash.start);
                    if let Some(recovery) = crash.recovery {
                        out.pair("crash_recovery", recovery);
                    }
                }
                if plan.loss_permille > 0 {
                    out.pair("loss", plan.loss_permille);
                }
                if plan.jitter > 0 {
                    out.pair("jitter", plan.jitter);
                }
            }
        }
        out.finish()
    }

    /// Expands the scenario into its [`Campaign`] — the same canonical-order work
    /// list a [`CampaignBuilder`] with these axes produces.
    pub fn campaign(&self) -> Campaign {
        CampaignBuilder::new()
            .sizes(self.sizes.iter().copied())
            .topologies(self.topologies.iter().copied())
            .auth_modes(self.auth.iter().copied())
            .corruptions(self.corruptions.iter().copied())
            .adversaries(self.adversaries.iter().copied())
            .fault_plans(self.faults.iter().copied())
            .seeds(0..self.seeds)
            .build()
    }
}

impl ScenarioFile {
    /// Reads the `[grid]` axes over the defaults.
    fn read_grid(&mut self, grid: &mut Table) -> Result<(), ScenarioError> {
        if let Some(sizes) = grid.opt::<Vec<u64>>("sizes")? {
            if let Some(k) = sizes.iter().find(|&&k| k > MAX_MARKET_SIZE as u64) {
                let message = format!("market size {k} exceeds the maximum {MAX_MARKET_SIZE}");
                return Err(grid.error_at("sizes", message));
            }
            self.sizes = axis(grid, "sizes", sizes.into_iter().map(|k| k as usize).collect())?;
        }
        if let Some(topologies) = named_axis(grid, "topologies", Topology::from_name, "topology")? {
            self.topologies = topologies;
        }
        if let Some(auth) = named_axis(grid, "auth", AuthMode::from_name, "auth mode")? {
            self.auth = auth;
        }
        if let Some(pairs) = int_pairs(grid, "corruptions", "[tL, tR]")? {
            let pairs = pairs.into_iter().map(|(l, r)| (l as usize, r as usize)).collect();
            self.corruptions = axis(grid, "corruptions", pairs)?;
        }
        if let Some(adversaries) =
            named_axis(grid, "adversaries", AdversarySpec::from_name, "adversary")?
        {
            self.adversaries = adversaries;
        }
        if let Some(seeds) = grid.opt::<u64>("seeds")? {
            if seeds == 0 {
                return Err(grid.error_at("seeds", "seeds must be at least 1"));
            }
            self.seeds = seeds;
        }
        grid.finish()
    }
}

/// A non-empty axis as a set: sorted and deduplicated.
fn axis<T: Ord>(table: &Table, key: &str, mut values: Vec<T>) -> Result<Vec<T>, ScenarioError> {
    if values.is_empty() {
        return Err(table.error_at(key, format!("{key} must not be empty")));
    }
    values.sort_unstable();
    values.dedup();
    Ok(values)
}

/// `key` as an axis of names, each resolved by `from_name`.
fn named_axis<T: Ord>(
    table: &mut Table,
    key: &'static str,
    from_name: fn(&str) -> Option<T>,
    what: &str,
) -> Result<Option<Vec<T>>, ScenarioError> {
    let Some(names) = table.opt::<Vec<String>>(key)? else { return Ok(None) };
    let values = names
        .iter()
        .map(|name| {
            from_name(name).ok_or_else(|| table.error_at(key, format!("unknown {what} {name:?}")))
        })
        .collect::<Result<_, _>>()?;
    axis(table, key, values).map(Some)
}

/// `key` as an array of `[a, b]` integer pairs (`what` names a pair in errors).
fn int_pairs(
    table: &mut Table,
    key: &'static str,
    what: &str,
) -> Result<Option<Vec<(u64, u64)>>, ScenarioError> {
    let Some(items) = table.opt::<Vec<Vec<u64>>>(key)? else { return Ok(None) };
    let pair = |item: &Vec<u64>| match item[..] {
        [a, b] => Ok((a, b)),
        _ => Err(table.error_at(key, format!("{key}: each entry must be a {what} integer pair"))),
    };
    items.iter().map(pair).collect::<Result<_, _>>().map(Some)
}

/// A slot number, which must fit a `u32`.
fn slot(table: &Table, key: &str, what: &str, value: u64) -> Result<u32, ScenarioError> {
    u32::try_from(value).map_err(|_| table.error_at(key, format!("{what} {value} exceeds u32")))
}

/// One `[[faults]]` table as a validated [`FaultSpec`], each error positioned at the
/// key that caused it (at the header for cross-key problems).
fn fault_plan(mut table: Table) -> Result<FaultSpec, ScenarioError> {
    let mut spec = FaultSpec::NONE;
    if let Some(pairs) = int_pairs(&mut table, "partitions", "[start, duration]")? {
        if pairs.len() > 2 {
            return Err(table.error_at("partitions", "at most 2 scheduled partitions per plan"));
        }
        let mut windows = pairs
            .into_iter()
            .map(|(start, duration)| {
                Ok(PartitionWindow {
                    start: slot(&table, "partitions", "partition start", start)?,
                    duration: slot(&table, "partitions", "partition duration", duration)?,
                })
            })
            .collect::<Result<Vec<_>, ScenarioError>>()?;
        windows.sort_unstable();
        for (index, window) in windows.into_iter().enumerate() {
            spec.partitions[index] = Some(window);
        }
        spec.validate().map_err(|message| table.error_at("partitions", message))?;
    }
    let party = table.opt::<String>("crash_party")?;
    let party = party
        .map(|name| {
            name.parse::<PartyId>().map_err(|message| table.error_at("crash_party", message))
        })
        .transpose()?;
    let start = table.opt::<u64>("crash_start")?;
    let start = start.map(|v| slot(&table, "crash_start", "crash_start", v)).transpose()?;
    let recovery = table.opt::<u64>("crash_recovery")?;
    let recovery =
        recovery.map(|v| slot(&table, "crash_recovery", "crash_recovery", v)).transpose()?;
    spec.crash = match (party, start) {
        (Some(party), Some(start)) => Some(CrashWindow { party, start, recovery }),
        (None, None) if recovery.is_some() => {
            let message = "crash_recovery without crash_party/crash_start";
            return Err(table.error_at("crash_recovery", message));
        }
        (None, None) => None,
        _ => {
            let message = "crash_party and crash_start must be given together";
            return Err(ScenarioError::new(table.line, message));
        }
    };
    if let Some(loss) = table.opt::<u64>("loss")? {
        if loss > 1000 {
            return Err(table.error_at("loss", format!("loss rate {loss}\u{2030} exceeds 1000")));
        }
        spec.loss_permille = loss as u16;
    }
    if let Some(jitter) = table.opt::<u64>("jitter")? {
        spec.jitter = u8::try_from(jitter)
            .map_err(|_| table.error_at("jitter", format!("jitter {jitter} exceeds 255 slots")))?;
    }
    table.finish()?;
    spec.validate().map_err(|message| table.error_at("crash_recovery", message))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "\
# A kitchen-sink scenario exercising every key.
name = \"kitchen sink\"

[grid]
sizes = [4, 3, 3]
topologies = [\"fully-connected\", \"bipartite\"]
auth = [\"authenticated\"]
corruptions = [[1, 1], [0, 0]]
adversaries = [\"lying\", \"crash\"]
seeds = 2

[[faults]]
partitions = [[4, 2], [0, 1]]  # out of order on purpose; parsing sorts them
crash_party = \"L1\"
crash_start = 5
crash_recovery = 9
loss = 25
jitter = 2

[[faults]]
";

    #[test]
    fn full_scenario_parses_with_sorted_deduplicated_axes() {
        let scenario = ScenarioFile::parse(FULL).unwrap();
        assert_eq!(scenario.name, "kitchen sink");
        assert_eq!(scenario.sizes, [3, 4]);
        assert_eq!(scenario.topologies, [Topology::Bipartite, Topology::FullyConnected]);
        assert_eq!(scenario.auth, [AuthMode::Authenticated]);
        assert_eq!(scenario.corruptions, [(0, 0), (1, 1)]);
        assert_eq!(scenario.adversaries, [AdversarySpec::Crash, AdversarySpec::Lying]);
        assert_eq!(scenario.seeds, 2);
        // The bare [[faults]] table is the fault-free plan; it sorts first.
        assert_eq!(scenario.faults.len(), 2);
        assert_eq!(scenario.faults[0], FaultSpec::NONE);
        assert_eq!(
            scenario.faults[1].to_string(),
            "partition=0+1;partition=4+2;crash=L1@5..9;loss=25;jitter=2"
        );
    }

    #[test]
    fn defaults_match_the_campaign_builder() {
        let scenario = ScenarioFile::parse("name = \"defaults\"\n").unwrap();
        assert_eq!(scenario.sizes, [3]);
        assert_eq!(scenario.topologies, Topology::ALL);
        assert_eq!(scenario.auth, AuthMode::ALL);
        assert_eq!(scenario.corruptions, [(0, 0)]);
        assert_eq!(scenario.adversaries, AdversarySpec::ALL);
        assert_eq!(scenario.seeds, 1);
        assert_eq!(scenario.faults, [FaultSpec::NONE]);
        let built = CampaignBuilder::new().build();
        assert_eq!(scenario.campaign(), built);
    }

    #[test]
    fn canonicalization_is_a_fixpoint() {
        for text in [FULL, "name = \"defaults\"\n"] {
            let parsed = ScenarioFile::parse(text).unwrap();
            let canonical = parsed.canonical();
            let reparsed = ScenarioFile::parse(&canonical).unwrap();
            assert_eq!(reparsed, parsed, "canonical text must parse back to the same file");
            assert_eq!(reparsed.canonical(), canonical, "canonical must be a fixpoint");
        }
    }

    #[test]
    fn canonical_form_of_a_faultless_file_has_no_faults_section() {
        let canonical = ScenarioFile::parse("name = \"x\"\n").unwrap().canonical();
        assert!(!canonical.contains("[[faults]]"), "{canonical}");
        assert!(canonical.contains(
            "topologies = [\"bipartite\", \"one-sided\", \
                                    \"fully-connected\"]"
        ));
    }

    #[test]
    fn positioned_errors_name_line_and_problem() {
        for (text, line, needle) in [
            ("name = \"x\"\nbogus = 1\n", 2, "unknown key"),
            ("name = \"x\"\n[grid]\nplanets = [9]\n", 3, "unknown [grid] key"),
            ("name = \"x\"\n[grid]\nsizes = \"three\"\n", 3, "expected array"),
            ("name = \"x\"\n[grid]\nsizes = []\n", 3, "must not be empty"),
            ("name = \"x\"\n[grid]\ntopologies = [\"ring\"]\n", 3, "unknown topology"),
            ("name = \"x\"\n[grid]\nseeds = 0\n", 3, "at least 1"),
            ("name = \"x\"\n[grid]\nseeds = 1\nseeds = 2\n", 4, "duplicate key"),
            ("name = \"x\"\n[[faults]]\nloss = 2000\n", 3, "exceeds 1000"),
            ("name = \"x\"\n[[faults]]\njitter = 999\n", 3, "exceeds 255"),
            ("name = \"x\"\n[[faults]]\npartitions = [[0, 0]]\n", 3, "zero duration"),
            (
                "name = \"x\"\n[[faults]]\npartitions = [[0, 5], [2, 2]]\n",
                3,
                "overlap or are unsorted",
            ),
            ("name = \"x\"\n[[faults]]\npartitions = [[0, 1], [2, 1], [4, 1]]\n", 3, "at most 2"),
            ("name = \"x\"\n[[faults]]\ncrash_start = 3\n", 2, "given together"),
            ("name = \"x\"\n[[faults]]\ncrash_recovery = 3\n", 3, "without crash_party"),
            (
                "name = \"x\"\n[[faults]]\ncrash_party = \"L0\"\ncrash_start = 5\n\
                 crash_recovery = 5\n",
                5,
                "must be after its start",
            ),
            ("name = \"x\"\n[[faults]]\ncrash_party = \"Q7\"\ncrash_start = 1\n", 3, "L or R"),
            ("name = \"x\"\n[weather]\n", 2, "unknown table"),
            ("name = \"x\"\njust words\n", 2, "expected `key = value`"),
            ("name = \"x\"\n[grid]\nseeds = 1 extra\n", 3, "trailing content"),
            ("name = \"x\"\n[grid]\nsizes = [3\n", 3, "expected ',' or ']'"),
            ("name = \"x\"\n[grid]\nsizes = [03]\n", 3, "leading zeros"),
            ("name = \"x\"\nname = \"y\"\n", 2, "duplicate key name"),
            ("name = \"unterminated\n", 1, "unterminated string"),
            ("name = \"bad\\q\"\n", 1, "unsupported string escape"),
            ("name = \"x\"\n[[faults]]\n[grid]\nseeds = 1\n", 3, "before any [[faults]]"),
            ("name = \"x\"\n[grid]\n[grid]\n", 3, "duplicate [grid] table"),
            ("name = \"x\"\n[grid]\nsizes = [18446744073709551615]\n", 3, "exceeds the maximum"),
            ("name = \"x\"\n[grid]\nseeds = 1099511627776\n", 3, "more than 1048576 cells"),
        ] {
            let err = ScenarioFile::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
            assert!(err.to_string().contains(&format!("line {line}")), "{err}");
        }
        // The missing-name error is not tied to a line.
        let err = ScenarioFile::parse("[grid]\nseeds = 2\n").unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.to_string().contains("missing required key name"), "{err}");
    }

    #[test]
    fn comments_blank_lines_and_trailing_commas_are_tolerated() {
        let text = "# header\nname = \"x\"  # trailing\n\n[grid]\nsizes = [3, 4,]\n";
        let scenario = ScenarioFile::parse(text).unwrap();
        assert_eq!(scenario.sizes, [3, 4]);
    }

    #[test]
    fn fault_plans_reach_the_campaign_axis() {
        let text = "name = \"x\"\n\n[grid]\nadversaries = [\"crash\"]\nauth = \
                    [\"authenticated\"]\ntopologies = [\"fully-connected\"]\n\n[[faults]]\n\n\
                    [[faults]]\nloss = 100\n";
        let scenario = ScenarioFile::parse(text).unwrap();
        let campaign = scenario.campaign();
        assert_eq!(campaign.len(), 2, "one cell per fault plan");
        assert_eq!(campaign.specs()[0].faults, FaultSpec::NONE);
        assert_eq!(campaign.specs()[1].faults.loss_permille, 100);
    }

    #[test]
    fn load_reports_unreadable_files_at_line_zero() {
        let err = ScenarioFile::load(Path::new("/nonexistent/scenario.toml")).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.to_string().contains("cannot read"), "{err}");
    }
}
