//! Shared, engine-aware argument parsing for the experiment binaries.
//!
//! Every binary accepts the same small vocabulary, replacing the copy-pasted
//! `std::env::args()` handling they used to carry individually:
//!
//! * a positional integer — the market size `k` (at least 1),
//! * other positionals — file paths (e.g. shard exports for `campaign_ctl merge`),
//! * `--no-verify` — print analytic tables only, skip the empirical runs,
//! * `--threads N` — worker threads for the campaign engine (overrides `BSM_THREADS`),
//! * `--seeds N` — seeds per grid cell for seed-sweeping experiments,
//! * `--shard I/K` — run only shard `I` of `K` of the campaign (1-based),
//! * `--out DIR` — output directory for exported artifacts,
//! * `--smoke` — the small CI grid instead of the full sweep,
//! * `--scenario FILE` — load the campaign from a declarative scenario file
//!   (see `docs/SCENARIOS.md`); mutually exclusive with `--smoke`,
//! * `--metrics` — write the per-cell telemetry sidecar (`metrics.jsonl`) next to
//!   the report artifacts; never changes a report byte (see `campaign_ctl stats`),
//! * `--budget N` — fuzzing case budget for `campaign_ctl fuzz`,
//! * `--seed S` — master seed for `campaign_ctl fuzz` (default 0),
//! * `--replay FILE` — replay one frozen adversary script instead of searching,
//! * `--freeze` — write found (or replayed) scripts as canonical regression files
//!   (see `docs/FUZZING.md`),
//! * `--shards K` — worker-subprocess count for `campaign_ctl supervise`,
//! * `--max-attempts N` / `--backoff-ms MS` / `--poll-ms MS` / `--stall-polls N`
//!   — supervision tuning: bounded attempts per shard, exponential-backoff base,
//!   heartbeat poll interval, and the no-advance poll count that declares a
//!   worker stalled,
//! * `--chaos SPEC` — deterministic crash injection for the chaos tests:
//!   comma-separated `SHARD:ATTEMPT:MODE` entries (see
//!   [`bsm_engine::supervise::ChaosSpec`]).
//!
//! Each value flag may be given once; a repeat is collected in
//! [`BenchArgs::unknown`] like any other bad argument, never silently overriding the
//! first value.
//!
//! The vocabulary is deliberately shared across subcommands: `campaign_ctl resume`
//! takes the *same* `--smoke`/`--shard`/`--threads`/`--out` flags as the interrupted
//! `run` it finishes, so an operator (or `campaign_ctl supervise`) replays the
//! original invocation with only the subcommand swapped.

use bsm_engine::supervise::ChaosSpec;
use bsm_engine::{Executor, ShardPlan};
use std::fmt;
use std::path::PathBuf;

/// Parsed command-line arguments shared by the experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// The positional market size, when given (a `0` goes to [`unknown`](Self::unknown)).
    pub k: Option<usize>,
    /// `false` when `--no-verify` was passed.
    pub verify: bool,
    /// Worker-thread override from `--threads`.
    pub threads: Option<usize>,
    /// Seeds per cell from `--seeds` (default 1).
    pub seeds: u64,
    /// The shard to run from `--shard I/K` (1-based on the command line).
    pub shard: Option<ShardPlan>,
    /// Output directory from `--out`.
    pub out: Option<PathBuf>,
    /// `true` when `--smoke` was passed (run the small CI grid).
    pub smoke: bool,
    /// Scenario file from `--scenario` (a declarative campaign description; see
    /// `docs/SCENARIOS.md`).
    pub scenario: Option<PathBuf>,
    /// `true` when `--metrics` was passed (write the `metrics.jsonl` telemetry
    /// sidecar alongside the report artifacts).
    pub metrics: bool,
    /// Fuzzing case budget from `--budget` (`campaign_ctl fuzz`).
    pub budget: Option<u64>,
    /// Fuzzer master seed from `--seed` (`campaign_ctl fuzz`; default 0).
    pub seed: Option<u64>,
    /// Frozen script to replay from `--replay` (`campaign_ctl fuzz`).
    pub replay: Option<PathBuf>,
    /// `true` when `--freeze` was passed (write found/replayed scripts as canonical
    /// regression files).
    pub freeze: bool,
    /// Worker-subprocess count from `--shards` (`campaign_ctl supervise`).
    pub shards: Option<usize>,
    /// Deterministic crash-injection plan from `--chaos` (`campaign_ctl
    /// supervise`; see [`ChaosSpec`]).
    pub chaos: Option<ChaosSpec>,
    /// Bounded attempts per shard from `--max-attempts` (`campaign_ctl
    /// supervise`).
    pub max_attempts: Option<u32>,
    /// Exponential-backoff base in milliseconds from `--backoff-ms`
    /// (`campaign_ctl supervise`; 0 retries immediately).
    pub backoff_ms: Option<u64>,
    /// Heartbeat poll interval in milliseconds from `--poll-ms` (`campaign_ctl
    /// supervise`).
    pub poll_ms: Option<u64>,
    /// No-advance polls before a worker is declared stalled, from
    /// `--stall-polls` (`campaign_ctl supervise`).
    pub stall_polls: Option<u32>,
    /// Non-numeric positional arguments, in order (file paths for subcommands that
    /// consume exports, e.g. `campaign_ctl merge`/`diff`).
    pub files: Vec<String>,
    /// Arguments that were not recognized or repeated a value flag (reported, then
    /// ignored).
    pub unknown: Vec<String>,
}

/// The flags that take a value, space-separated. Each may appear once: a repeat
/// would otherwise silently override the first value.
const VALUE_FLAGS: &str = "--threads --seeds --shard --out --scenario --budget --seed --replay \
                           --shards --chaos --max-attempts --backoff-ms --poll-ms --stall-polls";

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            k: None,
            verify: true,
            threads: None,
            seeds: 1,
            shard: None,
            out: None,
            smoke: false,
            scenario: None,
            metrics: false,
            budget: None,
            seed: None,
            replay: None,
            freeze: false,
            shards: None,
            chaos: None,
            max_attempts: None,
            backoff_ms: None,
            poll_ms: None,
            stall_polls: None,
            files: Vec::new(),
            unknown: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments (skipping the binary name).
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable core of [`BenchArgs::parse`]).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut parsed = Self::default();
        let mut iter = args.into_iter().peekable();
        let mut seen = Vec::new();
        // The value of a `--flag VALUE` pair; never steals a following flag, so
        // `--threads --smoke` reports a missing value instead of swallowing `--smoke`.
        fn value(iter: &mut std::iter::Peekable<impl Iterator<Item = String>>) -> Option<String> {
            match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next(),
                _ => None,
            }
        }
        while let Some(arg) = iter.next() {
            if VALUE_FLAGS.split_whitespace().any(|flag| flag == arg) {
                if seen.contains(&arg) {
                    value(&mut iter);
                    parsed.unknown.push(format!("{arg} (given more than once)"));
                    continue;
                }
                seen.push(arg.clone());
            }
            match arg.as_str() {
                "--no-verify" => parsed.verify = false,
                "--threads" => match value(&mut iter).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => parsed.threads = Some(n),
                    _ => parsed.unknown.push("--threads (expects a positive integer)".into()),
                },
                "--seeds" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n > 0 => parsed.seeds = n,
                    _ => parsed.unknown.push("--seeds (expects a positive integer)".into()),
                },
                "--shard" => match value(&mut iter).map(|v| (v.parse::<ShardPlan>(), v)) {
                    Some((Ok(plan), _)) => parsed.shard = Some(plan),
                    Some((Err(err), v)) => parsed.unknown.push(format!("--shard {v} ({err})")),
                    None => parsed.unknown.push("--shard (expects I/K, e.g. 2/3)".into()),
                },
                "--out" => match value(&mut iter) {
                    Some(dir) => parsed.out = Some(PathBuf::from(dir)),
                    None => parsed.unknown.push("--out (expects a directory)".into()),
                },
                "--smoke" => parsed.smoke = true,
                "--scenario" => match value(&mut iter) {
                    Some(file) => parsed.scenario = Some(PathBuf::from(file)),
                    None => parsed.unknown.push("--scenario (expects a file)".into()),
                },
                "--metrics" => parsed.metrics = true,
                "--budget" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n > 0 => parsed.budget = Some(n),
                    _ => parsed.unknown.push("--budget (expects a positive integer)".into()),
                },
                "--seed" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) => parsed.seed = Some(n),
                    None => parsed.unknown.push("--seed (expects an integer)".into()),
                },
                "--replay" => match value(&mut iter) {
                    Some(file) => parsed.replay = Some(PathBuf::from(file)),
                    None => parsed.unknown.push("--replay (expects a script file)".into()),
                },
                "--freeze" => parsed.freeze = true,
                "--shards" => match value(&mut iter).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => parsed.shards = Some(n),
                    _ => parsed.unknown.push("--shards (expects a positive integer)".into()),
                },
                "--chaos" => match value(&mut iter).map(|v| (v.parse::<ChaosSpec>(), v)) {
                    Some((Ok(spec), _)) => parsed.chaos = Some(spec),
                    Some((Err(err), v)) => parsed.unknown.push(format!("--chaos {v} ({err})")),
                    None => {
                        parsed.unknown.push("--chaos (expects SHARD:ATTEMPT:MODE entries)".into());
                    }
                },
                "--max-attempts" => match value(&mut iter).and_then(|v| v.parse::<u32>().ok()) {
                    Some(n) if n > 0 => parsed.max_attempts = Some(n),
                    _ => parsed.unknown.push("--max-attempts (expects a positive integer)".into()),
                },
                "--backoff-ms" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(ms) => parsed.backoff_ms = Some(ms),
                    None => parsed.unknown.push("--backoff-ms (expects milliseconds)".into()),
                },
                "--poll-ms" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => parsed.poll_ms = Some(ms),
                    _ => parsed.unknown.push("--poll-ms (expects positive milliseconds)".into()),
                },
                "--stall-polls" => match value(&mut iter).and_then(|v| v.parse::<u32>().ok()) {
                    Some(n) if n > 0 => parsed.stall_polls = Some(n),
                    _ => parsed.unknown.push("--stall-polls (expects a positive integer)".into()),
                },
                other if other.starts_with("--") => parsed.unknown.push(other.to_string()),
                other => match other.parse::<usize>() {
                    Ok(0) => parsed.unknown.push("0 (the market size must be positive)".into()),
                    Ok(k) if parsed.k.is_none() => parsed.k = Some(k),
                    Ok(_) => parsed.unknown.push(other.to_string()),
                    Err(_) => parsed.files.push(other.to_string()),
                },
            }
        }
        parsed
    }

    /// The market size, falling back to `default` when no positional was given.
    pub fn k_or(&self, default: usize) -> usize {
        self.k.unwrap_or(default)
    }

    /// A campaign executor honoring `--threads` (and otherwise `BSM_THREADS` /
    /// available parallelism, per [`Executor::new`]).
    pub fn executor(&self) -> Executor {
        let executor = Executor::new();
        match self.threads {
            Some(n) => executor.threads(n),
            None => executor,
        }
    }

    /// Warns on stderr about unrecognized arguments; returns `self` for chaining.
    pub fn warn_unknown(self) -> Self {
        for arg in &self.unknown {
            eprintln!("warning: ignoring unrecognized argument: {arg}");
        }
        self
    }
}

impl fmt::Display for BenchArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k={:?} verify={} threads={:?} seeds={} shard={} smoke={} scenario={:?} metrics={} \
             budget={:?} seed={:?} replay={:?} freeze={} shards={:?} chaos={} \
             max_attempts={:?} backoff_ms={:?} poll_ms={:?} stall_polls={:?} files={}",
            self.k,
            self.verify,
            self.threads,
            self.seeds,
            self.shard.map_or_else(|| "none".to_string(), |p| p.to_string()),
            self.smoke,
            self.scenario,
            self.metrics,
            self.budget,
            self.seed,
            self.replay,
            self.freeze,
            self.shards,
            self.chaos.as_ref().map_or_else(|| "none".to_string(), |c| c.to_string()),
            self.max_attempts,
            self.backoff_ms,
            self.poll_ms,
            self.stall_polls,
            self.files.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn args(list: &[&str]) -> BenchArgs {
        BenchArgs::from_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_empty() {
        let parsed = args(&[]);
        assert_eq!(parsed, BenchArgs::default());
        assert_eq!(parsed.k_or(6), 6);
        assert!(parsed.verify);
    }

    #[test]
    fn positional_k_and_flags() {
        let parsed = args(&["5", "--no-verify", "--threads", "3", "--seeds", "10"]);
        assert_eq!(parsed.k, Some(5));
        assert_eq!(parsed.k_or(6), 5);
        assert!(!parsed.verify);
        assert_eq!(parsed.threads, Some(3));
        assert_eq!(parsed.seeds, 10);
        assert!(parsed.unknown.is_empty());
        assert_eq!(parsed.executor().thread_count(), 3);
    }

    #[test]
    fn flag_order_does_not_matter() {
        let a = args(&["--threads", "2", "4"]);
        let b = args(&["4", "--threads", "2"]);
        assert_eq!(a, b);
    }

    #[test]
    fn shard_out_smoke_stream_and_files_parse() {
        let parsed = args(&[
            "--shard",
            "2/3",
            "--out",
            "target/shards",
            "--smoke",
            "--metrics",
            "a.json",
            "b.json",
        ]);
        let plan = parsed.shard.expect("--shard 2/3 parses");
        assert_eq!((plan.index(), plan.count()), (1, 3));
        assert_eq!(parsed.out.as_deref(), Some(std::path::Path::new("target/shards")));
        assert!(parsed.smoke);
        assert_eq!(parsed.files, vec!["a.json".to_string(), "b.json".to_string()]);
        assert!(parsed.unknown.is_empty());
        assert!(parsed.metrics);
        assert!(parsed.to_string().contains("shard=2/3"));
        assert!(parsed.to_string().contains("metrics=true"));
        // Every run streams; the old opt-in flag is now an unknown argument.
        assert_eq!(args(&["--stream"]).unknown, vec!["--stream".to_string()]);
        assert!(!args(&[]).metrics, "--metrics must be off by default");
    }

    #[test]
    fn scenario_flag_takes_a_file() {
        let parsed = args(&["--scenario", "examples/scenarios/partition_heal.toml"]);
        assert_eq!(
            parsed.scenario.as_deref(),
            Some(std::path::Path::new("examples/scenarios/partition_heal.toml"))
        );
        assert!(parsed.unknown.is_empty());
        assert!(parsed.to_string().contains("partition_heal.toml"));
        assert_eq!(args(&["--scenario"]).unknown.len(), 1);
        assert_eq!(args(&["--scenario", "--smoke"]).scenario, None);
    }

    #[test]
    fn bad_shard_specs_are_collected_not_fatal() {
        for bad in [&["--shard", "0/3"][..], &["--shard", "4/3"], &["--shard", "x"], &["--shard"]] {
            let parsed = args(bad);
            assert_eq!(parsed.shard, None, "{bad:?}");
            assert_eq!(parsed.unknown.len(), 1, "{bad:?}");
        }
        assert_eq!(args(&["--out"]).unknown.len(), 1);
    }

    #[test]
    fn a_flag_never_swallows_a_following_flag_as_its_value() {
        let parsed = args(&["--threads", "--smoke", "--out", "--no-verify"]);
        assert_eq!(parsed.threads, None);
        assert!(parsed.smoke, "--smoke must survive a missing --threads value");
        assert_eq!(parsed.out, None);
        assert!(!parsed.verify, "--no-verify must survive a missing --out value");
        assert_eq!(parsed.unknown.len(), 2, "{:?}", parsed.unknown);
        let parsed = args(&["--shard", "--smoke"]);
        assert_eq!(parsed.shard, None);
        assert!(parsed.smoke);
    }

    #[test]
    fn fuzz_flags_parse() {
        let parsed = args(&["--budget", "200", "--seed", "1", "--freeze"]);
        assert_eq!(parsed.budget, Some(200));
        assert_eq!(parsed.seed, Some(1));
        assert!(parsed.freeze);
        assert!(parsed.unknown.is_empty());
        assert!(parsed.to_string().contains("budget=Some(200)"));
        let replay = args(&["--replay", "crates/core/tests/fuzz_regressions/x.toml"]);
        assert_eq!(
            replay.replay.as_deref(),
            Some(std::path::Path::new("crates/core/tests/fuzz_regressions/x.toml"))
        );
        let defaults = args(&[]);
        assert_eq!(defaults.budget, None);
        assert_eq!(defaults.seed, None);
        assert_eq!(defaults.replay, None);
        assert!(!defaults.freeze);
        // Seed 0 is a legal explicit value, budget 0 is not.
        assert_eq!(args(&["--seed", "0"]).seed, Some(0));
        assert_eq!(args(&["--budget", "0"]).unknown.len(), 1);
        // Missing values are collected, never stolen from a following flag.
        assert_eq!(args(&["--budget", "--freeze"]).budget, None);
        assert!(args(&["--budget", "--freeze"]).freeze);
        assert_eq!(args(&["--seed"]).unknown.len(), 1);
        assert_eq!(args(&["--replay", "--freeze"]).replay, None);
    }

    #[test]
    fn supervise_flags_parse() {
        let parsed = args(&[
            "--shards",
            "3",
            "--chaos",
            "2:1:torn7,3:1:early",
            "--max-attempts",
            "2",
            "--backoff-ms",
            "0",
            "--poll-ms",
            "25",
            "--stall-polls",
            "8",
        ]);
        assert_eq!(parsed.shards, Some(3));
        let chaos = parsed.chaos.as_ref().expect("--chaos parses");
        assert_eq!(chaos.to_string(), "2:1:torn7,3:1:early");
        assert_eq!(parsed.max_attempts, Some(2));
        assert_eq!(parsed.backoff_ms, Some(0), "--backoff-ms 0 is legal (retry immediately)");
        assert_eq!(parsed.poll_ms, Some(25));
        assert_eq!(parsed.stall_polls, Some(8));
        assert!(parsed.unknown.is_empty());
        assert!(parsed.to_string().contains("shards=Some(3)"));
        assert!(parsed.to_string().contains("chaos=2:1:torn7,3:1:early"));
        let defaults = args(&[]);
        assert_eq!(defaults.shards, None);
        assert_eq!(defaults.chaos, None);
        assert_eq!(defaults.max_attempts, None);
        assert_eq!(defaults.backoff_ms, None);
        assert_eq!(defaults.poll_ms, None);
        assert_eq!(defaults.stall_polls, None);
        // Bad values are collected, never fatal, never stealing a following flag.
        assert_eq!(args(&["--shards", "0"]).unknown.len(), 1);
        assert_eq!(args(&["--chaos", "2:0:early"]).unknown.len(), 1);
        assert_eq!(args(&["--chaos", "nonsense"]).unknown.len(), 1);
        assert_eq!(args(&["--max-attempts", "0"]).unknown.len(), 1);
        assert_eq!(args(&["--poll-ms", "0"]).unknown.len(), 1);
        assert_eq!(args(&["--stall-polls", "0"]).unknown.len(), 1);
        let starved = args(&["--shards", "--smoke"]);
        assert_eq!(starved.shards, None);
        assert!(starved.smoke);
    }

    #[test]
    fn repeated_value_flags_are_collected_not_overridden() {
        let parsed = args(&["--smoke", "--shard", "1/3", "--shard", "2/3"]);
        let plan = parsed.shard.expect("the first --shard stands");
        assert_eq!((plan.index(), plan.count()), (0, 3));
        assert_eq!(parsed.unknown, vec!["--shard (given more than once)".to_string()]);
        assert!(parsed.files.is_empty(), "the repeat's value is consumed with it");
        for flag in VALUE_FLAGS.split_whitespace() {
            let parsed = args(&[flag, "1", flag, "1"]);
            assert!(parsed.unknown.contains(&format!("{flag} (given more than once)")), "{flag}");
        }
        // Switches carry no value to override; repeating one is harmless.
        assert!(args(&["--smoke", "--smoke"]).unknown.is_empty());
    }

    /// Argument vectors drawn from the flag vocabulary, plausible values and junk.
    struct Argv;

    impl Strategy for Argv {
        type Value = Vec<String>;

        fn generate(&self, rng: &mut TestRng) -> Vec<String> {
            const VALUES: [&str; 12] = [
                "0",
                "1",
                "3",
                "2/3",
                "0/3",
                "4/3",
                "x",
                "",
                "-1",
                "18446744073709551616",
                "a.json",
                "2:1:torn7",
            ];
            const SWITCHES: [&str; 5] = ["--smoke", "--metrics", "--freeze", "--no-verify", "--"];
            (0..rng.random_range(0..12usize))
                .map(|_| match rng.random_range(0..4u8) {
                    0 => {
                        let flags: Vec<&str> = VALUE_FLAGS.split_whitespace().collect();
                        flags[rng.random_range(0..flags.len())].to_string()
                    }
                    1 => SWITCHES[rng.random_range(0..SWITCHES.len())].to_string(),
                    2 => VALUES[rng.random_range(0..VALUES.len())].to_string(),
                    _ => (0..rng.random_range(0..6usize))
                        .map(|_| char::from(rng.random_range(0x20..0x7fu8)))
                        .collect(),
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn parsing_never_panics_and_every_value_flag_holds_at_most_one_value(argv in Argv) {
            let parsed = BenchArgs::from_args(argv.clone());
            for flag in VALUE_FLAGS.split_whitespace() {
                let given = argv.iter().filter(|arg| *arg == flag).count();
                let repeats = parsed.unknown.iter().filter(|u| u.starts_with(&format!("{flag} (given"))).count();
                prop_assert_eq!(repeats, given.saturating_sub(1));
            }
        }
    }

    #[test]
    fn bad_values_and_extras_are_collected() {
        let parsed = args(&["--threads", "zero", "--seeds", "0", "3", "7", "--wat"]);
        assert_eq!(parsed.k, Some(3));
        assert_eq!(parsed.threads, None);
        assert_eq!(parsed.seeds, 1);
        // second positional + bad --threads + bad --seeds + unknown flag
        assert_eq!(parsed.unknown.len(), 4);
        // A zero market size is a bad argument too: the binary falls back to its
        // default instead of building an empty market, and a later size still counts.
        let zero = args(&["0", "--no-verify"]);
        assert_eq!(zero.k, None);
        assert_eq!(zero.k_or(6), 6);
        assert_eq!(zero.unknown.len(), 1);
        assert_eq!(args(&["0", "4"]).k, Some(4));
        // warn_unknown only logs; parsing results are unchanged.
        let warned = parsed.clone().warn_unknown();
        assert_eq!(warned, parsed);
        assert!(!parsed.to_string().is_empty());
    }
}
