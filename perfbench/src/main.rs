//! Campaign benchmark of the Byzantine-stable-matching workspace.
//!
//! ```text
//! perfbench --workload <ds_mesh|relay_unauth|report_io|fuzz_search> --seed N --seconds S --trace 0|1
//! perfbench --self-test
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of standard output
//! is one JSON object carrying every end-to-end metric of `BENCHMARK.json`; with
//! `--trace 1` it carries every per-layer metric instead, taken from spans the
//! benchmark records around its calls into each crate. Any failed correctness check
//! makes the object say `"correct": false` and the process exit 1.
//! `--self-test` runs every workload at a tiny size in both modes and checks that
//! each metric `BENCHMARK.json` names is printed with its unit.

mod baseline;
mod layers;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Config, WORKLOADS};

/// The layers a span can belong to: the benchmark's own loop, then the crates.
pub const LAYERS: [&str; 6] = ["bench", "broadcast", "core", "cryptosim", "engine", "matching"];

/// Scratch space for report files and spans, inside the checkout.
const WORK_DIR: &str = ".bench_work";

/// What one run measured and checked.
#[derive(Default)]
pub struct Output {
    metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
    /// Operations whose outcome was checked: cells, merges, diffs, fuzz cases.
    pub attempted: u64,
    /// One entry per failed check; each counts as one failed operation.
    pub problems: Vec<String>,
}

impl Output {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// Prints a workload-specific figure (the median of its per-pass values, with
    /// their range) for people, and returns the median.
    pub fn note(&mut self, workload: &str, name: &str, per_pass: &[f64], unit: &str) -> f64 {
        let median = trace::median(per_pass);
        let min = per_pass.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_pass.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.notes.push(format!(
            "[{workload}] {name} = {median:.3} {unit} (median of {} passes; min {min:.3}, max {max:.3})",
            per_pass.len()
        ));
        median
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.problems.len()
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: baseline::DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(parsed)
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Runs one workload in a fresh scratch directory and removes it afterwards.
fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool, tiny: bool) -> Output {
    let mut out = Output::default();
    let dir = PathBuf::from(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
    let config = Config { seed, seconds, trace, tiny, dir: dir.clone() };
    let result = std::fs::create_dir_all(&dir)
        .map_err(|err| format!("cannot create {}: {err}", dir.display()))
        .and_then(|()| workloads::run(workload, &config, &mut out));
    if let Err(err) = result {
        out.problems.push(err);
    }
    if !trace {
        match peak_rss_mib() {
            Ok(mib) => out.metric("peak_rss_mb", mib, "MiB"),
            Err(err) => out.problems.push(err),
        }
    }
    if let Err(err) = std::fs::remove_dir_all(&dir) {
        out.problems.push(format!("cannot remove {}: {err}", dir.display()));
    }
    // Left in place when a traced run has written spans into it.
    let _ = std::fs::remove_dir(WORK_DIR);
    for (name, value, _) in &out.metrics {
        if !value.is_finite() {
            out.problems.push(format!("metric {name} is not a finite number"));
        }
    }
    out.metrics.iter_mut().filter(|m| !m.1.is_finite()).for_each(|m| m.1 = 0.0);
    out
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared_metrics(text: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let start =
        text.find(&format!("\"{section}\"")).ok_or(format!("no {section} in BENCHMARK.json"))?;
    let body = &text[start..];
    let body = &body[body.find('[').ok_or("malformed BENCHMARK.json")?..];
    let body = &body[..body.find(']').ok_or("malformed BENCHMARK.json")?];
    let string_after = |object: &str, key: &str| {
        let rest = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|object| {
            string_after(object, "name")
                .zip(string_after(object, "unit"))
                .ok_or(format!("a {section} entry lacks a name or unit"))
        })
        .collect()
}

/// Every workload at a tiny size, untraced and traced: each must pass its checks and
/// print exactly the metrics `BENCHMARK.json` declares for its mode, with their units.
fn self_test() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|err| {
        format!("cannot read BENCHMARK.json (run from the repository root): {err}")
    })?;
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let mut declared = declared_metrics(&text, section)?;
        declared.sort();
        for workload in WORKLOADS {
            if !text.contains(&format!("\"name\": \"{workload}\"")) {
                return Err(format!("BENCHMARK.json does not list workload {workload}"));
            }
            let out = run_workload(workload, baseline::DEFAULT_SEED, 0.0, trace, true);
            if !out.problems.is_empty() {
                return Err(format!("{workload} (trace {trace}): {}", out.problems.join("; ")));
            }
            let mut printed: Vec<(String, String)> =
                out.metrics.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
            printed.sort();
            if printed != declared {
                return Err(format!(
                    "{workload} (trace {trace}) printed {printed:?}, BENCHMARK.json declares {declared:?}"
                ));
            }
            println!(
                "self-test: {workload} trace={} printed all {} {section} metric(s)",
                trace as u8,
                declared.len()
            );
        }
    }
    Ok(())
}

/// `--report-setup --seed N --dir D [--tiny]`: report_io's set-up, which the
/// report_io workload runs as a child process of its own.
fn report_setup_main(args: &[String]) -> ExitCode {
    let value = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let seed = value("--seed").and_then(|s| s.parse().ok());
    let (Some(seed), Some(dir)) = (seed, value("--dir")) else {
        eprintln!("perfbench --report-setup needs --seed N and --dir D");
        return ExitCode::from(2);
    };
    match workloads::report_setup(seed, args.iter().any(|a| a == "--tiny"), Path::new(dir)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--report-setup") {
        return report_setup_main(&args[1..]);
    }
    if args.iter().any(|a| a == "--self-test") {
        return match self_test() {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("self-test FAILED: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("BENCHMARK.json").is_file() {
        eprintln!("perfbench: run from the repository root (no BENCHMARK.json here)");
        return ExitCode::from(2);
    }
    let out = run_workload(&args.workload, args.seed, args.seconds, args.trace, false);
    println!(
        "[{}] seed {} (held-out seed for gain claims: {})",
        args.workload,
        args.seed,
        baseline::HELD_OUT_SEED
    );
    for note in &out.notes {
        println!("{note}");
    }
    for (name, value, unit) in &out.metrics {
        println!("[{}] {name} = {value} {unit}", args.workload);
    }
    let failed_frac = out.problems.len() as f64 / out.attempted.max(1) as f64;
    println!(
        "[{}] failed_frac = {failed_frac} ratio ({} failed of {} attempted)",
        args.workload,
        out.problems.len(),
        out.attempted.max(1)
    );
    for problem in &out.problems {
        eprintln!("[{}] CHECK FAILED: {problem}", args.workload);
    }
    println!("{}", out.json());
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
