//! The four workloads, each run in its own process with one executor worker.
//!
//! Every workload builds its inputs from the benchmark's `--seed` (the program only
//! ever receives the built campaign or fuzz configuration), sets up, then repeats
//! closed-loop passes for `--seconds` and reports medians over the passes. See
//! `perfbench/README.md` for why each workload exists.

use crate::baseline;
use crate::layers::{self, Counters, ReportFiles};
use crate::trace::{median, median_u64, tail, Tracer};
use crate::Output;
use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_core::solvability::is_solvable;
use bsm_engine::{run_fuzz, Campaign, CampaignBuilder, Executor, FuzzConfig, ScenarioSpec};
use bsm_net::{FaultSpec, Topology};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Names accepted by `--workload`, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["ds_mesh", "relay_unauth", "report_io", "fuzz_search"];

/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Read passes and probe repetitions made after the timed phase of a traced run.
const TRACE_READ_PASSES: u64 = 3;
const TRACE_PROBE_REPS: usize = 9;

/// How one process runs its workload.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test sizes: every workload at a few cells or cases.
    pub tiny: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub dir: PathBuf,
}

/// Seeds `seed * n .. seed * n + n`, so distinct benchmark seeds never share a cell.
fn seed_range(seed: u64, n: u64) -> Result<std::ops::Range<u64>, String> {
    let start = seed.checked_mul(n).filter(|s| s.checked_add(n).is_some());
    start.map(|s| s..s + n).ok_or_else(|| format!("--seed {seed} is too large"))
}

/// ds_mesh: authenticated full mesh, so every cell runs Dolev–Strong. At seed 0
/// this is exactly the grid of the committed `BENCH_engine.json`.
fn ds_mesh_campaign(seeds: std::ops::Range<u64>, tiny: bool) -> Campaign {
    let builder = CampaignBuilder::new()
        .topologies([Topology::FullyConnected])
        .auth_modes([AuthMode::Authenticated])
        .adversaries(AdversarySpec::ALL)
        .seeds(seeds);
    match tiny {
        true => builder.sizes([4]).corruptions([(1, 1)]).build(),
        false => builder.sizes([10, 12, 14]).corruptions([(4, 4), (5, 5)]).build(),
    }
}

/// relay_unauth: unauthenticated bipartite and one-sided cells, solvable ones only,
/// so every cell runs committee broadcast over the Lemma 6 majority relay.
fn relay_campaign(seeds: std::ops::Range<u64>, tiny: bool) -> Campaign {
    let builder = CampaignBuilder::new()
        .topologies([Topology::Bipartite, Topology::OneSided])
        .auth_modes([AuthMode::Unauthenticated])
        .adversaries(AdversarySpec::ALL)
        .seeds(seeds);
    let full = match tiny {
        true => builder.sizes([5]).corruptions([(1, 1)]).build(),
        false => builder.sizes([5, 6, 7]).corruptions([(1, 1), (2, 2)]).build(),
    };
    let solvable = full
        .specs()
        .iter()
        .filter(|spec| spec.setting().is_ok_and(|setting| is_solvable(&setting)))
        .copied()
        .collect();
    Campaign::from_specs(solvable)
}

/// report_io: the default `campaign_ctl run` grid (every topology, auth mode and
/// record shape, unsolvable cells included), or its smoke grid when tiny.
fn default_grid(seeds: std::ops::Range<u64>, tiny: bool) -> Campaign {
    let builder = CampaignBuilder::new().adversaries(AdversarySpec::ALL).seeds(seeds);
    match tiny {
        true => builder.sizes([3]).corruptions([(0, 0), (1, 1)]).build(),
        false => builder.sizes([3, 4, 5]).corruptions([(0, 0), (0, 1), (1, 0), (1, 1)]).build(),
    }
}

/// Seeds per pass: enough cells that one pass takes a few hundred milliseconds.
const DS_MESH_SEEDS: u64 = 4;
const RELAY_SEEDS: u64 = 2;
const GRID_SEEDS: u64 = 5;
/// Fuzz seed streams per pass and the case budget of each. The work of a fuzz case
/// depends heavily on its seed, so every pass fuzzes fresh streams and the run's
/// median averages over thousands of cases; `FUZZ_SPAN` streams belong to each
/// benchmark seed.
const FUZZ_STREAMS: u64 = 8;
const FUZZ_BUDGET: u64 = 40;
const FUZZ_SPAN: u64 = 1 << 16;
/// Passes that set-up fuzzes as the reference the first timed passes must
/// reproduce; several, so that set-up time does not hinge on one case mix.
const FUZZ_REFERENCE_PASSES: u64 = 4;

pub fn run(workload: &str, config: &Config, out: &mut Output) -> Result<(), String> {
    let tiny_seeds = |n: u64| if config.tiny { 1 } else { n };
    match workload {
        "ds_mesh" => {
            let seeds = seed_range(config.seed, tiny_seeds(DS_MESH_SEEDS))?;
            campaign_workload(workload, config, out, || {
                ds_mesh_campaign(seeds.clone(), config.tiny)
            })?;
            if !config.trace {
                bench_engine_cross_check(config, out)?;
            }
            Ok(())
        }
        "relay_unauth" => {
            let seeds = seed_range(config.seed, tiny_seeds(RELAY_SEEDS))?;
            campaign_workload(workload, config, out, || relay_campaign(seeds.clone(), config.tiny))
        }
        "report_io" => report_workload(config, out),
        "fuzz_search" => {
            let budget = if config.tiny { 4 } else { FUZZ_BUDGET };
            let streams = tiny_seeds(FUZZ_STREAMS);
            // Pass i fuzzes its own seed streams; the first pass span is checked here.
            seed_range(config.seed, FUZZ_SPAN)?;
            let pass_streams = |pass: u64| -> Vec<FuzzConfig> {
                let first = config.seed * FUZZ_SPAN + (pass % (FUZZ_SPAN / streams)) * streams;
                (first..first + streams).map(|seed| FuzzConfig { budget, seed }).collect()
            };
            fuzz_workload(config, out, pass_streams)
        }
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}

/// Repeats `pass` until `seconds` have elapsed, at least twice.
fn timed<T>(
    seconds: f64,
    mut pass: impl FnMut(u64) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut results = Vec::new();
    while results.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        results.push(pass(results.len() as u64)?);
    }
    Ok(results)
}

fn one_worker() -> Executor {
    Executor::new().threads(1)
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|err| format!("cannot read {}: {err}", path.display()))
}

/// Operations done and wall seconds taken by one timed pass.
#[derive(Debug, Clone, Copy)]
struct Sample {
    ops: f64,
    secs: f64,
}

impl Sample {
    fn rate(&self) -> f64 {
        self.ops / self.secs
    }
}

fn rates(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::rate).collect()
}

/// Operations per second over several passes: total operations over total time.
fn aggregate_rate<'a>(samples: impl Iterator<Item = &'a Sample>) -> f64 {
    let (ops, secs) = samples.fold((0.0, 0.0), |(o, s), x| (o + x.ops, s + x.secs));
    ops / secs
}

/// `trace.overhead_frac` of a traced run, whose even passes are untraced and odd
/// passes traced.
fn overhead(samples: &[Sample]) -> f64 {
    let side = |parity| aggregate_rate(samples.iter().skip(parity).step_by(2));
    1.0 - side(1) / side(0)
}

/// ds_mesh and relay_unauth: cells streamed to `report.jsonl` by one worker.
fn campaign_workload(
    workload: &str,
    config: &Config,
    out: &mut Output,
    build: impl Fn() -> Campaign,
) -> Result<(), String> {
    let executor = one_worker();
    let jsonl = config.dir.join("report.jsonl");
    let reps = if config.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut reference: Option<(Vec<u8>, Counters)> = None;
    let mut campaign = None;
    for _ in 0..reps {
        let start = Instant::now();
        let campaign = campaign.insert(build());
        let pass =
            layers::executor_pass(&executor, campaign, &config.dir, false, &mut out.problems)?;
        let bytes = read(&jsonl)?;
        setup.push(start.elapsed().as_secs_f64());
        out.attempted += campaign.len() as u64;
        if reference.as_ref().is_some_and(|(first, _)| *first != bytes) {
            out.problems.push("set-up passes exported different report bytes".into());
        }
        reference.get_or_insert((bytes, pass.counters));
    }
    let (reference, counters) = reference.expect("at least one set-up pass");
    let campaign = campaign.expect("at least one set-up pass");
    let cells = campaign.len() as f64;
    let mut tracer = Tracer::new(config.trace);
    let mut traced: Option<(Counters, Vec<bsm_engine::CellRecord>)> = None;
    let samples = timed(config.seconds, |i| {
        let pass = if config.trace && i % 2 == 1 {
            let (pass, records) =
                layers::replay_pass(&mut tracer, &campaign, &config.dir, false, &mut out.problems)?;
            traced.get_or_insert((pass.counters, records));
            pass
        } else {
            layers::executor_pass(&executor, &campaign, &config.dir, false, &mut out.problems)?
        };
        out.attempted += campaign.len() as u64;
        if read(&jsonl)? != reference {
            out.problems.push(format!("pass {i} exported bytes that differ from set-up's"));
        }
        Ok(Sample { ops: cells, secs: pass.elapsed.as_secs_f64() })
    })?;
    let bytes_per_cell = reference.len() as f64 / cells;
    if config.trace {
        let (counters, records) = traced.expect("a traced run makes at least one traced pass");
        let files = ReportFiles::write(&config.dir, records)?;
        let summary =
            TraceInputs { counters, bytes_per_cell, fuzz: None, overhead: overhead(&samples) };
        return traced_layers(workload, config, out, &mut tracer, &files, summary);
    }
    let ops = out.note(workload, "cells_per_s", &rates(&samples), "cells/s");
    out.metric("ops_per_s", ops, "ops/s");
    out.metric("setup_s", median(&setup), "s");
    baseline::check_drift(workload, config, &counters, out);
    Ok(())
}

fn report_grid(seed: u64, tiny: bool) -> Result<Campaign, String> {
    Ok(default_grid(seed_range(seed, if tiny { 1 } else { GRID_SEEDS })?, tiny))
}

/// report_io's set-up, run as `--report-setup --seed N --dir D [--tiny]` in a
/// process of its own: it runs the default grid once, streamed to `report.jsonl`,
/// and writes the shard exports and the single-process `report.json`. Returns the
/// lines the parent reads: the cell count, the counters, one line per failed check.
pub fn report_setup(seed: u64, tiny: bool, dir: &Path) -> Result<String, String> {
    let campaign = report_grid(seed, tiny)?;
    let mut problems = Vec::new();
    let (pass, records) =
        layers::replay_pass(&mut Tracer::new(false), &campaign, dir, true, &mut problems)?;
    let files = ReportFiles::write(dir, records)?;
    let counters = baseline::counter_values(&pass.counters).map(|(name, v)| format!("{name}={v}"));
    let mut text = format!("cells {}\n{}\n", files.cells, counters.join(" "));
    problems.iter().for_each(|problem| text.push_str(&format!("problem {problem}\n")));
    Ok(text)
}

fn parse_counters(line: &str) -> Option<Counters> {
    let mut counters = Counters::default();
    for word in line.split_whitespace() {
        let (name, value) = word.split_once('=')?;
        let value = value.parse().ok()?;
        match name {
            "messages" => counters.messages = value,
            "slots" => counters.slots = value,
            "signatures_issued" => counters.signatures_issued = value,
            "signatures_verified" => counters.crypto.signatures_verified = value,
            "digests_computed" => counters.crypto.digests_computed = value,
            "verify_cache_hits" => counters.crypto.verify_cache_hits = value,
            _ => return None,
        }
    }
    Some(counters)
}

/// Runs [`report_setup`] in a child process and waits for it; returns the cell count
/// and counters it reports and adds its failed checks to `out`.
fn spawn_report_setup(config: &Config, out: &mut Output) -> Result<(usize, Counters), String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find this binary: {err}"))?;
    let mut command = std::process::Command::new(exe);
    command.arg("--report-setup").arg("--seed").arg(config.seed.to_string());
    command.arg("--dir").arg(&config.dir);
    if config.tiny {
        command.arg("--tiny");
    }
    let child = command.output().map_err(|err| format!("cannot run report_io set-up: {err}"))?;
    if !child.status.success() {
        let stderr = String::from_utf8_lossy(&child.stderr);
        return Err(format!("report_io set-up failed ({}): {}", child.status, stderr.trim()));
    }
    let stdout = String::from_utf8_lossy(&child.stdout);
    let mut lines = stdout.lines();
    let cells = lines.next().and_then(|l| l.strip_prefix("cells ")?.parse().ok());
    let counters = lines.next().and_then(parse_counters);
    let (Some(cells), Some(counters)) = (cells, counters) else {
        return Err(format!("unreadable report_io set-up output: {stdout}"));
    };
    out.problems.extend(lines.filter_map(|l| l.strip_prefix("problem ")).map(str::to_string));
    Ok((cells, counters))
}

/// report_io: the timed passes are only the coordinator's reads.
///
/// Set-up runs in a child process, as shard workers and the coordinator are
/// separate processes: the read passes start from a clean heap, and
/// `peak_rss_mb` is the coordinator's. (Set up in this process, the leftover heap
/// slowed the read passes by a third and made their peak RSS vary by 14%.)
fn report_workload(config: &Config, out: &mut Output) -> Result<(), String> {
    let reps = if config.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut prepared: Option<(usize, Counters, Vec<u8>)> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let (cells, counters) = spawn_report_setup(config, out)?;
        setup.push(start.elapsed().as_secs_f64());
        out.attempted += cells as u64;
        let bytes = read(&config.dir.join("report.jsonl"))?;
        if prepared.as_ref().is_some_and(|(_, _, first)| *first != bytes) {
            out.problems.push("set-up passes exported different report bytes".into());
        }
        prepared = Some((cells, counters, bytes));
    }
    let (cells, counters, reference) = prepared.expect("at least one set-up pass");
    let files = ReportFiles::in_dir(&config.dir, cells);
    let mut tracer = Tracer::new(config.trace);
    let passes = timed(config.seconds, |i| {
        let mut pass_tracer = Tracer::new(false);
        let tracer = if config.trace && i % 2 == 1 { &mut tracer } else { &mut pass_tracer };
        let read = layers::read_pass(tracer, i, &files, &mut out.problems)?;
        out.attempted += 2;
        Ok(read)
    })?;
    let sample = |d: std::time::Duration| Sample { ops: cells as f64, secs: d.as_secs_f64() };
    let samples: Vec<Sample> = passes.iter().map(|p| sample(p.merge + p.diff)).collect();
    if config.trace {
        // The cell-path spans come from replaying the grid here, after the reads.
        let replay_dir = config.dir.join("replay");
        std::fs::create_dir_all(&replay_dir).map_err(|err| format!("{err}"))?;
        let campaign = report_grid(config.seed, config.tiny)?;
        let (pass, _) =
            layers::replay_pass(&mut tracer, &campaign, &replay_dir, true, &mut out.problems)?;
        out.attempted += campaign.len() as u64;
        if read(&replay_dir.join("report.jsonl"))? != reference {
            out.problems.push("the traced replay exported bytes that differ from set-up's".into());
        }
        let bytes_per_cell = reference.len() as f64 / cells as f64;
        let summary = TraceInputs {
            counters: pass.counters,
            bytes_per_cell,
            fuzz: None,
            overhead: overhead(&samples),
        };
        return traced_layers("report_io", config, out, &mut tracer, &files, summary);
    }
    let merge: Vec<f64> = passes.iter().map(|p| sample(p.merge).rate()).collect();
    let diff: Vec<f64> = passes.iter().map(|p| sample(p.diff).rate()).collect();
    out.note("report_io", "merge_cells_per_s", &merge, "cells/s");
    out.note("report_io", "diff_cells_per_s", &diff, "cells/s");
    let ops = out.note("report_io", "read_cells_per_s", &rates(&samples), "cells/s");
    out.metric("ops_per_s", ops, "ops/s");
    out.metric("setup_s", median(&setup), "s");
    baseline::check_drift("report_io", config, &counters, out);
    Ok(())
}

/// Sums `slots=` and `messages=` over the per-case lines of a fuzz log, and turns
/// each case's setting into a campaign cell (adversaries taken in turn) for the
/// traced run's cell-path replay.
fn parse_fuzz_log(log: &str) -> Result<(u64, u64, Vec<ScenarioSpec>), String> {
    let (mut slots, mut messages, mut specs) = (0, 0, Vec::new());
    for line in log.lines().filter(|l| l.starts_with("case ")) {
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|word| word.strip_prefix(key))
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("fuzz log line without {key}: {line}"))
        };
        let words: Vec<&str> = line.split_whitespace().collect();
        let topology = Topology::ALL.into_iter().find(|t| words.get(3) == Some(&t.name()));
        let auth = AuthMode::ALL.into_iter().find(|a| words.get(4) == Some(&a.name()));
        let (Some(topology), Some(auth)) = (topology, auth) else {
            return Err(format!("fuzz log line without a setting: {line}"));
        };
        slots += field("slots=")?;
        messages += field("messages=")?;
        let case = words.get(1).and_then(|w| w.parse::<u64>().ok());
        let case = case.ok_or_else(|| format!("fuzz log line without a case number: {line}"))?;
        specs.push(ScenarioSpec {
            k: field("k=")? as usize,
            topology,
            auth,
            t_l: field("tL=")? as usize,
            t_r: field("tR=")? as usize,
            adversary: AdversarySpec::ALL[(case % 3) as usize],
            faults: FaultSpec::NONE,
            seed: field("seed=")?,
        });
    }
    Ok((slots, messages, specs))
}

/// One fuzz pass: `run_fuzz` on every stream, logs concatenated in stream order.
struct FuzzPass {
    cases: u64,
    log: String,
    violations: Vec<String>,
}

fn fuzz_pass(tracer: &mut Tracer, streams: &[FuzzConfig]) -> FuzzPass {
    let mut pass = FuzzPass { cases: 0, log: String::new(), violations: Vec::new() };
    for (i, stream) in streams.iter().enumerate() {
        let report = tracer.time("engine.fuzz.run_fuzz", i as u64, || run_fuzz(stream));
        pass.cases += report.cases;
        pass.log.push_str(&report.log);
        pass.violations.extend(report.violations.iter().map(|found| {
            format!("fuzz seed {} case {}: violation {}", stream.seed, found.case, found.signature)
        }));
    }
    pass
}

/// fuzz_search: `run_fuzz` on independent seed streams with a fixed budget each.
/// Every pass must find no violation, and the first timed passes must reproduce
/// the set-up's logs byte for byte.
fn fuzz_workload(
    config: &Config,
    out: &mut Output,
    streams: impl Fn(u64) -> Vec<FuzzConfig>,
) -> Result<(), String> {
    let reps = if config.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut reference: Option<(Vec<String>, Counters, u64)> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let before = bsm_crypto::counters::snapshot();
        let passes: Vec<FuzzPass> = (0..FUZZ_REFERENCE_PASSES)
            .map(|pass| fuzz_pass(&mut Tracer::new(false), &streams(pass)))
            .collect();
        let crypto = bsm_crypto::counters::snapshot() - before;
        setup.push(start.elapsed().as_secs_f64());
        let mut violations = 0;
        let mut logs = Vec::new();
        for pass in passes {
            out.attempted += pass.cases;
            violations += pass.violations.len() as u64;
            out.problems.extend(pass.violations);
            logs.push(pass.log);
        }
        let (slots, messages, _) = parse_fuzz_log(&logs.concat())?;
        let counters = Counters { slots, messages, crypto, ..Counters::default() };
        if reference.as_ref().is_some_and(|(first, _, _)| *first != logs) {
            out.problems.push("set-up passes wrote different fuzz logs".into());
        }
        reference.get_or_insert((logs, counters, violations));
    }
    let (logs, counters, violations) = reference.expect("at least one set-up pass");
    let mut tracer = Tracer::new(config.trace);
    let samples = timed(config.seconds, |i| {
        let mut untraced = Tracer::new(false);
        let tracer = if config.trace && i % 2 == 1 { &mut tracer } else { &mut untraced };
        let start = Instant::now();
        let pass = fuzz_pass(tracer, &streams(i));
        let secs = start.elapsed().as_secs_f64();
        out.attempted += pass.cases;
        out.problems.extend(pass.violations);
        if logs.get(i as usize).is_some_and(|expected| *expected != pass.log) {
            out.problems.push(format!("pass {i}: fuzz logs differ from the set-up's"));
        }
        Ok(Sample { ops: pass.cases as f64, secs })
    })?;
    if config.trace {
        let (_, _, mut specs) = parse_fuzz_log(&logs.concat())?;
        specs.sort_unstable();
        specs.dedup();
        let campaign = Campaign::from_specs(specs);
        let (pass, records) =
            layers::replay_pass(&mut tracer, &campaign, &config.dir, false, &mut out.problems)?;
        out.attempted += campaign.len() as u64;
        let bytes_per_cell =
            read(&config.dir.join("report.jsonl"))?.len() as f64 / campaign.len() as f64;
        let files = ReportFiles::write(&config.dir, records)?;
        let cases = (0..FUZZ_REFERENCE_PASSES).flat_map(&streams).map(|s| s.budget).sum();
        let summary = TraceInputs {
            counters: pass.counters,
            bytes_per_cell,
            fuzz: Some((cases, violations)),
            overhead: overhead(&samples),
        };
        return traced_layers("fuzz_search", config, out, &mut tracer, &files, summary);
    }
    // Each pass fuzzes a different case mix, so the median over passes would measure
    // the mix; the rate over the whole timed phase averages thousands of cases.
    out.note("fuzz_search", "per-pass fuzz_cases_per_s", &rates(&samples), "cases/s");
    let ops = aggregate_rate(samples.iter());
    out.notes.push(format!("[fuzz_search] fuzz_cases_per_s = {ops:.3} cases/s (all passes)"));
    out.metric("ops_per_s", ops, "ops/s");
    out.metric("setup_s", median(&setup), "s");
    baseline::check_drift("fuzz_search", config, &counters, out);
    Ok(())
}

/// Everything the per-layer rollup needs besides the spans.
struct TraceInputs {
    /// Deterministic work of one pass over the workload's cells.
    counters: Counters,
    bytes_per_cell: f64,
    /// Cases and violations of the set-up's reference passes, on fuzz_search.
    fuzz: Option<(u64, u64)>,
    overhead: f64,
}

/// The traced run's tail: read side and probes, then every per-layer metric, the
/// span file and the self-time rollup.
fn traced_layers(
    workload: &str,
    config: &Config,
    out: &mut Output,
    tracer: &mut Tracer,
    files: &ReportFiles,
    inputs: TraceInputs,
) -> Result<(), String> {
    if workload != "report_io" {
        for i in 0..TRACE_READ_PASSES {
            layers::read_pass(tracer, i, files, &mut out.problems)?;
            out.attempted += 2;
        }
    }
    layers::stream_read_probe(tracer, 0, files)?;
    let reps = if config.tiny { 1 } else { TRACE_PROBE_REPS };
    let broadcast = layers::broadcast_probes(tracer, reps);
    let (verify_ns, digest_ns) = layers::crypto_probes(tracer, reps, 200);

    let c = &inputs.counters;
    let cells = files.cells as f64;
    let read_cells = |name: &str, per_pass: f64| {
        let calls = tracer.durations(name).len() as f64;
        tracer.total_ns(name) as f64 / (calls / per_pass * cells)
    };
    let write = tracer.durations("engine.export.write_cell");
    out.metric("engine.export.write_ns_p50", median_u64(&write), "ns");
    out.metric("engine.export.bytes_per_cell", inputs.bytes_per_cell, "bytes");
    out.metric("engine.import.json_ns_per_cell", read_cells("engine.import.from_json", 2.0), "ns");
    out.metric("engine.diff.ns_per_cell", read_cells("engine.diff.between", 1.0), "ns");
    out.metric(
        "engine.import.stream_ns_per_cell",
        tracer.total_ns("engine.import.streaming_cells") as f64 / cells,
        "ns",
    );
    out.metric("engine.report.merge_ns_per_cell", read_cells("engine.report.merge", 1.0), "ns");
    let (fuzz_cases, fuzz_violations) = inputs.fuzz.unwrap_or((0, 0));
    out.metric("engine.fuzz.cases", fuzz_cases as f64, "count");
    out.metric("engine.fuzz.violations", fuzz_violations as f64, "count");

    let run = tracer.durations("core.harness.run_with_plan");
    let (tail_ns, tail_pct) = tail(&run);
    out.metric("core.harness.run_ns_p50", median_u64(&run), "ns");
    out.metric("core.harness.run_ns_tail", tail_ns, "ns");
    out.metric("core.harness.run_ns_tail_pct", tail_pct, "pct");
    out.metric("core.harness.run_samples", run.len() as f64, "count");
    out.metric(
        "core.harness.build_ns_p50",
        median_u64(&tracer.durations("core.harness.build_scenario")),
        "ns",
    );
    out.metric(
        "core.solvability.characterize_ns_p50",
        median_u64(&tracer.durations("core.solvability.characterize")),
        "ns",
    );
    out.metric(
        "core.properties.check_ns_p50",
        median_u64(&tracer.durations("core.properties.check_bsm")),
        "ns",
    );
    out.metric("core.cells.completed", c.completed as f64, "count");
    out.metric("core.cells.unsolvable", c.unsolvable as f64, "count");
    out.metric("core.cells.failed", c.failed as f64, "count");

    for (key, probe) in &broadcast {
        out.metric(&format!("broadcast.{key}.instance_ns"), probe.median_ns, "ns");
        out.metric(&format!("broadcast.{key}.messages"), probe.messages as f64, "count");
    }

    out.metric("netsim.messages", c.messages as f64, "count");
    out.metric("netsim.slots", c.slots as f64, "count");
    out.metric("netsim.delivered", c.delivered as f64, "count");
    out.metric("netsim.rejected", c.rejected as f64, "count");
    out.metric("netsim.honest_max_fanout", c.honest_max_fanout as f64, "count");
    // Every replayed pass runs the same cells, so the messages behind all the
    // `run_with_plan` spans are one pass's messages times the passes replayed.
    let passes = run.len() as f64 / c.completed.max(1) as f64;
    let ns_per_message = run.iter().sum::<u64>() as f64 / (c.messages as f64 * passes);
    out.metric("netsim.ns_per_message", ns_per_message, "ns");

    out.metric("cryptosim.signatures_issued", c.signatures_issued as f64, "count");
    out.metric("cryptosim.signatures_verified", c.crypto.signatures_verified as f64, "count");
    out.metric("cryptosim.digests_computed", c.crypto.digests_computed as f64, "count");
    out.metric("cryptosim.verify_cache_hits", c.crypto.verify_cache_hits as f64, "count");
    out.metric("cryptosim.verify_ns", verify_ns, "ns");
    out.metric("cryptosim.digest_ns", digest_ns, "ns");

    out.metric(
        "matching.gale_shapley_ns",
        median_u64(&tracer.durations("matching.gale_shapley_left")),
        "ns",
    );
    out.metric("trace.overhead_frac", inputs.overhead, "ratio");

    let layers = tracer.self_time_by_layer();
    let total: u64 = layers.values().sum();
    let mut rollup = String::from("layer self_ms self_frac\n");
    for layer in crate::LAYERS {
        let ns = layers.get(layer).copied().unwrap_or(0);
        let frac = ns as f64 / total as f64;
        out.metric(&format!("trace.self_frac.{layer}"), frac, "ratio");
        rollup.push_str(&format!("{layer} {:.3} {frac:.4}\n", ns as f64 / 1e6));
    }
    let trace_dir = config.dir.parent().expect("the run directory has a parent").join("trace");
    std::fs::create_dir_all(&trace_dir).map_err(|err| format!("{}: {err}", trace_dir.display()))?;
    let write = |suffix: &str, text: &str| {
        let path = trace_dir.join(format!("{workload}-seed{}-{suffix}", config.seed));
        match std::fs::write(&path, text) {
            Ok(()) => Ok(path.display().to_string()),
            Err(err) => Err(format!("{}: {err}", path.display())),
        }
    };
    let spans = write("spans.jsonl", &tracer.to_jsonl())?;
    let rollup_path = write("self_time.txt", &rollup)?;
    out.notes.extend(rollup.lines().map(|line| format!("[{workload}] self time: {line}")));
    out.notes.push(format!(
        "[{workload}] wrote {} span(s) to {spans} and the rollup to {rollup_path}",
        tracer.spans().len()
    ));
    Ok(())
}

/// Runs ds_mesh's axes with seeds 0..4 on one worker and checks every counter of
/// the committed `BENCH_engine.json` snapshot exactly.
fn bench_engine_cross_check(config: &Config, out: &mut Output) -> Result<(), String> {
    let campaign = ds_mesh_campaign(0..4, false);
    let pass =
        layers::executor_pass(&one_worker(), &campaign, &config.dir, false, &mut out.problems)?;
    out.attempted += campaign.len() as u64;
    let c = &pass.counters;
    let actual = [
        ("cells", campaign.len() as u64),
        ("completed", c.completed),
        ("signatures_issued", c.signatures_issued),
        ("signatures_verified", c.crypto.signatures_verified),
        ("verify_cache_hits", c.crypto.verify_cache_hits),
        ("digests_computed", c.crypto.digests_computed),
        ("messages", c.messages),
        ("slots", c.slots),
    ];
    for ((name, expected), (_, value)) in baseline::BENCH_ENGINE.iter().zip(actual) {
        if value != *expected {
            out.problems.push(format!(
                "BENCH_engine.json cross-check: {name} = {value}, snapshot has {expected}"
            ));
        }
    }
    out.notes.push(format!(
        "[ds_mesh] BENCH_engine.json cross-check: {} counters compared",
        actual.len()
    ));
    Ok(())
}
