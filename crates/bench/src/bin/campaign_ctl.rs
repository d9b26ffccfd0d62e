//! `campaign_ctl` — run, merge and diff sharded campaigns from the command line.
//!
//! The process-level face of the engine's distributed-campaign layer:
//!
//! ```sh
//! # One process per shard (any machines, any thread counts):
//! campaign_ctl run --smoke --shard 1/3 --out shards/1
//! campaign_ctl run --smoke --shard 2/3 --out shards/2
//! campaign_ctl run --smoke --shard 3/3 --out shards/3
//!
//! # Recombine the shard streams; byte-identical to an unsharded run:
//! campaign_ctl merge --out merged \
//!     shards/1/report.jsonl shards/2/report.jsonl shards/3/report.jsonl
//!
//! # Cell-level comparison of two runs (e.g. before/after a protocol change);
//! # exits non-zero when any cell differs:
//! campaign_ctl diff merged/report.json before/report.json
//! ```
//!
//! `run` executes the standard campaign grid (`--smoke`: the small CI grid; default:
//! the full ~1080-cell sweep — the same grids as `examples/campaign.rs`). All flags
//! come from [`bsm_bench::cli`].
//!
//! # One execution path
//!
//! Every `run` streams: cells are written to `report.jsonl` — coordinate-sorted cell
//! lines plus a totals footer — as they complete, so no run ever holds the whole
//! record vector. Once the stream is published, `run` renders `report.json` and
//! `report.csv` from it through the same k-way merge `merge` uses (a one-way merge
//! of its own stream). `merge` k-way-merges shard `report.jsonl` files in constant
//! memory into `report.json` + `report.csv`, **byte-identical** to the unsharded
//! run's. `diff` accepts both formats (`.jsonl` exports are detected by extension,
//! case-insensitively).
//!
//! # Scenario files (`--scenario`)
//!
//! Instead of the built-in grids, `run --scenario FILE` (also honored by `resume`)
//! loads a declarative scenario file — grid axes plus a schedule of network faults
//! (partitions, crash/recovery, seeded loss and jitter); see `docs/SCENARIOS.md`.
//! The file's canonical rendering is embedded in every report artifact as its
//! *scenario tag*, and `merge`/`diff` refuse to combine artifacts whose tags differ,
//! so mixed-scenario data can never splice silently:
//!
//! ```sh
//! campaign_ctl run --scenario examples/scenarios/partition_heal.toml --metrics
//! ```
//!
//! # Crash recovery (`resume`)
//!
//! A run that dies mid-campaign leaves its completed cells at
//! `report.jsonl.partial` — the stream is written there and renamed to
//! `report.jsonl` only once footered. `resume` (with the same `--smoke`/`--shard`
//! flags as the interrupted run) is `run` with a salvaged prefix: it keeps the
//! valid cell prefix, re-runs only the missing cells, and splices prefix + fresh
//! cells into artifacts byte-identical to an uninterrupted run:
//!
//! ```sh
//! campaign_ctl run    --smoke --shard 2/3 --out shards/2   # ... killed!
//! campaign_ctl resume --smoke --shard 2/3 --out shards/2
//! ```
//!
//! All final artifacts (`report.json`, `report.csv`, `metrics.jsonl`,
//! `BENCH_engine.json`) are published through a temp-file + atomic-rename, so a
//! crash at any instant can never leave a truncated file at a tracked path.
//!
//! # Supervision (`supervise`)
//!
//! `supervise --shards K` turns the crash-*recoverable* pieces above into a
//! crash-*tolerant* whole: the coordinator spawns one worker subprocess per shard
//! (`run --shard i/K`, re-executing this binary), watches each worker's
//! `progress.json` heartbeat for liveness (a heartbeat that stops advancing — not
//! mere slowness — gets the worker killed), and on any death salvages the
//! worker's partial and relaunches the remainder (`resume`) with bounded attempts
//! and exponential backoff. A shard that keeps dying is quarantined and the run
//! degrades gracefully: the completed shards are merged, `supervise.json` records
//! every attempt and the quarantined coordinate ranges, and the process exits
//! with the degraded code 4. With every worker healthy the merged
//! `report.json`/`report.csv` are **byte-identical** to an unsupervised
//! single-process run. `--chaos SHARD:ATTEMPT:MODE,...` injects deterministic
//! crashes (cell-boundary kill, torn half-line, hang, pre-heartbeat death,
//! post-footer/pre-rename death) so the supervision machinery is tested against
//! real process deaths:
//!
//! ```sh
//! campaign_ctl supervise --smoke --shards 3 --out supervised
//! campaign_ctl supervise --smoke --shards 3 --chaos 2:1:torn7 --backoff-ms 0
//! ```
//!
//! # Exit codes
//!
//! The mapping is a documented contract (see [`bsm_bench::exit`]), asserted by
//! `crates/bench/tests/exit_codes.rs`: 0 success, 1 internal error, 2 usage
//! error, 3 findings (`diff` differing cells; `fuzz` violations or a replay
//! mismatch), 4 degraded (`supervise` quarantined at least one shard).
//!
//! # Telemetry (`--metrics`, `stats`)
//!
//! `run --metrics` writes a `metrics.jsonl` sidecar next to the report artifacts:
//! one coordinate-sorted JSON line per cell carrying the cell's attributed
//! crypto-counter delta, message accounting, per-role fan-out and wall time. The
//! sidecar is strictly a side channel — every report artifact is byte-identical
//! with and without it. Independently of `--metrics`, every run heartbeats
//! `progress.json` in its out-dir (done/total, rate, last coordinate, counter
//! delta) every few cells through an atomic rename — the liveness signal
//! `supervise` polls for dead shards. `stats` aggregates a sidecar into quantiles,
//! top-N cells and per-axis rollups:
//!
//! ```sh
//! campaign_ctl run --smoke --metrics --shard 1/3 --out shards/1
//! campaign_ctl stats shards/1     # p50/p90/p99, top cells, rollups (+ heartbeat)
//! ```
//!
//! # Fuzzing (`fuzz`)
//!
//! `fuzz --budget N --seed S` runs the violation-guided adversary fuzzer: a seeded,
//! byte-deterministic search over serialized adversary scripts, checked against the
//! broadcast and stable-matching property oracles (see `docs/FUZZING.md`). Any
//! violating script is greedily shrunk; `--freeze` writes the minimal script as a
//! canonical regression file under `crates/core/tests/fuzz_regressions/`, and
//! `--replay FILE` re-runs one frozen script and verifies its recorded verdict:
//!
//! ```sh
//! campaign_ctl fuzz --budget 200 --seed 1          # writes fuzz.log to --out
//! campaign_ctl fuzz --replay crates/core/tests/fuzz_regressions/some_attack.toml
//! ```

use bsm_bench::cli::BenchArgs;
use bsm_bench::exit::{CtlCode, CtlError};
use bsm_core::harness::AdversarySpec;
use bsm_core::script::{Script, Verdict};
use bsm_engine::export::{
    atomic_write, AtomicFile, MergedJsonWriter, StreamingCsvWriter, StreamingExporter,
};
use bsm_engine::import::{footer_meta, from_json, from_jsonl, StreamingCells};
use bsm_engine::supervise::{
    attempt_from_env, pid_alive, run_supervisor, ChaosSpec, CrashPoint, SuperviseConfig,
    DEFAULT_BACKOFF_MS, DEFAULT_MAX_ATTEMPTS, DEFAULT_POLL_MS, DEFAULT_STALL_POLLS,
};
use bsm_engine::telemetry::{
    parse_progress, CampaignStats, CellTelemetry, Heartbeat, TelemetryExporter, HEARTBEAT_EVERY,
};
use bsm_engine::{
    run_fuzz, Campaign, CampaignBuilder, CampaignDiff, CampaignReport, CellMerge, CellRecord,
    FuzzConfig, Progress, ScenarioFile, ShardPlan, StreamError, Totals,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The campaign to run, plus the canonical scenario text when one was loaded from
/// `--scenario FILE` (embedded in every report artifact as its scenario tag).
///
/// Without `--scenario`, the standard grids are mirrored by `examples/campaign.rs` —
/// the CI gate cross-checks that both produce byte-identical exports.
fn build_campaign(args: &BenchArgs) -> Result<(Campaign, Option<String>), CtlError> {
    if let Some(path) = &args.scenario {
        if args.smoke {
            return Err(CtlError::Usage(
                "--scenario and --smoke are mutually exclusive (the scenario \
                 file already names its whole grid)"
                    .into(),
            ));
        }
        let scenario =
            ScenarioFile::load(path).map_err(|err| format!("scenario file error: {err}"))?;
        eprintln!("loaded scenario {:?} from {}", scenario.name, path.display());
        return Ok((scenario.campaign(), Some(scenario.canonical())));
    }
    let campaign = if args.smoke {
        // Small CI grid: 1 × 3 × 2 × 2 × 3 × 2 = 72 cells.
        CampaignBuilder::new()
            .sizes([3])
            .corruptions([(0, 0), (1, 1)])
            .adversaries(AdversarySpec::ALL)
            .seeds(0..2)
            .build()
    } else {
        // Full sweep: 3 × 3 × 2 × 4 × 3 × 5 = 1080 cells.
        CampaignBuilder::new()
            .sizes([3, 4, 5])
            .corruptions([(0, 0), (0, 1), (1, 0), (1, 1)])
            .adversaries(AdversarySpec::ALL)
            .seeds(0..5)
            .build()
    };
    Ok((campaign, None))
}

/// Reads and imports one exported report: `report.json`, or a streamed
/// `report.jsonl` (detected by extension, case-insensitively).
fn import_report(path: &str) -> Result<CampaignReport, String> {
    let streamed = Path::new(path).extension().is_some_and(|ext| ext.eq_ignore_ascii_case("jsonl"));
    if streamed {
        let file = File::open(path).map_err(|err| format!("cannot read {path}: {err}"))?;
        return from_jsonl(BufReader::new(file))
            .map_err(|err| format!("cannot import streamed export {path}: {err}"));
    }
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    from_json(&text).map_err(|err| {
        format!(
            "cannot import {path}: {err} (expected a report.json document; streamed \
             report.jsonl exports are detected by their .jsonl extension)"
        )
    })
}

/// Removes a stale artifact left by an earlier run, tolerating its absence.
fn remove_stale(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(err) => Err(format!("cannot remove stale {}: {err}", path.display())),
    }
}

/// Flushes and fsyncs a completed streamed JSONL export at its `.partial` path,
/// then publishes it at the final path with an atomic rename.
fn publish_partial(jsonl: BufWriter<File>, partial: &Path, dest: &Path) -> Result<(), String> {
    let file = jsonl
        .into_inner()
        .map_err(|err| format!("cannot flush {}: {}", partial.display(), err.into_error()))?;
    file.sync_all().map_err(|err| format!("cannot sync {}: {err}", partial.display()))?;
    drop(file);
    std::fs::rename(partial, dest)
        .map_err(|err| format!("cannot publish {}: {err}", dest.display()))
}

/// Salvages the valid ordered cell prefix of an interrupted run under `out`
/// (`report.jsonl.partial` when present, else `report.jsonl`) and verifies it is
/// the head of `shard`'s canonical work list.
fn salvage(out: &Path, shard: &Campaign, plan: ShardPlan) -> Result<Vec<CellRecord>, String> {
    let partial = out.join("report.jsonl.partial");
    let source = if partial.exists() { partial } else { out.join("report.jsonl") };
    let file = File::open(&source).map_err(|err| {
        format!(
            "cannot read {}: {err} (nothing to resume; run `campaign_ctl run` first)",
            source.display()
        )
    })?;
    let salvaged = StreamingCells::salvage(BufReader::new(file))
        .map_err(|err| format!("cannot salvage {}: {err}", source.display()))?;
    let done = salvaged.cells.len();
    // The prefix must be exactly the head of this shard's canonical work list —
    // anything else means the flags do not match the interrupted run (or the
    // export lost an interior cell), and splicing would ship a wrong artifact.
    if done > shard.len() {
        return Err(format!(
            "salvaged {done} cell(s) but shard {plan} has only {} — wrong --smoke/--shard \
             flags for this export?",
            shard.len()
        ));
    }
    for (cell, expected) in salvaged.cells.iter().zip(shard.specs()) {
        if cell.spec != *expected {
            return Err(format!(
                "salvaged cell {} does not match the shard's work list (expected {}) — \
                 wrong --smoke/--shard flags for this export?",
                cell.spec, expected
            ));
        }
    }
    match (&salvaged.truncation, salvaged.complete) {
        (Some(reason), _) => {
            eprintln!("salvaged {done} cell(s) from {} (stopped at: {reason})", source.display());
        }
        (None, false) => eprintln!("salvaged {done} cell(s) from {} (no footer)", source.display()),
        (None, true) => {
            eprintln!("salvaged all {done} cell(s) from {} (complete export)", source.display());
        }
    }
    Ok(salvaged.cells)
}

/// Counts one more streamed cell toward an armed chaos crash point and fires it at
/// the boundary. Chaos counts *stream-absolute* cells — replayed salvaged cells
/// count too — so "die after the Nth cell" means the same position on every
/// attempt.
fn chaos_tick(
    crash: &mut Option<CrashPoint>,
    exporter: &mut StreamingExporter<&mut BufWriter<File>>,
    partial: &Path,
) -> Result<(), StreamError> {
    if let Some(point) = crash.as_mut() {
        if point.cell_written() {
            // Flush first: an injected death leaves whole lines (plus, for torn
            // mode, the fragment fire() appends after them).
            exporter.flush()?;
            point.fire(partial);
        }
    }
    Ok(())
}

/// `run` and `resume` — one function: `run` is `resume` with an empty salvaged
/// prefix.
///
/// The shard's cells stream to `report.jsonl` as they complete; the full record
/// vector is never held in memory. `resume` first salvages the valid prefix of an
/// interrupted run ([`salvage`]), replays it into the new stream and re-runs only
/// the un-run remainder of the shard's range ([`ShardPlan::remainder`]), so the
/// spliced stream is byte-identical to an uninterrupted run's. Once the stream is
/// published, `report.json` and `report.csv` are rendered from it by
/// [`merge_streams`] — a one-way merge.
///
/// Crash safety: the stream is written at `report.jsonl.partial` and renamed to
/// `report.jsonl` only once footered, so a crash (or failure) at any instant
/// leaves the completed cells salvageable for `resume` and never a truncated
/// stream at the final path. The `--metrics` sidecar goes through an
/// [`AtomicFile`]. The `progress.json` heartbeat is the one artifact deliberately
/// *left behind* on failure: its last atomic snapshot shows where the run died.
fn run(args: &BenchArgs, resume: bool) -> Result<CtlCode, CtlError> {
    if resume && !args.files.is_empty() {
        return Err(CtlError::Usage(
            "resume: file arguments are not supported (pass --out DIR of the \
             interrupted run, plus its --smoke/--shard flags)"
                .into(),
        ));
    }
    if resume && args.metrics {
        // Telemetry (counter deltas, wall times) is measured while a cell runs; it
        // cannot be reconstructed for the cells salvaged from the interrupted
        // export, so a resumed sidecar would silently cover only the fresh tail.
        return Err(CtlError::Usage(
            "resume: --metrics is not supported (per-cell telemetry cannot be \
             reconstructed for salvaged cells; re-run with `run --metrics` for a \
             complete sidecar)"
                .into(),
        ));
    }
    let out = match (&args.out, resume) {
        (Some(out), _) => out.clone(),
        (None, false) => PathBuf::from("target/campaign_ctl"),
        (None, true) => {
            return Err(CtlError::Usage(
                "resume: --out DIR is required (the directory of the interrupted run)".into(),
            ))
        }
    };
    // Deterministic crash injection (the supervision chaos tests): read the armed
    // point first, so an `early` death happens before any artifact exists.
    let mut crash = CrashPoint::from_env().map_err(CtlError::Usage)?;
    if let Some(point) = &crash {
        point.die_early_if_armed();
    }
    let attempt = attempt_from_env()?;
    let (campaign, scenario) = build_campaign(args)?;
    let plan = args.shard.unwrap_or(ShardPlan::WHOLE);
    let shard = campaign.shard(plan);
    let salvaged = if resume { salvage(&out, &shard, plan)? } else { Vec::new() };
    let done = salvaged.len();
    let remainder = plan.remainder(campaign.len(), done);
    let fresh = remainder.len();
    let executor = args.executor().progress(Progress::Stderr { every: 250 });
    match (resume, args.shard) {
        (true, _) => {
            eprintln!("re-running {fresh} remaining cell(s) of shard {plan} of {campaign}")
        }
        (false, Some(plan)) => eprintln!("running shard {plan} of {campaign}"),
        (false, None) => eprintln!("running {campaign}"),
    }
    let path = out.join("report.jsonl");
    let partial_path = out.join("report.jsonl.partial");
    let metrics_path = out.join("metrics.jsonl");
    std::fs::create_dir_all(&out)
        .map_err(|err| format!("cannot create {}: {err}", out.display()))?;
    // Artifacts of an earlier run must not sit next to this run's partial: an
    // interrupted run would otherwise look complete to a later merge. (The
    // salvaged prefix, if any, is already in memory.)
    for stale in [&path, &out.join("report.json"), &out.join("report.csv"), &metrics_path] {
        remove_stale(stale)?;
    }
    let file = File::create(&partial_path)
        .map_err(|err| format!("cannot write {}: {err}", partial_path.display()))?;
    let mut jsonl = BufWriter::new(file);
    let mut metrics_out = match args.metrics {
        true => Some(
            AtomicFile::create(&metrics_path)
                .map_err(|err| format!("cannot write {}: {err}", metrics_path.display()))?,
        ),
        false => None,
    };
    // The heartbeat starts at the salvaged count, so a watcher sees a resumed shard
    // continue from where the interrupted run's progress.json left off.
    let mut heartbeat = Heartbeat::new(&out, shard.len(), HEARTBEAT_EVERY)
        .and_then(|beat| beat.starting_at(done))
        .and_then(|beat| if attempt > 1 { beat.attempt(attempt) } else { Ok(beat) })
        .map_err(|err| format!("cannot write heartbeat in {}: {err}", out.display()))?;
    let result = (|| -> Result<(Totals, bsm_engine::ExecutionStats), String> {
        let mut exporter = StreamingExporter::new(&mut jsonl);
        if let Some(text) = &scenario {
            exporter.set_scenario(text.clone());
        }
        for cell in &salvaged {
            exporter
                .write_cell(cell)
                .and_then(|()| chaos_tick(&mut crash, &mut exporter, &partial_path))
                .map_err(|err| {
                    format!(
                        "cannot replay the salvaged prefix into {}: {err}",
                        partial_path.display()
                    )
                })?;
        }
        let mut metrics = metrics_out.as_mut().map(TelemetryExporter::new);
        let mut sink = |cell: CellRecord, telemetry: CellTelemetry| -> Result<(), StreamError> {
            exporter.write_cell(&cell)?;
            if let Some(sidecar) = metrics.as_mut() {
                sidecar.write_cell(&telemetry)?;
            }
            heartbeat.tick(cell.spec)?;
            chaos_tick(&mut crash, &mut exporter, &partial_path)
        };
        let (_, stats) =
            executor.run_streaming_telemetry(&campaign.slice(remainder), &mut sink).map_err(
                |err| format!("streamed export to {} failed: {err}", partial_path.display()),
            )?;
        let totals = exporter
            .finish()
            .map_err(|err| format!("cannot finish {}: {err}", partial_path.display()))?;
        if let Some(sidecar) = metrics {
            sidecar
                .finish()
                .map_err(|err| format!("cannot finish {}: {err}", metrics_path.display()))?;
        }
        Ok((totals, stats))
    })();
    // On failure the salvageable prefix stays at report.jsonl.partial; the sidecar
    // staging file is discarded by the AtomicFile drop.
    let (totals, stats) = result.map_err(|message| {
        format!(
            "{message} (completed cells kept at {}; `campaign_ctl resume` with the same \
             flags finishes the run)",
            partial_path.display()
        )
    })?;
    if let Some(point) = &crash {
        // The `finish` death promises a complete, footered partial on disk: drain
        // the writer's buffer before dying between footer and rename.
        jsonl.flush().map_err(|err| format!("cannot flush {}: {err}", partial_path.display()))?;
        point.die_before_publish_if_armed();
    }
    publish_partial(jsonl, &partial_path, &path)?;
    if let Some(staged) = metrics_out {
        staged
            .persist()
            .map_err(|err| format!("cannot publish {}: {err}", metrics_path.display()))?;
    }
    heartbeat
        .finish()
        .map_err(|err| format!("cannot write heartbeat in {}: {err}", out.display()))?;
    merge_streams(&[&path], &out)?;
    eprintln!("{stats}");
    println!("totals: {totals}");
    if resume {
        println!("resumed: {done} salvaged + {fresh} fresh cell(s)");
    }
    println!(
        "exported {}, {} and {}",
        path.display(),
        out.join("report.json").display(),
        out.join("report.csv").display()
    );
    if args.metrics {
        println!("exported {}", metrics_path.display());
    }
    Ok(CtlCode::Success)
}

/// `supervise --shards K`: crash-tolerant supervised shard execution.
///
/// Spawns one worker subprocess per shard (`campaign_ctl run --shard i/K`,
/// re-executing this binary), watches each worker's `progress.json`
/// heartbeat, and on crash, stall or non-zero exit salvages the worker's partial
/// and relaunches the remainder (`campaign_ctl resume`) with bounded attempts and
/// exponential backoff ([`run_supervisor`]). Shards that exhaust their attempts
/// are quarantined; the completed shards are merged into `report.json` +
/// `report.csv` (byte-identical to an unsupervised run when nothing is
/// quarantined), `supervise.json` records every attempt and the quarantined
/// ranges, and the process exits degraded (code 4) when anything was quarantined.
fn supervise(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    if !args.files.is_empty() || args.metrics || args.shard.is_some() {
        return Err(CtlError::Usage(
            "supervise: --shard, --metrics and file arguments are not supported \
             (the supervisor shards and merges itself; use \
             --shards K plus --smoke/--scenario, --threads, --out and the \
             supervision tuning flags)"
                .into(),
        ));
    }
    let shards = args.shards.ok_or_else(|| {
        CtlError::Usage(
            "supervise: --shards K is required (worker subprocesses, one per shard)".into(),
        )
    })?;
    let (campaign, _) = build_campaign(args)?;
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("target/campaign_ctl/supervised"));
    let dirs: Vec<PathBuf> = (1..=shards).map(|i| out.join(format!("shard-{i}"))).collect();
    for dir in &dirs {
        std::fs::create_dir_all(dir)
            .map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
    }
    let exe = std::env::current_exe()
        .map_err(|err| format!("cannot locate the campaign_ctl binary: {err}"))?;
    let config = SuperviseConfig {
        shards,
        total_cells: campaign.len(),
        max_attempts: args.max_attempts.unwrap_or(DEFAULT_MAX_ATTEMPTS),
        backoff_base_ms: args.backoff_ms.unwrap_or(DEFAULT_BACKOFF_MS),
        poll_ms: args.poll_ms.unwrap_or(DEFAULT_POLL_MS),
        stall_polls: args.stall_polls.unwrap_or(DEFAULT_STALL_POLLS),
        chaos: args.chaos.clone().unwrap_or(ChaosSpec::NONE),
    };
    if !config.chaos.is_empty() {
        eprintln!("supervise: chaos armed: {}", config.chaos);
    }
    eprintln!(
        "supervising {shards} worker(s) over {campaign} (max {} attempt(s)/shard)",
        config.max_attempts
    );
    let summary = run_supervisor(&config, &dirs, |shard, _, resume| {
        let mut command = Command::new(&exe);
        command.arg(if resume { "resume" } else { "run" });
        command.arg("--shard").arg(format!("{shard}/{shards}"));
        if args.smoke {
            command.arg("--smoke");
        }
        if let Some(path) = &args.scenario {
            command.arg("--scenario").arg(path);
        }
        if let Some(threads) = args.threads {
            command.arg("--threads").arg(threads.to_string());
        }
        command.arg("--out").arg(&dirs[shard - 1]);
        // Workers talk through artifacts and heartbeats; their stdio would only
        // interleave illegibly with the supervisor's own reporting.
        command.stdout(Stdio::null()).stderr(Stdio::null());
        command
    })
    .map_err(|err| format!("supervisor loop failed: {err}"))?;
    let summary_path = out.join("supervise.json");
    atomic_write(&summary_path, summary.to_json())
        .map_err(|err| format!("cannot write {}: {err}", summary_path.display()))?;
    let completed = summary.completed_shards();
    let exports: Vec<String> = completed
        .iter()
        .map(|&shard| dirs[shard - 1].join("report.jsonl").to_string_lossy().into_owned())
        .collect();
    let json_path = out.join("report.json");
    let csv_path = out.join("report.csv");
    if exports.is_empty() {
        // Nothing completed: a merged report from some earlier run must not sit
        // next to a supervise.json that says everything was quarantined.
        remove_stale(&json_path)?;
        remove_stale(&csv_path)?;
        eprintln!("supervise: no shard completed; nothing to merge");
    } else {
        let totals = merge_streams(&exports, &out)?;
        println!("merged {} of {shards} shard(s): {totals}", exports.len());
        println!("exported {} and {}", json_path.display(), csv_path.display());
    }
    println!("exported {}", summary_path.display());
    if summary.degraded() {
        for shard in &summary.quarantined {
            eprintln!(
                "supervise: shard {}/{shards} quarantined after {} attempt(s) — cells \
                 {}..{} missing from the merged artifacts",
                shard.shard,
                shard.attempts,
                shard.start,
                shard.start + shard.cells
            );
        }
        return Ok(CtlCode::Degraded);
    }
    println!(
        "supervised run complete: {shards} shard(s) over {} attempt(s)",
        summary.attempts.len()
    );
    Ok(CtlCode::Success)
}

/// `bench`: run the fixed Dolev-Strong-heavy benchmark campaign and write the
/// `BENCH_engine.json` performance snapshot (see [`bsm_engine::bench`]).
///
/// `--smoke` selects the quick CI grid; the default full grid is the one behind the
/// tracked repo-root baseline. `--out DIR` chooses where `BENCH_engine.json` lands
/// (default: the current directory, i.e. the repo root when run from a checkout).
fn bench(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    // The benchmark campaign is fixed by design (the snapshot is only comparable
    // across runs of the same grid); silently accepting run-flavored flags would
    // ship a mislabeled baseline with exit 0.
    if args.shard.is_some() || args.metrics || args.scenario.is_some() || !args.files.is_empty() {
        return Err(CtlError::Usage(
            "bench: --shard, --metrics, --scenario and file arguments \
             are not supported (the benchmark campaign is fixed and its snapshot \
             already carries the counter deltas; use --smoke, --threads, --out)"
                .into(),
        ));
    }
    let executor = args.executor().progress(Progress::Stderr { every: 250 });
    eprintln!(
        "running {} benchmark campaign on {} thread(s)",
        if args.smoke { "quick" } else { "full" },
        executor.thread_count()
    );
    let snapshot = bsm_engine::bench::run(&executor, args.smoke);
    let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("."));
    let path = dir.join("BENCH_engine.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| atomic_write(&path, snapshot.to_json()))
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    println!(
        "{} cells in {:.3}s ({:.1} scenarios/sec); {} signatures verified \
         (+{} cache hits), {} digests computed",
        snapshot.cells,
        snapshot.wall_seconds,
        snapshot.scenarios_per_sec,
        snapshot.signatures_verified,
        snapshot.verify_cache_hits,
        snapshot.digests_computed
    );
    println!("exported {}", path.display());
    Ok(CtlCode::Success)
}

/// `fuzz`: the violation-guided adversary fuzzer (see `docs/FUZZING.md`).
///
/// `fuzz --budget N --seed S` runs the seeded search loop over adversary-script
/// space and writes the byte-deterministic `fuzz.log` under `--out` (default
/// `target/campaign_ctl`). Any violating script is greedily shrunk; `--freeze`
/// writes each minimal script as a canonical regression file under
/// `crates/core/tests/fuzz_regressions/`. `fuzz --replay FILE` instead re-runs one
/// frozen script and checks the recorded verdict; `--replay FILE --freeze` rewrites
/// the file canonically with the observed verdict (how verdicts get stamped).
///
/// Returns [`CtlCode::Findings`] — exit 3 — when the search found violations or a
/// replayed verdict did not reproduce.
fn fuzz(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    // The fuzzer owns its own determinism contract; campaign-flavored flags have no
    // meaning here and silently ignoring them would mislabel the run.
    if args.shard.is_some()
        || args.metrics
        || args.smoke
        || args.scenario.is_some()
        || !args.files.is_empty()
    {
        return Err(CtlError::Usage(
            "fuzz: --shard, --metrics, --smoke, --scenario and file \
             arguments are not supported (use --budget N, --seed S, --replay FILE, \
             --freeze, --out DIR)"
                .into(),
        ));
    }
    if let Some(path) = &args.replay {
        if args.budget.is_some() || args.seed.is_some() {
            return Err(CtlError::Usage(
                "fuzz: --replay re-runs one frozen script; --budget/--seed only \
                 apply to the search loop"
                    .into(),
            ));
        }
        let mismatched = replay_script(path, args.freeze)?;
        return Ok(if mismatched { CtlCode::Findings } else { CtlCode::Success });
    }
    let budget = args.budget.ok_or_else(|| {
        CtlError::Usage(
            "fuzz: --budget N is required (or --replay FILE to re-run a frozen script)".into(),
        )
    })?;
    let seed = args.seed.unwrap_or(0);
    let report = run_fuzz(&FuzzConfig { budget, seed });
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("target/campaign_ctl"));
    let log_path = out.join("fuzz.log");
    std::fs::create_dir_all(&out)
        .and_then(|()| atomic_write(&log_path, report.log.clone()))
        .map_err(|err| format!("cannot write {}: {err}", log_path.display()))?;
    println!(
        "fuzzed {} case(s): {} violation(s), worst slots {} (case {:04}), \
         worst messages {} (case {:04})",
        report.cases,
        report.violations.len(),
        report.worst_slots,
        report.worst_slots_case,
        report.worst_messages,
        report.worst_messages_case
    );
    println!("exported {}", log_path.display());
    for violation in &report.violations {
        eprintln!(
            "case {:04}: VIOLATION {} (shrunk {} -> {} action(s))",
            violation.case,
            violation.signature,
            violation.script.actions.len(),
            violation.shrunk.actions.len()
        );
        if args.freeze {
            let dir = PathBuf::from("crates/core/tests/fuzz_regressions");
            let path = dir.join(format!("{}.toml", violation.shrunk.name));
            std::fs::create_dir_all(&dir)
                .and_then(|()| atomic_write(&path, violation.shrunk.canonical()))
                .map_err(|err| format!("cannot freeze {}: {err}", path.display()))?;
            println!("froze {}", path.display());
        }
    }
    Ok(if report.violations.is_empty() { CtlCode::Success } else { CtlCode::Findings })
}

/// `fuzz --replay FILE [--freeze]`: re-run one frozen script deterministically.
///
/// Without `--freeze` the observed verdict must match the one recorded in the file
/// (a missing recorded verdict is reported but does not fail). With `--freeze` the
/// file is rewritten canonically with the observed verdict.
fn replay_script(path: &Path, freeze: bool) -> Result<bool, String> {
    let script =
        Script::load(path).map_err(|err| format!("cannot replay {}: {err}", path.display()))?;
    let outcome =
        script.run().map_err(|err| format!("replay of {} failed to run: {err}", path.display()))?;
    let observed = Verdict::of(&outcome);
    println!(
        "replayed {}: decided={} slots={} violations={:?}",
        path.display(),
        observed.decided,
        observed.slots,
        observed.violations
    );
    if freeze {
        let mut updated = script;
        updated.verdict = Some(observed);
        atomic_write(path, updated.canonical())
            .map_err(|err| format!("cannot freeze {}: {err}", path.display()))?;
        println!("froze {}", path.display());
        return Ok(false);
    }
    match &script.verdict {
        Some(recorded) if *recorded == observed => {
            println!("verdict reproduced");
            Ok(false)
        }
        Some(recorded) => {
            eprintln!(
                "verdict MISMATCH: file records decided={} slots={} violations={:?}",
                recorded.decided, recorded.slots, recorded.violations
            );
            Ok(true)
        }
        None => {
            println!("no recorded verdict (stamp one with --replay FILE --freeze)");
            Ok(false)
        }
    }
}

/// `merge`: k-way merge of shard `report.jsonl` streams in constant memory.
fn merge(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    if args.files.is_empty() {
        return Err(CtlError::Usage(
            "merge: no shard streams given (pass report.jsonl paths)".into(),
        ));
    }
    if args.metrics {
        return Err(CtlError::Usage(
            "merge: --metrics is not supported (sidecars are per-run; run \
             `campaign_ctl stats` on each shard's metrics.jsonl instead)"
                .into(),
        ));
    }
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("target/campaign_ctl/merged"));
    let totals = merge_streams(&args.files, &out)?;
    println!("merged {} shard stream(s): {totals}", args.files.len());
    println!(
        "exported {} and {}",
        out.join("report.json").display(),
        out.join("report.csv").display()
    );
    Ok(CtlCode::Success)
}

/// The one merge, behind `run`, `resume`, `merge` and `supervise`: k-way merge of
/// shard `report.jsonl` streams into `report.json` + `report.csv` under `out`, in
/// constant memory.
///
/// Pass 1 reads just the totals footers (the JSON document puts totals before the
/// cells, so the coordinator must know them up front) and the scenario tags they
/// carry — shards from different scenarios refuse to merge; pass 2 lazily streams
/// the cells of all shards through the binary-heap merge into `report.json` +
/// `report.csv`, byte-identical to an unsharded run's. The writers verify the
/// summed footers against the cells actually streamed, so a lying footer or
/// truncated shard fails the merge instead of shipping a wrong artifact.
fn merge_streams(files: &[impl AsRef<Path>], out: &Path) -> Result<Totals, String> {
    let open = |path: &Path| {
        File::open(path)
            .map(BufReader::new)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))
    };
    let mut declared = Totals::default();
    let mut scenario: Option<String> = None;
    for (index, path) in files.iter().enumerate() {
        let path = path.as_ref();
        let (totals, tag) = footer_meta(open(path)?)
            .map_err(|err| format!("cannot read footer of {}: {err}", path.display()))?;
        declared += totals;
        if index == 0 {
            scenario = tag;
        } else if tag != scenario {
            let render = |t: &Option<String>| t.clone().unwrap_or_else(|| "no scenario tag".into());
            return Err(format!(
                "cannot merge shards from different scenarios: {} carries {:?} but the \
                 first shard carries {:?}",
                path.display(),
                render(&tag),
                render(&scenario)
            ));
        }
    }
    let mut streams = Vec::new();
    for path in files {
        streams.push(StreamingCells::new(open(path.as_ref())?));
    }
    std::fs::create_dir_all(out)
        .map_err(|err| format!("cannot create {}: {err}", out.display()))?;
    let json_path = out.join("report.json");
    let csv_path = out.join("report.csv");
    // Atomic publication: a failed (or killed) merge leaves no half-written artifact
    // at the final paths — the AtomicFile drop discards the staging files.
    let mut json_out = AtomicFile::create(&json_path)
        .map_err(|err| format!("cannot write {}: {err}", json_path.display()))?;
    let mut csv_out = AtomicFile::create(&csv_path)
        .map_err(|err| format!("cannot write {}: {err}", csv_path.display()))?;
    let totals = (|| -> Result<Totals, String> {
        let mut json = MergedJsonWriter::with_scenario(&mut json_out, declared, scenario)
            .map_err(|err| format!("cannot start {}: {err}", json_path.display()))?;
        let mut csv = StreamingCsvWriter::new(&mut csv_out)
            .map_err(|err| format!("cannot start {}: {err}", csv_path.display()))?;
        for cell in CellMerge::new(streams) {
            let cell = cell.map_err(|err| format!("streamed merge failed: {err}"))?;
            json.write_cell(&cell)
                .map_err(|err| format!("cannot write {}: {err}", json_path.display()))?;
            csv.write_cell(&cell)
                .map_err(|err| format!("cannot write {}: {err}", csv_path.display()))?;
        }
        let totals =
            json.finish().map_err(|err| format!("cannot finish {}: {err}", json_path.display()))?;
        csv.finish().map_err(|err| format!("cannot finish {}: {err}", csv_path.display()))?;
        Ok(totals)
    })()?;
    json_out.persist().map_err(|err| format!("cannot publish {}: {err}", json_path.display()))?;
    csv_out.persist().map_err(|err| format!("cannot publish {}: {err}", csv_path.display()))?;
    Ok(totals)
}

/// Returns [`CtlCode::Findings`] when the reports differ in any cell.
fn diff(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    if args.metrics {
        return Err(CtlError::Usage(
            "diff: --metrics is not supported (diff compares deterministic \
             report cells; telemetry sidecars carry timing and are not diffable)"
                .into(),
        ));
    }
    let [left, right] = args.files.as_slice() else {
        return Err(CtlError::Usage(format!(
            "diff: expected exactly two report.json paths, got {}",
            args.files.len()
        )));
    };
    let (left, right) = (import_report(left)?, import_report(right)?);
    if left.scenario() != right.scenario() {
        // Cells of different scenarios are different experiments; a cell-level diff
        // would be meaningless (and, under different grids, mostly "missing cell").
        let render = |t: Option<&str>| t.map_or("no scenario tag".into(), |t| format!("{t:?}"));
        return Err(format!(
            "cannot diff reports from different scenarios: {} vs {}",
            render(left.scenario()),
            render(right.scenario())
        )
        .into());
    }
    let diff = CampaignDiff::between(&left, &right);
    print!("{diff}");
    Ok(if diff.is_empty() { CtlCode::Success } else { CtlCode::Findings })
}

/// `stats`: aggregate a telemetry sidecar into quantiles, top cells and per-axis
/// rollups.
///
/// Takes exactly one path — a `metrics.jsonl` file, or a campaign out-dir
/// containing one. For a directory that also holds a `progress.json` heartbeat
/// (any run), the heartbeat snapshot is summarized first, so `stats` on
/// a *running* shard's out-dir doubles as a liveness check. Aggregation streams
/// the sidecar and validates schema and canonical coordinate order as it goes.
fn stats(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    let [target] = args.files.as_slice() else {
        return Err(CtlError::Usage(format!(
            "stats: expected exactly one path (metrics.jsonl, or a campaign --out \
             directory containing one), got {}",
            args.files.len()
        )));
    };
    let target = PathBuf::from(target);
    let (metrics_path, progress_path) = if target.is_dir() {
        (target.join("metrics.jsonl"), Some(target.join("progress.json")))
    } else {
        (target.clone(), None)
    };
    if let Some(progress_path) = progress_path.filter(|path| path.exists()) {
        let text = std::fs::read_to_string(&progress_path)
            .map_err(|err| format!("cannot read {}: {err}", progress_path.display()))?;
        let progress = parse_progress(&text)
            .map_err(|err| format!("cannot parse {}: {err}", progress_path.display()))?;
        let last = progress.last.map_or_else(|| "none".to_string(), |spec| spec.to_string());
        // The liveness verdict the supervisor automates: a finished shard is
        // complete, a beating pid is running, a dead pid with cells left means
        // the run died and `resume` (or `supervise`) can finish it. Old
        // pre-supervision heartbeats parse with pid 0 — liveness unknown.
        let verdict = if progress.done >= progress.total && progress.total > 0 {
            "complete"
        } else {
            match pid_alive(progress.pid) {
                Some(true) => "running",
                Some(false) => "worker dead; `campaign_ctl resume` finishes it",
                None => "liveness unknown",
            }
        };
        println!(
            "heartbeat: {}/{} cell(s) at {:.1}/s over {:.3}s, last {last} \
             [attempt {}, seq {}, pid {}: {verdict}]",
            progress.done,
            progress.total,
            progress.rate_per_sec,
            progress.wall_seconds,
            progress.attempt,
            progress.seq,
            progress.pid
        );
    }
    let file = File::open(&metrics_path).map_err(|err| {
        format!(
            "cannot read {}: {err} (produce a sidecar with `campaign_ctl run --metrics`)",
            metrics_path.display()
        )
    })?;
    let stats = CampaignStats::from_stream(BufReader::new(file))
        .map_err(|err| format!("cannot aggregate {}: {err}", metrics_path.display()))?;
    print!("{}", stats.render(5));
    Ok(CtlCode::Success)
}

/// Routes a parsed invocation to its subcommand, with the cross-cutting usage
/// gates applied first.
fn dispatch(subcommand: &str, args: &BenchArgs) -> Result<CtlCode, CtlError> {
    // Strict CLI: a mistyped flag (e.g. `--shard 4/3`) must not silently fall back to
    // an unsharded full run — in a CI or fleet context that wastes the whole campaign
    // and can ship a wrong artifact with exit 0.
    if !args.unknown.is_empty() {
        return Err(CtlError::Usage(format!("invalid argument(s): {}", args.unknown.join(", "))));
    }
    // Subcommand-specific flags on the wrong subcommand mean the user mixed up
    // invocations; silently ignoring them could run a different experiment than
    // intended.
    if subcommand != "fuzz"
        && (args.budget.is_some() || args.seed.is_some() || args.replay.is_some() || args.freeze)
    {
        return Err(CtlError::Usage(
            "--budget, --seed, --replay and --freeze only apply to `campaign_ctl fuzz`".into(),
        ));
    }
    if subcommand != "supervise"
        && (args.shards.is_some()
            || args.chaos.is_some()
            || args.max_attempts.is_some()
            || args.backoff_ms.is_some()
            || args.poll_ms.is_some()
            || args.stall_polls.is_some())
    {
        return Err(CtlError::Usage(
            "--shards, --chaos, --max-attempts, --backoff-ms, --poll-ms and \
             --stall-polls only apply to `campaign_ctl supervise`"
                .into(),
        ));
    }
    match subcommand {
        "run" => run(args, false),
        "resume" => run(args, true),
        "supervise" => supervise(args),
        "bench" => bench(args),
        "merge" => merge(args),
        "diff" => diff(args),
        "stats" => stats(args),
        "fuzz" => fuzz(args),
        other => Err(CtlError::Usage(format!(
            "unknown subcommand {other:?}; usage: campaign_ctl \
             <run|resume|supervise|bench|merge|diff|stats|fuzz> [--smoke] [--scenario FILE] \
             [--metrics] [--shard I/K] [--threads N] [--out DIR] \
             [--shards K] [--chaos SPEC] [--max-attempts N] [--backoff-ms MS] \
             [--poll-ms MS] [--stall-polls N] \
             [--budget N] [--seed S] [--replay FILE] [--freeze] \
             [report.json|report.jsonl|metrics.jsonl ...]"
        ))),
    }
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = if raw.is_empty() { String::new() } else { raw.remove(0) };
    let args = BenchArgs::from_args(raw);
    match dispatch(&subcommand, &args) {
        Ok(code) => code.into(),
        Err(err) => {
            eprintln!("campaign_ctl: {}", err.message());
            err.code().into()
        }
    }
}
