//! Calls into the workspace crates, each timed from outside: one campaign cell
//! replayed call by call, the coordinator's read side (streamed merge, import,
//! diff), and isolated probes of the broadcast and crypto primitives.
//!
//! With a disabled [`Tracer`] these functions are the untraced code path; with an
//! enabled one they record a span around every public call they make.

use crate::trace::Tracer;
use bsm_broadcast::{
    Committee, CommitteeBroadcast, CommitteeBroadcastConfig, DolevStrong, DolevStrongConfig,
    PhaseKing,
};
use bsm_core::harness::{Scenario, ScenarioOutcome};
use bsm_core::problem::BsmInstance;
use bsm_core::solvability::{characterize, Solvability};
use bsm_crypto::{counters, CounterSnapshot, Digest, KeyId, Pki};
use bsm_engine::{
    footer_totals, from_json, Campaign, CampaignDiff, CellMerge, CellOutcome, CellRecord,
    CellStats, Executor, MergedJsonWriter, ShardPlan, StreamingCells, StreamingCsvWriter,
    StreamingExporter, Totals,
};
use bsm_net::{CorruptionBudget, PartyId, PartySet, RoundDriver, SyncNetwork, Topology};
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Deterministic work counted over one pass of a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub completed: u64,
    pub unsolvable: u64,
    pub failed: u64,
    pub messages: u64,
    pub slots: u64,
    pub delivered: u64,
    pub rejected: u64,
    pub honest_max_fanout: u64,
    pub signatures_issued: u64,
    pub crypto: CounterSnapshot,
}

impl Counters {
    pub fn from_totals(totals: &Totals, crypto: CounterSnapshot) -> Self {
        Counters {
            completed: totals.completed as u64,
            unsolvable: totals.unsolvable as u64,
            failed: totals.failed as u64,
            messages: totals.messages,
            slots: totals.slots,
            signatures_issued: totals.signatures,
            crypto,
            ..Counters::default()
        }
    }
}

/// Adds a problem for every cell that is not a clean completion: it must complete
/// with zero violations and every honest party decided. Unsolvable cells are
/// allowed only when `allow_unsolvable` (the report workload's grid has them).
pub fn check_cell(cell: &CellRecord, allow_unsolvable: bool, problems: &mut Vec<String>) {
    let coordinate = cell.spec;
    match &cell.outcome {
        CellOutcome::Completed(stats) if stats.violations == 0 && stats.all_honest_decided => {}
        CellOutcome::Completed(stats) => problems.push(format!(
            "cell {coordinate}: {} violation(s), all honest decided = {}",
            stats.violations, stats.all_honest_decided
        )),
        CellOutcome::Unsolvable { .. } if allow_unsolvable => {}
        CellOutcome::Unsolvable { theorem, .. } => {
            problems.push(format!("cell {coordinate}: unexpectedly unsolvable ({theorem})"))
        }
        CellOutcome::Failed { message } => {
            problems.push(format!("cell {coordinate}: failed: {message}"))
        }
    }
}

/// The `report.jsonl` + `report.csv` pair a streamed `campaign_ctl run` writes.
struct StreamedReport {
    jsonl: StreamingExporter<BufWriter<File>>,
    csv: StreamingCsvWriter<BufWriter<File>>,
}

impl StreamedReport {
    fn create(dir: &Path) -> Result<Self, String> {
        let open = |name: &str| {
            File::create(dir.join(name))
                .map(BufWriter::new)
                .map_err(|err| format!("cannot write {}: {err}", dir.join(name).display()))
        };
        let jsonl = StreamingExporter::new(open("report.jsonl")?);
        let csv = StreamingCsvWriter::new(open("report.csv")?).map_err(|err| err.to_string())?;
        Ok(Self { jsonl, csv })
    }

    fn write(&mut self, cell: &CellRecord) -> Result<(), bsm_engine::StreamError> {
        self.jsonl.write_cell(cell)?;
        self.csv.write_cell(cell)
    }

    fn finish(self) -> Result<(), String> {
        self.jsonl.finish().map_err(|err| err.to_string())?;
        self.csv.finish().map_err(|err| err.to_string())
    }
}

/// One pass over a campaign: its wall time (oracle re-timing excluded) and counters.
pub struct Pass {
    pub elapsed: Duration,
    pub counters: Counters,
}

/// Runs `campaign` on the executor, streaming each cell to `dir/report.jsonl` and
/// `dir/report.csv` from the emit closure, as `campaign_ctl run --stream` does.
pub fn executor_pass(
    executor: &Executor,
    campaign: &Campaign,
    dir: &Path,
    allow_unsolvable: bool,
    problems: &mut Vec<String>,
) -> Result<Pass, String> {
    let before = counters::snapshot();
    let start = Instant::now();
    let mut out = StreamedReport::create(dir)?;
    let (totals, _) = executor
        .run_streaming(campaign, |cell| {
            check_cell(&cell, allow_unsolvable, problems);
            out.write(&cell)
        })
        .map_err(|err| format!("streamed export failed: {err}"))?;
    out.finish()?;
    let elapsed = start.elapsed();
    Ok(Pass { elapsed, counters: Counters::from_totals(&totals, counters::snapshot() - before) })
}

/// Replays `campaign` on this thread through the calls the executor makes per cell,
/// streaming the same two files as [`executor_pass`] and returning the records.
///
/// Each cell gets a `bench.cell` span with one child per call; the cell's index is
/// the id of all of them. `check_bsm` and Gale–Shapley are then re-timed on the
/// cell's outputs in spans of their own, outside the cell span and outside the
/// pass time.
pub fn replay_pass(
    tracer: &mut Tracer,
    campaign: &Campaign,
    dir: &Path,
    allow_unsolvable: bool,
    problems: &mut Vec<String>,
) -> Result<(Pass, Vec<CellRecord>), String> {
    let start = Instant::now();
    let mut retiming = Duration::ZERO;
    let mut out = StreamedReport::create(dir)?;
    let mut counters = Counters::default();
    let mut records = Vec::with_capacity(campaign.len());
    for (index, &spec) in campaign.specs().iter().enumerate() {
        let id = index as u64;
        let cell = tracer.begin("bench.cell", id);
        let before = counters::thread_snapshot();
        let (outcome, run) = replay_cell(tracer, id, spec);
        counters.crypto = add(counters.crypto, counters::thread_snapshot() - before);
        let record = CellRecord { spec, outcome };
        tracer
            .time("engine.export.write_cell", id, || out.write(&record))
            .map_err(|err| format!("streamed export failed: {err}"))?;
        tracer.end(cell);
        check_cell(&record, allow_unsolvable, problems);
        match &record.outcome {
            CellOutcome::Completed(stats) => {
                counters.completed += 1;
                counters.messages += stats.messages;
                counters.slots += stats.slots;
                counters.signatures_issued += stats.signatures;
            }
            CellOutcome::Unsolvable { .. } => counters.unsolvable += 1,
            CellOutcome::Failed { .. } => counters.failed += 1,
        }
        if let Some((scenario, outcome)) = run {
            let metrics = &outcome.metrics;
            counters.delivered += metrics.delivered_messages;
            counters.rejected += metrics.rejected_by_topology;
            let fanout = metrics.fanout_by_role(&outcome.corrupted).honest.max;
            counters.honest_max_fanout = counters.honest_max_fanout.max(fanout);
            if tracer.enabled() {
                let retime = Instant::now();
                retime_oracles(tracer, id, &scenario, &outcome);
                retiming += retime.elapsed();
            }
        }
        records.push(record);
    }
    out.finish()?;
    Ok((Pass { elapsed: start.elapsed() - retiming, counters }, records))
}

fn add(a: CounterSnapshot, b: CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        digests_computed: a.digests_computed + b.digests_computed,
        signatures_verified: a.signatures_verified + b.signatures_verified,
        verify_cache_hits: a.verify_cache_hits + b.verify_cache_hits,
    }
}

/// `setting` → `characterize` → `build_scenario` → `run_with_plan`, building the
/// outcome exactly as the executor's cell runner does so the exported bytes match.
fn replay_cell(
    tracer: &mut Tracer,
    id: u64,
    spec: bsm_engine::ScenarioSpec,
) -> (CellOutcome, Option<(Scenario, ScenarioOutcome)>) {
    let setting = match tracer.time("core.problem.setting", id, || spec.setting()) {
        Ok(setting) => setting,
        Err(err) => return (CellOutcome::Failed { message: err.to_string() }, None),
    };
    let plan = match tracer.time("core.solvability.characterize", id, || characterize(&setting)) {
        Solvability::Solvable(plan) => plan,
        Solvability::Unsolvable(imp) => {
            let outcome =
                CellOutcome::Unsolvable { theorem: imp.theorem.to_string(), reason: imp.reason };
            return (outcome, None);
        }
    };
    let scenario = match tracer.time("core.harness.build_scenario", id, || spec.build_scenario()) {
        Ok(scenario) => scenario,
        Err(err) => return (CellOutcome::Failed { message: err.to_string() }, None),
    };
    match tracer.time("core.harness.run_with_plan", id, || scenario.run_with_plan(plan)) {
        Ok(run) => {
            let stats = CellStats {
                plan: run.plan,
                all_honest_decided: run.all_honest_decided,
                violations: run.violations.len(),
                slots: run.slots,
                messages: run.metrics.total_messages(),
                signatures: run.signatures,
            };
            (CellOutcome::Completed(stats), Some((scenario, run)))
        }
        Err(err) => (CellOutcome::Failed { message: err.to_string() }, None),
    }
}

/// Re-times the property oracle and Gale–Shapley on one cell's inputs and outputs.
fn retime_oracles(tracer: &mut Tracer, id: u64, scenario: &Scenario, outcome: &ScenarioOutcome) {
    let instance = BsmInstance::new(scenario.profile().clone(), outcome.corrupted.clone());
    let violations = tracer.time("core.properties.check_bsm", id, || {
        bsm_core::check_bsm(black_box(&instance), black_box(&outcome.outputs))
    });
    black_box(violations);
    let matching = tracer.time("matching.gale_shapley_left", id, || {
        bsm_matching::gale_shapley::gale_shapley_left(black_box(scenario.profile()))
    });
    black_box(matching);
}

/// Shards the coordinator reads back.
const SHARDS: usize = 3;

/// The coordinator's inputs: `SHARDS` streamed shard exports plus the
/// single-process `report.json` of the same campaign.
pub struct ReportFiles {
    shards: Vec<PathBuf>,
    single: PathBuf,
    merged: PathBuf,
    pub cells: usize,
}

impl ReportFiles {
    /// Where the files of a campaign of `cells` cells live under `dir`.
    pub fn in_dir(dir: &Path, cells: usize) -> Self {
        let shards = (1..=SHARDS).map(|i| dir.join(format!("shard{i}.jsonl"))).collect();
        Self { shards, single: dir.join("report.json"), merged: dir.join("merged"), cells }
    }

    /// Writes the shard streams and the single-process report for `records`, the
    /// canonical-order cells of one campaign. Each shard file holds exactly what
    /// `campaign_ctl run --stream --shard i/K` writes for its slice.
    pub fn write(dir: &Path, records: Vec<CellRecord>) -> Result<Self, String> {
        let files = Self::in_dir(dir, records.len());
        let io = |path: &Path, err: &dyn std::fmt::Display| format!("{}: {err}", path.display());
        for (index, path) in files.shards.iter().enumerate() {
            let plan = ShardPlan::new(index, SHARDS).expect("shard index is below the count");
            let file = File::create(path).map_err(|err| io(path, &err))?;
            let mut exporter = StreamingExporter::new(BufWriter::new(file));
            for cell in &records[plan.range(records.len())] {
                exporter.write_cell(cell).map_err(|err| io(path, &err))?;
            }
            exporter.finish().map_err(|err| io(path, &err))?;
        }
        let json = bsm_engine::to_json(&bsm_engine::CampaignReport::new(records));
        std::fs::write(&files.single, json).map_err(|err| io(&files.single, &err))?;
        std::fs::create_dir_all(&files.merged).map_err(|err| io(&files.merged, &err))?;
        Ok(files)
    }
}

/// Wall time of the two coordinator operations of one read pass.
pub struct ReadPass {
    pub merge: Duration,
    pub diff: Duration,
}

/// One coordinator read: the streamed k-way merge of the shard exports into
/// `merged/report.json` + `merged/report.csv` (as `merge --stream`), then import of
/// the merged and the single-process report and their cell diff (as `diff`).
///
/// The merged document must be byte-identical to the single-process one and the
/// diff must be empty; anything else is added to `problems`.
pub fn read_pass(
    tracer: &mut Tracer,
    id: u64,
    files: &ReportFiles,
    problems: &mut Vec<String>,
) -> Result<ReadPass, String> {
    let pass = tracer.begin("bench.read_pass", id);
    let start = Instant::now();
    tracer.time("engine.report.merge", id, || merge_streams(files))?;
    let merge = start.elapsed();

    let start = Instant::now();
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))
    };
    let merged_path = files.merged.join("report.json");
    let (merged_text, single_text) = (read(&merged_path)?, read(&files.single)?);
    let left = tracer.time("engine.import.from_json", id, || from_json(&merged_text));
    let right = tracer.time("engine.import.from_json", id, || from_json(&single_text));
    let (left, right) =
        (left.map_err(|err| err.to_string())?, right.map_err(|err| err.to_string())?);
    let diff = tracer.time("engine.diff.between", id, || CampaignDiff::between(&left, &right));
    let diff_time = start.elapsed();
    tracer.end(pass);

    if merged_text != single_text {
        problems.push("streamed merge is not byte-identical to the single-process report".into());
    }
    if !diff.is_empty() || diff.cells_compared() != files.cells {
        problems.push(format!(
            "diff: {} differing cell(s) of {} compared, expected 0 of {}",
            diff.len(),
            diff.cells_compared(),
            files.cells
        ));
    }
    Ok(ReadPass { merge, diff: diff_time })
}

/// `merge --stream`: sum the shard footers, then k-way merge the cell streams into
/// the merged JSON document and CSV.
fn merge_streams(files: &ReportFiles) -> Result<(), String> {
    let open = |path: &Path| {
        File::open(path).map(BufReader::new).map_err(|err| format!("{}: {err}", path.display()))
    };
    let mut declared = Totals::default();
    for path in &files.shards {
        declared += footer_totals(open(path)?).map_err(|err| err.to_string())?;
    }
    let streams = files
        .shards
        .iter()
        .map(|path| open(path).map(StreamingCells::new))
        .collect::<Result<_, _>>()?;
    let create = |name: &str| {
        let path = files.merged.join(name);
        File::create(&path).map(BufWriter::new).map_err(|err| format!("{}: {err}", path.display()))
    };
    let mut json =
        MergedJsonWriter::new(create("report.json")?, declared).map_err(|err| err.to_string())?;
    let mut csv = StreamingCsvWriter::new(create("report.csv")?).map_err(|err| err.to_string())?;
    for cell in CellMerge::new(streams) {
        let cell = cell.map_err(|err| format!("streamed merge failed: {err}"))?;
        json.write_cell(&cell).map_err(|err| err.to_string())?;
        csv.write_cell(&cell).map_err(|err| err.to_string())?;
    }
    json.finish().map_err(|err| err.to_string())?;
    csv.finish().map_err(|err| err.to_string())
}

/// Reads every shard stream with `StreamingCells` alone (no merge, no writers), so
/// the stream parser's share of the merge can be told apart.
pub fn stream_read_probe(tracer: &mut Tracer, id: u64, files: &ReportFiles) -> Result<(), String> {
    for path in &files.shards {
        let file = File::open(path).map_err(|err| format!("{}: {err}", path.display()))?;
        tracer.time("engine.import.streaming_cells", id, || {
            StreamingCells::new(BufReader::new(file))
                .try_for_each(|cell| cell.map(|cell| drop(black_box(cell))))
                .map_err(|err| format!("{}: {err}", path.display()))
        })?;
    }
    Ok(())
}

/// Largest Dolev–Strong instance of the mesh workload: k = 14 per side, and
/// t = tL + tR = 10 as the harness sets it.
const DS_PROBE: (usize, usize) = (14, 10);
/// Committee and phase-king size of the relay workload's largest cells.
const COMMITTEE_PROBE: (usize, usize) = (7, 2);

/// Median wall time and message count of one broadcast-primitive instance.
pub struct InstanceProbe {
    pub median_ns: f64,
    pub messages: u64,
}

/// Runs each broadcast primitive `reps` times through its public constructor and
/// the synchronous simulator, one span per instance.
pub fn broadcast_probes(tracer: &mut Tracer, reps: usize) -> BTreeMap<&'static str, InstanceProbe> {
    let (ds_k, ds_t) = DS_PROBE;
    let (committee_k, committee_t) = COMMITTEE_PROBE;
    BTreeMap::from([
        (
            "dolev_strong",
            instance_probe(tracer, reps, "broadcast.dolev_strong.instance", || {
                run_dolev_strong(ds_k, ds_t)
            }),
        ),
        (
            "committee",
            instance_probe(tracer, reps, "broadcast.committee.instance", || {
                run_committee_broadcast(committee_k, committee_t)
            }),
        ),
        (
            "phase_king",
            instance_probe(tracer, reps, "broadcast.phase_king.instance", || {
                run_phase_king(committee_k, committee_t)
            }),
        ),
    ])
}

fn instance_probe(
    tracer: &mut Tracer,
    reps: usize,
    span: &'static str,
    run: impl Fn() -> u64,
) -> InstanceProbe {
    let mut times = Vec::with_capacity(reps);
    let mut messages = 0;
    for rep in 0..reps {
        let start = Instant::now();
        messages = tracer.time(span, rep as u64, &run);
        times.push(start.elapsed().as_nanos() as f64);
    }
    InstanceProbe { median_ns: crate::trace::median(&times), messages }
}

fn run_dolev_strong(k: usize, t: usize) -> u64 {
    let parties = PartySet::new(k);
    let pki = Pki::new(2 * k as u32);
    let key_of: BTreeMap<PartyId, KeyId> =
        parties.iter().map(|p| (p, KeyId(p.dense(k) as u32))).collect();
    let sender = PartyId::left(0);
    let mut net: SyncNetwork<bsm_broadcast::DolevStrongMsg<u64>, u64> =
        SyncNetwork::new(k, Topology::FullyConnected, CorruptionBudget::NONE);
    for party in parties.iter() {
        let config = DolevStrongConfig {
            me: party,
            sender,
            participants: parties.iter().collect(),
            t,
            instance: 1,
            pki: pki.clone(),
            key_of: key_of.clone(),
        };
        let key = pki.signing_key(key_of[&party].0).expect("every party has a key");
        let input = if party == sender { Some(99) } else { None };
        let protocol = DolevStrong::new(config, key, input, 0);
        net.register(Box::new(RoundDriver::new(party, protocol))).expect("fresh party");
    }
    net.run(100).expect("honest Dolev-Strong terminates").metrics.total_messages()
}

fn run_committee_broadcast(k: usize, t: usize) -> u64 {
    let parties = PartySet::new(k);
    let committee = Committee::new(parties.left().collect(), t);
    let sender = PartyId::right(0);
    let mut net: SyncNetwork<bsm_broadcast::CommitteeMsg<u64>, u64> =
        SyncNetwork::new(k, Topology::FullyConnected, CorruptionBudget::NONE);
    for party in parties.iter() {
        let config = CommitteeBroadcastConfig {
            me: party,
            sender,
            committee: committee.clone(),
            all_parties: parties.iter().collect(),
            default: 0,
        };
        let protocol = CommitteeBroadcast::new(config, if party == sender { 99 } else { 0 });
        net.register(Box::new(RoundDriver::new(party, protocol))).expect("fresh party");
    }
    net.run(200).expect("honest committee broadcast terminates").metrics.total_messages()
}

fn run_phase_king(k: usize, t: usize) -> u64 {
    let parties = PartySet::new(k);
    let committee = Committee::new(parties.left().collect(), t);
    let mut net: SyncNetwork<bsm_broadcast::KingMsg<u64>, u64> =
        SyncNetwork::new(k, Topology::FullyConnected, CorruptionBudget::NONE);
    for party in parties.iter() {
        if party.is_left() {
            let protocol = PhaseKing::new(committee.clone(), party, u64::from(party.index % 2));
            net.register(Box::new(RoundDriver::new(party, protocol))).expect("fresh party");
        } else {
            net.register(Box::new(bsm_net::SilentProcess::new(party))).expect("fresh party");
        }
    }
    for _ in 0..=PhaseKing::<u64>::total_rounds(&committee) {
        net.step();
    }
    net.metrics().total_messages()
}

/// Median nanoseconds per call of an uncached signature verification and of a
/// 256-byte digest, each timed in `batches` batches of `per_batch` calls.
pub fn crypto_probes(tracer: &mut Tracer, batches: usize, per_batch: usize) -> (f64, f64) {
    let pki = Pki::new(2);
    let digest = Digest::of_bytes(b"perfbench probe message");
    let signature = pki.signing_key(0).expect("key 0 exists").sign(digest);
    let payload = [0x5au8; 256];
    let mut verify = Vec::with_capacity(batches);
    let mut hash = Vec::with_capacity(batches);
    for batch in 0..batches {
        let id = batch as u64;
        let start = Instant::now();
        tracer.time("cryptosim.pki.verify", id, || {
            for _ in 0..per_batch {
                assert!(pki.verify(black_box(&signature), black_box(digest)));
            }
        });
        verify.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
        let start = Instant::now();
        tracer.time("cryptosim.digest.of_bytes", id, || {
            for _ in 0..per_batch {
                black_box(Digest::of_bytes(black_box(&payload)));
            }
        });
        hash.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    (crate::trace::median(&verify), crate::trace::median(&hash))
}
