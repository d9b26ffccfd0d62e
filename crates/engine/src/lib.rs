//! `bsm-engine` — the parallel scenario-campaign engine.
//!
//! The paper's claims are empirical over a *grid* of settings; this crate turns the
//! deterministic [`bsm_core`] scenario harness into a throughput machine for sweeping
//! that grid:
//!
//! * [`grid`] — [`ScenarioSpec`]: the coordinates of one campaign cell, rebuildable
//!   (and re-runnable) on any worker thread,
//! * [`campaign`] — the [`CampaignBuilder`] DSL: expand sizes × topologies × auth
//!   modes × corruption pairs × adversaries × seeds into an ordered work list,
//! * [`executor`] — scoped worker threads over a shared work queue (`BSM_THREADS`
//!   or [`Executor::threads`]); a reorder buffer hands completed cells to a sink in
//!   canonical order, so every result is **bit-identical across thread counts**,
//! * [`report`] — [`CampaignReport`]: per-cell outcome stats (plan, violations,
//!   slots, messages, signatures) plus aggregate [`Totals`]; wall-clock throughput
//!   lives in the separate [`ExecutionStats`],
//! * [`export`] — hand-rolled streaming writers (no serde), one per format:
//!   [`StreamingExporter`] (`report.jsonl`), [`MergedJsonWriter`] (`report.json`)
//!   and [`StreamingCsvWriter`] (`report.csv`); [`to_json`]/[`to_csv`] collect the
//!   two document writers' output for an in-memory report,
//! * [`import`] — the inverse hand-rolled JSON reader, linear in the input: parse an
//!   exported document back into a [`CampaignReport`] (round-trip exact), or iterate
//!   a streamed shard export lazily with [`StreamingCells`],
//! * [`diff`] — [`CampaignDiff`]: cell-level comparison of two reports, rendering
//!   only the differing cells,
//! * [`scenario_file`] — [`ScenarioFile`]: the declarative TOML-subset scenario
//!   format behind `campaign_ctl run --scenario FILE` (see `docs/SCENARIOS.md`);
//!   a file names the grid axes plus a schedule of network faults (partitions,
//!   crash/recovery, loss, jitter), each fault plan a first-class campaign axis,
//!   and its canonical rendering is the scenario tag embedded in report artifacts,
//! * [`fuzz`] — the violation-guided adversary fuzzer: a seeded search loop over
//!   [`bsm_core::script::Script`] space with worst-case tracking, greedy shrinking
//!   of any violating script, and byte-deterministic logs (`campaign_ctl fuzz`,
//!   see `docs/FUZZING.md`),
//! * [`supervise`] — the crash-tolerance layer: the supervisor loop behind
//!   `campaign_ctl supervise` ([`run_supervisor`]: one worker subprocess per
//!   shard, heartbeat-watched, retried with exponential backoff, quarantined
//!   after bounded attempts), the `supervise.json` summary
//!   ([`SuperviseSummary`]), and deterministic crash injection
//!   ([`ChaosSpec`]/[`CrashPoint`]) for testing supervision against real
//!   SIGKILL-style deaths,
//! * [`telemetry`] — the observability side channel: per-cell attributed cost
//!   records ([`CellTelemetry`]) streamed to a `metrics.jsonl` sidecar, log-bucketed
//!   [`Histogram`]s and `campaign_ctl stats` aggregation ([`CampaignStats`]), and
//!   live `progress.json` shard heartbeats ([`Heartbeat`]), each beat echoed as one
//!   done/total, rate and ETA line on stderr; report artifacts stay byte-identical
//!   with telemetry on or off.
//!
//! # Sharded campaigns
//!
//! Every run takes one path. A campaign can be split across processes or machines
//! with a [`ShardPlan`]: every process expands the same campaign (deterministically —
//! no coordination) and runs its contiguous slice of the canonical work list,
//! [`Campaign::shard`]. [`Executor::run_streaming`] hands each completed cell — in
//! canonical order — to a [`StreamingExporter`], which writes one coordinate-sorted
//! JSON line per cell plus a totals footer, never holding the record vector. The
//! coordinator reads the shard streams back lazily with [`StreamingCells`], merges
//! them with the k-way [`CellMerge`] (a binary heap holding one pending cell per
//! shard), and renders `report.json` with [`MergedJsonWriter`] (and `report.csv`
//! with [`StreamingCsvWriter`]) — byte-identical to a single-process run, as
//! `crates/engine/tests/streaming_merge.rs` proves. A single-process run is the
//! one-shard case of the same flow.
//!
//! ```rust
//! use bsm_engine::{
//!     footer_totals, CampaignBuilder, CellMerge, Executor, MergedJsonWriter, ShardPlan,
//!     StreamingCells, StreamingExporter, Totals,
//! };
//!
//! let campaign = CampaignBuilder::new().sizes([3]).seeds(0..2).build();
//! let executor = Executor::new().threads(2);
//! // Shard side: stream cells to disk as they complete (Vec<u8> stands in for a file).
//! let mut shards: Vec<Vec<u8>> = Vec::new();
//! for index in 0..2 {
//!     let mut buf = Vec::new();
//!     let mut exporter = StreamingExporter::new(&mut buf);
//!     let shard = campaign.shard(ShardPlan::new(index, 2).unwrap());
//!     executor.run_streaming(&shard, |cell| exporter.write_cell(&cell)).unwrap();
//!     exporter.finish().unwrap();
//!     shards.push(buf);
//! }
//! // Coordinator side: sum the footers, then k-way-merge the cell streams.
//! let mut totals = Totals::default();
//! for shard in &shards {
//!     totals += footer_totals(&shard[..]).unwrap();
//! }
//! let mut out = Vec::new();
//! let mut writer = MergedJsonWriter::new(&mut out, totals).unwrap();
//! let streams: Vec<_> = shards.iter().map(|s| StreamingCells::new(&s[..])).collect();
//! for cell in CellMerge::new(streams) {
//!     writer.write_cell(&cell.unwrap()).unwrap();
//! }
//! writer.finish().unwrap();
//! // Byte-identical to the unsharded run.
//! let (whole, _) = executor.run(&campaign);
//! assert_eq!(String::from_utf8(out).unwrap(), bsm_engine::to_json(&whole));
//! ```
//!
//! # Crash recovery
//!
//! A shard that dies mid-stream leaves a truncated JSONL export behind.
//! [`StreamingCells::salvage`] reads back its valid ordered cell prefix (stopping
//! cleanly at the first broken or missing line instead of erroring), and running
//! [`Campaign::slice`] of the un-run tail of the shard's range —
//! [`ShardPlan::remainder`] computes it — splices the salvaged prefix and the fresh
//! cells into an export byte-identical to an uninterrupted run. Final artifacts are
//! published with [`AtomicFile`] / [`atomic_write`] (temp file + atomic rename), so a
//! crash can never leave a truncated file at a tracked path.
//!
//! # Quickstart
//!
//! ```rust
//! use bsm_engine::{CampaignBuilder, Executor};
//!
//! let campaign = CampaignBuilder::new()
//!     .sizes([3, 4])
//!     .corruptions([(0, 0), (1, 1)])
//!     .seeds(0..3)
//!     .build();
//! let (report, stats) = Executor::new().threads(2).run(&campaign);
//! assert_eq!(report.totals().scenarios, campaign.len());
//! assert_eq!(stats.scenarios, campaign.len());
//! // Same campaign, different thread count: bit-identical export.
//! let (again, _) = Executor::new().threads(1).run(&campaign);
//! assert_eq!(bsm_engine::export::to_json(&report), bsm_engine::export::to_json(&again));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod executor;
pub mod export;
pub mod fuzz;
pub mod grid;
pub mod import;
pub mod report;
pub mod scenario_file;
pub mod supervise;
pub mod telemetry;

pub use campaign::{Campaign, CampaignBuilder};
pub use diff::{CampaignDiff, CellDiff};
pub use executor::{Executor, THREADS_ENV};
pub use export::{
    atomic_write, cell_json, csv_row, sweep_stale_tmp, to_csv, to_json, totals_json, AtomicFile,
    MergedJsonWriter, StreamError, StreamingCsvWriter, StreamingExporter,
};
pub use fuzz::{run_fuzz, shrink, violation_signature, FoundViolation, FuzzConfig, FuzzReport};
pub use grid::{ScenarioSpec, ShardPlan, ShardPlanError};
pub use import::{
    footer_meta, footer_totals, from_json, from_jsonl, ImportError, SalvagedPrefix, StreamingCells,
};
pub use report::{
    CampaignReport, CellMerge, CellMergeError, CellOutcome, CellRecord, CellStats, ExecutionStats,
    Totals,
};
pub use scenario_file::{ScenarioError, ScenarioFile};
pub use supervise::{
    parse_supervise, run_supervisor, AttemptOutcome, AttemptRecord, ChaosSpec, CrashMode,
    CrashPoint, QuarantinedShard, SuperviseConfig, SuperviseSummary,
};
pub use telemetry::{
    parse_progress, parse_telemetry_line, CampaignStats, CellTelemetry, Heartbeat, Histogram,
    ProgressSnapshot, TelemetryCells, TelemetryExporter,
};

// Campaign-friendliness audit: everything the executor moves across worker threads
// must be Send + Sync. Failing this compiles-time check means a core type regressed
// (e.g. an Rc sneaked into the harness).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<bsm_core::problem::Setting>();
    assert_send_sync::<bsm_core::harness::Scenario>();
    assert_send_sync::<bsm_core::harness::ScenarioOutcome>();
    assert_send_sync::<ScenarioSpec>();
    assert_send_sync::<Campaign>();
    assert_send_sync::<CellRecord>();
    assert_send_sync::<CampaignReport>();
    assert_send_sync::<ShardPlan>();
    assert_send_sync::<CampaignDiff>();
};
