//! The multi-threaded campaign executor.
//!
//! Workers are `std::thread` scoped threads over a shared work queue (an atomic cursor
//! into the campaign's canonical work list). Every result is keyed by its index in
//! that list, and a reorder buffer hands the results to the caller's sink **in
//! canonical order**, so everything built from the cell stream — a streamed
//! `report.jsonl`, the collected [`CampaignReport`] — is **bit-identical regardless
//! of the thread count** or of which worker happened to run which cell.
//!
//! There is one scheduler ([`Executor::run_streaming_telemetry`]) and one cell runner;
//! [`Executor::run_streaming`] drops the telemetry and [`Executor::run`] collects the
//! records. Callers that want part of a campaign pass [`Campaign::shard`] or
//! [`Campaign::slice`].
//!
//! The thread count comes from (in order of precedence) [`Executor::threads`], the
//! `BSM_THREADS` environment variable, and the machine's available parallelism.

use crate::campaign::Campaign;
use crate::grid::ScenarioSpec;
use crate::report::{CampaignReport, CellOutcome, CellRecord, CellStats, ExecutionStats, Totals};
use crate::telemetry::CellTelemetry;
use bsm_core::solvability::{characterize, Solvability};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Name of the environment variable that overrides the default worker-thread count.
pub const THREADS_ENV: &str = "BSM_THREADS";

/// Runs campaigns on a worker pool.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Creates an executor with the default thread count: `BSM_THREADS` when set to a
    /// positive integer, otherwise the machine's available parallelism.
    pub fn new() -> Self {
        let threads = parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self { threads }
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Runs every cell of `campaign` and collects the results in canonical order:
    /// [`run_streaming`](Self::run_streaming) with a sink that keeps every record.
    ///
    /// Unsolvable cells are recorded (not errors); cells that fail to build or run are
    /// recorded as failed. The returned [`ExecutionStats`] carries the wall-clock side
    /// of the run and is intentionally not part of the deterministic report.
    pub fn run(&self, campaign: &Campaign) -> (CampaignReport, ExecutionStats) {
        let mut cells = Vec::with_capacity(campaign.len());
        let collect = |cell| {
            cells.push(cell);
            Ok::<(), Infallible>(())
        };
        let Ok((_, stats)) = self.run_streaming(campaign, collect);
        (CampaignReport::new(cells), stats)
    }

    /// Runs every cell of `campaign`, delivering each completed [`CellRecord`] to
    /// `sink` **in canonical order** and then dropping it — the full record vector is
    /// never materialized. Aggregate counters are folded into a rolling [`Totals`],
    /// returned alongside the [`ExecutionStats`].
    ///
    /// # Errors
    ///
    /// The first error the sink returns aborts the run and is passed through;
    /// in-flight cells are finished and discarded.
    pub fn run_streaming<E>(
        &self,
        campaign: &Campaign,
        mut sink: impl FnMut(CellRecord) -> Result<(), E>,
    ) -> Result<(Totals, ExecutionStats), E> {
        self.run_streaming_telemetry(campaign, |record, _| sink(record))
    }

    /// The scheduler: [`run_streaming`](Self::run_streaming) where the sink also
    /// receives each cell's [`CellTelemetry`], in the same canonical order as the
    /// records.
    ///
    /// The telemetry is produced whether or not the sink keeps it, and nothing about
    /// the record sequence or the folded [`Totals`] depends on it, so a sink that
    /// ignores its second argument emits exactly the artifacts one that keeps it does.
    ///
    /// Workers run cells in parallel and complete them out of order; a reorder buffer
    /// holds cells finished ahead of the emission frontier, and a **bounded** channel
    /// applies backpressure: when the sink (e.g. a slow disk) falls behind, workers
    /// block instead of piling completed cells into memory, so cells ahead of the
    /// frontier stay bounded by a small multiple of the worker count. (Only a
    /// pathologically slow *head* cell can grow the buffer beyond that — emission
    /// cannot pass it, but the cells behind it must be received to reach it.)
    ///
    /// # Errors
    ///
    /// The first error the sink returns, as in [`run_streaming`](Self::run_streaming).
    pub fn run_streaming_telemetry<E>(
        &self,
        campaign: &Campaign,
        mut sink: impl FnMut(CellRecord, CellTelemetry) -> Result<(), E>,
    ) -> Result<(Totals, ExecutionStats), E> {
        let start = Instant::now();
        let specs = campaign.specs();
        let total = specs.len();
        let workers = self.threads.min(total);
        let cursor = AtomicUsize::new(0);
        let mut totals = Totals::default();
        let mut failure: Option<E> = None;

        std::thread::scope(|scope| {
            // Bounded: a sink slower than the workers must throttle them, not let
            // completed cells accumulate toward O(campaign). Two slots per worker
            // keeps the pipeline full.
            let (tx, rx) = mpsc::sync_channel(workers.max(1) * 2);
            let cursor = &cursor;
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= total {
                        break;
                    }
                    // A send error means the receiver gave up (sink failure): stop.
                    if tx.send((idx, run_cell(specs[idx]))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Reorder buffer: cells completed ahead of the emission frontier wait
            // here; `next` is the index the canonical order emits next.
            let mut pending = BTreeMap::new();
            let mut next = 0usize;
            'receive: for (idx, cell) in rx {
                pending.insert(idx, cell);
                while let Some((record, telemetry)) = pending.remove(&next) {
                    totals.record(&record.outcome);
                    if let Err(err) = sink(record, telemetry) {
                        failure = Some(err);
                        break 'receive;
                    }
                    next += 1;
                }
            }
            // On failure the receiver is dropped here; workers exit on their next
            // send, and the scope joins them.
        });
        if let Some(err) = failure {
            return Err(err);
        }
        let stats =
            ExecutionStats { threads: workers.max(1), scenarios: total, elapsed: start.elapsed() };
        Ok((totals, stats))
    }
}

/// Runs one campaign cell — characterize, then execute the prescribed plan — and
/// attributes its cost: the crypto-counter delta is the *worker thread's*
/// thread-local delta around the cell — exact under any thread count, because each
/// cell runs start to finish on the one thread that claimed it (see
/// [`bsm_crypto::counters::thread_snapshot`]).
///
/// The instrumentation reads state the run drops anyway (the thread counters,
/// [`Metrics`] breakdown and corrupted set of the outcome), so it never changes the
/// [`CellRecord`].
///
/// [`Metrics`]: bsm_net::Metrics
fn run_cell(spec: ScenarioSpec) -> (CellRecord, CellTelemetry) {
    let before = bsm_crypto::counters::thread_snapshot();
    let start = Instant::now();
    let (outcome, telemetry) = match spec.setting() {
        Err(err) => (CellOutcome::Failed { message: err.to_string() }, None),
        Ok(setting) => match characterize(&setting) {
            Solvability::Unsolvable(imp) => (
                CellOutcome::Unsolvable { theorem: imp.theorem.to_string(), reason: imp.reason },
                None,
            ),
            Solvability::Solvable(plan) => {
                match spec.build_scenario().and_then(|s| s.run_with_plan(plan)) {
                    Ok(run) => {
                        let stats = CellStats {
                            plan: run.plan,
                            all_honest_decided: run.all_honest_decided,
                            violations: run.violations.len(),
                            slots: run.slots,
                            messages: run.metrics.total_messages(),
                            signatures: run.signatures,
                        };
                        let metrics = &run.metrics;
                        let telemetry = CellTelemetry {
                            spec,
                            status: "completed",
                            crypto: bsm_crypto::CounterSnapshot::default(), // filled below
                            messages: metrics.total_messages(),
                            delivered: metrics.delivered_messages,
                            dropped: metrics.dropped_by_faults,
                            delayed: metrics.delayed_by_faults,
                            rejected: metrics.rejected_by_topology,
                            slots: metrics.slots,
                            fanout: metrics.fanout_by_role(&run.corrupted),
                            wall_nanos: 0, // filled below
                        };
                        (CellOutcome::Completed(stats), Some(telemetry))
                    }
                    Err(err) => (CellOutcome::Failed { message: err.to_string() }, None),
                }
            }
        },
    };
    let crypto = bsm_crypto::counters::thread_snapshot() - before;
    let wall_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let telemetry = match telemetry {
        Some(partial) => CellTelemetry { crypto, wall_nanos, ..partial },
        None => CellTelemetry::without_run(spec, outcome.status(), crypto, wall_nanos),
    };
    (CellRecord { spec, outcome }, telemetry)
}

/// Parses a `BSM_THREADS`-style value; `None` for unset, empty, zero or non-numeric.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use crate::grid::ShardPlan;
    use bsm_core::harness::AdversarySpec;
    use bsm_core::problem::AuthMode;
    use bsm_net::Topology;

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-1")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn thread_count_is_clamped_and_reported() {
        assert_eq!(Executor::new().threads(0).thread_count(), 1);
        assert_eq!(Executor::new().threads(3).thread_count(), 3);
    }

    #[test]
    fn campaign_reports_are_identical_across_thread_counts() {
        let campaign =
            CampaignBuilder::new().sizes([2, 3]).corruptions([(0, 0), (1, 1)]).seeds(0..2).build();
        let (serial, _) = Executor::new().threads(1).run(&campaign);
        let (parallel, stats) = Executor::new().threads(4).run(&campaign);
        assert_eq!(serial, parallel);
        assert_eq!(stats.scenarios, campaign.len());
    }

    #[test]
    fn shard_runs_cover_exactly_the_shard_slice() {
        let campaign = CampaignBuilder::new().sizes([2, 3]).seeds(0..2).build();
        let executor = Executor::new().threads(2);
        let (whole, _) = executor.run(&campaign);
        let mut rejoined = Vec::new();
        for index in 0..3 {
            let plan = ShardPlan::new(index, 3).unwrap();
            let (report, stats) = executor.run(&campaign.shard(plan));
            assert_eq!(stats.scenarios, plan.range(campaign.len()).len());
            rejoined.extend_from_slice(report.cells());
        }
        assert_eq!(rejoined, whole.cells(), "shard runs diverge from the whole run");
    }

    #[test]
    fn streaming_run_emits_the_in_memory_cell_sequence_without_retaining_it() {
        let campaign =
            CampaignBuilder::new().sizes([2, 3]).corruptions([(0, 0), (1, 1)]).seeds(0..2).build();
        let (reference, _) = Executor::new().threads(1).run(&campaign);
        let mut streamed = Vec::new();
        let (totals, stats) = Executor::new()
            .threads(4)
            .run_streaming(&campaign, |cell| {
                streamed.push(cell);
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
        assert_eq!(streamed, reference.cells());
        assert_eq!(totals, reference.totals());
        assert_eq!(stats.scenarios, campaign.len());
    }

    #[test]
    fn streaming_shard_runs_cover_exactly_the_shard_slice() {
        let campaign = CampaignBuilder::new().sizes([2, 3]).seeds(0..2).build();
        let executor = Executor::new().threads(2);
        let (whole, _) = executor.run(&campaign);
        let mut rejoined = Vec::new();
        let mut summed = Totals::default();
        for index in 0..3 {
            let plan = ShardPlan::new(index, 3).unwrap();
            let (totals, stats) = executor
                .run_streaming(&campaign.shard(plan), |cell| {
                    rejoined.push(cell);
                    Ok::<(), std::convert::Infallible>(())
                })
                .unwrap();
            assert_eq!(stats.scenarios, plan.range(campaign.len()).len());
            summed += totals;
        }
        assert_eq!(rejoined, whole.cells());
        assert_eq!(summed, whole.totals());
    }

    #[test]
    fn range_runs_splice_into_the_uninterrupted_shard_sequence() {
        let campaign = CampaignBuilder::new().sizes([2, 3]).seeds(0..2).build();
        let executor = Executor::new().threads(2);
        let plan = ShardPlan::new(1, 3).unwrap();
        let mut uninterrupted = Vec::new();
        executor
            .run_streaming(&campaign.shard(plan), |cell| {
                uninterrupted.push(cell);
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
        // Pretend the first `done` cells survived a crash; re-run only the tail.
        for done in 0..=uninterrupted.len() {
            let remainder = plan.remainder(campaign.len(), done);
            let mut spliced = uninterrupted[..done].to_vec();
            let (totals, stats) = executor
                .run_streaming(&campaign.slice(remainder), |cell| {
                    spliced.push(cell);
                    Ok::<(), std::convert::Infallible>(())
                })
                .unwrap();
            assert_eq!(spliced, uninterrupted, "splice after {done} cells diverged");
            assert_eq!(stats.scenarios, uninterrupted.len() - done);
            let mut tail_totals = Totals::default();
            for cell in &uninterrupted[done..] {
                tail_totals.record(&cell.outcome);
            }
            assert_eq!(totals, tail_totals);
        }
    }

    #[test]
    fn streaming_run_aborts_on_the_first_sink_error() {
        let campaign = CampaignBuilder::new().sizes([3]).seeds(0..2).build();
        let mut emitted = 0usize;
        let err = Executor::new()
            .threads(2)
            .run_streaming(&campaign, |_| {
                emitted += 1;
                if emitted == 3 {
                    Err("sink full")
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert_eq!(err, "sink full");
        assert_eq!(emitted, 3, "no cell may be emitted after the sink fails");
    }

    #[test]
    fn streaming_run_of_an_empty_campaign_is_empty() {
        let campaign = Campaign::from_specs(Vec::new());
        let (totals, stats) = Executor::new()
            .threads(4)
            .run_streaming(&campaign, |_| Err("must not be called"))
            .unwrap();
        assert_eq!(totals, Totals::default());
        assert_eq!(stats.scenarios, 0);
    }

    #[test]
    fn run_cell_covers_all_three_outcomes() {
        let solvable = ScenarioSpec {
            k: 3,
            topology: Topology::FullyConnected,
            auth: AuthMode::Authenticated,
            t_l: 1,
            t_r: 1,
            adversary: AdversarySpec::Lying,
            faults: bsm_net::FaultSpec::NONE,
            seed: 4,
        };
        let (record, _) = run_cell(solvable);
        let stats = record.outcome.stats().expect("solvable cell completes");
        assert!(stats.messages > 0);
        assert!(stats.signatures > 0);

        let unsolvable = ScenarioSpec { auth: AuthMode::Unauthenticated, ..solvable };
        assert!(matches!(
            run_cell(unsolvable).0.outcome,
            CellOutcome::Unsolvable { ref theorem, .. } if theorem == "Theorem 2"
        ));

        let invalid = ScenarioSpec { t_l: 99, ..solvable };
        assert!(matches!(run_cell(invalid).0.outcome, CellOutcome::Failed { .. }));
    }
}
