//! Structured result export: hand-rolled JSON and CSV writers (no serde).
//!
//! Each format has one writer, and key order, number formatting and row order are
//! fixed in it, so two runs of the same campaign — with any thread counts — export
//! byte-identical documents. Timing data never appears here by construction (it
//! lives in [`crate::report::ExecutionStats`]). The writers stream: `campaign_ctl`
//! never holds every [`CellRecord`] of a run in memory.
//!
//! * [`StreamingExporter`] — the **shard side**: writes one [`cell_json`] line per
//!   completed cell (in strictly increasing coordinate order, enforced) and closes the
//!   stream with a rolling-[`Totals`] footer line. The format is JSON lines, read back
//!   lazily by [`crate::import::StreamingCells`].
//! * [`MergedJsonWriter`] — the `report.json` document: given the merged totals up
//!   front (summed from shard footers), renders the document from a stream of merged
//!   cells, verifying the folded totals at [`finish`](MergedJsonWriter::finish).
//! * [`StreamingCsvWriter`] — the `report.csv` document from the same merged stream
//!   (CSV has no totals, so no up-front knowledge is needed).
//!
//! All three enforce the canonical-coordinate-order invariant: cells must arrive in
//! strictly increasing [`ScenarioSpec`] order, which is what makes the k-way
//! [`CellMerge`] of shard streams byte-identical to a single-process run.
//! [`to_json`] and [`to_csv`] render an in-memory [`CampaignReport`] by collecting
//! the two document writers' output, so the layout lives only in the writers.
//!
//! # Crash-safe artifact writes
//!
//! Final artifacts (`report.json`, `report.csv`, `fuzz.log`, …) must never be
//! observable half-written: a crashed process that leaves a truncated file at a
//! tracked path poisons every later `merge`/`diff`/`cmp` that globs it. [`AtomicFile`]
//! and [`atomic_write`] write to a sibling `<name>.tmp` file and atomically rename it
//! over the destination only on success — a crash at any instant leaves either the
//! old artifact or no artifact, never a truncated one. (The deliberately *incremental*
//! streamed `report.jsonl` is the one exception: it is written at a `.partial` path
//! and renamed into place when complete, so an interrupted stream is salvageable by
//! [`crate::import::StreamingCells::salvage`] instead of being mistaken for a finished
//! export.)
//!
//! [`CellMerge`]: crate::report::CellMerge

use crate::grid::ScenarioSpec;
use crate::report::{CampaignReport, CellOutcome, CellRecord, Totals};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Escapes a string for inclusion in a JSON document (quotes, backslashes, control
/// characters; non-ASCII passes through as UTF-8).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Quotes a CSV field when it contains a delimiter, quote or newline (RFC 4180 style).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Writes the common JSON key/value pairs of one cell's coordinates (shared by the
/// report cell lines, the telemetry sidecar lines and the heartbeat's last
/// coordinate, so all three render coordinates identically).
pub(crate) fn spec_fields_json(s: &ScenarioSpec) -> String {
    format!(
        "\"k\": {}, \"topology\": \"{}\", \"auth\": \"{}\", \"t_l\": {}, \"t_r\": {}, \
         \"adversary\": \"{}\", \"faults\": \"{}\", \"seed\": {}",
        s.k, s.topology, s.auth, s.t_l, s.t_r, s.adversary, s.faults, s.seed
    )
}

/// Renders the aggregate counters as the JSON object used by the `totals` field of
/// `report.json` and by the streamed-export footer line (fixed key order, integers only).
pub fn totals_json(totals: &Totals) -> String {
    format!(
        "{{\"scenarios\": {}, \"completed\": {}, \"solved_clean\": {}, \
         \"unsolvable\": {}, \"failed\": {}, \"violations\": {}, \"slots\": {}, \
         \"messages\": {}, \"signatures\": {}}}",
        totals.scenarios,
        totals.completed,
        totals.solved_clean,
        totals.unsolvable,
        totals.failed,
        totals.violations,
        totals.slots,
        totals.messages,
        totals.signatures
    )
}

/// Renders one cell as the JSON object used by the `cells` array of `report.json`
/// and, one object per line, by the streamed shard export.
///
/// The object always carries the grid coordinates and a `status`; completed cells add
/// the outcome stats, unsolvable cells the theorem and reason, failed cells the error
/// message.
pub fn cell_json(cell: &CellRecord) -> String {
    let tail = match &cell.outcome {
        CellOutcome::Completed(stats) => format!(
            "\"plan\": \"{}\", \"all_honest_decided\": {}, \"violations\": {}, \
             \"slots\": {}, \"messages\": {}, \"signatures\": {}",
            json_escape(&stats.plan.to_string()),
            stats.all_honest_decided,
            stats.violations,
            stats.slots,
            stats.messages,
            stats.signatures
        ),
        CellOutcome::Unsolvable { theorem, reason } => {
            format!(
                "\"theorem\": \"{}\", \"reason\": \"{}\"",
                json_escape(theorem),
                json_escape(reason)
            )
        }
        CellOutcome::Failed { message } => {
            format!("\"message\": \"{}\"", json_escape(message))
        }
    };
    let status = cell.outcome.status();
    format!("{{{}, \"status\": \"{status}\", {tail}}}", spec_fields_json(&cell.spec))
}

/// Why collecting a report cannot fail: writes to a `Vec` do not, and a report's
/// totals are folded from its cells.
const COLLECTED: &str = "a report's cells are in strictly increasing coordinate order";

/// Renders a campaign report as the `report.json` document: the
/// [`MergedJsonWriter`] output of its cells, collected in memory.
///
/// # Panics
///
/// When the report's cells are not in strictly increasing coordinate order — the
/// order every [`Executor`](crate::executor::Executor) run over a built campaign,
/// import and merge produces.
pub fn to_json(report: &CampaignReport) -> String {
    let mut out = Vec::new();
    let scenario = report.scenario().map(str::to_string);
    MergedJsonWriter::with_scenario(&mut out, report.totals(), scenario)
        .and_then(|mut writer| {
            report.cells().iter().try_for_each(|cell| writer.write_cell(cell))?;
            writer.finish()
        })
        .expect(COLLECTED);
    String::from_utf8(out).expect("the writers emit UTF-8")
}

/// The CSV header row shared by every export.
pub const CSV_HEADER: &str =
    "k,topology,auth,t_l,t_r,adversary,faults,seed,status,plan,all_honest_decided,violations,slots,messages,signatures,detail";

/// Renders one cell as its `report.csv` row (no trailing newline).
///
/// Outcome-specific columns are left empty when they do not apply; `detail` carries
/// the impossibility theorem/reason or the failure message.
pub fn csv_row(cell: &CellRecord) -> String {
    let s = &cell.spec;
    // The six stats columns (plan to signatures), then `detail`.
    let (stats, detail) = match &cell.outcome {
        CellOutcome::Completed(stats) => (
            format!(
                "{},{},{},{},{},{}",
                csv_field(&stats.plan.to_string()),
                stats.all_honest_decided,
                stats.violations,
                stats.slots,
                stats.messages,
                stats.signatures
            ),
            String::new(),
        ),
        CellOutcome::Unsolvable { theorem, reason } => {
            (",,,,,".to_string(), format!("{theorem}: {reason}"))
        }
        CellOutcome::Failed { message } => (",,,,,".to_string(), message.clone()),
    };
    format!(
        "{},{},{},{},{},{},{},{},{},{stats},{}",
        s.k,
        csv_field(&s.topology.to_string()),
        csv_field(&s.auth.to_string()),
        s.t_l,
        s.t_r,
        csv_field(&s.adversary.to_string()),
        csv_field(&s.faults.to_string()),
        s.seed,
        cell.outcome.status(),
        csv_field(&detail)
    )
}

/// Renders a campaign report as the `report.csv` document: the
/// [`StreamingCsvWriter`] output of its cells, collected in memory.
///
/// # Panics
///
/// Exactly as [`to_json`].
pub fn to_csv(report: &CampaignReport) -> String {
    let mut out = Vec::new();
    StreamingCsvWriter::new(&mut out)
        .and_then(|mut writer| {
            report.cells().iter().try_for_each(|cell| writer.write_cell(cell))?;
            writer.finish()
        })
        .expect(COLLECTED);
    String::from_utf8(out).expect("the writers emit UTF-8")
}

// ---------------------------------------------------------------------------
// Streaming writers
// ---------------------------------------------------------------------------

/// Errors of the streaming writers.
#[derive(Debug)]
pub enum StreamError {
    /// Writing to the underlying sink failed.
    Io(std::io::Error),
    /// A cell arrived at or before the previous cell's coordinates, breaking the
    /// strictly-increasing canonical order the streamed formats require. (Boxed to
    /// keep the `Err` variant small.)
    OutOfOrder {
        /// Coordinates of the previously written cell.
        previous: Box<ScenarioSpec>,
        /// Coordinates of the offending cell.
        next: Box<ScenarioSpec>,
    },
    /// At [`MergedJsonWriter::finish`], the totals folded from the streamed cells
    /// disagree with the totals declared up front — a shard footer lied, or a shard
    /// stream was silently truncated. (Boxed to keep the `Err` variant small.)
    TotalsMismatch {
        /// The totals the document header was written with.
        declared: Box<Totals>,
        /// The totals folded from the cells actually streamed.
        folded: Box<Totals>,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(err) => write!(f, "stream write failed: {err}"),
            StreamError::OutOfOrder { previous, next } => {
                write!(f, "cell out of canonical coordinate order: {next} after {previous}")
            }
            StreamError::TotalsMismatch { declared, folded } => write!(
                f,
                "streamed cells do not match the declared totals: declared [{declared}], \
                 folded [{folded}]"
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(err: std::io::Error) -> Self {
        StreamError::Io(err)
    }
}

/// Enforces the strictly-increasing canonical coordinate order shared by every
/// streaming writer (including the telemetry sidecar exporter).
pub(crate) fn check_order(
    last: &mut Option<ScenarioSpec>,
    next: ScenarioSpec,
) -> Result<(), StreamError> {
    if let Some(previous) = *last {
        if next <= previous {
            return Err(StreamError::OutOfOrder {
                previous: Box::new(previous),
                next: Box::new(next),
            });
        }
    }
    *last = Some(next);
    Ok(())
}

/// The shard-side streaming exporter: coordinate-sorted [`cell_json`] lines plus a
/// rolling-[`Totals`] footer, written as cells complete.
///
/// This is what lets a shard run campaigns too large to hold every [`CellRecord`] in
/// memory: [`Executor::run_streaming`] folds each completed cell into the
/// rolling totals, hands it to [`write_cell`](Self::write_cell), and drops it. The
/// resulting document is JSON lines — one cell object per line, byte-identical to the
/// objects in the `cells` array of `report.json`, closed by a `{"totals": {...}}` footer
/// line that [`crate::import::StreamingCells`] verifies against the streamed cells.
///
/// Cells must arrive in strictly increasing coordinate order (shard runs of built
/// campaigns always do); out-of-order writes are rejected so a malformed stream can
/// never be exported in the first place.
///
/// [`Executor::run_streaming`]: crate::executor::Executor::run_streaming
#[derive(Debug)]
pub struct StreamingExporter<W: Write> {
    writer: W,
    totals: Totals,
    last: Option<ScenarioSpec>,
    scenario: Option<String>,
}

impl<W: Write> StreamingExporter<W> {
    /// Starts a streamed export over `writer` (nothing is written until the first
    /// cell).
    pub fn new(writer: W) -> Self {
        Self { writer, totals: Totals::default(), last: None, scenario: None }
    }

    /// Tags the stream with a canonical scenario serialization, embedded in the
    /// totals footer so `merge`/`diff` can reject mixed-scenario artifacts. Without
    /// one, the footer stays byte-identical to the scenario-less format.
    pub fn set_scenario(&mut self, scenario: impl Into<String>) {
        self.scenario = Some(scenario.into());
    }

    /// Writes one cell line and folds it into the rolling totals.
    ///
    /// # Errors
    ///
    /// [`StreamError::OutOfOrder`] when `cell` does not follow the previous cell in
    /// canonical coordinate order; [`StreamError::Io`] on write failure.
    pub fn write_cell(&mut self, cell: &CellRecord) -> Result<(), StreamError> {
        check_order(&mut self.last, cell.spec)?;
        writeln!(self.writer, "{}", cell_json(cell))?;
        self.totals.record(&cell.outcome);
        Ok(())
    }

    /// The totals folded so far.
    pub fn totals(&self) -> Totals {
        self.totals
    }

    /// Flushes the underlying sink without footering the stream — the
    /// crash-injection hooks call this so an injected death leaves only whole
    /// cell lines on disk (the shape a real SIGKILL at a write boundary leaves).
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on flush failure.
    pub fn flush(&mut self) -> Result<(), StreamError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Writes the totals footer, flushes the sink and returns the final totals.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on write or flush failure.
    pub fn finish(mut self) -> Result<Totals, StreamError> {
        let tag = match &self.scenario {
            Some(scenario) => format!(", \"scenario\": \"{}\"", json_escape(scenario)),
            None => String::new(),
        };
        writeln!(self.writer, "{{\"totals\": {}{tag}}}", totals_json(&self.totals))?;
        self.writer.flush()?;
        Ok(self.totals)
    }
}

/// The `report.json` writer: renders the document from a stream of merged cells,
/// without materializing a report.
///
/// Layout: the optional `scenario` key, a `totals` object with the aggregate
/// counters ([`totals_json`]), then a `cells` array with one [`cell_json`] object
/// per cell in canonical order. The totals come *before* the cells, so the writer
/// must know them up front: the coordinator sums the per-shard footer totals (see
/// [`crate::import::footer_totals`]) and passes the sum to [`new`](Self::new), which
/// writes the document header. Every [`write_cell`](Self::write_cell) then appends
/// one cell in canonical order, and [`finish`](Self::finish) closes the document —
/// verifying that the totals folded from the streamed cells match the declared ones,
/// so a lying footer or a truncated shard stream cannot produce a silently wrong
/// document.
#[derive(Debug)]
pub struct MergedJsonWriter<W: Write> {
    writer: W,
    declared: Totals,
    folded: Totals,
    last: Option<ScenarioSpec>,
    /// The previous cell's rendered line, held back until we know whether a comma
    /// follows it (cells are separated by commas, with none after the last).
    pending: Option<String>,
}

impl<W: Write> MergedJsonWriter<W> {
    /// Writes the document header (`totals` first, then the opening of the `cells`
    /// array) and prepares for streamed cells.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on write failure.
    pub fn new(writer: W, totals: Totals) -> Result<Self, StreamError> {
        Self::with_scenario(writer, totals, None)
    }

    /// Like [`new`](Self::new), with an optional canonical scenario serialization
    /// rendered as the document's first key (the tag of
    /// [`CampaignReport::with_scenario`](crate::report::CampaignReport::with_scenario)).
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on write failure.
    pub fn with_scenario(
        mut writer: W,
        totals: Totals,
        scenario: Option<String>,
    ) -> Result<Self, StreamError> {
        writeln!(writer, "{{")?;
        if let Some(scenario) = &scenario {
            writeln!(writer, "  \"scenario\": \"{}\",", json_escape(scenario))?;
        }
        write!(writer, "  \"totals\": {},\n  \"cells\": [\n", totals_json(&totals))?;
        Ok(Self { writer, declared: totals, folded: Totals::default(), last: None, pending: None })
    }

    /// Appends one merged cell (strictly increasing coordinate order required).
    ///
    /// # Errors
    ///
    /// [`StreamError::OutOfOrder`] for order violations, [`StreamError::Io`] on write
    /// failure.
    pub fn write_cell(&mut self, cell: &CellRecord) -> Result<(), StreamError> {
        check_order(&mut self.last, cell.spec)?;
        if let Some(previous) = self.pending.take() {
            writeln!(self.writer, "{previous},")?;
        }
        self.pending = Some(format!("    {}", cell_json(cell)));
        self.folded.record(&cell.outcome);
        Ok(())
    }

    /// Closes the `cells` array and the document, verifies the folded totals against
    /// the declared ones, flushes and returns the totals.
    ///
    /// # Errors
    ///
    /// [`StreamError::TotalsMismatch`] when the streamed cells do not add up to the
    /// declared totals (the written document is invalid and should be discarded);
    /// [`StreamError::Io`] on write or flush failure.
    pub fn finish(mut self) -> Result<Totals, StreamError> {
        if let Some(previous) = self.pending.take() {
            writeln!(self.writer, "{previous}")?;
        }
        write!(self.writer, "  ]\n}}\n")?;
        self.writer.flush()?;
        if self.declared != self.folded {
            return Err(StreamError::TotalsMismatch {
                declared: Box::new(self.declared),
                folded: Box::new(self.folded),
            });
        }
        Ok(self.folded)
    }
}

/// The `report.csv` writer: the header row at construction, then one [`csv_row`] per
/// cell in canonical order.
///
/// CSV carries no totals, so unlike [`MergedJsonWriter`] nothing needs to be known up
/// front.
#[derive(Debug)]
pub struct StreamingCsvWriter<W: Write> {
    writer: W,
    last: Option<ScenarioSpec>,
}

impl<W: Write> StreamingCsvWriter<W> {
    /// Writes the [`CSV_HEADER`] row and prepares for streamed cells.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on write failure.
    pub fn new(mut writer: W) -> Result<Self, StreamError> {
        writeln!(writer, "{CSV_HEADER}")?;
        Ok(Self { writer, last: None })
    }

    /// Appends one cell row (strictly increasing coordinate order required).
    ///
    /// # Errors
    ///
    /// [`StreamError::OutOfOrder`] for order violations, [`StreamError::Io`] on write
    /// failure.
    pub fn write_cell(&mut self, cell: &CellRecord) -> Result<(), StreamError> {
        check_order(&mut self.last, cell.spec)?;
        writeln!(self.writer, "{}", csv_row(cell))?;
        Ok(())
    }

    /// Flushes the sink.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on flush failure.
    pub fn finish(mut self) -> Result<(), StreamError> {
        self.writer.flush()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Crash-safe artifact writes (temp file + atomic rename)
// ---------------------------------------------------------------------------

/// The sibling temp path `AtomicFile` stages its bytes at: `<dest>.tmp` in the same
/// directory (same filesystem, so the final `rename` is atomic).
fn staging_path(dest: &Path) -> PathBuf {
    let mut name = dest.file_name().map_or_else(std::ffi::OsString::new, |n| n.to_os_string());
    name.push(".tmp");
    dest.with_file_name(name)
}

/// A crash-safe file writer: bytes go to a sibling `<dest>.tmp` file, and only
/// [`persist`](Self::persist) moves them to the destination — with an atomic rename,
/// after a flush and fsync.
///
/// A process that crashes (or errors out) mid-write therefore never leaves a
/// truncated file at the tracked destination path: dropping an unpersisted
/// `AtomicFile` removes the temp file, and a hard kill leaves only `<dest>.tmp`,
/// which the next writer truncates and reuses. This is the write discipline behind
/// every final campaign artifact (`report.json`, `report.csv`, `fuzz.log`, …);
/// see [`atomic_write`] for the one-shot convenience form.
///
/// The writer is buffered internally; wrap a `&mut AtomicFile` in a streaming writer
/// (e.g. [`StreamingCsvWriter`]) and call [`persist`](Self::persist) after the
/// writer's `finish`.
#[derive(Debug)]
pub struct AtomicFile {
    /// `None` once persisted (disarms the Drop cleanup).
    writer: Option<BufWriter<File>>,
    staging: PathBuf,
    dest: PathBuf,
}

impl AtomicFile {
    /// Creates (truncating any stale leftover) the staging file for `dest`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] creating `<dest>.tmp`.
    pub fn create(dest: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dest = dest.into();
        let staging = staging_path(&dest);
        let file = File::create(&staging)?;
        Ok(Self { writer: Some(BufWriter::new(file)), staging, dest })
    }

    /// The destination path the staged bytes will land at.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// Flushes, fsyncs and atomically renames the staged file to the destination.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the flush, sync or rename; the staging file is
    /// removed on failure, so no partial artifact survives either way.
    pub fn persist(mut self) -> std::io::Result<()> {
        let writer = self.writer.take().expect("persist is the only taker and consumes self");
        let result = (|| {
            let file = writer.into_inner().map_err(|err| err.into_error())?;
            file.sync_all()?;
            std::fs::rename(&self.staging, &self.dest)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&self.staging);
        }
        result
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writer.as_mut().expect("writer present until persist").write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.as_mut().expect("writer present until persist").flush()
    }
}

impl Drop for AtomicFile {
    /// Removes the staging file when the writer was dropped without
    /// [`persist`](Self::persist) — an error path never leaves debris behind.
    fn drop(&mut self) {
        if self.writer.take().is_some() {
            let _ = std::fs::remove_file(&self.staging);
        }
    }
}

/// Writes `contents` to `dest` crash-safely: staged at `<dest>.tmp`, fsynced, then
/// atomically renamed into place. The one-shot form of [`AtomicFile`].
///
/// # Errors
///
/// Any [`std::io::Error`] from the write, sync or rename; on failure neither a
/// truncated `dest` nor a leftover temp file remains.
pub fn atomic_write(dest: impl Into<PathBuf>, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    let mut file = AtomicFile::create(dest)?;
    file.write_all(contents.as_ref())?;
    file.persist()
}

/// The artifact names whose `<name>.tmp` staging siblings [`sweep_stale_tmp`] may
/// remove — exactly the destinations the engine publishes through [`AtomicFile`].
/// Anything else ending in `.tmp` is not ours and is never touched.
const SWEEPABLE_STAGING: &[&str] = &[
    "report.json",
    "report.csv",
    "report.jsonl",
    "metrics.jsonl",
    "progress.json",
    "supervise.json",
    "fuzz.log",
];

/// Removes stale [`AtomicFile`] staging files (`<artifact>.tmp`) left in `dir` by
/// a SIGKILLed process.
///
/// The Drop/persist discipline cleans staging files on every *graceful* path, but
/// a hard kill leaves `<dest>.tmp` behind with no owner — and nothing truncates it
/// until (unless) the same artifact is written again. The supervisor sweeps a
/// shard's dir before every relaunch and after quarantine. Two guards keep the
/// sweep from ever eating live or foreign data: only the engine's own artifact
/// names are matched (the private `SWEEPABLE_STAGING` list), and only files last
/// modified at or
/// before `older_than` are removed (pass the *owning attempt's* launch time —
/// debris from a dead predecessor is always older, a successor's live staging
/// file never is). Returns the removed paths. A missing `dir` sweeps nothing.
///
/// # Errors
///
/// Any [`std::io::Error`] listing `dir` or removing a matched file.
pub fn sweep_stale_tmp(dir: &Path, older_than: SystemTime) -> std::io::Result<Vec<PathBuf>> {
    let mut removed = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(removed),
        Err(err) => return Err(err),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_suffix(".tmp") else { continue };
        if !SWEEPABLE_STAGING.contains(&stem) {
            continue;
        }
        let modified = entry.metadata()?.modified()?;
        if modified <= older_than {
            std::fs::remove_file(entry.path())?;
            removed.push(entry.path());
        }
    }
    removed.sort();
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use crate::executor::Executor;
    use crate::grid::ScenarioSpec;
    use crate::report::{CellRecord, CellStats};
    use bsm_core::harness::AdversarySpec;
    use bsm_core::problem::AuthMode;
    use bsm_core::solvability::ProtocolPlan;
    use bsm_matching::Side;
    use bsm_net::Topology;

    #[test]
    fn json_escaping_handles_quotes_and_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        // Non-ASCII (the ΠbSM plan name) passes through unescaped.
        assert_eq!(json_escape("ΠbSM"), "ΠbSM");
    }

    #[test]
    fn csv_fields_are_quoted_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    /// One cell of each outcome shape; the failure message needs escaping in both
    /// formats.
    fn three_cells() -> Vec<CellRecord> {
        let spec = |seed| ScenarioSpec {
            k: 3,
            topology: Topology::Bipartite,
            auth: AuthMode::Authenticated,
            t_l: 0,
            t_r: 3,
            adversary: AdversarySpec::Lying,
            faults: bsm_net::FaultSpec::NONE,
            seed,
        };
        vec![
            CellRecord {
                spec: spec(1),
                outcome: CellOutcome::Completed(CellStats {
                    plan: ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Left },
                    all_honest_decided: true,
                    violations: 0,
                    slots: 9,
                    messages: 42,
                    signatures: 17,
                }),
            },
            CellRecord {
                spec: spec(2),
                outcome: CellOutcome::Unsolvable {
                    theorem: "Theorem 6".into(),
                    reason: "both sides too corrupt".into(),
                },
            },
            CellRecord {
                spec: spec(3),
                outcome: CellOutcome::Failed { message: "sim, \"error\"\n".into() },
            },
        ]
    }

    const COORDINATES: &str = "\"k\": 3, \"topology\": \"bipartite\", \"auth\": \"authenticated\", \
                               \"t_l\": 0, \"t_r\": 3, \"adversary\": \"lying\", \"faults\": \"none\"";

    /// The `report.json` of [`three_cells`], after its optional scenario line.
    fn three_cells_json() -> String {
        format!(
            "  \"totals\": {{\"scenarios\": 3, \"completed\": 1, \"solved_clean\": 1, \
             \"unsolvable\": 1, \"failed\": 1, \"violations\": 0, \"slots\": 9, \
             \"messages\": 42, \"signatures\": 17}},\n  \"cells\": [\n    {{{COORDINATES}, \
             \"seed\": 1, \"status\": \"completed\", \"plan\": \"ΠbSM local matching \
             (committee L)\", \"all_honest_decided\": true, \"violations\": 0, \"slots\": 9, \
             \"messages\": 42, \"signatures\": 17}},\n    {{{COORDINATES}, \"seed\": 2, \
             \"status\": \"unsolvable\", \"theorem\": \"Theorem 6\", \"reason\": \"both sides \
             too corrupt\"}},\n    {{{COORDINATES}, \"seed\": 3, \"status\": \"failed\", \
             \"message\": \"sim, \\\"error\\\"\\n\"}}\n  ]\n}}\n"
        )
    }

    const THREE_CELLS_CSV: &str = "\
k,topology,auth,t_l,t_r,adversary,faults,seed,status,plan,all_honest_decided,violations,slots,messages,signatures,detail
3,bipartite,authenticated,0,3,lying,none,1,completed,ΠbSM local matching (committee L),true,0,9,42,17,
3,bipartite,authenticated,0,3,lying,none,2,unsolvable,,,,,,,Theorem 6: both sides too corrupt
3,bipartite,authenticated,0,3,lying,none,3,failed,,,,,,,\"sim, \"\"error\"\"
\"
";

    #[test]
    fn exports_cover_every_outcome_shape() {
        let report = CampaignReport::new(three_cells());
        assert_eq!(to_json(&report), format!("{{\n{}", three_cells_json()));
        assert_eq!(to_csv(&report), THREE_CELLS_CSV);
    }

    #[test]
    fn export_is_identical_across_thread_counts() {
        let campaign = CampaignBuilder::new().sizes([3]).corruptions([(1, 0)]).build();
        let (one, _) = Executor::new().threads(1).run(&campaign);
        let (four, _) = Executor::new().threads(4).run(&campaign);
        assert_eq!(to_json(&one), to_json(&four));
        assert_eq!(to_csv(&one), to_csv(&four));
    }

    fn small_report() -> CampaignReport {
        let campaign = CampaignBuilder::new().sizes([2, 3]).corruptions([(0, 0), (1, 1)]).build();
        Executor::new().threads(2).run(&campaign).0
    }

    #[test]
    fn streaming_exporter_writes_cell_lines_and_a_totals_footer() {
        let report = small_report();
        let mut buf = Vec::new();
        let mut exporter = StreamingExporter::new(&mut buf);
        for cell in report.cells() {
            exporter.write_cell(cell).unwrap();
        }
        assert_eq!(exporter.totals(), report.totals());
        let totals = exporter.finish().unwrap();
        assert_eq!(totals, report.totals());
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), report.cells().len() + 1);
        for (line, cell) in lines.iter().zip(report.cells()) {
            assert_eq!(*line, cell_json(cell));
        }
        let footer = lines.last().unwrap();
        assert_eq!(*footer, format!("{{\"totals\": {}}}", totals_json(&report.totals())));
    }

    #[test]
    fn streaming_writers_reject_out_of_order_and_duplicate_cells() {
        let report = small_report();
        let (a, b) = (&report.cells()[0], &report.cells()[1]);
        let mut exporter = StreamingExporter::new(Vec::new());
        exporter.write_cell(b).unwrap();
        let err = exporter.write_cell(a).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { .. }), "{err}");
        assert!(err.to_string().contains("out of canonical coordinate order"), "{err}");
        // A duplicate is an order violation too (strictly increasing required).
        let mut exporter = StreamingExporter::new(Vec::new());
        exporter.write_cell(a).unwrap();
        assert!(exporter.write_cell(a).is_err());
        let mut csv = StreamingCsvWriter::new(Vec::new()).unwrap();
        csv.write_cell(b).unwrap();
        assert!(csv.write_cell(a).is_err());
        let mut json = MergedJsonWriter::new(Vec::new(), report.totals()).unwrap();
        json.write_cell(b).unwrap();
        assert!(json.write_cell(a).is_err());
    }

    #[test]
    fn merged_json_writer_reproduces_to_json_byte_for_byte() {
        // Streamed cell by cell, with a scenario tag as the document's first key.
        let tag = "name = \"demo\"\n";
        let report = CampaignReport::new(three_cells()).with_scenario(tag);
        let mut buf = Vec::new();
        let mut writer =
            MergedJsonWriter::with_scenario(&mut buf, report.totals(), Some(tag.into())).unwrap();
        for cell in report.cells() {
            writer.write_cell(cell).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), report.totals());
        let expected =
            format!("{{\n  \"scenario\": \"name = \\\"demo\\\"\\n\",\n{}", three_cells_json());
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
        assert_eq!(to_json(&report), expected);
        // CSV carries no scenario tag.
        assert_eq!(to_csv(&report), THREE_CELLS_CSV);
    }

    #[test]
    fn merged_json_writer_handles_the_empty_report() {
        let empty = CampaignReport::new(Vec::new());
        let mut buf = Vec::new();
        let writer = MergedJsonWriter::new(&mut buf, empty.totals()).unwrap();
        writer.finish().unwrap();
        let expected =
            "{\n  \"totals\": {\"scenarios\": 0, \"completed\": 0, \"solved_clean\": 0, \
                        \"unsolvable\": 0, \"failed\": 0, \"violations\": 0, \"slots\": 0, \
                        \"messages\": 0, \"signatures\": 0},\n  \"cells\": [\n  ]\n}\n";
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
        assert_eq!(to_json(&empty), expected);
        assert_eq!(to_csv(&empty), format!("{CSV_HEADER}\n"));
    }

    #[test]
    fn merged_json_writer_detects_totals_mismatch_at_finish() {
        let report = small_report();
        // Declare the full totals but stream one cell short.
        let mut writer = MergedJsonWriter::new(Vec::new(), report.totals()).unwrap();
        for cell in &report.cells()[..report.cells().len() - 1] {
            writer.write_cell(cell).unwrap();
        }
        let err = writer.finish().unwrap_err();
        assert!(matches!(err, StreamError::TotalsMismatch { .. }), "{err}");
        assert!(err.to_string().contains("declared ["), "{err}");
    }

    #[test]
    fn streaming_csv_writer_reproduces_to_csv_byte_for_byte() {
        let mut buf = Vec::new();
        let mut writer = StreamingCsvWriter::new(&mut buf).unwrap();
        for cell in &three_cells() {
            writer.write_cell(cell).unwrap();
        }
        writer.finish().unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), THREE_CELLS_CSV);
    }

    /// A scratch directory unique to the calling test (under the OS temp dir, so
    /// parallel test binaries never collide on relative paths).
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bsm-engine-export-tests").join(test);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_lands_the_bytes_and_no_temp_file() {
        let dir = scratch_dir("atomic_write_lands");
        let dest = dir.join("report.json");
        atomic_write(&dest, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), "first");
        // Overwrite is atomic too: the old artifact is replaced, never truncated.
        atomic_write(&dest, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), "second");
        assert!(!staging_path(&dest).exists(), "staging file must not survive persist");
    }

    #[test]
    fn unpersisted_atomic_file_leaves_neither_dest_nor_temp() {
        let dir = scratch_dir("atomic_drop_cleans");
        let dest = dir.join("report.csv");
        {
            let mut file = AtomicFile::create(&dest).unwrap();
            assert_eq!(file.dest(), dest.as_path());
            file.write_all(b"half a row").unwrap();
            file.flush().unwrap();
            assert!(staging_path(&dest).exists(), "bytes are staged before persist");
            // Dropped here without persist — simulates the error path of a writer.
        }
        assert!(!dest.exists(), "an unpersisted write must not create the destination");
        assert!(!staging_path(&dest).exists(), "drop must remove the staging file");
    }

    #[test]
    fn sweep_removes_crash_leftovers_but_not_drop_cleaned_or_foreign_files() {
        let dir = scratch_dir("sweep_stale_tmp");
        // Graceful path: Drop already cleaned the staging file — nothing to sweep.
        {
            let mut file = AtomicFile::create(dir.join("report.csv")).unwrap();
            file.write_all(b"half a row").unwrap();
        }
        assert_eq!(sweep_stale_tmp(&dir, SystemTime::now()).unwrap(), Vec::<PathBuf>::new());
        // Crash path: a SIGKILL leaves <dest>.tmp behind with no owner.
        std::fs::write(dir.join("report.csv.tmp"), "orphaned staging").unwrap();
        std::fs::write(dir.join("progress.json.tmp"), "{").unwrap();
        // Never touched: live salvage data, foreign temp files, real artifacts.
        std::fs::write(dir.join("report.jsonl.partial"), "salvageable").unwrap();
        std::fs::write(dir.join("notes.tmp"), "not ours").unwrap();
        std::fs::write(dir.join("report.json"), "real artifact").unwrap();
        // A cutoff in the past removes nothing (a live successor's staging file
        // is always newer than the attempt that owns the sweep).
        let past = SystemTime::UNIX_EPOCH;
        assert_eq!(sweep_stale_tmp(&dir, past).unwrap(), Vec::<PathBuf>::new());
        assert!(dir.join("report.csv.tmp").exists());
        let removed = sweep_stale_tmp(&dir, SystemTime::now()).unwrap();
        assert_eq!(removed, vec![dir.join("progress.json.tmp"), dir.join("report.csv.tmp")]);
        assert!(!dir.join("report.csv.tmp").exists());
        assert!(!dir.join("progress.json.tmp").exists());
        assert!(dir.join("report.jsonl.partial").exists(), "salvage data survives");
        assert!(dir.join("notes.tmp").exists(), "unknown .tmp names are not ours");
        assert!(dir.join("report.json").exists());
        // A missing directory sweeps nothing instead of erroring.
        let gone = dir.join("no-such-subdir");
        assert_eq!(sweep_stale_tmp(&gone, SystemTime::now()).unwrap(), Vec::<PathBuf>::new());
    }

    #[test]
    fn atomic_file_backs_the_streaming_writers() {
        let report = small_report();
        let dir = scratch_dir("atomic_streaming_csv");
        let dest = dir.join("report.csv");
        let mut file = AtomicFile::create(&dest).unwrap();
        let mut writer = StreamingCsvWriter::new(&mut file).unwrap();
        for cell in report.cells() {
            writer.write_cell(cell).unwrap();
        }
        writer.finish().unwrap();
        file.persist().unwrap();
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), to_csv(&report));
    }
}
