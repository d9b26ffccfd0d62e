//! The traced run's span recorder and the sample statistics the benchmark reports.
//!
//! Spans are recorded by the benchmark around its calls into each crate; nothing
//! inside the program is instrumented. A span's layer is its name up to the first
//! `.` (`core.harness.run_with_plan` belongs to `core`), and its self time is its
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one operation: the cell index, pass or probe number.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans in memory. A disabled tracer records nothing and only runs the
/// wrapped calls, so traced and untraced passes share one code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; spans opened before it is ended become its children.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, id, start_ns, end_ns: start_ns, parent });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time per layer: each span's duration minus its children's durations.
    /// Children never overlap (the benchmark is single-threaded while tracing), so
    /// the time they cover is the sum of their durations.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut layers = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            *layers.entry(span.layer()).or_insert(0) += span.duration_ns().saturating_sub(covered);
        }
        layers
    }

    /// The spans as JSON lines: name, id, start, end and parent index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"index\":{index},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.id, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// The median of `values` (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of integer samples, as `f64`.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// The highest percentile with at least ten samples beyond it: returns the sample
/// value at that rank and the percentile it stands at. With ten samples or fewer no
/// rank qualifies and the smallest sample is returned.
pub fn tail(values: &[u64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let rank = n.saturating_sub(11);
    (sorted[rank] as f64, 100.0 * (rank + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("bench.cell", 7);
        tracer.time("core.child", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7));
        let layers = tracer.self_time_by_layer();
        assert_eq!(layers["core"], spans[1].duration_ns());
        assert_eq!(layers["bench"], spans[0].duration_ns() - spans[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let open = tracer.begin("bench.cell", 0);
        assert_eq!(tracer.time("core.x", 0, || 5), 5);
        tracer.end(open);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&samples), (90.0, 90.0));
        assert_eq!(tail(&[3, 1, 2]), (1.0, 100.0 / 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
