//! Bench-side spans around calls into the program's layers.
//!
//! A span records its name, start, end, parent span and operation id.
//! Spans are kept in memory on the driving thread and written out once the
//! run ends; a span's self time is its duration minus its children's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// An open span; dropping it closes the span.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.id].end_ns = end_ns;
        let popped = self.tracer.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.id), "spans close in LIFO order");
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

/// Per-name totals over the recorded spans.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    /// Durations of every span of the name, milliseconds.
    pub durations_ms: Vec<f64>,
    /// Sum of self times (duration minus children), milliseconds.
    pub self_ms: f64,
}

impl SpanTotals {
    /// Sum of durations, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.durations_ms.iter().sum()
    }

    /// Number of spans.
    pub fn calls(&self) -> usize {
        self.durations_ms.len()
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for operation `op`, child of the
    /// innermost open span.
    pub fn span(&self, name: &'static str, op: u64) -> SpanGuard<'_> {
        let parent = self.open.borrow().last().copied();
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.borrow_mut().push(id);
        SpanGuard { tracer: self, id }
    }

    /// Totals per span name, with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in spans.iter().zip(&child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.durations_ms.push(duration as f64 / 1e6);
            entry.self_ms += duration.saturating_sub(*children) as f64 / 1e6;
        }
        totals
    }

    /// Writes every span as one CSV row (`id,parent,op,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::from("id,parent,op,name,start_ns,end_ns\n");
        for (id, span) in self.spans.borrow().iter().enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                text,
                "{id},{parent},{},{},{},{}",
                span.op, span.name, span.start_ns, span.end_ns
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// Opens a span when tracing is on; `None` costs one branch.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str, op: u64) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name, op))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::default();
        {
            let _outer = tracer.span("outer", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = tracer.span("inner", 1);
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        }
        let totals = tracer.totals();
        let outer = &totals["outer"];
        let inner = &totals["inner"];
        assert_eq!((outer.calls(), inner.calls()), (1, 1));
        assert!(outer.total_ms() >= inner.total_ms());
        assert!((outer.self_ms - (outer.total_ms() - inner.total_ms())).abs() < 1e-6);
        assert!((inner.self_ms - inner.total_ms()).abs() < 1e-9);
        let spans = tracer.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
    }
}
