//! Spans recorded from the benchmark's own side of each layer boundary:
//! kept in memory, written to `--out` when the run ends. Spans inside the
//! program are a later change.

use std::time::Instant;

/// One timed interval: `[start_ns, end_ns)` since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
}

/// Collects spans when tracing is on; every call is a no-op otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (traced and untraced windows alternate).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Opens a span whose end is not known yet; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
