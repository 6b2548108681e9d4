//! The span recorder of the traced run.
//!
//! Spans are recorded only where `fxbench` itself stands on a layer
//! boundary (around a public call, inside its own `Read` wrapper, inside
//! its own `MatchSink`); spans inside the library are a later change.
//! Everything is kept in memory — the full span list of the first passes
//! in a preallocated `Vec`, per-name self-time sums for every pass — and
//! written out when the benchmark ends.
//!
//! A span's *self time* is its duration minus the part its child spans
//! cover, so the self times of one document's spans sum to its `doc` span.

use std::cell::RefCell;
use std::io::Read;
use std::time::Instant;

/// A layer boundary `fxbench` stands on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One document through the pipeline under test (the root span).
    Doc,
    /// One `read` call the parser made on the benchmark's reader.
    IoRead,
    /// One match delivered to the benchmark's sink.
    SinkOnMatch,
    /// Parts pipeline: `source.drive_batched` (scan + tokenize + intern + batch fill).
    SourceDrive,
    /// Parts pipeline: one batch handed to the filter / bank.
    BankBatch,
    /// `pubsub-churn`: inside `ServerHandle::publish`.
    Publish,
    /// `pubsub-churn`: inside the `stats()` barrier.
    Barrier,
    /// `pubsub-churn`: draining every mailbox.
    Drain,
    /// `pubsub-churn`: one subscribe + unsubscribe pair.
    ChurnPair,
}

/// Number of span names.
pub const NAMES: usize = 9;

impl Name {
    /// Every name, in discriminant order.
    pub const ALL: [Name; NAMES] = [
        Name::Doc,
        Name::IoRead,
        Name::SinkOnMatch,
        Name::SourceDrive,
        Name::BankBatch,
        Name::Publish,
        Name::Barrier,
        Name::Drain,
        Name::ChurnPair,
    ];

    /// The name as written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Doc => "doc",
            Name::IoRead => "io.read",
            Name::SinkOnMatch => "sink.on_match",
            Name::SourceDrive => "source.drive",
            Name::BankBatch => "bank.batch",
            Name::Publish => "publish",
            Name::Barrier => "barrier",
            Name::Drain => "drain",
            Name::ChurnPair => "churn.pair",
        }
    }
}

/// One finished span, as written to the trace file.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which boundary.
    pub name: Name,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index (in the kept list) of the span that caused this one.
    pub parent: Option<u32>,
    /// The document all spans of one request share.
    pub doc: u32,
}

/// Per-name totals of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassSums {
    /// Self time per name, in nanoseconds.
    pub self_ns: [u64; NAMES],
    /// Spans per name.
    pub count: [u64; NAMES],
}

impl PassSums {
    /// Self time of `name` in this pass.
    pub fn self_of(&self, name: Name) -> u64 {
        self.self_ns[name as usize]
    }

    /// Span count of `name` in this pass.
    pub fn count_of(&self, name: Name) -> u64 {
        self.count[name as usize]
    }
}

struct Open {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    /// Whether finished spans are appended to `spans` (first passes only).
    keep: bool,
    spans: Vec<Span>,
    sums: PassSums,
    doc: u32,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        stack: Vec::with_capacity(8),
        keep: false,
        spans: Vec::new(),
        sums: PassSums::default(),
        doc: 0,
    });
}

/// Starts a pass: zeroes the per-name sums and, when `keep_capacity` is
/// not 0, keeps the full span list of this pass in a `Vec` preallocated
/// for that many spans (later spans are summed but not kept).
pub fn begin_pass(keep_capacity: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        t.keep = keep_capacity > 0;
        t.spans = Vec::with_capacity(keep_capacity);
        t.sums = PassSums::default();
    });
}

/// Sets the document identifier stamped on the spans that follow.
pub fn set_doc(doc: u32) {
    TRACER.with(|t| t.borrow_mut().doc = doc);
}

fn enter(name: Name) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let kept = if t.keep && t.spans.len() < t.spans.capacity() {
            let parent = t.stack.last().and_then(|o| o.kept);
            let doc = t.doc;
            t.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                doc,
            });
            Some((t.spans.len() - 1) as u32)
        } else {
            None
        };
        // Read the clock last, so recorder bookkeeping lands in the
        // parent's self time, not in this span.
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    });
}

fn exit() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        let open = t.stack.pop().expect("exit without enter");
        let dur = end_ns - open.start_ns;
        t.sums.self_ns[open.name as usize] += dur.saturating_sub(open.child_ns);
        t.sums.count[open.name as usize] += 1;
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            let span = &mut t.spans[i as usize];
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: Name, f: impl FnOnce() -> T) -> T {
    enter(name);
    let out = f();
    exit();
    out
}

/// Returns the per-name sums accumulated since the last call and zeroes them.
pub fn take_pass() -> PassSums {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().sums))
}

/// Takes the kept span list.
pub fn take_spans() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// The benchmark's `Read` wrapper: hands the parser the document's bytes,
/// counts its `read` calls and, when `traced`, records an `io.read` span
/// around each.
pub struct DocReader<'a> {
    rest: &'a [u8],
    traced: bool,
    /// `read` calls served so far.
    pub calls: u64,
}

impl<'a> DocReader<'a> {
    /// A reader over `doc`.
    pub fn new(doc: &'a [u8], traced: bool) -> DocReader<'a> {
        DocReader {
            rest: doc,
            traced,
            calls: 0,
        }
    }
}

impl Read for DocReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.traced {
            span(Name::IoRead, || self.rest.read(buf))
        } else {
            self.rest.read(buf)
        }
    }
}

/// Self times of one document's spans must add up to its `doc` spans;
/// returns the relative gap between the two over the kept spans.
pub fn self_time_gap(spans: &[Span]) -> f64 {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut self_sum = 0u64;
    let mut doc_sum = 0u64;
    for (s, c) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        self_sum += dur.saturating_sub(*c);
        if s.parent.is_none() {
            doc_sum += dur;
        }
    }
    if doc_sum == 0 {
        return 0.0;
    }
    (self_sum as f64 - doc_sum as f64).abs() / doc_sum as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root_span() {
        begin_pass(16);
        set_doc(3);
        span(Name::Doc, || {
            span(Name::SourceDrive, || {
                span(Name::IoRead, || std::hint::black_box(1));
                span(Name::BankBatch, || {
                    span(Name::SinkOnMatch, || std::hint::black_box(2))
                });
            });
        });
        let sums = take_pass();
        let spans = take_spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(
            spans[4].parent,
            Some(3),
            "sink.on_match is caused by bank.batch"
        );
        assert!(spans.iter().all(|s| s.doc == 3 && s.end_ns >= s.start_ns));
        let root = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(sums.self_ns.iter().sum::<u64>(), root);
        assert_eq!(self_time_gap(&spans), 0.0);
        assert_eq!(sums.count_of(Name::IoRead), 1);
    }

    #[test]
    fn reader_counts_calls() {
        let mut reader = DocReader::new(b"abcdef", false);
        let mut buf = [0u8; 4];
        assert_eq!(reader.read(&mut buf).expect("read"), 4);
        assert_eq!(reader.read(&mut buf).expect("read"), 2);
        assert_eq!(reader.read(&mut buf).expect("read"), 0);
        assert_eq!(reader.calls, 3);
    }
}
