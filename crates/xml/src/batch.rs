//! Owned, reusable batches of interned events, for a consumer that
//! must hold a run of a parsed stream.
//!
//! A [`crate::SymEvent`] borrows the parser's scratch buffers, so it
//! cannot outlive the emit callback — which is all an in-thread
//! consumer needs, and every product path is one (events never leave
//! the thread that tokenized them). An [`EventBatch`] materializes a
//! run of events into flat arenas it owns, for a consumer that replays
//! the run or could not be reached by a call: one fixed-size op record
//! per event, one `String` arena for text and attribute values, one
//! flat attribute list. Batches are built once by the producer, replayed
//! any number of times by consumers, and **reused**: [`EventBatch::clear`]
//! keeps every arena's capacity, so a recycled batch performs zero
//! allocations per event in steady state (proven by
//! `tests/alloc_steady_state.rs`).
//!
//! Replay reconstructs borrowed [`SymEvent`]s: text payloads borrow
//! the batch's arena directly (no copy), attribute slices are rebuilt
//! in a consumer-local [`AttrBuf`] scratch (capacity reused across
//! events).

use crate::span::Span;
use crate::symbols::{AttrBuf, Sym, SymEvent};

/// Default batch cut on event count: producers publish a batch once it
/// holds this many events. Sized so one batch amortizes a hand-off that
/// cannot be a plain call — one per ~1024 events instead of per event —
/// while staying small enough to live in cache. An in-thread consumer needs no batch at
/// all: it takes borrowed events from [`crate::Frontend::drive`].
pub const BATCH_EVENTS: usize = 1024;

/// Default batch cut on payload bytes (text + attribute values): the
/// companion knob to [`BATCH_EVENTS`] for text-heavy streams, so one
/// giant text node cannot grow a batch arena without bound.
pub const BATCH_BYTES: usize = 64 * 1024;

/// One event's fixed-size record. Payload fields index the batch
/// arenas; unused fields are zero.
#[derive(Debug, Clone, Copy)]
struct BatchOp {
    kind: OpKind,
    name: Sym,
    /// Text ops: byte range `[a, b)` into the text arena.
    /// Start-element ops: attribute range `[a, b)` into the attr list.
    a: u32,
    b: u32,
    span: Span,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    StartDocument,
    EndDocument,
    Start,
    End,
    Text,
}

/// One attribute of a batched start element: interned name plus its
/// value's byte range in the text arena.
#[derive(Debug, Clone, Copy)]
struct BatchAttr {
    name: Sym,
    a: u32,
    b: u32,
}

/// A reusable, owned run of interned events (see the module docs).
///
/// # Reuse and invalidation
///
/// A batch is a value type over *copied* payloads: once
/// [`EventBatch::push`] returns, the batch is self-contained — it stays
/// valid across further parser feeds, resets, and thread sends, unlike
/// the borrowed [`SymEvent`]s it was built from. The intended lifecycle
/// is a loop of **fill → replay (any number of times) → [`EventBatch::clear`]**:
/// `clear` logically empties the batch but keeps every arena's
/// capacity, so a recycled batch performs zero allocations per event in
/// steady state. Pushing *without* clearing appends (batches
/// accumulate); replaying a cleared batch yields nothing. The one
/// invalidation rule: the [`Sym`]s inside a batch are only meaningful
/// against the symbol table of the parser that produced it, so a batch
/// must never outlive that table or cross to a consumer compiled
/// against a different one.
#[derive(Debug, Clone, Default)]
pub struct EventBatch {
    ops: Vec<BatchOp>,
    attrs: Vec<BatchAttr>,
    /// Payload arena: text contents and attribute values, concatenated.
    text: String,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> EventBatch {
        EventBatch::default()
    }

    /// Logically empties the batch, retaining every arena's capacity.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.attrs.clear();
        self.text.clear();
    }

    /// Number of batched events.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no events are batched.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total payload bytes held (text plus attribute values) — the
    /// batch-size knob producers cut batches on.
    pub fn payload_bytes(&self) -> usize {
        self.text.len()
    }

    /// Appends one event, copying its borrowed payloads into the
    /// batch's arenas. Allocation-free once the arenas are warm.
    pub fn push(&mut self, ev: &SymEvent<'_>, span: Span) {
        let op = match *ev {
            SymEvent::StartDocument => BatchOp {
                kind: OpKind::StartDocument,
                name: Sym::UNKNOWN,
                a: 0,
                b: 0,
                span,
            },
            SymEvent::EndDocument => BatchOp {
                kind: OpKind::EndDocument,
                name: Sym::UNKNOWN,
                a: 0,
                b: 0,
                span,
            },
            SymEvent::StartElement { name, attributes } => {
                let a = self.attrs.len() as u32;
                for attr in attributes {
                    let va = self.text.len() as u32;
                    self.text.push_str(&attr.value);
                    self.attrs.push(BatchAttr {
                        name: attr.name,
                        a: va,
                        b: self.text.len() as u32,
                    });
                }
                BatchOp {
                    kind: OpKind::Start,
                    name,
                    a,
                    b: self.attrs.len() as u32,
                    span,
                }
            }
            SymEvent::EndElement { name } => BatchOp {
                kind: OpKind::End,
                name,
                a: 0,
                b: 0,
                span,
            },
            SymEvent::Text { content } => {
                let a = self.text.len() as u32;
                self.text.push_str(content);
                BatchOp {
                    kind: OpKind::Text,
                    name: Sym::UNKNOWN,
                    a,
                    b: self.text.len() as u32,
                    span,
                }
            }
        };
        self.ops.push(op);
    }

    /// Replays the batch, reconstructing each event as a borrowed
    /// [`SymEvent`] — text borrows the batch arena directly, attribute
    /// slices are rebuilt in the caller's `scratch` (consumer-local,
    /// capacity reused). Allocation-free in steady state.
    pub fn replay<F: for<'a> FnMut(SymEvent<'a>, Span)>(&self, scratch: &mut AttrBuf, mut f: F) {
        for op in &self.ops {
            match op.kind {
                OpKind::StartDocument => f(SymEvent::StartDocument, op.span),
                OpKind::EndDocument => f(SymEvent::EndDocument, op.span),
                OpKind::Start => {
                    scratch.clear();
                    for attr in &self.attrs[op.a as usize..op.b as usize] {
                        scratch
                            .push_name(attr.name)
                            .push_str(&self.text[attr.a as usize..attr.b as usize]);
                    }
                    f(
                        SymEvent::StartElement {
                            name: op.name,
                            attributes: scratch.as_slice(),
                        },
                        op.span,
                    );
                }
                OpKind::End => f(SymEvent::EndElement { name: op.name }, op.span),
                OpKind::Text => f(
                    SymEvent::Text {
                        content: &self.text[op.a as usize..op.b as usize],
                    },
                    op.span,
                ),
            }
        }
    }

    /// Index of the first `StartDocument` at or after `from`, if any —
    /// how a decided consumer skips the rest of one document's events
    /// without replaying them (document boundaries are the only places
    /// a decided filter bank can wake up).
    pub fn find_start_document(&self, from: usize) -> Option<usize> {
        self.ops[from..]
            .iter()
            .position(|op| op.kind == OpKind::StartDocument)
            .map(|i| from + i)
    }

    /// [`EventBatch::replay`] from event index `from`, with per-event
    /// flow control: `f` returns `true` to keep going, `false` to stop
    /// after the current event. Returns the index of the first event
    /// *not* replayed (`len()` when the batch ran dry), so a consumer
    /// that short-circuits mid-batch (a filter bank going fully
    /// decided) can later resume — typically at the next
    /// [`EventBatch::find_start_document`] — without re-entering
    /// per-event dispatch in between.
    pub fn replay_control<F: for<'a> FnMut(SymEvent<'a>, Span) -> bool>(
        &self,
        from: usize,
        scratch: &mut AttrBuf,
        mut f: F,
    ) -> usize {
        for (i, op) in self.ops.iter().enumerate().skip(from) {
            let keep_going = match op.kind {
                OpKind::StartDocument => f(SymEvent::StartDocument, op.span),
                OpKind::EndDocument => f(SymEvent::EndDocument, op.span),
                OpKind::Start => {
                    scratch.clear();
                    for attr in &self.attrs[op.a as usize..op.b as usize] {
                        scratch
                            .push_name(attr.name)
                            .push_str(&self.text[attr.a as usize..attr.b as usize]);
                    }
                    f(
                        SymEvent::StartElement {
                            name: op.name,
                            attributes: scratch.as_slice(),
                        },
                        op.span,
                    )
                }
                OpKind::End => f(SymEvent::EndElement { name: op.name }, op.span),
                OpKind::Text => f(
                    SymEvent::Text {
                        content: &self.text[op.a as usize..op.b as usize],
                    },
                    op.span,
                ),
            };
            if !keep_going {
                return i + 1;
            }
        }
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Symbols;

    /// Round-trips a parsed document through a batch and checks the
    /// replayed events equal the direct emission.
    #[test]
    fn batch_replay_round_trips_events_and_spans() {
        let xml = r#"<a id="1" x="&amp;"><b>hi &amp; bye</b><c/>t</a>"#;
        let symbols = std::sync::Arc::new(Symbols::new());
        let mut parser = crate::StreamingParser::with_symbols(std::sync::Arc::clone(&symbols));
        let mut direct: Vec<(crate::Event, Span)> = Vec::new();
        let mut batch = EventBatch::new();
        parser
            .feed_interned(xml, &mut |ev, s| {
                direct.push((ev.to_owned(&symbols), s));
                batch.push(&ev, s);
            })
            .unwrap();
        parser
            .finish_interned(&mut |ev, s| {
                direct.push((ev.to_owned(&symbols), s));
                batch.push(&ev, s);
            })
            .unwrap();
        assert_eq!(batch.len(), direct.len());
        // Replay twice: batches are multi-consumer.
        for _ in 0..2 {
            let mut scratch = AttrBuf::new();
            let mut replayed = Vec::new();
            batch.replay(&mut scratch, |ev, s| {
                replayed.push((ev.to_owned(&symbols), s))
            });
            assert_eq!(replayed, direct);
        }
        // Clearing keeps capacity and empties the batch.
        let cap = batch.text.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.payload_bytes(), 0);
        assert_eq!(batch.text.capacity(), cap);
    }
}
