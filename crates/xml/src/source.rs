//! The frontend chassis: **a frontend = a [`Grammar`]**.
//!
//! The frontier core is format-agnostic — it consumes interned
//! [`SymEvent`]s, never XML text — and the paper's `O(FS(Q)·log d)`
//! frontier-space bound is stated over event streams of nesting depth
//! `d`, not over XML. So the only format-specific code in the whole
//! system is a tokenizer's grammar; everything else a streaming
//! tokenizer needs is the same for every format and lives here, once,
//! in [`Frontend`]:
//!
//! * the **input buffer**: bytes in, validated as UTF-8 once per chunk
//!   (a scalar split across a chunk boundary is carried to the next
//!   feed), parsed *in place* when no partial token is pending, and
//!   otherwise buffered — only the incomplete tail of each feed is ever
//!   copied, and the buffer compacts once per feed;
//! * **name resolution** ([`Names`]) in its two modes, interning and
//!   [`Frontend::lookup_only`], and the once-per-document check that
//!   shows a lookup-only frontend the names interned behind it;
//! * the **two drivers** over one read loop and one recycled I/O
//!   chunk: [`Frontend::drive_to`] hands each event to an [`EventSink`]
//!   as it completes — the in-thread path, monomorphized into the
//!   consumer ([`Frontend::drive`] for a plain callback) — and
//!   [`Frontend::drive_batched`] fills a recycled [`EventBatch`], cut on
//!   [`BATCH_EVENTS`] / [`BATCH_BYTES`], for a consumer on another
//!   thread or one that replays the run;
//! * the one [`EventSource`] implementation the engine drives.
//!
//! # Passing over what the consumer cannot see
//!
//! A sink may export a [`Horizon`] ([`EventSink::horizon`]): an open
//! element depth below which only start tags it [`EventSink::sees`]
//! can change its state, and, whenever it has one, no text at all. A
//! grammar may then pass such events over instead of delivering them,
//! and it tells the sink how many it passed over, and where the stream
//! went meanwhile ([`Stretch`]), before the next event it delivers.
//! Passing over changes no rule a grammar checks: a malformed document
//! fails with the same message at the same byte either way. Today
//! [`crate::XmlGrammar`] passes over; the other grammars deliver every
//! event, and a plain callback has no horizon.
//!
//! The frontends are aliases: [`crate::StreamingParser`] is
//! `Frontend<XmlGrammar>`, `fx_html::HtmlParser` is
//! `Frontend<HtmlGrammar>`, `fx_json::JsonParser` and
//! `fx_json::NdjsonParser` are `Frontend<JsonGrammar>` and
//! `Frontend<NdjsonGrammar>`.
//!
//! # Adding a format
//!
//! 1. Define a `struct FooGrammar` holding only token state (open
//!    containers, a "document started" flag, decode scratch); derive
//!    `Default`.
//! 2. Implement [`Grammar::drain`]: walk `input[cur.pos..]`, and for
//!    each *complete* token call [`Cursor::advance`] (it returns the
//!    token's stream [`Span`]) and hand its events to the sink
//!    ([`EventSink::event`]), resolving names
//!    through [`Names::resolve`]. Stop — leaving the cursor before it —
//!    at a token that more input could still complete, unless `at_eof`.
//! 3. Implement [`Grammar::finish`]: check completeness (or close what
//!    is open, for a lenient format) and emit `EndDocument`.
//! 4. Implement [`Grammar::reset`]: clear per-document state, keep
//!    scratch capacity.
//! 5. `pub type FooParser = Frontend<FooGrammar>;` — feeds, finish,
//!    both drivers, both name modes and `EventSource` come with it.
//! 6. Add the alias to `tests/chunk_split.rs`: one line proves the
//!    grammar is chunk-boundary transparent.

use crate::batch::{EventBatch, BATCH_BYTES, BATCH_EVENTS};
use crate::parser::ParseError;
use crate::span::Span;
use crate::symbols::{Sym, SymCache, SymEvent, Symbols};
use std::io::Read;
use std::sync::Arc;

/// Bytes the reader drivers ask for per `read` call.
pub(crate) const READ_CHUNK: usize = 8 * 1024;

/// A streaming producer of one document's interned SAX events — what
/// an engine session drives (`Session::run_source`). Every [`Frontend`]
/// is one; a source is reusable across documents
/// ([`EventSource::reset`] is called before each drive and keeps
/// scratch buffers warm).
pub trait EventSource {
    /// The symbol table this source resolves names against. Syms in the
    /// emitted events are only meaningful to consumers compiled against
    /// the same table.
    fn symbols(&self) -> &Arc<Symbols>;

    /// Resets per-document state so the source can stream another
    /// document, keeping amortizable scratch (buffers, the name view)
    /// warm — and where a lookup-only source catches up with names
    /// interned into its table since the last document.
    fn reset(&mut self);

    /// Streams one whole document from `reader`, handing `emit` every
    /// event with its span (the `StartDocument`/`EndDocument` framing
    /// included) the moment the tokenizer completes it: payloads borrow
    /// the input or the grammar's scratch and are valid for that call
    /// only. This is what a session rides for a frontend it is handed
    /// (`Session::run_source*`) — one virtual call per event, nothing
    /// materialized in between. Memory stays bounded by the read chunk
    /// and the largest single input token. Every event completed before
    /// an error — malformed input or a failed read — reaches `emit`
    /// before the error is returned.
    fn drive(
        &mut self,
        reader: &mut dyn Read,
        emit: &mut dyn FnMut(SymEvent<'_>, Span),
    ) -> Result<(), ParseError>;

    /// [`EventSource::drive`] as **runs of events**, for a consumer the
    /// stream cannot reach by a call — another thread, or one that
    /// replays a run more than once: the source fills a reusable
    /// arena-backed [`EventBatch`] (events plus spans) and hands each
    /// full batch to `consume`. The batch borrow is valid only for the
    /// duration of the call (the source recycles it); memory stays
    /// bounded by the read chunk, the batch cut ([`crate::BATCH_EVENTS`]
    /// / [`crate::BATCH_BYTES`]), and the largest single input token —
    /// never by document size. Event order, spans, and the paper's
    /// frontier-space bounds are exactly those of the per-event stream —
    /// and so is the error contract: every event completed before an
    /// error reaches `consume` before the error is returned, wherever
    /// the cut fell.
    fn drive_batched(
        &mut self,
        reader: &mut dyn Read,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError>;
}

/// Where a grammar's token loop hands one document's events, and what
/// it asks the consumer before it hands one over.
///
/// Every `FnMut(SymEvent<'_>, Span)` closure is a sink that sees
/// everything: it has no horizon, so nothing is passed over. A consumer
/// whose state most events cannot change sets [`EventSink::HAS_HORIZON`]
/// and implements the other three methods, and a grammar that can pass
/// events over consults them (see the module docs).
pub trait EventSink {
    /// Whether [`EventSink::horizon`] can ever be `Some`. A grammar asks
    /// a sink that says no (every closure) nothing and counts nothing
    /// for it, so a sink that sees every event pays nothing per event.
    const HAS_HORIZON: bool = false;

    /// Takes one event; its payloads borrow the input or the grammar's
    /// scratch and are valid for this call only.
    fn event(&mut self, event: SymEvent<'_>, span: Span);

    /// The consumer's horizon, asked again after each delivered event
    /// (an event passed over never moves it). `None`, the default:
    /// every event may matter.
    #[inline]
    fn horizon(&mut self) -> Option<Horizon> {
        None
    }

    /// Whether an element named `name` can change the consumer's state
    /// at any depth. Asked only for a start tag below the horizon.
    #[inline]
    fn sees(&self, name: &str) -> bool {
        let _ = name;
        true
    }

    /// The events passed over since the last one delivered. Arrives
    /// before the next delivered event, and before a drain returns, so
    /// a consumer that counts its events never falls behind.
    #[inline]
    fn passed_over(&mut self, stretch: Stretch) {
        let _ = stretch;
    }
}

impl<F: FnMut(SymEvent<'_>, Span) + ?Sized> EventSink for F {
    #[inline]
    fn event(&mut self, event: SymEvent<'_>, span: Span) {
        self(event, span)
    }
}

/// What a sink can still see ([`EventSink::horizon`]): no text can
/// change its state, and no element opening at an open-element depth
/// greater than `level` can either, unless the sink
/// [`EventSink::sees`] its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Horizon {
    /// The deepest level at which any element may matter.
    pub level: usize,
}

/// A run of events a grammar passed over, and where it left the
/// stream (see [`EventSink::passed_over`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stretch {
    /// Events passed over: start tags, end tags and text nodes, each
    /// counted as the event it would have been.
    pub events: u64,
    /// The open-element depth after the stretch.
    pub level: usize,
    /// Start tags of the document so far, passed-over ones included:
    /// the 0-based ordinal of the next start tag.
    pub ordinal: u64,
    /// The deepest open-element depth over the stretch, both of its
    /// ends included.
    pub deepest: usize,
}

/// A streaming error positioned at stream byte `offset` (0-based):
/// `line` is 0 and `column` the 1-based byte, which `Display` prints as
/// `at byte N`.
pub(crate) fn error_at(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
        line: 0,
        column: offset + 1,
    }
}

/// A grammar's position in its input: `pos` indexes the `input` slice
/// handed to [`Grammar::drain`], and the chassis knows which stream
/// byte `input[0]` is, so positions turn into stream offsets without
/// the grammar keeping a second counter.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    /// Index of the first unconsumed byte of the input slice.
    pub pos: usize,
    /// Stream offset of `input[0]`.
    base: usize,
}

impl Cursor {
    /// Stream offset of the first unconsumed byte.
    #[inline]
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Consumes `n` bytes and returns the stream span they covered.
    #[inline]
    pub fn advance(&mut self, n: usize) -> Span {
        let start = self.offset() as u64;
        self.pos += n;
        Span::new(start, start + n as u64)
    }

    /// An error positioned at the cursor.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        error_at(self.offset(), message)
    }
}

/// Name resolution in its two modes: [`Symbols::intern`] (interning,
/// the default), or one lock-free probe into the table's shared frozen
/// view, held by a [`SymCache`], where a name the view lacks becomes
/// [`Sym::UNKNOWN`] ([`Frontend::lookup_only`]).
#[derive(Debug, Clone)]
pub struct Names {
    symbols: Arc<Symbols>,
    /// False in [`Frontend::lookup_only`] mode.
    intern: bool,
    cache: SymCache,
}

impl Names {
    /// Resolves a name per the mode.
    pub fn resolve(&mut self, name: &str) -> Sym {
        if self.intern {
            self.symbols.intern(name)
        } else {
            self.cache.lookup(&self.symbols, name)
        }
    }

    /// True in the default mode, where distinct names get distinct
    /// syms — so a grammar may compare names by sym. Under the
    /// lookup-only collapse it must compare by string.
    pub(crate) fn interning(&self) -> bool {
        self.intern
    }
}

/// The format-specific part of a frontend: a token state machine, an
/// end-of-input rule, and a per-document reset. See the module docs
/// for the recipe.
pub trait Grammar: Default {
    /// Hands `sink` every event completed by `input[cur.pos..]`,
    /// advancing the cursor past each consumed token and leaving it at
    /// the first incomplete one (the chassis re-presents that tail,
    /// extended, on the next call). With `at_eof` no more input will
    /// come: tokens that only end-of-input can complete (trailing text,
    /// a bare number) are emitted too.
    fn drain<S: EventSink + ?Sized>(
        &mut self,
        names: &mut Names,
        input: &str,
        cur: &mut Cursor,
        at_eof: bool,
        sink: &mut S,
    ) -> Result<(), ParseError>;

    /// The end-of-input rule, called once after the final
    /// `drain(.., at_eof = true)`: verifies the document is complete
    /// (or recovers) and emits the closing `EndDocument`.
    fn finish<S: EventSink + ?Sized>(
        &mut self,
        input: &str,
        cur: &mut Cursor,
        sink: &mut S,
    ) -> Result<(), ParseError>;

    /// Clears per-document state, keeping scratch capacity.
    fn reset(&mut self);
}

/// A grammar with ignorable whitespace-only text nodes (XML, HTML),
/// dropped unless [`Frontend::keep_whitespace`] is set.
pub trait WhitespaceText {
    /// Keeps whitespace-only text nodes from now on.
    fn keep_whitespace(&mut self);
}

/// Total byte width of the UTF-8 sequence introduced by `lead`.
fn scalar_width(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// An incomplete UTF-8 scalar carried across byte-chunk boundaries: at
/// most 3 bytes of a 2–4-byte sequence, held inline (no allocation).
/// A read boundary inside a multibyte character parks the split scalar
/// here instead of failing — or worse, slicing a `&str` mid-scalar.
#[derive(Debug, Clone, Copy, Default)]
struct Utf8Carry {
    tail: [u8; 4],
    len: u8,
}

impl Utf8Carry {
    /// Appends `chunk`'s text to `out`: first the carried scalar, once
    /// `chunk` completes it, then the chunk's maximal valid-UTF-8 run;
    /// a new incomplete trailing scalar is carried. `at` is the stream
    /// offset of `chunk[0]`. Errors — after appending the valid text
    /// before them — only on bytes that cannot be part of any scalar.
    fn feed(
        &mut self,
        mut chunk: &[u8],
        mut at: usize,
        out: &mut String,
    ) -> Result<(), ParseError> {
        let invalid = |at: usize, e: std::str::Utf8Error| {
            error_at(at + e.valid_up_to(), format!("invalid UTF-8 in input: {e}"))
        };
        if self.len > 0 {
            let (carried, width) = (self.len as usize, scalar_width(self.tail[0]));
            while (self.len as usize) < width {
                let Some((&b, rest)) = chunk.split_first() else {
                    return Ok(());
                };
                self.tail[self.len as usize] = b;
                self.len += 1;
                chunk = rest;
            }
            self.len = 0;
            match std::str::from_utf8(&self.tail[..width]) {
                Ok(scalar) => out.push_str(scalar),
                Err(e) => return Err(invalid(at - carried, e)),
            }
            at += width - carried;
        }
        let (text, result) = match std::str::from_utf8(chunk) {
            Ok(text) => (text, Ok(())),
            Err(e) => {
                let valid = std::str::from_utf8(&chunk[..e.valid_up_to()]);
                let incomplete = e.error_len().is_none();
                (
                    valid.expect("validated prefix"),
                    if incomplete {
                        Ok(())
                    } else {
                        Err(invalid(at, e))
                    },
                )
            }
        };
        out.push_str(text);
        if result.is_ok() {
            let tail = &chunk[text.len()..];
            self.tail[..tail.len()].copy_from_slice(tail);
            self.len = tail.len() as u8;
        }
        result
    }
}

/// One `read` into `chunk`, retried on `Interrupted` (by `std::io`
/// convention a signal, not the end of the stream). `at` — the stream
/// offset the read would have filled — positions the error.
pub(crate) fn read_some(
    reader: &mut dyn Read,
    chunk: &mut [u8],
    at: usize,
) -> Result<usize, ParseError> {
    loop {
        match reader.read(chunk) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(error_at(at, format!("read error: {e}"))),
        }
    }
}

/// A resumable push tokenizer for the format of grammar `G`: feed it
/// byte chunks cut anywhere; it emits interned events through a
/// callback the moment they are complete and buffers only the current
/// incomplete token. See the module docs for what lives here and what
/// lives in the grammar.
///
/// Names are interned into the frontend's shared [`Symbols`] table and
/// payloads borrow the input or reusable scratch, so steady-state
/// tokenizing performs **zero heap allocations per element event**.
/// Owned [`crate::Event`]s are one [`SymEvent::to_owned`] away.
#[derive(Debug, Clone)]
pub struct Frontend<G> {
    grammar: G,
    names: Names,
    /// Input not yet consumed: after a feed, the incomplete trailing
    /// token.
    buf: String,
    /// Consumed prefix of `buf`: tokens advance this cursor instead of
    /// draining the buffer (an O(remaining) memmove per token — on a
    /// whole-document feed that is quadratic in document size). The
    /// buffer compacts once per feed, amortizing the move to O(1) per
    /// byte.
    pos: usize,
    /// Stream offset of `buf[0]`.
    base: usize,
    carry: Utf8Carry,
    finished: bool,
    /// Reused read buffer of the two drivers.
    io_chunk: Vec<u8>,
    /// Reused event batch for [`Frontend::drive_batched`]: recycled
    /// (`clear` keeps arena capacity) so the batched drive allocates
    /// nothing per event in steady state.
    ev_batch: EventBatch,
}

impl<G: Grammar> Default for Frontend<G> {
    fn default() -> Self {
        Frontend::new()
    }
}

impl<G: Grammar> Frontend<G> {
    /// A frontend with default options and a fresh private [`Symbols`]
    /// table.
    pub fn new() -> Self {
        Frontend::with_symbols(Arc::new(Symbols::new()))
    }

    /// A frontend interning names into `symbols` — the table the
    /// downstream filters' compiled node tests live in, so interned
    /// events and compiled queries meet as equal integers.
    pub fn with_symbols(symbols: Arc<Symbols>) -> Self {
        Frontend {
            grammar: G::default(),
            names: Names {
                symbols,
                intern: true,
                cache: SymCache::new(),
            },
            buf: String::new(),
            pos: 0,
            base: 0,
            carry: Utf8Carry::default(),
            finished: false,
            io_chunk: Vec::new(),
            ev_batch: EventBatch::new(),
        }
    }

    /// Switches to *lookup-only* name resolution: document names are
    /// resolved against the (shared) table without interning — names
    /// the table has never seen collapse to [`Sym::UNKNOWN`], exactly
    /// as [`crate::AttrBuf::sym_event`] treats owned events (they fail
    /// every named node test and pass every wildcard), and the table
    /// never grows with document content. This is how a long-lived
    /// engine keeps bounded memory on streams with unbounded
    /// distinct-name cardinality; the default interning mode instead
    /// guarantees distinct syms per distinct name (what
    /// [`SymEvent::to_owned`] needs to give every name back — on a
    /// lookup-only stream it renders unknown names as one sentinel).
    ///
    /// Queries may be compiled against the table at any time: names
    /// interned behind a live frontend are seen from its next document
    /// ([`Frontend::reset`]) on — never mid-document, so both tags of an
    /// element always resolve alike (see [`crate::SymCache`]).
    pub fn lookup_only(mut self) -> Self {
        self.names.intern = false;
        self
    }

    /// Keeps whitespace-only text nodes (dropped by default, matching
    /// [`crate::parse`]).
    pub fn keep_whitespace(mut self) -> Self
    where
        G: WhitespaceText,
    {
        self.grammar.keep_whitespace();
        self
    }

    /// The symbol table this frontend resolves names against.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.names.symbols
    }

    /// Resets per-document state so the frontend can stream another
    /// document, keeping everything amortizable warm: the symbol table
    /// handle, its view, and every scratch buffer's capacity.
    /// Sessions reuse one frontend across documents this way.
    /// A lookup-only frontend whose table grew since its last document
    /// (a late subscription) moves to the table's new view here — the
    /// one place it does; see [`crate::SymCache`].
    pub fn reset(&mut self) {
        self.grammar.reset();
        self.buf.clear();
        self.pos = 0;
        self.base = 0;
        self.carry.len = 0;
        self.finished = false;
        self.names.cache.sync(&self.names.symbols);
    }

    /// Stream offset of the next byte a feed will bring.
    pub(crate) fn fed(&self) -> usize {
        self.base + self.buf.len() + self.carry.len as usize
    }

    /// [`Frontend::feed_interned_bytes`] for text in hand. A `&str` fed
    /// while a split scalar is pending is invalid UTF-8 at that scalar,
    /// as the same bytes would be.
    pub fn feed_interned<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        chunk: &str,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.feed_interned_bytes(chunk.as_bytes(), emit)
    }

    /// Feeds a chunk of raw bytes cut at **any** boundary — including
    /// mid-character — emitting every completed event in *interned*,
    /// zero-copy form: names are [`Sym`]s from the frontend's table,
    /// attribute and text payloads borrow the input or the grammar's
    /// reusable scratch (valid for the duration of the callback).
    /// UTF-8 is validated once per chunk. Events completed before an
    /// error are emitted before it is returned.
    pub fn feed_interned_bytes<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        chunk: &[u8],
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.feed_to(chunk, emit)
    }

    // The whole drain chain is generic over the sink (`?Sized` keeps
    // `&mut dyn FnMut` callers working): a concrete sink handed to the
    // public generic surface monomorphizes all the way into the
    // grammar's token loop — the filter inlines into the tokenizer,
    // with no virtual call per event.
    fn feed_to<S: EventSink + ?Sized>(
        &mut self,
        chunk: &[u8],
        sink: &mut S,
    ) -> Result<(), ParseError> {
        // Drop the consumed prefix (cheap when it was fully consumed,
        // one move of the unconsumed tail otherwise).
        if self.pos > 0 {
            if self.pos == self.buf.len() {
                self.buf.clear();
            } else {
                self.buf.drain(..self.pos);
            }
            self.base += self.pos;
            self.pos = 0;
        }
        if self.buf.is_empty() && self.carry.len == 0 {
            // Zero-copy fast path: no partial token or scalar is
            // pending, so a wholly valid chunk is itself the input —
            // parse in place and buffer only the incomplete tail. A
            // chunk that fails whole-validation (split trailing scalar,
            // or truly invalid bytes) takes the carry path below, which
            // distinguishes the two.
            if let Ok(text) = std::str::from_utf8(chunk) {
                let mut cur = Cursor {
                    pos: 0,
                    base: self.base,
                };
                let result = self
                    .grammar
                    .drain(&mut self.names, text, &mut cur, false, sink);
                self.buf.push_str(&text[cur.pos..]);
                self.base += cur.pos;
                return result;
            }
        }
        let at = self.fed();
        let fed = self.carry.feed(chunk, at, &mut self.buf);
        // A tokenizer error lies earlier in the stream than a UTF-8
        // error of the same chunk.
        self.drain(false, sink).and(fed)
    }

    fn drain<S: EventSink + ?Sized>(
        &mut self,
        at_eof: bool,
        sink: &mut S,
    ) -> Result<(), ParseError> {
        let mut cur = Cursor {
            pos: self.pos,
            base: self.base,
        };
        let mut result = self
            .grammar
            .drain(&mut self.names, &self.buf, &mut cur, at_eof, sink);
        if at_eof && result.is_ok() {
            result = self.grammar.finish(&self.buf, &mut cur, sink);
        }
        self.pos = cur.pos;
        result
    }

    /// Signals end of input: emits any trailing events (including
    /// `EndDocument`) and applies the grammar's completeness rule.
    pub fn finish_interned<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.finish_to(emit)
    }

    fn finish_to<S: EventSink + ?Sized>(&mut self, sink: &mut S) -> Result<(), ParseError> {
        if self.finished {
            return Err(error_at(self.base + self.pos, "finish called twice"));
        }
        if self.carry.len > 0 {
            return Err(error_at(
                self.base + self.buf.len(),
                "invalid UTF-8: truncated scalar at end of input",
            ));
        }
        self.drain(true, sink)?;
        self.finished = true;
        Ok(())
    }

    /// [`Frontend::drive_to`] with a plain callback, which sees every
    /// event.
    pub fn drive<R: Read, F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        reader: R,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.drive_to(reader, emit)
    }

    /// Streams a whole document from `reader`: reads fixed-size chunks
    /// into a recycled buffer, feeds them, finishes, and hands `sink`
    /// every event the moment it is complete — or, below the sink's
    /// horizon, passes it over and tells the sink so (see the module
    /// docs). A concrete sink monomorphizes all the way into the
    /// grammar's token loop, so an in-thread consumer (a filter, a
    /// bank) inlines into the tokenizer with nothing materialized in
    /// between; this is what `Session::run_reader*` rides.
    ///
    /// Memory is bounded by the chunk plus the largest single token,
    /// never by document size — and in [`Frontend::lookup_only`] mode
    /// (how the engine drives this) the shared symbol table stays
    /// bounded by the compiled query vocabulary too. Events completed
    /// before an error (malformed input, a failed read) are emitted
    /// before it is returned.
    pub fn drive_to<R: Read, S: EventSink + ?Sized>(
        &mut self,
        mut reader: R,
        sink: &mut S,
    ) -> Result<(), ParseError> {
        self.read_loop(&mut reader, sink, |_| {})
    }

    /// [`Frontend::drive`] as *batches*, for a consumer on another
    /// thread or one that replays a run more than once: events go into
    /// the recycled [`EventBatch`] (events plus spans, arenas reused —
    /// zero allocation per event in steady state), which `consume`
    /// gets whenever it reaches [`BATCH_EVENTS`] events or
    /// [`BATCH_BYTES`] payload bytes, checked once per read chunk. The
    /// batch borrow handed to `consume` is only valid for that call.
    pub fn drive_batched<R: Read>(
        &mut self,
        mut reader: R,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError> {
        EventSource::drive_batched(self, &mut reader, consume)
    }

    /// The one read loop, under both drivers: every event goes to
    /// `sink`, and `chunk_end` runs after each fed chunk. Not generic
    /// over the reader, so the feed it monomorphizes over the sink
    /// exists once per consumer.
    fn read_loop<S: EventSink + ?Sized>(
        &mut self,
        reader: &mut dyn Read,
        sink: &mut S,
        chunk_end: impl Fn(&mut S),
    ) -> Result<(), ParseError> {
        // Take the recycled chunk out for the loop (so reading into it
        // and feeding `self` borrow independently) and restore it on
        // the one exit path.
        let mut chunk = std::mem::take(&mut self.io_chunk);
        if chunk.is_empty() {
            chunk.resize(READ_CHUNK, 0);
        }
        let result = loop {
            let n = match read_some(reader, &mut chunk, self.fed()) {
                Ok(n) => n,
                Err(e) => break Err(e),
            };
            if n == 0 {
                break self.finish_to(sink);
            }
            if let Err(e) = self.feed_to(&chunk[..n], sink) {
                break Err(e);
            }
            chunk_end(sink);
        };
        self.io_chunk = chunk;
        result
    }
}

/// The sink behind [`Frontend::drive_batched`]: fills the recycled
/// batch, which the read loop hands on once per chunk when full.
struct Batching<'a> {
    batch: EventBatch,
    consume: &'a mut dyn FnMut(&EventBatch),
}

impl EventSink for Batching<'_> {
    fn event(&mut self, event: SymEvent<'_>, span: Span) {
        self.batch.push(&event, span);
    }
}

impl<G: Grammar> EventSource for Frontend<G> {
    fn symbols(&self) -> &Arc<Symbols> {
        Frontend::symbols(self)
    }

    fn reset(&mut self) {
        Frontend::reset(self);
    }

    fn drive(
        &mut self,
        reader: &mut dyn Read,
        emit: &mut dyn FnMut(SymEvent<'_>, Span),
    ) -> Result<(), ParseError> {
        Frontend::drive(self, reader, emit)
    }

    fn drive_batched(
        &mut self,
        reader: &mut dyn Read,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError> {
        let mut batch = std::mem::take(&mut self.ev_batch);
        batch.clear();
        let mut state = Batching { batch, consume };
        let result = self.read_loop(reader, &mut state, |state| {
            let batch = &mut state.batch;
            if batch.len() >= BATCH_EVENTS || batch.payload_bytes() >= BATCH_BYTES {
                (state.consume)(batch);
                batch.clear();
            }
        });
        // On an error too: the events completed before it are the
        // consumer's wherever the cut happened to fall.
        let Batching { mut batch, consume } = state;
        if !batch.is_empty() {
            consume(&batch);
        }
        batch.clear();
        self.ev_batch = batch;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StreamingParser;
    use crate::symbols::AttrBuf;
    use crate::Event;

    /// One document through the trait object, each batch replayed to
    /// owned events.
    fn drive_owned(source: &mut dyn EventSource, xml: &str) -> Vec<Event> {
        let symbols = Arc::clone(source.symbols());
        let (mut got, mut scratch) = (Vec::new(), AttrBuf::new());
        source
            .drive_batched(&mut xml.as_bytes(), &mut |batch| {
                batch.replay(&mut scratch, |ev, _| got.push(ev.to_owned(&symbols)))
            })
            .unwrap();
        got
    }

    #[test]
    fn streaming_parser_is_an_event_source() {
        let mut parser = StreamingParser::new();
        let xml = "<a><b>6</b></a>";
        assert_eq!(drive_owned(&mut parser, xml), crate::parse(xml).unwrap());
        // Reusable: reset, then stream a second document.
        EventSource::reset(&mut parser);
        assert_eq!(
            drive_owned(&mut parser, "<x/>"),
            crate::parse("<x/>").unwrap()
        );
    }

    fn lookup_only(symbols: &Arc<Symbols>) -> StreamingParser {
        StreamingParser::with_symbols(Arc::clone(symbols)).lookup_only()
    }

    /// The element-name syms of the start and end tags `chunk` completes.
    fn tag_syms(parser: &mut StreamingParser, chunk: &str) -> Vec<Sym> {
        let mut syms = Vec::new();
        let mut emit = |ev: SymEvent<'_>, _| match ev {
            SymEvent::StartElement { name, .. } | SymEvent::EndElement { name } => syms.push(name),
            _ => {}
        };
        parser.feed_interned(chunk, &mut emit).unwrap();
        syms
    }

    #[test]
    fn lookup_only_sees_names_interned_behind_it_at_the_next_document() {
        let symbols = Arc::new(Symbols::new());
        let (r, unknown) = (symbols.intern("r"), Sym::UNKNOWN);
        let mut parser = lookup_only(&symbols);
        let doc = "<r><gadget/></r>";
        assert_eq!(tag_syms(&mut parser, doc), [r, unknown, unknown, r]);
        let gadget = symbols.intern("gadget");
        parser.reset();
        assert_eq!(tag_syms(&mut parser, doc), [r, gadget, gadget, r]);
    }

    #[test]
    fn a_name_interned_mid_document_stays_unknown_to_its_end() {
        let symbols = Arc::new(Symbols::new());
        let (r, unknown) = (symbols.intern("r"), Sym::UNKNOWN);
        let mut parser = lookup_only(&symbols);
        assert_eq!(tag_syms(&mut parser, "<r><gadget>"), [r, unknown]);
        // Interned mid-document: invisible until the next one, looked up
        // before (`gadget`) or not (`gizmo`).
        symbols.intern("gadget");
        symbols.intern("gizmo");
        assert_eq!(
            tag_syms(&mut parser, "</gadget><gizmo><gadget/></gizmo></r>"),
            [unknown, unknown, unknown, unknown, unknown, r]
        );
    }

    #[test]
    fn a_frontend_takes_one_new_view_per_table_growth_it_meets() {
        let symbols = Arc::new(Symbols::new());
        let mut parser = lookup_only(&symbols);
        tag_syms(&mut parser, "<r/>");
        // Held by the table, the frontend and this test.
        let first = symbols.snapshot();
        assert_eq!(Arc::strong_count(&first), 3);
        // Five names between two documents: nothing is rebuilt until
        // the reset, which moves table and frontend to one new view.
        for i in 0..5 {
            symbols.intern(&format!("late-{i}"));
        }
        assert_eq!(Arc::strong_count(&first), 3);
        parser.reset();
        assert_eq!(Arc::strong_count(&first), 1);
        let second = symbols.snapshot();
        assert_eq!((second.len(), Arc::strong_count(&second)), (5, 3));
        // No growth: the next document keeps the view.
        parser.reset();
        assert_eq!(Arc::strong_count(&second), 3);
    }

    #[test]
    fn names_longer_than_a_memo_slot_resolve_through_the_view() {
        let long = "a-name-of-exactly-thirty-bytes";
        assert_eq!(long.len(), 30);
        let symbols = Arc::new(Symbols::new());
        let sym = symbols.intern(long);
        let doc = format!("<{long}><{long}-not-in-the-table/></{long}>");
        assert_eq!(
            tag_syms(&mut lookup_only(&symbols), &doc),
            [sym, Sym::UNKNOWN, Sym::UNKNOWN, sym]
        );
    }

    #[test]
    fn read_errors_carry_the_stream_position() {
        /// Yields its bytes, then fails.
        struct Broken<'a>(&'a [u8]);
        impl Read for Broken<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::other("cable cut"));
                }
                self.0.read(out)
            }
        }
        let mut events = 0;
        let err = StreamingParser::new()
            .drive_batched(Broken(b"<a><b/>"), &mut |batch| events += batch.len())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "XML parse error at byte 8: read error: cable cut"
        );
        // StartDocument, <a>, <b>, </b> were complete before the fault.
        assert_eq!(events, 4);
        let mut driven = 0;
        let per_event = StreamingParser::new().drive(Broken(b"<a><b/>"), &mut |_, _| driven += 1);
        assert_eq!((per_event.unwrap_err(), driven), (err.clone(), 4));
        let last = crate::EventIter::new(Broken(b"<a><b/>")).last().unwrap();
        assert_eq!(last.unwrap_err(), err);
    }

    #[test]
    fn event_source_drive_matches_feed_and_finish() {
        let xml = "<a attr=\"v\">x &amp; y<b/></a>";
        let mut p1 = StreamingParser::new();
        let s1 = Arc::clone(p1.symbols());
        let mut fed: Vec<Event> = Vec::new();
        p1.feed_interned(xml, &mut |ev, _| fed.push(ev.to_owned(&s1)))
            .unwrap();
        p1.finish_interned(&mut |ev, _| fed.push(ev.to_owned(&s1)))
            .unwrap();
        assert_eq!(drive_owned(&mut StreamingParser::new(), xml), fed);
    }
}
